//! The traced round must simulate exactly what the measured rounds do,
//! and its layer times must account for each unit's wall time.

use jem_core::{ResilienceConfig, Strategy};
use jem_perf::attrib::{Layer, LayerTimes};
use jem_perf::bench::{Kind, Probe, Runner, Unit, UnitSpec};
use jem_sim::{Scenario, Situation};

/// faults-sweep's units at one severity, shortened, plus a fig7-style
/// cell of fe under every strategy: every layer of the table gets
/// exercised on the one cheap app.
fn runner() -> Runner {
    let mut runner = Runner::new(Kind::FaultsSweep, 0, false).expect("set-up");
    runner.units.retain(|u| u.name.starts_with("loss0.50"));
    for u in &mut runner.units {
        if let UnitSpec::Scenario { scenario, .. } = &mut u.spec {
            *scenario = scenario.clone().with_runs(20);
        }
    }
    let sizes = runner.setup.apps[0].workload.sizes();
    for sit in Situation::ALL {
        for strategy in Strategy::ALL {
            runner.units.push(Unit {
                name: format!("fe/{}/{}", sit.key(), strategy.key()),
                spec: UnitSpec::Scenario {
                    app: 0,
                    scenario: Scenario::paper(sit, &sizes, 1000).with_runs(3),
                    strategy,
                    resilience: ResilienceConfig::default(),
                    arg_seed: 1,
                },
            });
        }
    }
    runner
}

#[test]
fn traced_runs_match_untraced_and_reconcile_to_wall_time() {
    let mut runner = runner();
    let mut all = LayerTimes::default();
    for i in 0..runner.units.len() {
        let name = runner.units[i].name.clone();
        let plain = runner.run_unit(i, false, Probe::None);
        let mut layers = LayerTimes::default();
        let traced = runner.run_unit(i, false, Probe::HostClock(&mut layers));
        assert_eq!(
            traced.digest, plain.digest,
            "{name}: tracing changed the simulation"
        );
        assert_eq!(
            layers.get(Layer::Other),
            0.0,
            "{name}: unattributed event pair"
        );
        let gap = (traced.secs - layers.total()).abs() / traced.secs;
        assert!(
            gap <= 0.02,
            "{name}: layers cover {:.4}s of {:.4}s",
            layers.total(),
            traced.secs
        );
        all.merge(&layers);
    }
    for layer in [
        Layer::VmNew,
        Layer::Loop,
        Layer::MakeArgs,
        Layer::Decide,
        Layer::Compile,
        Layer::Send,
        Layer::Server,
        Layer::Recv,
        Layer::Interp,
        Layer::Exec(0),
        Layer::Exec(1),
        Layer::Exec(2),
    ] {
        assert!(all.get(layer) > 0.0, "{} never attributed", layer.metric());
    }
    assert!(all.exec_instructions > 0 && all.interp_instructions > 0);
}

#[test]
fn observed_runs_match_plain_ones_and_reconcile_too() {
    let mut runner = Runner::new(Kind::FaultsObserved, 0, false).expect("set-up");
    runner.units.retain(|u| u.name.starts_with("loss0.90"));
    for u in &mut runner.units {
        if let UnitSpec::Scenario { scenario, .. } = &mut u.spec {
            *scenario = scenario.clone().with_runs(25);
        }
    }
    let mut all = LayerTimes::default();
    for i in 0..runner.units.len() {
        let plain = runner.run_unit(i, false, Probe::None);
        let mut layers = LayerTimes::default();
        let traced = runner.run_unit(i, false, Probe::HostClock(&mut layers));
        assert_eq!(traced.digest, plain.digest);
        assert_eq!(layers.get(Layer::Other), 0.0);
        assert!((traced.secs - layers.total()).abs() <= 0.02 * traced.secs);
        all.merge(&layers);
    }
    assert!(all.get(Layer::Server) > 0.0 && all.get(Layer::Interp) > 0.0);
}
