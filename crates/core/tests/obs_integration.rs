//! Integration tests for the observability layer: the trace is an
//! energy-conservation ledger, and attaching a sink never perturbs
//! the simulation.
//!
//! * per-event energy deltas sum (telescope) to the run's breakdown,
//!   component by component — including under injected faults, where
//!   retries, breaker trips and fallbacks multiply the emission sites;
//! * traced and untraced runs of the same seed produce bit-identical
//!   energy totals, times and statistics (tracing draws nothing from
//!   the RNG and charges nothing to the machine);
//! * a real run's trace survives the Chrome `trace_event` export and
//!   re-import losslessly.

use std::sync::OnceLock;

use jem_core::{
    run_scenario_traced, run_scenario_with, Profile, ResilienceConfig, ScenarioResult, Strategy,
    Workload,
};
use jem_energy::EnergyBreakdown;
use jem_jvm::dsl::*;
use jem_jvm::{Heap, MethodAttrs, MethodId, Program, Value};
use jem_obs::{RingSink, TraceEvent};
use jem_sim::{Scenario, Situation};
use rand::rngs::SmallRng;

/// The synthetic quadratic kernel from `runtime_integration.rs`:
/// enough cycles to make modes distinguishable, cheap to profile.
struct Kernel {
    program: Program,
    method: MethodId,
}

impl Kernel {
    fn new() -> Kernel {
        let mut m = ModuleBuilder::new();
        m.func_with_attrs(
            "kernel",
            vec![("n", DType::Int)],
            Some(DType::Int),
            vec![
                let_("acc", iconst(0)),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![for_(
                        "j",
                        iconst(0),
                        var("n"),
                        vec![assign(
                            "acc",
                            var("acc")
                                .add(var("i").mul(var("j")))
                                .bitxor(var("acc").shr(iconst(3))),
                        )],
                    )],
                ),
                ret(var("acc")),
            ],
            MethodAttrs {
                potential: true,
                size_param: Some(0),
                ..Default::default()
            },
        );
        let program = m.compile().unwrap();
        let method = program.find_method(MODULE_CLASS, "kernel").unwrap();
        Kernel { program, method }
    }
}

impl Workload for Kernel {
    fn name(&self) -> &str {
        "kernel"
    }
    fn description(&self) -> &str {
        "synthetic quadratic kernel"
    }
    fn program(&self) -> &Program {
        &self.program
    }
    fn potential_method(&self) -> MethodId {
        self.method
    }
    fn sizes(&self) -> Vec<u32> {
        vec![16, 32, 64, 128]
    }
    fn size_meaning(&self) -> &str {
        "loop bound"
    }
    fn make_args(&self, _heap: &mut Heap, size: u32, _rng: &mut SmallRng) -> Vec<Value> {
        vec![Value::Int(size as i32)]
    }
}

fn profile() -> &'static Profile {
    static PROFILE: OnceLock<Profile> = OnceLock::new();
    PROFILE.get_or_init(|| Profile::build(&Kernel::new(), 1))
}

/// A faulty scenario that exercises retries, breaker transitions,
/// fallbacks and degraded invocations — the emission-richest path.
fn degraded_scenario(seed: u64, runs: usize) -> Scenario {
    Scenario::paper_degraded(Situation::GoodDominant, &Kernel::new().sizes(), seed, 0.7)
        .with_runs(runs)
}

fn run_traced(scenario: &Scenario, strategy: Strategy) -> (ScenarioResult, Vec<TraceEvent>) {
    let w = Kernel::new();
    let mut ring = RingSink::new(1_000_000);
    let result = run_scenario_traced(
        &w,
        profile(),
        scenario,
        strategy,
        &ResilienceConfig::default(),
        &mut ring,
    )
    .expect("scenario run failed");
    assert_eq!(ring.dropped(), 0, "ring must retain the full run");
    (result, ring.into_events())
}

/// Relative comparison that tolerates only summation-order rounding.
fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

#[test]
fn traced_deltas_sum_to_run_breakdown() {
    for (strategy, seed) in [
        (Strategy::AdaptiveAdaptive, 7),
        (Strategy::AdaptiveLocal, 8),
        (Strategy::Remote, 9),
    ] {
        let scenario = degraded_scenario(seed, 60);
        let (result, events) = run_traced(&scenario, strategy);
        assert!(!events.is_empty());

        let mut sum = EnergyBreakdown::new();
        for ev in &events {
            sum += ev.delta;
        }
        for ((c, got), (c2, want)) in sum.iter().zip(result.breakdown.iter()) {
            assert_eq!(c, c2);
            assert!(
                close(got.nanojoules(), want.nanojoules()),
                "{strategy:?}: component {c:?} ledger {} != breakdown {}",
                got.nanojoules(),
                want.nanojoules()
            );
        }
        assert!(close(
            sum.total().nanojoules(),
            result.total_energy.nanojoules()
        ));
    }
}

#[test]
fn trace_stream_is_well_formed() {
    let scenario = degraded_scenario(21, 40);
    let (result, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);

    let mut last_at = 0.0f64;
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, i as u64, "seq must be dense and ordered");
        assert!(ev.at.nanos() >= last_at, "sim time must be monotone");
        last_at = ev.at.nanos();
        assert!(ev.invocation >= 1 && ev.invocation <= scenario.runs as u64);
    }
    // Exactly one start and one end per invocation.
    let starts = events
        .iter()
        .filter(|e| e.kind.name() == "invocation-start")
        .count();
    let ends = events
        .iter()
        .filter(|e| e.kind.name() == "invocation-end")
        .count();
    assert_eq!(starts, result.reports.len());
    assert_eq!(ends, result.reports.len());
}

#[test]
fn tracing_is_bit_identical_to_untraced() {
    let w = Kernel::new();
    let plain = Scenario::paper(Situation::Uniform, &w.sizes(), 33).with_runs(50);
    let faulty = degraded_scenario(33, 50);
    for scenario in [&plain, &faulty] {
        for strategy in [Strategy::AdaptiveAdaptive, Strategy::AdaptiveLocal] {
            let untraced = run_scenario_with(
                &w,
                profile(),
                scenario,
                strategy,
                &ResilienceConfig::default(),
            )
            .expect("scenario run failed");
            let (traced, events) = run_traced(scenario, strategy);
            if !scenario.faults.is_none() {
                assert!(!events.is_empty());
            }
            assert_eq!(
                untraced.total_energy.nanojoules().to_bits(),
                traced.total_energy.nanojoules().to_bits(),
                "{strategy:?}: tracing changed the energy total"
            );
            assert_eq!(
                untraced.total_time.nanos().to_bits(),
                traced.total_time.nanos().to_bits()
            );
            assert_eq!(untraced.breakdown, traced.breakdown);
            assert_eq!(
                format!("{:?}", untraced.stats),
                format!("{:?}", traced.stats)
            );
            assert_eq!(untraced.reports.len(), traced.reports.len());
            for (a, b) in untraced.reports.iter().zip(&traced.reports) {
                assert_eq!(
                    a.energy.nanojoules().to_bits(),
                    b.energy.nanojoules().to_bits()
                );
                assert_eq!(a.mode, b.mode);
                assert_eq!(a.retries, b.retries);
            }
        }
    }
}
