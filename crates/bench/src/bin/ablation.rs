//! Ablations over the framework's design choices.
//!
//! 1. **EWMA weight** u ∈ {0, 0.5, 0.7, 0.9, 1.0} — the paper: "setting
//!    both u1 and u2 to 0.7 yields satisfactory results."
//! 2. **Power-down during remote execution** on vs off (active idle) —
//!    quantifies the value of the mobile-status-table machinery.
//! 3. **Pilot channel estimation** vs a fixed worst-case (Class 1)
//!    transmit power — what the IS-95-style tracking buys.
//! 4. **Helper-method overhead** — the decision cost the adaptive
//!    strategies carry per invocation.
//!
//! Usage: `ablation [--runs N] [--trace out.jtb]
//! [--timeline out.jts [--sample-every SIM_MS]]
//! [--serve ADDR] [--flush-every SIM_MS]
//! [--json-out BENCH_ablation.json] [--ckpt out.jck] [--resume
//! out.jck]` (default 120 runs). `--trace` records every variant's
//! runs in order. Checkpointing is variant-level (the ablation loops
//! bypass the resumable scenario runner): each completed variant saves
//! its result with the `.jtb`/`.jts` writer state, and a killed
//! variant reruns from its start.

use jem_apps::workload_by_name;
use jem_bench::ckpt::{CkptArgs, SweepSession};
use jem_bench::obs::{BenchSink, ObsArgs};
use jem_bench::{arg_usize, print_table};
use jem_core::runtime::decision_mix;
use jem_core::{EnergyAwareVm, MethodState, Profile, Strategy};
use jem_energy::MachineConfig;
use jem_obs::{Json, TraceSink, Tracer};
use jem_radio::ChannelClass;
use jem_sim::{Scenario, Situation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_al(
    w: &dyn jem_core::Workload,
    p: &Profile,
    scenario: &Scenario,
    state: MethodState,
    power_down: bool,
    force_class: Option<ChannelClass>,
    sink: &mut dyn TraceSink,
) -> (f64, u64) {
    let mut rng = SmallRng::seed_from_u64(scenario.seed);
    let mut channel = scenario.channel.clone();
    let mut vm = EnergyAwareVm::new(w, p)
        .with_state(state)
        .with_tracer(Tracer::attached(sink));
    let mut total = 0.0;
    for _ in 0..scenario.runs {
        let size = scenario.sizes.sample(&mut rng);
        let mut true_class = channel.advance(&mut rng);
        if let Some(c) = force_class {
            // Forcing the *chosen* class is modeled by forcing the
            // pilot's belief: feed it a constant channel.
            true_class = c;
        }
        let report = vm
            .invoke_once(Strategy::AdaptiveLocal, size, true_class, &mut rng)
            .expect("runs");
        total += report.energy.nanojoules();
        if !power_down {
            // Add back the difference between active idle and power
            // down for the invocation's wait time (approximation:
            // remote invocations idle instead of sleeping).
            if matches!(report.mode, jem_core::Mode::Remote) {
                let cfg = MachineConfig::mobile_client();
                let active = cfg.nominal_power.over(report.time);
                let slept = (cfg.nominal_power * cfg.leak_fraction).over(report.time);
                total += active.nanojoules() - slept.nanojoules();
            }
        }
        vm.end_invocation();
    }
    (total, vm.client.machine.mix().total())
}

/// [`run_al`] behind a variant-level checkpoint unit: a completed
/// variant replays its stored `(energy, instructions)` pair instead
/// of re-running.
#[allow(clippy::too_many_arguments)]
fn run_al_unit(
    session: &mut SweepSession,
    name: &str,
    w: &dyn jem_core::Workload,
    p: &Profile,
    scenario: &Scenario,
    state: MethodState,
    power_down: bool,
    force_class: Option<ChannelClass>,
    sink: Option<&mut BenchSink>,
) -> (f64, u64) {
    let payload = session.unit(name, sink, |sink| {
        let (e, instr) = run_al(w, p, scenario, state, power_down, force_class, sink);
        let mut v = e.to_bits().to_le_bytes().to_vec();
        v.extend_from_slice(&instr.to_le_bytes());
        v
    });
    assert_eq!(payload.len(), 16, "corrupt stored ablation payload");
    let e = f64::from_bits(u64::from_le_bytes(
        payload[..8].try_into().expect("8 bytes"),
    ));
    let instr = u64::from_le_bytes(payload[8..].try_into().expect("8 bytes"));
    (e, instr)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--runs", true)],
            ObsArgs::RESULT_FLAGS,
            ObsArgs::EVENT_FLAGS,
            ObsArgs::FLUSH_FLAGS,
            CkptArgs::UNIT_FLAGS,
        ],
    );
    let runs = arg_usize(&args, "--runs", 120);
    let obs = ObsArgs::parse(&args);
    let ckpt = CkptArgs::parse(&args);
    ckpt.validate(&obs);
    let mut session = SweepSession::open(
        &ckpt,
        format!(
            "ablation runs={runs} trace={:?} timeline={:?}",
            obs.trace, obs.timeline
        ),
    );
    let mut sink = obs.trace_sink_resumed(session.writer_state());

    let w = workload_by_name("fe").expect("fe");
    eprintln!("building profile...");
    let p = Profile::build(w.as_ref(), 42);
    let scenario = Scenario::paper(Situation::GoodDominant, &w.sizes(), 31).with_runs(runs);

    // 1. EWMA weight sweep.
    let mut rows = Vec::new();
    let mut json_ewma = Vec::new();
    let mut total_instructions = 0u64;
    for u in [0.0, 0.5, 0.7, 0.9, 1.0] {
        let (e, instr) = run_al_unit(
            &mut session,
            &format!("ewma/u{u:.1}"),
            w.as_ref(),
            &p,
            &scenario,
            MethodState::with_weights(u, u),
            true,
            None,
            sink.as_mut(),
        );
        total_instructions += instr;
        json_ewma.push(Json::object().with("u", u).with("total_nj", e));
        rows.push(vec![format!("{u:.1}"), format!("{:.2} mJ", e * 1e-6)]);
    }
    print_table(
        "Ablation 1: EWMA weight u (AL, fe, situation i; paper recommends 0.7)",
        &["u", "total energy"],
        &rows,
    );

    // 2. Power-down vs active idle.
    let (on, on_instr) = run_al_unit(
        &mut session,
        "powerdown/on",
        w.as_ref(),
        &p,
        &scenario,
        MethodState::new(),
        true,
        None,
        sink.as_mut(),
    );
    let (off, off_instr) = run_al_unit(
        &mut session,
        "powerdown/off",
        w.as_ref(),
        &p,
        &scenario,
        MethodState::new(),
        false,
        None,
        sink.as_mut(),
    );
    total_instructions += on_instr + off_instr;
    print_table(
        "Ablation 2: power-down during remote execution",
        &["variant", "total energy"],
        &[
            vec![
                "power-down (10% leakage)".into(),
                format!("{:.2} mJ", on * 1e-6),
            ],
            vec!["active idle".into(), format!("{:.2} mJ", off * 1e-6)],
        ],
    );

    // 3. Pilot tracking vs fixed worst-case power.
    let (tracked, tracked_instr) = run_al_unit(
        &mut session,
        "pilot/tracked",
        w.as_ref(),
        &p,
        &scenario,
        MethodState::new(),
        true,
        None,
        sink.as_mut(),
    );
    let (fixed, fixed_instr) = run_al_unit(
        &mut session,
        "pilot/fixed-c1",
        w.as_ref(),
        &p,
        &scenario,
        MethodState::new(),
        true,
        Some(ChannelClass::C1),
        sink.as_mut(),
    );
    total_instructions += tracked_instr + fixed_instr;
    print_table(
        "Ablation 3: pilot-based TX power control vs fixed Class 1 power",
        &["variant", "total energy"],
        &[
            vec![
                "pilot-tracked class".into(),
                format!("{:.2} mJ", tracked * 1e-6),
            ],
            vec![
                "always Class 1 (5.88 W)".into(),
                format!("{:.2} mJ", fixed * 1e-6),
            ],
        ],
    );

    // 4. Helper-method overhead per invocation.
    let cfg = MachineConfig::mobile_client();
    let overhead = cfg.table.energy_of_mix(&decision_mix());
    println!(
        "\nAblation 4: helper-method decision overhead = {} per invocation ({:.4}% of a mid-size fe interpreted run)",
        overhead,
        overhead.nanojoules() / p.e_interp(1024.0).nanojoules() * 100.0
    );

    obs.write_json(
        &Json::object()
            .with("figure", "ablation")
            .with("runs", runs)
            .with("total_sim_instructions", total_instructions)
            .with("ewma", Json::Arr(json_ewma))
            .with(
                "power_down",
                Json::object().with("on_nj", on).with("off_nj", off),
            )
            .with(
                "pilot",
                Json::object()
                    .with("tracked_nj", tracked)
                    .with("fixed_c1_nj", fixed),
            )
            .with("helper_overhead_nj", overhead.nanojoules()),
    );
    obs.finish_trace(sink);
    obs.archive_run(&args);
}
