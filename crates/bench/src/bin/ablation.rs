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
//! [--flush-every SIM_MS]
//! [--json-out BENCH_ablation.json] [--ckpt out.jck] [--resume
//! out.jck]` (default 120 runs). The nine variants are one sweep of
//! variant units, on every core (one under `--ckpt`); `--trace`
//! records every variant's runs in order. Checkpointing is
//! variant-level (the ablation loops bypass the resumable scenario
//! runner): each completed variant saves its result with the
//! `.jtb`/`.jts` writer state, and a killed variant reruns from its
//! start.

use jem_apps::workload_by_name;
use jem_bench::ckpt::{CkptArgs, Outcome, SweepSession, Unit};
use jem_bench::obs::ObsArgs;
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--runs", true)],
            ObsArgs::RESULT_FLAGS,
            ObsArgs::EVENT_FLAGS,
            CkptArgs::UNIT_FLAGS,
        ],
    );
    let runs = arg_usize(&args, "--runs", 120);
    let obs = ObsArgs::parse(&args);
    let ckpt = CkptArgs::parse(&args);
    ckpt.validate(&obs);
    let mut session = SweepSession::open(&ckpt, &obs, format!("ablation runs={runs}"));

    let w = workload_by_name("fe").expect("fe");
    eprintln!("building profile...");
    let p = Profile::build(w.as_ref(), 42);
    let scenario = Scenario::paper(Situation::GoodDominant, &w.sizes(), 31).with_runs(runs);

    // Each variant runs AL over the same scenario; its payload is the
    // total energy's bits and the instruction count.
    let (wr, pr, sr) = (w.as_ref(), &p, &scenario);
    let variant = |name: String, state: MethodState, power_down, force_class| {
        Unit::variant(name, move |sink| {
            let (e, instr) = run_al(wr, pr, sr, state.clone(), power_down, force_class, sink);
            [e.to_bits().to_le_bytes(), instr.to_le_bytes()].concat()
        })
        .recorded()
    };
    let ewma = [0.0, 0.5, 0.7, 0.9, 1.0];
    let mut units: Vec<Unit> = ewma
        .iter()
        .map(|&u| {
            variant(
                format!("ewma/u{u:.1}"),
                MethodState::with_weights(u, u),
                true,
                None,
            )
        })
        .collect();
    units.extend([
        variant("powerdown/on".into(), MethodState::new(), true, None),
        variant("powerdown/off".into(), MethodState::new(), false, None),
        variant("pilot/tracked".into(), MethodState::new(), true, None),
        variant(
            "pilot/fixed-c1".into(),
            MethodState::new(),
            true,
            Some(ChannelClass::C1),
        ),
    ]);
    let results: Vec<(f64, u64)> = session
        .run(&units, 0)
        .into_iter()
        .map(|outcome| {
            let Outcome::Payload(bytes) = outcome else {
                unreachable!("variant units")
            };
            let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
            (f64::from_bits(word(0)), word(8))
        })
        .collect();
    let total_instructions: u64 = results.iter().map(|(_, instr)| instr).sum();
    let energy = |i: usize| results[i].0;

    // 1. EWMA weight sweep.
    let mut rows = Vec::new();
    let mut json_ewma = Vec::new();
    for (i, u) in ewma.into_iter().enumerate() {
        json_ewma.push(Json::object().with("u", u).with("total_nj", energy(i)));
        rows.push(vec![
            format!("{u:.1}"),
            format!("{:.2} mJ", energy(i) * 1e-6),
        ]);
    }
    print_table(
        "Ablation 1: EWMA weight u (AL, fe, situation i; paper recommends 0.7)",
        &["u", "total energy"],
        &rows,
    );

    // 2. Power-down vs active idle.
    let (on, off) = (energy(5), energy(6));
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
    let (tracked, fixed) = (energy(7), energy(8));
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
    session.finish(&obs);
    obs.archive_run(&args);
}
