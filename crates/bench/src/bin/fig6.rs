//! Fig 6 — energy consumption of the static execution strategies.
//!
//! "Fig 6 shows the energy consumption of the static strategies (R, I,
//! L1, L2, and L3) for three of our benchmarks. All energy values are
//! normalized with respect to that of L1. For the bar denoting remote
//! execution (R), the additional energies required when channel
//! condition is poor is shown using stacked bars over the Class 4
//! operation. For each benchmark, we selected two different values for
//! the size parameters."
//!
//! Each cell is one cold invocation: local strategies pay the full
//! compile (the paper's Fig 6 energies "include the energy cost of
//! loading and initializing the compiler classes"), the interpreter
//! pays nothing up front, and remote execution is shown per channel
//! class.
//!
//! Usage: `fig6 [--full] [--trace out.jtb] [--metrics-out out.prom]
//! [--timeline out.jts [--sample-every SIM_MS]]
//! [--json-out BENCH_fig6.json] [--flush-every SIM_MS]
//! [--ckpt out.jck] [--resume out.jck]
//! [--slow-interp]`.
//! Each grid cell is one sweep unit, run on every core (one under
//! `--ckpt`); a killed `--ckpt` run resumed with `--resume` skips
//! completed cells and produces byte-identical outputs.

use jem_apps::workload_by_name;
use jem_bench::ckpt::{CkptArgs, Outcome, SweepSession, Unit};
use jem_bench::obs::{accumulate_accuracy, print_regret_table, ObsArgs};
use jem_bench::{arg_flag, build_profiles, fmt_norm, print_table};
use jem_core::{
    fill_run_metrics, scenario_result_to_json, ResilienceConfig, ScenarioResult, Strategy,
};
use jem_obs::{AccuracyTracker, Json, MetricsRegistry};
use jem_radio::{ChannelClass, ChannelProcess};
use jem_sim::{Scenario, Situation, SizeDist};

/// The cells of one (benchmark, size) row, in column order: L1 first
/// (the row's normalizer), then R per channel class, I, L2 and L3.
const COLUMNS: [(Strategy, ChannelClass); 8] = [
    (Strategy::Local1, ChannelClass::C4),
    (Strategy::Remote, ChannelClass::C4),
    (Strategy::Remote, ChannelClass::C3),
    (Strategy::Remote, ChannelClass::C2),
    (Strategy::Remote, ChannelClass::C1),
    (Strategy::Interpreter, ChannelClass::C4),
    (Strategy::Local2, ChannelClass::C4),
    (Strategy::Local3, ChannelClass::C4),
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--full", false)],
            ObsArgs::RESULT_FLAGS,
            ObsArgs::METRICS_FLAGS,
            ObsArgs::EVENT_FLAGS,
            CkptArgs::UNIT_FLAGS,
            CkptArgs::EVERY_FLAGS,
            jem_bench::ENGINE_FLAGS,
        ],
    );
    jem_bench::apply_engine_flag(&args);
    let full = arg_flag(&args, "--full");
    let obs = ObsArgs::parse(&args);
    let ckpt = CkptArgs::parse(&args);
    ckpt.validate(&obs);
    let mut session = SweepSession::open(&ckpt, &obs, format!("fig6 full={full}"));
    let mut registry = MetricsRegistry::new();
    let mut tracker = AccuracyTracker::new();
    let mut json_benches = Vec::new();
    let mut total_instructions = 0u64;

    // The paper shows hpf explicitly plus two more benchmarks; we use
    // the image trio (hpf, mf, ed), whose communication and
    // computation both scale with the pixel count — the regime where
    // the paper's small/large crossover lives.
    // Small = one DCT block / tiny kernel; large = past the
    // communication/computation crossover (the paper's 64x64 vs
    // 512x512 pair, scaled to our simulator's absolute costs).
    let picks: [(&str, u32, u32); 3] = if full {
        [("hpf", 8, 512), ("mf", 8, 512), ("ed", 8, 512)]
    } else {
        [("hpf", 8, 256), ("mf", 8, 256), ("ed", 8, 256)]
    };
    let workloads: Vec<_> = picks
        .iter()
        .map(|(name, _, _)| workload_by_name(name).expect("known workload"))
        .collect();
    let profiles = build_profiles(&workloads, 42);

    // One cold invocation per strategy.
    let mut units = Vec::new();
    for ((name, small, large), (w, profile)) in picks.iter().zip(workloads.iter().zip(&profiles)) {
        for size in [*small, *large] {
            for (strategy, class) in COLUMNS {
                let scenario = Scenario {
                    situation: Situation::Uniform,
                    channel: ChannelProcess::Fixed(class),
                    sizes: SizeDist::Fixed(size),
                    runs: 1,
                    seed: 11,
                    faults: jem_sim::FaultSpec::NONE,
                };
                units.push(
                    Unit::scenario(
                        format!("{name}/{size}/{}/{class:?}", strategy.key()),
                        w.as_ref(),
                        profile,
                        scenario,
                        strategy,
                        ResilienceConfig::default(),
                    )
                    .recorded(),
                );
            }
        }
    }
    let results: Vec<ScenarioResult> = session
        .run(&units, 0)
        .into_iter()
        .map(Outcome::into_run)
        .collect();
    let mut rows_of = results.chunks(COLUMNS.len());

    println!("Fig 6 reproduction: static strategies, normalized to L1 = 100");
    println!("(R shown per channel class; paper stacks C3/C2/C1 over the C4 bar)");

    for ((name, small, large), (w, profile)) in picks.iter().zip(workloads.iter().zip(&profiles)) {
        let mut rows = Vec::new();
        let mut json_sizes = Vec::new();
        for size in [*small, *large] {
            let row = rows_of.next().expect("one row of units per size");
            let mut cells = Vec::new();
            for (result, (strategy, class)) in row.iter().zip(COLUMNS) {
                fill_run_metrics(&mut registry, result);
                accumulate_accuracy(&mut tracker, profile, result);
                total_instructions += result.instructions;
                cells.push(
                    Json::object()
                        .with("strategy", strategy.key())
                        .with("class", format!("{class:?}").as_str())
                        .with("result", scenario_result_to_json(result, false)),
                );
            }
            // Columns R(C4..C1), I, L1, L2, L3 of the units' L1-first
            // order; L1 normalizes to exactly 100.0.
            let nj = |i: usize| row[i].total_energy.nanojoules();
            let label = format!("{size} [L1={:.1}mJ]", nj(0) * 1e-6);
            let norm = [1, 2, 3, 4, 5, 0, 6, 7].map(|i| fmt_norm(nj(i) / nj(0) * 100.0));
            rows.push(std::iter::once(label).chain(norm).collect::<Vec<_>>());
            json_sizes.push(
                Json::object()
                    .with("size", size)
                    .with("l1_nj", nj(0))
                    .with("cells", Json::Arr(cells)),
            );
        }
        print_table(
            &format!("{name} ({})", w.size_meaning()),
            &[
                "size", "R(C4)", "R(C3)", "R(C2)", "R(C1)", "I", "L1", "L2", "L3",
            ],
            &rows,
        );
        json_benches.push(
            Json::object()
                .with("bench", *name)
                .with("sizes", Json::Arr(json_sizes)),
        );
    }

    print_regret_table("Fig 6 regret vs post-hoc oracle", &tracker);
    tracker.fill_metrics(&mut registry);

    obs.write_json(
        &Json::object()
            .with("figure", "fig6")
            .with("full", full)
            .with("total_sim_instructions", total_instructions)
            .with("benches", Json::Arr(json_benches))
            .with("accuracy", tracker.to_json()),
    );
    obs.write_metrics(&registry);
    session.finish(&obs);
    obs.archive_run(&args);
}
