//! Fig 7 — average normalized energy of all strategies under the
//! three situations.
//!
//! "Each benchmark is executed by choosing three different situations
//! … (i) the channel condition is predominantly good and one input
//! size dominates; (ii) the channel condition is predominantly poor
//! and one input size dominates; and (iii) both channel condition and
//! size parameters are uniformly distributed. … For each scenario, an
//! application is executed 300 times … Fig 7 shows the energy
//! consumption of different execution strategies, normalized with
//! respect to L1. Note that these values are averaged over all eight
//! benchmarks."
//!
//! Headline claims checked by this harness: AL outperforms every
//! static strategy in all three situations (the paper reports 25%,
//! 10% and 22% savings vs the best static), and AA saves more than AL.
//!
//! Usage: `fig7 [--runs N] [--trace out.jtb] [--metrics-out out.prom]
//! [--timeline out.jts [--sample-every SIM_MS]] [--serve ADDR]
//! [--json-out BENCH_fig7.json] [--ckpt out.jck [--ckpt-every N]]
//! [--resume out.jck]` (default 300 runs, the paper's count).
//! `--trace` records the AA strategy of *every* grid cell, one `.jtb`
//! shard per cell (`<bench>/<situation>`) in cell order. The parallel
//! grid collects each cell into its own `RingSink` shard and merges
//! the shards at exit (`jtb_bytes`), so the traced sweep is
//! byte-identical run-to-run even with the grid running on all cores;
//! `--timeline` replays the merged shards through the `.jts` sampler
//! (delta-sum mode; see DESIGN.md §14). Under `--ckpt` the grid runs
//! sequentially, one resumable unit per (cell, strategy), and streams
//! the same shards through the run's sink: its `.jtb` is
//! byte-identical to the parallel grid's. A streamed timeline would
//! sample the live ledger instead, so `--ckpt` refuses `--timeline`.

use jem_apps::all_workloads;
use jem_bench::ckpt::{CkptArgs, SweepSession};
use jem_bench::obs::{print_regret_table, ObsArgs};
use jem_bench::{arg_usize, build_profiles, fmt_norm, print_table};
use jem_core::{accuracy_of, run_scenario, run_scenario_traced, ResilienceConfig, Strategy};
use jem_obs::{AccuracyTracker, Json, MetricsRegistry, RingSink, TraceShard};
use jem_sim::{parallel::sweep, Scenario, Situation};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--runs", true)],
            ObsArgs::RESULT_FLAGS,
            ObsArgs::METRICS_FLAGS,
            ObsArgs::EVENT_FLAGS,
            CkptArgs::UNIT_FLAGS,
            CkptArgs::EVERY_FLAGS,
        ],
    );
    let runs = arg_usize(&args, "--runs", 300);
    let obs = ObsArgs::parse(&args);
    let ckpt = CkptArgs::parse(&args);
    ckpt.validate(&obs);
    if ckpt.enabled() && obs.timeline.is_some() {
        eprintln!(
            "error: --ckpt and --timeline cannot be combined in fig7: the parallel grid \
             samples its merged shards, a checkpointed run would sample the live ledger"
        );
        std::process::exit(1);
    }
    let tracing = obs.wants_events();

    let workloads = all_workloads();
    eprintln!("building profiles for {} workloads...", workloads.len());
    let profiles = build_profiles(&workloads, 42);

    // Grid: (workload, situation) cells in parallel; strategies inside
    // a cell share the cell's scenario seed so every strategy sees the
    // same size/channel draw sequence.
    let mut cells: Vec<(usize, Situation)> = Vec::new();
    for wi in 0..workloads.len() {
        for sit in Situation::ALL {
            cells.push((wi, sit));
        }
    }
    eprintln!(
        "running {} cells x {} strategies x {runs} invocations...",
        cells.len(),
        Strategy::ALL.len()
    );
    type Cell = (
        usize,
        Situation,
        Vec<f64>,
        Vec<(Strategy, AccuracyTracker)>,
        u64,
        Option<TraceShard>,
    );
    let (results, ckpt_sink): (Vec<Cell>, _) = if ckpt.enabled() {
        let mut session =
            SweepSession::open(&ckpt, format!("fig7 runs={runs} trace={:?}", obs.trace));
        let mut sink = obs.trace_sink_resumed(session.writer_state());
        let mut out = Vec::with_capacity(cells.len());
        for &(wi, sit) in &cells {
            let w = workloads[wi].as_ref();
            let scenario = Scenario::paper(sit, &w.sizes(), 1000 + wi as u64).with_runs(runs);
            let mut energies = Vec::with_capacity(Strategy::ALL.len());
            let mut trackers: Vec<(Strategy, AccuracyTracker)> = Vec::new();
            let mut instructions = 0u64;
            for &s in &Strategy::ALL {
                let unit = format!("{}/{}/{}", w.name(), sit.key(), s.key());
                // The cell's AA unit streams into the cell's shard. A
                // completed unit's bytes are already on disk and an
                // in-flight one's shard record is inside its
                // checkpointed writer state, so only a fresh unit
                // starts the shard.
                let unit_sink = match sink.as_mut() {
                    Some(sink) if s == Strategy::AdaptiveAdaptive => {
                        if session.is_fresh(&unit) {
                            sink.begin_shard(&format!("{}/{}", w.name(), sit.key()));
                        }
                        Some(sink)
                    }
                    _ => None,
                };
                let result = session.run_unit(
                    &unit,
                    w,
                    &profiles[wi],
                    &scenario,
                    s,
                    &ResilienceConfig::default(),
                    unit_sink,
                );
                energies.push(result.total_energy.nanojoules());
                instructions += result.instructions;
                if s.is_adaptive() {
                    trackers.push((s, accuracy_of(&profiles[wi], &result)));
                }
            }
            out.push((wi, sit, energies, trackers, instructions, None));
        }
        (out, sink)
    } else {
        let out = sweep(&cells, 0, |&(wi, sit)| {
            let w = workloads[wi].as_ref();
            let scenario = Scenario::paper(sit, &w.sizes(), 1000 + wi as u64).with_runs(runs);
            let mut energies = Vec::with_capacity(Strategy::ALL.len());
            let mut trackers: Vec<(Strategy, AccuracyTracker)> = Vec::new();
            let mut instructions = 0u64;
            let mut shard = None;
            for &s in &Strategy::ALL {
                // Tracing draws nothing from the RNG, so the traced AA run
                // is bit-identical to the untraced one; each cell's events
                // land in the cell's own shard, merged in cell order below.
                let result = if tracing && s == Strategy::AdaptiveAdaptive {
                    let mut ring = RingSink::new(1_000_000);
                    let result = run_scenario_traced(
                        w,
                        &profiles[wi],
                        &scenario,
                        s,
                        &ResilienceConfig::default(),
                        &mut ring,
                    )
                    .expect("scenario run failed");
                    shard = Some(TraceShard::new(
                        format!("{}/{}", w.name(), sit.key()),
                        ring.into_events(),
                    ));
                    result
                } else {
                    run_scenario(w, &profiles[wi], &scenario, s)
                };
                energies.push(result.total_energy.nanojoules());
                instructions += result.instructions;
                if s.is_adaptive() {
                    trackers.push((s, accuracy_of(&profiles[wi], &result)));
                }
            }
            (wi, sit, energies, trackers, instructions, shard)
        });
        (out, None)
    };

    // Per-strategy predictor accuracy, merged across the whole grid
    // (merge of per-cell trackers equals tracking the concatenation).
    let mut al_tracker = AccuracyTracker::new();
    let mut aa_tracker = AccuracyTracker::new();
    for (_, _, _, trackers, _, _) in &results {
        for (s, t) in trackers {
            match s {
                Strategy::AdaptiveLocal => al_tracker.merge(t),
                Strategy::AdaptiveAdaptive => aa_tracker.merge(t),
                _ => {}
            }
        }
    }

    // Normalize each cell to its L1 (index 2 in Strategy::ALL), then
    // average across benchmarks per situation.
    let l1_idx = Strategy::ALL
        .iter()
        .position(|&s| s == Strategy::Local1)
        .expect("L1 present");
    let mut rows = Vec::new();
    for sit in Situation::ALL {
        let mut sums = vec![0.0; Strategy::ALL.len()];
        let mut count = 0usize;
        for (_, s, energies, _, _, _) in results.iter().filter(|(_, s, _, _, _, _)| *s == sit) {
            let _ = s;
            let l1 = energies[l1_idx];
            for (i, e) in energies.iter().enumerate() {
                sums[i] += e / l1 * 100.0;
            }
            count += 1;
        }
        let avg: Vec<f64> = sums.iter().map(|s| s / count as f64).collect();
        let mut row = vec![sit.key().to_string()];
        row.extend(avg.iter().map(|&v| fmt_norm(v)));
        rows.push(row);

        // Paper-style claim lines.
        let best_static = Strategy::STATIC
            .iter()
            .map(|s| {
                let i = Strategy::ALL.iter().position(|x| x == s).expect("present");
                (s.key(), avg[i])
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty");
        let al = avg[Strategy::ALL
            .iter()
            .position(|&s| s == Strategy::AdaptiveLocal)
            .expect("AL")];
        let aa = avg[Strategy::ALL
            .iter()
            .position(|&s| s == Strategy::AdaptiveAdaptive)
            .expect("AA")];
        println!(
            "situation {:>3}: best static = {} ({:.1}); AL saves {:.1}% vs it; AA saves {:.1}% vs it",
            sit.key(),
            best_static.0,
            best_static.1,
            (1.0 - al / best_static.1) * 100.0,
            (1.0 - aa / best_static.1) * 100.0,
        );
    }

    let headers: Vec<&str> = std::iter::once("situation")
        .chain(Strategy::ALL.iter().map(|s| s.key()))
        .collect();
    print_table(
        &format!(
            "Fig 7: average normalized energy over 8 benchmarks ({runs} runs/scenario, L1 = 100)"
        ),
        &headers,
        &rows,
    );

    print_regret_table("AL predictor accuracy / regret (all cells)", &al_tracker);
    print_regret_table("AA predictor accuracy / regret (all cells)", &aa_tracker);

    let mut registry = MetricsRegistry::new();
    al_tracker.fill_metrics(&mut registry);
    obs.write_metrics(&registry);

    let mut json_cells = Vec::new();
    for (wi, sit, energies, _, _, _) in &results {
        json_cells.push(
            Json::object()
                .with("bench", workloads[*wi].name())
                .with("situation", sit.key())
                .with(
                    "energies_nj",
                    Json::Arr(
                        Strategy::ALL
                            .iter()
                            .zip(energies)
                            .map(|(s, &e)| Json::object().with("strategy", s.key()).with("nj", e))
                            .collect(),
                    ),
                ),
        );
    }
    let total_instructions: u64 = results.iter().map(|(_, _, _, _, n, _)| n).sum();
    obs.write_json(
        &Json::object()
            .with("figure", "fig7")
            .with("runs", runs)
            .with("total_sim_instructions", total_instructions)
            .with("cells", Json::Arr(json_cells))
            .with("accuracy_al", al_tracker.to_json())
            .with("accuracy_aa", aa_tracker.to_json()),
    );

    if ckpt.enabled() {
        obs.finish_trace(ckpt_sink);
    } else if tracing {
        // `sweep` preserves input order, so the shard sequence — and
        // therefore the merged document — is deterministic regardless
        // of thread scheduling.
        let shards: Vec<TraceShard> = results
            .into_iter()
            .filter_map(|(_, _, _, _, _, shard)| shard)
            .collect();
        obs.write_trace_sharded(&shards);
    }
    obs.archive_run(&args);
}
