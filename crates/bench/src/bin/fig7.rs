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
//! [--timeline out.jts [--sample-every SIM_MS]]
//! [--flush-every SIM_MS] [--json-out BENCH_fig7.json]
//! [--ckpt out.jck [--ckpt-every N]] [--resume out.jck]` (default 300
//! runs, the paper's count). The grid is one sweep of 168 units, one
//! per (cell, strategy), run on every core (one under `--ckpt`).
//! `--trace` records the AA strategy of every grid cell, one `.jtb`
//! shard per cell (`<bench>/<situation>`) in cell order, and
//! `--timeline` samples the same runs with the tracer's exact ledger,
//! as every other bin does.

use jem_apps::all_workloads;
use jem_bench::ckpt::{CkptArgs, Outcome, SweepSession, Unit};
use jem_bench::obs::{print_regret_table, ObsArgs};
use jem_bench::{arg_usize, build_profiles, fmt_norm, print_table};
use jem_core::{accuracy_of, ResilienceConfig, ScenarioResult, Strategy};
use jem_obs::{AccuracyTracker, Json, MetricsRegistry};
use jem_sim::{Scenario, Situation};

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
    let mut session = SweepSession::open(&ckpt, &obs, format!("fig7 runs={runs}"));

    let workloads = all_workloads();
    eprintln!("building profiles for {} workloads...", workloads.len());
    let profiles = build_profiles(&workloads, 42);

    // Grid: (workload, situation) cells; strategies inside a cell
    // share the cell's scenario seed so every strategy sees the same
    // size/channel draw sequence.
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
    let mut units = Vec::with_capacity(cells.len() * Strategy::ALL.len());
    for &(wi, sit) in &cells {
        let w = workloads[wi].as_ref();
        let scenario = Scenario::paper(sit, &w.sizes(), 1000 + wi as u64).with_runs(runs);
        for &s in &Strategy::ALL {
            let name = format!("{}/{}/{}", w.name(), sit.key(), s.key());
            let unit = Unit::scenario(
                name,
                w,
                &profiles[wi],
                scenario.clone(),
                s,
                ResilienceConfig::default(),
            );
            // Tracing draws nothing from the RNG, so the traced AA run
            // is bit-identical to the untraced one.
            units.push(if s == Strategy::AdaptiveAdaptive {
                unit.in_shard(format!("{}/{}", w.name(), sit.key()))
            } else {
                unit
            });
        }
    }
    let results: Vec<ScenarioResult> = session
        .run(&units, 0)
        .into_iter()
        .map(Outcome::into_run)
        .collect();
    // Each cell's results, in Strategy::ALL order.
    let grid: Vec<_> = cells
        .iter()
        .zip(results.chunks(Strategy::ALL.len()))
        .collect();

    // Per-strategy predictor accuracy, merged across the whole grid
    // (merge of per-cell trackers equals tracking the concatenation).
    let mut al_tracker = AccuracyTracker::new();
    let mut aa_tracker = AccuracyTracker::new();
    for (&(wi, _), cell) in &grid {
        for r in cell.iter() {
            match r.strategy {
                Strategy::AdaptiveLocal => al_tracker.merge(&accuracy_of(&profiles[wi], r)),
                Strategy::AdaptiveAdaptive => aa_tracker.merge(&accuracy_of(&profiles[wi], r)),
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
        for (_, cell) in grid.iter().filter(|((_, s), _)| *s == sit) {
            let l1 = cell[l1_idx].total_energy.nanojoules();
            for (i, r) in cell.iter().enumerate() {
                sums[i] += r.total_energy.nanojoules() / l1 * 100.0;
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
    for (&(wi, sit), cell) in &grid {
        let energies = cell.iter().map(|r| {
            Json::object()
                .with("strategy", r.strategy.key())
                .with("nj", r.total_energy.nanojoules())
        });
        json_cells.push(
            Json::object()
                .with("bench", workloads[wi].name())
                .with("situation", sit.key())
                .with("energies_nj", Json::Arr(energies.collect())),
        );
    }
    let total_instructions: u64 = results.iter().map(|r| r.instructions).sum();
    obs.write_json(
        &Json::object()
            .with("figure", "fig7")
            .with("runs", runs)
            .with("total_sim_instructions", total_instructions)
            .with("cells", Json::Arr(json_cells))
            .with("accuracy_al", al_tracker.to_json())
            .with("accuracy_aa", aa_tracker.to_json()),
    );

    session.finish(&obs);
    obs.archive_run(&args);
}
