//! faults — resilience sweep: energy vs. burst-loss severity.
//!
//! Runs the paper's situation (i) scenario over a degraded network
//! (Gilbert–Elliott bursty response loss + a flaky server + rare
//! payload corruption, [`jem_sim::FaultSpec::degraded`]) and sweeps
//! the bad-state loss severity, comparing
//!
//! * **AA** under the default resilience policy (energy-budgeted
//!   retries + circuit breaker: remote execution is blacklisted after
//!   consecutive failures and AA degrades to AL until a half-open
//!   probe succeeds),
//! * **AA naive** — the paper-implied policy (time out once, fall back
//!   to local interpretation, try remote again next invocation), and
//! * **AL** (never offloads; the loss-immune baseline).
//!
//! Everything derives from one seed, so the table is reproducible
//! bit-for-bit; rerun with `--seed N` to vary it.
//!
//! Usage: `faults [--runs N] [--seed N] [--trace out.jtb]
//! [--timeline out.jts [--sample-every SIM_MS]]
//! [--metrics-out out.prom] [--json-out BENCH_faults.json]
//! [--flush-every SIM_MS]
//! [--ckpt out.jck [--ckpt-every N]] [--resume out.jck] [--slow-interp]`
//! (default 300 runs, seed 7). `--trace` records the resilient-AA runs
//! across the whole severity sweep; `--timeline` streams the `.jts`
//! sim-time-series sidecar of the same runs. `--ckpt` snapshots the
//! sweep at invocation boundaries; a killed run continued with
//! `--resume` produces byte-identical outputs (including the `.jtb`
//! trace and `.jts` timeline) to an uninterrupted one. The 15 runs are
//! one sweep, on every core (one under `--ckpt`).

use jem_apps::workload_by_name;
use jem_bench::ckpt::{CkptArgs, Outcome, SweepSession, Unit};
use jem_bench::obs::{accumulate_accuracy, print_regret_table, ObsArgs};
use jem_bench::{arg_usize, print_table};
use jem_core::{
    fill_run_metrics, scenario_result_to_json, Profile, ResilienceConfig, ScenarioResult, Strategy,
};
use jem_obs::{AccuracyTracker, Json, MetricsRegistry};
use jem_sim::{Scenario, Situation};

const LOSS_SEVERITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 0.9];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--runs", true), ("--seed", true)],
            ObsArgs::RESULT_FLAGS,
            ObsArgs::METRICS_FLAGS,
            ObsArgs::EVENT_FLAGS,
            CkptArgs::UNIT_FLAGS,
            CkptArgs::EVERY_FLAGS,
            jem_bench::ENGINE_FLAGS,
        ],
    );
    jem_bench::apply_engine_flag(&args);
    let runs = arg_usize(&args, "--runs", 300);
    let seed = arg_usize(&args, "--seed", 7) as u64;
    let obs = ObsArgs::parse(&args);
    let ckpt = CkptArgs::parse(&args);
    ckpt.validate(&obs);
    let mut session = SweepSession::open(&ckpt, &obs, format!("faults runs={runs} seed={seed}"));
    let mut registry = MetricsRegistry::new();
    let mut tracker = AccuracyTracker::new();
    let mut json_points = Vec::new();

    // fe (numerical integration) is the offload-friendly benchmark:
    // heavy computation, tiny payloads, so AA keeps choosing remote
    // execution and actually meets the injected faults.
    let w = workload_by_name("fe").expect("known workload");
    let profile = Profile::build(w.as_ref(), 42);
    let resilient = ResilienceConfig::default();
    let naive = ResilienceConfig::naive();

    println!("Resilience sweep: situation (i), {runs} invocations, seed {seed}");
    println!("(energy in mJ; GE bad-state loss on the left, ~25% of requests in bursts)");

    let mut units = Vec::new();
    for loss_bad in LOSS_SEVERITIES {
        let scenario =
            Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), seed, loss_bad)
                .with_runs(runs);
        let unit = |key: &str, strategy, resilience| {
            Unit::scenario(
                format!("loss{loss_bad:.2}/{key}"),
                w.as_ref(),
                &profile,
                scenario.clone(),
                strategy,
                resilience,
            )
        };
        units.extend([
            unit("aa", Strategy::AdaptiveAdaptive, resilient).recorded(),
            unit("aa_naive", Strategy::AdaptiveAdaptive, naive),
            unit("al", Strategy::AdaptiveLocal, resilient),
        ]);
    }
    let results: Vec<ScenarioResult> = session
        .run(&units, 0)
        .into_iter()
        .map(Outcome::into_run)
        .collect();

    let mut rows = Vec::new();
    let mut total_instructions = 0u64;
    for (loss_bad, point) in LOSS_SEVERITIES.into_iter().zip(results.chunks(3)) {
        let [aa, aa_naive, al] = point else {
            unreachable!("three units per severity")
        };
        fill_run_metrics(&mut registry, aa);
        accumulate_accuracy(&mut tracker, &profile, aa);
        total_instructions += aa.instructions + aa_naive.instructions + al.instructions;
        json_points.push(
            Json::object()
                .with("loss_bad", loss_bad)
                .with("aa", scenario_result_to_json(aa, false))
                .with("aa_naive", scenario_result_to_json(aa_naive, false))
                .with("al", scenario_result_to_json(al, false)),
        );
        let mj = |r: &ScenarioResult| format!("{:.1}", r.total_energy.millijoules());
        rows.push(vec![
            format!("{loss_bad:.2}"),
            mj(aa),
            mj(aa_naive),
            mj(al),
            format!("{:.1}", aa.stats.wasted_energy.millijoules()),
            format!("{:.1}", aa_naive.stats.wasted_energy.millijoules()),
            format!("{}", aa.stats.retries),
            format!("{}/{}", aa.stats.breaker_trips, aa.stats.breaker_recoveries),
            format!("{}", aa.stats.degraded),
            format!("{}/{}", aa.stats.fallbacks, aa_naive.stats.fallbacks),
        ]);
    }
    print_table(
        "fe, AA resilient vs AA naive vs AL",
        &[
            "loss_bad",
            "AA",
            "AA naive",
            "AL",
            "AA waste",
            "naive waste",
            "retries",
            "trips/recov",
            "degraded",
            "fallbacks",
        ],
        &rows,
    );
    println!(
        "\nAt the default 300 invocations the AA column is strictly below the\n\
         AA-naive column at every severity (short runs can flip single\n\
         cells — one unlucky breaker cooldown dominates); the gap opens with\n\
         burst severity as the breaker converts repeated timeouts into\n\
         AL-style local execution, then probes its way back after bursts.\n\
         (AA equals AL exactly for fe: remote *compilation* is never the\n\
         argmin for this workload, so the two adaptive strategies make\n\
         identical choices under the same resilience policy.)"
    );

    print_regret_table("AA (resilient) predictor accuracy / regret", &tracker);
    tracker.fill_metrics(&mut registry);

    obs.write_json(
        &Json::object()
            .with("figure", "faults")
            .with("runs", runs)
            .with("seed", seed)
            .with("total_sim_instructions", total_instructions)
            .with("points", Json::Arr(json_points))
            .with("accuracy_aa", tracker.to_json()),
    );
    obs.write_metrics(&registry);
    session.finish(&obs);
    obs.archive_run(&args);
}
