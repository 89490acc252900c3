//! Runtime-side observability glue: post-hoc oracles, predictor
//! accuracy, run metrics, and hand-rolled JSON encoders for the report
//! types (the vendored serde stubs are no-ops, so `BENCH_*.json`
//! emission goes through [`jem_obs::Json`] instead). Nothing reads
//! these documents back; checkpoints use the binary
//! [`crate::encode_result`] / [`crate::decode_result`].
//!
//! The oracle answers "what would the cheapest mode have cost, knowing
//! the true size and channel class?" in steady state — compile costs
//! are ignored, exactly like the adaptive rule's `k → ∞` limit — and
//! the gap between actual and oracle energy, summed over a run, is the
//! strategy's cumulative regret ([`jem_obs::AccuracyTracker`]).

use crate::estimate::Profile;
use crate::experiment::ScenarioResult;
use crate::runtime::{InvocationReport, RunStats};
use crate::strategy::Mode;
use jem_energy::Energy;
use jem_jvm::OptLevel;
use jem_obs::{AccuracyTracker, Buckets, Json, MetricsRegistry};
use jem_radio::ChannelClass;

/// The post-hoc cheapest mode at true size `s` and true channel
/// `class`, in steady state (no compile amortization: local levels are
/// charged execution only). Ties resolve in candidate order
/// interpret, remote, L1..L3 — matching
/// [`crate::strategy::DecisionEstimates::argmin`]'s
/// prefer-the-default tie-break.
pub fn oracle_choice(profile: &Profile, size: u32, class: ChannelClass) -> (Mode, Energy) {
    let s = f64::from(size);
    let pa = profile.radio.power_amplifier[class.index()];
    let mut best = (Mode::Interpret, profile.e_interp(s));
    let remote = profile.e_remote(s, pa);
    if remote < best.1 {
        best = (Mode::Remote, remote);
    }
    for level in OptLevel::ALL {
        let e = profile.e_local(level, s);
        if e < best.1 {
            best = (Mode::Local(level), e);
        }
    }
    best
}

/// Build the predictor-accuracy / regret tracker for one finished run.
///
/// Every invocation contributes to the regret and oracle-agreement
/// totals. Invocations without a decision-time prediction (the static
/// strategies) contribute zero prediction error: their "prediction" is
/// taken to be the measured energy itself.
pub fn accuracy_of(profile: &Profile, result: &ScenarioResult) -> AccuracyTracker {
    let mut tracker = AccuracyTracker::new();
    for report in &result.reports {
        let (oracle_mode, oracle) = oracle_choice(profile, report.size, report.true_class);
        let predicted = report.predicted_energy.unwrap_or(report.energy);
        tracker.record(
            &report.mode.to_string(),
            predicted,
            report.energy,
            oracle,
            &oracle_mode.to_string(),
        );
    }
    tracker
}

/// Histogram buckets for per-invocation energy (nJ): 1 µJ … ~17 J.
pub fn energy_buckets() -> Buckets {
    Buckets::log(1e3, 2.0, 24)
}

/// Histogram buckets for per-invocation time (ns): 10 µs … ~167 s.
pub fn time_buckets() -> Buckets {
    Buckets::log(1e4, 2.0, 24)
}

/// Histogram buckets for per-invocation remote retries.
pub fn retry_buckets() -> Buckets {
    Buckets::explicit(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
}

/// Publish one run's counters and per-invocation histograms into
/// `registry`, labelled with the strategy key.
pub fn fill_run_metrics(registry: &mut MetricsRegistry, result: &ScenarioResult) {
    let labels = vec![("strategy", result.strategy.key().to_string())];
    registry.set_help("invocation_energy_nj", "Client energy per invocation, nJ.");
    registry.set_help("invocation_time_ns", "Client wall time per invocation, ns.");
    registry.set_help("invocation_retries", "Remote retries per invocation.");
    for report in &result.reports {
        let mode_labels = vec![
            ("strategy", result.strategy.key().to_string()),
            ("mode", report.mode.to_string()),
        ];
        registry.observe(
            "invocation_energy_nj",
            &mode_labels,
            &energy_buckets(),
            report.energy.nanojoules(),
        );
        registry.observe(
            "invocation_time_ns",
            &mode_labels,
            &time_buckets(),
            report.time.nanos(),
        );
        registry.observe(
            "invocation_retries",
            &labels,
            &retry_buckets(),
            f64::from(report.retries),
        );
    }
    let s = &result.stats;
    registry.add("invocations_total", &labels, result.invocations as u64);
    registry.add("exec_remote_total", &labels, s.remote);
    registry.add("exec_interpreted_total", &labels, s.interpreted);
    for level in OptLevel::ALL {
        let level_labels = vec![
            ("strategy", result.strategy.key().to_string()),
            ("level", level.name().to_string()),
        ];
        registry.add("exec_local_total", &level_labels, s.local[level.index()]);
    }
    registry.add("compiles_local_total", &labels, s.local_compiles);
    registry.add("compiles_remote_total", &labels, s.remote_compiles);
    registry.add("fallbacks_total", &labels, s.fallbacks);
    registry.add("early_wakes_total", &labels, s.early_wakes);
    registry.add("retries_total", &labels, s.retries);
    registry.add("breaker_trips_total", &labels, s.breaker_trips);
    registry.add("breaker_recoveries_total", &labels, s.breaker_recoveries);
    registry.add("degraded_total", &labels, s.degraded);
    registry.add("losses_total", &labels, s.losses);
    registry.add("outages_total", &labels, s.outages);
    registry.add("corrupt_responses_total", &labels, s.corrupt_responses);
    registry.add("rcomp_fallbacks_total", &labels, s.rcomp_fallbacks);
    registry.set_gauge(
        "run_total_energy_nj",
        &labels,
        result.total_energy.nanojoules(),
    );
    registry.set_gauge("run_total_time_ns", &labels, result.total_time.nanos());
    registry.set_gauge(
        "run_wasted_energy_nj",
        &labels,
        s.wasted_energy.nanojoules(),
    );
}

fn class_label(class: ChannelClass) -> String {
    format!("{class:?}")
}

/// Render a [`Mode`] as its stable label ("interpret", "remote",
/// "local/Local1"…).
pub fn mode_label(mode: Mode) -> String {
    mode.to_string()
}

/// Encode one [`InvocationReport`] as JSON.
pub fn report_to_json(report: &InvocationReport) -> Json {
    let opt_level = |l: Option<OptLevel>| match l {
        Some(l) => Json::Str(l.name().to_string()),
        None => Json::Null,
    };
    Json::object()
        .with("size", report.size)
        .with("true_class", class_label(report.true_class).as_str())
        .with("chosen_class", class_label(report.chosen_class).as_str())
        .with("mode", mode_label(report.mode).as_str())
        .with("energy_nj", report.energy.nanojoules())
        .with("time_ns", report.time.nanos())
        .with("compiled_locally", opt_level(report.compiled_locally))
        .with("compiled_remotely", opt_level(report.compiled_remotely))
        .with("fell_back", report.fell_back)
        .with("retries", report.retries)
        .with("wasted_energy_nj", report.wasted_energy.nanojoules())
        .with("degraded", report.degraded)
        .with(
            "predicted_energy_nj",
            match report.predicted_energy {
                Some(e) => Json::from(e.nanojoules()),
                None => Json::Null,
            },
        )
}

/// Encode [`RunStats`] as JSON.
pub fn stats_to_json(stats: &RunStats) -> Json {
    Json::object()
        .with("remote", stats.remote)
        .with("interpreted", stats.interpreted)
        .with("local", stats.local.to_vec())
        .with("local_compiles", stats.local_compiles)
        .with("remote_compiles", stats.remote_compiles)
        .with("fallbacks", stats.fallbacks)
        .with("early_wakes", stats.early_wakes)
        .with("retries", stats.retries)
        .with("breaker_trips", stats.breaker_trips)
        .with("breaker_recoveries", stats.breaker_recoveries)
        .with("degraded", stats.degraded)
        .with("degraded_time_ns", stats.degraded_time.nanos())
        .with("wasted_energy_nj", stats.wasted_energy.nanojoules())
        .with("losses", stats.losses)
        .with("outages", stats.outages)
        .with("corrupt_responses", stats.corrupt_responses)
        .with("rcomp_fallbacks", stats.rcomp_fallbacks)
}

/// Encode a finished [`ScenarioResult`] for `BENCH_*.json`. With
/// `include_reports` the full per-invocation report list rides along
/// (large: one object per invocation).
pub fn scenario_result_to_json(result: &ScenarioResult, include_reports: bool) -> Json {
    let mut breakdown = Json::object();
    for (component, energy) in result.breakdown.iter() {
        breakdown = breakdown.with(component.name(), energy.nanojoules());
    }
    breakdown = breakdown.with("total", result.breakdown.total().nanojoules());
    let mut doc = Json::object()
        .with("strategy", result.strategy.key())
        .with("total_energy_nj", result.total_energy.nanojoules())
        .with("total_time_ns", result.total_time.nanos())
        .with("mean_energy_nj", result.mean_energy().nanojoules())
        .with("invocations", result.invocations)
        .with("sim_instructions", result.instructions)
        .with("breakdown_nj", breakdown)
        .with("stats", stats_to_json(&result.stats));
    if include_reports {
        doc = doc.with(
            "reports",
            Json::Arr(result.reports.iter().map(report_to_json).collect()),
        );
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_energy::SimTime;

    #[test]
    fn merged_stats_equal_concatenated_counters() {
        let mut a = RunStats {
            remote: 1,
            local: [4, 0, 1],
            retries: 2,
            wasted_energy: Energy::from_nanojoules(10.0),
            degraded_time: SimTime::from_nanos(5.0),
            ..Default::default()
        };
        let b = RunStats {
            remote: 2,
            local: [1, 1, 1],
            retries: 1,
            wasted_energy: Energy::from_nanojoules(2.5),
            degraded_time: SimTime::from_nanos(7.0),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.remote, 3);
        assert_eq!(a.local, [5, 1, 2]);
        assert_eq!(a.retries, 3);
        assert_eq!(a.wasted_energy, Energy::from_nanojoules(12.5));
        assert_eq!(a.degraded_time, SimTime::from_nanos(12.0));
    }
}
