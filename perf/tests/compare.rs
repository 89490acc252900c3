//! `compare`'s verdicts on synthetic samples.

use jem_obs::Json;
use jem_perf::catalogue::{Better, Catalogue};
use jem_perf::compare::{compare, judge, Verdict};

/// Ten runs around `base`, ±1% apart.
fn runs(base: f64) -> Vec<f64> {
    (0..10)
        .map(|i| base * (1.0 + 0.002 * f64::from(i) - 0.01))
        .collect()
}

#[test]
fn verdicts_follow_the_pairwise_rule_and_the_bound() {
    let parent = runs(100.0);
    assert_eq!(
        judge(&parent, &parent, Better::Higher, 0.1).verdict,
        Verdict::Unchanged
    );
    // 20% faster throughput in every pair: a gain.
    let j = judge(&parent, &runs(120.0), Better::Higher, 0.1);
    assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Improved, 10, 10));
    assert!((j.gain - 0.2).abs() < 1e-9);
    // The same numbers read as times are a regression beyond 10%...
    assert_eq!(
        judge(&parent, &runs(120.0), Better::Lower, 0.1).verdict,
        Verdict::Regressed
    );
    // ...but not beyond 25%.
    assert_eq!(
        judge(&parent, &runs(120.0), Better::Lower, 0.25).verdict,
        Verdict::Unchanged
    );
    // A gain needs ten pairs, nine of which the change wins.
    let j = judge(&parent[..5], &runs(120.0)[..5], Better::Higher, 0.1);
    assert_eq!(j.verdict, Verdict::Unchanged);
    let mut two_losses = runs(120.0);
    two_losses[0] = 90.0;
    two_losses[1] = 95.0;
    let j = judge(&parent, &two_losses, Better::Higher, 0.1);
    assert_eq!((j.verdict, j.wins), (Verdict::Unchanged, 8));
    // A gain smaller than the parent's interquartile range is no gain.
    let wide: Vec<f64> = (0..10).map(|i| 90.0 + 2.0 * f64::from(i)).collect();
    let shifted: Vec<f64> = wide.iter().map(|v| v + 1.0).collect();
    assert_eq!(
        judge(&wide, &shifted, Better::Higher, 0.5).verdict,
        Verdict::Unchanged
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
    let noisy: Vec<f64> = (0..10).map(|i| 60.0 + 10.0 * f64::from(i)).collect();
    let slower: Vec<f64> = noisy.iter().map(|v| v * 0.95).collect();
    let j = judge(&noisy, &slower, Better::Higher, 0.1);
    assert_eq!(j.verdict, Verdict::Unresolved);
    assert!(j.spread > 0.1);
    let faster: Vec<f64> = noisy.iter().map(|v| v + 200.0).collect();
    assert_eq!(
        judge(&noisy, &faster, Better::Higher, 0.1).verdict,
        Verdict::Improved
    );
    let much_slower: Vec<f64> = noisy.iter().map(|v| v * 0.3).collect();
    assert_eq!(
        judge(&noisy, &much_slower, Better::Higher, 0.1).verdict,
        Verdict::Regressed
    );
}

/// A `jem-perf run --out` document with the same metrics for every
/// workload.
fn doc(cat: &Catalogue, inv_per_s: f64, error_rate: f64) -> Json {
    let workloads = cat
        .workloads
        .iter()
        .map(|w| {
            let mut metrics = Json::object();
            for m in &cat.end_to_end {
                let v = if m.name == "inv_per_s" {
                    inv_per_s
                } else {
                    1.0
                };
                metrics = metrics.with(&m.name, Json::object().with("value", v));
            }
            Json::object()
                .with("workload", w.as_str())
                .with("error_rate", error_rate)
                .with("metrics", metrics)
        })
        .collect();
    Json::object().with("workloads", Json::Arr(workloads))
}

#[test]
fn compare_judges_every_metric_and_workload_and_any_new_failure() {
    let cat = Catalogue::load();
    let parent = vec![doc(&cat, 100.0, 0.0)];
    let rows = compare(&cat, &parent, &[doc(&cat, 99.0, 0.0)]).expect("complete documents");
    assert_eq!(rows.len(), cat.workloads.len() * (cat.end_to_end.len() + 1));
    assert!(rows
        .iter()
        .all(|r| r.judgement.verdict == Verdict::Unchanged));

    let rows = compare(&cat, &parent, &[doc(&cat, 50.0, 0.01)]).expect("complete documents");
    for r in rows {
        let expect = match r.metric.as_str() {
            "inv_per_s" | "error_rate" => Verdict::Regressed,
            _ => Verdict::Unchanged,
        };
        assert_eq!(r.judgement.verdict, expect, "{}/{}", r.workload, r.metric);
    }
    let incomplete = Json::object().with("workloads", Json::Arr(vec![]));
    assert!(compare(&cat, &parent, &[incomplete]).is_err());
}
