//! `BENCHMARK.json` names exactly what the benchmark runs and emits.

use jem_obs::Json;
use jem_perf::bench::{Kind, Run};
use jem_perf::catalogue::Catalogue;
use jem_perf::report::result_line;
use std::collections::BTreeMap;

fn well_formed_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn catalogue_matches_the_workloads_and_is_well_formed() {
    let cat = Catalogue::load();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(cat.workloads, kinds);
    assert!((1..=60).contains(&cat.run_seconds));
    let mut names: Vec<&str> = cat.workloads.iter().map(String::as_str).collect();
    for m in cat.end_to_end.iter().chain(&cat.per_layer) {
        assert!(well_formed_name(&m.name), "{}", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit {}",
            m.name,
            m.unit
        );
        names.push(&m.name);
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names are used once");
    let bounds: Vec<f64> = cat
        .end_to_end
        .iter()
        .map(|m| m.bound.expect("bound"))
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
    let setup = cat.metric("setup_s").expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(
        bounds.iter().all(|b| *b <= setup.bound.expect("bound")),
        "setup_s has the largest bound"
    );
    assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
}

#[test]
fn result_line_carries_every_catalogued_metric() {
    let cat = Catalogue::load();
    let run = Run {
        kind: Kind::InterpOnly,
        rounds: 2,
        traced: true,
        attempted: 90,
        failed: 0,
        failures: Vec::new(),
        metrics: BTreeMap::from([("inv_per_s", 42.5)]),
        spreads: BTreeMap::new(),
    };
    for (trace, specs) in [(false, &cat.end_to_end), (true, &cat.per_layer)] {
        let line = Json::parse(&result_line(&run, &cat, trace)).expect("one JSON object");
        let keys: Vec<&str> = line
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line
            .get("metrics")
            .and_then(Json::as_object)
            .expect("metrics");
        let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let catalogued: Vec<&str> = specs.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(emitted, catalogued);
        for (name, m) in metrics {
            let spec = cat.metric(name).expect("catalogued");
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(spec.unit.as_str())
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }
}
