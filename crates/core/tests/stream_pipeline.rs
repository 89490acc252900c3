//! Integration tests for the streaming trace pipeline (PR 5's
//! acceptance criteria, exercised end-to-end on real simulator runs):
//!
//! * the `.jtb` binary round-trip is event-exact and energy-exact —
//!   as a property over seeds and fault severities — and the format is
//!   far smaller than the Chrome JSON export of the same run;
//! * `jem query` aggregates reconcile *bit-exactly* with the
//!   profiler's per-method × per-mode cells on the same trace;
//! * the online monitors stay silent on clean paper-scenario runs,
//!   provably fire the retry-storm and breaker-flap watchdogs on a
//!   seeded fault run, and never perturb the simulation — monitored
//!   and unmonitored runs are bit-identical in results and (alert-free
//!   cases) in the trace itself.

use std::sync::OnceLock;

use jem_core::{
    run_scenario_traced, scenario_result_to_json, Profile, ResilienceConfig, ScenarioResult,
    Strategy, Workload,
};
use jem_jvm::dsl::*;
use jem_jvm::{Heap, MethodAttrs, MethodId, Program, Value};
use jem_obs::monitor::{Monitor, MonitorConfig, MonitorSink};
use jem_obs::query::{GroupKey, Query, QueryEngine};
use jem_obs::wire::{jtb_bytes, load_trace_bytes, JtbIndex};
use jem_obs::{
    chrome_trace_truncated, RingSink, TraceEvent, TraceEventKind, TraceProfile, TraceShard,
};
use jem_sim::{Scenario, Situation};
use proptest::prelude::*;
use rand::rngs::SmallRng;

/// The synthetic quadratic kernel from `profile_diff.rs`: enough
/// cycles to make modes distinguishable, cheap to run per-seed.
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

fn degraded_scenario(seed: u64, runs: usize, loss_bad: f64) -> Scenario {
    Scenario::paper_degraded(
        Situation::GoodDominant,
        &Kernel::new().sizes(),
        seed,
        loss_bad,
    )
    .with_runs(runs)
}

fn clean_scenario(seed: u64, runs: usize) -> Scenario {
    Scenario::paper(Situation::GoodDominant, &Kernel::new().sizes(), seed).with_runs(runs)
}

// ---------------------------------------------------------------
// Binary round-trip
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// encode → decode is event-exact (every field, every float bit)
    /// over seeds and fault severities; the footer's energy partial
    /// sums telescope to the run's delta sum exactly.
    #[test]
    fn jtb_round_trip_is_event_exact(
        seed in 0u64..1000,
        loss_idx in 0usize..3,
    ) {
        let loss_bad = [0.0f64, 0.5, 0.9][loss_idx];
        let scenario = degraded_scenario(seed, 40, loss_bad);
        let (_, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
        let shard = TraceShard::new("client", events.clone());
        let bytes = jtb_bytes(std::slice::from_ref(&shard));
        let loaded = load_trace_bytes(&bytes).expect("jtb loads");
        prop_assert_eq!(loaded.dropped, 0);
        prop_assert_eq!(loaded.shards.len(), 1);
        prop_assert_eq!(&loaded.shards[0].events, &events);

        let index = JtbIndex::read(&bytes).expect("footer parses");
        prop_assert_eq!(index.events, events.len() as u64);
        let mut sum = jem_energy::EnergyBreakdown::new();
        for ev in &events {
            sum += ev.delta;
        }
        let footer = index.total_energy();
        for (c, e) in footer.iter() {
            prop_assert_eq!(e.nanojoules(), sum[c].nanojoules(), "component {}", c.name());
        }
    }
}

/// The compact format is what makes full-grid streaming viable: on a
/// real run, `.jtb` must undercut the Chrome JSON export by at least
/// 5× (the acceptance floor; in practice it is far smaller).
#[test]
fn jtb_is_at_least_5x_smaller_than_chrome_json() {
    let scenario = degraded_scenario(3, 80, 0.5);
    let (_, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
    let json = format!("{}\n", chrome_trace_truncated(&events, 0).render());
    let jtb = jtb_bytes(&[TraceShard::new("client", events)]);
    assert!(
        jtb.len() * 5 <= json.len(),
        "jtb {} bytes vs chrome json {} bytes",
        jtb.len(),
        json.len()
    );
}

// ---------------------------------------------------------------
// Query ↔ profile reconciliation
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// An unfiltered `--group-by method,mode` query is the profiler's
    /// table — same fold, same merge order, so the float sums are
    /// bit-identical, not merely close.
    #[test]
    fn query_group_by_reconciles_bit_exactly_with_profile(
        seed in 0u64..1000,
        loss_idx in 0usize..3,
    ) {
        let loss_bad = [0.0f64, 0.5, 0.9][loss_idx];
        let scenario = degraded_scenario(seed, 40, loss_bad);
        let (_, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);

        let p = TraceProfile::fold(&events);
        let mut engine = QueryEngine::new(Query {
            group_by: vec![GroupKey::Method, GroupKey::Mode],
            ..Query::default()
        });
        for ev in &events {
            engine.push(ev.clone());
        }
        let result = engine.finish();

        let rows = p.method_mode_rows();
        prop_assert_eq!(result.rows.len(), rows.len());
        for want in &rows {
            let got = result
                .rows
                .iter()
                .find(|r| r.key[0] == want.method && r.key[1] == want.mode)
                .unwrap_or_else(|| panic!("query lost group {}/{}", want.method, want.mode));
            prop_assert_eq!(got.stats.count, want.stats.events);
            prop_assert_eq!(got.stats.time.nanos(), want.stats.time.nanos());
            for (c, e) in want.stats.energy.iter() {
                // Bitwise equality — the reconciliation guarantee.
                prop_assert_eq!(
                    got.stats.energy[c].nanojoules().to_bits(),
                    e.nanojoules().to_bits(),
                    "component {} of {}/{}", c.name(), want.method, want.mode
                );
            }
        }
    }
}

// ---------------------------------------------------------------
// Online monitors
// ---------------------------------------------------------------

/// Clean paper-scenario runs satisfy every invariant at default
/// thresholds: zero alerts, across seeds and strategies.
#[test]
fn monitors_stay_silent_on_clean_runs() {
    for seed in [2u64, 23, 101, 407, 733] {
        for strategy in [Strategy::AdaptiveAdaptive, Strategy::AdaptiveLocal] {
            let scenario = clean_scenario(seed, 40);
            let (_, events) = run_traced(&scenario, strategy);
            let mut m = Monitor::new(MonitorConfig::default());
            for ev in &events {
                let alerts = m.observe(ev);
                assert!(alerts.is_empty(), "seed {seed} {strategy:?}: {alerts:?}");
            }
            let report = m.finish();
            assert!(report.healthy(), "seed {seed} {strategy:?}: {report:?}");
        }
    }
}

/// Seeded fault runs provably trip the watchdogs once their windows
/// are tightened to the injected fault density. Two runs, because the
/// pathologies are mutually suppressing: with the breaker *on*, flap
/// is visible but the open breaker forbids retries; with the breaker
/// *off* and a generous retry budget, the retry storm rages instead.
#[test]
fn fault_run_fires_retry_storm_and_breaker_flap() {
    let watchdogs = MonitorConfig {
        retry_window: 60,
        retry_max: 2,
        flap_window: 120,
        flap_max: 1,
        ..MonitorConfig::default()
    };

    // Breaker-flap: AA under the default policy keeps probing the
    // degraded channel, cycling closed → open → half-open.
    let scenario = degraded_scenario(7, 120, 0.9);
    let (_, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
    let transitions = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::BreakerTransition { .. }))
        .count();
    assert!(transitions > 0, "scenario must trip the breaker");
    let mut m = Monitor::new(watchdogs.clone());
    for ev in &events {
        m.observe(ev);
    }
    let report = m.finish();
    assert!(
        report.counts.get("breaker-flap").copied().unwrap_or(0) > 0,
        "breaker-flap must fire ({} transitions): {report:?}",
        transitions
    );
    // The structural invariants still hold even on the degraded run.
    assert_eq!(report.counts.get("conservation"), None, "{report:?}");
    assert_eq!(report.counts.get("negative-delta"), None, "{report:?}");

    // Retry-storm: static Remote with the breaker disabled and a
    // deep retry budget keeps re-attempting through the bursts.
    let w = Kernel::new();
    let mut ring = RingSink::new(1_000_000);
    let storm_cfg = ResilienceConfig {
        retry: jem_core::RetryPolicy {
            max_retries: 4,
            energy_budget: jem_energy::Energy::from_millijoules(100_000.0),
            ..Default::default()
        },
        breaker: jem_core::BreakerPolicy {
            enabled: false,
            ..Default::default()
        },
    };
    run_scenario_traced(
        &w,
        profile(),
        &scenario,
        Strategy::Remote,
        &storm_cfg,
        &mut ring,
    )
    .expect("scenario run failed");
    let events = ring.into_events();
    let retries = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::RetryAttempt { .. }))
        .count();
    assert!(retries > 2, "scenario must inject retries ({retries})");
    let mut m = Monitor::new(watchdogs);
    for ev in &events {
        m.observe(ev);
    }
    let report = m.finish();
    assert!(
        report.counts.get("retry-storm").copied().unwrap_or(0) > 0,
        "retry-storm must fire ({} retries): {report:?}",
        retries
    );
    assert_eq!(report.counts.get("conservation"), None, "{report:?}");
    assert_eq!(report.counts.get("negative-delta"), None, "{report:?}");
}

/// Monitoring must never perturb the simulation: a monitored run's
/// results are bit-identical to the unmonitored run at the same seed,
/// and on an alert-free run the exported trace is byte-identical too.
#[test]
fn monitored_run_is_bit_identical_to_unmonitored() {
    // Clean run: identical results AND identical trace.
    let scenario = clean_scenario(42, 40);
    let (plain_result, plain_events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);

    let w = Kernel::new();
    let mut ring = RingSink::new(1_000_000);
    let mut monitored = MonitorSink::new(&mut ring, MonitorConfig::default());
    let monitored_result = run_scenario_traced(
        &w,
        profile(),
        &scenario,
        Strategy::AdaptiveAdaptive,
        &ResilienceConfig::default(),
        &mut monitored,
    )
    .expect("scenario run failed");
    let report = monitored.finish();
    assert!(report.healthy(), "{report:?}");

    let plain_doc = scenario_result_to_json(&plain_result, true).render();
    let monitored_doc = scenario_result_to_json(&monitored_result, true).render();
    assert_eq!(plain_doc, monitored_doc, "results must be bit-identical");
    assert_eq!(
        plain_events,
        ring.into_events(),
        "alert-free monitored trace must be byte-identical"
    );

    // Degraded run with alert-tight thresholds: results still
    // bit-identical; the trace gains only zero-delta alert events.
    let scenario = degraded_scenario(7, 60, 0.9);
    let (plain_result, plain_events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
    let mut ring = RingSink::new(1_000_000);
    let mut monitored = MonitorSink::new(
        &mut ring,
        MonitorConfig {
            retry_window: 60,
            retry_max: 2,
            flap_window: 120,
            flap_max: 1,
            ..MonitorConfig::default()
        },
    );
    let monitored_result = run_scenario_traced(
        &w,
        profile(),
        &scenario,
        Strategy::AdaptiveAdaptive,
        &ResilienceConfig::default(),
        &mut monitored,
    )
    .expect("scenario run failed");
    let report = monitored.finish();
    assert!(!report.healthy(), "tight thresholds must fire here");

    let plain_doc = scenario_result_to_json(&plain_result, true).render();
    let monitored_doc = scenario_result_to_json(&monitored_result, true).render();
    assert_eq!(
        plain_doc, monitored_doc,
        "alerts must not leak into results"
    );

    let got = ring.into_events();
    let alerts = got
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::Alert { .. }))
        .count() as u64;
    assert_eq!(alerts, report.total_alerts);
    let stripped: Vec<TraceEvent> = got
        .into_iter()
        .filter(|e| !matches!(e.kind, TraceEventKind::Alert { .. }))
        .enumerate()
        .map(|(i, mut e)| {
            // Undo the post-alert seq shift; everything else must
            // match the unmonitored event stream exactly.
            e.seq = i as u64;
            e
        })
        .collect();
    assert_eq!(stripped, plain_events);
}
