//! Integration tests for the trace-analysis layer (PR 4's acceptance
//! criteria, exercised end-to-end on real simulator runs):
//!
//! * the profiler's per-cell energy attribution reconciles with the
//!   run's `EnergyBreakdown`, component by component — including on
//!   degraded (fault-injected) runs where retries, fallbacks and
//!   breaker trips multiply the phase frames;
//! * `jem-diff` of a run against itself is empty — as a property over
//!   seeds and loss severities, for traces, results documents and
//!   profiles alike;
//! * collapsed-stack exports are well-formed flamegraph input whose
//!   weights sum back (within rounding) to the run total.

use std::sync::OnceLock;

use jem_core::{
    run_scenario_traced, scenario_result_to_json, Profile, ResilienceConfig, ScenarioResult,
    Strategy, Workload,
};
use jem_jvm::dsl::*;
use jem_jvm::{Heap, MethodAttrs, MethodId, Program, Value};
use jem_obs::diff::{diff_json, diff_traces, DiffPolicy, DiffReport};
use jem_obs::profile::{CollapseWeight, TraceProfile};
use jem_obs::{RingSink, TraceEvent, TraceEventKind};
use jem_sim::{Scenario, Situation};
use proptest::prelude::*;
use rand::rngs::SmallRng;

/// The synthetic quadratic kernel from `runtime_integration.rs`:
/// enough cycles to make modes distinguishable, cheap to profile.
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

#[test]
fn profile_reconciles_with_run_breakdown() {
    for (strategy, seed) in [
        (Strategy::AdaptiveAdaptive, 7),
        (Strategy::AdaptiveLocal, 8),
        (Strategy::Remote, 9),
    ] {
        let scenario = degraded_scenario(seed, 60, 0.7);
        let (result, events) = run_traced(&scenario, strategy);
        let p = TraceProfile::fold(&events);
        // Column sums equal the run's breakdown (the acceptance
        // condition; 1e-9 tolerates only summation-order rounding).
        p.reconcile(&result.breakdown, 1e-9)
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(p.invocations() as usize, scenario.runs);
        // Every cell is rooted at the workload's qualified method.
        for (stack, _) in p.cells() {
            assert_eq!(stack[0], "kernel::Module.kernel", "stack: {stack:?}");
        }
        // The per-method rows cover the same total.
        let rows_total: f64 = p
            .method_mode_rows()
            .iter()
            .map(|r| r.stats.energy.total().nanojoules())
            .sum();
        let want = result.breakdown.total().nanojoules();
        assert!(
            (rows_total - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{strategy:?}: method rows {rows_total} != breakdown {want}"
        );
    }
}

#[test]
fn collapsed_stacks_are_valid_flamegraph_input() {
    let scenario = degraded_scenario(11, 50, 0.7);
    let (result, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
    let p = TraceProfile::fold(&events);
    let folded = p.collapsed(CollapseWeight::EnergyNanojoules);
    assert!(!folded.is_empty());
    let mut weight_sum = 0u64;
    for line in folded.lines() {
        // `frame;frame;... integer_weight` — exactly what inferno /
        // flamegraph.pl / speedscope ingest.
        let (stack, weight) = line.rsplit_once(' ').expect("space-separated weight");
        assert!(!stack.is_empty() && !stack.starts_with(';') && !stack.ends_with(';'));
        weight_sum += weight.parse::<u64>().expect("integer weight");
    }
    // Rounded per-cell weights stay within ±0.5 nJ per line of the
    // run's total energy.
    let want = result.breakdown.total().nanojoules();
    let lines = folded.lines().count() as f64;
    assert!(
        (weight_sum as f64 - want).abs() <= 0.5 * lines + 1.0,
        "collapsed weights {weight_sum} vs run total {want}"
    );
}

#[test]
fn different_seeds_produce_a_nonempty_diff() {
    let (ra, ea) = run_traced(&degraded_scenario(7, 40, 0.7), Strategy::AdaptiveAdaptive);
    let (rb, eb) = run_traced(&degraded_scenario(8, 40, 0.7), Strategy::AdaptiveAdaptive);
    let report = diff_traces(&ea, &eb, &DiffPolicy::default());
    assert!(report.has_changes(), "different seeds must not diff empty");
    let mut doc_report = DiffReport::default();
    diff_json(
        &scenario_result_to_json(&ra, false),
        &scenario_result_to_json(&rb, false),
        &DiffPolicy::default(),
        &mut doc_report,
    );
    assert!(doc_report.has_changes());
}

#[test]
fn decision_flips_surface_candidate_energies() {
    // A healthy run vs a heavily degraded one: the breaker forces AA
    // away from remote decisions, so flips (or missing decisions /
    // event-count deltas) must surface with the recorded candidates.
    let (_, ea) = run_traced(&degraded_scenario(7, 60, 0.0), Strategy::AdaptiveAdaptive);
    let (_, eb) = run_traced(&degraded_scenario(7, 60, 0.9), Strategy::AdaptiveAdaptive);
    let report = diff_traces(&ea, &eb, &DiffPolicy::default());
    assert!(report.has_changes());
    let has_behavioural = report
        .entries
        .iter()
        .any(|e| e.path.starts_with("decision-flip") || e.path.starts_with("events/"));
    assert!(has_behavioural, "expected flips or event-count deltas");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// jem-diff of a run against itself is empty — for the trace, the
    /// results document and the folded profile — over seeds and fault
    /// severities (loss 0 covers the healthy path).
    #[test]
    fn self_diff_is_provably_empty(
        seed in 0u64..1000,
        loss_idx in 0usize..3,
    ) {
        // Fixed severities rather than a continuous range so loss 0
        // (the healthy path) is actually exercised.
        let loss_bad = [0.0f64, 0.5, 0.9][loss_idx];
        let scenario = degraded_scenario(seed, 25, loss_bad);
        let (ra, ea) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
        let (rb, eb) = run_traced(&scenario, Strategy::AdaptiveAdaptive);

        // Identical seeds give byte-identical artifacts, so every
        // layer of the differ must return an empty report.
        let trace_report = diff_traces(&ea, &eb, &DiffPolicy::default());
        prop_assert!(
            trace_report.is_empty(),
            "trace self-diff not empty:\n{}",
            trace_report.render_text()
        );

        let mut doc_report = DiffReport::default();
        diff_json(
            &scenario_result_to_json(&ra, true),
            &scenario_result_to_json(&rb, true),
            &DiffPolicy::default(),
            &mut doc_report,
        );
        prop_assert!(
            doc_report.is_empty(),
            "results self-diff not empty:\n{}",
            doc_report.render_text()
        );

        let mut profile_report = DiffReport::default();
        diff_json(
            &TraceProfile::fold(&ea).to_json(),
            &TraceProfile::fold(&eb).to_json(),
            &DiffPolicy::default(),
            &mut profile_report,
        );
        prop_assert!(profile_report.is_empty());
    }

    /// The profiler conserves energy for every seed/severity: folding
    /// never loses or invents a delta, even with truncated-invocation
    /// flushing in play.
    #[test]
    fn profiler_conserves_energy_under_faults(
        seed in 0u64..1000,
        loss_bad in 0.0f64..0.95,
    ) {
        let scenario = degraded_scenario(seed, 25, loss_bad);
        let (result, events) = run_traced(&scenario, Strategy::AdaptiveAdaptive);
        let p = TraceProfile::fold(&events);
        prop_assert!(p.reconcile(&result.breakdown, 1e-9).is_ok());
        // Every invocation resolved its mode (no truncation markers in
        // a complete stream).
        for (stack, _) in p.cells() {
            prop_assert!(stack[1] != jem_obs::profile::UNKNOWN_MODE, "stack: {stack:?}");
        }
        // Mode labels line up with the run's per-invocation reports.
        let end_modes: std::collections::BTreeSet<String> = events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::InvocationEnd { mode, .. } => Some(mode.clone()),
                _ => None,
            })
            .collect();
        let report_modes: std::collections::BTreeSet<String> =
            result.reports.iter().map(|r| r.mode.to_string()).collect();
        prop_assert_eq!(end_modes, report_modes);
    }
}
