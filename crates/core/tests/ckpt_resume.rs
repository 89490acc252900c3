//! Resume determinism for the checkpoint subsystem: a run that is
//! snapshotted mid-flight and continued from the snapshot must be
//! **bit-identical** to one that ran straight through — same result
//! bytes, same invocation reports, and (when traced to a `.jtb`
//! stream) the same trace bytes. Exercised over seeds × fault
//! severities × checkpoint cadences × strategies.

use std::sync::OnceLock;

use jem_core::ckpt::{run_scenario_ckpt, RunSnapshot};
use jem_core::{encode_result, Profile, ResilienceConfig, Strategy, Workload};
use jem_jvm::dsl::*;
use jem_jvm::{set_slow_interp_default, Heap, MethodAttrs, MethodId, Program, Value, Vm};
use jem_obs::FileSink;
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

/// The profile is deterministic and expensive to build; share one
/// across all property cases.
fn profile() -> &'static Profile {
    static PROFILE: OnceLock<Profile> = OnceLock::new();
    PROFILE.get_or_init(|| Profile::build(&Kernel::new(), 1))
}

/// A fresh collision-free temp path per traced case.
fn temp_path(tag: &str) -> String {
    jem_obs::scratch_path(&format!("{tag}.jtb"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Untraced: every mid-run snapshot round-trips through its byte
    /// encoding, and continuing from *any* of them reproduces the
    /// straight-through result bit-for-bit — across fault severities
    /// (retry chains, breaker trips), cadences and strategies.
    #[test]
    fn resume_from_any_boundary_is_bit_identical(
        seed in 0u64..5000,
        loss_bad in 0.0f64..0.95,
        every in 1usize..7,
        sidx in 0usize..7,
    ) {
        let w = Kernel::new();
        let strategy = Strategy::ALL[sidx];
        let runs = 18;
        let scenario =
            Scenario::paper_degraded(Situation::Uniform, &w.sizes(), seed, loss_bad)
                .with_runs(runs);
        let policy = ResilienceConfig::default();
        let straight =
            run_scenario_ckpt(&w, profile(), &scenario, strategy, &policy, None, None, 0, None)
                .expect("straight run");
        let golden = encode_result(&straight);

        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut hook = |s: &RunSnapshot, _writer: Option<Vec<u8>>| snaps.push(s.encode());
        let ckpted = run_scenario_ckpt(
            &w, profile(), &scenario, strategy, &policy, None, None, every, Some(&mut hook),
        )
        .expect("checkpointed run");
        // Capturing is read-only: the checkpointed run itself is
        // unperturbed, and a boundary lands at every cadence multiple
        // strictly before the end.
        prop_assert_eq!(encode_result(&ckpted), golden.clone());
        prop_assert_eq!(snaps.len(), (runs - 1) / every);

        for (i, bytes) in snaps.iter().enumerate() {
            let snap = RunSnapshot::decode(bytes).expect("snapshot decodes");
            prop_assert_eq!(&snap.encode(), bytes, "snapshot {i} round-trip");
            prop_assert_eq!(snap.invocation, (i + 1) * every);
            let resumed = run_scenario_ckpt(
                &w, profile(), &scenario, strategy, &policy, None, Some(&snap), 0, None,
            )
            .expect("resumed run");
            prop_assert_eq!(
                encode_result(&resumed),
                golden.clone(),
                "resume from boundary {i} diverged"
            );
        }
    }

    /// Traced: a `.jtb` stream interrupted at a checkpoint boundary
    /// and resumed through [`FileSink::resume`] finishes byte-equal
    /// to the uninterrupted stream (the crash-safety contract the
    /// chaos harness checks end-to-end on the real bins).
    #[test]
    fn traced_resume_reproduces_trace_bytes(
        seed in 0u64..2000,
        loss_bad in 0.0f64..0.9,
        every in 2usize..6,
    ) {
        let w = Kernel::new();
        let strategy = Strategy::AdaptiveAdaptive;
        let runs = 14;
        let scenario =
            Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), seed, loss_bad)
                .with_runs(runs);
        let policy = ResilienceConfig::default();

        let golden_path = temp_path("golden");
        let mut golden_sink = FileSink::create(&golden_path).expect("create golden");
        run_scenario_ckpt(
            &w, profile(), &scenario, strategy, &policy,
            Some(&mut golden_sink), None, 0, None,
        )
        .expect("golden run");
        golden_sink.finish().expect("finish golden");
        let golden_bytes = std::fs::read(&golden_path).expect("read golden");

        // First leg: checkpoint at every boundary, keep the last
        // (snapshot, writer-state) pair, then "crash" by dropping the
        // sink without finishing — exactly what SIGKILL leaves behind,
        // plus whatever buffered bytes never made it out.
        let chaos_path = temp_path("chaos");
        let mut last: Option<(Vec<u8>, Vec<u8>)> = None;
        {
            let mut sink = FileSink::create(&chaos_path).expect("create chaos");
            let mut hook = |s: &RunSnapshot, writer: Option<Vec<u8>>| {
                last = Some((s.encode(), writer.expect("FileSink checkpoints")));
            };
            run_scenario_ckpt(
                &w, profile(), &scenario, strategy, &policy,
                Some(&mut sink), None, every, Some(&mut hook),
            )
            .expect("first leg");
            drop(sink);
        }
        let (snap_bytes, writer_state) = last.expect("at least one boundary");
        let snap = RunSnapshot::decode(&snap_bytes).expect("snapshot decodes");

        // Second leg: reopen the torn stream at the checkpointed
        // offset and run the tail.
        let mut resumed_sink =
            FileSink::resume(&chaos_path, &writer_state).expect("resume sink");
        run_scenario_ckpt(
            &w, profile(), &scenario, strategy, &policy,
            Some(&mut resumed_sink), Some(&snap), 0, None,
        )
        .expect("second leg");
        resumed_sink.finish().expect("finish chaos");
        let chaos_bytes = std::fs::read(&chaos_path).expect("read chaos");

        prop_assert_eq!(golden_bytes, chaos_bytes, "trace bytes diverged after resume");
        let _ = std::fs::remove_file(&golden_path);
        let _ = std::fs::remove_file(&chaos_path);
    }
}

/// The fast-path interpreter's pre-decoded method forms, batched-run
/// metadata and per-handler charge plans are *derived* artifacts —
/// never serialized into a [`RunSnapshot`]. A resumed VM therefore
/// starts with those caches cold while a straight-through VM has them
/// warm. This must be invisible: a second invocation on a freshly
/// rebuilt (cold-cache) VM with imported machine state must leave the
/// machine bit-identical to the warm VM that ran both legs — under
/// both interpreter engines.
#[test]
fn cold_decode_cache_resume_is_bit_identical() {
    let w = Kernel::new();
    let args = vec![Value::Int(48)];

    for slow in [false, true] {
        // Warm: one VM runs both invocations, decode caches persist.
        let mut warm = Vm::client(&w.program);
        warm.options.slow_interp = slow;
        let w1 = warm.invoke(w.method, args.clone()).expect("warm leg 1");
        let w2 = warm.invoke(w.method, args.clone()).expect("warm leg 2");
        assert_eq!(w1, w2, "deterministic kernel (slow={slow})");

        // Cold: snapshot the machine after leg 1, rebuild the VM from
        // scratch (empty decode/run/cost caches), import, run leg 2.
        let mut first = Vm::client(&w.program);
        first.options.slow_interp = slow;
        let f1 = first.invoke(w.method, args.clone()).expect("first leg");
        assert_eq!(f1, w1, "first leg result (slow={slow})");
        let mid = first.machine.export_state();

        let mut cold = Vm::client(&w.program);
        cold.options.slow_interp = slow;
        cold.machine.import_state(&mid);
        cold.steps = first.steps;
        let c2 = cold.invoke(w.method, args.clone()).expect("cold leg 2");
        assert_eq!(c2, w2, "cold resume result (slow={slow})");
        assert_eq!(cold.steps, warm.steps, "step counts (slow={slow})");
        assert_eq!(
            cold.machine.export_state(),
            warm.machine.export_state(),
            "machine state after cold-cache resume (slow={slow})"
        );
        assert_eq!(
            cold.machine.energy().joules().to_bits(),
            warm.machine.energy().joules().to_bits(),
            "energy bits after cold-cache resume (slow={slow})"
        );
    }
}

/// Full-stack engine differential: an entire traced, checkpointed and
/// resumed scenario executed on the reference per-op interpreter
/// produces byte-identical `.jtb` trace streams and result encodings
/// to the pre-decoded fast path. (Scenario layers build their own
/// `VmOptions`, so the engine is selected through the process-wide
/// default — the same switch the benches' `--slow-interp` flag uses.)
#[test]
fn traced_scenario_engine_differential() {
    let w = Kernel::new();
    let strategy = Strategy::AdaptiveAdaptive;
    let scenario =
        Scenario::paper_degraded(Situation::Uniform, &w.sizes(), 1234, 0.35).with_runs(12);
    let policy = ResilienceConfig::default();

    let mut outputs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for slow in [false, true] {
        set_slow_interp_default(slow);
        let path = temp_path(if slow { "eng-slow" } else { "eng-fast" });
        let mut sink = FileSink::create(&path).expect("create sink");
        let res = run_scenario_ckpt(
            &w,
            profile(),
            &scenario,
            strategy,
            &policy,
            Some(&mut sink),
            None,
            0,
            None,
        )
        .expect("scenario run");
        sink.finish().expect("finish sink");
        let bytes = std::fs::read(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        outputs.push((encode_result(&res), bytes));
    }
    set_slow_interp_default(false);

    let (fast_res, fast_trace) = &outputs[0];
    let (slow_res, slow_trace) = &outputs[1];
    assert_eq!(
        fast_res, slow_res,
        "result encodings diverged between engines"
    );
    assert_eq!(
        fast_trace, slow_trace,
        "trace streams diverged between engines"
    );
}
