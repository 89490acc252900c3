//! Differential property tests: the pre-decoded fast-path interpreter
//! ([`jem_jvm::decode`]) is observationally identical to the reference
//! per-op interpreter ([`jem_jvm::interp`]) — same returned value or
//! error, same step count, same cycle count, and *bit-identical*
//! energy accounting (total, per-component breakdown, instruction mix,
//! and cache hit/miss counters).
//!
//! Four obligations are checked:
//!
//! 1. **Random verified programs** (proptest): the same DSL program
//!    generator as `prop_jit_equiv`, extended with float arithmetic
//!    and a static call so the fused-op, segment, conversion and
//!    invoke paths are all exercised.
//! 2. **Unverified rogue-return programs** (deterministic): hand-built
//!    bytecode whose callees' runtime return presence contradicts the
//!    static signature, so the caller's operand stack ends up deeper
//!    or shallower than its code expects. The fast path must follow
//!    the runtime stack as the reference does and match it exactly.
//! 3. **Step-budget cutoffs**: for every budget value across a run's
//!    full length, both engines stop at the same instruction with the
//!    same error and the same machine state — segment charging must
//!    never over- or under-charge at the boundary. The programs cover
//!    arithmetic, heap and field traffic, and errors raised inside a
//!    straight-line stretch after earlier heap accesses.
//! 4. **Pre-charged machines**: obligations 1 and 3 again with the
//!    client's Core accumulator already holding a realistic 1e6–1e10 nJ,
//!    where segment replays fold into one exact add per replay instead
//!    of starting from zero.

mod common;

use common::{fingerprint, precharge, Fingerprint};
use jem_jvm::class::{MethodAttrs, MethodSig, ProgramBuilder};
use jem_jvm::dsl::*;
use jem_jvm::verify::verify_program;
use jem_jvm::{MethodId, Op, Program, Type, Value, Vm, VmError};
use proptest::prelude::*;

/// Run `id(args)` on a fresh client VM with the chosen engine and
/// budget, returning the outcome plus the machine fingerprint.
fn run_engine(
    program: &Program,
    id: MethodId,
    args: &[Value],
    slow: bool,
    budget: u64,
) -> (Result<Option<Value>, VmError>, Fingerprint) {
    run_engine_from(program, id, args, slow, budget, 0.0)
}

/// [`run_engine`] on a client whose Core accumulator starts at
/// `core_nj`, restored through the checkpoint path.
fn run_engine_from(
    program: &Program,
    id: MethodId,
    args: &[Value],
    slow: bool,
    budget: u64,
    core_nj: f64,
) -> (Result<Option<Value>, VmError>, Fingerprint) {
    let mut vm = Vm::client(program);
    precharge(&mut vm, core_nj);
    vm.options.slow_interp = slow;
    vm.options.step_budget = budget;
    let got = vm.invoke(id, args.to_vec());
    let fp = fingerprint(&vm);
    (got, fp)
}

/// Assert both engines agree on result and machine state.
fn assert_engines_agree(program: &Program, id: MethodId, args: &[Value], budget: u64, ctx: &str) {
    let (slow_res, slow_fp) = run_engine(program, id, args, true, budget);
    let (fast_res, fast_fp) = run_engine(program, id, args, false, budget);
    assert_eq!(fast_res, slow_res, "result diverged: {ctx}");
    assert_eq!(fast_fp, slow_fp, "machine state diverged: {ctx}");
}

// ---------------------------------------------------------------
// 1. Random verified programs
// ---------------------------------------------------------------

/// Same expression AST as `prop_jit_equiv`, which together with the
/// module skeleton below covers loads/stores, all integer binops,
/// comparisons, branches, loops and array traffic.
#[derive(Debug, Clone)]
enum E {
    Const(i32),
    Var(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    // arr[e & 15]
    Load(Box<E>),
    // g(e) — static call to a helper method
    Call(Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(u8, E),
    Store(E, E), // arr[e1 & 15] = e2
    If(E, E, Vec<S>, Vec<S>),
    Loop(u8, Vec<S>), // bounded 0..k loop over a fresh counter
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![(-64i32..64).prop_map(E::Const), (0u8..3).prop_map(E::Var),];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Rem(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Shl(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Load(Box::new(a))),
            inner.clone().prop_map(|a| E::Call(Box::new(a))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let base = prop_oneof![
        ((0u8..3), expr_strategy()).prop_map(|(v, e)| S::Assign(v, e)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| S::Store(i, v)),
    ];
    base.prop_recursive(2, 16, 4, |inner| {
        let stmts = prop::collection::vec(inner, 1..4);
        prop_oneof![
            (
                expr_strategy(),
                expr_strategy(),
                stmts.clone(),
                stmts.clone()
            )
                .prop_map(|(a, b, t, e)| S::If(a, b, t, e)),
            ((1u8..4), stmts).prop_map(|(k, b)| S::Loop(k, b)),
        ]
    })
}

fn to_expr(e: &E) -> Expr {
    match e {
        E::Const(c) => iconst(*c),
        E::Var(v) => var(&format!("v{v}")),
        E::Add(a, b) => to_expr(a).add(to_expr(b)),
        E::Sub(a, b) => to_expr(a).sub(to_expr(b)),
        E::Mul(a, b) => to_expr(a).mul(to_expr(b)),
        E::Div(a, b) => to_expr(a).div(to_expr(b)),
        E::Rem(a, b) => to_expr(a).rem(to_expr(b)),
        E::Shl(a, b) => to_expr(a).shl(to_expr(b)),
        E::Xor(a, b) => to_expr(a).bitxor(to_expr(b)),
        E::Load(i) => var("arr").index(to_expr(i).bitand(iconst(15))),
        E::Call(a) => call("g", vec![to_expr(a)]),
    }
}

fn to_stmts(stmts: &[S], fresh: &mut u32) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            S::Assign(v, e) => assign(&format!("v{v}"), to_expr(e)),
            S::Store(i, v) => set_index(var("arr"), to_expr(i).bitand(iconst(15)), to_expr(v)),
            S::If(a, b, t, e) => {
                let mut f1 = *fresh;
                let body_t = to_stmts(t, &mut f1);
                let body_e = to_stmts(e, &mut f1);
                *fresh = f1;
                if_else(to_expr(a).lt(to_expr(b)), body_t, body_e)
            }
            S::Loop(k, b) => {
                let name = format!("i{fresh}");
                *fresh += 1;
                let body = to_stmts(b, fresh);
                for_(&name, iconst(0), iconst(i32::from(*k)), body)
            }
        })
        .collect()
}

fn build(stmts: &[S]) -> (Program, MethodId) {
    let mut m = ModuleBuilder::new();
    // A small helper so random expressions exercise the Call path.
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).bitxor(var("x").shr(iconst(2))))],
    );
    let mut fresh = 0;
    let mut body = vec![let_("arr", new_arr(DType::Int, iconst(16)))];
    // Seed the array deterministically from the parameters.
    body.push(for_(
        "s",
        iconst(0),
        iconst(16),
        vec![set_index(
            var("arr"),
            var("s"),
            var("v0").add(var("s").mul(iconst(7))),
        )],
    ));
    body.extend(to_stmts(stmts, &mut fresh));
    // A float tail so FArith / I2F / F2I and their fused forms run.
    body.push(let_(
        "fx",
        var("v1").to_f().div(fconst(3.5)).mul(fconst(1.25)),
    ));
    body.push(assign(
        "fx",
        var("fx").add(var("v2").to_f()).sub(fconst(0.125)).neg(),
    ));
    // Fold the state into one observable value.
    let mut acc = var("v0").bitxor(var("v1")).bitxor(var("fx").to_i());
    for i in 0..16 {
        let prev = acc.clone();
        acc = acc
            .mul(iconst(31))
            .add(var("arr").index(iconst(i)))
            .bitxor(prev.shr(iconst(7)));
    }
    body.push(ret(acc));
    m.func(
        "f",
        vec![("v0", DType::Int), ("v1", DType::Int), ("v2", DType::Int)],
        Some(DType::Int),
        body,
    );
    let p = m.compile().expect("generated programs compile");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    (p, id)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    #[test]
    fn fast_path_matches_reference(
        stmts in prop::collection::vec(stmt_strategy(), 1..5),
        a in -1000i32..1000,
        b in -1000i32..1000,
        c in -1000i32..1000,
    ) {
        let (program, id) = build(&stmts);
        verify_program(&program).expect("generated programs verify");
        let args = vec![Value::Int(a), Value::Int(b), Value::Int(c)];

        let (slow_res, slow_fp) = run_engine(&program, id, &args, true, 50_000_000);
        let (fast_res, fast_fp) = run_engine(&program, id, &args, false, 50_000_000);
        prop_assert_eq!(&fast_res, &slow_res, "result diverged (stmts: {:?})", stmts);
        prop_assert_eq!(&fast_fp, &slow_fp, "machine state diverged (stmts: {:?})", stmts);
    }
}

// ---------------------------------------------------------------
// 2. Unverified rogue-return programs (return-shape mismatches)
// ---------------------------------------------------------------

fn attrs() -> MethodAttrs {
    MethodAttrs {
        potential: false,
        local_only: false,
        size_param: None,
    }
}

/// A caller that interleaves straight-line stretches with a call to
/// `callee`, inside a loop so the same segments re-execute after a
/// mismatched return. Locals: 0 = loop counter, 1 = accumulator.
fn rogue_caller_body(callee: MethodId) -> Vec<Op> {
    let mut code = vec![
        Op::IConst(0),
        Op::Store(0),
        Op::IConst(1),
        Op::Store(1),
        // loop head (index 4)
        Op::Load(1),
        Op::IConst(7),
        Op::IArith(jem_jvm::IBin::Mul),
        Op::IConst(13),
        Op::IArith(jem_jvm::IBin::Add),
        Op::Call(callee),
    ];
    code.extend([
        Op::Store(1),
        // counter += 1, loop while counter < 6
        Op::Load(0),
        Op::IConst(1),
        Op::IArith(jem_jvm::IBin::Add),
        Op::Dup,
        Op::Store(0),
        Op::IConst(6),
        Op::ICmpBr(jem_jvm::Cond::Lt, 4),
        Op::Load(1),
        Op::RetVal,
    ]);
    code
}

/// Callee declares `-> int` but returns nothing: the caller's static
/// stack model expects a push that never happens.
#[test]
fn rogue_missing_return_matches_reference() {
    let mut b = ProgramBuilder::new();
    let c = b.add_class("App", None, &[]);
    let callee = b.add_static_method(
        c,
        "liar",
        MethodSig::new(vec![], Some(Type::Int)),
        0,
        vec![Op::Nop, Op::Ret],
        attrs(),
    );
    let main = b.add_static_method(
        c,
        "main",
        MethodSig::new(vec![], Some(Type::Int)),
        2,
        rogue_caller_body(callee),
        attrs(),
    );
    let p = b.finish();
    assert_engines_agree(&p, main, &[], u64::MAX, "missing-return taint");
}

/// Virtual dispatch where every override *declares* `-> int` (so the
/// signatures promise a push), but the subclass override returns
/// nothing at runtime. The promise is broken only when a `Sub`
/// receiver flows through the call site.
#[test]
fn rogue_virtual_missing_return_matches_reference() {
    let mut b = ProgramBuilder::new();
    let base = b.add_class("Base", None, &[]);
    let (_m_base, slot) = b.add_virtual_method(
        base,
        "poly",
        MethodSig::new(vec![], Some(Type::Int)),
        1,
        vec![Op::IConst(17), Op::RetVal],
        attrs(),
    );
    let sub = b.add_class("Sub", Some(base), &[]);
    let (_m_sub, slot2) = b.add_virtual_method(
        sub,
        "poly",
        MethodSig::new(vec![], Some(Type::Int)),
        1,
        // Declares a return it never produces.
        vec![Op::Ret],
        attrs(),
    );
    assert_eq!(slot, slot2, "override shares the vtable slot");
    // main(which): pick the receiver class, then loop over the call
    // site with a sentinel beneath the predicted return slot so the
    // honest (Base) and lying (Sub) receivers both execute cleanly.
    let main_code = vec![
        Op::IConst(0),
        Op::Store(1),
        Op::Load(0), // receiver selector: 0 → Base, else Sub
        Op::BrZ(jem_jvm::Cond::Eq, 7),
        Op::New(sub),
        Op::Store(2),
        Op::Goto(9),
        Op::New(base),
        Op::Store(2),
        // loop head (index 9): sentinel, then the virtual call
        Op::IConst(99),
        Op::Load(2),
        Op::CallVirt { slot, argc: 0 },
        // Pops the returned value (Base) or the sentinel (Sub).
        Op::Store(1),
        Op::Load(0),
        Op::IConst(1),
        Op::IArith(jem_jvm::IBin::Add),
        Op::Dup,
        Op::Store(0),
        Op::IConst(9),
        Op::ICmpBr(jem_jvm::Cond::Lt, 9),
        Op::Load(1),
        Op::RetVal,
    ];
    let main = b.add_static_method(
        base,
        "main",
        MethodSig::new(vec![Type::Int], Some(Type::Int)),
        3,
        main_code,
        attrs(),
    );
    let p = b.finish();
    for which in [0, 1] {
        assert_engines_agree(
            &p,
            main,
            &[Value::Int(which)],
            u64::MAX,
            &format!("virtual missing return, which={which}"),
        );
    }
}

/// Virtual dispatch with *inconsistent* override return behaviour:
/// one override returns a value, the other does not, so the call
/// site's stack effect depends on the receiver.
#[test]
fn rogue_inconsistent_virtual_matches_reference() {
    let mut b = ProgramBuilder::new();
    let base = b.add_class("Base", None, &[]);
    let (m_base, slot) = b.add_virtual_method(
        base,
        "poly",
        MethodSig::new(vec![], Some(Type::Int)),
        1,
        vec![Op::IConst(5), Op::RetVal],
        attrs(),
    );
    let sub = b.add_class("Sub", Some(base), &[]);
    let (_m_sub, slot2) = b.add_virtual_method(
        sub,
        "poly",
        MethodSig::new(vec![], Some(Type::Int)),
        1,
        // Lies about its own signature *and* disagrees with Base.
        vec![Op::Ret],
        attrs(),
    );
    assert_eq!(slot, slot2, "override shares the vtable slot");
    let _ = m_base;
    // main(which): news the chosen class, calls poly in a loop.
    let main_code = vec![
        Op::IConst(0),
        Op::Store(1),
        // loop head (index 2)
        Op::Load(0), // receiver selector: 0 → Base, else Sub
        Op::BrZ(jem_jvm::Cond::Eq, 8),
        Op::New(sub),
        Op::Store(2),
        Op::Goto(10),
        Op::Nop,
        Op::New(base),
        Op::Store(2),
        // call site (index 10)
        Op::Load(2),
        Op::CallVirt { slot, argc: 0 },
        Op::Nop,
        // accumulate loop counter arithmetic so runs exist
        Op::Load(1),
        Op::IConst(1),
        Op::IArith(jem_jvm::IBin::Add),
        Op::Dup,
        Op::Store(1),
        Op::IConst(4),
        Op::ICmpBr(jem_jvm::Cond::Lt, 2),
        Op::Load(1),
        Op::RetVal,
    ];
    let main = b.add_static_method(
        base,
        "main",
        MethodSig::new(vec![Type::Int], Some(Type::Int)),
        3,
        main_code,
        attrs(),
    );
    let p = b.finish();
    for which in [0, 1] {
        assert_engines_agree(
            &p,
            main,
            &[Value::Int(which)],
            u64::MAX,
            &format!("inconsistent virtual, which={which}"),
        );
    }
}

// ---------------------------------------------------------------
// 3. Step-budget cutoffs
// ---------------------------------------------------------------

/// Both engines must stop at exactly the same instruction, with the
/// same error and bit-identical machine state, for *every* budget
/// value from 0 to past the program's full length. The fast path takes
/// a segment whole only when the remaining budget covers it, so each
/// cutoff lands inside per-op execution.
#[test]
fn step_budget_cutoffs_match_reference() {
    assert_cutoffs_match_reference(0.0);
}

/// Both engines agree at every step budget on a client whose Core
/// accumulator starts at `core_nj`, for every [`cutoff_inputs`]
/// program.
fn assert_cutoffs_match_reference(core_nj: f64) {
    for input in cutoff_inputs() {
        let CutoffInput {
            name,
            program: p,
            id,
            args,
            fails_with,
        } = input;

        // Full length first, to know where "past the end" is.
        let (full_res, full_fp) = run_engine_from(&p, id, &args, true, u64::MAX, core_nj);
        match &fails_with {
            None => assert!(
                full_res.is_ok(),
                "{name}: reference run succeeds: {full_res:?}"
            ),
            Some(e) => assert_eq!(full_res, Err(e.clone()), "{name}: reference run fails"),
        }
        let total = full_fp.steps;
        assert!(
            total > 40,
            "{name}: program long enough to slice ({total} steps)"
        );

        for budget in 0..=total + 2 {
            let (slow_res, slow_fp) = run_engine_from(&p, id, &args, true, budget, core_nj);
            let (fast_res, fast_fp) = run_engine_from(&p, id, &args, false, budget, core_nj);
            assert_eq!(
                fast_res, slow_res,
                "{name}: result diverged at budget {budget}"
            );
            assert_eq!(
                fast_fp, slow_fp,
                "{name}: machine state diverged at budget {budget}"
            );
            if budget < total {
                assert_eq!(
                    slow_res,
                    Err(VmError::StepBudgetExceeded),
                    "{name}: budget {budget} should cut the run short"
                );
            }
        }
    }
}

/// A program the cutoff obligation runs at every step budget.
struct CutoffInput {
    name: &'static str,
    program: Program,
    id: MethodId,
    args: Vec<Value>,
    /// The error the full run ends with (`None`: it returns).
    fails_with: Option<VmError>,
}

/// The cutoff obligation's programs: arithmetic with calls and floats,
/// heap and field traffic, and one program per error raised inside a
/// straight-line stretch after earlier heap accesses.
fn cutoff_inputs() -> Vec<CutoffInput> {
    let mut inputs = vec![arith_program(), heap_program()];
    inputs.extend(failing_programs());
    inputs
}

/// Integer and float arithmetic around a static call in a loop.
fn arith_program() -> CutoffInput {
    let mut m = ModuleBuilder::new();
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).add(iconst(1)))],
    );
    m.func(
        "f",
        vec![("v0", DType::Int)],
        Some(DType::Int),
        vec![
            let_("acc", iconst(0)),
            let_("fx", fconst(0.0)),
            for_(
                "i",
                iconst(0),
                iconst(8),
                vec![
                    assign(
                        "acc",
                        var("acc")
                            .mul(iconst(31))
                            .add(call("g", vec![var("i").add(var("v0"))]))
                            .bitxor(var("i").shl(iconst(2))),
                    ),
                    assign("fx", var("fx").add(var("i").to_f().div(fconst(2.0)))),
                ],
            ),
            ret(var("acc").bitxor(var("fx").to_i())),
        ],
    );
    let p = m.compile().expect("compiles");
    verify_program(&p).expect("verifies");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    CutoffInput {
        name: "arith",
        program: p,
        id,
        args: vec![Value::Int(9)],
        fails_with: None,
    }
}

/// Array and field read-modify-writes, `ArrLen`, a static and a
/// virtual call, and a straight-line stretch of 18 array reads: more
/// heap accesses than one segment holds.
fn heap_program() -> CutoffInput {
    let mut m = ModuleBuilder::new();
    m.class("Cell", None, &[("v", DType::Int)]);
    m.virtual_method(
        "Cell",
        "bump",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![
            set_field(var("this"), "v", var("this").field("v").add(var("x"))),
            ret(var("this").field("v")),
        ],
    );
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).add(iconst(1)))],
    );
    let mut reads = var("acc");
    for k in 0..18 {
        reads = reads.add(var("a").index(iconst(k)));
    }
    m.func(
        "f",
        vec![("v0", DType::Int)],
        Some(DType::Int),
        vec![
            let_("a", new_arr(DType::Int, iconst(18))),
            let_("c", new_obj("Cell")),
            let_("acc", iconst(0)),
            for_(
                "i",
                iconst(0),
                iconst(3),
                vec![
                    set_index(
                        var("a"),
                        var("i"),
                        var("a")
                            .index(var("i"))
                            .add(call("g", vec![var("i").add(var("v0"))])),
                    ),
                    set_field(
                        var("c"),
                        "v",
                        var("c").field("v").bitxor(var("a").index(var("i"))),
                    ),
                    assign("acc", reads.clone().add(var("a").len())),
                    assign(
                        "acc",
                        var("acc").add(var("c").vcall("bump", vec![var("i")])),
                    ),
                ],
            ),
            ret(var("acc").bitxor(var("c").field("v"))),
        ],
    );
    let p = m.compile().expect("compiles");
    verify_program(&p).expect("verifies");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    CutoffInput {
        name: "heap",
        program: p,
        id,
        args: vec![Value::Int(5)],
        fails_with: None,
    }
}

/// One unverified program per error a straight-line stretch can raise
/// after earlier heap accesses. Each allocates an 8-element int array
/// (local 0) and a one-field object (local 1), then sums `reads`
/// element reads, a field read and the array length in one stretch
/// before the failing ops.
fn failing_programs() -> Vec<CutoffInput> {
    use jem_jvm::{Cond, IBin};
    let cases: [(&'static str, usize, Vec<Op>, VmError); 6] = [
        (
            "index past the end",
            12,
            vec![Op::Load(0), Op::IConst(9), Op::ALoad(Type::Int)],
            VmError::IndexOutOfBounds { index: 9, len: 8 },
        ),
        (
            "negative index",
            15,
            vec![
                Op::Load(0),
                Op::IConst(-1),
                Op::IConst(3),
                Op::AStore(Type::Int),
            ],
            VmError::IndexOutOfBounds {
                index: usize::MAX,
                len: 8,
            },
        ),
        (
            "null array",
            19,
            vec![Op::Load(3), Op::Load(2), Op::ALoad(Type::Int)],
            VmError::NullDeref,
        ),
        (
            "null object",
            8,
            vec![Op::Load(3), Op::GetField(0, Type::Int)],
            VmError::NullDeref,
        ),
        (
            "divide by zero",
            17,
            vec![Op::IConst(0), Op::IArith(IBin::Div)],
            VmError::DivByZero,
        ),
        (
            "negative array length",
            14,
            vec![Op::IConst(-3), Op::NewArr(Type::Int)],
            VmError::NegativeArrayLength(-3),
        ),
    ];
    cases
        .into_iter()
        .map(|(name, reads, fail, err)| {
            let mut b = ProgramBuilder::new();
            let c = b.add_class("Cell", None, &[("v", Type::Int)]);
            // Locals: 0 = array, 1 = object, 2 = index, 3 = null.
            let mut code = vec![
                Op::IConst(8),
                Op::NewArr(Type::Int),
                Op::Store(0),
                Op::New(c),
                Op::Store(1),
                Op::IConst(1),
                Op::Store(2),
                Op::NullConst,
                Op::Store(3),
                // A loop over one element store, so the stretch below
                // starts at a branch target's successor.
                Op::Load(0),
                Op::Load(2),
                Op::Load(2),
                Op::AStore(Type::Int),
                Op::Load(2),
                Op::IConst(1),
                Op::IArith(IBin::Add),
                Op::Store(2),
                Op::Load(2),
                Op::IConst(8),
                Op::ICmpBr(Cond::Lt, 9),
                // The stretch: a field read, the length, then reads.
                Op::IConst(5),
                Op::Store(2),
                Op::Load(1),
                Op::GetField(0, Type::Int),
                Op::Load(0),
                Op::ArrLen,
                Op::IArith(IBin::Add),
            ];
            for k in 0..reads {
                if k % 2 == 0 {
                    code.extend([Op::Load(0), Op::IConst(k as i32 % 8), Op::ALoad(Type::Int)]);
                } else {
                    code.extend([Op::Load(0), Op::Load(2), Op::ALoad(Type::Int)]);
                }
                code.push(Op::IArith(IBin::Add));
            }
            code.extend(fail);
            code.push(Op::RetVal);
            let main = b.add_static_method(
                c,
                "main",
                MethodSig::new(vec![], Some(Type::Int)),
                4,
                code,
                attrs(),
            );
            CutoffInput {
                name,
                program: b.finish(),
                id: main,
                args: vec![],
                fails_with: Some(err),
            }
        })
        .collect()
}

// ---------------------------------------------------------------
// 4. Pre-charged machines
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 10 })]

    /// Obligation 1 on a client that has already spent 1e6–1e10 nJ.
    #[test]
    fn fast_path_matches_reference_precharged(
        stmts in prop::collection::vec(stmt_strategy(), 1..5),
        a in -1000i32..1000,
        b in -1000i32..1000,
        c in -1000i32..1000,
        log_nj in 6.0f64..10.0,
    ) {
        let (program, id) = build(&stmts);
        verify_program(&program).expect("generated programs verify");
        let args = vec![Value::Int(a), Value::Int(b), Value::Int(c)];
        let core_nj = 10f64.powf(log_nj);

        let (slow_res, slow_fp) = run_engine_from(&program, id, &args, true, 50_000_000, core_nj);
        let (fast_res, fast_fp) = run_engine_from(&program, id, &args, false, 50_000_000, core_nj);
        prop_assert_eq!(&fast_res, &slow_res, "result diverged (stmts: {:?})", stmts);
        prop_assert_eq!(&fast_fp, &slow_fp, "machine state diverged at {} nJ (stmts: {:?})", core_nj, stmts);
    }
}

/// Obligation 3 at realistic magnitudes, and a few ulps below a power
/// of two so the accumulator changes binade part-way through the run.
#[test]
fn step_budget_cutoffs_match_reference_precharged() {
    let below = |k: i32, ulps: u64| f64::from_bits(2f64.powi(k).to_bits() - ulps);
    for core_nj in [1.0e6, 3.7e8, 9.99e9, below(23, 5), below(33, 40)] {
        assert_cutoffs_match_reference(core_nj);
    }
}
