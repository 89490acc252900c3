//! Differential tests for the native executor ([`jem_jvm::exec`]): it
//! is observationally identical to a per-micro reference — same
//! returned value or error, same step count, and *bit-identical*
//! machine state (energy total and breakdown, instruction mix, cycles,
//! cache counters and residency).
//!
//! The reference below is the original native executor, written
//! against the public API: it walks the NIR of each installed
//! [`NativeCode`], resolves every heap address before the
//! instruction's semantics, charges each emitted micro with one
//! [`Machine::step`](jem_energy::Machine::step), bumps the step count
//! and only then runs the semantics. It recurses into native callees
//! itself and keeps its own step-budget, call-depth and arity checks.
//!
//! Three obligations are checked, at Local1, Local2 and Local3, with
//! every method of the program compiled, on the mobile client and on
//! the 750 MHz server (64 KB caches, a 40-cycle miss penalty) that runs
//! L3 code for remote invocations and calibration:
//!
//! 1. **Random programs** (proptest) with array loads and stores, an
//!    object field read-modify-write, static and virtual calls, enough
//!    long-lived values to spill, and inputs that divide by zero or
//!    index an array below zero or past its end. Fixed inputs pin the
//!    jumps a segment runs on through: an if-arm with heap accesses
//!    jumping into a join block that fails after more heap accesses,
//!    and a join block that opens with enough heap accesses to stop
//!    the arm's segment at the jump. A recursion through a static and
//!    a virtual call that spills at every level runs below and past
//!    the call-depth limit.
//! 2. **Step-budget cutoffs**: for every budget value across the full
//!    length of two fixed heap-and-call programs (one a loop nest with
//!    an if/else in the inner body), both executors stop at the same
//!    instruction with the same error and machine state. The executor
//!    runs every cutoff on one VM per level and machine, reset between
//!    runs, so the reset's cache flush must invalidate the residency
//!    memos its segment plans keep from the run before.
//! 3. **Pre-charged machines**: obligations 1 and 2 again with the
//!    machine's Core accumulator already holding 1e6–1e10 nJ, where
//!    batched charges fold into one exact add per replay.
//!
//! Of the random runs, about 45% return normally, 20% divide by zero
//! and 35% index out of bounds; they run 300–3,000 steps. Where the
//! reference runs without a step budget, the executor gets a few times
//! the reference's step count, so an executor fault that never leaves
//! a loop fails the test instead of hanging it.

mod common;

use common::{fingerprint, precharge, Fingerprint};
use jem_energy::{InstrClass, Machine, MachineConfig, MemOp};
use jem_jvm::arith;
use jem_jvm::costs::{self, NATIVE_INSTR_BYTES};
use jem_jvm::dsl::*;
use jem_jvm::emit::MicroMem;
use jem_jvm::nir::NInst;
use jem_jvm::verify::verify_program;
use jem_jvm::{
    compile, ClassId, MethodCode, MethodId, NativeCode, OptLevel, Program, Type, Value, Vm, VmError,
};
use proptest::prelude::*;
use std::rc::Rc;

// ---------------------------------------------------------------
// The per-micro reference executor
// ---------------------------------------------------------------

/// Each method's native code and the base address `install_native`
/// lays it out at, indexed by method id.
type Natives = [(Rc<NativeCode>, u64)];

/// Invoke `m` the reference way: arity and depth checks, then its
/// native code from `natives`. `depth` is the number of frames already
/// active.
fn ref_invoke(
    vm: &mut Vm,
    natives: &Natives,
    m: MethodId,
    args: Vec<Value>,
    depth: u32,
) -> Result<Option<Value>, VmError> {
    let method = vm.program.method(m);
    if args.len() != method.invoke_arity() {
        return Err(VmError::ArityMismatch {
            expected: method.invoke_arity(),
            got: args.len(),
        });
    }
    if depth >= vm.options.max_call_depth {
        return Err(VmError::CallDepthExceeded);
    }
    let (code, base) = &natives[m.0 as usize];
    ref_run(vm, natives, code, *base, args, depth + 1)
}

/// Run `code` (installed at `base`) in the frame at `depth`.
fn ref_run(
    vm: &mut Vm,
    natives: &Natives,
    code: &NativeCode,
    base: u64,
    args: Vec<Value>,
    depth: u32,
) -> Result<Option<Value>, VmError> {
    let func = &code.func;
    let mut regs = vec![Value::Int(0); func.nregs as usize];
    regs[..args.len()].copy_from_slice(&args);
    vm.machine.charge_mix(&costs::arg_copy_mix(args.len()));
    let frame_base = costs::FRAME_BASE + u64::from(depth) * 8192;
    let (mut block, mut ii) = (0usize, 0usize);
    loop {
        let inst = &func.blocks[block].insts[ii];

        // The heap address of the instruction's heap micro, resolved
        // before charging so the D-cache sees the true location.
        let heap = &vm.heap;
        let heap_addr = match inst {
            NInst::ALoadOp { arr, idx, .. } | NInst::AStoreOp { arr, idx, .. } => {
                match (regs[arr.0 as usize], regs[idx.0 as usize]) {
                    (Value::Ref(h), Value::Int(i)) if i >= 0 => {
                        Some(heap.element_address(h, i as usize))
                    }
                    _ => None,
                }
            }
            NInst::ArrLenOp { arr: r, .. } | NInst::CallVirtOp { recv: r, .. } => {
                match regs[r.0 as usize] {
                    Value::Ref(h) => Some(heap.address_of(h)),
                    _ => None,
                }
            }
            NInst::GetFieldOp { obj, slot, .. } | NInst::PutFieldOp { obj, slot, .. } => {
                match regs[obj.0 as usize] {
                    Value::Ref(h) => Some(heap.field_address(h, *slot as usize)),
                    _ => None,
                }
            }
            _ => None,
        };

        // Charge the emitted micros one at a time.
        let seq = &code.micros[block][ii];
        let mut pc = base + u64::from(code.offsets[block][ii]) * NATIVE_INSTR_BYTES;
        let mut spill_cursor = 0u64;
        for micro in seq {
            let addr = match micro.mem {
                MicroMem::None => None,
                MicroMem::Frame => {
                    spill_cursor += 1;
                    Some(frame_base + spill_cursor * 8)
                }
                MicroMem::Heap => heap_addr,
            };
            let mem = match addr {
                None => MemOp::None,
                Some(a) if micro.class == InstrClass::Store => MemOp::Write(a),
                Some(a) => MemOp::Read(a),
            };
            vm.machine.step(pc, micro.class, mem);
            pc += NATIVE_INSTR_BYTES;
        }
        vm.steps += seq.len().max(1) as u64;
        if vm.steps > vm.options.step_budget {
            return Err(VmError::StepBudgetExceeded);
        }

        // Then the semantics.
        let int = |r: &jem_jvm::nir::VReg| regs[r.0 as usize].as_int();
        let flt = |r: &jem_jvm::nir::VReg| regs[r.0 as usize].as_float();
        let mut next = None;
        let def = match inst {
            NInst::IConst { d, v } => Some((*d, Value::Int(*v))),
            NInst::FConst { d, v } => Some((*d, Value::Float(*v))),
            NInst::NullConst { d } => Some((*d, Value::Null)),
            NInst::Mov { d, s } => Some((*d, regs[s.0 as usize])),
            NInst::IBinOp { op, d, a, b } => {
                Some((*d, Value::Int(arith::ibin(*op, int(a)?, int(b)?)?)))
            }
            NInst::IShlImm { d, a, k } => {
                Some((*d, Value::Int(int(a)?.wrapping_shl(u32::from(*k)))))
            }
            NInst::INegOp { d, a } => Some((*d, Value::Int(int(a)?.wrapping_neg()))),
            NInst::ICmpOp { d, a, b } => Some((*d, Value::Int(arith::icmp(int(a)?, int(b)?)))),
            NInst::FBinOp { op, d, a, b } => {
                Some((*d, Value::Float(arith::fbin(*op, flt(a)?, flt(b)?))))
            }
            NInst::FNegOp { d, a } => Some((*d, Value::Float(-flt(a)?))),
            NInst::FCmpOp { d, a, b } => Some((*d, Value::Int(arith::fcmp(flt(a)?, flt(b)?)))),
            NInst::I2FOp { d, a } => Some((*d, Value::Float(f64::from(int(a)?)))),
            NInst::F2IOp { d, a } => Some((*d, Value::Int(arith::f2i(flt(a)?)))),
            NInst::NewArr { d, ty, len } => {
                let n = int(len)?;
                if n < 0 {
                    return Err(VmError::NegativeArrayLength(n));
                }
                let width = if *ty == Type::Float { 8 } else { 4 };
                vm.machine
                    .charge_mix(&costs::alloc_zero_mix(width * n as u64));
                Some((*d, Value::Ref(vm.heap.alloc_array(*ty, n as usize))))
            }
            NInst::NewObj { d, class } => {
                let c = vm.program.class(*class);
                vm.machine
                    .charge_mix(&costs::alloc_zero_mix(8 * c.field_types.len() as u64));
                Some((
                    *d,
                    Value::Ref(vm.heap.alloc_object(class.0, &c.field_types)),
                ))
            }
            NInst::ALoadOp { d, arr, idx, .. } => {
                let h = regs[arr.0 as usize].as_ref()?;
                let i = int(idx)?;
                if i < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        index: usize::MAX,
                        len: vm.heap.array_len(h)?,
                    });
                }
                Some((*d, vm.heap.array_get(h, i as usize)?))
            }
            NInst::AStoreOp { arr, idx, val, .. } => {
                let h = regs[arr.0 as usize].as_ref()?;
                let i = int(idx)?;
                if i < 0 {
                    return Err(VmError::IndexOutOfBounds {
                        index: usize::MAX,
                        len: vm.heap.array_len(h)?,
                    });
                }
                vm.heap.array_set(h, i as usize, regs[val.0 as usize])?;
                None
            }
            NInst::ArrLenOp { d, arr } => {
                let h = regs[arr.0 as usize].as_ref()?;
                Some((*d, Value::Int(vm.heap.array_len(h)? as i32)))
            }
            NInst::GetFieldOp { d, obj, slot, .. } => {
                let h = regs[obj.0 as usize].as_ref()?;
                Some((*d, vm.heap.field_get(h, *slot as usize)?))
            }
            NInst::PutFieldOp { obj, slot, val } => {
                let h = regs[obj.0 as usize].as_ref()?;
                vm.heap.field_set(h, *slot as usize, regs[val.0 as usize])?;
                None
            }
            NInst::CallOp { d, target, args } => {
                let argv = args.iter().map(|r| regs[r.0 as usize]).collect();
                let ret = ref_invoke(vm, natives, *target, argv, depth)?;
                d.zip(ret)
            }
            NInst::CallVirtOp {
                d,
                slot,
                recv,
                args,
            } => {
                let h = regs[recv.0 as usize].as_ref()?;
                let class = ClassId(vm.heap.class_of(h)?);
                let target = *vm
                    .program
                    .class(class)
                    .vtable
                    .get(*slot as usize)
                    .ok_or(VmError::BadVSlot(*slot))?;
                let mut argv = vec![Value::Ref(h)];
                argv.extend(args.iter().map(|r| regs[r.0 as usize]));
                let ret = ref_invoke(vm, natives, target, argv, depth)?;
                d.zip(ret)
            }
            NInst::Jmp { target } => {
                next = Some(*target);
                None
            }
            NInst::BrCond {
                cond,
                a,
                b,
                then_,
                else_,
            } => {
                next = Some(if cond.eval(int(a)?, int(b)?) {
                    *then_
                } else {
                    *else_
                });
                None
            }
            NInst::Ret { val } => return Ok(val.map(|v| regs[v.0 as usize])),
        };
        if let Some((d, v)) = def {
            regs[d.0 as usize] = v;
        }
        match next {
            Some(b) => (block, ii) = (b.0 as usize, 0),
            None => ii += 1,
        }
    }
}

// ---------------------------------------------------------------
// Running both executors
// ---------------------------------------------------------------

/// Every method of a program compiled at one level, with the base
/// address each is installed at, and the executor side: one VM on the
/// machine under test with every method installed, reset before each
/// run. Installing costs more than most cutoff runs, so it happens
/// once; the reset flushes both caches, which must also invalidate
/// the segment plans' residency memos from the previous run.
struct Compiled<'p> {
    program: &'p Program,
    config: MachineConfig,
    code: Vec<(Rc<NativeCode>, u64)>,
    vm: Vm<'p>,
}

impl<'p> Compiled<'p> {
    fn new(program: &'p Program, level: OptLevel, config: &MachineConfig) -> Self {
        let mut vm = Vm::new(program, Machine::new(config.clone()));
        let code = (0..program.methods.len() as u32)
            .map(|m| {
                let code = Rc::new(compile(program, MethodId(m), level).code);
                vm.install_native(MethodId(m), Rc::clone(&code));
                match vm.code_of(MethodId(m)) {
                    MethodCode::Native { base, .. } => (code, *base),
                    MethodCode::Bytecode => unreachable!("just installed"),
                }
            })
            .collect();
        Compiled {
            program,
            config: config.clone(),
            code,
            vm,
        }
    }

    /// A fresh VM on the machine under test.
    fn fresh_vm(&self) -> Vm<'p> {
        Vm::new(self.program, Machine::new(self.config.clone()))
    }

    /// Run `id(args)` with the Core accumulator at `core_nj` through
    /// the executor on the reset VM (`reference == false`), or through
    /// the reference on a fresh VM, which takes each method's code and
    /// base from `self` and leaves the VM's code table alone.
    fn run(
        &mut self,
        id: MethodId,
        args: &[Value],
        budget: u64,
        core_nj: f64,
        reference: bool,
    ) -> (Result<Option<Value>, VmError>, Fingerprint) {
        let mut fresh;
        let vm = if reference {
            fresh = self.fresh_vm();
            &mut fresh
        } else {
            self.vm.reset_run();
            &mut self.vm
        };
        prepare(vm, budget, core_nj);
        let got = if reference {
            ref_invoke(vm, &self.code, id, args.to_vec(), 0)
        } else {
            vm.invoke(id, args.to_vec())
        };
        (got, fingerprint(vm))
    }

    /// The executor's run of `id(args)` on a fresh VM with every
    /// method installed, which [`Compiled::run`] on the reset VM must
    /// reproduce.
    fn fresh_run(
        &self,
        id: MethodId,
        args: &[Value],
        budget: u64,
        core_nj: f64,
    ) -> (Result<Option<Value>, VmError>, Fingerprint) {
        let mut vm = self.fresh_vm();
        for (m, (code, _)) in self.code.iter().enumerate() {
            vm.install_native(MethodId(m as u32), Rc::clone(code));
        }
        prepare(&mut vm, budget, core_nj);
        let got = vm.invoke(id, args.to_vec());
        (got, fingerprint(&vm))
    }

    /// The machine under test, for messages.
    fn name(&self) -> String {
        format!("{} MHz", self.config.clock_hz / 1e6)
    }
}

/// Set `vm`'s step budget and start its Core accumulator at `core_nj`.
/// A fresh or reset machine already holds zero; restoring a state there
/// too would start new cache instances and hide whether the reset's
/// flush invalidated the plans' residency memos.
fn prepare(vm: &mut Vm, budget: u64, core_nj: f64) {
    if core_nj != 0.0 {
        precharge(vm, core_nj);
    }
    vm.options.step_budget = budget;
}

/// The machines native code runs on: the mobile client, and the
/// server that runs offloaded calls and calibrations.
fn machines() -> [MachineConfig; 2] {
    [
        MachineConfig::mobile_client(),
        MachineConfig::sparc_server(),
    ]
}

/// Assert both executors agree on result and machine state, and
/// return the result and the step count.
///
/// An unbounded `budget` (`u64::MAX`) is the reference's alone: the
/// executor gets [`bounded`] of the reference's step count, so an
/// executor that never leaves a loop fails instead of hanging.
fn assert_agree(
    c: &mut Compiled,
    id: MethodId,
    args: &[Value],
    budget: u64,
    core_nj: f64,
    ctx: &str,
) -> (Result<Option<Value>, VmError>, u64) {
    let (want, want_fp) = c.run(id, args, budget, core_nj, true);
    let budget = if budget == u64::MAX {
        bounded(want_fp.steps)
    } else {
        budget
    };
    let (got, got_fp) = c.run(id, args, budget, core_nj, false);
    assert_eq!(got, want, "result diverged: {ctx}");
    assert_eq!(got_fp, want_fp, "machine state diverged: {ctx}");
    (want, want_fp.steps)
}

/// A step budget for the executor on a run the reference finished in
/// `steps`: a few times that count, which a correct executor never
/// reaches, and a failing one reaches within seconds.
fn bounded(steps: u64) -> u64 {
    steps.saturating_mul(4).saturating_add(1_000)
}

// ---------------------------------------------------------------
// 1. Random programs
// ---------------------------------------------------------------

/// Locals `v0..v2` are the int parameters, `w0..w2` long-lived locals
/// (see [`build`]); `arr` is a 16-element int array and `acc`/`acc2`
/// objects of an `Acc` class and its `Acc2` subclass.
#[derive(Debug, Clone)]
enum E {
    Const(i32),
    /// `v0..v2`, `w0..w2`.
    Var(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    /// `arr[e & 15]`
    Load(Box<E>),
    /// `arr[v_k]`, unmasked: parameters reach below 0 and past 15.
    LoadAt(u8),
    /// `arr.length`
    Len,
    /// `acc.total`
    Field,
    /// `g(e)`, a static call.
    Call(Box<E>),
    /// `acc.mix(e)` or `acc2.mix(e)`, a virtual call.
    VCall(bool, Box<E>),
}

#[derive(Debug, Clone)]
enum S {
    Assign(u8, E),
    /// `arr[e1 & 15] = e2`
    Store(E, E),
    /// `arr[v_k] = e`, unmasked.
    StoreAt(u8, E),
    /// `acc.total = acc.total + e`
    Bump(E),
    If(E, E, Vec<S>, Vec<S>),
    /// A bounded `0..k` loop over a fresh counter.
    Loop(u8, Vec<S>),
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (-64i32..64).prop_map(E::Const),
        (0u8..6).prop_map(E::Var),
        (0u8..3).prop_map(E::LoadAt),
        Just(E::Len),
        Just(E::Field),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        let bin = (inner.clone(), inner.clone());
        prop_oneof![
            bin.clone()
                .prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            bin.clone()
                .prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            bin.clone()
                .prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            bin.clone()
                .prop_map(|(a, b)| E::Div(Box::new(a), Box::new(b))),
            bin.clone()
                .prop_map(|(a, b)| E::Rem(Box::new(a), Box::new(b))),
            bin.prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| E::Load(Box::new(a))),
            inner.clone().prop_map(|a| E::Call(Box::new(a))),
            (any::<bool>(), inner).prop_map(|(sub, a)| E::VCall(sub, Box::new(a))),
        ]
    })
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let base = prop_oneof![
        ((0u8..6), expr_strategy()).prop_map(|(v, e)| S::Assign(v, e)),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| S::Store(i, v)),
        ((0u8..3), expr_strategy()).prop_map(|(k, v)| S::StoreAt(k, v)),
        expr_strategy().prop_map(S::Bump),
    ];
    base.prop_recursive(2, 12, 3, |inner| {
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

/// The local named by [`E::Var`] / [`S::Assign`] index `v`.
fn local(v: u8) -> String {
    if v < 3 {
        format!("v{v}")
    } else {
        format!("w{}", v - 3)
    }
}

fn to_expr(e: &E) -> Expr {
    match e {
        E::Const(c) => iconst(*c),
        E::Var(v) => var(&local(*v)),
        E::Add(a, b) => to_expr(a).add(to_expr(b)),
        E::Sub(a, b) => to_expr(a).sub(to_expr(b)),
        E::Mul(a, b) => to_expr(a).mul(to_expr(b)),
        E::Div(a, b) => to_expr(a).div(to_expr(b)),
        E::Rem(a, b) => to_expr(a).rem(to_expr(b)),
        E::Xor(a, b) => to_expr(a).bitxor(to_expr(b)),
        E::Load(i) => var("arr").index(to_expr(i).bitand(iconst(15))),
        E::LoadAt(k) => var("arr").index(var(&local(*k))),
        E::Len => var("arr").len(),
        E::Field => var("acc").field("total"),
        E::Call(a) => call("g", vec![to_expr(a)]),
        E::VCall(sub, a) => var(if *sub { "acc2" } else { "acc" }).vcall("mix", vec![to_expr(a)]),
    }
}

fn to_stmts(stmts: &[S], fresh: &mut u32) -> Vec<Stmt> {
    stmts
        .iter()
        .map(|s| match s {
            S::Assign(v, e) => assign(&local(*v), to_expr(e)),
            S::Store(i, v) => set_index(var("arr"), to_expr(i).bitand(iconst(15)), to_expr(v)),
            S::StoreAt(k, v) => set_index(var("arr"), var(&local(*k)), to_expr(v)),
            S::Bump(e) => set_field(
                var("acc"),
                "total",
                var("acc").field("total").add(to_expr(e)),
            ),
            S::If(a, b, t, e) => {
                let body_t = to_stmts(t, fresh);
                let body_e = to_stmts(e, fresh);
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

/// Number of long-lived locals folded into the result: more than the
/// register file holds, so some of them spill.
const LIVE: i32 = 20;

/// The program: helpers `g`, `Acc.mix`, `Acc2.mix` and
/// `f(v0, v1, v2)`, which runs `stmts` between setting up its heap
/// and long-lived locals and folding them all into the result.
fn build(stmts: &[S]) -> (Program, MethodId) {
    let mut m = ModuleBuilder::new();
    m.class(
        "Acc",
        None,
        &[("total", DType::Int), ("scale", DType::Float)],
    );
    m.class("Acc2", Some("Acc"), &[]);
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).bitxor(var("x").shr(iconst(2))))],
    );
    for (class, k) in [("Acc", 5), ("Acc2", -7)] {
        m.virtual_method(
            class,
            "mix",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![
                set_field(
                    var("this"),
                    "total",
                    var("this").field("total").bitxor(var("x")).add(iconst(k)),
                ),
                set_field(
                    var("this"),
                    "scale",
                    var("this")
                        .field("scale")
                        .add(var("x").to_f().div(fconst(4.0))),
                ),
                ret(var("this").field("total").mul(iconst(3))),
            ],
        );
    }
    let mut body = vec![
        let_("arr", new_arr(DType::Int, iconst(16))),
        let_("acc", new_obj("Acc")),
        let_("acc2", new_obj("Acc2")),
        for_(
            "s",
            iconst(0),
            iconst(16),
            vec![set_index(
                var("arr"),
                var("s"),
                var("v0").add(var("s").mul(iconst(7))),
            )],
        ),
    ];
    for i in 0..LIVE {
        body.push(let_(
            &format!("w{i}"),
            var("v1")
                .mul(iconst(i + 2))
                .bitxor(var("v2").add(iconst(i))),
        ));
    }
    body.extend(to_stmts(stmts, &mut 0));
    // A float tail: conversions and float arithmetic, some spilled.
    body.push(let_(
        "fx",
        var("v1")
            .to_f()
            .div(fconst(3.5))
            .add(var("acc2").field("scale")),
    ));
    let mut acc = var("fx")
        .mul(fconst(1.25))
        .to_i()
        .bitxor(var("acc").field("total"));
    for i in 0..LIVE {
        acc = acc.mul(iconst(31)).add(var(&format!("w{i}")));
    }
    for i in 0..16 {
        acc = acc.bitxor(var("arr").index(iconst(i)).shl(iconst(i % 5)));
    }
    body.push(ret(acc));
    m.func(
        "f",
        vec![("v0", DType::Int), ("v1", DType::Int), ("v2", DType::Int)],
        Some(DType::Int),
        body,
    );
    let p = m.compile().expect("generated programs compile");
    verify_program(&p).expect("generated programs verify");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    (p, id)
}

/// A parameter: mostly a valid index, sometimes zero, negative or past
/// the array's end.
fn param() -> impl Strategy<Value = i32> {
    -2i32..18
}

/// Obligation 1 for one program and its arguments: every level and
/// machine, on a fresh machine and on one whose Core accumulator
/// starts at `core_nj`.
fn assert_program_agrees(stmts: &[S], args: [i32; 3], core_nj: f64) {
    let (program, id) = build(stmts);
    let args = args.map(Value::Int);
    for level in OptLevel::ALL {
        for config in machines() {
            let mut compiled = Compiled::new(&program, level, &config);
            for core_nj in [0.0, core_nj] {
                let ctx = format!(
                    "{level}, {}, core {core_nj:e} nJ, args {args:?}, stmts {stmts:?}",
                    compiled.name()
                );
                let _ = assert_agree(&mut compiled, id, &args, 5_000_000, core_nj, &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Every random program at every level on both machines, on a
    /// fresh machine and on one whose Core accumulator starts at
    /// `10^e` nJ.
    #[test]
    fn executor_matches_reference(
        stmts in prop::collection::vec(stmt_strategy(), 1..5),
        a in param(),
        b in param(),
        c in param(),
        e in 6.0f64..10.0,
    ) {
        assert_program_agrees(&stmts, [a, b, c], 10f64.powf(e));
    }
}

fn bx(e: E) -> Box<E> {
    Box::new(e)
}

/// Obligation 1's fixed inputs for the jumps a segment runs on
/// through, with both arms of each if/else taken.
///
/// The first program's arms touch the heap and jump into a join block
/// that loads, divides by `v2` and then indexes `arr[v2]`, so the
/// failure path charges across the arm's jump: `v2 = 0` divides by
/// zero, `16` indexes past the end and `-1` below zero. A loop after
/// them ends the join block early, so arm and join fit in one segment.
///
/// In the second, the join block is the function's fold, which opens
/// with more than 16 heap accesses: the arm that stores stops at its
/// jump, the arm without heap accesses runs on into the join.
#[test]
fn jump_traces_match_reference() {
    let fail_in_join = [
        S::If(
            E::Var(0),
            E::Var(1),
            vec![S::Store(E::Var(3), E::Load(bx(E::Var(4))))],
            vec![S::Bump(E::Len)],
        ),
        S::Assign(
            5,
            E::Add(
                bx(E::Load(bx(E::Var(5)))),
                bx(E::Div(bx(E::Var(1)), bx(E::Var(2)))),
            ),
        ),
        S::Assign(4, E::Add(bx(E::Field), bx(E::LoadAt(2)))),
        S::Loop(1, vec![S::Assign(3, E::Const(1))]),
    ];
    for (v0, v1) in [(1, 5), (5, 1)] {
        for v2 in [3, 0, 16, -1] {
            assert_program_agrees(&fail_in_join, [v0, v1, v2], 2.5e9);
        }
    }
    let heavy_join = [S::If(
        E::Var(0),
        E::Var(1),
        vec![S::Store(E::Var(3), E::Load(bx(E::Var(4))))],
        vec![S::Assign(0, E::Const(1))],
    )];
    for (v0, v1) in [(1, 5), (5, 1)] {
        assert_program_agrees(&heavy_join, [v0, v1, 7], 3.7e7);
    }
}

/// The generator reaches every outcome the obligation names: normal
/// returns, division by zero, and both kinds of bad index.
#[test]
fn random_programs_cover_errors() {
    let stmts = [
        S::Assign(0, E::Div(Box::new(E::Var(1)), Box::new(E::Var(2)))),
        S::StoreAt(2, E::VCall(true, Box::new(E::Call(Box::new(E::Field))))),
        S::Bump(E::LoadAt(1)),
    ];
    let (program, id) = build(&stmts);
    for level in OptLevel::ALL {
        for config in machines() {
            let mut compiled = Compiled::new(&program, level, &config);
            let mut outcome = |a, b, c| {
                let args = [Value::Int(a), Value::Int(b), Value::Int(c)];
                let ctx = format!("{level}, {}", compiled.name());
                assert_agree(&mut compiled, id, &args, u64::MAX, 0.0, &ctx).0
            };
            assert!(matches!(outcome(1, 5, 3), Ok(Some(_))));
            assert_eq!(outcome(1, 5, 0), Err(VmError::DivByZero));
            assert_eq!(
                outcome(1, 5, -1),
                Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: 16
                })
            );
            assert_eq!(
                outcome(1, 5, 16),
                Err(VmError::IndexOutOfBounds { index: 16, len: 16 })
            );
        }
    }
}

/// A recursion that alternates a static call `rec(n, x, node)` and a
/// virtual call `node.down(n - 1, x')` until `n` reaches 0, holding
/// [`LIVE`] values across each call so every level spills into its
/// own frame. `f(n, x)` starts it at depth 1, so it needs `2n + 1`
/// frames, or `n + 1` where Local3 inlines one of the two calls.
fn recursion() -> (Program, MethodId) {
    let mut m = ModuleBuilder::new();
    m.class("Node", None, &[("hits", DType::Int)]);
    let mut body: Vec<Stmt> = (0..LIVE)
        .map(|i| {
            let_(
                &format!("w{i}"),
                var("x").mul(iconst(i + 3)).bitxor(var("n").add(iconst(i))),
            )
        })
        .collect();
    body.push(if_(var("n").le(iconst(0)), vec![ret(var("x"))]));
    let mut acc = var("node").vcall(
        "down",
        vec![var("n").sub(iconst(1)), var("x").bitxor(var("w0"))],
    );
    for i in 0..LIVE {
        acc = acc.mul(iconst(31)).add(var(&format!("w{i}")));
    }
    body.push(ret(acc));
    m.func(
        "rec",
        vec![
            ("n", DType::Int),
            ("x", DType::Int),
            ("node", DType::obj("Node")),
        ],
        Some(DType::Int),
        body,
    );
    m.virtual_method(
        "Node",
        "down",
        vec![("n", DType::Int), ("x", DType::Int)],
        Some(DType::Int),
        vec![
            set_field(
                var("this"),
                "hits",
                var("this").field("hits").add(iconst(1)),
            ),
            ret(call(
                "rec",
                vec![
                    var("n"),
                    var("x").add(var("this").field("hits")),
                    var("this"),
                ],
            )),
        ],
    );
    m.func(
        "f",
        vec![("n", DType::Int), ("x", DType::Int)],
        Some(DType::Int),
        vec![ret(call("rec", vec![var("n"), var("x"), new_obj("Node")]))],
    );
    let p = m.compile().expect("the recursion compiles");
    verify_program(&p).expect("the recursion verifies");
    let id = p.find_method(MODULE_CLASS, "f").expect("f exists");
    (p, id)
}

/// The recursion at every level on both machines, fresh and
/// pre-charged: 31 to 61 frames return, and 151 or more run into the
/// 128-frame call-depth limit, where the call past it fails before its
/// argument copy is charged. Each frame's spills must land at its own
/// depth's frame address.
#[test]
fn recursion_past_the_depth_limit_matches_reference() {
    let (program, id) = recursion();
    for level in OptLevel::ALL {
        for config in machines() {
            let mut compiled = Compiled::new(&program, level, &config);
            for (n, core_nj) in [(30, 0.0), (150, 0.0), (30, 3.7e7), (150, 2.5e9)] {
                let ctx = format!("{level}, {}, n {n}, core {core_nj:e} nJ", compiled.name());
                let args = [Value::Int(n), Value::Int(7)];
                let (res, _) = assert_agree(&mut compiled, id, &args, u64::MAX, core_nj, &ctx);
                if n < 64 {
                    assert!(res.is_ok(), "{ctx}: returns: {res:?}");
                } else {
                    assert_eq!(res, Err(VmError::CallDepthExceeded), "{ctx}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------
// 2. Step-budget cutoffs
// ---------------------------------------------------------------

/// At every budget from 0 to past the full run of `stmts(args)`, on
/// every level and machine, both executors stop at the same
/// instruction with the same error and machine state.
///
/// The executor reuses one VM per level and machine, so first its run
/// after a reset must equal a fresh VM's. After each cut run, a call
/// of the leaf `g` on the reset VM must match the reference too: the
/// cut run may end with no fill after `g`'s last walk, so `g`'s plan
/// remembers the cache's current epoch, and only the reset's flush
/// keeps the call from crediting hits to an empty cache.
fn assert_cutoffs_agree(stmts: &[S], args: [i32; 3], core_nj: f64) {
    let (program, id) = build(stmts);
    let g = program.find_method(MODULE_CLASS, "g").expect("g exists");
    let args = args.map(Value::Int);
    for level in OptLevel::ALL {
        for config in machines() {
            let mut compiled = Compiled::new(&program, level, &config);
            let name = compiled.name();
            let (full, total) =
                assert_agree(&mut compiled, id, &args, u64::MAX, core_nj, "full run");
            assert!(
                full.is_ok(),
                "{level}, {name}: the full run succeeds: {full:?}"
            );
            assert!(total > 200, "{level}: long enough to slice ({total} steps)");
            assert_eq!(
                compiled.run(id, &args, bounded(total), core_nj, false),
                compiled.fresh_run(id, &args, bounded(total), core_nj),
                "{level}, {name}: a reset VM runs as a fresh one"
            );
            for budget in 0..=total + 2 {
                let ctx = format!("{level}, {name}, core {core_nj:e} nJ, budget {budget}");
                let (res, _) = assert_agree(&mut compiled, id, &args, budget, core_nj, &ctx);
                if budget < total {
                    assert_eq!(res, Err(VmError::StepBudgetExceeded), "{ctx}");
                }
                let ctx = format!("{ctx}, then g");
                let _ = assert_agree(&mut compiled, g, &[Value::Int(7)], u64::MAX, core_nj, &ctx);
            }
        }
    }
}

/// A loop around heap accesses and static and virtual calls.
fn call_loop() -> Vec<S> {
    vec![
        S::Loop(
            3,
            vec![
                S::Store(
                    E::Var(3),
                    E::Add(bx(E::Load(bx(E::Var(4)))), bx(E::Call(bx(E::Var(0))))),
                ),
                S::Bump(E::VCall(false, bx(E::Len))),
                S::Assign(3, E::Rem(bx(E::VCall(true, bx(E::Field))), bx(E::Const(7)))),
            ],
        ),
        S::Assign(1, E::LoadAt(2)),
    ]
}

/// A loop nested in a loop, with an if/else in the inner body whose
/// arms touch the heap and jump to a join block that calls `g`. At
/// arguments `(3, 9, 11)` the first inner iteration takes the else arm
/// and the rest the then arm.
fn loop_nest() -> Vec<S> {
    vec![S::Loop(
        2,
        vec![S::Loop(
            2,
            vec![
                S::If(
                    E::Var(3),
                    E::Var(4),
                    vec![S::Store(E::Var(3), E::Load(bx(E::Var(5))))],
                    vec![S::Bump(E::Load(bx(E::Var(3))))],
                ),
                S::Assign(3, E::Rem(bx(E::Call(bx(E::Var(3)))), bx(E::Const(7)))),
            ],
        )],
    )]
}

#[test]
fn step_budget_cutoffs_match_reference() {
    for stmts in [call_loop(), loop_nest()] {
        assert_cutoffs_agree(&stmts, [3, 9, 11], 0.0);
    }
}

// ---------------------------------------------------------------
// 3. Pre-charged machines
// ---------------------------------------------------------------

/// Obligation 2 with the Core accumulator already at 1e6–1e10 nJ
/// (obligation 1 runs every case pre-charged too).
#[test]
fn step_budget_cutoffs_match_reference_on_precharged_machines() {
    for core_nj in [1.0e6, 3.7e7, 2.5e9, 9.9e9] {
        for stmts in [call_loop(), loop_nest()] {
            assert_cutoffs_agree(&stmts, [3, 9, 11], core_nj);
        }
    }
}
