//! The pre-decoded fast-path execution engine.
//!
//! [`crate::interp`] pays a real price for every executed bytecode:
//! it re-derives the handler address, rebuilds the dispatch and
//! per-op work [`InstrMix`](jem_energy::InstrMix)es, and walks all
//! instruction classes twice to charge them. None of that depends on
//! anything but the opcode, so this module performs a **one-time
//! translation** of a method's `Vec<Op>` into a flattened
//! [`DecodedMethod`] stream whose entries carry
//!
//! * pre-resolved operands (validated local slots, callee arity for
//!   static calls);
//! * **fused superinstructions** for the hot op sequences the energy
//!   flamegraphs show (`Load+Load+IArith`, `IConst+IArith`,
//!   `Load+Store`, compare-and-branch, `Load+Load+ALoad`);
//! * a **monomorphic inline cache** per virtual call site.
//!
//! # Segments
//!
//! The decoded stream is split into [`Segment`]s. A segment starts at
//! slot 0, at every branch target and after every segment end. It ends
//! after every call, allocation, branch, goto and return (its *tail*),
//! before a branch target, at the end of the code, and once it holds
//! `SEG_ADDRS` heap accesses. Its other ops are its *body*. Each
//! segment carries one merged [`SeqPlan`]: every handler dispatch it
//! makes, plus one heap micro per heap op (the element or field touch
//! at `handler_address + 4`), in reference order, built by
//! concatenating [`CostCache`]'s per-handler plans.
//!
//! The engine runs a segment's body semantics first, recording each
//! heap op's address; then charges the whole segment with one
//! [`Machine::step_seq`](jem_energy::Machine::step_seq) replay and one
//! step-budget bump; then runs its tail in the segment loop. A branch,
//! goto or return picks the next segment or the return value in line.
//! A call whose callee is bytecode (and not routed to the reference
//! interpreter by [`VmOptions::slow_interp`](crate::vm::VmOptions))
//! enters the callee's frame directly, filling its locals straight
//! from the top of the operand stack, after [`Vm::invoke`]'s checks
//! through the same `Vm::enter`; calls into native code go through
//! [`Vm::invoke`].
//!
//! # Bit-exactness
//!
//! This is the native executor's segment rule, and its exactness
//! argument (see [`crate::runplan`]) holds here unchanged, including
//! the two cold paths: a body op whose semantics fail, and a step
//! budget too small for the whole segment. The argument needs two
//! facts of the interpreter. No tail makes a D-cache access, so every
//! heap touch belongs to a body op and no tail address has to be
//! peeked. And allocation zeroing, the only `charge_mix` with
//! main-memory accesses, happens only in tails, so inside a segment
//! the only DRAM adds are the per-miss constant.
//! A fused superinstruction's components dispatch in reference order
//! before the combined semantics; its interior components (loads and
//! constants with decode-validated slots) are side-effect-free and
//! infallible. `crates/jvm/tests/fastpath_equiv.rs` enforces the
//! equivalence against the reference interpreter.
//!
//! # Caching
//!
//! Decoded code is a **derived artifact**: keyed by
//! [`MethodId`], rebuilt on demand, never serialized. Checkpoint
//! snapshots (`jem_core::ckpt`) therefore need no format change, and a
//! resumed run with a cold decode cache is bit-identical to the warm
//! uninterrupted run.

use crate::arith;
use crate::bytecode::{ClassId, Cond, FBin, IBin, MethodId, Op};
use crate::class::{Method, Program};
use crate::costs;
use crate::heap::Heap;
use crate::runplan::SEG_ADDRS;
use crate::value::{Type, Value};
use crate::vm::Vm;
use crate::VmError;
use jem_energy::{EnergyTable, InstrClass, SeqDataRef, SeqPlan};
use std::cell::Cell;

/// Number of distinct interpreter handlers (dense opcode indices).
pub const NUM_HANDLERS: usize = 43;

/// Plan indices (== [`costs`] opcode indices) for the handlers the
/// decoded engine references directly.
const P_ICONST: usize = 0;
const P_FCONST: usize = 1;
const P_NULLCONST: usize = 2;
const P_LOAD: usize = 3;
const P_STORE: usize = 4;
const P_POP: usize = 5;
const P_DUP: usize = 6;
const P_SWAP: usize = 7;
const P_IARITH: usize = 8; // + ibin index, 8..=17
const P_INEG: usize = 18;
const P_ICMP: usize = 19;
const P_FARITH: usize = 20;
const P_FNEG: usize = 24;
const P_FCMP: usize = 25;
const P_I2F: usize = 26;
const P_F2I: usize = 27;
const P_GOTO: usize = 28;
const P_ICMPBR: usize = 29;
const P_BRZ: usize = 30;
const P_NEWARR: usize = 31;
const P_ALOAD: usize = 32;
const P_ASTORE: usize = 33;
const P_ARRLEN: usize = 34;
const P_NEW: usize = 35;
const P_GETFIELD: usize = 36;
const P_PUTFIELD: usize = 37;
const P_CALL: usize = 38;
const P_CALLVIRT: usize = 39;
const P_RET: usize = 40;
const P_RETVAL: usize = 41;
const P_NOP: usize = 42;

/// The interpreter's fetch width, and the granule its plans group
/// fetches at: every handler fetch is word-aligned, and I-cache lines
/// are whole words.
const FETCH_BYTES: u32 = 4;

/// The heap handlers' element or field touches, as `(handler, writes)`:
/// the second fetch a heap handler issues, at `handler_address + 4`,
/// with one D-cache access. Indexed by [`touch_of`].
const TOUCHES: [(usize, bool); 5] = [
    (P_ALOAD, false),
    (P_ASTORE, true),
    (P_ARRLEN, false),
    (P_GETFIELD, false),
    (P_PUTFIELD, true),
];

/// The charge plans of every interpreter handler for one machine
/// energy table: each handler's dispatch — its fetch, the dispatch mix
/// and its per-op work mix of [`crate::costs`], the three charges the
/// reference interpreter recomputes on every executed bytecode — and
/// each heap handler's touch. Segment plans are concatenations of
/// these.
#[derive(Debug)]
pub struct CostCache {
    /// One dispatch plan per handler.
    plans: [SeqPlan; NUM_HANDLERS],
    /// One touch plan per [`TOUCHES`] entry.
    touches: [SeqPlan; TOUCHES.len()],
}

impl CostCache {
    /// Build the per-handler plans for `table`.
    pub fn new(table: &EnergyTable) -> Self {
        let rep = representative_ops();
        CostCache {
            plans: std::array::from_fn(|i| {
                debug_assert!(
                    costs::opcode_index(&rep[i]) as usize == i || matches!(rep[i], Op::FArith(_))
                );
                SeqPlan::dispatch(
                    table,
                    FETCH_BYTES,
                    costs::handler_address(&rep[i]),
                    InstrClass::Branch,
                    &[costs::dispatch_mix(), costs::op_work_mix(&rep[i])],
                )
            }),
            touches: TOUCHES.map(|(h, store)| {
                let class = if store {
                    InstrClass::Store
                } else {
                    InstrClass::Load
                };
                let heap = SeqDataRef::Heap { store };
                let pc = costs::handler_address(&rep[h]) + 4;
                SeqPlan::compile_at(table, FETCH_BYTES, &[(pc, class, heap)])
            }),
        }
    }
}

/// One op with each dense opcode index (indices 21–23 are unassigned
/// gaps in the handler layout and reuse the `FArith` shape, which owns
/// index 20 for all four float operators).
fn representative_ops() -> [Op; NUM_HANDLERS] {
    [
        Op::IConst(0),
        Op::FConst(0.0),
        Op::NullConst,
        Op::Load(0),
        Op::Store(0),
        Op::Pop,
        Op::Dup,
        Op::Swap,
        Op::IArith(IBin::Add),
        Op::IArith(IBin::Sub),
        Op::IArith(IBin::Mul),
        Op::IArith(IBin::Div),
        Op::IArith(IBin::Rem),
        Op::IArith(IBin::And),
        Op::IArith(IBin::Or),
        Op::IArith(IBin::Xor),
        Op::IArith(IBin::Shl),
        Op::IArith(IBin::Shr),
        Op::INeg,
        Op::ICmp,
        Op::FArith(FBin::Add),
        Op::FArith(FBin::Sub), // gap: same handler shape as 20
        Op::FArith(FBin::Mul), // gap
        Op::FArith(FBin::Div), // gap
        Op::FNeg,
        Op::FCmp,
        Op::I2F,
        Op::F2I,
        Op::Goto(0),
        Op::ICmpBr(Cond::Eq, 0),
        Op::BrZ(Cond::Eq, 0),
        Op::NewArr(Type::Int),
        Op::ALoad(Type::Int),
        Op::AStore(Type::Int),
        Op::ArrLen,
        Op::New(ClassId(0)),
        Op::GetField(0, Type::Int),
        Op::PutField(0),
        Op::Call(MethodId(0)),
        Op::CallVirt { slot: 0, argc: 0 },
        Op::Ret,
        Op::RetVal,
        Op::Nop,
    ]
}

/// Plan index for an integer-arithmetic handler.
#[inline]
const fn iarith_plan(b: IBin) -> usize {
    P_IARITH
        + match b {
            IBin::Add => 0,
            IBin::Sub => 1,
            IBin::Mul => 2,
            IBin::Div => 3,
            IBin::Rem => 4,
            IBin::And => 5,
            IBin::Or => 6,
            IBin::Xor => 7,
            IBin::Shl => 8,
            IBin::Shr => 9,
        }
}

/// Inline-cache cell of one virtual call site: `(receiver class,
/// resolved target)`. [`IC_EMPTY`] marks a cold site.
type InlineCache = Cell<(u32, MethodId)>;

const IC_EMPTY: (u32, MethodId) = (u32::MAX, MethodId(0));

/// One decoded instruction.
///
/// Plain variants mirror [`Op`] with operands pre-resolved; fused
/// variants execute a whole hot sequence in one dispatch. Local-slot
/// operands of plain `Load`/`Store` and of every fused variant are
/// validated against `nlocals` at decode time; out-of-range slots
/// decode to `BadLoad`/`BadStore`, which charge and then fail exactly
/// like the reference interpreter.
#[derive(Debug)]
pub enum DOp {
    /// Push an integer constant.
    IConst(i32),
    /// Push a float constant.
    FConst(f64),
    /// Push `null`.
    NullConst,
    /// Push local `n` (slot validated at decode time).
    Load(u16),
    /// Pop into local `n` (slot validated at decode time).
    Store(u16),
    /// `Load` with an out-of-range slot: charge, then `BadLocal`.
    BadLoad(u16),
    /// `Store` with an out-of-range slot: charge, pop, then `BadLocal`.
    BadStore(u16),
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Swap the two topmost values.
    Swap,
    /// Pop two ints, push the binary result.
    IArith(IBin),
    /// Negate the top int.
    INeg,
    /// Pop two ints, push the comparison result.
    ICmp,
    /// Pop two floats, push the binary result.
    FArith(FBin),
    /// Negate the top float.
    FNeg,
    /// Pop two floats, push the comparison result.
    FCmp,
    /// int → float.
    I2F,
    /// float → int.
    F2I,
    /// Unconditional jump.
    Goto(u32),
    /// Pop two ints, conditional jump.
    ICmpBr(Cond, u32),
    /// Pop one int, compare against zero, conditional jump.
    BrZ(Cond, u32),
    /// Pop length, allocate an array, push its reference.
    NewArr(Type),
    /// Pop index and array ref, push the element.
    ALoad,
    /// Pop value, index and array ref; store the element.
    AStore,
    /// Pop array ref, push its length.
    ArrLen,
    /// Allocate an instance, push its reference.
    New(ClassId),
    /// Pop object ref, push field `n`.
    GetField(u16),
    /// Pop value and object ref; store into field `n`.
    PutField(u16),
    /// Static call with the callee's arity pre-resolved.
    Call {
        /// Callee.
        target: MethodId,
        /// Pre-resolved argument count.
        nargs: u32,
    },
    /// Virtual call with a monomorphic inline cache.
    CallVirt {
        /// Vtable slot.
        slot: u16,
        /// Non-receiver argument count.
        argc: u8,
        /// `(class, target)` of the last dispatch from this site.
        ic: InlineCache,
    },
    /// Return with no value.
    Ret,
    /// Return the top of stack.
    RetVal,
    /// No-op.
    Nop,

    // ---- fused superinstructions ----
    /// `Load a; Load b; IArith op`.
    LoadLoadIArith(u16, u16, IBin),
    /// `Load a; IConst k; IArith op`.
    LoadIConstIArith(u16, i32, IBin),
    /// `Load b; IArith op` (left operand already on the stack).
    LoadIArith(u16, IBin),
    /// `IConst k; IArith op` (left operand already on the stack).
    IConstIArith(i32, IBin),
    /// `Load src; Store dst` (local-to-local move).
    LoadStore(u16, u16),
    /// `IConst k; Store dst` (constant into a local).
    IConstStore(i32, u16),
    /// `Load a; Load b; ICmpBr cond, t`.
    LoadLoadICmpBr(u16, u16, Cond, u32),
    /// `Load a; IConst k; ICmpBr cond, t`.
    LoadIConstICmpBr(u16, i32, Cond, u32),
    /// `Load arr; Load idx; ALoad` (array element read).
    LoadLoadALoad(u16, u16),
}

/// One decoded slot: the operation plus how many original bytecode
/// slots it spans (1 for plain ops, 2–3 for superinstructions).
#[derive(Debug)]
pub struct DecodedOp {
    /// The decoded operation.
    pub op: DOp,
    /// Original slots consumed (fall-through advance).
    pub len: u8,
}

/// A method translated for the fast path. Slots map 1:1 onto the
/// original bytecode indices, so branch targets need no relocation;
/// the interior slots of a fused sequence are kept in plain decoded
/// form but are unreachable (fusion never spans a branch target).
#[derive(Debug)]
pub struct DecodedMethod {
    /// Decoded code, index-compatible with the original `Vec<Op>`.
    pub ops: Vec<DecodedOp>,
    /// Local-variable slots.
    pub nlocals: u16,
}

/// Plain (unfused) decoding of one op.
fn decode_plain(op: &Op, nlocals: u16) -> DOp {
    match *op {
        Op::IConst(v) => DOp::IConst(v),
        Op::FConst(v) => DOp::FConst(v),
        Op::NullConst => DOp::NullConst,
        Op::Load(n) => {
            if n < nlocals {
                DOp::Load(n)
            } else {
                DOp::BadLoad(n)
            }
        }
        Op::Store(n) => {
            if n < nlocals {
                DOp::Store(n)
            } else {
                DOp::BadStore(n)
            }
        }
        Op::Pop => DOp::Pop,
        Op::Dup => DOp::Dup,
        Op::Swap => DOp::Swap,
        Op::IArith(b) => DOp::IArith(b),
        Op::INeg => DOp::INeg,
        Op::ICmp => DOp::ICmp,
        Op::FArith(b) => DOp::FArith(b),
        Op::FNeg => DOp::FNeg,
        Op::FCmp => DOp::FCmp,
        Op::I2F => DOp::I2F,
        Op::F2I => DOp::F2I,
        Op::Goto(t) => DOp::Goto(t),
        Op::ICmpBr(c, t) => DOp::ICmpBr(c, t),
        Op::BrZ(c, t) => DOp::BrZ(c, t),
        Op::NewArr(ty) => DOp::NewArr(ty),
        Op::ALoad(_) => DOp::ALoad,
        Op::AStore(_) => DOp::AStore,
        Op::ArrLen => DOp::ArrLen,
        Op::New(cid) => DOp::New(cid),
        Op::GetField(slot, _) => DOp::GetField(slot),
        Op::PutField(slot) => DOp::PutField(slot),
        Op::Call(mid) => DOp::Call {
            target: mid,
            // Arity resolved lazily by the engine on first execution
            // would cost a branch per call; resolving here needs the
            // program, which `decode_method` threads through.
            nargs: 0,
        },
        Op::CallVirt { slot, argc } => DOp::CallVirt {
            slot,
            argc,
            ic: Cell::new(IC_EMPTY),
        },
        Op::Ret => DOp::Ret,
        Op::RetVal => DOp::RetVal,
        Op::Nop => DOp::Nop,
    }
}

/// Translate `method` into its decoded fast-path form.
///
/// `callee_arity(mid)` pre-resolves static-call arities (the reference
/// interpreter re-reads them from the program on every call).
pub fn decode_method(method: &Method, callee_arity: &dyn Fn(MethodId) -> u32) -> DecodedMethod {
    let code = &method.code;
    let nlocals = method.nlocals;

    // Slots any branch can land on: fusion must not swallow them.
    let mut is_target = vec![false; code.len()];
    for op in code {
        if let Op::Goto(t) | Op::ICmpBr(_, t) | Op::BrZ(_, t) = *op {
            if let Some(flag) = is_target.get_mut(t as usize) {
                *flag = true;
            }
        }
    }

    let in_range = |n: u16| n < nlocals;
    let free = |i: usize| i < code.len() && !is_target[i];

    let mut ops = Vec::with_capacity(code.len());
    let mut i = 0usize;
    while i < code.len() {
        // Try the longest fusion first; every component local slot
        // must be statically in range so interior semantics cannot
        // fail or charge.
        let fused: Option<(DOp, u8)> = match code[i] {
            Op::Load(a) if in_range(a) && free(i + 1) => match code[i + 1] {
                Op::Load(b) if in_range(b) && free(i + 2) => match code[i + 2] {
                    Op::IArith(op) => Some((DOp::LoadLoadIArith(a, b, op), 3)),
                    Op::ICmpBr(c, t) => Some((DOp::LoadLoadICmpBr(a, b, c, t), 3)),
                    Op::ALoad(_) => Some((DOp::LoadLoadALoad(a, b), 3)),
                    _ => None,
                },
                Op::IConst(k) if free(i + 2) => match code[i + 2] {
                    Op::IArith(op) => Some((DOp::LoadIConstIArith(a, k, op), 3)),
                    Op::ICmpBr(c, t) => Some((DOp::LoadIConstICmpBr(a, k, c, t), 3)),
                    _ => None,
                },
                Op::IArith(op) => Some((DOp::LoadIArith(a, op), 2)),
                Op::Store(d) if in_range(d) => Some((DOp::LoadStore(a, d), 2)),
                _ => None,
            },
            Op::IConst(k) if free(i + 1) => match code[i + 1] {
                Op::IArith(op) => Some((DOp::IConstIArith(k, op), 2)),
                Op::Store(d) if in_range(d) => Some((DOp::IConstStore(k, d), 2)),
                _ => None,
            },
            _ => None,
        };

        match fused {
            Some((dop, len)) => {
                ops.push(DecodedOp { op: dop, len });
                // Interior slots: unreachable (not branch targets),
                // decoded plainly to keep 1:1 index mapping.
                for k in 1..len as usize {
                    ops.push(DecodedOp {
                        op: decode_plain(&code[i + k], nlocals),
                        len: 1,
                    });
                }
                i += len as usize;
            }
            None => {
                let mut dop = decode_plain(&code[i], nlocals);
                if let DOp::Call { target, nargs } = &mut dop {
                    *nargs = callee_arity(*target);
                }
                ops.push(DecodedOp { op: dop, len: 1 });
                i += 1;
            }
        }
    }

    DecodedMethod { ops, nlocals }
}

// ---------------------------------------------------------------------
// Segments

/// The branch target of a decoded op, if any.
fn branch_target(dop: &DOp) -> Option<u32> {
    match *dop {
        DOp::Goto(t)
        | DOp::ICmpBr(_, t)
        | DOp::BrZ(_, t)
        | DOp::LoadLoadICmpBr(_, _, _, t)
        | DOp::LoadIConstICmpBr(_, _, _, t) => Some(t),
        _ => None,
    }
}

/// Whether `dop` ends a segment as its tail: it calls, allocates,
/// branches or returns, so its semantics may touch the machine or
/// leave the segment.
fn is_tail(dop: &DOp) -> bool {
    branch_target(dop).is_some()
        || matches!(
            dop,
            DOp::NewArr(_)
                | DOp::New(_)
                | DOp::Call { .. }
                | DOp::CallVirt { .. }
                | DOp::Ret
                | DOp::RetVal
        )
}

/// The [`TOUCHES`] entry of `dop`'s heap touch, if it makes one.
fn touch_of(dop: &DOp) -> Option<usize> {
    match dop {
        DOp::ALoad | DOp::LoadLoadALoad(..) => Some(0),
        DOp::AStore => Some(1),
        DOp::ArrLen => Some(2),
        DOp::GetField(_) => Some(3),
        DOp::PutField(_) => Some(4),
        _ => None,
    }
}

/// The handler-plan indices one decoded op charges (1 for plain ops,
/// 2–3 for fused superinstructions), in reference order.
fn dop_plans(dop: &DOp, out: &mut Vec<usize>) {
    match *dop {
        DOp::IConst(_) => out.push(P_ICONST),
        DOp::FConst(_) => out.push(P_FCONST),
        DOp::NullConst => out.push(P_NULLCONST),
        DOp::Load(_) | DOp::BadLoad(_) => out.push(P_LOAD),
        DOp::Store(_) | DOp::BadStore(_) => out.push(P_STORE),
        DOp::Pop => out.push(P_POP),
        DOp::Dup => out.push(P_DUP),
        DOp::Swap => out.push(P_SWAP),
        DOp::IArith(b) => out.push(iarith_plan(b)),
        DOp::INeg => out.push(P_INEG),
        DOp::ICmp => out.push(P_ICMP),
        DOp::FArith(_) => out.push(P_FARITH),
        DOp::FNeg => out.push(P_FNEG),
        DOp::FCmp => out.push(P_FCMP),
        DOp::I2F => out.push(P_I2F),
        DOp::F2I => out.push(P_F2I),
        DOp::Goto(_) => out.push(P_GOTO),
        DOp::ICmpBr(..) => out.push(P_ICMPBR),
        DOp::BrZ(..) => out.push(P_BRZ),
        DOp::NewArr(_) => out.push(P_NEWARR),
        DOp::ALoad => out.push(P_ALOAD),
        DOp::AStore => out.push(P_ASTORE),
        DOp::ArrLen => out.push(P_ARRLEN),
        DOp::New(_) => out.push(P_NEW),
        DOp::GetField(_) => out.push(P_GETFIELD),
        DOp::PutField(_) => out.push(P_PUTFIELD),
        DOp::Call { .. } => out.push(P_CALL),
        DOp::CallVirt { .. } => out.push(P_CALLVIRT),
        DOp::Ret => out.push(P_RET),
        DOp::RetVal => out.push(P_RETVAL),
        DOp::Nop => out.push(P_NOP),
        DOp::LoadLoadIArith(_, _, b) => out.extend([P_LOAD, P_LOAD, iarith_plan(b)]),
        DOp::LoadIConstIArith(_, _, b) => out.extend([P_LOAD, P_ICONST, iarith_plan(b)]),
        DOp::LoadIArith(_, b) => out.extend([P_LOAD, iarith_plan(b)]),
        DOp::IConstIArith(_, b) => out.extend([P_ICONST, iarith_plan(b)]),
        DOp::LoadStore(_, _) => out.extend([P_LOAD, P_STORE]),
        DOp::IConstStore(_, _) => out.extend([P_ICONST, P_STORE]),
        DOp::LoadLoadICmpBr(..) => out.extend([P_LOAD, P_LOAD, P_ICMPBR]),
        DOp::LoadIConstICmpBr(..) => out.extend([P_LOAD, P_ICONST, P_ICMPBR]),
        DOp::LoadLoadALoad(_, _) => out.extend([P_LOAD, P_LOAD, P_ALOAD]),
    }
}

/// A stretch of decoded ops charged with one replay: the body ops
/// `start..body_end` never touch the machine, and when `tail` is set
/// the op at `body_end` is the segment's tail (see the module docs).
#[derive(Debug)]
pub struct Segment {
    /// First slot.
    start: u32,
    /// One past the last body op: the tail's slot, if any.
    body_end: u32,
    /// Whether a tail op ends the segment.
    tail: bool,
    /// For a branching tail, the segment its target starts; the
    /// segment count when the target lies past the code.
    jump: u32,
    /// Step-budget cost: one per original bytecode, what the reference
    /// bumps one dispatch at a time.
    steps: u64,
    /// Every dispatch and heap touch of the segment, in reference order.
    plan: SeqPlan,
}

/// Split `dm` into segments charged with `cc`'s plans.
///
/// Segments depend only on the decoded code and the plans; `_program`
/// and `_method` are accepted so the decode pipeline keeps one
/// signature for callers that time it.
pub fn compile_runs(
    _program: &Program,
    _method: MethodId,
    dm: &DecodedMethod,
    cc: &CostCache,
) -> Vec<Segment> {
    let n = dm.ops.len();
    let mut heads = Vec::new();
    let mut i = 0;
    while i < n {
        heads.push(i);
        i += dm.ops[i].len as usize;
    }
    let mut is_target = vec![false; n];
    for &i in &heads {
        let t = branch_target(&dm.ops[i].op);
        if let Some(flag) = t.and_then(|t| is_target.get_mut(t as usize)) {
            *flag = true;
        }
    }

    // The segment starting at each slot, to resolve branch targets.
    let mut seg_at = vec![0u32; n];
    let mut segs: Vec<Segment> = Vec::new();
    let mut plans: Vec<&SeqPlan> = Vec::new();
    let mut idxs: Vec<usize> = Vec::new();
    let (mut start, mut steps, mut nheap) = (0usize, 0u64, 0usize);
    for (k, &i) in heads.iter().enumerate() {
        let op = &dm.ops[i].op;
        idxs.clear();
        dop_plans(op, &mut idxs);
        plans.extend(idxs.iter().map(|&p| &cc.plans[p]));
        steps += idxs.len() as u64;
        if let Some(t) = touch_of(op) {
            plans.push(&cc.touches[t]);
            nheap += 1;
        }
        let next = heads.get(k + 1).copied().unwrap_or(n);
        let tail = is_tail(op);
        if tail || nheap == SEG_ADDRS || next == n || is_target[next] {
            seg_at[start] = segs.len() as u32;
            segs.push(Segment {
                start: start as u32,
                body_end: (if tail { i } else { next }) as u32,
                tail,
                jump: branch_target(op).unwrap_or(0),
                steps,
                plan: SeqPlan::concat(&plans),
            });
            plans.clear();
            (start, steps, nheap) = (next, 0, 0);
        }
    }
    // Resolve branch targets from slots to the segments they start.
    let nsegs = segs.len() as u32;
    for seg in &mut segs {
        let t = seg.jump as usize;
        seg.jump = if t < n { seg_at[t] } else { nsegs };
    }
    segs
}

/// A bytecode method ready for the fast path: its decoded ops and the
/// segments that charge them. A derived artifact — built on first use
/// for one machine energy table, never serialized.
#[derive(Debug)]
pub(crate) struct InterpCode {
    /// The decoded ops.
    pub(crate) dm: DecodedMethod,
    /// The segments covering `dm`, in slot order.
    pub(crate) segs: Vec<Segment>,
}

/// Execute `method` on the decoded fast path with the given arguments,
/// in a frame one call level below the caller ([`Vm::depth`] already
/// counts it).
///
/// Observationally identical to [`crate::interp::run`] — same results,
/// same energy/cycle/step accounting bit-for-bit, same errors.
///
/// # Errors
/// Any [`VmError`] raised by the executed code.
pub fn run(vm: &mut Vm<'_>, method: MethodId, args: Vec<Value>) -> Result<Option<Value>, VmError> {
    let cc = vm.cost_cache();
    let out = enter(vm, &cc, method, args.len(), |locals| {
        locals.copy_from_slice(&args);
    });
    vm.put_buf(args);
    out
}

/// The one frame entry: pooled locals whose first `nargs` slots `fill`
/// writes and a pooled operand stack, the argument copy charged, then
/// `method` run. Both buffers go back to the pool on every exit.
fn enter(
    vm: &mut Vm<'_>,
    cc: &CostCache,
    method: MethodId,
    nargs: usize,
    fill: impl FnOnce(&mut [Value]),
) -> Result<Option<Value>, VmError> {
    let code = vm.interp_code(method);
    let mut locals = vm.take_buf();
    let mut stack = vm.take_buf();
    locals.resize(code.dm.nlocals as usize, Value::Int(0));
    fill(&mut locals[..nargs]);
    vm.machine.charge_mix(&costs::arg_copy_mix(nargs));
    let frame = Frame { code: &code, cc };
    let out = frame.run(vm, &mut locals, &mut stack);
    vm.put_buf(locals);
    vm.put_buf(stack);
    out
}

/// Where control goes after a segment.
enum Ctl {
    /// On to this segment.
    Seg(usize),
    /// Method return.
    Ret(Option<Value>),
}

/// One interpreted invocation: its code and the plans its cold paths
/// charge one dispatch at a time.
struct Frame<'c> {
    code: &'c InterpCode,
    cc: &'c CostCache,
}

impl Frame<'_> {
    /// Run the invocation from slot 0, one segment at a time.
    fn run(
        &self,
        vm: &mut Vm<'_>,
        locals: &mut [Value],
        stack: &mut Vec<Value>,
    ) -> Result<Option<Value>, VmError> {
        let ops = &self.code.dm.ops;
        // Heap addresses of the current segment's touches, in order.
        let mut addrs = [None; SEG_ADDRS];
        let mut si = 0usize;
        loop {
            let seg = self.code.segs.get(si).ok_or(VmError::FellOffEnd)?;
            let pc = if vm.options.step_budget.saturating_sub(vm.steps) < seg.steps {
                self.step_each(vm, seg, locals, stack)?
            } else {
                // Body semantics first, recording heap addresses...
                let (mut pc, mut n) = (seg.start as usize, 0);
                while pc < seg.body_end as usize {
                    match plain(&mut vm.heap, locals, stack, &ops[pc].op) {
                        Ok(None) => {}
                        Ok(Some(a)) => {
                            addrs[n] = Some(a);
                            n += 1;
                        }
                        Err(e) => {
                            self.charge_failed(vm, seg, pc, &addrs[..n])?;
                            return Err(e);
                        }
                    }
                    pc += ops[pc].len as usize;
                }
                // ...then one replay for the whole segment.
                vm.machine.step_seq(&seg.plan, 0, 0, &addrs[..n]);
                vm.bump_steps(seg.steps)?;
                pc
            };
            si = if seg.tail {
                match self.tail(vm, &ops[pc].op, locals, stack, seg, si)? {
                    Ctl::Seg(s) => s,
                    Ctl::Ret(v) => return Ok(v),
                }
            } else {
                si + 1
            };
        }
    }

    /// The semantics of segment `seg`'s (the `si`th) tail `op`, once
    /// the segment is charged, and where control goes next. Branches
    /// and returns touch neither the heap nor the machine; calls and
    /// allocations fall through to the next segment.
    #[inline(always)]
    fn tail(
        &self,
        vm: &mut Vm<'_>,
        op: &DOp,
        locals: &[Value],
        stack: &mut Vec<Value>,
        seg: &Segment,
        si: usize,
    ) -> Result<Ctl, VmError> {
        macro_rules! pop {
            () => {
                stack.pop().ok_or(VmError::StackUnderflow)?
            };
        }
        let taken = match *op {
            DOp::Goto(_) => true,
            DOp::ICmpBr(cond, _) => {
                let b = pop!().as_int()?;
                let a = pop!().as_int()?;
                cond.eval(a, b)
            }
            DOp::BrZ(cond, _) => {
                let a = pop!().as_int()?;
                cond.eval(a, 0)
            }
            DOp::LoadLoadICmpBr(a, b, cond, _) => {
                let vb = locals[b as usize].as_int()?;
                let va = locals[a as usize].as_int()?;
                cond.eval(va, vb)
            }
            DOp::LoadIConstICmpBr(a, k, cond, _) => {
                let va = locals[a as usize].as_int()?;
                cond.eval(va, k)
            }
            DOp::Ret => return Ok(Ctl::Ret(None)),
            DOp::RetVal => return Ok(Ctl::Ret(Some(pop!()))),
            _ => {
                self.call_or_alloc(vm, op, stack)?;
                false
            }
        };
        Ok(Ctl::Seg(if taken { seg.jump as usize } else { si + 1 }))
    }

    /// The semantics of a calling or allocating tail. An allocation
    /// charges its zeroing. A call pops its arguments (the receiver
    /// first for a virtual call) and pushes the callee's return value,
    /// if it returns one.
    #[inline(never)]
    fn call_or_alloc(
        &self,
        vm: &mut Vm<'_>,
        op: &DOp,
        stack: &mut Vec<Value>,
    ) -> Result<(), VmError> {
        let (target, split) = match op {
            DOp::NewArr(ty) => {
                let len = stack.pop().ok_or(VmError::StackUnderflow)?.as_int()?;
                if len < 0 {
                    return Err(VmError::NegativeArrayLength(len));
                }
                let bytes = match ty {
                    Type::Float => 8,
                    _ => 4,
                } * len as u64;
                vm.machine.charge_mix(&costs::alloc_zero_mix(bytes));
                stack.push(Value::Ref(vm.heap.alloc_array(*ty, len as usize)));
                return Ok(());
            }
            DOp::New(cid) => {
                let class = vm.program.class(*cid);
                vm.machine
                    .charge_mix(&costs::alloc_zero_mix(8 * class.field_types.len() as u64));
                stack.push(Value::Ref(vm.heap.alloc_object(cid.0, &class.field_types)));
                return Ok(());
            }
            DOp::Call { target, nargs } => {
                let split = stack
                    .len()
                    .checked_sub(*nargs as usize)
                    .ok_or(VmError::StackUnderflow)?;
                (*target, split)
            }
            DOp::CallVirt { slot, argc, ic } => {
                let split = stack
                    .len()
                    .checked_sub(*argc as usize + 1)
                    .ok_or(VmError::StackUnderflow)?;
                let recv = stack[split].as_ref()?;
                let class = vm.heap.class_of(recv)?;
                let (cached_class, cached_target) = ic.get();
                let target = if cached_class == class {
                    cached_target
                } else {
                    let vtable = &vm.program.class(ClassId(class)).vtable;
                    let t = *vtable.get(*slot as usize).ok_or(VmError::BadVSlot(*slot))?;
                    ic.set((class, t));
                    t
                };
                (target, split)
            }
            _ => unreachable!("body ops run through `plain`"),
        };
        let args = &stack[split..];
        let ret = if vm.options.slow_interp || vm.is_native(target) {
            let mut argv = vm.take_buf();
            argv.extend_from_slice(args);
            vm.invoke(target, argv)
        } else {
            // A bytecode callee on this engine: its frame is filled
            // straight from the operand stack.
            vm.enter(target, args.len(), |vm| {
                enter(vm, self.cc, target, args.len(), |locals| {
                    locals.copy_from_slice(args);
                })
            })
        }?;
        stack.truncate(split);
        if let Some(v) = ret {
            stack.push(v);
        }
        Ok(())
    }

    /// Charge and run `seg` in reference order, one op at a time, up to
    /// its tail's semantics, which [`Frame::tail`] then runs: the step
    /// budget runs out inside it. Returns the tail's slot (the end of
    /// the body when there is no tail).
    #[cold]
    fn step_each(
        &self,
        vm: &mut Vm<'_>,
        seg: &Segment,
        locals: &mut [Value],
        stack: &mut Vec<Value>,
    ) -> Result<usize, VmError> {
        let ops = &self.code.dm.ops;
        let mut pc = seg.start as usize;
        while pc < seg.body_end as usize {
            let op = &ops[pc].op;
            self.dispatch(vm, op)?;
            if let Some(a) = plain(&mut vm.heap, locals, stack, op)? {
                self.touch(vm, op, a);
            }
            pc += ops[pc].len as usize;
        }
        if seg.tail {
            self.dispatch(vm, &ops[pc].op)?;
        }
        Ok(pc)
    }

    /// Charge `seg`'s ops up to and including the body op at `failed`
    /// one at a time, as the reference has when that op's semantics
    /// fail: the ops before it with their touches at their `recorded`
    /// heap addresses, `failed` with none.
    #[cold]
    fn charge_failed(
        &self,
        vm: &mut Vm<'_>,
        seg: &Segment,
        failed: usize,
        recorded: &[Option<u64>],
    ) -> Result<(), VmError> {
        let ops = &self.code.dm.ops;
        let mut recorded = recorded.iter().flatten();
        let mut pc = seg.start as usize;
        while pc < failed {
            let op = &ops[pc].op;
            self.dispatch(vm, op)?;
            if touch_of(op).is_some() {
                let a = *recorded.next().expect("one address per touch");
                self.touch(vm, op, a);
            }
            pc += ops[pc].len as usize;
        }
        self.dispatch(vm, &ops[failed].op)
    }

    /// Charge `op`'s handler dispatches the reference way, one plan and
    /// one budget bump each.
    fn dispatch(&self, vm: &mut Vm<'_>, op: &DOp) -> Result<(), VmError> {
        let mut idxs = Vec::with_capacity(3);
        dop_plans(op, &mut idxs);
        for p in idxs {
            vm.machine.step_seq(&self.cc.plans[p], 0, 0, &[]);
            vm.bump_steps(1)?;
        }
        Ok(())
    }

    /// Charge heap op `op`'s touch at `addr`.
    fn touch(&self, vm: &mut Vm<'_>, op: &DOp, addr: u64) {
        let t = touch_of(op).expect("heap ops touch the heap");
        vm.machine
            .step_seq(&self.cc.touches[t], 0, 0, &[Some(addr)]);
    }
}

/// The semantics of a body op: it touches the locals, the operand
/// stack and the heap, never the machine. Returns the address of its
/// heap touch, from the same object lookup as the access itself.
///
/// Always inlined: it runs once per body op in the segment loop.
#[inline(always)]
fn plain(
    heap: &mut Heap,
    locals: &mut [Value],
    stack: &mut Vec<Value>,
    op: &DOp,
) -> Result<Option<u64>, VmError> {
    macro_rules! pop {
        () => {
            stack.pop().ok_or(VmError::StackUnderflow)?
        };
    }
    // Index check shared by array loads and stores: a negative index
    // reports the array's length.
    macro_rules! index {
        ($arr:expr, $idx:expr) => {{
            if $idx < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: heap.array_len($arr)?,
                });
            }
            $idx as usize
        }};
    }

    match op {
        DOp::IConst(v) => stack.push(Value::Int(*v)),
        DOp::FConst(v) => stack.push(Value::Float(*v)),
        DOp::NullConst => stack.push(Value::Null),
        DOp::Load(n) => stack.push(locals[*n as usize]),
        DOp::Store(n) => {
            let v = pop!();
            locals[*n as usize] = v;
        }
        DOp::BadLoad(n) => return Err(VmError::BadLocal(*n)),
        DOp::BadStore(n) => {
            let _ = pop!();
            return Err(VmError::BadLocal(*n));
        }
        DOp::Pop => {
            let _ = pop!();
        }
        DOp::Dup => {
            let v = *stack.last().ok_or(VmError::StackUnderflow)?;
            stack.push(v);
        }
        DOp::Swap => {
            let a = pop!();
            let b = pop!();
            stack.push(a);
            stack.push(b);
        }
        DOp::IArith(opk) => {
            let b = pop!().as_int()?;
            let a = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, a, b)?));
        }
        DOp::INeg => {
            let a = pop!().as_int()?;
            stack.push(Value::Int(a.wrapping_neg()));
        }
        DOp::ICmp => {
            let b = pop!().as_int()?;
            let a = pop!().as_int()?;
            stack.push(Value::Int(arith::icmp(a, b)));
        }
        DOp::FArith(opk) => {
            let b = pop!().as_float()?;
            let a = pop!().as_float()?;
            stack.push(Value::Float(arith::fbin(*opk, a, b)));
        }
        DOp::FNeg => {
            let a = pop!().as_float()?;
            stack.push(Value::Float(-a));
        }
        DOp::FCmp => {
            let b = pop!().as_float()?;
            let a = pop!().as_float()?;
            stack.push(Value::Int(arith::fcmp(a, b)));
        }
        DOp::I2F => {
            let a = pop!().as_int()?;
            stack.push(Value::Float(f64::from(a)));
        }
        DOp::F2I => {
            let a = pop!().as_float()?;
            stack.push(Value::Int(arith::f2i(a)));
        }
        DOp::ALoad => {
            let idx = pop!().as_int()?;
            let arr = pop!().as_ref()?;
            let (v, addr) = heap.array_load(arr, index!(arr, idx))?;
            stack.push(v);
            return Ok(Some(addr));
        }
        DOp::AStore => {
            let val = pop!();
            let idx = pop!().as_int()?;
            let arr = pop!().as_ref()?;
            return heap.array_store(arr, index!(arr, idx), val).map(Some);
        }
        DOp::ArrLen => {
            let arr = pop!().as_ref()?;
            let len = heap.array_len(arr)?;
            stack.push(Value::Int(len as i32));
            return Ok(Some(heap.address_of(arr)));
        }
        DOp::GetField(slot) => {
            let obj = pop!().as_ref()?;
            stack.push(heap.field_get(obj, *slot as usize)?);
            return Ok(Some(heap.field_address(obj, *slot as usize)));
        }
        DOp::PutField(slot) => {
            let val = pop!();
            let obj = pop!().as_ref()?;
            heap.field_set(obj, *slot as usize, val)?;
            return Ok(Some(heap.field_address(obj, *slot as usize)));
        }
        DOp::Nop => {}

        // ---- fused superinstructions ----
        DOp::LoadLoadIArith(a, b, opk) => {
            let vb = locals[*b as usize].as_int()?;
            let va = locals[*a as usize].as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
        }
        DOp::LoadIConstIArith(a, k, opk) => {
            let va = locals[*a as usize].as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
        }
        DOp::LoadIArith(b, opk) => {
            let vb = locals[*b as usize].as_int()?;
            let va = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, vb)?));
        }
        DOp::IConstIArith(k, opk) => {
            let va = pop!().as_int()?;
            stack.push(Value::Int(arith::ibin(*opk, va, *k)?));
        }
        DOp::LoadStore(src, dst) => locals[*dst as usize] = locals[*src as usize],
        DOp::IConstStore(k, dst) => locals[*dst as usize] = Value::Int(*k),
        DOp::LoadLoadALoad(arr_l, idx_l) => {
            let idx = locals[*idx_l as usize].as_int()?;
            let arr = locals[*arr_l as usize].as_ref()?;
            let (v, addr) = heap.array_load(arr, index!(arr, idx))?;
            stack.push(v);
            return Ok(Some(addr));
        }

        DOp::Goto(_)
        | DOp::ICmpBr(..)
        | DOp::BrZ(..)
        | DOp::LoadLoadICmpBr(..)
        | DOp::LoadIConstICmpBr(..)
        | DOp::NewArr(_)
        | DOp::New(_)
        | DOp::Call { .. }
        | DOp::CallVirt { .. }
        | DOp::Ret
        | DOp::RetVal => unreachable!("tail ops run through `Frame::tail`"),
    }
    Ok(None)
}
