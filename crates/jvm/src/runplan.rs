//! Pre-decoded execution form and segment charge planning for the
//! native executor.
//!
//! Installing native code compiles a [`NativeCode`] object into an
//! [`XCode`]: the executable plan [`crate::exec`] actually runs. It
//! contains three cooperating artifacts, all derived (never
//! serialized):
//!
//! 1. **Pre-decoded ops** ([`XOp`]) — NIR instructions as small
//!    fixed-size ops with every field pre-resolved: register numbers
//!    narrowed to `u16`, binary operators split into per-op variants
//!    (no inner operator match at run time), call argument lists
//!    pooled into one flat side table, and each virtual call's
//!    inline-cache slot index precomputed.
//! 2. **Segments** ([`Segment`]) — stretches of instructions charged
//!    with one merged [`SeqPlan`] each. Every block is cut into
//!    *pieces* that end after every call, allocation or control
//!    transfer. A segment starts at every piece and, while its last op
//!    is a `Jmp`, runs on into the first piece of the jump's target
//!    block, so a loop body, its jump back and the header's test are
//!    one segment. It stops at a block it already holds, or where the
//!    target's piece would push its heap accesses past `SEG_ADDRS`.
//!    The instructions a segment charges are its *flat ops*, one per
//!    *flat position*, each known by its origin in the [`NativeCode`].
//! 3. **Streams** — the ops the executor runs for each segment, built
//!    from its flat ops by a copy-forwarding pass (below). A stream
//!    keeps the flat order and always ends with the segment's last
//!    flat op; each stream op records its flat position.
//!
//! # Why deferred segment charging is bit-exact
//!
//! The reference execution model interleaves accounting and semantics
//! per instruction: resolve the instruction's heap address, charge its
//! emitted micro sequence, then run its semantics, then the next
//! instruction. The executor instead runs the semantics of a
//! segment's instructions except the last (its *body*) first,
//! recording each heap access's address where the reference computes
//! it; then charges the whole segment with one
//! [`Machine::step_seq`](jem_energy::Machine::step_seq) replay; then
//! runs the last instruction (its *tail*). That is unobservable:
//!
//! * No body instruction touches the machine from its semantics:
//!   allocations charge a zeroing mix and calls recurse into the VM,
//!   and both end segments, so they are always tails. Conversely the
//!   machine feeds no semantics, so running them before their charges
//!   changes nothing either side sees.
//! * A heap address depends only on the registers before its
//!   instruction and on the handle's fixed layout (allocations, which
//!   create layouts, are tails), so the address recorded while running
//!   the body is the one the reference resolves before charging.
//! * The I-cache and D-cache are separate simulators; each still sees
//!   its own accesses in reference order. The DRAM accumulator adds
//!   the same constant once per miss, the Core additions fold exactly
//!   in order, and cycles and the instruction mix are integers, so
//!   moving one simulator's accesses ahead of the other's changes no
//!   bit ([`Machine::step_seq`](jem_energy::Machine::step_seq) relies
//!   on the same argument inside one instruction).
//! * A `Jmp` inside a segment touches neither the heap nor the
//!   machine. The reference charges its micros and then runs the
//!   target's instructions, and the merged plan replays exactly that
//!   order. When the target's first fetch lands in the line the `Jmp`
//!   was fetched from, it is a guaranteed hit, as for any two
//!   consecutive fetches in one line.
//! * If a body instruction's semantics fail, the executor charges the
//!   instructions up to and including it one at a time and returns the
//!   error: exactly the prefix the reference charged.
//! * The executor takes a segment whole only when the remaining step
//!   budget covers all of it; otherwise it runs the segment one
//!   instruction at a time in reference order.
//!
//! Any split point is exact, so a segment is also closed early when its
//! heap accesses would overflow the executor's address buffer
//! (`SEG_ADDRS`). Because the body never touches the I-cache, the
//! merged plan's consecutive fetches stay back-to-back, which is what
//! [`SeqPlan`] line grouping relies on.
//!
//! # Why the stream computes what the flat ops do
//!
//! Charges come only from flat positions (the plan, the step count and
//! the cold paths' per-instruction steps), so the stream changes no
//! charge; it must only leave the same heap, return value, first error
//! and heap addresses. Its pass walks the flat ops in order:
//!
//! * A followed `Jmp` is dropped: it does nothing.
//! * Each operand is read through the copy table: after `Mov d ← s`,
//!   reading `d` reads `s` instead while neither has been written
//!   again (a version per register), so the operand holds the same
//!   value.
//! * A `Mov` whose destination already holds its source's value is
//!   dropped.
//! * `X → t; Mov v ← t`, with `X` the stream's previous op and `t`
//!   dead after the copy by the flat ops' liveness, becomes `X → v`:
//!   `v` gets the same value, nothing reads `v` in between, and no
//!   later op reads `t` before writing it, so none can be forwarded to
//!   it either.
//! * A backward walk over the stream, from the registers live after
//!   the tail ([`NFunc::liveness`](crate::nir::NFunc::liveness)),
//!   deletes each body `Mov` whose destination is dead.
//!
//! Nothing is reordered, and only `Jmp`s and `Mov`s are dropped: neither
//! can fail or touch the heap or the machine. Every heap op, call,
//! allocation and fallible op stays in order with operands of the same
//! values, so the heap effects, the recorded addresses and the first
//! error are the reference's. A register is left stale only where it is
//! dead: every register live after the tail holds the reference's value
//! there, so the next segment starts from the reference's state. A
//! frame whose op fails, or whose step budget runs out, is discarded
//! with its registers. The cold paths charge every flat position
//! through its origin and run the stream op at it, if there is one,
//! taking heap addresses from the stream op.

use crate::bytecode::{Cond, FBin, IBin};
use crate::costs::NATIVE_INSTR_BYTES;
use crate::emit::{Micro, MicroMem, NativeCode};
use crate::nir::{NInst, VReg};
use crate::value::Type;
use jem_energy::{InstrClass, MachineConfig, SeqDataRef, SeqPlan};
use std::ops::Range;

/// Capacity of the executor's per-segment heap-address buffer: a
/// segment holds at most this many heap micros.
pub(crate) const SEG_ADDRS: usize = 16;

/// Sentinel register number meaning "absent" (void call destination,
/// void return). Valid registers are `< NONE` — enforced at decode.
pub const NONE: u16 = u16::MAX;

/// One pre-decoded executable instruction, every field pre-resolved;
/// semantics are identical to the corresponding [`NInst`] as executed
/// by the reference path. 24 bytes: [`XOp::CallVirt`]'s 16 bytes of
/// fields plus the tag, padded to [`XOp::FConst`]'s 8-byte alignment.
#[derive(Debug, Clone, Copy)]
pub enum XOp {
    /// `r[d] = v`
    IConst {
        /// Destination.
        d: u16,
        /// Immediate.
        v: i32,
    },
    /// `r[d] = v` (float)
    FConst {
        /// Destination.
        d: u16,
        /// Immediate.
        v: f64,
    },
    /// `r[d] = null`
    NullConst {
        /// Destination.
        d: u16,
    },
    /// `r[d] = r[s]`
    Mov {
        /// Destination.
        d: u16,
        /// Source.
        s: u16,
    },
    /// `r[d] = r[a] + r[b]` (wrapping)
    IAdd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] - r[b]` (wrapping)
    ISub {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] * r[b]` (wrapping)
    IMul {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] / r[b]` (traps on zero)
    IDiv {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] % r[b]` (traps on zero)
    IRem {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] & r[b]`
    IAnd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] | r[b]`
    IOr {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] ^ r[b]`
    IXor {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] << (r[b] & 31)`
    IShl {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] >> (r[b] & 31)` (arithmetic)
    IShr {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] << k`
    IShlImm {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
        /// Shift amount.
        k: u8,
    },
    /// `r[d] = -r[a]` (wrapping)
    INeg {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = sign(r[a] - r[b])`
    ICmp {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] + r[b]` (float)
    FAdd {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] - r[b]` (float)
    FSub {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] * r[b]` (float)
    FMul {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = r[a] / r[b]` (float, IEEE — no trap)
    FDiv {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = -r[a]` (float)
    FNeg {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = sign(r[a] - r[b])` (float, NaN → -1)
    FCmp {
        /// Destination.
        d: u16,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
    },
    /// `r[d] = (float) r[a]`
    I2F {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = (int) r[a]` (truncating, saturating)
    F2I {
        /// Destination.
        d: u16,
        /// Operand.
        a: u16,
    },
    /// `r[d] = new ty[r[len]]`
    NewArr {
        /// Destination.
        d: u16,
        /// Element type.
        ty: Type,
        /// Length register.
        len: u16,
    },
    /// `r[d] = new class()`
    NewObj {
        /// Destination.
        d: u16,
        /// Class id.
        class: u32,
    },
    /// `r[d] = r[arr][r[idx]]`
    ALoad {
        /// Destination.
        d: u16,
        /// Array register.
        arr: u16,
        /// Index register.
        idx: u16,
    },
    /// `r[arr][r[idx]] = r[val]`
    AStore {
        /// Array register.
        arr: u16,
        /// Index register.
        idx: u16,
        /// Value register.
        val: u16,
    },
    /// `r[d] = r[arr].length`
    ArrLen {
        /// Destination.
        d: u16,
        /// Array register.
        arr: u16,
    },
    /// `r[d] = r[obj].field[slot]`
    GetField {
        /// Destination.
        d: u16,
        /// Object register.
        obj: u16,
        /// Field slot.
        slot: u16,
    },
    /// `r[obj].field[slot] = r[val]`
    PutField {
        /// Object register.
        obj: u16,
        /// Field slot.
        slot: u16,
        /// Value register.
        val: u16,
    },
    /// Static call; argument registers at
    /// `args_pool[argi..argi + argc]`.
    Call {
        /// Destination, or [`NONE`] for void.
        d: u16,
        /// Argument count.
        argc: u16,
        /// Callee method id.
        target: u32,
        /// Start index into [`XCode::args_pool`].
        argi: u32,
    },
    /// Virtual call; argument registers (receiver excluded) at
    /// `args_pool[argi..argi + argc]`.
    CallVirt {
        /// Destination, or [`NONE`] for void.
        d: u16,
        /// Vtable slot.
        slot: u16,
        /// Receiver register.
        recv: u16,
        /// Argument count.
        argc: u16,
        /// Precomputed inline-cache slot (the call's emitted
        /// instruction offset).
        ic: u32,
        /// Start index into [`XCode::args_pool`].
        argi: u32,
    },
    /// Unconditional jump.
    Jmp {
        /// Target block.
        t: u32,
    },
    /// Conditional branch on an integer compare.
    Br {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: u16,
        /// Right operand.
        b: u16,
        /// Taken target.
        t: u32,
        /// Fall-through target.
        e: u32,
    },
    /// Return `r[v]` ([`NONE`] for void).
    Ret {
        /// Returned register or [`NONE`].
        v: u16,
    },
}

const _: () = assert!(std::mem::size_of::<XOp>() == 24);

impl XOp {
    /// Whether the op's emitted code accesses the heap (one heap micro,
    /// see [`crate::emit`]).
    pub(crate) fn touches_heap(&self) -> bool {
        matches!(
            self,
            XOp::ALoad { .. }
                | XOp::AStore { .. }
                | XOp::ArrLen { .. }
                | XOp::GetField { .. }
                | XOp::PutField { .. }
                | XOp::CallVirt { .. }
        )
    }

    /// Whether the op ends a segment: it allocates, calls or transfers
    /// control, so its semantics may touch the machine or leave the
    /// block.
    pub(crate) fn ends_segment(&self) -> bool {
        matches!(
            self,
            XOp::NewArr { .. }
                | XOp::NewObj { .. }
                | XOp::Call { .. }
                | XOp::CallVirt { .. }
                | XOp::Jmp { .. }
                | XOp::Br { .. }
                | XOp::Ret { .. }
        )
    }

    /// The register the op writes, if any.
    fn def_mut(&mut self) -> Option<&mut u16> {
        match self {
            XOp::IConst { d, .. }
            | XOp::FConst { d, .. }
            | XOp::NullConst { d }
            | XOp::Mov { d, .. }
            | XOp::IAdd { d, .. }
            | XOp::ISub { d, .. }
            | XOp::IMul { d, .. }
            | XOp::IDiv { d, .. }
            | XOp::IRem { d, .. }
            | XOp::IAnd { d, .. }
            | XOp::IOr { d, .. }
            | XOp::IXor { d, .. }
            | XOp::IShl { d, .. }
            | XOp::IShr { d, .. }
            | XOp::IShlImm { d, .. }
            | XOp::INeg { d, .. }
            | XOp::ICmp { d, .. }
            | XOp::FAdd { d, .. }
            | XOp::FSub { d, .. }
            | XOp::FMul { d, .. }
            | XOp::FDiv { d, .. }
            | XOp::FNeg { d, .. }
            | XOp::FCmp { d, .. }
            | XOp::I2F { d, .. }
            | XOp::F2I { d, .. }
            | XOp::NewArr { d, .. }
            | XOp::NewObj { d, .. }
            | XOp::ALoad { d, .. }
            | XOp::ArrLen { d, .. }
            | XOp::GetField { d, .. } => Some(d),
            XOp::Call { d, .. } | XOp::CallVirt { d, .. } => (*d != NONE).then_some(d),
            XOp::AStore { .. }
            | XOp::PutField { .. }
            | XOp::Jmp { .. }
            | XOp::Br { .. }
            | XOp::Ret { .. } => None,
        }
    }

    /// The register the op writes, if any.
    fn def(mut self) -> Option<u16> {
        self.def_mut().copied()
    }

    /// Apply `f` to every register the op reads except pooled call
    /// arguments (see [`XOp::args_mut`]).
    fn operands_mut(&mut self, mut f: impl FnMut(&mut u16)) {
        match self {
            XOp::IConst { .. }
            | XOp::FConst { .. }
            | XOp::NullConst { .. }
            | XOp::NewObj { .. }
            | XOp::Call { .. }
            | XOp::Jmp { .. } => {}
            XOp::Mov { s: a, .. }
            | XOp::IShlImm { a, .. }
            | XOp::INeg { a, .. }
            | XOp::FNeg { a, .. }
            | XOp::I2F { a, .. }
            | XOp::F2I { a, .. }
            | XOp::NewArr { len: a, .. }
            | XOp::ArrLen { arr: a, .. }
            | XOp::GetField { obj: a, .. }
            | XOp::CallVirt { recv: a, .. } => f(a),
            XOp::IAdd { a, b, .. }
            | XOp::ISub { a, b, .. }
            | XOp::IMul { a, b, .. }
            | XOp::IDiv { a, b, .. }
            | XOp::IRem { a, b, .. }
            | XOp::IAnd { a, b, .. }
            | XOp::IOr { a, b, .. }
            | XOp::IXor { a, b, .. }
            | XOp::IShl { a, b, .. }
            | XOp::IShr { a, b, .. }
            | XOp::ICmp { a, b, .. }
            | XOp::FAdd { a, b, .. }
            | XOp::FSub { a, b, .. }
            | XOp::FMul { a, b, .. }
            | XOp::FDiv { a, b, .. }
            | XOp::FCmp { a, b, .. }
            | XOp::ALoad { arr: a, idx: b, .. }
            | XOp::PutField { obj: a, val: b, .. }
            | XOp::Br { a, b, .. } => {
                f(a);
                f(b);
            }
            XOp::AStore { arr, idx, val } => {
                f(arr);
                f(idx);
                f(val);
            }
            XOp::Ret { v } => {
                if *v != NONE {
                    f(v);
                }
            }
        }
    }

    /// A call's pooled arguments: its start index into the pool, and
    /// their count.
    fn args_mut(&mut self) -> Option<(&mut u32, usize)> {
        match self {
            XOp::Call { argi, argc, .. } | XOp::CallVirt { argi, argc, .. } => {
                Some((argi, usize::from(*argc)))
            }
            _ => None,
        }
    }

    /// Visit every register the op reads, its call arguments in
    /// `pool` included.
    fn uses(mut self, pool: &[u16], mut f: impl FnMut(u16)) {
        self.operands_mut(|r| f(*r));
        if let Some((argi, argc)) = self.args_mut() {
            pool[*argi as usize..][..argc].iter().for_each(|&r| f(r));
        }
    }
}

/// The executable plan for one installed method: pre-decoded ops plus
/// segment charge plans, compiled against one machine's energy table
/// and I-cache geometry. A derived artifact — cache-reconstructable
/// from the [`NativeCode`], never serialized.
///
/// A segment's *flat ops* are the instructions the reference runs for
/// it, in order, one per *flat position*; they are what its plan and
/// step count charge. Its *stream* is what the executor runs: the flat
/// ops minus followed `Jmp`s and the copies they no longer need (see
/// the module docs).
#[derive(Debug)]
pub struct XCode {
    /// Every segment's stream, segment by segment.
    pub ops: Vec<XOp>,
    /// Each stream op's flat position (an index into `origins`).
    pub at: Vec<u32>,
    /// Each flat position's origin `(block, index)` in the
    /// [`NativeCode`]: where its emitted micros and their offset are.
    /// A block's ops appear once per segment that holds them.
    pub origins: Vec<(u32, u32)>,
    /// The segments, one starting at each piece.
    pub segs: Vec<Segment>,
    /// Each block's entry segment: the one starting at its first op.
    pub entry: Vec<u32>,
    /// Pooled call-argument registers (see [`XOp::Call`]).
    pub args_pool: Vec<u16>,
}

/// A stretch of flat positions charged with one replay, and the stream
/// ops `start..end` of [`XCode::ops`] that run them: the body
/// `start..end - 1` is machine-free, the tail `end - 1` (always the
/// last flat op) may call, allocate or leave the segment (see the
/// module docs).
#[derive(Debug)]
pub struct Segment {
    /// First stream op.
    pub start: u32,
    /// One past the tail's stream op.
    pub end: u32,
    /// First flat position; the tail's is the last.
    pub flat: u32,
    /// Step-budget cost of the whole segment: `Σ max(1, micros_i)`,
    /// what the reference bumps one instruction at a time.
    pub steps: u64,
    /// The segment that follows when the tail falls through (after a
    /// call, an allocation or a heap-cap split); unused otherwise.
    pub next: u32,
    /// The merged charge plan of every flat op's emitted micros.
    pub plan: SeqPlan,
}

/// The `(byte offset, class, data ref)` micros of one emitted
/// instruction, as the reference executor would step them. The spill
/// cursor resets per instruction, mirroring the executor's frame
/// addressing.
fn inst_micros(seq: &[Micro], off: u32, out: &mut Vec<(u64, InstrClass, SeqDataRef)>) {
    let mut spill_cursor = 0u64;
    for (i, m) in seq.iter().enumerate() {
        let store = m.class == InstrClass::Store;
        let mem = match m.mem {
            MicroMem::None => SeqDataRef::None,
            MicroMem::Frame => {
                spill_cursor += 1;
                SeqDataRef::Frame {
                    store,
                    offset: spill_cursor * 8,
                }
            }
            MicroMem::Heap => SeqDataRef::Heap { store },
        };
        out.push((
            (u64::from(off) + i as u64) * NATIVE_INSTR_BYTES,
            m.class,
            mem,
        ));
    }
}

/// Narrow a register number, enforcing the `u16` decode invariant.
fn r(v: VReg) -> u16 {
    debug_assert!(v.0 < u32::from(NONE));
    v.0 as u16
}

/// Decode one NIR instruction. `ic` is the instruction's emitted
/// offset (inline-cache slot for virtual calls); call argument
/// registers are appended to `pool`.
fn decode_op(inst: &NInst, ic: u32, pool: &mut Vec<u16>) -> XOp {
    match inst {
        NInst::IConst { d, v } => XOp::IConst { d: r(*d), v: *v },
        NInst::FConst { d, v } => XOp::FConst { d: r(*d), v: *v },
        NInst::NullConst { d } => XOp::NullConst { d: r(*d) },
        NInst::Mov { d, s } => XOp::Mov { d: r(*d), s: r(*s) },
        NInst::IBinOp { op, d, a, b } => {
            let (d, a, b) = (r(*d), r(*a), r(*b));
            match op {
                IBin::Add => XOp::IAdd { d, a, b },
                IBin::Sub => XOp::ISub { d, a, b },
                IBin::Mul => XOp::IMul { d, a, b },
                IBin::Div => XOp::IDiv { d, a, b },
                IBin::Rem => XOp::IRem { d, a, b },
                IBin::And => XOp::IAnd { d, a, b },
                IBin::Or => XOp::IOr { d, a, b },
                IBin::Xor => XOp::IXor { d, a, b },
                IBin::Shl => XOp::IShl { d, a, b },
                IBin::Shr => XOp::IShr { d, a, b },
            }
        }
        NInst::IShlImm { d, a, k } => XOp::IShlImm {
            d: r(*d),
            a: r(*a),
            k: *k,
        },
        NInst::INegOp { d, a } => XOp::INeg { d: r(*d), a: r(*a) },
        NInst::ICmpOp { d, a, b } => XOp::ICmp {
            d: r(*d),
            a: r(*a),
            b: r(*b),
        },
        NInst::FBinOp { op, d, a, b } => {
            let (d, a, b) = (r(*d), r(*a), r(*b));
            match op {
                FBin::Add => XOp::FAdd { d, a, b },
                FBin::Sub => XOp::FSub { d, a, b },
                FBin::Mul => XOp::FMul { d, a, b },
                FBin::Div => XOp::FDiv { d, a, b },
            }
        }
        NInst::FNegOp { d, a } => XOp::FNeg { d: r(*d), a: r(*a) },
        NInst::FCmpOp { d, a, b } => XOp::FCmp {
            d: r(*d),
            a: r(*a),
            b: r(*b),
        },
        NInst::I2FOp { d, a } => XOp::I2F { d: r(*d), a: r(*a) },
        NInst::F2IOp { d, a } => XOp::F2I { d: r(*d), a: r(*a) },
        NInst::NewArr { d, ty, len } => XOp::NewArr {
            d: r(*d),
            ty: *ty,
            len: r(*len),
        },
        NInst::NewObj { d, class } => XOp::NewObj {
            d: r(*d),
            class: class.0,
        },
        NInst::ALoadOp { d, arr, idx, .. } => XOp::ALoad {
            d: r(*d),
            arr: r(*arr),
            idx: r(*idx),
        },
        NInst::AStoreOp { arr, idx, val, .. } => XOp::AStore {
            arr: r(*arr),
            idx: r(*idx),
            val: r(*val),
        },
        NInst::ArrLenOp { d, arr } => XOp::ArrLen {
            d: r(*d),
            arr: r(*arr),
        },
        NInst::GetFieldOp { d, obj, slot, .. } => XOp::GetField {
            d: r(*d),
            obj: r(*obj),
            slot: *slot,
        },
        NInst::PutFieldOp { obj, slot, val } => XOp::PutField {
            obj: r(*obj),
            slot: *slot,
            val: r(*val),
        },
        NInst::CallOp { d, target, args } => {
            let argi = pool.len() as u32;
            pool.extend(args.iter().map(|&a| r(a)));
            XOp::Call {
                d: d.map_or(NONE, r),
                argc: args.len() as u16,
                target: target.0,
                argi,
            }
        }
        NInst::CallVirtOp {
            d,
            slot,
            recv,
            args,
        } => {
            let argi = pool.len() as u32;
            pool.extend(args.iter().map(|&a| r(a)));
            XOp::CallVirt {
                d: d.map_or(NONE, r),
                slot: *slot,
                recv: r(*recv),
                argc: args.len() as u16,
                ic,
                argi,
            }
        }
        NInst::Jmp { target } => XOp::Jmp { t: target.0 },
        NInst::BrCond {
            cond,
            a,
            b,
            then_,
            else_,
        } => XOp::Br {
            cond: *cond,
            a: r(*a),
            b: r(*b),
            t: then_.0,
            e: else_.0,
        },
        NInst::Ret { val } => XOp::Ret {
            v: val.map_or(NONE, r),
        },
    }
}

/// Compile `code` into its executable plan against `config`'s energy
/// table and I-cache geometry: pre-decoded ops and their segments.
/// Grouping at `line_bytes.min(32)` is sound because code bases are
/// 32-byte aligned (see [`SeqPlan::compile_at`]).
///
/// # Panics
/// If the function uses ≥ `u16::MAX` virtual registers (far beyond
/// anything the JIT emits), or if an instruction's heap micros are not
/// one per heap-touching op ([`crate::emit`] never emits otherwise).
pub fn compile(config: &MachineConfig, code: &NativeCode) -> XCode {
    let func = &code.func;
    assert!(
        func.nregs < u32::from(NONE),
        "register file too large to pre-decode"
    );
    let line_bytes = config.icache.map_or(32, |c| c.line_bytes).min(32);
    let mut decoded_args: Vec<u16> = Vec::new();
    let blocks: Vec<Vec<XOp>> = func
        .blocks
        .iter()
        .zip(&code.offsets)
        .map(|(block, offs)| {
            block
                .insts
                .iter()
                .zip(offs)
                .map(|(inst, &off)| decode_op(inst, off, &mut decoded_args))
                .collect()
        })
        .collect();

    // Cut every block into pieces `(block, ops, heap micros)`, in block
    // order; a block's first piece is its entry.
    let mut pieces: Vec<(usize, Range<usize>, usize)> = Vec::new();
    let mut entry = Vec::with_capacity(blocks.len());
    for (b, ops) in blocks.iter().enumerate() {
        entry.push(pieces.len() as u32);
        let (mut start, mut nheap) = (0usize, 0usize);
        for (ii, op) in ops.iter().enumerate() {
            let heap = usize::from(op.touches_heap());
            assert_eq!(
                code.micros[b][ii]
                    .iter()
                    .filter(|m| m.mem == MicroMem::Heap)
                    .count(),
                heap,
                "one heap micro per heap-touching instruction"
            );
            if nheap + heap > SEG_ADDRS {
                pieces.push((b, start..ii, nheap));
                (start, nheap) = (ii, 0);
            }
            nheap += heap;
            if op.ends_segment() || ii + 1 == ops.len() {
                pieces.push((b, start..ii + 1, nheap));
                (start, nheap) = (ii + 1, 0);
            }
        }
    }

    // The registers live after each piece's last op, from one backward
    // sweep per block.
    let liveness = func.liveness();
    let mut tail_live: Vec<Range<usize>> = vec![0..0; pieces.len()];
    let mut live_pool: Vec<u16> = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        let mut live = liveness.live_out(func, b);
        let first = entry[b] as usize;
        let mut p = entry.get(b + 1).map_or(pieces.len(), |&e| e as usize);
        for (ii, inst) in block.insts.iter().enumerate().rev() {
            if p > first && pieces[p - 1].1.end == ii + 1 {
                p -= 1;
                let at = live_pool.len();
                live_pool.extend(live.iter().map(r));
                tail_live[p] = at..live_pool.len();
            }
            live.step_back(inst);
        }
    }

    // One segment per piece, running on through every `Jmp` it can.
    let mut x = XCode {
        ops: Vec::new(),
        at: Vec::new(),
        origins: Vec::new(),
        segs: Vec::with_capacity(pieces.len()),
        entry,
        args_pool: Vec::new(),
    };
    let mut pass = StreamPass::new(func.nregs as usize);
    let mut flat: Vec<XOp> = Vec::new();
    let mut held: Vec<usize> = Vec::new();
    let mut scratch: Vec<(u64, InstrClass, SeqDataRef)> = Vec::new();
    for p in 0..pieces.len() {
        let first = x.origins.len() as u32;
        let (mut q, mut nheap, mut steps) = (p, pieces[p].2, 0u64);
        flat.clear();
        held.clear();
        scratch.clear();
        loop {
            let (b, range, _) = &pieces[q];
            held.push(*b);
            for ii in range.clone() {
                let seq = &code.micros[*b][ii];
                inst_micros(seq, code.offsets[*b][ii], &mut scratch);
                steps += (seq.len() as u64).max(1);
                flat.push(blocks[*b][ii]);
                x.origins.push((*b as u32, ii as u32));
            }
            match flat.last() {
                Some(&XOp::Jmp { t }) => {
                    let e = x.entry[t as usize] as usize;
                    if held.contains(&(t as usize)) || nheap + pieces[e].2 > SEG_ADDRS {
                        break;
                    }
                    nheap += pieces[e].2;
                    q = e;
                }
                _ => break,
            }
        }
        let start = x.ops.len() as u32;
        pass.run(
            &flat,
            &decoded_args,
            &live_pool[tail_live[q].clone()],
            first,
            &mut x,
        );
        x.segs.push(Segment {
            start,
            end: x.ops.len() as u32,
            flat: first,
            steps,
            next: (q + 1) as u32,
            plan: SeqPlan::compile_at(&config.table, line_bytes, &scratch),
        });
    }
    x
}

/// Builds each segment's stream from its flat ops (see the module
/// docs). Its tables span the register file and are shared by every
/// segment of a method, so each segment costs time in its own length,
/// not in the register count.
struct StreamPass {
    /// Writes of each register so far, across segments.
    ver: Vec<u32>,
    /// Per register: the register it was last copied from, that
    /// register's version then, and the segment of the copy. It holds
    /// the same value while both match.
    copy: Vec<(u16, u32, u32)>,
    /// A register is live while its mark is `epoch`.
    live: Vec<u32>,
    epoch: u32,
    /// The current segment, counted from 1.
    seg: u32,
    /// Per flat op: a `Mov` whose source is dead after it.
    src_dead: Vec<bool>,
}

impl StreamPass {
    fn new(nregs: usize) -> StreamPass {
        StreamPass {
            ver: vec![0; nregs],
            copy: vec![(NONE, 0, 0); nregs],
            live: vec![0; nregs],
            epoch: 0,
            seg: 0,
            src_dead: Vec::new(),
        }
    }

    /// Start a backward liveness walk from the registers `live` after
    /// the tail.
    fn live_after_tail(&mut self, live: &[u16]) {
        self.epoch += 1;
        for &v in live {
            self.live[usize::from(v)] = self.epoch;
        }
    }

    fn is_live(&self, v: u16) -> bool {
        self.live[usize::from(v)] == self.epoch
    }

    /// Step a backward liveness walk over `op`.
    fn live_before(&mut self, op: XOp, pool: &[u16]) {
        if let Some(d) = op.def() {
            self.live[usize::from(d)] = 0;
        }
        let epoch = self.epoch;
        op.uses(pool, |u| self.live[usize::from(u)] = epoch);
    }

    /// The register holding `v`'s value that the stream reads instead.
    fn forward(&self, v: u16) -> u16 {
        match self.copy[usize::from(v)] {
            (s, ver, seg) if seg == self.seg && self.ver[usize::from(s)] == ver => s,
            _ => v,
        }
    }

    /// Record a write of `d`; `from` is the register it copies.
    fn write(&mut self, d: u16, from: Option<u16>) {
        let d = usize::from(d);
        self.ver[d] += 1;
        self.copy[d] = match from {
            Some(s) => (s, self.ver[usize::from(s)], self.seg),
            None => (NONE, 0, 0),
        };
    }

    /// Append the stream of the segment whose flat ops are `flat`, at
    /// flat positions from `first`, to `x`. `args` pools the flat ops'
    /// call arguments and `live` lists the registers live after the
    /// tail.
    fn run(&mut self, flat: &[XOp], args: &[u16], live: &[u16], first: u32, x: &mut XCode) {
        self.seg += 1;
        let tail = flat.len() - 1;

        // Which copies leave their source dead, by the flat ops'
        // liveness.
        self.src_dead.clear();
        self.src_dead.resize(flat.len(), false);
        self.live_after_tail(live);
        for (k, &op) in flat.iter().enumerate().rev() {
            if let XOp::Mov { s, .. } = op {
                self.src_dead[k] = !self.is_live(s);
            }
            self.live_before(op, args);
        }

        // Forward operands through copies, drop followed jumps and
        // no-op copies, and fold a copy of a dead result into the op
        // that produced it.
        let start = x.ops.len();
        for (k, &orig) in flat.iter().enumerate() {
            let mut op = orig;
            if k < tail && matches!(op, XOp::Jmp { .. }) {
                continue;
            }
            op.operands_mut(|v| *v = self.forward(*v));
            if let Some((argi, argc)) = op.args_mut() {
                let from = std::mem::replace(argi, x.args_pool.len() as u32) as usize;
                for &v in &args[from..from + argc] {
                    x.args_pool.push(self.forward(v));
                }
            }
            if let (XOp::Mov { d, s }, true) = (op, k < tail) {
                if s == d || self.forward(d) == s {
                    continue;
                }
                // `X → s; Mov d ← s` with `s` dead after the copy (and
                // not a forwarded source) becomes `X → d`.
                let fold = self.src_dead[k] && matches!(orig, XOp::Mov { s: t, .. } if t == s);
                let producer = x.ops[start..].last_mut().and_then(XOp::def_mut);
                if let Some(p) = producer.filter(|p| fold && **p == s) {
                    *p = d;
                    self.write(d, None);
                    continue;
                }
                self.write(d, Some(s));
            } else if let Some(d) = op.def() {
                self.write(d, None);
            }
            x.ops.push(op);
            x.at.push(first + k as u32);
        }

        // Delete the copies whose destination is dead in the stream.
        self.live_after_tail(live);
        let mut keep = x.ops.len();
        for k in (start..x.ops.len()).rev() {
            let op = x.ops[k];
            if let XOp::Mov { d, .. } = op {
                if k + 1 < x.ops.len() && !self.is_live(d) {
                    continue;
                }
            }
            self.live_before(op, &x.args_pool);
            keep -= 1;
            x.ops[keep] = op;
            x.at[keep] = x.at[k];
        }
        x.ops.drain(start..keep);
        x.at.drain(start..keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::emit::OptLevel;
    use crate::jit;

    /// Nested loops around an if/else and a call, then a loop whose
    /// header's heap accesses do not fit beside its body's.
    fn program() -> crate::Program {
        let mut m = ModuleBuilder::new();
        m.func(
            "g",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![ret(var("x").mul(iconst(3)))],
        );
        let heavy = (0..12).fold(iconst(0), |e, k| e.add(var("a").index(iconst(k))));
        let arm = |k: i32| {
            vec![set_index(
                var("a"),
                var("j"),
                var("a").index(iconst(k)).add(var("i")),
            )]
        };
        m.func(
            "f",
            vec![("n", DType::Int)],
            Some(DType::Int),
            vec![
                let_("a", new_arr(DType::Int, iconst(16))),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![
                        for_(
                            "j",
                            iconst(0),
                            var("i"),
                            vec![if_else(var("j").lt(iconst(3)), arm(1), arm(2))],
                        ),
                        set_index(var("a"), iconst(0), call("g", vec![var("i")])),
                    ],
                ),
                while_(
                    heavy.clone().lt(var("n")),
                    (0..6)
                        .map(|k| set_index(var("a"), iconst(k), var("n").add(iconst(k))))
                        .collect(),
                ),
                ret(heavy),
            ],
        );
        m.compile().unwrap()
    }

    /// `spin(n)`: `loop { n = g(n) }`, a cycle of jumps around a call
    /// (it ends when `g` fails).
    fn spin() -> crate::Program {
        use crate::bytecode::Op;
        use crate::class::{MethodAttrs, MethodSig, ProgramBuilder};
        use crate::value::Type;
        let attrs = || MethodAttrs {
            potential: false,
            local_only: false,
            size_param: None,
        };
        let sig = || MethodSig::new(vec![Type::Int], Some(Type::Int));
        let mut b = ProgramBuilder::new();
        let c = b.add_class(MODULE_CLASS, None, &[]);
        let g = b.add_static_method(c, "g", sig(), 1, vec![Op::Load(0), Op::RetVal], attrs());
        let body = vec![Op::Load(0), Op::Call(g), Op::Store(0), Op::Goto(0)];
        b.add_static_method(c, "spin", sig(), 1, body, attrs());
        b.finish()
    }

    /// Each flat position's op, decoded again from its origin.
    fn flat_ops(code: &NativeCode, x: &XCode) -> Vec<XOp> {
        let mut pool = Vec::new();
        x.origins
            .iter()
            .map(|&(b, ii)| {
                let (b, ii) = (b as usize, ii as usize);
                decode_op(
                    &code.func.blocks[b].insts[ii],
                    code.offsets[b][ii],
                    &mut pool,
                )
            })
            .collect()
    }

    /// Segment `seg`'s flat positions.
    fn flat_range(x: &XCode, seg: &Segment) -> Range<usize> {
        seg.flat as usize..x.at[seg.end as usize - 1] as usize + 1
    }

    /// Flat positions `range` of `x` from block `b` at the start of the
    /// range: the block's piece there.
    fn run_of(x: &XCode, range: Range<usize>, b: u32) -> impl Iterator<Item = usize> + '_ {
        range.take_while(move |&i| x.origins[i].0 == b)
    }

    /// Check every segment of `code` compiled for `config`: it holds no
    /// block twice and at most `SEG_ADDRS` heap micros, each op's
    /// origin is right, a `Jmp` inside it is followed by its target's
    /// first op and one ending it stopped for a held block or the heap
    /// cap, and a falling-through tail continues with the next op of
    /// its block. Returns how many `Jmp`s were followed, stopped at a
    /// held block, and stopped at the heap cap.
    fn check(config: &MachineConfig, code: &NativeCode, ctx: &str) -> [usize; 3] {
        let x = compile(config, code);
        let ops = flat_ops(code, &x);
        let heap =
            |r: &mut dyn Iterator<Item = usize>| r.filter(|&i| ops[i].touches_heap()).count();
        for (b, &e) in x.entry.iter().enumerate() {
            let seg = &x.segs[e as usize];
            assert_eq!(x.origins[seg.flat as usize], (b as u32, 0), "{ctx}");
        }
        let mut stops = [0; 3];
        for seg in &x.segs {
            let range = flat_range(&x, seg);
            let mut held: Vec<u32> = Vec::new();
            for i in range.clone() {
                let (b, ii) = x.origins[i];
                if held.last() != Some(&b) {
                    assert!(!held.contains(&b), "{ctx}: block {b} held twice");
                    held.push(b);
                }
                let seq = &code.micros[b as usize][ii as usize];
                let heap_micros = seq.iter().filter(|m| m.mem == MicroMem::Heap).count();
                assert_eq!(heap_micros, usize::from(ops[i].touches_heap()), "{ctx}");
            }
            assert!(heap(&mut range.clone()) <= SEG_ADDRS, "{ctx}");
            for i in range.clone() {
                let XOp::Jmp { t } = ops[i] else { continue };
                if i + 1 < range.end {
                    assert_eq!(x.origins[i + 1], (t, 0), "{ctx}");
                    stops[0] += 1;
                } else if held.contains(&t) {
                    stops[1] += 1;
                } else {
                    let e = x.segs[x.entry[t as usize] as usize].flat as usize;
                    let piece = heap(&mut run_of(&x, e..x.origins.len(), t));
                    assert!(heap(&mut range.clone()) + piece > SEG_ADDRS, "{ctx}");
                    stops[2] += 1;
                }
            }
            let tail = &ops[range.end - 1];
            if !matches!(tail, XOp::Jmp { .. } | XOp::Br { .. } | XOp::Ret { .. }) {
                let (b, ii) = x.origins[range.end - 1];
                let next = &x.segs[seg.next as usize];
                assert_eq!(x.origins[next.flat as usize], (b, ii + 1), "{ctx}");
            }
        }
        stops
    }

    /// Check every segment's stream of `code` compiled for `config`:
    /// its ops keep their flat order and end with the tail, each has
    /// the kind of the flat op at its position, and every flat op it
    /// dropped is a followed `Jmp` or a `Mov`, so every op that touches
    /// the heap, calls, allocates or can fail is kept. Returns how many
    /// flat ops, dropped `Jmp`s and dropped `Mov`s the segments hold.
    fn check_stream(config: &MachineConfig, code: &NativeCode, ctx: &str) -> [usize; 3] {
        let x = compile(config, code);
        let ops = flat_ops(code, &x);
        assert_eq!(x.ops.len(), x.at.len(), "{ctx}");
        let mut counts = [0; 3];
        for seg in &x.segs {
            let range = flat_range(&x, seg);
            let stream = seg.start as usize..seg.end as usize;
            let mut kept = stream.clone().map(|k| x.at[k] as usize).peekable();
            counts[0] += range.len();
            for i in range.clone() {
                if kept.next_if_eq(&i).is_some() {
                    continue;
                }
                match ops[i] {
                    XOp::Jmp { .. } if i + 1 < range.end => counts[1] += 1,
                    XOp::Mov { .. } if i + 1 < range.end => counts[2] += 1,
                    op => panic!("{ctx}: flat op {i} ({op:?}) dropped"),
                }
            }
            assert!(kept.next().is_none(), "{ctx}: stream out of flat order");
            assert_eq!(
                x.at[stream.end - 1] as usize,
                range.end - 1,
                "{ctx}: no tail"
            );
            for k in stream {
                let (op, flat) = (&x.ops[k], &ops[x.at[k] as usize]);
                let same = std::mem::discriminant(op) == std::mem::discriminant(flat);
                assert!(same, "{ctx}: {flat:?} became {op:?}");
            }
        }
        counts
    }

    #[test]
    fn segments_follow_jumps_up_to_a_held_block_or_the_heap_cap() {
        let (p, q) = (program(), spin());
        let f = p.find_method(MODULE_CLASS, "f").unwrap();
        let s = q.find_method(MODULE_CLASS, "spin").unwrap();
        for config in [
            MachineConfig::mobile_client(),
            MachineConfig::sparc_server(),
        ] {
            for level in OptLevel::ALL {
                let [followed, _, capped] = check(&config, &jit::compile(&p, f, level).code, "f");
                assert!(followed > 0 && capped > 0, "{level}: {followed} {capped}");
                let [_, looped, _] = check(&config, &jit::compile(&q, s, level).code, "spin");
                assert!(looped > 0, "{level}");
            }
        }
    }

    #[test]
    fn streams_drop_only_followed_jumps_and_copies() {
        let (p, q) = (program(), spin());
        let f = p.find_method(MODULE_CLASS, "f").unwrap();
        let s = q.find_method(MODULE_CLASS, "spin").unwrap();
        for config in [
            MachineConfig::mobile_client(),
            MachineConfig::sparc_server(),
        ] {
            for level in OptLevel::ALL {
                let [flat, jmps, movs] =
                    check_stream(&config, &jit::compile(&p, f, level).code, "f");
                assert!(jmps > 0 && movs > 0, "{level}: {flat} {jmps} {movs}");
                check_stream(&config, &jit::compile(&q, s, level).code, "spin");
            }
        }
    }
}
