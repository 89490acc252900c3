//! NIR — the JIT's register-based native intermediate representation.
//!
//! Bytecode is lowered to NIR by [`crate::lower`]; optimization passes
//! ([`crate::opt`]) rewrite it; [`crate::emit`] turns it into a
//! "native code object" whose execution cost and code size the energy
//! model prices.
//!
//! NIR uses *positional* virtual registers: register `k` holds local
//! slot `k`, and registers above `nlocals` model the JVM operand stack
//! at a fixed depth. This is the classic baseline-JIT lowering (no SSA
//! construction): joins agree by construction because registers are
//! positional, and the optimizer works with explicit def/use analysis.
//! Passes may additionally allocate *temporary* registers above the
//! positional range (e.g. LICM hoists into fresh temps).

use crate::bytecode::{ClassId, Cond, FBin, IBin, MethodId};
use crate::value::Type;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VReg(pub u32);

/// A basic-block id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// One NIR instruction. The last instruction of every block is a
/// terminator ([`NInst::is_terminator`]); terminators appear nowhere
/// else.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NInst {
    /// `d = imm`
    IConst {
        /// Destination.
        d: VReg,
        /// Immediate.
        v: i32,
    },
    /// `d = imm` (float)
    FConst {
        /// Destination.
        d: VReg,
        /// Immediate.
        v: f64,
    },
    /// `d = null`
    NullConst {
        /// Destination.
        d: VReg,
    },
    /// `d = s`
    Mov {
        /// Destination.
        d: VReg,
        /// Source.
        s: VReg,
    },
    /// `d = a <op> b` (int)
    IBinOp {
        /// Operator.
        op: IBin,
        /// Destination.
        d: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `d = a << k` — strength-reduced multiply (immediate shift).
    IShlImm {
        /// Destination.
        d: VReg,
        /// Operand.
        a: VReg,
        /// Shift amount.
        k: u8,
    },
    /// `d = -a` (int)
    INegOp {
        /// Destination.
        d: VReg,
        /// Operand.
        a: VReg,
    },
    /// `d = sign(a - b)` ∈ {-1, 0, 1}
    ICmpOp {
        /// Destination.
        d: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `d = a <op> b` (float)
    FBinOp {
        /// Operator.
        op: FBin,
        /// Destination.
        d: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `d = -a` (float)
    FNegOp {
        /// Destination.
        d: VReg,
        /// Operand.
        a: VReg,
    },
    /// `d = sign(a - b)` for floats (NaN → -1, like `fcmpl`)
    FCmpOp {
        /// Destination.
        d: VReg,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
    },
    /// `d = (float) a`
    I2FOp {
        /// Destination.
        d: VReg,
        /// Operand.
        a: VReg,
    },
    /// `d = (int) a` (truncating, saturating)
    F2IOp {
        /// Destination.
        d: VReg,
        /// Operand.
        a: VReg,
    },
    /// `d = new ty[len]`
    NewArr {
        /// Destination.
        d: VReg,
        /// Element type.
        ty: Type,
        /// Length register.
        len: VReg,
    },
    /// `d = new C()`
    NewObj {
        /// Destination.
        d: VReg,
        /// Class.
        class: ClassId,
    },
    /// `d = arr[idx]`
    ALoadOp {
        /// Destination.
        d: VReg,
        /// Array register.
        arr: VReg,
        /// Index register.
        idx: VReg,
        /// Element type.
        ty: Type,
    },
    /// `arr[idx] = val`
    AStoreOp {
        /// Array register.
        arr: VReg,
        /// Index register.
        idx: VReg,
        /// Value register.
        val: VReg,
        /// Element type.
        ty: Type,
    },
    /// `d = arr.length`
    ArrLenOp {
        /// Destination.
        d: VReg,
        /// Array register.
        arr: VReg,
    },
    /// `d = obj.field[slot]`
    GetFieldOp {
        /// Destination.
        d: VReg,
        /// Object register.
        obj: VReg,
        /// Field slot.
        slot: u16,
        /// Field type.
        ty: Type,
    },
    /// `obj.field[slot] = val`
    PutFieldOp {
        /// Object register.
        obj: VReg,
        /// Field slot.
        slot: u16,
        /// Value register.
        val: VReg,
    },
    /// Static call.
    CallOp {
        /// Destination (None for void).
        d: Option<VReg>,
        /// Callee.
        target: MethodId,
        /// Argument registers.
        args: Vec<VReg>,
    },
    /// Virtual call through the receiver's vtable.
    CallVirtOp {
        /// Destination (None for void).
        d: Option<VReg>,
        /// Vtable slot.
        slot: u16,
        /// Receiver register.
        recv: VReg,
        /// Argument registers (receiver excluded).
        args: Vec<VReg>,
    },
    // ---- terminators ----
    /// Unconditional jump.
    Jmp {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on an integer compare.
    BrCond {
        /// Condition.
        cond: Cond,
        /// Left operand.
        a: VReg,
        /// Right operand.
        b: VReg,
        /// Taken target.
        then_: BlockId,
        /// Fall-through target.
        else_: BlockId,
    },
    /// Return.
    Ret {
        /// Returned register (None for void).
        val: Option<VReg>,
    },
}

impl NInst {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            NInst::Jmp { .. } | NInst::BrCond { .. } | NInst::Ret { .. }
        )
    }

    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            NInst::IConst { d, .. }
            | NInst::FConst { d, .. }
            | NInst::NullConst { d }
            | NInst::Mov { d, .. }
            | NInst::IBinOp { d, .. }
            | NInst::IShlImm { d, .. }
            | NInst::INegOp { d, .. }
            | NInst::ICmpOp { d, .. }
            | NInst::FBinOp { d, .. }
            | NInst::FNegOp { d, .. }
            | NInst::FCmpOp { d, .. }
            | NInst::I2FOp { d, .. }
            | NInst::F2IOp { d, .. }
            | NInst::NewArr { d, .. }
            | NInst::NewObj { d, .. }
            | NInst::ALoadOp { d, .. }
            | NInst::ArrLenOp { d, .. }
            | NInst::GetFieldOp { d, .. } => Some(*d),
            NInst::CallOp { d, .. } | NInst::CallVirtOp { d, .. } => *d,
            _ => None,
        }
    }

    /// Call `f` on each register this instruction reads, in the order
    /// [`NInst::uses`] lists them.
    pub(crate) fn each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            NInst::IConst { .. }
            | NInst::FConst { .. }
            | NInst::NullConst { .. }
            | NInst::NewObj { .. }
            | NInst::Jmp { .. } => {}
            NInst::Mov { s: a, .. }
            | NInst::IShlImm { a, .. }
            | NInst::INegOp { a, .. }
            | NInst::FNegOp { a, .. }
            | NInst::I2FOp { a, .. }
            | NInst::F2IOp { a, .. }
            | NInst::NewArr { len: a, .. }
            | NInst::ArrLenOp { arr: a, .. }
            | NInst::GetFieldOp { obj: a, .. } => f(*a),
            NInst::IBinOp { a, b, .. }
            | NInst::ICmpOp { a, b, .. }
            | NInst::FBinOp { a, b, .. }
            | NInst::FCmpOp { a, b, .. }
            | NInst::BrCond { a, b, .. }
            | NInst::ALoadOp { arr: a, idx: b, .. }
            | NInst::PutFieldOp { obj: a, val: b, .. } => {
                f(*a);
                f(*b);
            }
            NInst::AStoreOp { arr, idx, val, .. } => {
                f(*arr);
                f(*idx);
                f(*val);
            }
            NInst::CallOp { args, .. } => args.iter().copied().for_each(f),
            NInst::CallVirtOp { recv, args, .. } => {
                f(*recv);
                args.iter().copied().for_each(f);
            }
            NInst::Ret { val } => val.iter().copied().for_each(f),
        }
    }

    /// The registers this instruction reads.
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            NInst::IConst { .. } | NInst::FConst { .. } | NInst::NullConst { .. } => vec![],
            NInst::Mov { s, .. } => vec![*s],
            NInst::IBinOp { a, b, .. }
            | NInst::ICmpOp { a, b, .. }
            | NInst::FBinOp { a, b, .. }
            | NInst::FCmpOp { a, b, .. } => vec![*a, *b],
            NInst::IShlImm { a, .. }
            | NInst::INegOp { a, .. }
            | NInst::FNegOp { a, .. }
            | NInst::I2FOp { a, .. }
            | NInst::F2IOp { a, .. } => vec![*a],
            NInst::NewArr { len, .. } => vec![*len],
            NInst::NewObj { .. } => vec![],
            NInst::ALoadOp { arr, idx, .. } => vec![*arr, *idx],
            NInst::AStoreOp { arr, idx, val, .. } => vec![*arr, *idx, *val],
            NInst::ArrLenOp { arr, .. } => vec![*arr],
            NInst::GetFieldOp { obj, .. } => vec![*obj],
            NInst::PutFieldOp { obj, val, .. } => vec![*obj, *val],
            NInst::CallOp { args, .. } => args.clone(),
            NInst::CallVirtOp { recv, args, .. } => {
                let mut v = vec![*recv];
                v.extend(args);
                v
            }
            NInst::Jmp { .. } => vec![],
            NInst::BrCond { a, b, .. } => vec![*a, *b],
            NInst::Ret { val } => val.iter().copied().collect(),
        }
    }

    /// True when the instruction has no side effects and produces a
    /// value that depends only on its operands — candidates for CSE,
    /// LICM and dead-code elimination.
    ///
    /// Heap loads are *not* pure (stores or calls may intervene);
    /// allocation is not pure (observable identity); calls are not
    /// pure; division is excluded from speculation because it can
    /// trap.
    pub fn is_pure(&self) -> bool {
        match self {
            NInst::IConst { .. }
            | NInst::FConst { .. }
            | NInst::NullConst { .. }
            | NInst::Mov { .. }
            | NInst::IShlImm { .. }
            | NInst::INegOp { .. }
            | NInst::ICmpOp { .. }
            | NInst::FBinOp { .. }
            | NInst::FNegOp { .. }
            | NInst::FCmpOp { .. }
            | NInst::I2FOp { .. }
            | NInst::F2IOp { .. } => true,
            NInst::IBinOp { op, .. } => !matches!(op, IBin::Div | IBin::Rem),
            _ => false,
        }
    }

    /// True for heap reads (safe to CSE within a block as long as no
    /// write or call intervenes).
    pub fn is_heap_read(&self) -> bool {
        matches!(
            self,
            NInst::ALoadOp { .. } | NInst::GetFieldOp { .. } | NInst::ArrLenOp { .. }
        )
    }

    /// True for instructions that can write the heap or transfer
    /// control into unknown code.
    pub fn clobbers_heap(&self) -> bool {
        matches!(
            self,
            NInst::AStoreOp { .. }
                | NInst::PutFieldOp { .. }
                | NInst::CallOp { .. }
                | NInst::CallVirtOp { .. }
        )
    }

    /// Successor blocks (empty for non-terminators and returns).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            NInst::Jmp { target } => vec![*target],
            NInst::BrCond { then_, else_, .. } => vec![*then_, *else_],
            _ => vec![],
        }
    }

    /// Remap every register through `f`.
    pub fn map_regs(&mut self, f: &mut impl FnMut(VReg) -> VReg) {
        match self {
            NInst::IConst { d, .. } | NInst::FConst { d, .. } | NInst::NullConst { d } => {
                *d = f(*d)
            }
            NInst::Mov { d, s } => {
                *d = f(*d);
                *s = f(*s);
            }
            NInst::IBinOp { d, a, b, .. }
            | NInst::ICmpOp { d, a, b }
            | NInst::FBinOp { d, a, b, .. }
            | NInst::FCmpOp { d, a, b } => {
                *d = f(*d);
                *a = f(*a);
                *b = f(*b);
            }
            NInst::IShlImm { d, a, .. }
            | NInst::INegOp { d, a }
            | NInst::FNegOp { d, a }
            | NInst::I2FOp { d, a }
            | NInst::F2IOp { d, a } => {
                *d = f(*d);
                *a = f(*a);
            }
            NInst::NewArr { d, len, .. } => {
                *d = f(*d);
                *len = f(*len);
            }
            NInst::NewObj { d, .. } => *d = f(*d),
            NInst::ALoadOp { d, arr, idx, .. } => {
                *d = f(*d);
                *arr = f(*arr);
                *idx = f(*idx);
            }
            NInst::AStoreOp { arr, idx, val, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *val = f(*val);
            }
            NInst::ArrLenOp { d, arr } => {
                *d = f(*d);
                *arr = f(*arr);
            }
            NInst::GetFieldOp { d, obj, .. } => {
                *d = f(*d);
                *obj = f(*obj);
            }
            NInst::PutFieldOp { obj, val, .. } => {
                *obj = f(*obj);
                *val = f(*val);
            }
            NInst::CallOp { d, args, .. } => {
                if let Some(d) = d {
                    *d = f(*d);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            NInst::CallVirtOp { d, recv, args, .. } => {
                if let Some(d) = d {
                    *d = f(*d);
                }
                *recv = f(*recv);
                for a in args {
                    *a = f(*a);
                }
            }
            NInst::Jmp { .. } => {}
            NInst::BrCond { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            NInst::Ret { val } => {
                if let Some(v) = val {
                    *v = f(*v);
                }
            }
        }
    }

    /// Remap only the *used* (read) registers through `f`, leaving the
    /// defined register untouched — even when the same register number
    /// appears in both roles (e.g. `add d=r4, a=r4, b=r5`).
    pub fn map_uses(&mut self, f: &mut impl FnMut(VReg) -> VReg) {
        match self {
            NInst::IConst { .. }
            | NInst::FConst { .. }
            | NInst::NullConst { .. }
            | NInst::NewObj { .. }
            | NInst::Jmp { .. } => {}
            NInst::Mov { s, .. } => *s = f(*s),
            NInst::IBinOp { a, b, .. }
            | NInst::ICmpOp { a, b, .. }
            | NInst::FBinOp { a, b, .. }
            | NInst::FCmpOp { a, b, .. }
            | NInst::BrCond { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            NInst::IShlImm { a, .. }
            | NInst::INegOp { a, .. }
            | NInst::FNegOp { a, .. }
            | NInst::I2FOp { a, .. }
            | NInst::F2IOp { a, .. } => *a = f(*a),
            NInst::NewArr { len, .. } => *len = f(*len),
            NInst::ALoadOp { arr, idx, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
            }
            NInst::AStoreOp { arr, idx, val, .. } => {
                *arr = f(*arr);
                *idx = f(*idx);
                *val = f(*val);
            }
            NInst::ArrLenOp { arr, .. } => *arr = f(*arr),
            NInst::GetFieldOp { obj, .. } => *obj = f(*obj),
            NInst::PutFieldOp { obj, val, .. } => {
                *obj = f(*obj);
                *val = f(*val);
            }
            NInst::CallOp { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            NInst::CallVirtOp { recv, args, .. } => {
                *recv = f(*recv);
                for a in args {
                    *a = f(*a);
                }
            }
            NInst::Ret { val } => {
                if let Some(v) = val {
                    *v = f(*v);
                }
            }
        }
    }

    /// Remap every block reference through `f`.
    pub fn map_blocks(&mut self, f: &mut impl FnMut(BlockId) -> BlockId) {
        match self {
            NInst::Jmp { target } => *target = f(*target),
            NInst::BrCond { then_, else_, .. } => {
                *then_ = f(*then_);
                *else_ = f(*else_);
            }
            _ => {}
        }
    }
}

/// A basic block: straight-line instructions ending in a terminator.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Block {
    /// The instructions; the last is a terminator once construction
    /// finishes.
    pub insts: Vec<NInst>,
}

impl Block {
    /// The block's terminator.
    ///
    /// # Panics
    /// If the block is unterminated (not valid after construction).
    pub fn terminator(&self) -> &NInst {
        let t = self.insts.last().expect("empty block");
        debug_assert!(t.is_terminator());
        t
    }
}

/// A function in NIR form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NFunc {
    /// Method this NIR was compiled from.
    pub method: MethodId,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers in use (positional + temps).
    pub nregs: u32,
    /// Number of positional registers reserved for locals (arguments
    /// arrive in registers `0..invoke_arity`).
    pub nlocals: u32,
}

impl NFunc {
    /// Total instruction count.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// True when the function has no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocate a fresh temp register.
    pub fn fresh_reg(&mut self) -> VReg {
        let r = VReg(self.nregs);
        self.nregs += 1;
        r
    }

    /// Predecessor map: `preds[b]` = blocks that jump to `b`.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (i, b) in self.blocks.iter().enumerate() {
            if let Some(term) = b.insts.last() {
                for s in term.successors() {
                    preds[s.0 as usize].push(BlockId(i as u32));
                }
            }
        }
        preds
    }

    /// Validate structural invariants (every block terminated exactly
    /// once at the end; all targets in range; all regs < nregs).
    /// Used by tests and debug assertions between passes.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err("no blocks".into());
        }
        for (i, b) in self.blocks.iter().enumerate() {
            if b.insts.is_empty() {
                return Err(format!("block {i} empty"));
            }
            for (j, inst) in b.insts.iter().enumerate() {
                let last = j + 1 == b.insts.len();
                if inst.is_terminator() != last {
                    return Err(format!("block {i} inst {j}: terminator misplaced"));
                }
                for s in inst.successors() {
                    if s.0 as usize >= self.blocks.len() {
                        return Err(format!("block {i}: target {} out of range", s.0));
                    }
                }
                for r in inst.uses().into_iter().chain(inst.def()) {
                    if r.0 >= self.nregs {
                        return Err(format!("block {i} inst {j}: reg {} out of range", r.0));
                    }
                }
            }
        }
        Ok(())
    }

    /// Backward liveness over the CFG, iterated to its fixpoint: blocks
    /// are swept last to first, each from its live-out set back through
    /// its instructions, until no live-in set changes.
    pub fn liveness(&self) -> Liveness {
        let mut live = Liveness {
            live_in: vec![RegSet::new(self.nregs); self.blocks.len()],
            visits: 0,
        };
        let mut set = RegSet::new(self.nregs);
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..self.blocks.len()).rev() {
                live.live_out_into(self, b, &mut set);
                for inst in self.blocks[b].insts.iter().rev() {
                    live.visits += 1;
                    set.step_back(inst);
                }
                if set != live.live_in[b] {
                    std::mem::swap(&mut live.live_in[b], &mut set);
                    changed = true;
                }
            }
        }
        live
    }
}

/// A set of the registers of one [`NFunc`], one bit per register.
/// Iterates in ascending register order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// The empty set over registers `0..nregs`.
    pub fn new(nregs: u32) -> Self {
        RegSet {
            words: vec![0; (nregs as usize).div_ceil(64)],
        }
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: VReg) -> bool {
        self.words[r.0 as usize / 64] >> (r.0 % 64) & 1 != 0
    }

    /// Add `r`.
    fn insert(&mut self, r: VReg) {
        self.words[r.0 as usize / 64] |= 1 << (r.0 % 64);
    }

    /// Remove `r`.
    fn remove(&mut self, r: VReg) {
        self.words[r.0 as usize / 64] &= !(1 << (r.0 % 64));
    }

    /// Add every register of `other`, a set over the same registers.
    fn union_with(&mut self, other: &RegSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Step a backward walk over `inst`: its definition leaves the set,
    /// then its uses join it.
    pub(crate) fn step_back(&mut self, inst: &NInst) {
        if let Some(d) = inst.def() {
            self.remove(d);
        }
        inst.each_use(|r| self.insert(r));
    }

    /// The registers in the set, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    VReg(i as u32 * 64 + bit)
                })
            })
        })
    }
}

/// The registers live on entry to each block of an [`NFunc`] (see
/// [`NFunc::liveness`]).
#[derive(Debug)]
pub struct Liveness {
    /// Live-in set per block.
    pub live_in: Vec<RegSet>,
    /// Instructions the fixpoint visited: the passes that need
    /// liveness count them as JIT work units.
    pub visits: u64,
}

impl Liveness {
    /// The registers live on exit from block `b` of `func`: the union
    /// of its successors' live-in sets.
    pub fn live_out(&self, func: &NFunc, b: usize) -> RegSet {
        let mut live = RegSet::new(func.nregs);
        self.live_out_into(func, b, &mut live);
        live
    }

    /// [`Liveness::live_out`] into `live`, a set over `func`'s
    /// registers.
    fn live_out_into(&self, func: &NFunc, b: usize, live: &mut RegSet) {
        live.words.fill(0);
        if let Some(term) = func.blocks[b].insts.last() {
            for s in term.successors() {
                live.union_with(&self.live_in[s.0 as usize]);
            }
        }
    }
}

impl fmt::Display for NFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nfunc m{} ({} regs)", self.method.0, self.nregs)?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(f, "b{i}:")?;
            for inst in &b.insts {
                writeln!(f, "  {inst:?}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NFunc {
        // b0: r2 = r0 + r1; if r2 > r0 goto b1 else b2
        // b1: ret r2
        // b2: ret r0
        NFunc {
            method: MethodId(0),
            blocks: vec![
                Block {
                    insts: vec![
                        NInst::IBinOp {
                            op: IBin::Add,
                            d: VReg(2),
                            a: VReg(0),
                            b: VReg(1),
                        },
                        NInst::BrCond {
                            cond: Cond::Gt,
                            a: VReg(2),
                            b: VReg(0),
                            then_: BlockId(1),
                            else_: BlockId(2),
                        },
                    ],
                },
                Block {
                    insts: vec![NInst::Ret { val: Some(VReg(2)) }],
                },
                Block {
                    insts: vec![NInst::Ret { val: Some(VReg(0)) }],
                },
            ],
            nregs: 3,
            nlocals: 2,
        }
    }

    #[test]
    fn validate_accepts_sample() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut f = sample();
        f.blocks[0].insts[1] = NInst::Jmp { target: BlockId(9) };
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_missing_terminator() {
        let mut f = sample();
        f.blocks[1].insts = vec![NInst::IConst { d: VReg(2), v: 0 }];
        assert!(f.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_reg() {
        let mut f = sample();
        f.blocks[1].insts = vec![NInst::Ret {
            val: Some(VReg(99)),
        }];
        assert!(f.validate().is_err());
    }

    #[test]
    fn def_use_sets() {
        let i = NInst::IBinOp {
            op: IBin::Add,
            d: VReg(5),
            a: VReg(1),
            b: VReg(2),
        };
        assert_eq!(i.def(), Some(VReg(5)));
        assert_eq!(i.uses(), vec![VReg(1), VReg(2)]);
        let r = NInst::Ret { val: None };
        assert_eq!(r.def(), None);
        assert!(r.uses().is_empty());
        let c = NInst::CallVirtOp {
            d: Some(VReg(3)),
            slot: 0,
            recv: VReg(0),
            args: vec![VReg(1)],
        };
        assert_eq!(c.uses(), vec![VReg(0), VReg(1)]);
    }

    #[test]
    fn purity_classification() {
        assert!(NInst::IBinOp {
            op: IBin::Add,
            d: VReg(0),
            a: VReg(0),
            b: VReg(0)
        }
        .is_pure());
        // Division traps: not speculatable.
        assert!(!NInst::IBinOp {
            op: IBin::Div,
            d: VReg(0),
            a: VReg(0),
            b: VReg(0)
        }
        .is_pure());
        assert!(!NInst::ALoadOp {
            d: VReg(0),
            arr: VReg(0),
            idx: VReg(0),
            ty: Type::Int
        }
        .is_pure());
        assert!(NInst::ALoadOp {
            d: VReg(0),
            arr: VReg(0),
            idx: VReg(0),
            ty: Type::Int
        }
        .is_heap_read());
        assert!(NInst::CallOp {
            d: None,
            target: MethodId(0),
            args: vec![]
        }
        .clobbers_heap());
    }

    #[test]
    fn predecessors_computed() {
        let f = sample();
        let preds = f.predecessors();
        assert!(preds[0].is_empty());
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[2], vec![BlockId(0)]);
    }

    #[test]
    fn map_regs_remaps_everything() {
        let mut i = NInst::AStoreOp {
            arr: VReg(0),
            idx: VReg(1),
            val: VReg(2),
            ty: Type::Int,
        };
        i.map_regs(&mut |r| VReg(r.0 + 10));
        assert_eq!(
            i,
            NInst::AStoreOp {
                arr: VReg(10),
                idx: VReg(11),
                val: VReg(12),
                ty: Type::Int,
            }
        );
    }

    #[test]
    fn fresh_reg_monotonic() {
        let mut f = sample();
        let a = f.fresh_reg();
        let b = f.fresh_reg();
        assert_eq!(a, VReg(3));
        assert_eq!(b, VReg(4));
        assert_eq!(f.nregs, 5);
    }
}
