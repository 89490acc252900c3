//! The native-code executor.
//!
//! Runs a method's pre-decoded executable plan (an
//! [`XCode`], compiled at install time from the JIT's
//! [`NativeCode`]): NIR semantics over a virtual register file, with
//! every emitted micro-instruction issued to the simulated
//! [`Machine`](jem_energy::Machine) — instruction fetches walk the
//! method's code region (so big, heavily inlined Local3 bodies exert
//! real I-cache pressure), heap accesses touch their true simulated
//! addresses, and spilled registers generate frame traffic.
//!
//! The hot loop interprets compact fixed-size [`XOp`]s rather than the
//! NIR itself: register numbers are pre-narrowed, operators pre-split
//! into per-op variants, inline-cache slots precomputed, so dispatch
//! is one match on a 24-byte op with no nested decoding. It runs one
//! [`Segment`]'s stream after another: the body's semantics first, then
//! one replay charges every instruction of the segment, then the tail
//! runs. The stream is the segment's instructions without the jumps it
//! runs on through and the register copies it no longer needs, so it
//! runs fewer ops than the segment charges (see [`crate::runplan`] for
//! why both are bit-exact with charging each instruction before its
//! semantics).
//!
//! The segment loop takes each tail itself: a branch, jump or return
//! picks the next segment or the return value in line, and a call
//! whose callee is native enters the callee's frame directly, filling
//! its register file straight from the caller's argument registers.
//! Such a call makes [`Vm::invoke`]'s checks through the same
//! `Vm::enter` (arity, then depth, before any charge) and charges
//! the same argument copy in the one frame entry every native
//! invocation goes through. Calls into bytecode go through
//! [`Vm::invoke`].
//!
//! Results are bit-identical to the interpreter's: both engines share
//! [`crate::arith`] and the same heap.

use crate::arith::{f2i, fcmp, icmp};
use crate::bytecode::{ClassId, MethodId};
use crate::costs::{self, NATIVE_INSTR_BYTES};
use crate::emit::{MicroMem, NativeCode};
use crate::heap::Heap;
use crate::runplan::{Segment, XCode, XOp, NONE, SEG_ADDRS};
use crate::value::{Handle, Type, Value};
use crate::vm::{MethodCode, Vm};
use crate::VmError;
use jem_energy::{InstrClass, MemOp};
use std::cell::Cell;
use std::ops::Range;
use std::rc::Rc;

/// Where control goes after a segment's tail.
enum Ctl {
    /// On to this segment.
    Seg(u32),
    /// Return from the method.
    Ret(Option<Value>),
}

/// Execute `code` through its pre-decoded plan `x` (installed at
/// simulated address `base`) with `args`, in a frame one call level
/// below the caller ([`Vm::depth`] already counts it).
///
/// `ics` holds the method's monomorphic inline caches, indexed by the
/// virtual call's emitted instruction offset: `(class << 32) | target`
/// packed per site, `u64::MAX` when cold. The cache memoizes the
/// immutable program's vtable lookups, so hits are observationally
/// identical to the full resolution path.
///
/// Each segment of `x` is charged with one replay of its merged plan,
/// bit-exact with stepping its micros one by one (see
/// [`jem_energy::Machine::step_seq`]). The cold paths — a failing body
/// instruction and a step budget too small for a whole segment — step
/// `code`'s emitted micros one flat position at a time instead.
///
/// # Errors
/// Any [`VmError`] raised by the executed code.
pub fn run(
    vm: &mut Vm<'_>,
    code: &NativeCode,
    x: &XCode,
    base: u64,
    ics: &[Cell<u64>],
    args: Vec<Value>,
) -> Result<Option<Value>, VmError> {
    let frame = Frame::new(vm, code, x, base, ics);
    let out = frame.enter(vm, args.len(), |regs| regs.copy_from_slice(&args));
    vm.put_buf(args);
    out
}

/// Call `m` from native code with `nargs` arguments, the receiver
/// `recv` (for a virtual call) then registers `args` of `regs`. A
/// native callee's frame is filled straight from `regs`; any other
/// callee goes through [`Vm::invoke`] with an argument vector. Both
/// check arity, then depth, before charging anything.
fn call_method(
    vm: &mut Vm<'_>,
    m: MethodId,
    recv: Option<Value>,
    args: &[u16],
    regs: &[Value],
) -> Result<Option<Value>, VmError> {
    let nargs = usize::from(recv.is_some()) + args.len();
    let MethodCode::Native {
        code,
        base,
        ics,
        plans,
    } = vm.code_of(m)
    else {
        let mut argv = vm.take_buf();
        argv.extend(recv);
        argv.extend(args.iter().map(|&r| regs[r as usize]));
        return vm.invoke(m, argv);
    };
    let (code, x, ics, base) = (Rc::clone(code), Rc::clone(plans), Rc::clone(ics), *base);
    vm.enter(m, nargs, |vm| {
        let frame = Frame::new(vm, &code, &x, base, &ics);
        frame.enter(vm, nargs, |dst| {
            let dst = match recv {
                Some(h) => {
                    dst[0] = h;
                    &mut dst[1..]
                }
                None => dst,
            };
            for (d, &r) in dst.iter_mut().zip(args) {
                *d = regs[r as usize];
            }
        })
    })
}

/// One native invocation: its code, plan and inline caches, and where
/// its micros are charged (the code's simulated base address and the
/// invocation's spill frame).
struct Frame<'c> {
    code: &'c NativeCode,
    x: &'c XCode,
    ics: &'c [Cell<u64>],
    base: u64,
    frame_base: u64,
}

impl<'c> Frame<'c> {
    /// The frame of an invocation at the VM's current call depth.
    fn new(
        vm: &Vm<'_>,
        code: &'c NativeCode,
        x: &'c XCode,
        base: u64,
        ics: &'c [Cell<u64>],
    ) -> Self {
        Frame {
            code,
            x,
            ics,
            base,
            frame_base: costs::FRAME_BASE + u64::from(vm.depth()) * 8192,
        }
    }

    /// The one frame entry: a pooled register file whose first `nargs`
    /// registers `fill` writes, the argument copy charged, then the
    /// invocation run. The register file goes back to the pool on
    /// every exit.
    #[inline]
    fn enter(
        &self,
        vm: &mut Vm<'_>,
        nargs: usize,
        fill: impl FnOnce(&mut [Value]),
    ) -> Result<Option<Value>, VmError> {
        let mut regs = vm.take_buf();
        regs.resize(self.code.func.nregs as usize, Value::Int(0));
        fill(&mut regs[..nargs]);
        vm.machine.charge_mix(&costs::arg_copy_mix(nargs));
        let out = self.run(vm, &mut regs);
        vm.put_buf(regs);
        out
    }

    /// Run the invocation from block 0's entry, one segment at a time.
    fn run(&self, vm: &mut Vm<'_>, regs: &mut [Value]) -> Result<Option<Value>, VmError> {
        let ops = &self.x.ops;
        // Heap addresses of the current segment's heap micros, in issue
        // order.
        let mut addrs = [None; SEG_ADDRS];
        let mut si = self.x.entry[0] as usize;
        loop {
            let seg = &self.x.segs[si];
            let (start, end) = (seg.start as usize, seg.end as usize);
            let tail = &ops[end - 1];
            if vm.options.step_budget.saturating_sub(vm.steps) < seg.steps {
                self.step_each(vm, regs, seg)?;
            } else {
                // Body semantics first, recording heap addresses...
                let mut n = 0;
                for (k, op) in ops[start..end - 1].iter().enumerate() {
                    match plain(&mut vm.heap, regs, op) {
                        Ok(None) => {}
                        Ok(Some(a)) => {
                            addrs[n] = Some(a);
                            n += 1;
                        }
                        Err(e) => {
                            self.charge_failed(vm, regs, seg, start + k, &addrs[..n])?;
                            return Err(e);
                        }
                    }
                }
                // ...then the tail's address and one replay for the
                // whole segment.
                if tail.touches_heap() {
                    addrs[n] = heap_addr(&vm.heap, regs, tail);
                    n += 1;
                }
                vm.machine
                    .step_seq(&seg.plan, self.base, self.frame_base, &addrs[..n]);
                vm.bump_steps(seg.steps)?;
            }
            si = match self.tail(vm, regs, tail, seg)? {
                Ctl::Seg(s) => s as usize,
                Ctl::Ret(v) => return Ok(v),
            };
        }
    }

    /// The semantics of segment `seg`'s tail `op`, once the segment is
    /// charged, and where control goes next. Branches, jumps and
    /// returns touch neither the heap nor the machine; calls,
    /// allocations and a tail cut by the heap cap fall through to
    /// `seg.next`.
    #[inline(always)]
    fn tail(
        &self,
        vm: &mut Vm<'_>,
        regs: &mut [Value],
        op: &XOp,
        seg: &Segment,
    ) -> Result<Ctl, VmError> {
        let block = match *op {
            XOp::Br { cond, a, b, t, e } => {
                let (x, y) = (regs[a as usize].as_int()?, regs[b as usize].as_int()?);
                if cond.eval(x, y) {
                    t
                } else {
                    e
                }
            }
            XOp::Jmp { t } => t,
            XOp::Ret { v } => return Ok(Ctl::Ret((v != NONE).then(|| regs[v as usize]))),
            XOp::Call {
                d,
                argc,
                target,
                argi,
            } => {
                let args = &self.x.args_pool[argi as usize..argi as usize + argc as usize];
                let ret = call_method(vm, MethodId(target), None, args, regs)?;
                set_result(regs, d, ret);
                return Ok(Ctl::Seg(seg.next));
            }
            XOp::CallVirt {
                d,
                slot,
                recv,
                argc,
                ic,
                argi,
            } => {
                let h = regs[recv as usize].as_ref()?;
                let target = self.resolve(vm, h, slot, ic)?;
                let args = &self.x.args_pool[argi as usize..argi as usize + argc as usize];
                let ret = call_method(vm, target, Some(Value::Ref(h)), args, regs)?;
                set_result(regs, d, ret);
                return Ok(Ctl::Seg(seg.next));
            }
            _ => {
                other_tail(vm, regs, op)?;
                return Ok(Ctl::Seg(seg.next));
            }
        };
        Ok(Ctl::Seg(self.x.entry[block as usize]))
    }

    /// The target of a virtual call on `h` through vtable slot `slot`,
    /// from inline cache `ic` when it holds `h`'s class.
    fn resolve(&self, vm: &Vm<'_>, h: Handle, slot: u16, ic: u32) -> Result<MethodId, VmError> {
        let class = vm.heap.class_of(h)?;
        let ic = self.ics.get(ic as usize);
        let cached = ic.map_or(u64::MAX, Cell::get);
        if (cached >> 32) as u32 == class {
            return Ok(MethodId(cached as u32));
        }
        let vtable = &vm.program.class(ClassId(class)).vtable;
        let t = *vtable.get(slot as usize).ok_or(VmError::BadVSlot(slot))?;
        if let Some(c) = ic {
            c.set((u64::from(class) << 32) | u64::from(t.0));
        }
        Ok(t)
    }

    /// Charge and run segment `seg` in reference order, one flat
    /// position at a time, up to its tail's semantics, which
    /// [`Frame::tail`] then runs: the step budget runs out inside it.
    /// Each position is charged, then the body op at it, if there is
    /// one, runs.
    #[cold]
    fn step_each(&self, vm: &mut Vm<'_>, regs: &mut [Value], seg: &Segment) -> Result<(), VmError> {
        let mut i = seg.flat as usize;
        let last = seg.end as usize - 1;
        for k in seg.start as usize..=last {
            let (op, at) = (&self.x.ops[k], self.x.at[k] as usize);
            self.charge_dropped(vm, i..at)?;
            self.charge(vm, at, heap_addr(&vm.heap, regs, op))?;
            if k < last {
                plain(&mut vm.heap, regs, op)?;
            }
            i = at + 1;
        }
        Ok(())
    }

    /// Charge segment `seg`'s flat positions one at a time, up to and
    /// including the one of stream op `failed`, as the reference has
    /// when that op's semantics fail: the stream ops before it at their
    /// `recorded` heap addresses, `failed` at the address its operands
    /// give.
    #[cold]
    fn charge_failed(
        &self,
        vm: &mut Vm<'_>,
        regs: &[Value],
        seg: &Segment,
        failed: usize,
        recorded: &[Option<u64>],
    ) -> Result<(), VmError> {
        let mut recorded = recorded.iter().copied();
        let mut i = seg.flat as usize;
        for k in seg.start as usize..=failed {
            let (op, at) = (&self.x.ops[k], self.x.at[k] as usize);
            let a = if k == failed {
                heap_addr(&vm.heap, regs, op)
            } else if op.touches_heap() {
                recorded.next().flatten()
            } else {
                None
            };
            self.charge_dropped(vm, i..at)?;
            self.charge(vm, at, a)?;
            i = at + 1;
        }
        Ok(())
    }

    /// Charge flat positions `range`, whose ops the stream dropped: a
    /// followed `Jmp` or a `Mov`, neither touching the heap.
    fn charge_dropped(&self, vm: &mut Vm<'_>, mut range: Range<usize>) -> Result<(), VmError> {
        range.try_for_each(|i| self.charge(vm, i, None))
    }

    /// Charge flat position `i` the reference way — one
    /// [`Machine::step`](jem_energy::Machine::step) per micro its
    /// origin emitted, every heap micro at `heap_addr` — and bump its
    /// steps.
    fn charge(&self, vm: &mut Vm<'_>, i: usize, heap_addr: Option<u64>) -> Result<(), VmError> {
        let (block, ii) = self.x.origins[i];
        let (block, ii) = (block as usize, ii as usize);
        let seq = &self.code.micros[block][ii];
        let mut pc = self.base + u64::from(self.code.offsets[block][ii]) * NATIVE_INSTR_BYTES;
        let mut spill_cursor = 0u64;
        for micro in seq {
            let addr = match micro.mem {
                MicroMem::None => None,
                MicroMem::Frame => {
                    // Distinct spill slots per access in sequence.
                    spill_cursor += 1;
                    Some(self.frame_base + spill_cursor * 8)
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
        vm.bump_steps(seq.len().max(1) as u64)
    }
}

/// The heap address `op`'s heap micro accesses, resolved from the
/// registers before its semantics as the reference does (`None` when
/// the operands cannot address the heap; the semantics then fail).
fn heap_addr(heap: &Heap, regs: &[Value], op: &XOp) -> Option<u64> {
    match op {
        XOp::ALoad { arr, idx, .. } | XOp::AStore { arr, idx, .. } => {
            match (regs[*arr as usize], regs[*idx as usize]) {
                (Value::Ref(h), Value::Int(i)) if i >= 0 => {
                    Some(heap.element_address(h, i as usize))
                }
                _ => None,
            }
        }
        XOp::ArrLen { arr: r, .. } | XOp::CallVirt { recv: r, .. } => match regs[*r as usize] {
            Value::Ref(h) => Some(heap.address_of(h)),
            _ => None,
        },
        XOp::GetField { obj, slot, .. } | XOp::PutField { obj, slot, .. } => {
            match regs[*obj as usize] {
                Value::Ref(h) => Some(heap.field_address(h, *slot as usize)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Write a call's returned value to its destination register, if the
/// call has one and the callee returned a value.
#[inline]
fn set_result(regs: &mut [Value], d: u16, ret: Option<Value>) {
    if d != NONE {
        if let Some(v) = ret {
            regs[d as usize] = v;
        }
    }
}

/// The semantics of a tail that neither calls nor transfers control:
/// an allocation, which charges its zeroing, or a body op that ends a
/// segment at the heap cap.
#[inline(never)]
fn other_tail(vm: &mut Vm<'_>, regs: &mut [Value], op: &XOp) -> Result<(), VmError> {
    match *op {
        XOp::NewArr { d, ty, len } => {
            let n = regs[len as usize].as_int()?;
            if n < 0 {
                return Err(VmError::NegativeArrayLength(n));
            }
            let bytes = match ty {
                Type::Float => 8,
                _ => 4,
            } * n as u64;
            vm.machine.charge_mix(&costs::alloc_zero_mix(bytes));
            regs[d as usize] = Value::Ref(vm.heap.alloc_array(ty, n as usize));
        }
        XOp::NewObj { d, class } => {
            let c = vm.program.class(ClassId(class));
            vm.machine
                .charge_mix(&costs::alloc_zero_mix(8 * c.field_types.len() as u64));
            regs[d as usize] = Value::Ref(vm.heap.alloc_object(class, &c.field_types));
        }
        _ => {
            plain(&mut vm.heap, regs, op)?;
        }
    }
    Ok(())
}

/// The semantics of a body op: it touches registers and the heap only,
/// never the machine. Returns the heap address its heap micro
/// accessed, from the same object lookup as the access itself.
///
/// Always inlined: a call per body op cost fig7-grid about 13% of its
/// throughput.
#[inline(always)]
fn plain(heap: &mut Heap, regs: &mut [Value], op: &XOp) -> Result<Option<u64>, VmError> {
    macro_rules! geti {
        ($r:expr) => {
            regs[$r as usize].as_int()?
        };
    }
    macro_rules! getf {
        ($r:expr) => {
            regs[$r as usize].as_float()?
        };
    }
    macro_rules! getref {
        ($r:expr) => {
            regs[$r as usize].as_ref()?
        };
    }
    macro_rules! set {
        ($r:expr, $v:expr) => {
            regs[$r as usize] = $v
        };
    }
    // Flattened integer/float binary ops: operands load left-to-right
    // then apply, exactly as `arith::ibin`/`arith::fbin` would.
    macro_rules! ibin {
        ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let $x = geti!(*$a);
            let $y = geti!(*$b);
            set!(*$d, Value::Int($e));
        }};
    }
    macro_rules! fbin {
        ($d:expr, $a:expr, $b:expr, |$x:ident, $y:ident| $e:expr) => {{
            let $x = getf!(*$a);
            let $y = getf!(*$b);
            set!(*$d, Value::Float($e));
        }};
    }
    // Index check shared by array loads and stores: a negative index
    // reports the array's length.
    macro_rules! index {
        ($h:expr, $idx:expr) => {{
            let i = geti!(*$idx);
            if i < 0 {
                return Err(VmError::IndexOutOfBounds {
                    index: usize::MAX,
                    len: heap.array_len($h)?,
                });
            }
            i as usize
        }};
    }

    match op {
        XOp::IConst { d, v } => set!(*d, Value::Int(*v)),
        XOp::FConst { d, v } => set!(*d, Value::Float(*v)),
        XOp::NullConst { d } => set!(*d, Value::Null),
        XOp::Mov { d, s } => set!(*d, regs[*s as usize]),
        XOp::IAdd { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_add(y)),
        XOp::ISub { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_sub(y)),
        XOp::IMul { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_mul(y)),
        XOp::IDiv { d, a, b } => {
            let x = geti!(*a);
            let y = geti!(*b);
            if y == 0 {
                return Err(VmError::DivByZero);
            }
            set!(*d, Value::Int(x.wrapping_div(y)));
        }
        XOp::IRem { d, a, b } => {
            let x = geti!(*a);
            let y = geti!(*b);
            if y == 0 {
                return Err(VmError::DivByZero);
            }
            set!(*d, Value::Int(x.wrapping_rem(y)));
        }
        XOp::IAnd { d, a, b } => ibin!(d, a, b, |x, y| x & y),
        XOp::IOr { d, a, b } => ibin!(d, a, b, |x, y| x | y),
        XOp::IXor { d, a, b } => ibin!(d, a, b, |x, y| x ^ y),
        XOp::IShl { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_shl(y as u32 & 31)),
        XOp::IShr { d, a, b } => ibin!(d, a, b, |x, y| x.wrapping_shr(y as u32 & 31)),
        XOp::IShlImm { d, a, k } => {
            let r = geti!(*a).wrapping_shl(u32::from(*k));
            set!(*d, Value::Int(r));
        }
        XOp::INeg { d, a } => {
            let r = geti!(*a).wrapping_neg();
            set!(*d, Value::Int(r));
        }
        XOp::ICmp { d, a, b } => ibin!(d, a, b, |x, y| icmp(x, y)),
        XOp::FAdd { d, a, b } => fbin!(d, a, b, |x, y| x + y),
        XOp::FSub { d, a, b } => fbin!(d, a, b, |x, y| x - y),
        XOp::FMul { d, a, b } => fbin!(d, a, b, |x, y| x * y),
        XOp::FDiv { d, a, b } => fbin!(d, a, b, |x, y| x / y),
        XOp::FNeg { d, a } => {
            let r = -getf!(*a);
            set!(*d, Value::Float(r));
        }
        XOp::FCmp { d, a, b } => {
            let x = getf!(*a);
            let y = getf!(*b);
            set!(*d, Value::Int(fcmp(x, y)));
        }
        XOp::I2F { d, a } => {
            let r = f64::from(geti!(*a));
            set!(*d, Value::Float(r));
        }
        XOp::F2I { d, a } => {
            let r = f2i(getf!(*a));
            set!(*d, Value::Int(r));
        }
        XOp::ALoad { d, arr, idx } => {
            let h = getref!(*arr);
            let i = index!(h, idx);
            let (v, addr) = heap.array_load(h, i)?;
            set!(*d, v);
            return Ok(Some(addr));
        }
        XOp::AStore { arr, idx, val } => {
            let h = getref!(*arr);
            let i = index!(h, idx);
            return heap.array_store(h, i, regs[*val as usize]).map(Some);
        }
        XOp::ArrLen { d, arr } => {
            let h = getref!(*arr);
            let n = heap.array_len(h)?;
            set!(*d, Value::Int(n as i32));
            return Ok(Some(heap.address_of(h)));
        }
        XOp::GetField { d, obj, slot } => {
            let h = getref!(*obj);
            let v = heap.field_get(h, *slot as usize)?;
            set!(*d, v);
            return Ok(Some(heap.field_address(h, *slot as usize)));
        }
        XOp::PutField { obj, slot, val } => {
            let h = getref!(*obj);
            heap.field_set(h, *slot as usize, regs[*val as usize])?;
            return Ok(Some(heap.field_address(h, *slot as usize)));
        }
        XOp::NewArr { .. }
        | XOp::NewObj { .. }
        | XOp::Call { .. }
        | XOp::CallVirt { .. }
        | XOp::Jmp { .. }
        | XOp::Br { .. }
        | XOp::Ret { .. } => unreachable!("segment-ending ops run through `Frame::tail`"),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::jit;
    use crate::verify::verify_program;
    use crate::vm::Vm;
    use std::rc::Rc;

    /// Compile + install `f` at the given level, run, and return
    /// (result, energy_nj, cycles).
    fn run_compiled(
        mb: ModuleBuilder,
        name: &str,
        level: crate::emit::OptLevel,
        args: Vec<Value>,
    ) -> (Option<Value>, f64, u64) {
        let p = mb.compile().unwrap();
        verify_program(&p).unwrap();
        let id = p.find_method(MODULE_CLASS, name).unwrap();
        let mut vm = Vm::client(&p);
        let compiled = jit::compile(&p, id, level);
        vm.install_native(id, Rc::new(compiled.code));
        let out = vm.invoke(id, args).unwrap();
        (out, vm.machine.energy().nanojoules(), vm.machine.cycles())
    }

    fn sum_module() -> ModuleBuilder {
        let mut m = ModuleBuilder::new();
        m.func(
            "sum",
            vec![("n", DType::Int)],
            Some(DType::Int),
            vec![
                let_("acc", iconst(0)),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![assign("acc", var("acc").add(var("i")))],
                ),
                ret(var("acc")),
            ],
        );
        m
    }

    #[test]
    fn compiled_sum_matches_interpreter() {
        for level in crate::emit::OptLevel::ALL {
            let (out, _, _) = run_compiled(sum_module(), "sum", level, vec![Value::Int(50)]);
            assert_eq!(out, Some(Value::Int(1225)), "{level}");
        }
    }

    #[test]
    fn compiled_code_uses_less_energy_than_interpreter() {
        let p = sum_module().compile().unwrap();
        let id = p.find_method(MODULE_CLASS, "sum").unwrap();

        let mut interp_vm = Vm::client(&p);
        interp_vm.invoke(id, vec![Value::Int(500)]).unwrap();
        let interp_energy = interp_vm.machine.energy();

        let mut native_vm = Vm::client(&p);
        let compiled = jit::compile(&p, id, crate::emit::OptLevel::L1);
        native_vm.install_native(id, Rc::new(compiled.code));
        native_vm.invoke(id, vec![Value::Int(500)]).unwrap();
        let native_energy = native_vm.machine.energy();

        let ratio = interp_energy.ratio(native_energy);
        assert!(
            ratio > 2.5 && ratio < 15.0,
            "interpreter/native energy ratio {ratio}"
        );
    }

    #[test]
    fn optimized_code_is_cheaper_to_run() {
        let (out1, e1, c1) = run_compiled(
            sum_module(),
            "sum",
            crate::emit::OptLevel::L1,
            vec![Value::Int(2000)],
        );
        let (out2, e2, c2) = run_compiled(
            sum_module(),
            "sum",
            crate::emit::OptLevel::L2,
            vec![Value::Int(2000)],
        );
        assert_eq!(out1, out2);
        assert!(e2 < e1, "L2 ({e2}) should beat L1 ({e1})");
        assert!(c2 < c1, "L2 cycles ({c2}) should beat L1 ({c1})");
    }

    #[test]
    fn mixed_mode_calls_work_both_ways() {
        // callee compiled, caller interpreted — and vice versa.
        let mut m = ModuleBuilder::new();
        m.func(
            "double",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![ret(var("x").mul(iconst(2)))],
        );
        m.func(
            "main",
            vec![("x", DType::Int)],
            Some(DType::Int),
            vec![ret(call("double", vec![var("x")]).add(iconst(1)))],
        );
        let p = m.compile().unwrap();
        let dbl = p.find_method(MODULE_CLASS, "double").unwrap();
        let main = p.find_method(MODULE_CLASS, "main").unwrap();

        // Case 1: only callee compiled.
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, dbl, crate::emit::OptLevel::L1);
        vm.install_native(dbl, Rc::new(c.code));
        assert_eq!(
            vm.invoke(main, vec![Value::Int(21)]).unwrap(),
            Some(Value::Int(43))
        );

        // Case 2: only caller compiled.
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, main, crate::emit::OptLevel::L1);
        vm.install_native(main, Rc::new(c.code));
        assert_eq!(
            vm.invoke(main, vec![Value::Int(21)]).unwrap(),
            Some(Value::Int(43))
        );
    }

    #[test]
    fn runtime_errors_surface_from_native_code() {
        let mut m = ModuleBuilder::new();
        m.func(
            "div",
            vec![("a", DType::Int), ("b", DType::Int)],
            Some(DType::Int),
            vec![ret(var("a").div(var("b")))],
        );
        let p = m.compile().unwrap();
        let id = p.find_method(MODULE_CLASS, "div").unwrap();
        let mut vm = Vm::client(&p);
        let c = jit::compile(&p, id, crate::emit::OptLevel::L2);
        vm.install_native(id, Rc::new(c.code));
        assert_eq!(
            vm.invoke(id, vec![Value::Int(1), Value::Int(0)]),
            Err(VmError::DivByZero)
        );
    }

    #[test]
    fn arrays_virtuals_and_floats_in_native_code() {
        let mut m = ModuleBuilder::new();
        m.class("Acc", None, &[("total", DType::Float)]);
        m.virtual_method(
            "Acc",
            "add",
            vec![("x", DType::Float)],
            None,
            vec![set_field(
                var("this"),
                "total",
                var("this").field("total").add(var("x")),
            )],
        );
        m.func(
            "main",
            vec![("n", DType::Int)],
            Some(DType::Float),
            vec![
                let_("a", new_arr(DType::Float, var("n"))),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![set_index(
                        var("a"),
                        var("i"),
                        var("i").to_f().mul(fconst(0.5)),
                    )],
                ),
                let_("acc", new_obj("Acc")),
                for_(
                    "i",
                    iconst(0),
                    var("n"),
                    vec![expr_stmt(
                        var("acc").vcall("add", vec![var("a").index(var("i"))]),
                    )],
                ),
                ret(var("acc").field("total")),
            ],
        );
        for level in crate::emit::OptLevel::ALL {
            let (out, _, _) = run_compiled(
                {
                    // rebuild the module each time (ModuleBuilder is
                    // consumed by compile)
                    let mut m2 = ModuleBuilder::new();
                    m2.class("Acc", None, &[("total", DType::Float)]);
                    m2.virtual_method(
                        "Acc",
                        "add",
                        vec![("x", DType::Float)],
                        None,
                        vec![set_field(
                            var("this"),
                            "total",
                            var("this").field("total").add(var("x")),
                        )],
                    );
                    m2.func(
                        "main",
                        vec![("n", DType::Int)],
                        Some(DType::Float),
                        vec![
                            let_("a", new_arr(DType::Float, var("n"))),
                            for_(
                                "i",
                                iconst(0),
                                var("n"),
                                vec![set_index(
                                    var("a"),
                                    var("i"),
                                    var("i").to_f().mul(fconst(0.5)),
                                )],
                            ),
                            let_("acc", new_obj("Acc")),
                            for_(
                                "i",
                                iconst(0),
                                var("n"),
                                vec![expr_stmt(
                                    var("acc").vcall("add", vec![var("a").index(var("i"))]),
                                )],
                            ),
                            ret(var("acc").field("total")),
                        ],
                    );
                    m2
                },
                "main",
                level,
                vec![Value::Int(10)],
            );
            // 0.5 * (0 + 1 + ... + 9) = 22.5
            assert_eq!(out, Some(Value::Float(22.5)), "{level}");
        }
    }
}
