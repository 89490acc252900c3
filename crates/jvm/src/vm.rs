//! The MJVM runtime: mixed-mode method dispatch.
//!
//! A [`Vm`] ties a [`Program`] to a simulated [`Machine`] and a
//! [`Heap`]. Each method is currently either in bytecode form
//! (executed by [`crate::interp`]) or native form (a JIT-compiled
//! [`NativeCode`] object executed by [`crate::exec`]); calls cross
//! freely between the two, as in a real mixed-mode JVM. Installing
//! native code assigns it a simulated address range so the I-cache
//! model sees realistic code footprints — including the larger
//! footprints of aggressively inlined (Local3) code.

use crate::bytecode::MethodId;
use crate::class::Program;
use crate::costs::{NATIVE_CODE_BASE, NATIVE_INSTR_BYTES};
use crate::decode::{CostCache, InterpCode};
use crate::emit::NativeCode;
use crate::heap::Heap;
use crate::runplan::XCode;
use crate::value::Value;
use crate::VmError;
use jem_energy::{Machine, MachineConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default for [`VmOptions::slow_interp`].
static SLOW_INTERP_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Select which interpreter engine freshly constructed [`VmOptions`]
/// default to: `true` routes bytecode methods through the reference
/// per-op interpreter ([`crate::interp`]), `false` (the default)
/// through the pre-decoded fast path ([`crate::decode`]).
///
/// Both engines are observationally identical — this switch exists so
/// differential tests and `--slow-interp` bench flags can exercise the
/// reference engine through scenario layers that don't thread
/// `VmOptions` explicitly.
pub fn set_slow_interp_default(slow: bool) {
    SLOW_INTERP_DEFAULT.store(slow, Ordering::Relaxed);
}

/// Execution limits (runaway guards for property tests and experiment
/// sweeps).
#[derive(Debug, Clone, Copy)]
pub struct VmOptions {
    /// Maximum number of charged bytecode/native instructions.
    pub step_budget: u64,
    /// Maximum host call depth.
    pub max_call_depth: u32,
    /// Use the reference per-op interpreter instead of the pre-decoded
    /// fast path (see [`set_slow_interp_default`]).
    pub slow_interp: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            step_budget: u64::MAX,
            max_call_depth: 128,
            slow_interp: SLOW_INTERP_DEFAULT.load(Ordering::Relaxed),
        }
    }
}

/// Current executable form of one method.
#[derive(Debug, Clone)]
pub enum MethodCode {
    /// Interpret the class-file bytecode.
    Bytecode,
    /// Run installed native code.
    Native {
        /// The code object.
        code: Rc<NativeCode>,
        /// Simulated base address of the emitted instructions.
        base: u64,
        /// Monomorphic inline caches, one slot per emitted native
        /// instruction offset, `(class << 32) | target` per virtual
        /// call site (`u64::MAX` = cold). Pure memoization of the
        /// immutable program's vtables — never serialized; a fresh
        /// (cold) vector after resume is observationally identical.
        ics: Rc<Vec<Cell<u64>>>,
        /// The pre-decoded executable plan: flat [`crate::runplan::XOp`]
        /// stream plus one merged charge plan per segment, compiled
        /// for this machine's energy table and I-cache geometry at
        /// install time. A derived artifact — never serialized.
        plans: Rc<XCode>,
    },
}

/// The runtime.
#[derive(Debug)]
pub struct Vm<'p> {
    /// The deployed program.
    pub program: &'p Program,
    /// The object heap.
    pub heap: Heap,
    /// The machine executing this VM (energy + time accounting).
    pub machine: Machine,
    /// Execution limits.
    pub options: VmOptions,
    code: Vec<MethodCode>,
    next_code_addr: u64,
    /// Charged instruction events so far (for the step budget).
    pub steps: u64,
    pub(crate) depth: u32,
    /// Lazily built fast-path form of each bytecode method (decoded
    /// ops plus segments, for this machine's energy table) — a derived
    /// artifact, rebuilt on demand, never serialized.
    interp: Vec<Option<Rc<InterpCode>>>,
    /// Lazily built per-handler charge plans for this machine's
    /// energy table.
    cost_cache: Option<Rc<CostCache>>,
    /// Reusable `Value` buffers (argument vectors, register files,
    /// operand stacks), recycled across invocations so the hot
    /// engines stay allocation-free on the call path.
    scratch: Vec<Vec<Value>>,
}

impl<'p> Vm<'p> {
    /// A VM for `program` on `machine`.
    pub fn new(program: &'p Program, machine: Machine) -> Self {
        Vm {
            program,
            heap: Heap::new(),
            machine,
            options: VmOptions::default(),
            code: vec![MethodCode::Bytecode; program.methods.len()],
            next_code_addr: NATIVE_CODE_BASE,
            steps: 0,
            depth: 0,
            interp: vec![None; program.methods.len()],
            cost_cache: None,
            scratch: Vec::new(),
        }
    }

    /// Take a cleared scratch buffer from the pool (empty, but with
    /// whatever capacity its last user grew it to).
    #[inline]
    pub(crate) fn take_buf(&mut self) -> Vec<Value> {
        self.scratch.pop().unwrap_or_default()
    }

    /// Return a scratch buffer to the pool.
    #[inline]
    pub(crate) fn put_buf(&mut self, mut buf: Vec<Value>) {
        if self.scratch.len() < 64 {
            buf.clear();
            self.scratch.push(buf);
        }
    }

    /// Convenience: a VM on the paper's mobile-client machine.
    pub fn client(program: &'p Program) -> Self {
        Vm::new(program, Machine::new(MachineConfig::mobile_client()))
    }

    /// Convenience: a VM on the paper's 750 MHz server machine.
    pub fn server(program: &'p Program) -> Self {
        Vm::new(program, Machine::new(MachineConfig::sparc_server()))
    }

    /// The current code form of `m`.
    pub fn code_of(&self, m: MethodId) -> &MethodCode {
        &self.code[m.0 as usize]
    }

    /// True when `m` has native code installed.
    pub fn is_native(&self, m: MethodId) -> bool {
        matches!(self.code[m.0 as usize], MethodCode::Native { .. })
    }

    /// Install native code for `m`, laying it out in the simulated
    /// code region. Replaces any previous code (recompilation).
    pub fn install_native(&mut self, m: MethodId, code: Rc<NativeCode>) {
        let base = self.next_code_addr;
        self.next_code_addr += code.code_bytes as u64;
        // Keep code regions line-aligned.
        self.next_code_addr = (self.next_code_addr + 31) & !31;
        let nslots = (code.code_bytes as u64 / NATIVE_INSTR_BYTES) as usize + 1;
        let ics = Rc::new(vec![Cell::new(u64::MAX); nslots]);
        let plans = Rc::new(crate::runplan::compile(self.machine.config(), &code));
        self.code[m.0 as usize] = MethodCode::Native {
            code,
            base,
            ics,
            plans,
        };
    }

    /// Revert `m` to interpreted execution.
    pub fn deinstall(&mut self, m: MethodId) {
        self.code[m.0 as usize] = MethodCode::Bytecode;
    }

    /// Invoke a method with the given argument values. For virtual
    /// methods the receiver is `args[0]`.
    ///
    /// # Errors
    /// Any [`VmError`] raised during execution, including arity
    /// mismatches of this entry invocation.
    pub fn invoke(&mut self, m: MethodId, args: Vec<Value>) -> Result<Option<Value>, VmError> {
        let method = self.program.method(m);
        if args.len() != method.invoke_arity() {
            return Err(VmError::ArityMismatch {
                expected: method.invoke_arity(),
                got: args.len(),
            });
        }
        if self.depth >= self.options.max_call_depth {
            return Err(VmError::CallDepthExceeded);
        }
        self.depth += 1;
        let result = match &self.code[m.0 as usize] {
            MethodCode::Bytecode => {
                if self.options.slow_interp {
                    crate::interp::run(self, m, args)
                } else {
                    crate::decode::run(self, m, args)
                }
            }
            MethodCode::Native {
                code,
                base,
                ics,
                plans,
            } => {
                let base = *base;
                let code = Rc::clone(code);
                let ics = Rc::clone(ics);
                let plans = Rc::clone(plans);
                crate::exec::run(self, &code, &plans, base, &ics, args)
            }
        };
        self.depth -= 1;
        result
    }

    /// Current host call depth (used for frame addressing).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The fast-path form of `m` — decoded ops and their segments —
    /// built on first use.
    pub(crate) fn interp_code(&mut self, m: MethodId) -> Rc<InterpCode> {
        if let Some(c) = &self.interp[m.0 as usize] {
            return Rc::clone(c);
        }
        let program = self.program;
        let dm = crate::decode::decode_method(program.method(m), &|mid| {
            program.method(mid).sig.arity() as u32
        });
        let segs = crate::decode::compile_runs(program, m, &dm, &self.cost_cache());
        let c = Rc::new(InterpCode { dm, segs });
        self.interp[m.0 as usize] = Some(Rc::clone(&c));
        c
    }

    /// The per-handler charge plans for this machine's energy table,
    /// compiled on first use.
    pub(crate) fn cost_cache(&mut self) -> Rc<CostCache> {
        if let Some(c) = &self.cost_cache {
            return Rc::clone(c);
        }
        let c = Rc::new(CostCache::new(&self.machine.config().table));
        self.cost_cache = Some(Rc::clone(&c));
        c
    }

    /// Charge `n` instruction events against the step budget.
    ///
    /// # Errors
    /// [`VmError::StepBudgetExceeded`] once the budget is exhausted.
    #[inline]
    pub(crate) fn bump_steps(&mut self, n: u64) -> Result<(), VmError> {
        self.steps += n;
        if self.steps > self.options.step_budget {
            Err(VmError::StepBudgetExceeded)
        } else {
            Ok(())
        }
    }

    /// Reset heap and accounting for a fresh run (installed native
    /// code is kept, as a warm JVM would).
    pub fn reset_run(&mut self) {
        self.heap.clear();
        self.machine.reset();
        self.steps = 0;
        self.depth = 0;
    }
}
