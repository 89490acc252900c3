//! The JIT pipeline, pass by pass, timed from outside.
//!
//! [`compile_timed`] calls each pass's public entry point in the order
//! `jem_jvm::jit::compile` does and times every call. A test checks
//! that it reproduces `compile`'s `CompileReport` (pass names, work
//! units, NIR size, code bytes) for every app, plan method and level,
//! so the per-pass times measure the real JIT's work.

use jem_jvm::emit::emit;
use jem_jvm::lower::lower;
use jem_jvm::opt::{copyprop, cse, dce, inline, licm, strength};
use jem_jvm::{MethodId, OptLevel, Program};
use std::time::Instant;

/// The per-pass metrics, in pipeline order (`copyprop2`, `strength2`
/// and `cse2` fold into their first-round pass; `emit` includes
/// register allocation).
pub const PASS_METRICS: [&str; 8] = [
    "jvm.jit.lower_s",
    "jvm.jit.inline_s",
    "jvm.jit.copyprop_s",
    "jvm.jit.strength_s",
    "jvm.jit.cse_s",
    "jvm.jit.licm_s",
    "jvm.jit.dce_s",
    "jvm.jit.emit_s",
];

/// One timed compilation.
#[derive(Debug, Clone, Default)]
pub struct TimedCompile {
    /// `(pass name as in CompileReport, work units)`, in order.
    pub per_pass: Vec<(&'static str, u64)>,
    /// Host seconds per entry of [`PASS_METRICS`].
    pub secs: [f64; 8],
    /// NIR instructions after optimization.
    pub nir_insts: usize,
    /// Emitted code bytes.
    pub code_bytes: u32,
    /// Spilled registers.
    pub spills: usize,
}

impl TimedCompile {
    /// Total work units across all passes.
    pub fn work_units(&self) -> u64 {
        self.per_pass.iter().map(|(_, w)| w).sum()
    }
}

/// Compile `method` at `level`, timing each pass.
pub fn compile_timed(program: &Program, method: MethodId, level: OptLevel) -> TimedCompile {
    let mut out = TimedCompile::default();
    let mut clock = Instant::now();
    let mut lap = |out: &mut TimedCompile, slot: usize, name: &'static str, work: u64| {
        let now = Instant::now();
        out.secs[slot] += now.duration_since(clock).as_secs_f64();
        out.per_pass.push((name, work));
        clock = now;
    };

    let lowered = lower(program, method);
    lap(&mut out, 0, "lower", lowered.work_units);
    let mut func = lowered.func;
    if level >= OptLevel::L3 {
        let r = inline::run(&mut func, program, &inline::InlineConfig::default());
        lap(&mut out, 1, "inline", r.work_units);
    }
    if level >= OptLevel::L2 {
        let r = copyprop::run(&mut func);
        lap(&mut out, 2, "copyprop", r.work_units);
        let r = strength::run(&mut func);
        lap(&mut out, 3, "strength", r.work_units);
        let r = cse::run(&mut func);
        lap(&mut out, 4, "cse", r.work_units);
        let r = licm::run(&mut func);
        lap(&mut out, 5, "licm", r.work_units);
        let r = copyprop::run(&mut func);
        lap(&mut out, 2, "copyprop2", r.work_units);
        let r = strength::run(&mut func);
        lap(&mut out, 3, "strength2", r.work_units);
        let r = cse::run(&mut func);
        lap(&mut out, 4, "cse2", r.work_units);
        let r = dce::run(&mut func);
        lap(&mut out, 6, "dce", r.work_units);
    }
    let emitted = emit(func, level);
    lap(&mut out, 7, "regalloc+emit", emitted.work_units);
    out.nir_insts = emitted.code.func.len();
    out.code_bytes = emitted.code.code_bytes;
    out.spills = emitted.code.spill_slots.len();
    out
}
