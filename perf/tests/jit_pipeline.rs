//! The benchmark's pass-by-pass JIT pipeline must do exactly the work
//! `jem_jvm::compile` does, or its per-pass times would measure
//! something else.

use jem_apps::all_workloads;
use jem_core::partition::reachable;
use jem_jvm::{compile, OptLevel};
use jem_perf::jitpass::compile_timed;

#[test]
fn pass_by_pass_pipeline_reproduces_compile_reports() {
    let mut compiled = 0;
    for w in all_workloads() {
        let program = w.program();
        for m in reachable(program, w.potential_method()) {
            for level in OptLevel::ALL {
                let want = compile(program, m, level).report;
                let got = compile_timed(program, m, level);
                let at = format!("{} {} at {level}", w.name(), program.qualified_name(m));
                assert_eq!(got.per_pass, want.per_pass, "{at}: passes");
                assert_eq!(got.work_units(), want.work_units, "{at}: work units");
                assert_eq!(got.nir_insts, want.nir_insts, "{at}: NIR size");
                assert_eq!(got.code_bytes, want.code_bytes, "{at}: code bytes");
                assert_eq!(got.spills, want.spills, "{at}: spills");
                compiled += 1;
            }
        }
    }
    assert!(compiled > 24, "every app has a non-trivial plan");
}
