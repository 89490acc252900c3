//! interp-bench — interpreter dispatch-loop microbenchmark.
//!
//! Unlike the figure bins, this runs the MJVM interpreter *directly*
//! (no scenario runner, radio, profiler or strategy layers): four
//! DSL-generated kernels chosen to stress the distinct hot paths of
//! the pre-decoded execution engine:
//!
//! * **arith** — tight integer arithmetic loop: long straight-line
//!   stretches, so almost everything executes as fused
//!   superinstructions in long segments;
//! * **call** — call-heavy: a tiny helper invoked every iteration, so
//!   invoke dispatch and frame setup dominate;
//! * **heap** — array read/modify/write traffic, so the simulated
//!   d-cache and bounds checks dominate;
//! * **float** — float arithmetic plus int↔float conversions.
//!
//! Every reported figure (steps, cycles, energy, cache counters) is
//! produced by the deterministic simulator — bit-identical across
//! machines and repeat runs — so `bench-history` gates the whole
//! document strictly and uses `total_sim_instructions` for its soft
//! wall-clock throughput gate.
//!
//! Usage: `interp-bench [--n N] [--reps N] [--slow-interp]
//! [--json-out BENCH_interp.json]` (defaults: n=600, reps=4).
//! `--slow-interp` routes execution through the reference per-op
//! interpreter — results must be identical, only wall clock moves;
//! CI diffs the two documents to prove it.

use jem_bench::{arg_usize, print_table};
use jem_jvm::dsl::*;
use jem_jvm::{MethodId, Program, Value, Vm};
use jem_obs::Json;

/// One kernel: a compiled single-function module plus its argument.
struct Kernel {
    name: &'static str,
    what: &'static str,
    program: Program,
    method: MethodId,
}

fn compile(name: &'static str, what: &'static str, m: ModuleBuilder) -> Kernel {
    let program = m.compile().unwrap_or_else(|e| panic!("{name}: {e:?}"));
    let method = program.find_method(MODULE_CLASS, "k").expect("kernel fn");
    Kernel {
        name,
        what,
        program,
        method,
    }
}

/// Tight integer arithmetic: one long straight-line loop body.
fn arith_kernel() -> Kernel {
    let mut m = ModuleBuilder::new();
    m.func(
        "k",
        vec![("n", DType::Int)],
        Some(DType::Int),
        vec![
            let_("a", iconst(1)),
            let_("b", iconst(7)),
            for_(
                "i",
                iconst(0),
                var("n"),
                vec![
                    assign(
                        "a",
                        var("a")
                            .mul(iconst(31))
                            .add(var("b"))
                            .bitxor(var("a").shr(iconst(5)))
                            .sub(var("i").shl(iconst(1))),
                    ),
                    assign(
                        "b",
                        var("b")
                            .add(var("a").bitand(iconst(1023)))
                            .bitxor(var("b").shl(iconst(2)).shr(iconst(1))),
                    ),
                ],
            ),
            ret(var("a").bitxor(var("b"))),
        ],
    );
    compile("arith", "tight integer loop (fused runs)", m)
}

/// Call-heavy: the loop body is one helper invocation.
fn call_kernel() -> Kernel {
    let mut m = ModuleBuilder::new();
    m.func(
        "g",
        vec![("x", DType::Int)],
        Some(DType::Int),
        vec![ret(var("x").mul(iconst(3)).add(iconst(1)))],
    );
    m.func(
        "k",
        vec![("n", DType::Int)],
        Some(DType::Int),
        vec![
            let_("a", iconst(0)),
            for_(
                "i",
                iconst(0),
                var("n"),
                vec![assign("a", call("g", vec![var("a").bitxor(var("i"))]))],
            ),
            ret(var("a")),
        ],
    );
    compile("call", "helper invocation per iteration", m)
}

/// Heap traffic: array read/modify/write through the simulated d-cache.
fn heap_kernel() -> Kernel {
    let mut m = ModuleBuilder::new();
    m.func(
        "k",
        vec![("n", DType::Int)],
        Some(DType::Int),
        vec![
            let_("arr", new_arr(DType::Int, iconst(256))),
            for_(
                "i",
                iconst(0),
                var("n"),
                vec![
                    let_("j", var("i").bitand(iconst(255))),
                    set_index(
                        var("arr"),
                        var("j"),
                        var("arr")
                            .index(var("j"))
                            .add(var("arr").index(var("i").mul(iconst(17)).bitand(iconst(255))))
                            .bitxor(var("i")),
                    ),
                ],
            ),
            ret(var("arr")
                .index(iconst(0))
                .add(var("arr").index(iconst(255)))),
        ],
    );
    compile("heap", "array read/modify/write (d-cache)", m)
}

/// Float arithmetic and conversions.
fn float_kernel() -> Kernel {
    let mut m = ModuleBuilder::new();
    m.func(
        "k",
        vec![("n", DType::Int)],
        Some(DType::Int),
        vec![
            let_("f", fconst(1.0)),
            for_(
                "i",
                iconst(0),
                var("n"),
                vec![assign(
                    "f",
                    var("f")
                        .mul(fconst(1.0000001))
                        .add(var("i").to_f().div(fconst(64.0)))
                        .sub(var("f").div(fconst(128.0))),
                )],
            ),
            ret(var("f").to_i()),
        ],
    );
    compile("float", "float ops and int<->float conversions", m)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(
        &args,
        &[
            &[("--n", true), ("--reps", true), ("--json-out", true)],
            jem_bench::ENGINE_FLAGS,
        ],
    );
    jem_bench::apply_engine_flag(&args);
    let n = arg_usize(&args, "--n", 600) as i32;
    let reps = arg_usize(&args, "--reps", 4);

    println!("Interpreter dispatch microbench: n={n}, reps={reps}");
    let mut rows = Vec::new();
    let mut kernels_json = Vec::new();
    let mut total_steps = 0u64;
    let wall = std::time::Instant::now();
    for kernel in [arith_kernel(), call_kernel(), heap_kernel(), float_kernel()] {
        let mut vm = Vm::client(&kernel.program);
        let mut result = None;
        // Outer reps square the iteration count (each rep runs the
        // kernel at every size 1..=n) so the workload grows fast
        // without deep single invocations.
        for _ in 0..reps {
            for size in 1..=n {
                result = vm
                    .invoke(kernel.method, vec![Value::Int(size)])
                    .unwrap_or_else(|e| panic!("{}: {e:?}", kernel.name));
            }
        }
        let ic = vm.machine.icache_stats().unwrap_or_default();
        let dc = vm.machine.dcache_stats().unwrap_or_default();
        total_steps += vm.steps;
        rows.push(vec![
            kernel.name.to_string(),
            kernel.what.to_string(),
            vm.steps.to_string(),
            vm.machine.cycles().to_string(),
            format!("{:.3}", vm.machine.energy().nanojoules() / 1e6),
        ]);
        kernels_json.push(
            Json::object()
                .with("name", kernel.name)
                .with(
                    "result",
                    f64::from(result.map_or(0, |v| match v {
                        Value::Int(i) => i,
                        _ => 0,
                    })),
                )
                .with("steps", vm.steps)
                .with("cycles", vm.machine.cycles())
                .with("energy_nj", vm.machine.energy().nanojoules())
                .with(
                    "icache",
                    Json::object()
                        .with("hits", ic.hits)
                        .with("misses", ic.misses),
                )
                .with(
                    "dcache",
                    Json::object()
                        .with("hits", dc.hits)
                        .with("misses", dc.misses),
                ),
        );
    }
    let secs = wall.elapsed().as_secs_f64();
    print_table(
        "interpreter kernels",
        &["kernel", "stresses", "steps", "cycles", "energy (mJ)"],
        &rows,
    );
    println!(
        "\n{total_steps} sim-instructions in {secs:.2}s wall ({:.3e}/sec)",
        total_steps as f64 / secs.max(1e-9)
    );

    if let Some(path) = jem_bench::arg_str(&args, "--json-out") {
        // Deterministic figures only — no wall-clock values — so
        // bench-history's repeat-identity check and strict diff hold.
        let doc = Json::object()
            .with("schema", "interp-bench/v1")
            .with("n", n as u64)
            .with("reps", reps as u64)
            .with("kernels", Json::Arr(kernels_json))
            .with("total_sim_instructions", total_steps);
        jem_obs::write_atomic(&path, format!("{}\n", doc.render_pretty()).as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
