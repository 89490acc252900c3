//! Fig 8 — local vs remote compilation energies.
//!
//! "Fig 8 provides the (compilation) energy consumed when a client
//! either compiles methods of an application or downloads their
//! remotely pre-compiled native code from the server. … For each
//! application, all values are normalized with respect to the energy
//! consumed when local compilation with optimization Level1 is
//! employed."
//!
//! Shapes the paper reports, checked here:
//! * local compilation energy increases with the optimization level;
//! * remote compilation energy falls as the channel improves (C1→C4);
//! * "in many cases, remote compilation consumes less energy than
//!   local compilation with the same optimization level (e.g., db)";
//! * occasionally a more aggressive level yields *smaller* code and
//!   hence cheaper download (the paper's sort L2→L3 case) — whether
//!   that occurs here is reported from the measured code sizes.
//!
//! Usage: `fig8 [--json-out BENCH_fig8.json] [--archive DIR]`.
//!
//! The figures here are derived purely from calibrated profiles — no
//! scenario runs, so the `--json-out` document is fully deterministic
//! and its `bench-history` baseline carries no
//! `total_sim_instructions` throughput denominator.

use jem_apps::all_workloads;
use jem_bench::obs::ObsArgs;
use jem_bench::{build_profiles, fmt_norm, print_table};
use jem_core::Strategy;
use jem_jvm::OptLevel;
use jem_obs::Json;
use jem_radio::ChannelClass;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(&args, &[ObsArgs::RESULT_FLAGS]);
    let obs = ObsArgs::parse(&args);
    // The paper's Fig 8 lists seven applications (jess is absent).
    let workloads: Vec<_> = all_workloads()
        .into_iter()
        .filter(|w| w.name() != "jess")
        .collect();
    eprintln!("building profiles for {} workloads...", workloads.len());
    let profiles = build_profiles(&workloads, 42);
    let _ = Strategy::ALL; // (imported for doc parity)

    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    for (w, p) in workloads.iter().zip(&profiles) {
        // The paper's Fig 8 compares per-application compilation work;
        // the one-time compiler-class load (identical across apps and
        // levels) is reported separately below, as it would mask the
        // per-level ratios the figure is about.
        let base = p.e_compile_local(OptLevel::L1, true).nanojoules();
        for level in OptLevel::ALL {
            let local = p.e_compile_local(level, true).nanojoules();
            let mut row = vec![
                w.name().to_string(),
                level.name().to_string(),
                fmt_norm(local / base * 100.0),
            ];
            let mut point = Json::object()
                .with("app", w.name())
                .with("level", level.name())
                .with("local_nj", local);
            for class in ChannelClass::ALL {
                let remote = p.e_remote_compile(level, class).nanojoules();
                row.push(fmt_norm(remote / base * 100.0));
                point = point.with(format!("remote_{class:?}_nj").as_str(), remote);
            }
            row.push(format!("{}", p.code_bytes[level.index()]));
            json_points.push(point.with("code_bytes", p.code_bytes[level.index()]));
            rows.push(row);
        }
    }
    print_table(
        "Fig 8: local and remote compilation energies (local Level1 = 100)",
        &[
            "app",
            "level",
            "local",
            "C1",
            "C2",
            "C3",
            "C4",
            "code bytes",
        ],
        &rows,
    );

    println!(
        "\n(one-time compiler-class load, charged before any first local compile: {:.1} mJ)",
        profiles[0].compiler_init_energy.nanojoules() * 1e-6
    );

    // Claim checks.
    println!();
    for (w, p) in workloads.iter().zip(&profiles) {
        let l = |lv: OptLevel| p.e_compile_local(lv, true).nanojoules();
        assert!(
            l(OptLevel::L1) < l(OptLevel::L2) && l(OptLevel::L2) < l(OptLevel::L3),
            "{}: local compile energy must grow with level",
            w.name()
        );
        let rc4 = p
            .e_remote_compile(OptLevel::L2, ChannelClass::C4)
            .nanojoules();
        if rc4 < l(OptLevel::L2) {
            println!(
                "{}: remote L2 compile at C4 is {:.1}% of local L2 (paper: 'remote compilation consumes less energy … e.g., db')",
                w.name(),
                rc4 / l(OptLevel::L2) * 100.0
            );
        }
        if p.code_bytes[2] < p.code_bytes[1] {
            println!(
                "{}: Level3 code is smaller than Level2 ({} vs {} bytes) — the paper's sort-style case",
                w.name(),
                p.code_bytes[2],
                p.code_bytes[1]
            );
        }
    }

    obs.write_json(
        &Json::object()
            .with("figure", "fig8")
            .with(
                "compiler_init_nj",
                profiles[0].compiler_init_energy.nanojoules(),
            )
            .with("points", Json::Arr(json_points)),
    );
    obs.archive_run(&args);
}
