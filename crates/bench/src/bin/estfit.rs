//! §3.2 estimator-accuracy claim.
//!
//! "To verify the accuracy of these curves, the points from these
//! curves were compared with 20 other data points (for each
//! application) from actual executions. We found that our curve
//! fitting based energy estimation is within 2% of the actual energy
//! value."
//!
//! For each workload we fit the profile on its calibration sizes, then
//! evaluate 20 held-out executions at sizes drawn uniformly from the
//! workload's full range (different seeds than calibration) and report
//! the worst relative error of the interpretation- and native-energy
//! estimators.
//!
//! Usage: `estfit [--metrics-out out.prom]
//! [--json-out BENCH_estfit.json] [--archive DIR]`.
//!
//! Fit and held-out evaluation are seeded and profile-driven — no
//! scenario runs, so the `--json-out` document is fully deterministic
//! and its `bench-history` baseline carries no
//! `total_sim_instructions` throughput denominator.

use jem_apps::all_workloads;
use jem_bench::obs::ObsArgs;
use jem_bench::{build_profiles, print_table};
use jem_jvm::{OptLevel, Vm};
use jem_obs::{Json, MetricsRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    jem_bench::reject_unknown_flags(&args, &[ObsArgs::RESULT_FLAGS, ObsArgs::METRICS_FLAGS]);
    let obs = ObsArgs::parse(&args);
    let workloads = all_workloads();
    eprintln!("building profiles...");
    let profiles = build_profiles(&workloads, 42);

    let mut rows = Vec::new();
    let mut json_points = Vec::new();
    let mut registry = MetricsRegistry::new();
    registry.set_help(
        "estimator_worst_rel_error",
        "worst relative error of a profile energy estimator over 20 held-out executions",
    );
    for (w, p) in workloads.iter().zip(&profiles) {
        let sizes = w.sizes();
        let (lo, hi) = (sizes[0], *sizes.last().expect("non-empty"));
        let mut rng = SmallRng::seed_from_u64(0xE57);
        let mut worst_interp: f64 = 0.0;
        let mut worst_native: f64 = 0.0;
        for i in 0..20 {
            // Held-out size: snap a uniform draw to the workload's
            // granularity by picking any supported size plus random
            // in-range values for workloads with dense size spaces.
            let size =
                if w.name() == "fe" || w.name() == "sort" || w.name() == "jess" || w.name() == "db"
                {
                    rng.gen_range(lo..=hi)
                } else {
                    // image sizes must stay multiples of 8
                    let step = 8;
                    let k = rng.gen_range(lo / step..=hi / step);
                    k * step
                };
            let mut run_rng = SmallRng::seed_from_u64(0x5EED + i);

            // Actual interpreted energy.
            let mut vm = Vm::client(w.program());
            let args = w.make_args(&mut vm.heap, size, &mut run_rng.clone());
            vm.invoke(w.potential_method(), args).expect("runs");
            let actual_i = vm.machine.energy().nanojoules();
            let est_i = p.e_interp(f64::from(size)).nanojoules();
            worst_interp = worst_interp.max(((est_i - actual_i) / actual_i).abs());

            // Actual native (L2) energy.
            let mut vm = Vm::client(w.program());
            p.install(&mut vm, OptLevel::L2);
            let args = w.make_args(&mut vm.heap, size, &mut run_rng);
            vm.invoke(w.potential_method(), args).expect("runs");
            let actual_n = vm.machine.energy().nanojoules();
            let est_n = p.e_local(OptLevel::L2, f64::from(size)).nanojoules();
            worst_native = worst_native.max(((est_n - actual_n) / actual_n).abs());
        }
        json_points.push(
            Json::object()
                .with("app", w.name())
                .with("max_rel_err_interp", worst_interp)
                .with("max_rel_err_native_l2", worst_native),
        );
        registry.set_gauge(
            "estimator_worst_rel_error",
            &[
                ("app", w.name().to_string()),
                ("estimator", "interp".to_string()),
            ],
            worst_interp,
        );
        registry.set_gauge(
            "estimator_worst_rel_error",
            &[
                ("app", w.name().to_string()),
                ("estimator", "native-l2".to_string()),
            ],
            worst_native,
        );
        rows.push(vec![
            w.name().to_string(),
            format!("{:.2}%", worst_interp * 100.0),
            format!("{:.2}%", worst_native * 100.0),
        ]);
    }
    print_table(
        "Curve-fit estimator accuracy on 20 held-out executions per app (paper: within 2%)",
        &["app", "max err (interp)", "max err (native L2)"],
        &rows,
    );
    println!(
        "\nNote: the paper itself flags the limitation these numbers expose — the\n\
         approach 'may not work well for methods whose parameter sizes are not\n\
         representative of their execution costs'. db is exactly that case: its\n\
         cost depends on the query's selectivity (how many records match and get\n\
         sorted), which the record count alone does not capture; sort shows a\n\
         milder version via pivot luck. The compute-dominated benchmarks stay\n\
         within the paper's 2%."
    );

    obs.write_json(
        &Json::object()
            .with("figure", "estfit")
            .with("points", Json::Arr(json_points)),
    );
    obs.write_metrics(&registry);
    obs.archive_run(&args);
}
