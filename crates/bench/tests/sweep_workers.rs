//! The sweep executor writes the same results, `.jtb` and `.jts` on
//! any number of workers: a unit that finishes while an earlier one
//! still holds the sink buffers its events and drains them in its
//! turn, shard record first.

use jem_apps::workload_by_name;
use jem_bench::ckpt::{CkptArgs, Outcome, SweepSession, Unit};
use jem_bench::obs::ObsArgs;
use jem_core::ckpt::encode_result;
use jem_core::{Profile, ResilienceConfig, Strategy};
use jem_obs::scratch_dir;
use jem_sim::{Scenario, Situation};

/// A few-run faults sweep: per loss severity a traced AA unit in its
/// own shard, then untraced AA-naive and AL units.
fn run_sweep(workers: usize) -> (Vec<Vec<u8>>, Vec<u8>, Vec<u8>) {
    let dir = scratch_dir();
    let (jtb, jts) = (dir.join("t.jtb"), dir.join("t.jts"));
    let args: Vec<String> = [
        "sweep",
        "--trace",
        jtb.to_str().unwrap(),
        "--timeline",
        jts.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    let obs = ObsArgs::parse(&args);
    let mut session = SweepSession::open(&CkptArgs::default(), &obs, "sweep".to_string());

    let w = workload_by_name("fe").expect("known workload");
    let profile = Profile::build(w.as_ref(), 42);
    let mut units = Vec::new();
    for loss_bad in [0.0, 0.5, 0.9] {
        let scenario =
            Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), 7, loss_bad).with_runs(6);
        let unit = |key: &str, strategy, resilience| {
            Unit::scenario(
                format!("loss{loss_bad:.2}/{key}"),
                w.as_ref(),
                &profile,
                scenario.clone(),
                strategy,
                resilience,
            )
        };
        units.extend([
            unit(
                "aa",
                Strategy::AdaptiveAdaptive,
                ResilienceConfig::default(),
            )
            .in_shard(format!("loss{loss_bad:.2}")),
            unit(
                "aa_naive",
                Strategy::AdaptiveAdaptive,
                ResilienceConfig::naive(),
            ),
            unit("al", Strategy::AdaptiveLocal, ResilienceConfig::default()),
        ]);
    }
    let results = session
        .run(&units, workers)
        .into_iter()
        .map(|o| encode_result(&Outcome::into_run(o)))
        .collect();
    session.finish(&obs);
    let bytes = (std::fs::read(&jtb).unwrap(), std::fs::read(&jts).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    (results, bytes.0, bytes.1)
}

#[test]
fn one_two_and_three_workers_write_the_same_bytes() {
    let (results, jtb, jts) = run_sweep(1);
    assert_eq!(results.len(), 9);
    for workers in [2, 3] {
        let (r, b, s) = run_sweep(workers);
        assert!(r == results, "results differ on {workers} workers");
        assert!(b == jtb, ".jtb differs on {workers} workers");
        assert!(s == jts, ".jts differs on {workers} workers");
    }
}
