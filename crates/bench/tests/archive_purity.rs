//! `--archive` is a pure observer: a run that ingests its artifacts
//! into an experiment archive produces byte-identical `.jtb` and `.jts`
//! outputs to a bare run of the same seed, the archived copies are
//! bit-exact, an identical-seed rerun stores byte-identical artifacts
//! as the next generation of the same line, and the archive answers
//! timeline queries with the same numbers the `.jts` file carries.

use jem_apps::workload_by_name;
use jem_bench::obs::ObsArgs;
use jem_core::{run_scenario_traced, Profile, ResilienceConfig, Strategy};
use jem_obs::{query, scratch_path, Json, LabGroupBy, LabQuery, LabSelector, Timeline};
use jem_sim::{Scenario, Situation};

fn obs_args(json: &str, jtb: &str, jts: &str, archive: Option<String>) -> ObsArgs {
    ObsArgs {
        trace: Some(jtb.to_string()),
        monitor: false,
        health_out: None,
        metrics_out: None,
        json_out: Some(json.to_string()),
        timeline: Some(jts.to_string()),
        sample_every_ms: 1.0,
        serve: None,
        flush_every_ms: None,
        live: None,
        archive,
    }
}

/// Run the faulty fe scenario through a full BenchSink stack, write
/// its results document, ingest into `archive` when given, and return
/// the (`.jtb`, `.jts`) bytes.
fn run_stack(tag: &str, archive: Option<String>) -> (Vec<u8>, Vec<u8>) {
    let json = scratch_path(&format!("{tag}.json"));
    let jtb = scratch_path(&format!("{tag}.jtb"));
    let jts = scratch_path(&format!("{tag}.jts"));
    let obs = obs_args(&json, &jtb, &jts, archive);

    let w = workload_by_name("fe").expect("known workload");
    let profile = Profile::build(w.as_ref(), 42);
    let scenario =
        Scenario::paper_degraded(Situation::GoodDominant, &w.sizes(), 1234, 0.6).with_runs(40);
    let mut sink = obs.trace_sink().expect("sink configured");
    let result = run_scenario_traced(
        w.as_ref(),
        &profile,
        &scenario,
        Strategy::AdaptiveAdaptive,
        &ResilienceConfig::default(),
        &mut sink,
    )
    .expect("scenario run failed");
    obs.finish_trace(Some(sink));
    obs.write_json(
        &Json::object()
            .with("total_energy_nj", result.total_energy.nanojoules())
            .with("total_sim_instructions", result.instructions),
    );
    // The same explicit post-run ingest call every bench bin makes.
    obs.archive_run(&[
        "bench-faults".to_string(),
        "--seed".to_string(),
        "1234".to_string(),
    ]);

    let jtb_bytes = std::fs::read(&jtb).unwrap();
    let jts_bytes = std::fs::read(&jts).unwrap();
    std::fs::remove_file(&json).ok();
    std::fs::remove_file(&jtb).ok();
    std::fs::remove_file(&jts).ok();
    (jtb_bytes, jts_bytes)
}

#[test]
fn archiving_is_a_pure_observer() {
    let (bare_jtb, bare_jts) = run_stack("bare", None);

    let root = scratch_path("archive");
    std::fs::remove_dir_all(&root).ok();
    let (arch_jtb, arch_jts) = run_stack("archived", Some(root.clone()));

    assert_eq!(
        bare_jtb, arch_jtb,
        ".jtb must be byte-identical under --archive"
    );
    assert_eq!(
        bare_jts, arch_jts,
        ".jts must be byte-identical under --archive"
    );

    // The archived copies are bit-exact too.
    let archive = jem_obs::Archive::open_or_create(&root).unwrap();
    let runs = archive.runs().unwrap();
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.meta.bin, "bench-faults");
    assert_eq!(run.meta.seed, Some(1234));
    let stored_jtb = archive
        .read_artifact(run.artifact("trace").expect("trace archived"))
        .unwrap();
    let stored_jts = archive
        .read_artifact(run.artifact("timeline").expect("timeline archived"))
        .unwrap();
    assert_eq!(stored_jtb, bare_jtb);
    assert_eq!(stored_jts, bare_jts);

    // An identical-seed rerun lands as generation 1 of the same
    // fingerprint line, and every artifact it stores is byte-identical
    // to generation 0's.
    let (rerun_jtb, _) = run_stack("rerun", Some(root.clone()));
    assert_eq!(rerun_jtb, bare_jtb);
    let runs = archive.runs().unwrap();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].fingerprint, runs[1].fingerprint);
    assert_eq!((runs[0].gen, runs[1].gen), (0, 1));
    for kind in ["bench", "trace", "timeline"] {
        let stored = |gen: usize| {
            let artifact = runs[gen].artifact(kind).expect("artifact archived");
            archive.read_artifact(artifact).unwrap()
        };
        assert_eq!(
            stored(0),
            stored(1),
            "generation 1's {kind} differs from generation 0's"
        );
    }

    // A series query against the archive reproduces the timeline's
    // own window-end value, Welford-pooled across both generations.
    let tl = Timeline::read(&bare_jts).unwrap();
    let idx = tl.series_index("energy.core.cum_nj").expect("core series");
    let last = tl.segments.last().expect("non-empty timeline");
    let expect = last.value_at(idx, last.end_t);
    let groups = query(
        &archive,
        &LabQuery {
            selector: LabSelector::Series("energy.core.cum_nj".to_string()),
            window: None,
            group_by: LabGroupBy::Fingerprint,
        },
    )
    .unwrap();
    assert_eq!(groups.len(), 1);
    let vals: Vec<f64> = groups[0]
        .runs
        .iter()
        .flat_map(|r| r.values.clone())
        .collect();
    assert!(vals.contains(&expect), "query must surface {expect}");
}
