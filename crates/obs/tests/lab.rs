//! Integration tests for the `jem_obs::lab` experiment archive and
//! regression detector: bit-identical artifact round-trips, manifest
//! fingerprint integrity, detector determinism (zero flags on
//! identical-content generations, property-tested across seeds), the
//! flag families on seeded changes, Welford grouping in the query
//! engine, and the self-contained HTML report.

use jem_obs::{
    check, html_report, query, scratch_dir, scratch_path, sha256_hex, Archive, CheckConfig, Json,
    LabGroupBy, LabQuery, LabSelector, RunMeta,
};
use jem_sim::Summary;

fn meta_for(bin: &str, seed: u64) -> RunMeta {
    RunMeta::from_argv(&[
        format!("target/release/{bin}"),
        "--runs".to_string(),
        "40".to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ])
}

/// A tiny deterministic LCG so "property across seeds" does not need
/// an RNG dependency.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed-derived `BENCH_*.json`-shaped document with bit-precise
/// energy figures.
fn bench_doc(seed: u64, scale: f64) -> Vec<u8> {
    let mut rng = lcg(seed);
    let rows: Vec<Json> = (0..4)
        .map(|i| {
            Json::object()
                .with("workload", format!("w{i}").as_str())
                .with("total_energy_nj", (1.0e9 + rng() * 1.0e8) * scale)
                .with("avg_power_mw", 120.0 + rng() * 10.0)
        })
        .collect();
    let doc = Json::object()
        .with("schema", "jem-bench/v1")
        .with("seed", seed)
        .with("results", Json::Arr(rows));
    format!("{}\n", doc.render_pretty()).into_bytes()
}

/// A `bench-history`-style baseline: deterministic `results`, plus
/// wall-clock figures and toolchain metadata that legitimately drift
/// between reruns and must stay outside the strict gate.
fn history_doc(seed: u64, wall_jitter: f64, ips: f64, rustc: &str) -> Vec<u8> {
    let mut rng = lcg(seed ^ 0x9e3779b97f4a7c15);
    let rows: Vec<Json> = (0..3)
        .map(|i| {
            Json::object()
                .with("name", format!("case{i}").as_str())
                .with("energy_nj", 2.0e9 + rng() * 1.0e8)
        })
        .collect();
    let doc = Json::object()
        .with("schema", "jem-bench-history/v1")
        .with(
            "environment",
            Json::object()
                .with("rustc", rustc)
                .with("git_revision", "deadbeef"),
        )
        .with("results", Json::Arr(rows))
        .with(
            "throughput",
            Json::object().with("sim_instructions_per_sec", ips).with(
                "wall_secs",
                Json::Arr(vec![
                    Json::Num(1.0 + wall_jitter),
                    Json::Num(1.1 + wall_jitter * 0.7),
                ]),
            ),
        );
    format!("{}\n", doc.render_pretty()).into_bytes()
}

fn health_doc(alerts: u64) -> Vec<u8> {
    let doc = Json::object()
        .with("schema", "jem-health/v1")
        .with("total_alerts", alerts);
    format!("{}\n", doc.render_pretty()).into_bytes()
}

// ---------------------------------------------------------------
// Archive round-trip
// ---------------------------------------------------------------

#[test]
fn round_trip_is_bit_identical_and_blobs_dedup() {
    let root = scratch_path("roundtrip");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 1234);
    let bytes = bench_doc(1234, 1.0);

    let rec = archive
        .ingest_bytes(
            &meta,
            &[(
                "bench".to_string(),
                "BENCH_faults.json".to_string(),
                bytes.clone(),
            )],
        )
        .unwrap();
    assert_eq!(rec.gen, 0);
    assert_eq!(rec.fingerprint, meta.fingerprint());

    // The stored artifact reads back byte-for-byte: every energy
    // figure survives archiving bit-exactly.
    let art = rec.artifact("bench").expect("bench artifact stored");
    assert_eq!(art.sha256, sha256_hex(&bytes));
    assert_eq!(archive.read_artifact(art).unwrap(), bytes);

    // An identical rerun appends a generation but stores no new blob.
    let count_blobs = || {
        walkdir(&std::path::Path::new(&root).join("objects"))
            .into_iter()
            .filter(|p| p.is_file())
            .count()
    };
    let before = count_blobs();
    let rec2 = archive
        .ingest_bytes(
            &meta,
            &[(
                "bench".to_string(),
                "BENCH_faults.json".to_string(),
                bytes.clone(),
            )],
        )
        .unwrap();
    assert_eq!(rec2.gen, 1);
    assert_eq!(count_blobs(), before, "identical content must dedup");
    assert_eq!(archive.verify().unwrap(), Vec::<String>::new());
}

fn walkdir(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            out.extend(walkdir(&p));
        } else {
            out.push(p);
        }
    }
    out
}

#[test]
fn open_refuses_unmarked_nonempty_dir() {
    let root = scratch_dir().to_string_lossy().into_owned();
    std::fs::write(format!("{root}/stray.txt"), b"not an archive").unwrap();
    let err = Archive::open_or_create(&root).unwrap_err();
    assert!(err.contains("refusing"), "got: {err}");

    // A marked archive reopens fine.
    let root2 = scratch_path("marked");
    Archive::open_or_create(&root2).unwrap();
    Archive::open_or_create(&root2).unwrap();
}

// ---------------------------------------------------------------
// Fingerprint integrity
// ---------------------------------------------------------------

#[test]
fn tampered_manifest_metadata_is_rejected() {
    let root = scratch_path("tamper");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 7);
    let rec = archive
        .ingest_bytes(
            &meta,
            &[(
                "bench".to_string(),
                "BENCH_faults.json".to_string(),
                bench_doc(7, 1.0),
            )],
        )
        .unwrap();

    // Rewrite the manifest's bin: the stored fingerprint no longer
    // matches the fingerprint recomputed from the manifest's own
    // metadata, so the scan must reject it instead of comparing the
    // run against the wrong history.
    let manifest = format!(
        "{root}/runs/{}/{:04}/manifest.json",
        rec.fingerprint, rec.gen
    );
    let text = std::fs::read_to_string(&manifest).unwrap();
    std::fs::write(&manifest, text.replace("bench-faults", "bench-fig6")).unwrap();
    let err = archive.runs().unwrap_err();
    assert!(err.contains("fingerprint"), "got: {err}");
}

#[test]
fn manifest_filed_under_wrong_line_is_rejected() {
    let root = scratch_path("misfiled");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 7);
    let rec = archive
        .ingest_bytes(
            &meta,
            &[(
                "bench".to_string(),
                "BENCH_faults.json".to_string(),
                bench_doc(7, 1.0),
            )],
        )
        .unwrap();

    // Copy the generation under a directory named for a different
    // fingerprint: a hash collision or a mis-filed manifest must not
    // silently join another line's history.
    let bogus_line = format!("{root}/runs/{}", "0".repeat(16));
    std::fs::create_dir_all(format!("{bogus_line}/0000")).unwrap();
    let manifest = format!(
        "{root}/runs/{}/{:04}/manifest.json",
        rec.fingerprint, rec.gen
    );
    std::fs::copy(&manifest, format!("{bogus_line}/0000/manifest.json")).unwrap();
    let err = archive.runs().unwrap_err();
    assert!(err.contains("filed under"), "got: {err}");
}

// ---------------------------------------------------------------
// Detector: determinism and zero flags on identical content
// ---------------------------------------------------------------

#[test]
fn identical_generations_raise_zero_flags_across_seeds() {
    // Property over seeds: a line whose generations carry identical
    // deterministic results — with wall-clock throughput jitter and a
    // different toolchain string, which reruns legitimately have —
    // never raises a flag, and the detector output is a pure function
    // of archive contents.
    let root = scratch_path("zeroflags");
    let archive = Archive::open_or_create(&root).unwrap();
    let seeds = [1u64, 7, 42, 1234, 99991];
    for &seed in &seeds {
        let meta = meta_for("bench-faults", seed);
        for (jitter, rustc) in [(0.0, "rustc 1.99.0"), (0.037, "rustc 2.00.1")] {
            archive
                .ingest_bytes(
                    &meta,
                    &[
                        (
                            "bench".to_string(),
                            "BENCH_faults.json".to_string(),
                            bench_doc(seed, 1.0),
                        ),
                        (
                            "bench-history".to_string(),
                            "BENCH_faults_history.json".to_string(),
                            history_doc(seed, jitter, 5.0e7 * (1.0 + jitter), rustc),
                        ),
                        (
                            "health".to_string(),
                            "health.json".to_string(),
                            health_doc(0),
                        ),
                    ],
                )
                .unwrap();
        }
    }

    let report = check(&archive, &CheckConfig::default()).unwrap();
    assert_eq!(report.lines.len(), seeds.len());
    assert!(
        !report.flagged(),
        "identical-content generations must raise zero flags, got: {}",
        report.render_text()
    );
    for line in &report.lines {
        assert_eq!(line.gens, vec![0, 1]);
    }

    // Determinism: a second pass renders the identical document.
    let again = check(&archive, &CheckConfig::default()).unwrap();
    assert_eq!(
        report.to_json().render_pretty(),
        again.to_json().render_pretty()
    );
}

// ---------------------------------------------------------------
// Detector: seeded changes are flagged
// ---------------------------------------------------------------

#[test]
fn energy_change_between_generations_is_flagged() {
    let root = scratch_path("energyflag");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 42);
    for scale in [1.0, 1.01] {
        archive
            .ingest_bytes(
                &meta,
                &[(
                    "bench".to_string(),
                    "BENCH_faults.json".to_string(),
                    bench_doc(42, scale),
                )],
            )
            .unwrap();
    }
    let report = check(&archive, &CheckConfig::default()).unwrap();
    assert!(report.flagged());
    let flag = &report.flags[0];
    assert_eq!(flag.kind, "energy-regression");
    assert_eq!((flag.from_gen, flag.to_gen), (0, 1));
    assert!(flag.path.starts_with("bench/"), "got path {}", flag.path);
}

#[test]
fn throughput_collapse_is_flagged_by_threshold_and_changepoint() {
    let root = scratch_path("tpflag");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-fig6", 9);
    for ips in [1.0e8, 1.01e8, 0.99e8, 4.0e7] {
        archive
            .ingest_bytes(
                &meta,
                &[(
                    "bench-history".to_string(),
                    "BENCH_fig6_history.json".to_string(),
                    history_doc(9, 0.0, ips, "rustc 1.99.0"),
                )],
            )
            .unwrap();
    }
    let report = check(&archive, &CheckConfig::default()).unwrap();
    let kinds: Vec<&str> = report.flags.iter().map(|f| f.kind.as_str()).collect();
    assert!(kinds.contains(&"throughput-threshold"), "got {kinds:?}");
    assert!(kinds.contains(&"throughput-changepoint"), "got {kinds:?}");
    // The deterministic results were identical throughout: the noisy
    // wall-clock figures must not have tripped the strict gate.
    assert!(!kinds.contains(&"energy-regression"), "got {kinds:?}");
}

#[test]
fn new_health_alerts_are_flagged() {
    let root = scratch_path("healthflag");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 3);
    for alerts in [0u64, 2] {
        archive
            .ingest_bytes(
                &meta,
                &[(
                    "health".to_string(),
                    "health.json".to_string(),
                    health_doc(alerts),
                )],
            )
            .unwrap();
    }
    let report = check(&archive, &CheckConfig::default()).unwrap();
    assert_eq!(report.flags.len(), 1);
    assert_eq!(report.flags[0].kind, "health-regression");
    assert!(report.flags[0].detail.contains("2 alerts"));
}

// ---------------------------------------------------------------
// Query engine
// ---------------------------------------------------------------

#[test]
fn column_query_merges_per_run_summaries_exactly() {
    let root = scratch_path("query");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 11);
    let mut all = Vec::new();
    for scale in [1.0, 1.25, 0.8] {
        let bytes = bench_doc(11, scale);
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        all.extend(jem_obs::lab::select_path(&doc, "results/*/total_energy_nj"));
        archive
            .ingest_bytes(
                &meta,
                &[("bench".to_string(), "BENCH_faults.json".to_string(), bytes)],
            )
            .unwrap();
    }

    let groups = query(
        &archive,
        &LabQuery {
            selector: LabSelector::Column("results/*/total_energy_nj".to_string()),
            window: None,
            group_by: LabGroupBy::Fingerprint,
        },
    )
    .unwrap();
    assert_eq!(groups.len(), 1);
    let group = &groups[0];
    assert_eq!(group.runs.len(), 3);
    assert_eq!(group.summary.count(), all.len() as u64);

    // merge ≡ concatenation: the folded group summary equals one
    // Welford pass over every observation at once.
    let direct = Summary::of(&all);
    assert!((group.summary.mean() - direct.mean()).abs() <= 1e-9 * direct.mean().abs());
    assert!((group.summary.stddev() - direct.stddev()).abs() <= 1e-6 * direct.stddev().abs());
    assert_eq!(group.summary.min(), direct.min());
    assert_eq!(group.summary.max(), direct.max());
}

#[test]
fn query_with_no_match_is_an_error() {
    let root = scratch_path("nomatch");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 5);
    archive
        .ingest_bytes(
            &meta,
            &[(
                "bench".to_string(),
                "BENCH_faults.json".to_string(),
                bench_doc(5, 1.0),
            )],
        )
        .unwrap();
    let err = query(
        &archive,
        &LabQuery {
            selector: LabSelector::Column("no/such/path".to_string()),
            window: None,
            group_by: LabGroupBy::Bin,
        },
    )
    .unwrap_err();
    assert!(err.contains("no/such/path"), "got: {err}");
}

// ---------------------------------------------------------------
// HTML report
// ---------------------------------------------------------------

#[test]
fn html_report_is_self_contained() {
    let root = scratch_path("html");
    let archive = Archive::open_or_create(&root).unwrap();
    let meta = meta_for("bench-faults", 21);
    for scale in [1.0, 1.0, 1.5] {
        archive
            .ingest_bytes(
                &meta,
                &[(
                    "bench".to_string(),
                    "BENCH_<faults>.json".to_string(),
                    bench_doc(21, scale),
                )],
            )
            .unwrap();
    }
    let report = check(&archive, &CheckConfig::default()).unwrap();
    assert!(report.flagged());
    let html = html_report(&archive, &report).unwrap();

    assert!(html.starts_with("<!doctype html>"));
    assert!(html.contains("<svg"), "trend sparklines must be inline SVG");
    assert!(html.contains("energy-regression"));
    // Self-contained: no external scripts, stylesheets or images —
    // the only URLs allowed are SVG namespace declarations.
    assert!(!html.contains("<script"));
    assert!(!html.contains("<link"));
    assert!(!html.contains("src="));
    for (i, _) in html.match_indices("http") {
        assert!(
            html[i..].starts_with("http://www.w3.org/"),
            "unexpected external reference near byte {i}"
        );
    }
    // Artifact names render escaped.
    assert!(html.contains("BENCH_&lt;faults&gt;.json"));
    assert!(!html.contains("BENCH_<faults>"));
}
