//! Integration tests for the `jem_obs::lab` experiment archive:
//! bit-identical artifact round-trips, manifest fingerprint
//! integrity, Welford grouping in the query engine, and the
//! self-contained HTML report.

use jem_obs::{
    html_report, query, scratch_dir, scratch_path, sha256_hex, Archive, Json, LabGroupBy, LabQuery,
    LabSelector, RunMeta,
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

/// A tiny deterministic LCG so seeded documents do not need an RNG
/// dependency.
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
    let html = html_report(&archive).unwrap();

    assert!(html.starts_with("<!doctype html>"));
    assert!(html.contains("<svg"), "trend sparklines must be inline SVG");
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
