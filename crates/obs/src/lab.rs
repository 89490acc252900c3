//! The cross-run experiment archive behind `jem lab`, with queries and
//! self-contained HTML reports.
//!
//! Every other observability layer in this crate looks at *one* run;
//! this module keeps N runs side by side. It provides
//!
//! * a **content-addressed, file-based archive**: a run's artifacts
//!   (`BENCH_*.json`, `.jtb` traces, `.jts` timelines, `jem-health/v1`
//!   reports, Prometheus metrics) are stored as SHA-256-addressed
//!   blobs under a manifest keyed by a deterministic **run
//!   fingerprint** over (bin, identity args, seed, schema versions).
//!   Re-ingesting the identical run deduplicates the blobs and
//!   appends a new *generation* to the fingerprint's history line;
//! * a **cross-run query engine** ([`query`]): select any timeline
//!   series or any energy-breakdown column (JSON path with `*`
//!   wildcards) across all archived runs, group by fingerprint / bin /
//!   args, and reduce with Welford summaries — per-run summaries are
//!   folded into group summaries with [`Summary::merge`], the same
//!   parallel reduction the sweep harness uses;
//! * a **self-contained HTML report** ([`html_report`]): per-run
//!   energy breakdowns, per-line energy trend lines and decision-mix
//!   tables, with inline SVG sparklines rendered by the same
//!   series-resampling logic as the terminal dashboards
//!   ([`crate::tui::svg_sparkline`]). The document references nothing
//!   external — no scripts, no stylesheets, no fonts.
//!
//! The archive gates nothing: simulated results are gated against the
//! committed baselines by `bench-history check`, and any two documents
//! compare with `jem diff`.
//!
//! Archiving is a **pure observer**: bench bins ingest their artifacts
//! *after* writing them, by reading the already-written files back, so
//! a run executed with `--archive` produces byte-identical outputs to
//! a bare run (test-enforced).
//!
//! [`Summary::merge`]: jem_sim::Summary::merge

use crate::json::Json;
use crate::timeline::Timeline;
use crate::tui::{fmt_si, svg_sparkline};
use jem_sim::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------
// SHA-256 (the workspace is offline; no crypto crate to lean on)
// ---------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `bytes` (FIPS 180-4). The archive's content addressing
/// and run fingerprints are built on this.
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut data = bytes.to_vec();
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    data.push(0x80);
    while data.len() % 64 != 56 {
        data.push(0);
    }
    data.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for block in data.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Lowercase hex of [`sha256`].
pub fn sha256_hex(bytes: &[u8]) -> String {
    sha256(bytes).iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------
// Run identity
// ---------------------------------------------------------------

/// The artifact kinds the archive understands, with the schema id
/// each one is recorded under. Part of the fingerprint, so a schema
/// revision starts a fresh history line instead of mixing
/// incompatible documents in one.
pub fn schema_versions() -> Vec<(&'static str, &'static str)> {
    vec![
        ("bench", "bench-json/v1"),
        ("bench-history", "bench-history/v1"),
        ("trace", "jem-trace/v1"),
        ("timeline", "jem-timeline/v1"),
        ("health", "jem-health/v1"),
        ("metrics", "prometheus-text/v0"),
    ]
}

/// Flags (with one value) that select *where outputs go* rather than
/// *what the run computes*; stripped from the identity args so the
/// same configuration archived under different file names lands on
/// the same fingerprint line.
const OUTPUT_FLAGS: [&str; 10] = [
    "--trace",
    "--timeline",
    "--json-out",
    "--health-out",
    "--metrics-out",
    "--archive",
    "--ckpt",
    "--ckpt-every",
    "--resume",
    "--flush-every",
];

/// Reduce argv (without the program name) to the arguments that
/// define the run's identity: output destinations, checkpointing and
/// stream-flushing flags are dropped (all are observers or
/// byte-framing knobs — the computed results are identical with or
/// without them), everything else is kept in order.
pub fn identity_args(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if OUTPUT_FLAGS.contains(&args[i].as_str()) {
            i += 2;
            continue;
        }
        out.push(args[i].clone());
        i += 1;
    }
    out
}

/// The declared identity of one archived run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// The bench binary that produced the artifacts.
    pub bin: String,
    /// Identity arguments (see [`identity_args`]).
    pub args: Vec<String>,
    /// The seed, when one was given explicitly (`--seed N`).
    pub seed: Option<u64>,
    /// Artifact-kind → schema-id table the run was recorded under.
    pub schemas: Vec<(String, String)>,
}

impl RunMeta {
    /// Build the metadata for a bench bin's argv: `bin` from the
    /// program path's file stem, identity args, and the parsed seed.
    pub fn from_argv(argv: &[String]) -> RunMeta {
        let bin = argv
            .first()
            .map(|p| {
                Path::new(p)
                    .file_stem()
                    .map_or_else(|| p.clone(), |s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rest = argv.get(1..).unwrap_or_default();
        let seed = rest
            .iter()
            .position(|a| a == "--seed")
            .and_then(|i| rest.get(i + 1))
            .and_then(|v| v.parse().ok());
        RunMeta {
            bin,
            args: identity_args(rest),
            seed,
            schemas: schema_versions()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Canonical JSON rendering the fingerprint hashes.
    fn canonical(&self) -> Json {
        let mut schemas = Json::object();
        for (k, v) in &self.schemas {
            schemas = schemas.with(k.as_str(), v.as_str());
        }
        let mut doc = Json::object()
            .with("bin", self.bin.as_str())
            .with(
                "args",
                Json::Arr(self.args.iter().map(|a| Json::Str(a.clone())).collect()),
            )
            .with("schemas", schemas);
        doc = match self.seed {
            Some(s) => doc.with("seed", s),
            None => doc.with("seed", Json::Null),
        };
        doc
    }

    /// The deterministic run fingerprint: the first 16 hex digits of
    /// the SHA-256 of the canonical (bin, args, seed, schema-versions)
    /// rendering. Everything that defines the run's configuration is
    /// in; everything that only names output files is out.
    pub fn fingerprint(&self) -> String {
        sha256_hex(self.canonical().render().as_bytes())[..16].to_string()
    }
}

// ---------------------------------------------------------------
// Archive
// ---------------------------------------------------------------

/// One stored artifact: its kind, original file name, content hash
/// and size.
#[derive(Debug, Clone)]
pub struct ArtifactRef {
    /// Artifact kind (`bench`, `trace`, `timeline`, `health`,
    /// `metrics`, `bench-history`).
    pub kind: String,
    /// The original file name (not path) at ingest time.
    pub name: String,
    /// SHA-256 of the content; also the blob address.
    pub sha256: String,
    /// Content length in bytes.
    pub bytes: u64,
}

/// One archived run: a manifest generation on a fingerprint line.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Short id unique to this (fingerprint, generation, content).
    pub run_id: String,
    /// The fingerprint line this run belongs to.
    pub fingerprint: String,
    /// Zero-based generation index within the line (ingest order).
    pub gen: u64,
    /// Declared identity.
    pub meta: RunMeta,
    /// Stored artifacts.
    pub artifacts: Vec<ArtifactRef>,
}

impl RunRecord {
    /// The first artifact of `kind`, if the run stored one.
    pub fn artifact(&self, kind: &str) -> Option<&ArtifactRef> {
        self.artifacts.iter().find(|a| a.kind == kind)
    }

    /// Short human label (`bin@fingerprint/gen`).
    pub fn label(&self) -> String {
        format!("{}@{}/{}", self.meta.bin, self.fingerprint, self.gen)
    }
}

/// Marker document at the archive root.
const ARCHIVE_MARKER: &str = "jem-lab.json";
/// Archive format id inside the marker.
const ARCHIVE_SCHEMA: &str = "jem-lab-archive/v1";
/// Manifest schema id.
const MANIFEST_SCHEMA: &str = "jem-lab-manifest/v1";

/// The content-addressed, file-based experiment archive.
///
/// Layout under the root directory:
///
/// ```text
/// jem-lab.json                      archive marker + format version
/// objects/<hh>/<sha256>             content-addressed artifact blobs
/// runs/<fingerprint>/<gen>/manifest.json
/// ```
///
/// Blobs are deduplicated by content, so archiving an identical-seed
/// rerun costs one manifest. All writes go through
/// [`crate::write_atomic`] (temp + fsync + rename), so a crashed
/// ingest never leaves a half-written manifest behind.
#[derive(Debug, Clone)]
pub struct Archive {
    root: PathBuf,
}

impl Archive {
    /// Open the existing archive at `root`; creates nothing, so a
    /// reader given a mistyped path fails instead of starting an empty
    /// archive there.
    ///
    /// # Errors
    /// When `root` has no readable `jem-lab.json` marker, or the marker
    /// is not a jem-lab archive's.
    pub fn open(root: &str) -> Result<Archive, String> {
        let rootp = PathBuf::from(root);
        let marker = rootp.join(ARCHIVE_MARKER);
        let text = std::fs::read_to_string(&marker)
            .map_err(|e| format!("cannot read {}: {e}", marker.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("corrupt {}: {e}", marker.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(ARCHIVE_SCHEMA) {
            return Err(format!(
                "{} is not a {ARCHIVE_SCHEMA} archive",
                rootp.display()
            ));
        }
        Ok(Archive { root: rootp })
    }

    /// Open an existing archive or initialize a new one at `root`.
    ///
    /// # Errors
    /// When the directory exists but is not a jem-lab archive, or
    /// cannot be created.
    pub fn open_or_create(root: &str) -> Result<Archive, String> {
        let rootp = PathBuf::from(root);
        let marker = rootp.join(ARCHIVE_MARKER);
        if marker.exists() {
            return Archive::open(root);
        }
        let empty_dir = std::fs::read_dir(&rootp).is_ok_and(|mut d| d.next().is_none());
        if rootp.exists() && !empty_dir {
            return Err(format!(
                "{} exists, is not empty, and has no {ARCHIVE_MARKER} marker — \
                 refusing to treat it as an archive",
                rootp.display()
            ));
        }
        std::fs::create_dir_all(rootp.join("objects")).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(rootp.join("runs")).map_err(|e| e.to_string())?;
        let doc = Json::object()
            .with("schema", ARCHIVE_SCHEMA)
            .with("version", 1u64);
        crate::write_atomic(
            marker.to_str().ok_or("non-UTF-8 archive path")?,
            format!("{}\n", doc.render_pretty()).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        Ok(Archive { root: rootp })
    }

    /// The archive root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn blob_path(&self, hash: &str) -> PathBuf {
        self.root.join("objects").join(&hash[..2]).join(hash)
    }

    fn write_blob(&self, bytes: &[u8]) -> Result<String, String> {
        let hash = sha256_hex(bytes);
        let path = self.blob_path(&hash);
        if !path.exists() {
            std::fs::create_dir_all(path.parent().expect("objects/hh"))
                .map_err(|e| format!("cannot create blob directory for {hash}: {e}"))?;
            crate::write_atomic(path.to_str().ok_or("non-UTF-8 blob path")?, bytes)
                .map_err(|e| format!("cannot write blob {hash}: {e}"))?;
        }
        Ok(hash)
    }

    /// Ingest one run from in-memory artifacts `(kind, name, bytes)`.
    /// Appends a new generation to `meta`'s fingerprint line and
    /// returns the stored record.
    ///
    /// # Errors
    /// On I/O failures or an unknown artifact kind.
    pub fn ingest_bytes(
        &self,
        meta: &RunMeta,
        artifacts: &[(String, String, Vec<u8>)],
    ) -> Result<RunRecord, String> {
        let known: Vec<&str> = schema_versions().iter().map(|(k, _)| *k).collect();
        for (kind, name, _) in artifacts {
            if !known.contains(&kind.as_str()) {
                return Err(format!(
                    "unknown artifact kind '{kind}' for {name} (known: {})",
                    known.join(", ")
                ));
            }
        }
        let fingerprint = meta.fingerprint();
        let line_dir = self.root.join("runs").join(&fingerprint);
        std::fs::create_dir_all(&line_dir).map_err(|e| e.to_string())?;
        let gen = next_gen(&line_dir)?;

        let mut refs = Vec::with_capacity(artifacts.len());
        for (kind, name, bytes) in artifacts {
            let hash = self.write_blob(bytes)?;
            refs.push(ArtifactRef {
                kind: kind.clone(),
                name: name.clone(),
                sha256: hash,
                bytes: bytes.len() as u64,
            });
        }

        let mut id_input = format!("{fingerprint}/{gen}");
        for a in &refs {
            id_input.push('/');
            id_input.push_str(&a.sha256);
        }
        let run_id = sha256_hex(id_input.as_bytes())[..16].to_string();

        let record = RunRecord {
            run_id,
            fingerprint: fingerprint.clone(),
            gen,
            meta: meta.clone(),
            artifacts: refs,
        };
        let gen_dir = line_dir.join(format!("{gen:04}"));
        std::fs::create_dir_all(&gen_dir).map_err(|e| e.to_string())?;
        let manifest = gen_dir.join("manifest.json");
        crate::write_atomic(
            manifest.to_str().ok_or("non-UTF-8 manifest path")?,
            format!("{}\n", manifest_to_json(&record).render_pretty()).as_bytes(),
        )
        .map_err(|e| format!("cannot write manifest: {e}"))?;
        Ok(record)
    }

    /// Ingest one run from files on disk: `(kind, path)` pairs. The
    /// stored artifact name is the path's file name.
    ///
    /// # Errors
    /// When any file cannot be read, plus everything
    /// [`Archive::ingest_bytes`] can report.
    pub fn ingest_files(
        &self,
        meta: &RunMeta,
        files: &[(String, String)],
    ) -> Result<RunRecord, String> {
        let mut artifacts = Vec::with_capacity(files.len());
        for (kind, path) in files {
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read artifact {path}: {e}"))?;
            let name = Path::new(path)
                .file_name()
                .map_or_else(|| path.clone(), |n| n.to_string_lossy().into_owned());
            artifacts.push((kind.clone(), name, bytes));
        }
        self.ingest_bytes(meta, &artifacts)
    }

    /// All archived runs, sorted by (bin, fingerprint, generation).
    ///
    /// # Errors
    /// On the first corrupt or mismatching manifest: a manifest whose
    /// stored fingerprint disagrees with the fingerprint recomputed
    /// from its own metadata, or one filed under a different line's
    /// directory (a collision or a tamper), is rejected rather than
    /// silently joining the wrong history.
    pub fn runs(&self) -> Result<Vec<RunRecord>, String> {
        let mut out = Vec::new();
        for finding in self.scan() {
            out.push(finding?);
        }
        out.sort_by(|a, b| {
            (&a.meta.bin, &a.fingerprint, a.gen).cmp(&(&b.meta.bin, &b.fingerprint, b.gen))
        });
        Ok(out)
    }

    fn scan(&self) -> Vec<Result<RunRecord, String>> {
        let runs_dir = self.root.join("runs");
        let mut lines: Vec<PathBuf> = match std::fs::read_dir(&runs_dir) {
            Ok(d) => d.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(e) => return vec![Err(format!("cannot list {}: {e}", runs_dir.display()))],
        };
        lines.sort();
        let mut out = Vec::new();
        for line in lines.iter().filter(|p| p.is_dir()) {
            let mut gens: Vec<PathBuf> = match std::fs::read_dir(line) {
                Ok(d) => d.filter_map(|e| e.ok().map(|e| e.path())).collect(),
                Err(e) => {
                    out.push(Err(format!("cannot list {}: {e}", line.display())));
                    continue;
                }
            };
            gens.sort();
            for gen_dir in gens.iter().filter(|p| p.is_dir()) {
                out.push(load_manifest(line, gen_dir));
            }
        }
        out
    }

    /// Read one stored artifact back, verifying its content hash.
    ///
    /// # Errors
    /// When the blob is missing or its bytes no longer hash to the
    /// recorded address (bit rot, truncation, tampering).
    pub fn read_artifact(&self, artifact: &ArtifactRef) -> Result<Vec<u8>, String> {
        let path = self.blob_path(&artifact.sha256);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("missing blob {} ({e})", artifact.sha256))?;
        let hash = sha256_hex(&bytes);
        if hash != artifact.sha256 {
            return Err(format!(
                "blob {} is corrupt: content hashes to {hash}",
                artifact.sha256
            ));
        }
        Ok(bytes)
    }

    /// Full integrity sweep: every manifest must round-trip its
    /// fingerprint and every referenced blob must hash to its
    /// address. Returns the list of findings (empty ⇒ archive OK).
    ///
    /// # Errors
    /// Only when the archive directory itself cannot be listed.
    pub fn verify(&self) -> Result<Vec<String>, String> {
        let mut findings = Vec::new();
        for run in self.scan() {
            match run {
                Err(e) => findings.push(e),
                Ok(run) => {
                    for artifact in &run.artifacts {
                        if let Err(e) = self.read_artifact(artifact) {
                            findings.push(format!("{}: {e}", run.label()));
                        }
                    }
                }
            }
        }
        Ok(findings)
    }
}

fn next_gen(line_dir: &Path) -> Result<u64, String> {
    let mut max: Option<u64> = None;
    for entry in std::fs::read_dir(line_dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if let Ok(n) = entry.file_name().to_string_lossy().parse::<u64>() {
            max = Some(max.map_or(n, |m| m.max(n)));
        }
    }
    Ok(max.map_or(0, |m| m + 1))
}

fn manifest_to_json(record: &RunRecord) -> Json {
    let mut schemas = Json::object();
    for (k, v) in &record.meta.schemas {
        schemas = schemas.with(k.as_str(), v.as_str());
    }
    let artifacts: Vec<Json> = record
        .artifacts
        .iter()
        .map(|a| {
            Json::object()
                .with("kind", a.kind.as_str())
                .with("name", a.name.as_str())
                .with("sha256", a.sha256.as_str())
                .with("bytes", a.bytes)
        })
        .collect();
    let mut doc = Json::object()
        .with("schema", MANIFEST_SCHEMA)
        .with("run_id", record.run_id.as_str())
        .with("fingerprint", record.fingerprint.as_str())
        .with("gen", record.gen)
        .with("bin", record.meta.bin.as_str())
        .with(
            "args",
            Json::Arr(
                record
                    .meta
                    .args
                    .iter()
                    .map(|a| Json::Str(a.clone()))
                    .collect(),
            ),
        );
    doc = match record.meta.seed {
        Some(s) => doc.with("seed", s),
        None => doc.with("seed", Json::Null),
    };
    doc.with("schemas", schemas)
        .with("artifacts", Json::Arr(artifacts))
}

fn load_manifest(line_dir: &Path, gen_dir: &Path) -> Result<RunRecord, String> {
    let path = gen_dir.join("manifest.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let ctx = path.display().to_string();
    if doc.get("schema").and_then(Json::as_str) != Some(MANIFEST_SCHEMA) {
        return Err(format!("{ctx}: not a {MANIFEST_SCHEMA} manifest"));
    }
    let str_field = |key: &str| -> Result<String, String> {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{ctx}: missing '{key}'"))
    };
    let run_id = str_field("run_id")?;
    let fingerprint = str_field("fingerprint")?;
    let bin = str_field("bin")?;
    let gen = doc
        .get("gen")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: missing 'gen'"))?;
    let args: Vec<String> = doc
        .get("args")
        .and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .ok_or_else(|| format!("{ctx}: missing 'args'"))?;
    let seed = doc.get("seed").and_then(Json::as_u64);
    let schemas: Vec<(String, String)> = doc
        .get("schemas")
        .and_then(Json::as_object)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|v| (k.clone(), v.to_string())))
                .collect()
        })
        .ok_or_else(|| format!("{ctx}: missing 'schemas'"))?;
    let mut artifacts = Vec::new();
    for a in doc
        .get("artifacts")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{ctx}: missing 'artifacts'"))?
    {
        artifacts.push(ArtifactRef {
            kind: a
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: artifact missing 'kind'"))?
                .to_string(),
            name: a
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: artifact missing 'name'"))?
                .to_string(),
            sha256: a
                .get("sha256")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{ctx}: artifact missing 'sha256'"))?
                .to_string(),
            bytes: a.get("bytes").and_then(Json::as_u64).unwrap_or(0),
        });
    }
    let meta = RunMeta {
        bin,
        args,
        seed,
        schemas,
    };
    // Fingerprint integrity: the stored fingerprint, the fingerprint
    // recomputed from the stored metadata, and the directory the
    // manifest lives under must all agree. A disagreement means the
    // manifest was tampered with, mis-filed, or collided — pooling it
    // with the line's history would corrupt queries and trends, so it
    // is rejected outright.
    let recomputed = meta.fingerprint();
    if recomputed != fingerprint {
        return Err(format!(
            "{ctx}: fingerprint mismatch — manifest says {fingerprint}, \
             metadata hashes to {recomputed}"
        ));
    }
    let dir_name = line_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if dir_name != fingerprint {
        return Err(format!(
            "{ctx}: filed under line '{dir_name}' but fingerprints as '{fingerprint}'"
        ));
    }
    let dir_gen: Option<u64> = gen_dir
        .file_name()
        .and_then(|n| n.to_string_lossy().parse().ok());
    if dir_gen != Some(gen) {
        return Err(format!(
            "{ctx}: generation directory disagrees with manifest gen {gen}"
        ));
    }
    Ok(RunRecord {
        run_id,
        fingerprint,
        gen,
        meta,
        artifacts,
    })
}

// ---------------------------------------------------------------
// Cross-run query engine
// ---------------------------------------------------------------

/// What to select from each archived run.
#[derive(Debug, Clone)]
pub enum LabSelector {
    /// A `.jts` timeline series by name; the observation per segment
    /// is its window-end value.
    Series(String),
    /// A `/`-separated JSON path into the run's `bench` /
    /// `bench-history` document. `*` matches every array element or
    /// object member at that level; all numeric leaves at or under
    /// the selected nodes are collected.
    Column(String),
}

/// How runs are grouped before the Welford reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabGroupBy {
    /// One group per fingerprint line (the default): reruns and
    /// generations of the same configuration pool together.
    Fingerprint,
    /// One group per bench binary, pooling every configuration of it.
    Bin,
    /// One group per (bin, identity-args) pair, rendered textually —
    /// like [`LabGroupBy::Fingerprint`] but with a readable key.
    Args,
}

/// A cross-run selection.
#[derive(Debug, Clone)]
pub struct LabQuery {
    /// What to extract from each run.
    pub selector: LabSelector,
    /// Optional sim-time window in sim-nanoseconds (series mode).
    pub window: Option<(f64, f64)>,
    /// Grouping key.
    pub group_by: LabGroupBy,
}

/// One run's contribution to a group.
#[derive(Debug, Clone)]
pub struct RunValues {
    /// `bin@fingerprint/gen` label.
    pub label: String,
    /// The raw observations extracted from this run.
    pub values: Vec<f64>,
    /// Welford summary of this run's observations.
    pub summary: Summary,
}

/// One query group: per-run values plus the merged summary.
#[derive(Debug, Clone)]
pub struct GroupResult {
    /// The group key.
    pub key: String,
    /// Per-run observations, in run order.
    pub runs: Vec<RunValues>,
    /// The group-level summary: per-run summaries folded together
    /// with [`Summary::merge`] (merge ≡ concatenation, so this equals
    /// summarizing all observations at once).
    pub summary: Summary,
}

impl GroupResult {
    /// Render one group as JSON for the CLI's `--json` output.
    pub fn to_json(&self) -> Json {
        let runs: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                Json::object()
                    .with("run", r.label.as_str())
                    .with("n", r.summary.count())
                    .with("mean", r.summary.mean())
                    .with(
                        "values",
                        Json::Arr(r.values.iter().map(|&v| Json::Num(v)).collect()),
                    )
            })
            .collect();
        Json::object()
            .with("key", self.key.as_str())
            .with("runs", runs.len() as u64)
            .with("n", self.summary.count())
            .with("mean", self.summary.mean())
            .with("stddev", self.summary.stddev())
            .with("min", self.summary.min())
            .with("max", self.summary.max())
            .with("per_run", Json::Arr(runs))
    }
}

fn group_key(run: &RunRecord, group_by: LabGroupBy) -> String {
    match group_by {
        LabGroupBy::Fingerprint => format!("{}@{}", run.meta.bin, run.fingerprint),
        LabGroupBy::Bin => run.meta.bin.clone(),
        LabGroupBy::Args => {
            if run.meta.args.is_empty() {
                run.meta.bin.clone()
            } else {
                format!("{} {}", run.meta.bin, run.meta.args.join(" "))
            }
        }
    }
}

/// Select numeric leaves by path. `*` fans out over every member at
/// that level; reaching a non-leaf collects every numeric leaf below.
pub fn select_path(doc: &Json, path: &str) -> Vec<f64> {
    fn leaves(node: &Json, out: &mut Vec<f64>) {
        match node {
            Json::Num(n) => out.push(*n),
            Json::Arr(items) => items.iter().for_each(|i| leaves(i, out)),
            Json::Obj(members) => members.iter().for_each(|(_, v)| leaves(v, out)),
            _ => {}
        }
    }
    fn walk(node: &Json, segments: &[&str], out: &mut Vec<f64>) {
        let Some((head, rest)) = segments.split_first() else {
            leaves(node, out);
            return;
        };
        match node {
            Json::Arr(items) => {
                if *head == "*" {
                    items.iter().for_each(|i| walk(i, rest, out));
                } else if let Ok(idx) = head.parse::<usize>() {
                    if let Some(item) = items.get(idx) {
                        walk(item, rest, out);
                    }
                }
            }
            Json::Obj(members) => {
                if *head == "*" {
                    members.iter().for_each(|(_, v)| walk(v, rest, out));
                } else if let Some(v) = node.get(head) {
                    walk(v, rest, out);
                }
            }
            _ => {}
        }
    }
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let mut out = Vec::new();
    walk(doc, &segments, &mut out);
    out
}

fn run_observations(
    archive: &Archive,
    run: &RunRecord,
    query: &LabQuery,
) -> Result<Option<Vec<f64>>, String> {
    match &query.selector {
        LabSelector::Series(name) => {
            let Some(artifact) = run.artifact("timeline") else {
                return Ok(None);
            };
            let bytes = archive.read_artifact(artifact)?;
            let tl = Timeline::read(&bytes).map_err(|e| format!("{}: {e}", run.label()))?;
            let Some(idx) = tl.series_index(name) else {
                return Err(format!(
                    "{}: timeline has no series '{name}' (available: {})",
                    run.label(),
                    tl.series.join(", ")
                ));
            };
            let mut vals = Vec::with_capacity(tl.segments.len());
            for seg in &tl.segments {
                if let Some((a, _)) = query.window {
                    if seg.end_t < a {
                        continue;
                    }
                }
                let end = query.window.map_or(seg.end_t, |(_, b)| b.min(seg.end_t));
                vals.push(seg.value_at(idx, end));
            }
            Ok(Some(vals))
        }
        LabSelector::Column(path) => {
            let Some(artifact) = run
                .artifact("bench")
                .or_else(|| run.artifact("bench-history"))
            else {
                return Ok(None);
            };
            let bytes = archive.read_artifact(artifact)?;
            let text = String::from_utf8(bytes)
                .map_err(|_| format!("{}: bench artifact is not UTF-8", run.label()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", run.label()))?;
            Ok(Some(select_path(&doc, path)))
        }
    }
}

/// Run a cross-run query over every archived run, grouping and
/// reducing with Welford summaries. Runs lacking the selected
/// artifact kind are skipped; a query that matches nothing anywhere
/// is an error (it is almost always a typo'd series or path).
///
/// # Errors
/// On archive corruption, unknown series names, or an empty match.
pub fn query(archive: &Archive, query: &LabQuery) -> Result<Vec<GroupResult>, String> {
    let runs = archive.runs()?;
    let mut groups: BTreeMap<String, GroupResult> = BTreeMap::new();
    let mut matched = false;
    for run in &runs {
        let Some(values) = run_observations(archive, run, query)? else {
            continue;
        };
        matched = matched || !values.is_empty();
        let summary = Summary::of(&values);
        let key = group_key(run, query.group_by);
        let group = groups.entry(key.clone()).or_insert_with(|| GroupResult {
            key,
            runs: Vec::new(),
            summary: Summary::new(),
        });
        // The ISSUE-mandated reduction: per-run Welford summaries
        // folded into the group with Chan's merge.
        group.summary.merge(&summary);
        group.runs.push(RunValues {
            label: run.label(),
            values,
            summary,
        });
    }
    if !matched {
        return Err(match &query.selector {
            LabSelector::Series(s) => format!("no archived run matched series '{s}'"),
            LabSelector::Column(p) => format!("no archived run matched column path '{p}'"),
        });
    }
    Ok(groups.into_values().collect())
}

// ---------------------------------------------------------------
// Self-contained HTML report
// ---------------------------------------------------------------

/// Stable component color palette for the breakdown bars (cycled).
const PALETTE: [&str; 8] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#9c755f",
];

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Collect `(path, value)` for every numeric leaf named `key`.
fn named_leaves(doc: &Json, key: &str) -> Vec<(String, f64)> {
    fn walk(node: &Json, key: &str, path: &str, out: &mut Vec<(String, f64)>) {
        match node {
            Json::Obj(members) => {
                for (k, v) in members {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}/{k}")
                    };
                    if k == key {
                        if let Some(n) = v.as_f64() {
                            out.push((child.clone(), n));
                        }
                    }
                    walk(v, key, &child, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(v, key, &format!("{path}/{i}"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, key, "", &mut out);
    out
}

/// Collect `(path, object)` for every object-valued member named
/// `key` (e.g. `breakdown_nj`, `stats`).
fn named_objects<'a>(doc: &'a Json, key: &str) -> Vec<(String, &'a Json)> {
    fn walk<'a>(node: &'a Json, key: &str, path: &str, out: &mut Vec<(String, &'a Json)>) {
        match node {
            Json::Obj(members) => {
                for (k, v) in members {
                    let child = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}/{k}")
                    };
                    if k == key && matches!(v, Json::Obj(_)) {
                        out.push((child.clone(), v));
                    }
                    walk(v, key, &child, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(v, key, &format!("{path}/{i}"), out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(doc, key, "", &mut out);
    out
}

/// A horizontal stacked bar over the breakdown's components
/// (excluding the `total` member), scaled to the row's total.
fn breakdown_bar(breakdown: &Json, width: u32, height: u32) -> String {
    let Some(members) = breakdown.as_object() else {
        return String::new();
    };
    let parts: Vec<(&str, f64)> = members
        .iter()
        .filter(|(k, _)| k != "total")
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.as_str(), n)))
        .collect();
    let total: f64 = parts.iter().map(|(_, v)| v).sum();
    if total <= 0.0 {
        return String::new();
    }
    let mut rects = String::new();
    let mut x = 0.0;
    for (i, (name, v)) in parts.iter().enumerate() {
        let w = f64::from(width) * v / total;
        rects.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"0\" width=\"{w:.2}\" height=\"{height}\" \
             fill=\"{}\"><title>{}: {} nJ</title></rect>",
            PALETTE[i % PALETTE.len()],
            html_escape(name),
            fmt_si(*v)
        ));
        x += w;
    }
    format!(
        "<svg viewBox=\"0 0 {width} {height}\" width=\"{width}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\">{rects}</svg>"
    )
}

fn decision_mix_rows(stats: &Json) -> Option<String> {
    let remote = stats.get("remote").and_then(Json::as_u64)?;
    let interpreted = stats.get("interpreted").and_then(Json::as_u64)?;
    let local: Vec<u64> = stats
        .get("local")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default();
    let mut cells = format!("<td>{interpreted}</td><td>{remote}</td>");
    for (i, l) in local.iter().enumerate() {
        cells.push_str(&format!("<td>L{}: {l}</td>", i + 1));
    }
    Some(cells)
}

fn parse_doc(archive: &Archive, run: &RunRecord, kind: &str) -> Result<Option<Json>, String> {
    let Some(artifact) = run.artifact(kind) else {
        return Ok(None);
    };
    let bytes = archive.read_artifact(artifact)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| format!("{}: {kind} artifact is not UTF-8", run.label()))?;
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("{}: {kind}: {e}", run.label()))
}

/// Render the archive as one self-contained static HTML document: no
/// scripts, no external resources, inline SVG only. Deterministic for
/// identical archive contents.
///
/// # Errors
/// On archive corruption or unparseable stored documents.
pub fn html_report(archive: &Archive) -> Result<String, String> {
    let runs = archive.runs()?;
    let mut lines: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for run in &runs {
        lines.entry(&run.fingerprint).or_default().push(run);
    }
    let mut html = String::from(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>jem-lab report</title>\n<style>\n\
         body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:72rem;\
         padding:0 1rem;color:#1a1a2e;}\n\
         h1,h2,h3{font-weight:600;}\nh2{margin-top:2.2rem;border-bottom:1px solid #ddd;}\n\
         table{border-collapse:collapse;margin:0.6rem 0;}\n\
         th,td{border:1px solid #ddd;padding:0.25rem 0.55rem;text-align:left;\
         font-variant-numeric:tabular-nums;}\nth{background:#f4f4f8;}\n\
         code{background:#f4f4f8;padding:0 0.25rem;border-radius:3px;}\n\
         .muted{color:#667;}\n</style>\n</head>\n<body>\n<h1>jem-lab report</h1>\n",
    );
    html.push_str(&format!(
        "<p>{} run(s) across {} line(s)</p>\n",
        runs.len(),
        lines.len()
    ));

    // Cross-run trends per fingerprint line.
    html.push_str("<h2>History lines</h2>\n");
    for (fingerprint, line_runs) in &lines {
        let meta = &line_runs[0].meta;
        html.push_str(&format!(
            "<h3><code>{}</code> @ <code>{}</code></h3>\n<p class=\"muted\">args: \
             <code>{}</code> &middot; {} generation(s)</p>\n",
            html_escape(&meta.bin),
            html_escape(fingerprint),
            html_escape(&if meta.args.is_empty() {
                "(defaults)".to_string()
            } else {
                meta.args.join(" ")
            }),
            line_runs.len()
        ));
        // Trend: total energy per generation (sum of every
        // total_energy_nj leaf in the run's bench document).
        let mut energy_trend = Vec::new();
        for run in line_runs {
            if let Some(doc) = parse_doc(archive, run, "bench")? {
                let total: f64 = named_leaves(&doc, "total_energy_nj")
                    .iter()
                    .map(|(_, v)| v)
                    .sum();
                energy_trend.push(total);
            }
        }
        if energy_trend.len() >= 2 {
            html.push_str(&format!(
                "<p>total energy per generation {} <span class=\"muted\">[{} .. {}] nJ\
                 </span></p>\n",
                svg_sparkline(&energy_trend, 220, 30, 64, "#4e79a7"),
                fmt_si(energy_trend.iter().cloned().fold(f64::INFINITY, f64::min)),
                fmt_si(
                    energy_trend
                        .iter()
                        .cloned()
                        .fold(f64::NEG_INFINITY, f64::max)
                ),
            ));
        }
    }

    // Per-run detail.
    html.push_str("<h2>Runs</h2>\n");
    for run in &runs {
        html.push_str(&format!(
            "<h3><code>{}</code> <span class=\"muted\">run {}</span></h3>\n",
            html_escape(&run.label()),
            html_escape(&run.run_id)
        ));
        html.push_str(
            "<table>\n<tr><th>artifact</th><th>kind</th><th>bytes</th>\
                       <th>sha256</th></tr>\n",
        );
        for a in &run.artifacts {
            html.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td><code>{}</code></td></tr>\n",
                html_escape(&a.name),
                html_escape(&a.kind),
                a.bytes,
                html_escape(&a.sha256[..16])
            ));
        }
        html.push_str("</table>\n");

        if let Some(doc) = parse_doc(archive, run, "bench")? {
            // Energy breakdowns with stacked component bars.
            let breakdowns = named_objects(&doc, "breakdown_nj");
            if !breakdowns.is_empty() {
                html.push_str(
                    "<table>\n<tr><th>result</th><th>total (nJ)</th>\
                     <th>components</th></tr>\n",
                );
                for (path, bd) in breakdowns.iter().take(16) {
                    let total = bd.get("total").and_then(Json::as_f64).unwrap_or(0.0);
                    html.push_str(&format!(
                        "<tr><td><code>{}</code></td><td>{}</td><td>{}</td></tr>\n",
                        html_escape(path),
                        fmt_si(total),
                        breakdown_bar(bd, 260, 14)
                    ));
                }
                if breakdowns.len() > 16 {
                    html.push_str(&format!(
                        "<tr><td class=\"muted\" colspan=\"3\">&hellip; and {} more</td>\
                         </tr>\n",
                        breakdowns.len() - 16
                    ));
                }
                html.push_str("</table>\n");
            }
            // Decision mix from the embedded run stats.
            let stats = named_objects(&doc, "stats");
            let mix: Vec<(String, String)> = stats
                .iter()
                .filter_map(|(p, s)| decision_mix_rows(s).map(|row| (p.clone(), row)))
                .collect();
            if !mix.is_empty() {
                html.push_str(
                    "<table>\n<tr><th>result</th><th>interpreted</th><th>remote</th>\
                     <th colspan=\"3\">local</th></tr>\n",
                );
                for (path, cells) in mix.iter().take(16) {
                    html.push_str(&format!(
                        "<tr><td><code>{}</code></td>{cells}</tr>\n",
                        html_escape(path)
                    ));
                }
                html.push_str("</table>\n");
            }
        }

        // Timeline sparklines from the archived .jts, rendered by the
        // same resampling logic as the terminal dashboards.
        if let Some(artifact) = run.artifact("timeline") {
            let bytes = archive.read_artifact(artifact)?;
            let tl = Timeline::read(&bytes).map_err(|e| format!("{}: {e}", run.label()))?;
            html.push_str("<table>\n<tr><th>series</th><th>sparkline</th><th>end</th></tr>\n");
            for name in [
                "energy.core.cum_nj",
                "energy.radio-tx.cum_nj",
                "predictor.err_rel",
            ] {
                let Some(idx) = tl.series_index(name) else {
                    continue;
                };
                let vals: Vec<f64> = tl
                    .segments
                    .iter()
                    .flat_map(|seg| seg.cols[idx].iter().copied())
                    .collect();
                let end = tl
                    .segments
                    .last()
                    .map_or(0.0, |seg| seg.value_at(idx, seg.end_t));
                html.push_str(&format!(
                    "<tr><td><code>{}</code></td><td>{}</td><td>{}</td></tr>\n",
                    html_escape(name),
                    svg_sparkline(&vals, 300, 26, 100, "#b07aa1"),
                    fmt_si(end)
                ));
            }
            html.push_str("</table>\n");
        }
    }
    html.push_str("</body>\n</html>\n");
    Ok(html)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Multi-block message (> 64 bytes).
        assert_eq!(
            sha256_hex(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn identity_args_strip_output_flags() {
        let argv: Vec<String> = [
            "--runs",
            "40",
            "--trace",
            "a.jtb",
            "--seed",
            "7",
            "--json-out",
            "x.json",
            "--monitor",
            "--archive",
            "lab",
            "--slow-interp",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            identity_args(&argv),
            vec!["--runs", "40", "--seed", "7", "--monitor", "--slow-interp"]
        );
    }

    #[test]
    fn fingerprint_depends_on_identity_only() {
        let argv = |extra: &[&str]| -> Vec<String> {
            let mut v = vec!["target/release/faults".to_string()];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        let base = RunMeta::from_argv(&argv(&["--runs", "40", "--seed", "7"]));
        let renamed = RunMeta::from_argv(&argv(&[
            "--runs",
            "40",
            "--seed",
            "7",
            "--json-out",
            "other.json",
        ]));
        assert_eq!(base.fingerprint(), renamed.fingerprint());
        assert_eq!(base.seed, Some(7));
        let reseeded = RunMeta::from_argv(&argv(&["--runs", "40", "--seed", "8"]));
        assert_ne!(base.fingerprint(), reseeded.fingerprint());
        let other_bin = RunMeta {
            bin: "fig6".to_string(),
            ..base.clone()
        };
        assert_ne!(base.fingerprint(), other_bin.fingerprint());
    }

    #[test]
    fn select_path_wildcards_and_leaf_collection() {
        let doc = Json::parse(
            r#"{"points":[{"aa":{"breakdown_nj":{"core":10.0,"dram":2.0,"total":12.0}},
                 "loss":0.0},
                {"aa":{"breakdown_nj":{"core":20.0,"dram":3.0,"total":23.0}},
                 "loss":0.5}]}"#,
        )
        .unwrap();
        assert_eq!(
            select_path(&doc, "points/*/aa/breakdown_nj/core"),
            vec![10.0, 20.0]
        );
        assert_eq!(
            select_path(&doc, "points/1/aa/breakdown_nj/dram"),
            vec![3.0]
        );
        // Selecting a subtree collects all numeric leaves under it.
        assert_eq!(
            select_path(&doc, "points/0/aa/breakdown_nj"),
            vec![10.0, 2.0, 12.0]
        );
        assert!(select_path(&doc, "points/*/missing").is_empty());
    }
}
