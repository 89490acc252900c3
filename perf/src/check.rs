//! Output checks: unit digests, the golden file, and the committed
//! `BENCH_faults.json` oracle.

use jem_core::{encode_result, ScenarioResult};
use jem_jvm::Vm;
use jem_obs::Json;
use std::collections::BTreeMap;

/// Digests at the default seed, written by `jem-perf bless`.
const GOLDEN_JSON: &str = include_str!("../golden.json");

/// The committed faults baseline (`faults --runs 60`, seed 7): an
/// oracle independent of this benchmark.
const BENCH_FAULTS_JSON: &str = include_str!("../../bench/baselines/BENCH_faults.json");

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold one word in.
    fn word(self, w: u64) -> Digest {
        self.bytes(&w.to_le_bytes())
    }

    /// The digest value.
    fn value(self) -> u64 {
        self.0
    }
}

/// Digest of a scenario unit: its bit-exact result encoding (total
/// energy and breakdown f64 bits, time, sim-instructions, `RunStats`
/// and every invocation report).
pub fn scenario_digest(r: &ScenarioResult) -> u64 {
    Digest::default().bytes(&encode_result(r)).value()
}

/// Digest of an interpreted unit: the client machine's energy and
/// breakdown bits, its elapsed time and its sim-instruction count.
pub fn vm_digest(vm: &Vm<'_>) -> u64 {
    let m = &vm.machine;
    let mut d = Digest::default()
        .word(m.energy().nanojoules().to_bits())
        .word(m.elapsed().nanos().to_bits())
        .word(m.mix().total());
    for (_, e) in m.breakdown().iter() {
        d = d.word(e.nanojoules().to_bits());
    }
    d.value()
}

/// Unit name → digest, per workload.
pub type Golden = BTreeMap<String, BTreeMap<String, u64>>;

/// The golden digests this binary was built with.
pub fn golden() -> Golden {
    parse_golden(GOLDEN_JSON).expect("golden.json is well-formed")
}

/// Parse a golden document.
///
/// # Errors
/// A description of the first malformed member.
pub fn parse_golden(text: &str) -> Result<Golden, String> {
    let doc = Json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
    let mut out = Golden::new();
    for (workload, units) in doc
        .get("digests")
        .and_then(Json::as_object)
        .ok_or("golden.json: no digests")?
    {
        let mut map = BTreeMap::new();
        for (unit, hex) in units.as_object().ok_or("golden.json: bad workload entry")? {
            let v = hex
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or(format!("golden.json: bad digest for {unit}"))?;
            map.insert(unit.clone(), v);
        }
        out.insert(workload.clone(), map);
    }
    Ok(out)
}

/// Render a golden document.
pub fn render_golden(golden: &Golden) -> String {
    let mut digests = Json::object();
    for (workload, units) in golden {
        let mut obj = Json::object();
        for (unit, v) in units {
            obj = obj.with(unit, format!("{v:016x}"));
        }
        digests = digests.with(workload, obj);
    }
    Json::object()
        .with("seed", 0u64)
        .with("digests", digests)
        .render_pretty()
}

/// Indices of the `(unit name, digest)` pairs that differ from the
/// workload's golden digests (every pair when it has none).
pub fn golden_mismatches(
    golden: Option<&BTreeMap<String, u64>>,
    digests: &[(&str, u64)],
) -> Vec<usize> {
    digests
        .iter()
        .enumerate()
        .filter(|(_, (name, d))| golden.and_then(|g| g.get(*name)) != Some(d))
        .map(|(i, _)| i)
        .collect()
}

/// The `faults` baseline's expected `(total_energy_nj, total_time_ns,
/// sim_instructions)` per unit name (`loss0.25/aa_naive`, …).
pub fn faults_oracle() -> BTreeMap<String, (f64, f64, u64)> {
    let doc = Json::parse(BENCH_FAULTS_JSON).expect("BENCH_faults.json parses");
    let results = doc.get("results").expect("results member");
    assert_eq!(results.get("runs").and_then(Json::as_u64), Some(60));
    assert_eq!(results.get("seed").and_then(Json::as_u64), Some(7));
    let mut out = BTreeMap::new();
    for point in results
        .get("points")
        .and_then(Json::as_array)
        .expect("points")
    {
        let loss = point
            .get("loss_bad")
            .and_then(Json::as_f64)
            .expect("loss_bad");
        for key in ["aa", "aa_naive", "al"] {
            let r = point.get(key).expect("strategy entry");
            let num = |f: &str| r.get(f).and_then(Json::as_f64).expect("numeric field");
            out.insert(
                format!("loss{loss:.2}/{key}"),
                (
                    num("total_energy_nj"),
                    num("total_time_ns"),
                    num("sim_instructions") as u64,
                ),
            );
        }
    }
    out
}
