//! The metric catalogue, read from the repository's `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the single list of workloads, metrics, units
//! and regression bounds: the benchmark emits exactly the metrics it
//! names, and `compare` judges with the bounds it fixes.

use jem_obs::Json;

/// The catalogue text, fixed at build time.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which side of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (times, memory).
    Lower,
}

/// One catalogued metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Largest tolerated worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// Workload names, in catalogue order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (gated by their bounds).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (never gated).
    pub per_layer: Vec<MetricSpec>,
    /// Measured seconds per run.
    pub run_seconds: u64,
}

impl Catalogue {
    /// The catalogue this binary was built with.
    pub fn load() -> Catalogue {
        Catalogue::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    /// Parse a `BENCHMARK.json` document.
    ///
    /// # Errors
    /// A description of the first malformed member.
    pub fn parse(text: &str) -> Result<Catalogue, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: no {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    let better = match field("better")?.as_str() {
                        "higher" => Better::Higher,
                        "lower" => Better::Lower,
                        other => return Err(format!("BENCHMARK.json: bad better `{other}`")),
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        better,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Catalogue {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }

    /// Look up a metric by name in either list.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
