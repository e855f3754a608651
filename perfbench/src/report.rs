//! The result line on standard output and the result files.

use std::path::{Path, PathBuf};

use dimmerd::json::Json;

/// One run's verdict and metrics, as printed on the last output line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (mismatch, error, refusal or timeout).
    pub failed: u64,
    /// `(name, value, unit)` of every printed metric.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Failed share of the attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics object `{"name": {"value": v, "unit": u}, ...}`.
    pub fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Num(*value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The single JSON line printed last on standard output.
    pub fn to_line(&self) -> String {
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Int(self.attempted)),
            ("failed".to_string(), Json::Int(self.failed)),
            ("metrics".to_string(), self.metrics_json()),
        ])
        .to_string()
    }
}

/// Where result and span files go: `results/` next to the benchmark's
/// manifest.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The result-file stem of one run.
pub fn run_stem(workload: &str, seed: u64, trace: bool) -> String {
    format!("{workload}-seed{seed}-trace{}", u8::from(trace))
}

/// Builds a string-valued JSON object from pairs.
pub fn string_object<K: AsRef<str>>(pairs: &[(K, String)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.as_ref().to_string(), Json::Str(v.clone())))
            .collect(),
    )
}
