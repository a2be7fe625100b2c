//! Parallel experiment harness: typed sweep specifications executed across a
//! scoped worker pool, with structured results export.
//!
//! An experiment is described once as an [`ExperimentSpec`] — a named list of
//! [`SweepPoint`]s, each carrying typed parameters and a deterministic
//! per-point seed derived from the spec's base seed and the point index.
//! [`ExperimentSpec::run`] executes the points across `--threads` workers
//! (each point builds its own independent `Sim`) and returns
//! [`Measurement`] records in enumeration order, so parallel execution is
//! bit-identical to serial: seeds depend only on `(base_seed, index)`, points
//! never share state, and results land in index-addressed slots.
//!
//! ```
//! use anton_bench::harness::{ExperimentSpec, Json};
//! use anton_bench::values;
//!
//! let mut spec = ExperimentSpec::new("doc_example", 42);
//! for k in [2u64, 4] {
//!     spec.push_point(values!["k" => k]);
//! }
//! let out = spec.run(2, |point| {
//!     let k = point.int("k");
//!     values!["k_squared" => k * k]
//! });
//! assert_eq!(out[1].metric("k_squared"), Some(&Json::Int(16)));
//! ```

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub use anton_obs::json::Json;

/// Builds a `Vec<(String, Json)>` — the parameter/metric list shape used
/// throughout the harness — from `key => value` pairs of mixed types.
///
/// ```
/// use anton_bench::values;
/// let params = values!["pattern" => "uniform", "batch" => 64u64, "rate" => 0.5];
/// assert_eq!(params.len(), 3);
/// ```
#[macro_export]
macro_rules! values {
    ($($k:expr => $v:expr),* $(,)?) => {
        vec![$(($k.to_string(), $crate::harness::Json::from($v))),*]
    };
}

/// One configuration in a sweep: typed parameters plus the deterministic
/// seed assigned from `(base_seed, index)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the spec's enumeration order.
    pub index: usize,
    /// Per-point RNG seed; a function of the spec's base seed and `index`
    /// only, never of thread scheduling.
    pub seed: u64,
    /// Typed sweep parameters, in declaration order.
    pub params: Vec<(String, Json)>,
}

impl SweepPoint {
    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Json> {
        self.params.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Integer parameter accessor; panics with the point context if the
    /// parameter is missing or not an integer.
    pub fn int(&self, name: &str) -> i64 {
        let value = self.param(name);
        value.and_then(Json::as_i64).unwrap_or_else(|| {
            panic!(
                "point {}: expected int param `{name}`, got {value:?}",
                self.index
            )
        })
    }

    /// Float parameter accessor; integer parameters promote to float.
    pub fn float(&self, name: &str) -> f64 {
        let value = self.param(name);
        value.and_then(Json::as_f64).unwrap_or_else(|| {
            panic!(
                "point {}: expected float param `{name}`, got {value:?}",
                self.index
            )
        })
    }

    /// String parameter accessor.
    pub fn str(&self, name: &str) -> &str {
        let value = self.param(name);
        value.and_then(Json::as_str).unwrap_or_else(|| {
            panic!(
                "point {}: expected string param `{name}`, got {value:?}",
                self.index
            )
        })
    }
}

/// The outcome of executing one [`SweepPoint`]: the point's identity plus
/// the metrics the experiment body reported for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Enumeration index of the point this measurement came from.
    pub index: usize,
    /// The seed the point ran with.
    pub seed: u64,
    /// The point's parameters (copied so a measurement is self-describing).
    pub params: Vec<(String, Json)>,
    /// Observed metrics, in the order the experiment body reported them.
    pub metrics: Vec<(String, Json)>,
}

impl Measurement {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Json> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Float metric accessor; integer metrics promote to float. Panics if
    /// the metric is missing or non-numeric.
    pub fn metric_f64(&self, name: &str) -> f64 {
        let value = self.metric(name);
        value.and_then(Json::as_f64).unwrap_or_else(|| {
            panic!(
                "measurement {}: expected numeric metric `{name}`, got {value:?}",
                self.index
            )
        })
    }
}

/// Schema version stamped into results files with no attachments; files at
/// this version are exactly the PR-1 shape.
pub const RESULTS_SCHEMA_VERSION: u64 = 1;

/// Schema version stamped when observability attachments (sampled `windows`,
/// `deadlock_reports`, …) are appended after `points`. A v2 document is a v1
/// document plus extra top-level sections — v1 readers that ignore unknown
/// keys keep working.
pub const RESULTS_SCHEMA_VERSION_V2: u64 = 2;

/// A named sweep: the typed front door of the experiment harness.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    name: String,
    base_seed: u64,
    points: Vec<SweepPoint>,
}

impl ExperimentSpec {
    /// Creates an empty spec. `base_seed` is the only entropy source: every
    /// point's seed is derived from it and the point index.
    pub fn new(name: impl Into<String>, base_seed: u64) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            base_seed,
            points: Vec::new(),
        }
    }

    /// The experiment name (also the stem of the results file).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base seed the point seeds are derived from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Appends a sweep point, assigning its index and derived seed.
    pub fn push_point(&mut self, params: Vec<(String, Json)>) -> &mut Self {
        let index = self.points.len();
        let seed = derive_seed(self.base_seed, index as u64);
        self.points.push(SweepPoint {
            index,
            seed,
            params,
        });
        self
    }

    /// The enumerated points, in declaration order.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Executes every point and collects measurements in enumeration order.
    ///
    /// `threads` workers (clamped to `1..=points`) pull point indices from a
    /// shared atomic counter; each invocation of `body` receives one point
    /// and returns that point's metrics. Results are written to
    /// index-addressed slots, so the returned vector is identical for any
    /// thread count — parallelism changes wall-clock time, never output.
    ///
    /// A panic in `body` propagates to the caller once the scope unwinds.
    pub fn run<F>(&self, threads: usize, body: F) -> Vec<Measurement>
    where
        F: Fn(&SweepPoint) -> Vec<(String, Json)> + Sync,
    {
        let n = self.points.len();
        let workers = threads.clamp(1, n.max(1));
        let next = AtomicUsize::new(0);
        type ResultSlot = Mutex<Option<Vec<(String, Json)>>>;
        let slots: Vec<ResultSlot> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let metrics = body(&self.points[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(metrics);
                });
            }
        });

        self.points
            .iter()
            .zip(slots)
            .map(|(p, slot)| Measurement {
                index: p.index,
                seed: p.seed,
                params: p.params.clone(),
                metrics: slot
                    .into_inner()
                    .expect("result slot poisoned")
                    .expect("worker pool finished every point"),
            })
            .collect()
    }

    /// Renders measurements plus observability attachments as the
    /// structured results document.
    ///
    /// Schema: `{ experiment, schema_version, base_seed, points:
    /// [ { index, seed, params: {..}, metrics: {..} } ] }`. Thread count is
    /// deliberately absent — it must not influence results.
    ///
    /// With an empty attachment list the document is schema version 1; any
    /// attachment (sampled `windows`, `deadlock_reports`, …) bumps it to
    /// [`RESULTS_SCHEMA_VERSION_V2`] and appends the sections after
    /// `points`.
    pub fn results_json(&self, measurements: &[Measurement], attachments: &[(&str, Json)]) -> Json {
        let points = measurements
            .iter()
            .map(|m| {
                Json::obj([
                    ("index", Json::from(m.index)),
                    ("seed", Json::from(m.seed)),
                    ("params", Json::Obj(m.params.clone())),
                    ("metrics", Json::Obj(m.metrics.clone())),
                ])
            })
            .collect::<Vec<_>>();
        let version = if attachments.is_empty() {
            RESULTS_SCHEMA_VERSION
        } else {
            RESULTS_SCHEMA_VERSION_V2
        };
        let mut fields = vec![
            ("experiment".to_string(), Json::from(self.name.as_str())),
            ("schema_version".to_string(), Json::from(version)),
            ("base_seed".to_string(), Json::from(self.base_seed)),
            ("points".to_string(), Json::Arr(points)),
        ];
        fields.extend(
            attachments
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone())),
        );
        Json::Obj(fields)
    }

    /// Writes [`results_json`](ExperimentSpec::results_json) to
    /// `results/<name>.json` under `dir` (creating `results/` if needed)
    /// and returns the path written. The write is atomic
    /// (temp-file-then-rename), so a crashed or interrupted run never leaves
    /// a truncated results file behind.
    pub fn write_results(
        &self,
        dir: &Path,
        measurements: &[Measurement],
        attachments: &[(&str, Json)],
    ) -> io::Result<PathBuf> {
        let results_dir = dir.join("results");
        std::fs::create_dir_all(&results_dir)?;
        let path = results_dir.join(format!("{}.json", self.name));
        let doc = self.results_json(measurements, attachments);
        anton_obs::write_atomic(&path, &doc.to_pretty_string())?;
        Ok(path)
    }
}

/// Derives the RNG seed for sweep-point `index` of a spec seeded with
/// `base`. Pure function of its arguments, so any execution schedule assigns
/// identical seeds. This is the same splitmix64 derivation that backs every
/// other stream seed in the simulator ([`anton_core::seed`]), so committed
/// results keep their seeds across harness versions.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    anton_core::seed::derive_stream_seed(base, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("demo", 7);
        for batch in [8u64, 16, 32] {
            for pattern in ["uniform", "tornado"] {
                spec.push_point(values!["batch" => batch, "pattern" => pattern]);
            }
        }
        spec
    }

    #[test]
    fn seeds_depend_only_on_base_and_index() {
        let a = demo_spec();
        let b = demo_spec();
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.seed, derive_seed(7, pa.index as u64));
        }
        // Distinct indices and distinct bases give distinct seeds.
        let seeds: std::collections::HashSet<u64> = a.points().iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), a.points().len());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn parallel_run_matches_serial_exactly() {
        let spec = demo_spec();
        let body = |p: &SweepPoint| {
            values![
                "echo_batch" => p.int("batch"),
                "seeded" => p.seed % 97,
                "label" => format!("{}-{}", p.str("pattern"), p.index),
            ]
        };
        let serial = spec.run(1, body);
        let parallel = spec.run(4, body);
        let oversubscribed = spec.run(64, body);
        assert_eq!(serial, parallel);
        assert_eq!(serial, oversubscribed);
        assert_eq!(serial.len(), 6);
        for (i, m) in serial.iter().enumerate() {
            assert_eq!(m.index, i);
        }
        // Identical JSON bytes, the strongest form of the guarantee.
        assert_eq!(
            spec.results_json(&serial, &[]).to_pretty_string(),
            spec.results_json(&parallel, &[]).to_pretty_string()
        );
    }

    #[test]
    fn typed_accessors_promote_and_panic() {
        let mut spec = ExperimentSpec::new("acc", 0);
        spec.push_point(values!["n" => 3u64, "f" => 0.25, "tag" => "x"]);
        let p = &spec.points()[0];
        assert_eq!(p.int("n"), 3);
        assert_eq!(p.float("n"), 3.0);
        assert_eq!(p.float("f"), 0.25);
        assert_eq!(p.str("tag"), "x");
        assert!(std::panic::catch_unwind(|| p.int("missing")).is_err());
        assert!(std::panic::catch_unwind(|| p.str("n")).is_err());
    }

    #[test]
    fn results_json_has_declared_schema() {
        let mut spec = ExperimentSpec::new("schema_check", 5);
        spec.push_point(values!["k" => 4u64]);
        let out = spec.run(1, |_| values!["metric" => 1.5]);
        let doc = spec.results_json(&out, &[]).to_pretty_string();
        assert!(doc.contains("\"experiment\": \"schema_check\""));
        assert!(doc.contains("\"schema_version\": 1"));
        assert!(doc.contains("\"base_seed\": 5"));
        assert!(doc.contains("\"metric\": 1.5"));
        assert!(
            !doc.contains("threads"),
            "thread count must not leak into results"
        );
        // Nothing records how the points ran (threads, kernel): exactly
        // these top-level keys.
        let Json::Obj(fields) = Json::parse(&doc).unwrap() else {
            panic!("results document is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["experiment", "schema_version", "base_seed", "points"]
        );
    }

    #[test]
    fn attachments_bump_schema_to_v2_and_empty_list_is_byte_identical_v1() {
        let mut spec = ExperimentSpec::new("v2_check", 3);
        spec.push_point(values!["k" => 1u64]);
        let out = spec.run(1, |_| values!["m" => 2u64]);
        let v1 = spec.results_json(&out, &[]).to_pretty_string();
        let windows = Json::obj([("every", Json::from(100u64))]);
        let v2 = spec
            .results_json(&out, &[("windows", windows)])
            .to_pretty_string();
        assert!(v1.contains("\"schema_version\": 1"));
        assert!(v2.contains("\"schema_version\": 2"));
        assert!(v2.contains("\"windows\""));
        // A v2 document is the v1 document, byte for byte, plus its sections.
        let mut stripped = Json::parse(&v2).expect("valid results document");
        let Json::Obj(fields) = &mut stripped else {
            unreachable!("results_json returns an object")
        };
        fields.retain(|(k, _)| k != "windows");
        for (k, v) in fields.iter_mut() {
            if k == "schema_version" {
                *v = Json::from(RESULTS_SCHEMA_VERSION);
            }
        }
        assert_eq!(stripped.to_pretty_string(), v1);
        // Both versions parse, with the envelope a reader keys on.
        for (text, version) in [(&v1, 1), (&v2, 2)] {
            let doc = Json::parse(text).expect("valid results document");
            assert_eq!(
                doc.get("experiment").and_then(Json::as_str),
                Some("v2_check")
            );
            assert_eq!(
                doc.get("schema_version").and_then(Json::as_u64),
                Some(version)
            );
            assert_eq!(
                doc.get("points").and_then(Json::as_arr).map(<[_]>::len),
                Some(1)
            );
        }
    }

    #[test]
    fn write_results_creates_the_results_directory() {
        let mut spec = ExperimentSpec::new("write_check", 1);
        spec.push_point(values!["k" => 2u64]);
        let out = spec.run(1, |_| values!["ok" => true]);
        let dir = std::env::temp_dir().join(format!("anton_harness_test_{}", std::process::id()));
        let path = spec.write_results(&dir, &out, &[]).expect("write results");
        assert_eq!(path, dir.join("results").join("write_check.json"));
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text, spec.results_json(&out, &[]).to_pretty_string());
        std::fs::remove_dir_all(&dir).ok();
    }
}
