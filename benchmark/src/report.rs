//! Result records: the declared metrics, the host fingerprint, and the
//! JSON they travel in.

use std::collections::BTreeMap;
use std::process::Command;

use crate::api::Json;
use crate::stats::{quartiles, Quartiles};

/// The benchmark's declaration, shared with the driver that runs it: the
/// one place metric names, units, directions and bounds are written down.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// Version of the result files' layout.
pub const SCHEMA: u64 = 1;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the reference median; `None` for
    /// per-layer metrics, which have none.
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Declared {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

/// End-to-end metrics that are simulated statistics: identical in every rep
/// and, for one seed, on every host. Across seeds they vary, which is what
/// their bounds in `BENCHMARK.json` cover.
pub const EXACT_END_TO_END: [&str; 4] = [
    "sim_cycles",
    "sim_latency_p50_cycles",
    "sim_latency_p99_cycles",
    "sim_one_way_ns",
];

fn parse_decls(list: &Json, with_bound: bool) -> Vec<MetricDecl> {
    list.as_arr()
        .expect("metric list")
        .iter()
        .map(|m| MetricDecl {
            name: m.get("name").and_then(Json::as_str).expect("name").into(),
            unit: m.get("unit").and_then(Json::as_str).expect("unit").into(),
            lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
            bound: with_bound.then(|| m.get("bound").and_then(Json::as_f64).expect("bound")),
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn declared() -> Declared {
    let doc = Json::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
    Declared {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds"),
        end_to_end: parse_decls(doc.get("end_to_end").expect("end_to_end"), true),
        per_layer: parse_decls(doc.get("per_layer").expect("per_layer"), false),
    }
}

/// Workload names `BENCHMARK.json` declares, in its order.
#[cfg(test)]
pub fn declared_workloads() -> Vec<String> {
    let doc = Json::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
        .collect()
}

/// One reported metric: its value, unit, and the raw per-rep samples behind
/// it. The value is the median of the samples, except `run_wall_s`, whose
/// value is the envelope over the reps' slices (`runner::envelope`).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of its samples.
    pub fn median_of(name: &str, unit: &str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value: quartiles(&samples).median,
            samples,
        }
    }

    pub fn quartiles(&self) -> Quartiles {
        quartiles(&self.samples)
    }
}

/// The result of one invocation: one workload, traced or not.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub seconds: u64,
    pub reps: u64,
    /// Wall time of the whole invocation.
    pub wall_s: f64,
    pub host: Json,
    /// Packets the drivers had to deliver, over all reps.
    pub attempted: u64,
    /// Packets not delivered exactly once, plus every packet of a rep that
    /// failed a check.
    pub failed: u64,
    /// What went wrong, one line each; empty when `failed == 0`.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Every simulated statistic of rep 0, by name: what `expected.json`
    /// pins at seed 42 and `compare` holds equal between two results.
    pub exact: BTreeMap<String, f64>,
}

impl UnitResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The full record, for `benchmark/out/`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("workload", Json::from(self.workload.as_str())),
            ("seed", Json::from(self.seed)),
            ("trace", Json::from(u64::from(self.traced))),
            ("smoke", Json::from(self.smoke)),
            ("seconds", Json::from(self.seconds)),
            ("reps", Json::from(self.reps)),
            ("wall_s", Json::from(self.wall_s)),
            ("host", self.host.clone()),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "problems",
                Json::arr(self.problems.iter().map(|p| Json::from(p.as_str()))),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let q = m.quartiles();
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::from(m.value)),
                                    ("median", Json::from(q.median)),
                                    ("unit", Json::from(m.unit.as_str())),
                                    ("q1", Json::from(q.q1)),
                                    ("q3", Json::from(q.q3)),
                                    ("n", Json::from(q.n)),
                                    ("samples", Json::arr(m.samples.iter().copied())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("exact", self.exact_json()),
        ])
    }

    /// The simulated statistics as a JSON object (also one section of
    /// `expected.json`).
    pub fn exact_json(&self) -> Json {
        Json::Obj(
            self.exact
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        )
    }

    /// Reads a record written by [`UnitResult::to_json`].
    pub fn from_json(j: &Json) -> Result<UnitResult, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not a whole number"))
        };
        if num("schema")? != SCHEMA {
            return Err(format!("schema {} is not {SCHEMA}", num("schema")?));
        }
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                let samples = m
                    .get("samples")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("metric `{name}` has no samples"))?
                    .iter()
                    .map(|s| s.as_f64().ok_or_else(|| format!("`{name}`: bad sample")))
                    .collect::<Result<Vec<f64>, String>>()?;
                if samples.is_empty() {
                    return Err(format!("metric `{name}` has no samples"));
                }
                Ok(Metric {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("metric `{name}` has no unit"))?
                        .into(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("metric `{name}` has no value"))?,
                    samples,
                })
            })
            .collect::<Result<Vec<Metric>, String>>()?;
        let exact = field("exact")?
            .as_obj()
            .ok_or("`exact` is not an object")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("exact `{k}` is not a number"))
            })
            .collect::<Result<BTreeMap<_, _>, String>>()?;
        Ok(UnitResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .into(),
            seed: num("seed")?,
            traced: num("trace")? == 1,
            smoke: field("smoke")?.as_bool().ok_or("`smoke` is not a bool")?,
            seconds: num("seconds")?,
            reps: num("reps")?,
            wall_s: field("wall_s")?
                .as_f64()
                .ok_or("`wall_s` is not a number")?,
            host: field("host")?.clone(),
            attempted: num("attempted")?,
            failed: num("failed")?,
            problems: field("problems")?
                .as_arr()
                .ok_or("`problems` is not an array")?
                .iter()
                .map(|p| p.as_str().map(String::from).ok_or("bad problem line"))
                .collect::<Result<_, _>>()?,
            metrics,
            exact,
        })
    }

    /// The one-line object the contract asks for on the last line of
    /// standard output.
    pub fn contract_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit.as_str())),
                        ]),
                    )
                })
                .collect(),
        );
        compact(&Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ]))
    }

    /// Every metric by name with its unit, one per line.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}, {} reps, {:.1} s) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.reps,
            self.wall_s
        );
        for m in &self.metrics {
            let q = m.quartiles();
            if q.n > 1 {
                println!(
                    "{:<36} {:>16.6} {:<12} median {:.6} q1 {:.6} q3 {:.6} n {}",
                    m.name, m.value, m.unit, q.median, q.q1, q.q3, q.n
                );
            } else {
                println!("{:<36} {:>16.6} {:<12}", m.name, m.value, m.unit);
            }
        }
        println!(
            "{:<36} {:>16} {:<12} ops_failed {}",
            "ops", self.attempted, "packets", self.failed
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }
}

/// Single-line JSON (the crates' writer only pretty-prints).
pub fn compact(j: &Json) -> String {
    match j {
        Json::Arr(items) => {
            let inner: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", inner.join(", "))
        }
        Json::Obj(pairs) => {
            let inner: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", compact(&Json::from(k.as_str())), compact(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        // Scalars pretty-print on one line already.
        scalar => scalar.to_pretty_string().trim_end().to_string(),
    }
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MB; 0 where procfs is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on. Unknown parts read `"unknown"`; the
/// checkout the driver runs in is not a git repository.
pub fn host_fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    let commit = first_line_of(Command::new("git").args(["rev-parse", "HEAD"]));
    let dirty = first_line_of(Command::new("git").args(["status", "--porcelain"]));
    Json::obj([
        ("nproc", Json::from(nproc())),
        (
            "cpu_model",
            Json::from(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        (
            "governor",
            Json::from(
                std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "ram_mb",
            Json::from(
                proc_field("/proc/meminfo", "MemTotal")
                    .and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok())
                    .map_or(0, |kb| kb / 1024),
            ),
        ),
        (
            "rustc",
            Json::from(first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::from(commit.unwrap_or_else(unknown))),
        (
            "git_dirty",
            dirty.map_or(Json::Null, |d| Json::from(!d.is_empty())),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> UnitResult {
        UnitResult {
            workload: "lossy-load-k4".into(),
            seed: u64::MAX,
            traced: false,
            smoke: true,
            seconds: 15,
            reps: 3,
            wall_s: 19.25,
            host: Json::obj([("nproc", Json::from(2u64))]),
            attempted: 921_600,
            failed: 0,
            problems: vec![],
            metrics: vec![
                Metric {
                    name: "run_wall_s".into(),
                    unit: "s".into(),
                    value: 4.0625,
                    samples: vec![4.25, 4.5, 4.125],
                },
                Metric::median_of("sim_cycles", "cycles", vec![74_190.0; 3]),
            ],
            exact: BTreeMap::from([("sim.flit_hops".to_string(), 8_912_345.0)]),
        }
    }

    #[test]
    fn result_round_trips_through_json_text() {
        let r = sample_result();
        let text = r.to_json().to_pretty_string();
        let back = UnitResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("run_wall_s").unwrap().value, 4.0625);
        assert_eq!(back.metric("sim_cycles").unwrap().value, 74_190.0);
        let mut bad = r;
        bad.problems.push("rep 1 did not complete".into());
        bad.failed = 307_200;
        let back = UnitResult::from_json(&Json::parse(&bad.to_json().to_pretty_string()).unwrap())
            .unwrap();
        assert!(!back.correct());
        assert!(UnitResult::from_json(&Json::obj([("schema", Json::from(99u64))])).is_err());
    }

    #[test]
    fn contract_line_is_one_line_of_valid_json() {
        let line = sample_result().contract_line();
        assert!(!line.contains('\n'));
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").and_then(Json::as_bool), Some(true));
        let wall = j.get("metrics").unwrap().get("run_wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(4.0625));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn declaration_is_well_formed() {
        let d = declared();
        assert_eq!(d.end_to_end.len(), 7);
        assert!(d.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(EXACT_END_TO_END
            .iter()
            .all(|e| d.end_to_end.iter().any(|m| m.name == *e)));
        assert!(d.per_layer.len() <= 128 && d.per_layer.iter().all(|m| m.bound.is_none()));
        // The driver is handed every workload but the two-thread one, which
        // the traced run of `sat-uniform-k8` times instead.
        let driven: Vec<&str> = crate::workloads::NAMES
            .into_iter()
            .filter(|n| *n != "sharded-uniform-k8")
            .collect();
        assert_eq!(declared_workloads(), driven);
    }
}
