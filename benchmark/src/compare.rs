//! `compare A.json B.json`: is B (the change) worse than A (the parent) by
//! more than a metric's bound?

use crate::api::Json;
use crate::report::{self, Metric, MetricDecl, UnitResult, EXACT_END_TO_END};

/// A full result file: every workload's untraced and traced unit.
#[derive(Debug, Clone, PartialEq)]
pub struct FullResult {
    pub seed: u64,
    pub units: Vec<UnitResult>,
}

impl FullResult {
    /// Reads a `result.json` written by `run --all`.
    pub fn from_json(j: &Json) -> Result<FullResult, String> {
        let seed = j
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("result has no `seed`")?;
        let mut units = Vec::new();
        for (name, pair) in j
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result has no `workloads`")?
        {
            for part in ["end_to_end", "per_layer"] {
                let unit = pair
                    .get(part)
                    .ok_or_else(|| format!("workload `{name}` has no `{part}`"))?;
                units.push(UnitResult::from_json(unit).map_err(|e| format!("{name}.{part}: {e}"))?);
            }
        }
        Ok(FullResult { seed, units })
    }

    fn unit(&self, workload: &str, traced: bool) -> Option<&UnitResult> {
        self.units
            .iter()
            .find(|u| u.workload == workload && u.traced == traced)
    }
}

/// What `compare` concluded about one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (timings) or equal (exact numbers).
    Ok,
    /// Every run of B reads better than every run of A.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A's own inter-quartile spread exceeds the bound, so the runs cannot
    /// tell; never reported as "unchanged".
    Unresolved,
    /// A number that must repeat exactly differs.
    ExactMismatch,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// Judges a timing: the two sides' values against the bound, unless A's
/// per-rep samples spread past it.
pub fn judge_timing(decl: &MetricDecl, a: &Metric, b: &Metric) -> Verdict {
    let bound = decl.bound.expect("end-to-end metrics carry a bound");
    let qa = a.quartiles();
    let better = |x: f64, y: f64| {
        if decl.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    if qa.spread() > bound {
        let all_better = b
            .samples
            .iter()
            .all(|&x| a.samples.iter().all(|&y| better(x, y)));
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if decl.lower_is_better {
        (b.value - a.value) / a.value
    } else {
        (a.value - b.value) / a.value
    };
    if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn exact_rows(workload: &str, a: &UnitResult, b: &UnitResult, rows: &mut Vec<Row>) {
    for (k, va) in &a.exact {
        // Already compared as end-to-end metrics.
        if EXACT_END_TO_END.contains(&k.as_str()) {
            continue;
        }
        // Missing on the B side reads NaN, which equals nothing.
        let vb = b.exact.get(k).copied().unwrap_or(f64::NAN);
        rows.push(Row {
            workload: workload.to_string(),
            metric: k.clone(),
            a: *va,
            b: vb,
            verdict: if *va == vb {
                Verdict::Ok
            } else {
                Verdict::ExactMismatch
            },
        });
    }
}

/// Compares two full results metric by metric.
pub fn compare(a: &FullResult, b: &FullResult) -> Result<Vec<Row>, String> {
    let declared = report::declared();
    let same_seed = a.seed == b.seed;
    let mut rows = Vec::new();
    let workloads: Vec<&str> = a
        .units
        .iter()
        .filter(|u| !u.traced)
        .map(|u| u.workload.as_str())
        .collect();
    for w in workloads {
        let (ua, ub) = match (a.unit(w, false), b.unit(w, false)) {
            (Some(ua), Some(ub)) => (ua, ub),
            _ => return Err(format!("workload `{w}` is missing from B")),
        };
        if !ub.correct() {
            rows.push(Row {
                workload: w.to_string(),
                metric: "ops_failed".into(),
                a: ua.failed as f64,
                b: ub.failed as f64,
                verdict: Verdict::Regression,
            });
        }
        // More kernel threads than cores measures the host's scheduler.
        let oversubscribed = |u: &UnitResult| {
            w.starts_with("sharded")
                && u.host.get("nproc").and_then(Json::as_u64).unwrap_or(1)
                    < crate::workloads::SHARDS as u64
        };
        for decl in &declared.end_to_end {
            let (Some(ma), Some(mb)) = (ua.metric(&decl.name), ub.metric(&decl.name)) else {
                return Err(format!("{w}: metric `{}` is missing", decl.name));
            };
            let exact = EXACT_END_TO_END.contains(&decl.name.as_str());
            let verdict = if exact && same_seed {
                if ma.value == mb.value {
                    Verdict::Ok
                } else {
                    Verdict::ExactMismatch
                }
            } else if !exact && (oversubscribed(ua) || oversubscribed(ub)) {
                Verdict::Unresolved
            } else {
                judge_timing(decl, ma, mb)
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: decl.name.clone(),
                a: ma.value,
                b: mb.value,
                verdict,
            });
        }
        if same_seed {
            exact_rows(w, ua, ub, &mut rows);
            if let (Some(ta), Some(tb)) = (a.unit(w, true), b.unit(w, true)) {
                exact_rows(w, ta, tb, &mut rows);
            }
        }
    }
    Ok(rows)
}

/// Prints the comparison; returns whether B regressed anywhere.
pub fn print(rows: &[Row]) -> bool {
    let mut regressed = false;
    let mut unresolved = 0;
    let mut exact_ok = 0;
    for r in rows {
        let tag = match r.verdict {
            Verdict::Ok if r.metric.contains('.') => {
                exact_ok += 1;
                continue;
            }
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => {
                unresolved += 1;
                "UNRESOLVED"
            }
            Verdict::Regression => {
                regressed = true;
                "REGRESSION"
            }
            Verdict::ExactMismatch => {
                regressed = true;
                "EXACT-MISMATCH"
            }
        };
        let change = if r.a != 0.0 {
            (r.b - r.a) / r.a * 100.0
        } else {
            0.0
        };
        println!(
            "{:<20} {:<26} {:>16.6} -> {:>16.6} {:>+8.2}%  {tag}",
            r.workload, r.metric, r.a, r.b, change
        );
    }
    println!(
        "{exact_ok} exact counts identical, {unresolved} unresolved, {}",
        if regressed {
            "REGRESSED"
        } else {
            "no regression"
        }
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_rules() {
        let wall = MetricDecl {
            name: "run_wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.10),
        };
        let m = |samples: [f64; 3]| Metric::median_of("run_wall_s", "s", samples.to_vec());
        let judge = |a, b| judge_timing(&wall, &m(a), &m(b));
        let a = [4.0, 4.05, 3.95];
        assert_eq!(judge(a, [4.2, 4.3, 4.25]), Verdict::Ok);
        assert_eq!(judge(a, [3.0, 3.1, 3.05]), Verdict::Ok);
        assert_eq!(judge(a, [4.5, 4.6, 4.41]), Verdict::Regression);
        // The value decides, not the samples' median.
        let mut b = m([4.5, 4.6, 4.41]);
        b.value = 4.1;
        assert_eq!(judge_timing(&wall, &m(a), &b), Verdict::Ok);
        // A's own spread (≈ 38 %) exceeds the bound: the runs cannot tell…
        let noisy = [3.0, 4.0, 5.0];
        assert_eq!(judge(noisy, [4.6, 4.7, 4.8]), Verdict::Unresolved);
        assert_eq!(judge(noisy, [3.9, 4.0, 4.1]), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        assert_eq!(judge(noisy, [2.0, 2.5, 2.9]), Verdict::Improved);
    }

    fn unit(workload: &str, traced: bool, wall: [f64; 3], cycles: f64) -> UnitResult {
        let d = report::declared();
        UnitResult {
            workload: workload.into(),
            seed: 42,
            traced,
            smoke: false,
            seconds: 15,
            reps: 3,
            wall_s: 20.0,
            host: Json::obj([("nproc", Json::from(2u64))]),
            attempted: 10,
            failed: 0,
            problems: vec![],
            metrics: d
                .end_to_end
                .iter()
                .map(|m| {
                    let samples = match m.name.as_str() {
                        "run_wall_s" => wall.to_vec(),
                        "sim_cycles" => vec![cycles; 3],
                        _ => vec![1.0; 3],
                    };
                    Metric::median_of(&m.name, &m.unit, samples)
                })
                .collect(),
            exact: [("sim.flit_hops".to_string(), 8.0e6)].into(),
        }
    }

    fn full(wall: [f64; 3], cycles: f64, hops: f64) -> FullResult {
        let mut traced = unit("blend-iw-k4", true, wall, cycles);
        traced.exact = [("sim.flit_hops".to_string(), hops)].into();
        FullResult {
            seed: 42,
            units: vec![unit("blend-iw-k4", false, wall, cycles), traced],
        }
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Vec<Verdict> {
        rows.iter()
            .filter(|r| r.metric == metric)
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn full_comparison_flags_regression_and_exact_mismatch() {
        let a = full([4.0, 4.05, 3.95], 1000.0, 8.0e6);
        let same = compare(&a, &a).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(!print(&same));

        // Slower than A by the declared bound and a little more.
        let bound = report::declared()
            .end_to_end
            .iter()
            .find(|d| d.name == "run_wall_s")
            .and_then(|d| d.bound)
            .expect("declared with a bound");
        let slower = [4.0, 4.05, 3.95].map(|s| s * (1.0 + bound + 0.03));
        let slow = compare(&a, &full(slower, 1000.0, 8.0e6)).unwrap();
        assert_eq!(verdict_of(&slow, "run_wall_s"), [Verdict::Regression]);
        assert!(print(&slow));

        // One cycle off is a model change, whatever the bound says.
        let drift = compare(&a, &full([4.0, 4.05, 3.95], 1001.0, 8.0e6)).unwrap();
        assert_eq!(verdict_of(&drift, "sim_cycles"), [Verdict::ExactMismatch]);

        // A traced-run count that moved.
        let hops = compare(&a, &full([4.0, 4.05, 3.95], 1000.0, 8.0e6 + 1.0)).unwrap();
        assert_eq!(
            verdict_of(&hops, "sim.flit_hops"),
            [Verdict::Ok, Verdict::ExactMismatch]
        );

        // Across seeds the simulated statistics fall back on their bounds.
        let mut other_seed = full([4.0, 4.05, 3.95], 1001.0, 7.0e6);
        other_seed.seed = 43;
        let rows = compare(&a, &other_seed).unwrap();
        assert_eq!(verdict_of(&rows, "sim_cycles"), [Verdict::Ok]);
        assert!(verdict_of(&rows, "sim.flit_hops").is_empty());

        let mut failed = a.clone();
        failed.units[0].failed = 10;
        let rows = compare(&a, &failed).unwrap();
        assert_eq!(verdict_of(&rows, "ops_failed"), [Verdict::Regression]);

        let mut one_core = a.clone();
        for u in &mut one_core.units {
            u.workload = "sharded-uniform-k8".into();
            u.host = Json::obj([("nproc", Json::from(1u64))]);
        }
        let rows = compare(&one_core, &one_core).unwrap();
        assert_eq!(verdict_of(&rows, "run_wall_s"), [Verdict::Unresolved]);
        assert_eq!(verdict_of(&rows, "sim_cycles"), [Verdict::Ok]);
    }
}
