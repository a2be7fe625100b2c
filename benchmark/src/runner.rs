//! One invocation: a workload's untraced reps (the end-to-end metrics) or
//! its traced reps plus the isolated layer drives (the per-layer metrics).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::api::{self, HostTime, Instruments, Json, Mark, Numbers, Rig};
use crate::report::{self, Metric, UnitResult};
use crate::trace::Spans;
use crate::workloads::{self, Kind, Size, Spec};

/// Fewest timed reps of an untraced invocation: a disturbance that hits a
/// slice of the run shows unless some other rep ran that slice undisturbed.
const MIN_REPS: u64 = 3;
/// Most timed reps, however long `--seconds` is.
const MAX_REPS: u64 = 60;
/// Each rep sets up again and again until this long has passed, every build
/// a sample of its own, so that a run has enough set-ups for one of them to
/// be undisturbed.
const SETUP_LOOP_S: f64 = 0.5;

/// What to run.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

/// The seed whose exact numbers `expected.json` pins.
pub const PINNED_SEED: u64 = 42;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// What one rep measured.
struct Rep {
    /// What each set-up of this rep cost.
    setups: Vec<f64>,
    sim_build_s: f64,
    run_wall_s: f64,
    /// What each slice of the run cost.
    slices: Vec<f64>,
    ops: u64,
    /// Simulated statistics: exact for a fixed seed.
    sim: Numbers,
    /// Host times of the instruments that were on.
    host: Numbers,
    problems: Vec<String>,
}

impl Rep {
    /// The fastest set-up of the rep.
    fn setup_s(&self) -> f64 {
        self.setups.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Sets up, runs and audits one rep inside a span called `label`.
/// `setup_counts` says whether the rep's `setup_s` is reported, and so
/// whether the set-up is worth repeating.
fn rep(
    spec: &Spec,
    seed: u64,
    instruments: Instruments,
    setup_counts: bool,
    label: &'static str,
    spans: &mut Spans,
) -> Rep {
    let inputs = workloads::inputs(spec, seed);
    let rep_span = spans.enter(label);

    let setup_span = spans.enter("setup");
    let mut sim_build_s = 0.0;
    let mut total = 0.0;
    let mut setups = Vec::new();
    let mut rig = loop {
        let t = Mark::now();
        let rig = Rig::build(spec, &inputs, instruments, |name, start, end| {
            if name == "sim.build" {
                sim_build_s = (end - start).as_secs_f64();
            }
            spans.closed(name, start, end);
        });
        let took = Mark::now().since(&t);
        total += took.wall_s;
        // Every kernel is built on the calling thread.
        setups.push(cost(took, true));
        if !setup_counts || total >= SETUP_LOOP_S {
            break rig;
        }
    };
    spans.attach(setup_span, "builds", setups.len() as f64);
    spans.exit(setup_span);

    let run_span = spans.enter("run");
    let run = rig.run();
    for (k, v) in &run.host {
        spans.attach(run_span, k, *v);
    }
    spans.exit(run_span);

    let audit_span = spans.enter("audit");
    let t = Instant::now();
    let invariants = rig.check_invariants();
    spans.closed("check_invariants", t, Instant::now());
    let t = Instant::now();
    let sim = rig.simulated();
    spans.closed("metrics", t, Instant::now());
    let mut problems = Vec::new();
    if !run.completed {
        problems.push(format!("{label}: run() did not end Completed"));
    }
    if let Err(e) = invariants {
        problems.push(format!("{label}: check_invariants: {e}"));
    }
    let ops = rig.ops as f64;
    for key in [
        "driver.delivered",
        "sim.delivered_packets",
        "sim.injected_packets",
    ] {
        if sim.get(key) != Some(&ops) {
            problems.push(format!(
                "{label}: {key} = {:?}, not the {ops} packets the driver must deliver",
                sim.get(key)
            ));
        }
    }
    for (probe, driver) in [
        ("sim_latency_p50_cycles", "driver.latency_p50"),
        ("sim_latency_p99_cycles", "driver.latency_p99"),
    ] {
        if sim.contains_key(driver) && sim.get(driver) != sim.get(probe) {
            problems.push(format!("{label}: {probe} disagrees with the driver's own"));
        }
    }
    for (k, v) in &sim {
        spans.attach(run_span, k, *v);
    }
    spans.exit(audit_span);

    let t = Instant::now();
    drop(rig);
    spans.closed("teardown", t, Instant::now());
    spans.exit(rep_span);
    Rep {
        setups,
        sim_build_s,
        run_wall_s: run.wall_s,
        slices: run
            .slices
            .iter()
            .map(|&s| cost(s, spec.shards == 1))
            .collect(),
        ops: ops as u64,
        sim,
        host: run.host,
        problems,
    }
}

/// What a stretch of the program cost. Code that runs on the calling thread
/// and never blocks (`on_one_thread`: every set-up, and `run()` of the serial
/// kernel) is charged its on-CPU time where the host offers that clock: its
/// wall time less whatever kept the thread off its CPU. The sharded kernel's
/// workers wait for each other and the wait is part of its cost: wall time.
fn cost(took: HostTime, on_one_thread: bool) -> f64 {
    match took.on_cpu_s {
        Some(on_cpu_s) if on_one_thread => on_cpu_s,
        _ => took.wall_s,
    }
}

/// The run time of an undisturbed host: for each slice, the least any rep
/// took for it, summed over the slices.
///
/// Slice `i` does identical work in every rep, and whatever else the host is
/// doing can only add to its time, so the least of the reps' times is the
/// best estimate of what the slice costs; a disturbance has to hit the same
/// slice of every rep to show. `None` if the reps were not cut alike.
pub fn envelope(reps: &[Vec<f64>]) -> Option<f64> {
    let first = reps.first()?;
    if first.is_empty() || reps.iter().any(|r| r.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
            .sum(),
    )
}

/// Lines describing where two reps' simulated statistics differ.
fn disagreements(what: &str, a: &Numbers, b: &Numbers, keys: Option<&[&str]>) -> Vec<String> {
    let mut out = Vec::new();
    for (k, va) in a {
        if keys.is_some_and(|ks| !ks.contains(k)) {
            continue;
        }
        match b.get(k) {
            Some(vb) if vb == va => {}
            other => out.push(format!("{what}: {k} = {va} vs {other:?}")),
        }
    }
    out
}

/// The pinned numbers of `section` (a workload name or `"layers"`).
fn expected(section: &str) -> Vec<(String, f64)> {
    let doc = Json::parse(EXPECTED_JSON).expect("expected.json is valid JSON");
    doc.get(section)
        .and_then(Json::as_obj)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                .collect()
        })
        .unwrap_or_default()
}

/// Lines describing where `got` departs from the pinned numbers. Pinned
/// values went through JSON text, so equality is to a relative 1e-12.
fn pinned_mismatches(section: &str, got: &BTreeMap<String, f64>) -> Vec<String> {
    let pinned = expected(section);
    if pinned.is_empty() {
        return vec![format!("expected.json has no section `{section}`")];
    }
    let mut out = Vec::new();
    for (k, want) in &pinned {
        match got.get(k) {
            Some(have) if (have - want).abs() <= 1e-12 * want.abs() => {}
            Some(have) => out.push(format!(
                "{section}: {k} = {have}, expected.json pins {want}"
            )),
            // A traced-only count is absent from an untraced run.
            None => {}
        }
    }
    out
}

fn exact_map(sim: &Numbers) -> BTreeMap<String, f64> {
    sim.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

struct Tally {
    reps: u64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            reps: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Counts one rep: all its packets fail if any check did.
    fn count(&mut self, rep: &Rep, extra: Vec<String>) {
        self.reps += 1;
        self.attempted += rep.ops;
        if !rep.problems.is_empty() || !extra.is_empty() {
            self.failed += rep.ops;
        }
        self.problems.extend(rep.problems.iter().cloned());
        self.problems.extend(extra);
    }

    fn finish(self, result: &mut UnitResult) {
        result.reps = self.reps;
        result.attempted = self.attempted;
        result.failed = self.failed;
        result.problems = self.problems;
    }
}

fn size_of(inv: &Invocation) -> Size {
    if inv.smoke {
        Size::Smoke
    } else {
        Size::Full
    }
}

/// Runs the invocation, hands the result to `export` (inside the `export`
/// span), and returns it with, for a traced invocation, the Chrome trace of
/// its spans.
pub fn run(
    inv: &Invocation,
    export: impl FnOnce(&UnitResult) -> Result<(), String>,
) -> Result<(UnitResult, Option<Json>), String> {
    let spec = workloads::spec(&inv.workload, size_of(inv))
        .ok_or_else(|| format!("unknown workload `{}`", inv.workload))?;
    let started = Instant::now();
    let mut spans = Spans::new(spec.name);
    let root = spans.enter("workload");
    let (mut result, pinned_section) = if inv.traced {
        traced(inv, &spec, &mut spans)
    } else {
        (untraced(inv, &spec, &mut spans), spec.name.to_string())
    };
    if inv.seed == PINNED_SEED && !inv.smoke {
        let misses = pinned_mismatches(&pinned_section, &result.exact);
        if !misses.is_empty() {
            result.failed = result.attempted;
            result.problems.extend(misses);
        }
    }
    spans.attach(root, "ops", result.attempted as f64);
    spans.attach(root, "ops_failed", result.failed as f64);
    result.wall_s = started.elapsed().as_secs_f64();
    let export_span = spans.enter("export");
    export(&result)?;
    spans.exit(export_span);
    spans.exit(root);
    let trace = inv.traced.then(|| spans.to_chrome_json());
    Ok((result, trace))
}

fn blank_result(inv: &Invocation, spec: &Spec) -> UnitResult {
    UnitResult {
        workload: spec.name.to_string(),
        seed: inv.seed,
        traced: inv.traced,
        smoke: inv.smoke,
        seconds: inv.seconds,
        reps: 0,
        wall_s: 0.0,
        host: report::host_fingerprint(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Vec::new(),
        exact: BTreeMap::new(),
    }
}

/// Warm-up at a tenth of the size, so page faults on first touch of the
/// allocator's arenas and lazy statics fall outside the timed reps.
fn warm_up(inv: &Invocation, spans: &mut Spans) {
    if inv.smoke {
        return;
    }
    let spec = workloads::spec(&inv.workload, Size::WarmUp).expect("known workload");
    rep(
        &spec,
        inv.seed,
        Instruments::default(),
        false,
        "warm-up",
        spans,
    );
}

fn untraced(inv: &Invocation, spec: &Spec, spans: &mut Spans) -> UnitResult {
    let mut result = blank_result(inv, spec);
    warm_up(inv, spans);
    let measuring = Instant::now();
    let min_reps = if inv.smoke { 1 } else { MIN_REPS };
    let mut reps: Vec<Rep> = Vec::new();
    let mut tally = Tally::new();
    // Another rep starts while most of it still fits in `--seconds`, so the
    // measuring ends within half a rep of the time asked for.
    let mut last_rep_s = 0.0;
    // `VmHWM` once the first rep has set up and run the workload: later reps
    // add only what the allocator's fragmentation happens to, which differs
    // from run to run.
    let mut peak_rss_mb = 0.0;
    while (reps.len() as u64) < min_reps
        || ((reps.len() as u64) < MAX_REPS
            && !inv.smoke
            && measuring.elapsed().as_secs_f64() + 0.5 * last_rep_s < inv.seconds as f64)
    {
        let rep_started = Instant::now();
        let r = rep(
            spec,
            inv.seed,
            Instruments::default(),
            !inv.smoke,
            "rep",
            spans,
        );
        let differs = reps
            .first()
            .map(|first| disagreements("reps disagree", &first.sim, &r.sim, None))
            .unwrap_or_default();
        tally.count(&r, differs);
        if reps.is_empty() {
            peak_rss_mb = report::peak_rss_mb();
        }
        reps.push(r);
        last_rep_s = rep_started.elapsed().as_secs_f64();
    }
    let declared = report::declared();
    let samples = |name: &str| -> Vec<f64> {
        match name {
            "setup_s" => reps.iter().flat_map(|r| r.setups.iter().copied()).collect(),
            "run_wall_s" => reps.iter().map(|r| r.run_wall_s).collect(),
            "peak_rss_mb" => vec![peak_rss_mb],
            "sim_cycles" => reps.iter().map(|r| r.sim["sim.cycles"]).collect(),
            other => reps
                .iter()
                .map(|r| r.sim.get(other).copied().unwrap_or(0.0))
                .collect(),
        }
    };
    result.metrics = declared
        .end_to_end
        .iter()
        .map(|d| Metric::median_of(&d.name, &d.unit, samples(&d.name)))
        .collect();
    // The two host timings are reported as an undisturbed host would give
    // them; the samples keep what this one gave.
    let slices: Vec<Vec<f64>> = reps.iter().map(|r| r.slices.clone()).collect();
    for m in &mut result.metrics {
        match m.name.as_str() {
            "setup_s" => m.value = reps.iter().map(Rep::setup_s).fold(f64::INFINITY, f64::min),
            "run_wall_s" => match envelope(&slices) {
                Some(s) => m.value = s,
                None => tally
                    .problems
                    .push("reps disagree on how many slices the run has".into()),
            },
            _ => {}
        }
    }
    tally.finish(&mut result);
    result.exact = exact_map(&reps[0].sim);
    result
}

/// The sharded kernel against the serial one on the identical input: each a
/// rep and the process's peak RSS after it. Each ratio is sharded ÷ serial
/// except the speed-up, which is serial ÷ sharded so that > 1 means the shards
/// help. Returns where the two kernels' simulated runs differ.
fn shard_ratios(m: &mut Numbers, serial: (&Rep, f64), sharded: (&Rep, f64)) -> Vec<String> {
    m.insert(
        "sim.shard.speedup_vs_serial",
        serial.0.run_wall_s / sharded.0.run_wall_s,
    );
    m.insert(
        "sim.shard.setup_ratio",
        sharded.0.setup_s() / serial.0.setup_s(),
    );
    m.insert("sim.shard.rss_ratio", sharded.1 / serial.1.max(1e-9));
    let keys = [
        "sim.cycles",
        "sim.flit_hops",
        "sim.delivered_packets",
        "sim_latency_p50_cycles",
        "sim_latency_p99_cycles",
    ];
    disagreements(
        "sharded vs serial",
        &sharded.0.sim,
        &serial.0.sim,
        Some(&keys),
    )
}

fn pct_over(instrumented: f64, reference: f64) -> f64 {
    (instrumented / reference - 1.0) * 100.0
}

/// The traced invocation. Returns the result and the `expected.json`
/// section its exact numbers are pinned in.
fn traced(inv: &Invocation, spec: &Spec, spans: &mut Spans) -> (UnitResult, String) {
    let mut result = blank_result(inv, spec);
    let mut tally = Tally::new();
    let mut m = Numbers::new();

    // The serial kernel on the identical input, in this process and before
    // any sharded machine exists, so that `VmHWM` after it is the serial
    // peak and `VmHWM` after the sharded rep is the sharded one.
    let serial = (spec.shards > 1).then(|| {
        let serial_spec = Spec { shards: 1, ..*spec };
        let r = rep(
            &serial_spec,
            inv.seed,
            Instruments::default(),
            !inv.smoke,
            "rep.serial",
            spans,
        );
        (r, report::peak_rss_mb())
    });
    warm_up(inv, spans);

    // Untraced reference rep: the base of every overhead and per-unit cost.
    let plain = rep(
        spec,
        inv.seed,
        Instruments::default(),
        !inv.smoke,
        "rep.untraced",
        spans,
    );
    let plain_rss = report::peak_rss_mb();
    tally.count(&plain, Vec::new());

    let profiled = rep(
        spec,
        inv.seed,
        Instruments {
            profile: true,
            time_driver: true,
            ..Instruments::default()
        },
        false,
        "rep.traced",
        spans,
    );
    let differs = disagreements("traced vs untraced", &plain.sim, &profiled.sim, None);
    tally.count(&profiled, differs);

    let stalled = rep(
        spec,
        inv.seed,
        Instruments {
            stalls: true,
            ..Instruments::default()
        },
        false,
        "rep.stalls",
        spans,
    );
    let differs = disagreements("stalls vs untraced", &plain.sim, &stalled.sim, None);
    tally.count(&stalled, differs);

    m.extend(stalled.sim.iter().map(|(k, v)| (*k, *v)));
    m.extend(profiled.host.iter().map(|(k, v)| (*k, *v)));
    m.insert(
        "bench.trace_overhead_pct",
        pct_over(profiled.run_wall_s, plain.run_wall_s),
    );
    let wall_ns = plain.run_wall_s * 1e9;
    m.insert("sim.ns_per_cycle", wall_ns / plain.sim["sim.cycles"]);
    m.insert("sim.ns_per_flit_hop", wall_ns / plain.sim["sim.flit_hops"]);
    let grants = plain.sim["sim.grants.sa1"] + plain.sim["sim.grants.output"];
    m.insert(
        "sim.ns_per_grant",
        profiled.host["sim.routers.busy_ns"] / grants,
    );

    // Pre-flight cost: the same build with the verifier off.
    let t = Instant::now();
    let mut no_preflight_s = 0.0;
    let rig = Rig::build(
        spec,
        &workloads::inputs(spec, inv.seed),
        Instruments {
            skip_preflight: true,
            ..Instruments::default()
        },
        |name, start, end| {
            if name == "sim.build" {
                no_preflight_s = (end - start).as_secs_f64();
            }
        },
    );
    spans.closed("sim.build.no_preflight", t, Instant::now());
    drop(rig);
    m.insert("sim.builder.build_s", plain.sim_build_s);
    m.insert(
        "sim.builder.preflight_s",
        plain.sim_build_s - no_preflight_s,
    );

    if let Some((serial, serial_rss)) = &serial {
        let differs = shard_ratios(&mut m, (serial, *serial_rss), (&plain, plain_rss));
        tally.count(serial, differs);
    }
    if spec.kind == Kind::SatUniform && spec.shards == 1 && report::nproc() >= workloads::SHARDS {
        // The sharded kernel on the identical input, after every serial rep
        // for the same reason. This is where the workloads `BENCHMARK.json`
        // declares get their `sim.shard.*` numbers; with fewer cores than
        // shards they would measure the host's scheduler, and read 0.
        let sharded_spec = Spec {
            shards: workloads::SHARDS,
            ..*spec
        };
        let sharded = rep(
            &sharded_spec,
            inv.seed,
            Instruments::default(),
            !inv.smoke,
            "rep.sharded",
            spans,
        );
        let sharded_rss = report::peak_rss_mb();
        let differs = shard_ratios(&mut m, (&plain, plain_rss), (&sharded, sharded_rss));
        tally.count(&sharded, differs);
        let sharded_profiled = rep(
            &sharded_spec,
            inv.seed,
            Instruments {
                profile: true,
                ..Instruments::default()
            },
            false,
            "rep.sharded.traced",
            spans,
        );
        let differs = disagreements(
            "sharded traced vs untraced",
            &sharded.sim,
            &sharded_profiled.sim,
            None,
        );
        tally.count(&sharded_profiled, differs);
        m.extend(
            sharded_profiled
                .host
                .iter()
                .filter(|(k, _)| k.starts_with("sim.shard."))
                .map(|(k, v)| (*k, *v)),
        );
    }

    if spec.kind == Kind::BlendIw {
        let t = Instant::now();
        api::load_analysis_blend(spec.k);
        spans.closed("analysis.load", t, Instant::now());
        overhead_reps(inv, spec, spans, &mut tally, &mut m);
    }

    let layers_span = spans.enter("layers");
    let layers = api::layer_drives(inv.seed, inv.smoke);
    spans.exit(layers_span);
    m.extend(
        layers
            .times
            .iter()
            .chain(&layers.exact)
            .map(|(k, v)| (*k, *v)),
    );

    let declared = report::declared();
    result.metrics = declared
        .per_layer
        .iter()
        .map(|d| {
            // A metric this workload has no layer for (shard phases on the
            // serial kernel, shim counters without a fault schedule) is 0.
            let value = m.get(d.name.as_str()).copied().unwrap_or(0.0);
            Metric::median_of(&d.name, &d.unit, vec![value])
        })
        .collect();
    tally.finish(&mut result);
    // Pinned: every simulated statistic of the stalls rep, and the exact
    // outputs of the layer drives.
    result.exact = exact_map(&stalled.sim);
    result.exact.extend(
        layers
            .exact
            .iter()
            .map(|(k, v)| (format!("layers.{k}"), *v)),
    );
    (result, format!("{}.traced", spec.name))
}

/// Cost of each instrument switched on alone, as extra quarter-size reps of
/// the blend workload against a quarter-size reference of their own.
fn overhead_reps(
    inv: &Invocation,
    spec: &Spec,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Numbers,
) {
    let quarter = Spec {
        size: (spec.size / 4).max(1),
        ..*spec
    };
    let reference = rep(
        &quarter,
        inv.seed,
        Instruments::default(),
        false,
        "rep.quarter",
        spans,
    );
    tally.count(&reference, Vec::new());
    let variants: [(&'static str, &'static str, Instruments); 4] = [
        (
            "obs.overhead.profile_pct",
            "rep.quarter.profile",
            Instruments {
                profile: true,
                ..Instruments::default()
            },
        ),
        (
            "obs.overhead.events_pct",
            "rep.quarter.events",
            Instruments {
                events: true,
                ..Instruments::default()
            },
        ),
        (
            "obs.overhead.stalls_pct",
            "rep.quarter.stalls",
            Instruments {
                stalls: true,
                ..Instruments::default()
            },
        ),
        (
            "obs.overhead.sampled_pct",
            "rep.quarter.sampled",
            Instruments {
                sample_every: 1000,
                ..Instruments::default()
            },
        ),
    ];
    let mut instrumented = Vec::new();
    for (metric, label, instruments) in variants {
        let r = rep(&quarter, inv.seed, instruments, false, label, spans);
        let differs = disagreements(label, &reference.sim, &r.sim, None);
        instrumented.push((metric, r.run_wall_s));
        tally.count(&r, differs);
    }
    // A second reference after the variants: the faster of the two is the
    // base, since whatever disturbs a one-second rep only slows it.
    let again = rep(
        &quarter,
        inv.seed,
        Instruments::default(),
        false,
        "rep.quarter.again",
        spans,
    );
    let differs = disagreements("rep.quarter.again", &reference.sim, &again.sim, None);
    tally.count(&again, differs);
    let base = reference.run_wall_s.min(again.run_wall_s);
    for (metric, wall_s) in instrumented {
        m.insert(metric, pct_over(wall_s, base));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_sums_the_fastest_rep_of_each_slice() {
        // A disturbance that slows a different slice of each rep vanishes.
        let reps = [
            vec![1.0, 9.0, 1.0],
            vec![5.0, 2.0, 1.5],
            vec![1.25, 2.5, 7.0],
        ];
        assert_eq!(envelope(&reps), Some(1.0 + 2.0 + 1.0));
        assert_eq!(envelope(&reps[..1]), Some(11.0));
        // Reps cut unlike each other do not do identical work slice by slice.
        assert_eq!(envelope(&[vec![1.0, 2.0], vec![1.0]]), None);
        assert_eq!(envelope(&[]), None);
        assert_eq!(envelope(&[vec![]]), None);
    }

    #[test]
    fn on_cpu_time_is_charged_only_to_code_on_one_thread() {
        let took = HostTime {
            wall_s: 2.0,
            on_cpu_s: Some(1.5),
        };
        assert_eq!(cost(took, true), 1.5);
        assert_eq!(cost(took, false), 2.0);
        let no_procfs = HostTime {
            wall_s: 2.0,
            on_cpu_s: None,
        };
        assert_eq!(cost(no_procfs, true), 2.0);
    }
}
