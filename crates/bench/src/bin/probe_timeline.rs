//! Diagnostic: flight-recorder timeline of a fig9-style batch run, exported
//! as a Chrome trace-event file viewable in Perfetto (<https://ui.perfetto.dev>).
//!
//! Sweeps the Figure 9 traffic patterns (uniform random and 2-hop neighbor)
//! with the flight recorder and time-series sampler enabled. The uniform
//! point's recorder becomes `results/probe_timeline.trace.json` — per-link
//! spans on one process track, per-packet lifetime spans on another — and
//! its sampled windows are attached to `results/probe_timeline.json`
//! (schema v2).
//!
//! Usage: `probe_timeline --k K --batch B --sample CYCLES --ring EVENTS`.

use std::sync::Mutex;

use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{checked_torus, fail_usage, values, FlagSet};
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_obs::{ChromeTrace, Json};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};

fn make_pattern(name: &str) -> Box<dyn TrafficPattern> {
    anton_bench::make_pattern(name).unwrap_or_else(|d| fail_usage(&d))
}

fn main() {
    let args = FlagSet::new(
        "probe_timeline",
        "Diagnostic: Perfetto-viewable flight-recorder timeline",
    )
    .flag("k", 2u8, "torus dimension per side")
    .flag("batch", 32u64, "packets per core")
    .flag("sample", 250u64, "time-series window width in cycles")
    .flag("ring", 1024usize, "flight-recorder ring capacity per wire")
    .flag("seed", 42u64, "base seed; per-point seeds derive from it")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let sample: u64 = args.get("sample");
    let ring: usize = args.get("ring");
    let seed: u64 = args.get("seed");
    let cfg = MachineConfig::new(checked_torus(k, "uniform"));

    let mut spec = ExperimentSpec::new("probe_timeline", seed);
    for pattern in ["uniform", "2-hop-neighbor"] {
        spec.push_point(values!["pattern" => pattern, "batch" => batch]);
    }

    // The uniform point's recorder and sampler become the exported trace.
    let captured: Mutex<Option<(Json, Json)>> = Mutex::new(None);
    let measurements = spec.run(1, |point: &SweepPoint| {
        let pattern = point.str("pattern");
        let params = SimParams {
            seed: point.seed,
            trace: TraceConfig {
                events: true,
                ring_capacity: ring,
                sample_every: sample,
                ..TraceConfig::default()
            },
            ..SimParams::default()
        };
        let mut sim = Sim::builder().config(cfg.clone()).params(params).build();
        let mut drv = BatchDriver::builder(&sim)
            .pattern(make_pattern(pattern))
            .packets_per_endpoint(batch)
            .seed(point.seed)
            .build();
        let outcome = sim.run(&mut drv, 100_000_000);
        assert_eq!(
            outcome,
            RunOutcome::Completed,
            "{pattern} run did not finish"
        );
        sim.flush_samples();
        let rec = sim.recorder().expect("event recording was enabled");
        let ts = sim.timeseries().expect("sampling was enabled");
        eprintln!(
            "[probe_timeline] {pattern}: {} cycles, {} events, {} windows",
            sim.now(),
            rec.total_recorded(),
            ts.windows().len()
        );
        if pattern == "uniform" {
            let trace = ChromeTrace::from_recorder(rec);
            *captured.lock().expect("capture slot poisoned") =
                Some((trace.to_json(), ts.to_json()));
        }
        values![
            "cycles" => sim.now(),
            "delivered" => sim.stats().delivered_packets,
            "events_recorded" => rec.total_recorded(),
            "windows" => ts.windows().len(),
        ]
    });

    let (trace_doc, windows) = captured
        .into_inner()
        .expect("capture slot poisoned")
        .expect("uniform point always runs");
    let trace_path = std::path::Path::new("results/probe_timeline.trace.json");
    std::fs::create_dir_all("results").expect("create results/");
    anton_bench::write_output(trace_path, &trace_doc.to_pretty_string());
    eprintln!(
        "[probe_timeline] wrote {} (open in https://ui.perfetto.dev)",
        trace_path.display()
    );
    match spec.write_results_with_under(
        std::path::Path::new("."),
        &measurements,
        &[("windows", windows)],
    ) {
        Ok(path) => eprintln!("[probe_timeline] wrote {}", path.display()),
        Err(e) => eprintln!("[probe_timeline] could not write results JSON: {e}"),
    }
}
