//! Diagnostic: stall attribution and congestion analysis of a saturated
//! uniform-random batch, answering *why* the network is slow rather than
//! just that it is.
//!
//! Runs one closed-loop uniform batch (the Figure 9 saturating procedure)
//! with [`TraceConfig::stalls`] attribution and time-series sampling on,
//! then:
//!
//! * prints the ranked congestion report — stall cycles by link class, by
//!   cause, the top hotspot links, and the root-blocker backpressure
//!   trees;
//! * attaches the same analysis (schema v2, under `congestion`) to
//!   `results/probe_congestion.json`;
//! * exports `results/probe_congestion.trace.json` for Perfetto: one
//!   cumulative counter track per link class (`flits_<class>`), and — when
//!   run with `--shards N` — one named track per shard worker showing its
//!   wall-clock phase split (compute / barrier_wait / mailbox / merge).
//!
//! With `--shards N` the run uses the sharded parallel kernel; the stall
//! counters are byte-identical to the serial run of the same workload, so
//! the attribution itself is shard-invariant.
//!
//! Usage: `probe_congestion --k K --batch B --sample CYCLES --shards N`.

use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{checked_torus, values, FlagSet};
use anton_core::config::MachineConfig;
use anton_obs::{ChromeTrace, CongestionReport, TimeSeries, SHARD_PHASE_NAMES};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;
use std::sync::Mutex;

/// Process id of the per-link-class counter tracks.
const PID_COUNTERS: u64 = 3;
/// Process id of the per-shard phase tracks.
const PID_SHARDS: u64 = 4;

/// What one run hands back to the exporter.
struct Captured {
    report: CongestionReport,
    timeseries: Option<TimeSeries>,
    phase_ns: Option<Vec<[u64; anton_obs::NUM_SHARD_PHASES]>>,
    cycles: u64,
    delivered: u64,
}

fn main() {
    let args = FlagSet::new(
        "probe_congestion",
        "Diagnostic: ranked stall attribution of a saturated uniform batch",
    )
    .flag("k", 4u8, "torus dimension per side")
    .flag(
        "batch",
        24u64,
        "packets per endpoint (closed loop, saturating)",
    )
    .flag("sample", 200u64, "time-series window width in cycles")
    .flag("shards", 1usize, "run on the sharded parallel kernel (> 1)")
    .flag("rows", 12usize, "hotspot rows to print")
    .flag("seed", 42u64, "workload seed")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let sample: u64 = args.get("sample");
    let shards: usize = args.get("shards");
    let rows: usize = args.get("rows");
    let seed: u64 = args.get("seed");
    let cfg = MachineConfig::new(checked_torus(k, "uniform"));

    let mut spec = ExperimentSpec::new("probe_congestion", seed);
    spec.push_point(values![
        "pattern" => "uniform",
        "batch" => batch,
        "shards" => shards as u64,
    ]);

    let captured: Mutex<Option<Captured>> = Mutex::new(None);
    let measurements = spec.run(1, |point: &SweepPoint| {
        let params = SimParams {
            seed: point.seed,
            trace: TraceConfig {
                sample_every: sample,
                stalls: true,
                profile: shards > 1,
                ..TraceConfig::default()
            },
            ..SimParams::default()
        };
        let mut drv = BatchDriver::builder_for(&cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(batch)
            .seed(point.seed)
            .build();
        let cap = if shards > 1 {
            let mut sim = Sim::builder()
                .config(cfg.clone())
                .params(params)
                .shards(shards)
                .build_sharded();
            let outcome = sim.run(&mut drv, 100_000_000);
            assert_eq!(outcome, RunOutcome::Completed, "sharded run did not finish");
            Captured {
                report: sim.congestion_report().expect("stall attribution was on"),
                timeseries: sim.merged_timeseries(),
                phase_ns: sim.phase_ns().map(<[_]>::to_vec),
                cycles: sim.now(),
                delivered: sim.stats().delivered_packets,
            }
        } else {
            let mut sim = Sim::builder().config(cfg.clone()).params(params).build();
            let outcome = sim.run(&mut drv, 100_000_000);
            assert_eq!(outcome, RunOutcome::Completed, "serial run did not finish");
            sim.flush_samples();
            sim.flush_stalls();
            Captured {
                report: sim.congestion_report().expect("stall attribution was on"),
                timeseries: sim.timeseries().cloned(),
                phase_ns: None,
                cycles: sim.now(),
                delivered: sim.stats().delivered_packets,
            }
        };
        // The analyzer's invariant: hotspot totals account for every
        // attributed stall cycle, nothing double-counted or dropped.
        let hotspot_sum: u64 = cap.report.hotspots.iter().map(|h| h.total()).sum();
        assert_eq!(hotspot_sum, cap.report.total_stall_cycles);
        let out = values![
            "cycles" => cap.cycles,
            "delivered" => cap.delivered,
            "total_stall_cycles" => cap.report.total_stall_cycles,
            "stalled_links" => cap.report.hotspots.len(),
            "hottest_class" => cap.report.class_totals.first().map_or("-", |(c, _)| c.as_str()),
        ];
        *captured.lock().expect("capture slot poisoned") = Some(cap);
        out
    });

    let cap = captured
        .into_inner()
        .expect("capture slot poisoned")
        .expect("the single point always runs");
    println!("{}", cap.report.render(rows));

    // Perfetto export: link-class flit counters plus per-shard phase spans.
    let mut trace = ChromeTrace::new();
    trace.process_name(PID_COUNTERS, "link-class flit counters");
    if let Some(ts) = &cap.timeseries {
        trace.counters_from_timeseries(PID_COUNTERS, ts, |name| name.starts_with("flits_"));
    }
    if let Some(per) = &cap.phase_ns {
        trace.process_name(PID_SHARDS, "shard phases (1us = 1ms wall)");
        for (i, p) in per.iter().enumerate() {
            trace.thread_name(PID_SHARDS, i as u64, format!("shard {i}"));
            let mut t = 0u64;
            for (phase, ns) in SHARD_PHASE_NAMES.iter().zip(p) {
                // Lay the phases end to end so each track reads as the
                // worker's wall-clock split (1 trace us per wall ms).
                let dur = (ns / 1_000_000).max(1);
                trace.complete(PID_SHARDS, i as u64, t, dur, *phase, None);
                t += dur;
            }
        }
    }
    let trace_path = std::path::Path::new("results/probe_congestion.trace.json");
    std::fs::create_dir_all("results").expect("create results/");
    anton_bench::write_output(trace_path, &trace.to_json().to_pretty_string());
    eprintln!(
        "[probe_congestion] wrote {} (open in https://ui.perfetto.dev)",
        trace_path.display()
    );

    match spec.write_results_with_under(
        std::path::Path::new("."),
        &measurements,
        &[("congestion", cap.report.to_json())],
    ) {
        Ok(path) => eprintln!("[probe_congestion] wrote {}", path.display()),
        Err(e) => eprintln!("[probe_congestion] could not write results JSON: {e}"),
    }
}
