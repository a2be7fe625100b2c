//! Diagnostic: one instrumented uniform-random batch, on either kernel.
//!
//! Every view comes from the one run:
//!
//! * always: the mean finish cycle by on-chip endpoint/router position
//!   (floorplan-correlated service inequity), the normalized throughput and
//!   the source-finish percentiles with their p90/p10 spread — the fairness
//!   gate of ROADMAP item 1 — then peak and mean utilization by link class,
//!   the torus as a fraction of its effective rate;
//! * `--sample N`: the per-window delivery rate from the time-series
//!   sampler, and one cumulative counter track per link class in the trace;
//! * `--stalls`: the ranked congestion report (stall cycles by link class
//!   and cause, hotspot links, root-blocker trees);
//! * `--ring N`: the flight recorder's per-link and per-packet spans in the
//!   trace (serial kernel only);
//! * `--shards N` (> 1): the sharded kernel with its phase profiler on, and
//!   one track per shard worker in the trace showing its wall-clock split.
//!
//! Writes `results/probe.json` (schema v2: `sources` and `link_classes`,
//! plus `windows` and `congestion` when their instrument is on) and, when
//! `--sample`, `--ring` or `--shards` draws one, `results/probe.trace.json`
//! for Perfetto. The simulator keeps its default seed; `--seed` drives the
//! traffic and is the results' `base_seed`.
//!
//! Usage: `probe --k K --batch B --mode rr|iw|age --seed S --shards N
//! --sample CYCLES --ring EVENTS --stalls`.

use std::path::Path;

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_bench::harness::ExperimentSpec;
use anton_bench::{
    checked_cube, fail_usage, run_batch, saturation_rate, torus_capacity, values, write_output,
    ArbiterSetup, FlagSet, RunOptions,
};
use anton_core::config::MachineConfig;
use anton_obs::{ChannelKind, ChromeTrace, Json, SHARD_PHASE_NAMES};
use anton_sim::metrics::LinkClass;
use anton_sim::params::TraceConfig;
use anton_traffic::patterns::UniformRandom;
use anton_verify::Diagnostic;

/// Process id of the per-link-class counter tracks.
const PID_COUNTERS: u64 = 3;
/// Process id of the per-shard phase tracks.
const PID_SHARDS: u64 = 4;
/// Hotspot rows of the printed congestion report.
const HOTSPOT_ROWS: usize = 12;

fn main() {
    let args = FlagSet::new(
        "probe",
        "Diagnostic: one instrumented uniform batch — per-source fairness, link classes, \
         and optional sampler, stall, recorder and shard views",
    )
    .flag("k", 4u8, "torus dimension per side")
    .flag("batch", 512u64, "packets per endpoint")
    .flag("seed", 42u64, "traffic seed")
    .flag("mode", "rr".to_string(), "arbitration: rr, iw, or age")
    .flag("shards", 1usize, "sharded kernel workers (> 1)")
    .flag("sample", 0u64, "sample window in cycles (0 = off)")
    .flag("ring", 0usize, "recorder ring per wire (0 = off)")
    .switch("stalls", "attribute stall cycles and rank the congestion")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let seed: u64 = args.get("seed");
    let mode: String = args.get("mode");
    let shards: usize = args.get("shards");
    let sample: u64 = args.get("sample");
    let ring: usize = args.get("ring");
    let stalls = args.on("stalls");
    let cfg = MachineConfig::new(checked_cube(k));
    if ring > 0 && shards > 1 {
        fail_usage(
            &Diagnostic::error(
                "AV105",
                "the flight recorder (--ring) runs on the serial kernel only",
            )
            .with("shards", shards),
        );
    }
    let setup = match mode.as_str() {
        "rr" => ArbiterSetup::RoundRobin,
        "iw" => ArbiterSetup::InverseWeighted(ArbiterWeightSet::compute(
            &cfg,
            &[&LoadAnalysis::compute(&cfg, &UniformRandom)],
            5,
        )),
        "age" => ArbiterSetup::Age,
        other => fail_usage(
            &Diagnostic::error("AV101", format!("unknown mode `{other}`"))
                .with("known", "rr, iw, age"),
        ),
    };
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap_or_else(|d| fail_usage(&d));
    let trace = TraceConfig {
        events: ring > 0,
        ring_capacity: ring,
        sample_every: sample,
        profile: shards > 1,
        stalls,
    };
    let run = run_batch(
        &cfg,
        vec![(Box::new(UniformRandom), 1.0)],
        batch,
        &setup,
        sat,
        seed,
        RunOptions { shards, trace },
    );
    let mut attachments = Vec::new();

    // Per-source completion: mean finish per on-chip endpoint index (router
    // position), averaged over nodes, then the percentiles over all sources.
    let n = cfg.num_endpoints();
    let eps = cfg.endpoints_per_node();
    let mut by_router = vec![0f64; eps];
    for (i, f) in run.source_finish.iter().enumerate() {
        by_router[i % eps] += *f as f64;
    }
    let nodes = (n / eps) as f64;
    println!("{mode} k{k} b{batch}: mean finish by on-chip endpoint/router position:");
    for (e, s) in by_router.iter().enumerate() {
        let (col, row, mean) = (e % 4, e / 4, s / nodes);
        println!("  ep{e:<2} (router R({col},{row})): {mean:.0}");
    }
    let mn = by_router.iter().cloned().fold(f64::MAX, f64::min) / nodes;
    let mx = by_router.iter().cloned().fold(f64::MIN, f64::max) / nodes;
    println!("  positional spread: {mn:.0} .. {mx:.0} ({:.2}x)", mx / mn);
    let mut f = run.source_finish.clone();
    f.sort_unstable();
    let pct = |p: f64| f[((f.len() - 1) as f64 * p) as usize];
    let [p10, p50, p90, p100] = [0.1, 0.5, 0.9, 1.0].map(pct);
    let spread = p90 as f64 / p10 as f64;
    println!(
        "  normalized throughput {:.3} | src-finish p10 {p10} p50 {p50} p90 {p90} p100 {p100} \
         | p90/p10 {spread:.2}x",
        run.point.normalized
    );
    let by_position = by_router.iter().map(|s| Json::from(s / nodes));
    attachments.push((
        "sources",
        Json::obj([
            ("mean_finish_by_position", Json::arr(by_position)),
            ("p10", Json::from(p10)),
            ("p50", Json::from(p50)),
            ("p90", Json::from(p90)),
            ("p100", Json::from(p100)),
            ("p90_over_p10", Json::from(spread)),
        ]),
    ));

    // Link classes, each as a fraction of its wires' rate: one flit per
    // cycle on chip, 14/45 on the torus.
    let cycles = run.metrics.cycles;
    println!("completion {cycles} cycles; utilization by link class:");
    for c in &run.metrics.link_classes {
        let cap = if c.class == LinkClass::Torus {
            torus_capacity()
        } else {
            1.0
        };
        let (name, max, mean, wires) = (
            c.class.name(),
            c.peak_util / cap,
            c.mean_util / cap,
            c.wires,
        );
        println!("  {name:<14} max {max:.3} mean {mean:.3} (n={wires})");
    }
    attachments.push((
        "link_classes",
        Json::arr(run.metrics.link_classes.iter().map(|c| {
            Json::obj([
                ("class", Json::from(c.class.name())),
                ("wires", Json::from(c.wires)),
                ("flits", Json::from(c.flits)),
                ("mean_util", Json::from(c.mean_util)),
                ("peak_util", Json::from(c.peak_util)),
            ])
        })),
    ));

    let ins = &run.instruments;
    if let Some(ts) = &ins.timeseries {
        let delivered = ts
            .channels()
            .iter()
            .position(|(name, kind)| name == "delivered_packets" && *kind == ChannelKind::Counter)
            .expect("sampler registers delivered_packets");
        println!("per-window delivery rate (pkts/cycle/ep):");
        for w in ts.windows() {
            let width = (w.end - w.start).max(1) as f64;
            let rate = w.values[delivered] as f64 / width / n as f64;
            println!("  [{:>6}] {:.5}", w.start, rate);
        }
        attachments.push(("windows", ts.to_json()));
    }
    if let Some(report) = &ins.congestion {
        // The analyzer's invariant: hotspot totals account for every
        // attributed stall cycle, nothing double-counted or dropped.
        let hotspot_sum: u64 = report.hotspots.iter().map(|h| h.total()).sum();
        assert_eq!(hotspot_sum, report.total_stall_cycles);
        println!("{}", report.render(HOTSPOT_ROWS));
        attachments.push(("congestion", report.to_json()));
    }

    if ins.recorder.is_some() || ins.timeseries.is_some() || ins.phase_ns.is_some() {
        let mut trace = ins
            .recorder
            .as_ref()
            .map_or_else(ChromeTrace::new, ChromeTrace::from_recorder);
        if let Some(ts) = &ins.timeseries {
            trace.process_name(PID_COUNTERS, "link-class flit counters");
            trace.counters_from_timeseries(PID_COUNTERS, ts, |name| name.starts_with("flits_"));
        }
        if let Some(per) = &ins.phase_ns {
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
        let path = Path::new("results/probe.trace.json");
        std::fs::create_dir_all("results").expect("create results/");
        write_output(path, &trace.to_json().to_pretty_string());
        eprintln!(
            "[probe] wrote {} (open in https://ui.perfetto.dev)",
            path.display()
        );
    }

    let mut spec = ExperimentSpec::new("probe", seed);
    spec.set_shards(shards);
    spec.push_point(values!["pattern" => "uniform", "mode" => mode.as_str(), "batch" => batch]);
    let measurements = spec.run(1, |_| {
        values![
            "cycles" => run.point.cycles,
            "normalized" => run.point.normalized,
            "delivered" => run.metrics.stats.delivered_packets,
        ]
    });
    match spec.write_results(Path::new("."), &measurements, &attachments) {
        Ok(path) => eprintln!("[probe] wrote {}", path.display()),
        Err(e) => eprintln!("[probe] could not write results JSON: {e}"),
    }
}
