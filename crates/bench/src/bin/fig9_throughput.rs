//! Figure 9: throughput of 2-hop neighbor and uniform random traffic versus
//! batch size, with round-robin versus inverse-weighted arbitration.
//!
//! As in the paper, a single set of arbiter weights — derived from the
//! channel loads of the *uniform* pattern — is used for all traffic
//! patterns. Throughput is the batch size over the time to receive the last
//! packet, normalized so 1.0 means full utilization of the torus channels.
//!
//! Runs on the experiment harness: sweep points execute across `--threads`
//! workers (identical results for any thread count) and the measurements
//! land in `results/fig9_throughput.json` alongside the text table.
//!
//! Defaults reproduce the paper's 8×8×8 machine; pass `--k 4` and smaller
//! `--batches` for a quick run.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::{ArbiterKind, ArbiterPlan};
use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{
    checked_cube, fail_usage, make_pattern, require, run_batch, saturation_rate, values, FlagSet,
};
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_sim::params::TraceConfig;
use anton_traffic::patterns::{NHopNeighbor, UniformRandom};

fn pattern_or_exit(name: &str) -> Box<dyn TrafficPattern> {
    make_pattern(name).unwrap_or_else(|d| fail_usage(&d))
}

fn main() {
    let args = FlagSet::new(
        "fig9_throughput",
        "Figure 9: batch throughput vs arbitration",
    )
    .flag("k", 8u8, "torus dimension per side")
    .list(
        "batches",
        &[64, 256, 1024],
        "batch sizes (packets per core)",
    )
    .flag("seed", 42u64, "base seed; per-point seeds derive from it")
    .flag("threads", 1usize, "worker threads for the sweep")
    .parse();
    let k: u8 = args.get("k");
    let batches = args.list("batches");
    let seed: u64 = args.get("seed");
    let threads: usize = args.get("threads");
    let cfg = MachineConfig::new(checked_cube(k));
    for &batch in &batches {
        require(batch > 0, "batches", batch, "at least 1 packet per core");
    }
    require(threads > 0, "threads", threads, "at least 1 worker");

    println!("## Figure 9 — throughput beyond saturation ({k}x{k}x{k} torus, 16 cores/node)");
    println!();
    eprintln!("[fig9] computing uniform loads and arbiter weights...");
    let uniform_analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
    let weights = ArbiterWeightSet::compute(&cfg, &[&uniform_analysis], 5);
    let rr = ArbiterPlan::from(ArbiterKind::RoundRobin);
    let iw = ArbiterPlan::from(ArbiterKind::InverseWeighted { m_bits: 5 });

    let sat = |pattern: &dyn TrafficPattern| {
        saturation_rate(&cfg, pattern).unwrap_or_else(|d| fail_usage(&d))
    };
    let (sat_uniform, sat_2hop) = (sat(&UniformRandom), sat(&NHopNeighbor::new(2)));
    eprintln!("[fig9] uniform saturation {sat_uniform:.5}, 2-hop {sat_2hop:.5} pkts/cycle/core");

    let mut spec = ExperimentSpec::new("fig9_throughput", seed);
    for pattern in ["uniform", "2-hop-neighbor"] {
        for arbiter in ["round-robin", "inverse-weighted"] {
            for &batch in &batches {
                spec.push_point(values![
                    "pattern" => pattern,
                    "arbiter" => arbiter,
                    "batch" => batch,
                ]);
            }
        }
    }

    let n_points = spec.points().len();
    let measurements = spec.run(threads, |point: &SweepPoint| {
        let (pattern, arbiter) = (point.str("pattern"), point.str("arbiter"));
        let arbitration = match arbiter {
            "round-robin" => (&rr, None),
            _ => (&iw, Some(&weights)),
        };
        let sat = if pattern == "uniform" {
            sat_uniform
        } else {
            sat_2hop
        };
        let batch = point.int("batch") as u64;
        let run = run_batch(
            &cfg,
            vec![(pattern_or_exit(pattern), 1.0)],
            batch,
            arbitration,
            sat,
            point.seed,
            TraceConfig::default(),
        );
        let (p, m) = (run.point, run.metrics);
        eprintln!(
            "[fig9] {}/{n_points} {pattern} {arbiter} batch {batch} done",
            point.index + 1,
        );
        values![
            "normalized" => p.normalized,
            "cycles" => p.cycles,
            "peak_utilization" => p.peak_utilization,
            "torus_mean_util" => m.link_class(anton_sim::metrics::LinkClass::Torus).mean_util,
            "sa1_grants" => m.grants.sa1,
            "output_grants" => m.grants.output,
            "serializer_grants" => m.grants.serializer,
        ]
    });

    println!(
        "{:<16} {:<18} {:>8} {:>12} {:>10} {:>10}",
        "pattern", "arbiter", "batch", "normalized", "cycles", "peak-util"
    );
    for m in &measurements {
        let p = &spec.points()[m.index];
        println!(
            "{:<16} {:<18} {:>8} {:>12.3} {:>10} {:>10.3}",
            p.str("pattern"),
            p.str("arbiter"),
            p.int("batch"),
            m.metric_f64("normalized"),
            m.metric_f64("cycles") as u64,
            m.metric_f64("peak_utilization"),
        );
    }
    match spec.write_results(std::path::Path::new("."), &measurements, &[]) {
        Ok(path) => eprintln!("[fig9] wrote {}", path.display()),
        Err(e) => eprintln!("[fig9] could not write results JSON: {e}"),
    }
    println!();
    println!("Paper shape: round-robin falls well below the inverse-weighted curves as");
    println!("batch size grows (uniform below 0.6 at 8x8x8); inverse-weighted saturates");
    println!("near 0.9 and holds it.");
}
