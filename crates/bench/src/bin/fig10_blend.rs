//! Figure 10: blending tornado and reverse-tornado traffic under four
//! arbiter-weight configurations — None (round-robin), Forward (tornado
//! weights only), Reverse (reverse-tornado weights only), and Both (two
//! weight sets selected per packet by its pattern tag).
//!
//! Packets are divided between the two patterns with the fraction varying
//! along the horizontal axis; throughput is normalized to the blend's
//! analytic saturation rate. Defaults use a 6×6×6 torus (the tornado offset
//! is then ±2 per dimension) for runtime; pass `--k 8` for the paper's
//! machine size.
//!
//! Runs on the experiment harness: `--threads` workers, structured results
//! in `results/fig10_blend.json`.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::{ArbiterKind, ArbiterPlan};
use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{checked_cube, fail_usage, require, run_batch, torus_capacity, values, FlagSet};
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_sim::params::TraceConfig;
use anton_traffic::patterns::{ReverseTornado, Tornado};

fn main() {
    let args = FlagSet::new(
        "fig10_blend",
        "Figure 10: blended tornado / reverse tornado",
    )
    .flag("k", 6u8, "torus dimension per side")
    .flag("batch", 256u64, "packets per core")
    .flag("seed", 42u64, "base seed; per-point seeds derive from it")
    .list(
        "fractions-pct",
        &[0, 25, 50, 75, 100],
        "forward-traffic percentages",
    )
    .flag("threads", 1usize, "worker threads for the sweep")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let seed: u64 = args.get("seed");
    let steps = args.list("fractions-pct");
    let threads: usize = args.get("threads");
    let cfg = MachineConfig::new(checked_cube(k));
    if k < 4 {
        fail_usage(
            &anton_verify::Diagnostic::error(
                "AV102",
                format!("torus extent {k} below 4: the tornado offset k/2 - 1 vanishes"),
            )
            .with("k", k),
        );
    }
    require(batch > 0, "batch", batch, "at least 1 packet per core");
    for &pct in &steps {
        require(pct <= 100, "fractions-pct", pct, "0..=100 percent");
    }
    require(threads > 0, "threads", threads, "at least 1 worker");

    println!("## Figure 10 — blended tornado / reverse tornado ({k}x{k}x{k}, {batch} pkts/core)");
    println!();
    eprintln!("[fig10] computing per-pattern loads and weights...");
    let fwd = LoadAnalysis::compute(&cfg, &Tornado);
    let rev = LoadAnalysis::compute(&cfg, &ReverseTornado);
    let w_fwd = ArbiterWeightSet::compute(&cfg, &[&fwd], 5);
    let w_rev = ArbiterWeightSet::compute(&cfg, &[&rev], 5);
    let w_both = ArbiterWeightSet::compute(&cfg, &[&fwd, &rev], 5);
    let rr = ArbiterPlan::from(ArbiterKind::RoundRobin);
    let iw = ArbiterPlan::from(ArbiterKind::InverseWeighted { m_bits: 5 });

    // Saturation rate of each blend: the blended load is linear in the
    // mixing coefficients (Section 3.2), so analyze the mixture.
    let blend_saturation = |f: f64| {
        let blended = fwd
            .torus_loads()
            .zip(rev.torus_loads())
            .map(|((_, _, fwd), (_, _, rev))| f * fwd + (1.0 - f) * rev);
        torus_capacity() / blended.fold(0.0, f64::max)
    };
    let sats: Vec<(u64, f64)> = steps
        .iter()
        .map(|&pct| (pct, blend_saturation(pct as f64 / 100.0)))
        .collect();

    let mut spec = ExperimentSpec::new("fig10_blend", seed);
    for &pct in &steps {
        for name in ["none", "forward", "reverse", "both"] {
            spec.push_point(values!["weights" => name, "fwd_pct" => pct]);
        }
    }

    let n_points = spec.points().len();
    let measurements = spec.run(threads, |point: &SweepPoint| {
        let pct = point.int("fwd_pct") as u64;
        let f = pct as f64 / 100.0;
        let arbitration = match point.str("weights") {
            "none" => (&rr, None),
            "forward" => (&iw, Some(&w_fwd)),
            "reverse" => (&iw, Some(&w_rev)),
            _ => (&iw, Some(&w_both)),
        };
        let sat = sats.iter().find(|(p, _)| *p == pct).expect("precomputed").1;
        let components: Vec<(Box<dyn TrafficPattern>, f64)> =
            vec![(Box::new(Tornado), f), (Box::new(ReverseTornado), 1.0 - f)];
        let run = run_batch(
            &cfg,
            components,
            batch,
            arbitration,
            sat,
            point.seed,
            TraceConfig::default(),
        );
        let (p, m) = (run.point, run.metrics);
        eprintln!(
            "[fig10] {}/{n_points} {} at {pct}% done",
            point.index + 1,
            point.str("weights")
        );
        values![
            "normalized" => p.normalized,
            "cycles" => p.cycles,
            "peak_utilization" => p.peak_utilization,
            "saturation_rate" => sat,
            "sa1_grants" => m.grants.sa1,
            "output_grants" => m.grants.output,
            "serializer_grants" => m.grants.serializer,
        ]
    });

    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>10}",
        "weights", "fwd-frac", "normalized", "cycles", "peak-util"
    );
    for m in &measurements {
        let p = &spec.points()[m.index];
        println!(
            "{:<10} {:>11}% {:>12.3} {:>10} {:>10.3}",
            p.str("weights"),
            p.int("fwd_pct"),
            m.metric_f64("normalized"),
            m.metric_f64("cycles") as u64,
            m.metric_f64("peak_utilization"),
        );
    }
    match spec.write_results(std::path::Path::new("."), &measurements, &[]) {
        Ok(path) => eprintln!("[fig10] wrote {}", path.display()),
        Err(e) => eprintln!("[fig10] could not write results JSON: {e}"),
    }
    println!();
    println!("Paper shape: 'both' holds ~0.85 across all blends; 'forward'/'reverse'");
    println!("match it only near their own pattern and fall toward round-robin at the");
    println!("other extreme.");
}
