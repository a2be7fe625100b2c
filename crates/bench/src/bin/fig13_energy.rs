//! Figure 13: per-flit router energy versus injection rate for three
//! payload patterns (all zeros, all ones, random), with the activation rate
//! maximized (`a = min(r, 1−r)`), and the model fit
//! `E = c₀ + c₁·h + (c₂ + c₃·n)(a/r)` pJ.
//!
//! Runs on the experiment harness: the payload × rate grid executes across
//! `--threads` workers and the measurements land in
//! `results/fig13_energy.json`; the model is then fitted to the collected
//! points.

use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{require, values, FlagSet};
use anton_energy::experiment::{measure_rate, EnergyMeasurement};
use anton_energy::model::EnergyModel;
use anton_sim::driver::PayloadKind;

fn main() {
    let args = FlagSet::new("fig13_energy", "Figure 13: router energy vs injection rate")
        .flag("packets", 1500u64, "packets measured per grid point")
        .flag("threads", 1usize, "worker threads for the sweep")
        .parse();
    let packets: u64 = args.get("packets");
    let threads: usize = args.get("threads");
    // One packet per point activates once at every rate, so the model's
    // regressors would be collinear and the fit singular.
    require(
        packets >= 2,
        "packets",
        packets,
        "at least 2 packets per point",
    );
    require(threads > 0, "threads", threads, "at least 1 worker");

    println!("## Figure 13 — router energy per flit vs injection rate");
    println!();
    let rates: [(u32, u32); 7] = [(1, 8), (1, 4), (3, 8), (1, 2), (5, 8), (3, 4), (1, 1)];
    let payloads = [
        ("zeros", PayloadKind::Zeros),
        ("ones", PayloadKind::Ones),
        ("random", PayloadKind::Random),
    ];

    let mut spec = ExperimentSpec::new("fig13_energy", 0);
    for (name, _) in payloads {
        for (p, q) in rates {
            spec.push_point(
                values!["payload" => name, "rate_num" => u64::from(p), "rate_den" => u64::from(q)],
            );
        }
    }

    let measurements = spec.run(threads, |point: &SweepPoint| {
        let kind = match point.str("payload") {
            "zeros" => PayloadKind::Zeros,
            "ones" => PayloadKind::Ones,
            _ => PayloadKind::Random,
        };
        let rate = (point.int("rate_num") as u32, point.int("rate_den") as u32);
        let m = measure_rate(rate, kind, packets);
        values![
            "rate" => m.rate,
            "h_mean" => m.h_mean,
            "n_mean" => m.n_mean,
            "a_over_r" => m.a_over_r,
            "energy_pj_per_flit" => m.energy_pj_per_flit,
        ]
    });

    println!(
        "{:<8} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "payload", "rate", "h", "n", "a/r", "E (pJ/flit)"
    );
    let mut all = Vec::new();
    for m in &measurements {
        let p = &spec.points()[m.index];
        let em = EnergyMeasurement {
            rate: m.metric_f64("rate"),
            h_mean: m.metric_f64("h_mean"),
            n_mean: m.metric_f64("n_mean"),
            a_over_r: m.metric_f64("a_over_r"),
            energy_pj_per_flit: m.metric_f64("energy_pj_per_flit"),
        };
        println!(
            "{:<8} {:>6.3} {:>8.1} {:>8.1} {:>8.3} {:>12.1}",
            p.str("payload"),
            em.rate,
            em.h_mean,
            em.n_mean,
            em.a_over_r,
            em.energy_pj_per_flit
        );
        all.push(em);
    }
    match spec.write_results(std::path::Path::new("."), &measurements, &[]) {
        Ok(path) => eprintln!("[fig13] wrote {}", path.display()),
        Err(e) => eprintln!("[fig13] could not write results JSON: {e}"),
    }

    let fitted = EnergyModel::fit(&all);
    let paper = EnergyModel::paper();
    println!();
    println!(
        "Fitted model:  E = {:.1} + {:.3}h + ({:.1} + {:.3}n)(a/r) pJ",
        fitted.fixed_pj, fitted.per_flip_pj, fitted.activation_pj, fitted.per_set_bit_pj
    );
    println!(
        "Paper's model: E = {:.1} + {:.3}h + ({:.1} + {:.3}n)(a/r) pJ",
        paper.fixed_pj, paper.per_flip_pj, paper.activation_pj, paper.per_set_bit_pj
    );
    println!("Fit RMS error: {:.2} pJ", fitted.rms_error(&all));
    println!();
    println!("Shape: per-flit energy is flat for r <= 1/2 (a/r = 1) and falls beyond,");
    println!("with the zeros/ones/random payloads separated by their h and n terms.");
}
