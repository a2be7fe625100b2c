//! Section 2.2: the external-channel link layer.
//!
//! Demonstrates the 112 → 89.6 Gb/s effective-bandwidth derate from framing,
//! and go-back-N behaviour under injected bit errors.
//!
//! Runs on the experiment harness: one sweep point per `--bers` entry, and
//! the measurements land in `results/sec22_link.json` (schema v1) alongside
//! the text table.

use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{require, values, FlagSet};
use anton_link::gobackn::GoBackNConfig;
use anton_link::{flip_bits, goodput_fraction, Link, EFFECTIVE_GBPS, RAW_GBPS};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One-way propagation delay of the channel, in frame slots.
const PROP_DELAY: u64 = 4;

fn main() {
    let args = FlagSet::new("sec22_link", "Section 2.2: torus-channel link layer")
        .flag("slots", 40_000u64, "frame slots simulated per BER point")
        .flist(
            "bers",
            &[0.0, 1e-6, 1e-5, 1e-4, 1e-3, 5e-3],
            "bit error rates to sweep",
        )
        .flag("seed", 7u64, "RNG seed applied to every BER point")
        .parse();
    let slots: u64 = args.get("slots");
    let bers = args.flist("bers");
    let seed: u64 = args.get("seed");
    require(slots > 0, "slots", slots, "> 0");
    for &ber in &bers {
        require((0.0..=1.0).contains(&ber), "bers", ber, "[0, 1]");
    }
    println!("## Section 2.2 — torus channel link layer (8 x 14 Gb/s SerDes)");
    println!();
    println!("Raw bandwidth/direction:       {RAW_GBPS:>7.1} Gb/s");
    println!("Effective after framing (24/30): {EFFECTIVE_GBPS:>5.1} Gb/s (paper: 89.6)");
    println!();

    let mut spec = ExperimentSpec::new("sec22_link", seed);
    for &ber in &bers {
        spec.push_point(values!["ber" => ber]);
    }
    let measurements = spec.run(1, |point: &SweepPoint| {
        let ber = point.float("ber");
        let mut link = Link::new(
            GoBackNConfig {
                window: 32,
                timeout: 64,
            },
            PROP_DELAY,
        );
        // Every point uses the flag seed directly (not the derived
        // per-point seed) so the table matches the pre-harness output.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wire = |frame| flip_bits(&mut rng, ber, frame);
        for now in 0..slots {
            if link.sender().can_accept() {
                link.offer();
            }
            link.land(now, &mut wire);
            link.transmit(now, &mut wire);
        }
        let delivered = link.receiver().accepted();
        let goodput = goodput_fraction(delivered, slots);
        values![
            "goodput_fraction" => goodput,
            "goodput_gbps" => goodput * RAW_GBPS,
            "delivered" => delivered,
            "retransmissions" => link.sender().retransmissions,
            "corrupted" => link.lost(),
            "slots" => slots,
        ]
    });

    println!(
        "{:>10} {:>12} {:>14} {:>12} {:>10}",
        "BER", "goodput", "Gb/s", "retransmits", "corrupted"
    );
    for m in &measurements {
        let ber = spec.points()[m.index].float("ber");
        println!(
            "{:>10.0e} {:>11.1}% {:>14.1} {:>12} {:>10}",
            ber,
            100.0 * m.metric_f64("goodput_fraction") / anton_link::frame::EFFICIENCY,
            m.metric_f64("goodput_gbps"),
            m.metric_f64("retransmissions") as u64,
            m.metric_f64("corrupted") as u64
        );
    }
    println!();
    println!("Goodput column is relative to the 89.6 Gb/s framing-limited ceiling.");
    match spec.write_results(std::path::Path::new("."), &measurements, &[]) {
        Ok(path) => eprintln!("[sec22] wrote {}", path.display()),
        Err(e) => eprintln!("[sec22] could not write results JSON: {e}"),
    }
}
