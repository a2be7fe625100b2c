//! Equality of service with inverse-weighted arbiters (Section 3).
//!
//! Derives per-arbiter inverse weights from the expected channel loads of an
//! adversarial traffic pattern, installs them in the simulator, and compares
//! the fairness of per-source completion times against plain round-robin
//! arbitration — the mechanism behind Figures 9 and 10.
//!
//! ```sh
//! cargo run --release --example weighted_fairness
//! ```

use anton2::anton_analysis::fit::jain_fairness;
use anton2::prelude::*;

/// One tornado batch of `batch` packets per core under `arbitration` (a
/// plan and the weights programmed at its weighted sites): the completion
/// cycle and the Jain fairness of the per-source service rates.
fn run(
    cfg: &MachineConfig,
    arbitration: (&ArbiterPlan, Option<&ArbiterWeightSet>),
    batch: u64,
) -> (u64, f64) {
    let sat = saturation_rate(cfg, &Tornado).expect("tornado traffic loads the torus");
    let tornado: Box<dyn TrafficPattern> = Box::new(Tornado);
    let run = run_batch(
        cfg,
        vec![(tornado, 1.0)],
        batch,
        arbitration,
        sat,
        7,
        TraceConfig::default(),
    );
    // Fairness of per-source *service rates* (packets per cycle to finish).
    let rates: Vec<f64> = run
        .source_finish
        .iter()
        .map(|&f| batch as f64 / f as f64)
        .collect();
    (run.point.cycles, jain_fairness(&rates))
}

fn main() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let batch = 256;
    println!("tornado traffic on a 4x4x4 torus, {batch} packets per core\n");

    let rr = ArbiterPlan::from(ArbiterKind::RoundRobin);
    let (rr_cycles, rr_jain) = run(&cfg, (&rr, None), batch);
    println!("round-robin:       completed in {rr_cycles} cycles, Jain fairness {rr_jain:.4}");

    // Offline: expected loads -> per-input inverse weights for every router
    // input and output arbiter and channel serializer the tornado loads; the
    // `iw` plan programs them at all three sites.
    let analysis = LoadAnalysis::compute(&cfg, &Tornado);
    let weights = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
    println!(
        "derived {} router tables and {} serializer tables from the tornado loads",
        weights.outputs.programmed().count(),
        weights.serializers.programmed().count()
    );
    let iw = ArbiterPlan::from(ArbiterKind::InverseWeighted { m_bits: 5 });
    let (iw_cycles, iw_jain) = run(&cfg, (&iw, Some(&weights)), batch);
    println!("inverse-weighted:  completed in {iw_cycles} cycles, Jain fairness {iw_jain:.4}");
    println!();
    println!(
        "equality of service: fairness {} (completion {})",
        if iw_jain >= rr_jain {
            "improved or held"
        } else {
            "regressed"
        },
        if iw_cycles <= rr_cycles {
            "no slower"
        } else {
            "slower"
        }
    );
}
