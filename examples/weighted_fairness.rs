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
use anton2::anton_arbiter::ArbiterKind;
use anton2::prelude::*;

/// Wraps the batch driver to record when each source finishes its batch.
struct PerSource {
    inner: BatchDriver,
    remaining: Vec<u64>,
    finish: Vec<u64>,
}

impl Driver for PerSource {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let idx = sim.cfg.endpoint_index(p.src);
            self.remaining[idx] -= 1;
            if self.remaining[idx] == 0 {
                self.finish[idx] = sim.now();
            }
        }
        self.inner.on_delivery(sim, d);
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

fn run(cfg: &MachineConfig, weights: Option<&ArbiterWeightSet>, batch: u64) -> (u64, f64) {
    let params = SimParams {
        arbiter: match weights {
            Some(w) => ArbiterKind::InverseWeighted { m_bits: w.m_bits },
            None => ArbiterKind::RoundRobin,
        },
        ..SimParams::default()
    };
    let mut builder = Sim::builder().config(cfg.clone()).params(params);
    if let Some(w) = weights {
        builder = builder.weights(w.clone());
    }
    let mut sim = builder.build();
    let n = cfg.num_endpoints();
    let mut driver = PerSource {
        inner: BatchDriver::builder(&sim)
            .pattern(Box::new(Tornado))
            .packets_per_endpoint(batch)
            .seed(7)
            .build(),
        remaining: vec![batch; n],
        finish: vec![0; n],
    };
    let outcome = sim.run(&mut driver, 100_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    // Fairness of per-source *service rates* (packets per cycle to finish).
    let rates: Vec<f64> = driver
        .finish
        .iter()
        .map(|&f| batch as f64 / f as f64)
        .collect();
    (driver.inner.finish_cycle, jain_fairness(&rates))
}

fn main() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let batch = 256;
    println!("tornado traffic on a 4x4x4 torus, {batch} packets per core\n");

    let (rr_cycles, rr_jain) = run(&cfg, None, batch);
    println!("round-robin:       completed in {rr_cycles} cycles, Jain fairness {rr_jain:.4}");

    // Offline: expected loads -> per-input inverse weights at every router
    // output arbiter and channel serializer.
    let analysis = LoadAnalysis::compute(&cfg, &Tornado);
    let weights = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
    println!(
        "derived {} router tables and {} serializer tables from the tornado loads",
        weights.outputs.programmed().count(),
        weights.serializers.programmed().count()
    );
    let (iw_cycles, iw_jain) = run(&cfg, Some(&weights), batch);
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
