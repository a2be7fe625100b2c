//! Diagnostic: per-source batch-completion fairness, round-robin versus
//! fully weighted arbitration, printing completion-time percentiles.
//! Usage: `probe_fair --k K --batch B`.
use anton_arbiter::ArbiterKind;
use anton_bench::{saturation_rate, FlagSet};
use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_sim::driver::BatchDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

struct FairBatch {
    inner: BatchDriver,
    // completion cycle per source endpoint
    sent_remaining: Vec<u64>,
    finish: Vec<u64>,
}
impl Driver for FairBatch {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim)
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let idx = sim.cfg.endpoint_index(p.src);
            self.sent_remaining[idx] -= 1;
            if self.sent_remaining[idx] == 0 {
                self.finish[idx] = sim.now();
            }
        }
        self.inner.on_delivery(sim, d)
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

fn main() {
    let args = FlagSet::new("probe_fair", "Diagnostic: per-source completion fairness")
        .flag("k", 4u8, "torus dimension per side")
        .flag("batch", 1024u64, "packets per core")
        .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let sat = saturation_rate(&cfg, &UniformRandom);
    for kind in ["rr", "iw"] {
        let params = SimParams {
            arbiter: if kind == "rr" {
                ArbiterKind::RoundRobin
            } else {
                ArbiterKind::InverseWeighted { m_bits: 5 }
            },
            ..SimParams::default()
        };
        let mut sim = Sim::builder()
            .config(cfg.clone())
            .params(params)
            .traffic(Box::new(UniformRandom))
            .build();
        let n = cfg.num_endpoints();
        let inner = BatchDriver::builder(&sim)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(batch)
            .seed(42)
            .build();
        let mut drv = FairBatch {
            inner,
            sent_remaining: vec![batch; n],
            finish: vec![0; n],
        };
        let t0 = std::time::Instant::now();
        assert_eq!(sim.run(&mut drv, 200_000_000), RunOutcome::Completed);
        let mut f = drv.finish.clone();
        f.sort_unstable();
        let pct = |p: f64| f[((f.len() - 1) as f64 * p) as usize];
        eprintln!(
            "{kind} k{k} b{batch}: thr {:.3} | src-finish p10 {} p50 {} p90 {} p100 {} | wall {:.0?}",
            drv.inner.throughput() / sat, pct(0.1), pct(0.5), pct(0.9), pct(1.0), t0.elapsed()
        );
    }
}
