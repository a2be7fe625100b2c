//! Diagnostic: mean per-source completion time by on-chip endpoint/router
//! position, exposing floorplan-correlated service inequity.
//! Usage: `probe_position --k K --batch B --mode rr|iw|age --depth D`.
use anton_arbiter::ArbiterKind;
use anton_bench::FlagSet;
use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_sim::driver::BatchDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

struct P {
    inner: BatchDriver,
    rem: Vec<u64>,
    fin: Vec<u64>,
}
impl Driver for P {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim)
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let i = sim.cfg.endpoint_index(p.src);
            self.rem[i] -= 1;
            if self.rem[i] == 0 {
                self.fin[i] = sim.now();
            }
        }
        self.inner.on_delivery(sim, d)
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

fn main() {
    let args = FlagSet::new(
        "probe_position",
        "Diagnostic: completion time by router position",
    )
    .flag("k", 4u8, "torus dimension per side")
    .flag("batch", 512u64, "packets per core")
    .flag("mode", "rr".to_string(), "arbitration: rr, iw, or age")
    .flag("depth", 8u8, "on-chip VC buffer depth in flits")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let mode: String = args.get("mode");
    let depth: u8 = args.get("depth");
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let params = SimParams {
        buffer_depth: depth,
        arbiter: match mode.as_str() {
            "iw" => ArbiterKind::InverseWeighted { m_bits: 5 },
            "age" => ArbiterKind::Age,
            _ => ArbiterKind::RoundRobin,
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
    let mut drv = P {
        inner,
        rem: vec![batch; n],
        fin: vec![0; n],
    };
    assert_eq!(sim.run(&mut drv, 400_000_000), RunOutcome::Completed);
    // mean finish per on-chip endpoint index (router position), averaged over nodes
    let eps = cfg.endpoints_per_node();
    let mut by_router = vec![0f64; eps];
    for (i, f) in drv.fin.iter().enumerate() {
        by_router[i % eps] += *f as f64;
    }
    let nodes = (n / eps) as f64;
    println!("{mode} k{k} b{batch}: mean finish by on-chip endpoint/router position:");
    for (e, s) in by_router.iter().enumerate() {
        println!(
            "  ep{e:<2} (router R({},{})): {:.0}",
            e % 4,
            e / 4,
            s / nodes
        );
    }
    let mn = by_router.iter().cloned().fold(f64::MAX, f64::min) / nodes;
    let mx = by_router.iter().cloned().fold(f64::MIN, f64::max) / nodes;
    println!(
        "  positional spread: {:.0} .. {:.0} ({:.2}x)",
        mn,
        mx,
        mx / mn
    );
}
