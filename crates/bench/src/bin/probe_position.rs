//! Diagnostic: per-source batch completion under one arbitration mode. Prints
//! the mean finish cycle by on-chip endpoint/router position (exposing
//! floorplan-correlated service inequity), then the normalized throughput
//! and the source-finish percentiles with their p90/p10 spread — the
//! fairness gate of ROADMAP item 1.
//! Usage: `probe_position --k K --batch B --mode rr|iw|age --depth D`.
use anton_arbiter::ArbiterKind;
use anton_bench::{checked_cube, fail_usage, saturation_rate, FlagSet};
use anton_core::config::MachineConfig;
use anton_sim::driver::BatchDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

/// A batch driver that records the cycle each source's last packet lands.
struct SourceFinish {
    inner: BatchDriver,
    remaining: Vec<u64>,
    finish: Vec<u64>,
}

impl Driver for SourceFinish {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim)
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let i = sim.cfg.endpoint_index(p.src);
            self.remaining[i] -= 1;
            if self.remaining[i] == 0 {
                self.finish[i] = sim.now();
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
        "Diagnostic: per-source completion by router position, and its spread",
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
    let cfg = MachineConfig::new(checked_cube(k));
    let arbiter = match mode.as_str() {
        "rr" => ArbiterKind::RoundRobin,
        "iw" => ArbiterKind::InverseWeighted { m_bits: 5 },
        "age" => ArbiterKind::Age,
        other => fail_usage(
            &anton_verify::Diagnostic::error("AV101", format!("unknown mode `{other}`"))
                .with("known", "rr, iw, age"),
        ),
    };
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap_or_else(|d| fail_usage(&d));
    let params = SimParams {
        buffer_depth: depth,
        arbiter,
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
    let mut drv = SourceFinish {
        inner,
        remaining: vec![batch; n],
        finish: vec![0; n],
    };
    assert_eq!(sim.run(&mut drv, 400_000_000), RunOutcome::Completed);
    // mean finish per on-chip endpoint index (router position), averaged over nodes
    let eps = cfg.endpoints_per_node();
    let mut by_router = vec![0f64; eps];
    for (i, f) in drv.finish.iter().enumerate() {
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
    let mut f = drv.finish.clone();
    f.sort_unstable();
    let pct = |p: f64| f[((f.len() - 1) as f64 * p) as usize];
    println!(
        "  normalized throughput {:.3} | src-finish p10 {} p50 {} p90 {} p100 {} | p90/p10 {:.2}x",
        drv.inner.throughput() / sat,
        pct(0.1),
        pct(0.5),
        pct(0.9),
        pct(1.0),
        pct(0.9) as f64 / pct(0.1) as f64
    );
}
