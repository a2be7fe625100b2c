//! Figure 11: average one-way message latency (16-byte payload) versus
//! inter-node hop count, measured with the standard ping-pong test including
//! software and synchronization latency, plus the linear fit the paper
//! reports (80.7 ns fixed + 39.1 ns/hop).

use anton_analysis::fit::linear_fit;
use anton_bench::{checked_torus, require, FlagSet};
use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::topology::NodeCoord;
use anton_sim::driver::PingPongDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{RunOutcome, Sim};

fn main() {
    let args = FlagSet::new(
        "fig11_latency",
        "Figure 11: one-way latency vs inter-node hops",
    )
    .flag("k", 8u8, "torus dimension per side")
    .flag("legs", 40u32, "ping-pong legs averaged per pair")
    .parse();
    let k: u8 = args.get("k");
    let legs: u32 = args.get("legs");
    require(legs > 0, "legs", legs, "> 0");
    let cfg = MachineConfig::new(checked_torus(k, "ping-pong"));

    println!("## Figure 11 — one-way message latency vs inter-node hops ({k}x{k}x{k})");
    println!();
    // Destination offsets covering 0..=3 hops per dimension: average over a
    // few endpoint pairs per hop count, as the paper averages over endpoint
    // pairs at each distance.
    let max_hops = (3 * (k / 2)).min(12);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    println!("{:>6} {:>14}", "hops", "one-way (ns)");
    for hops in 0..=max_hops {
        let mut samples = Vec::new();
        for variant in 0..3u8 {
            let Some(dst) = offset_for(hops, variant, k) else {
                continue;
            };
            let a = GlobalEndpoint {
                node: cfg.shape.id(NodeCoord::new(0, 0, 0)),
                ep: LocalEndpointId(variant % 16),
            };
            let b = GlobalEndpoint {
                node: cfg.shape.id(dst),
                ep: LocalEndpointId(5),
            };
            let mut sim = Sim::builder()
                .config(cfg.clone())
                .params(SimParams::default())
                .build();
            let mut drv = PingPongDriver::new(vec![(a, b)], legs);
            let outcome = sim.run(&mut drv, 60_000_000);
            assert_eq!(
                outcome,
                RunOutcome::Completed,
                "ping-pong stalled at {hops} hops"
            );
            samples.push(drv.mean_one_way_ns(0));
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        println!("{hops:>6} {mean:>14.1}");
        xs.push(f64::from(hops));
        ys.push(mean);
    }
    let (fixed, per_hop) = linear_fit(&xs, &ys);
    println!();
    println!("Linear fit: {fixed:.1} ns fixed + {per_hop:.1} ns/hop (paper: 80.7 + 39.1)");
    let min = ys.iter().skip(1).cloned().fold(f64::INFINITY, f64::min);
    println!("Minimum inter-node latency: {min:.1} ns (paper: ~99 ns)");
}

/// A destination coordinate `hops` inter-node hops from the origin,
/// spreading the hops across dimensions differently per variant.
fn offset_for(hops: u8, variant: u8, k: u8) -> Option<NodeCoord> {
    let max_per_dim = k / 2;
    let mut rem = hops;
    let mut d = [0u8; 3];
    for i in 0..3 {
        let idx = (i + variant as usize) % 3;
        let take = rem.min(max_per_dim);
        d[idx] = take;
        rem -= take;
    }
    if rem > 0 {
        return None;
    }
    Some(NodeCoord::new(d[0], d[1], d[2]))
}
