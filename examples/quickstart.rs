//! Quickstart: build an Anton 2 machine, drive it with uniform random
//! traffic, and read back throughput and utilization.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use anton2::prelude::*;

fn main() {
    // A 4x4x4 torus of Anton 2 ASICs: each node carries a 4x4 on-chip mesh,
    // 16 compute endpoints, and 12 external torus channels.
    let cfg = MachineConfig::new(TorusShape::cube(4));
    println!(
        "machine: {} nodes, {} endpoints, VC policy {}",
        cfg.shape.num_nodes(),
        cfg.num_endpoints(),
        cfg.vc_policy
    );

    // The analytic saturation rate: the injection rate at which the busiest
    // torus channel reaches its effective 89.6 Gb/s.
    let sat = saturation_rate(&cfg, &UniformRandom).expect("uniform traffic loads the torus");
    println!("uniform-traffic saturation: {sat:.4} packets/cycle/endpoint");

    // Every core sends a batch of 64 packets as fast as the network accepts.
    let point = run_batch(
        &cfg,
        vec![(Box::new(UniformRandom), 1.0)],
        64,
        &ArbiterSetup::RoundRobin,
        sat,
        1,
        RunOptions::default(),
    )
    .point;
    println!(
        "batch of {} pkts/core delivered in {} cycles ({:.0} ns)",
        point.batch,
        point.cycles,
        point.cycles as f64 / 1.5
    );
    println!(
        "normalized throughput {:.2} (1.0 = torus channels fully utilized), peak channel utilization {:.2}",
        point.normalized, point.peak_utilization
    );
}
