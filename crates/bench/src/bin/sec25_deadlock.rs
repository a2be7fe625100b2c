//! Section 2.5: deadlock avoidance.
//!
//! Enumerates every unicast route into the VC dependency graph
//! (`anton_verify::enumerate_routes`) for the Anton n+1-VC promotion
//! algorithm, the prior 2n-VC scheme, and the single-VC negative control,
//! reporting acyclicity and VC budgets — then demonstrates the
//! negative control actually deadlocking (and Anton draining) in live
//! simulation.

use anton_bench::{checked_cube, FlagSet};
use anton_core::chip::LinkGroup;
use anton_core::config::MachineConfig;
use anton_core::net::TorusTopology;
use anton_core::topology::TorusShape;
use anton_core::vc::VcPolicy;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams};
use anton_sim::sim::Sim;
use anton_traffic::patterns::NodePermutation;
use anton_verify::{enumerate_routes, RouteEnumeration};

fn main() {
    let args = FlagSet::new(
        "sec25_deadlock",
        "Section 2.5: VC promotion and deadlock freedom",
    )
    .flag("k", 4u8, "torus dimension per side")
    .parse();
    let k: u8 = args.get("k");
    let shape = checked_cube(k);
    println!("## Section 2.5 — VC promotion and deadlock freedom ({k}x{k}x{k})");
    println!();
    println!(
        "{:<16} {:>6} {:>6} {:>10} {:>10} {:>9}",
        "policy", "M-VCs", "T-VCs", "nodes", "edges", "acyclic"
    );
    for policy in [VcPolicy::Anton, VcPolicy::Baseline2n, VcPolicy::NaiveSingle] {
        let mut cfg = MachineConfig::new(shape);
        cfg.vc_policy = policy;
        let topo = TorusTopology::new(&cfg);
        let graph = enumerate_routes(&topo, &cfg, &RouteEnumeration::default());
        let cycle = graph.find_cycle();
        println!(
            "{:<16} {:>6} {:>6} {:>10} {:>10} {:>9}",
            policy.to_string(),
            policy.num_vcs(LinkGroup::M),
            policy.num_vcs(LinkGroup::T),
            graph.num_live_nodes(),
            graph.num_edges(),
            if cycle.is_none() { "yes" } else { "NO" }
        );
        if let Some(c) = cycle {
            let c = graph.minimize_cycle(c);
            let (link, _) = graph.decode(c[0]);
            println!("    cycle of length {} through {link} ...", c.len());
        }
    }
    println!();
    println!("The Anton policy needs n+1 = 4 VCs per class for both groups; the prior");
    println!("approach needs 2n = 6 T-group VCs — one-third more (Section 2.5).");

    // Live demonstration: ring-wrap traffic.
    println!();
    println!("Live check — all nodes send k/2 hops around the X ring:");
    let perm: Vec<u32> = (0..u32::from(k))
        .map(|x| (x + u32::from(k) / 2) % u32::from(k))
        .collect();
    for policy in [VcPolicy::NaiveSingle, VcPolicy::Anton] {
        let mut cfg = MachineConfig::new(TorusShape::new(k, 1, 1));
        cfg.vc_policy = policy;
        // The NaiveSingle leg deliberately runs a config the pre-flight
        // verifier rejects; demote the rejection to a stderr warning.
        let params = SimParams {
            buffer_depth: 2,
            watchdog_cycles: 5_000,
            preflight: PreflightMode::WarnOnly,
            ..SimParams::default()
        };
        let mut sim = Sim::builder().config(cfg).params(params).build();
        let mut drv = BatchDriver::builder_for(&sim.cfg)
            .pattern(Box::new(NodePermutation::new(perm.clone())))
            .packets_per_endpoint(400)
            .seed(7)
            .build();
        let outcome = sim.run(&mut drv, 10_000_000);
        println!(
            "  {:<16} -> {:?} after {} cycles ({} packets stuck)",
            policy.to_string(),
            outcome,
            sim.now(),
            sim.live_packets()
        );
    }
}
