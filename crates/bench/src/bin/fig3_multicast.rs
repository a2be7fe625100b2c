//! Figure 3 / Section 2.3: inter-node multicast.
//!
//! Builds halo destination sets (a plane halo like the paper's figure, and
//! the full 3D halo an MD particle broadcast uses), reports the torus-hop
//! bandwidth saved versus unicasts, and shows how alternating between two
//! multicast routes balances the load on the most heavily utilized torus
//! channels. Finishes with a live simulation of a full machine-wide halo
//! exchange through the multicast tables.

use anton_bench::{checked_torus, FlagSet};
use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{McGroup, McGroupId};
use anton_core::packet::{Destination, Packet, Payload};
use anton_core::topology::{Dim, NodeCoord};
use anton_sim::params::SimParams;
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::md::{alternating_variants, build_halo_groups, halo_dest_set, HaloSpec};

struct Collect {
    want: u64,
    got: u64,
}

impl Driver for Collect {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        if matches!(d, Delivery::Packet(_)) {
            self.got += 1;
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.got >= self.want
    }
}

fn main() {
    let args = FlagSet::new(
        "fig3_multicast",
        "Figure 3 / Section 2.3: table-based multicast",
    )
    .flag("k", 8u8, "torus dimension for the analytic halo study")
    .flag(
        "sim-k",
        4u8,
        "torus dimension for the live halo-exchange simulation",
    )
    .parse();
    let (k, sim_k): (u8, u8) = (args.get("k"), args.get("sim-k"));
    let cfg = MachineConfig::new(checked_torus(k, "halo"));
    let sim_cfg = MachineConfig::new(checked_torus(sim_k, "halo"));
    let src = NodeCoord::new(k / 2, k / 2, k / 2);

    println!("## Figure 3 / Section 2.3 — table-based multicast ({k}x{k}x{k})");
    println!();
    for (label, spec) in [
        (
            "plane halo (Figure 3's 2D example)",
            HaloSpec {
                radius: 1,
                plane_normal: Some(Dim::Z),
                endpoints_per_node: 1,
            },
        ),
        ("full 3D halo (26 neighbors)", HaloSpec::default()),
        (
            "full 3D halo, 4 endpoint copies/node",
            HaloSpec {
                radius: 1,
                plane_normal: None,
                endpoints_per_node: 4,
            },
        ),
    ] {
        let dests = halo_dest_set(&cfg, src, spec);
        let group = McGroup::build(
            &cfg.shape,
            McGroupId(0),
            src,
            dests.clone(),
            &alternating_variants(),
        );
        let unicast = dests.unicast_torus_hops(&cfg.shape, src);
        let tree = group.trees[0].torus_hops();
        println!("{label}:");
        println!(
            "  destinations: {} nodes, {} endpoint copies",
            dests.num_nodes(),
            dests.num_endpoints()
        );
        println!(
            "  unicast torus hops: {unicast}; multicast tree hops: {tree}; saved: {}",
            unicast - tree
        );
        let single_max = group.trees[0]
            .link_loads()
            .values()
            .cloned()
            .fold(0.0, f64::max);
        let alt_max = group
            .blended_link_loads()
            .values()
            .cloned()
            .fold(0.0, f64::max);
        println!(
            "  peak channel load per packet: single route {single_max:.2}, alternating {alt_max:.2}"
        );
        println!();
    }

    // Live halo exchange through the simulator's multicast tables.
    println!("Machine-wide halo exchange on {sim_k}x{sim_k}x{sim_k} (one broadcast per node):");
    let groups = build_halo_groups(&sim_cfg, HaloSpec::default(), &alternating_variants());
    let copies_per_group = groups[0].dests.num_endpoints() as u64;
    let unicast_hops_per_group = groups[0]
        .dests
        .unicast_torus_hops(&sim_cfg.shape, groups[0].src);
    let mut sim = Sim::builder()
        .config(sim_cfg.clone())
        .params(SimParams::default())
        .build();
    let num_groups = groups.len() as u64;
    for g in groups {
        sim.add_multicast_group(g);
    }
    for node in sim_cfg.shape.nodes() {
        let src_ep = GlobalEndpoint {
            node: sim_cfg.shape.id(node),
            ep: LocalEndpointId(0),
        };
        for tree in [0u8, 1] {
            let mut pkt = Packet::write(src_ep, src_ep, Payload::zeros(16));
            pkt.dst = Destination::Multicast {
                group: McGroupId(sim_cfg.shape.id(node).0),
                tree,
            };
            sim.inject(src_ep, pkt);
        }
    }
    let want = 2 * num_groups * copies_per_group;
    let mut drv = Collect { want, got: 0 };
    let outcome = sim.run(&mut drv, 50_000_000);
    assert_eq!(outcome, RunOutcome::Completed, "halo exchange stalled");
    let stats = sim.stats();
    println!(
        "  {} broadcasts -> {} deliveries in {} cycles; {} torus flits ({} per broadcast vs {} unicast hops)",
        2 * num_groups,
        stats.delivered_packets,
        sim.now(),
        stats.torus_flits,
        stats.torus_flits / (2 * num_groups),
        unicast_hops_per_group
    );
}
