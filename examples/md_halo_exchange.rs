//! MD halo exchange: the communication pattern that motivates the Anton 2
//! multicast support (Section 2.3, Figure 3).
//!
//! Every node broadcasts a particle position to all 26 neighboring nodes
//! through the table-based multicast trees, alternating between two
//! dimension orders to balance torus-channel load. The example measures the
//! inter-node bandwidth saved versus unicast and the exchange latency.
//!
//! ```sh
//! cargo run --release --example md_halo_exchange
//! ```

use anton2::anton_core::chip::LocalEndpointId;
use anton2::anton_core::config::{GlobalEndpoint, MachineConfig};
use anton2::anton_core::multicast::McGroupId;
use anton2::anton_core::packet::{Destination, Packet, Payload};
use anton2::anton_core::topology::TorusShape;
use anton2::anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton2::anton_traffic::md::{alternating_variants, build_halo_groups, HaloSpec};

/// Counts deliveries until every halo copy has landed.
struct HaloDriver {
    expected: u64,
    received: u64,
}

impl Driver for HaloDriver {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, delivery: &Delivery) {
        if matches!(delivery, Delivery::Packet(_)) {
            self.received += 1;
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.received >= self.expected
    }
}

fn main() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    // One halo destination set per node, with two alternating trees each,
    // loaded into the multicast tables at initialization — exactly how an
    // MD run programs the network.
    let spec = HaloSpec {
        radius: 1,
        plane_normal: None,
        endpoints_per_node: 2,
    };
    let groups = build_halo_groups(&cfg, spec, &alternating_variants());
    let copies = groups[0].dests.num_endpoints() as u64;
    let unicast_hops = groups[0].dests.unicast_torus_hops(
        &cfg.shape,
        cfg.shape.coord(anton2::anton_core::topology::NodeId(0)),
    );
    let tree_hops = groups[0].trees[0].torus_hops();
    println!(
        "halo: 26 neighbor nodes x {} endpoint copies; unicast would need {} torus hops, the tree uses {}",
        spec.endpoints_per_node, unicast_hops, tree_hops
    );

    let mut sim = Sim::builder().config(cfg.clone()).build();
    let nodes = cfg.shape.num_nodes() as u64;
    for g in groups {
        sim.add_multicast_group(g);
    }
    // Each node broadcasts one particle per tree variant.
    for node in cfg.shape.nodes() {
        let id = cfg.shape.id(node);
        let src = GlobalEndpoint {
            node: id,
            ep: LocalEndpointId(0),
        };
        for tree in [0u8, 1] {
            let mut pkt = Packet::write(src, src, Payload::zeros(16));
            pkt.dst = Destination::Multicast {
                group: McGroupId(id.0),
                tree,
            };
            sim.inject(src, pkt);
        }
    }
    let mut driver = HaloDriver {
        expected: 2 * nodes * copies,
        received: 0,
    };
    let outcome = sim.run(&mut driver, 10_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    let stats = sim.stats();
    println!(
        "{} broadcasts -> {} deliveries in {} cycles ({:.1} us)",
        2 * nodes,
        driver.received,
        sim.now(),
        sim.now() as f64 / 1500.0
    );
    println!(
        "torus flits used: {} ({:.1} per broadcast vs {} for unicast) — {:.0}% inter-node bandwidth saved",
        stats.torus_flits,
        stats.torus_flits as f64 / (2.0 * nodes as f64),
        unicast_hops,
        100.0 * (1.0 - stats.torus_flits as f64 / (2.0 * nodes as f64 * unicast_hops as f64))
    );
}
