//! Multicast replication at the sizes the tables allow: a table entry's
//! fan-out is bounded by the chip (one forward per torus direction, one
//! local copy per endpoint), not by the replication queues.

use anton_core::chip::{ChipLayout, LocalEndpointId};
use anton_core::config::MachineConfig;
use anton_core::multicast::{DestSet, McGroup, McGroupId};
use anton_core::packet::{Destination, Packet, Payload};
use anton_core::routing::DimOrder;
use anton_core::topology::{NodeCoord, Slice, TorusShape};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};

/// Waits for a number of packet deliveries.
struct WaitFor(u64);

impl Driver for WaitFor {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(_) = d {
            self.0 -= 1;
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.0 == 0
    }
}

/// One multicast from endpoint 0 of node (0, 0, 0) on a 2×2×2 machine with
/// the most endpoints a chip takes (32): every endpoint of `full` plus one
/// endpoint of `beyond`, the next node down the tree — a table entry at
/// `full` of 1 forward + 32 local copies. Returns the cycle the last of
/// the 33 copies was delivered.
fn fan_out_33(full: NodeCoord, beyond: NodeCoord) -> u64 {
    let mut cfg = MachineConfig::new(TorusShape::cube(2));
    cfg.chip = ChipLayout::new(32);
    let mut dests = DestSet::new();
    for ep in 0..32 {
        dests.add(full, LocalEndpointId(ep));
    }
    dests.add(beyond, LocalEndpointId(0));
    let origin = NodeCoord::new(0, 0, 0);
    let variants = [(DimOrder::XYZ, Slice(0))];
    let group = McGroup::build(&cfg.shape, McGroupId(0), origin, dests, &variants);
    let src = cfg.endpoint_at(0);
    let mut sim = Sim::builder().config(cfg).build();
    sim.add_multicast_group(group);
    let mut pkt = Packet::write(src, src, Payload::zeros(16));
    pkt.dst = Destination::Multicast {
        group: McGroupId(0),
        tree: 0,
    };
    sim.inject(src, pkt);
    // `run` audits packet conservation and credit balance on exit.
    assert_eq!(sim.run(&mut WaitFor(33), 200_000), RunOutcome::Completed);
    assert_eq!(sim.stats().injected_packets, 1);
    assert_eq!(sim.stats().delivered_packets, 33);
    assert_eq!(
        sim.live_packets(),
        0,
        "every copy was delivered or absorbed"
    );
    sim.stats().last_delivery_cycle
}

/// A fan-out of 33 at the source endpoint used to expand, find the
/// 32-entry replication queue too small, roll back and never wake again —
/// a silent `TimedOut` with no live packet for the watchdog to see.
#[test]
fn a_33_copy_fan_out_at_the_source_completes() {
    let done = fan_out_33(NodeCoord::new(0, 0, 0), NodeCoord::new(1, 0, 0));
    assert!(done < 1_000, "33 copies over one hop took {done} cycles");
}

/// The same fan-out one hop down the tree used to park the arriving copy
/// at the channel adapter for good: `Deadlocked` at the watchdog's limit.
#[test]
fn a_33_copy_fan_out_at_the_first_hop_completes() {
    let done = fan_out_33(NodeCoord::new(1, 0, 0), NodeCoord::new(1, 1, 0));
    assert!(done < 1_000, "33 copies over two hops took {done} cycles");
}
