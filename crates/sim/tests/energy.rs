//! Exact router energy counters of one run that sends payloads down every
//! path a packet's bytes can take: fresh unicast injection, an MD-halo
//! multicast replicated at its source and mid-tree, a unicast packet pulled
//! off a link that goes `Down` and re-injected over the degraded tables,
//! and (at two shards) packets handed across a shard boundary. The
//! payloads have set bits, so a payload lost or zeroed on any of those
//! paths moves the flip and set-bit counts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use anton_core::chip::{ChanId, LocalEndpointId};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{McGroup, McGroupId};
use anton_core::packet::{Destination, Packet, Payload};
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::params::SimParams;
use anton_sim::shard::ShardableDriver;
use anton_sim::sim::{Delivery, Driver, EnergyCounters, RunOutcome, Sim, SimStats};
use anton_traffic::md::{alternating_variants, halo_dest_set, HaloSpec};

/// First cycle of the outage: the source's X+ serializer has a backlog by
/// then, which it absorbs into reroutes.
const DOWN_FROM: u64 = 40;

/// The run's router energy, identical serial and at two shards: captured
/// from the simulator whose packet state still embedded the whole packet.
const EXPECTED: EnergyCounters = EnergyCounters {
    flits: 2_711,
    flips: 173_803,
    activations: 1_499,
    set_bits: 96_147,
};

/// Counts deliveries until `want`, keeping the unicast ones that entered
/// the network before the outage and were rerouted all the same: packets
/// that took the `Reroute` path off the failed link.
struct Collect {
    want: u64,
    delivered: u64,
    pulled_off: u64,
}

impl Driver for Collect {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            self.delivered += 1;
            if p.rerouted && p.injected_at < DOWN_FROM {
                self.pulled_off += 1;
            }
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.delivered >= self.want
    }
}

/// A sub-driver that injects nothing: all traffic is queued up front.
struct Idle;

impl Driver for Idle {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, _d: &Delivery) {}
    fn done(&self, _sim: &Sim) -> bool {
        false
    }
}

impl ShardableDriver for Collect {
    fn split(
        &self,
        _cfg: &MachineConfig,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        ranges
            .iter()
            .map(|_| Box::new(Idle) as Box<dyn Driver + Send>)
            .collect()
    }

    fn done_implies_quiescent(&self) -> bool {
        true
    }
}

/// The 4×4×4 machine, its parameters (energy counted, node 0's X+ link on
/// slice 0 down from [`DOWN_FROM`] to cycle 3,000), the halo group of node
/// (1, 1, 1), and the packets to queue: each endpoint of node 0 sends eight
/// unicast packets one X hop away, half of them also one Y hop, and node
/// (1, 1, 1) multicasts on both halo trees. Payloads are random bytes, one
/// or two flits long.
fn scenario() -> (
    MachineConfig,
    SimParams,
    McGroup,
    Vec<(GlobalEndpoint, Packet)>,
) {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let x_plus = TorusDir {
        dim: Dim::X,
        sign: Sign::Plus,
    };
    let schedule = FaultSchedule::uniform(1, 0.0).with_fault(
        cfg.shape.id(NodeCoord::new(0, 0, 0)),
        ChanId {
            dir: x_plus,
            slice: Slice(0),
        },
        FaultKind::Down {
            from_cycle: DOWN_FROM,
            until_cycle: 3_000,
        },
    );
    let params = SimParams {
        track_energy: true,
        fault: Some(schedule),
        ..SimParams::default()
    };
    let hub = NodeCoord::new(1, 1, 1);
    let dests = halo_dest_set(&cfg, hub, HaloSpec::default());
    let group = McGroup::build(
        &cfg.shape,
        McGroupId(7),
        hub,
        dests,
        &alternating_variants(),
    );
    let ep = |c: NodeCoord, e: u8| GlobalEndpoint {
        node: cfg.shape.id(c),
        ep: LocalEndpointId(e),
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut payload = |i: usize| {
        let len = if i.is_multiple_of(3) { 32 } else { 16 };
        Payload::random(len, &mut rng)
    };
    let mut packets = Vec::new();
    for tree in [0u8, 1] {
        let src = ep(hub, 0);
        let mut pkt = Packet::write(src, src, payload(packets.len()));
        pkt.dst = Destination::Multicast {
            group: McGroupId(7),
            tree,
        };
        packets.push((src, pkt));
    }
    for e in 0..cfg.endpoints_per_node() as u8 {
        for i in 0..8u8 {
            let there = NodeCoord::new(1, i % 2, 0);
            let pkt = Packet::write(
                ep(NodeCoord::new(0, 0, 0), e),
                ep(there, i),
                payload(packets.len()),
            );
            packets.push((pkt.src, pkt));
        }
    }
    (cfg, params, group, packets)
}

/// Runs the scenario serially (`shards` = 1) or sharded, returning the
/// router energy, the statistics and how many packets were pulled off the
/// failed link.
fn run(shards: usize) -> (EnergyCounters, SimStats, u64) {
    let (cfg, params, group, packets) = scenario();
    let n_dests = group.dests.num_endpoints() as u64;
    let unicast = packets.len() as u64 - 2;
    let mut drv = Collect {
        want: unicast + 2 * n_dests,
        delivered: 0,
        pulled_off: 0,
    };
    let (energy, stats) = if shards == 1 {
        let mut sim = Sim::builder().config(cfg).params(params).build();
        sim.add_multicast_group(group);
        for (src, pkt) in packets {
            sim.inject(src, pkt);
        }
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        sim.check_invariants().unwrap();
        (sim.router_energy(), sim.stats().clone())
    } else {
        let mut sim = Sim::builder()
            .config(cfg)
            .params(params)
            .shards(shards)
            .build_sharded();
        sim.add_multicast_group(group);
        for (src, pkt) in packets {
            sim.inject(src, pkt);
        }
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        sim.check_invariants().unwrap();
        (sim.router_energy(), sim.stats())
    };
    (energy, stats, drv.pulled_off)
}

#[test]
fn router_energy_is_pinned_serial_and_sharded() {
    let (serial, stats, pulled_off) = run(1);
    println!("router energy: {serial:?}; {pulled_off} packets pulled off the failed link");
    assert!(
        pulled_off > 0,
        "no unicast packet was pulled off the failed link"
    );
    assert!(stats.rerouted_packets >= pulled_off);
    assert!(serial.set_bits > 0, "payloads carry set bits");
    assert_eq!(serial, EXPECTED);
    let (sharded, sharded_stats, sharded_pulled_off) = run(2);
    assert_eq!(sharded, EXPECTED, "2 shards");
    assert_eq!((sharded_stats, sharded_pulled_off), (stats, pulled_off));
}
