//! The simulator exercises only certified dependencies.
//!
//! With route recording on, every consecutive `(link, VC)` pair of every
//! delivered packet's log — "held this buffer while asking for that one" —
//! must be an edge of the channel-dependency graph the certifier builds
//! for the same machine: dimension-order routing, plus one
//! [`TableRouting`] per degraded table the run installs. The certificate
//! is a statement about the route program in `anton-core`; the simulator
//! calls that program's two rules (`ChipLayout::next_attach`,
//! `VcState::turn`) but drives them itself, one buffer at a time — router
//! lookups, promotions staged past the entry link, table reroutes,
//! multicast replication — and this is the check that the driving stays
//! inside what was certified.
//!
//! Verified to fail when `Routers::route` ignores the packet's arrival in
//! X (X through-traffic then crosses the mesh on its stale
//! M-group VC: 324, 904 and 1 dependencies outside the certificate in the
//! three runs below), when `stage_unicast_arrival` applies the promotion
//! before the entry link instead of staging it past it (640 and 2,130
//! outside), and — by a `VcState` assertion rather than a stray edge — when
//! a table-routed packet's detour is staged as if its run continued (`turn`
//! never reaching `end_dim`), or a mid-tree multicast turn is not staged.
//! A mistake in a shared rule itself moves the certificate along with the
//! simulator; those are `crates/core/tests/trace_digest.rs`'s to catch.

use std::collections::HashSet;

use anton_core::chip::{ChanId, ChipLayout, LocalEndpointId};
use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::multicast::{DestSet, McGroup, McGroupId};
use anton_core::net::{DepEdge, RoutingFunction, Topology, TorusTopology};
use anton_core::packet::{Destination, Packet, Payload};
use anton_core::route_table::{DownLinkSet, RouteTable};
use anton_core::routing::DimOrder;
use anton_core::table_routing::TableRouting;
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_core::trace::{trace_multicast, TraceStep};
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;
use anton_verify::{build_degraded_tables, build_routing_graph};

/// Every edge of the certified graph of `cfg` with `tables` installed.
fn certified_edges(cfg: &MachineConfig, tables: &[RouteTable]) -> HashSet<DepEdge> {
    let topo = TorusTopology::new(cfg);
    let healthy = DimOrderRouting::new(cfg.clone());
    let table_rfs: Vec<TableRouting> = tables
        .iter()
        .map(|t| TableRouting::new(cfg.clone(), t.clone()))
        .collect();
    let mut rfs: Vec<&dyn RoutingFunction> = vec![&healthy];
    rfs.extend(table_rfs.iter().map(|t| t as &dyn RoutingFunction));
    let mut diags = Vec::new();
    let graph = build_routing_graph(&topo, &rfs, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    graph.edges().collect()
}

/// Simulator wire `w` is the certifier's link `w`: both number a node's
/// links by [`TorusTopology`], so a wire is named by its slot, not joined
/// to a certified link through its label.
#[test]
fn simulator_wires_are_the_topology_slots() {
    let mut five = MachineConfig::new(TorusShape::new(4, 3, 2));
    five.chip = ChipLayout::new(5);
    for cfg in [
        MachineConfig::new(TorusShape::new(3, 2, 1)),
        MachineConfig::new(TorusShape::cube(4)),
        five,
    ] {
        let topo = TorusTopology::new(&cfg);
        let per = topo.slots_per_node();
        let sim = Sim::builder().config(cfg).build();
        let wires = sim.wire_utilizations();
        assert_eq!(wires.len(), topo.num_nodes() * per);
        for (w, (label, _)) in wires.iter().enumerate() {
            assert_eq!(topo.link_at(w / per, w % per), Some(*label), "wire {w}");
        }
    }
}

/// Wraps a driver, keeping the route log of every delivery.
struct Logging<D> {
    inner: D,
    logs: Vec<Vec<TraceStep>>,
}

impl<D: Driver> Driver for Logging<D> {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            self.logs.push(p.route_log.clone().expect("route recorded"));
        }
        self.inner.on_delivery(sim, d);
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

/// The edges `logs` exercise, all of which must be `certified`.
fn exercised(logs: &[Vec<TraceStep>], certified: &HashSet<DepEdge>) -> HashSet<DepEdge> {
    let edges: HashSet<DepEdge> = logs
        .iter()
        .flat_map(|log| log.windows(2).map(|w| (w[0], w[1])))
        .collect();
    let outside: Vec<&DepEdge> = edges.difference(certified).collect();
    assert!(
        outside.is_empty(),
        "{} exercised dependencies are outside the certificate, e.g. {:?}",
        outside.len(),
        outside[0]
    );
    edges
}

/// `params` with every route recorded.
fn recording(params: SimParams) -> SimParams {
    SimParams {
        trace: TraceConfig {
            routes: true,
            ..params.trace
        },
        ..params
    }
}

/// A uniform batch (8 packets per endpoint, seed 11) on `sim`, built with
/// [`recording`] parameters: every route logged.
fn uniform_batch_logs(sim: &mut Sim) -> Vec<Vec<TraceStep>> {
    let inner = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(8)
        .seed(11)
        .build();
    let mut drv = Logging {
        inner,
        logs: Vec::new(),
    };
    assert_eq!(sim.run(&mut drv, 10_000_000), RunOutcome::Completed);
    assert_eq!(drv.logs.len() as u64, sim.stats().delivered_packets);
    drv.logs
}

#[test]
fn healthy_uniform_batch_stays_inside_the_certificate() {
    let cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
    let certified = certified_edges(&cfg, &[]);
    assert_eq!(certified.len(), 17_388);
    let params = recording(SimParams::default());
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let logs = uniform_batch_logs(&mut sim);
    let edges = exercised(&logs, &certified);
    // Randomized orders, slices and tie-breaks reach most of the graph.
    assert!(edges.len() > certified.len() / 2, "{} edges", edges.len());
}

#[test]
fn rerouted_packets_stay_inside_the_table_certificate() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let shape = cfg.shape;
    let node = shape.id(NodeCoord::new(0, 2, 3));
    let chan = ChanId {
        dir: TorusDir::new(Dim::Z, Sign::Minus),
        slice: Slice(0),
    };
    let mut downs = DownLinkSet::empty(shape);
    downs.insert(node, chan);
    let (tables, diags) = build_degraded_tables(&cfg, &downs);
    assert!(diags.is_empty(), "{diags:?}");
    let certified = certified_edges(&cfg, &tables);
    let down = FaultKind::Down {
        from_cycle: 0,
        until_cycle: u64::MAX,
    };
    let params = SimParams {
        fault: Some(FaultSchedule::uniform(3, 0.0).with_fault(node, chan, down)),
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(recording(params)).build();
    let logs = uniform_batch_logs(&mut sim);
    assert!(sim.stats().rerouted_packets > 0, "nothing took the tables");
    let edges = exercised(&logs, &certified);
    assert!(edges.len() > certified.len() / 2, "{} edges", edges.len());
}

/// Waits for a number of packet deliveries.
struct WaitFor(usize);

impl Driver for WaitFor {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, _d: &Delivery) {}
    fn done(&self, sim: &Sim) -> bool {
        sim.stats().delivered_packets >= self.0 as u64
    }
}

/// One packet down each tree of a two-tree group (the group
/// `crates/core/tests/trace_digest.rs` pins): every delivered copy's log —
/// inherited from the copies it descends from — is one whole root-to-leaf
/// trace of [`trace_multicast`], and every dependency along it is a
/// certified *unicast* edge (the paper's argument that multicast adds none;
/// the certifier still has no fan-out edges of its own).
#[test]
fn multicast_copies_follow_their_reference_traces() {
    let cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
    let mut dests = DestSet::new();
    for (x, y, z, ep) in [
        (1, 0, 0, 0),
        (2, 1, 0, 3),
        (3, 2, 1, 15),
        (0, 1, 1, 7),
        (2, 0, 1, 9),
        (0, 2, 0, 12),
    ] {
        dests.add(NodeCoord::new(x, y, z), LocalEndpointId(ep));
    }
    let origin = NodeCoord::new(0, 0, 0);
    let variants = [
        (DimOrder::XYZ, Slice(0)),
        (DimOrder::new([Dim::Z, Dim::Y, Dim::X]), Slice(1)),
    ];
    let group = McGroup::build(&cfg.shape, McGroupId(0), origin, dests, &variants);
    let src = cfg.endpoint_at(2);
    let mut expected = trace_multicast(&cfg, src, &group);
    assert_eq!(expected.len(), 12);
    let certified = certified_edges(&cfg, &[]);

    let params = recording(SimParams::default());
    let mut sim = Sim::builder().config(cfg).params(params).build();
    sim.add_multicast_group(group);
    for tree in 0..2 {
        let mut pkt = Packet::write(src, src, Payload::zeros(16));
        pkt.dst = Destination::Multicast {
            group: McGroupId(0),
            tree,
        };
        sim.inject(src, pkt);
    }
    let mut drv = Logging {
        inner: WaitFor(expected.len()),
        logs: Vec::new(),
    };
    assert_eq!(sim.run(&mut drv, 200_000), RunOutcome::Completed);
    exercised(&drv.logs, &certified);
    for log in drv.logs {
        let at = expected.iter().position(|t| *t == log);
        let at = at.unwrap_or_else(|| panic!("copy followed no reference trace: {log:?}"));
        expected.swap_remove(at);
    }
    assert!(
        expected.is_empty(),
        "{} traces not followed",
        expected.len()
    );
}
