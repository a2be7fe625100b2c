//! A degraded table routing exposes only the routes it adds beside the
//! healthy routing — its non-minimal paths and their nodes' fans — because
//! a certificate always walks the healthy routing first, and every edge of
//! a minimal path is already in its graph. This suite checks that claim
//! against an oracle: a test-local routing function that exposes every
//! path of a table, traced end to end, and every fan of every node,
//! node-local endpoint pairs included, in the order a table was once walked
//! in. Over the healthy graph, both must give the same union: the same
//! edges, each pair's successors in the same order, the same verdict, and
//! the same cycle with the same witnesses.

use std::collections::BTreeSet;

use anton_core::chip::{ChanId, LinkGroup, LocalEndpointId, LocalLink};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::{Arrival, RouteState, RoutingFunction, Step, Topology, Transitions};
use anton_core::route_table::{DownLinkSet, RouteTable};
use anton_core::routing::RouteSpec;
use anton_core::table_routing::TableRouting;
use anton_core::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};
use anton_core::trace::{trace_unicast, GlobalLink, TraceStep};
use anton_core::vc::VcState;
use anton_verify::{build_degraded_tables, build_routing_graph, certify_routing};
use proptest::prelude::*;

/// Every route of one table as a complete transition from its root: each
/// `(src, dst)` path from endpoint 0 to endpoint 0; then per node and
/// endpoint the injection fan to each adapter a path leaves the node by,
/// the delivery fan from each adapter (and VC state) a path reaches it by,
/// and the delivery to each endpoint of the node.
#[derive(Debug)]
struct EveryPath {
    label: String,
    vcs: usize,
    routes: Vec<(Arrival, Vec<Step>)>,
}

impl EveryPath {
    fn new(cfg: &MachineConfig, table: &RouteTable) -> EveryPath {
        let shape = cfg.shape;
        let topo = anton_core::net::TorusTopology::new(cfg);
        let slice = table.slice();
        let start = cfg.vc_policy.start();
        let crosses = |n: NodeCoord, d: TorusDir| shape.hop_crosses_dateline(n, d);
        let at = |node: NodeId, ep: u8| GlobalEndpoint {
            node,
            ep: LocalEndpointId(ep),
        };
        let index = |steps: &[TraceStep]| -> Vec<Step> {
            let link = |l: &GlobalLink| topo.index(l).expect("a traced link has a slot");
            steps.iter().map(|(l, vc)| (link(l), *vc)).collect()
        };
        let n = shape.num_nodes() as u32;
        let mut routes = Vec::new();
        let mut push = |node: NodeId, link: LocalLink, vc: VcState, steps: &[TraceStep]| {
            let arrival = Arrival {
                node,
                link: topo.index(&GlobalLink::Local { node, link }).unwrap(),
                vc: vc.vc_for(link.group()),
                state: RouteState(routes.len() as u64),
            };
            routes.push((arrival, index(steps)));
        };
        // Per node: the adapters paths depart by, and the adapters and VC
        // states they arrive in, each with a pair that takes it.
        let mut departs = vec![BTreeSet::new(); n as usize];
        let mut arrivals = vec![BTreeSet::new(); n as usize];
        for src in (0..n).map(NodeId) {
            for dst in (0..n).map(NodeId).filter(|&d| d != src) {
                let spec = table.route(src, dst);
                let trace = trace_unicast(cfg, at(src, 0), at(dst, 0), &spec, &crosses);
                push(
                    src,
                    LocalLink::EpToRouter(LocalEndpointId(0)),
                    start,
                    &trace[1..],
                );
                let hops: Vec<(NodeCoord, TorusDir)> =
                    spec.walk(&shape, shape.coord(src)).collect();
                let (mut vc, mut arrived) = (start, None);
                for &(from, dir) in &hops {
                    vc.turn(arrived, Some(dir));
                    vc.torus_hop(crosses(from, dir));
                    arrived = Some(dir);
                }
                let last = hops.last().expect("a hop").1;
                departs[src.0 as usize].insert(ChanId {
                    dir: hops[0].1,
                    slice,
                });
                let arrive = ChanId {
                    dir: last.opposite(),
                    slice,
                };
                arrivals[dst.0 as usize].insert((arrive, vc, src));
            }
        }
        let one_hop = |c: ChanId| RouteSpec::from_hops(&shape, c.slice, &[c.dir]).unwrap();
        let stay = RouteSpec::from_hops(&shape, slice, &[]).unwrap();
        for node in (0..n).map(NodeId) {
            let mut seen_arrivals = BTreeSet::new();
            for ep in cfg.chip.endpoints() {
                let inject = LocalLink::EpToRouter(ep);
                for &c in &departs[node.0 as usize] {
                    let far = topo.neighbor(node, c.dir);
                    let trace =
                        trace_unicast(cfg, at(node, ep.0), at(far, 0), &one_hop(c), &crosses);
                    let torus = trace
                        .iter()
                        .position(|s| matches!(s.0, GlobalLink::Torus { .. }));
                    push(node, inject, start, &trace[1..torus.unwrap() + 2]);
                }
                seen_arrivals.clear();
                for &(arrive, vc, src) in &arrivals[node.0 as usize] {
                    if !seen_arrivals.insert((arrive, vc)) {
                        continue;
                    }
                    let spec = table.route(src, node);
                    let trace = trace_unicast(cfg, at(src, 0), at(node, ep.0), &spec, &crosses);
                    let torus = trace
                        .iter()
                        .rposition(|s| matches!(s.0, GlobalLink::Torus { .. }));
                    push(
                        node,
                        LocalLink::ChanToRouter(arrive),
                        vc,
                        &trace[torus.unwrap() + 2..],
                    );
                }
                for ep2 in cfg.chip.endpoints() {
                    let trace =
                        trace_unicast(cfg, at(node, ep.0), at(node, ep2.0), &stay, &crosses);
                    push(node, inject, start, &trace[1..]);
                }
            }
        }
        let p = cfg.vc_policy;
        EveryPath {
            label: format!("every path of the table, {slice}"),
            vcs: usize::from(p.num_vcs(LinkGroup::M).max(p.num_vcs(LinkGroup::T))),
            routes,
        }
    }
}

impl RoutingFunction for EveryPath {
    fn describe(&self) -> String {
        self.label.clone()
    }
    fn num_vcs(&self) -> usize {
        self.vcs
    }
    fn roots(&self) -> Vec<Arrival> {
        self.routes.iter().map(|r| r.0).collect()
    }
    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let (root, steps) = &self.routes[arrival.state.0 as usize];
        assert_eq!(root, arrival);
        out.steps_mut().extend_from_slice(steps);
        out.end(None);
    }
}

/// Asserts that `tables` over the healthy routing give the same union
/// graph, successor order included, and the same certificate whether each
/// table is walked as [`TableRouting`] or as [`EveryPath`]. Returns whether
/// the union is acyclic.
fn assert_same_union(cfg: &MachineConfig, tables: &[RouteTable]) -> bool {
    let healthy = DimOrderRouting::new(cfg.clone());
    let adds: Vec<TableRouting> = (tables.iter())
        .map(|t| TableRouting::new(cfg.clone(), t.clone()))
        .collect();
    let every: Vec<EveryPath> = tables.iter().map(|t| EveryPath::new(cfg, t)).collect();
    let mut new: Vec<&dyn RoutingFunction> = vec![&healthy];
    new.extend(adds.iter().map(|t| t as &dyn RoutingFunction));
    let mut oracle: Vec<&dyn RoutingFunction> = vec![&healthy];
    oracle.extend(every.iter().map(|t| t as &dyn RoutingFunction));
    let topo = healthy.topology();
    let mut diags = Vec::new();
    let a = build_routing_graph(topo, &new, &mut diags);
    let b = build_routing_graph(topo, &oracle, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(a.num_edges(), b.num_edges());
    let pairs = (topo.num_nodes() * topo.slots_per_node() * healthy.num_vcs()) as u32;
    for f in 0..pairs {
        assert_eq!(
            a.successors(f),
            b.successors(f),
            "successors of {:?}",
            a.decode(f)
        );
    }
    let (cert, diags) = certify_routing(topo, &new, healthy.label());
    let (oracle_cert, oracle_diags) = certify_routing(topo, &oracle, healthy.label());
    assert!(diags.is_empty() && oracle_diags.is_empty());
    assert_eq!(format!("{cert:?}"), format!("{oracle_cert:?}"));
    cert.acyclic
}

fn chan(dim: Dim, sign: Sign, slice: u8) -> ChanId {
    ChanId {
        dir: TorusDir::new(dim, sign),
        slice: Slice(slice),
    }
}

fn tables_of(cfg: &MachineConfig, sets: &[DownLinkSet]) -> Vec<RouteTable> {
    let mut tables = Vec::new();
    for downs in sets {
        let (t, diags) = build_degraded_tables(cfg, downs);
        assert!(diags.is_empty(), "{diags:?}");
        tables.extend(t);
    }
    tables
}

#[test]
fn the_uncertifiable_epoch_union_keeps_its_cycle_and_witnesses() {
    // Z- of slice 0 down at (0,2,3) in one epoch, Z+ of slice 1 at (0,2,0)
    // in another: the union the simulator's gate rejects as AV021.
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let shape = cfg.shape;
    let one = |at, c| DownLinkSet::from_links(shape, [(shape.id(at), c)]);
    let sets = [
        one(NodeCoord::new(0, 2, 3), chan(Dim::Z, Sign::Minus, 0)),
        one(NodeCoord::new(0, 2, 0), chan(Dim::Z, Sign::Plus, 1)),
    ];
    assert!(!assert_same_union(&cfg, &tables_of(&cfg, &sets)));
}

/// Whether some route of `table` takes a dimension in two runs.
fn some_route_revisits_a_dimension(table: &RouteTable) -> bool {
    let n = table.shape().num_nodes() as u32;
    (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .any(|(s, d)| {
            let hops = table.route(NodeId(s), NodeId(d)).hops();
            let runs = 1 + hops.windows(2).filter(|w| w[0].dim != w[1].dim).count();
            let dims = Dim::ALL
                .iter()
                .filter(|&&d| hops.iter().any(|h| h.dim == d));
            !hops.is_empty() && runs > dims.count()
        })
}

#[test]
fn split_detour_tables_of_a_ring_cut_both_ways_add_the_same_edges() {
    // Y+ out of (0,0,0) and Y- out of (0,2,0) on slice 0: (0,0,0) and
    // (0,2,0) are cut apart both ways round their Y ring, so that pair
    // takes a split detour.
    for shape in [
        TorusShape::cube(3),
        TorusShape::cube(4),
        TorusShape::new(4, 3, 2),
    ] {
        let cfg = MachineConfig::new(shape);
        let downs = DownLinkSet::from_links(
            shape,
            [
                (
                    shape.id(NodeCoord::new(0, 0, 0)),
                    chan(Dim::Y, Sign::Plus, 0),
                ),
                (
                    shape.id(NodeCoord::new(0, 2, 0)),
                    chan(Dim::Y, Sign::Minus, 0),
                ),
            ],
        );
        let tables = tables_of(&cfg, &[downs]);
        assert!(
            tables.iter().any(some_route_revisits_a_dimension),
            "{shape}"
        );
        assert_same_union(&cfg, &tables);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One or two Down links on 3×3×3, 4×4×4 or 4×3×2: the second at random,
    /// or cutting the first one's ring the other way round further along
    /// it (split detours), a cut every table set survives and certifies.
    #[test]
    fn random_down_sets_add_the_same_union(
        shape_idx in 0usize..3,
        node in 0usize..64,
        dir in 0usize..6,
        slice in 0u8..2,
        second in (0usize..3, 0usize..64, 0usize..6, 0u8..2),
    ) {
        let shape = [TorusShape::cube(3), TorusShape::cube(4), TorusShape::new(4, 3, 2)][shape_idx];
        let cfg = MachineConfig::new(shape);
        let n = shape.num_nodes();
        let first = NodeId((node % n) as u32);
        let c = ChanId { dir: TorusDir::ALL[dir], slice: Slice(slice) };
        let mut links = vec![(first, c)];
        let (kind, node2, dir2, slice2) = second;
        match kind {
            1 => links.push((
                NodeId((node2 % n) as u32),
                ChanId { dir: TorusDir::ALL[dir2], slice: Slice(slice2) },
            )),
            2 => {
                // Two hops along the ring, the link back the other way.
                let step = |at| shape.neighbor(at, c.dir);
                let far = step(step(shape.coord(first)));
                links.push((shape.id(far), ChanId { dir: c.dir.opposite(), slice: c.slice }));
            }
            _ => {}
        }
        prop_assume!(shape.k(c.dir.dim) > 1);
        let downs = DownLinkSet::from_links(shape, links);
        let (tables, diags) = build_degraded_tables(&cfg, &downs);
        if kind == 2 {
            assert!(diags.is_empty(), "{diags:?}");
            assert!(assert_same_union(&cfg, &tables), "ring cut uncertified");
        } else {
            prop_assume!(diags.is_empty());
            assert_same_union(&cfg, &tables);
        }
    }
}
