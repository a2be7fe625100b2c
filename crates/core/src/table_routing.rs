//! Explicit [`RouteTable`] routes as a [`RoutingFunction`]: the routes a
//! table adds beside [`DimOrderRouting`].
//!
//! A degraded-torus route table pins down one concrete path per `(src, dst)`
//! pair on one slice. A table is only ever certified next to the healthy
//! routing, whose walk — run first — has already inserted every edge of
//! every minimal route, so this adapter exposes only what the table adds:
//! the link-level trace of each pair whose path is not one of
//! [`RouteSpec::minimal_routes`] (endpoint 0 standing in for the
//! endpoint-independent torus portion), plus the injection / delivery mesh
//! fans of every endpoint at the nodes those paths leave and reach. A
//! skipped path or fan could only have re-inserted edges the graph already
//! holds, so the union graph — its edges and the order each pair's
//! successors were first inserted in — is the one every path would give.
//! A healthy table adds nothing and has no roots.
//!
//! Every root's transition is a complete route (no successor state): the
//! abstract state space is just an enumeration of the route set, each
//! route a few chip traversals of the route program (`trace::leg`), each
//! traversal shape traced once and replayed at its nodes. Its steps are
//! the traces' links by their [`TorusTopology`] index.
//!
//! [`DimOrderRouting`]: crate::dimorder::DimOrderRouting
//! [`RouteSpec::minimal_routes`]: crate::routing::RouteSpec::minimal_routes

use std::collections::BTreeSet;

use crate::chip::{ChanId, LinkGroup, LocalAttach, LocalEndpointId, LocalLink};
use crate::config::MachineConfig;
use crate::dimorder::{Run, Traversals};
use crate::net::{Arrival, RouteState, RoutingFunction, Topology, TorusTopology, Transitions};
use crate::route_table::RouteTable;
use crate::topology::NodeId;
use crate::trace::GlobalLink;
use crate::vc::VcState;

/// One chip traversal of a root's route: its traced run, the node it
/// crosses and the node it departs to (the same node for a delivery).
type Leg = (Run, NodeId, NodeId);

/// The routes one route table adds to the healthy routing's, exposed as a
/// [`RoutingFunction`] over the torus topology it was built for.
#[derive(Debug, Clone)]
pub struct TableRouting {
    cfg: MachineConfig,
    table: RouteTable,
    /// The links the steps name.
    topo: TorusTopology,
    /// Every traversal shape the routes take, traced once.
    traversals: Traversals,
    /// Each root, its state its index here, and its run of `legs`.
    roots: Vec<(Arrival, (u32, u32))>,
    legs: Vec<Leg>,
}

impl TableRouting {
    /// Wraps `table` (built for `cfg.shape`) as a routing function.
    ///
    /// Construction decides from each pair's [`RouteSpec`] runs whether its
    /// path is minimal, and lays out every other path and its nodes' fans
    /// as replayed traversals.
    ///
    /// [`RouteSpec`]: crate::routing::RouteSpec
    pub fn new(cfg: MachineConfig, table: RouteTable) -> TableRouting {
        let shape = cfg.shape;
        let slice = table.slice();
        let n = shape.num_nodes();
        let start = cfg.vc_policy.start();
        let mut rf = TableRouting {
            topo: TorusTopology::new(&cfg),
            cfg,
            table,
            traversals: Traversals::default(),
            roots: Vec::new(),
            legs: Vec::new(),
        };
        // Per node: the first-departure adapters of the paths leaving it,
        // and the terminal arrival adapters of the paths reaching it, with
        // the VC state a path arrives in.
        let mut departs: Vec<BTreeSet<ChanId>> = vec![BTreeSet::new(); n];
        let mut arrivals: Vec<BTreeSet<(ChanId, VcState)>> = vec![BTreeSet::new(); n];
        let ep0 = LocalEndpointId(0);
        let nodes = || (0..n as u32).map(NodeId);
        for src in nodes() {
            for dst in nodes().filter(|&dst| dst != src) {
                let spec = rf.table.route(src, dst);
                if spec.is_minimal(&shape, shape.coord(src), shape.coord(dst)) {
                    continue;
                }
                let first = rf.legs.len() as u32;
                let (mut entry, mut vc) = (LocalLink::EpToRouter(ep0), start);
                for (at, dir) in spec.walk(&shape, shape.coord(src)) {
                    let exit = LocalAttach::Chan(ChanId { dir, slice });
                    let crossing = shape.hop_crosses_dateline(at, dir);
                    let node = shape.id(at);
                    let far = rf.topo.neighbor(node, dir);
                    vc = rf.leg(entry, exit, vc, crossing, node, far);
                    entry = LocalLink::ChanToRouter(ChanId {
                        dir: dir.opposite(),
                        slice,
                    });
                }
                let LocalLink::ChanToRouter(arrive) = entry else {
                    unreachable!("a path between two nodes takes a hop")
                };
                let dir = spec
                    .next_dir()
                    .expect("a path between two nodes takes a hop");
                departs[src.0 as usize].insert(ChanId { dir, slice });
                arrivals[dst.0 as usize].insert((arrive, vc));
                rf.leg(entry, LocalAttach::Endpoint(ep0), vc, false, dst, dst);
                rf.root(src, LocalLink::EpToRouter(ep0), start, first);
            }
        }
        // The mesh fans of every endpoint at those nodes: from injection to
        // each departure adapter, and from each arrival adapter to delivery.
        for node in nodes() {
            let at = shape.coord(node);
            for ep in rf.cfg.chip.endpoints() {
                let inject = LocalLink::EpToRouter(ep);
                for &c in &departs[node.0 as usize] {
                    let first = rf.legs.len() as u32;
                    let crossing = shape.hop_crosses_dateline(at, c.dir);
                    let far = rf.topo.neighbor(node, c.dir);
                    rf.leg(inject, LocalAttach::Chan(c), start, crossing, node, far);
                    rf.root(node, inject, start, first);
                }
                for &(arrive, vc) in &arrivals[node.0 as usize] {
                    let first = rf.legs.len() as u32;
                    let entry = LocalLink::ChanToRouter(arrive);
                    rf.leg(entry, LocalAttach::Endpoint(ep), vc, false, node, node);
                    rf.root(node, entry, vc, first);
                }
            }
        }
        rf
    }

    /// The wrapped table.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// Appends the traversal from `entry` to `exit` at `node`, departing to
    /// `far`, to the route being laid out, and returns the VC state past it.
    fn leg(
        &mut self,
        entry: LocalLink,
        exit: LocalAttach,
        vc: VcState,
        crossing: bool,
        node: NodeId,
        far: NodeId,
    ) -> VcState {
        let (run, past) = (self.traversals).trace(&self.cfg, &self.topo, entry, exit, vc, crossing);
        self.legs.push((run, node, far));
        past
    }

    /// Closes the route laid out since leg `first` as a root holding
    /// `node`'s buffer `link` in VC state `vc`.
    fn root(&mut self, node: NodeId, link: LocalLink, vc: VcState, first: u32) {
        let arrival = Arrival {
            node,
            link: (self.topo.index(&GlobalLink::Local { node, link }))
                .expect("a chip link has a slot"),
            vc: vc.vc_for(link.group()),
            state: RouteState(self.roots.len() as u64),
        };
        self.roots.push((arrival, (first, self.legs.len() as u32)));
    }
}

impl RoutingFunction for TableRouting {
    fn describe(&self) -> String {
        format!("explicit route table, {}", self.table.slice())
    }

    fn num_vcs(&self) -> usize {
        let p = self.cfg.vc_policy;
        usize::from(p.num_vcs(LinkGroup::M).max(p.num_vcs(LinkGroup::T)))
    }

    fn roots(&self) -> Vec<Arrival> {
        self.roots.iter().map(|&(arrival, _)| arrival).collect()
    }

    /// # Panics
    ///
    /// Panics on an arrival that is not one of [`roots`](Self::roots).
    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let (root, (first, end)) = self.roots[arrival.state.0 as usize];
        assert_eq!(root, *arrival, "not a root of {}", self.describe());
        for &(run, node, far) in &self.legs[first as usize..end as usize] {
            self.traversals.emit(&self.topo, run, node, far, out);
        }
        out.end(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_table::{build_route_table, DownLinkSet};
    use crate::routing::RouteSpec;
    use crate::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};

    #[test]
    fn a_healthy_table_adds_no_roots() {
        let cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
        let shape = cfg.shape;
        for slice in Slice::ALL {
            let table = build_route_table(&shape, slice, &DownLinkSet::empty(shape));
            let rf = TableRouting::new(cfg.clone(), table.expect("healthy"));
            assert!(rf.roots().is_empty());
        }
    }

    #[test]
    fn a_degraded_table_roots_its_non_minimal_pairs_and_their_fans() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let shape = cfg.shape;
        let topo = TorusTopology::new(&cfg);
        let down = ChanId {
            dir: TorusDir::new(Dim::X, Sign::Plus),
            slice: Slice(0),
        };
        let origin = shape.id(NodeCoord::new(0, 0, 0));
        let downs = DownLinkSet::from_links(shape, [(origin, down)]);
        let table = build_route_table(&shape, Slice(0), &downs).expect("one link down");
        // The pairs whose path no minimal route takes, by enumeration.
        let mut kept = Vec::new();
        for (src, dst) in shape
            .nodes()
            .flat_map(|a| shape.nodes().map(move |b| (a, b)))
        {
            let hops = table.route(shape.id(src), shape.id(dst)).hops();
            let minimal = RouteSpec::minimal_routes(&shape, src, dst).any(|r| r.hops() == hops);
            if !minimal {
                kept.push((shape.id(src), shape.id(dst), hops[0]));
            }
        }
        assert!(!kept.is_empty());
        let rf = TableRouting::new(cfg.clone(), table);
        let roots = rf.roots();
        let decode = |step: (crate::net::LinkIdx, _)| topo.link(step.0).expect("a link");
        let mut out = Transitions::default();
        let mut ends = Vec::new();
        for root in &roots {
            out.clear();
            rf.transitions(root, &mut out);
            assert_eq!(out.len(), 1, "one complete route per root");
            let route = out.get(0);
            assert!(route.next.is_none());
            ends.push((
                decode((root.link, root.vc)),
                decode(*route.steps.last().unwrap()),
            ));
        }
        // First the paths, in pair order, from endpoint 0 to endpoint 0.
        let ep0 = LocalEndpointId(0);
        for (&(src, dst, _), (from, to)) in kept.iter().zip(&ends) {
            let inject = LocalLink::EpToRouter(ep0);
            assert_eq!(
                *from,
                GlobalLink::Local {
                    node: src,
                    link: inject
                }
            );
            let deliver = LocalLink::RouterToEp(ep0);
            assert_eq!(
                *to,
                GlobalLink::Local {
                    node: dst,
                    link: deliver
                }
            );
        }
        // Then the fans: every endpoint's injection to each adapter a kept
        // path departs on, and each kept arrival's delivery to every
        // endpoint — nothing at a node no kept path leaves or reaches.
        let eps = cfg.endpoints_per_node();
        let mut departs: Vec<(NodeId, TorusDir)> = kept.iter().map(|p| (p.0, p.2)).collect();
        departs.sort_unstable();
        departs.dedup();
        let (mut inject_fans, mut deliver_fans) = (0, 0);
        for (from, to) in &ends[kept.len()..] {
            match (*from, *to) {
                (
                    GlobalLink::Local {
                        node,
                        link: LocalLink::EpToRouter(_),
                    },
                    GlobalLink::Local {
                        link: LocalLink::ChanToRouter(c),
                        ..
                    },
                ) => {
                    assert!(departs.contains(&(node, c.dir.opposite())));
                    inject_fans += 1;
                }
                (
                    GlobalLink::Local {
                        node,
                        link: LocalLink::ChanToRouter(c),
                    },
                    GlobalLink::Local {
                        link: LocalLink::RouterToEp(_),
                        ..
                    },
                ) => {
                    assert!(kept.iter().any(|p| p.1 == node));
                    assert_eq!(c.slice, Slice(0));
                    deliver_fans += 1;
                }
                other => panic!("a fan from {} to {}", other.0, other.1),
            }
        }
        assert_eq!(inject_fans, eps * departs.len());
        assert!(deliver_fans > 0 && deliver_fans % eps == 0);
    }
}
