//! Explicit [`RouteTable`] routes as a [`RoutingFunction`].
//!
//! A degraded-torus route table pins down one concrete path per `(src, dst)`
//! pair on one slice. This adapter exposes exactly the channel-dependency
//! edges those paths produce — the full link-level trace of every pair
//! (endpoint 0 standing in for the endpoint-independent torus portion), plus
//! the injection / delivery mesh fans of every other endpoint at each node,
//! and the node-local endpoint-pair deliveries: each pair the tracer's fold
//! of the route program's chip traversal (`trace::leg`) over the table's
//! [`RouteSpec`](crate::routing::RouteSpec), each fan one traversal.
//!
//! Every transition here is a complete route (no successor state): the
//! abstract state space is just an enumeration of the route set. Its steps
//! are the traces' links by their [`TorusTopology`] index.

use std::collections::BTreeSet;

use crate::chip::{ChanId, LinkGroup, LocalAttach, LocalEndpointId, LocalLink};
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::net::{
    Arrival, LinkIdx, RouteState, RoutingFunction, Topology, TorusTopology, Transitions,
};
use crate::route_table::RouteTable;
use crate::topology::NodeId;
use crate::trace::{leg, trace_legs, GlobalLink, TraceStep};
use crate::vc::VcState;

const TAG_PATH: u64 = 0;
const TAG_INJ: u64 = 1;
const TAG_DELIVER: u64 = 2;
const TAG_LOCAL: u64 = 3;

/// One route table's dependency edges, exposed as a [`RoutingFunction`]
/// over the torus topology it was built for.
#[derive(Debug, Clone)]
pub struct TableRouting {
    cfg: MachineConfig,
    table: RouteTable,
    /// The links the steps name.
    topo: TorusTopology,
    /// Per source node: the first-departure adapters its table paths use.
    departs: Vec<Vec<ChanId>>,
    /// Per destination node: the terminal arrival adapters, with the VC
    /// state a path arrives there in.
    arrivals: Vec<Vec<(ChanId, VcState)>>,
}

/// Pushes to `steps` the trace of the table route from endpoint 0 of `src`
/// to `dst` — delivered to `final_ep` at `dst`, or left in the arrival
/// adapter's buffer there — and returns the VC state it ends in.
fn path_trace(
    cfg: &MachineConfig,
    table: &RouteTable,
    src: NodeId,
    dst: NodeId,
    final_ep: Option<LocalEndpointId>,
    steps: &mut Vec<TraceStep>,
) -> VcState {
    let shape = cfg.shape;
    let ep0 = GlobalEndpoint {
        node: src,
        ep: LocalEndpointId(0),
    };
    let crosses = |c, d| shape.hop_crosses_dateline(c, d);
    trace_legs(cfg, ep0, &table.route(src, dst), final_ep, &crosses, steps)
}

impl TableRouting {
    /// Wraps `table` (built for `cfg.shape`) as a routing function.
    ///
    /// Construction folds every `(src, dst)` path once through the route
    /// program to learn the adapter fan-in/fan-out of each node; the
    /// per-pair traces themselves are re-derived on demand.
    pub fn new(cfg: MachineConfig, table: RouteTable) -> TableRouting {
        let slice = table.slice();
        let n = cfg.shape.num_nodes();
        let mut departs: Vec<BTreeSet<ChanId>> = vec![BTreeSet::new(); n];
        let mut arrivals: Vec<BTreeSet<(ChanId, VcState)>> = vec![BTreeSet::new(); n];
        let nodes = || (0..n as u32).map(NodeId);
        let mut steps = Vec::new();
        for src in nodes() {
            for dst in nodes() {
                let hops = table.route(src, dst).hops();
                let (Some(&first), Some(last)) = (hops.first(), hops.last()) else {
                    continue;
                };
                steps.clear();
                let vc = path_trace(&cfg, &table, src, dst, None, &mut steps);
                departs[src.0 as usize].insert(ChanId { dir: first, slice });
                let dir = last.opposite();
                arrivals[dst.0 as usize].insert((ChanId { dir, slice }, vc));
            }
        }
        TableRouting {
            topo: TorusTopology::new(&cfg),
            cfg,
            table,
            departs: departs.into_iter().map(Vec::from_iter).collect(),
            arrivals: arrivals.into_iter().map(Vec::from_iter).collect(),
        }
    }

    /// The wrapped table.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    /// One [`leg`] at `node` as a complete route, written to `out`: the mesh
    /// fan of an endpoint other than the one the table paths are traced
    /// from.
    fn fan(
        &self,
        node: NodeId,
        entry: LocalLink,
        exit: LocalAttach,
        mut vc: VcState,
        out: &mut Transitions,
    ) {
        let at = self.cfg.shape.coord(node);
        let crosses =
            matches!(exit, LocalAttach::Chan(c) if self.cfg.shape.hop_crosses_dateline(at, c.dir));
        let mut steps = Vec::with_capacity(16);
        leg(&self.cfg, at, entry, exit, crosses, &mut vc, &mut steps);
        self.end(&steps, out);
    }

    /// Writes the traced `steps` to `out` as one complete route.
    fn end(&self, steps: &[TraceStep], out: &mut Transitions) {
        out.steps_mut().extend(steps.iter().map(|(link, vc)| {
            let idx = self.topo.index(link);
            (idx.expect("a traced link has a slot"), *vc)
        }));
        out.end(None);
    }

    /// The index of link `link` of `node`.
    fn local(&self, node: NodeId, link: LocalLink) -> LinkIdx {
        let link = GlobalLink::Local { node, link };
        self.topo.index(&link).expect("a chip link has a slot")
    }
}

fn pack(tag: u64, a: u64, b: u64, c: u64) -> RouteState {
    RouteState(tag | (a << 2) | (b << 22) | (c << 30))
}

impl RoutingFunction for TableRouting {
    fn describe(&self) -> String {
        format!(
            "explicit {} route table, {}",
            self.table.method(),
            self.table.slice()
        )
    }

    fn num_vcs(&self) -> usize {
        let p = self.cfg.vc_policy;
        usize::from(p.num_vcs(LinkGroup::M).max(p.num_vcs(LinkGroup::T)))
    }

    fn roots(&self) -> Vec<Arrival> {
        let cfg = &self.cfg;
        let m0 = cfg.vc_policy.start().vc_for(LinkGroup::M);
        let n = cfg.shape.num_nodes();
        let ep_in = |node, ep, state| Arrival {
            node,
            link: self.local(node, LocalLink::EpToRouter(ep)),
            vc: m0,
            state,
        };
        let mut out = Vec::new();
        // Every (src, dst) table path, traced end to end.
        for src in 0..n {
            for dst in (0..n).filter(|&dst| dst != src) {
                let state = RouteState(TAG_PATH | ((src as u64) << 2) | ((dst as u64) << 22));
                out.push(ep_in(NodeId(src as u32), LocalEndpointId(0), state));
            }
        }
        // Injection / delivery mesh fans of every other endpoint, plus
        // node-local endpoint-pair deliveries.
        for nid in 0..n {
            let node = NodeId(nid as u32);
            for ep in cfg.chip.endpoints() {
                let e = u64::from(ep.0);
                for idx in 0..self.departs[nid].len() {
                    out.push(ep_in(node, ep, pack(TAG_INJ, nid as u64, e, idx as u64)));
                }
                for (idx, (arrive, vc)) in self.arrivals[nid].iter().enumerate() {
                    out.push(Arrival {
                        node,
                        link: self.local(node, LocalLink::ChanToRouter(*arrive)),
                        vc: vc.vc_for(LinkGroup::T),
                        state: pack(TAG_DELIVER, nid as u64, e, idx as u64),
                    });
                }
                for ep2 in cfg.chip.endpoints() {
                    let state = pack(TAG_LOCAL, nid as u64, e, u64::from(ep2.0));
                    out.push(ep_in(node, ep, state));
                }
            }
        }
        out
    }

    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let s = arrival.state.0;
        let start = self.cfg.vc_policy.start();
        if s & 3 == TAG_PATH {
            let src = NodeId(((s >> 2) & 0xfffff) as u32);
            let dst = NodeId(((s >> 22) & 0xfffff) as u32);
            let ep0 = Some(LocalEndpointId(0));
            let mut steps = Vec::with_capacity(32);
            path_trace(&self.cfg, &self.table, src, dst, ep0, &mut steps);
            // The trace's first step is the injection buffer — the arrival
            // itself.
            self.end(&steps[1..], out);
            return;
        }
        let nid = ((s >> 2) & 0xfffff) as usize;
        let ep = LocalEndpointId(((s >> 22) & 0xff) as u8);
        let (inject, deliver) = (LocalLink::EpToRouter(ep), LocalAttach::Endpoint(ep));
        let idx = ((s >> 30) & 0x3ff) as usize;
        let node = NodeId(nid as u32);
        match s & 3 {
            TAG_INJ => {
                let depart = LocalAttach::Chan(self.departs[nid][idx]);
                self.fan(node, inject, depart, start, out);
            }
            TAG_DELIVER => {
                let (arrive, vc) = self.arrivals[nid][idx];
                self.fan(node, LocalLink::ChanToRouter(arrive), deliver, vc, out);
            }
            _ => {
                let to = LocalAttach::Endpoint(LocalEndpointId(idx as u8));
                self.fan(node, inject, to, start, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_table::{build_route_table, DownLinkSet};
    use crate::topology::{Slice, TorusShape};

    #[test]
    fn healthy_table_roots_cover_all_pairs_and_fans() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let shape = cfg.shape;
        let table =
            build_route_table(&shape, Slice(0), &DownLinkSet::empty(shape)).expect("healthy");
        let rf = TableRouting::new(cfg.clone(), table);
        let n = shape.num_nodes();
        let eps = cfg.endpoints_per_node();
        let pair_roots = n * (n - 1);
        let local_roots = n * eps * eps;
        assert!(rf.roots().len() >= pair_roots + local_roots);
        // Every root's transitions terminate (no successor states).
        let mut out = Transitions::default();
        for root in rf.roots() {
            out.clear();
            rf.transitions(&root, &mut out);
            for prog in out.iter() {
                assert!(prog.next.is_none());
                assert!(!prog.steps.is_empty());
            }
        }
    }
}
