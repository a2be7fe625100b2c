//! Explicit [`RouteTable`] routes as a [`RoutingFunction`].
//!
//! A degraded-torus route table pins down one concrete path per `(src, dst)`
//! pair on one slice. This adapter exposes exactly the channel-dependency
//! edges those paths produce — the full link-level trace of every pair
//! (endpoint 0 standing in for the endpoint-independent torus portion), plus
//! the injection / delivery mesh fans of every other endpoint at each node,
//! and the node-local endpoint-pair deliveries. It reproduces, edge for
//! edge, what the degraded certifier's hand-rolled path walker used to
//! overlay on the healthy graph; the certifier now consumes it through the
//! same engine as every other routing function.
//!
//! Every transition here is a complete route (no successor state): the
//! abstract state space is just an enumeration of the route set.

use std::collections::HashSet;

use crate::chip::{ChanId, LinkGroup, LocalEndpointId, LocalLink};
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::net::{
    Arrival, ConcreteRoute, DepEdge, Progress, RoutePath, RouteState, RoutingFunction,
};
use crate::route_table::RouteTable;
use crate::topology::NodeId;
use crate::trace::{mesh_steps, trace_table_hops, GlobalLink};
use crate::vc::Vc;

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
    /// Per source node: the first-departure adapters its table paths use,
    /// with the VC requested there.
    departs: Vec<Vec<(ChanId, Vc)>>,
    /// Per destination node: the terminal arrival adapters, with the T-VC
    /// of the arrival and the M-VC the delivery runs at.
    arrivals: Vec<Vec<(ChanId, Vc, Vc)>>,
}

impl TableRouting {
    /// Wraps `table` (built for `cfg.shape`) as a routing function.
    ///
    /// Construction walks every `(src, dst)` pair once through the
    /// reference tracer to learn the adapter fan-in/fan-out of each node;
    /// the per-pair traces themselves are re-derived on demand.
    pub fn new(cfg: MachineConfig, table: RouteTable) -> TableRouting {
        let shape = cfg.shape;
        let slice = table.slice();
        let ep0 = LocalEndpointId(0);
        let n = shape.num_nodes();
        let mut departs: Vec<HashSet<(ChanId, Vc)>> = vec![HashSet::new(); n];
        let mut arrivals: Vec<HashSet<(ChanId, Vc, Vc)>> = vec![HashSet::new(); n];
        let mut crosses = |c, d| shape.hop_crosses_dateline(c, d);
        for src in shape.nodes() {
            for dst in shape.nodes() {
                if src == dst {
                    continue;
                }
                let Some(hops) = table.path(shape.id(src), shape.id(dst)) else {
                    continue;
                };
                let steps =
                    trace_table_hops(&cfg, src, Some(ep0), &hops, slice, Some(ep0), &mut crosses);
                for (link, vc) in &steps {
                    if let GlobalLink::Local {
                        link: LocalLink::RouterToChan(c),
                        ..
                    } = link
                    {
                        departs[shape.id(src).0 as usize].insert((*c, *vc));
                        break;
                    }
                }
                let m_final = steps.last().expect("trace is never empty").1;
                for (link, vc) in steps.iter().rev() {
                    if let GlobalLink::Local {
                        link: LocalLink::ChanToRouter(c),
                        ..
                    } = link
                    {
                        arrivals[shape.id(dst).0 as usize].insert((*c, *vc, m_final));
                        break;
                    }
                }
            }
        }
        let sort = |s: HashSet<(ChanId, Vc)>| {
            let mut v: Vec<_> = s.into_iter().collect();
            v.sort_by_key(|(c, vc)| (c.index(), vc.0));
            v
        };
        let sort3 = |s: HashSet<(ChanId, Vc, Vc)>| {
            let mut v: Vec<_> = s.into_iter().collect();
            v.sort_by_key(|(c, vc, m)| (c.index(), vc.0, m.0));
            v
        };
        TableRouting {
            cfg,
            table,
            departs: departs.into_iter().map(sort).collect(),
            arrivals: arrivals.into_iter().map(sort3).collect(),
        }
    }

    /// The wrapped table.
    pub fn table(&self) -> &RouteTable {
        &self.table
    }

    fn m0(&self) -> Vc {
        self.cfg.vc_policy.start().vc_for(LinkGroup::M)
    }

    fn ep_in(&self, node: NodeId, ep: LocalEndpointId) -> GlobalLink {
        GlobalLink::Local {
            node,
            link: LocalLink::EpToRouter(ep),
        }
    }

    /// The reference trace of the table path `src → dst` (endpoint 0 both
    /// ends), or `None` for a pair the table cannot reach.
    fn pair_trace(&self, src: NodeId, dst: NodeId) -> Option<Vec<(GlobalLink, Vc)>> {
        let shape = self.cfg.shape;
        let hops = self.table.path(src, dst)?;
        let ep0 = LocalEndpointId(0);
        let mut crosses = |c, d| shape.hop_crosses_dateline(c, d);
        Some(trace_table_hops(
            &self.cfg,
            shape.coord(src),
            Some(ep0),
            &hops,
            self.table.slice(),
            Some(ep0),
            &mut crosses,
        ))
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
        let m0 = self.m0();
        let ep0 = LocalEndpointId(0);
        let n = cfg.shape.num_nodes();
        let mut out = Vec::new();
        // Every (src, dst) table path, traced end to end.
        for src in 0..n {
            for dst in 0..n {
                if src == dst
                    || self
                        .table
                        .path(NodeId(src as u32), NodeId(dst as u32))
                        .is_none()
                {
                    continue;
                }
                let node = NodeId(src as u32);
                out.push(Arrival {
                    node,
                    link: self.ep_in(node, ep0),
                    vc: m0,
                    state: RouteState(TAG_PATH | ((src as u64) << 2) | ((dst as u64) << 22)),
                });
            }
        }
        // Injection / delivery mesh fans of every other endpoint, plus
        // node-local endpoint-pair deliveries.
        for nid in 0..n {
            let node = NodeId(nid as u32);
            for ep in cfg.chip.endpoints() {
                for idx in 0..self.departs[nid].len() {
                    out.push(Arrival {
                        node,
                        link: self.ep_in(node, ep),
                        vc: m0,
                        state: pack(TAG_INJ, nid as u64, u64::from(ep.0), idx as u64),
                    });
                }
                for idx in 0..self.arrivals[nid].len() {
                    let (arrive, tvc, _) = self.arrivals[nid][idx];
                    out.push(Arrival {
                        node,
                        link: GlobalLink::Local {
                            node,
                            link: LocalLink::ChanToRouter(arrive),
                        },
                        vc: tvc,
                        state: pack(TAG_DELIVER, nid as u64, u64::from(ep.0), idx as u64),
                    });
                }
                for ep2 in cfg.chip.endpoints() {
                    out.push(Arrival {
                        node,
                        link: self.ep_in(node, ep),
                        vc: m0,
                        state: pack(TAG_LOCAL, nid as u64, u64::from(ep.0), u64::from(ep2.0)),
                    });
                }
            }
        }
        out
    }

    fn transitions(&self, arrival: &Arrival) -> Vec<Progress> {
        let s = arrival.state.0;
        let chip = &self.cfg.chip;
        match s & 3 {
            TAG_PATH => {
                let src = NodeId(((s >> 2) & 0xfffff) as u32);
                let dst = NodeId(((s >> 22) & 0xfffff) as u32);
                let Some(steps) = self.pair_trace(src, dst) else {
                    return Vec::new();
                };
                // steps[0] is the injection buffer — the arrival itself.
                vec![Progress {
                    steps: steps[1..].to_vec(),
                    next: None,
                }]
            }
            TAG_INJ => {
                let nid = ((s >> 2) & 0xfffff) as usize;
                let ep = LocalEndpointId(((s >> 22) & 0xff) as u8);
                let (depart, tvc) = self.departs[nid][((s >> 30) & 0x3ff) as usize];
                let node = NodeId(nid as u32);
                let m0 = self.m0();
                let mut steps: Vec<_> = mesh_steps(
                    &self.cfg,
                    node,
                    chip.endpoint_router(ep),
                    chip.chan_router(depart),
                    m0,
                )
                .collect();
                steps.push((
                    GlobalLink::Local {
                        node,
                        link: LocalLink::RouterToChan(depart),
                    },
                    tvc,
                ));
                vec![Progress { steps, next: None }]
            }
            TAG_DELIVER => {
                let nid = ((s >> 2) & 0xfffff) as usize;
                let ep = LocalEndpointId(((s >> 22) & 0xff) as u8);
                let (arrive, _tvc, m) = self.arrivals[nid][((s >> 30) & 0x3ff) as usize];
                let node = NodeId(nid as u32);
                let mut steps: Vec<_> = mesh_steps(
                    &self.cfg,
                    node,
                    chip.chan_router(arrive),
                    chip.endpoint_router(ep),
                    m,
                )
                .collect();
                steps.push((
                    GlobalLink::Local {
                        node,
                        link: LocalLink::RouterToEp(ep),
                    },
                    m,
                ));
                vec![Progress { steps, next: None }]
            }
            _ => {
                let nid = ((s >> 2) & 0xfffff) as usize;
                let ep = LocalEndpointId(((s >> 22) & 0xff) as u8);
                let ep2 = LocalEndpointId(((s >> 30) & 0xff) as u8);
                let node = NodeId(nid as u32);
                let m0 = self.m0();
                let mut steps: Vec<_> = mesh_steps(
                    &self.cfg,
                    node,
                    chip.endpoint_router(ep),
                    chip.endpoint_router(ep2),
                    m0,
                )
                .collect();
                steps.push((
                    GlobalLink::Local {
                        node,
                        link: LocalLink::RouterToEp(ep2),
                    },
                    m0,
                ));
                vec![Progress { steps, next: None }]
            }
        }
    }

    fn witnesses(&self, wanted: &[DepEdge], max: usize) -> Vec<Option<ConcreteRoute>> {
        let mut out: Vec<Option<ConcreteRoute>> = vec![None; wanted.len()];
        if wanted.is_empty() || max == 0 {
            return out;
        }
        let shape = self.cfg.shape;
        let ep0 = LocalEndpointId(0);
        let mut found = 0usize;
        let budget = max.min(wanted.len());
        'pairs: for src in shape.nodes() {
            for dst in shape.nodes() {
                if src == dst {
                    continue;
                }
                let (s, d) = (shape.id(src), shape.id(dst));
                let Some(steps) = self.pair_trace(s, d) else {
                    continue;
                };
                let Some(hops) = self.table.path(s, d) else {
                    continue;
                };
                for w in steps.windows(2) {
                    let edge = (w[0], w[1]);
                    for (i, want) in wanted.iter().enumerate() {
                        if out[i].is_none() && *want == edge {
                            out[i] = Some(ConcreteRoute {
                                src: GlobalEndpoint { node: s, ep: ep0 },
                                dst: GlobalEndpoint { node: d, ep: ep0 },
                                path: RoutePath::Torus {
                                    hops: hops.clone(),
                                    slice: self.table.slice(),
                                },
                                holds: edge.0,
                                waits_for: edge.1,
                            });
                            found += 1;
                            if found >= budget {
                                break 'pairs;
                            }
                        }
                    }
                }
            }
        }
        out
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
        for root in rf.roots() {
            for prog in rf.transitions(&root) {
                assert!(prog.next.is_none());
                assert!(!prog.steps.is_empty());
            }
        }
    }
}
