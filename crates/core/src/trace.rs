//! Link-level route tracing.
//!
//! Given a packet's routing decision, this module produces the exact
//! sequence of directed links (with the virtual channel requested on each)
//! the packet traverses through the whole machine — every on-chip mesh hop,
//! skip channel, adapter link, and torus channel. The trace is the reference
//! semantics of the network: the offline analyses (channel loads, arbiter
//! weights, VC dependency graphs) are computed from it, and the simulator's
//! incremental route computation is cross-checked against it in tests.
//!
//! A trace is a fold of one function, the chip traversal `leg`, over a
//! [`RouteSpec`]'s torus hops — an oblivious route's or a degraded table's; the certifier's routing functions
//! ([`dimorder`](crate::dimorder), [`table_routing`](crate::table_routing))
//! assemble their transitions from the same function, so what is certified
//! and what is traced are one program driven two ways.

use std::fmt;

use crate::chip::{ChanId, LinkGroup, LocalAttach, LocalEndpointId, LocalLink};
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::multicast::McGroup;
use crate::routing::RouteSpec;
use crate::topology::{Dim, NodeCoord, NodeId, Slice, TorusDir};
use crate::vc::{Vc, VcState};

/// A directed link anywhere in the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GlobalLink {
    /// An on-chip link of one node.
    Local {
        /// The node containing the link.
        node: NodeId,
        /// The link within the node.
        link: LocalLink,
    },
    /// A torus channel leaving `from` in direction `dir` on `slice`.
    Torus {
        /// Node the channel departs from.
        from: NodeId,
        /// Departing direction.
        dir: TorusDir,
        /// Torus slice.
        slice: Slice,
    },
    /// A point-to-point inter-node channel of a non-torus topology (e.g. one
    /// spoke of a full mesh).
    Direct {
        /// Node the channel departs from.
        from: NodeId,
        /// Node the channel arrives at.
        to: NodeId,
    },
}

impl GlobalLink {
    /// The deadlock-analysis group of the link (inter-node channels are
    /// T-group).
    #[inline]
    pub fn group(&self) -> LinkGroup {
        match self {
            GlobalLink::Local { link, .. } => link.group(),
            GlobalLink::Torus { .. } | GlobalLink::Direct { .. } => LinkGroup::T,
        }
    }
}

impl fmt::Display for GlobalLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalLink::Local { node, link } => write!(f, "{node}/{link}"),
            GlobalLink::Torus { from, dir, slice } => write!(f, "{from}/{dir}{slice}"),
            GlobalLink::Direct { from, to } => write!(f, "{from}->{to}"),
        }
    }
}

/// One step of a traced route: the link taken and the VC requested on it.
pub type TraceStep = (GlobalLink, Vc);

/// Traces the complete link-level route of a unicast packet: from `src`'s
/// injection link, along `spec`'s torus hops, to `dst`'s ejection link.
///
/// `crosses_dateline` is the dateline rule, normally
/// [`TorusShape::hop_crosses_dateline`](crate::topology::TorusShape::hop_crosses_dateline);
/// the static verifier passes a hypothetical one (e.g. datelines disabled)
/// to re-trace its counterexamples.
///
/// # Panics
///
/// Panics if `spec` does not route from `src`'s node to `dst`'s node.
pub fn trace_unicast(
    cfg: &MachineConfig,
    src: GlobalEndpoint,
    dst: GlobalEndpoint,
    spec: &RouteSpec,
    crosses_dateline: &dyn Fn(NodeCoord, TorusDir) -> bool,
) -> Vec<TraceStep> {
    // Room for the two chip traversals at the ends and a few hops: most
    // routes never regrow it.
    let mut steps = Vec::with_capacity(32);
    trace_legs(cfg, src, spec, Some(dst.ep), crosses_dateline, &mut steps);
    assert!(
        matches!(steps.last(), Some((GlobalLink::Local { node, .. }, _)) if *node == dst.node),
        "route spec does not reach destination"
    );
    steps
}

/// Traces every root→leaf path of a multicast tree (one trace per delivered
/// endpoint copy). Shared prefix links appear in multiple traces.
pub fn trace_multicast(
    cfg: &MachineConfig,
    src: GlobalEndpoint,
    group: &McGroup,
) -> Vec<Vec<TraceStep>> {
    let shape = cfg.shape;
    let crosses = |n, d| shape.hop_crosses_dateline(n, d);
    let mut out = Vec::new();
    for tree in &group.trees {
        assert_eq!(
            tree.src,
            shape.coord(src.node),
            "multicast tree rooted elsewhere"
        );
        let walk = tree.traverse(&shape);
        for (leaf, hops) in &walk.paths {
            let entry = tree.entry(shape.id(*leaf)).expect("leaf has an entry");
            let spec = RouteSpec::from_hops(&shape, tree.slice, hops)
                .expect("a tree path is a dimension-order route");
            for ep in &entry.local {
                let mut steps = Vec::with_capacity(32);
                trace_legs(cfg, src, &spec, Some(*ep), &crosses, &mut steps);
                out.push(steps);
            }
        }
    }
    out
}

/// A route as a fold of [`leg`]s over its torus hops: one chip traversal per
/// hop, from the buffer the last one ended in, and a delivering one to
/// `final_ep` at the end — or none, leaving the packet in the last arrival
/// adapter's buffer. Pushes the steps to `steps`, the injection buffer
/// first, and returns the VC state past the last of them.
pub(crate) fn trace_legs(
    cfg: &MachineConfig,
    src: GlobalEndpoint,
    spec: &RouteSpec,
    final_ep: Option<LocalEndpointId>,
    crosses_dateline: &dyn Fn(NodeCoord, TorusDir) -> bool,
    steps: &mut Vec<TraceStep>,
) -> VcState {
    let mut vc = cfg.vc_policy.start();
    let mut node = cfg.shape.coord(src.node);
    let mut entry = LocalLink::EpToRouter(src.ep);
    let inject = GlobalLink::Local {
        node: src.node,
        link: entry,
    };
    steps.push((inject, vc.vc_for(LinkGroup::M)));
    let slice = spec.slice;
    for (_, dir) in spec.walk(&cfg.shape, node) {
        let exit = LocalAttach::Chan(ChanId { dir, slice });
        let crosses = crosses_dateline(node, dir);
        node = leg(cfg, node, entry, exit, crosses, &mut vc, steps);
        entry = LocalLink::ChanToRouter(ChanId {
            dir: dir.opposite(),
            slice,
        });
    }
    if let Some(ep) = final_ep {
        let exit = LocalAttach::Endpoint(ep);
        leg(cfg, node, entry, exit, false, &mut vc, steps);
    }
    vc
}

/// One chip traversal of the route program, the unit every route is made
/// of: a packet holding the buffer `entry` at node `at` (an injection link,
/// or the link in from the adapter it arrived on) crosses the chip to
/// `exit` — its destination endpoint, or the adapter it departs on, in
/// which case it also takes the torus link behind it (`crosses` a dateline
/// or not) into the neighbor's adapter. Pushes the `(link, VC)` requested
/// at each step after `entry`, advances `vc` past them and returns the node
/// the packet now stands at.
///
/// The dimension boundary is [`VcState::turn`] and every on-chip port
/// [`ChipLayout::next_attach`](crate::chip::ChipLayout::next_attach), so the
/// tracer, [`DimOrderRouting`](crate::dimorder::DimOrderRouting) and
/// [`TableRouting`](crate::table_routing::TableRouting) — and the simulator,
/// which calls the same two functions from its adapters and routers — cannot
/// drift apart.
pub(crate) fn leg(
    cfg: &MachineConfig,
    at: NodeCoord,
    entry: LocalLink,
    exit: LocalAttach,
    crosses: bool,
    vc: &mut VcState,
    steps: &mut Vec<TraceStep>,
) -> NodeCoord {
    let node = cfg.shape.id(at);
    let arrived = match entry {
        LocalLink::ChanToRouter(c) => Some(c.dir.opposite()),
        _ => None,
    };
    let depart = match exit {
        LocalAttach::Chan(c) => Some(c),
        _ => None,
    };
    vc.turn(arrived, depart.map(|c| c.dir));
    let arrived_x = arrived.is_some_and(|d| d.dim == Dim::X);
    let mut here = cfg.chip.link_routers(entry).1;
    loop {
        let attach = cfg.chip.next_attach(here, exit, arrived_x);
        let link = match attach {
            LocalAttach::Mesh(dir) => LocalLink::Mesh { from: here, dir },
            LocalAttach::Skip => LocalLink::Skip { from: here },
            LocalAttach::Chan(c) => LocalLink::RouterToChan(c),
            LocalAttach::Endpoint(e) => LocalLink::RouterToEp(e),
        };
        steps.push((GlobalLink::Local { node, link }, vc.vc_for(link.group())));
        if attach == exit {
            break;
        }
        here = cfg.chip.link_routers(link).1;
    }
    let Some(ChanId { dir, slice }) = depart else {
        return at;
    };
    let tvc = vc.torus_hop(crosses);
    steps.push((
        GlobalLink::Torus {
            from: node,
            dir,
            slice,
        },
        tvc,
    ));
    let next = cfg.shape.neighbor(at, dir);
    let link = LocalLink::ChanToRouter(ChanId {
        dir: dir.opposite(),
        slice,
    });
    let node = cfg.shape.id(next);
    steps.push((GlobalLink::Local { node, link }, tvc));
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::DimOrder;
    use crate::topology::{Sign, TorusShape};
    use crate::vc::VcPolicy;

    fn cfg(k: u8) -> MachineConfig {
        MachineConfig::new(TorusShape::cube(k))
    }

    /// A unicast trace under the machine's datelines.
    fn trace(
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        dst: GlobalEndpoint,
        spec: &RouteSpec,
    ) -> Vec<TraceStep> {
        trace_unicast(cfg, src, dst, spec, &|n, d| {
            cfg.shape.hop_crosses_dateline(n, d)
        })
    }

    fn ep(cfg: &MachineConfig, node: NodeCoord, e: u8) -> GlobalEndpoint {
        GlobalEndpoint {
            node: cfg.shape.id(node),
            ep: LocalEndpointId(e),
        }
    }

    #[test]
    fn x_through_uses_skip_channel() {
        let cfg = cfg(4);
        let src = ep(&cfg, NodeCoord::new(0, 0, 0), 0);
        let dst = ep(&cfg, NodeCoord::new(2, 0, 0), 0);
        let spec = RouteSpec::deterministic(
            &cfg.shape,
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(2, 0, 0),
            DimOrder::XYZ,
            Slice(1),
        );
        let steps = trace(&cfg, src, dst, &spec);
        let skips = steps
            .iter()
            .filter(|(l, _)| {
                matches!(
                    l,
                    GlobalLink::Local {
                        link: LocalLink::Skip { .. },
                        ..
                    }
                )
            })
            .count();
        // One intermediate node on the X through-route -> one skip traversal.
        assert_eq!(skips, 1);
    }

    #[test]
    fn yz_through_crosses_single_router() {
        // A through Y packet must not use any mesh links at intermediate
        // nodes: arrival and departure adapters share a router.
        let cfg = cfg(4);
        let src = ep(&cfg, NodeCoord::new(0, 0, 0), 0);
        let dst = ep(&cfg, NodeCoord::new(0, 2, 0), 0);
        let spec = RouteSpec::deterministic(
            &cfg.shape,
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(0, 2, 0),
            DimOrder::XYZ,
            Slice(0),
        );
        let steps = trace(&cfg, src, dst, &spec);
        let mid = cfg.shape.id(NodeCoord::new(0, 1, 0));
        let mesh_at_mid = steps
            .iter()
            .filter(|(l, _)| {
                matches!(l, GlobalLink::Local { node, link: LocalLink::Mesh { .. } } if *node == mid)
            })
            .count();
        assert_eq!(mesh_at_mid, 0);
    }

    #[test]
    fn vcs_never_exceed_policy_budget() {
        let mut cfg = cfg(4);
        for policy in [VcPolicy::Anton, VcPolicy::Baseline2n] {
            cfg.vc_policy = policy;
            for src_n in cfg.shape.nodes() {
                for dst_n in cfg.shape.nodes() {
                    for order in DimOrder::ALL {
                        let spec =
                            RouteSpec::deterministic(&cfg.shape, src_n, dst_n, order, Slice(0));
                        let steps = trace(&cfg, ep(&cfg, src_n, 0), ep(&cfg, dst_n, 5), &spec);
                        for (link, vc) in steps {
                            let budget = policy.num_vcs(link.group());
                            assert!(
                                vc.0 < budget,
                                "{policy}: vc {vc} on {link} exceeds budget {budget}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_alternates_m_and_t_phases() {
        let cfg = cfg(4);
        let src = ep(&cfg, NodeCoord::new(0, 0, 0), 2);
        let dst = ep(&cfg, NodeCoord::new(1, 1, 1), 7);
        let spec = RouteSpec::deterministic(
            &cfg.shape,
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 1, 1),
            DimOrder::XYZ,
            Slice(0),
        );
        let steps = trace(&cfg, src, dst, &spec);
        // Phases: M (inject + mesh), then T/M alternation, ending in M.
        let groups: Vec<LinkGroup> = steps.iter().map(|(l, _)| l.group()).collect();
        assert_eq!(*groups.first().unwrap(), LinkGroup::M);
        assert_eq!(*groups.last().unwrap(), LinkGroup::M);
        let mut phases = 1;
        for w in groups.windows(2) {
            if w[0] != w[1] {
                phases += 1;
            }
        }
        // 3 dimensions -> at most M,T,M,T,M,T,M = 7 phases.
        assert!(phases <= 7, "got {phases} phases");
    }

    #[test]
    fn intra_node_route_stays_on_vc0_mesh() {
        let cfg = cfg(4);
        let n = NodeCoord::new(2, 2, 2);
        let steps = trace(
            &cfg,
            ep(&cfg, n, 0),
            ep(&cfg, n, 15),
            &RouteSpec::deterministic(&cfg.shape, n, n, DimOrder::XYZ, Slice(0)),
        );
        for (link, vc) in steps {
            assert_eq!(link.group(), LinkGroup::M);
            assert_eq!(vc, Vc(0));
        }
    }

    #[test]
    fn dateline_hop_bumps_torus_vc() {
        let cfg = cfg(4);
        let src_n = NodeCoord::new(3, 0, 0);
        let dst_n = NodeCoord::new(1, 0, 0); // +X route crossing 3 -> 0
        let spec = RouteSpec::deterministic(&cfg.shape, src_n, dst_n, DimOrder::XYZ, Slice(0));
        assert_eq!(spec.hops(), [TorusDir::new(Dim::X, Sign::Plus); 2]);
        let steps = trace(&cfg, ep(&cfg, src_n, 0), ep(&cfg, dst_n, 0), &spec);
        let torus_vcs: Vec<Vc> = steps
            .iter()
            .filter(|(l, _)| matches!(l, GlobalLink::Torus { .. }))
            .map(|(_, vc)| *vc)
            .collect();
        // First hop crosses the dateline (3 -> 0): vc 1; second hop keeps it.
        assert_eq!(torus_vcs, vec![Vc(1), Vc(1)]);
        // Final ejection is on M vc 1 (crossed, so no further promotion).
        let (last, vc) = steps.last().unwrap();
        assert!(matches!(
            last,
            GlobalLink::Local {
                link: LocalLink::RouterToEp(_),
                ..
            }
        ));
        assert_eq!(*vc, Vc(1));
    }
}
