//! Full-mesh topology with VC-free routing — the first non-torus instance
//! of the [`Topology`]/[`RoutingFunction`] trait layer.
//!
//! Every node has one endpoint and a dedicated point-to-point channel
//! ([`GlobalLink::Direct`]) to every other node. With single-hop routing
//! ([`MeshRule::Direct`]) no channel dependency ever chains through a second
//! inter-node channel, so the route set is provably deadlock-free with **zero
//! virtual channels** (a single VC 0 and an acyclic dependency graph) — the
//! HOTI'25-style result the certifier must reproduce. [`MeshRule::Ring`]
//! deliberately forwards every packet the long way around a logical ring of
//! direct channels, creating an N-edge dependency cycle the certifier must
//! catch and witness.

use crate::chip::{LocalEndpointId, LocalLink};
use crate::net::{Arrival, RouteState, RoutingFunction, Step, Topology, Transitions};
use crate::topology::NodeId;
use crate::trace::GlobalLink;
use crate::vc::Vc;

/// A fully connected topology: `nodes` nodes, one endpoint each, and a
/// dedicated [`GlobalLink::Direct`] channel per ordered node pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullMesh {
    nodes: usize,
}

/// Per-node slot layout: injection buffer, delivery buffer, then one slot
/// per outgoing direct channel (indexed by destination node).
const MESH_EP_IN: usize = 0;
const MESH_EP_OUT: usize = 1;
const MESH_DIRECT_BASE: usize = 2;

impl FullMesh {
    /// A full mesh over `nodes` nodes. Panics if `nodes < 2`.
    pub fn new(nodes: usize) -> FullMesh {
        assert!(nodes >= 2, "a mesh needs at least two nodes");
        FullMesh { nodes }
    }
}

impl Topology for FullMesh {
    fn describe(&self) -> String {
        format!("{}-node full mesh", self.nodes)
    }

    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn slots_per_node(&self) -> usize {
        MESH_DIRECT_BASE + self.nodes
    }

    fn slot(&self, link: &GlobalLink) -> Option<(usize, usize)> {
        match link {
            GlobalLink::Local { node, link } => {
                let n = node.0 as usize;
                if n >= self.nodes {
                    return None;
                }
                match link {
                    LocalLink::EpToRouter(e) if e.0 == 0 => Some((n, MESH_EP_IN)),
                    LocalLink::RouterToEp(e) if e.0 == 0 => Some((n, MESH_EP_OUT)),
                    _ => None,
                }
            }
            GlobalLink::Direct { from, to } => {
                let (f, t) = (from.0 as usize, to.0 as usize);
                if f < self.nodes && t < self.nodes && f != t {
                    Some((f, MESH_DIRECT_BASE + t))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn link_at(&self, node: usize, slot: usize) -> Option<GlobalLink> {
        if node >= self.nodes {
            return None;
        }
        let nid = NodeId(node as u32);
        match slot {
            MESH_EP_IN => Some(GlobalLink::Local {
                node: nid,
                link: LocalLink::EpToRouter(LocalEndpointId(0)),
            }),
            MESH_EP_OUT => Some(GlobalLink::Local {
                node: nid,
                link: LocalLink::RouterToEp(LocalEndpointId(0)),
            }),
            s if s >= MESH_DIRECT_BASE && s < MESH_DIRECT_BASE + self.nodes => {
                let to = s - MESH_DIRECT_BASE;
                if to == node {
                    None
                } else {
                    Some(GlobalLink::Direct {
                        from: nid,
                        to: NodeId(to as u32),
                    })
                }
            }
            _ => None,
        }
    }
}

/// How [`MeshRouting`] forwards a packet between mesh nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshRule {
    /// One hop on the dedicated source→destination channel. Deadlock-free
    /// with zero VCs: no inter-node channel ever waits on another.
    Direct,
    /// Forward around the logical ring `0 → 1 → … → N−1 → 0` until the
    /// destination is reached. Deliberately cyclic: the direct channels
    /// `i → i+1` form an N-edge dependency cycle.
    Ring,
}

impl std::fmt::Display for MeshRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeshRule::Direct => write!(f, "direct"),
            MeshRule::Ring => write!(f, "ring"),
        }
    }
}

/// VC-free routing over a [`FullMesh`]: every route runs entirely on VC 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshRouting {
    nodes: usize,
    rule: MeshRule,
}

impl MeshRouting {
    /// Routing over an `nodes`-node full mesh under `rule`.
    pub fn new(nodes: usize, rule: MeshRule) -> MeshRouting {
        assert!(nodes >= 2, "a mesh needs at least two nodes");
        MeshRouting { nodes, rule }
    }

    fn pair_state(src: usize, dst: usize) -> RouteState {
        RouteState(((src as u64) << 32) | dst as u64)
    }

    /// The ordered node sequence of the route `src → dst` under this rule.
    fn route_nodes(&self, src: usize, dst: usize) -> Vec<NodeId> {
        let mut nodes = vec![NodeId(src as u32)];
        match self.rule {
            MeshRule::Direct => nodes.push(NodeId(dst as u32)),
            MeshRule::Ring => {
                let mut cur = src;
                while cur != dst {
                    cur = (cur + 1) % self.nodes;
                    nodes.push(NodeId(cur as u32));
                }
            }
        }
        nodes
    }

    /// Pushes the full link chain of the route `src → dst` to `steps`, all
    /// at VC 0.
    fn route_steps(&self, src: usize, dst: usize, steps: &mut Vec<Step>) {
        let topo = FullMesh::new(self.nodes);
        let mut step = |link| steps.push((topo.index(&link).expect("a mesh link"), Vc(0)));
        let path = self.route_nodes(src, dst);
        for w in path.windows(2) {
            step(GlobalLink::Direct {
                from: w[0],
                to: w[1],
            });
        }
        step(GlobalLink::Local {
            node: NodeId(dst as u32),
            link: LocalLink::RouterToEp(LocalEndpointId(0)),
        });
    }
}

impl RoutingFunction for MeshRouting {
    fn describe(&self) -> String {
        format!("{} mesh routing, zero VCs", self.rule)
    }

    fn num_vcs(&self) -> usize {
        1
    }

    fn roots(&self) -> Vec<Arrival> {
        let topo = FullMesh::new(self.nodes);
        let mut out = Vec::new();
        for src in 0..self.nodes {
            for dst in 0..self.nodes {
                if src == dst {
                    continue;
                }
                let inject = GlobalLink::Local {
                    node: NodeId(src as u32),
                    link: LocalLink::EpToRouter(LocalEndpointId(0)),
                };
                out.push(Arrival {
                    node: NodeId(src as u32),
                    link: topo.index(&inject).expect("a mesh link"),
                    vc: Vc(0),
                    state: Self::pair_state(src, dst),
                });
            }
        }
        out
    }

    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let src = (arrival.state.0 >> 32) as usize;
        let dst = (arrival.state.0 & 0xffff_ffff) as usize;
        if src >= self.nodes || dst >= self.nodes || src == dst {
            return;
        }
        self.route_steps(src, dst, out.steps_mut());
        out.end(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_slots_round_trip() {
        let topo = FullMesh::new(5);
        for node in 0..5 {
            for slot in 0..topo.slots_per_node() {
                if let Some(link) = topo.link_at(node, slot) {
                    assert_eq!(topo.slot(&link), Some((node, slot)));
                }
            }
        }
        // The self-channel slot is the only hole.
        assert!(topo.link_at(2, MESH_DIRECT_BASE + 2).is_none());
    }

    #[test]
    fn direct_routes_are_single_hop() {
        let rf = MeshRouting::new(4, MeshRule::Direct);
        assert_eq!(rf.roots().len(), 12);
        let mut progs = Transitions::default();
        for root in rf.roots() {
            progs.clear();
            rf.transitions(&root, &mut progs);
            assert_eq!(progs.len(), 1);
            // one direct channel + delivery, all VC 0
            let prog = progs.get(0);
            assert_eq!(prog.steps.len(), 2);
            assert!(prog.steps.iter().all(|(_, vc)| *vc == Vc(0)));
            assert!(prog.next.is_none());
        }
    }

    #[test]
    fn ring_routes_walk_the_ring() {
        let rf = MeshRouting::new(4, MeshRule::Ring);
        let nodes = rf.route_nodes(3, 1);
        assert_eq!(nodes, vec![NodeId(3), NodeId(0), NodeId(1)]);
    }
}
