//! Virtual-channel dependency graphs and deadlock checking (Section 2.5).
//!
//! The network is deadlock-free iff the dependency graph between
//! `(channel, VC)` pairs is acyclic within each traffic class. A dependency
//! `a → b` exists when some packet can hold `a` while waiting for `b`, i.e.
//! when `a` and `b` are consecutive in some route. This module enumerates
//! every unicast route (all sources × destinations × dimension orders ×
//! slices × minimal tie-breaks) through the reference tracer and checks the
//! resulting graph for cycles.

use std::collections::HashMap;

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::routing::{DimOrder, RouteSpec};
use anton_core::topology::{Dim, Slice};
use anton_core::trace::{trace_unicast, GlobalLink};
use anton_core::vc::Vc;

/// A node of the dependency graph: a directed channel and a VC on it.
pub type ChannelVc = (GlobalLink, Vc);

/// A VC dependency graph.
#[derive(Debug, Default)]
pub struct DepGraph {
    index: HashMap<ChannelVc, usize>,
    nodes: Vec<ChannelVc>,
    edges: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    fn node(&mut self, cv: ChannelVc) -> usize {
        if let Some(&i) = self.index.get(&cv) {
            return i;
        }
        let i = self.nodes.len();
        self.index.insert(cv, i);
        self.nodes.push(cv);
        self.edges.push(Vec::new());
        i
    }

    /// Adds a dependency edge `from → to` (idempotent).
    pub fn add_edge(&mut self, from: ChannelVc, to: ChannelVc) {
        let f = self.node(from);
        let t = self.node(to);
        if !self.edges[f].contains(&t) {
            self.edges[f].push(t);
        }
    }

    /// Adds the consecutive-hop dependencies of one traced route.
    pub fn add_route(&mut self, steps: &[(GlobalLink, Vc)]) {
        for pair in steps.windows(2) {
            self.add_edge(pair[0], pair[1]);
        }
    }

    /// Number of `(channel, VC)` nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Iterates every dependency edge as a `(from, to)` pair of
    /// `(channel, VC)` nodes. Used by the static verifier's cross-check to
    /// compare this enumerated graph against the symbolic construction.
    pub fn edges(&self) -> impl Iterator<Item = (ChannelVc, ChannelVc)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(move |(f, tos)| tos.iter().map(move |&t| (self.nodes[f], self.nodes[t])))
    }

    /// Finds a dependency cycle, if one exists, returned as the sequence of
    /// `(channel, VC)` nodes around the cycle.
    pub fn find_cycle(&self) -> Option<Vec<ChannelVc>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.nodes.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![usize::MAX; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS: stack of (node, next edge index).
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
                if *ei < self.edges[u].len() {
                    let v = self.edges[u][*ei];
                    *ei += 1;
                    match color[v] {
                        Color::White => {
                            color[v] = Color::Gray;
                            parent[v] = u;
                            stack.push((v, 0));
                        }
                        Color::Gray => {
                            // Cycle found: walk parents from u back to v.
                            let mut cycle = vec![self.nodes[v]];
                            let mut cur = u;
                            while cur != v {
                                cycle.push(self.nodes[cur]);
                                cur = parent[cur];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Which endpoints to include when enumerating routes (on-chip segments
/// depend on endpoint placement; a small sample keeps the enumeration
/// tractable without losing any mesh-segment shape).
#[derive(Debug, Clone)]
pub struct RouteEnumeration {
    /// Source endpoints per node to enumerate.
    pub src_endpoints: Vec<u8>,
    /// Destination endpoints per node to enumerate.
    pub dst_endpoints: Vec<u8>,
}

impl Default for RouteEnumeration {
    fn default() -> RouteEnumeration {
        // Corner and interior routers cover every mesh-segment shape.
        RouteEnumeration {
            src_endpoints: vec![0, 5, 15],
            dst_endpoints: vec![0, 10, 15],
        }
    }
}

/// Builds the full unicast VC dependency graph of a machine configuration.
///
/// Enumerates every (source node, destination node, dimension order, slice,
/// minimal tie-break) combination through the reference tracer.
pub fn build_unicast_dep_graph(cfg: &MachineConfig, en: &RouteEnumeration) -> DepGraph {
    let mut graph = DepGraph::new();
    let crosses = |n, d| cfg.shape.hop_crosses_dateline(n, d);
    for src_n in cfg.shape.nodes() {
        for dst_n in cfg.shape.nodes() {
            // Enumerate tie combinations exactly.
            let choices: Vec<Vec<i32>> = Dim::ALL
                .iter()
                .map(|d| cfg.shape.minimal_offset_choices(*d, src_n, dst_n))
                .collect();
            let num_combos: usize = choices.iter().map(Vec::len).product();
            for order in DimOrder::ALL {
                for slice in Slice::ALL {
                    for combo in 0..num_combos {
                        let mut idx = combo;
                        let mut offsets = [0i32; 3];
                        for (d, ch) in choices.iter().enumerate() {
                            offsets[d] = ch[idx % ch.len()];
                            idx /= ch.len();
                        }
                        let spec = RouteSpec::new(order, slice, offsets);
                        for &se in &en.src_endpoints {
                            for &de in &en.dst_endpoints {
                                let src = GlobalEndpoint {
                                    node: cfg.shape.id(src_n),
                                    ep: LocalEndpointId(se),
                                };
                                let dst = GlobalEndpoint {
                                    node: cfg.shape.id(dst_n),
                                    ep: LocalEndpointId(de),
                                };
                                let steps = trace_unicast(cfg, src, dst, &spec, &crosses);
                                graph.add_route(&steps);
                            }
                        }
                    }
                }
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::topology::TorusShape;
    use anton_core::vc::VcPolicy;

    fn quick_enum() -> RouteEnumeration {
        RouteEnumeration {
            src_endpoints: vec![0],
            dst_endpoints: vec![15],
        }
    }

    fn graph_for(k: u8, policy: VcPolicy) -> DepGraph {
        let mut cfg = MachineConfig::new(TorusShape::cube(k));
        cfg.vc_policy = policy;
        build_unicast_dep_graph(&cfg, &quick_enum())
    }

    #[test]
    fn anton_policy_acyclic_small_tori() {
        for k in [2u8, 3, 4] {
            let g = graph_for(k, VcPolicy::Anton);
            assert!(g.num_nodes() > 0);
            assert!(
                g.find_cycle().is_none(),
                "Anton policy produced a VC dependency cycle on k={k}"
            );
        }
    }

    #[test]
    fn baseline_policy_acyclic() {
        let g = graph_for(4, VcPolicy::Baseline2n);
        assert!(
            g.find_cycle().is_none(),
            "2n-VC baseline must be deadlock-free"
        );
    }

    #[test]
    fn naive_single_vc_has_cycle() {
        // The torus rings are unbroken with a single VC: a cycle must exist
        // for any ring long enough to route around (k >= 3).
        let g = graph_for(4, VcPolicy::NaiveSingle);
        let cycle = g.find_cycle().expect("single-VC torus must deadlock");
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn naive_single_vc_cyclic_even_on_k2() {
        // Even with k=2 (no ring long enough to wrap), a single VC is
        // unsafe in a *unified* network: M-group mesh channels are shared by
        // packets before and after their torus dimensions, so dependencies
        // M → T_x → M → T_y → ... → M close cycles through the mesh. This is
        // exactly why the promotion algorithm advances the M-group VC once
        // per dimension.
        let g = graph_for(2, VcPolicy::NaiveSingle);
        assert!(g.find_cycle().is_some());
    }

    #[test]
    fn single_dimension_machines_acyclic() {
        // Degenerate shapes (rings only in X) stay deadlock-free under the
        // promotion policy.
        let mut cfg = MachineConfig::new(TorusShape::new(8, 1, 1));
        cfg.vc_policy = VcPolicy::Anton;
        let g = build_unicast_dep_graph(&cfg, &quick_enum());
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn rectangular_torus_acyclic() {
        let mut cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
        cfg.vc_policy = VcPolicy::Anton;
        let g = build_unicast_dep_graph(&cfg, &quick_enum());
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn cycle_detector_finds_planted_cycle() {
        use anton_core::chip::LocalLink;
        use anton_core::chip::MeshCoord;
        use anton_core::chip::MeshDir;
        use anton_core::topology::NodeId;
        let mut g = DepGraph::new();
        let mk = |i: u8| {
            (
                GlobalLink::Local {
                    node: NodeId(u32::from(i)),
                    link: LocalLink::Mesh {
                        from: MeshCoord::new(0, 0),
                        dir: MeshDir::UPlus,
                    },
                },
                Vc(0),
            )
        };
        g.add_edge(mk(0), mk(1));
        g.add_edge(mk(1), mk(2));
        g.add_edge(mk(2), mk(0));
        g.add_edge(mk(2), mk(3));
        let cycle = g.find_cycle().expect("planted cycle");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn dedup_keeps_graph_bounded() {
        let g = graph_for(2, VcPolicy::Anton);
        let nodes = g.num_nodes();
        let edges = g.num_edges();
        // 8 nodes x ~120 links x 4 VCs bounds the node count.
        assert!(nodes < 8 * 120 * 4, "{nodes} nodes");
        assert!(edges < nodes * 16, "{edges} edges");
    }
}
