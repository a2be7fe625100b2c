//! The enumerated Section 2.5 deadlock check: the route enumerator and its
//! cross-check against the symbolic certifier.
//!
//! [`enumerate_routes`] builds the VC dependency graph by tracing every
//! concrete route (all sources × destinations × the route distribution of
//! [`RouteSpec::minimal_routes`], the one the load analysis weighs) —
//! `O(N²)` traces for `N` nodes — where the symbolic engine ([`crate::certify`]
//! over [`DimOrderRouting`]) walks a handful of abstract states. Both write a
//! [`SymGraph`] over the machine's [`TorusTopology`] and read its one cycle
//! search; [`cross_check`] compares the two edge sets verbatim on small
//! machines.

use std::collections::HashSet;

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::{RoutingFunction, TorusTopology};
use anton_core::routing::RouteSpec;
use anton_core::trace::trace_unicast;

use crate::engine::build_routing_graph;
use crate::graph::{ChannelVc, SymGraph};

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

/// Builds the unicast VC dependency graph of `cfg` by enumeration: every
/// (source node, destination node, dimension order, slice, minimal
/// tie-break) combination, for `en`'s endpoints, traced through the
/// reference tracer, with each route's consecutive `(channel, VC)` hops
/// added as edges of a graph over `topo` (the topology of `cfg`).
pub fn enumerate_routes<'t>(
    topo: &'t TorusTopology,
    cfg: &MachineConfig,
    en: &RouteEnumeration,
) -> SymGraph<'t> {
    let vcs = DimOrderRouting::new(cfg.clone()).num_vcs();
    let mut graph = SymGraph::new(topo, vcs);
    let crosses = |n, d| cfg.shape.hop_crosses_dateline(n, d);
    for src_n in cfg.shape.nodes() {
        for dst_n in cfg.shape.nodes() {
            for spec in RouteSpec::minimal_routes(&cfg.shape, src_n, dst_n) {
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
                        for hop in steps.windows(2) {
                            graph.add_edge(hop[0], hop[1]);
                        }
                    }
                }
            }
        }
    }
    graph
}

/// Result of cross-checking the symbolic construction against the
/// route enumeration.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    /// Verdict of the symbolic graph.
    pub symbolic_acyclic: bool,
    /// Verdict of the enumerated graph.
    pub enumerated_acyclic: bool,
    /// Symbolic edge count (after dedup).
    pub symbolic_edges: usize,
    /// Enumerated edge count.
    pub enumerated_edges: usize,
    /// Every enumerated edge appears in the symbolic graph (must always
    /// hold — the enumeration samples endpoints, the symbolic graph covers
    /// all of them).
    pub enumerated_subset_of_symbolic: bool,
    /// The two edge sets are identical (expected exactly when `en`
    /// enumerates every endpoint).
    pub edges_equal: bool,
}

impl CrossCheck {
    /// Whether the two engines agree on the deadlock verdict.
    pub fn verdicts_agree(&self) -> bool {
        self.symbolic_acyclic == self.enumerated_acyclic
    }
}

/// Cross-checks the symbolic graph against [`enumerate_routes`] on the
/// same configuration.
pub fn cross_check(cfg: &MachineConfig, en: &RouteEnumeration) -> CrossCheck {
    let topo = TorusTopology::new(cfg);
    let rf = DimOrderRouting::new(cfg.clone());
    let mut diags = Vec::new();
    let g = build_routing_graph(&topo, &[&rf], &mut diags);
    debug_assert!(diags.is_empty(), "{diags:?}");
    let sym: HashSet<(ChannelVc, ChannelVc)> = g.edges().collect();
    let enumerated = enumerate_routes(&topo, cfg, en);
    let enu: HashSet<(ChannelVc, ChannelVc)> = enumerated.edges().collect();
    CrossCheck {
        symbolic_acyclic: g.find_cycle().is_none(),
        enumerated_acyclic: enumerated.find_cycle().is_none(),
        symbolic_edges: sym.len(),
        enumerated_edges: enu.len(),
        enumerated_subset_of_symbolic: enu.is_subset(&sym),
        edges_equal: sym == enu,
    }
}

/// A [`RouteEnumeration`] covering every endpoint — makes the enumerated
/// graph exactly the full unicast dependency graph, so
/// [`cross_check`] must report `edges_equal` (only tractable on tiny tori).
pub fn full_enumeration(cfg: &MachineConfig) -> RouteEnumeration {
    let eps: Vec<u8> = (0..cfg.chip.num_endpoints()).collect();
    RouteEnumeration {
        src_endpoints: eps.clone(),
        dst_endpoints: eps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::{LocalLink, MeshCoord, MeshDir};
    use anton_core::topology::{NodeId, TorusShape};
    use anton_core::trace::GlobalLink;
    use anton_core::vc::{Vc, VcPolicy};

    fn quick_enum() -> RouteEnumeration {
        RouteEnumeration {
            src_endpoints: vec![0],
            dst_endpoints: vec![15],
        }
    }

    /// Enumerates `cfg`'s routes and hands the graph to `check`.
    fn with_graph<R>(cfg: &MachineConfig, check: impl FnOnce(&SymGraph) -> R) -> R {
        let topo = TorusTopology::new(cfg);
        check(&enumerate_routes(&topo, cfg, &quick_enum()))
    }

    fn cube(k: u8, policy: VcPolicy) -> MachineConfig {
        let mut cfg = MachineConfig::new(TorusShape::cube(k));
        cfg.vc_policy = policy;
        cfg
    }

    #[test]
    fn anton_policy_acyclic_small_tori() {
        for k in [2u8, 3, 4] {
            with_graph(&cube(k, VcPolicy::Anton), |g| {
                assert!(g.num_live_nodes() > 0);
                assert!(
                    g.find_cycle().is_none(),
                    "Anton policy produced a VC dependency cycle on k={k}"
                );
            });
        }
    }

    #[test]
    fn baseline_policy_acyclic() {
        with_graph(&cube(4, VcPolicy::Baseline2n), |g| {
            assert!(
                g.find_cycle().is_none(),
                "2n-VC baseline must be deadlock-free"
            );
        });
    }

    #[test]
    fn naive_single_vc_has_cycle() {
        // The torus rings are unbroken with a single VC: a cycle must exist
        // for any ring long enough to route around (k >= 3).
        with_graph(&cube(4, VcPolicy::NaiveSingle), |g| {
            let cycle = g.find_cycle().expect("single-VC torus must deadlock");
            assert!(cycle.len() >= 2);
        });
    }

    #[test]
    fn naive_single_vc_cyclic_even_on_k2() {
        // Even with k=2 (no ring long enough to wrap), a single VC is
        // unsafe in a *unified* network: M-group mesh channels are shared by
        // packets before and after their torus dimensions, so dependencies
        // M → T_x → M → T_y → ... → M close cycles through the mesh. This is
        // exactly why the promotion algorithm advances the M-group VC once
        // per dimension.
        with_graph(&cube(2, VcPolicy::NaiveSingle), |g| {
            assert!(g.find_cycle().is_some());
        });
    }

    #[test]
    fn single_dimension_machines_acyclic() {
        // Degenerate shapes (rings only in X) stay deadlock-free under the
        // promotion policy.
        let mut cfg = MachineConfig::new(TorusShape::new(8, 1, 1));
        cfg.vc_policy = VcPolicy::Anton;
        with_graph(&cfg, |g| assert!(g.find_cycle().is_none()));
    }

    #[test]
    fn rectangular_torus_acyclic() {
        let mut cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
        cfg.vc_policy = VcPolicy::Anton;
        with_graph(&cfg, |g| assert!(g.find_cycle().is_none()));
    }

    #[test]
    fn cycle_detector_finds_planted_cycle() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let topo = TorusTopology::new(&cfg);
        let mut g = SymGraph::new(&topo, 1);
        let mk = |i: u32| {
            (
                GlobalLink::Local {
                    node: NodeId(i),
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
        with_graph(&cube(2, VcPolicy::Anton), |g| {
            let nodes = g.num_live_nodes();
            let edges = g.num_edges();
            // 8 nodes x ~120 links x 4 VCs bounds the node count.
            assert!(nodes < 8 * 120 * 4, "{nodes} nodes");
            assert!(edges < nodes * 16, "{edges} edges");
        });
    }
}
