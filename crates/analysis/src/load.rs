//! Expected channel loads (Section 3.1).
//!
//! The load on a network resource is the sum over sources of the expected
//! number of packets per unit time that use the resource. For the oblivious
//! Anton 2 routing, loads are computed exactly by enumerating each flow's
//! route distribution: 6 dimension orders × 2 slices, uniformly, and both
//! directions of any minimal-distance tie.
//!
//! Loads drive two things: the inverse arbiter weights (Section 3.3,
//! [`crate::weights`]) and the saturation-throughput normalization of the
//! Figure 9/10 experiments.
//!
//! Loads are stored in flat arrays over [`TorusTopology`]'s per-node slot
//! layout — the link numbering the deadlock certifier and the simulator's
//! wires use — so a traced step costs an index computation, not a hash,
//! the router ports a link joins are the topology's answer for its slot,
//! and translating a node-symmetric result is index arithmetic.

use anton_core::chip::{ChanId, LinkGroup, MAX_ROUTER_PORTS, NUM_ROUTERS};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::net::{LinkEnd, Topology, TorusTopology};
use anton_core::pattern::{offset_node, TrafficPattern};
use anton_core::routing::RouteSpec;
use anton_core::topology::NodeId;
use anton_core::trace::{trace_unicast, GlobalLink};
use anton_core::vc::Vc;

/// A router port as `(router index, port index)`.
type Port = (usize, usize);

/// Expected loads on every link and every router input→output flow, for one
/// traffic pattern at an injection rate of one packet per endpoint per unit
/// time.
#[derive(Debug, Clone)]
pub struct LoadAnalysis {
    topo: TorusTopology,
    /// VC rows per link: the most VCs the policy gives one class on any link.
    vc_stride: usize,
    /// Load per directed link, at `node × slots_per_node + slot`. Accumulated
    /// on its own, not summed from the VC rows, so it does not depend on the
    /// VC assignment.
    link: Vec<f64>,
    /// Load per link and virtual channel — the per-VC arbitration demand at
    /// serializers and input ports — at the link's index `× vc_stride + vc`.
    link_vc: Vec<f64>,
    /// Load per router input→output flow, at [`flow_index`].
    flows: Vec<f64>,
}

/// The router port at a link end, if it is one.
#[inline]
fn router_port(end: LinkEnd) -> Option<Port> {
    match end {
        LinkEnd::Router { router, port } => Some((router.index(), port)),
        LinkEnd::Chan(_) | LinkEnd::Endpoint(_) => None,
    }
}

fn flow_index(node: usize, (router, in_port): Port, out_port: usize) -> usize {
    ((node * NUM_ROUTERS + router) * MAX_ROUTER_PORTS + in_port) * MAX_ROUTER_PORTS + out_port
}

impl LoadAnalysis {
    /// An analysis of `cfg` with no flow added yet.
    pub fn new(cfg: &MachineConfig) -> LoadAnalysis {
        let topo = TorusTopology::new(cfg);
        let (nodes, slots) = (topo.num_nodes(), topo.slots_per_node());
        let vcs = |group| usize::from(cfg.vc_policy.num_vcs(group));
        let vc_stride = vcs(LinkGroup::M).max(vcs(LinkGroup::T));
        LoadAnalysis {
            topo,
            vc_stride,
            link: vec![0.0; nodes * slots],
            link_vc: vec![0.0; nodes * slots * vc_stride],
            flows: vec![0.0; nodes * NUM_ROUTERS * MAX_ROUTER_PORTS * MAX_ROUTER_PORTS],
        }
    }

    /// Computes the exact expected loads of `pattern` on `cfg`.
    ///
    /// Node-symmetric patterns are analyzed from a single source node and
    /// replicated by torus translation, which is exact for
    /// translation-invariant demands — except in the per-VC rows, which
    /// datelines make position-dependent (known gap: ROADMAP item 1, H4).
    pub fn compute(cfg: &MachineConfig, pattern: &dyn TrafficPattern) -> LoadAnalysis {
        let symmetric = pattern.node_symmetric();
        let nodes = if symmetric { 1 } else { cfg.shape.num_nodes() };
        let sources = 0..nodes * cfg.endpoints_per_node();
        let sources: Vec<GlobalEndpoint> = sources.map(|e| cfg.endpoint_at(e)).collect();
        let mut analysis = LoadAnalysis::compute_sources(cfg, pattern, &sources);
        if symmetric {
            analysis.link = replicate(cfg, &analysis.link);
            analysis.link_vc = replicate(cfg, &analysis.link_vc);
            analysis.flows = replicate(cfg, &analysis.flows);
        }
        analysis
    }

    /// Computes loads contributed by the given source endpoints only.
    pub fn compute_sources(
        cfg: &MachineConfig,
        pattern: &dyn TrafficPattern,
        sources: &[GlobalEndpoint],
    ) -> LoadAnalysis {
        let mut analysis = LoadAnalysis::new(cfg);
        for &src in sources {
            for flow in pattern.flows_from(cfg, src) {
                analysis.add_flow(cfg, src, flow.dst, flow.rate);
            }
        }
        analysis
    }

    /// Adds one expected flow of `rate` packets/unit time from `src` to
    /// `dst`, spread over the oblivious route distribution.
    ///
    /// Every entry accumulates its addends in this loop order. Arbiter
    /// weights are `nint(β/γ)` of these sums and exact `.5` ties exist
    /// (tornado loads are multiples of 1/24), so reordering the additions
    /// can flip a programmed weight in the last ulp.
    pub fn add_flow(
        &mut self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        dst: GlobalEndpoint,
        rate: f64,
    ) {
        let routes = RouteSpec::minimal_routes(
            &cfg.shape,
            cfg.shape.coord(src.node),
            cfg.shape.coord(dst.node),
        );
        let w = rate / routes.len() as f64;
        let crosses = |n, d| cfg.shape.hop_crosses_dateline(n, d);
        for spec in routes {
            // The router input the previous link fed, if any.
            let mut fed: Option<(usize, Port)> = None;
            for (link, vc) in trace_unicast(cfg, src, dst, &spec, &crosses) {
                let (node, slot) = self.topo.slot(&link).expect("traced link has a slot");
                let at = node * self.topo.slots_per_node() + slot;
                self.link[at] += w;
                self.link_vc[at * self.vc_stride + usize::from(vc.0)] += w;
                if let (Some((n1, input)), Some((router, output))) =
                    (fed, router_port(self.topo.producer(slot)))
                {
                    debug_assert_eq!(
                        (n1, input.0),
                        (node, router),
                        "consecutive links must share a router"
                    );
                    self.flows[flow_index(node, input, output)] += w;
                }
                fed = router_port(self.topo.consumer(slot)).map(|port| (node, port));
            }
        }
    }

    fn index(&self, link: &GlobalLink) -> Option<usize> {
        let (node, slot) = self.topo.slot(link)?;
        Some(node * self.topo.slots_per_node() + slot)
    }

    /// Load on one link (0 if untouched).
    pub fn link_load(&self, link: &GlobalLink) -> f64 {
        self.index(link).map_or(0.0, |at| self.link[at])
    }

    /// Load on one virtual channel of one link (0 if untouched).
    ///
    /// # Panics
    ///
    /// Panics if the VC policy never assigns `vc`.
    pub fn link_vc_load(&self, link: &GlobalLink, vc: Vc) -> f64 {
        let vc = usize::from(vc.0);
        assert!(vc < self.vc_stride, "vc{vc} is outside the VC policy");
        self.index(link)
            .map_or(0.0, |at| self.link_vc[at * self.vc_stride + vc])
    }

    /// Load of the flow from input port `in_port` to output port `out_port`
    /// of one router, ports indexed as in [`ChipLayout::router_ports`] (0 if
    /// untouched).
    pub fn router_flow(&self, node: NodeId, router: usize, in_port: usize, out_port: usize) -> f64 {
        assert!(router < NUM_ROUTERS && in_port.max(out_port) < MAX_ROUTER_PORTS);
        self.flows[flow_index(node.0 as usize, (router, in_port), out_port)]
    }

    /// The load of every torus channel, in `(node, channel)` order.
    pub fn torus_loads(&self) -> impl Iterator<Item = (NodeId, ChanId, f64)> + '_ {
        (0..self.topo.num_nodes() as u32).flat_map(move |n| {
            ChanId::all().map(move |c| {
                let link = GlobalLink::Torus {
                    from: NodeId(n),
                    dir: c.dir,
                    slice: c.slice,
                };
                (NodeId(n), c, self.link_load(&link))
            })
        })
    }

    /// Maximum load over all torus channels.
    pub fn max_torus_load(&self) -> f64 {
        self.torus_loads().map(|(_, _, v)| v).fold(0.0, f64::max)
    }

    /// The per-endpoint injection rate (packets/cycle) at which the busiest
    /// torus channel saturates, given the channel capacity in packets/cycle.
    ///
    /// Normalizing measured throughput by this rate makes "1.0" mean full
    /// utilization of the torus channels, as in Figures 9 and 10.
    pub fn saturation_injection_rate(&self, torus_capacity: f64) -> f64 {
        let max = self.max_torus_load();
        assert!(max > 0.0, "pattern places no load on torus channels");
        torus_capacity / max
    }
}

/// The sum of `base` (one row per node) over every torus translation.
///
/// Each destination entry receives one addend per node offset, in ascending
/// offset order — the accumulation order [`LoadAnalysis::add_flow`]
/// documents, continued. Zero entries are skipped: adding `0.0` is exact.
fn replicate(cfg: &MachineConfig, base: &[f64]) -> Vec<f64> {
    let shape = &cfg.shape;
    let per_node = base.len() / shape.num_nodes();
    let nonzero: Vec<(usize, usize, f64)> = base
        .iter()
        .enumerate()
        .filter(|(_, load)| **load != 0.0)
        .map(|(at, load)| (at / per_node, at % per_node, *load))
        .collect();
    let mut sum = vec![0.0; base.len()];
    for delta in shape.nodes() {
        let delta = [delta.x, delta.y, delta.z].map(i32::from);
        let moved: Vec<usize> = shape
            .nodes()
            .map(|c| shape.id(offset_node(cfg, c, delta)).0 as usize)
            .collect();
        for &(node, offset, load) in &nonzero {
            sum[moved[node] * per_node + offset] += load;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::{ChipLayout, MeshCoord};
    use anton_core::topology::{Sign, TorusShape};
    use anton_traffic::patterns::{Blend, NHopNeighbor, ReverseTornado, Tornado, UniformRandom};

    fn cfg(k: u8) -> MachineConfig {
        MachineConfig::new(TorusShape::cube(k))
    }

    /// Asserts what the node-symmetric path and the general path over all
    /// sources agree on: every link load and every router flow, and, within
    /// each result, every link's VC rows summing to its link load.
    ///
    /// The per-VC rows themselves are *not* compared, because they differ:
    /// the symmetric path translates them as if VC assignment were
    /// translation-invariant, and datelines make it position-dependent
    /// (3,712 of 22,912 entries at 4×4×4 uniform). The SA1 and serializer
    /// weights are computed from those rows, the goldens from those
    /// weights; the gap is recorded as H4 under ROADMAP item 1 and
    /// EXPERIMENTS.md (Fig. 9), which owns the one re-baseline.
    fn assert_paths_agree(cfg: &MachineConfig, pattern: &dyn TrafficPattern) {
        assert!(pattern.node_symmetric());
        let sym = LoadAnalysis::compute(cfg, pattern);
        let sources: Vec<GlobalEndpoint> = cfg.endpoints().collect();
        let full = LoadAnalysis::compute_sources(cfg, pattern, &sources);
        let what = format!("{} on {}", pattern.name(), cfg.shape);
        for (at, (s, f)) in sym.link.iter().zip(&full.link).enumerate() {
            assert!((s - f).abs() < 1e-9, "{what}: link entry {at}: {s} vs {f}");
        }
        for (at, (s, f)) in sym.flows.iter().zip(&full.flows).enumerate() {
            assert!((s - f).abs() < 1e-9, "{what}: flow entry {at}: {s} vs {f}");
        }
        for a in [&sym, &full] {
            for (load, rows) in a.link.iter().zip(a.link_vc.chunks(a.vc_stride)) {
                let sum: f64 = rows.iter().sum();
                let rel = (load - sum).abs() / load.max(1.0);
                assert!(rel < 1e-12, "{what}: VC rows {sum} vs {load}");
            }
        }
    }

    #[test]
    fn symmetric_and_full_computations_agree() {
        let blend = Blend::new(vec![
            (Box::new(Tornado), 0.25),
            (Box::new(NHopNeighbor::new(1)), 0.75),
        ]);
        let patterns: [&dyn TrafficPattern; 5] = [
            &UniformRandom,
            &NHopNeighbor::new(1),
            &Tornado,
            &ReverseTornado,
            &blend,
        ];
        // Five endpoints a node keep the all-sources side fast (its cost is
        // quadratic in endpoints) and move every endpoint slot off the
        // default layout's.
        for shape in [TorusShape::cube(3), TorusShape::new(4, 3, 2)] {
            let mut cfg = MachineConfig::new(shape);
            cfg.chip = ChipLayout::new(5);
            for pattern in patterns {
                assert_paths_agree(&cfg, pattern);
            }
        }
        assert_paths_agree(&cfg(2), &UniformRandom);
        // Tornado is degenerate below k = 4 (its offset k/2 − 1 vanishes).
        assert_paths_agree(&cfg(4), &Tornado);
        assert_paths_agree(&cfg(4), &ReverseTornado);
    }

    #[test]
    fn uniform_torus_loads_are_symmetric() {
        let cfg = cfg(4);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        assert_eq!(analysis.torus_loads().count(), 64 * 12);
        let (_, _, first) = analysis.torus_loads().next().unwrap();
        for (n, c, v) in analysis.torus_loads() {
            assert!(
                (v - first).abs() < 1e-9,
                "channel {n}/{c} load {v} != {first}"
            );
        }
    }

    #[test]
    fn uniform_torus_load_matches_closed_form() {
        // Uniform on a k-ary 3-cube: average hops per dimension is
        // (sum over minimal offsets)/k ... with the torus channel count per
        // node = 2 per dim per slice, total load per channel =
        // E * avg_hops_per_dim / (2 directions * 2 slices) at rate 1, scaled
        // by N/(N-1) because self-traffic is excluded.
        let cfg = cfg(4);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        let (_, _, load) = analysis.torus_loads().next().unwrap();
        // k = 4: offsets {0, ±1, 2}: mean |offset| = (0+1+1+2)/4 = 1.
        // Per-endpoint per-dim hop demand = 1 * 64/63 (exclude self node only
        // among the 63 destinations: E[|off|] over dst != src is
        // (sum over all dsts of |off_x|) / 63 per endpoint).
        // Direct combinatorial value: sum over dx of |dx| * (#nodes with that
        // dx) = (0*16 + 1*16 + 1*16 + 2*16)/63 per packet.
        let per_packet_x_hops = (16.0 * (0.0 + 1.0 + 1.0 + 2.0)) / 63.0;
        let eps = cfg.endpoints_per_node() as f64;
        // Node's X-hop demand spread over 2 directions x 2 slices... but
        // direction split is asymmetric for the odd offset? No: +1 and -1
        // balance, and the tie at 2 splits evenly, so each of the 4 X
        // channels carries an equal quarter.
        let expected = eps * per_packet_x_hops / 4.0;
        assert!(
            (load - expected).abs() < 1e-9,
            "load {load} vs expected {expected}"
        );
    }

    #[test]
    fn tornado_loads_concentrate() {
        let cfg = cfg(8);
        let analysis = LoadAnalysis::compute(&cfg, &Tornado);
        // Tornado sends k/2 - 1 = 3 hops in +X per packet (per dim), so the
        // +X channels carry 16 endpoints * 3 hops / (8 nodes per ring... )
        // All traffic flows in the + directions: - channels idle.
        for (_, c, v) in analysis.torus_loads() {
            match c.dir.sign {
                Sign::Plus => assert!(v > 0.0),
                Sign::Minus => assert!(v < 1e-12, "tornado must not use - channels, got {v}"),
            }
        }
        // Each + channel: 16 eps * 3 hops per ring of 8 nodes, over 2 slices:
        // ring demand = 16*3*8 hop-packets; channels = 8 per ring per slice;
        // per channel = 16*3/2 slices... = 24.
        let max = analysis.max_torus_load();
        assert!((max - 24.0).abs() < 1e-9, "tornado channel load {max}");
    }

    #[test]
    fn router_port_flows_reference_valid_ports() {
        let cfg = cfg(2);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        for r in MeshCoord::all() {
            let nports = cfg.chip.router_ports(r).len();
            let mut any = false;
            for i in 0..MAX_ROUTER_PORTS {
                for o in 0..MAX_ROUTER_PORTS {
                    let load = analysis.router_flow(NodeId(0), r.index(), i, o);
                    assert!(load >= 0.0);
                    assert!(load == 0.0 || i.max(o) < nports, "{r}: flow {i}->{o}");
                    any |= load > 0.0;
                }
            }
            assert!(any, "uniform traffic crosses every router");
        }
    }

    #[test]
    fn saturation_rate_scales_with_capacity() {
        let cfg = cfg(4);
        let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
        let r1 = analysis.saturation_injection_rate(0.311);
        let r2 = analysis.saturation_injection_rate(0.622);
        assert!((r2 / r1 - 2.0).abs() < 1e-9);
    }
}
