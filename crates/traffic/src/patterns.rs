//! The traffic patterns of the paper's evaluation (Section 4).
//!
//! * [`UniformRandom`] — every packet goes to a uniformly random destination
//!   on another node;
//! * [`NHopNeighbor`] — destinations at most `n` hops away along *each*
//!   dimension of the torus (Agarwal's neighbor traffic [2]);
//! * [`Tornado`] / [`ReverseTornado`] — the adversarial half-ring patterns
//!   of Section 4.2;
//! * [`Blend`] — a mixture of patterns with given weights, as blended in
//!   Figure 10;
//! * [`NodePermutation`] — an explicit node-level permutation (used for the
//!   worst-case analyses and tests).

use rand::Rng;
use rand::RngCore;

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::pattern::{Flow, TrafficPattern};
use anton_core::topology::{Dim, NodeCoord, NodeId};

fn wrap(shape_k: u8, base: u8, delta: i32) -> u8 {
    (i32::from(base) + delta).rem_euclid(i32::from(shape_k)) as u8
}

/// Offsets a node coordinate by `(dx, dy, dz)` with wraparound.
pub fn offset_node(cfg: &MachineConfig, c: NodeCoord, d: [i32; 3]) -> NodeCoord {
    NodeCoord::new(
        wrap(cfg.shape.k(Dim::X), c.x, d[0]),
        wrap(cfg.shape.k(Dim::Y), c.y, d[1]),
        wrap(cfg.shape.k(Dim::Z), c.z, d[2]),
    )
}

/// Uniform random traffic: each packet is sent to a random endpoint on a
/// random *other* node, without locality constraints.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRandom;

impl TrafficPattern for UniformRandom {
    fn name(&self) -> String {
        "uniform".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        let nodes = cfg.shape.num_nodes();
        let eps = cfg.endpoints_per_node();
        let rate = 1.0 / (((nodes - 1) * eps) as f64);
        let mut flows = Vec::with_capacity((nodes - 1) * eps);
        for node in 0..nodes {
            if node as u32 == src.node.0 {
                continue;
            }
            for e in 0..eps {
                flows.push(Flow {
                    dst: GlobalEndpoint {
                        node: NodeId(node as u32),
                        ep: LocalEndpointId(e as u8),
                    },
                    rate,
                });
            }
        }
        flows
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        let nodes = cfg.shape.num_nodes() as u32;
        let mut node = rng.gen_range(0..nodes - 1);
        if node >= src.node.0 {
            node += 1;
        }
        GlobalEndpoint {
            node: NodeId(node),
            ep: LocalEndpointId(rng.gen_range(0..cfg.endpoints_per_node()) as u8),
        }
    }

    fn node_symmetric(&self) -> bool {
        true
    }
}

/// `n`-hop neighbor traffic: each packet travels to a random destination
/// node at most `n` hops away along each dimension of the torus (excluding
/// the source node itself).
#[derive(Debug, Clone, Copy)]
pub struct NHopNeighbor {
    /// Maximum hops per dimension.
    pub n: u8,
}

impl NHopNeighbor {
    /// Creates the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u8) -> NHopNeighbor {
        assert!(n > 0, "n-hop neighbor traffic needs n >= 1");
        NHopNeighbor { n }
    }

    /// The distinct destination nodes for a source node (wraparound can
    /// alias offsets on small tori, so this deduplicates).
    fn neighbor_nodes(&self, cfg: &MachineConfig, src: NodeCoord) -> Vec<NodeCoord> {
        let n = i32::from(self.n);
        let mut out = Vec::new();
        for dx in -n..=n {
            for dy in -n..=n {
                for dz in -n..=n {
                    let c = offset_node(cfg, src, [dx, dy, dz]);
                    if c != src && !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }
}

impl TrafficPattern for NHopNeighbor {
    fn name(&self) -> String {
        format!("{}-hop-neighbor", self.n)
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        let src_c = cfg.node_coord(src);
        let nodes = self.neighbor_nodes(cfg, src_c);
        let eps = cfg.endpoints_per_node();
        let rate = 1.0 / ((nodes.len() * eps) as f64);
        nodes
            .iter()
            .flat_map(|c| {
                let node = cfg.shape.id(*c);
                (0..eps).map(move |e| Flow {
                    dst: GlobalEndpoint {
                        node,
                        ep: LocalEndpointId(e as u8),
                    },
                    rate,
                })
            })
            .collect()
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        let src_c = cfg.node_coord(src);
        let nodes = self.neighbor_nodes(cfg, src_c);
        let node = nodes[rng.gen_range(0..nodes.len())];
        GlobalEndpoint {
            node: cfg.shape.id(node),
            ep: LocalEndpointId(rng.gen_range(0..cfg.endpoints_per_node()) as u8),
        }
    }

    fn node_symmetric(&self) -> bool {
        true
    }
}

/// Tornado traffic (Section 4.2): cores on node `(x, y, z)` send all of
/// their packets to the corresponding core on node
/// `(x + kx/2 − 1, y + ky/2 − 1, z + kz/2 − 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tornado;

/// Reverse tornado traffic: the diametric opposite of [`Tornado`] — cores on
/// `(x, y, z)` send to `(x − kx/2 + 1, y − ky/2 + 1, z − kz/2 + 1)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReverseTornado;

fn tornado_dst(cfg: &MachineConfig, src: GlobalEndpoint, sign: i32) -> GlobalEndpoint {
    let c = cfg.node_coord(src);
    let d = [
        sign * (i32::from(cfg.shape.k(Dim::X)) / 2 - 1),
        sign * (i32::from(cfg.shape.k(Dim::Y)) / 2 - 1),
        sign * (i32::from(cfg.shape.k(Dim::Z)) / 2 - 1),
    ];
    GlobalEndpoint {
        node: cfg.shape.id(offset_node(cfg, c, d)),
        ep: src.ep,
    }
}

impl TrafficPattern for Tornado {
    fn name(&self) -> String {
        "tornado".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        vec![Flow {
            dst: tornado_dst(cfg, src, 1),
            rate: 1.0,
        }]
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        _rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        tornado_dst(cfg, src, 1)
    }

    fn node_symmetric(&self) -> bool {
        true
    }
}

impl TrafficPattern for ReverseTornado {
    fn name(&self) -> String {
        "reverse-tornado".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        vec![Flow {
            dst: tornado_dst(cfg, src, -1),
            rate: 1.0,
        }]
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        _rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        tornado_dst(cfg, src, -1)
    }

    fn node_symmetric(&self) -> bool {
        true
    }
}

/// A weighted mixture of traffic patterns (Figure 10 blends tornado and
/// reverse tornado). Sampling first draws a component by weight; the flow
/// matrix is the weighted sum of the components'.
pub struct Blend {
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
}

impl std::fmt::Debug for Blend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blend")
            .field(
                "components",
                &self
                    .components
                    .iter()
                    .map(|(p, w)| (p.name(), *w))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Blend {
    /// Creates a blend; weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty, any weight is negative, or all
    /// weights are zero.
    pub fn new(components: Vec<(Box<dyn TrafficPattern>, f64)>) -> Blend {
        assert!(!components.is_empty(), "blend needs at least one component");
        let total: f64 = components.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "blend weights must sum to a positive value");
        assert!(
            components.iter().all(|(_, w)| *w >= 0.0),
            "negative blend weight"
        );
        let components = components
            .into_iter()
            .map(|(p, w)| (p, w / total))
            .collect();
        Blend { components }
    }

    /// Which component a sampled packet came from on the last call is not
    /// tracked here; use [`Blend::sample_with_component`] when the caller
    /// needs to tag packets with their pattern id.
    pub fn sample_with_component(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> (usize, GlobalEndpoint) {
        let mut x: f64 = rng.gen();
        for (i, (p, w)) in self.components.iter().enumerate() {
            if x < *w || i == self.components.len() - 1 {
                return (i, p.sample_dst(cfg, src, rng));
            }
            x -= *w;
        }
        unreachable!("weights are normalized")
    }
}

impl TrafficPattern for Blend {
    fn name(&self) -> String {
        let parts: Vec<String> = self
            .components
            .iter()
            .map(|(p, w)| format!("{:.2}*{}", w, p.name()))
            .collect();
        format!("blend({})", parts.join("+"))
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        let mut flows: Vec<Flow> = Vec::new();
        for (p, w) in &self.components {
            for f in p.flows_from(cfg, src) {
                match flows.iter_mut().find(|g| g.dst == f.dst) {
                    Some(g) => g.rate += f.rate * w,
                    None => flows.push(Flow {
                        dst: f.dst,
                        rate: f.rate * w,
                    }),
                }
            }
        }
        flows
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        self.sample_with_component(cfg, src, rng).1
    }

    fn node_symmetric(&self) -> bool {
        self.components.iter().all(|(p, _)| p.node_symmetric())
    }
}

/// Bit-complement traffic: node `(x, y, z)` sends to the node at the
/// torus-complement coordinate `(kx−1−x, ky−1−y, kz−1−z)` — a classic
/// adversarial pattern for dimension-order routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitComplement;

fn complement_dst(cfg: &MachineConfig, src: GlobalEndpoint) -> GlobalEndpoint {
    let c = cfg.node_coord(src);
    let n = NodeCoord::new(
        cfg.shape.k(Dim::X) - 1 - c.x,
        cfg.shape.k(Dim::Y) - 1 - c.y,
        cfg.shape.k(Dim::Z) - 1 - c.z,
    );
    GlobalEndpoint {
        node: cfg.shape.id(n),
        ep: src.ep,
    }
}

impl TrafficPattern for BitComplement {
    fn name(&self) -> String {
        "bit-complement".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        vec![Flow {
            dst: complement_dst(cfg, src),
            rate: 1.0,
        }]
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        _rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        complement_dst(cfg, src)
    }

    fn node_symmetric(&self) -> bool {
        // Reflection, not translation: loads must be computed per source.
        false
    }
}

/// Transpose traffic on cubic tori: node `(x, y, z)` sends to `(y, z, x)`.
/// Concentrates turns and stresses the on-chip local routes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

fn transpose_dst(cfg: &MachineConfig, src: GlobalEndpoint) -> GlobalEndpoint {
    let c = cfg.node_coord(src);
    let n = NodeCoord::new(c.y, c.z, c.x);
    GlobalEndpoint {
        node: cfg.shape.id(n),
        ep: src.ep,
    }
}

impl TrafficPattern for Transpose {
    fn name(&self) -> String {
        "transpose".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        assert_cubic(cfg);
        vec![Flow {
            dst: transpose_dst(cfg, src),
            rate: 1.0,
        }]
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        _rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        assert_cubic(cfg);
        transpose_dst(cfg, src)
    }

    fn node_symmetric(&self) -> bool {
        false
    }
}

fn assert_cubic(cfg: &MachineConfig) {
    let k = cfg.shape.k(Dim::X);
    assert!(
        cfg.shape.k(Dim::Y) == k && cfg.shape.k(Dim::Z) == k,
        "transpose traffic requires a cubic torus"
    );
}

/// An explicit node-level permutation: every endpoint of node `i` sends to
/// its counterpart on node `perm[i]`.
#[derive(Debug, Clone)]
pub struct NodePermutation {
    perm: Vec<u32>,
}

impl NodePermutation {
    /// Creates a permutation pattern.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..perm.len()`.
    pub fn new(perm: Vec<u32>) -> NodePermutation {
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(
                (p as usize) < perm.len(),
                "permutation entry {p} out of range"
            );
            assert!(!seen[p as usize], "duplicate permutation entry {p}");
            seen[p as usize] = true;
        }
        NodePermutation { perm }
    }

    fn dst(&self, src: GlobalEndpoint) -> GlobalEndpoint {
        GlobalEndpoint {
            node: NodeId(self.perm[src.node.0 as usize]),
            ep: src.ep,
        }
    }
}

impl TrafficPattern for NodePermutation {
    fn name(&self) -> String {
        "node-permutation".into()
    }

    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        assert_eq!(
            self.perm.len(),
            cfg.shape.num_nodes(),
            "permutation sized for another machine"
        );
        vec![Flow {
            dst: self.dst(src),
            rate: 1.0,
        }]
    }

    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        _rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        assert_eq!(
            self.perm.len(),
            cfg.shape.num_nodes(),
            "permutation sized for another machine"
        );
        self.dst(src)
    }

    fn node_symmetric(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::topology::TorusShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> MachineConfig {
        MachineConfig::new(TorusShape::cube(4))
    }

    fn flows_sum_to_one(pat: &dyn TrafficPattern, cfg: &MachineConfig) {
        for idx in [0usize, 17, cfg.num_endpoints() - 1] {
            let src = cfg.endpoint_at(idx);
            let flows = pat.flows_from(cfg, src);
            let total: f64 = flows.iter().map(|f| f.rate).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: rates sum to {total}",
                pat.name()
            );
        }
    }

    #[test]
    fn all_patterns_normalize() {
        let cfg = cfg();
        flows_sum_to_one(&UniformRandom, &cfg);
        flows_sum_to_one(&NHopNeighbor::new(1), &cfg);
        flows_sum_to_one(&NHopNeighbor::new(2), &cfg);
        flows_sum_to_one(&Tornado, &cfg);
        flows_sum_to_one(&ReverseTornado, &cfg);
        let blend = Blend::new(vec![
            (Box::new(Tornado), 0.3),
            (Box::new(ReverseTornado), 0.7),
        ]);
        flows_sum_to_one(&blend, &cfg);
    }

    #[test]
    fn uniform_never_sends_to_own_node() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(33);
        for _ in 0..200 {
            let dst = UniformRandom.sample_dst(&cfg, src, &mut rng);
            assert_ne!(dst.node, src.node);
        }
        for f in UniformRandom.flows_from(&cfg, src) {
            assert_ne!(f.dst.node, src.node);
        }
    }

    #[test]
    fn samples_match_flow_support() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(1);
        for pat in [
            &NHopNeighbor::new(1) as &dyn TrafficPattern,
            &NHopNeighbor::new(2),
        ] {
            let src = cfg.endpoint_at(5);
            let flows = pat.flows_from(&cfg, src);
            for _ in 0..200 {
                let dst = pat.sample_dst(&cfg, src, &mut rng);
                assert!(
                    flows.iter().any(|f| f.dst == dst),
                    "{}: sampled {dst} off-support",
                    pat.name()
                );
            }
        }
    }

    #[test]
    fn one_hop_neighbor_counts() {
        // On a 4^3 torus, the 1-hop box holds 3^3 - 1 = 26 distinct nodes.
        let cfg = cfg();
        let src = cfg.endpoint_at(0);
        let flows = NHopNeighbor::new(1).flows_from(&cfg, src);
        assert_eq!(flows.len(), 26 * cfg.endpoints_per_node());
    }

    #[test]
    fn two_hop_wraps_whole_small_torus() {
        // n=2 on k=4 covers every node except the source (aliasing dedup).
        let cfg = cfg();
        let src = cfg.endpoint_at(0);
        let flows = NHopNeighbor::new(2).flows_from(&cfg, src);
        assert_eq!(flows.len(), 63 * cfg.endpoints_per_node());
    }

    #[test]
    fn tornado_is_reverse_of_reverse() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let mut rng = StdRng::seed_from_u64(0);
        for idx in [0usize, 100, 511] {
            let src = cfg.endpoint_at(idx * cfg.endpoints_per_node());
            let fwd = Tornado.sample_dst(&cfg, src, &mut rng);
            let back = ReverseTornado.sample_dst(&cfg, fwd, &mut rng);
            assert_eq!(back.node, src.node, "reverse tornado must undo tornado");
        }
    }

    #[test]
    fn tornado_offset_is_half_ring_minus_one() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let src = cfg.endpoint_at(0); // node (0,0,0)
        let dst = Tornado.sample_dst(&cfg, src, &mut StdRng::seed_from_u64(0));
        assert_eq!(cfg.shape.coord(dst.node), NodeCoord::new(3, 3, 3));
    }

    #[test]
    fn blend_extremes_match_components() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(9);
        let blend = Blend::new(vec![
            (Box::new(Tornado), 1.0),
            (Box::new(ReverseTornado), 0.0),
        ]);
        let src = cfg.endpoint_at(7);
        for _ in 0..50 {
            assert_eq!(
                blend.sample_dst(&cfg, src, &mut rng),
                Tornado.sample_dst(&cfg, src, &mut rng)
            );
        }
    }

    #[test]
    fn blend_components_tagged() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let blend = Blend::new(vec![
            (Box::new(Tornado), 0.5),
            (Box::new(ReverseTornado), 0.5),
        ]);
        let src = cfg.endpoint_at(3);
        let mut counts = [0u32; 2];
        for _ in 0..1000 {
            let (c, _) = blend.sample_with_component(&cfg, src, &mut rng);
            counts[c] += 1;
        }
        assert!(
            counts[0] > 350 && counts[1] > 350,
            "blend skewed: {counts:?}"
        );
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let mut rng = StdRng::seed_from_u64(0);
        for idx in [0usize, 17, 63 * 16] {
            let src = cfg.endpoint_at(idx);
            let there = BitComplement.sample_dst(&cfg, src, &mut rng);
            let back = BitComplement.sample_dst(&cfg, there, &mut rng);
            assert_eq!(back.node, src.node);
        }
    }

    #[test]
    fn transpose_cycles_in_three() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(7 * 16 + 3);
        let a = Transpose.sample_dst(&cfg, src, &mut rng);
        let b = Transpose.sample_dst(&cfg, a, &mut rng);
        let c = Transpose.sample_dst(&cfg, b, &mut rng);
        assert_eq!(c.node, src.node, "transpose^3 = identity");
    }

    #[test]
    #[should_panic(expected = "cubic")]
    fn transpose_rejects_rectangles() {
        let cfg = MachineConfig::new(TorusShape::new(4, 2, 2));
        let mut rng = StdRng::seed_from_u64(0);
        Transpose.sample_dst(&cfg, cfg.endpoint_at(0), &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate permutation")]
    fn bad_permutation_rejected() {
        NodePermutation::new(vec![0, 0, 1]);
    }
}
