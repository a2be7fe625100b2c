//! The traffic patterns of the paper's evaluation (Section 4), each a name
//! plus a [`Destinations`] description; flows, sampling and node symmetry
//! are derived from the description in `anton_core::pattern`.
//!
//! * [`UniformRandom`] — every packet goes to a uniformly random destination
//!   on another node;
//! * [`NHopNeighbor`] — destinations at most `n` hops away along *each*
//!   dimension of the torus (Agarwal's neighbor traffic [2]);
//! * [`Tornado`] / [`ReverseTornado`] — the adversarial half-ring patterns
//!   of Section 4.2;
//! * [`Blend`] — a mixture of patterns with given weights, as blended in
//!   Figure 10;
//! * [`BitComplement`], [`Transpose`] — classic adversarial node maps;
//! * [`NodePermutation`] — an explicit node-level permutation (used for the
//!   worst-case analyses and tests).

use rand::RngCore;

use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::pattern::{Destinations, EndpointChoice, NodeChoice, TrafficPattern};
use anton_core::topology::{Dim, NodeCoord, TorusShape};

/// Uniform random traffic: each packet is sent to a random endpoint on a
/// random *other* node, without locality constraints.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRandom;

impl TrafficPattern for UniformRandom {
    fn name(&self) -> String {
        "uniform".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Others, EndpointChoice::Any)
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
}

impl TrafficPattern for NHopNeighbor {
    fn name(&self) -> String {
        format!("{}-hop-neighbor", self.n)
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Within(self.n), EndpointChoice::Any)
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

fn tornado_offset(shape: &TorusShape) -> [i32; 3] {
    Dim::ALL.map(|d| i32::from(shape.k(d)) / 2 - 1)
}

impl TrafficPattern for Tornado {
    fn name(&self) -> String {
        "tornado".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Offset(tornado_offset), EndpointChoice::Same)
    }
}

impl TrafficPattern for ReverseTornado {
    fn name(&self) -> String {
        "reverse-tornado".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        let reverse = |shape: &TorusShape| tornado_offset(shape).map(|d| -d);
        Destinations::Pick(NodeChoice::Offset(reverse), EndpointChoice::Same)
    }
}

/// A weighted mixture of traffic patterns (Figure 10 blends tornado and
/// reverse tornado). Sampling first draws a component by weight; the flow
/// matrix is the weighted sum of the components'.
#[derive(Debug)]
pub struct Blend {
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
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

    /// Samples a destination and the index of the component it was drawn
    /// from, for callers that tag packets with their pattern id — the same
    /// draw `sample_dst` makes.
    pub fn sample_with_component(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> (usize, GlobalEndpoint) {
        self.destinations().sample(cfg, src, rng)
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

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Mix(&self.components)
    }
}

/// Bit-complement traffic: node `(x, y, z)` sends to the node at the
/// torus-complement coordinate `(kx−1−x, ky−1−y, kz−1−z)` — a classic
/// adversarial pattern for dimension-order routing.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitComplement;

impl TrafficPattern for BitComplement {
    fn name(&self) -> String {
        "bit-complement".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        let complement = |s: &TorusShape, c: NodeCoord| {
            NodeCoord::new(
                s.k(Dim::X) - 1 - c.x,
                s.k(Dim::Y) - 1 - c.y,
                s.k(Dim::Z) - 1 - c.z,
            )
        };
        Destinations::Pick(NodeChoice::Map(complement), EndpointChoice::Same)
    }
}

/// Transpose traffic on cubic tori: node `(x, y, z)` sends to `(y, z, x)`.
/// Concentrates turns and stresses the on-chip local routes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Transpose;

impl TrafficPattern for Transpose {
    fn name(&self) -> String {
        "transpose".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        let transpose = |s: &TorusShape, c: NodeCoord| {
            let k = s.k(Dim::X);
            assert!(
                s.k(Dim::Y) == k && s.k(Dim::Z) == k,
                "transpose traffic requires a cubic torus"
            );
            NodeCoord::new(c.y, c.z, c.x)
        };
        Destinations::Pick(NodeChoice::Map(transpose), EndpointChoice::Same)
    }
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
}

impl TrafficPattern for NodePermutation {
    fn name(&self) -> String {
        "node-permutation".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Permutation(&self.perm), EndpointChoice::Same)
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
        let uniform: &dyn TrafficPattern = &UniformRandom;
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(33);
        for _ in 0..200 {
            let dst = uniform.sample_dst(&cfg, src, &mut rng);
            assert_ne!(dst.node, src.node);
        }
        for f in uniform.flows_from(&cfg, src) {
            assert_ne!(f.dst.node, src.node);
        }
    }

    #[test]
    fn one_hop_neighbor_counts() {
        // On a 4^3 torus, the 1-hop box holds 3^3 - 1 = 26 distinct nodes.
        let cfg = cfg();
        let src = cfg.endpoint_at(0);
        let flows = (&NHopNeighbor::new(1) as &dyn TrafficPattern).flows_from(&cfg, src);
        assert_eq!(flows.len(), 26 * cfg.endpoints_per_node());
    }

    #[test]
    fn two_hop_wraps_whole_small_torus() {
        // n=2 on k=4 covers every node except the source (aliasing dedup).
        let cfg = cfg();
        let src = cfg.endpoint_at(0);
        let flows = (&NHopNeighbor::new(2) as &dyn TrafficPattern).flows_from(&cfg, src);
        assert_eq!(flows.len(), 63 * cfg.endpoints_per_node());
    }

    #[test]
    fn tornado_is_reverse_of_reverse() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let mut rng = StdRng::seed_from_u64(0);
        let (fwd, rev): (&dyn TrafficPattern, &dyn TrafficPattern) = (&Tornado, &ReverseTornado);
        for idx in [0usize, 100, 511] {
            let src = cfg.endpoint_at(idx * cfg.endpoints_per_node());
            let there = fwd.sample_dst(&cfg, src, &mut rng);
            let back = rev.sample_dst(&cfg, there, &mut rng);
            assert_eq!(back.node, src.node, "reverse tornado must undo tornado");
        }
    }

    #[test]
    fn tornado_offset_is_half_ring_minus_one() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let src = cfg.endpoint_at(0); // node (0,0,0)
        let tornado: &dyn TrafficPattern = &Tornado;
        let dst = tornado.sample_dst(&cfg, src, &mut StdRng::seed_from_u64(0));
        assert_eq!(cfg.shape.coord(dst.node), NodeCoord::new(3, 3, 3));
    }

    #[test]
    fn blend_extremes_match_components() {
        let cfg = cfg();
        let mut rng = StdRng::seed_from_u64(9);
        let blend: &dyn TrafficPattern = &Blend::new(vec![
            (Box::new(Tornado), 1.0),
            (Box::new(ReverseTornado), 0.0),
        ]);
        let tornado: &dyn TrafficPattern = &Tornado;
        let src = cfg.endpoint_at(7);
        for _ in 0..50 {
            assert_eq!(
                blend.sample_dst(&cfg, src, &mut rng),
                tornado.sample_dst(&cfg, src, &mut rng)
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
        let complement: &dyn TrafficPattern = &BitComplement;
        let mut rng = StdRng::seed_from_u64(0);
        for idx in [0usize, 17, 63 * 16] {
            let src = cfg.endpoint_at(idx);
            let there = complement.sample_dst(&cfg, src, &mut rng);
            let back = complement.sample_dst(&cfg, there, &mut rng);
            assert_eq!(back.node, src.node);
        }
    }

    #[test]
    fn transpose_cycles_in_three() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let transpose: &dyn TrafficPattern = &Transpose;
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(7 * 16 + 3);
        let a = transpose.sample_dst(&cfg, src, &mut rng);
        let b = transpose.sample_dst(&cfg, a, &mut rng);
        let c = transpose.sample_dst(&cfg, b, &mut rng);
        assert_eq!(c.node, src.node, "transpose^3 = identity");
    }

    #[test]
    #[should_panic(expected = "cubic")]
    fn transpose_rejects_rectangles() {
        let cfg = MachineConfig::new(TorusShape::new(4, 2, 2));
        let mut rng = StdRng::seed_from_u64(0);
        (&Transpose as &dyn TrafficPattern).sample_dst(&cfg, cfg.endpoint_at(0), &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate permutation")]
    fn bad_permutation_rejected() {
        NodePermutation::new(vec![0, 0, 1]);
    }
}
