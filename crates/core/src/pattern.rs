//! The traffic-pattern abstraction.
//!
//! A traffic pattern describes the expected communication demand of an
//! application phase, as in Section 3.1's traffic matrix: for each source,
//! the expected number of packets per unit time sent to each destination.
//! A pattern states that demand once, as a [`Destinations`] description
//! composed of a few parts, and everything else is derived from it here:
//!
//! * **offline**, `flows_from` enumerates a source's expected flows so
//!   `anton-analysis` can compute channel loads and inverse arbiter weights;
//! * **online**, `sample_dst` draws destinations for the packets a workload
//!   driver injects into the simulator;
//! * `node_symmetric` reports whether the demand is invariant under torus
//!   translation, read off the parts: uniform, box and offset choices are,
//!   a node map is not, and a mix is when all its parts are.
//!
//! Concrete patterns (uniform random, n-hop neighbor, tornado, ...) live in
//! the `anton-traffic` crate.

use rand::{Rng, RngCore};

use crate::chip::LocalEndpointId;
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::topology::{Dim, NodeCoord, NodeId, TorusShape};

/// One expected flow from a source: destination and rate (packets per unit
/// time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Destination endpoint.
    pub dst: GlobalEndpoint,
    /// Expected packets per unit time.
    pub rate: f64,
}

/// A traffic pattern: a name and a description of where each source's
/// packets go. Flows, sampling and node symmetry are derived from the
/// description (see the inherent methods on `dyn TrafficPattern`), so a
/// pattern cannot state them inconsistently.
///
/// Patterns are `Send + Sync`: workload drivers share one pattern object
/// across the sharded kernel's worker threads (all randomness lives in the
/// per-endpoint RNG streams passed to `sample_dst`, never in the pattern).
pub trait TrafficPattern: Send + Sync {
    /// Human-readable pattern name (used in experiment output).
    fn name(&self) -> String;

    /// Where this pattern sends a source's packets.
    fn destinations(&self) -> Destinations<'_>;
}

/// How a pattern picks a packet's destination from its source.
#[derive(Debug, Clone, Copy)]
pub enum Destinations<'a> {
    /// A destination node, then an endpoint on it.
    Pick(NodeChoice<'a>, EndpointChoice),
    /// A weighted mix of patterns, weights summing to 1: each packet first
    /// draws a part by weight.
    Mix(&'a [(Box<dyn TrafficPattern>, f64)]),
}

/// How a source picks its destination node; each candidate is equally
/// likely.
#[derive(Debug, Clone, Copy)]
pub enum NodeChoice<'a> {
    /// Any node but the source's.
    Others,
    /// Any node at most `n` hops from the source along each dimension, the
    /// source's excluded (a node that wraparound reaches twice counts once).
    Within(u8),
    /// The node at this offset from the source, given the torus shape.
    Offset(fn(&TorusShape) -> [i32; 3]),
    /// The node this map sends the source's node to.
    Map(fn(&TorusShape, NodeCoord) -> NodeCoord),
    /// Node `i` sends to node `perm[i]`.
    Permutation(&'a [u32]),
}

/// How a source picks the endpoint on its destination node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointChoice {
    /// Any endpoint, each equally likely.
    Any,
    /// The endpoint with the source's own index.
    Same,
}

impl std::fmt::Debug for dyn TrafficPattern + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.name())
    }
}

impl dyn TrafficPattern + '_ {
    /// The expected flows out of `src`, with rates normalized so they sum to
    /// 1 (each source injects one packet per unit time in expectation). A
    /// pick lists its node candidates in the order a draw indexes them, each
    /// with its endpoints; a mix sums its parts' flows by weight.
    pub fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow> {
        match self.destinations() {
            Destinations::Pick(node, endpoint) => {
                let nodes = node.count(cfg);
                let eps = match endpoint {
                    EndpointChoice::Any => cfg.endpoints_per_node(),
                    EndpointChoice::Same => 1,
                };
                let rate = 1.0 / ((nodes * eps) as f64);
                let mut flows = Vec::with_capacity(nodes * eps);
                for i in 0..nodes {
                    let node = node.nth(cfg, src.node, i);
                    for e in 0..eps {
                        let ep = match endpoint {
                            EndpointChoice::Any => LocalEndpointId(e as u8),
                            EndpointChoice::Same => src.ep,
                        };
                        flows.push(Flow {
                            dst: GlobalEndpoint { node, ep },
                            rate,
                        });
                    }
                }
                flows
            }
            Destinations::Mix(parts) => {
                let mut flows: Vec<Flow> = Vec::new();
                for (p, w) in parts {
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
        }
    }

    /// Samples a destination for one packet from `src`.
    #[inline]
    pub fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> GlobalEndpoint {
        self.destinations().sample(cfg, src, rng).1
    }

    /// Whether the pattern is invariant under torus translation (every node
    /// sees the same relative demand), which lets analyses compute loads for
    /// a single source node and replicate by translation.
    pub fn node_symmetric(&self) -> bool {
        match self.destinations() {
            Destinations::Pick(node, _) => matches!(
                node,
                NodeChoice::Others | NodeChoice::Within(_) | NodeChoice::Offset(_)
            ),
            Destinations::Mix(parts) => parts.iter().all(|(p, _)| p.node_symmetric()),
        }
    }
}

impl Destinations<'_> {
    /// Draws a destination for one packet from `src`, with the index of the
    /// mix part it came from (0 outside a mix). A mix draws one `f64` to
    /// pick its part; a pick draws its node (`Others`, `Within`), then its
    /// endpoint (`Any`).
    #[inline]
    pub fn sample(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> (usize, GlobalEndpoint) {
        match *self {
            Destinations::Pick(node, endpoint) => {
                let node = node.draw(cfg, src.node, rng);
                let ep = match endpoint {
                    EndpointChoice::Any => {
                        LocalEndpointId(rng.gen_range(0..cfg.endpoints_per_node()) as u8)
                    }
                    EndpointChoice::Same => src.ep,
                };
                (0, GlobalEndpoint { node, ep })
            }
            Destinations::Mix(parts) => {
                let mut x: f64 = rng.gen();
                for (i, (p, w)) in parts.iter().enumerate() {
                    if x < *w || i == parts.len() - 1 {
                        return (i, p.sample_dst(cfg, src, rng));
                    }
                    x -= *w;
                }
                unreachable!("a mix has at least one part")
            }
        }
    }
}

impl NodeChoice<'_> {
    /// How many candidate nodes a source has.
    #[inline]
    fn count(self, cfg: &MachineConfig) -> usize {
        match self {
            NodeChoice::Others => cfg.shape.num_nodes() - 1,
            NodeChoice::Within(n) => {
                let (extent, _) = within_box(&cfg.shape, n);
                extent.iter().product::<usize>() - 1
            }
            _ => 1,
        }
    }

    /// The `i`-th candidate node for a source on `src`.
    #[inline]
    fn nth(self, cfg: &MachineConfig, src: NodeId, i: usize) -> NodeId {
        let shape = &cfg.shape;
        match self {
            NodeChoice::Others => NodeId(i as u32 + u32::from(i as u32 >= src.0)),
            NodeChoice::Within(n) => {
                let (m, own) = within_box(shape, n);
                let i = i + usize::from(i >= own);
                let at = [i / (m[1] * m[2]), i / m[2] % m[1], i % m[2]];
                let offset = at.map(|a| a as i32 - i32::from(n));
                shape.id(offset_node(cfg, shape.coord(src), offset))
            }
            NodeChoice::Offset(offset) => {
                shape.id(offset_node(cfg, shape.coord(src), offset(shape)))
            }
            NodeChoice::Map(map) => shape.id(map(shape, shape.coord(src))),
            NodeChoice::Permutation(perm) => {
                assert_eq!(
                    perm.len(),
                    shape.num_nodes(),
                    "permutation sized for another machine"
                );
                NodeId(perm[src.0 as usize])
            }
        }
    }

    /// Draws a candidate node uniformly (no draw when there is one).
    #[inline]
    fn draw(self, cfg: &MachineConfig, src: NodeId, rng: &mut dyn RngCore) -> NodeId {
        let i = match self {
            NodeChoice::Others | NodeChoice::Within(_) => rng.gen_range(0..self.count(cfg)),
            _ => 0,
        };
        self.nth(cfg, src, i)
    }
}

/// The ±`n` box around a node, as the distinct offsets `-n, -n + 1, …` per
/// dimension (at most `k` of them: wraparound repeats the rest), and the
/// position of the node's own offset in it, x slowest. Candidates follow
/// the order a scan of every offset triple meets each node first.
fn within_box(shape: &TorusShape, n: u8) -> ([usize; 3], usize) {
    let n = usize::from(n);
    let k = Dim::ALL.map(|d| usize::from(shape.k(d)));
    let m = k.map(|k| (2 * n + 1).min(k));
    let own = k.map(|k| n % k);
    (m, (own[0] * m[1] + own[1]) * m[2] + own[2])
}

/// Offsets a node coordinate by `(dx, dy, dz)` with wraparound.
pub fn offset_node(cfg: &MachineConfig, c: NodeCoord, d: [i32; 3]) -> NodeCoord {
    let wrap = |dim: Dim, base: u8, delta: i32| {
        (i32::from(base) + delta).rem_euclid(i32::from(cfg.shape.k(dim))) as u8
    };
    NodeCoord::new(
        wrap(Dim::X, c.x, d[0]),
        wrap(Dim::Y, c.y, d[1]),
        wrap(Dim::Z, c.z, d[2]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A minimal pattern for trait-object sanity: every endpoint sends to
    /// its counterpart on node 0.
    struct ToZero;

    impl TrafficPattern for ToZero {
        fn name(&self) -> String {
            "to-zero".into()
        }

        fn destinations(&self) -> Destinations<'_> {
            Destinations::Pick(
                NodeChoice::Map(|_, _| NodeCoord::new(0, 0, 0)),
                EndpointChoice::Same,
            )
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let pat: Box<dyn TrafficPattern> = Box::new(ToZero);
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(cfg.endpoints_per_node() + 5);
        assert_eq!(pat.sample_dst(&cfg, src, &mut rng), cfg.endpoint_at(5));
        let flows = pat.flows_from(&cfg, src);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].dst, cfg.endpoint_at(5));
        assert!((flows[0].rate - 1.0).abs() < 1e-12);
        assert!(!pat.node_symmetric());
    }

    /// The box's candidates are the distinct nodes of a scan over every
    /// offset triple in `-n..=n` (x outermost), in the order the scan first
    /// meets them, source excluded — the order a draw indexes.
    #[test]
    fn within_box_is_the_scan_order() {
        for (kx, ky, kz) in [(4, 4, 4), (4, 3, 2), (5, 1, 7), (2, 2, 2), (8, 8, 8)] {
            let cfg = MachineConfig::new(TorusShape::new(kx, ky, kz));
            for n in 1..=4u8 {
                for src in [
                    NodeCoord::new(0, 0, 0),
                    NodeCoord::new(kx - 1, ky / 2, kz - 1),
                ] {
                    let r = i32::from(n);
                    let mut scan = Vec::new();
                    for dx in -r..=r {
                        for dy in -r..=r {
                            for dz in -r..=r {
                                let c = offset_node(&cfg, src, [dx, dy, dz]);
                                if c != src && !scan.contains(&c) {
                                    scan.push(c);
                                }
                            }
                        }
                    }
                    let within = NodeChoice::Within(n);
                    let from = cfg.shape.id(src);
                    let got: Vec<NodeCoord> = (0..within.count(&cfg))
                        .map(|i| cfg.shape.coord(within.nth(&cfg, from, i)))
                        .collect();
                    assert_eq!(got, scan, "n = {n} from {src:?} on {}", cfg.shape);
                }
            }
        }
    }
}
