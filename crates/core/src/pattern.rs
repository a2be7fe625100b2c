//! The traffic-pattern abstraction.
//!
//! A traffic pattern describes the expected communication demand of an
//! application phase, as in Section 3.1's traffic matrix: for each source,
//! the expected number of packets per unit time sent to each destination.
//! Patterns serve two roles:
//!
//! * **offline**, [`TrafficPattern::flows_from`] enumerates a source's
//!   expected flows so `anton-analysis` can compute channel loads and
//!   inverse arbiter weights;
//! * **online**, [`TrafficPattern::sample_dst`] draws destinations for the
//!   packets a workload driver injects into the simulator.
//!
//! Concrete patterns (uniform random, n-hop neighbor, tornado, ...) live in
//! the `anton-traffic` crate.

use rand::RngCore;

use crate::config::{GlobalEndpoint, MachineConfig};

/// One expected flow from a source: destination and rate (packets per unit
/// time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Destination endpoint.
    pub dst: GlobalEndpoint,
    /// Expected packets per unit time.
    pub rate: f64,
}

/// A traffic pattern: a distribution of destinations per source endpoint.
///
/// Implementations must keep `flows_from` and `sample_dst` consistent: the
/// sampling distribution of `sample_dst` must be proportional to the rates
/// returned by `flows_from`.
///
/// Patterns are `Send + Sync`: workload drivers share one pattern object
/// across the sharded kernel's worker threads (all randomness lives in the
/// per-endpoint RNG streams passed to `sample_dst`, never in the pattern).
pub trait TrafficPattern: Send + Sync {
    /// Human-readable pattern name (used in experiment output).
    fn name(&self) -> String;

    /// The expected flows out of `src`, with rates normalized so they sum to
    /// 1 (each source injects one packet per unit time in expectation).
    fn flows_from(&self, cfg: &MachineConfig, src: GlobalEndpoint) -> Vec<Flow>;

    /// Samples a destination for one packet from `src`.
    fn sample_dst(
        &self,
        cfg: &MachineConfig,
        src: GlobalEndpoint,
        rng: &mut dyn RngCore,
    ) -> GlobalEndpoint;

    /// Whether the pattern is invariant under torus translation (every node
    /// sees the same relative demand). Node-symmetric patterns let analyses
    /// compute loads for a single source node and replicate by translation.
    ///
    /// Required, with no default: a pattern that wrongly reported `true`
    /// would be analyzed from node 0 alone — wrong loads and wrong arbiter
    /// weights with no diagnostic.
    fn node_symmetric(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TorusShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A minimal pattern for trait-object sanity: everyone sends to endpoint
    /// 0 of node 0.
    struct ToZero;

    impl TrafficPattern for ToZero {
        fn name(&self) -> String {
            "to-zero".into()
        }

        fn flows_from(&self, cfg: &MachineConfig, _src: GlobalEndpoint) -> Vec<Flow> {
            vec![Flow {
                dst: cfg.endpoint_at(0),
                rate: 1.0,
            }]
        }

        fn sample_dst(
            &self,
            cfg: &MachineConfig,
            _src: GlobalEndpoint,
            _rng: &mut dyn RngCore,
        ) -> GlobalEndpoint {
            cfg.endpoint_at(0)
        }

        fn node_symmetric(&self) -> bool {
            false
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let pat: Box<dyn TrafficPattern> = Box::new(ToZero);
        let mut rng = StdRng::seed_from_u64(0);
        let src = cfg.endpoint_at(5);
        assert_eq!(pat.sample_dst(&cfg, src, &mut rng), cfg.endpoint_at(0));
        let flows = pat.flows_from(&cfg, src);
        assert_eq!(flows.len(), 1);
        assert!((flows[0].rate - 1.0).abs() < 1e-12);
    }
}
