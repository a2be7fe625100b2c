//! Machine-level configuration: torus shape, chip layout, routing policies.

use std::fmt;

use crate::chip::{ChanId, ChipLayout, LocalEndpointId, NUM_CHAN_ADAPTERS};
use crate::topology::{NodeCoord, NodeId, TorusShape};
use crate::vc::VcPolicy;

/// A compute endpoint anywhere in the machine: a node plus a local endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalEndpoint {
    /// The node hosting the endpoint.
    pub node: NodeId,
    /// The endpoint within the node.
    pub ep: LocalEndpointId,
}

impl fmt::Display for GlobalEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.ep)
    }
}

/// Static configuration of an Anton 2 machine's network.
///
/// # Examples
///
/// ```
/// use anton_core::config::MachineConfig;
/// use anton_core::topology::TorusShape;
///
/// let cfg = MachineConfig::new(TorusShape::cube(8));
/// assert_eq!(cfg.num_endpoints(), 512 * 16);
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Shape of the inter-node torus.
    pub shape: TorusShape,
    /// Per-node chip layout (identical on every node).
    pub chip: ChipLayout,
    /// Virtual-channel allocation policy.
    pub vc_policy: VcPolicy,
}

impl MachineConfig {
    /// Creates a configuration with the paper's defaults: one endpoint per
    /// router and the Anton VC promotion policy. On-chip routing always
    /// takes the (V⁻, U⁺, U⁻, V⁺) direction order, `DirOrder::ANTON`.
    pub fn new(shape: TorusShape) -> MachineConfig {
        MachineConfig {
            shape,
            chip: ChipLayout::default(),
            vc_policy: VcPolicy::Anton,
        }
    }

    /// Endpoints per node.
    #[inline]
    pub fn endpoints_per_node(&self) -> usize {
        self.chip.num_endpoints() as usize
    }

    /// Total endpoints in the machine.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        self.shape.num_nodes() * self.endpoints_per_node()
    }

    /// Dense linear index of a global endpoint.
    #[inline]
    pub fn endpoint_index(&self, ep: GlobalEndpoint) -> usize {
        ep.node.0 as usize * self.endpoints_per_node() + ep.ep.0 as usize
    }

    /// Global endpoint with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[inline]
    pub fn endpoint_at(&self, idx: usize) -> GlobalEndpoint {
        assert!(
            idx < self.num_endpoints(),
            "endpoint index {idx} out of range"
        );
        let per = self.endpoints_per_node();
        GlobalEndpoint {
            node: NodeId((idx / per) as u32),
            ep: LocalEndpointId((idx % per) as u8),
        }
    }

    /// Iterates over every global endpoint in index order.
    pub fn endpoints(&self) -> impl Iterator<Item = GlobalEndpoint> + '_ {
        (0..self.num_endpoints()).map(move |i| self.endpoint_at(i))
    }

    /// Coordinate of an endpoint's node.
    #[inline]
    pub fn node_coord(&self, ep: GlobalEndpoint) -> NodeCoord {
        self.shape.coord(ep.node)
    }

    /// Number of directed external torus links: every node drives one link
    /// per channel adapter (6 directions × 2 slices).
    #[inline]
    pub fn num_torus_links(&self) -> usize {
        self.shape.num_nodes() * NUM_CHAN_ADAPTERS
    }

    /// Dense linear index of the directed torus link departing `from`
    /// through channel adapter `chan` — the canonical link numbering used
    /// by fault schedules.
    #[inline]
    pub fn torus_link_index(&self, from: NodeId, chan: ChanId) -> usize {
        from.0 as usize * NUM_CHAN_ADAPTERS + chan.index()
    }

    /// Directed torus link with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[inline]
    pub fn torus_link_at(&self, idx: usize) -> (NodeId, ChanId) {
        assert!(
            idx < self.num_torus_links(),
            "torus link index {idx} out of range"
        );
        (
            NodeId((idx / NUM_CHAN_ADAPTERS) as u32),
            ChanId::from_index(idx % NUM_CHAN_ADAPTERS),
        )
    }

    /// Iterates over every directed torus link in index order.
    pub fn torus_links(&self) -> impl Iterator<Item = (NodeId, ChanId)> + '_ {
        (0..self.num_torus_links()).map(move |i| self.torus_link_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_index_roundtrip() {
        let cfg = MachineConfig::new(TorusShape::new(4, 2, 2));
        for (i, ep) in cfg.endpoints().enumerate() {
            assert_eq!(cfg.endpoint_index(ep), i);
            assert_eq!(cfg.endpoint_at(i), ep);
        }
        assert_eq!(cfg.num_endpoints(), 16 * 16);
    }

    #[test]
    fn torus_link_index_roundtrip() {
        let cfg = MachineConfig::new(TorusShape::new(4, 2, 2));
        for (i, (node, chan)) in cfg.torus_links().enumerate() {
            assert_eq!(cfg.torus_link_index(node, chan), i);
            assert_eq!(cfg.torus_link_at(i), (node, chan));
        }
        assert_eq!(cfg.num_torus_links(), 16 * 12);
    }

    #[test]
    fn defaults_match_paper() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        assert_eq!(cfg.vc_policy, VcPolicy::Anton);
        assert_eq!(cfg.endpoints_per_node(), 16);
    }
}
