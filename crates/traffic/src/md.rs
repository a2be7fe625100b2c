//! MD-like multicast workloads (Section 2.3, Figure 3).
//!
//! In molecular dynamics, broadcasting a particle's position to the
//! endpoints of its neighboring nodes is an extremely common communication
//! pattern. This module builds the halo destination sets and the per-node
//! multicast groups an MD time step would load into the multicast tables at
//! initialization.

use anton_core::chip::LocalEndpointId;
use anton_core::config::MachineConfig;
use anton_core::multicast::{DestSet, McGroup, McGroupId};
use anton_core::pattern::offset_node;
use anton_core::routing::DimOrder;
use anton_core::topology::{Dim, NodeCoord, Slice};

/// Shape of a halo destination set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloSpec {
    /// Neighborhood radius in nodes (1 for the 3×3(×3) halo).
    pub radius: u8,
    /// If set, restrict the halo to the plane normal to this dimension
    /// (Figure 3 shows one plane of the torus).
    pub plane_normal: Option<Dim>,
    /// Endpoint copies written per destination node.
    pub endpoints_per_node: u8,
}

impl Default for HaloSpec {
    fn default() -> HaloSpec {
        HaloSpec {
            radius: 1,
            plane_normal: None,
            endpoints_per_node: 1,
        }
    }
}

/// Builds the halo destination set around `src`.
///
/// # Panics
///
/// Panics if the radius is zero or the endpoint copies exceed the node's
/// endpoint count.
pub fn halo_dest_set(cfg: &MachineConfig, src: NodeCoord, spec: HaloSpec) -> DestSet {
    assert!(spec.radius > 0, "halo radius must be at least 1");
    assert!(
        (spec.endpoints_per_node as usize) <= cfg.endpoints_per_node(),
        "halo endpoint copies exceed endpoints per node"
    );
    let r = i32::from(spec.radius);
    let range = |d: Dim| -> Vec<i32> {
        if spec.plane_normal == Some(d) {
            vec![0]
        } else {
            (-r..=r).collect()
        }
    };
    let mut set = DestSet::new();
    for dx in range(Dim::X) {
        for dy in range(Dim::Y) {
            for dz in range(Dim::Z) {
                if dx == 0 && dy == 0 && dz == 0 {
                    continue;
                }
                let node = offset_node(cfg, src, [dx, dy, dz]);
                if node == src {
                    continue; // wraparound alias on tiny tori
                }
                for e in 0..spec.endpoints_per_node {
                    set.add(node, LocalEndpointId(e));
                }
            }
        }
    }
    set
}

/// The two alternating tree variants Figure 3 illustrates: opposite
/// dimension orders on opposite slices, so consecutive packets balance the
/// load on the most heavily utilized torus channels.
pub fn alternating_variants() -> [(DimOrder, Slice); 2] {
    [
        (DimOrder::new([Dim::X, Dim::Y, Dim::Z]), Slice(0)),
        (DimOrder::new([Dim::Z, Dim::Y, Dim::X]), Slice(1)),
    ]
}

/// Builds one multicast group per node of the machine (group id = node id),
/// each broadcasting to its halo — the full table set an MD simulation loads
/// at initialization.
pub fn build_halo_groups(
    cfg: &MachineConfig,
    spec: HaloSpec,
    variants: &[(DimOrder, Slice)],
) -> Vec<McGroup> {
    cfg.shape
        .nodes()
        .map(|src| {
            let dests = halo_dest_set(cfg, src, spec);
            McGroup::build(
                &cfg.shape,
                McGroupId(cfg.shape.id(src).0),
                src,
                dests,
                variants,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::topology::TorusShape;

    #[test]
    fn plane_halo_has_eight_nodes() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let spec = HaloSpec {
            plane_normal: Some(Dim::Z),
            ..HaloSpec::default()
        };
        let set = halo_dest_set(&cfg, NodeCoord::new(4, 4, 4), spec);
        assert_eq!(set.num_nodes(), 8);
    }

    #[test]
    fn full_halo_has_26_nodes() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let set = halo_dest_set(&cfg, NodeCoord::new(0, 0, 0), HaloSpec::default());
        assert_eq!(set.num_nodes(), 26);
    }

    #[test]
    fn multicast_beats_unicast_for_full_halo() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let src = NodeCoord::new(2, 2, 2);
        let dests = halo_dest_set(&cfg, src, HaloSpec::default());
        let group = McGroup::build(
            &cfg.shape,
            McGroupId(0),
            src,
            dests,
            &alternating_variants(),
        );
        // 26-node halo: unicast needs sum of min-hop distances
        // (6*1 + 12*2 + 8*3 = 54); the tree needs 26 edges, saving 28.
        assert_eq!(group.dests.unicast_torus_hops(&cfg.shape, src), 54);
        assert!((group.hops_saved(&cfg.shape) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn per_node_groups_cover_machine() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let groups = build_halo_groups(&cfg, HaloSpec::default(), &alternating_variants());
        assert_eq!(groups.len(), 64);
        for g in &groups {
            assert_eq!(g.trees.len(), 2);
            assert_eq!(g.dests.num_nodes(), 26);
        }
    }

    #[test]
    fn endpoint_copies_multiply() {
        let cfg = MachineConfig::new(TorusShape::cube(8));
        let spec = HaloSpec {
            endpoints_per_node: 4,
            ..HaloSpec::default()
        };
        let set = halo_dest_set(&cfg, NodeCoord::new(0, 0, 0), spec);
        assert_eq!(set.num_endpoints(), 26 * 4);
    }
}
