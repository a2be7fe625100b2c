//! Table-based multicast (Section 2.3, Figure 3).
//!
//! The network supports multicast to an arbitrary set of destinations. A
//! multicast route is a tree of torus hops in which every path from the
//! source to a leaf is a valid (minimal, dimension-order) unicast route, so
//! multicast introduces no new VC dependencies. Destination sets are computed
//! at initialization and loaded into tables at the endpoint and channel
//! adapters; a group may hold several alternative trees (e.g. two different
//! dimension orders) and alternate between them to balance channel load.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::chip::LocalEndpointId;
use crate::routing::DimOrder;
use crate::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};

/// Identifier of a multicast group (an index into the multicast tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct McGroupId(pub u32);

impl fmt::Display for McGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mc{}", self.0)
    }
}

/// A multicast destination set: nodes and, per node, the endpoints that
/// receive a copy (separate copies minimize retrieval latency, Section 2.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DestSet {
    dests: BTreeMap<NodeCoord, BTreeSet<LocalEndpointId>>,
}

impl DestSet {
    /// An empty destination set.
    pub fn new() -> DestSet {
        DestSet::default()
    }

    /// Adds an endpoint to the set (duplicates are merged).
    pub fn add(&mut self, node: NodeCoord, ep: LocalEndpointId) -> &mut DestSet {
        self.dests.entry(node).or_default().insert(ep);
        self
    }

    /// Number of destination nodes.
    pub fn num_nodes(&self) -> usize {
        self.dests.len()
    }

    /// Total endpoint copies delivered.
    pub fn num_endpoints(&self) -> usize {
        self.dests.values().map(|e| e.len()).sum()
    }

    /// Iterates over `(node, endpoints)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeCoord, &BTreeSet<LocalEndpointId>)> {
        self.dests.iter().map(|(n, e)| (*n, e))
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.dests.is_empty()
    }

    /// Total torus hops needed to reach every node by separate unicasts.
    pub fn unicast_torus_hops(&self, shape: &TorusShape, src: NodeCoord) -> u32 {
        self.dests.keys().map(|d| shape.min_hops(src, *d)).sum()
    }
}

/// A node's multicast-table entry for one tree: which torus directions to
/// forward a copy on, and which local endpoints receive a copy.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct McEntry {
    /// Torus directions to forward copies on (on this tree's slice).
    pub forward: Vec<TorusDir>,
    /// Local endpoints that receive a copy at this node.
    pub local: Vec<LocalEndpointId>,
}

/// One multicast routing tree.
///
/// Every path from the source to a destination is a valid minimal
/// dimension-order unicast route in the tree's order, so the deadlock
/// analysis of Section 2.5 carries over unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McTree {
    /// Source node of the tree.
    pub src: NodeCoord,
    /// Dimension order every root→leaf path follows.
    pub order: DimOrder,
    /// Torus slice all of the tree's hops use.
    pub slice: Slice,
    /// Per-node table entries, keyed by node id.
    pub entries: BTreeMap<NodeId, McEntry>,
}

impl McTree {
    /// Builds the multicast tree for `dests` rooted at `src`.
    ///
    /// The tree routes each dimension of `order` in turn: it walks chains of
    /// hops along the current dimension, dropping off sub-trees at every node
    /// where destinations turn to the next dimension. Minimal-distance ties
    /// (`k/2` with `k` even) resolve to the positive direction so the two
    /// chains of a dimension can never meet.
    ///
    /// # Panics
    ///
    /// Panics if `dests` is empty.
    pub fn build(
        shape: &TorusShape,
        src: NodeCoord,
        dests: &DestSet,
        order: DimOrder,
        slice: Slice,
    ) -> McTree {
        assert!(
            !dests.is_empty(),
            "multicast tree needs at least one destination"
        );
        let mut tree = McTree {
            src,
            order,
            slice,
            entries: BTreeMap::new(),
        };
        let all: Vec<(NodeCoord, Vec<LocalEndpointId>)> = dests
            .iter()
            .map(|(n, e)| (n, e.iter().copied().collect()))
            .collect();
        tree.place(shape, src, &order.dims(), &all);
        tree
    }

    fn place(
        &mut self,
        shape: &TorusShape,
        node: NodeCoord,
        dims: &[Dim],
        dests: &[(NodeCoord, Vec<LocalEndpointId>)],
    ) {
        if dests.is_empty() {
            return;
        }
        let Some((&dim, rest)) = dims.split_first() else {
            // All dimensions routed: every destination must be this node.
            let entry = self.entries.entry(shape.id(node)).or_default();
            for (d, eps) in dests {
                assert_eq!(*d, node, "destination unreachable in dimension order");
                entry.local.extend(eps.iter().copied());
            }
            return;
        };
        // Group destinations by minimal signed offset along `dim`
        // (ties resolve toward +).
        let mut stay = Vec::new();
        let mut plus: BTreeMap<u32, Vec<(NodeCoord, Vec<LocalEndpointId>)>> = BTreeMap::new();
        let mut minus: BTreeMap<u32, Vec<(NodeCoord, Vec<LocalEndpointId>)>> = BTreeMap::new();
        for (d, eps) in dests {
            let off = shape.minimal_offset_choices(dim, node, *d)[0];
            match off.signum() {
                0 => stay.push((*d, eps.clone())),
                1 => plus.entry(off as u32).or_default().push((*d, eps.clone())),
                _ => minus
                    .entry((-off) as u32)
                    .or_default()
                    .push((*d, eps.clone())),
            }
        }
        self.place(shape, node, rest, &stay);
        for (sign, chain) in [(Sign::Plus, plus), (Sign::Minus, minus)] {
            let Some((&max_hops, _)) = chain.iter().next_back() else {
                continue;
            };
            let dir = TorusDir::new(dim, sign);
            let mut cur = node;
            for step in 1..=max_hops {
                let entry = self.entries.entry(shape.id(cur)).or_default();
                debug_assert!(!entry.forward.contains(&dir), "duplicate tree edge");
                entry.forward.push(dir);
                cur = shape.neighbor(cur, dir);
                if let Some(turning) = chain.get(&step) {
                    self.place(shape, cur, rest, turning);
                }
            }
        }
    }

    /// Table entry for a node, if the tree touches it.
    pub fn entry(&self, node: NodeId) -> Option<&McEntry> {
        self.entries.get(&node)
    }

    /// Total torus hops (tree edges) the multicast consumes.
    pub fn torus_hops(&self) -> u32 {
        self.entries.values().map(|e| e.forward.len() as u32).sum()
    }

    /// Load placed on each directed torus channel `(from-node, dir)` by one
    /// packet routed through this tree (1.0 per tree edge, on this tree's
    /// slice).
    pub fn link_loads(&self) -> BTreeMap<(NodeId, TorusDir), f64> {
        let mut loads = BTreeMap::new();
        for (node, entry) in &self.entries {
            for dir in &entry.forward {
                *loads.entry((*node, *dir)).or_insert(0.0) += 1.0;
            }
        }
        loads
    }

    /// Walks the tree from the source, returning every `(node, endpoints)`
    /// delivery and the per-leaf hop sequences.
    ///
    /// Used by tests and the Figure 3 runner to validate that the tree
    /// reaches exactly the destination set by valid dimension-order routes.
    pub fn traverse(&self, shape: &TorusShape) -> McTraversal {
        let mut deliveries: BTreeMap<NodeCoord, Vec<LocalEndpointId>> = BTreeMap::new();
        let mut paths = Vec::new();
        let mut stack = vec![(self.src, Vec::<TorusDir>::new())];
        while let Some((node, path)) = stack.pop() {
            if let Some(entry) = self.entry(shape.id(node)) {
                if !entry.local.is_empty() {
                    deliveries
                        .entry(node)
                        .or_default()
                        .extend(entry.local.iter().copied());
                    paths.push((node, path.clone()));
                }
                for dir in &entry.forward {
                    let mut p = path.clone();
                    p.push(*dir);
                    stack.push((shape.neighbor(node, *dir), p));
                }
            } else if path.is_empty() {
                // Source node with no entry: tree delivers nothing here.
            }
        }
        McTraversal { deliveries, paths }
    }
}

/// Result of walking a multicast tree.
#[derive(Debug, Clone, PartialEq)]
pub struct McTraversal {
    /// Every delivery the tree makes: node → endpoint copies.
    pub deliveries: BTreeMap<NodeCoord, Vec<LocalEndpointId>>,
    /// For each delivering node, the hop sequence from the source.
    pub paths: Vec<(NodeCoord, Vec<TorusDir>)>,
}

/// A multicast group: a destination set plus one or more alternative trees.
#[derive(Debug, Clone, PartialEq)]
pub struct McGroup {
    /// Group id used in packet headers.
    pub id: McGroupId,
    /// Source node the group's trees are rooted at.
    pub src: NodeCoord,
    /// The destination set.
    pub dests: DestSet,
    /// Alternative routing trees; packets select one by index.
    pub trees: Vec<McTree>,
}

impl McGroup {
    /// Builds a group with one tree per `(order, slice)` variant.
    ///
    /// # Panics
    ///
    /// Panics if `variants` or `dests` is empty.
    pub fn build(
        shape: &TorusShape,
        id: McGroupId,
        src: NodeCoord,
        dests: DestSet,
        variants: &[(DimOrder, Slice)],
    ) -> McGroup {
        assert!(
            !variants.is_empty(),
            "multicast group needs at least one tree"
        );
        let trees = variants
            .iter()
            .map(|(order, slice)| McTree::build(shape, src, &dests, *order, *slice))
            .collect();
        McGroup {
            id,
            src,
            dests,
            trees,
        }
    }

    /// Torus hops saved per packet versus unicasting to every destination
    /// node (averaged over the group's trees).
    pub fn hops_saved(&self, shape: &TorusShape) -> f64 {
        let unicast = self.dests.unicast_torus_hops(shape, self.src) as f64;
        let tree_avg = self
            .trees
            .iter()
            .map(|t| t.torus_hops() as f64)
            .sum::<f64>()
            / self.trees.len() as f64;
        unicast - tree_avg
    }

    /// Per-channel load of one packet, averaged over the group's trees
    /// (alternating trees per packet realizes this average).
    pub fn blended_link_loads(&self) -> BTreeMap<(NodeId, TorusDir, Slice), f64> {
        let mut loads = BTreeMap::new();
        let w = 1.0 / self.trees.len() as f64;
        for tree in &self.trees {
            for ((node, dir), l) in tree.link_loads() {
                *loads.entry((node, dir, tree.slice)).or_insert(0.0) += l * w;
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_halo(shape: &TorusShape, src: NodeCoord) -> DestSet {
        // The 8 surrounding nodes in the XY plane.
        let mut set = DestSet::new();
        for dx in [-1i32, 0, 1] {
            for dy in [-1i32, 0, 1] {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let k = shape.k(Dim::X) as i32;
                let ky = shape.k(Dim::Y) as i32;
                let n = NodeCoord::new(
                    ((src.x as i32 + dx).rem_euclid(k)) as u8,
                    ((src.y as i32 + dy).rem_euclid(ky)) as u8,
                    src.z,
                );
                set.add(n, LocalEndpointId(0));
            }
        }
        set
    }

    #[test]
    fn tree_reaches_exactly_the_destinations() {
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(3, 3, 3);
        let dests = plane_halo(&shape, src);
        for order in DimOrder::ALL {
            let tree = McTree::build(&shape, src, &dests, order, Slice(0));
            let walk = tree.traverse(&shape);
            let reached: DestSet = {
                let mut s = DestSet::new();
                for (n, eps) in &walk.deliveries {
                    for e in eps {
                        s.add(*n, *e);
                    }
                }
                s
            };
            assert_eq!(reached, dests, "order {order}");
        }
    }

    #[test]
    fn tree_paths_are_minimal_dimension_order_routes() {
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(1, 6, 0);
        let dests = plane_halo(&shape, src);
        for order in DimOrder::ALL {
            let tree = McTree::build(&shape, src, &dests, order, Slice(1));
            for (leaf, path) in tree.traverse(&shape).paths {
                assert_eq!(
                    path.len() as u32,
                    shape.min_hops(src, leaf),
                    "minimal to {leaf}"
                );
                // Dimensions appear in tree order, contiguously.
                let mut rank = 0;
                let mut last: Option<Dim> = None;
                for hop in &path {
                    if last != Some(hop.dim) {
                        let p = order.position(hop.dim);
                        assert!(p >= rank, "order violated toward {leaf}");
                        rank = p;
                        last = Some(hop.dim);
                    }
                }
            }
        }
    }

    #[test]
    fn halo_multicast_saves_hops() {
        // 3x3 plane halo: 12 unicast hops, 8 tree edges -> saves 4
        // (the paper's Figure 3 set, drawn from a larger import region,
        // saves 12; the mechanism is identical).
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(4, 4, 4);
        let dests = plane_halo(&shape, src);
        assert_eq!(dests.unicast_torus_hops(&shape, src), 12);
        let tree = McTree::build(&shape, src, &dests, DimOrder::XYZ, Slice(0));
        assert_eq!(tree.torus_hops(), 8);
    }

    #[test]
    fn alternating_trees_balance_load() {
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(4, 4, 4);
        let dests = plane_halo(&shape, src);
        let single = McGroup::build(
            &shape,
            McGroupId(0),
            src,
            dests.clone(),
            &[(DimOrder::XYZ, Slice(0))],
        );
        let alternating = McGroup::build(
            &shape,
            McGroupId(1),
            src,
            dests,
            &[
                (DimOrder::XYZ, Slice(0)),
                (DimOrder::new([Dim::Y, Dim::X, Dim::Z]), Slice(1)),
            ],
        );
        let max_single = single
            .blended_link_loads()
            .values()
            .cloned()
            .fold(0.0, f64::max);
        let max_alt = alternating
            .blended_link_loads()
            .values()
            .cloned()
            .fold(0.0, f64::max);
        assert!(
            max_alt < max_single,
            "alternating trees should lower the peak channel load ({max_alt} vs {max_single})"
        );
    }

    #[test]
    fn local_delivery_at_source() {
        let shape = TorusShape::cube(4);
        let src = NodeCoord::new(0, 0, 0);
        let mut dests = DestSet::new();
        dests
            .add(src, LocalEndpointId(3))
            .add(NodeCoord::new(1, 0, 0), LocalEndpointId(0));
        let tree = McTree::build(&shape, src, &dests, DimOrder::XYZ, Slice(0));
        let entry = tree.entry(shape.id(src)).unwrap();
        assert_eq!(entry.local, vec![LocalEndpointId(3)]);
        assert_eq!(tree.torus_hops(), 1);
    }

    #[test]
    fn tie_break_chains_cannot_meet() {
        // k = 4, destinations straight across the torus in X.
        let shape = TorusShape::cube(4);
        let src = NodeCoord::new(0, 0, 0);
        let mut dests = DestSet::new();
        dests.add(NodeCoord::new(2, 0, 0), LocalEndpointId(0)); // distance k/2 both ways
        dests.add(NodeCoord::new(3, 0, 0), LocalEndpointId(0));
        let tree = McTree::build(&shape, src, &dests, DimOrder::XYZ, Slice(0));
        let walk = tree.traverse(&shape);
        assert_eq!(walk.deliveries.len(), 2);
        // 2 hops (+) for the tie node, 1 hop (-) for node 3.
        assert_eq!(tree.torus_hops(), 3);
    }

    #[test]
    fn multi_endpoint_copies() {
        let shape = TorusShape::cube(4);
        let src = NodeCoord::new(0, 0, 0);
        let mut dests = DestSet::new();
        dests
            .add(NodeCoord::new(1, 0, 0), LocalEndpointId(0))
            .add(NodeCoord::new(1, 0, 0), LocalEndpointId(5));
        assert_eq!(dests.num_nodes(), 1);
        assert_eq!(dests.num_endpoints(), 2);
        let tree = McTree::build(&shape, src, &dests, DimOrder::XYZ, Slice(0));
        let entry = tree.entry(shape.id(NodeCoord::new(1, 0, 0))).unwrap();
        assert_eq!(entry.local.len(), 2);
    }
}
