//! Fault-aware route tables for degraded tori.
//!
//! Healthy machines route with the oblivious minimal dimension-order scheme
//! in [`crate::routing`]. When a [`FaultSchedule`](../../anton_fault) takes
//! external links `Down`, minimal dimension-order is no longer total: some
//! minimal path crosses the dead link. This module generates, per slice, the
//! route of every node pair over the *live* link graph (the Angara-style
//! approach: table-driven routing recomputed from the current topology
//! view). Every route is a [`RouteSpec`] — at most three single-direction
//! runs — so the structural half of the n+1-VC argument holds by
//! construction:
//!
//! * **Direction-ordered generation** ([`TableMethod::DirectionOrdered`]):
//!   dimensions are still traversed in canonical X, Y, Z order, but the
//!   travel direction around each ring is chosen to avoid down links — the
//!   long way around (up to `k − 1` hops) when the minimal side is severed.
//!   The resulting paths keep the structural shape the n+1-VC promotion
//!   algorithm relies on (one single-direction arc per dimension, at most
//!   one dateline crossing each), so every such table is *certifiable*;
//!   any *single* down link always leaves the other direction of its ring
//!   intact, so single-link failures never need more than this. Note that
//!   certifiable is a per-table-set property, not a family one: the union
//!   of all long-way tables at once is genuinely cyclic on `k ≥ 4` tori
//!   (see `anton_verify::degraded`), so each concrete degradation is
//!   certified explicitly before install.
//! * **BFS fallback** ([`TableMethod::Bfs`]): when some ring is severed in
//!   both directions, a per-destination breadth-first search over the live
//!   graph produces shortest detour paths, preferring hop choices that
//!   minimize dimension-run counts. These may still zig-zag between
//!   dimensions, so each detour becomes a route only through
//!   [`RouteSpec::from_hops`], and the table still needs the explicit
//!   per-table certification before install.
//!
//! On a healthy torus the direction-ordered table degenerates to minimal
//! XYZ dimension-order routing exactly — the provably-identical fast path.

use std::fmt;

use crate::chip::ChanId;
use crate::routing::{DimOrder, RouteSpec};
use crate::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};

/// The set of directed external torus links currently down, as a dense
/// bitset over the canonical link numbering
/// ([`crate::config::MachineConfig::torus_link_index`] layout: `node × 12 +
/// chan.index()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DownLinkSet {
    shape: TorusShape,
    down: Vec<bool>,
    count: usize,
}

impl DownLinkSet {
    /// An empty set over the given torus shape.
    pub fn empty(shape: TorusShape) -> DownLinkSet {
        DownLinkSet {
            shape,
            down: vec![false; shape.num_nodes() * crate::chip::NUM_CHAN_ADAPTERS],
            count: 0,
        }
    }

    /// Builds a set from an iterator of `(from, chan)` directed links.
    pub fn from_links(
        shape: TorusShape,
        links: impl IntoIterator<Item = (NodeId, ChanId)>,
    ) -> DownLinkSet {
        let mut set = DownLinkSet::empty(shape);
        for (from, chan) in links {
            set.insert(from, chan);
        }
        set
    }

    #[inline]
    fn index(&self, from: NodeId, chan: ChanId) -> usize {
        from.0 as usize * crate::chip::NUM_CHAN_ADAPTERS + chan.index()
    }

    /// Marks the directed link departing `from` through `chan` as down.
    pub fn insert(&mut self, from: NodeId, chan: ChanId) {
        let idx = self.index(from, chan);
        if !self.down[idx] {
            self.down[idx] = true;
            self.count += 1;
        }
    }

    /// Whether the directed link departing `from` through `chan` is down.
    #[inline]
    pub fn contains(&self, from: NodeId, chan: ChanId) -> bool {
        self.down[self.index(from, chan)]
    }

    /// Whether no links are down.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of down directed links.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// The shape this set is defined over.
    #[inline]
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Iterates over the down links in canonical index order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, ChanId)> + '_ {
        self.down
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d)
            .map(|(i, _)| {
                (
                    NodeId((i / crate::chip::NUM_CHAN_ADAPTERS) as u32),
                    ChanId::from_index(i % crate::chip::NUM_CHAN_ADAPTERS),
                )
            })
    }
}

/// How a route table was generated (and therefore how it must be certified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMethod {
    /// Canonical-order (X, Y, Z) traversal with per-ring direction choice.
    /// Member of the symbolically certified direction-ordered family.
    DirectionOrdered,
    /// Per-destination BFS over the live graph. Requires explicit per-table
    /// certification before install.
    Bfs,
}

impl fmt::Display for TableMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableMethod::DirectionOrdered => write!(f, "direction-ordered"),
            TableMethod::Bfs => write!(f, "bfs"),
        }
    }
}

/// Why a route table is unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteTableError {
    /// No live path exists between the pair (machine partitioned).
    Unreachable {
        /// Source node of the severed pair.
        src: NodeId,
        /// Destination node of the severed pair.
        dst: NodeId,
    },
    /// A path violates the n+1-VC state machine's structural requirements.
    NotVcCompatible {
        /// Source node of the offending path.
        src: NodeId,
        /// Destination node of the offending path.
        dst: NodeId,
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl fmt::Display for RouteTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteTableError::Unreachable { src, dst } => {
                write!(f, "no live path from {src} to {dst}")
            }
            RouteTableError::NotVcCompatible { src, dst, reason } => {
                write!(f, "path {src} -> {dst} is not VC-compatible: {reason}")
            }
        }
    }
}

/// The route of every `(src, dst)` pair on one slice (slices are physically
/// independent networks, so each gets its own table). Every route is a
/// [`RouteSpec`], so a table cannot hold a path the n+1-VC state machine
/// cannot carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    shape: TorusShape,
    slice: Slice,
    method: TableMethod,
    /// `routes[src * n + dst]`.
    routes: Vec<RouteSpec>,
}

impl RouteTable {
    /// The slice this table routes.
    #[inline]
    pub fn slice(&self) -> Slice {
        self.slice
    }

    /// The shape this table routes over.
    #[inline]
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// How this table was generated.
    #[inline]
    pub fn method(&self) -> TableMethod {
        self.method
    }

    /// The route from `src` to `dst`: no hops when they are one node.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId) -> RouteSpec {
        self.routes[src.0 as usize * self.shape.num_nodes() + dst.0 as usize]
    }
}

/// Builds the route table of one slice over the live link graph.
///
/// Tries direction-ordered generation first (certified as a family); falls
/// back to per-destination BFS when some ring is severed in both directions.
/// Fails when the down set partitions the slice's network, or when a BFS
/// detour is not a [`RouteSpec`] ([`RouteSpec::from_hops`] says why).
pub fn build_route_table(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
) -> Result<RouteTable, RouteTableError> {
    let (method, routes) = match direction_ordered(shape, slice, downs) {
        Some(routes) => (TableMethod::DirectionOrdered, routes),
        None => (TableMethod::Bfs, bfs_routes(shape, slice, downs)?),
    };
    Ok(RouteTable {
        shape: *shape,
        slice,
        method,
        routes,
    })
}

/// Direction-ordered generation: canonical X, Y, Z dimension order with the
/// per-ring travel direction chosen to avoid down links, one run per
/// dimension. Returns `None` if any required ring is blocked in both
/// directions.
///
/// A ring's choice is made where the route enters the ring, and it is the
/// choice every node along the run would make too: after one hop in the
/// chosen direction the blocked side stays blocked and the clear side stays
/// clear, so a next-hop table built node by node walks the same run.
fn direction_ordered(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
) -> Option<Vec<RouteSpec>> {
    let n = shape.num_nodes();
    let mut routes = Vec::with_capacity(n * n);
    for src in shape.nodes() {
        for dst in shape.nodes() {
            let mut at = src;
            let mut offsets = [0; 3];
            for dim in Dim::ALL {
                if at.get(dim) != dst.get(dim) {
                    offsets[dim.index()] = ring_offset(shape, slice, downs, dim, at, dst)?;
                    at = at.with(dim, dst.get(dim));
                }
            }
            routes.push(RouteSpec::new(DimOrder::XYZ, slice, offsets));
        }
    }
    Some(routes)
}

/// The signed run along `dim`'s ring from `cur` to `dst`: the minimal side
/// if every link on it is up (ties prefer `+`, matching
/// [`TorusShape::minimal_offsets`]), otherwise the long way around, or
/// `None` when both sides are blocked.
fn ring_offset(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
    dim: Dim,
    cur: NodeCoord,
    dst: NodeCoord,
) -> Option<i32> {
    let k = i32::from(shape.k(dim));
    let d_plus = (i32::from(dst.get(dim)) - i32::from(cur.get(dim))).rem_euclid(k);
    debug_assert!(d_plus != 0);
    let d_minus = k - d_plus;
    let clear = |sign: Sign, len: i32| -> bool {
        let dir = TorusDir::new(dim, sign);
        let chan = ChanId { dir, slice };
        let mut c = cur;
        for _ in 0..len {
            if downs.contains(shape.id(c), chan) {
                return false;
            }
            c = shape.neighbor(c, dir);
        }
        true
    };
    let (first, second) = if d_plus <= d_minus {
        ((Sign::Plus, d_plus), (Sign::Minus, d_minus))
    } else {
        ((Sign::Minus, d_minus), (Sign::Plus, d_plus))
    };
    [first, second]
        .into_iter()
        .find(|&(sign, len)| clear(sign, len))
        .map(|(sign, len)| sign.delta() * len)
}

/// BFS fallback: for each destination, a breadth-first search backward over
/// the live link graph yields shortest detour paths. Among the equal-length
/// choices at each node, the hop whose downstream path continues in the
/// same direction is preferred (minimizing the number of dimension runs —
/// the VC-promotion budget allows at most three); remaining ties follow
/// [`TorusDir::ALL`] order, so the table is deterministic.
///
/// A partition is reported before any detour that is not a [`RouteSpec`];
/// each is the first in destination-major order.
fn bfs_routes(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
) -> Result<Vec<RouteSpec>, RouteTableError> {
    let n = shape.num_nodes();
    let mut routes = vec![RouteSpec::new(DimOrder::XYZ, slice, [0; 3]); n * n];
    let mut not_vc_compatible = None;
    let mut dist = vec![u32::MAX; n];
    let mut runs_from = vec![u32::MAX; n];
    let mut first_dir: Vec<Option<TorusDir>> = vec![None; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    let mut hops = Vec::new();
    for dst_id in 0..n {
        // Pass 1: shortest live distance to the destination. Discovery
        // order is nondecreasing in distance.
        dist.fill(u32::MAX);
        dist[dst_id] = 0;
        order.clear();
        queue.clear();
        queue.push_back(NodeId(dst_id as u32));
        while let Some(v) = queue.pop_front() {
            let vc = shape.coord(v);
            for dir in TorusDir::ALL {
                // `u --dir--> v`, so u sits one hop *opposite* of v; the
                // link that must be up departs u through `dir`.
                let u = shape.id(shape.neighbor(vc, dir.opposite()));
                if u == v || dist[u.0 as usize] != u32::MAX {
                    continue;
                }
                if downs.contains(u, ChanId { dir, slice }) {
                    continue;
                }
                dist[u.0 as usize] = dist[v.0 as usize] + 1;
                order.push(u);
                queue.push_back(u);
            }
        }
        let dst = NodeId(dst_id as u32);
        if let Some(src) = dist.iter().position(|&d| d == u32::MAX) {
            let src = NodeId(src as u32);
            return Err(RouteTableError::Unreachable { src, dst });
        }
        // Pass 2: walking outward by distance, pick each node's next hop
        // among its shortest-path successors to minimize the downstream
        // run count (a hop extends the successor's first run when it
        // continues in the same direction).
        runs_from[dst_id] = 0;
        first_dir[dst_id] = None;
        for &u in &order {
            let ucoord = shape.coord(u);
            let mut best: Option<(u32, TorusDir)> = None;
            for dir in TorusDir::ALL {
                if downs.contains(u, ChanId { dir, slice }) {
                    continue;
                }
                let w = shape.id(shape.neighbor(ucoord, dir));
                if w == u || dist[w.0 as usize] != dist[u.0 as usize] - 1 {
                    continue;
                }
                let runs =
                    runs_from[w.0 as usize] + u32::from(first_dir[w.0 as usize] != Some(dir));
                if best.is_none_or(|(b, _)| runs < b) {
                    best = Some((runs, dir));
                }
            }
            let (runs, dir) = best.expect("discovered node has a shortest-path successor");
            runs_from[u.0 as usize] = runs;
            first_dir[u.0 as usize] = Some(dir);
        }
        // Each source's detour follows the chosen hops down to distance 0.
        for src in 0..n {
            hops.clear();
            let mut at = shape.coord(NodeId(src as u32));
            while let Some(dir) = first_dir[shape.id(at).0 as usize] {
                hops.push(dir);
                at = shape.neighbor(at, dir);
            }
            match RouteSpec::from_hops(shape, slice, &hops) {
                Ok(spec) => routes[src * n + dst_id] = spec,
                Err(reason) => {
                    let src = NodeId(src as u32);
                    not_vc_compatible.get_or_insert(RouteTableError::NotVcCompatible {
                        src,
                        dst,
                        reason,
                    });
                }
            }
        }
    }
    not_vc_compatible.map_or(Ok(routes), Err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(dim: Dim, sign: Sign, slice: Slice) -> ChanId {
        ChanId {
            dir: TorusDir::new(dim, sign),
            slice,
        }
    }

    #[test]
    fn healthy_table_is_minimal_xyz_dimension_order() {
        let shape = TorusShape::new(4, 3, 2);
        let downs = DownLinkSet::empty(shape);
        let table = build_route_table(&shape, Slice(0), &downs).unwrap();
        assert_eq!(table.method(), TableMethod::DirectionOrdered);
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let want =
                    RouteSpec::deterministic(&shape, src, dst, DimOrder::XYZ, Slice(0)).hops();
                let got = table.route(shape.id(src), shape.id(dst)).hops();
                assert_eq!(got, want, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn every_single_link_failure_stays_direction_ordered() {
        let shape = TorusShape::cube(3);
        for slice in Slice::ALL {
            for (from, down_chan) in
                (0..shape.num_nodes() * crate::chip::NUM_CHAN_ADAPTERS).map(|i| {
                    (
                        NodeId((i / crate::chip::NUM_CHAN_ADAPTERS) as u32),
                        ChanId::from_index(i % crate::chip::NUM_CHAN_ADAPTERS),
                    )
                })
            {
                if down_chan.slice != slice {
                    continue;
                }
                let downs = DownLinkSet::from_links(shape, [(from, down_chan)]);
                let table = build_route_table(&shape, slice, &downs).unwrap();
                assert_eq!(table.method(), TableMethod::DirectionOrdered);
                // No path may traverse the down link.
                for src in shape.nodes() {
                    for dst in shape.nodes() {
                        let mut cur = src;
                        for hop in table.route(shape.id(src), shape.id(dst)).hops() {
                            assert!(
                                !(shape.id(cur) == from && hop == down_chan.dir),
                                "path {src}->{dst} crosses down link {from}/{down_chan}"
                            );
                            cur = shape.neighbor(cur, hop);
                        }
                        assert_eq!(cur, dst);
                    }
                }
            }
        }
    }

    #[test]
    fn long_way_around_taken_when_minimal_side_is_down() {
        let shape = TorusShape::cube(8);
        // Minimal route 1 -> 3 along +X; kill the link departing node (2,0,0)
        // in +X, forcing the 6-hop detour through the -X side.
        let bad = shape.id(NodeCoord::new(2, 0, 0));
        let downs = DownLinkSet::from_links(shape, [(bad, chan(Dim::X, Sign::Plus, Slice(0)))]);
        let table = build_route_table(&shape, Slice(0), &downs).unwrap();
        let src = shape.id(NodeCoord::new(1, 0, 0));
        let dst = shape.id(NodeCoord::new(3, 0, 0));
        let path = table.route(src, dst).hops();
        assert_eq!(path, [TorusDir::new(Dim::X, Sign::Minus); 6]);
    }

    #[test]
    fn other_slice_unaffected_by_down_link() {
        let shape = TorusShape::cube(4);
        let bad = shape.id(NodeCoord::new(0, 0, 0));
        let downs = DownLinkSet::from_links(shape, [(bad, chan(Dim::X, Sign::Plus, Slice(0)))]);
        let healthy = build_route_table(&shape, Slice(1), &DownLinkSet::empty(shape)).unwrap();
        let degraded = build_route_table(&shape, Slice(1), &downs).unwrap();
        assert_eq!(healthy, degraded);
    }

    #[test]
    fn severed_ring_falls_back_to_bfs() {
        let shape = TorusShape::new(4, 4, 1);
        // Block travel out of the y=0 x-ring's node 0 toward node 2 in both
        // rotations: +X out of x=1 and -X out of x=3. The pair (0,0) ->
        // (2,0) is then blocked clockwise *and* counterclockwise, so
        // direction-ordered generation fails and BFS detours through y.
        let downs = DownLinkSet::from_links(
            shape,
            [
                (
                    shape.id(NodeCoord::new(1, 0, 0)),
                    chan(Dim::X, Sign::Plus, Slice(0)),
                ),
                (
                    shape.id(NodeCoord::new(3, 0, 0)),
                    chan(Dim::X, Sign::Minus, Slice(0)),
                ),
            ],
        );
        let table = build_route_table(&shape, Slice(0), &downs).unwrap();
        assert_eq!(table.method(), TableMethod::Bfs);
        let src = shape.id(NodeCoord::new(0, 0, 0));
        let dst = shape.id(NodeCoord::new(2, 0, 0));
        let path = table.route(src, dst).hops();
        assert!(
            path.iter().any(|h| h.dim == Dim::Y),
            "must detour: {path:?}"
        );
        let mut cur = NodeCoord::new(0, 0, 0);
        for hop in &path {
            cur = shape.neighbor(cur, *hop);
        }
        assert_eq!(cur, NodeCoord::new(2, 0, 0));
    }

    #[test]
    fn partitioned_network_reports_unreachable() {
        let shape = TorusShape::new(2, 1, 1);
        // Two nodes, one x-ring consisting of the +/- link pair in each
        // direction; kill every link departing node 0 on slice 0.
        let n0 = NodeId(0);
        let downs = DownLinkSet::from_links(
            shape,
            [
                (n0, chan(Dim::X, Sign::Plus, Slice(0))),
                (n0, chan(Dim::X, Sign::Minus, Slice(0))),
            ],
        );
        let err = build_route_table(&shape, Slice(0), &downs).unwrap_err();
        match err {
            RouteTableError::Unreachable { src, dst } => {
                assert_eq!((src, dst), (NodeId(0), NodeId(1)));
            }
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    #[test]
    fn down_link_set_roundtrip() {
        let shape = TorusShape::cube(4);
        let mut set = DownLinkSet::empty(shape);
        assert!(set.is_empty());
        let l0 = (NodeId(3), chan(Dim::Y, Sign::Minus, Slice(1)));
        let l1 = (NodeId(7), chan(Dim::Z, Sign::Plus, Slice(0)));
        set.insert(l0.0, l0.1);
        set.insert(l0.0, l0.1); // idempotent
        set.insert(l1.0, l1.1);
        assert_eq!(set.len(), 2);
        assert!(set.contains(l0.0, l0.1));
        assert!(!set.contains(NodeId(3), chan(Dim::Y, Sign::Plus, Slice(1))));
        let links: Vec<_> = set.iter().collect();
        assert_eq!(links, vec![l0, l1]);
    }
}
