//! Fault-aware route tables for degraded tori.
//!
//! Healthy machines route with the oblivious minimal dimension-order scheme
//! in [`crate::routing`]. When a [`FaultSchedule`](../../anton_fault) takes
//! external links `Down`, minimal dimension-order is no longer total: some
//! minimal path crosses the dead link. This module generates, per slice, the
//! route of every node pair over the *live* link graph (the Angara-style
//! approach: table-driven routing recomputed from the current topology
//! view). Every route is a [`RouteSpec`] — at most three single-direction
//! runs, the n+1-VC promotion budget — and a pair's route is the first live
//! one of:
//!
//! * **One run per dimension**, in each of [`DimOrder::ALL`] in turn, XYZ
//!   first. Each ring is travelled its minimal way if every link on that
//!   side is up (ties go `+`), and otherwise the long way around (up to
//!   `k − 1` hops). A ring's side does not depend on the other rings'
//!   signs, so an order serves the pair exactly when each of its rings has
//!   a live side. Any *single* down link leaves the other side of its ring
//!   intact, so single-link failures are served in XYZ order, and a healthy
//!   table is minimal XYZ dimension-order routing exactly.
//! * **A split detour** `a x, b y, a z`, the fewest hops first: out along
//!   one dimension, the whole way along a second, and on along the first
//!   (`−Y +X +X +Y`), for a pair whose third dimension needs no hop. It
//!   serves a pair whose ring is cut in both directions.
//!
//! Together these are every route of at most three runs, so a pair with
//! none of them live has no route the n+1-VC state machine can carry. The
//! table then fails: as a partition when some pair has no live path at
//! all, and otherwise as not VC-compatible. Certifiable is a per-table-set
//! property, not a family one: the union of all long-way tables at once is
//! genuinely cyclic on `k ≥ 4` tori (see `anton_verify::degraded`), so each
//! concrete degradation is certified explicitly before install.

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
    /// The pair has live paths, but none of at most three runs: none the
    /// n+1-VC state machine can carry.
    NotVcCompatible {
        /// Source node of the pair.
        src: NodeId,
        /// Destination node of the pair.
        dst: NodeId,
    },
}

impl fmt::Display for RouteTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteTableError::Unreachable { src, dst } => {
                write!(f, "no live path from {src} to {dst}")
            }
            RouteTableError::NotVcCompatible { src, dst } => {
                write!(f, "{src} -> {dst} has no live route of at most three runs")
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

    /// The route from `src` to `dst`: no hops when they are one node.
    #[inline]
    pub fn route(&self, src: NodeId, dst: NodeId) -> RouteSpec {
        self.routes[src.0 as usize * self.shape.num_nodes() + dst.0 as usize]
    }
}

/// Builds the route table of one slice over the live link graph: each pair
/// takes its first live route of at most three runs (see the module docs).
/// Fails when the down set partitions the slice's network, reported first,
/// or when some pair has no live route the n+1-VC state machine can carry.
pub fn build_route_table(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
) -> Result<RouteTable, RouteTableError> {
    let n = shape.num_nodes();
    let mut routes = Vec::with_capacity(n * n);
    for src in shape.nodes() {
        for dst in shape.nodes() {
            let route = one_run_per_dim(shape, slice, downs, src, dst)
                .or_else(|| split_detour(shape, slice, downs, src, dst));
            let Some(route) = route else {
                let (src, dst) = (shape.id(src), shape.id(dst));
                return Err(match first_unreachable(shape, slice, downs) {
                    Some((src, dst)) => RouteTableError::Unreachable { src, dst },
                    None => RouteTableError::NotVcCompatible { src, dst },
                });
            };
            routes.push(route);
        }
    }
    Ok(RouteTable {
        shape: *shape,
        slice,
        routes,
    })
}

/// The pair's first live route of one run per dimension, trying each
/// dimension order in turn, XYZ first.
fn one_run_per_dim(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
    src: NodeCoord,
    dst: NodeCoord,
) -> Option<RouteSpec> {
    DimOrder::ALL.into_iter().find_map(|order| {
        let mut at = src;
        let mut offsets = [0; 3];
        for dim in order.dims() {
            if at.get(dim) != dst.get(dim) {
                offsets[dim.index()] = ring_offset(shape, slice, downs, dim, at, dst)?;
                at = at.with(dim, dst.get(dim));
            }
        }
        Some(RouteSpec::new(order, slice, offsets))
    })
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
    let (k, d_plus) = plus_distance(shape, dim, cur, dst);
    debug_assert!(d_plus != 0);
    (both_ways(k, d_plus).into_iter()).find(|&off| run_is_live(shape, slice, downs, cur, dim, off))
}

/// `dim`'s ring size, and the hops from `from` to `to` round it in `+`.
fn plus_distance(shape: &TorusShape, dim: Dim, from: NodeCoord, to: NodeCoord) -> (i32, i32) {
    let k = i32::from(shape.k(dim));
    (
        k,
        (i32::from(to.get(dim)) - i32::from(from.get(dim))).rem_euclid(k),
    )
}

/// The two signed runs round a `k`-ring that advance `d_plus` (mod `k`,
/// not 0) hops in `+`: the shorter first, `+` on a tie.
fn both_ways(k: i32, d_plus: i32) -> [i32; 2] {
    if d_plus <= k - d_plus {
        [d_plus, d_plus - k]
    } else {
        [d_plus - k, d_plus]
    }
}

/// The direction of a signed run of `off` hops along `dim`.
fn run_dir(dim: Dim, off: i32) -> TorusDir {
    TorusDir::new(dim, if off > 0 { Sign::Plus } else { Sign::Minus })
}

/// Whether every link of the run of `off` hops along `dim` from `from` is
/// up.
fn run_is_live(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
    from: NodeCoord,
    dim: Dim,
    off: i32,
) -> bool {
    let chan = ChanId {
        dir: run_dir(dim, off),
        slice,
    };
    let mut at = from;
    (0..off.unsigned_abs()).all(|_| {
        let up = !downs.contains(shape.id(at), chan);
        at = shape.neighbor(at, chan.dir);
        up
    })
}

/// The pair's fewest-hop live split detour `a x, b y, a z` (each run
/// non-empty), for a pair whose third dimension needs no hop. Ties go to
/// the first `a`, then `b`, in dimension order, then to `b`'s minimal
/// side, then to the shorter `x` (`−` first), then to the shorter `z`
/// (`+` first).
fn split_detour(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
    src: NodeCoord,
    dst: NodeCoord,
) -> Option<RouteSpec> {
    let advance = |at: NodeCoord, dim: Dim, off: i32| {
        let k = i32::from(shape.k(dim));
        at.with(dim, (i32::from(at.get(dim)) + off).rem_euclid(k) as u8)
    };
    let live = |from, dim, off| run_is_live(shape, slice, downs, from, dim, off);
    let mut best: Option<(u32, [(Dim, i32); 3])> = None;
    for a in Dim::ALL {
        for b in Dim::ALL.into_iter().filter(|&b| b != a) {
            let c = Dim::ALL[3 - a.index() - b.index()];
            let (kb, db) = plus_distance(shape, b, src, dst);
            if src.get(c) != dst.get(c) || db == 0 {
                continue;
            }
            let ka = i32::from(shape.k(a));
            for y in both_ways(kb, db) {
                for x in (1..ka).flat_map(|len| [-len, len]) {
                    let mid = advance(src, a, x);
                    let end = advance(mid, b, y);
                    let (_, dz) = plus_distance(shape, a, end, dst);
                    if dz == 0 || !(live(src, a, x) && live(mid, b, y)) {
                        continue;
                    }
                    for z in both_ways(ka, dz) {
                        let len = x.unsigned_abs() + y.unsigned_abs() + z.unsigned_abs();
                        if best.is_none_or(|(shortest, _)| len < shortest) && live(end, a, z) {
                            best = Some((len, [(a, x), (b, y), (a, z)]));
                        }
                    }
                }
            }
        }
    }
    let (_, runs) = best?;
    let hops: Vec<TorusDir> = (runs.into_iter())
        .flat_map(|(dim, off)| std::iter::repeat_n(run_dir(dim, off), off.unsigned_abs() as usize))
        .collect();
    let spec = RouteSpec::from_hops(shape, slice, &hops);
    Some(spec.expect("a split detour is three runs, each shorter than its ring"))
}

/// The first pair, destination-major, with no live path at all: each
/// destination is flooded backward over the live links.
fn first_unreachable(
    shape: &TorusShape,
    slice: Slice,
    downs: &DownLinkSet,
) -> Option<(NodeId, NodeId)> {
    let n = shape.num_nodes();
    let mut reached = vec![false; n];
    let mut stack = Vec::with_capacity(n);
    for dst in (0..n as u32).map(NodeId) {
        reached.fill(false);
        reached[dst.0 as usize] = true;
        stack.push(dst);
        while let Some(v) = stack.pop() {
            let at = shape.coord(v);
            for dir in TorusDir::ALL {
                // `u --dir--> v`, so u sits one hop *opposite* of v; the
                // link that must be up departs u through `dir`.
                let u = shape.id(shape.neighbor(at, dir.opposite()));
                if !reached[u.0 as usize] && !downs.contains(u, ChanId { dir, slice }) {
                    reached[u.0 as usize] = true;
                    stack.push(u);
                }
            }
        }
        if let Some(src) = reached.iter().position(|&r| !r) {
            return Some((NodeId(src as u32), dst));
        }
    }
    None
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

    /// Walks every route of `table`: none crosses a link of `downs`, and
    /// each ends at its destination.
    fn assert_live(table: &RouteTable, downs: &DownLinkSet) {
        let shape = *table.shape();
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let spec = table.route(shape.id(src), shape.id(dst));
                let mut end = src;
                for (at, dir) in spec.walk(&shape, src) {
                    let chan = ChanId {
                        dir,
                        slice: table.slice(),
                    };
                    assert!(
                        !downs.contains(shape.id(at), chan),
                        "{src} -> {dst} ({spec}) crosses down link {at}/{chan}"
                    );
                    end = shape.neighbor(at, dir);
                }
                assert_eq!(end, dst, "{spec}");
            }
        }
    }

    /// Whether a route takes some dimension in two runs.
    fn revisits_a_dimension(spec: RouteSpec) -> bool {
        let hops = spec.hops();
        let runs = 1 + hops.windows(2).filter(|w| w[0].dim != w[1].dim).count();
        let dims = Dim::ALL
            .iter()
            .filter(|&&d| hops.iter().any(|h| h.dim == d));
        runs > dims.count()
    }

    #[test]
    fn healthy_table_is_minimal_xyz_dimension_order() {
        let shape = TorusShape::new(4, 3, 2);
        let downs = DownLinkSet::empty(shape);
        let table = build_route_table(&shape, Slice(0), &downs).unwrap();
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let want = RouteSpec::deterministic(&shape, src, dst, DimOrder::XYZ, Slice(0));
                let got = table.route(shape.id(src), shape.id(dst));
                assert_eq!(got, want, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn every_single_link_failure_routes_xyz_each_ring_on_a_live_side() {
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
                assert_live(&table, &downs);
                // Each route is one XYZ run per dimension, minimal or the
                // long way round.
                for src in shape.nodes() {
                    for dst in shape.nodes() {
                        let ways = Dim::ALL.map(|d| {
                            let (k, d_plus) = plus_distance(&shape, d, src, dst);
                            if d_plus == 0 {
                                [0, 0]
                            } else {
                                both_ways(k, d_plus)
                            }
                        });
                        let got = table.route(shape.id(src), shape.id(dst));
                        let xyz = (0..8).map(|bits: usize| {
                            let offsets = [0, 1, 2].map(|i| ways[i][bits >> i & 1]);
                            RouteSpec::new(DimOrder::XYZ, slice, offsets)
                        });
                        assert!(xyz.into_iter().any(|r| r == got), "{src} -> {dst}: {got}");
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
    fn a_ring_cut_both_ways_takes_a_split_detour() {
        let shape = TorusShape::new(4, 4, 1);
        // Block travel out of the y=0 x-ring's node 0 toward node 2 in both
        // rotations: +X out of x=1 and -X out of x=3. The pair (0,0) ->
        // (2,0) then has no route of one run per dimension and detours
        // through y, revisiting it; pairs that some order serves take it.
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
        assert_live(&table, &downs);
        let route = |a, b| table.route(shape.id(a), shape.id(b));
        let (o, two) = (NodeCoord::new(0, 0, 0), NodeCoord::new(2, 0, 0));
        let detour = route(o, two);
        assert!(revisits_a_dimension(detour), "{detour}");
        let x = |sign| TorusDir::new(Dim::X, sign);
        let y = |sign| TorusDir::new(Dim::Y, sign);
        assert_eq!(
            detour.hops(),
            [y(Sign::Minus), x(Sign::Plus), x(Sign::Plus), y(Sign::Plus)]
        );
        // (0,0) -> (2,1) crosses the cut ring in XYZ order, and not in YXZ.
        let yx = route(o, NodeCoord::new(2, 1, 0)).hops();
        assert_eq!(yx, [y(Sign::Plus), x(Sign::Plus), x(Sign::Plus)]);
        assert_eq!(route(o, NodeCoord::new(1, 0, 0)).hops(), [x(Sign::Plus)]);
    }

    #[test]
    fn an_x_ring_cut_both_ways_leaves_every_4x4x4_pair_three_runs() {
        // X+ out of (1,0,0) and X- out of (3,0,0) on slice 0: no route of
        // one run per dimension from (0,0,0) to (2,0,0), while (0,0,0) ->
        // (2,2,2) is served with one in another order.
        let shape = TorusShape::cube(4);
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
        for slice in Slice::ALL {
            let table = build_route_table(&shape, slice, &downs).unwrap();
            assert_live(&table, &downs);
        }
        let table = build_route_table(&shape, Slice(0), &downs).unwrap();
        let route = table.route(NodeId(0), NodeId(42));
        let runs = route.hops().windows(2).filter(|w| w[0] != w[1]).count() + 1;
        assert!(runs <= 3, "{route}");
        assert_eq!(route.remaining_hops(), 6, "{route}");
    }

    #[test]
    fn a_reachable_pair_without_a_three_run_route_is_not_vc_compatible() {
        // The y=0 x-ring is cut both ways for (0,0) -> (2,0), and (0,0)
        // cannot leave along y: every live path takes four runs.
        let shape = TorusShape::new(4, 4, 1);
        let origin = shape.id(NodeCoord::new(0, 0, 0));
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
                (origin, chan(Dim::Y, Sign::Plus, Slice(0))),
                (origin, chan(Dim::Y, Sign::Minus, Slice(0))),
            ],
        );
        match build_route_table(&shape, Slice(0), &downs).unwrap_err() {
            RouteTableError::NotVcCompatible { src, dst } => {
                assert_eq!((src, dst), (origin, shape.id(NodeCoord::new(2, 0, 0))));
            }
            other => panic!("expected NotVcCompatible, got {other:?}"),
        }
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
