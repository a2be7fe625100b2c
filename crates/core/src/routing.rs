//! Inter-node routing (Section 2.3).
//!
//! Unicast routing is oblivious: packets follow a minimal dimension-order
//! route through the torus, and each packet may use any of the six possible
//! dimension orders (XYZ, XZY, YXZ, YZX, ZXY, ZYX) on either of the two
//! torus slices. A packet's dimension order and slice are typically
//! randomized, independent of network load. A degraded route table's detour
//! (see [`crate::route_table`]) is the same [`RouteSpec`], built from its
//! hops by [`RouteSpec::from_hops`].

use std::fmt;

use rand::Rng;

use crate::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};

/// One of the six dimension orders a packet may route in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DimOrder([Dim; 3]);

impl DimOrder {
    /// All six dimension orders, XYZ first.
    pub const ALL: [DimOrder; 6] = [
        DimOrder([Dim::X, Dim::Y, Dim::Z]),
        DimOrder([Dim::X, Dim::Z, Dim::Y]),
        DimOrder([Dim::Y, Dim::X, Dim::Z]),
        DimOrder([Dim::Y, Dim::Z, Dim::X]),
        DimOrder([Dim::Z, Dim::X, Dim::Y]),
        DimOrder([Dim::Z, Dim::Y, Dim::X]),
    ];

    /// Canonical XYZ order.
    pub const XYZ: DimOrder = DimOrder([Dim::X, Dim::Y, Dim::Z]);

    /// Creates a dimension order from a permutation of the three dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a permutation of X, Y, Z.
    pub fn new(dims: [Dim; 3]) -> DimOrder {
        for d in Dim::ALL {
            assert!(dims.contains(&d), "dimension order missing {d}");
        }
        DimOrder(dims)
    }

    /// The ordered dimensions.
    #[inline]
    pub fn dims(&self) -> [Dim; 3] {
        self.0
    }

    /// Position (0..3) at which `dim` is routed.
    #[inline]
    pub fn position(&self, dim: Dim) -> usize {
        self.0
            .iter()
            .position(|&d| d == dim)
            .expect("order contains all dims")
    }

    /// A uniformly random dimension order.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> DimOrder {
        Self::ALL[rng.gen_range(0..6)]
    }
}

impl fmt::Display for DimOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.0[0], self.0[1], self.0[2])
    }
}

/// A packet's inter-node route: the torus slice it travels on and at most
/// three single-direction runs, each a dimension and the signed count of the
/// hops still to take along it.
///
/// Three runs is the n+1-VC promotion budget (Section 2.5): each run is one
/// dimension phase, and a run that neither reverses nor wraps its ring
/// crosses its dateline at most once. An oblivious route has one run per
/// dimension, in its dimension order; a degraded-table detour may revisit a
/// dimension in a later run (`+Y +X +X −Y`). No other value can be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSpec {
    /// Torus slice used for the packet's entire route.
    pub slice: Slice,
    /// The runs in travel order; a finished or unused run holds 0.
    runs: [(Dim, i8); 3],
}

impl RouteSpec {
    /// The oblivious route that travels `offsets` (signed, indexed by
    /// canonical dimension) one dimension at a time, in `order`.
    ///
    /// # Panics
    ///
    /// Panics if an offset is at least [`TorusShape::MAX_K`] hops long.
    pub fn new(order: DimOrder, slice: Slice, offsets: [i32; 3]) -> RouteSpec {
        let run = |dim: Dim| {
            let off = offsets[dim.index()];
            assert!(
                off.unsigned_abs() < u32::from(TorusShape::MAX_K),
                "offset {off} along {dim} is longer than any ring"
            );
            (dim, off as i8)
        };
        RouteSpec {
            slice,
            runs: order.dims().map(run),
        }
    }

    /// Builds a route spec with explicit order and slice, breaking minimal
    /// ties toward the positive direction.
    pub fn deterministic(
        shape: &TorusShape,
        src: NodeCoord,
        dst: NodeCoord,
        order: DimOrder,
        slice: Slice,
    ) -> RouteSpec {
        RouteSpec::new(order, slice, shape.minimal_offsets(src, dst))
    }

    /// The oblivious route distribution from `src` to `dst`: every
    /// dimension order × slice × choice between tied minimal directions,
    /// each equally likely, in that nesting order (the tie combination
    /// varies fastest, X's choice fastest within it). Load analysis weighs
    /// each route `1 / len()`; the route enumerator traces them all.
    pub fn minimal_routes(
        shape: &TorusShape,
        src: NodeCoord,
        dst: NodeCoord,
    ) -> impl ExactSizeIterator<Item = RouteSpec> {
        let choices = Dim::ALL.map(|d| shape.minimal_offset_choices(d, src, dst));
        let num_combos: usize = choices.iter().map(|ch| ch.len()).product();
        let mut ties = Vec::with_capacity(num_combos);
        for combo in 0..num_combos {
            let mut idx = combo;
            ties.push(choices.each_ref().map(|ch| {
                let pick = ch[idx % ch.len()];
                idx /= ch.len();
                pick
            }));
        }
        let per_order = Slice::ALL.len() * num_combos;
        (0..DimOrder::ALL.len() * per_order).map(move |i| {
            let slice = Slice::ALL[i % per_order / num_combos];
            RouteSpec::new(DimOrder::ALL[i / per_order], slice, ties[i % num_combos])
        })
    }

    /// Whether [`minimal_routes`](Self::minimal_routes)`(shape, src, dst)`
    /// holds a spec with this one's hops on its slice: the runs take
    /// distinct dimensions, and each dimension's offset — its run's, or 0
    /// where no run takes it — is one of its minimal choices. Decided from
    /// the runs alone, without enumerating the distribution.
    pub fn is_minimal(&self, shape: &TorusShape, src: NodeCoord, dst: NodeCoord) -> bool {
        let mut offsets = [0i32; 3];
        for &(dim, off) in self.runs.iter().filter(|r| r.1 != 0) {
            let taken = &mut offsets[dim.index()];
            if *taken != 0 {
                return false;
            }
            *taken = i32::from(off);
        }
        Dim::ALL
            .into_iter()
            .all(|d| (shape.minimal_offset_choices(d, src, dst)).contains(&offsets[d.index()]))
    }

    /// Builds a fully randomized route spec: random dimension order, random
    /// slice, and random choice between tied minimal directions — the default
    /// unicast policy of the Anton 2 network.
    pub fn randomized<R: Rng + ?Sized>(
        shape: &TorusShape,
        src: NodeCoord,
        dst: NodeCoord,
        rng: &mut R,
    ) -> RouteSpec {
        let order = DimOrder::random(rng);
        let slice = Slice(rng.gen_range(0..2));
        Self::randomized_with(shape, src, dst, order, slice, rng)
    }

    /// Builds a route spec with the given order and slice but randomized
    /// minimal tie-breaks.
    pub fn randomized_with<R: Rng + ?Sized>(
        shape: &TorusShape,
        src: NodeCoord,
        dst: NodeCoord,
        order: DimOrder,
        slice: Slice,
        rng: &mut R,
    ) -> RouteSpec {
        let mut offsets = [0i32; 3];
        for dim in Dim::ALL {
            let choices = shape.minimal_offset_choices(dim, src, dst);
            let pick = if choices.len() == 1 {
                choices[0]
            } else {
                choices[rng.gen_range(0..2)]
            };
            offsets[dim.index()] = pick;
        }
        RouteSpec::new(order, slice, offsets)
    }

    /// The route that takes `hops` on `slice`, if the n+1-VC state machine
    /// can carry it: grouped into maximal same-dimension runs, no run
    /// reverses direction (it could cross its dateline twice), there are at
    /// most three runs, and no run is as long as its ring. Otherwise the
    /// reason it cannot.
    pub fn from_hops(
        shape: &TorusShape,
        slice: Slice,
        hops: &[TorusDir],
    ) -> Result<RouteSpec, String> {
        // Each run's direction and length; runs past the third are counted.
        let mut runs = [(TorusDir::new(Dim::X, Sign::Plus), 0u32); 3];
        let mut count = 0;
        let mut last: Option<TorusDir> = None;
        for &h in hops {
            match last {
                Some(l) if l.dim == h.dim => {
                    if l.sign != h.sign {
                        return Err(format!("direction reversal within a {} run", h.dim));
                    }
                }
                _ => count += 1,
            }
            last = Some(h);
            if let Some(run) = runs.get_mut(count - 1) {
                *run = (h, run.1 + 1);
            }
        }
        if count > 3 {
            return Err(format!("{count} dimension runs exceed the 3-run budget"));
        }
        let mut spec = RouteSpec {
            slice,
            runs: [(Dim::X, 0); 3],
        };
        for (i, &(dir, len)) in runs[..count].iter().enumerate() {
            let k = u32::from(shape.k(dir.dim));
            if len >= k.max(2) {
                return Err(format!("{len}-hop run wraps the {}-ring (k={k})", dir.dim));
            }
            spec.runs[i] = (dir.dim, len as i8 * dir.sign.delta() as i8);
        }
        Ok(spec)
    }

    /// The next torus direction the packet must travel, or `None` if all
    /// inter-node routing is complete.
    #[inline]
    pub fn next_dir(&self) -> Option<TorusDir> {
        let &(dim, off) = self.runs.iter().find(|r| r.1 != 0)?;
        let sign = if off > 0 { Sign::Plus } else { Sign::Minus };
        Some(TorusDir::new(dim, sign))
    }

    /// Records one torus hop in direction `dir`, consuming one hop of the
    /// current run.
    ///
    /// # Panics
    ///
    /// Panics if `dir` is not the direction returned by
    /// [`RouteSpec::next_dir`].
    pub fn take_hop(&mut self, dir: TorusDir) {
        assert_eq!(self.next_dir(), Some(dir), "hop taken out of route order");
        let run = self
            .runs
            .iter_mut()
            .find(|r| r.1 != 0)
            .expect("a hop remains");
        run.1 -= dir.sign.delta() as i8;
    }

    /// Total remaining inter-node hops.
    pub fn remaining_hops(&self) -> u32 {
        self.runs
            .iter()
            .map(|r| u32::from(r.1.unsigned_abs()))
            .sum()
    }

    /// The hops this spec takes from `start`, each as the node it leaves and
    /// the direction it leaves in.
    pub fn walk(
        mut self,
        shape: &TorusShape,
        start: NodeCoord,
    ) -> impl Iterator<Item = (NodeCoord, TorusDir)> + '_ {
        let mut at = start;
        std::iter::from_fn(move || {
            let dir = self.next_dir()?;
            self.take_hop(dir);
            let from = at;
            at = shape.neighbor(at, dir);
            Some((from, dir))
        })
    }

    /// The full sequence of torus hops this spec will take.
    pub fn hops(&self) -> Vec<TorusDir> {
        let mut spec = *self;
        let mut out = Vec::with_capacity(spec.remaining_hops() as usize);
        while let Some(d) = spec.next_dir() {
            spec.take_hop(d);
            out.push(d);
        }
        out
    }
}

/// The slice and the runs still to travel, e.g. `s1 Y+1 X+2 Y-1`.
impl fmt::Display for RouteSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.slice)?;
        for &(dim, off) in self.runs.iter().filter(|r| r.1 != 0) {
            write!(f, " {dim}{off:+}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dim_orders_distinct() {
        let set: std::collections::HashSet<_> = DimOrder::ALL.iter().collect();
        assert_eq!(set.len(), 6);
        for o in DimOrder::ALL {
            assert_eq!(o.position(o.dims()[0]), 0);
            assert_eq!(o.position(o.dims()[2]), 2);
        }
    }

    #[test]
    fn route_follows_order_and_is_minimal() {
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(1, 2, 3);
        let dst = NodeCoord::new(6, 2, 0);
        for order in DimOrder::ALL {
            let spec = RouteSpec::deterministic(&shape, src, dst, order, Slice(0));
            let hops = spec.hops();
            assert_eq!(hops.len() as u32, shape.min_hops(src, dst));
            // Dimensions appear in order, each contiguous.
            let dims: Vec<Dim> = hops.iter().map(|h| h.dim).collect();
            let mut seen = Vec::new();
            for d in dims {
                if seen.last() != Some(&d) {
                    assert!(!seen.contains(&d), "dimension {d} revisited");
                    seen.push(d);
                }
            }
            let mut rank = 0;
            for d in seen {
                let p = order.position(d);
                assert!(p >= rank);
                rank = p;
            }
        }
    }

    #[test]
    fn hops_end_at_destination() {
        let shape = TorusShape::new(8, 4, 2);
        let mut rng = StdRng::seed_from_u64(7);
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let spec = RouteSpec::randomized(&shape, src, dst, &mut rng);
                let mut cur = src;
                for hop in spec.hops() {
                    cur = shape.neighbor(cur, hop);
                }
                assert_eq!(cur, dst, "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn tie_breaks_randomize() {
        let shape = TorusShape::cube(8);
        let src = NodeCoord::new(0, 0, 0);
        let dst = NodeCoord::new(4, 0, 0); // distance exactly k/2
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_plus = false;
        let mut saw_minus = false;
        for _ in 0..64 {
            let spec = RouteSpec::randomized(&shape, src, dst, &mut rng);
            match spec.next_dir().expect("distinct nodes").sign {
                Sign::Plus => saw_plus = true,
                Sign::Minus => saw_minus = true,
            }
        }
        assert!(saw_plus && saw_minus, "tie-break never flipped");
    }

    #[test]
    #[should_panic(expected = "out of route order")]
    fn take_hop_enforces_order() {
        let shape = TorusShape::cube(4);
        let mut spec = RouteSpec::deterministic(
            &shape,
            NodeCoord::new(0, 0, 0),
            NodeCoord::new(1, 1, 0),
            DimOrder::XYZ,
            Slice(0),
        );
        // Y hop before the X offset is exhausted.
        spec.take_hop(TorusDir::new(Dim::Y, Sign::Plus));
    }

    fn hops(dirs: &str) -> Vec<TorusDir> {
        dirs.split(' ')
            .map(|h| {
                let dim = Dim::ALL["XYZ".find(&h[..1]).unwrap()];
                let sign = if &h[1..] == "+" {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                TorusDir::new(dim, sign)
            })
            .collect()
    }

    #[test]
    fn from_hops_accepts_a_detour_that_revisits_a_dimension() {
        let shape = TorusShape::new(4, 4, 1);
        let detour = hops("Y+ X+ X+ Y-");
        let spec = RouteSpec::from_hops(&shape, Slice(1), &detour).unwrap();
        assert_eq!(spec.hops(), detour);
        assert_eq!(spec.to_string(), "s1 Y+1 X+2 Y-1");
        let none = RouteSpec::from_hops(&shape, Slice(0), &[]).unwrap();
        assert_eq!(none.next_dir(), None);
    }

    #[test]
    fn is_minimal_matches_the_minimal_route_distribution() {
        // Every dimension-order route between every pair of a rectangular
        // torus, each dimension's offset either way round its ring:
        // `is_minimal` holds exactly when `minimal_routes` has the hops.
        let shape = TorusShape::new(4, 3, 2);
        let (mut minimal, mut not) = (0, 0);
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let ways = Dim::ALL.map(|d| {
                    let k = i32::from(shape.k(d));
                    let off = (i32::from(dst.get(d)) - i32::from(src.get(d))).rem_euclid(k);
                    if off == 0 {
                        vec![0]
                    } else {
                        vec![off, off - k]
                    }
                });
                let routes: Vec<Vec<TorusDir>> = RouteSpec::minimal_routes(&shape, src, dst)
                    .map(|r| r.hops())
                    .collect();
                for order in DimOrder::ALL {
                    for &x in &ways[0] {
                        for &y in &ways[1] {
                            for &z in &ways[2] {
                                let spec = RouteSpec::new(order, Slice(1), [x, y, z]);
                                let expected = routes.contains(&spec.hops());
                                assert_eq!(spec.is_minimal(&shape, src, dst), expected, "{spec}");
                                *if expected { &mut minimal } else { &mut not } += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(minimal > 0 && not > 0);
        // A detour that revisits a dimension is never minimal, even where
        // its net offsets are.
        let detour = RouteSpec::from_hops(&shape, Slice(0), &hops("Y+ X+ Y-")).unwrap();
        let (src, dst) = (NodeCoord::new(0, 0, 0), NodeCoord::new(1, 0, 0));
        assert!(!detour.is_minimal(&shape, src, dst));
    }

    #[test]
    fn from_hops_rejects_a_reversal_inside_a_run() {
        let err = RouteSpec::from_hops(&TorusShape::cube(4), Slice(0), &hops("X+ X- Y+"));
        assert_eq!(err.unwrap_err(), "direction reversal within a X run");
    }

    #[test]
    fn from_hops_rejects_a_fourth_run() {
        let err = RouteSpec::from_hops(&TorusShape::cube(4), Slice(0), &hops("X+ Y+ X+ Y+"));
        assert_eq!(err.unwrap_err(), "4 dimension runs exceed the 3-run budget");
    }

    #[test]
    fn from_hops_rejects_a_run_as_long_as_its_ring() {
        let shape = TorusShape::new(4, 3, 2);
        let err = RouteSpec::from_hops(&shape, Slice(0), &hops("X+ Y- Y- Y-"));
        assert_eq!(err.unwrap_err(), "3-hop run wraps the Y-ring (k=3)");
        // One hop short of the ring is the long way round, and legal.
        assert!(RouteSpec::from_hops(&shape, Slice(0), &hops("X+ Y- Y-")).is_ok());
    }
}
