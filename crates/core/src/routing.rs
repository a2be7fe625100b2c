//! Inter-node routing (Section 2.3).
//!
//! Unicast routing is oblivious: packets follow a minimal dimension-order
//! route through the torus, and each packet may use any of the six possible
//! dimension orders (XYZ, XZY, YXZ, YZX, ZXY, ZYX) on either of the two
//! torus slices. A packet's dimension order and slice are typically
//! randomized, independent of network load.

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

/// The inter-node routing state a packet carries: its dimension order, torus
/// slice, and the remaining signed offset along each dimension.
///
/// The offsets are indexed by canonical dimension (X=0, Y=1, Z=2) and count
/// the *remaining* hops with their direction of travel. The route is minimal
/// by construction; ties between the two minimal directions (offset exactly
/// `k/2`) are broken at construction time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouteSpec {
    /// Order in which the torus dimensions are traversed.
    pub order: DimOrder,
    /// Torus slice used for the packet's entire route.
    pub slice: Slice,
    /// Remaining signed offsets, indexed by canonical dimension.
    pub offsets: [i32; 3],
}

impl RouteSpec {
    /// Builds a route spec with explicit order and slice, breaking minimal
    /// ties toward the positive direction.
    pub fn deterministic(
        shape: &TorusShape,
        src: NodeCoord,
        dst: NodeCoord,
        order: DimOrder,
        slice: Slice,
    ) -> RouteSpec {
        RouteSpec {
            order,
            slice,
            offsets: shape.minimal_offsets(src, dst),
        }
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
        RouteSpec {
            order,
            slice,
            offsets,
        }
    }

    /// The next torus direction the packet must travel, or `None` if all
    /// inter-node routing is complete.
    pub fn next_dir(&self) -> Option<TorusDir> {
        for dim in self.order.dims() {
            let off = self.offsets[dim.index()];
            if off != 0 {
                let sign = if off > 0 { Sign::Plus } else { Sign::Minus };
                return Some(TorusDir::new(dim, sign));
            }
        }
        None
    }

    /// Records one torus hop in direction `dir`, consuming one offset unit.
    ///
    /// Returns `true` if the hop *finished* its dimension (the offset reached
    /// zero).
    ///
    /// # Panics
    ///
    /// Panics if `dir` is not the direction returned by
    /// [`RouteSpec::next_dir`].
    pub fn take_hop(&mut self, dir: TorusDir) -> bool {
        assert_eq!(self.next_dir(), Some(dir), "hop taken out of route order");
        let off = &mut self.offsets[dir.dim.index()];
        *off -= dir.sign.delta();
        *off == 0
    }

    /// Total remaining inter-node hops.
    pub fn remaining_hops(&self) -> u32 {
        self.offsets.iter().map(|o| o.unsigned_abs()).sum()
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
            match spec.offsets[0].signum() {
                1 => saw_plus = true,
                -1 => saw_minus = true,
                _ => panic!("zero offset for distinct nodes"),
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
}
