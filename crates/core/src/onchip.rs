//! On-chip direction-order routing (Section 2.4).
//!
//! Local routes through the mesh use *direction-order* routing: a packet must
//! traverse the four mesh directions (U⁺, U⁻, V⁺, V⁻) in a fixed order.
//! Direction-order algorithms are deterministic and deadlock-free with a
//! single virtual channel, which keeps the routers simple. The paper's
//! optimization search (reproduced in `anton-analysis`) found that routing
//! V⁻, U⁺, U⁻, then V⁺ outperforms all other direction orders for the
//! worst-case inter-node switching demands.

use std::fmt;

use crate::chip::{MeshCoord, MeshDir};

/// A direction-order on-chip routing algorithm: a permutation of the four
/// mesh directions.
///
/// # Examples
///
/// ```
/// use anton_core::chip::{MeshCoord, MeshDir};
/// use anton_core::onchip::DirOrder;
///
/// let route = DirOrder::ANTON.route(MeshCoord::new(3, 0), MeshCoord::new(0, 2));
/// // All U− hops happen before the V+ hops under the Anton order.
/// assert_eq!(
///     route,
///     vec![MeshDir::UMinus, MeshDir::UMinus, MeshDir::UMinus, MeshDir::VPlus, MeshDir::VPlus]
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirOrder([MeshDir; 4]);

impl DirOrder {
    /// The order selected by the Anton 2 design: V⁻, U⁺, U⁻, V⁺.
    pub const ANTON: DirOrder = DirOrder([
        MeshDir::VMinus,
        MeshDir::UPlus,
        MeshDir::UMinus,
        MeshDir::VPlus,
    ]);

    /// Creates a direction order from a permutation of the four directions.
    ///
    /// # Panics
    ///
    /// Panics if `dirs` is not a permutation of all four mesh directions.
    pub fn new(dirs: [MeshDir; 4]) -> DirOrder {
        for d in MeshDir::ALL {
            assert!(dirs.contains(&d), "direction order missing {d}");
        }
        DirOrder(dirs)
    }

    /// The ordered directions.
    #[inline]
    pub fn dirs(&self) -> [MeshDir; 4] {
        self.0
    }

    /// All 24 direction-order algorithms.
    pub fn all() -> Vec<DirOrder> {
        let mut out = Vec::with_capacity(24);
        let d = MeshDir::ALL;
        for i in 0..4 {
            for j in 0..4 {
                if j == i {
                    continue;
                }
                for k in 0..4 {
                    if k == i || k == j {
                        continue;
                    }
                    let l = 6 - i - j - k;
                    out.push(DirOrder([d[i], d[j], d[k], d[l]]));
                }
            }
        }
        out
    }

    /// The next hop from `from` toward `to`, or `None` if already there.
    ///
    /// A direction is *needed* when the displacement toward `to` has a
    /// component in it; the earliest needed direction in the order is taken,
    /// and all hops in that direction complete before the next direction
    /// starts (which this greedy rule guarantees, since at most one U and one
    /// V direction are ever needed on a mesh).
    pub fn next_dir(&self, from: MeshCoord, to: MeshCoord) -> Option<MeshDir> {
        if from == to {
            return None;
        }
        let du = to.u as i8 - from.u as i8;
        let dv = to.v as i8 - from.v as i8;
        for d in self.0 {
            let needed = match d {
                MeshDir::UPlus => du > 0,
                MeshDir::UMinus => du < 0,
                MeshDir::VPlus => dv > 0,
                MeshDir::VMinus => dv < 0,
            };
            if needed {
                return Some(d);
            }
        }
        unreachable!("nonzero displacement must need some direction")
    }

    /// The full hop sequence from `from` to `to` (empty if equal).
    pub fn route(&self, from: MeshCoord, to: MeshCoord) -> Vec<MeshDir> {
        let mut hops = Vec::new();
        let mut cur = from;
        while let Some(d) = self.next_dir(cur, to) {
            hops.push(d);
            cur = cur.step(d).expect("direction-order route left the mesh");
        }
        hops
    }

    /// The sequence of routers visited from `from` to `to`, inclusive.
    pub fn router_path(&self, from: MeshCoord, to: MeshCoord) -> Vec<MeshCoord> {
        let mut path = vec![from];
        let mut cur = from;
        while let Some(d) = self.next_dir(cur, to) {
            cur = cur.step(d).expect("direction-order route left the mesh");
            path.push(cur);
        }
        path
    }
}

impl fmt::Display for DirOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}, {}, {}, {})",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_orders_count() {
        let all = DirOrder::all();
        assert_eq!(all.len(), 24);
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 24);
        assert!(all.contains(&DirOrder::ANTON));
    }

    #[test]
    fn routes_are_minimal() {
        for order in DirOrder::all() {
            for a in MeshCoord::all() {
                for b in MeshCoord::all() {
                    let route = order.route(a, b);
                    let min = (a.u as i8 - b.u as i8).unsigned_abs()
                        + (a.v as i8 - b.v as i8).unsigned_abs();
                    assert_eq!(route.len(), min as usize, "{order} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn directions_traversed_in_order() {
        for order in DirOrder::all() {
            for a in MeshCoord::all() {
                for b in MeshCoord::all() {
                    let route = order.route(a, b);
                    let rank = |d: MeshDir| order.dirs().iter().position(|&x| x == d).unwrap();
                    for w in route.windows(2) {
                        assert!(rank(w[0]) <= rank(w[1]), "{order}: {a}->{b} violates order");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_dependencies_strictly_rise() {
        // A packet holding one mesh hop while requesting the next always
        // raises (direction rank, position along that direction), so the
        // single-VC mesh dependency graph of every order is acyclic.
        for order in DirOrder::all() {
            let key = |at: MeshCoord, d: MeshDir| {
                let rank = order.dirs().iter().position(|&x| x == d).unwrap();
                let (du, dv) = d.delta();
                (rank, du * at.u as i8 + dv * at.v as i8)
            };
            for a in MeshCoord::all() {
                for b in MeshCoord::all() {
                    let hops = order.route(a, b);
                    let path = order.router_path(a, b);
                    let keys: Vec<_> = path.iter().zip(&hops).map(|(&at, &d)| key(at, d)).collect();
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "{order}: {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn anton_order_is_v_minus_first() {
        assert_eq!(
            DirOrder::ANTON.dirs(),
            [
                MeshDir::VMinus,
                MeshDir::UPlus,
                MeshDir::UMinus,
                MeshDir::VPlus
            ]
        );
        // A route needing V- and U+ takes V- first under the Anton order.
        let route = DirOrder::ANTON.route(MeshCoord::new(0, 2), MeshCoord::new(2, 0));
        assert_eq!(route[0], MeshDir::VMinus);
        assert_eq!(route[1], MeshDir::VMinus);
        assert_eq!(route[2], MeshDir::UPlus);
    }

    #[test]
    fn router_path_endpoints() {
        let p = DirOrder::ANTON.router_path(MeshCoord::new(1, 1), MeshCoord::new(3, 3));
        assert_eq!(p.first(), Some(&MeshCoord::new(1, 1)));
        assert_eq!(p.last(), Some(&MeshCoord::new(3, 3)));
        assert_eq!(p.len(), 5);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn new_rejects_non_permutation() {
        DirOrder::new([
            MeshDir::UPlus,
            MeshDir::UPlus,
            MeshDir::VPlus,
            MeshDir::VMinus,
        ]);
    }
}
