//! Inter-node topology: the three-dimensional, channel-sliced torus.
//!
//! Anton 2 machines interconnect their ASICs in a 3D torus whose dimensions
//! are called X, Y, and Z (Section 2.2 of the paper). The torus is
//! *channel-sliced*: two physical channels (slice 0 and slice 1) connect each
//! node to each of its six neighbors, and a packet uses a single slice for its
//! entire route.

use std::fmt;

/// A torus dimension (X, Y, or Z).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// The X dimension. On-chip, X channels are split across the two I/O
    /// edges of the ASIC and through-traffic uses the skip channels.
    X,
    /// The Y dimension.
    Y,
    /// The Z dimension.
    Z,
}

impl Dim {
    /// All three torus dimensions, in canonical X, Y, Z order.
    pub const ALL: [Dim; 3] = [Dim::X, Dim::Y, Dim::Z];

    /// Index of this dimension in canonical order (X → 0, Y → 1, Z → 2).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Dim::X => 0,
            Dim::Y => 1,
            Dim::Z => 2,
        }
    }

    /// Dimension with the given canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 3`.
    #[inline]
    pub fn from_index(idx: usize) -> Dim {
        Dim::ALL[idx]
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::X => write!(f, "X"),
            Dim::Y => write!(f, "Y"),
            Dim::Z => write!(f, "Z"),
        }
    }
}

/// Direction of travel along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Increasing coordinate (with wraparound).
    Plus,
    /// Decreasing coordinate (with wraparound).
    Minus,
}

impl Sign {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }

    /// `+1` for [`Sign::Plus`], `-1` for [`Sign::Minus`].
    #[inline]
    pub fn delta(self) -> i32 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Plus => write!(f, "+"),
            Sign::Minus => write!(f, "-"),
        }
    }
}

/// A directed torus channel direction: one of X±, Y±, Z±.
///
/// Following the paper's convention, a bidirectional torus link is labeled by
/// the direction of packets *departing* the ASIC on it, so a packet traveling
/// in the `-Y` direction arrives at each node on that node's `Y+` channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TorusDir {
    /// The torus dimension of travel.
    pub dim: Dim,
    /// The direction of travel along that dimension.
    pub sign: Sign,
}

impl TorusDir {
    /// All six directed torus directions in canonical order
    /// (X+, X−, Y+, Y−, Z+, Z−).
    pub const ALL: [TorusDir; 6] = [
        TorusDir {
            dim: Dim::X,
            sign: Sign::Plus,
        },
        TorusDir {
            dim: Dim::X,
            sign: Sign::Minus,
        },
        TorusDir {
            dim: Dim::Y,
            sign: Sign::Plus,
        },
        TorusDir {
            dim: Dim::Y,
            sign: Sign::Minus,
        },
        TorusDir {
            dim: Dim::Z,
            sign: Sign::Plus,
        },
        TorusDir {
            dim: Dim::Z,
            sign: Sign::Minus,
        },
    ];

    /// Creates a directed torus direction.
    #[inline]
    pub fn new(dim: Dim, sign: Sign) -> TorusDir {
        TorusDir { dim, sign }
    }

    /// Canonical index 0..6 (X+ → 0, X− → 1, Y+ → 2, ...).
    #[inline]
    pub fn index(self) -> usize {
        self.dim.index() * 2 + if self.sign == Sign::Plus { 0 } else { 1 }
    }

    /// Direction with the given canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 6`.
    #[inline]
    pub fn from_index(idx: usize) -> TorusDir {
        Self::ALL[idx]
    }

    /// The direction with the same dimension and opposite sign.
    #[inline]
    pub fn opposite(self) -> TorusDir {
        TorusDir {
            dim: self.dim,
            sign: self.sign.flip(),
        }
    }
}

impl fmt::Display for TorusDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.dim, self.sign)
    }
}

/// A torus slice (0 or 1).
///
/// The inter-node network is channel-sliced: there are two physical channels
/// to each neighbor and a packet uses a single slice for its entire route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Slice(pub u8);

impl Slice {
    /// Both slices.
    pub const ALL: [Slice; 2] = [Slice(0), Slice(1)];
}

impl fmt::Display for Slice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The shape of the 3D torus: number of nodes along each dimension.
///
/// Anton 2 supports machine configurations from 4×4×1 up to 16×16×16
/// (Section 2.2). This reproduction accepts any shape with 1..=16 nodes per
/// dimension; dimensions of size 1 or 2 carry no wraparound ambiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusShape {
    k: [u8; 3],
}

impl TorusShape {
    /// Maximum supported nodes along one dimension.
    pub const MAX_K: u8 = 16;

    /// Creates a torus shape with `kx × ky × kz` nodes.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or exceeds [`TorusShape::MAX_K`].
    pub fn new(kx: u8, ky: u8, kz: u8) -> TorusShape {
        for (name, k) in [("kx", kx), ("ky", ky), ("kz", kz)] {
            assert!(
                (1..=Self::MAX_K).contains(&k),
                "torus dimension {name}={k} out of range 1..={}",
                Self::MAX_K
            );
        }
        TorusShape { k: [kx, ky, kz] }
    }

    /// Creates a cubic `k × k × k` torus.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`TorusShape::MAX_K`].
    pub fn cube(k: u8) -> TorusShape {
        TorusShape::new(k, k, k)
    }

    /// Number of nodes along dimension `dim`.
    #[inline]
    pub fn k(&self, dim: Dim) -> u8 {
        self.k[dim.index()]
    }

    /// Total number of nodes in the machine.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.k.iter().map(|&k| k as usize).product()
    }

    /// Iterator over all node coordinates in linear-id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeCoord> + '_ {
        let shape = *self;
        (0..self.num_nodes()).map(move |id| shape.coord(NodeId(id as u32)))
    }

    /// Linear id of a node coordinate (x-major, then y, then z).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside this shape.
    #[inline]
    pub fn id(&self, c: NodeCoord) -> NodeId {
        assert!(self.contains(c), "coordinate {c} outside torus {self:?}");
        let [kx, ky, _] = self.k;
        NodeId(c.x as u32 + (kx as u32) * (c.y as u32 + (ky as u32) * c.z as u32))
    }

    /// Coordinate of a node id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn coord(&self, id: NodeId) -> NodeCoord {
        assert!(
            (id.0 as usize) < self.num_nodes(),
            "node id {id:?} out of range"
        );
        let [kx, ky, _] = self.k;
        let x = id.0 % kx as u32;
        let y = (id.0 / kx as u32) % ky as u32;
        let z = id.0 / (kx as u32 * ky as u32);
        NodeCoord {
            x: x as u8,
            y: y as u8,
            z: z as u8,
        }
    }

    /// Whether the coordinate lies inside the shape.
    #[inline]
    pub fn contains(&self, c: NodeCoord) -> bool {
        c.x < self.k[0] && c.y < self.k[1] && c.z < self.k[2]
    }

    /// The neighbor of node `c` one hop in direction `dir`, with wraparound.
    #[inline]
    pub fn neighbor(&self, c: NodeCoord, dir: TorusDir) -> NodeCoord {
        let k = self.k(dir.dim) as i32;
        let cur = c.get(dir.dim) as i32;
        let next = (cur + dir.sign.delta()).rem_euclid(k) as u8;
        c.with(dir.dim, next)
    }

    /// Whether a single hop from `c` in direction `dir` crosses the dateline.
    ///
    /// Datelines are placed between node `k_D − 1` and node `0` in every
    /// dimension (Section 2.5): the hop `k_D − 1 → 0` (direction `+`) and the
    /// hop `0 → k_D − 1` (direction `−`) cross the dateline.
    #[inline]
    pub fn hop_crosses_dateline(&self, c: NodeCoord, dir: TorusDir) -> bool {
        let k = self.k(dir.dim);
        if k <= 1 {
            return false;
        }
        let cur = c.get(dir.dim);
        match dir.sign {
            Sign::Plus => cur == k - 1,
            Sign::Minus => cur == 0,
        }
    }

    /// Signed minimal offsets from `src` to `dst` along each dimension.
    ///
    /// For each dimension the magnitude is the minimal hop count and the sign
    /// is the direction of travel. When the two directions are tied (distance
    /// exactly `k/2` with `k` even), the positive direction is returned;
    /// callers that randomize the tie-break should use
    /// [`TorusShape::minimal_offset_choices`].
    pub fn minimal_offsets(&self, src: NodeCoord, dst: NodeCoord) -> [i32; 3] {
        let mut out = [0i32; 3];
        for dim in Dim::ALL {
            let k = self.k(dim) as i32;
            let d = (dst.get(dim) as i32 - src.get(dim) as i32).rem_euclid(k);
            out[dim.index()] = if d * 2 <= k { d } else { d - k };
        }
        out
    }

    /// For one dimension: the minimal signed offset(s) from `src` to `dst`.
    ///
    /// Returns one choice normally, or two when both directions are minimal
    /// (distance exactly `k/2`, `k` even, `k > 2`). For `k == 2` the single
    /// positive hop is returned (the two "directions" are the same physical
    /// link).
    pub fn minimal_offset_choices(
        &self,
        dim: Dim,
        src: NodeCoord,
        dst: NodeCoord,
    ) -> OffsetChoices {
        let k = self.k(dim) as i32;
        let d = (dst.get(dim) as i32 - src.get(dim) as i32).rem_euclid(k);
        let (offsets, len) = if d == 0 {
            ([0, 0], 1)
        } else if d * 2 < k || k == 2 {
            ([d, 0], 1)
        } else if d * 2 == k {
            ([d, d - k], 2)
        } else {
            ([d - k, 0], 1)
        };
        OffsetChoices { offsets, len }
    }

    /// Minimal inter-node hop count between two nodes (sum over dimensions).
    pub fn min_hops(&self, src: NodeCoord, dst: NodeCoord) -> u32 {
        self.minimal_offsets(src, dst)
            .iter()
            .map(|d| d.unsigned_abs())
            .sum()
    }
}

/// The minimal signed offset(s) along one dimension, as
/// [`TorusShape::minimal_offset_choices`] finds them: one, or two when both
/// directions are minimal. Held inline, so route randomization allocates
/// nothing; reads as the slice of its choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffsetChoices {
    offsets: [i32; 2],
    len: u8,
}

impl std::ops::Deref for OffsetChoices {
    type Target = [i32];

    #[inline]
    fn deref(&self) -> &[i32] {
        &self.offsets[..usize::from(self.len)]
    }
}

impl fmt::Display for TorusShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.k[0], self.k[1], self.k[2])
    }
}

/// Coordinates of a node (ASIC) in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeCoord {
    /// Coordinate along X.
    pub x: u8,
    /// Coordinate along Y.
    pub y: u8,
    /// Coordinate along Z.
    pub z: u8,
}

impl NodeCoord {
    /// Creates a node coordinate.
    #[inline]
    pub fn new(x: u8, y: u8, z: u8) -> NodeCoord {
        NodeCoord { x, y, z }
    }

    /// The coordinate along one dimension.
    #[inline]
    pub fn get(&self, dim: Dim) -> u8 {
        match dim {
            Dim::X => self.x,
            Dim::Y => self.y,
            Dim::Z => self.z,
        }
    }

    /// Copy of this coordinate with one dimension replaced.
    #[inline]
    pub fn with(&self, dim: Dim, val: u8) -> NodeCoord {
        let mut c = *self;
        match dim {
            Dim::X => c.x = val,
            Dim::Y => c.y = val,
            Dim::Z => c.z = val,
        }
        c
    }
}

impl fmt::Display for NodeCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// Linear id of a node, dense in `0..shape.num_nodes()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_coord_roundtrip() {
        let shape = TorusShape::new(4, 3, 2);
        for (i, c) in shape.nodes().enumerate() {
            assert_eq!(shape.id(c), NodeId(i as u32));
            assert_eq!(shape.coord(NodeId(i as u32)), c);
        }
        assert_eq!(shape.num_nodes(), 24);
    }

    #[test]
    fn neighbor_wraps() {
        let shape = TorusShape::cube(4);
        let c = NodeCoord::new(3, 0, 2);
        assert_eq!(
            shape.neighbor(c, TorusDir::new(Dim::X, Sign::Plus)),
            NodeCoord::new(0, 0, 2)
        );
        assert_eq!(
            shape.neighbor(c, TorusDir::new(Dim::Y, Sign::Minus)),
            NodeCoord::new(3, 3, 2)
        );
    }

    #[test]
    fn dateline_placement() {
        let shape = TorusShape::cube(4);
        // Dateline between nodes k-1 and 0.
        assert!(
            shape.hop_crosses_dateline(NodeCoord::new(3, 0, 0), TorusDir::new(Dim::X, Sign::Plus))
        );
        assert!(
            shape.hop_crosses_dateline(NodeCoord::new(0, 0, 0), TorusDir::new(Dim::X, Sign::Minus))
        );
        assert!(
            !shape.hop_crosses_dateline(NodeCoord::new(2, 0, 0), TorusDir::new(Dim::X, Sign::Plus))
        );
        assert!(!shape
            .hop_crosses_dateline(NodeCoord::new(3, 0, 0), TorusDir::new(Dim::X, Sign::Minus)));
    }

    #[test]
    fn minimal_offsets_prefer_short_way() {
        let shape = TorusShape::cube(8);
        let off = shape.minimal_offsets(NodeCoord::new(1, 0, 0), NodeCoord::new(7, 0, 0));
        assert_eq!(off, [-2, 0, 0]);
        let off = shape.minimal_offsets(NodeCoord::new(0, 2, 0), NodeCoord::new(0, 5, 0));
        assert_eq!(off, [0, 3, 0]);
    }

    #[test]
    fn minimal_offset_tie_has_two_choices() {
        let shape = TorusShape::cube(8);
        let choices =
            shape.minimal_offset_choices(Dim::X, NodeCoord::new(0, 0, 0), NodeCoord::new(4, 0, 0));
        assert_eq!(choices[..], [4, -4]);
        // k=2 collapses to a single physical link.
        let shape2 = TorusShape::cube(2);
        let choices =
            shape2.minimal_offset_choices(Dim::X, NodeCoord::new(0, 0, 0), NodeCoord::new(1, 0, 0));
        assert_eq!(choices[..], [1]);
    }

    #[test]
    fn min_hops_symmetric() {
        let shape = TorusShape::new(8, 4, 2);
        for a in shape.nodes() {
            for b in shape.nodes() {
                assert_eq!(shape.min_hops(a, b), shape.min_hops(b, a), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn torus_dir_index_roundtrip() {
        for (i, d) in TorusDir::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(TorusDir::from_index(i), *d);
            assert_eq!(d.opposite().opposite(), *d);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shape_rejects_zero() {
        TorusShape::new(0, 4, 4);
    }
}
