//! On-chip layout: the 4×4 mesh, skip channels, and adapter placement.
//!
//! Each Anton 2 ASIC contains a 4×4 mesh of routers (dimensions U and V)
//! that connects the node's compute endpoints and acts as the switch for the
//! twelve external torus channels (Figure 1 of the paper). This module fixes
//! the placement of every component and enumerates the directed on-chip
//! links, tagging each link with its deadlock-analysis group (M or T,
//! Section 2.5).
//!
//! Placement (matching the paper's Figure 1, its routing examples, and the
//! Section 2.4 optimization result):
//!
//! * High-speed I/O is split across the two `U` edges of the chip. All `+X`
//!   channel adapters sit on the `U = 0` edge and all `−X` adapters on the
//!   `U = 3` edge; slice 1 uses row `V = 0` and slice 0 uses row `V = 1`, so
//!   a slice-1 packet passing through in `+X` follows
//!   `X₁⁻ → R(3,0) → skip → R(0,0) → X₁⁺` exactly as in Section 2.4.
//! * Y and Z adapters of a slice share one edge: slice 0 on `U = 0`
//!   (`Y₀±` at `R(0,2)`, `Z₀±` at `R(0,3)`), slice 1 on `U = 3`
//!   (`Y₁±` at `R(3,3)`, `Z₁±` at `R(3,2)`). Both directions of a Y or Z
//!   channel attach to the *same* router so through-traffic crosses a single
//!   router.
//! * Skip channels connect `R(0,0) ↔ R(3,0)` and `R(0,1) ↔ R(3,1)`.
//!
//! The exact rows are calibrated so the Section 2.4 search reproduces the
//! paper's result: with this floorplan, routing (V⁻, U⁺, U⁻, V⁺) achieves
//! the optimal worst-case mesh load of two torus channels (Figure 4), which
//! pins the X-channel rows to 0 and 1 given the example-pinned positions of
//! `X₁` and `Y₀`.

use std::fmt;

use crate::onchip::DirOrder;
use crate::topology::{Dim, Sign, Slice, TorusDir};

/// Mesh extent along U.
pub const MESH_U: u8 = 4;
/// Mesh extent along V.
pub const MESH_V: u8 = 4;
/// Routers per node.
pub const NUM_ROUTERS: usize = (MESH_U as usize) * (MESH_V as usize);
/// Channel adapters per node (6 torus directions × 2 slices).
pub const NUM_CHAN_ADAPTERS: usize = 12;
/// Maximum ports per router (each port carries one bidirectional channel).
pub const MAX_ROUTER_PORTS: usize = 6;

/// Coordinates of a router in the on-chip mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MeshCoord {
    /// Coordinate along U (0..4).
    pub u: u8,
    /// Coordinate along V (0..4).
    pub v: u8,
}

impl MeshCoord {
    /// Creates a mesh coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the 4×4 mesh.
    #[inline]
    pub fn new(u: u8, v: u8) -> MeshCoord {
        assert!(
            u < MESH_U && v < MESH_V,
            "mesh coordinate ({u},{v}) out of range"
        );
        MeshCoord { u, v }
    }

    /// Dense index 0..16 (`u`-major).
    #[inline]
    pub fn index(self) -> usize {
        self.u as usize + (MESH_U as usize) * self.v as usize
    }

    /// Router at the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 16`.
    #[inline]
    pub fn from_index(idx: usize) -> MeshCoord {
        assert!(idx < NUM_ROUTERS, "router index {idx} out of range");
        MeshCoord {
            u: (idx % MESH_U as usize) as u8,
            v: (idx / MESH_U as usize) as u8,
        }
    }

    /// All router coordinates in index order.
    pub fn all() -> impl Iterator<Item = MeshCoord> {
        (0..NUM_ROUTERS).map(MeshCoord::from_index)
    }

    /// The neighbor one mesh hop away, or `None` at the mesh edge.
    #[inline]
    pub fn step(self, dir: MeshDir) -> Option<MeshCoord> {
        let (du, dv) = dir.delta();
        let u = self.u as i8 + du;
        let v = self.v as i8 + dv;
        if (0..MESH_U as i8).contains(&u) && (0..MESH_V as i8).contains(&v) {
            Some(MeshCoord {
                u: u as u8,
                v: v as u8,
            })
        } else {
            None
        }
    }
}

impl fmt::Display for MeshCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R({},{})", self.u, self.v)
    }
}

/// A directed on-chip mesh direction: U±, V±.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MeshDir {
    /// Increasing U.
    UPlus,
    /// Decreasing U.
    UMinus,
    /// Increasing V.
    VPlus,
    /// Decreasing V.
    VMinus,
}

impl MeshDir {
    /// All four mesh directions.
    pub const ALL: [MeshDir; 4] = [
        MeshDir::UPlus,
        MeshDir::UMinus,
        MeshDir::VPlus,
        MeshDir::VMinus,
    ];

    /// Coordinate delta `(du, dv)` of one hop in this direction.
    #[inline]
    pub fn delta(self) -> (i8, i8) {
        match self {
            MeshDir::UPlus => (1, 0),
            MeshDir::UMinus => (-1, 0),
            MeshDir::VPlus => (0, 1),
            MeshDir::VMinus => (0, -1),
        }
    }

    /// The opposite mesh direction.
    #[inline]
    pub fn opposite(self) -> MeshDir {
        match self {
            MeshDir::UPlus => MeshDir::UMinus,
            MeshDir::UMinus => MeshDir::UPlus,
            MeshDir::VPlus => MeshDir::VMinus,
            MeshDir::VMinus => MeshDir::VPlus,
        }
    }

    /// Dense index 0..4 in [`MeshDir::ALL`] order.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MeshDir::UPlus => 0,
            MeshDir::UMinus => 1,
            MeshDir::VPlus => 2,
            MeshDir::VMinus => 3,
        }
    }
}

impl fmt::Display for MeshDir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeshDir::UPlus => write!(f, "U+"),
            MeshDir::UMinus => write!(f, "U-"),
            MeshDir::VPlus => write!(f, "V+"),
            MeshDir::VMinus => write!(f, "V-"),
        }
    }
}

/// Identifier of one of the twelve channel adapters on a node.
///
/// A channel adapter terminates one bidirectional external torus channel,
/// identified by the direction of *departing* packets and the torus slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId {
    /// Departing direction of the channel.
    pub dir: TorusDir,
    /// Torus slice of the channel.
    pub slice: Slice,
}

impl ChanId {
    /// Dense index 0..12 (direction-major).
    #[inline]
    pub fn index(self) -> usize {
        self.dir.index() * 2 + self.slice.0 as usize
    }

    /// Channel adapter with the given dense index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 12`.
    #[inline]
    pub fn from_index(idx: usize) -> ChanId {
        assert!(
            idx < NUM_CHAN_ADAPTERS,
            "channel adapter index {idx} out of range"
        );
        ChanId {
            dir: TorusDir::from_index(idx / 2),
            slice: Slice((idx % 2) as u8),
        }
    }

    /// All twelve channel adapters in index order.
    pub fn all() -> impl Iterator<Item = ChanId> {
        (0..NUM_CHAN_ADAPTERS).map(ChanId::from_index)
    }
}

impl fmt::Display for ChanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}{}", self.dir.dim, self.slice.0, self.dir.sign)
    }
}

/// Identifier of an endpoint adapter within a node (dense, `0..num_endpoints`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LocalEndpointId(pub u8);

impl fmt::Display for LocalEndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// What a router port attaches to within the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalAttach {
    /// A neighboring mesh router in the given direction.
    Mesh(MeshDir),
    /// The skip-channel partner router on the opposite edge.
    Skip,
    /// A channel adapter (and through it, an external torus channel).
    Chan(ChanId),
    /// An endpoint adapter (and through it, a compute endpoint).
    Endpoint(LocalEndpointId),
}

/// Attach codes below this value are fixed-function (mesh, skip, channel
/// adapters); endpoint attaches follow, so codes are bounded by
/// `ATTACH_CODE_BASE + num_endpoints`.
pub const ATTACH_CODE_BASE: usize = MeshDir::ALL.len() + 1 + NUM_CHAN_ADAPTERS;

impl LocalAttach {
    /// Dense code of this attach point, for index-keyed port lookup tables:
    /// mesh directions first, then skip, channel adapters, and endpoints.
    #[inline]
    pub fn code(self) -> usize {
        match self {
            LocalAttach::Mesh(d) => d.index(),
            LocalAttach::Skip => MeshDir::ALL.len(),
            LocalAttach::Chan(c) => MeshDir::ALL.len() + 1 + c.index(),
            LocalAttach::Endpoint(e) => ATTACH_CODE_BASE + e.0 as usize,
        }
    }
}

/// A directed on-chip link.
///
/// Bidirectional channels are represented as two directed links. Torus
/// channels themselves (between nodes) are *not* on-chip links; see the
/// machine-level link enumeration in downstream crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LocalLink {
    /// Mesh channel leaving router `from` in direction `dir`.
    Mesh {
        /// Source router.
        from: MeshCoord,
        /// Direction of the hop.
        dir: MeshDir,
    },
    /// Skip channel leaving router `from` toward its skip partner.
    Skip {
        /// Source router.
        from: MeshCoord,
    },
    /// Channel-adapter → router link (packets arriving from the torus).
    ChanToRouter(ChanId),
    /// Router → channel-adapter link (packets departing onto the torus).
    RouterToChan(ChanId),
    /// Endpoint-adapter → router link (injection).
    EpToRouter(LocalEndpointId),
    /// Router → endpoint-adapter link (ejection).
    RouterToEp(LocalEndpointId),
}

/// Deadlock-analysis group of a channel (Section 2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkGroup {
    /// Mesh channels (except skip channels) and endpoint-adapter links.
    M,
    /// Skip channels, router↔channel-adapter links, and torus channels.
    T,
}

impl LocalLink {
    /// The deadlock-analysis group of this link.
    #[inline]
    pub fn group(&self) -> LinkGroup {
        match self {
            LocalLink::Mesh { .. } | LocalLink::EpToRouter(_) | LocalLink::RouterToEp(_) => {
                LinkGroup::M
            }
            LocalLink::Skip { .. } | LocalLink::ChanToRouter(_) | LocalLink::RouterToChan(_) => {
                LinkGroup::T
            }
        }
    }
}

impl fmt::Display for LocalLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalLink::Mesh { from, dir } => write!(f, "{from}->{dir}"),
            LocalLink::Skip { from } => write!(f, "{from}->skip"),
            LocalLink::ChanToRouter(c) => write!(f, "{c}->R"),
            LocalLink::RouterToChan(c) => write!(f, "R->{c}"),
            LocalLink::EpToRouter(e) => write!(f, "{e}->R"),
            LocalLink::RouterToEp(e) => write!(f, "R->{e}"),
        }
    }
}

/// The fixed physical layout of one Anton 2 ASIC's network.
///
/// The layout is parameterized only by the number of endpoint adapters; all
/// other placement is fixed by the chip floorplan described in the paper.
///
/// # Examples
///
/// ```
/// use anton_core::chip::{ChipLayout, ChanId, MeshCoord};
/// use anton_core::topology::{Dim, Sign, Slice, TorusDir};
///
/// let chip = ChipLayout::new(16);
/// // Slice-1 +X traffic departs from R(0,0), as in the paper's example.
/// let x1p = ChanId { dir: TorusDir::new(Dim::X, Sign::Plus), slice: Slice(1) };
/// assert_eq!(chip.chan_router(x1p), MeshCoord::new(0, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipLayout {
    num_endpoints: u8,
    /// Router hosting each endpoint, indexed by `LocalEndpointId`.
    endpoint_router: Vec<MeshCoord>,
}

impl ChipLayout {
    /// Creates a layout with `num_endpoints` endpoint adapters.
    ///
    /// The first 16 endpoints are placed one per router (in router-index
    /// order); additional endpoints are placed on routers that still have a
    /// spare port. The Anton 2 ASIC has 23 endpoint adapters (Table 1); the
    /// experiments in Section 4 use one core per router, i.e. 16.
    ///
    /// # Panics
    ///
    /// Panics if `num_endpoints` is zero or exceeds the port budget
    /// (32 with the fixed adapter placement).
    pub fn new(num_endpoints: u8) -> ChipLayout {
        assert!(num_endpoints > 0, "a node needs at least one endpoint");
        let mut used_ports = [0usize; NUM_ROUTERS];
        for r in MeshCoord::all() {
            let mut n = MeshDir::ALL
                .iter()
                .filter(|d| r.step(**d).is_some())
                .count();
            if Self::skip_partner_static(r).is_some() {
                n += 1;
            }
            n += ChanId::all()
                .filter(|c| Self::chan_router_static(*c) == r)
                .count();
            used_ports[r.index()] = n;
        }
        let mut endpoint_router = Vec::with_capacity(num_endpoints as usize);
        // One endpoint per router first, then fill spare ports.
        for round in 0..MAX_ROUTER_PORTS {
            for r in MeshCoord::all() {
                if endpoint_router.len() == num_endpoints as usize {
                    break;
                }
                let hosted = endpoint_router.iter().filter(|&&h| h == r).count();
                if hosted == round && used_ports[r.index()] + hosted < MAX_ROUTER_PORTS {
                    endpoint_router.push(r);
                }
            }
        }
        assert!(
            endpoint_router.len() == num_endpoints as usize,
            "port budget exceeded: only {} endpoint ports available, {num_endpoints} requested",
            endpoint_router.len()
        );
        ChipLayout {
            num_endpoints,
            endpoint_router,
        }
    }

    /// Number of endpoint adapters on this node.
    #[inline]
    pub fn num_endpoints(&self) -> u8 {
        self.num_endpoints
    }

    /// All endpoint ids on this node.
    pub fn endpoints(&self) -> impl Iterator<Item = LocalEndpointId> {
        (0..self.num_endpoints).map(LocalEndpointId)
    }

    /// The router hosting an endpoint adapter.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint id is out of range.
    #[inline]
    pub fn endpoint_router(&self, ep: LocalEndpointId) -> MeshCoord {
        self.endpoint_router[ep.0 as usize]
    }

    /// The router a channel adapter attaches to (fixed floorplan).
    #[inline]
    pub fn chan_router(&self, chan: ChanId) -> MeshCoord {
        Self::chan_router_static(chan)
    }

    #[inline]
    fn chan_router_static(chan: ChanId) -> MeshCoord {
        let s = chan.slice.0;
        match (chan.dir.dim, chan.dir.sign) {
            // X+ on the U=0 edge, X− on the U=3 edge; slice 1 in row V=0,
            // slice 0 in row V=1.
            (Dim::X, Sign::Plus) => MeshCoord::new(0, if s == 1 { 0 } else { 1 }),
            (Dim::X, Sign::Minus) => MeshCoord::new(3, if s == 1 { 0 } else { 1 }),
            // Y/Z of slice 0 on the U=0 edge, slice 1 on the U=3 edge; both
            // directions of a channel attach to the same router.
            (Dim::Y, _) => {
                if s == 0 {
                    MeshCoord::new(0, 2)
                } else {
                    MeshCoord::new(3, 3)
                }
            }
            (Dim::Z, _) => {
                if s == 0 {
                    MeshCoord::new(0, 3)
                } else {
                    MeshCoord::new(3, 2)
                }
            }
        }
    }

    /// The skip-channel partner of a router, if it has one.
    ///
    /// Skip channels connect `R(0,0) ↔ R(3,0)` and `R(0,1) ↔ R(3,1)`,
    /// letting X through-traffic bypass two intermediate routers.
    #[inline]
    pub fn skip_partner(&self, r: MeshCoord) -> Option<MeshCoord> {
        Self::skip_partner_static(r)
    }

    #[inline]
    fn skip_partner_static(r: MeshCoord) -> Option<MeshCoord> {
        match (r.u, r.v) {
            (0, 0) => Some(MeshCoord::new(3, 0)),
            (3, 0) => Some(MeshCoord::new(0, 0)),
            (0, 1) => Some(MeshCoord::new(3, 1)),
            (3, 1) => Some(MeshCoord::new(0, 1)),
            _ => None,
        }
    }

    /// The on-chip routing rule (Section 2.4): the port a packet at router
    /// `here` leaves by on its way to the adapter `target`. At the target's
    /// own router that is the target; X through-traffic — `arrived_x`, bound
    /// for an X adapter — standing at the skip partner of that adapter's
    /// router takes the skip channel; everything else takes the mesh hop
    /// the Anton direction order ([`DirOrder::ANTON`]) gives.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not a channel or endpoint adapter.
    #[inline]
    pub fn next_attach(
        &self,
        here: MeshCoord,
        target: LocalAttach,
        arrived_x: bool,
    ) -> LocalAttach {
        let (target_router, through_x) = match target {
            LocalAttach::Chan(c) => (self.chan_router(c), arrived_x && c.dir.dim == Dim::X),
            LocalAttach::Endpoint(e) => (self.endpoint_router(e), false),
            LocalAttach::Mesh(_) | LocalAttach::Skip => panic!("packets target adapters"),
        };
        if here == target_router {
            target
        } else if through_x && self.skip_partner(here) == Some(target_router) {
            LocalAttach::Skip
        } else {
            let dir = DirOrder::ANTON.next_dir(here, target_router);
            LocalAttach::Mesh(dir.expect("distinct routers need a mesh hop"))
        }
    }

    /// The port list of a router: everything it attaches to.
    ///
    /// Every router has at most [`MAX_ROUTER_PORTS`] ports.
    pub fn router_ports(&self, r: MeshCoord) -> Vec<LocalAttach> {
        let mut ports = Vec::with_capacity(MAX_ROUTER_PORTS);
        for d in MeshDir::ALL {
            if r.step(d).is_some() {
                ports.push(LocalAttach::Mesh(d));
            }
        }
        if self.skip_partner(r).is_some() {
            ports.push(LocalAttach::Skip);
        }
        for c in ChanId::all() {
            if self.chan_router(c) == r {
                ports.push(LocalAttach::Chan(c));
            }
        }
        for (i, host) in self.endpoint_router.iter().enumerate() {
            if *host == r {
                ports.push(LocalAttach::Endpoint(LocalEndpointId(i as u8)));
            }
        }
        ports
    }

    /// Enumerates every directed on-chip link.
    pub fn local_links(&self) -> Vec<LocalLink> {
        let mut links = Vec::new();
        for r in MeshCoord::all() {
            for d in MeshDir::ALL {
                if r.step(d).is_some() {
                    links.push(LocalLink::Mesh { from: r, dir: d });
                }
            }
            if self.skip_partner(r).is_some() {
                links.push(LocalLink::Skip { from: r });
            }
        }
        for c in ChanId::all() {
            links.push(LocalLink::ChanToRouter(c));
            links.push(LocalLink::RouterToChan(c));
        }
        for e in self.endpoints() {
            links.push(LocalLink::EpToRouter(e));
            links.push(LocalLink::RouterToEp(e));
        }
        links
    }

    /// Source and destination routers of a directed local link.
    ///
    /// Adapter links return the hosting router on both legs' router side:
    /// for `ChanToRouter`/`EpToRouter` the destination is the router; for
    /// `RouterToChan`/`RouterToEp` the source is the router.
    pub fn link_routers(&self, link: LocalLink) -> (MeshCoord, MeshCoord) {
        match link {
            LocalLink::Mesh { from, dir } => {
                (from, from.step(dir).expect("mesh link must stay in mesh"))
            }
            LocalLink::Skip { from } => (
                from,
                self.skip_partner(from).expect("skip link requires partner"),
            ),
            LocalLink::ChanToRouter(c) => (self.chan_router(c), self.chan_router(c)),
            LocalLink::RouterToChan(c) => (self.chan_router(c), self.chan_router(c)),
            LocalLink::EpToRouter(e) => (self.endpoint_router(e), self.endpoint_router(e)),
            LocalLink::RouterToEp(e) => (self.endpoint_router(e), self.endpoint_router(e)),
        }
    }
}

impl Default for ChipLayout {
    /// A layout with one endpoint per router (16), the configuration used by
    /// the paper's measurements ("one core per router").
    fn default() -> ChipLayout {
        ChipLayout::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_budget_respected() {
        for n in [1u8, 16, 23, 28] {
            let chip = ChipLayout::new(n);
            for r in MeshCoord::all() {
                let ports = chip.router_ports(r);
                assert!(
                    ports.len() <= MAX_ROUTER_PORTS,
                    "{r} has {} ports with {n} endpoints",
                    ports.len()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "port budget exceeded")]
    fn too_many_endpoints_rejected() {
        ChipLayout::new(33);
    }

    #[test]
    fn paper_x_through_example() {
        // Section 2.4: a packet traveling +X on slice 1 follows
        // X1- -> R(3,0) -> skip -> R(0,0) -> X1+.
        let chip = ChipLayout::default();
        let arrive = ChanId {
            dir: TorusDir::new(Dim::X, Sign::Minus),
            slice: Slice(1),
        };
        let depart = ChanId {
            dir: TorusDir::new(Dim::X, Sign::Plus),
            slice: Slice(1),
        };
        assert_eq!(chip.chan_router(arrive), MeshCoord::new(3, 0));
        assert_eq!(chip.chan_router(depart), MeshCoord::new(0, 0));
        assert_eq!(
            chip.skip_partner(chip.chan_router(arrive)),
            Some(chip.chan_router(depart))
        );
    }

    #[test]
    fn paper_y_through_example() {
        // Section 2.4: a packet traveling -Y on slice 0 follows
        // Y0+ -> R(0,2) -> Y0-.
        let chip = ChipLayout::default();
        let arrive = ChanId {
            dir: TorusDir::new(Dim::Y, Sign::Plus),
            slice: Slice(0),
        };
        let depart = ChanId {
            dir: TorusDir::new(Dim::Y, Sign::Minus),
            slice: Slice(0),
        };
        assert_eq!(chip.chan_router(arrive), MeshCoord::new(0, 2));
        assert_eq!(chip.chan_router(depart), MeshCoord::new(0, 2));
    }

    #[test]
    fn yz_same_slice_same_edge() {
        let chip = ChipLayout::default();
        for slice in Slice::ALL {
            let edge = chip
                .chan_router(ChanId {
                    dir: TorusDir::new(Dim::Y, Sign::Plus),
                    slice,
                })
                .u;
            for dim in [Dim::Y, Dim::Z] {
                for sign in [Sign::Plus, Sign::Minus] {
                    let r = chip.chan_router(ChanId {
                        dir: TorusDir::new(dim, sign),
                        slice,
                    });
                    assert_eq!(r.u, edge, "{dim}{sign} {slice} not on edge U={edge}");
                }
            }
        }
    }

    #[test]
    fn skip_channels_symmetric() {
        let chip = ChipLayout::default();
        let mut count = 0;
        for r in MeshCoord::all() {
            if let Some(p) = chip.skip_partner(r) {
                count += 1;
                assert_eq!(chip.skip_partner(p), Some(r));
                // A skip channel bypasses exactly two intermediate routers.
                assert_eq!((r.u as i8 - p.u as i8).abs(), 3);
                assert_eq!(r.v, p.v);
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn link_groups_match_section_2_5() {
        let chip = ChipLayout::default();
        let links = chip.local_links();
        // 48 directed mesh links + 4 skip + 24 chan-adapter + 32 endpoint.
        assert_eq!(links.len(), 48 + 4 + 24 + 32);
        for link in links {
            match link {
                LocalLink::Mesh { .. } => assert_eq!(link.group(), LinkGroup::M),
                LocalLink::Skip { .. }
                | LocalLink::ChanToRouter(_)
                | LocalLink::RouterToChan(_) => assert_eq!(link.group(), LinkGroup::T),
                LocalLink::EpToRouter(_) | LocalLink::RouterToEp(_) => {
                    assert_eq!(link.group(), LinkGroup::M)
                }
            }
        }
    }

    #[test]
    fn endpoints_fill_one_per_router_first() {
        let chip = ChipLayout::new(16);
        let hosts: std::collections::HashSet<_> =
            chip.endpoints().map(|e| chip.endpoint_router(e)).collect();
        assert_eq!(hosts.len(), 16);
    }

    #[test]
    fn mesh_step_edges() {
        assert_eq!(MeshCoord::new(0, 0).step(MeshDir::UMinus), None);
        assert_eq!(MeshCoord::new(3, 3).step(MeshDir::VPlus), None);
        assert_eq!(
            MeshCoord::new(1, 2).step(MeshDir::UPlus),
            Some(MeshCoord::new(2, 2))
        );
    }
}
