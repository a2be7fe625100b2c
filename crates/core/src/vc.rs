//! Virtual-channel allocation and the Anton 2 VC promotion algorithm
//! (Section 2.5).
//!
//! The network avoids deadlock by keeping the dependency graph between
//! virtual channels acyclic within each traffic class. Channels are divided
//! into an M-group (mesh and endpoint links) and a T-group (skip channels,
//! channel-adapter links, and torus channels); see
//! [`crate::chip::LinkGroup`].
//!
//! Prior approaches ([20] in the paper) use `2n` T-group VCs for an
//! n-dimensional torus: a fresh pair of dateline VCs per routed dimension.
//! The Anton 2 algorithm instead increments a packet's VC only when it
//! (1) crosses a dateline, or (2) finishes routing a torus dimension in which
//! it did not cross a dateline — at most once per dimension — which needs
//! only `n + 1` VCs and is deadlock-free given minimal routing and aligned
//! `+`/`−` datelines.

use std::fmt;

use crate::chip::LinkGroup;
use crate::topology::TorusDir;

/// Traffic class (Section 2.1): separate request and reply classes avoid
/// protocol deadlock. Each class has its own full set of VCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum TrafficClass {
    /// Request traffic (remote writes, read requests).
    #[default]
    Request,
    /// Reply traffic (read responses, acknowledgements).
    Reply,
}

impl TrafficClass {
    /// Both traffic classes.
    pub const ALL: [TrafficClass; 2] = [TrafficClass::Request, TrafficClass::Reply];

    /// Class index (Request → 0, Reply → 1).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficClass::Request => 0,
            TrafficClass::Reply => 1,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficClass::Request => write!(f, "req"),
            TrafficClass::Reply => write!(f, "rsp"),
        }
    }
}

/// A virtual channel index within one traffic class and link group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vc(pub u8);

impl fmt::Display for Vc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vc{}", self.0)
    }
}

/// Which VC allocation policy the network runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum VcPolicy {
    /// The Anton 2 promotion algorithm: n+1 = 4 VCs for each of the M- and
    /// T-groups on a 3-dimensional torus.
    #[default]
    Anton,
    /// The prior approach [20]: a fresh dateline VC pair per dimension.
    /// 2n = 6 T-group VCs and n+1 = 4 M-group VCs.
    Baseline2n,
    /// Negative control: a single VC everywhere. The T-group ring cycles are
    /// not broken, so this policy deadlocks; it exists to validate the
    /// deadlock detectors.
    NaiveSingle,
}

impl VcPolicy {
    /// Number of VCs this policy requires per traffic class on links of the
    /// given group (for a 3-dimensional torus).
    pub fn num_vcs(self, group: LinkGroup) -> u8 {
        match (self, group) {
            (VcPolicy::Anton, _) => 4,
            (VcPolicy::Baseline2n, LinkGroup::M) => 4,
            (VcPolicy::Baseline2n, LinkGroup::T) => 6,
            (VcPolicy::NaiveSingle, _) => 1,
        }
    }

    /// Initial VC tracking state for a freshly injected packet.
    pub fn start(self) -> VcState {
        VcState {
            policy: self,
            m_vc: 0,
            t_vc: 0,
            crossed: false,
            dims_done: 0,
            in_dim: false,
        }
    }
}

impl fmt::Display for VcPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcPolicy::Anton => write!(f, "anton(n+1)"),
            VcPolicy::Baseline2n => write!(f, "baseline(2n)"),
            VcPolicy::NaiveSingle => write!(f, "naive(1)"),
        }
    }
}

/// Per-packet VC tracking state.
///
/// A packet's route alternates between the M-group (mesh hops to/from
/// adapters) and the T-group (torus hops along one dimension). Callers drive
/// the state machine with [`VcState::turn`] at every node and
/// [`VcState::torus_hop`] on every torus link, and read the VC to request on
/// each link with [`VcState::vc_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcState {
    policy: VcPolicy,
    m_vc: u8,
    t_vc: u8,
    crossed: bool,
    dims_done: u8,
    in_dim: bool,
}

impl VcState {
    /// The VC a packet in this state requests on a link of the given group.
    #[inline]
    pub fn vc_for(&self, group: LinkGroup) -> Vc {
        match group {
            LinkGroup::M => Vc(self.m_vc),
            LinkGroup::T => Vc(self.t_vc),
        }
    }

    /// The dimension-boundary rule, applied once per node a packet enters:
    /// `arrived` is the torus direction it arrived travelling in (`None` at
    /// its source), `next` the one it departs in (`None` at its
    /// destination). Nothing changes while a run continues; a run that ends
    /// here calls [`VcState::end_dim`], one that starts here
    /// [`VcState::begin_dim`]. Runs are compared by dimension, so a degraded
    /// table's detour may revisit one.
    ///
    /// # Panics
    ///
    /// Panics if a run reverses direction, and as [`VcState::begin_dim`] and
    /// [`VcState::end_dim`] do.
    #[inline]
    pub fn turn(&mut self, arrived: Option<TorusDir>, next: Option<TorusDir>) {
        if let (Some(a), Some(n)) = (arrived, next) {
            if a.dim == n.dim {
                assert_eq!(a, n, "hops within a dimension must share a direction");
                return;
            }
        }
        if arrived.is_some() {
            self.end_dim();
        }
        if next.is_some() {
            self.begin_dim();
        }
    }

    /// Marks the start of torus routing in a new dimension.
    ///
    /// Called when the packet commits to its next torus dimension (as it
    /// heads for the departure channel adapter).
    ///
    /// # Panics
    ///
    /// Panics if a previous dimension was begun but never ended, or if more
    /// than three dimensions are routed.
    pub fn begin_dim(&mut self) {
        assert!(!self.in_dim, "begin_dim called twice without end_dim");
        assert!(
            self.dims_done < 3,
            "a minimal 3D route visits at most 3 dimensions"
        );
        self.in_dim = true;
        self.crossed = false;
        match self.policy {
            VcPolicy::Anton => self.t_vc = self.m_vc,
            VcPolicy::Baseline2n => self.t_vc = 2 * self.dims_done,
            VcPolicy::NaiveSingle => self.t_vc = 0,
        }
    }

    /// Records one torus hop; `crosses_dateline` is whether this hop crosses
    /// the dimension's dateline. The hop's torus link (and all subsequent
    /// T-group links in this dimension) use the returned VC.
    ///
    /// # Panics
    ///
    /// Panics if called outside a dimension, or if the dateline is crossed
    /// twice in one dimension (impossible under minimal routing).
    pub fn torus_hop(&mut self, crosses_dateline: bool) -> Vc {
        assert!(self.in_dim, "torus_hop outside begin_dim/end_dim");
        if crosses_dateline {
            assert!(
                !self.crossed,
                "minimal route crossed a dateline twice in one dimension"
            );
            self.crossed = true;
            match self.policy {
                VcPolicy::Anton | VcPolicy::Baseline2n => self.t_vc += 1,
                VcPolicy::NaiveSingle => {}
            }
        }
        Vc(self.t_vc)
    }

    /// Marks the end of routing in the current dimension. Subsequent M-group
    /// links use the returned VC.
    ///
    /// Under the Anton policy the packet's VC is incremented here only if it
    /// did not cross the dateline in this dimension, so the VC advances by
    /// exactly one per dimension.
    ///
    /// # Panics
    ///
    /// Panics if called outside a dimension.
    pub fn end_dim(&mut self) -> Vc {
        assert!(self.in_dim, "end_dim without begin_dim");
        self.in_dim = false;
        self.dims_done += 1;
        match self.policy {
            VcPolicy::Anton => {
                self.m_vc = if self.crossed {
                    self.t_vc
                } else {
                    self.t_vc + 1
                };
            }
            VcPolicy::Baseline2n => self.m_vc = self.dims_done,
            VcPolicy::NaiveSingle => {}
        }
        Vc(self.m_vc)
    }

    /// Number of torus dimensions completed so far.
    #[inline]
    pub fn dims_done(&self) -> u8 {
        self.dims_done
    }

    /// Whether the packet is currently between `begin_dim` and `end_dim`.
    #[inline]
    pub fn in_dim(&self) -> bool {
        self.in_dim
    }

    /// The M-group VC currently held (static-analysis introspection).
    #[inline]
    pub fn m_vc(&self) -> u8 {
        self.m_vc
    }

    /// The T-group VC currently held (static-analysis introspection).
    #[inline]
    pub fn t_vc(&self) -> u8 {
        self.t_vc
    }

    /// Whether the dateline was crossed in the current (or, between
    /// dimensions, the most recent) dimension.
    #[inline]
    pub fn crossed(&self) -> bool {
        self.crossed
    }

    /// The policy this state machine runs.
    #[inline]
    pub fn policy(&self) -> VcPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(policy: VcPolicy, dims: &[(u32, Option<u32>)]) -> VcState {
        // dims: (hops, Some(hop index that crosses dateline) or None)
        let mut st = policy.start();
        for &(hops, crossing) in dims {
            st.begin_dim();
            for h in 0..hops {
                st.torus_hop(Some(h) == crossing);
            }
            st.end_dim();
        }
        st
    }

    #[test]
    fn anton_increments_once_per_dim() {
        // No dateline crossings: increment at each dimension end.
        let st = drive(VcPolicy::Anton, &[(2, None), (1, None), (3, None)]);
        assert_eq!(st.vc_for(LinkGroup::M), Vc(3));

        // All dimensions cross: increment at each crossing, not at the end.
        let st = drive(VcPolicy::Anton, &[(2, Some(0)), (1, Some(0)), (3, Some(2))]);
        assert_eq!(st.vc_for(LinkGroup::M), Vc(3));

        // Mixed.
        let st = drive(VcPolicy::Anton, &[(2, Some(1)), (4, None)]);
        assert_eq!(st.vc_for(LinkGroup::M), Vc(2));
    }

    #[test]
    fn anton_max_vc_is_three() {
        // Worst case: 3 dimensions, any crossing combination -> final VC 3.
        for crossings in 0u8..8 {
            let dims: Vec<(u32, Option<u32>)> = (0..3)
                .map(|i| {
                    (
                        2,
                        if crossings & (1 << i) != 0 {
                            Some(0)
                        } else {
                            None
                        },
                    )
                })
                .collect();
            let st = drive(VcPolicy::Anton, &dims);
            assert_eq!(
                st.vc_for(LinkGroup::M),
                Vc(3),
                "crossings mask {crossings:03b}"
            );
        }
        assert_eq!(VcPolicy::Anton.num_vcs(LinkGroup::T), 4);
        assert_eq!(VcPolicy::Anton.num_vcs(LinkGroup::M), 4);
    }

    #[test]
    fn anton_t_vc_within_bounds_mid_route() {
        let mut st = VcPolicy::Anton.start();
        for dim in 0..3 {
            st.begin_dim();
            let vc = st.torus_hop(false);
            assert!(vc.0 <= 3, "dim {dim}");
            let vc = st.torus_hop(true);
            assert!(vc.0 <= 3, "dim {dim} post-crossing");
            st.end_dim();
        }
    }

    #[test]
    fn baseline_uses_fresh_pair_per_dim() {
        let mut st = VcPolicy::Baseline2n.start();
        st.begin_dim();
        assert_eq!(st.torus_hop(false), Vc(0));
        assert_eq!(st.torus_hop(true), Vc(1));
        assert_eq!(st.end_dim(), Vc(1));
        st.begin_dim();
        assert_eq!(st.torus_hop(false), Vc(2));
        assert_eq!(st.end_dim(), Vc(2));
        st.begin_dim();
        assert_eq!(st.torus_hop(true), Vc(5));
        assert_eq!(st.end_dim(), Vc(3));
        assert_eq!(VcPolicy::Baseline2n.num_vcs(LinkGroup::T), 6);
    }

    #[test]
    fn naive_never_increments() {
        let st = drive(
            VcPolicy::NaiveSingle,
            &[(4, Some(1)), (4, Some(0)), (4, None)],
        );
        assert_eq!(st.vc_for(LinkGroup::M), Vc(0));
        assert_eq!(st.vc_for(LinkGroup::T), Vc(0));
    }

    #[test]
    #[should_panic(expected = "crossed a dateline twice")]
    fn double_crossing_rejected() {
        let mut st = VcPolicy::Anton.start();
        st.begin_dim();
        st.torus_hop(true);
        st.torus_hop(true);
    }

    #[test]
    #[should_panic(expected = "at most 3 dimensions")]
    fn four_dims_rejected() {
        drive(
            VcPolicy::Anton,
            &[(1, None), (1, None), (1, None), (1, None)],
        );
    }
}
