//! Dimension-order torus routing as a [`RoutingFunction`] transition system.
//!
//! This is the paper's routing scheme — minimal dimension-order runs over
//! the channel-sliced 3D torus with the n+1-VC promotion ladder — expressed
//! in the abstract form the topology-agnostic certifier consumes. A packet's
//! abstract state is either:
//!
//! * an **M-phase entry**: the packet sits in an injection buffer
//!   (`EpToRouter`) or an arrival adapter (`ChanToRouter`) with some set of
//!   dimensions already routed and its VC ladder at the canonical M-phase
//!   position for that set, about to be delivered locally or to depart on a
//!   fresh dimension; or
//! * **mid-arc**: the packet is `hops` links deep into a single-dimension
//!   run, sitting in the arrival adapter of an intermediate node, able to
//!   continue the run (up to the arc-length bound) or end the dimension in
//!   place.
//!
//! Because `VcState::begin_dim` derives the T-phase position solely from the
//! M-phase VC (and resets the crossing flag), M-phase states are canonical
//! in `(m_vc, dims_routed)` — the whole state space is a handful of entries
//! closed over eagerly at construction. The certifier's breadth-first
//! exploration over `(link, VC, state)` then reproduces, edge for edge, the
//! channel-dependency graph of the previous hard-wired generator (pinned by
//! the cross-check suite in `anton-verify`).
//!
//! Every transition that acquires links is one chip traversal of the route
//! program (`trace::leg`, the function the reference tracer folds), so the
//! steps here are the tracer's by construction; this module adds only the
//! abstract states and which exits each admits.

use std::collections::{HashMap, VecDeque};

use crate::chip::{ChanId, LinkGroup, LocalAttach, LocalLink};
use crate::config::MachineConfig;
use crate::net::{Arrival, MulHash, RouteState, RoutingFunction, Transitions};
use crate::topology::{Dim, NodeCoord, Sign, Slice, TorusDir};
use crate::trace::{leg, GlobalLink};
use crate::vc::VcState;

fn dim_bit(d: Dim) -> u8 {
    1 << d.index()
}

/// Dimension-order routing over the torus: the one model of it the deadlock
/// certifier, its lints and its certificate labels read. Besides the
/// machine as built ([`new`](Self::new)) it covers two variants the
/// verifier analyzes for counterexamples: the machine with its dateline
/// rule off and the degraded route family.
#[derive(Debug, Clone)]
pub struct DimOrderRouting {
    cfg: MachineConfig,
    /// Whether dateline crossings promote VCs.
    datelines: bool,
    /// Whether runs may take the long way around a ring (arcs up to
    /// `k − 1` hops, either sign), as degraded route tables do.
    long_arcs: bool,
    /// Canonical M-phase entries: a representative VC state as it *arrives*
    /// (the start state, or the last hop of a run — the boundary is turned
    /// by the leg that leaves the entry) and the dims-routed mask.
    mentries: Vec<(VcState, u8)>,
    /// M-phase entry by `(M-group VC past the boundary, dims-routed mask)`.
    mentry_idx: HashMap<(u8, u8), u32, MulHash>,
    /// Mid-arc states: `(VC state inside the run, mask before this dim)`.
    inarcs: Vec<(VcState, u8)>,
    inarc_idx: HashMap<(VcState, u8), u32, MulHash>,
}

impl DimOrderRouting {
    /// The routing of the machine as configured: minimal arcs, datelines
    /// active.
    pub fn new(cfg: MachineConfig) -> DimOrderRouting {
        DimOrderRouting::build(cfg, true, false)
    }

    /// The same routing with the dateline rule disabled: a machine whose
    /// dateline registers were never programmed, the classic unsafe torus
    /// configuration, which must make the certifier produce a concrete
    /// dependency cycle.
    pub fn without_datelines(cfg: MachineConfig) -> DimOrderRouting {
        DimOrderRouting::build(cfg, false, false)
    }

    /// The degraded route family under active datelines: every
    /// direction-ordered route the machine can carry, healthy minimal
    /// routing *and* every direction-ordered degraded table (arcs up to
    /// `k − 1` hops, either sign). A simple arc still crosses its ring's
    /// dateline at most once whatever its length, so the same abstract
    /// states apply; the edge set is strictly larger.
    ///
    /// This over-approximation is **cyclic for `k ≥ 4`**: crossed long arcs
    /// deliver promoted-VC arrivals far from the dateline, whose low-VC
    /// mesh chains couple opposite-direction rings across slices (see
    /// `anton_verify::degraded`). It exists as an analysis model and
    /// counterexample generator; concrete table sets are certified
    /// explicitly instead.
    pub fn degraded_family(cfg: MachineConfig) -> DimOrderRouting {
        DimOrderRouting::build(cfg, true, true)
    }

    /// Builds the transition system for `cfg`: `datelines` false disables
    /// dateline VC promotion; `long_arcs` raises the arc-length bound from
    /// minimal (`k/2`) to the worst case a degraded route table may take
    /// (`k − 1`).
    fn build(cfg: MachineConfig, datelines: bool, long_arcs: bool) -> DimOrderRouting {
        let start = cfg.vc_policy.start();
        let mut mentries: Vec<(VcState, u8)> = vec![(start, 0)];
        let mut mentry_idx: HashMap<(u8, u8), u32, MulHash> = HashMap::default();
        mentry_idx.insert((start.m_vc(), 0), 0);
        let mut inarcs: Vec<(VcState, u8)> = Vec::new();
        let mut inarc_idx: HashMap<(VcState, u8), u32, MulHash> = HashMap::default();
        let mut queue: VecDeque<(u32, Option<TorusDir>)> = VecDeque::from([(0, None)]);
        while let Some((mi, arrived)) = queue.pop_front() {
            let (st0, mask) = mentries[mi as usize];
            for dim in Dim::ALL {
                if cfg.shape.k(dim) <= 1 || mask & dim_bit(dim) != 0 {
                    continue;
                }
                let dir = TorusDir::new(dim, Sign::Plus);
                let mut entered = st0;
                entered.turn(arrived, Some(dir));
                // The two VC states a run in this dimension can occupy: the
                // dateline not yet crossed (a non-crossing hop leaves the
                // state untouched) and crossed (when datelines are active).
                for crossing in [false, true] {
                    if crossing && !datelines {
                        continue;
                    }
                    let mut v = entered;
                    let _ = v.torus_hop(crossing);
                    inarc_idx.entry((v, mask)).or_insert_with(|| {
                        inarcs.push((v, mask));
                        (inarcs.len() - 1) as u32
                    });
                    let mut ended = v;
                    ended.turn(Some(dir), None);
                    let key = (ended.m_vc(), mask | dim_bit(dim));
                    if let std::collections::hash_map::Entry::Vacant(e) = mentry_idx.entry(key) {
                        e.insert(mentries.len() as u32);
                        queue.push_back((mentries.len() as u32, Some(dir)));
                        mentries.push((v, mask | dim_bit(dim)));
                    }
                }
            }
        }
        DimOrderRouting {
            cfg,
            datelines,
            long_arcs,
            mentries,
            mentry_idx,
            inarcs,
            inarc_idx,
        }
    }

    /// The machine configuration this routing function was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Whether dateline crossings promote VCs (false only for
    /// [`without_datelines`](Self::without_datelines)).
    pub fn datelines(&self) -> bool {
        self.datelines
    }

    /// The VC policy and dateline setting, e.g. `anton(n+1) policy,
    /// datelines on`: the label a certificate of this routing carries.
    pub fn label(&self) -> String {
        format!(
            "{} policy, datelines {}",
            self.cfg.vc_policy,
            if self.datelines { "on" } else { "off" }
        )
    }

    fn mentry_state(idx: u32) -> RouteState {
        RouteState(u64::from(idx) << 1)
    }

    fn inarc_state(idx: u32, hops: u32) -> RouteState {
        RouteState((u64::from(idx) << 1) | 1 | (u64::from(hops) << 32))
    }

    /// Directions a run can depart in along `dim`. For `k == 2` the minimal
    /// tie-break always resolves to `+`, so `-` arcs are unreachable and
    /// must not enter the dependency graph — unless the model covers the
    /// degraded family, where a table may route `-` because `+` is down.
    fn signs_for(&self, dim: Dim) -> &'static [Sign] {
        if self.cfg.shape.k(dim) == 2 && !self.long_arcs {
            &[Sign::Plus]
        } else {
            &[Sign::Plus, Sign::Minus]
        }
    }

    fn max_arc_len(&self, dim: Dim) -> u32 {
        let k = u32::from(self.cfg.shape.k(dim));
        if self.long_arcs {
            k - 1
        } else {
            k / 2
        }
    }

    /// The dateline rule: whether the hop leaving `at` in `dir` promotes
    /// the packet's VC under this routing.
    pub fn crosses(&self, at: NodeCoord, dir: TorusDir) -> bool {
        self.datelines && self.cfg.shape.hop_crosses_dateline(at, dir)
    }

    /// One [`leg`] from the buffer `entry` at `at` in VC state `st`, as a
    /// transition written to `out`: a delivery ends the route; a departure
    /// arrives `hops` links into its run at the neighbor (`mask`: the
    /// dimensions routed before the run).
    fn traverse(
        &self,
        at: NodeCoord,
        entry: LocalLink,
        exit: LocalAttach,
        (mut st, mask): (VcState, u8),
        hops: u32,
        out: &mut Transitions,
    ) {
        let crosses = matches!(exit, LocalAttach::Chan(c) if self.crosses(at, c.dir));
        let steps = out.steps_mut();
        let nbr = leg(&self.cfg, at, entry, exit, crosses, &mut st, steps);
        let next = matches!(exit, LocalAttach::Chan(_)).then(|| {
            let state = Self::inarc_state(self.inarc_idx[&(st, mask)], hops);
            (self.cfg.shape.id(nbr), state)
        });
        out.end(next);
    }
}

impl RoutingFunction for DimOrderRouting {
    fn describe(&self) -> String {
        format!(
            "dimension-order, {}{}",
            self.label(),
            if self.long_arcs { ", long arcs" } else { "" },
        )
    }

    fn num_vcs(&self) -> usize {
        let p = self.cfg.vc_policy;
        usize::from(p.num_vcs(LinkGroup::M).max(p.num_vcs(LinkGroup::T)))
    }

    fn roots(&self) -> Vec<Arrival> {
        let m0 = self.cfg.vc_policy.start().vc_for(LinkGroup::M);
        let mut out = Vec::new();
        for coord in self.cfg.shape.nodes() {
            let node = self.cfg.shape.id(coord);
            for ep in self.cfg.chip.endpoints() {
                out.push(Arrival {
                    node,
                    link: GlobalLink::Local {
                        node,
                        link: LocalLink::EpToRouter(ep),
                    },
                    vc: m0,
                    state: Self::mentry_state(0),
                });
            }
        }
        out
    }

    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let GlobalLink::Local { link: entry, .. } = arrival.link else {
            return;
        };
        let at = self.cfg.shape.coord(arrival.node);
        if arrival.state.0 & 1 == 0 {
            // M-phase entry: deliver to any local endpoint, or depart on any
            // unrouted dimension. Injections may use either slice; a packet
            // arriving from the torus is pinned to its channel's slice.
            let from @ (_, mask) = self.mentries[(arrival.state.0 >> 1) as usize];
            let slices: &[Slice] = match entry {
                LocalLink::EpToRouter(_) => &Slice::ALL,
                LocalLink::ChanToRouter(c) => &Slice::ALL[usize::from(c.slice.0)..][..1],
                _ => return,
            };
            for ep in self.cfg.chip.endpoints() {
                self.traverse(at, entry, LocalAttach::Endpoint(ep), from, 0, out);
            }
            for dim in Dim::ALL {
                if self.cfg.shape.k(dim) <= 1 || mask & dim_bit(dim) != 0 {
                    continue;
                }
                for &sign in self.signs_for(dim) {
                    for &slice in slices {
                        let dir = TorusDir::new(dim, sign);
                        let exit = LocalAttach::Chan(ChanId { dir, slice });
                        self.traverse(at, entry, exit, from, 1, out);
                    }
                }
            }
        } else {
            // Mid-arc: end the dimension in place or continue the run.
            let from @ (st, pre_mask) =
                self.inarcs[((arrival.state.0 >> 1) & 0x7fff_ffff) as usize];
            let hops = (arrival.state.0 >> 32) as u32;
            let LocalLink::ChanToRouter(arrive) = entry else {
                return;
            };
            let dir = arrive.dir.opposite();
            // Ending reinterprets the same buffer as an M-phase entry (no
            // new links are acquired at a dimension boundary).
            let mut ended = st;
            ended.turn(Some(dir), None);
            let mi = self.mentry_idx[&(ended.m_vc(), pre_mask | dim_bit(dir.dim))];
            out.end(Some((arrival.node, Self::mentry_state(mi))));
            if hops < self.max_arc_len(dir.dim) && !(self.crosses(at, dir) && st.crossed()) {
                let exit = LocalAttach::Chan(ChanId {
                    dir,
                    slice: arrive.slice,
                });
                self.traverse(at, entry, exit, from, hops + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TorusShape;
    use crate::vc::{Vc, VcPolicy};

    #[test]
    fn state_closure_is_small_and_complete() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let rf = DimOrderRouting::new(cfg);
        // Anton policy: one canonical M-entry per dims-routed mask.
        assert_eq!(rf.mentries.len(), 8);
        // Per (entry, unrouted dim): crossed and uncrossed arc states.
        assert!(!rf.inarcs.is_empty());
        for &(st, mask) in &rf.inarcs {
            assert!(st.in_dim());
            assert!(mask < 8);
        }
    }

    #[test]
    fn roots_cover_every_injection_buffer() {
        let cfg = MachineConfig::new(TorusShape::new(2, 2, 1));
        let eps = cfg.endpoints_per_node();
        let nodes = cfg.shape.num_nodes();
        let rf = DimOrderRouting::new(cfg);
        assert_eq!(rf.roots().len(), nodes * eps);
    }

    #[test]
    fn naive_policy_stays_on_vc0() {
        let mut cfg = MachineConfig::new(TorusShape::cube(2));
        cfg.vc_policy = VcPolicy::NaiveSingle;
        let rf = DimOrderRouting::new(cfg);
        assert_eq!(rf.num_vcs(), 1);
        let mut out = Transitions::default();
        for root in rf.roots().iter().take(1) {
            rf.transitions(root, &mut out);
        }
        assert!(!out.is_empty());
        for prog in out.iter() {
            for (_, vc) in prog.steps {
                assert_eq!(*vc, Vc(0));
            }
        }
    }
}
