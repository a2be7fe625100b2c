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
//!
//! A traversal's steps depend on the node it starts at only through that
//! node's id and its neighbour's, so each distinct traversal shape — entry
//! buffer, exit, VC state, dateline crossed or not — is traced once per
//! routing, by `leg` at the origin node, into a table the size of a chip:
//! per abstract arrival (state and entry buffer), the moves it admits, each
//! a run of steps named by slot and by which of the two nodes holds the
//! link. A transition then substitutes the arrival's node and neighbour
//! into the run, emitting the [`TorusTopology`]'s link indices directly.

use std::collections::{HashMap, VecDeque};

use crate::chip::{ChanId, LinkGroup, LocalAttach, LocalLink};
use crate::config::MachineConfig;
use crate::net::{
    Arrival, LinkIdx, MulHash, RouteState, RoutingFunction, Topology, TorusTopology, Transitions,
};
use crate::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir};
use crate::trace::{leg, GlobalLink, TraceStep};
use crate::vc::{Vc, VcState};

fn dim_bit(d: Dim) -> u8 {
    1 << d.index()
}

/// One step of a traced chip traversal, relative to the node the traversal
/// starts at.
#[derive(Debug, Clone, Copy)]
struct RelStep {
    /// The link's slot in its node's block of the topology.
    slot: u16,
    /// Whether the link is the neighbour's the traversal departs to (the
    /// torus link and the arrival adapter's link past it) rather than the
    /// starting node's.
    far: bool,
    vc: Vc,
}

/// A run of [`RelStep`]s in [`Table::steps`]: one traced traversal.
type Run = (u32, u32);

/// One way a packet at an abstract arrival makes progress, in the order
/// [`RoutingFunction::transitions`] writes them.
#[derive(Debug, Clone, Copy)]
enum Move {
    /// Cross the chip to a local endpoint.
    Deliver(Run),
    /// Leave the node in `dir`, starting or continuing a run: per dateline
    /// crossing (not crossed, crossed), the traversal and the in-arc state
    /// it arrives in, or `None` where the routing forbids the crossing.
    Depart {
        dir: TorusDir,
        via: [Option<(Run, u32)>; 2],
    },
    /// End the run in place: the same buffer as M-phase entry `mentry`.
    End { mentry: u32 },
}

/// Every chip traversal a routing's walk can take, traced once, and the
/// moves of each abstract arrival. O(chip): nothing here grows with the
/// machine.
#[derive(Debug, Clone, Default)]
struct Table {
    /// Per abstract arrival — the M-phase entries, then the in-arc states,
    /// each by the slot of the buffer it holds — its run of `moves`; `None`
    /// for an arrival the routing never reaches.
    arrivals: Vec<Option<Run>>,
    moves: Vec<Move>,
    /// Every traced traversal's steps, one run per traversal.
    steps: Vec<RelStep>,
    /// Number of traversals traced: each shape once.
    traced: usize,
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
    /// Mid-arc states: `(VC state inside the run, mask before this dim)`.
    inarcs: Vec<(VcState, u8)>,
    /// One more than the longest run: a [`RouteState`] is an M-phase
    /// entry's index, or past them `stride · in-arc index + hops`.
    stride: u64,
    /// The links the steps name.
    topo: TorusTopology,
    table: Table,
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
        let topo = TorusTopology::new(&cfg);
        let mut rf = DimOrderRouting {
            cfg,
            datelines,
            long_arcs,
            mentries,
            inarcs,
            stride: 1,
            topo,
            table: Table::default(),
        };
        rf.stride = 1 + Dim::ALL
            .map(|d| u64::from(rf.max_arc_len(d)))
            .iter()
            .max()
            .unwrap();
        rf.table = rf.tabulate(&mentry_idx, &inarc_idx);
        rf
    }

    /// Walks the abstract arrivals from the injection buffers — the
    /// transition system with the node left out, both dateline cases taken
    /// wherever the routing allows them — and traces each traversal shape
    /// the moves need once, with [`leg`] at the origin node.
    fn tabulate(
        &self,
        mentry_idx: &HashMap<(u8, u8), u32, MulHash>,
        inarc_idx: &HashMap<(VcState, u8), u32, MulHash>,
    ) -> Table {
        let per = self.topo.slots_per_node();
        let mut t = Tabulator {
            rf: self,
            inarc_idx,
            traced: HashMap::default(),
            scratch: Vec::new(),
            work: (self.cfg.chip.endpoints())
                .map(|ep| (0, LocalLink::EpToRouter(ep)))
                .collect(),
            table: Table {
                arrivals: vec![None; (self.mentries.len() + self.inarcs.len()) * per],
                ..Table::default()
            },
        };
        let m = self.mentries.len();
        while let Some((row, entry)) = t.work.pop() {
            let at = row * per + t.slot(entry);
            if t.table.arrivals[at].is_some() {
                continue;
            }
            let first = t.table.moves.len() as u32;
            if row < m {
                // M-phase entry: deliver to any local endpoint, or depart on
                // any unrouted dimension. Injections may use either slice; a
                // packet arriving from the torus is pinned to its channel's
                // slice.
                let from @ (st, mask) = self.mentries[row];
                let slices: &[Slice] = match entry {
                    LocalLink::EpToRouter(_) => &Slice::ALL,
                    LocalLink::ChanToRouter(c) => &Slice::ALL[usize::from(c.slice.0)..][..1],
                    _ => unreachable!("an M-phase entry holds an injection or arrival buffer"),
                };
                for ep in self.cfg.chip.endpoints() {
                    let (run, _) = t.trace(entry, LocalAttach::Endpoint(ep), st, false);
                    t.table.moves.push(Move::Deliver(run));
                }
                for dim in Dim::ALL {
                    if self.cfg.shape.k(dim) <= 1 || mask & dim_bit(dim) != 0 {
                        continue;
                    }
                    for &sign in self.signs_for(dim) {
                        for &slice in slices {
                            let exit = ChanId {
                                dir: TorusDir::new(dim, sign),
                                slice,
                            };
                            t.depart(entry, exit, from, [true, self.datelines]);
                        }
                    }
                }
            } else {
                // Mid-arc: end the dimension in place or continue the run
                // (a run that has crossed its dateline cannot cross again).
                let from @ (st, pre_mask) = self.inarcs[row - m];
                let LocalLink::ChanToRouter(arrive) = entry else {
                    unreachable!("a run arrives in an adapter's buffer")
                };
                let dir = arrive.dir.opposite();
                // Ending reinterprets the same buffer as an M-phase entry
                // (no new links are acquired at a dimension boundary).
                let mut ended = st;
                ended.turn(Some(dir), None);
                let mi = mentry_idx[&(ended.m_vc(), pre_mask | dim_bit(dir.dim))];
                t.table.moves.push(Move::End { mentry: mi });
                t.work.push((mi as usize, entry));
                let exit = ChanId {
                    dir,
                    slice: arrive.slice,
                };
                t.depart(entry, exit, from, [true, self.datelines && !st.crossed()]);
            }
            t.table.arrivals[at] = Some((first, t.table.moves.len() as u32));
        }
        t.table
    }

    /// The machine configuration this routing function was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The topology whose link indices this routing's steps are.
    pub fn topology(&self) -> &TorusTopology {
        &self.topo
    }

    /// How many chip traversals were traced to build this routing: each
    /// distinct shape — entry buffer, exit, VC state, dateline crossed or
    /// not — once, however many nodes and arrivals take it.
    pub fn traced_traversals(&self) -> usize {
        self.table.traced
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
        RouteState(u64::from(idx))
    }

    fn inarc_state(&self, idx: u32, hops: u32) -> RouteState {
        let past = self.stride * u64::from(idx) + u64::from(hops);
        RouteState(self.mentries.len() as u64 + past)
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

    /// Writes the traced traversal `run` as a transition's steps, starting
    /// at `node` and departing (if it does) to `far`.
    fn emit(&self, (start, end): Run, node: NodeId, far: NodeId, out: &mut Transitions) {
        let per = self.topo.slots_per_node() as u32;
        let (here, far) = (node.0 * per, far.0 * per);
        let run = &self.table.steps[start as usize..end as usize];
        out.steps_mut().extend(run.iter().map(|s| {
            let base = if s.far { far } else { here };
            (LinkIdx(base + u32::from(s.slot)), s.vc)
        }));
    }
}

/// [`DimOrderRouting`]'s table under construction: the abstract arrivals
/// still to expand, and every traversal traced so far by its shape.
struct Tabulator<'a> {
    rf: &'a DimOrderRouting,
    inarc_idx: &'a HashMap<(VcState, u8), u32, MulHash>,
    /// Each traced shape's run and the VC state past it.
    traced: HashMap<(LocalLink, LocalAttach, VcState, bool), (Run, VcState), MulHash>,
    scratch: Vec<TraceStep>,
    /// Abstract arrivals to expand: state row and entry buffer.
    work: Vec<(usize, LocalLink)>,
    table: Table,
}

impl Tabulator<'_> {
    /// The slot of the origin's link `link`.
    fn slot(&self, link: LocalLink) -> usize {
        let node = self.rf.cfg.shape.id(NodeCoord::new(0, 0, 0));
        let local = GlobalLink::Local { node, link };
        self.rf.topo.slot(&local).expect("a chip link has a slot").1
    }

    /// The run of the traversal from `entry` to `exit` in VC state `st`,
    /// `crossing` a dateline or not, and the state past it: traced by
    /// [`leg`] at the origin the first time the shape is asked for.
    fn trace(
        &mut self,
        entry: LocalLink,
        exit: LocalAttach,
        st: VcState,
        crossing: bool,
    ) -> (Run, VcState) {
        let Tabulator {
            rf,
            traced,
            scratch,
            table,
            ..
        } = self;
        *traced
            .entry((entry, exit, st, crossing))
            .or_insert_with(|| {
                let origin = NodeCoord::new(0, 0, 0);
                let node = rf.cfg.shape.id(origin).0 as usize;
                let mut past = st;
                scratch.clear();
                leg(&rf.cfg, origin, entry, exit, crossing, &mut past, scratch);
                let start = table.steps.len() as u32;
                for (link, vc) in scratch.iter() {
                    let (at, slot) = rf.topo.slot(link).expect("a traced link has a slot");
                    let (slot, far) = (slot as u16, at != node);
                    table.steps.push(RelStep { slot, far, vc: *vc });
                }
                table.traced += 1;
                ((start, table.steps.len() as u32), past)
            })
    }

    /// Adds the move leaving `entry` by adapter `exit` from `(st, mask)`,
    /// with a traversal for each dateline case `ok` allows, and queues the
    /// arrivals it reaches.
    fn depart(&mut self, entry: LocalLink, exit: ChanId, (st, mask): (VcState, u8), ok: [bool; 2]) {
        let arrive = LocalLink::ChanToRouter(ChanId {
            dir: exit.dir.opposite(),
            slice: exit.slice,
        });
        let via = [false, true].map(|crossing| {
            ok[usize::from(crossing)].then(|| {
                let (run, past) = self.trace(entry, LocalAttach::Chan(exit), st, crossing);
                let inarc = self.inarc_idx[&(past, mask)];
                self.work
                    .push((self.rf.mentries.len() + inarc as usize, arrive));
                (run, inarc)
            })
        });
        self.table.moves.push(Move::Depart { dir: exit.dir, via });
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

    fn state_bound(&self) -> Option<u64> {
        Some(self.inarc_state(self.inarcs.len() as u32, 0).0)
    }

    fn roots(&self) -> Vec<Arrival> {
        let m0 = self.cfg.vc_policy.start().vc_for(LinkGroup::M);
        let mut out = Vec::new();
        for coord in self.cfg.shape.nodes() {
            let node = self.cfg.shape.id(coord);
            for ep in self.cfg.chip.endpoints() {
                let link = GlobalLink::Local {
                    node,
                    link: LocalLink::EpToRouter(ep),
                };
                out.push(Arrival {
                    node,
                    link: self
                        .topo
                        .index(&link)
                        .expect("an injection link has a slot"),
                    vc: m0,
                    state: Self::mentry_state(0),
                });
            }
        }
        out
    }

    /// # Panics
    ///
    /// Panics on an arrival this routing's roots and transitions never
    /// reach.
    fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
        let node = arrival.node;
        let per = self.topo.slots_per_node();
        let slot = (arrival.link.0 as usize).wrapping_sub(node.0 as usize * per);
        let s = arrival.state.0;
        let m = self.mentries.len() as u64;
        let (row, hops) = match s.checked_sub(m) {
            None => (s as usize, 0),
            Some(past) => (
                (m + past / self.stride) as usize,
                (past % self.stride) as u32,
            ),
        };
        let moves = (slot < per)
            .then(|| self.table.arrivals.get(row * per + slot).copied().flatten())
            .flatten()
            .unwrap_or_else(|| panic!("{arrival:?} is not an arrival of {}", self.describe()));
        let at = self.cfg.shape.coord(node);
        for mv in &self.table.moves[moves.0 as usize..moves.1 as usize] {
            match *mv {
                Move::Deliver(run) => {
                    self.emit(run, node, node, out);
                    out.end(None);
                }
                Move::Depart { dir, via } => {
                    if hops >= self.max_arc_len(dir.dim) {
                        continue;
                    }
                    let Some((run, inarc)) = via[usize::from(self.crosses(at, dir))] else {
                        continue;
                    };
                    let nbr = self.topo.neighbor(node, dir);
                    self.emit(run, node, nbr, out);
                    out.end(Some((nbr, self.inarc_state(inarc, hops + 1))));
                }
                Move::End { mentry } => out.end(Some((node, Self::mentry_state(mentry)))),
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
