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

use std::collections::{HashMap, HashSet, VecDeque};

use crate::chip::{ChanId, LinkGroup, LocalEndpointId, LocalLink, MeshCoord};
use crate::config::{GlobalEndpoint, MachineConfig};
use crate::net::{
    Arrival, ConcreteRoute, DepEdge, Progress, RoutePath, RouteState, RoutingFunction,
};
use crate::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir};
use crate::trace::{mesh_steps, trace_hops_with, GlobalLink};
use crate::vc::{Vc, VcState};

fn dim_bit(d: Dim) -> u8 {
    1 << d.index()
}

/// Dimension-order routing over the torus, parameterized by the dateline and
/// arc-length knobs of the verification model.
#[derive(Debug, Clone)]
pub struct DimOrderRouting {
    cfg: MachineConfig,
    datelines: bool,
    long_arcs: bool,
    /// Canonical M-phase states: `(representative VC state, dims-routed mask)`.
    mentries: Vec<(VcState, u8)>,
    /// Mid-arc states: `(VC state inside the run, mask before this dim)`.
    inarcs: Vec<(VcState, u8)>,
    inarc_idx: HashMap<(VcState, u8), u32>,
}

impl DimOrderRouting {
    /// Builds the transition system for `cfg`.
    ///
    /// `datelines` disables dateline VC promotion when false (the deliberate
    /// counterexample model); `long_arcs` raises the arc-length bound from
    /// minimal (`k/2`) to the worst case a degraded route table may take
    /// (`k − 1`).
    pub fn new(cfg: MachineConfig, datelines: bool, long_arcs: bool) -> DimOrderRouting {
        let start = cfg.vc_policy.start();
        let mut mentries: Vec<(VcState, u8)> = vec![(start, 0)];
        let mut mentry_idx: HashMap<(u8, u8), u32> = HashMap::new();
        mentry_idx.insert((start.m_vc(), 0), 0);
        let mut inarcs: Vec<(VcState, u8)> = Vec::new();
        let mut inarc_idx: HashMap<(VcState, u8), u32> = HashMap::new();
        let mut queue: VecDeque<u32> = VecDeque::from([0]);
        while let Some(mi) = queue.pop_front() {
            let (st0, mask) = mentries[mi as usize];
            for dim in Dim::ALL {
                if cfg.shape.k(dim) <= 1 || mask & dim_bit(dim) != 0 {
                    continue;
                }
                let mut entered = st0;
                entered.begin_dim();
                // The two VC states a run in this dimension can occupy: the
                // dateline not yet crossed (a non-crossing hop leaves the
                // state untouched) and crossed (when datelines are active).
                let mut variants = Vec::with_capacity(2);
                let mut nc = entered;
                let _ = nc.torus_hop(false);
                variants.push(nc);
                if datelines {
                    let mut cr = entered;
                    let _ = cr.torus_hop(true);
                    variants.push(cr);
                }
                for v in variants {
                    inarc_idx.entry((v, mask)).or_insert_with(|| {
                        inarcs.push((v, mask));
                        (inarcs.len() - 1) as u32
                    });
                    let mut ended = v;
                    let _ = ended.end_dim();
                    let key = (ended.m_vc(), mask | dim_bit(dim));
                    if let std::collections::hash_map::Entry::Vacant(e) = mentry_idx.entry(key) {
                        e.insert(mentries.len() as u32);
                        queue.push_back(mentries.len() as u32);
                        mentries.push((ended, mask | dim_bit(dim)));
                    }
                }
            }
        }
        DimOrderRouting {
            cfg,
            datelines,
            long_arcs,
            mentries,
            inarcs,
            inarc_idx,
        }
    }

    /// The machine configuration this routing function was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    fn mentry_state(idx: u32) -> RouteState {
        RouteState(u64::from(idx) << 1)
    }

    fn inarc_state(idx: u32, hops: u32) -> RouteState {
        RouteState((u64::from(idx) << 1) | 1 | (u64::from(hops) << 32))
    }

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

    fn crosses(&self, at: NodeCoord, dir: TorusDir) -> bool {
        self.datelines && self.cfg.shape.hop_crosses_dateline(at, dir)
    }

    /// M-phase exits shared by injections and dimension-boundary entries:
    /// deliver to every local endpoint, or depart on any unrouted dimension.
    fn phase_exits(
        &self,
        node: NodeId,
        entry_router: MeshCoord,
        state: VcState,
        mask: u8,
        slices: &[Slice],
    ) -> Vec<Progress> {
        let cfg = &self.cfg;
        let coord = cfg.shape.coord(node);
        let m = state.vc_for(LinkGroup::M);
        let mut out = Vec::new();
        for ep in cfg.chip.endpoints() {
            let mut steps: Vec<_> = mesh_steps(
                &self.cfg,
                node,
                entry_router,
                cfg.chip.endpoint_router(ep),
                m,
            )
            .collect();
            steps.push((
                GlobalLink::Local {
                    node,
                    link: LocalLink::RouterToEp(ep),
                },
                m,
            ));
            out.push(Progress { steps, next: None });
        }
        for dim in Dim::ALL {
            if cfg.shape.k(dim) <= 1 || mask & dim_bit(dim) != 0 {
                continue;
            }
            for &sign in self.signs_for(dim) {
                let dir = TorusDir::new(dim, sign);
                for &slice in slices {
                    let depart = ChanId { dir, slice };
                    let mut st = state;
                    st.begin_dim();
                    let t_dep = st.vc_for(LinkGroup::T);
                    let mut steps: Vec<_> = mesh_steps(
                        &self.cfg,
                        node,
                        entry_router,
                        cfg.chip.chan_router(depart),
                        m,
                    )
                    .collect();
                    steps.push((
                        GlobalLink::Local {
                            node,
                            link: LocalLink::RouterToChan(depart),
                        },
                        t_dep,
                    ));
                    let tvc = st.torus_hop(self.crosses(coord, dir));
                    steps.push((
                        GlobalLink::Torus {
                            from: node,
                            dir,
                            slice,
                        },
                        tvc,
                    ));
                    let nbr = cfg.shape.id(cfg.shape.neighbor(coord, dir));
                    steps.push((
                        GlobalLink::Local {
                            node: nbr,
                            link: LocalLink::ChanToRouter(ChanId {
                                dir: dir.opposite(),
                                slice,
                            }),
                        },
                        tvc,
                    ));
                    let ii = self.inarc_idx[&(st, mask)];
                    out.push(Progress {
                        steps,
                        next: Some((nbr, Self::inarc_state(ii, 1))),
                    });
                }
            }
        }
        out
    }

    /// Validates a candidate witness by re-tracing it through the reference
    /// route semantics and checking the dependency edge appears verbatim.
    fn validated_witness(
        &self,
        src: NodeCoord,
        src_ep: LocalEndpointId,
        dst_ep: LocalEndpointId,
        hops: &[TorusDir],
        slice: Slice,
        edge: &DepEdge,
    ) -> Option<ConcreteRoute> {
        let steps = trace_hops_with(
            &self.cfg,
            src,
            Some(src_ep),
            hops,
            slice,
            Some(dst_ep),
            &mut |c, d| self.crosses(c, d),
        );
        if !steps.windows(2).any(|w| w[0] == edge.0 && w[1] == edge.1) {
            return None;
        }
        let mut dst = src;
        for &h in hops {
            dst = self.cfg.shape.neighbor(dst, h);
        }
        Some(ConcreteRoute {
            src: GlobalEndpoint {
                node: self.cfg.shape.id(src),
                ep: src_ep,
            },
            dst: GlobalEndpoint {
                node: self.cfg.shape.id(dst),
                ep: dst_ep,
            },
            path: RoutePath::Torus {
                hops: hops.to_vec(),
                slice,
            },
            holds: edge.0,
            waits_for: edge.1,
        })
    }
}

/// Concrete realization of an abstract arrival, carried through the witness
/// search: the injection point and torus hops that reach the arrival state.
#[derive(Debug, Clone)]
struct WitnessPrefix {
    src: NodeCoord,
    src_ep: LocalEndpointId,
    slice: Option<Slice>,
    hops: Vec<TorusDir>,
}

impl RoutingFunction for DimOrderRouting {
    fn describe(&self) -> String {
        format!(
            "dimension-order, {} policy, datelines {}{}",
            self.cfg.vc_policy,
            if self.datelines { "on" } else { "off" },
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

    fn transitions(&self, arrival: &Arrival) -> Vec<Progress> {
        if arrival.state.0 & 1 == 0 {
            // M-phase entry: the slice constraint and entry router come from
            // the arrival link (injections may use either slice; a packet
            // arriving from the torus is pinned to its channel's slice).
            let (st, mask) = self.mentries[(arrival.state.0 >> 1) as usize];
            let (entry_router, slices): (MeshCoord, &[Slice]) = match &arrival.link {
                GlobalLink::Local {
                    link: LocalLink::EpToRouter(e),
                    ..
                } => (self.cfg.chip.endpoint_router(*e), &Slice::ALL),
                GlobalLink::Local {
                    link: LocalLink::ChanToRouter(c),
                    ..
                } => (
                    self.cfg.chip.chan_router(*c),
                    if c.slice.0 == 0 {
                        &Slice::ALL[0..1]
                    } else {
                        &Slice::ALL[1..2]
                    },
                ),
                _ => return Vec::new(),
            };
            self.phase_exits(arrival.node, entry_router, st, mask, slices)
        } else {
            // Mid-arc: continue the run or end the dimension in place.
            let (st, pre_mask) = self.inarcs[((arrival.state.0 >> 1) & 0x7fff_ffff) as usize];
            let hops = (arrival.state.0 >> 32) as u32;
            let arrive = match &arrival.link {
                GlobalLink::Local {
                    link: LocalLink::ChanToRouter(c),
                    ..
                } => *c,
                _ => return Vec::new(),
            };
            let dir = arrive.dir.opposite();
            let node = arrival.node;
            let coord = self.cfg.shape.coord(node);
            let mut out = Vec::new();
            // End the dimension: reinterpret the same buffer as an M-phase
            // entry (no new links are acquired at a dimension boundary).
            {
                let mut ended = st;
                let _ = ended.end_dim();
                let key = (ended.m_vc(), pre_mask | dim_bit(dir.dim));
                let mi = self
                    .mentries
                    .iter()
                    .position(|&(s, m)| (s.m_vc(), m) == key)
                    .expect("M-entry closure covers every arc exit");
                out.push(Progress {
                    steps: Vec::new(),
                    next: Some((node, Self::mentry_state(mi as u32))),
                });
            }
            if hops < self.max_arc_len(dir.dim) {
                let crosses = self.crosses(coord, dir);
                if !(crosses && st.crossed()) {
                    let t = st.vc_for(LinkGroup::T);
                    let mut st2 = st;
                    let mut steps = Vec::new();
                    if dir.dim == Dim::X {
                        // X through-traffic bypasses the chip via the skip
                        // channel; Y/Z adapters share a router.
                        steps.push((
                            GlobalLink::Local {
                                node,
                                link: LocalLink::Skip {
                                    from: self.cfg.chip.chan_router(arrive),
                                },
                            },
                            t,
                        ));
                    }
                    let depart = ChanId {
                        dir,
                        slice: arrive.slice,
                    };
                    steps.push((
                        GlobalLink::Local {
                            node,
                            link: LocalLink::RouterToChan(depart),
                        },
                        t,
                    ));
                    let tvc = st2.torus_hop(crosses);
                    steps.push((
                        GlobalLink::Torus {
                            from: node,
                            dir,
                            slice: arrive.slice,
                        },
                        tvc,
                    ));
                    let nbr = self.cfg.shape.id(self.cfg.shape.neighbor(coord, dir));
                    steps.push((
                        GlobalLink::Local {
                            node: nbr,
                            link: LocalLink::ChanToRouter(arrive),
                        },
                        tvc,
                    ));
                    let ii = self.inarc_idx[&(st2, pre_mask)];
                    out.push(Progress {
                        steps,
                        next: Some((nbr, Self::inarc_state(ii, hops + 1))),
                    });
                }
            }
            out
        }
    }

    /// Witness synthesis: re-run the abstract exploration carrying a concrete
    /// realization (source endpoint + torus hops) for every reached state;
    /// when an emitted dependency edge is wanted, complete the realization
    /// into a full route and validate it against the reference tracer.
    fn witnesses(&self, wanted: &[DepEdge], max: usize) -> Vec<Option<ConcreteRoute>> {
        let mut out: Vec<Option<ConcreteRoute>> = vec![None; wanted.len()];
        if wanted.is_empty() || max == 0 {
            return out;
        }
        let mut wanted_at: HashMap<DepEdge, Vec<usize>> = HashMap::new();
        for (i, e) in wanted.iter().enumerate() {
            wanted_at.entry(*e).or_default().push(i);
        }
        let mut found = 0usize;
        let budget = max.min(wanted.len());
        let mut seen: HashSet<(GlobalLink, Vc, u64)> = HashSet::new();
        let mut queue: VecDeque<(Arrival, WitnessPrefix)> = VecDeque::new();
        for root in self.roots() {
            let ep = match root.link {
                GlobalLink::Local {
                    link: LocalLink::EpToRouter(e),
                    ..
                } => e,
                _ => continue,
            };
            if seen.insert((root.link, root.vc, root.state.0)) {
                let prefix = WitnessPrefix {
                    src: self.cfg.shape.coord(root.node),
                    src_ep: ep,
                    slice: None,
                    hops: Vec::new(),
                };
                queue.push_back((root, prefix));
            }
        }
        'search: while let Some((arrival, prefix)) = queue.pop_front() {
            for prog in self.transitions(&arrival) {
                // The concrete completion of this transition: either a local
                // delivery of the prefix route, or the prefix extended by the
                // torus hop this transition takes (delivered at the far end).
                let torus_hop = prog.steps.iter().find_map(|(l, _)| match l {
                    GlobalLink::Torus { dir, slice, .. } => Some((*dir, *slice)),
                    _ => None,
                });
                let candidate: Option<(Vec<TorusDir>, Slice, LocalEndpointId)> =
                    if let Some((dir, slice)) = torus_hop {
                        let mut hops = prefix.hops.clone();
                        hops.push(dir);
                        Some((hops, prefix.slice.unwrap_or(slice), LocalEndpointId(0)))
                    } else {
                        prog.steps.last().and_then(|(l, _)| match l {
                            GlobalLink::Local {
                                link: LocalLink::RouterToEp(e),
                                ..
                            } => Some((prefix.hops.clone(), prefix.slice.unwrap_or(Slice(0)), *e)),
                            _ => None,
                        })
                    };
                let mut prev = (arrival.link, arrival.vc);
                for step in &prog.steps {
                    let edge = (prev, *step);
                    if let Some(idxs) = wanted_at.get(&edge) {
                        if idxs.iter().any(|&i| out[i].is_none()) {
                            if let Some((hops, slice, dst_ep)) = &candidate {
                                if let Some(w) = self.validated_witness(
                                    prefix.src,
                                    prefix.src_ep,
                                    *dst_ep,
                                    hops,
                                    *slice,
                                    &edge,
                                ) {
                                    for &i in idxs {
                                        if out[i].is_none() {
                                            out[i] = Some(w.clone());
                                            found += 1;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    prev = *step;
                }
                if found >= budget {
                    break 'search;
                }
                if let Some((node, state)) = prog.next {
                    let next = Arrival {
                        node,
                        link: prev.0,
                        vc: prev.1,
                        state,
                    };
                    if seen.insert((next.link, next.vc, next.state.0)) {
                        let next_prefix = if let Some((dir, slice)) = torus_hop {
                            WitnessPrefix {
                                src: prefix.src,
                                src_ep: prefix.src_ep,
                                slice: Some(prefix.slice.unwrap_or(slice)),
                                hops: {
                                    let mut h = prefix.hops.clone();
                                    h.push(dir);
                                    h
                                },
                            }
                        } else {
                            prefix.clone()
                        };
                        queue.push_back((next, next_prefix));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TorusShape;
    use crate::vc::VcPolicy;

    #[test]
    fn state_closure_is_small_and_complete() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let rf = DimOrderRouting::new(cfg, true, false);
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
        let rf = DimOrderRouting::new(cfg, true, false);
        assert_eq!(rf.roots().len(), nodes * eps);
    }

    #[test]
    fn naive_policy_stays_on_vc0() {
        let mut cfg = MachineConfig::new(TorusShape::cube(2));
        cfg.vc_policy = VcPolicy::NaiveSingle;
        let rf = DimOrderRouting::new(cfg, true, false);
        assert_eq!(rf.num_vcs(), 1);
        for root in rf.roots().iter().take(1) {
            for prog in rf.transitions(root) {
                for (_, vc) in &prog.steps {
                    assert_eq!(*vc, Vc(0));
                }
            }
        }
    }
}
