//! The `(channel, VC)` dependency graph of Section 2.5 — the one graph
//! every deadlock verdict reads.
//!
//! The certification engine ([`crate::engine`]) — torus, full mesh and
//! degraded tables alike — and the route enumerator it is cross-checked
//! against ([`crate::deadlock::enumerate_routes`]) both write into a
//! [`SymGraph`], and [`SymGraph::find_cycle`] is the one cycle search. A
//! full-size machine has millions of edge insertions, so the graph interns
//! nothing: it addresses every possible `(link, VC)` pair arithmetically
//! through a [`Topology`]: each node of the machine contributes a fixed
//! block of link slots, and a pair's index is its link's dense index
//! ([`LinkIdx`], `node · slots + slot`) times `vcs`, plus the VC.
//! The graph itself is topology-agnostic — the same structure certifies a
//! torus and a full mesh.
//!
//! Out-edges live in one flat array: each pair's successors are one run of
//! it, addressed from the pair's `(start, len)` row, so an insertion scans
//! a few contiguous words (out-degree is at most 9 at 8×8×8) and allocates
//! nothing until a run outgrows its capacity. Absent pairs keep an empty
//! run. Each run lists its successors in first-insertion order, which the
//! cycle search walks in: the counterexample a cyclic graph reports
//! depends on that order, so it is part of the graph's contract.

use anton_core::net::{LinkIdx, Step, Topology};
use anton_core::trace::GlobalLink;
use anton_core::vc::Vc;

/// A node of the dependency graph: a directed channel and a VC on it.
pub type ChannelVc = (GlobalLink, Vc);

/// The capacity a run of `len` successors occupies in [`SymGraph`]'s flat
/// array: none for an empty run, then powers of two from four, so a run is
/// full exactly when `len == run_capacity(len)`.
fn run_capacity(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4)
    }
}

/// A dependency graph over every addressable `(link, VC)` pair of one
/// topology, with adjacency stored densely by arithmetic index.
#[derive(Debug)]
pub struct SymGraph<'t> {
    topo: &'t dyn Topology,
    pub(crate) vcs: usize,
    /// Per pair: where its run of successors starts in `succ`, and its
    /// length.
    rows: Vec<(u32, u32)>,
    /// Every pair's successors, one run per pair. A full run moves to the
    /// end at twice the capacity, leaving its old slots unused.
    succ: Vec<u32>,
    num_edges: usize,
    /// Calls to [`SymGraph::add_edge_idx`], duplicates included.
    insertions: usize,
}

impl<'t> SymGraph<'t> {
    /// An empty graph sized for `topo` with `vcs` virtual channels per link.
    pub fn new(topo: &'t dyn Topology, vcs: usize) -> SymGraph<'t> {
        let n = topo.num_nodes() * topo.slots_per_node() * vcs;
        SymGraph {
            topo,
            vcs,
            rows: vec![(0, 0); n],
            succ: Vec::new(),
            num_edges: 0,
            insertions: 0,
        }
    }

    /// The successors of pair `idx`, in the order their edges were first
    /// added.
    pub fn successors(&self, idx: u32) -> &[u32] {
        let (start, len) = self.rows[idx as usize];
        &self.succ[start as usize..][..len as usize]
    }

    /// The dense index of a `(link, VC)` pair, or `None` when the topology
    /// cannot address the link (or the VC exceeds the graph's budget).
    pub fn index_of(&self, link: &GlobalLink, vc: Vc) -> Option<u32> {
        let idx = self.topo.index(link)?;
        (usize::from(vc.0) < self.vcs).then(|| pair_index(self.vcs, (idx, vc)))
    }

    /// The dense index of a `(link, VC)` pair. Panics when the topology
    /// cannot address it — use [`SymGraph::index_of`] for untrusted input.
    pub fn index(&self, link: &GlobalLink, vc: Vc) -> u32 {
        self.index_of(link, vc)
            .unwrap_or_else(|| panic!("topology cannot address {link}@{vc}"))
    }

    /// Inverse of [`SymGraph::index`].
    pub fn decode(&self, idx: u32) -> ChannelVc {
        let vcs = self.vcs as u32;
        let link = self
            .topo
            .link(LinkIdx(idx / vcs))
            .expect("decode of an index the topology populated");
        (link, Vc((idx % vcs) as u8))
    }

    /// Adds one dependency edge (idempotent). Panics on unaddressable
    /// endpoints; the engine validates links before insertion.
    pub fn add_edge(&mut self, from: ChannelVc, to: ChannelVc) {
        let f = self.index(&from.0, from.1);
        let t = self.index(&to.0, to.1);
        self.add_edge_idx(f, t);
    }

    /// Adds one dependency edge by pre-validated dense indices (idempotent).
    pub fn add_edge_idx(&mut self, f: u32, t: u32) {
        self.insertions += 1;
        if self.successors(f).contains(&t) {
            return;
        }
        let (start, len) = &mut self.rows[f as usize];
        if *len == run_capacity(*len) {
            let to = self.succ.len();
            let old = *start as usize;
            self.succ.extend_from_within(old..old + *len as usize);
            self.succ.resize(to + run_capacity(*len + 1) as usize, 0);
            *start = u32::try_from(to).expect("fewer than 2^32 edge slots");
        }
        self.succ[(*start + *len) as usize] = t;
        *len += 1;
        self.num_edges += 1;
    }

    /// Number of `(link, VC)` pairs with at least one incident edge.
    pub fn num_live_nodes(&self) -> usize {
        let n = self.rows.len() as u32;
        let mut live = vec![false; n as usize];
        for f in 0..n {
            let out = self.successors(f);
            live[f as usize] |= !out.is_empty();
            for &t in out {
                live[t as usize] = true;
            }
        }
        live.into_iter().filter(|&l| l).count()
    }

    /// Total dependency edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Edge insertions made, each duplicate counted again: the work a
    /// graph's builder did, where [`SymGraph::num_edges`] is its result.
    pub fn num_insertions(&self) -> usize {
        self.insertions
    }

    /// Iterates every edge as decoded `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (ChannelVc, ChannelVc)> + '_ {
        (0..self.rows.len() as u32).flat_map(move |f| {
            self.successors(f)
                .iter()
                .map(move |&t| (self.decode(f), self.decode(t)))
        })
    }

    /// Finds a dependency cycle, if one exists, as the index sequence around
    /// the cycle (three-color iterative DFS over the dense index space).
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.rows.len();
        let mut color = vec![Color::White; n];
        let mut parent = vec![u32::MAX; n];
        for start in 0..n {
            if color[start] != Color::White || self.rows[start].1 == 0 {
                continue;
            }
            let mut stack = vec![(start as u32, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (u, ref mut ei)) = stack.last_mut() {
                let edges = self.successors(u);
                if *ei < edges.len() {
                    let v = edges[*ei];
                    *ei += 1;
                    match color[v as usize] {
                        Color::White => {
                            color[v as usize] = Color::Gray;
                            parent[v as usize] = u;
                            stack.push((v, 0));
                        }
                        Color::Gray => {
                            let mut cycle = vec![v];
                            let mut cur = u;
                            while cur != v {
                                cycle.push(cur);
                                cur = parent[cur as usize];
                            }
                            cycle.reverse();
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color[u as usize] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Shortens a found cycle: BFS from (a sample of) the cycle's nodes for
    /// the shortest cycle through each, returning the overall shortest.
    /// Skipped (returns the input) when the graph is too large for the
    /// extra passes to be worth setup time.
    pub fn minimize_cycle(&self, cycle: Vec<u32>) -> Vec<u32> {
        const MAX_EDGES: usize = 2_000_000;
        const MAX_STARTS: usize = 24;
        if self.num_edges > MAX_EDGES {
            return cycle;
        }
        let mut best = cycle.clone();
        for &s in cycle.iter().take(MAX_STARTS) {
            // BFS from s's successors back to s.
            let mut parent = vec![u32::MAX; self.rows.len()];
            let mut queue = std::collections::VecDeque::new();
            for &t in self.successors(s) {
                if t == s {
                    return vec![s]; // self-loop: cannot do better
                }
                if parent[t as usize] == u32::MAX {
                    parent[t as usize] = s;
                    queue.push_back(t);
                }
            }
            'bfs: while let Some(u) = queue.pop_front() {
                for &v in self.successors(u) {
                    if v == s {
                        // Reconstruct s -> ... -> u -> s.
                        let mut path = vec![u];
                        let mut cur = u;
                        while cur != s {
                            cur = parent[cur as usize];
                            path.push(cur);
                        }
                        path.reverse();
                        if path.len() < best.len() {
                            best = path;
                        }
                        break 'bfs;
                    }
                    if parent[v as usize] == u32::MAX {
                        parent[v as usize] = u;
                        queue.push_back(v);
                    }
                }
            }
        }
        best
    }
}

/// The index of the `(link, VC)` pair `step` in a graph with `vcs` VCs per
/// link: what the engine's walk addresses buffers by, with or without a
/// graph. The VC must be below `vcs`.
#[inline]
pub(crate) fn pair_index(vcs: usize, (link, vc): Step) -> u32 {
    link.0 * vcs as u32 + u32::from(vc.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::ChanId;
    use anton_core::config::MachineConfig;
    use anton_core::net::TorusTopology;
    use anton_core::topology::{NodeId, Slice, TorusDir, TorusShape};

    #[test]
    fn index_round_trips_every_slot() {
        let cfg = MachineConfig::new(TorusShape::new(3, 2, 1));
        let topo = TorusTopology::new(&cfg);
        let g = SymGraph::new(&topo, 4);
        let node = NodeId(4);
        let local = cfg.chip.local_links().into_iter();
        let mut links: Vec<GlobalLink> =
            local.map(|link| GlobalLink::Local { node, link }).collect();
        links.extend(ChanId::all().map(|c| GlobalLink::Torus {
            from: node,
            dir: c.dir,
            slice: c.slice,
        }));
        let mut seen = std::collections::HashSet::new();
        for link in links {
            for vc in 0..4u8 {
                let idx = g.index(&link, Vc(vc));
                assert!(seen.insert(idx), "index collision at {link} vc{vc}");
                assert_eq!(g.decode(idx), (link, Vc(vc)));
            }
        }
        // Links of other topologies are not addressable, only rejected.
        let foreign = GlobalLink::Direct {
            from: NodeId(0),
            to: NodeId(1),
        };
        assert_eq!(g.index_of(&foreign, Vc(0)), None);
    }

    #[test]
    fn planted_cycle_found_and_minimized() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let topo = TorusTopology::new(&cfg);
        let mut g = SymGraph::new(&topo, 2);
        let t = |n: u32| {
            (
                GlobalLink::Torus {
                    from: NodeId(n),
                    dir: TorusDir::ALL[0],
                    slice: Slice(0),
                },
                Vc(0),
            )
        };
        // A long cycle 0->1->2->3->0 plus a chord 1->0 making a 2-cycle.
        g.add_edge(t(0), t(1));
        g.add_edge(t(1), t(2));
        g.add_edge(t(2), t(3));
        g.add_edge(t(3), t(0));
        g.add_edge(t(1), t(0));
        let cycle = g.find_cycle().expect("planted cycle");
        let min = g.minimize_cycle(cycle);
        assert_eq!(min.len(), 2, "chord gives a 2-cycle");
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let topo = TorusTopology::new(&cfg);
        let mut g = SymGraph::new(&topo, 2);
        let t = |n: u32, v: u8| {
            (
                GlobalLink::Torus {
                    from: NodeId(n),
                    dir: TorusDir::ALL[2],
                    slice: Slice(1),
                },
                Vc(v),
            )
        };
        g.add_edge(t(0, 0), t(1, 0));
        g.add_edge(t(1, 0), t(0, 1));
        g.add_edge(t(0, 1), t(1, 1));
        assert!(g.find_cycle().is_none());
    }
}
