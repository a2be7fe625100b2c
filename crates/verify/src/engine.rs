//! The topology-agnostic symbolic certification engine.
//!
//! Everything the certifier knows about a network comes through two traits:
//! a [`Topology`] that can address links, and one or more
//! [`RoutingFunction`]s whose abstract transition systems describe every
//! route the network can carry. The engine explores each routing function
//! breadth-first over `(link, VC, abstract state)` arrivals, records every
//! consecutive `(link, VC)` pair a transition acquires as a
//! channel-dependency edge, and checks the union graph for cycles:
//!
//! ```text
//!   Topology ─────────┐
//!                     ├─► build_routing_graph ─► SymGraph ─► find_cycle
//!   RoutingFunction ──┘          │                              │
//!        (roots/transitions)     └── AV022/AV023 diags      minimize
//!            ▲                                                  │
//!            └── the same walk again, keeping parent links ◄────┘
//!                     │          (wanted cycle edges)
//!                     ▼
//!        DeadlockCertificate { acyclic | counterexample + witnesses }
//! ```
//!
//! Passing several routing functions certifies their **union** — exactly
//! what the degraded-table install gate needs (healthy traffic plus every
//! epoch's rerouted traffic can be in flight at once, so their dependency
//! edges must be jointly acyclic). A [`RoutingGraph`] keeps the graph
//! together with the functions walked into it, so a graph already
//! certified is extended with more routing functions and certified again
//! as their union without walking the first ones again: the gate certifies
//! the healthy graph, then extends it with the epochs' tables.
//!
//! A routing function that steps outside its declared envelope is reported
//! rather than trusted: a VC beyond the declared budget raises `AV022`, a
//! link the topology cannot address raises `AV023`, and the offending
//! transition is excluded from the graph (certification then fails closed
//! through the error diagnostic).
//!
//! Witness routes need nothing from a routing function beyond `roots` and
//! `transitions`: only when a cycle is found, the walk runs once more
//! remembering which transition first reached each arrival, and a wanted
//! edge's transition is followed back along those links to the injection
//! that started it and forward to a delivery.

use std::collections::{HashMap, HashSet, VecDeque};

use anton_core::chip::LocalLink;
use anton_core::config::GlobalEndpoint;
use anton_core::net::{
    Arrival, LinkIdx, MulHash, Progress, RoutePath, RouteState, RoutingFunction, Step, Topology,
    Transitions,
};
use anton_core::topology::Slice;
use anton_core::trace::GlobalLink;
use anton_core::vc::Vc;

use crate::graph::{pair_index, SymGraph};
use crate::report::{CycleCounterexample, DeadlockCertificate, Diagnostic, WitnessRoute};

/// Cap on concrete witness routes attached to a counterexample.
const MAX_WITNESSES: usize = 8;

/// One transition the walk of a routing function takes.
struct Taken<'a> {
    /// The arrival being expanded.
    from: &'a Arrival,
    /// The position of `progress` among `from`'s transitions.
    nth: usize,
    progress: Progress<'a>,
    /// Dense indices of `from`'s buffer and of every step after it.
    chain: &'a [u32],
    /// The arrival `progress` resumes at, when the walk had not reached it
    /// before.
    found: Option<Arrival>,
}

/// Which envelope a step breaks: a VC at or past the declared budget
/// (`AV022`), or a link index the topology does not populate (`AV023`).
#[derive(Clone, Copy)]
enum Breach {
    Vc,
    Link,
}

/// The `(link, VC)` pairs a walk over one topology addresses: the link
/// indices the topology populates, and the VCs per link.
#[derive(Debug)]
struct Pairs {
    live: Vec<bool>,
    vcs: usize,
}

impl Pairs {
    fn new(topo: &dyn Topology, vcs: usize) -> Pairs {
        let per = topo.slots_per_node();
        let live = (0..topo.num_nodes() * per)
            .map(|i| topo.link_at(i / per, i % per).is_some())
            .collect();
        Pairs { live, vcs }
    }

    /// The pair index of `step`, or the envelope it breaks.
    #[inline]
    fn of(&self, step @ (link, vc): Step) -> Result<u32, Breach> {
        if usize::from(vc.0) >= self.vcs {
            Err(Breach::Vc)
        } else if self.live.get(link.0 as usize) == Some(&true) {
            Ok(pair_index(self.vcs, step))
        } else {
            Err(Breach::Link)
        }
    }
}

/// The arrivals a walk has reached, by pair index and state: in a bitmap
/// when the routing function numbers its states densely
/// ([`RoutingFunction::state_bound`]) and the bitmap stays small, in a hash
/// set otherwise.
enum Seen {
    Dense { bits: Vec<u64>, bound: u64 },
    Sparse(HashSet<(u32, u64), MulHash>),
}

impl Seen {
    /// The largest bitmap a walk allocates: 16 MiB.
    const MAX_BITS: u64 = 1 << 27;

    fn new(pairs: &Pairs, rf: &dyn RoutingFunction) -> Seen {
        let n = (pairs.live.len() * pairs.vcs) as u64;
        match rf.state_bound() {
            Some(bound) if n.saturating_mul(bound) <= Seen::MAX_BITS => Seen::Dense {
                bits: vec![0; (n * bound).div_ceil(64) as usize],
                bound,
            },
            _ => Seen::Sparse(HashSet::default()),
        }
    }

    /// Records `(pair, state)`, returning whether it is new.
    ///
    /// # Panics
    ///
    /// Panics on a state past the routing function's declared bound.
    #[inline]
    fn insert(&mut self, pair: u32, state: RouteState) -> bool {
        match self {
            Seen::Dense { bits, bound } => {
                assert!(state.0 < *bound, "{state:?} is past the declared bound");
                let bit = u64::from(pair) * *bound + state.0;
                let (word, mask) = (&mut bits[(bit / 64) as usize], 1 << (bit % 64));
                let new = *word & mask == 0;
                *word |= mask;
                new
            }
            Seen::Sparse(set) => set.insert((pair, state.0)),
        }
    }
}

/// Walks `rf`'s transition system breadth-first over `(link, VC, state)`
/// arrivals, addressed as `pairs` of `topo`, and hands every transition to
/// `visit` until it returns `false`.
///
/// Envelope violations (`AV022` out-of-budget VC, `AV023` unaddressable
/// link) are appended to `diags` — once per code — and the offending
/// transitions are skipped.
fn explore(
    topo: &dyn Topology,
    pairs: &Pairs,
    rf: &dyn RoutingFunction,
    diags: &mut Vec<Diagnostic>,
    mut visit: impl FnMut(Taken<'_>) -> bool,
) {
    let vcs = pairs.vcs;
    let mut bad_vc = false;
    let mut bad_link = false;
    let mut envelope = |diags: &mut Vec<Diagnostic>, (link, vc): Step, breach| match breach {
        Breach::Vc if !std::mem::replace(&mut bad_vc, true) => {
            let link = topo
                .link(link)
                .map_or_else(|| format!("link #{}", link.0), |l| l.to_string());
            diags.push(
                Diagnostic::error(
                    "AV022",
                    format!(
                        "routing function `{}` requested {link}@{vc}, outside its declared \
                         budget of {vcs} VCs",
                        rf.describe()
                    ),
                )
                .with("vc", vc.0)
                .with("num_vcs", vcs),
            );
        }
        Breach::Link if !std::mem::replace(&mut bad_link, true) => {
            diags.push(
                Diagnostic::error(
                    "AV023",
                    format!(
                        "routing function `{}` emitted link #{}@{vc}, which topology `{}` \
                         cannot address",
                        rf.describe(),
                        link.0,
                        topo.describe()
                    ),
                )
                .with("link", link.0),
            );
        }
        _ => {}
    };
    let mut seen = Seen::new(pairs, rf);
    let mut queue: VecDeque<(Arrival, u32)> = VecDeque::new();
    for root in rf.roots() {
        match pairs.of((root.link, root.vc)) {
            Ok(idx) => {
                if seen.insert(idx, root.state) {
                    queue.push_back((root, idx));
                }
            }
            // A root is an injection buffer: any envelope it breaks is an
            // unaddressable buffer.
            Err(_) => envelope(diags, (root.link, root.vc), Breach::Link),
        }
    }
    // One transition buffer and one chain buffer for the whole walk: an
    // 8×8×8 certificate takes a million transitions.
    let mut out = Transitions::default();
    let mut chain: Vec<u32> = Vec::new();
    while let Some((arrival, at)) = queue.pop_front() {
        out.clear();
        rf.transitions(&arrival, &mut out);
        'progress: for (nth, progress) in out.iter().enumerate() {
            // Validate the whole step chain before handing it on, so a bad
            // transition contributes nothing.
            chain.clear();
            chain.push(at);
            for &step in progress.steps {
                match pairs.of(step) {
                    Ok(idx) => chain.push(idx),
                    Err(breach) => {
                        envelope(diags, step, breach);
                        continue 'progress;
                    }
                }
            }
            let last = *chain.last().expect("the chain starts at the arrival");
            let found = progress.next.and_then(|(node, state)| {
                let (link, vc) = *progress.steps.last().unwrap_or(&(arrival.link, arrival.vc));
                let next = Arrival {
                    node,
                    link,
                    vc,
                    state,
                };
                seen.insert(last, state).then_some(next)
            });
            queue.extend(found.map(|next| (next, last)));
            let taken = Taken {
                from: &arrival,
                nth,
                progress,
                chain: &chain,
                found,
            };
            if !visit(taken) {
                return;
            }
        }
    }
}

/// A channel-dependency graph and the routing functions walked into it, in
/// walk order, with the envelope diagnostics their walks raised: what a
/// certificate reads, and what a union extends. A graph certified for one
/// routing function is extended with more by walking them into it, and
/// certified again as their union, without walking the first again.
pub struct RoutingGraph<'r> {
    graph: SymGraph<'r>,
    pairs: Pairs,
    routings: Vec<&'r dyn RoutingFunction>,
    diags: Vec<Diagnostic>,
}

impl std::fmt::Debug for RoutingGraph<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routings: Vec<String> = self.routings.iter().map(|r| r.describe()).collect();
        f.debug_struct("RoutingGraph")
            .field("edges", &self.graph.num_edges())
            .field("routings", &routings)
            .field("diags", &self.diags)
            .finish()
    }
}

impl<'r> RoutingGraph<'r> {
    /// An empty graph over `topo` with `vcs` VCs per link. A routing
    /// function walked into it that asks for a VC past `vcs` raises `AV022`.
    pub fn new(topo: &'r dyn Topology, vcs: usize) -> RoutingGraph<'r> {
        RoutingGraph {
            graph: SymGraph::new(topo, vcs),
            pairs: Pairs::new(topo, vcs),
            routings: Vec::new(),
            diags: Vec::new(),
        }
    }

    /// Inserts every edge of `rf`'s transition system, explored breadth
    /// first, after those already in the graph. Envelope violations
    /// (`AV022` out-of-budget VC, `AV023` unaddressable link) are recorded
    /// once per code, and the offending transitions are left out.
    pub fn walk(&mut self, rf: &'r dyn RoutingFunction) {
        let RoutingGraph {
            graph,
            pairs,
            diags,
            ..
        } = self;
        explore(graph.topology(), pairs, rf, diags, |taken| {
            for w in taken.chain.windows(2) {
                graph.add_edge_idx(w[0], w[1]);
            }
            true
        });
        self.routings.push(rf);
    }

    /// The graph, without the routing functions that built it.
    pub fn into_graph(self) -> SymGraph<'r> {
        self.graph
    }

    /// Certifies the union of every routing function walked so far
    /// deadlock-free, or extracts a minimal concrete `(channel, VC)` cycle
    /// with witness routes when it is not: each routing function, in walk
    /// order, explains the cycle edges no earlier one could. `model` labels
    /// the certificate. The walks' envelope diagnostics come back beside it.
    pub fn certify(&self, model: impl Into<String>) -> (DeadlockCertificate, Vec<Diagnostic>) {
        (certify_graph(self, model.into()), self.diags.clone())
    }
}

/// Builds the union channel-dependency graph of `routings` over `topo` by
/// breadth-first exploration of each routing function's transition system.
///
/// Envelope violations (`AV022` out-of-budget VC, `AV023` unaddressable
/// link) are appended to `diags` — once per routing function per code —
/// and the offending transitions are dropped from the graph.
pub fn build_routing_graph<'t>(
    topo: &'t dyn Topology,
    routings: &[&'t dyn RoutingFunction],
    diags: &mut Vec<Diagnostic>,
) -> SymGraph<'t> {
    let g = routing_graph(topo, routings);
    diags.extend_from_slice(&g.diags);
    g.into_graph()
}

/// The graph of `routings` walked in order, sized for the most VCs any of
/// them declares.
fn routing_graph<'r>(
    topo: &'r dyn Topology,
    routings: &[&'r dyn RoutingFunction],
) -> RoutingGraph<'r> {
    let vcs = routings.iter().map(|r| r.num_vcs()).max().unwrap_or(1);
    let mut g = RoutingGraph::new(topo, vcs);
    for &rf in routings {
        g.walk(rf);
    }
    g
}

/// Which transition first reached an arrival, keyed by the arrival's
/// `(link, VC, state)`: the arrival it was taken from and its position there.
type Parents = HashMap<(LinkIdx, Vc, RouteState), (Arrival, usize)>;

/// The concrete route through transition `progress` of `from`: back along
/// the parent links to a root, forward — by a delivering transition wherever
/// one is offered — until the packet is delivered. `None` when the chain is
/// not a whole route from an injection to a delivery (a table's mesh fans).
/// Links decode through `g`.
fn witness_route(
    g: &SymGraph<'_>,
    rf: &dyn RoutingFunction,
    parents: &Parents,
    from: &Arrival,
    progress: Progress<'_>,
) -> Option<(GlobalEndpoint, GlobalEndpoint, RoutePath)> {
    let mut out = Transitions::default();
    // The route's legs, last first.
    let mut legs = vec![progress.steps.to_vec()];
    let mut root = *from;
    while let Some((parent, nth)) = parents.get(&(root.link, root.vc, root.state)) {
        out.clear();
        rf.transitions(parent, &mut out);
        legs.push(out.get(*nth).steps.to_vec());
        root = *parent;
    }
    let mut steps = vec![(root.link, root.vc)];
    steps.extend(legs.into_iter().rev().flatten());
    let mut next = progress.next;
    for _ in 0..=parents.len() {
        let Some((node, state)) = next else { break };
        let (link, vc) = *steps.last()?;
        let onward = Arrival {
            node,
            link,
            vc,
            state,
        };
        out.clear();
        rf.transitions(&onward, &mut out);
        let delivering = out.iter().position(|p| p.next.is_none());
        let taken = out.get(delivering.unwrap_or(0));
        steps.extend_from_slice(taken.steps);
        next = taken.next;
    }
    let steps: Vec<GlobalLink> = steps
        .into_iter()
        .map(|step| g.decode(pair_index(g.vcs, step)).0)
        .collect();
    let endpoint = |link: &GlobalLink| match *link {
        GlobalLink::Local {
            node,
            link: LocalLink::EpToRouter(ep) | LocalLink::RouterToEp(ep),
        } => Some(GlobalEndpoint { node, ep }),
        _ => None,
    };
    let (src, dst) = (endpoint(steps.first()?)?, endpoint(steps.last()?)?);
    let mut hops = Vec::new();
    let mut nodes = vec![src.node];
    let mut on = Slice(0);
    for link in &steps {
        match *link {
            GlobalLink::Torus { dir, slice, .. } => {
                hops.push(dir);
                on = slice;
            }
            GlobalLink::Direct { to, .. } => nodes.push(to),
            GlobalLink::Local { .. } => {}
        }
    }
    let path = if nodes.len() > 1 {
        RoutePath::Nodes(nodes)
    } else {
        RoutePath::Torus { hops, slice: on }
    };
    next.is_none().then_some((src, dst, path))
}

/// Certifies the union of `routings` over `topo` deadlock-free, or extracts
/// a minimal concrete `(channel, VC)` cycle with witness routes when it is
/// not. `model` labels the certificate (e.g. `"anton(n+1) policy, datelines
/// on"`). Envelope diagnostics are returned alongside the certificate.
pub fn certify_routing<'r>(
    topo: &'r dyn Topology,
    routings: &[&'r dyn RoutingFunction],
    model: impl Into<String>,
) -> (DeadlockCertificate, Vec<Diagnostic>) {
    routing_graph(topo, routings).certify(model)
}

/// The certificate of `rg`'s graph: its cycle search, and when a cycle is
/// found, witnesses from the walks again, keeping parent links.
fn certify_graph(rg: &RoutingGraph<'_>, model: String) -> DeadlockCertificate {
    let g = &rg.graph;
    let base = DeadlockCertificate {
        model,
        nodes: g.num_live_nodes(),
        edges: g.num_edges(),
        acyclic: true,
        counterexample: None,
    };
    let Some(cycle) = g.find_cycle() else {
        return base;
    };
    let cycle = g.minimize_cycle(cycle);
    let wanted: HashMap<(u32, u32), usize> = (0..cycle.len())
        .map(|i| ((cycle[i], cycle[(i + 1) % cycle.len()]), i))
        .collect();
    // Each routing function gets a chance to explain the edges no earlier
    // function could; first concrete route per edge wins.
    let mut routes: Vec<Option<WitnessRoute>> = vec![None; cycle.len()];
    let mut missing = cycle.len().min(MAX_WITNESSES);
    let topo = g.topology();
    for rf in &rg.routings {
        if missing == 0 {
            break;
        }
        let mut parents = Parents::new();
        explore(topo, &rg.pairs, *rf, &mut Vec::new(), |taken| {
            if let Some(a) = taken.found {
                parents.insert((a.link, a.vc, a.state), (*taken.from, taken.nth));
            }
            for w in taken.chain.windows(2) {
                let Some(&i) = wanted.get(&(w[0], w[1])) else {
                    continue;
                };
                if routes[i].is_some() || missing == 0 {
                    continue;
                }
                let route = witness_route(g, *rf, &parents, taken.from, taken.progress);
                if let Some((src, dst, path)) = route {
                    routes[i] = Some(WitnessRoute {
                        src,
                        dst,
                        path,
                        holds: g.decode(w[0]),
                        waits_for: g.decode(w[1]),
                    });
                    missing -= 1;
                }
            }
            missing > 0
        });
    }
    DeadlockCertificate {
        acyclic: false,
        counterexample: Some(CycleCounterexample {
            cycle: cycle.iter().map(|&i| g.decode(i)).collect(),
            witnesses: routes.into_iter().flatten().collect(),
        }),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::{ChipLayout, LocalEndpointId};
    use anton_core::config::MachineConfig;
    use anton_core::mesh::{FullMesh, MeshRouting, MeshRule};
    use anton_core::net::TorusTopology;
    use anton_core::topology::{NodeId, TorusShape};

    /// A routing function that immediately violates its VC budget.
    #[derive(Debug)]
    struct BadVc;

    impl RoutingFunction for BadVc {
        fn describe(&self) -> String {
            "bad-vc test routing".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn roots(&self) -> Vec<Arrival> {
            MeshRouting::new(2, MeshRule::Direct).roots()
        }
        fn transitions(&self, _arrival: &Arrival, out: &mut Transitions) {
            let link = GlobalLink::Direct {
                from: NodeId(0),
                to: NodeId(1),
            };
            let link = FullMesh::new(2).index(&link).expect("a mesh link");
            out.steps_mut().push((link, Vc(7)));
            out.end(None);
        }
    }

    /// A routing function that emits a link its topology does not have: a
    /// channel from a node to itself, in the slot a full mesh leaves empty.
    #[derive(Debug)]
    struct BadLink;

    impl RoutingFunction for BadLink {
        fn describe(&self) -> String {
            "bad-link test routing".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn roots(&self) -> Vec<Arrival> {
            MeshRouting::new(2, MeshRule::Direct).roots()
        }
        fn transitions(&self, _arrival: &Arrival, out: &mut Transitions) {
            // Node 0's block: injection, delivery, then the channel to
            // each node by index — its own included.
            let to_self = LinkIdx(2);
            assert_eq!(FullMesh::new(2).link(to_self), None);
            out.steps_mut().push((to_self, Vc(0)));
            out.end(None);
        }
    }

    /// A torus routing function that injects on a one-node machine whose
    /// chip has 5 endpoints and delivers to endpoint 15, which that chip
    /// lacks: it names the link as a 16-endpoint chip numbers it, past
    /// every link the machine has.
    #[derive(Debug)]
    struct PhantomEndpoint;

    fn one_node(endpoints: u8) -> TorusTopology {
        let mut cfg = MachineConfig::new(TorusShape::cube(1));
        cfg.chip = ChipLayout::new(endpoints);
        TorusTopology::new(&cfg)
    }

    impl RoutingFunction for PhantomEndpoint {
        fn describe(&self) -> String {
            "phantom-endpoint test routing".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn roots(&self) -> Vec<Arrival> {
            let node = NodeId(0);
            let link = LocalLink::EpToRouter(LocalEndpointId(0));
            let link = GlobalLink::Local { node, link };
            vec![Arrival {
                node,
                link: one_node(5).index(&link).expect("a chip link"),
                vc: Vc(0),
                state: RouteState(0),
            }]
        }
        fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
            let deliver = GlobalLink::Local {
                node: arrival.node,
                link: LocalLink::RouterToEp(LocalEndpointId(15)),
            };
            let link = one_node(16).index(&deliver).expect("a chip link");
            out.steps_mut().push((link, Vc(0)));
            out.end(None);
        }
    }

    #[test]
    fn a_link_the_chip_lacks_raises_av023_on_the_torus() {
        let topo = one_node(5);
        let (cert, diags) = certify_routing(&topo, &[&PhantomEndpoint], "phantom endpoint");
        assert!(diags.iter().any(|d| d.code == "AV023"), "{diags:?}");
        assert_eq!(cert.edges, 0);
    }

    #[test]
    fn vc_budget_violation_raises_av022() {
        let topo = FullMesh::new(2);
        let (cert, diags) = certify_routing(&topo, &[&BadVc], "bad vc");
        assert!(diags.iter().any(|d| d.code == "AV022"), "{diags:?}");
        // The offending transition contributes no edges.
        assert_eq!(cert.edges, 0);
    }

    #[test]
    fn unaddressable_link_raises_av023() {
        let topo = FullMesh::new(2);
        let (cert, diags) = certify_routing(&topo, &[&BadLink], "bad link");
        assert!(diags.iter().any(|d| d.code == "AV023"), "{diags:?}");
        assert_eq!(cert.edges, 0);
    }

    /// The ring mesh behind nothing but `roots` and `transitions`.
    #[derive(Debug)]
    struct BareRing;

    impl RoutingFunction for BareRing {
        fn describe(&self) -> String {
            "bare ring".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn roots(&self) -> Vec<Arrival> {
            MeshRouting::new(3, MeshRule::Ring).roots()
        }
        fn transitions(&self, arrival: &Arrival, out: &mut Transitions) {
            MeshRouting::new(3, MeshRule::Ring).transitions(arrival, out);
        }
    }

    #[test]
    fn a_routing_function_of_roots_and_transitions_alone_gets_witnesses() {
        let topo = FullMesh::new(3);
        let (cert, diags) = certify_routing(&topo, &[&BareRing], "bare ring");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!cert.acyclic);
        let ce = cert.counterexample.expect("cycle");
        assert_eq!(ce.witnesses.len(), ce.cycle.len());
        for w in &ce.witnesses {
            // A ring route: from its source node round to its destination.
            let RoutePath::Nodes(nodes) = &w.path else {
                panic!("mesh witness {w} has a torus path");
            };
            assert_eq!(nodes.first(), Some(&w.src.node));
            assert_eq!(nodes.last(), Some(&w.dst.node));
            assert!(nodes.windows(2).all(|p| p[1].0 == (p[0].0 + 1) % 3));
            let on_cycle = (0..ce.cycle.len()).any(|i| {
                ce.cycle[i] == w.holds && ce.cycle[(i + 1) % ce.cycle.len()] == w.waits_for
            });
            assert!(on_cycle, "witness {w} is not a cycle edge");
        }
    }
}
