//! Topology- and routing-function abstraction for symbolic certification.
//!
//! The symbolic deadlock certifier in `anton-verify` proves a routing scheme
//! acyclic by walking its channel-dependency graph. Historically that graph
//! was generated by code hard-wired to dimension-order routing on the 3D
//! torus; this module factors the two ingredients the generator actually
//! needs into traits so arbitrary topologies and route sets certify through
//! one engine:
//!
//! * [`Topology`] names the addressable links of a machine and assigns each a
//!   dense `(node, slot)` coordinate so the certifier can store adjacency
//!   arithmetically (no hash interning on the hot path).
//! * [`RoutingFunction`] presents a routing scheme as an abstract transition
//!   system: a set of root [`Arrival`]s (packet injections) and, for each
//!   arrival, the [`Progress`] a packet can make — the `(link, VC)` steps it
//!   acquires in order, each link already named by its topology's dense
//!   [`LinkIdx`], and the follow-on arrival state, if any. The
//!   certifier derives every channel-dependency edge from consecutive steps
//!   and explores the state space to a fixed point; when it finds a cycle it
//!   reads the witness routes off the same transitions (an injection root
//!   at an `EpToRouter` link, a delivery at a `RouterToEp` step with no
//!   follow-on), so a routing function has nothing else to implement.
//!
//! The first two instances are the paper's dimension-order torus routing
//! ([`crate::dimorder::DimOrderRouting`]) and explicit per-slice route tables
//! ([`crate::table_routing::TableRouting`]); the full mesh with VC-free
//! routing ([`crate::mesh`]) is the first non-torus topology.
//!
//! [`TorusTopology`] is also the machine's one wiring description: it
//! numbers a node's links in the simulator's wire order and names the
//! component at each end of every link ([`LinkEnd`]), so a simulator wire,
//! a load-analysis entry and a certified link are the same number.

use std::fmt;

use crate::chip::{
    ChanId, LocalAttach, LocalEndpointId, LocalLink, MeshCoord, NUM_CHAN_ADAPTERS, NUM_ROUTERS,
};
use crate::config::MachineConfig;
use crate::topology::{NodeId, Slice, TorusDir};
use crate::trace::GlobalLink;
use crate::vc::Vc;

/// Opaque per-routing-function state carried between arrivals.
///
/// A [`RoutingFunction`] encodes whatever it needs to resume a route at the
/// next node (VC-ladder position, dims already routed, hop budget, a
/// `(src, dst)` pair index, ...) into this one word. The certifier treats it
/// as an opaque key: two arrivals on the same `(link, VC)` with equal states
/// are the same exploration node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RouteState(pub u64);

/// A multiplicative hasher for the certifier's integer keys (a dense index,
/// a [`RouteState`], a small VC state): one rotate, xor and multiply per
/// word instead of SipHash's rounds. Not DoS-resistant, and not meant to
/// be — every key is derived from the machine, none from input.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

/// Builds [`MulHasher`]s, for `HashMap<K, V, MulHash>`.
pub type MulHash = std::hash::BuildHasherDefault<MulHasher>;

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl std::hash::Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's high bits are its well-mixed ones; the table indexes
    /// by the low bits, so rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A link as its [`Topology`] numbers it: `node · slots_per_node + slot`,
/// where `(node, slot)` is the link's [`Topology::slot`]. The one way a
/// routing function names the buffers its packets take, so the certifier
/// addresses a `(link, VC)` pair by arithmetic alone;
/// [`Topology::link`] turns an index back into its [`GlobalLink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkIdx(pub u32);

/// A buffer a transition acquires: a link, by its dense index, and the VC
/// taken on it.
pub type Step = (LinkIdx, Vc);

/// A packet sitting at a node, holding `(link, vc)`, ready to make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arrival {
    /// The node the packet has reached.
    pub node: NodeId,
    /// The link whose buffer the packet currently occupies.
    pub link: LinkIdx,
    /// The virtual channel it occupies on that link.
    pub vc: Vc,
    /// Opaque routing-function state.
    pub state: RouteState,
}

/// One way a packet can make progress from an [`Arrival`], as read back
/// from [`Transitions`].
///
/// `steps` are the `(link, VC)` buffers acquired in order; every consecutive
/// pair — starting from the arrival's own `(link, vc)` — is a
/// channel-dependency edge. `next` resumes exploration at another node (the
/// new arrival's link and VC are the last step's, or the current arrival's
/// when `steps` is empty — an in-place state reinterpretation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress<'a> {
    /// Buffers acquired, in order.
    pub steps: &'a [Step],
    /// Follow-on arrival, or `None` if the packet is delivered.
    pub next: Option<(NodeId, RouteState)>,
}

/// The transitions of one arrival, in the order a [`RoutingFunction`]
/// writes them: every transition's steps in one buffer, so a walk that
/// clears and refills one `Transitions` per arrival allocates nothing once
/// the buffer has grown to the largest fan-out.
#[derive(Debug, Clone, Default)]
pub struct Transitions {
    steps: Vec<Step>,
    /// Per transition: where its steps end in `steps`, and its follow-on.
    ends: Vec<(usize, Option<(NodeId, RouteState)>)>,
}

impl Transitions {
    /// Forgets every transition, keeping the storage.
    pub fn clear(&mut self) {
        self.steps.clear();
        self.ends.clear();
    }

    /// The step buffer: a routing function pushes the steps of the
    /// transition it is writing here, then closes it with
    /// [`Transitions::end`]. Steps of earlier transitions must be left alone.
    pub fn steps_mut(&mut self) -> &mut Vec<Step> {
        &mut self.steps
    }

    /// Closes the transition whose steps were pushed since the last one
    /// closed, with follow-on `next` (`None`: the packet is delivered).
    pub fn end(&mut self, next: Option<(NodeId, RouteState)>) {
        self.ends.push((self.steps.len(), next));
    }

    /// Number of transitions written.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no transition was written.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `nth` transition written.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `nth + 1` transitions were written.
    pub fn get(&self, nth: usize) -> Progress<'_> {
        let start = nth.checked_sub(1).map_or(0, |i| self.ends[i].0);
        let (end, next) = self.ends[nth];
        Progress {
            steps: &self.steps[start..end],
            next,
        }
    }

    /// Every transition, in the order written.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Progress<'_>> + '_ {
        (0..self.len()).map(|nth| self.get(nth))
    }
}

/// A directed channel-dependency edge: the packet holds the first buffer
/// while waiting for the second.
pub type DepEdge = ((GlobalLink, Vc), (GlobalLink, Vc));

/// The shape of a concrete route used as a cycle witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutePath {
    /// An inter-node torus route: the hop sequence and the slice it rides.
    Torus {
        /// Torus hops in traversal order.
        hops: Vec<TorusDir>,
        /// The channel slice the route uses end to end.
        slice: Slice,
    },
    /// A generic route listed as the node sequence it visits.
    Nodes(Vec<NodeId>),
}

impl fmt::Display for RoutePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutePath::Torus { hops, slice } => {
                write!(f, "[")?;
                for (i, h) in hops.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{h}")?;
                }
                write!(f, "] {slice}")
            }
            RoutePath::Nodes(nodes) => {
                write!(f, "nodes [")?;
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{n}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A machine topology: the set of addressable links, laid out densely.
///
/// Each node contributes `slots_per_node()` link slots;
/// [`Topology::slot`] maps a link to its `(node, slot)` coordinate and
/// [`Topology::link_at`] inverts the mapping. The certifier's dependency
/// graph addresses `(link, VC)` pairs as `(node · slots + slot) · vcs + vc`.
pub trait Topology: fmt::Debug {
    /// Human-readable topology name (for reports and diagnostics).
    fn describe(&self) -> String;

    /// Number of nodes in the machine.
    fn num_nodes(&self) -> usize;

    /// Dense link slots contributed by each node.
    fn slots_per_node(&self) -> usize;

    /// The `(node, slot)` coordinate of a link, or `None` if this topology
    /// has no such link.
    fn slot(&self, link: &GlobalLink) -> Option<(usize, usize)>;

    /// The link at a `(node, slot)` coordinate, or `None` if the slot is
    /// unpopulated.
    fn link_at(&self, node: usize, slot: usize) -> Option<GlobalLink>;

    /// The dense index of a link, or `None` if this topology has no such
    /// link.
    fn index(&self, link: &GlobalLink) -> Option<LinkIdx> {
        let (node, slot) = self.slot(link)?;
        Some(LinkIdx((node * self.slots_per_node() + slot) as u32))
    }

    /// The link at dense index `idx`, or `None` if the index is past the
    /// machine or its slot is unpopulated.
    fn link(&self, idx: LinkIdx) -> Option<GlobalLink> {
        let per = self.slots_per_node();
        let idx = idx.0 as usize;
        self.link_at(idx / per, idx % per)
    }
}

/// A routing scheme presented as an abstract transition system over one
/// [`Topology`]: every [`LinkIdx`] it hands out — in a root, in a step —
/// is that topology's, and the certifier is given the same topology.
pub trait RoutingFunction {
    /// Human-readable routing-function name (for reports and diagnostics).
    fn describe(&self) -> String;

    /// Upper bound (exclusive) on VC indices this function ever assigns.
    fn num_vcs(&self) -> usize;

    /// Every injection point of the routing function.
    fn roots(&self) -> Vec<Arrival>;

    /// Writes every way a packet can make progress from `arrival` into
    /// `out`, after whatever it already holds (a caller reusing one buffer
    /// clears it first).
    fn transitions(&self, arrival: &Arrival, out: &mut Transitions);

    /// An exclusive bound on every [`RouteState`] this function's arrivals
    /// carry, when it numbers its states densely from zero: the certifier
    /// then marks the arrivals it has reached in a bitmap rather than a
    /// hash set. `None` (the default) leaves the states opaque.
    fn state_bound(&self) -> Option<u64> {
        None
    }
}

/// One end of a node's link: the router port, channel adapter or endpoint
/// adapter that sends on it (its producer) or receives from it (its
/// consumer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkEnd {
    /// Port `port` of `router`, ports numbered in
    /// [`ChipLayout::router_ports`](crate::chip::ChipLayout::router_ports)
    /// order.
    Router {
        /// The router.
        router: MeshCoord,
        /// The port's index among the router's ports.
        port: usize,
    },
    /// A channel adapter.
    Chan(ChanId),
    /// An endpoint adapter.
    Endpoint(LocalEndpointId),
}

/// What one slot of a node carries: a link of the chip, or the torus link
/// arriving at one of its channel adapters.
#[derive(Debug, Clone, Copy)]
enum SlotLink {
    Local(LocalLink),
    Arrival(ChanId),
}

/// The key of a local link in [`TorusTopology`]'s slot lookup: mesh and
/// skip links by router, then the channel-adapter links, then the endpoint
/// links, so an endpoint the chip does not have keys past the table.
fn link_key(link: &LocalLink) -> usize {
    let chans = NUM_ROUTERS * 5;
    let eps = chans + 2 * NUM_CHAN_ADAPTERS;
    match *link {
        LocalLink::Mesh { from, dir } => from.index() * 4 + dir.index(),
        LocalLink::Skip { from } => NUM_ROUTERS * 4 + from.index(),
        LocalLink::ChanToRouter(c) => chans + 2 * c.index(),
        LocalLink::RouterToChan(c) => chans + 2 * c.index() + 1,
        LocalLink::EpToRouter(e) => eps + 2 * usize::from(e.0),
        LocalLink::RouterToEp(e) => eps + 2 * usize::from(e.0) + 1,
    }
}

/// The 3D-torus machine as a [`Topology`]: the one numbering of a node's
/// links, which the certifier, the load analysis and the simulator's wires
/// all use.
///
/// A node's slots are every link the node *receives*, in the order the
/// simulator steps their consumers: each router's input links in
/// [`ChipLayout::router_ports`](crate::chip::ChipLayout::router_ports)
/// order, then per channel adapter the link from its router and the torus
/// link arriving at it, then per endpoint adapter the link from its router.
/// Every slot is a link the chip has (120 at 16 endpoints), and a torus
/// link sits in the block of the node it arrives at, labelled by its sender.
#[derive(Debug, Clone)]
pub struct TorusTopology {
    shape: String,
    /// Every node's slots, in order, as `(link, producer, consumer)`.
    slots: Vec<(SlotLink, LinkEnd, LinkEnd)>,
    /// The slot of each local link, at its [`link_key`].
    local: Vec<Option<u16>>,
    /// The slot of the torus link arriving at each channel adapter, at its
    /// [`ChanId::index`].
    arrival: [u16; NUM_CHAN_ADAPTERS],
    /// Per node, the neighbour in each torus direction, at its
    /// [`TorusDir::index`].
    neighbors: Vec<[u32; 6]>,
}

impl TorusTopology {
    /// The topology of the machine described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> TorusTopology {
        let chip = &cfg.chip;
        let port = |router: MeshCoord, attach| {
            let port = chip.router_ports(router).iter().position(|a| *a == attach);
            let port = port.expect("the router has the port");
            LinkEnd::Router { router, port }
        };
        let mut slots = Vec::new();
        for router in MeshCoord::all() {
            for (p, attach) in chip.router_ports(router).into_iter().enumerate() {
                let (link, producer) = match attach {
                    LocalAttach::Mesh(dir) => {
                        let from = router.step(dir).expect("mesh port has a neighbour");
                        let dir = dir.opposite();
                        (
                            LocalLink::Mesh { from, dir },
                            port(from, LocalAttach::Mesh(dir)),
                        )
                    }
                    LocalAttach::Skip => {
                        let from = chip.skip_partner(router).expect("skip port has a partner");
                        (LocalLink::Skip { from }, port(from, attach))
                    }
                    LocalAttach::Chan(c) => (LocalLink::ChanToRouter(c), LinkEnd::Chan(c)),
                    LocalAttach::Endpoint(e) => (LocalLink::EpToRouter(e), LinkEnd::Endpoint(e)),
                };
                let consumer = LinkEnd::Router { router, port: p };
                slots.push((SlotLink::Local(link), producer, consumer));
            }
        }
        for c in ChanId::all() {
            let to_chan = SlotLink::Local(LocalLink::RouterToChan(c));
            let from_router = port(chip.chan_router(c), LocalAttach::Chan(c));
            slots.push((to_chan, from_router, LinkEnd::Chan(c)));
            // Sent by the opposite adapter of the neighbour it comes from.
            let sender = LinkEnd::Chan(ChanId {
                dir: c.dir.opposite(),
                slice: c.slice,
            });
            slots.push((SlotLink::Arrival(c), sender, LinkEnd::Chan(c)));
        }
        for e in chip.endpoints() {
            let to_ep = SlotLink::Local(LocalLink::RouterToEp(e));
            let from_router = port(chip.endpoint_router(e), LocalAttach::Endpoint(e));
            slots.push((to_ep, from_router, LinkEnd::Endpoint(e)));
        }
        let eps = LocalEndpointId(chip.num_endpoints());
        let mut local = vec![None; link_key(&LocalLink::EpToRouter(eps))];
        let mut arrival = [0; NUM_CHAN_ADAPTERS];
        for (slot, (link, ..)) in slots.iter().enumerate() {
            match *link {
                SlotLink::Local(link) => local[link_key(&link)] = Some(slot as u16),
                SlotLink::Arrival(c) => arrival[c.index()] = slot as u16,
            }
        }
        let shape = &cfg.shape;
        let neighbors = (0..shape.num_nodes() as u32)
            .map(|n| {
                let at = shape.coord(NodeId(n));
                TorusDir::ALL.map(|dir| shape.id(shape.neighbor(at, dir)).0)
            })
            .collect();
        TorusTopology {
            shape: shape.to_string(),
            slots,
            local,
            arrival,
            neighbors,
        }
    }

    /// The component that sends on slot `slot` of every node; a torus
    /// arrival's is the opposite channel adapter of the node it comes from.
    pub fn producer(&self, slot: usize) -> LinkEnd {
        self.slots[slot].1
    }

    /// The component that receives from slot `slot` of every node.
    pub fn consumer(&self, slot: usize) -> LinkEnd {
        self.slots[slot].2
    }

    /// The node one torus hop from `node` in direction `dir`.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: TorusDir) -> NodeId {
        NodeId(self.neighbors[node.0 as usize][dir.index()])
    }
}

impl Topology for TorusTopology {
    fn describe(&self) -> String {
        format!("{} torus", self.shape)
    }

    fn num_nodes(&self) -> usize {
        self.neighbors.len()
    }

    fn slots_per_node(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn slot(&self, link: &GlobalLink) -> Option<(usize, usize)> {
        match *link {
            GlobalLink::Local { node, link } => {
                let slot = (*self.local.get(link_key(&link))?)?;
                let node = node.0 as usize;
                (node < self.neighbors.len()).then_some((node, usize::from(slot)))
            }
            GlobalLink::Torus { from, dir, slice } => {
                let to = self.neighbors.get(from.0 as usize)?[dir.index()];
                let at = ChanId {
                    dir: dir.opposite(),
                    slice,
                };
                Some((to as usize, usize::from(self.arrival[at.index()])))
            }
            GlobalLink::Direct { .. } => None,
        }
    }

    fn link_at(&self, node: usize, slot: usize) -> Option<GlobalLink> {
        let neighbors = self.neighbors.get(node)?;
        Some(match self.slots.get(slot)?.0 {
            SlotLink::Local(link) => GlobalLink::Local {
                node: NodeId(node as u32),
                link,
            },
            SlotLink::Arrival(c) => GlobalLink::Torus {
                from: NodeId(neighbors[c.dir.index()]),
                dir: c.dir.opposite(),
                slice: c.slice,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{ChipLayout, MeshDir};
    use crate::topology::TorusShape;
    use std::collections::HashSet;

    /// The links node `node` receives, computed without the topology: every
    /// link of its chip and the torus link arriving at each adapter.
    fn node_links(cfg: &MachineConfig, node: usize) -> HashSet<GlobalLink> {
        let shape = &cfg.shape;
        let id = NodeId(node as u32);
        let local = cfg.chip.local_links().into_iter();
        let mut links: HashSet<_> = local
            .map(|link| GlobalLink::Local { node: id, link })
            .collect();
        for c in ChanId::all() {
            let from = shape.id(shape.neighbor(shape.coord(id), c.dir));
            links.insert(GlobalLink::Torus {
                from,
                dir: c.dir.opposite(),
                slice: c.slice,
            });
        }
        links
    }

    #[test]
    fn torus_slots_round_trip() {
        for (shape, eps, per) in [
            (TorusShape::new(3, 2, 1), 16, 120),
            (TorusShape::cube(2), 16, 120),
            (TorusShape::new(4, 3, 2), 5, 98),
        ] {
            let mut cfg = MachineConfig::new(shape);
            cfg.chip = ChipLayout::new(eps);
            let topo = TorusTopology::new(&cfg);
            assert_eq!(topo.slots_per_node(), per, "{shape} with {eps} endpoints");
            for node in 0..topo.num_nodes() {
                // A node's slots are exactly the links it receives, each once.
                let mut expected = node_links(&cfg, node);
                assert_eq!(expected.len(), per);
                for slot in 0..per {
                    let link = topo.link_at(node, slot).expect("every slot is populated");
                    assert!(expected.remove(&link), "{link} is not node {node}'s");
                    assert_eq!(topo.slot(&link), Some((node, slot)));
                }
                assert_eq!(topo.link_at(node, per), None);
            }
        }
    }

    #[test]
    fn every_component_end_sends_and_receives_once() {
        let mut cfg = MachineConfig::new(TorusShape::new(3, 2, 1));
        cfg.chip = ChipLayout::new(5);
        let topo = TorusTopology::new(&cfg);
        let mut sends = HashSet::new();
        let mut receives = HashSet::new();
        for slot in 0..topo.slots_per_node() {
            let (producer, consumer) = (topo.producer(slot), topo.consumer(slot));
            let link = topo.link_at(0, slot).unwrap();
            let torus = matches!(link, GlobalLink::Torus { .. });
            // An adapter sends and receives twice: on the torus and on chip.
            assert!(sends.insert((producer, torus)), "{producer:?} sends twice");
            assert!(
                receives.insert((consumer, torus)),
                "{consumer:?} receives twice"
            );
            let GlobalLink::Local { link, .. } = link else {
                continue;
            };
            let (from, to) = cfg.chip.link_routers(link);
            for (end, router) in [(producer, from), (consumer, to)] {
                if let LinkEnd::Router { router: r, port } = end {
                    assert_eq!(r, router, "{link}");
                    assert!(port < cfg.chip.router_ports(r).len());
                }
            }
        }
        let ports: usize = MeshCoord::all()
            .map(|r| cfg.chip.router_ports(r).len())
            .sum();
        let ends = ports + 2 * NUM_CHAN_ADAPTERS + 5;
        assert_eq!((sends.len(), receives.len()), (ends, ends));
    }

    #[test]
    fn torus_rejects_foreign_links() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let topo = TorusTopology::new(&cfg);
        let local = |link| GlobalLink::Local {
            node: NodeId(0),
            link,
        };
        let foreign = [
            GlobalLink::Direct {
                from: NodeId(0),
                to: NodeId(1),
            },
            GlobalLink::Local {
                node: NodeId(99),
                link: LocalLink::EpToRouter(LocalEndpointId(0)),
            },
            GlobalLink::Torus {
                from: NodeId(8),
                dir: TorusDir::ALL[0],
                slice: crate::topology::Slice(0),
            },
            local(LocalLink::EpToRouter(LocalEndpointId(200))),
            local(LocalLink::RouterToEp(LocalEndpointId(16))),
            // Off the edge of the 4×4 mesh, and a router with no partner.
            local(LocalLink::Mesh {
                from: MeshCoord::new(0, 0),
                dir: MeshDir::UMinus,
            }),
            local(LocalLink::Skip {
                from: MeshCoord::new(1, 1),
            }),
        ];
        for link in foreign {
            assert_eq!(topo.slot(&link), None, "{link}");
        }
    }
}
