//! Per-packet simulation state and the packet slab.
//!
//! The slab is chunked, one 64-byte line per slot: a live slot holds a
//! packet's hot record, a vacant one the id of the next vacant slot, so the
//! free list is threaded through the slots it lists and costs nothing
//! beside them. A buffered packet is stored here and nowhere else: the
//! wire layer keeps its ready cycle and its link in a VC queue in the last
//! eight bytes of its line (see [`crate::wire`]).

use anton_core::chip::{ChanId, LocalAttach, LocalEndpointId};
use anton_core::config::GlobalEndpoint;
use anton_core::multicast::McGroupId;
use anton_core::packet::{CounterId, Destination, Packet, PatternId, Payload};
use anton_core::routing::RouteSpec;
use anton_core::topology::{Slice, TorusDir};
use anton_core::trace::GlobalLink;
use anton_core::vc::{TrafficClass, Vc, VcState};

use crate::wire::saturate_cycle;

/// Dense id of an in-flight packet (slab index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// Where an in-flight packet (or multicast copy) is headed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteProgress {
    /// A unicast packet following its route spec to `dst`: its oblivious
    /// route, or the route of the degradation epoch's certified table it
    /// was steered onto at (re)injection.
    Unicast {
        /// Remaining inter-node route.
        spec: RouteSpec,
        /// Final destination endpoint.
        dst: GlobalEndpoint,
    },
    /// A multicast copy heading for a departure channel adapter on the
    /// current node; the next node's table continues the route.
    McExit {
        /// Multicast group for table lookups downstream.
        group: McGroupId,
        /// Tree index within the group.
        tree: u8,
        /// Torus direction of the next hop.
        dir: TorusDir,
        /// Slice of the tree.
        slice: Slice,
    },
    /// A multicast copy delivering to an endpoint of the current node.
    McDeliver {
        /// Multicast group (for accounting).
        group: McGroupId,
        /// Tree index within the group, as the packet's header names it.
        tree: u8,
        /// Destination endpoint on the current node.
        ep: LocalEndpointId,
    },
}

impl RouteProgress {
    /// Whether this is a unicast packet's route. Only unicast traffic can
    /// leave a failed link for the certified degraded tables; a multicast
    /// copy has no table to follow and waits the outage out where it is.
    pub fn is_unicast(&self) -> bool {
        matches!(self, RouteProgress::Unicast { .. })
    }

    /// The packet's destination as its header names it: a unicast packet's
    /// endpoint, or a multicast copy's group and tree.
    pub fn destination(&self) -> Destination {
        match *self {
            RouteProgress::Unicast { dst, .. } => Destination::Unicast(dst),
            RouteProgress::McExit { group, tree, .. }
            | RouteProgress::McDeliver { group, tree, .. } => {
                Destination::Multicast { group, tree }
            }
        }
    }

    /// Next torus hop: a unicast packet's by its spec (`None` at its
    /// destination node), a multicast copy's as its tree fixed it.
    #[inline]
    pub fn next_hop(&self) -> Option<TorusDir> {
        match *self {
            RouteProgress::Unicast { spec, .. } => spec.next_dir(),
            RouteProgress::McExit { dir, .. } => Some(dir),
            RouteProgress::McDeliver { .. } => None,
        }
    }

    /// The on-chip target (adapter) at the packet's current node: the
    /// departure adapter of its next hop, or its endpoint.
    #[inline]
    pub fn chip_target(&self) -> LocalAttach {
        match *self {
            RouteProgress::Unicast { spec, dst } => match spec.next_dir() {
                Some(dir) => LocalAttach::Chan(ChanId {
                    dir,
                    slice: spec.slice,
                }),
                None => LocalAttach::Endpoint(dst.ep),
            },
            RouteProgress::McExit { dir, slice, .. } => LocalAttach::Chan(ChanId { dir, slice }),
            RouteProgress::McDeliver { ep, .. } => LocalAttach::Endpoint(ep),
        }
    }
}

/// The hot record of one in-flight packet: what the kernel reads as the
/// packet moves, in one 64-byte cache line. The header fields are the
/// packet's own; its destination is held by `route`
/// ([`RouteProgress::destination`]). What only an instrument reads — the
/// payload bytes and the route log — lives in the slab's side table
/// ([`ColdState`]).
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub struct PacketState {
    /// Injecting endpoint.
    pub src: GlobalEndpoint,
    /// Traffic class.
    pub class: TrafficClass,
    /// Traffic-pattern tag for inverse-weighted arbitration.
    pub pattern: PatternId,
    /// Counted-write counter to decrement at the destination, if any.
    pub counter: Option<CounterId>,
    /// Routing progress.
    pub route: RouteProgress,
    /// VC promotion state.
    pub vc: VcState,
    /// VC state to adopt after traversing the node-entry (adapter→router)
    /// link: entry links use the arriving dimension's T-phase VC, while the
    /// promoted state applies from the router onward.
    pub pending_vc: Option<VcState>,
    /// The torus direction this packet most recently arrived on (`None`
    /// after injection or local turns) — gates the skip-channel shortcut.
    pub arrived_via: Option<TorusDir>,
    /// Cycle the original packet entered the network. 32 bits hold every
    /// cycle a run steps (it stops at `u32::MAX`), as in a gate's ready
    /// cycle.
    pub injected_at: u32,
    /// Cycle the original packet joined its source's software queue: the
    /// age oldest-first arbitration ranks by.
    pub queued_at: u32,
    /// Inter-node hops taken so far.
    pub torus_hops: u16,
    /// Whether the packet was ever ejected from a failed link and
    /// re-entered over a degraded route table.
    pub rerouted: bool,
    /// Flits occupied on channels.
    pub flits: u8,
    /// Cycle the packet clears the receive pipeline of the wire it was last
    /// sent on, saturated at 2³² − 1 like a gate's ready cycle: written by
    /// the wire layer on every send, read when it files the packet.
    pub(crate) ready_at: u32,
    /// The packet's link in the VC queue buffering it (see [`crate::wire`]):
    /// [`NOT_PARKED`] while it is buffered nowhere, which every insert into
    /// the slab resets it to.
    pub(crate) link: u32,
}

/// Queue link of a packet that is buffered nowhere (see
/// [`PacketState::link`]). Packet ids are slab indices, far below it.
pub(crate) const NOT_PARKED: u32 = u32::MAX;

impl PacketState {
    /// The state of `packet` entering the network on `route` at cycle
    /// `injected_at`, queued that same cycle: no hops taken, nothing
    /// pending, never rerouted. A packet that waited in its source queue,
    /// a reroute or a multicast copy overrides what it inherits with
    /// struct-update syntax.
    pub fn new(
        packet: &Packet,
        route: RouteProgress,
        vc: VcState,
        injected_at: u64,
    ) -> PacketState {
        let injected_at = saturate_cycle(injected_at);
        PacketState {
            src: packet.src,
            class: packet.class,
            pattern: packet.pattern,
            counter: packet.counter,
            route,
            vc,
            pending_vc: None,
            arrived_via: None,
            injected_at,
            queued_at: injected_at,
            torus_hops: 0,
            rerouted: false,
            flits: packet.num_flits() as u8,
            ready_at: 0,
            link: NOT_PARKED,
        }
    }

    /// The packet this state carries, given its payload: every header field
    /// is the hot record's.
    pub fn packet(&self, payload: Payload) -> Packet {
        Packet {
            src: self.src,
            dst: self.route.destination(),
            class: self.class,
            pattern: self.pattern,
            counter: self.counter,
            payload,
        }
    }
}

/// The cold side of an in-flight packet: what only an instrument reads,
/// kept in the slab's side table for a packet that entered the network
/// while [`TraceConfig::energy`](crate::params::TraceConfig::energy) or
/// [`TraceConfig::routes`](crate::params::TraceConfig::routes) was on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdState {
    /// The payload bytes, whose bit flips the energy counters count.
    pub payload: Payload,
    /// Link-level route log: every hop sent while `TraceConfig::routes` is
    /// on, so empty unless it was.
    pub route_log: Vec<(GlobalLink, Vc)>,
}

/// Slots per chunk of the slab: a power of two, 64 KB a chunk.
const CHUNK: usize = 1024;

/// End of the slab's free list.
const NO_FREE: u32 = u32::MAX;

/// One slot of the slab: a live packet's hot record, or, vacant, the next
/// link of the free list threaded through the vacant slots.
#[derive(Debug, Clone, Copy)]
enum SlabEntry {
    Live(PacketState),
    /// The id of the slot freed before this one, [`NO_FREE`] at the end.
    Vacant(u32),
}

// One cache line per slot: the hot record, the wire layer's ready cycle and
// queue link included, fills 64 bytes on a 64-byte boundary, and a vacant
// slot, its free-list link included, is no larger than a live one.
const _: () = assert!(std::mem::size_of::<SlabEntry>() == 64);
const _: () = assert!(std::mem::align_of::<SlabEntry>() == 64);

/// Slab of in-flight packets with id reuse.
#[derive(Debug)]
pub struct PacketSlab {
    /// Slot `id` is `chunks[id / CHUNK][id % CHUNK]`; every chunk is
    /// allocated at `CHUNK` capacity and all but the last are full. The slab
    /// grows by a chunk and never moves a slot: one `Vec` doubling in place
    /// holds the old block beside the new one whenever the allocator cannot
    /// extend it where it lies, and whether it can depends on the heap around
    /// it, so the peak memory of a saturated run differed from one process
    /// to the next by the size of the old block (4 MB at 4×4×4).
    chunks: Vec<Vec<SlabEntry>>,
    /// The cold side table: slot `id`'s [`ColdState`] at `cold[id]`, for a
    /// packet inserted with one. Grown only by such an insert, so it stays
    /// empty while no instrument is on; a removal takes the entry out, so a
    /// recycled id starts with none.
    cold: Vec<Option<ColdState>>,
    /// The most recently freed vacant slot, [`NO_FREE`] when none is: ids
    /// are reused last-freed-first.
    free_head: u32,
    live: usize,
    /// Packets ever inserted (multicast copies count individually).
    created: u64,
    /// Packets ever removed (delivered or absorbed into copies).
    terminated: u64,
}

impl Default for PacketSlab {
    fn default() -> PacketSlab {
        PacketSlab {
            chunks: Vec::new(),
            cold: Vec::new(),
            free_head: NO_FREE,
            live: 0,
            created: 0,
            terminated: 0,
        }
    }
}

impl PacketSlab {
    /// Creates an empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab::default()
    }

    /// Inserts a packet with its cold record, if it has one, returning its
    /// id. The packet reads "not parked" whatever `state` held, so a
    /// recycled id, a copy or a moved packet starts clean.
    pub fn insert(&mut self, mut state: PacketState, cold: Option<ColdState>) -> PacketId {
        state.link = NOT_PARKED;
        self.live += 1;
        self.created += 1;
        let idx = if self.free_head != NO_FREE {
            let idx = self.free_head;
            let slot = self.slot_mut(idx);
            let SlabEntry::Vacant(next) = *slot else {
                unreachable!("the free list runs through live slot {idx}");
            };
            *slot = SlabEntry::Live(state);
            self.free_head = next;
            idx as usize
        } else {
            let idx = self.high_water();
            if idx.is_multiple_of(CHUNK) {
                self.chunks.push(Vec::with_capacity(CHUNK));
            }
            self.chunks[idx / CHUNK].push(SlabEntry::Live(state));
            idx
        };
        if let Some(cold) = cold {
            if self.cold.len() <= idx {
                self.cold.resize_with(idx + 1, || None);
            }
            self.cold[idx] = Some(cold);
        }
        PacketId(idx as u32)
    }

    #[inline]
    fn slot(&self, idx: u32) -> &SlabEntry {
        &self.chunks[idx as usize / CHUNK][idx as usize % CHUNK]
    }

    #[inline]
    fn slot_mut(&mut self, idx: u32) -> &mut SlabEntry {
        &mut self.chunks[idx as usize / CHUNK][idx as usize % CHUNK]
    }

    /// Removes and returns a packet with its cold record, if it has one.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn remove(&mut self, id: PacketId) -> (PacketState, Option<ColdState>) {
        let next = self.free_head;
        let slot = self.slot_mut(id.0);
        let SlabEntry::Live(state) = *slot else {
            panic!("stale packet id");
        };
        *slot = SlabEntry::Vacant(next);
        let cold = self.cold.get_mut(id.0 as usize).and_then(Option::take);
        self.free_head = id.0;
        self.live -= 1;
        self.terminated += 1;
        (state, cold)
    }

    /// Borrows a packet.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get(&self, id: PacketId) -> &PacketState {
        match self.slot(id.0) {
            SlabEntry::Live(state) => state,
            SlabEntry::Vacant(_) => panic!("stale packet id"),
        }
    }

    /// Mutably borrows a packet.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn get_mut(&mut self, id: PacketId) -> &mut PacketState {
        match self.slot_mut(id.0) {
            SlabEntry::Live(state) => state,
            SlabEntry::Vacant(_) => panic!("stale packet id"),
        }
    }

    /// The queue link of slot `id` (see [`PacketState::link`]), and
    /// [`NOT_PARKED`] for a vacant slot or one past the slab's end: a free
    /// list link never reads as a queue link.
    pub(crate) fn link(&self, id: u32) -> u32 {
        let slot = self.chunks.get(id as usize / CHUNK);
        match slot.and_then(|c| c.get(id as usize % CHUNK)) {
            Some(SlabEntry::Live(state)) => state.link,
            _ => NOT_PARKED,
        }
    }

    /// A live packet's cold record, if it was inserted with one.
    pub fn cold_mut(&mut self, id: PacketId) -> Option<&mut ColdState> {
        self.cold.get_mut(id.0 as usize)?.as_mut()
    }

    /// The whole packet behind `id` — the header from its hot record, the
    /// payload from its cold one — if it was inserted with a cold record.
    ///
    /// # Panics
    ///
    /// Panics if the id is stale.
    pub fn packet(&self, id: PacketId) -> Option<Packet> {
        let cold = self.cold.get(id.0 as usize)?.as_ref()?;
        Some(self.get(id).packet(cold.payload))
    }

    /// Number of live packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The most packets ever live at once: ids range below this.
    pub fn high_water(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    /// Packets ever inserted into the slab.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Packets ever removed from the slab.
    pub fn terminated(&self) -> u64 {
        self.terminated
    }
}

/// A one-flit unicast packet one X hop from node 0 to node 1 of a 4×4×4
/// machine, entering the network at cycle 0: a live slab line for tests.
#[cfg(test)]
pub(crate) fn dummy_state() -> PacketState {
    use anton_core::packet::Payload;
    use anton_core::routing::DimOrder;
    use anton_core::topology::{NodeCoord, NodeId, TorusShape};
    use anton_core::vc::VcPolicy;

    let shape = TorusShape::cube(4);
    let src = GlobalEndpoint {
        node: NodeId(0),
        ep: LocalEndpointId(0),
    };
    let dst = GlobalEndpoint {
        node: NodeId(1),
        ep: LocalEndpointId(0),
    };
    let spec = RouteSpec::deterministic(
        &shape,
        NodeCoord::new(0, 0, 0),
        NodeCoord::new(1, 0, 0),
        DimOrder::XYZ,
        Slice(0),
    );
    PacketState::new(
        &Packet::write(src, dst, Payload::zeros(16)),
        RouteProgress::Unicast { spec, dst },
        VcPolicy::Anton.start(),
        0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::packet::Payload;

    #[test]
    fn slab_reuses_slots() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(dummy_state(), None);
        let b = slab.insert(dummy_state(), None);
        assert_eq!(slab.live(), 2);
        slab.remove(a);
        let c = slab.insert(dummy_state(), None);
        assert_eq!(c, a, "freed slot should be reused");
        assert_ne!(b, c);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn freed_ids_come_back_last_freed_first() {
        let mut slab = PacketSlab::new();
        let ids: Vec<PacketId> = (0..5).map(|_| slab.insert(dummy_state(), None)).collect();
        for &i in &[1, 3, 0] {
            slab.remove(ids[i]);
        }
        assert_eq!(slab.insert(dummy_state(), None), ids[0]);
        slab.remove(ids[4]);
        let reused: Vec<PacketId> = (0..4).map(|_| slab.insert(dummy_state(), None)).collect();
        assert_eq!(reused, vec![ids[4], ids[3], ids[1], PacketId(5)]);
        assert_eq!((slab.live(), slab.high_water()), (6, 6));
    }

    #[test]
    fn growth_adds_a_chunk_and_moves_no_slot() {
        let mut slab = PacketSlab::new();
        let first = slab.insert(dummy_state(), None);
        let at = slab.get(first) as *const PacketState;
        for i in 1..=CHUNK {
            assert_eq!(
                slab.insert(dummy_state(), None),
                PacketId(i as u32),
                "ids dense"
            );
        }
        assert_eq!(slab.high_water(), CHUNK + 1);
        assert_eq!(slab.chunks.len(), 2);
        assert!(std::ptr::eq(slab.get(first), at), "slot 0 moved");
        slab.get_mut(PacketId(CHUNK as u32)).torus_hops = 7;
        assert_eq!(slab.remove(PacketId(CHUNK as u32)).0.torus_hops, 7);
        assert_eq!(slab.insert(dummy_state(), None), PacketId(CHUNK as u32));
        assert_eq!(slab.live(), CHUNK + 1);
    }

    #[test]
    fn a_cold_record_follows_its_packet_and_leaves_with_it() {
        let mut slab = PacketSlab::new();
        let plain = slab.insert(dummy_state(), None);
        assert!(slab.cold.is_empty(), "no cold record, no side table");
        let cold = ColdState {
            payload: Payload::ones(20),
            route_log: Vec::new(),
        };
        let with = slab.insert(dummy_state(), Some(cold.clone()));
        let packet = slab.packet(with).expect("inserted with a payload");
        assert_eq!((packet.payload, packet.num_flits()), (cold.payload, 2));
        assert_eq!(packet.dst, slab.get(with).route.destination());
        assert_eq!(slab.packet(plain), None);
        assert_eq!(slab.remove(with).1, Some(cold));
        // The recycled id starts without the record it held.
        assert_eq!(slab.insert(dummy_state(), None), with);
        assert_eq!(slab.packet(with), None);
        assert!(slab.cold_mut(with).is_none());
    }

    #[test]
    fn an_id_reads_not_parked_until_the_wire_layer_links_it() {
        let mut slab = PacketSlab::new();
        let ids: Vec<PacketId> = (0..3).map(|_| slab.insert(dummy_state(), None)).collect();
        assert!(ids.iter().all(|id| slab.link(id.0) == NOT_PARKED));
        // Linked into a queue, then removed still linked: the line it
        // leaves behind is a free-list link to id 0, which must not read
        // as a queue link to it.
        slab.get_mut(ids[2]).link = ids[1].0;
        slab.remove(ids[0]);
        let (state, _) = slab.remove(ids[2]);
        assert_eq!(state.link, ids[1].0);
        assert_eq!(slab.link(ids[2].0), NOT_PARKED, "vacant, linked to id 0");
        assert_eq!(slab.link(7), NOT_PARKED, "past the slab's end");
        // Re-inserted — recycled or carried whole to another slab, as a
        // shard transfer does — it starts clean; its ready cycle travels.
        let moved = slab.insert(
            PacketState {
                ready_at: 9,
                ..state
            },
            None,
        );
        assert_eq!(moved, ids[2]);
        assert_eq!(slab.link(moved.0), NOT_PARKED);
        assert_eq!(slab.get(moved).ready_at, 9);
    }

    #[test]
    #[should_panic(expected = "stale packet id")]
    fn stale_id_panics() {
        let mut slab = PacketSlab::new();
        let a = slab.insert(dummy_state(), None);
        slab.remove(a);
        slab.get(a);
    }
}
