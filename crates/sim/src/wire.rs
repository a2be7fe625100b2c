//! Credit-flow-controlled channels: the wire layer.
//!
//! Every directed channel of the machine — mesh links, skip channels,
//! adapter links, and external torus channels — is the same kind of wire: a
//! fixed-latency pipe whose receiving end holds per-VC input buffers, with
//! credit-based virtual cut-through flow control. The sender may only push a
//! packet when it holds enough credits for all of its flits; credits return
//! to the sender one link latency after the receiver drains the packet.
//!
//! The crate-internal `Wires` store owns all of them and is the only code
//! that touches their state. What the per-cycle allocation scans read lives
//! in dense struct-of-arrays form (credit, gate and queue-end rows,
//! occupancy masks, one packed info word per wire); a wire's label sits in
//! one dense array that only reports read. A lossy-link shim, a
//! shard-boundary role and its outboxes sit in a cold record that only a
//! wire off the dense path owns: an ideal interior wire has none. The layer
//! also owns its calendars: the wire wheel (which shimmed wires have a
//! link-layer event due) and one credit wheel per distinct wire latency
//! (every credit return, drained densely without touching the wire). A
//! credit wheel has `(latency + 1).next_power_of_two()` slots — 2 for the
//! one-cycle on-chip wires, 64 for the 44-cycle torus wires — so a slot
//! only ever grows to one cycle's returns of its own latency: a saturated
//! machine's bursts of one-cycle mesh returns fill the two slots of their
//! own wheel, and the torus wheel's slots hold torus returns only.
//!
//! A VC's receive buffer is a FIFO of packets, and at saturation most sends
//! land behind a head (55 % on the 8×8×8 uniform batch), so the FIFOs are
//! hot state. They have no storage of their own: every buffered packet, the
//! head included, sits in one pool keyed by its packet id — its entry in
//! `parked`, a link to the packet behind it in `next` — and each VC keeps
//! only its head's gate and the ids at its queue's two ends (`qhead` /
//! `qtail`), so an empty VC holds no entry. No allocator, free list or
//! capacity is involved, because a packet is buffered in at most one place
//! at a time. Three invariants hold between calls, audited by
//! `Wires::check_pool` and on every filing:
//!
//! * a VC's occupied bit is set exactly when `qhead` / `qtail` name a queue,
//!   head included, and a walk from `qhead` ends at `qtail` within `depth`
//!   steps;
//! * a packet is filed at most once (filing it again panics);
//! * a packet's link reads "not parked" exactly when it is buffered nowhere
//!   — so a recycled id starts clean.
//!
//! There is one `send`, one `pop` and one `step` (the wires phase of a
//! cycle); which of the three delivery paths and two credit-return paths a
//! wire takes is decided from what can be observed about it (see DESIGN.md,
//! "The wire layer"). Every wire delivers inside the wake wheel's horizon
//! (`Wires::new` refuses one that does not), so a packet is always filed
//! with the cycle it clears the receive pipeline and a credit return is
//! always an entry of its latency's credit wheel. The simulator keeps only
//! who consumes and who produces each wire, and acts on the wake cycles
//! this layer hands back.
//!
//! Buffer entries carry a copy of the scheduling-relevant packet metadata
//! (flit count, class, pattern, age) in 16 bytes, and each head's gate
//! record a per-hop route-computation cache, so the simulator's
//! switch-allocation loops never touch the packet slab for blocked heads.

use std::collections::VecDeque;

use anton_core::timing::TORUS_LINK_CYCLES;
use anton_core::trace::GlobalLink;
use anton_core::vc::{TrafficClass, Vc};
use anton_fault::{LinkShim, ShimEvent, ShimStats};

use crate::params::ADAPTER_PIPELINE;
use crate::state::{PacketId, RouteProgress};
use crate::wake::{Scheduler, HORIZON};

/// Upper bound on flattened VC indices per wire (two classes of at most
/// eight VCs): the per-wire VC masks are `u16`.
const MAX_WIRE_VCS: usize = 16;

/// The last cycle a run may reach: gate records keep ready cycles as `u32`
/// ([`GateEntry::ready`]), and a head whose ready cycle lies past this one
/// reads as never ready, so `Sim::run` stops here instead of misreading it.
pub(crate) const LAST_CYCLE: u64 = u32::MAX as u64;

/// A packet is at most two flits (`Packet::num_flits`), which bounds how far
/// ahead of a send the consumer's wake can lie.
const MAX_PACKET_FLITS: u64 = 2;

// The slowest wire of the machine, a torus arrival, is ready within the wake
// wheel's horizon, so `Wires::new` accepts every wire it is built from.
const _: () = assert!(TORUS_LINK_CYCLES + MAX_PACKET_FLITS - 1 + (ADAPTER_PIPELINE - 1) < HORIZON);

/// Compact gating record of one VC head: the ready cycle plus everything the
/// per-cycle switch-allocation scans need to decide whether a head can move
/// (cached route, flit count for the credit check, pattern for weighted
/// arbitration). Packed to 8 bytes so one load fetches the whole gate and a
/// full 16-VC row spans two cache lines (one for the common 8-VC wires); the
/// full [`BufEntry`] is only loaded for heads that pass every gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEntry {
    /// Head ready cycle, saturated at 2³² − 1 (the last cycle a run may
    /// reach).
    pub ready: u32,
    /// Route-computation cache: output port (`0xFF` = not yet computed).
    /// Channel adapters reuse this slot as an arrival-kind cache on the
    /// wires they consume (see `adapter.rs`).
    pub rc_port: u8,
    /// Route-computation cache: VC index on the output wire.
    pub rc_vcidx: u8,
    /// Flits the head packet occupies.
    pub flits: u8,
    /// Traffic-pattern tag.
    pub pattern: u8,
}

impl GateEntry {
    /// Placeholder for unoccupied VCs.
    const EMPTY: GateEntry = GateEntry {
        ready: 0,
        rc_port: 0xFF,
        rc_vcidx: 0,
        flits: 0,
        pattern: 0,
    };

    /// The gate of a new head: the route is computed (and cached here) by
    /// whoever consumes the wire, so it starts out empty.
    fn of(entry: &BufEntry) -> GateEntry {
        GateEntry {
            ready: entry.ready_at,
            rc_port: 0xFF,
            rc_vcidx: 0,
            flits: entry.flits,
            pattern: entry.pattern,
        }
    }
}

// One load fetches a gate, and the gate row of a common 8-index wire is one
// 64-byte line (two for a 16-index row): the allocation scans' working set.
const _: () = assert!(std::mem::size_of::<GateEntry>() == 8);

/// A lossy-link shim installed on a wire, plus the packets currently
/// crossing it. The shim tracks flits; this queue keeps the matching
/// entries in FIFO order (go-back-N delivery is strictly in-order, so the
/// head of this queue is always the next packet to complete).
#[derive(Debug)]
struct ShimState {
    shim: LinkShim,
    queue: VecDeque<(BufEntry, u8)>,
}

/// A wire's relationship to a shard boundary in the sharded kernel.
///
/// Every shard of a sharded run holds a structurally complete machine; a
/// torus wire whose two endpoints are owned by different shards exists in
/// both, with complementary roles. The producing shard's copy carries the
/// sender state (credits, serializer, lossy-link shim) and diverts sent
/// packets into an outbox instead of its local receive buffers; the
/// consuming shard's copy carries the receive buffers and diverts credit
/// returns back toward the producer. Outboxes drain at window barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryRole {
    /// Not a boundary wire: both endpoints in the same shard (or a serial
    /// run). All traffic stays local.
    #[default]
    Interior,
    /// This shard owns the sender; sent packets go to the outbox.
    Export,
    /// This shard owns the receiver; credit returns go to the outbox.
    Import,
}

/// Scheduling metadata carried alongside a buffered packet: what a hop
/// needs to forward the packet without touching the packet slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufEntry {
    /// The buffered packet.
    pub pkt: PacketId,
    /// Cycle at which the packet clears the receiver pipeline, saturated at
    /// `u32::MAX` like [`GateEntry::ready`] (set by the wire on every send;
    /// whatever the sender put here is ignored).
    pub ready_at: u32,
    /// Injection timestamp (age-based arbitration), saturated at
    /// `u32::MAX`.
    pub age: u32,
    /// Flits the packet occupies.
    pub flits: u8,
    /// Traffic-pattern tag.
    pub pattern: u8,
    /// Stamped chip-traversal route context: dense [`LocalAttach`] code of
    /// the packet's target adapter on the current chip (`0xFF` only on a
    /// torus wire, between chips). Stamped where the packet enters the mesh
    /// (injection or channel adapter), where its slab line is already hot;
    /// stable until the packet leaves the chip, whatever routes it.
    ///
    /// [`LocalAttach`]: anton_core::chip::LocalAttach
    pub target: u8,
    /// Stamped VC/arrival context read together with [`BufEntry::target`]:
    /// bits 0–2 the M-group VC, bits 3–5 the T-group VC, bit 6 set when the
    /// packet arrived on an X-dimension torus link (skip-channel
    /// eligibility), bit 7 ([`BufEntry::REPLY`]) the traffic class.
    pub meta: u8,
}

impl BufEntry {
    /// The bit of [`BufEntry::meta`] set on reply-class packets.
    pub const REPLY: u8 = 0x80;

    /// Placeholder for pool slots and scratch arrays no packet fills.
    pub const EMPTY: BufEntry = BufEntry {
        pkt: PacketId(0),
        ready_at: 0,
        age: 0,
        flits: 0,
        pattern: 0,
        target: 0xFF,
        meta: 0,
    };

    /// The packet's traffic class.
    #[inline]
    pub fn class(&self) -> TrafficClass {
        if self.meta & BufEntry::REPLY == 0 {
            TrafficClass::Request
        } else {
            TrafficClass::Reply
        }
    }
}

// Four entries to a 64-byte line, none straddling two, so a buffered entry
// (see `Wires::parked`) is one line whichever id it has. The route cache
// lives in the gate alone and the two cycles are `u32` to fit.
const _: () = assert!(std::mem::size_of::<BufEntry>() <= 20);
const _: () = assert!(64 % std::mem::size_of::<BufEntry>() == 0);
// The route a packet's slab state carries: a 7-byte spec of three runs and
// its destination, 16 bytes with the multicast variants beside it.
const _: () = assert!(std::mem::size_of::<RouteProgress>() <= 16);

/// Narrows a cycle to the `u32` the gate and entry records keep, saturating
/// at [`LAST_CYCLE`] instead of wrapping: a run never steps past that cycle,
/// so a saturated ready cycle reads as never ready and a saturated age as
/// the youngest there can be.
#[inline]
pub(crate) fn saturate_cycle(cycle: u64) -> u32 {
    cycle.min(LAST_CYCLE) as u32
}

/// What one wire is built from (see [`Wires::new`]). Everything that
/// selects a wire's delivery and credit-return paths is fixed here, before
/// any traffic flows.
#[derive(Debug)]
pub(crate) struct WireSpec {
    /// The structural link this wire realizes.
    pub(crate) label: GlobalLink,
    /// Flight latency in cycles (tail flit timing).
    pub(crate) latency: u64,
    /// Receiver pipeline delay added before a buffered packet becomes
    /// eligible for forwarding (router RC/VA/SA stages).
    pub(crate) rx_pipeline: u64,
    /// VCs per traffic class (two classes).
    pub(crate) group_vcs: u8,
    /// Buffer depth per VC in flits.
    pub(crate) depth: u8,
    /// Lossy go-back-N link model replacing the ideal channel. Boxed: a
    /// whole machine's specs are alive while the store is built, and with
    /// the shim inline they set the construction's memory peak (+12 % RSS
    /// on an idle 8×8×8 machine).
    pub(crate) shim: Option<Box<LinkShim>>,
    /// Shard-boundary role.
    pub(crate) role: BoundaryRole,
}

impl WireSpec {
    /// An ideal interior wire.
    pub(crate) fn ideal(
        label: GlobalLink,
        latency: u64,
        rx_pipeline: u64,
        group_vcs: u8,
        depth: u8,
    ) -> WireSpec {
        WireSpec {
            label,
            latency,
            rx_pipeline,
            group_vcs,
            depth,
            shim: None,
            role: BoundaryRole::Interior,
        }
    }
}

/// The end of a wire a wake concerns: [`Wires::step`] hands back
/// `(wire, end, cycle)` and the simulator wakes whichever component sits
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum End {
    /// The sender: credits returned.
    Producer,
    /// The receiver: a packet clears the receive pipeline.
    Consumer,
}

/// Packed hot facts of one wire: what `send` and `pop` need without loading
/// the cold record.
#[derive(Debug, Clone, Copy)]
struct WireInfo {
    /// Flight latency in cycles.
    lat: u16,
    /// Index of the wire's credit wheel in [`Wires::credit_wheels`]: the
    /// wheel of its latency.
    wheel: u8,
    /// Receiver pipeline delay in cycles.
    rxp: u8,
    /// VCs per traffic class.
    gvcs: u8,
    /// Buffer depth per VC in flits.
    depth: u8,
    /// `DENSE` / `TORUS` flag bits.
    flags: u8,
}

// One load per send and per pop, eight wires to a 64-byte line.
const _: () = assert!(std::mem::size_of::<WireInfo>() == 8);

/// The wire is ideal (no shim) and interior, and owns no cold record: sends
/// file straight into the receive buffers and pops file their credit
/// straight into its credit wheel. A shimmed wire delivers when its link
/// layer completes, an export wire into its outbox, and an import wire's credits
/// cross back through its outbox.
const DENSE: u8 = 1;
/// The wire realizes an external torus channel.
const TORUS: u8 = 2;

/// Link of a packet that is buffered nowhere (see [`Wires::next`]).
const NOT_PARKED: u32 = u32::MAX;
/// Link of the last packet of a VC's queue. Packet ids are slab indices, far
/// below either marker.
const LAST: u32 = u32::MAX - 1;

/// Cold-record index of a dense wire (see [`Wires::cold_of`]).
const NO_COLD: u32 = u32::MAX;

/// The record of a wire off the dense path: one with a lossy-link shim or a
/// shard-boundary role.
#[derive(Debug)]
struct WireCold {
    /// Lossy-link shim; `None` (the ideal fixed-latency channel) unless a
    /// fault schedule installed one.
    shim: Option<ShimState>,
    role: BoundaryRole,
    /// Packets awaiting transfer to the consuming shard (`Export` role
    /// only): `(entry, vc_index)` in send order, each entry stamped with
    /// the cycle it clears the far receive pipeline.
    outbox: Vec<(BufEntry, u8)>,
    /// Credit returns awaiting transfer to the producing shard (`Import`
    /// role only): `(arrival_cycle, vc_index, flits)`, in pop order.
    outbox_credits: Vec<(u64, u8, u8)>,
}

/// Every wire of one simulator instance (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Wires {
    /// Sender-side credit counters per wire and VC, laid out like the gate
    /// rows.
    credits: Vec<u8>,
    /// Bitmask of VCs with a packet buffered, per wire.
    occupied: Vec<u16>,
    /// Bitmask of VCs whose producer was denied a send for want of credits
    /// ([`Wires::credit_gate`]) since their last credit return, per wire:
    /// the returns that wake the producer.
    starved: Vec<u16>,
    /// Head gating record per wire and VC, valid where the occupied bit is
    /// set: everything the allocation scan's gates consult, 8 bytes per
    /// head, so the scan's working set stays L2-resident. Flat,
    /// `1 << row_shift` slots per wire.
    gate: Vec<GateEntry>,
    /// First and last packet buffered on each VC (same layout), meaningful
    /// where the occupied bit is set: `qhead` is the head. The queue itself
    /// is threaded through `next`, so a VC's receive buffer has no storage
    /// of its own.
    qhead: Vec<u32>,
    qtail: Vec<u32>,
    /// Every buffered entry, keyed by packet id. A packet is buffered in at
    /// most one place at a time, so its id names its slot and the pool
    /// needs no allocator: it grows to the highest id ever buffered (the
    /// packet slab's high-water mark at most) and slots are reused as the
    /// slab reuses ids.
    parked: Vec<BufEntry>,
    /// Queue link per packet id: [`NOT_PARKED`] whenever the packet is
    /// buffered nowhere, [`LAST`] at a queue's tail, else the id queued
    /// behind it. Dense (4 bytes a packet), so linking a new tail writes a
    /// line that is usually cached where a node pool would write a second
    /// random one.
    next: Vec<u32>,
    /// log2 row stride of the per-VC rows: the machine's widest wire
    /// rounded up to a power of two. Sizing rows to the machine instead of
    /// [`MAX_WIRE_VCS`] halves the scan's footprint on the common 8-index
    /// configurations.
    row_shift: u32,
    info: Vec<WireInfo>,
    /// Total flits ever sent on each wire.
    flits: Vec<u64>,
    /// The structural link each wire realizes.
    labels: Vec<GlobalLink>,
    /// Index of each wire's record in `cold`, [`NO_COLD`] exactly where the
    /// wire is `DENSE`.
    cold_of: Vec<u32>,
    /// The records of the wires off the dense path.
    cold: Vec<WireCold>,
    /// Wake calendar of the shimmed wires: a wire is ticked only on cycles
    /// its link layer's next frame, ack, token refill or timeout was
    /// scheduled for. Events past the wheel's horizon chain forward through
    /// clamped re-schedules.
    wheel: Scheduler,
    /// Credit returns, one wheel per distinct wire latency `lat` (in order
    /// of first appearance), each of `(lat + 1).next_power_of_two()` slots:
    /// slot `c & (len - 1)` holds the `(wire, vc index, flits)` returns of
    /// that latency maturing at cycle `c`. A return is filed at most `lat`
    /// cycles ahead (a pop before the cycle's wires phase), so no two
    /// pending cycles share a slot. A cycle's returns apply in one dense
    /// drain, so no wire needs a tick for its credits, and a slot only ever
    /// grows to one cycle's returns of its own latency.
    credit_wheels: Vec<Vec<Vec<(u32, u8, u8)>>>,
    /// Reused wake-list buffer (the wheel's drained snapshot).
    scratch: Vec<u32>,
    /// Wires ticked so far.
    wakes: u64,
    /// Link-layer events (retransmissions, frame drops) moved out of the
    /// shims after every call that can log one, as `(wire, cycle, event)`;
    /// `None` unless a flight recorder drains them.
    link_events: Option<Vec<(u32, u64, ShimEvent)>>,
}

impl Wires {
    /// Builds the wire store. `log_link_events` makes the shims log
    /// retransmissions and frame drops for [`Wires::drain_link_events`].
    ///
    /// # Panics
    ///
    /// Panics on a wire without latency, VCs, or room for a max-size
    /// packet, one too wide for the packed formats, or one whose worst-case
    /// arrival lies past the wake wheel's horizon.
    pub(crate) fn new(specs: Vec<WireSpec>, log_link_events: bool) -> Wires {
        let n = specs.len();
        let row_shift = specs
            .iter()
            .map(|s| 2 * s.group_vcs as usize)
            .max()
            .map_or(1, usize::next_power_of_two)
            .trailing_zeros();
        let mut credits = vec![0; n << row_shift];
        let mut info = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut cold_of = Vec::with_capacity(n);
        let mut cold = Vec::new();
        let mut credit_wheels: Vec<Vec<Vec<(u32, u8, u8)>>> = Vec::new();
        let mut wheel_of_latency = [u8::MAX; HORIZON as usize];
        for (w, s) in specs.into_iter().enumerate() {
            assert!(s.latency >= 1, "wires need at least one cycle of latency");
            assert!(
                s.group_vcs >= 1 && s.depth >= 2,
                "need VCs and room for a max-size packet"
            );
            let nvcs = 2 * s.group_vcs as usize;
            assert!(nvcs <= MAX_WIRE_VCS, "too many VCs for the VC masks");
            credits[w << row_shift..][..nvcs].fill(s.depth);
            let worst = s.latency + MAX_PACKET_FLITS - 1 + s.rx_pipeline;
            assert!(
                worst < HORIZON,
                "{}: a packet sent now may clear the receive pipeline {worst} cycles \
                 on, past the {HORIZON}-cycle wake horizon",
                s.label
            );
            let dense = s.role == BoundaryRole::Interior && s.shim.is_none();
            let torus = matches!(s.label, GlobalLink::Torus { .. });
            // Below the horizon, by the check above.
            let wheel = &mut wheel_of_latency[s.latency as usize];
            if *wheel == u8::MAX {
                *wheel = credit_wheels.len() as u8;
                let slots = (s.latency + 1).next_power_of_two() as usize;
                credit_wheels.push(vec![Vec::new(); slots]);
            }
            info.push(WireInfo {
                lat: s.latency as u16,
                wheel: *wheel,
                rxp: u8::try_from(s.rx_pipeline).expect("rx pipeline overflows the info word"),
                gvcs: s.group_vcs,
                depth: s.depth,
                flags: u8::from(dense) * DENSE + u8::from(torus) * TORUS,
            });
            labels.push(s.label);
            if dense {
                cold_of.push(NO_COLD);
                continue;
            }
            cold_of.push(cold.len() as u32);
            cold.push(WireCold {
                shim: s.shim.map(|shim| {
                    let mut shim = *shim;
                    shim.set_event_recording(log_link_events);
                    ShimState {
                        shim,
                        queue: VecDeque::new(),
                    }
                }),
                role: s.role,
                outbox: Vec::new(),
                outbox_credits: Vec::new(),
            });
        }
        Wires {
            credits,
            occupied: vec![0; n],
            starved: vec![0; n],
            gate: vec![GateEntry::EMPTY; n << row_shift],
            qhead: vec![0; n << row_shift],
            qtail: vec![0; n << row_shift],
            parked: Vec::new(),
            next: Vec::new(),
            row_shift,
            info,
            flits: vec![0; n],
            labels,
            cold_of,
            cold,
            wheel: Scheduler::new(n),
            credit_wheels,
            scratch: Vec::with_capacity(n),
            wakes: 0,
            link_events: log_link_events.then(Vec::new),
        }
    }

    // ----- the allocation scans' view --------------------------------------

    /// Number of wires.
    pub(crate) fn len(&self) -> usize {
        self.info.len()
    }

    /// log2 of the per-wire VC row stride (for tables laid out like the
    /// gate rows).
    pub(crate) fn row_shift(&self) -> u32 {
        self.row_shift
    }

    /// Index of VC `vcidx`'s slot in the per-VC rows.
    #[inline]
    fn slot(&self, w: usize, vcidx: u8) -> usize {
        (w << self.row_shift) + vcidx as usize
    }

    /// Whether `flits` credits are available on a wire's VC: the one credit
    /// gate every sender passes before a send. A denial marks the VC
    /// starved, so the credit return that ends it wakes the producer (see
    /// [`Wires::step`]); a return to a VC nobody was denied on wakes nobody.
    #[inline]
    pub(crate) fn credit_gate(&mut self, w: usize, vcidx: u8, flits: u8) -> bool {
        let room = self.credits[self.slot(w, vcidx)] >= flits;
        if !room {
            self.starved[w] |= 1 << vcidx;
        }
        room
    }

    /// Whether `flits` credits are available on a wire's VC, marking
    /// nothing: for tests that watch a wire without being its producer.
    #[cfg(test)]
    pub(crate) fn can_send(&self, w: usize, vcidx: u8, flits: u8) -> bool {
        self.credits[self.slot(w, vcidx)] >= flits
    }

    /// Flattened VC index of `(class, vc)` on a wire.
    #[inline]
    pub(crate) fn vc_index(&self, w: usize, class: TrafficClass, vc: Vc) -> u8 {
        let gvcs = self.info[w].gvcs;
        debug_assert!(vc.0 < gvcs, "vc {vc} out of range");
        class.index() as u8 * gvcs + vc.0
    }

    /// Total VC count (both classes) of a wire.
    #[inline]
    pub(crate) fn num_vcs(&self, w: usize) -> u8 {
        2 * self.info[w].gvcs
    }

    /// The VC within its class that flattened index `vcidx` names.
    pub(crate) fn vc_of(&self, w: usize, vcidx: u8) -> Vc {
        Vc(vcidx % self.info[w].gvcs)
    }

    /// Whether the wire realizes an external torus channel.
    #[inline]
    pub(crate) fn is_torus(&self, w: usize) -> bool {
        self.info[w].flags & TORUS != 0
    }

    /// Bitmask of the wire's VCs holding a head (ready or not).
    #[inline]
    pub(crate) fn occupied(&self, w: usize) -> u16 {
        self.occupied[w]
    }

    /// The gate record of a VC head (meaningful where the occupied bit is
    /// set).
    #[inline]
    pub(crate) fn gate(&self, w: usize, vcidx: u8) -> GateEntry {
        self.gate[self.slot(w, vcidx)]
    }

    /// Caches a head's route computation in its gate record, so a blocked
    /// head re-gates without recomputing it. Cleared when the entry is sent
    /// on.
    #[inline]
    pub(crate) fn cache_route(&mut self, w: usize, vcidx: u8, port: u8, out_vcidx: u8) {
        let i = self.slot(w, vcidx);
        let g = &mut self.gate[i];
        g.rc_port = port;
        g.rc_vcidx = out_vcidx;
    }

    /// The head entry of a VC (meaningful where the occupied bit is set).
    #[inline]
    pub(crate) fn head(&self, w: usize, vcidx: u8) -> &BufEntry {
        &self.parked[self.qhead[self.slot(w, vcidx)] as usize]
    }

    /// The packet at the head of a VC (meaningful where the occupied bit is
    /// set), read off the queue-end row without loading its entry.
    #[inline]
    pub(crate) fn head_id(&self, w: usize, vcidx: u8) -> PacketId {
        PacketId(self.qhead[self.slot(w, vcidx)])
    }

    /// The head entry of a VC, if one is buffered and ready at `now`. The
    /// test reads only the occupancy mask and the gate; the full entry is
    /// touched on a hit.
    #[inline]
    pub(crate) fn ready_head(&self, now: u64, w: usize, vcidx: u8) -> Option<&BufEntry> {
        (self.occupied[w] & (1 << vcidx) != 0 && u64::from(self.gate(w, vcidx).ready) <= now)
            .then(|| self.head(w, vcidx))
    }

    // ----- send / pop / step -----------------------------------------------

    /// Files an entry into a wire's receive buffers, at the tail of the
    /// VC's queue, and when the VC was empty as its head, gated by the
    /// entry's `ready_at` alone.
    ///
    /// # Panics
    ///
    /// Panics if the packet is already buffered: a packet is buffered in one
    /// place at a time, which is what lets its id key the pool.
    #[inline]
    fn file(&mut self, w: usize, entry: BufEntry, vcidx: u8) {
        let id = entry.pkt.0;
        if id as usize >= self.next.len() {
            self.grow_pool(id);
        }
        assert!(
            self.next[id as usize] == NOT_PARKED,
            "packet {id} parked twice, the second time on {}",
            self.labels[w]
        );
        self.parked[id as usize] = entry;
        self.next[id as usize] = LAST;
        let i = self.slot(w, vcidx);
        let bit = 1u16 << vcidx;
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.qhead[i] = id;
            self.gate[i] = GateEntry::of(&entry);
        } else {
            self.next[self.qtail[i] as usize] = id;
        }
        self.qtail[i] = id;
    }

    /// Extends the pool to cover packet `id`, the highest yet buffered.
    /// Exact in length (never past the packet slab's high-water mark),
    /// amortized by the vectors' own capacity doubling.
    #[cold]
    fn grow_pool(&mut self, id: u32) {
        assert!(id < LAST, "packet id collides with the link markers");
        self.parked.resize(id as usize + 1, BufEntry::EMPTY);
        self.next.resize(id as usize + 1, NOT_PARKED);
    }

    /// Returns credits to a wire's sender.
    #[inline]
    fn credit(&mut self, w: usize, vcidx: u8, flits: u8) {
        let i = self.slot(w, vcidx);
        let c = &mut self.credits[i];
        *c += flits;
        debug_assert!(*c <= self.info[w].depth, "credit overflow");
    }

    /// Pushes a packet onto a wire at cycle `now` (after this cycle's
    /// [`step`](Wires::step)), spending the sender's credits.
    ///
    /// Returns the cycle the consumer must be woken at when the entry was
    /// filed straight into the receive buffers (the dense path). `None`
    /// means the wire delivers it later — through its lossy-link shim or a
    /// shard-boundary outbox — and a later [`step`](Wires::step) (or window
    /// barrier) reports the arrival.
    ///
    /// # Panics
    ///
    /// Panics without sufficient credits; check [`Wires::credit_gate`] first.
    #[inline]
    pub(crate) fn send(&mut self, now: u64, w: usize, entry: BufEntry, vcidx: u8) -> Option<u64> {
        let ready = self.transmit(now, w, entry, vcidx);
        if ready.is_none() {
            self.schedule(w, now + 1, now);
        }
        ready
    }

    /// [`Wires::send`] without the wire-wheel bookkeeping (the link drain
    /// re-sends before this cycle's step, and schedules once at its end).
    #[inline]
    fn transmit(&mut self, now: u64, w: usize, mut entry: BufEntry, vcidx: u8) -> Option<u64> {
        let flits = entry.flits;
        let i = self.slot(w, vcidx);
        let credits = &mut self.credits[i];
        assert!(
            *credits >= flits,
            "send without credits on {}",
            self.labels[w]
        );
        *credits -= flits;
        self.flits[w] += u64::from(flits);
        let info = self.info[w];
        let tail_arrival = now + u64::from(info.lat) + u64::from(flits) - 1;
        let ready = tail_arrival + u64::from(info.rxp);
        entry.ready_at = saturate_cycle(ready);
        if info.flags & DENSE != 0 {
            debug_assert!(u64::from(flits) <= MAX_PACKET_FLITS);
            self.file(w, entry, vcidx);
            return Some(ready);
        }
        self.transmit_later(now, w, entry, vcidx);
        None
    }

    /// The cold record of a wire, if it owns one (is off the dense path).
    fn record(&self, w: usize) -> Option<&WireCold> {
        self.cold.get(self.cold_of[w] as usize)
    }

    /// The cold record of a wire off the dense path.
    fn cold_mut(&mut self, w: usize) -> &mut WireCold {
        &mut self.cold[self.cold_of[w] as usize]
    }

    /// The lossy-link shim of a wire, if one is installed.
    fn shim(&self, w: usize) -> Option<&ShimState> {
        self.record(w)?.shim.as_ref()
    }

    /// A wire's shard-boundary role.
    fn role(&self, w: usize) -> BoundaryRole {
        self.record(w).map_or(BoundaryRole::Interior, |c| c.role)
    }

    /// The delivery paths off the dense one, selected by what the wire is:
    /// shimmed, or an export boundary.
    fn transmit_later(&mut self, now: u64, w: usize, entry: BufEntry, vcidx: u8) {
        let cold = self.cold_mut(w);
        if let Some(s) = &mut cold.shim {
            // Lossy path: the packet's flits cross the go-back-N link; the
            // entry waits in the shim queue until the link layer delivers
            // its last flit, which sets its real `ready_at`. The shim
            // transmits at once and may log an event stamped `now`.
            s.queue.push_back((entry, vcidx));
            s.shim.enqueue(now, entry.flits);
            self.collect_link_events(w);
        } else {
            // The receiver lives in another shard: the entry ships at the
            // next window barrier instead of entering local buffers.
            debug_assert_eq!(cold.role, BoundaryRole::Export);
            cold.outbox.push((entry, vcidx));
        }
    }

    /// Pops the head packet of a VC buffer at cycle `now`, making the next
    /// queued entry (if any) the head, and puts the credit return in
    /// flight: into its credit wheel, or into the boundary outbox when
    /// the sender's credit pool lives in the producing shard. The popped
    /// packet's link reads "not parked" again, for the id's next use.
    ///
    /// # Panics
    ///
    /// Panics if the VC's occupied bit is clear.
    #[inline]
    pub(crate) fn pop(&mut self, now: u64, w: usize, vcidx: u8) -> BufEntry {
        let bit = 1u16 << vcidx;
        assert!(self.occupied[w] & bit != 0, "pop from empty VC buffer");
        let i = self.slot(w, vcidx);
        let id = self.qhead[i] as usize;
        let entry = self.parked[id];
        match std::mem::replace(&mut self.next[id], NOT_PARKED) {
            LAST => self.occupied[w] &= !bit,
            next => {
                self.qhead[i] = next;
                self.gate[i] = GateEntry::of(&self.parked[next as usize]);
            }
        }
        let info = self.info[w];
        // Latency is at least one cycle, so the return never matures in
        // the cycle whose wires phase has already run; its wheel is longer
        // than the latency, so the slot is one no pending cycle holds.
        let at = now + u64::from(info.lat);
        if info.flags & DENSE != 0 {
            self.file_credit(w, at, vcidx, entry.flits);
        } else {
            self.pop_off_dense(w, at, vcidx, entry.flits);
        }
        entry
    }

    /// The rest of a pop off the dense path: the credit return crosses back
    /// to the producing shard, or (a shimmed wire) enters its credit wheel.
    fn pop_off_dense(&mut self, w: usize, at: u64, vcidx: u8, flits: u8) {
        let cold = self.cold_mut(w);
        if cold.role == BoundaryRole::Import {
            cold.outbox_credits.push((at, vcidx, flits));
        } else {
            self.file_credit(w, at, vcidx, flits);
        }
    }

    /// Files a credit return of wire `w` maturing at cycle `at` into the
    /// slot of `at` on the wire's credit wheel.
    #[inline]
    fn file_credit(&mut self, w: usize, at: u64, vcidx: u8, flits: u8) {
        let slots = &mut self.credit_wheels[usize::from(self.info[w].wheel)];
        let mask = slots.len() - 1;
        slots[at as usize & mask].push((w as u32, vcidx, flits));
    }

    /// The wires phase of cycle `now`: applies the slot of `now` on every
    /// credit wheel, then ticks the shimmed wires the wire wheel holds for
    /// this cycle. `wake` receives `(wire, end, cycle)` for every component
    /// wake the phase raises — producers at `now` for credits returned to a
    /// VC marked starved (the mark is cleared; with `every_return`, for
    /// every return), consumers at the cycle a link-layer delivery clears
    /// the receive pipeline (`now` or later). Returns whether the phase did
    /// anything.
    ///
    /// A producer that was never denied has nothing a return could unblock:
    /// it is woken by its own arrivals and busy windows. Stall attribution
    /// asks for `every_return`, because it samples each head's cause on
    /// every wake and its per-cause cycles depend on when those are.
    ///
    /// Order between the credit drain and the ticks is immaterial —
    /// credits touch sender-side pools, arrivals touch receive buffers, and
    /// wakes are idempotent. So is the order of the credit wheels, drained
    /// one after the other: returns commute (each adds credits to its own
    /// VC, clears that VC's starved bit and sets a wake bit, which is
    /// idempotent), so no simulated value depends on it.
    // Inlined so the caller's `wake` closure folds into the credit drain
    // (one call per credit return otherwise).
    #[inline]
    pub(crate) fn step(
        &mut self,
        now: u64,
        every_return: bool,
        mut wake: impl FnMut(usize, End, u64),
    ) -> bool {
        let mut worked = false;
        for k in 0..self.credit_wheels.len() {
            let slots = &mut self.credit_wheels[k];
            let slot = now as usize & (slots.len() - 1);
            if slots[slot].is_empty() {
                continue;
            }
            let mut returns = std::mem::take(&mut slots[slot]);
            worked = true;
            for &(wu, vcidx, flits) in &returns {
                let w = wu as usize;
                self.credit(w, vcidx, flits);
                let bit = 1u16 << vcidx;
                if every_return || self.starved[w] & bit != 0 {
                    self.starved[w] &= !bit;
                    wake(w, End::Producer, now);
                }
            }
            returns.clear();
            self.credit_wheels[k][slot] = returns;
        }
        let mut due = std::mem::take(&mut self.scratch);
        due.clear();
        self.wheel.begin_cycle(now);
        self.wheel.snapshot_into(&mut due);
        for &wu in &due {
            self.tick(now, wu as usize, &mut wake);
        }
        self.wheel.end_cycle();
        self.wakes += due.len() as u64;
        worked |= !due.is_empty();
        self.scratch = due;
        worked
    }

    /// Advances a shimmed wire to `now`: the link layer lands and sends its
    /// frames, and the packets whose last flit it delivered enter the
    /// receive buffers (or the export outbox). A tick before the wire's next
    /// event, or of a wire without a shim (every wire's bootstrap look), is
    /// harmless and changes nothing.
    fn tick(&mut self, now: u64, w: usize, wake: &mut impl FnMut(usize, End, u64)) {
        let c = self.cold_of[w] as usize;
        let Some(s) = self.cold.get_mut(c).and_then(|cold| cold.shim.as_mut()) else {
            return;
        };
        let completed = s.shim.advance(now);
        let ready = now + u64::from(self.info[w].rxp);
        for _ in 0..completed {
            let cold = &mut self.cold[c];
            let (mut entry, vcidx) = cold
                .shim
                .as_mut()
                .and_then(|s| s.queue.pop_front())
                .expect("shim completed a packet the wire never queued");
            entry.ready_at = saturate_cycle(ready);
            if cold.role == BoundaryRole::Export {
                // Link-layer delivery completed toward a foreign shard: the
                // entry, stamped ready, ships at the barrier.
                cold.outbox.push((entry, vcidx));
            } else {
                self.file(w, entry, vcidx);
            }
        }
        self.collect_link_events(w);
        if completed > 0 && self.cold[c].role != BoundaryRole::Export {
            wake(w, End::Consumer, ready);
        }
        self.schedule(w, now + 1, now);
    }

    /// The earliest cycle at which ticking a wire can do anything: its
    /// lossy-link shim's next event (`LinkShim::next_event`: a frame or ack
    /// landing, or the next cycle a frame can go out). `u64::MAX` without a
    /// shim, or when the link has nothing left to do until the next send.
    fn next_event(&self, w: usize) -> u64 {
        self.shim(w).map_or(u64::MAX, |s| s.shim.next_event())
    }

    /// (Re)schedules a wire on the wheel for its next pending event. Events
    /// past the wheel's horizon are clamped to its edge and chain forward
    /// through spurious wakes (each tick re-schedules), which is how a
    /// 192-slot go-back-N timeout is reached. `min_at` is the earliest cycle
    /// the wire may still be ticked: `now` before this cycle's
    /// [`step`](Wires::step) (a link drain), `now + 1` once it has run.
    fn schedule(&mut self, w: usize, min_at: u64, now: u64) {
        let next = self.next_event(w);
        if next != u64::MAX {
            let at = next.clamp(min_at, now + (HORIZON - 1));
            self.wheel.schedule(w, at, now);
        }
    }

    /// Wires ticked and wheel words visited so far (see
    /// [`KernelWork`](crate::sim::KernelWork)).
    pub(crate) fn work(&self) -> (u64, u64) {
        (self.wakes, self.wheel.words_visited())
    }

    // ----- shard boundaries ------------------------------------------------

    /// Drains an export wire's outbox (`(entry, vc_index)` in send order).
    /// Called at window barriers by the sharded kernel.
    pub(crate) fn take_exports(&mut self, w: usize, out: &mut Vec<(BufEntry, u8)>) {
        out.append(&mut self.cold_mut(w).outbox);
    }

    /// Drains an import wire's credit-return outbox (`(arrival_cycle,
    /// vc_index, flits)` in pop order). Called at window barriers.
    pub(crate) fn take_credit_exports(&mut self, w: usize, out: &mut Vec<(u64, u8, u8)>) {
        out.append(&mut self.cold_mut(w).outbox_credits);
    }

    /// Files a packet arriving from the producing shard's copy of an
    /// import wire, at a window barrier before cycle `now` steps, and
    /// returns the cycle the consumer must be woken at.
    ///
    /// The producer's copy stamped the entry with the cycle it clears this
    /// receive pipeline, and that cycle lies at or past `now`: an ideal
    /// wire's flight outlasts the window, and a lossy-link completion ships
    /// under a one-cycle window. Filed like a dense send, the entry is
    /// invisible to the consumer until then, exactly as in a serial run.
    pub(crate) fn import_packet(&mut self, now: u64, w: usize, entry: BufEntry, vcidx: u8) -> u64 {
        debug_assert_eq!(self.role(w), BoundaryRole::Import);
        let ready = u64::from(entry.ready_at);
        debug_assert!(ready >= now, "import observable early");
        self.file(w, entry, vcidx);
        ready
    }

    /// Files a credit return arriving from the consuming shard's copy of
    /// an export wire, at a window barrier before cycle `now` steps, into
    /// its credit wheel's slot of its arrival cycle `at`. The return was
    /// popped in the window just closed, one link latency — no shorter than
    /// the window — before `at`, so `at` lies in `now..now + lat`, inside
    /// the wheel.
    pub(crate) fn import_credit(&mut self, now: u64, w: usize, at: u64, vcidx: u8, flits: u8) {
        debug_assert_eq!(self.role(w), BoundaryRole::Export);
        debug_assert!(
            (now..now + u64::from(self.info[w].lat)).contains(&at),
            "credit import at {at} outside the credit wheel from {now}"
        );
        self.file_credit(w, at, vcidx, flits);
    }

    // ----- faults ----------------------------------------------------------

    /// A link just went down, before cycle `now` steps: tears down the
    /// shim's go-back-N session (see `LinkShim::drain_reset`), restores the
    /// sender-side credits its undelivered flits held, re-sends into the
    /// fresh session every entry `stays` keeps on the link (it re-delivers
    /// them once the outage clears), and hands back the rest, in their
    /// original send order, for the caller to re-route. Empty without a
    /// shim, or when the shim is idle.
    pub(crate) fn drain_link(
        &mut self,
        now: u64,
        w: usize,
        mut stays: impl FnMut(&BufEntry) -> bool,
    ) -> Vec<BufEntry> {
        let c = self.cold_of[w] as usize;
        let Some(s) = self.cold.get_mut(c).and_then(|cold| cold.shim.as_mut()) else {
            return Vec::new();
        };
        let pending = s.shim.drain_reset(now);
        debug_assert_eq!(
            pending,
            s.queue.len(),
            "shim pending packets out of sync with the wire's entry queue"
        );
        let drained: Vec<(BufEntry, u8)> = s.queue.drain(..).collect();
        let mut stranded = Vec::new();
        for (entry, vcidx) in drained {
            self.credit(w, vcidx, entry.flits);
            if stays(&entry) {
                let filed = self.transmit(now, w, entry, vcidx);
                debug_assert!(filed.is_none(), "shimmed wires never direct-file");
            } else {
                stranded.push(entry);
            }
        }
        self.collect_link_events(w);
        self.schedule(w, now, now);
        stranded
    }

    /// Flits held inside a wire's lossy-link shim (0 without a shim).
    pub(crate) fn link_backlog(&self, w: usize) -> u64 {
        self.shim(w).map_or(0, |s| s.shim.backlog_flits())
    }

    /// A wire's lossy-link counters, if a shim is installed.
    pub(crate) fn link_stats(&self, w: usize) -> Option<ShimStats> {
        self.shim(w).map(|s| s.shim.stats())
    }

    /// Moves a shim's logged events into the layer's log, after every call
    /// that can log one, so the log's order never depends on when ticks
    /// happen. Allocation-free when logging is off or nothing was logged.
    fn collect_link_events(&mut self, w: usize) {
        let cold = self.cold.get_mut(self.cold_of[w] as usize);
        if let (Some(log), Some(s)) = (&mut self.link_events, cold.and_then(|c| c.shim.as_mut())) {
            log.extend(
                s.shim
                    .take_events()
                    .into_iter()
                    .map(|(cycle, ev)| (w as u32, cycle, ev)),
            );
        }
    }

    /// Drains the link-layer event log as `(wire, cycle, event)` (empty
    /// unless built with `log_link_events`).
    pub(crate) fn drain_link_events(&mut self) -> impl Iterator<Item = (u32, u64, ShimEvent)> + '_ {
        self.link_events.iter_mut().flat_map(|log| log.drain(..))
    }

    // ----- audit and reporting ---------------------------------------------

    /// The structural link a wire realizes.
    pub(crate) fn label(&self, w: usize) -> GlobalLink {
        self.labels[w]
    }

    /// Buffer depth per VC in flits.
    pub(crate) fn depth(&self, w: usize) -> u8 {
        self.info[w].depth
    }

    /// Sender-side credit count of one wire VC.
    pub(crate) fn credits(&self, w: usize, vc: usize) -> u8 {
        self.credits[(w << self.row_shift) + vc]
    }

    /// Total flits ever sent on a wire.
    pub(crate) fn flits_carried(&self, w: usize) -> u64 {
        self.flits[w]
    }

    /// VC buffers currently holding a head, over all wires.
    pub(crate) fn occupied_vcs(&self) -> u64 {
        self.occupied
            .iter()
            .map(|m| u64::from(m.count_ones()))
            .sum()
    }

    /// Whether no packet sits inside a link layer, buffered, or parked in
    /// an export outbox on any wire.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.occupied.iter().all(|&m| m == 0)
            && self
                .cold
                .iter()
                .all(|c| c.shim.as_ref().is_none_or(|s| s.queue.is_empty()) && c.outbox.is_empty())
    }

    /// Credit-return flits parked in the credit wheels per wire VC, laid
    /// out like the gate rows — one pass over the wheels for a whole audit.
    pub(crate) fn parked_credits(&self) -> Vec<u8> {
        let mut parked = vec![0u8; self.gate.len()];
        for &(w, vcidx, flits) in self.credit_wheels.iter().flatten().flatten() {
            let p = &mut parked[self.slot(w as usize, vcidx)];
            *p = p.saturating_add(flits);
        }
        parked
    }

    /// Packets and flits buffered on VC `vc`, where its occupied bit is
    /// set, walking its queue from the head. Every buffered packet holds at
    /// least one flit of the VC's buffer, so a sound queue is at most
    /// `depth` long: a walk that gets further, leaves the pool, or ends
    /// anywhere but at `qtail`, is reported instead of followed.
    fn walk_queue(&self, w: usize, vc: usize) -> Result<(usize, u32), String> {
        let broken = |what: &str| Err(format!("queue of {} vc {vc} {what}", self.labels[w]));
        let i = (w << self.row_shift) + vc;
        let mut id = self.qhead[i];
        let mut flits = 0;
        for len in 1..=usize::from(self.info[w].depth) {
            let Some(&next) = self.next.get(id as usize) else {
                return broken("leaves the pool");
            };
            flits += u32::from(self.parked[id as usize].flits);
            match next {
                LAST if id == self.qtail[i] => return Ok((len, flits)),
                LAST => return broken("ends before its tail"),
                NOT_PARKED => return broken("runs into a packet that is not parked"),
                next => id = next,
            }
        }
        broken("is longer than the buffer is deep: its links cycle")
    }

    /// Flits this wire copy is accountable for on VC `vc`, excluding the
    /// sender's credit pool: inside the shim, buffered at the receiver,
    /// returning as credits (`parked` is
    /// [`Wires::parked_credits`]), or waiting in a boundary outbox.
    ///
    /// For an interior wire, `credits + accounted_flits` equals the buffer
    /// depth. For a boundary wire the depth is accounted jointly by the
    /// producing copy's credits plus both copies' accounted flits. Returns
    /// a diagnostic if the VC's queue is malformed.
    pub(crate) fn accounted_flits(
        &self,
        w: usize,
        vc: usize,
        parked: &[u8],
    ) -> Result<u32, String> {
        let on_vc = |vcidx: u8, flits: u8| {
            if usize::from(vcidx) == vc {
                u32::from(flits)
            } else {
                0
            }
        };
        let mut total = u32::from(parked[(w << self.row_shift) + vc]);
        if let Some(cold) = self.record(w) {
            total += cold
                .outbox_credits
                .iter()
                .map(|&(_, vcidx, flits)| on_vc(vcidx, flits))
                .sum::<u32>();
            let shim_queue = cold.shim.iter().flat_map(|s| &s.queue);
            total += shim_queue
                .chain(&cold.outbox)
                .map(|&(entry, vcidx)| on_vc(vcidx, entry.flits))
                .sum::<u32>();
        }
        if self.occupied[w] & (1 << vc) != 0 {
            total += self.walk_queue(w, vc)?.1;
        }
        Ok(total)
    }

    /// Verifies per-VC credit conservation on every interior wire: the
    /// sender's credits plus every flit the wire is accountable for must
    /// equal the buffer depth. A boundary wire's flits split across two
    /// shard replicas; `ShardedSim::check_invariants` checks the combined
    /// balance. Returns a diagnostic on violation.
    pub(crate) fn check_credit_balance(&self) -> Result<(), String> {
        let parked = self.parked_credits();
        for w in 0..self.len() {
            if self.role(w) != BoundaryRole::Interior {
                continue;
            }
            let depth = self.info[w].depth;
            for vc in 0..usize::from(self.num_vcs(w)) {
                let total =
                    u32::from(self.credits(w, vc)) + self.accounted_flits(w, vc, &parked)?;
                if total != u32::from(depth) {
                    return Err(format!(
                        "credit imbalance on {} vc {vc}: accounted {total} flits \
                         against depth {depth}",
                        self.labels[w]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Verifies the pool of buffered entries against the queues threaded
    /// through it: every VC's queue is well formed (see
    /// [`Wires::walk_queue`]), every link that reads parked belongs to one
    /// of them, and the pool is no longer than `slab_high_water`, the
    /// number of packet ids ever in use at once. Returns a diagnostic on
    /// violation.
    pub(crate) fn check_pool(&self, slab_high_water: usize) -> Result<(), String> {
        if self.next.len() > slab_high_water {
            return Err(format!(
                "the pool covers {} packet ids, the slab only ever used {slab_high_water}",
                self.next.len()
            ));
        }
        let mut queued = 0;
        for (w, mut mask) in self.occupied.iter().copied().enumerate() {
            while mask != 0 {
                queued += self.walk_queue(w, mask.trailing_zeros() as usize)?.0;
                mask &= mask - 1;
            }
        }
        let linked = self.next.iter().filter(|&&n| n != NOT_PARKED).count();
        if linked != queued {
            return Err(format!(
                "{linked} packets read parked but the VC queues hold {queued}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::ops::RangeInclusive;

    use anton_core::chip::{LocalEndpointId, LocalLink};
    use anton_core::topology::NodeId;
    use anton_link::gobackn::GoBackNConfig;
    use proptest::prelude::*;

    use super::*;

    fn spec(latency: u64, rx_pipeline: u64, depth: u8) -> WireSpec {
        let label = GlobalLink::Local {
            node: NodeId(0),
            link: LocalLink::EpToRouter(LocalEndpointId(0)),
        };
        WireSpec::ideal(label, latency, rx_pipeline, 4, depth)
    }

    /// A store of one ideal wire (wire 0, four VCs per class).
    fn one_wire(latency: u64, rx_pipeline: u64, depth: u8) -> Wires {
        Wires::new(vec![spec(latency, rx_pipeline, depth)], false)
    }

    /// The same wire behind a lossy-link shim.
    fn lossy_wire(latency: u64, depth: u8, downs: Vec<(u64, u64)>) -> Wires {
        let gbn = GoBackNConfig {
            window: 64,
            timeout: 192,
        };
        let mut s = spec(latency, 0, depth);
        s.shim = Some(Box::new(LinkShim::new(latency, gbn, 0.0, downs, 1)));
        Wires::new(vec![s], false)
    }

    /// Runs the wires phase of every cycle in `cycles` (wire wheel and credit
    /// wheel slots only fire on their own cycle), returning the wakes raised as
    /// `(end, cycle to wake at)`: credit returns wake only starved
    /// producers, as in a run without stall attribution.
    fn step(ws: &mut Wires, cycles: RangeInclusive<u64>) -> Vec<(End, u64)> {
        let mut wakes = Vec::new();
        for now in cycles {
            ws.step(now, false, |_, end, at| wakes.push((end, at)));
        }
        wakes
    }

    fn entry(pkt: u32, flits: u8) -> BufEntry {
        BufEntry {
            pkt: PacketId(pkt),
            flits,
            ..BufEntry::EMPTY
        }
    }

    fn ready_pkt(ws: &Wires, now: u64, vcidx: u8) -> Option<PacketId> {
        ws.ready_head(now, 0, vcidx).map(|e| e.pkt)
    }

    #[test]
    fn packet_arrives_after_latency() {
        let mut ws = one_wire(3, 0, 4);
        step(&mut ws, 0..=10);
        assert_eq!(ws.send(10, 0, entry(7, 1), 0), Some(13));
        for t in 10..13 {
            step(&mut ws, t + 1..=t + 1);
            assert_eq!(ready_pkt(&ws, t, 0), None, "arrived early at {t}");
        }
        assert_eq!(ready_pkt(&ws, 13, 0), Some(PacketId(7)));
    }

    #[test]
    fn two_flit_packet_arrives_one_cycle_later() {
        let mut ws = one_wire(3, 0, 4);
        ws.send(0, 0, entry(1, 2), 0);
        assert_eq!(ready_pkt(&ws, 3, 0), None);
        assert_eq!(ready_pkt(&ws, 4, 0), Some(PacketId(1)));
    }

    #[test]
    fn credits_block_and_return() {
        let mut ws = one_wire(2, 0, 3);
        assert!(ws.credit_gate(0, 0, 2));
        ws.send(0, 0, entry(1, 2), 0);
        assert!(!ws.credit_gate(0, 0, 2), "only 1 credit left");
        assert!(ws.credit_gate(0, 0, 1));
        ws.send(0, 0, entry(2, 1), 0);
        assert!(!ws.credit_gate(0, 0, 1));
        // Drain at the receiver; credits return after the wire latency.
        step(&mut ws, 0..=3);
        assert_eq!(ws.pop(3, 0, 0).pkt, PacketId(1));
        assert_eq!(step(&mut ws, 4..=4), vec![]);
        assert!(!ws.credit_gate(0, 0, 2), "credits in flight");
        assert_eq!(step(&mut ws, 5..=5), vec![(End::Producer, 5)]);
        assert!(ws.credit_gate(0, 0, 2), "credits should have returned");
    }

    #[test]
    fn each_latency_returns_its_credits_through_its_own_wheel() {
        // Two one-cycle wires share a 2-slot wheel; a 44-cycle torus-like
        // wire has a 64-slot one.
        let mut ws = Wires::new(vec![spec(1, 0, 2), spec(44, 0, 2), spec(1, 0, 2)], false);
        let slots: Vec<usize> = ws.credit_wheels.iter().map(Vec::len).collect();
        assert_eq!(slots, vec![2, 64]);
        assert_eq!(
            (ws.info[0].wheel, ws.info[1].wheel, ws.info[2].wheel),
            (0, 1, 0)
        );
        for w in 0..3 {
            ws.send(0, w, entry(w as u32, 2), 0);
        }
        let now = 50;
        step(&mut ws, 0..=now);
        for w in 0..3 {
            assert_eq!(ws.pop(now, w, 0).pkt, PacketId(w as u32));
            assert!(!ws.credit_gate(w, 0, 1), "wire {w}'s credits are away");
        }
        let mut woken = Vec::new();
        for t in now + 1..=now + 63 {
            ws.step(t, false, |w, end, at| woken.push((w, end, at)));
            let back: Vec<u8> = (0..3).map(|w| ws.credits(w, 0)).collect();
            let torus = if t >= now + 44 { 2 } else { 0 };
            assert_eq!(back, vec![2, torus, 2], "credits at cycle {t}");
        }
        assert_eq!(
            woken,
            vec![
                (0, End::Producer, now + 1),
                (2, End::Producer, now + 1),
                (1, End::Producer, now + 44),
            ]
        );
        assert!(ws.credit_wheels.iter().flatten().all(Vec::is_empty));
        ws.check_credit_balance().unwrap();
    }

    #[test]
    fn an_imported_credit_lands_on_its_cycle_at_either_window_edge() {
        // The barrier before cycle 88 closes the window [44, 88) of a
        // 44-cycle export wire: a return popped at its first cycle matures
        // at the barrier itself, one popped at its last 43 cycles on.
        let mut export = spec(44, 0, 8);
        export.role = BoundaryRole::Export;
        let mut ws = Wires::new(vec![export], false);
        for (pkt, vcidx) in [(1, 0), (2, 1)] {
            assert_eq!(ws.send(0, 0, entry(pkt, 2), vcidx), None);
            assert!(!ws.credit_gate(0, vcidx, 7));
        }
        step(&mut ws, 0..=87);
        ws.import_credit(88, 0, 44 + 44, 0, 2);
        ws.import_credit(88, 0, 87 + 44, 1, 2);
        let mut woken = Vec::new();
        for t in 88..=160 {
            ws.step(t, false, |_, end, at| woken.push((end, at)));
        }
        assert_eq!(woken, vec![(End::Producer, 88), (End::Producer, 131)]);
        assert_eq!((ws.credits(0, 0), ws.credits(0, 1)), (8, 8));
    }

    #[test]
    fn a_credit_return_wakes_only_a_starved_producer() {
        let mut ws = one_wire(2, 0, 2);
        ws.send(0, 0, entry(1, 2), 0);
        ws.send(0, 0, entry(2, 2), 1);
        step(&mut ws, 0..=3);
        // Nobody was denied on VC 0: its return wakes nobody, and only the
        // attribution mode wakes for it.
        ws.pop(3, 0, 0);
        assert_eq!(step(&mut ws, 4..=5), vec![]);
        assert_eq!(ws.credits(0, 0), 2);
        ws.pop(5, 0, 1);
        let mut woken = Vec::new();
        for now in 6..=7 {
            ws.step(now, true, |_, end, at| woken.push((end, at)));
        }
        assert_eq!(woken, vec![(End::Producer, 7)]);
        // A denial on VC 0 arms exactly one wake: the next return to it.
        ws.send(8, 0, entry(3, 2), 0);
        assert!(!ws.credit_gate(0, 0, 1), "VC 0 is spent");
        assert!(ws.credit_gate(0, 3, 1), "VC 3 has room and stays unmarked");
        ws.send(10, 0, entry(4, 1), 3);
        step(&mut ws, 8..=11);
        ws.pop(11, 0, 0);
        assert_eq!(step(&mut ws, 12..=13), vec![(End::Producer, 13)]);
        ws.pop(13, 0, 3);
        ws.send(13, 0, entry(5, 1), 0);
        step(&mut ws, 14..=15);
        ws.pop(15, 0, 0);
        assert_eq!(
            step(&mut ws, 16..=17),
            vec![],
            "the mark went with its wake"
        );
        assert_eq!((ws.credits(0, 0), ws.credits(0, 3)), (2, 2));
    }

    #[test]
    fn vcs_are_independent() {
        let mut ws = one_wire(1, 0, 2);
        ws.send(0, 0, entry(1, 2), 0);
        assert!(!ws.can_send(0, 0, 1));
        assert!(ws.can_send(0, 3, 2), "other VC unaffected");
        ws.send(0, 0, entry(2, 1), 3);
        assert_eq!(ready_pkt(&ws, 2, 3), Some(PacketId(2)));
        assert_eq!(ws.occupied(0), 0b1001);
    }

    #[test]
    fn rx_pipeline_delays_readiness() {
        let mut ws = one_wire(1, 3, 4);
        ws.send(0, 0, entry(9, 1), 1);
        assert_eq!(
            ready_pkt(&ws, 1, 1),
            None,
            "pipeline stages not yet elapsed"
        );
        assert_eq!(ready_pkt(&ws, 4, 1), Some(PacketId(9)));
    }

    #[test]
    fn occupied_mask_tracks_buffers() {
        let mut ws = one_wire(1, 0, 4);
        assert_eq!(ws.occupied(0), 0);
        ws.send(0, 0, entry(1, 1), 2);
        assert_eq!(ws.occupied(0), 0b100);
        ws.pop(1, 0, 2);
        assert_eq!(ws.occupied(0), 0);
    }

    #[test]
    fn packets_queue_behind_the_head_in_order() {
        let mut ws = one_wire(1, 0, 8);
        for (t, pkt) in [(0, 1), (1, 2), (2, 3)] {
            ws.send(t, 0, entry(pkt, 1), 5);
        }
        assert_eq!(ws.occupied(0), 1 << 5, "one head however many queue");
        for pkt in 1..=3 {
            assert_eq!(ws.pop(3, 0, 5).pkt, PacketId(pkt), "FIFO per VC");
        }
        assert_eq!(ws.occupied(0), 0);
        ws.check_credit_balance().unwrap();
    }

    #[test]
    #[should_panic(expected = "packet 2 parked twice")]
    fn parking_a_packet_twice_panics() {
        let mut ws = one_wire(1, 0, 8);
        ws.send(0, 0, entry(1, 1), 5);
        ws.send(1, 0, entry(2, 1), 5);
        // Still queued behind packet 1 when the same id shows up again,
        // here behind a different head.
        ws.send(2, 0, entry(3, 1), 6);
        ws.send(3, 0, entry(2, 1), 6);
    }

    #[test]
    fn queue_audit_reports_broken_links_instead_of_following_them() {
        let mut ws = one_wire(1, 0, 4);
        for pkt in 0..4 {
            ws.send(u64::from(pkt), 0, entry(pkt, 1), 2);
        }
        // Packet 4 passes through VC 3: its slot stays in the pool, filed in
        // no queue.
        ws.send(4, 0, entry(4, 1), 3);
        ws.pop(5, 0, 3);
        ws.check_credit_balance().unwrap();
        ws.check_pool(5).unwrap();
        assert!(ws.check_pool(4).is_err(), "pool outgrew the slab");
        // Head 0, then 1 → 2 → 3. A link back to the front cycles; the walk
        // stops at the buffer's depth.
        ws.next[3] = 0;
        let err = ws.check_credit_balance().unwrap_err();
        assert!(err.contains("links cycle"), "{err}");
        ws.next[3] = LAST;
        // A link that reads parked, of an id no queue reaches.
        ws.next[4] = LAST;
        let err = ws.check_pool(5).unwrap_err();
        assert!(
            err.contains("5 packets read parked but the VC queues hold 4"),
            "{err}"
        );
        ws.next[4] = NOT_PARKED;
        // A queue cut short of its tail.
        ws.next[2] = LAST;
        let err = ws.check_pool(5).unwrap_err();
        assert!(err.contains("ends before its tail"), "{err}");
    }

    #[test]
    fn a_saturated_batch_leaves_the_pool_empty() {
        use crate::driver::BatchDriver;
        use crate::sim::{RunOutcome, Sim};
        use anton_core::config::MachineConfig;
        use anton_core::topology::TorusShape;
        use anton_traffic::patterns::UniformRandom;

        let cfg = MachineConfig::new(TorusShape::cube(2));
        let mut sim = Sim::builder().config(cfg).build();
        let mut drv = BatchDriver::builder(&sim)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(32)
            .seed(1)
            .build();
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        sim.check_invariants().unwrap();
        let ws = sim.wires();
        assert!(ws.occupied.iter().all(|&m| m == 0));
        assert!(ws.next.iter().all(|&n| n == NOT_PARKED));
        assert!(!ws.next.is_empty(), "a saturated run must have buffered");
        assert_eq!(ws.parked.len(), ws.next.len());
        assert!(ws.next.len() <= sim.packet_high_water());
    }

    #[test]
    fn next_event_tracks_pending_maturities() {
        // A dense wire never needs a tick: arrivals are filed at send time
        // and credit returns go through the credit wheel.
        let mut ws = one_wire(3, 0, 4);
        assert_eq!(ws.next_event(0), u64::MAX, "idle wire has no events");
        step(&mut ws, 0..=10);
        let ready = ws.send(10, 0, entry(7, 1), 0);
        assert_eq!(ready, Some(13), "a dense send wakes the consumer itself");
        assert_eq!(ws.next_event(0), u64::MAX);
        step(&mut ws, 11..=13);
        ws.pop(13, 0, 0);
        assert_eq!(ws.next_event(0), u64::MAX, "the credit is in its wheel");
        assert!(!ws.credit_gate(0, 0, 4), "a four-flit send waits for it");
        assert_eq!(step(&mut ws, 14..=16), vec![(End::Producer, 16)]);
        assert_eq!(ws.work().0, 1, "only the bootstrap look ticked the wire");
    }

    #[test]
    fn a_wire_past_the_wake_horizon_is_refused() {
        // A wire is accepted by its worst case, a two-flit packet through
        // the receive pipeline: on a latency-62 wire it is ready at 63, the
        // last cycle inside the horizon; on a latency-63 wire at 64, past
        // it, so even a wire that only ever carried one-flit packets (ready
        // at 63) is refused.
        let mut ws = one_wire(62, 0, 8);
        assert_eq!(ws.send(0, 0, entry(3, 2), 0), Some(63));
        let refused = std::panic::catch_unwind(|| one_wire(63, 0, 8)).unwrap_err();
        let msg = refused.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("64 cycles on, past the 64-cycle wake horizon"),
            "{msg}"
        );
        assert!(
            msg.contains(&spec(1, 0, 2).label.to_string()),
            "names the wire: {msg}"
        );
    }

    #[test]
    fn rc_cache_cleared_on_send() {
        // The route cache lives in the gate alone: an entry carries none,
        // so a head starts unrouted however it got there.
        let mut ws = one_wire(1, 0, 4);
        ws.send(0, 0, entry(1, 1), 0);
        ws.send(1, 0, entry(2, 1), 0);
        assert_eq!(ws.gate(0, 0).rc_port, 0xFF);
        ws.cache_route(0, 0, 2, 5);
        let g = ws.gate(0, 0);
        assert_eq!((g.rc_port, g.rc_vcidx), (2, 5));
        ws.pop(2, 0, 0);
        assert_eq!(ws.gate(0, 0).rc_port, 0xFF, "stale RC must not travel");
    }

    #[test]
    fn vc_index_layout() {
        let ws = one_wire(1, 0, 4);
        assert_eq!(ws.vc_index(0, TrafficClass::Request, Vc(0)), 0);
        assert_eq!(ws.vc_index(0, TrafficClass::Request, Vc(3)), 3);
        assert_eq!(ws.vc_index(0, TrafficClass::Reply, Vc(0)), 4);
        assert_eq!(ws.vc_index(0, TrafficClass::Reply, Vc(3)), 7);
        assert_eq!(ws.vc_of(0, 7), Vc(3));
        assert_eq!(ws.num_vcs(0), 8);
    }

    #[test]
    #[should_panic(expected = "without credits")]
    fn overcommit_rejected() {
        let mut ws = one_wire(1, 0, 2);
        ws.send(0, 0, entry(1, 2), 0);
        ws.send(0, 0, entry(2, 1), 0);
    }

    #[test]
    fn ready_cycles_past_the_gate_format_never_read_ready() {
        let mut ws = one_wire(3, 0, 4);
        let now = LAST_CYCLE - 2;
        assert_eq!(ws.send(now, 0, entry(1, 1), 0), Some(LAST_CYCLE + 1));
        assert_eq!(ws.gate(0, 0).ready, u32::MAX, "saturated, not wrapped");
        assert_eq!(ready_pkt(&ws, LAST_CYCLE - 1, 0), None);
        // The same behind the head: queued with a saturated `ready_at`, then
        // the head in a gate that still never reads ready, while `send`
        // reports the cycle it really meant.
        assert_eq!(ws.send(now + 1, 0, entry(2, 1), 0), Some(LAST_CYCLE + 2));
        assert_eq!(ws.parked[2].ready_at, u32::MAX);
        assert_eq!(ws.pop(LAST_CYCLE, 0, 0).pkt, PacketId(1));
        assert_eq!(ws.head(0, 0).pkt, PacketId(2));
        assert_eq!(ws.gate(0, 0).ready, u32::MAX);
        assert_eq!(ready_pkt(&ws, LAST_CYCLE - 1, 0), None);
    }

    #[test]
    fn ages_past_the_entry_format_read_youngest_to_an_age_arbiter() {
        // Injected past the last cycle a run reaches: wrapped, the age
        // would read 9 and beat a packet injected at cycle 100.
        assert_eq!(saturate_cycle(LAST_CYCLE + 10), u32::MAX);
        assert_eq!(saturate_cycle(LAST_CYCLE), u32::MAX);
        assert_eq!(saturate_cycle(100), 100);
        let mut ws = one_wire(1, 0, 4);
        let aged = |pkt, injected_at| BufEntry {
            age: saturate_cycle(injected_at),
            ..entry(pkt, 1)
        };
        ws.send(0, 0, aged(1, LAST_CYCLE + 10), 0);
        ws.send(0, 0, aged(2, 100), 1);
        let winner = anton_arbiter::BitsetArbiter::age(8).pick_mask(
            0b11,
            |i| ws.gate(0, i as u8).pattern,
            |i| u64::from(ws.head(0, i as u8).age),
        );
        assert_eq!(winner, Some(1), "the older packet wins");
    }

    #[test]
    fn shim_at_zero_ber_matches_ideal_wire_cycle_for_cycle() {
        let mut ideal = one_wire(44, 0, 8);
        let mut lossy = lossy_wire(44, 8, Vec::new());
        // A single-flit and a two-flit packet, spaced like the serializer
        // would emit them (≥ 45/14 cycles apart per flit). The ideal wire
        // files its sends at once (consumer wake returned from `send`); the
        // shim reports arrivals through the wires phase — collect both
        // streams of consumer-wake cycles and compare them at the end.
        let mut wakes_ideal = Vec::new();
        let mut wakes_lossy = Vec::new();
        let mut popped = 0;
        for t in 0..400u64 {
            let (mut ca, mut cb) = (false, false);
            for (ws, wakes, credited) in [
                (&mut ideal, &mut wakes_ideal, &mut ca),
                (&mut lossy, &mut wakes_lossy, &mut cb),
            ] {
                ws.step(t, true, |_, end, at| match end {
                    End::Consumer => wakes.push(at),
                    End::Producer => *credited = true,
                });
                assert!(ws.next_event(0) > t, "a tick must consume its event");
            }
            assert_eq!(ca, cb, "credit wakes diverge at {t}");
            for (at, pkt, flits, vc) in [(5, 1, 1, 0), (12, 2, 2, 3)] {
                if t == at {
                    wakes_ideal.extend(ideal.send(t, 0, entry(pkt, flits), vc));
                    assert_eq!(lossy.send(t, 0, entry(pkt, flits), vc), None);
                }
            }
            if t == 5 {
                assert_eq!(lossy.next_event(0), 49, "the frame lands one latency on");
            }
            for vc in [0u8, 3] {
                if ideal.ready_head(t, 0, vc).is_some() {
                    let (a, b) = (ideal.pop(t, 0, vc), lossy.pop(t, 0, vc));
                    assert_eq!(a, b, "delivered entries diverge at cycle {t}");
                    popped += 1;
                }
            }
        }
        assert_eq!(popped, 2, "both packets must arrive");
        assert_eq!(wakes_ideal, wakes_lossy, "consumer wake cycles diverge");
        assert_eq!(lossy.next_event(0), u64::MAX);
        assert!(lossy.is_quiescent());
        // Three frames: besides the bootstrap look, one tick to send the
        // second flit of the two-flit packet, one per frame landing, one
        // per ack landing (the two credit returns come off the credit wheel).
        assert_eq!(lossy.work().0, 1 + 1 + 3 + 3, "ticks follow events");
        assert_eq!(ideal.work().0, 1);
        ideal.check_credit_balance().unwrap();
        lossy.check_credit_balance().unwrap();
    }

    #[test]
    fn credit_balance_accounts_for_shim_queue() {
        // Link down forever: flits stay inside the shim, credits stay spent.
        let mut ws = lossy_wire(10, 6, vec![(0, u64::MAX)]);
        step(&mut ws, 0..=0);
        ws.send(0, 0, entry(1, 2), 0);
        step(&mut ws, 1..=99);
        assert!(!ws.credit_gate(0, 0, 5));
        assert_eq!(ws.link_backlog(0), 2);
        ws.check_credit_balance().unwrap();
        assert_ne!(
            ws.next_event(0),
            u64::MAX,
            "a stuck shim must keep the wire on the wheel"
        );
        assert!(!ws.is_quiescent());
    }

    #[test]
    fn link_drain_strands_or_requeues_each_undelivered_packet() {
        let mut ws = lossy_wire(10, 6, vec![(0, 500)]);
        step(&mut ws, 0..=0);
        ws.send(0, 0, entry(1, 2), 0);
        step(&mut ws, 1..=3);
        ws.send(3, 0, entry(2, 1), 0);
        step(&mut ws, 4..=4);
        ws.send(4, 0, entry(3, 1), 4);
        step(&mut ws, 5..=20);
        assert_eq!(ws.link_backlog(0), 4);
        let stranded = ws.drain_link(21, 0, |e| e.pkt == PacketId(2));
        let ids: Vec<u32> = stranded.iter().map(|e| e.pkt.0).collect();
        assert_eq!(ids, vec![1, 3], "send order, minus what stays");
        assert_eq!(ws.link_backlog(0), 1, "packet 2 re-entered the link");
        assert_eq!((ws.credits(0, 0), ws.credits(0, 4)), (5, 6));
        assert_eq!(ws.flits_carried(0), 5, "a re-send crosses the wire again");
        ws.check_credit_balance().unwrap();
        // The outage clears at 500; the next retransmission round (every
        // 192 cycles from 21) delivers what stayed.
        assert_eq!(step(&mut ws, 21..=700), vec![(End::Consumer, 607)]);
        assert_eq!(ws.pop(700, 0, 0).pkt, PacketId(2));
    }

    #[test]
    fn boundary_pair_hands_packets_and_credits_across() {
        let (mut export, mut import) = (spec(44, 1, 8), spec(44, 1, 8));
        export.role = BoundaryRole::Export;
        import.role = BoundaryRole::Import;
        let mut prod = Wires::new(vec![export], false);
        let mut cons = Wires::new(vec![import], false);
        let balance = |prod: &Wires, cons: &Wires| {
            u32::from(prod.credits(0, 2))
                + prod.accounted_flits(0, 2, &prod.parked_credits()).unwrap()
                + cons.accounted_flits(0, 2, &cons.parked_credits()).unwrap()
        };
        // Window [0, 44): the producer sends into its outbox.
        step(&mut prod, 0..=0);
        assert_eq!(prod.send(0, 0, entry(9, 2), 2), None);
        assert!(!prod.is_quiescent(), "the outbox holds a packet");
        assert_eq!(balance(&prod, &cons), 8);
        step(&mut prod, 1..=43);
        step(&mut cons, 0..=43);
        let mut mail = Vec::new();
        prod.take_exports(0, &mut mail);
        assert_eq!(mail.len(), 1);
        let (e, vcidx) = mail[0];
        assert_eq!((e.ready_at, vcidx), (46, 2));
        // The barrier files it straight into the receive buffer, where it
        // waits for the cycle the producer's copy stamped on it.
        assert_eq!(cons.import_packet(44, 0, e, vcidx), 46);
        assert_eq!(balance(&prod, &cons), 8);
        // Window [44, 88): the consumer pops it once ready; the credit
        // return waits in its outbox for the barrier.
        for t in 44..46 {
            assert_eq!(step(&mut cons, t..=t), vec![]);
            assert_eq!(ready_pkt(&cons, t, 2), None, "ready early at {t}");
        }
        assert_eq!(step(&mut cons, 46..=46), vec![]);
        assert_eq!(cons.pop(46, 0, 2).pkt, PacketId(9));
        assert_eq!(balance(&prod, &cons), 8);
        let mut credits = Vec::new();
        cons.take_credit_exports(0, &mut credits);
        assert_eq!(credits, vec![(90, 2, 2)]);
        step(&mut prod, 44..=87);
        assert!(!prod.credit_gate(0, 2, 7), "two of eight credits are away");
        prod.import_credit(88, 0, 90, 2, 2);
        assert_eq!(balance(&prod, &cons), 8, "its wheel holds the return");
        assert_eq!(prod.next_event(0), u64::MAX, "nothing for the wheel");
        assert_eq!(step(&mut prod, 88..=90), vec![(End::Producer, 90)]);
        assert_eq!(prod.credits(0, 2), 8);
        assert_eq!(balance(&prod, &cons), 8);
        assert!(prod.is_quiescent() && cons.is_quiescent());
        assert_eq!(
            (prod.work().0, cons.work().0),
            (1, 1),
            "only the bootstrap looks ticked either copy"
        );
    }

    /// The obvious model of one ideal wire: a packet sent at `t` is ready
    /// at `t + latency + flits - 1 + rx_pipeline`, behind everything sent
    /// before it on its VC; popping it at `p` returns its credits at
    /// `p + latency`, which wakes the producer if it was refused a send on
    /// that VC since the VC's last return.
    struct Model {
        latency: u64,
        rx_pipeline: u64,
        credits: [u8; 8],
        bufs: [VecDeque<(u64, u32, u8)>; 8],
        returning: Vec<(u64, u8, u8)>,
        refused: u8,
    }

    impl Model {
        fn ready_pkt(&self, now: u64, vc: u8) -> Option<PacketId> {
            self.bufs[vc as usize]
                .front()
                .filter(|&&(ready, ..)| ready <= now)
                .map(|&(_, pkt, _)| PacketId(pkt))
        }
    }

    /// What the two ends of a wire can observe of it: every pop as
    /// `(cycle, packet, vc)` — each head is popped, if at all, on a cycle
    /// the schedule names, and only once it reads ready — plus the cycles
    /// the consumer and the producer were woken for.
    #[derive(Debug, Default, PartialEq)]
    struct Observed {
        pops: Vec<(u64, u32, u8)>,
        consumer_wakes: BTreeSet<u64>,
        producer_wakes: BTreeSet<u64>,
    }

    /// One cycle of a schedule: try to send a packet of `flits` flits on
    /// `vc` if `send` and the link is free, and pop the ready heads of the
    /// VCs in `pop_mask`.
    type Cycle = (bool, u8, u8, u8);

    /// The opening every schedule starts with, timed from the wire's own
    /// latency so that each case — not a lucky draw — drives the VC queues
    /// through what their representation has to get right. Returns the cycles and how many of them pass before every
    /// packet of the first step has arrived.
    fn opening(latency: u64, rx_pipeline: u64, depth: u8, vc: u8) -> (Vec<Cycle>, usize) {
        let repeat = |cycle: Cycle, n: u64| std::iter::repeat_n(cycle, n as usize);
        let idle = (false, 0, 1, 0);
        let mut cycles = Vec::new();
        // 1. Fill `vc` as deep as the buffer goes with one-flit packets
        //    (ids 0..depth) and wait for them all: a head and `depth - 1`
        //    packets queued behind it.
        cycles.extend(repeat((true, vc, 1, 0), u64::from(depth)));
        cycles.extend(repeat(idle, latency + rx_pipeline));
        let arrived = cycles.len();
        // 2. Pop two of them, freeing ids 0 then 1 (1 was queued behind 0,
        //    became the head, then popped), and offer sends until both
        //    credits are back: the ids return last-freed-first, and 1 queues
        //    a second time.
        cycles.extend(repeat((false, 0, 1, 1 << vc), 2));
        cycles.extend(repeat((true, vc, 1, 0), latency + 2));
        // 3. Fill a second VC with ids the pool has never seen, and wait
        //    for them too: it grows mid-run, with queues threaded through
        //    it.
        cycles.extend(repeat((true, (vc + 1) % 8, 1, 0), u64::from(depth)));
        cycles.extend(repeat(idle, latency + rx_pipeline));
        (cycles, arrived)
    }

    /// Drives `ws` (one wire) through the [`opening`] and then `schedule`
    /// in lockstep with the model, checking every cycle that both show the
    /// same ready heads and the same credit, and that the store's credits
    /// and queues audit clean; then drains both. Packet ids are recycled
    /// last-freed-first, as [`crate::state::PacketSlab`] recycles them.
    fn run_against_model(
        mut ws: Wires,
        latency: u64,
        rx_pipeline: u64,
        depth: u8,
        schedule: &[Cycle],
    ) -> Result<(), TestCaseError> {
        let mut model = Model {
            latency,
            rx_pipeline,
            credits: [depth; 8],
            bufs: Default::default(),
            returning: Vec::new(),
            refused: 0,
        };
        let (mut seen, mut expected) = (Observed::default(), Observed::default());
        let (mut cycles, arrived) = opening(latency, rx_pipeline, depth, schedule[0].1);
        cycles.extend_from_slice(schedule);
        // Senders serialize: a packet holds the link for its flit count.
        let mut link_free_at = 0;
        // The packet slab's id policy: the last id freed is the next used.
        let mut free_ids: Vec<u32> = Vec::new();
        let (mut high_water, mut sent) = (0u32, 0u32);
        let (mut deepest, mut pool_after_fill) = (0, 0);
        let mut now = 0u64;
        loop {
            let cycle = cycles.get(now as usize).copied();
            let in_model = model.bufs.iter().any(|b| !b.is_empty()) || !model.returning.is_empty();
            if cycle.is_none() && !in_model {
                break;
            }
            prop_assert!(now < 4_000, "wire failed to drain");
            ws.step(now, false, |_, end, at| {
                match end {
                    End::Consumer => seen.consumer_wakes.insert(at),
                    End::Producer => seen.producer_wakes.insert(at),
                };
            });
            model.returning.retain(|&(at, vc, flits)| {
                if at == now {
                    model.credits[vc as usize] += flits;
                    if model.refused & 1 << vc != 0 {
                        model.refused &= !(1 << vc);
                        expected.producer_wakes.insert(now);
                    }
                }
                at != now
            });
            // With the schedule spent, pop whatever is ready.
            let (send, vc, flits, pop_mask) = cycle.unwrap_or((false, 0, 1, 0xFF));
            for v in 0..8u8 {
                let ready = model.ready_pkt(now, v);
                prop_assert_eq!(ready_pkt(&ws, now, v), ready, "head of vc {} at {}", v, now);
                prop_assert_eq!(ws.credits(0, v as usize), model.credits[v as usize]);
                if ready.is_some() && pop_mask >> v & 1 != 0 {
                    let (_, pkt, f) = model.bufs[v as usize].pop_front().expect("ready head");
                    model.returning.push((now + model.latency, v, f));
                    expected.pops.push((now, pkt, v));
                    let e = ws.pop(now, 0, v);
                    seen.pops.push((now, e.pkt.0, v));
                    free_ids.push(pkt);
                }
            }
            let room = model.credits[vc as usize] >= flits;
            if send && now >= link_free_at {
                prop_assert_eq!(ws.credit_gate(0, vc, flits), room);
                if !room {
                    model.refused |= 1 << vc;
                }
            }
            if send && now >= link_free_at && room {
                let pkt = free_ids.pop().unwrap_or_else(|| {
                    high_water += 1;
                    high_water - 1
                });
                sent += 1;
                let ready = now + model.latency + u64::from(flits) - 1 + model.rx_pipeline;
                model.credits[vc as usize] -= flits;
                model.bufs[vc as usize].push_back((ready, pkt, flits));
                expected.consumer_wakes.insert(ready);
                seen.consumer_wakes
                    .extend(ws.send(now, 0, entry(pkt, flits), vc));
                link_free_at = now + u64::from(flits);
            }
            let audit = ws
                .check_credit_balance()
                .and_then(|()| ws.check_pool(high_water as usize));
            if let Err(e) = audit {
                return Err(TestCaseError::fail(format!("cycle {now}: {e}")));
            }
            let mut occupied = ws.occupied[0];
            while occupied != 0 {
                let v = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                deepest = deepest.max(ws.walk_queue(0, v).expect("audited").0);
            }
            if now as usize == arrived {
                pool_after_fill = ws.next.len();
            }
            now += 1;
        }
        prop_assert!(ws.is_quiescent());
        prop_assert_eq!(ws.next_event(0), u64::MAX, "nothing left to tick for");
        prop_assert_eq!(&seen, &expected);
        // The opening did what it is there for.
        prop_assert_eq!(deepest, usize::from(depth), "a VC must fill up");
        prop_assert!(sent > high_water, "ids must be recycled");
        prop_assert!(
            ws.next.len() > pool_after_fill,
            "the pool must grow mid-run"
        );
        prop_assert!(ws.next.iter().all(|&n| n == NOT_PARKED));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dense path is indistinguishable from the obvious model at
        /// either end of a wire. Under a random send / pop schedule, a wire
        /// (filed at send, credits through its credit wheel) shows the
        /// closed-form model's ready cycles, pop order and the credit-return
        /// cycles that wake a refused producer, at on-chip latencies (wheels
        /// of 2 to 8 slots, a return one latency ahead landing up to the
        /// slot before the current one) and at torus latencies (a 64-slot
        /// wheel). Credits balance after every cycle.
        ///
        /// Every case opens ([`opening`]) by filling a VC's queue to the
        /// buffer's depth, re-queueing a recycled packet id and growing
        /// the pool of queued entries mid-run, before the random part.
        ///
        /// Verified to fail when: `transmit` drops `flits - 1` from the
        /// tail arrival; a dense `pop` files its credit one credit-wheel
        /// slot late; a return wakes its producer unrefused, or leaves the
        /// refusal marked after waking it. And of the queues threaded
        /// through the pool: `file` moves `qhead` on every filing, does not
        /// advance `qtail`, does not link the old tail to the new one, or
        /// leaves the new tail's link unset; `pop` clears the occupied bit
        /// with packets still behind the head, does not advance `qhead`,
        /// leaves the gate of the popped head in place, takes the entry at
        /// `qtail`, or does not reset the popped id's link.
        #[test]
        fn delivery_paths_agree_with_each_other_and_the_model(
            latency in (0u64..26).prop_map(|i| if i < 6 { i + 1 } else { i + 34 }),
            rx_pipeline in 0u64..4,
            depth in 2u8..7,
            schedule in proptest::collection::vec(
                (any::<bool>(), 0u8..8, 1u8..3, any::<u8>()),
                40..160,
            ),
        ) {
            run_against_model(
                one_wire(latency, rx_pipeline, depth), latency, rx_pipeline, depth, &schedule,
            )?;
        }
    }
}
