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
//! hot state. They have no storage of their own: a buffered packet, the
//! head included, is stored once, in its line of the packet slab, which
//! carries its ready cycle and a link to the packet behind it
//! (`PacketState::ready_at` / `link`), and each VC keeps only its head's
//! gate and the ids at its queue's two ends (`qhead` / `qtail`), so an
//! empty VC holds nothing. No allocator, free list or capacity is involved,
//! because a packet is buffered in at most one place at a time. Three
//! invariants hold between calls, audited by `Wires::check_queues` and on
//! every filing:
//!
//! * a VC's occupied bit is set exactly when `qhead` / `qtail` name a queue,
//!   head included, and a walk from `qhead` ends at `qtail` within `depth`
//!   steps;
//! * a packet is filed at most once (filing it again panics);
//! * a packet's link reads "not parked" exactly when it is buffered nowhere
//!   — and a slab insert resets it, so a recycled id starts clean.
//!
//! There is one `send`, one `pop` and one `step` (the wires phase of a
//! cycle); which of the three delivery paths and two credit-return paths a
//! wire takes is decided from what can be observed about it (see DESIGN.md,
//! "The wire layer"). Every wire delivers inside the wake wheel's horizon
//! (`Wires::new` refuses one that does not), so a packet is always filed
//! with the cycle it clears the receive pipeline and a credit return is
//! always an entry of its latency's credit wheel. The simulator keeps only
//! who consumes and who produces each wire, and acts on the wake cycles
//! this layer hands back. Everything that names a packet — send, pop, the
//! link layer's queue, the boundary outboxes — names it by id; the calls
//! that file, pop or audit one are handed the slab that holds it.
//!
//! Each head's gate record copies what the switch-allocation scans gate on
//! (ready cycle, flit count, pattern) and caches its route computation, so
//! a blocked head never touches the packet slab.

use std::collections::VecDeque;

use anton_core::timing::TORUS_LINK_CYCLES;
use anton_core::trace::GlobalLink;
use anton_core::vc::{TrafficClass, Vc};
use anton_fault::{LinkShim, ShimEvent, ShimStats};

use crate::params::ADAPTER_PIPELINE;
use crate::state::{PacketId, PacketSlab, PacketState, RouteProgress, NOT_PARKED};
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
/// packet's slab line is only loaded for heads that pass every gate.
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
    fn of(st: &PacketState) -> GateEntry {
        GateEntry {
            ready: st.ready_at,
            rc_port: 0xFF,
            rc_vcidx: 0,
            flits: st.flits,
            pattern: st.pattern.0,
        }
    }
}

// One load fetches a gate, and the gate row of a common 8-index wire is one
// 64-byte line (two for a 16-index row): the allocation scans' working set.
const _: () = assert!(std::mem::size_of::<GateEntry>() == 8);

/// A lossy-link shim installed on a wire, plus the packets currently
/// crossing it. The shim tracks flits; this queue keeps the matching
/// `(packet, vc_index)` pairs in FIFO order (go-back-N delivery is strictly
/// in-order, so the head of this queue is always the next packet to
/// complete).
#[derive(Debug)]
struct ShimState {
    shim: LinkShim,
    queue: VecDeque<(PacketId, u8)>,
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

// The route a packet's slab state carries: a 7-byte spec of three runs and
// its destination, 16 bytes with the multicast variants beside it.
const _: () = assert!(std::mem::size_of::<RouteProgress>() <= 16);

/// Narrows a cycle to the `u32` the gate and slab records keep, saturating
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

/// Link of the last packet of a VC's queue. Packet ids are slab indices, far
/// below it and [`NOT_PARKED`].
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
    /// only): `(packet, vc_index)` in send order, each packet's ready cycle
    /// set to the cycle it clears the far receive pipeline.
    outbox: Vec<(PacketId, u8)>,
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
    /// is threaded through the packets' slab lines (`PacketState::link`:
    /// [`LAST`] at a queue's tail, else the id queued behind), so a VC's
    /// receive buffer has no storage of its own.
    qhead: Vec<u32>,
    qtail: Vec<u32>,
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
    /// head re-gates without recomputing it. Cleared when the packet is
    /// popped.
    #[inline]
    pub(crate) fn cache_route(&mut self, w: usize, vcidx: u8, port: u8, out_vcidx: u8) {
        let i = self.slot(w, vcidx);
        let g = &mut self.gate[i];
        g.rc_port = port;
        g.rc_vcidx = out_vcidx;
    }

    /// The packet at the head of a VC (meaningful where the occupied bit is
    /// set), read off the queue-end row without loading its slab line.
    #[inline]
    pub(crate) fn head(&self, w: usize, vcidx: u8) -> PacketId {
        PacketId(self.qhead[self.slot(w, vcidx)])
    }

    /// The packet at the head of a VC, if one is buffered and ready at
    /// `now`. The test reads only the occupancy mask and the gate.
    #[inline]
    pub(crate) fn ready_head(&self, now: u64, w: usize, vcidx: u8) -> Option<PacketId> {
        (self.occupied[w] & (1 << vcidx) != 0 && u64::from(self.gate(w, vcidx).ready) <= now)
            .then(|| self.head(w, vcidx))
    }

    // ----- send / pop / step -----------------------------------------------

    /// Files packet `id` into a wire's receive buffers with ready cycle
    /// `ready` (saturated), at the tail of the VC's queue, and when the VC
    /// was empty as its head, gated by that cycle alone.
    ///
    /// # Panics
    ///
    /// Panics if the packet is already buffered: a packet is buffered in one
    /// place at a time, which is what lets its slab line hold its link.
    #[inline]
    fn file(&mut self, w: usize, id: PacketId, ready: u32, vcidx: u8, slab: &mut PacketSlab) {
        let st = slab.get_mut(id);
        assert!(
            st.link == NOT_PARKED,
            "packet {} parked twice, the second time on {}",
            id.0,
            self.labels[w]
        );
        st.ready_at = ready;
        st.link = LAST;
        let i = self.slot(w, vcidx);
        let bit = 1u16 << vcidx;
        if self.occupied[w] & bit == 0 {
            self.occupied[w] |= bit;
            self.qhead[i] = id.0;
            self.gate[i] = GateEntry::of(st);
        } else {
            slab.get_mut(PacketId(self.qtail[i])).link = id.0;
        }
        self.qtail[i] = id.0;
    }

    /// Returns credits to a wire's sender.
    #[inline]
    fn credit(&mut self, w: usize, vcidx: u8, flits: u8) {
        let i = self.slot(w, vcidx);
        let c = &mut self.credits[i];
        *c += flits;
        debug_assert!(*c <= self.info[w].depth, "credit overflow");
    }

    /// Pushes packet `id` of `slab` onto a wire at cycle `now` (after this
    /// cycle's [`step`](Wires::step)), spending the sender's credits.
    ///
    /// Returns the cycle the consumer must be woken at when the packet was
    /// filed straight into the receive buffers (the dense path). `None`
    /// means the wire delivers it later — through its lossy-link shim or a
    /// shard-boundary outbox — and a later [`step`](Wires::step) (or window
    /// barrier) reports the arrival.
    ///
    /// # Panics
    ///
    /// Panics without sufficient credits; check [`Wires::credit_gate`] first.
    #[inline]
    pub(crate) fn send(
        &mut self,
        now: u64,
        w: usize,
        id: PacketId,
        vcidx: u8,
        slab: &mut PacketSlab,
    ) -> Option<u64> {
        let ready = self.transmit(now, w, id, vcidx, slab);
        if ready.is_none() {
            self.schedule(w, now + 1, now);
        }
        ready
    }

    /// [`Wires::send`] without the wire-wheel bookkeeping (the link drain
    /// re-sends before this cycle's step, and schedules once at its end).
    #[inline]
    fn transmit(
        &mut self,
        now: u64,
        w: usize,
        id: PacketId,
        vcidx: u8,
        slab: &mut PacketSlab,
    ) -> Option<u64> {
        let flits = slab.get(id).flits;
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
        if info.flags & DENSE != 0 {
            debug_assert!(u64::from(flits) <= MAX_PACKET_FLITS);
            self.file(w, id, saturate_cycle(ready), vcidx, slab);
            return Some(ready);
        }
        // An export ships the cycle it clears the far receive pipeline in
        // the packet's line; a shim sets its own at delivery.
        slab.get_mut(id).ready_at = saturate_cycle(ready);
        self.transmit_later(now, w, (id, vcidx), flits);
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
    fn transmit_later(&mut self, now: u64, w: usize, sent: (PacketId, u8), flits: u8) {
        let cold = self.cold_mut(w);
        if let Some(s) = &mut cold.shim {
            // Lossy path: the packet's flits cross the go-back-N link; it
            // waits in the shim queue until the link layer delivers its
            // last flit, which sets its real `ready_at`. The shim transmits
            // at once and may log an event stamped `now`.
            s.queue.push_back(sent);
            s.shim.enqueue(now, flits);
            self.collect_link_events(w);
        } else {
            // The receiver lives in another shard: the packet ships at the
            // next window barrier instead of entering local buffers.
            debug_assert_eq!(cold.role, BoundaryRole::Export);
            cold.outbox.push(sent);
        }
    }

    /// Pops the head packet of a VC buffer at cycle `now`, making the next
    /// queued packet (if any) the head, and puts the credit return in
    /// flight: into its credit wheel, or into the boundary outbox when
    /// the sender's credit pool lives in the producing shard. The popped
    /// packet's link reads "not parked" again, for its next send.
    ///
    /// # Panics
    ///
    /// Panics if the VC's occupied bit is clear.
    #[inline]
    pub(crate) fn pop(&mut self, now: u64, w: usize, vcidx: u8, slab: &mut PacketSlab) -> PacketId {
        let bit = 1u16 << vcidx;
        assert!(self.occupied[w] & bit != 0, "pop from empty VC buffer");
        let i = self.slot(w, vcidx);
        let id = PacketId(self.qhead[i]);
        let st = slab.get_mut(id);
        let flits = st.flits;
        match std::mem::replace(&mut st.link, NOT_PARKED) {
            LAST => self.occupied[w] &= !bit,
            next => {
                self.qhead[i] = next;
                self.gate[i] = GateEntry::of(slab.get(PacketId(next)));
            }
        }
        let info = self.info[w];
        // Latency is at least one cycle, so the return never matures in
        // the cycle whose wires phase has already run; its wheel is longer
        // than the latency, so the slot is one no pending cycle holds.
        let at = now + u64::from(info.lat);
        if info.flags & DENSE != 0 {
            self.file_credit(w, at, vcidx, flits);
        } else {
            self.pop_off_dense(w, at, vcidx, flits);
        }
        id
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
    /// this cycle, filing what they deliver (packets of `slab`). `wake` receives `(wire, end, cycle)` for every component
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
        slab: &mut PacketSlab,
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
            self.tick(now, wu as usize, slab, &mut wake);
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
    fn tick(
        &mut self,
        now: u64,
        w: usize,
        slab: &mut PacketSlab,
        wake: &mut impl FnMut(usize, End, u64),
    ) {
        let c = self.cold_of[w] as usize;
        let Some(s) = self.cold.get_mut(c).and_then(|cold| cold.shim.as_mut()) else {
            return;
        };
        let completed = s.shim.advance(now);
        let ready = now + u64::from(self.info[w].rxp);
        for _ in 0..completed {
            let cold = &mut self.cold[c];
            let (id, vcidx) = cold
                .shim
                .as_mut()
                .and_then(|s| s.queue.pop_front())
                .expect("shim completed a packet the wire never queued");
            if cold.role == BoundaryRole::Export {
                // Link-layer delivery completed toward a foreign shard: the
                // packet, its ready cycle set, ships at the barrier.
                slab.get_mut(id).ready_at = saturate_cycle(ready);
                cold.outbox.push((id, vcidx));
            } else {
                self.file(w, id, saturate_cycle(ready), vcidx, slab);
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

    /// Drains an export wire's outbox (`(packet, vc_index)` in send order).
    /// Called at window barriers by the sharded kernel.
    pub(crate) fn take_exports(&mut self, w: usize, out: &mut Vec<(PacketId, u8)>) {
        out.append(&mut self.cold_mut(w).outbox);
    }

    /// Drains an import wire's credit-return outbox (`(arrival_cycle,
    /// vc_index, flits)` in pop order). Called at window barriers.
    pub(crate) fn take_credit_exports(&mut self, w: usize, out: &mut Vec<(u64, u8, u8)>) {
        out.append(&mut self.cold_mut(w).outbox_credits);
    }

    /// Files packet `id` of `slab`, arriving from the producing shard's
    /// copy of an import wire, at a window barrier before cycle `now`
    /// steps, and returns the cycle the consumer must be woken at.
    ///
    /// The producer's copy set the packet's ready cycle to the cycle it
    /// clears this receive pipeline, and that cycle lies at or past `now`:
    /// an ideal wire's flight outlasts the window, and a lossy-link
    /// completion ships under a one-cycle window. Filed like a dense send,
    /// the packet is invisible to the consumer until then, exactly as in a
    /// serial run.
    pub(crate) fn import_packet(
        &mut self,
        now: u64,
        w: usize,
        id: PacketId,
        vcidx: u8,
        slab: &mut PacketSlab,
    ) -> u64 {
        debug_assert_eq!(self.role(w), BoundaryRole::Import);
        let ready = slab.get(id).ready_at;
        debug_assert!(u64::from(ready) >= now, "import observable early");
        self.file(w, id, ready, vcidx, slab);
        u64::from(ready)
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
    /// fresh session every packet of `slab` that `stays` keeps on the link
    /// (it re-delivers them once the outage clears), and hands back the
    /// rest, in their original send order, for the caller to re-route.
    /// Empty without a shim, or when the shim is idle.
    pub(crate) fn drain_link(
        &mut self,
        now: u64,
        w: usize,
        slab: &mut PacketSlab,
        mut stays: impl FnMut(&PacketState) -> bool,
    ) -> Vec<PacketId> {
        let c = self.cold_of[w] as usize;
        let Some(s) = self.cold.get_mut(c).and_then(|cold| cold.shim.as_mut()) else {
            return Vec::new();
        };
        let pending = s.shim.drain_reset(now);
        debug_assert_eq!(
            pending,
            s.queue.len(),
            "shim pending packets out of sync with the wire's packet queue"
        );
        let drained: Vec<(PacketId, u8)> = s.queue.drain(..).collect();
        let mut stranded = Vec::new();
        for (id, vcidx) in drained {
            self.credit(w, vcidx, slab.get(id).flits);
            if stays(slab.get(id)) {
                let filed = self.transmit(now, w, id, vcidx, slab);
                debug_assert!(filed.is_none(), "shimmed wires never direct-file");
            } else {
                stranded.push(id);
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
    /// set, walking its queue through `slab` from the head. Every buffered
    /// packet holds at least one flit of the VC's buffer, so a sound queue
    /// is at most `depth` long: a walk that gets further, reaches a packet
    /// that is not parked (a vacant or missing slot reads so), or ends
    /// anywhere but at `qtail`, is reported instead of followed.
    fn walk_queue(&self, w: usize, vc: usize, slab: &PacketSlab) -> Result<(usize, u32), String> {
        let broken = |what: &str| Err(format!("queue of {} vc {vc} {what}", self.labels[w]));
        let i = (w << self.row_shift) + vc;
        let mut id = self.qhead[i];
        let mut flits = 0;
        for len in 1..=usize::from(self.info[w].depth) {
            let next = slab.link(id);
            if next == NOT_PARKED {
                return broken("runs into a packet that is not parked");
            }
            flits += u32::from(slab.get(PacketId(id)).flits);
            match next {
                LAST if id == self.qtail[i] => return Ok((len, flits)),
                LAST => return broken("ends before its tail"),
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
    /// producing copy's credits plus both copies' accounted flits. Every
    /// packet this copy holds is a packet of `slab`. Returns a diagnostic
    /// if the VC's queue is malformed.
    pub(crate) fn accounted_flits(
        &self,
        w: usize,
        vc: usize,
        parked: &[u8],
        slab: &PacketSlab,
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
                .map(|&(id, vcidx)| on_vc(vcidx, slab.get(id).flits))
                .sum::<u32>();
        }
        if self.occupied[w] & (1 << vc) != 0 {
            total += self.walk_queue(w, vc, slab)?.1;
        }
        Ok(total)
    }

    /// Verifies per-VC credit conservation on every interior wire: the
    /// sender's credits plus every flit the wire is accountable for must
    /// equal the buffer depth. A boundary wire's flits split across two
    /// shard replicas; `ShardedSim::check_invariants` checks the combined
    /// balance. Every packet the wires hold is a packet of `slab`. Returns a
    /// diagnostic on violation.
    pub(crate) fn check_credit_balance(&self, slab: &PacketSlab) -> Result<(), String> {
        let parked = self.parked_credits();
        for w in 0..self.len() {
            if self.role(w) != BoundaryRole::Interior {
                continue;
            }
            let depth = self.info[w].depth;
            for vc in 0..usize::from(self.num_vcs(w)) {
                let total =
                    u32::from(self.credits(w, vc)) + self.accounted_flits(w, vc, &parked, slab)?;
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

    /// Verifies the VC queues threaded through `slab`: every one is well
    /// formed (see [`Wires::walk_queue`]), and every packet whose link
    /// reads parked belongs to one of them. Returns a diagnostic on
    /// violation.
    pub(crate) fn check_queues(&self, slab: &PacketSlab) -> Result<(), String> {
        let mut queued = 0;
        for (w, mut mask) in self.occupied.iter().copied().enumerate() {
            while mask != 0 {
                queued += self.walk_queue(w, mask.trailing_zeros() as usize, slab)?.0;
                mask &= mask - 1;
            }
        }
        let ids = 0..slab.high_water() as u32;
        let linked = ids.filter(|&id| slab.link(id) != NOT_PARKED).count();
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
    use crate::state::dummy_state;

    fn spec(latency: u64, rx_pipeline: u64, depth: u8) -> WireSpec {
        let label = GlobalLink::Local {
            node: NodeId(0),
            link: LocalLink::EpToRouter(LocalEndpointId(0)),
        };
        WireSpec::ideal(label, latency, rx_pipeline, 4, depth)
    }

    /// A store of one ideal wire (wire 0, four VCs per class).
    fn one_wire(latency: u64, rx_pipeline: u64, depth: u8) -> Rig {
        Rig::new(vec![spec(latency, rx_pipeline, depth)])
    }

    /// The same wire behind a lossy-link shim.
    fn lossy_wire(latency: u64, depth: u8, downs: Vec<(u64, u64)>) -> Rig {
        let gbn = GoBackNConfig {
            window: 64,
            timeout: 192,
        };
        let mut s = spec(latency, 0, depth);
        s.shim = Some(Box::new(LinkShim::new(latency, gbn, 0.0, downs, 1)));
        Rig::new(vec![s])
    }

    /// A wire store and the packet slab its buffered packets live in.
    #[derive(Debug)]
    struct Rig {
        ws: Wires,
        slab: PacketSlab,
    }

    impl Rig {
        fn new(specs: Vec<WireSpec>) -> Rig {
            Rig {
                ws: Wires::new(specs, false),
                slab: PacketSlab::new(),
            }
        }

        /// A new live packet of `flits` flits.
        fn packet(&mut self, flits: u8) -> PacketId {
            self.slab.insert(
                PacketState {
                    flits,
                    ..dummy_state()
                },
                None,
            )
        }

        fn send(&mut self, now: u64, w: usize, pid: PacketId, vcidx: u8) -> Option<u64> {
            self.ws.send(now, w, pid, vcidx, &mut self.slab)
        }

        /// Sends a new packet of `flits` flits, returning it.
        fn send_new(&mut self, now: u64, w: usize, flits: u8, vcidx: u8) -> PacketId {
            let pid = self.packet(flits);
            self.send(now, w, pid, vcidx);
            pid
        }

        fn pop(&mut self, now: u64, w: usize, vcidx: u8) -> PacketId {
            self.ws.pop(now, w, vcidx, &mut self.slab)
        }

        /// Runs the wires phase of every cycle in `cycles` (wire wheel and
        /// credit wheel slots only fire on their own cycle), returning the
        /// wakes raised as `(end, cycle to wake at)`: credit returns wake
        /// only starved producers, as in a run without stall attribution.
        fn step(&mut self, cycles: RangeInclusive<u64>) -> Vec<(End, u64)> {
            let mut wakes = Vec::new();
            for now in cycles {
                self.ws.step(now, false, &mut self.slab, |_, end, at| {
                    wakes.push((end, at))
                });
            }
            wakes
        }

        fn ready_pkt(&self, now: u64, vcidx: u8) -> Option<PacketId> {
            self.ws.ready_head(now, 0, vcidx)
        }

        fn check_credit_balance(&self) -> Result<(), String> {
            self.ws.check_credit_balance(&self.slab)
        }

        fn check_queues(&self) -> Result<(), String> {
            self.ws.check_queues(&self.slab)
        }

        /// Flits wire 0's copy is accountable for on VC `vc`.
        fn accounted(&self, vc: usize) -> u32 {
            let parked = self.ws.parked_credits();
            self.ws.accounted_flits(0, vc, &parked, &self.slab).unwrap()
        }
    }

    #[test]
    fn packet_arrives_after_latency() {
        let mut r = one_wire(3, 0, 4);
        r.step(0..=10);
        let p = r.packet(1);
        assert_eq!(r.send(10, 0, p, 0), Some(13));
        for t in 10..13 {
            r.step(t + 1..=t + 1);
            assert_eq!(r.ready_pkt(t, 0), None, "arrived early at {t}");
        }
        assert_eq!(r.ready_pkt(13, 0), Some(p));
    }

    #[test]
    fn two_flit_packet_arrives_one_cycle_later() {
        let mut r = one_wire(3, 0, 4);
        let p = r.send_new(0, 0, 2, 0);
        assert_eq!(r.ready_pkt(3, 0), None);
        assert_eq!(r.ready_pkt(4, 0), Some(p));
    }

    #[test]
    fn credits_block_and_return() {
        let mut r = one_wire(2, 0, 3);
        assert!(r.ws.credit_gate(0, 0, 2));
        let first = r.send_new(0, 0, 2, 0);
        assert!(!r.ws.credit_gate(0, 0, 2), "only 1 credit left");
        assert!(r.ws.credit_gate(0, 0, 1));
        r.send_new(0, 0, 1, 0);
        assert!(!r.ws.credit_gate(0, 0, 1));
        // Drain at the receiver; credits return after the wire latency.
        r.step(0..=3);
        assert_eq!(r.pop(3, 0, 0), first);
        assert_eq!(r.step(4..=4), vec![]);
        assert!(!r.ws.credit_gate(0, 0, 2), "credits in flight");
        assert_eq!(r.step(5..=5), vec![(End::Producer, 5)]);
        assert!(r.ws.credit_gate(0, 0, 2), "credits should have returned");
    }

    #[test]
    fn each_latency_returns_its_credits_through_its_own_wheel() {
        // Two one-cycle wires share a 2-slot wheel; a 44-cycle torus-like
        // wire has a 64-slot one.
        let mut r = Rig::new(vec![spec(1, 0, 2), spec(44, 0, 2), spec(1, 0, 2)]);
        let slots: Vec<usize> = r.ws.credit_wheels.iter().map(Vec::len).collect();
        assert_eq!(slots, vec![2, 64]);
        let info = &r.ws.info;
        assert_eq!((info[0].wheel, info[1].wheel, info[2].wheel), (0, 1, 0));
        let sent: Vec<PacketId> = (0..3).map(|w| r.send_new(0, w, 2, 0)).collect();
        let now = 50;
        r.step(0..=now);
        for (w, &pid) in sent.iter().enumerate() {
            assert_eq!(r.pop(now, w, 0), pid);
            assert!(!r.ws.credit_gate(w, 0, 1), "wire {w}'s credits are away");
        }
        let mut woken = Vec::new();
        for t in now + 1..=now + 63 {
            r.ws.step(t, false, &mut r.slab, |w, end, at| woken.push((w, end, at)));
            let back: Vec<u8> = (0..3).map(|w| r.ws.credits(w, 0)).collect();
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
        assert!(r.ws.credit_wheels.iter().flatten().all(Vec::is_empty));
        r.check_credit_balance().unwrap();
    }

    #[test]
    fn an_imported_credit_lands_on_its_cycle_at_either_window_edge() {
        // The barrier before cycle 88 closes the window [44, 88) of a
        // 44-cycle export wire: a return popped at its first cycle matures
        // at the barrier itself, one popped at its last 43 cycles on.
        let mut export = spec(44, 0, 8);
        export.role = BoundaryRole::Export;
        let mut r = Rig::new(vec![export]);
        for vcidx in [0, 1] {
            let p = r.packet(2);
            assert_eq!(r.send(0, 0, p, vcidx), None);
            assert!(!r.ws.credit_gate(0, vcidx, 7));
        }
        r.step(0..=87);
        r.ws.import_credit(88, 0, 44 + 44, 0, 2);
        r.ws.import_credit(88, 0, 87 + 44, 1, 2);
        assert_eq!(
            r.step(88..=160),
            vec![(End::Producer, 88), (End::Producer, 131)]
        );
        assert_eq!((r.ws.credits(0, 0), r.ws.credits(0, 1)), (8, 8));
    }

    #[test]
    fn a_credit_return_wakes_only_a_starved_producer() {
        let mut r = one_wire(2, 0, 2);
        r.send_new(0, 0, 2, 0);
        r.send_new(0, 0, 2, 1);
        r.step(0..=3);
        // Nobody was denied on VC 0: its return wakes nobody, and only the
        // attribution mode wakes for it.
        r.pop(3, 0, 0);
        assert_eq!(r.step(4..=5), vec![]);
        assert_eq!(r.ws.credits(0, 0), 2);
        r.pop(5, 0, 1);
        let mut woken = Vec::new();
        for now in 6..=7 {
            r.ws.step(now, true, &mut r.slab, |_, end, at| woken.push((end, at)));
        }
        assert_eq!(woken, vec![(End::Producer, 7)]);
        // A denial on VC 0 arms exactly one wake: the next return to it.
        r.send_new(8, 0, 2, 0);
        assert!(!r.ws.credit_gate(0, 0, 1), "VC 0 is spent");
        assert!(
            r.ws.credit_gate(0, 3, 1),
            "VC 3 has room and stays unmarked"
        );
        r.send_new(10, 0, 1, 3);
        r.step(8..=11);
        r.pop(11, 0, 0);
        assert_eq!(r.step(12..=13), vec![(End::Producer, 13)]);
        r.pop(13, 0, 3);
        r.send_new(13, 0, 1, 0);
        r.step(14..=15);
        r.pop(15, 0, 0);
        assert_eq!(r.step(16..=17), vec![], "the mark went with its wake");
        assert_eq!((r.ws.credits(0, 0), r.ws.credits(0, 3)), (2, 2));
    }

    #[test]
    fn vcs_are_independent() {
        let mut r = one_wire(1, 0, 2);
        r.send_new(0, 0, 2, 0);
        assert!(!r.ws.can_send(0, 0, 1));
        assert!(r.ws.can_send(0, 3, 2), "other VC unaffected");
        let p = r.send_new(0, 0, 1, 3);
        assert_eq!(r.ready_pkt(2, 3), Some(p));
        assert_eq!(r.ws.occupied(0), 0b1001);
    }

    #[test]
    fn rx_pipeline_delays_readiness() {
        let mut r = one_wire(1, 3, 4);
        let p = r.send_new(0, 0, 1, 1);
        assert_eq!(r.ready_pkt(1, 1), None, "pipeline stages not yet elapsed");
        assert_eq!(r.ready_pkt(4, 1), Some(p));
    }

    #[test]
    fn occupied_mask_tracks_buffers() {
        let mut r = one_wire(1, 0, 4);
        assert_eq!(r.ws.occupied(0), 0);
        r.send_new(0, 0, 1, 2);
        assert_eq!(r.ws.occupied(0), 0b100);
        r.pop(1, 0, 2);
        assert_eq!(r.ws.occupied(0), 0);
    }

    #[test]
    fn packets_queue_behind_the_head_in_order() {
        let mut r = one_wire(1, 0, 8);
        let sent: Vec<PacketId> = (0..3).map(|t| r.send_new(t, 0, 1, 5)).collect();
        assert_eq!(r.ws.occupied(0), 1 << 5, "one head however many queue");
        for pid in sent {
            assert_eq!(r.pop(3, 0, 5), pid, "FIFO per VC");
            assert_eq!(
                r.slab.link(pid.0),
                NOT_PARKED,
                "a popped packet is parked nowhere"
            );
        }
        assert_eq!(r.ws.occupied(0), 0);
        r.check_credit_balance().unwrap();
    }

    #[test]
    #[should_panic(expected = "packet 1 parked twice")]
    fn parking_a_packet_twice_panics() {
        let mut r = one_wire(1, 0, 8);
        let [a, b, c] = [1, 1, 1].map(|flits| r.packet(flits));
        r.send(0, 0, a, 5);
        r.send(1, 0, b, 5);
        // Still queued behind packet `a` when the same id shows up again,
        // here behind a different head.
        r.send(2, 0, c, 6);
        r.send(3, 0, b, 6);
    }

    #[test]
    fn queue_audit_reports_broken_links_instead_of_following_them() {
        let mut r = one_wire(1, 0, 4);
        let q: Vec<PacketId> = (0..4).map(|t| r.send_new(t, 0, 1, 2)).collect();
        // Packet `p` passes through VC 3: it stays live in the slab, filed
        // in no queue.
        let p = r.send_new(4, 0, 1, 3);
        assert_eq!(r.pop(5, 0, 3), p);
        r.check_credit_balance().unwrap();
        r.check_queues().unwrap();
        let relink = |r: &mut Rig, pid: PacketId, link: u32| r.slab.get_mut(pid).link = link;
        // Head q0, then q1 → q2 → q3. A link back to the front cycles; the
        // walk stops at the buffer's depth.
        relink(&mut r, q[3], q[0].0);
        let err = r.check_credit_balance().unwrap_err();
        assert!(err.contains("links cycle"), "{err}");
        relink(&mut r, q[3], LAST);
        // A link that reads parked, of a packet no queue reaches.
        relink(&mut r, p, LAST);
        let err = r.check_queues().unwrap_err();
        assert!(
            err.contains("5 packets read parked but the VC queues hold 4"),
            "{err}"
        );
        relink(&mut r, p, NOT_PARKED);
        // A queue cut short of its tail.
        relink(&mut r, q[2], LAST);
        let err = r.check_queues().unwrap_err();
        assert!(err.contains("ends before its tail"), "{err}");
        relink(&mut r, q[2], q[3].0);
        r.check_queues().unwrap();
        // A queued packet freed from the slab: its vacant line holds a
        // free-list link to `p`, freed before it, which must not read as a
        // queue link — the walk reports it instead of following it to `p`.
        r.slab.remove(p);
        r.slab.remove(q[3]);
        let err = r.check_queues().unwrap_err();
        assert!(
            err.contains("runs into a packet that is not parked"),
            "{err}"
        );
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
        let mut drv = BatchDriver::builder_for(&sim.cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(32)
            .seed(1)
            .build();
        // Mid-run, packets queue behind heads, each linked once.
        assert_eq!(sim.run(&mut drv, 300), RunOutcome::TimedOut);
        sim.check_invariants().unwrap();
        let (ws, slab) = (sim.wires(), sim.packets());
        let parked = (0..slab.high_water() as u32).filter(|&id| slab.link(id) != NOT_PARKED);
        assert!(
            parked.count() > ws.occupied_vcs() as usize,
            "a saturated run must queue behind its heads"
        );
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        sim.check_invariants().unwrap();
        let (ws, slab) = (sim.wires(), sim.packets());
        assert!(ws.occupied.iter().all(|&m| m == 0));
        assert_eq!(slab.live(), 0);
        assert!((0..slab.high_water() as u32).all(|id| slab.link(id) == NOT_PARKED));
    }

    #[test]
    fn next_event_tracks_pending_maturities() {
        // A dense wire never needs a tick: arrivals are filed at send time
        // and credit returns go through the credit wheel.
        let mut r = one_wire(3, 0, 4);
        assert_eq!(r.ws.next_event(0), u64::MAX, "idle wire has no events");
        r.step(0..=10);
        let p = r.packet(1);
        let ready = r.send(10, 0, p, 0);
        assert_eq!(ready, Some(13), "a dense send wakes the consumer itself");
        assert_eq!(r.ws.next_event(0), u64::MAX);
        r.step(11..=13);
        r.pop(13, 0, 0);
        assert_eq!(r.ws.next_event(0), u64::MAX, "the credit is in its wheel");
        assert!(!r.ws.credit_gate(0, 0, 4), "a four-flit send waits for it");
        assert_eq!(r.step(14..=16), vec![(End::Producer, 16)]);
        assert_eq!(r.ws.work().0, 1, "only the bootstrap look ticked the wire");
    }

    #[test]
    fn a_wire_past_the_wake_horizon_is_refused() {
        // A wire is accepted by its worst case, a two-flit packet through
        // the receive pipeline: on a latency-62 wire it is ready at 63, the
        // last cycle inside the horizon; on a latency-63 wire at 64, past
        // it, so even a wire that only ever carried one-flit packets (ready
        // at 63) is refused.
        let mut r = one_wire(62, 0, 8);
        let p = r.packet(2);
        assert_eq!(r.send(0, 0, p, 0), Some(63));
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
        // The route cache lives in the gate alone: a packet carries none,
        // so a head starts unrouted however it got there.
        let mut r = one_wire(1, 0, 4);
        r.send_new(0, 0, 1, 0);
        r.send_new(1, 0, 1, 0);
        assert_eq!(r.ws.gate(0, 0).rc_port, 0xFF);
        r.ws.cache_route(0, 0, 2, 5);
        let g = r.ws.gate(0, 0);
        assert_eq!((g.rc_port, g.rc_vcidx), (2, 5));
        r.pop(2, 0, 0);
        assert_eq!(r.ws.gate(0, 0).rc_port, 0xFF, "stale RC must not travel");
    }

    #[test]
    fn vc_index_layout() {
        let ws = one_wire(1, 0, 4).ws;
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
        let mut r = one_wire(1, 0, 2);
        r.send_new(0, 0, 2, 0);
        r.send_new(0, 0, 1, 0);
    }

    #[test]
    fn ready_cycles_past_the_gate_format_never_read_ready() {
        let mut r = one_wire(3, 0, 4);
        let now = LAST_CYCLE - 2;
        let a = r.packet(1);
        assert_eq!(r.send(now, 0, a, 0), Some(LAST_CYCLE + 1));
        assert_eq!(r.ws.gate(0, 0).ready, u32::MAX, "saturated, not wrapped");
        assert_eq!(r.ready_pkt(LAST_CYCLE - 1, 0), None);
        // The same behind the head: queued with a saturated `ready_at`, then
        // the head in a gate that still never reads ready, while `send`
        // reports the cycle it really meant.
        let b = r.packet(1);
        assert_eq!(r.send(now + 1, 0, b, 0), Some(LAST_CYCLE + 2));
        assert_eq!(r.slab.get(b).ready_at, u32::MAX);
        assert_eq!(r.pop(LAST_CYCLE, 0, 0), a);
        assert_eq!(r.ws.head(0, 0), b);
        assert_eq!(r.ws.gate(0, 0).ready, u32::MAX);
        assert_eq!(r.ready_pkt(LAST_CYCLE - 1, 0), None);
    }

    #[test]
    fn ages_past_the_entry_format_read_youngest_to_an_age_arbiter() {
        // Injected past the last cycle a run reaches: wrapped, the age
        // would read 9 and beat a packet injected at cycle 100.
        assert_eq!(saturate_cycle(LAST_CYCLE + 10), u32::MAX);
        assert_eq!(saturate_cycle(LAST_CYCLE), u32::MAX);
        assert_eq!(saturate_cycle(100), 100);
        let mut r = one_wire(1, 0, 4);
        let aged = |r: &mut Rig, injected_at, vcidx| {
            let pid = r.packet(1);
            r.slab.get_mut(pid).queued_at = saturate_cycle(injected_at);
            r.send(0, 0, pid, vcidx);
        };
        aged(&mut r, LAST_CYCLE + 10, 0);
        aged(&mut r, 100, 1);
        let (ws, slab) = (&r.ws, &r.slab);
        let winner = anton_arbiter::BitsetArbiter::age(8).pick_mask(
            0b11,
            |i| ws.gate(0, i as u8).pattern,
            |i| u64::from(slab.get(ws.head(0, i as u8)).queued_at),
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
        // streams of consumer-wake cycles and compare them at the end. The
        // two slabs hand out the same ids.
        let mut wakes_ideal = Vec::new();
        let mut wakes_lossy = Vec::new();
        let mut popped = 0;
        for t in 0..400u64 {
            let (mut ca, mut cb) = (false, false);
            for (r, wakes, credited) in [
                (&mut ideal, &mut wakes_ideal, &mut ca),
                (&mut lossy, &mut wakes_lossy, &mut cb),
            ] {
                r.ws.step(t, true, &mut r.slab, |_, end, at| match end {
                    End::Consumer => wakes.push(at),
                    End::Producer => *credited = true,
                });
                assert!(r.ws.next_event(0) > t, "a tick must consume its event");
            }
            assert_eq!(ca, cb, "credit wakes diverge at {t}");
            for (at, flits, vc) in [(5, 1, 0), (12, 2, 3)] {
                if t == at {
                    let (a, b) = (ideal.packet(flits), lossy.packet(flits));
                    assert_eq!(a, b);
                    wakes_ideal.extend(ideal.send(t, 0, a, vc));
                    assert_eq!(lossy.send(t, 0, b, vc), None);
                }
            }
            if t == 5 {
                assert_eq!(lossy.ws.next_event(0), 49, "the frame lands one latency on");
            }
            for vc in [0u8, 3] {
                if ideal.ws.ready_head(t, 0, vc).is_some() {
                    let (a, b) = (ideal.pop(t, 0, vc), lossy.pop(t, 0, vc));
                    assert_eq!(a, b, "delivered packets diverge at cycle {t}");
                    popped += 1;
                }
            }
        }
        assert_eq!(popped, 2, "both packets must arrive");
        assert_eq!(wakes_ideal, wakes_lossy, "consumer wake cycles diverge");
        assert_eq!(lossy.ws.next_event(0), u64::MAX);
        assert!(lossy.ws.is_quiescent());
        // Three frames: besides the bootstrap look, one tick to send the
        // second flit of the two-flit packet, one per frame landing, one
        // per ack landing (the two credit returns come off the credit wheel).
        assert_eq!(lossy.ws.work().0, 1 + 1 + 3 + 3, "ticks follow events");
        assert_eq!(ideal.ws.work().0, 1);
        ideal.check_credit_balance().unwrap();
        lossy.check_credit_balance().unwrap();
    }

    #[test]
    fn credit_balance_accounts_for_shim_queue() {
        // Link down forever: flits stay inside the shim, credits stay spent.
        let mut r = lossy_wire(10, 6, vec![(0, u64::MAX)]);
        r.step(0..=0);
        r.send_new(0, 0, 2, 0);
        r.step(1..=99);
        assert!(!r.ws.credit_gate(0, 0, 5));
        assert_eq!(r.ws.link_backlog(0), 2);
        r.check_credit_balance().unwrap();
        assert_ne!(
            r.ws.next_event(0),
            u64::MAX,
            "a stuck shim must keep the wire on the wheel"
        );
        assert!(!r.ws.is_quiescent());
    }

    #[test]
    fn link_drain_strands_or_requeues_each_undelivered_packet() {
        let mut r = lossy_wire(10, 6, vec![(0, 500)]);
        r.step(0..=0);
        let a = r.send_new(0, 0, 2, 0);
        r.step(1..=3);
        // The packet the drain keeps on the link, told apart by its hops.
        let keep = r.packet(1);
        r.slab.get_mut(keep).torus_hops = 1;
        r.send(3, 0, keep, 0);
        r.step(4..=4);
        let c = r.send_new(4, 0, 1, 4);
        r.step(5..=20);
        assert_eq!(r.ws.link_backlog(0), 4);
        let stranded = r.ws.drain_link(21, 0, &mut r.slab, |st| st.torus_hops == 1);
        assert_eq!(stranded, vec![a, c], "send order, minus what stays");
        assert_eq!(
            r.ws.link_backlog(0),
            1,
            "the kept packet re-entered the link"
        );
        assert_eq!((r.ws.credits(0, 0), r.ws.credits(0, 4)), (5, 6));
        assert_eq!(r.ws.flits_carried(0), 5, "a re-send crosses the wire again");
        for pid in stranded {
            r.slab.remove(pid);
        }
        r.check_credit_balance().unwrap();
        // The outage clears at 500; the next retransmission round (every
        // 192 cycles from 21) delivers what stayed.
        assert_eq!(r.step(21..=700), vec![(End::Consumer, 607)]);
        assert_eq!(r.pop(700, 0, 0), keep);
    }

    #[test]
    fn boundary_pair_hands_packets_and_credits_across() {
        let (mut export, mut import) = (spec(44, 1, 8), spec(44, 1, 8));
        export.role = BoundaryRole::Export;
        import.role = BoundaryRole::Import;
        let mut prod = Rig::new(vec![export]);
        let mut cons = Rig::new(vec![import]);
        let balance = |prod: &Rig, cons: &Rig| {
            u32::from(prod.ws.credits(0, 2)) + prod.accounted(2) + cons.accounted(2)
        };
        // Window [0, 44): the producer sends into its outbox.
        prod.step(0..=0);
        let p = prod.packet(2);
        assert_eq!(prod.send(0, 0, p, 2), None);
        assert!(!prod.ws.is_quiescent(), "the outbox holds a packet");
        assert_eq!(balance(&prod, &cons), 8);
        prod.step(1..=43);
        cons.step(0..=43);
        let mut mail = Vec::new();
        prod.ws.take_exports(0, &mut mail);
        assert_eq!(mail, vec![(p, 2)]);
        // The packet moves with its ready cycle, set by the producer's copy.
        let (state, cold) = prod.slab.remove(p);
        assert_eq!(state.ready_at, 46);
        let q = cons.slab.insert(state, cold);
        // The barrier files it straight into the receive buffer, where it
        // waits for that cycle.
        assert_eq!(cons.ws.import_packet(44, 0, q, 2, &mut cons.slab), 46);
        assert_eq!(balance(&prod, &cons), 8);
        // Window [44, 88): the consumer pops it once ready; the credit
        // return waits in its outbox for the barrier.
        for t in 44..46 {
            assert_eq!(cons.step(t..=t), vec![]);
            assert_eq!(cons.ready_pkt(t, 2), None, "ready early at {t}");
        }
        assert_eq!(cons.step(46..=46), vec![]);
        assert_eq!(cons.pop(46, 0, 2), q);
        assert_eq!(balance(&prod, &cons), 8);
        let mut credits = Vec::new();
        cons.ws.take_credit_exports(0, &mut credits);
        assert_eq!(credits, vec![(90, 2, 2)]);
        prod.step(44..=87);
        assert!(
            !prod.ws.credit_gate(0, 2, 7),
            "two of eight credits are away"
        );
        prod.ws.import_credit(88, 0, 90, 2, 2);
        assert_eq!(balance(&prod, &cons), 8, "its wheel holds the return");
        assert_eq!(prod.ws.next_event(0), u64::MAX, "nothing for the wheel");
        assert_eq!(prod.step(88..=90), vec![(End::Producer, 90)]);
        assert_eq!(prod.ws.credits(0, 2), 8);
        assert_eq!(balance(&prod, &cons), 8);
        assert!(prod.ws.is_quiescent() && cons.ws.is_quiescent());
        assert_eq!(
            (prod.ws.work().0, cons.ws.work().0),
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
    /// through what their representation has to get right. Returns the
    /// cycles and how many of them pass before every packet of the first
    /// step has arrived.
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
        // 3. Fill a second VC with ids the slab has never handed out, and
        //    wait for them too: fresh slab lines join mid-run, with a queue
        //    threaded through them.
        cycles.extend(repeat((true, (vc + 1) % 8, 1, 0), u64::from(depth)));
        cycles.extend(repeat(idle, latency + rx_pipeline));
        (cycles, arrived)
    }

    /// Drives `r` (one wire) through the [`opening`] and then `schedule`
    /// in lockstep with the model, checking every cycle that both show the
    /// same ready heads and the same credit, and that the store's credits
    /// and queues audit clean; then drains both. A popped packet leaves the
    /// slab at the end of its cycle, after the audit, and the slab hands its
    /// id out again last-freed-first.
    fn run_against_model(
        mut r: Rig,
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
        let mut popped: Vec<PacketId> = Vec::new();
        let (mut deepest, mut sent, mut ids_after_fill) = (0, 0, 0);
        let mut now = 0u64;
        loop {
            let cycle = cycles.get(now as usize).copied();
            let in_model = model.bufs.iter().any(|b| !b.is_empty()) || !model.returning.is_empty();
            if cycle.is_none() && !in_model {
                break;
            }
            prop_assert!(now < 4_000, "wire failed to drain");
            r.ws.step(now, false, &mut r.slab, |_, end, at| {
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
                prop_assert_eq!(r.ready_pkt(now, v), ready, "head of vc {} at {}", v, now);
                prop_assert_eq!(r.ws.credits(0, v as usize), model.credits[v as usize]);
                if ready.is_some() && pop_mask >> v & 1 != 0 {
                    let (_, pkt, f) = model.bufs[v as usize].pop_front().expect("ready head");
                    model.returning.push((now + model.latency, v, f));
                    expected.pops.push((now, pkt, v));
                    let pid = r.pop(now, 0, v);
                    seen.pops.push((now, pid.0, v));
                    popped.push(pid);
                }
            }
            let room = model.credits[vc as usize] >= flits;
            if send && now >= link_free_at {
                prop_assert_eq!(r.ws.credit_gate(0, vc, flits), room);
                if !room {
                    model.refused |= 1 << vc;
                }
            }
            if send && now >= link_free_at && room {
                let pid = r.packet(flits);
                sent += 1;
                let ready = now + model.latency + u64::from(flits) - 1 + model.rx_pipeline;
                model.credits[vc as usize] -= flits;
                model.bufs[vc as usize].push_back((ready, pid.0, flits));
                expected.consumer_wakes.insert(ready);
                seen.consumer_wakes.extend(r.send(now, 0, pid, vc));
                link_free_at = now + u64::from(flits);
            }
            let audit = r.check_credit_balance().and_then(|()| r.check_queues());
            if let Err(e) = audit {
                return Err(TestCaseError::fail(format!("cycle {now}: {e}")));
            }
            for pid in popped.drain(..) {
                r.slab.remove(pid);
            }
            let mut occupied = r.ws.occupied[0];
            while occupied != 0 {
                let v = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                deepest = deepest.max(r.ws.walk_queue(0, v, &r.slab).expect("audited").0);
            }
            if now as usize == arrived {
                ids_after_fill = r.slab.high_water();
            }
            now += 1;
        }
        prop_assert!(r.ws.is_quiescent());
        prop_assert_eq!(r.ws.next_event(0), u64::MAX, "nothing left to tick for");
        prop_assert_eq!(&seen, &expected);
        // The opening did what it is there for.
        prop_assert_eq!(deepest, usize::from(depth), "a VC must fill up");
        prop_assert!(sent > r.slab.high_water(), "ids must be recycled");
        prop_assert!(
            r.slab.high_water() > ids_after_fill,
            "fresh ids must join mid-run"
        );
        prop_assert_eq!(r.slab.live(), 0);
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
        /// buffer's depth, re-queueing a recycled packet id and threading
        /// a queue through ids the slab hands out mid-run, before the
        /// random part.
        ///
        /// Verified to fail when: `transmit` drops `flits - 1` from the
        /// tail arrival; a dense `pop` files its credit one credit-wheel
        /// slot late; a return wakes its producer unrefused, or leaves the
        /// refusal marked after waking it. And of the queues threaded
        /// through the slab: `file` moves `qhead` on every filing, does not
        /// advance `qtail`, does not link the old tail to the new one, or
        /// leaves the new tail's link unset; `pop` clears the occupied bit
        /// with packets still behind the head, does not advance `qhead`,
        /// leaves the gate of the popped head in place, pops the packet at
        /// `qtail`, or does not reset the popped packet's link.
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
