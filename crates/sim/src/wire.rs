//! Credit-flow-controlled channels.
//!
//! Every directed channel of the machine — mesh links, skip channels,
//! adapter links, and external torus channels — is a [`Wire`]: a fixed-
//! latency pipe whose receiving end holds per-VC input buffers, with
//! credit-based virtual cut-through flow control. The sender may only push a
//! packet when it holds enough credits for all of its flits; credits return
//! to the sender one link latency after the receiver drains the packet.
//!
//! Buffer entries carry a copy of the scheduling-relevant packet metadata
//! (flit count, class, pattern, age) and a per-hop route-computation cache,
//! so the simulator's switch-allocation loops never touch the packet slab
//! for blocked heads.

use std::collections::VecDeque;

use anton_core::trace::GlobalLink;
use anton_core::vc::{TrafficClass, Vc};
use anton_fault::{LinkShim, ShimStats};

use crate::state::PacketId;
use crate::wake::HORIZON;

/// Number of occupancy buckets tracked per VC: bucket `i` accumulates the
/// cycles the buffer held exactly `i` packets, with the last bucket
/// absorbing deeper occupancies.
pub const OCC_BUCKETS: usize = 16;

/// Upper bound on flattened VC indices per wire (two classes of at most
/// eight VCs), sizing the dense per-wire credit arrays the simulator keeps
/// outside the [`Wire`] structs for cache-friendly hot-path access.
pub const MAX_WIRE_VCS: usize = 16;

/// Dense sender-side credit counters of one wire, owned by the simulator
/// (see [`Sim`](crate::sim::Sim)) so switch-allocation credit checks scan a
/// compact array instead of chasing into scattered `Wire` structs.
pub type WireCredits = [u8; MAX_WIRE_VCS];

/// Dense head-of-buffer slots of one wire, also simulator-owned: the head
/// entry of VC `v` lives in slot `v` whenever the wire's occupied bit `v`
/// is set (the `Wire`'s own queues hold only the entries *behind* the
/// head). Switch allocation peeks blocked heads every cycle, so this is the
/// hottest state in the simulator — one dense load instead of a pointer
/// chase through per-VC deques.
pub type WireHeads = [BufEntry; MAX_WIRE_VCS];

/// Compact gating record of one VC head: the ready cycle plus everything the
/// per-cycle switch-allocation scans need to decide whether a head can move
/// (cached route, flit count for the credit check, pattern for weighted
/// arbitration). Packed to 8 bytes so one load fetches the whole gate and a
/// full 16-VC row spans two cache lines (one for the common 8-VC wires); the
/// full [`BufEntry`] is only loaded for heads that pass every gate.
///
/// Ready cycles are clamped to `u32` (simulated runs sit far below 2³²
/// cycles; the clamp is debug-asserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEntry {
    /// Head ready cycle.
    pub ready: u32,
    /// Route-computation cache: output port (`0xFF` = not yet computed).
    /// Receiving channel adapters reuse this slot as an arrival-kind cache
    /// (see the adapter steps in [`Sim`](crate::sim::Sim)).
    pub rc_port: u8,
    /// Route-computation cache: VC index on the output wire.
    pub rc_vcidx: u8,
    /// Flits the head packet occupies.
    pub flits: u8,
    /// Traffic-pattern tag.
    pub pattern: u8,
}

impl GateEntry {
    /// Placeholder for unoccupied head slots.
    pub const EMPTY: GateEntry = GateEntry {
        ready: 0,
        rc_port: 0xFF,
        rc_vcidx: 0,
        flits: 0,
        pattern: 0,
    };

    pub(crate) fn of(entry: &BufEntry) -> GateEntry {
        debug_assert!(entry.ready_at <= u64::from(u32::MAX), "cycle overflow");
        GateEntry {
            ready: entry.ready_at as u32,
            rc_port: entry.rc_port,
            rc_vcidx: entry.rc_vcidx,
            flits: entry.flits,
            pattern: entry.pattern,
        }
    }
}

/// Dense per-VC gating records of one wire (see [`GateEntry`]).
pub type WireGate = [GateEntry; MAX_WIRE_VCS];

/// The simulator-owned receive-side state of one wire, borrowed together
/// for the maintenance points ([`Wire::tick`], [`Wire::pop`]) that file and
/// promote head entries.
#[derive(Debug)]
pub struct WireRx<'a> {
    /// Bitmask of VCs holding at least one packet.
    pub occupied: &'a mut u16,
    /// Full head entry per VC (valid where `occupied` is set).
    pub heads: &'a mut [BufEntry],
    /// Head gating record per VC.
    pub gate: &'a mut [GateEntry],
    /// Bitmask of VCs holding at least one packet *behind* the head (the
    /// wire's internal queue is non-empty): when clear, a pop needs no
    /// promotion and the simulator's fast path can skip the wire entirely.
    pub queued: &'a mut u16,
}

impl WireRx<'_> {
    /// Files `entry` as VC `vcidx`'s head, refreshing the dense mirrors.
    #[inline]
    fn set_head(&mut self, entry: BufEntry, vcidx: u8) {
        self.gate[vcidx as usize] = GateEntry::of(&entry);
        self.heads[vcidx as usize] = entry;
        *self.occupied |= 1 << vcidx;
    }
}

/// Time-weighted per-VC buffer-occupancy tracking, allocated only when
/// [`crate::params::SimParams::collect_metrics`] is set.
#[derive(Debug, Clone)]
struct OccTracker {
    /// Cycle each VC's occupancy last changed.
    last_change: Vec<u64>,
    /// Current buffered packets per VC.
    occupancy: Vec<u16>,
    /// Cycles spent at each occupancy level, per VC.
    hist: Vec<[u64; OCC_BUCKETS]>,
}

impl OccTracker {
    fn new(nvcs: usize) -> OccTracker {
        OccTracker {
            last_change: vec![0; nvcs],
            occupancy: vec![0; nvcs],
            hist: vec![[0; OCC_BUCKETS]; nvcs],
        }
    }

    fn note(&mut self, now: u64, vcidx: usize, delta: i32) {
        let bucket = (self.occupancy[vcidx] as usize).min(OCC_BUCKETS - 1);
        self.hist[vcidx][bucket] += now - self.last_change[vcidx];
        self.last_change[vcidx] = now;
        self.occupancy[vcidx] = (i32::from(self.occupancy[vcidx]) + delta) as u16;
    }
}

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
/// sender state (credits, serializer, lossy-link shim) and diverts matured
/// packets into an outbox instead of its local receive buffers; the
/// consuming shard's copy carries the receive buffers and diverts credit
/// returns back toward the producer. Outboxes drain at window barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryRole {
    /// Not a boundary wire: both endpoints in the same shard (or a serial
    /// run). All traffic stays local.
    #[default]
    Interior,
    /// This shard owns the sender; matured packets go to the outbox.
    Export,
    /// This shard owns the receiver; credit returns go to the outbox.
    Import,
}

/// Scheduling metadata carried alongside a buffered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufEntry {
    /// The buffered packet.
    pub pkt: PacketId,
    /// Cycle at which the packet clears the receiver pipeline.
    pub ready_at: u64,
    /// Flits the packet occupies.
    pub flits: u8,
    /// Traffic class index.
    pub class: u8,
    /// Traffic-pattern tag.
    pub pattern: u8,
    /// Route-computation cache: output port at the receiving router
    /// (`0xFF` = not yet computed).
    pub rc_port: u8,
    /// Route-computation cache: VC index on the output wire.
    pub rc_vcidx: u8,
    /// Stamped chip-traversal route context: dense [`LocalAttach`] code of
    /// the packet's target adapter on the current chip (`0xFF` = unstamped;
    /// routers fall back to the packet slab). Stamped where the packet
    /// enters the mesh (injection or channel adapter), where its slab line
    /// is already hot; stable until the packet leaves the chip.
    ///
    /// [`LocalAttach`]: anton_core::chip::LocalAttach
    pub target: u8,
    /// Stamped VC/arrival context read together with [`BufEntry::target`]:
    /// bits 0–2 the M-group VC, bits 3–5 the T-group VC, bit 6 set when the
    /// packet arrived on an X-dimension torus link (skip-channel
    /// eligibility).
    pub meta: u8,
    /// Injection timestamp (age-based arbitration).
    pub age: u64,
}

impl BufEntry {
    /// Placeholder for unoccupied head slots and scratch arrays.
    pub const EMPTY: BufEntry = BufEntry {
        pkt: PacketId(0),
        ready_at: 0,
        flits: 0,
        class: 0,
        pattern: 0,
        rc_port: 0xFF,
        rc_vcidx: 0,
        target: 0xFF,
        meta: 0,
        age: 0,
    };
}

/// One directed, credit-controlled channel.
#[derive(Debug)]
pub struct Wire {
    /// The structural link this wire realizes.
    pub label: GlobalLink,
    /// Flight latency in cycles (tail flit timing).
    pub latency: u64,
    /// Receiver pipeline delay added before a buffered packet becomes
    /// eligible for forwarding (router RC/VA/SA stages).
    pub rx_pipeline: u64,
    /// VCs per traffic class on this wire.
    pub group_vcs: u8,
    /// Buffer depth per VC in flits.
    depth: u8,
    /// Packets in flight: `(tail_arrival_cycle, entry, vc_index)`, FIFO.
    in_flight: VecDeque<(u64, BufEntry, u8)>,
    /// Credits returning to the sender: `(arrival_cycle, vc_index, flits)`.
    credit_returns: VecDeque<(u64, u8, u8)>,
    /// Receiver-side buffers per VC index, holding only the entries behind
    /// the head (the head itself lives in the simulator-owned
    /// [`WireHeads`] slot, flagged by the occupied bit).
    bufs: Vec<VecDeque<BufEntry>>,
    /// Total flits ever sent on this wire (for utilization reporting).
    pub flits_carried: u64,
    /// Occupancy histogram state; `None` unless metrics collection is on.
    occ: Option<Box<OccTracker>>,
    /// Lossy-link shim; `None` (the ideal fixed-latency channel) unless a
    /// fault schedule installed one.
    shim: Option<Box<ShimState>>,
    /// Shard-boundary role (see [`BoundaryRole`]); `Interior` in serial
    /// runs.
    role: BoundaryRole,
    /// Matured packets awaiting transfer to the consuming shard
    /// (`Export` role only): `(maturity_cycle, entry, vc_index)`, in send
    /// order (ascending maturity per VC and globally, since sends are).
    outbox: Vec<(u64, BufEntry, u8)>,
    /// Credit returns awaiting transfer to the producing shard (`Import`
    /// role only): `(arrival_cycle, vc_index, flits)`, in pop order.
    outbox_credits: Vec<(u64, u8, u8)>,
}

impl Wire {
    /// Creates a wire with `group_vcs` VCs per class (two classes) and the
    /// given buffer depth per VC.
    pub fn new(
        label: GlobalLink,
        latency: u64,
        rx_pipeline: u64,
        group_vcs: u8,
        depth: u8,
    ) -> Wire {
        assert!(latency >= 1, "wires need at least one cycle of latency");
        assert!(
            group_vcs >= 1 && depth >= 2,
            "need VCs and room for a max-size packet"
        );
        let nvcs = 2 * group_vcs as usize;
        assert!(nvcs <= MAX_WIRE_VCS, "too many VCs for the credit arrays");
        Wire {
            label,
            latency,
            rx_pipeline,
            group_vcs,
            depth,
            in_flight: VecDeque::new(),
            credit_returns: VecDeque::new(),
            bufs: vec![VecDeque::new(); nvcs],
            flits_carried: 0,
            occ: None,
            shim: None,
            role: BoundaryRole::Interior,
            outbox: Vec::new(),
            outbox_credits: Vec::new(),
        }
    }

    /// Marks this wire's shard-boundary role. Call before any traffic flows.
    pub fn set_boundary_role(&mut self, role: BoundaryRole) {
        assert!(
            self.in_flight.is_empty() && self.bufs.iter().all(VecDeque::is_empty),
            "cannot change the boundary role of a wire carrying traffic"
        );
        self.role = role;
    }

    /// This wire's shard-boundary role.
    pub fn boundary_role(&self) -> BoundaryRole {
        self.role
    }

    /// The sender-side credit state a fresh wire starts with: every VC holds
    /// a full buffer's worth of credits.
    pub fn initial_credits(&self) -> WireCredits {
        let mut credits = [0u8; MAX_WIRE_VCS];
        for c in credits.iter_mut().take(self.num_vcs()) {
            *c = self.depth;
        }
        credits
    }

    /// Replaces the ideal channel with a lossy go-back-N link model. Call
    /// before any traffic flows.
    pub fn install_shim(&mut self, shim: LinkShim) {
        assert!(
            self.in_flight.is_empty() && self.bufs.iter().all(VecDeque::is_empty),
            "cannot install a shim on a wire carrying traffic"
        );
        self.shim = Some(Box::new(ShimState {
            shim,
            queue: VecDeque::new(),
        }));
    }

    /// Tears down an installed shim's go-back-N session (see
    /// `LinkShim::drain_reset`) and hands back every buffered entry the
    /// link layer had not yet delivered, restoring the sender-side credits
    /// their flits held. The caller re-routes the packets; the wire is
    /// left clean for the link's next up-window. Returns the drained
    /// entries in their original send order (empty without a shim, or
    /// when the shim is idle).
    pub fn drain_shim_undelivered(
        &mut self,
        now: u64,
        credits: &mut WireCredits,
    ) -> Vec<(BufEntry, u8)> {
        let Some(s) = &mut self.shim else {
            return Vec::new();
        };
        let pending = s.shim.drain_reset(now);
        debug_assert_eq!(
            pending,
            s.queue.len(),
            "shim pending packets out of sync with the wire's entry queue"
        );
        let _ = pending;
        let drained: Vec<(BufEntry, u8)> = s.queue.drain(..).collect();
        for &(entry, vcidx) in &drained {
            credits[vcidx as usize] += entry.flits;
            debug_assert!(
                credits[vcidx as usize] <= self.depth,
                "drain restored more credits than the buffer depth"
            );
        }
        drained
    }

    /// This wire's lossy-link counters, if a shim is installed.
    pub fn shim_stats(&self) -> Option<ShimStats> {
        self.shim.as_ref().map(|s| s.shim.stats())
    }

    /// Flits held inside the lossy-link shim (0 without a shim).
    pub fn shim_backlog(&self) -> u64 {
        self.shim.as_ref().map_or(0, |s| s.shim.backlog_flits())
    }

    /// Turns link-layer event logging (retransmissions, frame drops) on or
    /// off on the installed shim; a no-op without one. The flight recorder
    /// drains the log after each tick and each send via
    /// [`Wire::take_shim_events`].
    pub fn set_shim_event_recording(&mut self, on: bool) {
        if let Some(s) = &mut self.shim {
            s.shim.set_event_recording(on);
        }
    }

    /// Drains the shim's event log (empty, and allocation-free, when
    /// recording is off or no shim is installed).
    pub fn take_shim_events(&mut self) -> Vec<(u64, anton_fault::ShimEvent)> {
        self.shim
            .as_mut()
            .map_or_else(Vec::new, |s| s.shim.take_events())
    }

    /// Turns on time-weighted per-VC occupancy tracking (see
    /// [`Wire::occupancy_histograms`]). Call before any traffic flows.
    pub fn enable_occupancy_tracking(&mut self) {
        self.occ = Some(Box::new(OccTracker::new(self.num_vcs())));
    }

    /// Per-VC occupancy histograms up to `now`: `hist[vc][b]` is the number
    /// of cycles the VC's receive buffer held `b` packets (the last bucket
    /// absorbs occupancies ≥ [`OCC_BUCKETS`]` - 1`). `None` unless
    /// [`Wire::enable_occupancy_tracking`] was called.
    pub fn occupancy_histograms(&self, now: u64) -> Option<Vec<[u64; OCC_BUCKETS]>> {
        let t = self.occ.as_deref()?;
        let mut hist = t.hist.clone();
        for (vc, h) in hist.iter_mut().enumerate() {
            let bucket = (t.occupancy[vc] as usize).min(OCC_BUCKETS - 1);
            h[bucket] += now.saturating_sub(t.last_change[vc]);
        }
        Some(hist)
    }

    /// Total VC count (both classes).
    pub fn num_vcs(&self) -> usize {
        self.bufs.len()
    }

    /// Flattened VC index of `(class, vc)` on this wire.
    ///
    /// # Panics
    ///
    /// Panics if `vc` exceeds the wire's per-class VC count.
    pub fn vc_index(&self, class: TrafficClass, vc: Vc) -> u8 {
        assert!(
            vc.0 < self.group_vcs,
            "vc {vc} out of range for wire {} with {} VCs/class",
            self.label,
            self.group_vcs
        );
        class.index() as u8 * self.group_vcs + vc.0
    }

    /// Pushes a packet onto the wire, spending the sender's credits.
    ///
    /// On an ideal interior wire (no shim, no occupancy tracking) whose
    /// arrival fits inside the scheduler horizon, the entry is filed
    /// straight into the receive-side buffers — its `ready_at` stamp alone
    /// gates visibility, so no in-flight queue walk or per-arrival wire
    /// tick is needed. The returned cycle is when the consumer must be
    /// woken; `None` means arrival is handled by [`Wire::tick`] (or a
    /// window barrier, for boundary wires).
    ///
    /// # Panics
    ///
    /// Panics without sufficient credits; check the credit array first.
    pub fn send(
        &mut self,
        now: u64,
        mut entry: BufEntry,
        vcidx: u8,
        credits: &mut WireCredits,
        rx: &mut WireRx,
    ) -> Option<u64> {
        let flits = entry.flits;
        assert!(
            credits[vcidx as usize] >= flits,
            "send without credits on {}",
            self.label
        );
        credits[vcidx as usize] -= flits;
        self.flits_carried += u64::from(flits);
        entry.rc_port = 0xFF;
        if let Some(s) = &mut self.shim {
            // Lossy path: the packet's flits cross the go-back-N link; the
            // entry waits in the shim queue until the link layer delivers
            // its last flit.
            s.queue.push_back((entry, vcidx));
            s.shim.enqueue(now, flits);
            return None;
        }
        let tail_arrival = now + self.latency + u64::from(flits) - 1;
        entry.ready_at = tail_arrival + self.rx_pipeline;
        if self.role == BoundaryRole::Export {
            // The receiver lives in another shard: the matured entry ships
            // at the next window barrier instead of entering local buffers.
            self.outbox.push((tail_arrival, entry, vcidx));
            return None;
        }
        // Direct-file fast path. Timing is identical to the in-flight path
        // (`ready_at` gates the consumer either way); the gates keep the
        // slow cases exact: occupancy histograms must see arrivals on their
        // arrival cycle, per-VC FIFO order must not let a direct-filed
        // entry overtake one still in flight, and the consumer wake must
        // fit the wake wheel's horizon.
        if self.role == BoundaryRole::Interior
            && self.occ.is_none()
            && self.in_flight.is_empty()
            && entry.ready_at - now < HORIZON
        {
            let ready = entry.ready_at;
            if *rx.occupied & (1 << vcidx) == 0 {
                rx.set_head(entry, vcidx);
            } else {
                self.bufs[vcidx as usize].push_back(entry);
                *rx.queued |= 1 << vcidx;
            }
            return Some(ready);
        }
        self.in_flight.push_back((tail_arrival, entry, vcidx));
        None
    }

    /// Advances wire state to `now`: matured credits return to the sender
    /// and arrived packets enter the receive buffers.
    ///
    /// Returns `(arrival_ready, credited)`: the latest receiver-pipeline
    /// ready time among arrivals this cycle (to wake the consumer), and
    /// whether any credits returned (to wake the producer).
    pub fn tick(
        &mut self,
        now: u64,
        credits: &mut WireCredits,
        rx: &mut WireRx,
    ) -> (Option<u64>, bool) {
        let mut credited = false;
        while let Some(&(t, _, _)) = self.credit_returns.front() {
            if t > now {
                break;
            }
            let (_, vcidx, flits) = self.credit_returns.pop_front().expect("peeked");
            credits[vcidx as usize] += flits;
            credited = true;
            debug_assert!(credits[vcidx as usize] <= self.depth, "credit overflow");
        }
        let mut arrival_ready = None;
        while let Some(&(t, entry, vcidx)) = self.in_flight.front() {
            if t > now {
                break;
            }
            self.in_flight.pop_front();
            arrival_ready =
                Some(arrival_ready.map_or(entry.ready_at, |r: u64| r.max(entry.ready_at)));
            if let Some(t) = &mut self.occ {
                t.note(now, vcidx as usize, 1);
            }
            if *rx.occupied & (1 << vcidx) == 0 {
                rx.set_head(entry, vcidx);
            } else {
                self.bufs[vcidx as usize].push_back(entry);
                *rx.queued |= 1 << vcidx;
            }
        }
        if let Some(s) = &mut self.shim {
            let completed = s.shim.advance(now);
            for _ in 0..completed {
                let (mut entry, vcidx) = s
                    .queue
                    .pop_front()
                    .expect("shim completed a packet the wire never queued");
                entry.ready_at = now + self.rx_pipeline;
                if self.role == BoundaryRole::Export {
                    // Link-layer delivery completed toward a foreign shard:
                    // ship the entry at the barrier, tagged with the cycle
                    // it cleared the link.
                    self.outbox.push((now, entry, vcidx));
                    continue;
                }
                arrival_ready =
                    Some(arrival_ready.map_or(entry.ready_at, |r: u64| r.max(entry.ready_at)));
                if let Some(t) = &mut self.occ {
                    t.note(now, vcidx as usize, 1);
                }
                if *rx.occupied & (1 << vcidx) == 0 {
                    rx.set_head(entry, vcidx);
                } else {
                    self.bufs[vcidx as usize].push_back(entry);
                    *rx.queued |= 1 << vcidx;
                }
            }
        }
        (arrival_ready, credited)
    }

    /// Drains the export outbox (`(maturity_cycle, entry, vc_index)` in
    /// send order). Called at window barriers by the sharded kernel.
    pub fn take_outbox(&mut self, out: &mut Vec<(u64, BufEntry, u8)>) {
        out.append(&mut self.outbox);
    }

    /// Drains the credit-return outbox (`(arrival_cycle, vc_index, flits)`
    /// in pop order). Called at window barriers by the sharded kernel.
    pub fn take_outbox_credits(&mut self, out: &mut Vec<(u64, u8, u8)>) {
        out.append(&mut self.outbox_credits);
    }

    /// Files a packet arriving from the producing shard's copy of this wire
    /// (`Import` role). `window_start` is the first cycle of the window
    /// about to run.
    ///
    /// Two timing regimes, both exactly matching the serial kernel:
    ///
    /// * `mature >= window_start` (every ideal boundary wire — the flight
    ///   latency exceeds the window length): the entry joins `in_flight`
    ///   and the normal [`Wire::tick`] matures it on its exact cycle.
    /// * `mature < window_start` (lossy-link completions under the
    ///   one-cycle fault horizon): the entry is filed retroactively — the
    ///   occupancy clock is back-dated to `mature`, and the entry's
    ///   `ready_at` (`mature + rx_pipeline`) is already at or past
    ///   `window_start`, so no consumer could have observed it earlier.
    ///
    /// Returns the cycle the consumer must be woken at, if filing bypassed
    /// the in-flight queue.
    pub fn apply_import(
        &mut self,
        window_start: u64,
        mature: u64,
        entry: BufEntry,
        vcidx: u8,
        rx: &mut WireRx,
    ) -> Option<u64> {
        debug_assert_eq!(self.role, BoundaryRole::Import);
        if mature >= window_start {
            debug_assert!(self.in_flight.back().is_none_or(|&(t, _, _)| t <= mature));
            self.in_flight.push_back((mature, entry, vcidx));
            return None;
        }
        debug_assert!(entry.ready_at >= window_start, "import observable early");
        if let Some(t) = &mut self.occ {
            t.note(mature, vcidx as usize, 1);
        }
        let ready = entry.ready_at;
        if *rx.occupied & (1 << vcidx) == 0 {
            rx.set_head(entry, vcidx);
        } else {
            self.bufs[vcidx as usize].push_back(entry);
            *rx.queued |= 1 << vcidx;
        }
        Some(ready)
    }

    /// Files a credit return arriving from the consuming shard's copy of
    /// this wire (`Export` role). Credit arrival cycles are in pop order
    /// and at least one full link latency ahead of the window that popped
    /// them, so appending preserves the queue's maturity order.
    pub fn apply_credit_return(&mut self, at: u64, vcidx: u8, flits: u8) {
        debug_assert_eq!(self.role, BoundaryRole::Export);
        debug_assert!(self.credit_returns.back().is_none_or(|&(t, _, _)| t <= at));
        self.credit_returns.push_back((at, vcidx, flits));
    }

    /// Files a credit return onto the wire's own return queue: the
    /// simulator's fallback for [`Wire::pop_deferred`] returns maturing
    /// beyond its credit calendar's horizon. A wire's pops all take the
    /// same path (the maturity offset is its fixed latency), so queue
    /// order stays monotonic.
    pub fn file_credit_return(&mut self, at: u64, vcidx: u8, flits: u8) {
        debug_assert!(self.credit_returns.back().is_none_or(|&(t, _, _)| t <= at));
        self.credit_returns.push_back((at, vcidx, flits));
    }

    /// The earliest cycle at which ticking this wire can do anything: the
    /// front of the in-flight and credit-return queues (both FIFO in
    /// maturity order) and, with a lossy-link shim installed, the link
    /// layer's own next event (`LinkShim::next_event`: a frame or ack
    /// landing, or the next cycle a frame can go out). `u64::MAX` exactly
    /// when the wire is [`idle`](Wire::idle). A tick before that cycle is
    /// harmless and changes nothing.
    #[inline]
    pub fn next_event(&self) -> u64 {
        let arrival = self.in_flight.front().map_or(u64::MAX, |&(t, _, _)| t);
        let credit = self.credit_returns.front().map_or(u64::MAX, |&(t, _, _)| t);
        let link = self.shim.as_ref().map_or(u64::MAX, |s| s.shim.next_event());
        arrival.min(credit).min(link)
    }

    /// Whether the wire has no flits or credits in flight and its link
    /// layer (if any) has drained: nothing left to tick, ever, until the
    /// next send.
    #[inline]
    pub fn idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.credit_returns.is_empty()
            && self.shim.as_ref().is_none_or(|s| s.shim.idle())
    }

    /// Pops the head packet of a VC buffer, scheduling the credit return
    /// and promoting the next queued entry (if any) into the head slot.
    ///
    /// # Panics
    ///
    /// Panics if the VC's occupied bit is clear.
    pub fn pop(&mut self, now: u64, vcidx: u8, rx: &mut WireRx) -> BufEntry {
        let (entry, credit) = self.pop_deferred(now, vcidx, rx);
        if let Some((at, vcidx, flits)) = credit {
            self.credit_returns.push_back((at, vcidx, flits));
        }
        entry
    }

    /// [`Wire::pop`], but the credit return is handed back to the caller as
    /// `(maturity_cycle, vc_index, flits)` instead of entering this wire's
    /// own return queue — the simulator files it into its global credit
    /// calendar so draining it never touches the wire again. Import-role
    /// wires still route the return through their boundary outbox and hand
    /// back `None`.
    ///
    /// # Panics
    ///
    /// Panics if the VC's occupied bit is clear.
    pub fn pop_deferred(
        &mut self,
        now: u64,
        vcidx: u8,
        rx: &mut WireRx,
    ) -> (BufEntry, Option<(u64, u8, u8)>) {
        let bit = 1u16 << vcidx;
        assert!(*rx.occupied & bit != 0, "pop from empty VC buffer");
        let entry = rx.heads[vcidx as usize];
        if let Some(next) = self.bufs[vcidx as usize].pop_front() {
            rx.set_head(next, vcidx);
            if self.bufs[vcidx as usize].is_empty() {
                *rx.queued &= !bit;
            }
        } else {
            *rx.occupied &= !bit;
        }
        if let Some(t) = &mut self.occ {
            t.note(now, vcidx as usize, -1);
        }
        if self.role == BoundaryRole::Import {
            // The sender's credit pool lives in the producing shard: the
            // return ships at the next window barrier.
            self.outbox_credits
                .push((now + self.latency, vcidx, entry.flits));
            return (entry, None);
        }
        (entry, Some((now + self.latency, vcidx, entry.flits)))
    }

    /// Queues an entry behind an occupied head slot without going through
    /// [`Wire::send`]: the simulator's direct-file fast path spends credits
    /// and stamps `ready_at` itself and only needs the wire for the
    /// behind-the-head queue. The caller owns the dense `queued` mask and
    /// must set this VC's bit.
    #[inline]
    pub fn queue_behind_head(&mut self, entry: BufEntry, vcidx: u8) {
        self.bufs[vcidx as usize].push_back(entry);
    }

    /// Whether this wire is an ideal interior channel: no lossy-link shim,
    /// no occupancy tracking, not a shard boundary. Together with a flight
    /// time short enough for the wake wheel, this is what licenses the
    /// simulator's wire-bypassing send/pop fast paths.
    #[inline]
    pub fn is_ideal_interior(&self) -> bool {
        self.role == BoundaryRole::Interior && self.shim.is_none() && self.occ.is_none()
    }

    /// Whether any packet sits in flight or buffered. `occupied` is the
    /// wire's simulator-owned occupancy mask (head slots are not visible to
    /// the wire itself).
    pub fn is_quiescent(&self, occupied: u16) -> bool {
        occupied == 0
            && self.in_flight.is_empty()
            && self.shim.as_ref().is_none_or(|s| s.queue.is_empty())
            && self.outbox.is_empty()
    }

    /// Flits this wire copy is accountable for on VC `vc`, excluding the
    /// sender's credit pool: in flight, inside the shim, buffered at the
    /// receiver, returning as credits, or parked in a boundary outbox.
    ///
    /// For an interior wire, `credits[vc] + accounted_flits(vc)` equals the
    /// buffer depth. For a boundary wire the depth is accounted jointly by
    /// the producing copy's credits plus both copies' accounted flits.
    pub fn accounted_flits(&self, vc: usize, occupied: u16, heads: &[BufEntry]) -> u32 {
        let mut total = 0u32;
        for &(_, vcidx, flits) in &self.credit_returns {
            if usize::from(vcidx) == vc {
                total += u32::from(flits);
            }
        }
        for &(_, entry, vcidx) in &self.in_flight {
            if usize::from(vcidx) == vc {
                total += u32::from(entry.flits);
            }
        }
        if occupied & (1 << vc) != 0 {
            total += u32::from(heads[vc].flits);
        }
        for entry in &self.bufs[vc] {
            total += u32::from(entry.flits);
        }
        if let Some(s) = &self.shim {
            for &(entry, vcidx) in &s.queue {
                if usize::from(vcidx) == vc {
                    total += u32::from(entry.flits);
                }
            }
        }
        for &(_, entry, vcidx) in &self.outbox {
            if usize::from(vcidx) == vc {
                total += u32::from(entry.flits);
            }
        }
        for &(_, vcidx, flits) in &self.outbox_credits {
            if usize::from(vcidx) == vc {
                total += u32::from(flits);
            }
        }
        total
    }

    /// Buffer depth per VC in flits.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Verifies per-VC credit conservation: for every VC, the sender's
    /// credits plus every flit the wire is accountable for (in flight,
    /// inside the shim, buffered at the receiver, or returning as credits)
    /// must equal the buffer depth. Returns a diagnostic on violation.
    pub fn check_credit_balance(
        &self,
        credits: &WireCredits,
        occupied: u16,
        heads: &[BufEntry],
    ) -> Result<(), String> {
        for (vc, &credit) in credits.iter().enumerate().take(self.num_vcs()) {
            let total = u32::from(credit) + self.accounted_flits(vc, occupied, heads);
            if total != u32::from(self.depth) {
                return Err(format!(
                    "credit imbalance on {} vc {vc}: accounted {total} flits \
                     against depth {}",
                    self.label, self.depth
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::LocalEndpointId;
    use anton_core::chip::LocalLink;
    use anton_core::topology::NodeId;

    /// A wire plus the dense flow-control state the simulator owns for it.
    struct Harness {
        w: Wire,
        credits: WireCredits,
        occupied: u16,
        heads: WireHeads,
        gate: WireGate,
        queued: u16,
    }

    impl Harness {
        fn new(latency: u64, depth: u8) -> Harness {
            Harness::with_pipeline(latency, 0, depth)
        }

        fn with_pipeline(latency: u64, rx_pipeline: u64, depth: u8) -> Harness {
            let w = Wire::new(
                GlobalLink::Local {
                    node: NodeId(0),
                    link: LocalLink::EpToRouter(LocalEndpointId(0)),
                },
                latency,
                rx_pipeline,
                4,
                depth,
            );
            let credits = w.initial_credits();
            Harness {
                w,
                credits,
                occupied: 0,
                heads: [BufEntry::EMPTY; MAX_WIRE_VCS],
                gate: [GateEntry::EMPTY; MAX_WIRE_VCS],
                queued: 0,
            }
        }

        fn can_send(&self, vcidx: u8, flits: u8) -> bool {
            self.credits[vcidx as usize] >= flits
        }

        fn send(&mut self, now: u64, entry: BufEntry, vcidx: u8) -> Option<u64> {
            let mut rx = WireRx {
                occupied: &mut self.occupied,
                heads: &mut self.heads,
                gate: &mut self.gate,
                queued: &mut self.queued,
            };
            self.w.send(now, entry, vcidx, &mut self.credits, &mut rx)
        }

        fn tick(&mut self, now: u64) -> (Option<u64>, bool) {
            let mut rx = WireRx {
                occupied: &mut self.occupied,
                heads: &mut self.heads,
                gate: &mut self.gate,
                queued: &mut self.queued,
            };
            self.w.tick(now, &mut self.credits, &mut rx)
        }

        fn pop(&mut self, now: u64, vcidx: u8) -> BufEntry {
            let mut rx = WireRx {
                occupied: &mut self.occupied,
                heads: &mut self.heads,
                gate: &mut self.gate,
                queued: &mut self.queued,
            };
            self.w.pop(now, vcidx, &mut rx)
        }

        /// The head entry of a VC, if present and ready at `now` — the
        /// simulator-side peek against the dense head slots.
        fn head(&self, now: u64, vcidx: u8) -> Option<&BufEntry> {
            let e = &self.heads[vcidx as usize];
            (self.occupied & (1 << vcidx) != 0 && e.ready_at <= now).then_some(e)
        }

        fn check_credit_balance(&self) -> Result<(), String> {
            self.w
                .check_credit_balance(&self.credits, self.occupied, &self.heads)
        }
    }

    fn entry(pkt: u32, flits: u8) -> BufEntry {
        BufEntry {
            pkt: PacketId(pkt),
            ready_at: 0,
            flits,
            class: 0,
            pattern: 0,
            rc_port: 0xFF,
            rc_vcidx: 0,
            target: 0xFF,
            meta: 0,
            age: 0,
        }
    }

    #[test]
    fn packet_arrives_after_latency() {
        let mut h = Harness::new(3, 4);
        h.send(10, entry(7, 1), 0);
        for t in 10..13 {
            h.tick(t);
            assert!(h.head(t, 0).is_none(), "arrived early at {t}");
        }
        h.tick(13);
        assert_eq!(h.head(13, 0).unwrap().pkt, PacketId(7));
    }

    #[test]
    fn two_flit_packet_arrives_one_cycle_later() {
        let mut h = Harness::new(3, 4);
        h.send(0, entry(1, 2), 0);
        h.tick(3);
        assert!(h.head(3, 0).is_none());
        h.tick(4);
        assert_eq!(h.head(4, 0).unwrap().pkt, PacketId(1));
    }

    #[test]
    fn credits_block_and_return() {
        let mut h = Harness::new(2, 3);
        assert!(h.can_send(0, 2));
        h.send(0, entry(1, 2), 0);
        assert!(!h.can_send(0, 2), "only 1 credit left");
        assert!(h.can_send(0, 1));
        h.send(0, entry(2, 1), 0);
        assert!(!h.can_send(0, 1));
        // Drain at the receiver; credits return after the wire latency.
        h.tick(3);
        assert_eq!(h.pop(3, 0).pkt, PacketId(1));
        h.tick(4);
        assert!(!h.can_send(0, 2), "credits in flight");
        h.tick(5);
        assert!(h.can_send(0, 2), "credits should have returned");
    }

    #[test]
    fn vcs_are_independent() {
        let mut h = Harness::new(1, 2);
        h.send(0, entry(1, 2), 0);
        assert!(!h.can_send(0, 1));
        assert!(h.can_send(3, 2), "other VC unaffected");
        h.send(0, entry(2, 1), 3);
        h.tick(2);
        assert_eq!(h.head(2, 3).unwrap().pkt, PacketId(2));
        assert_eq!(h.occupied, 0b1001);
    }

    #[test]
    fn rx_pipeline_delays_readiness() {
        let mut h = Harness::with_pipeline(1, 3, 4);
        h.send(0, entry(9, 1), 1);
        h.tick(1);
        assert!(h.head(1, 1).is_none(), "pipeline stages not yet elapsed");
        h.tick(4);
        assert_eq!(h.head(4, 1).unwrap().pkt, PacketId(9));
    }

    #[test]
    fn occupied_mask_tracks_buffers() {
        let mut h = Harness::new(1, 4);
        assert_eq!(h.occupied, 0);
        h.send(0, entry(1, 1), 2);
        h.tick(1);
        assert_eq!(h.occupied, 0b100);
        h.pop(1, 2);
        assert_eq!(h.occupied, 0);
    }

    #[test]
    fn next_event_tracks_pending_maturities() {
        let mut h = Harness::new(3, 4);
        assert_eq!(h.w.next_event(), u64::MAX, "idle wire has no events");
        let ready = h.send(10, entry(7, 1), 0);
        assert_eq!(ready, Some(13), "direct-filed arrival wakes the consumer");
        assert_eq!(
            h.w.next_event(),
            u64::MAX,
            "direct-filed entries need no wire tick"
        );
        h.pop(13, 0);
        assert_eq!(h.w.next_event(), 16, "credit return in flight");
        h.tick(16);
        assert_eq!(h.w.next_event(), u64::MAX);
    }

    #[test]
    fn far_arrivals_and_tracked_wires_take_the_in_flight_path() {
        // Latency so long the consumer wake cannot fit the wake wheel:
        // the send must queue in flight and mature through `tick`.
        let mut h = Harness::new(100, 4);
        assert_eq!(h.send(0, entry(1, 1), 0), None);
        assert_eq!(h.w.next_event(), 100, "tail flit arrival queued");
        h.tick(100);
        assert_eq!(h.head(100, 0).unwrap().pkt, PacketId(1));
        // Occupancy tracking must observe arrivals on their arrival cycle,
        // so it also forces the in-flight path.
        let mut h = Harness::new(2, 4);
        h.w.enable_occupancy_tracking();
        assert_eq!(h.send(0, entry(2, 1), 0), None);
        assert_eq!(h.w.next_event(), 2);
        // A direct-filed send behind an in-flight entry would overtake it;
        // the fast path must wait until the queue drains.
        let mut h = Harness::new(60, 8);
        // Latency 60 + 2 flits - 1 = ready 61 < HORIZON: direct-filed.
        assert_eq!(h.send(0, entry(3, 2), 0), Some(61), "61-cycle ready fits");
        let mut h = Harness::new(63, 8);
        assert_eq!(h.send(0, entry(4, 2), 0), None, "64-cycle ready does not");
        assert_eq!(h.send(10, entry(5, 1), 0), None, "queued behind in-flight");
        h.tick(64);
        assert_eq!(h.pop(64, 0).pkt, PacketId(4), "FIFO order preserved");
        h.tick(73);
        assert_eq!(h.pop(73, 0).pkt, PacketId(5));
    }

    #[test]
    fn rc_cache_cleared_on_send() {
        let mut h = Harness::new(1, 4);
        let mut e = entry(1, 1);
        e.rc_port = 3;
        h.send(0, e, 0);
        h.tick(1);
        assert_eq!(
            h.head(1, 0).unwrap().rc_port,
            0xFF,
            "stale RC must not travel"
        );
    }

    #[test]
    fn vc_index_layout() {
        let h = Harness::new(1, 4);
        assert_eq!(h.w.vc_index(TrafficClass::Request, Vc(0)), 0);
        assert_eq!(h.w.vc_index(TrafficClass::Request, Vc(3)), 3);
        assert_eq!(h.w.vc_index(TrafficClass::Reply, Vc(0)), 4);
        assert_eq!(h.w.vc_index(TrafficClass::Reply, Vc(3)), 7);
    }

    #[test]
    #[should_panic(expected = "without credits")]
    fn overcommit_rejected() {
        let mut h = Harness::new(1, 2);
        h.send(0, entry(1, 2), 0);
        h.send(0, entry(2, 1), 0);
    }

    #[test]
    fn shim_at_zero_ber_matches_ideal_wire_cycle_for_cycle() {
        use anton_link::gobackn::GoBackNConfig;
        let gbn = GoBackNConfig {
            window: 64,
            timeout: 192,
        };
        let mut ideal = Harness::new(44, 8);
        let mut lossy = Harness::new(44, 8);
        lossy
            .w
            .install_shim(LinkShim::new(44, gbn, 0.0, Vec::new(), 1));
        // A single-flit and a two-flit packet, spaced like the serializer
        // would emit them (≥ 45/14 cycles apart per flit). The ideal wire
        // direct-files its sends (consumer wake returned from `send`); the
        // shim reports arrivals through `tick` — collect both streams of
        // consumer-wake cycles and compare them at the end. The ideal wire
        // is ticked every cycle; the lossy one only on the cycles its own
        // `next_event()` names, as the wire wheel would.
        let mut wakes_ideal = Vec::new();
        let mut wakes_lossy = Vec::new();
        wakes_ideal.extend(ideal.send(5, entry(1, 1), 0));
        lossy.send(5, entry(1, 1), 0);
        assert_eq!(lossy.w.next_event(), 49, "the frame lands one latency on");
        let mut popped = 0;
        let mut lossy_ticks = 0;
        for t in 5..400u64 {
            if t == 12 {
                wakes_ideal.extend(ideal.send(t, entry(2, 2), 3));
                lossy.send(t, entry(2, 2), 3);
            }
            let (ra, ca) = ideal.tick(t);
            wakes_ideal.extend(ra);
            assert!(lossy.w.next_event() >= t, "a due event went unticked");
            let mut cb = false;
            if lossy.w.next_event() == t {
                let (rb, credited) = lossy.tick(t);
                wakes_lossy.extend(rb);
                cb = credited;
                lossy_ticks += 1;
                assert!(lossy.w.next_event() > t, "a tick must consume its event");
            }
            assert_eq!(ca, cb, "credit wakeups diverge at cycle {t}");
            for vc in [0u8, 3] {
                if ideal.head(t, vc).is_some() {
                    let a = ideal.pop(t, vc);
                    let b = lossy.pop(t, vc);
                    assert_eq!(a, b, "delivered entries diverge at cycle {t}");
                    popped += 1;
                }
            }
        }
        assert_eq!(popped, 2, "both packets must arrive");
        assert_eq!(wakes_ideal, wakes_lossy, "consumer wake cycles diverge");
        assert!(lossy.w.idle() && lossy.w.next_event() == u64::MAX);
        // Three frames: one tick to send the second flit of the two-flit
        // packet, one per frame landing, one per ack landing (the two
        // credit returns land with the acks at 93 and 101).
        assert_eq!(lossy_ticks, 1 + 3 + 3, "ticks are per event, not per cycle");
        ideal.check_credit_balance().unwrap();
        lossy.check_credit_balance().unwrap();
    }

    #[test]
    fn credit_balance_accounts_for_shim_queue() {
        use anton_link::gobackn::GoBackNConfig;
        let gbn = GoBackNConfig {
            window: 64,
            timeout: 192,
        };
        let mut h = Harness::new(10, 6);
        // Link down forever: flits stay inside the shim, credits stay spent.
        h.w.install_shim(LinkShim::new(10, gbn, 0.0, vec![(0, u64::MAX)], 1));
        h.send(0, entry(1, 2), 0);
        for t in 1..100 {
            h.tick(t);
        }
        assert!(!h.can_send(0, 5));
        assert_eq!(h.w.shim_backlog(), 2);
        h.check_credit_balance().unwrap();
        assert!(!h.w.idle(), "a stuck shim must keep the wire active");
        assert!(!h.w.is_quiescent(h.occupied));
    }

    #[test]
    fn occupancy_histogram_weights_time_at_each_level() {
        let mut h = Harness::new(1, 4);
        assert!(
            h.w.occupancy_histograms(10).is_none(),
            "tracking is off by default"
        );
        h.w.enable_occupancy_tracking();
        // Arrives at cycle 1, occupancy 0 for cycles [0, 1).
        h.send(0, entry(1, 1), 0);
        h.tick(1);
        // Occupancy 1 for cycles [1, 5), then drained.
        h.pop(5, 0);
        let hist = h.w.occupancy_histograms(10).expect("tracking enabled");
        assert_eq!(hist[0][0], 1 + 5, "empty before arrival and after drain");
        assert_eq!(hist[0][1], 4, "held one packet for four cycles");
        assert!(hist[0][2..].iter().all(|&c| c == 0));
        // Untouched VCs accrue everything in the empty bucket.
        assert_eq!(hist[3][0], 10);
    }
}
