//! Lossy-link shim: go-back-N under fire, embedded in a simulated channel.
//!
//! A [`LinkShim`] sits between a torus `Wire`'s send side and its receive
//! buffers. The wire enqueues each packet's flits; the shim pushes them
//! through the real [`anton_link`] go-back-N sender, frames them, corrupts
//! or drops them according to the link's fault profile, runs the receiver,
//! and reports how many *packets* finished crossing the link each cycle.
//! The wire keeps the actual packet queue (delivery is strictly FIFO, which
//! go-back-N guarantees), so the shim itself stays packet-agnostic.
//!
//! State is O(window) per link direction, whatever traffic it carries: the
//! sender's unacknowledged frames, the frames and acks on the wire (at most
//! one a cycle each way over the latency), and the flit counts of queued
//! packets. Each flit's payload carries its serial, and the shim checks it
//! the moment the receiver accepts the frame — in order, exactly once —
//! so nothing delivered is kept.
//!
//! Rate model: a token bucket with the same gain/cost ratio as the
//! serializer's (14/45 ≈ 0.311 frames per cycle — exactly the 112 Gb/s raw
//! lane rate at 240 bits per frame and 1.5 GHz), but with a deeper bucket
//! (two frames' worth). Because the upstream serializer already meters
//! goodput at 14/45 flits per cycle with a shallower bucket, the shim adds
//! *zero* delay on a fault-free link — every flit completes on the exact
//! cycle the ideal wire would deliver it — while retransmissions correctly
//! consume link bandwidth when frames are lost.

use std::collections::VecDeque;

use anton_core::timing::{TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};
use anton_link::frame::{Frame, FRAME_BYTES};
use anton_link::gobackn::{GoBackNConfig, Receiver, Sender};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bucket depth: two frames, so the shim can absorb the serializer's own
/// burstiness (its bucket holds `cost + gain - 1` tokens) without ever
/// becoming the tighter bottleneck. The shim meters frames at the
/// serializer's rate: it earns [`TORUS_TOKEN_GAIN`] tokens a cycle and
/// spends [`TORUS_TOKEN_COST`] a frame.
const TOKEN_CAP: u64 = 2 * TORUS_TOKEN_COST as u64;
/// Bits per frame on the wire, for converting bit-error rate to a per-frame
/// corruption probability.
const FRAME_BITS: u32 = FRAME_BYTES as u32 * 8;

/// Counters accumulated by one link shim (or aggregated across shims).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Data frames put on the wire, including retransmissions.
    pub frames_sent: u64,
    /// Data frames that were retransmissions.
    pub retransmissions: u64,
    /// Data frames lost to corruption or outage.
    pub data_frames_dropped: u64,
    /// Ack frames lost to corruption or outage.
    pub ack_frames_dropped: u64,
    /// Flits delivered in order out of the link layer.
    pub flits_delivered: u64,
}

impl ShimStats {
    /// Accumulates another shim's counters into this one.
    pub fn merge(&mut self, other: &ShimStats) {
        self.frames_sent += other.frames_sent;
        self.retransmissions += other.retransmissions;
        self.data_frames_dropped += other.data_frames_dropped;
        self.ack_frames_dropped += other.ack_frames_dropped;
        self.flits_delivered += other.flits_delivered;
    }

    /// Fraction of data frames that were retransmissions (0 when idle).
    pub fn retransmission_overhead(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.retransmissions as f64 / self.frames_sent as f64
        }
    }
}

/// A cycle-stamped link-layer occurrence, recorded only when event
/// recording is switched on (see [`LinkShim::set_event_recording`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShimEvent {
    /// A data frame was retransmitted (timeout or go-back-N rewind).
    Retransmit,
    /// A data frame was lost to corruption or outage.
    DataFrameDropped,
    /// An ack frame was lost to corruption or outage.
    AckFrameDropped,
}

/// One direction of one lossy external torus link.
pub struct LinkShim {
    /// One-way propagation delay in cycles (same as the ideal wire's).
    latency: u64,
    /// Per-frame corruption probability, `1 - (1 - ber)^240`.
    frame_loss_p: f64,
    /// Outage windows `[from, until)`.
    downs: Vec<(u64, u64)>,
    /// Go-back-N parameters, kept so [`LinkShim::drain_reset`] can restart
    /// the session with a fresh sender.
    go_back_n: GoBackNConfig,
    tx: Sender,
    rx: Receiver,
    /// Data frames in flight toward the receiver (`None` = lost).
    forward: VecDeque<(u64, Option<Frame>)>,
    /// Cumulative acks in flight back toward the sender (`None` = lost).
    reverse: VecDeque<(u64, Option<u8>)>,
    /// Flit counts of packets queued through the shim, FIFO.
    pending: VecDeque<u8>,
    /// Flits of the front pending packet already delivered.
    head_done: u8,
    /// Serial of the next flit to enqueue (payloads carry serials so the
    /// shim can self-check in-order exactly-once delivery).
    next_enqueue: u64,
    /// Serial of the next flit to offer into the go-back-N window.
    next_offer: u64,
    /// Serial the next delivered flit must carry.
    next_expect: u64,
    tokens: u64,
    tokens_at: u64,
    /// Cycle of the last data-frame transmission (at most one per cycle).
    last_tx: Option<u64>,
    rng: StdRng,
    data_frames_dropped: u64,
    ack_frames_dropped: u64,
    flits_delivered: u64,
    /// Sender counters accumulated across [`LinkShim::drain_reset`] calls
    /// (each reset rebuilds the sender, zeroing its own counters).
    prior_frames_sent: u64,
    prior_retransmissions: u64,
    /// Cycle-stamped event log; `None` (the default) records nothing, so
    /// the fault path's behavior and cost are unchanged unless a flight
    /// recorder asks for events.
    events: Option<Vec<(u64, ShimEvent)>>,
}

impl std::fmt::Debug for LinkShim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkShim")
            .field("latency", &self.latency)
            .field("frame_loss_p", &self.frame_loss_p)
            .field("downs", &self.downs)
            .field("pending", &self.pending.len())
            .field("in_window", &self.tx.in_flight())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl LinkShim {
    /// Creates a shim for one link direction.
    ///
    /// `latency` is the ideal wire's propagation delay; `gbn` the go-back-N
    /// window and timeout (the simulator's shims take [`crate::SHIM_WINDOW`]
    /// and [`crate::SHIM_TIMEOUT`]); `ber` the per-bit error probability;
    /// `downs` outage windows; `seed` this link's independent RNG stream
    /// (see `FaultSchedule::link_seed`).
    pub fn new(
        latency: u64,
        gbn: GoBackNConfig,
        ber: f64,
        downs: Vec<(u64, u64)>,
        seed: u64,
    ) -> LinkShim {
        assert!((0.0..1.0).contains(&ber), "bit-error rate must be in [0,1)");
        let frame_loss_p = 1.0 - (1.0 - ber).powi(FRAME_BITS as i32);
        LinkShim {
            latency,
            frame_loss_p,
            downs,
            go_back_n: gbn,
            tx: Sender::new(gbn),
            rx: Receiver::new(),
            forward: VecDeque::new(),
            reverse: VecDeque::new(),
            pending: VecDeque::new(),
            head_done: 0,
            next_enqueue: 0,
            next_offer: 0,
            next_expect: 0,
            tokens: TOKEN_CAP,
            tokens_at: 0,
            last_tx: None,
            rng: StdRng::seed_from_u64(seed),
            data_frames_dropped: 0,
            ack_frames_dropped: 0,
            flits_delivered: 0,
            prior_frames_sent: 0,
            prior_retransmissions: 0,
            events: None,
        }
    }

    /// Tears down the link-layer session when the link goes `Down`:
    /// discards every frame in flight, the retransmission window, and all
    /// queued packets, and restarts the sender/receiver state machines
    /// with realigned flit serials. Returns how many packets were still
    /// queued (including a partially delivered head packet) — the caller
    /// owns the actual packet queue and must requeue exactly those
    /// entries through a higher-level recovery path, exactly once.
    /// Cumulative statistics survive the reset.
    pub fn drain_reset(&mut self, now: u64) -> usize {
        let undelivered = self.pending.len();
        self.prior_frames_sent += self.tx.frames_sent;
        self.prior_retransmissions += self.tx.retransmissions;
        self.tx = Sender::new(self.go_back_n);
        self.rx = Receiver::new();
        self.forward.clear();
        self.reverse.clear();
        self.pending.clear();
        self.head_done = 0;
        // Serials stay monotonic across sessions so the in-order
        // self-check keeps holding after the restart.
        self.next_offer = self.next_enqueue;
        self.next_expect = self.next_enqueue;
        self.tokens = TOKEN_CAP;
        self.tokens_at = now;
        self.last_tx = None;
        undelivered
    }

    /// Switches cycle-stamped event recording on or off. Turning it off
    /// discards any events not yet taken.
    pub fn set_event_recording(&mut self, on: bool) {
        self.events = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the events recorded since the last call; empty (and free of
    /// allocation) when recording is off.
    pub fn take_events(&mut self) -> Vec<(u64, ShimEvent)> {
        match &mut self.events {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    #[inline]
    fn log_event(&mut self, now: u64, ev: ShimEvent) {
        if let Some(log) = &mut self.events {
            log.push((now, ev));
        }
    }

    /// Queues one packet of `flits` flits into the link and immediately
    /// tries to transmit (so a fault-free single-flit packet departs the
    /// same cycle, matching the ideal wire's timing).
    pub fn enqueue(&mut self, now: u64, flits: u8) {
        assert!(flits > 0, "packets carry at least one flit");
        self.pending.push_back(flits);
        self.next_enqueue += u64::from(flits);
        self.pump(now);
    }

    /// Advances the link by one cycle: lands acks and data frames whose
    /// propagation delay has elapsed, checks each flit the receiver
    /// accepts, and (re)transmits. Returns how many packets finished
    /// crossing the link this cycle; the caller pops that many from its
    /// own FIFO.
    pub fn advance(&mut self, now: u64) -> u32 {
        let mut completed = 0;
        while self.reverse.front().is_some_and(|&(t, _)| t <= now) {
            let (_, ack) = self.reverse.pop_front().unwrap();
            if let Some(ack) = ack {
                self.tx.on_ack(ack, now);
            }
        }
        while self.forward.front().is_some_and(|&(t, _)| t <= now) {
            let (_, frame) = self.forward.pop_front().unwrap();
            if let Some(frame) = frame {
                let before = self.rx.expected();
                let ack = self.rx.on_frame(&frame);
                if ack != before {
                    completed += self.accept(&frame);
                }
                if self.lose(now) {
                    self.ack_frames_dropped += 1;
                    self.log_event(now, ShimEvent::AckFrameDropped);
                    self.reverse.push_back((now + self.latency, None));
                } else {
                    self.reverse.push_back((now + self.latency, Some(ack)));
                }
            }
        }
        self.pump(now);
        completed
    }

    /// The earliest cycle at which [`LinkShim::advance`] can do anything:
    /// the next data frame or ack to land, or the next cycle a frame can be
    /// put on the link — when the sender has one to (re)send, the token
    /// bucket holds a frame's worth, and this cycle's slot is free.
    /// `u64::MAX` exactly when [`LinkShim::idle`]. Between `advance(now)`
    /// and that cycle, calling `advance` changes nothing (the token refill
    /// is lazy and saturating, the RNG is drawn only when a frame or ack
    /// goes onto the link), so a caller may tick only then, or every
    /// cycle, with identical results.
    pub fn next_event(&self) -> u64 {
        let data = self.forward.front().map_or(u64::MAX, |&(t, _)| t);
        let ack = self.reverse.front().map_or(u64::MAX, |&(t, _)| t);
        let tokens_due = self.tokens_at
            + u64::from(TORUS_TOKEN_COST)
                .saturating_sub(self.tokens)
                .div_ceil(u64::from(TORUS_TOKEN_GAIN));
        let slot_free = self.last_tx.map_or(0, |t| t + 1);
        let transmit = self.tx.next_frame_slot().max(tokens_due).max(slot_free);
        data.min(ack).min(transmit)
    }

    /// Whether the link has fully drained: no queued packets, no frames in
    /// flight, and no unacknowledged frames awaiting (re)transmission.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.forward.is_empty()
            && self.reverse.is_empty()
            && self.tx.in_flight() == 0
    }

    /// Flits currently inside the shim (enqueued but not yet delivered).
    pub fn backlog_flits(&self) -> u64 {
        self.next_enqueue - self.next_expect
    }

    /// Packets currently queued through the shim.
    pub fn backlog_packets(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this link's counters.
    pub fn stats(&self) -> ShimStats {
        ShimStats {
            frames_sent: self.prior_frames_sent + self.tx.frames_sent,
            retransmissions: self.prior_retransmissions + self.tx.retransmissions,
            data_frames_dropped: self.data_frames_dropped,
            ack_frames_dropped: self.ack_frames_dropped,
            flits_delivered: self.flits_delivered,
        }
    }

    /// Takes the flit the receiver has just accepted from `frame`:
    /// self-checks its serial (in order, exactly once) and returns 1 when it
    /// completes the head packet, else 0.
    fn accept(&mut self, frame: &Frame) -> u32 {
        let serial = u64::from_le_bytes(frame.payload[..8].try_into().unwrap());
        assert_eq!(
            serial, self.next_expect,
            "lossy-link shim: go-back-N delivered flit {serial} while \
             expecting {} (out-of-order or duplicated delivery)",
            self.next_expect
        );
        self.next_expect += 1;
        self.flits_delivered += 1;
        self.head_done += 1;
        let head = *self
            .pending
            .front()
            .expect("delivered flit without a pending packet");
        if self.head_done < head {
            return 0;
        }
        self.pending.pop_front();
        self.head_done = 0;
        1
    }

    /// Offers queued flits into the window and transmits at most one data
    /// frame (token bucket permitting).
    fn pump(&mut self, now: u64) {
        self.tokens =
            (self.tokens + u64::from(TORUS_TOKEN_GAIN) * (now - self.tokens_at)).min(TOKEN_CAP);
        self.tokens_at = now;
        while self.next_offer < self.next_enqueue && self.tx.can_accept() {
            let mut payload = [0u8; 24];
            payload[..8].copy_from_slice(&self.next_offer.to_le_bytes());
            self.tx.offer(payload);
            self.next_offer += 1;
        }
        if self.last_tx == Some(now) || self.tokens < u64::from(TORUS_TOKEN_COST) {
            return;
        }
        let retrans_before = self.tx.retransmissions;
        if let Some(frame) = self.tx.next_frame(now, self.rx.expected()) {
            self.tokens -= u64::from(TORUS_TOKEN_COST);
            self.last_tx = Some(now);
            if self.tx.retransmissions > retrans_before {
                self.log_event(now, ShimEvent::Retransmit);
            }
            if self.lose(now) {
                self.data_frames_dropped += 1;
                self.log_event(now, ShimEvent::DataFrameDropped);
                self.forward.push_back((now + self.latency, None));
            } else {
                self.forward.push_back((now + self.latency, Some(frame)));
            }
        }
    }

    /// Whether a frame put on the wire at `now` is lost: always during an
    /// outage window, otherwise with the per-frame corruption probability.
    fn lose(&mut self, now: u64) -> bool {
        if self
            .downs
            .iter()
            .any(|&(from, until)| from <= now && now < until)
        {
            return true;
        }
        self.frame_loss_p > 0.0 && self.rng.gen_bool(self.frame_loss_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert, prop_assert_eq};

    fn gbn() -> GoBackNConfig {
        GoBackNConfig {
            window: 64,
            timeout: 192,
        }
    }

    /// Drives the shim to completion, returning (cycle, packets) pairs.
    fn drain(shim: &mut LinkShim, mut now: u64, budget: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let stop = now + budget;
        while !shim.idle() && now < stop {
            now += 1;
            let done = shim.advance(now);
            if done > 0 {
                out.push((now, done));
            }
        }
        assert!(shim.idle(), "shim failed to drain within {budget} cycles");
        out
    }

    #[test]
    fn fault_free_single_flit_matches_ideal_wire_timing() {
        let mut shim = LinkShim::new(44, gbn(), 0.0, Vec::new(), 1);
        shim.enqueue(100, 1);
        let events = drain(&mut shim, 100, 1000);
        // Ideal wire: tail arrives at send + latency.
        assert_eq!(events, vec![(144, 1)]);
        assert_eq!(shim.stats().retransmissions, 0);
    }

    #[test]
    fn fault_free_two_flit_packet_takes_one_extra_cycle() {
        let mut shim = LinkShim::new(44, gbn(), 0.0, Vec::new(), 1);
        shim.enqueue(100, 2);
        let events = drain(&mut shim, 100, 1000);
        // Ideal wire: tail arrival = send + latency + flits - 1.
        assert_eq!(events, vec![(145, 1)]);
    }

    #[test]
    fn lossy_link_retransmits_and_still_delivers_in_order() {
        let mut shim = LinkShim::new(44, gbn(), 2e-3, Vec::new(), 7);
        let mut now = 0;
        for _ in 0..50 {
            shim.enqueue(now, 2);
            now += 3;
        }
        let events = drain(&mut shim, now, 2_000_000);
        let total: u32 = events.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 50);
        let s = shim.stats();
        assert_eq!(s.flits_delivered, 100);
        assert!(s.retransmissions > 0, "2e-3 BER must force retransmissions");
        assert!(s.frames_sent >= 100 + s.retransmissions);
    }

    #[test]
    fn outage_stalls_then_recovers() {
        let mut shim = LinkShim::new(10, gbn(), 0.0, vec![(0, 500)], 3);
        shim.enqueue(0, 1);
        let events = drain(&mut shim, 0, 10_000);
        assert_eq!(events.len(), 1);
        let (cycle, _) = events[0];
        assert!(cycle >= 500, "nothing can cross during the outage");
        assert!(shim.stats().data_frames_dropped > 0);
    }

    #[test]
    fn permanent_outage_never_goes_idle() {
        let mut shim = LinkShim::new(10, gbn(), 0.0, vec![(0, u64::MAX)], 3);
        shim.enqueue(0, 1);
        for now in 1..5_000 {
            assert_eq!(shim.advance(now), 0);
        }
        assert!(!shim.idle());
        assert_eq!(shim.backlog_flits(), 1);
    }

    #[test]
    fn event_recording_matches_counters_and_never_perturbs_delivery() {
        let run = |record: bool| {
            let mut shim = LinkShim::new(44, gbn(), 2e-3, Vec::new(), 7);
            shim.set_event_recording(record);
            let mut now = 0;
            for _ in 0..50 {
                shim.enqueue(now, 2);
                now += 3;
            }
            let mut events = Vec::new();
            let stop = now + 2_000_000;
            let mut deliveries = Vec::new();
            while !shim.idle() && now < stop {
                now += 1;
                let done = shim.advance(now);
                if done > 0 {
                    deliveries.push((now, done));
                }
                events.extend(shim.take_events());
            }
            (deliveries, shim.stats(), events)
        };
        let (del_on, stats_on, events) = run(true);
        let (del_off, stats_off, no_events) = run(false);
        assert_eq!(del_on, del_off, "recording must not change timing");
        assert_eq!(stats_on, stats_off);
        assert!(no_events.is_empty());
        let count = |kind| events.iter().filter(|&&(_, e)| e == kind).count() as u64;
        assert_eq!(count(ShimEvent::Retransmit), stats_on.retransmissions);
        assert_eq!(
            count(ShimEvent::DataFrameDropped),
            stats_on.data_frames_dropped
        );
        assert_eq!(
            count(ShimEvent::AckFrameDropped),
            stats_on.ack_frames_dropped
        );
        assert!(
            events.windows(2).all(|w| w[0].0 <= w[1].0),
            "events are cycle-ordered"
        );
    }

    #[test]
    fn drain_reset_requeues_backlog_and_preserves_stats() {
        // Ten 2-flit packets into a 64-frame window; the link dies while
        // most are still in flight.
        let mut shim = LinkShim::new(44, gbn(), 0.0, vec![(10, u64::MAX)], 1);
        let mut delivered = 0;
        for _ in 0..10 {
            shim.enqueue(0, 2);
        }
        for now in 1..200 {
            delivered += shim.advance(now);
        }
        assert!(!shim.idle(), "permanent outage keeps the shim backlogged");
        let sent_before = shim.stats().frames_sent;
        assert!(sent_before > 0);
        let undelivered = shim.drain_reset(200);
        assert_eq!(undelivered as u32 + delivered, 10);
        assert!(shim.idle(), "reset leaves a clean session");
        assert_eq!(shim.backlog_flits(), 0);
        assert_eq!(
            shim.stats().frames_sent,
            sent_before,
            "cumulative stats survive the reset"
        );
        // The fresh session works: requeue and deliver on a healed link.
        let mut healed = shim;
        healed.downs.clear();
        for _ in 0..undelivered {
            healed.enqueue(200, 2);
        }
        let events = drain(&mut healed, 200, 10_000);
        let total: u32 = events.iter().map(|&(_, n)| n).sum();
        assert_eq!(total as usize, undelivered);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// The Down-mid-window recovery contract: whatever cycle the link
        /// dies at — before, during, or after the burst; mid-frame,
        /// mid-window, or mid-ack — a `drain_reset` plus requeue of
        /// exactly the reported backlog delivers every packet exactly
        /// once, in order, with no duplicates and no losses.
        #[test]
        fn down_mid_window_requeues_exactly_once(
            onset in 1u64..400,
            outage in 1u64..300,
            flits in proptest::collection::vec(1u8..5, 3..18),
            gap in 0u64..6,
            seed in 0u64..1000,
        ) {
            let total = flits.len() as u32;
            let mut shim = LinkShim::new(44, gbn(), 0.0, vec![(onset, onset + outage)], seed);
            // FIFO of packet ids mirroring the wire's own queue.
            let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
            let mut delivered: Vec<u32> = Vec::new();
            let mut now = 0;
            for (id, &f) in flits.iter().enumerate() {
                shim.enqueue(now, f);
                queue.push_back(id as u32);
                now += gap;
            }
            // Run up to the Down onset, collecting completions.
            while now < onset {
                now += 1;
                for _ in 0..shim.advance(now) {
                    delivered.push(queue.pop_front().expect("completion without a queued packet"));
                }
            }
            // Link declared Down: tear the session down and requeue the
            // reported backlog exactly once, after the outage ends.
            let undelivered = shim.drain_reset(now);
            prop_assert_eq!(undelivered, queue.len(), "backlog mismatch at reset");
            now = onset + outage;
            let requeued: Vec<u32> = queue.iter().copied().collect();
            for &id in &requeued {
                let f = flits[id as usize];
                shim.enqueue(now, f);
            }
            let deadline = now + 100_000;
            while !shim.idle() && now < deadline {
                now += 1;
                for _ in 0..shim.advance(now) {
                    delivered.push(queue.pop_front().expect("completion without a queued packet"));
                }
            }
            prop_assert!(shim.idle(), "shim failed to drain after the outage");
            prop_assert!(queue.is_empty());
            prop_assert_eq!(delivered.len() as u32, total, "every packet exactly once");
            // FIFO order is preserved end to end, so the delivered ids are
            // exactly 0..n in order — no duplicate, no loss, no reorder.
            let expect: Vec<u32> = (0..total).collect();
            prop_assert_eq!(&delivered, &expect);
        }
    }

    /// One shim under the differential test, plus everything observable
    /// about it: the caller-side packet FIFO, the `(cycle, completions)`
    /// stream and the recorded link-layer events.
    struct Observed {
        shim: LinkShim,
        queue: VecDeque<u8>,
        completions: Vec<(u64, u32)>,
        events: Vec<(u64, ShimEvent)>,
    }

    impl Observed {
        fn new(shim: LinkShim) -> Observed {
            let mut o = Observed {
                shim,
                queue: VecDeque::new(),
                completions: Vec::new(),
                events: Vec::new(),
            };
            o.shim.set_event_recording(true);
            o
        }

        fn tick(&mut self, now: u64) {
            let done = self.shim.advance(now);
            if done > 0 {
                self.completions.push((now, done));
                self.queue.drain(..done as usize);
            }
            self.events.extend(self.shim.take_events());
            assert!(
                self.shim.next_event() > now,
                "advance({now}) left an event due at {}",
                self.shim.next_event()
            );
        }

        fn enqueue(&mut self, now: u64, flits: u8) {
            self.queue.push_back(flits);
            self.shim.enqueue(now, flits);
            self.events.extend(self.shim.take_events());
        }

        /// The Down-onset recovery: tear the session down and requeue the
        /// reported backlog through the fresh one.
        fn reset_and_requeue(&mut self, now: u64) {
            let undelivered = self.shim.drain_reset(now);
            assert_eq!(undelivered, self.queue.len(), "backlog mismatch at reset");
            for flits in std::mem::take(&mut self.queue) {
                self.enqueue(now, flits);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The event-driven contract: a shim ticked only on the cycles its
        /// own `next_event()` names (plus a sprinkling of spurious ticks)
        /// is indistinguishable from one ticked every cycle.
        #[test]
        fn ticking_only_at_next_event_matches_ticking_every_cycle(
            ber_idx in 0usize..3,
            latency in 1u64..60,
            outage_from in 0u64..600,
            outage_len in 0u64..400,
            packets in proptest::collection::vec((1u8..5, 0u64..12), 3..40),
            reset_at in 1u64..700,
            seed in 0u64..1000,
        ) {
            let ber = [0.0, 1e-4, 2e-3][ber_idx];
            let downs = vec![(outage_from, outage_from + outage_len)];
            let make = || Observed::new(LinkShim::new(latency, gbn(), ber, downs.clone(), seed));
            let (mut every, mut sparse) = (make(), make());
            let mut spurious = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut sends = packets.iter().scan(0u64, |at, &(flits, gap)| {
                *at += gap;
                Some((*at, flits))
            }).peekable();
            let mut sparse_ticks = 0u64;
            let mut now = 0u64;
            while sends.peek().is_some() || now <= reset_at || !every.shim.idle() {
                prop_assert!(now < 400_000, "shim failed to drain");
                // The wire phase first, as in the simulator: the reference
                // always ticks, the twin only when an event is due.
                every.tick(now);
                let due = sparse.shim.next_event();
                prop_assert!(due >= now, "event due at {due} went unticked until {now}");
                if due == now || spurious.gen_bool(1.0 / 16.0) {
                    sparse.tick(now);
                    sparse_ticks += u64::from(due == now);
                }
                while let Some(&(_, flits)) = sends.peek().filter(|&&(at, _)| at == now) {
                    every.enqueue(now, flits);
                    sparse.enqueue(now, flits);
                    sends.next();
                }
                if now == reset_at {
                    every.reset_and_requeue(now);
                    sparse.reset_and_requeue(now);
                }
                for o in [&every, &sparse] {
                    prop_assert_eq!(o.shim.next_event() == u64::MAX, o.shim.idle());
                }
                now += 1;
            }
            prop_assert!(sparse.shim.idle() && sparse.queue.is_empty());
            prop_assert_eq!(&every.completions, &sparse.completions);
            prop_assert_eq!(every.shim.stats(), sparse.shim.stats());
            prop_assert_eq!(&every.events, &sparse.events);
            // Per event, not per cycle: every due tick lands a frame or an
            // ack or puts a frame on the link.
            let s = sparse.shim.stats();
            prop_assert!(
                sparse_ticks <= 3 * s.frames_sent,
                "{sparse_ticks} due ticks for {} frames", s.frames_sent
            );
        }
    }

    #[test]
    fn same_seed_same_schedule_is_reproducible() {
        let run = |seed| {
            let mut shim = LinkShim::new(44, gbn(), 1e-3, Vec::new(), seed);
            let mut now = 0;
            for _ in 0..40 {
                shim.enqueue(now, 1);
                now += 4;
            }
            let events = drain(&mut shim, now, 2_000_000);
            (events, shim.stats())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1);
    }
}
