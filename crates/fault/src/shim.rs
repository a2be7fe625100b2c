//! Lossy-link shim: go-back-N under fire, embedded in a simulated channel.
//!
//! A [`LinkShim`] sits between a torus `Wire`'s send side and its receive
//! buffers. The wire enqueues each packet's flits; the shim pushes them
//! through [`anton_link::Link`], the go-back-N loop, handing it as its wire
//! the link's fault profile (a frame is lost during an outage or with the
//! per-frame corruption probability), and reports how many *packets*
//! finished crossing the link each cycle. The wire keeps the actual packet
//! queue (delivery is strictly FIFO, which go-back-N guarantees), so the
//! shim itself stays packet-agnostic: it keeps only the rate limit, the
//! queued packets' flit counts, the loss model and an optional event log.
//!
//! State is O(window) per link direction, whatever traffic it carries: the
//! sender's unacknowledged frames, the frames and acks on the wire (at most
//! one a cycle each way over the latency), and the flit counts of queued
//! packets. The link checks each accepted flit's serial — in order, exactly
//! once — so nothing delivered is kept.
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
use anton_link::frame::{Frame, FrameKind, FRAME_BYTES};
use anton_link::gobackn::GoBackNConfig;
use anton_link::Link;
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

/// The shim's wire: which frames put on the link never arrive.
#[derive(Debug)]
struct Loss {
    /// Per-frame corruption probability, `1 - (1 - ber)^240`.
    frame_loss_p: f64,
    /// Outage windows `[from, until)`.
    downs: Vec<(u64, u64)>,
    rng: StdRng,
    data_frames_dropped: u64,
    ack_frames_dropped: u64,
}

impl Loss {
    /// Carries a frame put on the wire at `now`: it is lost always during
    /// an outage window, otherwise with the per-frame corruption
    /// probability.
    fn carry(&mut self, now: u64, frame: Frame) -> Option<Frame> {
        let down = self
            .downs
            .iter()
            .any(|&(from, until)| from <= now && now < until);
        if !(down || self.frame_loss_p > 0.0 && self.rng.gen_bool(self.frame_loss_p)) {
            return Some(frame);
        }
        match frame.kind {
            FrameKind::Data => self.data_frames_dropped += 1,
            FrameKind::Ack => self.ack_frames_dropped += 1,
        }
        None
    }
}

/// One direction of one lossy external torus link.
#[derive(Debug)]
pub struct LinkShim {
    link: Link,
    loss: Loss,
    /// Flit counts of packets queued through the shim, FIFO.
    pending: VecDeque<u8>,
    /// Flits of the front pending packet already delivered.
    head_done: u32,
    /// Flits enqueued but not yet offered into the go-back-N window.
    unoffered: u64,
    tokens: u64,
    tokens_at: u64,
    /// Cycle of the last data-frame transmission (at most one per cycle).
    last_tx: Option<u64>,
    /// Cycle-stamped event log; `None` (the default) records nothing, so
    /// the fault path's behavior and cost are unchanged unless a flight
    /// recorder asks for events.
    events: Option<Vec<(u64, ShimEvent)>>,
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
        LinkShim {
            link: Link::new(gbn, latency),
            loss: Loss {
                frame_loss_p: 1.0 - (1.0 - ber).powi(FRAME_BITS as i32),
                downs,
                rng: StdRng::seed_from_u64(seed),
                data_frames_dropped: 0,
                ack_frames_dropped: 0,
            },
            pending: VecDeque::new(),
            head_done: 0,
            unoffered: 0,
            tokens: TOKEN_CAP,
            tokens_at: 0,
            last_tx: None,
            events: None,
        }
    }

    /// Tears down the link-layer session when the link goes `Down`:
    /// discards every frame in flight, the retransmission window, and all
    /// queued packets, and restarts the sender/receiver state machines.
    /// Returns how many packets were still queued (including a partially
    /// delivered head packet) — the caller owns the actual packet queue and
    /// must requeue exactly those entries through a higher-level recovery
    /// path, exactly once. Cumulative statistics survive the reset.
    pub fn drain_reset(&mut self, now: u64) -> usize {
        let undelivered = self.pending.len();
        self.link.reset();
        self.pending.clear();
        self.head_done = 0;
        self.unoffered = 0;
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

    /// Logs, stamped `now`, what the counters gained since `before`: the
    /// acks lost while landing, then the retransmission and the data frame
    /// lost while transmitting (at most one transmission a cycle).
    fn log_since(&mut self, now: u64, before: Option<ShimStats>) {
        use ShimEvent::{AckFrameDropped, DataFrameDropped, Retransmit};
        let Some(before) = before else { return };
        let after = self.stats();
        let Some(log) = &mut self.events else { return };
        let gained = [
            after.ack_frames_dropped - before.ack_frames_dropped,
            after.retransmissions - before.retransmissions,
            after.data_frames_dropped - before.data_frames_dropped,
        ];
        let kinds = [AckFrameDropped, Retransmit, DataFrameDropped];
        for (ev, n) in kinds.into_iter().zip(gained) {
            log.extend((0..n).map(|_| (now, ev)));
        }
    }

    /// Queues one packet of `flits` flits into the link and immediately
    /// tries to transmit (so a fault-free single-flit packet departs the
    /// same cycle, matching the ideal wire's timing).
    pub fn enqueue(&mut self, now: u64, flits: u8) {
        assert!(flits > 0, "packets carry at least one flit");
        let before = self.events.is_some().then(|| self.stats());
        self.pending.push_back(flits);
        self.unoffered += u64::from(flits);
        self.pump(now);
        self.log_since(now, before);
    }

    /// Advances the link by one cycle: lands acks and data frames whose
    /// propagation delay has elapsed and (re)transmits. Returns how many
    /// packets finished crossing the link this cycle; the caller pops that
    /// many from its own FIFO.
    pub fn advance(&mut self, now: u64) -> u32 {
        let before = self.events.is_some().then(|| self.stats());
        let loss = &mut self.loss;
        self.head_done += self.link.land(now, |f| loss.carry(now, f));
        let mut completed = 0;
        while let Some(&head) = self.pending.front() {
            if self.head_done < u32::from(head) {
                break;
            }
            self.head_done -= u32::from(head);
            self.pending.pop_front();
            completed += 1;
        }
        assert!(
            self.head_done == 0 || !self.pending.is_empty(),
            "delivered flit without a pending packet"
        );
        self.pump(now);
        self.log_since(now, before);
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
        let tokens_due = self.tokens_at
            + u64::from(TORUS_TOKEN_COST)
                .saturating_sub(self.tokens)
                .div_ceil(u64::from(TORUS_TOKEN_GAIN));
        let slot_free = self.last_tx.map_or(0, |t| t + 1);
        let transmit = self
            .link
            .sender()
            .next_frame_slot()
            .max(tokens_due)
            .max(slot_free);
        self.link.next_landing().min(transmit)
    }

    /// Whether the link has fully drained: no queued packets, no frames in
    /// flight, and no unacknowledged frames awaiting (re)transmission.
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.link.idle()
    }

    /// Flits currently inside the shim (enqueued but not yet delivered).
    pub fn backlog_flits(&self) -> u64 {
        self.unoffered + self.link.in_transit()
    }

    /// Packets currently queued through the shim.
    pub fn backlog_packets(&self) -> usize {
        self.pending.len()
    }

    /// Snapshot of this link's counters.
    pub fn stats(&self) -> ShimStats {
        let tx = self.link.sender();
        ShimStats {
            frames_sent: tx.frames_sent,
            retransmissions: tx.retransmissions,
            data_frames_dropped: self.loss.data_frames_dropped,
            ack_frames_dropped: self.loss.ack_frames_dropped,
            flits_delivered: self.link.receiver().accepted(),
        }
    }

    /// Offers queued flits into the window and transmits at most one data
    /// frame (token bucket permitting).
    fn pump(&mut self, now: u64) {
        self.tokens =
            (self.tokens + u64::from(TORUS_TOKEN_GAIN) * (now - self.tokens_at)).min(TOKEN_CAP);
        self.tokens_at = now;
        while self.unoffered > 0 && self.link.sender().can_accept() {
            self.link.offer();
            self.unoffered -= 1;
        }
        if self.last_tx == Some(now) || self.tokens < u64::from(TORUS_TOKEN_COST) {
            return;
        }
        let loss = &mut self.loss;
        if self.link.transmit(now, |f| loss.carry(now, f)) {
            self.tokens -= u64::from(TORUS_TOKEN_COST);
            self.last_tx = Some(now);
        }
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
        healed.loss.downs.clear();
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
