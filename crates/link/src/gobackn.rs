//! Go-back-N retransmission (Section 2.2).
//!
//! The physical and link layers of each torus channel provide framing, error
//! checking, and go-back-N retransmission. The sender keeps a window of
//! unacknowledged data frames; the receiver only accepts the next in-order
//! sequence number and acknowledges cumulatively. Corrupted frames are
//! dropped by CRC and recovered by timeout-driven rewind.
//!
//! A link direction holds O(window) state: the sender buffers at most
//! `window` unacknowledged payloads, and the receiver keeps only its next
//! expected sequence number and an accepted-flit count. It logs no
//! delivered flit; a caller sees a flit accepted when
//! [`Receiver::on_frame`] advances [`Receiver::expected`], and takes the
//! payload from that frame.

use std::collections::VecDeque;

use crate::frame::{Frame, FrameKind, FLIT_BYTES};

/// Go-back-N protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoBackNConfig {
    /// Sender window in frames (must be < 128 so sequence-number halves
    /// disambiguate).
    pub window: u8,
    /// Retransmission timeout in frame slots.
    pub timeout: u64,
}

impl Default for GoBackNConfig {
    fn default() -> GoBackNConfig {
        GoBackNConfig {
            window: 16,
            timeout: 64,
        }
    }
}

/// Signed distance from sequence number `a` to `b` (mod 256), in `-128..128`.
fn seq_dist(a: u8, b: u8) -> i16 {
    let d = b.wrapping_sub(a);
    if d < 128 {
        i16::from(d)
    } else {
        i16::from(d) - 256
    }
}

/// Go-back-N sender state machine.
#[derive(Debug, Clone)]
pub struct Sender {
    cfg: GoBackNConfig,
    /// Oldest unacknowledged sequence number.
    base: u8,
    /// Unacknowledged payloads, `buffer[0]` has sequence `base`.
    buffer: VecDeque<[u8; FLIT_BYTES]>,
    /// Index into `buffer` of the next frame to (re)transmit.
    cursor: usize,
    /// Slot at which the current base frame was last sent.
    base_sent_at: u64,
    /// High-water mark of the transmit cursor, for retransmission
    /// accounting (frames below it have been sent at least once).
    high_water: usize,
    /// Total data frames put on the wire.
    pub frames_sent: u64,
    /// Data frames that were retransmissions.
    pub retransmissions: u64,
}

impl Sender {
    /// Creates a sender.
    ///
    /// # Panics
    ///
    /// Panics if the window is 0 or ≥ 128.
    pub fn new(cfg: GoBackNConfig) -> Sender {
        assert!(
            cfg.window > 0 && cfg.window < 128,
            "window must be in 1..128"
        );
        Sender {
            cfg,
            base: 0,
            buffer: VecDeque::new(),
            cursor: 0,
            base_sent_at: 0,
            high_water: 0,
            frames_sent: 0,
            retransmissions: 0,
        }
    }

    /// Whether the window has room for a new flit.
    pub fn can_accept(&self) -> bool {
        self.buffer.len() < self.cfg.window as usize
    }

    /// Queues a new flit for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the window is full; check [`Sender::can_accept`] first.
    pub fn offer(&mut self, payload: [u8; FLIT_BYTES]) {
        assert!(self.can_accept(), "go-back-N window full");
        self.buffer.push_back(payload);
    }

    /// Processes a (possibly stale) cumulative acknowledgement: `ack` is the
    /// next sequence number the receiver expects.
    pub fn on_ack(&mut self, ack: u8, now: u64) {
        let advance = seq_dist(self.base, ack);
        // An ack can only cover frames that have been sent at least once —
        // i.e. at most `high_water` ahead of the base. Anything further is
        // an aliased sequence number: with 8-bit sequence numbers, an ack
        // from ≥ 128 frames ago (or one whose corruption slipped past the
        // CRC) can land in the valid-looking half of the space after a
        // wrap. Accepting it would silently discard unacknowledged
        // payloads, which go-back-N can never recover.
        if advance <= 0 || advance as usize > self.high_water {
            return; // Stale, aliased, or out-of-window ack.
        }
        for _ in 0..advance {
            self.buffer.pop_front();
        }
        self.base = ack;
        self.cursor = self.cursor.saturating_sub(advance as usize);
        self.high_water = self.high_water.saturating_sub(advance as usize);
        self.base_sent_at = now;
    }

    /// Produces the data frame for this slot, if any: the next unsent frame,
    /// or — after a timeout — a rewind to the window base.
    pub fn next_frame(&mut self, now: u64, ack_for_peer: u8) -> Option<Frame> {
        if !self.buffer.is_empty()
            && self.cursor > 0
            && now.saturating_sub(self.base_sent_at) >= self.cfg.timeout
        {
            // Timeout: go back N — resend everything from the base.
            self.cursor = 0;
        }
        if self.cursor >= self.buffer.len() {
            return None;
        }
        let seq = self.base.wrapping_add(self.cursor as u8);
        let payload = self.buffer[self.cursor];
        if self.cursor == 0 {
            self.base_sent_at = now;
        }
        if self.cursor < self.high_water {
            self.retransmissions += 1;
        }
        self.cursor += 1;
        self.frames_sent += 1;
        self.high_water = self.high_water.max(self.cursor);
        Some(Frame::data(seq, ack_for_peer, payload))
    }

    /// The earliest slot at which [`Sender::next_frame`] can return a
    /// frame, absent further `offer`/`on_ack` calls: any slot while unsent
    /// frames are queued (reported as 0), the base frame's timeout while
    /// everything queued is outstanding, `u64::MAX` with nothing buffered.
    /// `next_frame` returns `None`, without side effect, at every slot
    /// before it.
    pub fn next_frame_slot(&self) -> u64 {
        if self.cursor < self.buffer.len() {
            0
        } else if self.buffer.is_empty() {
            u64::MAX
        } else {
            self.base_sent_at + self.cfg.timeout
        }
    }

    /// Unacknowledged frames currently buffered.
    pub fn in_flight(&self) -> usize {
        self.buffer.len()
    }

    /// Starts a fresh session: drops every buffered frame and restarts the
    /// sequence space at 0, keeping the cumulative frame counters.
    pub fn restart(&mut self) {
        *self = Sender {
            frames_sent: self.frames_sent,
            retransmissions: self.retransmissions,
            ..Sender::new(self.cfg)
        };
    }
}

/// Go-back-N receiver state machine: the next expected sequence number and
/// a count of accepted flits, nothing per flit.
#[derive(Debug, Clone)]
pub struct Receiver {
    expected: u8,
    accepted: u64,
}

impl Receiver {
    /// Creates a receiver expecting sequence number 0.
    pub fn new() -> Receiver {
        Receiver {
            expected: 0,
            accepted: 0,
        }
    }

    /// Processes an arriving (already CRC-verified) frame. Returns the
    /// cumulative ack to send back. The frame's payload is accepted, in
    /// order, exactly when the returned ack differs from the
    /// [`Receiver::expected`] before the call.
    pub fn on_frame(&mut self, frame: &Frame) -> u8 {
        if frame.kind == FrameKind::Data && frame.seq == self.expected {
            self.accepted += 1;
            self.expected = self.expected.wrapping_add(1);
        }
        self.expected
    }

    /// The next expected sequence number (the cumulative ack value).
    pub fn expected(&self) -> u8 {
        self.expected
    }

    /// Flits accepted in order so far, across restarts.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Starts a fresh session expecting sequence number 0.
    pub fn restart(&mut self) {
        self.expected = 0;
    }
}

impl Default for Receiver {
    fn default() -> Receiver {
        Receiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_distance_wraps() {
        assert_eq!(seq_dist(250, 2), 8);
        assert_eq!(seq_dist(2, 250), -8);
        assert_eq!(seq_dist(7, 7), 0);
    }

    #[test]
    fn lossless_in_order_delivery() {
        let mut tx = Sender::new(GoBackNConfig::default());
        let mut rx = Receiver::new();
        let payloads: Vec<[u8; 24]> = (0..40u8).map(|i| [i; 24]).collect();
        let mut offered = 0;
        let mut delivered = Vec::new();
        for now in 0..200u64 {
            while offered < payloads.len() && tx.can_accept() {
                tx.offer(payloads[offered]);
                offered += 1;
            }
            if let Some(f) = tx.next_frame(now, 0) {
                let before = rx.expected();
                let ack = rx.on_frame(&f);
                if ack != before {
                    delivered.push(f.payload);
                }
                tx.on_ack(ack, now);
            }
        }
        assert_eq!(delivered, payloads);
        assert_eq!(rx.accepted(), payloads.len() as u64);
        assert_eq!(tx.retransmissions, 0);
    }

    #[test]
    fn lost_frame_triggers_rewind() {
        let cfg = GoBackNConfig {
            window: 4,
            timeout: 8,
        };
        let mut tx = Sender::new(cfg);
        let mut rx = Receiver::new();
        for i in 0..4u8 {
            tx.offer([i; 24]);
        }
        let mut now = 0u64;
        // Send frame 0, drop it.
        let f0 = tx.next_frame(now, 0).unwrap();
        assert_eq!(f0.seq, 0);
        // Frames 1..3 arrive but are out of order at the receiver: ignored.
        for _ in 1..4 {
            now += 1;
            let f = tx.next_frame(now, 0).unwrap();
            let ack = rx.on_frame(&f);
            assert_eq!(ack, 0, "receiver must hold its cumulative ack");
            tx.on_ack(ack, now);
        }
        // Nothing new to send until the timeout rewinds the cursor.
        now += 1;
        assert_eq!(tx.next_frame(now, 0), None);
        now += cfg.timeout;
        let resent = tx.next_frame(now, 0).unwrap();
        assert_eq!(resent.seq, 0, "rewind must restart at the window base");
        assert!(tx.retransmissions >= 1);
        let ack = rx.on_frame(&resent);
        assert_eq!(ack, 1);
    }

    /// `next_frame` must refuse every slot in `from..slot` and produce a
    /// frame at `next_frame_slot()` itself (probed on clones: a successful
    /// `next_frame` mutates).
    fn assert_slot_is_exact(tx: &Sender, from: u64) -> u64 {
        let slot = tx.next_frame_slot();
        for t in from..slot {
            assert_eq!(
                tx.clone().next_frame(t, 0),
                None,
                "frame before slot at {t}"
            );
        }
        assert!(tx.clone().next_frame(slot.max(from), 0).is_some());
        slot
    }

    #[test]
    fn next_frame_slot_is_exact() {
        let cfg = GoBackNConfig {
            window: 4,
            timeout: 8,
        };
        let mut tx = Sender::new(cfg);
        assert_eq!(tx.next_frame_slot(), u64::MAX, "nothing buffered");
        assert_eq!(tx.next_frame(3, 0), None);
        // Unsent frames queued: any slot will do.
        for i in 0..4u8 {
            tx.offer([i; 24]);
        }
        assert_eq!(assert_slot_is_exact(&tx, 10), 0);
        // Window full and every frame sent once: only the base frame's
        // timeout (sent at slot 10) can produce another.
        for t in 10..14 {
            tx.next_frame(t, 0).unwrap();
        }
        assert!(!tx.can_accept());
        assert_eq!(assert_slot_is_exact(&tx, 14), 18);
        // A partial ack restarts the timer; the cursor has still caught up
        // with the (now shorter) buffer.
        tx.on_ack(2, 15);
        assert_eq!(tx.in_flight(), 2);
        assert_eq!(assert_slot_is_exact(&tx, 15), 23);
        // Timed out: the rewind resends the whole window, one frame a slot,
        // and the timer restarts from the resent base.
        assert_eq!(tx.next_frame(23, 0).unwrap().seq, 2);
        assert_eq!(assert_slot_is_exact(&tx, 24), 0);
        assert_eq!(tx.next_frame(24, 0).unwrap().seq, 3);
        assert_eq!(assert_slot_is_exact(&tx, 25), 31);
        tx.on_ack(4, 26);
        assert_eq!(tx.next_frame_slot(), u64::MAX, "all acknowledged");
    }

    #[test]
    fn stale_acks_ignored() {
        let mut tx = Sender::new(GoBackNConfig::default());
        tx.offer([1; 24]);
        let _ = tx.next_frame(0, 0);
        tx.on_ack(1, 1);
        assert_eq!(tx.in_flight(), 0);
        // A duplicate of the old ack must not corrupt state.
        tx.on_ack(1, 2);
        tx.on_ack(0, 3);
        assert_eq!(tx.in_flight(), 0);
    }

    #[test]
    fn ack_for_unsent_frames_is_rejected() {
        // Four flits queued, only two put on the wire. An ack claiming all
        // four (an aliased sequence number from a pre-wrap ack, or a
        // corrupted ack that slipped past the CRC) must be ignored: frames
        // 2 and 3 were never sent, so no receiver can have acked them.
        let mut tx = Sender::new(GoBackNConfig::default());
        for i in 0..4u8 {
            tx.offer([i; 24]);
        }
        let _ = tx.next_frame(0, 0);
        let _ = tx.next_frame(1, 0);
        tx.on_ack(4, 2);
        assert_eq!(tx.in_flight(), 4, "aliased ack must not discard payloads");
        // A legitimate ack for the frames actually sent still advances.
        tx.on_ack(2, 3);
        assert_eq!(tx.in_flight(), 2);
    }

    #[test]
    fn aliased_ack_near_wrap_is_rejected() {
        // Walk the window up to the 8-bit wrap boundary, then replay an ack
        // whose sequence number aliases into the "ahead of base" half.
        let cfg = GoBackNConfig {
            window: 8,
            timeout: 16,
        };
        let mut tx = Sender::new(cfg);
        let mut rx = Receiver::new();
        let mut sent = 0u64;
        let mut now = 0u64;
        while sent < 300 {
            while tx.can_accept() {
                tx.offer([sent as u8; 24]);
            }
            now += 1;
            if let Some(f) = tx.next_frame(now, 0) {
                sent += 1;
                let ack = rx.on_frame(&f);
                tx.on_ack(ack, now);
            }
        }
        // Base has wrapped past 255. One frame outstanding at most; an ack
        // 100 ahead of base aliases to "future" — must be ignored.
        let outstanding = tx.in_flight();
        tx.on_ack(tx_base_plus(&tx, 100), now);
        assert_eq!(tx.in_flight(), outstanding);
    }

    /// Test helper: sequence number `delta` frames ahead of the sender base.
    fn tx_base_plus(tx: &Sender, delta: u8) -> u8 {
        tx.base.wrapping_add(delta)
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn window_overflow_rejected() {
        let mut tx = Sender::new(GoBackNConfig {
            window: 2,
            timeout: 8,
        });
        tx.offer([0; 24]);
        tx.offer([1; 24]);
        tx.offer([2; 24]);
    }
}
