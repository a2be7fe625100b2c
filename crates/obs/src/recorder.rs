//! The flight recorder: bounded per-component event history.
//!
//! Every component track (one per wire of the simulated machine) owns a
//! fixed-capacity ring buffer. Recording is O(1) and never allocates after
//! construction; once a ring is full the oldest event is overwritten
//! (drop-oldest), so after any run each track holds the *most recent* window
//! of its history — exactly what post-mortem diagnostics like the deadlock
//! report want. A global sequence number stamps every event so rings can be
//! merged back into exact recording order.

use crate::event::{TraceEvent, TraceEventKind};

/// A fixed-capacity drop-oldest ring buffer of trace events.
#[derive(Debug, Clone)]
pub struct EventRing {
    buf: Vec<TraceEvent>,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates an empty ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest one at capacity.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// How many events have been overwritten since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// The flight recorder: one [`EventRing`] per component track plus the
/// global sequence counter.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    rings: Vec<EventRing>,
    labels: Vec<String>,
    seq: u64,
}

impl FlightRecorder {
    /// Creates a recorder whose tracks each hold `capacity` events.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            rings: Vec::new(),
            labels: Vec::new(),
            seq: 0,
        }
    }

    /// Registers a component track, returning its id.
    pub fn add_track(&mut self, label: impl Into<String>) -> u32 {
        let id = self.rings.len() as u32;
        self.rings.push(EventRing::new(self.capacity));
        self.labels.push(label.into());
        id
    }

    /// Number of registered tracks.
    pub fn num_tracks(&self) -> usize {
        self.rings.len()
    }

    /// The label a track was registered with.
    pub fn track_label(&self, track: u32) -> &str {
        &self.labels[track as usize]
    }

    /// Records an event on `track`, stamping the next sequence number.
    #[inline]
    pub fn record(&mut self, track: u32, cycle: u64, packet: Option<u64>, kind: TraceEventKind) {
        let ev = TraceEvent {
            seq: self.seq,
            cycle,
            track,
            packet,
            kind,
        };
        self.seq += 1;
        self.rings[track as usize].push(ev);
    }

    /// Total events recorded (including ones since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.seq
    }

    /// Events still held on one track, oldest → newest.
    pub fn track_events(&self, track: u32) -> impl Iterator<Item = &TraceEvent> {
        self.rings[track as usize].iter()
    }

    /// All held events merged across tracks in recording (sequence) order.
    pub fn all_events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .rings
            .iter()
            .flat_map(EventRing::iter)
            .copied()
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The last `k` held events satisfying `pred`, in recording order.
    ///
    /// This is the deadlock report's "what happened recently to this packet /
    /// on this link" query; it walks every ring, so it is meant for the cold
    /// diagnostic path, not the per-cycle hot path.
    pub fn recent_matching(
        &self,
        k: usize,
        mut pred: impl FnMut(&TraceEvent) -> bool,
    ) -> Vec<TraceEvent> {
        let mut hits: Vec<TraceEvent> = self
            .rings
            .iter()
            .flat_map(EventRing::iter)
            .filter(|e| pred(e))
            .copied()
            .collect();
        hits.sort_by_key(|e| e.seq);
        if hits.len() > k {
            hits.drain(..hits.len() - k);
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, cycle: u64) -> TraceEvent {
        TraceEvent {
            seq,
            cycle,
            track: 0,
            packet: Some(seq),
            kind: TraceEventKind::Inject,
        }
    }

    #[test]
    fn ring_drops_oldest_deterministically_at_capacity() {
        let mut ring = EventRing::new(4);
        for i in 0..10 {
            ring.push(ev(i, 100 + i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.dropped(), 6);
        // Exactly the newest four survive, oldest → newest.
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Replaying the same pushes yields the identical survivor set.
        let mut again = EventRing::new(4);
        for i in 0..10 {
            again.push(ev(i, 100 + i));
        }
        let again_seqs: Vec<u64> = again.iter().map(|e| e.seq).collect();
        assert_eq!(again_seqs, seqs);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut ring = EventRing::new(8);
        for i in 0..5 {
            ring.push(ev(i, i));
        }
        assert_eq!(ring.dropped(), 0);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(ev(0, 0));
        ring.push(ev(1, 1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().unwrap().seq, 1);
    }

    #[test]
    fn recorder_merges_tracks_in_sequence_order() {
        let mut rec = FlightRecorder::new(16);
        let a = rec.add_track("wire-a");
        let b = rec.add_track("wire-b");
        rec.record(a, 1, Some(0), TraceEventKind::Inject);
        rec.record(b, 1, Some(1), TraceEventKind::Inject);
        rec.record(a, 2, Some(0), TraceEventKind::Deliver);
        assert_eq!(rec.total_recorded(), 3);
        assert_eq!(rec.track_label(a), "wire-a");
        let all = rec.all_events();
        let seqs: Vec<u64> = all.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(all[1].track, b);
    }

    #[test]
    fn recent_matching_returns_last_k_in_order() {
        let mut rec = FlightRecorder::new(16);
        let a = rec.add_track("wire-a");
        let b = rec.add_track("wire-b");
        for i in 0..6 {
            let t = if i % 2 == 0 { a } else { b };
            rec.record(t, i, Some(7), TraceEventKind::Inject);
        }
        rec.record(a, 10, Some(8), TraceEventKind::Deliver);
        let recent = rec.recent_matching(3, |e| e.packet == Some(7));
        let seqs: Vec<u64> = recent.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }
}
