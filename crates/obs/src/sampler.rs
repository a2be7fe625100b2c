//! The time-series sampler: periodic snapshots of dense counters.
//!
//! The simulator keeps cheap monotone counters and instantaneous gauges in
//! its hot state (flits carried per link class, packets in flight, grant
//! tallies, shim backlogs). Every N cycles it hands the sampler one raw
//! snapshot vector; the sampler turns counter channels into per-window
//! deltas and gauge channels into point-in-time readings, accumulating a
//! list of typed [`SampleWindow`]s that export to the v2 `results/` schema.

use crate::json::Json;

/// How a channel's raw snapshot is folded into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Monotone counter; windows hold the delta across the window.
    Counter,
    /// Instantaneous value; windows hold the reading at the window's end.
    Gauge,
}

impl ChannelKind {
    /// Stable lowercase name, used in serialized windows.
    pub fn name(&self) -> &'static str {
        match self {
            ChannelKind::Counter => "counter",
            ChannelKind::Gauge => "gauge",
        }
    }
}

/// One sampled window `[start, end)` with one value per channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleWindow {
    /// First cycle covered by the window.
    pub start: u64,
    /// One past the last cycle covered.
    pub end: u64,
    /// Per-channel values, in channel registration order.
    pub values: Vec<u64>,
}

/// A growing series of sampled windows over a fixed channel set.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    every: u64,
    channels: Vec<(String, ChannelKind)>,
    /// Raw snapshot at the start of the currently open window.
    baseline: Vec<u64>,
    /// Cycle the open window started at; `None` before the first snapshot.
    open_since: Option<u64>,
    windows: Vec<SampleWindow>,
}

impl TimeSeries {
    /// Creates an empty series with the nominal sampling period `every`
    /// (recorded in the export; the caller drives actual snapshot timing).
    pub fn new(every: u64) -> TimeSeries {
        TimeSeries {
            every,
            channels: Vec::new(),
            baseline: Vec::new(),
            open_since: None,
            windows: Vec::new(),
        }
    }

    /// Registers a channel, returning its index. Must happen before the
    /// first [`TimeSeries::record`].
    ///
    /// # Panics
    ///
    /// Panics if a snapshot has already been recorded.
    pub fn channel(&mut self, name: impl Into<String>, kind: ChannelKind) -> usize {
        assert!(
            self.open_since.is_none() && self.windows.is_empty(),
            "channels must be registered before the first snapshot"
        );
        self.channels.push((name.into(), kind));
        self.baseline.push(0);
        self.channels.len() - 1
    }

    /// The nominal sampling period.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Number of registered channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Registered `(name, kind)` pairs in index order.
    pub fn channels(&self) -> &[(String, ChannelKind)] {
        &self.channels
    }

    /// The windows closed so far.
    pub fn windows(&self) -> &[SampleWindow] {
        &self.windows
    }

    /// Feeds one raw snapshot taken at `cycle`.
    ///
    /// The first call primes the series (opens the first window) without
    /// emitting anything; each later call closes the open window
    /// `[open_since, cycle)` — counter channels as deltas against the
    /// window-start baseline, gauges as the raw reading — and opens the
    /// next. A snapshot at the same cycle as the open window's start is a
    /// no-op, so forcing a final flush after a run that ended exactly on a
    /// sampling boundary never emits an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not have one value per registered channel.
    pub fn record(&mut self, cycle: u64, raw: &[u64]) {
        assert_eq!(
            raw.len(),
            self.channels.len(),
            "snapshot arity must match registered channels"
        );
        match self.open_since {
            None => {
                self.baseline.copy_from_slice(raw);
                self.open_since = Some(cycle);
            }
            Some(start) => {
                if cycle == start {
                    return;
                }
                assert!(cycle > start, "snapshots must advance in time");
                let values = self
                    .channels
                    .iter()
                    .zip(raw.iter().zip(self.baseline.iter()))
                    .map(|((_, kind), (now, base))| match kind {
                        ChannelKind::Counter => now.wrapping_sub(*base),
                        ChannelKind::Gauge => *now,
                    })
                    .collect();
                self.windows.push(SampleWindow {
                    start,
                    end: cycle,
                    values,
                });
                self.baseline.copy_from_slice(raw);
                self.open_since = Some(cycle);
            }
        }
    }

    /// Merges per-shard series — same channel set, snapshots taken at the
    /// same machine cycles — into one machine-wide series by summing aligned
    /// windows element-wise.
    ///
    /// Counter channels sum naturally (each shard counted its own flits);
    /// gauges sum too, because a sharded gauge (packets in flight, shim
    /// backlog) is a per-shard partition of the machine-wide reading. A
    /// window present in only some parts (a shard that flushed a partial
    /// tail the others did not) is carried through as the sum of the parts
    /// that have it, keyed — and deterministically ordered — by its
    /// `(start, end)` bounds.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts disagree on the sampling
    /// period or channel set.
    #[must_use]
    pub fn merged(parts: &[&TimeSeries]) -> TimeSeries {
        let first = parts.first().expect("merged() needs at least one series");
        let mut out = TimeSeries::new(first.every);
        out.channels = first.channels.clone();
        out.baseline = vec![0; first.channels.len()];
        let mut acc: std::collections::BTreeMap<(u64, u64), Vec<u64>> =
            std::collections::BTreeMap::new();
        for part in parts {
            assert_eq!(part.every, first.every, "sampling periods disagree");
            assert_eq!(part.channels, first.channels, "channel sets disagree");
            for w in &part.windows {
                let slot = acc
                    .entry((w.start, w.end))
                    .or_insert_with(|| vec![0; first.channels.len()]);
                for (s, v) in slot.iter_mut().zip(&w.values) {
                    *s += v;
                }
            }
        }
        out.windows = acc
            .into_iter()
            .map(|((start, end), values)| SampleWindow { start, end, values })
            .collect();
        out
    }

    /// Drops windows that start at or after `cycle` and ends the window
    /// that straddles it at `cycle`. A sharded worker may legally overrun a
    /// drained network by a partial lookahead window and sample inside it;
    /// nothing moves in a drained network, so cutting the merged series at
    /// the run's true end cycle leaves the windows a serial run flushes.
    pub fn truncate_after(&mut self, cycle: u64) {
        self.windows.retain(|w| w.start < cycle);
        if let Some(last) = self.windows.last_mut() {
            last.end = last.end.min(cycle);
        }
    }

    /// Serializes the series as the `windows` section of a v2 results file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("every", Json::from(self.every)),
            (
                "channels",
                Json::arr(self.channels.iter().map(|(name, kind)| {
                    Json::obj([
                        ("name", Json::from(name.as_str())),
                        ("kind", Json::from(kind.name())),
                    ])
                })),
            ),
            (
                "windows",
                Json::arr(self.windows.iter().map(|w| {
                    Json::obj([
                        ("start", Json::from(w.start)),
                        ("end", Json::from(w.end)),
                        ("values", Json::arr(w.values.iter().map(|v| Json::from(*v)))),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_become_deltas_and_gauges_stay_raw() {
        let mut ts = TimeSeries::new(100);
        let c = ts.channel("delivered", ChannelKind::Counter);
        let g = ts.channel("in_flight", ChannelKind::Gauge);
        ts.record(0, &[0, 0]);
        ts.record(100, &[40, 7]);
        ts.record(200, &[90, 3]);
        let w = ts.windows();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].start, w[0].end), (0, 100));
        assert_eq!(w[0].values[c], 40);
        assert_eq!(w[0].values[g], 7);
        assert_eq!(w[1].values[c], 50);
        assert_eq!(w[1].values[g], 3);
    }

    #[test]
    fn duplicate_cycle_flush_is_a_no_op() {
        let mut ts = TimeSeries::new(100);
        ts.channel("x", ChannelKind::Counter);
        ts.record(0, &[0]);
        ts.record(100, &[5]);
        ts.record(100, &[5]);
        assert_eq!(ts.windows().len(), 1);
    }

    #[test]
    fn partial_final_window_keeps_its_true_bounds() {
        let mut ts = TimeSeries::new(100);
        ts.channel("x", ChannelKind::Counter);
        ts.record(0, &[0]);
        ts.record(100, &[10]);
        ts.record(130, &[13]);
        let w = ts.windows();
        assert_eq!((w[1].start, w[1].end), (100, 130));
        assert_eq!(w[1].values[0], 3);
    }

    #[test]
    fn merged_sums_aligned_windows_and_carries_ragged_tails() {
        let mut a = TimeSeries::new(100);
        a.channel("delivered", ChannelKind::Counter);
        a.channel("in_flight", ChannelKind::Gauge);
        a.record(0, &[0, 0]);
        a.record(100, &[40, 7]);
        a.record(150, &[55, 2]);
        let mut b = TimeSeries::new(100);
        b.channel("delivered", ChannelKind::Counter);
        b.channel("in_flight", ChannelKind::Gauge);
        b.record(0, &[0, 0]);
        b.record(100, &[10, 1]);

        let m = TimeSeries::merged(&[&a, &b]);
        assert_eq!(m.every(), 100);
        assert_eq!(m.channels(), a.channels());
        let w = m.windows();
        assert_eq!(w.len(), 2);
        // The aligned first window sums counters and gauges alike.
        assert_eq!((w[0].start, w[0].end), (0, 100));
        assert_eq!(w[0].values, vec![50, 8]);
        // `a`'s partial tail survives on its own bounds.
        assert_eq!((w[1].start, w[1].end), (100, 150));
        assert_eq!(w[1].values, vec![15, 2]);
    }

    #[test]
    fn truncate_after_drops_late_windows_and_ends_the_straddler() {
        let mut ts = TimeSeries::new(100);
        ts.channel("delivered", ChannelKind::Counter);
        for (cycle, total) in [(0, 0), (100, 5), (200, 9), (284, 12), (300, 12)] {
            ts.record(cycle, &[total]);
        }
        ts.truncate_after(247);
        let bounds: Vec<(u64, u64)> = ts.windows().iter().map(|w| (w.start, w.end)).collect();
        assert_eq!(bounds, [(0, 100), (100, 200), (200, 247)]);
        assert_eq!(ts.windows()[2].values, vec![3]);
    }

    #[test]
    #[should_panic(expected = "channel sets disagree")]
    fn merged_rejects_mismatched_channels() {
        let mut a = TimeSeries::new(10);
        a.channel("x", ChannelKind::Counter);
        let mut b = TimeSeries::new(10);
        b.channel("y", ChannelKind::Counter);
        let _ = TimeSeries::merged(&[&a, &b]);
    }

    #[test]
    fn to_json_emits_every_channels_and_windows() {
        let mut ts = TimeSeries::new(64);
        ts.channel("delivered", ChannelKind::Counter);
        ts.record(0, &[0]);
        ts.record(64, &[9]);
        let j = ts.to_json();
        assert_eq!(j.get("every").and_then(Json::as_u64), Some(64));
        let chans = j.get("channels").and_then(Json::as_arr).unwrap();
        assert_eq!(chans[0].get("kind").and_then(Json::as_str), Some("counter"));
        let windows = j.get("windows").and_then(Json::as_arr).unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(
            windows[0].get("values").and_then(Json::as_arr).unwrap()[0].as_u64(),
            Some(9)
        );
    }
}
