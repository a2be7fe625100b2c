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
