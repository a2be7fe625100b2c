//! # anton-obs
//!
//! Observability layer for the Anton 2 unified-network reproduction: the
//! pieces that turn a simulation run into an inspectable timeline rather
//! than a single end-of-run aggregate.
//!
//! * [`json`] — the dependency-free JSON value tree (writer *and* parser)
//!   shared by every exporter in the workspace;
//! * [`event`] — the typed trace-event taxonomy (inject, hop, VC promotion,
//!   arbiter grant, retransmit, deliver, stall);
//! * [`recorder`] — the flight recorder: fixed-capacity per-component ring
//!   buffers of [`event::TraceEvent`]s with drop-oldest semantics (a sharded
//!   run merges its per-shard rings itself, each track from the shard that
//!   sends on it);
//! * [`sampler`] — the time-series sampler: periodic snapshots of dense
//!   kernel counters folded into typed windows, with
//!   [`TimeSeries::merged`](sampler::TimeSeries::merged) summing per-shard
//!   series into the machine-wide view;
//! * [`stall`] — stall attribution: segmented per-link/per-VC stall-cycle
//!   counters keyed by cause (credit starvation, lost arbitration,
//!   serializer busy, retransmit backlog, dead-link drain);
//! * [`congestion`] — the analyzer over a stall table: ranked hotspots,
//!   per-link-class totals, and root-blocker backpressure trees;
//! * [`phase`] — shard phase profiling: per-worker wall-clock split into
//!   compute / barrier-wait / mailbox / merge;
//! * [`chrome`] — Chrome trace-event JSON export (viewable in Perfetto),
//!   including counter ("C") tracks derived from sampled time series;
//! * [`link_json`] — structural JSON round-tripping for
//!   [`anton_core::trace::GlobalLink`].
//!
//! The crate deliberately knows nothing about the simulator: the simulator
//! pushes events and counter snapshots in, exporters pull JSON out. This
//! keeps the dependency arrow pointing the right way (`anton-sim` depends on
//! `anton-obs`, never the reverse) and lets offline tools reuse the parsers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
pub mod congestion;
pub mod event;
pub mod json;
pub mod link_json;
pub mod phase;
pub mod recorder;
pub mod sampler;
pub mod stall;

pub use chrome::ChromeTrace;
pub use congestion::{CongestionReport, LinkStat};
pub use event::{TraceEvent, TraceEventKind};
pub use json::Json;
pub use phase::{PhaseClock, ShardPhase, NUM_SHARD_PHASES, SHARD_PHASE_NAMES};
pub use recorder::{EventRing, FlightRecorder};
pub use sampler::{ChannelKind, SampleWindow, TimeSeries};
pub use stall::{StallCause, StallTable};

use std::io;
use std::path::Path;

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed into place, so a crashed or
/// interrupted writer never leaves a half-written results file behind.
pub fn write_atomic(path: impl AsRef<Path>, contents: &str) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_existing_file_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("anton-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(!dir.join("out.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
