//! Shard phase profiling: where a parallel worker's wall-clock goes.
//!
//! Each worker of a sharded run owns a [`PhaseClock`] — a lock-free
//! (thread-local, no shared state) accumulator splitting its wall-clock
//! into the four phases of the two-barrier window protocol:
//!
//! * **compute** — stepping the shard's replica through the window;
//! * **barrier_wait** — blocked on either window barrier (load imbalance
//!   plus coordinator replay time);
//! * **mailbox** — draining boundary exports and publishing them to the
//!   consumer shards' inboxes;
//! * **merge** — sorting and applying this shard's imports.
//!
//! The clock costs one branch per lap when disabled. Per-shard totals come
//! back from `ShardedSim::phase_ns`, and the repository benchmark, the one
//! reader, reports them as `sim.shard.{compute,barrier_wait,mailbox,merge}_ns`.

use std::time::Instant;

/// Number of shard phases.
pub const NUM_SHARD_PHASES: usize = 4;

/// JSON/report key per phase, in [`ShardPhase`] index order.
pub const SHARD_PHASE_NAMES: [&str; NUM_SHARD_PHASES] =
    ["compute", "barrier_wait", "mailbox", "merge"];

/// One phase of a shard worker's window loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// Stepping the replica through the window.
    Compute = 0,
    /// Blocked on a window barrier.
    BarrierWait = 1,
    /// Draining and publishing boundary exports.
    Mailbox = 2,
    /// Sorting and applying imports.
    Merge = 3,
}

/// Per-worker phase accumulator; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct PhaseClock {
    enabled: bool,
    last: Instant,
    acc: [u64; NUM_SHARD_PHASES],
}

impl PhaseClock {
    /// Creates a clock; when `enabled` is false every call is a no-op
    /// behind one branch.
    pub fn new(enabled: bool) -> PhaseClock {
        PhaseClock {
            enabled,
            last: Instant::now(),
            acc: [0; NUM_SHARD_PHASES],
        }
    }

    /// Charges the time since the previous lap (or construction) to
    /// `phase`.
    #[inline]
    pub fn lap(&mut self, phase: ShardPhase) {
        if self.enabled {
            let now = Instant::now();
            self.acc[phase as usize] += (now - self.last).as_nanos() as u64;
            self.last = now;
        }
    }

    /// The accumulated nanoseconds per phase.
    pub fn into_ns(self) -> [u64; NUM_SHARD_PHASES] {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_clock_accumulates_nothing() {
        let mut c = PhaseClock::new(false);
        c.lap(ShardPhase::Compute);
        std::thread::yield_now();
        c.lap(ShardPhase::BarrierWait);
        assert_eq!(c.into_ns(), [0; NUM_SHARD_PHASES]);
    }

    #[test]
    fn laps_charge_elapsed_time_to_the_named_phase() {
        let mut c = PhaseClock::new(true);
        std::thread::sleep(std::time::Duration::from_millis(2));
        c.lap(ShardPhase::Compute);
        c.lap(ShardPhase::Merge);
        let ns = c.into_ns();
        assert!(ns[ShardPhase::Compute as usize] >= 1_000_000);
        assert_eq!(ns[ShardPhase::BarrierWait as usize], 0);
    }
}
