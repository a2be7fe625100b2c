//! Deterministic fault schedules.
//!
//! A [`FaultSchedule`] is a complete, self-contained description of link
//! misbehavior for one simulation: a seed, a bit-error rate applied to every
//! external torus link, and a list of per-link down windows. Serializing
//! these few values into a results file is enough to reproduce a faulty run
//! exactly. Every link shim runs go-back-N with the same window and timeout,
//! [`SHIM_WINDOW`] and [`SHIM_TIMEOUT`].

use anton_core::chip::ChanId;
use anton_core::timing::TORUS_LINK_CYCLES;
use anton_core::topology::NodeId;

/// Go-back-N window of every link shim: large enough that a fault-free
/// torus link (round trip ≈ 2 × 44 cycles at ≈ 0.31 frames/cycle ≈ 28
/// frames in flight) never stalls on the window.
pub const SHIM_WINDOW: u8 = 64;

/// Retransmission timeout (cycles) of every link shim: comfortably above
/// the torus round trip (≈ 88 cycles) plus ack service jitter, so
/// fault-free traffic never rewinds spuriously.
pub const SHIM_TIMEOUT: u64 = 192;

// The window must leave the 8-bit sequence space's halves distinguishable,
// and the timeout must cover a round trip, or fault-free traffic rewinds.
const _: () = assert!(SHIM_WINDOW >= 1 && SHIM_WINDOW <= 127);
const _: () = assert!(SHIM_TIMEOUT >= 2 * TORUS_LINK_CYCLES);

/// What is wrong with one particular link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Every frame (data and ack) on the link is lost while
    /// `from_cycle <= now < until_cycle`. Use `until_cycle = u64::MAX` for a
    /// permanently dead link.
    Down {
        /// First cycle of the outage (inclusive).
        from_cycle: u64,
        /// End of the outage (exclusive).
        until_cycle: u64,
    },
}

/// A fault pinned to one directed external torus link, identified by its
/// source node and departing channel adapter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Node the faulty link departs from.
    pub from: NodeId,
    /// Channel adapter (direction × slice) the faulty link departs through.
    pub chan: ChanId,
    /// What happens on that link.
    pub kind: FaultKind,
}

/// A deterministic, reproducible description of link faults for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// Master seed; each link derives an independent RNG stream from it, so
    /// corruption decisions do not depend on link iteration order.
    pub seed: u64,
    /// Bit-error rate applied to every torus link.
    pub default_ber: f64,
    /// Per-link exceptions, in the order they were added.
    pub faults: Vec<LinkFault>,
}

impl FaultSchedule {
    /// A schedule applying `ber` uniformly to every torus link.
    pub fn uniform(seed: u64, ber: f64) -> FaultSchedule {
        FaultSchedule {
            seed,
            default_ber: ber,
            faults: Vec::new(),
        }
    }

    /// Adds a per-link fault, builder-style.
    pub fn with_fault(mut self, from: NodeId, chan: ChanId, kind: FaultKind) -> FaultSchedule {
        self.faults.push(LinkFault { from, chan, kind });
        self
    }

    /// The outage windows `[from, until)` of the link departing `from`
    /// through `chan`, in schedule order.
    pub fn downs(&self, from: NodeId, chan: ChanId) -> Vec<(u64, u64)> {
        self.faults
            .iter()
            .filter(|f| f.from == from && f.chan == chan)
            .map(|f| {
                let FaultKind::Down {
                    from_cycle,
                    until_cycle,
                } = f.kind;
                (from_cycle, until_cycle)
            })
            .collect()
    }

    /// Independent RNG seed for the link with the given dense index (see
    /// `MachineConfig::torus_link_index`). Splitmix64 over `(seed, index)`
    /// keeps streams uncorrelated and independent of install order.
    pub fn link_seed(&self, link_index: usize) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(link_index as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(idx: usize) -> ChanId {
        ChanId::from_index(idx)
    }

    /// A link's down windows apply to it alone; every other link keeps the
    /// default, no outage.
    #[test]
    fn per_link_faults_override_default() {
        let down = |from_cycle, until_cycle| FaultKind::Down {
            from_cycle,
            until_cycle,
        };
        let sched = FaultSchedule::uniform(1, 1e-6)
            .with_fault(NodeId(3), chan(2), down(10, 20))
            .with_fault(NodeId(4), chan(2), down(0, 5))
            .with_fault(NodeId(3), chan(2), down(30, 40));
        assert_eq!(sched.downs(NodeId(3), chan(2)), vec![(10, 20), (30, 40)]);
        assert!(sched.downs(NodeId(3), chan(3)).is_empty());
    }

    #[test]
    fn link_seeds_are_distinct_and_stable() {
        let sched = FaultSchedule::uniform(42, 0.0);
        let a = sched.link_seed(0);
        let b = sched.link_seed(1);
        assert_ne!(a, b);
        assert_eq!(a, FaultSchedule::uniform(42, 1e-3).link_seed(0));
    }
}
