//! # anton-arbiter
//!
//! RTL-faithful implementations of the Anton 2 network arbiters (Section 3
//! of *"Unifying on-chip and inter-node switching within the Anton 2
//! network"*, ISCA 2014):
//!
//! * [`priority`] — the prioritized round-robin arbiter of Figure 8,
//!   translated bit-for-bit from the paper's SystemVerilog (Kogge-Stone
//!   parallel prefix, thermometer-encoded round-robin state) plus its
//!   mathematical specification;
//! * [`accumulator`] — the sliding-window accumulator update of Figure 6;
//! * [`iwarb`] — the composed [`InverseWeightedArbiter`] providing equality
//!   of service over blends of pre-characterized traffic patterns;
//! * [`baseline`] — round-robin and age-based baselines;
//! * [`bitset`] — the branchless bitmask arbitration core the simulator's
//!   hot path uses: every policy over `u64` request lanes, property-tested
//!   per-grant-equivalent to the reference arbiters above;
//! * [`plan`] — the [`ArbiterPlan`]: which policy runs at each of the
//!   simulator's arbitration sites, and where a weight set is programmed.
//!
//! All arbiters implement [`PortArbiter`], the reference interface: the
//! equivalence tests (`tests/bitset_equiv.rs`) and the simulator router's
//! reference allocator (a test) drive it. The simulator's kernel itself
//! arbitrates with [`BitsetArbiter`] directly, never through the trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulator;
pub mod baseline;
pub mod bitset;
pub mod iwarb;
pub mod plan;
pub mod priority;

pub use accumulator::AccumulatorBank;
pub use baseline::{AgeArbiter, RoundRobinArbiter};
pub use bitset::BitsetArbiter;
pub use iwarb::InverseWeightedArbiter;
pub use plan::{ArbiterPlan, PlanError, SitePlan};

/// One arbitration request: a head packet waiting at an arbiter input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbRequest {
    /// Physical arbiter input (e.g. router input port index).
    pub input: usize,
    /// Traffic-pattern tag from the packet header (selects the inverse
    /// weight to charge).
    pub pattern: u8,
    /// Packet age (injection timestamp) for age-based arbitration.
    pub age: u64,
}

/// An arbiter for one output port: picks one winner per cycle among the
/// requesting inputs and commits its internal state to that grant.
///
/// Callers must only present requests that can actually proceed (credits
/// available), since `pick` commits the grant.
///
/// This is the reference interface, driven by the equivalence tests and
/// the router's reference allocator; the simulator's routers, adapters and
/// sharded workers hold monomorphic [`BitsetArbiter`]s instead.
pub trait PortArbiter: std::fmt::Debug + Send {
    /// Number of physical inputs this arbiter serves.
    fn num_inputs(&self) -> usize;

    /// Grants one request, returning its index within `reqs`, or `None` when
    /// `reqs` is empty. At most one request per input may be presented.
    fn pick(&mut self, reqs: &[ArbRequest]) -> Option<usize>;
}

/// Where in the switching pipeline an arbitration grant was issued.
///
/// The simulator arbitrates at three structurally distinct places: the SA1
/// stage choosing among virtual channels on one input port, the SA2/output
/// stage choosing among input ports competing for one output, and the channel
/// adapter's serializer choosing which staged packet departs onto the torus.
/// Observability hooks tag each grant event with its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrantSite {
    /// Input-side VC selection (SA1).
    Sa1,
    /// Output-port allocation (SA2).
    Output,
    /// Channel-adapter serializer onto the torus link.
    Serializer,
}

impl GrantSite {
    /// Stable lowercase name, used in serialized traces.
    pub fn name(&self) -> &'static str {
        match self {
            GrantSite::Sa1 => "sa1",
            GrantSite::Output => "output",
            GrantSite::Serializer => "serializer",
        }
    }
}

/// An arbitration policy: what one site of an [`ArbiterPlan`] starts
/// with.
#[derive(Debug, Clone, PartialEq)]
pub enum ArbiterKind {
    /// Plain round-robin (the paper's baseline).
    RoundRobin,
    /// Inverse-weighted arbitration with `m_bits`-wide inverse weights. The
    /// weights are not part of the kind: the simulator builder programs
    /// them from the expected traffic it is given (`.traffic()`), or
    /// installs a precomputed set (`.weights()`) whose width must match.
    InverseWeighted {
        /// `M`, the number of inverse-weight bits (the paper uses 5).
        m_bits: u32,
    },
    /// Age-based (oldest packet first).
    Age,
}
