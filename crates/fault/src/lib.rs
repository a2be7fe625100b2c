//! Fault injection for the Anton 2 network model.
//!
//! The paper's torus channels are only dependable because the link layer
//! makes them so: CRC framing plus go-back-N retransmission turn a lossy
//! 14 Gb/s SerDes lane group into an 89.6 Gb/s reliable channel
//! (Section 2.2). This crate lets the cycle simulator *experience* that
//! machinery instead of assuming it away:
//!
//! - [`FaultSchedule`] describes, deterministically and reproducibly, which
//!   links misbehave and how — a seeded bit-error rate on every link, and
//!   transient or permanent link-down windows on chosen ones. Every shim
//!   runs go-back-N with the fixed [`SHIM_WINDOW`] and [`SHIM_TIMEOUT`].
//! - [`LinkShim`] is a per-link lossy-channel model that runs the real
//!   [`anton_link`] go-back-N sender/receiver state machines under that
//!   schedule. The simulator's torus `Wire` routes its flits through the
//!   shim, so corrupted frames stall and rewind real in-flight traffic.
//!
//! The shim is packet-agnostic: the wire hands it flit counts, the shim
//! answers with "this many packets completed this cycle", and the wire keeps
//! the actual packet queue. Flit payloads carry a serial number so the shim
//! self-checks that the link layer delivered every flit exactly once and in
//! order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod schedule;
pub mod shim;

pub use schedule::{FaultKind, FaultSchedule, LinkFault, SHIM_TIMEOUT, SHIM_WINDOW};
pub use shim::{LinkShim, ShimEvent, ShimStats};
