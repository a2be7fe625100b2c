//! # anton-link
//!
//! Link layer of the Anton 2 external torus channels (Section 2.2 of
//! *"Unifying on-chip and inter-node switching within the Anton 2 network"*).
//!
//! Each of a node's twelve torus channels comprises eight 14 Gb/s SerDes
//! ([`LANES`] × [`LANE_GBPS`] = [`RAW_GBPS`], 112 Gb/s raw per direction).
//! The physical and link layers provide framing, CRC error checking, and
//! go-back-N retransmission, leaving [`EFFECTIVE_GBPS`] = 89.6 Gb/s of
//! effective bandwidth per direction. This crate implements that stack:
//!
//! * [`crc`] — CRC-16/CCITT error detection;
//! * [`frame`] — 30-byte frames carrying 24-byte flits (the 80% derate);
//! * [`gobackn`] — the go-back-N sender/receiver state machines;
//! * [`channel`] — an end-to-end lossy-channel simulation used by the
//!   Section 2.2 experiment runner.
//!
//! # Examples
//!
//! ```
//! use anton_link::channel::{LinkParams, LinkSim};
//! use anton_link::gobackn::GoBackNConfig;
//! use rand::SeedableRng;
//!
//! let mut sim = LinkSim::new(
//!     LinkParams::default(),
//!     GoBackNConfig::default(),
//!     rand::rngs::StdRng::seed_from_u64(0),
//! );
//! let stats = sim.run_saturated(5_000);
//! // An error-free saturated link delivers the paper's 89.6 Gb/s.
//! assert!((stats.goodput_gbps() - anton_link::EFFECTIVE_GBPS).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod crc;
pub mod frame;
pub mod gobackn;

pub use channel::{LinkParams, LinkSim, LinkStats, EFFECTIVE_GBPS, LANES, LANE_GBPS, RAW_GBPS};
pub use frame::{Frame, FrameKind, EFFICIENCY, FLIT_BYTES, FRAME_BYTES};
pub use gobackn::{GoBackNConfig, Receiver, Sender};
