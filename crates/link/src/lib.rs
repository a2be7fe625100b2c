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
//! * [`channel`] — [`Link`], one link direction's landing/transmit loop
//!   over a wire the caller supplies. The simulator's lossy-link shim
//!   (`anton-fault`) drives it with Bernoulli and outage loss, the
//!   Section 2.2 runner and the tests with [`flip_bits`] (240 bit flips,
//!   then a CRC check).
//!
//! # Examples
//!
//! ```
//! use anton_link::gobackn::GoBackNConfig;
//! use anton_link::{flip_bits, goodput_fraction, Link, RAW_GBPS};
//! use rand::SeedableRng;
//!
//! let mut link = Link::new(GoBackNConfig::default(), 4);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut wire = |frame| flip_bits(&mut rng, 0.0, frame);
//! let slots = 40_000;
//! for now in 0..slots {
//!     if link.sender().can_accept() {
//!         link.offer();
//!     }
//!     link.land(now, &mut wire);
//!     link.transmit(now, &mut wire);
//! }
//! // An error-free saturated link delivers the paper's 89.6 Gb/s.
//! let gbps = goodput_fraction(link.receiver().accepted(), slots) * RAW_GBPS;
//! assert_eq!(format!("{gbps:.1}"), "89.6");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod crc;
pub mod frame;
pub mod gobackn;

pub use channel::{flip_bits, goodput_fraction, Link, EFFECTIVE_GBPS, LANES, LANE_GBPS, RAW_GBPS};
pub use frame::{Frame, FrameKind, EFFICIENCY, FLIT_BYTES, FRAME_BYTES};
pub use gobackn::{GoBackNConfig, Receiver, Sender};
