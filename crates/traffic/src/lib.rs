//! # anton-traffic
//!
//! Traffic patterns and workloads used by the Anton 2 network evaluation
//! (Section 4 of *"Unifying on-chip and inter-node switching within the
//! Anton 2 network"*):
//!
//! * [`patterns`] — uniform random, n-hop neighbor, tornado, reverse
//!   tornado, blends, and explicit node permutations;
//! * [`md`] — MD-like halo multicast workloads (Figure 3).
//!
//! All patterns implement [`anton_core::pattern::TrafficPattern`] with one
//! description, from which both the load analyses and the drivers derive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod md;
pub mod patterns;

pub use md::{build_halo_groups, halo_dest_set, HaloSpec};
pub use patterns::{
    BitComplement, Blend, NHopNeighbor, NodePermutation, ReverseTornado, Tornado, Transpose,
    UniformRandom,
};
