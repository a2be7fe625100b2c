//! # anton-sim
//!
//! Cycle-driven, flit-level simulator of the Anton 2 unified network
//! (*"Unifying on-chip and inter-node switching within the Anton 2
//! network"*, ISCA 2014).
//!
//! The simulator instantiates every structural element of a configured
//! machine — 16 on-chip routers per node with the four-stage RC/VA/SA1/SA2
//! pipeline, skip channels, endpoint adapters with counted-write
//! synchronization, channel adapters with multicast replication tables, and
//! rate-limited external torus channels — and advances them cycle by cycle
//! under credit-based virtual cut-through flow control.
//!
//! * [`sim`] — the simulator core ([`Sim`]): the conductor of the endpoint,
//!   channel-adapter and router layers (one private module each) over the
//!   state they share (`fabric.rs`);
//! * [`builder`] — fluent, lint-validated construction
//!   ([`Sim::builder`]);
//! * [`driver`] — measurement workloads (batch throughput, ping-pong
//!   latency, rate-controlled energy streams, open-loop load);
//! * [`metrics`] — typed metrics records: per-link-class utilization,
//!   arbiter grant counts, link-fault counters;
//! * [`wire`] — the wire layer: one store owning every credit-controlled
//!   channel (optionally behind a lossy go-back-N link shim when a fault
//!   schedule is installed) and the one send / pop / step path;
//! * [`params`] — simulation parameters and physical constants;
//! * [`shard`] — the sharded parallel kernel ([`ShardedSim`]): bounded-lag
//!   windows across one worker thread per contiguous torus sub-brick,
//!   byte-identical to serial execution for every shard count; only the
//!   repository benchmark runs it;
//! * [`state`] — in-flight packet state.
//!
//! # Self-checking invariants
//!
//! Every [`Sim::run`](sim::Sim::run) exit passes through an invariant audit:
//! packet conservation (`created == terminated + live` at quiesce) and
//! per-VC credit balance on every wire. A forward-progress watchdog turns
//! silent deadlocks into a [`RunOutcome::Deadlock`](sim::RunOutcome) with a
//! structured [`sim::DeadlockReport`] naming the stalled VCs, their head
//! packets, and any link-shim backlogs.
//!
//! # Examples
//!
//! ```
//! use anton_core::TorusShape;
//! use anton_sim::driver::BatchDriver;
//! use anton_sim::sim::{RunOutcome, Sim};
//! use anton_traffic::UniformRandom;
//!
//! let mut sim = Sim::builder().shape(TorusShape::cube(2)).build();
//! let mut driver = BatchDriver::builder(&sim)
//!     .pattern(Box::new(UniformRandom))
//!     .packets_per_endpoint(4)
//!     .seed(1)
//!     .build();
//! assert_eq!(sim.run(&mut driver, 100_000), RunOutcome::Completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adapter;
pub mod builder;
pub mod driver;
mod endpoint;
mod fabric;
pub mod metrics;
pub mod params;
mod router;
pub mod shard;
pub mod sim;
pub mod state;
pub mod wake;
pub mod wire;

pub use builder::SimBuilder;
pub use driver::{
    BatchDriver, BatchDriverBuilder, LoadDriver, PayloadKind, PingPongDriver, RateDriver,
};
pub use metrics::{ArbiterGrantCounts, FaultMetrics, LinkClass, LinkClassMetrics, Metrics};
pub use params::{PreflightMode, SimParams, TraceConfig};
pub use shard::{ShardPlan, ShardableDriver, ShardedSim};
pub use sim::{
    DeadlockReport, Delivery, Driver, EnergyCounters, KernelWork, PacketDelivery, RunOutcome, Sim,
    SimStats, StalledVc, StaticVerdict,
};
