//! # anton2 — facade crate
//!
//! Re-exports every crate of the Anton 2 unified-network reproduction
//! (*"Unifying on-chip and inter-node switching within the Anton 2
//! network"*, ISCA 2014) under one roof, for examples and downstream users
//! who want a single dependency:
//!
//! * [`anton_core`] — topology, routing, VC promotion, multicast, packets;
//! * [`anton_arbiter`] — the inverse-weighted arbiter and baselines;
//! * [`anton_link`] — the SerDes link layer (framing, CRC, go-back-N);
//! * [`anton_fault`] — fault injection: deterministic lossy-link schedules
//!   and the go-back-N shim embedded in the simulator's torus channels;
//! * [`anton_traffic`] — evaluation traffic patterns and MD workloads;
//! * [`anton_analysis`] — channel loads, worst-case search, weights;
//! * [`anton_verify`] — the Section 2.5 dependency graph (route enumeration
//!   and symbolic certification), deadlock certificates and config lints;
//! * [`anton_sim`] — the cycle-driven flit-level simulator;
//! * [`anton_obs`] — observability: the JSON tree, the flight recorder,
//!   time series and stall attribution;
//! * [`anton_energy`] — the router energy model and measurement;
//! * [`anton_area`] — the silicon area model;
//! * [`anton_pack`] — machine packaging (backplanes, racks, cables);
//! * [`anton_bench`] — the experiment harness regenerating the paper's
//!   tables and figures.
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.
//!
//! Most programs only need the [`prelude`]:
//!
//! ```
//! use anton2::prelude::*;
//!
//! let cfg = MachineConfig::new(TorusShape::cube(2));
//! let mut sim = Sim::builder().config(cfg).params(SimParams::default()).build();
//! let mut driver = BatchDriver::builder(&sim)
//!     .pattern(Box::new(UniformRandom))
//!     .packets_per_endpoint(4)
//!     .seed(1)
//!     .build();
//! assert_eq!(sim.run(&mut driver, 100_000), RunOutcome::Completed);
//! assert!(sim.metrics().stats.delivered_packets > 0);
//! ```

#![warn(missing_docs)]

pub mod prelude {
    //! One-stop imports for the common experiment workflow: machine
    //! configuration, the simulator and its drivers, traffic patterns, the
    //! arbitration plan and its weights, and the experiment harness.

    pub use anton_analysis::load::LoadAnalysis;
    pub use anton_analysis::weights::ArbiterWeightSet;
    pub use anton_arbiter::{ArbiterKind, ArbiterPlan};
    pub use anton_bench::harness::{ExperimentSpec, Json, Measurement, SweepPoint};
    pub use anton_bench::{run_batch, saturation_rate, BatchRun, FlagSet};
    pub use anton_core::config::MachineConfig;
    pub use anton_core::pattern::TrafficPattern;
    pub use anton_core::topology::TorusShape;
    pub use anton_fault::{FaultKind, FaultSchedule};
    pub use anton_sim::driver::{
        BatchDriver, BatchDriverBuilder, LoadDriver, PayloadKind, PingPongDriver, RateDriver,
    };
    pub use anton_sim::metrics::{LinkClass, Metrics};
    pub use anton_sim::params::{SimParams, TraceConfig};
    pub use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim, SimStats};
    pub use anton_traffic::patterns::{
        BitComplement, Blend, NHopNeighbor, NodePermutation, ReverseTornado, Tornado, Transpose,
        UniformRandom,
    };
}

pub use anton_analysis;
pub use anton_arbiter;
pub use anton_area;
pub use anton_bench;
pub use anton_core;
pub use anton_energy;
pub use anton_fault;
pub use anton_link;
pub use anton_obs;
pub use anton_pack;
pub use anton_sim;
pub use anton_traffic;
pub use anton_verify;
