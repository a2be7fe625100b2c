//! Fluent construction of simulators.
//!
//! [`Sim::builder`] is the one supported way to stand up a simulator. The
//! builder gathers the machine shape, parameter overrides, and optional
//! traffic patterns, then validates the whole configuration through the
//! `anton-verify` lint engine at [`build`](SimBuilder::build) time — every
//! rejection carries a stable `AVnnn` diagnostic code instead of a panic
//! deep inside construction.
//!
//! Everything [`SimParams`] holds is set through
//! [`params`](SimBuilder::params), with struct-update syntax over the
//! defaults:
//!
//! ```
//! use anton_core::topology::TorusShape;
//! use anton_sim::{Sim, SimParams};
//!
//! let sim = Sim::builder()
//!     .shape(TorusShape::cube(2))
//!     .params(SimParams {
//!         seed: 7,
//!         track_energy: true,
//!         ..SimParams::default()
//!     })
//!     .build();
//! assert_eq!(sim.now(), 0);
//! ```
//!
//! When the arbiter is [`ArbiterKind::InverseWeighted`], supplying the
//! expected traffic via [`traffic`](SimBuilder::traffic) makes `build()`
//! run the offline load analysis, lint the resulting weight tables
//! (AV016), and program every arbitration point — the boilerplate the
//! experiment binaries used to repeat by hand.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::ArbiterKind;
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_core::topology::TorusShape;

use crate::params::{PreflightMode, SimParams};
use crate::shard::ShardedSim;
use crate::sim::Sim;

/// Fluent builder for [`Sim`] and [`ShardedSim`]; see the
/// [module docs](self).
pub struct SimBuilder {
    cfg: MachineConfig,
    params: SimParams,
    traffic: Vec<Box<dyn TrafficPattern>>,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("shape", &self.cfg.shape)
            .field("params", &self.params)
            .field("traffic_patterns", &self.traffic.len())
            .finish()
    }
}

impl Sim {
    /// Starts a builder with the paper-default parameters on a 2×2×2
    /// machine; set the real shape with [`SimBuilder::shape`].
    pub fn builder() -> SimBuilder {
        SimBuilder {
            cfg: MachineConfig::new(TorusShape::cube(2)),
            params: SimParams::default(),
            traffic: Vec::new(),
        }
    }
}

impl SimBuilder {
    /// Machine shape (replaces the configuration with the defaults for
    /// this shape; call before other configuration overrides).
    pub fn shape(mut self, shape: TorusShape) -> SimBuilder {
        self.cfg = MachineConfig::new(shape);
        self
    }

    /// Full machine configuration, for non-default VC policies or routing
    /// tables.
    pub fn config(mut self, cfg: MachineConfig) -> SimBuilder {
        self.cfg = cfg;
        self
    }

    /// Simulation parameters, wholesale; [`arbiter`](SimBuilder::arbiter)
    /// and [`shards`](SimBuilder::shards) called later still apply on top.
    pub fn params(mut self, params: SimParams) -> SimBuilder {
        self.params = params;
        self
    }

    /// Arbitration policy at every on-chip arbitration point.
    pub fn arbiter(mut self, arbiter: ArbiterKind) -> SimBuilder {
        self.params.arbiter = arbiter;
        self
    }

    /// Expected traffic pattern. With an
    /// [`InverseWeighted`](ArbiterKind::InverseWeighted) arbiter,
    /// `build()` computes the pattern's channel loads and programs the
    /// inverse-weight tables (call repeatedly for multi-pattern weights);
    /// with other arbiters the patterns are unused.
    pub fn traffic(mut self, pattern: Box<dyn TrafficPattern>) -> SimBuilder {
        self.traffic.push(pattern);
        self
    }

    /// Worker shards of the parallel kernel. Honored by
    /// [`build_sharded`](SimBuilder::build_sharded); [`build`]
    /// (SimBuilder::build) always constructs the serial kernel.
    pub fn shards(mut self, shards: usize) -> SimBuilder {
        self.params.shards = shards;
        self
    }

    /// Builds the serial simulator.
    ///
    /// # Panics
    ///
    /// With the default [`PreflightMode::Enforce`], panics if the lint
    /// engine reports any error-severity diagnostic (`AV001`–`AV019`)
    /// against the configuration, parameters, or computed arbiter
    /// weights.
    pub fn build(self) -> Sim {
        let SimBuilder {
            cfg,
            params,
            traffic,
        } = self;
        let weights = computed_weights(&cfg, &params, &traffic);
        let mut sim = Sim::construct(cfg, params, None);
        if let Some(set) = &weights {
            sim.install_weights(set);
        }
        sim
    }

    /// Builds the sharded parallel simulator with the configured
    /// [`shards`](SimBuilder::shards) count (`1` reproduces the serial
    /// kernel byte for byte).
    ///
    /// # Panics
    ///
    /// As [`build`](SimBuilder::build); additionally if the shard count
    /// exceeds the node count (also lint `AV019`).
    pub fn build_sharded(self) -> ShardedSim {
        let SimBuilder {
            cfg,
            params,
            traffic,
        } = self;
        let weights = computed_weights(&cfg, &params, &traffic);
        let mut sim = ShardedSim::new(cfg, params);
        if let Some(set) = weights {
            sim.configure(|s| s.install_weights(&set));
        }
        sim
    }
}

/// Computes and lints inverse-arbitration weights when the configuration
/// calls for them.
fn computed_weights(
    cfg: &MachineConfig,
    params: &SimParams,
    traffic: &[Box<dyn TrafficPattern>],
) -> Option<ArbiterWeightSet> {
    let ArbiterKind::InverseWeighted { m_bits } = params.arbiter else {
        return None;
    };
    if traffic.is_empty() {
        return None;
    }
    let analyses: Vec<LoadAnalysis> = traffic
        .iter()
        .map(|p| LoadAnalysis::compute(cfg, p.as_ref()))
        .collect();
    let refs: Vec<&LoadAnalysis> = analyses.iter().collect();
    let set = ArbiterWeightSet::compute(cfg, &refs, m_bits);
    if params.preflight != PreflightMode::Off {
        let diags = anton_verify::lint_weights(&set);
        let errors = diags
            .iter()
            .filter(|d| d.severity == anton_verify::Severity::Error)
            .count();
        for d in &diags {
            eprintln!("anton-sim pre-flight: {d}");
        }
        if errors > 0 && params.preflight == PreflightMode::Enforce {
            panic!(
                "computed arbiter weight set failed lint with {errors} error(s); \
                 set preflight to PreflightMode::WarnOnly to run it anyway"
            );
        }
    }
    Some(set)
}
