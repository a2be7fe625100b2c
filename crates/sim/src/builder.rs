//! Fluent construction of simulators, and the one pre-run gate.
//!
//! [`Sim::builder`] is the one supported way to stand up a simulator. At
//! [`build`](SimBuilder::build) time everything decided before cycle 0 is
//! decided once, for either kernel: the configuration and parameter lints
//! with the VC deadlock certificate, the reroute tables of the fault
//! schedule's `Down` epochs (certified as one union over the same healthy
//! graph by [`anton_verify::verify_model_and_epochs`]) and the weight
//! lints (AV016) form one report, to which one function applies
//! [`PreflightMode`]. Every rejection carries a stable `AVnnn` code;
//! `Sim::construct` only assembles what the gate settled.
//!
//! Each thing a caller sets has one setter, and no setter resets
//! another's value, so their order does not matter: the machine is
//! [`config`](SimBuilder::config), the arbitration plan
//! [`arbiter`](SimBuilder::arbiter), and everything [`SimParams`] holds
//! [`params`](SimBuilder::params), with struct-update syntax over the
//! defaults:
//!
//! ```
//! use anton_arbiter::ArbiterKind;
//! use anton_core::{MachineConfig, TorusShape};
//! use anton_sim::{Sim, SimParams, TraceConfig};
//!
//! let sim = Sim::builder()
//!     .arbiter(ArbiterKind::Age)
//!     .config(MachineConfig::new(TorusShape::cube(2)))
//!     .params(SimParams {
//!         seed: 7,
//!         trace: TraceConfig {
//!             energy: true,
//!             ..TraceConfig::default()
//!         },
//!         ..SimParams::default()
//!     })
//!     .build();
//! assert_eq!(sim.now(), 0);
//! ```
//!
//! With an [`ArbiterPlan`] that weights some site (the `iw` row weights
//! SA1, SA2 and the serializer), expected traffic
//! ([`traffic`](SimBuilder::traffic)) makes `build()` run the offline load
//! analysis and program the weighted sites; a caller that holds a weight
//! set passes it with [`weights`](SimBuilder::weights) instead.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::{ArbiterKind, ArbiterPlan};
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_core::topology::TorusShape;
use anton_verify::{Diagnostic, DimOrderRouting, VerifyReport};

use crate::fabric::DegradedState;
use crate::params::{PreflightMode, SimParams};
use crate::shard::{ShardPlan, ShardedSim};
use crate::sim::{Sim, StaticVerdict};

/// Fluent builder for [`Sim`] and [`ShardedSim`]; see the
/// [module docs](self).
pub struct SimBuilder {
    cfg: MachineConfig,
    params: SimParams,
    plan: ArbiterPlan,
    traffic: Vec<Box<dyn TrafficPattern>>,
    weights: Option<ArbiterWeightSet>,
    shards: usize,
}

impl std::fmt::Debug for SimBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBuilder")
            .field("shape", &self.cfg.shape)
            .field("params", &self.params)
            .field("plan", &self.plan)
            .field("traffic_patterns", &self.traffic.len())
            .field("weights", &self.weights.is_some())
            .field("shards", &self.shards)
            .finish()
    }
}

impl Sim {
    /// Starts a builder with the paper-default parameters and round-robin
    /// arbiters on a 2×2×2 machine; set the real machine with
    /// [`SimBuilder::config`].
    pub fn builder() -> SimBuilder {
        SimBuilder {
            cfg: MachineConfig::new(TorusShape::cube(2)),
            params: SimParams::default(),
            plan: ArbiterKind::RoundRobin.into(),
            traffic: Vec::new(),
            weights: None,
            shards: 1,
        }
    }
}

impl SimBuilder {
    /// The machine: its shape, VC policy and chip
    /// ([`MachineConfig::new`] gives a shape's defaults).
    pub fn config(mut self, cfg: MachineConfig) -> SimBuilder {
        self.cfg = cfg;
        self
    }

    /// Simulation parameters, wholesale.
    pub fn params(mut self, params: SimParams) -> SimBuilder {
        self.params = params;
        self
    }

    /// The arbitration plan of SA1, SA2 and the serializer (round robin
    /// everywhere by default); an [`ArbiterKind`] names its row of the
    /// [`ArbiterPlan`] table.
    pub fn arbiter(mut self, plan: impl Into<ArbiterPlan>) -> SimBuilder {
        self.plan = plan.into();
        self
    }

    /// Expected traffic pattern. With a plan that weights some site,
    /// `build()` computes the pattern's channel loads and programs the
    /// inverse-weight tables there (call repeatedly for multi-pattern
    /// weights); with other plans the patterns are unused.
    pub fn traffic(mut self, pattern: Box<dyn TrafficPattern>) -> SimBuilder {
        self.traffic.push(pattern);
        self
    }

    /// A precomputed arbiter weight set to program at the plan's weighted
    /// sites, for callers that share one set across simulators. The plan
    /// must weight some site, and every site it starts inverse-weighted
    /// must have the set's `m_bits`
    /// ([`ArbiterPlan::takes_weights`]); otherwise the set is not
    /// installed and the pre-run gate reports `AV016`. Building panics if
    /// [`traffic`](SimBuilder::traffic) was also given.
    pub fn weights(mut self, set: ArbiterWeightSet) -> SimBuilder {
        self.weights = Some(set);
        self
    }

    /// Worker shards of the parallel kernel. Honored by
    /// [`build_sharded`](SimBuilder::build_sharded);
    /// [`build`](SimBuilder::build) constructs the serial kernel and ignores
    /// the count.
    pub fn shards(mut self, shards: usize) -> SimBuilder {
        self.shards = shards;
        self
    }

    /// Builds the serial simulator.
    ///
    /// # Panics
    ///
    /// With the default [`PreflightMode::Enforce`], panics if the pre-run
    /// gate reports any error-severity diagnostic (`AV0xx`) against the
    /// configuration, parameters, degraded route tables or arbiter weights.
    pub fn build(mut self) -> Sim {
        let pre = self.pre_run();
        Sim::construct(self.cfg, self.params, &self.plan, &pre, None)
    }

    /// Builds the sharded parallel simulator with the configured
    /// [`shards`](SimBuilder::shards) count, one contiguous range of nodes
    /// per shard (`1` reproduces the serial kernel byte for byte).
    ///
    /// # Panics
    ///
    /// As [`build`](SimBuilder::build); additionally, under every
    /// [`PreflightMode`], if the shard count is zero or exceeds the node
    /// count (lint `AV019`).
    pub fn build_sharded(self) -> ShardedSim {
        if let Some(d) = anton_verify::lint_shards(&self.cfg, self.shards) {
            panic!("cannot build the sharded kernel: {d}");
        }
        let plan = ShardPlan::contiguous(self.cfg.shape.num_nodes(), self.shards);
        self.build_on(plan)
    }

    /// Builds the sharded kernel over an explicit plan: the gate runs once,
    /// and every replica assembles its decisions.
    pub(crate) fn build_on(mut self, plan: ShardPlan) -> ShardedSim {
        let pre = self.pre_run();
        ShardedSim::assemble(self.cfg, self.params, &self.plan, plan, &pre)
    }

    /// The one pre-run gate (see the [module docs](self)): resolves the
    /// weights, gathers every check into one report and applies the
    /// preflight mode to it.
    fn pre_run(&mut self) -> PreRun {
        let (cfg, params, plan) = (&self.cfg, &self.params, &self.plan);
        assert!(
            self.weights.is_none() || self.traffic.is_empty(),
            "SimBuilder: pass arbiter weights either precomputed (.weights) or \
             derived from expected traffic (.traffic), not both"
        );
        // A set is programmed only at the plan's weighted sites, and only
        // beside inverse-weighted sites of its own width; any other pairing
        // is AV016 and the set stays uninstalled.
        let weights = self
            .weights
            .take()
            .or_else(|| computed_weights(cfg, plan, &self.traffic));
        let mismatch = weights
            .as_ref()
            .filter(|set| !plan.takes_weights(set.m_bits))
            .map(|set| {
                Diagnostic::error(
                    "AV016",
                    format!(
                        "a {}-bit arbiter weight set does not fit the arbitration plan `{}`",
                        set.m_bits, plan
                    ),
                )
                .with("weights_m_bits", set.m_bits)
            });
        let weights = weights.filter(|_| mismatch.is_none());
        if params.preflight == PreflightMode::Off {
            return PreRun {
                weights,
                ..PreRun::default()
            };
        }
        let (dg, sets) = params
            .fault
            .as_ref()
            .and_then(|schedule| DegradedState::timeline(cfg.shape, schedule))
            .map_or((None, Vec::new()), |(dg, sets)| (Some(dg), sets));
        let (mut report, verdict) =
            anton_verify::verify_model_and_epochs(&DimOrderRouting::new(cfg.clone()), &sets);
        report
            .diagnostics
            .extend(anton_verify::lint_params(cfg, &params.verify_view(plan)));
        let has_downs = dg.is_some();
        let degraded = dg.zip(verdict).and_then(|(dg, verdict)| {
            let certified = verdict.certified();
            report.diagnostics.extend(verdict.diagnostics);
            certified.then(|| Box::new(dg.with_tables(verdict.tables)))
        });
        if let Some(set) = &weights {
            report.diagnostics.extend(anton_verify::lint_weights(set));
        }
        report.diagnostics.extend(mismatch);
        apply_mode(&report, params.preflight);
        if has_downs && degraded.is_none() {
            eprintln!("anton-sim pre-flight: degraded route tables not installed");
        }
        let verdict = match report.certificate.as_ref() {
            Some(c) if c.acyclic => StaticVerdict::CertifiedAcyclic,
            Some(_) => StaticVerdict::PredictedDeadlock,
            None => StaticVerdict::Unknown,
        };
        PreRun {
            verdict,
            degraded,
            weights,
        }
    }
}

/// What the pre-run gate settled: the static verdict, the degraded-routing
/// timeline with its certified tables (`None` without `Down` windows, with
/// preflight off, or when certification failed) and the weights.
#[derive(Default)]
pub(crate) struct PreRun {
    pub(crate) verdict: StaticVerdict,
    pub(crate) degraded: Option<Box<DegradedState>>,
    pub(crate) weights: Option<ArbiterWeightSet>,
}

/// Applies a [`PreflightMode`] other than `Off` to the gate's report:
/// under `Enforce` any error panics, once, with every diagnostic in the
/// message; otherwise every diagnostic is printed once.
fn apply_mode(report: &VerifyReport, mode: PreflightMode) {
    if report.has_errors() && mode == PreflightMode::Enforce {
        let text: String = report
            .diagnostics
            .iter()
            .map(|d| format!("{d}\n"))
            .collect();
        panic!(
            "static pre-flight verification rejected this configuration \
             ({}):\n{text}set SimParams::preflight to PreflightMode::WarnOnly \
             to run it anyway",
            report.summary()
        );
    }
    for d in &report.diagnostics {
        eprintln!("anton-sim pre-flight: {d}");
    }
}

/// Computes inverse-arbitration weights from the expected traffic when the
/// plan calls for them.
fn computed_weights(
    cfg: &MachineConfig,
    plan: &ArbiterPlan,
    traffic: &[Box<dyn TrafficPattern>],
) -> Option<ArbiterWeightSet> {
    let m_bits = plan.weight_bits()?;
    if traffic.is_empty() {
        return None;
    }
    let analyses: Vec<LoadAnalysis> = traffic
        .iter()
        .map(|p| LoadAnalysis::compute(cfg, p.as_ref()))
        .collect();
    let refs: Vec<&LoadAnalysis> = analyses.iter().collect();
    Some(ArbiterWeightSet::compute(cfg, &refs, m_bits))
}
