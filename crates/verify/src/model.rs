//! The machine model the static verifier reasons about.
//!
//! A [`VerifyModel`] is a [`MachineConfig`] plus the knobs that distinguish
//! the machine-as-built from hypothetical (usually broken) variants the
//! verifier can analyze to produce counterexamples — today, whether the
//! dateline-crossing rule is active.

use anton_core::config::MachineConfig;
use anton_core::topology::{NodeCoord, TorusDir};

/// A machine configuration as seen by the static verifier.
#[derive(Debug, Clone)]
pub struct VerifyModel {
    /// The configuration under analysis.
    pub cfg: MachineConfig,
    /// Whether dateline crossings promote VCs. Disabling this models a
    /// machine whose dateline registers were never programmed — the classic
    /// unsafe torus configuration — and must make the verifier produce a
    /// concrete dependency cycle.
    pub datelines: bool,
    /// Whether the model covers the *degraded route family*: torus arcs up
    /// to `k − 1` hops (the long way around a ring, as direction-ordered
    /// degraded route tables take past a down link) in either direction, in
    /// addition to healthy minimal arcs. A simple arc still crosses its
    /// ring's dateline at most once regardless of length, so the same
    /// abstract state machine applies; the edge set is strictly larger.
    pub long_arcs: bool,
}

impl VerifyModel {
    /// The model of the machine as configured (datelines active).
    pub fn new(cfg: MachineConfig) -> VerifyModel {
        VerifyModel {
            cfg,
            datelines: true,
            long_arcs: false,
        }
    }

    /// A model with the dateline rule disabled.
    pub fn without_datelines(cfg: MachineConfig) -> VerifyModel {
        VerifyModel {
            cfg,
            datelines: false,
            long_arcs: false,
        }
    }

    /// The degraded-family model: every direction-ordered route the machine
    /// can carry — healthy minimal dimension-order routing *and* every
    /// direction-ordered degraded table (arcs up to `k − 1` hops, either
    /// sign) — under active datelines.
    ///
    /// This over-approximation is **cyclic for `k ≥ 4`**: crossed long arcs
    /// deliver promoted-VC arrivals far from the dateline, whose low-VC
    /// mesh chains couple opposite-direction rings across slices (see
    /// `anton_verify::degraded` for the full story). It exists as an
    /// analysis model and counterexample generator; concrete table sets
    /// are certified explicitly instead.
    pub fn degraded_family(cfg: MachineConfig) -> VerifyModel {
        VerifyModel {
            cfg,
            datelines: true,
            long_arcs: true,
        }
    }

    /// The dateline-crossing rule under this model.
    #[inline]
    pub fn crosses(&self, node: NodeCoord, dir: TorusDir) -> bool {
        self.datelines && self.cfg.shape.hop_crosses_dateline(node, dir)
    }
}
