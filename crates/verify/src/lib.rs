//! Static verification for the Anton 2 network model.
//!
//! This crate certifies a machine configuration *before* simulation:
//!
//! - **Topology-agnostic certification engine** ([`engine`]): consumes any
//!   [`anton_core::net::Topology`] + [`anton_core::net::RoutingFunction`]
//!   pair, derives the `(channel, VC)` dependency graph from the routing
//!   function's abstract transition system, and proves it acyclic — or
//!   extracts a minimal concrete cycle with witness routes when it is not.
//!   Routing functions that step outside their declared envelope raise
//!   `AV022`/`AV023`.
//! - **Symbolic torus certification** ([`certify`]): the engine
//!   instantiated with dimension-order torus routing — all dimension
//!   orders, dateline-crossing patterns, and slices at once, without
//!   enumerating routes. A cross-check mode ([`cross_check`]) compares the
//!   symbolic graph edge-for-edge against the route-enumerating checker in
//!   `anton-analysis` on small machines.
//! - **Full-mesh certification** ([`verify_mesh`]): the first non-torus
//!   instance — proves single-hop mesh routing deadlock-free with zero
//!   VCs, and extracts concrete cycle witnesses from the deliberately
//!   cyclic ring-forwarding rule.
//! - **Degraded-topology certification** ([`degraded`]): builds fault-aware
//!   route tables over the live link graph and certifies each concrete
//!   table set explicitly — every path walked through the reference
//!   tracer, overlaid on the healthy minimal-routing graph, the union
//!   checked for cycles. (A single down-set-independent certificate is
//!   provably impossible: the long-arc route family is cyclic for
//!   `k ≥ 4`.) The simulator refuses to install anything uncertified
//!   (`AV020`/`AV021`).
//! - **Config lint engine** ([`lint_config`], [`lint_params`],
//!   [`lint_shards`], [`lint_weights`]): ~18 typed checks with stable `AV0xx` codes covering
//!   VC budgets, dateline placement, direction-order tables, buffer
//!   depths, fault schedules, arbiter weights, and tracing configuration. See `crate::lint` for the code table.
//!
//! The simulator runs [`preflight`] during construction (fail-fast by
//! default), the experiment harness verifies configurations before
//! launching batches, and the `verify_config` binary emits a standalone
//! JSON verification report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod degraded;
pub mod engine;
pub mod graph;
pub mod lint;
pub mod mesh;
pub mod model;
pub mod report;
pub mod symbolic;

pub use anton_analysis::deadlock::{ChannelVc, RouteEnumeration};
pub use anton_core::net::{RoutePath, RoutingFunction, Topology};
pub use degraded::{
    build_degraded_tables, certify_family, certify_tables, verify_degraded, DegradedVerdict,
};
pub use engine::{build_routing_graph, certify_routing};
pub use lint::{lint_config, lint_model, lint_params, lint_shards, lint_weights, ParamsView};
pub use mesh::verify_mesh;
pub use model::VerifyModel;
pub use report::{
    CycleCounterexample, DeadlockCertificate, Diagnostic, Severity, VerifyReport, WitnessRoute,
};
pub use symbolic::{certify, cross_check, full_enumeration, CrossCheck};

use anton_core::config::MachineConfig;

/// Verifies a model: configuration lints plus symbolic deadlock
/// certification. A dependency cycle adds an `AV002` error carrying the
/// counterexample summary; the full counterexample rides on the report's
/// certificate.
pub fn verify_model(model: &VerifyModel) -> VerifyReport {
    let mut diagnostics = lint_model(model);
    let certificate = certify(model);
    if !certificate.acyclic {
        let mut d = Diagnostic::error(
            "AV002",
            format!("channel dependency graph has a cycle — {certificate}"),
        );
        if let Some(ce) = &certificate.counterexample {
            d = d.with("cycle_length", ce.cycle.len());
            for (i, (link, vc)) in ce.cycle.iter().take(6).enumerate() {
                d = d.with(format!("cycle[{i}]"), format!("{link}@{vc}"));
            }
            if let Some(w) = ce.witnesses.first() {
                d = d.with("witness", w);
            }
        }
        diagnostics.push(d);
    }
    VerifyReport {
        diagnostics,
        certificate: Some(certificate),
    }
}

/// Verifies a machine configuration as built (datelines active).
pub fn verify_config(cfg: &MachineConfig) -> VerifyReport {
    verify_model(&VerifyModel::new(cfg.clone()))
}

/// The pre-flight check the simulator runs before construction: full
/// configuration verification plus parameter lints.
pub fn preflight(cfg: &MachineConfig, view: &ParamsView<'_>) -> VerifyReport {
    let mut report = verify_config(cfg);
    report.diagnostics.extend(lint_params(cfg, view));
    report
}
