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
//!   instantiated with [`DimOrderRouting`], the one torus routing model —
//!   all dimension orders, dateline-crossing patterns, and slices at once,
//!   without enumerating routes. Its constructors name the variants the
//!   verifier analyzes: the machine as built, the machine without its
//!   datelines, and the degraded route family. A cross-check mode
//!   ([`cross_check`]) compares the symbolic graph edge-for-edge against
//!   the route enumerator ([`enumerate_routes`], which traces the route
//!   distribution the load analysis weighs,
//!   `RouteSpec::minimal_routes`) on small machines; both live in
//!   [`deadlock`]. The symbolic engine and the enumerator write the one
//!   dependency graph type, [`graph::SymGraph`], and read its one cycle
//!   search.
//! - **Full-mesh certification** ([`verify_mesh`]): the first non-torus
//!   instance — proves single-hop mesh routing deadlock-free with zero
//!   VCs, and extracts concrete cycle witnesses from the deliberately
//!   cyclic ring-forwarding rule.
//! - **Degraded-topology certification** ([`degraded`]): builds fault-aware
//!   route tables over the live link graph and certifies each concrete
//!   table set explicitly — every path overlaid on the healthy
//!   minimal-routing graph, the union checked for cycles. The healthy walk
//!   has inserted every minimal path's edges already, so only the paths a
//!   table adds are traced into it. (A single down-set-independent
//!   certificate is provably impossible: the long-arc route family is
//!   cyclic for `k ≥ 4`.) The simulator refuses to install anything uncertified
//!   (`AV020`/`AV021`).
//! - **Config lint engine** ([`lint_config`], [`lint_params`],
//!   [`lint_shards`], [`lint_weights`]): 18 typed checks with stable `AV0xx`
//!   codes covering VC budgets, dateline placement, buffer depths, fault
//!   schedules, arbiter weights, and tracing configuration. See
//!   `crate::lint` for the code table.
//!
//! The simulator's builder gathers [`verify_config_and_epochs`] (which
//! walks the healthy routing once for [`verify_config`]'s certificate and
//! extends that graph for [`verify_degraded_epochs`]), [`lint_params`]
//! and [`lint_weights`] into one report before construction (fail-fast by
//! default), and the `verify_config` binary emits a standalone JSON
//! verification report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod deadlock;
pub mod degraded;
pub mod engine;
pub mod graph;
pub mod lint;
pub mod mesh;
pub mod report;

pub use anton_core::dimorder::DimOrderRouting;
pub use anton_core::net::{RoutePath, RoutingFunction, Topology};
pub use deadlock::{cross_check, enumerate_routes, full_enumeration, CrossCheck, RouteEnumeration};
pub use degraded::{
    build_degraded_tables, certify_tables, verify_degraded, verify_degraded_epochs, DegradedVerdict,
};
pub use engine::{build_routing_graph, certify_routing, RoutingGraph};
pub use graph::ChannelVc;
pub use lint::{lint_config, lint_params, lint_shards, lint_weights, ParamsView};
pub use mesh::verify_mesh;
pub use report::{
    CycleCounterexample, DeadlockCertificate, Diagnostic, Severity, VerifyReport, WitnessRoute,
};

use anton_core::config::MachineConfig;
use anton_core::route_table::DownLinkSet;

/// Symbolically certifies a torus routing deadlock-free, or extracts a
/// minimal concrete `(channel, VC)` cycle with witness routes when it is
/// not. The engine's envelope diagnostics (`AV022`/`AV023`: transitions
/// left out of the graph) come back beside the certificate; they are
/// errors, so a report that carries them fails.
///
/// The 8×8×8 default — 140,288 arrivals, 1,009,664 transitions replaying
/// 1,516 traced chip traversals, 431,232 distinct edges — certifies in a
/// median 0.12 s on a 2-vCPU Xeon host (`verify.certify_k8_s`).
pub fn certify(rf: &DimOrderRouting) -> (DeadlockCertificate, Vec<Diagnostic>) {
    model_graph(rf).certify(rf.label())
}

/// The dependency graph of the torus routing `rf` alone, walked once: what
/// [`verify_model`] certifies, and — for the machine as built — what
/// [`verify_degraded_epochs`] extends with reroute tables.
pub fn model_graph(rf: &DimOrderRouting) -> RoutingGraph<'_> {
    let mut g = RoutingGraph::new(rf.topology(), rf.num_vcs());
    g.walk(rf);
    g
}

/// Verifies a torus routing: configuration lints, the dateline lint
/// (`AV003`) and symbolic deadlock certification. A transition the
/// certifier had to leave out adds its `AV022`/`AV023` error, and a
/// dependency cycle an `AV002` error carrying the counterexample summary;
/// the full counterexample rides on the report's certificate.
pub fn verify_model(rf: &DimOrderRouting) -> VerifyReport {
    model_report(rf, &model_graph(rf))
}

/// [`verify_model`]'s report, certifying `rf`'s graph `g`.
fn model_report(rf: &DimOrderRouting, g: &RoutingGraph<'_>) -> VerifyReport {
    let cfg = rf.config();
    let mut diagnostics = lint_config(cfg);
    if !rf.datelines() && lint::usable_dim_count(cfg) > 0 {
        diagnostics.push(
            Diagnostic::error(
                "AV003",
                "dateline VC promotion is disabled on a wrapping torus — \
                 ring dependencies are unbroken",
            )
            .with("shape", cfg.shape),
        );
    }
    let (certificate, envelope) = g.certify(rf.label());
    diagnostics.extend(envelope);
    if !certificate.acyclic {
        diagnostics.push(
            Diagnostic::error(
                "AV002",
                format!("channel dependency graph has a cycle — {certificate}"),
            )
            .with_cycle(&certificate, 6),
        );
    }
    VerifyReport {
        diagnostics,
        certificate: Some(certificate),
    }
}

/// Verifies a machine configuration as built (datelines active). At
/// 8×8×8 nearly all of its cost is [`certify`]'s walk.
pub fn verify_config(cfg: &MachineConfig) -> VerifyReport {
    verify_model(&DimOrderRouting::new(cfg.clone()))
}

/// [`verify_config`], and with any `epochs` the reroute tables of those
/// down-link sets certified as one union by [`verify_degraded_epochs`]:
/// the simulator's pre-run gate. The healthy routing is walked once; its
/// graph is certified for the report, then extended with the tables'
/// routes and certified again. Both come out as [`verify_config`] and
/// [`verify_degraded_epochs`] over a graph of their own give them.
pub fn verify_config_and_epochs(
    cfg: &MachineConfig,
    epochs: &[DownLinkSet],
) -> (VerifyReport, Option<DegradedVerdict>) {
    let rf = DimOrderRouting::new(cfg.clone());
    let g = model_graph(&rf);
    let report = model_report(&rf, &g);
    let degraded = (!epochs.is_empty()).then(|| verify_degraded_epochs(&rf, g, epochs));
    (report, degraded)
}
