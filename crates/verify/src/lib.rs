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
//!   table set explicitly — every path walked through the reference
//!   tracer, overlaid on the healthy minimal-routing graph, the union
//!   checked for cycles. (A single down-set-independent certificate is
//!   provably impossible: the long-arc route family is cyclic for
//!   `k ≥ 4`.) The simulator refuses to install anything uncertified
//!   (`AV020`/`AV021`).
//! - **Config lint engine** ([`lint_config`], [`lint_params`],
//!   [`lint_shards`], [`lint_weights`]): 18 typed checks with stable `AV0xx`
//!   codes covering VC budgets, dateline placement, buffer depths, fault
//!   schedules, arbiter weights, and tracing configuration. See
//!   `crate::lint` for the code table.
//!
//! The simulator's builder gathers [`verify_config`], [`lint_params`],
//! [`verify_degraded_epochs`] and [`lint_weights`] into one report before
//! construction (fail-fast by default), and the `verify_config` binary
//! emits a standalone JSON verification report.

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
pub use engine::{build_routing_graph, certify_routing};
pub use graph::ChannelVc;
pub use lint::{lint_config, lint_params, lint_shards, lint_weights, ParamsView};
pub use mesh::verify_mesh;
pub use report::{
    CycleCounterexample, DeadlockCertificate, Diagnostic, Severity, VerifyReport, WitnessRoute,
};

use anton_core::config::MachineConfig;
use anton_core::net::TorusTopology;

/// Symbolically certifies a torus routing deadlock-free, or extracts a
/// minimal concrete `(channel, VC)` cycle with witness routes when it is
/// not. The engine's envelope diagnostics (`AV022`/`AV023`: transitions
/// left out of the graph) come back beside the certificate; they are
/// errors, so a report that carries them fails.
///
/// The 8×8×8 default — 140,288 arrivals, 1,009,664 transitions, 431,232
/// distinct edges — certifies in a median 0.32 s on a 2-vCPU Xeon host
/// (`verify.certify_k8_s`).
pub fn certify(rf: &DimOrderRouting) -> (DeadlockCertificate, Vec<Diagnostic>) {
    let topo = TorusTopology::new(rf.config());
    certify_routing(&topo, &[rf], rf.label())
}

/// Verifies a torus routing: configuration lints, the dateline lint
/// (`AV003`) and symbolic deadlock certification. A transition the
/// certifier had to leave out adds its `AV022`/`AV023` error, and a
/// dependency cycle an `AV002` error carrying the counterexample summary;
/// the full counterexample rides on the report's certificate.
pub fn verify_model(rf: &DimOrderRouting) -> VerifyReport {
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
    let (certificate, envelope) = certify(rf);
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

/// Verifies a machine configuration as built (datelines active).
pub fn verify_config(cfg: &MachineConfig) -> VerifyReport {
    verify_model(&DimOrderRouting::new(cfg.clone()))
}
