//! Torus instantiation of the symbolic certification engine.
//!
//! The symbolic engine ([`crate::engine`]) builds the VC dependency graph
//! in `O(machine size)` from the abstract transition system of
//! [`anton_core::dimorder::DimOrderRouting`]: a packet's VC-promotion state
//! between torus dimensions is fully captured by `(m_vc, routed-dimension
//! mask)`, so a breadth-first walk over a handful of abstract states covers
//! every route the machine can carry, without tracing any of them. The
//! 8×8×8 default — 140,288 arrivals, 1,009,664 transitions, 431,232
//! distinct edges — certifies in a median 0.32 s on a 2-vCPU Xeon host
//! (`verify.certify_k8_s`), down from 0.55 s before the walk stopped
//! allocating per transition and the graph stored its edges flat. The
//! route enumerator it is cross-checked against lives in
//! [`crate::deadlock`].
//!
//! This module is the torus-flavored front door: it translates a
//! [`VerifyModel`] (config + dateline/long-arc knobs) into the
//! topology/routing-function pair the engine consumes and preserves the
//! historical `certify` API.

use anton_core::dimorder::DimOrderRouting;
use anton_core::net::TorusTopology;

use crate::engine::certify_routing;
use crate::model::VerifyModel;
use crate::report::{DeadlockCertificate, Diagnostic};

/// The certificate label of a torus model: VC policy plus dateline setting.
pub(crate) fn model_label(model: &VerifyModel) -> String {
    format!(
        "{} policy, datelines {}",
        model.cfg.vc_policy,
        if model.datelines { "on" } else { "off" }
    )
}

/// The model's routing function: dimension-order routing under the model's
/// dateline and arc-length knobs.
pub(crate) fn model_routing(model: &VerifyModel) -> DimOrderRouting {
    DimOrderRouting::new(model.cfg.clone(), model.datelines, model.long_arcs)
}

/// Symbolically certifies a model deadlock-free, or extracts a minimal
/// concrete `(channel, VC)` cycle with witness routes when it is not. The
/// engine's envelope diagnostics (`AV022`/`AV023`: transitions left out of
/// the graph) come back beside the certificate; they are errors, so a
/// report that carries them fails.
pub fn certify(model: &VerifyModel) -> (DeadlockCertificate, Vec<Diagnostic>) {
    let topo = TorusTopology::new(&model.cfg);
    let rf = model_routing(model);
    certify_routing(&topo, &[&rf], model_label(model))
}
