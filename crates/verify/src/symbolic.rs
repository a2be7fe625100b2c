//! Torus instantiation of the symbolic certification engine.
//!
//! The symbolic engine ([`crate::engine`]) builds the VC dependency graph
//! in `O(machine size)` from the abstract transition system of
//! [`anton_core::dimorder::DimOrderRouting`]: a packet's VC-promotion state
//! between torus dimensions is fully captured by `(m_vc, routed-dimension
//! mask)`, so a breadth-first walk over a handful of abstract states covers
//! every route the machine can carry, without tracing any of them. The
//! 8×8×8 default certifies in well under a second. The route enumerator
//! it is cross-checked against lives in [`crate::deadlock`].
//!
//! This module is the torus-flavored front door: it translates a
//! [`VerifyModel`] (config + dateline/long-arc knobs) into the
//! topology/routing-function pair the engine consumes and preserves the
//! historical `certify` API.

use anton_core::dimorder::DimOrderRouting;
use anton_core::net::TorusTopology;

use crate::engine::certify_routing;
use crate::model::VerifyModel;
use crate::report::DeadlockCertificate;

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
/// concrete `(channel, VC)` cycle with witness routes when it is not.
pub fn certify(model: &VerifyModel) -> DeadlockCertificate {
    let topo = TorusTopology::new(&model.cfg);
    let rf = model_routing(model);
    let (cert, diags) = certify_routing(&topo, &[&rf], model_label(model));
    debug_assert!(
        diags.is_empty(),
        "torus routing broke its envelope: {diags:?}"
    );
    cert
}
