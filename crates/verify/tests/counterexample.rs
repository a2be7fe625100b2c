//! Certification of the full-size machine and counterexample extraction on
//! broken configurations.

use anton_core::config::MachineConfig;
use anton_core::net::RoutePath;
use anton_core::routing::RouteSpec;
use anton_core::topology::TorusShape;
use anton_core::trace::trace_unicast;
use anton_core::vc::VcPolicy;
use anton_verify::{certify, verify_config, verify_model, Severity, VerifyModel};

/// The paper's default machine certifies deadlock-free without enumerating
/// a single route. The node/edge counts are pinned: the trait-based
/// certification engine must produce a graph edge-identical to the
/// original hard-wired dimension-order model.
#[test]
fn default_8x8x8_certifies_acyclic() {
    let cfg = MachineConfig::new(TorusShape::cube(8));
    let cert = certify(&VerifyModel::new(cfg));
    assert!(cert.acyclic, "{cert}");
    assert_eq!(cert.nodes, 198_912, "{cert}");
    assert_eq!(cert.edges, 431_232, "{cert}");
    assert!(cert.counterexample.is_none());
}

#[test]
fn baseline_8x8x8_certifies_acyclic() {
    let mut cfg = MachineConfig::new(TorusShape::cube(8));
    cfg.vc_policy = VcPolicy::Baseline2n;
    let cert = certify(&VerifyModel::new(cfg));
    assert!(cert.acyclic, "{cert}");
}

fn assert_counterexample_valid(model: &VerifyModel) {
    let cert = certify(model);
    assert!(!cert.acyclic, "expected a dependency cycle: {cert}");
    let ce = cert.counterexample.as_ref().expect("counterexample");
    assert!(ce.cycle.len() >= 2, "cycle of length {}", ce.cycle.len());
    assert!(!ce.witnesses.is_empty(), "no witness routes synthesized");
    // Every reported witness must re-trace to a route that holds the edge's
    // first (channel, VC) while requesting the second.
    for w in &ce.witnesses {
        let RoutePath::Torus { hops, slice } = &w.path else {
            panic!("torus witness {w} has a non-torus path");
        };
        let spec = RouteSpec::from_hops(&model.cfg.shape, *slice, hops).expect("witness route");
        let steps = trace_unicast(&model.cfg, w.src, w.dst, &spec, &|n, d| model.crosses(n, d));
        assert!(
            steps
                .windows(2)
                .any(|p| p[0] == w.holds && p[1] == w.waits_for),
            "witness {w} does not reproduce its edge"
        );
        // And every witness edge must lie on the reported cycle.
        let on_cycle = (0..ce.cycle.len())
            .any(|i| ce.cycle[i] == w.holds && ce.cycle[(i + 1) % ce.cycle.len()] == w.waits_for);
        assert!(on_cycle, "witness {w} is not a cycle edge");
    }
}

/// Disabling dateline promotion on a 4×4×4 torus must produce a concrete
/// channel/VC ring with validated witness routes.
#[test]
fn datelines_off_yields_concrete_cycle() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let model = VerifyModel::without_datelines(cfg);
    assert_counterexample_valid(&model);
    // And the report surfaces it as AV003 + AV002.
    let report = verify_model(&model);
    assert!(report.has_errors());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"AV003"), "{codes:?}");
    assert!(codes.contains(&"AV002"), "{codes:?}");
}

/// A VC budget below n+1 (the single-VC negative control) must produce a
/// concrete cycle on the full-size machine.
#[test]
fn naive_single_vc_8x8x8_yields_concrete_cycle() {
    let mut cfg = MachineConfig::new(TorusShape::cube(8));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    assert_counterexample_valid(&VerifyModel::new(cfg.clone()));
    let report = verify_config(&cfg);
    assert!(report.has_errors());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"AV001"), "{codes:?}");
    assert!(codes.contains(&"AV002"), "{codes:?}");
}

/// The clean default produces a clean report, exportable as JSON.
#[test]
fn clean_config_report_is_clean_and_exports_json() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let report = verify_config(&cfg);
    assert!(!report.has_errors(), "{:?}", report.diagnostics);
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count(),
        0
    );
    let j = report.to_json();
    assert_eq!(j.get("ok").and_then(|v| v.as_bool()), Some(true));
    let text = j.to_pretty_string();
    let back = anton_obs::json::Json::parse(&text).expect("report JSON parses");
    assert_eq!(back.get("ok").and_then(|v| v.as_bool()), Some(true));
    assert!(report.certificate.as_ref().unwrap().acyclic);
}
