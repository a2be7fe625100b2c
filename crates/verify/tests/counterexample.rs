//! Certification of the full-size machine and counterexample extraction on
//! broken configurations.

use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::{RoutePath, TorusTopology};
use anton_core::routing::RouteSpec;
use anton_core::topology::TorusShape;
use anton_core::trace::trace_unicast;
use anton_core::vc::VcPolicy;
use anton_verify::{
    certify, enumerate_routes, verify_config, verify_model, RouteEnumeration, Severity,
};

/// The paper's default machine certifies deadlock-free without enumerating
/// a single route. The node/edge counts are pinned: the trait-based
/// certification engine must produce a graph edge-identical to the
/// original hard-wired dimension-order model.
#[test]
fn default_8x8x8_certifies_acyclic() {
    let cfg = MachineConfig::new(TorusShape::cube(8));
    let (cert, diags) = certify(&DimOrderRouting::new(cfg));
    assert!(diags.is_empty(), "{diags:?}");
    assert!(cert.acyclic, "{cert}");
    assert_eq!(cert.nodes, 198_912, "{cert}");
    assert_eq!(cert.edges, 431_232, "{cert}");
    assert!(cert.counterexample.is_none());
}

#[test]
fn baseline_8x8x8_certifies_acyclic() {
    let mut cfg = MachineConfig::new(TorusShape::cube(8));
    cfg.vc_policy = VcPolicy::Baseline2n;
    let (cert, diags) = certify(&DimOrderRouting::new(cfg));
    assert!(diags.is_empty(), "{diags:?}");
    assert!(cert.acyclic, "{cert}");
}

fn assert_counterexample_valid(model: &DimOrderRouting) {
    let (cert, diags) = certify(model);
    assert!(diags.is_empty(), "{diags:?}");
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
        let cfg = model.config();
        let spec = RouteSpec::from_hops(&cfg.shape, *slice, hops).expect("witness route");
        let steps = trace_unicast(cfg, w.src, w.dst, &spec, &|n, d| model.crosses(n, d));
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
    let model = DimOrderRouting::without_datelines(cfg);
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
    assert_counterexample_valid(&DimOrderRouting::new(cfg.clone()));
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

/// The Z+ slice-0 ring of a 4×4×4 torus through node 0, as both broken
/// models report it: the cycle `find_cycle` and `minimize_cycle` pick depends
/// on the order edges were inserted, so it pins that order too.
const Z_RING: [&str; 12] = [
    "n0/Z+s0@vc0",
    "n16/Z0-->R@vc0",
    "n16/R->Z0+@vc0",
    "n16/Z+s0@vc0",
    "n32/Z0-->R@vc0",
    "n32/R->Z0+@vc0",
    "n32/Z+s0@vc0",
    "n48/Z0-->R@vc0",
    "n48/R->Z0+@vc0",
    "n48/Z+s0@vc0",
    "n0/Z0-->R@vc0",
    "n0/R->Z0+@vc0",
];

/// The witnesses of [`Z_RING`], one per cycle edge up to the cap of eight,
/// in the order the walk finds them.
const Z_RING_WITNESSES: [&str; 8] = [
    "n0:E0 -> n16:E0 via [Z+] s0: holds n0/Z+s0@vc0 waits n16/Z0-->R@vc0",
    "n16:E0 -> n32:E0 via [Z+] s0: holds n16/R->Z0+@vc0 waits n16/Z+s0@vc0",
    "n16:E0 -> n32:E0 via [Z+] s0: holds n16/Z+s0@vc0 waits n32/Z0-->R@vc0",
    "n32:E0 -> n48:E0 via [Z+] s0: holds n32/R->Z0+@vc0 waits n32/Z+s0@vc0",
    "n32:E0 -> n48:E0 via [Z+] s0: holds n32/Z+s0@vc0 waits n48/Z0-->R@vc0",
    "n48:E0 -> n0:E0 via [Z+] s0: holds n48/R->Z0+@vc0 waits n48/Z+s0@vc0",
    "n48:E0 -> n0:E0 via [Z+] s0: holds n48/Z+s0@vc0 waits n0/Z0-->R@vc0",
    "n0:E0 -> n16:E0 via [Z+] s0: holds n0/R->Z0+@vc0 waits n0/Z+s0@vc0",
];

/// A model's counterexample, as the text the reports print.
fn counterexample_text(model: &DimOrderRouting) -> (Vec<String>, Vec<String>) {
    let cert = verify_model(model)
        .certificate
        .expect("a model is certified");
    let ce = cert
        .counterexample
        .expect("a cyclic model has a counterexample");
    let cycle = ce.cycle.iter().map(|(l, vc)| format!("{l}@{vc}")).collect();
    let witnesses = ce.witnesses.iter().map(ToString::to_string).collect();
    (cycle, witnesses)
}

/// The naive single-VC policy's AV002 on a 4×4×4 torus, field by field as
/// `verify_config --k 4 --policy naive` prints it, and its whole
/// counterexample.
#[test]
fn naive_4x4x4_counterexample_is_pinned() {
    let mut cfg = MachineConfig::new(TorusShape::cube(4));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let (cycle, witnesses) = counterexample_text(&DimOrderRouting::new(cfg.clone()));
    assert_eq!(cycle, Z_RING);
    assert_eq!(witnesses, Z_RING_WITNESSES);
    let report = verify_config(&cfg);
    let av002 = report.diagnostics.iter().find(|d| d.code == "AV002");
    let field = |key: &str| {
        let d = av002.expect("a cyclic model raises AV002");
        let value = d.context.iter().find(|(k, _)| k == key);
        value.map(|(_, v)| v.as_str())
    };
    assert_eq!(field("cycle_length"), Some("12"));
    assert_eq!(field("cycle[0]"), Some("n0/Z+s0@vc0"));
    assert_eq!(field("witness"), Some(Z_RING_WITNESSES[0]));
}

/// The datelines-off 4×4×4 model (AV003) reports the same Z ring and
/// witnesses as the naive policy: without promotion both stay on VC 0.
#[test]
fn datelines_off_4x4x4_counterexample_is_pinned() {
    let model = DimOrderRouting::without_datelines(MachineConfig::new(TorusShape::cube(4)));
    let (cycle, witnesses) = counterexample_text(&model);
    assert_eq!(cycle, Z_RING);
    assert_eq!(witnesses, Z_RING_WITNESSES);
}

/// The route enumerator's naive-policy cycle on a 4×4×4 torus, as
/// `sec25_deadlock --k 4` prints it ("cycle of length 16 through
/// n0/R->X1+"), pinned whole.
#[test]
fn enumerated_naive_4x4x4_cycle_is_pinned() {
    let mut cfg = MachineConfig::new(TorusShape::cube(4));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let topo = TorusTopology::new(&cfg);
    let graph = enumerate_routes(&topo, &cfg, &RouteEnumeration::default());
    let cycle = graph.find_cycle().expect("the naive policy is cyclic");
    let cycle: Vec<String> = graph
        .minimize_cycle(cycle)
        .into_iter()
        .map(|i| {
            let (link, vc) = graph.decode(i);
            format!("{link}@{vc}")
        })
        .collect();
    let x_ring = [
        "n0/R->X1+@vc0",
        "n0/X+s1@vc0",
        "n1/X1-->R@vc0",
        "n1/R(3,0)->skip@vc0",
        "n1/R->X1+@vc0",
        "n1/X+s1@vc0",
        "n2/X1-->R@vc0",
        "n2/R(3,0)->skip@vc0",
        "n2/R->X1+@vc0",
        "n2/X+s1@vc0",
        "n3/X1-->R@vc0",
        "n3/R(3,0)->skip@vc0",
        "n3/R->X1+@vc0",
        "n3/X+s1@vc0",
        "n0/X1-->R@vc0",
        "n0/R(3,0)->skip@vc0",
    ];
    assert_eq!(cycle, x_ring);
}
