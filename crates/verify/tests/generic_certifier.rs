//! The topology-agnostic certification engine on shapes beyond the cubes
//! the rest of the suite leans on: rectangular tori, degenerate `k = 2`
//! rings, and randomly degraded route tables.
//!
//! Everything here goes through the one engine
//! (`build_routing_graph`/`certify_routing`): the dimension-order torus
//! instance via [`certify`] over [`DimOrderRouting`] (the machine as
//! built and the degraded family), and graph-generated route
//! tables via [`certify_tables`]. The property test closes the loop the
//! way `counterexample.rs` does for the healthy torus — any cycle the
//! certifier reports must come with witness routes that re-trace, step
//! for step, to real routes holding the cycle's edges.

use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::RoutePath;
use anton_core::route_table::DownLinkSet;
use anton_core::routing::RouteSpec;
use anton_core::topology::{NodeId, Slice, TorusDir, TorusShape};
use anton_core::trace::trace_unicast;
use anton_verify::{certify, certify_tables, cross_check, DeadlockCertificate};
use proptest::prelude::*;

/// Rectangular tori — odd extents, mixed radixes — certify acyclic
/// through the generic engine, and the engine's graph agrees with the
/// route-enumerating checker on a sampled endpoint set.
#[test]
fn rectangular_tori_certify_through_the_generic_engine() {
    for shape in [TorusShape::new(4, 3, 2), TorusShape::new(5, 4, 3)] {
        let cfg = MachineConfig::new(shape);
        let (cert, diags) = certify(&DimOrderRouting::new(cfg.clone()));
        assert!(diags.is_empty(), "{diags:?}");
        assert!(cert.acyclic, "{shape}: {cert}");
        let cc = cross_check(
            &cfg,
            &anton_verify::RouteEnumeration {
                src_endpoints: vec![0],
                dst_endpoints: vec![15],
            },
        );
        assert!(cc.verdicts_agree(), "{shape}");
        assert!(
            cc.enumerated_subset_of_symbolic,
            "{shape}: enumeration found an edge the engine's graph lacks"
        );
    }
}

/// The long-arc degraded family through the same engine: acyclic on
/// 4×3×2 (no ring long enough to couple slices), cyclic on 5×4×3 (the
/// `k = 5` rings admit crossed long arcs), with a concrete minimal
/// counterexample either way the verdict lands.
#[test]
fn degraded_family_verdicts_on_rectangular_tori() {
    let (acyclic, diags) = certify(&DimOrderRouting::degraded_family(MachineConfig::new(
        TorusShape::new(4, 3, 2),
    )));
    assert!(diags.is_empty(), "{diags:?}");
    assert!(acyclic.acyclic, "{acyclic}");
    assert!(acyclic.counterexample.is_none());

    let (cyclic, diags) = certify(&DimOrderRouting::degraded_family(MachineConfig::new(
        TorusShape::new(5, 4, 3),
    )));

    assert!(diags.is_empty(), "{diags:?}");
    assert!(!cyclic.acyclic, "{cyclic}");
    let ce = cyclic.counterexample.as_ref().expect("counterexample");
    assert!(ce.cycle.len() >= 2);
    assert!(!ce.witnesses.is_empty(), "no witness routes synthesized");
}

/// Degenerate `k = 2` rings: every hop is simultaneously the short and
/// the long way around, the sign tie-break pins arcs to the plus
/// direction, and both the healthy model and the degraded family stay
/// acyclic through the engine.
#[test]
fn k2_degenerate_rings_certify() {
    for shape in [
        TorusShape::new(2, 1, 1),
        TorusShape::new(2, 2, 1),
        TorusShape::new(2, 2, 2),
    ] {
        let cfg = MachineConfig::new(shape);
        let (cert, diags) = certify(&DimOrderRouting::new(cfg.clone()));
        assert!(diags.is_empty(), "{diags:?}");
        assert!(cert.acyclic, "{shape}: {cert}");
        let (family, diags) = certify(&DimOrderRouting::degraded_family(cfg));
        assert!(diags.is_empty(), "{diags:?}");
        assert!(family.acyclic, "{shape}: {family}");
    }
}

/// Every witness riding on a certificate's counterexample must re-trace
/// to a real route: walking the witness hops through the reference
/// tracer (as a route spec, so run-ordered, under real datelines — covering
/// both dimension-order and table routes) must reproduce the exact
/// `holds -> waits_for` step pair, and that pair must be a cycle edge.
fn assert_witnesses_retrace(cfg: &MachineConfig, cert: &DeadlockCertificate) {
    let ce = cert.counterexample.as_ref().expect("counterexample");
    assert!(!ce.witnesses.is_empty(), "cycle reported without witnesses");
    for w in &ce.witnesses {
        let RoutePath::Torus { hops, slice } = &w.path else {
            panic!("torus witness {w} has a non-torus path");
        };
        let spec = RouteSpec::from_hops(&cfg.shape, *slice, hops).expect("witness route");
        let steps = trace_unicast(cfg, w.src, w.dst, &spec, &|n, d| {
            cfg.shape.hop_crosses_dateline(n, d)
        });
        assert!(
            steps
                .windows(2)
                .any(|p| p[0] == w.holds && p[1] == w.waits_for),
            "witness {w} does not reproduce its edge"
        );
        let on_cycle = (0..ce.cycle.len())
            .any(|i| ce.cycle[i] == w.holds && ce.cycle[(i + 1) % ce.cycle.len()] == w.waits_for);
        assert!(on_cycle, "witness {w} is not a cycle edge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random down-link sets on a 3×3×3 torus: whatever route tables the
    /// graph-based generator produces, the certifier either proves the
    /// installed system acyclic or hands back a concrete cycle whose
    /// witness routes re-trace to real routes. No third outcome.
    #[test]
    fn random_route_tables_certify_or_witness(
        raw in proptest::collection::vec((0usize..27, 0usize..6, 0usize..2), 0..4),
    ) {
        let cfg = MachineConfig::new(TorusShape::cube(3));
        let shape = cfg.shape;
        let mut downs = DownLinkSet::empty(shape);
        for (node, dir, slice) in raw {
            downs.insert(
                NodeId(node as u32),
                anton_core::chip::ChanId {
                    dir: TorusDir::ALL[dir],
                    slice: Slice::ALL[slice],
                },
            );
        }
        let (tables, diags) = anton_verify::build_degraded_tables(&cfg, &downs);
        // Generation may legitimately fail (partitioned ring); only a
        // complete table set reaches the install gate.
        prop_assume!(tables.len() == Slice::ALL.len() && diags.is_empty());
        let (cert, diags) = certify_tables(&cfg, &tables);
        assert!(diags.is_empty(), "{diags:?}");
        if !cert.acyclic {
            assert_witnesses_retrace(&cfg, &cert);
        }
    }
}
