//! Cross-checks of the symbolic dependency-graph construction against the
//! route enumerator (`enumerate_routes`).
//!
//! The symbolic graph is claimed to be *exactly* the union of all unicast
//! route dependency edges. These tests pin that claim:
//!
//! - on tiny machines, the symbolic edge set must equal the full
//!   enumeration (every endpoint pair) edge for edge;
//! - on every torus up to 4×4×4 (and degenerate/rectangular shapes), the
//!   verdict must agree with the enumeration, and the sampled enumeration
//!   must be a subset of the symbolic graph;
//! - the enumerated verdicts are Section 2.5's: the n+1 and 2n policies are
//!   acyclic on every shape, the single-VC control cyclic even at k = 2.

use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_core::vc::VcPolicy;
use anton_verify::{cross_check, full_enumeration, RouteEnumeration};

fn cfg(shape: TorusShape, policy: VcPolicy) -> MachineConfig {
    let mut cfg = MachineConfig::new(shape);
    cfg.vc_policy = policy;
    cfg
}

fn sampled() -> RouteEnumeration {
    RouteEnumeration {
        src_endpoints: vec![0],
        dst_endpoints: vec![15],
    }
}

#[test]
fn edge_sets_identical_on_2x2x2_all_policies() {
    for policy in [VcPolicy::Anton, VcPolicy::Baseline2n, VcPolicy::NaiveSingle] {
        let cfg = cfg(TorusShape::cube(2), policy);
        let cc = cross_check(&cfg, &full_enumeration(&cfg));
        assert!(
            cc.edges_equal,
            "{policy}: symbolic ({} edges) != enumerated ({} edges)",
            cc.symbolic_edges, cc.enumerated_edges
        );
        assert!(cc.verdicts_agree(), "{policy}: verdicts disagree");
    }
}

#[test]
fn edge_sets_identical_on_rectangular_3x2x1() {
    // Exercises odd extents, a k=2 dimension (plus-only tie-break), and a
    // degenerate k=1 dimension in one shape.
    let cfg = cfg(TorusShape::new(3, 2, 1), VcPolicy::Anton);
    let cc = cross_check(&cfg, &full_enumeration(&cfg));
    assert!(
        cc.edges_equal,
        "symbolic ({} edges) != enumerated ({} edges)",
        cc.symbolic_edges, cc.enumerated_edges
    );
    assert!(cc.symbolic_acyclic);
}

#[test]
fn verdicts_agree_on_cubes_up_to_4() {
    for k in [2u8, 3, 4] {
        for policy in [VcPolicy::Anton, VcPolicy::Baseline2n, VcPolicy::NaiveSingle] {
            let cfg = cfg(TorusShape::cube(k), policy);
            let cc = cross_check(&cfg, &sampled());
            assert!(
                cc.verdicts_agree(),
                "k={k} {policy}: symbolic {} vs enumerated {}",
                cc.symbolic_acyclic,
                cc.enumerated_acyclic
            );
            assert!(
                cc.enumerated_subset_of_symbolic,
                "k={k} {policy}: enumeration found an edge the symbolic graph lacks"
            );
            // The safe policies must actually certify; the naive one must not,
            // even at k = 2 where no ring wraps: its M-group VC is shared
            // before and after each torus dimension, closing cycles through
            // the mesh (M → T_x → M → T_y → …).
            let expect_acyclic = policy != VcPolicy::NaiveSingle;
            assert!(cc.enumerated_edges > 0, "k={k} {policy}");
            assert_eq!(cc.enumerated_acyclic, expect_acyclic, "k={k} {policy}");
            assert_eq!(cc.symbolic_acyclic, expect_acyclic, "k={k} {policy}");
        }
    }
}

#[test]
fn verdicts_agree_on_degenerate_and_rectangular_shapes() {
    for shape in [
        TorusShape::new(8, 1, 1),
        TorusShape::new(4, 3, 2),
        TorusShape::new(1, 1, 1),
        TorusShape::new(2, 4, 1),
    ] {
        for policy in [VcPolicy::Anton, VcPolicy::Baseline2n] {
            let cfg = cfg(shape, policy);
            let cc = cross_check(&cfg, &sampled());
            assert!(cc.verdicts_agree(), "{shape} {policy}");
            assert!(cc.enumerated_subset_of_symbolic, "{shape} {policy}");
            assert!(cc.enumerated_acyclic, "{shape} {policy}");
            assert!(cc.symbolic_acyclic, "{shape} {policy}");
        }
    }
}
