//! Property-based tests over the core invariants: minimal routing, VC
//! promotion budgets, trace well-formedness, and multicast tree validity on
//! randomized machine shapes and destination sets.

use proptest::prelude::*;

use anton_core::chip::{LinkGroup, LocalEndpointId, LocalLink};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{DestSet, McTree};
use anton_core::routing::{DimOrder, RouteSpec};
use anton_core::topology::{Dim, NodeCoord, Slice, TorusShape};
use anton_core::trace::{trace_unicast, GlobalLink};
use anton_core::vc::VcPolicy;

fn arb_shape() -> impl Strategy<Value = TorusShape> {
    (1u8..=6, 1u8..=6, 1u8..=6).prop_map(|(x, y, z)| TorusShape::new(x, y, z))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every randomized route spec, and every route of the enumerated
    /// distribution, reaches its destination in the minimal number of hops,
    /// regardless of shape, order, and slice. The distribution holds
    /// `12 × ∏ ties` distinct routes: each order and slice once per
    /// combination of tied minimal directions.
    #[test]
    fn route_specs_are_minimal_and_correct(
        shape in arb_shape(),
        src_pick in any::<u32>(),
        dst_pick in any::<u32>(),
        seed in any::<u64>(),
        order_idx in 0usize..6,
        slice in 0u8..2,
    ) {
        let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
        let n = shape.num_nodes() as u32;
        let src = shape.coord(anton_core::topology::NodeId(src_pick % n));
        let dst = shape.coord(anton_core::topology::NodeId(dst_pick % n));
        let spec = RouteSpec::randomized_with(
            &shape, src, dst, DimOrder::ALL[order_idx], Slice(slice), &mut rng,
        );
        let routes = RouteSpec::minimal_routes(&shape, src, dst);
        let ties: usize = Dim::ALL
            .iter()
            .map(|&d| shape.minimal_offset_choices(d, src, dst).len())
            .product();
        prop_assert_eq!(routes.len(), 12 * ties);
        let mut distinct = std::collections::HashSet::new();
        for spec in std::iter::once(spec).chain(routes) {
            prop_assert_eq!(spec.remaining_hops(), shape.min_hops(src, dst));
            let mut cur = src;
            for hop in spec.hops() {
                cur = shape.neighbor(cur, hop);
            }
            prop_assert_eq!(cur, dst);
            distinct.insert(spec);
        }
        // The randomized spec is one of the enumerated routes.
        prop_assert_eq!(distinct.len(), 12 * ties);
    }

    /// Traced routes never exceed the VC budget of their policy, begin and
    /// end with injection/ejection links, and alternate coherently between
    /// the M- and T-groups.
    #[test]
    fn traces_are_well_formed(
        shape in arb_shape(),
        src_pick in any::<u32>(),
        dst_pick in any::<u32>(),
        order_idx in 0usize..6,
        slice in 0u8..2,
        policy_pick in 0u8..2,
        src_ep in 0u8..16,
        dst_ep in 0u8..16,
    ) {
        let mut cfg = MachineConfig::new(shape);
        cfg.vc_policy = if policy_pick == 0 { VcPolicy::Anton } else { VcPolicy::Baseline2n };
        let n = shape.num_nodes() as u32;
        let src_n = shape.coord(anton_core::topology::NodeId(src_pick % n));
        let dst_n = shape.coord(anton_core::topology::NodeId(dst_pick % n));
        let spec = RouteSpec::deterministic(
            &shape, src_n, dst_n, DimOrder::ALL[order_idx], Slice(slice),
        );
        let src = GlobalEndpoint { node: shape.id(src_n), ep: LocalEndpointId(src_ep) };
        let dst = GlobalEndpoint { node: shape.id(dst_n), ep: LocalEndpointId(dst_ep) };
        let steps = trace_unicast(&cfg, src, dst, &spec, &|n, d| cfg.shape.hop_crosses_dateline(n, d));
        prop_assert!(!steps.is_empty());
        let starts_at_ep = matches!(
            steps.first().unwrap().0,
            GlobalLink::Local { link: LocalLink::EpToRouter(_), .. }
        );
        let ends_at_ep = matches!(
            steps.last().unwrap().0,
            GlobalLink::Local { link: LocalLink::RouterToEp(_), .. }
        );
        prop_assert!(starts_at_ep, "route must start with an injection link");
        prop_assert!(ends_at_ep, "route must end with an ejection link");
        // VC budgets per group.
        for (link, vc) in &steps {
            prop_assert!(vc.0 < cfg.vc_policy.num_vcs(link.group()), "{link} vc{}", vc.0);
        }
        // Torus links appear exactly min-hops times.
        let torus_hops = steps
            .iter()
            .filter(|(l, _)| matches!(l, GlobalLink::Torus { .. }))
            .count() as u32;
        prop_assert_eq!(torus_hops, shape.min_hops(src_n, dst_n));
        // VCs never decrease along the route under either policy's M-group
        // numbering (promotion is monotone).
        let m_vcs: Vec<u8> = steps
            .iter()
            .filter(|(l, _)| l.group() == LinkGroup::M)
            .map(|(_, vc)| vc.0)
            .collect();
        for w in m_vcs.windows(2) {
            prop_assert!(w[0] <= w[1], "M-group VC decreased: {m_vcs:?}");
        }
    }

    /// Multicast trees over random destination sets reach exactly the set,
    /// by minimal dimension-order paths, with strictly fewer (or equal)
    /// torus hops than unicasting.
    #[test]
    fn multicast_trees_cover_random_sets(
        shape in arb_shape(),
        src_pick in any::<u32>(),
        dest_picks in proptest::collection::vec(any::<u32>(), 1..12),
        order_idx in 0usize..6,
    ) {
        let n = shape.num_nodes() as u32;
        let src = shape.coord(anton_core::topology::NodeId(src_pick % n));
        let mut dests = DestSet::new();
        let mut any = false;
        for d in &dest_picks {
            let c = shape.coord(anton_core::topology::NodeId(d % n));
            dests.add(c, LocalEndpointId((d % 16) as u8));
            any = true;
        }
        prop_assume!(any);
        let tree = McTree::build(&shape, src, &dests, DimOrder::ALL[order_idx], Slice(0));
        let walk = tree.traverse(&shape);
        // Exactly the destination set is delivered.
        let mut reached = DestSet::new();
        for (node, eps) in &walk.deliveries {
            for e in eps {
                reached.add(*node, *e);
            }
        }
        prop_assert_eq!(&reached, &dests);
        // Every leaf path is minimal.
        for (leaf, path) in &walk.paths {
            prop_assert_eq!(path.len() as u32, shape.min_hops(src, *leaf));
        }
        // Tree never uses more torus hops than unicasts.
        prop_assert!(tree.torus_hops() <= dests.unicast_torus_hops(&shape, src));
    }

    /// Dateline crossings: any minimal route crosses each dimension's
    /// dateline at most once.
    #[test]
    fn minimal_routes_cross_datelines_at_most_once(
        shape in arb_shape(),
        src_pick in any::<u32>(),
        dst_pick in any::<u32>(),
        order_idx in 0usize..6,
    ) {
        let n = shape.num_nodes() as u32;
        let src = shape.coord(anton_core::topology::NodeId(src_pick % n));
        let dst = shape.coord(anton_core::topology::NodeId(dst_pick % n));
        let spec = RouteSpec::deterministic(&shape, src, dst, DimOrder::ALL[order_idx], Slice(0));
        let mut crossings = [0u32; 3];
        let mut cur = src;
        for hop in spec.hops() {
            if shape.hop_crosses_dateline(cur, hop) {
                crossings[hop.dim.index()] += 1;
            }
            cur = shape.neighbor(cur, hop);
        }
        for (d, c) in crossings.iter().enumerate() {
            prop_assert!(*c <= 1, "dimension {d} crossed {c} times");
        }
    }
}

/// Exhaustive (not property) check on a small machine: the number of
/// distinct link-level routes between two endpoints equals orders × slices
/// when all offsets are nonzero.
#[test]
fn route_diversity_matches_order_slice_product() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let src_n = NodeCoord::new(0, 0, 0);
    let dst_n = NodeCoord::new(1, 1, 1);
    let src = GlobalEndpoint {
        node: cfg.shape.id(src_n),
        ep: LocalEndpointId(0),
    };
    let dst = GlobalEndpoint {
        node: cfg.shape.id(dst_n),
        ep: LocalEndpointId(0),
    };
    let mut routes = std::collections::HashSet::new();
    for order in DimOrder::ALL {
        for slice in Slice::ALL {
            let spec = RouteSpec::deterministic(&cfg.shape, src_n, dst_n, order, slice);
            routes.insert(trace_unicast(&cfg, src, dst, &spec, &|n, d| {
                cfg.shape.hop_crosses_dateline(n, d)
            }));
        }
    }
    assert_eq!(
        routes.len(),
        12,
        "oblivious routing should spread over 12 distinct routes"
    );
}
