//! Degraded-topology verification: building and certifying fault-aware
//! route tables so a machine with `Down` links *reroutes* instead of
//! deadlocking.
//!
//! The load-bearing entry point is the **explicit table certificate**
//! ([`certify_tables`]): the channel-dependency edges of every
//! `(src, dst)` path of a concrete table set are overlaid on the *healthy*
//! minimal-routing graph (randomized minimal traffic that can be in flight
//! alongside the rerouted traffic), and the union is checked for cycles.
//! The healthy walk runs first and has inserted every edge of every
//! minimal path, so only the paths a table adds — and their nodes' mesh
//! fans — are traced into the graph ([`TableRouting`]); the union is the
//! one every path would give. The simulator
//! certifies the union of every table it will ever install for a run —
//! packets pinned to different degradation epochs coexist, so their
//! dependency edges must be acyclic *together*, not just per epoch.
//!
//! Why per-degradation certification, rather than one certificate for the
//! whole direction-ordered family? Because the family is genuinely cyclic
//! on tori with `k ≥ 4`. A long rerouted arc that crosses its dateline
//! keeps traveling past it, so it arrives at nodes far from the dateline
//! still on the *promoted* T-VC with a low M-level — arrivals healthy
//! minimal routing can never produce there. Those arrivals open
//! mesh-level dependency chains at low VCs that couple opposite-direction
//! rings on *different slices* through the shared on-chip mesh, closing a
//! cycle ([`crate::certify`] over [`DimOrderRouting::degraded_family`]
//! extracts a concrete 16-edge counterexample on a 4×4×4 torus; the
//! `long_arc_family_is_cyclic` test pins it). Any one degradation only
//! bends a few rings, so concrete table sets generally stay acyclic — but that must be *proved per table set*,
//! which is exactly what this module does and what the simulator's
//! install gate enforces. This mirrors why full-blown fault-tolerant
//! routing needs per-route-set proofs rather than a single static
//! argument.
//!
//! [`verify_degraded`] ties generation ([`build_degraded_tables`]) and
//! certification together and reports failures through the
//! `AV020`/`AV021` lint codes: a down set that partitions the network (no
//! table exists) and a degradation whose tables cannot be certified
//! deadlock-free (never installed). [`verify_degraded_epochs`] is the same
//! check over the union of several down sets, and the one place either
//! formats those codes; it extends a healthy graph already walked (and
//! certified, in the simulator's pre-run gate,
//! [`verify_config_and_epochs`](crate::verify_config_and_epochs)) rather
//! than walking its own.

use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::route_table::{build_route_table, DownLinkSet, RouteTable};
use anton_core::table_routing::TableRouting;
use anton_core::topology::Slice;

use crate::engine::RoutingGraph;
use crate::model_graph;
use crate::report::{DeadlockCertificate, Diagnostic, Severity};

/// Explicitly certifies a concrete set of route tables: the
/// channel-dependency edges of every `(src, dst)` path are overlaid on the
/// *healthy* minimal-routing graph (the randomized minimal traffic that
/// can be in flight at the same time), and the union is checked for
/// cycles. A path the healthy walk already took is not traced again.
///
/// Pass **every table that can have packets in flight simultaneously** —
/// for a simulation run with several degradation epochs, the union of all
/// epochs' tables — since cross-table couplings through the shared mesh
/// are exactly the failure mode a per-epoch check would miss.
///
/// Envelope diagnostics (`AV022`/`AV023`: transitions left out of the
/// graph) come back beside the certificate.
pub fn certify_tables(
    cfg: &MachineConfig,
    tables: &[RouteTable],
) -> (DeadlockCertificate, Vec<Diagnostic>) {
    let healthy = DimOrderRouting::new(cfg.clone());
    certify_union(&healthy, model_graph(&healthy), tables)
}

/// Extends `healthy`'s graph `g` with the routes `tables` add to it
/// ([`TableRouting`]) and certifies the union. A path the healthy walk
/// already took adds nothing, so it is not walked again.
fn certify_union(
    healthy: &DimOrderRouting,
    g: RoutingGraph<'_>,
    tables: &[RouteTable],
) -> (DeadlockCertificate, Vec<Diagnostic>) {
    let cfg = healthy.config();
    let table_rfs: Vec<TableRouting> = tables
        .iter()
        .map(|t| TableRouting::new(cfg.clone(), t.clone()))
        .collect();
    // The union lives no longer than the tables it walks.
    let mut union: RoutingGraph<'_> = g;
    for t in &table_rfs {
        union.walk(t);
    }
    union.certify(healthy.label())
}

/// Outcome of building and certifying degraded route tables for one
/// down-link set, or for every set of a fault schedule's epochs at once.
#[derive(Debug)]
pub struct DegradedVerdict {
    /// The generated tables, one per slice in slice order for each down
    /// set in turn (fewer when generation failed for a slice).
    pub tables: Vec<RouteTable>,
    /// The certificate over the installed system, when generation
    /// succeeded far enough to certify.
    pub certificate: Option<DeadlockCertificate>,
    /// `AV020`/`AV021` diagnostics raised along the way, and the
    /// certifier's `AV022`/`AV023` envelope errors.
    pub diagnostics: Vec<Diagnostic>,
}

impl DegradedVerdict {
    /// Whether the degradation is certified for install: every table was
    /// generated (a slice that fails raises an error), no error
    /// diagnostics, and the certificate is acyclic. The simulator refuses
    /// to install anything less.
    pub fn certified(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
            && self.certificate.as_ref().is_some_and(|c| c.acyclic)
    }
}

/// Builds the per-slice degraded route tables for one down-link set,
/// reporting failures as `AV020`/`AV021` diagnostics: a partition, or a
/// pair with no live route of at most three runs.
/// Returns fewer than [`Slice::ALL`] tables when a slice fails. This is
/// the generation half of [`verify_degraded`].
pub fn build_degraded_tables(
    cfg: &MachineConfig,
    downs: &DownLinkSet,
) -> (Vec<RouteTable>, Vec<Diagnostic>) {
    let mut diagnostics = Vec::new();
    let mut tables = Vec::new();
    for slice in Slice::ALL {
        match build_route_table(&cfg.shape, slice, downs) {
            Ok(t) => tables.push(t),
            Err(e) => diagnostics.push(table_error_diag(slice, downs, &e)),
        }
    }
    (tables, diagnostics)
}

/// Builds and certifies the degraded route tables for a down-link set:
/// generation plus the explicit per-path certification of
/// [`certify_tables`]. This is the offline check behind `verify_config
/// --down-links`; [`verify_degraded_epochs`] is the same check over
/// several sets.
pub fn verify_degraded(cfg: &MachineConfig, downs: &DownLinkSet) -> DegradedVerdict {
    let healthy = DimOrderRouting::new(cfg.clone());
    let g = model_graph(&healthy);
    verify_degraded_epochs(&healthy, g, std::slice::from_ref(downs))
}

/// Builds the tables of every down-link set and certifies their **union**
/// with the healthy routing — the simulator's install gate for a fault
/// schedule, whose epochs' tables carry packets at the same time. `g` is
/// `healthy`'s walked graph ([`model_graph`]), the one
/// [`verify_config_and_epochs`](crate::verify_config_and_epochs) has just
/// certified; it is extended, not walked again. The tables come back set
/// by set; certification is skipped when any generation failed.
pub fn verify_degraded_epochs(
    healthy: &DimOrderRouting,
    g: RoutingGraph<'_>,
    sets: &[DownLinkSet],
) -> DegradedVerdict {
    let cfg = healthy.config();
    let mut tables = Vec::new();
    let mut diagnostics = Vec::new();
    let mut all_downs = DownLinkSet::empty(cfg.shape);
    for downs in sets {
        let (t, d) = build_degraded_tables(cfg, downs);
        tables.extend(t);
        diagnostics.extend(d);
        for (n, c) in downs.iter() {
            all_downs.insert(n, c);
        }
    }
    if !diagnostics.is_empty() {
        return DegradedVerdict {
            tables,
            certificate: None,
            diagnostics,
        };
    }
    let (certificate, envelope) = certify_union(healthy, g, &tables);
    diagnostics.extend(envelope);
    if !certificate.acyclic {
        let d = Diagnostic::error(
            "AV021",
            format!("degraded route tables are uncertifiable — {certificate}"),
        )
        .with("down_links", all_downs.len())
        .with_cycle(&certificate, 0);
        diagnostics.push(d);
    }
    DegradedVerdict {
        tables,
        certificate: Some(certificate),
        diagnostics,
    }
}

fn table_error_diag(
    slice: Slice,
    downs: &DownLinkSet,
    err: &anton_core::route_table::RouteTableError,
) -> Diagnostic {
    use anton_core::route_table::RouteTableError;
    match err {
        RouteTableError::Unreachable { src, dst } => Diagnostic::error(
            "AV020",
            format!("down links partition {slice}: no live path from {src} to {dst}"),
        )
        .with("slice", slice)
        .with("src", src)
        .with("dst", dst)
        .with("down_links", downs.len()),
        e @ RouteTableError::NotVcCompatible { .. } => Diagnostic::error(
            "AV021",
            format!("degraded table for {slice} is not VC-compatible: {e}"),
        )
        .with("slice", slice)
        .with("down_links", downs.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_core::chip::ChanId;
    use anton_core::net::{RoutingFunction, TorusTopology};
    use anton_core::routing::{DimOrder, RouteSpec};
    use anton_core::topology::{Dim, NodeCoord, NodeId, Sign, TorusDir, TorusShape};

    fn chan(dim: Dim, sign: Sign, slice: Slice) -> ChanId {
        ChanId {
            dir: TorusDir::new(dim, sign),
            slice,
        }
    }

    #[test]
    fn long_arc_family_is_cyclic() {
        // The negative result that shapes this module's API: the
        // down-set-independent long-arc family is NOT deadlock-free once
        // the torus is large enough for a crossed arc to continue ≥ 2
        // hops past its dateline (k ≥ 4). A promoted-VC arrival far from
        // the dateline opens low-VC mesh chains that couple
        // opposite-direction rings across slices, closing a cycle. Hence
        // every concrete table set must be certified explicitly.
        let family = |k| {
            crate::certify(&DimOrderRouting::degraded_family(MachineConfig::new(
                TorusShape::cube(k),
            )))
        };
        let (cert, diags) = family(4);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!cert.acyclic, "family unexpectedly certified: {cert}");
        let ce = cert.counterexample.expect("cycle extracted");
        assert!(!ce.witnesses.is_empty(), "cycle has concrete witnesses");
        // On k = 3 every crossed arc ends at most one hop past the
        // dateline — the positional property healthy routing relies on —
        // so the family is still sound there.
        let (small, diags) = family(3);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(small.acyclic, "{small}");
    }

    #[test]
    fn explicit_tables_are_subset_of_family_graph() {
        // Cross-validates the explicit table walker against the symbolic
        // transition system: every single-link degraded table routes one
        // XYZ run per dimension, so its dependency edges must already be
        // present in the (over-approximating) long-arc family graph.
        let cfg = MachineConfig::new(TorusShape::cube(3));
        let topo = TorusTopology::new(&cfg);
        let family_rf = DimOrderRouting::degraded_family(cfg.clone());
        let mut diags = Vec::new();
        let family = crate::engine::build_routing_graph(&topo, &[&family_rf], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let family_edges: std::collections::HashSet<_> = family.edges().collect();
        // Healthy plus a sample of single-link downs.
        let shape = cfg.shape;
        let mut down_sets = vec![DownLinkSet::empty(shape)];
        for (node, dim, sign) in [
            (NodeCoord::new(0, 0, 0), Dim::X, Sign::Plus),
            (NodeCoord::new(1, 2, 0), Dim::Y, Sign::Minus),
            (NodeCoord::new(2, 1, 1), Dim::Z, Sign::Plus),
        ] {
            for slice in Slice::ALL {
                down_sets.push(DownLinkSet::from_links(
                    shape,
                    [(shape.id(node), chan(dim, sign, slice))],
                ));
            }
        }
        // A table routing exposes only what it adds to the healthy walk, so
        // the healthy routing is walked first, as every certificate does:
        // the union still holds every table path's edges.
        let healthy = DimOrderRouting::new(cfg.clone());
        for downs in &down_sets {
            let mut table_rfs = Vec::new();
            for slice in Slice::ALL {
                let table = build_route_table(&shape, slice, downs).unwrap();
                table_rfs.push(TableRouting::new(cfg.clone(), table));
            }
            let mut rfs: Vec<&dyn RoutingFunction> = vec![&healthy];
            rfs.extend(table_rfs.iter().map(|t| t as &dyn RoutingFunction));
            let mut diags = Vec::new();
            let explicit = crate::engine::build_routing_graph(&topo, &rfs, &mut diags);
            assert!(diags.is_empty(), "{diags:?}");
            for (from, to) in explicit.edges() {
                assert!(
                    family_edges.contains(&(from, to)),
                    "table edge {}@{} -> {}@{} missing from family graph ({} downs)",
                    from.0,
                    from.1,
                    to.0,
                    to.1,
                    downs.len()
                );
            }
        }
    }

    #[test]
    fn single_down_link_verifies_end_to_end() {
        // Every direction (both signs of all three dims, both slices) of
        // a single down link at an off-origin node must build and certify
        // — the load-bearing claim behind "any single external link Down
        // survives". The integration suite sweeps positions; this unit
        // test sweeps channels.
        let cfg = MachineConfig::new(TorusShape::cube(3));
        let shape = cfg.shape;
        let node = shape.id(NodeCoord::new(1, 2, 0));
        for dir in TorusDir::ALL {
            for slice in Slice::ALL {
                let downs = DownLinkSet::from_links(shape, [(node, ChanId { dir, slice })]);
                let verdict = verify_degraded(&cfg, &downs);
                assert!(
                    verdict.certified(),
                    "down {dir:?} {slice}: {:?}",
                    verdict.diagnostics
                );
                assert_eq!(verdict.tables.len(), 2);
            }
        }
    }

    #[test]
    fn single_down_link_certifies_past_family_boundary() {
        // cube(4) is where the long-arc family goes cyclic — but a
        // concrete single-link degradation only bends one ring on one
        // slice, and its explicit certificate (healthy overlay + long-way
        // table) stays acyclic. Down Z- at z=3 forces the 3-hop
        // long-way +Z arc through the dateline, the exact arc shape that
        // breaks the family.
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let shape = cfg.shape;
        let downs = DownLinkSet::from_links(
            shape,
            [(
                shape.id(NodeCoord::new(0, 2, 3)),
                chan(Dim::Z, Sign::Minus, Slice(0)),
            )],
        );
        let verdict = verify_degraded(&cfg, &downs);
        assert!(verdict.certified(), "{:?}", verdict.diagnostics);
    }

    #[test]
    fn cross_slice_epoch_union_is_rejected() {
        // The union hazard the per-epoch gate would miss: one epoch takes
        // down Z- (slice 0) at z=3 of ring (x=0, y=2), another takes down
        // Z+ (slice 1) at z=0 of the same ring. Each epoch alone
        // certifies; their coexisting tables route the ring's long way in
        // *opposite* directions on the two slices, and the promoted-VC
        // arrivals couple through the shared mesh into a real dependency
        // cycle. The certifier must reject the union.
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let shape = cfg.shape;
        let a = DownLinkSet::from_links(
            shape,
            [(
                shape.id(NodeCoord::new(0, 2, 3)),
                chan(Dim::Z, Sign::Minus, Slice(0)),
            )],
        );
        let b = DownLinkSet::from_links(
            shape,
            [(
                shape.id(NodeCoord::new(0, 2, 0)),
                chan(Dim::Z, Sign::Plus, Slice(1)),
            )],
        );
        let mut all = Vec::new();
        for downs in [&a, &b] {
            assert!(verify_degraded(&cfg, downs).certified());
            let (tables, diags) = build_degraded_tables(&cfg, downs);
            assert!(diags.is_empty(), "{diags:?}");
            all.extend(tables);
        }
        let (cert, diags) = certify_tables(&cfg, &all);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(!cert.acyclic, "union unexpectedly certified: {cert}");
        let ce = cert.counterexample.expect("cycle extracted");
        assert!(!ce.witnesses.is_empty());
    }

    #[test]
    fn multi_epoch_table_union_certifies() {
        // Packets pinned to different degradation epochs coexist, so the
        // simulator certifies the union of all epochs' tables at once.
        // Two different single-link degradations (different rings,
        // different slices) plus healthy traffic must be jointly acyclic.
        let cfg = MachineConfig::new(TorusShape::cube(3));
        let shape = cfg.shape;
        let epoch_downs = [
            DownLinkSet::from_links(
                shape,
                [(
                    shape.id(NodeCoord::new(1, 1, 0)),
                    chan(Dim::X, Sign::Plus, Slice(0)),
                )],
            ),
            DownLinkSet::from_links(
                shape,
                [(
                    shape.id(NodeCoord::new(0, 2, 1)),
                    chan(Dim::Z, Sign::Minus, Slice(1)),
                )],
            ),
        ];
        let mut all = Vec::new();
        for downs in &epoch_downs {
            let (tables, diags) = build_degraded_tables(&cfg, downs);
            assert!(diags.is_empty(), "{diags:?}");
            all.extend(tables);
        }
        let (cert, diags) = certify_tables(&cfg, &all);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(cert.acyclic, "{cert}");
    }

    /// X+ out of (1,0,0) and X- out of (3,0,0) on slice 0 of `shape`: the
    /// y=0, z=0 X-ring is cut both ways for (0,0,0) -> (2,0,0).
    fn x_ring_cut_both_ways(shape: TorusShape) -> DownLinkSet {
        DownLinkSet::from_links(
            shape,
            [
                (
                    shape.id(NodeCoord::new(1, 0, 0)),
                    chan(Dim::X, Sign::Plus, Slice(0)),
                ),
                (
                    shape.id(NodeCoord::new(3, 0, 0)),
                    chan(Dim::X, Sign::Minus, Slice(0)),
                ),
            ],
        )
    }

    #[test]
    fn split_detour_tables_of_a_ring_cut_both_ways_certify() {
        // Same double-down scenario as route_table's split-detour test: the
        // pair (0,0) -> (2,0) detours through y, revisiting it.
        let cfg = MachineConfig::new(TorusShape::new(4, 4, 1));
        let verdict = verify_degraded(&cfg, &x_ring_cut_both_ways(cfg.shape));
        assert!(verdict.certified(), "{:?}", verdict.diagnostics);
        let hops = verdict.tables[0].route(NodeId(0), NodeId(2)).hops();
        let runs = hops.windows(2).filter(|w| w[0].dim != w[1].dim).count() + 1;
        let dims = Dim::ALL
            .iter()
            .filter(|&&d| hops.iter().any(|h| h.dim == d));
        assert!(runs > dims.count(), "{hops:?}");
    }

    #[test]
    fn an_x_ring_cut_both_ways_on_4x4x4_certifies() {
        let cfg = MachineConfig::new(TorusShape::cube(4));
        let verdict = verify_degraded(&cfg, &x_ring_cut_both_ways(cfg.shape));
        assert!(verdict.certified(), "{:?}", verdict.diagnostics);
    }

    #[test]
    fn partitioned_network_reports_av020() {
        let cfg = MachineConfig::new(TorusShape::new(2, 1, 1));
        let n0 = NodeId(0);
        let downs = DownLinkSet::from_links(
            cfg.shape,
            [
                (n0, chan(Dim::X, Sign::Plus, Slice(0))),
                (n0, chan(Dim::X, Sign::Minus, Slice(0))),
            ],
        );
        let verdict = verify_degraded(&cfg, &downs);
        assert!(!verdict.certified());
        assert!(verdict.diagnostics.iter().any(|d| d.code == "AV020"));
    }

    #[test]
    fn healthy_tables_verify() {
        let cfg = MachineConfig::new(TorusShape::cube(3));
        let shape = cfg.shape;
        let verdict = verify_degraded(&cfg, &DownLinkSet::empty(shape));
        assert!(verdict.certified());
        for table in &verdict.tables {
            for (src, dst) in shape
                .nodes()
                .flat_map(|a| shape.nodes().map(move |b| (a, b)))
            {
                let xyz = RouteSpec::deterministic(&shape, src, dst, DimOrder::XYZ, table.slice());
                assert_eq!(table.route(shape.id(src), shape.id(dst)), xyz);
            }
        }
    }
}
