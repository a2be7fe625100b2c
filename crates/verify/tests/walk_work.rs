//! The certification walk's work, pinned as exact counts rather than
//! timed: a host-independent gate on what an 8×8×8 certificate costs.
//!
//! The walk takes 1,009,664 transitions from 140,288 arrivals. Each of the
//! 911,360 that acquire links is a chip traversal, but only 1,516 distinct
//! traversal shapes exist — entry buffer, exit, VC state, dateline crossed
//! or not — and `DimOrderRouting` traces each once, whatever the machine's
//! size. Every transition's consecutive buffers are still inserted into the
//! graph, duplicates included: 3,680,256 insertions for 431,232 edges. An
//! insertion count that moves means the walk itself changed.
//!
//! A Down epoch's certificate is the healthy walk extended with what the
//! reroute tables add: with one link down, 3,536 roots and 29,132
//! insertions at 8×8×8 for 12 new edges, where walking every table path
//! and fan took 1,141,744 roots and 18,145,192 insertions for the same 12.

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::RoutingFunction;
use anton_core::route_table::DownLinkSet;
use anton_core::table_routing::TableRouting;
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_verify::{build_degraded_tables, build_routing_graph};

/// `(traced traversals, graph insertions, edges)` of certifying the
/// healthy `k`-ary cube.
fn work(k: u8) -> (usize, usize, usize) {
    let rf = DimOrderRouting::new(MachineConfig::new(TorusShape::cube(k)));
    let mut diags = Vec::new();
    let g = build_routing_graph(rf.topology(), &[&rf], &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    (rf.traced_traversals(), g.num_insertions(), g.num_edges())
}

#[test]
fn an_8x8x8_certificate_traces_each_shape_once() {
    assert_eq!(work(8), (1_516, 3_680_256, 431_232));
}

#[test]
fn the_traversal_table_does_not_grow_with_the_machine() {
    assert_eq!(work(4), (1_516, 412_160, 52_448));
}

/// `(roots, graph insertions, edges)` of certifying the healthy `k`-ary
/// cube together with the reroute tables of one Down link, X+ of slice 0
/// at the origin.
fn single_down_work(k: u8) -> (usize, usize, usize) {
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let healthy = DimOrderRouting::new(cfg.clone());
    let down = ChanId {
        dir: TorusDir::new(Dim::X, Sign::Plus),
        slice: Slice(0),
    };
    let origin = cfg.shape.id(NodeCoord::new(0, 0, 0));
    let downs = DownLinkSet::from_links(cfg.shape, [(origin, down)]);
    let (tables, diags) = build_degraded_tables(&cfg, &downs);
    assert!(diags.is_empty(), "{diags:?}");
    let table_rfs: Vec<TableRouting> = tables
        .into_iter()
        .map(|t| TableRouting::new(cfg.clone(), t))
        .collect();
    let mut rfs: Vec<&dyn RoutingFunction> = vec![&healthy];
    rfs.extend(table_rfs.iter().map(|t| t as &dyn RoutingFunction));
    let roots = rfs.iter().map(|rf| rf.roots().len()).sum();
    let mut diags = Vec::new();
    let g = build_routing_graph(healthy.topology(), &rfs, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    (roots, g.num_insertions(), g.num_edges())
}

#[test]
fn an_8x8x8_down_epoch_walks_only_what_its_tables_add() {
    // Healthy: 8,192 roots, 3,680,256 insertions, 431,232 edges.
    assert_eq!(single_down_work(8), (11_728, 3_709_388, 431_244));
}

#[test]
fn a_4x4x4_down_epoch_walks_only_what_its_tables_add() {
    // Healthy: 1,024 roots, 412,160 insertions, 52,448 edges.
    assert_eq!(single_down_work(4), (1_312, 413_662, 52_452));
}
