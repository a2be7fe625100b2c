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

use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::topology::TorusShape;
use anton_verify::build_routing_graph;

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
