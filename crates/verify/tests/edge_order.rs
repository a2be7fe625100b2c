//! The order of every successor run is part of the dependency graph's
//! contract: the cycle search walks each pair's successors in the order
//! their edges were first inserted, so a cyclic graph's counterexample
//! depends on it. These digests pin every run, order included, of three
//! 4×4×4 graphs the engine builds — the healthy machine, the degraded
//! route family (cyclic) and one concrete single-down table set overlaid
//! on the healthy graph — so a rewrite of the walk that inserts the same
//! edges in another order fails here, not only where a counterexample
//! happens to show it.
//!
//! A run is hashed by its pair's and its successors' decoded `(link, VC)`
//! labels, and the runs are summed, so the digests do not move with the
//! topology's slot numbering — only with the edges and their order.

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::dimorder::DimOrderRouting;
use anton_core::net::{RoutingFunction, Topology, TorusTopology};
use anton_core::route_table::DownLinkSet;
use anton_core::table_routing::TableRouting;
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_verify::graph::SymGraph;
use anton_verify::{build_degraded_tables, build_routing_graph};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(runs, edges, digest)`: the number of non-empty successor runs, the
/// number of edges, and the sum over runs of each run's hash — its pair's
/// label, then its successors' labels in run order.
fn run_digest(g: &SymGraph<'_>, topo: &TorusTopology, vcs: usize) -> (usize, usize, u64) {
    let pairs = topo.num_nodes() * topo.slots_per_node() * vcs;
    let label = |idx: u32| {
        let (link, vc) = g.decode(idx);
        format!("{link}@{vc};")
    };
    let (mut runs, mut edges, mut digest) = (0, 0, 0u64);
    for f in 0..pairs as u32 {
        let out = g.successors(f);
        if out.is_empty() {
            continue;
        }
        let mut h = fnv(0xcbf2_9ce4_8422_2325, label(f).as_bytes());
        h = fnv(h, b">");
        for &t in out {
            h = fnv(h, label(t).as_bytes());
        }
        runs += 1;
        edges += out.len();
        digest = digest.wrapping_add(h);
    }
    (runs, edges, digest)
}

fn digest_of(cfg: &MachineConfig, rfs: &[&dyn RoutingFunction]) -> (usize, usize, u64) {
    let topo = TorusTopology::new(cfg);
    let mut diags = Vec::new();
    let g = build_routing_graph(&topo, rfs, &mut diags);
    assert!(diags.is_empty(), "{diags:?}");
    let vcs = rfs.iter().map(|r| r.num_vcs()).max().unwrap();
    let d = run_digest(&g, &topo, vcs);
    assert_eq!(d.1, g.num_edges());
    d
}

fn k4() -> MachineConfig {
    MachineConfig::new(TorusShape::cube(4))
}

#[test]
fn healthy_successor_runs_are_pinned() {
    let rf = DimOrderRouting::new(k4());
    assert_eq!(
        digest_of(rf.config(), &[&rf]),
        (20_416, 52_448, 18_405_783_839_347_123_139)
    );
}

#[test]
fn degraded_family_successor_runs_are_pinned() {
    let rf = DimOrderRouting::degraded_family(k4());
    assert_eq!(
        digest_of(rf.config(), &[&rf]),
        (21_056, 55_104, 10_260_920_708_380_413_702)
    );
}

#[test]
fn single_down_table_successor_runs_are_pinned() {
    let cfg = k4();
    // Down Z- at z = 3 bends slice 0's Z ring into a 3-hop arc through
    // the dateline, adding edges the healthy graph lacks.
    let down = ChanId {
        dir: TorusDir::new(Dim::Z, Sign::Minus),
        slice: Slice(0),
    };
    let at = cfg.shape.id(NodeCoord::new(0, 2, 3));
    let downs = DownLinkSet::from_links(cfg.shape, [(at, down)]);
    let (tables, diags) = build_degraded_tables(&cfg, &downs);
    assert!(diags.is_empty(), "{diags:?}");
    let healthy = DimOrderRouting::new(cfg.clone());
    let table_rfs: Vec<TableRouting> = tables
        .into_iter()
        .map(|t| TableRouting::new(cfg.clone(), t))
        .collect();
    let mut rfs: Vec<&dyn RoutingFunction> = vec![&healthy];
    rfs.extend(table_rfs.iter().map(|t| t as &dyn RoutingFunction));
    assert_eq!(
        digest_of(&cfg, &rfs),
        (20_419, 52_460, 17_160_095_030_152_454_077)
    );
}
