//! Pins of every step the reference tracer produces.
//!
//! The digests below were taken at commit `58ac803`, the last one whose
//! tracer spelled out its own run grouping, skip bypass and link triples;
//! the fold of chip traversals that replaced it must reproduce every
//! `(link, VC)` of every route in the same order. Verified to fail when
//! `VcState::turn` does not end the dimension at a delivery, and when
//! `ChipLayout::next_attach` takes the skip channel for any X-bound traffic
//! at the partner router rather than only for traffic passing through in X
//! (the unicast, table and multicast digests all move under either). The
//! detour-table digest was taken when one generator replaced the
//! direction-ordered / BFS pair; it also pins the split detours' tie order.

use anton_core::chip::{ChanId, LocalEndpointId, LocalLink};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{DestSet, McGroup, McGroupId};
use anton_core::route_table::{build_route_table, DownLinkSet};
use anton_core::routing::{DimOrder, RouteSpec};
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_core::trace::{trace_multicast, trace_unicast, GlobalLink, TraceStep};
use anton_core::vc::VcPolicy;

/// The dense index a step's link was hashed by: the per-node slot
/// numbering of the commit the digests were taken at, 148 slots a node at
/// 16 endpoints — four mesh links and a skip link for every router, the
/// channel-adapter links, the endpoint links, then the torus links
/// departing the node.
fn recorded_index(link: &GlobalLink) -> u64 {
    const EPS: usize = 16;
    const ADAPTERS: usize = 16 * 5;
    const ENDPOINTS: usize = ADAPTERS + 24;
    const DEPARTURES: usize = ENDPOINTS + 2 * EPS;
    let (node, slot) = match *link {
        GlobalLink::Local { node, link } => {
            let slot = match link {
                LocalLink::Mesh { from, dir } => from.index() * 4 + dir.index(),
                LocalLink::Skip { from } => 16 * 4 + from.index(),
                LocalLink::ChanToRouter(c) => ADAPTERS + c.index(),
                LocalLink::RouterToChan(c) => ADAPTERS + 12 + c.index(),
                LocalLink::EpToRouter(e) => ENDPOINTS + usize::from(e.0),
                LocalLink::RouterToEp(e) => ENDPOINTS + EPS + usize::from(e.0),
            };
            (node, slot)
        }
        GlobalLink::Torus { from, dir, slice } => {
            (from, DEPARTURES + ChanId { dir, slice }.index())
        }
        GlobalLink::Direct { .. } => unreachable!("torus traces use no direct links"),
    };
    (node.0 as usize * (DEPARTURES + 12) + slot) as u64
}

/// FNV-1a over little-endian 64-bit words: one word per step (the link's
/// [`recorded_index`] and the VC), and the step count after each trace.
struct Fnv {
    hash: u64,
    traces: u64,
}

impl Fnv {
    fn new() -> Fnv {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            traces: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn trace(&mut self, steps: &[TraceStep]) {
        for (link, vc) in steps {
            self.word(recorded_index(link) << 8 | u64::from(vc.0));
        }
        self.word(steps.len() as u64);
        self.traces += 1;
    }
}

/// A unicast trace under the machine's datelines.
fn trace(
    cfg: &MachineConfig,
    src: GlobalEndpoint,
    dst: GlobalEndpoint,
    spec: &RouteSpec,
) -> Vec<TraceStep> {
    trace_unicast(cfg, src, dst, spec, &|n, d| {
        cfg.shape.hop_crosses_dateline(n, d)
    })
}

fn check(name: &str, got: (u64, u64), expected: (u64, u64)) {
    assert_eq!(
        got, expected,
        "{name}: got {:#018x} over {} traces",
        got.0, got.1
    );
}

/// Every unicast route between endpoints {0, 5, 15} and {0, 10, 15} of all
/// node pairs: six orders, two slices, every minimal tie-break.
fn unicast_digest(cfg: &MachineConfig) -> (u64, u64) {
    let mut h = Fnv::new();
    let shape = &cfg.shape;
    for src in shape.nodes() {
        for dst in shape.nodes() {
            let choices = Dim::ALL.map(|d| shape.minimal_offset_choices(d, src, dst));
            for order in DimOrder::ALL {
                for slice in Slice::ALL {
                    for &x in choices[0].iter() {
                        for &y in choices[1].iter() {
                            for &z in choices[2].iter() {
                                let spec = RouteSpec::new(order, slice, [x, y, z]);
                                for se in [0, 5, 15] {
                                    for de in [0, 10, 15] {
                                        let s = GlobalEndpoint {
                                            node: shape.id(src),
                                            ep: LocalEndpointId(se),
                                        };
                                        let d = GlobalEndpoint {
                                            node: shape.id(dst),
                                            ep: LocalEndpointId(de),
                                        };
                                        h.trace(&trace(cfg, s, d, &spec));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (h.hash, h.traces)
}

#[test]
fn unicast_traces_are_pinned() {
    let anton = MachineConfig::new(TorusShape::new(4, 3, 2));
    check(
        "anton 4x3x2",
        unicast_digest(&anton),
        (0xe318_b216_ab54_2115, 77_760),
    );
    let mut baseline = MachineConfig::new(TorusShape::cube(3));
    baseline.vc_policy = VcPolicy::Baseline2n;
    check(
        "baseline 3x3x3",
        unicast_digest(&baseline),
        (0x2989_d3b6_ec04_7275, 78_732),
    );
}

/// Every route of both degraded tables of `cfg` with `downs` down, between
/// endpoints 0 → 0 and 5 → 10 of every node pair.
fn table_digest(cfg: &MachineConfig, downs: &DownLinkSet) -> (u64, u64) {
    let shape = cfg.shape;
    let mut h = Fnv::new();
    for slice in Slice::ALL {
        let table = build_route_table(&shape, slice, downs).expect("the down set reroutes");
        for src in shape.nodes() {
            for dst in shape.nodes() {
                let spec = table.route(shape.id(src), shape.id(dst));
                for (se, de) in [(0, 0), (5, 10)] {
                    let at = |node, ep| GlobalEndpoint {
                        node: shape.id(node),
                        ep: LocalEndpointId(ep),
                    };
                    h.trace(&trace(cfg, at(src, se), at(dst, de), &spec));
                }
            }
        }
    }
    (h.hash, h.traces)
}

/// Both XYZ-order tables of a 4×4×4 machine whose Z− link of slice
/// 0 at (0, 2, 3) is down: long-way arcs through the dateline.
#[test]
fn table_traces_are_pinned() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let shape = cfg.shape;
    let mut downs = DownLinkSet::empty(shape);
    downs.insert(
        shape.id(NodeCoord::new(0, 2, 3)),
        ChanId {
            dir: TorusDir::new(Dim::Z, Sign::Minus),
            slice: Slice(0),
        },
    );
    check(
        "tables",
        table_digest(&cfg, &downs),
        (0x35ec_c8aa_6d72_d337, 16_384),
    );
}

/// Both tables of a 4×4×1 machine whose y = 0 X-ring is severed in both
/// rotations for (0, 0) → (2, 0): on slice 0 the pairs no dimension order
/// serves take split detours that revisit a dimension (`−Y +X +X +Y`).
#[test]
fn detour_table_traces_are_pinned() {
    let cfg = MachineConfig::new(TorusShape::new(4, 4, 1));
    let shape = cfg.shape;
    let x = |sign| ChanId {
        dir: TorusDir::new(Dim::X, sign),
        slice: Slice(0),
    };
    let downs = DownLinkSet::from_links(
        shape,
        [
            (shape.id(NodeCoord::new(1, 0, 0)), x(Sign::Plus)),
            (shape.id(NodeCoord::new(3, 0, 0)), x(Sign::Minus)),
        ],
    );
    check(
        "detour tables",
        table_digest(&cfg, &downs),
        (0x5355_f874_f4f0_aac5, 1_024),
    );
}

/// The two-tree group `crates/sim/tests/certified_edges.rs` runs: six
/// destinations from (0, 0, 0) on 4×3×2 over an XYZ tree on slice 0 and a
/// ZYX tree on slice 1, one trace per delivered copy.
#[test]
fn multicast_traces_are_pinned() {
    let cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
    let mut h = Fnv::new();
    let mut dests = DestSet::new();
    for (x, y, z, ep) in [
        (1, 0, 0, 0),
        (2, 1, 0, 3),
        (3, 2, 1, 15),
        (0, 1, 1, 7),
        (2, 0, 1, 9),
        (0, 2, 0, 12),
    ] {
        dests.add(NodeCoord::new(x, y, z), LocalEndpointId(ep));
    }
    let origin = NodeCoord::new(0, 0, 0);
    let variants = [
        (DimOrder::XYZ, Slice(0)),
        (DimOrder::new([Dim::Z, Dim::Y, Dim::X]), Slice(1)),
    ];
    let group = McGroup::build(&cfg.shape, McGroupId(0), origin, dests, &variants);
    let src = GlobalEndpoint {
        node: cfg.shape.id(origin),
        ep: LocalEndpointId(2),
    };
    for trace in trace_multicast(&cfg, src, &group) {
        h.trace(&trace);
    }
    check("multicast", (h.hash, h.traces), (0x43c2_f046_e116_dfe7, 12));
}
