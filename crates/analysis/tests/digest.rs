//! Bit-for-bit pins of the load analysis and the weight tables.
//!
//! The digests below were taken at commit `359f4f5`, the last one whose
//! `LoadAnalysis` / `ArbiterWeightSet` were `HashMap`s: a recorder with the
//! same enumeration read those maps through keys generated in slot and
//! arbiter order (asserting it visited every map entry) and printed these
//! values. The dense code must reproduce them through its own readers: a
//! load that moves in its last ulp can flip a `nint(β/γ)` weight, and with
//! it every golden run under inverse-weighted arbitration. Verified to fail
//! when the node-symmetric path adds its translations in descending rather
//! than ascending offset order — a change the 1e-9 comparisons in
//! `load::tests` cannot see.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::{ArbiterWeightSet, WeightTables};
use anton_core::chip::{
    ChanId, LinkGroup, LocalLink, MeshCoord, MeshDir, MAX_ROUTER_PORTS, NUM_CHAN_ADAPTERS,
    NUM_ROUTERS,
};
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_core::topology::{NodeId, TorusShape};
use anton_core::trace::GlobalLink;
use anton_core::vc::{Vc, VcPolicy};
use anton_traffic::patterns::{ReverseTornado, Tornado, UniformRandom};

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A node's links in the order the digests enumerate them: the per-node
/// slot numbering of the hash-map era — four mesh links and a skip link
/// for every router, the channel-adapter links, the endpoint links, then
/// the torus links departing the node. 28 of the mesh and skip links are
/// not on the chip; they hash as the zero loads they always were.
fn recorded_links(cfg: &MachineConfig, node: NodeId) -> Vec<GlobalLink> {
    let local = |link| GlobalLink::Local { node, link };
    let mut links = Vec::new();
    for from in MeshCoord::all() {
        links.extend(MeshDir::ALL.map(|dir| local(LocalLink::Mesh { from, dir })));
    }
    links.extend(MeshCoord::all().map(|from| local(LocalLink::Skip { from })));
    links.extend(ChanId::all().map(|c| local(LocalLink::ChanToRouter(c))));
    links.extend(ChanId::all().map(|c| local(LocalLink::RouterToChan(c))));
    links.extend(
        cfg.chip
            .endpoints()
            .map(|e| local(LocalLink::EpToRouter(e))),
    );
    links.extend(
        cfg.chip
            .endpoints()
            .map(|e| local(LocalLink::RouterToEp(e))),
    );
    links.extend(ChanId::all().map(|c| GlobalLink::Torus {
        from: node,
        dir: c.dir,
        slice: c.slice,
    }));
    links
}

/// Every load's `f64::to_bits`: per node and link the link load and then
/// its VC rows, then per node, router, input and output the router flow.
fn loads_digest(cfg: &MachineConfig, a: &LoadAnalysis) -> u64 {
    let nodes = cfg.shape.num_nodes();
    let vcs = |group| cfg.vc_policy.num_vcs(group);
    let vc_stride = vcs(LinkGroup::M).max(vcs(LinkGroup::T));
    let mut h = Fnv::new();
    for node in 0..nodes {
        for link in recorded_links(cfg, NodeId(node as u32)) {
            h.word(a.link_load(&link).to_bits());
            for vc in 0..vc_stride {
                h.word(a.link_vc_load(&link, Vc(vc)).to_bits());
            }
        }
    }
    for node in 0..nodes {
        for router in 0..NUM_ROUTERS {
            for i in 0..MAX_ROUTER_PORTS {
                for o in 0..MAX_ROUTER_PORTS {
                    let flow = a.router_flow(NodeId(node as u32), router, i, o);
                    h.word(flow.to_bits());
                }
            }
        }
    }
    h.0
}

/// Every weight of all three table kinds in arbiter order: the lane count
/// (0 for an unprogrammed arbiter), then `[lane][pattern]`.
fn weights_digest(cfg: &MachineConfig, set: &ArbiterWeightSet) -> u64 {
    let nodes = cfg.shape.num_nodes();
    let mut h = Fnv::new();
    let mut kind = |tables: &WeightTables, arbiters: usize| {
        assert_eq!(tables.num_arbiters(), arbiters);
        for a in 0..arbiters {
            let table = tables.table(a).unwrap_or_default();
            h.word(table.len() as u64);
            for w in table.iter().flatten() {
                h.word(u64::from(*w));
            }
        }
    };
    kind(&set.outputs, nodes * NUM_ROUTERS * MAX_ROUTER_PORTS);
    kind(&set.serializers, nodes * NUM_CHAN_ADAPTERS);
    kind(&set.inputs, nodes * NUM_ROUTERS * MAX_ROUTER_PORTS);
    h.0
}

/// Loads of uniform, tornado and reverse tornado, then weights (`m_bits` 5)
/// of each alone and of tornado + reverse as two patterns.
type Expected = ([u64; 3], [u64; 4]);

fn check(name: &str, cfg: &MachineConfig, expected: Expected) {
    let patterns: [&dyn TrafficPattern; 3] = [&UniformRandom, &Tornado, &ReverseTornado];
    let an = patterns.map(|p| LoadAnalysis::compute(cfg, p));
    let sets = [
        ArbiterWeightSet::compute(cfg, &[&an[0]], 5),
        ArbiterWeightSet::compute(cfg, &[&an[1]], 5),
        ArbiterWeightSet::compute(cfg, &[&an[2]], 5),
        ArbiterWeightSet::compute(cfg, &[&an[1], &an[2]], 5),
    ];
    let loads = an.each_ref().map(|a| loads_digest(cfg, a));
    let weights = sets.each_ref().map(|s| weights_digest(cfg, s));
    assert_eq!(
        (loads, weights),
        expected,
        "{name}: got {loads:#018x?} / {weights:#018x?}"
    );
}

#[test]
fn loads_and_weights_match_the_hashmap_implementation_bit_for_bit() {
    let cube = |k| MachineConfig::new(TorusShape::cube(k));
    check(
        "anton k2",
        &cube(2),
        (
            [0x2647b662e01dbfc2, 0x4732bd18b6653725, 0x4732bd18b6653725],
            [
                0xdec36ad6e89f4125,
                0x139efde41e092b25,
                0x139efde41e092b25,
                0xda2c49b605042725,
            ],
        ),
    );
    check(
        "anton k3",
        &cube(3),
        (
            [0x3d59d060245fe3f2, 0x8647612cd647a6a5, 0x8647612cd647a6a5],
            [
                0xa58e2ef5b9960c7a,
                0x8a60059795f03e25,
                0x8a60059795f03e25,
                0xd3aa4c4cbd1810a5,
            ],
        ),
    );
    check(
        "anton k4",
        &cube(4),
        (
            [0x27e35ef3d0bed785, 0x3e0d2495a037b0f2, 0x8a5945da05241826],
            [
                0xb72602327628dbe5,
                0x213c87502980f325,
                0xae21b508989b0725,
                0xa80963a09e5d5325,
            ],
        ),
    );
    let mut baseline = cube(2);
    baseline.vc_policy = VcPolicy::Baseline2n;
    check(
        "baseline2n k2",
        &baseline,
        (
            [0x21948377aa201302, 0xdfc3d67d0a2dff25, 0xdfc3d67d0a2dff25],
            [
                0x67c25aec4f330325,
                0x139efde41e092b25,
                0x139efde41e092b25,
                0xda2c49b605042725,
            ],
        ),
    );
}
