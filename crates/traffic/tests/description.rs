//! The description is the distribution: for every pattern, `sample_dst`
//! draws what `flows_from` states, at the stated rates, and the derived
//! node symmetry holds under translation.
//!
//! Every pattern of `anton-traffic`, two blends and two test-local
//! descriptions (covering the part combinations no shipped pattern uses) are
//! sampled 100,000 times from each of three sources, on 4×4×4 and on 4×3×2
//! with five endpoints a node. Every draw must be in the flows' support,
//! and every destination's empirical frequency within 5σ of its rate,
//! σ = √(p(1−p)/N).
//!
//! Mutation check: with the box part drawing its candidate from
//! `0..len − 1` instead of `0..len`, `samples_follow_the_flows` fails (the
//! last neighbour of every source is never drawn).

use anton_core::chip::ChipLayout;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::pattern::{offset_node, Destinations, EndpointChoice, NodeChoice, TrafficPattern};
use anton_core::topology::TorusShape;
use anton_traffic::{
    BitComplement, Blend, NHopNeighbor, NodePermutation, ReverseTornado, Tornado, Transpose,
    UniformRandom,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DRAWS: u64 = 100_000;

/// Every endpoint sends to any endpoint one node over in +x.
struct Shift;

impl TrafficPattern for Shift {
    fn name(&self) -> String {
        "shift".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Offset(|_| [1, 0, 0]), EndpointChoice::Any)
    }
}

/// Every endpoint sends to its counterpart on a 1-hop neighbour.
struct Neighbour;

impl TrafficPattern for Neighbour {
    fn name(&self) -> String {
        "neighbour".into()
    }

    fn destinations(&self) -> Destinations<'_> {
        Destinations::Pick(NodeChoice::Within(1), EndpointChoice::Same)
    }
}

fn blends() -> [Blend; 2] {
    [
        Blend::new(vec![
            (Box::new(Tornado), 0.5),
            (Box::new(ReverseTornado), 0.5),
        ]),
        Blend::new(vec![
            (Box::new(UniformRandom), 0.3),
            (Box::new(NHopNeighbor::new(2)), 0.7),
        ]),
    ]
}

/// The patterns under test on `cfg`; transpose only on a cube.
fn patterns(cfg: &MachineConfig) -> Vec<Box<dyn TrafficPattern>> {
    let nodes = cfg.shape.num_nodes() as u32;
    let [a, b] = blends();
    let mut all: Vec<Box<dyn TrafficPattern>> = vec![
        Box::new(UniformRandom),
        Box::new(NHopNeighbor::new(1)),
        Box::new(Tornado),
        Box::new(ReverseTornado),
        Box::new(BitComplement),
        Box::new(NodePermutation::new(
            (0..nodes).map(|i| (i * 5 + 3) % nodes).collect(),
        )),
        Box::new(a),
        Box::new(b),
        Box::new(Shift),
        Box::new(Neighbour),
    ];
    if cfg.shape.num_nodes() == 64 {
        all.push(Box::new(Transpose));
    }
    all
}

fn machines() -> [MachineConfig; 2] {
    let mut rect = MachineConfig::new(TorusShape::new(4, 3, 2));
    rect.chip = ChipLayout::new(5);
    [MachineConfig::new(TorusShape::cube(4)), rect]
}

#[test]
fn samples_follow_the_flows() {
    for cfg in machines() {
        let n = cfg.num_endpoints();
        for pattern in patterns(&cfg) {
            for src in [0, n / 2 + 1, n - 1].map(|i| cfg.endpoint_at(i)) {
                let what = format!("{} from {src} on {}", pattern.name(), cfg.shape);
                let mut rate = vec![None; n];
                for f in pattern.flows_from(&cfg, src) {
                    let at = cfg.endpoint_index(f.dst);
                    assert!(rate[at].is_none(), "{what}: {} listed twice", f.dst);
                    rate[at] = Some(f.rate);
                }
                let mut count = vec![0u64; n];
                let mut rng = StdRng::seed_from_u64(0x5eed ^ cfg.endpoint_index(src) as u64);
                for _ in 0..DRAWS {
                    count[cfg.endpoint_index(pattern.sample_dst(&cfg, src, &mut rng))] += 1;
                }
                for (at, (&c, p)) in count.iter().zip(&rate).enumerate() {
                    let dst = cfg.endpoint_at(at);
                    let Some(p) = *p else {
                        assert_eq!(c, 0, "{what}: drew {dst}, which has no flow");
                        continue;
                    };
                    let freq = c as f64 / DRAWS as f64;
                    let sigma = (p * (1.0 - p) / DRAWS as f64).sqrt();
                    assert!(
                        (freq - p).abs() <= 5.0 * sigma,
                        "{what}: {dst} drawn at {freq}, flow rate {p} (σ = {sigma})"
                    );
                }
            }
        }
    }
}

#[test]
fn a_blend_tags_the_draw_it_makes() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    for blend in blends() {
        let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for i in 0..1000 {
            let src = cfg.endpoint_at(i % cfg.num_endpoints());
            let (_, tagged) = blend.sample_with_component(&cfg, src, &mut a);
            assert_eq!(
                tagged,
                (&blend as &dyn TrafficPattern).sample_dst(&cfg, src, &mut b)
            );
        }
    }
}

#[test]
fn symmetric_patterns_translate() {
    for shape in [TorusShape::cube(3), TorusShape::new(4, 3, 2)] {
        let mut cfg = MachineConfig::new(shape);
        cfg.chip = ChipLayout::new(5);
        let moved = |e: GlobalEndpoint, by: [i32; 3]| GlobalEndpoint {
            node: cfg.shape.id(offset_node(&cfg, cfg.node_coord(e), by)),
            ep: e.ep,
        };
        let sorted = |mut flows: Vec<(usize, f64)>| {
            flows.sort_by_key(|&(at, _)| at);
            flows
        };
        let symmetric = patterns(&cfg).into_iter().filter(|p| p.node_symmetric());
        for pattern in symmetric {
            for src in [0, 3].map(|i| cfg.endpoint_at(i)) {
                let base = pattern.flows_from(&cfg, src);
                for by in cfg.shape.nodes() {
                    let by = [by.x, by.y, by.z].map(i32::from);
                    let want: Vec<(usize, f64)> = base
                        .iter()
                        .map(|f| (cfg.endpoint_index(moved(f.dst, by)), f.rate))
                        .collect();
                    let got: Vec<(usize, f64)> = pattern
                        .flows_from(&cfg, moved(src, by))
                        .iter()
                        .map(|f| (cfg.endpoint_index(f.dst), f.rate))
                        .collect();
                    assert_eq!(
                        sorted(got),
                        sorted(want),
                        "{} from {src} moved by {by:?} on {}",
                        pattern.name(),
                        cfg.shape
                    );
                }
            }
        }
    }
}

#[test]
fn symmetry_is_derived_from_the_parts() {
    let [tornadoes, uniform_2hop] = blends();
    let with_a_map = Blend::new(vec![
        (Box::new(Tornado), 0.5),
        (Box::new(BitComplement), 0.5),
    ]);
    let expected: [(&dyn TrafficPattern, bool); 10] = [
        (&UniformRandom, true),
        (&NHopNeighbor::new(2), true),
        (&Tornado, true),
        (&ReverseTornado, true),
        (&BitComplement, false),
        (&Transpose, false),
        (&NodePermutation::new((0..64).collect()), false),
        (&tornadoes, true),
        (&uniform_2hop, true),
        (&with_a_map, false),
    ];
    for (pattern, symmetric) in expected {
        assert_eq!(pattern.node_symmetric(), symmetric, "{}", pattern.name());
    }
}
