//! Behavioural validation of the simulator against the reference semantics
//! of `anton-core` and the paper's qualitative claims.

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::McGroupId;
use anton_core::packet::{CounterId, Destination, Packet, Payload};
use anton_core::routing::RouteSpec;
use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir, TorusShape};
use anton_core::trace::{trace_unicast, GlobalLink};
use anton_core::vc::{Vc, VcPolicy};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams, TraceConfig};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_traffic::patterns::{NodePermutation, UniformRandom};

fn ep(cfg: &MachineConfig, node: NodeCoord, e: u8) -> GlobalEndpoint {
    GlobalEndpoint {
        node: cfg.shape.id(node),
        ep: LocalEndpointId(e),
    }
}

/// Driver that does nothing: packets are injected manually.
struct Idle {
    want: u64,
    got: u64,
    deliveries: Vec<anton_sim::sim::PacketDelivery>,
}

impl Idle {
    fn new(want: u64) -> Idle {
        Idle {
            want,
            got: 0,
            deliveries: Vec::new(),
        }
    }
}

impl Driver for Idle {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            self.got += 1;
            self.deliveries.push(p.clone());
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.got >= self.want
    }
}

/// A simulator on `cfg` that records every packet's route.
fn routed_sim(cfg: &MachineConfig, seed: u64) -> Sim {
    Sim::builder()
        .config(cfg.clone())
        .params(SimParams {
            seed,
            trace: TraceConfig {
                routes: true,
                ..TraceConfig::default()
            },
            ..SimParams::default()
        })
        .build()
}

/// The slice and torus hops of a recorded or traced route; a route that
/// never leaves its node reads slice 0, since no link names its slice.
fn torus_hops(log: &[(GlobalLink, Vc)]) -> (Slice, Vec<TorusDir>) {
    let mut slice = Slice(0);
    let hops = log
        .iter()
        .filter_map(|&(link, _)| match link {
            GlobalLink::Torus { dir, slice: s, .. } => {
                slice = s;
                Some(dir)
            }
            _ => None,
        })
        .collect();
    (slice, hops)
}

/// Queues `n` packets of `payload` bytes from `src` to `dst` through
/// [`Sim::inject`], on the randomized oblivious routes, and checks every
/// delivery against the reference tracer: the spec rebuilt from its torus
/// hops (`RouteSpec::from_hops`) is one of the pair's
/// `RouteSpec::minimal_routes`, and `trace_unicast` of that spec is the
/// recorded log, link for link and VC for VC. Every distinct route of the
/// distribution — each order × slice × tie that takes other hops — must
/// be observed.
fn check_random_routes(
    sim: &mut Sim,
    src: GlobalEndpoint,
    dst: GlobalEndpoint,
    bytes: usize,
    n: u64,
) {
    let cfg = sim.cfg.clone();
    let shape = &cfg.shape;
    let (from, to) = (shape.coord(src.node), shape.coord(dst.node));
    let trace = |spec: &RouteSpec| {
        trace_unicast(&cfg, src, dst, spec, &|n, d| {
            shape.hop_crosses_dateline(n, d)
        })
    };
    let mut unseen = Vec::new();
    for spec in RouteSpec::minimal_routes(shape, from, to) {
        let key = torus_hops(&trace(&spec));
        if !unseen.contains(&key) {
            unseen.push(key);
        }
    }
    let distinct = unseen.clone();
    for _ in 0..n {
        sim.inject(src, Packet::write(src, dst, Payload::ones(bytes)));
    }
    let mut drv = Idle::new(n);
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    for d in &drv.deliveries {
        let log = d.route_log.as_ref().expect("route recorded");
        let key = torus_hops(log);
        let (slice, hops) = &key;
        assert!(
            distinct.contains(&key),
            "{from}->{to}: {hops:?} on slice {slice} is not a minimal route"
        );
        let spec = RouteSpec::from_hops(shape, *slice, hops).expect("a carriable route");
        assert_eq!(
            log,
            &trace(&spec),
            "route mismatch {from}->{to}: {hops:?} slice {slice}"
        );
        unseen.retain(|k| *k != key);
    }
    assert!(
        unseen.is_empty(),
        "{from}->{to}: {} of {} routes never taken in {n} packets: {unseen:?}",
        unseen.len(),
        distinct.len()
    );
}

#[test]
fn sim_routes_match_reference_tracer() {
    // Every link and VC the simulator sends a packet over must match the
    // reference trace, over every dimension order, slice and tie of each
    // pair's route distribution (the minus side of a tie included): 600
    // single-flit packets per case, route seed 11.
    let cfg = MachineConfig::new(TorusShape::new(4, 3, 2));
    let mut sim = routed_sim(&cfg, 11);
    let cases = [
        (NodeCoord::new(0, 0, 0), NodeCoord::new(2, 1, 1), 0u8, 15u8),
        (NodeCoord::new(3, 2, 1), NodeCoord::new(1, 0, 0), 5, 0),
        (NodeCoord::new(1, 1, 1), NodeCoord::new(1, 1, 1), 2, 9),
        (NodeCoord::new(3, 0, 0), NodeCoord::new(1, 0, 0), 7, 7), // X dateline + through
        (NodeCoord::new(0, 2, 0), NodeCoord::new(0, 0, 1), 4, 12),
    ];
    for (src_c, dst_c, se, de) in cases {
        let (src, dst) = (ep(&cfg, src_c, se), ep(&cfg, dst_c, de));
        check_random_routes(&mut sim, src, dst, 16, 600);
    }
}

#[test]
fn two_flit_packets_route_identically() {
    // 200 two-flit packets, route seed 11, over the 12 routes of a 3×3×3
    // diagonal.
    let cfg = MachineConfig::new(TorusShape::cube(3));
    let mut sim = routed_sim(&cfg, 11);
    let src = ep(&cfg, NodeCoord::new(0, 0, 0), 0);
    let dst = ep(&cfg, NodeCoord::new(2, 2, 2), 8);
    assert_eq!(Packet::write(src, dst, Payload::ones(32)).num_flits(), 2);
    check_random_routes(&mut sim, src, dst, 32, 200);
}

#[test]
fn zero_load_latency_is_linear_in_hops() {
    let cfg = MachineConfig::new(TorusShape::new(8, 1, 1));
    let mut sim = routed_sim(&cfg, 11);
    // Measure pure network latency (inject -> deliver) for 1..4 X hops,
    // one packet in the network at a time, on the slice-0 route in +X:
    // packets that draw another slice, or the -X side of the 4-hop tie,
    // are sent again.
    let mut lat = Vec::new();
    for hops in 1..=4u8 {
        let src = ep(&cfg, NodeCoord::new(0, 0, 0), 0);
        let dst = ep(&cfg, NodeCoord::new(hops, 0, 0), 0);
        let plus = vec![TorusDir::new(Dim::X, Sign::Plus); usize::from(hops)];
        let d = (0..32)
            .find_map(|_| {
                sim.inject(src, Packet::write(src, dst, Payload::zeros(16)));
                let mut drv = Idle::new(1);
                assert_eq!(sim.run(&mut drv, 100_000), RunOutcome::Completed);
                let d = drv.deliveries.pop().expect("one delivery");
                let route = torus_hops(d.route_log.as_ref().expect("route recorded"));
                (route == (Slice(0), plus.clone())).then_some(d)
            })
            .expect("a slice-0 +X route within 32 draws");
        assert_eq!(d.torus_hops, u16::from(hops));
        lat.push((d.delivered_at - d.injected_at) as f64);
    }
    let d1 = lat[1] - lat[0];
    for w in lat.windows(2) {
        let step = w[1] - w[0];
        assert!(
            (step - d1).abs() < 1e-9,
            "per-hop latency not constant: {lat:?}"
        );
    }
    // X through-hops cross the skip channel: a through-node costs one
    // router plus the skip traversal.
    assert!(
        d1 > 30.0 && d1 < 120.0,
        "per-hop {d1} cycles out of plausible range"
    );
}

#[test]
fn naive_single_vc_deadlocks_on_ring_wrap_traffic() {
    // All nodes send to the node k/2 across the X ring: with a single VC
    // the ring fills and deadlocks; the promotion policy drains it.
    let shape = TorusShape::new(4, 1, 1);
    let perm: Vec<u32> = (0..4u32).map(|x| (x + 2) % 4).collect();

    let mut cfg = MachineConfig::new(shape);
    cfg.vc_policy = VcPolicy::NaiveSingle;
    // The pre-flight verifier rejects this config (that is the point of
    // the test), so demote it to a warning.
    let params = SimParams {
        buffer_depth: 2,
        watchdog_cycles: 5_000,
        preflight: PreflightMode::WarnOnly,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params.clone()).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(NodePermutation::new(perm.clone())))
        .packets_per_endpoint(400)
        .seed(7)
        .build();
    let outcome = sim.run(&mut drv, 3_000_000);
    assert_eq!(
        outcome,
        RunOutcome::Deadlocked,
        "single-VC wrap traffic must deadlock"
    );

    // Identical workload under the Anton promotion policy completes.
    let mut cfg = MachineConfig::new(shape);
    cfg.vc_policy = VcPolicy::Anton;
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(NodePermutation::new(perm)))
        .packets_per_endpoint(400)
        .seed(7)
        .build();
    assert_eq!(sim.run(&mut drv, 3_000_000), RunOutcome::Completed);
}

#[test]
fn uniform_batch_completes_and_is_conserved() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let mut sim = Sim::builder()
        .config(cfg)
        .params(SimParams::default())
        .build();
    let batch = 50;
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(batch)
        .seed(3)
        .build();
    assert_eq!(sim.run(&mut drv, 2_000_000), RunOutcome::Completed);
    let stats = sim.stats();
    let n_eps = sim.cfg.num_endpoints() as u64;
    assert_eq!(stats.injected_packets, batch * n_eps);
    assert_eq!(stats.delivered_packets, batch * n_eps);
    assert_eq!(sim.live_packets(), 0);
    let total_recv: u64 = stats.recv_per_endpoint.iter().sum();
    assert_eq!(total_recv, batch * n_eps);
}

#[test]
fn counted_write_handler_fires_after_count() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let src = ep(&cfg, NodeCoord::new(0, 0, 0), 0);
    let dst = ep(&cfg, NodeCoord::new(1, 1, 1), 3);
    let counter = CounterId(9);
    sim.set_counter(dst, counter, 3);
    for _ in 0..3 {
        let mut pkt = Packet::write(src, dst, Payload::zeros(16));
        pkt.counter = Some(counter);
        sim.inject(src, pkt);
    }
    struct HandlerWait {
        fired: Option<u64>,
        packets: u64,
        last_packet_at: u64,
    }
    impl Driver for HandlerWait {
        fn pre_cycle(&mut self, _sim: &mut Sim) {}
        fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
            match d {
                Delivery::Packet(_) => {
                    self.packets += 1;
                    self.last_packet_at = sim.now();
                }
                Delivery::Handler { counter, .. } => {
                    assert_eq!(counter.0, 9);
                    self.fired = Some(sim.now());
                }
            }
        }
        fn done(&self, _sim: &Sim) -> bool {
            self.fired.is_some()
        }
    }
    let mut drv = HandlerWait {
        fired: None,
        packets: 0,
        last_packet_at: 0,
    };
    assert_eq!(sim.run(&mut drv, 100_000), RunOutcome::Completed);
    assert_eq!(drv.packets, 3, "handler fired before all writes arrived");
    assert_eq!(
        drv.fired.unwrap(),
        drv.last_packet_at + anton_core::timing::HANDLER_DISPATCH_CYCLES
    );
}

#[test]
fn multicast_delivers_exactly_the_destination_set() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let src_node = NodeCoord::new(1, 1, 1);
    let spec = anton_traffic::md::HaloSpec {
        radius: 1,
        plane_normal: None,
        endpoints_per_node: 2,
    };
    let dests = anton_traffic::md::halo_dest_set(&cfg, src_node, spec);
    let group = anton_core::multicast::McGroup::build(
        &cfg.shape,
        McGroupId(0),
        src_node,
        dests.clone(),
        &anton_traffic::md::alternating_variants(),
    );
    let tree_hops = group.trees[0].torus_hops();
    sim.add_multicast_group(group);

    let src = ep(&cfg, src_node, 0);
    let mut pkt = Packet::write(src, src, Payload::zeros(16));
    pkt.dst = Destination::Multicast {
        group: McGroupId(0),
        tree: 0,
    };
    sim.inject(src, pkt);
    let want = dests.num_endpoints() as u64;
    let mut drv = Idle::new(want);
    assert_eq!(sim.run(&mut drv, 200_000), RunOutcome::Completed);

    // Exactly one copy per destination endpoint.
    let mut got: Vec<GlobalEndpoint> = drv.deliveries.iter().map(|d| d.dst).collect();
    got.sort();
    got.dedup();
    assert_eq!(got.len(), want as usize, "duplicate or missing copies");
    for (node, eps) in dests.iter() {
        for e in eps {
            assert!(
                got.contains(&ep(&cfg, node, e.0)),
                "missing copy at {node}/{e}"
            );
        }
    }
    // Bandwidth saving: torus flits equal the tree's edge count, not the
    // unicast hop total.
    assert_eq!(sim.stats().torus_flits, u64::from(tree_hops));
    assert!(u64::from(tree_hops) < u64::from(dests.unicast_torus_hops(&cfg.shape, src_node)));
    assert_eq!(sim.live_packets(), 0);
}

#[test]
fn multicast_alternating_trees_spread_traffic() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let src_node = NodeCoord::new(0, 0, 0);
    let dests =
        anton_traffic::md::halo_dest_set(&cfg, src_node, anton_traffic::md::HaloSpec::default());
    let group = anton_core::multicast::McGroup::build(
        &cfg.shape,
        McGroupId(5),
        src_node,
        dests.clone(),
        &anton_traffic::md::alternating_variants(),
    );
    sim.add_multicast_group(group);
    let src = ep(&cfg, src_node, 0);
    for tree in [0u8, 1] {
        let mut pkt = Packet::write(src, src, Payload::zeros(16));
        pkt.dst = Destination::Multicast {
            group: McGroupId(5),
            tree,
        };
        sim.inject(src, pkt);
    }
    let want = 2 * dests.num_endpoints() as u64;
    let mut drv = Idle::new(want);
    assert_eq!(sim.run(&mut drv, 400_000), RunOutcome::Completed);
    assert_eq!(drv.got, want);
}

#[test]
fn fairness_improves_with_inverse_weighted_arbiters() {
    // Uniform random traffic beyond saturation. No weights are programmed,
    // so the `iw` plan runs uniform-weight inverse-weighted arbiters at SA2
    // and round-robin at SA1 and the serializers; it should finish no later
    // than round-robin everywhere beyond noise.
    use anton_arbiter::ArbiterKind;
    let shape = TorusShape::cube(2);
    let run = |kind: ArbiterKind| -> f64 {
        let cfg = MachineConfig::new(shape);
        let mut sim = Sim::builder().config(cfg).arbiter(kind).build();
        let mut drv = BatchDriver::builder_for(&sim.cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(150)
            .seed(11)
            .build();
        assert_eq!(sim.run(&mut drv, 5_000_000), RunOutcome::Completed);
        drv.finish_cycle as f64
    };
    let rr = run(ArbiterKind::RoundRobin);
    let iw = run(ArbiterKind::InverseWeighted { m_bits: 5 });
    assert!(iw < rr * 1.25, "IW completion {iw} much worse than RR {rr}");
}
