//! End-to-end validation of the typed metrics layer: conservation between
//! [`Metrics`] aggregates and the raw simulator counters, and determinism
//! of the whole record.

use anton_arbiter::ArbiterKind;
use anton_core::chip::{ChanId, LocalEndpointId, NUM_CHAN_ADAPTERS, NUM_ROUTERS};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{DestSet, McGroup, McGroupId};
use anton_core::packet::{CounterId, Destination, Packet, PatternId, Payload};
use anton_core::routing::DimOrder;
use anton_core::topology::{NodeCoord, NodeId, Slice, TorusShape};
use anton_core::vc::VcPolicy;
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::driver::{BatchDriver, LoadDriver, PingPongDriver};
use anton_sim::metrics::LinkClass;
use anton_sim::params::{PreflightMode, SimParams, TraceConfig};
use anton_sim::sim::{Delivery, Driver, KernelWork, RunOutcome, Sim};
use anton_traffic::patterns::{ReverseTornado, Tornado, UniformRandom};

/// A 2×2×2 uniform batch (8 packets per endpoint) on the serial kernel,
/// not yet run.
fn small_batch(seed: u64, fault: Option<FaultSchedule>) -> (Sim, BatchDriver) {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams {
        fault,
        seed,
        ..SimParams::default()
    };
    let sim = Sim::builder().config(cfg).params(params).build();
    let drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(8)
        .seed(1)
        .build();
    (sim, drv)
}

fn run_uniform(seed: u64) -> Sim {
    let (mut sim, mut drv) = small_batch(seed, None);
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    sim
}

#[test]
fn link_class_flits_sum_to_flit_hops() {
    let sim = run_uniform(1);
    let m = sim.metrics();
    let class_total: u64 = m.link_classes.iter().map(|c| c.flits).sum();
    assert_eq!(
        class_total, m.stats.flit_hops,
        "every flit hop belongs to one class"
    );
    assert_eq!(m.link_class(LinkClass::Torus).flits, m.stats.torus_flits);
    assert_eq!(m.cycles, sim.now());
    // A 2×2×2 machine has 12 torus channels per node × 8 nodes.
    assert_eq!(m.link_class(LinkClass::Torus).wires, 8 * 12);
    for c in &m.link_classes {
        assert!(c.peak_util >= c.mean_util, "{}: peak below mean", c.class);
    }
}

#[test]
fn grant_counts_are_live_and_deterministic() {
    let a = run_uniform(3);
    let b = run_uniform(3);
    let g = a.grant_counts();
    assert!(
        g.sa1 > 0 && g.output > 0 && g.serializer > 0,
        "all sites granted: {g:?}"
    );
    assert_eq!(g, b.grant_counts(), "same seed, same grants");
    // Every grant moves one packet through a router output, and SA1 feeds
    // SA2, so SA1 grants can't be fewer than output grants.
    assert!(g.sa1 >= g.output);
}

/// Wraps [`BatchDriver`], recording every packet delivery for exact
/// comparison across instrumentation settings.
struct RecordingBatch {
    inner: BatchDriver,
    deliveries: Vec<anton_sim::sim::PacketDelivery>,
}

impl anton_sim::sim::Driver for RecordingBatch {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &anton_sim::sim::Delivery) {
        if let anton_sim::sim::Delivery::Packet(p) = d {
            self.deliveries.push(p.clone());
        }
        self.inner.on_delivery(sim, d);
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

#[test]
fn instrumentation_toggles_never_change_routing_or_deliveries() {
    // Any TraceConfig (event recording, sampling at any window size,
    // energy counting, route recording) must be observationally invisible:
    // identical link-level routes, VCs, per-packet delivery cycles, and
    // final simulated time. Every run records its routes, so route
    // recording is on in the reference and in every variant. Stall
    // attribution wakes components on cycles a run without it skips (every
    // credit return, a router holding an output for two flits), so it is
    // checked on a saturated batch of one-flit and of two-flit packets.
    let run = |trace: TraceConfig, payload_bytes: usize| {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let params = SimParams {
            trace: TraceConfig {
                routes: true,
                ..trace
            },
            seed: 11,
            ..SimParams::default()
        };
        let mut sim = Sim::builder().config(cfg).params(params).build();
        let inner = BatchDriver::builder_for(&sim.cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(6)
            .payload_bytes(payload_bytes)
            .seed(5)
            .build();
        let mut drv = RecordingBatch {
            inner,
            deliveries: Vec::new(),
        };
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        let mut log: Vec<_> = drv
            .deliveries
            .into_iter()
            .map(|p| {
                (
                    p.src,
                    p.dst,
                    p.injected_at,
                    p.delivered_at,
                    p.torus_hops,
                    p.route_log.expect("routes recorded"),
                )
            })
            .collect();
        log.sort_by_key(|(src, dst, inj, del, ..)| (*src, *dst, *inj, *del));
        (sim.now(), log)
    };
    for payload_bytes in [16, 32] {
        let reference = run(TraceConfig::default(), payload_bytes);
        // Observability at any setting: full event recording (tiny and large
        // rings), sampling at several window sizes, stall attribution, energy
        // counting, all at once, and the profiler flag.
        let off = TraceConfig::default();
        let events = |ring_capacity| TraceConfig {
            events: true,
            ring_capacity,
            ..off
        };
        let sampled = |sample_every| TraceConfig {
            sample_every,
            ..off
        };
        let trace_variants = [
            events(4),
            events(4096),
            sampled(1),
            sampled(37),
            sampled(100_000), // larger than the run: tail-only
            TraceConfig {
                stalls: true,
                ..off
            },
            TraceConfig {
                stalls: true,
                ..events(16)
            },
            TraceConfig {
                energy: true,
                ..off
            },
            TraceConfig {
                events: true,
                ring_capacity: 64,
                sample_every: 50,
                profile: true,
                stalls: true,
                energy: true,
                routes: true,
            },
        ];
        for trace in trace_variants {
            let got = run(trace, payload_bytes);
            assert_eq!(reference.0, got.0, "final cycle changed under {trace:?}");
            assert_eq!(
                reference.1, got.1,
                "deliveries/routes changed under {trace:?}"
            );
        }
    }
}

#[test]
fn recorder_and_sampler_capture_the_run() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams {
        trace: TraceConfig {
            events: true,
            ring_capacity: 256,
            sample_every: 64,
            ..TraceConfig::default()
        },
        seed: 9,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(8)
        .seed(2)
        .build();
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    sim.flush_samples();

    let rec = sim.recorder().expect("events enabled");
    assert!(rec.total_recorded() > 0, "a saturating run records events");
    let events = rec.all_events();
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    let delivers = events.iter().filter(|e| e.kind.name() == "deliver").count() as u64;
    // Rings drop oldest, so at most stats.delivered_packets survive.
    assert!(delivers <= sim.stats().delivered_packets);
    assert!(delivers > 0, "recent deliveries stay in the rings");

    let ts = sim.timeseries().expect("sampling enabled");
    assert!(ts.windows().len() >= 2, "the run spans multiple windows");
    let injected = ts
        .channels()
        .iter()
        .position(|(n, _)| n == "injected_packets")
        .unwrap();
    let total: u64 = ts.windows().iter().map(|w| w.values[injected]).sum();
    assert_eq!(
        total,
        sim.stats().injected_packets,
        "per-window counter deltas must sum to the run total"
    );
}

/// One ping-pong pair four torus hops apart on a `k`×`k`×`k` machine, run
/// to completion.
fn pingpong(k: u8, far: NodeCoord) -> Sim {
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let at = |node| GlobalEndpoint {
        node: cfg.shape.id(node),
        ep: LocalEndpointId(0),
    };
    let pair = (at(NodeCoord::new(0, 0, 0)), at(far));
    // The certificate does not depend on the traffic; skip it at k=8.
    let params = SimParams {
        preflight: PreflightMode::Off,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = PingPongDriver::new(vec![pair], 40);
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    sim
}

fn pingpong_work(k: u8, far: NodeCoord) -> KernelWork {
    pingpong(k, far).kernel_work()
}

/// A component is woken only on a cycle it can act. On an uncontended
/// 8×8×8 run, past the bootstrap look at every component, each router wake
/// grants one output, each torus hop wakes two channel adapters (the
/// serializer it leaves by and the adapter it arrives at), each multicast
/// copy waiting behind another in an adapter's replication queue wakes it
/// once more, and each packet or copy wakes an endpoint at delivery, and
/// at injection when injected during the run: no router wakes itself on speculation, no serializer re-arms
/// with nothing queued, no adapter waits out a transfer nothing is queued
/// behind and no credit return wakes a producer that was never refused.
fn assert_every_wake_acts(sim: &Sim, run_injections: u64, queued_copies: u64) {
    let nodes = 512;
    let [routers, chans, eps, _] = sim.kernel_work().wakes;
    let stats = sim.stats();
    assert_eq!(
        routers - nodes * NUM_ROUTERS as u64,
        sim.grant_counts().output
    );
    assert_eq!(
        chans - nodes * NUM_CHAN_ADAPTERS as u64,
        2 * stats.torus_flits + queued_copies
    );
    assert_eq!(
        eps - nodes * sim.cfg.endpoints_per_node() as u64,
        run_injections + stats.delivered_packets
    );
}

#[test]
fn every_wake_of_an_uncontended_run_acts() {
    let sim = pingpong(8, NodeCoord::new(0, 0, 4));
    assert_eq!(sim.stats().delivered_packets, 40);
    assert_eq!(sim.stats().injected_packets, 40);
    assert_eq!(sim.stats().torus_flits, 160);
    assert_every_wake_acts(&sim, 40, 0);
}

/// The same with one multicast four torus hops from its source to two
/// endpoints of one node: a fan-out at every adapter it arrives at, and at
/// the last a second copy queued behind the first. A fan-out books no wake
/// of its own beyond the copies' (stall attribution, off here, would add
/// one on the next cycle).
#[test]
fn every_wake_of_an_uncontended_multicast_acts() {
    let cfg = MachineConfig::new(TorusShape::cube(8));
    let (src_node, dst_node) = (NodeCoord::new(0, 0, 0), NodeCoord::new(0, 0, 4));
    let mut dests = DestSet::new();
    for ep in [0, 1] {
        dests.add(dst_node, LocalEndpointId(ep));
    }
    let group = McGroup::build(
        &cfg.shape,
        McGroupId(0),
        src_node,
        dests,
        &[(DimOrder::XYZ, Slice(0))],
    );
    let src = GlobalEndpoint {
        node: cfg.shape.id(src_node),
        ep: LocalEndpointId(0),
    };
    let params = SimParams {
        preflight: PreflightMode::Off,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    sim.add_multicast_group(group);
    let mut pkt = Packet::write(src, src, Payload::zeros(16));
    pkt.dst = Destination::Multicast {
        group: McGroupId(0),
        tree: 0,
    };
    sim.inject(src, pkt);
    let mut drv = WaitFor {
        packets: 2,
        handler_seen: true,
    };
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    assert_eq!(sim.stats().torus_flits, 4);
    // Injected before the run, the packet leaves on the bootstrap look.
    assert_every_wake_acts(&sim, 0, 1);
}

/// The host-independent form of "an idle cycle costs the same at 8×8×8 as
/// at 4×4×4": the same four-hop ping-pong makes the wake wheels visit about
/// as many bitset words per cycle on either machine, although the larger
/// has eight times the components.
#[test]
fn wheel_work_per_cycle_is_independent_of_machine_size() {
    let small = pingpong_work(4, NodeCoord::new(0, 2, 2));
    let large = pingpong_work(8, NodeCoord::new(0, 0, 4));
    let per_cycle = |w: &KernelWork| w.wheel_words_visited as f64 / w.cycles as f64;
    assert!(
        per_cycle(&large) <= 1.25 * per_cycle(&small),
        "k=8 visits {:.2} wheel words/cycle, k=4 {:.2}",
        per_cycle(&large),
        per_cycle(&small)
    );
    // Wakes follow the packets: past the bootstrap look at every component,
    // the same four torus hops wake the same number of channel adapters.
    let adapter_wakes = |w: &KernelWork, nodes: u64| w.wakes[1] - nodes * NUM_CHAN_ADAPTERS as u64;
    assert!(adapter_wakes(&small, 64) > 0);
    assert_eq!(adapter_wakes(&small, 64), adapter_wakes(&large, 512));
}

/// The host-independent form of "the link layer costs per frame, not per
/// cycle": under BER 1e-4 a torus wire wakes when a frame or an ack lands,
/// when a held-back frame can go out, or when a credit returns — a few
/// times per frame sent, however long the round trip keeps its shim busy
/// (ticking every non-idle cycle reads 37 wakes per frame at this load).
#[test]
fn lossy_wire_wakes_follow_frames_not_cycles() {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let params = SimParams {
        fault: Some(FaultSchedule::uniform(7, 1e-4)),
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = LoadDriver::for_config(&sim.cfg, Box::new(UniformRandom), 0.005, 40, 3);
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    let frames = sim
        .metrics()
        .fault
        .expect("shims installed")
        .totals
        .frames_sent;
    let wire_wakes = sim.kernel_work().wakes[3];
    assert!(frames > 40_000, "the run must exercise the links");
    assert!(
        wire_wakes <= 4 * frames,
        "{wire_wakes} wire wakes for {frames} frames"
    );
    // Everything is delivered; what remains on the links is acks and, where
    // one was lost, a retransmission round (timeout 192 cycles). Once those
    // have landed no timer may keep a wire on the wheel. A driver that is
    // never done runs each budget out.
    struct Never;
    impl Driver for Never {
        fn pre_cycle(&mut self, _sim: &mut Sim) {}
        fn on_delivery(&mut self, _sim: &mut Sim, _d: &Delivery) {}
        fn done(&self, _sim: &Sim) -> bool {
            false
        }
    }
    assert_eq!(sim.run(&mut Never, 1_000), RunOutcome::TimedOut);
    let settled = sim.kernel_work().wakes[3];
    assert_eq!(sim.run(&mut Never, 10_000), RunOutcome::TimedOut);
    assert_eq!(sim.kernel_work().wakes[3], settled, "an idle link woke");
}

/// The kernel's exact work on two small runs ([`small_batch`] at route
/// seed 5), one per delivery path a serial run takes through the wire
/// layer: a refactor of the kernel must do the same work in the same number
/// of wakes, on every host. The cycles and wire wakes date from before
/// `Wires` replaced `Wire` + the simulator's dense mirrors; the component
/// wakes were re-taken when a component came to be woken only on a cycle it
/// can act (routers 18,972 → 9,401 and 21,566 → 9,721, adapters 9,326 →
/// 5,989 and 9,451 → 4,302, endpoints 2,688 → 2,048 and 2,720 → 2,071).
/// Dense: every wire files sends straight into the receive rows, so only
/// the bootstrap look wakes a wire. Shim: BER 1e-4 on every torus link plus
/// one link `Down` for cycles 150–900 (go-back-N events, a link drain, 24
/// reroutes).
#[test]
fn kernel_work_is_pinned_on_each_delivery_path() {
    let down = FaultSchedule::uniform(7, 1e-4).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: 150,
            until_cycle: 900,
        },
    );
    let pins = [
        ("dense", None, 296, [9_401, 5_989, 2_048, 960], 3_392),
        (
            "shim",
            Some(down),
            1_189,
            [9_721, 4_302, 2_071, 6_161],
            11_848,
        ),
    ];
    for (path, fault, cycles, wakes, wheel_words_visited) in pins {
        let (mut sim, mut drv) = small_batch(5, fault);
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        assert_eq!(
            sim.kernel_work(),
            KernelWork {
                cycles,
                wakes,
                wheel_words_visited
            },
            "{path} path"
        );
    }
}

/// Everything exact a kernel refactor must hold on one small serial run:
/// the work counters, the grants per arbitration site, the flit counters,
/// the per-cause totals of the stall table and the events the flight
/// recorder saw (0 with event recording off).
#[derive(Debug, PartialEq)]
struct LayerPin {
    work: KernelWork,
    /// SA1, output (SA2), serializer.
    grants: [u64; 3],
    flit_hops: u64,
    torus_flits: u64,
    rerouted: u64,
    /// Indexed by `StallCause::index`.
    stall_cycles: [u64; 7],
    events: u64,
}

impl LayerPin {
    /// Reads the pin off a finished run (stall attribution must be on).
    fn of(sim: &mut Sim) -> LayerPin {
        sim.flush_stalls();
        let table = sim.stall_table().expect("pins run with stalls on");
        let mut stall_cycles = [0u64; 7];
        for w in 0..table.num_wires() as u32 {
            for (acc, c) in stall_cycles.iter_mut().zip(table.wire_cause_cycles(w)) {
                *acc += c;
            }
        }
        assert_eq!(
            stall_cycles.iter().sum::<u64>(),
            table.total_stall_cycles(),
            "per-cause totals cover the table"
        );
        let g = sim.grant_counts();
        LayerPin {
            work: sim.kernel_work(),
            grants: [g.sa1, g.output, g.serializer],
            flit_hops: sim.stats().flit_hops,
            torus_flits: sim.stats().torus_flits,
            rerouted: sim.stats().rerouted_packets,
            stall_cycles,
            events: sim.recorder().map_or(0, |r| r.total_recorded()),
        }
    }
}

/// Waits for a number of packet deliveries and one handler dispatch.
struct WaitFor {
    packets: u64,
    handler_seen: bool,
}

impl Driver for WaitFor {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        match d {
            Delivery::Packet(_) => self.packets -= 1,
            Delivery::Handler { .. } => self.handler_seen = true,
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.packets == 0 && self.handler_seen
    }
}

/// The `multicast_counted_write` golden's machine and traffic: two MD halo
/// multicasts from the centre of a 3×3×3 machine (source and mid-tree
/// replication, local delivery copies) and a three-packet counted write to
/// a far corner (counter, handler dispatch).
fn multicast_pin() -> LayerPin {
    let cfg = MachineConfig::new(TorusShape::cube(3));
    let src_node = NodeCoord::new(1, 1, 1);
    let at = |node, ep| GlobalEndpoint {
        node: cfg.shape.id(node),
        ep: LocalEndpointId(ep),
    };
    let dests =
        anton_traffic::md::halo_dest_set(&cfg, src_node, anton_traffic::md::HaloSpec::default());
    let copies = dests.num_endpoints() as u64;
    let group = McGroup::build(
        &cfg.shape,
        McGroupId(3),
        src_node,
        dests,
        &anton_traffic::md::alternating_variants(),
    );
    let (src, dst) = (at(src_node, 0), at(NodeCoord::new(2, 2, 2), 5));
    let params = SimParams {
        trace: TraceConfig {
            stalls: true,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    sim.add_multicast_group(group);
    sim.set_counter(dst, CounterId(4), 3);
    for tree in [0u8, 1] {
        let mut pkt = Packet::write(src, src, Payload::zeros(16));
        pkt.dst = Destination::Multicast {
            group: McGroupId(3),
            tree,
        };
        sim.inject(src, pkt);
    }
    for _ in 0..3 {
        let mut pkt = Packet::write(src, dst, Payload::zeros(16));
        pkt.counter = Some(CounterId(4));
        sim.inject(src, pkt);
    }
    let mut drv = WaitFor {
        packets: 2 * copies + 3,
        handler_seen: false,
    };
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    LayerPin::of(&mut sim)
}

/// A batch driver that also injects one multicast per cycle of `at` from
/// node 0 to two endpoints of its X neighbour (`copies_left` deliveries in
/// all), tagged so their deliveries stay out of the batch's count.
struct BatchWithMulticasts {
    inner: BatchDriver,
    at: Vec<u64>,
    payload_bytes: usize,
    copies_left: u64,
}

const MC_TAG: PatternId = PatternId(9);

impl Driver for BatchWithMulticasts {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        while self.at.first().is_some_and(|&t| t <= sim.now()) {
            self.at.remove(0);
            let src = sim.cfg.endpoint_at(0);
            let mut pkt = Packet::write(src, src, Payload::zeros(self.payload_bytes));
            pkt.pattern = MC_TAG;
            pkt.dst = Destination::Multicast {
                group: McGroupId(0),
                tree: 0,
            };
            sim.inject(src, pkt);
        }
        self.inner.pre_cycle(sim);
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        match d {
            Delivery::Packet(p) if p.pattern == MC_TAG.0 => self.copies_left -= 1,
            _ => self.inner.on_delivery(sim, d),
        }
    }
    fn done(&self, sim: &Sim) -> bool {
        self.copies_left == 0 && self.inner.done(sim)
    }
}

/// A uniform (or, with `blend`, 50/50 tornado / reverse-tornado) batch on
/// `cfg`, stall attribution on, plus one multicast (see
/// [`BatchWithMulticasts`]) at each cycle of `multicasts_at`.
fn batch_pin(
    cfg: MachineConfig,
    params: SimParams,
    blend: bool,
    packets_per_endpoint: u64,
    payload_bytes: usize,
    multicasts_at: &[u64],
) -> LayerPin {
    let params = SimParams {
        trace: TraceConfig {
            stalls: true,
            ..params.trace
        },
        seed: 5,
        ..params
    };
    let mut dests = DestSet::new();
    for ep in [0, 1] {
        dests.add(NodeCoord::new(1, 0, 0), LocalEndpointId(ep));
    }
    let group = McGroup::build(
        &cfg.shape,
        McGroupId(0),
        NodeCoord::new(0, 0, 0),
        dests,
        &[(DimOrder::XYZ, Slice(0))],
    );
    let mut builder = Sim::builder().config(cfg).params(params);
    if blend {
        builder = builder
            .arbiter(ArbiterKind::InverseWeighted { m_bits: 5 })
            .traffic(Box::new(Tornado))
            .traffic(Box::new(ReverseTornado));
    }
    let mut sim = builder.build();
    sim.add_multicast_group(group);
    let drv = BatchDriver::builder_for(&sim.cfg)
        .packets_per_endpoint(packets_per_endpoint)
        .payload_bytes(payload_bytes)
        .seed(1);
    let inner = if blend {
        drv.component(Box::new(Tornado), 0.5)
            .component(Box::new(ReverseTornado), 0.5)
    } else {
        drv.pattern(Box::new(UniformRandom))
    }
    .build();
    let mut drv = BatchWithMulticasts {
        inner,
        at: multicasts_at.to_vec(),
        payload_bytes,
        copies_left: 2 * multicasts_at.len() as u64,
    };
    assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
    LayerPin::of(&mut sim)
}

/// Exact counts on small serial runs that between them reach every branch
/// of the endpoint, channel-adapter and router layers. Every value but the
/// work counters was read at the parent of the commit that split those
/// layers out of `Sim` (`ff42f24`): the split had to leave every wake,
/// grant, flit-hop, attributed stall cycle and recorded event where it was,
/// and so does whatever touches a layer next. The work counters were
/// re-taken when components came to be woken only on cycles they can act;
/// every other field held through that change, the stall cycles included
/// (these runs attribute stalls, so every credit return still wakes).
#[test]
fn exact_counts_are_pinned_on_each_layer_path() {
    let pin = |name: &str, got: LayerPin, want: LayerPin| assert_eq!(got, want, "{name}");
    let want =
        |cycles, wakes, wheel_words_visited, grants, flits: [u64; 3], stall_cycles, events| {
            LayerPin {
                work: KernelWork {
                    cycles,
                    wakes,
                    wheel_words_visited,
                },
                grants,
                flit_hops: flits[0],
                torus_flits: flits[1],
                rerouted: flits[2],
                stall_cycles,
                events,
            }
        };
    let cube2 = || MachineConfig::new(TorusShape::cube(2));
    pin(
        "multicast",
        multicast_pin(),
        want(
            275,
            [1_278, 685, 506, 3_240],
            2_393,
            [443, 443, 61],
            [620, 61, 0],
            [0, 0, 0, 0, 1, 0, 0],
            0,
        ),
    );
    // Inverse weights programmed by `build()` from two blended patterns:
    // weighted picks at SA1, SA2 and the serializer.
    let blend = MachineConfig::new(TorusShape::new(4, 2, 2));
    pin(
        "inverse-weighted blend",
        batch_pin(blend, SimParams::default(), true, 16, 16, &[]),
        want(
            333,
            [39_433, 14_979, 10_151, 1_920],
            5_778,
            [40_722, 30_726, 4_096],
            [43_014, 4_096, 0],
            [37_078, 825, 9_996, 0, 7_206, 0, 0],
            0,
        ),
    );
    // Two-flit payloads: output, adapter and endpoint busy windows.
    pin(
        "two-flit",
        batch_pin(cube2(), SimParams::default(), false, 8, 32, &[10, 20, 30]),
        want(
            464,
            [22_190, 8_369, 2_530, 960],
            5_441,
            [11_492, 10_211, 1_742],
            [29_450, 3_484, 0],
            [13_635, 111, 1_281, 3_840, 7_526, 0, 0],
            0,
        ),
    );
    let mut baseline = MachineConfig::new(TorusShape::new(4, 2, 2));
    baseline.vc_policy = VcPolicy::Baseline2n;
    pin(
        "baseline 2n",
        batch_pin(baseline, SimParams::default(), false, 8, 16, &[]),
        want(
            334,
            [30_808, 20_946, 5_376, 1_920],
            5_330,
            [24_899, 23_253, 4_370],
            [34_041, 4_370, 0],
            [785, 6, 1_646, 0, 3_669, 0, 0],
            0,
        ),
    );
    // One link `Down` for cycles 150–900 under BER 1e-4, shallow torus
    // buffers, events recorded: the absorbing serializer, reroute re-entry,
    // multicast copies waiting out the outage, credits stuck behind a
    // retransmit backlog.
    let down = FaultSchedule::uniform(7, 1e-4).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: 150,
            until_cycle: 900,
        },
    );
    let params = SimParams {
        fault: Some(down),
        torus_buffer_depth: 4,
        trace: TraceConfig {
            events: true,
            ring_capacity: 64,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    pin(
        "down window",
        batch_pin(
            cube2(),
            params,
            false,
            8,
            16,
            &[100, 140, 145, 149, 150, 200, 300],
        ),
        want(
            1_616,
            [17_131, 8_073, 2_753, 5_474],
            19_511,
            [11_269, 10_363, 1_748],
            [14_920, 1_748, 25],
            [22_697, 5, 906, 0, 898, 29_813, 746],
            43_506,
        ),
    );
}

/// `run(.., u64::MAX)` means "no budget", also on a simulator that has
/// already stepped: the deadline saturates instead of overflowing (a panic
/// in debug builds, an immediate `TimedOut` in release).
#[test]
fn unbounded_budget_on_a_stepped_simulator_completes() {
    let (mut sim, mut drv) = small_batch(5, None);
    assert_eq!(sim.run(&mut drv, 10), RunOutcome::TimedOut);
    assert_eq!(sim.now(), 10);
    assert_eq!(sim.run(&mut drv, u64::MAX), RunOutcome::Completed);
    assert_eq!(sim.stats().delivered_packets, sim.stats().injected_packets);

    // The sharded kernel computes its own deadline: a second batch on a
    // machine that has already run one.
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let mut sharded = Sim::builder().config(cfg.clone()).shards(2).build_sharded();
    for budget in [1_000_000, u64::MAX] {
        let mut drv = BatchDriver::builder_for(&cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(8)
            .seed(1)
            .build();
        assert_eq!(sharded.run(&mut drv, budget), RunOutcome::Completed);
    }
}
