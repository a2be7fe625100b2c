//! Golden determinism snapshots of the simulator kernel.
//!
//! Each scenario runs a figure-shaped workload (fig9 batch throughput,
//! fault-sweep open-loop traffic, multicast + counted writes) on a small
//! machine and serializes every observable output — delivery stream, event
//! counters, per-endpoint receive counts, grant counts, link-class
//! utilization, per-wire flit counts — into a deterministic text form
//! compared byte-for-byte against the committed snapshot under
//! `tests/snapshots/`. The simulators are built as every production run
//! builds them, so on a fault-free machine every wire takes the dense
//! delivery path; the fault sweep adds the lossy-link path.
//!
//! Any kernel change that alters a single routing decision, arbitration
//! grant, delivery cycle, or metric shows up here as a byte diff. To
//! regenerate after an *intentional* behavioral change, run with
//! `ANTON_UPDATE_SNAPSHOTS=1`.
//!
//! The batch, multicast and counted-write scenarios additionally run on the
//! sharded parallel kernel ([`ShardedSim`]) at 1, 2, 4, and 8 shards, and
//! the rendered output must be byte-identical to the serial kernel's — the
//! sharded kernel's determinism contract. The open-loop fault sweep runs on
//! the serial kernel only.

use std::fmt::Write as _;
use std::path::PathBuf;

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::ArbiterKind;
use anton_core::chip::{ChanId, LocalEndpointId};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{McGroup, McGroupId};
use anton_core::packet::{CounterId, Destination, Packet, Payload};
use anton_core::topology::{NodeCoord, NodeId, TorusShape};
use anton_core::trace::GlobalLink;
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::driver::{BatchDriver, LoadDriver};
use anton_sim::metrics::Metrics;
use anton_sim::params::SimParams;
use anton_sim::shard::{ShardableDriver, ShardedSim};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim, SimStats};
use anton_traffic::patterns::UniformRandom;

/// 64-bit FNV-1a, folded over `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        for byte in s.as_bytes() {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Wraps any driver, recording the full ordered delivery stream.
struct Recorder<D> {
    inner: D,
    /// (src_idx, dst_idx, pattern, counter|u64::MAX, injected, delivered,
    /// torus_hops) per packet delivery, in delivery order.
    packets: Vec<[u64; 7]>,
    /// (ep_idx, counter, cycle) per handler dispatch, in order.
    handlers: Vec<[u64; 3]>,
}

impl<D> Recorder<D> {
    fn new(inner: D) -> Recorder<D> {
        Recorder {
            inner,
            packets: Vec::new(),
            handlers: Vec::new(),
        }
    }
}

impl<D: Driver> Driver for Recorder<D> {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim);
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        match delivery {
            Delivery::Packet(p) => self.packets.push([
                sim.cfg.endpoint_index(p.src) as u64,
                sim.cfg.endpoint_index(p.dst) as u64,
                u64::from(p.pattern),
                p.counter.map_or(u64::MAX, |c| u64::from(c.0)),
                p.injected_at,
                p.delivered_at,
                u64::from(p.torus_hops),
            ]),
            Delivery::Handler { ep, counter } => self.handlers.push([
                sim.cfg.endpoint_index(*ep) as u64,
                u64::from(counter.0),
                sim.now(),
            ]),
        }
        self.inner.on_delivery(sim, delivery);
    }

    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

/// In sharded mode the recording stays on the original driver — the
/// coordinator's serial-order replay feeds it — while the inner driver's
/// sub-drivers run the shards.
impl<D: ShardableDriver> ShardableDriver for Recorder<D> {
    fn split(
        &self,
        cfg: &MachineConfig,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        self.inner.split(cfg, ranges)
    }

    fn done_implies_quiescent(&self) -> bool {
        self.inner.done_implies_quiescent()
    }
}

/// Which kernel a scenario runs on.
#[derive(Clone, Copy)]
enum Kernel {
    Serial,
    Sharded(usize),
}

/// Everything a finished run exposes, captured identically from either
/// kernel so the render is kernel-agnostic.
struct Observed {
    outcome: RunOutcome,
    cycles: u64,
    live: u64,
    stats: SimStats,
    metrics: Metrics,
    wires: Vec<(GlobalLink, u64)>,
}

fn observe(sim: &Sim, outcome: RunOutcome) -> Observed {
    Observed {
        outcome,
        cycles: sim.now(),
        live: sim.live_packets() as u64,
        stats: sim.stats().clone(),
        metrics: sim.metrics(),
        wires: sim.wire_utilizations(),
    }
}

fn observe_sharded(sim: &ShardedSim, outcome: RunOutcome) -> Observed {
    Observed {
        outcome,
        cycles: sim.now(),
        live: sim.live_packets() as u64,
        stats: sim.stats(),
        metrics: sim.metrics(),
        wires: sim.wire_utilizations(),
    }
}

/// Serializes every observable output of a finished run.
fn render<D>(name: &str, obs: &Observed, drv: &Recorder<D>) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "# golden snapshot: {name}");
    let _ = writeln!(w, "outcome: {:?}", obs.outcome);
    let _ = writeln!(w, "cycles: {}", obs.cycles);
    let _ = writeln!(w, "live_packets: {}", obs.live);
    let stats = &obs.stats;
    let _ = writeln!(w, "injected_packets: {}", stats.injected_packets);
    let _ = writeln!(w, "delivered_packets: {}", stats.delivered_packets);
    let _ = writeln!(w, "flit_hops: {}", stats.flit_hops);
    let _ = writeln!(w, "torus_flits: {}", stats.torus_flits);
    let _ = writeln!(w, "last_delivery_cycle: {}", stats.last_delivery_cycle);
    let mut recv = Fnv::new();
    for &c in &stats.recv_per_endpoint {
        recv.word(c);
    }
    let _ = writeln!(
        w,
        "recv_per_endpoint: n={} digest={:#018x}",
        stats.recv_per_endpoint.len(),
        recv.0
    );
    let mut pd = Fnv::new();
    for rec in &drv.packets {
        for &f in rec {
            pd.word(f);
        }
    }
    let _ = writeln!(
        w,
        "packet_deliveries: n={} digest={:#018x}",
        drv.packets.len(),
        pd.0
    );
    for h in &drv.handlers {
        let _ = writeln!(w, "handler: ep={} counter={} cycle={}", h[0], h[1], h[2]);
    }
    let m = &obs.metrics;
    let _ = writeln!(
        w,
        "grants: sa1={} output={} serializer={}",
        m.grants.sa1, m.grants.output, m.grants.serializer
    );
    for lc in &m.link_classes {
        let _ = writeln!(
            w,
            "link_class {}: wires={} flits={}",
            lc.class, lc.wires, lc.flits
        );
    }
    if let Some(f) = &m.fault {
        let t = f.totals;
        let _ = writeln!(
            w,
            "fault: links={} sent={} retx={} data_dropped={} ack_dropped={} delivered={}",
            f.shimmed_links,
            t.frames_sent,
            t.retransmissions,
            t.data_frames_dropped,
            t.ack_frames_dropped,
            t.flits_delivered
        );
    }
    // Hash per-link flit counts in structural (label-sorted) order so the
    // digest certifies traffic per link, not the kernel's internal wire
    // numbering (which is free to change for locality).
    let mut labeled: Vec<(String, u64)> = obs
        .wires
        .iter()
        .map(|(label, flits)| (label.to_string(), *flits))
        .collect();
    labeled.sort();
    let mut wires = Fnv::new();
    for (label, flits) in &labeled {
        wires.str(label);
        wires.word(*flits);
    }
    let _ = writeln!(w, "wire_flits_digest: {:#018x}", wires.0);
    out
}

fn check(name: &str, rendered: &str) {
    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("tests/snapshots");
    path.push(format!("{name}.txt"));
    if std::env::var_os("ANTON_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert_eq!(
        want, rendered,
        "kernel output diverged from golden snapshot {name}; if the change \
         is intentional, regenerate with ANTON_UPDATE_SNAPSHOTS=1"
    );
}

/// Asserts a scenario renders byte-identically on the sharded kernel at
/// every shard count.
fn check_shard_equivalence(scenario: impl Fn(Kernel) -> String, shard_counts: &[usize]) {
    let serial = scenario(Kernel::Serial);
    for &n in shard_counts {
        let sharded = scenario(Kernel::Sharded(n));
        assert_eq!(
            serial, sharded,
            "sharded kernel diverged from serial at {n} shards"
        );
    }
}

fn ep(cfg: &MachineConfig, c: NodeCoord, i: u8) -> GlobalEndpoint {
    GlobalEndpoint {
        node: cfg.shape.id(c),
        ep: LocalEndpointId(i),
    }
}

/// Figure 9-shaped: closed-loop batch of uniform traffic, round-robin
/// arbitration.
fn fig9_round_robin(kernel: Kernel) -> String {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams::default();
    let inner = BatchDriver::builder_for(&cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(10)
        .seed(42)
        .build();
    let mut drv = Recorder::new(inner);
    match kernel {
        Kernel::Serial => {
            let mut sim = Sim::builder().config(cfg).params(params).build();
            let outcome = sim.run(&mut drv, 2_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render("fig9_round_robin", &observe(&sim, outcome), &drv)
        }
        Kernel::Sharded(n) => {
            let mut sim = Sim::builder()
                .config(cfg)
                .params(params)
                .shards(n)
                .build_sharded();
            let outcome = sim.run(&mut drv, 2_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render("fig9_round_robin", &observe_sharded(&sim, outcome), &drv)
        }
    }
}

/// Figure 9-shaped with programmed inverse-weighted arbiters (exercises the
/// weight-installation paths and EoS arbitration sites).
fn fig9_inverse_weighted(kernel: Kernel) -> String {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
    let weights = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
    let params = SimParams {
        arbiter: ArbiterKind::InverseWeighted { m_bits: 5 }.into(),
        ..SimParams::default()
    };
    let inner = BatchDriver::builder_for(&cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(8)
        .seed(7)
        .build();
    let mut drv = Recorder::new(inner);
    match kernel {
        Kernel::Serial => {
            let mut sim = Sim::builder()
                .config(cfg)
                .params(params)
                .weights(weights)
                .build();
            let outcome = sim.run(&mut drv, 2_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render("fig9_inverse_weighted", &observe(&sim, outcome), &drv)
        }
        Kernel::Sharded(n) => {
            let mut sim = Sim::builder()
                .config(cfg)
                .params(params)
                .weights(weights)
                .shards(n)
                .build_sharded();
            let outcome = sim.run(&mut drv, 2_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render(
                "fig9_inverse_weighted",
                &observe_sharded(&sim, outcome),
                &drv,
            )
        }
    }
}

/// Fault-sweep-shaped: open-loop load under a lossy schedule with an outage
/// window, on the serial kernel.
fn fault_sweep() -> String {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let schedule = FaultSchedule::uniform(5, 1e-4).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: 200,
            until_cycle: 900,
        },
    );
    let params = SimParams {
        fault: Some(schedule),
        ..SimParams::default()
    };
    let inner = LoadDriver::for_config(&cfg, Box::new(UniformRandom), 0.05, 20, 13);
    let mut drv = Recorder::new(inner);
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let outcome = sim.run(&mut drv, 10_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    sim.check_invariants().unwrap();
    render("fault_sweep", &observe(&sim, outcome), &drv)
}

/// Driver for the multicast scenario: waits for a fixed delivery count plus
/// one handler dispatch. All traffic is injected up front, so shard
/// sub-drivers have nothing to do.
struct Wait {
    want_packets: u64,
    packets: u64,
    handler_seen: bool,
}

impl Driver for Wait {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, d: &Delivery) {
        match d {
            Delivery::Packet(_) => self.packets += 1,
            Delivery::Handler { .. } => self.handler_seen = true,
        }
    }
    fn done(&self, _sim: &Sim) -> bool {
        self.packets >= self.want_packets && self.handler_seen
    }
}

/// A sub-driver that injects nothing.
struct Idle;

impl Driver for Idle {
    fn pre_cycle(&mut self, _sim: &mut Sim) {}
    fn on_delivery(&mut self, _sim: &mut Sim, _d: &Delivery) {}
    fn done(&self, _sim: &Sim) -> bool {
        false
    }
}

impl ShardableDriver for Wait {
    fn split(
        &self,
        _cfg: &MachineConfig,
        ranges: &[std::ops::Range<usize>],
    ) -> Vec<Box<dyn Driver + Send>> {
        ranges
            .iter()
            .map(|_| Box::new(Idle) as Box<dyn Driver + Send>)
            .collect()
    }

    fn done_implies_quiescent(&self) -> bool {
        true
    }
}

/// Multicast trees plus counted-write synchronization (exercises the
/// replication tables, endpoint counters, and handler dispatch).
fn multicast_counted_write(kernel: Kernel) -> String {
    let cfg = MachineConfig::new(TorusShape::cube(3));
    let src_node = NodeCoord::new(1, 1, 1);
    let dests =
        anton_traffic::md::halo_dest_set(&cfg, src_node, anton_traffic::md::HaloSpec::default());
    let n_dests = dests.num_endpoints() as u64;
    let group = McGroup::build(
        &cfg.shape,
        McGroupId(3),
        src_node,
        dests,
        &anton_traffic::md::alternating_variants(),
    );
    let src = ep(&cfg, src_node, 0);
    let dst = ep(&cfg, NodeCoord::new(2, 2, 2), 5);
    let counter = CounterId(4);
    let packets = || {
        let mut pkts = Vec::new();
        for tree in [0u8, 1] {
            let mut pkt = Packet::write(src, src, Payload::zeros(16));
            pkt.dst = Destination::Multicast {
                group: McGroupId(3),
                tree,
            };
            pkts.push(pkt);
        }
        // Counted write: three writes arm a three-count counter at a far
        // corner.
        for _ in 0..3 {
            let mut pkt = Packet::write(src, dst, Payload::zeros(16));
            pkt.counter = Some(counter);
            pkts.push(pkt);
        }
        pkts
    };
    let inner = Wait {
        want_packets: 2 * n_dests + 3,
        packets: 0,
        handler_seen: false,
    };
    let mut drv = Recorder::new(inner);
    match kernel {
        Kernel::Serial => {
            let mut sim = Sim::builder()
                .config(cfg.clone())
                .params(SimParams::default())
                .build();
            sim.add_multicast_group(group);
            sim.set_counter(dst, counter, 3);
            for pkt in packets() {
                sim.inject(src, pkt);
            }
            let outcome = sim.run(&mut drv, 1_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render("multicast_counted_write", &observe(&sim, outcome), &drv)
        }
        Kernel::Sharded(n) => {
            let mut sim = Sim::builder()
                .config(cfg.clone())
                .params(SimParams::default())
                .shards(n)
                .build_sharded();
            sim.add_multicast_group(group);
            sim.set_counter(dst, counter, 3);
            for pkt in packets() {
                sim.inject(src, pkt);
            }
            let outcome = sim.run(&mut drv, 1_000_000);
            assert_eq!(outcome, RunOutcome::Completed);
            sim.check_invariants().unwrap();
            render(
                "multicast_counted_write",
                &observe_sharded(&sim, outcome),
                &drv,
            )
        }
    }
}

#[test]
fn golden_fig9_round_robin() {
    check("fig9_round_robin", &fig9_round_robin(Kernel::Serial));
}

#[test]
fn golden_fig9_inverse_weighted() {
    check(
        "fig9_inverse_weighted",
        &fig9_inverse_weighted(Kernel::Serial),
    );
}

#[test]
fn golden_fault_sweep() {
    check("fault_sweep", &fault_sweep());
}

#[test]
fn golden_multicast_counted_write() {
    check(
        "multicast_counted_write",
        &multicast_counted_write(Kernel::Serial),
    );
}

#[test]
fn sharded_equivalence_fig9_round_robin() {
    check_shard_equivalence(fig9_round_robin, &[1, 2, 4, 8]);
}

#[test]
fn sharded_equivalence_fig9_inverse_weighted() {
    check_shard_equivalence(fig9_inverse_weighted, &[1, 2, 4, 8]);
}

#[test]
fn sharded_equivalence_multicast_counted_write() {
    check_shard_equivalence(multicast_counted_write, &[1, 2, 4, 8]);
}
