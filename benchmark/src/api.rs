//! The one module that calls into the repository's crates.
//!
//! Everything the benchmark pins of the public API is named in the `use`
//! block below, so a later API change sees at a glance what it moves:
//! `Sim::builder`, `SimBuilder::{config, params, arbiter, traffic, shards,
//! build, build_sharded}`, `Sim::{run, now, stats, metrics, grant_counts,
//! check_invariants, stall_table, flush_stalls}`, the three drivers the
//! workloads use, `PHASE_NS`, `ShardedSim::{run, now, stats, metrics,
//! grant_counts, check_invariants, merged_stalls, phase_ns}`,
//! `FaultSchedule`, `LinkShim`, the go-back-N `Sender`/`Receiver`,
//! `BitsetArbiter::pick_mask`, `Scheduler`, `verify_config`,
//! `verify_degraded`, `build_route_table`, `LoadAnalysis::compute`,
//! `FlightRecorder::record`, `StallTable::observe`, `ChromeTrace`,
//! `write_atomic` and `Json`. The rest of the benchmark sees plain numbers and the types
//! defined here.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

use anton_analysis::LoadAnalysis;
use anton_arbiter::{ArbiterKind, BitsetArbiter};
use anton_core::pattern::TrafficPattern;
use anton_core::{
    build_route_table, ChanId, DownLinkSet, GlobalEndpoint, LocalEndpointId, MachineConfig, NodeId,
    Slice, TorusDir, TorusShape,
};
use anton_fault::{FaultKind, FaultSchedule, LinkShim};
use anton_link::{GoBackNConfig, Receiver, Sender, FLIT_BYTES};
pub use anton_obs::{write_atomic, ChromeTrace, Json};
use anton_obs::{FlightRecorder, StallCause, StallTable, TraceEventKind, SHARD_PHASE_NAMES};
use anton_sim::driver::{BatchDriver, LoadDriver, PingPongDriver};
use anton_sim::params::{PreflightMode, SimParams, TraceConfig};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim, PHASE_NS};
use anton_sim::wake::{Scheduler, HORIZON};
use anton_sim::{LinkClass, Metrics, ShardableDriver, ShardedSim, SimStats};
use anton_traffic::patterns::{Blend, ReverseTornado, Tornado, UniformRandom};
use anton_verify::{verify_config, verify_degraded};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::{Inputs, Kind, Spec};

/// Named numbers: counts (exact for a fixed seed) and host times.
pub type Numbers = BTreeMap<&'static str, f64>;

/// Cycle budget of one run; no workload comes near it.
const MAX_CYCLES: u64 = 600_000_000;

/// Names of the five kernel phases behind [`PHASE_NS`], in its order.
const PHASE_METRICS: [&str; 5] = [
    "sim.wires.busy_ns",
    "sim.endpoints_inject.busy_ns",
    "sim.adapters.busy_ns",
    "sim.routers.busy_ns",
    "sim.endpoints_recv.busy_ns",
];

/// Which instruments a rep switches on. All off is the untraced rep the
/// end-to-end metrics come from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instruments {
    /// `TraceConfig::profile`: the kernel's five phase clocks.
    pub profile: bool,
    /// Host timing of the driver callbacks in the benchmark's wrapper.
    pub time_driver: bool,
    /// `TraceConfig::stalls`: per-cause stall-cycle attribution.
    pub stalls: bool,
    /// `TraceConfig::events` at the default ring capacity.
    pub events: bool,
    /// `TraceConfig::sample_every` (0 = off).
    pub sample_every: u64,
    /// Build with `PreflightMode::Off` instead of `Enforce`.
    pub skip_preflight: bool,
}

/// SplitMix64 step, the generator behind every recorded input stream.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn config(k: u8) -> MachineConfig {
    MachineConfig::new(TorusShape::cube(k))
}

fn endpoint0(node: u32) -> GlobalEndpoint {
    GlobalEndpoint {
        node: NodeId(node),
        ep: LocalEndpointId(0),
    }
}

fn chan(dir: usize, slice: u8) -> ChanId {
    ChanId {
        dir: TorusDir::from_index(dir),
        slice: Slice(slice),
    }
}

/// Host time between two [`Mark`]s, on both clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostTime {
    pub wall_s: f64,
    /// Time the calling thread spent on a CPU; `None` where procfs does not
    /// say. For code that runs on one thread and never blocks, this is the
    /// wall time less whatever kept the thread off its CPU.
    pub on_cpu_s: Option<f64>,
}

/// One reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    on_cpu_ns: Option<u64>,
}

impl Mark {
    /// Reads the wall clock and, from `/proc/thread-self/schedstat`, the
    /// scheduler's count of the nanoseconds this thread has run. The count
    /// leaves out time the thread waited for a CPU and, on a guest with
    /// steal-time accounting, time the hypervisor ran something else. The
    /// scheduler brings the count up to date when it next runs, at the
    /// latest on its tick, which is milliseconds away; yielding first makes
    /// it run now.
    pub fn now() -> Mark {
        std::thread::yield_now();
        let on_cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        Mark {
            wall: Instant::now(),
            on_cpu_ns,
        }
    }

    /// Host time from `earlier` to this reading.
    pub fn since(&self, earlier: &Mark) -> HostTime {
        HostTime {
            wall_s: (self.wall - earlier.wall).as_secs_f64(),
            on_cpu_s: earlier
                .on_cpu_ns
                .zip(self.on_cpu_ns)
                .map(|(a, b)| b.saturating_sub(a) as f64 * 1e-9),
        }
    }
}

/// What the driver wrapper records, whatever the driver.
struct Tap {
    timed: bool,
    busy_ns: Cell<u64>,
    pre_cycle_calls: u64,
    deliveries: u64,
    latencies: Vec<u32>,
    /// Simulated cycle `c` lies in slice `c >> slice_shift`.
    slice_shift: u32,
    /// Slice of the latest delivery.
    slice: u64,
    /// The clocks at the start of the run, at the first delivery of each
    /// slice, and at the end.
    marks: Vec<Mark>,
}

impl Tap {
    fn charge(&self, started: Option<Instant>) {
        if let Some(t) = started {
            self.busy_ns
                .set(self.busy_ns.get() + t.elapsed().as_nanos() as u64);
        }
    }
}

/// Wraps a workload driver: counts callbacks, samples every packet's
/// in-network latency, and — in the traced rep only — times the callbacks.
struct Probe<D> {
    inner: D,
    tap: Tap,
}

impl<D> Probe<D> {
    fn new(inner: D, timed: bool, expected: u64, slice_cycles: u64) -> Probe<D> {
        assert!(slice_cycles.is_power_of_two(), "slices are cut by a shift");
        Probe {
            inner,
            tap: Tap {
                timed,
                busy_ns: Cell::new(0),
                pre_cycle_calls: 0,
                deliveries: 0,
                latencies: Vec::with_capacity(expected as usize),
                slice_shift: slice_cycles.trailing_zeros(),
                slice: 0,
                marks: Vec::new(),
            },
        }
    }
}

impl<D: Driver> Driver for Probe<D> {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.tap.pre_cycle_calls += 1;
        let t = self.tap.timed.then(Instant::now);
        self.inner.pre_cycle(sim);
        self.tap.charge(t);
    }

    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery) {
        // Both kernels hand every delivery to this wrapper in the serial
        // order, so the slices are cut alike in both.
        let slice = sim.now() >> self.tap.slice_shift;
        if slice != self.tap.slice {
            self.tap.slice = slice;
            self.tap.marks.push(Mark::now());
        }
        let t = self.tap.timed.then(Instant::now);
        if let Delivery::Packet(p) = delivery {
            self.tap.deliveries += 1;
            self.tap
                .latencies
                .push((p.delivered_at - p.injected_at) as u32);
        }
        self.inner.on_delivery(sim, delivery);
        self.tap.charge(t);
    }

    fn done(&self, sim: &Sim) -> bool {
        let t = self.tap.timed.then(Instant::now);
        let done = self.inner.done(sim);
        self.tap.charge(t);
        done
    }
}

impl<D: ShardableDriver> ShardableDriver for Probe<D> {
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

enum Machine {
    Serial(Box<Sim>),
    Sharded(Box<ShardedSim>),
}

enum AnyDriver {
    Batch(Probe<BatchDriver>),
    PingPong(Probe<PingPongDriver>),
    Load(Probe<LoadDriver>),
}

impl AnyDriver {
    fn tap(&mut self) -> &mut Tap {
        match self {
            AnyDriver::Batch(p) => &mut p.tap,
            AnyDriver::PingPong(p) => &mut p.tap,
            AnyDriver::Load(p) => &mut p.tap,
        }
    }
}

/// A simulator and its driver, ready to run: what `setup_s` pays for.
pub struct Rig {
    machine: Machine,
    driver: AnyDriver,
    instruments: Instruments,
    /// Packets the driver must deliver.
    pub ops: u64,
}

/// Builds the simulator of one workload (builder, pre-flight lint and
/// certification, degraded-epoch certification, load analysis and weight
/// programming all happen inside `build()`).
fn build_machine(spec: &Spec, inputs: &Inputs, ins: Instruments) -> Machine {
    let mut params = SimParams {
        seed: inputs.sim_seed,
        trace: TraceConfig {
            events: ins.events,
            sample_every: ins.sample_every,
            profile: ins.profile,
            stalls: ins.stalls,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    if ins.skip_preflight {
        params.preflight = PreflightMode::Off;
    }
    if let Some(fault) = &inputs.fault {
        let mut schedule = FaultSchedule::uniform(fault.seed, fault.ber);
        if let Some(down) = &fault.down {
            schedule = schedule.with_fault(
                NodeId(down.node),
                chan(down.dir, down.slice),
                FaultKind::Down {
                    from_cycle: down.from_cycle,
                    until_cycle: down.until_cycle,
                },
            );
        }
        params.fault = Some(schedule);
    }
    let mut builder = Sim::builder().config(config(spec.k)).params(params);
    if spec.kind == Kind::BlendIw {
        builder = builder
            .arbiter(ArbiterKind::InverseWeighted { m_bits: 5 })
            .traffic(Box::new(Tornado))
            .traffic(Box::new(ReverseTornado));
    }
    if spec.shards > 1 {
        Machine::Sharded(Box::new(builder.shards(spec.shards).build_sharded()))
    } else {
        Machine::Serial(Box::new(builder.build()))
    }
}

fn build_driver(spec: &Spec, inputs: &Inputs, timed: bool) -> (AnyDriver, u64) {
    let cfg = config(spec.k);
    let endpoints = cfg.num_endpoints() as u64;
    match spec.kind {
        Kind::SatUniform | Kind::BlendIw => {
            let mut b = BatchDriver::builder_for(&cfg)
                .packets_per_endpoint(spec.size)
                .seed(inputs.driver_seed);
            b = if spec.kind == Kind::BlendIw {
                b.component(Box::new(Tornado), 0.5)
                    .component(Box::new(ReverseTornado), 0.5)
            } else {
                b.pattern(Box::new(UniformRandom))
            };
            let ops = spec.size * endpoints;
            let probe = Probe::new(b.build(), timed, ops, spec.slice_cycles);
            (AnyDriver::Batch(probe), ops)
        }
        Kind::IdlePingpong => {
            let pairs = inputs
                .pairs
                .iter()
                .map(|&(a, b)| (endpoint0(a), endpoint0(b)))
                .collect::<Vec<_>>();
            let ops = spec.size * pairs.len() as u64;
            let d = PingPongDriver::new(pairs, spec.size as u32);
            let probe = Probe::new(d, timed, ops, spec.slice_cycles);
            (AnyDriver::PingPong(probe), ops)
        }
        Kind::LossyLoad => {
            let d = LoadDriver::for_config(
                &cfg,
                Box::new(UniformRandom),
                inputs.rate,
                spec.size,
                inputs.driver_seed,
            );
            let ops = spec.size * endpoints;
            let probe = Probe::new(d, timed, ops, spec.slice_cycles);
            (AnyDriver::Load(probe), ops)
        }
    }
}

/// What one `run()` produced, before auditing.
pub struct RunResult {
    pub completed: bool,
    pub wall_s: f64,
    /// The run cut into slices of `Spec::slice_cycles` simulated cycles (a
    /// slice without a delivery is joined to the one before it), so slice
    /// `i` of every rep of one workload and seed does identical work.
    pub slices: Vec<HostTime>,
    /// Kernel phase, driver and shard-phase host times of a profiled rep.
    pub host: Numbers,
}

impl Rig {
    /// Sets up one rep. `on_part` is told how long the simulator and the
    /// driver each took to build (the `sim.build` and `driver.build`
    /// spans).
    pub fn build(
        spec: &Spec,
        inputs: &Inputs,
        instruments: Instruments,
        mut on_part: impl FnMut(&'static str, Instant, Instant),
    ) -> Rig {
        let t0 = Instant::now();
        let machine = build_machine(spec, inputs, instruments);
        let t1 = Instant::now();
        let (driver, ops) = build_driver(spec, inputs, instruments.time_driver);
        let t2 = Instant::now();
        on_part("sim.build", t0, t1);
        on_part("driver.build", t1, t2);
        Rig {
            machine,
            driver,
            instruments,
            ops,
        }
    }

    /// Runs the workload to completion and times it from outside.
    pub fn run(&mut self) -> RunResult {
        let before: Vec<u64> = PHASE_NS.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let start = Mark::now();
        self.driver.tap().marks.push(start);
        let t = start.wall;
        let outcome = match (&mut self.machine, &mut self.driver) {
            (Machine::Serial(sim), AnyDriver::Batch(d)) => sim.run(d, MAX_CYCLES),
            (Machine::Serial(sim), AnyDriver::PingPong(d)) => sim.run(d, MAX_CYCLES),
            (Machine::Serial(sim), AnyDriver::Load(d)) => sim.run(d, MAX_CYCLES),
            (Machine::Sharded(sim), AnyDriver::Batch(d)) => sim.run(d, MAX_CYCLES),
            (Machine::Sharded(_), _) => unreachable!("only the batch workload runs sharded"),
        };
        let end = Mark::now();
        let wall_s = (end.wall - t).as_secs_f64();
        self.driver.tap().marks.push(end);
        let marks = &self.driver.tap().marks;
        let slices = marks.windows(2).map(|w| w[1].since(&w[0])).collect();
        let mut host = Numbers::new();
        if self.instruments.profile {
            let mut attributed = 0u64;
            for (i, name) in PHASE_METRICS.iter().enumerate() {
                let ns = PHASE_NS[i].load(Ordering::Relaxed) - before[i];
                attributed += ns;
                host.insert(name, ns as f64);
            }
            let tap = self.driver.tap();
            attributed += tap.busy_ns.get();
            host.insert("sim.driver.busy_ns", tap.busy_ns.get() as f64);
            host.insert("sim.driver.pre_cycle_calls", tap.pre_cycle_calls as f64);
            host.insert("sim.driver.deliveries", tap.deliveries as f64);
            if let Machine::Sharded(sim) = &self.machine {
                shard_phase_numbers(sim, &mut host);
            } else {
                // Wake wheel + cycle-loop overhead: whatever the traced
                // run() spent that neither a kernel phase nor the driver
                // claimed. Only meaningful on one thread.
                let wall_ns = wall_s * 1e9;
                host.insert("sim.unattributed_ns", wall_ns - attributed as f64);
            }
        }
        if let Machine::Serial(sim) = &mut self.machine {
            sim.flush_stalls();
        }
        RunResult {
            completed: outcome == RunOutcome::Completed,
            wall_s,
            slices,
            host,
        }
    }

    /// `check_invariants()` of whichever kernel ran.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.machine {
            Machine::Serial(sim) => sim.check_invariants(),
            Machine::Sharded(sim) => sim.check_invariants(),
        }
    }

    /// Every simulated statistic of the finished run: all exact for a fixed
    /// seed, none a host time. Sorts the latency samples.
    pub fn simulated(&mut self) -> Numbers {
        let mut out = Numbers::new();
        let (now, stats, metrics): (u64, SimStats, Metrics) = match &self.machine {
            Machine::Serial(sim) => {
                if let Some(table) = sim.stall_table() {
                    stall_numbers(table, &mut out);
                }
                (sim.now(), sim.stats().clone(), sim.metrics())
            }
            Machine::Sharded(sim) => {
                if let Some(table) = sim.merged_stalls() {
                    stall_numbers(&table, &mut out);
                }
                (sim.now(), sim.stats(), sim.metrics())
            }
        };
        out.insert("sim.cycles", now as f64);
        out.insert("sim.flit_hops", stats.flit_hops as f64);
        out.insert("sim.torus_flits", stats.torus_flits as f64);
        out.insert("sim.injected_packets", stats.injected_packets as f64);
        out.insert("sim.delivered_packets", stats.delivered_packets as f64);
        out.insert("sim.rerouted_packets", stats.rerouted_packets as f64);
        out.insert("sim.grants.sa1", metrics.grants.sa1 as f64);
        out.insert("sim.grants.output", metrics.grants.output as f64);
        out.insert("sim.grants.serializer", metrics.grants.serializer as f64);
        for (class, name) in [
            (LinkClass::Mesh, "sim.util.mesh.mean"),
            (LinkClass::Skip, "sim.util.skip.mean"),
            (LinkClass::RouterToChan, "sim.util.router_to_chan.mean"),
            (LinkClass::ChanToRouter, "sim.util.chan_to_router.mean"),
            (LinkClass::RouterToEp, "sim.util.router_to_ep.mean"),
            (LinkClass::EpToRouter, "sim.util.ep_to_router.mean"),
            (LinkClass::Torus, "sim.util.torus.mean"),
        ] {
            out.insert(name, metrics.link_class(class).mean_util);
        }
        out.insert(
            "sim.util.torus.peak",
            metrics.link_class(LinkClass::Torus).peak_util,
        );
        if let Some(f) = &metrics.fault {
            out.insert("fault.frames_sent", f.totals.frames_sent as f64);
            out.insert("fault.retransmissions", f.totals.retransmissions as f64);
            out.insert(
                "fault.data_frames_dropped",
                f.totals.data_frames_dropped as f64,
            );
            out.insert("fault.retx_overhead", f.retransmission_overhead());
        }
        self.latency_numbers(&mut out);
        out
    }

    fn latency_numbers(&mut self, out: &mut Numbers) {
        let tap = self.driver.tap();
        out.insert("driver.delivered", tap.deliveries as f64);
        let latencies = &mut tap.latencies;
        if latencies.is_empty() {
            return;
        }
        let p50 = crate::stats::percentile_nearest_rank(latencies, 0.50);
        let p99 = crate::stats::percentile_nearest_rank(latencies, 0.99);
        out.insert("sim_latency_p50_cycles", f64::from(p50));
        out.insert("sim_latency_p99_cycles", f64::from(p99));
        let mean_cycles =
            latencies.iter().map(|&l| u64::from(l)).sum::<u64>() as f64 / latencies.len() as f64;
        let mut one_way_ns = mean_cycles * anton_sim::params::CYCLE_NS;
        match &self.driver {
            AnyDriver::PingPong(p) => {
                // Software-to-software, the Section 4.3 quantity.
                let n = p.inner.num_pairs();
                one_way_ns = (0..n).map(|i| p.inner.mean_one_way_ns(i)).sum::<f64>() / n as f64;
            }
            AnyDriver::Load(p) => {
                // The driver's own percentiles must agree with the probe's.
                out.insert(
                    "driver.latency_p50",
                    p.inner.latency_percentile(0.50) as f64,
                );
                out.insert(
                    "driver.latency_p99",
                    p.inner.latency_percentile(0.99) as f64,
                );
            }
            AnyDriver::Batch(_) => {}
        }
        out.insert("sim_one_way_ns", one_way_ns);
    }
}

fn shard_phase_numbers(sim: &ShardedSim, out: &mut Numbers) {
    let Some(per_shard) = sim.phase_ns() else {
        return;
    };
    const NAMES: [&str; 4] = [
        "sim.shard.compute_ns",
        "sim.shard.barrier_wait_ns",
        "sim.shard.mailbox_ns",
        "sim.shard.merge_ns",
    ];
    assert_eq!(
        SHARD_PHASE_NAMES,
        ["compute", "barrier_wait", "mailbox", "merge"],
        "the metric names follow the phase order"
    );
    for (i, name) in NAMES.iter().enumerate() {
        let total: u64 = per_shard.iter().map(|p| p[i]).sum();
        out.insert(name, total as f64);
    }
    let max_compute = per_shard.iter().map(|p| p[0]).max().unwrap_or(0);
    let mean_compute = out["sim.shard.compute_ns"] / per_shard.len() as f64;
    out.insert(
        "sim.shard.imbalance",
        if mean_compute > 0.0 {
            max_compute as f64 / mean_compute
        } else {
            0.0
        },
    );
}

fn stall_numbers(table: &StallTable, out: &mut Numbers) {
    const NAMES: [&str; 7] = [
        "obs.stall.no_credit_cycles",
        "obs.stall.lost_sa1_cycles",
        "obs.stall.lost_sa2_cycles",
        "obs.stall.output_busy_cycles",
        "obs.stall.serializer_busy_cycles",
        "obs.stall.retransmit_backlog_cycles",
        "obs.stall.dead_link_drain_cycles",
    ];
    let mut per_cause = [0u64; 7];
    for w in 0..table.num_wires() as u32 {
        for (acc, c) in per_cause.iter_mut().zip(table.wire_cause_cycles(w)) {
            *acc += c;
        }
    }
    for cause in StallCause::ALL {
        out.insert(NAMES[cause.index()], per_cause[cause.index()] as f64);
    }
    out.insert("obs.stall.total_cycles", table.total_stall_cycles() as f64);
}

/// Seconds one call of `f` takes.
fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `LoadAnalysis::compute` of uniform-random traffic on a k×k×k machine.
fn load_analysis_uniform_s(k: u8) -> f64 {
    let cfg = config(k);
    let (a, s) = time_s(|| LoadAnalysis::compute(&cfg, &UniformRandom));
    black_box(a.max_torus_load());
    s
}

/// The two analyses `build()` runs for the blend workload, timed in
/// isolation (the `analysis.load` span).
pub fn load_analysis_blend(k: u8) {
    let cfg = config(k);
    black_box(LoadAnalysis::compute(&cfg, &Tornado).max_torus_load());
    black_box(LoadAnalysis::compute(&cfg, &ReverseTornado).max_torus_load());
}

/// What the isolated drives produce: host times, and the outputs that
/// repeat exactly for a seed (pinned in `expected.json`).
#[derive(Debug, Default)]
pub struct LayerNumbers {
    pub times: Numbers,
    pub exact: Numbers,
}

/// Isolated drives of single layers on recorded (SplitMix64) input streams.
/// `smoke` shrinks every iteration count and machine (the metric names keep
/// their full-size `k8`/`k6`/`k4`).
pub fn layer_drives(seed: u64, smoke: bool) -> LayerNumbers {
    let mut numbers = LayerNumbers::default();
    let out = &mut numbers;
    let (scale, k_big, k_mid, k_small) = if smoke { (50, 4, 2, 2) } else { (1, 8, 6, 4) };
    wake_drive(seed, 400_000 / scale, out);
    arbiter_drives(seed, 2_000_000 / scale, out);
    shim_drive(seed, 200_000 / scale, out);
    gobackn_drive(1_000_000 / scale, out);
    traffic_drives(seed, 1_000_000 / scale, out);
    obs_drives(seed, 2_000_000 / scale, out);

    let cfg = config(k_big);
    let one_down = DownLinkSet::from_links(cfg.shape, [(NodeId(0), chan(0, 0))]);
    let (table, s) = time_s(|| build_route_table(&cfg.shape, Slice(0), &one_down));
    assert!(table.is_ok(), "one Down link never partitions a torus");
    out.times.insert("core.route_table.build_k8_s", s);

    let (report, s) = time_s(|| verify_config(&cfg));
    let cert = report.certificate.expect("verify_config always certifies");
    assert!(cert.acyclic && !report.diagnostics.iter().any(is_error));
    out.times.insert("verify.certify_k8_s", s);
    out.exact
        .insert("verify.certified_pairs", cert.nodes as f64);
    out.exact
        .insert("verify.certified_edges", cert.edges as f64);

    let (verdict, s) = time_s(|| verify_degraded(&cfg, &one_down));
    assert!(verdict.certified(), "a single Down link is certifiable");
    out.times.insert("verify.degraded_k8_s", s);

    out.times.insert(
        "analysis.load_uniform_k4_s",
        load_analysis_uniform_s(k_small),
    );
    out.times
        .insert("analysis.load_uniform_k6_s", load_analysis_uniform_s(k_mid));
    numbers
}

fn is_error(d: &anton_verify::Diagnostic) -> bool {
    d.severity == anton_verify::Severity::Error
}

/// `Scheduler::{schedule, begin_cycle, snapshot_into, end_cycle}` over a
/// wake stream bounded by `HORIZON`, on a k=8-sized component set.
fn wake_drive(seed: u64, cycles: u64, out: &mut LayerNumbers) {
    const COMPONENTS: usize = 8192;
    const WAKES_PER_CYCLE: u64 = 16;
    let mut rng = seed ^ 0x77a6_e000;
    let stream: Vec<(u32, u8)> = (0..cycles * WAKES_PER_CYCLE)
        .map(|_| {
            let r = splitmix64(&mut rng);
            (
                (r % COMPONENTS as u64) as u32,
                ((r >> 32) % (HORIZON - 1) + 1) as u8,
            )
        })
        .collect();
    let mut sched = Scheduler::new(COMPONENTS);
    let mut snapshot = Vec::new();
    let mut woken = 0u64;
    let t = Instant::now();
    for now in 0..cycles {
        sched.begin_cycle(now);
        snapshot.clear();
        sched.snapshot_into(&mut snapshot);
        woken += snapshot.len() as u64;
        let base = (now * WAKES_PER_CYCLE) as usize;
        for &(i, dt) in &stream[base..base + WAKES_PER_CYCLE as usize] {
            sched.schedule(i as usize, now + u64::from(dt), now);
        }
        sched.end_cycle();
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(woken);
    out.times.insert(
        "sim.wake.ns_per_wake",
        ns / (cycles * WAKES_PER_CYCLE) as f64,
    );
    out.exact.insert("sim.wake.woken", woken as f64);
}

/// `BitsetArbiter::pick_mask` at a router-like radix, per policy.
fn arbiter_drives(seed: u64, picks: u64, out: &mut LayerNumbers) {
    const LANES: usize = 12;
    let mut rng = seed ^ 0xa4b1_7e40;
    let reqs: Vec<u64> = (0..picks)
        .map(|_| loop {
            let r = splitmix64(&mut rng) & ((1 << LANES) - 1);
            if r != 0 {
                break r;
            }
        })
        .collect();
    let mut checksum = 0u64;
    for (name, mut arb) in [
        (
            "arbiter.round_robin.pick_ns",
            BitsetArbiter::round_robin(LANES),
        ),
        (
            "arbiter.inverse_weighted.pick_ns",
            BitsetArbiter::uniform_iw(LANES, 5),
        ),
        ("arbiter.age.pick_ns", BitsetArbiter::age(LANES)),
    ] {
        let t = Instant::now();
        for (i, &req) in reqs.iter().enumerate() {
            let i = i as u64;
            let w = arb
                .pick_mask(
                    black_box(req),
                    |_| 0,
                    |l| (i << 6) ^ u64::from(l).wrapping_mul(0x9e37),
                )
                .expect("a nonzero request word always grants");
            checksum = checksum.wrapping_mul(31).wrapping_add(u64::from(w));
        }
        out.times
            .insert(name, t.elapsed().as_nanos() as f64 / picks as f64);
    }
    // 53 bits so the checksum survives the trip through an f64.
    out.exact
        .insert("arbiter.grant_checksum", (checksum >> 11) as f64);
}

/// `LinkShim::{enqueue, advance}` at BER 1e-4: one lossy torus link kept
/// busy until `flits` flits have crossed it.
fn shim_drive(seed: u64, flits: u64, out: &mut LayerNumbers) {
    let gbn = GoBackNConfig {
        window: anton_fault::SHIM_WINDOW,
        timeout: anton_fault::SHIM_TIMEOUT,
    };
    let mut shim = LinkShim::new(44, gbn, 1e-4, Vec::new(), seed ^ 0x5417);
    let mut now = 0u64;
    let mut sent = 0u64;
    let t = Instant::now();
    while shim.stats().flits_delivered < flits {
        if sent < flits && shim.backlog_packets() < 8 {
            shim.enqueue(now, 2);
            sent += 2;
        }
        black_box(shim.advance(now));
        now += 1;
    }
    let ns = t.elapsed().as_nanos() as f64;
    let stats = shim.stats();
    out.times
        .insert("fault.shim.ns_per_flit", ns / stats.flits_delivered as f64);
    out.exact
        .insert("fault.shim.frames_sent", stats.frames_sent as f64);
    out.exact
        .insert("fault.shim.retransmissions", stats.retransmissions as f64);
}

/// The go-back-N state machines alone, loss-free: offer, frame, receive,
/// acknowledge.
fn gobackn_drive(frames: u64, out: &mut LayerNumbers) {
    let mut tx = Sender::new(GoBackNConfig::default());
    let mut rx = Receiver::new();
    let mut payload = [0u8; FLIT_BYTES];
    let t = Instant::now();
    for now in 0..frames {
        payload[0] = now as u8;
        tx.offer(black_box(payload));
        let frame = tx
            .next_frame(now, 0)
            .expect("an offered flit is ready to send");
        let ack = rx.on_frame(&frame);
        tx.on_ack(ack, now);
    }
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(tx.in_flight(), 0, "every frame was acknowledged");
    out.times
        .insert("link.gobackn.ns_per_frame", ns / frames as f64);
}

/// Destination draws of the two traffic generators the workloads use.
fn traffic_drives(seed: u64, draws: u64, out: &mut LayerNumbers) {
    let cfg = config(8);
    let blend = Blend::new(vec![
        (Box::new(Tornado) as Box<dyn TrafficPattern>, 0.5),
        (Box::new(ReverseTornado), 0.5),
    ]);
    let patterns: [(&'static str, &dyn TrafficPattern); 2] = [
        ("traffic.uniform.ns_per_draw", &UniformRandom),
        ("traffic.blend.ns_per_draw", &blend),
    ];
    let n = cfg.num_endpoints();
    for (name, pattern) in patterns {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1f);
        let mut acc = 0usize;
        let t = Instant::now();
        for i in 0..draws as usize {
            let src = cfg.endpoint_at(i % n);
            acc ^= cfg.endpoint_index(pattern.sample_dst(&cfg, src, &mut rng));
        }
        out.times
            .insert(name, t.elapsed().as_nanos() as f64 / draws as f64);
        black_box(acc);
    }
}

/// Recorder ring push, stall observe, and JSON write/parse.
fn obs_drives(seed: u64, events: u64, out: &mut LayerNumbers) {
    const TRACKS: u32 = 1024;
    let mut rec = FlightRecorder::new(256);
    for t in 0..TRACKS {
        rec.add_track(format!("w{t}"));
    }
    let mut rng = seed ^ 0x0b5e;
    let stream: Vec<u64> = (0..events).map(|_| splitmix64(&mut rng)).collect();
    let t = Instant::now();
    for (i, &r) in stream.iter().enumerate() {
        rec.record(
            (r % u64::from(TRACKS)) as u32,
            i as u64,
            Some(r >> 40),
            TraceEventKind::Hop {
                vc: (r >> 32) as u8 & 7,
                flits: 2,
            },
        );
    }
    out.times.insert(
        "obs.recorder.ns_per_event",
        t.elapsed().as_nanos() as f64 / events as f64,
    );
    assert_eq!(rec.total_recorded(), events);

    let mut table = StallTable::new(TRACKS as usize, 3);
    let t = Instant::now();
    for (i, &r) in stream.iter().enumerate() {
        let wire = (r % u64::from(TRACKS)) as u32;
        let vc = (r >> 32) as u8 & 7;
        if r >> 63 == 1 {
            table.resolve(wire, vc, i as u64);
        } else {
            let cause = StallCause::ALL[((r >> 40) % 7) as usize];
            table.observe(wire, vc, cause, None, i as u64);
        }
    }
    table.flush(events);
    out.times.insert(
        "obs.stall.ns_per_observe",
        t.elapsed().as_nanos() as f64 / events as f64,
    );
    out.exact
        .insert("obs.stall.drive_cycles", table.total_stall_cycles() as f64);

    let doc = Json::Arr(
        stream
            .iter()
            .take((events / 20) as usize)
            .map(|&r| {
                Json::obj([
                    ("cycle", Json::from(r >> 20)),
                    ("link", Json::from(format!("w{}", r % 4096))),
                    ("util", Json::from((r % 1000) as f64 / 1000.0)),
                ])
            })
            .collect(),
    );
    let (text, s) = time_s(|| doc.to_pretty_string());
    let mb = text.len() as f64 / 1e6;
    out.times.insert("obs.json.write_mb_per_s", mb / s);
    let (parsed, s) = time_s(|| Json::parse(&text));
    assert_eq!(parsed.as_ref(), Ok(&doc), "JSON round trip");
    out.times.insert("obs.json.parse_mb_per_s", mb / s);
}
