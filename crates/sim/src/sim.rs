//! The cycle-driven simulator core.
//!
//! Builds the full unified network — every router, endpoint adapter, channel
//! adapter, on-chip wire, and external torus channel of the configured
//! machine — and advances it cycle by cycle. Routers implement the four-stage
//! pipeline (RC, VA, SA1, SA2) with virtual cut-through flow control and
//! the arbiters the arbitration plan sets; channel adapters serialize flits
//! onto the torus at the effective link bandwidth and host the multicast
//! replication tables; endpoint adapters implement counted-write
//! synchronization.
//!
//! [`Sim`] is the conductor: it wires the machine together at construction
//! and then steps five phases a cycle, one to one with [`PHASE_NS`] — the
//! wires ([`crate::wire`]), endpoint inject, channel adapters, routers and
//! endpoint receive — each a layer struct (`endpoint.rs`, `adapter.rs`,
//! `router.rs`) acting on the one shared `Fabric` (`fabric.rs`). What stays
//! here concerns the run as a whole: the run loop, the forward-progress
//! watchdog and its report, the phase profiler and the sharded kernel's
//! hooks; the time-series sampler sits behind the fabric's probe beside the
//! other instruments.
//!
//! Modelling notes (see DESIGN.md): packets are at most two flits and are
//! switched whole (store-and-forward for the rare two-flit packet), and the
//! incremental route computation is cross-checked against the reference
//! tracer of `anton-core` in tests.

use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::{ArbiterPlan, BitsetArbiter, GrantSite};
use anton_core::chip::{
    ChanId, LinkGroup, LocalAttach, LocalLink, MeshCoord, NUM_CHAN_ADAPTERS, NUM_ROUTERS,
};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::McGroup;
use anton_core::net::{LinkEnd, Topology, TorusTopology};
use anton_core::packet::{CounterId, Packet};
use anton_core::timing::TORUS_LINK_CYCLES;
use anton_core::topology::NodeId;
use anton_core::trace::GlobalLink;
use anton_core::vc::Vc;
use anton_fault::{FaultKind, LinkShim, SHIM_TIMEOUT, SHIM_WINDOW};
use anton_link::GoBackNConfig;
use anton_obs::json::Json;
use anton_obs::link_json;
use anton_obs::{
    CongestionReport, FlightRecorder, LinkStat, StallTable, TimeSeries, TraceEvent, TraceEventKind,
};

use crate::adapter::{Adapters, ChanWires};
use crate::builder::PreRun;
use crate::endpoint::Endpoints;
use crate::fabric::{CompRef, Ctx, Fabric};
use crate::params::{SimParams, ADAPTER_PIPELINE, ROUTER_PIPELINE};
use crate::router::{PortWiring, Routers};
use crate::state::{PacketId, PacketSlab, RouteProgress};
use crate::wire::{BoundaryRole, WireSpec, Wires, LAST_CYCLE};

/// Per-phase nanosecond accumulators, active under
/// [`TraceConfig::profile`](crate::params::TraceConfig::profile): wires,
/// endpoints-inject, adapters, routers, endpoints-recv.
pub static PHASE_NS: [std::sync::atomic::AtomicU64; 5] = [
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
    std::sync::atomic::AtomicU64::new(0),
];

/// Closes profiled phase `phase` and opens the next with one clock read. A
/// phase that processed nothing (`worked` false) is not marked: the few
/// nanoseconds since the last mark roll into the next phase that works.
#[inline]
fn mark_phase(phase: usize, worked: bool, t: &mut Option<std::time::Instant>) {
    if let (true, Some(started)) = (worked, t) {
        let now = std::time::Instant::now();
        PHASE_NS[phase].fetch_add(
            (now - *started).as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        *started = now;
    }
}

/// Host-independent work the kernel has done (see [`Sim::kernel_work`]):
/// the counts that separate doing less work from doing work faster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelWork {
    /// Cycles stepped.
    pub cycles: u64,
    /// Components processed, by kind: routers, channel adapters, endpoint
    /// adapters, wires.
    pub wakes: [u64; 4],
    /// Wake-wheel bitset words, summary levels included, read by the four
    /// wheels' per-cycle clears (see
    /// [`Scheduler::words_visited`](crate::wake::Scheduler::words_visited)).
    pub wheel_words_visited: u64,
}

/// Activity counters for the energy model (Section 4.5), kept with
/// [`TraceConfig::energy`](crate::params::TraceConfig::energy) on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyCounters {
    /// Flits traversed.
    pub flits: u64,
    /// Datapath bit flips between successive valid flits.
    pub flips: u64,
    /// Idle→valid activation events.
    pub activations: u64,
    /// Set payload bits of activating flits (the model's per-set-bit term
    /// is activation energy).
    pub set_bits: u64,
}

impl EnergyCounters {
    /// Adds another counter set.
    pub fn add(&mut self, other: &EnergyCounters) {
        self.flits += other.flits;
        self.flips += other.flips;
        self.activations += other.activations;
        self.set_bits += other.set_bits;
    }
}

/// A completed network-level event reported to the driver.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// A packet (or multicast copy) arrived at an endpoint.
    Packet(PacketDelivery),
    /// A counted-write counter hit zero and the software handler fired.
    Handler {
        /// Endpoint whose handler fired.
        ep: GlobalEndpoint,
        /// The counter that completed.
        counter: CounterId,
    },
}

/// Details of one delivered packet.
#[derive(Debug, Clone)]
pub struct PacketDelivery {
    /// Injecting endpoint.
    pub src: GlobalEndpoint,
    /// Receiving endpoint.
    pub dst: GlobalEndpoint,
    /// Traffic-pattern tag.
    pub pattern: u8,
    /// Counter the packet decremented, if any.
    pub counter: Option<CounterId>,
    /// Cycle the packet entered the network.
    pub injected_at: u64,
    /// Cycle the last flit reached the endpoint adapter.
    pub delivered_at: u64,
    /// Inter-node hops taken.
    pub torus_hops: u16,
    /// Whether the packet was rerouted over a degraded table after being
    /// ejected from a failed link.
    pub rerouted: bool,
    /// Link-level route: every hop the packet was sent over, with its VC,
    /// when [`TraceConfig::routes`](crate::params::TraceConfig::routes) is
    /// on (a rerouted packet's log restarts at its re-entry).
    pub route_log: Option<Vec<(GlobalLink, Vc)>>,
}

/// Aggregate simulation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets injected into the network (multicast counts once).
    pub injected_packets: u64,
    /// Packet deliveries (multicast copies count individually).
    pub delivered_packets: u64,
    /// Per-endpoint delivery counts (indexed by dense endpoint index).
    pub recv_per_endpoint: Vec<u64>,
    /// Total flit·link traversals.
    pub flit_hops: u64,
    /// Flits that crossed external torus channels.
    pub torus_flits: u64,
    /// Cycle of the most recent delivery.
    pub last_delivery_cycle: u64,
    /// Packets that travelled on a certified degraded route table instead
    /// of their natural oblivious route: ejected from a failed link (or
    /// its feeding serializer) and re-entered, or steered onto the table
    /// at injection because the drawn route crossed a link that was down.
    pub rerouted_packets: u64,
}

/// Outcome of [`Sim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The driver reported completion.
    Completed,
    /// The watchdog detected a deadlock (no movement with packets live).
    Deadlocked,
    /// The cycle budget expired first.
    TimedOut,
}

/// One stalled head packet in a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StalledVc {
    /// Wire whose receive buffer holds the packet.
    pub link: GlobalLink,
    /// Flattened VC index on that wire.
    pub vc_index: u8,
    /// Slab id of the stalled head packet.
    pub packet: PacketId,
    /// Flits the packet occupies.
    pub flits: u8,
    /// Cycle the packet entered the network.
    pub injected_at: u64,
    /// Human-readable routing progress ("where was this packet going").
    pub route: String,
    /// Last flight-recorder events touching this packet or this wire
    /// (newest last; empty unless event recording was enabled).
    pub recent_events: Vec<TraceEvent>,
}

/// What the static pre-flight verifier concluded about the configuration
/// before the run started (see
/// [`SimParams::preflight`](crate::params::SimParams::preflight)).
///
/// Embedded in [`DeadlockReport`] so a watchdog trip is immediately
/// classifiable: a trip on a `PredictedDeadlock` config is the static
/// analysis coming true; a trip on a `CertifiedAcyclic` config means either
/// a lossy link layer that stopped delivering (the report's shim backlogs
/// are non-empty) or a simulator that diverged from the verified model — a
/// model or simulator bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Verification did not run (pre-flight off).
    #[default]
    Unknown,
    /// The symbolic channel-dependency graph was certified acyclic.
    CertifiedAcyclic,
    /// The verifier found a dependency cycle in the configuration.
    PredictedDeadlock,
}

impl StaticVerdict {
    fn as_str(&self) -> &'static str {
        match self {
            StaticVerdict::Unknown => "unknown",
            StaticVerdict::CertifiedAcyclic => "certified",
            StaticVerdict::PredictedDeadlock => "predicted",
        }
    }
}

/// Structured diagnostic captured when the forward-progress watchdog trips:
/// instead of hanging, the simulator records which VCs hold stalled head
/// packets, where each was headed, and what the lossy link layer is still
/// holding.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeadlockReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Packets still live in the network.
    pub live_packets: usize,
    /// Consecutive cycles without flit movement before the trip.
    pub idle_cycles: u64,
    /// Head packets of occupied VC buffers (capped; see `truncated`).
    pub stalled: Vec<StalledVc>,
    /// Occupied VC buffers beyond the report cap.
    pub truncated: usize,
    /// Flits stuck inside lossy-link shims, per torus wire.
    pub shim_backlogs: Vec<(GlobalLink, u64)>,
    /// What the static verifier predicted for this configuration.
    pub static_verdict: StaticVerdict,
    /// External torus links that were Down (outage window covering the trip
    /// cycle) per the fault schedule, so a report can be interpreted without
    /// re-deriving the schedule.
    pub down_links: Vec<GlobalLink>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deadlock watchdog tripped at cycle {}: {} packets live after \
             {} cycles without movement",
            self.cycle, self.live_packets, self.idle_cycles
        )?;
        match self.static_verdict {
            StaticVerdict::Unknown => {}
            StaticVerdict::PredictedDeadlock => writeln!(
                f,
                "  statically predicted: the pre-flight verifier found a \
                 channel-dependency cycle in this configuration"
            )?,
            // Certified, yet the link layer still holds flits: go-back-N is
            // losing frames faster than it recovers them, which the
            // channel-dependency model does not cover.
            StaticVerdict::CertifiedAcyclic if !self.shim_backlogs.is_empty() => writeln!(
                f,
                "  link layer: this configuration was statically certified \
                 deadlock-free, but {} lossy links still hold undelivered flits \
                 — go-back-N is not recovering lost frames (bit-error rate too \
                 high or link down), not a model bug",
                self.shim_backlogs.len()
            )?,
            StaticVerdict::CertifiedAcyclic => writeln!(
                f,
                "  model bug: this configuration was statically certified \
                 deadlock-free — the simulator diverged from the verified model"
            )?,
        }
        for s in &self.stalled {
            writeln!(
                f,
                "  stalled {} vc{}: pkt{} ({} flits, injected @{}) {}",
                s.link, s.vc_index, s.packet.0, s.flits, s.injected_at, s.route
            )?;
            for ev in &s.recent_events {
                match ev.packet {
                    Some(p) => writeln!(
                        f,
                        "    @{} {} pkt{} (track {})",
                        ev.cycle,
                        ev.kind.name(),
                        p,
                        ev.track
                    )?,
                    None => writeln!(
                        f,
                        "    @{} {} (track {})",
                        ev.cycle,
                        ev.kind.name(),
                        ev.track
                    )?,
                }
            }
        }
        if self.truncated > 0 {
            writeln!(f, "  ... and {} more occupied VCs", self.truncated)?;
        }
        for (link, flits) in &self.shim_backlogs {
            writeln!(f, "  link layer {link}: {flits} flits undelivered")?;
        }
        for link in &self.down_links {
            writeln!(f, "  faulty at trip time: {link}")?;
        }
        Ok(())
    }
}

impl StalledVc {
    fn to_json(&self) -> Json {
        Json::obj([
            ("link", link_json::link_to_json(&self.link)),
            ("vc_index", Json::from(u64::from(self.vc_index))),
            ("packet", Json::from(u64::from(self.packet.0))),
            ("flits", Json::from(u64::from(self.flits))),
            ("injected_at", Json::from(self.injected_at)),
            ("route", Json::from(self.route.as_str())),
            (
                "recent_events",
                Json::arr(self.recent_events.iter().map(TraceEvent::to_json)),
            ),
        ])
    }
}

impl DeadlockReport {
    /// Serializes the report for `results/<name>.json` attachments.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycle", Json::from(self.cycle)),
            ("live_packets", Json::from(self.live_packets as u64)),
            ("idle_cycles", Json::from(self.idle_cycles)),
            (
                "stalled",
                Json::arr(self.stalled.iter().map(StalledVc::to_json)),
            ),
            ("truncated", Json::from(self.truncated as u64)),
            (
                "shim_backlogs",
                Json::arr(self.shim_backlogs.iter().map(|(link, flits)| {
                    Json::obj([
                        ("link", link_json::link_to_json(link)),
                        ("flits", Json::from(*flits)),
                    ])
                })),
            ),
            ("static_verdict", Json::from(self.static_verdict.as_str())),
            (
                "down_links",
                Json::arr(self.down_links.iter().map(link_json::link_to_json)),
            ),
        ])
    }
}

/// A workload driving the simulator: injects packets and consumes
/// deliveries.
pub trait Driver {
    /// Called before each cycle; inject here.
    fn pre_cycle(&mut self, sim: &mut Sim);

    /// Called for every delivery of the elapsed cycle.
    fn on_delivery(&mut self, sim: &mut Sim, delivery: &Delivery);

    /// Whether the workload is complete.
    fn done(&self, sim: &Sim) -> bool;
}

/// The cycle-driven simulator of one Anton 2 machine.
pub struct Sim {
    /// Machine configuration the simulator was built from.
    pub cfg: MachineConfig,
    /// Simulation parameters, fixed at `build()`.
    pub(crate) params: SimParams,
    /// What every layer acts on: clock, wires, wake wheels, packet slab,
    /// routing state, counters, probe (see [`crate::fabric`]).
    fabric: Fabric,
    endpoints: Endpoints,
    adapters: Adapters,
    routers: Routers,
    /// Reused per-cycle wake-list buffers (drained wheel snapshots):
    /// routers, channel adapters, endpoint adapters.
    scratch: [Vec<u32>; 3],
    /// Routers, channel adapters and endpoint adapters processed so far
    /// (see [`KernelWork::wakes`]; the wire layer counts its own).
    wakes: [u64; 3],
    idle_cycles: u64,
    deadlocked: bool,
    deadlock_report: Option<Box<DeadlockReport>>,
    /// What the pre-flight verifier concluded (stamped into any
    /// [`DeadlockReport`] the watchdog produces).
    static_verdict: StaticVerdict,
    /// Boundary torus wires this shard replica exports on, with the shard
    /// that consumes each (empty in serial runs; see [`crate::shard`]).
    export_wires: Vec<(u32, u32)>,
    /// Boundary torus wires this shard replica imports on, with the shard
    /// that produces each (empty in serial runs).
    import_wires: Vec<(u32, u32)>,
    /// True when a [`crate::shard::ShardedSim`] drives this replica: the
    /// run-loop control (watchdog, completion, deadline) lives on the
    /// coordinator, which replays the merged delivery order.
    external_control: bool,
}

/// Last-K flight-recorder events attached to each stalled VC of a
/// [`DeadlockReport`].
const DEADLOCK_RECENT_EVENTS: usize = 8;

/// The cycle a run of at most `max_cycles` cycles from `now` must stop at
/// (see [`Sim::run`]).
pub(crate) fn run_deadline(now: u64, max_cycles: u64) -> u64 {
    now.saturating_add(max_cycles).min(LAST_CYCLE)
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("shape", &self.cfg.shape)
            .field("now", &self.fabric.now)
            .field("live_packets", &self.fabric.packets.live())
            .finish()
    }
}

impl Sim {
    /// Assembles the simulator, its arbiters as `plan` starts them, from
    /// what the builder's pre-run gate settled — the static verdict, the
    /// certified degraded-routing timeline and the arbiter weights to
    /// program at `plan`'s weighted sites — optionally as one
    /// shard replica of a [`crate::shard::ShardedSim`]: a full-machine
    /// instance whose boundary torus wires divert traffic through the
    /// inter-shard mailboxes and whose run-loop control lives on the
    /// coordinator.
    pub(crate) fn construct(
        cfg: MachineConfig,
        params: SimParams,
        plan: &ArbiterPlan,
        pre: &PreRun,
        shard: Option<&crate::shard::ShardAssignment<'_>>,
    ) -> Sim {
        let nodes = cfg.shape.num_nodes();
        let policy = cfg.vc_policy;

        // The wires are the topology's slots: slot `s` of node `n` is wire
        // `n * per_node + s`, and its label is the certifier's link there.
        // A node's slots are the links it receives, in the order their
        // consumers are processed (routers, channel adapters, endpoint
        // adapters), so each component's input gate/head/credit rows land
        // contiguous in the wire store — the per-cycle allocation scans walk
        // adjacent cache lines instead of scattered ones. Numbering is
        // behavior-neutral: nothing keys off wire ids except dense storage
        // (fault-shim RNG streams and shard boundaries are derived from
        // structural indices).
        let topo = TorusTopology::new(&cfg);
        let per_node = topo.slots_per_node();
        // The torus wire departing `node` through `c`, in the block of the
        // neighbor it arrives at.
        let torus_out = |node: NodeId, c: ChanId| {
            let departs = GlobalLink::Torus {
                from: node,
                dir: c.dir,
                slice: c.slice,
            };
            let (to, slot) = topo.slot(&departs).expect("every torus link is a wire");
            to * per_node + slot
        };
        let mut wires: Vec<WireSpec> = Vec::with_capacity(nodes * per_node);
        for n in 0..nodes {
            wires.extend((0..per_node).map(|slot| {
                match topo.link_at(n, slot).expect("slot in range") {
                    label @ GlobalLink::Local { link, .. } => {
                        let rx_pipeline = match link {
                            LocalLink::RouterToChan(_) => ADAPTER_PIPELINE - 1,
                            LocalLink::RouterToEp(_) => 0,
                            _ => ROUTER_PIPELINE - 1,
                        };
                        let vcs = policy.num_vcs(link.group());
                        WireSpec::ideal(label, 1, rx_pipeline, vcs, params.buffer_depth)
                    }
                    // A torus arrival, labeled as its sender sees it.
                    label => {
                        let vcs = policy.num_vcs(LinkGroup::T);
                        let depth = params.torus_buffer_depth;
                        WireSpec::ideal(label, TORUS_LINK_CYCLES, ADAPTER_PIPELINE - 1, vcs, depth)
                    }
                }
            }));
        }
        let mut export_wires: Vec<(u32, u32)> = Vec::new();
        let mut import_wires: Vec<(u32, u32)> = Vec::new();
        for n in 0..nodes as u32 {
            let node = NodeId(n);
            for c in ChanId::all() {
                let w = torus_out(node, c);
                // With a fault schedule, every external torus channel routes
                // its flits through a lossy go-back-N link shim. Each link
                // gets an independent RNG stream derived from the schedule
                // seed and the link's dense index, so fault decisions are
                // reproducible and independent of wire construction order.
                if let Some(schedule) = &params.fault {
                    let gbn = GoBackNConfig {
                        window: SHIM_WINDOW,
                        timeout: SHIM_TIMEOUT,
                    };
                    let seed = schedule.link_seed(cfg.torus_link_index(node, c));
                    wires[w].shim = Some(Box::new(LinkShim::new(
                        TORUS_LINK_CYCLES,
                        gbn,
                        schedule.default_ber,
                        schedule.downs(node, c),
                        seed,
                    )));
                }
                // Sharded execution: mark the torus wires crossing a shard
                // boundary so their traffic diverts through the inter-shard
                // mailboxes (see `crate::shard`). A wire departing an owned
                // node toward a foreign one exports; the mirror direction
                // imports. Wires between two foreign nodes stay inert —
                // nothing ever injects on them.
                let Some(assign) = shard else { continue };
                let to = NodeId((w / per_node) as u32);
                let (from_shard, to_shard) = (assign.owner(node), assign.owner(to));
                if from_shard == assign.me && to_shard != assign.me {
                    wires[w].role = BoundaryRole::Export;
                    export_wires.push((w as u32, to_shard as u32));
                } else if from_shard != assign.me && to_shard == assign.me {
                    wires[w].role = BoundaryRole::Import;
                    import_wires.push((w as u32, from_shard as u32));
                }
            }
        }

        // The components, recording who consumes and who produces each wire
        // (for event wakeups) as they attach.
        let eps_per_node = cfg.endpoints_per_node();
        let counts = [
            nodes * NUM_ROUTERS,
            nodes * NUM_CHAN_ADAPTERS,
            nodes * eps_per_node,
        ];
        let mut consumer = vec![CompRef::Ep(0); wires.len()];
        let mut producer = consumer.clone();
        let mut routers = Routers::new(&cfg.chip, counts[0]);
        let mut adapters = Adapters::new(counts[1]);
        let mut endpoints = Endpoints::new(params.seed, counts[2]);
        let torus_lanes = 2 * policy.num_vcs(LinkGroup::T) as usize;
        let attaches: Vec<Vec<LocalAttach>> =
            MeshCoord::all().map(|r| cfg.chip.router_ports(r)).collect();
        for n in 0..nodes {
            let node = NodeId(n as u32);
            // Wire this node's components by walking its slots, each of
            // which names the component sending on it and the one receiving.
            let port = |&attach| PortWiring {
                attach,
                in_wire: 0,
                out_wire: 0,
                in_lanes: 0,
            };
            let mut ports: Vec<Vec<PortWiring>> = attaches
                .iter()
                .map(|a| a.iter().map(port).collect())
                .collect();
            let mut chans: Vec<ChanWires> = ChanId::all()
                .map(|c| ChanWires {
                    torus_out: torus_out(node, c),
                    ..ChanWires::default()
                })
                .collect();
            // Per endpoint adapter, `[to router, from router]`.
            let mut eps = vec![[0; 2]; eps_per_node];
            for slot in 0..per_node {
                let w = n * per_node + slot;
                let (from, to) = (topo.producer(slot), topo.consumer(slot));
                if let (LinkEnd::Chan(_), LinkEnd::Chan(c)) = (from, to) {
                    // A torus arrival: its sender takes it as `torus_out`.
                    chans[c.index()].torus_in = w;
                    continue;
                }
                match from {
                    LinkEnd::Router { router, port } => ports[router.index()][port].out_wire = w,
                    LinkEnd::Chan(c) => chans[c.index()].to_router = w,
                    LinkEnd::Endpoint(e) => eps[usize::from(e.0)][0] = w,
                }
                match to {
                    LinkEnd::Router { router, port } => {
                        let p = &mut ports[router.index()][port];
                        p.in_wire = w;
                        p.in_lanes = 2 * wires[w].group_vcs as usize;
                    }
                    LinkEnd::Chan(c) => chans[c.index()].from_router = w,
                    LinkEnd::Endpoint(e) => eps[usize::from(e.0)][1] = w,
                }
            }
            for (r, ports) in MeshCoord::all().zip(&ports) {
                let me = CompRef::Router(routers.push(r, ports, plan) as u32);
                for p in ports {
                    consumer[p.in_wire] = me;
                    producer[p.out_wire] = me;
                }
            }
            for (c, &w) in ChanId::all().zip(&chans) {
                let me = adapters.push(&cfg.shape, node, c, w, torus_lanes, plan);
                let me = CompRef::Chan(me as u32);
                consumer[w.from_router] = me;
                producer[w.to_router] = me;
                consumer[w.torus_in] = me;
                producer[w.torus_out] = me;
            }
            for (e, &[to_router, from_router]) in cfg.chip.endpoints().zip(&eps) {
                let me = CompRef::Ep(endpoints.push(node, e, to_router, from_router) as u32);
                consumer[from_router] = me;
                producer[to_router] = me;
            }
        }
        let mut sim = Sim {
            fabric: Fabric::new(
                wires,
                (consumer, producer),
                counts,
                &params,
                pre.degraded.clone(),
            ),
            cfg,
            params,
            endpoints,
            adapters,
            routers,
            scratch: counts.map(Vec::with_capacity),
            wakes: [0; 3],
            idle_cycles: 0,
            deadlocked: false,
            deadlock_report: None,
            static_verdict: pre.verdict,
            export_wires,
            import_wires,
            external_control: shard.is_some(),
        };
        if let Some(set) = &pre.weights {
            sim.install_weights(set, plan);
        }
        sim
    }

    /// Programs a weight set at the sites `plan` marks weighted — router
    /// output (SA2) arbiters, router input (SA1) VC arbiters,
    /// channel-adapter serializers — wherever the set has a table; every
    /// other arbiter keeps the policy its site starts with. The set's
    /// dense arbiter indices are the simulator's own
    /// (`(node × 16 + router) × MAX_ROUTER_PORTS + port`,
    /// `node × 12 + adapter`).
    ///
    /// # Panics
    ///
    /// Panics if the set addresses a port the router does not have, or a
    /// table's lane count differs from its arbiter's — the set was computed
    /// for another machine configuration.
    fn install_weights(&mut self, set: &ArbiterWeightSet, plan: &ArbiterPlan) {
        let program = |arbiter: &mut BitsetArbiter, table: Vec<Vec<u32>>| {
            assert_eq!(table.len(), arbiter.num_lanes(), "weight table lanes");
            *arbiter = BitsetArbiter::inverse_weighted(table, set.m_bits);
        };
        if plan[GrantSite::Output].weighted {
            for (a, table) in set.outputs.programmed() {
                program(self.routers.arbiter_mut(a, false), table);
            }
        }
        if plan[GrantSite::Sa1].weighted {
            for (a, table) in set.inputs.programmed() {
                program(self.routers.arbiter_mut(a, true), table);
            }
        }
        if plan[GrantSite::Serializer].weighted {
            for (a, table) in set.serializers.programmed() {
                program(self.adapters.arbiter_mut(a), table);
            }
        }
    }

    /// Registers a multicast group's tables.
    ///
    /// # Panics
    ///
    /// Panics if the group id is already registered.
    pub fn add_multicast_group(&mut self, group: McGroup) {
        self.fabric.add_multicast_group(group);
    }

    /// Arms a counted-write counter at an endpoint (Section 2.1): after
    /// `count` packets naming `counter` arrive, the endpoint's software
    /// handler fires (reported as [`Delivery::Handler`]).
    pub fn set_counter(&mut self, ep: GlobalEndpoint, counter: CounterId, count: u32) {
        self.endpoints
            .set_counter(self.cfg.endpoint_index(ep), counter, count);
    }

    /// Queues a packet for injection at `src` (unbounded software queue).
    pub fn inject(&mut self, src: GlobalEndpoint, packet: Packet) {
        let idx = self.cfg.endpoint_index(src);
        self.endpoints.inject(idx, packet, &mut self.fabric);
    }

    /// Number of packets still queued in an endpoint's software queue.
    pub fn inject_queue_len(&self, src: GlobalEndpoint) -> usize {
        self.endpoints
            .inject_queue_len(self.cfg.endpoint_index(src))
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.fabric.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.fabric.stats
    }

    /// Grants issued so far at each arbitration-site class.
    pub fn grant_counts(&self) -> crate::metrics::ArbiterGrantCounts {
        self.fabric.grants
    }

    /// The wire layer (read-only, for metrics aggregation and audits).
    pub(crate) fn wires(&self) -> &Wires {
        &self.fabric.wires
    }

    /// The packet slab (read-only, for audits).
    pub(crate) fn packets(&self) -> &PacketSlab {
        &self.fabric.packets
    }

    /// Collects the full typed metrics record (see
    /// [`Metrics`](crate::metrics::Metrics)).
    pub fn metrics(&self) -> crate::metrics::Metrics {
        crate::metrics::Metrics::collect(self)
    }

    /// Packets currently in the network.
    pub fn live_packets(&self) -> usize {
        self.fabric.packets.live()
    }

    /// Raw flit counts carried by every wire, labeled by its structural
    /// link — for utilization reporting and bottleneck analysis.
    pub fn wire_utilizations(&self) -> Vec<(GlobalLink, u64)> {
        let wires = self.wires();
        (0..wires.len())
            .map(|w| (wires.label(w), wires.flits_carried(w)))
            .collect()
    }

    /// Sum of all routers' energy counters: all zero unless
    /// [`TraceConfig::energy`](crate::params::TraceConfig::energy) was on at
    /// `build()`.
    pub fn router_energy(&self) -> EnergyCounters {
        let energy = self.fabric.probe.energy.as_deref();
        energy.map_or_else(EnergyCounters::default, |e| e.total)
    }

    // ----- sharded-kernel hooks (see `crate::shard`) ------------------------

    /// Repositions the clock without stepping — the coordinator's replay
    /// spoofs the control replica's `now` so driver callbacks observe the
    /// same cycle they would in a serial run.
    pub(crate) fn set_now(&mut self, now: u64) {
        self.fabric.now = now;
    }

    /// Whether the last stepped cycle moved any flit (the watchdog input;
    /// the coordinator evaluates the watchdog globally from per-shard logs).
    pub(crate) fn moved(&self) -> bool {
        self.fabric.moved
    }

    /// Moves the deliveries of the cycles stepped so far into `out`.
    pub(crate) fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.fabric.deliveries);
    }

    /// Drains every export-boundary outbox into the per-destination-shard
    /// mailboxes, transferring each departed packet's slab state — its
    /// ready cycle at the far end included — and every import-boundary credit outbox back toward
    /// the producing shard. Called once per sync window, at the barrier.
    pub(crate) fn drain_boundary_exports(&mut self, out: &mut [crate::shard::ShardMail]) {
        let fab = &mut self.fabric;
        let mut scratch: Vec<(PacketId, u8)> = Vec::new();
        let mut scratch_credits: Vec<(u64, u8, u8)> = Vec::new();
        for &(w, dest) in &self.export_wires {
            fab.wires.take_exports(w as usize, &mut scratch);
            for (pid, vcidx) in scratch.drain(..) {
                let (state, cold) = fab.packets.remove(pid);
                out[dest as usize]
                    .packets
                    .push(crate::shard::PacketTransfer {
                        wire: w,
                        vcidx,
                        state,
                        cold,
                    });
            }
        }
        for &(w, src) in &self.import_wires {
            fab.wires
                .take_credit_exports(w as usize, &mut scratch_credits);
            for (at, vcidx, flits) in scratch_credits.drain(..) {
                out[src as usize]
                    .credits
                    .push(crate::shard::CreditTransfer {
                        wire: w,
                        at,
                        vcidx,
                        flits,
                    });
            }
        }
    }

    /// Applies one inbound boundary packet at a window barrier: inserts its
    /// state into the local slab, files it into the import wire's receive
    /// buffer and wakes the consumer for the cycle it reads ready.
    pub(crate) fn apply_packet_import(&mut self, t: crate::shard::PacketTransfer) {
        let fab = &mut self.fabric;
        let (w, now) = (t.wire as usize, fab.now);
        let pid = fab.packets.insert(t.state, t.cold);
        let ready = fab
            .wires
            .import_packet(now, w, pid, t.vcidx, &mut fab.packets);
        fab.wheels.wake(fab.consumer[w], ready, now);
    }

    /// Applies one inbound boundary credit return on an export wire.
    pub(crate) fn apply_credit_import(&mut self, t: crate::shard::CreditTransfer) {
        let fab = &mut self.fabric;
        fab.wires
            .import_credit(fab.now, t.wire as usize, t.at, t.vcidx, t.flits);
    }

    /// Replays a delivery on the control replica: updates the delivery
    /// statistics exactly as the endpoint layer's delivery would have, so
    /// driver `done` predicates reading [`Sim::stats`] observe the serial
    /// values.
    pub(crate) fn replay_delivery(&mut self, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let idx = self.cfg.endpoint_index(p.dst);
            let stats = &mut self.fabric.stats;
            stats.delivered_packets += 1;
            stats.recv_per_endpoint[idx] += 1;
            stats.last_delivery_cycle = p.delivered_at;
        }
    }

    /// Export-boundary wires of this replica, as `(wire, consumer shard)`.
    pub(crate) fn export_wire_ids(&self) -> &[(u32, u32)] {
        &self.export_wires
    }

    /// Runs until the driver completes, deadlock, or the cycle budget:
    /// `max_cycles` more cycles, or cycle 2³² − 1 (the last one the head
    /// gate records can represent) if that comes first — either way the
    /// outcome is [`RunOutcome::TimedOut`].
    ///
    /// Every exit path audits the self-checking invariants (packet
    /// conservation and per-channel credit balance) and panics with a
    /// diagnostic on violation, so every simulation is self-checking.
    pub fn run(&mut self, driver: &mut dyn Driver, max_cycles: u64) -> RunOutcome {
        let deadline = run_deadline(self.now(), max_cycles);
        // Deliveries drain through a second buffer swapped in each cycle, so
        // the two vectors ping-pong and no cycle allocates.
        let mut dels: Vec<Delivery> = Vec::new();
        loop {
            if driver.done(self) {
                return self.audited(RunOutcome::Completed);
            }
            if self.deadlocked {
                return self.audited(RunOutcome::Deadlocked);
            }
            if self.now() >= deadline {
                return self.audited(RunOutcome::TimedOut);
            }
            driver.pre_cycle(self);
            self.step();
            std::mem::swap(&mut self.fabric.deliveries, &mut dels);
            for d in &dels {
                driver.on_delivery(self, d);
            }
            dels.clear();
        }
    }

    /// Advances one cycle; [`Sim::run`] is the public way to advance.
    pub(crate) fn step(&mut self) {
        let mut t = self.params.trace.profile.then(std::time::Instant::now);
        let ctx = Ctx::new(&self.cfg, &self.params);
        let fab = &mut self.fabric;
        let now = fab.now;
        fab.moved = false;
        fab.wheels.router.begin_cycle(now);
        fab.wheels.chan.begin_cycle(now);
        fab.wheels.ep.begin_cycle(now);
        // Advance the degradation epoch to the one covering `now`, before
        // component snapshots, so same-cycle wakes land in this cycle — and
        // so do the reroutes a link onset strands: the endpoints take them
        // before their inject phase.
        while let Some(onsets) = fab.advance_epoch() {
            for (n, c) in onsets {
                self.adapters
                    .link_onset(n.0 as usize * NUM_CHAN_ADAPTERS + c.index(), fab);
            }
            self.endpoints.accept_reroutes(fab, &ctx);
        }
        let wires_worked = fab.wires_step();
        mark_phase(0, wires_worked, &mut t);
        self.endpoints.fire_handlers(fab);
        // All wake sources past this point target future cycles, so the
        // wheels' current sets are complete: a cycle that woke no endpoint,
        // adapter or router is over.
        let wheels = &fab.wheels;
        if !(wheels.ep.is_empty() && wheels.chan.is_empty() && wheels.router.is_empty()) {
            self.step_woken(&mut t);
        }
        let fab = &mut self.fabric;
        if !self.external_control && fab.packets.live() > 0 && !fab.moved {
            self.idle_cycles += 1;
            if self.idle_cycles >= self.params.watchdog_cycles && !self.deadlocked {
                self.deadlocked = true;
                let report = self.build_deadlock_report();
                self.deadlock_report = Some(Box::new(report));
            }
        } else {
            self.idle_cycles = 0;
        }
        let packets = &self.fabric.packets;
        debug_assert_eq!(
            packets.created(),
            packets.terminated() + packets.live() as u64,
            "packet conservation violated at cycle {now}"
        );
        // `now + 1` cycles have completed once this step retires.
        self.fabric.sample_if_due(now + 1);
        self.fabric.now += 1;
    }

    /// The endpoint, adapter and router phases of a cycle that woke at
    /// least one of them: phases 1–4 of [`PHASE_NS`], in order.
    fn step_woken(&mut self, t: &mut Option<std::time::Instant>) {
        let ctx = Ctx::new(&self.cfg, &self.params);
        let fab = &mut self.fabric;
        // Snapshot the woken components (in ascending index order — the
        // processing order determinism depends on); the endpoint snapshot
        // serves both the inject and receive phases, exactly like the old
        // single dirty-scan did.
        let [router_list, chan_list, ep_list] = &mut self.scratch;
        router_list.clear();
        chan_list.clear();
        ep_list.clear();
        fab.wheels.ep.snapshot_into(ep_list);
        fab.wheels.chan.snapshot_into(chan_list);
        fab.wheels.router.snapshot_into(router_list);
        for &e in ep_list.iter() {
            self.endpoints.inject_step(e as usize, fab, &ctx);
        }
        mark_phase(1, !ep_list.is_empty(), t);
        for &c in chan_list.iter() {
            self.adapters.step(c as usize, fab, &ctx);
        }
        // A down link's absorbing serializer strands packets mid-cycle:
        // they join their endpoint's queue now and inject from next cycle.
        self.endpoints.accept_reroutes(fab, &ctx);
        mark_phase(2, !chan_list.is_empty(), t);
        for &r in router_list.iter() {
            self.routers.step(r as usize, fab, &ctx);
        }
        mark_phase(3, !router_list.is_empty(), t);
        for &e in ep_list.iter() {
            self.endpoints.recv_step(e as usize, fab);
        }
        mark_phase(4, !ep_list.is_empty(), t);
        fab.wheels.router.end_cycle();
        fab.wheels.chan.end_cycle();
        fab.wheels.ep.end_cycle();
        self.wakes[0] += router_list.len() as u64;
        self.wakes[1] += chan_list.len() as u64;
        self.wakes[2] += ep_list.len() as u64;
    }

    /// Work counters of the kernel so far: exact for a given input, the
    /// same on every host.
    pub fn kernel_work(&self) -> KernelWork {
        let (wire_wakes, wire_words) = self.wires().work();
        let [routers, chans, eps] = self.wakes;
        let wheels = &self.fabric.wheels;
        KernelWork {
            cycles: self.now(),
            wakes: [routers, chans, eps, wire_wakes],
            wheel_words_visited: wheels.router.words_visited()
                + wheels.chan.words_visited()
                + wheels.ep.words_visited()
                + wire_words,
        }
    }

    /// Audits the invariants at a run exit; panics with a diagnostic (and
    /// the deadlock report, if one was captured) on violation.
    fn audited(&self, outcome: RunOutcome) -> RunOutcome {
        if let Err(e) = self.check_invariants() {
            panic!(
                "simulator invariant violated at {outcome:?}, cycle {}: {e}",
                self.now()
            );
        }
        outcome
    }

    /// Cheap always-on self-checks, also run automatically at every
    /// [`Sim::run`] exit:
    ///
    /// - **Packet conservation**: every packet ever created was either
    ///   terminated (delivered, or absorbed into multicast copies) or is
    ///   still live — and once the network has fully drained, nothing may
    ///   remain live.
    /// - **Credit balance**: on every wire and VC, sender credits plus
    ///   flits in flight, inside the link layer, buffered, or returning as
    ///   credits exactly equal the buffer depth (a shard-boundary wire is
    ///   checked across its two replicas by `ShardedSim::check_invariants`).
    pub fn check_invariants(&self) -> Result<(), String> {
        let fab = &self.fabric;
        let created = fab.packets.created();
        let terminated = fab.packets.terminated();
        let live = fab.packets.live() as u64;
        if created != terminated + live {
            return Err(format!(
                "packet conservation violated: {created} created != \
                 {terminated} terminated + {live} live"
            ));
        }
        fab.wires.check_credit_balance(&fab.packets)?;
        fab.wires.check_queues(&fab.packets)?;
        let quiescent = fab.wires.is_quiescent()
            && fab.reroutes.is_empty()
            && self.endpoints.is_idle()
            && self.adapters.is_idle();
        if quiescent && live != 0 {
            return Err(format!(
                "packet conservation violated at quiesce: network drained \
                 with {live} packets still live"
            ));
        }
        Ok(())
    }

    /// The structured diagnostic captured when the deadlock watchdog
    /// tripped; `None` while the network is making progress.
    pub fn deadlock_report(&self) -> Option<&DeadlockReport> {
        self.deadlock_report.as_deref()
    }

    /// What the static pre-flight verifier concluded about this
    /// configuration at construction time.
    pub fn static_verdict(&self) -> StaticVerdict {
        self.static_verdict
    }

    fn build_deadlock_report(&mut self) -> DeadlockReport {
        const CAP: usize = 64;
        let mut report = DeadlockReport {
            cycle: self.now(),
            live_packets: self.fabric.packets.live(),
            idle_cycles: self.idle_cycles,
            static_verdict: self.static_verdict,
            ..DeadlockReport::default()
        };
        if let Some(schedule) = &self.params.fault {
            for f in &schedule.faults {
                let link = GlobalLink::Torus {
                    from: f.from,
                    dir: f.chan.dir,
                    slice: f.chan.slice,
                };
                let FaultKind::Down {
                    from_cycle,
                    until_cycle,
                } = f.kind;
                let active = from_cycle <= self.now() && self.now() < until_cycle;
                if active && !report.down_links.contains(&link) {
                    report.down_links.push(link);
                }
            }
        }
        // (wire id, packet) per stalled VC, for the flight-recorder pass.
        let mut stall_sites: Vec<(u32, PacketId)> = Vec::new();
        let fab = &mut self.fabric;
        for wid in 0..fab.wires.len() {
            let label = fab.wires.label(wid);
            let backlog = fab.wires.link_backlog(wid);
            if backlog > 0 {
                report.shim_backlogs.push((label, backlog));
            }
            for vc in 0..fab.wires.num_vcs(wid) {
                let Some(pid) = fab.wires.ready_head(fab.now, wid, vc) else {
                    continue;
                };
                if report.stalled.len() >= CAP {
                    report.truncated += 1;
                    continue;
                }
                let st = fab.packets.get(pid);
                let route = match st.route {
                    RouteProgress::Unicast { spec, dst } => format!(
                        "unicast to n{}:e{}, remaining route {spec}",
                        dst.node.0, dst.ep.0
                    ),
                    RouteProgress::McExit { dir, slice, .. } => {
                        format!("multicast exit {:?} slice {}", dir, slice.0)
                    }
                    RouteProgress::McDeliver { ep, .. } => {
                        format!("multicast delivery to e{}", ep.0)
                    }
                };
                stall_sites.push((wid as u32, pid));
                report.stalled.push(StalledVc {
                    link: label,
                    vc_index: vc,
                    packet: pid,
                    flits: st.flits,
                    injected_at: u64::from(st.injected_at),
                    route,
                    recent_events: Vec::new(),
                });
            }
        }
        if let Some(rec) = fab.probe.recorder.as_deref_mut() {
            // Stamp a stall event per stuck VC, then attach the last-K
            // events touching each stalled packet or wire (the stall
            // included) so the report carries the history leading in.
            for &(wid, pid) in &stall_sites {
                rec.record(
                    wid,
                    report.cycle,
                    Some(u64::from(pid.0)),
                    TraceEventKind::Stall {
                        idle_cycles: report.idle_cycles,
                    },
                );
            }
            for (s, &(wid, pid)) in report.stalled.iter_mut().zip(&stall_sites) {
                let pkt = u64::from(pid.0);
                s.recent_events = rec.recent_matching(DEADLOCK_RECENT_EVENTS, |e| {
                    e.packet == Some(pkt) || e.track == wid
                });
            }
        }
        report
    }

    // ----- observability ---------------------------------------------------

    /// The flight recorder, when [`TraceConfig::events`] was set.
    ///
    /// [`TraceConfig::events`]: crate::params::TraceConfig::events
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.fabric.probe.recorder.as_deref()
    }

    /// The sampled kernel-counter time series, when
    /// [`TraceConfig::sample_every`](crate::params::TraceConfig::sample_every)
    /// was non-zero.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.fabric.probe.sampler.as_ref().map(|s| &s.ts)
    }

    /// Forces a final (possibly partial) sample window at the current cycle.
    /// Call after a run completes so the tail of the simulation is not lost;
    /// a no-op when sampling is off or a window was just emitted.
    pub fn flush_samples(&mut self) {
        self.fabric.sample(self.fabric.now);
    }

    /// The stall attribution table, when [`TraceConfig::stalls`] was set.
    ///
    /// [`TraceConfig::stalls`]: crate::params::TraceConfig::stalls
    pub fn stall_table(&self) -> Option<&StallTable> {
        self.fabric.probe.stall.as_deref()
    }

    /// Closes every open stall segment at the current cycle. Call after a
    /// run completes so stalls still in progress at the end are counted; a
    /// no-op when stall attribution is off.
    pub fn flush_stalls(&mut self) {
        if let Some(st) = self.fabric.probe.stall.as_deref_mut() {
            st.flush(self.fabric.now);
        }
    }

    /// The derived congestion analysis (ranked hotspots, class totals,
    /// root-blocker trees), when stall attribution is on. Flush first.
    pub fn congestion_report(&self) -> Option<CongestionReport> {
        let table = self.stall_table()?;
        let wires = self.wires();
        let stats = table
            .stalled_wires()
            .into_iter()
            .map(|w| {
                let label = wires.label(w as usize);
                LinkStat {
                    wire: w,
                    label: label.to_string(),
                    class: crate::metrics::LinkClass::of(&label).name().to_string(),
                    cause_cycles: table.wire_cause_cycles(w),
                    vc_cycles: table.wire_vc_cycles(w),
                }
            })
            .collect();
        Some(CongestionReport::build(stats, table.edges(), |w| {
            wires.label(w as usize).to_string()
        }))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use anton_analysis::load::LoadAnalysis;
    use anton_arbiter::{ArbiterKind, ArbiterPlan, SitePlan};
    use anton_core::chip::MAX_ROUTER_PORTS;
    use anton_core::topology::TorusShape;
    use anton_traffic::patterns::UniformRandom;

    use super::*;

    /// Every arbiter of `sim`: its site, the dense index a weight set
    /// addresses it by, and its state.
    fn arbiters(sim: &mut Sim) -> Vec<(GrantSite, usize, BitsetArbiter)> {
        let mut out = Vec::new();
        for ridx in 0..sim.cfg.shape.num_nodes() * NUM_ROUTERS {
            let mesh = MeshCoord::all().nth(ridx % NUM_ROUTERS).expect("router");
            for port in 0..sim.cfg.chip.router_ports(mesh).len() {
                let a = ridx * MAX_ROUTER_PORTS + port;
                for (site, input) in [(GrantSite::Sa1, true), (GrantSite::Output, false)] {
                    out.push((site, a, sim.routers.arbiter_mut(a, input).clone()));
                }
            }
        }
        for c in 0..sim.cfg.shape.num_nodes() * NUM_CHAN_ADAPTERS {
            let arbiter = sim.adapters.arbiter_mut(c).clone();
            out.push((GrantSite::Serializer, c, arbiter));
        }
        out
    }

    /// Each site's arbiters are what the plan sets there: its start policy
    /// (`Routers::push` at SA1 and SA2, `Adapters::push` at the
    /// serializer), replaced by the set's table only at a weighted site
    /// (`install_weights`), over every start-policy combination and
    /// weighted mask. `SimBuilder::arbiter` with an `ArbiterKind` builds
    /// that kind's row of the plan table.
    #[test]
    fn every_site_reaches_its_arbiters() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let uniform = LoadAnalysis::compute(&cfg, &UniformRandom);
        let set = ArbiterWeightSet::compute(&cfg, &[&uniform], 5);
        let sets = [
            (GrantSite::Sa1, &set.inputs),
            (GrantSite::Output, &set.outputs),
            (GrantSite::Serializer, &set.serializers),
        ];
        let tables: HashMap<(GrantSite, usize), Vec<Vec<u32>>> = sets
            .into_iter()
            .flat_map(|(site, t)| t.programmed().map(move |(a, table)| ((site, a), table)))
            .collect();
        let build = |plan: ArbiterPlan| {
            let weighted = plan.weight_bits().is_some();
            let mut builder = Sim::builder().config(cfg.clone()).arbiter(plan);
            if weighted {
                builder = builder.weights(set.clone());
            }
            builder.build()
        };
        let (rr, age) = (ArbiterKind::RoundRobin, ArbiterKind::Age);
        let iw = ArbiterKind::InverseWeighted { m_bits: 5 };
        let starts = [rr.clone(), age.clone(), iw.clone()];
        for i in 0..27 * 8 {
            let site = |s: u32| SitePlan {
                start: starts[i / 8 / 3usize.pow(s) % 3].clone(),
                weighted: i >> s & 1 == 1,
            };
            let plan = ArbiterPlan {
                sites: [0, 1, 2].map(site),
            };
            let mut programmed = 0;
            for (s, a, arbiter) in arbiters(&mut build(plan.clone())) {
                let want = match tables.get(&(s, a)) {
                    Some(table) if plan[s].weighted => {
                        programmed += 1;
                        BitsetArbiter::inverse_weighted(table.clone(), 5)
                    }
                    _ => BitsetArbiter::from_kind(&plan[s].start, arbiter.num_lanes()),
                };
                assert_eq!(arbiter, want, "{plan}: {s:?} arbiter {a}");
            }
            assert_eq!(programmed > 0, plan.weight_bits().is_some(), "{plan}");
        }
        let site = |start: &ArbiterKind, weighted| SitePlan {
            start: start.clone(),
            weighted,
        };
        for (kind, [sa1, sa2, ser]) in [
            (&rr, [(&rr, false), (&rr, false), (&rr, false)]),
            (&age, [(&rr, false), (&age, false), (&rr, false)]),
            (&iw, [(&rr, true), (&iw, true), (&rr, true)]),
        ] {
            let row = ArbiterPlan {
                sites: [sa1, sa2, ser].map(|(start, weighted)| site(start, weighted)),
            };
            let mut sim = Sim::builder().config(cfg.clone()).arbiter(kind.clone());
            if row.weight_bits().is_some() {
                sim = sim.weights(set.clone());
            }
            let named = arbiters(&mut sim.build());
            assert_eq!(named, arbiters(&mut build(row)), "{kind:?}");
        }
    }

    /// The plan is the builder's alone: `.params()` after `.arbiter()`
    /// keeps it, and either setter order builds the same machine.
    #[test]
    fn params_after_arbiter_keeps_the_plan() {
        let params = SimParams {
            seed: 3,
            ..SimParams::default()
        };
        let age = ArbiterKind::Age;
        let first = Sim::builder().arbiter(age.clone()).params(params.clone());
        let got = arbiters(&mut first.build());
        for (site, a, arbiter) in &got {
            if *site == GrantSite::Output {
                let want = BitsetArbiter::from_kind(&age, arbiter.num_lanes());
                assert_eq!(*arbiter, want, "SA2 arbiter {a}");
            }
        }
        let last = Sim::builder().params(params).arbiter(age);
        assert_eq!(got, arbiters(&mut last.build()));
    }
}
