//! The cycle-driven simulator core.
//!
//! Builds the full unified network — every router, endpoint adapter, channel
//! adapter, on-chip wire, and external torus channel of the configured
//! machine — and advances it cycle by cycle. Routers implement the four-stage
//! pipeline (RC, VA, SA1, SA2) with virtual cut-through flow control and
//! pluggable output arbiters; channel adapters serialize flits onto the
//! torus at the effective link bandwidth and host the multicast replication
//! tables; endpoint adapters implement counted-write synchronization.
//!
//! Modelling notes (see DESIGN.md): packets are at most two flits and are
//! switched whole (store-and-forward for the rare two-flit packet), and the
//! incremental route computation is cross-checked against the reference
//! tracer of `anton-core` in tests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use anton_arbiter::{BitsetArbiter, GrantSite};
use anton_core::chip::{
    ChanId, LinkGroup, LocalAttach, LocalEndpointId, LocalLink, MeshCoord, MeshDir,
    ATTACH_CODE_BASE, MAX_ROUTER_PORTS, NUM_CHAN_ADAPTERS, NUM_ROUTERS,
};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{McGroup, McGroupId};
use anton_core::packet::{CounterId, Destination, Packet};
use anton_core::route_table::{DownLinkSet, RouteTable};
use anton_core::routing::{DimOrder, RouteSpec};
use anton_core::topology::{Dim, NodeId, Slice, TorusDir};
use anton_core::trace::GlobalLink;
use anton_core::vc::{TrafficClass, Vc, VcState};
use anton_fault::{FaultKind, ShimEvent};
use anton_obs::json::Json;
use anton_obs::link_json;
use anton_obs::{
    ChannelKind, CongestionReport, FlightRecorder, LinkStat, StallCause, StallTable, TimeSeries,
    TraceEvent, TraceEventKind,
};

use crate::params::{
    PreflightMode, SimParams, ADAPTER_PIPELINE, ROUTER_PIPELINE, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN,
};
use crate::state::{PacketId, PacketSlab, PacketState, RouteProgress};
use crate::wake::Scheduler;
use crate::wire::{saturate_cycle, BoundaryRole, BufEntry, End, WireSpec, Wires, LAST_CYCLE};

/// Maximum multicast copies queued at one replication point.
const REPL_CAP: usize = 32;

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

type WireId = usize;

/// Activity counters for the energy model (Section 4.5), per router.
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

    /// Energy in picojoules under the given coefficients.
    pub fn energy_pj(&self, p: &crate::params::EnergyParams) -> f64 {
        self.flits as f64 * p.fixed_pj
            + self.flips as f64 * p.per_flip_pj
            + self.activations as f64 * p.activation_pj
            + self.set_bits as f64 * p.per_set_bit_pj
    }
}

#[derive(Debug, Clone, Copy)]
struct PortEnergy {
    last_words: [u64; 3],
    /// First cycle at which the port is idle after its last transfer.
    idle_from: u64,
}

struct RouterState {
    node: NodeId,
    mesh: MeshCoord,
    /// Ports in use (`router_in_wire` / `router_out_wire` map them).
    nports: u8,
    port_energy: Vec<PortEnergy>,
    energy: EnergyCounters,
}

impl std::fmt::Debug for RouterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterState")
            .field("node", &self.node)
            .field("mesh", &self.mesh)
            .field("ports", &self.nports)
            .finish()
    }
}

struct ChanState {
    node: NodeId,
    chan: ChanId,
    /// Wire from the router into this adapter (outbound direction).
    from_router: WireId,
    /// Wire from this adapter into the router (inbound direction).
    to_router: WireId,
    /// Torus wire this adapter transmits on.
    torus_out: WireId,
    /// Torus wire this adapter receives on.
    torus_in: WireId,
    /// Serializer token bucket (gains [`TORUS_TOKEN_GAIN`]/cycle, a flit
    /// costs [`TORUS_TOKEN_COST`]); accrued lazily since `tokens_at`.
    tokens: i64,
    /// Cycle at which `tokens` was last brought up to date.
    tokens_at: u64,
    /// Whether the outgoing torus hop crosses its dimension's dateline — a
    /// static property of the link (Section 2.5).
    crosses_dateline: bool,
    /// The node at the far end of the outgoing torus link: where a
    /// table-routed packet stands once the serializer has sent it.
    next_node: NodeId,
    /// Multicast copies awaiting on-chip injection.
    repl: VecDeque<PacketId>,
    /// VC arbiter of the outbound serializer (per Section 3, every
    /// arbitration point can be inverse-weighted).
    out_arbiter: BitsetArbiter,
    rr_vc_in: u8,
    to_router_busy_until: u64,
}

impl std::fmt::Debug for ChanState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChanState")
            .field("node", &self.node)
            .field("chan", &self.chan)
            .finish()
    }
}

#[derive(Debug)]
struct EpState {
    node: NodeId,
    ep: LocalEndpointId,
    to_router: WireId,
    from_router: WireId,
    inject: VecDeque<InjectCmd>,
    repl: VecDeque<PacketId>,
    /// Armed counted-write counters, keyed by counter id. Endpoints hold a
    /// handful at a time, so a linear scan beats hashing.
    counters: Vec<(u16, u32)>,
    busy_until: u64,
    /// Route-randomization stream of this endpoint, derived from the base
    /// seed and the endpoint's dense index
    /// ([`anton_core::seed::derive_stream_seed`]). Per-endpoint streams make
    /// the draw sequence independent of which other endpoints inject, so a
    /// sharded run reproduces the serial draws exactly.
    rng: StdRng,
}

/// A queued injection: routing is either randomized (the normal oblivious
/// policy), fixed to an explicit route spec (tests and controlled
/// experiments), or a fault-time re-entry over the installed degraded
/// tables.
#[derive(Debug, Clone, Copy)]
enum InjectCmd {
    Auto(Packet),
    WithSpec(Packet, RouteSpec),
    /// A unicast packet pulled off a failed link and re-entered at its
    /// stranding node: routed over the current epoch's certified table,
    /// keeping its original injection cycle (so latency accounting spans
    /// the whole journey) and the hops already taken.
    Reroute {
        packet: Packet,
        slice: Slice,
        injected_at: u64,
        torus_hops: u16,
    },
}

impl InjectCmd {
    fn packet(&self) -> &Packet {
        match self {
            InjectCmd::Auto(p)
            | InjectCmd::WithSpec(p, _)
            | InjectCmd::Reroute { packet: p, .. } => p,
        }
    }
}

/// One epoch of the degradation timeline: a maximal interval over which the
/// set of down links is constant.
#[derive(Debug)]
struct DegradedEpoch {
    /// First cycle of the epoch.
    start: u64,
    /// Links down throughout the epoch.
    downs: DownLinkSet,
    /// Installed table set while this epoch is current (`None` when no
    /// links are down: healthy randomized spec routing applies).
    set: Option<u8>,
}

/// Runtime state of fault-aware degraded routing, built at construction
/// from the fault schedule's `Down` windows and only present when at least
/// one exists. Every table set referenced here passed the explicit
/// certification gate ([`anton_verify::certify_tables`] over the union of
/// all sets) before install — the simulator refuses to route over
/// uncertified tables.
#[derive(Debug)]
struct DegradedState {
    /// Unique certified table sets (one [`RouteTable`] per slice, in slice
    /// order); epochs with identical down-link sets share a set.
    table_sets: Vec<Vec<RouteTable>>,
    /// Epochs in ascending `start` order; `epochs[0].start == 0`.
    epochs: Vec<DegradedEpoch>,
    /// Index of the epoch covering the current cycle.
    cur: usize,
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
    /// Link-level route (when route recording is enabled).
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
/// [`PreflightMode`](crate::params::PreflightMode)).
///
/// Embedded in [`DeadlockReport`] so a watchdog trip is immediately
/// classifiable: a trip on a `PredictedDeadlock` config is the static
/// analysis coming true; a trip on a `CertifiedAcyclic` config means the
/// simulator diverged from the verified model — a model or simulator bug.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StaticVerdict {
    /// Verification did not run (`PreflightMode::Off`), or the report was
    /// read from JSON written before this field existed.
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

    fn from_str(s: &str) -> StaticVerdict {
        match s {
            "certified" => StaticVerdict::CertifiedAcyclic,
            "predicted" => StaticVerdict::PredictedDeadlock,
            _ => StaticVerdict::Unknown,
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
    /// cycle) or Degraded per the fault schedule, so a report can be
    /// interpreted without re-deriving the schedule.
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

    fn from_json(j: &Json) -> Result<StalledVc, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("stalled vc: missing `{k}`"));
        let uint = |k: &str| {
            field(k).and_then(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("stalled vc: `{k}` not a uint"))
            })
        };
        Ok(StalledVc {
            link: link_json::link_from_json(field("link")?)?,
            vc_index: u8::try_from(uint("vc_index")?).map_err(|_| "vc_index out of range")?,
            packet: PacketId(u32::try_from(uint("packet")?).map_err(|_| "packet out of range")?),
            flits: u8::try_from(uint("flits")?).map_err(|_| "flits out of range")?,
            injected_at: uint("injected_at")?,
            route: field("route")?
                .as_str()
                .ok_or("stalled vc: `route` not a string")?
                .to_string(),
            recent_events: field("recent_events")?
                .as_arr()
                .ok_or("stalled vc: `recent_events` not an array")?
                .iter()
                .map(TraceEvent::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
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

    /// Inverse of [`DeadlockReport::to_json`].
    pub fn from_json(j: &Json) -> Result<DeadlockReport, String> {
        let field = |k: &str| {
            j.get(k)
                .ok_or_else(|| format!("deadlock report: missing `{k}`"))
        };
        let uint = |k: &str| {
            field(k).and_then(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("deadlock report: `{k}` not a uint"))
            })
        };
        Ok(DeadlockReport {
            cycle: uint("cycle")?,
            live_packets: uint("live_packets")? as usize,
            idle_cycles: uint("idle_cycles")?,
            stalled: field("stalled")?
                .as_arr()
                .ok_or("deadlock report: `stalled` not an array")?
                .iter()
                .map(StalledVc::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            truncated: uint("truncated")? as usize,
            shim_backlogs: field("shim_backlogs")?
                .as_arr()
                .ok_or("deadlock report: `shim_backlogs` not an array")?
                .iter()
                .map(|b| {
                    let link = b
                        .get("link")
                        .ok_or("deadlock report: backlog missing `link`")
                        .and_then(|l| {
                            link_json::link_from_json(l).map_err(|_| "bad backlog link")
                        })?;
                    let flits = b
                        .get("flits")
                        .and_then(Json::as_u64)
                        .ok_or("deadlock report: backlog missing `flits`")?;
                    Ok::<_, String>((link, flits))
                })
                .collect::<Result<Vec<_>, _>>()?,
            // Tolerant of reports written before this field existed.
            static_verdict: j
                .get("static_verdict")
                .and_then(Json::as_str)
                .map(StaticVerdict::from_str)
                .unwrap_or_default(),
            // Likewise tolerant: absent (or partially unreadable) in old
            // reports, which simply carry no fault-state annotation.
            down_links: j
                .get("down_links")
                .and_then(Json::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|l| link_json::link_from_json(l).ok())
                        .collect()
                })
                .unwrap_or_default(),
        })
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

/// What sits at the end of a wire, for event wakeups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompRef {
    Router(u32),
    Chan(u32),
    Ep(u32),
}

/// The wake calendars of the three component kinds.
#[derive(Debug)]
struct CompWheels {
    router: Scheduler,
    chan: Scheduler,
    ep: Scheduler,
}

impl CompWheels {
    /// Schedules a component for processing at exactly cycle `at` (see
    /// [`crate::wake`] for why exact-cycle wakes are equivalent to the old
    /// processed-until-deadline semantics).
    #[inline]
    fn wake(&mut self, c: CompRef, at: u64, now: u64) {
        match c {
            CompRef::Router(i) => self.router.schedule(i as usize, at, now),
            CompRef::Chan(i) => self.chan.schedule(i as usize, at, now),
            CompRef::Ep(i) => self.ep.schedule(i as usize, at, now),
        }
    }
}

/// The cycle-driven simulator of one Anton 2 machine.
pub struct Sim {
    /// Machine configuration the simulator was built from.
    pub cfg: MachineConfig,
    /// Simulation parameters.
    pub params: SimParams,
    /// Record per-packet link-level routes into deliveries.
    pub record_routes: bool,
    now: u64,
    /// Every channel of the machine: state, send / pop / step (see
    /// [`crate::wire`]).
    wires: Wires,
    /// Component consuming each wire's arrivals.
    wire_consumer: Vec<CompRef>,
    /// Component receiving each wire's credit returns.
    wire_producer: Vec<CompRef>,
    /// Exact-cycle wake calendars of the components (the wires keep their
    /// own): a component is processed only on cycles somebody scheduled it
    /// for (see [`crate::wake`]).
    sched: CompWheels,
    /// Reused per-cycle wake-list buffers (drained scheduler snapshots).
    scratch_router: Vec<u32>,
    scratch_chan: Vec<u32>,
    scratch_ep: Vec<u32>,
    routers: Vec<RouterState>,
    chans: Vec<ChanState>,
    eps: Vec<EpState>,
    packets: PacketSlab,
    /// Multicast groups, indexed by `McGroupId.0`.
    mc_groups: Vec<Option<McGroup>>,
    handler_heap: BinaryHeap<Reverse<(u64, u32, u16)>>,
    deliveries: Vec<Delivery>,
    stats: SimStats,
    grants: crate::metrics::ArbiterGrantCounts,
    /// Per-router output-port lookup: `attach.code()` → port index (0xFF =
    /// no such port), replacing a linear port scan in route computation.
    router_port_of: Vec<u8>,
    /// Input wire per router port, strided by [`MAX_ROUTER_PORTS`]
    /// (`u32::MAX` past a router's port count) — the allocation loop's view
    /// of `RouterState::ports`, dense instead of per-router heap `Vec`s.
    router_in_wire: Vec<u32>,
    /// Output wire per router port (same layout).
    router_out_wire: Vec<u32>,
    /// Cycle each router output port is busy until (same layout).
    router_out_busy: Vec<u64>,
    /// SA2/output arbiter per router output port (same strided layout,
    /// placeholder single-lane arbiters past a router's port count):
    /// monomorphic bitset state instead of boxed `dyn PortArbiter`, so the
    /// allocation loop's grants are direct calls over dense memory.
    router_out_arb: Vec<BitsetArbiter>,
    /// SA1 VC arbiter per router input port (same layout; lanes = the
    /// feeding wire's VC indices).
    router_in_arb: Vec<BitsetArbiter>,
    /// Stride of `router_port_of` (attach codes per router).
    attach_codes: usize,
    /// Decode of stamped chip-target codes (see [`BufEntry::target`]): the
    /// adapter attach plus the mesh router it hangs off. Only chan and
    /// endpoint attaches are ever stamped; mesh/skip rows hold placeholders
    /// routing never reads.
    target_of_code: Vec<(LocalAttach, MeshCoord)>,
    /// Cached [`TraceConfig::profile`](crate::params::TraceConfig::profile):
    /// gates all per-phase `Instant` reads in [`Sim::step`].
    profile: bool,
    /// Routers, channel adapters and endpoint adapters processed so far
    /// (see [`KernelWork::wakes`]; the wire layer counts its own).
    wakes: [u64; 3],
    moved: bool,
    idle_cycles: u64,
    deadlocked: bool,
    deadlock_report: Option<Box<DeadlockReport>>,
    /// What the pre-flight verifier concluded (stamped into any
    /// [`DeadlockReport`] the watchdog produces).
    static_verdict: StaticVerdict,
    /// Fault-aware degraded routing: the epoch timeline and certified
    /// table sets built from the schedule's `Down` windows. `None` without
    /// Down windows (or with preflight off).
    degraded: Option<Box<DegradedState>>,
    /// Flight recorder: per-wire typed-event rings. `None` (one predictable
    /// branch per hook site) unless [`TraceConfig::events`] is set.
    ///
    /// [`TraceConfig::events`]: crate::params::TraceConfig::events
    recorder: Option<Box<FlightRecorder>>,
    /// Time-series sampler. `None` unless
    /// [`TraceConfig::sample_every`](crate::params::TraceConfig::sample_every)
    /// is non-zero.
    sampler: Option<Box<SamplerState>>,
    /// Stall attribution table. `None` (one predictable branch per hook
    /// site) unless [`TraceConfig::stalls`] is set.
    ///
    /// [`TraceConfig::stalls`]: crate::params::TraceConfig::stalls
    stall: Option<Box<StallTable>>,
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

/// Time-series sampler state: the typed window store plus the next sample
/// cycle, boxed behind one `Option` so the disabled path costs one branch
/// per [`Sim::step`].
struct SamplerState {
    ts: TimeSeries,
    every: u64,
    next_at: u64,
    scratch: Vec<u64>,
}

impl SamplerState {
    /// Fixed channels, in registration order; [`Sim::take_sample`] must push
    /// raw readings in exactly this order, followed by one
    /// `flits_<class>` counter per [`LinkClass`](crate::metrics::LinkClass)
    /// in `LinkClass::ALL` order.
    const CHANNELS: [(&'static str, ChannelKind); 8] = [
        ("injected_packets", ChannelKind::Counter),
        ("delivered_packets", ChannelKind::Counter),
        ("in_flight_packets", ChannelKind::Gauge),
        ("occupied_vcs", ChannelKind::Gauge),
        ("shim_backlog_flits", ChannelKind::Gauge),
        ("grants_sa1", ChannelKind::Counter),
        ("grants_output", ChannelKind::Counter),
        ("grants_serializer", ChannelKind::Counter),
    ];

    fn new(every: u64) -> SamplerState {
        let mut ts = TimeSeries::new(every);
        for (name, kind) in SamplerState::CHANNELS {
            ts.channel(name, kind);
        }
        for class in crate::metrics::LinkClass::ALL {
            ts.channel(format!("flits_{}", class.name()), ChannelKind::Counter);
        }
        let n = ts.num_channels();
        // Every dense counter is zero at construction, so priming with zeros
        // at cycle 0 makes the first emitted window cover [0, every).
        ts.record(0, &vec![0; n]);
        SamplerState {
            ts,
            every,
            next_at: every,
            scratch: Vec::with_capacity(n),
        }
    }
}

/// The cycle a run of at most `max_cycles` cycles from `now` must stop at
/// (see [`Sim::run`]).
pub(crate) fn run_deadline(now: u64, max_cycles: u64) -> u64 {
    now.saturating_add(max_cycles).min(LAST_CYCLE)
}

/// The torus channels among labeled per-wire flit counts, as `(from node,
/// direction, slice, flits per cycle)` over `cycles` elapsed cycles.
pub(crate) fn torus_utilizations_of(
    wires: &[(GlobalLink, u64)],
    cycles: u64,
) -> Vec<(NodeId, TorusDir, Slice, f64)> {
    let cycles = cycles.max(1) as f64;
    wires
        .iter()
        .filter_map(|&(label, flits)| match label {
            GlobalLink::Torus { from, dir, slice } => {
                Some((from, dir, slice, flits as f64 / cycles))
            }
            _ => None,
        })
        .collect()
}

/// The peak of [`torus_utilizations_of`] as a fraction of the effective
/// channel bandwidth.
pub(crate) fn max_torus_utilization_of(utils: &[(NodeId, TorusDir, Slice, f64)]) -> f64 {
    let cap = f64::from(TORUS_TOKEN_GAIN) / f64::from(TORUS_TOKEN_COST);
    utils.iter().map(|(_, _, _, u)| u / cap).fold(0.0, f64::max)
}

/// Packs the traffic class with the VC and arrival context of a chip
/// traversal (see [`BufEntry::meta`]).
fn stamp_meta(class: TrafficClass, vcs: VcState, arrived_via: Option<TorusDir>) -> u8 {
    let m_vc = vcs.vc_for(LinkGroup::M).0;
    let t_vc = vcs.vc_for(LinkGroup::T).0;
    debug_assert!(m_vc < 8 && t_vc < 8, "stamped VC exceeds 3 bits");
    let arrived_x = arrived_via.map(|d| d.dim) == Some(Dim::X);
    let reply = match class {
        TrafficClass::Request => 0,
        TrafficClass::Reply => BufEntry::REPLY,
    };
    m_vc | (t_vc << 3) | (u8::from(arrived_x) << 6) | reply
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("shape", &self.cfg.shape)
            .field("now", &self.now)
            .field("live_packets", &self.packets.live())
            .finish()
    }
}

impl Sim {
    /// Builds the simulator, optionally as one shard replica of a
    /// [`crate::shard::ShardedSim`]: a full-machine instance whose boundary
    /// torus wires divert traffic through the inter-shard mailboxes and
    /// whose run-loop control lives on the coordinator.
    pub(crate) fn construct(
        cfg: MachineConfig,
        params: SimParams,
        shard: Option<&crate::shard::ShardAssignment<'_>>,
    ) -> Sim {
        // Shard replicas skip the static pre-flight (the coordinator's
        // control replica ran it once) but must still build the degraded
        // tables — the construction is deterministic, so every replica
        // reaches the same install-or-reject decision the control replica
        // (and a serial run) did. `quiet` keeps the rejection warnings from
        // repeating once per shard.
        let is_replica = shard.is_some();
        let static_verdict = if is_replica {
            StaticVerdict::Unknown
        } else {
            Self::run_preflight(&cfg, &params)
        };
        let degraded = Self::build_degraded(&cfg, &params, is_replica);
        let nodes = cfg.shape.num_nodes();
        let eps_per_node = cfg.endpoints_per_node();
        let policy = cfg.vc_policy;
        let depth = params.buffer_depth;
        let torus_latency = params.latency.torus_link_cycles().max(1);
        let mut wires: Vec<WireSpec> = Vec::new();
        let mut routers: Vec<RouterState> = Vec::new();
        let mut chans: Vec<ChanState> = Vec::with_capacity(nodes * NUM_CHAN_ADAPTERS);
        let mut eps: Vec<EpState> = Vec::with_capacity(nodes * eps_per_node);

        // Wire lookup tables filled in the first pass (dense, index-keyed).
        const NONE: WireId = usize::MAX;
        let nrouters_total = nodes * NUM_ROUTERS;
        let midx = |n: u32, r: MeshCoord, d: MeshDir| {
            (n as usize * NUM_ROUTERS + r.index()) * MeshDir::ALL.len() + d.index()
        };
        let mut mesh_wire: Vec<WireId> = vec![NONE; nrouters_total * MeshDir::ALL.len()];
        let mut skip_wire: Vec<WireId> = vec![NONE; nrouters_total];
        // (to adapter, to router) per channel adapter.
        let mut chan_wires: Vec<(WireId, WireId)> = vec![(NONE, NONE); nodes * NUM_CHAN_ADAPTERS];
        let mut ep_wires: Vec<(WireId, WireId)> = vec![(NONE, NONE); nodes * eps_per_node];

        let torus_depth = params.torus_buffer_depth;
        let add_wire = move |wires: &mut Vec<WireSpec>, label: GlobalLink, latency, rx, group| {
            let vcs = policy.num_vcs(group);
            let d = if matches!(label, GlobalLink::Torus { .. }) {
                torus_depth
            } else {
                depth
            };
            wires.push(WireSpec::ideal(label, latency, rx, vcs, d));
            wires.len() - 1
        };

        // Pass 1: create all wires, grouped by *consumer*: every wire has
        // exactly one consuming component, so visiting components in their
        // processing order (per node: routers, channel adapters, endpoint
        // adapters) enumerates each wire exactly once, and each component's
        // input gate/head/credit rows land contiguous in the wire store
        // — the per-cycle allocation scans walk adjacent cache lines
        // instead of scattered ones. Renumbering is behavior-neutral:
        // nothing keys off wire ids except dense storage (fault-shim RNG
        // streams and shard boundaries are derived from structural indices).
        let mut torus_wire: Vec<WireId> = vec![NONE; nodes * NUM_CHAN_ADAPTERS]; // keyed by departing adapter
        for n in 0..nodes as u32 {
            let node = NodeId(n);
            let node_coord = cfg.shape.coord(node);
            for r in MeshCoord::all() {
                for attach in cfg.chip.router_ports(r) {
                    match attach {
                        LocalAttach::Mesh(d) => {
                            // This port's input: the mesh wire leaving the
                            // neighbor toward us.
                            let nbr = r.step(d).expect("mesh port has neighbor");
                            let from_dir = d.opposite();
                            let label = GlobalLink::Local {
                                node,
                                link: LocalLink::Mesh {
                                    from: nbr,
                                    dir: from_dir,
                                },
                            };
                            let w =
                                add_wire(&mut wires, label, 1, ROUTER_PIPELINE - 1, LinkGroup::M);
                            mesh_wire[midx(n, nbr, from_dir)] = w;
                        }
                        LocalAttach::Skip => {
                            let partner = cfg.chip.skip_partner(r).expect("skip port has partner");
                            let label = GlobalLink::Local {
                                node,
                                link: LocalLink::Skip { from: partner },
                            };
                            let w =
                                add_wire(&mut wires, label, 1, ROUTER_PIPELINE - 1, LinkGroup::T);
                            skip_wire[n as usize * NUM_ROUTERS + partner.index()] = w;
                        }
                        LocalAttach::Chan(c) => {
                            let w = add_wire(
                                &mut wires,
                                GlobalLink::Local {
                                    node,
                                    link: LocalLink::ChanToRouter(c),
                                },
                                1,
                                ROUTER_PIPELINE - 1,
                                LinkGroup::T,
                            );
                            chan_wires[n as usize * NUM_CHAN_ADAPTERS + c.index()].1 = w;
                        }
                        LocalAttach::Endpoint(e) => {
                            let w = add_wire(
                                &mut wires,
                                GlobalLink::Local {
                                    node,
                                    link: LocalLink::EpToRouter(e),
                                },
                                1,
                                ROUTER_PIPELINE - 1,
                                LinkGroup::M,
                            );
                            ep_wires[n as usize * eps_per_node + e.0 as usize].1 = w;
                        }
                    }
                }
            }
            for c in ChanId::all() {
                // The adapter's router-side input.
                let w = add_wire(
                    &mut wires,
                    GlobalLink::Local {
                        node,
                        link: LocalLink::RouterToChan(c),
                    },
                    1,
                    ADAPTER_PIPELINE - 1,
                    LinkGroup::T,
                );
                chan_wires[n as usize * NUM_CHAN_ADAPTERS + c.index()].0 = w;
                // The adapter's torus input: the external channel departing
                // our neighbor in this adapter's direction, labeled with
                // the opposite direction.
                let nbr = cfg.shape.id(cfg.shape.neighbor(node_coord, c.dir));
                let from_chan = ChanId {
                    dir: c.dir.opposite(),
                    slice: c.slice,
                };
                let label = GlobalLink::Torus {
                    from: nbr,
                    dir: from_chan.dir,
                    slice: from_chan.slice,
                };
                let w = add_wire(
                    &mut wires,
                    label,
                    torus_latency,
                    ADAPTER_PIPELINE - 1,
                    LinkGroup::T,
                );
                torus_wire[nbr.0 as usize * NUM_CHAN_ADAPTERS + from_chan.index()] = w;
            }
            for e in cfg.chip.endpoints() {
                let w = add_wire(
                    &mut wires,
                    GlobalLink::Local {
                        node,
                        link: LocalLink::RouterToEp(e),
                    },
                    1,
                    0,
                    LinkGroup::M,
                );
                ep_wires[n as usize * eps_per_node + e.0 as usize].0 = w;
            }
        }
        // With a fault schedule, every external torus channel routes its
        // flits through a lossy go-back-N link shim. Each link gets an
        // independent RNG stream derived from the schedule seed and the
        // link's dense index, so fault decisions are reproducible and
        // independent of wire construction order.
        if let Some(schedule) = &params.fault {
            for (ti, &w) in torus_wire.iter().enumerate() {
                let node = NodeId((ti / NUM_CHAN_ADAPTERS) as u32);
                let chan = ChanId::from_index(ti % NUM_CHAN_ADAPTERS);
                let profile = schedule.profile(node, chan);
                let seed = schedule.link_seed(cfg.torus_link_index(node, chan));
                wires[w].shim = Some(Box::new(anton_fault::LinkShim::new(
                    torus_latency,
                    schedule.gbn,
                    profile.ber,
                    profile.downs,
                    seed,
                )));
            }
        }
        // Sharded execution: mark the torus wires crossing a shard boundary
        // so their traffic diverts through the inter-shard mailboxes (see
        // `crate::shard`). A wire departing an owned node toward a foreign
        // one exports; the mirror direction imports. Wires between two
        // foreign nodes stay inert — nothing ever injects on them.
        let mut export_wires: Vec<(u32, u32)> = Vec::new();
        let mut import_wires: Vec<(u32, u32)> = Vec::new();
        if let Some(assign) = shard {
            for n in 0..nodes as u32 {
                let node = NodeId(n);
                let node_coord = cfg.shape.coord(node);
                let from_shard = assign.owner(node);
                for c in ChanId::all() {
                    let w = torus_wire[n as usize * NUM_CHAN_ADAPTERS + c.index()];
                    let to = cfg.shape.id(cfg.shape.neighbor(node_coord, c.dir));
                    let to_shard = assign.owner(to);
                    if from_shard == assign.me && to_shard != assign.me {
                        wires[w].role = BoundaryRole::Export;
                        export_wires.push((w as u32, to_shard as u32));
                    } else if from_shard != assign.me && to_shard == assign.me {
                        wires[w].role = BoundaryRole::Import;
                        import_wires.push((w as u32, from_shard as u32));
                    }
                }
            }
        }

        // Pass 2: create components, recording who consumes and who produces
        // each wire (for event wakeups) as they attach.
        let mut wire_consumer = vec![CompRef::Ep(0); wires.len()];
        let mut wire_producer = vec![CompRef::Ep(0); wires.len()];
        let mut router_in_wire = vec![u32::MAX; nrouters_total * MAX_ROUTER_PORTS];
        let mut router_out_wire = vec![u32::MAX; nrouters_total * MAX_ROUTER_PORTS];
        let attach_codes = ATTACH_CODE_BASE + eps_per_node;
        let mut router_port_of = vec![0xFFu8; nrouters_total * attach_codes];
        // Chip-target decode for entry-stamped route computation: every
        // adapter attach is owned by exactly one mesh router, and the chip
        // layout is identical on every node, so one table serves them all.
        let mut target_of_code: Vec<(LocalAttach, MeshCoord)> =
            vec![(LocalAttach::Skip, MeshCoord::new(0, 0)); attach_codes];
        for r in MeshCoord::all() {
            for attach in cfg.chip.router_ports(r) {
                if matches!(attach, LocalAttach::Chan(_) | LocalAttach::Endpoint(_)) {
                    target_of_code[attach.code()] = (attach, r);
                }
            }
        }
        for n in 0..nodes as u32 {
            let node = NodeId(n);
            let node_coord = cfg.shape.coord(node);
            for r in MeshCoord::all() {
                let attaches = cfg.chip.router_ports(r);
                let router_index = routers.len();
                for (p, attach) in attaches.iter().enumerate() {
                    let (in_wire, out_wire) = match *attach {
                        LocalAttach::Mesh(d) => {
                            let nbr = r.step(d).expect("mesh port has neighbor");
                            (
                                mesh_wire[midx(n, nbr, d.opposite())],
                                mesh_wire[midx(n, r, d)],
                            )
                        }
                        LocalAttach::Skip => {
                            let partner = cfg.chip.skip_partner(r).expect("skip port has partner");
                            (
                                skip_wire[n as usize * NUM_ROUTERS + partner.index()],
                                skip_wire[n as usize * NUM_ROUTERS + r.index()],
                            )
                        }
                        LocalAttach::Chan(c) => {
                            let (to_adapter, to_router) =
                                chan_wires[n as usize * NUM_CHAN_ADAPTERS + c.index()];
                            (to_router, to_adapter)
                        }
                        LocalAttach::Endpoint(e) => {
                            let (to_ep, to_router) =
                                ep_wires[n as usize * eps_per_node + e.0 as usize];
                            (to_router, to_ep)
                        }
                    };
                    router_port_of[router_index * attach_codes + attach.code()] = p as u8;
                    router_in_wire[router_index * MAX_ROUTER_PORTS + p] = in_wire as u32;
                    router_out_wire[router_index * MAX_ROUTER_PORTS + p] = out_wire as u32;
                    wire_consumer[in_wire] = CompRef::Router(router_index as u32);
                    wire_producer[out_wire] = CompRef::Router(router_index as u32);
                }
                let nports = attaches.len();
                routers.push(RouterState {
                    node,
                    mesh: r,
                    nports: nports as u8,
                    port_energy: vec![
                        PortEnergy {
                            last_words: [0; 3],
                            idle_from: 0
                        };
                        nports
                    ],
                    energy: EnergyCounters::default(),
                });
            }
            for c in ChanId::all() {
                let (from_router, to_router) =
                    chan_wires[n as usize * NUM_CHAN_ADAPTERS + c.index()];
                // The wire we receive on departs from our neighbor in
                // direction c.dir, labeled with the opposite direction.
                let nbr = cfg.shape.neighbor(node_coord, c.dir);
                let nbr_id = cfg.shape.id(nbr);
                let arriving_from = torus_wire[nbr_id.0 as usize * NUM_CHAN_ADAPTERS
                    + ChanId {
                        dir: c.dir.opposite(),
                        slice: c.slice,
                    }
                    .index()];
                let torus_out = torus_wire[n as usize * NUM_CHAN_ADAPTERS + c.index()];
                let me = CompRef::Chan(chans.len() as u32);
                wire_consumer[from_router] = me;
                wire_producer[to_router] = me;
                wire_consumer[arriving_from] = me;
                wire_producer[torus_out] = me;
                chans.push(ChanState {
                    node,
                    chan: c,
                    from_router,
                    to_router,
                    torus_out,
                    torus_in: arriving_from,
                    tokens: i64::from(TORUS_TOKEN_COST),
                    tokens_at: 0,
                    crosses_dateline: cfg.shape.hop_crosses_dateline(node_coord, c.dir),
                    next_node: nbr_id,
                    repl: VecDeque::new(),
                    out_arbiter: BitsetArbiter::round_robin(
                        2 * policy.num_vcs(LinkGroup::T) as usize,
                    ),
                    rr_vc_in: 0,
                    to_router_busy_until: 0,
                });
            }
            for e in cfg.chip.endpoints() {
                let (from_router, to_router) = ep_wires[n as usize * eps_per_node + e.0 as usize];
                let stream = anton_core::seed::derive_stream_seed(params.seed, eps.len() as u64);
                wire_consumer[from_router] = CompRef::Ep(eps.len() as u32);
                wire_producer[to_router] = CompRef::Ep(eps.len() as u32);
                eps.push(EpState {
                    node,
                    ep: e,
                    to_router,
                    from_router,
                    inject: VecDeque::new(),
                    repl: VecDeque::new(),
                    counters: Vec::new(),
                    busy_until: 0,
                    rng: StdRng::seed_from_u64(stream),
                });
            }
        }

        let num_eps = eps.len();
        let nrouters = routers.len();
        let nchans = chans.len();
        // Dense arbiter state over the same strided port layout. Slots past
        // a router's port count hold inert single-lane placeholders so the
        // stride stays uniform.
        let mut router_out_arb = Vec::with_capacity(nrouters * MAX_ROUTER_PORTS);
        let mut router_in_arb = Vec::with_capacity(nrouters * MAX_ROUTER_PORTS);
        for (ridx, r) in routers.iter().enumerate() {
            let nports = usize::from(r.nports);
            for p in 0..MAX_ROUTER_PORTS {
                if p < nports {
                    let in_wire = router_in_wire[ridx * MAX_ROUTER_PORTS + p] as usize;
                    router_out_arb.push(BitsetArbiter::from_kind(&params.arbiter, nports));
                    router_in_arb.push(BitsetArbiter::round_robin(
                        2 * wires[in_wire].group_vcs as usize,
                    ));
                } else {
                    router_out_arb.push(BitsetArbiter::round_robin(1));
                    router_in_arb.push(BitsetArbiter::round_robin(1));
                }
            }
        }
        let recorder = params.trace.events.then(|| {
            let mut rec = FlightRecorder::new(params.trace.ring_capacity);
            for w in &wires {
                rec.add_track(w.label.to_string());
            }
            Box::new(rec)
        });
        // Lossy-link shims (if any) log retransmissions and frame drops
        // only while a recorder is attached to drain them.
        let wires = Wires::new(wires, params.collect_metrics, params.trace.events);
        let sampler = (params.trace.sample_every > 0)
            .then(|| Box::new(SamplerState::new(params.trace.sample_every)));
        let stall = params
            .trace
            .stalls
            .then(|| Box::new(StallTable::new(wires.len(), wires.row_shift())));
        Sim {
            cfg,
            profile: params.trace.profile,
            wakes: [0; 3],
            params,
            record_routes: false,
            now: 0,
            wires,
            router_in_wire,
            router_out_wire,
            router_out_busy: vec![0; nrouters * MAX_ROUTER_PORTS],
            router_out_arb,
            router_in_arb,
            wire_consumer,
            wire_producer,
            sched: CompWheels {
                router: Scheduler::new(nrouters),
                chan: Scheduler::new(nchans),
                ep: Scheduler::new(num_eps),
            },
            scratch_router: Vec::with_capacity(nrouters),
            scratch_chan: Vec::with_capacity(nchans),
            scratch_ep: Vec::with_capacity(num_eps),
            routers,
            chans,
            eps,
            packets: PacketSlab::new(),
            mc_groups: Vec::new(),
            handler_heap: BinaryHeap::new(),
            deliveries: Vec::new(),
            stats: SimStats {
                recv_per_endpoint: vec![0; num_eps],
                ..SimStats::default()
            },
            grants: crate::metrics::ArbiterGrantCounts::default(),
            router_port_of,
            attach_codes,
            target_of_code,
            moved: false,
            idle_cycles: 0,
            deadlocked: false,
            deadlock_report: None,
            static_verdict,
            degraded,
            recorder,
            sampler,
            stall,
            export_wires,
            import_wires,
            external_control: shard.is_some(),
        }
    }

    /// Schedules a component for processing at exactly cycle `at`.
    #[inline]
    fn wake(&mut self, c: CompRef, at: u64) {
        self.sched.wake(c, at, self.now);
    }

    /// Installs inverse weights at one router output arbiter.
    ///
    /// `weights[input_port][pattern]` must be indexed consistently with
    /// [`anton_core::chip::ChipLayout::router_ports`].
    ///
    /// # Panics
    ///
    /// Panics if the router or port index is out of range.
    pub fn set_arbiter_weights(
        &mut self,
        node: NodeId,
        router_idx: usize,
        out_port: usize,
        weights: Vec<Vec<u32>>,
        m_bits: u32,
    ) {
        let ridx = node.0 as usize * NUM_ROUTERS + router_idx;
        let r = &self.routers[ridx];
        assert!(out_port < usize::from(r.nports), "output port out of range");
        self.router_out_arb[ridx * MAX_ROUTER_PORTS + out_port] =
            BitsetArbiter::inverse_weighted(weights, m_bits);
    }

    /// Installs inverse weights at one router input port's SA1 VC arbiter.
    /// `weights[vc_index][pattern]` spans both traffic classes of the link
    /// feeding the port.
    ///
    /// # Panics
    ///
    /// Panics if the router or port index is out of range.
    pub fn set_input_arbiter_weights(
        &mut self,
        node: NodeId,
        router_idx: usize,
        in_port: usize,
        weights: Vec<Vec<u32>>,
        m_bits: u32,
    ) {
        let ridx = node.0 as usize * NUM_ROUTERS + router_idx;
        let r = &self.routers[ridx];
        assert!(in_port < usize::from(r.nports), "input port out of range");
        self.router_in_arb[ridx * MAX_ROUTER_PORTS + in_port] =
            BitsetArbiter::inverse_weighted(weights, m_bits);
    }

    /// Installs inverse weights at one channel adapter's serializer VC
    /// arbiter. `weights[vc_index][pattern]` spans both traffic classes.
    ///
    /// # Panics
    ///
    /// Panics if the adapter index is out of range.
    pub fn set_chan_arbiter_weights(
        &mut self,
        node: NodeId,
        chan_idx: usize,
        weights: Vec<Vec<u32>>,
        m_bits: u32,
    ) {
        let c = &mut self.chans[node.0 as usize * NUM_CHAN_ADAPTERS + chan_idx];
        c.out_arbiter = BitsetArbiter::inverse_weighted(weights, m_bits);
    }

    /// Registers a multicast group's tables.
    ///
    /// # Panics
    ///
    /// Panics if the group id is already registered.
    pub fn add_multicast_group(&mut self, group: McGroup) {
        let idx = group.id.0 as usize;
        if idx >= self.mc_groups.len() {
            self.mc_groups.resize_with(idx + 1, || None);
        }
        assert!(
            self.mc_groups[idx].is_none(),
            "duplicate multicast group id"
        );
        self.mc_groups[idx] = Some(group);
    }

    /// Arms a counted-write counter at an endpoint (Section 2.1): after
    /// `count` packets naming `counter` arrive, the endpoint's software
    /// handler fires (reported as [`Delivery::Handler`]).
    pub fn set_counter(&mut self, ep: GlobalEndpoint, counter: CounterId, count: u32) {
        let idx = self.cfg.endpoint_index(ep);
        let counters = &mut self.eps[idx].counters;
        match counters.iter_mut().find(|(c, _)| *c == counter.0) {
            Some(slot) => slot.1 = count,
            None => counters.push((counter.0, count)),
        }
    }

    /// Queues a packet for injection at `src` (unbounded software queue).
    pub fn inject(&mut self, src: GlobalEndpoint, packet: Packet) {
        let idx = self.cfg.endpoint_index(src);
        self.eps[idx].inject.push_back(InjectCmd::Auto(packet));
        self.wake(CompRef::Ep(idx as u32), self.now);
    }

    /// Queues a unicast packet with an explicit route spec instead of the
    /// randomized oblivious route — used by controlled experiments and the
    /// route cross-check tests.
    ///
    /// # Panics
    ///
    /// Panics if `packet` is not unicast or `spec` does not route from
    /// `src`'s node to the destination node.
    pub fn inject_with_spec(&mut self, src: GlobalEndpoint, packet: Packet, spec: RouteSpec) {
        let Destination::Unicast(dst) = packet.dst else {
            panic!("explicit route specs apply to unicast packets only");
        };
        let mut cur = self.cfg.shape.coord(src.node);
        for hop in spec.hops() {
            cur = self.cfg.shape.neighbor(cur, hop);
        }
        assert_eq!(
            cur,
            self.cfg.shape.coord(dst.node),
            "spec does not reach destination"
        );
        let idx = self.cfg.endpoint_index(src);
        self.eps[idx]
            .inject
            .push_back(InjectCmd::WithSpec(packet, spec));
        self.wake(CompRef::Ep(idx as u32), self.now);
    }

    /// Number of packets still queued in an endpoint's software queue.
    pub fn inject_queue_len(&self, src: GlobalEndpoint) -> usize {
        self.eps[self.cfg.endpoint_index(src)].inject.len()
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Grants issued so far at each arbitration-site class.
    pub fn grant_counts(&self) -> crate::metrics::ArbiterGrantCounts {
        self.grants
    }

    /// The wire layer (read-only, for metrics aggregation and audits).
    pub(crate) fn wires(&self) -> &Wires {
        &self.wires
    }

    /// The most packets ever live at once (the range of packet ids used).
    #[cfg(test)]
    pub(crate) fn packet_high_water(&self) -> usize {
        self.packets.high_water()
    }

    /// Collects the full typed metrics record (see
    /// [`Metrics`](crate::metrics::Metrics)); occupancy histograms are
    /// present only when the simulator was built with
    /// [`SimParams::collect_metrics`](crate::params::SimParams::collect_metrics).
    pub fn metrics(&self) -> crate::metrics::Metrics {
        crate::metrics::Metrics::collect(self)
    }

    /// Packets currently in the network.
    pub fn live_packets(&self) -> usize {
        self.packets.live()
    }

    /// Whether the deadlock watchdog has fired.
    pub fn deadlocked(&self) -> bool {
        self.deadlocked
    }

    /// Total flits ever sent on one wire.
    pub fn wire_flits_carried(&self, w: usize) -> u64 {
        self.wires.flits_carried(w)
    }

    /// Raw flit counts carried by every wire, labeled by its structural
    /// link — for utilization reporting and bottleneck analysis.
    pub fn wire_utilizations(&self) -> Vec<(GlobalLink, u64)> {
        (0..self.wires.len())
            .map(|w| (self.wires.label(w), self.wires.flits_carried(w)))
            .collect()
    }

    /// Utilization (flits per cycle) of every external torus channel, as
    /// `(from node, direction, slice, utilization)`.
    pub fn torus_utilizations(&self) -> Vec<(NodeId, TorusDir, Slice, f64)> {
        torus_utilizations_of(&self.wire_utilizations(), self.now)
    }

    /// Peak torus-channel utilization as a fraction of the effective channel
    /// bandwidth (1.0 = the channel moved flits at the full 89.6 Gb/s for
    /// the whole run).
    pub fn max_torus_utilization(&self) -> f64 {
        max_torus_utilization_of(&self.torus_utilizations())
    }

    /// Sum of all routers' energy counters.
    pub fn router_energy(&self) -> EnergyCounters {
        let mut total = EnergyCounters::default();
        for r in &self.routers {
            total.add(&r.energy);
        }
        total
    }

    // ----- sharded-kernel hooks (see `crate::shard`) ------------------------

    /// Repositions the clock without stepping — the coordinator's replay
    /// spoofs the control replica's `now` so driver callbacks observe the
    /// same cycle they would in a serial run.
    pub(crate) fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Whether the last stepped cycle moved any flit (the watchdog input;
    /// the coordinator evaluates the watchdog globally from per-shard logs).
    pub(crate) fn moved(&self) -> bool {
        self.moved
    }

    /// Moves the deliveries of the cycles stepped so far into `out`.
    pub(crate) fn drain_deliveries(&mut self, out: &mut Vec<Delivery>) {
        out.append(&mut self.deliveries);
    }

    /// Drains every export-boundary outbox into the per-destination-shard
    /// mailboxes, transferring each departed packet's slab state along with
    /// its buffer entry, and every import-boundary credit outbox back toward
    /// the producing shard. Called once per sync window, at the barrier.
    pub(crate) fn drain_boundary_exports(&mut self, out: &mut [crate::shard::ShardMail]) {
        let mut scratch: Vec<(u64, BufEntry, u8)> = Vec::new();
        let mut scratch_credits: Vec<(u64, u8, u8)> = Vec::new();
        for &(w, dest) in &self.export_wires {
            self.wires.take_exports(w as usize, &mut scratch);
            for (mature, entry, vcidx) in scratch.drain(..) {
                let state = self.packets.remove(entry.pkt);
                out[dest as usize]
                    .packets
                    .push(crate::shard::PacketTransfer {
                        wire: w,
                        mature,
                        entry,
                        vcidx,
                        state,
                    });
            }
        }
        for &(w, src) in &self.import_wires {
            self.wires
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
    /// state into the local slab and files the entry into the import wire
    /// (in flight, or directly into the receive buffer when it matured
    /// during the closing window).
    pub(crate) fn apply_packet_import(&mut self, t: crate::shard::PacketTransfer) {
        let w = t.wire as usize;
        let mut entry = t.entry;
        entry.pkt = self.packets.insert(t.state);
        if let Some(ready) = self
            .wires
            .import_packet(self.now, w, t.mature, entry, t.vcidx)
        {
            self.wake(self.wire_consumer[w], ready.max(self.now));
        }
    }

    /// Applies one inbound boundary credit return on an export wire.
    pub(crate) fn apply_credit_import(&mut self, t: crate::shard::CreditTransfer) {
        self.wires
            .import_credit(self.now, t.wire as usize, t.at, t.vcidx, t.flits);
    }

    /// Replays a delivery on the control replica: updates the delivery
    /// statistics exactly as [`Sim::deliver`] would have, so driver `done`
    /// predicates reading [`Sim::stats`] observe the serial values.
    pub(crate) fn replay_delivery(&mut self, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let idx = self.cfg.endpoint_index(p.dst);
            self.stats.delivered_packets += 1;
            self.stats.recv_per_endpoint[idx] += 1;
            self.stats.last_delivery_cycle = p.delivered_at;
        }
    }

    /// Export-boundary wires of this replica, as `(wire, consumer shard)`.
    pub(crate) fn export_wire_ids(&self) -> &[(u32, u32)] {
        &self.export_wires
    }

    /// Builds a deadlock report from the current state as if the watchdog
    /// tripped at `cycle` after `idle_cycles` idle cycles (the coordinator
    /// evaluates the watchdog globally and synthesizes the report from each
    /// shard's stalled state).
    pub(crate) fn forced_deadlock_report(
        &mut self,
        cycle: u64,
        idle_cycles: u64,
    ) -> DeadlockReport {
        let saved = self.now;
        self.now = cycle;
        self.idle_cycles = idle_cycles;
        let report = self.build_deadlock_report();
        self.now = saved;
        report
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
        let deadline = run_deadline(self.now, max_cycles);
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
            if self.now >= deadline {
                return self.audited(RunOutcome::TimedOut);
            }
            driver.pre_cycle(self);
            self.step();
            std::mem::swap(&mut self.deliveries, &mut dels);
            for d in &dels {
                driver.on_delivery(self, d);
            }
            dels.clear();
        }
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        let mut t = self.profile.then(std::time::Instant::now);
        let now = self.now;
        self.moved = false;
        self.sched.router.begin_cycle(now);
        self.sched.chan.begin_cycle(now);
        self.sched.ep.begin_cycle(now);
        if self.degraded.is_some() {
            self.degraded_epoch_tick(now);
        }
        // The wires phase: this cycle's credit returns and arrivals, waking
        // the components they concern. Wakes raised here are either
        // same-cycle (credits, zero-pipeline arrivals) or future, so the
        // snapshots taken below see every component this cycle concerns.
        // Dense sends never appear here at all: their consumer wake was
        // issued at send time.
        let sched = &mut self.sched;
        let (consumers, producers) = (&self.wire_consumer[..], &self.wire_producer[..]);
        let wires_worked = self.wires.step(now, move |w, end, at| {
            let comp = match end {
                End::Producer => producers[w],
                End::Consumer => consumers[w],
            };
            sched.wake(comp, at, now);
        });
        if self.recorder.is_some() {
            self.drain_link_events();
        }
        mark_phase(0, wires_worked, &mut t);
        while let Some(&Reverse((t, ep_idx, counter))) = self.handler_heap.peek() {
            if t > now {
                break;
            }
            self.handler_heap.pop();
            let ep = &self.eps[ep_idx as usize];
            self.deliveries.push(Delivery::Handler {
                ep: GlobalEndpoint {
                    node: ep.node,
                    ep: ep.ep,
                },
                counter: CounterId(counter),
            });
        }
        // All wake sources past this point target future cycles, so the
        // wheels' current sets are complete: a cycle that woke no endpoint,
        // adapter or router is over.
        if !(self.sched.ep.is_empty() && self.sched.chan.is_empty() && self.sched.router.is_empty())
        {
            self.step_woken(&mut t);
        }
        if !self.external_control && self.packets.live() > 0 && !self.moved {
            self.idle_cycles += 1;
            if self.idle_cycles >= self.params.watchdog_cycles && !self.deadlocked {
                self.deadlocked = true;
                let report = self.build_deadlock_report();
                self.deadlock_report = Some(Box::new(report));
            }
        } else {
            self.idle_cycles = 0;
        }
        debug_assert_eq!(
            self.packets.created(),
            self.packets.terminated() + self.packets.live() as u64,
            "packet conservation violated at cycle {}",
            self.now
        );
        if let Some(s) = &self.sampler {
            // `now + 1` cycles have completed once this step retires.
            if now + 1 >= s.next_at {
                self.take_sample(now + 1);
                let s = self.sampler.as_mut().expect("sampler vanished mid-step");
                s.next_at = now + 1 + s.every;
            }
        }
        self.now += 1;
    }

    /// The endpoint, adapter and router phases of a cycle that woke at
    /// least one of them.
    fn step_woken(&mut self, t: &mut Option<std::time::Instant>) {
        // Snapshot the woken components (in ascending index order — the
        // processing order determinism depends on); the endpoint snapshot
        // serves both the inject and receive phases, exactly like the old
        // single dirty-scan did.
        let mut ep_list = std::mem::take(&mut self.scratch_ep);
        let mut chan_list = std::mem::take(&mut self.scratch_chan);
        let mut router_list = std::mem::take(&mut self.scratch_router);
        ep_list.clear();
        chan_list.clear();
        router_list.clear();
        self.sched.ep.snapshot_into(&mut ep_list);
        self.sched.chan.snapshot_into(&mut chan_list);
        self.sched.router.snapshot_into(&mut router_list);
        for &e in &ep_list {
            self.ep_inject_step(e as usize);
        }
        mark_phase(1, !ep_list.is_empty(), t);
        for &c in &chan_list {
            self.chan_inbound_step(c as usize);
            self.chan_outbound_step(c as usize);
        }
        mark_phase(2, !chan_list.is_empty(), t);
        for &r in &router_list {
            self.router_step(r as usize);
        }
        mark_phase(3, !router_list.is_empty(), t);
        for &e in &ep_list {
            self.ep_recv_step(e as usize);
        }
        mark_phase(4, !ep_list.is_empty(), t);
        self.sched.router.end_cycle();
        self.sched.chan.end_cycle();
        self.sched.ep.end_cycle();
        self.wakes[0] += router_list.len() as u64;
        self.wakes[1] += chan_list.len() as u64;
        self.wakes[2] += ep_list.len() as u64;
        self.scratch_ep = ep_list;
        self.scratch_chan = chan_list;
        self.scratch_router = router_list;
    }

    /// Work counters of the kernel so far: exact for a given input, the
    /// same on every host.
    pub fn kernel_work(&self) -> KernelWork {
        let (wire_wakes, wire_words) = self.wires.work();
        let [routers, chans, eps] = self.wakes;
        KernelWork {
            cycles: self.now,
            wakes: [routers, chans, eps, wire_wakes],
            wheel_words_visited: self.sched.router.words_visited()
                + self.sched.chan.words_visited()
                + self.sched.ep.words_visited()
                + wire_words,
        }
    }

    /// Moves the link-layer events (retransmissions, frame drops) the wire
    /// layer logged into the flight recorder, each on its wire's track.
    /// Called after everything that can log one — the wires phase, a send,
    /// a link drain — so the recorder's order never depends on when ticks
    /// happen. Call only with a recorder attached (without one the log
    /// stays empty).
    fn drain_link_events(&mut self) {
        let rec = self.recorder.as_mut().expect("recorder checked by caller");
        for (w, cycle, ev) in self.wires.drain_link_events() {
            let kind = match ev {
                ShimEvent::Retransmit => TraceEventKind::Retransmit,
                ShimEvent::DataFrameDropped => TraceEventKind::FrameDrop { ack: false },
                ShimEvent::AckFrameDropped => TraceEventKind::FrameDrop { ack: true },
            };
            rec.record(w, cycle, None, kind);
        }
    }

    /// Snapshots the dense kernel counters into the time-series sampler as
    /// the reading for `cycle`. Push order must match the channel
    /// registration order in [`SamplerState::new`].
    fn take_sample(&mut self, cycle: u64) {
        let mut s = self.sampler.take().expect("take_sample without a sampler");
        s.scratch.clear();
        s.scratch.push(self.stats.injected_packets);
        s.scratch.push(self.stats.delivered_packets);
        s.scratch.push(self.packets.live() as u64);
        s.scratch.push(self.wires.occupied_vcs());
        s.scratch.push(
            (0..self.wires.len())
                .map(|w| self.wires.link_backlog(w))
                .sum(),
        );
        s.scratch.push(self.grants.sa1);
        s.scratch.push(self.grants.output);
        s.scratch.push(self.grants.serializer);
        let mut per_class = [0u64; crate::metrics::LinkClass::ALL.len()];
        for w in 0..self.wires.len() {
            let class = crate::metrics::LinkClass::of(&self.wires.label(w));
            per_class[class as usize] += self.wires.flits_carried(w);
        }
        s.scratch.extend_from_slice(&per_class);
        let scratch = std::mem::take(&mut s.scratch);
        s.ts.record(cycle, &scratch);
        s.scratch = scratch;
        self.sampler = Some(s);
    }

    /// Audits the invariants at a run exit; panics with a diagnostic (and
    /// the deadlock report, if one was captured) on violation.
    fn audited(&self, outcome: RunOutcome) -> RunOutcome {
        if let Err(e) = self.check_invariants() {
            panic!(
                "simulator invariant violated at {outcome:?}, cycle {}: {e}",
                self.now
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
        let created = self.packets.created();
        let terminated = self.packets.terminated();
        let live = self.packets.live() as u64;
        if created != terminated + live {
            return Err(format!(
                "packet conservation violated: {created} created != \
                 {terminated} terminated + {live} live"
            ));
        }
        self.wires.check_credit_balance()?;
        self.wires.check_pool(self.packets.high_water())?;
        let quiescent = self.wires.is_quiescent()
            && self.handler_heap.is_empty()
            && self
                .eps
                .iter()
                .all(|e| e.inject.is_empty() && e.repl.is_empty())
            && self.chans.iter().all(|c| c.repl.is_empty());
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

    /// Runs the `anton-verify` pre-flight according to
    /// [`SimParams::preflight`](crate::params::SimParams::preflight).
    fn run_preflight(cfg: &MachineConfig, params: &SimParams) -> StaticVerdict {
        if params.preflight == PreflightMode::Off {
            return StaticVerdict::Unknown;
        }
        let report = anton_verify::preflight(cfg, &params.verify_view());
        let verdict = match report.certificate.as_ref() {
            Some(c) if c.acyclic => StaticVerdict::CertifiedAcyclic,
            Some(_) => StaticVerdict::PredictedDeadlock,
            None => StaticVerdict::Unknown,
        };
        if report.has_errors() && params.preflight == PreflightMode::Enforce {
            let mut text = String::new();
            for d in &report.diagnostics {
                text.push_str(&format!("{d}\n"));
            }
            panic!(
                "static pre-flight verification rejected this configuration \
                 ({}):\n{text}set SimParams::preflight to PreflightMode::WarnOnly \
                 to run it anyway",
                report.summary()
            );
        }
        for d in &report.diagnostics {
            eprintln!("anton-sim pre-flight: {d}");
        }
        verdict
    }

    // ----- fault-aware degraded routing -------------------------------------

    /// Builds the degraded-routing timeline from the fault schedule's `Down`
    /// windows: the timeline splits into epochs over which the down-link set
    /// is constant, each distinct non-empty set gets one route-table set
    /// (generated by `anton-verify`), and the **union** of every set's
    /// tables must pass the explicit deadlock certifier before anything is
    /// installed — traffic pinned to different epochs' tables shares the
    /// network in flight, so the mixed system is what has to be acyclic.
    ///
    /// Returns `None` when the schedule has no `Down` windows (BER-only
    /// schedules keep the pure go-back-N recovery path) or preflight is
    /// `Off` (the user opted out of verification, and uncertified tables
    /// are never installed). When generation or certification fails,
    /// [`PreflightMode::Enforce`] panics at construction; `WarnOnly` runs
    /// without tables, leaving outage diagnosis to the legacy watchdog.
    fn build_degraded(
        cfg: &MachineConfig,
        params: &SimParams,
        quiet: bool,
    ) -> Option<Box<DegradedState>> {
        let schedule = params.fault.as_ref()?;
        if params.preflight == PreflightMode::Off {
            return None;
        }
        let mut windows: Vec<(NodeId, ChanId, u64, u64)> = Vec::new();
        for f in &schedule.faults {
            if let FaultKind::Down {
                from_cycle,
                until_cycle,
            } = f.kind
            {
                if from_cycle < until_cycle {
                    windows.push((f.from, f.chan, from_cycle, until_cycle));
                }
            }
        }
        if windows.is_empty() {
            return None;
        }
        let mut boundaries: Vec<u64> = vec![0];
        for &(_, _, from, until) in &windows {
            boundaries.push(from);
            if until != u64::MAX {
                boundaries.push(until);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        let mut table_sets: Vec<Vec<RouteTable>> = Vec::new();
        let mut set_keys: Vec<Vec<(NodeId, ChanId)>> = Vec::new();
        let mut epochs: Vec<DegradedEpoch> = Vec::new();
        let mut problems: Vec<String> = Vec::new();
        for &b in &boundaries {
            let mut downs = DownLinkSet::empty(cfg.shape);
            for &(n, c, from, until) in &windows {
                if from <= b && b < until {
                    downs.insert(n, c);
                }
            }
            let set = if downs.is_empty() {
                None
            } else {
                let key: Vec<(NodeId, ChanId)> = downs.iter().collect();
                let idx = match set_keys.iter().position(|k| *k == key) {
                    Some(i) => i,
                    None => {
                        let (tables, diags) = anton_verify::build_degraded_tables(cfg, &downs);
                        for d in &diags {
                            if d.severity == anton_verify::Severity::Error {
                                problems.push(d.to_string());
                            }
                        }
                        set_keys.push(key);
                        table_sets.push(tables);
                        table_sets.len() - 1
                    }
                };
                assert!(idx <= usize::from(u8::MAX), "too many distinct down sets");
                Some(idx as u8)
            };
            epochs.push(DegradedEpoch {
                start: b,
                downs,
                set,
            });
        }
        if problems.is_empty() {
            let union: Vec<RouteTable> = table_sets.iter().flatten().cloned().collect();
            let cert = anton_verify::certify_tables(cfg, &union);
            if !cert.acyclic {
                problems.push(format!(
                    "degraded route tables failed deadlock certification \
                     ({} channel-VC nodes, {} edges, dependency cycle found)",
                    cert.nodes, cert.edges
                ));
            }
        }
        if !problems.is_empty() {
            let mut text = String::new();
            for p in &problems {
                text.push_str(&format!("{p}\n"));
            }
            if params.preflight == PreflightMode::Enforce {
                panic!(
                    "cannot install certified reroutes for this fault \
                     schedule:\n{text}set SimParams::preflight to \
                     PreflightMode::WarnOnly to run with the legacy outage \
                     watchdog instead"
                );
            }
            if !quiet {
                for p in &problems {
                    eprintln!("anton-sim degraded routing: {p} (tables not installed)");
                }
            }
            return None;
        }
        Some(Box::new(DegradedState {
            table_sets,
            epochs,
            cur: 0,
        }))
    }

    /// Advances the degradation epoch to the one covering `now`, draining
    /// newly-failed links and waking the serializers of newly-recovered
    /// ones. Runs at the top of [`Sim::step`], before component snapshots,
    /// so same-cycle wakes land in this cycle.
    fn degraded_epoch_tick(&mut self, now: u64) {
        loop {
            let Some(dg) = &self.degraded else { return };
            let next = dg.cur + 1;
            if next >= dg.epochs.len() || dg.epochs[next].start > now {
                return;
            }
            let old = &dg.epochs[dg.cur].downs;
            let new = &dg.epochs[next].downs;
            let onsets: Vec<(NodeId, ChanId)> =
                new.iter().filter(|&(n, c)| !old.contains(n, c)).collect();
            let clears: Vec<(NodeId, ChanId)> =
                old.iter().filter(|&(n, c)| !new.contains(n, c)).collect();
            self.degraded.as_mut().expect("checked above").cur = next;
            for (n, c) in onsets {
                self.down_link_onset(n, c);
            }
            for (n, c) in clears {
                // The link is back up: wake its serializer so the absorbed
                // adapter resumes feeding the torus.
                let cidx = n.0 as usize * NUM_CHAN_ADAPTERS + c.index();
                self.wake(CompRef::Chan(cidx as u32), now);
            }
        }
    }

    /// A link just went `Down`: tear down its go-back-N session, restore
    /// the credits its undelivered flits held, and recover the stranded
    /// packets — unicast traffic reroutes over the epoch's certified table;
    /// multicast copies (which have no table to follow) re-enter the shim,
    /// which re-delivers them once the outage clears.
    fn down_link_onset(&mut self, node: NodeId, chan: ChanId) {
        let cidx = node.0 as usize * NUM_CHAN_ADAPTERS + chan.index();
        let w = self.chans[cidx].torus_out;
        let packets = &self.packets;
        let stranded = self.wires.drain_link(self.now, w, |entry| {
            !matches!(
                packets.get(entry.pkt).route,
                RouteProgress::Unicast { .. } | RouteProgress::Table { .. }
            )
        });
        for entry in stranded {
            self.reroute_packet(node, entry.pkt);
        }
        if self.recorder.is_some() {
            self.drain_link_events();
        }
        self.wake(CompRef::Chan(cidx as u32), self.now);
    }

    /// Ejects a stranded unicast packet from the network at `node` and
    /// queues it for re-injection over the degraded tables, preserving its
    /// original injection cycle and accumulated hop count (so delivery
    /// latency spans the whole journey).
    fn reroute_packet(&mut self, node: NodeId, pid: PacketId) {
        let st = self.packets.remove(pid);
        let slice = match st.route {
            RouteProgress::Unicast { spec, .. } => spec.slice,
            RouteProgress::Table { slice, .. } => slice,
            _ => unreachable!("only unicast traffic reroutes"),
        };
        self.stats.rerouted_packets += 1;
        self.moved = true;
        let eidx = node.0 as usize * self.cfg.endpoints_per_node();
        self.eps[eidx].inject.push_back(InjectCmd::Reroute {
            packet: st.packet,
            slice,
            injected_at: st.injected_at,
            torus_hops: st.torus_hops,
        });
        // `now + 1`: reroutes raised mid-cycle (serializer absorption) land
        // after the endpoint snapshot was taken.
        self.wake(CompRef::Ep(eidx as u32), self.now + 1);
    }

    /// Routing decision for a freshly injected unicast packet: the
    /// randomized oblivious spec on a healthy network, or the current
    /// epoch's certified table when the spec would traverse a link that is
    /// down right now.
    fn routed_unicast(&self, node: NodeId, spec: RouteSpec, dst: GlobalEndpoint) -> RouteProgress {
        if let Some(dg) = &self.degraded {
            let epoch = &dg.epochs[dg.cur];
            if let Some(set) = epoch.set {
                if self.spec_hits_down(node, &spec, &epoch.downs) {
                    return RouteProgress::Table {
                        set,
                        slice: spec.slice,
                        cur: node,
                        dst,
                    };
                }
            }
        }
        RouteProgress::Unicast { spec, dst }
    }

    /// Whether a route spec starting at `node` traverses any down link.
    fn spec_hits_down(&self, node: NodeId, spec: &RouteSpec, downs: &DownLinkSet) -> bool {
        let mut cur = self.cfg.shape.coord(node);
        for dir in spec.hops() {
            let id = self.cfg.shape.id(cur);
            if downs.contains(
                id,
                ChanId {
                    dir,
                    slice: spec.slice,
                },
            ) {
                return true;
            }
            cur = self.cfg.shape.neighbor(cur, dir);
        }
        false
    }

    /// Route for a packet re-entered at `node` during the current epoch.
    /// In a healthy epoch (every outage cleared while the packet waited in
    /// the re-injection queue) there is no installed table; the packet
    /// falls back to a deterministic dimension-ordered spec — every link it
    /// needs is up.
    fn table_route(&self, node: NodeId, slice: Slice, dst: GlobalEndpoint) -> RouteProgress {
        if let Some(dg) = &self.degraded {
            if let Some(set) = dg.epochs[dg.cur].set {
                return RouteProgress::Table {
                    set,
                    slice,
                    cur: node,
                    dst,
                };
            }
        }
        let spec = RouteSpec::deterministic(
            &self.cfg.shape,
            self.cfg.shape.coord(node),
            self.cfg.shape.coord(dst.node),
            DimOrder::XYZ,
            slice,
        );
        RouteProgress::Unicast { spec, dst }
    }

    /// Next torus hop of a table-routed packet (`None` at its destination
    /// node).
    fn table_next_hop(&self, set: u8, slice: Slice, cur: NodeId, dst: NodeId) -> Option<TorusDir> {
        let dg = self
            .degraded
            .as_ref()
            .expect("table packets exist only with degraded state installed");
        dg.table_sets[set as usize][slice.0 as usize].next_hop(cur, dst)
    }

    /// Whether this adapter's outgoing torus link is down in the current
    /// degradation epoch.
    fn link_down_now(&self, cidx: usize) -> bool {
        let Some(dg) = &self.degraded else {
            return false;
        };
        let epoch = &dg.epochs[dg.cur];
        !epoch.downs.is_empty()
            && epoch
                .downs
                .contains(self.chans[cidx].node, self.chans[cidx].chan)
    }

    /// The serializer of a down link absorbs its queue instead of feeding
    /// the dead channel: every rerouteable head is pulled off the adapter's
    /// inbound wire and re-entered at this node over the certified table.
    /// Multicast copies stay queued (they have no table) and resume when
    /// the link comes back.
    fn absorb_at_down_serializer(&mut self, cidx: usize, in_wire: WireId) {
        let now = self.now;
        let node = self.chans[cidx].node;
        for v in 0..self.wires.num_vcs(in_wire) {
            while let Some(entry) = self.wires.ready_head(now, in_wire, v) {
                let pid = entry.pkt;
                if !matches!(
                    self.packets.get(pid).route,
                    RouteProgress::Unicast { .. } | RouteProgress::Table { .. }
                ) {
                    break;
                }
                self.pop_wire(in_wire, v);
                self.reroute_packet(node, pid);
            }
        }
        if self.wires.occupied(in_wire) != 0 {
            if self.stall.is_some() {
                // Whatever is left is parked at a dead serializer: multicast
                // copies (no reroute table) waiting out the outage.
                self.note_stall_all_ready(in_wire, StallCause::DeadLinkDrain, None);
            }
            // Heads still maturing (or multicast copies waiting out the
            // outage): poll again next cycle.
            self.wake(CompRef::Chan(cidx as u32), now + 1);
        }
    }

    fn build_deadlock_report(&mut self) -> DeadlockReport {
        const CAP: usize = 64;
        let mut report = DeadlockReport {
            cycle: self.now,
            live_packets: self.packets.live(),
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
                let active = match f.kind {
                    FaultKind::Down {
                        from_cycle,
                        until_cycle,
                    } => from_cycle <= self.now && self.now < until_cycle,
                    FaultKind::Degraded { .. } => true,
                };
                if active && !report.down_links.contains(&link) {
                    report.down_links.push(link);
                }
            }
        }
        // (wire id, packet) per stalled VC, for the flight-recorder pass.
        let mut stall_sites: Vec<(u32, PacketId)> = Vec::new();
        for wid in 0..self.wires.len() {
            let label = self.wires.label(wid);
            let backlog = self.wires.link_backlog(wid);
            if backlog > 0 {
                report.shim_backlogs.push((label, backlog));
            }
            for vc in 0..self.wires.num_vcs(wid) {
                let Some(entry) = self.wires.ready_head(self.now, wid, vc) else {
                    continue;
                };
                if report.stalled.len() >= CAP {
                    report.truncated += 1;
                    continue;
                }
                let st = self.packets.get(entry.pkt);
                let route = match st.route {
                    RouteProgress::Unicast { spec, dst } => format!(
                        "unicast to n{}:e{}, remaining offsets {:?}",
                        dst.node.0, dst.ep.0, spec.offsets
                    ),
                    RouteProgress::Table {
                        set,
                        slice,
                        cur,
                        dst,
                    } => format!(
                        "table-routed (set {set}) to n{}:e{}, at n{} slice {}",
                        dst.node.0, dst.ep.0, cur.0, slice.0
                    ),
                    RouteProgress::McExit { dir, slice, .. } => {
                        format!("multicast exit {:?} slice {}", dir, slice.0)
                    }
                    RouteProgress::McDeliver { ep, .. } => {
                        format!("multicast delivery to e{}", ep.0)
                    }
                };
                stall_sites.push((wid as u32, entry.pkt));
                report.stalled.push(StalledVc {
                    link: label,
                    vc_index: vc,
                    packet: entry.pkt,
                    flits: entry.flits,
                    injected_at: st.injected_at,
                    route,
                    recent_events: Vec::new(),
                });
            }
        }
        if let Some(rec) = self.recorder.as_mut() {
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
        self.recorder.as_deref()
    }

    /// The sampled kernel-counter time series, when
    /// [`TraceConfig::sample_every`](crate::params::TraceConfig::sample_every)
    /// was non-zero.
    pub fn timeseries(&self) -> Option<&TimeSeries> {
        self.sampler.as_ref().map(|s| &s.ts)
    }

    /// Forces a final (possibly partial) sample window at the current cycle.
    /// Call after a run completes so the tail of the simulation is not lost;
    /// a no-op when sampling is off or a window was just emitted.
    pub fn flush_samples(&mut self) {
        if self.sampler.is_some() {
            self.take_sample(self.now);
        }
    }

    /// Records a flight-recorder event at the current cycle; one branch when
    /// tracing is off.
    #[inline]
    fn record_event(&mut self, track: u32, packet: Option<u64>, kind: TraceEventKind) {
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(track, self.now, packet, kind);
        }
    }

    /// The stall attribution table, when [`TraceConfig::stalls`] was set.
    ///
    /// [`TraceConfig::stalls`]: crate::params::TraceConfig::stalls
    pub fn stall_table(&self) -> Option<&StallTable> {
        self.stall.as_deref()
    }

    /// Closes every open stall segment at the current cycle. Call after a
    /// run completes so stalls still in progress at the end are counted; a
    /// no-op when stall attribution is off.
    pub fn flush_stalls(&mut self) {
        if let Some(st) = self.stall.as_deref_mut() {
            st.flush(self.now);
        }
    }

    /// The derived congestion analysis (ranked hotspots, class totals,
    /// root-blocker trees), when stall attribution is on. Flush first.
    pub fn congestion_report(&self) -> Option<CongestionReport> {
        let table = self.stall.as_deref()?;
        Some(self.congestion_report_from(table))
    }

    /// Builds a congestion report from an explicit stall table with this
    /// replica's wire labels and link classes (the sharded kernel merges
    /// per-shard tables first).
    pub(crate) fn congestion_report_from(&self, table: &StallTable) -> CongestionReport {
        let stats = table
            .stalled_wires()
            .into_iter()
            .map(|w| {
                let label = self.wires.label(w as usize);
                LinkStat {
                    wire: w,
                    label: label.to_string(),
                    class: crate::metrics::LinkClass::of(&label).name().to_string(),
                    cause_cycles: table.wire_cause_cycles(w),
                    vc_cycles: table.wire_vc_cycles(w),
                }
            })
            .collect();
        CongestionReport::build(stats, table.edges(), |w| {
            self.wires.label(w as usize).to_string()
        })
    }

    /// Classifies the head of `(wire, vcidx)` as stalled with `cause` at
    /// the current cycle; one branch when stall attribution is off.
    #[inline]
    fn note_stall(&mut self, wire: WireId, vcidx: u8, cause: StallCause, blocker: Option<WireId>) {
        if let Some(st) = self.stall.as_deref_mut() {
            st.observe(
                wire as u32,
                vcidx,
                cause,
                blocker.map(|b| b as u32),
                self.now,
            );
        }
    }

    /// Classifies every ready head buffered on `wire` as stalled with
    /// `cause` — for whole-component stalls (busy adapter-to-router link,
    /// serializer out of tokens, dead-link drain, a credit-starved copy
    /// ahead on `blocker`) where no per-VC scan runs. Call only with stall
    /// attribution on.
    fn note_stall_all_ready(&mut self, wire: WireId, cause: StallCause, blocker: Option<WireId>) {
        let mut occ = self.wires.occupied(wire);
        while occ != 0 {
            let v = occ.trailing_zeros() as u8;
            occ &= occ - 1;
            if u64::from(self.wires.gate(wire, v).ready) <= self.now {
                self.note_stall(wire, v, cause, blocker);
            }
        }
    }

    /// Why a head that cannot get credits on `blocker` is stalled: behind
    /// a link layer still holding undelivered flits, or plainly out of
    /// buffer space downstream.
    fn credit_stall_cause(&self, blocker: WireId) -> StallCause {
        if self.wires.link_backlog(blocker) > 0 {
            StallCause::RetransmitBacklog
        } else {
            StallCause::NoCredit
        }
    }

    /// Classifies the head of `(wire, vcidx)` as stalled for want of
    /// credits on `blocker`; one branch when stall attribution is off.
    #[inline]
    fn note_credit_stall(&mut self, wire: WireId, vcidx: u8, blocker: WireId) {
        if self.stall.is_some() {
            let cause = self.credit_stall_cause(blocker);
            self.note_stall(wire, vcidx, cause, Some(blocker));
        }
    }

    // ----- routing helpers -------------------------------------------------

    /// The on-chip target (adapter) of a packet at its current node.
    fn chip_target(&self, pid: PacketId) -> LocalAttach {
        let st = self.packets.get(pid);
        match st.route {
            RouteProgress::Unicast { spec, dst } => match spec.next_dir() {
                Some(d) => LocalAttach::Chan(ChanId {
                    dir: d,
                    slice: spec.slice,
                }),
                None => LocalAttach::Endpoint(dst.ep),
            },
            RouteProgress::Table {
                set,
                slice,
                cur,
                dst,
            } => match self.table_next_hop(set, slice, cur, dst.node) {
                Some(d) => LocalAttach::Chan(ChanId { dir: d, slice }),
                None => LocalAttach::Endpoint(dst.ep),
            },
            RouteProgress::McExit { dir, slice, .. } => LocalAttach::Chan(ChanId { dir, slice }),
            RouteProgress::McDeliver { ep, .. } => LocalAttach::Endpoint(ep),
        }
    }

    /// Output port and VC for a packet at a router, derived from its slab
    /// state: the fallback for unstamped (table-routed) entries, and the
    /// reference the stamped route is checked against in debug builds.
    fn route_output(&self, ridx: usize, pid: PacketId) -> (usize, Vc) {
        let st = self.packets.get(pid);
        let code = self.chip_target(pid).code();
        let meta = stamp_meta(st.packet.class, st.vc, st.arrived_via);
        self.route_output_stamped(ridx, code as u8, meta)
    }

    /// Routes from the context the sender stamped into the buffer entry
    /// (see [`BufEntry::target`]), touching no per-packet slab state. The
    /// stamp inputs are stable for the whole chip traversal (a stale stamp
    /// is caught at the fill site in debug builds). The result is cached
    /// in the head's gate record by the switch-allocation loop, so this is
    /// only evaluated once per packet per router.
    #[inline]
    fn route_output_stamped(&self, ridx: usize, target_code: u8, meta: u8) -> (usize, Vc) {
        let (target, target_router) = self.target_of_code[target_code as usize];
        let here = self.routers[ridx].mesh;
        let attach = if here == target_router {
            target
        } else if self.cfg.chip.skip_partner(here) == Some(target_router)
            && matches!(target, LocalAttach::Chan(c) if c.dir.dim == Dim::X)
            && meta & 0x40 != 0
        {
            // X through-traffic bypasses two routers via the skip channel.
            LocalAttach::Skip
        } else {
            let d = self
                .cfg
                .dir_order
                .next_dir(here, target_router)
                .expect("distinct routers need a mesh hop");
            LocalAttach::Mesh(d)
        };
        let port = self.router_port_of[ridx * self.attach_codes + attach.code()];
        debug_assert!(port != 0xFF, "routed attach must be a port");
        let vc = match attach {
            LocalAttach::Mesh(_) | LocalAttach::Endpoint(_) => Vc(meta & 7),
            LocalAttach::Skip | LocalAttach::Chan(_) => Vc((meta >> 3) & 7),
        };
        (port as usize, vc)
    }

    /// Pops the head packet of a wire's VC. Every head advance funnels
    /// through here, so this is the one resolution point for stall
    /// attribution: the pop closes any open stall segment of this (wire,
    /// VC) slot.
    #[inline]
    fn pop_wire(&mut self, wire: WireId, vcidx: u8) -> BufEntry {
        if let Some(st) = self.stall.as_deref_mut() {
            st.resolve(wire as u32, vcidx, self.now);
        }
        self.wires.pop(self.now, wire, vcidx)
    }

    /// Builds a fresh buffer entry for a packet from its slab state (hops
    /// that already hold a buffered copy of the metadata pass it to
    /// [`Sim::send_entry`] directly).
    fn packet_entry(&self, pid: PacketId) -> BufEntry {
        let st = self.packets.get(pid);
        // Stamp the chip-traversal route context while the slab line is
        // hot: the target adapter is fixed until the packet leaves the
        // chip, the VC state changes only at adapters (a staged pending
        // promotion applies the instant this send completes, so stamp the
        // promoted state), and the arrival dimension is set once at torus
        // arrival. Table routes stay unstamped: fault events can swap
        // routing tables while a packet is mid-chip, and each router must
        // observe the table as of its own scan.
        let target = match st.route {
            RouteProgress::Table { .. } => 0xFF,
            _ => {
                let code = self.chip_target(pid).code();
                debug_assert!(code < 0xFF, "attach code overflows stamp");
                code as u8
            }
        };
        BufEntry {
            pkt: pid,
            ready_at: 0,
            age: saturate_cycle(st.injected_at),
            flits: st.flits,
            pattern: st.packet.pattern.0,
            target,
            meta: stamp_meta(
                st.packet.class,
                st.pending_vc.unwrap_or(st.vc),
                st.arrived_via,
            ),
        }
    }

    fn send_entry(&mut self, wire: WireId, entry: BufEntry, vcidx: u8) {
        let flits = entry.flits;
        let pid = entry.pkt;
        if let Some(ready) = self.wires.send(self.now, wire, entry, vcidx) {
            // Filed straight into the receive buffers: wake the consumer
            // for the cycle the head clears the receive pipeline. Any other
            // delivery is reported by a later wires phase.
            self.wake(self.wire_consumer[wire], ready);
        }
        self.moved = true;
        self.stats.flit_hops += u64::from(flits);
        if self.wires.is_torus(wire) {
            self.stats.torus_flits += u64::from(flits);
        }
        if self.record_routes {
            let hop = (self.wires.label(wire), self.wires.vc_of(wire, vcidx));
            if let Some(log) = &mut self.packets.get_mut(pid).route_log {
                log.push(hop);
            }
        }
        self.record_event(
            wire as u32,
            Some(u64::from(pid.0)),
            TraceEventKind::Hop { vc: vcidx, flits },
        );
        if self.recorder.is_some() {
            // A send into a lossy link transmits at once and may log an
            // event stamped `now`, while the wire's next tick can be a link
            // latency away.
            self.drain_link_events();
        }
    }

    fn send_on_wire(&mut self, wire: WireId, pid: PacketId, vcidx: u8) {
        let entry = self.packet_entry(pid);
        self.send_entry(wire, entry, vcidx);
    }

    // ----- endpoint adapters ----------------------------------------------

    fn ep_inject_step(&mut self, eidx: usize) {
        let now = self.now;
        if self.eps[eidx].busy_until > now {
            return;
        }
        // Pending multicast copies first.
        if let Some(&pid) = self.eps[eidx].repl.front() {
            self.try_send_to_router_from_ep(eidx, pid);
            return;
        }
        let Some(cmd) = self.eps[eidx].inject.front().copied() else {
            return;
        };
        let pkt = *cmd.packet();
        let node = self.eps[eidx].node;
        match pkt.dst {
            Destination::Unicast(dst) => {
                // Injection always starts on M-group VC 0; check credits
                // before drawing the randomized route.
                let wire_id = self.eps[eidx].to_router;
                let flits = pkt.num_flits() as u8;
                let vcidx = self.wires.vc_index(wire_id, pkt.class, Vc(0));
                if !self.wires.can_send(wire_id, vcidx, flits) {
                    return;
                }
                let src_c = self.cfg.shape.coord(node);
                let dst_c = self.cfg.shape.coord(dst.node);
                let (route, injected_at, torus_hops, fresh) = match cmd {
                    InjectCmd::WithSpec(_, spec) => {
                        (RouteProgress::Unicast { spec, dst }, now, 0, true)
                    }
                    InjectCmd::Auto(_) => {
                        let spec = RouteSpec::randomized(
                            &self.cfg.shape,
                            src_c,
                            dst_c,
                            &mut self.eps[eidx].rng,
                        );
                        (self.routed_unicast(node, spec, dst), now, 0, true)
                    }
                    InjectCmd::Reroute {
                        slice,
                        injected_at,
                        torus_hops,
                        ..
                    } => (
                        self.table_route(node, slice, dst),
                        injected_at,
                        torus_hops,
                        false,
                    ),
                };
                let on_table = matches!(route, RouteProgress::Table { .. });
                let first_hop = match &route {
                    RouteProgress::Unicast { spec, .. } => spec.next_dir().is_some(),
                    RouteProgress::Table {
                        set, slice, cur, ..
                    } => self.table_next_hop(*set, *slice, *cur, dst.node).is_some(),
                    _ => unreachable!("unicast injection"),
                };
                let mut vc = self.cfg.vc_policy.start();
                if first_hop {
                    vc.begin_dim();
                }
                let pid = self.packets.insert(PacketState {
                    packet: pkt,
                    route,
                    vc,
                    pending_vc: None,
                    arrived_via: None,
                    injected_at,
                    torus_hops,
                    rerouted: !fresh || on_table,
                    flits,
                    route_log: self.record_routes.then(Vec::new),
                });
                self.record_event(
                    wire_id as u32,
                    Some(u64::from(pid.0)),
                    TraceEventKind::Inject,
                );
                let sent = self.try_send_to_router_from_ep(eidx, pid);
                debug_assert!(sent, "credits were checked");
                self.eps[eidx].inject.pop_front();
                if fresh {
                    self.stats.injected_packets += 1;
                    // Drained packets were already counted when pulled off
                    // the dead link; fresh injections steered onto the
                    // tables by the down-link check count here.
                    if on_table {
                        self.stats.rerouted_packets += 1;
                    }
                }
            }
            Destination::Multicast { group, tree } => {
                let copies = self.expand_multicast_at(node, group, tree, None, &pkt, now);
                if self.eps[eidx].repl.len() + copies.len() <= REPL_CAP {
                    self.eps[eidx].inject.pop_front();
                    self.stats.injected_packets += 1;
                    if self.recorder.is_some() {
                        let track = self.eps[eidx].to_router as u32;
                        for pid in &copies {
                            self.record_event(
                                track,
                                Some(u64::from(pid.0)),
                                TraceEventKind::Inject,
                            );
                        }
                    }
                    for pid in copies {
                        self.eps[eidx].repl.push_back(pid);
                    }
                    if let Some(&pid) = self.eps[eidx].repl.front() {
                        self.try_send_to_router_from_ep(eidx, pid);
                    }
                } else {
                    for pid in copies {
                        self.packets.remove(pid);
                    }
                }
            }
        }
    }

    fn try_send_to_router_from_ep(&mut self, eidx: usize, pid: PacketId) -> bool {
        let now = self.now;
        let wire_id = self.eps[eidx].to_router;
        let st = self.packets.get(pid);
        let class = st.packet.class;
        let vc = st.vc.vc_for(LinkGroup::M);
        let flits = st.flits;
        let vcidx = self.wires.vc_index(wire_id, class, vc);
        if !self.wires.can_send(wire_id, vcidx, flits) {
            return false;
        }
        self.send_on_wire(wire_id, pid, vcidx);
        self.eps[eidx].busy_until = now + u64::from(flits);
        if self.eps[eidx].repl.front() == Some(&pid) {
            self.eps[eidx].repl.pop_front();
        }
        // Re-examine the queues once the adapter frees up.
        self.wake(CompRef::Ep(eidx as u32), now + u64::from(flits));
        true
    }

    fn ep_recv_step(&mut self, eidx: usize) {
        let wire_id = self.eps[eidx].from_router;
        let mut mask = self.wires.occupied(wire_id);
        while mask != 0 {
            let v = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            let Some(entry) = self.wires.ready_head(self.now, wire_id, v) else {
                continue;
            };
            let pid = entry.pkt;
            self.pop_wire(wire_id, v);
            self.moved = true;
            self.deliver(eidx, pid);
        }
    }

    fn deliver(&mut self, eidx: usize, pid: PacketId) {
        let now = self.now;
        let st = self.packets.remove(pid);
        let ep = GlobalEndpoint {
            node: self.eps[eidx].node,
            ep: self.eps[eidx].ep,
        };
        self.stats.delivered_packets += 1;
        self.stats.last_delivery_cycle = now;
        self.stats.recv_per_endpoint[eidx] += 1;
        if self.recorder.is_some() {
            let track = self.eps[eidx].from_router as u32;
            self.record_event(track, Some(u64::from(pid.0)), TraceEventKind::Deliver);
        }
        if let Some(cid) = st.packet.counter {
            let counters = &mut self.eps[eidx].counters;
            if let Some(pos) = counters.iter().position(|&(c, _)| c == cid.0) {
                let rem = &mut counters[pos].1;
                *rem = rem.saturating_sub(1);
                if *rem == 0 {
                    counters.swap_remove(pos);
                    let fire = now + self.params.latency.handler_dispatch_cycles();
                    self.handler_heap.push(Reverse((fire, eidx as u32, cid.0)));
                }
            }
        }
        self.deliveries.push(Delivery::Packet(PacketDelivery {
            src: st.packet.src,
            dst: ep,
            pattern: st.packet.pattern.0,
            counter: st.packet.counter,
            injected_at: st.injected_at,
            delivered_at: now,
            torus_hops: st.torus_hops,
            rerouted: st.rerouted,
            route_log: st.route_log,
        }));
    }

    // ----- channel adapters -------------------------------------------------

    fn chan_inbound_step(&mut self, cidx: usize) {
        let now = self.now;
        if self.chans[cidx].to_router_busy_until > now {
            if self.stall.is_some() {
                // Ready arrivals are waiting out a transfer already on the
                // adapter-to-router link.
                let wire_id = self.chans[cidx].torus_in;
                self.note_stall_all_ready(wire_id, StallCause::OutputBusy, None);
            }
            return;
        }
        // Drain pending multicast copies first.
        if let Some(&pid) = self.chans[cidx].repl.front() {
            if self.try_send_chan_to_router(cidx, pid) {
                self.chans[cidx].repl.pop_front();
                if self.stall.is_some() {
                    // The copy took the adapter-to-router link; ready
                    // arrivals behind it wait out the transfer.
                    let wire_id = self.chans[cidx].torus_in;
                    self.note_stall_all_ready(wire_id, StallCause::OutputBusy, None);
                }
            } else if self.stall.is_some() {
                // The copy at the replication queue's head is itself
                // credit-starved, and it holds up every arrival behind it.
                let to_router = self.chans[cidx].to_router;
                let wire_id = self.chans[cidx].torus_in;
                let cause = self.credit_stall_cause(to_router);
                self.note_stall_all_ready(wire_id, cause, Some(to_router));
            }
            return;
        }
        let wire_id = self.chans[cidx].torus_in;
        if self.wires.occupied(wire_id) == 0 {
            return;
        }
        let nvcs = self.wires.num_vcs(wire_id);
        let start = self.chans[cidx].rr_vc_in;
        let to_router = self.chans[cidx].to_router;
        for k in 0..nvcs {
            let v = (start + k) % nvcs;
            if self.wires.occupied(wire_id) >> v & 1 == 0 {
                continue;
            }
            let m = self.wires.gate(wire_id, v);
            if u64::from(m.ready) > now {
                continue;
            }
            // Arrival classification, cached in the head's gate record so
            // blocked heads never touch the packet slab: the adapter owns
            // this wire's rc slots (`0xFE` = unicast/table with the
            // to-router VC index alongside, `0xFD` = multicast exit). The
            // classification and VC are stable while the head is parked —
            // packet VC state only advances when the packet moves.
            let (kind, cvcidx) = if m.rc_port == 0xFF {
                let pid = self.wires.head(wire_id, v).pkt;
                let st = self.packets.get(pid);
                let (kind, cvcidx) = match st.route {
                    RouteProgress::Unicast { .. } | RouteProgress::Table { .. } => {
                        let vc = st.vc.vc_for(LinkGroup::T);
                        (0xFE, self.wires.vc_index(to_router, st.packet.class, vc))
                    }
                    RouteProgress::McExit { .. } => (0xFD, 0),
                    RouteProgress::McDeliver { .. } => {
                        unreachable!("deliver copies never cross torus links")
                    }
                };
                self.wires.cache_route(wire_id, v, kind, cvcidx);
                (kind, cvcidx)
            } else {
                (m.rc_port, m.rc_vcidx)
            };
            if kind == 0xFE {
                if !self.wires.can_send(to_router, cvcidx, m.flits) {
                    self.note_credit_stall(wire_id, v, to_router);
                    continue;
                }
                let pid = self.wires.head(wire_id, v).pkt;
                self.pop_wire(wire_id, v);
                self.moved = true;
                // Entry link uses the arriving T-phase VC; promotion
                // (if the dimension finished) applies past it.
                self.stage_unicast_arrival(pid);
                let sent = self.try_send_chan_to_router(cidx, pid);
                debug_assert!(sent, "send checked above");
                self.chans[cidx].rr_vc_in = (v + 1) % nvcs;
                return;
            }
            {
                let pid = self.wires.head(wire_id, v).pkt;
                let st = self.packets.get(pid);
                let RouteProgress::McExit { group, tree, .. } = st.route else {
                    unreachable!("gate cache says multicast exit")
                };
                let node = self.chans[cidx].node;
                let arrived = st.arrived_via.expect("multicast copy arrived via torus");
                let pkt = st.packet;
                // Peek at the fanout size before committing.
                let fanout = self.mc_fanout(node, group, tree);
                if self.chans[cidx].repl.len() + fanout > REPL_CAP {
                    // The replication queue can't absorb this copy's fanout:
                    // the adapter's output path is occupied by earlier
                    // copies.
                    self.note_stall(wire_id, v, StallCause::OutputBusy, None);
                    continue;
                }
                self.pop_wire(wire_id, v);
                self.moved = true;
                let parent = self.packets.remove(pid);
                let copies = self.expand_multicast_at(
                    node,
                    group,
                    tree,
                    Some((arrived, parent.vc, parent.torus_hops)),
                    &pkt,
                    parent.injected_at,
                );
                for c in copies {
                    self.chans[cidx].repl.push_back(c);
                }
                if let Some(&head) = self.chans[cidx].repl.front() {
                    if self.try_send_chan_to_router(cidx, head) {
                        self.chans[cidx].repl.pop_front();
                    }
                }
                self.wake(CompRef::Chan(cidx as u32), now + 1);
                self.chans[cidx].rr_vc_in = (v + 1) % nvcs;
                return;
            }
        }
    }

    fn try_send_chan_to_router(&mut self, cidx: usize, pid: PacketId) -> bool {
        let now = self.now;
        let st = self.packets.get(pid);
        let wire_id = self.chans[cidx].to_router;
        let vc = st.vc.vc_for(LinkGroup::T);
        let vcidx = self.wires.vc_index(wire_id, st.packet.class, vc);
        let flits = st.flits;
        if !self.wires.can_send(wire_id, vcidx, flits) {
            return false;
        }
        self.send_on_wire(wire_id, pid, vcidx);
        self.chans[cidx].to_router_busy_until = now + u64::from(flits);
        self.wake(CompRef::Chan(cidx as u32), now + u64::from(flits));
        let st = self.packets.get_mut(pid);
        if let Some(promoted) = st.pending_vc.take() {
            let from = st.vc.vc_for(LinkGroup::T).0;
            st.vc = promoted;
            self.record_event(
                wire_id as u32,
                Some(u64::from(pid.0)),
                TraceEventKind::VcPromotion {
                    from,
                    to: promoted.vc_for(LinkGroup::T).0,
                },
            );
        }
        true
    }

    /// Stages the node-entry VC transitions of an arriving unicast packet:
    /// if its dimension finished, the promoted state (out of the T phase,
    /// and into the next dimension if one remains) applies after the entry
    /// link.
    fn stage_unicast_arrival(&mut self, pid: PacketId) {
        let st = self.packets.get(pid);
        let arrived = st
            .arrived_via
            .expect("arrival transition outside torus arrival");
        // For table packets the dimension run ends when the *next* hop (or
        // ejection) departs from the arriving dimension — the same grouping
        // the certifier's witness-route model uses.
        let (dim_done, more) = match &st.route {
            RouteProgress::Unicast { spec, .. } => (
                spec.offsets[arrived.dim.index()] == 0,
                spec.next_dir().is_some(),
            ),
            RouteProgress::Table {
                set,
                slice,
                cur,
                dst,
            } => {
                let next = self.table_next_hop(*set, *slice, *cur, dst.node);
                (next.map(|d| d.dim) != Some(arrived.dim), next.is_some())
            }
            _ => return,
        };
        if dim_done {
            let st = self.packets.get_mut(pid);
            let mut promoted = st.vc;
            promoted.end_dim();
            if more {
                promoted.begin_dim();
            }
            st.pending_vc = Some(promoted);
        }
    }

    fn chan_outbound_step(&mut self, cidx: usize) {
        let now = self.now;
        let gain = i64::from(TORUS_TOKEN_GAIN);
        let cost = i64::from(TORUS_TOKEN_COST);
        // Accumulate bandwidth tokens (lazily, since the adapter sleeps when
        // idle), keeping the fractional remainder so the long-run rate is
        // exactly 14/45 flits per cycle; the cap only bounds idle
        // accumulation (at most one extra closely-spaced flit after idle).
        {
            let c = &mut self.chans[cidx];
            let elapsed = (now - c.tokens_at) as i64;
            c.tokens = (c.tokens + gain * elapsed).min(cost + gain - 1);
            c.tokens_at = now;
        }
        let in_wire = self.chans[cidx].from_router;
        let out_wire = self.chans[cidx].torus_out;
        let crosses = self.chans[cidx].crosses_dateline;
        if self.wires.occupied(in_wire) == 0 {
            return;
        }
        if self.link_down_now(cidx) {
            self.absorb_at_down_serializer(cidx, in_wire);
            return;
        }
        if self.chans[cidx].tokens < cost {
            if self.stall.is_some() {
                // Ready heads wait out the token-bucket refill.
                self.note_stall_all_ready(in_wire, StallCause::SerializerBusy, None);
            }
            // Sleep until the bucket refills.
            let deficit = cost - self.chans[cidx].tokens;
            let refill = (deficit + gain - 1) / gain;
            self.wake(CompRef::Chan(cidx as u32), now + refill as u64);
            return;
        }
        // Gather the requesting VC set as a bitmask — heads that are ready
        // and whose post-dateline torus VC has credits — then let the
        // serializer's VC arbiter pick branchlessly from the mask (with
        // inverse weights installed, this is an EoS arbitration point).
        // The torus-lane index is computed once per head and cached in its
        // gate record (`0xFE` marker; packet VC state is stable while the
        // head is parked), so blocked heads re-gate without slab loads.
        let mut req: u64 = 0;
        let mut occ = self.wires.occupied(in_wire);
        while occ != 0 {
            let v = occ.trailing_zeros() as u8;
            occ &= occ - 1;
            let m = self.wires.gate(in_wire, v);
            if u64::from(m.ready) > now {
                continue;
            }
            let vcidx = if m.rc_port == 0xFF {
                let st = self.packets.get(self.wires.head(in_wire, v).pkt);
                // VC on the torus link after a possible dateline promotion.
                let mut vc_after = st.vc;
                let tvc = vc_after.torus_hop(crosses);
                let vcidx = self.wires.vc_index(out_wire, st.packet.class, tvc);
                self.wires.cache_route(in_wire, v, 0xFE, vcidx);
                vcidx
            } else {
                m.rc_vcidx
            };
            if !self.wires.can_send(out_wire, vcidx, m.flits) {
                self.note_credit_stall(in_wire, v, out_wire);
                continue;
            }
            req |= 1 << v;
        }
        if req == 0 {
            return;
        }
        let v = {
            let (gate, heads) = self.wires.rows(in_wire);
            self.chans[cidx]
                .out_arbiter
                .pick_mask(
                    req,
                    |i| gate[i as usize].pattern,
                    |i| u64::from(heads[i as usize].age),
                )
                .expect("nonempty requests yield a grant") as u8
        };
        self.grants.serializer += 1;
        if self.stall.is_some() {
            // VCs that requested but lost the serializer grant.
            let mut losers = req & !(1 << v);
            while losers != 0 {
                let l = losers.trailing_zeros() as u8;
                losers &= losers - 1;
                self.note_stall(in_wire, l, StallCause::SerializerBusy, None);
            }
        }
        // Re-derive the winner's target lane from its head entry: the
        // packet-state lookups above were gates only, so the per-loser
        // entry/target staging is gone.
        let mut entry = *self.wires.head(in_wire, v);
        // The stamped route context describes the chip being left; the next
        // chip's channel adapter re-stamps on mesh entry.
        entry.target = 0xFF;
        entry.meta &= BufEntry::REPLY;
        let pid = entry.pkt;
        let flits = entry.flits;
        let (vcidx, vc_after) = {
            let st = self.packets.get(pid);
            let mut vc_after = st.vc;
            let tvc = vc_after.torus_hop(crosses);
            (
                self.wires.vc_index(out_wire, st.packet.class, tvc),
                vc_after,
            )
        };
        if self.recorder.is_some() {
            self.record_event(
                out_wire as u32,
                Some(u64::from(pid.0)),
                TraceEventKind::Grant {
                    site: GrantSite::Serializer,
                    requests: req.count_ones() as u8,
                    winner: v,
                },
            );
        }
        self.pop_wire(in_wire, v);
        {
            let dir = self.chans[cidx].chan.dir;
            let next_node = self.chans[cidx].next_node;
            let st = self.packets.get_mut(pid);
            let from_tvc = st.vc.vc_for(LinkGroup::T).0;
            let to_tvc = vc_after.vc_for(LinkGroup::T).0;
            st.vc = vc_after;
            st.torus_hops += 1;
            st.arrived_via = Some(dir);
            match &mut st.route {
                RouteProgress::Unicast { spec, .. } => {
                    spec.take_hop(dir);
                }
                RouteProgress::Table { cur, .. } => *cur = next_node,
                _ => {}
            }
            if crosses && from_tvc != to_tvc {
                self.record_event(
                    out_wire as u32,
                    Some(u64::from(pid.0)),
                    TraceEventKind::VcPromotion {
                        from: from_tvc,
                        to: to_tvc,
                    },
                );
            }
        }
        self.send_entry(out_wire, entry, vcidx);
        self.chans[cidx].tokens -= cost * i64::from(flits);
        // More traffic may be waiting: wake at the next refill.
        let deficit = (cost - self.chans[cidx].tokens).max(gain);
        let refill = (deficit + gain - 1) / gain;
        self.wake(CompRef::Chan(cidx as u32), now + refill as u64);
    }

    // ----- multicast ---------------------------------------------------------

    fn mc_entry(
        &self,
        node: NodeId,
        group: McGroupId,
        tree: u8,
    ) -> &anton_core::multicast::McEntry {
        self.mc_groups
            .get(group.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("unknown multicast group {group}"))
            .trees
            .get(tree as usize)
            .unwrap_or_else(|| panic!("multicast group {group} has no tree {tree}"))
            .entry(node)
            .unwrap_or_else(|| panic!("multicast {group} tree {tree} has no entry at {node}"))
    }

    fn mc_fanout(&self, node: NodeId, group: McGroupId, tree: u8) -> usize {
        let e = self.mc_entry(node, group, tree);
        e.forward.len() + e.local.len()
    }

    /// Creates the multicast copies for `group`/`tree` at `node`.
    ///
    /// `arrival` is `None` at the source endpoint, or the arriving direction
    /// plus inherited state for copies spawned mid-tree. Mid-tree copies
    /// keep the arriving T-phase VC for the entry link; turns and local
    /// deliveries stage their promoted state via `pending_vc`.
    fn expand_multicast_at(
        &mut self,
        node: NodeId,
        group: McGroupId,
        tree: u8,
        arrival: Option<(TorusDir, VcState, u16)>,
        pkt: &Packet,
        injected_at: u64,
    ) -> Vec<PacketId> {
        let entry = self.mc_entry(node, group, tree).clone();
        let slice = self.mc_groups[group.0 as usize]
            .as_ref()
            .expect("group checked by mc_entry")
            .trees[tree as usize]
            .slice;
        let mut out = Vec::with_capacity(entry.forward.len() + entry.local.len());
        let (arrived_via, base_vc, torus_hops) = match arrival {
            Some((dir, vc, hops)) => (Some(dir), vc, hops),
            None => (None, self.cfg.vc_policy.start(), 0),
        };
        for dir in &entry.forward {
            let (vc, pending_vc) = match arrived_via {
                Some(a) if a.dim == dir.dim => {
                    debug_assert_eq!(a, *dir, "tree chains never reverse direction");
                    (base_vc, None)
                }
                Some(_) => {
                    let mut promoted = base_vc;
                    promoted.end_dim();
                    promoted.begin_dim();
                    (base_vc, Some(promoted))
                }
                None => {
                    // Source fanout: begin the dimension immediately (the
                    // injection link's M VC is unaffected).
                    let mut vc = base_vc;
                    vc.begin_dim();
                    (vc, None)
                }
            };
            out.push(self.packets.insert(PacketState {
                packet: *pkt,
                route: RouteProgress::McExit {
                    group,
                    tree,
                    dir: *dir,
                    slice,
                },
                vc,
                pending_vc,
                arrived_via,
                injected_at,
                torus_hops,
                rerouted: false,
                flits: pkt.num_flits() as u8,
                route_log: self.record_routes.then(Vec::new),
            }));
        }
        for ep in &entry.local {
            let (vc, pending_vc) = if arrived_via.is_some() {
                let mut promoted = base_vc;
                promoted.end_dim();
                (base_vc, Some(promoted))
            } else {
                (base_vc, None)
            };
            out.push(self.packets.insert(PacketState {
                packet: *pkt,
                route: RouteProgress::McDeliver { group, ep: *ep },
                vc,
                pending_vc,
                arrived_via,
                injected_at,
                torus_hops,
                rerouted: false,
                flits: pkt.num_flits() as u8,
                route_log: self.record_routes.then(Vec::new),
            }));
        }
        out
    }

    // ----- routers -----------------------------------------------------------

    fn router_step(&mut self, ridx: usize) {
        let now = self.now;
        let nports = usize::from(self.routers[ridx].nports);
        #[derive(Clone, Copy)]
        struct Cand {
            vcidx: u8,
            pid: PacketId,
            out_port: usize,
            out_vcidx: u8,
            flits: u8,
            pattern: u8,
            target: u8,
            meta: u8,
            age: u32,
        }
        let mut cands: [Option<Cand>; MAX_ROUTER_PORTS] = [None; MAX_ROUTER_PORTS];
        // SA2 request bitsets, built once during the SA1 pass: bit `inp` of
        // `out_req[out]` is set when input port `inp`'s SA1 winner wants
        // output `out`. `outs` tracks the non-empty outputs so SA2 walks
        // exactly the contested ports instead of rescanning candidates
        // per output.
        let mut out_req = [0u64; MAX_ROUTER_PORTS];
        let mut outs: u32 = 0;
        let rbase = ridx * MAX_ROUTER_PORTS;
        for (inp, cand) in cands.iter_mut().enumerate().take(nports) {
            let in_wire = self.router_in_wire[rbase + inp] as usize;
            let occupied = self.wires.occupied(in_wire);
            if occupied == 0 {
                continue;
            }
            // SA1: gather the VCs whose heads can proceed into a request
            // bitmask, then let the input port's VC arbiter pick from it
            // (inverse-weighted when programmed). The gates read only the
            // packed gate records; the winner's full entry is loaded after
            // the grant.
            let mut req: u64 = 0;
            let mut occ = occupied;
            while occ != 0 {
                let v = occ.trailing_zeros() as u8;
                occ &= occ - 1;
                let m = self.wires.gate(in_wire, v);
                if u64::from(m.ready) > now {
                    continue;
                }
                let (out_port, out_vcidx, flits) = if m.rc_port == 0xFF {
                    // Route computation: once per packet per router, cached
                    // in the head's gating metadata. Stamped entries route
                    // from their sender-provided context — no packet-slab
                    // load in the hot path.
                    let e = *self.wires.head(in_wire, v);
                    let (out_port, out_vc) = if e.target != 0xFF {
                        let r = self.route_output_stamped(ridx, e.target, e.meta);
                        debug_assert_eq!(
                            r,
                            self.route_output(ridx, e.pkt),
                            "stamped route context diverged from slab route"
                        );
                        r
                    } else {
                        self.route_output(ridx, e.pkt)
                    };
                    let out_wire = self.router_out_wire[rbase + out_port] as usize;
                    let rc_vcidx = self.wires.vc_index(out_wire, e.class(), out_vc);
                    self.wires.cache_route(in_wire, v, out_port as u8, rc_vcidx);
                    (out_port, rc_vcidx, e.flits)
                } else {
                    (m.rc_port as usize, m.rc_vcidx, m.flits)
                };
                if self.router_out_busy[rbase + out_port] > now {
                    self.note_stall(in_wire, v, StallCause::OutputBusy, None);
                    continue;
                }
                let out_wire = self.router_out_wire[rbase + out_port] as usize;
                if !self.wires.can_send(out_wire, out_vcidx, flits) {
                    self.note_credit_stall(in_wire, v, out_wire);
                    continue;
                }
                req |= 1 << v;
            }
            if req == 0 {
                continue;
            }
            // A sole candidate bypasses the arbiter (state untouched),
            // matching the reference model's "no contest, no pick" rule.
            let v = if req & (req - 1) == 0 {
                req.trailing_zeros()
            } else {
                let (gate, heads) = self.wires.rows(in_wire);
                self.router_in_arb[rbase + inp]
                    .pick_mask(
                        req,
                        |i| gate[i as usize].pattern,
                        |i| u64::from(heads[i as usize].age),
                    )
                    .expect("nonempty requests yield a grant")
            } as u8;
            self.grants.sa1 += 1;
            if self.stall.is_some() {
                // VCs that requested but lost the input port's SA1 grant.
                let mut losers = req & !(1 << v);
                while losers != 0 {
                    let l = losers.trailing_zeros() as u8;
                    losers &= losers - 1;
                    self.note_stall(in_wire, l, StallCause::LostSa1, None);
                }
            }
            // Rebuild the winner's candidate from its head and gate (the rc
            // cache above guarantees the route fields are populated).
            let m = self.wires.gate(in_wire, v);
            let e = self.wires.head(in_wire, v);
            let c = Cand {
                vcidx: v,
                pid: e.pkt,
                out_port: m.rc_port as usize,
                out_vcidx: m.rc_vcidx,
                flits: m.flits,
                pattern: m.pattern,
                target: e.target,
                meta: e.meta,
                age: e.age,
            };
            out_req[c.out_port] |= 1 << inp;
            outs |= 1 << c.out_port;
            *cand = Some(c);
            if self.recorder.is_some() {
                self.record_event(
                    in_wire as u32,
                    Some(u64::from(c.pid.0)),
                    TraceEventKind::Grant {
                        site: GrantSite::Sa1,
                        requests: req.count_ones() as u8,
                        winner: c.vcidx,
                    },
                );
            }
        }
        // SA2: walk the contested outputs in ascending order (as the old
        // per-output scan did) and grant one input each from its request
        // bitset. Unlike SA1, the output arbiter always commits — even an
        // uncontested request advances its state.
        while outs != 0 {
            let out = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = out_req[out];
            let inp = {
                let cands_ref = &cands;
                self.router_out_arb[rbase + out]
                    .pick_mask(
                        req,
                        |i| {
                            cands_ref[i as usize]
                                .expect("requesting input has a cand")
                                .pattern
                        },
                        |i| {
                            let c = cands_ref[i as usize].expect("requesting input has a cand");
                            u64::from(c.age)
                        },
                    )
                    .expect("nonempty requests yield a grant") as usize
            };
            self.grants.output += 1;
            if self.stall.is_some() {
                // Input ports whose SA1 winner lost this output's SA2 grant.
                let mut losers = req & !(1 << inp);
                while losers != 0 {
                    let l = losers.trailing_zeros() as usize;
                    losers &= losers - 1;
                    let lc = cands[l].expect("requesting input has a cand");
                    let lw = self.router_in_wire[rbase + l] as usize;
                    self.note_stall(lw, lc.vcidx, StallCause::LostSa2, None);
                }
            }
            let cand = cands[inp].expect("winner came from candidates");
            let in_wire = self.router_in_wire[rbase + inp] as usize;
            let out_wire = self.router_out_wire[rbase + out] as usize;
            if self.recorder.is_some() {
                self.record_event(
                    out_wire as u32,
                    Some(u64::from(cand.pid.0)),
                    TraceEventKind::Grant {
                        site: GrantSite::Output,
                        requests: req.count_ones() as u8,
                        winner: inp as u8,
                    },
                );
            }
            self.pop_wire(in_wire, cand.vcidx);
            self.send_entry(
                out_wire,
                BufEntry {
                    pkt: cand.pid,
                    ready_at: 0,
                    age: cand.age,
                    flits: cand.flits,
                    pattern: cand.pattern,
                    target: cand.target,
                    meta: cand.meta,
                },
                cand.out_vcidx,
            );
            self.router_out_busy[rbase + out] = now + u64::from(cand.flits);
            // The old deadline wake covered both following cycles; with
            // exact-cycle wakes both must be scheduled (other ports may act
            // at `now + 1` while this one is still busy).
            self.wake(CompRef::Router(ridx as u32), now + 1);
            self.wake(CompRef::Router(ridx as u32), now + 2);
            if self.params.track_energy {
                self.record_energy(ridx, out, cand.pid, cand.flits);
            }
        }
    }

    fn record_energy(&mut self, ridx: usize, out: usize, pid: PacketId, flits: u8) {
        let now = self.now;
        let st = self.packets.get(pid);
        let mut words = Vec::with_capacity(flits as usize);
        for j in 0..flits as usize {
            words.push(st.packet.flit_words(j));
        }
        let r = &mut self.routers[ridx];
        let pe = &mut r.port_energy[out];
        // A transfer starting exactly when the previous one ended is
        // back-to-back (no idle cycle): not an activation. The per-set-bit
        // energy of the Section 4.5 model is an *activation* energy, so the
        // activating flit's payload bits are recorded with the activation.
        if now > pe.idle_from {
            r.energy.activations += 1;
            r.energy.set_bits += u64::from(words[0][1].count_ones() + words[0][2].count_ones());
        }
        for w in &words {
            r.energy.flits += 1;
            r.energy.flips += u64::from(anton_core::packet::flit_hamming(&pe.last_words, w));
            pe.last_words = *w;
        }
        pe.idle_from = now + u64::from(flits);
    }
}
