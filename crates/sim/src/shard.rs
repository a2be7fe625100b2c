//! Sharded parallel execution of the simulation kernel.
//!
//! The repository benchmark is this kernel's one user: it times a sharded
//! batch against the serial one and reads back the merged statistics,
//! metrics, stall table and per-shard phase times. The flight recorder and
//! the time-series sampler are serial-kernel instruments.
//!
//! [`ShardedSim`] partitions the torus into contiguous sub-bricks of nodes
//! (one shard per worker thread) and runs each shard's event-driven wake
//! wheel independently up to a conservative lookahead horizon — the
//! bounded-lag scheme classically built from null messages, except that the
//! lookahead here is *static*: the minimum latency of any torus link
//! crossing a shard boundary ([`TORUS_LINK_CYCLES`], 44 cycles), so no null
//! messages are needed. At each horizon barrier the shards exchange
//! boundary traffic through mutex-striped mailboxes: departed packets
//! travel producer → consumer with their full slab state, and credit
//! returns travel consumer → producer.
//!
//! # Replicas and boundary roles
//!
//! Every shard holds a *full-machine* [`Sim`] replica (identical wire and
//! component arrays, global endpoint indexing); components outside the
//! shard's node range simply stay dormant because only the shard's own
//! sub-driver injects. A torus wire whose producer and consumer nodes land
//! in different shards exists in both replicas with complementary
//! [`BoundaryRole`](crate::wire::BoundaryRole)s: the producer-side copy
//! owns the credits, serialization, and link-layer shim and diverts
//! departed flits into an outbox; the consumer-side copy owns the receive
//! buffers and diverts credit returns back. The per-VC credit balance of
//! such a wire therefore only holds *across* the two replicas, which
//! [`ShardedSim::check_invariants`] verifies.
//!
//! # Determinism
//!
//! Sharded execution is byte-identical to the serial kernel for every
//! shard count. Three mechanisms make that hold:
//!
//! * every endpoint draws route randomization from its own counter-derived
//!   RNG stream ([`anton_core::seed::derive_stream_seed`]), so a draw
//!   depends only on that endpoint's locally-deterministic state;
//! * shards own *contiguous ascending* node ranges, so concatenating
//!   per-cycle delivery logs in shard order reproduces the exact serial
//!   delivery order (the serial kernel emits handler dispatches, then
//!   endpoint receives, both in ascending endpoint order);
//! * global control decisions (driver completion, the deadlock watchdog,
//!   the cycle budget) are replayed cycle-by-cycle on a *control replica*
//!   by the coordinator after each window, in serial order, so a run stops
//!   at exactly the serial cycle.
//!
//! A driver whose [`done`](Driver::done) can trip while packets are still
//! in flight (open-loop load) forces a one-cycle window so the replayed
//! stop decision never lags the workers; closed-loop drivers declare
//! [`ShardableDriver::done_implies_quiescent`] and keep the full horizon,
//! because overrunning a drained network has no observable effect.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::McGroup;
use anton_core::packet::{CounterId, Packet};
use anton_core::timing::TORUS_LINK_CYCLES;
use anton_core::topology::NodeId;
use anton_core::trace::GlobalLink;

use crate::metrics::{ArbiterGrantCounts, Metrics};
use crate::params::{SimParams, TraceConfig};
use crate::sim::{Delivery, Driver, EnergyCounters, RunOutcome, Sim, SimStats};
use crate::state::{ColdState, PacketState};
use crate::wire::BufEntry;

/// Window length used when only one shard exists (no boundary wires limit
/// the lookahead; the window only bounds control-decision latency).
const SOLO_WINDOW: u64 = 1024;

/// A driver that can be decomposed into per-shard sub-drivers.
///
/// [`ShardedSim::run`] splits the driver once at the start of the run: each
/// worker thread drives its shard replica with the returned sub-driver,
/// while the *original* driver only ever observes the control replica — it
/// receives every delivery, in exact serial order, through
/// [`on_delivery`](Driver::on_delivery), and its [`done`](Driver::done)
/// predicate decides completion. Its [`pre_cycle`](Driver::pre_cycle) is
/// never called in sharded mode.
///
/// Contract for implementations:
///
/// * sub-driver `i` must inject **only** from endpoints inside `ranges[i]`
///   (dense endpoint indices), and must inject exactly the packets the
///   undivided driver would inject from those endpoints — per-endpoint RNG
///   streams make this natural;
/// * the original driver's `on_delivery` runs against the control replica,
///   which never simulates: it must not inject or otherwise drive traffic
///   (drivers that inject in response to deliveries, like ping-pong, are
///   not shardable);
/// * `done` may read the delivery stream and [`Sim::stats`], but not
///   live-packet or wire state (the control replica carries none).
pub trait ShardableDriver: Driver {
    /// Splits the driver into one sub-driver per endpoint range.
    fn split(&self, cfg: &MachineConfig, ranges: &[Range<usize>]) -> Vec<Box<dyn Driver + Send>>;

    /// Whether [`done`](Driver::done) returning `true` implies the network
    /// has fully drained (closed-loop workloads). When `false` (the safe
    /// default, right for open-loop load), the sharded kernel shrinks its
    /// sync window to one cycle so the run stops at exactly the serial
    /// cycle with no overrun.
    fn done_implies_quiescent(&self) -> bool {
        false
    }
}

/// How the machine's nodes are partitioned into shards: one contiguous
/// range of node ids per shard, covering all nodes in ascending order.
///
/// Contiguity in *node id* order is what makes the sharded delivery merge
/// trivially deterministic: concatenating per-shard logs in shard order is
/// already ascending endpoint order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    node_ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Partitions `nodes` into `shards` contiguous ranges, as even as
    /// possible (the first `nodes % shards` ranges get one extra node).
    pub fn contiguous(nodes: usize, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "shard plan needs at least one shard");
        assert!(
            shards <= nodes,
            "cannot split {nodes} nodes into {shards} shards"
        );
        let base = nodes / shards;
        let rem = nodes % shards;
        let mut node_ranges = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = base + usize::from(s < rem);
            node_ranges.push(start..start + len);
            start += len;
        }
        ShardPlan { node_ranges }
    }

    /// Builds a plan from explicit ranges, which must be non-empty,
    /// contiguous, and start at node 0.
    pub fn from_node_ranges(node_ranges: Vec<Range<usize>>) -> ShardPlan {
        assert!(
            !node_ranges.is_empty(),
            "shard plan needs at least one range"
        );
        let mut next = 0;
        for r in &node_ranges {
            assert_eq!(r.start, next, "shard ranges must be contiguous");
            assert!(r.end > r.start, "shard ranges must be non-empty");
            next = r.end;
        }
        ShardPlan { node_ranges }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.node_ranges.len()
    }

    /// Total nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.node_ranges.last().map_or(0, |r| r.end)
    }

    /// The dense-endpoint-index range of each shard.
    pub fn endpoint_ranges(&self, eps_per_node: usize) -> Vec<Range<usize>> {
        self.node_ranges
            .iter()
            .map(|r| r.start * eps_per_node..r.end * eps_per_node)
            .collect()
    }

    fn owner_of_node(&self, n: usize) -> usize {
        self.node_ranges
            .iter()
            .position(|r| r.contains(&n))
            .expect("node outside shard plan")
    }
}

/// One shard's view of the plan, passed to `Sim::construct` so boundary
/// wires get their roles marked.
pub(crate) struct ShardAssignment<'a> {
    pub(crate) plan: &'a ShardPlan,
    pub(crate) me: usize,
}

impl ShardAssignment<'_> {
    pub(crate) fn owner(&self, node: NodeId) -> usize {
        self.plan.owner_of_node(node.0 as usize)
    }
}

/// A packet crossing a shard boundary: the buffer entry departing an export
/// wire, stamped with the cycle it clears the consumer's receive pipeline,
/// plus the packet's slab state, hot record and cold, which moves producer →
/// consumer with it.
pub(crate) struct PacketTransfer {
    pub(crate) wire: u32,
    pub(crate) entry: BufEntry,
    pub(crate) vcidx: u8,
    pub(crate) state: PacketState,
    pub(crate) cold: Option<ColdState>,
}

/// A credit return crossing a shard boundary (consumer → producer).
pub(crate) struct CreditTransfer {
    pub(crate) wire: u32,
    pub(crate) at: u64,
    pub(crate) vcidx: u8,
    pub(crate) flits: u8,
}

/// Everything one shard ships to one other shard at a horizon barrier.
#[derive(Default)]
pub(crate) struct ShardMail {
    pub(crate) packets: Vec<PacketTransfer>,
    pub(crate) credits: Vec<CreditTransfer>,
}

/// Per-cycle worker log replayed by the coordinator: the cycle's delivery
/// stream (handlers first, mirroring serial emission order) plus the
/// watchdog inputs.
struct CycleLog {
    dels: Vec<Delivery>,
    /// Number of leading `Delivery::Handler` entries in `dels`.
    handlers: usize,
    moved: bool,
    live: u64,
}

/// One shard's log of a whole sync window.
#[derive(Default)]
struct WindowLog {
    cycles: Vec<CycleLog>,
}

/// The sharded simulation: N full-machine shard replicas stepped by worker
/// threads in bounded-lag sync windows, plus a control replica the
/// coordinator replays global decisions on. See the [module
/// docs](self) for the protocol.
///
/// The driver-facing surface mirrors [`Sim`]: build it (through
/// [`SimBuilder::build_sharded`](crate::builder::SimBuilder::build_sharded),
/// or [`with_plan`](ShardedSim::with_plan) for an explicit partition),
/// optionally [`configure`](ShardedSim::configure) /
/// [`inject`](ShardedSim::inject) / [`set_counter`](ShardedSim::set_counter),
/// then [`run`](ShardedSim::run) with a [`ShardableDriver`] and read the
/// merged statistics, metrics, stall table and phase times.
#[derive(Debug)]
pub struct ShardedSim {
    plan: ShardPlan,
    shards: Vec<Sim>,
    control: Sim,
    /// Shard owning each wire's producing side (intra-node wires: the
    /// node's owner).
    wire_tx_owner: Vec<u32>,
    fault_present: bool,
    end_cycle: u64,
    idle_cycles: u64,
    deadlocked: bool,
    /// Per-shard wall-clock nanoseconds split by worker phase
    /// ([`anton_obs::phase`]), accumulated across [`ShardedSim::run`] calls.
    /// Empty unless the phase profiler is on.
    phase_ns: Vec<[u64; anton_obs::NUM_SHARD_PHASES]>,
}

impl ShardedSim {
    /// Builds a sharded simulation over an explicit [`ShardPlan`].
    ///
    /// The static pre-flight verification runs once (on the control
    /// replica) under the caller's
    /// [`PreflightMode`](crate::params::PreflightMode); shard replicas skip
    /// it.
    pub fn with_plan(cfg: MachineConfig, params: SimParams, plan: ShardPlan) -> ShardedSim {
        assert_eq!(
            plan.num_nodes(),
            cfg.shape.num_nodes(),
            "shard plan does not cover the machine"
        );
        let fault_present = params.fault.is_some();
        // The control replica never steps: it exists for preflight (run
        // once, under the caller's policy), for driver callbacks during
        // replay, and as the keeper of the merged delivery statistics.
        // Tracing and energy counting on it would only waste memory.
        let mut control_params = params.clone();
        control_params.trace = TraceConfig::default();
        control_params.track_energy = false;
        let control = Sim::construct(cfg.clone(), control_params, None);
        // Replicas keep the caller's preflight mode: `Sim::construct` skips
        // the static pre-flight for them (the control replica above ran it
        // once), but the mode still governs whether degraded route tables
        // are built — every replica must reach the serial run's
        // install-or-reject decision.
        let shard_params = params;
        let shards: Vec<Sim> = (0..plan.num_shards())
            .map(|me| {
                Sim::construct(
                    cfg.clone(),
                    shard_params.clone(),
                    Some(&ShardAssignment { plan: &plan, me }),
                )
            })
            .collect();
        let wires = control.wires();
        let wire_tx_owner = (0..wires.len())
            .map(|w| {
                let from = match wires.label(w) {
                    GlobalLink::Torus { from, .. } | GlobalLink::Direct { from, .. } => from,
                    GlobalLink::Local { node, .. } => node,
                };
                plan.owner_of_node(from.0 as usize) as u32
            })
            .collect();
        ShardedSim {
            plan,
            shards,
            control,
            wire_tx_owner,
            fault_present,
            end_cycle: 0,
            idle_cycles: 0,
            deadlocked: false,
            phase_ns: Vec::new(),
        }
    }

    /// Applies a configuration closure to every shard replica (arbiter
    /// weight installation and similar pre-run setup; the closure must be
    /// deterministic and is applied to each replica in shard order).
    pub fn configure(&mut self, mut f: impl FnMut(&mut Sim)) {
        for sh in &mut self.shards {
            f(sh);
        }
    }

    /// Registers a multicast group on every shard replica.
    pub fn add_multicast_group(&mut self, group: McGroup) {
        for sh in &mut self.shards {
            sh.add_multicast_group(group.clone());
        }
    }

    /// Arms a counted-write counter at `ep` (routed to the owning shard).
    pub fn set_counter(&mut self, ep: GlobalEndpoint, counter: CounterId, count: u32) {
        let s = self.plan.owner_of_node(ep.node.0 as usize);
        self.shards[s].set_counter(ep, counter, count);
    }

    /// Queues a packet for injection at `src` (routed to the owning shard).
    pub fn inject(&mut self, src: GlobalEndpoint, packet: Packet) {
        let s = self.plan.owner_of_node(src.node.0 as usize);
        self.shards[s].inject(src, packet);
    }

    /// The cycle the last run ended on (the exact serial end cycle, even
    /// when worker replicas legally overran a drained network by a partial
    /// window).
    pub fn now(&self) -> u64 {
        self.end_cycle
    }

    /// Packets currently live across all shards.
    pub fn live_packets(&self) -> usize {
        self.shards.iter().map(Sim::live_packets).sum()
    }

    /// Per-shard wall-clock nanoseconds split by worker phase
    /// (`compute` / `barrier_wait` / `mailbox` / `merge`, indexed by
    /// [`anton_obs::ShardPhase`]), accumulated across [`run`] calls.
    /// `None` unless the phase profiler was on
    /// ([`TraceConfig::profile`](crate::params::TraceConfig::profile)).
    ///
    /// [`run`]: ShardedSim::run
    pub fn phase_ns(&self) -> Option<&[[u64; anton_obs::NUM_SHARD_PHASES]]> {
        (!self.phase_ns.is_empty()).then_some(self.phase_ns.as_slice())
    }

    /// The per-shard stall-attribution tables summed into one machine-wide
    /// table, when [`TraceConfig::stalls`](crate::params::TraceConfig::stalls)
    /// was on. Each (wire, VC) slot is only ever observed by the one shard
    /// that owns its consuming component, so summation counts every stall
    /// segment exactly once and the result is byte-identical to a serial
    /// run of the same workload.
    pub fn merged_stalls(&self) -> Option<anton_obs::StallTable> {
        let mut parts = self.shards.iter().filter_map(Sim::stall_table);
        let mut merged = parts.next()?.clone();
        for p in parts {
            merged.merge(p);
        }
        Some(merged)
    }

    /// Merged statistics: delivery-side counters come from the control
    /// replica's serial-order replay, injection- and flit-side counters sum
    /// over the shards (each event is counted by exactly one replica).
    pub fn stats(&self) -> SimStats {
        let mut s = self.control.stats().clone();
        for sh in &self.shards {
            let st = sh.stats();
            s.injected_packets += st.injected_packets;
            s.rerouted_packets += st.rerouted_packets;
            s.flit_hops += st.flit_hops;
            s.torus_flits += st.torus_flits;
        }
        s
    }

    /// Merged arbiter grant counts (only a wire's owning shard ever
    /// arbitrates it, so the sum counts every grant once).
    pub fn grant_counts(&self) -> ArbiterGrantCounts {
        let mut g = ArbiterGrantCounts::default();
        for sh in &self.shards {
            let c = sh.grant_counts();
            g.sa1 += c.sa1;
            g.output += c.output;
            g.serializer += c.serializer;
        }
        g
    }

    /// Merged per-router energy counters.
    pub fn router_energy(&self) -> EnergyCounters {
        let mut total = EnergyCounters::default();
        for sh in &self.shards {
            total.add(&sh.router_energy());
        }
        total
    }

    /// Raw flit counts per wire, labeled — each wire read from its
    /// producing-side owner (the replica that counted its traffic).
    pub fn wire_utilizations(&self) -> Vec<(GlobalLink, u64)> {
        (0..self.wire_tx_owner.len())
            .map(|w| {
                let owner = self.shards[self.wire_tx_owner[w] as usize].wires();
                (owner.label(w), owner.flits_carried(w))
            })
            .collect()
    }

    /// Collects the merged typed metrics record. Per boundary wire, the
    /// producing-side replica is authoritative for flits carried and
    /// link-layer shim counters (it runs the send path and the shim);
    /// interior wires live wholly in their owning shard.
    pub fn metrics(&self) -> Metrics {
        Metrics::collect_with(
            self.end_cycle,
            self.stats(),
            self.grant_counts(),
            self.wire_tx_owner.len(),
            |w| self.shards[self.wire_tx_owner[w] as usize].wires(),
        )
    }

    /// Self-checks across the whole sharded machine:
    ///
    /// - every shard's own invariants (packet conservation per slab,
    ///   credit balance on its interior wires, quiescence consistency);
    /// - the **combined** credit balance of every boundary wire: producer
    ///   credits plus producer-accounted flits plus consumer-accounted
    ///   flits must equal the buffer depth on each VC;
    /// - agreement between the control replica's replayed delivery count
    ///   and the sum of per-shard delivery counts.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (s, sh) in self.shards.iter().enumerate() {
            sh.check_invariants()
                .map_err(|e| format!("shard {s}: {e}"))?;
        }
        let parked: Vec<Vec<u8>> = self
            .shards
            .iter()
            .map(|sh| sh.wires().parked_credits())
            .collect();
        for (s, sh) in self.shards.iter().enumerate() {
            let prod = sh.wires();
            for &(w, dest) in sh.export_wire_ids() {
                let wid = w as usize;
                let cons = self.shards[dest as usize].wires();
                let depth = u32::from(prod.depth(wid));
                for vc in 0..usize::from(prod.num_vcs(wid)) {
                    let total = u32::from(prod.credits(wid, vc))
                        + prod.accounted_flits(wid, vc, &parked[s])?
                        + cons.accounted_flits(wid, vc, &parked[dest as usize])?;
                    if total != depth {
                        return Err(format!(
                            "boundary credit balance violated on wire {wid} ({:?}) vc {vc} \
                             between shards {s} and {dest}: accounted {total} != depth {depth}",
                            prod.label(wid)
                        ));
                    }
                }
            }
        }
        let per_shard: u64 = self
            .shards
            .iter()
            .map(|s| s.stats().delivered_packets)
            .sum();
        let replayed = self.control.stats().delivered_packets;
        if per_shard != replayed {
            return Err(format!(
                "delivery replay diverged: shards delivered {per_shard}, \
                 control replayed {replayed}"
            ));
        }
        Ok(())
    }

    /// Runs until the driver completes, deadlock, or the cycle budget
    /// (capped as in [`Sim::run`]), in bounded-lag sync windows across one
    /// worker thread per shard.
    ///
    /// The result — outcome, end cycle, delivery stream seen by `driver`,
    /// statistics, metrics — is byte-identical to
    /// [`Sim::run`] with the undivided driver, for every shard count.
    /// Every exit path audits the sharded invariants and panics with a
    /// diagnostic on violation.
    pub fn run<D: ShardableDriver + ?Sized>(
        &mut self,
        driver: &mut D,
        max_cycles: u64,
    ) -> RunOutcome {
        let nshards = self.plan.num_shards();
        let eps_per_node = self.control.cfg.endpoints_per_node();
        let subs = driver.split(&self.control.cfg, &self.plan.endpoint_ranges(eps_per_node));
        assert_eq!(
            subs.len(),
            nshards,
            "ShardableDriver::split returned {} sub-drivers for {} shards",
            subs.len(),
            nshards
        );
        // Conservative lookahead: one cycle under a fault schedule (the
        // link-layer shim can complete a flit visible to the consumer on
        // the next cycle) or for drivers whose completion can preempt
        // in-flight traffic; otherwise the full boundary link latency.
        let horizon = if !driver.done_implies_quiescent() {
            1
        } else if nshards == 1 {
            SOLO_WINDOW
        } else if self.fault_present {
            1
        } else {
            TORUS_LINK_CYCLES
        };
        let watchdog = self.control.params.watchdog_cycles;
        // The phase profiler honors the same switch as the serial one,
        // `TraceConfig::profile`. Read it from a worker replica — the
        // control replica's trace config is deliberately blanked.
        let profile = self.shards[0].params.trace.profile;
        let t0 = self.shards[0].now();
        let deadline = crate::sim::run_deadline(t0, max_cycles);

        let sims = std::mem::take(&mut self.shards);
        let barrier = Barrier::new(nshards + 1);
        let stop = AtomicBool::new(false);
        let window_end = AtomicU64::new(t0);
        let inboxes: Vec<Mutex<ShardMail>> = (0..nshards)
            .map(|_| Mutex::new(ShardMail::default()))
            .collect();
        let logs: Vec<Mutex<WindowLog>> = (0..nshards)
            .map(|_| Mutex::new(WindowLog::default()))
            .collect();

        let (collected, phases, outcome, end) = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(nshards);
            for (me, (mut sim, mut sub)) in sims.into_iter().zip(subs).enumerate() {
                let barrier = &barrier;
                let stop = &stop;
                let window_end = &window_end;
                let inboxes = &inboxes;
                let logs = &logs;
                handles.push(scope.spawn(move || {
                    // Lock-free phase accounting: the clock lives on this
                    // worker's stack and is only merged after join.
                    let mut clock = anton_obs::PhaseClock::new(profile);
                    loop {
                        barrier.wait();
                        clock.lap(anton_obs::ShardPhase::BarrierWait);
                        if stop.load(Ordering::Acquire) {
                            return (sim, clock.into_ns());
                        }
                        let t_end = window_end.load(Ordering::Acquire);
                        let mut log = WindowLog {
                            cycles: Vec::with_capacity((t_end - sim.now()) as usize),
                        };
                        while sim.now() < t_end {
                            sub.pre_cycle(&mut sim);
                            sim.step();
                            let mut dels = Vec::new();
                            sim.drain_deliveries(&mut dels);
                            for d in &dels {
                                sub.on_delivery(&mut sim, d);
                            }
                            let handlers = dels
                                .iter()
                                .take_while(|d| matches!(d, Delivery::Handler { .. }))
                                .count();
                            log.cycles.push(CycleLog {
                                dels,
                                handlers,
                                moved: sim.moved(),
                                live: sim.live_packets() as u64,
                            });
                        }
                        clock.lap(anton_obs::ShardPhase::Compute);
                        let mut mail: Vec<ShardMail> =
                            (0..inboxes.len()).map(|_| ShardMail::default()).collect();
                        sim.drain_boundary_exports(&mut mail);
                        for (dest, m) in mail.into_iter().enumerate() {
                            if m.packets.is_empty() && m.credits.is_empty() {
                                continue;
                            }
                            let mut inbox = inboxes[dest].lock().unwrap();
                            inbox.packets.extend(m.packets);
                            inbox.credits.extend(m.credits);
                        }
                        *logs[me].lock().unwrap() = log;
                        clock.lap(anton_obs::ShardPhase::Mailbox);
                        barrier.wait();
                        clock.lap(anton_obs::ShardPhase::BarrierWait);
                        // All producers have published; apply this shard's
                        // imports while the coordinator replays the logs.
                        // Stable-sorting by wire id makes the slab insertion
                        // order independent of producer-thread arrival order
                        // (per-wire order is already deterministic).
                        let mut mine = std::mem::take(&mut *inboxes[me].lock().unwrap());
                        mine.packets.sort_by_key(|p| p.wire);
                        mine.credits.sort_by_key(|c| c.wire);
                        for p in mine.packets {
                            sim.apply_packet_import(p);
                        }
                        for c in mine.credits {
                            sim.apply_credit_import(c);
                        }
                        clock.lap(anton_obs::ShardPhase::Merge);
                    }
                }));
            }

            let mut result: Option<(RunOutcome, u64)> = None;
            self.control.set_now(t0);
            if driver.done(&self.control) {
                result = Some((RunOutcome::Completed, t0));
            } else if self.deadlocked {
                result = Some((RunOutcome::Deadlocked, t0));
            } else if t0 >= deadline {
                result = Some((RunOutcome::TimedOut, t0));
            }
            let mut t = t0;
            while result.is_none() {
                // Cap the window so no worker can step past a decision the
                // replay will make: the deadline, and the earliest cycle
                // the global watchdog could possibly trip.
                let t_end = (t + horizon)
                    .min(deadline)
                    .min(t + (watchdog - self.idle_cycles));
                window_end.store(t_end, Ordering::Release);
                barrier.wait();
                barrier.wait();
                let guards: Vec<_> = logs.iter().map(|l| l.lock().unwrap()).collect();
                for (i, v) in (t..t_end).enumerate() {
                    // Replay cycle `v` exactly as the serial kernel emits
                    // it: handler dispatches of every shard in ascending
                    // shard (= endpoint) order, then packet receives
                    // likewise; driver callbacks observe now == v + 1.
                    self.control.set_now(v + 1);
                    for g in &guards {
                        let c = &g.cycles[i];
                        for d in &c.dels[..c.handlers] {
                            self.control.replay_delivery(d);
                            driver.on_delivery(&mut self.control, d);
                        }
                    }
                    for g in &guards {
                        let c = &g.cycles[i];
                        for d in &c.dels[c.handlers..] {
                            self.control.replay_delivery(d);
                            driver.on_delivery(&mut self.control, d);
                        }
                    }
                    if driver.done(&self.control) {
                        result = Some((RunOutcome::Completed, v + 1));
                        break;
                    }
                    let live: u64 = guards.iter().map(|g| g.cycles[i].live).sum();
                    let moved = guards.iter().any(|g| g.cycles[i].moved);
                    if live > 0 && !moved {
                        self.idle_cycles += 1;
                        if self.idle_cycles >= watchdog {
                            self.deadlocked = true;
                            result = Some((RunOutcome::Deadlocked, v + 1));
                            break;
                        }
                    } else {
                        self.idle_cycles = 0;
                    }
                    if v + 1 >= deadline {
                        result = Some((RunOutcome::TimedOut, deadline));
                        break;
                    }
                }
                drop(guards);
                t = t_end;
            }
            stop.store(true, Ordering::Release);
            barrier.wait();
            let (collected, phases): (Vec<Sim>, Vec<[u64; anton_obs::NUM_SHARD_PHASES]>) = handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .unzip();
            let (outcome, end) = result.unwrap();
            (collected, phases, outcome, end)
        });
        self.shards = collected;
        self.end_cycle = end;
        if profile {
            if self.phase_ns.is_empty() {
                self.phase_ns = vec![[0; anton_obs::NUM_SHARD_PHASES]; nshards];
            }
            for (acc, run) in self.phase_ns.iter_mut().zip(&phases) {
                for (a, r) in acc.iter_mut().zip(run) {
                    *a += r;
                }
            }
        }
        // Settle any stall segments still open at the final cycle.
        for sh in &mut self.shards {
            sh.flush_stalls();
        }
        if let Err(msg) = self.check_invariants() {
            panic!("sharded simulation failed self-check at {outcome:?}: {msg}");
        }
        outcome
    }
}
