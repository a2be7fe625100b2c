//! What every layer of the simulator acts on.
//!
//! The unified network is one credit-flow-controlled VC switch reused at
//! three kinds of component, and the kernel has one struct per kind (`router`,
//! `adapter`, `endpoint`), each owning its components' private state.
//! Everything they share lives here, in one [`Fabric`]. A layer's `step`
//! takes `&mut Fabric` beside its own `&mut self` and never names another
//! layer; the single cross-layer write — a packet pulled off a failed link
//! re-entering at an endpoint — goes through the [`Fabric::reroutes`] outbox,
//! which the conductor (`Sim`) hands to the endpoints.
//!
//! The probe hooks and the small paths the per-cycle loops call are
//! `#[inline]` and test their guard first, so a hook that is off costs its
//! caller one predictable branch and no call; [`Fabric::send`] is left to the
//! compiler, which keeps it one out-of-line body every layer shares.

use anton_arbiter::GrantSite;
use anton_core::chip::{ChanId, LinkGroup, NUM_CHAN_ADAPTERS};
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::multicast::{McEntry, McGroup, McGroupId};
use anton_core::packet::{flit_hamming, Payload};
use anton_core::route_table::{DownLinkSet, RouteTable};
use anton_core::routing::RouteSpec;
use anton_core::topology::{NodeId, Slice, TorusDir, TorusShape};
use anton_core::vc::VcState;
use anton_fault::{FaultKind, FaultSchedule, ShimEvent};
use anton_obs::{ChannelKind, FlightRecorder, StallCause, StallTable, TimeSeries, TraceEventKind};

use crate::metrics::ArbiterGrantCounts;
use crate::params::{SimParams, TraceConfig};
use crate::sim::{Delivery, EnergyCounters, SimStats};
use crate::state::{ColdState, PacketId, PacketSlab, PacketState, RouteProgress};
use crate::wake::Scheduler;
use crate::wire::{End, WireSpec, Wires};

/// What a layer step reads of the simulator's public configuration. Built
/// by the conductor from [`Sim`](crate::sim::Sim)'s `pub` fields for each
/// step — borrowed beside `&mut` the fabric and the layer, all disjoint
/// fields — so a driver or test that changes one between steps is seen at
/// once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) params: &'a SimParams,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(cfg: &'a MachineConfig, params: &'a SimParams) -> Self {
        Ctx { cfg, params }
    }

    /// The cold record of a packet entering the network with `payload`:
    /// kept only while an instrument reads it — the energy counters its
    /// payload, route recording its log.
    pub(crate) fn cold(&self, payload: Payload) -> Option<ColdState> {
        let trace = &self.params.trace;
        (trace.energy || trace.routes).then(|| ColdState {
            payload,
            route_log: Vec::new(),
        })
    }
}

/// A component, as the wake wheels and the wire-end tables name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompRef {
    Router(u32),
    Chan(u32),
    Ep(u32),
}

/// The exact-cycle wake calendars of the three component kinds (the wires
/// keep their own): a component is processed only on cycles somebody
/// scheduled it for (see [`crate::wake`]).
#[derive(Debug)]
pub(crate) struct Wheels {
    pub(crate) router: Scheduler,
    pub(crate) chan: Scheduler,
    pub(crate) ep: Scheduler,
}

impl Wheels {
    /// Schedules a component for processing at exactly cycle `at`.
    #[inline]
    pub(crate) fn wake(&mut self, c: CompRef, at: u64, now: u64) {
        match c {
            CompRef::Router(i) => self.router.schedule(i as usize, at, now),
            CompRef::Chan(i) => self.chan.schedule(i as usize, at, now),
            CompRef::Ep(i) => self.ep.schedule(i as usize, at, now),
        }
    }
}

/// The one observation seam of the kernel: the flight recorder, the
/// stall-attribution table, the time-series sampler and the energy
/// counters, each present only when its [`TraceConfig`] field is set. Layers
/// never see them: they call the fabric's hooks ([`Fabric::event`],
/// [`Fabric::stall`], [`Fabric::stall_all_ready`], and the ones inside
/// [`Fabric::send`], [`Fabric::pop`] and [`Fabric::grant`])
/// unconditionally, and a hook whose instrument is off is one branch. The
/// conductor closes sample windows ([`Fabric::sample_if_due`]) as each cycle
/// retires. Route recording has no state here: its log rides in each
/// packet's cold record, which [`Fabric::send`] extends.
///
/// One struct rather than one per instrument because the hooks interleave
/// at every site — a grant counts, attributes its losers, records an event
/// and meters a router output; a pop resolves a stall; a send records a hop
/// and drains the link layer's log — and every site feeds either from the
/// same two facts, the cycle and the wire.
#[derive(Debug)]
pub(crate) struct Probe {
    pub(crate) recorder: Option<Box<FlightRecorder>>,
    pub(crate) stall: Option<Box<StallTable>>,
    pub(crate) sampler: Option<Box<SamplerState>>,
    pub(crate) energy: Option<Box<EnergyMeter>>,
}

impl Probe {
    fn new(trace: &TraceConfig, wires: &Wires) -> Probe {
        Probe {
            recorder: trace.events.then(|| {
                let mut rec = FlightRecorder::new(trace.ring_capacity);
                for w in 0..wires.len() {
                    rec.add_track(wires.label(w).to_string());
                }
                Box::new(rec)
            }),
            stall: trace
                .stalls
                .then(|| Box::new(StallTable::new(wires.len(), wires.row_shift()))),
            sampler: (trace.sample_every > 0)
                .then(|| Box::new(SamplerState::new(trace.sample_every))),
            energy: trace
                .energy
                .then(|| Box::new(EnergyMeter::new(wires.len()))),
        }
    }
}

/// The energy counters of Section 4.5: router activity summed over every
/// router of the machine, fed by each output grant.
#[derive(Debug)]
pub(crate) struct EnergyMeter {
    pub(crate) total: EnergyCounters,
    /// Per wire, read only on router output wires: the words of the last
    /// flit the output drove, and the first cycle it is idle after its last
    /// transfer.
    outputs: Vec<([u64; 3], u64)>,
}

impl EnergyMeter {
    fn new(wires: usize) -> EnergyMeter {
        EnergyMeter {
            total: EnergyCounters::default(),
            outputs: vec![([0; 3], 0); wires],
        }
    }

    /// Counts the transfer of packet `pid` onto router output wire `wire`
    /// at `now`. A packet that entered the network with no instrument
    /// keeping its payload is not counted.
    // Out of line: cold paths inlined through the hooks into the
    // conductor's loop grew it and measured slower on the lightly loaded
    // workloads, with every instrument off (DESIGN.md "Layers").
    #[inline(never)]
    fn count(&mut self, wire: usize, packets: &PacketSlab, pid: PacketId, now: u64) {
        let Some(packet) = packets.packet(pid) else {
            return;
        };
        let (last_words, idle_from) = &mut self.outputs[wire];
        let e = &mut self.total;
        let flits = packet.num_flits();
        for j in 0..flits {
            let words = packet.flit_words(j);
            // A transfer starting exactly when the previous one ended is
            // back-to-back (no idle cycle): not an activation. The
            // per-set-bit energy of the Section 4.5 model is an *activation*
            // energy, so the activating flit's payload bits are recorded
            // with the activation.
            if j == 0 && now > *idle_from {
                e.activations += 1;
                e.set_bits += u64::from(words[1].count_ones() + words[2].count_ones());
            }
            e.flits += 1;
            e.flips += u64::from(flit_hamming(last_words, &words));
            *last_words = words;
        }
        *idle_from = now + flits as u64;
    }
}

/// Time-series sampler state: the typed window store plus the next sample
/// cycle, boxed behind one `Option` so the disabled path costs one branch
/// per [`Sim::step`](crate::sim::Sim::step).
#[derive(Debug)]
pub(crate) struct SamplerState {
    pub(crate) ts: TimeSeries,
    every: u64,
    next_at: u64,
    scratch: Vec<u64>,
}

/// How a sampled channel reads its counter.
type Reading = fn(&Fabric) -> u64;

impl SamplerState {
    /// The fixed channels in registration order, each with how it is read;
    /// one `flits_<class>` counter per
    /// [`LinkClass`](crate::metrics::LinkClass) follows, in `LinkClass::ALL`
    /// order.
    const CHANNELS: [(&'static str, ChannelKind, Reading); 8] = [
        ("injected_packets", ChannelKind::Counter, |f| {
            f.stats.injected_packets
        }),
        ("delivered_packets", ChannelKind::Counter, |f| {
            f.stats.delivered_packets
        }),
        ("in_flight_packets", ChannelKind::Gauge, |f| {
            f.packets.live() as u64
        }),
        ("occupied_vcs", ChannelKind::Gauge, |f| {
            f.wires.occupied_vcs()
        }),
        ("shim_backlog_flits", ChannelKind::Gauge, |f| {
            (0..f.wires.len()).map(|w| f.wires.link_backlog(w)).sum()
        }),
        ("grants_sa1", ChannelKind::Counter, |f| f.grants.sa1),
        ("grants_output", ChannelKind::Counter, |f| f.grants.output),
        ("grants_serializer", ChannelKind::Counter, |f| {
            f.grants.serializer
        }),
    ];

    fn new(every: u64) -> SamplerState {
        let mut ts = TimeSeries::new(every);
        for (name, kind, _) in SamplerState::CHANNELS {
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

    /// Snapshots the dense kernel counters as the reading for `cycle`.
    fn record(&mut self, fab: &Fabric, cycle: u64) {
        self.scratch.clear();
        let fixed = SamplerState::CHANNELS.iter();
        self.scratch.extend(fixed.map(|(_, _, read)| read(fab)));
        let mut per_class = [0u64; crate::metrics::LinkClass::ALL.len()];
        for w in 0..fab.wires.len() {
            let class = crate::metrics::LinkClass::of(&fab.wires.label(w));
            per_class[class as usize] += fab.wires.flits_carried(w);
        }
        self.scratch.extend_from_slice(&per_class);
        self.ts.record(cycle, &self.scratch);
    }
}

/// What to book for a head stalled with `cause`, for want of credits on
/// `blocker` if one is named: behind a link layer still holding undelivered
/// flits that is a retransmit backlog, not plain lack of buffer space
/// downstream. Worked out only with stall attribution on.
fn booked(wires: &Wires, cause: StallCause, blocker: Option<usize>) -> (StallCause, Option<u32>) {
    match blocker {
        Some(w) if wires.link_backlog(w) > 0 => (StallCause::RetransmitBacklog, Some(w as u32)),
        _ => (cause, blocker.map(|w| w as u32)),
    }
}

/// One epoch of the degradation timeline: a maximal interval over which the
/// set of down links is constant.
#[derive(Debug, Clone)]
struct DegradedEpoch {
    /// First cycle of the epoch.
    start: u64,
    /// Links down throughout the epoch.
    downs: DownLinkSet,
    /// Index of this epoch's down set, whose tables route while it is
    /// current (`None` when no links are down: healthy randomized spec
    /// routing applies).
    set: Option<usize>,
}

/// Runtime state of fault-aware degraded routing: the epoch timeline of the
/// fault schedule's `Down` windows and the route tables of each distinct
/// down set. The builder derives the timeline ([`DegradedState::timeline`]),
/// certifies the union of every set's tables and only then attaches them
/// ([`DegradedState::with_tables`]) — the simulator never routes over
/// uncertified tables.
#[derive(Debug, Clone)]
pub(crate) struct DegradedState {
    /// One [`RouteTable`] per slice for each down set, set by set in slice
    /// order; epochs with identical down-link sets share a set.
    tables: Vec<RouteTable>,
    /// Epochs in ascending `start` order; `epochs[0].start == 0`.
    epochs: Vec<DegradedEpoch>,
    /// Index of the epoch covering the current cycle.
    cur: usize,
}

impl DegradedState {
    /// The degradation timeline of `schedule`'s `Down` windows, tables not
    /// yet attached, with its distinct non-empty down sets in set-index
    /// order: the run splits into epochs over which the down-link set is
    /// constant. `None` without `Down` windows (BER-only schedules keep the
    /// pure go-back-N recovery path).
    pub(crate) fn timeline(
        shape: TorusShape,
        schedule: &FaultSchedule,
    ) -> Option<(DegradedState, Vec<DownLinkSet>)> {
        let mut windows: Vec<(NodeId, ChanId, u64, u64)> = Vec::new();
        for f in &schedule.faults {
            let FaultKind::Down {
                from_cycle,
                until_cycle,
            } = f.kind;
            if from_cycle < until_cycle {
                windows.push((f.from, f.chan, from_cycle, until_cycle));
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
        let mut sets: Vec<DownLinkSet> = Vec::new();
        let mut epochs: Vec<DegradedEpoch> = Vec::new();
        for &b in &boundaries {
            let mut downs = DownLinkSet::empty(shape);
            for &(n, c, from, until) in &windows {
                if from <= b && b < until {
                    downs.insert(n, c);
                }
            }
            let set = (!downs.is_empty()).then(|| {
                sets.iter().position(|s| *s == downs).unwrap_or_else(|| {
                    sets.push(downs.clone());
                    sets.len() - 1
                })
            });
            epochs.push(DegradedEpoch {
                start: b,
                downs,
                set,
            });
        }
        let timeline = DegradedState {
            tables: Vec::new(),
            epochs,
            cur: 0,
        };
        Some((timeline, sets))
    }

    /// Attaches the certified tables: one per slice for each down set of
    /// the timeline, set by set.
    pub(crate) fn with_tables(self, tables: Vec<RouteTable>) -> DegradedState {
        DegradedState { tables, ..self }
    }
}

/// A unicast packet pulled off a failed link, waiting in the
/// [`Fabric::reroutes`] outbox (and then in an endpoint's injection queue)
/// to re-enter at `node` over the current epoch's certified table. It keeps
/// its state as it left the network — among it the original injection and
/// queueing cycles, so latency accounting and its age span the whole
/// journey, and the hops already taken — and its cold record.
#[derive(Debug)]
pub(crate) struct Reroute {
    pub(crate) node: NodeId,
    /// Where its route was taking it, and on which slice.
    pub(crate) dst: GlobalEndpoint,
    pub(crate) slice: Slice,
    pub(crate) state: PacketState,
    pub(crate) cold: Option<ColdState>,
}

/// The shared state of one simulator instance (see the [module docs](self)).
pub(crate) struct Fabric {
    /// The cycle in progress (between steps: the next one to run).
    pub(crate) now: u64,
    /// Every channel of the machine: state, send / pop / step (see
    /// [`crate::wire`]). Layers read it freely but send through
    /// [`Fabric::send`] and pop through [`Fabric::pop`], which keep the
    /// wakes, counters and probe in step.
    pub(crate) wires: Wires,
    /// Component consuming each wire's arrivals.
    pub(crate) consumer: Vec<CompRef>,
    /// Component receiving each wire's credit returns.
    producer: Vec<CompRef>,
    pub(crate) wheels: Wheels,
    pub(crate) packets: PacketSlab,
    /// Multicast groups, indexed by `McGroupId.0`.
    mc_groups: Vec<Option<McGroup>>,
    /// Fault-aware degraded routing: the epoch timeline and certified
    /// tables of the schedule's `Down` windows. `None` without Down
    /// windows, with preflight off, or when the tables failed the gate.
    degraded: Option<Box<DegradedState>>,
    pub(crate) stats: SimStats,
    pub(crate) grants: ArbiterGrantCounts,
    /// Whether the cycle in progress moved any flit (the watchdog input).
    pub(crate) moved: bool,
    /// Deliveries of the cycles stepped since the run loop last took them.
    pub(crate) deliveries: Vec<Delivery>,
    pub(crate) probe: Probe,
    /// The one cross-layer write: packets the wire and adapter layers pulled
    /// off a failed link, for the endpoints to re-inject. Raised by the
    /// epoch tick (before the endpoint-inject phase) and by a down link's
    /// absorbing serializer (in the adapters phase); the conductor hands
    /// the outbox to the endpoints right after each, in the same cycle.
    pub(crate) reroutes: Vec<Reroute>,
}

impl Fabric {
    /// Builds the shared state over `specs`, with `ends` naming the
    /// consumer and the producer of each wire and `counts` the number of
    /// routers, channel adapters and endpoint adapters.
    pub(crate) fn new(
        specs: Vec<WireSpec>,
        ends: (Vec<CompRef>, Vec<CompRef>),
        counts: [usize; 3],
        params: &SimParams,
        degraded: Option<Box<DegradedState>>,
    ) -> Fabric {
        let (consumer, producer) = ends;
        assert!(
            consumer.len() == specs.len() && producer.len() == specs.len(),
            "every wire has two ends"
        );
        // Lossy-link shims (if any) log retransmissions and frame drops
        // only while a recorder is attached to drain them.
        let wires = Wires::new(specs, params.trace.events);
        let [nrouters, nchans, neps] = counts;
        Fabric {
            now: 0,
            probe: Probe::new(&params.trace, &wires),
            wires,
            consumer,
            producer,
            wheels: Wheels {
                router: Scheduler::new(nrouters),
                chan: Scheduler::new(nchans),
                ep: Scheduler::new(neps),
            },
            packets: PacketSlab::new(),
            mc_groups: Vec::new(),
            degraded,
            stats: SimStats {
                recv_per_endpoint: vec![0; neps],
                ..SimStats::default()
            },
            grants: ArbiterGrantCounts::default(),
            moved: false,
            deliveries: Vec::new(),
            reroutes: Vec::new(),
        }
    }

    /// The wires phase of the cycle in progress: this cycle's credit returns
    /// and arrivals, waking the components they concern. Wakes raised here
    /// are either same-cycle (credits, zero-pipeline arrivals) or future, so
    /// component snapshots taken afterwards see every component this cycle
    /// concerns. Dense sends never appear here at all: their consumer wake
    /// was issued at send time. A credit return wakes its producer only if
    /// the producer was denied credits on that VC — on every return while
    /// stall attribution samples causes (see [`Wires::step`]). Returns
    /// whether the phase did anything.
    pub(crate) fn wires_step(&mut self) -> bool {
        let now = self.now;
        let every_return = self.probe.stall.is_some();
        let (wheels, consumer, producer) = (&mut self.wheels, &self.consumer, &self.producer);
        let packets = &mut self.packets;
        let worked = self
            .wires
            .step(now, every_return, packets, move |w, end, at| {
                let comp = match end {
                    End::Producer => producer[w],
                    End::Consumer => consumer[w],
                };
                wheels.wake(comp, at, now);
            });
        self.drain_link_events();
        worked
    }

    // ----- the probe's hooks ------------------------------------------------

    /// Closes a sample window at `cycle` if the sampler is on and one is
    /// due, and schedules the next.
    #[inline]
    pub(crate) fn sample_if_due(&mut self, cycle: u64) {
        let Some(s) = self.probe.sampler.as_deref_mut() else {
            return;
        };
        if cycle >= s.next_at {
            s.next_at = cycle + s.every;
            self.sample(cycle);
        }
    }

    /// Snapshots the dense counters as the sampler's reading for `cycle`; a
    /// no-op when sampling is off.
    pub(crate) fn sample(&mut self, cycle: u64) {
        if let Some(mut s) = self.probe.sampler.take() {
            s.record(self, cycle);
            self.probe.sampler = Some(s);
        }
    }

    /// Records a flight-recorder event about `pid` on `track` (a wire).
    #[inline]
    pub(crate) fn event(&mut self, track: usize, pid: PacketId, kind: TraceEventKind) {
        if let Some(rec) = self.probe.recorder.as_deref_mut() {
            rec.record(track as u32, self.now, Some(u64::from(pid.0)), kind);
        }
    }

    /// Moves the link-layer events (retransmissions, frame drops) the wire
    /// layer logged into the flight recorder, each on its wire's track.
    /// Called after everything that can log one — the wires phase, a send,
    /// a link drain — so the recorder's order never depends on when ticks
    /// happen. Without a recorder the log stays empty and this is a branch.
    #[inline]
    pub(crate) fn drain_link_events(&mut self) {
        if let Some(rec) = self.probe.recorder.as_deref_mut() {
            for (w, cycle, ev) in self.wires.drain_link_events() {
                let kind = match ev {
                    ShimEvent::Retransmit => TraceEventKind::Retransmit,
                    ShimEvent::DataFrameDropped => TraceEventKind::FrameDrop { ack: false },
                    ShimEvent::AckFrameDropped => TraceEventKind::FrameDrop { ack: true },
                };
                rec.record(w, cycle, None, kind);
            }
        }
    }

    /// Classifies the head of `(wire, vcidx)` as stalled with `cause` — for
    /// want of credits on `blocker`, if one is named.
    #[inline]
    pub(crate) fn stall(
        &mut self,
        wire: usize,
        vcidx: u8,
        cause: StallCause,
        blocker: Option<usize>,
    ) {
        if let Some(st) = self.probe.stall.as_deref_mut() {
            let (cause, blocker) = booked(&self.wires, cause, blocker);
            st.observe(wire as u32, vcidx, cause, blocker, self.now);
        }
    }

    /// Classifies every ready head buffered on `wire` as stalled — for
    /// whole-component stalls (busy adapter-to-router link, serializer out
    /// of tokens, dead-link drain, a credit-starved copy ahead) where no
    /// per-VC scan runs.
    #[inline]
    pub(crate) fn stall_all_ready(
        &mut self,
        wire: usize,
        cause: StallCause,
        blocker: Option<usize>,
    ) {
        if self.probe.stall.is_some() {
            self.observe_all_ready(wire, cause, blocker);
        }
    }

    /// [`Fabric::stall_all_ready`] past its guard, out of line: the scan is
    /// only ever run with attribution on, and inlined at every site it made
    /// the adapter steps that much more code to fetch when they run cold.
    fn observe_all_ready(&mut self, wire: usize, cause: StallCause, blocker: Option<usize>) {
        let st = self.probe.stall.as_deref_mut().expect("guarded by caller");
        let (cause, blocker) = booked(&self.wires, cause, blocker);
        let mut occ = self.wires.occupied(wire);
        while occ != 0 {
            let v = occ.trailing_zeros() as u8;
            occ &= occ - 1;
            if u64::from(self.wires.gate(wire, v).ready) <= self.now {
                st.observe(wire as u32, v, cause, blocker, self.now);
            }
        }
    }

    // ----- send / pop / arbitration ----------------------------------------

    /// Pushes packet `pid` onto `wire`: the one send path, which wakes the
    /// consumer, counts the flit-hops, logs the hop and feeds the probe.
    /// Returns the packet's flits, the cycles the send holds its sender.
    pub(crate) fn send(&mut self, ctx: &Ctx<'_>, wire: usize, pid: PacketId, vcidx: u8) -> u8 {
        let flits = self.packets.get(pid).flits;
        if let Some(ready) = self
            .wires
            .send(self.now, wire, pid, vcidx, &mut self.packets)
        {
            // Filed straight into the receive buffers: wake the consumer
            // for the cycle the head clears the receive pipeline. Any other
            // delivery is reported by a later wires phase.
            self.wheels.wake(self.consumer[wire], ready, self.now);
        }
        self.moved = true;
        self.stats.flit_hops += u64::from(flits);
        if self.wires.is_torus(wire) {
            self.stats.torus_flits += u64::from(flits);
        }
        if ctx.params.trace.routes {
            let hop = (self.wires.label(wire), self.wires.vc_of(wire, vcidx));
            if let Some(cold) = self.packets.cold_mut(pid) {
                cold.route_log.push(hop);
            }
        }
        self.event(wire, pid, TraceEventKind::Hop { vc: vcidx, flits });
        // A send into a lossy link transmits at once and may log an event
        // stamped `now`, while the wire's next tick can be a link latency
        // away.
        self.drain_link_events();
        flits
    }

    /// Sends packet `pid` from an adapter onto its link into the mesh —
    /// `wire`, on the packet's `group` VC — if the link has credits. Returns
    /// the cycle the adapter is held until (the packet's flits); the
    /// adapter wakes for it only if something waits behind the packet.
    pub(crate) fn send_into_mesh(
        &mut self,
        ctx: &Ctx<'_>,
        wire: usize,
        group: LinkGroup,
        pid: PacketId,
    ) -> Option<u64> {
        let st = self.packets.get(pid);
        let flits = st.flits;
        let vcidx = self.wires.vc_index(wire, st.class, st.vc.vc_for(group));
        if !self.wires.credit_gate(wire, vcidx, flits) {
            return None;
        }
        self.send(ctx, wire, pid, vcidx);
        Some(self.now + u64::from(flits))
    }

    /// Pops the head packet of a wire's VC. Every head advance funnels
    /// through here, so this is where the watchdog learns something moved
    /// and the one resolution point for stall attribution: the pop closes
    /// any open stall segment of this (wire, VC) slot.
    #[inline]
    pub(crate) fn pop(&mut self, wire: usize, vcidx: u8) -> PacketId {
        self.moved = true;
        if let Some(st) = self.probe.stall.as_deref_mut() {
            st.resolve(wire as u32, vcidx, self.now);
        }
        self.wires.pop(self.now, wire, vcidx, &mut self.packets)
    }

    /// Gathers the VCs of `in_wire` whose heads can move this cycle into a
    /// request bitmask for an arbiter to pick from: the head is ready, its
    /// output is free and its output VC has credits. A head's route —
    /// `(output port, VC index on the output wire)` — is computed by
    /// `route` once, when the head is first seen, and cached in its gate
    /// record, so a blocked head re-gates from the packed gate alone;
    /// `output` names the wire behind a port, or `None` while the port is
    /// held by an earlier transfer. Heads that cannot move are attributed
    /// their cause; a credit denial marks the output VC starved (see
    /// [`Wires::credit_gate`]).
    #[inline]
    pub(crate) fn gather_requests(
        &mut self,
        in_wire: usize,
        route: impl Fn(&Fabric, PacketId) -> (u8, u8),
        mut output: impl FnMut(u8) -> Option<usize>,
    ) -> u64 {
        let mut req: u64 = 0;
        let mut occ = self.wires.occupied(in_wire);
        while occ != 0 {
            let v = occ.trailing_zeros() as u8;
            occ &= occ - 1;
            let m = self.wires.gate(in_wire, v);
            if u64::from(m.ready) > self.now {
                continue;
            }
            let (port, out_vcidx) = if m.rc_port == 0xFF {
                let (port, out_vcidx) = route(self, self.wires.head(in_wire, v));
                self.wires.cache_route(in_wire, v, port, out_vcidx);
                (port, out_vcidx)
            } else {
                (m.rc_port, m.rc_vcidx)
            };
            match output(port) {
                None => self.stall(in_wire, v, StallCause::OutputBusy, None),
                Some(out) if !self.wires.credit_gate(out, out_vcidx, m.flits) => {
                    self.stall(in_wire, v, StallCause::NoCredit, Some(out));
                }
                Some(_) => req |= 1 << v,
            }
        }
        req
    }

    /// Books the grant an arbiter at `site` just issued to lane `winner` of
    /// the request set `req`: counts it, attributes every other requester
    /// as having lost it (`slot_of` names a lane's `(wire, VC)` slot),
    /// records the grant of `pid` on `track` and, for a router output,
    /// counts the transfer onto `track` for the energy model.
    #[inline]
    pub(crate) fn grant(
        &mut self,
        site: GrantSite,
        track: usize,
        pid: PacketId,
        req: u64,
        winner: u8,
        slot_of: impl Fn(u8) -> (usize, u8),
    ) {
        let (count, lost) = match site {
            GrantSite::Sa1 => (&mut self.grants.sa1, StallCause::LostSa1),
            GrantSite::Output => (&mut self.grants.output, StallCause::LostSa2),
            GrantSite::Serializer => (&mut self.grants.serializer, StallCause::SerializerBusy),
        };
        *count += 1;
        if let Some(st) = self.probe.stall.as_deref_mut() {
            let mut losers = req & !(1 << winner);
            while losers != 0 {
                let (wire, vcidx) = slot_of(losers.trailing_zeros() as u8);
                losers &= losers - 1;
                st.observe(wire as u32, vcidx, lost, None, self.now);
            }
        }
        if let (GrantSite::Output, Some(en)) = (site, self.probe.energy.as_deref_mut()) {
            en.count(track, &self.packets, pid, self.now);
        }
        let requests = req.count_ones() as u8;
        let kind = TraceEventKind::Grant {
            site,
            requests,
            winner,
        };
        self.event(track, pid, kind);
    }

    // ----- routing ----------------------------------------------------------

    /// The degradation epoch covering the current cycle, with degraded
    /// routing installed.
    fn epoch(&self) -> Option<&DegradedEpoch> {
        self.degraded.as_deref().map(|dg| &dg.epochs[dg.cur])
    }

    /// The route spec of a unicast packet entering the network at `node`
    /// for `dst` with the oblivious route `spec`, and whether it was steered
    /// onto the degraded tables: the spec on a healthy network; the current
    /// epoch's certified table route when one is installed and the spec
    /// would traverse a link that is down right now — or whatever the spec,
    /// for a packet re-entering off a failed link (`reentry`). Re-entering
    /// in a healthy epoch (every outage cleared while the packet waited in
    /// the re-injection queue) it keeps its spec: every link it needs is up.
    pub(crate) fn unicast_route(
        &self,
        shape: &TorusShape,
        node: NodeId,
        spec: RouteSpec,
        dst: NodeId,
        reentry: bool,
    ) -> (RouteSpec, bool) {
        if let Some(dg) = self.degraded.as_deref() {
            let epoch = &dg.epochs[dg.cur];
            if let Some(set) = epoch.set {
                if reentry || spec_hits_down(shape, node, &spec, &epoch.downs) {
                    let table = &dg.tables[set * Slice::ALL.len() + usize::from(spec.slice.0)];
                    return (table.route(node, dst), true);
                }
            }
        }
        (spec, false)
    }

    /// Whether the torus link leaving `node` through `chan` is down in the
    /// current degradation epoch.
    pub(crate) fn link_down_now(&self, node: NodeId, chan: ChanId) -> bool {
        self.epoch()
            .is_some_and(|e| !e.downs.is_empty() && e.downs.contains(node, chan))
    }

    /// Ejects a stranded unicast packet from the network at `node` and
    /// queues it, in the [`reroutes`](Fabric::reroutes) outbox, for
    /// re-injection over the degraded tables.
    pub(crate) fn reroute(&mut self, node: NodeId, pid: PacketId) {
        let (state, cold) = self.packets.remove(pid);
        let RouteProgress::Unicast { spec, dst } = state.route else {
            unreachable!("only unicast traffic reroutes")
        };
        self.stats.rerouted_packets += 1;
        // A packet drained out of a torn-down link layer is movement too.
        self.moved = true;
        self.reroutes.push(Reroute {
            node,
            dst,
            slice: spec.slice,
            state,
            cold,
        });
    }

    /// Moves the degradation epoch one step towards the one covering the
    /// cycle in progress, waking the serializers of the links that just
    /// came back (an absorbed adapter resumes feeding the torus) and
    /// returning the links that just went down; `None` once the epoch is
    /// current, or without degraded routing.
    pub(crate) fn advance_epoch(&mut self) -> Option<Vec<(NodeId, ChanId)>> {
        let dg = self.degraded.as_mut()?;
        let next = dg.cur + 1;
        if next >= dg.epochs.len() || dg.epochs[next].start > self.now {
            return None;
        }
        let (old, new) = (&dg.epochs[dg.cur].downs, &dg.epochs[next].downs);
        for (n, c) in old.iter().filter(|&(n, c)| !new.contains(n, c)) {
            let cidx = n.0 as usize * NUM_CHAN_ADAPTERS + c.index();
            self.wheels
                .wake(CompRef::Chan(cidx as u32), self.now, self.now);
        }
        let onsets = new.iter().filter(|&(n, c)| !old.contains(n, c)).collect();
        dg.cur = next;
        Some(onsets)
    }

    // ----- multicast --------------------------------------------------------

    /// Registers a multicast group's tables.
    ///
    /// # Panics
    ///
    /// Panics if the group id is already registered.
    pub(crate) fn add_multicast_group(&mut self, group: McGroup) {
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

    /// The tree `tree` of `group` and its table entry at `node`.
    fn mc_entry(&self, node: NodeId, group: McGroupId, tree: u8) -> (Slice, &McEntry) {
        let tree_ref = self
            .mc_groups
            .get(group.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("unknown multicast group {group}"))
            .trees
            .get(tree as usize)
            .unwrap_or_else(|| panic!("multicast group {group} has no tree {tree}"));
        let entry = tree_ref
            .entry(node)
            .unwrap_or_else(|| panic!("multicast {group} tree {tree} has no entry at {node}"));
        (tree_ref.slice, entry)
    }

    /// The copies multicast `(group, tree)` makes at `node`, as the group's
    /// table entry there names them — forwards first, then local deliveries
    /// — each as its route, the VC state it enters the mesh in and the one
    /// staged for past the entry link. The caller inserts them, each with
    /// the header, cycles and cold record of the packet it copies.
    ///
    /// `arrival` is `None` at the source endpoint, or the arriving direction
    /// and VC state for copies spawned mid-tree. Mid-tree copies keep the
    /// arriving T-phase VC for the entry link; turns and local deliveries
    /// stage their promoted state via `pending_vc`.
    pub(crate) fn multicast_copies(
        &self,
        ctx: &Ctx<'_>,
        node: NodeId,
        (group, tree): (McGroupId, u8),
        arrival: Option<(TorusDir, VcState)>,
    ) -> Vec<(RouteProgress, VcState, Option<VcState>)> {
        let (slice, entry) = self.mc_entry(node, group, tree);
        let (arrived_via, base_vc) = match arrival {
            Some((dir, vc)) => (Some(dir), vc),
            None => (None, ctx.cfg.vc_policy.start()),
        };
        // The VC state a copy enters the mesh in and the one staged for past
        // the entry link, by its next hop: a source fan-out begins its
        // dimension at once (the injection link's M VC is unaffected).
        let staged = |next: Option<TorusDir>| {
            let mut turned = base_vc;
            turned.turn(arrived_via, next);
            match arrived_via {
                None => (turned, None),
                Some(_) => (base_vc, (turned != base_vc).then_some(turned)),
            }
        };
        let forwards = entry.forward.iter().map(|&dir| {
            let route = RouteProgress::McExit {
                group,
                tree,
                dir,
                slice,
            };
            let (vc, pending_vc) = staged(Some(dir));
            (route, vc, pending_vc)
        });
        let locals = entry.local.iter().map(|&ep| {
            let (vc, pending_vc) = staged(None);
            (RouteProgress::McDeliver { group, tree, ep }, vc, pending_vc)
        });
        forwards.chain(locals).collect()
    }
}

/// Whether a route spec starting at `node` traverses any down link.
fn spec_hits_down(shape: &TorusShape, node: NodeId, spec: &RouteSpec, downs: &DownLinkSet) -> bool {
    let slice = spec.slice;
    spec.walk(shape, shape.coord(node))
        .any(|(at, dir)| downs.contains(shape.id(at), ChanId { dir, slice }))
}

/// A conductor in miniature for the layer unit tests: a hand-built
/// [`Fabric`] of a few ideal wires, stepped through the same cycle skeleton
/// [`Sim::step`](crate::sim::Sim::step) uses, so a test drives one layer's
/// production `step` with no machine around it.
#[cfg(test)]
pub(crate) mod testkit {
    use anton_core::chip::{LocalEndpointId, LocalLink};
    use anton_core::trace::GlobalLink;

    use super::*;

    /// An ideal on-chip wire (the `i`-th of the test, for its label) with
    /// `group_vcs` VCs per class, consumed and produced by the named
    /// components.
    pub(crate) fn wire(
        i: u8,
        (latency, rx_pipeline): (u64, u64),
        (group_vcs, depth): (u8, u8),
        consumer: CompRef,
        producer: CompRef,
    ) -> (WireSpec, (CompRef, CompRef)) {
        let label = GlobalLink::Local {
            node: NodeId(0),
            link: LocalLink::EpToRouter(LocalEndpointId(i)),
        };
        let spec = WireSpec::ideal(label, latency, rx_pipeline, group_vcs, depth);
        (spec, (consumer, producer))
    }

    /// A fabric over `wires` with `counts` routers, channel adapters and
    /// endpoint adapters on its wheels and no degraded-routing state.
    pub(crate) fn fabric(
        wires: Vec<(WireSpec, (CompRef, CompRef))>,
        counts: [usize; 3],
        params: &SimParams,
    ) -> Fabric {
        let (specs, ends): (Vec<_>, Vec<_>) = wires.into_iter().unzip();
        let ends = ends.into_iter().unzip();
        let mut fab = Fabric::new(specs, ends, counts, params, None);
        // A wheel starts with every component woken for cycle 0; the tests
        // wake what they mean to step.
        let wheels = &mut fab.wheels;
        for wheel in [&mut wheels.router, &mut wheels.chan, &mut wheels.ep] {
            wheel.begin_cycle(0);
            wheel.end_cycle();
        }
        fab
    }

    /// Opens the cycle `fab.now`, as [`Sim::step`](crate::sim::Sim::step)
    /// does: the wheels turn to it and the wires phase runs. Returns the
    /// components woken for it so far, as `[routers, chans, eps]` in
    /// ascending order.
    pub(crate) fn open_cycle(fab: &mut Fabric) -> [Vec<u32>; 3] {
        let now = fab.now;
        fab.moved = false;
        fab.wheels.router.begin_cycle(now);
        fab.wheels.chan.begin_cycle(now);
        fab.wheels.ep.begin_cycle(now);
        fab.wires_step();
        let mut woken = [Vec::new(), Vec::new(), Vec::new()];
        fab.wheels.router.snapshot_into(&mut woken[0]);
        fab.wheels.chan.snapshot_into(&mut woken[1]);
        fab.wheels.ep.snapshot_into(&mut woken[2]);
        woken
    }

    /// Closes the cycle in progress and moves to the next.
    pub(crate) fn close_cycle(fab: &mut Fabric) {
        fab.wheels.router.end_cycle();
        fab.wheels.chan.end_cycle();
        fab.wheels.ep.end_cycle();
        fab.now += 1;
    }
}
