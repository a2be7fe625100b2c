//! The channel-adapter layer: where a chip's mesh meets the torus.
//!
//! Each adapter has two independent halves. *Inbound*, it takes arrivals off
//! its torus wire in round-robin VC order and enters them into the mesh,
//! replicating multicast copies from the group's table. *Outbound*, a
//! serializer with a token bucket (the effective link bandwidth, 14/45 flits
//! per cycle) and a VC arbiter feeds the torus wire; while the link is down
//! it absorbs its queue instead. [`Adapters`] owns the adapters' private
//! state; the wires, wakes, counters and probe are the [`Fabric`]'s.

use std::collections::VecDeque;

use anton_arbiter::{ArbiterPlan, BitsetArbiter, GrantSite};
use anton_core::chip::{ChanId, LinkGroup};
use anton_core::topology::{NodeId, TorusShape};
use anton_obs::{StallCause, TraceEventKind};

use crate::fabric::{CompRef, Ctx, Fabric};
use crate::params::{TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};
use crate::state::{PacketId, PacketState, RouteProgress};
use crate::wire::BufEntry;

/// Gate-record marker of a head an adapter has classified (adapters own the
/// route-cache slots of the wires they consume): a unicast packet, with the
/// VC index on the adapter's output wire alongside.
const RC_UNICAST: u8 = 0xFE;
/// Gate-record marker of a multicast copy arriving to be replicated.
const RC_MULTICAST: u8 = 0xFD;

/// The four wires of one channel adapter.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChanWires {
    /// From the router into this adapter (outbound direction).
    pub(crate) from_router: usize,
    /// From this adapter into the router (inbound direction).
    pub(crate) to_router: usize,
    /// The torus wire this adapter transmits on.
    pub(crate) torus_out: usize,
    /// The torus wire this adapter receives on.
    pub(crate) torus_in: usize,
}

#[derive(Debug)]
struct ChanState {
    node: NodeId,
    chan: ChanId,
    wires: ChanWires,
    /// Serializer token bucket (gains [`TORUS_TOKEN_GAIN`]/cycle, a flit
    /// costs [`TORUS_TOKEN_COST`]); accrued lazily since `tokens_at`.
    tokens: i64,
    /// Cycle at which `tokens` was last brought up to date.
    tokens_at: u64,
    /// Whether the outgoing torus hop crosses its dimension's dateline — a
    /// static property of the link (Section 2.5).
    crosses_dateline: bool,
    /// Multicast copies awaiting on-chip injection: one arrival's fan-out
    /// at a time (nothing else is taken off the torus wire while it
    /// drains), so the queue is bounded by the largest table entry.
    repl: VecDeque<PacketId>,
    /// VC arbiter of the outbound serializer (per Section 3, every
    /// arbitration point can be inverse-weighted).
    out_arbiter: BitsetArbiter,
    rr_vc_in: u8,
    to_router_busy_until: u64,
}

/// Every channel adapter of one simulator instance (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Adapters {
    chans: Vec<ChanState>,
}

impl Adapters {
    /// An empty layer with room for `n` adapters; [`Adapters::push`] adds
    /// them.
    pub(crate) fn new(n: usize) -> Adapters {
        Adapters {
            chans: Vec::with_capacity(n),
        }
    }

    /// Adds the adapter of `node`'s channel `chan` (in index order: node-
    /// major, [`ChanId::all`] within a node), whose torus wires carry
    /// `torus_lanes` VC indices, with the plan's serializer policy; returns
    /// its index.
    pub(crate) fn push(
        &mut self,
        shape: &TorusShape,
        node: NodeId,
        chan: ChanId,
        wires: ChanWires,
        torus_lanes: usize,
        plan: &ArbiterPlan,
    ) -> usize {
        let coord = shape.coord(node);
        self.chans.push(ChanState {
            node,
            chan,
            wires,
            tokens: i64::from(TORUS_TOKEN_COST),
            tokens_at: 0,
            crosses_dateline: shape.hop_crosses_dateline(coord, chan.dir),
            repl: VecDeque::new(),
            out_arbiter: BitsetArbiter::from_kind(&plan[GrantSite::Serializer].start, torus_lanes),
            rr_vc_in: 0,
            to_router_busy_until: 0,
        });
        self.chans.len() - 1
    }

    /// Whether no adapter holds a multicast copy awaiting injection.
    pub(crate) fn is_idle(&self) -> bool {
        self.chans.iter().all(|c| c.repl.is_empty())
    }

    /// The serializer VC arbiter of adapter `cidx` (`node × 12 + adapter`),
    /// for installing a weight program.
    pub(crate) fn arbiter_mut(&mut self, cidx: usize) -> &mut BitsetArbiter {
        &mut self.chans[cidx].out_arbiter
    }

    /// One wake of adapter `cidx`: the inbound half, then the outbound.
    #[inline]
    pub(crate) fn step(&mut self, cidx: usize, fab: &mut Fabric, ctx: &Ctx<'_>) {
        let c = &mut self.chans[cidx];
        let me = CompRef::Chan(cidx as u32);
        c.inbound_step(me, fab, ctx);
        c.outbound_step(me, fab, ctx);
    }

    /// Adapter `cidx`'s outgoing link just went `Down`: tear down its
    /// go-back-N session, restore the credits its undelivered flits held,
    /// and recover the stranded packets — unicast traffic reroutes over the
    /// epoch's certified table; multicast copies (which have no table to
    /// follow) re-enter the shim, which re-delivers them once the outage
    /// clears.
    pub(crate) fn link_onset(&mut self, cidx: usize, fab: &mut Fabric) {
        let c = &self.chans[cidx];
        let packets = &fab.packets;
        let stranded = fab.wires.drain_link(fab.now, c.wires.torus_out, |entry| {
            !packets.get(entry.pkt).route.is_unicast()
        });
        for entry in stranded {
            fab.reroute(c.node, entry.pkt);
        }
        fab.drain_link_events();
        fab.wheels
            .wake(CompRef::Chan(cidx as u32), fab.now, fab.now);
    }
}

impl ChanState {
    /// Sends `pid` on the adapter-to-router link if it has credits, taking
    /// it off the replication queue if it heads it; the promotion staged
    /// for past the entry link (if any) applies the instant the send
    /// completes.
    fn send_to_router(
        &mut self,
        me: CompRef,
        fab: &mut Fabric,
        ctx: &Ctx<'_>,
        pid: PacketId,
    ) -> bool {
        let wire = self.wires.to_router;
        let Some(until) = fab.send_into_mesh(ctx, wire, LinkGroup::T, pid) else {
            return false;
        };
        self.to_router_busy_until = until;
        if self.repl.front() == Some(&pid) {
            self.repl.pop_front();
        }
        self.wake_after_transfer(me, fab);
        let st = fab.packets.get_mut(pid);
        if let Some(promoted) = st.pending_vc.take() {
            let from = st.vc.vc_for(LinkGroup::T).0;
            st.vc = promoted;
            let to = promoted.vc_for(LinkGroup::T).0;
            fab.event(wire, pid, TraceEventKind::VcPromotion { from, to });
        }
        true
    }

    /// Replaces multicast copy `pid`, just taken off the torus, by the
    /// copies its group's table entry at this node names, and sends the
    /// first into the mesh; the rest wait in the replication queue. Each
    /// copy inherits the parent's header, cycles, hops and arrival, and its
    /// cold record: a recorded route is the whole path from the source.
    fn fan_out(&mut self, me: CompRef, fab: &mut Fabric, ctx: &Ctx<'_>, pid: PacketId) {
        let now = fab.now;
        let (parent, cold) = fab.packets.remove(pid);
        let RouteProgress::McExit { group, tree, .. } = parent.route else {
            unreachable!("classified as a multicast copy")
        };
        let arrived = parent
            .arrived_via
            .expect("multicast copy arrived via torus");
        let arrival = Some((arrived, parent.vc));
        for (route, vc, pending_vc) in fab.multicast_copies(ctx, self.node, (group, tree), arrival)
        {
            let copy = PacketState {
                route,
                vc,
                pending_vc,
                ..parent
            };
            self.repl.push_back(fab.packets.insert(copy, cold.clone()));
        }
        if let Some(&head) = self.repl.front() {
            self.send_to_router(me, fab, ctx, head);
        }
        // The copies' next wake is booked where they can move: the link
        // freeing, or a credit return to a starved VC. Stall attribution
        // also books the cycle the arrivals behind wait out the transfer,
        // so it re-wakes the adapter then, as a router does after a
        // two-flit grant.
        if fab.probe.stall.is_some() {
            fab.wheels.wake(me, now + 1, now);
        }
    }

    /// Whether the adapter holds anything to move: a multicast copy, or a
    /// packet buffered on either wire it consumes. An adapter that holds
    /// nothing schedules no follow-up wake (a transfer's end, a token
    /// refill): whatever comes next wakes it on arrival, and its two halves
    /// share one wake, whose stall observations cover both wires.
    fn holds_work(&self, fab: &Fabric) -> bool {
        !self.repl.is_empty()
            || fab.wires.occupied(self.wires.torus_in) != 0
            || fab.wires.occupied(self.wires.from_router) != 0
    }

    /// Wakes the adapter when the adapter-to-router link frees, if it holds
    /// work. An arrival the link layer files later, inside the transfer,
    /// re-arms this from its own wake.
    fn wake_after_transfer(&self, me: CompRef, fab: &mut Fabric) {
        if self.holds_work(fab) {
            fab.wheels.wake(me, self.to_router_busy_until, fab.now);
        }
    }

    #[inline]
    fn inbound_step(&mut self, me: CompRef, fab: &mut Fabric, ctx: &Ctx<'_>) {
        let now = fab.now;
        let (wire_id, to_router) = (self.wires.torus_in, self.wires.to_router);
        if self.to_router_busy_until > now {
            // Ready arrivals are waiting out a transfer already on the
            // adapter-to-router link.
            fab.stall_all_ready(wire_id, StallCause::OutputBusy, None);
            self.wake_after_transfer(me, fab);
            return;
        }
        // Drain pending multicast copies first.
        if let Some(&pid) = self.repl.front() {
            if self.send_to_router(me, fab, ctx, pid) {
                // The copy took the adapter-to-router link; ready arrivals
                // behind it wait out the transfer.
                fab.stall_all_ready(wire_id, StallCause::OutputBusy, None);
            } else {
                // The copy at the replication queue's head is itself
                // credit-starved, and it holds up every arrival behind it.
                fab.stall_all_ready(wire_id, StallCause::NoCredit, Some(to_router));
            }
            return;
        }
        if fab.wires.occupied(wire_id) == 0 {
            return;
        }
        let nvcs = fab.wires.num_vcs(wire_id);
        let start = self.rr_vc_in;
        for k in 0..nvcs {
            let v = (start + k) % nvcs;
            if fab.wires.occupied(wire_id) >> v & 1 == 0 {
                continue;
            }
            let m = fab.wires.gate(wire_id, v);
            if u64::from(m.ready) > now {
                continue;
            }
            // Arrival classification, cached in the head's gate record so
            // blocked heads never touch the packet slab. The classification
            // and VC are stable while the head is parked — packet VC state
            // only advances when the packet moves.
            let (kind, cvcidx) = if m.rc_port == 0xFF {
                let st = fab.packets.get(fab.wires.head(wire_id, v).pkt);
                let (kind, cvcidx) = match st.route {
                    RouteProgress::Unicast { .. } => {
                        let vc = st.vc.vc_for(LinkGroup::T);
                        let cvcidx = fab.wires.vc_index(to_router, st.class, vc);
                        (RC_UNICAST, cvcidx)
                    }
                    RouteProgress::McExit { .. } => (RC_MULTICAST, 0),
                    RouteProgress::McDeliver { .. } => {
                        unreachable!("deliver copies never cross torus links")
                    }
                };
                fab.wires.cache_route(wire_id, v, kind, cvcidx);
                (kind, cvcidx)
            } else {
                (m.rc_port, m.rc_vcidx)
            };
            if kind == RC_UNICAST {
                if !fab.wires.credit_gate(to_router, cvcidx, m.flits) {
                    fab.stall(wire_id, v, StallCause::NoCredit, Some(to_router));
                    continue;
                }
                let pid = fab.pop(wire_id, v).pkt;
                // Entry link uses the arriving T-phase VC; promotion
                // (if the dimension finished) applies past it.
                stage_unicast_arrival(fab, pid);
                let sent = self.send_to_router(me, fab, ctx, pid);
                debug_assert!(sent, "send checked above");
            } else {
                let pid = fab.pop(wire_id, v).pkt;
                self.fan_out(me, fab, ctx, pid);
            }
            self.rr_vc_in = (v + 1) % nvcs;
            return;
        }
    }

    #[inline]
    fn outbound_step(&mut self, me: CompRef, fab: &mut Fabric, ctx: &Ctx<'_>) {
        let now = fab.now;
        let gain = i64::from(TORUS_TOKEN_GAIN);
        let cost = i64::from(TORUS_TOKEN_COST);
        // Accumulate bandwidth tokens (lazily, since the adapter sleeps when
        // idle), keeping the fractional remainder so the long-run rate is
        // exactly 14/45 flits per cycle; the cap only bounds idle
        // accumulation (at most one extra closely-spaced flit after idle).
        let elapsed = (now - self.tokens_at) as i64;
        self.tokens = (self.tokens + gain * elapsed).min(cost + gain - 1);
        self.tokens_at = now;
        let (in_wire, out_wire) = (self.wires.from_router, self.wires.torus_out);
        let crosses = self.crosses_dateline;
        if fab.wires.occupied(in_wire) == 0 {
            return;
        }
        if fab.link_down_now(self.node, self.chan) {
            self.absorb_at_down_serializer(me, fab);
            return;
        }
        if self.tokens < cost {
            // Ready heads wait out the token-bucket refill.
            fab.stall_all_ready(in_wire, StallCause::SerializerBusy, None);
            // Sleep until the bucket refills.
            let deficit = cost - self.tokens;
            let refill = (deficit + gain - 1) / gain;
            fab.wheels.wake(me, now + refill as u64, now);
            return;
        }
        // The requesting VC set — heads that are ready and whose
        // post-dateline torus VC has credits — from which the serializer's
        // VC arbiter picks branchlessly (with inverse weights installed,
        // this is an EoS arbitration point). The torus-lane index is
        // computed once per head and cached in its gate record (packet VC
        // state is stable while the head is parked), so blocked heads
        // re-gate without slab loads.
        let req = fab.gather_requests(
            in_wire,
            |fab, e| {
                let st = fab.packets.get(e.pkt);
                // VC on the torus link after a possible dateline promotion.
                let mut vc_after = st.vc;
                let tvc = vc_after.torus_hop(crosses);
                let lane = fab.wires.vc_index(out_wire, st.class, tvc);
                (RC_UNICAST, lane)
            },
            |_| Some(out_wire),
        );
        if req == 0 {
            return;
        }
        let v = {
            let wires = &fab.wires;
            self.out_arbiter
                .pick_mask(
                    req,
                    |i| wires.gate(in_wire, i as u8).pattern,
                    |i| u64::from(wires.head(in_wire, i as u8).age),
                )
                .expect("nonempty requests yield a grant") as u8
        };
        // The winner's torus lane, as the gather cached it.
        let lane = fab.wires.gate(in_wire, v).rc_vcidx;
        let mut entry = fab.pop(in_wire, v);
        let pid = entry.pkt;
        fab.grant(GrantSite::Serializer, out_wire, pid, req, v, |l| {
            (in_wire, l)
        });
        // The stamped route context describes the chip being left; the next
        // chip's channel adapter re-stamps on mesh entry.
        entry.target = 0xFF;
        entry.meta &= BufEntry::REPLY;
        let dir = self.chan.dir;
        let st = fab.packets.get_mut(pid);
        let from_tvc = st.vc.vc_for(LinkGroup::T).0;
        let to_tvc = st.vc.torus_hop(crosses).0;
        st.torus_hops += 1;
        st.arrived_via = Some(dir);
        if let RouteProgress::Unicast { spec, .. } = &mut st.route {
            spec.take_hop(dir);
        }
        if crosses && from_tvc != to_tvc {
            let kind = TraceEventKind::VcPromotion {
                from: from_tvc,
                to: to_tvc,
            };
            fab.event(out_wire, pid, kind);
        }
        fab.send(ctx, out_wire, entry, lane);
        self.tokens -= cost * i64::from(entry.flits);
        // Work left: wake at the next refill. Traffic that comes later wakes
        // the adapter on arrival, and the tokens accrue lazily whenever it
        // next steps.
        if self.holds_work(fab) {
            let deficit = (cost - self.tokens).max(gain);
            let refill = (deficit + gain - 1) / gain;
            fab.wheels.wake(me, now + refill as u64, now);
        }
    }

    /// The serializer of a down link absorbs its queue instead of feeding
    /// the dead channel: every rerouteable head is pulled off the adapter's
    /// inbound wire and re-entered at this node over the certified table.
    /// Multicast copies stay queued (they have no table) and resume when
    /// the link comes back.
    fn absorb_at_down_serializer(&mut self, me: CompRef, fab: &mut Fabric) {
        let now = fab.now;
        let in_wire = self.wires.from_router;
        for v in 0..fab.wires.num_vcs(in_wire) {
            while let Some(entry) = fab.wires.ready_head(now, in_wire, v) {
                let pid = entry.pkt;
                if !fab.packets.get(pid).route.is_unicast() {
                    break;
                }
                fab.pop(in_wire, v);
                fab.reroute(self.node, pid);
            }
        }
        if fab.wires.occupied(in_wire) != 0 {
            // Whatever is left is parked at a dead serializer: multicast
            // copies (no reroute table) waiting out the outage, or heads
            // still maturing. Poll again next cycle.
            fab.stall_all_ready(in_wire, StallCause::DeadLinkDrain, None);
            fab.wheels.wake(me, now + 1, now);
        }
    }
}

/// Stages the node-entry VC transitions of an arriving unicast packet: if
/// its dimension finished ([`VcState::turn`](anton_core::vc::VcState::turn):
/// the next hop, or ejection, departs from the arriving dimension — the
/// same as its spec's run reaching zero), the promoted state applies after
/// the entry link.
fn stage_unicast_arrival(fab: &mut Fabric, pid: PacketId) {
    let st = fab.packets.get(pid);
    debug_assert!(st.arrived_via.is_some(), "staged outside a torus arrival");
    let mut promoted = st.vc;
    promoted.turn(st.arrived_via, st.route.next_hop());
    if promoted != st.vc {
        fab.packets.get_mut(pid).pending_vc = Some(promoted);
    }
}

#[cfg(test)]
mod tests {
    use anton_core::chip::LocalEndpointId;
    use anton_core::config::{GlobalEndpoint, MachineConfig};
    use anton_core::multicast::McGroupId;
    use anton_core::packet::{Packet, Payload, MAX_PAYLOAD_BYTES};
    use anton_core::routing::{DimOrder, RouteSpec};
    use anton_core::topology::{Dim, NodeCoord, Sign, Slice, TorusDir};
    use anton_core::vc::Vc;

    use super::*;
    use crate::fabric::testkit;
    use crate::params::{SimParams, ADAPTER_PIPELINE, ROUTER_PIPELINE};

    const WIRES: ChanWires = ChanWires {
        from_router: 0,
        to_router: 1,
        torus_out: 2,
        torus_in: 3,
    };
    const X_PLUS: TorusDir = TorusDir {
        dim: Dim::X,
        sign: Sign::Plus,
    };

    /// One channel adapter — the X− adapter of node (1, 0, 0) of a 4×4×4
    /// machine, so the one an X+ hop from node 0 arrives at, and its own
    /// hops never cross a dateline — with hand-built ideal wires on its
    /// four sides. The test plays the router and both torus neighbours.
    struct Rig {
        cfg: MachineConfig,
        params: SimParams,
        fab: Fabric,
        adapters: Adapters,
    }

    impl Rig {
        fn new() -> Rig {
            Rig::with_arrival_pipeline(ADAPTER_PIPELINE - 1)
        }

        /// The rig with `rx_pipeline` cycles of receive pipeline on the
        /// torus wire the adapter consumes.
        fn with_arrival_pipeline(rx_pipeline: u64) -> Rig {
            let cfg = MachineConfig::new(TorusShape::cube(4));
            let params = SimParams::default();
            let vcs = cfg.vc_policy.num_vcs(LinkGroup::T);
            let (me, other) = (CompRef::Chan(0), CompRef::Ep(0));
            let wires = vec![
                testkit::wire(0, (1, ADAPTER_PIPELINE - 1), (vcs, 8), me, other),
                testkit::wire(1, (1, ROUTER_PIPELINE - 1), (vcs, 8), other, me),
                testkit::wire(2, (1, 0), (vcs, 8), other, me),
                testkit::wire(3, (1, rx_pipeline), (vcs, 8), me, other),
            ];
            let fab = testkit::fabric(wires, [0, 1, 1], &params);
            let node = cfg.shape.id(NodeCoord::new(1, 0, 0));
            let chan = ChanId {
                dir: X_PLUS.opposite(),
                slice: Slice(0),
            };
            let mut adapters = Adapters::new(1);
            let lanes = 2 * usize::from(vcs);
            adapters.push(&cfg.shape, node, chan, WIRES, lanes, &params.arbiter);
            Rig {
                cfg,
                params,
                fab,
                adapters,
            }
        }

        /// Sends `entry` on `wire` through the fabric's one send path.
        fn send(&mut self, wire: usize, entry: BufEntry, vcidx: u8) {
            let ctx = Ctx::new(&self.cfg, &self.params);
            self.fab.send(&ctx, wire, entry, vcidx);
        }

        /// One cycle: opens it, steps the adapter if it was woken, runs
        /// `after` (the test's neighbours), closes it.
        fn cycle(&mut self, after: impl FnOnce(&mut Rig)) {
            if !testkit::open_cycle(&mut self.fab)[1].is_empty() {
                let ctx = Ctx::new(&self.cfg, &self.params);
                self.adapters.step(0, &mut self.fab, &ctx);
            }
            after(self);
            testkit::close_cycle(&mut self.fab);
        }

        /// A multicast copy bound for this adapter's torus link, sent into
        /// the adapter from the router side on VC index `vcidx` if that VC
        /// has room.
        fn feed_outbound(&mut self, vcidx: u8) {
            if !self.fab.wires.can_send(WIRES.from_router, vcidx, 1) {
                return;
            }
            let ep = GlobalEndpoint {
                node: NodeId(0),
                ep: LocalEndpointId(0),
            };
            let route = RouteProgress::McExit {
                group: McGroupId(0),
                tree: 0,
                dir: X_PLUS.opposite(),
                slice: Slice(0),
            };
            let mut vc = self.cfg.vc_policy.start();
            vc.turn(None, Some(X_PLUS.opposite()));
            let packet = Packet::write(ep, ep, Payload::zeros(16));
            let state = PacketState::new(&packet, route, vc, self.fab.now);
            let pid = self.fab.packets.insert(state, None);
            let ctx = Ctx::new(&self.cfg, &self.params);
            let entry = self.fab.packet_entry(pid);
            self.fab.send(&ctx, WIRES.from_router, entry, vcidx);
        }

        /// Pops every ready head of `wire`, as the component at its far end
        /// would, retiring the packets; returns them in VC order.
        fn drain(&mut self, wire: usize) -> Vec<(u8, BufEntry)> {
            let mut out = Vec::new();
            for v in 0..self.fab.wires.num_vcs(wire) {
                if self.fab.wires.ready_head(self.fab.now, wire, v).is_some() {
                    let entry = self.fab.pop(wire, v);
                    out.push((v, entry));
                }
            }
            out
        }
    }

    /// Runs `cycles` cycles under a router side that always has a ready
    /// head on two VCs and a far end that drains at once, appending the
    /// flits the torus wire has carried by the end of each.
    fn saturate(rig: &mut Rig, carried: &mut Vec<u64>, cycles: u64) {
        for _ in 0..cycles {
            rig.cycle(|rig| {
                rig.feed_outbound(0);
                rig.feed_outbound(5);
                for (_, e) in rig.drain(WIRES.torus_out) {
                    rig.fab.packets.remove(e.pkt);
                }
            });
            carried.push(rig.fab.wires.flits_carried(WIRES.torus_out));
        }
    }

    #[test]
    fn the_serializer_sends_exactly_14_flits_every_45_cycles() {
        let mut rig = Rig::new();
        let (gain, cost) = (u64::from(TORUS_TOKEN_GAIN), u64::from(TORUS_TOKEN_COST));
        // Flits on the torus wire by the end of each cycle.
        let mut carried = Vec::new();
        saturate(&mut rig, &mut carried, 20 + 20 * cost);
        for start in 20..20 + cost as usize {
            for periods in [1, 7, 19] {
                let sent = carried[start + periods * cost as usize] - carried[start];
                assert_eq!(sent, periods as u64 * gain, "window at {start}");
            }
        }
        // Left idle, the bucket fills no further than one flit and change,
        // so traffic resuming after an idle spell gets no burst.
        let idle_from = carried.len();
        for _ in 0..500 {
            rig.cycle(|rig| {
                for (_, e) in rig.drain(WIRES.torus_out) {
                    rig.fab.packets.remove(e.pkt);
                }
            });
            carried.push(rig.fab.wires.flits_carried(WIRES.torus_out));
        }
        assert_eq!(
            carried[idle_from + 60],
            carried[idle_from + 499],
            "the queue ran dry"
        );
        let resumed = carried.len();
        saturate(&mut rig, &mut carried, 4 * cost);
        let sends: Vec<usize> = (resumed..carried.len())
            .filter(|&c| carried[c] > carried[c - 1])
            .collect();
        assert_eq!(
            sends[1] - sends[0],
            3,
            "the idle bucket holds one flit and change: the next waits for a refill"
        );
        let window = cost as usize;
        assert!(carried
            .windows(window + 1)
            .all(|w| w[window] - w[0] <= gain + 1));
        let settled = sends[0] + window;
        assert_eq!(carried[settled + window] - carried[settled], gain);
    }

    /// A unicast packet of `bytes` that left node 0 on X+ for endpoint 0 of
    /// `dst`, as it stands while crossing the torus link into this adapter.
    fn arriving(rig: &mut Rig, dst: NodeCoord, bytes: usize) -> PacketId {
        let shape = &rig.cfg.shape;
        let at = |c| GlobalEndpoint {
            node: shape.id(c),
            ep: LocalEndpointId(0),
        };
        let (src, dst_ep) = (at(NodeCoord::new(0, 0, 0)), at(dst));
        let mut spec =
            RouteSpec::deterministic(shape, NodeCoord::new(0, 0, 0), dst, DimOrder::XYZ, Slice(0));
        spec.take_hop(X_PLUS);
        let mut vc = rig.cfg.vc_policy.start();
        vc.turn(None, Some(X_PLUS));
        vc.torus_hop(false);
        let packet = Packet::write(src, dst_ep, Payload::zeros(bytes));
        let route = RouteProgress::Unicast { spec, dst: dst_ep };
        let state = PacketState {
            arrived_via: Some(X_PLUS),
            torus_hops: 1,
            ..PacketState::new(&packet, route, vc, 0)
        };
        rig.fab.packets.insert(state, None)
    }

    #[test]
    fn inbound_takes_vcs_in_turn_and_promotes_past_the_entry_link() {
        let mut rig = Rig::new();
        // Two packets on torus VC 1 and one on VC 2, all ready together;
        // each turns from X into Y at this node, so its X dimension is done.
        let turn = NodeCoord::new(1, 1, 0);
        let [a, c, b] = [1, 1, 2].map(|vcidx| {
            let pid = arriving(&mut rig, turn, 16);
            // Straight onto the wire: the far serializer's send carries no
            // chip stamp (it is re-stamped here, on mesh entry).
            let entry = BufEntry {
                pkt: pid,
                flits: 1,
                ..BufEntry::EMPTY
            };
            rig.send(WIRES.torus_in, entry, vcidx);
            pid
        });
        let mut entered = Vec::new();
        for _ in 0..12 {
            rig.cycle(|rig| entered.extend(rig.drain(WIRES.to_router)));
        }
        // The pointer moved past VC 1 after serving it: `b` on VC 2 goes
        // before the second packet of VC 1.
        let order: Vec<PacketId> = entered.iter().map(|(_, e)| e.pkt).collect();
        assert_eq!(order, [a, b, c]);
        for (vcidx, e) in entered {
            // The entry link was crossed on the arriving T-phase VC...
            let arriving_vc = rig.fab.wires.vc_index(WIRES.to_router, e.class(), Vc(0));
            assert_eq!(vcidx, arriving_vc);
            // ...and the promoted state — out of X (M VC 1), into Y (T VC
            // 1) — holds from the router on: in the stamp and in the slab.
            assert_eq!((e.meta & 7, e.meta >> 3 & 7), (1, 1));
            let st = rig.fab.packets.get(e.pkt);
            assert_eq!(st.pending_vc, None);
            assert_eq!(
                (st.vc.vc_for(LinkGroup::M), st.vc.vc_for(LinkGroup::T)),
                (Vc(1), Vc(1))
            );
        }
    }

    #[test]
    fn an_arrival_filed_inside_a_transfer_goes_out_when_the_link_frees() {
        // No receive pipeline on the torus wire: like a shard import, filed
        // after the transfer began, the arrival reads ready while the
        // transfer still holds the adapter-to-router link, and the wake it
        // brings must be carried to the link's free cycle.
        let mut rig = Rig::with_arrival_pipeline(0);
        let dst = NodeCoord::new(1, 1, 0);
        let (two, one) = (
            arriving(&mut rig, dst, MAX_PAYLOAD_BYTES),
            arriving(&mut rig, dst, 16),
        );
        let entry = |pkt, flits| BufEntry {
            pkt,
            flits,
            ..BufEntry::EMPTY
        };
        // Ready at 2, it holds the link for cycles 2 and 3; the adapter then
        // holds nothing, so it schedules no wake of its own.
        rig.send(WIRES.torus_in, entry(two, 2), 1);
        let mut carried = Vec::new();
        for _ in 0..8 {
            rig.cycle(|rig| {
                if rig.fab.now == 2 {
                    rig.send(WIRES.torus_in, entry(one, 1), 2);
                }
            });
            carried.push(rig.fab.wires.flits_carried(WIRES.to_router));
        }
        // Ready at 3 inside the transfer; out at 4, when the link frees.
        assert_eq!(carried, [0, 0, 2, 2, 3, 3, 3, 3]);
    }
}
