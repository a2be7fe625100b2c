//! The endpoint-adapter layer: where packets enter and leave the network.
//!
//! An endpoint adapter serves two of a cycle's five phases from the one
//! snapshot of woken endpoints: *inject* (phase 1) moves the head of its
//! software queue, or the next copy of a multicast it is fanning out, onto
//! its link into the mesh; *receive* (phase 4) drains its link from the
//! mesh and counts counted writes down. [`Endpoints`] owns the adapters'
//! private state and the handler heap; the rest is the [`Fabric`]'s.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::SeedableRng;

use anton_core::chip::{LinkGroup, LocalEndpointId};
use anton_core::config::GlobalEndpoint;
use anton_core::packet::{CounterId, Destination, Packet};
use anton_core::routing::{DimOrder, RouteSpec};
use anton_core::timing::HANDLER_DISPATCH_CYCLES;
use anton_core::topology::NodeId;
use anton_core::vc::Vc;
use anton_obs::TraceEventKind;

use crate::fabric::{CompRef, Ctx, Fabric, Reroute};
use crate::sim::{Delivery, PacketDelivery};
use crate::state::{ColdState, PacketId, PacketState, RouteProgress};
use crate::wire::saturate_cycle;

#[derive(Debug)]
struct EpState {
    node: NodeId,
    ep: LocalEndpointId,
    to_router: usize,
    from_router: usize,
    inject: VecDeque<InjectCmd>,
    /// Copies of the multicast being fanned out, awaiting injection: one
    /// packet's fan-out at a time (the software queue waits while it
    /// drains), so the queue is bounded by the largest table entry.
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

/// A queued injection: a fresh packet on a randomized oblivious route,
/// carrying the cycle it was queued, or a fault-time re-entry over the
/// installed degraded tables — boxed, since it carries the packet's whole
/// state and is rare.
#[derive(Debug)]
enum InjectCmd {
    Auto(Packet, u64),
    Reroute(Box<Reroute>),
}

/// Every endpoint adapter of one simulator instance (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Endpoints {
    eps: Vec<EpState>,
    /// Software handlers due to fire, as `(cycle, endpoint, counter)`.
    handler_heap: BinaryHeap<Reverse<(u64, u32, u16)>>,
    /// Base seed of the per-endpoint route-randomization streams.
    seed: u64,
}

impl Endpoints {
    /// An empty layer with room for `n` endpoints, which derive their
    /// route-randomization streams from `seed`; [`Endpoints::push`] adds
    /// them in index order.
    pub(crate) fn new(seed: u64, n: usize) -> Endpoints {
        Endpoints {
            eps: Vec::with_capacity(n),
            handler_heap: BinaryHeap::new(),
            seed,
        }
    }

    /// Adds endpoint adapter `ep` of `node` (in dense endpoint-index
    /// order), injecting on `to_router` and receiving on `from_router`;
    /// returns its index.
    pub(crate) fn push(
        &mut self,
        node: NodeId,
        ep: LocalEndpointId,
        to_router: usize,
        from_router: usize,
    ) -> usize {
        let stream = anton_core::seed::derive_stream_seed(self.seed, self.eps.len() as u64);
        self.eps.push(EpState {
            node,
            ep,
            to_router,
            from_router,
            inject: VecDeque::new(),
            repl: VecDeque::new(),
            counters: Vec::new(),
            busy_until: 0,
            rng: StdRng::seed_from_u64(stream),
        });
        self.eps.len() - 1
    }

    /// Whether nothing waits in any endpoint: no queued injection, no
    /// multicast copy, no handler due.
    pub(crate) fn is_idle(&self) -> bool {
        self.handler_heap.is_empty()
            && self
                .eps
                .iter()
                .all(|e| e.inject.is_empty() && e.repl.is_empty())
    }

    /// Arms counter `counter` of endpoint `idx` to fire after `count` more
    /// packets naming it (see [`Sim::set_counter`](crate::sim::Sim::set_counter)).
    pub(crate) fn set_counter(&mut self, idx: usize, counter: CounterId, count: u32) {
        let counters = &mut self.eps[idx].counters;
        match counters.iter_mut().find(|(c, _)| *c == counter.0) {
            Some(slot) => slot.1 = count,
            None => counters.push((counter.0, count)),
        }
    }

    /// Queues a packet at endpoint `idx` and wakes the endpoint for the
    /// cycle in progress, or the one its link frees at if a transfer holds
    /// it. The packet's age counts from now.
    pub(crate) fn inject(&mut self, idx: usize, packet: Packet, fab: &mut Fabric) {
        let ep = &mut self.eps[idx];
        ep.inject.push_back(InjectCmd::Auto(packet, fab.now));
        let at = fab.now.max(ep.busy_until);
        fab.wheels.wake(CompRef::Ep(idx as u32), at, fab.now);
    }

    /// Number of packets still queued in endpoint `idx`'s software queue.
    pub(crate) fn inject_queue_len(&self, idx: usize) -> usize {
        self.eps[idx].inject.len()
    }

    /// Takes the fabric's reroute outbox: each packet joins the software
    /// queue of endpoint 0 of its stranding node. The wake is for
    /// `now + 1` (or later, while a transfer holds the link) — a reroute
    /// raised mid-cycle lands after the endpoint snapshot was taken — but
    /// the command is queued *now*, so an endpoint already awake this cycle
    /// sees, in its inject phase, a reroute raised before it (the epoch
    /// tick's).
    #[inline]
    pub(crate) fn accept_reroutes(&mut self, fab: &mut Fabric, ctx: &Ctx<'_>) {
        if fab.reroutes.is_empty() {
            return;
        }
        let now = fab.now;
        for r in fab.reroutes.drain(..) {
            let eidx = r.node.0 as usize * ctx.cfg.endpoints_per_node();
            let ep = &mut self.eps[eidx];
            ep.inject.push_back(InjectCmd::Reroute(Box::new(r)));
            let at = (now + 1).max(ep.busy_until);
            fab.wheels.wake(CompRef::Ep(eidx as u32), at, now);
        }
    }

    /// Reports the software handlers due by the cycle in progress.
    pub(crate) fn fire_handlers(&mut self, fab: &mut Fabric) {
        while let Some(&Reverse((t, ep_idx, counter))) = self.handler_heap.peek() {
            if t > fab.now {
                break;
            }
            self.handler_heap.pop();
            let ep = &self.eps[ep_idx as usize];
            fab.deliveries.push(Delivery::Handler {
                ep: GlobalEndpoint {
                    node: ep.node,
                    ep: ep.ep,
                },
                counter: CounterId(counter),
            });
        }
    }

    /// The inject phase of endpoint `eidx`'s wake: one packet onto its link
    /// into the mesh, if the adapter is free and the link has credits.
    #[inline]
    pub(crate) fn inject_step(&mut self, eidx: usize, fab: &mut Fabric, ctx: &Ctx<'_>) {
        let now = fab.now;
        let ep = &mut self.eps[eidx];
        let me = CompRef::Ep(eidx as u32);
        if ep.busy_until > now {
            return;
        }
        // Pending multicast copies first.
        if let Some(&pid) = ep.repl.front() {
            ep.send_to_router(me, fab, ctx, pid);
            return;
        }
        let Some(cmd) = ep.inject.front() else {
            return;
        };
        let node = ep.node;
        let wire_id = ep.to_router;
        let (dst, class, flits) = match *cmd {
            InjectCmd::Auto(pkt, queued_at) if !matches!(pkt.dst, Destination::Unicast(_)) => {
                ep.inject.pop_front();
                fab.stats.injected_packets += 1;
                ep.fan_out(me, fab, ctx, &pkt, queued_at);
                return;
            }
            InjectCmd::Auto(pkt, _) => {
                let Destination::Unicast(dst) = pkt.dst else {
                    unreachable!("multicast packets fan out above")
                };
                (dst, pkt.class, pkt.num_flits() as u8)
            }
            InjectCmd::Reroute(ref r) => (r.dst, r.state.class, r.state.flits),
        };
        // Injection always starts on M-group VC 0; check credits before
        // drawing the randomized route.
        let vcidx = fab.wires.vc_index(wire_id, class, Vc(0));
        if !fab.wires.credit_gate(wire_id, vcidx, flits) {
            return;
        }
        let cmd = ep.inject.pop_front().expect("peeked above");
        let shape = &ctx.cfg.shape;
        let (here, there) = (shape.coord(node), shape.coord(dst.node));
        let fresh = matches!(cmd, InjectCmd::Auto(..));
        let spec = match &cmd {
            InjectCmd::Auto(..) => RouteSpec::randomized(shape, here, there, &mut ep.rng),
            InjectCmd::Reroute(r) => {
                RouteSpec::deterministic(shape, here, there, DimOrder::XYZ, r.slice)
            }
        };
        let (spec, on_table) = fab.unicast_route(shape, node, spec, dst.node, !fresh);
        let route = RouteProgress::Unicast { spec, dst };
        let mut vc = ctx.cfg.vc_policy.start();
        vc.turn(None, route.next_hop());
        let (state, cold) = match cmd {
            InjectCmd::Auto(pkt, queued_at) => {
                let state = PacketState {
                    queued_at: saturate_cycle(queued_at),
                    rerouted: on_table,
                    ..PacketState::new(&pkt, route, vc, now)
                };
                (state, ctx.cold(pkt.payload))
            }
            InjectCmd::Reroute(r) => {
                let Reroute { state, cold, .. } = *r;
                let state = PacketState {
                    route,
                    vc,
                    pending_vc: None,
                    arrived_via: None,
                    rerouted: true,
                    ..state
                };
                // The route log restarts at the re-entry: the hops before it
                // led onto the failed link.
                let cold = cold.map(|c| ColdState {
                    route_log: Vec::new(),
                    ..c
                });
                (state, cold)
            }
        };
        let pid = fab.packets.insert(state, cold);
        fab.event(wire_id, pid, TraceEventKind::Inject);
        let sent = ep.send_to_router(me, fab, ctx, pid);
        debug_assert!(sent, "credits were checked");
        if fresh {
            fab.stats.injected_packets += 1;
            // Drained packets were already counted when pulled off the dead
            // link; fresh injections steered onto the tables by the
            // down-link check count here.
            if on_table {
                fab.stats.rerouted_packets += 1;
            }
        }
    }

    /// The receive phase of endpoint `eidx`'s wake: every ready head of its
    /// link from the mesh is delivered.
    #[inline]
    pub(crate) fn recv_step(&mut self, eidx: usize, fab: &mut Fabric) {
        let now = fab.now;
        let ep = &mut self.eps[eidx];
        let wire_id = ep.from_router;
        let mut mask = fab.wires.occupied(wire_id);
        while mask != 0 {
            let v = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            if fab.wires.ready_head(now, wire_id, v).is_none() {
                continue;
            }
            let pid = fab.pop(wire_id, v);
            let (st, cold) = fab.packets.remove(pid);
            fab.stats.delivered_packets += 1;
            fab.stats.last_delivery_cycle = now;
            fab.stats.recv_per_endpoint[eidx] += 1;
            fab.event(wire_id, pid, TraceEventKind::Deliver);
            if let Some(cid) = st.counter {
                if let Some(pos) = ep.counters.iter().position(|&(c, _)| c == cid.0) {
                    let rem = &mut ep.counters[pos].1;
                    *rem = rem.saturating_sub(1);
                    if *rem == 0 {
                        ep.counters.swap_remove(pos);
                        let fire = now + HANDLER_DISPATCH_CYCLES;
                        self.handler_heap.push(Reverse((fire, eidx as u32, cid.0)));
                    }
                }
            }
            fab.deliveries.push(Delivery::Packet(PacketDelivery {
                src: st.src,
                dst: GlobalEndpoint {
                    node: ep.node,
                    ep: ep.ep,
                },
                pattern: st.pattern.0,
                counter: st.counter,
                injected_at: u64::from(st.injected_at),
                delivered_at: now,
                torus_hops: st.torus_hops,
                rerouted: st.rerouted,
                // Recorded, a route has at least the injection hop.
                route_log: cold.map(|c| c.route_log).filter(|log| !log.is_empty()),
            }));
        }
    }
}

impl EpState {
    /// Fans multicast packet `pkt`, queued at cycle `queued_at`, out into
    /// the copies its group's table entry at this node names, and sends the
    /// first: the rest wait in the replication queue.
    fn fan_out(
        &mut self,
        me: CompRef,
        fab: &mut Fabric,
        ctx: &Ctx<'_>,
        pkt: &Packet,
        queued_at: u64,
    ) {
        let Destination::Multicast { group, tree } = pkt.dst else {
            unreachable!("only multicast packets fan out")
        };
        let now = fab.now;
        let cold = ctx.cold(pkt.payload);
        for (route, vc, pending_vc) in fab.multicast_copies(ctx, self.node, (group, tree), None) {
            let copy = PacketState {
                pending_vc,
                queued_at: saturate_cycle(queued_at),
                ..PacketState::new(pkt, route, vc, now)
            };
            let pid = fab.packets.insert(copy, cold.clone());
            fab.event(self.to_router, pid, TraceEventKind::Inject);
            self.repl.push_back(pid);
        }
        if let Some(&pid) = self.repl.front() {
            self.send_to_router(me, fab, ctx, pid);
        }
    }

    /// Sends `pid` on the endpoint-to-router link if it has credits, taking
    /// it off the replication queue if it heads it, and wakes the endpoint
    /// when the link frees if more waits to go out.
    fn send_to_router(
        &mut self,
        me: CompRef,
        fab: &mut Fabric,
        ctx: &Ctx<'_>,
        pid: PacketId,
    ) -> bool {
        let Some(until) = fab.send_into_mesh(ctx, self.to_router, LinkGroup::M, pid) else {
            return false;
        };
        self.busy_until = until;
        if self.repl.front() == Some(&pid) {
            self.repl.pop_front();
        }
        if !(self.repl.is_empty() && self.inject.is_empty()) {
            fab.wheels.wake(me, until, fab.now);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use anton_core::config::MachineConfig;
    use anton_core::multicast::McGroupId;
    use anton_core::packet::{Payload, MAX_PAYLOAD_BYTES};
    use anton_core::routing::DimOrder;
    use anton_core::topology::{NodeCoord, Slice, TorusShape};

    use super::*;
    use crate::fabric::testkit;
    use crate::params::{SimParams, ROUTER_PIPELINE};

    const TO_ROUTER: usize = 0;
    const FROM_ROUTER: usize = 1;

    /// Endpoint adapter 0 of node 0 of a 2×2×2 machine, with hand-built
    /// ideal wires to and from its router; the test plays the router.
    struct Rig {
        cfg: MachineConfig,
        params: SimParams,
        fab: Fabric,
        endpoints: Endpoints,
    }

    impl Rig {
        fn new() -> Rig {
            let cfg = MachineConfig::new(TorusShape::cube(2));
            let params = SimParams::default();
            let vcs = cfg.vc_policy.num_vcs(LinkGroup::M);
            let (me, router) = (CompRef::Ep(0), CompRef::Router(0));
            let wires = vec![
                testkit::wire(0, (1, ROUTER_PIPELINE - 1), (vcs, 8), router, me),
                testkit::wire(1, (1, 0), (vcs, 8), me, router),
            ];
            let fab = testkit::fabric(wires, [1, 0, 1], &params);
            let mut endpoints = Endpoints::new(params.seed, 1);
            endpoints.push(NodeId(0), LocalEndpointId(0), TO_ROUTER, FROM_ROUTER);
            Rig {
                cfg,
                params,
                fab,
                endpoints,
            }
        }

        fn at(&self, node: NodeCoord) -> GlobalEndpoint {
            GlobalEndpoint {
                node: self.cfg.shape.id(node),
                ep: LocalEndpointId(0),
            }
        }

        /// One cycle in the conductor's order — reroutes raised `before`
        /// the phases (the epoch tick's), the wires phase, due handlers,
        /// the inject phase, reroutes raised `between` (the adapters
        /// phase's), the receive phase — with the endpoint stepped only if
        /// it was woken. Returns whether it was.
        fn cycle(
            &mut self,
            before: impl FnOnce(&mut Fabric),
            between: impl FnOnce(&mut Fabric),
        ) -> bool {
            let ctx = Ctx::new(&self.cfg, &self.params);
            before(&mut self.fab);
            self.endpoints.accept_reroutes(&mut self.fab, &ctx);
            let woken = !testkit::open_cycle(&mut self.fab)[2].is_empty();
            self.endpoints.fire_handlers(&mut self.fab);
            if woken {
                self.endpoints.inject_step(0, &mut self.fab, &ctx);
            }
            between(&mut self.fab);
            self.endpoints.accept_reroutes(&mut self.fab, &ctx);
            if woken {
                self.endpoints.recv_step(0, &mut self.fab);
            }
            testkit::close_cycle(&mut self.fab);
            woken
        }

        fn idle_cycle(&mut self) -> bool {
            self.cycle(|_| {}, |_| {})
        }
    }

    #[test]
    fn injections_are_spaced_by_the_packets_flits() {
        let mut rig = Rig::new();
        let (src, dst) = (
            rig.at(NodeCoord::new(0, 0, 0)),
            rig.at(NodeCoord::new(1, 1, 0)),
        );
        for _ in 0..3 {
            let packet = Packet::write(src, dst, Payload::zeros(MAX_PAYLOAD_BYTES));
            rig.endpoints.inject(0, packet, &mut rig.fab);
        }
        // Two flits each: the adapter is held for two cycles per packet.
        let carried: Vec<u64> = (0..6)
            .map(|_| {
                rig.idle_cycle();
                rig.fab.wires.flits_carried(TO_ROUTER)
            })
            .collect();
        assert_eq!(carried, [2, 2, 4, 4, 6, 6]);
        assert_eq!(rig.endpoints.inject_queue_len(0), 0);
        assert_eq!(rig.fab.stats.injected_packets, 3);
    }

    #[test]
    fn a_held_back_packet_is_as_old_as_its_place_in_the_queue() {
        let mut rig = Rig::new();
        let (src, dst) = (
            rig.at(NodeCoord::new(0, 0, 0)),
            rig.at(NodeCoord::new(1, 1, 0)),
        );
        for _ in 0..3 {
            let packet = Packet::write(src, dst, Payload::zeros(MAX_PAYLOAD_BYTES));
            rig.endpoints.inject(0, packet, &mut rig.fab);
        }
        for _ in 0..6 {
            rig.idle_cycle();
        }
        // Queued together, they enter the mesh two cycles apart; latency
        // counts from entry, oldest-first arbitration from the queue.
        let sent: Vec<(u32, u32)> = (0..3)
            .map(|_| {
                let pid = rig.fab.pop(TO_ROUTER, 0);
                let st = rig.fab.packets.get(pid);
                (st.queued_at, st.injected_at)
            })
            .collect();
        assert_eq!(sent, [(0, 0), (0, 2), (0, 4)]);
    }

    #[test]
    fn a_counted_write_fires_its_handler_a_dispatch_after_the_last_packet() {
        let mut rig = Rig::new();
        let me = rig.at(NodeCoord::new(0, 0, 0));
        let counter = CounterId(4);
        rig.endpoints.set_counter(0, counter, 2);
        // Two packets naming the counter, the second two cycles behind.
        let send = |rig: &mut Rig| {
            let mut packet = Packet::write(me, me, Payload::zeros(16));
            packet.counter = Some(counter);
            let route = RouteProgress::McDeliver {
                group: McGroupId(0),
                tree: 0,
                ep: me.ep,
            };
            let vc = rig.cfg.vc_policy.start();
            let state = PacketState::new(&packet, route, vc, rig.fab.now);
            let pid = rig.fab.packets.insert(state, None);
            let ctx = Ctx::new(&rig.cfg, &rig.params);
            rig.fab.send(&ctx, FROM_ROUTER, pid, 0);
        };
        // Every delivery with the cycle it was reported in.
        let mut seen = Vec::new();
        let mut tick = |rig: &mut Rig| {
            let cycle = rig.fab.now;
            rig.idle_cycle();
            for d in rig.fab.deliveries.drain(..) {
                seen.push((cycle, matches!(d, Delivery::Handler { .. })));
            }
        };
        send(&mut rig);
        tick(&mut rig);
        tick(&mut rig);
        send(&mut rig);
        for _ in 0..HANDLER_DISPATCH_CYCLES + 8 {
            tick(&mut rig);
        }
        // Sent at cycles 0 and 2 on a one-cycle wire: delivered at 1 and 3.
        assert_eq!(
            seen,
            [(1, false), (3, false), (3 + HANDLER_DISPATCH_CYCLES, true)]
        );
        assert!(rig.endpoints.is_idle());
    }

    #[test]
    fn a_reroute_is_injected_the_cycle_its_phase_order_allows() {
        for from_epoch_tick in [true, false] {
            let mut rig = Rig::new();
            let (src, dst) = (
                rig.at(NodeCoord::new(1, 0, 0)),
                rig.at(NodeCoord::new(0, 1, 0)),
            );
            // A unicast packet stranded at node 0, mid-journey.
            let spec = RouteSpec::deterministic(
                &rig.cfg.shape,
                NodeCoord::new(0, 0, 0),
                NodeCoord::new(0, 1, 0),
                DimOrder::XYZ,
                Slice(0),
            );
            let state = PacketState {
                torus_hops: 1,
                ..PacketState::new(
                    &Packet::write(src, dst, Payload::zeros(16)),
                    RouteProgress::Unicast { spec, dst },
                    rig.cfg.vc_policy.start(),
                    0,
                )
            };
            let cold = ColdState {
                payload: Payload::ones(16),
                route_log: Vec::new(),
            };
            let pid = rig.fab.packets.insert(state, Some(cold));
            for _ in 0..5 {
                assert!(!rig.idle_cycle(), "nothing wakes an idle endpoint");
            }
            // The endpoint is awake this cycle for a reason of its own.
            let now = rig.fab.now;
            rig.fab.wheels.wake(CompRef::Ep(0), now, now);
            let strand = |fab: &mut Fabric| fab.reroute(NodeId(0), pid);
            let woken = if from_epoch_tick {
                rig.cycle(strand, |_| {})
            } else {
                rig.cycle(|_| {}, strand)
            };
            assert!(woken);
            assert_eq!(rig.fab.stats.rerouted_packets, 1);
            // A link onset's reroute is raised before the inject phase and
            // goes out in it; an absorbing serializer's is raised after it
            // and waits for the next cycle, which its wake guarantees.
            let sent_at_once = rig.fab.wires.flits_carried(TO_ROUTER) == 1;
            assert_eq!(sent_at_once, from_epoch_tick);
            assert_eq!(
                rig.endpoints.inject_queue_len(0),
                usize::from(!from_epoch_tick)
            );
            assert!(rig.idle_cycle(), "woken for the cycle after either way");
            assert_eq!(rig.fab.wires.flits_carried(TO_ROUTER), 1);
            assert_eq!(rig.endpoints.inject_queue_len(0), 0);
            // Re-entered, not injected: it keeps its history.
            assert_eq!(rig.fab.stats.injected_packets, 0);
            let head = rig.fab.wires.head(TO_ROUTER, 0);
            let st = rig.fab.packets.get(head);
            assert_eq!((st.torus_hops, st.rerouted, st.injected_at), (1, true, 0));
            // Its payload came with it.
            let packet = rig.fab.packets.packet(head).expect("cold record kept");
            assert_eq!(packet.payload, Payload::ones(16));
        }
    }
}
