//! The router layer: every on-chip router's switch allocation.
//!
//! A router wake runs the last two stages of the RC / VA / SA1 / SA2
//! pipeline over the heads its input wires hold: SA1 picks one VC per input
//! port, SA2 one input port per output, and each SA2 winner moves — whole,
//! under virtual cut-through — onto its output wire. [`Routers`] owns the
//! per-router arrays in dense form strided by [`MAX_ROUTER_PORTS`];
//! everything else a step touches it reaches through the [`Fabric`] it is
//! handed.

use anton_arbiter::{ArbiterPlan, BitsetArbiter, GrantSite};
use anton_core::chip::{
    ChipLayout, LinkGroup, LocalAttach, MeshCoord, ATTACH_CODE_BASE, MAX_ROUTER_PORTS,
};
use anton_core::topology::Dim;

use crate::fabric::{CompRef, Ctx, Fabric};
use crate::state::PacketId;

#[derive(Debug)]
struct RouterState {
    mesh: MeshCoord,
    /// Ports in use (`in_wire` / `out_wire` map them).
    nports: u8,
}

/// One router port as construction wires it: what it attaches to, the wires
/// in and out, and the VC indices (both classes) of the input wire.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortWiring {
    pub(crate) attach: LocalAttach,
    pub(crate) in_wire: usize,
    pub(crate) out_wire: usize,
    pub(crate) in_lanes: usize,
}

/// An input port's SA1 winner, as SA2 sees it.
#[derive(Clone, Copy)]
struct Cand {
    vcidx: u8,
    out_vcidx: u8,
    pattern: u8,
}

/// Every router of one simulator instance (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Routers {
    routers: Vec<RouterState>,
    /// Per-router output-port lookup: `attach.code()` → port index (0xFF =
    /// no such port), replacing a linear port scan in route computation.
    port_of: Vec<u8>,
    /// Stride of `port_of` (attach codes per router).
    attach_codes: usize,
    /// Input wire per router port, strided by [`MAX_ROUTER_PORTS`]
    /// (`u32::MAX` past a router's port count).
    in_wire: Vec<u32>,
    /// Output wire per router port (same layout).
    out_wire: Vec<u32>,
    /// Cycle each router output port is busy until (same layout).
    out_busy: Vec<u64>,
    /// SA2/output arbiter per router output port (same strided layout,
    /// placeholder single-lane arbiters past a router's port count):
    /// monomorphic bitset state instead of boxed `dyn PortArbiter`, so the
    /// allocation loop's grants are direct calls over dense memory.
    out_arb: Vec<BitsetArbiter>,
    /// SA1 VC arbiter per router input port (same layout; lanes = the
    /// feeding wire's VC indices).
    in_arb: Vec<BitsetArbiter>,
}

impl Routers {
    /// An empty layer with room for `n` routers of machines whose every
    /// node is laid out as `chip`; [`Routers::push`] adds the routers in
    /// index order.
    pub(crate) fn new(chip: &ChipLayout, n: usize) -> Routers {
        let attach_codes = ATTACH_CODE_BASE + chip.endpoints().count();
        Routers {
            routers: Vec::with_capacity(n),
            port_of: Vec::with_capacity(n * attach_codes),
            attach_codes,
            in_wire: Vec::with_capacity(n * MAX_ROUTER_PORTS),
            out_wire: Vec::with_capacity(n * MAX_ROUTER_PORTS),
            out_busy: Vec::with_capacity(n * MAX_ROUTER_PORTS),
            out_arb: Vec::with_capacity(n * MAX_ROUTER_PORTS),
            in_arb: Vec::with_capacity(n * MAX_ROUTER_PORTS),
        }
    }

    /// Adds the router at mesh position `mesh` of some node, with `ports`
    /// in [`ChipLayout::router_ports`] order and the plan's SA1 and SA2
    /// policies at its inputs and outputs; returns its index.
    pub(crate) fn push(
        &mut self,
        mesh: MeshCoord,
        ports: &[PortWiring],
        plan: &ArbiterPlan,
    ) -> usize {
        let nports = ports.len();
        assert!(nports <= MAX_ROUTER_PORTS, "router has too many ports");
        let ridx = self.routers.len();
        self.port_of.resize((ridx + 1) * self.attach_codes, 0xFFu8);
        for p in 0..MAX_ROUTER_PORTS {
            // Slots past the port count hold inert placeholders so the
            // stride stays uniform.
            let Some(port) = ports.get(p) else {
                self.in_wire.push(u32::MAX);
                self.out_wire.push(u32::MAX);
                self.out_arb.push(BitsetArbiter::round_robin(1));
                self.in_arb.push(BitsetArbiter::round_robin(1));
                continue;
            };
            self.port_of[ridx * self.attach_codes + port.attach.code()] = p as u8;
            self.in_wire.push(port.in_wire as u32);
            self.out_wire.push(port.out_wire as u32);
            let (sa1, sa2) = (&plan[GrantSite::Sa1].start, &plan[GrantSite::Output].start);
            self.out_arb.push(BitsetArbiter::from_kind(sa2, nports));
            self.in_arb
                .push(BitsetArbiter::from_kind(sa1, port.in_lanes));
        }
        self.out_busy.resize((ridx + 1) * MAX_ROUTER_PORTS, 0);
        self.routers.push(RouterState {
            mesh,
            nports: nports as u8,
        });
        ridx
    }

    /// The arbiter at dense index `arbiter` = `router × MAX_ROUTER_PORTS +
    /// port`, routers counted across nodes — the input port's SA1 VC arbiter
    /// if `input`, the output port's SA2 arbiter if not — for installing a
    /// weight program.
    ///
    /// # Panics
    ///
    /// Panics if the router or port index is out of range.
    pub(crate) fn arbiter_mut(&mut self, arbiter: usize, input: bool) -> &mut BitsetArbiter {
        let (ridx, port) = (arbiter / MAX_ROUTER_PORTS, arbiter % MAX_ROUTER_PORTS);
        let nports = usize::from(self.routers[ridx].nports);
        assert!(port < nports, "port out of range");
        let arbiters = if input {
            &mut self.in_arb
        } else {
            &mut self.out_arb
        };
        &mut arbiters[arbiter]
    }

    /// Route computation for head `pid` first seen at router `ridx`: the
    /// output port and the VC index on the wire behind it, from the
    /// packet's slab line — its target adapter on this chip, its VC state
    /// and the dimension it arrived on, all stable for the whole chip
    /// traversal. The result is cached in the head's gate record by the
    /// switch-allocation loop, so this is only evaluated once per packet
    /// per router.
    #[inline]
    fn route(&self, ridx: usize, fab: &Fabric, ctx: &Ctx<'_>, pid: PacketId) -> (u8, u8) {
        let st = fab.packets.get(pid);
        let arrived_x = st.arrived_via.is_some_and(|d| d.dim == Dim::X);
        let here = self.routers[ridx].mesh;
        let attach = ctx
            .cfg
            .chip
            .next_attach(here, st.route.chip_target(), arrived_x);
        let port = self.port_of[ridx * self.attach_codes + attach.code()];
        debug_assert!(port != 0xFF, "routed attach must be a port");
        let group = match attach {
            LocalAttach::Mesh(_) | LocalAttach::Endpoint(_) => LinkGroup::M,
            LocalAttach::Skip | LocalAttach::Chan(_) => LinkGroup::T,
        };
        let out_wire = self.out_wire[ridx * MAX_ROUTER_PORTS + usize::from(port)] as usize;
        let out_vcidx = fab.wires.vc_index(out_wire, st.class, st.vc.vc_for(group));
        (port, out_vcidx)
    }

    /// One wake of router `ridx`: SA1 then SA2 over the heads its input
    /// wires hold, moving every SA2 winner onto its output wire.
    ///
    /// Every head left behind is either not ready (its arrival wake is
    /// pending), credit-starved (the credit return wakes the router, see
    /// [`Wires::credit_gate`](crate::wire::Wires::credit_gate)), denied a
    /// held output, or beaten in an arbitration. The wake schedules the
    /// router again only for the last two: at the earliest cycle a held
    /// output frees, and at `now + 1` after a contested SA1 or SA2 or a pop
    /// that promoted a ready head.
    // Inlined into the conductor's loop, like every layer step: most wakes
    // of a lightly loaded machine find nothing to do, and a call per wake
    // measured +5 % on `lossy-load-k4`.
    #[inline]
    pub(crate) fn step(&mut self, ridx: usize, fab: &mut Fabric, ctx: &Ctx<'_>) {
        let now = fab.now;
        let nports = usize::from(self.routers[ridx].nports);
        let mut cands: [Option<Cand>; MAX_ROUTER_PORTS] = [None; MAX_ROUTER_PORTS];
        // SA2 request bitsets, built once during the SA1 pass: bit `inp` of
        // `out_req[out]` is set when input port `inp`'s SA1 winner wants
        // output `out`. `outs` tracks the non-empty outputs so SA2 walks
        // exactly the contested ports instead of rescanning candidates
        // per output.
        let mut out_req = [0u64; MAX_ROUTER_PORTS];
        let mut outs: u32 = 0;
        let rbase = ridx * MAX_ROUTER_PORTS;
        // The next cycle a head left behind can move without another
        // component waking the router (`u64::MAX`: none).
        let mut next = u64::MAX;
        for (inp, cand) in cands.iter_mut().enumerate().take(nports) {
            let in_wire = self.in_wire[rbase + inp] as usize;
            // SA1: gather the VCs whose heads can proceed into a request
            // bitmask, then let the input port's VC arbiter pick from it
            // (inverse-weighted when programmed). The gates read only the
            // packed gate records; the winner's slab line is loaded after
            // the grant.
            let req = fab.gather_requests(
                in_wire,
                |fab, pid| self.route(ridx, fab, ctx, pid),
                |port| {
                    let slot = rbase + usize::from(port);
                    let busy = self.out_busy[slot];
                    if busy > now {
                        next = next.min(busy);
                        return None;
                    }
                    Some(self.out_wire[slot] as usize)
                },
            );
            if req == 0 {
                continue;
            }
            // A sole candidate bypasses the arbiter (state untouched),
            // matching the reference model's "no contest, no pick" rule.
            let v = if req & (req - 1) == 0 {
                req.trailing_zeros()
            } else {
                next = now + 1;
                let (wires, packets) = (&fab.wires, &fab.packets);
                self.in_arb[rbase + inp]
                    .pick_mask(
                        req,
                        |i| wires.gate(in_wire, i as u8).pattern,
                        |i| u64::from(packets.get(wires.head(in_wire, i as u8)).queued_at),
                    )
                    .expect("nonempty requests yield a grant")
            } as u8;
            // The winner's candidate, from its gate (the gather above
            // guarantees the route fields are populated). Its slab line is
            // loaded by the pop if SA2 grants it, or by an age arbiter.
            let m = fab.wires.gate(in_wire, v);
            *cand = Some(Cand {
                vcidx: v,
                out_vcidx: m.rc_vcidx,
                pattern: m.pattern,
            });
            out_req[usize::from(m.rc_port)] |= 1 << inp;
            outs |= 1 << m.rc_port;
            let pid = fab.wires.head(in_wire, v);
            fab.grant(GrantSite::Sa1, in_wire, pid, req, v, |l| (in_wire, l));
        }
        // SA2: walk the contested outputs in ascending order and grant one
        // input each from its request bitset. Unlike SA1, the output
        // arbiter always commits — even an uncontested request advances its
        // state.
        let cand_of = |i: u32| cands[i as usize].expect("requesting input has a cand");
        while outs != 0 {
            let out = outs.trailing_zeros() as usize;
            outs &= outs - 1;
            let req = out_req[out];
            if req & (req - 1) != 0 {
                next = now + 1;
            }
            let (wires, packets) = (&fab.wires, &fab.packets);
            let inp = self.out_arb[rbase + out]
                .pick_mask(
                    req,
                    |i| cand_of(i).pattern,
                    |i| {
                        let in_wire = self.in_wire[rbase + i as usize] as usize;
                        let head = wires.head(in_wire, cand_of(i).vcidx);
                        u64::from(packets.get(head).queued_at)
                    },
                )
                .expect("nonempty requests yield a grant");
            let cand = cand_of(inp);
            let in_wire = self.in_wire[rbase + inp as usize] as usize;
            let out_wire = self.out_wire[rbase + out] as usize;
            let pid = fab.pop(in_wire, cand.vcidx);
            // A new head not yet ready has its arrival wake pending.
            if fab.wires.ready_head(now, in_wire, cand.vcidx).is_some() {
                next = now + 1;
            }
            fab.grant(GrantSite::Output, out_wire, pid, req, inp as u8, |l| {
                let lw = self.in_wire[rbase + usize::from(l)] as usize;
                (lw, cand_of(u32::from(l)).vcidx)
            });
            let flits = fab.send(ctx, out_wire, pid, cand.out_vcidx);
            self.out_busy[rbase + out] = now + u64::from(flits);
            // Stall attribution reads a head's cause on every wake: one
            // starved of credits for this output reads "output busy" while
            // a two-flit transfer holds it, and the table books that cycle.
            if flits > 1 && fab.probe.stall.is_some() {
                next = now + 1;
            }
        }
        if next != u64::MAX {
            fab.wheels.wake(CompRef::Router(ridx as u32), next, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use anton_arbiter::{ArbRequest, InverseWeightedArbiter, PortArbiter, RoundRobinArbiter};
    use anton_core::chip::{LinkGroup, LocalEndpointId};
    use anton_core::config::{GlobalEndpoint, MachineConfig};
    use anton_core::multicast::McGroupId;
    use anton_core::packet::{
        Packet, PatternId, Payload, MAX_PAYLOAD_BYTES, PAYLOAD_BYTES_PER_FLIT,
    };
    use anton_core::topology::{NodeId, TorusShape};
    use anton_core::vc::{TrafficClass, VcState};
    use anton_obs::{StallCause, TraceEventKind};
    use proptest::prelude::*;

    use super::*;
    use crate::fabric::testkit;
    use crate::params::{SimParams, TraceConfig, ROUTER_PIPELINE};
    use crate::state::{PacketId, PacketState, RouteProgress};

    /// Where a test packet is headed on the chip, and the output port the
    /// router must therefore pick (worked out here without the routing
    /// code: a local adapter's own port, or the one mesh hop towards an
    /// endpoint on an in-line neighbour).
    #[derive(Debug, Clone, Copy)]
    struct Target {
        route: RouteProgress,
        out_port: usize,
        group: LinkGroup,
    }

    /// A packet as the test makes them up.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        target: usize,
        reply: bool,
        pattern: u8,
        two_flits: bool,
        /// Torus dimensions already finished (raises the M-group VC).
        dims_done: u8,
    }

    /// One router — mesh position (1, 1) of node 0, so four mesh ports plus
    /// whatever adapters the chip hangs off it — with a hand-built ideal
    /// wire into and out of every port (wires `2p` and `2p + 1` of port
    /// `p`). The test plays every neighbour: it sends into the input wires
    /// and pops the output wires.
    struct Rig {
        cfg: MachineConfig,
        params: SimParams,
        fab: Fabric,
        routers: Routers,
        nports: usize,
        targets: Vec<Target>,
    }

    const IN_LATENCY: u64 = 1;
    const IN_PIPELINE: u64 = ROUTER_PIPELINE - 1;
    const OUT_LATENCY: u64 = 1;

    fn group_of(attach: LocalAttach) -> LinkGroup {
        match attach {
            LocalAttach::Mesh(_) | LocalAttach::Endpoint(_) => LinkGroup::M,
            LocalAttach::Skip | LocalAttach::Chan(_) => LinkGroup::T,
        }
    }

    impl Rig {
        fn new(depth: u8, trace: TraceConfig) -> Rig {
            let cfg = MachineConfig::new(TorusShape::cube(2));
            let params = SimParams {
                trace,
                ..SimParams::default()
            };
            let here = MeshCoord::new(1, 1);
            let attaches = cfg.chip.router_ports(here);
            let me = CompRef::Router(0);
            let mut wires = Vec::new();
            let mut ports = Vec::new();
            let mut targets = Vec::new();
            for (p, &attach) in attaches.iter().enumerate() {
                let vcs = cfg.vc_policy.num_vcs(group_of(attach));
                let neighbour = CompRef::Ep(p as u32);
                let i = wires.len() as u8;
                wires.push(testkit::wire(
                    i,
                    (IN_LATENCY, IN_PIPELINE),
                    (vcs, depth),
                    me,
                    neighbour,
                ));
                wires.push(testkit::wire(
                    i + 1,
                    (OUT_LATENCY, 0),
                    (vcs, depth),
                    neighbour,
                    me,
                ));
                ports.push(PortWiring {
                    attach,
                    in_wire: 2 * p,
                    out_wire: 2 * p + 1,
                    in_lanes: 2 * usize::from(vcs),
                });
                let deliver = |ep| RouteProgress::McDeliver {
                    group: McGroupId(0),
                    tree: 0,
                    ep,
                };
                let route = match attach {
                    LocalAttach::Endpoint(e) => deliver(e),
                    LocalAttach::Chan(c) => RouteProgress::McExit {
                        group: McGroupId(0),
                        tree: 0,
                        dir: c.dir,
                        slice: c.slice,
                    },
                    LocalAttach::Mesh(d) => {
                        let nbr = here.step(d).expect("mesh port has neighbor");
                        let hosted = |&e: &LocalEndpointId| cfg.chip.endpoint_router(e) == nbr;
                        deliver(
                            cfg.chip
                                .endpoints()
                                .find(hosted)
                                .expect("every router hosts one"),
                        )
                    }
                    LocalAttach::Skip => unreachable!("(1, 1) has no skip channel"),
                };
                targets.push(Target {
                    route,
                    out_port: p,
                    group: group_of(attach),
                });
            }
            let nports = ports.len();
            let fab = testkit::fabric(wires, [1, 0, nports], &params);
            let mut routers = Routers::new(&cfg.chip, 1);
            routers.push(here, &ports, &anton_arbiter::ArbiterKind::RoundRobin.into());
            Rig {
                cfg,
                params,
                fab,
                routers,
                nports,
                targets,
            }
        }

        /// Inserts a packet of `shape` into the slab; returns it with the
        /// output VC index the router must send it on.
        fn packet(&mut self, shape: Shape) -> (PacketId, u8) {
            let t = self.targets[shape.target];
            let ep = GlobalEndpoint {
                node: NodeId(0),
                ep: LocalEndpointId(0),
            };
            let bytes = if shape.two_flits {
                MAX_PAYLOAD_BYTES
            } else {
                PAYLOAD_BYTES_PER_FLIT
            };
            let mut packet = Packet::write(ep, ep, Payload::zeros(bytes));
            packet.pattern = PatternId(shape.pattern);
            if shape.reply {
                packet.class = TrafficClass::Reply;
            }
            let mut vc: VcState = self.cfg.vc_policy.start();
            for _ in 0..shape.dims_done {
                vc.begin_dim();
                vc.end_dim();
            }
            if t.group == LinkGroup::T {
                // Heading for a departure adapter: committed to a dimension.
                vc.begin_dim();
            }
            let out_wire = 2 * t.out_port + 1;
            let out_vcidx = self
                .fab
                .wires
                .vc_index(out_wire, packet.class, vc.vc_for(t.group));
            let state = PacketState::new(&packet, t.route, vc, self.fab.now);
            (self.fab.packets.insert(state, None), out_vcidx)
        }

        /// Sends `pid` into input port `inp` on VC index `vcidx`.
        fn send(&mut self, inp: usize, vcidx: u8, pid: PacketId) {
            let ctx = Ctx::new(&self.cfg, &self.params);
            self.fab.send(&ctx, 2 * inp, pid, vcidx);
        }

        /// Opens the cycle and steps the router if it was woken for it;
        /// returns whether it was.
        fn step_router(&mut self) -> bool {
            let woken = !testkit::open_cycle(&mut self.fab)[0].is_empty();
            if woken {
                let ctx = Ctx::new(&self.cfg, &self.params);
                self.routers.step(0, &mut self.fab, &ctx);
            }
            woken
        }

        /// The ready head of output port `out`'s VC `vcidx`.
        fn arrived(&self, out: usize, vcidx: u8) -> Option<PacketId> {
            self.fab.wires.ready_head(self.fab.now, 2 * out + 1, vcidx)
        }
    }

    const ONE: Shape = Shape {
        target: 0,
        reply: false,
        pattern: 0,
        two_flits: false,
        dims_done: 0,
    };

    #[test]
    fn a_sole_sa1_candidate_bypasses_its_arbiter_while_sa2_always_commits() {
        let mut rig = Rig::new(4, TraceConfig::default());
        let out = rig.targets[0].out_port;
        // Lanes above 0, so a committed round-robin pointer reads different.
        let (inp, vcidx) = (2, 3);
        let (pid, out_vcidx) = rig.packet(ONE);
        rig.send(inp, vcidx, pid);
        let (sa1_before, sa2_before) = (
            rig.routers.in_arb[inp].clone(),
            rig.routers.out_arb[out].clone(),
        );
        let ready = IN_LATENCY + IN_PIPELINE;
        for now in 0..=ready {
            assert_eq!(
                rig.step_router(),
                now == ready,
                "woken exactly when the head is ready"
            );
            testkit::close_cycle(&mut rig.fab);
        }
        assert_eq!(rig.fab.grants.sa1, 1);
        assert_eq!(rig.fab.grants.output, 1);
        assert_eq!(rig.routers.in_arb[inp], sa1_before, "no contest, no pick");
        assert_ne!(
            rig.routers.out_arb[out], sa2_before,
            "SA2 commits uncontested"
        );
        testkit::open_cycle(&mut rig.fab);
        assert_eq!(rig.arrived(out, out_vcidx), Some(pid));
    }

    #[test]
    fn a_two_flit_grant_holds_its_output_for_two_cycles() {
        let mut rig = Rig::new(
            4,
            TraceConfig {
                stalls: true,
                ..TraceConfig::default()
            },
        );
        let out = rig.targets[0].out_port;
        let two = Shape {
            two_flits: true,
            ..ONE
        };
        let (a, out_vcidx) = rig.packet(two);
        let (b, _) = rig.packet(two);
        rig.send(1, 0, a);
        rig.send(2, 0, b);
        // Both heads are ready at the same cycle and want the same output.
        let ready = IN_LATENCY + 1 + IN_PIPELINE;
        let mut grants = Vec::new();
        for now in 0..ready + 4 {
            rig.step_router();
            grants.push(rig.fab.grants.output);
            assert!(rig.routers.out_busy[out] <= now + 2);
            testkit::close_cycle(&mut rig.fab);
        }
        // One grant at `ready`, none while the output is held, the loser's
        // at `ready + 2`.
        let at = |c: u64| grants[c as usize];
        assert_eq!(
            (at(ready - 1), at(ready), at(ready + 1), at(ready + 2)),
            (0, 1, 1, 2)
        );
        let loser_wire = if rig.arrived(out, out_vcidx) == Some(a) {
            4
        } else {
            2
        };
        let table = rig.fab.probe.stall.as_deref_mut().expect("stalls are on");
        table.flush(rig.fab.now);
        let mut want = [0u64; 7];
        want[StallCause::LostSa2.index()] = 1;
        want[StallCause::OutputBusy.index()] = 1;
        assert_eq!(table.wire_cause_cycles(loser_wire), want);
        assert_eq!(table.total_stall_cycles(), 2, "the winner never stalled");
    }

    /// A head buffered on an input VC, as the reference sees it.
    #[derive(Debug, Clone, Copy)]
    struct Head {
        ready: u64,
        pid: u32,
        flits: u8,
        pattern: u8,
        age: u64,
        out: usize,
        out_vcidx: u8,
    }

    /// The plain per-cycle reference allocator: scans every VC of every
    /// port on every cycle, builds explicit request lists and arbitrates
    /// them with the boxed reference arbiters. Buffers, credits and their
    /// return delays are modelled here too, so nothing of the wire layer or
    /// the wake wheels is shared with the router under test.
    struct Reference {
        /// `[port][VC index]`.
        in_bufs: Vec<Vec<VecDeque<Head>>>,
        in_credits: Vec<Vec<u8>>,
        out_bufs: Vec<Vec<VecDeque<(u64, u32, u8)>>>,
        out_credits: Vec<Vec<u8>>,
        /// Credits in flight: `(cycle, to an output's pool?, port, VC, flits)`.
        returns: Vec<(u64, bool, usize, u8, u8)>,
        busy: Vec<u64>,
        in_arb: Vec<Box<dyn PortArbiter>>,
        out_arb: Vec<Box<dyn PortArbiter>>,
    }

    /// `(cycle, input port, input VC, output port, packet)`.
    type Grant = (u64, usize, u8, usize, u32);

    impl Reference {
        /// Whether no packet is buffered and no credit in flight.
        fn is_drained(&self) -> bool {
            self.in_bufs.iter().flatten().all(VecDeque::is_empty)
                && self.out_bufs.iter().flatten().all(VecDeque::is_empty)
                && self.returns.is_empty()
        }

        /// One cycle: this cycle's credit returns, then SA1 and SA2.
        /// Appends the SA1 picks and the SA2 grants.
        fn cycle(&mut self, now: u64, sa1: &mut Vec<Grant>, sa2: &mut Vec<Grant>) {
            let (in_credits, out_credits) = (&mut self.in_credits, &mut self.out_credits);
            self.returns.retain(|&(at, to_out, port, vc, flits)| {
                if at == now {
                    let pool = if to_out {
                        &mut *out_credits
                    } else {
                        &mut *in_credits
                    };
                    pool[port][vc as usize] += flits;
                }
                at != now
            });
            let nports = self.in_bufs.len();
            let mut cands: Vec<Option<(u8, Head)>> = vec![None; nports];
            for (inp, cand) in cands.iter_mut().enumerate() {
                let mut reqs = Vec::new();
                let mut heads = Vec::new();
                for (v, buf) in self.in_bufs[inp].iter().enumerate() {
                    let Some(&h) = buf.front() else { continue };
                    let can_move = h.ready <= now
                        && self.busy[h.out] <= now
                        && self.out_credits[h.out][h.out_vcidx as usize] >= h.flits;
                    if can_move {
                        reqs.push(ArbRequest {
                            input: v,
                            pattern: h.pattern,
                            age: h.age,
                        });
                        heads.push((v as u8, h));
                    }
                }
                let won = match reqs.len() {
                    0 => continue,
                    1 => 0,
                    _ => self.in_arb[inp]
                        .pick(&reqs)
                        .expect("requests yield a grant"),
                };
                let (v, h) = heads[won];
                sa1.push((now, inp, v, h.out, h.pid));
                *cand = Some((v, h));
            }
            for out in 0..nports {
                let wanting: Vec<(usize, u8, Head)> = cands
                    .iter()
                    .enumerate()
                    .filter_map(|(inp, c)| {
                        c.filter(|(_, h)| h.out == out).map(|(v, h)| (inp, v, h))
                    })
                    .collect();
                let reqs: Vec<ArbRequest> = wanting
                    .iter()
                    .map(|&(input, _, h)| ArbRequest {
                        input,
                        pattern: h.pattern,
                        age: h.age,
                    })
                    .collect();
                let Some(won) = self.out_arb[out].pick(&reqs) else {
                    continue;
                };
                let (inp, v, h) = wanting[won];
                self.in_bufs[inp][v as usize].pop_front();
                self.returns
                    .push((now + IN_LATENCY, false, inp, v, h.flits));
                self.out_credits[out][h.out_vcidx as usize] -= h.flits;
                let ready = now + OUT_LATENCY + u64::from(h.flits) - 1;
                self.out_bufs[out][h.out_vcidx as usize].push_back((ready, h.pid, h.flits));
                self.busy[out] = now + u64::from(h.flits);
                sa2.push((now, inp, v, out, h.pid));
            }
        }
    }

    /// One generated arrival: `(input port, input VC, target, shape bits,
    /// cycles to wait after it)`, each reduced modulo what the rig has.
    type Arrival = (u8, u8, u8, u8, u8);

    /// Runs the production router and the [`Reference`] through one
    /// schedule of arrivals and downstream pops, in lockstep.
    fn run_against_reference(
        weights: Option<u64>,
        depth: u8,
        hot: u8,
        arrivals: &[Arrival],
        pops: &[u8],
    ) -> Result<(), TestCaseError> {
        let m_bits = 5;
        // Weights replace every arbiter below, so the rig starts round-robin.
        let mut rig = Rig::new(
            depth,
            TraceConfig {
                events: true,
                ring_capacity: 1 << 14,
                ..TraceConfig::default()
            },
        );
        let nports = rig.nports;
        let lanes = |rig: &Rig, w: usize| usize::from(rig.fab.wires.num_vcs(w));
        let mut reference = Reference {
            in_bufs: (0..nports)
                .map(|p| vec![VecDeque::new(); lanes(&rig, 2 * p)])
                .collect(),
            in_credits: (0..nports)
                .map(|p| vec![depth; lanes(&rig, 2 * p)])
                .collect(),
            out_bufs: (0..nports)
                .map(|p| vec![VecDeque::new(); lanes(&rig, 2 * p + 1)])
                .collect(),
            out_credits: (0..nports)
                .map(|p| vec![depth; lanes(&rig, 2 * p + 1)])
                .collect(),
            returns: Vec::new(),
            busy: vec![0; nports],
            in_arb: Vec::new(),
            out_arb: Vec::new(),
        };
        // The same arbiters on both sides: round-robin everywhere, or two-
        // pattern inverse weights drawn from the seed at every SA1 and SA2
        // arbiter.
        let mut draw = weights.unwrap_or(0);
        let mut table = |lanes: usize| -> Vec<Vec<u32>> {
            let mut next = || {
                draw = draw
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (draw >> 33) as u32 % ((1 << m_bits) - 1)
            };
            (0..lanes).map(|_| vec![next(), next()]).collect()
        };
        for p in 0..nports {
            let in_lanes = lanes(&rig, 2 * p);
            if weights.is_some() {
                let (w_in, w_out) = (table(in_lanes), table(nports));
                *rig.routers.arbiter_mut(p, true) =
                    BitsetArbiter::inverse_weighted(w_in.clone(), m_bits);
                *rig.routers.arbiter_mut(p, false) =
                    BitsetArbiter::inverse_weighted(w_out.clone(), m_bits);
                reference
                    .in_arb
                    .push(Box::new(InverseWeightedArbiter::new(w_in, m_bits)));
                reference
                    .out_arb
                    .push(Box::new(InverseWeightedArbiter::new(w_out, m_bits)));
            } else {
                reference
                    .in_arb
                    .push(Box::new(RoundRobinArbiter::new(in_lanes)));
                reference
                    .out_arb
                    .push(Box::new(RoundRobinArbiter::new(nports)));
            }
        }
        let (mut ref_sa1, mut ref_sa2) = (Vec::new(), Vec::new());
        let mut pending = arrivals.iter().copied();
        let mut wait = 0u8;
        let mut sent = 0usize;
        loop {
            let now = rig.fab.now;
            if pending.len() == 0 && reference.is_drained() {
                break;
            }
            prop_assert!(now < 5_000, "the router failed to drain");
            rig.step_router();
            reference.cycle(now, &mut ref_sa1, &mut ref_sa2);
            // Downstream: pop the ready heads this cycle's mask names (all
            // of them once the arrivals are spent), the same on both sides.
            let mask = if pending.len() == 0 {
                0xFF
            } else {
                pops[now as usize % pops.len()]
            };
            for out in 0..nports {
                for v in 0..lanes(&rig, 2 * out + 1) {
                    let head = reference.out_bufs[out][v]
                        .front()
                        .copied()
                        .filter(|h| h.0 <= now);
                    prop_assert_eq!(
                        rig.arrived(out, v as u8).map(|p| p.0),
                        head.map(|h| h.1),
                        "head of output {} vc {} at {}",
                        out,
                        v,
                        now
                    );
                    let Some((_, pid, flits)) = head else {
                        continue;
                    };
                    if mask >> ((out + v) % 8) & 1 == 0 {
                        continue;
                    }
                    reference.out_bufs[out][v].pop_front();
                    reference
                        .returns
                        .push((now + OUT_LATENCY, true, out, v as u8, flits));
                    rig.fab.pop(2 * out + 1, v as u8);
                    rig.fab.packets.remove(PacketId(pid));
                }
            }
            // Upstream: the next arrival, if its wait is over and its VC
            // has room.
            if wait > 0 {
                wait -= 1;
            } else if let Some((inp, vc, target, bits, gap)) = pending.next() {
                // `hot` squeezes the arrivals onto a few inputs (high
                // nibble) and the targets onto a few outputs (low nibble).
                let inp = usize::from(inp) % (1 + usize::from(hot >> 4) % nports);
                let vcidx = vc % lanes(&rig, 2 * inp) as u8;
                let shape = Shape {
                    target: usize::from(target) % (1 + usize::from(hot & 15) % rig.targets.len()),
                    reply: bits & 1 != 0,
                    pattern: bits >> 1 & 1,
                    two_flits: bits >> 2 & 1 != 0,
                    dims_done: (bits >> 3) % 3,
                };
                let flits = 1 + u8::from(shape.two_flits);
                let room = reference.in_credits[inp][usize::from(vcidx)] >= flits;
                prop_assert_eq!(rig.fab.wires.can_send(2 * inp, vcidx, flits), room);
                if room {
                    let (pid, out_vcidx) = rig.packet(shape);
                    rig.send(inp, vcidx, pid);
                    reference.in_credits[inp][usize::from(vcidx)] -= flits;
                    reference.in_bufs[inp][usize::from(vcidx)].push_back(Head {
                        ready: now + IN_LATENCY + u64::from(flits) - 1 + IN_PIPELINE,
                        pid: pid.0,
                        flits,
                        pattern: shape.pattern,
                        age: now,
                        out: rig.targets[shape.target].out_port,
                        out_vcidx,
                    });
                    sent += 1;
                }
                wait = gap;
            }
            if let Err(e) = rig.fab.wires.check_credit_balance(&rig.fab.packets) {
                return Err(TestCaseError::fail(format!("cycle {now}: {e}")));
            }
            for p in 0..nports {
                for v in 0..lanes(&rig, 2 * p) {
                    prop_assert_eq!(rig.fab.wires.credits(2 * p, v), reference.in_credits[p][v]);
                    prop_assert_eq!(
                        rig.fab.wires.credits(2 * p + 1, v),
                        reference.out_credits[p][v]
                    );
                }
            }
            testkit::close_cycle(&mut rig.fab);
        }
        prop_assert!(rig.fab.wires.is_quiescent());
        prop_assert_eq!(rig.fab.packets.live(), 0);
        prop_assert_eq!(ref_sa2.len(), sent, "every packet sent was switched once");
        // The production grant streams, read back off the flight recorder.
        let (mut sa1, mut sa2): (Vec<Grant>, Vec<Grant>) = (Vec::new(), Vec::new());
        let events = rig
            .fab
            .probe
            .recorder
            .as_deref()
            .expect("events are on")
            .all_events();
        for e in &events {
            let TraceEventKind::Grant { site, winner, .. } = e.kind else {
                continue;
            };
            let (port, pid) = (
                e.track as usize / 2,
                e.packet.expect("grants name a packet") as u32,
            );
            match site {
                GrantSite::Sa1 => sa1.push((e.cycle, port, winner, usize::MAX, pid)),
                GrantSite::Output => sa2.push((e.cycle, usize::from(winner), u8::MAX, port, pid)),
                GrantSite::Serializer => unreachable!("no serializer here"),
            }
        }
        // An SA1 event names no output and an SA2 event no VC: complete
        // each from the other stage's event of the same cycle and packet.
        let sa1_of = |g: &Grant| {
            sa1.iter()
                .find(|s| (s.0, s.1, s.4) == (g.0, g.1, g.4))
                .copied()
        };
        for g in &mut sa2 {
            g.2 = sa1_of(g).expect("an SA2 winner won SA1 the same cycle").2;
        }
        for s in &mut ref_sa1 {
            s.3 = usize::MAX;
        }
        sa1.sort_unstable();
        sa2.sort_unstable();
        ref_sa1.sort_unstable();
        ref_sa2.sort_unstable();
        prop_assert_eq!(&sa2, &ref_sa2);
        prop_assert_eq!(&sa1, &ref_sa1);
        prop_assert_eq!(rig.fab.grants.sa1 as usize, ref_sa1.len());
        prop_assert_eq!(rig.fab.grants.output as usize, ref_sa2.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One production router, stepped only on the cycles it was woken
        /// for, switches exactly as the plain [`Reference`] allocator that
        /// rescans everything every cycle: the same SA1 picks and the same
        /// `(cycle, input, VC, output)` grants, every packet at the head of
        /// the same output VC on the same cycle, equal credit counters
        /// after every cycle and a clean credit audit — under one- and
        /// two-flit packets of both classes and two patterns, round-robin
        /// and inverse-weighted arbiters at SA1 and SA2, contention squeezed
        /// onto few outputs, shallow buffers and a downstream that pops
        /// erratically (credit starvation).
        ///
        /// Verified to fail when: SA1 sends a sole candidate through its
        /// arbiter, or SA2 skips the arbiter for an uncontested request; a
        /// grant holds its output for one cycle whatever the flit count,
        /// or the busy-output gate is dropped; the router's wake at a held
        /// output's free cycle is dropped, or its `now + 1` wake after a
        /// contested SA1, a contested SA2 or a pop that promoted a ready
        /// head; the ready gate is dropped;
        /// the credit gate is dropped or tests one flit for every packet
        /// (a send without credits panics); SA2 charges every grant
        /// pattern 0's weight, or the lowest requester's pattern instead
        /// of the winner's; the wire layer keeps a popped head's cached
        /// route for the head promoted behind it.
        #[test]
        fn one_router_matches_the_reference_allocator(
            weights in any::<u64>(),
            depth in 2u8..6,
            hot in any::<u8>(),
            arrivals in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), 0u8..3),
                40..160,
            ),
            pops in proptest::collection::vec(any::<u8>(), 16..64),
        ) {
            let weights = (weights & 1 != 0).then_some(weights);
            run_against_reference(weights, depth, hot, &arrivals, &pops)?;
        }
    }
}
