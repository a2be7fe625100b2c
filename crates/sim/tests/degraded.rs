//! Integration coverage for fault-aware routing: a single external link
//! going Down must be survived via the pre-certified degraded route
//! tables — every unicast packet still delivers exactly once, packet
//! conservation and credit balance hold, and the deadlock watchdog stays
//! silent. The sweep also cross-checks that the table set the simulator
//! installs is exactly the one the standalone certifier approves.

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::route_table::DownLinkSet;
use anton_core::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;
use anton_verify::verify_degraded;

/// A schedule where exactly one link is dead for the whole run.
fn down_forever(node: NodeId, chan: ChanId) -> FaultSchedule {
    FaultSchedule::uniform(3, 0.0).with_fault(
        node,
        chan,
        FaultKind::Down {
            from_cycle: 0,
            until_cycle: u64::MAX,
        },
    )
}

/// Runs a uniform-random unicast batch with one link Down forever and
/// asserts the survival contract: completion, silent watchdog, exact
/// packet conservation, and clean invariants at quiesce. Returns the
/// number of packets that took the degraded tables.
fn assert_survives_single_down(
    shape: TorusShape,
    node: NodeId,
    chan: ChanId,
    packets_per_endpoint: u64,
) -> u64 {
    let cfg = MachineConfig::new(shape);
    let params = SimParams {
        fault: Some(down_forever(node, chan)),
        watchdog_cycles: 20_000,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets_per_endpoint)
        .seed(11)
        .build();
    let outcome = sim.run(&mut drv, 50_000_000);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "single down link {chan:?} at {node:?} on {shape} must not hang the run"
    );
    assert!(
        sim.deadlock_report().is_none(),
        "watchdog must stay silent for a survivable single-link failure"
    );
    assert_eq!(sim.live_packets(), 0);
    assert_eq!(
        sim.stats().injected_packets,
        sim.stats().delivered_packets,
        "every unicast must deliver exactly once around the dead link"
    );
    sim.check_invariants()
        .expect("conservation and credit balance at quiesce");
    sim.stats().rerouted_packets
}

#[test]
fn any_single_down_link_on_cube4_delivers_everything() {
    // Sweep every channel direction at a corner node and an interior
    // node of the 4x4x4 torus. For each position the run must complete
    // with the watchdog silent, and the degraded table set the simulator
    // installed must be exactly one the standalone certifier approves.
    let shape = TorusShape::cube(4);
    let cfg = MachineConfig::new(shape);
    let mut total_rerouted = 0;
    for node in [NodeId(0), NodeId(21)] {
        for chan in ChanId::all() {
            let mut downs = DownLinkSet::empty(shape);
            downs.insert(node, chan);
            let verdict = verify_degraded(&cfg, &downs);
            assert!(
                verdict.certified(),
                "single down link {chan:?} at {node:?} must certify: {:?}",
                verdict.diagnostics
            );
            total_rerouted += assert_survives_single_down(shape, node, chan, 1);
        }
    }
    assert!(
        total_rerouted > 0,
        "uniform traffic must exercise the degraded tables somewhere in the sweep"
    );
}

#[test]
fn single_down_link_on_paper_scale_torus_delivers_everything() {
    // The paper's 8x8x8 machine: one dead external link, all-to-all
    // uniform traffic from all 8192 endpoints. One position suffices at
    // this scale — the cube-4 sweep covers the direction/dateline cases.
    let shape = TorusShape::cube(8);
    let node = NodeId(0);
    let chan = ChanId::from_index(0);
    let cfg = MachineConfig::new(shape);
    let mut downs = DownLinkSet::empty(shape);
    downs.insert(node, chan);
    assert!(
        verify_degraded(&cfg, &downs).certified(),
        "8x8x8 single-link degraded tables must certify"
    );
    let rerouted = assert_survives_single_down(shape, node, chan, 1);
    assert!(
        rerouted > 0,
        "8192 uniform packets must route some traffic across the dead link"
    );
}

#[test]
fn sharded_kernel_matches_serial_under_permanent_outage() {
    // The sharded kernel copies the builder's one certified degraded state
    // into every replica; it must agree with the serial kernel
    // cycle-for-cycle even when the whole run executes on the degraded
    // tables.
    let shape = TorusShape::cube(2);
    let cfg = MachineConfig::new(shape);
    let schedule = down_forever(NodeId(0), ChanId::from_index(0));
    let params = SimParams {
        fault: Some(schedule),
        watchdog_cycles: 20_000,
        ..SimParams::default()
    };

    let mut serial = Sim::builder()
        .config(cfg.clone())
        .params(params.clone())
        .build();
    let mut drv = BatchDriver::builder_for(&serial.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(20)
        .seed(11)
        .build();
    let serial_out = serial.run(&mut drv, 10_000_000);
    assert_eq!(serial_out, RunOutcome::Completed);
    serial.check_invariants().unwrap();

    for shards in [2usize, 4] {
        let mut sharded = Sim::builder()
            .config(cfg.clone())
            .params(params.clone())
            .shards(shards)
            .build_sharded();
        let mut sdrv = BatchDriver::builder_for(&cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(20)
            .seed(11)
            .build();
        let sharded_out = sharded.run(&mut sdrv, 10_000_000);
        assert_eq!(sharded_out, RunOutcome::Completed);
        sharded.check_invariants().unwrap();
        assert_eq!(
            sharded.now(),
            serial.now(),
            "{shards}-shard run must finish on the same cycle as serial"
        );
        let (ss, ds) = (serial.stats(), sharded.stats());
        assert_eq!(ss.delivered_packets, ds.delivered_packets);
        assert_eq!(ss.injected_packets, ds.injected_packets);
        assert_eq!(ss.rerouted_packets, ds.rerouted_packets);
        assert_eq!(ss.flit_hops, ds.flit_hops);
    }
}

/// Two sequential Down windows on the 4×4×4 ring (x = 0, y = 2): node
/// (0,2,3) Z− on slice 0, then node (0,2,0) Z+ on slice 1 — the down sets
/// of `anton_verify`'s `cross_slice_epoch_union_is_rejected`. Each epoch's
/// tables certify alone; their union, which the simulator must install as
/// one, does not. `second` drops the second window.
fn cross_slice_windows(second: bool) -> (MachineConfig, SimParams) {
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let down = |coord, dim, sign, slice, from_cycle, until_cycle| {
        (
            cfg.shape.id(coord),
            ChanId {
                dir: TorusDir::new(dim, sign),
                slice: Slice(slice),
            },
            FaultKind::Down {
                from_cycle,
                until_cycle,
            },
        )
    };
    let mut windows = vec![down(
        NodeCoord::new(0, 2, 3),
        Dim::Z,
        Sign::Minus,
        0,
        0,
        1_500,
    )];
    if second {
        windows.push(down(
            NodeCoord::new(0, 2, 0),
            Dim::Z,
            Sign::Plus,
            1,
            1_500,
            3_000,
        ));
    }
    let mut schedule = FaultSchedule::uniform(3, 0.0);
    for (node, chan, kind) in windows {
        schedule = schedule.with_fault(node, chan, kind);
    }
    let params = SimParams {
        fault: Some(schedule),
        watchdog_cycles: 20_000,
        ..SimParams::default()
    };
    (cfg, params)
}

/// Runs a short uniform batch and returns how many packets took the
/// degraded tables.
fn rerouted_in_short_batch(cfg: MachineConfig, params: SimParams) -> u64 {
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(4)
        .seed(11)
        .build();
    assert_eq!(sim.run(&mut drv, 10_000_000), RunOutcome::Completed);
    sim.check_invariants().unwrap();
    sim.stats().rerouted_packets
}

#[test]
#[should_panic(expected = "AV021")]
fn enforce_refuses_an_uncertifiable_epoch_union() {
    let (cfg, params) = cross_slice_windows(true);
    let _ = Sim::builder().config(cfg).params(params).build();
}

#[test]
fn warn_only_runs_an_uncertifiable_epoch_union_without_tables() {
    // The first window alone certifies, and the batch does cross it.
    let (cfg, params) = cross_slice_windows(false);
    assert!(rerouted_in_short_batch(cfg, params) > 0);
    let (cfg, params) = cross_slice_windows(true);
    let params = SimParams {
        preflight: PreflightMode::WarnOnly,
        ..params
    };
    assert_eq!(rerouted_in_short_batch(cfg, params), 0);
}
