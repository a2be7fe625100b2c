//! Stall attribution and the congestion analyzer: the counters are exact,
//! shard-invariant, and explain a saturated run's bottleneck.

use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_obs::{StallCause, StallTable};
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

fn stall_params() -> SimParams {
    SimParams {
        trace: TraceConfig {
            stalls: true,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    }
}

/// Everything a congestion report is derived from: each stalled wire's
/// per-cause and per-VC cycles, and the blocker edges.
type TableView = (Vec<(u32, Vec<u64>, Vec<(u8, u64)>)>, Vec<((u32, u32), u64)>);

fn table_view(t: &StallTable) -> TableView {
    let wires = t
        .stalled_wires()
        .into_iter()
        .map(|w| (w, t.wire_cause_cycles(w).to_vec(), t.wire_vc_cycles(w)))
        .collect();
    let edges = t.edges().iter().map(|(&k, &v)| (k, v)).collect();
    (wires, edges)
}

fn batch(cfg: &MachineConfig, packets: u64) -> BatchDriver {
    BatchDriver::builder_for(cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets)
        .seed(9)
        .build()
}

#[test]
fn stall_attribution_is_byte_identical_serial_vs_sharded() {
    let cfg = MachineConfig::new(TorusShape::cube(2));

    let mut serial = Sim::builder()
        .config(cfg.clone())
        .params(stall_params())
        .build();
    let mut drv = batch(&cfg, 6);
    assert_eq!(serial.run(&mut drv, 1_000_000), RunOutcome::Completed);
    serial.flush_stalls();
    let serial_table = serial.stall_table().expect("stall attribution on");
    let serial_total = serial_table.total_stall_cycles();
    assert!(serial_total > 0, "a saturating batch must attribute stalls");
    let serial_view = table_view(serial_table);

    for shards in [2usize, 4] {
        let mut sim = Sim::builder()
            .config(cfg.clone())
            .params(stall_params())
            .shards(shards)
            .build_sharded();
        let mut drv = batch(&cfg, 6);
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        let merged = sim.merged_stalls().expect("stall attribution on");
        assert_eq!(merged.total_stall_cycles(), serial_total, "{shards} shards");
        assert_eq!(table_view(&merged), serial_view, "{shards} shards");
    }
}

#[test]
fn hotspot_totals_sum_and_the_serializer_class_leads_when_saturated() {
    // The probe's headline configuration: a saturated uniform batch on the
    // 4×4×4 machine. The inter-node serializer interface (the
    // `router_to_chan` wires feeding the 45-cost/14-gain token buckets) is
    // the narrowest resource, so its class must rank first.
    let cfg = MachineConfig::new(TorusShape::cube(4));
    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(stall_params())
        .build();
    let mut drv = BatchDriver::builder_for(&cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(24)
        .seed(42)
        .build();
    assert_eq!(sim.run(&mut drv, 100_000_000), RunOutcome::Completed);
    sim.flush_stalls();
    let report = sim.congestion_report().expect("stall attribution on");

    let hotspot_sum: u64 = report.hotspots.iter().map(|h| h.total()).sum();
    assert_eq!(hotspot_sum, report.total_stall_cycles);
    assert_eq!(
        report.total_stall_cycles,
        sim.stall_table().unwrap().total_stall_cycles()
    );
    assert_eq!(
        report.class_totals[0].0, "router_to_chan",
        "full ranking: {:?}",
        report.class_totals
    );
    assert!(
        report.cause_totals[StallCause::SerializerBusy.index()] > 0
            && report.cause_totals[StallCause::NoCredit.index()] > 0,
        "saturation shows both serializer and credit stalls: {:?}",
        report.cause_totals
    );
    // Credit stalls carry blocker edges, so backpressure chains resolve.
    assert!(!report.roots.is_empty(), "root blockers derived");
}

#[test]
fn stall_attribution_is_off_by_default_and_phase_profile_gates() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let mut plain = Sim::builder().config(cfg.clone()).build();
    let mut drv = batch(&cfg, 2);
    assert_eq!(plain.run(&mut drv, 1_000_000), RunOutcome::Completed);
    assert!(plain.stall_table().is_none());
    assert!(plain.congestion_report().is_none());

    // Sharded, profiler off: no phase report.
    let mut off = Sim::builder().config(cfg.clone()).shards(2).build_sharded();
    let mut drv = batch(&cfg, 2);
    assert_eq!(off.run(&mut drv, 1_000_000), RunOutcome::Completed);
    assert!(off.phase_ns().is_none());
    assert!(off.merged_stalls().is_none());

    // Sharded, profiler on: one four-phase breakdown per shard, each
    // accounting for some of the worker's wall clock.
    let mut on = Sim::builder()
        .config(cfg.clone())
        .params(SimParams {
            trace: TraceConfig {
                profile: true,
                ..TraceConfig::default()
            },
            ..SimParams::default()
        })
        .shards(2)
        .build_sharded();
    let mut drv = batch(&cfg, 2);
    assert_eq!(on.run(&mut drv, 1_000_000), RunOutcome::Completed);
    let phases = on.phase_ns().expect("profiler on");
    assert_eq!(phases.len(), 2);
    for p in phases {
        assert!(p.iter().sum::<u64>() > 0, "each worker accumulated time");
    }
}
