//! Merged observability of the sharded kernel: the per-shard flight
//! recorders and time-series samplers combine into machine-wide exports
//! that agree with the serial kernel's view of the same run.

use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_obs::TraceEventKind;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::shard::ShardedSim;
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

fn trace_params() -> SimParams {
    SimParams {
        trace: TraceConfig {
            events: true,
            ring_capacity: 8192,
            sample_every: 32,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    }
}

fn batch(cfg: &MachineConfig) -> BatchDriver {
    BatchDriver::builder_for(cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(4)
        .seed(9)
        .build()
}

/// One event, stripped of the identifiers that legitimately differ between
/// kernels: sequence numbers (renumbered by the merge) and dense packet ids
/// (each shard allocates its own slab).
type EventKey = (u64, u32, TraceEventKind);

#[test]
fn merged_events_and_timeseries_agree_with_serial() {
    let cfg = MachineConfig::new(TorusShape::cube(2));

    let mut serial = Sim::builder()
        .config(cfg.clone())
        .params(trace_params())
        .build();
    let mut drv = batch(&cfg);
    assert_eq!(serial.run(&mut drv, 1_000_000), RunOutcome::Completed);
    serial.flush_samples();
    let mut serial_events = serial.recorder().expect("tracing on").all_events();
    // The canonical merged order: global time, then component track, then
    // per-track recording order.
    serial_events.sort_by_key(|e| (e.cycle, e.track, e.seq));
    let serial_key: Vec<EventKey> = serial_events
        .iter()
        .map(|e| (e.cycle, e.track, e.kind))
        .collect();
    assert!(!serial_key.is_empty(), "the run recorded no events");
    let serial_ts = serial.timeseries().expect("sampling on").clone();

    for shards in [2usize, 4, 8] {
        let mut sim = ShardedSim::new(
            cfg.clone(),
            SimParams {
                shards,
                ..trace_params()
            },
        );
        let mut drv = batch(&cfg);
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);

        // The merged event stream is the serial stream in canonical order.
        let merged = sim.merged_events();
        let key: Vec<EventKey> = merged.iter().map(|e| (e.cycle, e.track, e.kind)).collect();
        assert_eq!(key, serial_key, "{shards} shards");
        for (i, e) in merged.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "merged seq must be consecutive");
        }

        // The merged series covers the same channels, and its per-window
        // per-shard sums reproduce the machine-wide delivery total.
        let ts = sim.merged_timeseries().expect("sampling on");
        assert_eq!(ts.channels(), serial_ts.channels());
        let delivered = ts
            .channels()
            .iter()
            .position(|(name, _)| name == "delivered_packets")
            .expect("delivered channel registered");
        let total: u64 = ts.windows().iter().map(|w| w.values[delivered]).sum();
        assert_eq!(total, sim.stats().delivered_packets, "{shards} shards");

        // Windows that align with a serial window agree on the injection
        // and delivery counters (per-flit channels are owned per side and
        // audited through `wire_utilizations` instead).
        let injected = ts
            .channels()
            .iter()
            .position(|(name, _)| name == "injected_packets")
            .expect("injected channel registered");
        let mut aligned = 0;
        for w in serial_ts.windows() {
            if let Some(m) = ts
                .windows()
                .iter()
                .find(|m| (m.start, m.end) == (w.start, w.end))
            {
                assert_eq!(m.values[delivered], w.values[delivered]);
                assert_eq!(m.values[injected], w.values[injected]);
                aligned += 1;
            }
        }
        assert!(aligned > 0, "no aligned windows between serial and sharded");
    }
}

/// The canonical export of an event stream: `(cycle, track, recording
/// order)` with sequence numbers reassigned and the per-kernel packet ids
/// blanked, as pretty-printed JSON objects.
fn render(mut events: Vec<anton_obs::TraceEvent>) -> String {
    events.sort_by_key(|e| (e.cycle, e.track, e.seq));
    let mut out = String::new();
    for (seq, mut e) in events.into_iter().enumerate() {
        e.seq = seq as u64;
        e.packet = None;
        out.push_str(&e.to_json().to_pretty_string());
        out.push('\n');
    }
    out
}

/// Retransmissions and frame drops are logged inside the link layer by
/// whichever call put the frame on the link — a wire tick or a send — and
/// a lossy wire is ticked only when one of its events is due. The order in
/// which they reach the recorder must not depend on tick timing: window
/// barriers reschedule wires, so the sharded kernel ticks them on cycles
/// the serial kernel does not.
#[test]
fn lossy_link_events_export_identically_serial_and_sharded() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = |shards| SimParams {
        shards,
        fault: Some(anton_fault::FaultSchedule::uniform(5, 1e-4)),
        ..trace_params()
    };
    let lossy_batch = || {
        BatchDriver::builder_for(&cfg)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(24)
            .seed(9)
            .build()
    };

    let mut serial = Sim::builder().config(cfg.clone()).params(params(1)).build();
    assert_eq!(
        serial.run(&mut lossy_batch(), 1_000_000),
        RunOutcome::Completed
    );
    let rec = serial.recorder().expect("tracing on");
    let mut link_events = 0;
    for t in 0..rec.num_tracks() as u32 {
        assert_eq!(rec.track_dropped(t), 0, "ring too small for the test");
        let cycles: Vec<u64> = rec.track_events(t).map(|e| e.cycle).collect();
        assert!(
            cycles.windows(2).all(|w| w[0] <= w[1]),
            "track {t} ({}) went back in time",
            rec.track_label(t)
        );
        link_events += rec
            .track_events(t)
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::Retransmit | TraceEventKind::FrameDrop { .. }
                )
            })
            .count();
    }
    assert!(link_events > 20, "BER 1e-4 must exercise the link layer");

    let mut sharded = ShardedSim::new(cfg.clone(), params(2));
    assert_eq!(
        sharded.run(&mut lossy_batch(), 1_000_000),
        RunOutcome::Completed
    );
    assert_eq!(render(sharded.merged_events()), render(rec.all_events()));
}
