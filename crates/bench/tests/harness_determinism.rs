//! The harness determinism contract: executing a sweep across a worker pool
//! must produce *byte-identical* measurements to serial execution — same
//! per-point seeds, same values, same serialized results document.

use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{run_batch, saturation_rate, values, ArbiterSetup, BatchRun, RunOptions};
use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_traffic::patterns::UniformRandom;

/// A miniature Figure-9-style sweep on a 2×2×2 torus: real simulations, so
/// this checks the whole path (spec → worker pool → Sim → metrics), not
/// just the scheduling plumbing.
fn mini_sweep() -> ExperimentSpec {
    let mut spec = ExperimentSpec::new("determinism_check", 42);
    for batch in [4u64, 8, 12] {
        spec.push_point(values!["batch" => batch]);
    }
    spec
}

fn body(
    cfg: &MachineConfig,
    sat: f64,
) -> impl Fn(&SweepPoint) -> Vec<(String, anton_bench::Value)> + Sync + '_ {
    move |point| {
        let batch = point.int("batch") as u64;
        let BatchRun {
            point: p,
            metrics: m,
            ..
        } = run_batch(
            cfg,
            vec![(Box::new(UniformRandom), 1.0)],
            batch,
            &ArbiterSetup::RoundRobin,
            sat,
            point.seed,
            RunOptions::default(),
        );
        values![
            "normalized" => p.normalized,
            "cycles" => p.cycles,
            "peak_utilization" => p.peak_utilization,
            "flit_hops" => m.stats.flit_hops,
            "sa1_grants" => m.grants.sa1,
        ]
    }
}

#[test]
fn parallel_measurements_are_byte_identical_to_serial() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap();
    let spec = mini_sweep();

    let serial = spec.run(1, body(&cfg, sat));
    let parallel = spec.run(4, body(&cfg, sat));

    // Typed records agree exactly (f64 bit-equality via PartialEq on the
    // identical computation), and so do the serialized bytes.
    assert_eq!(serial, parallel);
    assert_eq!(
        spec.results_json(&serial, &[])
            .to_pretty_string()
            .into_bytes(),
        spec.results_json(&parallel, &[])
            .to_pretty_string()
            .into_bytes()
    );

    // The sweep did real work: cycles grow with batch size.
    let cycles: Vec<f64> = serial.iter().map(|m| m.metric_f64("cycles")).collect();
    assert!(
        cycles[0] > 0.0 && cycles[0] < cycles[2],
        "cycles {cycles:?}"
    );
}

/// The sharded kernel behind `--shards` is measurement-invisible: the same
/// sweep point produces bit-identical throughput numbers, metrics and
/// per-source finish cycles on the serial kernel and on any shard count.
#[test]
fn sharded_measurements_match_serial_exactly() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap();
    let run = |shards| {
        run_batch(
            &cfg,
            vec![(Box::new(UniformRandom), 1.0)],
            8,
            &ArbiterSetup::RoundRobin,
            sat,
            42,
            RunOptions {
                shards,
                ..RunOptions::default()
            },
        )
    };
    let serial_run = run(1);
    let (serial, ms) = (serial_run.point, &serial_run.metrics);
    for shards in [2usize, 4, 8] {
        let sharded_run = run(shards);
        let (sharded, mp) = (sharded_run.point, &sharded_run.metrics);
        assert_eq!(
            serial_run.source_finish, sharded_run.source_finish,
            "{shards} shards"
        );
        assert_eq!(serial.normalized.to_bits(), sharded.normalized.to_bits());
        assert_eq!(serial.cycles, sharded.cycles);
        assert_eq!(
            serial.peak_utilization.to_bits(),
            sharded.peak_utilization.to_bits()
        );
        assert_eq!(ms.stats, mp.stats, "{shards} shards");
        assert_eq!(ms.grants, mp.grants, "{shards} shards");
    }
}

#[test]
fn rerunning_the_spec_reproduces_the_measurements() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap();
    let a = mini_sweep().run(2, body(&cfg, sat));
    let b = mini_sweep().run(3, body(&cfg, sat));
    assert_eq!(
        a, b,
        "same spec, same measurements, regardless of pool size"
    );
}
