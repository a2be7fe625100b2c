//! The harness determinism contract: executing a sweep across a worker pool
//! must produce *byte-identical* measurements to serial execution — same
//! per-point seeds, same values, same serialized results document.

use anton_arbiter::ArbiterKind;
use anton_bench::harness::{ExperimentSpec, SweepPoint};
use anton_bench::{run_batch, saturation_rate, values, BatchRun};
use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_sim::params::TraceConfig;
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
) -> impl Fn(&SweepPoint) -> Vec<(String, anton_bench::harness::Json)> + Sync + '_ {
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
            (&ArbiterKind::RoundRobin.into(), None),
            sat,
            point.seed,
            TraceConfig::default(),
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
