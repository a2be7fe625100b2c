//! # anton-bench
//!
//! Experiment runners regenerating every table and figure of
//! *"Unifying on-chip and inter-node switching within the Anton 2 network"*
//! (see DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
//! results). Each `src/bin/figN_*.rs` / `tableN_*.rs` binary prints the
//! rows or series of the corresponding paper exhibit.
//!
//! This library hosts the shared experiment infrastructure:
//!
//! * [`harness`] — typed [`harness::ExperimentSpec`] sweeps executed across
//!   a scoped worker pool, collecting [`harness::Measurement`] records;
//! * [`flags`] — declarative typed command-line flags for the binaries;
//! * plus the shared measurement loop: saturation normalization and the
//!   one batch runner, [`run_batch`], with any instruments attached (the
//!   `probe` binary is its instrumented view).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod flags;
pub mod harness;

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::ArbiterPlan;
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_obs::{CongestionReport, FlightRecorder, TimeSeries};
use anton_sim::driver::BatchDriver;
use anton_sim::metrics::{LinkClass, Metrics};
use anton_sim::params::{SimParams, TraceConfig, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};
use anton_sim::sim::{Delivery, Driver, RunOutcome, Sim};
use anton_verify::Diagnostic;

pub use cli::{checked_cube, checked_torus, fail_usage, make_pattern, require, write_output};
pub use flags::{FlagSet, ParsedFlags};
pub use harness::{ExperimentSpec, Measurement, SweepPoint};

/// Effective torus-channel capacity in packets per cycle (single-flit
/// packets).
pub fn torus_capacity() -> f64 {
    f64::from(TORUS_TOKEN_GAIN) / f64::from(TORUS_TOKEN_COST)
}

/// Result of one batch-throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Packets per endpoint in the batch.
    pub batch: u64,
    /// Measured throughput normalized so 1.0 = full torus-channel
    /// utilization for the pattern.
    pub normalized: f64,
    /// Completion time in cycles.
    pub cycles: u64,
    /// Peak torus-channel utilization observed (fraction of effective
    /// bandwidth).
    pub peak_utilization: f64,
}

/// Everything one batch run produced.
#[derive(Debug)]
pub struct BatchRun {
    /// The throughput measurement.
    pub point: ThroughputPoint,
    /// The typed metrics record of the whole run.
    pub metrics: Metrics,
    /// The cycle each source endpoint's last packet was delivered, by
    /// endpoint index.
    pub source_finish: Vec<u64>,
    /// What the instruments the run's [`TraceConfig`] turned on observed.
    pub instruments: Instruments,
}

/// What a batch run's instruments observed; each is `None` when it was off.
#[derive(Debug)]
pub struct Instruments {
    /// The sampled windows, the last one closed at the end of the run
    /// ([`TraceConfig::sample_every`]).
    pub timeseries: Option<TimeSeries>,
    /// The stall analysis ([`TraceConfig::stalls`]).
    pub congestion: Option<CongestionReport>,
    /// The flight recorder ([`TraceConfig::events`]).
    pub recorder: Option<FlightRecorder>,
}

/// A batch driver that also records the cycle each source's last packet
/// lands.
struct SourceFinish {
    inner: BatchDriver,
    remaining: Vec<u64>,
    finish: Vec<u64>,
}

impl Driver for SourceFinish {
    fn pre_cycle(&mut self, sim: &mut Sim) {
        self.inner.pre_cycle(sim)
    }
    fn on_delivery(&mut self, sim: &mut Sim, d: &Delivery) {
        if let Delivery::Packet(p) = d {
            let i = sim.cfg.endpoint_index(p.src);
            self.remaining[i] -= 1;
            if self.remaining[i] == 0 {
                self.finish[i] = sim.now();
            }
        }
        self.inner.on_delivery(sim, d)
    }
    fn done(&self, sim: &Sim) -> bool {
        self.inner.done(sim)
    }
}

/// Runs one batch-throughput measurement (the Figure 9/10 procedure): all
/// cores send `batch` packets of the blended pattern; throughput is the
/// batch size over the time of the last delivery, normalized by the
/// pattern's analytic saturation rate. `(plan, weights)` is the
/// arbitration: the plan, and the weight set programmed at its weighted
/// sites. The simulator keeps the [`SimParams`] default seed; `seed` drives
/// the traffic, and `trace` turns the instruments on.
///
/// # Panics
///
/// Panics if `batch` is zero, if the run deadlocks or exceeds the cycle
/// budget, or if the pre-run gate of [`Sim::builder`] rejects the
/// configuration or a weight set the plan does not take (AV016) — every
/// experiment fails fast on a broken setup rather than measuring it.
pub fn run_batch(
    cfg: &MachineConfig,
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
    batch: u64,
    (plan, weights): (&ArbiterPlan, Option<&ArbiterWeightSet>),
    saturation_rate: f64,
    seed: u64,
    trace: TraceConfig,
) -> BatchRun {
    let params = SimParams {
        arbiter: plan.clone(),
        trace,
        ..SimParams::default()
    };
    let n = cfg.num_endpoints();
    let mut driver = SourceFinish {
        inner: BatchDriver::builder_for(cfg)
            .components(components)
            .packets_per_endpoint(batch)
            .seed(seed)
            .build(),
        remaining: vec![batch; n],
        finish: vec![0; n],
    };
    let mut builder = Sim::builder().config(cfg.clone()).params(params);
    if let Some(w) = weights {
        builder = builder.weights(w.clone());
    }
    let mut sim = builder.build();
    let outcome = sim.run(&mut driver, 600_000_000);
    sim.flush_samples();
    sim.flush_stalls();
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "batch run did not complete: {outcome:?}"
    );
    let metrics = sim.metrics();
    let point = ThroughputPoint {
        batch,
        normalized: driver.inner.throughput() / saturation_rate,
        cycles: driver.inner.finish_cycle,
        peak_utilization: metrics.link_class(LinkClass::Torus).peak_util / torus_capacity(),
    };
    BatchRun {
        point,
        metrics,
        source_finish: driver.finish,
        instruments: Instruments {
            timeseries: sim.timeseries().cloned(),
            congestion: sim.congestion_report(),
            recorder: sim.recorder().cloned(),
        },
    }
}

/// Computes a pattern's analytic saturation injection rate on a machine, or
/// AV104 if the pattern loads no torus channel there (one node, or a
/// pattern that never leaves its node) and so never saturates.
pub fn saturation_rate(
    cfg: &MachineConfig,
    pattern: &dyn TrafficPattern,
) -> Result<f64, Diagnostic> {
    let analysis = LoadAnalysis::compute(cfg, pattern);
    if analysis.max_torus_load() > 0.0 {
        return Ok(analysis.saturation_injection_rate(torus_capacity()));
    }
    Err(Diagnostic::error(
        "AV104",
        format!(
            "{} traffic places no load on the torus channels of a {} machine",
            pattern.name(),
            cfg.shape
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_arbiter::ArbiterKind;
    use anton_core::topology::TorusShape;
    use anton_traffic::patterns::{Tornado, UniformRandom};

    #[test]
    fn capacity_is_effective_over_mesh() {
        assert!((torus_capacity() - 89.6 / 288.0).abs() < 1e-12);
    }

    #[test]
    fn batch_run_completes_on_tiny_machine() {
        let cfg = MachineConfig::new(TorusShape::cube(2));
        let sat = saturation_rate(&cfg, &UniformRandom).unwrap();
        let p = run_batch(
            &cfg,
            vec![(Box::new(UniformRandom), 1.0)],
            20,
            (&ArbiterKind::RoundRobin.into(), None),
            sat,
            1,
            TraceConfig::default(),
        )
        .point;
        assert!(
            p.normalized > 0.1 && p.normalized < 1.2,
            "normalized {}",
            p.normalized
        );
        assert!(p.cycles > 0);
    }

    #[test]
    fn a_pattern_that_loads_no_torus_channel_has_no_saturation_rate() {
        let one_node = MachineConfig::new(TorusShape::cube(1));
        let err = saturation_rate(&one_node, &UniformRandom).unwrap_err();
        assert_eq!(err.code, "AV104");
        // The tornado offset k/2 − 1 vanishes at k = 2: every packet stays home.
        let cfg = MachineConfig::new(TorusShape::cube(2));
        assert_eq!(saturation_rate(&cfg, &Tornado).unwrap_err().code, "AV104");
    }
}
