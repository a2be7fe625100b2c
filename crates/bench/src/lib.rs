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
//! * [`harness`] — typed [`ExperimentSpec`](harness::ExperimentSpec) sweeps
//!   executed across a scoped worker pool, collecting
//!   [`Measurement`](harness::Measurement) records;
//! * [`flags`] — declarative typed command-line flags for the binaries;
//! * plus the shared measurement loop: saturation normalization and
//!   batch-throughput runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod flags;
pub mod harness;

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::ArbiterKind;
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_sim::driver::BatchDriver;
use anton_sim::metrics::{LinkClass, Metrics};
use anton_sim::params::{SimParams, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};
use anton_sim::sim::{RunOutcome, Sim};
use anton_verify::Diagnostic;

pub use cli::{checked_cube, checked_torus, fail_usage, make_pattern, write_output};
pub use flags::{FlagSet, ParsedFlags};
pub use harness::{ExperimentSpec, Measurement, SweepPoint, Value};

/// Effective torus-channel capacity in packets per cycle (single-flit
/// packets).
pub fn torus_capacity() -> f64 {
    f64::from(TORUS_TOKEN_GAIN) / f64::from(TORUS_TOKEN_COST)
}

/// Which arbitration configuration a throughput run uses.
#[derive(Debug, Clone)]
pub enum ArbiterSetup {
    /// Plain round-robin everywhere.
    RoundRobin,
    /// Inverse-weighted arbiters programmed from the given weight set.
    InverseWeighted(ArbiterWeightSet),
}

impl ArbiterSetup {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ArbiterSetup::RoundRobin => "round-robin",
            ArbiterSetup::InverseWeighted(_) => "inverse-weighted",
        }
    }
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

/// Runs one batch-throughput measurement (the Figure 9/10 procedure): all
/// cores send `batch` packets of the blended pattern; throughput is the
/// batch size over the time of the last delivery, normalized by the
/// pattern's analytic saturation rate.
///
/// # Panics
///
/// Panics if the run deadlocks or exceeds the cycle budget.
pub fn run_batch(
    cfg: &MachineConfig,
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
    batch: u64,
    setup: &ArbiterSetup,
    saturation_rate: f64,
    seed: u64,
) -> ThroughputPoint {
    run_batch_detailed(cfg, components, batch, setup, saturation_rate, seed).0
}

/// Like [`run_batch`], but also returns the full typed [`Metrics`] record
/// (link-class utilization, arbiter grant counts) collected from the run,
/// for structured results export.
///
/// # Panics
///
/// Panics if the run deadlocks or exceeds the cycle budget, if the static
/// pre-flight verification inside [`Sim::builder`] rejects the
/// configuration, or if an [`ArbiterSetup::InverseWeighted`] weight set
/// fails its lints (AV016) — every experiment fails fast on a broken setup
/// rather than measuring it.
pub fn run_batch_detailed(
    cfg: &MachineConfig,
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
    batch: u64,
    setup: &ArbiterSetup,
    saturation_rate: f64,
    seed: u64,
) -> (ThroughputPoint, Metrics) {
    run_batch_sharded(cfg, components, batch, setup, saturation_rate, seed, 1)
}

/// [`run_batch_detailed`] on the sharded parallel kernel: the machine is
/// partitioned into `shards` contiguous sub-bricks, each stepped by its own
/// worker thread under bounded-lag synchronization. `shards <= 1` runs the
/// serial kernel. Measurements are byte-identical for every shard count —
/// only wall-clock time changes — which the golden shard-equivalence suite
/// pins.
///
/// # Panics
///
/// As [`run_batch_detailed`]; additionally if the pre-flight lints reject
/// the shard count (AV019: more shards than nodes).
pub fn run_batch_sharded(
    cfg: &MachineConfig,
    components: Vec<(Box<dyn TrafficPattern>, f64)>,
    batch: u64,
    setup: &ArbiterSetup,
    saturation_rate: f64,
    seed: u64,
    shards: usize,
) -> (ThroughputPoint, Metrics) {
    if let ArbiterSetup::InverseWeighted(w) = setup {
        let diags = anton_verify::lint_weights(w);
        assert!(
            diags.is_empty(),
            "arbiter weight set failed verification:\n{}",
            diags.iter().map(|d| format!("{d}\n")).collect::<String>()
        );
    }
    let params = SimParams {
        arbiter: match setup {
            ArbiterSetup::RoundRobin => ArbiterKind::RoundRobin,
            ArbiterSetup::InverseWeighted(w) => ArbiterKind::InverseWeighted { m_bits: w.m_bits },
        },
        ..SimParams::default()
    };
    let mut driver = BatchDriver::builder_for(cfg)
        .components(components)
        .packets_per_endpoint(batch)
        .seed(seed)
        .build();
    let builder = Sim::builder().config(cfg.clone()).params(params);
    // The two kernels differ only in how a simulator is built, programmed and
    // run; the tuple's fields evaluate left to right, so `run` comes first.
    let (outcome, metrics) = if shards > 1 {
        let mut sim = builder.shards(shards).build_sharded();
        if let ArbiterSetup::InverseWeighted(w) = setup {
            sim.configure(|s| s.install_weights(w));
        }
        (sim.run(&mut driver, 600_000_000), sim.metrics())
    } else {
        let mut sim = builder.build();
        if let ArbiterSetup::InverseWeighted(w) = setup {
            sim.install_weights(w);
        }
        (sim.run(&mut driver, 600_000_000), sim.metrics())
    };
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "batch run did not complete: {outcome:?}"
    );
    let point = ThroughputPoint {
        batch,
        normalized: driver.throughput() / saturation_rate,
        cycles: driver.finish_cycle,
        peak_utilization: metrics.link_class(LinkClass::Torus).peak_util / torus_capacity(),
    };
    (point, metrics)
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
            &ArbiterSetup::RoundRobin,
            sat,
            1,
        );
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
