//! The router-energy measurement procedure (Section 4.5).
//!
//! A single processor core streams single-flit packets across the on-chip
//! mesh without contention, at a controlled injection rate `r` and maximized
//! activation rate `a = min(r, 1−r)`. Power is "measured" (from the
//! simulator's activity counters) for a short route and a long route; the
//! difference, divided by the route-length difference and the flit count,
//! isolates the per-flit energy of a single router hop.

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::onchip::DirOrder;
use anton_core::topology::{NodeId, TorusShape};
use anton_sim::driver::{PayloadKind, RateDriver};
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};

use crate::model::EnergyModel;

/// One energy measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyMeasurement {
    /// Injection rate `r` in flits per cycle.
    pub rate: f64,
    /// Mean Hamming distance between successive valid flits.
    pub h_mean: f64,
    /// Mean set payload bits per flit.
    pub n_mean: f64,
    /// Activations per flit (`a/r`).
    pub a_over_r: f64,
    /// Isolated per-router-hop energy per flit (pJ).
    pub energy_pj_per_flit: f64,
}

/// Endpoints whose host routers are 1 and 6 mesh hops from endpoint 0's
/// router under the default layout (endpoint `e` sits on router index `e`).
const SHORT_DST: u8 = 1; // R(1,0): 2 routers on the path
const LONG_DST: u8 = 15; // R(3,3): 7 routers on the path

fn run_route(
    dst: u8,
    rate: (u32, u32),
    payload: PayloadKind,
    packets: u64,
    seed: u64,
) -> (anton_sim::sim::EnergyCounters, u64, usize) {
    // A single-node machine: all routes stay on the mesh.
    let cfg = MachineConfig::new(TorusShape::new(1, 1, 1));
    let params = SimParams {
        trace: TraceConfig {
            energy: true,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg.clone()).params(params).build();
    let src = GlobalEndpoint {
        node: NodeId(0),
        ep: LocalEndpointId(0),
    };
    let dst_ep = GlobalEndpoint {
        node: NodeId(0),
        ep: LocalEndpointId(dst),
    };
    let mut driver = RateDriver::new(src, dst_ep, rate.0, rate.1, payload, packets, seed);
    let outcome = sim.run(&mut driver, packets * 64 + 100_000);
    assert_eq!(
        outcome,
        RunOutcome::Completed,
        "energy stream did not drain"
    );
    let src_r = cfg.chip.endpoint_router(LocalEndpointId(0));
    let dst_r = cfg.chip.endpoint_router(LocalEndpointId(dst));
    let routers = DirOrder::ANTON.router_path(src_r, dst_r).len();
    (sim.router_energy(), packets, routers)
}

/// Measures per-router-hop, per-flit energy at injection rate
/// `rate = (num, den)` with the given payload pattern, using the
/// two-route subtraction of Section 4.5 and pricing the activity with
/// [`EnergyModel::paper`].
pub fn measure_rate(rate: (u32, u32), payload: PayloadKind, packets: u64) -> EnergyMeasurement {
    let (short, n_short, r_short) = run_route(SHORT_DST, rate, payload, packets, 0xE);
    let (long, n_long, r_long) = run_route(LONG_DST, rate, payload, packets, 0xE);
    assert_eq!(n_short, n_long);
    assert!(r_long > r_short, "route lengths must differ");
    let hop_diff = (r_long - r_short) as f64;
    let flits = packets as f64;
    let paper = EnergyModel::paper();
    let e_short = paper.energy_pj(&short);
    let e_long = paper.energy_pj(&long);
    let energy_pj_per_flit = (e_long - e_short) / hop_diff / flits;
    // Per-hop activity statistics, from the differential counters.
    let d_flits = (long.flits - short.flits) as f64 / hop_diff;
    let d_flips = (long.flips - short.flips) as f64 / hop_diff;
    let d_acts = (long.activations.saturating_sub(short.activations)) as f64 / hop_diff;
    let d_bits = (long.set_bits.saturating_sub(short.set_bits)) as f64 / hop_diff;
    EnergyMeasurement {
        rate: f64::from(rate.0) / f64::from(rate.1),
        h_mean: d_flips / d_flits,
        // n is the mean set payload bits per (activating) flit; with the
        // stream never activating (r = 1) the term vanishes.
        n_mean: if d_acts > 1e-9 { d_bits / d_acts } else { 0.0 },
        a_over_r: d_acts / d_flits,
        energy_pj_per_flit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_payload_stream_has_no_flips() {
        let m = measure_rate((1, 2), PayloadKind::Zeros, 400);
        // Identical headers and zero payloads: no datapath flips except the
        // one-time startup transition at each port.
        assert!(m.h_mean.abs() < 0.2, "h = {}", m.h_mean);
        assert!(m.n_mean.abs() < 1e-9);
        // Alternating valid/idle at r = 0.5: one activation per flit.
        assert!((m.a_over_r - 1.0).abs() < 0.05, "a/r = {}", m.a_over_r);
    }

    #[test]
    fn ones_payload_counts_set_bits() {
        let m = measure_rate((1, 2), PayloadKind::Ones, 400);
        assert!((m.n_mean - 128.0).abs() < 1e-9, "n = {}", m.n_mean);
        // Payload constant between flits: no steady-state flips (startup
        // transition only).
        assert!(m.h_mean.abs() < 1.0, "h = {}", m.h_mean);
    }

    #[test]
    fn random_payload_flips_about_half_the_bits() {
        let m = measure_rate((1, 2), PayloadKind::Random, 2000);
        assert!((m.h_mean - 64.0).abs() < 6.0, "h = {}", m.h_mean);
        assert!((m.n_mean - 64.0).abs() < 6.0, "n = {}", m.n_mean);
    }

    #[test]
    fn full_rate_stream_never_reactivates() {
        let m = measure_rate((1, 1), PayloadKind::Zeros, 400);
        assert!(m.a_over_r < 0.05, "a/r = {}", m.a_over_r);
    }

    #[test]
    fn measured_energy_matches_charged_model() {
        // The differential measurement must reproduce the coefficients the
        // activity is priced with.
        let p = EnergyModel::paper();
        let m = measure_rate((1, 2), PayloadKind::Zeros, 800);
        let predicted = p.fixed_pj + p.activation_pj * m.a_over_r;
        assert!(
            (m.energy_pj_per_flit - predicted).abs() / predicted < 0.05,
            "measured {} vs predicted {predicted}",
            m.energy_pj_per_flit
        );
    }
}
