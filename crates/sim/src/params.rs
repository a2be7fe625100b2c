//! Simulation parameters and physical constants. The clock, the latency
//! calibration and the torus link rate are [`anton_core::timing`]'s; the
//! clock and the rate are re-exported here.

use anton_arbiter::ArbiterPlan;

pub use anton_core::timing::{CLOCK_GHZ, CYCLE_NS, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};

/// Mesh channel bandwidth: 192 bits per cycle at 1.5 GHz = 288 Gb/s.
pub const MESH_GBPS: f64 = 288.0;
/// Effective torus channel bandwidth per direction (after the link layer).
pub const TORUS_EFFECTIVE_GBPS: f64 = anton_link::EFFECTIVE_GBPS;

/// Router pipeline depth in cycles: RC, VA, SA1, SA2 (Figure 12).
pub const ROUTER_PIPELINE: u64 = 4;
/// Adapter forwarding pipeline depth in cycles.
pub const ADAPTER_PIPELINE: u64 = 2;

/// Observability configuration: the one switch of every instrument of the
/// kernel — the flight recorder, the time-series sampler, the phase
/// profiler, stall attribution, the energy counters and route recording.
///
/// Everything here is off by default. Each instrument's state is allocated
/// at `build()` only when its switch is on, and the simulator checks a
/// single `Option` or flag per hook site, so a default-configured run pays
/// one predictable branch per site and allocates nothing for it. Set the
/// switches before `build()`: an instrument switched on later has no state
/// to count into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record typed events (inject/hop/VC-promotion/grant/retransmit/
    /// deliver/stall) into per-wire flight-recorder ring buffers.
    pub events: bool,
    /// Capacity of each per-wire ring buffer, in events (min 1).
    pub ring_capacity: usize,
    /// Snapshot the dense kernel counters into a time-series window every
    /// this many cycles; `0` disables sampling.
    pub sample_every: u64,
    /// Accumulate per-phase wall-clock nanoseconds: the one switch of the
    /// phase profiler (`PHASE_NS`, `ShardedSim::phase_ns`).
    pub profile: bool,
    /// Attribute stall cycles: whenever a buffered head fails to advance,
    /// classify the cause (no credit, lost SA1/SA2, output or serializer
    /// busy, retransmit backlog, dead-link drain) into dense per-link/
    /// per-VC counters (see [`anton_obs::stall`]). Off by default; the
    /// counters never influence simulation behavior.
    pub stalls: bool,
    /// Count router activity for the Section 4.5 energy model — flits,
    /// datapath bit flips, activations and set payload bits at every router
    /// output (`Sim::router_energy`). A packet's payload is kept, in the
    /// packet slab's side table, only while this or `routes` is on.
    pub energy: bool,
    /// Record every packet's link-level route into its delivery
    /// (`PacketDelivery::route_log`).
    pub routes: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            events: false,
            ring_capacity: 256,
            sample_every: 0,
            profile: false,
            stalls: false,
            energy: false,
            routes: false,
        }
    }
}

/// What the builder's one pre-run gate (`build()` / `build_sharded()`) does
/// with its report: the `anton-verify` lints, the symbolic deadlock
/// certification of the configured VC policy, the degraded route tables of
/// the fault schedule's `Down` epochs and the arbiter weight lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreflightMode {
    /// Run the verifier and panic on any error-severity diagnostic before
    /// the simulation starts. Warnings go to stderr. This is the default:
    /// a config the verifier rejects would deadlock or misbehave anyway,
    /// and the static report is far more actionable than a watchdog trip.
    #[default]
    Enforce,
    /// Run the verifier, print every diagnostic to stderr, and continue
    /// without any degraded route tables it rejected. For experiments that *intend* to run a broken configuration (e.g.
    /// demonstrating that a single-VC torus deadlocks).
    WarnOnly,
    /// Skip verification entirely; the static verdict stays `Unknown` and
    /// no degraded route tables are installed.
    Off,
}

/// Top-level simulation parameters.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Input buffer depth per VC on on-chip wires, in flits.
    pub buffer_depth: u8,
    /// Input buffer depth per VC at torus-channel receivers, in flits.
    /// Must cover the round-trip bandwidth-delay product of the external
    /// link (⌈2 × 44 cycles × 14/45 flits/cycle⌉ = 28 flits,
    /// `anton_verify::lint::MIN_TORUS_BDP_FLITS`) for a single VC to
    /// sustain full channel bandwidth.
    pub torus_buffer_depth: u8,
    /// RNG seed for routing randomization.
    pub seed: u64,
    /// Cycles without any flit movement (while packets are in flight) after
    /// which the watchdog declares deadlock.
    pub watchdog_cycles: u64,
    /// Fault schedule for the external torus links. `None` (the default)
    /// keeps every torus channel an ideal fixed-latency wire — the
    /// simulator's behavior is bit-for-bit unchanged. `Some` installs a
    /// lossy go-back-N link shim on every torus wire, driven by the
    /// schedule's bit-error rate and per-link outage windows.
    pub fault: Option<anton_fault::FaultSchedule>,
    /// Observability: every instrument's switch. All off by default; see
    /// [`TraceConfig`].
    pub trace: TraceConfig,
    /// Static pre-flight verification policy (see [`PreflightMode`]).
    pub preflight: PreflightMode,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            buffer_depth: 8,
            torus_buffer_depth: 32,
            seed: 0xA2701,
            watchdog_cycles: 50_000,
            fault: None,
            trace: TraceConfig::default(),
            preflight: PreflightMode::default(),
        }
    }
}

impl SimParams {
    /// Projects these parameters and the arbitration plan they run under
    /// into the lint engine's view ([`anton_verify::ParamsView`]);
    /// `anton-verify` cannot depend on this crate, so the mapping lives
    /// here.
    pub fn verify_view(&self, plan: &ArbiterPlan) -> anton_verify::ParamsView<'_> {
        anton_verify::ParamsView {
            buffer_depth: self.buffer_depth,
            torus_buffer_depth: self.torus_buffer_depth,
            // The view holds one width: an out-of-range one when any site
            // has it, so AV016 sees every inverse-weighted site.
            arbiter_m_bits: plan
                .iw_bits()
                .find(|m| !(2..=16).contains(m))
                .or_else(|| plan.iw_bits().next()),
            watchdog_cycles: self.watchdog_cycles,
            fault: self.fault.as_ref(),
            trace_events: self.trace.events,
            trace_ring_capacity: self.trace.ring_capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_rate_matches_effective_bandwidth() {
        let rate = f64::from(TORUS_TOKEN_GAIN) / f64::from(TORUS_TOKEN_COST);
        let gbps = rate * MESH_GBPS;
        assert!((gbps - TORUS_EFFECTIVE_GBPS).abs() < 1e-9);
    }

    #[test]
    fn latency_conversions_round_trip() {
        use anton_core::timing::{HANDLER_DISPATCH_CYCLES, SW_INJECT_CYCLES, TORUS_LINK_CYCLES};
        assert_eq!(TORUS_LINK_CYCLES, 44);
        assert_eq!(SW_INJECT_CYCLES, 39);
        assert_eq!(HANDLER_DISPATCH_CYCLES, 35);
        assert!((3.0 * CYCLE_NS - 2.0).abs() < 1e-12);
    }
}
