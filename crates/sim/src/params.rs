//! Simulation parameters and physical constants.

use anton_arbiter::ArbiterKind;

/// Core clock frequency (GHz): the on-chip network runs at 1.5 GHz.
pub const CLOCK_GHZ: f64 = 1.5;
/// Nanoseconds per core clock cycle.
pub const CYCLE_NS: f64 = 1.0 / CLOCK_GHZ;
/// Mesh channel bandwidth: 192 bits per cycle at 1.5 GHz = 288 Gb/s.
pub const MESH_GBPS: f64 = 288.0;
/// Effective torus channel bandwidth per direction (after the link layer).
pub const TORUS_EFFECTIVE_GBPS: f64 = 89.6;

/// Torus serializer cost accounting: a flit costs [`TORUS_TOKEN_COST`] tokens
/// and every cycle earns [`TORUS_TOKEN_GAIN`]; the long-run rate is
/// `14/45 = 89.6/288` flits per cycle, exactly the effective bandwidth.
pub const TORUS_TOKEN_COST: u32 = 45;
/// Tokens earned per cycle by a torus serializer.
pub const TORUS_TOKEN_GAIN: u32 = 14;

/// Router pipeline depth in cycles: RC, VA, SA1, SA2 (Figure 12).
pub const ROUTER_PIPELINE: u64 = 4;
/// Adapter forwarding pipeline depth in cycles.
pub const ADAPTER_PIPELINE: u64 = 2;

/// Latency calibration parameters, in nanoseconds where noted.
///
/// Defaults land the minimum software-to-software one-way latency near the
/// paper's 99 ns and the per-hop cost near 39 ns (Figures 11–12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyParams {
    /// Software send overhead: from the decision to send until the packet
    /// enters the endpoint adapter (ns).
    pub sw_inject_ns: f64,
    /// Hardware synchronization + software handler dispatch overhead at the
    /// receiver (ns).
    pub handler_dispatch_ns: f64,
    /// SerDes (TX + RX) plus wire flight time per torus hop (ns).
    pub serdes_wire_ns: f64,
}

impl Default for LatencyParams {
    fn default() -> LatencyParams {
        LatencyParams {
            sw_inject_ns: 26.0,
            handler_dispatch_ns: 23.0,
            serdes_wire_ns: 29.0,
        }
    }
}

impl LatencyParams {
    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * CYCLE_NS
    }

    /// Torus link latency in whole cycles (SerDes + wire).
    pub fn torus_link_cycles(&self) -> u64 {
        (self.serdes_wire_ns / CYCLE_NS).round() as u64
    }

    /// Handler dispatch overhead in whole cycles.
    pub fn handler_dispatch_cycles(&self) -> u64 {
        (self.handler_dispatch_ns / CYCLE_NS).round() as u64
    }

    /// Software injection overhead in whole cycles.
    pub fn sw_inject_cycles(&self) -> u64 {
        (self.sw_inject_ns / CYCLE_NS).round() as u64
    }
}

/// Per-flit energy coefficients (pJ), the model of Section 4.5:
///
/// `E = fixed + per_flip·h + (activation + per_set_bit·n)(a/r)`
///
/// The simulator charges energy per event with these coefficients; the
/// Figure 13 experiment re-fits the model to the simulated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Data-independent energy per flit traversal (arbitration, control).
    pub fixed_pj: f64,
    /// Energy per datapath bit flip between successive flits.
    pub per_flip_pj: f64,
    /// Energy per idle→valid activation event (valid signals, clock gates).
    pub activation_pj: f64,
    /// Additional activation energy per set payload bit.
    pub per_set_bit_pj: f64,
}

impl Default for EnergyParams {
    fn default() -> EnergyParams {
        // The paper's fitted coefficients (Section 4.5).
        EnergyParams {
            fixed_pj: 42.7,
            per_flip_pj: 0.837,
            activation_pj: 34.4,
            per_set_bit_pj: 0.250,
        }
    }
}

/// Observability configuration: the flight recorder, the time-series
/// sampler, and the phase profiler.
///
/// Everything here is off by default and the simulator checks a single
/// `Option` per hook site, so a default-configured run pays one predictable
/// branch per site and allocates nothing.
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
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            events: false,
            ring_capacity: 256,
            sample_every: 0,
            profile: false,
            stalls: false,
        }
    }
}

impl TraceConfig {
    /// A config with event recording on at the given ring capacity.
    pub fn events(ring_capacity: usize) -> TraceConfig {
        TraceConfig {
            events: true,
            ring_capacity,
            ..TraceConfig::default()
        }
    }

    /// A config with time-series sampling on at the given period.
    pub fn sampled(every: u64) -> TraceConfig {
        TraceConfig {
            sample_every: every,
            ..TraceConfig::default()
        }
    }

    /// A config with stall attribution on.
    pub fn stalls() -> TraceConfig {
        TraceConfig {
            stalls: true,
            ..TraceConfig::default()
        }
    }

    /// `true` when any tracing, sampling, or stall attribution is enabled.
    pub fn any(&self) -> bool {
        self.events || self.sample_every > 0 || self.stalls
    }
}

/// What simulator construction (`Sim::builder().build()`) does with the result of the
/// static pre-flight verification (`anton-verify` lints plus symbolic
/// deadlock certification of the configured VC policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreflightMode {
    /// Run the verifier and panic on any error-severity diagnostic before
    /// the simulation starts. Warnings go to stderr. This is the default:
    /// a config the verifier rejects would deadlock or misbehave anyway,
    /// and the static report is far more actionable than a watchdog trip.
    #[default]
    Enforce,
    /// Run the verifier, print every diagnostic to stderr, and continue.
    /// For experiments that *intend* to run a broken configuration (e.g.
    /// demonstrating that a single-VC torus deadlocks).
    WarnOnly,
    /// Skip verification entirely; the static verdict stays `Unknown`.
    Off,
}

/// Top-level simulation parameters.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Input buffer depth per VC on on-chip wires, in flits.
    pub buffer_depth: u8,
    /// Input buffer depth per VC at torus-channel receivers, in flits.
    /// Must cover the round-trip bandwidth-delay product of the external
    /// link (≈ 2 × 36 cycles × 14/45 flits/cycle ≈ 23 flits) for a single
    /// VC to sustain full channel bandwidth.
    pub torus_buffer_depth: u8,
    /// Which arbiter sits at each router output port.
    pub arbiter: ArbiterKind,
    /// Latency calibration.
    pub latency: LatencyParams,
    /// Energy coefficients.
    pub energy: EnergyParams,
    /// Collect energy/activity counters (small per-transfer cost).
    pub track_energy: bool,
    /// Collect per-VC queue-occupancy histograms for
    /// [`Metrics`](crate::metrics::Metrics) (allocates tracker state on
    /// every wire and adds per-push/pop bookkeeping; off by default so the
    /// plain throughput path stays untouched).
    pub collect_metrics: bool,
    /// RNG seed for routing randomization.
    pub seed: u64,
    /// Cycles without any flit movement (while packets are in flight) after
    /// which the watchdog declares deadlock.
    pub watchdog_cycles: u64,
    /// Fault schedule for the external torus links. `None` (the default)
    /// keeps every torus channel an ideal fixed-latency wire — the
    /// simulator's behavior is bit-for-bit unchanged. `Some` installs a
    /// lossy go-back-N link shim on every torus wire, driven by the
    /// schedule's per-link BER and outage windows.
    pub fault: Option<anton_fault::FaultSchedule>,
    /// Observability: flight recorder, time-series sampler, profiler.
    /// All off by default; see [`TraceConfig`].
    pub trace: TraceConfig,
    /// Static pre-flight verification policy (see [`PreflightMode`]).
    pub preflight: PreflightMode,
    /// Worker shards for the parallel kernel: `1` (the default) runs the
    /// serial kernel; `N > 1` partitions the torus into `N` contiguous
    /// sub-bricks stepped by one worker thread each (see
    /// [`ShardedSim`](crate::shard::ShardedSim)). Output is byte-identical
    /// for every value.
    pub shards: usize,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            buffer_depth: 8,
            torus_buffer_depth: 32,
            arbiter: ArbiterKind::RoundRobin,
            latency: LatencyParams::default(),
            energy: EnergyParams::default(),
            track_energy: false,
            collect_metrics: false,
            seed: 0xA2701,
            watchdog_cycles: 50_000,
            fault: None,
            trace: TraceConfig::default(),
            preflight: PreflightMode::default(),
            shards: 1,
        }
    }
}

impl SimParams {
    /// Projects these parameters into the lint engine's view
    /// ([`anton_verify::ParamsView`]); `anton-verify` cannot depend on this
    /// crate, so the mapping lives here. [`ParamsView::reference`] mirrors
    /// [`SimParams::default`]; a test below pins the two in sync.
    ///
    /// [`ParamsView::reference`]: anton_verify::ParamsView::reference
    pub fn verify_view(&self) -> anton_verify::ParamsView<'_> {
        anton_verify::ParamsView {
            buffer_depth: self.buffer_depth,
            torus_buffer_depth: self.torus_buffer_depth,
            sw_inject_ns: self.latency.sw_inject_ns,
            handler_dispatch_ns: self.latency.handler_dispatch_ns,
            serdes_wire_ns: self.latency.serdes_wire_ns,
            torus_link_cycles: self.latency.torus_link_cycles(),
            arbiter_m_bits: match self.arbiter {
                ArbiterKind::InverseWeighted { m_bits } => Some(m_bits),
                _ => None,
            },
            watchdog_cycles: self.watchdog_cycles,
            fault: self.fault.as_ref(),
            trace_events: self.trace.events,
            trace_ring_capacity: self.trace.ring_capacity,
            energy_fixed_pj: self.energy.fixed_pj,
            energy_per_flip_pj: self.energy.per_flip_pj,
            energy_activation_pj: self.energy.activation_pj,
            energy_per_set_bit_pj: self.energy.per_set_bit_pj,
            shards: self.shards,
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
        let lp = LatencyParams::default();
        assert_eq!(lp.torus_link_cycles(), 44);
        assert!((lp.cycles_to_ns(3) - 2.0).abs() < 1e-12);
    }

    /// `ParamsView::reference` (used by `verify_config` without a
    /// simulator) must stay identical to the default parameters' view.
    #[test]
    fn verify_view_matches_reference() {
        let params = SimParams::default();
        let view = params.verify_view();
        let r = anton_verify::ParamsView::reference();
        assert_eq!(view.buffer_depth, r.buffer_depth);
        assert_eq!(view.torus_buffer_depth, r.torus_buffer_depth);
        assert_eq!(view.sw_inject_ns, r.sw_inject_ns);
        assert_eq!(view.handler_dispatch_ns, r.handler_dispatch_ns);
        assert_eq!(view.serdes_wire_ns, r.serdes_wire_ns);
        assert_eq!(view.torus_link_cycles, r.torus_link_cycles);
        assert_eq!(view.arbiter_m_bits, r.arbiter_m_bits);
        assert_eq!(view.watchdog_cycles, r.watchdog_cycles);
        assert!(view.fault.is_none() && r.fault.is_none());
        assert_eq!(view.trace_events, r.trace_events);
        assert_eq!(view.trace_ring_capacity, r.trace_ring_capacity);
        assert_eq!(view.energy_fixed_pj, r.energy_fixed_pj);
        assert_eq!(view.energy_per_flip_pj, r.energy_per_flip_pj);
        assert_eq!(view.energy_activation_pj, r.energy_activation_pj);
        assert_eq!(view.energy_per_set_bit_pj, r.energy_per_set_bit_pj);
        assert_eq!(view.shards, r.shards);
    }
}
