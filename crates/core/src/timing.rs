//! The core clock and the latency calibration of Figures 11–12.
//!
//! The paper reports one machine, so these are constants, not parameters.
//! The simulator times software injection, handler dispatch and every torus
//! hop with them; the lint engine's torus buffer check (AV008) and
//! `anton-fault`'s compile-time check of the go-back-N timeout read the
//! torus round trip from [`TORUS_LINK_CYCLES`]. The calibration lands the minimum
//! software-to-software one-way latency near the paper's 99 ns and the
//! per-hop cost near 39 ns.

/// Core clock frequency (GHz): the on-chip network runs at 1.5 GHz.
pub const CLOCK_GHZ: f64 = 1.5;
/// Nanoseconds per core clock cycle.
pub const CYCLE_NS: f64 = 1.0 / CLOCK_GHZ;

/// Software send overhead: from the decision to send until the packet
/// enters the endpoint adapter (ns).
pub const SW_INJECT_NS: f64 = 26.0;
/// Hardware synchronization + software handler dispatch overhead at the
/// receiver (ns).
pub const HANDLER_DISPATCH_NS: f64 = 23.0;
/// SerDes (TX + RX) plus wire flight time per torus hop (ns).
pub const SERDES_WIRE_NS: f64 = 29.0;

/// [`SW_INJECT_NS`] in whole cycles.
pub const SW_INJECT_CYCLES: u64 = ns_to_cycles(SW_INJECT_NS);
/// [`HANDLER_DISPATCH_NS`] in whole cycles.
pub const HANDLER_DISPATCH_CYCLES: u64 = ns_to_cycles(HANDLER_DISPATCH_NS);
/// Torus link latency in whole cycles: [`SERDES_WIRE_NS`], rounded.
pub const TORUS_LINK_CYCLES: u64 = ns_to_cycles(SERDES_WIRE_NS);

/// Torus serializer cost accounting: a flit costs [`TORUS_TOKEN_COST`] tokens
/// and every cycle earns [`TORUS_TOKEN_GAIN`]; the long-run rate is
/// `14/45 = 89.6/288` flits per cycle, exactly the effective bandwidth of a
/// torus channel. The channel adapter's serializer and the lossy-link shim
/// both meter with it.
pub const TORUS_TOKEN_COST: u32 = 45;
/// Tokens earned per cycle by a torus serializer.
pub const TORUS_TOKEN_GAIN: u32 = 14;

/// Nearest whole number of cycles to `ns` nanoseconds.
const fn ns_to_cycles(ns: f64) -> u64 {
    (ns / CYCLE_NS).round() as u64
}
