//! The configuration lint engine.
//!
//! Every check emits a typed [`Diagnostic`] with a stable code. Codes
//! `AV0xx` cover machine configuration and simulation parameters; `AV1xx`
//! are reserved for command-line usage errors raised by the experiment
//! binaries. The full table lives in `docs/DESIGN.md`; in brief:
//!
//! | code  | severity | check |
//! |-------|----------|-------|
//! | AV001 | error    | VC budget below the `n+1` the shape needs |
//! | AV002 | error    | channel-dependency cycle (symbolic verifier) |
//! | AV003 | error    | dateline promotion disabled on a wrapping torus |
//! | AV004 | —        | retired, not reused (a `DirOrder` converges by construction) |
//! | AV005 | —        | retired, not reused (a `DirOrder`'s mesh graph is acyclic by construction) |
//! | AV006 | error    | VC count does not fit the 16-entry wire mask |
//! | AV007 | error    | zero router / torus buffer depth |
//! | AV008 | warning  | torus buffers below the retransmission BDP |
//! | AV009 | —        | retired, not reused (latency parameters became constants) |
//! | AV010 | —        | retired, not reused (torus link latency became a constant) |
//! | AV011 | error/warning | fault schedule references a bad link |
//! | AV012 | error    | bit-error rate outside `[0, 1)` |
//! | AV013 | warning  | empty or inverted link-down window |
//! | AV014 | error    | event tracing enabled with a zero-capacity ring |
//! | AV015 | error    | zero watchdog period (trips immediately) |
//! | AV016 | error    | arbiter `m_bits` / weight-table inconsistency |
//! | AV017 | —        | retired, not reused (the shim's go-back-N window and timeout became constants) |
//! | AV018 | —        | retired, not reused (the simulator prices no energy) |
//! | AV019 | error    | shard count zero or above the node count |
//! | AV020 | error    | down links partition the network (unreachable node pairs) |
//! | AV021 | error    | degraded route tables uncertifiable (VC-incompatible or cyclic) |
//! | AV022 | error    | routing function requests a VC outside its declared budget |
//! | AV023 | error    | routing function emits a link its topology cannot address |
//! | AV101 | error    | unknown traffic pattern / workload name |
//! | AV102 | error    | torus extent outside `1..=16` |
//! | AV103 | error    | cannot write an output file, or a flag value outside its valid range |
//! | AV104 | error    | traffic places no load on any torus channel: no saturation rate, or no other node to reach |

use anton_analysis::weights::ArbiterWeightSet;
use anton_core::chip::LinkGroup;
use anton_core::config::MachineConfig;
use anton_core::timing::{TORUS_LINK_CYCLES, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN};
use anton_fault::{FaultKind, FaultSchedule};

use crate::report::Diagnostic;

/// Minimum torus buffering (flits) that keeps a reliable link busy across
/// the go-back-N shim: the round trip of a [`TORUS_LINK_CYCLES`] link at the
/// 14/45 flits-per-cycle effective rate ([`TORUS_TOKEN_GAIN`] /
/// [`TORUS_TOKEN_COST`]) — `⌈2 · 44 · 14 / 45⌉ = 28`. (Mirrors the sizing
/// argument behind the simulator's default of 32.)
pub const MIN_TORUS_BDP_FLITS: u8 = {
    let flit_cycles = 2 * TORUS_LINK_CYCLES * TORUS_TOKEN_GAIN as u64;
    flit_cycles.div_ceil(TORUS_TOKEN_COST as u64) as u8
};

/// The parameters of a simulation run, as seen by the lint engine.
///
/// `anton-sim` depends on this crate (pre-flight runs when the builder
/// constructs a `Sim`), so the lints cannot read `SimParams` directly; the
/// simulator projects its parameters into this view instead
/// (`SimParams::verify_view`).
#[derive(Debug, Clone)]
pub struct ParamsView<'a> {
    /// Router input buffer depth per VC (flits).
    pub buffer_depth: u8,
    /// Torus arrival buffer depth per VC (flits).
    pub torus_buffer_depth: u8,
    /// Inverse-weight bit width when some arbitration site starts
    /// inverse-weighted.
    pub arbiter_m_bits: Option<u32>,
    /// Idle cycles before the deadlock watchdog trips.
    pub watchdog_cycles: u64,
    /// Fault schedule, when fault injection is active.
    pub fault: Option<&'a FaultSchedule>,
    /// Whether flight-recorder event tracing is enabled.
    pub trace_events: bool,
    /// Flight-recorder ring capacity (events).
    pub trace_ring_capacity: usize,
}

/// Lints the machine configuration proper (topology, VC budget).
/// Deadlock certification (AV002) and the dateline lint (AV003) depend on
/// the routing, not the configuration — see [`crate::verify_model`]. The on-chip direction order needs no lint: a
/// `DirOrder` is a permutation of the four mesh directions by construction,
/// so it reaches every router in its Manhattan distance, and each mesh
/// dependency strictly raises (direction rank, position along that
/// direction), so the mesh alone has no dependency cycle.
pub fn lint_config(cfg: &MachineConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = usable_dim_count(cfg);

    // AV001: the promotion scheme needs n+1 VCs in both groups.
    for group in [LinkGroup::M, LinkGroup::T] {
        let have = cfg.vc_policy.num_vcs(group);
        if u32::from(have) < u32::from(n) + 1 {
            out.push(
                Diagnostic::error(
                    "AV001",
                    format!(
                        "policy {} provides {have} {group:?}-group VC(s) but a \
                         {n}-dimensional torus needs at least n+1 = {}",
                        cfg.vc_policy,
                        n + 1
                    ),
                )
                .with("policy", cfg.vc_policy)
                .with("group", format!("{group:?}"))
                .with("vcs", have)
                .with("usable_dims", n),
            );
        }
    }

    // AV006: two traffic classes x VCs must fit the 16-entry wire VC mask.
    for group in [LinkGroup::M, LinkGroup::T] {
        let have = u32::from(cfg.vc_policy.num_vcs(group));
        if 2 * have > 16 {
            out.push(
                Diagnostic::error(
                    "AV006",
                    format!(
                        "2 traffic classes x {have} {group:?}-group VCs exceed the \
                         16-entry wire VC mask"
                    ),
                )
                .with("vcs", have),
            );
        }
    }

    out
}

/// Dimensions with a ring (extent above 1).
pub(crate) fn usable_dim_count(cfg: &MachineConfig) -> u8 {
    anton_core::topology::Dim::ALL
        .iter()
        .filter(|d| cfg.shape.k(**d) > 1)
        .count() as u8
}

/// Lints simulation parameters against the configuration.
pub fn lint_params(cfg: &MachineConfig, view: &ParamsView<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // AV007: zero buffering cannot move a single flit.
    if view.buffer_depth == 0 {
        out.push(Diagnostic::error("AV007", "router buffer depth is zero").with("buffer_depth", 0));
    }
    if view.torus_buffer_depth == 0 {
        out.push(
            Diagnostic::error("AV007", "torus buffer depth is zero").with("torus_buffer_depth", 0),
        );
    } else if view.torus_buffer_depth < MIN_TORUS_BDP_FLITS {
        // AV008: below the go-back-N bandwidth-delay product the reliable
        // link can never reach the 89.6 Gb/s derated rate.
        out.push(
            Diagnostic::warning(
                "AV008",
                format!(
                    "torus buffer depth {} is below the {MIN_TORUS_BDP_FLITS}-flit \
                     retransmission bandwidth-delay product; links cannot sustain \
                     the 89.6 Gb/s effective rate",
                    view.torus_buffer_depth
                ),
            )
            .with("torus_buffer_depth", view.torus_buffer_depth)
            .with("min_flits", MIN_TORUS_BDP_FLITS),
        );
    }

    // AV015: the watchdog compares idle_cycles >= watchdog_cycles, so zero
    // trips on the very first idle cycle.
    if view.watchdog_cycles == 0 {
        out.push(Diagnostic::error(
            "AV015",
            "deadlock watchdog period is zero — it trips on the first idle cycle",
        ));
    }

    // AV016: inverse-weight bit width.
    if let Some(m_bits) = view.arbiter_m_bits {
        if !(2..=16).contains(&m_bits) {
            out.push(
                Diagnostic::error(
                    "AV016",
                    format!("arbiter weight width m_bits = {m_bits} outside 2..=16"),
                )
                .with("m_bits", m_bits),
            );
        }
    }

    // AV014: tracing into a zero-capacity ring records nothing and the
    // deadlock report loses its evidence.
    if view.trace_events && view.trace_ring_capacity == 0 {
        out.push(Diagnostic::error(
            "AV014",
            "event tracing enabled with a zero-capacity flight-recorder ring",
        ));
    }

    if let Some(fault) = view.fault {
        lint_fault(cfg, fault, &mut out);
    }

    out
}

/// Lints the shard count of the sharded kernel (AV019): it assigns one
/// contiguous node sub-brick per shard, so the count must be
/// `1..=num_nodes`.
pub fn lint_shards(cfg: &MachineConfig, shards: usize) -> Option<Diagnostic> {
    let nodes = cfg.shape.num_nodes();
    if shards == 0 {
        Some(Diagnostic::error("AV019", "shard count is zero").with("shards", 0))
    } else if shards > nodes {
        Some(
            Diagnostic::error(
                "AV019",
                format!(
                    "{shards} shards exceed the {nodes}-node machine — a shard needs at \
                     least one node"
                ),
            )
            .with("shards", shards)
            .with("nodes", nodes),
        )
    } else {
        None
    }
}

fn lint_fault(cfg: &MachineConfig, fault: &FaultSchedule, out: &mut Vec<Diagnostic>) {
    // AV012: a bit-error rate is a probability, and at 1 no frame ever
    // crosses the link (the shim refuses it).
    if !(0.0..1.0).contains(&fault.default_ber) {
        out.push(
            Diagnostic::error(
                "AV012",
                format!(
                    "default bit-error rate {} outside [0, 1)",
                    fault.default_ber
                ),
            )
            .with("default_ber", fault.default_ber),
        );
    }
    for (i, f) in fault.faults.iter().enumerate() {
        // AV011: the fault must name a real link.
        if f.from.0 as usize >= cfg.shape.num_nodes() {
            out.push(
                Diagnostic::error(
                    "AV011",
                    format!(
                        "fault #{i} references node {} of a {}-node machine",
                        f.from.0,
                        cfg.shape.num_nodes()
                    ),
                )
                .with("fault", i)
                .with("node", f.from.0),
            );
        } else if cfg.shape.k(f.chan.dir.dim) <= 1 {
            out.push(
                Diagnostic::warning(
                    "AV011",
                    format!(
                        "fault #{i} targets a {} link, but that dimension has extent 1 \
                         — no minimal route uses it",
                        f.chan.dir
                    ),
                )
                .with("fault", i)
                .with("dim", f.chan.dir.dim),
            );
        }
        // AV013: an empty window never fires — almost certainly a typo in
        // the schedule.
        let FaultKind::Down {
            from_cycle,
            until_cycle,
        } = f.kind;
        if until_cycle <= from_cycle {
            out.push(
                Diagnostic::warning(
                    "AV013",
                    format!("fault #{i} down-window [{from_cycle}, {until_cycle}) is empty"),
                )
                .with("fault", i),
            );
        }
    }
}

/// Lints a computed arbiter weight set (AV016). Issues are aggregated:
/// at most one diagnostic per kind, carrying a count.
pub fn lint_weights(set: &ArbiterWeightSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !(2..=16).contains(&set.m_bits) {
        out.push(
            Diagnostic::error(
                "AV016",
                format!(
                    "arbiter weight width m_bits = {} outside 2..=16",
                    set.m_bits
                ),
            )
            .with("m_bits", set.m_bits),
        );
        return out;
    }
    let max_w = (1u32 << set.m_bits) - 1;
    let mut zero = 0usize;
    let mut overflow = 0usize;
    for tables in [&set.outputs, &set.inputs, &set.serializers] {
        for &w in tables.weights() {
            if w == 0 {
                zero += 1;
            } else if w > max_w {
                overflow += 1;
            }
        }
    }
    if zero > 0 {
        out.push(
            Diagnostic::error(
                "AV016",
                format!("{zero} arbiter weight(s) are zero — a zero weight never wins arbitration"),
            )
            .with("zero_weights", zero),
        );
    }
    if overflow > 0 {
        out.push(
            Diagnostic::error(
                "AV016",
                format!(
                    "{overflow} arbiter weight(s) exceed the {}-bit field (max {max_w})",
                    set.m_bits
                ),
            )
            .with("overflowing_weights", overflow)
            .with("max_w", max_w),
        );
    }
    out
}
