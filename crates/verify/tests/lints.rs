//! Unit coverage for the configuration lint engine: one scenario per
//! diagnostic code, plus a clean bill of health for the paper defaults.
//! Parameter views start from the simulator's defaults under its
//! round-robin arbiters (`SimParams::default().verify_view(..)`).

use std::sync::LazyLock;

use anton_analysis::weights::{ArbiterWeightSet, WeightTables};
use anton_arbiter::ArbiterKind;
use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::topology::{Dim, NodeId, Sign, Slice, TorusDir, TorusShape};
use anton_core::vc::VcPolicy;
use anton_fault::{FaultKind, FaultSchedule};
use anton_sim::params::SimParams;
use anton_verify::{lint_config, lint_params, lint_shards, lint_weights, ParamsView, Severity};

fn codes(diags: &[anton_verify::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// The view of the simulator's default parameters and arbiters.
fn default_view() -> ParamsView<'static> {
    static DEFAULTS: LazyLock<SimParams> = LazyLock::new(SimParams::default);
    DEFAULTS.verify_view(&ArbiterKind::RoundRobin.into())
}

fn default_cfg() -> MachineConfig {
    MachineConfig::new(TorusShape::cube(4))
}

#[test]
fn reference_params_are_clean() {
    let cfg = default_cfg();
    let diags = lint_params(&cfg, &default_view());
    assert!(diags.is_empty(), "{diags:?}");
    assert!(lint_config(&cfg).is_empty());
}

#[test]
fn av001_fires_for_single_vc_on_a_torus() {
    let mut cfg = default_cfg();
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let diags = lint_config(&cfg);
    let av001: Vec<_> = diags.iter().filter(|d| d.code == "AV001").collect();
    // Both the M and T groups are short of VCs.
    assert_eq!(av001.len(), 2, "{diags:?}");
    assert!(av001.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn av001_does_not_fire_on_a_mesh_degenerate_shape() {
    // A 1x1x1 "torus" has zero usable dimensions; one VC suffices.
    let mut cfg = MachineConfig::new(TorusShape::new(1, 1, 1));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    assert!(!codes(&lint_config(&cfg)).contains(&"AV001"));
}

#[test]
fn av007_av008_buffer_depths() {
    let cfg = default_cfg();
    let mut view = default_view();
    view.buffer_depth = 0;
    view.torus_buffer_depth = 0;
    let c = codes(&lint_params(&cfg, &view));
    assert_eq!(c.iter().filter(|c| **c == "AV007").count(), 2, "{c:?}");

    let mut view = default_view();
    view.torus_buffer_depth = 8; // below the 28-flit BDP
    let diags = lint_params(&cfg, &view);
    let av008 = diags.iter().find(|d| d.code == "AV008").expect("AV008");
    assert_eq!(av008.severity, Severity::Warning);

    // The bandwidth-delay product is ⌈2 · 44 · 14 / 45⌉ = 28 flits.
    for (depth, warns) in [(27, true), (28, false)] {
        let mut view = default_view();
        view.torus_buffer_depth = depth;
        let c = codes(&lint_params(&cfg, &view));
        assert_eq!(c.contains(&"AV008"), warns, "depth {depth}: {c:?}");
    }
}

#[test]
fn av015_zero_watchdog() {
    let cfg = default_cfg();
    let mut view = default_view();
    view.watchdog_cycles = 0;
    let c = codes(&lint_params(&cfg, &view));
    assert_eq!(c, ["AV015"]);
}

#[test]
fn av014_tracing_into_empty_ring() {
    let cfg = default_cfg();
    let mut view = default_view();
    view.trace_events = true;
    view.trace_ring_capacity = 0;
    assert!(codes(&lint_params(&cfg, &view)).contains(&"AV014"));
    // A populated ring is fine.
    view.trace_ring_capacity = 64;
    assert!(lint_params(&cfg, &view).is_empty());
}

#[test]
fn av016_m_bits_range() {
    let cfg = default_cfg();
    let mut view = default_view();
    view.arbiter_m_bits = Some(1);
    assert!(codes(&lint_params(&cfg, &view)).contains(&"AV016"));
    view.arbiter_m_bits = Some(17);
    assert!(codes(&lint_params(&cfg, &view)).contains(&"AV016"));
    view.arbiter_m_bits = Some(4);
    assert!(lint_params(&cfg, &view).is_empty());
}

#[test]
fn av019_shard_count_bounds() {
    let cfg = default_cfg();
    let zero = lint_shards(&cfg, 0).expect("AV019");
    assert_eq!((zero.code, zero.severity), ("AV019", Severity::Error));

    // One shard per node is the maximum a 4x4x4 machine admits.
    assert!(lint_shards(&cfg, 1).is_none());
    assert!(lint_shards(&cfg, 64).is_none());
    let over = lint_shards(&cfg, 65).expect("AV019");
    assert_eq!((over.code, over.severity), ("AV019", Severity::Error));
}

fn x_plus_link() -> (NodeId, ChanId) {
    let dir = TorusDir {
        dim: Dim::X,
        sign: Sign::Plus,
    };
    (
        NodeId(0),
        ChanId {
            dir,
            slice: Slice(0),
        },
    )
}

#[test]
fn av011_fault_on_nonexistent_link() {
    let cfg = default_cfg();
    let (_, chan) = x_plus_link();
    // 4x4x4 has nodes 0..64, so node 64 is out of range.
    let sched = FaultSchedule::uniform(1, 0.0).with_fault(
        NodeId(64),
        chan,
        FaultKind::Down {
            from_cycle: 0,
            until_cycle: 100,
        },
    );
    let mut view = default_view();
    view.fault = Some(&sched);
    let diags = lint_params(&cfg, &view);
    let av011 = diags.iter().find(|d| d.code == "AV011").expect("AV011");
    assert_eq!(av011.severity, Severity::Error);
}

#[test]
fn av011_warns_on_extent_1_dimension() {
    let cfg = MachineConfig::new(TorusShape::new(4, 4, 1));
    let dir = TorusDir {
        dim: Dim::Z,
        sign: Sign::Plus,
    };
    let chan = ChanId {
        dir,
        slice: Slice(0),
    };
    let sched = FaultSchedule::uniform(1, 0.0).with_fault(
        NodeId(0),
        chan,
        FaultKind::Down {
            from_cycle: 0,
            until_cycle: 100,
        },
    );
    let mut view = default_view();
    view.fault = Some(&sched);
    let diags = lint_params(&cfg, &view);
    let av011 = diags.iter().find(|d| d.code == "AV011").expect("AV011");
    assert_eq!(av011.severity, Severity::Warning);
}

#[test]
fn av012_av013_bad_ber_and_empty_window() {
    let cfg = default_cfg();
    let (from, chan) = x_plus_link();
    let sched = FaultSchedule::uniform(1, 1.5).with_fault(
        from,
        chan,
        FaultKind::Down {
            from_cycle: 100,
            until_cycle: 100,
        },
    );
    let mut view = default_view();
    view.fault = Some(&sched);
    let diags = lint_params(&cfg, &view);
    let c = codes(&diags);
    assert_eq!(c.iter().filter(|c| **c == "AV012").count(), 1, "{c:?}");
    assert!(c.contains(&"AV013"), "{c:?}");
}

/// A bit-error rate of exactly 1 loses every frame, and the link shim
/// refuses it, so the lint must too: AV012 is `[0, 1)`, not `[0, 1]`.
#[test]
fn av012_rejects_a_bit_error_rate_of_one() {
    let cfg = default_cfg();
    let lint = |ber: f64| {
        let sched = FaultSchedule::uniform(1, ber);
        let mut view = default_view();
        view.fault = Some(&sched);
        lint_params(&cfg, &view)
    };
    let diags = lint(1.0);
    assert_eq!(codes(&diags), vec!["AV012"], "{diags:?}");
    assert_eq!(diags[0].severity, Severity::Error);
    assert!(diags[0].message.contains("[0, 1)"), "{}", diags[0].message);
    assert!(lint(0.999).is_empty());
    assert_eq!(codes(&lint(f64::NAN)), vec!["AV012"]);
}

fn weight_set(m_bits: u32, row: Vec<u32>) -> ArbiterWeightSet {
    let mut outputs = WeightTables::new(row.len());
    outputs.push(&row);
    ArbiterWeightSet {
        m_bits,
        outputs,
        inputs: WeightTables::new(row.len()),
        serializers: WeightTables::new(row.len()),
    }
}

#[test]
fn av016_weight_set_lints() {
    // Clean set.
    assert!(lint_weights(&weight_set(4, vec![1, 15])).is_empty());
    // Zero weight never wins arbitration.
    let diags = lint_weights(&weight_set(4, vec![0, 3]));
    assert_eq!(codes(&diags), vec!["AV016"]);
    // Overflowing the M-bit field.
    let diags = lint_weights(&weight_set(4, vec![16, 3]));
    assert_eq!(codes(&diags), vec!["AV016"]);
    // Out-of-range m_bits short-circuits.
    let diags = lint_weights(&weight_set(0, vec![1, 2]));
    assert_eq!(codes(&diags), vec!["AV016"]);
}

#[test]
fn diagnostics_render_and_export() {
    let mut cfg = default_cfg();
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let diags = lint_config(&cfg);
    let d = &diags[0];
    let text = format!("{d}");
    assert!(text.starts_with("error[AV001]:"), "{text}");
    let j = d.to_json();
    assert_eq!(j.get("code").and_then(|v| v.as_str()), Some("AV001"));
    assert_eq!(j.get("severity").and_then(|v| v.as_str()), Some("error"));
    assert!(j.get("context").is_some());
}
