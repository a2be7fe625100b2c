//! Static pre-flight verification wired into simulator construction.

use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_core::vc::VcPolicy;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams};
use anton_sim::sim::{RunOutcome, Sim, StaticVerdict};
use anton_traffic::patterns::NodePermutation;

#[test]
fn default_config_certifies_at_construction() {
    let sim = Sim::builder().shape(TorusShape::cube(2)).build();
    assert_eq!(sim.static_verdict(), StaticVerdict::CertifiedAcyclic);
}

/// Construction from an explicit `MachineConfig` plus `SimParams` — the
/// shape callers of the removed `Sim::new` shim used before migrating to
/// the builder — certifies the same way.
#[test]
fn explicit_config_and_params_certify_through_the_builder() {
    let sim = Sim::builder()
        .config(MachineConfig::new(TorusShape::cube(2)))
        .params(SimParams::default())
        .build();
    assert_eq!(sim.static_verdict(), StaticVerdict::CertifiedAcyclic);
}

/// `.shards()` flows through the builder into the lint engine: AV019
/// rejects more shards than nodes when the sharded kernel is built. The
/// serial build ignores the count.
#[test]
#[should_panic(expected = "AV019")]
fn enforce_mode_rejects_oversharded_machine() {
    // A 2x2x2 machine has 8 nodes.
    let serial = Sim::builder().shape(TorusShape::cube(2)).shards(9).build();
    assert_eq!(serial.static_verdict(), StaticVerdict::CertifiedAcyclic);
    let _ = Sim::builder()
        .shape(TorusShape::cube(2))
        .shards(9)
        .build_sharded();
}

#[test]
fn preflight_off_leaves_verdict_unknown() {
    let params = SimParams {
        preflight: PreflightMode::Off,
        ..SimParams::default()
    };
    let sim = Sim::builder()
        .config(MachineConfig::new(TorusShape::cube(2)))
        .params(params)
        .build();
    assert_eq!(sim.static_verdict(), StaticVerdict::Unknown);
}

#[test]
#[should_panic(expected = "static pre-flight verification rejected")]
fn enforce_mode_rejects_single_vc_torus() {
    let mut cfg = MachineConfig::new(TorusShape::cube(2));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let _ = Sim::builder()
        .config(cfg)
        .params(SimParams::default())
        .build();
}

#[test]
#[should_panic(expected = "static pre-flight verification rejected")]
fn enforce_mode_rejects_zero_watchdog() {
    let params = SimParams {
        watchdog_cycles: 0,
        ..SimParams::default()
    };
    let _ = Sim::builder()
        .config(MachineConfig::new(TorusShape::cube(2)))
        .params(params)
        .build();
}

/// The end-to-end story the verifier exists for: a statically predicted
/// deadlock comes true in the live simulation, and the watchdog's report
/// says so.
#[test]
fn predicted_deadlock_is_labeled_in_the_report() {
    let mut cfg = MachineConfig::new(TorusShape::new(4, 1, 1));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let params = SimParams {
        buffer_depth: 2,
        watchdog_cycles: 5_000,
        preflight: PreflightMode::WarnOnly,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    assert_eq!(sim.static_verdict(), StaticVerdict::PredictedDeadlock);

    let perm: Vec<u32> = (0..4u32).map(|x| (x + 2) % 4).collect();
    let mut drv = BatchDriver::builder(&sim)
        .pattern(Box::new(NodePermutation::new(perm)))
        .packets_per_endpoint(400)
        .seed(7)
        .build();
    assert_eq!(sim.run(&mut drv, 3_000_000), RunOutcome::Deadlocked);
    let report = sim.deadlock_report().expect("report");
    assert_eq!(report.static_verdict, StaticVerdict::PredictedDeadlock);
    let text = report.to_string();
    assert!(text.contains("statically predicted"), "got: {text}");

    // The verdict is written into the report's JSON.
    let parsed = anton_obs::Json::parse(&report.to_json().to_pretty_string()).unwrap();
    assert_eq!(
        parsed
            .get("static_verdict")
            .and_then(anton_obs::Json::as_str),
        Some("predicted")
    );
}
