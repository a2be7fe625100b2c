//! Static pre-flight verification wired into simulator construction.

use anton_analysis::load::LoadAnalysis;
use anton_analysis::weights::ArbiterWeightSet;
use anton_arbiter::{ArbiterKind, ArbiterPlan, SitePlan};
use anton_core::config::MachineConfig;
use anton_core::topology::TorusShape;
use anton_core::vc::VcPolicy;
use anton_fault::FaultSchedule;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams};
use anton_sim::sim::{RunOutcome, Sim, StaticVerdict};
use anton_traffic::patterns::{NodePermutation, UniformRandom};

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

/// A bit-error rate of 1 passes no frame; the pre-run gate names it (AV012)
/// rather than letting the link shim's own assertion fire unlabeled.
#[test]
#[should_panic(expected = "AV012")]
fn enforce_mode_rejects_a_bit_error_rate_of_one() {
    let params = SimParams {
        fault: Some(FaultSchedule::uniform(1, 1.0)),
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

/// An inverse-weight set for uniform traffic on a 2×2×2 machine.
fn uniform_weights(cfg: &MachineConfig, m_bits: u32) -> ArbiterWeightSet {
    let analysis = LoadAnalysis::compute(cfg, &UniformRandom);
    ArbiterWeightSet::compute(cfg, &[&analysis], m_bits)
}

/// A plan built site by site, `(start, weighted)` in SA1, SA2, serializer
/// order: the only way to give a site a width other than 5.
fn plan(sites: [(ArbiterKind, bool); 3]) -> ArbiterPlan {
    ArbiterPlan {
        sites: sites.map(|(start, weighted)| SitePlan { start, weighted }),
    }
}

/// Builds `plan` under `Enforce`, with `weights` if given, and returns
/// the pre-run gate's panic message.
fn rejection(cfg: &MachineConfig, plan: &ArbiterPlan, weights: Option<u32>) -> String {
    let build = std::panic::catch_unwind(|| {
        let mut builder = Sim::builder().config(cfg.clone()).arbiter(plan.clone());
        if let Some(m_bits) = weights {
            builder = builder.weights(uniform_weights(cfg, m_bits));
        }
        builder.build()
    });
    let err = build.expect_err("the plan must be rejected");
    let text = err
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    text.clone()
}

/// A weight set is programmed only at the plan's weighted sites, beside
/// inverse-weighted sites of its own width: under a plan that weights no
/// site (the `rr` and `age` rows, or uniform IW at SA2 alone), or beside an
/// inverse-weighted site of another width, it is `AV016`.
#[test]
fn enforce_mode_rejects_weights_the_arbiter_does_not_take() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let (rr, iw4) = (
        ArbiterKind::RoundRobin,
        ArbiterKind::InverseWeighted { m_bits: 4 },
    );
    let iw = ArbiterKind::InverseWeighted { m_bits: 5 };
    let plans: [ArbiterPlan; 6] = [
        rr.clone().into(),
        ArbiterKind::Age.into(),
        iw4.clone().into(),
        "sa1=rr,sa2=iw,ser=rr".parse().unwrap(),
        plan([
            (rr.clone(), false),
            (iw4.clone(), true),
            (rr.clone(), false),
        ]),
        plan([(iw4, false), (iw, true), (rr, false)]),
    ];
    for plan in plans {
        let text = rejection(&cfg, &plan, Some(5));
        assert!(text.contains("AV016"), "{plan}: {text}");
    }
}

/// The weight-width range check (`AV016`) sees every site that starts
/// inverse-weighted, not only the first.
#[test]
fn enforce_mode_rejects_an_out_of_range_width_at_any_site() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let (rr, iw) = (ArbiterKind::RoundRobin, |m_bits| {
        ArbiterKind::InverseWeighted { m_bits }
    });
    for (sites, bad) in [
        ([(rr.clone(), false), (iw(5), false), (iw(1), false)], 1),
        ([(iw(5), false), (rr.clone(), false), (iw(17), false)], 17),
    ] {
        let plan = plan(sites);
        let text = rejection(&cfg, &plan, None);
        assert!(text.contains("AV016"), "{plan}: {text}");
        assert!(text.contains(&format!("m_bits = {bad} ")), "{plan}: {text}");
    }
}

/// Weights fit any plan that weights some site and starts no
/// inverse-weighted site at another width: the set's own width is what
/// the weighted round-robin or age sites are programmed at.
#[test]
fn a_plan_weighted_at_any_site_takes_the_set() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    for plan in ["sa1=rr+w,sa2=rr,ser=rr", "sa1=age,sa2=age,ser=rr+w", "iw"] {
        let plan: ArbiterPlan = plan.parse().unwrap();
        let sim = Sim::builder()
            .config(cfg.clone())
            .arbiter(plan)
            .weights(uniform_weights(&cfg, 5))
            .build();
        assert_eq!(sim.static_verdict(), StaticVerdict::CertifiedAcyclic);
    }
}

/// Under `WarnOnly` the mismatched set is reported and left out: the run is
/// the plain round-robin run, cycle for cycle.
#[test]
fn warn_only_leaves_a_mismatched_weight_set_uninstalled() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let run = |weights: Option<ArbiterWeightSet>| {
        let params = SimParams {
            preflight: PreflightMode::WarnOnly,
            ..SimParams::default()
        };
        let mut builder = Sim::builder()
            .config(cfg.clone())
            .params(params)
            .arbiter(ArbiterKind::RoundRobin);
        if let Some(set) = weights {
            builder = builder.weights(set);
        }
        let mut sim = builder.build();
        let mut drv = BatchDriver::builder(&sim)
            .pattern(Box::new(UniformRandom))
            .packets_per_endpoint(32)
            .seed(11)
            .build();
        assert_eq!(sim.run(&mut drv, 1_000_000), RunOutcome::Completed);
        (sim.now(), sim.grant_counts())
    };
    assert_eq!(run(Some(uniform_weights(&cfg, 5))), run(None));
}
