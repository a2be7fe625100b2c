//! Cross-crate integration tests: the offline analyses, the simulator, and
//! the models must agree with each other.

use anton2::anton_analysis::load::LoadAnalysis;
use anton2::anton_analysis::weights::ArbiterWeightSet;
use anton2::anton_bench::torus_capacity;
use anton2::anton_core::config::MachineConfig;
use anton2::anton_core::net::TorusTopology;
use anton2::anton_core::topology::TorusShape;
use anton2::anton_core::trace::GlobalLink;
use anton2::anton_sim::driver::BatchDriver;
use anton2::anton_sim::params::SimParams;
use anton2::anton_sim::sim::{RunOutcome, Sim};
use anton2::anton_traffic::patterns::UniformRandom;
use anton2::anton_verify::{enumerate_routes, RouteEnumeration};

/// The simulator's measured per-link flit counts should track the analytic
/// expected loads: same busiest-link class, high correlation.
#[test]
fn simulated_link_traffic_tracks_analytic_loads() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);

    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let batch = 400u64;
    let mut driver = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(batch)
        .seed(5)
        .build();
    assert_eq!(sim.run(&mut driver, 50_000_000), RunOutcome::Completed);

    // Compare measured flits/packet against analytic load/packet per link.
    let total_packets = (batch * cfg.num_endpoints() as u64) as f64;
    let mut num = 0.0;
    let mut den_a = 0.0;
    let mut den_b = 0.0;
    let mut max_rel_err: f64 = 0.0;
    for (label, flits) in sim.wire_utilizations() {
        let expected = analysis.link_load(&label);
        let measured = flits as f64 / total_packets;
        // Expected loads are per unit time at rate 1/endpoint; per packet
        // they are load / num_endpoints.
        let expected = expected / cfg.num_endpoints() as f64;
        num += expected * measured;
        den_a += expected * expected;
        den_b += measured * measured;
        if expected > 1e-3 {
            max_rel_err = max_rel_err.max((measured - expected).abs() / expected);
        }
    }
    let correlation = num / (den_a.sqrt() * den_b.sqrt());
    assert!(correlation > 0.99, "load correlation {correlation}");
    assert!(max_rel_err < 0.25, "worst per-link deviation {max_rel_err}");
}

/// The simulator's routes (under the default policy) must stay within the
/// VC budget claimed by the deadlock analysis, and the analysis graph must
/// be acyclic for the shipped configuration.
#[test]
fn default_configuration_is_deadlock_free_end_to_end() {
    let cfg = MachineConfig::new(TorusShape::cube(3));
    let topo = TorusTopology::new(&cfg);
    let graph = enumerate_routes(
        &topo,
        &cfg,
        &RouteEnumeration {
            src_endpoints: vec![0],
            dst_endpoints: vec![15],
        },
    );
    assert!(
        graph.find_cycle().is_none(),
        "shipped config has a VC dependency cycle"
    );

    // And a saturating workload on the same shape drains completely.
    let mut sim = Sim::builder()
        .config(cfg)
        .params(SimParams::default())
        .build();
    let mut driver = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(80)
        .seed(9)
        .build();
    assert_eq!(sim.run(&mut driver, 50_000_000), RunOutcome::Completed);
    assert_eq!(sim.live_packets(), 0);
}

/// Weights derived from the analysis must install cleanly at every
/// arbitration point of the simulator (indices consistent across crates).
#[test]
fn weight_tables_install_at_every_arbitration_point() {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
    let weights = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
    assert!(weights.outputs.programmed().count() > 0);
    assert!(weights.serializers.programmed().count() > 0);
    assert!(weights.inputs.programmed().count() > 0);
    let params = SimParams {
        arbiter: anton2::anton_arbiter::ArbiterKind::InverseWeighted { m_bits: 5 }.into(),
        ..SimParams::default()
    };
    // Construction panics on any index mismatch.
    let mut sim = Sim::builder()
        .config(cfg)
        .params(params)
        .weights(weights)
        .build();
    let mut driver = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(50)
        .seed(3)
        .build();
    assert_eq!(sim.run(&mut driver, 50_000_000), RunOutcome::Completed);
}

/// The paper's own configuration — 8×8×8, inverse-weighted arbiters
/// programmed by `build()` from the uniform load analysis — is cheap enough
/// to construct and run in the test suite.
#[test]
fn paper_configuration_builds_and_runs_at_8x8x8() {
    let cfg = MachineConfig::new(TorusShape::cube(8));
    let analysis = LoadAnalysis::compute(&cfg, &UniformRandom);
    let weights = ArbiterWeightSet::compute(&cfg, &[&analysis], 5);
    // Every port of every router on both sides of the switch, and every
    // serializer: 512 nodes × 80 router ports, 512 × 12 channel adapters.
    assert_eq!(weights.outputs.programmed().count(), 40_960);
    assert_eq!(weights.serializers.programmed().count(), 6_144);
    assert_eq!(weights.inputs.programmed().count(), 40_960);

    let mut sim = Sim::builder()
        .shape(TorusShape::cube(8))
        .arbiter(anton2::anton_arbiter::ArbiterKind::InverseWeighted { m_bits: 5 })
        .traffic(Box::new(UniformRandom))
        .build();
    let mut driver = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(2)
        .seed(11)
        .build();
    assert_eq!(sim.run(&mut driver, 50_000_000), RunOutcome::Completed);
    sim.check_invariants().unwrap();
}

/// The torus serializer's measured long-run rate matches the link layer's
/// effective bandwidth (89.6/288 of a mesh channel).
#[test]
fn torus_rate_matches_link_layer_effective_bandwidth() {
    let sim_rate = torus_capacity();
    let link_rate = anton2::anton_link::EFFECTIVE_GBPS / 288.0;
    assert!((sim_rate - link_rate).abs() < 1e-12);
}

/// Packaging covers every torus channel the simulator instantiates.
#[test]
fn packaging_covers_every_simulated_channel() {
    use anton2::anton_pack::Packaging;
    let shape = TorusShape::cube(8);
    let cfg = MachineConfig::new(shape);
    let pack = Packaging::new(shape);
    let sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let mut torus_channels = 0;
    for (label, _) in sim.wire_utilizations() {
        if let GlobalLink::Torus { from, dir, .. } = label {
            let medium = pack.medium(cfg.shape.coord(from), dir);
            assert!(medium.length_cm() > 0.0);
            torus_channels += 1;
        }
    }
    assert_eq!(torus_channels, 512 * 12);
}

/// The energy experiment's fit must recover the coefficients its activity
/// is priced with — methodology closes end to end.
#[test]
fn energy_fit_recovers_charged_coefficients() {
    use anton2::anton_energy::experiment::measure_rate;
    use anton2::anton_energy::model::EnergyModel;
    use anton2::anton_sim::driver::PayloadKind;
    let p = EnergyModel::paper();
    let mut ms = Vec::new();
    for rate in [(1u32, 4u32), (1, 2), (3, 4), (1, 1)] {
        for kind in [PayloadKind::Zeros, PayloadKind::Ones, PayloadKind::Random] {
            ms.push(measure_rate(rate, kind, 600));
        }
    }
    let fit = EnergyModel::fit(&ms);
    assert!(
        (fit.fixed_pj - p.fixed_pj).abs() < 1.5,
        "c0 {}",
        fit.fixed_pj
    );
    assert!(
        (fit.per_flip_pj - p.per_flip_pj).abs() < 0.05,
        "c1 {}",
        fit.per_flip_pj
    );
    assert!(
        (fit.activation_pj - p.activation_pj).abs() < 2.5,
        "c2 {}",
        fit.activation_pj
    );
    assert!(
        (fit.per_set_bit_pj - p.per_set_bit_pj).abs() < 0.05,
        "c3 {}",
        fit.per_set_bit_pj
    );
}

/// The area model's VC sensitivity is consistent with the VC policies'
/// budgets from anton-core.
#[test]
fn area_ablation_tracks_vc_policy_budgets() {
    use anton2::anton_area::{AreaModel, AreaParams, Category, Component};
    use anton2::anton_core::chip::{ChipLayout, LinkGroup};
    use anton2::anton_core::vc::VcPolicy;
    let anton = AreaModel::anton();
    let baseline = AreaModel::new(
        AreaParams::default(),
        ChipLayout::new(23),
        VcPolicy::Baseline2n,
    );
    let ratio = baseline.area(Component::Channel, Category::Queues)
        / anton.area(Component::Channel, Category::Queues);
    let expected = f64::from(VcPolicy::Baseline2n.num_vcs(LinkGroup::T))
        / f64::from(VcPolicy::Anton.num_vcs(LinkGroup::T));
    assert!((ratio - expected).abs() < 1e-12);
}
