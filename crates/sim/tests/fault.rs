//! Integration tests for the fault-injection subsystem: lossy torus links,
//! deterministic schedules, and the self-checking invariants.

use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::topology::{NodeId, TorusShape};
use anton_core::vc::VcPolicy;
use anton_fault::{FaultKind, FaultSchedule};
use anton_obs::Json;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{PreflightMode, SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::{NodePermutation, UniformRandom};

/// Runs a uniform-random batch on a 2×2×2 machine under the given fault
/// schedule, returning the finished simulator and driver.
fn run_batch(fault: Option<FaultSchedule>, packets: u64) -> (Sim, BatchDriver, RunOutcome) {
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams {
        fault,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets)
        .seed(11)
        .build();
    let outcome = sim.run(&mut drv, 10_000_000);
    (sim, drv, outcome)
}

#[test]
fn zero_ber_schedule_matches_ideal_simulation() {
    // Installing the link shims with BER 0 and no outages must not change
    // the simulation by a single cycle: the shim's token bucket never
    // throttles beyond the upstream serializer.
    let (ideal_sim, ideal_drv, ideal_out) = run_batch(None, 20);
    let (shim_sim, shim_drv, shim_out) = run_batch(Some(FaultSchedule::uniform(3, 0.0)), 20);
    assert_eq!(ideal_out, RunOutcome::Completed);
    assert_eq!(shim_out, RunOutcome::Completed);
    assert_eq!(ideal_drv.finish_cycle, shim_drv.finish_cycle);
    assert_eq!(ideal_sim.now(), shim_sim.now());
    assert_eq!(
        ideal_sim.stats().delivered_packets,
        shim_sim.stats().delivered_packets
    );
    assert_eq!(ideal_sim.stats().flit_hops, shim_sim.stats().flit_hops);
    assert_eq!(ideal_sim.stats().torus_flits, shim_sim.stats().torus_flits);
    // The ideal run has no fault metrics; the shimmed run has them, but
    // with zero link-layer recovery events.
    assert!(ideal_sim.metrics().fault.is_none());
    let fm = shim_sim.metrics().fault.expect("shims installed");
    assert_eq!(fm.totals.retransmissions, 0);
    assert_eq!(fm.totals.data_frames_dropped, 0);
}

#[test]
fn faulty_runs_reproduce_from_schedule() {
    // The schedule (seed + BER) fully determines a faulty run.
    let (sim_a, drv_a, out_a) = run_batch(Some(FaultSchedule::uniform(5, 1e-4)), 20);
    let (sim_b, drv_b, out_b) = run_batch(Some(FaultSchedule::uniform(5, 1e-4)), 20);
    assert_eq!(out_a, RunOutcome::Completed);
    assert_eq!(out_a, out_b);
    assert_eq!(drv_a.finish_cycle, drv_b.finish_cycle);
    let (fa, fb) = (
        sim_a.metrics().fault.unwrap().totals,
        sim_b.metrics().fault.unwrap().totals,
    );
    assert_eq!(fa, fb);
    assert!(
        fa.retransmissions > 0,
        "BER 1e-4 must force at least one retransmission"
    );
    // A different schedule seed draws a different corruption pattern.
    let (sim_c, _, _) = run_batch(Some(FaultSchedule::uniform(6, 1e-4)), 20);
    let fc = sim_c.metrics().fault.unwrap().totals;
    assert_ne!(
        (fa.data_frames_dropped, fa.retransmissions),
        (fc.data_frames_dropped, fc.retransmissions),
        "different schedule seeds should corrupt differently"
    );
}

#[test]
fn retransmission_overhead_rises_with_ber() {
    let mut last = -1.0f64;
    for ber in [1e-5, 1e-4, 1e-3] {
        let (sim, _, out) = run_batch(Some(FaultSchedule::uniform(9, ber)), 12);
        assert_eq!(out, RunOutcome::Completed, "ber {ber} run must finish");
        sim.check_invariants().expect("invariants at quiesce");
        let fm = sim.metrics().fault.unwrap();
        let overhead = fm.retransmission_overhead();
        assert!(
            overhead > last,
            "retransmission overhead must rise with BER: {overhead} after {last} at {ber}"
        );
        last = overhead;
    }
    assert!(last > 0.0);
}

#[test]
fn transient_outage_reroutes_and_conserves_packets() {
    // One link goes dark for a window mid-run. The down-link serializer
    // absorbs its stranded traffic and re-injects it over the epoch's
    // certified degraded table, so the run completes with every packet
    // delivered exactly once and no frames eaten by the dead channel.
    let schedule = FaultSchedule::uniform(4, 0.0).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: 100,
            until_cycle: 700,
        },
    );
    let (sim, _, out) = run_batch(Some(schedule), 20);
    assert_eq!(out, RunOutcome::Completed);
    sim.check_invariants().expect("invariants at quiesce");
    assert!(
        sim.stats().rerouted_packets > 0,
        "the outage window must push traffic onto the degraded tables"
    );
    assert_eq!(
        sim.stats().injected_packets,
        sim.stats().delivered_packets,
        "rerouted traffic still delivers exactly once"
    );
}

#[test]
fn permanent_outage_survives_via_certified_reroute() {
    // A permanently dead link used to strand its traffic until the
    // watchdog tripped. With fault-aware routing the pre-certified
    // degraded table takes over: the run completes, the watchdog stays
    // silent, and conservation holds.
    let schedule = FaultSchedule::uniform(8, 0.0).with_fault(
        NodeId(0),
        ChanId::from_index(0),
        FaultKind::Down {
            from_cycle: 0,
            until_cycle: u64::MAX,
        },
    );
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams {
        fault: Some(schedule),
        watchdog_cycles: 5_000,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(20)
        .seed(11)
        .build();
    let outcome = sim.run(&mut drv, 10_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    assert!(sim.deadlock_report().is_none(), "watchdog must stay silent");
    assert_eq!(sim.live_packets(), 0);
    assert_eq!(sim.stats().injected_packets, sim.stats().delivered_packets);
    sim.check_invariants().expect("invariants at quiesce");
}

#[test]
fn partitioned_node_falls_back_to_watchdog_with_down_link_diagnostic() {
    // Every outgoing link of node 0 is dead: no degraded table can route
    // around that (the node is unreachable as a source), so table
    // generation is rejected. Under `WarnOnly` the simulator runs anyway
    // on the legacy path; the stranded traffic trips the watchdog and the
    // report names the down links at trip time.
    let mut schedule = FaultSchedule::uniform(8, 0.0);
    for idx in 0..anton_core::chip::NUM_CHAN_ADAPTERS {
        schedule = schedule.with_fault(
            NodeId(0),
            ChanId::from_index(idx),
            FaultKind::Down {
                from_cycle: 0,
                until_cycle: u64::MAX,
            },
        );
    }
    let cfg = MachineConfig::new(TorusShape::cube(2));
    let params = SimParams {
        fault: Some(schedule),
        watchdog_cycles: 5_000,
        preflight: PreflightMode::WarnOnly,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(20)
        .seed(11)
        .build();
    let outcome = sim.run(&mut drv, 10_000_000);
    assert_eq!(outcome, RunOutcome::Deadlocked);
    let report = sim.deadlock_report().expect("watchdog must leave a report");
    assert!(report.live_packets > 0);
    assert!(
        !report.shim_backlogs.is_empty(),
        "report must name the backed-up link shim"
    );
    assert_eq!(
        report.down_links.len(),
        anton_core::chip::NUM_CHAN_ADAPTERS,
        "report must list every link down at trip time"
    );
    let text = report.to_string();
    assert!(text.contains("deadlock watchdog tripped"), "got: {text}");
    assert!(text.contains("flits undelivered"), "got: {text}");
    assert!(text.contains("faulty at trip time"), "got: {text}");
    // The diagnostic's JSON names the same backlogs and down links.
    let json_text = report.to_json().to_pretty_string();
    let parsed = Json::parse(&json_text).expect("report JSON parses");
    let label = |l: &Json| l.get("label").and_then(Json::as_str).unwrap().to_string();
    let entries = |key: &str| parsed.get(key).and_then(Json::as_arr).unwrap();
    let backlogs: Vec<String> = report
        .shim_backlogs
        .iter()
        .map(|(l, _)| l.to_string())
        .collect();
    let down: Vec<String> = report.down_links.iter().map(ToString::to_string).collect();
    let json_backlogs: Vec<String> = entries("shim_backlogs")
        .iter()
        .map(|b| label(b.get("link").unwrap()))
        .collect();
    assert_eq!(json_backlogs, backlogs);
    assert_eq!(
        entries("down_links").iter().map(label).collect::<Vec<_>>(),
        down
    );
    assert_eq!(
        parsed.get("live_packets").and_then(Json::as_u64),
        Some(report.live_packets as u64)
    );
    // Stranded packets are still conserved: created == terminated + live.
    sim.check_invariants()
        .expect("conservation and credit balance hold even mid-deadlock");
}

#[test]
fn vc_deadlock_trips_watchdog_instead_of_hanging() {
    // Mis-configured VC policy (the single-VC negative control of
    // Section 2.5) on ring-wrap traffic: a genuine routing deadlock, no
    // faults involved. The watchdog must convert the hang into a
    // structured diagnostic naming stalled VCs and their head packets.
    let k = 4u8;
    let perm: Vec<u32> = (0..u32::from(k))
        .map(|x| (x + u32::from(k) / 2) % u32::from(k))
        .collect();
    let mut cfg = MachineConfig::new(TorusShape::new(k, 1, 1));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let params = SimParams {
        buffer_depth: 2,
        watchdog_cycles: 5_000,
        preflight: PreflightMode::WarnOnly,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(NodePermutation::new(perm)))
        .packets_per_endpoint(400)
        .seed(7)
        .build();
    let outcome = sim.run(&mut drv, 10_000_000);
    assert_eq!(outcome, RunOutcome::Deadlocked, "NaiveSingle must deadlock");
    let report = sim.deadlock_report().expect("watchdog must leave a report");
    assert!(report.live_packets > 0);
    assert!(report.idle_cycles >= 5_000);
    assert!(
        !report.stalled.is_empty(),
        "report must list stalled head packets"
    );
    let text = report.to_string();
    assert!(text.contains("deadlock watchdog tripped"), "got: {text}");
    assert!(text.contains("unicast to"), "got: {text}");
    sim.check_invariants()
        .expect("conservation and credit balance hold in the deadlocked state");
}

#[test]
fn deadlock_report_carries_flight_recorder_events_and_roundtrips() {
    // Same VC-deadlock negative control, but with the flight recorder on:
    // the report must attach the last recorded events per stalled VC, and
    // the whole diagnostic (events included) must round-trip through JSON.
    let k = 4u8;
    let perm: Vec<u32> = (0..u32::from(k))
        .map(|x| (x + u32::from(k) / 2) % u32::from(k))
        .collect();
    let mut cfg = MachineConfig::new(TorusShape::new(k, 1, 1));
    cfg.vc_policy = VcPolicy::NaiveSingle;
    let params = SimParams {
        buffer_depth: 2,
        watchdog_cycles: 5_000,
        trace: TraceConfig {
            events: true,
            ring_capacity: 128,
            ..TraceConfig::default()
        },
        preflight: PreflightMode::WarnOnly,
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder_for(&sim.cfg)
        .pattern(Box::new(NodePermutation::new(perm)))
        .packets_per_endpoint(400)
        .seed(7)
        .build();
    assert_eq!(sim.run(&mut drv, 10_000_000), RunOutcome::Deadlocked);
    let report = sim.deadlock_report().expect("watchdog must leave a report");
    assert!(!report.stalled.is_empty());
    assert!(
        report.stalled.iter().any(|s| !s.recent_events.is_empty()),
        "with tracing on, stalls must carry recent flight-recorder events"
    );
    for s in &report.stalled {
        assert!(
            s.recent_events.windows(2).all(|w| w[0].seq < w[1].seq),
            "recent events must stay in recording order"
        );
    }
    // The textual form surfaces the attached events too.
    let text = report.to_string();
    assert!(text.contains("stall"), "got: {text}");
    // The JSON carries every stalled VC with its events, in order.
    let parsed = Json::parse(&report.to_json().to_pretty_string()).expect("report JSON parses");
    let stalled = parsed.get("stalled").and_then(Json::as_arr).unwrap();
    assert_eq!(stalled.len(), report.stalled.len());
    for (j, s) in stalled.iter().zip(&report.stalled) {
        let seqs: Vec<u64> = j
            .get("recent_events")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("seq").and_then(Json::as_u64).unwrap())
            .collect();
        let expected: Vec<u64> = s.recent_events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, expected);
        assert_eq!(
            j.get("packet").and_then(Json::as_u64),
            Some(u64::from(s.packet.0))
        );
    }
}

#[test]
fn invariants_hold_at_quiesce_on_a_clean_run() {
    let (sim, drv, out) = run_batch(None, 30);
    assert_eq!(out, RunOutcome::Completed);
    assert!(drv.finish_cycle > 0);
    sim.check_invariants()
        .expect("quiesced simulator must pass conservation and credit balance");
    assert_eq!(sim.live_packets(), 0);
    assert_eq!(
        sim.stats().injected_packets,
        sim.stats().delivered_packets,
        "unicast batch: every injected packet is delivered exactly once"
    );
}
