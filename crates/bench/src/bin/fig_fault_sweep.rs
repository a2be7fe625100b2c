//! Fault sweep: delivered throughput, latency inflation, and link-layer
//! retransmission overhead under lossy torus channels.
//!
//! Sweeps bit error rate × offered load on a uniform-random open-loop
//! workload ([`LoadDriver`]). Every point installs a uniform
//! [`FaultSchedule`] over the external torus links, so each link runs the
//! go-back-N protocol of Section 2.2 under the injected BER: corrupted
//! frames are dropped by the CRC and rewound, stalling real traffic for the
//! retransmission round-trip. The BER = 0 column doubles as the control —
//! the shim is timing-identical to the ideal wire there.
//!
//! On top of the BER sweep, `--down-window from,until` (on by default)
//! takes one external link fully `Down` for that cycle window on every
//! point: stranded packets are ejected and rerouted over the pre-certified
//! degraded route tables, and the sweep records how many packets rerouted
//! plus the latency inflation the detour cost them relative to
//! same-run traffic that stayed on its original route. Pass an empty
//! string to sweep BER only.
//!
//! Results land in `results/fig_fault_sweep.json` alongside the text table:
//! schema v1 plus a `fault_model` object recording the schedule parameters,
//! bumped to v2 with a `deadlock_reports` section when any point trips the
//! forward-progress watchdog (each report serializes the stalled VCs, their
//! routes, and — when event tracing is on — the last flight-recorder events
//! per stall). A deadlocked point records no measurements, only
//! `deadlocked: true`, and the sweep then exits 1. Every completed run
//! re-checks the simulator's packet-conservation and credit-balance
//! invariants and says so on stdout — the CI smoke job greps for that line.

use std::sync::Mutex;

use anton_bench::harness::{ExperimentSpec, Measurement, SweepPoint};
use anton_bench::{checked_cube, fail_usage, require, saturation_rate, values, FlagSet};
use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::topology::NodeId;
use anton_fault::{FaultKind, FaultSchedule, SHIM_TIMEOUT, SHIM_WINDOW};
use anton_obs::json::Json;
use anton_sim::driver::LoadDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

/// Serializes a fault schedule into the results document so a run can be
/// reproduced from its JSON alone.
fn schedule_json(s: &FaultSchedule) -> Json {
    let faults = s
        .faults
        .iter()
        .map(|f| {
            let FaultKind::Down {
                from_cycle,
                until_cycle,
            } = f.kind;
            Json::obj([
                ("node", Json::from(u64::from(f.from.0))),
                ("chan", Json::from(f.chan.index() as u64)),
                ("kind", Json::from("down")),
                (
                    "detail",
                    Json::obj([
                        ("from_cycle", Json::from(from_cycle)),
                        ("until_cycle", Json::from(until_cycle)),
                    ]),
                ),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj([
        ("seed", Json::from(s.seed)),
        ("default_ber", Json::from(s.default_ber)),
        ("gbn_window", Json::from(u64::from(SHIM_WINDOW))),
        ("gbn_timeout", Json::from(SHIM_TIMEOUT)),
        ("faults", Json::Arr(faults)),
    ])
}

fn main() {
    let args = FlagSet::new(
        "fig_fault_sweep",
        "Throughput/latency/retransmission sweep over BER x offered load",
    )
    .flag("k", 4u8, "torus dimension per side")
    .flist(
        "bers",
        &[0.0, 1e-6, 1e-5, 1e-4],
        "per-link bit error rates to sweep",
    )
    .flist(
        "loads",
        &[0.3, 0.6],
        "offered loads as fractions of uniform saturation",
    )
    .flag("packets", 200u64, "packets per endpoint per point")
    .flag(
        "down-window",
        "600,1400".to_string(),
        "cycle window `from,until` during which one external link is fully \
         Down on every point (empty = BER sweep only)",
    )
    .flag("seed", 42u64, "base seed; per-point seeds derive from it")
    .flag("threads", 1usize, "worker threads for the sweep")
    .parse();
    let k: u8 = args.get("k");
    let bers = args.flist("bers");
    let loads = args.flist("loads");
    let packets: u64 = args.get("packets");
    let seed: u64 = args.get("seed");
    let threads: usize = args.get("threads");
    let down_spec: String = args.get("down-window");
    let down_window: Option<(u64, u64)> = if down_spec.is_empty() {
        None
    } else {
        let bad = || -> ! {
            fail_usage(
                &anton_verify::Diagnostic::error(
                    "AV103",
                    format!("bad --down-window `{down_spec}`"),
                )
                .with(
                    "expected",
                    "two cycle numbers `from,until` with from < until",
                ),
            )
        };
        let parts: Vec<&str> = down_spec.split(',').map(str::trim).collect();
        if parts.len() != 2 {
            bad();
        }
        match (parts[0].parse::<u64>(), parts[1].parse::<u64>()) {
            (Ok(from), Ok(until)) if from < until => Some((from, until)),
            _ => bad(),
        }
    };
    // The down link of every point: node 0's x+ channel on slice 0.
    let down_link = (NodeId(0), ChanId::from_index(0));
    let cfg = MachineConfig::new(checked_cube(k));
    require(
        packets > 0,
        "packets",
        packets,
        "at least 1 packet per endpoint",
    );
    for &ber in &bers {
        require((0.0..1.0).contains(&ber), "bers", ber, "[0, 1)");
    }
    // Latency inflation is read against the BER = 0 point at each load.
    require(
        bers.contains(&0.0),
        "bers",
        format!("{bers:?}"),
        "a list including 0, the control",
    );
    require(threads > 0, "threads", threads, "at least 1 worker");

    println!("## Fault sweep — lossy torus links ({k}x{k}x{k} torus, 16 cores/node)");
    println!();
    let sat = saturation_rate(&cfg, &UniformRandom).unwrap_or_else(|d| fail_usage(&d));
    for &load in &loads {
        let valid = format!("load x saturation rate ({sat:.5}) in (0, 1]");
        require(load > 0.0 && load * sat <= 1.0, "loads", load, &valid);
    }
    eprintln!("[fault-sweep] uniform saturation {sat:.5} pkts/cycle/core");

    let mut spec = ExperimentSpec::new("fig_fault_sweep", seed);
    for &load in &loads {
        for &ber in &bers {
            spec.push_point(values![
                "ber" => ber,
                "load" => load,
            ]);
        }
    }

    let n_points = spec.points().len();
    // Serialized deadlock diagnostics, per tripped point (normally empty).
    let deadlock_reports: Mutex<Vec<(usize, Json)>> = Mutex::new(Vec::new());
    let make_schedule = |seed: u64, ber: f64| {
        let mut s = FaultSchedule::uniform(seed, ber);
        if let Some((from_cycle, until_cycle)) = down_window {
            s = s.with_fault(
                down_link.0,
                down_link.1,
                FaultKind::Down {
                    from_cycle,
                    until_cycle,
                },
            );
        }
        s
    };
    let measurements = spec.run(threads, |point: &SweepPoint| {
        let ber = point.float("ber");
        let load = point.float("load");
        let schedule = make_schedule(point.seed, ber);
        let params = SimParams {
            fault: Some(schedule),
            watchdog_cycles: 200_000,
            ..SimParams::default()
        };
        let mut driver = LoadDriver::for_config(
            &cfg,
            Box::new(UniformRandom),
            load * sat,
            packets,
            point.seed,
        );
        let mut sim = Sim::builder().config(cfg.clone()).params(params).build();
        let outcome = sim.run(&mut driver, 50_000_000);
        if outcome == RunOutcome::Deadlocked {
            // The run never finished, so the point has nothing to measure:
            // it keeps only its report, and the sweep exits 1.
            let report = sim
                .deadlock_report()
                .expect("deadlock outcome carries a report");
            eprintln!("[fault-sweep] point {} deadlocked:\n{report}", point.index);
            deadlock_reports
                .lock()
                .expect("report list poisoned")
                .push((point.index, report.to_json()));
            return values!["deadlocked" => true];
        }
        assert_eq!(
            outcome,
            RunOutcome::Completed,
            "fault-sweep point {} timed out",
            point.index,
        );
        sim.check_invariants()
            .expect("invariants must hold at quiesce");
        let m = sim.metrics();
        let fault = m.fault.expect("fault schedule installed on every point");
        eprintln!(
            "[fault-sweep] {}/{n_points} ber {ber:.1e} load {load:.2} done ({} cycles)",
            point.index + 1,
            driver.finish_cycle
        );
        values![
            "throughput" => driver.throughput(),
            "mean_latency" => driver.mean_latency(),
            "p50_latency" => driver.latency_percentile(0.50),
            "p99_latency" => driver.latency_percentile(0.99),
            "cycles" => driver.finish_cycle,
            "retransmissions" => fault.totals.retransmissions,
            "data_frames_dropped" => fault.totals.data_frames_dropped,
            "retransmission_overhead" => fault.retransmission_overhead(),
            "rerouted_packets" => m.stats.rerouted_packets,
            "reroute_latency_inflation" => driver.reroute_latency_inflation(),
            "deadlocked" => false,
        ]
    });
    let deadlocked = |m: &Measurement| m.metric("deadlocked") == Some(&Json::Bool(true));

    println!(
        "{:>6} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9} {:>12} {:>10} {:>9} {:>8}",
        "load",
        "BER",
        "throughput",
        "p50",
        "p50-infl",
        "p99",
        "p99-infl",
        "retransmits",
        "overhead",
        "rerouted",
        "rr-infl"
    );
    for m in &measurements {
        let p = &spec.points()[m.index];
        let (ber, load) = (p.float("ber"), p.float("load"));
        if deadlocked(m) {
            println!("{load:>6.2} {ber:>10.1e} deadlocked: see deadlock_reports");
            continue;
        }
        // Latency inflation is relative to the BER = 0 control at the same
        // offered load (NaN when that control deadlocked).
        let base = measurements.iter().find(|b| {
            let bp = &spec.points()[b.index];
            bp.float("ber") == 0.0 && bp.float("load") == load && !deadlocked(b)
        });
        let inflation =
            |name: &str| base.map_or(f64::NAN, |b| m.metric_f64(name) / b.metric_f64(name));
        println!(
            "{:>6.2} {:>10.1e} {:>12.5} {:>9} {:>8.2}x {:>9} {:>8.2}x {:>12} {:>9.4}% {:>9} {:>7.2}x",
            load,
            ber,
            m.metric_f64("throughput"),
            m.metric_f64("p50_latency") as u64,
            inflation("p50_latency"),
            m.metric_f64("p99_latency") as u64,
            inflation("p99_latency"),
            m.metric_f64("retransmissions") as u64,
            100.0 * m.metric_f64("retransmission_overhead"),
            m.metric_f64("rerouted_packets") as u64,
            m.metric_f64("reroute_latency_inflation"),
        );
    }
    let deadlock_reports = deadlock_reports.into_inner().expect("report list poisoned");
    println!();
    println!(
        "invariants ok: packet conservation and credit balance verified on {} points",
        n_points - deadlock_reports.len()
    );

    let fault_model = Json::obj([
        ("kind", Json::from("uniform")),
        ("gbn_window", Json::from(u64::from(SHIM_WINDOW))),
        ("gbn_timeout", Json::from(SHIM_TIMEOUT)),
        (
            "schedules",
            Json::Arr(
                measurements
                    .iter()
                    .map(|m| {
                        let p = &spec.points()[m.index];
                        schedule_json(&make_schedule(p.seed, p.float("ber")))
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut doc = spec.results_json(&measurements, &[]);
    if !deadlock_reports.is_empty() {
        let reports = Json::Arr(
            deadlock_reports
                .iter()
                .map(|(index, report)| {
                    Json::obj([
                        ("point", Json::from(*index as u64)),
                        ("report", report.clone()),
                    ])
                })
                .collect(),
        );
        doc = spec.results_json(
            &measurements,
            &[("fault_model", fault_model), ("deadlock_reports", reports)],
        );
    } else if let Json::Obj(pairs) = &mut doc {
        // No attachments that change semantics: fault_model alone stays v1,
        // keeping the committed golden results byte-identical.
        pairs.push(("fault_model".to_string(), fault_model));
    }
    match std::fs::create_dir_all("results").and_then(|()| {
        anton_obs::write_atomic("results/fig_fault_sweep.json", &doc.to_pretty_string())
    }) {
        Ok(()) => eprintln!("[fault-sweep] wrote results/fig_fault_sweep.json"),
        Err(e) => eprintln!("[fault-sweep] could not write results JSON: {e}"),
    }
    println!();
    println!("Expected shape: retransmission overhead and latency inflation rise");
    println!("monotonically with BER; throughput holds until the link-layer rewinds");
    println!("eat the torus headroom, then collapses at high BER.");
    if !deadlock_reports.is_empty() {
        eprintln!(
            "[fault-sweep] {} of {n_points} points deadlocked",
            deadlock_reports.len()
        );
        std::process::exit(1);
    }
}
