//! Simulator-kernel performance benchmark: measures raw cycles/sec of the
//! `anton-sim` hot path over representative workloads and machine sizes,
//! and exports the numbers (with the committed pre-rewrite baseline and the
//! speedup against it) to `BENCH_sim.json`.
//!
//! Workloads:
//!
//! * `uniform` — closed-loop batch of uniform-random traffic (the Figure 9
//!   procedure), saturating the whole machine then draining the straggler
//!   tail;
//! * `neighbor` — closed-loop batch of 1-hop-neighbor traffic (the
//!   MD-shaped locality extreme);
//! * `fault` — open-loop load under a lossy fault schedule (the
//!   fig_fault_sweep procedure), exercising the go-back-N link shims;
//! * `latency` — sparse ping-pong round trips (the Section 4.3 one-way
//!   latency measurement): the network is idle except for a handful of
//!   in-flight packets, so runtime is dominated by cycle bookkeeping
//!   rather than flit movement. This is the regime the event-driven
//!   kernel targets, and `latency/medium` is the headline entry for the
//!   >=3x kernel-speedup acceptance gate.
//!
//! Sizes: `small` is a 2×2×2 machine, `medium` a 4×4×4 machine (the size
//! the ≥3× kernel-speedup acceptance gate is measured on), and `large` the
//! paper's full 8×8×8 machine — measured on `uniform`, once serially
//! and once on the sharded parallel kernel (`--shards`, default 8), with
//! the sharded entry recording its wall-clock speedup against the serial
//! run of the identical workload (`speedup_vs_serial`), and on `latency`,
//! whose `large` ÷ `medium` cycles/sec (`latency_large_over_medium`) is 1
//! when an idle cycle costs the same on either machine. The saturated
//! throughput workloads are kept as honest anchors: at full load both the
//! event-driven and the dirty-scan kernel do the same irreducible per-flit
//! work (~580 router sends/cycle on `uniform/medium`), so their speedup is
//! near 1×; the scan overhead the rewrite removes only shows up when the
//! machine has idle components, as in `latency` and sub-saturation loads.
//!
//! Each measurement runs `--reps` times and keeps the fastest (wall-clock
//! noise only ever slows a run down). `--phases` additionally runs one
//! profiled pass per entry to break the cycle loop into its five phases via
//! `TraceConfig::profile` (see DESIGN.md "Simulator kernel & profiling").
//! `--quick` shrinks everything for the CI smoke job.

use std::hint::black_box;
use std::time::Instant;

use anton_arbiter::{
    AgeArbiter, ArbRequest, BitsetArbiter, FixedPriorityArbiter, InverseWeightedArbiter,
    PortArbiter, RoundRobinArbiter,
};
use anton_bench::{FlagSet, Json};
use anton_core::chip::LocalEndpointId;
use anton_core::config::MachineConfig;
use anton_core::pattern::TrafficPattern;
use anton_core::topology::{NodeId, TorusShape};
use anton_core::GlobalEndpoint;
use anton_fault::FaultSchedule;
use anton_sim::driver::{BatchDriver, LoadDriver, PingPongDriver};
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim, PHASE_NS};
use anton_traffic::patterns::{NHopNeighbor, UniformRandom};

/// Pre-rewrite kernel throughput (cycles/sec), measured on the dirty-scan
/// kernel at commit 5177f7c (PR 2 head) with this benchmark's default
/// parameters on the CI-class build host. The speedup column of
/// `BENCH_sim.json` is current/baseline, so the perf trajectory of the
/// kernel is tracked from the event-driven rewrite onward. Absolute numbers
/// are host-dependent; the ratio is the signal.
/// Each value is the best (highest) seed-kernel cycles/sec observed across
/// measurement runs, so the speedup column is a lower bound.
const BASELINE_CPS: &[(&str, &str, f64)] = &[
    ("uniform", "small", 23_700.0),
    ("uniform", "medium", 1_339.0),
    ("neighbor", "small", 24_232.0),
    ("neighbor", "medium", 1_066.0),
    ("fault", "small", 64_010.0),
    ("fault", "medium", 5_097.0),
    ("latency", "small", 1_364_243.0),
    ("latency", "medium", 281_659.0),
];

fn baseline_cps(workload: &str, size: &str) -> Option<f64> {
    BASELINE_CPS
        .iter()
        .find(|(w, s, _)| *w == workload && *s == size)
        .map(|&(_, _, v)| v)
}

/// One finished measurement.
struct Entry {
    workload: &'static str,
    size: &'static str,
    k: u8,
    shards: usize,
    cycles: u64,
    wall_ms: f64,
    cycles_per_sec: f64,
    peak_rss_kb: u64,
    speedup_vs_serial: Option<f64>,
    /// Link-layer work of a serial run under a fault schedule (see
    /// [`LinkWork`]).
    link_work: Option<LinkWork>,
    /// The per-phase wall-clock breakdown from one profiled pass: the five
    /// serial kernel phases for `shards == 1` entries, the four sharded
    /// worker phases (summed plus `per_shard`) otherwise.
    phase_ns: Option<Json>,
}

/// Host-independent work counts of a serial run with lossy-link shims
/// installed: wire wakes against data frames sent. An event-driven link
/// layer wakes a wire a few times per frame; one ticked on every cycle its
/// shim is busy reads tens.
#[derive(Clone, Copy)]
struct LinkWork {
    wire_wakes: u64,
    frames_sent: u64,
}

/// One row of the arbitration-core microbenchmark: ns/grant of the
/// monomorphic [`BitsetArbiter`] mask core versus the boxed
/// `dyn PortArbiter` reference implementation, driven by the identical
/// pseudo-random request stream.
struct MicrobenchRow {
    policy: &'static str,
    lanes: usize,
    picks: u64,
    bitset_ns_per_grant: f64,
    reference_ns_per_grant: f64,
    speedup: f64,
}

/// SplitMix64 step: the deterministic request-stream generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times `picks` grants through the bitset core and through the boxed
/// reference arbiter on the same request stream, asserting that every
/// grant agrees (the proptest equivalence property, re-checked here on the
/// benchmark stream itself).
///
/// Requests are pre-generated so the timed loops measure arbitration, not
/// stream synthesis; the reference loop additionally builds its
/// `ArbRequest` slice per pick, which is exactly the per-grant cost the
/// old hot path paid and the bitset core eliminates.
fn microbench_policy(
    policy: &'static str,
    lanes: usize,
    picks: u64,
    mut bitset: BitsetArbiter,
    mut reference: Box<dyn PortArbiter>,
) -> MicrobenchRow {
    let mask = (1u64 << lanes) - 1;
    let mut rng = 0x5eed_0000_0000_0000u64 ^ picks;
    let reqs: Vec<u64> = (0..picks)
        .map(|_| loop {
            let r = splitmix64(&mut rng) & mask;
            if r != 0 {
                break r;
            }
        })
        .collect();
    // Per-lane attributes as cheap pure functions of (pick, lane), so both
    // implementations observe identical patterns and ages without a
    // gigabyte of pre-generated attribute tables.
    let pattern_of = |i: u64, lane: u32| -> u8 { ((i ^ u64::from(lane)) & 3) as u8 };
    let age_of = |i: u64, lane: u32| -> u64 { (i << 6) ^ u64::from(lane).wrapping_mul(0x9e37) };

    let t = Instant::now();
    let mut bitset_sum = 0u64;
    for (i, &req) in reqs.iter().enumerate() {
        let i = i as u64;
        let w = bitset
            .pick_mask(black_box(req), |l| pattern_of(i, l), |l| age_of(i, l))
            .expect("nonzero request word always grants");
        bitset_sum = bitset_sum.wrapping_mul(31).wrapping_add(u64::from(w));
    }
    // Both grant checksums feed the equivalence assert below, so neither
    // timed loop can be dead-code-eliminated.
    let bitset_ns = t.elapsed().as_nanos() as f64;

    let mut buf: Vec<ArbRequest> = Vec::with_capacity(lanes);
    let t = Instant::now();
    let mut ref_sum = 0u64;
    for (i, &req) in reqs.iter().enumerate() {
        let i = i as u64;
        buf.clear();
        let mut rest = black_box(req);
        while rest != 0 {
            let lane = rest.trailing_zeros();
            rest &= rest - 1;
            buf.push(ArbRequest {
                input: lane as usize,
                pattern: pattern_of(i, lane),
                age: age_of(i, lane),
            });
        }
        let idx = reference
            .pick(&buf)
            .expect("nonempty requests always grant");
        ref_sum = ref_sum.wrapping_mul(31).wrapping_add(buf[idx].input as u64);
    }
    let reference_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(
        bitset_sum, ref_sum,
        "{policy}: bitset grants diverged from the reference arbiter"
    );
    let bitset_ns_per_grant = bitset_ns / picks as f64;
    let reference_ns_per_grant = reference_ns / picks as f64;
    MicrobenchRow {
        policy,
        lanes,
        picks,
        bitset_ns_per_grant,
        reference_ns_per_grant,
        speedup: reference_ns_per_grant / bitset_ns_per_grant,
    }
}

/// Runs the arbitration microbenchmark across every policy at a
/// router-like radix.
fn arbiter_microbench(picks: u64) -> Vec<MicrobenchRow> {
    // 12 lanes ≈ the router radix (4 mesh dirs + skip + chan + endpoint
    // ports); InverseWeighted caps at 32 inputs so this stays comfortably
    // representative for every policy.
    const LANES: usize = 12;
    vec![
        microbench_policy(
            "round_robin",
            LANES,
            picks,
            BitsetArbiter::round_robin(LANES),
            Box::new(RoundRobinArbiter::new(LANES)),
        ),
        microbench_policy(
            "fixed_priority",
            LANES,
            picks,
            BitsetArbiter::fixed_priority(LANES),
            Box::new(FixedPriorityArbiter::new(LANES)),
        ),
        microbench_policy(
            "age",
            LANES,
            picks,
            BitsetArbiter::age(LANES),
            Box::new(AgeArbiter::new(LANES)),
        ),
        microbench_policy(
            "inverse_weighted",
            LANES,
            picks,
            BitsetArbiter::uniform_iw(LANES, 5),
            Box::new(InverseWeightedArbiter::uniform(LANES, 5)),
        ),
    ]
}

/// Peak resident-set high-water mark of this process in kB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
///
/// The high-water mark is process-global and monotone, so each entry calls
/// [`reset_peak_rss`] before its workload runs — the sample taken after
/// them then belongs to that entry alone rather than inheriting the
/// largest machine built so far.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Resets the process RSS high-water mark (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_rss_kb`] sample covers only
/// the work that follows. Kernels or sandboxes that refuse the write leave
/// the mark monotone — the pre-fix behavior — which the per-entry sample
/// then degrades to, never worse.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Times one run of a [`ShardableDriver`] workload on either kernel:
/// serial for `shards <= 1`, the sharded parallel kernel otherwise. Returns
/// (cycles, wall seconds, link-layer work of a serial faulty run).
fn time_run<D: anton_sim::ShardableDriver>(
    cfg: MachineConfig,
    params: SimParams,
    shards: usize,
    drv: &mut D,
    label: &str,
) -> (u64, f64, Option<LinkWork>) {
    if shards > 1 {
        let mut sim = Sim::builder()
            .config(cfg)
            .params(params)
            .shards(shards)
            .build_sharded();
        let t = Instant::now();
        let outcome = sim.run(drv, 600_000_000);
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(outcome, RunOutcome::Completed, "{label} run");
        (sim.now(), wall, None)
    } else {
        let mut sim = Sim::builder().config(cfg).params(params).build();
        let t = Instant::now();
        let outcome = sim.run(drv, 600_000_000);
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(outcome, RunOutcome::Completed, "{label} run");
        let link_work = sim.metrics().fault.map(|f| LinkWork {
            wire_wakes: sim.kernel_work().wakes[3],
            frames_sent: f.totals.frames_sent,
        });
        (sim.now(), wall, link_work)
    }
}

/// Builds and runs one workload once, returning (cycles, wall seconds,
/// link-layer work).
/// `profile` turns on the per-phase profiler via [`TraceConfig`].
/// `shards > 1` runs on the sharded parallel kernel (same cycles, different
/// wall clock).
fn run_once(
    workload: &str,
    k: u8,
    packets: u64,
    seed: u64,
    profile: bool,
    shards: usize,
) -> (u64, f64, Option<LinkWork>) {
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let base_params = SimParams {
        trace: TraceConfig {
            profile,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    match workload {
        "uniform" | "neighbor" => {
            let pattern: Box<dyn TrafficPattern> = if workload == "uniform" {
                Box::new(UniformRandom)
            } else {
                Box::new(NHopNeighbor::new(1))
            };
            let mut drv = BatchDriver::builder_for(&cfg)
                .pattern(pattern)
                .packets_per_endpoint(packets)
                .seed(seed)
                .build();
            time_run(
                cfg,
                base_params,
                shards,
                &mut drv,
                &format!("{workload} k{k}"),
            )
        }
        "fault" => {
            let params = SimParams {
                fault: Some(FaultSchedule::uniform(7, 1e-4)),
                ..base_params
            };
            let mut drv = LoadDriver::for_config(&cfg, Box::new(UniformRandom), 0.1, packets, seed);
            time_run(cfg, params, shards, &mut drv, &format!("{workload} k{k}"))
        }
        "latency" => {
            assert_eq!(shards, 1, "the ping-pong driver has no sharded split");
            let mut sim = Sim::builder().config(cfg).params(base_params).build();
            let nn = sim.cfg.shape.num_nodes() as u32;
            let pairs: Vec<(GlobalEndpoint, GlobalEndpoint)> = (0..4u32)
                .map(|i| {
                    (
                        GlobalEndpoint {
                            node: NodeId(i % nn),
                            ep: LocalEndpointId(0),
                        },
                        GlobalEndpoint {
                            node: NodeId((nn / 2 + i) % nn),
                            ep: LocalEndpointId(0),
                        },
                    )
                })
                .collect();
            let mut drv = PingPongDriver::new(pairs, packets as u32);
            let t = Instant::now();
            let outcome = sim.run(&mut drv, 600_000_000);
            let wall = t.elapsed().as_secs_f64();
            assert_eq!(outcome, RunOutcome::Completed, "{workload} k{k} run");
            (sim.now(), wall, None)
        }
        other => anton_bench::fail_usage(
            &anton_verify::Diagnostic::error("AV101", format!("unknown workload `{other}`"))
                .with("known", "uniform, neighbor, fault, latency"),
        ),
    }
}

/// One profiled pass on the sharded parallel kernel, returning the worker
/// phase breakdown (`compute` / `barrier_wait` / `mailbox` / `merge`)
/// summed across shards plus the per-shard split under `per_shard`.
fn run_profiled_sharded(k: u8, packets: u64, seed: u64, shards: usize) -> Json {
    let cfg = MachineConfig::new(TorusShape::cube(k));
    let params = SimParams {
        trace: TraceConfig {
            profile: true,
            ..TraceConfig::default()
        },
        ..SimParams::default()
    };
    let mut drv = BatchDriver::builder_for(&cfg)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(packets)
        .seed(seed)
        .build();
    let mut sim = Sim::builder()
        .config(cfg)
        .params(params)
        .shards(shards)
        .build_sharded();
    assert_eq!(
        sim.run(&mut drv, 600_000_000),
        RunOutcome::Completed,
        "profiled sharded run"
    );
    let per = sim.phase_ns().expect("phase profiler on");
    let mut total = [0u64; anton_obs::NUM_SHARD_PHASES];
    for p in per {
        for (t, v) in total.iter_mut().zip(p) {
            *t += v;
        }
    }
    let Json::Obj(mut obj) = anton_obs::phase::phases_to_json(&total) else {
        unreachable!("phases_to_json returns an object")
    };
    obj.push((
        "per_shard".to_string(),
        Json::Arr(per.iter().map(anton_obs::phase::phases_to_json).collect()),
    ));
    Json::Obj(obj)
}

/// Renders a serial five-phase breakdown as an object keyed by
/// [`PHASE_NAMES`].
fn serial_phases_json(p: [u64; 5]) -> Json {
    Json::Obj(
        PHASE_NAMES
            .iter()
            .zip(p)
            .map(|(n, v)| (n.to_string(), Json::from(v)))
            .collect(),
    )
}

/// One profiled pass, returning the per-phase nanosecond deltas.
fn run_profiled(workload: &str, k: u8, packets: u64, seed: u64) -> [u64; 5] {
    let before: Vec<u64> = PHASE_NS
        .iter()
        .map(|a| a.load(std::sync::atomic::Ordering::Relaxed))
        .collect();
    run_once(workload, k, packets, seed, true, 1);
    let mut delta = [0u64; 5];
    for (i, d) in delta.iter_mut().enumerate() {
        *d = PHASE_NS[i].load(std::sync::atomic::Ordering::Relaxed) - before[i];
    }
    delta
}

const PHASE_NAMES: [&str; 5] = [
    "wires",
    "endpoints_inject",
    "adapters",
    "routers",
    "endpoints_recv",
];

fn main() {
    let args = FlagSet::new(
        "bench_kernel",
        "Simulator-kernel cycles/sec benchmark exporting BENCH_sim.json",
    )
    .flag("reps", 3usize, "timed repetitions per entry (fastest kept)")
    .flag("seed", 42u64, "workload seed")
    .flag(
        "out",
        "BENCH_sim.json".to_string(),
        "output path for the JSON report",
    )
    .flag(
        "shards",
        8usize,
        "shard count for the large (k=8) sharded entry",
    )
    .switch("quick", "CI smoke mode: small size only, tiny batches")
    .switch("no-phases", "skip the profiled per-phase pass")
    .switch(
        "no-large",
        "skip the large (k=8) uniform serial-vs-sharded entries",
    )
    .switch("no-microbench", "skip the arbitration-core microbenchmark")
    .parse();
    let quick = args.on("quick");
    let reps: usize = if quick { 1 } else { args.get("reps") };
    let seed: u64 = args.get("seed");
    let phases = !args.on("no-phases") && !quick;
    let large = !args.on("no-large") && !quick;
    let large_shards: usize = args.get("shards");
    let out_path: String = args.get("out");
    let micro_picks: u64 = if quick { 50_000 } else { 500_000 };
    let microbench = (!args.on("no-microbench")).then(|| arbiter_microbench(micro_picks));

    // (size, k, batch packets/ep, open-loop packets/ep, ping-pong legs)
    let sizes: &[(&str, u8, u64, u64, u64)] = if quick {
        &[("small", 2, 8, 6, 40)]
    } else {
        &[("small", 2, 96, 60, 400), ("medium", 4, 48, 30, 200)]
    };

    // An idle 8×8×8 machine is cheap to simulate, so the ping-pong alone
    // also runs at the paper's size: large ÷ medium cycles/sec says how far
    // an idle cycle's cost is independent of the machine. Ten times
    // medium's legs, so that cycle 0, which looks at every component once
    // (8× as many here), is the same share of the run.
    let latency_large = [("large", 8u8, 0u64, 0u64, if quick { 400 } else { 2000 })];

    let mut entries: Vec<Entry> = Vec::new();
    for workload in ["uniform", "neighbor", "fault", "latency"] {
        let extra: &[_] = if workload == "latency" {
            &latency_large
        } else {
            &[]
        };
        for &(size, k, batch, open, legs) in sizes.iter().chain(extra) {
            let packets = match workload {
                "fault" => open,
                "latency" => legs,
                _ => batch,
            };
            reset_peak_rss();
            let mut best_wall = f64::INFINITY;
            let mut cycles = 0u64;
            let mut link_work = None;
            for rep in 0..reps {
                let (c, wall, work) = run_once(workload, k, packets, seed, false, 1);
                link_work = work;
                eprintln!(
                    "[bench_kernel] {workload}/{size} rep {}/{reps}: {c} cycles in {:.3}s \
                     ({:.0} cycles/sec)",
                    rep + 1,
                    wall,
                    c as f64 / wall
                );
                cycles = c;
                best_wall = best_wall.min(wall);
            }
            let phase_ns =
                phases.then(|| serial_phases_json(run_profiled(workload, k, packets, seed)));
            entries.push(Entry {
                workload,
                size,
                k,
                shards: 1,
                cycles,
                wall_ms: best_wall * 1e3,
                cycles_per_sec: cycles as f64 / best_wall,
                peak_rss_kb: peak_rss_kb(),
                speedup_vs_serial: None,
                link_work,
                phase_ns,
            });
        }
    }

    // The headline sharded entries: the paper's full 8×8×8 machine, serial
    // versus the sharded parallel kernel, same workload and seed — cycles
    // are byte-identical by construction, so the wall-clock ratio is the
    // whole story. Expensive (512 nodes, 8192 endpoints), hence one rep and
    // a `--no-large` escape hatch.
    if large {
        let (workload, k, packets) = ("uniform", 8u8, 4u64);
        let mut serial_cps = None;
        for shards in [1usize, large_shards.max(2)] {
            reset_peak_rss();
            let (cycles, wall, _) = run_once(workload, k, packets, seed, false, shards);
            let cps = cycles as f64 / wall;
            eprintln!(
                "[bench_kernel] {workload}/large shards {shards}: {cycles} cycles in {wall:.3}s \
                 ({cps:.0} cycles/sec)"
            );
            let speedup_vs_serial = serial_cps.map(|s: f64| cps / s);
            if shards == 1 {
                serial_cps = Some(cps);
            }
            let rss = peak_rss_kb();
            // Both large entries get a profiled pass, so the phase
            // breakdown is visible at the paper's full 8×8×8 scale: the
            // serial entry reports the kernel's five cycle-loop phases, the
            // sharded entry the four worker phases of the two-barrier
            // window protocol (summed across shards, plus `per_shard`).
            let phase_ns = if shards == 1 {
                phases.then(|| serial_phases_json(run_profiled(workload, k, packets, seed)))
            } else {
                phases.then(|| run_profiled_sharded(k, packets, seed, shards))
            };
            entries.push(Entry {
                workload,
                size: "large",
                k,
                shards,
                cycles,
                wall_ms: wall * 1e3,
                cycles_per_sec: cps,
                peak_rss_kb: rss,
                speedup_vs_serial,
                link_work: None,
                phase_ns,
            });
        }
    }

    println!(
        "{:<10} {:<8} {:>7} {:>10} {:>10} {:>14} {:>12} {:>9}",
        "workload", "size", "shards", "cycles", "wall-ms", "cycles/sec", "baseline", "speedup"
    );
    let mut rows: Vec<Json> = Vec::new();
    for e in &entries {
        let base = baseline_cps(e.workload, e.size);
        let speedup = base.map(|b| e.cycles_per_sec / b);
        println!(
            "{:<10} {:<8} {:>7} {:>10} {:>10.1} {:>14.0} {:>12} {:>9}",
            e.workload,
            e.size,
            e.shards,
            e.cycles,
            e.wall_ms,
            e.cycles_per_sec,
            base.map_or("-".to_string(), |b| format!("{b:.0}")),
            speedup
                .or(e.speedup_vs_serial)
                .map_or("-".to_string(), |s| format!("{s:.2}x")),
        );
        let mut obj = vec![
            ("workload".to_string(), Json::from(e.workload)),
            ("size".to_string(), Json::from(e.size)),
            ("k".to_string(), Json::from(u64::from(e.k))),
            ("shards".to_string(), Json::from(e.shards)),
            ("cycles".to_string(), Json::from(e.cycles)),
            ("wall_ms".to_string(), Json::from(e.wall_ms)),
            ("cycles_per_sec".to_string(), Json::from(e.cycles_per_sec)),
            ("peak_rss_kb".to_string(), Json::from(e.peak_rss_kb)),
            (
                "baseline_cycles_per_sec".to_string(),
                base.map_or(Json::Null, Json::from),
            ),
            (
                "baseline_note".to_string(),
                if base.is_some() {
                    Json::Null
                } else {
                    // The seed dirty-scan kernel was never benchmarked at
                    // k=8 (it could not finish a k=8 batch in reasonable
                    // wall time), so large entries track speedup_vs_serial
                    // instead of a baseline ratio.
                    Json::from(
                        "seed dirty-scan kernel was never run at k=8; \
                         speedup_vs_serial is the tracked ratio",
                    )
                },
            ),
            (
                "speedup_vs_baseline".to_string(),
                speedup.map_or(Json::Null, Json::from),
            ),
            (
                "speedup_vs_serial".to_string(),
                e.speedup_vs_serial.map_or(Json::Null, Json::from),
            ),
        ];
        let (wire_wakes, frames_sent) = e.link_work.map_or((Json::Null, Json::Null), |w| {
            (Json::from(w.wire_wakes), Json::from(w.frames_sent))
        });
        obj.push(("wire_wakes".to_string(), wire_wakes));
        obj.push(("frames_sent".to_string(), frames_sent));
        obj.push((
            "phase_ns".to_string(),
            e.phase_ns.clone().unwrap_or(Json::Null),
        ));
        rows.push(Json::Obj(obj));
    }
    let headline = entries
        .iter()
        .find(|e| e.workload == "latency" && e.size == if quick { "small" } else { "medium" })
        .map(|e| {
            let base = baseline_cps(e.workload, e.size);
            Json::obj([
                ("workload", Json::from(e.workload)),
                ("size", Json::from(e.size)),
                ("cycles_per_sec", Json::from(e.cycles_per_sec)),
                (
                    "speedup_vs_baseline",
                    base.map_or(Json::Null, |b| Json::from(e.cycles_per_sec / b)),
                ),
            ])
        })
        .unwrap_or(Json::Null);
    let latency_cps = |size: &str| {
        entries
            .iter()
            .find(|e| e.workload == "latency" && e.size == size)
            .map(|e| e.cycles_per_sec)
    };
    let latency_large_over_medium = latency_cps("large")
        .zip(latency_cps("medium"))
        .map(|(large, medium)| large / medium);
    if let Some(ratio) = latency_large_over_medium {
        println!("latency large/medium cycles/sec: {ratio:.2}");
    }
    let micro_json = match &microbench {
        Some(micro) => {
            println!();
            println!(
                "{:<18} {:>6} {:>9} {:>14} {:>14} {:>9}",
                "arbiter policy", "lanes", "picks", "bitset ns", "boxed ns", "speedup"
            );
            for r in micro {
                println!(
                    "{:<18} {:>6} {:>9} {:>14.1} {:>14.1} {:>8.2}x",
                    r.policy,
                    r.lanes,
                    r.picks,
                    r.bitset_ns_per_grant,
                    r.reference_ns_per_grant,
                    r.speedup
                );
            }
            Json::Arr(
                micro
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("policy", Json::from(r.policy)),
                            ("lanes", Json::from(r.lanes as u64)),
                            ("picks", Json::from(r.picks)),
                            ("bitset_ns_per_grant", Json::from(r.bitset_ns_per_grant)),
                            (
                                "reference_ns_per_grant",
                                Json::from(r.reference_ns_per_grant),
                            ),
                            ("speedup", Json::from(r.speedup)),
                        ])
                    })
                    .collect(),
            )
        }
        None => Json::Null,
    };
    let report = Json::obj([
        ("name", Json::from("bench_sim")),
        ("schema", Json::from(1u64)),
        ("quick", Json::from(quick)),
        ("headline", headline),
        (
            "latency_large_over_medium",
            latency_large_over_medium.map_or(Json::Null, Json::from),
        ),
        (
            "baseline_kernel",
            Json::from("dirty-scan (pre event-driven rewrite, commit 5177f7c)"),
        ),
        ("arbiter_microbench", micro_json),
        ("entries", Json::Arr(rows)),
    ]);
    anton_bench::write_output(&out_path, &report.to_pretty_string());
    eprintln!("[bench_kernel] wrote {out_path}");
}
