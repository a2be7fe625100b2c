//! Diagnostic: delivery-rate profile over time for a batch run, separating
//! steady-state throughput from the ramp and straggler tail.
//!
//! The profile comes from the simulator's time-series sampler
//! ([`TraceConfig::sampled`]): every `--bucket` cycles the kernel counters
//! are snapshotted into a typed window, and the per-window
//! `delivered_packets` delta is the delivery rate. Results land in
//! `results/probe_profile.json` (schema v2, with the sampled windows
//! attached) instead of a text table.
//!
//! Usage: `probe_profile --k K --batch B --bucket CYCLES`.
use anton_bench::harness::ExperimentSpec;
use anton_bench::{checked_torus, values, FlagSet};
use anton_core::config::MachineConfig;
use anton_obs::ChannelKind;
use anton_sim::driver::BatchDriver;
use anton_sim::params::{SimParams, TraceConfig};
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

fn main() {
    let args = FlagSet::new(
        "probe_profile",
        "Diagnostic: delivery-rate profile over time",
    )
    .flag("k", 8u8, "torus dimension per side")
    .flag("batch", 256u64, "packets per core")
    .flag("bucket", 500u64, "sample window width in cycles")
    .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let bucket: u64 = args.get("bucket");
    let cfg = MachineConfig::new(checked_torus(k, "uniform"));
    let n_eps = cfg.num_endpoints() as f64;
    let params = SimParams {
        trace: TraceConfig::sampled(bucket),
        ..SimParams::default()
    };
    let mut sim = Sim::builder().config(cfg).params(params).build();
    let mut drv = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(batch)
        .seed(42)
        .build();
    assert_eq!(sim.run(&mut drv, 100_000_000), RunOutcome::Completed);
    sim.flush_samples();
    let ts = sim.timeseries().expect("sampling was enabled");

    let delivered = ts
        .channels()
        .iter()
        .position(|(name, kind)| name == "delivered_packets" && *kind == ChannelKind::Counter)
        .expect("sampler registers delivered_packets");
    println!(
        "completion {}; per-window delivery rate (pkts/cycle/ep):",
        sim.now()
    );
    for w in ts.windows() {
        let cycles = (w.end - w.start).max(1) as f64;
        let rate = w.values[delivered] as f64 / cycles / n_eps;
        println!("  [{:>6}] {:.5}", w.start, rate);
    }

    let completion_cycles = sim.now();
    let num_windows = ts.windows().len();
    let mut spec = ExperimentSpec::new("probe_profile", 42);
    spec.push_point(values!["k" => k, "batch" => batch, "bucket" => bucket]);
    let measurements = spec.run(1, |_| {
        values![
            "completion_cycles" => completion_cycles,
            "windows" => num_windows,
        ]
    });
    match spec.write_results_with_under(
        std::path::Path::new("."),
        &measurements,
        &[("windows", ts.to_json())],
    ) {
        Ok(path) => eprintln!("[probe_profile] wrote {}", path.display()),
        Err(e) => eprintln!("[probe_profile] could not write results JSON: {e}"),
    }
}
