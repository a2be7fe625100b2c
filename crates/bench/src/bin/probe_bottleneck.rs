//! Diagnostic: peak and mean utilization by link class (mesh, skip,
//! adapters, torus) at saturation, for locating the binding resource.
//! Usage: `probe_bottleneck --k K --batch B`.
use anton_bench::{checked_torus, FlagSet};
use anton_core::chip::LocalLink;
use anton_core::config::MachineConfig;
use anton_core::trace::GlobalLink;
use anton_sim::driver::BatchDriver;
use anton_sim::params::SimParams;
use anton_sim::sim::{RunOutcome, Sim};
use anton_traffic::patterns::UniformRandom;

fn main() {
    let args = FlagSet::new("probe_bottleneck", "Diagnostic: utilization by link class")
        .flag("k", 8u8, "torus dimension per side")
        .flag("batch", 192u64, "packets per core")
        .parse();
    let k: u8 = args.get("k");
    let batch: u64 = args.get("batch");
    let cfg = MachineConfig::new(checked_torus(k, "uniform"));
    let mut sim = Sim::builder()
        .config(cfg.clone())
        .params(SimParams::default())
        .build();
    let mut drv = BatchDriver::builder(&sim)
        .pattern(Box::new(UniformRandom))
        .packets_per_endpoint(batch)
        .seed(42)
        .build();
    let outcome = sim.run(&mut drv, 100_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    let cycles = sim.now() as f64;
    // classify utilization by link kind
    let mut best: std::collections::BTreeMap<&str, (f64, f64, usize)> = Default::default(); // kind -> (max, sum, count)
    for (label, flits) in sim.wire_utilizations() {
        let (kind, cap) = match label {
            GlobalLink::Torus { .. } => ("torus", 14.0 / 45.0),
            GlobalLink::Direct { .. } => ("direct", 1.0),
            GlobalLink::Local { link, .. } => match link {
                LocalLink::Mesh { .. } => ("mesh", 1.0),
                LocalLink::Skip { .. } => ("skip", 1.0),
                LocalLink::ChanToRouter(_) => ("chan->router", 1.0),
                LocalLink::RouterToChan(_) => ("router->chan", 1.0),
                LocalLink::EpToRouter(_) => ("ep->router", 1.0),
                LocalLink::RouterToEp(_) => ("router->ep", 1.0),
            },
        };
        let u = flits as f64 / cycles / cap;
        let e = best.entry(kind).or_insert((0.0, 0.0, 0));
        e.0 = e.0.max(u);
        e.1 += u;
        e.2 += 1;
    }
    println!(
        "completion {} cycles, thr-normalized util by link kind:",
        sim.now()
    );
    for (kind, (mx, sum, n)) in best {
        println!(
            "  {kind:<14} max {:.3} mean {:.3} (n={n})",
            mx,
            sum / n as f64
        );
    }
}
