//! Figure 12: decomposition of the minimum inter-node messaging latency.
//!
//! Runs a nearest-neighbor (single Y hop) ping-pong, reports the measured
//! one-way latency, and breaks it down into the same components the paper
//! shows: software/injection overhead, endpoint adapters (E), routers (R,
//! with the RC/VA/SA1/SA2 stages), channel adapters (C), SerDes + wire, and
//! handler dispatch. The component sum is checked against the end-to-end
//! measurement.

use anton_core::chip::LocalEndpointId;
use anton_core::config::{GlobalEndpoint, MachineConfig};
use anton_core::timing::{HANDLER_DISPATCH_NS, SERDES_WIRE_NS, SW_INJECT_NS};
use anton_core::topology::{NodeCoord, TorusShape};
use anton_sim::driver::PingPongDriver;
use anton_sim::params::{
    ADAPTER_PIPELINE, CYCLE_NS, ROUTER_PIPELINE, TORUS_TOKEN_COST, TORUS_TOKEN_GAIN,
};
use anton_sim::sim::{RunOutcome, Sim};

fn main() {
    anton_bench::FlagSet::new(
        "fig12_decomposition",
        "Figure 12: minimum-latency decomposition",
    )
    .parse();
    let cfg = MachineConfig::new(TorusShape::cube(4));

    // Nearest-neighbor in Y: source endpoint on the Y-adapter router so the
    // minimum-latency path is exercised, as in the paper's 99 ns case.
    let a = GlobalEndpoint {
        node: cfg.shape.id(NodeCoord::new(0, 0, 0)),
        ep: LocalEndpointId(8),
    };
    let b = GlobalEndpoint {
        node: cfg.shape.id(NodeCoord::new(0, 1, 0)),
        ep: LocalEndpointId(8),
    };
    let mut sim = Sim::builder().config(cfg).build();
    let mut drv = PingPongDriver::new(vec![(a, b)], 60);
    let outcome = sim.run(&mut drv, 10_000_000);
    assert_eq!(outcome, RunOutcome::Completed);
    let measured = drv.mean_one_way_ns(0);

    println!("## Figure 12 — minimum one-way latency decomposition");
    println!();
    println!("Measured one-way latency (1 Y hop, 16 B payload): {measured:.1} ns");
    println!("(paper: ~99 ns; the network accounts for ~40% of it)");
    println!();

    // Component accounting (see anton_core::timing and anton_sim::params):
    let cyc = |c: f64| c * CYCLE_NS;
    let (router_stages, adapter_stages) = (ROUTER_PIPELINE as f64, ADAPTER_PIPELINE as f64);
    // Endpoint adapter: wire + no pipeline on rx side; injection side 1
    // cycle of serialization.
    let inject_wire = cyc(1.0);
    // Router pipeline: RC, VA, SA1, SA2 — 4 stages of one cycle.
    let router = cyc(router_stages);
    // Mesh hops between the endpoint router and the channel-adapter router.
    // Endpoint 8 sits on R(0,2), which hosts the Y0 adapters: no mesh hops.
    let mesh = cyc(0.0);
    // Channel adapter out: wire 1 + pipeline 2 + serialization of one flit
    // at the effective rate (45/14 cycles).
    let serialize = f64::from(TORUS_TOKEN_COST) / f64::from(TORUS_TOKEN_GAIN);
    let chan_out = cyc(1.0 + adapter_stages + serialize);
    // Channel adapter in: pipeline 2 + forward wire 1.
    let chan_in = cyc(adapter_stages + 1.0);
    // Destination router and ejection wire.
    let router_dst = cyc(router_stages);
    let eject_wire = cyc(1.0);

    let rows: [(&str, f64); 9] = [
        ("software send overhead", SW_INJECT_NS),
        ("endpoint adapter (E) + injection wire", inject_wire),
        ("router (R): RC+VA+SA1+SA2", router),
        ("mesh hops to channel adapter", mesh),
        ("channel adapter (C) out + serialization", chan_out),
        ("SerDes + wire", SERDES_WIRE_NS),
        ("channel adapter (C) in", chan_in),
        ("destination router (R) + ejection", router_dst + eject_wire),
        ("synchronization + handler dispatch", HANDLER_DISPATCH_NS),
    ];
    let mut sum = 0.0;
    println!("{:<42} {:>9} {:>7}", "component", "ns", "%");
    for (name, ns) in rows {
        sum += ns;
        println!("{name:<42} {ns:>9.1} {:>6.1}%", 100.0 * ns / measured);
    }
    println!("{:-<60}", "");
    println!("{:<42} {sum:>9.1}", "component sum");
    let network = measured - SW_INJECT_NS - HANDLER_DISPATCH_NS;
    println!();
    println!(
        "Network share: {:.1} ns = {:.0}% of total (paper: ~40%)",
        network,
        100.0 * network / measured
    );
    assert!(
        (sum - measured).abs() / measured < 0.15,
        "decomposition drifted from measurement: {sum:.1} vs {measured:.1}"
    );
}
