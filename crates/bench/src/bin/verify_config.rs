//! Standalone static verification of a machine configuration: runs the
//! `anton-verify` lint engine and the symbolic deadlock certifier, prints a
//! human-readable report, optionally exports it as JSON, and exits nonzero
//! if any error-severity diagnostic (including a dependency cycle) was
//! found.
//!
//! Examples:
//!
//! ```text
//! verify_config                         # the paper's 8x8x8 Anton machine
//! verify_config --k 4 --policy naive    # single-VC negative control
//! verify_config --no-datelines          # broken promotion placement
//! verify_config --cross-check           # also enumerate routes and diff
//! verify_config --down-links 0,0,0,x+   # certify the degraded reroute tables
//! verify_config --topology mesh         # VC-free full mesh (zero VCs)
//! verify_config --topology mesh --mesh-routing ring   # cyclic negative control
//! verify_config --json results/verify_config.json
//! ```

use anton_arbiter::ArbiterKind;
use anton_bench::{checked_cube, fail_usage, write_output, FlagSet};
use anton_core::chip::ChanId;
use anton_core::config::MachineConfig;
use anton_core::mesh::MeshRule;
use anton_core::route_table::DownLinkSet;
use anton_core::topology::{Dim, NodeCoord, NodeId, Sign, Slice, TorusDir, TorusShape};
use anton_core::vc::VcPolicy;
use anton_obs::json::Json;
use anton_sim::params::SimParams;
use anton_verify::{
    cross_check, full_enumeration, lint_params, verify_mesh, verify_model_and_epochs,
    DimOrderRouting, Severity, VerifyReport,
};

fn parse_policy(name: &str) -> VcPolicy {
    match name {
        "anton" => VcPolicy::Anton,
        "baseline" => VcPolicy::Baseline2n,
        "naive" => VcPolicy::NaiveSingle,
        other => fail_usage(
            &anton_verify::Diagnostic::error("AV101", format!("unknown VC policy `{other}`"))
                .with("known", "anton, baseline, naive"),
        ),
    }
}

fn parse_shape(spec: &str) -> TorusShape {
    let parts: Vec<&str> = spec.split('x').collect();
    let bad = |why: String| -> ! {
        fail_usage(
            &anton_verify::Diagnostic::error("AV102", format!("bad --shape `{spec}`: {why}")).with(
                "expected",
                "KXxKYxKZ with each extent in 1..=16, e.g. 8x8x8",
            ),
        )
    };
    if parts.len() != 3 {
        bad(format!("expected 3 extents, got {}", parts.len()));
    }
    let mut k = [0u8; 3];
    for (slot, part) in k.iter_mut().zip(&parts) {
        match part.parse::<u8>() {
            Ok(v) if (1..=TorusShape::MAX_K).contains(&v) => *slot = v,
            Ok(v) => bad(format!("extent {v} out of range 1..={}", TorusShape::MAX_K)),
            Err(e) => bad(format!("extent `{part}`: {e}")),
        }
    }
    TorusShape::new(k[0], k[1], k[2])
}

/// Parses the `--down-links` spec: `;`-separated entries of
/// `x,y,z,dir[,slice]` where `dir` is one of `x+ x- y+ y- z+ z-`. Without
/// the slice field the direction goes down on both slices (a failed
/// physical cable); with it only that slice's channel fails.
fn parse_down_links(shape: TorusShape, spec: &str) -> DownLinkSet {
    let bad = |entry: &str, why: String| -> ! {
        fail_usage(
            &anton_verify::Diagnostic::error(
                "AV103",
                format!("bad --down-links entry `{entry}`: {why}"),
            )
            .with(
                "expected",
                "x,y,z,dir[,slice] entries joined by ';', e.g. 0,0,0,x+;1,2,3,y-,1",
            ),
        )
    };
    let mut downs = DownLinkSet::empty(shape);
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let parts: Vec<&str> = entry.trim().split(',').map(str::trim).collect();
        if !(4..=5).contains(&parts.len()) {
            bad(
                entry,
                format!("expected 4 or 5 fields, got {}", parts.len()),
            );
        }
        let mut coord = [0u8; 3];
        for (i, (slot, dim)) in coord.iter_mut().zip([Dim::X, Dim::Y, Dim::Z]).enumerate() {
            match parts[i].parse::<u8>() {
                Ok(v) if v < shape.k(dim) => *slot = v,
                Ok(v) => bad(
                    entry,
                    format!("{dim:?} coordinate {v} outside extent {}", shape.k(dim)),
                ),
                Err(e) => bad(entry, format!("coordinate `{}`: {e}", parts[i])),
            }
        }
        let node: NodeId = shape.id(NodeCoord::new(coord[0], coord[1], coord[2]));
        let dir = match parts[3].to_ascii_lowercase().as_str() {
            "x+" => TorusDir::new(Dim::X, Sign::Plus),
            "x-" => TorusDir::new(Dim::X, Sign::Minus),
            "y+" => TorusDir::new(Dim::Y, Sign::Plus),
            "y-" => TorusDir::new(Dim::Y, Sign::Minus),
            "z+" => TorusDir::new(Dim::Z, Sign::Plus),
            "z-" => TorusDir::new(Dim::Z, Sign::Minus),
            other => bad(entry, format!("unknown direction `{other}`")),
        };
        let slices: Vec<Slice> = if parts.len() == 5 {
            match parts[4].parse::<u8>() {
                Ok(s) if (s as usize) < Slice::ALL.len() => vec![Slice(s)],
                Ok(s) => bad(entry, format!("slice {s} out of range 0..2")),
                Err(e) => bad(entry, format!("slice `{}`: {e}", parts[4])),
            }
        } else {
            Slice::ALL.to_vec()
        };
        for slice in slices {
            downs.insert(node, ChanId { dir, slice });
        }
    }
    if downs.is_empty() {
        fail_usage(&anton_verify::Diagnostic::error(
            "AV103",
            "--down-links given but no links parsed".to_string(),
        ));
    }
    downs
}

/// Writes the JSON report. On top of [`VerifyReport::to_json`], the
/// top-level object carries the certified pair/edge counts (previously
/// print-only) and, when a degraded check ran, its certificate too.
fn write_json_report(path: &str, report: &VerifyReport, degraded: Option<&Json>) {
    let mut json = report.to_json();
    if let Json::Obj(pairs) = &mut json {
        if let Some(cert) = &report.certificate {
            pairs.push(("certified_pairs".to_string(), Json::from(cert.nodes)));
            pairs.push(("certified_edges".to_string(), Json::from(cert.edges)));
            pairs.push(("certified_acyclic".to_string(), Json::from(cert.acyclic)));
        }
        if let Some(d) = degraded {
            pairs.push(("degraded".to_string(), d.clone()));
        }
    }
    write_output(path, &json.to_pretty_string());
    eprintln!("[verify_config] wrote {path}");
}

/// Prints the certificate, the diagnostics, and the verdict line, writes
/// the JSON report when requested, and exits 1 if anything is
/// error-severity. Shared by the torus and mesh paths.
fn finish(report: &VerifyReport, json_path: &str, degraded: Option<&Json>) -> ! {
    if let Some(cert) = &report.certificate {
        println!("{cert}");
    }
    for d in &report.diagnostics {
        println!("{d}");
    }
    println!("verdict: {}", report.summary());
    if !json_path.is_empty() {
        write_json_report(json_path, report, degraded);
    }
    let errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    if errors > 0 {
        eprintln!("verify_config: {errors} error(s)");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let args = FlagSet::new(
        "verify_config",
        "Static deadlock-freedom certification and config lints",
    )
    .flag(
        "topology",
        "torus".to_string(),
        "topology to certify: torus|mesh",
    )
    .flag("k", 8u8, "cubic torus extent (ignored if --shape is given)")
    .flag(
        "shape",
        String::new(),
        "rectangular shape KXxKYxKZ (overrides --k)",
    )
    .flag(
        "policy",
        "anton".to_string(),
        "VC policy: anton|baseline|naive",
    )
    .switch("no-datelines", "model dateline promotion as disabled")
    .switch(
        "cross-check",
        "also build the route-enumerated graph and diff it (small shapes only)",
    )
    .flag(
        "down-links",
        String::new(),
        "certify degraded reroute tables for these down links \
         (x,y,z,dir[,slice] entries joined by ';', dir in x+ x- y+ y- z+ z-)",
    )
    .flag(
        "mesh-nodes",
        8usize,
        "full-mesh node count (with --topology mesh)",
    )
    .flag(
        "mesh-routing",
        "direct".to_string(),
        "full-mesh routing rule: direct|ring (with --topology mesh)",
    )
    .flag("json", String::new(), "write the JSON report to this path")
    .parse();

    let json_path: String = args.get("json");
    match args.get::<String>("topology").as_str() {
        "torus" => {}
        "mesh" => {
            let nodes: usize = args.get("mesh-nodes");
            if !(2..=64).contains(&nodes) {
                fail_usage(
                    &anton_verify::Diagnostic::error(
                        "AV102",
                        format!("--mesh-nodes {nodes} out of range 2..=64"),
                    )
                    .with("mesh_nodes", nodes),
                );
            }
            let rule = match args.get::<String>("mesh-routing").as_str() {
                "direct" => MeshRule::Direct,
                "ring" => MeshRule::Ring,
                other => fail_usage(
                    &anton_verify::Diagnostic::error(
                        "AV101",
                        format!("unknown mesh routing rule `{other}`"),
                    )
                    .with("known", "direct, ring"),
                ),
            };
            println!("verify_config: {nodes}-node full mesh, {rule} routing, zero VCs");
            let report = verify_mesh(nodes, rule);
            finish(&report, &json_path, None);
        }
        other => fail_usage(
            &anton_verify::Diagnostic::error("AV101", format!("unknown topology `{other}`"))
                .with("known", "torus, mesh"),
        ),
    }

    let shape_spec: String = args.get("shape");
    let shape = if shape_spec.is_empty() {
        checked_cube(args.get("k"))
    } else {
        parse_shape(&shape_spec)
    };
    let mut cfg = MachineConfig::new(shape);
    cfg.vc_policy = parse_policy(&args.get::<String>("policy"));

    let routing = if args.on("no-datelines") {
        DimOrderRouting::without_datelines(cfg.clone())
    } else {
        DimOrderRouting::new(cfg.clone())
    };

    println!(
        "verify_config: {shape} torus, policy {}, datelines {}",
        cfg.vc_policy,
        if routing.datelines() { "on" } else { "off" }
    );
    let down_spec: String = args.get("down-links");
    let downs = (!down_spec.is_empty()).then(|| parse_down_links(shape, &down_spec));
    // The degraded check certifies its tables beside the routing verified
    // here, extending its graph: one walk.
    let (mut report, verdict) = verify_model_and_epochs(&routing, downs.as_slice());
    // Lint the default parameters and arbiters, the ones an experiment
    // binary uses.
    let (params, plan) = (SimParams::default(), ArbiterKind::RoundRobin.into());
    let view = params.verify_view(&plan);
    report.diagnostics.extend(lint_params(&cfg, &view));

    let mut degraded_json: Option<Json> = None;
    if let (Some(downs), Some(verdict)) = (&downs, verdict) {
        println!(
            "degraded check: {} down link(s) — building and certifying reroute tables",
            downs.len()
        );
        if let Some(cert) = &verdict.certificate {
            println!("degraded tables: {cert}");
        }
        println!(
            "degraded verdict: {}",
            if verdict.certified() {
                "certified for install"
            } else {
                "REJECTED (the simulator would refuse these tables)"
            }
        );
        degraded_json = Some(Json::obj([
            ("down_links", Json::from(downs.len())),
            ("certified", Json::from(verdict.certified())),
            (
                "certificate",
                verdict
                    .certificate
                    .as_ref()
                    .map_or(Json::Null, anton_verify::DeadlockCertificate::to_json),
            ),
        ]));
        report.diagnostics.extend(verdict.diagnostics);
    }

    if args.on("cross-check") {
        let nodes = shape.num_nodes();
        if nodes > 64 {
            eprintln!(
                "[verify_config] skipping --cross-check: full enumeration over \
                 {nodes} nodes is infeasible (use a shape up to 4x4x4)"
            );
        } else {
            let cc = cross_check(&cfg, &full_enumeration(&cfg));
            println!(
                "cross-check vs route enumeration: symbolic {} edges, enumerated {} \
                 edges, identical: {}, verdicts agree: {}",
                cc.symbolic_edges,
                cc.enumerated_edges,
                cc.edges_equal,
                cc.verdicts_agree()
            );
            assert!(
                cc.verdicts_agree() && cc.edges_equal,
                "symbolic verifier disagrees with route enumeration — this is a bug"
            );
        }
    }

    finish(&report, &json_path, degraded_json.as_ref());
}
