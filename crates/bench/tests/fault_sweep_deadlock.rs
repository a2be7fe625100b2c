//! A fault-sweep point whose link layer stops delivering trips the deadlock
//! watchdog. The sweep must say so and carry on: the report blames the link
//! layer, the point's measurements are skipped, its report lands in the v2
//! `deadlock_reports` section, and the binary exits 1 rather than panicking.

use std::process::Command;

use anton_obs::json::Json;

#[test]
fn a_dead_link_layer_is_reported_and_the_sweep_exits_1() {
    let dir = std::env::temp_dir().join(format!("anton-fault-deadlock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // At BER 0.5 every 240-bit frame is corrupt, so no flit ever crosses a
    // torus link; the BER 0 control completes.
    let out = Command::new(env!("CARGO_BIN_EXE_fig_fault_sweep"))
        .args(["--k", "2", "--bers", "0.5,0", "--packets", "2"])
        .args(["--loads", "0.3", "--down-window", ""])
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let doc = std::fs::read_to_string(dir.join("results/fig_fault_sweep.json"));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");

    // The verdict names the link layer, not a divergence from the model.
    assert!(stderr.contains("point 0 deadlocked"), "{stderr}");
    assert!(stderr.contains("  link layer: "), "{stderr}");
    assert!(
        !stderr.contains("diverged from the verified model"),
        "{stderr}"
    );
    assert!(
        stdout.contains("deadlocked: see deadlock_reports"),
        "{stdout}"
    );
    assert!(stdout.contains("verified on 1 points"), "{stdout}");

    let doc = Json::parse(&doc.expect("results written")).expect("valid JSON");
    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(2));
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    let metrics = |i: usize| {
        points[i]
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
    };
    // The deadlocked point measured nothing; the control measured all.
    let dead = metrics(0);
    assert_eq!(dead.len(), 1, "{dead:?}");
    assert_eq!(dead[0].0, "deadlocked");
    assert_eq!(dead[0].1.as_bool(), Some(true));
    let control = metrics(1);
    assert!(control.iter().any(|(k, _)| k == "throughput"));
    assert!(control.contains(&("deadlocked".to_string(), Json::Bool(false))));

    let reports = doc
        .get("deadlock_reports")
        .and_then(Json::as_arr)
        .expect("reports");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].get("point").and_then(Json::as_u64), Some(0));
    let report = reports[0].get("report").expect("report");
    let backlogs = report
        .get("shim_backlogs")
        .and_then(Json::as_arr)
        .expect("backlogs");
    assert!(!backlogs.is_empty());
    // No link was scheduled down, so none is listed as faulty.
    let downs = report
        .get("down_links")
        .and_then(Json::as_arr)
        .expect("down links");
    assert!(downs.is_empty());
}
