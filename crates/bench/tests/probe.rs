//! The probe's views are kernel-invariant: one instrumented batch on the
//! serial kernel and on two shards attaches the same per-source completion,
//! link-class utilization, sampled windows and congestion analysis.

use std::process::Command;

use anton_obs::Json;

/// Runs `probe` with `args` in a fresh temp directory and returns its
/// results document.
fn probe(args: &[&str]) -> Json {
    let dir = std::env::temp_dir().join(format!(
        "anton-probe-{}-{}",
        std::process::id(),
        args.join("_")
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("probe runs");
    assert!(
        out.status.success(),
        "probe {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("results/probe.json")).expect("results written");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    Json::parse(&text).expect("valid results document")
}

/// The `windows` section with the `occupied_vcs` readings blanked. That one
/// gauge is read per replica mid-window: a flit sent on a shard-boundary
/// link waits in its producer's outbox until the window's barrier, so the
/// VC it will occupy is not yet occupied in any replica. Every counter, the
/// other gauges and every window's bounds must still agree.
fn windows_but_occupancy(doc: &Json) -> Vec<(u64, u64, Vec<u64>)> {
    let windows = doc.get("windows").expect("sampler attached");
    let list = |j: &Json, key: &str| j.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let occupied = list(windows, "channels")
        .iter()
        .position(|c| c.get("name").and_then(Json::as_str) == Some("occupied_vcs"))
        .expect("occupied_vcs channel");
    list(windows, "windows")
        .iter()
        .map(|w| {
            let bound = |key| w.get(key).and_then(Json::as_u64).expect(key);
            let mut values: Vec<u64> = list(w, "values")
                .iter()
                .map(|v| v.as_u64().expect("a count"))
                .collect();
            values[occupied] = 0;
            (bound("start"), bound("end"), values)
        })
        .collect()
}

#[test]
fn serial_and_sharded_runs_attach_identical_views() {
    let base = ["--k", "2", "--batch", "16", "--sample", "100", "--stalls"];
    let serial = probe(&base);
    let sharded = probe(&[&base[..], &["--shards", "2"]].concat());
    assert_eq!(serial.get("schema_version").and_then(Json::as_u64), Some(2));
    for section in ["sources", "link_classes", "congestion"] {
        let a = serial
            .get(section)
            .unwrap_or_else(|| panic!("no {section}"));
        let b = sharded
            .get(section)
            .unwrap_or_else(|| panic!("no {section}"));
        assert_eq!(a.to_pretty_string(), b.to_pretty_string(), "{section}");
    }
    assert_eq!(
        windows_but_occupancy(&serial),
        windows_but_occupancy(&sharded)
    );
}
