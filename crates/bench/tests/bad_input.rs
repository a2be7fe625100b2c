//! Bad machine input is a typed diagnostic, not a panic: each binary below
//! exits 2 (the usage status) with its `AV1xx` code on stderr, never 101.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `bin` from a fresh temp directory, so nothing it might write lands
/// in the checkout.
fn assert_usage_error(bin: &str, args: &[&str], code: &str) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("anton-bad-input-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(code),
        "{bin} {args:?}: no {code} in {stderr}"
    );
}

#[test]
fn a_machine_without_torus_load_is_av104() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig9_throughput"),
        &["--k", "1"],
        "AV104",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig_fault_sweep"),
        &["--k", "1"],
        "AV104",
    );
    assert_usage_error(env!("CARGO_BIN_EXE_probe"), &["--k", "1"], "AV104");
}

/// Traffic that cannot leave the one node of a `--k 1` machine is rejected
/// before any simulator is built.
#[test]
fn one_node_traffic_is_av104() {
    for bin in [
        env!("CARGO_BIN_EXE_fig11_latency"),
        env!("CARGO_BIN_EXE_fig3_multicast"),
    ] {
        assert_usage_error(bin, &["--k", "1"], "AV104");
    }
    assert_usage_error(
        env!("CARGO_BIN_EXE_fig3_multicast"),
        &["--k", "2", "--sim-k", "1"],
        "AV104",
    );
}

#[test]
fn an_extent_out_of_range_is_av102() {
    assert_usage_error(env!("CARGO_BIN_EXE_probe"), &["--k", "0"], "AV102");
    assert_usage_error(env!("CARGO_BIN_EXE_probe"), &["--k", "17"], "AV102");
    assert_usage_error(env!("CARGO_BIN_EXE_fig10_blend"), &["--k", "17"], "AV102");
    assert_usage_error(env!("CARGO_BIN_EXE_fig10_blend"), &["--k", "2"], "AV102");
    assert_usage_error(env!("CARGO_BIN_EXE_fig11_latency"), &["--k", "0"], "AV102");
}

#[test]
fn an_unknown_mode_is_av101() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_probe"),
        &["--k", "2", "--mode", "fifo"],
        "AV101",
    );
}

/// The flight recorder runs on the serial kernel only.
#[test]
fn a_recorder_on_the_sharded_kernel_is_av105() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_probe"),
        &["--k", "2", "--ring", "64", "--shards", "2"],
        "AV105",
    );
}
