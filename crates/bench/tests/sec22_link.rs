//! The Section 2.2 runner reproduces its committed results: run with its
//! defaults, `sec22_link` writes `results/sec22_link.json` byte for byte,
//! and its error-free row reads the paper's 89.6 Gb/s.

use std::process::Command;

#[test]
fn default_run_reproduces_the_committed_results() {
    let dir = std::env::temp_dir().join(format!("anton-sec22-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_sec22_link"))
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    let written = std::fs::read_to_string(dir.join("results/sec22_link.json"));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");

    let committed = include_str!("../../../results/sec22_link.json");
    assert!(
        written.expect("results written") == committed,
        "results/sec22_link.json differs from a fresh default run"
    );
    // The BER-0 row: `0e0`, 100% of the framing ceiling, 89.6 Gb/s.
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("0e0"))
        .expect("a BER-0 row");
    let cols: Vec<&str> = row.split_whitespace().collect();
    assert_eq!(cols[1..3], ["100.0%", "89.6"], "{row}");
}
