//! `anton-benchmark`: the repository's benchmark.
//!
//! ```text
//! anton-benchmark run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
//! anton-benchmark run --all [--seed N] [--seconds S] [--smoke] [--out DIR]
//!                           [--write-expected FILE]
//! anton-benchmark layers [--seed N] [--smoke]
//! anton-benchmark compare A.json B.json
//! anton-benchmark selfcheck [--seed N] [--seconds S] [--smoke] [--out DIR]
//! ```
//!
//! See `benchmark/README.md` for what the workloads and metrics mean.

mod api;
mod compare;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use api::Json;
use compare::FullResult;
use report::UnitResult;
use runner::{Invocation, PINNED_SEED};

const USAGE: &str = "usage: anton-benchmark <run|layers|compare|selfcheck> [options]
  run --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  run --all [--seed N] [--seconds S] [--smoke] [--out DIR] [--write-expected FILE]
  layers [--seed N] [--smoke]
  compare A.json B.json
  selfcheck [--seed N] [--seconds S] [--smoke] [--out DIR]";

/// Parsed command line: `--key value` options, bare `--switch`es, and
/// positional arguments.
struct Args {
    options: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

const SWITCHES: [&str; 3] = ["--all", "--smoke", "--help"];
const OPTIONS: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--out",
    "--write-expected",
];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if OPTIONS.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("`{a}` needs a value"))?;
                args.options.push((a.clone(), v.clone()));
            } else if a.starts_with("--") {
                return Err(format!("unknown option `{a}`"));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn on(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`{key} {v}`: not a whole number")),
        }
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("--out").unwrap_or("benchmark/out"))
    }
}

fn write_json(path: &Path, j: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    api::write_atomic(path, &j.to_pretty_string()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn unit_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("unit-{workload}-trace{}.json", u8::from(traced)))
}

/// One workload, traced or not, in this process: the contract's invocation.
fn run_one(args: &Args) -> Result<bool, String> {
    let declared = report::declared();
    let inv = Invocation {
        workload: args
            .get("--workload")
            .ok_or("`run` needs --workload NAME or --all")?
            .to_string(),
        seed: args.number("--seed", PINNED_SEED)?,
        seconds: args.number("--seconds", declared.run_seconds)?,
        traced: match args.number("--trace", 0)? {
            0 => false,
            1 => true,
            other => return Err(format!("`--trace {other}`: 0 or 1")),
        },
        smoke: args.on("--smoke"),
    };
    let out = args.out_dir();
    let (result, trace) = runner::run(&inv, |result| {
        write_json(
            &unit_path(&out, &result.workload, inv.traced),
            &result.to_json(),
        )
    })?;
    if let Some(trace) = trace {
        write_json(&out.join(format!("trace-{}.json", result.workload)), &trace)?;
    }
    result.print_table();
    // The result line carries `correct`; the exit code only says whether
    // there is a result.
    println!("{}", result.contract_line());
    Ok(true)
}

/// Runs `run --workload …` in a child process, so that each workload's
/// `VmHWM` is its own, and reads the record the child wrote.
fn run_child(
    workload: &str,
    traced: bool,
    seed: u64,
    seconds: u64,
    smoke: bool,
    out: &Path,
) -> Result<UnitResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    // `status()` waits for the child to end.
    let status = cmd.status().map_err(|e| format!("spawning child: {e}"))?;
    if !status.success() {
        return Err(format!("child for `{workload}` exited with {status}"));
    }
    UnitResult::from_json(&read_json(&unit_path(out, workload, traced))?)
}

/// Every workload, untraced then traced, each in a child process.
fn run_all(args: &Args, out: &Path, reverse: bool) -> Result<(Json, bool), String> {
    let declared = report::declared();
    let seed = args.number("--seed", PINNED_SEED)?;
    let seconds = args.number("--seconds", declared.run_seconds)?;
    let smoke = args.on("--smoke");
    let started = Instant::now();
    let mut order: Vec<&str> = workloads::NAMES.to_vec();
    if reverse {
        order.reverse();
    }
    let mut units: Vec<(String, UnitResult, UnitResult)> = Vec::new();
    for w in &order {
        let plain = run_child(w, false, seed, seconds, smoke, out)?;
        let traced = run_child(w, true, seed, seconds, smoke, out)?;
        units.push((w.to_string(), plain, traced));
    }
    let mut problems: Vec<String> = Vec::new();
    let find = |name: &str| units.iter().find(|(w, _, _)| w == name).map(|(_, p, _)| p);
    if let (Some(serial), Some(sharded)) = (find("sat-uniform-k8"), find("sharded-uniform-k8")) {
        // The sharded kernel must reproduce the serial run exactly.
        for key in ["sim.cycles", "sim.flit_hops", "sim.delivered_packets"] {
            if serial.exact.get(key) != sharded.exact.get(key) {
                problems.push(format!(
                    "sharded-uniform-k8 differs from sat-uniform-k8 on {key}: {:?} vs {:?}",
                    sharded.exact.get(key),
                    serial.exact.get(key)
                ));
            }
        }
    }
    for (w, plain, traced) in &units {
        for u in [plain, traced] {
            problems.extend(u.problems.iter().map(|p| format!("{w}: {p}")));
        }
    }
    let ops: u64 = units
        .iter()
        .map(|(_, p, t)| p.attempted + t.attempted)
        .sum();
    let failed: u64 = units.iter().map(|(_, p, t)| p.failed + t.failed).sum();
    let correct = problems.is_empty() && failed == 0;
    let result = Json::obj([
        ("schema", Json::from(report::SCHEMA)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("smoke", Json::from(smoke)),
        ("host", report::host_fingerprint()),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
        ("order", Json::arr(order.iter().map(|w| Json::from(*w)))),
        ("correct", Json::from(correct)),
        ("ops", Json::from(ops)),
        ("ops_failed", Json::from(failed)),
        (
            "problems",
            Json::arr(problems.iter().map(|p| Json::from(p.as_str()))),
        ),
        (
            "workloads",
            Json::Obj(
                units
                    .iter()
                    .map(|(w, plain, traced)| {
                        (
                            w.clone(),
                            Json::obj([
                                ("end_to_end", plain.to_json()),
                                ("per_layer", traced.to_json()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Some(path) = args.get("--write-expected") {
        let sections = units.iter().flat_map(|(w, plain, traced)| {
            [
                (w.clone(), plain.exact_json()),
                (format!("{w}.traced"), traced.exact_json()),
            ]
        });
        write_json(Path::new(path), &Json::Obj(sections.collect()))?;
        eprintln!("[anton-benchmark] wrote {path}; rebuild to pin it");
    }
    println!(
        "== all workloads: {ops} ops, {failed} failed, {:.1} s ==",
        started.elapsed().as_secs_f64()
    );
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    Ok((result, correct))
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    if !args.on("--all") {
        return run_one(args);
    }
    let out = args.out_dir();
    let (result, correct) = run_all(args, &out, false)?;
    write_json(&out.join("result.json"), &result)?;
    println!("wrote {}", out.join("result.json").display());
    Ok(correct)
}

fn cmd_layers(args: &Args) -> Result<bool, String> {
    let seed = args.number("--seed", PINNED_SEED)?;
    let numbers = api::layer_drives(seed, args.on("--smoke"));
    let declared = report::declared();
    for (name, value) in numbers.times.iter().chain(&numbers.exact) {
        let unit = declared
            .per_layer
            .iter()
            .find(|d| d.name == *name)
            .map_or("count", |d| d.unit.as_str());
        println!("{name:<36} {value:>16.6} {unit}");
    }
    Ok(true)
}

fn load_full(path: &str) -> Result<FullResult, String> {
    FullResult::from_json(&read_json(Path::new(path))?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("`compare` takes two result files".into());
    };
    let rows = compare::compare(&load_full(a)?, &load_full(b)?)?;
    Ok(!compare::print(&rows))
}

/// Two full sets on the same build, the second in reverse workload order,
/// then `compare`: the benchmark's own noise must sit inside its bounds.
fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    let out = args.out_dir();
    let mut sets = Vec::new();
    for (name, reverse) in [("selfcheck-a", false), ("selfcheck-b", true)] {
        let (result, correct) = run_all(args, &out.join(name), reverse)?;
        write_json(&out.join(format!("{name}.json")), &result)?;
        if !correct {
            return Ok(false);
        }
        sets.push(FullResult::from_json(&result)?);
    }
    let rows = compare::compare(&sets[0], &sets[1])?;
    Ok(!compare::print(&rows))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| {
        if args.on("--help") {
            println!("{USAGE}");
            return Ok(true);
        }
        match command.as_str() {
            "run" => cmd_run(&args),
            "layers" => cmd_layers(&args),
            "compare" => cmd_compare(&args),
            "selfcheck" => cmd_selfcheck(&args),
            "--help" | "help" => {
                println!("{USAGE}");
                Ok(true)
            }
            other => Err(format!("unknown command `{other}`")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A correctness check or a comparison failed; the report says which.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("anton-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
