//! The fistful workspace's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and the run protocol.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--repeat N] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark manifest
//! ```
//!
//! With `--workload` it runs that one workload in this process and ends
//! its output with the result object. Without, it runs all seven, each in
//! a process of its own (so set-up time and peak memory belong to one
//! workload alone), and writes the set to `--out`.

mod batch;
mod catalog;
mod compare;
mod economy;
mod ingest;
mod json;
mod procstat;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use report::{Outcome, RunOpts};
use serve::EngineKind;
use std::process::ExitCode;
use std::time::Instant;
use stream::Traffic;

/// The seed a run uses when none is given: the simulator's own default.
const DEFAULT_SEED: u64 = 0x0F15_7F01;
/// Length of the timed phase, here and in `BENCHMARK.json`.
const RUN_SECONDS: u32 = 10;
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage:
  benchmark run [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--repeat N] [--out FILE]
  benchmark compare A.json B.json
  benchmark manifest";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Untraced runs of each workload in a set.
    repeat: usize,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = Some(value(&mut i)?.clone()),
            "--seed" => {
                parsed.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be within (0, 60]".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; `--trace 0|1` says which.
                parsed.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                parsed.repeat = value(&mut i)?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat must be a whole number from 1 to 100")?;
            }
            "--out" => parsed.out = Some(value(&mut i)?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(parsed)
}

fn run_workload(name: &str, opts: RunOpts) -> Result<Outcome, String> {
    let spec = catalog::workload(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; known: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let name = spec.name;
    let outcome = match name {
        "serve_point_hot" => serve::run(name, Traffic::PointHot, EngineKind::Threaded, opts),
        "serve_point_cold" => serve::run(name, Traffic::PointCold, EngineKind::Threaded, opts),
        "serve_taint" => serve::run(name, Traffic::Taint, EngineKind::Threaded, opts),
        "serve_point_hot_event" => serve::run(name, Traffic::PointHot, EngineKind::Event, opts),
        "ingest_live" => ingest::run(name, false, opts),
        "ingest_live_store" => ingest::run(name, true, opts),
        "batch_cluster" => batch::run(name, opts),
        _ => unreachable!("every catalogue workload is dispatched"),
    };
    outcome.map_err(|e| format!("{name}: {e}"))
}

/// Runs one workload in a child process and returns its `DETAIL` object
/// and its result object.
fn run_child(
    args: &RunArgs,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("DETAIL ") {
            Some(json) => detail = Some(Json::parse(json)?),
            None => {
                if !last.is_empty() {
                    println!("{last}");
                }
                last = line;
            }
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let detail = detail.ok_or_else(|| format!("{workload} printed no DETAIL line"))?;
    Ok((detail, Json::parse(last)?))
}

/// What `--smoke` adds: every named metric came out with its unit, and
/// every run made its correctness checks.
fn smoke_findings(detail: &Json, result: &Json, traced: bool) -> Vec<String> {
    let mut findings = Vec::new();
    let workload = detail.get("workload").and_then(Json::as_str).unwrap_or("?");
    let expect: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = result.get("metrics").map(Json::members).unwrap_or(&[]);
    if metrics.len() != expect.len() {
        findings.push(format!(
            "{workload}: {} metrics, expected {}",
            metrics.len(),
            expect.len()
        ));
    }
    for (name, unit) in expect {
        let m = result.get("metrics").and_then(|m| m.get(name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        let got_unit = m.and_then(|m| m.get("unit")).and_then(Json::as_str);
        if value.is_none() || got_unit != Some(unit) {
            findings.push(format!("{workload}: {name} missing, or not in {unit}"));
        } else if !traced && value == Some(0.0) {
            findings.push(format!("{workload}: end-to-end metric {name} is 0"));
        }
    }
    let checks = detail.get("checks").and_then(Json::as_array).unwrap_or(&[]);
    if checks.is_empty() {
        findings.push(format!("{workload}: no correctness check ran"));
    }
    findings
}

fn run_all(args: &RunArgs, seconds: f64) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    let mut findings = Vec::new();
    // Repeats go round the workloads, not workload by workload, so a
    // noisy minute on the machine costs each workload one run at most.
    let mut plan: Vec<(&str, bool)> = Vec::new();
    for _ in 0..args.repeat {
        plan.extend(WORKLOADS.iter().map(|w| (w.name, false)));
    }
    if args.trace {
        plan.extend(WORKLOADS.iter().map(|w| (w.name, true)));
    }
    for (workload, traced) in plan {
        let (detail, result) = run_child(args, workload, seconds, traced)?;
        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
        if args.smoke {
            findings.extend(smoke_findings(&detail, &result, traced));
        }
        runs.push(detail);
        println!();
    }
    for finding in &findings {
        println!("smoke: {finding}");
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let set = Json::obj(vec![
        ("schema", Json::str("fistful.benchmark/1")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("available_parallelism", Json::Num(threads as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(path) = &args.out {
        if let Some(dir) = std::path::Path::new(path)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, set.emit() + "\n").map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let ok = all_correct && findings.is_empty();
    println!(
        "{} workloads{}: {}",
        WORKLOADS.len(),
        if args.trace {
            ", untraced and traced"
        } else {
            ""
        },
        if ok { "all correct" } else { "FAILED" }
    );
    Ok(ok)
}

/// `BENCHMARK.json`, from the catalogue.
fn manifest() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.label())),
            ])
        })
        .collect();
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
    .emit()
}

fn load(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn real_main(started: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run_args(&args[1..])?;
            let seconds = run.seconds.unwrap_or(if run.smoke {
                SMOKE_SECONDS
            } else {
                RUN_SECONDS as f64
            });
            match &run.workload {
                Some(name) => {
                    let opts = RunOpts {
                        seed: run.seed,
                        seconds,
                        trace: run.trace,
                        smoke: run.smoke,
                        started,
                    };
                    let outcome = run_workload(name, opts)?;
                    outcome.print();
                    Ok(outcome.correct())
                }
                None => run_all(&run, seconds),
            }
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(&load(a)?, &load(b)?),
            _ => Err(USAGE.to_string()),
        },
        Some("manifest") => {
            println!("{}", manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main(Instant::now()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
