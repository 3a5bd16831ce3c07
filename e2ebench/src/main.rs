//! The end-to-end benchmark of the XomatiQ pipeline. See `README.md`.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! e2ebench run --seed <n> --out <file> [--seconds <s>] [--smoke]
//! e2ebench compare <base.json>[,<base.json>...] <new.json>[,<new.json>...]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload,
//! one process, one JSON object on the last line of standard output. `run`
//! runs every workload that way, each in a child process, untraced and
//! traced, and writes one result file. `run` and `compare` read
//! `BENCHMARK.json` from the current directory.

mod compare;
mod driver;
mod harness;
mod inputs;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use driver::{RunArgs, RunOutput};
use harness::Scale;
use json::Json;
use workloads::WORKLOADS;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs and bare `--smoke`; anything else is positional.
struct Flags {
    pairs: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => flags.smoke = true,
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.pairs.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
            .transpose()
    }

    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let usage = "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
    let run_args = RunArgs {
        workload: flags.get("workload").ok_or(usage)?.to_string(),
        seed: flags.number("seed")?.ok_or(usage)?,
        seconds: flags.number("seconds")?.ok_or(usage)?,
        trace: match flags.get("trace").ok_or(usage)? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: bad value {other:?}")),
        },
        scale: flags.scale(),
    };
    let output = driver::run(&run_args)?;
    print_report(&run_args, &output);
    Ok(ExitCode::SUCCESS)
}

/// Every metric by name with its unit, then the diagnostics as one JSON
/// line, then the result object as the last line.
fn print_report(args: &RunArgs, output: &RunOutput) {
    println!(
        "# {} seed={} seconds={} trace={} scale={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale.name()
    );
    let op_us = output
        .metrics
        .iter()
        .find(|(name, ..)| name == "staged_op_us")
        .map(|(_, value, _)| *value);
    for (name, value, unit) in &output.metrics {
        match op_us {
            Some(op_us) if unit == &"us" && op_us > 0.0 => {
                println!(
                    "{name:<40} {value:>16.4} {unit:<6} {:>6.1}% of the op",
                    value / op_us * 100.0
                );
            }
            _ => println!("{name:<40} {value:>16.4} {unit}"),
        }
    }
    println!("failed_share {} / {}", output.failed, output.attempted);
    println!("diagnostics {}", output.diagnostics);
    println!("{}", output.result_line());
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process of this executable and parses what
/// it printed.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let result = stdout.lines().last().ok_or("child printed nothing")?;
    let diagnostics = stdout
        .lines()
        .find_map(|line| line.strip_prefix("diagnostics "))
        .ok_or("child printed no diagnostics")?;
    Ok((Json::parse(result)?, Json::parse(diagnostics)?))
}

fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let usage = "usage: e2ebench run --seed <n> --out <file> [--seconds <s>] [--smoke]";
    let seed: u64 = flags.number("seed")?.ok_or(usage)?;
    let out = flags.get("out").ok_or(usage)?;
    let seconds: f64 = match flags.number("seconds")? {
        Some(seconds) => seconds,
        None => read_json("BENCHMARK.json")?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };

    let mut workloads = Vec::new();
    let mut any_failed = false;
    for (name, ..) in WORKLOADS {
        let (timed, timed_diagnostics) = run_child(name, seed, seconds, false, flags.smoke)?;
        let (traced, traced_diagnostics) = run_child(name, seed, seconds, true, flags.smoke)?;
        let count = |key: &str| -> f64 {
            [&timed, &traced]
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum()
        };
        any_failed |= count("failed") > 0.0;
        workloads.push((
            name.to_string(),
            Json::obj([
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed"))),
                (
                    "end_to_end",
                    timed.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "diagnostics",
                    Json::obj([("timed", timed_diagnostics), ("traced", traced_diagnostics)]),
                ),
            ]),
        ));
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = Json::obj([
        (
            "meta",
            Json::obj([
                ("cores", Json::Num(cores as f64)),
                (
                    "commit",
                    Json::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::Str(command_line("rustc", &["--version"]))),
                ("seed", Json::Num(seed as f64)),
                ("run_seconds", Json::Num(seconds)),
                ("scale", Json::str(flags.scale().name())),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
        ("claim", Json::Null),
    ]);
    std::fs::write(out, format!("{result}\n")).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(if any_failed {
        eprintln!("e2ebench: some ops failed or returned a wrong result");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    let [base, new] = flags.positional.as_slice() else {
        return Err("usage: e2ebench compare <base.json>[,...] <new.json>[,...]".into());
    };
    let load =
        |list: &str| -> Result<Vec<Json>, String> { list.split(',').map(read_json).collect() };
    let benchmark = read_json(flags.get("benchmark").unwrap_or("BENCHMARK.json"))?;
    let (table, any_worse) = compare::compare(&benchmark, &load(base)?, &load(new)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
