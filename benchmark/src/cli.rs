//! Command line, report printing, and the `--aa` and `--smoke` modes.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::load::{self, Outcome, Sizing};
use crate::metrics::{median, quartiles, MetricDef, END_TO_END, PER_LAYER};
use crate::stack::{nproc, Workload};
use crate::trace;

/// `run_seconds` of `BENCHMARK.json`: the default of `--seconds`.
pub const RUN_SECONDS: f64 = 16.0;

const USAGE: &str = "\
usage: taster-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                        [--smoke] [--aa N]

  --workload NAME  drift | steady_reuse | exact_scan | mutate_mix (default: all four)
  --seed N         derives the data and every request (default 1)
  --seconds S      length of the timed phase the request counts are sized for (default 16)
  --trace 0|1      1: the traced run, printing the per-layer metrics (default 0)
  --smoke          60k rows and a few dozen requests; untraced and traced run of every workload
  --aa N           run each workload N times on --seed and once on the next seed,
                   print min / median / max of every end-to-end metric and its
                   range (max - min) / median against its bound

The last line of a single run is one JSON object: correct, attempted, failed, metrics.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload: {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("bad --seed: {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds (1..=60): {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace (0 or 1): {v}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--aa" => {
                let v = value()?;
                args.aa = Some(
                    v.parse()
                        .ok()
                        .filter(|n: &usize| *n >= 2)
                        .ok_or_else(|| format!("bad --aa (at least 2): {v}"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where trace files and the durable directory of `mutate_mix` go.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn threads_setting() -> String {
    std::env::var("TASTER_THREADS").unwrap_or_else(|_| "unset".to_string())
}

fn print_rows(defs: &[MetricDef], outcome: &Outcome) {
    for def in defs {
        let value = outcome.metrics.get(def.name).unwrap_or(f64::NAN);
        println!("  {:<34} {:>16.4} {}", def.name, value, def.unit);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(defs: &[MetricDef], outcome: &Outcome) -> Result<String, String> {
    let mut members = Vec::with_capacity(defs.len());
    for def in defs {
        let value = outcome
            .metrics
            .get(def.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        members.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(def.name),
            json::quote(def.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        members.join(", ")
    ))
}

/// Run one workload once and print its report; `Ok(true)` when nothing failed.
fn run_one(workload: Workload, seed: u64, sizing: &Sizing, traced: bool) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {out:?}: {e}"))?;
    println!(
        "== {}  trace={}  seed={seed}  lineitem_rows={}  nproc={}  TASTER_THREADS={} ==",
        workload.name(),
        u8::from(traced),
        sizing.lineitem_rows,
        nproc(),
        threads_setting()
    );
    let (defs, outcome) = if traced {
        (PER_LAYER, trace::run(workload, seed, sizing, &out)?)
    } else {
        (END_TO_END, load::run(workload, seed, sizing, &out)?)
    };
    println!("{}", if traced { "per layer" } else { "end to end" });
    print_rows(defs, &outcome);
    println!("notes");
    for (name, value, unit) in &outcome.notes {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "  {:<34} {:>16} of {}",
        "failed", outcome.failed, outcome.attempted
    );
    println!("{}", result_line(defs, &outcome)?);
    Ok(outcome.failed == 0)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_fingerprint() {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    println!("host: nproc={}  cpu={cpu}", nproc());
    println!(
        "build: commit={}  {}  TASTER_THREADS={}",
        command_output("git", &["rev-parse", "--short", "HEAD"]),
        command_output("rustc", &["-V"]),
        threads_setting()
    );
}

/// One child run of this executable; its end-to-end metrics by name.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| format!("child printed no result ({e}): {line}"))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("child run failed: {line}"));
    }
    Ok(result
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// A/A: the same code against itself. Each run is its own process, so
/// `peak_rss_mb` and cold caches are per run as they are for the driver.
fn run_aa(args: &Args, runs: usize) -> Result<bool, String> {
    print_fingerprint();
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_inside = true;
    for workload in workloads {
        let mut first: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..runs {
            first.push(child_run(workload, args.seed, args.seconds, args.smoke)?);
        }
        let second = child_run(workload, args.seed + 1, args.seconds, args.smoke)?;
        println!(
            "== {}  {runs} runs on seed {}, one on seed {} ==",
            workload.name(),
            args.seed,
            args.seed + 1
        );
        println!(
            "  {:<14} {:>11} {:>11} {:>11} {:>9} {:>8} {:>6}  {:>11}",
            "metric", "min", "median", "max", "range", "iqr", "bound", "next seed"
        );
        for def in END_TO_END {
            let pick = |run: &Vec<(String, f64)>| {
                run.iter()
                    .find(|(n, _)| n == def.name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let mut values: Vec<f64> = first.iter().map(pick).collect();
            let mid = median(&mut values);
            let (min, max) = (values[0], values[values.len() - 1]);
            // A metric repeats when its whole range is inside its bound; the
            // distance between the quartiles is printed beside it.
            let (q1, q3) = quartiles(&mut values);
            let inside = (max - min) / mid <= def.bound;
            all_inside &= inside;
            println!(
                "  {:<14} {:>11.4} {:>11.4} {:>11.4} {:>8.1}% {:>7.1}% {:>5.0}%  {:>11.4}{}",
                def.name,
                min,
                mid,
                max,
                (max - min) / mid * 100.0,
                (q3 - q1) / mid * 100.0,
                def.bound * 100.0,
                pick(&second),
                if inside {
                    ""
                } else {
                    "  <-- outside its bound"
                }
            );
        }
    }
    Ok(all_inside)
}

pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(runs) = args.aa {
        run_aa(&args, runs)
    } else {
        let sizing = if args.smoke {
            Sizing::smoke()
        } else {
            Sizing::full(args.seconds)
        };
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        // `--smoke` covers both runs of every workload; otherwise `--trace`
        // selects one.
        let modes: &[bool] = if args.smoke && args.workload.is_none() {
            &[false, true]
        } else if args.trace {
            &[true]
        } else {
            &[false]
        };
        workloads
            .iter()
            .flat_map(|w| modes.iter().map(move |m| (*w, *m)))
            .try_fold(true, |ok, (w, traced)| {
                Ok(ok & run_one(w, args.seed, &sizing, traced)?)
            })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
