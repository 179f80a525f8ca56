//! The repo benchmark: four workloads, named end-to-end and per-layer
//! metrics, every answer checked against a last-write-wins model.
//!
//! ```text
//! artsparse-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! artsparse-benchmark aa [--runs <n>] [--seed <n>] [--seconds <s>]
//! artsparse-benchmark manifest
//! ```
//!
//! `run` prints every metric as `name value unit` and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero on a wrong answer.

mod aa;
mod common;
mod embed_lifecycle;
mod micro;
mod oracle;
mod paper_matrix;
mod report;
mod serve;
mod trace;

use common::{Args, Outcome};
use report::{end_to_end, per_layer, MetricDef, RUN_SECONDS, WORKLOADS};
use serde_json::json;
use std::process::ExitCode;

/// The seed `aa` and the examples use, and one no development run used:
/// a claim must also hold on the second.
const DEFAULT_SEED: u64 = 20240527;
const HELD_OUT_SEED: u64 = 77003;

fn usage() -> String {
    format!(
        "usage:
  artsparse-benchmark run --workload <paper-matrix|embed-lifecycle|serve-ingest|serve-query>
                          [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]
  artsparse-benchmark aa [--runs <n>] [--seed <n>] [--seconds <s>]
  artsparse-benchmark manifest
seeds: {DEFAULT_SEED} by default; check a claim on {HELD_OUT_SEED} too, which no development run used"
    )
}

/// Flags as `--name value` pairs; `--smoke` alone is a switch.
fn flags(args: &[String]) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let name = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        if name == "smoke" {
            out.insert(name.to_string(), "1".to_string());
            i += 1;
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{name} needs a value"))?;
            out.insert(name.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &std::collections::BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} {v:?} is not a number")),
    }
}

fn run_args(flags: &std::collections::BTreeMap<String, String>) -> Result<Args, String> {
    let workload = flags.get("workload").ok_or("run needs --workload")?.clone();
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds: f64 = number(flags, "seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload,
        seed: number(flags, "seed", DEFAULT_SEED)?,
        seconds,
        trace: match flags.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        smoke: flags.contains_key("smoke"),
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every output is stamped with: the host's parallelism, the
/// engine's thread settings, the code and compiler, the seed and the
/// operation counts.
fn stamp(args: &Args, outcome: &Outcome) -> serde_json::Value {
    let config = artsparse_storage::EngineConfig::default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    json!({
        "workload": args.workload.clone(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "available_parallelism": cores,
        "engine_threads": config.parallelism().threads,
        "engine_read_parallelism": config.effective_parallelism(),
        "git_revision": command_output("git", &["rev-parse", "HEAD"]),
        "rustc": command_output("rustc", &["-V"]),
        "ops": outcome.ops.clone()
    })
}

fn measure(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "paper-matrix" => paper_matrix::run(args),
        "embed-lifecycle" => embed_lifecycle::run(args),
        _ => serve::run(args),
    }
}

fn run(args: &Args) -> ExitCode {
    let mut outcome = measure(args);
    let (failed, attempted) = (outcome.report.failed, outcome.report.attempted);
    outcome
        .report
        .set("failed_share", failed as f64 / attempted.max(1) as f64);
    let defs = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    let metrics = match outcome.report.select(&defs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stamp = stamp(args, &outcome);
    eprintln!("# {}", serde_json::to_string(&stamp).expect("JSON renders"));
    if args.trace {
        match common::write_trace_file(args, &stamp, &outcome.report, &outcome.spans) {
            Ok(path) => eprintln!("# trace: {}", path.display()),
            Err(e) => {
                eprintln!("error: writing the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut by_name = serde_json::Map::new();
    for (name, value, unit) in &metrics {
        let note = outcome
            .report
            .note_of(name)
            .map(|n| format!("  {n}"))
            .unwrap_or_default();
        println!("{name} {value} {unit}{note}");
        by_name.insert(name.clone(), json!({"value": *value, "unit": *unit}));
    }
    let report = &outcome.report;
    for failure in &report.failures {
        eprintln!("wrong: {failure}");
    }
    let correct = report.failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": serde_json::Value::Object(by_name)
    });
    println!("{}", serde_json::to_string(&line).expect("JSON renders"));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the metric tables.
fn manifest() -> serde_json::Value {
    let metric = |d: &MetricDef| match d.bound {
        Some(bound) => {
            json!({"name": d.name.clone(), "unit": d.unit, "better": d.better, "bound": bound})
        }
        None => json!({"name": d.name.clone(), "unit": d.unit, "better": d.better}),
    };
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|(name, why)| json!({"name": *name, "why": *why}))
        .collect();
    json!({
        "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--", "run"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end().iter().map(metric).collect::<Vec<_>>(),
        "per_layer": per_layer().iter().map(metric).collect::<Vec<_>>()
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match argv.split_first() {
        Some((command, rest)) => flags(rest).map(|f| (command.as_str(), f)),
        None => Err("no command".to_string()),
    };
    let outcome = parsed.and_then(|(command, flags)| match command {
        "run" => Ok(run(&run_args(&flags)?)),
        "aa" => aa::run(
            number(&flags, "runs", 5)?,
            number(&flags, "seed", DEFAULT_SEED)?,
            number(&flags, "seconds", RUN_SECONDS as f64)?,
        ),
        "manifest" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&manifest()).expect("JSON renders")
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark cannot rot silently: every workload runs at smoke
    /// size, traced and untraced, answers correctly and reports exactly
    /// the declared metrics.
    #[test]
    fn every_workload_runs_at_smoke_size() {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: HELD_OUT_SEED,
                    seconds: 0.3,
                    trace,
                    smoke: true,
                };
                let outcome = measure(&args);
                let report = &outcome.report;
                assert!(report.attempted > 0, "{workload}: nothing was checked");
                assert_eq!(report.failed, 0, "{workload}: {:?}", report.failures);
                let defs = if trace { per_layer() } else { end_to_end() };
                let metrics = report
                    .select(&defs)
                    .unwrap_or_else(|e| panic!("{workload}: {e}"));
                if !trace {
                    for (name, value, _) in &metrics {
                        assert!(
                            *value > 0.0,
                            "{workload}: end-to-end metric {name} is {value}"
                        );
                    }
                }
                assert_eq!(
                    trace,
                    !outcome.spans.is_empty(),
                    "{workload}: spans only when traced"
                );
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `artsparse-benchmark manifest > BENCHMARK.json`"
        );
    }
}
