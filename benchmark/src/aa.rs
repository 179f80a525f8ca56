//! `aa` — the same code measured against itself: two sets of `--runs`
//! runs of every workload, one process per run, the workload order
//! alternating from run to run. For every end-to-end metric of every
//! workload it prints each set's spread (interquartile range ÷ median)
//! and how much worse the second set's median is than the first's, and
//! exits non-zero when either exceeds the bound in `BENCHMARK.json`.
//! `setup_s` is held to the second test only, as the driver holds it.

use crate::report::{end_to_end, median, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's end-to-end metrics.
fn child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let result = serde_json::from_str(last).map_err(|e| e.to_string())?;
    let mut metrics = BTreeMap::new();
    for d in end_to_end() {
        let value = result["metrics"][d.name.as_str()]["value"]
            .as_f64()
            .ok_or_else(|| format!("{workload}: no {}", d.name))?;
        metrics.insert(d.name, value);
    }
    Ok(metrics)
}

/// Interquartile range ÷ median, as `statistics.quantiles(values, n=4)`
/// places the quartiles (exclusive method).
fn spread(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let quartile = |q: f64| {
        let pos = q * (s.len() + 1) as f64;
        let i = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - i as f64;
        s[i - 1] + (s[i] - s[i - 1]) * frac
    };
    (quartile(0.75) - quartile(0.25)) / median(values)
}

pub fn run(runs: usize, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    if runs < 2 {
        return Err("aa needs --runs of at least 2".to_string());
    }
    // sets[set][workload][metric] -> one value per run
    let mut sets: Vec<BTreeMap<&str, BTreeMap<String, Vec<f64>>>> =
        vec![BTreeMap::new(), BTreeMap::new()];
    for (set, results) in sets.iter_mut().enumerate() {
        for run in 0..runs {
            let mut order: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            if (set + run) % 2 == 1 {
                order.reverse();
            }
            for workload in order {
                let metrics = child(workload, seed + run as u64, seconds)?;
                eprintln!("# set {} run {} {workload} done", set + 1, run + 1);
                for (name, value) in metrics {
                    results
                        .entry(workload)
                        .or_default()
                        .entry(name)
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    let mut outside = 0;
    println!(
        "{:<16} {:<26} {:>13} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median", "spread1", "spread2", "shift", "bound"
    );
    for (workload, _) in WORKLOADS {
        for d in end_to_end() {
            let (a, b) = (&sets[0][workload][&d.name], &sets[1][workload][&d.name]);
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let (ma, mb) = (median(a), median(b));
            // Positive = the second set is worse.
            let shift = if d.better == "lower" {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let (sa, sb) = (spread(a), spread(b));
            let steady = d.name == "setup_s" || (sa <= bound && sb <= bound);
            let ok = steady && shift <= bound;
            outside += !ok as usize;
            println!(
                "{workload:<16} {:<26} {ma:>13.4} {sa:>8.4} {sb:>8.4} {shift:>+8.4} {bound:>6.3}{}",
                d.name,
                if ok { "" } else { "  OUTSIDE" }
            );
        }
    }
    // Every run made, so that a reader can see what the spreads summarise.
    for (workload, _) in WORKLOADS {
        for d in end_to_end() {
            let list = |set: usize| {
                sets[set][workload][&d.name]
                    .iter()
                    .map(|v| format!("{v:.5}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("values {workload} {} | {} | {}", d.name, list(0), list(1));
        }
    }
    if outside == 0 {
        println!("aa: every metric of every workload within its bound");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("aa: {outside} metric(s) outside their bound");
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::spread;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }
}
