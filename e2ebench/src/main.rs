//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it holds the run manifest and per-metric statistics. Any failed
//! operation or output mismatch exits 1 without printing a result.

use std::path::PathBuf;
use std::process::ExitCode;

use e2ebench::runner::{self, json_num, Options};

const USAGE: &str = "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --seed '{v}'"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("invalid --seconds '{v}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(".e2ebench-out"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match runner::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        match json_num(m.value) {
            Ok(v) => fields.push(format!(
                "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                m.name, m.unit
            )),
            Err(e) => {
                eprintln!("error: {}: {e}", m.name);
                return ExitCode::from(1);
            }
        }
    }
    if let Some(path) = &outcome.span_file {
        eprintln!("spans written to {}", path.display());
    }
    println!("{}", outcome.detail);
    println!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
