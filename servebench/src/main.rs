//! `servebench` — the isomit serving benchmark.
//!
//! ```text
//! servebench --workload cold_rid|repeat_rid|watch_stream --seed N
//!            --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! Starts the given `isomit-serve` binary with its default tunables,
//! drives it from one generator thread in this process, one request in
//! flight at a time, over at most two connections with pre-encoded
//! request lines, verifies every reply byte for byte, and
//! prints every metric by name with its unit. The last stdout line is
//! the JSON result: end-to-end metrics with `--trace 0`, per-layer
//! metrics (spans from an in-process replay plus daemon `stats` deltas)
//! with `--trace 1`. See `README.md` next to this crate.

mod daemon;
mod inputs;
mod replay;
mod report;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Opts;

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match workload.as_str() {
        "cold_rid" => workloads::cold_rid(&opts),
        "repeat_rid" => workloads::repeat_rid(&opts),
        "watch_stream" => workloads::watch_stream(&opts),
        other => Err(format!("unknown workload {other}")),
    };
    match run {
        Ok(report) => {
            print!("{}", report.render(&workload));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
