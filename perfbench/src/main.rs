//! The repository benchmark's measuring binary.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --worker PATH
//! ```
//!
//! With `--trace 0` it runs the workload's end-to-end cells (tracing off)
//! for about `S` seconds; with `--trace 1` it runs the per-layer probes (a
//! fixed amount of work) and writes their spans under `perfbench/out/`,
//! relative to the working directory.
//! Either way it prints one JSON object of raw measurements as its last
//! line; `perfbench/run.py` checks them and reduces them to metrics.

mod e2e;
mod json;
mod rss;
mod spans;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut worker = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--worker" => worker = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        worker: worker.ok_or("--worker is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(
            args.workload,
            args.seed,
            &args.worker,
            Path::new("perfbench/out"),
        )
    } else {
        let budget = Duration::from_secs_f64(args.seconds);
        e2e::run(args.workload, args.seed, budget, &args.worker)
    };
    println!("{}", result.render());
    ExitCode::SUCCESS
}
