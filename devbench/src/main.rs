//! `devbench` — the repository's closed-loop device-path benchmark.
//!
//! ```text
//! devbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public device, controller and fleet
//! APIs, checks every output against a reference, and prints one JSON
//! object as the last line of standard output: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run. A run record (seed, host, sample counts, failures by cause) is
//! printed before it and written, with the spans of a traced run, under
//! `devbench/out/`. See `devbench/README.md`.

mod dev;
mod host;
mod net;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("devbench: {e}");
            eprintln!(
                "usage: devbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match workloads::run(
        &args.workload,
        net::FULL,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("devbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let rep = report::Report::new(&args.workload, args.seed, args.trace, &outcome);
    println!("# record {}", rep.record_json());
    if let Err(e) = rep.write_files(&outcome) {
        eprintln!("devbench: could not write the run record: {e}");
    }
    println!("{}", rep.result_json());
    ExitCode::SUCCESS
}
