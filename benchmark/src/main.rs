//! `bosbench`: the store-level benchmark of the BOS reproduction.
//!
//! ```text
//! bosbench --workload <ingest|scan|fragmented_scan|compact>
//!          [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--trace-out <path>]
//! ```
//!
//! Prints a line of run facts, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace 1` the per-layer ones. `--trace-out` also writes the
//! traced run's spans as chrome trace-event JSON. Exits non-zero when any
//! operation failed or returned a wrong result. See README.md.

mod data;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use workloads::{Config, Workload, FULL};

const USAGE: &str = "usage: bosbench --workload <ingest|scan|fragmented_scan|compact> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--trace-out <path>]";

struct Args {
    run: Config,
    trace_out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut run = Config {
        workload: Workload::Ingest,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: FULL,
    };
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => run.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    Ok(Args { run, trace_out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bosbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = workloads::run(&args.run);
    if let (Some(path), Some(json)) = (&args.trace_out, &outcome.chrome) {
        if let Err(e) = std::fs::write(path, json) {
            outcome.failed += 1;
            outcome.attempted += 1;
            outcome
                .first_failure
                .get_or_insert(format!("writing {path}: {e}"));
        }
    }
    println!("{}", report::provenance_line(&outcome));
    let (line, correct) = report::result_line(&outcome, args.run.trace);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        if let Some(f) = &outcome.first_failure {
            eprintln!("bosbench: {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_registered_command_line() {
        let a = parse(&args("--workload scan --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(a.run.workload, Workload::Scan);
        assert_eq!((a.run.seed, a.run.seconds, a.run.trace), (7, 10.0, true));
        assert!(parse(&args("--seed 7")).is_err());
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload scan --trace 2")).is_err());
        assert!(parse(&args("--workload scan --seconds")).is_err());
    }
}
