//! Runs the fault-injection sweep implemented in
//! `bos_bench::experiments::faults` and writes its tables to
//! `target/bench/exp_faults.json`.
//!
//! Pass `--quick` for the tier-1 configuration: fewer seeds per fault
//! class and no file.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::faults::run(&cfg, quick);
}
