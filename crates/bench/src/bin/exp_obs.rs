//! Runs the flight-recorder gates implemented in
//! `bos_bench::experiments::obs` and writes their tables to
//! `target/bench/exp_obs.json`.
//!
//! Pass `--quick` for the tier-1 configuration: the same measurements and
//! gates (the suite is cheap), and no file.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::obs::run(&cfg, quick);
}
