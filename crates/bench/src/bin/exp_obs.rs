//! Regenerates the PR 9 flight-recorder artifact implemented in
//! `bos_bench::experiments::obs` (writes `BENCH_PR9.json`).
//!
//! Pass `--quick` for the tier-1 configuration: the same measurements and
//! gates (the suite is cheap), and no JSON artifact.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::obs::run(&cfg, quick);
}
