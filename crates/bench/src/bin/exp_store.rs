//! Runs the crash-consistency sweep implemented in
//! `bos_bench::experiments::store` and writes its tables to
//! `target/bench/exp_store.json`.
//!
//! Pass `--quick` for the tier-1 configuration: fewer crash points and
//! seeds per class, and no file.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::store::run(&cfg, quick);
}
