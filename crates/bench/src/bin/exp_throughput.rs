//! Regenerates the throughput artifacts implemented in
//! `bos_bench::experiments::throughput` (writes `BENCH_PR4.json` and
//! `BENCH_PR8.json`).
//!
//! Pass `--quick` for the tier-1 configuration: only the PR 8 solver
//! section (per-solver encode throughput and bytes through
//! scratch-reusing sessions), skipping the kernel and operator sweeps
//! and writing no JSON artifact.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    if quick {
        bos_bench::experiments::throughput::run_quick(&cfg);
    } else {
        bos_bench::experiments::throughput::run(&cfg);
    }
}
