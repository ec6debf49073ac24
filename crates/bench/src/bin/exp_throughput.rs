//! Runs the throughput experiment implemented in
//! `bos_bench::experiments::throughput` and writes its tables and gates
//! to `target/bench/exp_throughput.json`.
//!
//! Pass `--quick` for the tier-1 configuration: only the solver section
//! (per-solver encode throughput and bytes through scratch-reusing
//! sessions), skipping the kernel and operator sweeps and writing no
//! file.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    if quick {
        bos_bench::experiments::throughput::run_quick(&cfg);
    } else {
        bos_bench::experiments::throughput::run(&cfg);
    }
}
