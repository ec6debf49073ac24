//! Experiment harness reproducing every table and figure of the BOS paper.
//!
//! * [`harness`] — configuration, timers, table printing, and the report
//!   the gate experiments write their artifacts through.
//! * [`experiments`] — one module per paper artifact (Figures 8–15 and
//!   the Proposition 4 bound check); `exp_*` binaries wrap them and
//!   `run_all` chains the full evaluation.
//!
//! Configuration via environment: `BOS_N` (values per dataset) and
//! `BOS_REPEATS` (timing repetitions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
