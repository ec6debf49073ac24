//! Workspace task runner. Currently one task: `lint`.
//!
//! ```text
//! cargo run -p xtask -- lint [--format text|json]
//! ```
//!
//! `lint` is the custom static-analysis gate for this repository. It
//! lexes every workspace source into a spanned token stream
//! ([`lexer`]), builds a brace-matched item tree with structural
//! `#[cfg(test)]` detection ([`tree`]), and enforces the three rules
//! configured in `lint.toml` (see DESIGN.md §7 for the catalog):
//!
//! - **len-read-bounded / unchecked-arith-in-decode** — per-file
//!   decode-path hardening rules.
//! - **obs-label-unique** — no two call sites register one `obs` metric
//!   name.
//! - **lint-config-hygiene** — `lint.toml` self-check: listed files must
//!   exist.
//!
//! Invariants a type, a test or clippy can carry live there instead:
//! the decode crates deny clippy's panic family at their roots and
//! `indexing_slicing` / `cast_possible_truncation` in their decode
//! modules; detached threads and bare file writes are
//! `disallowed-methods` entries in the root `clippy.toml`; every error
//! and trail variant has a witness in an integration test; and
//! `BlockCodec` makes every codec implement both `encode` and `decode`
//! (see DESIGN.md §7). This crate denies the panic family too: a
//! panicking linter is a broken gate.
//!
//! Opting a single line out requires a written justification:
//!
//! ```text
//! len * 8 // lint:allow(unchecked-arith-in-decode): len <= 64 checked above
//! ```
//!
//! An empty justification is itself an error.
//!
//! `--format json` prints a stable machine-readable report (schema
//! `bos-xtask-lint/3`) to stdout.
//! Exit status: 0 clean, 1 findings, 2 configuration/IO problems.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

mod config;
mod lexer;
#[cfg(test)]
mod lexer_props;
mod report;
mod rules;
mod tree;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match json_format(args.get(1..).unwrap_or(&[])) {
            Ok(json) => lint(json),
            Err(e) => {
                eprintln!("xtask lint: {e}");
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("unknown task {other:?}; available tasks: lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- lint [--format text|json]";

/// Parses the `lint` flags; `true` selects the JSON report.
fn json_format(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                other => return Err(format!("--format expects `text` or `json`, got {other:?}")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(json)
}

fn lint(json: bool) -> ExitCode {
    let root = workspace_root();
    let config_path = root.join("lint.toml");
    let raw = match std::fs::read_to_string(&config_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let config = match config::Config::parse(&raw) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let findings = match rules::run(&root, &config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    let rendered = if json {
        report::render_json(&findings)
    } else {
        report::render_text(&findings)
    };
    print!("{rendered}");
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
