//! Workspace task runner. Currently one task: `lint`.
//!
//! ```text
//! cargo run -p xtask -- lint [--format text|json]
//!                            [--baseline FILE] [--write-baseline FILE]
//! ```
//!
//! `lint` is the custom static-analysis gate for this repository. It
//! lexes every workspace source into a spanned token stream
//! ([`lexer`]), builds a brace-matched item tree with structural
//! `#[cfg(test)]` detection ([`tree`]), and enforces the rule catalog
//! configured in `lint.toml` (see DESIGN.md §7 for the full catalog):
//!
//! - **no-panic / no-indexing / no-narrowing-casts / len-read-bounded /
//!   unchecked-arith-in-decode** — per-file decode-path hardening rules.
//! - **encode-decode-pairing / kernel-table-complete /
//!   codec-label-unique / obs-label-unique** — cross-file structural
//!   invariants of the codec and obs layers.
//! - **error-variant-coverage / join-all-spawns** — semantic rules over
//!   the item tree (dead error variants, detached threads).
//! - **lint-config-hygiene / no-panic-coverage** — `lint.toml`
//!   self-checks: listed files must exist, and every shipping file under
//!   `crates/` is either in `[no-panic]` or allow-listed in
//!   `[uncovered-ok]`.
//!
//! Opting a single line out requires a written justification:
//!
//! ```text
//! foo[i] // lint:allow(no-indexing): i < len established two lines up
//! ```
//!
//! An empty justification is itself an error.
//!
//! `--format json` prints a stable machine-readable report (schema
//! `bos-xtask-lint/1`) to stdout. `--baseline FILE` suppresses findings
//! recorded in FILE (for incremental adoption of a new rule);
//! `--write-baseline FILE` records the current findings and exits 0.
//! Exit status: 0 clean, 1 findings, 2 configuration/IO problems.

mod config;
mod lexer;
#[cfg(test)]
mod lexer_props;
mod report;
mod rules;
#[cfg(test)]
mod strip;
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
        Some("lint") => match LintArgs::parse(args.get(1..).unwrap_or(&[])) {
            Ok(opts) => lint(&opts),
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

const USAGE: &str = "usage: cargo run -p xtask -- lint [--format text|json] \
                     [--baseline FILE] [--write-baseline FILE]";

#[derive(Default)]
struct LintArgs {
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

impl LintArgs {
    fn parse(args: &[String]) -> Result<LintArgs, String> {
        let mut opts = LintArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--format" => match it.next().map(String::as_str) {
                    Some("text") => opts.json = false,
                    Some("json") => opts.json = true,
                    other => {
                        return Err(format!("--format expects `text` or `json`, got {other:?}"))
                    }
                },
                "--baseline" => {
                    let v = it.next().ok_or("--baseline expects a file path")?;
                    opts.baseline = Some(PathBuf::from(v));
                }
                "--write-baseline" => {
                    let v = it.next().ok_or("--write-baseline expects a file path")?;
                    opts.write_baseline = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }
}

fn lint(opts: &LintArgs) -> ExitCode {
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
    let report = match rules::run(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.write_baseline {
        let contents = report::write_baseline(&report.findings);
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "xtask lint: wrote {} finding(s) to baseline {}",
            report.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let (findings, suppressed) = match &opts.baseline {
        Some(path) => {
            let raw = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let keys = match report::parse_baseline(&raw) {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            report::apply_baseline(report.findings, &keys)
        }
        None => (report.findings, 0),
    };

    let rendered = if opts.json {
        report::render_json(&findings, &report.coverage, suppressed)
    } else {
        report::render_text(&findings, &report.coverage, suppressed)
    };
    print!("{rendered}");
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
