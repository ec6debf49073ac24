//! `lint.toml` parser.
//!
//! The gate is std-only, so this reads the small TOML subset the config
//! actually uses: `[section]` headers and `key = [ "..." , ... ]` string
//! arrays (single- or multi-line). Unknown sections or keys are errors —
//! a typo in the allowlist must not silently disable a rule.

use std::collections::BTreeSet;

/// Parsed lint configuration.
#[derive(Debug, Default, Clone)]
pub struct Config {
    /// Files whose shipping code must read varint length fields through
    /// `read_len_bounded` — a bare `read_varint(..) as usize` used as a
    /// length lets ten corrupt bytes size a multi-gigabyte allocation.
    pub len_read_bounded: Vec<String>,
    /// Crate source roots (e.g. `crates/bos`) whose public `encode_*`
    /// functions must have decode counterparts and roundtrip tests.
    pub pairing_crates: Vec<String>,
    /// Constructor patterns (`CounterHandle::new`, `obs::span`, ...) whose
    /// string-literal arguments are `obs` metric names; every literal must
    /// be unique across the workspace, or two call sites silently share
    /// (and corrupt) one time series.
    pub obs_label_patterns: Vec<String>,
    /// Decode-path files whose shipping code must not use raw `+`/`*`/`<<`
    /// on length/offset expressions — checked/saturating helpers only.
    pub unchecked_arith: Vec<String>,
    /// Error enums whose every variant must be constructed in shipping
    /// code and referenced by at least one test.
    pub error_variant_enums: Vec<String>,
    /// Flight-recorder event enums (e.g. `obs::trail::Event`): every
    /// variant must be emitted from shipping code and referenced by at
    /// least one test — a never-emitted event is dead provenance, and an
    /// untested one can silently rot its payload.
    pub trail_event_enums: Vec<String>,
    /// Storage-tier files whose shipping functions must pair every
    /// `File::create` / `fs::write` with fsync + rename in the same
    /// function (the temp-file → fsync → rename durability protocol).
    pub durable_rename: Vec<String>,
}

impl Config {
    /// Parses the configuration, validating section and key names.
    pub fn parse(raw: &str) -> Result<Config, String> {
        let known: BTreeSet<&str> = [
            "len-read-bounded",
            "encode-decode-pairing",
            "obs-label-unique",
            "unchecked-arith-in-decode",
            "error-variant-coverage",
            "trail-event-paired",
            "durable-rename",
        ]
        .into();
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = raw.lines().enumerate().peekable();
        while let Some((lno, line)) = lines.next() {
            let line = strip_toml_comment(line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                if !known.contains(name) {
                    return Err(format!("line {}: unknown section [{name}]", lno + 1));
                }
                section = name.to_string();
                continue;
            }
            let Some((key, mut rest)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = [...]`", lno + 1));
            };
            let key = key.trim();
            let expected_key = match section.as_str() {
                "encode-decode-pairing" => "crates",
                "obs-label-unique" => "patterns",
                "error-variant-coverage" => "enums",
                "trail-event-paired" => "enums",
                _ => "files",
            };
            if section.is_empty() || key != expected_key {
                return Err(format!(
                    "line {}: unknown key {key:?} (expected {expected_key:?} in a section)",
                    lno + 1
                ));
            }
            // Collect the array body, possibly spanning lines.
            let mut body = String::new();
            loop {
                body.push_str(strip_toml_comment(rest.trim_start_matches('=')).trim());
                if body.contains(']') {
                    break;
                }
                match lines.next() {
                    Some((_, l)) => rest = l,
                    None => return Err(format!("line {}: unterminated array", lno + 1)),
                }
            }
            let inner = body
                .trim()
                .strip_prefix('[')
                .and_then(|b| b.strip_suffix(']'))
                .ok_or_else(|| format!("line {}: expected a string array", lno + 1))?;
            let mut values = Vec::new();
            for item in inner.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let v = item
                    .strip_prefix('"')
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| {
                        format!("line {}: expected quoted string, got {item:?}", lno + 1)
                    })?;
                values.push(v.to_string());
            }
            match section.as_str() {
                "len-read-bounded" => config.len_read_bounded = values,
                "encode-decode-pairing" => config.pairing_crates = values,
                "obs-label-unique" => config.obs_label_patterns = values,
                "unchecked-arith-in-decode" => config.unchecked_arith = values,
                "error-variant-coverage" => config.error_variant_enums = values,
                "trail-event-paired" => config.trail_event_enums = values,
                "durable-rename" => config.durable_rename = values,
                // The section set was validated at the header; an unknown
                // name here means the two lists drifted apart.
                other => return Err(format!("line {}: unhandled section [{other}]", lno + 1)),
            }
        }
        Ok(config)
    }
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for this config: no `#` inside the quoted paths.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiline_arrays() {
        let raw = r#"
# the gate
[len-read-bounded]
files = [
    "a/b.rs",  # decode hot path
    "c/d.rs",
]

[unchecked-arith-in-decode]
files = []

[encode-decode-pairing]
crates = ["crates/bos"]

[obs-label-unique]
patterns = ["CounterHandle::new", "obs::span"]
"#;
        let c = Config::parse(raw).expect("parses");
        assert_eq!(c.len_read_bounded, vec!["a/b.rs", "c/d.rs"]);
        assert!(c.unchecked_arith.is_empty());
        assert_eq!(c.pairing_crates, vec!["crates/bos"]);
        assert_eq!(
            c.obs_label_patterns,
            vec!["CounterHandle::new", "obs::span"]
        );
    }

    #[test]
    fn obs_label_section_requires_patterns_key() {
        assert!(Config::parse("[obs-label-unique]\nfiles = []").is_err());
        assert!(Config::parse("[obs-label-unique]\npatterns = [\"obs::span\"]").is_ok());
    }

    #[test]
    fn new_sections_parse_with_their_keys() {
        let raw = r#"
[unchecked-arith-in-decode]
files = ["crates/bitpack/src/bits.rs"]

[error-variant-coverage]
enums = ["DecodeError", "SkipReason"]

[trail-event-paired]
enums = ["Event"]

[durable-rename]
files = ["crates/store/src/lib.rs"]
"#;
        let c = Config::parse(raw).expect("parses");
        assert_eq!(c.unchecked_arith, vec!["crates/bitpack/src/bits.rs"]);
        assert_eq!(c.error_variant_enums, vec!["DecodeError", "SkipReason"]);
        assert_eq!(c.trail_event_enums, vec!["Event"]);
        assert_eq!(c.durable_rename, vec!["crates/store/src/lib.rs"]);
    }

    #[test]
    fn new_sections_reject_wrong_keys() {
        assert!(Config::parse("[error-variant-coverage]\nfiles = []").is_err());
        assert!(Config::parse("[error-variant-coverage]\nenums = [\"E\"]").is_ok());
        assert!(Config::parse("[trail-event-paired]\nfiles = []").is_err());
        assert!(Config::parse("[trail-event-paired]\nenums = [\"Event\"]").is_ok());
        assert!(Config::parse("[durable-rename]\ndirs = []").is_err());
        assert!(Config::parse("[durable-rename]\nfiles = [\"a.rs\"]").is_ok());
    }

    #[test]
    fn rejects_unknown_sections_and_keys() {
        assert!(Config::parse("[len-read-bound]\nfiles = []").is_err());
        assert!(Config::parse("[len-read-bounded]\npaths = []").is_err());
        assert!(Config::parse("[len-read-bounded]\nfiles = [unquoted]").is_err());
        assert!(Config::parse("[len-read-bounded]\nfiles = [\n  \"x.rs\",").is_err());
        // Sections of retired rules: a stale `lint.toml` must fail loudly,
        // not silently configure nothing.
        for retired in [
            "kernel-table-complete",
            "join-all-spawns",
            "codec-label-unique",
            "solver-entry-scratch",
            "no-panic",
            "no-indexing",
            "no-narrowing-casts",
            "uncovered-ok",
        ] {
            let err = Config::parse(&format!("[{retired}]\nfiles = []")).unwrap_err();
            assert!(err.contains("unknown section"), "{retired}: {err}");
        }
    }
}
