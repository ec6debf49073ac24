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
    /// Constructor patterns (`CounterHandle::new`, `obs::span`, ...) whose
    /// string-literal arguments are `obs` metric names; every literal must
    /// be unique across the workspace, or two call sites silently share
    /// (and corrupt) one time series.
    pub obs_label_patterns: Vec<String>,
    /// Decode-path files whose shipping code must not use raw `+`/`*`/`<<`
    /// on length/offset expressions — checked/saturating helpers only.
    pub unchecked_arith: Vec<String>,
}

impl Config {
    /// Parses the configuration, validating section and key names.
    pub fn parse(raw: &str) -> Result<Config, String> {
        let known: BTreeSet<&str> = [
            "len-read-bounded",
            "obs-label-unique",
            "unchecked-arith-in-decode",
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
                "obs-label-unique" => "patterns",
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
                "obs-label-unique" => config.obs_label_patterns = values,
                "unchecked-arith-in-decode" => config.unchecked_arith = values,
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

[obs-label-unique]
patterns = ["CounterHandle::new", "obs::span"]
"#;
        let c = Config::parse(raw).expect("parses");
        assert_eq!(c.len_read_bounded, vec!["a/b.rs", "c/d.rs"]);
        assert!(c.unchecked_arith.is_empty());
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
            "encode-decode-pairing",
            "error-variant-coverage",
            "trail-event-paired",
            "durable-rename",
        ] {
            let err = Config::parse(&format!("[{retired}]\nfiles = []")).unwrap_err();
            assert!(err.contains("unknown section"), "{retired}: {err}");
        }
    }
}
