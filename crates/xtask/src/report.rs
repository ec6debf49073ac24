//! Finding type and text/JSON rendering.
//!
//! The JSON shape is a stable machine-readable contract (schema
//! `bos-xtask-lint/2`): findings sorted by (file, line, col, rule), a
//! `total`, and a `coverage` block mirroring the `lint.toml` hygiene
//! report. The tier-1 recipe archives it as `lint_report.json`.

use std::fmt::Write as _;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based byte column (0 when the finding has no precise column,
    /// e.g. configuration hygiene findings).
    pub col: usize,
    /// Rule name as listed in `lint.toml` / DESIGN.md.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Coverage numbers for the `lint.toml` hygiene report.
#[derive(Debug, Default, Clone)]
pub struct Coverage {
    /// `.rs` files under `crates/` eligible for `no-panic` coverage
    /// (shipping sources; `tests/`, `benches/`, vendored code excluded).
    pub eligible: usize,
    /// Of those, files opted into `[no-panic]`.
    pub covered: usize,
    /// Files explicitly allow-listed in `[uncovered-ok]`.
    pub uncovered_ok: usize,
}

impl Coverage {
    /// One-line human-readable summary.
    pub fn render(&self) -> String {
        let gap = self
            .eligible
            .saturating_sub(self.covered)
            .saturating_sub(self.uncovered_ok);
        format!(
            "coverage: {} shipping .rs files under crates/, {} in [no-panic], \
             {} in [uncovered-ok], {} uncovered",
            self.eligible, self.covered, self.uncovered_ok, gap
        )
    }
}

/// Renders findings as the classic `file:line:col: [rule] message` lines.
pub fn render_text(findings: &[Finding], coverage: &Coverage) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            f.file, f.line, f.col, f.rule, f.message
        );
    }
    let _ = writeln!(out, "{}", coverage.render());
    match findings.len() {
        0 => {
            let _ = writeln!(out, "xtask lint: clean");
        }
        n => {
            let _ = writeln!(out, "xtask lint: {n} finding(s)");
        }
    }
    out
}

/// Renders the stable JSON report.
pub fn render_json(findings: &[Finding], coverage: &Coverage) -> String {
    let mut out = String::from("{\n  \"schema\": \"bos-xtask-lint/2\",\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            f.col,
            json_str(f.rule),
            json_str(&f.message)
        );
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(
        out,
        "],\n  \"total\": {},\n  \"coverage\": {{\"eligible\": {}, \"no_panic\": {}, \"uncovered_ok\": {}}}\n}}\n",
        findings.len(),
        coverage.eligible,
        coverage.covered,
        coverage.uncovered_ok
    );
    out
}

/// Minimal JSON string escaping (std-only, findings are ASCII-ish).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> Vec<Finding> {
        vec![
            Finding {
                file: "a.rs".into(),
                line: 3,
                col: 7,
                rule: "no-panic",
                message: "forbidden: `.unwrap()`".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 1,
                col: 1,
                rule: "no-indexing",
                message: "unchecked indexing".into(),
            },
        ]
    }

    #[test]
    fn text_render_includes_positions_and_summary() {
        let t = render_text(&probe(), &Coverage::default());
        assert!(t.contains("a.rs:3:7: [no-panic]"));
        assert!(t.contains("2 finding(s)"));
        let clean = render_text(&[], &Coverage::default());
        assert!(clean.contains("clean"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut f = probe();
        f[0].message = "weird \"quote\"\nand\ttab".into();
        let j = render_json(
            &f,
            &Coverage {
                eligible: 10,
                covered: 6,
                uncovered_ok: 4,
            },
        );
        assert!(j.contains("\"schema\": \"bos-xtask-lint/2\""));
        assert!(j.contains("\\\"quote\\\"\\nand\\ttab"));
        assert!(j.contains("\"total\": 2"));
        assert!(j.contains("\"eligible\": 10"));
        // Empty report still well-formed.
        let empty = render_json(&[], &Coverage::default());
        assert!(empty.contains("\"findings\": []"));
    }
}
