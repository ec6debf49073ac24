//! Finding type and text/JSON rendering.
//!
//! The JSON shape is a stable machine-readable contract (schema
//! `bos-xtask-lint/3`): findings sorted by (file, line, col, rule) and a
//! `total`. The tier-1 recipe archives it as `lint_report.json`.

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

/// Renders findings as the classic `file:line:col: [rule] message` lines.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(
            out,
            "{}:{}:{}: [{}] {}",
            f.file, f.line, f.col, f.rule, f.message
        );
    }
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
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"schema\": \"bos-xtask-lint/3\",\n  \"findings\": [");
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
    let _ = write!(out, "],\n  \"total\": {}\n}}\n", findings.len());
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
                rule: "len-read-bounded",
                message: "`read_varint(..) as usize` used as a length".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 1,
                col: 1,
                rule: "unchecked-arith-in-decode",
                message: "unchecked `*` on length/offset expression".into(),
            },
        ]
    }

    #[test]
    fn text_render_includes_positions_and_summary() {
        let t = render_text(&probe());
        assert!(t.contains("a.rs:3:7: [len-read-bounded]"));
        assert!(t.contains("2 finding(s)"));
        let clean = render_text(&[]);
        assert!(clean.contains("clean"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut f = probe();
        f[0].message = "weird \"quote\"\nand\ttab".into();
        let j = render_json(&f);
        assert!(j.contains("\"schema\": \"bos-xtask-lint/3\""));
        assert!(j.contains("\\\"quote\\\"\\nand\\ttab"));
        assert!(j.contains("\"total\": 2\n}"));
        // Empty report still well-formed.
        let empty = render_json(&[]);
        assert!(empty.contains("\"findings\": []"));
    }
}
