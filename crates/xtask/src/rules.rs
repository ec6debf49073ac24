//! The lint rules, built on the spanned token stream from
//! [`crate::lexer`] and the item tree from [`crate::tree`].
//!
//! Every rule sees real tokens with exact `line:col` spans, and test code
//! is excluded *structurally*: any item carrying `#[cfg(test)]` is masked
//! out wherever it sits in the file (the old line-oriented scanner only
//! exempted a trailing test module). Per-line opt-outs use
//! `// lint:allow(rule): justification` on the finding's line; an empty
//! justification is itself a finding.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::lexer::{self, Token, TokenKind};
use crate::report::Finding;
use crate::tree;

/// A lexed and item-parsed source file, shared by every rule reading it.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Per-token: `true` when the token is shipping (non-`#[cfg(test)]`)
    /// code.
    pub shipping: Vec<bool>,
    /// True when the file lives under a `tests/` or `benches/` directory —
    /// the whole file is test corpus, whatever its attributes say.
    pub is_test_file: bool,
    /// Byte span of each 1-based line (for `lint:allow` lookups).
    line_spans: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn from_source(rel: &str, src: String) -> SourceFile {
        let tokens = lexer::lex(&src);
        let shipping = tree::shipping_mask(&tokens, &tree::parse(&src, &tokens));
        let mut line_spans = Vec::new();
        let mut start = 0usize;
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_spans.push((start, i));
                start = i + 1;
            }
        }
        line_spans.push((start, src.len()));
        let is_test_file = rel.split('/').any(|c| c == "tests" || c == "benches");
        SourceFile {
            rel: rel.to_string(),
            src,
            tokens,
            shipping,
            is_test_file,
            line_spans,
        }
    }

    fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    fn text(&self, i: usize) -> &str {
        self.tok(i).map_or("", |t| t.text(&self.src))
    }

    fn is_shipping(&self, i: usize) -> bool {
        !self.is_test_file && self.shipping.get(i).copied().unwrap_or(false)
    }

    fn is_punct(&self, i: usize, c: u8) -> bool {
        self.tok(i).is_some_and(|t| t.is_punct(c))
    }

    fn is_ident(&self, i: usize, ident: &str) -> bool {
        self.tok(i).is_some_and(|t| t.is_ident(&self.src, ident))
    }

    /// True when tokens `i` and `i + 1` are the glued two-byte operator
    /// `ab` (e.g. `::`, `<<`, `=>`).
    fn glued_pair(&self, i: usize, a: u8, b: u8) -> bool {
        match (self.tok(i), self.tok(i + 1)) {
            (Some(x), Some(y)) => x.is_punct(a) && y.is_punct(b) && x.glued(y),
            _ => false,
        }
    }

    fn line_text(&self, line: usize) -> &str {
        self.line_spans
            .get(line.saturating_sub(1))
            .and_then(|&(s, e)| self.src.get(s..e))
            .unwrap_or("")
    }

    fn position(&self, tok_idx: usize) -> (usize, usize) {
        self.tok(tok_idx)
            .map_or((1, 0), |t| (t.line as usize, t.col as usize))
    }
}

/// The workspace's Rust sources, loaded once and shared by all rules.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    by_rel: BTreeMap<String, usize>,
}

impl Workspace {
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut paths = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            collect_rs(&root.join(dir), &mut paths).map_err(|e| format!("walking {dir}/: {e}"))?;
        }
        // Vendored crates are third-party; `fixtures/` holds deliberately
        // bad lint-test snippets that must never count as workspace code.
        paths.retain(|p| {
            !p.components()
                .any(|c| c.as_os_str() == "vendor" || c.as_os_str() == "fixtures")
        });
        let mut files = Vec::new();
        for path in paths {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            files.push(SourceFile::from_source(&rel, src));
        }
        Ok(Workspace::from_files(files))
    }

    /// Builds a workspace from in-memory files (used by tests).
    pub fn from_files(mut files: Vec<SourceFile>) -> Workspace {
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let by_rel = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.rel.clone(), i))
            .collect();
        Workspace { files, by_rel }
    }

    pub fn get(&self, rel: &str) -> Option<&SourceFile> {
        self.by_rel.get(rel).and_then(|&i| self.files.get(i))
    }
}

/// Runs every configured rule; findings are sorted by file and position.
pub fn run(root: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    let ws = Workspace::load(root)?;
    let mut findings = Vec::new();
    hygiene(root, config, &mut findings);

    for (rel, rule, scan) in per_file_rules(config) {
        if let Some(f) = ws.get(&rel) {
            push_hits(f, rule, scan(f), &mut findings);
        }
    }
    obs_labels(&ws, config, &mut findings);

    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(findings)
}

type ScanFn = fn(&SourceFile) -> Vec<(usize, String)>;

/// The configured (file, rule, scanner) triples for the per-file rules.
fn per_file_rules(config: &Config) -> Vec<(String, &'static str, ScanFn)> {
    let mut out: Vec<(String, &'static str, ScanFn)> = Vec::new();
    for rel in &config.len_read_bounded {
        out.push((rel.clone(), "len-read-bounded", len_read_hits));
    }
    for rel in &config.unchecked_arith {
        out.push((
            rel.clone(),
            "unchecked-arith-in-decode",
            unchecked_arith_hits,
        ));
    }
    out
}

/// Converts raw rule hits into findings, applying the `lint:allow`
/// opt-out on each hit's line.
fn push_hits(
    f: &SourceFile,
    rule: &'static str,
    hits: Vec<(usize, String)>,
    findings: &mut Vec<Finding>,
) {
    for (tok_idx, message) in hits {
        let (line, col) = f.position(tok_idx);
        match allow_on_line(f, line, rule) {
            Allow::Yes => {}
            Allow::EmptyJustification => findings.push(Finding {
                file: f.rel.clone(),
                line,
                col,
                rule,
                message: "lint:allow requires a non-empty justification".to_string(),
            }),
            Allow::No => findings.push(Finding {
                file: f.rel.clone(),
                line,
                col,
                rule,
                message,
            }),
        }
    }
}

enum Allow {
    Yes,
    No,
    EmptyJustification,
}

/// Checks for `// lint:allow(rule): reason` — trailing on the *original*
/// source line of the finding, or as a standalone comment on the line
/// directly above (rustfmt wraps long trailing comments onto their own
/// line, and the opt-out must survive reformatting).
fn allow_on_line(f: &SourceFile, line: usize, rule: &str) -> Allow {
    match allow_in_text(f.line_text(line), rule) {
        Allow::No => {}
        verdict => return verdict,
    }
    if line >= 2 {
        let prev = f.line_text(line - 1);
        if prev.trim_start().starts_with("//") {
            return allow_in_text(prev, rule);
        }
    }
    Allow::No
}

fn allow_in_text(text: &str, rule: &str) -> Allow {
    let Some(idx) = text.find("lint:allow(") else {
        return Allow::No;
    };
    let rest = text.get(idx + "lint:allow(".len()..).unwrap_or("");
    let Some(close) = rest.find(')') else {
        return Allow::No;
    };
    if rest.get(..close).unwrap_or("").trim() != rule {
        return Allow::No;
    }
    let after = rest.get(close + 1..).unwrap_or("").trim_start();
    match after.strip_prefix(':') {
        Some(justification) if !justification.trim().is_empty() => Allow::Yes,
        _ => Allow::EmptyJustification,
    }
}

// ---------------------------------------------------------------------------
// lint.toml hygiene
// ---------------------------------------------------------------------------

/// Self-check on `lint.toml`: every file a per-file rule lists must
/// exist, or the rule silently checks nothing there.
fn hygiene(root: &Path, config: &Config, findings: &mut Vec<Finding>) {
    let lists: &[(&str, &Vec<String>)] = &[
        ("len-read-bounded", &config.len_read_bounded),
        ("unchecked-arith-in-decode", &config.unchecked_arith),
    ];
    for (section, list) in lists {
        for rel in list.iter() {
            if !root.join(rel).is_file() {
                findings.push(Finding {
                    file: "lint.toml".to_string(),
                    line: 1,
                    col: 0,
                    rule: "lint-config-hygiene",
                    message: format!("[{section}] lists {rel}, which does not exist"),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-file token rules
// ---------------------------------------------------------------------------

/// `len-read-bounded`: a `read_varint` whose statement casts the result
/// with `as usize` is a length about to size an allocation from untrusted
/// bytes; it must go through `read_len_bounded`.
pub(crate) fn len_read_hits(f: &SourceFile) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for i in 0..f.tokens.len() {
        if !f.is_shipping(i) || !f.is_ident(i, "read_varint") {
            continue;
        }
        let mut j = i;
        while j < f.tokens.len() && !f.is_punct(j, b';') {
            if f.is_ident(j, "as") && f.is_ident(j + 1, "usize") {
                hits.push((
                    i,
                    "`read_varint(..) as usize` used as a length; read it via \
                     `read_len_bounded` so a corrupt varint cannot size an allocation"
                        .to_string(),
                ));
                break;
            }
            j += 1;
        }
    }
    hits
}

// ---------------------------------------------------------------------------
// unchecked-arith-in-decode
// ---------------------------------------------------------------------------

/// Identifier fragments that mark a value as a length/offset — the values
/// decode paths compute from untrusted bytes.
const LEN_HINTS: &[&str] = &[
    "len", "size", "count", "bytes", "offset", "pos", "idx", "limit",
];

fn has_len_hint(idents: &[String]) -> bool {
    idents.iter().any(|id| {
        let lower = id.to_ascii_lowercase();
        LEN_HINTS.iter().any(|h| lower.contains(h))
    })
}

/// One operand of a binary op: the identifiers on its dotted/qualified
/// path, and whether it is a bare numeric literal.
#[derive(Default)]
struct Operand {
    idents: Vec<String>,
    is_literal: bool,
}

/// `unchecked-arith-in-decode`: a raw `+`, `*`, or `<<` (including the
/// compound-assign forms) whose operands mention a length/offset-ish
/// identifier must be a `checked_*`/`saturating_*` call instead — on
/// corrupt input these expressions overflow before any bounds check runs.
/// `+` with a numeric-literal operand is exempt (stepping a cursor by a
/// constant is bounded by the existing slice length); `*` and `<<` are
/// not, because `count * 8` is exactly the decode-bomb shape.
pub(crate) fn unchecked_arith_hits(f: &SourceFile) -> Vec<(usize, String)> {
    let mut hits = Vec::new();
    for i in 0..f.tokens.len() {
        if !f.is_shipping(i) {
            continue;
        }
        let (op, rhs_from) = if f.is_punct(i, b'+') && !f.glued_pair(i, b'+', b'+') {
            ("+", i + 1)
        } else if f.is_punct(i, b'*') {
            ("*", i + 1)
        } else if f.glued_pair(i, b'<', b'<') && !(i > 0 && f.glued_pair(i - 1, b'<', b'<')) {
            ("<<", i + 2)
        } else {
            continue;
        };
        // Binary only when a value ends right before the operator —
        // otherwise it is unary (deref `*x`, `&*`) or type syntax.
        if i == 0 || !token_ends_value(f, i - 1) {
            continue;
        }
        let left = operand_left(f, i);
        // Compound assignment: `+=`, `*=`, `<<=`.
        let rhs_from = if f.is_punct(rhs_from, b'=') && !f.glued_pair(rhs_from, b'=', b'=') {
            rhs_from + 1
        } else {
            rhs_from
        };
        let right = operand_right(f, rhs_from);
        if op == "+" && (left.is_literal || right.is_literal) {
            continue;
        }
        let mut idents = left.idents;
        idents.extend(right.idents);
        if !has_len_hint(&idents) {
            continue;
        }
        idents.sort();
        idents.dedup();
        hits.push((
            i,
            format!(
                "unchecked `{op}` on length/offset expression (operands mention {}); \
                 use checked_*/saturating_* arithmetic so corrupt input cannot \
                 overflow, or lint:allow with a bound argument",
                idents.join(", ")
            ),
        ));
    }
    hits
}

/// Keywords that lex as `Ident` but never end a value expression — after
/// `if` or `return`, a `*` is a deref and a `&` a borrow, not arithmetic.
const VALUE_BREAK_KEYWORDS: [&str; 16] = [
    "if", "else", "match", "return", "while", "for", "loop", "in", "let", "mut", "ref", "move",
    "break", "continue", "unsafe", "as",
];

/// True when token `i` can end a value expression (so a following `+`,
/// `*`, or `<<` is a binary operator, not a prefix or type position).
fn token_ends_value(f: &SourceFile, i: usize) -> bool {
    match f.tok(i) {
        Some(t) => match t.kind {
            TokenKind::Ident => {
                let text = t.text(&f.src);
                !VALUE_BREAK_KEYWORDS.contains(&text)
            }
            TokenKind::NumLit => true,
            _ => t.is_punct(b')') || t.is_punct(b']'),
        },
        None => false,
    }
}

/// Walks left from the operator collecting the operand's identifier path
/// (`self.header.count` → [self, header, count]; `buf.len()` → the call
/// name and its receiver chain).
fn operand_left(f: &SourceFile, op: usize) -> Operand {
    let mut out = Operand::default();
    let mut j = op.checked_sub(1);
    let mut steps = 0usize;
    while let Some(k) = j {
        steps += 1;
        if steps > 32 {
            break;
        }
        let Some(t) = f.tok(k) else { break };
        if t.is_punct(b')') || t.is_punct(b']') {
            // Skip the group backwards; collect idents inside (call args /
            // index expressions can carry the length-ish name).
            let (open_c, close_c) = if t.is_punct(b')') {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let mut depth = 1usize;
            let mut m = k;
            while depth > 0 {
                let Some(p) = m.checked_sub(1) else { break };
                m = p;
                let Some(pt) = f.tok(m) else { break };
                if pt.is_punct(close_c) {
                    depth += 1;
                } else if pt.is_punct(open_c) {
                    depth -= 1;
                } else if pt.kind == TokenKind::Ident && out.idents.len() < 8 {
                    out.idents.push(pt.text(&f.src).to_string());
                }
            }
            j = m.checked_sub(1);
            continue;
        }
        if t.kind == TokenKind::Ident {
            if out.idents.len() < 8 {
                out.idents.push(t.text(&f.src).to_string());
            }
            // Continue through `.` and `::` path links.
            match k.checked_sub(1) {
                Some(p) if f.is_punct(p, b'.') => j = p.checked_sub(1),
                Some(p) if p >= 1 && f.glued_pair(p - 1, b':', b':') => j = (p - 1).checked_sub(1),
                _ => break,
            }
            continue;
        }
        if t.kind == TokenKind::NumLit {
            out.is_literal = out.idents.is_empty();
            break;
        }
        break;
    }
    out
}

/// Walks right from `start` collecting the operand's identifier path,
/// skipping leading derefs/borrows and following `.`/`::` chains through
/// call parentheses.
fn operand_right(f: &SourceFile, start: usize) -> Operand {
    let mut out = Operand::default();
    let mut j = start;
    // Prefix operators on the right operand.
    while f.is_punct(j, b'*') || f.is_punct(j, b'&') || f.is_punct(j, b'-') {
        j += 1;
    }
    if f.tok(j).map(|t| t.kind) == Some(TokenKind::NumLit) {
        out.is_literal = true;
        return out;
    }
    let mut steps = 0usize;
    while let Some(t) = f.tok(j) {
        steps += 1;
        if steps > 32 {
            break;
        }
        if t.is_punct(b'(') || t.is_punct(b'[') {
            let (open_c, close_c) = if t.is_punct(b'(') {
                (b'(', b')')
            } else {
                (b'[', b']')
            };
            let close = tree::matching(&f.tokens, j, f.tokens.len(), open_c, close_c);
            let Some(close) = close else { break };
            for m in j + 1..close {
                if f.tok(m).map(|t| t.kind) == Some(TokenKind::Ident) && out.idents.len() < 8 {
                    out.idents.push(f.text(m).to_string());
                }
            }
            j = close + 1;
            // A call/index can chain further: `a.b(..).c`.
            if f.is_punct(j, b'.') {
                j += 1;
                continue;
            }
            break;
        }
        if t.kind == TokenKind::Ident {
            if out.idents.len() < 8 {
                out.idents.push(t.text(&f.src).to_string());
            }
            j += 1;
            if f.is_punct(j, b'.') {
                j += 1;
                continue;
            }
            if f.glued_pair(j, b':', b':') {
                j += 2;
                continue;
            }
            if f.is_punct(j, b'(') || f.is_punct(j, b'[') {
                continue;
            }
            break;
        }
        break;
    }
    out
}

// ---------------------------------------------------------------------------
// obs-label-unique
// ---------------------------------------------------------------------------

/// Rule: the string-literal metric names passed to the configured `obs`
/// constructor patterns (`CounterHandle::new`, `obs::span`, ...) must be
/// pairwise distinct across the workspace. The registry keys series by
/// name, so two call sites sharing a literal would silently merge their
/// counts into one corrupted series. Non-literal arguments (names built at
/// runtime, e.g. from a match) are skipped — uniqueness there is the call
/// site's responsibility.
fn obs_labels(ws: &Workspace, config: &Config, findings: &mut Vec<Finding>) {
    if config.obs_label_patterns.is_empty() {
        return;
    }
    let mut seen: BTreeMap<String, (String, usize)> = BTreeMap::new();
    let mut total = 0usize;
    for f in &ws.files {
        if f.is_test_file {
            continue;
        }
        for (tok_idx, label) in obs_label_literals(f, &config.obs_label_patterns) {
            total += 1;
            let (line, col) = f.position(tok_idx);
            match seen.get(&label) {
                Some((first_file, first_line)) => findings.push(Finding {
                    file: f.rel.clone(),
                    line,
                    col,
                    rule: "obs-label-unique",
                    message: format!(
                        "obs metric name {label:?} already registered at \
                         {first_file}:{first_line}; the registry keys series by name, so \
                         every literal must be distinct"
                    ),
                }),
                None => {
                    seen.insert(label, (f.rel.clone(), line));
                }
            }
        }
    }
    if total == 0 {
        findings.push(Finding {
            file: "lint.toml".to_string(),
            line: 1,
            col: 0,
            rule: "obs-label-unique",
            message: format!(
                "no obs metric literals found for patterns {:?}; the scan is broken or \
                 the config lists the wrong constructor patterns",
                config.obs_label_patterns
            ),
        });
    }
}

/// Finds `<pattern>("literal")` call sites in shipping code and returns
/// (token index of the pattern's first segment, label). A pattern is a
/// `::`-separated path suffix; extra leading segments at the call site
/// (`obs::CounterHandle::new`) still match.
pub(crate) fn obs_label_literals(f: &SourceFile, patterns: &[String]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for pattern in patterns {
        let segs: Vec<&str> = pattern.split("::").collect();
        let Some((first, rest)) = segs.split_first() else {
            continue;
        };
        for i in 0..f.tokens.len() {
            if !f.is_shipping(i) || !f.is_ident(i, first) {
                continue;
            }
            let mut j = i + 1;
            let mut matched = true;
            for seg in rest {
                if f.glued_pair(j, b':', b':') && f.is_ident(j + 2, seg) {
                    j += 3;
                } else {
                    matched = false;
                    break;
                }
            }
            if !matched || !f.is_punct(j, b'(') {
                continue;
            }
            let Some(arg) = f.tok(j + 1) else { continue };
            if arg.kind != TokenKind::StrLit {
                continue; // runtime-built name: out of scope
            }
            if let Some(label) = arg.str_content(&f.src) {
                out.push((i, label.to_string()));
            }
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, src.to_string())
    }

    fn hit_lines(f: &SourceFile, hits: Vec<(usize, String)>) -> Vec<usize> {
        hits.iter().map(|(i, _)| f.position(*i).0).collect()
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    // -- per-file rules ---------------------------------------------------

    #[test]
    fn cfg_test_fn_outside_test_module_is_masked() {
        // A `#[cfg(test)]` item is masked wherever it sits, not only as a
        // trailing test module.
        let src = "#[cfg(test)]\n\
                   fn helper(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize }\n\
                   fn shipping(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize }\n";
        let f = file("crates/x/src/lib.rs", src);
        assert_eq!(hit_lines(&f, len_read_hits(&f)), vec![3]);
    }

    #[test]
    fn len_read_hits_flag_the_usize_cast_statement() {
        let src = "fn f(b: &[u8], p: &mut usize) -> usize {\n\
                   let n = read_varint(b, p).unwrap_or(0) as usize;\n\
                   n\n\
                   }\n\
                   fn g(b: &[u8], p: &mut usize) -> u64 {\n\
                   let v = read_varint(b, p).unwrap_or(0);\n\
                   v\n\
                   }\n";
        let f = file("crates/x/src/lib.rs", src);
        assert_eq!(hit_lines(&f, len_read_hits(&f)), vec![2]);
    }

    // -- lint:allow handling ----------------------------------------------

    #[test]
    fn lint_allow_trailing_preceding_empty_and_wrong_rule() {
        let src = "\
fn a(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize } // lint:allow(len-read-bounded): capped by the caller
// lint:allow(len-read-bounded): the preceding-line form survives rustfmt wrapping
fn b(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize }
fn c(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize } // lint:allow(len-read-bounded)
fn d(b: &[u8], p: &mut usize) -> usize { read_varint(b, p) as usize } // lint:allow(unchecked-arith-in-decode): wrong rule
";
        let f = file("crates/x/src/lib.rs", src);
        let mut findings = Vec::new();
        push_hits(&f, "len-read-bounded", len_read_hits(&f), &mut findings);
        let lines: Vec<usize> = findings.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![4, 5]);
        assert!(findings[0].message.contains("non-empty justification"));
        assert!(findings[1].message.contains("read_len_bounded"));
    }

    // -- unchecked-arith-in-decode (fixture) ------------------------------

    #[test]
    fn unchecked_arith_fixture_flags_exactly_the_marked_lines() {
        let f = file(
            "crates/x/src/decode.rs",
            include_str!("../fixtures/unchecked_arith.rs"),
        );
        // Raw hits include line 23, which carries a lint:allow.
        assert_eq!(
            hit_lines(&f, unchecked_arith_hits(&f)),
            vec![5, 6, 7, 8, 10, 23]
        );
        let mut findings = Vec::new();
        push_hits(
            &f,
            "unchecked-arith-in-decode",
            unchecked_arith_hits(&f),
            &mut findings,
        );
        let lines: Vec<usize> = findings.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![5, 6, 7, 8, 10]);
    }

    // -- obs-label-unique -------------------------------------------------

    #[test]
    fn obs_label_duplicates_are_findings_and_runtime_names_skipped() {
        let src = "\
static C1: CounterHandle = CounterHandle::new(\"enc.blocks\");
static C2: CounterHandle = obs::CounterHandle::new(\"enc.blocks\");
fn dynamic(name: &'static str) { let _ = CounterHandle::new(name); }
";
        let ws = Workspace::from_files(vec![file("crates/a/src/lib.rs", src)]);
        let config = Config {
            obs_label_patterns: vec!["CounterHandle::new".to_string()],
            ..Config::default()
        };
        let mut findings = Vec::new();
        obs_labels(&ws, &config, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("already registered"));
    }

    // -- lint.toml hygiene ------------------------------------------------

    #[test]
    fn hygiene_reports_missing_files() {
        let config = Config {
            len_read_bounded: vec!["crates/a/src/lib.rs".to_string()],
            ..Config::default()
        };
        let mut findings = Vec::new();
        hygiene(Path::new("/nonexistent-root"), &config, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].rule, "lint-config-hygiene");
        assert!(findings[0]
            .message
            .contains("[len-read-bounded] lists crates/a/src/lib.rs, which does not exist"));
    }

    // -- whole-workspace checks -------------------------------------------

    #[test]
    fn the_workspace_is_lint_clean() {
        let root = workspace_root();
        let raw = fs::read_to_string(root.join("lint.toml")).expect("lint.toml readable");
        let config = Config::parse(&raw).expect("lint.toml parses");
        let findings = run(&root, &config).expect("engine runs");
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
