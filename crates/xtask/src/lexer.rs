//! A hand-rolled, std-only, spanned Rust lexer for the lint engine.
//!
//! Substring matches over comment-blanked text cannot tell `unwrap` from
//! `unwrap_or` without hand-written boundary checks, and cannot see item
//! structure at all. This lexer produces a real token stream with exact
//! `line:col` spans; the rules in [`crate::rules`] and the item tree in
//! [`crate::tree`] are built on it.
//!
//! Scope (deliberate): this is a *lint* lexer, not a compiler front end.
//! It handles everything the workspace's sources actually contain —
//! line/doc comments, nested block comments, raw strings (`r"", r#""#`),
//! byte and raw-byte strings, raw identifiers (`r#match`), char literals
//! vs lifetimes, numeric literals with suffixes/exponents, shebang lines —
//! and it never panics on malformed input: an unterminated literal or
//! comment is closed at end of input and lexing continues. Escape
//! sequences inside string literals are *not* processed; rules that read
//! literal contents (codec/obs labels) see the raw source bytes, which is
//! exactly what uniqueness checks want.
//!
//! Comments and whitespace produce no tokens. Multi-character operators
//! (`::`, `<<`, `+=`, `=>`, …) are emitted as single-byte [`Punct`]
//! tokens; consumers that care check adjacency via [`Token::glued`].
//!
//! [`Punct`]: TokenKind::Punct

/// What a token is. Comments and whitespace are skipped, so every token
/// is code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// A lifetime such as `'a` or `'_` (the quote is part of the span).
    Lifetime,
    /// A character or byte literal: `'x'`, `'\n'`, `b'\0'`.
    CharLit,
    /// Any string literal flavor: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    StrLit,
    /// A numeric literal, integer or float, with any suffix: `0x1F`,
    /// `1_000u64`, `1.5e-3`.
    NumLit,
    /// A single punctuation byte (`+`, `<`, `;`, …). Multi-byte operators
    /// are consecutive `Punct` tokens with touching spans.
    Punct(u8),
}

/// One token with its exact source location.
#[derive(Debug, Clone, Copy)]
pub struct Token {
    /// The kind of token.
    pub kind: TokenKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of `start`.
    pub line: u32,
    /// 1-based byte column of `start` within its line.
    pub col: u32,
}

impl Token {
    /// The token's source text (empty if the span is somehow out of range,
    /// which the lexer never produces).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True when `self` is the punctuation byte `c`.
    pub fn is_punct(&self, c: u8) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// True when `self` is an identifier with exactly the text `ident`.
    pub fn is_ident(&self, src: &str, ident: &str) -> bool {
        self.kind == TokenKind::Ident && self.text(src) == ident
    }

    /// True when `next` starts exactly where `self` ends — used to tell
    /// the two-byte operators (`::`, `<<`, `+=`) from coincidental
    /// neighbours separated by whitespace or comments.
    pub fn glued(&self, next: &Token) -> bool {
        self.end == next.start
    }

    /// For a [`TokenKind::StrLit`] token: the literal's contents with the
    /// quotes and any `b`/`r`/`#` affixes removed, unescaped as written.
    /// `None` for other kinds or an unterminated literal.
    pub fn str_content<'a>(&self, src: &'a str) -> Option<&'a str> {
        if self.kind != TokenKind::StrLit {
            return None;
        }
        let text = self.text(src);
        let body = text.trim_start_matches(['b', 'r']);
        let hashes = body.bytes().take_while(|&c| c == b'#').count();
        let body = body.get(hashes..)?;
        let body = body.strip_prefix('"')?;
        body.strip_suffix(&text[text.len().saturating_sub(hashes)..])
            .and_then(|b| b.strip_suffix('"'))
            .or_else(|| {
                // Unterminated literal closed at end of input.
                if hashes == 0 {
                    Some(body.trim_end_matches('"'))
                } else {
                    None
                }
            })
    }
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

/// Tracks `line`/`col` while the scanner advances.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self {
            b,
            i: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    /// Advances by one byte, maintaining the line counter. Saturates at
    /// end of input so escape-sequence scans (`\` + one byte) cannot push
    /// a span past EOF when the backslash is the last byte.
    fn bump(&mut self) {
        match self.peek(0) {
            None => {}
            Some(b'\n') => {
                self.line += 1;
                self.line_start = self.i + 1;
                self.i += 1;
            }
            Some(_) => self.i += 1,
        }
    }

    /// Advances until `stop` returns true or input ends.
    fn bump_while(&mut self, stop: impl Fn(u8) -> bool) {
        while let Some(c) = self.peek(0) {
            if !stop(c) {
                break;
            }
            self.bump();
        }
    }

    fn col(&self, start: usize) -> u32 {
        u32::try_from(start.saturating_sub(self.line_start))
            .unwrap_or(u32::MAX)
            .saturating_add(1)
    }
}

/// Lexes `src` into a token stream. Total: every byte of input is either
/// inside exactly one token span or is whitespace/comment/shebang.
/// Malformed input (unterminated literals, stray bytes) never panics;
/// stray non-ASCII bytes outside literals are skipped.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src.as_bytes());
    let mut out = Vec::new();

    // Shebang: `#!` at byte 0 not followed by `[` (which would be an
    // inner attribute) skips the first line.
    if cur.peek(0) == Some(b'#') && cur.peek(1) == Some(b'!') && cur.peek(2) != Some(b'[') {
        cur.bump_while(|c| c != b'\n');
    }

    while let Some(c) = cur.peek(0) {
        let start = cur.i;
        let (line, col) = (cur.line, cur.col(start));
        let push = |cur: &Cursor, kind: TokenKind| Token {
            kind,
            start,
            end: cur.i,
            line,
            col,
        };
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => cur.bump(),
            b'/' if cur.peek(1) == Some(b'/') => {
                // Line comment (plain or doc): to end of line.
                cur.bump_while(|c| c != b'\n');
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                // Block comment, nesting like Rust. Unterminated: runs to
                // end of input.
                let mut depth = 1usize;
                cur.bump();
                cur.bump();
                while depth > 0 && cur.peek(0).is_some() {
                    if cur.peek(0) == Some(b'/') && cur.peek(1) == Some(b'*') {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                    } else if cur.peek(0) == Some(b'*') && cur.peek(1) == Some(b'/') {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                    } else {
                        cur.bump();
                    }
                }
            }
            b'r' | b'b' if raw_string_lookahead(&cur).is_some() => {
                let hashes = raw_string_lookahead(&cur).unwrap_or(0);
                scan_raw_string(&mut cur, hashes);
                out.push(push(&cur, TokenKind::StrLit));
            }
            b'b' if cur.peek(1) == Some(b'"') => {
                cur.bump();
                scan_plain_string(&mut cur);
                out.push(push(&cur, TokenKind::StrLit));
            }
            b'b' if cur.peek(1) == Some(b'\'') => {
                cur.bump();
                scan_char(&mut cur);
                out.push(push(&cur, TokenKind::CharLit));
            }
            b'r' if cur.peek(1) == Some(b'#') && cur.peek(2).is_some_and(is_ident_start) => {
                // Raw identifier r#match.
                cur.bump();
                cur.bump();
                cur.bump_while(is_ident_byte);
                out.push(push(&cur, TokenKind::Ident));
            }
            b'"' => {
                scan_plain_string(&mut cur);
                out.push(push(&cur, TokenKind::StrLit));
            }
            b'\'' => {
                let kind = scan_quote(&mut cur);
                out.push(push(&cur, kind));
            }
            c if is_ident_start(c) => {
                cur.bump_while(is_ident_byte);
                out.push(push(&cur, TokenKind::Ident));
            }
            c if c.is_ascii_digit() => {
                scan_number(&mut cur);
                out.push(push(&cur, TokenKind::NumLit));
            }
            c if c.is_ascii() => {
                cur.bump();
                out.push(push(&cur, TokenKind::Punct(c)));
            }
            _ => {
                // Stray non-ASCII byte outside any literal (invalid Rust,
                // but the lexer is total): skip it.
                cur.bump();
            }
        }
    }
    out
}

/// If the cursor sits on a raw-string opener (`r"`, `r#"`, `br##"`, …),
/// returns the hash count; `None` otherwise (so `r#match` raw identifiers
/// and plain idents starting with r/b fall through).
fn raw_string_lookahead(cur: &Cursor) -> Option<usize> {
    let mut j = 0usize;
    if cur.peek(j) == Some(b'b') {
        j += 1;
    }
    if cur.peek(j) != Some(b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while cur.peek(j) == Some(b'#') {
        hashes += 1;
        j += 1;
    }
    (cur.peek(j) == Some(b'"')).then_some(hashes)
}

/// Consumes `[b]r#*"…"#*` with `hashes` hashes. Unterminated: to EOF.
fn scan_raw_string(cur: &mut Cursor, hashes: usize) {
    if cur.peek(0) == Some(b'b') {
        cur.bump();
    }
    cur.bump(); // r
    for _ in 0..hashes {
        cur.bump();
    }
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        if c == b'"' {
            let mut k = 0usize;
            while k < hashes && cur.peek(1 + k) == Some(b'#') {
                k += 1;
            }
            if k == hashes {
                cur.bump(); // closing quote
                for _ in 0..hashes {
                    cur.bump();
                }
                return;
            }
        }
        cur.bump();
    }
}

/// Consumes `"…"` with backslash escapes. Unterminated: to EOF.
fn scan_plain_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(c) = cur.peek(0) {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => cur.bump(),
        }
    }
}

/// Consumes a char literal body after the cursor was positioned on `'`.
fn scan_char(cur: &mut Cursor) {
    cur.bump(); // opening quote
    if cur.peek(0) == Some(b'\\') {
        cur.bump();
        cur.bump();
    } else {
        cur.bump();
    }
    // Multi-byte UTF-8 scalar or malformed: scan to the close quote, but
    // never across a newline (keeps damage local on malformed input).
    while let Some(c) = cur.peek(0) {
        if c == b'\'' || c == b'\n' {
            break;
        }
        cur.bump();
    }
    if cur.peek(0) == Some(b'\'') {
        cur.bump();
    }
}

/// Disambiguates `'` into a char literal or a lifetime and consumes it.
fn scan_quote(cur: &mut Cursor) -> TokenKind {
    // `'\…'` is always a char; `'x'` (close quote two ahead) is a char;
    // `'a`, `'static`, `'_` without a close quote are lifetimes. A
    // non-ident byte after the quote (`'['`, `'é'`) is a char literal.
    match cur.peek(1) {
        Some(b'\\') => {
            scan_char(cur);
            TokenKind::CharLit
        }
        Some(c) if is_ident_byte(c) => {
            if cur.peek(2) == Some(b'\'') {
                scan_char(cur);
                TokenKind::CharLit
            } else {
                cur.bump(); // quote
                cur.bump_while(is_ident_byte);
                TokenKind::Lifetime
            }
        }
        Some(_) => {
            scan_char(cur);
            TokenKind::CharLit
        }
        None => {
            cur.bump();
            TokenKind::Lifetime
        }
    }
}

/// Consumes a numeric literal: prefixes (`0x`, `0o`, `0b`), underscores,
/// type suffixes, a fractional part when the `.` is followed by a digit
/// (so `0..n` ranges survive), and exponents (`1e9`, `1.5e-3`).
fn scan_number(cur: &mut Cursor) {
    cur.bump_while(is_ident_byte); // digits, prefix letters, suffix, underscores
    if cur.peek(0) == Some(b'.') && cur.peek(1).is_some_and(|c| c.is_ascii_digit()) {
        cur.bump(); // .
        cur.bump_while(is_ident_byte);
    }
    // `1e+9` / `1.5E-3`: bump_while stopped at the sign.
    if matches!(cur.peek(0), Some(b'+') | Some(b'-')) {
        let prev = cur.b.get(cur.i.wrapping_sub(1)).copied();
        if matches!(prev, Some(b'e') | Some(b'E'))
            && cur.peek(1).is_some_and(|c| c.is_ascii_digit())
        {
            cur.bump(); // sign
            cur.bump_while(is_ident_byte);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn texts(src: &str) -> Vec<String> {
        lex(src).iter().map(|t| t.text(src).to_string()).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        let toks = kinds("let x = foo(1_000u64, 0x1F);");
        assert_eq!(toks[0], (TokenKind::Ident, "let".into()));
        assert_eq!(toks[1], (TokenKind::Ident, "x".into()));
        assert_eq!(toks[2], (TokenKind::Punct(b'='), "=".into()));
        assert!(toks.contains(&(TokenKind::NumLit, "1_000u64".into())));
        assert!(toks.contains(&(TokenKind::NumLit, "0x1F".into())));
    }

    #[test]
    fn floats_and_ranges() {
        assert!(kinds("let y = 1.5e-3;").contains(&(TokenKind::NumLit, "1.5e-3".into())));
        // `0..n` must lex as number, two dots, ident.
        let toks = kinds("for i in 0..n {}");
        assert!(toks.contains(&(TokenKind::NumLit, "0".into())));
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Punct(b'.'))
                .count(),
            2
        );
        // `1..=2` keeps both numbers.
        let toks = kinds("1..=2");
        assert!(toks.contains(&(TokenKind::NumLit, "1".into())));
        assert!(toks.contains(&(TokenKind::NumLit, "2".into())));
    }

    #[test]
    fn comments_vanish_including_nested_blocks() {
        let src = "a /* x /* y.unwrap() */ z */ b // c.unwrap()\nd";
        assert_eq!(texts(src), vec!["a", "b", "d"]);
        // Unterminated block comment: everything after it is comment.
        assert_eq!(texts("a /* open"), vec!["a"]);
    }

    #[test]
    fn doc_comments_vanish() {
        let src = "/// assert_eq!(r.read_bits(3).unwrap(), 1);\nfn f() {}";
        let t = texts(src);
        assert!(!t.iter().any(|s| s.contains("unwrap")));
        assert_eq!(t[0], "fn");
    }

    #[test]
    fn string_flavors() {
        let src = r####"let a = "plain \" esc"; let b = r#"raw "x" [0]"#; let c = b"bytes"; let d = br##"rb"##;"####;
        let strs: Vec<String> = lex(src)
            .iter()
            .filter(|t| t.kind == TokenKind::StrLit)
            .map(|t| t.str_content(src).unwrap_or("<none>").to_string())
            .collect();
        assert_eq!(
            strs,
            vec![r#"plain \" esc"#, r#"raw "x" [0]"#, "bytes", "rb"]
        );
    }

    #[test]
    fn raw_identifier_is_ident_not_string() {
        let toks = kinds("let r#match = r#type;");
        assert!(toks.contains(&(TokenKind::Ident, "r#match".into())));
        assert!(toks.contains(&(TokenKind::Ident, "r#type".into())));
    }

    #[test]
    fn char_vs_lifetime() {
        let src = "fn f<'a>(x: &'a [u8]) -> char { let c = '\\''; let d = '['; let s: &'static str = \"\"; c.max(d) }";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(toks.contains(&(TokenKind::Lifetime, "'static".into())));
        assert!(toks.contains(&(TokenKind::CharLit, "'\\''".into())));
        assert!(toks.contains(&(TokenKind::CharLit, "'['".into())));
    }

    #[test]
    fn underscore_lifetime_and_byte_char() {
        let toks = kinds("fn f(x: &'_ str) { let b = b'\\0'; let c = 'x'; }");
        assert!(toks.contains(&(TokenKind::Lifetime, "'_".into())));
        assert!(toks.contains(&(TokenKind::CharLit, "b'\\0'".into())));
        assert!(toks.contains(&(TokenKind::CharLit, "'x'".into())));
    }

    #[test]
    fn utf8_char_literal() {
        let src = "let c = 'é'; let l = 'a;";
        let toks = kinds(src);
        assert!(toks.contains(&(TokenKind::CharLit, "'é'".into())));
        assert!(toks.contains(&(TokenKind::Lifetime, "'a".into())));
    }

    #[test]
    fn shebang_skipped_but_inner_attr_kept() {
        assert_eq!(texts("#!/usr/bin/env run\nfn f() {}")[0], "fn");
        let toks = texts("#![forbid(unsafe_code)]\nfn f() {}");
        assert_eq!(toks[0], "#");
        assert!(toks.contains(&"forbid".to_string()));
    }

    #[test]
    fn spans_are_exact_line_col() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        let toks = lex(src);
        let unwrap = toks
            .iter()
            .find(|t| t.is_ident(src, "unwrap"))
            .expect("unwrap lexed");
        assert_eq!(unwrap.line, 2);
        assert_eq!(unwrap.col, 7);
        assert_eq!(&src[unwrap.start..unwrap.end], "unwrap");
        // Every token's span round-trips through the source.
        for t in &toks {
            assert!(t.end > t.start && t.end <= src.len());
        }
    }

    #[test]
    fn glued_detects_multibyte_operators() {
        let src = "a << b < < c :: d += e";
        let toks = lex(src);
        let pairs: Vec<bool> = toks.windows(2).map(|w| w[0].glued(&w[1])).collect();
        // a <<: the two '<' of `<<` glue; the spaced `< <` does not.
        let lts: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_punct(b'<'))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(lts.len(), 4);
        assert!(toks[lts[0]].glued(&toks[lts[1]]));
        assert!(!toks[lts[2]].glued(&toks[lts[3]]));
        assert!(pairs.iter().any(|&g| g), "some operator glues");
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        for src in ["\"open", "r#\"open", "'", "b\"open", "/* open", "r#"] {
            let _ = lex(src); // must not panic
        }
        let toks = lex("let s = \"open");
        assert_eq!(toks.last().map(|t| t.kind), Some(TokenKind::StrLit));
    }

    #[test]
    fn trailing_backslash_at_eof_stays_in_bounds() {
        // Escape scans consume two bytes; a backslash as the final byte
        // must saturate at EOF rather than produce an out-of-range span.
        for src in ["\"abc\\", "'\\", "b\"x\\", "let s = \"\\"] {
            for t in lex(src) {
                assert!(t.end <= src.len(), "{src:?} span past EOF");
            }
        }
    }

    #[test]
    fn every_byte_accounted_monotone_spans() {
        let src = "fn f(v: &[u8]) -> u8 { v.len() as u8 } // tail";
        let toks = lex(src);
        let mut prev_end = 0usize;
        for t in &toks {
            assert!(t.start >= prev_end, "tokens must not overlap");
            prev_end = t.end;
        }
    }
}
