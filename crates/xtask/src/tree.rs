//! A lightweight brace-matched item tree over the [`crate::lexer`] token
//! stream.
//!
//! The tree gives the rules what a flat token scan cannot: item
//! boundaries (`fn` / `mod` / `impl` / `struct` / `enum` / `trait`),
//! attribute attachment, and **structural** `#[cfg(test)]` detection —
//! any item carrying that attribute is test code wherever it sits in the
//! file, which fixes the old line-oriented scanner's blind spots (a
//! leading `#[cfg(test)] use`, doc comments or extra attributes between
//! the cfg and its `mod`, non-trailing test modules).
//!
//! This is not a parser for all of Rust: it brace-matches and recognizes
//! item-introducing keywords, which is exactly enough to attribute every
//! token to the innermost item that contains it. Unknown constructs are
//! skipped conservatively (to the matching close brace or the terminating
//! semicolon), and malformed input never panics — the tree is best-effort
//! and total.

use crate::lexer::{Token, TokenKind};

/// What kind of item a keyword introduces; decides whose body is parsed
/// for child items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    /// `fn` item (free function, method, or trait default method).
    Fn,
    /// `impl … { … }` (inherent or trait impl).
    Impl,
    /// `mod` / `trait`: a body of items.
    Scope,
    /// `struct` / `union` / `enum`: no child items.
    Data,
}

/// One node of the item tree: the token extent of an item and whether
/// it is test-only code.
#[derive(Debug)]
pub struct Item {
    /// True when an attached attribute contains `cfg` … `test` — the
    /// item (and everything inside it) is test-only code.
    pub cfg_test: bool,
    /// Token index of the first attached attribute (or the item keyword
    /// when there are none).
    pub first_token: usize,
    /// Token index one past the item's last token (closing brace or `;`).
    pub end_token: usize,
    /// Child items (for `mod` / `impl` / `trait` bodies, and items nested
    /// in `fn` bodies).
    pub children: Vec<Item>,
}

/// Parses the whole file into a list of top-level items.
pub fn parse(src: &str, tokens: &[Token]) -> Vec<Item> {
    let mut pos = 0usize;
    parse_items(src, tokens, &mut pos, tokens.len())
}

/// Keywords that introduce an item we model structurally.
fn item_kind(kw: &str) -> Option<ItemKind> {
    Some(match kw {
        "fn" => ItemKind::Fn,
        "impl" => ItemKind::Impl,
        "mod" | "trait" => ItemKind::Scope,
        "struct" | "union" | "enum" => ItemKind::Data,
        _ => return None,
    })
}

/// Item-position keywords that merely prefix the defining keyword.
fn is_modifier(kw: &str) -> bool {
    matches!(
        kw,
        "pub" | "const" | "static" | "unsafe" | "async" | "extern" | "default"
    )
}

fn parse_items(src: &str, tokens: &[Token], pos: &mut usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    while *pos < end {
        match parse_item(src, tokens, pos, end) {
            Some(item) => items.push(item),
            None => *pos += 1, // stray token: skip and stay total
        }
    }
    items
}

/// Parses one item starting at `*pos`, or returns `None` (cursor
/// unchanged) when the tokens there do not start one.
fn parse_item(src: &str, tokens: &[Token], pos: &mut usize, end: usize) -> Option<Item> {
    let first_token = *pos;
    let mut i = *pos;

    // Attached outer attributes: `#[ … ]`. Inner attributes (`#![ … ]`)
    // belong to the enclosing scope; treat them as a skippable item.
    let mut cfg_test = false;
    let mut saw_attr = false;
    while i + 1 < end
        && tokens.get(i).is_some_and(|t| t.is_punct(b'#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'['))
    {
        let close = matching(tokens, i + 1, end, b'[', b']')?;
        cfg_test = cfg_test || attr_is_cfg_test(src, tokens.get(i + 2..close).unwrap_or(&[]));
        i = close + 1;
        saw_attr = true;
    }
    if i >= end {
        return None;
    }

    // Inner attribute `#![…]`: consume as an anonymous item.
    if tokens.get(i).is_some_and(|t| t.is_punct(b'#'))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
    {
        let close = matching(tokens, i + 2, end, b'[', b']')?;
        *pos = close + 1;
        return Some(Item {
            cfg_test: false,
            first_token,
            end_token: close + 1,
            children: Vec::new(),
        });
    }

    // Visibility and modifier keywords before the defining keyword.
    let header_start = i;
    let mut kind = None;
    while i < end {
        let t = tokens.get(i)?;
        if t.kind != TokenKind::Ident {
            break;
        }
        let text = t.text(src);
        if let Some(k) = item_kind(text) {
            kind = Some(k);
            i += 1;
            break;
        }
        if text == "pub" {
            // `pub(crate)` / `pub(super)`: skip the restriction group.
            i = match tokens.get(i + 1) {
                Some(n) if n.is_punct(b'(') => matching(tokens, i + 1, end, b'(', b')')? + 1,
                _ => i + 1,
            };
            continue;
        }
        if is_modifier(text) {
            // `extern "C"` carries a string literal.
            i += 1;
            if text == "extern" && tokens.get(i).is_some_and(|t| t.kind == TokenKind::StrLit) {
                i += 1;
            }
            continue;
        }
        break;
    }

    let Some(kind) = kind else {
        // Not a modeled item. If we consumed attributes or modifiers, or
        // the position plausibly starts a `;`/brace-terminated construct,
        // skip it wholesale so attributes stay attached to *something*.
        let skipped = skip_unmodeled(tokens, header_start.max(i), end);
        if skipped == header_start.max(i) && !saw_attr {
            return None;
        }
        *pos = skipped;
        return Some(Item {
            cfg_test,
            first_token,
            end_token: skipped,
            children: Vec::new(),
        });
    };

    // Scan the header for the body `{` or terminating `;`, skipping
    // balanced (), [] groups (param lists, array types, const generics).
    let mut j = i;
    let mut body_open = None;
    while j < end {
        let t = tokens.get(j)?;
        match t.kind {
            TokenKind::Punct(b'(') => j = matching(tokens, j, end, b'(', b')')? + 1,
            TokenKind::Punct(b'[') => j = matching(tokens, j, end, b'[', b']')? + 1,
            TokenKind::Punct(b'{') => {
                body_open = Some(j);
                break;
            }
            TokenKind::Punct(b';') => break,
            _ => j += 1,
        }
    }
    let Some(open) = body_open else {
        // `;`-terminated (fn in trait without default, `mod name;`, …).
        *pos = (j + 1).min(end);
        return Some(Item {
            cfg_test,
            first_token,
            end_token: *pos,
            children: Vec::new(),
        });
    };
    let close = matching(tokens, open, end, b'{', b'}')?;
    let children = match kind {
        ItemKind::Scope | ItemKind::Impl => {
            let mut p = open + 1;
            parse_items(src, tokens, &mut p, close)
        }
        // fn bodies can contain nested items (helper fns, test mods);
        // parsing them keeps cfg_test detection exact even there.
        ItemKind::Fn => {
            let mut p = open + 1;
            collect_nested_items(src, tokens, &mut p, close)
        }
        ItemKind::Data => Vec::new(),
    };
    *pos = close + 1;
    Some(Item {
        cfg_test,
        first_token,
        end_token: close + 1,
        children,
    })
}

/// Inside a fn body, statements are not items; only collect *nested item
/// definitions* (a `fn`/`mod`/… keyword at statement position). Plain
/// statements are skipped token by token.
fn collect_nested_items(src: &str, tokens: &[Token], pos: &mut usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    while *pos < end {
        let t = match tokens.get(*pos) {
            Some(t) => t,
            None => break,
        };
        let starts_item = (t.kind == TokenKind::Ident
            && item_kind(t.text(src)).is_some_and(|k| k != ItemKind::Impl))
            || (t.is_punct(b'#') && tokens.get(*pos + 1).is_some_and(|n| n.is_punct(b'[')));
        if starts_item {
            if let Some(item) = parse_item(src, tokens, pos, end) {
                items.push(item);
                continue;
            }
        }
        // Skip balanced groups so `{`…`}` in expressions don't confuse
        // the item scan.
        match t.kind {
            TokenKind::Punct(b'{') => {
                *pos = matching(tokens, *pos, end, b'{', b'}').map_or(end, |c| c + 1)
            }
            _ => *pos += 1,
        }
    }
    items
}

/// Skips an unmodeled construct at item position: to the first `;` at
/// depth zero, consuming balanced brace/paren/bracket groups on the way.
/// A construct that is a bare braced group with no `;` (e.g.
/// `macro_rules! m { … }`) ends at its close brace.
fn skip_unmodeled(tokens: &[Token], start: usize, end: usize) -> usize {
    let mut i = start;
    while i < end {
        let Some(t) = tokens.get(i) else { break };
        match t.kind {
            TokenKind::Punct(b';') => return i + 1,
            TokenKind::Punct(b'{') => {
                let close = matching(tokens, i, end, b'{', b'}').unwrap_or(end);
                // `const X: T = S { … };` continues to the `;`; a macro
                // definition/invocation with braces ends here.
                if tokens.get(close + 1).is_some_and(|t| t.is_punct(b';')) {
                    return close + 2;
                }
                return (close + 1).min(end);
            }
            TokenKind::Punct(b'(') => {
                i = matching(tokens, i, end, b'(', b')').map_or(end, |c| c + 1);
            }
            TokenKind::Punct(b'[') => {
                i = matching(tokens, i, end, b'[', b']').map_or(end, |c| c + 1);
            }
            _ => i += 1,
        }
    }
    end
}

/// Token index of the closer matching the opener at `open` (which must
/// hold `open_c`), scanning only `[open, end)`. `None` when unbalanced.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    end: usize,
    open_c: u8,
    close_c: u8,
) -> Option<usize> {
    if !tokens.get(open)?.is_punct(open_c) {
        return None;
    }
    let mut depth = 0usize;
    let mut i = open;
    while i < end {
        let t = tokens.get(i)?;
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// True when the attribute tokens (the part between `#[` and `]`)
/// mention `cfg` with a `test` argument: `cfg(test)`,
/// `cfg(all(test, …))`, `cfg(any(test, …))`.
fn attr_is_cfg_test(src: &str, attr: &[Token]) -> bool {
    let is_cfg = attr.first().is_some_and(|t| t.is_ident(src, "cfg"));
    is_cfg && attr.iter().skip(1).any(|t| t.is_ident(src, "test"))
}

/// Per-token shipping mask: `true` for tokens that are shipping code,
/// `false` for tokens inside any `#[cfg(test)]` item (including its
/// attributes). This is the structural replacement for the old trailing
/// `#[cfg(test)] mod` text scan.
pub fn shipping_mask(tokens: &[Token], items: &[Item]) -> Vec<bool> {
    let mut mask = vec![true; tokens.len()];
    fn walk(items: &[Item], mask: &mut [bool]) {
        for item in items {
            if item.cfg_test {
                for m in mask.iter_mut().take(item.end_token).skip(item.first_token) {
                    *m = false;
                }
            } else {
                walk(&item.children, mask);
            }
        }
    }
    walk(items, &mut mask);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> (Vec<crate::lexer::Token>, Vec<Item>) {
        let tokens = lex(src);
        let items = parse(src, &tokens);
        (tokens, items)
    }

    /// The source text an item spans, attributes included.
    fn text<'a>(src: &'a str, tokens: &[crate::lexer::Token], item: &Item) -> &'a str {
        let start = tokens[item.first_token].start;
        let end = tokens[item.end_token - 1].end;
        &src[start..end]
    }

    fn texts<'a>(src: &'a str, tokens: &[crate::lexer::Token], items: &[Item]) -> Vec<&'a str> {
        items.iter().map(|i| text(src, tokens, i)).collect()
    }

    #[test]
    fn top_level_items_and_their_children() {
        let src = "pub fn alpha() {}\nmod beta { fn gamma() {} }\nstruct Delta;\nenum E { A, B }\n";
        let (tokens, items) = tree(src);
        assert_eq!(
            texts(src, &tokens, &items),
            vec![
                "pub fn alpha() {}",
                "mod beta { fn gamma() {} }",
                "struct Delta;",
                "enum E { A, B }"
            ]
        );
        assert_eq!(
            texts(src, &tokens, &items[1].children),
            vec!["fn gamma() {}"]
        );
        assert!(items[3].children.is_empty());
    }

    #[test]
    fn pub_restrictions_are_skipped() {
        let src = "pub(crate) fn f() {}\npub(super) fn g() {}\npub fn h() {}\n";
        let (tokens, items) = tree(src);
        assert_eq!(
            texts(src, &tokens, &items),
            vec![
                "pub(crate) fn f() {}",
                "pub(super) fn g() {}",
                "pub fn h() {}"
            ]
        );
    }

    #[test]
    fn impl_blocks_hold_methods() {
        let src = "impl Foo { pub fn a(&self) {} fn b() {} }\nimpl Tr for Foo { fn c() {} }\n";
        let (tokens, items) = tree(src);
        assert_eq!(items.len(), 2);
        assert_eq!(
            texts(src, &tokens, &items[0].children),
            vec!["pub fn a(&self) {}", "fn b() {}"]
        );
        assert_eq!(texts(src, &tokens, &items[1].children), vec!["fn c() {}"]);
    }

    #[test]
    fn cfg_test_detected_structurally() {
        let src = "\
#[cfg(test)]\nuse std::fmt;\n\
fn shipping() { let _ = 1; }\n\
#[cfg(test)]\nfn helper() {}\n\
#[cfg(test)]\nmod tests { fn t() {} }\n";
        let (tokens, items) = tree(src);
        let flags: Vec<bool> = items.iter().map(|i| i.cfg_test).collect();
        assert_eq!(flags, vec![true, false, true, true]);
        let mask = shipping_mask(&tokens, &items);
        // Every token of `shipping` is shipping; tokens of helper/tests are not.
        for (t, m) in tokens.iter().zip(&mask) {
            let text = t.text(src);
            if text == "shipping" {
                assert!(*m);
            }
            if text == "helper" || text == "tests" {
                assert!(!*m, "{text} must be masked out");
            }
        }
    }

    #[test]
    fn cfg_test_separated_by_doc_comments_and_attrs() {
        // The old line scanner mis-fired when doc comments or multiple
        // attributes sat between `#[cfg(test)]` and `mod`; the structural
        // path must not care.
        let src = "\
fn a() {}\n\
#[cfg(test)]\n\
/// Doc comment between the cfg and the mod.\n\
/// Another one.\n\
#[allow(dead_code)]\n\
mod tests { fn t() { panic!(); } }\n";
        let (tokens, items) = tree(src);
        let mask = shipping_mask(&tokens, &items);
        for (t, m) in tokens.iter().zip(&mask) {
            if t.is_ident(src, "a") {
                assert!(*m, "fn a before the cfg must stay shipping");
            }
            if t.is_punct(b'#') || t.is_ident(src, "tests") || t.is_ident(src, "panic") {
                assert!(
                    !*m,
                    "the cfg, its attributes and the test mod must be masked"
                );
            }
        }
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod helpers {}\nfn s() {}\n";
        let (_, items) = tree(src);
        assert!(items[0].cfg_test);
        assert!(!items[1].cfg_test);
    }

    #[test]
    fn other_items_are_skipped_whole() {
        let src = "use std::fmt;\nconst X: Foo = Foo { a: 1 };\nstatic Y: [u8; 2] = [0, 1];\nmacro_rules! m { () => {} }\nfn tail() {}\n";
        let (tokens, items) = tree(src);
        let lines: Vec<&str> = src.lines().collect();
        assert_eq!(texts(src, &tokens, &items), lines);
    }

    #[test]
    fn fn_with_nested_test_mod() {
        let src = "fn outer() { if x { y(); } #[cfg(test)] mod inner {} }\n";
        let (tokens, items) = tree(src);
        assert_eq!(items.len(), 1);
        assert_eq!(
            texts(src, &tokens, &items[0].children),
            vec!["#[cfg(test)] mod inner {}"]
        );
        assert!(items[0].children[0].cfg_test);
    }

    #[test]
    fn malformed_input_is_total() {
        for src in [
            "fn f( {",
            "impl {",
            "mod m { fn ",
            "#[cfg(test)",
            "pub pub pub",
            "}}}",
        ] {
            let (_, _items) = tree(src); // must not panic or loop
        }
    }
}
