//! A minimal hand-written Rust lexer.
//!
//! `sdbms-lint` deliberately carries no external dependencies (same
//! vendoring discipline as `vendor/proptest`), so instead of `syn` it
//! lexes Rust source into a flat token stream that is just rich enough
//! for the pattern-based lints in [`crate::source_lints`]: identifiers,
//! punctuation, literals, and doc comments, each tagged with its source
//! line. Ordinary comments are not tokens, but any comment containing a
//! `lint: allow(<id>): <reason>` directive is captured as an
//! [`AllowDirective`] so lints can honor inline, per-line allowlists.
//!
//! The lexer understands the parts of the grammar that would otherwise
//! produce false matches: nested block comments, string/char/byte
//! literals (including raw strings with `#` fences), and the
//! lifetime-versus-char-literal ambiguity after `'`.

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unwrap`, `Ordering`, …).
    Ident,
    /// Single punctuation character (`.`, `:`, `!`, `[`, …), or `==`
    /// (so a pattern ending in `=` never matches a comparison).
    Punct,
    /// String / char / byte / numeric literal (content not preserved).
    Literal,
    /// Outer doc comment (`///` or `/** … */`) — documents the item
    /// that follows it.
    DocOuter,
    /// Inner doc comment (`//!` or `/*! … */`) — documents the
    /// enclosing module, not the next item.
    DocInner,
    /// Lifetime (`'a`) — kept distinct so `'a` is never confused with
    /// the start of a char literal.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexeme kind.
    pub kind: TokKind,
    /// The identifier / punctuation text. Empty for literals and doc
    /// comments (lints never match on their content).
    pub text: String,
    /// 1-based line where the token starts.
    pub line: u32,
}

impl Tok {
    /// True when this token is the identifier `s`.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// An inline allowlist directive parsed from a comment:
/// `// lint: allow(<id>): <reason>`. The directive suppresses findings
/// of `<id>` on its own line and on the line immediately after it, and
/// is only valid when a non-empty justification follows the id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// The allowed lint id.
    pub id: String,
    /// Whether a non-empty justification followed the id. Directives
    /// without a justification are reported as findings themselves.
    pub justified: bool,
}

/// A fully lexed source file.
#[derive(Debug, Default)]
pub struct TokenStream {
    /// The tokens, in source order.
    pub toks: Vec<Tok>,
    /// Inline allowlist directives found in comments.
    pub allows: Vec<AllowDirective>,
}

/// Lex `src` into a [`TokenStream`]. The lexer never fails: bytes it
/// does not understand are skipped (lints are best-effort pattern
/// matchers, not a compiler front end).
#[must_use]
pub fn tokenize(src: &str) -> TokenStream {
    let mut out = TokenStream::default();
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                let start_line = line;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                if text.starts_with("///") && !text.starts_with("////") {
                    out.toks.push(Tok {
                        kind: TokKind::DocOuter,
                        text: String::new(),
                        line: start_line,
                    });
                } else if text.starts_with("//!") {
                    out.toks.push(Tok {
                        kind: TokKind::DocInner,
                        text: String::new(),
                        line: start_line,
                    });
                } else if let Some(d) = parse_allow(&text, start_line) {
                    out.allows.push(d);
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start = i;
                let start_line = line;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = b[start..i.min(n)].iter().collect();
                if text.starts_with("/**") && !text.starts_with("/***") && text.len() > 4 {
                    out.toks.push(Tok {
                        kind: TokKind::DocOuter,
                        text: String::new(),
                        line: start_line,
                    });
                } else if text.starts_with("/*!") {
                    out.toks.push(Tok {
                        kind: TokKind::DocInner,
                        text: String::new(),
                        line: start_line,
                    });
                } else if let Some(d) = parse_allow(&text, start_line) {
                    out.allows.push(d);
                }
            }
            // r"..."  r#"..."#  br#"..."#  b"..."
            'r' | 'b' if raw_string_fence(&b, i).is_some() => {
                let Some((hash_count, quote_at)) = raw_string_fence(&b, i) else {
                    // Unreachable (the arm guard checked), but advance
                    // rather than risk a spin.
                    i += 1;
                    continue;
                };
                let start_line = line;
                i = quote_at + 1;
                // Scan to closing quote followed by hash_count '#'s.
                while i < n {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if b[i] == '"' {
                        let mut k = 0;
                        while k < hash_count && i + 1 + k < n && b[i + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hash_count {
                            i += 1 + hash_count;
                            break;
                        }
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: start_line,
                });
            }
            '"' => {
                let start_line = line;
                i += 1;
                while i < n {
                    match b[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line: start_line,
                });
            }
            '\'' => {
                // Lifetime ('a) vs char literal ('x', '\n', '\'').
                let is_lifetime = i + 1 < n
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && !(i + 2 < n && b[i + 2] == '\'');
                if is_lifetime {
                    let start = i;
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[start..i].iter().collect(),
                        line,
                    });
                } else {
                    let start_line = line;
                    i += 1;
                    while i < n {
                        match b[i] {
                            '\\' => i += 2,
                            '\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line: start_line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                while i < n && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Stop before a range operator `..` or a method
                    // call on a literal.
                    if b[i] == '.' && i + 1 < n && (b[i + 1] == '.' || b[i + 1].is_alphabetic()) {
                        break;
                    }
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            _ => {
                let len = if c == '=' && b.get(i + 1) == Some(&'=') {
                    2
                } else {
                    1
                };
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: b[i..i + len].iter().collect(),
                    line,
                });
                i += len;
            }
        }
    }
    out
}

/// Detect a raw/byte string opener at `i`: `r"`, `r#…#"`, `b"`, `br#…"`.
/// Returns `(hash_count, index_of_opening_quote)`.
fn raw_string_fence(b: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if j < b.len() && b[j] == 'r' {
        j += 1;
    } else if b[i] == 'b' {
        // Plain byte string b"..." — treat like a normal string with
        // zero hashes.
        return (j < b.len() && b[j] == '"').then_some((0, j));
    } else {
        return None;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == '#' {
        hashes += 1;
        j += 1;
    }
    (j < b.len() && b[j] == '"').then_some((hashes, j))
}

/// Parse a `lint: allow(<id>): <reason>` directive out of a comment.
fn parse_allow(comment: &str, line: u32) -> Option<AllowDirective> {
    let at = comment.find("lint:")?;
    let rest = comment[at + "lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let id = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches([':', '—', '-', ' '])
        .trim();
    Some(AllowDirective {
        line,
        id,
        justified: !reason.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_lines() {
        let ts = tokenize("fn a() {\n  b.unwrap()\n}\n");
        let unwrap = ts.toks.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
    }

    #[test]
    fn strings_hide_their_content() {
        assert_eq!(idents(r#"let x = "unwrap panic";"#), vec!["let", "x"]);
        assert_eq!(idents("let x = r#\"a.unwrap()\"#;"), vec!["let", "x"]);
        assert_eq!(
            idents(r"let c = '\'';  let d = 'x';"),
            vec!["let", "c", "let", "d"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let ts = tokenize("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(ts.toks.iter().any(|t| t.kind == TokKind::Lifetime));
        // The `str` after `'a` must still lex as an ident.
        assert!(ts.toks.iter().any(|t| t.is_ident("str")));
    }

    #[test]
    fn comments_are_skipped_but_docs_kept() {
        let ts = tokenize("/// doc\n// plain unwrap\nfn f() {}\n");
        assert!(ts.toks.iter().any(|t| t.kind == TokKind::DocOuter));
        assert!(!ts.toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn nested_block_comments() {
        let ts = tokenize("/* outer /* inner */ still comment */ fn f() {}");
        assert_eq!(
            ts.toks.iter().filter(|t| t.kind == TokKind::Ident).count(),
            2
        );
    }

    #[test]
    fn double_equals_is_one_token() {
        let ts = tokenize("a == b; c = d;");
        let puncts: Vec<&str> = ts
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", ";", "=", ";"]);
    }

    #[test]
    fn allow_directive_parsed() {
        let ts = tokenize("x.unwrap(); // lint: allow(no-panic): invariant upheld by caller\n");
        assert_eq!(ts.allows.len(), 1);
        assert_eq!(ts.allows[0].id, "no-panic");
        assert!(ts.allows[0].justified);
        assert_eq!(ts.allows[0].line, 1);
    }

    #[test]
    fn allow_without_reason_is_unjustified() {
        let ts = tokenize("// lint: allow(no-panic)\n");
        assert_eq!(ts.allows.len(), 1);
        assert!(!ts.allows[0].justified);
    }
}
