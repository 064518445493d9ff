//! A minimal Rust lexer: just enough token structure for the era-lint
//! rules, none of the grammar.
//!
//! The workspace builds offline with no registry access, so `syn` is
//! not available; this hand-rolled scanner fills the gap. It produces
//! two streams per file:
//!
//! * [`Tok`]s — identifiers, punctuation, lifetimes and literals, each
//!   stamped with its 1-based source line. Comment content and string
//!   *structure* never reach the identifier/punctuation stream, so rule
//!   patterns cannot be spoofed by prose (a doc comment mentioning
//!   `unsafe`, a test embedding bad code in a string literal). String
//!   literals keep their inner text on the [`TokKind::Literal`] token,
//!   where rules that match identifiers or punctuation never see it.
//! * [`Comment`]s — the comment text per line, which is exactly where
//!   the discipline this linter enforces lives (`// SAFETY:`,
//!   `SAFETY(ordering)`, `// LINT:` waivers, `# Safety` doc sections,
//!   `PAIRS(name)` fence partners, `ERA-CLASS:` headers).
//!
//! Handled: line and (nested) block comments, doc comments, string /
//! raw-string / byte-string / c-string / char / byte-char literals,
//! lifetimes vs. char literals, numeric literals. Not handled (not
//! needed): macro tokenization subtleties, float-vs-range ambiguity,
//! non-ASCII identifiers.

/// Kinds of tokens the rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `fn`, `store`, …).
    Ident,
    /// Single punctuation character (`.`, `(`, `*`, …).
    Punct,
    /// Lifetime (`'a`, `'retry`) — distinct so `'x` never reads as a deref.
    Lifetime,
    /// String/char/numeric literal. String literals carry their inner
    /// text (no delimiters); all other literals carry `""`.
    Literal,
}

/// One token: kind, text and 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text (single char for punctuation; inner text for string
    /// literals; `""` for char/numeric literals).
    pub text: String,
    /// 1-based line number of the token's *first* character (multi-line
    /// string literals are stamped where they open, not where they
    /// close).
    pub line: usize,
}

impl Tok {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Comment text found on one source line (all comments on the line,
/// concatenated: trailing `//`, doc `///`, and any block-comment text
/// that covers the line).
#[derive(Debug, Clone, Default)]
pub struct Comment {
    /// Concatenated comment text for the line (empty = no comment).
    pub text: String,
}

/// Lexer output for one file.
#[derive(Debug)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Per-line comment text, indexed by 1-based line (slot 0 unused).
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Comment text on `line` (empty string when out of range).
    pub fn comment_on(&self, line: usize) -> &str {
        self.comments.get(line).map_or("", |c| c.text.as_str())
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Never fails: unrecognized bytes are skipped, and an
/// unterminated literal or comment simply consumes the rest of the
/// file — for a linter, resilience beats strictness.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let nlines = src.lines().count() + 2;
    let mut out = Lexed {
        toks: Vec::new(),
        comments: vec![Comment::default(); nlines + 1],
    };
    let mut i = 0;
    let mut line = 1;
    let push_comment = |comments: &mut Vec<Comment>, line: usize, text: &str| {
        if let Some(slot) = comments.get_mut(line) {
            if !slot.text.is_empty() {
                slot.text.push(' ');
            }
            slot.text.push_str(text);
        }
    };
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                push_comment(&mut out.comments, line, &text);
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Nested block comment; record its text on every line
                // it covers so line-window scans see it.
                let mut depth = 1usize;
                i += 2;
                let mut cur = String::from("/*");
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        cur.push_str("/*");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        cur.push_str("*/");
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            push_comment(&mut out.comments, line, &cur);
                            cur.clear();
                            line += 1;
                        } else {
                            cur.push(b[i]);
                        }
                        i += 1;
                    }
                }
                if !cur.is_empty() {
                    push_comment(&mut out.comments, line, &cur);
                }
            }
            '"' => {
                let tok_line = line;
                let mut content = String::new();
                i = skip_string(&b, i, &mut line, &mut content);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: content,
                    line: tok_line,
                });
            }
            // `b'x'` / `b'\n'` byte-char literals: without this arm the
            // `b` would lex as a stray identifier ahead of the char
            // literal, desyncing fixed-width window matches.
            'b' if i + 1 < n && b[i + 1] == '\'' => {
                i = skip_char_literal(&b, i + 1);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            'r' | 'b' | 'c' if starts_string_prefix(&b, i) => {
                let tok_line = line;
                let mut content = String::new();
                i = skip_prefixed_string(&b, i, &mut line, &mut content);
                out.toks.push(Tok {
                    kind: TokKind::Literal,
                    text: content,
                    line: tok_line,
                });
            }
            '\'' => {
                // Lifetime or char literal. `'ident` not followed by a
                // closing quote is a lifetime; anything else is a char.
                let mut j = i + 1;
                if j < n && is_ident_start(b[j]) {
                    while j < n && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        // 'a' — char literal
                        out.toks.push(Tok {
                            kind: TokKind::Literal,
                            text: String::new(),
                            line,
                        });
                        i = j + 1;
                    } else {
                        let text: String = b[i..j].iter().collect();
                        out.toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text,
                            line,
                        });
                        i = j;
                    }
                } else {
                    i = skip_char_literal(&b, i);
                    out.toks.push(Tok {
                        kind: TokKind::Literal,
                        text: String::new(),
                        line,
                    });
                }
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                while i < n && (is_ident_continue(b[i]) || b[i] == '.') {
                    // `0..10` — stop before a range so `..` stays punctuation.
                    if b[i] == '.' && i + 1 < n && b[i + 1] == '.' {
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
            _ if c.is_whitespace() => {
                i += 1;
            }
            _ => {
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Whether position `i` (at `r`/`b`/`c`) starts a prefixed string
/// literal (`r"`, `r#"`, `b"`, `br#"`, `c"`, …).
fn starts_string_prefix(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    // up to two prefix letters (br, rb) then optional #s then a quote
    let mut letters = 0;
    while j < n && matches!(b[j], 'r' | 'b' | 'c') && letters < 2 {
        j += 1;
        letters += 1;
    }
    let mut hashes = false;
    while j < n && b[j] == '#' {
        j += 1;
        hashes = true;
    }
    j < n && b[j] == '"' && (hashes || j > i)
}

/// Skips a char-ish literal starting at `i` (the opening quote):
/// `'x'`, `'\n'`, `'\''`, `'\u{7f}'`. Returns the index after the
/// closing quote.
fn skip_char_literal(b: &[char], mut i: usize) -> usize {
    let n = b.len();
    i += 1;
    if i < n && b[i] == '\\' {
        i += 1;
        if i < n {
            i += 1;
        }
        // \u{...}
        while i < n && b[i] != '\'' && b[i] != '\n' {
            i += 1;
        }
    } else if i < n {
        i += 1;
    }
    if i < n && b[i] == '\'' {
        i += 1;
    }
    i
}

/// Skips a plain `"…"` string starting at `i` (the opening quote);
/// returns the index after the closing quote, appending the inner text
/// (escapes left raw) to `content`.
fn skip_string(b: &[char], mut i: usize, line: &mut usize, content: &mut String) -> usize {
    let n = b.len();
    i += 1;
    while i < n {
        match b[i] {
            '\\' => {
                content.push(b[i]);
                if i + 1 < n {
                    content.push(b[i + 1]);
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                content.push('\n');
                i += 1;
            }
            c => {
                content.push(c);
                i += 1;
            }
        }
    }
    i
}

/// Skips a prefixed (and possibly raw) string starting at `i`; returns
/// the index after its closing delimiter, appending the inner text to
/// `content`.
fn skip_prefixed_string(b: &[char], mut i: usize, line: &mut usize, content: &mut String) -> usize {
    let n = b.len();
    let mut raw = false;
    while i < n && matches!(b[i], 'r' | 'b' | 'c') {
        if b[i] == 'r' {
            raw = true;
        }
        i += 1;
    }
    let mut hashes = 0usize;
    while i < n && b[i] == '#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || b[i] != '"' {
        return i;
    }
    if !raw && hashes == 0 {
        return skip_string(b, i, line, content);
    }
    i += 1;
    while i < n {
        if b[i] == '\n' {
            *line += 1;
            content.push('\n');
            i += 1;
            continue;
        }
        if b[i] == '"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < n && b[j] == '#' && seen < hashes {
                j += 1;
                seen += 1;
            }
            if seen == hashes {
                return j;
            }
        }
        if !raw && b[i] == '\\' {
            content.push(b[i]);
            i += 1;
        }
        if i < n {
            content.push(b[i]);
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_do_not_reach_tokens() {
        let l = lex("let x = 1; // unsafe in prose\n/* unsafe too */ let y;");
        assert!(!l.toks.iter().any(|t| t.is_ident("unsafe")));
        assert!(l.comment_on(1).contains("unsafe in prose"));
        assert!(l.comment_on(2).contains("unsafe too"));
    }

    #[test]
    fn strings_are_opaque_to_ident_matching() {
        let src = "let s = \"unsafe { }\"; let r = r#\"also unsafe\"# ;";
        let l = lex(src);
        // Nothing inside either literal tokenizes as an identifier.
        assert!(!l.toks.iter().any(|t| t.is_ident("unsafe")));
    }

    #[test]
    fn string_literals_keep_their_content() {
        let l = lex("matches!(name, \"HP\" | \"HE\")");
        let lits: Vec<&str> = l
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal && !t.text.is_empty())
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["HP", "HE"]);
        // …but content never satisfies identifier matching.
        assert!(!l.toks.iter().any(|t| t.is_ident("HP")));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let l = lex("'retry: loop { let c = 'x'; &*p }");
        assert!(l
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'retry"));
        let derefs: Vec<_> = l.toks.iter().filter(|t| t.is_punct('*')).collect();
        assert_eq!(derefs.len(), 1);
    }

    #[test]
    fn lines_are_tracked() {
        let l = lex("a\nb\nc");
        let lines: Vec<usize> = l.toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn nested_block_comment() {
        let l = lex("/* a /* b */ c */ fn f() {}");
        assert!(l.toks.iter().any(|t| t.is_ident("fn")));
        assert!(l.comment_on(1).contains('b'));
    }

    // ---- regression: edge cases that can desync rule matching ----

    #[test]
    fn double_slash_inside_string_is_not_a_comment() {
        // A URL in a string must neither open a comment (swallowing the
        // rest of the line) nor hide the real trailing comment.
        let l = lex("let url = \"https://example.com\"; x.store(1); // SAFETY: real");
        assert!(l.toks.iter().any(|t| t.is_ident("store")));
        assert!(l.comment_on(1).contains("SAFETY: real"));
        // And a SAFETY-shaped string must not spoof a comment.
        let l = lex("let fake = \"// SAFETY: spoofed\";\nunsafe_marker();");
        assert!(!l.comment_on(1).contains("SAFETY"));
    }

    #[test]
    fn raw_string_with_hashes_is_opaque_and_tracks_lines() {
        let src = "let re = r#\"multi\nline \" with quote\nand // slashes\"#;\nfn after() {}";
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.is_ident("line")));
        assert!(l.comment_on(3).is_empty(), "// inside raw string spoofed");
        let after = l.toks.iter().find(|t| t.is_ident("after")).unwrap();
        assert_eq!(after.line, 4, "raw string desynced line tracking");
        // The literal is stamped where it opens, not where it closes.
        let lit = l.toks.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert_eq!(lit.line, 1);
    }

    #[test]
    fn multiline_plain_string_is_stamped_at_its_opening_line() {
        let l = lex("let s = \"a\nb\";\nfn g() {}");
        let lit = l.toks.iter().find(|t| t.kind == TokKind::Literal).unwrap();
        assert_eq!(lit.line, 1, "multi-line string stamped at close line");
        let g = l.toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn nested_block_comment_hides_code_and_keeps_line_numbers() {
        let src = "/* outer /* unsafe { bad() } */ still comment\n*/\nfn real() {}";
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.is_ident("unsafe")));
        let real = l.toks.iter().find(|t| t.is_ident("real")).unwrap();
        assert_eq!(real.line, 3);
    }

    #[test]
    fn byte_char_literal_does_not_shed_a_stray_ident() {
        let l = lex("let nl = b'\\n'; let q = b'\"'; let sp = b' '; done();");
        assert!(
            !l.toks.iter().any(|t| t.is_ident("b")),
            "b'…' byte-char shed a stray `b` ident: {:?}",
            l.toks
        );
        assert!(l.toks.iter().any(|t| t.is_ident("done")));
    }

    #[test]
    fn quote_chars_do_not_open_strings() {
        // '"' and '\'' must not be mistaken for string openers.
        let l = lex("let a = '\"'; let b = '\\''; trailing(); // SAFETY: here");
        assert!(l.toks.iter().any(|t| t.is_ident("trailing")));
        assert!(l.comment_on(1).contains("SAFETY: here"));
    }

    #[test]
    fn escaped_backslash_then_comment() {
        let l = lex("let s = \"tail\\\\\"; x.load(); // LINT: visible");
        assert!(l.toks.iter().any(|t| t.is_ident("load")));
        assert!(l.comment_on(1).contains("LINT: visible"));
    }
}
