//! Structural view of one source file: function spans, `impl Smr`
//! blocks and struct declarations, recovered from the token stream by
//! brace matching — the minimum structure the rules need to reason
//! about dominance ("earlier in the same function") and coverage
//! ("somewhere in this impl block").

use crate::lexer::{lex, Lexed, Tok, TokKind};

/// One `fn` item (or closure-free method) with its body token span.
#[derive(Debug)]
pub struct FnSpan {
    /// Function name (`"fn"` token's following identifier).
    pub name: String,
    /// Line of the `fn` keyword.
    pub sig_line: usize,
    /// Declared `unsafe fn`.
    pub is_unsafe: bool,
    /// Token range of the body, `[open_brace, close_brace]` inclusive.
    pub body: (usize, usize),
    /// The doc comment block above the signature contains `# Safety`.
    pub doc_has_safety: bool,
    /// A well-formed `// LINT:` waiver ([`is_waiver`]) appears inside
    /// the body or directly above the signature.
    pub has_lint_waiver: bool,
}

/// One `impl Smr for …` block.
#[derive(Debug)]
pub struct ImplSmrSpan {
    /// The implementing type's name (best-effort: first identifier
    /// after `for`).
    pub self_ty: String,
    /// Line of the `impl` keyword.
    pub line: usize,
    /// Token range of the impl body, inclusive braces.
    pub body: (usize, usize),
}

/// One `struct` declaration.
#[derive(Debug)]
pub struct StructDecl {
    /// Struct name.
    pub name: String,
    /// Line of the `struct` keyword.
    pub line: usize,
    /// Public (`pub struct`).
    pub is_pub: bool,
    /// `#[must_use]` (with or without a message) among its attributes.
    pub has_must_use: bool,
}

/// Fully analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path label used in findings.
    pub path: String,
    /// Raw source lines (0-indexed storage; line N is `lines[N-1]`).
    pub lines: Vec<String>,
    /// Token/comment streams.
    pub lexed: Lexed,
    /// Function spans, in source order (outer before inner).
    pub fns: Vec<FnSpan>,
    /// `impl Smr for` blocks.
    pub impl_smrs: Vec<ImplSmrSpan>,
    /// Struct declarations.
    pub structs: Vec<StructDecl>,
}

impl SourceFile {
    /// Parses `text` into the structural model.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let fns = find_fns(&lexed, &lines);
        let impl_smrs = find_impl_smrs(&lexed.toks);
        let structs = find_structs(&lexed.toks, &lines);
        SourceFile {
            path: path.to_string(),
            lines,
            lexed,
            fns,
            impl_smrs,
            structs,
        }
    }

    /// The innermost function whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= idx && idx <= f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }

    /// Comment text on `line` (empty when none).
    pub fn comment_on(&self, line: usize) -> &str {
        self.lexed.comment_on(line)
    }

    /// Whether any comment in `[line-window, line]` (clamped) contains
    /// `needle`.
    pub fn comment_in_window(&self, line: usize, window: usize, needle: &str) -> bool {
        let lo = line.saturating_sub(window).max(1);
        (lo..=line).any(|l| self.comment_on(l).contains(needle))
    }

    /// Whether the doc/attribute block directly above `line` contains a
    /// `# Safety` heading — covers declarations that have no [`FnSpan`]
    /// (bodyless trait methods, `unsafe trait`s, fn-pointer type
    /// aliases).
    pub fn doc_above_has_safety(&self, line: usize) -> bool {
        doc_block_above(&self.lines, line).0
    }
}

/// The kinds a `// LINT:` waiver may name: protection established by
/// the caller's operation, a documented callers-must-be-quiescent
/// contract, or exclusive (`&mut`/unshared) access.
pub const WAIVER_KINDS: [&str; 3] = ["op-scoped", "quiescent", "exclusive"];

/// Whether `comment` is a waiver: a `//` comment whose text begins
/// `LINT: <kind> — <reason>`, with `<kind>` one of [`WAIVER_KINDS`] and
/// a non-empty reason. Anything else — prose that merely mentions
/// `LINT:`, a misspelled kind, a bare kind — waives nothing.
pub fn is_waiver(comment: &str) -> bool {
    let Some(rest) = comment.trim_start().strip_prefix("//") else {
        return false;
    };
    let Some(rest) = rest.trim_start().strip_prefix("LINT:") else {
        return false;
    };
    let rest = rest.trim_start();
    WAIVER_KINDS.iter().any(|kind| {
        rest.strip_prefix(kind)
            .and_then(|r| r.trim_start().strip_prefix('—'))
            .is_some_and(|reason| !reason.trim().is_empty())
    })
}

/// Index of the matching close brace for the open brace at `open`
/// (both in `toks`); `None` when unbalanced.
fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Scans the doc/attribute block directly above `sig_line` for a
/// `# Safety` heading, and for a `// LINT:` waiver ([`is_waiver`]).
fn doc_block_above(lines: &[String], sig_line: usize) -> (bool, bool) {
    let mut has_safety = false;
    let mut has_waiver = false;
    let mut l = sig_line.saturating_sub(1); // 1-based line above the signature
    while l >= 1 {
        let s = lines[l - 1].trim_start();
        if s.starts_with("///")
            || s.starts_with("//!")
            || s.starts_with("#[")
            || s.starts_with("//")
        {
            if s.contains("# Safety") {
                has_safety = true;
            }
            if is_waiver(s) {
                has_waiver = true;
            }
            l -= 1;
        } else {
            break;
        }
    }
    (has_safety, has_waiver)
}

fn find_fns(lexed: &Lexed, lines: &[String]) -> Vec<FnSpan> {
    let toks = &lexed.toks;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let sig_line = toks[i].line;
            // `unsafe fn` / `pub unsafe fn` / `pub(crate) const unsafe fn`
            let is_unsafe = toks[..i]
                .iter()
                .rev()
                .take(6)
                .take_while(|t| t.kind == TokKind::Ident || t.is_punct('(') || t.is_punct(')'))
                .any(|t| t.is_ident("unsafe"));
            // Find the body: first `{` before a `;` at bracket depth 0
            // (trait methods without bodies end in `;`).
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut paren = 0i32;
            let mut body = None;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    paren += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    paren -= 1;
                } else if t.is_punct(';') && paren <= 0 {
                    break; // bodyless declaration
                } else if t.is_punct('{') && paren <= 0 && angle <= 0 {
                    body = match_brace(toks, j).map(|close| (j, close));
                    break;
                }
                j += 1;
            }
            if let Some(body) = body {
                let (doc_has_safety, waiver_above) = doc_block_above(lines, sig_line);
                let body_waiver =
                    (toks[body.0].line..=toks[body.1].line).any(|l| is_waiver(lexed.comment_on(l)));
                out.push(FnSpan {
                    name,
                    sig_line,
                    is_unsafe,
                    body,
                    doc_has_safety,
                    has_lint_waiver: waiver_above || body_waiver,
                });
            }
        }
        i += 1;
    }
    out
}

fn find_impl_smrs(toks: &[Tok]) -> Vec<ImplSmrSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("impl") {
            // Walk to the opening `{`, remembering whether the trait
            // path's last segment before `for` is exactly `Smr`.
            let mut j = i + 1;
            let mut last_ident = String::new();
            let mut trait_is_smr = false;
            let mut self_ty = String::new();
            let mut saw_for = false;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                let t = &toks[j];
                if t.is_ident("for") {
                    trait_is_smr = last_ident == "Smr";
                    saw_for = true;
                } else if t.kind == TokKind::Ident {
                    if saw_for && self_ty.is_empty() {
                        self_ty = t.text.clone();
                    }
                    last_ident = t.text.clone();
                }
                j += 1;
            }
            if trait_is_smr && j < toks.len() && toks[j].is_punct('{') {
                if let Some(close) = match_brace(toks, j) {
                    out.push(ImplSmrSpan {
                        self_ty,
                        line: toks[i].line,
                        body: (j, close),
                    });
                    i = j; // fns inside still get scanned by find_fns
                }
            }
        }
        i += 1;
    }
    out
}

fn find_structs(toks: &[Tok], lines: &[String]) -> Vec<StructDecl> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("struct") && i + 1 < toks.len() && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            let is_pub = toks[..i]
                .iter()
                .rev()
                .take(5)
                .take_while(|t| t.kind == TokKind::Ident || t.is_punct('(') || t.is_punct(')'))
                .any(|t| t.is_ident("pub"));
            // Attributes sit on the lines above (and possibly the same
            // line): scan the contiguous attr/doc block.
            let mut has_must_use = lines
                .get(line - 1)
                .is_some_and(|l| l.contains("#[must_use"));
            let mut l = line.saturating_sub(1);
            while l >= 1 {
                let s = lines[l - 1].trim_start();
                if s.starts_with("#[") || s.starts_with("///") || s.starts_with("//") {
                    if s.contains("#[must_use") {
                        has_must_use = true;
                    }
                    l -= 1;
                } else {
                    break;
                }
            }
            out.push(StructDecl {
                name,
                line,
                is_pub,
                has_must_use,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_unsafe_flag() {
        let src = "pub unsafe fn f() { inner(); }\nfn g() -> u32 { 0 }\ntrait T { fn h(); }\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.fns.len(), 2, "bodyless h is skipped");
        assert!(f.fns[0].is_unsafe);
        assert_eq!(f.fns[0].name, "f");
        assert!(!f.fns[1].is_unsafe);
    }

    #[test]
    fn doc_safety_is_detected() {
        let src = "/// Does a thing.\n///\n/// # Safety\n///\n/// Caller promises.\npub unsafe fn f() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.fns[0].doc_has_safety);
    }

    #[test]
    fn impl_smr_detection() {
        let src = "impl<S: Smr> Smr for Chaos<S> { fn x() {} }\nimpl Smr for Ebr { }\nimpl Ebr { }\nimpl Display for Ebr {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.impl_smrs.len(), 2);
        assert_eq!(f.impl_smrs[0].self_ty, "Chaos");
        assert_eq!(f.impl_smrs[1].self_ty, "Ebr");
    }

    #[test]
    fn struct_must_use_attr() {
        let src = "#[must_use = \"drop releases the slot\"]\npub struct ACtx {}\nstruct Plain;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.structs[0].has_must_use);
        assert!(f.structs[0].is_pub);
        assert!(!f.structs[1].has_must_use);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "fn outer() { fn inner() { deref(); } }\n";
        let f = SourceFile::parse("t.rs", src);
        let idx = f
            .lexed
            .toks
            .iter()
            .position(|t| t.is_ident("deref"))
            .unwrap();
        assert_eq!(f.enclosing_fn(idx).unwrap().name, "inner");
    }

    #[test]
    fn waiver_must_name_its_kind_and_a_reason() {
        for kind in WAIVER_KINDS {
            assert!(
                is_waiver(&format!("// LINT: {kind} — the reason.")),
                "{kind}"
            );
            assert!(is_waiver(&format!("    //LINT:{kind}—reason")), "{kind}");
        }
        for not in [
            "// LINT: op-scope — misspelled kind",
            "// LINT: quiesent — misspelled kind",
            "// LINT: exclusive —",
            "// LINT: exclusive —   ",
            "// LINT: exclusive",
            "// LINT: exclusive - ascii hyphen is not the separator",
            "// nothing here is LINT: approved, this is prose",
            "/* LINT: op-scoped — block comments are not waivers */",
            "let s = \"// LINT: op-scoped — in code\";",
        ] {
            assert!(!is_waiver(not), "{not:?}");
        }
    }

    #[test]
    fn prose_mentioning_lint_waives_nothing() {
        let prose = "// nothing here is LINT: approved, this is prose\nfn f() {}\n";
        assert!(!SourceFile::parse("t.rs", prose).fns[0].has_lint_waiver);
        let inside = "fn f() {\n    // LINT: quiescent — snapshot API.\n}\n";
        assert!(SourceFile::parse("t.rs", inside).fns[0].has_lint_waiver);
    }

    #[test]
    fn generic_fn_body_found_despite_angle_brackets() {
        let src = "fn f<T: Ord>(x: T) -> Vec<T> where T: Clone { vec![x] }\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.fns.len(), 1);
    }
}
