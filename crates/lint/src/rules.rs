//! The seven era-lint rules.
//!
//! Each rule turns one piece of the repo's reviewed-by-convention
//! discipline into a machine-checked fact that neither rustc nor clippy
//! states. R2, R3 and R5 are *syntactic* approximations over the token
//! stream (DESIGN §3.10); R6/R7 run the flow-sensitive pointer
//! life-cycle pass ([`crate::flow`]) over each function body; R8 is a
//! **cross-file** pass over a whole check unit ([`check_unit`]) — the
//! fence-pairing graph (same section). R9, the ERA scheme-obligation
//! check, reads one scheme file at a time.

use std::collections::BTreeMap;

use crate::flow::{self, FlowKind};
use crate::lexer::TokKind;
use crate::model::SourceFile;

/// How many lines above an atomic write its `SAFETY(ordering)`
/// justification may sit (R2).
const WINDOW: usize = 8;

/// How many lines below a `PAIRS(…)` annotation its sync site may sit
/// (R8) — wider than [`WINDOW`] because ordering justifications run to
/// full paragraphs.
const PAIR_WINDOW: usize = 16;

/// The rules, in stable report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R2: atomic writes carry a `SAFETY(ordering)` justification
    /// (non-SeqCst everywhere; *all* writes inside `crates/smr`, where
    /// a SeqCst site must name its fence-pairing partner).
    OrderingJustification,
    /// R3: raw derefs in `crates/ds` are dominated by a protect call.
    ProtectBeforeDeref,
    /// R5: guard types (`*Ctx`, `*Handle`, `*Guard`) are `#[must_use]`.
    GuardMustUse,
    /// R6: a protected pointer must not outlive (or be returned past)
    /// its guard's scope — flow-sensitive.
    GuardEscape,
    /// R7: no deref or re-protect of a value after it flows into
    /// `retire` (incl. deref after `drop(guard)`) — flow-sensitive.
    UseAfterRetire,
    /// R8: `PAIRS(name)` fence-pairing annotations form a cross-file
    /// graph; every tag has ≥2 endpoints, each on a real sync site.
    FencePairing,
    /// R9: every `impl Smr` declares its ERA class in an
    /// `// ERA-CLASS:` header whose claim matches the implementation's
    /// structure.
    SchemeObligation,
}

impl Rule {
    /// All rules, report order.
    pub const ALL: [Rule; 7] = [
        Rule::OrderingJustification,
        Rule::ProtectBeforeDeref,
        Rule::GuardMustUse,
        Rule::GuardEscape,
        Rule::UseAfterRetire,
        Rule::FencePairing,
        Rule::SchemeObligation,
    ];

    /// Stable identifier (used in the findings table and fixture headers).
    pub fn id(self) -> &'static str {
        match self {
            Rule::OrderingJustification => "R2-ordering-justification",
            Rule::ProtectBeforeDeref => "R3-protect-before-deref",
            Rule::GuardMustUse => "R5-guard-must-use",
            Rule::GuardEscape => "R6-guard-escape",
            Rule::UseAfterRetire => "R7-use-after-retire",
            Rule::FencePairing => "R8-fence-pairing",
            Rule::SchemeObligation => "R9-scheme-obligation",
        }
    }

    /// One-line description for `era-lint rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::OrderingJustification => {
                "atomic stores/RMWs carry SAFETY(ordering): non-SeqCst everywhere; all writes in crates/smr"
            }
            Rule::ProtectBeforeDeref => {
                "in crates/ds, raw derefs are dominated by protect/begin_op (waive with // LINT: op-scoped)"
            }
            Rule::GuardMustUse => "guard types (*Ctx, *Handle, *Guard) are #[must_use]",
            Rule::GuardEscape => {
                "flow: a protected pointer must not outlive or be returned past its guard's scope"
            }
            Rule::UseAfterRetire => {
                "flow: no deref or re-protect after a value flows into retire (or its guard drops)"
            }
            Rule::FencePairing => {
                "PAIRS(name) fence annotations pair up across files, each on a real fence/atomic site"
            }
            Rule::SchemeObligation => {
                "every impl Smr declares // ERA-CLASS: and its robustness claim matches its structure"
            }
        }
    }

    /// Parses `"R2"`, `"r3"`, `"R2-ordering-justification"` or the
    /// bare slug.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim().to_ascii_lowercase();
        Rule::ALL.iter().copied().find(|r| {
            let id = r.id().to_ascii_lowercase();
            id == s || id.starts_with(&format!("{s}-")) || id[3..] == s
        })
    }
}

/// Rule scoping: `Auto` derives each rule's applicability from the
/// file's workspace path; `All` applies every rule (used by the
/// fixture harness, whose files live outside the scoped trees).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Path-based applicability (workspace checks).
    Auto,
    /// Every rule applies (fixtures).
    All,
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

/// Trees where the R6/R7 life-cycle pass applies under [`Scope::Auto`]:
/// the protocol *users*. `crates/smr` itself is exempt — the schemes
/// implement `load`/`protect`/`retire`, they don't call them through a
/// guard.
const FLOW_SCOPED: [&str; 4] = [
    "crates/ds/",
    "crates/kv/",
    "crates/net/",
    "crates/scenarios/",
];

/// Runs every rule against one parsed file (a single-file check unit:
/// the cross-file rule R8 sees only this file).
pub fn check_file(file: &SourceFile, scope: Scope) -> Vec<Finding> {
    check_unit(std::slice::from_ref(file), scope)
}

/// Runs every rule against a check unit: the per-file rules R2, R3,
/// R5–R7 and R9, then the cross-file R8 fence-pairing graph over the
/// whole unit at once.
pub fn check_unit(files: &[SourceFile], scope: Scope) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        r2_ordering(file, scope, &mut out);
        if scope == Scope::All || file.path.contains("crates/ds/") {
            r3_protect_before_deref(file, &mut out);
        }
        r5_guard_must_use(file, &mut out);
        if scope == Scope::All || FLOW_SCOPED.iter().any(|p| file.path.contains(p)) {
            r6_r7_lifecycle(file, &mut out);
        }
        if scope == Scope::All || file.path.contains("crates/smr/") {
            r9_scheme_obligation(file, &mut out);
        }
    }
    r8_fence_pairing(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

fn finding(file: &SourceFile, rule: Rule, line: usize, message: impl Into<String>) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line,
        message: message.into(),
    }
}

/// Atomic write methods R2 inspects.
const WRITE_METHODS: [&str; 13] = [
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
];

/// R2 — atomic store/RMW sites. A call is "atomic" when its argument
/// list names `Ordering::…`; sites passing orderings through variables
/// are invisible (documented false negative).
fn r2_ordering(file: &SourceFile, scope: Scope, out: &mut Vec<Finding>) {
    let toks = &file.lexed.toks;
    let smr_scoped = scope == Scope::All || file.path.contains("crates/smr/");
    for i in 0..toks.len() {
        if !(toks[i].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && WRITE_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('('))
        {
            continue;
        }
        // Scan the argument list for Ordering::X tokens.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut orderings: Vec<&str> = Vec::new();
        let mut end_line = toks[i].line;
        while j < toks.len() {
            let t = &toks[j];
            end_line = t.line;
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("Ordering")
                && j + 3 < toks.len()
                && toks[j + 1].is_punct(':')
                && toks[j + 2].is_punct(':')
                && toks[j + 3].kind == TokKind::Ident
            {
                orderings.push(toks[j + 3].text.as_str());
            }
            j += 1;
        }
        if orderings.is_empty() {
            continue; // not an atomic call (or indirect orderings)
        }
        let site_line = toks[i].line;
        let lo = site_line.saturating_sub(WINDOW).max(1);
        let justified = (lo..=end_line).any(|l| file.comment_on(l).contains("SAFETY(ordering)"));
        if justified {
            continue;
        }
        let method = toks[i + 1].text.as_str();
        if orderings.iter().any(|o| *o != "SeqCst") {
            out.push(finding(
                file,
                Rule::OrderingJustification,
                site_line,
                format!(
                    "non-SeqCst atomic `{method}` ({}) without a SAFETY(ordering) justification",
                    orderings.join("/")
                ),
            ));
        } else if smr_scoped {
            out.push(finding(
                file,
                Rule::OrderingJustification,
                site_line,
                format!(
                    "SeqCst atomic `{method}` in era-smr without a SAFETY(ordering) note naming \
                     its fence-pairing partner"
                ),
            ));
        }
    }
}

/// Calls that establish protection for subsequent derefs.
fn is_protect_call(file: &SourceFile, idx: usize) -> bool {
    let toks = &file.lexed.toks;
    let t = &toks[idx];
    if t.kind != TokKind::Ident {
        return false;
    }
    match t.text.as_str() {
        "begin_op" | "enter_read_phase" | "protect_alias" | "protect" | "try_protect" => {
            idx + 1 < toks.len() && toks[idx + 1].is_punct('(')
        }
        // `smr.load(ctx, …)` / `smr.load(&mut guard, …)` — the
        // protected load; distinguished from plain atomic loads by its
        // context/guard first argument (plain loads start with
        // `Ordering::…`).
        "load" => {
            idx + 2 < toks.len()
                && toks[idx + 1].is_punct('(')
                && (toks[idx + 2].is_ident("ctx") || toks[idx + 2].is_punct('&'))
        }
        _ => false,
    }
}

/// Raw-deref token patterns: `&*p`, `&mut *p`, `(*p).field`.
fn deref_at(file: &SourceFile, idx: usize) -> bool {
    let toks = &file.lexed.toks;
    let star_ident = |k: usize| {
        k + 1 < toks.len() && toks[k].is_punct('*') && toks[k + 1].kind == TokKind::Ident
    };
    if toks[idx].is_punct('&') {
        if star_ident(idx + 1) {
            return true; // &*p
        }
        if idx + 1 < toks.len() && toks[idx + 1].is_ident("mut") && star_ident(idx + 2) {
            return true; // &mut *p
        }
    }
    // (*p).field
    toks[idx].is_punct('(')
        && star_ident(idx + 1)
        && idx + 3 < toks.len()
        && toks[idx + 3].is_punct(')')
        && idx + 4 < toks.len()
        && toks[idx + 4].is_punct('.')
}

/// R3 — within each safe fn in `crates/ds`, the first raw deref must
/// come after a protect-establishing call. `unsafe fn`s are exempt
/// (their contract is the caller's, stated in their `# Safety` doc); `// LINT:`
/// waivers exempt the fn (op-scoped protection established by the
/// caller, quiescent snapshots, exclusive `Drop` access).
fn r3_protect_before_deref(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in &file.fns {
        if f.is_unsafe || f.has_lint_waiver {
            continue;
        }
        let (lo, hi) = f.body;
        let dominator = (lo..=hi).find(|&i| is_protect_call(file, i));
        for i in lo..=hi {
            if deref_at(file, i) {
                if dominator.is_none_or(|d| d > i) {
                    out.push(finding(
                        file,
                        Rule::ProtectBeforeDeref,
                        file.lexed.toks[i].line,
                        format!(
                            "raw deref in `{}` not dominated by protect/begin_op \
                             (waive with // LINT: op-scoped if protection is the caller's)",
                            f.name
                        ),
                    ));
                }
                break; // one finding per fn keeps the report readable
            }
        }
    }
}

/// R5 — public guard types must be `#[must_use]`: silently dropping a
/// `Ctx` releases its slot and orphans its garbage; dropping a pinned
/// handle voids its protection.
fn r5_guard_must_use(file: &SourceFile, out: &mut Vec<Finding>) {
    for s in &file.structs {
        let guardish =
            s.name.ends_with("Ctx") || s.name.ends_with("Handle") || s.name.ends_with("Guard");
        if guardish && s.is_pub && !s.has_must_use {
            out.push(finding(
                file,
                Rule::GuardMustUse,
                s.line,
                format!("guard type `{}` is not #[must_use]", s.name),
            ));
        }
    }
}

/// R6/R7 — the flow-sensitive pointer life-cycle pass, one run per
/// function body. `// LINT:` waivers exempt the fn (same escape hatch
/// as R3 — protection scoping the analysis cannot see).
fn r6_r7_lifecycle(file: &SourceFile, out: &mut Vec<Finding>) {
    for f in &file.fns {
        if f.has_lint_waiver {
            continue;
        }
        for issue in flow::analyze_body(&file.lexed.toks, f.body) {
            let rule = match issue.kind {
                FlowKind::GuardEscape => Rule::GuardEscape,
                FlowKind::UseAfterRetire => Rule::UseAfterRetire,
            };
            out.push(finding(
                file,
                rule,
                issue.line,
                format!("in `{}`: {}", f.name, issue.message),
            ));
        }
    }
}

/// R8 — the fence-pairing graph. A `SAFETY(ordering)` comment line
/// that also carries a machine-readable partner tag — the word
/// `PAIRS` followed by the tag name in parentheses — is one endpoint
/// of that pairing. Only ordering-note lines are read, so prose
/// mentions of the tag syntax are inert (this doc comment keeps the
/// two halves on separate lines for exactly that reason). Across the
/// whole check unit, every tag must have ≥2 endpoints — both sides of
/// the handshake annotated, in whatever files they live — and every
/// endpoint must sit on a real sync site (a `fence(…)` call or an
/// atomic load/store/RMW within [`PAIR_WINDOW`] lines below the
/// annotation — wider than [`WINDOW`] because ordering justifications
/// run to full paragraphs).
fn r8_fence_pairing(files: &[SourceFile], out: &mut Vec<Finding>) {
    struct Site {
        file: usize,
        line: usize,
        on_sync: bool,
    }
    let mut graph: BTreeMap<String, Vec<Site>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        // Lines carrying a real sync token in this file.
        let toks = &file.lexed.toks;
        let mut sync_lines: Vec<usize> = Vec::new();
        for i in 0..toks.len() {
            let is_fence =
                toks[i].is_ident("fence") && toks.get(i + 1).is_some_and(|t| t.is_punct('('));
            let is_atomic_method = toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident
                        && (WRITE_METHODS.contains(&t.text.as_str()) || t.text == "load")
                })
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('));
            if is_fence || is_atomic_method {
                sync_lines.push(toks[i].line);
            }
        }
        for (line, c) in file.lexed.comments.iter().enumerate() {
            if !c.text.contains("SAFETY(ordering)") {
                continue;
            }
            let mut rest = c.text.as_str();
            while let Some(pos) = rest.find("PAIRS(") {
                rest = &rest[pos + "PAIRS(".len()..];
                let Some(end) = rest.find(')') else { break };
                let tag = rest[..end].trim().to_string();
                rest = &rest[end + 1..];
                if tag.is_empty() {
                    continue;
                }
                let on_sync = sync_lines
                    .iter()
                    .any(|&sl| sl >= line && sl <= line + PAIR_WINDOW);
                graph.entry(tag).or_default().push(Site {
                    file: fi,
                    line,
                    on_sync,
                });
            }
        }
    }
    for (tag, sites) in &graph {
        for s in sites {
            if !s.on_sync {
                out.push(finding(
                    &files[s.file],
                    Rule::FencePairing,
                    s.line,
                    format!(
                        "PAIRS({tag}) annotation is not attached to a sync site \
                         (no fence/atomic call within {PAIR_WINDOW} lines below it)"
                    ),
                ));
            }
        }
        if sites.len() < 2 {
            let s = &sites[0];
            out.push(finding(
                &files[s.file],
                Rule::FencePairing,
                s.line,
                format!(
                    "fence pairing `{tag}` has only this endpoint — its partner is \
                     missing or its annotation rotted"
                ),
            ));
        }
    }
}

/// R9 — scheme-obligation check. Every file containing an `impl Smr`
/// (under `crates/smr/` in [`Scope::Auto`]; everywhere under
/// [`Scope::All`]) must carry a machine-readable header comment
///
/// ```text
/// // ERA-CLASS: <Name> <robust|weakly-robust|non-robust>
/// ```
///
/// and the claim must match the implementation's structure: a robust
/// or weakly robust scheme (bounded trapped memory, Defs. 5.1–5.2)
/// must contain a bounded-scan reclaim path (a `*threshold*` knob plus
/// a `*scan*`/`*reclaim*` routine); a non-robust one must not advertise
/// a bound (no `*bound*` function). That the header names the class
/// era-smr's scheme registry holds is checked next to the registry, by
/// its own tests.
fn r9_scheme_obligation(file: &SourceFile, out: &mut Vec<Finding>) {
    let Some(&impl_line) = file.impl_smr_lines.first() else {
        return;
    };
    let header = file
        .lexed
        .comments
        .iter()
        .enumerate()
        .find_map(|(line, c)| {
            c.text
                .find("ERA-CLASS:")
                .map(|pos| (line, c.text[pos + "ERA-CLASS:".len()..].to_string()))
        });
    let Some((header_line, rest)) = header else {
        out.push(finding(
            file,
            Rule::SchemeObligation,
            impl_line,
            "file contains an `impl Smr` but no machine-readable \
             `// ERA-CLASS: <Name> <robust|weakly-robust|non-robust>` header",
        ));
        return;
    };
    let mut words = rest.split_whitespace();
    let name = words.next().unwrap_or("");
    match words.next().unwrap_or("") {
        class @ ("robust" | "weakly-robust") => {
            // Defs. 5.1–5.2 structural witness: a reclamation path that
            // scans a bounded set, gated by a threshold.
            let has_threshold = file
                .lexed
                .toks
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.contains("threshold"));
            let has_scan = file.lexed.toks.iter().any(|t| {
                t.kind == TokKind::Ident && (t.text.contains("scan") || t.text.contains("reclaim"))
            });
            if !(has_threshold && has_scan) {
                out.push(finding(
                    file,
                    Rule::SchemeObligation,
                    header_line,
                    format!(
                        "`{name}` claims {class} but shows no bounded-scan reclaim path \
                         (need a *threshold* knob and a *scan*/*reclaim* routine)"
                    ),
                ));
            }
        }
        "non-robust" => {
            // A non-robust scheme advertising a bound is the ERA
            // theorem violated in the API.
            if let Some(f) = file.fns.iter().find(|f| f.name.contains("bound")) {
                out.push(finding(
                    file,
                    Rule::SchemeObligation,
                    f.sig_line,
                    format!(
                        "`{name}` declares non-robust but exposes `{}` — a non-robust \
                         scheme must not claim a trapped-memory bound",
                        f.name
                    ),
                ));
            }
        }
        _ => out.push(finding(
            file,
            Rule::SchemeObligation,
            header_line,
            format!(
                "malformed ERA-CLASS header: want \
                 `<Name> <robust|weakly-robust|non-robust>`, got `{}`",
                rest.trim()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src), Scope::All)
    }

    fn rules_of(f: &[Finding]) -> Vec<Rule> {
        let mut v: Vec<Rule> = f.iter().map(|x| x.rule).collect();
        v.dedup();
        v
    }

    #[test]
    fn rule_parse_accepts_aliases() {
        assert_eq!(Rule::parse("R5"), Some(Rule::GuardMustUse));
        assert_eq!(Rule::parse("r3"), Some(Rule::ProtectBeforeDeref));
        assert_eq!(
            Rule::parse("R2-ordering-justification"),
            Some(Rule::OrderingJustification)
        );
        assert_eq!(Rule::parse("guard-must-use"), Some(Rule::GuardMustUse));
        assert_eq!(Rule::parse("bogus"), None);
    }

    #[test]
    fn r2_relaxed_needs_justification() {
        let bad = run("a.rs", "fn f(a: &A) { a.store(1, Ordering::Relaxed); }");
        assert_eq!(rules_of(&bad), vec![Rule::OrderingJustification]);
        let good = run(
            "a.rs",
            "fn f(a: &A) {\n    // SAFETY(ordering): private counter, no ordering needed.\n    a.store(1, Ordering::Relaxed);\n}",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r2_seqcst_scoped_to_smr() {
        let src = "fn f(a: &A) { a.store(1, Ordering::SeqCst); }";
        let auto = check_file(&SourceFile::parse("crates/kv/src/x.rs", src), Scope::Auto);
        assert!(auto.is_empty(), "SeqCst outside smr is free: {auto:?}");
        let smr = check_file(&SourceFile::parse("crates/smr/src/x.rs", src), Scope::Auto);
        assert_eq!(rules_of(&smr), vec![Rule::OrderingJustification]);
    }

    #[test]
    fn r2_loads_are_exempt() {
        assert!(run("a.rs", "fn f(a: &A) { a.load(Ordering::Relaxed); }").is_empty());
    }

    #[test]
    fn r3_deref_needs_dominating_protect() {
        let bad = "fn walk(ctx: &mut C) {\n    // SAFETY: pinned.\n    let k = unsafe { (*node).key };\n}";
        let f = check_file(&SourceFile::parse("crates/ds/src/x.rs", bad), Scope::Auto);
        assert_eq!(rules_of(&f), vec![Rule::ProtectBeforeDeref]);
        let good = "fn walk(&self, ctx: &mut C) {\n    self.smr.begin_op(ctx);\n    // SAFETY: pinned by begin_op.\n    let k = unsafe { (*node).key };\n}";
        let f = check_file(&SourceFile::parse("crates/ds/src/x.rs", good), Scope::Auto);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r3_waiver_and_unsafe_fn_exempt() {
        let waived = "// LINT: op-scoped — protection is the caller's begin_op.\nfn walk() {\n    // SAFETY: caller pinned.\n    let k = unsafe { (*node).key };\n}";
        let f = check_file(
            &SourceFile::parse("crates/ds/src/x.rs", waived),
            Scope::Auto,
        );
        assert!(f.is_empty(), "{f:?}");
        let un = "/// # Safety\n/// Caller owns node.\nunsafe fn free(node: *mut N) {\n    let k = unsafe { (*node).key };\n}";
        let f = check_file(&SourceFile::parse("crates/ds/src/x.rs", un), Scope::Auto);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r3_protected_load_call_dominates() {
        let src = "fn find(&self, ctx: &mut C) {\n    // SAFETY: head is always valid.\n    let w = self.smr.load(ctx, 0, unsafe { &*prev });\n}";
        let f = check_file(&SourceFile::parse("crates/ds/src/x.rs", src), Scope::Auto);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r6_guard_escape_fires_via_flow() {
        let src = "fn f(list: &L) {\n    let p;\n    {\n        let mut g = list.smr.register().unwrap();\n        p = list.smr.load(&mut g, 0, &list.head);\n    }\n    // SAFETY: (wrongly) assumed pinned.\n    let k = unsafe { (*p).key };\n}";
        let f = run("a.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::GuardEscape], "{f:?}");
    }

    #[test]
    fn r7_use_after_retire_fires_via_flow() {
        let src = "fn f(list: &L, ctx: &mut C) {\n    let p = list.smr.load(ctx, 0, &list.head);\n    // SAFETY: p was protected by the load above.\n    unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) };\n    // SAFETY: stale claim.\n    let k = unsafe { (*p).key };\n}";
        let f = run("a.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::UseAfterRetire], "{f:?}");
    }

    #[test]
    fn r6_r7_scoped_to_protocol_users() {
        let src = "fn f(list: &L, ctx: &mut C) {\n    let p = list.smr.load(ctx, 0, &list.head);\n    // SAFETY: stale.\n    unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) };\n    // SAFETY: stale.\n    let k = unsafe { (*p).key };\n}";
        let smr = check_file(&SourceFile::parse("crates/smr/src/x.rs", src), Scope::Auto);
        assert!(
            !smr.iter().any(|f| f.rule == Rule::UseAfterRetire),
            "smr internals are exempt: {smr:?}"
        );
        let ds = check_file(&SourceFile::parse("crates/ds/src/x.rs", src), Scope::Auto);
        assert!(ds.iter().any(|f| f.rule == Rule::UseAfterRetire), "{ds:?}");
    }

    #[test]
    fn r6_r7_lint_waiver_exempts_fn() {
        let src = "// LINT: op-scoped — guard identity is managed by the pool.\nfn f(list: &L, ctx: &mut C) {\n    let p = list.smr.load(ctx, 0, &list.head);\n    // SAFETY: pool keeps it live.\n    unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) };\n    // SAFETY: pool keeps it live.\n    let k = unsafe { (*p).key };\n}";
        let f = check_file(&SourceFile::parse("crates/ds/src/x.rs", src), Scope::Auto);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r8_lone_pair_tag_fires_and_partner_satisfies() {
        let lone = "fn f() {\n    // SAFETY(ordering): PAIRS(retire-handshake) partner below.\n    fence(Ordering::SeqCst);\n}";
        let f = run("a.rs", lone);
        assert_eq!(rules_of(&f), vec![Rule::FencePairing], "{f:?}");
        // Two endpoints in *different files* of the same unit: clean.
        let a = SourceFile::parse("a.rs", lone);
        let b = SourceFile::parse(
            "b.rs",
            "fn g() {\n    // SAFETY(ordering): PAIRS(retire-handshake) partner in a.rs.\n    fence(Ordering::SeqCst);\n}",
        );
        let f = check_unit(&[a, b], Scope::All);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r8_annotation_must_sit_on_a_sync_site() {
        // Enough filler lines to keep the detached annotation outside
        // the PAIR_WINDOW of the real fence below.
        let filler = "fn pad() { let x = 1; }\n".repeat(PAIR_WINDOW + 4);
        let src = format!(
            "// SAFETY(ordering): PAIRS(ghost) nowhere near a fence.\n{filler}fn g() {{\n    // SAFETY(ordering): PAIRS(ghost) partner is real.\n    fence(Ordering::SeqCst);\n}}"
        );
        let f = run("a.rs", &src);
        assert_eq!(rules_of(&f), vec![Rule::FencePairing]);
        assert_eq!(f.len(), 1, "only the detached endpoint fires: {f:?}");
        assert!(f[0].message.contains("not attached"), "{f:?}");
    }

    #[test]
    fn r8_prose_mentions_without_ordering_tag_are_inert() {
        let f = run(
            "a.rs",
            "/// Docs explaining the PAIRS(name) syntax.\nfn f() {}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn r9_missing_and_malformed_headers_fire() {
        let missing = "impl Smr for Foo {\n    fn begin_op(&self) { self.inner.begin_op(ctx) }\n    fn retire(&self) { self.inner.retire(ctx) }\n}";
        let f = run("a.rs", missing);
        assert_eq!(rules_of(&f), vec![Rule::SchemeObligation], "{f:?}");
        let malformed = format!("// ERA-CLASS: Foo sorta-robust\n{missing}");
        let f = run("a.rs", &malformed);
        assert_eq!(rules_of(&f), vec![Rule::SchemeObligation], "{f:?}");
        let good = format!("// ERA-CLASS: Foo non-robust\n{missing}");
        assert!(run("a.rs", &good).is_empty());
    }

    #[test]
    fn r9_robust_claim_needs_bounded_scan_path() {
        let base = "impl Smr for Foo {\n    fn begin_op(&self) { self.inner.begin_op(ctx) }\n    fn retire(&self) { self.inner.retire(ctx) }\n}";
        for class in ["robust", "weakly-robust"] {
            let bare = format!("// ERA-CLASS: Foo {class}\n{base}");
            let f = run("a.rs", &bare);
            assert_eq!(rules_of(&f), vec![Rule::SchemeObligation], "{f:?}");
            assert!(f[0].message.contains(class), "{f:?}");
            let witnessed = format!(
                "// ERA-CLASS: Foo {class}\nconst scan_threshold: usize = 64;\nfn scan_and_reclaim() {{}}\n{base}"
            );
            assert!(run("a.rs", &witnessed).is_empty(), "{class}");
        }
    }

    #[test]
    fn r9_non_robust_must_not_claim_a_bound() {
        let src = "// ERA-CLASS: Foo non-robust\nimpl Smr for Foo {\n    fn begin_op(&self) { self.inner.begin_op(ctx) }\n    fn retire(&self) { self.inner.retire(ctx) }\n}\npub fn robustness_bound() -> usize { 64 }";
        let f = run("a.rs", src);
        assert_eq!(rules_of(&f), vec![Rule::SchemeObligation], "{f:?}");
        assert!(f[0].message.contains("robustness_bound"), "{f:?}");
    }

    #[test]
    fn r5_guard_types_must_use() {
        let bad = run("a.rs", "pub struct FooCtx { x: u32 }");
        assert_eq!(rules_of(&bad), vec![Rule::GuardMustUse]);
        assert!(run("a.rs", "#[must_use]\npub struct FooCtx { x: u32 }").is_empty());
        assert!(
            run("a.rs", "struct PrivCtx;").is_empty(),
            "private types are the file's own business"
        );
        assert!(run("a.rs", "pub struct Store;").is_empty());
    }
}
