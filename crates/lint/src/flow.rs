//! The pointer life-cycle dataflow pass (rules R6/R7).
//!
//! Meyer & Wolff's pointer life-cycle types observation, reduced to a
//! linter: each local raw pointer moves through a small state machine —
//! `unprotected → protected(guard) → deref-ok → retired` — and the SMR
//! discipline is exactly the claim that derefs happen only in the
//! `protected` window and nothing touches a value after it flows into
//! `retire`. This pass walks each function's token tree
//! ([`crate::parser`]) with a scope stack (the CFG-lite model: blocks
//! are scopes, statements are `;`-separated leaf runs, branches are
//! walked in source order) and tracks:
//!
//! * **guards** — locals bound from a `register()` call. A guard dies
//!   at its scope's closing brace or at an explicit `drop(guard)`.
//! * **protected pointers** — locals bound from `load(guard, …)`,
//!   `protect(…)`, `try_protect(…)` or `protect_alias(…)`. Each
//!   remembers which *local* guard (if any) protects it; pointers
//!   protected through a caller-owned context (`ctx` parameters) are
//!   "ambient" and exempt from escape checks — their guard outlives
//!   this function by construction.
//! * **retired pointers** — tracked locals that flowed into a
//!   `retire(…)` argument list. The state flips *after* the call's
//!   argument group is walked, so `retire(ctx, p as *mut u8,
//!   &(*p).header, …)` does not self-report.
//!
//! Detected misuses:
//!
//! * deref (`&*p`, `&mut *p`, `(*p).f`, statement-position `*p`) of a
//!   retired pointer, or re-protecting one — **R7 use-after-retire**;
//! * deref after the protecting guard was `drop`ped — **R7**;
//! * deref after the protecting guard's scope closed, or `return`ing a
//!   pointer whose local guard does not escape with it — **R6
//!   guard-escape**.
//!
//! Known false-negative envelope (documented in DESIGN §3.10): one
//! forward pass, so loop-carried orders (`retire` at the bottom
//! reaching a deref at the top of the next iteration) and trailing-
//! expression returns are not seen; stores of protected pointers into
//! longer-lived structures are not tracked. Branches are walked in
//! source order, so a retire in an early `match` arm conservatively
//! poisons later arms — in practice retires sit at the end of their
//! arm and real code stays quiet (the workspace runs at zero
//! findings).

use std::collections::{BTreeSet, HashMap};

use crate::lexer::{Tok, TokKind};
use crate::parser::{parse_range, Group, Tree};

/// Which rule a flow issue belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// R6: a protected pointer outlived its guard's scope.
    GuardEscape,
    /// R7: a value was derefed or re-protected after retire/guard-drop.
    UseAfterRetire,
}

/// One issue from the life-cycle pass.
#[derive(Debug)]
pub struct FlowIssue {
    /// Rule bucket.
    pub kind: FlowKind,
    /// 1-based line of the offending use.
    pub line: usize,
    /// Human-readable explanation (names the local and the event that
    /// invalidated it).
    pub message: String,
}

/// Calls that bind a guard when they appear in a `let` initializer.
const GUARD_FNS: [&str; 1] = ["register"];

/// Calls that put a pointer into the protected state.
const PROTECT_FNS: [&str; 4] = ["load", "protect", "try_protect", "protect_alias"];

/// How a guard became unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardEnd {
    Dropped,
    ScopeEnd,
}

#[derive(Debug, Clone)]
enum Binding {
    Guard,
    Ptr(PtrState),
    Other,
}

#[derive(Debug, Clone, Default)]
struct PtrState {
    /// Name of the protecting *local* guard; `None` = ambient
    /// (caller-owned context parameter).
    guard: Option<String>,
    /// Set when the protecting guard died: (line, how).
    guard_end: Option<(usize, GuardEnd)>,
    /// Set when the pointer flowed into `retire`: line of the call.
    retired: Option<usize>,
}

struct Analyzer<'a> {
    toks: &'a [Tok],
    scopes: Vec<HashMap<String, Binding>>,
    issues: Vec<FlowIssue>,
    /// (local name, issue discriminant) pairs already reported — one
    /// finding per local per failure mode keeps reports readable.
    reported: BTreeSet<(String, u8)>,
}

/// Runs the life-cycle pass over one function body (inclusive token
/// range covering the braces).
pub fn analyze_body(toks: &[Tok], body: (usize, usize)) -> Vec<FlowIssue> {
    let trees = parse_range(toks, body.0, body.1);
    let mut a = Analyzer {
        toks,
        scopes: Vec::new(),
        issues: Vec::new(),
        reported: BTreeSet::new(),
    };
    a.walk_seq(&trees);
    a.issues
}

impl<'a> Analyzer<'a> {
    fn tok(&self, tree: &Tree) -> Option<&'a Tok> {
        tree.leaf().map(|i| &self.toks[i])
    }

    fn lookup(&mut self, name: &str) -> Option<&mut Binding> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    fn bind(&mut self, name: &str, b: Binding) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), b);
        }
    }

    fn report(&mut self, name: &str, disc: u8, kind: FlowKind, line: usize, message: String) {
        if self.reported.insert((name.to_string(), disc)) {
            self.issues.push(FlowIssue {
                kind,
                line,
                message,
            });
        }
    }

    /// Marks every tracked pointer protected by `guard` as orphaned.
    fn end_guard(&mut self, guard: &str, line: usize, how: GuardEnd) {
        for scope in &mut self.scopes {
            for b in scope.values_mut() {
                if let Binding::Ptr(p) = b {
                    if p.guard.as_deref() == Some(guard) && p.guard_end.is_none() {
                        p.guard_end = Some((line, how));
                    }
                }
            }
        }
    }

    /// Walks a `{}` group as a scope.
    fn walk_block(&mut self, g: &Group) {
        self.scopes.push(HashMap::new());
        self.walk_seq(&g.children);
        let popped = self.scopes.pop().unwrap_or_default();
        let close_line = self.toks[g.close.min(self.toks.len() - 1)].line;
        for (name, b) in popped {
            if matches!(b, Binding::Guard) {
                self.end_guard(&name, close_line, GuardEnd::ScopeEnd);
            }
        }
    }

    /// The statement/expression walker: one pass over a sibling
    /// sequence, recognizing `let`, assignments, `return`, the
    /// retire/protect/drop call families, deref patterns, and nested
    /// groups.
    fn walk_seq(&mut self, trees: &[Tree]) {
        let mut i = 0;
        while i < trees.len() {
            // Nested `fn` items are analyzed as their own FnSpans —
            // skip them here so their issues are not double-reported.
            if self.tok(&trees[i]).is_some_and(|t| t.is_ident("fn")) {
                i = self.skip_fn_item(trees, i);
                continue;
            }
            if self.tok(&trees[i]).is_some_and(|t| t.is_ident("let")) {
                i = self.handle_let(trees, i);
                continue;
            }
            if self.tok(&trees[i]).is_some_and(|t| t.is_ident("return")) {
                i = self.handle_return(trees, i);
                continue;
            }
            if let Some(ni) = self.try_assignment(trees, i) {
                i = ni;
                continue;
            }
            i = self.walk_one(trees, i);
        }
    }

    /// Walks a single tree (plus any sibling lookahead its pattern
    /// needs); returns the next index.
    fn walk_one(&mut self, trees: &[Tree], i: usize) -> usize {
        if let Some(t) = self.tok(&trees[i]) {
            // retire(…): walk args first (uses inside the call are
            // pre-retire), then flip tracked args to retired.
            if t.is_ident("retire") {
                if let Some(g) = trees.get(i + 1).and_then(|x| x.group()) {
                    if g.delim == '(' {
                        let line = t.line;
                        self.walk_seq(&g.children);
                        self.retire_args(g, line);
                        return i + 2;
                    }
                }
            }
            // protect-family call: re-protecting a retired value is R7.
            if PROTECT_FNS.contains(&t.text.as_str()) {
                if let Some(g) = trees.get(i + 1).and_then(|x| x.group()) {
                    if g.delim == '(' {
                        let line = t.line;
                        self.walk_seq(&g.children);
                        self.check_reprotect(g, line);
                        return i + 2;
                    }
                }
            }
            // drop(x): kills a guard (orphaning its pointers) or
            // forgets a pointer.
            if t.is_ident("drop") {
                if let Some(g) = trees.get(i + 1).and_then(|x| x.group()) {
                    if g.delim == '(' {
                        let line = t.line;
                        if let Some(name) = first_ident(g, self.toks) {
                            match self.lookup(&name) {
                                Some(Binding::Guard) => {
                                    self.end_guard(&name, line, GuardEnd::Dropped)
                                }
                                Some(b @ Binding::Ptr(_)) => *b = Binding::Other,
                                _ => {}
                            }
                        }
                        return i + 2;
                    }
                }
            }
            // Deref patterns over a tracked local.
            if t.is_punct('&') {
                let mut j = i + 1;
                if self.tok_at(trees, j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if self.tok_at(trees, j).is_some_and(|t| t.is_punct('*')) {
                    if let Some(name) = self.ident_at(trees, j + 1) {
                        let line = self.tok(&trees[j]).map_or(t.line, |t| t.line);
                        self.check_deref(&name, line);
                    }
                }
            } else if t.is_punct('*') {
                // Statement-position deref (`*p = v`, `f(*p)`): only
                // when nothing multiplication-shaped precedes.
                let prefix_ok = i == 0
                    || self
                        .tok(&trees[i - 1])
                        .is_some_and(|p| p.kind == TokKind::Punct && !")]".contains(&p.text));
                if prefix_ok {
                    if let Some(name) = self.ident_at(trees, i + 1) {
                        self.check_deref(&name, t.line);
                    }
                }
            }
            return i + 1;
        }
        // A group: `{}` is a scope; `()`/`[]` are transparent. `(*p).f`
        // arrives here as a group whose first children are `*`, `p`.
        if let Some(g) = trees[i].group() {
            if g.delim == '{' {
                self.walk_block(g);
            } else {
                self.walk_seq(&g.children);
            }
        }
        i + 1
    }

    fn tok_at(&self, trees: &[Tree], i: usize) -> Option<&'a Tok> {
        trees.get(i).and_then(|t| self.tok(t))
    }

    fn ident_at(&self, trees: &[Tree], i: usize) -> Option<String> {
        let t = self.tok_at(trees, i)?;
        (t.kind == TokKind::Ident).then(|| t.text.clone())
    }

    /// Skips a nested `fn` item: consumes up to and including its body
    /// group (or the `;` of a bodyless declaration).
    fn skip_fn_item(&mut self, trees: &[Tree], mut i: usize) -> usize {
        i += 1;
        while i < trees.len() {
            if let Some(t) = self.tok(&trees[i]) {
                if t.is_punct(';') {
                    return i + 1;
                }
            }
            if let Some(g) = trees[i].group() {
                if g.delim == '{' {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Handles `let [mut] NAME … = RHS ;`. Returns the index past the
    /// statement.
    fn handle_let(&mut self, trees: &[Tree], i: usize) -> usize {
        let end = self.stmt_end(trees, i);
        let mut j = i + 1;
        if self.tok_at(trees, j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let name = self.ident_at(trees, j);
        // First `=` leaf at this level separates pattern from RHS.
        let eq = (j..end).find(|&k| {
            self.tok_at(trees, k).is_some_and(|t| t.is_punct('='))
                && !self.tok_at(trees, k + 1).is_some_and(|t| t.is_punct('='))
        });
        if let Some(eq) = eq {
            let rhs = &trees[eq + 1..end];
            self.walk_seq(rhs);
            if let Some(name) = name {
                let b = self.classify_rhs(rhs);
                self.bind(&name, b);
            }
        } else if let Some(name) = name {
            // `let p;` — bound, classified by its first assignment.
            self.bind(&name, Binding::Other);
        }
        end + 1
    }

    /// Recognizes `NAME = RHS ;` reassignment of a tracked local.
    /// Returns the next index when it consumed a statement.
    fn try_assignment(&mut self, trees: &[Tree], i: usize) -> Option<usize> {
        let name = self.ident_at(trees, i)?;
        self.lookup(&name)?;
        let eq = self.tok_at(trees, i + 1)?;
        if !eq.is_punct('=') || self.tok_at(trees, i + 2).is_some_and(|t| t.is_punct('=')) {
            return None;
        }
        let end = self.stmt_end(trees, i);
        let rhs = &trees[i + 2..end];
        self.walk_seq(rhs);
        let b = self.classify_rhs(rhs);
        if let Some(slot) = self.lookup(&name) {
            *slot = b;
        }
        Some(end + 1)
    }

    /// Handles `return EXPR ;`: a returned pointer whose *local* guard
    /// stays behind escapes its protection (R6) — unless the guard is
    /// returned alongside it.
    fn handle_return(&mut self, trees: &[Tree], i: usize) -> usize {
        let end = self.stmt_end(trees, i);
        let expr = &trees[i + 1..end];
        self.walk_seq(expr);
        let mut names = Vec::new();
        collect_idents(expr, self.toks, &mut names);
        let returned: BTreeSet<&str> = names.iter().map(String::as_str).collect();
        let line = self.tok(&trees[i]).map_or(0, |t| t.line);
        let mut findings = Vec::new();
        for name in &names {
            if let Some(Binding::Ptr(p)) = self.lookup(name) {
                if p.retired.is_none() {
                    if let Some(g) = p.guard.clone() {
                        if !returned.contains(g.as_str()) {
                            findings.push((name.clone(), g));
                        }
                    }
                }
            }
        }
        for (name, g) in findings {
            self.report(
                &name,
                0,
                FlowKind::GuardEscape,
                line,
                format!(
                    "`{name}` is protected by local guard `{g}` but is returned without it — \
                     the protection ends at this function's exit"
                ),
            );
        }
        end + 1
    }

    /// Index of the `;` ending the statement starting at `i` (or the
    /// sequence end).
    fn stmt_end(&self, trees: &[Tree], i: usize) -> usize {
        (i..trees.len())
            .find(|&k| self.tok_at(trees, k).is_some_and(|t| t.is_punct(';')))
            .unwrap_or(trees.len())
    }

    /// Classifies a `let`/assignment RHS into a binding.
    fn classify_rhs(&mut self, rhs: &[Tree]) -> Binding {
        // Alias of a tracked local: `let q = p;`
        if rhs.len() == 1 {
            if let Some(name) = self.ident_at(rhs, 0) {
                if let Some(b) = self.lookup(&name) {
                    return b.clone();
                }
            }
        }
        // First guard- or protect-establishing call anywhere in the RHS.
        if let Some(binding) = self.find_call_classification(rhs) {
            return binding;
        }
        Binding::Other
    }

    fn find_call_classification(&mut self, trees: &[Tree]) -> Option<Binding> {
        let mut i = 0;
        while i < trees.len() {
            if let Some(t) = self.tok(&trees[i]) {
                if let Some(g) = trees.get(i + 1).and_then(|x| x.group()) {
                    if g.delim == '(' {
                        if GUARD_FNS.contains(&t.text.as_str()) {
                            return Some(Binding::Guard);
                        }
                        if PROTECT_FNS.contains(&t.text.as_str()) {
                            let guard = first_ident(g, self.toks)
                                .filter(|n| matches!(self.lookup(n), Some(Binding::Guard)));
                            return Some(Binding::Ptr(PtrState {
                                guard,
                                ..PtrState::default()
                            }));
                        }
                    }
                }
            }
            if let Some(g) = trees[i].group() {
                if let Some(b) = self.find_call_classification(&g.children) {
                    return Some(b);
                }
            }
            i += 1;
        }
        None
    }

    /// Flips every tracked pointer named in a `retire(…)` argument
    /// list to the retired state.
    fn retire_args(&mut self, g: &Group, line: usize) {
        let mut names = Vec::new();
        collect_idents(&g.children, self.toks, &mut names);
        for name in names {
            if let Some(Binding::Ptr(p)) = self.lookup(&name) {
                if p.retired.is_none() {
                    p.retired = Some(line);
                }
            }
        }
    }

    /// R7: re-protecting a retired value.
    fn check_reprotect(&mut self, g: &Group, line: usize) {
        let mut names = Vec::new();
        collect_idents(&g.children, self.toks, &mut names);
        let mut findings = Vec::new();
        for name in names {
            if let Some(Binding::Ptr(p)) = self.lookup(&name) {
                if let Some(rl) = p.retired {
                    findings.push((name, rl));
                }
            }
        }
        for (name, rl) in findings {
            self.report(
                &name,
                1,
                FlowKind::UseAfterRetire,
                line,
                format!(
                    "`{name}` flowed into retire on line {rl} and is re-protected here — \
                     a reclaimed node can be re-published"
                ),
            );
        }
    }

    /// Checks a deref of `name` against its life-cycle state.
    fn check_deref(&mut self, name: &str, line: usize) {
        let Some(Binding::Ptr(p)) = self.lookup(name).map(|b| &*b) else {
            return;
        };
        let p = p.clone();
        if let Some(rl) = p.retired {
            self.report(
                name,
                2,
                FlowKind::UseAfterRetire,
                line,
                format!(
                    "`{name}` flowed into retire on line {rl} and is dereferenced here — \
                     use-after-retire"
                ),
            );
            return;
        }
        match p.guard_end {
            Some((gl, GuardEnd::Dropped)) => {
                let g = p.guard.as_deref().unwrap_or("?");
                self.report(
                    name,
                    3,
                    FlowKind::UseAfterRetire,
                    line,
                    format!(
                        "`{name}` is dereferenced after its guard `{g}` was dropped on line {gl} — \
                         the protection is gone"
                    ),
                );
            }
            Some((gl, GuardEnd::ScopeEnd)) => {
                let g = p.guard.as_deref().unwrap_or("?");
                self.report(
                    name,
                    4,
                    FlowKind::GuardEscape,
                    line,
                    format!(
                        "`{name}` outlived its guard `{g}` (scope closed on line {gl}) and is \
                         dereferenced here — guard-escape"
                    ),
                );
            }
            None => {}
        }
    }
}

/// First identifier inside a group, skipping `&`/`mut` — the receiver
/// position of `load(&mut guard, …)`.
fn first_ident(g: &Group, toks: &[Tok]) -> Option<String> {
    for tree in &g.children {
        if let Some(i) = tree.leaf() {
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text != "mut" {
                return Some(t.text.clone());
            }
            if t.kind == TokKind::Ident || t.is_punct('&') {
                continue;
            }
            return None;
        }
        return None;
    }
    None
}

/// Collects every identifier leaf, recursively.
fn collect_idents(trees: &[Tree], toks: &[Tok], out: &mut Vec<String>) {
    for tree in trees {
        match tree {
            Tree::Leaf(i) => {
                let t = &toks[*i];
                if t.kind == TokKind::Ident {
                    out.push(t.text.clone());
                }
            }
            Tree::Group(g) => collect_idents(&g.children, toks, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<FlowIssue> {
        let l = lex(src);
        let open = l.toks.iter().position(|t| t.is_punct('{')).unwrap();
        analyze_body(&l.toks, (open, l.toks.len() - 1))
    }

    fn kinds(issues: &[FlowIssue]) -> Vec<FlowKind> {
        issues.iter().map(|i| i.kind).collect()
    }

    #[test]
    fn protected_deref_in_scope_is_clean() {
        let src = "fn f(list: &L) { let mut g = list.smr.register().unwrap(); \
                   let p = list.smr.load(&mut g, 0, &list.head); \
                   let k = unsafe { (*p).key }; }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn deref_after_guard_scope_is_guard_escape() {
        let src = "fn f(list: &L) { let p; { let mut g = list.smr.register().unwrap(); \
                   p = list.smr.load(&mut g, 0, &list.head); } \
                   let k = unsafe { (*p).key }; }";
        let issues = run(src);
        assert_eq!(kinds(&issues), vec![FlowKind::GuardEscape], "{issues:?}");
    }

    #[test]
    fn return_of_guarded_ptr_is_guard_escape() {
        let src = "fn f(list: &L) -> *mut N { let mut g = list.smr.register().unwrap(); \
                   let p = list.smr.load(&mut g, 0, &list.head); \
                   return p as *mut N; }";
        assert_eq!(kinds(&run(src)), vec![FlowKind::GuardEscape]);
    }

    #[test]
    fn returning_guard_and_ptr_together_is_clean() {
        let src = "fn f(list: &L) -> (G, usize) { let mut g = list.smr.register().unwrap(); \
                   let p = list.smr.load(&mut g, 0, &list.head); \
                   return (g, p); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn deref_after_retire_is_use_after_retire() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) }; \
                   let k = unsafe { (*p).key }; }";
        let issues = run(src);
        assert_eq!(kinds(&issues), vec![FlowKind::UseAfterRetire], "{issues:?}");
    }

    #[test]
    fn deref_inside_retire_args_is_clean() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) }; }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn deref_after_guard_drop_is_use_after_retire() {
        let src = "fn f(list: &L) { let mut g = list.smr.register().unwrap(); \
                   let p = list.smr.load(&mut g, 0, &list.head); \
                   drop(g); \
                   let k = unsafe { (*p).key }; }";
        assert_eq!(kinds(&run(src)), vec![FlowKind::UseAfterRetire]);
    }

    #[test]
    fn reprotect_after_retire_fires() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) }; \
                   list.smr.protect(ctx, 1, p); }";
        assert_eq!(kinds(&run(src)), vec![FlowKind::UseAfterRetire]);
    }

    #[test]
    fn reassignment_resets_the_state() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let mut p = list.smr.load(ctx, 0, &list.head); \
                   unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) }; \
                   p = list.smr.load(ctx, 0, &list.head); \
                   let k = unsafe { (*p).key }; }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn ambient_ctx_protection_never_escapes() {
        // `ctx` is a parameter — the caller owns the guard, so scope
        // reasoning inside this fn cannot end it.
        let src = "fn f(list: &L, ctx: &mut C) -> usize { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   return p; }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn multiplication_is_not_a_deref() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   unsafe { list.smr.retire(ctx, p as *mut u8, &(*p).header, D) }; \
                   let area = w * p; }";
        // `w * p` is arithmetic on the *value*, suspicious but not a
        // deref — the pass stays quiet rather than guessing.
        assert!(run(src).is_empty());
    }

    #[test]
    fn alias_carries_the_state() {
        let src = "fn f(list: &L, ctx: &mut C) { \
                   let p = list.smr.load(ctx, 0, &list.head); \
                   let q = p; \
                   unsafe { list.smr.retire(ctx, q as *mut u8, &(*q).header, D) }; \
                   let k = unsafe { (*q).key }; }";
        assert_eq!(kinds(&run(src)), vec![FlowKind::UseAfterRetire]);
    }
}
