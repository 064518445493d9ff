//! Golden-fixture tests: every rule has a known-bad snippet asserted
//! to trip exactly that rule, plus a clean fixture asserted to trip
//! nothing. The same expectations run in CI via `era-lint fixtures`,
//! proving the analyzer still fires after any refactor.

use std::collections::BTreeSet;
use std::path::PathBuf;

use era_lint::{check_file, run_fixtures, Rule, Scope, SourceFile};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn fired(name: &str) -> BTreeSet<Rule> {
    let path = fixtures_dir().join(name);
    let text = std::fs::read_to_string(&path).unwrap();
    let file = SourceFile::parse(name, &text);
    check_file(&file, Scope::All)
        .into_iter()
        .map(|f| f.rule)
        .collect()
}

fn only(rule: Rule) -> BTreeSet<Rule> {
    [rule].into_iter().collect()
}

#[test]
fn missing_safety_trips_exactly_r1() {
    assert_eq!(fired("missing_safety.rs"), only(Rule::SafetyComment));
}

#[test]
fn unjustified_relaxed_trips_exactly_r2() {
    assert_eq!(
        fired("unjustified_relaxed.rs"),
        only(Rule::OrderingJustification)
    );
}

#[test]
fn seqcst_unpaired_trips_exactly_r2() {
    assert_eq!(
        fired("seqcst_unpaired.rs"),
        only(Rule::OrderingJustification)
    );
}

#[test]
fn deref_without_protect_trips_exactly_r3() {
    assert_eq!(
        fired("deref_without_protect.rs"),
        only(Rule::ProtectBeforeDeref)
    );
}

#[test]
fn malformed_waivers_trip_exactly_r3() {
    // Prose mentioning `LINT:`, a misspelled kind and a missing reason
    // each waive nothing, so each fn's deref still reports.
    let path = fixtures_dir().join("lint_waiver_malformed.rs");
    let text = std::fs::read_to_string(&path).unwrap();
    let findings = check_file(&SourceFile::parse("m.rs", &text), Scope::All);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == Rule::ProtectBeforeDeref));
}

#[test]
fn missing_hook_trips_exactly_r4() {
    assert_eq!(fired("missing_hook.rs"), only(Rule::HookCoverage));
}

#[test]
fn guard_not_must_use_trips_exactly_r5() {
    assert_eq!(fired("guard_not_must_use.rs"), only(Rule::GuardMustUse));
}

#[test]
fn guard_escape_trips_exactly_r6() {
    assert_eq!(fired("guard_escape.rs"), only(Rule::GuardEscape));
}

#[test]
fn use_after_retire_trips_exactly_r7() {
    assert_eq!(fired("use_after_retire.rs"), only(Rule::UseAfterRetire));
}

#[test]
fn unmatched_fence_pair_trips_exactly_r8() {
    assert_eq!(fired("fence_pair_unmatched.rs"), only(Rule::FencePairing));
}

#[test]
fn missing_scheme_class_trips_exactly_r9() {
    assert_eq!(
        fired("scheme_class_missing.rs"),
        only(Rule::SchemeObligation)
    );
}

#[test]
fn unbounded_scheme_claiming_bound_trips_exactly_r9() {
    assert_eq!(
        fired("scheme_class_unbounded.rs"),
        only(Rule::SchemeObligation)
    );
}

#[test]
fn clean_fixtures_are_clean() {
    for f in [
        "clean.rs",
        "guard_scoped_clean.rs",
        "retire_last_clean.rs",
        "fence_pair_clean.rs",
        "scheme_class_clean.rs",
        "lexer_edgecases.rs",
    ] {
        assert!(fired(f).is_empty(), "{f}: {:?}", fired(f));
    }
}

#[test]
fn fixture_harness_agrees_with_headers() {
    // The CI gate (`era-lint fixtures`) and these tests must never
    // drift: the harness reads the //@ expect headers and reaches the
    // same verdicts.
    let results = run_fixtures(&fixtures_dir()).unwrap();
    assert!(results.len() >= 18, "fixture tree shrank: {results:?}");
    for r in &results {
        assert!(r.error.is_none(), "{}: {:?}", r.name, r.error);
    }
}

#[test]
fn every_rule_has_at_least_one_firing_fixture() {
    let mut covered: BTreeSet<Rule> = BTreeSet::new();
    for f in [
        "missing_safety.rs",
        "unjustified_relaxed.rs",
        "seqcst_unpaired.rs",
        "deref_without_protect.rs",
        "missing_hook.rs",
        "guard_not_must_use.rs",
        "guard_escape.rs",
        "use_after_retire.rs",
        "fence_pair_unmatched.rs",
        "scheme_class_missing.rs",
    ] {
        covered.extend(fired(f));
    }
    assert_eq!(covered.len(), Rule::ALL.len(), "uncovered rules exist");
}
