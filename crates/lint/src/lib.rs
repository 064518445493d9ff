//! # era-lint — workspace SMR-protocol static analyzer
//!
//! The ERA theorem's premise is that reclamation-protocol misuse is
//! subtle and adversarial (Figure 1): the mistakes that matter — a
//! deref outside a protected region, a relaxed store whose fence
//! pairing quietly rotted, an `unsafe` block whose justification lives
//! only in a reviewer's head — are exactly the ones runtime oracles
//! catch *after* the fact. This crate checks them **before execution**,
//! in the spirit of RCU's sparse-based address-space checker: the
//! repo's written discipline (SAFETY comments, `SAFETY(ordering)`
//! justifications, protect-before-deref in `era-ds`, the era-obs hook
//! set, `#[must_use]` guards) becomes machine-checked facts.
//!
//! The five rules are documented on [`Rule`] and mapped onto the
//! paper's definitions in DESIGN §3.10 (including the known
//! false-negative envelope of the syntactic dominance check — this is
//! a linter, not a verifier). The workspace builds offline, so the
//! analyzer parses Rust with its own minimal lexer ([`lexer`]) rather
//! than `syn`; rules operate on token patterns plus the comment
//! stream, which is where the checked discipline actually lives.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p era-lint -- check .                 # whole workspace
//! cargo run -p era-lint -- fixtures crates/lint/fixtures
//! cargo run -p era-lint -- rules
//! ```
//!
//! `check [PATH]` prints the findings table. Exit codes: `0` clean,
//! `1` findings (or fixture expectations unmet), `2` usage/IO error.
//! Every finding counts; the one way to accept a site is a
//! `// LINT: <kind> — <reason>` waiver in the code
//! ([`model::is_waiver`]), which R3, R6 and R7 honour.
//!
//! The golden-fixture tree (`crates/lint/fixtures/`) holds known-bad
//! snippets, each asserted — by `era-lint fixtures` in CI and by the
//! crate's tests — to trip exactly its rule, plus a clean fixture; the
//! workspace self-check test asserts `check .` stays at zero findings
//! on `main`.

pub mod flow;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use model::SourceFile;
pub use report::render_table;
pub use rules::{check_file, check_unit, Finding, Rule, Scope};

/// Directory names never descended into: build output, VCS state,
/// vendored shims (third-party stand-ins with their own conventions)
/// and the intentionally-rule-breaking fixture tree.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "shims", "fixtures", "node_modules"];

/// Outcome of a tree check.
#[derive(Debug)]
pub struct CheckReport {
    /// All findings; any one fails the check.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Recursively collects `.rs` files under `root`, skipping
/// [`SKIP_DIRS`]. A `root` that is itself a file is returned as-is.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Path label used in findings: relative to `root` when possible,
/// with forward slashes.
fn label_for(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Checks every `.rs` file under `root` with path-scoped rules. All
/// files are parsed up front and checked as **one unit**, so the
/// cross-file rule (R8 fence-pairing) sees the whole workspace at once.
pub fn check_tree(root: &Path) -> std::io::Result<CheckReport> {
    let files = collect_rs_files(root)?;
    let mut parsed = Vec::with_capacity(files.len());
    for path in &files {
        let text = fs::read_to_string(path)?;
        parsed.push(SourceFile::parse(&label_for(root, path), &text));
    }
    Ok(CheckReport {
        findings: check_unit(&parsed, Scope::Auto),
        files_scanned: files.len(),
    })
}

/// One fixture's verdict from [`run_fixtures`].
#[derive(Debug)]
pub struct FixtureResult {
    /// Fixture file name.
    pub name: String,
    /// `None` = behaved as declared; `Some(why)` = mismatch.
    pub error: Option<String>,
}

/// Runs the golden-fixture harness over `dir`.
///
/// Each fixture declares its expectations in header comments:
/// `//@ expect: <rule-id>` (may repeat) or `//@ expect-clean`. A
/// fixture passes when every expected rule fires at least once and
/// **no other rule fires at all** — "trips exactly its rule". All
/// rules run un-scoped ([`Scope::All`]), since fixtures live outside
/// the scoped source trees.
pub fn run_fixtures(dir: &Path) -> std::io::Result<Vec<FixtureResult>> {
    let mut out = Vec::new();
    let mut files = collect_rs_files_unfiltered(dir)?;
    files.sort();
    for path in files {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = fs::read_to_string(&path)?;
        let error = fixture_error(&name, &text);
        out.push(FixtureResult { name, error });
    }
    Ok(out)
}

/// One fixture's mismatch, if any: a malformed header, or rules that
/// fired other than the header declares.
fn fixture_error(name: &str, text: &str) -> Option<String> {
    let mut expect: BTreeSet<Rule> = BTreeSet::new();
    let mut expect_clean = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("//@ expect:") {
            let Some(r) = Rule::parse(rest) else {
                return Some(format!("unknown rule in expectation: {}", rest.trim()));
            };
            expect.insert(r);
        } else if line.starts_with("//@ expect-clean") {
            expect_clean = true;
        }
    }
    if expect.is_empty() && !expect_clean {
        return Some("fixture declares no //@ expect: or //@ expect-clean header".into());
    }
    let file = SourceFile::parse(name, text);
    let fired: BTreeSet<Rule> = check_file(&file, Scope::All)
        .iter()
        .map(|f| f.rule)
        .collect();
    if expect_clean && !fired.is_empty() {
        Some(format!("expected clean, but fired: {}", ids(&fired)))
    } else if !expect_clean && fired != expect {
        Some(format!(
            "expected exactly {{{}}}, but fired {{{}}}",
            ids(&expect),
            ids(&fired)
        ))
    } else {
        None
    }
}

fn ids(rules: &BTreeSet<Rule>) -> String {
    rules.iter().map(|r| r.id()).collect::<Vec<_>>().join(", ")
}

/// Like [`collect_rs_files`] but without the `fixtures` skip — used to
/// scan the fixture tree itself.
fn collect_rs_files_unfiltered(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_file() && path.to_string_lossy().ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "writes a file")]
    fn unknown_header_rule_is_one_failing_result() {
        let dir = std::env::temp_dir().join(format!("era-lint-fx-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("bad_header.rs"),
            "//@ expect: R42-no-such-rule\n//@ expect: R1\nfn f() { unsafe { g() } }\n",
        )
        .unwrap();
        let results = run_fixtures(&dir);
        fs::remove_dir_all(&dir).unwrap();
        let results = results.unwrap();
        assert_eq!(results.len(), 1, "{results:?}");
        let why = results[0].error.as_deref().unwrap();
        assert!(why.contains("R42-no-such-rule"), "{why}");
    }
}
