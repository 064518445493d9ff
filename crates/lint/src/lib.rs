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
//! cargo run -p era-lint -- check .                 # whole workspace, all rules denied
//! cargo run -p era-lint -- check . --allow R3      # R3 reported but not fatal
//! cargo run -p era-lint -- check . --report lint.jsonl
//! cargo run -p era-lint -- fixtures crates/lint/fixtures
//! cargo run -p era-lint -- rules
//! ```
//!
//! Exit codes: `0` clean, `1` denied findings (or fixture
//! expectations unmet), `2` usage/IO error.
//!
//! The golden-fixture tree (`crates/lint/fixtures/`) holds known-bad
//! snippets, each asserted — by `era-lint fixtures` in CI and by the
//! crate's tests — to trip exactly its rule, plus a clean fixture; the
//! workspace self-check test asserts `check .` stays at zero findings
//! on `main`.

pub mod baseline;
pub mod flow;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;
pub mod sarif;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use model::SourceFile;
pub use report::{render_table, LintRecord};
pub use rules::{check_file, check_unit, Finding, Rule, Scope};

/// Directory names never descended into: build output, VCS state,
/// vendored shims (third-party stand-ins with their own conventions)
/// and the intentionally-rule-breaking fixture tree.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "shims", "fixtures", "node_modules"];

/// Check configuration: which rules are denied (fatal) vs. allowed
/// (reported only). Rules absent from both sets default to denied.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Rules downgraded to warnings.
    pub allow: BTreeSet<Rule>,
    /// Rules explicitly denied (overrides `allow` when in both).
    pub deny: BTreeSet<Rule>,
}

impl LintConfig {
    /// Whether findings of `rule` count toward the failing exit code.
    pub fn is_denied(&self, rule: Rule) -> bool {
        self.deny.contains(&rule) || !self.allow.contains(&rule)
    }
}

/// Outcome of a tree check.
#[derive(Debug)]
pub struct CheckReport {
    /// All findings as records (denied, allowed and waived).
    pub records: Vec<LintRecord>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Baseline hygiene notes (expired or unused waivers) — worth
    /// printing, never fatal.
    pub baseline_notes: Vec<String>,
}

impl CheckReport {
    /// Count of findings at deny level (waived findings don't count).
    pub fn denied(&self) -> usize {
        self.records.iter().filter(|r| r.level == "deny").count()
    }
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

/// The default baseline location, relative to the checked root.
pub const DEFAULT_BASELINE: &str = "crates/lint/waivers.txt";

/// Checks every `.rs` file under `root` with path-scoped rules,
/// applying the default baseline (`crates/lint/waivers.txt` under
/// `root`) when it exists.
pub fn check_tree(root: &Path, cfg: &LintConfig) -> std::io::Result<CheckReport> {
    let bpath = root.join(DEFAULT_BASELINE);
    let base = if bpath.is_file() {
        Some(
            baseline::load(&bpath)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?,
        )
    } else {
        None
    };
    check_tree_with(root, cfg, base.as_ref())
}

/// [`check_tree`] with an explicit (or no) baseline. All files are
/// parsed up front and checked as **one unit**, so the cross-file
/// rule (R8 fence-pairing) sees the whole workspace at once.
pub fn check_tree_with(
    root: &Path,
    cfg: &LintConfig,
    base: Option<&baseline::Baseline>,
) -> std::io::Result<CheckReport> {
    let files = collect_rs_files(root)?;
    let mut parsed = Vec::with_capacity(files.len());
    for path in &files {
        let text = fs::read_to_string(path)?;
        parsed.push(SourceFile::parse(&label_for(root, path), &text));
    }
    let mut records = Vec::new();
    for f in check_unit(&parsed, Scope::Auto) {
        let denied = cfg.is_denied(f.rule);
        records.push(LintRecord::new(&f, denied));
    }
    let mut baseline_notes = Vec::new();
    if let Some(base) = base {
        let out = base.apply(&mut records, baseline::today_utc());
        for e in out.expired {
            baseline_notes.push(format!("expired waiver (its finding resurfaces): {e}"));
        }
        for u in out.unused {
            baseline_notes.push(format!("unused waiver (delete it): {u}"));
        }
    }
    Ok(CheckReport {
        records,
        files_scanned: files.len(),
        baseline_notes,
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
        let mut expect: BTreeSet<Rule> = BTreeSet::new();
        let mut expect_clean = false;
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("//@ expect:") {
                match Rule::parse(rest) {
                    Some(r) => {
                        expect.insert(r);
                    }
                    None => {
                        out.push(FixtureResult {
                            name: name.clone(),
                            error: Some(format!("unknown rule in expectation: {}", rest.trim())),
                        });
                    }
                }
            } else if line.starts_with("//@ expect-clean") {
                expect_clean = true;
            }
        }
        if expect.is_empty() && !expect_clean {
            out.push(FixtureResult {
                name,
                error: Some("fixture declares no //@ expect: or //@ expect-clean header".into()),
            });
            continue;
        }
        let file = SourceFile::parse(&name, &text);
        let findings = check_file(&file, Scope::All);
        let fired: BTreeSet<Rule> = findings.iter().map(|f| f.rule).collect();
        let error = if expect_clean && !fired.is_empty() {
            Some(format!("expected clean, but fired: {}", ids(&fired)))
        } else if !expect_clean && fired != expect {
            Some(format!(
                "expected exactly {{{}}}, but fired {{{}}}",
                ids(&expect),
                ids(&fired)
            ))
        } else {
            None
        };
        out.push(FixtureResult { name, error });
    }
    Ok(out)
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
    fn config_defaults_to_deny() {
        let cfg = LintConfig::default();
        assert!(cfg.is_denied(Rule::SafetyComment));
        let mut cfg = LintConfig::default();
        cfg.allow.insert(Rule::ProtectBeforeDeref);
        assert!(!cfg.is_denied(Rule::ProtectBeforeDeref));
        assert!(cfg.is_denied(Rule::HookCoverage));
        cfg.deny.insert(Rule::ProtectBeforeDeref);
        assert!(cfg.is_denied(Rule::ProtectBeforeDeref), "deny wins");
    }
}
