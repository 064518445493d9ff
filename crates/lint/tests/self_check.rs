//! The workspace self-check: `era-lint check .` must stay clean on
//! `main`. This is the actual gate — the fixtures prove the rules can
//! fire; this proves the tree does not.

use era_lint::check_tree;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn workspace_is_rule_clean() {
    let report = check_tree(&workspace_root()).unwrap();
    assert!(
        report.findings.is_empty(),
        "workspace has lint findings:\n{}",
        era_lint::render_table(&report.findings, report.files_scanned)
    );
    // Sanity: the walk actually visited the source tree.
    assert!(
        report.files_scanned > 60,
        "only {} files scanned — walker broke?",
        report.files_scanned
    );
}
