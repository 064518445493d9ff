//! The findings table: findings grouped by rule, then a summary line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::{Finding, Rule};

/// Renders the human table: findings grouped by rule, then a summary
/// line (printed even when there are no findings).
pub fn render_table(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut by_rule: BTreeMap<Rule, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        by_rule.entry(f.rule).or_default().push(f);
    }
    for (rule, fs) in &by_rule {
        let _ = writeln!(
            out,
            "{} — {} ({} finding(s))",
            rule.id(),
            rule.describe(),
            fs.len()
        );
        for f in fs {
            let _ = writeln!(out, "  {}:{}  {}", f.path, f.line, f.message);
        }
    }
    let _ = writeln!(
        out,
        "era-lint: {} finding(s) across {} file(s) scanned",
        findings.len(),
        files_scanned
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_groups_and_summarizes() {
        let finding = |rule, path: &str, line| Finding {
            rule,
            path: path.into(),
            line,
            message: "m".into(),
        };
        let fs = vec![
            finding(Rule::GuardMustUse, "b.rs", 2),
            finding(Rule::SafetyComment, "a.rs", 1),
        ];
        let t = render_table(&fs, 3);
        let r1 = t.find("R1-safety-comment").unwrap();
        let r5 = t.find("R5-guard-must-use").unwrap();
        assert!(r1 < r5, "grouped in rule order:\n{t}");
        assert!(t.contains("  b.rs:2  m"));
        assert!(t.ends_with("era-lint: 2 finding(s) across 3 file(s) scanned\n"));
    }
}
