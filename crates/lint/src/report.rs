//! Findings reports: JSON-lines [`LintRecord`]s (the same style as
//! era-bench's `RunRecord` and era-chaos's `ChaosRunRecord` — one
//! [`JsonObject`] per line, keys always present) and the human table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use era_obs::report::JsonObject;

use crate::rules::{Finding, Rule};

/// One finding, ready to serialize as a JSON line.
///
/// # Record format
///
/// | key | type | meaning |
/// |---|---|---|
/// | `rule` | string | Stable rule id (`R1-safety-comment`, …). |
/// | `level` | string | `"deny"` (counts toward the exit code), `"allow"` (reported only), or `"waived"` (matched an unexpired baseline waiver). |
/// | `path` | string | Workspace-relative file path. |
/// | `line` | int | 1-based source line. |
/// | `message` | string | Human-readable explanation. |
#[derive(Debug, Clone)]
pub struct LintRecord {
    /// Stable rule id.
    pub rule: &'static str,
    /// `"deny"`, `"allow"`, or `"waived"`.
    pub level: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl LintRecord {
    /// Builds a record from a finding and its effective level.
    pub fn new(f: &Finding, denied: bool) -> LintRecord {
        LintRecord {
            rule: f.rule.id(),
            level: if denied { "deny" } else { "allow" },
            path: f.path.clone(),
            line: f.line,
            message: f.message.clone(),
        }
    }

    /// Renders the record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .str("rule", self.rule)
            .str("level", self.level)
            .str("path", &self.path)
            .u64("line", self.line as u64)
            .str("message", &self.message)
            .finish()
    }
}

/// Renders the human table: findings grouped by rule, then a summary
/// line. Returns the empty string when there is nothing to say.
pub fn render_table(records: &[LintRecord], files_scanned: usize) -> String {
    let mut out = String::new();
    let mut by_rule: BTreeMap<&str, Vec<&LintRecord>> = BTreeMap::new();
    for r in records {
        by_rule.entry(r.rule).or_default().push(r);
    }
    for rule in Rule::ALL {
        let Some(rs) = by_rule.get(rule.id()) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{} — {} ({} finding(s))",
            rule.id(),
            rule.describe(),
            rs.len()
        );
        for r in rs {
            let _ = writeln!(out, "  [{}] {}:{}  {}", r.level, r.path, r.line, r.message);
        }
    }
    let denied = records.iter().filter(|r| r.level == "deny").count();
    let waived = records.iter().filter(|r| r.level == "waived").count();
    let allowed = records.len() - denied - waived;
    let _ = writeln!(
        out,
        "era-lint: {} finding(s) ({} denied, {} allowed, {} waived) across {} file(s) scanned",
        records.len(),
        denied,
        allowed,
        waived,
        files_scanned
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape_and_escaping() {
        let r = LintRecord {
            rule: "R1-safety-comment",
            level: "deny",
            path: "crates/x/src/a.rs".into(),
            line: 7,
            message: "quote \" and back\\slash".into(),
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"R1-safety-comment\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("quote \\\" and back\\\\slash"));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn table_groups_and_summarizes() {
        let recs = vec![
            LintRecord {
                rule: "R1-safety-comment",
                level: "deny",
                path: "a.rs".into(),
                line: 1,
                message: "m".into(),
            },
            LintRecord {
                rule: "R5-guard-must-use",
                level: "allow",
                path: "b.rs".into(),
                line: 2,
                message: "n".into(),
            },
        ];
        let t = render_table(&recs, 3);
        assert!(t.contains("R1-safety-comment"));
        assert!(t.contains("[allow] b.rs:2"));
        assert!(t.contains("2 finding(s) (1 denied, 1 allowed, 0 waived) across 3 file(s)"));
    }
}
