//! SARIF 2.1.0 emitter + shape check.
//!
//! GitHub code scanning ingests SARIF, so CI uploads the workspace
//! lint report in this format and findings surface as PR annotations:
//! one canonical `runs[0]` with the full rule catalog in
//! `tool.driver.rules` and one `result` per [`LintRecord`], laid out by
//! hand (pretty-printed) with strings escaped by `era-obs`'s writer.
//!
//! Level mapping: `deny → error`, `allow → warning`, `waived → note` +
//! a `suppressions` entry of kind `external` (the baseline file is the
//! external mechanism), which is how SARIF consumers are told "known,
//! justified, not a regression".
//!
//! [`shape_check`] reads the emitted document back with
//! [`era_obs::Json`] and validates it against
//! the 2.1 shape CI relies on: `version`, `runs[].tool.driver.name`,
//! `runs[].results[].ruleId/message.text/locations[].physicalLocation`
//! with an `artifactLocation.uri` and a positive `region.startLine`.
//! The emitter runs it on its own output before returning, so a shape
//! regression fails loudly at emit time, not at upload time.

use std::fmt::Write as _;

use era_obs::report::json_string;
use era_obs::Json;

use crate::report::LintRecord;
use crate::rules::Rule;

/// Renders records as a complete SARIF 2.1.0 document (pretty-printed,
/// trailing newline). Panics if the emitted document fails its own
/// [`shape_check`] — that is a bug in this module, never input-driven.
pub fn to_sarif(records: &[LintRecord]) -> String {
    let mut s = String::with_capacity(4096 + records.len() * 256);
    s.push_str("{\n");
    s.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"era-lint\",\n");
    let _ = writeln!(
        s,
        "          \"version\": {},",
        json_string(env!("CARGO_PKG_VERSION"))
    );
    s.push_str("          \"informationUri\": \"https://github.com/era-smr/era\",\n");
    s.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}",
            json_string(rule.id()),
            json_string(rule.describe())
        );
        s.push_str(if i + 1 < Rule::ALL.len() { ",\n" } else { "\n" });
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        let level = match r.level {
            "deny" => "error",
            "waived" => "note",
            _ => "warning",
        };
        s.push_str("        {\n");
        let _ = writeln!(s, "          \"ruleId\": {},", json_string(r.rule));
        let _ = writeln!(s, "          \"level\": \"{level}\",");
        let _ = writeln!(
            s,
            "          \"message\": {{\"text\": {}}},",
            json_string(&r.message)
        );
        if r.level == "waived" {
            s.push_str("          \"suppressions\": [{\"kind\": \"external\"}],\n");
        }
        s.push_str("          \"locations\": [\n            {\n");
        s.push_str("              \"physicalLocation\": {\n");
        let _ = writeln!(
            s,
            "                \"artifactLocation\": {{\"uri\": {}}},",
            json_string(&r.path)
        );
        let _ = writeln!(
            s,
            "                \"region\": {{\"startLine\": {}}}",
            r.line.max(1)
        );
        s.push_str("              }\n            }\n          ]\n        }");
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    if let Err(e) = shape_check(&s) {
        panic!("era-lint emitted malformed SARIF: {e}");
    }
    s
}

/// Validates `text` against the SARIF 2.1 shape this repo relies on.
///
/// Checks: well-formed JSON; `version == "2.1.0"`; `runs` is a
/// non-empty array; each run has `tool.driver.name` and a `results`
/// array; each result has a string `ruleId`, a `message.text`, and at
/// least one location with `physicalLocation.artifactLocation.uri` and
/// an integer `region.startLine >= 1`.
pub fn shape_check(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    if doc.get("version").and_then(Json::as_str) != Some("2.1.0") {
        return Err("version must be the string \"2.1.0\"".into());
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs must be non-empty".into());
    }
    for (ri, run) in runs.iter().enumerate() {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or_else(|| format!("runs[{ri}] missing tool.driver"))?;
        if driver.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("runs[{ri}].tool.driver.name must be a string"));
        }
        let results = run
            .get("results")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("runs[{ri}].results must be an array"))?;
        for (i, res) in results.iter().enumerate() {
            let at = || format!("runs[{ri}].results[{i}]");
            if res.get("ruleId").and_then(Json::as_str).is_none() {
                return Err(format!("{} missing string ruleId", at()));
            }
            if res
                .get("message")
                .and_then(|m| m.get("text"))
                .and_then(Json::as_str)
                .is_none()
            {
                return Err(format!("{} missing message.text", at()));
            }
            let locs = res
                .get("locations")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{} missing locations array", at()))?;
            if locs.is_empty() {
                return Err(format!("{} has no locations", at()));
            }
            for loc in locs {
                let phys = loc
                    .get("physicalLocation")
                    .ok_or_else(|| format!("{} location missing physicalLocation", at()))?;
                if phys
                    .get("artifactLocation")
                    .and_then(|a| a.get("uri"))
                    .and_then(Json::as_str)
                    .is_none()
                {
                    return Err(format!("{} missing artifactLocation.uri", at()));
                }
                match phys
                    .get("region")
                    .and_then(|r| r.get("startLine"))
                    .and_then(Json::as_u64)
                {
                    Some(n) if n >= 1 => {}
                    _ => return Err(format!("{} region.startLine must be >= 1", at())),
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(rule: &'static str, level: &'static str, line: usize) -> LintRecord {
        LintRecord {
            rule,
            level,
            path: "crates/x/src/a.rs".into(),
            line,
            message: format!("msg for {rule}"),
        }
    }

    #[test]
    fn empty_report_is_valid_sarif() {
        let s = to_sarif(&[]);
        assert!(shape_check(&s).is_ok());
        assert!(s.contains("\"results\": [\n      ]"));
    }

    #[test]
    fn levels_map_and_waived_is_suppressed() {
        let s = to_sarif(&[
            rec("R1-safety-comment", "deny", 3),
            rec("R3-protect-before-deref", "allow", 9),
            rec("R7-use-after-retire", "waived", 12),
        ]);
        assert!(shape_check(&s).is_ok());
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"warning\""));
        assert!(s.contains("\"level\": \"note\""));
        assert_eq!(s.matches("\"suppressions\"").count(), 1);
    }

    #[test]
    fn shape_check_rejects_missing_pieces() {
        assert!(shape_check("{").is_err());
        assert!(shape_check("{\"version\": \"2.0.0\", \"runs\": []}").is_err());
        assert!(shape_check("{\"version\": \"2.1.0\", \"runs\": []}").is_err());
        // A run whose result lacks locations.
        let bad =
            "{\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": {\"name\": \"x\"}}, \
                   \"results\": [{\"ruleId\": \"r\", \"message\": {\"text\": \"m\"}}]}]}";
        let err = shape_check(bad).unwrap_err();
        assert!(err.contains("locations"), "{err}");
    }
}
