//! The SARIF 2.1.0 envelope shared by the analyzer catalogs:
//! feral-lint (FERAL001–009) and feral-racer (FERALRS001–006) both
//! emit one run, rule metadata in `tool.driver.rules`, and findings as
//! `results` with physical locations. The schema test lives here too,
//! so a drive-by change to the envelope breaks one test, not three.

use crate::json::{Json, Layout};

/// Static metadata for one rule in a SARIF `tool.driver.rules` entry.
#[derive(Debug, Clone, Copy)]
pub struct SarifRule<'a> {
    /// Stable id (`FERAL001`, `FERALRS003`).
    pub id: &'a str,
    /// Short kebab name.
    pub name: &'a str,
    /// One-line description (SARIF `shortDescription`).
    pub summary: &'a str,
    /// Repo-relative design-doc anchor (SARIF `helpUri`).
    pub help_uri: &'a str,
    /// Citation carried in `properties.citation`.
    pub citation: &'a str,
}

/// One SARIF `result`.
#[derive(Debug, Clone)]
pub struct SarifResult<'a> {
    /// Rule id; must name an entry in the rule catalog.
    pub rule_id: &'a str,
    /// SARIF level: `error`, `warning`, or `note`.
    pub level: &'a str,
    /// Finding message (`message.text`).
    pub message: String,
    /// Physical location (`artifactLocation.uri`).
    pub uri: String,
    /// 1-based line for `physicalLocation.region.startLine`; 0 omits
    /// the region (corpus findings locate a file, not a line).
    pub line: u64,
}

/// Render a complete SARIF 2.1.0 document (compact, newline-terminated):
/// one run, the full rule catalog under `tool.driver`, one `result` per
/// finding.
pub fn render_sarif(
    tool: &str,
    information_uri: &str,
    rules: &[SarifRule<'_>],
    results: &[SarifResult<'_>],
) -> String {
    let rules = rules.iter().map(|r| {
        Json::obj()
            .with("id", r.id)
            .with("name", r.name)
            .with("shortDescription", Json::obj().with("text", r.summary))
            .with("helpUri", r.help_uri)
            .with("properties", Json::obj().with("citation", r.citation))
    });
    let results = results.iter().map(|f| {
        let mut location = Json::obj().with("artifactLocation", Json::obj().with("uri", &f.uri));
        if f.line > 0 {
            location.push("region", Json::obj().with("startLine", f.line));
        }
        Json::obj()
            .with("ruleId", f.rule_id)
            .with("level", f.level)
            .with("message", Json::obj().with("text", &f.message))
            .with(
                "locations",
                vec![Json::obj().with("physicalLocation", location)],
            )
    });
    let driver = Json::obj()
        .with("name", tool)
        .with("informationUri", information_uri)
        .with("rules", rules.collect::<Json>());
    let run = Json::obj()
        .with("tool", Json::obj().with("driver", driver))
        .with("results", results.collect::<Json>());
    let doc = Json::obj()
        .with(
            "$schema",
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        )
        .with("version", "2.1.0")
        .with("runs", vec![run]);
    format!("{}\n", doc.render(Layout::Compact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    /// The one shared SARIF schema test: the envelope parses, the
    /// driver is fully described, every result names a declared rule,
    /// and regions appear exactly when a line is known.
    #[test]
    fn sarif_envelope_is_wellformed_and_rule_closed() {
        let rules = [
            SarifRule {
                id: "T001",
                name: "first-rule",
                summary: "summary \"quoted\"",
                help_uri: "DESIGN.md#t",
                citation: "Someone et al.",
            },
            SarifRule {
                id: "T002",
                name: "second-rule",
                summary: "another",
                help_uri: "DESIGN.md#t",
                citation: "Someone else",
            },
        ];
        let results = [
            SarifResult {
                rule_id: "T002",
                level: "error",
                message: "bad\nthing".into(),
                uri: "src/lib.rs".into(),
                line: 42,
            },
            SarifResult {
                rule_id: "T001",
                level: "warning",
                message: "meh".into(),
                uri: "app/model.rb".into(),
                line: 0,
            },
        ];
        let doc = parse(&render_sarif("feral-test", "DESIGN.md#x", &rules, &results))
            .expect("emitter must produce parseable JSON");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let driver = run.get("tool").unwrap().get("driver").unwrap();
        assert_eq!(
            driver.get("name").and_then(Json::as_str),
            Some("feral-test")
        );
        assert_eq!(
            driver.get("informationUri").and_then(Json::as_str),
            Some("DESIGN.md#x")
        );
        let declared: Vec<&str> = driver
            .get("rules")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                assert!(r.get("shortDescription").unwrap().get("text").is_some());
                assert!(r.get("properties").unwrap().get("citation").is_some());
                r.get("id").and_then(Json::as_str).unwrap()
            })
            .collect();
        assert_eq!(declared, ["T001", "T002"]);
        let emitted = run.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(emitted.len(), 2);
        for r in emitted {
            let id = r.get("ruleId").and_then(Json::as_str).unwrap();
            assert!(declared.contains(&id), "result rule {id} not declared");
            let loc = &r.get("locations").and_then(Json::as_arr).unwrap()[0];
            assert!(loc
                .get("physicalLocation")
                .unwrap()
                .get("artifactLocation")
                .unwrap()
                .get("uri")
                .is_some());
        }
        let with_region = emitted[0].get("locations").and_then(Json::as_arr).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        assert_eq!(
            with_region
                .get("region")
                .and_then(|reg| reg.get("startLine"))
                .and_then(Json::as_u64),
            Some(42)
        );
        let without = emitted[1].get("locations").and_then(Json::as_arr).unwrap()[0]
            .get("physicalLocation")
            .unwrap();
        assert!(without.get("region").is_none());
    }
}
