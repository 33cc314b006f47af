//! The artifact gates behind `checkreport`, as a library: each gate
//! parses and validates one artifact kind from the *outside*,
//! independent of the writer's self-validation, and [`GATES`] is the
//! table the binary dispatches on. The failure paths live here where
//! they are testable.

use feral_audit::AuditSnapshot;
use feral_trace::json;
use feral_trace::report::validate_report;
use std::collections::BTreeSet;

/// A gate: artifact text in, the summary printed after `OK` out.
pub type Gate = fn(&str) -> Result<String, String>;

/// `checkreport [FLAG] <artifact.json>`: the flag selecting each gate
/// (empty for the default table1 run-report gate).
pub const GATES: [(&str, Gate); 3] = [
    ("", check_report_text),
    ("--audit", check_audit_bench_text),
    ("--load", feral_net::validate_load_report),
];

/// Read `path`, then gate its text. A missing or unreadable file is a
/// gate failure, not a panic; every error names the path.
pub fn check_file(path: &str, gate: Gate) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    gate(&text).map_err(|e| format!("{path}: {e}"))
}

/// Gate a `BENCH_table1.json` report: validate it with
/// `feral_trace::report::validate_report`, then require that every cell
/// committed work and that at least one provenance record explains its
/// anomaly with a replayable `feral-sim` witness.
pub fn check_report_text(text: &str) -> Result<String, String> {
    let doc = validate_report(text)?;
    let cells = doc.node("report").get("cells")?.items()?;
    let mut witnessed = 0usize;
    for cell in &cells {
        let label = cell.get("label")?.str()?;
        let commits = cell
            .get("stats")?
            .opt("commits")
            .ok_or_else(|| format!("cell {label}: no commits counter"))?
            .u64()?;
        if commits == 0 {
            return Err(format!("cell {label}: zero commits"));
        }
        let provenance = cell.get("provenance")?.items()?;
        witnessed += provenance
            .iter()
            .filter(|p| p.opt("witness").is_some())
            .count();
    }
    if witnessed == 0 {
        return Err("no provenance record carries a replayable witness".to_string());
    }
    Ok(format!(
        "{} cells, {witnessed} witnessed provenance records",
        cells.len()
    ))
}

/// Gate a `BENCH_audit.json` artifact: one row per auditor mode with
/// committed work, every audited row embedding a snapshot that passes
/// the validating [`AuditSnapshot`] decode with zero anomaly cycles
/// (the certified plan must audit clean), and the writer's own gate
/// verdicts all true with the sampled-overhead ratio meeting its
/// recorded requirement.
pub fn check_audit_bench_text(text: &str) -> Result<String, String> {
    let doc = json::parse(text)?;
    let bench = doc.node("audit-bench");
    if bench.get("bench")?.str()? != "audit" {
        return Err("not an audit bench artifact (bench != \"audit\")".to_string());
    }
    let configs = bench.get("configs")?.items()?;
    let mut modes_seen = BTreeSet::new();
    for c in &configs {
        let name = c.get("config")?.str()?;
        let mode = c.get("audit_mode")?.str()?;
        modes_seen.insert(mode.split('/').next().unwrap_or(mode));
        if c.get("committed")?.u64()? == 0 {
            return Err(format!("config {name}: zero committed transactions"));
        }
        let snapshot = c.get("audit")?;
        if mode == "off" {
            continue;
        }
        if snapshot.is_null() {
            return Err(format!("config {name}: audited mode without a snapshot"));
        }
        AuditSnapshot::from_json(snapshot.value()).map_err(|e| format!("config {name}: {e}"))?;
        let cycles = c.get("cycles")?.u64()?;
        if cycles != 0 {
            return Err(format!(
                "config {name}: certified plan produced {cycles} anomaly cycles"
            ));
        }
    }
    for required in ["off", "sampled", "full"] {
        if !modes_seen.contains(required) {
            return Err(format!("artifact is missing the {required} auditor mode"));
        }
    }
    let gates = bench.get("gates")?;
    for verdict in ["overhead", "planned_runs_clean", "audit_schema", "pass"] {
        if !gates.get(verdict)?.bool()? {
            return Err(format!("gate verdict {verdict} is not true"));
        }
    }
    let ratio = gates.get("sampled_vs_off_ratio")?.f64()?;
    let required = gates.get("required")?.f64()?;
    if ratio < required {
        return Err(format!(
            "sampled_vs_off_ratio {ratio:.3} is below the required {required}"
        ));
    }
    Ok(format!(
        "{} auditor configs, sampled {ratio:.3}x off",
        configs.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::json::Layout;
    use feral_trace::report::sample_report;

    #[test]
    fn well_formed_witnessed_report_passes() {
        let summary = check_report_text(&sample_report().to_json()).expect("gate passes");
        assert_eq!(summary, "1 cells, 1 witnessed provenance records");
    }

    #[test]
    fn missing_file_is_a_gate_failure() {
        for (_, gate) in GATES {
            let err = check_file("/nonexistent/BENCH.json", gate).unwrap_err();
            assert!(err.contains("reading /nonexistent/BENCH.json"), "{err}");
        }
    }

    #[test]
    fn invalid_json_is_a_gate_failure() {
        assert!(check_report_text("{not json").is_err());
        assert!(check_report_text("").is_err());
        // valid JSON, wrong schema
        assert!(check_report_text("{\"tool\":\"other\"}").is_err());
    }

    #[test]
    fn zero_commit_cell_fails_the_gate() {
        let mut report = sample_report();
        report.cells[0].stats = vec![("commits".to_string(), 0)];
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(err.contains("zero commits"), "{err}");

        // a cell with no commits counter at all is equally fatal
        let mut report = sample_report();
        report.cells[0].stats = vec![("aborts".to_string(), 3)];
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(err.contains("no commits counter"), "{err}");
    }

    #[test]
    fn report_without_any_witness_fails_the_gate() {
        let mut report = sample_report();
        report.cells[0].provenance[0].witness = None;
        let err = check_report_text(&report.to_json()).unwrap_err();
        assert!(
            err.contains("no provenance record carries a replayable witness"),
            "{err}"
        );
    }

    /// A minimal well-formed audit bench artifact: three auditor modes,
    /// committed work everywhere, a real (schema-valid) embedded
    /// snapshot on the audited rows, and all writer gates true. With
    /// `full_has_snapshot: false` the full row's snapshot is nulled —
    /// the shape the gate must reject.
    fn audit_artifact(full_has_snapshot: bool) -> String {
        let auditor = feral_audit::Auditor::new(feral_audit::AuditMode::Full);
        auditor.observe_begin(1, 1);
        auditor.observe_commit(feral_audit::TxnFootprint {
            txn: 1,
            begin_ts: 1,
            commit_ts: 2,
            isolation: "serializable",
            template: Some("T_TEST"),
            reads: Vec::new(),
            writes: Vec::new(),
            sampled_out: false,
        });
        let snap = auditor.snapshot().to_json().render(Layout::Compact);
        let audited = |name: &str, mode: &str, snapshot: &str| {
            format!(
                "{{\"config\": \"{name}\", \"audit_mode\": \"{mode}\", \"committed\": 640, \
                 \"cycles\": 0, \"audit\": {snapshot}}}"
            )
        };
        format!(
            "{{\"bench\": \"audit\", \"configs\": [\
             {{\"config\": \"auditor-off\", \"audit_mode\": \"off\", \"committed\": 640, \
             \"audit\": null}}, {}, {}],\n\
             \"gates\": {{\"sampled_vs_off_ratio\": 0.973, \"required\": 0.95, \
             \"full_vs_off_ratio\": 0.61, \"overhead\": true, \"planned_runs_clean\": true, \
             \"audit_schema\": true, \"pass\": true}}}}",
            audited("sampled", "sampled/64", &snap),
            audited(
                "full",
                "full",
                if full_has_snapshot { &snap } else { "null" }
            ),
        )
    }

    #[test]
    fn well_formed_audit_artifact_passes() {
        let summary = check_audit_bench_text(&audit_artifact(true)).expect("gate passes");
        assert_eq!(summary, "3 auditor configs, sampled 0.973x off");
    }

    #[test]
    fn audit_artifact_failures_are_gate_failures() {
        // not an audit artifact at all
        assert!(check_audit_bench_text("{\"bench\": \"other\"}").is_err());
        let good = audit_artifact(true);
        // an anomaly cycle on an audited row (the pattern includes the
        // neighbouring keys so the embedded snapshot's own cycles
        // counter is left alone)
        let err = check_audit_bench_text(
            &good.replace(", \"cycles\": 0, \"audit\"", ", \"cycles\": 2, \"audit\""),
        )
        .unwrap_err();
        assert!(err.contains("anomaly cycles"), "{err}");
        // a failed writer-side verdict
        let err =
            check_audit_bench_text(&good.replace("\"pass\": true", "\"pass\": false")).unwrap_err();
        assert!(err.contains("pass"), "{err}");
        // an overhead ratio below the recorded requirement
        let err = check_audit_bench_text(&good.replace(
            "\"sampled_vs_off_ratio\": 0.973",
            "\"sampled_vs_off_ratio\": 0.91",
        ))
        .unwrap_err();
        assert!(err.contains("below the required"), "{err}");
        // an audited mode whose snapshot went missing
        let err = check_audit_bench_text(&audit_artifact(false)).unwrap_err();
        assert!(err.contains("without a snapshot"), "{err}");
        // a missing mode row
        let err = check_audit_bench_text(
            &good.replace("\"audit_mode\": \"sampled/64\"", "\"audit_mode\": \"full\""),
        )
        .unwrap_err();
        assert!(err.contains("missing the sampled"), "{err}");
    }
}
