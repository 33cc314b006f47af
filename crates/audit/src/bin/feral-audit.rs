//! `feral-audit` — read back a saved audit snapshot and render it.
//!
//! ```text
//! feral-audit report --in results/BENCH_audit.json   # human-readable
//! feral-audit report --in FILE --prom                # Prometheus text
//! feral-audit report --in FILE --json                # validated JSON
//! feral-audit report --demo                          # staged anomaly
//! ```
//!
//! `--in` accepts either a bare snapshot (the output of
//! `AuditSnapshot::to_json`) or a commitbench report whose top-level
//! `audit` key holds one. Exit codes follow the house convention: `1`
//! when the snapshot carries anomaly cycles (or fails `--validate`),
//! `2` for usage errors.

use feral_audit::{
    AuditMode, AuditSnapshot, Auditor, ReadRecord, ReadTarget, TxnFootprint, WriteRecord,
};
use feral_cli::{die, render_help, write_out, Args, EXIT_DEVIATION};
use feral_trace::json::{self, Json, Layout};
use std::process::ExitCode;

const TOOL: &str = "feral-audit";

const USAGE: &str = "usage: feral-audit report (--in FILE | --demo) [--prom | --json] \
                     [--out PATH] [--validate] (--help for details)";

fn help() -> String {
    render_help(
        TOOL,
        "render and validate saved runtime-audit snapshots",
        "  feral-audit report (--in FILE | --demo) [--prom]\n",
        "  --in FILE         a bare snapshot, or a commitbench report embedding one\n\
         \x20 --demo            stage the paper's motivating duplicate-signup race\n\
         \x20 --prom            Prometheus text exposition instead of text/JSON\n",
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::from_iter(argv.clone());
    if args.has("help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) != Some("report") {
        die(TOOL, USAGE);
    }
    let snap = if args.has("demo") {
        demo_snapshot()
    } else {
        let Some(path) = args.get_str("in") else {
            die(TOOL, &format!("need --in FILE or --demo\n{USAGE}"))
        };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| die(TOOL, &format!("cannot read {path}: {err}")));
        load_snapshot(&text).unwrap_or_else(|err| die(TOOL, &format!("{path}: {err}")))
    };
    if args.has("validate") {
        if let Err(err) = AuditSnapshot::from_json(&snap.to_json()) {
            eprintln!("{TOOL}: snapshot fails the export schema: {err}");
            return ExitCode::from(EXIT_DEVIATION);
        }
    }
    let rendered = if args.has("prom") {
        snap.to_prometheus()
    } else if args.has("json") {
        let framed = Layout::Framed {
            compact_rows: false,
        };
        format!("{}\n", snap.to_json().render(framed))
    } else {
        snap.render_text()
    };
    write_out(TOOL, args.get_str("out"), &rendered);
    if snap.cycles > 0 {
        ExitCode::from(EXIT_DEVIATION)
    } else {
        ExitCode::SUCCESS
    }
}

/// Accept a bare snapshot, or an artifact embedding snapshots under a
/// top-level `audit` key or in its rows (`configs[*].audit` in
/// `BENCH_audit.json`, `ablation[*].audit` in `BENCH_load.json`) — the
/// first snapshot with cycles wins, else the first.
fn load_snapshot(text: &str) -> Result<AuditSnapshot, String> {
    let doc = json::parse(text)?;
    if doc.get("mode").is_some() && doc.get("verdicts").is_some() {
        return AuditSnapshot::from_json(&doc);
    }
    if let Some(audit) = doc.get("audit") {
        return AuditSnapshot::from_json(audit);
    }
    let Json::Obj(members) = &doc else {
        return Err("not a JSON object".into());
    };
    let snaps: Vec<&Json> = members
        .iter()
        .filter_map(|(_, rows)| rows.as_arr())
        .flatten()
        .filter_map(|row| row.get("audit").filter(|a| **a != Json::Null))
        .collect();
    let cyclic = snaps
        .iter()
        .find(|a| a.get("cycles").and_then(Json::as_u64) > Some(0));
    match cyclic.or(snaps.first()) {
        Some(best) => AuditSnapshot::from_json(best),
        None => Err(
            "no audit snapshot found (expected a bare snapshot, an 'audit' key, \
                     or rows carrying one)"
                .into(),
        ),
    }
}

/// Stage the paper's motivating race — two Read Committed signups
/// probe-then-insert the same email — and run it through a real
/// [`Auditor`] so the demo exercises the live pipeline end to end.
fn demo_snapshot() -> AuditSnapshot {
    let auditor = Auditor::new(AuditMode::Full);
    let table = feral_trace::fnv64(b"signups");
    let email = feral_audit::column_value_hash(1, b"casey@example.com");
    let probe = |read_ts| ReadRecord {
        table,
        target: ReadTarget::Pred(vec![email]),
        read_ts,
    };
    let insert = |row| WriteRecord {
        table,
        row,
        old: None,
        new: Some(vec![email]),
    };
    auditor.observe_begin(7, 10);
    auditor.observe_begin(8, 10);
    // Both probes run at ts 10 and see no row; both inserts commit.
    auditor.observe_commit(TxnFootprint {
        txn: 7,
        begin_ts: 10,
        commit_ts: 11,
        isolation: "read-committed",
        template: Some("uniqueness-probe-insert:signups.email"),
        reads: vec![probe(10)],
        writes: vec![insert(100)],
        sampled_out: false,
    });
    auditor.observe_commit(TxnFootprint {
        txn: 8,
        begin_ts: 10,
        commit_ts: 12,
        isolation: "read-committed",
        template: Some("uniqueness-probe-insert:signups.email"),
        reads: vec![probe(10)],
        writes: vec![insert(101)],
        sampled_out: false,
    });
    auditor.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document holding `rows` under the top-level array `key`, each
    /// row's `audit` member set to the given snapshot (or `null`).
    fn doc(key: &str, rows: &[Option<&AuditSnapshot>]) -> String {
        let rows = rows
            .iter()
            .map(|snap| Json::obj().with("audit", snap.map_or(Json::Null, |s| s.to_json())))
            .collect();
        Json::obj()
            .with("bench", "test")
            .with(key, Json::Arr(rows))
            .render(Layout::Compact)
    }

    #[test]
    fn snapshots_are_found_in_artifact_rows() {
        let cyclic = demo_snapshot();
        let quiet = Auditor::new(AuditMode::Full).snapshot();
        assert!(cyclic.cycles > 0 && quiet.cycles == 0);
        let bare = cyclic.to_json().render(Layout::Compact);
        assert_eq!(load_snapshot(&bare).unwrap(), cyclic);
        let keyed = Json::obj()
            .with("audit", quiet.to_json())
            .render(Layout::Compact);
        assert_eq!(load_snapshot(&keyed).unwrap(), quiet);
        // BENCH_audit.json shape: the auditor-off row is null and skipped
        let configs = doc("configs", &[None, Some(&quiet)]);
        assert_eq!(load_snapshot(&configs).unwrap(), quiet);
        // BENCH_load.json shape: a snapshot with cycles beats the first
        let ablation = doc("ablation", &[Some(&quiet), None, Some(&cyclic)]);
        assert_eq!(load_snapshot(&ablation).unwrap(), cyclic);
        let err = load_snapshot(&doc("configs", &[None])).unwrap_err();
        assert!(err.contains("no audit snapshot found"), "{err}");
    }

    #[test]
    fn the_checked_in_audit_artifact_loads() {
        let text = include_str!("../../../../results/BENCH_audit.json");
        load_snapshot(text).expect("results/BENCH_audit.json carries a snapshot");
    }
}
