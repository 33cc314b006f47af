//! Live-engine audit tests: the runtime dependency-graph observer
//! wired into the commit pipeline must certify real executions —
//! detecting the paper's probe-then-insert race and classic write skew
//! as they happen, staying silent on serializable executions, and
//! mirroring its counters into [`feral_db::Stats`].

use feral_db::{
    AuditMode, ColumnDef, Config, DataType, Database, Datum, IsolationLevel, IsolationPlan,
    Predicate, TableSchema,
};

fn audited_db(iso: IsolationLevel, mode: AuditMode) -> Database {
    let db = Database::new(Config {
        default_isolation: iso,
        audit_mode: mode,
        ..Config::default()
    });
    db.create_table(TableSchema::new(
        "kv",
        vec![
            ColumnDef::new("k", DataType::Text),
            ColumnDef::new("v", DataType::Int),
        ],
    ))
    .unwrap();
    db
}

/// Interleaved probe-then-insert on two disjoint keys: each
/// transaction's predicate read races the other's insert — write skew.
/// Snapshot isolation admits it; the auditor must catch it live.
fn run_write_skew(
    db: &Database,
    iso: IsolationLevel,
) -> (Result<(), feral_db::DbError>, Result<(), feral_db::DbError>) {
    let mut t1 = db.txn().isolation(iso).label("probe-insert:kv.a").begin();
    let mut t2 = db.txn().isolation(iso).label("probe-insert:kv.b").begin();
    assert!(t1.scan("kv", &Predicate::eq(1, "a")).unwrap().is_empty());
    assert!(t2.scan("kv", &Predicate::eq(1, "b")).unwrap().is_empty());
    t1.insert_pairs("kv", &[("k", Datum::text("b")), ("v", Datum::Int(1))])
        .unwrap();
    t2.insert_pairs("kv", &[("k", Datum::text("a")), ("v", Datum::Int(2))])
        .unwrap();
    (t1.commit(), t2.commit())
}

#[test]
fn snapshot_isolation_write_skew_is_detected_live() {
    let db = audited_db(IsolationLevel::Snapshot, AuditMode::Full);
    let (r1, r2) = run_write_skew(&db, IsolationLevel::Snapshot);
    r1.unwrap();
    r2.unwrap();
    let snap = db.audit_snapshot().expect("auditing is on");
    assert_eq!(snap.cycles, 1, "SI admitted the skew; auditor must see it");
    let v = &snap.verdicts[0];
    assert_eq!(v.txns.len(), 2);
    assert!(v.templates.iter().any(|t| t.starts_with("probe-insert:kv")));
    assert!(v.cells.iter().all(|c| c.ends_with("@snapshot")));
    // Engine stats mirror the auditor's counters.
    let stats = db.stats().snapshot();
    assert_eq!(stats.audit_cycles, 1);
    assert!(stats.audit_edges >= 2);
    assert_eq!(stats.audit_drops, 0);
    // The snapshot round-trips through the export schema.
    let text = snap.to_json().render(feral_trace::json::Layout::Compact);
    let doc = feral_trace::json::parse(&text).unwrap();
    assert_eq!(feral_db::AuditSnapshot::from_json(&doc).unwrap(), snap);
}

#[test]
fn serializable_blocks_the_skew_and_audits_clean() {
    let db = audited_db(IsolationLevel::Serializable, AuditMode::Full);
    let (r1, r2) = run_write_skew(&db, IsolationLevel::Serializable);
    assert!(
        r1.is_err() || r2.is_err(),
        "serializable must abort one side"
    );
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.cycles, 0, "no anomaly survives serializable");
    assert_eq!(db.stats().snapshot().audit_cycles, 0);
}

#[test]
fn audit_off_has_no_observer() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Off);
    assert!(db.audit_snapshot().is_none());
    assert!(db.audit_mode().is_off());
    let mut tx = db.txn().begin();
    tx.insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
        .unwrap();
    tx.commit().unwrap();
    assert_eq!(db.stats().snapshot().audit_edges, 0);
}

#[test]
fn sampled_mode_still_counts_every_commit() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Sampled(4));
    for i in 0..16i64 {
        let mut tx = db.txn().label("bulk-insert:kv").begin();
        tx.insert_pairs(
            "kv",
            &[("k", Datum::text(format!("k{i}"))), ("v", Datum::Int(i))],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.mode, "sampled/4");
    assert_eq!(
        snap.footprints, 16,
        "write footprints are never sampled out"
    );
    let cell = snap
        .cells
        .iter()
        .find(|c| c.template == "bulk-insert:kv")
        .expect("plan cell attributed");
    assert_eq!(cell.commits, 16);
    assert_eq!(cell.isolation, "read committed");
}

#[test]
fn unplanned_templates_bump_the_failsafe_counter() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Full);
    let mut plan = IsolationPlan::new(IsolationLevel::Serializable);
    plan.assign("known-template", IsolationLevel::ReadCommitted);
    assert!(plan.assigned("known-template"));
    assert!(!plan.assigned("unknown-template"));

    db.txn()
        .planned(&plan, "known-template")
        .run(|_| Ok(()))
        .unwrap();
    assert_eq!(db.stats().snapshot().plan_failsafe_escalations, 0);

    let tx = db.txn().planned(&plan, "unknown-template");
    let t = tx.begin();
    assert_eq!(t.isolation(), IsolationLevel::Serializable, "fail-safe");
    drop(t);
    assert_eq!(db.stats().snapshot().plan_failsafe_escalations, 1);
}

#[test]
fn aborted_transactions_leave_no_footprint() {
    let db = audited_db(IsolationLevel::ReadCommitted, AuditMode::Full);
    let mut tx = db.txn().label("doomed").begin();
    tx.insert_pairs("kv", &[("k", Datum::text("x")), ("v", Datum::Int(1))])
        .unwrap();
    tx.rollback();
    let snap = db.audit_snapshot().unwrap();
    assert_eq!(snap.footprints, 0);
    assert!(snap.cells.iter().all(|c| c.template != "doomed"));
}
