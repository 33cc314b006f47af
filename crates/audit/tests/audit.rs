//! Integration tests for feral-audit: cycle detection on staged
//! anomalies, deterministic replay of identical footprint streams, the
//! watermark-GC soundness theorem (GC never loses a cycle), sampling
//! semantics, and drop accounting under buffer saturation.

use feral_audit::{
    column_value_hash, AuditMode, AuditSnapshot, Auditor, ReadRecord, ReadTarget, TxnFootprint,
    WriteRecord, MAX_VERDICTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

const TABLE: u64 = 0xfeed;

fn row_read(row: u64, read_ts: u64) -> ReadRecord {
    ReadRecord {
        table: TABLE,
        target: ReadTarget::Row(row),
        read_ts,
    }
}

fn row_write(row: u64, value: u64) -> WriteRecord {
    WriteRecord {
        table: TABLE,
        row,
        old: None,
        new: Some(vec![column_value_hash(0, &value.to_le_bytes())]),
    }
}

fn footprint(
    txn: u64,
    begin_ts: u64,
    commit_ts: u64,
    reads: Vec<ReadRecord>,
    writes: Vec<WriteRecord>,
) -> TxnFootprint {
    TxnFootprint {
        txn,
        begin_ts,
        commit_ts,
        isolation: "snapshot-isolation",
        template: Some("test-template"),
        reads,
        writes,
        sampled_out: false,
    }
}

/// Classic write skew: both transactions read the other's row off the
/// same snapshot, then write their own. Serializable forbids it; the
/// graph must see the rw/rw cycle.
#[test]
fn write_skew_produces_an_anomaly_verdict() {
    let auditor = Auditor::new(AuditMode::Full);
    auditor.observe_begin(1, 10);
    auditor.observe_begin(2, 10);
    auditor.observe_commit(footprint(
        1,
        10,
        11,
        vec![row_read(7, 10)],
        vec![row_write(8, 100)],
    ));
    auditor.observe_commit(footprint(
        2,
        10,
        12,
        vec![row_read(8, 10)],
        vec![row_write(7, 200)],
    ));
    let snap = auditor.snapshot();
    assert_eq!(snap.cycles, 1, "write skew must close a cycle");
    let v = &snap.verdicts[0];
    assert!(v
        .cycle
        .iter()
        .any(|e| e.kind == feral_audit::EdgeKind::ReadWrite));
    assert_eq!(v.templates, vec!["test-template".to_string()]);
    assert_eq!(
        v.cells,
        vec!["test-template@snapshot-isolation".to_string()]
    );
    // The serialised snapshot round-trips through schema validation.
    let text = snap.to_json().render(feral_trace::json::Layout::Compact);
    let doc = feral_trace::json::parse(&text).expect("snapshot parses");
    assert_eq!(
        AuditSnapshot::from_json(&doc).expect("snapshot validates"),
        snap
    );
}

/// A serializable-looking history (each txn reads the latest committed
/// state before writing) stays clean.
#[test]
fn serial_history_stays_clean() {
    let auditor = Auditor::new(AuditMode::Full);
    for i in 1..=20u64 {
        auditor.observe_begin(i, 5);
    }
    for i in 1..=20u64 {
        // Read-committed style: each statement reads the freshest
        // committed state (read_ts right before the commit).
        auditor.observe_commit(footprint(
            i,
            5,
            i * 10 + 1,
            vec![row_read(i % 4, i * 10)],
            vec![row_write(i % 4, i)],
        ));
    }
    let snap = auditor.snapshot();
    assert_eq!(snap.cycles, 0);
    assert!(snap.edges > 0, "serial history still has forward edges");
    assert!(snap.gc_reclaims > 0, "idle watermark reclaims the window");
}

/// Generate a contended footprint stream: overlapping snapshots over a
/// small row set, so rw anti-dependencies (and occasional cycles) are
/// common.
fn random_stream(seed: u64, len: u64) -> Vec<TxnFootprint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for i in 1..=len {
        let begin = i.saturating_sub(rng.random_range(0u64..6));
        let commit = i + 1;
        let reads = (0..rng.random_range(0usize..3))
            .map(|_| row_read(rng.random_range(0u64..8), begin))
            .collect();
        let writes = (0..rng.random_range(0usize..3))
            .map(|_| row_write(rng.random_range(0u64..8), i))
            .collect();
        out.push(footprint(i, begin, commit, reads, writes));
    }
    out
}

fn run_stream(auditor: &Auditor, stream: &[TxnFootprint]) {
    for fp in stream {
        auditor.observe_begin(fp.txn, fp.begin_ts);
    }
    for fp in stream {
        auditor.observe_commit(fp.clone());
    }
}

/// Same seed → byte-identical audit report (edge counts, cycle
/// counts, verdicts, per-cell counters).
#[test]
fn identical_streams_replay_to_identical_reports() {
    let stream = random_stream(0xfe2a1, 400);
    let (a, b) = (Auditor::new(AuditMode::Full), Auditor::new(AuditMode::Full));
    run_stream(&a, &stream);
    run_stream(&b, &stream);
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.to_json(), sb.to_json());
    assert!(sa.edges > 0, "contended stream must produce edges");
}

/// Sampled mode audits a strict slice of full mode: fewer or equal
/// edges and cycles, while commit accounting (footprints, per-cell
/// counts) never degrades — sampled-out transactions still deliver a
/// commit marker.
#[test]
fn sampling_is_a_subset_of_full_capture() {
    let stream = random_stream(0xbeef, 300);
    let full = Auditor::new(AuditMode::Full);
    run_stream(&full, &stream);
    let sampled = Auditor::new(AuditMode::Sampled(4));
    for fp in &stream {
        sampled.observe_begin(fp.txn, fp.begin_ts);
    }
    for fp in &stream {
        let mut fp = fp.clone();
        if !sampled.samples(fp.txn) {
            fp.reads.clear();
            fp.writes.clear();
            fp.sampled_out = true;
        }
        sampled.observe_commit(fp);
    }
    let (sf, ss) = (full.snapshot(), sampled.snapshot());
    assert!(ss.edges <= sf.edges);
    assert!(ss.cycles <= sf.cycles);
    assert_eq!(ss.footprints, sf.footprints, "every commit is counted");
    assert!(sampled.samples(4) && !sampled.samples(5));
}

/// Retained verdicts are capped; the cycle counter keeps going.
#[test]
fn verdicts_are_capped_but_counted() {
    let auditor = Auditor::new(AuditMode::Full);
    let mut txn = 0u64;
    for i in 0..(MAX_VERDICTS as u64 + 8) {
        let (t1, t2) = (txn + 1, txn + 2);
        txn += 2;
        let ts = i * 100 + 10;
        // Disjoint row pair per iteration → one independent write-skew
        // cycle each.
        let (r1, r2) = (1_000 + i * 2, 1_001 + i * 2);
        auditor.observe_begin(t1, ts);
        auditor.observe_begin(t2, ts);
        auditor.observe_commit(footprint(
            t1,
            ts,
            ts + 1,
            vec![row_read(r1, ts)],
            vec![row_write(r2, i)],
        ));
        auditor.observe_commit(footprint(
            t2,
            ts,
            ts + 2,
            vec![row_read(r2, ts)],
            vec![row_write(r1, i)],
        ));
    }
    let snap = auditor.snapshot();
    assert_eq!(snap.cycles, MAX_VERDICTS as u64 + 8);
    assert_eq!(snap.verdicts.len(), MAX_VERDICTS);
}

/// Footprint conservation under concurrent hammering with a tiny
/// buffer: every commit is either ingested or counted as dropped, and
/// the graph never sees a torn footprint.
#[test]
fn saturation_accounts_for_every_footprint() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 500;
    let auditor = Arc::new(Auditor::with_capacity(AuditMode::Full, 2));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let auditor = auditor.clone();
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let txn = t * PER_THREAD + i + 1;
                    auditor.observe_begin(txn, txn);
                    auditor.observe_commit(footprint(
                        txn,
                        txn,
                        txn + 1,
                        vec![row_read(txn % 8, txn)],
                        vec![row_write(txn % 8, txn)],
                    ));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = auditor.snapshot();
    assert_eq!(
        snap.footprints + snap.drops,
        THREADS * PER_THREAD,
        "ingested + dropped must cover every commit"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The watermark-GC soundness theorem: an auditor whose window is
    /// garbage-collected behind the oldest active transaction detects
    /// exactly as many cycles as one that never reclaims anything —
    /// GC never drops an edge belonging to a cycle that is still
    /// detectable.
    #[test]
    fn gc_never_loses_a_cycle(seed in any::<u64>(), len in 50u64..300) {
        let stream = random_stream(seed, len);
        let gced = Auditor::new(AuditMode::Full);
        run_stream(&gced, &stream);
        let pinned = Auditor::new(AuditMode::Full);
        // A sentinel active transaction with begin_ts 0 pins the
        // watermark at zero: GC becomes a no-op.
        pinned.observe_begin(u64::MAX, 0);
        run_stream(&pinned, &stream);
        let (sg, sp) = (gced.snapshot(), pinned.snapshot());
        prop_assert_eq!(sp.gc_reclaims, 0, "pinned auditor must not reclaim");
        prop_assert_eq!(sg.cycles, sp.cycles, "GC lost or invented a cycle");
        prop_assert_eq!(sg.verdicts.len(), sp.verdicts.len());
        prop_assert_eq!(sg.footprints, sp.footprints);
        // GC may skip edges into reclaimed nodes, never add new ones.
        prop_assert!(sg.edges <= sp.edges);
    }
}
