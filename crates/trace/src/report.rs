//! Run-report exporters: the machine-readable artifact every
//! experiment run leaves behind.
//!
//! A [`RunReport`] is a list of experiment cells, each carrying its
//! workload shape, anomaly counts, a windowed engine-stats diff,
//! per-phase latency histogram summaries, and any anomaly provenance
//! records. Two wire formats:
//!
//! - **JSON** ([`RunReport::to_json`]): written as `BENCH_table1.json`
//!   by the table1 bench; [`validate_report`] re-parses and
//!   schema-checks a document (used by the tier-1 smoke gate and the
//!   golden-report test).
//! - **Prometheus text** ([`RunReport::to_prometheus`]): counters and
//!   latency summaries, one labelled series per cell.
//!
//! 64-bit hashes are emitted as hex *strings* — the JSON number path
//! is `f64` and would silently lose precision above 2^53.

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::{self, Json, Layout, Node};
use crate::provenance::{ProvenanceRecord, RacingTxn, Witness};
use std::fmt::Write as _;

/// Report schema version (bump on breaking JSON shape changes).
pub const REPORT_VERSION: u64 = 1;

/// One experiment cell: a workload run under one configuration.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Human label, e.g. `read-committed/feral`.
    pub label: String,
    /// Isolation level the cell ran under.
    pub isolation: String,
    /// Integrity enforcement (`feral`, `database`, `none`).
    pub enforcement: String,
    /// Worker threads.
    pub workers: usize,
    /// Rounds of the stress loop.
    pub rounds: usize,
    /// Concurrent same-key attempts per round.
    pub concurrent: usize,
    /// Duplicate keys materialised (anomaly count).
    pub duplicates: u64,
    /// Rows present at the end.
    pub rows: u64,
    /// Requests rejected by validation/constraints.
    pub rejected: u64,
    /// Windowed engine-stats diff, `(counter name, delta)` pairs.
    pub stats: Vec<(String, u64)>,
    /// Per-phase latency histograms, `(phase name, snapshot)` pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Explained anomalies with replayable witnesses.
    pub provenance: Vec<ProvenanceRecord>,
}

/// A full run report: metadata plus one entry per cell.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name, e.g. `table1`.
    pub report: String,
    /// Whether this was a `--smoke` run.
    pub smoke: bool,
    /// Workload seed.
    pub seed: u64,
    /// The cells.
    pub cells: Vec<CellReport>,
}

impl CellReport {
    fn to_json(&self) -> Json {
        let stats = self.stats.iter().map(|(n, v)| (n.clone(), Json::from(*v)));
        let hists = self
            .histograms
            .iter()
            .map(|(n, s)| (n.clone(), hist_json(s)));
        Json::obj()
            .with("label", &self.label)
            .with("isolation", &self.isolation)
            .with("enforcement", &self.enforcement)
            .with("workers", self.workers)
            .with("rounds", self.rounds)
            .with("concurrent", self.concurrent)
            .with("duplicates", self.duplicates)
            .with("rows", self.rows)
            .with("rejected", self.rejected)
            .with("stats", Json::Obj(stats.collect()))
            .with("histograms", Json::Obj(hists.collect()))
            .with(
                "provenance",
                self.provenance
                    .iter()
                    .map(provenance_json)
                    .collect::<Json>(),
            )
    }
}

fn hist_json(s: &HistogramSnapshot) -> Json {
    Json::obj()
        .with("count", s.count)
        .with("sum", s.sum)
        .with("max", s.max)
        .with("mean", Json::Num(s.mean(), 3))
        .with("p50", s.quantile(0.50))
        .with("p95", s.quantile(0.95))
        .with("p99", s.quantile(0.99))
        .with(
            "buckets",
            s.sparse()
                .into_iter()
                .map(|(i, c)| vec![i as u64, c])
                .collect::<Json>(),
        )
}

fn provenance_json(p: &ProvenanceRecord) -> Json {
    let racing = p.racing.iter().map(|r| {
        Json::obj()
            .with("worker", r.worker)
            .with("txn", r.txn)
            .with("probe_seq", r.probe_seq)
            .with("probe_ts", r.probe_ts)
            .with("write_seq", r.write_seq)
            .with("write_ts", r.write_ts)
    });
    let witness = p.witness.as_ref().map(|w| {
        Json::obj()
            .with("scenario", &w.scenario)
            .with("isolation", &w.isolation)
            .with("guard", &w.guard)
            .with("workers", w.workers)
            .with("replay", &w.replay)
            .with("message", &w.message)
    });
    Json::obj()
        .with("anomaly", &p.anomaly)
        .with("table", &p.table)
        .with("key", &p.key)
        .with("key_hash", format!("{:#018x}", p.key_hash))
        .with("overlap_nanos", p.overlap_nanos)
        .with("racing", racing.collect::<Json>())
        .with("witness", witness)
        .with("flight", p.flight.iter().collect::<Json>())
}

impl RunReport {
    /// Serialise to the JSON wire format (indented, newline-terminated).
    pub fn to_json(&self) -> String {
        let doc = Json::obj()
            .with("report", &self.report)
            .with("version", REPORT_VERSION)
            .with("smoke", self.smoke)
            .with("seed", self.seed)
            .with(
                "cells",
                self.cells.iter().map(CellReport::to_json).collect::<Json>(),
            );
        format!("{}\n", doc.render(Layout::Indented))
    }

    /// Serialise to Prometheus text exposition format: anomaly and
    /// engine counters plus latency summaries, one labelled series per
    /// cell.
    pub fn to_prometheus(&self) -> String {
        let mut prom = Prometheus::default();
        for (name, help, value) in [
            (
                "feral_duplicates_total",
                "Duplicate rows admitted past a feral uniqueness check.",
                (|c: &CellReport| c.duplicates) as fn(&CellReport) -> u64,
            ),
            (
                "feral_rejected_total",
                "Writes rejected by a validation or constraint.",
                |c: &CellReport| c.rejected,
            ),
        ] {
            prom.family(name, "counter", help);
            for c in &self.cells {
                prom.sample(name, &[("cell", &c.label)], value(c));
            }
        }
        prom.family(
            "feral_engine_events_total",
            "counter",
            "Engine statistics counters over the cell's measurement window.",
        );
        for c in &self.cells {
            for (name, value) in &c.stats {
                let labels = [("cell", c.label.as_str()), ("counter", name)];
                prom.sample("feral_engine_events_total", &labels, *value);
            }
        }
        prom.family(
            "feral_phase_latency_nanos",
            "summary",
            "Per-phase latency distribution in nanoseconds.",
        );
        for c in &self.cells {
            for (phase, snap) in &c.histograms {
                let labels = [("cell", c.label.as_str()), ("phase", phase)];
                prom.summary(
                    "feral_phase_latency_nanos",
                    &labels,
                    snap,
                    &[0.50, 0.95, 0.99],
                );
            }
        }
        prom.finish()
    }
}

/// Escape a Prometheus label value: backslash, double-quote, and
/// line-feed must be backslash-escaped per the text exposition format.
pub fn escape_label(value: &str) -> String {
    // backslash first, so the escapes added below are not re-escaped
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The one Prometheus text-exposition writer: every metric family
/// opens with its `# HELP`/`# TYPE` header, and every label value goes
/// through [`escape_label`], so the output survives a strict scrape
/// parser.
#[derive(Debug, Default)]
pub struct Prometheus {
    out: String,
}

impl Prometheus {
    /// Open a metric family (`kind`: `counter`, `gauge`, `summary`).
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}\n# TYPE {name} {kind}");
    }

    /// One sample line; no labels writes a bare `name value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            let labels: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            let _ = write!(self.out, "{{{}}}", labels.join(","));
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// A summary's quantile series, then its `_sum` and `_count`.
    pub fn summary(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        snap: &HistogramSnapshot,
        quantiles: &[f64],
    ) {
        for &q in quantiles {
            let q_label = q.to_string();
            let mut with_q = labels.to_vec();
            with_q.push(("quantile", &q_label));
            self.sample(name, &with_q, snap.quantile(q));
        }
        self.sample(&format!("{name}_sum"), labels, snap.sum);
        self.sample(&format!("{name}_count"), labels, snap.count);
    }

    /// The exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn validate_histogram(h: &Node) -> Result<(), String> {
    let count = h.get("count")?.u64()?;
    let sum = h.get("sum")?.u64()?;
    let max = h.get("max")?.u64()?;
    let mut pairs = Vec::new();
    for b in h.get("buckets")?.items()? {
        let [idx, c] = &b.items()?[..] else {
            return Err(b.error("bucket entry is not an [index, count] pair"));
        };
        pairs.push((idx.u64()? as usize, c.u64()?));
    }
    let snap = HistogramSnapshot::from_sparse(&pairs, count, sum, max).map_err(|e| h.error(e))?;
    if !snap.well_formed() {
        return Err(h.error(format_args!(
            "bucket counts do not sum to 'count' ({count})"
        )));
    }
    // re-derived quantiles are monotone in q, so agreement implies order
    for (q, key) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
        let claimed = h.get(key)?.u64()?;
        let recomputed = snap.quantile(q);
        if recomputed != claimed {
            return Err(h.error(format_args!(
                "q{q} mismatch (claimed {claimed}, recomputed {recomputed})"
            )));
        }
    }
    Ok(())
}

/// Parse a serialised run report and check its integrity claims: a
/// supported version, at least one cell, every histogram internally
/// consistent (bucket counts sum to `count`, quantiles re-derivable
/// from the buckets), and every provenance record naming at least two
/// racing transactions, with a non-empty replay command on its
/// witness. Returns the parsed document.
pub fn validate_report(text: &str) -> Result<Json, String> {
    let doc = json::parse(text)?;
    let report = doc.node("report");
    let version = report.get("version")?.u64()?;
    if version != REPORT_VERSION {
        return Err(report.error(format_args!(
            "unsupported version {version} (expected {REPORT_VERSION})"
        )));
    }
    let cells = report.get("cells")?.items()?;
    if cells.is_empty() {
        return Err(report.error("no cells"));
    }
    for cell in &cells {
        for (_, h) in cell.get("histograms")?.members()? {
            validate_histogram(&h)?;
        }
        for p in cell.get("provenance")?.items()? {
            if p.get("racing")?.items()?.len() < 2 {
                return Err(p.error("provenance names fewer than two racing txns"));
            }
            if let Some(witness) = p.opt("witness") {
                if witness.get("replay")?.str()?.is_empty() {
                    return Err(witness.error("witness replay command is empty"));
                }
            }
        }
    }
    Ok(doc)
}

/// A one-cell report with one witnessed duplicate-key provenance
/// record: the shared fixture for tests of this module and of the
/// report's outside consumers (`feral_bench::checkgate`).
#[doc(hidden)]
pub fn sample_report() -> RunReport {
    let h = Histogram::new();
    for v in [120u64, 450, 900, 88_000] {
        h.record(v);
    }
    RunReport {
        report: "table1".into(),
        smoke: true,
        seed: 42,
        cells: vec![CellReport {
            label: "read-committed/feral".into(),
            isolation: "read-committed".into(),
            enforcement: "feral".into(),
            workers: 4,
            rounds: 10,
            concurrent: 8,
            duplicates: 3,
            rows: 13,
            rejected: 0,
            stats: vec![("commits".into(), 40), ("validation_probes".into(), 80)],
            histograms: vec![("request".into(), h.snapshot())],
            provenance: vec![ProvenanceRecord {
                anomaly: "duplicate-key".into(),
                table: "key_values".into(),
                key: "key-1".into(),
                key_hash: 0xdeadbeefcafef00d,
                racing: vec![
                    RacingTxn {
                        worker: 1,
                        txn: 7,
                        probe_seq: 10,
                        probe_ts: 1000,
                        write_seq: 14,
                        write_ts: 1400,
                    },
                    RacingTxn {
                        worker: 2,
                        txn: 8,
                        probe_seq: 11,
                        probe_ts: 1100,
                        write_seq: 15,
                        write_ts: 1500,
                    },
                ],
                overlap_nanos: 300,
                witness: Some(Witness {
                    scenario: "uniqueness/read-committed/feral/2w".into(),
                    isolation: "read-committed".into(),
                    guard: "feral".into(),
                    workers: 2,
                    replay: "feral-sim replay --scenario uniqueness --seed 3".into(),
                    message: "duplicate key: key-1".into(),
                }),
                flight: vec!["seq=10 t=1000ns w1 txn=7 unique-probe a=0x1 b=0x2".into()],
            }],
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_and_validates() {
        let report = sample_report();
        let text = report.to_json();
        let doc = validate_report(&text).expect("valid report");
        let cells = doc.get("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("duplicates").unwrap().as_u64(), Some(3));
        let prov = cells[0].get("provenance").unwrap().as_arr().unwrap();
        assert_eq!(
            prov[0].get("key_hash").unwrap().as_str(),
            Some("0xdeadbeefcafef00d")
        );
    }

    #[test]
    fn validation_catches_corrupted_histograms() {
        let mut report = sample_report();
        report.cells[0].histograms[0].1.count += 1; // no longer sums
        assert!(validate_report(&report.to_json()).is_err());
    }

    #[test]
    fn validation_catches_singleton_racing_set() {
        let mut report = sample_report();
        report.cells[0].provenance[0].racing.truncate(1);
        assert!(validate_report(&report.to_json()).is_err());
    }

    #[test]
    fn prometheus_output_is_labelled_per_cell() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("feral_duplicates_total{cell=\"read-committed/feral\"} 3"));
        assert!(text.contains(
            "feral_engine_events_total{cell=\"read-committed/feral\",counter=\"validation_probes\"} 80"
        ));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("feral_phase_latency_nanos_count"));
    }

    #[test]
    fn prometheus_output_has_help_and_type_headers() {
        let text = sample_report().to_prometheus();
        for metric in [
            "feral_duplicates_total",
            "feral_rejected_total",
            "feral_engine_events_total",
            "feral_phase_latency_nanos",
        ] {
            let help = format!("# HELP {metric} ");
            let typ = format!("# TYPE {metric} ");
            assert!(text.contains(&help), "missing HELP for {metric}");
            assert!(text.contains(&typ), "missing TYPE for {metric}");
            // HELP must precede TYPE which must precede the first sample.
            let h = text.find(&help).unwrap();
            let t = text.find(&typ).unwrap();
            let s = text.find(&format!("{metric}{{")).unwrap();
            assert!(h < t && t < s, "header order wrong for {metric}");
        }
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let mut report = sample_report();
        report.cells[0].label = "quote\" slash\\ line\nend".into();
        let text = report.to_prometheus();
        assert!(text.contains("cell=\"quote\\\" slash\\\\ line\\nend\""));
        // No raw (unescaped) newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.contains("line\nend"));
        }
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }
}
