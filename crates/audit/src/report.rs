//! Export surface: JSON snapshot (with its validating decode),
//! Prometheus text, and human-readable rendering for the audit section
//! of `results/BENCH_audit.json`.

use crate::graph::{AnomalyVerdict, CycleEdge, EdgeKind};
use feral_trace::json::{Json, Node};
use feral_trace::report::Prometheus;

/// Per plan-cell audit counters in export form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellAudit {
    /// Template key (`"?"` for unlabelled transactions).
    pub template: String,
    /// Isolation level name the cell ran at.
    pub isolation: String,
    /// Committed transactions attributed to the cell.
    pub commits: u64,
    /// Anomaly cycles touching the cell.
    pub anomalies: u64,
}

/// Point-in-time copy of the whole audit surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Capture mode name (`off` / `sampled/N` / `full`).
    pub mode: String,
    /// Committed-transaction footprints ingested.
    pub footprints: u64,
    /// Dependency edges observed.
    pub edges: u64,
    /// Anomaly cycles found.
    pub cycles: u64,
    /// Footprints dropped on buffer saturation.
    pub drops: u64,
    /// Completed nodes reclaimed by watermark GC.
    pub gc_reclaims: u64,
    /// Live nodes in the window right now.
    pub window_depth: u64,
    /// Peak live nodes over the run.
    pub window_peak: u64,
    /// Current GC watermark timestamp.
    pub watermark: u64,
    /// Per plan-cell counters, template-then-isolation ordered.
    pub cells: Vec<CellAudit>,
    /// Retained anomaly verdicts (capped at
    /// [`crate::MAX_VERDICTS`]; `cycles` keeps counting past the cap).
    pub verdicts: Vec<AnomalyVerdict>,
}

impl AuditSnapshot {
    /// The snapshot as a JSON value (the `audit` object embedded in
    /// `BENCH_audit.json` and printed by `feral-audit report --json`).
    pub fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            Json::obj()
                .with("template", &c.template)
                .with("isolation", &c.isolation)
                .with("commits", c.commits)
                .with("anomalies", c.anomalies)
        });
        Json::obj()
            .with("mode", &self.mode)
            .with("footprints", self.footprints)
            .with("edges", self.edges)
            .with("cycles", self.cycles)
            .with("drops", self.drops)
            .with("gc_reclaims", self.gc_reclaims)
            .with("window_depth", self.window_depth)
            .with("window_peak", self.window_peak)
            .with("watermark", self.watermark)
            .with("cells", cells.collect::<Json>())
            .with(
                "verdicts",
                self.verdicts.iter().map(verdict_json).collect::<Json>(),
            )
    }

    /// Decode and validate a serialised snapshot. Beyond structure this
    /// enforces the snapshot's integrity claims: per-cell anomaly
    /// counts require a matching global cycle count, and every
    /// verdict's cycle has at least two distinct transactions, at least
    /// one rw edge, and racing endpoints drawn from the cycle.
    pub fn from_json(doc: &Json) -> Result<AuditSnapshot, String> {
        let root = doc.node("audit");
        let mode = root.get("mode")?;
        if crate::AuditMode::parse(mode.str()?).is_none() {
            return Err(mode.error(format_args!("unknown mode '{}'", mode.str()?)));
        }
        let u = |key: &str| root.get(key)?.u64();
        let cells = root
            .get("cells")?
            .items()?
            .iter()
            .map(|c| {
                Ok(CellAudit {
                    template: c.get("template")?.str()?.to_string(),
                    isolation: c.get("isolation")?.str()?.to_string(),
                    commits: c.get("commits")?.u64()?,
                    anomalies: c.get("anomalies")?.u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let snap = AuditSnapshot {
            mode: mode.str()?.to_string(),
            footprints: u("footprints")?,
            edges: u("edges")?,
            cycles: u("cycles")?,
            drops: u("drops")?,
            gc_reclaims: u("gc_reclaims")?,
            window_depth: u("window_depth")?,
            window_peak: u("window_peak")?,
            watermark: u("watermark")?,
            cells,
            verdicts: root
                .get("verdicts")?
                .items()?
                .iter()
                .map(decode_verdict)
                .collect::<Result<_, _>>()?,
        };
        if snap.cells.iter().any(|c| c.anomalies > 0) && snap.cycles == 0 {
            return Err(root.error("cells carry anomalies but 'cycles' is 0"));
        }
        if snap.cycles > 0 && snap.verdicts.is_empty() {
            return Err(root.error("cycles found but no verdict retained"));
        }
        Ok(snap)
    }

    /// Prometheus text exposition of the audit surface.
    pub fn to_prometheus(&self) -> String {
        let mut prom = Prometheus::default();
        for (name, kind, help, value) in [
            (
                "feral_audit_footprints_total",
                "counter",
                "Committed-transaction footprints ingested by the runtime auditor.",
                self.footprints,
            ),
            (
                "feral_audit_edges_total",
                "counter",
                "Dependency edges (wr/ww/rw) observed in the runtime graph.",
                self.edges,
            ),
            (
                "feral_audit_cycles_total",
                "counter",
                "Critical anomaly cycles detected in live executions.",
                self.cycles,
            ),
            (
                "feral_audit_drops_total",
                "counter",
                "Footprints dropped on audit buffer saturation.",
                self.drops,
            ),
            (
                "feral_audit_gc_reclaims_total",
                "counter",
                "Completed transactions reclaimed by watermark GC.",
                self.gc_reclaims,
            ),
            (
                "feral_audit_window_depth",
                "gauge",
                "Live transactions in the audit window.",
                self.window_depth,
            ),
            (
                "feral_audit_window_peak",
                "gauge",
                "Peak live transactions in the audit window.",
                self.window_peak,
            ),
            (
                "feral_audit_watermark",
                "gauge",
                "Current watermark timestamp of the audit GC.",
                self.watermark,
            ),
        ] {
            prom.family(name, kind, help);
            prom.sample(name, &[], value);
        }
        for (name, help, value) in [
            (
                "feral_audit_cell_commits_total",
                "Committed transactions per isolation-plan cell.",
                (|c: &CellAudit| c.commits) as fn(&CellAudit) -> u64,
            ),
            (
                "feral_audit_cell_anomalies_total",
                "Anomaly cycles per isolation-plan cell.",
                |c: &CellAudit| c.anomalies,
            ),
        ] {
            prom.family(name, "counter", help);
            for c in &self.cells {
                let labels = [
                    ("template", c.template.as_str()),
                    ("isolation", &c.isolation),
                ];
                prom.sample(name, &labels, value(c));
            }
        }
        prom.finish()
    }

    /// Human-readable rendering for `feral-audit report`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "audit mode {} | footprints {} | edges {} | cycles {} | drops {}\n",
            self.mode, self.footprints, self.edges, self.cycles, self.drops
        ));
        out.push_str(&format!(
            "window depth {} (peak {}) | gc reclaims {} | watermark {}\n",
            self.window_depth, self.window_peak, self.gc_reclaims, self.watermark
        ));
        out.push_str("plan cells:\n");
        for c in &self.cells {
            out.push_str(&format!(
                "  {:<44} @{:<16} commits {:>8}  anomalies {:>4}{}\n",
                c.template,
                c.isolation,
                c.commits,
                c.anomalies,
                if c.anomalies > 0 { "  <-- UNSAFE" } else { "" }
            ));
        }
        if self.verdicts.is_empty() {
            out.push_str("verdict: CLEAN — no anomaly cycle observed\n");
        } else {
            for (i, v) in self.verdicts.iter().enumerate() {
                out.push_str(&format!(
                    "verdict #{i}: ANOMALY at ts {} — racing txns {} (read) vs {} (write)\n",
                    v.detected_at, v.racing.0, v.racing.1
                ));
                out.push_str("  cycle: ");
                for (j, e) in v.cycle.iter().enumerate() {
                    if j > 0 {
                        out.push_str(" ; ");
                    }
                    out.push_str(&format!("txn {} -{}-> txn {}", e.from, e.kind.name(), e.to));
                }
                out.push('\n');
                out.push_str(&format!("  templates: {}\n", v.templates.join(", ")));
                out.push_str(&format!("  plan cells: {}\n", v.cells.join(", ")));
            }
        }
        out
    }
}

fn verdict_json(v: &AnomalyVerdict) -> Json {
    let cycle = v.cycle.iter().map(|e| {
        Json::obj()
            .with("from", e.from)
            .with("to", e.to)
            .with("kind", e.kind.name())
    });
    Json::obj()
        .with("detected_at", v.detected_at)
        .with("racing", vec![v.racing.0, v.racing.1])
        .with("txns", v.txns.clone())
        .with("cycle", cycle.collect::<Json>())
        .with("templates", v.templates.clone())
        .with("cells", v.cells.clone())
}

fn decode_verdict(v: &Node) -> Result<AnomalyVerdict, String> {
    let racing = v.get("racing")?;
    let [reader, writer] = &racing.items()?[..] else {
        return Err(racing.error("racing pair must have two txns"));
    };
    let mut cycle = Vec::new();
    for e in v.get("cycle")?.items()? {
        let kind = e.get("kind")?;
        cycle.push(CycleEdge {
            from: e.get("from")?.u64()?,
            to: e.get("to")?.u64()?,
            kind: match kind.str()? {
                "wr" => EdgeKind::WriteRead,
                "ww" => EdgeKind::WriteWrite,
                "rw" => EdgeKind::ReadWrite,
                other => return Err(kind.error(format_args!("unknown edge kind '{other}'"))),
            },
        });
    }
    let strings = |key: &str| -> Result<Vec<String>, String> {
        let list = v.get(key)?;
        let items = list.items()?;
        if items.is_empty() {
            return Err(list.error("is empty"));
        }
        items.iter().map(|s| s.str().map(str::to_string)).collect()
    };
    let verdict = AnomalyVerdict {
        txns: v
            .get("txns")?
            .items()?
            .iter()
            .map(Node::u64)
            .collect::<Result<_, _>>()?,
        racing: (reader.u64()?, writer.u64()?),
        templates: strings("templates")?,
        cells: strings("cells")?,
        detected_at: v.get("detected_at")?.u64()?,
        cycle,
    };
    if verdict.txns.len() < 2 {
        return Err(v.error("cycle names fewer than two txns"));
    }
    for r in [verdict.racing.0, verdict.racing.1] {
        if !verdict.txns.contains(&r) {
            return Err(v.error(format_args!("racing txn {r} not on the cycle")));
        }
    }
    if verdict.cycle.len() != verdict.txns.len() {
        return Err(v.error("cycle edge count != txn count"));
    }
    if !verdict.cycle.iter().any(|e| e.kind == EdgeKind::ReadWrite) {
        return Err(v.error("cycle has no rw anti-dependency (impossible in this engine)"));
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::json::{parse, Layout};

    /// Serialise, re-parse, and decode: the path every export takes.
    fn roundtrip(snap: &AuditSnapshot) -> Result<AuditSnapshot, String> {
        let text = snap.to_json().render(Layout::Compact);
        AuditSnapshot::from_json(&parse(&text)?)
    }

    fn sample() -> AuditSnapshot {
        AuditSnapshot {
            mode: "full".into(),
            footprints: 10,
            edges: 7,
            cycles: 1,
            drops: 0,
            gc_reclaims: 4,
            window_depth: 3,
            window_peak: 6,
            watermark: 42,
            cells: vec![CellAudit {
                template: "uniqueness-probe-insert:signups.email".into(),
                isolation: "read-committed".into(),
                commits: 9,
                anomalies: 1,
            }],
            verdicts: vec![AnomalyVerdict {
                cycle: vec![
                    CycleEdge {
                        from: 3,
                        to: 4,
                        kind: EdgeKind::ReadWrite,
                    },
                    CycleEdge {
                        from: 4,
                        to: 3,
                        kind: EdgeKind::ReadWrite,
                    },
                ],
                txns: vec![3, 4],
                racing: (3, 4),
                templates: vec!["uniqueness-probe-insert:signups.email".into()],
                cells: vec!["uniqueness-probe-insert:signups.email@read-committed".into()],
                detected_at: 17,
            }],
        }
    }

    #[test]
    fn snapshot_json_roundtrips_through_validation() {
        let snap = sample();
        assert_eq!(roundtrip(&snap).expect("valid"), snap);
    }

    #[test]
    fn validation_rejects_cycle_without_rw() {
        let mut snap = sample();
        for e in &mut snap.verdicts[0].cycle {
            e.kind = EdgeKind::WriteWrite;
        }
        let err = roundtrip(&snap).unwrap_err();
        assert!(err.contains("no rw"), "{err}");
    }

    #[test]
    fn validation_rejects_anomalies_without_cycles() {
        let mut snap = sample();
        snap.cycles = 0;
        snap.verdicts.clear();
        let err = roundtrip(&snap).unwrap_err();
        assert!(err.contains("anomalies"), "{err}");
    }

    #[test]
    fn validation_rejects_offcycle_racing_txn() {
        let mut snap = sample();
        snap.verdicts[0].racing = (3, 99);
        let err = roundtrip(&snap).unwrap_err();
        assert!(err.contains("not on the cycle"), "{err}");
    }

    #[test]
    fn prometheus_export_is_strict_parser_safe() {
        let text = sample().to_prometheus();
        assert!(text.contains("# HELP feral_audit_cycles_total"));
        assert!(text.contains("# TYPE feral_audit_cycles_total counter"));
        assert!(text.contains("feral_audit_cycles_total 1"));
        assert!(text.contains(
            "feral_audit_cell_anomalies_total{template=\"uniqueness-probe-insert:signups.email\",isolation=\"read-committed\"} 1"
        ));
    }

    #[test]
    fn render_text_names_the_racing_pair() {
        let text = sample().render_text();
        assert!(text.contains("racing txns 3 (read) vs 4 (write)"));
        assert!(text.contains("txn 3 -rw-> txn 4"));
    }

    #[test]
    fn mode_names_roundtrip() {
        use crate::AuditMode;
        for mode in [AuditMode::Off, AuditMode::Sampled(8), AuditMode::Full] {
            assert_eq!(AuditMode::parse(&mode.name()), Some(mode));
        }
        assert_eq!(AuditMode::parse("sampled/0"), None);
        assert_eq!(AuditMode::parse("bogus"), None);
    }
}
