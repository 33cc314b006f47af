//! `BENCH_load.json` rendering, self-validation, and Prometheus text.
//!
//! The artifact has three sections: a **grid** of open-loop load cells
//! (worker count × arrival distribution, each with coordinated-
//! omission-free p50/p99/p999), an **ablation** running the certified
//! planner workload end-to-end over the wire under the planned levels
//! versus all-serializable (with the runtime DSG auditor attached and
//! its snapshot embedded), and the **gates** the artifact self-enforces.
//! [`validate_load_report`] is the same validator `checkreport --load`
//! applies from the outside, so writer and gate can never drift.

use crate::load::LoadOutcome;
use crate::planner::Anomalies;
use feral_trace::hist::QUANTILE_SENTINEL;
use feral_trace::json::{parse, Json, Layout, Node};
use feral_trace::report::Prometheus;
use std::collections::BTreeSet;

/// One grid cell: an open-loop run at a worker count × distribution.
pub struct GridRow {
    /// Server executor (worker) count.
    pub workers: usize,
    /// Arrival/skew distribution name (`uniform` / `zipfian`).
    pub dist: &'static str,
    /// Client connections.
    pub conns: usize,
    /// Distinct session-id space driven through the cell.
    pub sessions: u64,
    /// Target aggregate arrival rate, req/s.
    pub target_rate: f64,
    /// Think time added per arrival, µs.
    pub think_us: u64,
    /// Measured outcome.
    pub outcome: LoadOutcome,
}

/// One ablation row: the planner workload over the wire under a plan.
pub struct AblationRow {
    /// Configuration name (`planner` / `all-serializable`).
    pub config: &'static str,
    /// Measured outcome of the wire run.
    pub outcome: LoadOutcome,
    /// Integrity-audit counters over the post-run database.
    pub anomalies: Anomalies,
    /// Dependency cycles the runtime DSG auditor observed.
    pub cycles: u64,
    /// Whether the embedded audit snapshot passed its own validating
    /// decode at render time.
    pub schema_ok: bool,
    /// The runtime auditor's snapshot, when auditing was on.
    pub audit: Option<Json>,
}

/// Append an outcome's reply accounting, throughput, and latency
/// quantiles to a row.
fn with_outcome(row: Json, o: &LoadOutcome) -> Json {
    row.with("sent", o.sent)
        .with("completed", o.completed)
        .with("shed", o.shed)
        .with("errors", o.errors)
        .with("lost", o.lost)
        .with("throughput", Json::Num(o.throughput(), 1))
        .with("p50_ns", o.latency.quantile(0.50))
        .with("p99_ns", o.latency.quantile(0.99))
        .with("p999_ns", o.latency.quantile(0.999))
}

/// Render the full `BENCH_load.json` artifact.
pub fn render_load_json(
    mode: &str,
    queue: usize,
    inflight: usize,
    grid: &[GridRow],
    ablation: &[AblationRow],
) -> String {
    let grid_rows = grid.iter().map(|r| {
        let row = Json::obj()
            .with("workers", r.workers)
            .with("dist", r.dist)
            .with("conns", r.conns)
            .with("sessions", r.sessions)
            .with("target_rate", Json::Num(r.target_rate, 1))
            .with("think_us", r.think_us);
        with_outcome(row, &r.outcome)
    });
    let ablation_rows = ablation.iter().map(|r| {
        with_outcome(Json::obj().with("config", r.config), &r.outcome)
            .with("anomalies", r.anomalies.json())
            .with("cycles", r.cycles)
            .with("schema_valid", r.schema_ok)
            .with("audit", r.audit.clone())
    });
    let worker_counts = grid
        .iter()
        .map(|r| r.workers)
        .collect::<BTreeSet<_>>()
        .len();
    let dists = grid.iter().map(|r| r.dist).collect::<BTreeSet<_>>().len();
    let accounted = grid
        .iter()
        .map(|r| &r.outcome)
        .chain(ablation.iter().map(|r| &r.outcome))
        .all(|o| o.completed + o.shed + o.errors + o.lost == o.sent);
    let clean = ablation
        .iter()
        .all(|r| r.anomalies.total() == 0 && r.cycles == 0);
    let schema = ablation.iter().all(|r| r.schema_ok);
    let gates = Json::obj()
        .with("worker_counts", worker_counts)
        .with("dists", dists)
        .with("replies_accounted", accounted)
        .with("ablation_clean", clean)
        .with("audit_schema", schema)
        .with(
            "pass",
            worker_counts >= 3 && dists >= 2 && accounted && clean && schema,
        );
    let doc = Json::obj()
        .with("bench", "load")
        .with("mode", mode)
        .with(
            "protocol",
            Json::obj()
                .with("version", crate::wire::VERSION)
                .with("max_frame", crate::wire::MAX_FRAME),
        )
        .with(
            "backpressure",
            Json::obj()
                .with("queue", queue)
                .with("inflight_per_conn", inflight),
        )
        .with("grid", grid_rows.collect::<Json>())
        .with("ablation", ablation_rows.collect::<Json>())
        .with("gates", gates);
    let framed = Layout::Framed {
        compact_rows: false,
    };
    format!("{}\n", doc.render(framed))
}

/// Validate a `BENCH_load.json` text: a grid covering at least 3
/// worker counts under both distributions with ordered
/// (sentinel-aware) latency quantiles and fully-accounted replies, and
/// a planner + all-serializable ablation that committed work with zero
/// integrity anomalies, zero observed DSG cycles, and an embedded
/// audit snapshot that agrees. Returns a one-line summary of what
/// passed.
pub fn validate_load_report(text: &str) -> Result<String, String> {
    let doc = parse(text).map_err(|e| format!("unparseable JSON: {e}"))?;
    let load = doc.node("load");
    if load.get("bench")?.str()? != "load" {
        return Err("not a load report (bench != \"load\")".into());
    }
    let grid = load.get("grid")?.items()?;
    if grid.is_empty() {
        return Err(load.error("empty grid"));
    }
    let mut workers = BTreeSet::new();
    let mut dists = BTreeSet::new();
    for cell in &grid {
        let w = cell.get("workers")?.u64()?;
        if w == 0 {
            return Err(cell.error("zero workers"));
        }
        workers.insert(w);
        let dist = cell.get("dist")?;
        let name = dist.str()?;
        if name != "uniform" && name != "zipfian" {
            return Err(dist.error(format_args!("unknown dist `{name}`")));
        }
        dists.insert(name);
        check_answered(cell)?;
    }
    if workers.len() < 3 {
        return Err(format!(
            "grid covers {} worker count(s); need at least 3",
            workers.len()
        ));
    }
    if dists.len() < 2 {
        return Err("grid must cover both uniform and zipfian arrivals".into());
    }

    let mut configs = BTreeSet::new();
    for row in load.get("ablation")?.items()? {
        let config = row.get("config")?.str()?;
        configs.insert(config);
        check_answered(&row)?;
        let anomalies = row.get("anomalies")?;
        let mut total = 0u64;
        for family in [
            "duplicate_signups",
            "orphaned_users",
            "orphaned_comments",
            "lost_deposits",
        ] {
            total += anomalies.get(family)?.u64()?;
        }
        if total != 0 {
            return Err(row.error(format_args!(
                "({config}) {total} integrity anomalies under a certified-safe plan"
            )));
        }
        if row.get("cycles")?.u64()? != 0 {
            return Err(row.error(format_args!("({config}) runtime auditor observed cycles")));
        }
        if !row.get("schema_valid")?.bool()? {
            return Err(row.error(format_args!("({config}) audit snapshot failed its schema")));
        }
        let audit = row.get("audit")?;
        if audit.is_null() {
            return Err(row.error(format_args!("({config}) no embedded audit snapshot")));
        }
        let snap_cycles = audit.get("cycles")?.u64()?;
        if snap_cycles != 0 {
            return Err(row.error(format_args!(
                "({config}) embedded snapshot reports {snap_cycles} cycles"
            )));
        }
    }
    for need in ["all-serializable", "planner"] {
        if !configs.contains(need) {
            return Err(format!("ablation is missing the `{need}` configuration"));
        }
    }
    if !load.get("gates")?.get("pass")?.bool()? {
        return Err("gates.pass is not true".into());
    }
    Ok(format!(
        "{} load cells over {} worker counts, {} ablation configs",
        grid.len(),
        workers.len(),
        configs.len()
    ))
}

/// Reply accounting (`completed + shed + errors + lost == sent`),
/// ordered latency quantiles, and at least one completed request.
fn check_answered(row: &Node) -> Result<(), String> {
    let sent = row.get("sent")?.u64()?;
    let mut accounted = 0;
    for key in ["completed", "shed", "errors", "lost"] {
        accounted += row.get(key)?.u64()?;
    }
    if accounted != sent {
        return Err(row.error(format_args!(
            "{accounted} replies accounted for {sent} sent requests"
        )));
    }
    let p50 = row.get("p50_ns")?.u64()?;
    let p99 = row.get("p99_ns")?.u64()?;
    let p999 = row.get("p999_ns")?.u64()?;
    // the sentinel marks an unresolvable quantile; ordering only binds
    // between resolved values
    for (a, b, label) in [(p50, p99, "p50 > p99"), (p99, p999, "p99 > p999")] {
        if a != QUANTILE_SENTINEL && b != QUANTILE_SENTINEL && a > b {
            return Err(row.error(format_args!("unordered quantiles ({label})")));
        }
    }
    if p50 == QUANTILE_SENTINEL && p99 == QUANTILE_SENTINEL && p999 == QUANTILE_SENTINEL {
        return Err(row.error("every latency quantile is the sentinel"));
    }
    if row.get("completed")?.u64()? == 0 {
        return Err(row.error("no request completed"));
    }
    Ok(())
}

/// Prometheus text exposition of the load grid: throughput and latency
/// quantiles per cell, labelled by worker count and distribution.
pub fn render_prometheus(grid: &[GridRow]) -> String {
    let mut prom = Prometheus::default();
    prom.family(
        "feralnet_requests_total",
        "counter",
        "Open-loop requests by disposition.",
    );
    for r in grid {
        let cell = format!("w{}-{}", r.workers, r.dist);
        for (disposition, v) in [
            ("completed", r.outcome.completed),
            ("shed", r.outcome.shed),
            ("error", r.outcome.errors),
            ("lost", r.outcome.lost),
        ] {
            let labels = [("cell", cell.as_str()), ("disposition", disposition)];
            prom.sample("feralnet_requests_total", &labels, v);
        }
    }
    prom.family(
        "feralnet_latency_nanos",
        "summary",
        "Scheduled-arrival to reply latency distribution.",
    );
    for r in grid {
        let cell = format!("w{}-{}", r.workers, r.dist);
        prom.summary(
            "feralnet_latency_nanos",
            &[("cell", &cell)],
            &r.outcome.latency,
            &[0.50, 0.99, 0.999],
        );
    }
    prom.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_trace::Histogram;

    fn outcome(completed: u64) -> LoadOutcome {
        let h = Histogram::new();
        for i in 0..completed.max(1) {
            h.record(1_000 + i * 7);
        }
        LoadOutcome {
            sent: completed,
            completed,
            shed: 0,
            errors: 0,
            lost: 0,
            elapsed: 1.0,
            latency: h.snapshot(),
        }
    }

    fn grid_row(workers: usize, dist: &'static str) -> GridRow {
        GridRow {
            workers,
            dist,
            conns: 2,
            sessions: 1_000_000,
            target_rate: 1000.0,
            think_us: 0,
            outcome: outcome(100),
        }
    }

    fn ablation_row(config: &'static str) -> AblationRow {
        AblationRow {
            config,
            outcome: outcome(200),
            anomalies: Anomalies::default(),
            cycles: 0,
            schema_ok: true,
            audit: Some(Json::obj().with("cycles", 0u64)),
        }
    }

    /// A smoke-mode artifact; `ablation: None` is the clean
    /// planner + all-serializable pair.
    fn render(grid: &[GridRow], ablation: Option<Vec<AblationRow>>) -> String {
        let clean = || vec![ablation_row("planner"), ablation_row("all-serializable")];
        render_load_json("smoke", 64, 8, grid, &ablation.unwrap_or_else(clean))
    }

    fn full_grid() -> Vec<GridRow> {
        let mut grid = Vec::new();
        for w in [1, 2, 4] {
            for dist in ["uniform", "zipfian"] {
                grid.push(grid_row(w, dist));
            }
        }
        grid
    }

    #[test]
    fn rendered_report_validates() {
        let json = render(&full_grid(), None);
        let summary = validate_load_report(&json).expect("report validates");
        assert_eq!(
            summary,
            "6 load cells over 3 worker counts, 2 ablation configs"
        );
    }

    #[test]
    fn thin_grid_or_missing_config_fails() {
        let thin = render(&[grid_row(1, "uniform"), grid_row(2, "uniform")], None);
        let err = validate_load_report(&thin).unwrap_err();
        assert!(err.contains("worker count"), "{err}");

        let missing = render(&full_grid(), Some(vec![ablation_row("planner")]));
        let err = validate_load_report(&missing).unwrap_err();
        assert!(err.contains("all-serializable"), "{err}");

        // not a load report at all, or a failed writer-side verdict
        assert!(validate_load_report("{\"bench\": \"other\"}").is_err());
        let good = render(&full_grid(), None);
        let err =
            validate_load_report(&good.replace("\"pass\": true", "\"pass\": false")).unwrap_err();
        assert!(err.contains("pass"), "{err}");
    }

    #[test]
    fn anomalies_or_cycles_fail_the_gate() {
        let mut dirty = ablation_row("planner");
        dirty.anomalies.lost_deposits = 3;
        let json = render(
            &full_grid(),
            Some(vec![dirty, ablation_row("all-serializable")]),
        );
        let err = validate_load_report(&json).unwrap_err();
        assert!(err.contains("anomalies"), "{err}");

        let mut cyclic = ablation_row("all-serializable");
        cyclic.cycles = 1;
        let json = render(&full_grid(), Some(vec![ablation_row("planner"), cyclic]));
        let err = validate_load_report(&json).unwrap_err();
        assert!(err.contains("cycles"), "{err}");
    }

    #[test]
    fn unaccounted_replies_fail() {
        let mut row = grid_row(8, "uniform");
        row.outcome.lost = 0;
        row.outcome.sent = 101;
        let mut grid = full_grid();
        grid.push(row);
        let json = render(&grid, None);
        let err = validate_load_report(&json).unwrap_err();
        assert!(err.contains("accounted"), "{err}");
    }

    #[test]
    fn prometheus_text_is_labelled_and_headed() {
        let text = render_prometheus(&full_grid());
        assert!(text.contains("# TYPE feralnet_latency_nanos summary"));
        assert!(
            text.contains("feralnet_requests_total{cell=\"w4-zipfian\",disposition=\"completed\"}")
        );
        assert!(text.contains("quantile=\"0.999\""));
    }
}
