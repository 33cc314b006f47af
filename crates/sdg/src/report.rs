//! Renderers: text matrix, per-cell graph dumps, Graphviz dot, and the
//! `BENCH_sdg.json` machine-readable artifact (built as a
//! [`feral_trace::json::Json`] value, written compact).

use crate::cycles::render_cycle;
use crate::graph::DepGraph;
use crate::matrix::{Cell, CellEvidence, PairKind, SimWitness, SweepEvidence, Verdict, LEVELS};
use feral_sim::scenarios::{Guard, ScenarioSpec};
use feral_trace::json::{Json, Layout};
use std::fmt::Write as _;

/// The `feral-sim systematic` invocation that probes a cell's scenario.
pub fn probe_command(spec: &ScenarioSpec) -> String {
    format!(
        "feral-sim systematic --scenario {} --isolation {} --guard {} --workers {}",
        spec.kind.name(),
        spec.isolation_flag(),
        match spec.guard {
            Guard::Feral => "feral",
            Guard::Database => "database",
        },
        spec.workers
    )
}

fn short_verdict(cell: &Cell) -> String {
    match &cell.verdict {
        Verdict::Unsafe { .. } => "UNSAFE".to_string(),
        Verdict::Safe { reason } => format!("safe:{}", reason.name()),
    }
}

/// Render the matrix as an aligned text table.
pub fn render_matrix_text(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<28} {:<28} {:<28} {:<28}",
        "pair", "read committed", "repeatable read", "snapshot", "serializable"
    );
    for pair in PairKind::all() {
        let mut line = format!("{:<16}", pair.name());
        for level in LEVELS {
            let cell = cells
                .iter()
                .find(|c| c.pair == pair && c.isolation == level)
                .expect("full matrix");
            let _ = write!(line, " {:<28}", short_verdict(cell));
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Render one cell's graph, verdict, and scenario as text.
pub fn render_graph_text(cell: &Cell) -> String {
    let g = &cell.graph;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pair {} at {} — {}",
        cell.pair.name(),
        cell.isolation,
        short_verdict(cell)
    );
    for t in &g.templates {
        let _ = writeln!(out, "  txn {}", t.name);
        for s in &t.steps {
            let _ = writeln!(out, "    {:<24} {}", s.label, s.access);
        }
    }
    let _ = writeln!(
        out,
        "  overlaps: {} rw, {} ww",
        g.rw_overlaps.len(),
        g.ww_overlaps.len()
    );
    for o in &g.ww_overlaps {
        let _ = writeln!(
            out,
            "    ww {} <-> {} on {}",
            g.templates[o.a_txn].name, g.templates[o.b_txn].name, o.item
        );
    }
    let _ = writeln!(out, "  admitted edges: {}", g.edges.len());
    for e in &g.edges {
        let _ = writeln!(
            out,
            "    {} -{}[{}]-> {}  (overlap {})",
            g.templates[e.from].name,
            e.kind.label(),
            e.item,
            g.templates[e.to].name,
            e.overlap
        );
    }
    match &cell.verdict {
        Verdict::Unsafe { cycle } => {
            let _ = writeln!(out, "  critical cycle: {}", render_cycle(g, cycle));
        }
        Verdict::Safe { reason } => {
            let _ = writeln!(out, "  safe: {}", reason.name());
        }
    }
    let _ = writeln!(out, "  probe: {}", probe_command(&cell.scenario));
    out
}

/// Render one cell's graph as Graphviz dot (cycle edges bold).
pub fn render_dot(cell: &Cell) -> String {
    let g = &cell.graph;
    let cycle_edges: Vec<(usize, usize, usize)> = match &cell.verdict {
        Verdict::Unsafe { cycle } => cycle.iter().map(|e| (e.from, e.to, e.overlap)).collect(),
        Verdict::Safe { .. } => Vec::new(),
    };
    let mut out = String::new();
    let _ = writeln!(out, "digraph sdg {{");
    let _ = writeln!(
        out,
        "  label=\"{} at {} — {}\";",
        cell.pair.name(),
        cell.isolation,
        short_verdict(cell)
    );
    let _ = writeln!(out, "  rankdir=LR;");
    for (i, t) in g.templates.iter().enumerate() {
        let _ = writeln!(out, "  t{} [label=\"{}\", shape=box];", i, t.name);
    }
    for e in &g.edges {
        let in_cycle = cycle_edges.contains(&(e.from, e.to, e.overlap));
        let _ = writeln!(
            out,
            "  t{} -> t{} [label=\"{} {}\"{}];",
            e.from,
            e.to,
            e.kind.label(),
            e.item,
            if in_cycle {
                ", penwidth=2.5, color=red"
            } else {
                ""
            }
        );
    }
    for o in &g.ww_overlaps {
        let _ = writeln!(
            out,
            "  t{} -> t{} [label=\"ww {}\", dir=both, style=dashed];",
            o.a_txn, o.b_txn, o.item
        );
    }
    let _ = writeln!(out, "}}");
    out
}

fn json_mix(mix: feral_iconfluence::OperationMix) -> &'static str {
    match mix {
        feral_iconfluence::OperationMix::InsertionsOnly => "insertions-only",
        feral_iconfluence::OperationMix::WithDeletions => "with-deletions",
    }
}

fn json_safety(s: feral_iconfluence::Safety) -> &'static str {
    match s {
        feral_iconfluence::Safety::IConfluent => "iconfluent",
        feral_iconfluence::Safety::NotIConfluent => "not-iconfluent",
    }
}

fn json_templates(g: &DepGraph) -> Json {
    g.templates
        .iter()
        .map(|t| {
            let steps = t.steps.iter().map(|s| {
                Json::obj()
                    .with("label", &s.label)
                    .with("access", s.access.to_string())
            });
            Json::obj()
                .with("name", &t.name)
                .with("steps", steps.collect::<Json>())
        })
        .collect()
}

impl SimWitness {
    /// The witness as it appears in the sdg and plan artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("strategy", self.strategy)
            .with("seed", self.seed)
            .with("choices", self.choices.clone())
            .with("message", &self.message)
            .with("schedules_searched", self.schedules_searched)
            .with("replay", &self.replay)
    }
}

impl SweepEvidence {
    /// The sweep receipt as it appears in the sdg and plan artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("runs", self.runs)
            .with("complete", true)
            .with("schedules_pruned", self.schedules_pruned)
            .with("pruned_exact", self.pruned_exact)
            .with("sleep_set_blocked", self.sleep_set_blocked)
    }
}

fn json_cell(cell: &Cell, evidence: Option<&CellEvidence>) -> Json {
    let g = &cell.graph;
    let (verdict, reason, cycle) = match &cell.verdict {
        Verdict::Unsafe { cycle } => {
            let edges = cycle.iter().map(|e| {
                Json::obj()
                    .with("kind", e.kind.label())
                    .with("from", &g.templates[e.from].name)
                    .with("to", &g.templates[e.to].name)
                    .with("item", &e.item)
            });
            ("unsafe", Json::Null, edges.collect())
        }
        Verdict::Safe { reason } => ("safe", reason.name().into(), Json::Arr(Vec::new())),
    };
    let mut out = Json::obj()
        .with("pair", cell.pair.name())
        .with("isolation", cell.isolation.to_string())
        .with("verdict", verdict)
        .with("reason", reason)
        .with("cycle", cycle)
        .with("rw_overlaps", g.rw_overlaps.len())
        .with("ww_overlaps", g.ww_overlaps.len())
        .with("edges", g.edges.len())
        .with("scenario", probe_command(&cell.scenario));
    if let Some(evidence) = evidence {
        let validation = match evidence {
            CellEvidence::Witness(w) => Json::obj().with("witness", w.to_json()),
            CellEvidence::Sweep(s) => Json::obj().with("sweep", s.to_json()),
        };
        out.push("validation", validation);
    }
    out
}

/// Render the full matrix as the `BENCH_sdg.json` artifact. Without
/// `evidence` the output is fully deterministic (the checked-in golden);
/// with it, each cell gains a `validation` object.
pub fn render_json(cells: &[Cell], evidence: Option<&[CellEvidence]>) -> String {
    let pairs = PairKind::all().into_iter().map(|pair| {
        let cell = cells.iter().find(|c| c.pair == pair).expect("full matrix");
        Json::obj()
            .with("pair", pair.name())
            .with(
                "iconfluence",
                Json::obj()
                    .with("validator", cell.iconfluence.kind)
                    .with("mix", json_mix(cell.iconfluence.mix))
                    .with("safety", json_safety(cell.iconfluence.safety)),
            )
            .with("templates", json_templates(&cell.graph))
    });
    let cells = cells
        .iter()
        .enumerate()
        .map(|(i, c)| json_cell(c, evidence.map(|e| &e[i])));
    let doc = Json::obj()
        .with("tool", "feral-sdg")
        .with("version", 1u64)
        .with("isolations", LEVELS.map(|l| l.to_string()).to_vec())
        .with("pairs", pairs.collect::<Json>())
        .with("cells", cells.collect::<Json>());
    format!("{}\n", doc.render(Layout::Compact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::build_matrix;

    #[test]
    fn json_artifact_is_deterministic_and_covers_every_cell() {
        let matrix = build_matrix();
        let a = render_json(&matrix, None);
        let b = render_json(&build_matrix(), None);
        assert_eq!(a, b);
        assert_eq!(a.matches("\"pair\":").count(), 4 + 16);
        // uniqueness 3 + orphans 3 + lock-rmw 2 unsafe cells
        assert_eq!(a.matches("\"verdict\":\"unsafe\"").count(), 8);
        assert!(!a.contains("\"validation\":"));
    }

    #[test]
    fn dot_marks_cycle_edges() {
        let matrix = build_matrix();
        let unsafe_cell = matrix
            .iter()
            .find(|c| c.verdict.is_unsafe())
            .expect("matrix has unsafe cells");
        let dot = render_dot(unsafe_cell);
        assert!(dot.contains("color=red"));
        assert!(dot.starts_with("digraph sdg {"));
    }
}
