//! Plan renderers: human-readable text, the `BENCH_plan` JSON artifact,
//! and a Graphviz dot view of the cell structure. All deterministic.

use crate::certify::{describe_cell, CellCert};
use crate::infer::{guard_str, level_str, Plan, PlanCell};
use feral_db::IsolationLevel;
use feral_sdg::LEVELS;
use feral_trace::json::{Json, Layout};
use std::fmt::Write as _;

/// Human-readable plan: the per-level census, every cell, and each
/// app's assignments.
pub fn render_text(plan: &Plan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "feral-plan: corpus seed {}", plan.corpus_seed);
    let total: usize = plan.apps.iter().map(|a| a.assignments.len()).sum();
    let _ = writeln!(
        out,
        "{} apps, {} template assignments, {} cells",
        plan.apps.len(),
        total,
        plan.cells.len()
    );
    for level in LEVELS {
        let _ = writeln!(
            out,
            "  {:<16} {}",
            level_str(level),
            plan.assignments_at(level)
        );
    }
    out.push('\n');
    for (i, cell) in plan.cells.iter().enumerate() {
        let _ = writeln!(out, "cell {i}: {}", describe_cell(cell));
    }
    out.push('\n');
    for app in &plan.apps {
        if app.assignments.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{} (transactions: {})", app.app, app.transactions);
        for a in &app.assignments {
            let cell = match a.cell {
                Some(i) => format!("cell {i}"),
                None => "static".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<52} {:<16} {:<24} {}",
                a.template.key(),
                level_str(a.level),
                a.basis.label(),
                cell
            );
        }
    }
    out
}

fn json_levels(levels: [IsolationLevel; 2]) -> Json {
    levels.map(level_str).to_vec().into()
}

fn json_cell(cell: &PlanCell, cert: Option<&CellCert>) -> Json {
    let mut out = Json::obj()
        .with("pair", cell.pair.name())
        .with("guard", guard_str(cell.guard))
        .with("levels", json_levels(cell.levels))
        .with("gate", cell.gate.name())
        .with("escalated", cell.escalated());
    if let Some(d) = cell.demoted() {
        out.push("witness_levels", json_levels(d));
    }
    if let Some(cert) = cert {
        let mut certificate = Json::obj().with("sweep", cert.sweep.to_json());
        if let Some(w) = &cert.witness {
            certificate.push("witness", w.to_json());
        }
        out.push("certificate", certificate);
    }
    out
}

/// The `BENCH_plan` JSON artifact. With certificates, every cell embeds
/// its sweep receipt and (when escalated) its replaying witness.
pub fn render_json(plan: &Plan, certs: Option<&[CellCert]>) -> String {
    let total: usize = plan.apps.iter().map(|a| a.assignments.len()).sum();
    let mut summary = Json::obj()
        .with("apps", plan.apps.len())
        .with("assignments", total)
        .with("cells", plan.cells.len());
    for level in LEVELS {
        summary.push(&level_str(level), plan.assignments_at(level));
    }
    let cells = plan
        .cells
        .iter()
        .enumerate()
        .map(|(i, cell)| json_cell(cell, certs.map(|cs| &cs[i])));
    let apps = plan.apps.iter().map(|app| {
        let assignments = app.assignments.iter().map(|a| {
            Json::obj()
                .with("template", a.template.key())
                .with("model", &a.template.model)
                .with("file", &a.template.file)
                .with("level", level_str(a.level))
                .with("basis", a.basis.label())
                .with("cell", a.cell)
        });
        Json::obj()
            .with("app", &app.app)
            .with("transactions", app.transactions)
            .with("assignments", assignments.collect::<Json>())
    });
    let doc = Json::obj()
        .with("tool", "feral-plan")
        .with("corpus_seed", plan.corpus_seed)
        .with("summary", summary)
        .with("cells", cells.collect::<Json>())
        .with("apps", apps.collect::<Json>());
    format!("{}\n", doc.render(Layout::Framed { compact_rows: true }))
}

/// Graphviz dot view: one node per cell (colored by the strongest slot
/// level), one node per template class that maps onto it, edges labeled
/// with the slot's assigned level.
pub fn render_dot(plan: &Plan) -> String {
    let mut out = String::from("digraph feral_plan {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, cell) in plan.cells.iter().enumerate() {
        let color = match *cell
            .levels
            .iter()
            .max_by_key(|l| crate::infer::rank(**l))
            .expect("two slots")
        {
            IsolationLevel::ReadCommitted => "palegreen",
            IsolationLevel::RepeatableRead => "khaki",
            IsolationLevel::Snapshot => "orange",
            IsolationLevel::Serializable => "lightcoral",
        };
        let _ = writeln!(
            out,
            "  cell{i} [label=\"{}/{}\\n{}+{}\\n{}\" style=filled fillcolor={color}];",
            cell.pair.name(),
            guard_str(cell.guard),
            level_str(cell.levels[0]),
            level_str(cell.levels[1]),
            cell.gate.name()
        );
    }
    // aggregate template->cell edges across apps, weighted by use count
    let mut edges: std::collections::BTreeMap<(String, usize, String), usize> =
        std::collections::BTreeMap::new();
    for app in &plan.apps {
        for a in &app.assignments {
            if let Some(cell) = a.cell {
                *edges
                    .entry((
                        a.template.class.name().to_string(),
                        cell,
                        level_str(a.level),
                    ))
                    .or_insert(0) += 1;
            }
        }
    }
    let classes: std::collections::BTreeSet<&str> =
        edges.keys().map(|(c, _, _)| c.as_str()).collect();
    for class in classes {
        let _ = writeln!(out, "  \"{class}\" [shape=ellipse];");
    }
    for ((class, cell, level), count) in edges {
        let _ = writeln!(
            out,
            "  \"{class}\" -> cell{cell} [label=\"{level} x{count}\"];"
        );
    }
    out.push_str("}\n");
    out
}
