//! `feral-sim` — deterministic anomaly exploration from the command line.
//!
//! ```text
//! feral-sim matrix [--strategy dfs|dpor|directed] [--max-runs N] [--json]
//!     Run the paper's safety matrix under exhaustive schedule
//!     exploration (partial-order reduced by default); exit non-zero
//!     if any cell deviates.
//!
//! feral-sim systematic --scenario uniqueness|orphans|lost-update|sibling-inserts
//!         [--isolation LEVEL | --levels L0,L1] [--guard feral|database]
//!         [--workers N] [--strategy dfs|dpor|directed] [--max-runs N] [--json]
//!     Exhaustively explore one scenario; print the first anomalous
//!     schedule (with its replay choices) if one exists. `dpor` prunes
//!     Mazurkiewicz-equivalent schedules; `directed` additionally
//!     biases backtracking toward the scenario's critical tables.
//!     `--levels` runs the two template slots of the pair at *different*
//!     levels (feral-plan's mixed configurations) instead of one
//!     uniform `--isolation`.
//!
//! feral-sim random --scenario ... [--seeds N] [...]
//!     Seeded random search; print the firing seed.
//!
//! feral-sim replay --scenario ... --seed S [...]
//! feral-sim replay --scenario ... --choices 1,0,2 [...]
//!     Re-run one schedule byte-identically and print its trace.
//! ```
//!
//! Isolation levels: `read-committed`, `repeatable-read`, `snapshot`,
//! `serializable`.

use feral_cli::Args;
use feral_db::IsolationLevel;
use feral_sim::report::ExplorationReport;
use feral_sim::scenarios::{Guard, ScenarioKind, ScenarioSpec};
use feral_sim::{
    explore_dpor, explore_random, explore_systematic, run_with_choices, run_with_seed, DporConfig,
};
use std::process::ExitCode;

const TOOL: &str = "feral-sim";

fn die(msg: &str) -> ! {
    feral_cli::die(TOOL, msg)
}

fn help() -> String {
    feral_cli::render_help(
        TOOL,
        "deterministic anomaly exploration over feral-db schedules",
        "  feral-sim matrix [--strategy dfs|dpor|directed] [--max-runs N]\n\
         \x20 feral-sim systematic --scenario NAME [--isolation LEVEL | --levels L0,L1]\n\
         \x20     [--guard feral|database] [--workers N] [--strategy S] [--max-runs N]\n\
         \x20 feral-sim random --scenario NAME [--seeds N]\n\
         \x20 feral-sim replay --scenario NAME (--seed S | --choices 1,0,2)\n",
        "  --scenario NAME   uniqueness|orphans|lost-update|sibling-inserts\n\
         \x20 --isolation L     read-committed|repeatable-read|snapshot|serializable\n\
         \x20 --levels L0,L1    run the pair's two template slots at different levels\n\
         \x20 --strategy S      dfs|dpor|directed schedule exploration\n\
         \x20 --max-runs N      schedule budget before declaring the sweep bounded\n",
    )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Dfs,
    Dpor,
    Directed,
}

fn strategy_arg(args: &Args, default: Strategy) -> Strategy {
    match args.get_str("strategy") {
        None => default,
        Some("dfs") => Strategy::Dfs,
        Some("dpor") => Strategy::Dpor,
        Some("directed") => Strategy::Directed,
        Some(other) => die(&format!("unknown strategy `{other}` (dfs|dpor|directed)")),
    }
}

/// Parse a comma-separated pair of isolation-level names
/// (`snapshot,serializable`), one level per template slot; the error
/// is the usage message unless exactly two valid names are given.
fn parse_levels(s: &str) -> Result<[IsolationLevel; 2], String> {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    let [l0, l1] = parts[..] else {
        return Err(format!(
            "--levels wants exactly two comma-separated levels, got `{s}`"
        ));
    };
    let level = |l: &str| {
        l.parse::<IsolationLevel>()
            .map_err(|_| format!("unknown isolation `{l}`"))
    };
    Ok([level(l0)?, level(l1)?])
}

/// The optional `--levels L0,L1` pair for mixed-isolation runs.
fn levels_arg(args: &Args) -> Option<[IsolationLevel; 2]> {
    let s = args.get_str("levels")?;
    Some(parse_levels(s).unwrap_or_else(|e| die(&e)))
}

fn scenario_cfg(args: &Args) -> ScenarioSpec {
    let kind = match args.get_str("scenario") {
        Some(name) => ScenarioKind::parse(name).unwrap_or_else(|| {
            die(&format!(
                "unknown scenario `{name}` (uniqueness|orphans|lost-update|sibling-inserts)"
            ))
        }),
        None => die("--scenario is required"),
    };
    if args.get_str("levels").is_some() && args.get_str("isolation").is_some() {
        die("--levels and --isolation are mutually exclusive");
    }
    // for a mixed run the spec-level isolation only labels output; the
    // strongest slot level is the display convention (matches sdg's
    // mixed dependency graphs)
    let isolation = match levels_arg(args) {
        Some(levels) => levels
            .into_iter()
            .max_by_key(|l| *l as u64)
            .expect("two levels"),
        None => args
            .get_str("isolation")
            .map(|s| feral_cli::parse_or_die(TOOL, "isolation", s))
            .unwrap_or(IsolationLevel::ReadCommitted),
    };
    ScenarioSpec {
        kind,
        isolation,
        guard: match args.get_str("guard") {
            Some("database") => Guard::Database,
            Some("feral") | None => Guard::Feral,
            Some(other) => die(&format!("unknown guard `{other}` (feral|database)")),
        },
        workers: args.get_usize("workers", 2),
    }
}

/// Build the trial: uniform from the spec, or per-slot mixed.
fn build_trial(cfg: &ScenarioSpec, levels: Option<[IsolationLevel; 2]>) -> feral_sim::Trial {
    match levels {
        Some(levels) => cfg.build_mixed(levels),
        None => cfg.build(),
    }
}

/// Explore `cfg` under `strategy` and normalize the outcome to a report.
fn explore(
    cfg: &ScenarioSpec,
    levels: Option<[IsolationLevel; 2]>,
    strategy: Strategy,
    max_runs: usize,
) -> ExplorationReport {
    let mut report = match strategy {
        Strategy::Dfs => {
            let outcome = explore_systematic(|| build_trial(cfg, levels), max_runs);
            ExplorationReport::from_systematic(cfg, &outcome)
        }
        Strategy::Dpor | Strategy::Directed => {
            // mixed runs drive the DPOR conflict predicate at the
            // weakest slot level: conservative (never prunes a schedule
            // a weaker session could distinguish), still sound
            let dpor_iso = levels
                .and_then(|l| l.into_iter().min_by_key(|l| *l as u64))
                .unwrap_or(cfg.isolation);
            let mut dc = DporConfig::new(max_runs, dpor_iso);
            if strategy == Strategy::Directed {
                dc = dc.directed(cfg.direction_hint());
            }
            let name = dc.strategy();
            let outcome = explore_dpor(|| build_trial(cfg, levels), &dc);
            ExplorationReport::from_dpor(cfg, name, &outcome)
        }
    };
    if let Some(levels) = levels {
        report.scenario = mixed_label(cfg, levels);
        if let Some(v) = &mut report.violation {
            v.replay = cfg.replay_command_mixed(levels, v.seed, &v.choices);
        }
    }
    report
}

/// `scenario/L0+L1/guard` label for mixed runs.
fn mixed_label(cfg: &ScenarioSpec, levels: [IsolationLevel; 2]) -> String {
    format!(
        "{}/{:?}+{:?}/{}",
        cfg.kind.name(),
        levels[0],
        levels[1],
        match cfg.guard {
            Guard::Feral => "feral",
            Guard::Database => "db-constraint",
        }
    )
}

/// Human-readable counter suffix for reducing strategies.
fn pruning_note(report: &ExplorationReport) -> String {
    if report.strategy == "dfs" {
        String::new()
    } else {
        format!(
            ", {} equivalent schedule(s) pruned{}",
            report.stats.schedules_pruned,
            if report.stats.pruned_exact {
                ""
            } else {
                " (lower bound)"
            }
        )
    }
}

fn cmd_systematic(cfg: ScenarioSpec, levels: Option<[IsolationLevel; 2]>, args: &Args) -> ExitCode {
    let strategy = strategy_arg(args, Strategy::Dfs);
    let report = explore(&cfg, levels, strategy, args.get_usize("max-runs", 200_000));
    if args.has("json") {
        let rendered = format!("{}\n", report.to_json());
        feral_cli::write_out(TOOL, args.get_str("out"), &rendered);
        return ExitCode::from(u8::from(report.violation.is_some()));
    }
    match &report.violation {
        Some(v) => {
            println!(
                "{}: ANOMALY after {} schedules [{}]: {}",
                report.scenario, report.runs, report.strategy, v.message
            );
            println!("  {}", v.replay);
            ExitCode::from(1)
        }
        None => {
            println!(
                "{}: no anomaly in {} schedules [{}] ({}{})",
                report.scenario,
                report.runs,
                report.strategy,
                if report.complete {
                    "exhaustive"
                } else {
                    "bounded — NOT exhaustive"
                },
                pruning_note(&report)
            );
            ExitCode::SUCCESS
        }
    }
}

fn cmd_random(cfg: ScenarioSpec, levels: Option<[IsolationLevel; 2]>, seeds: u64) -> ExitCode {
    let label = match levels {
        Some(l) => mixed_label(&cfg, l),
        None => cfg.label(),
    };
    let outcome = explore_random(|| build_trial(&cfg, levels), 0..seeds);
    match outcome.violation {
        Some(v) => {
            println!(
                "{}: ANOMALY at seed {} (run {} of {}): {}",
                label,
                v.seed.unwrap(),
                outcome.runs,
                seeds,
                v.message
            );
            println!("  {}", v.replay_hint());
            ExitCode::from(1)
        }
        None => {
            println!("{}: no anomaly in {} seeded runs", label, outcome.runs);
            ExitCode::SUCCESS
        }
    }
}

fn cmd_replay(cfg: ScenarioSpec, levels: Option<[IsolationLevel; 2]>, args: &Args) -> ExitCode {
    let label = match levels {
        Some(l) => mixed_label(&cfg, l),
        None => cfg.label(),
    };
    let (run, verdict) = if let Some(seed) = args.get_str("seed") {
        let seed = seed
            .parse()
            .unwrap_or_else(|_| die(&format!("--seed wants a number, got `{seed}`")));
        run_with_seed(build_trial(&cfg, levels), seed)
    } else if let Some(choices) = args.get_str("choices") {
        let choices: Vec<usize> = choices
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad choice `{s}` in --choices")))
            })
            .collect();
        run_with_choices(build_trial(&cfg, levels), &choices)
    } else {
        die("replay needs --seed or --choices");
    };
    println!("{}", run.trace_text());
    match verdict {
        Ok(()) => {
            println!("{label}: oracle silent");
            ExitCode::SUCCESS
        }
        Err(message) => {
            println!("{label}: oracle fired: {message}");
            ExitCode::from(1)
        }
    }
}

fn cmd_matrix(args: &Args) -> ExitCode {
    use IsolationLevel::{ReadCommitted, Serializable};
    // (scenario cfg, anomaly expected?)
    use ScenarioKind::{Orphans, Uniqueness};
    let strategy = strategy_arg(args, Strategy::Dpor);
    // --smoke keeps the sweep bounded tightly enough for CI gates; every
    // cell is exhaustive well under this budget, so verdicts are identical
    let max_runs = args.get_usize("max-runs", if args.has("smoke") { 50_000 } else { 200_000 });
    let json = args.has("json");
    let mut json_lines = String::new();
    let cells: Vec<(ScenarioSpec, bool)> = vec![
        (cell(Uniqueness, ReadCommitted, Guard::Feral), true),
        (cell(Uniqueness, Serializable, Guard::Feral), false),
        (cell(Uniqueness, ReadCommitted, Guard::Database), false),
        (cell(Orphans, ReadCommitted, Guard::Feral), true),
        (cell(Orphans, Serializable, Guard::Feral), false),
        (cell(Orphans, ReadCommitted, Guard::Database), false),
    ];
    let mut failures = 0;
    for (cfg, expect_anomaly) in cells {
        let report = explore(&cfg, None, strategy, max_runs);
        let found = report.violation.is_some();
        if json {
            json_lines.push_str(&report.to_json());
            json_lines.push('\n');
        } else {
            let verdict = if found == expect_anomaly {
                "ok"
            } else {
                "FAIL"
            };
            let detail = match &report.violation {
                Some(v) => format!("anomaly: {} ({})", v.message, v.replay),
                None if report.complete => format!(
                    "safe across all {} schedules{}",
                    report.runs,
                    pruning_note(&report)
                ),
                None => format!("no anomaly in {} schedules (bounded)", report.runs),
            };
            println!("[{verdict:>4}] {:<38} {detail}", cfg.label());
        }
        if found != expect_anomaly {
            failures += 1;
        }
    }
    if json {
        feral_cli::write_out(TOOL, args.get_str("out"), &json_lines);
    }
    if failures == 0 {
        if !json {
            println!("safety matrix: all cells as the paper predicts");
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!("safety matrix: {failures} cell(s) deviate");
        }
        ExitCode::from(1)
    }
}

fn cell(kind: ScenarioKind, isolation: IsolationLevel, guard: Guard) -> ScenarioSpec {
    ScenarioSpec {
        kind,
        isolation,
        guard,
        workers: match kind {
            ScenarioKind::Orphans => 1,
            _ => 2,
        },
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = argv.first() else {
        die("usage: feral-sim <matrix|systematic|random|replay> [flags] (--help for details)")
    };
    let args = Args::from_iter(argv[1..].iter().cloned());
    match command.as_str() {
        "matrix" => cmd_matrix(&args),
        "systematic" => cmd_systematic(scenario_cfg(&args), levels_arg(&args), &args),
        "random" => cmd_random(
            scenario_cfg(&args),
            levels_arg(&args),
            args.get_u64("seeds", 500),
        ),
        "replay" => cmd_replay(scenario_cfg(&args), levels_arg(&args), &args),
        other => die(&format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_as_a_pair() {
        assert_eq!(
            parse_levels("snapshot, serializable"),
            Ok([IsolationLevel::Snapshot, IsolationLevel::Serializable])
        );
        for bad in ["snapshot", "a,b,c"] {
            let err = parse_levels(bad).unwrap_err();
            assert!(err.contains("exactly two"), "{bad}: {err}");
        }
        let err = parse_levels("snapshot,bogus").unwrap_err();
        assert_eq!(err, "unknown isolation `bogus`");
    }
}
