//! Machine-readable JSON for `feral-sim` exploration outcomes.
//!
//! Deterministic field order, written compact (same convention as the
//! sdg and lint report modules): byte-identical output for identical
//! explorations, so reports can be golden-tested and diffed in CI.

use crate::scenarios::ScenarioSpec;
use crate::scheduler::SearchStats;
use crate::{DporExploration, SystematicExploration, Violation};
use feral_trace::json::{Json, Layout};

/// One exploration outcome, ready to serialize.
#[derive(Debug)]
pub struct ExplorationReport {
    /// Scenario label (`scenario/isolation/guard`).
    pub scenario: String,
    /// Search strategy (`dfs`, `dpor`, `directed-dpor`, `random`).
    pub strategy: &'static str,
    /// Schedules executed.
    pub runs: usize,
    /// Whether the (reduced) schedule space was fully covered.
    pub complete: bool,
    /// Exploration/pruning counters. For non-reducing strategies the
    /// counters are the trivial ones (`explored == runs`, nothing
    /// pruned).
    pub stats: SearchStats,
    /// The firing schedule, if one was found.
    pub violation: Option<ViolationReport>,
}

/// The violation portion of an [`ExplorationReport`].
#[derive(Debug)]
pub struct ViolationReport {
    /// Oracle message.
    pub message: String,
    /// Seed, for random-mode finds.
    pub seed: Option<u64>,
    /// Branch choices replaying the schedule.
    pub choices: Vec<usize>,
    /// `feral-sim replay` invocation reproducing it.
    pub replay: String,
}

impl ViolationReport {
    fn of(spec: &ScenarioSpec, v: &Violation) -> ViolationReport {
        ViolationReport {
            message: v.message.clone(),
            seed: v.seed,
            choices: v.choices.clone(),
            replay: spec.replay_command(v.seed, &v.choices),
        }
    }
}

impl ExplorationReport {
    /// Report for a DPOR (or directed-DPOR) exploration.
    pub fn from_dpor(
        spec: &ScenarioSpec,
        strategy: &'static str,
        outcome: &DporExploration,
    ) -> ExplorationReport {
        ExplorationReport {
            scenario: spec.label(),
            strategy,
            runs: outcome.runs,
            complete: outcome.complete,
            stats: outcome.stats.clone(),
            violation: outcome
                .violation
                .as_ref()
                .map(|v| ViolationReport::of(spec, v)),
        }
    }

    /// Report for a plain exhaustive-DFS exploration.
    pub fn from_systematic(
        spec: &ScenarioSpec,
        outcome: &SystematicExploration,
    ) -> ExplorationReport {
        ExplorationReport {
            scenario: spec.label(),
            strategy: "dfs",
            runs: outcome.runs,
            complete: outcome.complete,
            stats: SearchStats {
                schedules_explored: outcome.runs,
                ..SearchStats::default()
            },
            violation: outcome
                .violation
                .as_ref()
                .map(|v| ViolationReport::of(spec, v)),
        }
    }

    /// Serialize (stable field order, no trailing newline).
    pub fn to_json(&self) -> String {
        let violation = self.violation.as_ref().map(|v| {
            Json::obj()
                .with("message", &v.message)
                .with("seed", v.seed)
                .with("choices", v.choices.clone())
                .with("replay", &v.replay)
        });
        Json::obj()
            .with("tool", "feral-sim")
            .with("scenario", &self.scenario)
            .with("strategy", self.strategy)
            .with("runs", self.runs)
            .with("complete", self.complete)
            .with("schedules_explored", self.stats.schedules_explored)
            .with("schedules_pruned", self.stats.schedules_pruned)
            .with("pruned_exact", self.stats.pruned_exact)
            .with("sleep_set_blocked", self.stats.sleep_set_blocked)
            .with("redundant_runs", self.stats.redundant_runs)
            .with("violation", violation)
            .render(Layout::Compact)
    }
}
