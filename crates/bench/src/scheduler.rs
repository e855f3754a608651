//! The reusable trial scheduler: worker pool, stateless per-trial seeding
//! and deterministic report assembly.
//!
//! This is the execution core that used to live inside
//! [`ScenarioGrid::run`](crate::harness::ScenarioGrid::run), extracted so
//! every consumer of the experiment engine shares one scheduler:
//!
//! * the `exp` binary (via [`ScenarioGrid::run`](crate::harness::ScenarioGrid::run), now a thin wrapper),
//! * the `dimmerd` simulation daemon (which runs submitted grids through
//!   the same plan → fan-out → assemble pipeline), and
//! * CI jobs, whose byte-for-byte determinism checks therefore cover the
//!   daemon's serving path too.
//!
//! The contract is unchanged from the original harness and pinned by
//! `tests/tests/scheduler_extraction.rs` golden digests:
//!
//! 1. **Stateless seeding** — [`plan_trials`] derives every trial's seed
//!    from `(base seed, cell index, trial index)` via
//!    [`SimRng::derive_seed`](dimmer_sim::SimRng::derive_seed); no seed depends on execution order.
//! 2. **Order-independent fan-out** — [`run_jobs`] distributes jobs to
//!    workers through an atomic cursor but writes each result into its
//!    pre-assigned slot, so the collected vector is in job order no matter
//!    how the OS schedules the workers.
//! 3. **Deterministic assembly** — [`assemble_report`] folds per-trial
//!    metrics cell by cell in grid order, producing reports that are
//!    byte-identical for any worker count.

use dimmer_sim::{workqueue, SimRng};

use crate::harness::{GridCell, RunOptions, TrialMetrics};
use crate::report::{Aggregate, CellReport, GridReport};

/// One planned trial: which cell runs, which repetition it is, and the
/// derived seed it consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialPlan {
    /// Index of the grid cell this trial belongs to.
    pub cell: usize,
    /// Trial index within the cell (`0..trials`).
    pub trial: usize,
    /// The trial's private seed, derived statelessly from
    /// `(base, cell, trial)`.
    pub seed: u64,
}

/// Plans the flat `cells × trials` job list with stateless per-trial seeds.
///
/// Job `cell * trials + trial` always carries
/// `SimRng::derive_seed(base_seed, &[cell, trial])`, so the plan — and
/// therefore every downstream result — is a pure function of the inputs.
///
/// # Examples
///
/// ```
/// use dimmer_bench::scheduler::plan_trials;
/// let plan = plan_trials(2, 3, 42);
/// assert_eq!(plan.len(), 6);
/// assert_eq!((plan[4].cell, plan[4].trial), (1, 1));
/// assert_eq!(plan, plan_trials(2, 3, 42), "planning is deterministic");
/// ```
pub fn plan_trials(cells: usize, trials: usize, base_seed: u64) -> Vec<TrialPlan> {
    (0..cells)
        .flat_map(|cell| {
            (0..trials).map(move |trial| TrialPlan {
                cell,
                trial,
                seed: SimRng::derive_seed(base_seed, &[cell as u64, trial as u64]),
            })
        })
        .collect()
}

/// Fans `jobs` indexed jobs out across `threads` workers and returns the
/// results **in job order**.
///
/// Jobs are distributed dynamically (an atomic cursor over the job
/// indices), so long and short jobs share the workers efficiently; each
/// result lands in its pre-assigned slot, keeping the output order — and
/// therefore anything assembled from it — independent of scheduling.
///
/// Since PR 10 this is a thin wrapper over the shared scoped worker pool
/// in [`dimmer_sim::workqueue`], which `FloodBatch::run_parallel` also
/// runs on; the golden digests in `tests/tests/scheduler_extraction.rs`
/// pin that the extraction changed nothing.
///
/// # Panics
///
/// Panics if a job closure panics (the poisoned result store propagates).
pub fn run_jobs<R, F>(jobs: usize, threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Send + Sync,
{
    workqueue::run_indexed_jobs(jobs, threads, run)
}

/// Assembles the deterministic [`GridReport`] from per-trial metrics in
/// job order (the layout [`plan_trials`] produces: trials of cell 0, then
/// trials of cell 1, ...).
///
/// # Panics
///
/// Panics if `results` does not hold exactly `cells × trials` entries or
/// if the trials of one cell disagree on their metric names.
pub fn assemble_report(
    name: &str,
    opts: &RunOptions,
    cells: &[GridCell],
    results: &[TrialMetrics],
) -> GridReport {
    assert_eq!(
        results.len(),
        cells.len() * opts.trials,
        "need one result per planned trial"
    );
    let cell_reports = cells
        .iter()
        .enumerate()
        .map(|(ci, cell)| {
            let per_trial: Vec<&TrialMetrics> = results[ci * opts.trials..(ci + 1) * opts.trials]
                .iter()
                .collect();
            aggregate_cell(cell, &per_trial)
        })
        .collect();
    GridReport {
        grid: name.to_string(),
        seed: opts.seed,
        trials: opts.trials,
        cells: cell_reports,
    }
}

/// Folds the per-trial metric samples of one cell into a [`CellReport`].
///
/// # Panics
///
/// Panics if the trials disagree on their metric names.
pub fn aggregate_cell(cell: &GridCell, per_trial: &[&TrialMetrics]) -> CellReport {
    for t in per_trial {
        assert_eq!(
            t.entries().len(),
            per_trial[0].entries().len(),
            "cell '{}': trials must emit identical metric sets",
            cell.label
        );
    }
    let names: Vec<&str> = per_trial[0]
        .entries()
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let metrics = names
        .iter()
        .enumerate()
        .map(|(mi, name)| {
            let samples: Vec<f64> = per_trial
                .iter()
                .map(|t| {
                    let (n, v) = &t.entries()[mi];
                    assert_eq!(
                        n, name,
                        "cell '{}': trials must emit identical metric names",
                        cell.label
                    );
                    *v
                })
                .collect();
            (name.to_string(), Aggregate::from_samples(&samples))
        })
        .collect();
    CellReport {
        label: cell.label.clone(),
        params: cell.params.clone(),
        trials: per_trial.len(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_matches_the_documented_seed_derivation() {
        let plan = plan_trials(3, 2, 7);
        assert_eq!(plan.len(), 6);
        for p in &plan {
            assert_eq!(
                p.seed,
                SimRng::derive_seed(7, &[p.cell as u64, p.trial as u64])
            );
        }
        // Flat layout: cell-major, trial-minor.
        assert_eq!((plan[3].cell, plan[3].trial), (1, 1));
    }

    #[test]
    fn run_jobs_returns_results_in_job_order_for_any_worker_count() {
        for threads in [1, 2, 4, 64] {
            let out = run_jobs(10, threads, |i| i * i);
            assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(run_jobs(0, 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "one result per planned trial")]
    fn assemble_rejects_mismatched_result_counts() {
        assemble_report(
            "broken",
            &RunOptions {
                trials: 2,
                threads: 1,
                seed: 0,
            },
            &[],
            &[TrialMetrics::new()],
        );
    }
}
