//! The parallel multi-trial experiment engine.
//!
//! The paper's headline results are *distributions* over many seeds and
//! interference scenarios, so every experiment drives its scenario
//! through this engine instead of a hand-rolled single-trial loop:
//!
//! 1. Describe the scenario space as a [`ScenarioGrid`] — one [`GridCell`]
//!    per parameter combination (policy × interference × topology ×
//!    traffic), each holding a closure that runs *one* trial from a seed.
//! 2. Call [`ScenarioGrid::run`] with [`RunOptions`] (`--trials`,
//!    `--threads`, `--seed`). The engine fans the `cells × trials` jobs out
//!    across worker threads.
//! 3. Get back a [`GridReport`] with per-cell mean / stddev / 95 % CI per
//!    metric, printable as a table or serializable to JSON.
//!
//! # Determinism
//!
//! Each trial's seed is derived statelessly from
//! `(base seed, cell index, trial index)` via [`SimRng::derive_seed`](dimmer_sim::SimRng::derive_seed), and
//! results are written into pre-allocated slots keyed by job index, so the
//! aggregated report is **bit-identical regardless of the number of worker
//! threads** or how the OS schedules them. `--threads` only changes
//! wall-clock time, never results.
//!
//! # Examples
//!
//! ```
//! use dimmer_bench::harness::{RunOptions, ScenarioGrid, TrialMetrics};
//!
//! let mut grid = ScenarioGrid::new("demo");
//! for bias in [0.0, 1.0] {
//!     grid.push_cell(
//!         format!("bias={bias}"),
//!         vec![("bias".into(), format!("{bias}"))],
//!         move |seed| TrialMetrics::new().with("value", bias + (seed % 3) as f64),
//!     );
//! }
//! let report = grid.run(&RunOptions { trials: 4, threads: 2, seed: 42 });
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(report.cells[0].metric("value").unwrap().n, 4);
//! // Thread count never changes the result:
//! let serial = grid.run(&RunOptions { trials: 4, threads: 1, seed: 42 });
//! assert_eq!(report.to_json(), serial.to_json());
//! ```

use crate::report::GridReport;
use crate::scheduler;

/// The named metric samples produced by one trial.
///
/// Metrics keep insertion order; every trial of a cell must emit the same
/// metric names (the engine asserts this while aggregating).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialMetrics {
    entries: Vec<(String, f64)>,
}

impl TrialMetrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        TrialMetrics::default()
    }

    /// Adds a metric sample (builder style).
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.push(name, value);
        self
    }

    /// Adds a metric sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value));
    }

    /// The `(name, value)` samples, in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }
}

/// One cell of a scenario grid: a parameter combination plus the closure
/// that runs a single trial of it.
pub struct GridCell {
    /// Human-readable label (becomes the table row / JSON `label`).
    pub label: String,
    /// Structured parameters (become the JSON `params` object).
    pub params: Vec<(String, String)>,
    run: Box<dyn Fn(u64) -> TrialMetrics + Send + Sync>,
}

/// A named collection of [`GridCell`]s to sweep.
pub struct ScenarioGrid {
    name: String,
    cells: Vec<GridCell>,
}

/// Execution options of a grid run, normally resolved from a catalogue
/// request ([`crate::catalogue::Resolved::run_options`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Trials per cell (each with its own derived seed).
    pub trials: usize,
    /// Worker threads; clamped to at least 1. Only affects wall-clock time.
    pub threads: usize,
    /// Base seed all per-trial seeds are derived from.
    pub seed: u64,
}

impl ScenarioGrid {
    /// Creates an empty grid.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioGrid {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// The grid's name (used as the JSON `grid` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the grid under a different name (used by presets that derive
    /// their cells from another grid builder).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds a cell. `run` receives the trial's derived seed and returns the
    /// trial's metrics; it must be deterministic in that seed.
    pub fn push_cell(
        &mut self,
        label: impl Into<String>,
        params: Vec<(String, String)>,
        run: impl Fn(u64) -> TrialMetrics + Send + Sync + 'static,
    ) {
        self.cells.push(GridCell {
            label: label.into(),
            params,
            run: Box::new(run),
        });
    }

    /// Runs `trials` trials of every cell across `threads` workers and
    /// aggregates the metrics.
    ///
    /// This is a thin wrapper over the reusable
    /// [`scheduler`] pipeline — [`plan_trials`]
    /// (stateless seeding), [`run_jobs`] (order-independent worker pool)
    /// and [`assemble_report`] (deterministic aggregation) — shared with
    /// the `dimmerd` daemon, so reports stay byte-identical for any
    /// `threads` no matter who runs the grid.
    ///
    /// [`plan_trials`]: crate::scheduler::plan_trials
    /// [`run_jobs`]: crate::scheduler::run_jobs
    /// [`assemble_report`]: crate::scheduler::assemble_report
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0`, if a trial closure panics, or if the
    /// trials of one cell disagree on their metric names.
    pub fn run(&self, opts: &RunOptions) -> GridReport {
        assert!(opts.trials > 0, "need at least one trial per cell");
        let plan = scheduler::plan_trials(self.cells.len(), opts.trials, opts.seed);
        let results = scheduler::run_jobs(plan.len(), opts.threads, |i| {
            (self.cells[plan[i].cell].run)(plan[i].seed)
        });
        scheduler::assemble_report(&self.name, opts, &self.cells, &results)
    }
}

/// The command line of the `exp` binary — the **one CLI surface** of the
/// scenario catalogue, with the same grid names and flags as
/// `dimmer-cli submit`:
///
/// ```text
/// exp --grid NAME [--quick] [--trials N] [--threads N] [--seed S]
///     [--protocols a,b,c] [--json PATH] [--envs N]
/// ```
///
/// Absent values stay `None` so the catalogue fills in the grid's own
/// defaults (see [`crate::catalogue::resolve`]); parsing only checks the
/// shape of the arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessCli {
    /// Catalogue grid name (`--grid`), e.g. `fig5` or `dynamics:link-fade`.
    pub grid: String,
    /// Whether `--quick` was passed (roughly 10x shorter runs).
    pub quick: bool,
    /// Trials per cell (`--trials`).
    pub trials: Option<usize>,
    /// Worker threads (`--threads`); defaults to the host's available
    /// parallelism. Only affects wall-clock time.
    pub threads: usize,
    /// Base seed (`--seed`).
    pub seed: Option<u64>,
    /// Comma-separated registry protocol names (`--protocols`).
    pub protocols: Option<Vec<String>>,
    /// Optional JSON report path (`--json`).
    pub json: Option<std::path::PathBuf>,
    /// Lockstep training environments of `train:*` grids (`--envs`); only
    /// affects wall-clock time.
    pub envs: usize,
}

impl HarnessCli {
    /// Parses `std::env::args`, exiting the process with status 2 on
    /// malformed input.
    pub fn parse() -> HarnessCli {
        // lint: allow(D003) -- the one sanctioned ambient read: the CLI entry point; every flag is threaded explicitly from here
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list (binary name excluded).
    ///
    /// Rejects unknown flags, positional arguments, a value flag without a
    /// value (a successor that is itself a `--flag` does not count, so
    /// `--json --quick` is not a report written to a file named `--quick`),
    /// malformed numbers, and any flag passed more than once.
    pub fn parse_from(args: &[String]) -> Result<HarnessCli, String> {
        let mut cli = HarnessCli {
            grid: String::new(),
            quick: false,
            trials: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: None,
            protocols: None,
            json: None,
            envs: crate::catalogue::DEFAULT_ENVS,
        };
        let mut args = args.iter().peekable();
        let mut seen: Vec<&str> = Vec::new();
        while let Some(flag) = args.next() {
            if seen.contains(&flag.as_str()) {
                return Err(format!("{flag} passed more than once"));
            }
            seen.push(flag);
            if flag == "--quick" {
                cli.quick = true;
                continue;
            }
            const VALUE_FLAGS: [&str; 7] = [
                "--grid",
                "--trials",
                "--threads",
                "--seed",
                "--protocols",
                "--json",
                "--envs",
            ];
            if !VALUE_FLAGS.contains(&flag.as_str()) {
                return Err(format!(
                    "unexpected argument '{flag}' (flags: --quick, {})",
                    VALUE_FLAGS.join(", ")
                ));
            }
            let value = args
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let number = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag} expects a non-negative integer, got '{value}'"))
            };
            match flag.as_str() {
                "--grid" => cli.grid = value.clone(),
                "--trials" => cli.trials = Some(number()? as usize),
                "--threads" => cli.threads = (number()? as usize).max(1),
                "--seed" => cli.seed = Some(number()?),
                "--envs" => cli.envs = (number()? as usize).max(1),
                "--protocols" => {
                    cli.protocols = Some(value.split(',').map(|p| p.trim().to_string()).collect())
                }
                _ => cli.json = Some(std::path::PathBuf::from(value)),
            }
        }
        if cli.grid.is_empty() {
            return Err("--grid NAME is required".to_string());
        }
        Ok(cli)
    }

    /// Writes `report` to the `--json` path if one was given, printing the
    /// destination; exits with status 1 on I/O errors.
    pub fn emit_json(&self, report: &GridReport) {
        if let Some(path) = &self.json {
            if let Err(e) = report.write_json(path) {
                eprintln!("error: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("json report written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::SimRng;

    fn demo_grid() -> ScenarioGrid {
        let mut grid = ScenarioGrid::new("demo");
        for cell in 0..3u64 {
            grid.push_cell(
                format!("cell{cell}"),
                vec![("cell".into(), cell.to_string())],
                move |seed| {
                    // Deterministic in the seed, distinct per cell.
                    let mut rng = SimRng::seed_from(seed);
                    TrialMetrics::new()
                        .with("value", rng.gen_probability() + cell as f64)
                        .with("constant", 1.5)
                },
            );
        }
        grid
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let grid = demo_grid();
        let base = grid.run(&RunOptions {
            trials: 5,
            threads: 1,
            seed: 42,
        });
        for threads in [2, 4, 8] {
            let parallel = grid.run(&RunOptions {
                trials: 5,
                threads,
                seed: 42,
            });
            assert_eq!(base, parallel, "threads={threads} must be bit-identical");
            assert_eq!(base.to_json(), parallel.to_json());
        }
    }

    #[test]
    fn seeds_vary_per_cell_and_trial() {
        let grid = demo_grid();
        let report = grid.run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 7,
        });
        // Different trials of the same cell see different seeds, so the
        // stochastic metric has spread while the constant one does not.
        for cell in &report.cells {
            assert!(cell.metric("value").unwrap().stddev > 0.0);
            assert_eq!(cell.metric("constant").unwrap().stddev, 0.0);
        }
        // Different base seeds give different results.
        let other = grid.run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 8,
        });
        assert_ne!(report, other);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut grid = ScenarioGrid::new("tiny");
        grid.push_cell("only", vec![], |seed| {
            TrialMetrics::new().with("seed", seed as f64)
        });
        let report = grid.run(&RunOptions {
            trials: 1,
            threads: 64,
            seed: 0,
        });
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].trials, 1);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_is_rejected() {
        demo_grid().run(&RunOptions {
            trials: 0,
            threads: 1,
            seed: 0,
        });
    }

    fn cli(args: &[&str]) -> Result<HarnessCli, String> {
        HarnessCli::parse_from(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_from_reads_every_flag() {
        let c = cli(&[
            "--grid",
            "dynamics:churn-storm",
            "--trials",
            "4",
            "--threads",
            "2",
            "--quick",
            "--protocols",
            "static, pid",
            "--seed",
            "5",
            "--envs",
            "8",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(c.grid, "dynamics:churn-storm");
        assert_eq!(c.trials, Some(4));
        assert_eq!(c.threads, 2);
        assert_eq!(c.seed, Some(5));
        assert_eq!(c.envs, 8);
        assert!(c.quick);
        assert_eq!(
            c.protocols,
            Some(vec!["static".to_string(), "pid".to_string()])
        );
        assert_eq!(c.json.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn parse_from_leaves_defaults_to_the_catalogue() {
        let c = cli(&["--grid", "fig5"]).unwrap();
        assert_eq!(
            (c.trials, c.seed, c.protocols, c.json),
            (None, None, None, None)
        );
        assert!(!c.quick);
        assert!(c.threads >= 1);
        assert_eq!(c.envs, crate::catalogue::DEFAULT_ENVS);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        let err = |args: &[&str]| cli(args).unwrap_err();
        // A repeated flag is an error, not a silent first-wins.
        let e = err(&["--grid", "fig5", "--seed", "1", "--seed", "2"]);
        assert!(e.contains("--seed") && e.contains("more than once"), "{e}");
        assert!(err(&["--grid", "fig5", "--quick", "--quick"]).contains("more than once"));
        // `--json --quick` must not treat `--quick` as the report path.
        assert!(err(&["--grid", "fig5", "--json", "--quick"]).contains("expects a value"));
        assert!(err(&["--grid", "fig5", "--trials", "zero"]).contains("non-negative integer"));
        // There are no per-figure flags: the grid name carries the preset.
        assert!(err(&["--grid", "dynamics", "--scenario", "x"]).contains("unexpected argument"));
        assert!(err(&["--grid", "fig5", "stray"]).contains("unexpected argument"));
        assert!(err(&["--quick"]).contains("--grid NAME is required"));
    }

    #[test]
    fn grid_len_and_name() {
        let grid = demo_grid();
        assert_eq!(grid.name(), "demo");
        assert_eq!(grid.len(), 3);
        assert!(!grid.is_empty());
        assert!(ScenarioGrid::new("empty").is_empty());
    }
}
