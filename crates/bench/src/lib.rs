//! # dimmer-bench — the experiment engine
//!
//! Every table, figure and sweep of the evaluation is one entry of the
//! scenario [`catalogue`], run by the single `exp` binary (see the
//! reproduction guide in the repository-root `README.md` and
//! `ARCHITECTURE.md`):
//!
//! | Grid                | Reproduces                                              |
//! |---------------------|---------------------------------------------------------|
//! | `table1`            | Table I + the embedded-DQN footprint numbers (§IV-B)    |
//! | `fig4b:<part>`      | Fig. 4b — input-feature selection (K and history sweep) |
//! | `fig4c`             | Fig. 4c/4d — adaptivity against dynamic interference    |
//! | `fig5`              | Fig. 5a/5b — reliability & radio-on vs interference     |
//! | `fig6`              | Fig. 6 — forwarder selection with multi-armed bandits   |
//! | `fig7`              | Fig. 7 — 48-node D-Cube comparison vs LWB and Crystal   |
//! | `fig5-seeds`, ...   | Sweeps beyond the paper (seeds, topology size, city)    |
//!
//! `exp --grid NAME` accepts `--protocols a,b,c --trials N --threads N
//! --seed S --json PATH` in addition to `--quick`: protocol names resolve
//! against the registry in `dimmer-baselines` (`"dimmer-dqn"`,
//! `"dimmer-rule"`, `"pid"`, `"static"`, `"crystal"`), trials of each
//! scenario cell are fanned out across worker threads by the [`harness`]
//! module, per-trial seeds are derived deterministically (reports are
//! bit-identical regardless of `--threads`), and [`report`] aggregates
//! mean / stddev / 95 % CI per metric with optional machine-readable JSON
//! output.
//!
//! The library layers, bottom up:
//!
//! * [`scenarios`] — interference/topology and dynamic-world scenario
//!   builders shared by the experiments,
//! * [`summary`] — the report-aggregation helpers every figure runner and
//!   grid shares (run summaries, harness metrics, timeline buckets),
//! * [`experiments`] — the testable per-figure experiment cores and their
//!   [`ScenarioGrid`] builders, all running protocols through the generic
//!   `RoundEngine` via the protocol registry,
//! * [`scheduler`] — the reusable trial scheduler (worker pool, stateless
//!   per-trial seeding, deterministic report assembly) shared by the
//!   harness and the `dimmerd` daemon,
//! * [`harness`] — the parallel multi-trial engine and the `exp` command
//!   line,
//! * [`catalogue`] — every grid's name, defaults and builder, shared by
//!   `exp` and the `dimmerd` daemon,
//! * [`report`] — statistics aggregation, table printing and JSON,
//!
//! plus the Criterion micro-benchmarks in `benches/micro.rs`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalogue;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod scenarios;
pub mod scheduler;
pub mod summary;
pub mod training;

pub use harness::{HarnessCli, RunOptions, ScenarioGrid, TrialMetrics};
pub use report::{Aggregate, CellReport, GridReport};
pub use scenarios::{dimmer_policy, dynamic_interference_scenario, kiel_jamming};
pub use summary::{bucketize, mean_forwarders, summarize, summary_metrics, ProtocolSummary};
