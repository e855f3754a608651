//! The scenario catalogue: the one table of every experiment grid this
//! repository can run.
//!
//! Each entry names a paper figure or sweep and holds everything needed
//! to run it: its supported and default protocols, its default seed, its
//! default trials and its round/flood/iteration counts (each as a
//! `[quick, full]` pair), and the builder that turns a resolved request
//! into a [`ScenarioGrid`]. Both front ends consume this table and nothing
//! else:
//!
//! * the `exp` binary (`exp --grid NAME [--quick] [--trials N] ...`, see
//!   [`run_cli`]), which adds each entry's human-readable output;
//! * the `dimmerd` daemon, whose scenario specs are thin JSON shells over
//!   [`resolve`] and [`Resolved::build`].
//!
//! So a daemon-served report is byte-identical to the `exp --json` report
//! of the same grid, seed and trials, and a default cannot drift between
//! the two. Parameterized entries are requested as `name:<variant>`
//! (`fig4b:nodes`, `dynamics:churn-storm`, `train:calm`).

use std::sync::Arc;

use crate::experiments::{
    city_scale_grid, city_worlds, dynamics_grid, dynamics_run, fig4b_grid, fig4c_dimmer,
    fig4c_grid, fig4c_pid, fig5_grid, fig5_seed_sweep_grid, fig6_grid, fig6_single, fig7_grid,
    grid10k_world, table1_grid, table1_summary, topology_size_grid, CachedRun, CityWorld,
    DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS, DYNAMICS_SUPPORTED, TESTBED_PROTOCOLS,
};
use crate::harness::{HarnessCli, RunOptions, ScenarioGrid};
use crate::report::GridReport;
use crate::scenarios::{dimmer_policy, dynamic_scenario, DYNAMIC_SCENARIOS};
use crate::summary::{bucketize, phase_summaries, summarize};
use crate::training::{train_grid, TRAIN_FAMILIES};
use dimmer_core::{DimmerConfig, DimmerRoundReport};
use dimmer_sim::{SimRng, Topology};
use dimmer_traces::TraceCollector;

/// Lockstep training environments of `train:*` when `--envs` is absent.
/// The farm's output is byte-identical for any value (pure prefetch).
pub const DEFAULT_ENVS: usize = 4;

/// The Fig. 5 jamming duty-cycle sweep.
const FIG5_LEVELS: [f64; 8] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];

/// Rounds of the shared Fig. 4b training trace, `[quick, full]`.
const FIG4B_TRACE_ROUNDS: [usize; 2] = [60, 160];

/// Pre-simulated runs handed from an entry's print hook to its builder,
/// indexed by grid cell (see [`CachedRun`]).
type Cached = Vec<Option<CachedRun>>;

/// One catalogue entry.
struct Entry {
    /// Grid name; entries with [`variants`](Self::variants) are requested
    /// as `name:<variant>`.
    name: &'static str,
    /// For parameterized entries: what the variant selects and its
    /// accepted values.
    variants: Option<(&'static str, &'static [&'static str])>,
    /// The protocols a request may select; empty for grids without a
    /// protocol axis.
    supported: &'static [&'static str],
    /// The protocols run when none are selected.
    default_protocols: &'static [&'static str],
    /// Base seed when none is given.
    seed: u64,
    /// Trials per cell when none are given, `[quick, full]`.
    trials: [usize; 2],
    /// Rounds, floods or training iterations per trial, `[quick, full]`
    /// (unused where [`unit`](Self::unit) is empty).
    scale: [usize; 2],
    /// What [`scale`](Self::scale) counts.
    unit: &'static str,
    /// The paper's expectation, printed by `exp` after the table.
    note: &'static str,
    /// Builds the grid, reusing the runs the print hook cached per cell.
    build: fn(&Resolved, &mut Context<'_>, &[Option<CachedRun>]) -> ScenarioGrid,
    /// `exp`'s human-readable output before the grid runs.
    print: Option<fn(&Resolved) -> Cached>,
}

impl Entry {
    /// The name as requested, with a `<variant>` placeholder for
    /// parameterized entries (`dynamics:<preset>`).
    fn pattern(&self) -> String {
        match self.variants {
            Some((what, _)) => format!("{}:<{what}>", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Every grid, in documentation order.
const CATALOGUE: [Entry; 12] = [
    Entry {
        name: "table1",
        variants: None,
        supported: &[],
        default_protocols: &[],
        seed: 1,
        trials: [1, 1],
        scale: [0, 0],
        unit: "",
        note: "",
        build: |_, _, _| table1_grid(&DimmerConfig::default()),
        print: Some(print_table1),
    },
    Entry {
        name: "fig4b",
        variants: Some(("part", &["nodes", "history", "both"])),
        supported: &[],
        default_protocols: &[],
        seed: 1000,
        trials: [1, 3],
        scale: [4_000, 20_000],
        unit: "training iterations",
        note: "(paper: K = 1..5 wastes energy, K = 18 overfits, K = 10 minimizes radio-on time;\n \
               no history 98.5% vs 99% with history, more than 2 entries adds little)",
        build: build_fig4b,
        print: None,
    },
    Entry {
        name: "fig4c",
        variants: None,
        supported: &["dimmer-dqn", "pid"],
        default_protocols: &["dimmer-dqn", "pid"],
        seed: 7,
        trials: [1, 1],
        // 14 or 27 minutes of 4-second rounds.
        scale: [210, 405],
        unit: "rounds",
        note: "",
        build: build_fig4c,
        print: Some(print_fig4c),
    },
    Entry {
        name: "fig5",
        variants: None,
        supported: &TESTBED_PROTOCOLS,
        default_protocols: &TESTBED_PROTOCOLS,
        seed: 100,
        trials: [1, 3],
        scale: [60, 200],
        unit: "rounds",
        note: "\nexpected shape (paper): all protocols degrade with interference; Dimmer & PID stay\n\
               above LWB in reliability; the PID's radio-on time saturates towards 20 ms faster than\n\
               Dimmer's at low/moderate interference; LWB never uses the full slot on average.",
        build: |r, _, _| {
            fig5_grid(
                dimmer_policy(r.quick),
                r.scale(),
                &FIG5_LEVELS,
                &r.protocols,
            )
        },
        print: None,
    },
    Entry {
        name: "fig5-seeds",
        variants: None,
        supported: &TESTBED_PROTOCOLS,
        default_protocols: &TESTBED_PROTOCOLS,
        seed: 500,
        trials: [16, 16],
        scale: [40, 120],
        unit: "rounds",
        note: "",
        build: |r, _, _| fig5_seed_sweep_grid(dimmer_policy(r.quick), r.scale(), &r.protocols),
        print: None,
    },
    Entry {
        name: "fig6",
        variants: None,
        supported: &[],
        default_protocols: &[],
        seed: 3,
        trials: [1, 1],
        // 1 or 5 hours of 4-second rounds.
        scale: [900, 4_500],
        unit: "rounds",
        note: "(paper: 99.9% reliability; 9.55 ms with vs 11.04 ms without forwarder selection,\n \
               active forwarders dropping towards ~14 of 18)",
        build: |r, _, cached| fig6_grid(r.scale(), cell(cached, 0)),
        print: Some(print_fig6),
    },
    Entry {
        name: "fig7",
        variants: None,
        supported: &DCUBE_PROTOCOLS,
        default_protocols: &DCUBE_PROTOCOLS,
        seed: 300,
        trials: [1, 3],
        scale: [200, 600],
        unit: "rounds",
        note: "\nexpected shape (paper): LWB collapses under WiFi level 2 (~27%), Dimmer stays above\n\
               95%, Crystal around 99-100%; Dimmer's energy approaches Crystal's under interference.",
        build: |r, _, _| fig7_grid(dimmer_policy(r.quick), r.scale(), &r.protocols),
        print: None,
    },
    Entry {
        name: "topology-size",
        variants: None,
        supported: &["static", "dimmer-rule", "pid"],
        default_protocols: &["static", "dimmer-rule"],
        seed: 500,
        trials: [8, 8],
        scale: [40, 120],
        unit: "rounds",
        note: "",
        build: |r, _, _| topology_size_grid(r.scale(), &[3, 4, 5, 6], &r.protocols),
        print: None,
    },
    Entry {
        name: "city",
        variants: None,
        supported: &[],
        default_protocols: &[],
        seed: 500,
        trials: [4, 4],
        scale: [8, 24],
        unit: "floods",
        note: "",
        build: |r, ctx, _| city_scale_grid(r.scale(), (ctx.city_worlds)(), ctx.batch_threads),
        print: None,
    },
    Entry {
        name: "grid10k",
        variants: None,
        supported: &[],
        default_protocols: &[],
        seed: 500,
        trials: [2, 2],
        scale: [6, 32],
        unit: "floods",
        note: "",
        build: |r, ctx, _| {
            let world = Arc::new(grid10k_world());
            city_scale_grid(r.scale(), vec![world], ctx.batch_threads)
        },
        print: None,
    },
    Entry {
        name: "dynamics",
        variants: Some(("preset", &DYNAMIC_SCENARIOS)),
        // The default set is pinned by a golden digest; `dimmer-zoo` is
        // opt-in so adding it never changes the default run's bytes.
        supported: &DYNAMICS_SUPPORTED,
        default_protocols: &DYNAMICS_PROTOCOLS,
        seed: 11,
        trials: [1, 1],
        scale: [60, 200],
        unit: "rounds",
        note: "",
        build: |r, _, cached| {
            dynamics_grid(
                dimmer_policy(r.quick),
                r.scale(),
                r.variant,
                &r.protocols,
                cell(cached, 0),
            )
        },
        print: Some(print_dynamics),
    },
    Entry {
        name: "train",
        variants: Some(("family", &TRAIN_FAMILIES)),
        // The protocol under test is the policy being trained.
        supported: &[],
        default_protocols: &[],
        seed: 42,
        trials: [1, 1],
        scale: [0, 0],
        unit: "",
        note: "",
        build: |r, ctx, _| train_grid(r.variant, r.quick, ctx.envs),
        print: None,
    },
];

/// What a builder may take from its caller beyond the request: prefetch
/// knobs that never change a report byte, and where city worlds come from.
pub struct Context<'a> {
    /// Scoped workers each `city`/`grid10k` trial fans its floods across.
    pub batch_threads: usize,
    /// Lockstep environments of a `train:*` farm.
    pub envs: usize,
    /// The four `city` worlds: a fresh build, or the daemon's warm cache.
    pub city_worlds: &'a mut dyn FnMut() -> Vec<Arc<CityWorld>>,
}

/// A request resolved against the catalogue: every name validated, every
/// default filled in.
pub struct Resolved {
    entry: &'static Entry,
    /// The grid name as requested (`dynamics:churn-storm`).
    pub name: String,
    /// The `<variant>` of a parameterized entry; empty otherwise.
    variant: &'static str,
    /// Quick mode: the entry's reduced counts.
    pub quick: bool,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// The protocols to run, in order; empty for grids without a protocol
    /// axis.
    pub protocols: Vec<String>,
}

/// Resolves a request: looks `grid` up, validates the protocol selection
/// and fills in the entry's defaults for everything left `None`.
pub fn resolve(
    grid: &str,
    quick: bool,
    trials: Option<usize>,
    seed: Option<u64>,
    protocols: Option<&[String]>,
) -> Result<Resolved, String> {
    let (base, variant) = match grid.split_once(':') {
        Some((base, variant)) => (base, Some(variant)),
        None => (grid, None),
    };
    let unknown = || {
        let names: Vec<String> = CATALOGUE.iter().map(Entry::pattern).collect();
        format!("unknown grid '{grid}' (grids: {})", names.join(", "))
    };
    let entry = CATALOGUE
        .iter()
        .find(|e| e.name == base)
        .ok_or_else(unknown)?;
    let variant = match (entry.variants, variant) {
        (None, None) => "",
        (Some((what, values)), Some(v)) => values.iter().find(|&&x| x == v).ok_or_else(|| {
            format!(
                "unknown {} {what} '{v}' (choices: {})",
                entry.name,
                values.join(", ")
            )
        })?,
        _ => return Err(unknown()),
    };
    if trials == Some(0) {
        return Err("trials must be at least 1".to_string());
    }
    let protocols = match protocols {
        Some(_) if entry.supported.is_empty() => {
            return Err(format!(
                "grid '{grid}' has no protocol axis; omit the protocol selection"
            ))
        }
        Some(requested) => {
            check_protocols(requested, entry.supported, grid)?;
            requested.to_vec()
        }
        None => entry
            .default_protocols
            .iter()
            .map(|p| p.to_string())
            .collect(),
    };
    Ok(Resolved {
        entry,
        name: grid.to_string(),
        variant,
        quick,
        trials: trials.unwrap_or(entry.trials[usize::from(!quick)]),
        seed: seed.unwrap_or(entry.seed),
        protocols,
    })
}

/// The one protocol-selection check: rejects an empty selection, names the
/// registry does not know, names `grid` does not support, and duplicates.
fn check_protocols(requested: &[String], supported: &[&str], grid: &str) -> Result<(), String> {
    if requested.is_empty() {
        return Err("the protocol selection must not be empty".to_string());
    }
    for (i, name) in requested.iter().enumerate() {
        if !supported.contains(&name.as_str()) {
            let registry = dimmer_baselines::ProtocolRegistry::standard();
            return Err(if registry.contains(name) {
                format!(
                    "protocol '{name}' is not supported by grid '{grid}' (supported: {})",
                    supported.join(", ")
                )
            } else {
                format!(
                    "unknown protocol '{name}' (registry: {})",
                    registry.names().join(", ")
                )
            });
        }
        if requested[..i].contains(name) {
            return Err(format!("protocol '{name}' listed more than once"));
        }
    }
    Ok(())
}

impl Resolved {
    /// Rounds, floods or iterations per trial at this request's scale.
    pub fn scale(&self) -> usize {
        self.entry.scale[usize::from(!self.quick)]
    }

    /// The scheduler options of this request on `threads` workers.
    pub fn run_options(&self, threads: usize) -> RunOptions {
        RunOptions {
            trials: self.trials,
            threads,
            seed: self.seed,
        }
    }

    /// Builds the grid.
    pub fn build(&self, ctx: &mut Context<'_>) -> ScenarioGrid {
        (self.entry.build)(self, ctx, &[])
    }
}

/// Runs the `exp` command line: resolves `--grid`, prints a header and the
/// entry's human-readable output, runs the grid and prints its table.
/// Entries whose output simulates a cell (the single-trial timelines of
/// `fig4c`, `fig6` and `dynamics:*`) hand that run to the grid so nothing
/// simulates twice.
pub fn run_cli(cli: &HarnessCli) -> Result<GridReport, String> {
    let r = resolve(
        &cli.grid,
        cli.quick,
        cli.trials,
        cli.seed,
        cli.protocols.as_deref(),
    )?;
    let opts = r.run_options(cli.threads);
    let mut shape = Vec::new();
    if !r.protocols.is_empty() {
        shape.push(r.protocols.join("/"));
    }
    if !r.entry.unit.is_empty() {
        shape.push(format!("{} {}", r.scale(), r.entry.unit));
    }
    shape.push(format!("{} trials per cell", opts.trials));
    println!(
        "{} ({} mode): {}, seed {}, {} worker threads",
        r.name,
        if r.quick { "quick" } else { "full" },
        shape.join(" x "),
        opts.seed,
        opts.threads
    );
    let cached = r.entry.print.map(|print| print(&r)).unwrap_or_default();
    let mut build_worlds = || city_worlds().into_iter().map(Arc::new).collect();
    let mut ctx = Context {
        batch_threads: cli.threads,
        envs: cli.envs,
        city_worlds: &mut build_worlds,
    };
    let report = (r.entry.build)(&r, &mut ctx, &cached).run(&opts);
    report.print_table();
    if !r.entry.note.is_empty() {
        println!("{}", r.entry.note);
    }
    Ok(report)
}

fn cell(cached: &[Option<CachedRun>], index: usize) -> Option<CachedRun> {
    cached.get(index).cloned().flatten()
}

fn build_fig4b(r: &Resolved, _: &mut Context<'_>, _: &[Option<CachedRun>]) -> ScenarioGrid {
    let trace_rounds = FIG4B_TRACE_ROUNDS[usize::from(!r.quick)];
    let topo = Topology::kiel_testbed_18(1);
    let traces = Arc::new(TraceCollector::new(&topo, 21).collect(trace_rounds));
    fig4b_grid(traces, r.scale(), 40, r.variant)
}

fn build_fig4c(r: &Resolved, _: &mut Context<'_>, cached: &[Option<CachedRun>]) -> ScenarioGrid {
    let cache = |name: &str| {
        let index = r.protocols.iter().position(|p| p == name)?;
        cell(cached, index)
    };
    fig4c_grid(
        dimmer_policy(r.quick),
        r.scale(),
        &r.protocols,
        cache("dimmer-dqn"),
        cache("pid"),
    )
}

fn print_table1(_: &Resolved) -> Cached {
    let cfg = DimmerConfig::default();
    let summary = table1_summary(&cfg);
    println!("== Table I: input vector of Dimmer's DQN ==");
    println!("{:<16} {:>14} Normalization", "Input", "Rows");
    println!(
        "{:<16} {:>14} [0, 20ms] -> [-1, 1]",
        "Radio-on time", cfg.k_input_nodes
    );
    println!(
        "{:<16} {:>14} [50, 100%] -> [-1, 1]",
        "Reliability", cfg.k_input_nodes
    );
    println!(
        "{:<16} {:>14} one-hot encoding",
        "N parameter",
        cfg.n_max + 1
    );
    println!(
        "{:<16} {:>14} -1 if losses, otherwise 1",
        "History", cfg.history_size
    );
    println!("total input dimension: {}", summary.state_dim);
    println!(
        "\nexample state vector (pessimistic start, N_TX = {}):",
        cfg.initial_ntx
    );
    println!("{:?}", summary.example_state);
    println!("\n== Embedded DQN footprint (paper: ~2.1 kB flash, ~400 B RAM, 31-30-3) ==");
    println!("parameters          : {}", summary.parameters);
    println!("flash (2 B weights) : {} B", summary.flash_bytes);
    println!("ram  (4 B buffers)  : {} B", summary.ram_bytes);
    println!(
        "pretrained weights shipped with dimmer-core: {}\n",
        summary.pretrained_shipped
    );
    Vec::new()
}

/// Per-minute timelines of each protocol (the figure's actual content),
/// for single-trial runs, with the derived seeds of the grid's cells.
fn print_fig4c(r: &Resolved) -> Cached {
    if r.trials != 1 {
        return Vec::new();
    }
    let cached = r
        .protocols
        .iter()
        .enumerate()
        .map(|(index, protocol)| {
            let seed = SimRng::derive_seed(r.seed, &[index as u64, 0]);
            // Resolution restricted the selection to dimmer-dqn and pid.
            let (label, reports) = if protocol == "dimmer-dqn" {
                let reports = fig4c_dimmer(dimmer_policy(r.quick), r.scale(), seed);
                ("Dimmer (Fig. 4c)", reports)
            } else {
                ("PID baseline (Fig. 4d)", fig4c_pid(r.scale(), seed))
            };
            print_fig4c_timeline(label, &reports);
            Some(CachedRun::new(seed, reports))
        })
        .collect();
    println!();
    cached
}

fn print_fig4c_timeline(label: &str, reports: &[DimmerRoundReport]) {
    println!("\n== {label}: per-minute timeline ==");
    println!(
        "{:>6} {:>12} {:>10} {:>14}",
        "minute", "reliability", "mean NTX", "radio-on [ms]"
    );
    // 15 four-second rounds per simulated minute.
    for (minute, bucket) in bucketize(reports, 15).iter().enumerate() {
        println!(
            "{minute:>6} {:>12.4} {:>10.2} {:>14.2}",
            bucket.reliability, bucket.mean_ntx, bucket.radio_on_ms
        );
    }
    let overall = summarize(reports);
    println!(
        "overall: reliability {:.1}%, radio-on {:.1} ms (paper: Dimmer 99.3% / 12.3 ms, PID 99.3% / 14.4 ms)",
        overall.reliability * 100.0,
        overall.radio_on_ms
    );
}

/// The 30-minute-bucket timeline of the selection cell, for single-trial
/// runs.
fn print_fig6(r: &Resolved) -> Cached {
    if r.trials != 1 {
        return Vec::new();
    }
    let seed = SimRng::derive_seed(r.seed, &[0, 0]);
    let with_fs = fig6_single(r.scale(), seed, true);
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "minute", "forwarders", "reliability", "radio-on [ms]"
    );
    // 450 four-second rounds = 30 simulated minutes per row.
    for (i, bucket) in bucketize(&with_fs, 450).iter().enumerate() {
        println!(
            "{:>8} {:>12.1} {:>12.4} {:>14.2}",
            i * 30,
            bucket.mean_forwarders,
            bucket.reliability,
            bucket.radio_on_ms
        );
    }
    println!();
    vec![Some(CachedRun::new(seed, with_fs))]
}

/// The preset's description and, for single-trial runs, the per-phase
/// timeline of the first protocol.
fn print_dynamics(r: &Resolved) -> Cached {
    let topo = Topology::kiel_testbed_18(1);
    let Some(preset) = dynamic_scenario(r.variant, r.scale(), &topo) else {
        return Vec::new();
    };
    println!(
        "{} ({} scripted events)",
        preset.summary,
        preset.script.len()
    );
    if r.trials != 1 {
        return Vec::new();
    }
    let protocol = &r.protocols[0];
    let seed = SimRng::derive_seed(r.seed, &[0, 0]);
    let reports = dynamics_run(
        protocol,
        r.variant,
        &dimmer_policy(r.quick),
        r.scale(),
        seed,
    );
    println!("\n== {protocol}: per-phase timeline ==");
    println!(
        "{:>14} {:>7} {:>12} {:>10} {:>14} {:>8}",
        "phase", "rounds", "reliability", "mean NTX", "radio-on [ms]", "alive"
    );
    for (label, s) in phase_summaries(&reports, &preset.phase_bounds()) {
        println!(
            "{label:>14} {:>7} {:>12.4} {:>10.2} {:>14.2} {:>8.1}",
            s.rounds, s.reliability, s.mean_ntx, s.radio_on_ms, s.mean_alive
        );
    }
    println!();
    vec![Some(CachedRun::new(seed, reports))]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(grid, seed, [quick, full] trials, supported, default protocols)`.
    type Defaults = (
        &'static str,
        u64,
        [usize; 2],
        &'static [&'static str],
        &'static [&'static str],
    );

    /// Every entry's defaults, written out. Each value comes from the
    /// paper's per-figure runs; a change here changes what `exp` and
    /// `dimmerd` run by default.
    const DEFAULTS: [Defaults; 12] = [
        ("table1", 1, [1, 1], &[], &[]),
        ("fig4b", 1000, [1, 3], &[], &[]),
        (
            "fig4c",
            7,
            [1, 1],
            &["dimmer-dqn", "pid"],
            &["dimmer-dqn", "pid"],
        ),
        (
            "fig5",
            100,
            [1, 3],
            &["static", "dimmer-dqn", "pid"],
            &["static", "dimmer-dqn", "pid"],
        ),
        (
            "fig5-seeds",
            500,
            [16, 16],
            &["static", "dimmer-dqn", "pid"],
            &["static", "dimmer-dqn", "pid"],
        ),
        ("fig6", 3, [1, 1], &[], &[]),
        (
            "fig7",
            300,
            [1, 3],
            &["static", "dimmer-dqn", "crystal"],
            &["static", "dimmer-dqn", "crystal"],
        ),
        (
            "topology-size",
            500,
            [8, 8],
            &["static", "dimmer-rule", "pid"],
            &["static", "dimmer-rule"],
        ),
        ("city", 500, [4, 4], &[], &[]),
        ("grid10k", 500, [2, 2], &[], &[]),
        (
            "dynamics",
            11,
            [1, 1],
            &["static", "dimmer-dqn", "dimmer-rule", "pid", "dimmer-zoo"],
            &["static", "dimmer-dqn", "dimmer-rule", "pid"],
        ),
        ("train", 42, [1, 1], &[], &[]),
    ];

    #[test]
    fn every_entry_keeps_its_defaults() {
        for (entry, (name, seed, trials, supported, defaults)) in CATALOGUE.iter().zip(DEFAULTS) {
            assert_eq!(entry.name, name);
            assert_eq!(entry.seed, seed, "{name}");
            assert_eq!(entry.trials, trials, "{name}");
            assert_eq!(entry.supported, supported, "{name}");
            assert_eq!(entry.default_protocols, defaults, "{name}");
        }
    }

    #[test]
    fn defaults_are_supported_by_their_own_entry() {
        for entry in &CATALOGUE {
            assert_eq!(
                entry.supported.is_empty(),
                entry.default_protocols.is_empty()
            );
            let defaults: Vec<String> = entry
                .default_protocols
                .iter()
                .map(|p| p.to_string())
                .collect();
            if !defaults.is_empty() {
                check_protocols(&defaults, entry.supported, entry.name).unwrap();
            }
        }
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn resolution_fills_defaults_and_validates_names() {
        let fig5 = resolve("fig5", true, None, None, None).unwrap();
        assert_eq!((fig5.trials, fig5.seed, fig5.scale()), (1, 100, 60));
        assert_eq!(fig5.protocols, names(&TESTBED_PROTOCOLS));
        let full = resolve("fig5", false, Some(2), Some(9), None).unwrap();
        assert_eq!((full.trials, full.seed, full.scale()), (2, 9, 200));
        let zoo = resolve(
            "dynamics:link-fade",
            true,
            None,
            None,
            Some(&names(&["dimmer-zoo"])),
        );
        assert_eq!(zoo.unwrap().variant, "link-fade");

        let err = |grid: &str, protocols: Option<&[&str]>| {
            let protocols = protocols.map(names);
            resolve(grid, true, None, None, protocols.as_deref())
                .err()
                .unwrap_or_default()
        };
        assert!(err("fig9", None).contains("unknown grid"));
        assert!(err("dynamics", None).contains("unknown grid"));
        assert!(err("fig5:nodes", None).contains("unknown grid"));
        assert!(err("dynamics:warp", None).contains("unknown dynamics preset"));
        assert!(err("train:volcanic", None).contains("unknown train family"));
        assert!(err("fig4b:all", None).contains("unknown fig4b part"));
        assert!(err("city", Some(&["static"])).contains("no protocol axis"));
        assert!(err("fig5", Some(&[])).contains("must not be empty"));
        assert!(err("fig5", Some(&["crystal"])).contains("not supported"));
        assert!(err("fig5", Some(&["warp-drive"])).contains("unknown protocol"));
        assert!(err("fig5", Some(&["pid", "static", "pid"])).contains("more than once"));
        assert!(resolve("fig5", true, Some(0), None, None)
            .err()
            .unwrap_or_default()
            .contains("at least 1"));
    }
}
