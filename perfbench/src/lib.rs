//! # perfbench — the repository benchmark
//!
//! One std-only program that times calls into the workspace crates'
//! public functions on three paper-path workloads:
//!
//! * `testbed-rounds` — closed loop, one thread: back-to-back engine
//!   rounds on the Fig. 5 jammed testbed, the Fig. 7 D-Cube cells and two
//!   dynamic-world presets ([`testbed`]);
//! * `city-floods` — closed loop: parallel Glossy flood batches over the
//!   city-scale sparse worlds and the 10 000-node grid ([`city`]);
//! * `daemon-mixed` — open loop at a fixed offered rate: a request mix
//!   over loopback TCP to an in-process `dimmerd` ([`daemon`]).
//!
//! `BENCHMARK.json` lists `testbed-rounds` and `daemon-mixed`
//! ([`Workload::BENCHMARKED`]); `city-floods` runs by name and inside
//! every traced run. The testbed's host times are scaled to a nominal
//! host speed by a reference kernel timed beside them ([`calibrate`]).
//!
//! Every run prints one JSON line: the end-to-end metrics of
//! [`catalogue::END_TO_END`] (untraced run) or the per-layer metrics of
//! [`catalogue::PER_LAYER`] (traced run). Layers are named after the
//! workspace crates; spans recorded around each call ([`trace`]) give the
//! per-layer numbers. `bench-diff` ([`diff`]) compares two sets of runs.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod catalogue;
pub mod city;
pub mod cli;
pub mod daemon;
pub mod diff;
pub mod fnv;
pub mod host;
pub mod report;
pub mod stats;
pub mod testbed;
pub mod trace;

use std::time::{Duration, Instant};

pub use cli::{Args, Workload};
pub use report::Outcome;

/// What one phase of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Operations attempted (rounds, floods, requests).
    pub attempted: u64,
    /// Operations whose output check failed, that errored, were refused
    /// or timed out.
    pub failed: u64,
    /// Completed operations per second: the median window rate on the
    /// testbed (calibrated, see [`calibrate`]) and the city, the
    /// whole-plan rate on the daemon.
    pub throughput_per_s: f64,
    /// Per-operation latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Simulated mean delivery ratio.
    pub reliability: f64,
    /// Simulated mean radio-on time per slot, in milliseconds.
    pub radio_on_ms: f64,
    /// FNV digest of the workload's outputs.
    pub digest: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Extra facts for the result file (never printed as metrics).
    pub notes: Vec<(String, String)>,
}

/// Runs `setup` `reps` times (at least once), returning the last result
/// and the median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous instance first so every repetition starts
        // from the same heap state.
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.expect("setup ran at least once");
    (value, stats::median(&times))
}

/// One workload phase: what it measured and its median set-up time.
struct Phase {
    measured: Measured,
    setup_s: f64,
}

/// Sets up and runs `workload` for `seconds`, recording spans into
/// `tracer` when it is enabled.
fn run_phase(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: &mut trace::Tracer,
) -> Result<Phase, String> {
    let budget = Duration::from_secs_f64(seconds);
    let threads = host::nproc();
    let (measured, setup_s) = match workload {
        Workload::TestbedRounds => {
            // Set-up is timed inside the run, next to the reference kernel.
            let testbed = testbed::Testbed::setup(seed);
            let (measured, setup_s) = testbed::run(&testbed, budget, tracer);
            (measured, stats::median(&setup_s))
        }
        Workload::CityFloods => {
            let (city, setup_s) =
                timed_setup(city::SETUP_REPS, || city::City::setup(seed, threads));
            (city::run(&city, budget, tracer), setup_s)
        }
        Workload::DaemonMixed => {
            let (server, setup_s) = timed_setup(daemon::SETUP_REPS, || {
                daemon::Server::start(seed, seconds, threads)
            });
            let server = server.map_err(|e| format!("daemon set-up failed: {e}"))?;
            let measured =
                daemon::run(&server, tracer).map_err(|e| format!("daemon client failed: {e}"))?;
            (measured, setup_s)
        }
    };
    Ok(Phase { measured, setup_s })
}

/// Threads and connections a workload's load uses.
fn load_shape(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::TestbedRounds => (1, 0),
        Workload::CityFloods => (host::nproc(), 0),
        Workload::DaemonMixed => (daemon::CONNECTIONS, daemon::CONNECTIONS),
    }
}

/// Everything one run produced: the printed outcome plus what goes to
/// the result file.
pub struct RunReport {
    /// The verdict and printed metrics.
    pub outcome: Outcome,
    /// FNV digest of the named workload's outputs.
    pub digest: u64,
    /// Extra facts for the result file.
    pub notes: Vec<(String, String)>,
    /// Spans of a traced run.
    pub tracer: trace::Tracer,
}

/// Runs the benchmark as `args` asks: the end-to-end metrics of one
/// untraced run, or (traced) the complete per-layer breakdown.
///
/// A traced run measures the named workload, after a minimal warm-up run,
/// untraced and then traced for half the time each (the ratio of their median latencies is
/// `trace.overhead_ratio`, and their outputs must agree), then runs the other two workloads traced for a
/// quarter of the time each, so every layer's metrics are present.
pub fn execute(args: &Args) -> Result<RunReport, String> {
    let mut notes: Vec<(String, String)> = Vec::new();
    if !args.trace {
        let mut tracer = trace::Tracer::new(false);
        let phase = run_phase(args.workload, args.seed, args.seconds, &mut tracer)?;
        let m = &phase.measured;
        let tail = stats::tail(&m.latencies_ms);
        let peak_rss = host::peak_rss_mb().ok_or("VmHWM is not available")?;
        let values = [
            m.throughput_per_s,
            stats::median(&m.latencies_ms),
            tail.value,
            phase.setup_s,
            peak_rss,
            m.reliability,
            m.radio_on_ms,
        ];
        // A run that produced no result (say, every request failed) has no
        // finite latency; it prints 0 and is marked incorrect.
        let finite = values.iter().all(|v| v.is_finite());
        let metrics = catalogue::END_TO_END
            .iter()
            .zip(values)
            .map(|(def, v)| {
                (
                    def.name.to_string(),
                    if v.is_finite() { v } else { 0.0 },
                    def.unit,
                )
            })
            .collect();
        // The workload-specific names of the generic end-to-end metrics.
        let aliases: &[(&str, f64)] = match args.workload {
            Workload::TestbedRounds => &[("rounds_per_s", values[0])],
            Workload::CityFloods => &[("floods_per_s", values[0])],
            Workload::DaemonMixed => &[("result_p50_ms", values[1]), ("result_tail_ms", values[2])],
        };
        for (name, value) in aliases {
            notes.push((name.to_string(), value.to_string()));
        }
        notes.push(("tail_percentile".into(), tail.percentile.to_string()));
        notes.push(("tail_samples".into(), tail.samples.to_string()));
        notes.extend(m.notes.iter().cloned());
        let outcome = Outcome {
            correct: finite && m.failed == 0 && m.attempted > 0,
            attempted: m.attempted,
            failed: m.failed,
            metrics,
        };
        return Ok(RunReport {
            outcome,
            digest: m.digest,
            notes,
            tracer,
        });
    }

    let mut tracer = trace::Tracer::new(true);
    let half = args.seconds / 2.0;
    // A minimal warm-up run first, so the untraced phase does not pay the
    // process's first-touch costs that the traced phase would not.
    run_phase(
        args.workload,
        args.seed,
        0.0,
        &mut trace::Tracer::new(false),
    )?;
    let untraced = run_phase(
        args.workload,
        args.seed,
        half,
        &mut trace::Tracer::new(false),
    )?;
    let traced = run_phase(args.workload, args.seed, half, &mut tracer)?;
    let (u, t) = (&untraced.measured, &traced.measured);
    let overhead = stats::median(&t.latencies_ms) / stats::median(&u.latencies_ms);
    let mut attempted = u.attempted + t.attempted;
    let mut failed = u.failed + t.failed;
    let agree = u.digest == t.digest
        && u.reliability.to_bits() == t.reliability.to_bits()
        && u.radio_on_ms.to_bits() == t.radio_on_ms.to_bits();
    if !agree {
        failed += 1;
        notes.push(("traced_untraced_mismatch".into(), "true".into()));
    }
    let mut layers = t.layers.clone();
    layers.push(("trace.overhead_ratio".into(), overhead));
    for other in Workload::ALL.into_iter().filter(|w| *w != args.workload) {
        let phase = run_phase(other, args.seed, args.seconds / 4.0, &mut tracer)?;
        attempted += phase.measured.attempted;
        failed += phase.measured.failed;
        layers.extend(phase.measured.layers);
    }
    let mut metrics = Vec::new();
    for def in catalogue::PER_LAYER {
        let value = layers
            .iter()
            .find(|(name, _)| name == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("traced run did not produce {}", def.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not finite", def.name));
        }
        metrics.push((def.name.to_string(), value, def.unit));
    }
    notes.extend(t.notes.iter().cloned());
    Ok(RunReport {
        outcome: Outcome {
            correct: failed == 0 && attempted > 0,
            attempted,
            failed,
            metrics,
        },
        digest: t.digest,
        notes,
        tracer,
    })
}

/// Writes the result file (and, for a traced run, the span file) of a
/// run, returning the result file's path.
pub fn write_results(args: &Args, report: &RunReport) -> std::io::Result<std::path::PathBuf> {
    use dimmerd::json::Json;
    let dir = report::results_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = report::run_stem(args.workload.name(), args.seed, args.trace);
    let (threads, connections) = load_shape(args.workload);
    let outcome = &report.outcome;
    let mut fields = vec![
        (
            "workload".to_string(),
            Json::Str(args.workload.name().into()),
        ),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "fingerprint".to_string(),
            report::string_object(&host::fingerprint(threads, connections)),
        ),
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted)),
        ("failed".to_string(), Json::Int(outcome.failed)),
        (
            "failed_ratio".to_string(),
            Json::Num(outcome.failed_ratio()),
        ),
        (
            "digest".to_string(),
            Json::Str(format!("{:016x}", report.digest)),
        ),
        ("metrics".to_string(), outcome.metrics_json()),
        ("notes".to_string(), report::string_object(&report.notes)),
    ];
    if args.trace {
        let map: Vec<(String, String)> = catalogue::PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.moves.to_string()))
            .collect();
        fields.push(("layer_map".to_string(), report::string_object(&map)));
        let unmeasured: Vec<(&str, String)> = catalogue::UNMEASURED
            .iter()
            .map(|(layer, why)| (*layer, why.to_string()))
            .collect();
        fields.push(("unmeasured".to_string(), report::string_object(&unmeasured)));
        report
            .tracer
            .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{}\n", Json::Obj(fields)))?;
    Ok(path)
}
