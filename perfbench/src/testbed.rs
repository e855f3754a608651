//! `testbed-rounds`: closed loop on one thread over the paper's testbed
//! cells.
//!
//! Each pass builds every cell's engine through `SimulationBuilder` and
//! makes back-to-back `run_round` calls on it. The cells are Fig. 5
//! (kiel18 under `kiel_jamming` at 0/15/30/35 % × static, pid, dimmer-dqn,
//! dimmer-zoo), Fig. 7 (dcube48 calm and WiFi-2 × static, dimmer-dqn,
//! crystal) and two dynamic presets (churn-storm and roaming-jammer ×
//! dimmer-zoo, pid). Static cells only read their compiled world; the
//! dynamic cells patch it between rounds.
//!
//! Every pass repeats the same inputs, so every pass must reproduce the
//! first pass's per-cell digests; after timing, the first pass is also
//! checked against the experiment crate's own runners (`fig5_run`,
//! `fig7_run`, `dynamics_run`).

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dimmer_baselines::SimulationBuilder;
use dimmer_bench::experiments::{dynamics_run, fig5_run, fig7_run, Fig7Scenario};
use dimmer_bench::scenarios::{dynamic_scenario, kiel_jamming};
use dimmer_bench::summarize;
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, DimmerConfig, DimmerRoundReport, Simulation,
    StatisticsCollector, DEFAULT_STATS_WINDOW,
};
use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment};
use dimmer_lwb::{LwbConfig, LwbScheduler, RoundExecutor, TrafficPattern};
use dimmer_sim::{
    CompiledTopology, InterferenceModel, NoInterference, NodeId, Position, ScenarioScript, SimRng,
    SimTime, Topology, WifiInterference, WifiLevel, World,
};

use crate::calibrate;
use crate::fnv::Fnv;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Measured;

/// Rounds every cell runs per pass; the dynamic presets are scaled to it.
pub const ROUNDS_PER_CELL: usize = 120;

const FIG5_LEVELS: [(f64, &str); 4] = [(0.0, "0"), (0.15, "15"), (0.30, "30"), (0.35, "35")];
const FIG5_PROTOCOLS: [&str; 4] = ["static", "pid", "dimmer-dqn", "dimmer-zoo"];
const FIG7_PROTOCOLS: [&str; 3] = ["static", "dimmer-dqn", "crystal"];
const DYNAMIC_PRESETS: [&str; 2] = ["churn-storm", "roaming-jammer"];
const DYNAMIC_PROTOCOLS: [&str; 2] = ["dimmer-zoo", "pid"];

/// The Fig. 5 level whose cells give the per-protocol round costs.
const OVERHEAD_LEVEL: &str = "30";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Figure {
    Fig5 { level: f64 },
    Fig7(Fig7Scenario),
    Dynamics(&'static str),
}

/// One benchmark cell: a protocol on a substrate under an interference
/// model, with its own seed.
pub struct Cell {
    /// `"<figure>/<protocol>"`, e.g. `"fig5-jam30/pid"`.
    pub label: &'static str,
    /// Registry protocol name.
    pub protocol: &'static str,
    figure: Figure,
    interference: Box<dyn InterferenceModel>,
    script: Option<ScenarioScript>,
    /// Seed of the cell's engine, derived from the workload seed.
    pub seed: u64,
}

/// Everything a pass needs, built once per set-up: topologies, per-cell
/// interference and scripts, and the pretrained policy.
pub struct Testbed {
    kiel: Topology,
    dcube: Topology,
    policy: AdaptivityPolicy,
    /// The workload seed the cells derive from.
    seed: u64,
    /// The cells in pass order.
    pub cells: Vec<Cell>,
}

/// A `'static` copy of `s`, leaked once per distinct label so that
/// repeated set-ups do not grow the heap.
fn leak(s: String) -> &'static str {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut interned = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&label) = interned.get(s.as_str()) {
        return label;
    }
    let label: &'static str = Box::leak(s.into_boxed_str());
    interned.insert(label);
    label
}

impl Testbed {
    /// Builds the cells for `seed` and each cell's engine once (so
    /// registry lookups, policy and zoo loading are part of set-up).
    pub fn setup(seed: u64) -> Testbed {
        let kiel = Topology::kiel_testbed_18(1);
        let dcube = Topology::dcube_48(7);
        let policy = dimmer_bench::dimmer_policy(true);
        let mut cells = Vec::new();
        let mut push = |label: String, protocol, figure, interference, script| {
            let seed = SimRng::derive_seed(seed, &[cells.len() as u64]);
            cells.push(Cell {
                label: leak(label),
                protocol,
                figure,
                interference,
                script,
                seed,
            });
        };
        for (level, name) in FIG5_LEVELS {
            for protocol in FIG5_PROTOCOLS {
                push(
                    format!("fig5-jam{name}/{protocol}"),
                    protocol,
                    Figure::Fig5 { level },
                    Box::new(kiel_jamming(level)),
                    None,
                );
            }
        }
        for (scenario, name) in [
            (Fig7Scenario::Calm, "calm"),
            (Fig7Scenario::WifiLevel2, "wifi2"),
        ] {
            for protocol in FIG7_PROTOCOLS {
                // Placeholder model; the per-cell WiFi model is seeded below.
                push(
                    format!("fig7-{name}/{protocol}"),
                    protocol,
                    Figure::Fig7(scenario),
                    Box::new(NoInterference),
                    None,
                );
            }
        }
        for preset in DYNAMIC_PRESETS {
            for protocol in DYNAMIC_PROTOCOLS {
                let sc = dynamic_scenario(preset, ROUNDS_PER_CELL, &kiel)
                    .expect("preset is in the catalogue");
                push(
                    format!("dyn-{preset}/{protocol}"),
                    protocol,
                    Figure::Dynamics(preset),
                    sc.interference,
                    Some(sc.script),
                );
            }
        }
        for cell in &mut cells {
            if cell.figure == Figure::Fig7(Fig7Scenario::WifiLevel2) {
                // fig7_run seeds the WiFi model with the trial seed.
                cell.interference = Box::new(WifiInterference::new(WifiLevel::Level2, cell.seed));
            }
        }
        let testbed = Testbed {
            kiel,
            dcube,
            policy,
            seed,
            cells,
        };
        for cell in &testbed.cells {
            std::hint::black_box(testbed.engine(cell));
        }
        testbed
    }

    /// Builds `cell`'s engine exactly as the experiment runners do.
    fn engine<'a>(&'a self, cell: &'a Cell) -> Box<dyn Simulation + 'a> {
        let topo = match cell.figure {
            Figure::Fig7(_) => &self.dcube,
            _ => &self.kiel,
        };
        let mut builder = SimulationBuilder::new(topo)
            .interference(cell.interference.as_ref())
            .policy(self.policy.clone())
            .seed(cell.seed);
        if let Figure::Fig7(_) = cell.figure {
            let (lwb, dimmer) = if cell.protocol == "static" {
                (
                    LwbConfig::dcube_default().with_channel_hopping(false),
                    DimmerConfig::default(),
                )
            } else {
                (LwbConfig::dcube_default(), DimmerConfig::dcube())
            };
            builder = builder.lwb_config(lwb).dimmer_config(dimmer).traffic(
                TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator()),
            );
        }
        if let Some(script) = &cell.script {
            builder = builder.script(script.clone());
        }
        builder
            .build_protocol(cell.protocol)
            .expect("cell protocols are registry names")
    }

    /// Total rounds of one pass.
    pub fn rounds_per_pass(&self) -> usize {
        self.cells.len() * ROUNDS_PER_CELL
    }
}

/// One cell's output in a pass.
#[derive(Debug, Clone, PartialEq)]
struct CellRun {
    digest: u64,
    reports: Vec<DimmerRoundReport>,
    app_reliability: f64,
    energy_joules: f64,
}

fn digest_reports(reports: &[DimmerRoundReport]) -> u64 {
    let mut h = Fnv::default();
    for r in reports {
        h.u64(r.round_index)
            .u64(u64::from(r.ntx))
            .f64(r.reliability)
            .f64(r.mean_radio_on.as_millis_f64())
            .u64(r.losses as u64)
            .f64(r.energy_joules)
            .u64(r.packets_delivered as u64)
            .u64(r.alive_nodes as u64);
    }
    h.finish()
}

/// Runs one pass: every cell's engine built and run for
/// [`ROUNDS_PER_CELL`] back-to-back rounds.
fn run_pass(testbed: &Testbed, tracer: &mut Tracer) -> Vec<CellRun> {
    let mut runs = Vec::with_capacity(testbed.cells.len());
    for cell in &testbed.cells {
        let mut engine = tracer.span("baselines.build_protocol", cell.protocol, |_| {
            testbed.engine(cell)
        });
        let reports: Vec<DimmerRoundReport> = (0..ROUNDS_PER_CELL)
            .map(|_| tracer.span("core.run_round", cell.label, |_| engine.run_round()))
            .collect();
        runs.push(CellRun {
            digest: digest_reports(&reports),
            app_reliability: engine.app_reliability(),
            energy_joules: engine.total_energy_joules(),
            reports,
        });
    }
    runs
}

/// Checks the first pass against the experiment crate's own runners for
/// the same cells, returning the labels that disagree.
fn reference_mismatches(testbed: &Testbed, runs: &[CellRun]) -> Vec<&'static str> {
    let mut bad = Vec::new();
    for (cell, run) in testbed.cells.iter().zip(runs) {
        let ok = match cell.figure {
            Figure::Fig5 { level } => {
                summarize(&run.reports)
                    == fig5_run(
                        cell.protocol,
                        level,
                        &testbed.policy,
                        ROUNDS_PER_CELL,
                        cell.seed,
                    )
            }
            Figure::Fig7(scenario) => {
                let reference = fig7_run(
                    cell.protocol,
                    scenario,
                    &testbed.policy,
                    ROUNDS_PER_CELL,
                    cell.seed,
                );
                reference.reliability == run.app_reliability
                    && reference.energy_joules == run.energy_joules
            }
            Figure::Dynamics(preset) => {
                dynamics_run(
                    cell.protocol,
                    preset,
                    &testbed.policy,
                    ROUNDS_PER_CELL,
                    cell.seed,
                ) == run.reports
            }
        };
        if !ok {
            bad.push(cell.label);
        }
    }
    bad
}

/// Runs passes until `budget` is spent (at least one), checking every
/// pass against the first. Throughput counts rounds; the latency unit is
/// one pass.
///
/// After every pass the reference kernel of [`calibrate`] runs, and a
/// fresh set-up of the same testbed is timed, so the set-up times
/// (returned beside the measurements) sample the whole run. Every host
/// time is scaled by the run's calibration factor, from the median of
/// the reference times.
pub fn run(testbed: &Testbed, budget: Duration, tracer: &mut Tracer) -> (Measured, Vec<f64>) {
    let mut host_pass_ms = Vec::new();
    let mut host_setup_s = Vec::new();
    let mut reference_ms = Vec::new();
    let mut first: Option<Vec<CellRun>> = None;
    let mut failed = 0u64;
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let runs = run_pass(testbed, tracer);
        host_pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        reference_ms.push(calibrate::reference_ms());
        let t0 = Instant::now();
        let fresh = Testbed::setup(testbed.seed);
        host_setup_s.push(t0.elapsed().as_secs_f64());
        drop(std::hint::black_box(fresh));
        passes += 1;
        match &first {
            None => first = Some(runs),
            Some(reference) => {
                for (a, b) in reference.iter().zip(&runs) {
                    if a.digest != b.digest {
                        failed += ROUNDS_PER_CELL as u64;
                    }
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let first = first.expect("at least one pass ran");
    let mismatched = reference_mismatches(testbed, &first);
    failed += (mismatched.len() * ROUNDS_PER_CELL) as u64;

    let all: Vec<&DimmerRoundReport> = first.iter().flat_map(|r| &r.reports).collect();
    let reliability = all.iter().map(|r| r.reliability).sum::<f64>() / all.len() as f64;
    let radio_on_ms = all
        .iter()
        .map(|r| r.mean_radio_on.as_millis_f64())
        .sum::<f64>()
        / all.len() as f64;
    let mut digest = Fnv::default();
    for run in &first {
        digest.u64(run.digest);
    }
    let rounds = passes * testbed.rounds_per_pass() as u64;
    let per_pass = testbed.rounds_per_pass() as f64;
    let speed = calibrate::factor(median(&reference_ms));
    let latencies_ms: Vec<f64> = host_pass_ms.iter().map(|ms| ms * speed).collect();
    let setup_s = host_setup_s.iter().map(|s| s * speed).collect();
    let mut measured = Measured {
        attempted: rounds,
        failed,
        throughput_per_s: per_pass / (median(&latencies_ms) / 1e3),
        latencies_ms,
        reliability,
        radio_on_ms,
        digest: digest.finish(),
        ..Measured::default()
    };
    let notes = [
        ("passes", passes.to_string()),
        ("reference_mismatches", mismatched.join(",")),
        (
            "host_rounds_per_s",
            (per_pass / (median(&host_pass_ms) / 1e3)).to_string(),
        ),
        ("host_pass_p50_ms", median(&host_pass_ms).to_string()),
        (
            "host_pass_min_ms",
            host_pass_ms
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .to_string(),
        ),
        ("host_setup_p50_s", median(&host_setup_s).to_string()),
        ("reference_p50_ms", median(&reference_ms).to_string()),
        ("reference_nominal_ms", calibrate::NOMINAL_MS.to_string()),
    ];
    for (name, value) in notes {
        measured.notes.push((name.to_string(), value));
    }
    if tracer.enabled() {
        measured.layers = layers(testbed, &first, tracer);
    }
    (measured, setup_s)
}

fn positions(topo: &Topology) -> Vec<Position> {
    topo.node_ids().map(|id| topo.position(id)).collect()
}

/// Repeats `f` inside a span `reps` times.
fn probe<R>(
    tracer: &mut Tracer,
    name: &'static str,
    tag: &'static str,
    reps: usize,
    mut f: impl FnMut() -> R,
) {
    for _ in 0..reps {
        std::hint::black_box(tracer.span(name, tag, |_| f()));
    }
}

fn median_us(tracer: &Tracer, name: &str, tag: &str) -> f64 {
    median(&tracer.durations_us(name, Some(tag)))
}

/// Per-layer metrics from the pass spans plus probes that call each
/// layer's public functions on the Fig. 5 30 % cell's inputs.
fn layers(testbed: &Testbed, first: &[CellRun], tracer: &mut Tracer) -> Vec<(String, f64)> {
    const REPS: usize = 200;
    let mut out: Vec<(String, f64)> = Vec::new();
    let jam30 = kiel_jamming(0.30);
    let wifi2 = WifiInterference::new(WifiLevel::Level2, 1);
    let kiel_pos = positions(&testbed.kiel);
    let dcube_pos = positions(&testbed.dcube);

    // sim: dense compile, interference masks, world advance.
    probe(tracer, "sim.compile", "kiel18", REPS, || {
        CompiledTopology::compile(&testbed.kiel)
    });
    probe(tracer, "sim.compile", "dcube48", REPS, || {
        CompiledTopology::compile(&testbed.dcube)
    });
    probe(tracer, "sim.mask_compile", "kiel18", REPS, || {
        jam30.compile_for(&kiel_pos)
    });
    probe(tracer, "sim.mask_compile", "dcube48", REPS, || {
        wifi2.compile_for(&dcube_pos)
    });
    for world in ["kiel18", "dcube48"] {
        out.push((
            format!("sim.compile_ms.{world}"),
            median_us(tracer, "sim.compile", world) / 1e3,
        ));
        out.push((
            format!("sim.mask_compile_us.{world}"),
            median_us(tracer, "sim.mask_compile", world),
        ));
    }
    let period = LwbConfig::testbed_default().round_period;
    let mut events = 0usize;
    for cell in &testbed.cells {
        let Some(script) = &cell.script else { continue };
        let mut world = World::new(
            testbed.kiel.num_nodes(),
            testbed.kiel.coordinator(),
            script.clone(),
        );
        for r in 0..ROUNDS_PER_CELL {
            let now = SimTime::ZERO + period * r as u64;
            let update = tracer.span("sim.world_advance", cell.label, |_| world.advance_to(now));
            events += update.fired.len();
        }
    }
    out.push((
        "sim.world_advance_us".into(),
        median(&tracer.durations_us("sim.world_advance", None)),
    ));
    out.push(("sim.world_events".into(), events as f64));

    // glossy: the dense flood kernel on the two paper substrates.
    let cfg = GlossyConfig::with_uniform_ntx(3);
    for (tag, topo, interference) in [
        (
            "kiel18-jam30",
            &testbed.kiel,
            &jam30 as &dyn InterferenceModel,
        ),
        (
            "dcube48-wifi2",
            &testbed.dcube,
            &wifi2 as &dyn InterferenceModel,
        ),
    ] {
        let mut sim = FloodSimulator::new(topo, interference);
        let mut rng = SimRng::seed_from(7);
        for k in 0..REPS as u64 {
            let start = SimTime::from_millis(k * 37);
            std::hint::black_box(tracer.span("glossy.flood", tag, |_| {
                sim.flood(&cfg, topo.coordinator(), start, &mut rng)
            }));
        }
        out.push((
            format!("glossy.flood_ns.{tag}"),
            median_us(tracer, "glossy.flood", tag) * 1e3,
        ));
    }

    // core: per-protocol round cost and N_TX at Fig. 5 30 %.
    let mean_ntx = |protocol: &str| {
        testbed
            .cells
            .iter()
            .zip(first)
            .find(|(c, _)| c.label == format!("fig5-jam{OVERHEAD_LEVEL}/{protocol}"))
            .map(|(_, run)| summarize(&run.reports).mean_ntx)
            .unwrap_or(0.0)
    };
    let mut round_us = Vec::new();
    for protocol in FIG5_PROTOCOLS {
        let label = format!("fig5-jam{OVERHEAD_LEVEL}/{protocol}");
        let us = median(&tracer.durations_us("core.run_round", Some(&label)));
        round_us.push((protocol, us));
        out.push((format!("core.round_us.{protocol}"), us));
        out.push((format!("core.mean_ntx.{protocol}"), mean_ntx(protocol)));
    }
    let dimmer_ntx = mean_ntx("dimmer-dqn").round().clamp(1.0, 255.0) as u8;

    // lwb: one round at N_TX 3 and at Dimmer's mean N_TX, plus the stats
    // windows fed from those rounds.
    let all_nodes: Vec<NodeId> = testbed.kiel.node_ids().collect();
    let mut stats = StatisticsCollector::new(testbed.kiel.num_nodes(), DEFAULT_STATS_WINDOW);
    let mut floods_per_round = Vec::new();
    for (tag, ntx) in [("ntx3", 3u8), ("ntx-dimmer", dimmer_ntx)] {
        let config = LwbConfig::testbed_default();
        let mut executor = RoundExecutor::new(&testbed.kiel, &jam30, config.clone());
        let mut scheduler = LwbScheduler::new(config.clone());
        let mut rng = SimRng::seed_from(11);
        for r in 0..REPS as u64 {
            let schedule = scheduler.next_schedule(&all_nodes, NtxAssignment::Uniform(ntx));
            let start = SimTime::ZERO + config.round_period * r;
            let round = tracer.span("lwb.run_round", tag, |_| {
                executor.run_round(&schedule, start, &mut rng)
            });
            floods_per_round.push(1.0 + round.data_slots().len() as f64);
            tracer.span("core.stats_ingest", "", |_| stats.ingest_round(&round));
        }
        out.push((
            format!("lwb.round_us.{tag}"),
            median_us(tracer, "lwb.run_round", tag),
        ));
    }
    out.push((
        "lwb.floods_per_round".into(),
        crate::stats::mean(&floods_per_round),
    ));
    out.push((
        "core.stats_ingest_us".into(),
        median(&tracer.durations_us("core.stats_ingest", None)),
    ));

    // core + neural: state build, decide and raw inference on the states a
    // Dimmer engine sees at Fig. 5 30 %.
    let base = DimmerConfig::default();
    let k = base.k_input_nodes.min(testbed.kiel.num_nodes());
    let cfg = base.with_k_input_nodes(k);
    let controller = AdaptivityController::new(testbed.policy.clone(), cfg.clone());
    let mut engine = SimulationBuilder::new(&testbed.kiel)
        .interference(&jam30)
        .seed(3)
        .build(controller);
    let mut states = Vec::new();
    for _ in 0..REPS {
        engine.run_round();
        states.push(tracer.span("core.state_build", "", |_| engine.current_state()));
    }
    let network = match &testbed.policy {
        AdaptivityPolicy::Quantized(q) => Some(q.clone()),
        _ => None,
    };
    for state in &states {
        std::hint::black_box(tracer.span("core.decide", "", |_| engine.controller().decide(state)));
        if let Some(net) = &network {
            std::hint::black_box(tracer.span("neural.infer", "", |_| net.argmax_f32(state)));
        }
    }
    let state_build = median(&tracer.durations_us("core.state_build", None));
    let decide = median(&tracer.durations_us("core.decide", None));
    out.push(("core.state_build_us".into(), state_build));
    out.push(("core.decide_us".into(), decide));
    out.push((
        "neural.infer_us".into(),
        median(&tracer.durations_us("neural.infer", None)),
    ));

    // Where Dimmer's per-round overhead over static goes.
    let us_of = |p: &str| {
        round_us
            .iter()
            .find(|(q, _)| *q == p)
            .map_or(0.0, |(_, v)| *v)
    };
    let overhead = us_of("dimmer-dqn") - us_of("static");
    let ntx_extra = median_us(tracer, "lwb.run_round", "ntx-dimmer")
        - median_us(tracer, "lwb.run_round", "ntx3");
    let explained = if overhead.abs() > f64::EPSILON {
        (state_build + decide + ntx_extra) / overhead
    } else {
        0.0
    };
    out.push(("core.dimmer_overhead_us".into(), overhead));
    out.push(("core.dimmer_overhead_explained".into(), explained));

    // baselines: registry construction per protocol.
    for protocol in ["static", "pid", "dimmer-dqn", "dimmer-zoo", "crystal"] {
        out.push((
            format!("baselines.build_us.{protocol}"),
            median_us(tracer, "baselines.build_protocol", protocol),
        ));
    }
    out
}
