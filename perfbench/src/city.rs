//! `city-floods`: closed loop of parallel Glossy flood batches.
//!
//! The worlds are `city_worlds()` plus the 10 000-node sparse grid, each
//! with the centroid-parked 15 % jammer the city grid uses. Every world
//! gets [`SETS_PER_WORLD`] job sets of [`FLOODS_PER_BATCH`] floods whose
//! initiators and flood seeds derive from the workload seed. Each
//! `FloodBatch::run_parallel` call runs one set at `threads = nproc`; a
//! sweep is one call in every world, and the loop sweeps through the sets. Every call must
//! reproduce the first call's digest for its set, and after timing every
//! set is re-run through the serial `FloodBatch::run`, which must give
//! the same outcomes.

use std::time::{Duration, Instant};

use dimmer_bench::experiments::{city_worlds, CityWorld};
use dimmer_glossy::{FloodBatch, FloodJob, FloodOutcome, GlossyConfig};
use dimmer_sim::{
    topogen, CompiledTopology, CompositeInterference, InterferenceModel, NodeId, PeriodicJammer,
    Position, SimDuration, SimRng, SimTime,
};

use crate::fnv::Fnv;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Measured;

/// Floods per `run_parallel` call.
pub const FLOODS_PER_BATCH: usize = 16;

/// Distinct job sets per world.
pub const SETS_PER_WORLD: usize = 6;

/// Set-up repetitions per run (the reported set-up time is their median).
pub const SETUP_REPS: usize = 3;

/// Label of the 10 000-node grid (as the `grid10k` sweep preset names it).
pub const GRID10K: &str = "grid_100x100";

/// A deterministic world builder.
type Builder = fn() -> CompiledTopology;

/// The world builders, by label, in run order; the first four must match
/// `city_worlds()`.
const BUILDERS: [(&str, Builder); 5] = [
    ("city_6x6x32", || topogen::city_blocks(6, 6, 32, 1)),
    ("campus_12x48", || topogen::campus(12, 48, 1)),
    ("warehouse_8x40", || topogen::warehouse_floor(8, 40, 1)),
    ("grid_50x50", || topogen::sparse_grid(50, 50, 8.0, 1)),
    (GRID10K, || topogen::sparse_grid(100, 100, 8.0, 1)),
];

/// The jammer the city grid parks at a world's centroid.
fn centroid_jammer(positions: &[Position]) -> CompositeInterference {
    let n = positions.len() as f64;
    let centroid = positions.iter().fold(Position::new(0.0, 0.0), |acc, p| {
        Position::new(acc.x + p.x / n, acc.y + p.y / n)
    });
    let mut interference = CompositeInterference::new();
    interference.push(Box::new(PeriodicJammer::with_duty_cycle(centroid, 0.15)));
    interference
}

/// The flood configuration of the city grid: N_TX 3 with a 200 ms slot
/// budget for worlds dozens of hops across.
pub fn glossy_config() -> GlossyConfig {
    GlossyConfig {
        max_slot_duration: SimDuration::from_millis(200),
        ..GlossyConfig::with_uniform_ntx(3)
    }
}

/// The job set `set` of world `world` (with `nodes` nodes) for `seed`.
///
/// Initiators are evenly spaced node ids from a seeded offset: the
/// generators number nodes in spatial order, so every set samples the
/// whole world and the work per set varies little between seeds.
pub fn jobs_for(seed: u64, world: usize, set: usize, nodes: usize) -> Vec<FloodJob> {
    let mut rng = SimRng::seed_from(SimRng::derive_seed(seed, &[world as u64, set as u64]));
    let offset = rng.index(nodes);
    (0..FLOODS_PER_BATCH)
        .map(|k| FloodJob {
            initiator: NodeId(((offset + k * nodes / FLOODS_PER_BATCH) % nodes) as u16),
            start: SimTime::from_millis(k as u64 * 250),
            seed: SimRng::derive_seed(seed, &[world as u64, set as u64, k as u64]),
        })
        .collect()
}

/// The compiled worlds, their jammers and the generated job sets.
pub struct City {
    worlds: Vec<CityWorld>,
    grid10k: CompiledTopology,
    grid10k_jammer: CompositeInterference,
    /// `jobs[world][set]`.
    pub jobs: Vec<Vec<Vec<FloodJob>>>,
    threads: usize,
}

impl City {
    /// Compiles every world and generates the job sets for `seed`.
    pub fn setup(seed: u64, threads: usize) -> City {
        let worlds = city_worlds();
        assert!(
            worlds
                .iter()
                .map(|w| w.label)
                .eq(BUILDERS.iter().take(4).map(|b| b.0)),
            "city_worlds() must be the first four builders, in order"
        );
        let grid10k = (BUILDERS[4].1)();
        let grid10k_jammer = centroid_jammer(grid10k.positions());
        let mut city = City {
            worlds,
            grid10k,
            grid10k_jammer,
            jobs: Vec::new(),
            threads,
        };
        city.jobs = (0..BUILDERS.len())
            .map(|w| {
                let n = city.nodes(w);
                (0..SETS_PER_WORLD)
                    .map(|s| jobs_for(seed, w, s, n))
                    .collect()
            })
            .collect();
        city
    }

    fn nodes(&self, world: usize) -> usize {
        match self.worlds.get(world) {
            Some(w) => w.compiled().num_nodes(),
            None => self.grid10k.num_nodes(),
        }
    }

    /// World labels in run order.
    pub fn labels(&self) -> Vec<&'static str> {
        BUILDERS.iter().map(|(label, _)| *label).collect()
    }

    /// One flood batch per world, over clones of the compiled worlds.
    fn batches(&self) -> Vec<FloodBatch<'_>> {
        let mut batches: Vec<FloodBatch<'_>> = self.worlds.iter().map(CityWorld::batch).collect();
        batches.push(FloodBatch::new(self.grid10k.clone(), &self.grid10k_jammer));
        batches
    }
}

fn digest_outcomes(outcomes: &[FloodOutcome]) -> u64 {
    let mut h = Fnv::default();
    for o in outcomes {
        h.u64(u64::from(o.initiator().0))
            .f64(o.duration().as_millis_f64());
        for node in o.per_node() {
            h.u64(u64::from(node.received))
                .u64(node.first_rx_slot.map_or(u64::MAX, u64::from))
                .u64(u64::from(node.relays));
        }
    }
    h.finish()
}

/// Runs sweeps (one batch in every world) until `budget` is spent and
/// every set ran at least once, then checks every set against the serial
/// path. The latency unit is one sweep; throughput is the median flood
/// rate over sweeps.
pub fn run(city: &City, budget: Duration, tracer: &mut Tracer) -> Measured {
    let labels = city.labels();
    let worlds = labels.len();
    let cfg = glossy_config();
    let mut batches = city.batches();
    let sets = worlds * SETS_PER_WORLD;
    let mut first: Vec<Option<u64>> = vec![None; sets];
    let mut parallel_ms: Vec<Vec<f64>> = vec![Vec::new(); sets];
    let mut latencies_ms = Vec::new();
    let mut window_rates = Vec::new();
    let mut sweep_ms = 0.0;
    let mut failed = 0u64;
    let mut calls = 0usize;
    let start = Instant::now();
    loop {
        let w = calls % worlds;
        let s = (calls / worlds) % SETS_PER_WORLD;
        let jobs = &city.jobs[w][s];
        let t0 = Instant::now();
        let outcomes = tracer.span("glossy.run_parallel", labels[w], |_| {
            batches[w].run_parallel(&cfg, jobs, city.threads)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        sweep_ms += ms;
        let slot = w * SETS_PER_WORLD + s;
        parallel_ms[slot].push(ms);
        let digest = digest_outcomes(&outcomes);
        match first[slot] {
            None => first[slot] = Some(digest),
            Some(d) if d != digest => failed += FLOODS_PER_BATCH as u64,
            Some(_) => {}
        }
        calls += 1;
        if calls.is_multiple_of(worlds) {
            latencies_ms.push(sweep_ms);
            window_rates.push((worlds * FLOODS_PER_BATCH) as f64 / (sweep_ms / 1e3));
            sweep_ms = 0.0;
            if calls >= sets && start.elapsed() >= budget {
                break;
            }
        }
    }

    // Serial reference: same outcomes, and the simulated metrics.
    let mut serial_ms = vec![0.0; sets];
    let mut floods = 0usize;
    let (mut reliability, mut radio_on_ms, mut tx, mut reach) = (0.0, 0.0, 0.0, 0.0);
    let mut digest = Fnv::default();
    for (w, label) in labels.iter().enumerate() {
        let nodes = city.nodes(w) as f64;
        for s in 0..SETS_PER_WORLD {
            let t0 = Instant::now();
            let outcomes = tracer.span("glossy.batch_run", label, |_| {
                batches[w].run(&cfg, &city.jobs[w][s])
            });
            serial_ms[w * SETS_PER_WORLD + s] = t0.elapsed().as_secs_f64() * 1e3;
            let d = digest_outcomes(&outcomes);
            digest.u64(d);
            if Some(d) != first[w * SETS_PER_WORLD + s] {
                failed += FLOODS_PER_BATCH as u64;
            }
            for o in &outcomes {
                floods += 1;
                reliability += o.reliability();
                radio_on_ms += o.mean_radio_on().as_millis_f64();
                tx += o
                    .per_node()
                    .iter()
                    .map(|n| f64::from(n.relays))
                    .sum::<f64>();
                reach += o.reach_count() as f64 / nodes;
            }
        }
    }
    let floods_f = floods as f64;
    let parallel_total: f64 = parallel_ms.iter().map(|v| median(v)).sum();
    let efficiency = serial_ms.iter().sum::<f64>() / (parallel_total * city.threads as f64);
    let mut measured = Measured {
        attempted: (calls * FLOODS_PER_BATCH) as u64,
        failed,
        throughput_per_s: median(&window_rates),
        latencies_ms,
        reliability: reliability / floods_f,
        radio_on_ms: radio_on_ms / floods_f,
        digest: digest.finish(),
        ..Measured::default()
    };
    measured.notes.push(("batches".into(), calls.to_string()));
    measured
        .notes
        .push(("parallel_efficiency".into(), efficiency.to_string()));
    if tracer.enabled() {
        let mut layers = probes(city, tracer);
        layers.push(("glossy.parallel_efficiency".into(), efficiency));
        layers.push(("glossy.tx_per_flood".into(), tx / floods_f));
        layers.push(("glossy.reach_ratio".into(), reach / floods_f));
        for label in &labels {
            let per_flood = median(&tracer.durations_us("glossy.batch_run", Some(label)))
                / FLOODS_PER_BATCH as f64;
            layers.push((format!("glossy.batch_flood_us.{label}"), per_flood));
        }
        measured.layers = layers;
    }
    measured
}

/// Compile, mask-compile and memory figures of every world.
fn probes(city: &City, tracer: &mut Tracer) -> Vec<(String, f64)> {
    const COMPILE_REPS: usize = 3;
    const MASK_REPS: usize = 20;
    let mut out = Vec::new();
    for (w, (label, build)) in BUILDERS.iter().enumerate() {
        let mut compiled = None;
        for _ in 0..COMPILE_REPS {
            compiled = Some(tracer.span("sim.compile", label, |_| build()));
        }
        let compiled = compiled.expect("compiled at least once");
        let expected = match city.worlds.get(w) {
            Some(world) => world.compiled().digest(),
            None => city.grid10k.digest(),
        };
        assert_eq!(
            compiled.digest(),
            expected,
            "the {label} builder must reproduce the benchmarked world"
        );
        let jammer = centroid_jammer(compiled.positions());
        for _ in 0..MASK_REPS {
            std::hint::black_box(tracer.span("sim.mask_compile", label, |_| {
                jammer.compile_for(compiled.positions())
            }));
        }
        out.push((
            format!("sim.compile_ms.{label}"),
            median(&tracer.durations_us("sim.compile", Some(label))) / 1e3,
        ));
        out.push((
            format!("sim.mask_compile_us.{label}"),
            median(&tracer.durations_us("sim.mask_compile", Some(label))),
        ));
        let bytes = match city.worlds.get(w) {
            Some(world) => world.memory_bytes(),
            None => city.grid10k.memory_bytes(),
        };
        out.push((
            format!("sim.compiled_mb.{label}"),
            bytes as f64 / (1024.0 * 1024.0),
        ));
    }
    out
}
