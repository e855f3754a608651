//! The metric catalogue: every metric the benchmark prints, its unit, its
//! direction and, for per-layer metrics, the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names; a test
//! keeps the two in step.

/// An end-to-end metric, printed by every untraced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics (see `README.md` for what each means on each
/// workload). Host time (on `testbed-rounds` scaled to the nominal host
/// speed of [`crate::calibrate`]) except the simulated `reliability` and
/// `radio_on_ms`, which repeat exactly for a given seed.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "reliability",
        unit: "ratio",
        better: "higher",
        bound: 0.06,
    },
    EndToEnd {
        name: "radio_on_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
];

/// A per-layer metric, printed by every traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    /// Metric name; the prefix before the first dot names the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric (and workload) this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const TESTBED_THROUGHPUT: &str = "throughput_per_s on testbed-rounds";
const TESTBED_SETUP: &str = "setup_s on testbed-rounds";
const CITY_SETUP: &str = "setup_s on city-floods";
const CITY_THROUGHPUT: &str = "throughput_per_s on city-floods";
const CITY_RSS: &str = "peak_rss_mb on city-floods";
const DAEMON_P50: &str = "latency_p50_ms on daemon-mixed";

/// The per-layer metrics, grouped by layer (workspace crate).
pub const PER_LAYER: &[PerLayer] = &[
    // sim: topology compile, interference masks, world dynamics.
    layer("sim.compile_ms.kiel18", "ms", "lower", TESTBED_SETUP),
    layer("sim.compile_ms.dcube48", "ms", "lower", TESTBED_SETUP),
    layer("sim.compile_ms.city_6x6x32", "ms", "lower", CITY_SETUP),
    layer("sim.compile_ms.campus_12x48", "ms", "lower", CITY_SETUP),
    layer("sim.compile_ms.warehouse_8x40", "ms", "lower", CITY_SETUP),
    layer("sim.compile_ms.grid_50x50", "ms", "lower", CITY_SETUP),
    layer("sim.compile_ms.grid_100x100", "ms", "lower", CITY_SETUP),
    layer("sim.mask_compile_us.kiel18", "us", "lower", TESTBED_SETUP),
    layer("sim.mask_compile_us.dcube48", "us", "lower", TESTBED_SETUP),
    layer("sim.mask_compile_us.city_6x6x32", "us", "lower", CITY_SETUP),
    layer(
        "sim.mask_compile_us.campus_12x48",
        "us",
        "lower",
        CITY_SETUP,
    ),
    layer(
        "sim.mask_compile_us.warehouse_8x40",
        "us",
        "lower",
        CITY_SETUP,
    ),
    layer("sim.mask_compile_us.grid_50x50", "us", "lower", CITY_SETUP),
    layer(
        "sim.mask_compile_us.grid_100x100",
        "us",
        "lower",
        CITY_SETUP,
    ),
    layer("sim.world_advance_us", "us", "lower", TESTBED_THROUGHPUT),
    layer("sim.world_events", "count", "lower", TESTBED_THROUGHPUT),
    layer("sim.compiled_mb.city_6x6x32", "MB", "lower", CITY_RSS),
    layer("sim.compiled_mb.campus_12x48", "MB", "lower", CITY_RSS),
    layer("sim.compiled_mb.warehouse_8x40", "MB", "lower", CITY_RSS),
    layer("sim.compiled_mb.grid_50x50", "MB", "lower", CITY_RSS),
    layer("sim.compiled_mb.grid_100x100", "MB", "lower", CITY_RSS),
    // glossy: the flood kernel, dense and CSR.
    layer(
        "glossy.flood_ns.kiel18-jam30",
        "ns",
        "lower",
        TESTBED_THROUGHPUT,
    ),
    layer(
        "glossy.flood_ns.dcube48-wifi2",
        "ns",
        "lower",
        TESTBED_THROUGHPUT,
    ),
    layer(
        "glossy.batch_flood_us.city_6x6x32",
        "us",
        "lower",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.batch_flood_us.campus_12x48",
        "us",
        "lower",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.batch_flood_us.warehouse_8x40",
        "us",
        "lower",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.batch_flood_us.grid_50x50",
        "us",
        "lower",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.batch_flood_us.grid_100x100",
        "us",
        "lower",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.parallel_efficiency",
        "ratio",
        "higher",
        CITY_THROUGHPUT,
    ),
    layer(
        "glossy.tx_per_flood",
        "count",
        "lower",
        "throughput_per_s and radio_on_ms on city-floods",
    ),
    layer(
        "glossy.reach_ratio",
        "ratio",
        "higher",
        "throughput_per_s and reliability on city-floods",
    ),
    // lwb: round execution.
    layer("lwb.round_us.ntx3", "us", "lower", TESTBED_THROUGHPUT),
    layer("lwb.round_us.ntx-dimmer", "us", "lower", TESTBED_THROUGHPUT),
    layer("lwb.floods_per_round", "count", "lower", TESTBED_THROUGHPUT),
    // core: the engine, state builder, controller and stats windows.
    layer("core.round_us.static", "us", "lower", TESTBED_THROUGHPUT),
    layer("core.round_us.pid", "us", "lower", TESTBED_THROUGHPUT),
    layer(
        "core.round_us.dimmer-dqn",
        "us",
        "lower",
        TESTBED_THROUGHPUT,
    ),
    layer(
        "core.round_us.dimmer-zoo",
        "us",
        "lower",
        TESTBED_THROUGHPUT,
    ),
    layer("core.state_build_us", "us", "lower", TESTBED_THROUGHPUT),
    layer("core.decide_us", "us", "lower", TESTBED_THROUGHPUT),
    layer("core.stats_ingest_us", "us", "lower", TESTBED_THROUGHPUT),
    layer(
        "core.mean_ntx.static",
        "count",
        "lower",
        "radio_on_ms on testbed-rounds",
    ),
    layer(
        "core.mean_ntx.pid",
        "count",
        "lower",
        "radio_on_ms on testbed-rounds",
    ),
    layer(
        "core.mean_ntx.dimmer-dqn",
        "count",
        "lower",
        "radio_on_ms on testbed-rounds",
    ),
    layer(
        "core.mean_ntx.dimmer-zoo",
        "count",
        "lower",
        "radio_on_ms on testbed-rounds",
    ),
    layer("core.dimmer_overhead_us", "us", "lower", TESTBED_THROUGHPUT),
    layer(
        "core.dimmer_overhead_explained",
        "ratio",
        "higher",
        TESTBED_THROUGHPUT,
    ),
    // neural: embedded DQN inference.
    layer("neural.infer_us", "us", "lower", TESTBED_THROUGHPUT),
    // baselines: protocol construction through the registry.
    layer("baselines.build_us.static", "us", "lower", TESTBED_SETUP),
    layer("baselines.build_us.pid", "us", "lower", TESTBED_SETUP),
    layer(
        "baselines.build_us.dimmer-dqn",
        "us",
        "lower",
        TESTBED_SETUP,
    ),
    layer(
        "baselines.build_us.dimmer-zoo",
        "us",
        "lower",
        TESTBED_SETUP,
    ),
    layer("baselines.build_us.crystal", "us", "lower", TESTBED_SETUP),
    // bench: the offline grid path every daemon job runs.
    layer("bench.grid_run_ms.dynamics", "ms", "lower", DAEMON_P50),
    layer(
        "bench.grid_run_ms.city",
        "ms",
        "lower",
        "latency_tail_ms on daemon-mixed",
    ),
    layer("bench.to_json_us", "us", "lower", DAEMON_P50),
    layer("bench.report_kb", "KB", "lower", DAEMON_P50),
    // dimmerd: protocol, service, queue and memo cache.
    layer("dimmerd.parse_us", "us", "lower", DAEMON_P50),
    layer("dimmerd.handle_hit_us", "us", "lower", DAEMON_P50),
    layer(
        "dimmerd.queue_wait_ms",
        "ms",
        "lower",
        "latency_tail_ms on daemon-mixed",
    ),
    layer("dimmerd.memo_hit_ratio", "ratio", "higher", DAEMON_P50),
    layer("dimmerd.memo_evictions", "count", "lower", DAEMON_P50),
    layer(
        "dimmerd.busy_rejections",
        "count",
        "lower",
        "failed share on daemon-mixed",
    ),
    // client: validity of the open-loop numbers.
    layer(
        "client.send_lateness_ms",
        "ms",
        "lower",
        "validity of latency_p50_ms/latency_tail_ms on daemon-mixed",
    ),
    // trace: what recording spans costs.
    layer(
        "trace.overhead_ratio",
        "ratio",
        "lower",
        "validity of every per-layer metric",
    ),
];

/// Workspace crates the benchmark does not measure, and why.
pub const UNMEASURED: [(&str, &str); 2] = [
    (
        "rl",
        "offline DQN training and the training farm; not on a paper-figure or serving path",
    ),
    (
        "traces",
        "offline trace collection for training; not on a paper-figure or serving path",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
