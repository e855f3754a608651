//! Scheduler-extraction pinning: byte-identical harness reports for every
//! catalogue grid builder at fixed seeds.
//!
//! The worker pool, per-trial seeding and report assembly of
//! `dimmer-bench::harness` were extracted into the reusable
//! `dimmer-bench::scheduler` library (shared by the `exp` binary and
//! the `dimmerd` daemon). These goldens were captured from the
//! pre-extraction harness: every grid builder is run at a small fixed
//! configuration and the FNV-1a digest of its serialized JSON report must
//! never change. Any drift in seed derivation, job ordering, aggregation
//! arithmetic or JSON formatting shows up as a digest mismatch.

use std::sync::Arc;

use dimmer_bench::experiments::{
    city_scale_grid, city_worlds, dynamics_grid, fig4b_grid, fig4c_grid, fig5_grid,
    fig5_seed_sweep_grid, fig6_grid, fig7_grid, protocol_list, table1_grid, topology_size_grid,
    DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS, TESTBED_PROTOCOLS,
};
use dimmer_bench::harness::{RunOptions, ScenarioGrid};
use dimmer_core::{AdaptivityPolicy, DimmerConfig};
use dimmer_integration::equivalence::json_digest;
use dimmer_sim::Topology;
use dimmer_traces::TraceCollector;

fn opts(trials: usize) -> RunOptions {
    RunOptions {
        trials,
        threads: 2,
        seed: 42,
    }
}

/// Runs `grid` and checks its JSON report digest against the golden value,
/// also re-running single-threaded to confirm thread-invariance.
fn pin(grid: ScenarioGrid, trials: usize, golden: u64) {
    let json = grid.run(&opts(trials)).to_json();
    let serial = grid
        .run(&RunOptions {
            threads: 1,
            ..opts(trials)
        })
        .to_json();
    assert_eq!(
        json,
        serial,
        "{}: report depends on thread count",
        grid.name()
    );
    assert_eq!(
        json_digest(&json),
        golden,
        "{}: report drifted from the pre-extraction harness (digest {:#018x})",
        grid.name(),
        json_digest(&json)
    );
}

#[test]
fn table1_grid_is_pinned() {
    pin(table1_grid(&DimmerConfig::default()), 2, GOLDEN_TABLE1);
}

#[test]
fn fig4b_grid_is_pinned() {
    let topo = Topology::kiel_testbed_18(1);
    let traces = Arc::new(TraceCollector::new(&topo, 21).collect(12));
    pin(fig4b_grid(traces, 40, 4, "nodes"), 1, GOLDEN_FIG4B);
}

#[test]
fn fig4c_grid_is_pinned() {
    let grid = fig4c_grid(
        AdaptivityPolicy::rule_based(),
        6,
        &protocol_list(&["dimmer-dqn", "pid"]),
        None,
        None,
    );
    pin(grid, 2, GOLDEN_FIG4C);
}

#[test]
fn fig5_grid_is_pinned() {
    let grid = fig5_grid(
        AdaptivityPolicy::rule_based(),
        6,
        &[0.0, 0.25],
        &protocol_list(&TESTBED_PROTOCOLS),
    );
    pin(grid, 2, GOLDEN_FIG5);
}

#[test]
fn fig5_seed_sweep_grid_is_pinned() {
    let grid = fig5_seed_sweep_grid(
        AdaptivityPolicy::rule_based(),
        6,
        &protocol_list(&TESTBED_PROTOCOLS),
    );
    pin(grid, 1, GOLDEN_FIG5_SEEDS);
}

#[test]
fn fig6_grid_is_pinned() {
    pin(fig6_grid(6, None), 2, GOLDEN_FIG6);
}

#[test]
fn fig7_grid_is_pinned() {
    let grid = fig7_grid(
        AdaptivityPolicy::rule_based(),
        3,
        &protocol_list(&DCUBE_PROTOCOLS),
    );
    pin(grid, 1, GOLDEN_FIG7);
}

#[test]
fn topology_size_grid_is_pinned() {
    let grid = topology_size_grid(4, &[3, 4], &protocol_list(&["static", "dimmer-rule"]));
    pin(grid, 1, GOLDEN_TOPOLOGY_SIZE);
}

#[test]
fn dynamics_grid_is_pinned() {
    let grid = dynamics_grid(
        AdaptivityPolicy::rule_based(),
        8,
        "churn-storm",
        &protocol_list(&DYNAMICS_PROTOCOLS),
        None,
    );
    pin(grid, 1, GOLDEN_DYNAMICS);
}

#[test]
fn city_grid_is_pinned() {
    let worlds = city_worlds().into_iter().map(Arc::new).collect();
    pin(city_scale_grid(2, worlds, 1), 1, GOLDEN_CITY);
}

// Golden digests captured from the pre-extraction harness (PR 7 state) at
// the exact grid configurations above. Do not regenerate casually: a new
// value here means the scheduler no longer reproduces historical reports.
const GOLDEN_TABLE1: u64 = 0x932e3945bb35dedc;
const GOLDEN_FIG4B: u64 = 0xfcda20b31ed86b2e;
const GOLDEN_FIG4C: u64 = 0x2dedcba9774d956b;
const GOLDEN_FIG5: u64 = 0x790bbde95b5c0fb0;
const GOLDEN_FIG5_SEEDS: u64 = 0xebbd7233feb5a77c;
const GOLDEN_FIG6: u64 = 0x15b103acf3def9c8;
const GOLDEN_FIG7: u64 = 0xcc64ed8bb5815025;
const GOLDEN_TOPOLOGY_SIZE: u64 = 0xa021c2d5cb1bcea7;
const GOLDEN_DYNAMICS: u64 = 0x60e3b414dd2b98e2;
const GOLDEN_CITY: u64 = 0x04b516781a5be214;
