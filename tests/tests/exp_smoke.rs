//! Smoke tests for the experiment harness: every catalogue grid's
//! single-trial builder is exercised for a handful of rounds with a
//! rule-based policy (no DQN training), guarding rarely-run experiments
//! against build and behavior rot. Protocols are addressed by their
//! registry names, exactly as `exp --protocols` does.

use dimmer_bench::experiments::{
    dynamics_run, fig4b_row, fig4c_dimmer, fig4c_pid, fig5_run, fig6_run, fig6_single, fig7_run,
    table1_summary, Fig7Scenario, DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS, TESTBED_PROTOCOLS,
};
use dimmer_bench::scenarios::DYNAMIC_SCENARIOS;
use dimmer_core::{AdaptivityPolicy, DimmerConfig};
use dimmer_sim::Topology;
use dimmer_traces::TraceCollector;

fn assert_summary_sane(reliability: f64, label: &str) {
    assert!(
        reliability.is_finite(),
        "{label}: reliability must be finite"
    );
    assert!(
        (0.0..=1.0).contains(&reliability),
        "{label}: reliability in [0,1], got {reliability}"
    );
}

#[test]
fn exp_table1_summary_is_complete() {
    let s = table1_summary(&DimmerConfig::default());
    assert_eq!(s.state_dim, 31);
    assert_eq!(s.example_state.len(), s.state_dim);
    assert!(s.example_state.iter().all(|v| v.is_finite()));
    assert!(s.parameters > 0 && s.flash_bytes > 0 && s.ram_bytes > 0);
}

#[test]
fn exp_fig4b_row_trains_and_evaluates() {
    let topo = Topology::kiel_testbed_18(1);
    let traces = TraceCollector::new(&topo, 21)
        .with_sweep(vec![0.0, 0.25], 3)
        .collect(12);
    let cfg = DimmerConfig::default();
    let row = fig4b_row(&cfg, &traces, 1, 300, 5);
    assert_summary_sane(row.reliability, "fig4b");
    assert!(row.radio_on_ms.is_finite() && row.radio_on_ms > 0.0);
    assert!(row.dqn_size_kb > 0.0);
}

#[test]
fn exp_fig4c_both_protocols_produce_reports() {
    let dimmer = fig4c_dimmer(AdaptivityPolicy::rule_based(), 10, 7);
    let pid = fig4c_pid(10, 7);
    assert_eq!(dimmer.len(), 10);
    assert_eq!(pid.len(), 10);
    for r in dimmer.iter().chain(pid.iter()) {
        assert_summary_sane(r.reliability, "fig4c");
        assert!(r.mean_radio_on.as_millis_f64().is_finite());
    }
}

#[test]
fn exp_fig5_covers_every_testbed_protocol() {
    let policy = AdaptivityPolicy::rule_based();
    assert_eq!(TESTBED_PROTOCOLS, ["static", "dimmer-dqn", "pid"]);
    for protocol in TESTBED_PROTOCOLS {
        let summary = fig5_run(protocol, 0.25, &policy, 8, 100);
        assert_eq!(summary.rounds, 8, "{protocol}: all rounds aggregated");
        assert_summary_sane(summary.reliability, protocol);
        assert!(
            summary.radio_on_ms.is_finite() && summary.radio_on_ms > 0.0,
            "{protocol}"
        );
        assert!(summary.mean_ntx >= 1.0, "{protocol}: N_TX stays in range");
    }
}

#[test]
fn exp_fig5_static_protocol_never_adapts() {
    let policy = AdaptivityPolicy::rule_based();
    let summary = fig5_run("static", 0.25, &policy, 6, 11);
    assert!(
        (summary.mean_ntx - 3.0).abs() < 1e-9,
        "static pins N_TX = 3"
    );
}

#[test]
fn exp_fig6_run_tracks_forwarders() {
    let summary = fig6_run(30, 3);
    assert_eq!(summary.with_fs.len(), 30);
    assert_eq!(summary.without_fs.len(), 30);
    let fwd = summary.mean_forwarders();
    assert!(fwd.is_finite() && fwd > 0.0 && fwd <= 18.0);
    for r in &summary.without_fs {
        assert_eq!(
            r.active_forwarders, 18,
            "reference run keeps everyone forwarding"
        );
    }
}

#[test]
fn fig6_single_variants_match_the_combined_run() {
    let combined = fig6_run(12, 3);
    assert_eq!(fig6_single(12, 3, true), combined.with_fs);
    assert_eq!(fig6_single(12, 3, false), combined.without_fs);
}

#[test]
fn fig5_runs_are_deterministic_per_seed() {
    let policy = AdaptivityPolicy::rule_based();
    for protocol in TESTBED_PROTOCOLS {
        assert_eq!(
            fig5_run(protocol, 0.25, &policy, 6, 11),
            fig5_run(protocol, 0.25, &policy, 6, 11),
            "{protocol}"
        );
    }
}

#[test]
fn exp_fig7_cells_cover_every_scenario_and_protocol() {
    assert_eq!(DCUBE_PROTOCOLS, ["static", "dimmer-dqn", "crystal"]);
    for scenario in Fig7Scenario::ALL {
        for protocol in DCUBE_PROTOCOLS {
            let outcome = fig7_run(protocol, scenario, &AdaptivityPolicy::rule_based(), 6, 300);
            assert_summary_sane(outcome.reliability, protocol);
            assert!(
                outcome.energy_joules.is_finite() && outcome.energy_joules > 0.0,
                "{protocol}: energy must be positive, got {}",
                outcome.energy_joules
            );
        }
    }
}

#[test]
fn exp_dynamics_covers_every_preset_and_protocol() {
    assert_eq!(
        DYNAMICS_PROTOCOLS,
        ["static", "dimmer-dqn", "dimmer-rule", "pid"]
    );
    let policy = AdaptivityPolicy::rule_based();
    for scenario in DYNAMIC_SCENARIOS {
        for protocol in ["static", "dimmer-rule"] {
            let reports = dynamics_run(protocol, scenario, &policy, 12, 5);
            assert_eq!(reports.len(), 12, "{scenario}/{protocol}");
            for r in &reports {
                assert_summary_sane(r.reliability, scenario);
                assert!(
                    r.alive_nodes >= 1 && r.alive_nodes <= 18,
                    "{scenario}/{protocol}: alive {}",
                    r.alive_nodes
                );
            }
        }
    }
}

#[test]
fn dynamics_runs_are_deterministic_per_seed() {
    let policy = AdaptivityPolicy::rule_based();
    assert_eq!(
        dynamics_run("pid", "churn-storm", &policy, 10, 4),
        dynamics_run("pid", "churn-storm", &policy, 10, 4)
    );
}

#[test]
#[should_panic(expected = "unknown dynamic scenario")]
fn dynamics_run_rejects_unknown_scenarios() {
    dynamics_run(
        "static",
        "earthquake",
        &AdaptivityPolicy::rule_based(),
        2,
        1,
    );
}

#[test]
#[should_panic(expected = "unknown protocol")]
fn fig5_run_rejects_unknown_protocols() {
    fig5_run(
        "carrier-pigeon",
        0.25,
        &AdaptivityPolicy::rule_based(),
        2,
        1,
    );
}
