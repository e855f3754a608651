//! Equivalence suite for the `RoundEngine`: every protocol built through
//! the registry must reproduce a fixed report stream **byte-for-byte** at
//! fixed seeds.
//!
//! The PID, static and Dimmer goldens below are the report-stream digests
//! of the pre-engine runners, which closed their control loops
//! *externally* (`run_round` → `update`/`force_ntx`). They were captured
//! while those runners still existed and the engine matched them exactly,
//! so they prove the engine's `Controller::observe` hook is a faithful
//! refactor, not a behavioural change. The Crystal comparison pins the
//! engine's epoch adapter (traffic sampling, seed derivation, report
//! synthesis) to the hand-rolled epoch loop the Fig. 7 harness used before
//! the redesign.

use dimmer_baselines::{
    CrystalConfig, CrystalRunner, PidController, ProtocolRegistry, SimulationBuilder,
};
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, DimmerConfig, RoundEngine, Simulation,
    StaticNtxController,
};
use dimmer_integration::equivalence::report_stream_hash;
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_sim::{
    CompositeInterference, NodeId, PeriodicJammer, SimDuration, SimRng, Topology, WifiInterference,
    WifiLevel,
};

// Report-stream digests (`report_stream_hash`) of the pre-engine runners.
const PID_1: u64 = 0xa5bce718a99fc6f9;
const PID_7: u64 = 0xccf14f9d0669f507;
const PID_99: u64 = 0xc89fd07508915530;
const STATIC_1: u64 = 0x4929432abf628d74;
const STATIC_7: u64 = 0x17d618881f515b77;
const STATIC_99: u64 = 0xf05116b6df153ec8;
const RULE_1: u64 = 0x7a6a13e2a52c4171;
const RULE_7: u64 = 0x0c4b93e367b330d9;
const RULE_99: u64 = 0x2fb19d103da678da;
const PRETRAINED_13: u64 = 0x4ed77e7babdff276;
const ACKS_4: u64 = 0x3b82955b251e4297;

fn kiel_jamming(duty: f64) -> CompositeInterference {
    let mut comp = CompositeInterference::new();
    for j in PeriodicJammer::kiel_pair(duty) {
        comp.push(Box::new(j));
    }
    comp
}

const ROUNDS: usize = 40;
const SEEDS: [u64; 3] = [1, 7, 99];

/// Runs `rounds` rounds of `sim` and digests its report stream.
fn stream_hash(mut sim: Box<dyn Simulation + '_>, rounds: usize) -> u64 {
    report_stream_hash(&sim.run_rounds(rounds))
}

#[test]
fn pid_engine_matches_the_legacy_pid_runner() {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.25);
    let golden = [PID_1, PID_7, PID_99];
    for (seed, golden) in SEEDS.into_iter().zip(golden) {
        let engine = SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(seed)
            .build_protocol("pid")
            .unwrap();
        assert_eq!(stream_hash(engine, ROUNDS), golden, "seed {seed}");
    }
}

#[test]
fn static_engine_matches_the_legacy_static_runner() {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.30);
    let golden = [STATIC_1, STATIC_7, STATIC_99];
    for (seed, golden) in SEEDS.into_iter().zip(golden) {
        let engine = SimulationBuilder::new(&topo)
            .interference(&interference)
            .static_ntx(3)
            .seed(seed)
            .build_protocol("static")
            .unwrap();
        assert_eq!(stream_hash(engine, ROUNDS), golden, "seed {seed}");
    }
}

#[test]
fn dimmer_engine_matches_the_legacy_runner_via_the_registry() {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.15);
    let golden = [RULE_1, RULE_7, RULE_99];
    for (seed, golden) in SEEDS.into_iter().zip(golden) {
        let engine = SimulationBuilder::new(&topo)
            .interference(&interference)
            .policy(AdaptivityPolicy::rule_based())
            .seed(seed)
            .build_protocol("dimmer-dqn")
            .unwrap();
        assert_eq!(stream_hash(engine, ROUNDS), golden, "seed {seed}");
    }
}

#[test]
fn dimmer_equivalence_holds_with_the_pretrained_policy() {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.25);
    // No `.policy(...)`: "dimmer-dqn" defaults to the pretrained network.
    let engine = SimulationBuilder::new(&topo)
        .interference(&interference)
        .seed(13)
        .build_protocol("dimmer-dqn")
        .unwrap();
    assert_eq!(stream_hash(engine, ROUNDS), PRETRAINED_13);
}

#[test]
fn collection_traffic_with_acks_is_preserved_by_the_engine() {
    // The D-Cube workload exercises the sink/ACK delivery-tracking path.
    let topo = Topology::dcube_48(1);
    let wifi = WifiInterference::new(WifiLevel::Level1, 5);
    let traffic = TrafficPattern::dcube_collection(48, 5, topo.coordinator());
    let mut engine = SimulationBuilder::new(&topo)
        .interference(&wifi)
        .lwb_config(LwbConfig::dcube_default())
        .dimmer_config(DimmerConfig::dcube())
        .policy(AdaptivityPolicy::rule_based())
        .traffic(traffic)
        .seed(4)
        .build_protocol("dimmer-dqn")
        .unwrap();
    assert_eq!(report_stream_hash(&engine.run_rounds(60)), ACKS_4);
    // ACK retransmissions recover every packet the WiFi bursts cost.
    assert_eq!(engine.app_reliability(), 1.0);
}

#[test]
fn crystal_engine_matches_the_legacy_epoch_loop() {
    let topo = Topology::dcube_48(7);
    let wifi = WifiInterference::new(WifiLevel::Level2, 5);
    let traffic = TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator());
    for seed in SEEDS {
        // The hand-rolled loop the Fig. 7 harness ran before the redesign:
        // a fresh traffic RNG derived as seed ^ 0xC11, one epoch per round.
        let sink = topo.coordinator();
        let all: Vec<NodeId> = topo.node_ids().collect();
        let mut rng = SimRng::seed_from(seed ^ 0xC11);
        let mut legacy = CrystalRunner::new(&topo, &wifi, CrystalConfig::ewsn2019(), sink, seed);
        let mut legacy_epochs = Vec::new();
        for _ in 0..20 {
            let sources = traffic.sources_for_round(&all, &mut rng);
            legacy_epochs.push(legacy.run_epoch(&sources, SimDuration::from_secs(1)));
        }

        let mut engine = SimulationBuilder::new(&topo)
            .interference(&wifi)
            .lwb_config(LwbConfig::dcube_default())
            .traffic(traffic.clone())
            .seed(seed)
            .build_protocol("crystal")
            .unwrap();
        let reports = engine.run_rounds(20);

        for (round, (report, epoch)) in reports.iter().zip(&legacy_epochs).enumerate() {
            assert_eq!(
                report.packets_generated,
                epoch.offered.len(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.packets_delivered,
                epoch.delivered.len(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.reliability,
                epoch.reliability(),
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.energy_joules, epoch.energy_joules,
                "seed {seed} round {round}"
            );
            assert_eq!(
                report.mean_radio_on, epoch.mean_radio_on,
                "seed {seed} round {round}"
            );
        }
        assert_eq!(engine.app_reliability(), legacy.app_reliability());
        assert_eq!(engine.total_energy_joules(), legacy.total_energy_joules());
    }
}

#[test]
fn direct_engine_construction_matches_the_builder() {
    // The builder is sugar, not semantics: building the engine by hand with
    // the same normalized configuration gives the same stream.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.20);
    // The configuration the registry's "pid" and "static" entries run under.
    let mut baseline = DimmerConfig::default().without_adaptivity();
    baseline.forwarder.enabled = false;
    let builder = || {
        SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(11)
    };
    let registry = |name: &str| builder().build_protocol(name).unwrap().run_rounds(ROUNDS);

    let mut static_cfg = baseline.clone();
    static_cfg.initial_ntx = 3;
    let mut direct = RoundEngine::with_controller(
        &topo,
        &interference,
        LwbConfig::testbed_default(),
        static_cfg,
        StaticNtxController::new(3),
        11,
    );
    assert_eq!(direct.run_rounds(ROUNDS), registry("static"));

    let mut pid = builder()
        .dimmer_config(baseline)
        .build(PidController::paper_pi());
    assert_eq!(pid.run_rounds(ROUNDS), registry("pid"));

    let controller =
        AdaptivityController::new(AdaptivityPolicy::rule_based(), DimmerConfig::default());
    let mut rule = builder().build(controller);
    assert_eq!(rule.run_rounds(ROUNDS), registry("dimmer-rule"));
}

#[test]
fn registry_round_trip_constructs_and_runs_every_protocol() {
    let topo = Topology::kiel_testbed_18(2);
    let registry = ProtocolRegistry::standard();
    let names = registry.names();
    assert_eq!(
        names,
        vec![
            "dimmer-dqn",
            "dimmer-rule",
            "pid",
            "static",
            "crystal",
            "dimmer-zoo"
        ]
    );
    for name in names {
        let builder = SimulationBuilder::new(&topo)
            .policy(AdaptivityPolicy::rule_based())
            .seed(17);
        let mut sim = registry
            .build(name, builder)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sim.protocol(), name.replace("dimmer-dqn", "dimmer-rule"));
        let reports = sim.run_rounds(4);
        assert_eq!(reports.len(), 4, "{name}");
        assert_eq!(sim.rounds_run(), 4, "{name}");
        for r in &reports {
            assert!(
                (0.0..=1.0).contains(&r.reliability),
                "{name}: reliability {:?}",
                r.reliability
            );
            assert!(r.energy_joules >= 0.0, "{name}");
            assert!((1..=8).contains(&r.ntx), "{name}: ntx {}", r.ntx);
        }
    }
}

#[test]
fn single_arm_zoo_is_byte_identical_to_plain_dimmer_dqn() {
    // The zoo's meta-machinery (EXP3 window accounting, lose-shift redraw,
    // recovery shield) must only engage with two or more arms: a one-arm
    // zoo is a transparent wrapper, so its report stream equals running the
    // same policy through the plain `dimmer-dqn` protocol byte-for-byte.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.30);
    let cfg = DimmerConfig::default();
    let policy = dimmer_core::zoo::zoo_policy("jammed", &cfg);
    for seed in SEEDS {
        let mut dqn = SimulationBuilder::new(&topo)
            .interference(&interference)
            .policy(policy.clone())
            .seed(seed)
            .build_protocol("dimmer-dqn")
            .unwrap();
        let zoo = dimmer_core::ZooController::new(
            vec![policy.clone()],
            cfg.clone(),
            8,
            dimmer_core::zoo::ZOO_GAMMA,
        );
        let mut single = SimulationBuilder::new(&topo)
            .interference(&interference)
            .seed(seed)
            .build(zoo);
        // The 0.30-duty jammer guarantees lossy rounds, so a shield that
        // wrongly engaged for one arm would diverge here.
        assert_eq!(
            dqn.run_rounds(ROUNDS),
            single.run_rounds(ROUNDS),
            "seed {seed}: single-arm zoo must shadow dimmer-dqn exactly"
        );
    }
}

#[test]
fn zoo_runs_are_deterministic_under_stress() {
    // Fixed-seed determinism for the full four-arm zoo in a regime where
    // every meta-mechanism fires: losses arm the recovery shield, lossy
    // windows trigger lose-shift redraws and EXP3 updates.
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(0.35);
    for seed in SEEDS {
        let build = || {
            SimulationBuilder::new(&topo)
                .interference(&interference)
                .seed(seed)
                .build_protocol("dimmer-zoo")
                .unwrap()
        };
        assert_eq!(
            build().run_rounds(ROUNDS),
            build().run_rounds(ROUNDS),
            "seed {seed}: dimmer-zoo must be deterministic per seed"
        );
    }
}

#[test]
fn engine_runs_are_deterministic_per_seed_for_every_protocol() {
    let topo = Topology::kiel_testbed_18(3);
    let interference = kiel_jamming(0.10);
    for name in ProtocolRegistry::standard().names() {
        let build = || {
            SimulationBuilder::new(&topo)
                .interference(&interference)
                .policy(AdaptivityPolicy::rule_based())
                .seed(23)
                .build_protocol(name)
                .unwrap()
        };
        let a = build().run_rounds(10);
        let b = build().run_rounds(10);
        assert_eq!(a, b, "{name}: same seed must give the same stream");
    }
}
