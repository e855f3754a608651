//! The training farm's determinism/equivalence layer — the farm analogue
//! of `harness_determinism.rs`.
//!
//! Pins the three guarantees the RL training subsystem makes:
//!
//! 1. **Environment-count invariance** — training curves and final weights
//!    are byte-identical for any `envs` at a fixed seed (the farm's rollout
//!    width is pure prefetch, like the scheduler's `--threads`).
//! 2. **Golden report bytes** — the `exp --grid train:calm --quick`
//!    JSON digest is pinned, so any drift in the farm, the environment
//!    adapter, the engine or the report assembly shows up here.
//! 3. **Zoo round-trip** — weights survive serialize → parse → decide, and
//!    the committed zoo beats every one of its own arms run as a fixed
//!    policy on mean reliability across the dynamic-world presets.

use dimmer_baselines::SimulationBuilder;
use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::dynamic_scenario;
use dimmer_bench::training::{train_family, train_grid, TRAIN_FAMILIES};
use dimmer_core::zoo::{has_full_zoo, zoo_policy};
use dimmer_core::{DimmerConfig, SimEnvironment};
use dimmer_integration::equivalence::json_digest;
use dimmer_neural::serialize::{from_text, to_text};
use dimmer_rl::Environment;
use dimmer_sim::{NoInterference, SimRng, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `exp --grid train:calm --quick --seed 42 --trials 1` report digest.
/// Re-derive with:
/// `cargo run --release -p dimmer-bench --bin exp -- --grid train:calm --quick --seed 42 --trials 1 --json /tmp/t.json`
const GOLDEN_TRAIN_CALM_QUICK: u64 = 0x9e59c0825588089e;

fn quick_calm_json() -> String {
    let opts = RunOptions {
        trials: 1,
        threads: 2,
        seed: 42,
    };
    train_grid("calm", true, 4).run(&opts).to_json()
}

#[test]
fn quick_calm_training_report_matches_the_golden_digest() {
    let json = quick_calm_json();
    assert_eq!(
        json_digest(&json),
        GOLDEN_TRAIN_CALM_QUICK,
        "exp --grid train:calm --quick --seed 42 drifted; if intentional, update the golden:\n{json}"
    );
}

#[test]
fn training_is_byte_identical_for_any_environment_count() {
    let runs: Vec<_> = [1usize, 3, 8]
        .iter()
        .map(|&envs| train_family("calm", true, envs, 42).expect("calm is a known family"))
        .collect();
    let (one, rest) = runs.split_first().expect("three runs");
    for (i, run) in rest.iter().enumerate() {
        assert_eq!(one.curve, run.curve, "curve diverged for envs run #{i}");
        assert_eq!(one.episodes, run.episodes);
        assert_eq!(one.transitions, run.transitions);
        assert_eq!(
            to_text(one.trainer.policy()),
            to_text(run.trainer.policy()),
            "final weights diverged for envs run #{i}"
        );
    }
}

#[test]
fn zoo_weights_round_trip_through_the_text_format() {
    // A fresh quick training run stands in for any zoo member: its weights
    // must decide identically after serialize → parse.
    let run = train_family("calm", true, 4, 7).expect("calm is a known family");
    let text = to_text(run.trainer.policy());
    let parsed = from_text(&text).expect("serialized weights must parse");

    // Probe on states drawn from the real simulator.
    let topo = Topology::kiel_testbed_18(1);
    let mut env = SimEnvironment::new(&topo, &NoInterference).with_episode_rounds(16);
    let mut rng = StdRng::seed_from_u64(SimRng::derive_seed(7, &[99]));
    let mut state = env.reset(&mut rng);
    for _ in 0..16 {
        assert_eq!(
            run.trainer.policy().argmax(&state),
            parsed.argmax(&state),
            "round-tripped weights disagree"
        );
        state = env
            .step(run.trainer.greedy_action(&state), &mut rng)
            .next_state;
    }
}

#[test]
fn committed_zoo_weights_match_the_embedded_state_layout() {
    assert!(
        has_full_zoo(),
        "every family in {TRAIN_FAMILIES:?} must ship trained weights"
    );
    let cfg = DimmerConfig::default();
    for family in TRAIN_FAMILIES {
        assert!(
            zoo_policy(family, &cfg).is_learned(),
            "{family}: committed weights must load as a learned policy"
        );
    }
}

/// Mean per-round reliability of `protocol` across every dynamic-world
/// preset, averaged over a few seeds. `policy` overrides the adaptivity
/// policy (used to run each zoo arm as a fixed `dimmer-dqn` policy).
fn mean_reliability(protocol: &str, policy: Option<&str>) -> f64 {
    const PRESETS: [&str; 4] = ["churn-storm", "link-fade", "roaming-jammer", "flash-crowd"];
    const ROUNDS: usize = 60;
    let topo = Topology::kiel_testbed_18(1);
    let cfg = DimmerConfig::default();
    let mut total = 0.0;
    let mut samples = 0usize;
    for preset in PRESETS {
        let sc = dynamic_scenario(preset, ROUNDS, &topo).expect("known preset");
        for trial in 0..3u64 {
            let seed = SimRng::derive_seed(42, &[trial]);
            let mut builder = SimulationBuilder::new(&topo)
                .interference(sc.interference.as_ref())
                .script(sc.script.clone())
                .seed(seed);
            if let Some(family) = policy {
                builder = builder.policy(zoo_policy(family, &cfg));
            }
            let mut sim = builder.build_protocol(protocol).expect("known protocol");
            for r in sim.run_rounds(ROUNDS) {
                total += r.reliability;
                samples += 1;
            }
        }
    }
    total / samples as f64
}

#[test]
fn zoo_beats_every_fixed_arm_across_the_dynamic_presets() {
    let zoo = mean_reliability("dimmer-zoo", None);
    for family in TRAIN_FAMILIES {
        let fixed = mean_reliability("dimmer-dqn", Some(family));
        assert!(
            zoo > fixed,
            "dimmer-zoo ({zoo:.4}) must beat the fixed '{family}' policy ({fixed:.4}) \
             on mean reliability across the dynamic presets"
        );
    }
}
