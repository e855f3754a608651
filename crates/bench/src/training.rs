//! In-sim policy training for the zoo families (the `train:<family>` grids).
//!
//! This module is the bench-side face of the training farm
//! (`dimmer_rl::farm`): it maps each zoo *family* name
//! ([`dimmer_core::zoo::ZOO_FAMILIES`]) to its training world — topology,
//! interference and dynamic-world script — trains a DQN against the real
//! simulator through [`SimEnvironment`], and wraps the run as a
//! [`ScenarioGrid`] so `exp --grid train:<family>` reports training curves through the same
//! deterministic scheduler as every other experiment.
//!
//! The environment-count knob (`--envs`) is deliberately **absent** from
//! the grid's cell parameters and metrics: the farm's output is
//! byte-identical for any value, and the emitted JSON must be too (pinned
//! by `tests/tests/training_farm.rs` and the CI `train-smoke` job).
//!
//! [`SimEnvironment`]: dimmer_core::SimEnvironment

use crate::harness::{ScenarioGrid, TrialMetrics};
use crate::scenarios::{dynamic_scenario, kiel_jamming};
use dimmer_core::sim_env::DEFAULT_EPISODE_ROUNDS;
use dimmer_core::SimEnvironment;
use dimmer_lwb::LwbConfig;
use dimmer_rl::farm::{train_farm, FarmConfig, FarmRun};
use dimmer_rl::DqnConfig;
use dimmer_sim::{InterferenceModel, NoInterference, ScenarioScript, Topology};

/// The zoo family names, re-exported so the scenario catalogue validates
/// against the same catalogue as the runtime zoo.
pub use dimmer_core::zoo::ZOO_FAMILIES as TRAIN_FAMILIES;

/// The DQN hyper-parameters used by in-sim training: the quick profile is
/// sized for smoke tests and CI (a few seconds), the full profile for the
/// committed zoo weights.
pub fn train_dqn_config(quick: bool) -> DqnConfig {
    if quick {
        DqnConfig::quick().with_iterations(3_000)
    } else {
        DqnConfig::quick().with_iterations(40_000)
    }
}

/// The training world of one zoo family: the interference model plus the
/// dynamic-world script every episode replays.
pub struct FamilySetup {
    /// Interference the family trains under.
    pub interference: Box<dyn InterferenceModel>,
    /// Per-episode world script (empty for static families).
    pub script: ScenarioScript,
}

/// Builds the training world of `family` for `episode_rounds`-round
/// episodes on `topo`, or `None` for unknown family names.
///
/// * `calm` — no interference, static world;
/// * `jammed` — the testbed's two-jammer pair at 30 % duty;
/// * `churn-storm` / `roaming-jammer` — the matching `dynamics:*`
///   presets, scaled to one episode.
pub fn family_setup(family: &str, episode_rounds: usize, topo: &Topology) -> Option<FamilySetup> {
    match family {
        "calm" => Some(FamilySetup {
            interference: Box::new(NoInterference),
            script: ScenarioScript::new(),
        }),
        "jammed" => Some(FamilySetup {
            interference: Box::new(kiel_jamming(0.30)),
            script: ScenarioScript::new(),
        }),
        "churn-storm" | "roaming-jammer" => {
            let sc = dynamic_scenario(family, episode_rounds, topo)?;
            Some(FamilySetup {
                interference: sc.interference,
                script: sc.script,
            })
        }
        _ => None,
    }
}

/// Trains the `family` policy fully in-sim and returns the farm run (the
/// trained agent plus its curve), or `None` for unknown families.
///
/// The result is a pure function of `(family, quick, seed)` — `envs` only
/// sets the rollout prefetch width (see `dimmer_rl::farm`).
pub fn train_family(family: &str, quick: bool, envs: usize, seed: u64) -> Option<FarmRun> {
    let topo = Topology::kiel_testbed_18(1);
    let setup = family_setup(family, DEFAULT_EPISODE_ROUNDS, &topo)?;
    let interference = setup.interference;
    let script = setup.script;
    let factory = || {
        SimEnvironment::with_configs(
            &topo,
            interference.as_ref(),
            LwbConfig::testbed_default(),
            SimEnvironment::training_config(&topo),
        )
        .with_script(script.clone())
        .with_episode_rounds(DEFAULT_EPISODE_ROUNDS)
    };
    let farm = FarmConfig {
        envs: envs.max(1),
        curve_points: 8,
        eval_episodes: 2,
        max_episode_steps: DEFAULT_EPISODE_ROUNDS,
    };
    Some(train_farm(&factory, train_dqn_config(quick), &farm, seed))
}

/// The `train:<family>` grid: one cell training the `family` policy, reporting
/// the training curve (`eval@<transitions>` / `loss@<transitions>`) plus
/// `final_eval`, `episodes` and `transitions` as metrics.
///
/// # Panics
///
/// Panics on unknown family names (the catalogue validates them
/// first) — inside the cell closure, i.e. when the grid runs.
pub fn train_grid(family: &str, quick: bool, envs: usize) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("train");
    let family = family.to_string();
    let mode = if quick { "quick" } else { "full" };
    grid.push_cell(
        format!("train @ {family}"),
        vec![
            ("family".into(), family.clone()),
            ("mode".into(), mode.into()),
        ],
        move |seed| {
            let run = train_family(&family, quick, envs, seed)
                // lint: allow(P002) -- documented # Panics contract; the catalogue validates the family first
                .unwrap_or_else(|| panic!("unknown training family '{family}'"));
            let mut metrics = TrialMetrics::new()
                .with("final_eval", run.final_eval())
                .with("episodes", run.episodes as f64)
                .with("transitions", run.transitions as f64);
            for point in &run.curve {
                metrics.push(&format!("eval@{}", point.transitions), point.eval_reward);
                metrics.push(&format!("loss@{}", point.transitions), point.mean_loss);
            }
            metrics
        },
    );
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::RunOptions;

    #[test]
    fn every_family_has_a_setup_and_unknowns_do_not() {
        let topo = Topology::kiel_testbed_18(1);
        for family in TRAIN_FAMILIES {
            let setup = family_setup(family, 60, &topo)
                .unwrap_or_else(|| panic!("{family} must have a training world"));
            // Static families have empty scripts, dynamic ones do not.
            match family {
                "calm" | "jammed" => assert!(setup.script.is_empty(), "{family}"),
                _ => assert!(!setup.script.is_empty(), "{family}"),
            }
        }
        assert!(family_setup("volcanic", 60, &topo).is_none());
        assert!(train_family("volcanic", true, 1, 1).is_none());
    }

    #[test]
    fn quick_profile_is_a_short_run_of_the_same_shape() {
        let quick = train_dqn_config(true);
        let full = train_dqn_config(false);
        assert!(quick.training_iterations < full.training_iterations);
        assert_eq!(quick.replay_capacity, full.replay_capacity);
    }

    #[test]
    fn train_grid_reports_are_invariant_in_the_env_count() {
        let opts = RunOptions {
            trials: 1,
            threads: 2,
            seed: 42,
        };
        // A tiny in-test run: the real --quick profile is exercised by
        // tests/tests/training_farm.rs and the CI train-smoke job.
        let report_with = |envs: usize| {
            let mut grid = ScenarioGrid::new("train");
            grid.push_cell(
                "train @ calm".to_string(),
                vec![("family".into(), "calm".into())],
                move |seed| {
                    let topo = Topology::kiel_testbed_18(1);
                    let factory =
                        || SimEnvironment::new(&topo, &NoInterference).with_episode_rounds(8);
                    let farm = FarmConfig {
                        envs,
                        curve_points: 2,
                        eval_episodes: 1,
                        max_episode_steps: 8,
                    };
                    let run = train_farm(
                        &factory,
                        DqnConfig::quick().with_iterations(300),
                        &farm,
                        seed,
                    );
                    TrialMetrics::new()
                        .with("final_eval", run.final_eval())
                        .with("transitions", run.transitions as f64)
                },
            );
            grid.run(&opts)
        };
        let one = report_with(1);
        let eight = report_with(8);
        assert_eq!(one.to_json(), eight.to_json());
    }

    #[test]
    fn grid_cell_parameters_never_mention_the_env_count() {
        let grid = train_grid("calm", true, 8);
        assert_eq!(grid.len(), 1);
        assert_eq!(grid.name(), "train");
    }
}
