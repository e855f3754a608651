//! Shared interference / topology / dynamic-world scenario builders for the
//! experiments (report aggregation lives in [`crate::summary`];
//! CLI parsing lives in [`crate::harness::HarnessCli`]).
//!
//! Besides the paper's static-interference builders, this module holds the
//! **dynamic-world scenario catalogue** of the `dynamics:<preset>` grids: named presets
//! ([`DYNAMIC_SCENARIOS`]) that stress an adaptive controller with the
//! changes the paper's figures never exercise — node churn, network-wide
//! link fades, a roaming jammer and a flash-crowd join wave. Each preset is
//! a [`DynamicScenario`]: a [`ScenarioScript`] of world events, the
//! matching interference model, and labelled phase boundaries for the
//! per-phase summary buckets.

use dimmer_core::{AdaptivityPolicy, DimmerConfig};
use dimmer_lwb::LwbConfig;
use dimmer_rl::DqnConfig;
use dimmer_sim::{
    Channel, CompositeInterference, InterferenceModel, MobileJammer, NoInterference, NodeId,
    PeriodicJammer, Position, ScenarioScript, SimTime, Topology,
};
use dimmer_traces::{train_policy, TraceCollector};

/// The two-jammer 802.15.4 interference used on the 18-node testbed, at the
/// given duty cycle (0 disables jamming and returns an empty composite).
pub fn kiel_jamming(duty_cycle: f64) -> CompositeInterference {
    let mut comp = CompositeInterference::new();
    if duty_cycle > 0.0 {
        for j in PeriodicJammer::kiel_pair(duty_cycle) {
            comp.push(Box::new(j));
        }
    }
    comp
}

/// The Fig. 4c dynamic-interference scenario: 7 min calm, 5 min of 30 %
/// jamming, 5 min calm, 5 min of 5 % jamming, then calm until `total_secs`.
pub fn dynamic_interference_scenario(total_secs: u64) -> dimmer_sim::ScheduledInterference {
    let mut schedule = dimmer_sim::ScheduledInterference::new();
    let m = |min: u64| SimTime::from_secs(min * 60);
    for j in PeriodicJammer::kiel_pair(0.30) {
        schedule.add_window(m(7), m(12), Box::new(j));
    }
    for j in PeriodicJammer::kiel_pair(0.05) {
        schedule.add_window(m(17), m(22), Box::new(j));
    }
    // Keep the schedule covering the whole experiment even if total_secs is
    // longer than the scripted 27 minutes (remaining time is calm).
    let _ = total_secs;
    schedule
}

/// Obtains the Dimmer adaptivity policy used by the experiments: the
/// pre-trained network shipped with `dimmer-core` when available, otherwise a
/// freshly trained one (reduced iteration count so the harness stays fast).
pub fn dimmer_policy(quick: bool) -> AdaptivityPolicy {
    if dimmer_core::pretrained::has_pretrained_weights() {
        return dimmer_core::pretrained::pretrained_policy();
    }
    let topo = Topology::kiel_testbed_18(42);
    let traces = TraceCollector::new(&topo, 42).collect(if quick { 60 } else { 220 });
    let dqn = if quick {
        DqnConfig::quick().with_iterations(8_000)
    } else {
        DqnConfig::paper_default().with_iterations(60_000)
    };
    let report = train_policy(&traces, &DimmerConfig::default(), &dqn, 42);
    report.quantized_policy()
}

// ---------------------------------------------------------------------------
// Dynamic-world scenario catalogue (`exp --grid dynamics:<name>`).
// ---------------------------------------------------------------------------

/// One labelled phase of a dynamic scenario: rounds `start_round..` up to
/// the next phase belong to it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPhase {
    /// Human-readable phase label (becomes part of the metric names).
    pub label: &'static str,
    /// First round of the phase.
    pub start_round: usize,
}

/// A named dynamic-world scenario: world-event script, interference model
/// and labelled phase boundaries.
pub struct DynamicScenario {
    /// Preset name (the `--scenario` value).
    pub name: &'static str,
    /// One-line description shown by `exp`.
    pub summary: &'static str,
    /// The world-event script applied between rounds.
    pub script: ScenarioScript,
    /// The interference model the scenario runs under.
    pub interference: Box<dyn InterferenceModel>,
    /// Phase boundaries, ascending by start round.
    pub phases: Vec<ScenarioPhase>,
}

impl DynamicScenario {
    /// The phases as `(label, start_round)` pairs, the shape
    /// [`crate::summary::phase_summaries`] consumes.
    pub fn phase_bounds(&self) -> Vec<(&'static str, usize)> {
        self.phases
            .iter()
            .map(|p| (p.label, p.start_round))
            .collect()
    }
}

/// Every dynamic-world preset, in catalogue order.
pub const DYNAMIC_SCENARIOS: [&str; 4] =
    ["churn-storm", "link-fade", "roaming-jammer", "flash-crowd"];

/// The simulated start time of round `r` on the 18-node testbed (4-second
/// LWB rounds).
fn round_time(r: usize) -> SimTime {
    let period = LwbConfig::testbed_default().round_period;
    SimTime::ZERO + period * r as u64
}

/// Builds the dynamic-world preset `name` scaled to a `rounds`-round run on
/// `topo` (the 18-node testbed), or `None` for unknown names.
///
/// All presets are deterministic functions of `(name, rounds, topo)`: no
/// RNG is involved, so every trial of a grid cell replays the same world
/// while drawing different protocol randomness from its trial seed.
pub fn dynamic_scenario(name: &str, rounds: usize, topo: &Topology) -> Option<DynamicScenario> {
    match name {
        "churn-storm" => Some(churn_storm(rounds)),
        "link-fade" => Some(link_fade(rounds, topo)),
        "roaming-jammer" => Some(roaming_jammer(rounds)),
        "flash-crowd" => Some(flash_crowd(rounds)),
        _ => None,
    }
}

/// A quarter of the run is calm, then a storm of overlapping node crashes
/// (a new victim every other round, each down for five rounds), then
/// everyone rejoins and the network must resettle.
fn churn_storm(rounds: usize) -> DynamicScenario {
    const VICTIMS: [u16; 16] = [3, 7, 11, 15, 5, 9, 13, 17, 2, 6, 10, 14, 4, 8, 12, 16];
    // Phase starts are clamped pairwise so they stay strictly ascending
    // even for tiny `rounds` (phase_summaries rejects equal bounds).
    let storm_start = (rounds / 4).max(1);
    let storm_end = (rounds / 2).max(storm_start + 1);
    let mut script = ScenarioScript::new();
    for (k, s) in (storm_start..storm_end).step_by(2).enumerate() {
        let victim = NodeId(VICTIMS[k % VICTIMS.len()]);
        script = script
            .fail_node(round_time(s), victim)
            .rejoin_node(round_time((s + 5).min(storm_end)), victim);
    }
    DynamicScenario {
        name: "churn-storm",
        summary: "overlapping node crashes and rejoins mid-run",
        script,
        interference: Box::new(NoInterference),
        phases: vec![
            ScenarioPhase {
                label: "calm",
                start_round: 0,
            },
            ScenarioPhase {
                label: "storm",
                start_round: storm_start,
            },
            ScenarioPhase {
                label: "recovered",
                start_round: storm_end,
            },
        ],
    }
}

/// A network-wide link fade: every link drifts to 60 % of its original PRR,
/// then 30 %, then recovers — the slow RF degradation (weather, doors,
/// humidity) no jammer models.
fn link_fade(rounds: usize, topo: &Topology) -> DynamicScenario {
    let fade_mid = (rounds / 4).max(1);
    let fade_deep = (rounds / 2).max(fade_mid + 1);
    let restore = (rounds * 3 / 4).max(fade_deep + 1);
    let mut script = ScenarioScript::new();
    for (step, factor) in [(fade_mid, 0.6), (fade_deep, 0.3), (restore, 1.0)] {
        for a in topo.node_ids() {
            for b in topo.node_ids() {
                if a < b {
                    let original = topo.link(a, b).prr();
                    script = script.drift_link(round_time(step), a, b, original * factor);
                }
            }
        }
    }
    DynamicScenario {
        name: "link-fade",
        summary: "every link fades to 60% then 30% of its PRR, then recovers",
        script,
        interference: Box::new(NoInterference),
        phases: vec![
            ScenarioPhase {
                label: "calm",
                start_round: 0,
            },
            ScenarioPhase {
                label: "fading",
                start_round: fade_mid,
            },
            ScenarioPhase {
                label: "deep-fade",
                start_round: fade_deep,
            },
            ScenarioPhase {
                label: "restored",
                start_round: restore,
            },
        ],
    }
}

/// A 30 %-duty jammer that is carried across the floor: next to the
/// coordinator, then mid-floor, then the far office, then off the floor
/// entirely. The interference model is a [`MobileJammer`] whose waypoints
/// are resolved from the script's relocation events.
fn roaming_jammer(rounds: usize) -> DynamicScenario {
    let start = Position::new(5.0, 9.0);
    let mid = (rounds / 4).max(1);
    let far = (rounds / 2).max(mid + 1);
    let gone = (rounds * 3 / 4).max(far + 1);
    let stops = [
        (mid, Position::new(16.0, 16.0)),
        (far, Position::new(21.0, 2.0)),
        (gone, Position::new(200.0, 200.0)),
    ];
    let mut script = ScenarioScript::new();
    for (r, pos) in stops {
        script = script.relocate_jammer(round_time(r), 0, pos);
    }
    let base = PeriodicJammer::with_duty_cycle(start, 0.30).on_channels(vec![Channel::CONTROL]);
    let waypoints = script.jammer_waypoints(0, start);
    DynamicScenario {
        name: "roaming-jammer",
        summary: "a 30% jammer walks across the floor and finally leaves",
        script,
        interference: Box::new(MobileJammer::new(base, waypoints)),
        phases: vec![
            ScenarioPhase {
                label: "jam-near-host",
                start_round: 0,
            },
            ScenarioPhase {
                label: "jam-mid-floor",
                start_round: mid,
            },
            ScenarioPhase {
                label: "jam-far-office",
                start_round: far,
            },
            ScenarioPhase {
                label: "jam-gone",
                start_round: gone,
            },
        ],
    }
}

/// The network starts with a third of its nodes powered down; halfway
/// through they all join within a few rounds (a flash crowd) and the
/// schedule suddenly has six more sources.
fn flash_crowd(rounds: usize) -> DynamicScenario {
    const JOINERS: [u16; 6] = [12, 13, 14, 15, 16, 17];
    let join_start = (rounds / 2).max(1);
    let mut script = ScenarioScript::new();
    for (i, &n) in JOINERS.iter().enumerate() {
        script = script
            .fail_node(SimTime::ZERO, NodeId(n))
            .rejoin_node(round_time(join_start + i), NodeId(n));
    }
    DynamicScenario {
        name: "flash-crowd",
        summary: "a third of the network joins mid-run within a few rounds",
        script,
        interference: Box::new(NoInterference),
        phases: vec![
            ScenarioPhase {
                label: "small-net",
                start_round: 0,
            },
            ScenarioPhase {
                label: "join-wave",
                start_round: join_start,
            },
            ScenarioPhase {
                label: "full-net",
                // May start beyond a tiny run; phase_summaries simply
                // skips phases the run never reaches.
                start_round: join_start + JOINERS.len(),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::{InterferenceModel, Position, World};

    #[test]
    fn kiel_jamming_zero_is_empty() {
        assert!(kiel_jamming(0.0).is_empty());
        assert_eq!(kiel_jamming(0.3).len(), 2);
    }

    #[test]
    fn dynamic_scenario_has_two_interference_phases() {
        let s = dynamic_interference_scenario(27 * 60);
        assert_eq!(s.len(), 4);
        let probe = |secs: u64| {
            s.busy_fraction(
                SimTime::from_secs(secs),
                1_000_000,
                Channel::CONTROL,
                Position::new(5.0, 9.0),
            )
        };
        assert!(probe(60) < 0.01, "minute 1 is calm");
        assert!(probe(9 * 60) > 0.2, "minute 9 sits in the 30% phase");
        assert!(probe(14 * 60) < 0.01, "minute 14 is calm again");
        let light = probe(19 * 60);
        assert!(
            light > 0.01 && light < 0.15,
            "minute 19 sits in the 5% phase, got {light}"
        );
    }

    #[test]
    fn every_preset_builds_and_validates() {
        let topo = Topology::kiel_testbed_18(1);
        for name in DYNAMIC_SCENARIOS {
            let sc = dynamic_scenario(name, 80, &topo)
                .unwrap_or_else(|| panic!("{name} must be a known preset"));
            assert_eq!(sc.name, name);
            assert!(!sc.summary.is_empty());
            // The script must pass world validation (no coordinator death,
            // nodes in range, PRRs in [0, 1]).
            let world = World::new(topo.num_nodes(), topo.coordinator(), sc.script.clone());
            assert!(world.is_static() == sc.script.is_empty());
            // Phases ascend and start at round 0.
            assert_eq!(sc.phases[0].start_round, 0);
            for w in sc.phases.windows(2) {
                assert!(w[0].start_round < w[1].start_round, "{name}: {w:?}");
            }
        }
        assert!(dynamic_scenario("nope", 80, &topo).is_none());
    }

    #[test]
    fn tiny_round_budgets_keep_phases_strictly_ascending() {
        // Degenerate `rounds` must never produce equal phase starts —
        // phase_summaries rejects non-ascending bounds per trial.
        let topo = Topology::kiel_testbed_18(1);
        for rounds in 1..=12 {
            for name in DYNAMIC_SCENARIOS {
                let sc = dynamic_scenario(name, rounds, &topo).unwrap();
                for w in sc.phases.windows(2) {
                    assert!(
                        w[0].start_round < w[1].start_round,
                        "{name} at rounds={rounds}: {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn churn_storm_rejoins_every_victim_by_the_end() {
        let topo = Topology::kiel_testbed_18(1);
        let sc = dynamic_scenario("churn-storm", 80, &topo).unwrap();
        let mut world = World::new(18, NodeId(0), sc.script);
        world.advance_to(round_time(80));
        assert_eq!(world.alive_count(), 18, "everyone is back after the storm");
        // Mid-storm the network is visibly degraded.
        let sc = dynamic_scenario("churn-storm", 80, &topo).unwrap();
        let mut world = World::new(18, NodeId(0), sc.script);
        world.advance_to(round_time(30));
        assert!(world.alive_count() < 18, "storm must take nodes down");
    }

    #[test]
    fn roaming_jammer_moves_and_eventually_leaves() {
        let topo = Topology::kiel_testbed_18(1);
        let sc = dynamic_scenario("roaming-jammer", 80, &topo).unwrap();
        let at = Position::new(5.0, 9.0);
        let probe = |r: usize| {
            sc.interference
                .busy_fraction(round_time(r), 1_000_000, Channel::CONTROL, at)
        };
        assert!(probe(1) > 0.1, "starts next to the coordinator");
        assert!(probe(79) < 0.01, "finally off the floor");
    }

    #[test]
    fn flash_crowd_starts_small_and_fills_up() {
        let topo = Topology::kiel_testbed_18(1);
        let sc = dynamic_scenario("flash-crowd", 40, &topo).unwrap();
        let mut world = World::new(18, NodeId(0), sc.script);
        world.advance_to(SimTime::ZERO);
        assert_eq!(world.alive_count(), 12, "starts with a third powered down");
        world.advance_to(round_time(40));
        assert_eq!(world.alive_count(), 18);
    }

    #[test]
    fn link_fade_drifts_and_restores_original_prrs() {
        let topo = Topology::kiel_testbed_18(1);
        let sc = dynamic_scenario("link-fade", 40, &topo).unwrap();
        let mut compiled = dimmer_sim::CompiledTopology::compile(&topo);
        for (_, e) in sc.script.events() {
            compiled.apply_event(e);
        }
        // After the final restore step, every link is back bit-for-bit.
        assert_eq!(compiled, dimmer_sim::CompiledTopology::compile(&topo));
    }
}
