//! Equivalence suite for the optimized flood kernel: the CSR/workspace
//! kernel in `dimmer_glossy::flood` must reproduce the naive dense path in
//! `dimmer_glossy::reference` **byte-for-byte** at fixed seeds.
//!
//! The kernel's whole claim is that it changes *how* a flood is computed
//! (structure-of-arrays scratch, CSR link scatter, skipped no-op work) but
//! not *what* is computed: identical RNG consumption and identical
//! floating-point operation order. Every test here compares complete
//! [`FloodOutcome`] values — received flags, first-RX slots, relay counts,
//! radio accounting and durations — with `assert_eq!`, i.e. exact equality
//! of every `f64`/`u64` field, across topologies, interference models,
//! `N_TX` assignments and participation masks, plus a property test over
//! random topologies and seeds.

use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment, ReferenceFloodSimulator};
use dimmer_integration::equivalence::{
    assert_flood_equivalent as assert_equivalent, random_topology,
};
use dimmer_sim::{
    CompositeInterference, InterferenceModel, NoInterference, NodeId, PeriodicJammer, Position,
    ScheduledInterference, SimDuration, SimRng, SimTime, Topology, WifiInterference, WifiLevel,
};
use proptest::prelude::*;

#[test]
fn kernels_agree_on_every_topology_builder() {
    let cfg = GlossyConfig::default();
    let topos = [
        Topology::line(6, 7.0, 3),
        Topology::grid(4, 5, 9.0, 4),
        Topology::random(25, 35.0, 35.0, 5),
        Topology::kiel_testbed_18(6),
        Topology::dcube_48(7),
    ];
    for (k, topo) in topos.iter().enumerate() {
        for seed in 0..10u64 {
            assert_equivalent(
                topo,
                &NoInterference,
                &cfg,
                topo.coordinator(),
                SimTime::ZERO,
                seed * 31 + k as u64,
            );
        }
    }
}

#[test]
fn kernels_agree_under_every_interference_model() {
    let topo = Topology::kiel_testbed_18(2);
    let cfg = GlossyConfig::default();
    let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 10.0), 0.35);
    let wifi = WifiInterference::new(WifiLevel::Level2, 9);
    let mut comp = CompositeInterference::new();
    for j in PeriodicJammer::kiel_pair(0.30) {
        comp.push(Box::new(j));
    }
    let mut sched = ScheduledInterference::new();
    sched.add_window(
        SimTime::from_millis(5),
        SimTime::from_secs(2),
        Box::new(PeriodicJammer::with_duty_cycle(
            Position::new(8.0, 8.0),
            0.5,
        )),
    );
    let models: [&dyn InterferenceModel; 5] = [&NoInterference, &jam, &wifi, &comp, &sched];
    for (k, model) in models.into_iter().enumerate() {
        for seed in 0..12u64 {
            // Vary the start time so bursty models hit different phases.
            let start = SimTime::from_millis(seed * 13 + k as u64 * 7);
            assert_equivalent(&topo, model, &cfg, NodeId(0), start, seed ^ 0xAB);
        }
    }
}

#[test]
fn kernels_agree_across_ntx_assignments() {
    let topo = Topology::kiel_testbed_18(4);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 0.25);
    for ntx in 0..=8u8 {
        let cfg = GlossyConfig::with_uniform_ntx(ntx);
        assert_equivalent(&topo, &jam, &cfg, NodeId(3), SimTime::ZERO, ntx as u64);
    }
    // Per-node assignment with passive receivers (N_TX = 0), as used by the
    // forwarder selection.
    let mut per_node = vec![3u8; topo.num_nodes()];
    per_node[5] = 0;
    per_node[9] = 0;
    per_node[14] = 8;
    let cfg = GlossyConfig::default().with_ntx(NtxAssignment::PerNode(per_node));
    for seed in 0..10u64 {
        assert_equivalent(&topo, &jam, &cfg, NodeId(0), SimTime::ZERO, seed + 100);
    }
}

#[test]
fn kernels_agree_with_participation_masks() {
    let topo = Topology::kiel_testbed_18(8);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(12.0, 9.0), 0.4);
    let cfg = GlossyConfig::default();
    let mut fast = FloodSimulator::new(&topo, &jam);
    let slow = ReferenceFloodSimulator::new(&topo, &jam);
    for seed in 0..15u64 {
        // Derive a pseudo-random participation mask from the seed.
        let mut mask: Vec<bool> = (0..topo.num_nodes())
            .map(|i| (seed.wrapping_mul(0x9E37_79B9) >> (i % 60)) & 1 == 0)
            .collect();
        mask[0] = true; // the initiator must participate
        let a = fast.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &mask,
        );
        let b = slow.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &mask,
        );
        assert_eq!(a, b, "masked flood diverged (seed {seed})");
    }
}

#[test]
fn kernels_consume_the_same_amount_of_rng() {
    // After a flood, both simulators must leave the RNG in the same state —
    // otherwise equivalence would silently break for the *next* flood
    // sharing the stream (exactly how LWB rounds chain floods).
    let topo = Topology::kiel_testbed_18(5);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 12.0), 0.3);
    let cfg = GlossyConfig::default();
    let mut fast = FloodSimulator::new(&topo, &jam);
    let slow = ReferenceFloodSimulator::new(&topo, &jam);
    let mut rng_a = SimRng::seed_from(99);
    let mut rng_b = SimRng::seed_from(99);
    for round in 0..10u64 {
        let start = SimTime::from_millis(round * 23);
        let a = fast.flood(&cfg, NodeId(0), start, &mut rng_a);
        let b = slow.flood(&cfg, NodeId(0), start, &mut rng_b);
        assert_eq!(a, b, "chained flood {round} diverged");
        assert_eq!(
            rng_a.gen_probability(),
            rng_b.gen_probability(),
            "RNG streams drifted apart after flood {round}"
        );
    }
}

#[test]
fn kernel_handles_single_pair_and_isolated_topologies() {
    // Smallest legal topology.
    let topo = Topology::line(2, 5.0, 1);
    let cfg = GlossyConfig::default();
    let out = assert_equivalent(&topo, &NoInterference, &cfg, NodeId(1), SimTime::ZERO, 7);
    assert!(out.received(NodeId(0)));
    // A line so stretched that the far nodes are unreachable: the kernel's
    // CSR rows for them are empty, yet accounting must still match.
    let sparse = Topology::line(4, 200.0, 2);
    for seed in 0..5u64 {
        let out = assert_equivalent(
            &sparse,
            &NoInterference,
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            seed,
        );
        assert_eq!(out.reach_count(), 1, "200 m spacing must isolate nodes");
        // Unreached nodes listen for the whole budget.
        assert_eq!(
            out.node(NodeId(3)).radio.on_time(),
            cfg.max_slot_duration,
            "isolated nodes keep scanning"
        );
    }
}

#[test]
fn flood_duration_and_outcome_shape_are_preserved() {
    let topo = Topology::dcube_48(3);
    let wifi = WifiInterference::new(WifiLevel::Level1, 4);
    let cfg = GlossyConfig::with_uniform_ntx(5);
    let out = assert_equivalent(&topo, &wifi, &cfg, NodeId(0), SimTime::from_secs(3), 11);
    assert_eq!(out.per_node().len(), 48);
    assert!(out.duration() <= cfg.max_slot_duration);
    assert!(out.duration() > SimDuration::ZERO);
}

#[test]
fn kernels_agree_at_bitset_word_boundaries() {
    // The kernel keeps node sets in 64-bit words; worlds one node either
    // side of one and two full words put receivers, transmitters, passive
    // nodes and masked-out nodes on every boundary bit.
    let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.3);
    for n in [63usize, 64, 65, 127, 128, 129] {
        // A dense 30 m square (many concurrent transmitters, dense-row
        // gathers) and a multi-hop 80 m square (in-CSR gathers).
        for (k, side) in [30.0, 80.0].into_iter().enumerate() {
            let topo = Topology::random(n, side, side, n as u64 + k as u64);
            let mut per_node: Vec<u8> = (0..n).map(|i| ((i * 7 + k) % 9) as u8).collect();
            for passive in [62, 63, 64, 127, 128] {
                if passive < n {
                    per_node[passive] = 0;
                }
            }
            let cfg = GlossyConfig::default().with_ntx(NtxAssignment::PerNode(per_node));
            let mut fast = FloodSimulator::new(&topo, &jam);
            let slow = ReferenceFloodSimulator::new(&topo, &jam);
            for seed in 0..4u64 {
                let participants: Vec<bool> = (0..n).map(|i| (i as u64 + seed) % 5 != 2).collect();
                let alive: Vec<bool> = (0..n).map(|i| (i as u64 * 3 + seed) % 7 != 4).collect();
                let Some(initiator) = (0..n).rev().find(|&i| participants[i] && alive[i]) else {
                    continue;
                };
                let initiator = NodeId(initiator as u16);
                let both: Vec<bool> = participants
                    .iter()
                    .zip(&alive)
                    .map(|(&p, &a)| p && a)
                    .collect();
                fast.set_alive(&alive);
                let start = SimTime::from_millis(seed * 17);
                let a = fast.flood_with_participants(
                    &cfg,
                    initiator,
                    start,
                    &mut SimRng::seed_from(seed),
                    &participants,
                );
                let b = slow.flood_with_participants(
                    &cfg,
                    initiator,
                    start,
                    &mut SimRng::seed_from(seed),
                    &both,
                );
                assert_eq!(a, b, "n={n} side={side} seed={seed} diverged");
                fast.clear_alive();
                let a = fast.flood(&cfg, NodeId(0), start, &mut SimRng::seed_from(seed));
                let b = slow.flood(&cfg, NodeId(0), start, &mut SimRng::seed_from(seed));
                assert_eq!(a, b, "n={n} side={side} seed={seed} diverged unmasked");
            }
        }
    }
}

#[test]
fn flood_that_stops_transmitting_before_reaching_everyone_matches_reference() {
    // Nodes 3 to 5 sit out, so nodes 6 and 7 (32 m past node 2) are cut
    // off: the relays finish their N_TX early while those two keep
    // listening. The reference runs the empty slots up to the budget; the
    // kernel must report the same duration and radio-on time without
    // running them.
    let topo = Topology::line(8, 8.0, 2);
    let cfg = GlossyConfig::with_uniform_ntx(1);
    let mut participants = vec![true; 8];
    participants[3..=5].fill(false);
    let mut fast = FloodSimulator::new(&topo, &NoInterference);
    let slow = ReferenceFloodSimulator::new(&topo, &NoInterference);
    for seed in 0..8u64 {
        let a = fast.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &participants,
        );
        let b = slow.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &participants,
        );
        assert_eq!(a, b, "seed {seed} diverged");
        assert!(!a.received(NodeId(6)), "node 6 must be cut off");
        assert!(a.received(NodeId(1)), "node 1 is one good hop away");
        // The initiator and its first relay switched off early …
        for i in [0u16, 1] {
            assert!(a.node(NodeId(i)).radio.on_time() < cfg.max_slot_duration);
        }
        // … while the cut-off listeners and the flood ran it out.
        assert_eq!(a.node(NodeId(6)).radio.on_time(), cfg.max_slot_duration);
        assert_eq!(a.duration(), b.duration());
        let last_slot_end = cfg.relay_slot_duration() * cfg.max_relay_slots() as u64;
        assert_eq!(a.duration(), last_slot_end.min(cfg.max_slot_duration));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: on random topologies, random seeds, random
    /// initiators and random N_TX, the optimized kernel and the reference
    /// produce identical outcomes.
    #[test]
    fn prop_kernels_agree_on_random_topologies(
        topo_seed in 0u64..500,
        flood_seed in 0u64..10_000,
        n in 2usize..=130,
        ntx in 0u8..=8,
        initiator_pick in 0usize..130,
        duty_pct in 0u32..=50,
    ) {
        let topo = random_topology(n, topo_seed);
        let initiator = NodeId((initiator_pick % n) as u16);
        let cfg = GlossyConfig::with_uniform_ntx(ntx);
        let jam;
        let interference: &dyn InterferenceModel = if duty_pct == 0 {
            &NoInterference
        } else {
            jam = PeriodicJammer::with_duty_cycle(
                Position::new(15.0, 15.0),
                duty_pct as f64 / 100.0,
            );
            &jam
        };
        let mut fast = FloodSimulator::new(&topo, interference);
        let slow = ReferenceFloodSimulator::new(&topo, interference);
        let a = fast.flood(&cfg, initiator, SimTime::ZERO, &mut SimRng::seed_from(flood_seed));
        let b = slow.flood(&cfg, initiator, SimTime::ZERO, &mut SimRng::seed_from(flood_seed));
        prop_assert_eq!(a, b);
    }
}
