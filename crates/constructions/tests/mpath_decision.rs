//! M-Path's availability decision (the capped blocking-path search) against
//! the path count of the flow kernel (successive shortest paths): the same
//! verdict on every configuration, hence the same Monte-Carlo estimate to the
//! bit, while `find_live_quorum` extracts genuine disjoint crossings.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use bqs_constructions::mpath::MPathSystem;
use bqs_core::prelude::*;
use bqs_graph::disjoint_paths::are_disjoint_crossings;
use bqs_graph::{min_cost_crossings, Axis};

/// The alive servers free and the crashed ones unusable.
fn alive_prices(system: &MPathSystem, alive: &ServerSet) -> Vec<f64> {
    (0..system.universe_size())
        .map(|v| {
            if alive.contains(v) {
                0.0
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// The verdict by flow: the kernel finds `k` disjoint alive crossings each
/// way.
fn flow_verdict(system: &MPathSystem, alive: &ServerSet) -> bool {
    let prices = alive_prices(system, alive);
    let k = system.paths_per_direction();
    [Axis::LeftRight, Axis::TopBottom]
        .into_iter()
        .all(|axis| min_cost_crossings(system.grid(), &prices, axis, k).len() == k)
}

/// An M-Path system whose availability is answered by the flow kernel;
/// everything else forwards. The Monte-Carlo engine draws the same
/// configurations for it as for the wrapped system.
struct FlowMPath(MPathSystem);

impl QuorumSystem for FlowMPath {
    fn universe_size(&self) -> usize {
        self.0.universe_size()
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        self.0.sample_quorum(rng)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.0.find_live_quorum(alive)
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        flow_verdict(&self.0, alive)
    }

    fn min_quorum_size(&self) -> usize {
        self.0.min_quorum_size()
    }
}

#[test]
fn every_decision_entry_point_agrees_with_flow_on_random_configurations() {
    let mut rng = StdRng::seed_from_u64(0x6d70);
    let (mut available, mut unavailable) = (0usize, 0usize);
    for side in [5usize, 6, 8, 11, 16, 23, 32] {
        let max_b = MPathSystem::max_b(side);
        for b in [1, max_b / 2, max_b] {
            let system = MPathSystem::new(side, b).unwrap();
            let (n, k) = (system.universe_size(), system.paths_per_direction());
            for p in [0.05, 0.125, 0.3, 0.45, 0.5, 0.6] {
                for _ in 0..4 {
                    let alive = sample_alive_set(n, p, &mut rng);
                    let expected = flow_verdict(&system, &alive);
                    let context = format!("side={side} b={b} p={p}");
                    assert_eq!(system.is_available(&alive), expected, "{context}");
                    assert_eq!(system.contains_quorum(&alive), expected, "{context}");
                    let quorum = system.find_live_quorum(&alive);
                    assert_eq!(quorum.is_some(), expected, "{context}");
                    let Some(quorum) = quorum else {
                        unavailable += 1;
                        continue;
                    };
                    available += 1;
                    assert!(quorum.is_subset_of(&alive), "{context}");
                    assert!(system.contains_quorum(&quorum), "{context}");
                    let prices = alive_prices(&system, &alive);
                    for axis in [Axis::LeftRight, Axis::TopBottom] {
                        let paths = min_cost_crossings(system.grid(), &prices, axis, k);
                        assert_eq!(paths.len(), k, "{context} {axis:?}");
                        assert!(
                            are_disjoint_crossings(system.grid(), axis, &paths),
                            "{context} {axis:?}"
                        );
                    }
                }
            }
        }
    }
    // Both verdicts must actually have been exercised.
    assert!(
        available >= 50 && unavailable >= 50,
        "{available} / {unavailable}"
    );
}

/// The decision the exact engine's default count kernel asks mask by mask
/// agrees with flow: every mask of M-Path(4,1) and a sample of M-Path(8,2)'s.
#[test]
fn word_level_availability_agrees_with_flow() {
    let small = MPathSystem::new(4, 1).unwrap();
    let mut scratch = ServerSet::new(16);
    for mask in 0u64..(1 << 16) {
        scratch.assign_mask_u64(mask);
        let expected = flow_verdict(&small, &scratch);
        assert_eq!(small.is_available(&scratch), expected, "{mask:#b}");
    }
    let wide = MPathSystem::new(8, 2).unwrap();
    let mut scratch = ServerSet::new(64);
    let mut rng = StdRng::seed_from_u64(0x7764);
    for _ in 0..400 {
        // AND of two draws is too sparse, OR too dense: mix densities.
        let mask = match rng.gen_range_u64(0, 3) {
            0 => rng.next_u64(),
            1 => rng.next_u64() | rng.next_u64(),
            _ => rng.next_u64() | rng.next_u64() | rng.next_u64(),
        };
        scratch.assign_mask_u64(mask);
        let expected = flow_verdict(&wide, &scratch);
        assert_eq!(wide.is_available(&scratch), expected, "{mask:#b}");
    }
}

/// Same RNG draws, same verdict per trial: the estimate is the one the
/// flow-backed system gives, at any thread count.
#[test]
fn monte_carlo_is_bit_identical_to_the_flow_backed_estimate() {
    for (side, b, p, trials) in [(8usize, 2usize, 0.3, 2500usize), (32, 7, 0.45, 1300)] {
        let system = MPathSystem::new(side, b).unwrap();
        let reference = FlowMPath(system.clone());
        let base = Evaluator::new().with_seed(0xb175).with_trials(trials);
        for threads in [1usize, 3] {
            let evaluator = base.clone().with_threads(threads);
            let got = evaluator.monte_carlo(&system, p);
            let want = evaluator.monte_carlo(&reference, p);
            assert_eq!(got.trials, Some(trials));
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "side={side} p={p} threads={threads}: {got:?} vs {want:?}"
            );
            assert_eq!(got, want);
            assert!(
                got.value > 0.0 && got.value < 1.0,
                "both verdicts must occur: {got:?}"
            );
        }
    }
}
