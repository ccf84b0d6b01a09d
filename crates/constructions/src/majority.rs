//! The regular (benign fault-tolerant) majority baseline.
//!
//! The paper's boosting technique (Section 6) turns *any* regular quorum system into
//! a b-masking one by composing it over a masking threshold. This baseline supplies
//! a regular system for examples, tests and the boosting ablation:
//!
//! * [`MajoritySystem`] — quorums are all `⌊n/2⌋ + 1`-subsets (\[Tho79\]); maximal
//!   availability, poor load.
//!
//! The regular row + column grid (\[Mae85, CAA92\]; load `≈ 2/√n`, poor
//! availability) is the Grid at `b = 0`: `GridSystem::new(side, 0)` in
//! [`crate::grid`].

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::threshold::ThresholdSystem;
use crate::AnalyzedConstruction;

/// The simple majority quorum system over `n` servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MajoritySystem {
    inner: ThresholdSystem,
}

impl MajoritySystem {
    /// Creates the majority system over `n` servers.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] when `n == 0`.
    pub fn new(n: usize) -> Result<Self, QuorumError> {
        Ok(MajoritySystem {
            inner: ThresholdSystem::new(n, n / 2 + 1)?,
        })
    }

    /// Materialises all majority quorums.
    ///
    /// # Errors
    ///
    /// Returns an error if the count exceeds `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        self.inner.to_explicit(max_quorums)
    }
}

impl QuorumSystem for MajoritySystem {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn name(&self) -> String {
        format!("Majority(n={})", self.inner.universe_size())
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        self.inner.sample_quorum(rng)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.inner.find_live_quorum(alive)
    }

    fn min_quorum_size(&self) -> usize {
        self.inner.min_quorum_size()
    }
}

impl MinWeightQuorumOracle for MajoritySystem {
    /// Delegates to the threshold prefix-sum oracle (`⌊n/2⌋ + 1` cheapest).
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        self.inner.min_weight_quorum(prices)
    }

    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        self.inner.symmetric_strategy_hint()
    }
}

impl AnalyzedConstruction for MajoritySystem {
    fn masking_b(&self) -> usize {
        self.inner.masking_b()
    }

    fn resilience(&self) -> usize {
        self.inner.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        self.inner.analytic_load()
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        Some(self.inner.crash_probability(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn majority_parameters() {
        let m = MajoritySystem::new(7).unwrap();
        assert_eq!(m.min_quorum_size(), 4);
        assert_eq!(AnalyzedConstruction::resilience(&m), 3);
        assert_eq!(m.masking_b(), 0);
        assert!((m.analytic_load() - 4.0 / 7.0).abs() < 1e-12);
        assert!(MajoritySystem::new(0).is_err());
    }

    #[test]
    fn majority_has_condorcet_availability() {
        // Fp decreases with n for p < 1/2 and increases for p > 1/2.
        let small = MajoritySystem::new(5).unwrap();
        let large = MajoritySystem::new(25).unwrap();
        let p = 0.3;
        assert!(
            large.crash_probability_upper_bound(p).unwrap()
                < small.crash_probability_upper_bound(p).unwrap()
        );
        let p_bad = 0.7;
        assert!(
            large.crash_probability_upper_bound(p_bad).unwrap()
                > small.crash_probability_upper_bound(p_bad).unwrap()
        );
    }

    #[test]
    fn majority_oracle_certifies_its_fair_load() {
        let m = MajoritySystem::new(101).unwrap();
        let certified = optimal_load_oracle(&m).unwrap();
        assert!((certified.load - m.analytic_load()).abs() <= 1e-9);
        assert!(certified.gap <= 1e-9);
    }

    #[test]
    fn majority_sampling_uniformity() {
        let m = MajoritySystem::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 5];
        for _ in 0..600 {
            for u in m.sample_quorum(&mut rng).iter() {
                counts[u] += 1;
            }
        }
        for &c in &counts {
            let frac = c as f64 / 600.0;
            assert!((frac - 0.6).abs() < 0.1, "frac={frac}");
        }
    }
}
