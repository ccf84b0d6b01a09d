//! Access strategies (Definition 3.8).
//!
//! An access strategy `w` is a probability distribution over the quorums of a system:
//! `w(Q)` is the frequency with which quorum `Q` is chosen when the replicated
//! service is accessed. The *load induced on a server* is the total probability of
//! the quorums containing it, and the system load `L(Q)` is the induced maximum load
//! under the best possible strategy.

use rand::Rng;

use crate::bitset::ServerSet;
use crate::error::QuorumError;

/// A probability distribution over the quorums of an explicit quorum system.
///
/// Construction precompiles a Vose alias table, so `AccessStrategy::sample_index`
/// is O(1) regardless of how many quorums the strategy ranges over — the hot
/// path of every strategy-driven client of the `bqs-service` load generators.
#[derive(Debug, Clone)]
pub struct AccessStrategy {
    weights: Vec<f64>,
    /// Vose alias table: bucket `i` yields `i` with probability `prob[i]` and
    /// `alias[i]` otherwise. Derived from `weights`; never compared or exposed.
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl PartialEq for AccessStrategy {
    fn eq(&self, other: &Self) -> bool {
        // The alias table is a deterministic function of the weights; equality
        // of the distribution is equality of the weights.
        self.weights == other.weights
    }
}

const WEIGHT_TOLERANCE: f64 = 1e-6;

/// Builds the Vose alias table for a normalised weight vector: buckets with
/// below-average mass borrow the remainder from an above-average donor, so a
/// single uniform draw (bucket + biased coin) samples the exact distribution.
fn build_alias_table(weights: &[f64]) -> (Vec<f64>, Vec<u32>) {
    let m = weights.len();
    assert!(
        u32::try_from(m).is_ok(),
        "alias table limited to 2^32 quorums"
    );
    let total: f64 = weights.iter().sum();
    let mut scaled: Vec<f64> = weights
        .iter()
        .map(|&w| w.max(0.0) * m as f64 / total)
        .collect();
    let mut prob = vec![1.0f64; m];
    let mut alias: Vec<u32> = (0..m as u32).collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        prob[s as usize] = scaled[s as usize];
        alias[s as usize] = l;
        // Donate the complement of bucket `s` from donor `l`.
        scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
        if scaled[l as usize] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    // Leftovers (numerical residue near 1.0) keep prob = 1, alias = self.
    (prob, alias)
}

impl AccessStrategy {
    /// Creates a strategy from explicit per-quorum weights.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidStrategy`] if the weights are empty, any weight
    /// is negative, or they do not sum to 1 (within a small tolerance).
    pub fn new(weights: Vec<f64>) -> Result<Self, QuorumError> {
        if weights.is_empty() {
            return Err(QuorumError::InvalidStrategy(
                "strategy must assign weight to at least one quorum".into(),
            ));
        }
        if weights.iter().any(|&w| w < -1e-12 || !w.is_finite()) {
            return Err(QuorumError::InvalidStrategy(
                "weights must be finite and non-negative".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if (total - 1.0).abs() > WEIGHT_TOLERANCE {
            return Err(QuorumError::InvalidStrategy(format!(
                "weights sum to {total}, expected 1"
            )));
        }
        let (prob, alias) = build_alias_table(&weights);
        Ok(AccessStrategy {
            weights,
            prob,
            alias,
        })
    }

    /// Creates a strategy from non-negative weights that need not sum to 1,
    /// normalising them first — the shared post-processing of both exact load
    /// solvers (`optimal_load` renormalises simplex output against floating-
    /// point drift; `optimal_load_oracle` scales a packing solution down to a
    /// distribution).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidStrategy`] if the weights are empty,
    /// negative, non-finite, or sum to zero.
    pub(crate) fn normalized(mut weights: Vec<f64>) -> Result<Self, QuorumError> {
        if weights.iter().any(|&w| w < -1e-12 || !w.is_finite()) {
            return Err(QuorumError::InvalidStrategy(
                "weights must be finite and non-negative".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(QuorumError::InvalidStrategy(
                "weights must have positive total mass".into(),
            ));
        }
        for w in &mut weights {
            *w = w.max(0.0) / total;
        }
        AccessStrategy::new(weights)
    }

    /// The uniform strategy over `m` quorums.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidStrategy`] when `m == 0` — a strategy must
    /// assign weight to at least one quorum.
    pub fn uniform(m: usize) -> Result<Self, QuorumError> {
        if m == 0 {
            return Err(QuorumError::InvalidStrategy(
                "cannot build a strategy over zero quorums".into(),
            ));
        }
        AccessStrategy::new(vec![1.0 / m as f64; m])
    }

    /// Number of quorums the strategy ranges over.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Returns true if the strategy covers no quorums (never the case for valid
    /// strategies; present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The weight assigned to quorum `i`.
    #[must_use]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// All weights, indexed like the quorum list they were built for.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a quorum index according to the strategy, in O(1) via the
    /// precompiled alias table: one uniform draw selects both the bucket and
    /// the biased coin deciding between the bucket and its alias.
    pub(crate) fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let m = self.prob.len();
        let x: f64 = rng.gen();
        let scaled = x * m as f64;
        let i = (scaled as usize).min(m - 1);
        let coin = scaled - i as f64;
        if coin < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// The load induced by this strategy on each server of the universe
    /// (`l_w(u) = Σ_{Q ∋ u} w(Q)`, Definition 3.8).
    ///
    /// # Panics
    ///
    /// Panics if `quorums.len()` differs from the strategy length.
    #[must_use]
    pub fn induced_loads(&self, quorums: &[ServerSet], universe_size: usize) -> Vec<f64> {
        assert_eq!(
            quorums.len(),
            self.weights.len(),
            "strategy covers {} quorums but {} were given",
            self.weights.len(),
            quorums.len()
        );
        let mut loads = vec![0.0; universe_size];
        for (q, &w) in quorums.iter().zip(&self.weights) {
            for (base, &word) in (0..).step_by(64).zip(q.words()) {
                let mut bits = word;
                while bits != 0 {
                    loads[base + bits.trailing_zeros() as usize] += w;
                    bits &= bits - 1;
                }
            }
        }
        loads
    }

    /// The load induced on the busiest server, `L_w(Q) = max_u l_w(u)`.
    #[must_use]
    pub fn induced_system_load(&self, quorums: &[ServerSet], universe_size: usize) -> f64 {
        self.induced_loads(quorums, universe_size)
            .into_iter()
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn majority3() -> Vec<ServerSet> {
        vec![
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(3, [0, 2]),
            ServerSet::from_indices(3, [1, 2]),
        ]
    }

    #[test]
    fn uniform_strategy_weights() {
        let s = AccessStrategy::uniform(4).unwrap();
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            assert!((s.weight(i) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_strategies_rejected() {
        assert!(AccessStrategy::new(vec![]).is_err());
        assert!(AccessStrategy::new(vec![0.5, 0.6]).is_err());
        assert!(AccessStrategy::new(vec![-0.1, 1.1]).is_err());
        assert!(AccessStrategy::new(vec![f64::NAN, 1.0]).is_err());
        assert!(AccessStrategy::new(vec![0.25, 0.75]).is_ok());
    }

    #[test]
    fn normalized_rescales_and_validates() {
        let s = AccessStrategy::normalized(vec![1.0, 3.0]).unwrap();
        assert!((s.weight(0) - 0.25).abs() < 1e-12);
        assert!((s.weight(1) - 0.75).abs() < 1e-12);
        assert!(AccessStrategy::normalized(vec![]).is_err());
        assert!(AccessStrategy::normalized(vec![0.0, 0.0]).is_err());
        assert!(AccessStrategy::normalized(vec![-0.5, 1.0]).is_err());
        assert!(AccessStrategy::normalized(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn induced_loads_majority() {
        // Uniform strategy on the 3-majority system loads each server 2/3.
        let s = AccessStrategy::uniform(3).unwrap();
        let loads = s.induced_loads(&majority3(), 3);
        for l in loads {
            assert!((l - 2.0 / 3.0).abs() < 1e-12);
        }
        assert!((s.induced_system_load(&majority3(), 3) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_strategy_loads() {
        // All weight on the first quorum {0,1}: servers 0,1 have load 1, server 2 has 0.
        let s = AccessStrategy::new(vec![1.0, 0.0, 0.0]).unwrap();
        let loads = s.induced_loads(&majority3(), 3);
        assert_eq!(loads, vec![1.0, 1.0, 0.0]);
        assert_eq!(s.induced_system_load(&majority3(), 3), 1.0);
    }

    #[test]
    fn sampling_respects_weights() {
        let s = AccessStrategy::new(vec![0.8, 0.2]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 2];
        for _ in 0..5000 {
            counts[s.sample_index(&mut rng)] += 1;
        }
        let frac0 = counts[0] as f64 / 5000.0;
        assert!((frac0 - 0.8).abs() < 0.05, "frac0={frac0}");
    }

    #[test]
    #[should_panic(expected = "strategy covers")]
    fn induced_loads_length_mismatch_panics() {
        let s = AccessStrategy::uniform(2).unwrap();
        let _ = s.induced_loads(&majority3(), 3);
    }

    #[test]
    fn uniform_zero_is_an_error_not_a_panic() {
        assert!(matches!(
            AccessStrategy::uniform(0),
            Err(QuorumError::InvalidStrategy(_))
        ));
    }

    #[test]
    fn alias_table_never_samples_zero_weight_quorums() {
        let s = AccessStrategy::new(vec![0.5, 0.0, 0.5, 0.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let i = s.sample_index(&mut rng);
            assert!(i == 0 || i == 2, "sampled zero-weight index {i}");
        }
    }

    #[test]
    fn alias_table_single_quorum_always_sampled() {
        let s = AccessStrategy::new(vec![1.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            assert_eq!(s.sample_index(&mut rng), 0);
        }
    }

    #[test]
    fn alias_table_frequencies_match_weights_property() {
        // Frequency property test over many random weight vectors: the O(1)
        // alias sampler must reproduce each weight to within 5 binomial
        // standard deviations (plus a floor for near-zero weights).
        const SAMPLES: usize = 40_000;
        for case in 0u64..25 {
            let mut gen_rng = StdRng::seed_from_u64(0xa11a5 ^ case);
            let m = 1 + (gen_rng.gen::<u64>() % 16) as usize;
            let raw: Vec<f64> = (0..m)
                .map(|_| {
                    // Mix magnitudes, including exact zeros, to stress the
                    // small/large bucket pairing.
                    let x: f64 = gen_rng.gen();
                    if x < 0.2 {
                        0.0
                    } else {
                        x * x
                    }
                })
                .collect();
            if raw.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let s = AccessStrategy::normalized(raw).unwrap();
            let mut counts = vec![0usize; m];
            let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
            for _ in 0..SAMPLES {
                counts[s.sample_index(&mut rng)] += 1;
            }
            for (i, &count) in counts.iter().enumerate() {
                let w = s.weight(i);
                let freq = count as f64 / SAMPLES as f64;
                let sigma = (w * (1.0 - w) / SAMPLES as f64).sqrt();
                assert!(
                    (freq - w).abs() <= 5.0 * sigma + 1e-9,
                    "case {case}: index {i} weight {w} sampled at {freq} (sigma {sigma})"
                );
            }
        }
    }
}
