//! Threshold quorum systems.
//!
//! The `ℓ-of-k` threshold system takes every `ℓ`-subset of the `k` servers as a
//! quorum. Three roles in the paper:
//!
//! * the **Threshold construction of [MR98a]** (first row of Table 2): over `n`
//!   servers with `4b < n`, quorums of size `⌈(n + 2b + 1)/2⌉` give a b-masking
//!   system with load `1/2 + O(b/n)` and resilience `n − c(Q)`;
//! * the **minimal masking threshold** `Thresh(3b+1 of 4b+1)`, the inner component
//!   of boostFPP (Section 6);
//! * the **ℓ-of-k building block** of the recursive threshold systems RT(k, ℓ)
//!   (Section 5.2).

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::AnalyzedConstruction;

/// Width of the count kernel's segments (`2^12` masks per step). Any width
/// costs Threshold the same per segment; a narrow one keeps the evaluation
/// engine's chunks whole numbers of segments on many-core machines too.
const SEGMENT_BITS: usize = 12;

/// An `ℓ-of-n` threshold quorum system: every `ℓ`-subset of the universe is a quorum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdSystem {
    n: usize,
    quorum_size: usize,
}

impl ThresholdSystem {
    /// Creates the `quorum_size`-of-`n` threshold system.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless `0 < quorum_size <= n` and
    /// `2 * quorum_size > n` (otherwise two quorums could be disjoint and the
    /// collection would not be a quorum system).
    pub fn new(n: usize, quorum_size: usize) -> Result<Self, QuorumError> {
        if quorum_size == 0 || quorum_size > n {
            return Err(QuorumError::InvalidParameters(format!(
                "quorum size {quorum_size} must be in 1..={n}"
            )));
        }
        if 2 * quorum_size <= n {
            return Err(QuorumError::InvalidParameters(format!(
                "{quorum_size}-of-{n} is not a quorum system: two quorums can be disjoint"
            )));
        }
        Ok(ThresholdSystem { n, quorum_size })
    }

    /// The b-masking threshold construction of [MR98a] over `n` servers: quorums of
    /// size `⌈(n + 2b + 1) / 2⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless `4b < n`.
    pub fn masking(n: usize, b: usize) -> Result<Self, QuorumError> {
        if 4 * b >= n {
            return Err(QuorumError::InvalidParameters(format!(
                "a b-masking system requires 4b < n (got b={b}, n={n})"
            )));
        }
        let quorum_size = (n + 2 * b + 1).div_ceil(2);
        ThresholdSystem::new(n, quorum_size)
    }

    /// The minimal-universe b-masking threshold `Thresh(3b+1 of 4b+1)` used as the
    /// inner component of boostFPP.
    ///
    /// # Errors
    ///
    /// Never fails for `b >= 0`; the `Result` keeps the constructor signatures
    /// uniform across the crate.
    pub fn minimal_masking(b: usize) -> Result<Self, QuorumError> {
        ThresholdSystem::new(4 * b + 1, 3 * b + 1)
    }

    /// The quorum size `ℓ`.
    #[must_use]
    pub fn quorum_size(&self) -> usize {
        self.quorum_size
    }

    /// Minimal intersection size `IS = 2ℓ − n`.
    #[must_use]
    pub fn min_intersection(&self) -> usize {
        2 * self.quorum_size - self.n
    }

    /// Minimal transversal size `MT = n − ℓ + 1`.
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        self.n - self.quorum_size + 1
    }

    /// Exact crash probability: the system fails iff at least `n − ℓ + 1` servers
    /// crash (a binomial tail).
    #[must_use]
    pub fn crash_probability(&self, p: f64) -> f64 {
        bqs_core::availability::threshold_crash_probability(self.n, self.quorum_size, p)
    }

    /// Materialises all `C(n, ℓ)` quorums.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if the number of quorums exceeds
    /// `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        let count = bqs_combinatorics::binomial::binomial(self.n as u64, self.quorum_size as u64);
        if count > max_quorums as u128 {
            return Err(QuorumError::InvalidParameters(format!(
                "{} quorums exceed the cap of {max_quorums}",
                count
            )));
        }
        let quorums: Vec<ServerSet> =
            bqs_combinatorics::subsets::KSubsets::new(self.n, self.quorum_size)
                .map(|s| ServerSet::from_indices(self.n, s))
                .collect();
        Ok(ExplicitQuorumSystem::new(self.n, quorums)?.with_name(self.name()))
    }
}

impl QuorumSystem for ThresholdSystem {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        format!("Threshold({}-of-{})", self.quorum_size, self.n)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let picks = rand::seq::index::sample(rng, self.n, self.quorum_size);
        ServerSet::from_indices(self.n, picks.iter())
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        if alive.len() < self.quorum_size {
            return None;
        }
        Some(ServerSet::from_indices(
            self.n,
            alive.iter().take(self.quorum_size),
        ))
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        // Allocation-free: availability is a pure popcount test.
        alive.len() >= self.quorum_size
    }

    #[inline]
    fn is_available_u64(&self, alive: u64, _scratch: &mut ServerSet) -> bool {
        alive.count_ones() as usize >= self.quorum_size
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) -> bool {
        // Availability is popcount alone: of a segment's 2^lo masks, C(lo, k)
        // have popcount `high + k`, and they are unavailable iff that is
        // below ℓ.
        let lo_bits = self.n.min(SEGMENT_BITS);
        let binomials: Vec<u64> = (0..=lo_bits)
            .map(|k| bqs_combinatorics::binomial::binomial(lo_bits as u64, k as u64) as u64)
            .collect();
        crate::segments::unavailable_profile_by_segments(
            start,
            end,
            lo_bits as u32,
            profile,
            |base, row| {
                let short = self.quorum_size.saturating_sub(base.count_ones() as usize);
                for (r, c) in row.iter_mut().zip(&binomials).take(short) {
                    *r += c;
                }
            },
            |mask| (mask.count_ones() as usize) < self.quorum_size,
        );
        true
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        Some(self.crash_probability(p))
    }

    fn min_quorum_size(&self) -> usize {
        self.quorum_size
    }
}

impl MinWeightQuorumOracle for ThresholdSystem {
    /// Every `ℓ`-subset is a quorum, so the cheapest quorum is the `ℓ`
    /// cheapest servers — a sort-and-prefix selection, exact at any `n`.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        assert_eq!(prices.len(), self.n, "one price per server required");
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.sort_by(|&a, &b| prices[a].total_cmp(&prices[b]).then(a.cmp(&b)));
        let chosen = &idx[..self.quorum_size];
        let price = chosen.iter().map(|&u| prices[u]).sum();
        Some((
            ServerSet::from_indices(self.n, chosen.iter().copied()),
            price,
        ))
    }

    /// The `n` cyclic shifts of one `ℓ`-window: every server lies in exactly
    /// `ℓ` of them, so the uniform mixture loads every server at `ℓ/n` —
    /// the optimum the engine certifies against the oracle bound.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        let quorums: Vec<ServerSet> = (0..self.n)
            .map(|s| {
                ServerSet::from_indices(self.n, (0..self.quorum_size).map(|o| (s + o) % self.n))
            })
            .collect();
        let weights = vec![1.0; quorums.len()];
        Some((quorums, weights))
    }
}

impl AnalyzedConstruction for ThresholdSystem {
    fn masking_b(&self) -> usize {
        let is = self.min_intersection();
        let mt = self.min_transversal();
        if is == 0 || mt == 0 {
            return 0;
        }
        ((is - 1) / 2).min(mt - 1)
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // The system is fair, so Proposition 3.9 applies: L = c / n.
        self.quorum_size as f64 / self.n as f64
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        Some(self.crash_probability(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn basic_parameters() {
        let t = ThresholdSystem::new(7, 5).unwrap();
        assert_eq!(t.universe_size(), 7);
        assert_eq!(t.min_quorum_size(), 5);
        assert_eq!(t.min_intersection(), 3);
        assert_eq!(t.min_transversal(), 3);
        assert_eq!(t.masking_b(), 1);
        assert_eq!(AnalyzedConstruction::resilience(&t), 2);
        assert!((t.analytic_load() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ThresholdSystem::new(5, 0).is_err());
        assert!(ThresholdSystem::new(5, 6).is_err());
        assert!(ThresholdSystem::new(6, 3).is_err()); // 2*3 <= 6: disjoint quorums
        assert!(ThresholdSystem::masking(8, 2).is_err()); // 4b >= n
        assert!(ThresholdSystem::masking(9, 2).is_ok());
    }

    #[test]
    fn mr98a_masking_threshold_parameters() {
        // n = 16, b = 3: quorum size = ceil((16+7)/2) = 12, IS = 8 >= 2b+1 = 7,
        // MT = 5 >= b+1 = 4.
        let t = ThresholdSystem::masking(16, 3).unwrap();
        assert_eq!(t.quorum_size(), 12);
        assert!(t.min_intersection() >= 7);
        assert!(t.min_transversal() >= 4);
        assert!(t.masking_b() >= 3);
        // Load is 1/2 + O(b/n) (remark after Corollary 4.2).
        assert!(t.analytic_load() >= 0.5);
        assert!(t.analytic_load() <= 0.5 + (2.0 * 3.0 + 2.0) / 16.0);
    }

    #[test]
    fn minimal_masking_is_exactly_b_masking() {
        for b in 0..4usize {
            let t = ThresholdSystem::minimal_masking(b).unwrap();
            assert_eq!(t.universe_size(), 4 * b + 1);
            assert_eq!(t.masking_b(), b);
            // Verify against the exact explicit-system checker.
            let explicit = t.to_explicit(100_000).unwrap();
            assert_eq!(masking_level(explicit.quorums(), 4 * b + 1), Some(b));
        }
    }

    #[test]
    fn explicit_matches_analytic_measures() {
        let t = ThresholdSystem::new(6, 4).unwrap();
        let e = t.to_explicit(1000).unwrap();
        assert_eq!(min_quorum_size(e.quorums()), t.min_quorum_size());
        assert_eq!(min_intersection_size(e.quorums()), t.min_intersection());
        assert_eq!(min_transversal_size(e.quorums(), 6), t.min_transversal());
        let (lp_load, _) = optimal_load(e.quorums(), 6).unwrap();
        assert!((lp_load - t.analytic_load()).abs() < 1e-6);
    }

    #[test]
    fn explicit_cap_enforced() {
        let t = ThresholdSystem::new(30, 16).unwrap();
        assert!(t.to_explicit(1000).is_err());
    }

    #[test]
    fn crash_probability_matches_exact_enumeration() {
        let t = ThresholdSystem::new(6, 4).unwrap();
        for &p in &[0.1, 0.3, 0.5] {
            let closed = t.crash_probability(p);
            let exact = exact_crash_probability(&t, p).unwrap();
            assert!((closed - exact).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn closed_form_matches_enumeration_up_to_n_20() {
        // The closed form must track full enumeration to 1e-9 through n = 20
        // (2^20 configurations — the engine's popcount fast path keeps this
        // test cheap). It is also what the evaluation engine dispatches to.
        for (n, b) in [(13usize, 3usize), (17, 2), (20, 4)] {
            let t = ThresholdSystem::masking(n, b).unwrap();
            for &p in &[0.05, 0.125, 0.3, 0.5, 0.8] {
                let closed = t.crash_probability(p);
                let enumerated = exact_crash_probability(&t, p).unwrap();
                assert!(
                    (closed - enumerated).abs() < 1e-9,
                    "n={n} b={b} p={p}: closed {closed} vs enumerated {enumerated}"
                );
                let dispatched = Evaluator::new().crash_probability(&t, p);
                assert_eq!(dispatched.method, FpMethod::ClosedForm);
                assert!((dispatched.value - closed).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn segment_kernel_matches_per_mask_count() {
        for n in [1usize, 15, 16, 17, 24] {
            let total = 1u64 << n;
            let segment = 1u64 << n.min(SEGMENT_BITS);
            // Ranges that start and end inside a segment and straddle
            // several, and one ending at the top of the mask space.
            let mut windows = vec![
                (1, total - 1),
                (total.saturating_sub(3 * segment + 5), total),
            ];
            windows.extend((1..=3u64).map(|i| {
                let base = (i * 0x9e37_79b9 % (total / segment)) * segment;
                (
                    base + segment / 3,
                    (base + 2 * segment + segment / 2).min(total),
                )
            }));
            if n <= 17 {
                windows.push((0, total));
            }
            for quorum_size in [n / 2 + 1, (3 * n).div_ceil(4), n] {
                let t = ThresholdSystem::new(n, quorum_size).unwrap();
                for &(start, end) in &windows {
                    let mut kernel = vec![0u64; n + 1];
                    assert!(t.unavailable_profile_u64_range(start, end, &mut kernel));
                    let mut direct = vec![0u64; n + 1];
                    for mask in start..end {
                        let alive = mask.count_ones() as usize;
                        direct[alive] += u64::from(alive < quorum_size);
                    }
                    assert_eq!(kernel, direct, "{} range={start}..{end}", t.name());
                }
            }
        }
    }

    #[test]
    fn sampled_quorums_have_right_size_and_are_uniformish() {
        let t = ThresholdSystem::new(9, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = vec![0usize; 9];
        for _ in 0..900 {
            let q = t.sample_quorum(&mut rng);
            assert_eq!(q.len(), 5);
            for u in q.iter() {
                seen[u] += 1;
            }
        }
        // Each server should appear in roughly 5/9 of the samples.
        for &count in &seen {
            let frac = count as f64 / 900.0;
            assert!((frac - 5.0 / 9.0).abs() < 0.1, "frac={frac}");
        }
    }

    #[test]
    fn find_live_quorum_thresholds() {
        let t = ThresholdSystem::new(5, 3).unwrap();
        let alive = ServerSet::from_indices(5, [0, 2, 4]);
        let q = t.find_live_quorum(&alive).unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.is_subset_of(&alive));
        let too_few = ServerSet::from_indices(5, [1, 3]);
        assert!(t.find_live_quorum(&too_few).is_none());
    }

    #[test]
    fn pricing_oracle_selects_cheapest_prefix() {
        let t = ThresholdSystem::new(6, 4).unwrap();
        let prices = [0.9, 0.1, 0.5, 0.2, 0.8, 0.3];
        let (q, v) = t.min_weight_quorum(&prices).unwrap();
        assert_eq!(q.to_vec(), vec![1, 2, 3, 5]);
        assert!((v - 1.1).abs() < 1e-12);
        // Exactness against the explicit scan oracle on varied prices.
        let e = t.to_explicit(1000).unwrap();
        for seed in 0..5u64 {
            let prices: Vec<f64> = (0..6)
                .map(|i| ((i as u64 * 13 + seed * 7 + 3) % 17) as f64 / 17.0)
                .collect();
            let (_, v) = t.min_weight_quorum(&prices).unwrap();
            let (_, v_ref) = e.min_weight_quorum(&prices).unwrap();
            assert!((v - v_ref).abs() < 1e-12, "seed={seed}");
        }
    }

    #[test]
    fn certified_load_matches_closed_form_at_scale() {
        // n = 1024: far beyond any explicit enumeration; the certified
        // column-generation load must hit c/n = 768/1024 with gap <= 1e-9.
        let t = ThresholdSystem::masking(1024, 255).unwrap();
        let certified = optimal_load_oracle(&t).unwrap();
        assert!(
            (certified.load - t.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            t.analytic_load()
        );
        assert!(certified.gap <= 1e-9, "gap={}", certified.gap);
    }

    #[test]
    fn crash_probability_upper_bound_is_exact_here() {
        let t = ThresholdSystem::minimal_masking(2).unwrap();
        let p = 0.2;
        assert!(
            (t.crash_probability_upper_bound(p).unwrap() - t.crash_probability(p)).abs() < 1e-12
        );
    }
}
