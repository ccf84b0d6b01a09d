//! Recursive threshold systems RT(k, ℓ) (Section 5.2 of the paper).
//!
//! An RT(k, ℓ) system of depth `h` recursively composes the `ℓ-of-k` threshold
//! system over itself: the `n = k^h` servers are the leaves of a complete `k`-ary
//! tree of depth `h`, and a quorum picks `ℓ` children of the root and recurses into
//! each (Figure 2 of the paper shows RT(4, 3) of depth 2). By Theorem 4.7 the
//! parameters exponentiate (Proposition 5.3):
//! `c = ℓ^h`, `IS = (2ℓ−k)^h`, `MT = (k−ℓ+1)^h`, `L = (ℓ/k)^h`,
//! so the system is b-masking for
//! `b = min{(n^{log_k(2ℓ−k)} − 1)/2, n^{log_k(k−ℓ+1)} − 1}` (Corollary 5.4).
//! Its crash probability obeys the recurrence `F(h) = g(F(h−1))` with
//! `g` the ℓ-of-k failure polynomial, giving a critical probability `p_c < 1/2`
//! (Proposition 5.6) and exponentially small `F_p` for `p < 1/C(k, ℓ−1)`
//! (Proposition 5.7).

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::eval::{FpEstimate, FpMethod};
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::AnalyzedConstruction;

/// A recursive threshold system RT(k, ℓ) of depth `h` over `k^h` servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtSystem {
    k: usize,
    l: usize,
    depth: u32,
}

impl RtSystem {
    /// Creates RT(k, ℓ) of the given depth.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless `k > ℓ > k/2` and
    /// `depth >= 1` and `k^depth` fits comfortably in memory (≤ 2^24 leaves).
    pub fn new(k: usize, l: usize, depth: u32) -> Result<Self, QuorumError> {
        if !(l < k && 2 * l > k) {
            return Err(QuorumError::InvalidParameters(format!(
                "RT(k, l) requires k > l > k/2 (got k={k}, l={l})"
            )));
        }
        if depth == 0 {
            return Err(QuorumError::InvalidParameters(
                "RT depth must be at least 1".into(),
            ));
        }
        let n = (k as u128).pow(depth);
        if n > (1 << 24) {
            return Err(QuorumError::InvalidParameters(format!(
                "RT universe k^h = {n} is too large"
            )));
        }
        Ok(RtSystem { k, l, depth })
    }

    /// The branching factor `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-node threshold `ℓ`.
    #[must_use]
    pub fn l(&self) -> usize {
        self.l
    }

    /// The recursion depth `h`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Minimal intersection size `IS = (2ℓ − k)^h` (Proposition 5.3).
    #[must_use]
    pub fn min_intersection(&self) -> usize {
        (2 * self.l - self.k).pow(self.depth)
    }

    /// Minimal transversal size `MT = (k − ℓ + 1)^h` (Proposition 5.3).
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        (self.k - self.l + 1).pow(self.depth)
    }

    /// The failure polynomial `g(p)` of the ℓ-of-k building block: the probability
    /// that at least `k − ℓ + 1` of `k` servers crash.
    #[must_use]
    pub(crate) fn building_block_failure(&self, p: f64) -> f64 {
        bqs_combinatorics::binomial::binomial_tail(self.k as u64, (self.k - self.l + 1) as u64, p)
    }

    /// The exact crash probability via the recurrence (4) of the paper:
    /// `F(0) = p`, `F(h) = g(F(h − 1))`.
    #[must_use]
    pub fn crash_probability(&self, p: f64) -> f64 {
        let mut f = p.clamp(0.0, 1.0);
        for _ in 0..self.depth {
            f = self.building_block_failure(f);
        }
        f
    }

    /// The critical probability `p_c` of Proposition 5.6: the unique fixed point of
    /// `g(p) = p` in `(0, 1)`, computed by bisection. Below `p_c`, `F_p → 0` as the
    /// depth grows; above it, `F_p → 1`.
    #[must_use]
    pub fn critical_probability(&self) -> f64 {
        // g(p) - p is negative just above 0 and positive just below 1.
        let g = |p: f64| self.building_block_failure(p) - p;
        let mut lo = 1e-9;
        let mut hi = 1.0 - 1e-9;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if g(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// The upper bound of Proposition 5.7:
    /// `F_p ≤ (C(k, ℓ−1) · p)^{(k−ℓ+1)^h}` when `p < 1/C(k, ℓ−1)`.
    /// Returns `None` when the precondition fails.
    #[must_use]
    pub fn crash_probability_prop_5_7_bound(&self, p: f64) -> Option<f64> {
        let c = bqs_combinatorics::binomial::binomial_f64(self.k as u64, (self.l - 1) as u64);
        if p >= 1.0 / c {
            return None;
        }
        Some((c * p).powf(self.min_transversal() as f64).min(1.0))
    }

    /// Materialises every quorum. The number of quorums is
    /// `C(k, ℓ)^{(k^h − 1)/(k − 1)}`, so this is only feasible for shallow systems.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if the count exceeds `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        let per_node = bqs_combinatorics::binomial::binomial(self.k as u64, self.l as u64);
        // number of internal nodes = (k^h - 1) / (k - 1)
        let internal = ((self.k as u128).pow(self.depth) - 1) / (self.k as u128 - 1);
        let mut count: u128 = 1;
        for _ in 0..internal {
            count = count.saturating_mul(per_node);
            if count > max_quorums as u128 {
                return Err(QuorumError::InvalidParameters(format!(
                    "RT explicit enumeration exceeds the cap of {max_quorums}"
                )));
            }
        }
        let n = self.universe_size();
        let leaf_sets = self.enumerate_quorums(0, n);
        let quorums: Vec<ServerSet> = leaf_sets
            .into_iter()
            .map(|leaves| ServerSet::from_indices(n, leaves))
            .collect();
        Ok(ExplicitQuorumSystem::new(n, quorums)?.with_name(self.name()))
    }

    /// Recursively enumerates the leaf sets of all quorums of the subtree covering
    /// `[start, start + span)`.
    fn enumerate_quorums(&self, start: usize, span: usize) -> Vec<Vec<usize>> {
        if span == 1 {
            return vec![vec![start]];
        }
        let child_span = span / self.k;
        // For every choice of l children, combine every mix of their quorums.
        let mut result = Vec::new();
        for children in bqs_combinatorics::subsets::KSubsets::new(self.k, self.l) {
            let child_quorums: Vec<Vec<Vec<usize>>> = children
                .iter()
                .map(|&c| self.enumerate_quorums(start + c * child_span, child_span))
                .collect();
            let mut partial: Vec<Vec<usize>> = vec![Vec::new()];
            for cq in &child_quorums {
                let mut next = Vec::with_capacity(partial.len() * cq.len());
                for base in &partial {
                    for q in cq {
                        let mut merged = base.clone();
                        merged.extend_from_slice(q);
                        next.push(merged);
                    }
                }
                partial = next;
            }
            result.extend(partial);
        }
        result
    }

    /// Recursive pricing: the cheapest quorum of a subtree takes the `ℓ`
    /// cheapest children by their own recursive optima (ties to the left).
    fn min_price_rec(
        &self,
        start: usize,
        span: usize,
        prices: &[f64],
        out: &mut Vec<usize>,
    ) -> f64 {
        if span == 1 {
            out.push(start);
            return prices[start];
        }
        let child_span = span / self.k;
        let mut child_best: Vec<(f64, usize, Vec<usize>)> = (0..self.k)
            .map(|c| {
                let mut leaves = Vec::new();
                let v = self.min_price_rec(start + c * child_span, child_span, prices, &mut leaves);
                (v, c, leaves)
            })
            .collect();
        child_best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut total = 0.0;
        for (v, _, leaves) in child_best.into_iter().take(self.l) {
            total += v;
            out.extend(leaves);
        }
        total
    }

    fn sample_rec(&self, start: usize, span: usize, rng: &mut dyn RngCore, out: &mut ServerSet) {
        if span == 1 {
            out.insert(start);
            return;
        }
        let child_span = span / self.k;
        let children = rand::seq::index::sample(rng, self.k, self.l);
        for c in children.iter() {
            self.sample_rec(start + c * child_span, child_span, rng, out);
        }
    }

    fn find_rec(&self, start: usize, span: usize, alive: &ServerSet) -> Option<ServerSet> {
        if span == 1 {
            return if alive.contains(start) {
                Some(ServerSet::from_indices(self.universe_size(), [start]))
            } else {
                None
            };
        }
        let child_span = span / self.k;
        let mut found = Vec::new();
        for c in 0..self.k {
            if let Some(q) = self.find_rec(start + c * child_span, child_span, alive) {
                found.push(q);
                if found.len() == self.l {
                    break;
                }
            }
        }
        if found.len() < self.l {
            return None;
        }
        let mut out = ServerSet::new(self.universe_size());
        for q in found {
            out = out.union(&q);
        }
        Some(out)
    }
}

impl QuorumSystem for RtSystem {
    fn universe_size(&self) -> usize {
        (self.k as u64).pow(self.depth) as usize
    }

    fn name(&self) -> String {
        format!("RT({}, {}) depth {}", self.k, self.l, self.depth)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let mut out = ServerSet::new(self.universe_size());
        self.sample_rec(0, self.universe_size(), rng, &mut out);
        out
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.find_rec(0, self.universe_size(), alive)
    }

    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        // The recurrence of Proposition 5.6 is exact: sibling subtrees fail
        // independently, so F(h) = g(F(h-1)) with g the ℓ-of-k failure
        // polynomial (validated against enumeration in this module's tests).
        Some(
            ps.iter()
                .map(|&p| FpEstimate::certain(self.crash_probability(p), FpMethod::ClosedForm))
                .collect(),
        )
    }

    fn min_quorum_size(&self) -> usize {
        self.l.pow(self.depth)
    }
}

impl MinWeightQuorumOracle for RtSystem {
    /// Exact pricing by tree recursion (`O(n log k)`): the recursive
    /// structure that makes RT's quorum list exponential is exactly what
    /// makes its pricing problem trivial.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let n = self.universe_size();
        assert_eq!(prices.len(), n, "one price per server required");
        let mut leaves = Vec::with_capacity(self.min_quorum_size());
        let price = self.min_price_rec(0, n, prices, &mut leaves);
        Some((ServerSet::from_indices(n, leaves), price))
    }

    /// The depth-aligned product family: a column per choice of one
    /// `ℓ`-of-`k` child subset *per level* (the same subset at every node of
    /// that level), `C(k, ℓ)^h` columns in total. Each leaf survives a
    /// column iff its child index at every level belongs to that level's
    /// subset, so every leaf is covered exactly `C(k−1, ℓ−1)^h` times and
    /// the uniform mixture equalises loads at `(ℓ/k)^h` — Proposition 5.5's
    /// value, certified by the engine rather than assumed.
    ///
    /// Declines (falls back to column generation) when the family would
    /// exceed 65 536 columns.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        let per_level = bqs_combinatorics::binomial::binomial(self.k as u64, self.l as u64);
        if per_level.checked_pow(self.depth)? > 65_536 {
            return None;
        }
        let subsets: Vec<Vec<usize>> =
            bqs_combinatorics::subsets::KSubsets::new(self.k, self.l).collect();
        let n = self.universe_size();
        // Mixed-radix counter over one subset choice per level.
        let h = self.depth as usize;
        let mut choice = vec![0usize; h];
        let mut quorums = Vec::new();
        // The column's subtree starts, expanded a level at a time in place:
        // start `s` of a node at one level becomes `s + c · span` for each
        // child `c` of the level's subset. Writing back to front never
        // overwrites a start that is still to be read.
        let mut starts = Vec::with_capacity(self.min_quorum_size());
        loop {
            starts.clear();
            starts.push(0);
            let mut span = n;
            for &chosen in &choice {
                span /= self.k;
                let subset = &subsets[chosen];
                let parents = starts.len();
                starts.resize(parents * self.l, 0);
                for p in (0..parents).rev() {
                    let start = starts[p];
                    for (slot, &c) in subset.iter().enumerate() {
                        starts[p * self.l + slot] = start + c * span;
                    }
                }
            }
            quorums.push(ServerSet::from_indices(n, starts.iter().copied()));
            let mut pos = 0;
            while pos < h {
                choice[pos] += 1;
                if choice[pos] < subsets.len() {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
            if pos == h {
                break;
            }
        }
        let weights = vec![1.0; quorums.len()];
        Some((quorums, weights))
    }
}

impl AnalyzedConstruction for RtSystem {
    fn masking_b(&self) -> usize {
        let is = self.min_intersection();
        let mt = self.min_transversal();
        ((is.saturating_sub(1)) / 2).min(mt.saturating_sub(1))
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // Fair system (Proposition 5.5): L = (l/k)^h = n^{-(1 - log_k l)}.
        (self.l as f64 / self.k as f64).powi(self.depth as i32)
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
    fn parameter_validation() {
        assert!(RtSystem::new(4, 3, 2).is_ok());
        assert!(RtSystem::new(4, 2, 2).is_err()); // 2l = k: not > k/2
        assert!(RtSystem::new(4, 4, 2).is_err());
        assert!(RtSystem::new(3, 2, 0).is_err());
        assert!(RtSystem::new(2, 2, 3).is_err());
    }

    #[test]
    fn figure_2_instance_parameters() {
        // RT(4, 3) of depth 2: n = 16, c = 9, IS = MT = 4, b = 1 by Corollary 5.4...
        // (IS - 1)/2 = 1, MT - 1 = 3 -> b = 1.
        let rt = RtSystem::new(4, 3, 2).unwrap();
        assert_eq!(rt.universe_size(), 16);
        assert_eq!(rt.min_quorum_size(), 9);
        assert_eq!(rt.min_intersection(), 4);
        assert_eq!(rt.min_transversal(), 4);
        assert_eq!(rt.masking_b(), 1);
        assert_eq!(AnalyzedConstruction::resilience(&rt), 3);
        assert!((rt.analytic_load() - 9.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_depth2_matches_analytic() {
        let rt = RtSystem::new(4, 3, 2).unwrap();
        let e = rt.to_explicit(100_000).unwrap();
        // 4 choose 3 = 4 options per node; 5 internal nodes in a (4,3) depth-2 tree
        // contribute 4 (root) * 4^3 (chosen children) = 256 quorums.
        assert_eq!(e.num_quorums(), 256);
        assert_eq!(min_quorum_size(e.quorums()), 9);
        assert_eq!(min_intersection_size(e.quorums()), 4);
        assert_eq!(min_transversal_size(e.quorums(), 16), 4);
        assert_eq!(masking_level(e.quorums(), 16), Some(1));
        let (load, _) = optimal_load(e.quorums(), 16).unwrap();
        assert!((load - rt.analytic_load()).abs() < 1e-6);
    }

    #[test]
    fn rt33_depth2_explicit() {
        // RT(3,2) depth 2 over 9 servers: c = 4, IS = 1, MT = 4 -> regular system.
        let rt = RtSystem::new(3, 2, 2).unwrap();
        let e = rt.to_explicit(10_000).unwrap();
        assert_eq!(e.universe_size(), 9);
        assert_eq!(min_quorum_size(e.quorums()), 4);
        assert_eq!(min_intersection_size(e.quorums()), 1);
        assert_eq!(rt.masking_b(), 0);
    }

    #[test]
    fn rt_4_3_polynomial_and_critical_probability() {
        // The paper: g(p) = 6p^2 - 8p^3 + 3p^4 and p_c = 0.2324.
        let rt = RtSystem::new(4, 3, 1).unwrap();
        for &p in &[0.05, 0.1, 0.2, 0.3, 0.5] {
            let g = rt.building_block_failure(p);
            let poly = 6.0 * p.powi(2) - 8.0 * p.powi(3) + 3.0 * p.powi(4);
            assert!((g - poly).abs() < 1e-12, "p={p}");
        }
        let pc = rt.critical_probability();
        assert!((pc - 0.2324).abs() < 5e-4, "pc={pc}");
        assert!(pc < 0.5);
    }

    #[test]
    fn crash_probability_decays_below_pc_and_grows_above() {
        let shallow = RtSystem::new(4, 3, 2).unwrap();
        let deep = RtSystem::new(4, 3, 5).unwrap();
        // Below p_c = 0.2324 the failure probability decays with depth.
        assert!(deep.crash_probability(0.1) < shallow.crash_probability(0.1));
        // Above p_c it grows towards 1.
        assert!(deep.crash_probability(0.4) > shallow.crash_probability(0.4));
        assert!(deep.crash_probability(0.4) > 0.9);
    }

    #[test]
    fn proposition_5_7_bound_dominates_exact() {
        let rt = RtSystem::new(4, 3, 3).unwrap();
        for &p in &[0.01, 0.05, 0.1, 0.15] {
            let exact = rt.crash_probability(p);
            let bound = rt.crash_probability_prop_5_7_bound(p).unwrap();
            assert!(exact <= bound + 1e-12, "p={p} exact={exact} bound={bound}");
        }
        // Precondition p < 1/C(4,2) = 1/6.
        assert!(rt.crash_probability_prop_5_7_bound(0.2).is_none());
    }

    #[test]
    fn crash_probability_matches_exact_enumeration() {
        // Depth-2 RT(3,2) has 9 servers: exact enumeration is feasible.
        let rt = RtSystem::new(3, 2, 2).unwrap();
        for &p in &[0.1, 0.3, 0.5] {
            let exact = Evaluator::new().exact(&rt, p).unwrap();
            let recurrence = rt.crash_probability(p);
            assert!(
                (exact - recurrence).abs() < 1e-9,
                "p={p}: {exact} vs {recurrence}"
            );
        }
    }

    #[test]
    fn sampling_and_availability() {
        let rt = RtSystem::new(4, 3, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..30 {
            let q = rt.sample_quorum(&mut rng);
            assert_eq!(q.len(), 9);
        }
        assert!(rt.is_available(&ServerSet::full(16)));
        // Kill two leaves in each of 2 different children-of-root: still available.
        let mut alive = ServerSet::full(16);
        alive.remove(0);
        alive.remove(1);
        assert!(!rt
            .find_live_quorum(&alive)
            .map(|q| q.contains(0) || q.contains(1))
            .unwrap_or(true));
        // Killing 2 leaves in every child of the root makes every child unavailable.
        let mut dead = ServerSet::full(16);
        for c in 0..4 {
            dead.remove(c * 4);
            dead.remove(c * 4 + 1);
        }
        assert!(!rt.is_available(&dead));
    }

    #[test]
    fn pricing_oracle_matches_explicit_scan() {
        let rt = RtSystem::new(4, 3, 2).unwrap();
        let e = rt.to_explicit(100_000).unwrap();
        for seed in 0..4u64 {
            let prices: Vec<f64> = (0..16)
                .map(|i| ((i as u64 * 23 + seed * 5 + 1) % 19) as f64 / 19.0)
                .collect();
            let (q, v) = rt.min_weight_quorum(&prices).unwrap();
            let (_, v_ref) = e.min_weight_quorum(&prices).unwrap();
            assert!((v - v_ref).abs() < 1e-12, "seed={seed}: {v} vs {v_ref}");
            let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
            assert!((recomputed - v).abs() < 1e-12);
        }
    }

    #[test]
    fn certified_load_matches_proposition_5_5_at_scale() {
        // RT(4, 3) depth 5 (n = 1024, the Section 8 instance): certified LP
        // load equals (3/4)^5.
        let rt = RtSystem::new(4, 3, 5).unwrap();
        let certified = optimal_load_oracle(&rt).unwrap();
        assert!(
            (certified.load - rt.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            rt.analytic_load()
        );
        assert!(certified.gap <= 1e-9, "gap={}", certified.gap);
    }

    #[test]
    fn section8_rt_instance() {
        // Section 8: RT(4,3) depth 5, n = 1024, b = 15, f = 31, Fp <= 0.0001 at p=1/8.
        let rt = RtSystem::new(4, 3, 5).unwrap();
        assert_eq!(rt.universe_size(), 1024);
        assert_eq!(rt.masking_b(), 15);
        assert_eq!(AnalyzedConstruction::resilience(&rt), 31);
        let fp = rt.crash_probability(0.125);
        assert!(fp <= 1e-4, "fp={fp}");
        // Load n^{-(1 - log_4 3)} = (3/4)^5.
        assert!((rt.analytic_load() - 0.75f64.powi(5)).abs() < 1e-12);
    }
}
