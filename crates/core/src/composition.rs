//! Quorum-system composition (Definition 4.6, Theorem 4.7).
//!
//! Composing `S` over `R` replaces every server of `S` by an independent copy of `R`;
//! a composed quorum picks a quorum of `S` and, for each of its servers, a quorum of
//! the corresponding copy of `R`. Theorem 4.7 shows the key parameters multiply:
//! `n`, `c`, `IS`, `MT` and the load are all products, and the crash probability
//! composes as `F_p(S ∘ R) = s(r(p))`.
//!
//! This is the "boosting" technique of the paper: composing a regular system over a
//! b-masking threshold turns it into a (much larger) b-masking system, which is how
//! the boostFPP construction of Section 6 is obtained.
//!
//! Two forms are provided:
//!
//! * [`ComposedSystem`] — a lazy composition of any two [`QuorumSystem`]s. Quorums are
//!   sampled and located structurally, so the composition scales to systems whose
//!   explicit quorum lists would be astronomically large.
//! * [`compose_explicit`] — materialises the composed quorum list for small systems,
//!   used by tests to verify Theorem 4.7 exactly.

use rand::RngCore;

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::eval::{FpEstimate, FpMethod};
use crate::quorum::{ExplicitQuorumSystem, QuorumSystem};

/// The composition `S ∘ R` of two quorum systems, evaluated lazily.
///
/// The universe is laid out copy-major: the `i`-th copy of `R` (for server `i` of
/// `S`) occupies global indices `[i · n_R, (i+1) · n_R)`.
#[derive(Debug, Clone)]
pub struct ComposedSystem<S, R> {
    outer: S,
    inner: R,
}

impl<S: QuorumSystem, R: QuorumSystem> ComposedSystem<S, R> {
    /// Composes `outer ∘ inner`.
    #[must_use]
    pub fn new(outer: S, inner: R) -> Self {
        ComposedSystem { outer, inner }
    }

    /// The outer system `S`.
    #[must_use]
    pub fn outer(&self) -> &S {
        &self.outer
    }

    /// The inner system `R`.
    #[must_use]
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Restricts a global alive-set to the servers of copy `copy`, re-indexed locally.
    fn restrict_to_copy(&self, alive: &ServerSet, copy: usize) -> ServerSet {
        let n_r = self.inner.universe_size();
        let base = copy * n_r;
        let mut local = ServerSet::new(n_r);
        for i in 0..n_r {
            if alive.contains(base + i) {
                local.insert(i);
            }
        }
        local
    }

    /// Lifts a local quorum of copy `copy` to global indices, unioning into `out`.
    fn lift_into(&self, copy: usize, local: &ServerSet, out: &mut ServerSet) {
        let base = copy * self.inner.universe_size();
        for i in local.iter() {
            out.insert(base + i);
        }
    }
}

impl<S: QuorumSystem, R: QuorumSystem> QuorumSystem for ComposedSystem<S, R> {
    fn universe_size(&self) -> usize {
        self.outer.universe_size() * self.inner.universe_size()
    }

    fn name(&self) -> String {
        format!("{} ∘ {}", self.outer.name(), self.inner.name())
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let outer_quorum = self.outer.sample_quorum(rng);
        let mut out = ServerSet::new(self.universe_size());
        for copy in outer_quorum.iter() {
            let local = self.inner.sample_quorum(rng);
            self.lift_into(copy, &local, &mut out);
        }
        out
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        // A copy of R is "available" if it contains a live inner quorum; the composed
        // system is available iff the available copies contain an outer quorum.
        let n_s = self.outer.universe_size();
        let mut available_copies = ServerSet::new(n_s);
        let mut live_inner: Vec<Option<ServerSet>> = vec![None; n_s];
        for (copy, slot) in live_inner.iter_mut().enumerate() {
            let local_alive = self.restrict_to_copy(alive, copy);
            if let Some(q) = self.inner.find_live_quorum(&local_alive) {
                available_copies.insert(copy);
                *slot = Some(q);
            }
        }
        let outer_quorum = self.outer.find_live_quorum(&available_copies)?;
        let mut out = ServerSet::new(self.universe_size());
        for copy in outer_quorum.iter() {
            let local = live_inner[copy]
                .as_ref()
                .expect("outer quorum only uses available copies");
            self.lift_into(copy, local, &mut out);
        }
        Some(out)
    }

    /// Theorem 4.7: the copies of `R` fail independently with probability
    /// `r(p) = F_p(R)`, and the composed system is unavailable exactly when
    /// the surviving copies contain no quorum of `S`, so
    /// `F_p(S ∘ R) = F_{r(p)}(S)`: the inner grid gives the `r` values, the
    /// outer grid runs on them. When both components answer exactly the
    /// composition does too, as a closed form — this is what makes boostFPP
    /// (FPP over a threshold) exactly evaluable at `n ≈ 1000` in
    /// microseconds. A component that declines, or only encloses, declines
    /// the composition.
    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        let exact = |estimates: Option<Vec<FpEstimate>>| -> Option<Vec<f64>> {
            estimates?
                .iter()
                .map(|est| est.is_exact().then_some(est.value))
                .collect()
        };
        let r = exact(self.inner.certified_crash_probabilities(ps))?;
        let r: Vec<f64> = r.iter().map(|r| r.clamp(0.0, 1.0)).collect();
        let s = exact(self.outer.certified_crash_probabilities(&r))?;
        Some(
            s.into_iter()
                .map(|value| FpEstimate::certain(value, FpMethod::ClosedForm))
                .collect(),
        )
    }

    fn min_quorum_size(&self) -> usize {
        self.outer.min_quorum_size() * self.inner.min_quorum_size()
    }
}

impl<S, R> crate::oracle::MinWeightQuorumOracle for ComposedSystem<S, R>
where
    S: crate::oracle::MinWeightQuorumOracle,
    R: crate::oracle::MinWeightQuorumOracle,
{
    /// Exact pricing by composition: a composed quorum chooses an outer
    /// quorum and, independently per chosen copy, an inner quorum — so the
    /// cheapest composed quorum prices every copy with the inner oracle and
    /// then runs the outer oracle over those per-copy optima. This is what
    /// gives boostFPP (FPP over a threshold) a polynomial pricing oracle at
    /// `n ≈ 1000`.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let n_r = self.inner.universe_size();
        let n_s = self.outer.universe_size();
        assert_eq!(prices.len(), n_s * n_r, "one price per composed server");
        let mut copy_prices = Vec::with_capacity(n_s);
        let mut copy_quorums = Vec::with_capacity(n_s);
        for copy in 0..n_s {
            let slice = &prices[copy * n_r..(copy + 1) * n_r];
            let (q, v) = self.inner.min_weight_quorum(slice)?;
            copy_prices.push(v);
            copy_quorums.push(q);
        }
        let (outer_quorum, total) = self.outer.min_weight_quorum(&copy_prices)?;
        let mut out = ServerSet::new(self.universe_size());
        for copy in outer_quorum.iter() {
            self.lift_into(copy, &copy_quorums[copy], &mut out);
        }
        Some((out, total))
    }

    /// The *aligned product* of the component hints: for every outer hint
    /// column `O` and inner hint column `I`, the composed column installs the
    /// same `I` in every copy selected by `O`, with weight `w_O · w_I`.
    ///
    /// Per-server load is a marginal quantity, so sharing `I` across copies
    /// changes nothing: the induced load of the product mixture factors as
    /// `P(copy chosen) · P(inner server chosen)`, and if both component hints
    /// equalise their loads the composed one does too — at `L(S)·L(R)`,
    /// which is exactly Theorem 4.7's product (here *certified*, not
    /// assumed). The family stays small: `|hint(S)| · |hint(R)|` columns.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        let (outer_q, outer_w) = self.outer.symmetric_strategy_hint()?;
        let (inner_q, inner_w) = self.inner.symmetric_strategy_hint()?;
        let mut quorums = Vec::with_capacity(outer_q.len() * inner_q.len());
        let mut weights = Vec::with_capacity(outer_q.len() * inner_q.len());
        for (o, wo) in outer_q.iter().zip(&outer_w) {
            for (i, wi) in inner_q.iter().zip(&inner_w) {
                let mut out = ServerSet::new(self.universe_size());
                for copy in o.iter() {
                    self.lift_into(copy, i, &mut out);
                }
                quorums.push(out);
                weights.push(wo * wi);
            }
        }
        Some((quorums, weights))
    }
}

/// Materialises the composed system `S ∘ R` as an explicit quorum list.
///
/// The number of composed quorums is `Σ_{S_j ∈ S} Π_{i ∈ S_j} |R|`, which explodes
/// quickly; this function is intended for the small systems used in tests and
/// examples.
///
/// # Errors
///
/// Propagates validation errors from [`ExplicitQuorumSystem::new`] (which cannot
/// occur if both inputs are valid quorum systems) and returns
/// [`QuorumError::InvalidParameters`] if the composition would exceed
/// `max_quorums` quorums.
pub fn compose_explicit(
    outer: &ExplicitQuorumSystem,
    inner: &ExplicitQuorumSystem,
    max_quorums: usize,
) -> Result<ExplicitQuorumSystem, QuorumError> {
    let n_r = inner.universe_size();
    let n = outer.universe_size() * n_r;
    // Estimate the output size first.
    let mut total: u128 = 0;
    for s in outer.quorums() {
        let mut count: u128 = 1;
        for _ in 0..s.len() {
            count = count.saturating_mul(inner.num_quorums() as u128);
            if count > max_quorums as u128 {
                return Err(QuorumError::InvalidParameters(format!(
                    "composition would exceed {max_quorums} quorums"
                )));
            }
        }
        total += count;
        if total > max_quorums as u128 {
            return Err(QuorumError::InvalidParameters(format!(
                "composition would exceed {max_quorums} quorums"
            )));
        }
    }

    let mut composed: Vec<ServerSet> = Vec::with_capacity(total as usize);
    for s in outer.quorums() {
        let copies: Vec<usize> = s.iter().collect();
        // Cartesian product over the inner quorum choice for each copy in s.
        let mut choice = vec![0usize; copies.len()];
        loop {
            let mut q = ServerSet::new(n);
            for (slot, &copy) in copies.iter().enumerate() {
                let inner_q = &inner.quorums()[choice[slot]];
                for i in inner_q.iter() {
                    q.insert(copy * n_r + i);
                }
            }
            composed.push(q);
            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == choice.len() {
                    break;
                }
                choice[pos] += 1;
                if choice[pos] < inner.num_quorums() {
                    break;
                }
                choice[pos] = 0;
                pos += 1;
            }
            if pos == choice.len() {
                break;
            }
        }
    }
    Ok(ExplicitQuorumSystem::new(n, composed)?.with_name(format!(
        "{} ∘ {}",
        outer.name(),
        inner.name()
    )))
}

/// The analytic parameter composition of Theorem 4.7, for planning compositions
/// without materialising them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComposedParameters {
    /// Universe size `n_S · n_R`.
    pub universe_size: usize,
    /// Minimal quorum size `c(S) · c(R)`.
    pub min_quorum_size: usize,
    /// Minimal intersection `IS(S) · IS(R)`.
    pub min_intersection: usize,
    /// Minimal transversal `MT(S) · MT(R)`.
    pub min_transversal: usize,
    /// Load `L(S) · L(R)`.
    pub load: f64,
}

/// Combines the parameters of two systems per Theorem 4.7.
#[must_use]
pub fn composed_parameters(
    outer: (usize, usize, usize, usize, f64),
    inner: (usize, usize, usize, usize, f64),
) -> ComposedParameters {
    ComposedParameters {
        universe_size: outer.0 * inner.0,
        min_quorum_size: outer.1 * inner.1,
        min_intersection: outer.2 * inner.2,
        min_transversal: outer.3 * inner.3,
        load: outer.4 * inner.4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::optimal_load;
    use crate::measures::{min_intersection_size, min_quorum_size};
    use crate::transversal::min_transversal_size;
    use bqs_combinatorics::subsets::KSubsets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k_of_n_system(n: usize, k: usize) -> ExplicitQuorumSystem {
        let quorums: Vec<ServerSet> = KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect();
        ExplicitQuorumSystem::new(n, quorums)
            .unwrap()
            .with_name(format!("{k}-of-{n}"))
    }

    #[test]
    fn theorem_4_7_parameters_multiply() {
        // Compose 2-of-3 over 2-of-3 and verify every combinatorial parameter.
        let s = k_of_n_system(3, 2);
        let r = k_of_n_system(3, 2);
        let composed = compose_explicit(&s, &r, 100_000).unwrap();
        assert_eq!(composed.universe_size(), 9);
        assert_eq!(min_quorum_size(composed.quorums()), 4);
        assert_eq!(min_intersection_size(composed.quorums()), 1);
        assert_eq!(min_transversal_size(composed.quorums(), 9), 4);
        // Load multiplies: L(2-of-3) = 2/3, so composed load = 4/9.
        let (load, _) = optimal_load(composed.quorums(), 9).unwrap();
        assert!((load - 4.0 / 9.0).abs() < 1e-6, "load={load}");
    }

    #[test]
    fn composed_quorum_count_is_product_structure() {
        // 2-of-3 over 2-of-3: each outer quorum (3 of them) picks an inner quorum for
        // each of its 2 copies (3 choices each) -> 3 * 9 = 27 composed quorums.
        let s = k_of_n_system(3, 2);
        let r = k_of_n_system(3, 2);
        let composed = compose_explicit(&s, &r, 100_000).unwrap();
        assert_eq!(composed.num_quorums(), 27);
    }

    #[test]
    fn lazy_and_explicit_compositions_agree_on_availability() {
        let s = k_of_n_system(3, 2);
        let r = k_of_n_system(3, 2);
        let explicit = compose_explicit(&s, &r, 100_000).unwrap();
        let lazy = ComposedSystem::new(s, r);
        assert_eq!(lazy.universe_size(), 9);
        assert_eq!(lazy.min_quorum_size(), 4);
        // Exhaustively compare availability over all 2^9 failure configurations.
        for mask in 0u32..512 {
            let alive = ServerSet::from_indices(9, (0..9).filter(|i| mask & (1 << i) != 0));
            let a = explicit.is_available(&alive);
            let b = lazy.is_available(&alive);
            assert_eq!(a, b, "mask={mask:b}");
            if let Some(q) = lazy.find_live_quorum(&alive) {
                assert!(q.is_subset_of(&alive));
            }
        }
    }

    #[test]
    fn sampled_composed_quorums_are_valid() {
        let s = k_of_n_system(4, 3);
        let r = k_of_n_system(3, 2);
        let lazy = ComposedSystem::new(s, r);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let q = lazy.sample_quorum(&mut rng);
            // Quorum size: 3 copies * 2 servers each.
            assert_eq!(q.len(), 6);
            // Every sampled quorum must be found live under full aliveness.
            assert!(lazy.is_available(&ServerSet::full(12)));
            assert!(q.is_subset_of(&ServerSet::full(12)));
        }
        assert_eq!(lazy.name(), "3-of-4 ∘ 2-of-3");
    }

    #[test]
    fn composition_size_guard() {
        let s = k_of_n_system(5, 3);
        let r = k_of_n_system(5, 3);
        assert!(matches!(
            compose_explicit(&s, &r, 100),
            Err(QuorumError::InvalidParameters(_))
        ));
    }

    #[test]
    fn analytic_parameters_helper() {
        // boostFPP-style: FPP(q=2) has (7, 3, 1, 3, 3/7); Thresh(4-of-5) has
        // (5, 4, 3, 2, 4/5).
        let p = composed_parameters((7, 3, 1, 3, 3.0 / 7.0), (5, 4, 3, 2, 0.8));
        assert_eq!(p.universe_size, 35);
        assert_eq!(p.min_quorum_size, 12);
        assert_eq!(p.min_intersection, 3);
        assert_eq!(p.min_transversal, 6);
        assert!((p.load - 12.0 / 35.0).abs() < 1e-12);
    }

    /// A threshold-like test double with a closed form (majority-of-3).
    struct ClosedMajority3;
    impl QuorumSystem for ClosedMajority3 {
        fn universe_size(&self) -> usize {
            3
        }
        fn name(&self) -> String {
            "2-of-3-closed".into()
        }
        fn sample_quorum(&self, _rng: &mut dyn RngCore) -> ServerSet {
            ServerSet::from_indices(3, [0, 1])
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            if alive.len() >= 2 {
                Some(ServerSet::from_indices(3, alive.iter().take(2)))
            } else {
                None
            }
        }
        fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
            // Fails iff >= 2 of 3 crash.
            let fp = |p: f64| 3.0 * p * p * (1.0 - p) + p * p * p;
            Some(
                ps.iter()
                    .map(|&p| FpEstimate::certain(fp(p), FpMethod::ClosedForm))
                    .collect(),
            )
        }
        fn min_quorum_size(&self) -> usize {
            2
        }
    }

    #[test]
    fn composed_closed_form_matches_enumeration() {
        // F_p(S∘R) = s(r(p)) in closed form, validated against exact
        // enumeration of the materialised 9-server composition.
        use crate::availability::exact_crash_probability;
        let explicit = compose_explicit(&k_of_n_system(3, 2), &k_of_n_system(3, 2), 1000).unwrap();
        let lazy = ComposedSystem::new(ClosedMajority3, ClosedMajority3);
        let ps = [0.0, 0.1, 0.3, 0.5, 0.9, 1.0];
        let closed = lazy.certified_crash_probabilities(&ps).unwrap();
        for (&p, est) in ps.iter().zip(&closed) {
            assert_eq!(est.method, FpMethod::ClosedForm);
            let closed = est.value;
            let direct = exact_crash_probability(&explicit, p).unwrap();
            assert!(
                (closed - direct).abs() < 1e-12,
                "p={p}: closed {closed} vs enumerated {direct}"
            );
        }
    }

    #[test]
    fn composed_oracle_prices_by_composition() {
        use crate::oracle::MinWeightQuorumOracle;
        // 2-of-3 over 2-of-3 with hand-picked prices: the composed oracle's
        // answer must match a brute-force scan of the materialised system.
        let s = k_of_n_system(3, 2);
        let r = k_of_n_system(3, 2);
        let explicit = compose_explicit(&s, &r, 100_000).unwrap();
        let lazy = ComposedSystem::new(k_of_n_system(3, 2), k_of_n_system(3, 2));
        let prices: Vec<f64> = (0..9).map(|i| ((i * 7 + 3) % 11) as f64 / 11.0).collect();
        let (q, v) = lazy.min_weight_quorum(&prices).unwrap();
        let (_, v_ref) = explicit.min_weight_quorum(&prices).unwrap();
        assert!((v - v_ref).abs() < 1e-12, "composed {v} vs scan {v_ref}");
        let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
        assert!((recomputed - v).abs() < 1e-12);
        // And the certified load engine agrees with the explicit LP (4/9).
        let certified = crate::load::optimal_load_oracle(&lazy).unwrap();
        assert!((certified.load - 4.0 / 9.0).abs() <= 1e-9);
        assert!(certified.gap <= 1e-9);
    }

    #[test]
    fn composed_closed_form_requires_both_components() {
        // Explicit systems expose no closed form, so neither does the
        // composition built from them.
        let lazy = ComposedSystem::new(k_of_n_system(3, 2), k_of_n_system(3, 2));
        assert!(lazy.certified_crash_probabilities(&[0.2]).is_none());
        let half = ComposedSystem::new(ClosedMajority3, k_of_n_system(3, 2));
        assert!(half.certified_crash_probabilities(&[0.2]).is_none());
    }

    #[test]
    fn composed_crash_probability_composes() {
        // Fp(S∘R) = s(r(p)) — verify by exact enumeration on 2-of-3 over 2-of-3.
        use crate::availability::exact_crash_probability;
        let s = k_of_n_system(3, 2);
        let r = k_of_n_system(3, 2);
        let composed = compose_explicit(&s, &r, 100_000).unwrap();
        for &p in &[0.1, 0.3, 0.5] {
            let r_p = exact_crash_probability(&r, p).unwrap();
            let s_of_r = exact_crash_probability(&s, r_p).unwrap();
            let direct = exact_crash_probability(&composed, p).unwrap();
            assert!(
                (s_of_r - direct).abs() < 1e-9,
                "p={p}: {s_of_r} vs {direct}"
            );
        }
    }
}
