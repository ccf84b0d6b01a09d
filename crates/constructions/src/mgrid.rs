//! The M-Grid construction (Section 5.1 of the paper).
//!
//! Servers form a `√n × √n` grid; a quorum is the union of `√(b+1)` rows and
//! `√(b+1)` columns (Figure 1 of the paper shows a 7×7 instance with `b = 3`).
//! Two quorums that share no line intersect in at least `2(b+1) > 2b` servers (each
//! quorum's rows cross the other's columns), and quorums sharing a line intersect in
//! at least `√n ≥ 2b+1` servers, so the system is b-masking for
//! `b ≤ (√n − 1)/2` (Proposition 5.1). It is fair, so its load is
//! `c(Q)/n ≈ 2√((b+1)/n)` (Proposition 5.2) — **optimal** to within a factor `√2`.
//! Its weakness is availability: one crash per row kills every quorum, so
//! `F_p → 1` as `n → ∞` (the closed-form lower bound of [KC91, Woo96]).

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::square::{min_price_rows_and_columns, SquareGrid};
use crate::AnalyzedConstruction;

/// Subset-enumeration budget for the exact M-Grid pricing oracle: the oracle
/// enumerates `C(side, ⌈√(b+1)⌉)` line sets per call, which covers every
/// Section 8-scale instance (`C(32, 4) ≈ 3.6·10⁴`) with room to spare.
/// Degenerate parameterisations past the budget no longer decline outright:
/// they fall through to an exact branch-and-bound pricer with the same
/// budget counted in search nodes, which declines only when *it* cannot
/// prove optimality in budget (see
/// [`crate::square::min_price_rows_and_columns`]).
pub const ORACLE_SUBSET_BUDGET: u128 = 2_000_000;

/// The M-Grid(b) quorum system over a `side × side` universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MGridSystem {
    grid: SquareGrid,
    b: usize,
    /// Number of rows (= number of columns) per quorum, `⌈√(b+1)⌉`.
    lines: usize,
}

impl MGridSystem {
    /// Creates M-Grid(b) on a `side × side` grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless:
    /// * `⌈√(b+1)⌉ ≤ side` (quorums fit in the grid),
    /// * `2b + 1 ≤ side` (quorums sharing a line still intersect in `2b+1` servers,
    ///   Proposition 5.1's requirement `b ≤ (√n−1)/2`),
    /// * the resilience `side − ⌈√(b+1)⌉` is at least `b`.
    pub fn new(side: usize, b: usize) -> Result<Self, QuorumError> {
        let grid = SquareGrid::new(side)?;
        let lines = integer_sqrt_ceil(b + 1);
        if lines > side {
            return Err(QuorumError::InvalidParameters(format!(
                "M-Grid(b={b}) needs ceil(sqrt(b+1)) = {lines} <= side = {side}"
            )));
        }
        if 2 * b + 1 > side {
            return Err(QuorumError::InvalidParameters(format!(
                "M-Grid requires b <= (side-1)/2 (got b={b}, side={side})"
            )));
        }
        if side - lines < b {
            return Err(QuorumError::InvalidParameters(format!(
                "M-Grid(b={b}) resilience {} is below b",
                side - lines
            )));
        }
        Ok(MGridSystem { grid, b, lines })
    }

    /// Creates M-Grid(b) for a universe of `n` servers (`n` a perfect square).
    ///
    /// # Errors
    ///
    /// Same as [`MGridSystem::new`], plus the perfect-square requirement.
    pub fn for_universe(n: usize, b: usize) -> Result<Self, QuorumError> {
        let grid = SquareGrid::for_universe(n)?;
        MGridSystem::new(grid.side(), b)
    }

    /// The largest `b` supported on a `side × side` grid, `(side − 1) / 2`
    /// (Proposition 5.1).
    #[must_use]
    pub fn max_b(side: usize) -> usize {
        (side.saturating_sub(1)) / 2
    }

    /// The masking parameter `b`.
    #[must_use]
    pub fn b(&self) -> usize {
        self.b
    }

    /// The grid side `√n`.
    #[must_use]
    pub fn side(&self) -> usize {
        self.grid.side()
    }

    /// Rows (and columns) per quorum, `⌈√(b+1)⌉`.
    #[must_use]
    pub fn lines_per_quorum(&self) -> usize {
        self.lines
    }

    /// Minimal transversal size `MT = side − ⌈√(b+1)⌉ + 1`.
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        self.grid.side() - self.lines + 1
    }

    /// The closed-form crash-probability lower bound of [KC91, Woo96]:
    /// `F_p ≥ (1 − (1−p)^√n)^√n` (one crash per row disables every quorum).
    #[must_use]
    pub fn crash_probability_kc_bound(&self, p: f64) -> f64 {
        let side = self.grid.side() as f64;
        (1.0 - (1.0 - p).powf(side)).powf(side)
    }

    /// Exact crash probability in closed form: the system is available iff at
    /// least `⌈√(b+1)⌉` rows *and* as many columns are fully alive, whose
    /// joint probability [`crate::square::rows_and_columns_alive_probability`]
    /// computes by inclusion–exclusion — no enumeration, any `n`. Sharpens the
    /// paper's [KC91, Woo96] lower bound into the exact value.
    #[must_use]
    pub fn crash_probability(&self, p: f64) -> f64 {
        1.0 - crate::square::rows_and_columns_alive_probability(
            self.grid.side(),
            self.lines,
            self.lines,
            p,
        )
    }

    /// Materialises all `C(side, lines)²` quorums.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if the count exceeds `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        let side = self.grid.side();
        let per_axis = bqs_combinatorics::binomial::binomial(side as u64, self.lines as u64);
        let count = per_axis.saturating_mul(per_axis);
        if count > max_quorums as u128 {
            return Err(QuorumError::InvalidParameters(format!(
                "{count} quorums exceed the cap of {max_quorums}"
            )));
        }
        let mut quorums = Vec::new();
        let row_choices: Vec<Vec<usize>> =
            bqs_combinatorics::subsets::KSubsets::new(side, self.lines).collect();
        for rows in &row_choices {
            for cols in &row_choices {
                quorums.push(self.grid.union_of(rows, cols));
            }
        }
        Ok(ExplicitQuorumSystem::new(self.grid.universe_size(), quorums)?.with_name(self.name()))
    }
}

/// `⌈√x⌉` for small integers.
fn integer_sqrt_ceil(x: usize) -> usize {
    let mut r = (x as f64).sqrt() as usize;
    while r * r < x {
        r += 1;
    }
    while r > 0 && (r - 1) * (r - 1) >= x {
        r -= 1;
    }
    r
}

impl QuorumSystem for MGridSystem {
    fn universe_size(&self) -> usize {
        self.grid.universe_size()
    }

    fn name(&self) -> String {
        format!("M-Grid(n={}, b={})", self.grid.universe_size(), self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let side = self.grid.side();
        let rows: Vec<usize> = rand::seq::index::sample(rng, side, self.lines).into_vec();
        let cols: Vec<usize> = rand::seq::index::sample(rng, side, self.lines).into_vec();
        self.grid.union_of(&rows, &cols)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        let rows = self.grid.fully_alive_rows(alive);
        if rows.len() < self.lines {
            return None;
        }
        let cols = self.grid.fully_alive_columns(alive);
        if cols.len() < self.lines {
            return None;
        }
        Some(self.grid.union_of(&rows[..self.lines], &cols[..self.lines]))
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        // Allocation-free: only the counts of fully alive lines matter.
        self.grid.fully_alive_row_count(alive) >= self.lines
            && self.grid.fully_alive_column_count(alive) >= self.lines
    }

    #[inline]
    fn is_available_u64(&self, alive: u64, _scratch: &mut ServerSet) -> bool {
        self.grid.fully_alive_row_count_u64(alive) >= self.lines
            && self.grid.fully_alive_column_count_u64(alive) >= self.lines
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) -> bool {
        // Exact-enumeration fast path — see `GridSystem::unavailable_profile_u64_range`.
        self.grid
            .line_count_tables()
            .unavailable_profile_range(self.lines, self.lines, start, end, profile);
        true
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        Some(self.crash_probability(p))
    }

    fn min_quorum_size(&self) -> usize {
        // `lines` rows and `lines` columns overlap in lines² cells.
        2 * self.lines * self.grid.side() - self.lines * self.lines
    }
}

impl MinWeightQuorumOracle for MGridSystem {
    /// Exact pricing of the cheapest `⌈√(b+1)⌉` rows × `⌈√(b+1)⌉` columns
    /// union: one axis is enumerated (within [`ORACLE_SUBSET_BUDGET`]), the
    /// other selected greedily per candidate — optimal because row
    /// contributions are independent once the columns are fixed (see
    /// [`min_price_rows_and_columns`]).
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let (rows, cols, price) = min_price_rows_and_columns(
            self.grid.side(),
            prices,
            self.lines,
            self.lines,
            ORACLE_SUBSET_BUDGET,
        )?;
        Some((self.grid.union_of(&rows, &cols), price))
    }

    /// All cyclic row-window × column-window pairs
    /// ([`crate::square::balanced_line_family`]): a perfectly balanced
    /// `side²`-quorum family whose uniform mixture achieves `c(Q)/n` exactly.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some(crate::square::balanced_line_strategy(
            self.grid.side(),
            self.lines,
            self.lines,
            |rows, cols| self.grid.union_of(rows, cols),
        ))
    }
}

impl AnalyzedConstruction for MGridSystem {
    fn masking_b(&self) -> usize {
        self.b
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // Fair system (Proposition 5.2): L = c / n ≈ 2 sqrt((b+1)/n).
        self.min_quorum_size() as f64 / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, _p: f64) -> Option<f64> {
        None // the M-Grid's availability is its weak point; only the lower bound is useful
    }

    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        Some(self.crash_probability_kc_bound(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::bounds::load_lower_bound_universal;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn integer_sqrt_ceil_values() {
        assert_eq!(integer_sqrt_ceil(1), 1);
        assert_eq!(integer_sqrt_ceil(2), 2);
        assert_eq!(integer_sqrt_ceil(4), 2);
        assert_eq!(integer_sqrt_ceil(5), 3);
        assert_eq!(integer_sqrt_ceil(9), 3);
        assert_eq!(integer_sqrt_ceil(10), 4);
    }

    #[test]
    fn paper_figure_1_instance() {
        // Figure 1: 7x7 grid, b = 3 -> 2 rows + 2 columns per quorum.
        let m = MGridSystem::new(7, 3).unwrap();
        assert_eq!(m.lines_per_quorum(), 2);
        assert_eq!(m.min_quorum_size(), 2 * 2 * 7 - 4);
        assert_eq!(m.universe_size(), 49);
        assert!(MGridSystem::new(7, MGridSystem::max_b(7)).is_ok());
        assert!(MGridSystem::new(7, 4).is_err()); // 2b+1 = 9 > 7
    }

    #[test]
    fn explicit_small_instance_is_b_masking() {
        // 5x5 grid, b = 2: 2 rows + 2 cols per quorum, IS must be >= 5.
        let m = MGridSystem::new(5, 2).unwrap();
        let e = m.to_explicit(20_000).unwrap();
        assert!(is_b_masking(e.quorums(), 25, 2));
        // On this small instance the intersections are even larger than required, so
        // the achieved masking level can exceed the design parameter b = 2.
        assert!(masking_level(e.quorums(), 25) >= Some(2));
        assert_eq!(min_transversal_size(e.quorums(), 25), m.min_transversal());
        assert_eq!(min_quorum_size(e.quorums()), m.min_quorum_size());
    }

    #[test]
    fn explicit_load_matches_analytic_and_is_near_optimal() {
        let m = MGridSystem::new(5, 2).unwrap();
        let e = m.to_explicit(20_000).unwrap();
        let (lp_load, _) = optimal_load(e.quorums(), 25).unwrap();
        assert!((lp_load - m.analytic_load()).abs() < 1e-6);
        // Proposition 5.2 + remark: within a factor sqrt(2) of the universal bound.
        let lower = load_lower_bound_universal(25, 2);
        assert!(lp_load >= lower - 1e-9);
        assert!(lp_load <= 2.0f64.sqrt() * lower + 0.1);
    }

    #[test]
    fn masking_holds_at_max_b_for_various_sides() {
        for side in [5usize, 7, 9] {
            let b = MGridSystem::max_b(side);
            let m = MGridSystem::new(side, b).unwrap();
            assert!(AnalyzedConstruction::resilience(&m) >= b, "side={side}");
            // Verify the analytic intersection argument on sampled quorum pairs.
            let mut rng = StdRng::seed_from_u64(side as u64);
            for _ in 0..30 {
                let q1 = m.sample_quorum(&mut rng);
                let q2 = m.sample_quorum(&mut rng);
                assert!(q1.intersection_size(&q2) > 2 * b, "side={side} b={b}");
            }
        }
    }

    #[test]
    fn find_live_quorum_requires_enough_full_lines() {
        let m = MGridSystem::new(7, 3).unwrap();
        assert!(m.is_available(&ServerSet::full(49)));
        // One crash per row kills every quorum (rows are no longer fully alive).
        let mut alive = ServerSet::full(49);
        for r in 0..7 {
            alive.remove(r * 7 + (r * 3) % 7);
        }
        assert!(!m.is_available(&alive));
        // A single crash leaves plenty of full rows/columns.
        let mut alive2 = ServerSet::full(49);
        alive2.remove(24);
        let q = m.find_live_quorum(&alive2).unwrap();
        assert!(q.is_subset_of(&alive2));
        assert_eq!(q.len(), m.min_quorum_size());
    }

    #[test]
    fn closed_form_crash_probability_matches_enumeration() {
        for (side, b) in [(3usize, 1usize), (4, 1)] {
            let m = MGridSystem::new(side, b).unwrap();
            for &p in &[0.0, 0.05, 0.125, 0.3, 0.5, 0.8, 1.0] {
                let closed = m.crash_probability(p);
                let enumerated = exact_crash_probability(&m, p).unwrap();
                assert!(
                    (closed - enumerated).abs() < 1e-9,
                    "side={side} b={b} p={p}: closed {closed} vs enumerated {enumerated}"
                );
                // Exact value dominates the paper's [KC91, Woo96] lower bound.
                assert!(closed >= m.crash_probability_kc_bound(p) - 1e-12);
            }
        }
        // The Section 8 instance (n = 1024) now gets an exact F_p where the
        // paper could only report the 0.638 lower bound.
        let section8 = MGridSystem::new(32, 15).unwrap();
        let fp = Evaluator::new().crash_probability(&section8, 0.125);
        assert_eq!(fp.method, FpMethod::ClosedForm);
        assert!(fp.value >= 0.638 && fp.value <= 1.0, "fp={}", fp.value);
    }

    #[test]
    fn word_level_availability_matches_set_availability() {
        let m = MGridSystem::new(4, 1).unwrap();
        let n = m.universe_size();
        let mut scratch = ServerSet::new(n);
        let mut reference = ServerSet::new(n);
        for mask in (0u64..1 << n).step_by(89) {
            reference.assign_mask_u64(mask);
            assert_eq!(
                m.is_available_u64(mask, &mut scratch),
                m.is_available(&reference),
                "mask={mask:#x}"
            );
        }
    }

    #[test]
    fn pricing_oracle_matches_explicit_scan() {
        let m = MGridSystem::new(5, 2).unwrap();
        let e = m.to_explicit(20_000).unwrap();
        for seed in 0..4u64 {
            let prices: Vec<f64> = (0..25)
                .map(|i| ((i as u64 * 37 + seed * 11 + 5) % 41) as f64 / 41.0)
                .collect();
            let (q, v) = m.min_weight_quorum(&prices).unwrap();
            let (_, v_ref) = e.min_weight_quorum(&prices).unwrap();
            assert!((v - v_ref).abs() < 1e-12, "seed={seed}: {v} vs {v_ref}");
            let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
            assert!((recomputed - v).abs() < 1e-12);
        }
    }

    #[test]
    fn certified_load_matches_analytic_at_section8_scale() {
        // The Section 8 instance (n = 1024, b = 15): load ~ 1/4, previously
        // only quotable from the closed form — now certified by the LP.
        let m = MGridSystem::new(32, 15).unwrap();
        let certified = optimal_load_oracle(&m).unwrap();
        assert!(
            (certified.load - m.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            m.analytic_load()
        );
        assert!(certified.gap <= 1e-9, "gap={}", certified.gap);
    }

    #[test]
    fn pricing_oracle_handles_previously_over_budget_parameterisation() {
        // M-Grid(b = 36) on side 73: 7 rows × 7 columns per quorum, and
        // C(73, 7) ≈ 1.6·10⁹ subsets — far past ORACLE_SUBSET_BUDGET, so the
        // enumeration path declines and, before the branch-and-bound
        // fallback, min_weight_quorum returned None outright. A planted
        // price structure (lines 0..7 free, everything else expensive) keeps
        // the optimum unique and lets branch-and-bound prove it in a handful
        // of nodes.
        let side = 73;
        let m = MGridSystem::new(side, 36).unwrap();
        assert_eq!(m.lines_per_quorum(), 7);
        let mut prices = vec![1.0; side * side];
        for r in 0..side {
            for c in 0..side {
                if r < 7 || c < 7 {
                    prices[r * side + c] = 0.0;
                }
            }
        }
        let (q, v) = m.min_weight_quorum(&prices).unwrap();
        assert_eq!(v, 0.0);
        assert_eq!(q.len(), 2 * 7 * side - 49);
        assert!(q.iter().all(|u| prices[u] == 0.0));
    }

    #[test]
    fn kc_crash_bound_grows_with_n() {
        let p = 0.125;
        let small = MGridSystem::new(7, 3).unwrap();
        let large = MGridSystem::new(32, 3).unwrap();
        assert!(
            large.crash_probability_kc_bound(p) > small.crash_probability_kc_bound(p),
            "Fp(M-Grid) must tend to 1"
        );
    }

    #[test]
    fn section8_mgrid_instance() {
        // Section 8: n = 1024, b = 15 -> 4 rows + 4 columns, f = 28, Fp >= 0.638 at
        // p = 1/8, load about 1/4.
        let m = MGridSystem::new(32, 15).unwrap();
        assert_eq!(m.lines_per_quorum(), 4);
        assert_eq!(AnalyzedConstruction::resilience(&m), 28);
        let load = m.analytic_load();
        assert!((load - 0.25).abs() < 0.02, "load={load}");
        let fp = m.crash_probability_kc_bound(0.125);
        assert!(fp >= 0.63, "fp={fp}");
    }
}
