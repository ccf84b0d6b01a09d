//! The Grid masking construction of [MR98a] (baseline for Table 2).
//!
//! Servers form a `√n × √n` grid; a quorum is the union of `2b + 1` full rows and one
//! full column. Any two quorums intersect in at least `2(2b+1)` servers (each
//! quorum's column crosses the other's rows), and the system masks `b` Byzantine
//! failures as long as the resilience `√n − 2b − 1` is at least `b`, i.e.
//! `b ≤ (√n − 1)/3`. Its load is roughly `2b/√n` — *not* optimal, which is the
//! paper's motivation for the improved M-Grid construction of Section 5.1.

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::square::{min_price_rows_and_columns, SquareGrid};
use crate::AnalyzedConstruction;

/// The [MR98a] Grid b-masking quorum system over a `side × side` universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSystem {
    grid: SquareGrid,
    b: usize,
}

impl GridSystem {
    /// Creates the Grid system masking `b` Byzantine failures over a `side × side`
    /// grid (`n = side²`).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless `2b + 1 ≤ side` and the
    /// resilience `side − 2b − 1` is at least `b` (i.e. `3b + 1 ≤ side`).
    pub fn new(side: usize, b: usize) -> Result<Self, QuorumError> {
        let grid = SquareGrid::new(side)?;
        if 2 * b + 1 > side {
            return Err(QuorumError::InvalidParameters(format!(
                "Grid(b={b}) needs 2b+1 <= side (side={side})"
            )));
        }
        if 3 * b + 1 > side {
            return Err(QuorumError::InvalidParameters(format!(
                "Grid(b={b}) is only b-masking when 3b+1 <= side (side={side})"
            )));
        }
        Ok(GridSystem { grid, b })
    }

    /// Creates the system for a universe of `n` servers (`n` must be a perfect
    /// square).
    ///
    /// # Errors
    ///
    /// Same as [`GridSystem::new`], plus the perfect-square requirement.
    pub fn for_universe(n: usize, b: usize) -> Result<Self, QuorumError> {
        let grid = SquareGrid::for_universe(n)?;
        GridSystem::new(grid.side(), b)
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

    /// Number of rows per quorum, `2b + 1`.
    #[must_use]
    pub fn rows_per_quorum(&self) -> usize {
        2 * self.b + 1
    }

    /// Minimal transversal size `MT = side − 2b` (hit all but `2b` rows).
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        self.grid.side() - 2 * self.b
    }

    /// Exact crash probability in closed form: the system is available iff at
    /// least `2b + 1` rows and at least one column are fully alive, whose
    /// joint probability [`crate::square::rows_and_columns_alive_probability`]
    /// computes by inclusion–exclusion — no enumeration, any `n`.
    #[must_use]
    pub fn crash_probability(&self, p: f64) -> f64 {
        1.0 - crate::square::rows_and_columns_alive_probability(
            self.grid.side(),
            2 * self.b + 1,
            1,
            p,
        )
    }

    /// Materialises all `C(side, 2b+1) · side` quorums.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if the count exceeds `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        let side = self.grid.side();
        let count = bqs_combinatorics::binomial::binomial(side as u64, (2 * self.b + 1) as u64)
            .saturating_mul(side as u128);
        if count > max_quorums as u128 {
            return Err(QuorumError::InvalidParameters(format!(
                "{count} quorums exceed the cap of {max_quorums}"
            )));
        }
        let mut quorums = Vec::new();
        for rows in bqs_combinatorics::subsets::KSubsets::new(side, 2 * self.b + 1) {
            for col in 0..side {
                quorums.push(self.grid.union_of(&rows, &[col]));
            }
        }
        Ok(ExplicitQuorumSystem::new(self.grid.universe_size(), quorums)?.with_name(self.name()))
    }
}

impl QuorumSystem for GridSystem {
    fn universe_size(&self) -> usize {
        self.grid.universe_size()
    }

    fn name(&self) -> String {
        format!("Grid(n={}, b={})", self.grid.universe_size(), self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let side = self.grid.side();
        let rows: Vec<usize> = rand::seq::index::sample(rng, side, 2 * self.b + 1).into_vec();
        let col = rand::seq::index::sample(rng, side, 1).index(0);
        self.grid.union_of(&rows, &[col])
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        let rows = self.grid.fully_alive_rows(alive);
        if rows.len() < 2 * self.b + 1 {
            return None;
        }
        let cols = self.grid.fully_alive_columns(alive);
        let col = *cols.first()?;
        Some(self.grid.union_of(&rows[..2 * self.b + 1], &[col]))
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        // Allocation-free: availability only needs the *counts* of fully
        // alive rows/columns, not the quorum itself.
        self.grid.fully_alive_row_count(alive) > 2 * self.b
            && self.grid.fully_alive_column_count(alive) >= 1
    }

    #[inline]
    fn is_available_u64(&self, alive: u64, _scratch: &mut ServerSet) -> bool {
        self.grid.fully_alive_row_count_u64(alive) > 2 * self.b
            && self.grid.fully_alive_column_count_u64(alive) >= 1
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) -> bool {
        // Exact-enumeration fast path: the side's line tables (built once per
        // process) count the range by whole segments.
        self.grid.line_count_tables().unavailable_profile_range(
            2 * self.b + 1,
            1,
            start,
            end,
            profile,
        );
        true
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        Some(self.crash_probability(p))
    }

    fn min_quorum_size(&self) -> usize {
        // (2b+1) rows of `side` servers plus one column minus the shared cells.
        let side = self.grid.side();
        (2 * self.b + 1) * side + side - (2 * self.b + 1)
    }
}

impl MinWeightQuorumOracle for GridSystem {
    /// Exact pricing of the cheapest `2b+1` rows + one column union via
    /// [`min_price_rows_and_columns`]: with the single column enumerated
    /// (only `side` candidates), the best rows for each are a greedy
    /// selection of adjusted row sums.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let side = self.grid.side();
        let (rows, cols, price) =
            min_price_rows_and_columns(side, prices, 2 * self.b + 1, 1, u128::MAX)?;
        Some((self.grid.union_of(&rows, &cols), price))
    }

    /// All cyclic-(2b+1)-row-window × single-column pairs
    /// ([`crate::square::balanced_line_family`]): a perfectly balanced
    /// `side²`-quorum family whose uniform mixture achieves `c(Q)/n` exactly.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some(crate::square::balanced_line_strategy(
            self.grid.side(),
            2 * self.b + 1,
            1,
            |rows, cols| self.grid.union_of(rows, cols),
        ))
    }
}

impl AnalyzedConstruction for GridSystem {
    fn masking_b(&self) -> usize {
        self.b
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // Fair system: Proposition 3.9.
        self.min_quorum_size() as f64 / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, _p: f64) -> Option<f64> {
        // No useful upper bound: as [KC91, Woo96] show, Fp(Grid) -> 1 as n grows.
        None
    }

    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        // Any configuration with a crash in every row disables the system (it also
        // disables every column, a fortiori every quorum):
        // Fp >= (1 - (1-p)^side)^side.
        let side = self.grid.side() as f64;
        Some((1.0 - (1.0 - p).powf(side)).powf(side))
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
        assert!(GridSystem::new(7, 2).is_ok());
        assert!(GridSystem::new(7, 3).is_err()); // 3b+1 = 10 > 7
        assert!(GridSystem::new(4, 1).is_ok());
        assert!(GridSystem::new(3, 1).is_err());
        assert!(GridSystem::for_universe(49, 2).is_ok());
        assert!(GridSystem::for_universe(50, 2).is_err());
    }

    #[test]
    fn quorum_sizes_and_load() {
        let g = GridSystem::new(7, 1).unwrap();
        // 3 rows * 7 + 7 - 3 = 25 servers per quorum.
        assert_eq!(g.min_quorum_size(), 25);
        assert!((g.analytic_load() - 25.0 / 49.0).abs() < 1e-12);
        // Load ~ 2b/sqrt(n) as the paper remarks (within a small constant).
        assert!(g.analytic_load() > 2.0 / 7.0);
    }

    #[test]
    fn explicit_system_is_b_masking() {
        let g = GridSystem::new(4, 1).unwrap();
        let e = g.to_explicit(10_000).unwrap();
        assert_eq!(e.universe_size(), 16);
        // C(4,3) * 4 = 16 quorums.
        assert_eq!(e.num_quorums(), 16);
        assert!(is_b_masking(e.quorums(), 16, 1));
        // On a side-4 grid any two quorums share at least 2 of their 3 rows, so the
        // intersections are far larger than the 2b+1 = 3 the masking property needs.
        assert!(min_intersection_size(e.quorums()) > 2);
        assert_eq!(min_transversal_size(e.quorums(), 16), g.min_transversal());
    }

    #[test]
    fn explicit_load_matches_analytic() {
        let g = GridSystem::new(4, 1).unwrap();
        let e = g.to_explicit(10_000).unwrap();
        let (load, _) = optimal_load(e.quorums(), 16).unwrap();
        assert!((load - g.analytic_load()).abs() < 1e-6);
    }

    #[test]
    fn sampling_and_live_quorum_shapes() {
        let g = GridSystem::new(7, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let q = g.sample_quorum(&mut rng);
            assert_eq!(q.len(), g.min_quorum_size());
        }
        // With everything alive a quorum is found.
        assert!(g.is_available(&ServerSet::full(49)));
        // Killing one server per row prevents any fully-alive row from existing.
        let mut alive = ServerSet::full(49);
        for r in 0..7 {
            alive.remove(r * 7 + (r % 7));
        }
        assert!(!g.is_available(&alive));
    }

    #[test]
    fn resilience_is_side_minus_2b_minus_1() {
        let g = GridSystem::new(10, 3).unwrap();
        assert_eq!(AnalyzedConstruction::resilience(&g), 10 - 6 - 1);
        assert!(AnalyzedConstruction::resilience(&g) >= g.masking_b());
    }

    #[test]
    fn closed_form_crash_probability_matches_enumeration() {
        for (side, b) in [(3usize, 0usize), (4, 1)] {
            let g = GridSystem::new(side, b).unwrap();
            for &p in &[0.0, 0.05, 0.125, 0.3, 0.5, 0.8, 1.0] {
                let closed = g.crash_probability(p);
                let enumerated = exact_crash_probability(&g, p).unwrap();
                assert!(
                    (closed - enumerated).abs() < 1e-9,
                    "side={side} b={b} p={p}: closed {closed} vs enumerated {enumerated}"
                );
                // The closed form can never undercut the row-kill lower bound.
                assert!(closed >= g.crash_probability_lower_bound(p).unwrap() - 1e-12);
            }
        }
        // And the evaluation engine must pick it up without enumeration.
        let big = GridSystem::new(30, 1).unwrap(); // n = 900, unenumerable
        let fp = Evaluator::new().crash_probability(&big, 0.125);
        assert_eq!(fp.method, FpMethod::ClosedForm);
        assert!((0.0..=1.0).contains(&fp.value));
    }

    #[test]
    fn word_level_availability_matches_set_availability() {
        let g = GridSystem::new(4, 1).unwrap();
        let n = g.universe_size();
        let mut scratch = ServerSet::new(n);
        let mut reference = ServerSet::new(n);
        for mask in (0u64..1 << n).step_by(97) {
            reference.assign_mask_u64(mask);
            assert_eq!(
                g.is_available_u64(mask, &mut scratch),
                g.is_available(&reference),
                "mask={mask:#x}"
            );
        }
    }

    #[test]
    fn pricing_oracle_matches_explicit_scan() {
        let g = GridSystem::new(4, 1).unwrap();
        let e = g.to_explicit(10_000).unwrap();
        for seed in 0..4u64 {
            let prices: Vec<f64> = (0..16)
                .map(|i| ((i as u64 * 29 + seed * 13 + 7) % 23) as f64 / 23.0)
                .collect();
            let (q, v) = g.min_weight_quorum(&prices).unwrap();
            let (_, v_ref) = e.min_weight_quorum(&prices).unwrap();
            assert!((v - v_ref).abs() < 1e-12, "seed={seed}: {v} vs {v_ref}");
            let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
            assert!((recomputed - v).abs() < 1e-12);
        }
    }

    #[test]
    fn certified_load_matches_analytic_at_scale() {
        // n = 1024 (Section 8 scale): certified column-generation load
        // equals the fair-system closed form c/n.
        let g = GridSystem::new(32, 10).unwrap();
        let certified = optimal_load_oracle(&g).unwrap();
        assert!(
            (certified.load - g.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            g.analytic_load()
        );
        assert!(certified.gap <= 1e-9);
    }

    #[test]
    fn crash_probability_lower_bound_tends_to_one() {
        let small = GridSystem::new(5, 1).unwrap();
        let large = GridSystem::new(30, 1).unwrap();
        let p = 0.125;
        let lb_small = small.crash_probability_lower_bound(p).unwrap();
        let lb_large = large.crash_probability_lower_bound(p).unwrap();
        assert!(lb_large > lb_small, "bound should grow with n");
        assert!(lb_large > 0.5, "for n=900 the Grid is mostly dead");
    }
}
