//! The line-quorum grids: the Grid of \[MR98a\], the M-Grid of Section 5.1 and,
//! at `b = 0`, the regular row + column grid of \[Mae85, CAA92\].
//!
//! Servers form a `√n × √n` [`SquareGrid`]; a quorum is the union of `rows`
//! full rows and `cols` full columns. The systems differ only in that shape
//! and in the largest `b` they mask, so one [`LineSystem`] implements them
//! all, with a [`LineFamily`] marker for each:
//!
//! | System | Quorum shape | Masks `b` when | Load `c(Q)/n` |
//! |---|---|---|---|
//! | [`GridSystem`] (\[MR98a\], Table 2's baseline) | `2b + 1` rows, one column | `3b + 1 ≤ √n` | `≈ 2b/√n` |
//! | [`MGridSystem`] (Section 5.1, Figure 1) | `⌈√(b+1)⌉` rows and as many columns | `2b + 1 ≤ √n` | `≈ 2√((b+1)/n)`, optimal within `√2` |
//! | `GridSystem::new(side, 0)` (regular) | one row, one column | — | `(2√n − 1)/n` |
//!
//! Each quorum's rows cross every other quorum's columns, so the Grid's
//! quorums meet in at least `2(2b + 1)` servers. Two M-Grid quorums meet in
//! at least `2(b + 1) > 2b` servers when they share no line, and in at least
//! `√n ≥ 2b + 1` when they do (Proposition 5.1). Either way, a set hitting
//! every quorum must spoil `√n + 1 − max(rows, cols)` rows or columns, which
//! is the minimal transversal; the bounds above keep the resilience at or
//! above `b`. The systems are fair, so the load is `c(Q)/n` (Proposition 5.2
//! for the M-Grid). Their weakness is availability: one crash per row kills
//! every quorum, so `F_p → 1` as `n → ∞` \[KC91, Woo96\].

use std::marker::PhantomData;

use rand::RngCore;

use bqs_combinatorics::binomial::binomial;
use bqs_combinatorics::subsets::KSubsets;
use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::eval::{FpEstimate, FpMethod};
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::square::{
    balanced_line_strategy, min_price_rows_and_columns, rows_and_columns_alive_probability,
    SquareGrid,
};
use crate::AnalyzedConstruction;

/// Subset-enumeration budget of the exact line pricing oracle: the oracle
/// enumerates `C(side, k)` line sets of its cheaper axis per call, which
/// covers every Section 8-scale instance (`C(32, 4) ≈ 3.6·10⁴`) with room to
/// spare. Degenerate parameterisations past the budget fall through to an
/// exact branch-and-bound pricer with the same budget counted in search
/// nodes, which declines only when *it* cannot prove optimality in budget
/// (see [`min_price_rows_and_columns`]).
pub const ORACLE_SUBSET_BUDGET: u128 = 2_000_000;

/// What sets one line-quorum construction apart from another: its quorum
/// shape, the largest `b` it masks, and its name.
pub trait LineFamily: Send + Sync {
    /// The name [`QuorumSystem::name`] prints, e.g. `"M-Grid"`.
    const NAME: &'static str;

    /// The quorum shape masking `b` failures: `(rows, columns)`.
    fn shape(b: usize) -> (usize, usize);

    /// The largest `b` the family masks on a `side × side` grid.
    fn max_b(side: usize) -> usize;
}

/// The Grid of \[MR98a\]: `2b + 1` rows and one column. Its resilience
/// `side − 2b − 1` is at least `b` iff `3b + 1 ≤ side`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid;

impl LineFamily for Grid {
    const NAME: &'static str = "Grid";

    fn shape(b: usize) -> (usize, usize) {
        (2 * b + 1, 1)
    }

    fn max_b(side: usize) -> usize {
        side.saturating_sub(1) / 3
    }
}

/// The M-Grid of Section 5.1: `⌈√(b+1)⌉` rows and as many columns, b-masking
/// iff `2b + 1 ≤ side` (Proposition 5.1). That bound also fits the lines in
/// the grid and keeps the resilience `side − ⌈√(b+1)⌉` at or above `b`,
/// because `⌈√(b+1)⌉ ≤ b + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MGrid;

impl LineFamily for MGrid {
    const NAME: &'static str = "M-Grid";

    fn shape(b: usize) -> (usize, usize) {
        let lines = integer_sqrt_ceil(b + 1);
        (lines, lines)
    }

    fn max_b(side: usize) -> usize {
        side.saturating_sub(1) / 2
    }
}

/// The \[MR98a\] Grid; at `b = 0` the regular row + column grid.
pub type GridSystem = LineSystem<Grid>;

/// The M-Grid(b) of Section 5.1.
pub type MGridSystem = LineSystem<MGrid>;

/// A line-quorum system over a `side × side` grid: every quorum is `rows`
/// full rows plus `cols` full columns, with the shape chosen by `F`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineSystem<F> {
    grid: SquareGrid,
    b: usize,
    rows: usize,
    cols: usize,
    family: PhantomData<F>,
}

impl<F: LineFamily> LineSystem<F> {
    /// Creates the family's system masking `b` Byzantine failures over a
    /// `side × side` grid (`n = side²`).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if `side == 0` or
    /// `b > max_b(side)`.
    pub fn new(side: usize, b: usize) -> Result<Self, QuorumError> {
        let grid = SquareGrid::new(side)?;
        if b > F::max_b(side) {
            return Err(QuorumError::InvalidParameters(format!(
                "{}(b={b}) masks at most b = {} on a {side}x{side} grid",
                F::NAME,
                F::max_b(side)
            )));
        }
        let (rows, cols) = F::shape(b);
        Ok(LineSystem {
            grid,
            b,
            rows,
            cols,
            family: PhantomData,
        })
    }

    /// The largest `b` the family masks on a `side × side` grid.
    #[must_use]
    pub fn max_b(side: usize) -> usize {
        F::max_b(side)
    }

    /// The quorum shape: `(rows, columns)` per quorum.
    #[must_use]
    pub fn lines(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Minimal transversal size `MT = side + 1 − max(rows, cols)`: one cell
    /// in each of that many rows (or columns) leaves too few full ones.
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        self.grid.side() + 1 - self.rows.max(self.cols)
    }

    /// Materialises all `C(side, rows) · C(side, cols)` quorums, row sets in
    /// lexicographic order, column sets inside.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if the count exceeds `max_quorums`.
    pub fn to_explicit(&self, max_quorums: usize) -> Result<ExplicitQuorumSystem, QuorumError> {
        let side = self.grid.side();
        let count = binomial(side as u64, self.rows as u64)
            .saturating_mul(binomial(side as u64, self.cols as u64));
        if count > max_quorums as u128 {
            return Err(QuorumError::InvalidParameters(format!(
                "{count} quorums exceed the cap of {max_quorums}"
            )));
        }
        let col_sets: Vec<Vec<usize>> = KSubsets::new(side, self.cols).collect();
        let mut quorums = Vec::new();
        for rows in KSubsets::new(side, self.rows) {
            for cols in &col_sets {
                quorums.push(self.grid.union_of(&rows, cols));
            }
        }
        Ok(ExplicitQuorumSystem::new(self.grid.universe_size(), quorums)?.with_name(self.name()))
    }
}

/// `⌈√x⌉` for small integers.
pub(crate) fn integer_sqrt_ceil(x: usize) -> usize {
    let mut r = (x as f64).sqrt() as usize;
    while r * r < x {
        r += 1;
    }
    while r > 0 && (r - 1) * (r - 1) >= x {
        r -= 1;
    }
    r
}

impl<F: LineFamily> QuorumSystem for LineSystem<F> {
    fn universe_size(&self) -> usize {
        self.grid.universe_size()
    }

    fn name(&self) -> String {
        format!("{}(n={}, b={})", F::NAME, self.grid.universe_size(), self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let side = self.grid.side();
        let rows: Vec<usize> = rand::seq::index::sample(rng, side, self.rows).into_vec();
        let cols: Vec<usize> = rand::seq::index::sample(rng, side, self.cols).into_vec();
        self.grid.union_of(&rows, &cols)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        let rows = self.grid.fully_alive_rows(alive);
        if rows.len() < self.rows {
            return None;
        }
        let cols = self.grid.fully_alive_columns(alive);
        if cols.len() < self.cols {
            return None;
        }
        Some(self.grid.union_of(&rows[..self.rows], &cols[..self.cols]))
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        // Allocation-free: only the counts of fully alive lines matter.
        self.grid.fully_alive_row_count(alive) >= self.rows
            && self.grid.fully_alive_column_count(alive) >= self.cols
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) {
        // Exact-enumeration fast path: the side's line tables (built once per
        // process) count the range by whole segments.
        self.grid
            .line_count_tables()
            .unavailable_profile_range(self.rows, self.cols, start, end, profile);
    }

    /// Exact `F_p` in closed form: the system is available iff at least
    /// `rows` rows and `cols` columns are fully alive, whose joint
    /// probability [`rows_and_columns_alive_probability`] computes by
    /// inclusion–exclusion — no enumeration, any `n`. For the M-Grid this
    /// sharpens the paper's \[KC91, Woo96\] lower bound into the exact value.
    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        let side = self.grid.side();
        Some(
            ps.iter()
                .map(|&p| {
                    let alive = rows_and_columns_alive_probability(side, self.rows, self.cols, p);
                    FpEstimate::certain(1.0 - alive, FpMethod::ClosedForm)
                })
                .collect(),
        )
    }

    fn min_quorum_size(&self) -> usize {
        // The rows and columns overlap in rows · cols cells.
        (self.rows + self.cols) * self.grid.side() - self.rows * self.cols
    }
}

impl<F: LineFamily> MinWeightQuorumOracle for LineSystem<F> {
    /// Exact pricing of the cheapest `rows` rows + `cols` columns union via
    /// [`min_price_rows_and_columns`]: the axis with fewer line sets is
    /// enumerated (within [`ORACLE_SUBSET_BUDGET`]), the other selected
    /// greedily per candidate.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let (rows, cols, price) = min_price_rows_and_columns(
            self.grid.side(),
            prices,
            self.rows,
            self.cols,
            ORACLE_SUBSET_BUDGET,
        )?;
        Some((self.grid.union_of(&rows, &cols), price))
    }

    /// All cyclic row-window × column-window pairs
    /// ([`balanced_line_strategy`]): a perfectly balanced `side²`-quorum
    /// family whose uniform mixture achieves `c(Q)/n` exactly.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some(balanced_line_strategy(&self.grid, self.rows, self.cols))
    }
}

impl<F: LineFamily> AnalyzedConstruction for LineSystem<F> {
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
        // No useful upper bound: F_p -> 1 as n grows [KC91, Woo96].
        None
    }

    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        // A crash in every row disables every row, and every column a
        // fortiori: F_p >= (1 - (1-p)^side)^side.
        let side = self.grid.side() as f64;
        Some((1.0 - (1.0 - p).powf(side)).powf(side))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::availability::availability_profile_naive;
    use bqs_core::bounds::load_lower_bound_universal;
    use bqs_core::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A line system behind a trait object, so one table holds every family.
    trait Line: AnalyzedConstruction + MinWeightQuorumOracle {
        fn lines(&self) -> (usize, usize);
        fn explicit(&self) -> ExplicitQuorumSystem;
    }

    impl<F: LineFamily> Line for LineSystem<F> {
        fn lines(&self) -> (usize, usize) {
            LineSystem::lines(self)
        }
        fn explicit(&self) -> ExplicitQuorumSystem {
            self.to_explicit(1 << 12).unwrap()
        }
    }

    fn grid(side: usize, b: usize) -> Box<dyn Line> {
        Box::new(GridSystem::new(side, b).unwrap())
    }

    fn mgrid(side: usize, b: usize) -> Box<dyn Line> {
        Box::new(MGridSystem::new(side, b).unwrap())
    }

    #[test]
    fn new_accepts_exactly_the_masking_range() {
        for side in 1..=40usize {
            for b in 0..=side {
                // 3b + 1 <= side and 2b + 1 <= side.
                assert_eq!(GridSystem::new(side, b).is_ok(), 3 * b < side);
                assert_eq!(MGridSystem::new(side, b).is_ok(), 2 * b < side);
            }
            assert_eq!(GridSystem::max_b(side), (side - 1) / 3);
            assert_eq!(MGridSystem::max_b(side), (side - 1) / 2);
        }
        assert!(GridSystem::new(0, 0).is_err());
        assert!(MGridSystem::new(0, 0).is_err());
    }

    #[test]
    fn integer_sqrt_ceil_values() {
        assert_eq!(integer_sqrt_ceil(1), 1);
        assert_eq!(integer_sqrt_ceil(2), 2);
        assert_eq!(integer_sqrt_ceil(4), 2);
        assert_eq!(integer_sqrt_ceil(5), 3);
        assert_eq!(integer_sqrt_ceil(9), 3);
        assert_eq!(integer_sqrt_ceil(10), 4);
    }

    /// Every small instance against its explicit quorum list and against
    /// enumeration: Grid(b ≥ 1), M-Grid and the regular grid (Grid at b = 0).
    #[test]
    fn line_systems_match_their_explicit_lists() {
        // (system, quorums, c(Q), IS(Q), MT, masking level of the explicit list)
        let table = [
            (grid(4, 1), 16, 13, 10, 2, 1),
            (grid(3, 0), 9, 5, 2, 3, 0),
            (grid(4, 0), 16, 7, 2, 4, 0),
            (mgrid(3, 1), 9, 8, 7, 2, 1),
            (mgrid(4, 1), 36, 12, 8, 3, 2),
            (mgrid(5, 2), 100, 16, 8, 4, 3),
        ];
        for (sys, quorums, c, is, mt, level) in &table {
            let name = sys.name();
            let n = sys.universe_size();
            let b = sys.masking_b();
            let e = sys.explicit();
            assert_eq!(e.num_quorums(), *quorums, "{name}");
            assert_eq!(sys.min_quorum_size(), *c, "{name}");
            assert_eq!(min_quorum_size(e.quorums()), *c, "{name}");
            assert_eq!(min_intersection_size(e.quorums()), *is, "{name}");
            assert_eq!(min_transversal_size(e.quorums(), n), *mt, "{name}");
            assert_eq!(resilience(e.quorums(), n), sys.resilience(), "{name}");
            assert_eq!(sys.resilience() + 1, *mt, "{name}");
            assert!(is_b_masking(e.quorums(), n, b), "{name}");
            assert_eq!(masking_level(e.quorums(), n), Some(*level), "{name}");

            let (lp_load, _) = optimal_load(e.quorums(), n).unwrap();
            assert!((lp_load - sys.analytic_load()).abs() < 1e-6, "{name}");
            assert!((sys.analytic_load() - *c as f64 / n as f64).abs() < 1e-12);

            for seed in 0..4u64 {
                let prices: Vec<f64> = (0..n)
                    .map(|i| ((i as u64 * 37 + seed * 11 + 5) % 41) as f64 / 41.0)
                    .collect();
                let (q, v) = sys.min_weight_quorum(&prices).unwrap();
                let (_, v_ref) = e.min_weight_quorum(&prices).unwrap();
                assert!(
                    (v - v_ref).abs() < 1e-12,
                    "{name} seed={seed}: {v} vs {v_ref}"
                );
                let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
                assert!((recomputed - v).abs() < 1e-12, "{name}");
            }

            if n > 16 {
                continue;
            }
            let engine = Evaluator::new().availability_profile(sys.as_ref()).unwrap();
            assert_eq!(
                engine,
                availability_profile_naive(sys.as_ref()).unwrap(),
                "{name}"
            );
            for &p in &[0.0, 0.05, 0.125, 0.3, 0.5, 0.8, 1.0] {
                let closed = crate::own_answer(sys.as_ref(), p).unwrap();
                let enumerated = Evaluator::new().exact(sys.as_ref(), p).unwrap();
                assert!(
                    (closed - enumerated).abs() < 1e-9,
                    "{name} p={p}: closed {closed} vs enumerated {enumerated}"
                );
                assert!(closed >= sys.crash_probability_lower_bound(p).unwrap() - 1e-12);
            }
        }
    }

    /// Shapes at every scale, and the paper-scale instances certified and
    /// answered in closed form.
    #[test]
    fn line_system_shapes_and_scale() {
        // (system, (rows, cols), c(Q), resilience)
        let shapes = [
            (grid(7, 1), (3, 1), 25, 4),
            (grid(10, 3), (7, 1), 73, 3),
            (grid(4, 0), (1, 1), 7, 3),
            (mgrid(7, 3), (2, 2), 24, 5),
            (mgrid(32, 15), (4, 4), 240, 28),
            (mgrid(73, 36), (7, 7), 973, 66),
        ];
        for (sys, lines, c, f) in &shapes {
            let name = sys.name();
            assert_eq!(sys.lines(), *lines, "{name}");
            assert_eq!(sys.min_quorum_size(), *c, "{name}");
            assert_eq!(sys.resilience(), *f, "{name}");
            assert!(sys.resilience() >= sys.masking_b(), "{name}");
        }
        // Load ~ 2b/sqrt(n), as the paper remarks of the Grid.
        assert!(grid(7, 1).analytic_load() > 2.0 / 7.0);
        // Section 8: M-Grid at n = 1024, b = 15 has load about 1/4.
        assert!((mgrid(32, 15).analytic_load() - 0.25).abs() < 0.02);

        for sys in [grid(30, 1), grid(32, 10), mgrid(32, 15), grid(12, 0)] {
            let name = sys.name();
            let certified = optimal_load_oracle(sys.as_ref()).unwrap();
            assert!(
                (certified.load - sys.analytic_load()).abs() <= 1e-9,
                "{name}: certified {} vs analytic {}",
                certified.load,
                sys.analytic_load()
            );
            assert!(certified.gap <= 1e-9, "{name}: gap={}", certified.gap);
            let fp = Evaluator::new().crash_probability(sys.as_ref(), 0.125);
            assert_eq!(fp.method, FpMethod::ClosedForm, "{name}");
            let lower = sys.crash_probability_lower_bound(0.125).unwrap();
            assert!(fp.value >= lower - 1e-12 && fp.value <= 1.0, "{name}");
        }
        // The Section 8 M-Grid gets an exact F_p where the paper could only
        // report the 0.638 lower bound.
        let fp = Evaluator::new().crash_probability(mgrid(32, 15).as_ref(), 0.125);
        assert!(fp.value >= 0.638, "fp={}", fp.value);
    }

    #[test]
    fn crash_probability_lower_bound_tends_to_one() {
        let p = 0.125;
        let lower = |sys: Box<dyn Line>| sys.crash_probability_lower_bound(p).unwrap();
        assert!(lower(grid(30, 1)) > lower(grid(5, 1)));
        assert!(
            lower(grid(30, 1)) > 0.5,
            "for n=900 the Grid is mostly dead"
        );
        assert!(lower(mgrid(32, 3)) > lower(mgrid(7, 3)));
        assert!(lower(mgrid(32, 15)) >= 0.63);
    }

    #[test]
    fn live_quorums_need_enough_full_lines() {
        for sys in [grid(7, 2), mgrid(7, 3), grid(4, 0)] {
            let name = sys.name();
            let n = sys.universe_size();
            let side = (1..=n).find(|s| s * s == n).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..20 {
                assert_eq!(sys.sample_quorum(&mut rng).len(), sys.min_quorum_size());
            }
            // One crash leaves enough full rows and columns.
            let mut alive = ServerSet::full(n);
            alive.remove((side / 2) * side + side / 2);
            let q = sys.find_live_quorum(&alive).unwrap();
            assert!(q.is_subset_of(&alive), "{name}");
            assert_eq!(q.len(), sys.min_quorum_size(), "{name}");
            // A dead row leaves no full column.
            let mut alive = ServerSet::full(n);
            for c in 0..side {
                alive.remove(c);
            }
            assert!(!sys.is_available(&alive), "{name}");
            // One crash per row leaves no full row.
            let mut alive = ServerSet::full(n);
            for r in 0..side {
                alive.remove(r * side + r);
            }
            assert!(!sys.is_available(&alive), "{name}");
            assert!(sys.find_live_quorum(&alive).is_none(), "{name}");
        }
    }

    #[test]
    fn sampled_quorums_meet_in_2b_plus_1_at_max_b() {
        for side in [5usize, 7, 9] {
            for sys in [
                grid(side, GridSystem::max_b(side)),
                mgrid(side, MGridSystem::max_b(side)),
            ] {
                let b = sys.masking_b();
                assert!(sys.resilience() >= b, "{}", sys.name());
                let mut rng = StdRng::seed_from_u64(side as u64);
                for _ in 0..30 {
                    let q1 = sys.sample_quorum(&mut rng);
                    let q2 = sys.sample_quorum(&mut rng);
                    assert!(q1.intersection_size(&q2) > 2 * b, "{}", sys.name());
                }
            }
        }
    }

    /// `sample_quorum` draws rows, then columns, with the same calls as
    /// before Grid, M-Grid and the regular grid shared one implementation:
    /// the quorums and the generator's next output are pinned.
    #[test]
    fn sampling_is_pinned() {
        type Pin = (Box<dyn Line>, [&'static [usize]; 3], u64);
        let cases: [Pin; 3] = [
            (
                grid(5, 1),
                [
                    &[0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 19, 20, 21, 22, 23, 24],
                    &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 20, 21, 22, 23, 24],
                    &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 20, 21, 22, 23, 24],
                ],
                0x6d72_588d_b03d_cc5f,
            ),
            (
                mgrid(7, 3),
                [
                    &[
                        3, 6, 7, 8, 9, 10, 11, 12, 13, 17, 20, 24, 27, 31, 34, 38, 41, 42, 43, 44,
                        45, 46, 47, 48,
                    ],
                    &[
                        1, 6, 7, 8, 9, 10, 11, 12, 13, 15, 20, 21, 22, 23, 24, 25, 26, 27, 29, 34,
                        36, 41, 43, 48,
                    ],
                    &[
                        0, 1, 2, 3, 4, 5, 6, 9, 11, 16, 18, 23, 25, 30, 32, 35, 36, 37, 38, 39, 40,
                        41, 44, 46,
                    ],
                ],
                0x6d72_588d_b03d_cc5f,
            ),
            (
                grid(4, 0),
                [
                    &[0, 1, 2, 3, 7, 11, 15],
                    &[0, 1, 2, 3, 7, 11, 15],
                    &[0, 4, 5, 6, 7, 8, 12],
                ],
                0x518d_0405_f177_94c7,
            ),
        ];
        for (sys, quorums, next) in &cases {
            let mut rng = StdRng::seed_from_u64(29);
            for q in quorums {
                assert_eq!(sys.sample_quorum(&mut rng).to_vec(), *q, "{}", sys.name());
            }
            assert_eq!(rng.next_u64(), *next, "{}", sys.name());
        }
    }

    #[test]
    fn mgrid_load_is_within_sqrt2_of_optimal() {
        // Proposition 5.2 and its remark, on the explicit LP of M-Grid(5, 2).
        let m = MGridSystem::new(5, 2).unwrap();
        let (lp_load, _) = optimal_load(m.to_explicit(1 << 12).unwrap().quorums(), 25).unwrap();
        let lower = load_lower_bound_universal(25, 2);
        assert!(lp_load >= lower - 1e-9);
        assert!(lp_load <= 2.0f64.sqrt() * lower + 0.1);
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
        assert_eq!(m.lines(), (7, 7));
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
}
