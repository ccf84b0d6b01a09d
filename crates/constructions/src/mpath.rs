//! The M-Path construction (Section 7 of the paper).
//!
//! Servers are the vertices of a triangulated `√n × √n` grid (the triangular
//! lattice); a quorum is the union of `√(2b+1)` vertex-disjoint left-right paths and
//! `√(2b+1)` vertex-disjoint top-bottom paths (Figure 3 of the paper shows a 9×9
//! instance with `b = 4`). Any quorum's LR paths cross any other quorum's TB paths in
//! at least `2b+1` vertices, so the system is b-masking (Proposition 7.1); the
//! straight-line access strategy gives load `≤ 2√((2b+1)/n)` — optimal
//! (Proposition 7.2); and, uniquely among the paper's constructions, the crash
//! probability vanishes exponentially for *every* `p < 1/2` by a percolation argument
//! (Proposition 7.3) — `F_p ≤ exp(−Ω(√n − √b))`.
//!
//! Operationally, whether a crash configuration leaves a quorum alive is *decided*
//! by the self-matching duality of the triangular lattice: `√(2b+1)` disjoint alive
//! crossings exist one way iff no crossing path the other way has fewer than
//! `√(2b+1)` alive vertices, which a capped 0-1 BFS from `bqs-graph` answers
//! without building a network ([`QuorumSystem::is_available`],
//! [`MPathSystem::contains_quorum`]). Quorum *discovery* — the paths themselves,
//! [`QuorumSystem::find_live_quorum`] — uses max-flow (Menger) on the node-split
//! grid, entered only once the decision says a quorum exists. The load-optimal
//! sampling strategy uses straight rows and columns only, exactly as in the proof of
//! Proposition 7.2.
//!
//! Crash-probability evaluation is **exact** up to grid side
//! [`EXACT_DP_MAX_SIDE`] via the transfer-matrix DP of
//! [`bqs_graph::crossing_dp`] (dispatched through
//! [`QuorumSystem::crash_probability_closed_form`] and tagged
//! [`FpMethod::Dp`]); sides up to [`PRUNED_DP_MAX_SIDE`] with at most
//! [`PRUNED_DP_MAX_PATHS`] paths per direction get a **certified enclosure**
//! from the ε-pruned sweep (tagged [`FpMethod::DpPruned`], with the rigorous
//! `[lower, upper]` carried on the estimate); larger grids — or wider path
//! counts, whose interface alphabet explodes — fall back to Monte-Carlo,
//! since exact crossing probabilities are exponential in `√n` for every
//! known method.

use std::cell::RefCell;

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::eval::FpMethod;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_graph::crossing_dp::{
    min_crossing_cost_capped, mpath_crash_probability_exact, mpath_crash_probability_pruned,
    mpath_crash_probability_pruned_grid, CrossingScratch, ProbabilityInterval,
};
use bqs_graph::disjoint_paths::{
    find_disjoint_paths, find_straight_disjoint_paths, min_price_crossing,
};
use bqs_graph::grid::{Axis, TriangulatedGrid};

use crate::AnalyzedConstruction;

/// Largest grid side for which [`MPathSystem::crash_probability_exact`] runs
/// the transfer-matrix sweep of [`bqs_graph::crossing_dp`] by default. The
/// DP's interface-state count is exponential in the side (like every known
/// exact method for crossing probabilities). Up to side 6 (`n = 36`, already
/// beyond the `2^25` enumeration limit) a sweep point costs milliseconds to
/// half a second on one core (side 6: 0.5 s at `k = 2`, 0.35 s at `k = 3`).
/// An unpruned side-7 sweep at `k = 2` takes 8.5 s and fits the pruned
/// budget, but side 7 is dispatched to the ε-pruned sweep (7 s, certified to
/// `2e-13`), so the exact gate stays where its cost is interactive.
pub const EXACT_DP_MAX_SIDE: usize = 6;

/// Interface-state budget handed to the transfer-matrix sweep; at
/// [`EXACT_DP_MAX_SIDE`] the worst case (`k = 4`, `p ≈ 1/2`) stays well
/// within it.
pub const EXACT_DP_STATE_BUDGET: usize = 4_000_000;

/// Largest grid side dispatched to the **ε-pruned** transfer-matrix sweep
/// ([`MPathSystem::crash_probability_pruned`], tagged
/// [`FpMethod::DpPruned`]). Past [`EXACT_DP_MAX_SIDE`] the exact state set
/// explodes, but the mass distribution over interface states is so skewed
/// that dropping states below [`PRUNED_DP_EPSILON`] certifies `F_p` to
/// widths orders of magnitude under `1e-9` at paper-scale `p` (measured at
/// the dispatch settings: `2e-13` at side 7 and `9e-12` at side 8 for a
/// single point at `p = 0.125`; grid sweeps certify tighter still — a state
/// survives if *any* lane keeps it). Sides 9–10 remain
/// reachable through [`bqs_graph::crossing_dp`] directly with a
/// caller-chosen ε and budget, but a single sweep there costs a quarter of
/// an hour on one core at side 9 (certifying `2e-10` at `p = 0.125` with the
/// dispatch ε) and more at side 10, so the evaluator hands them to
/// Monte-Carlo with Wilson bounds instead.
pub const PRUNED_DP_MAX_SIDE: usize = 8;

/// Surviving-state budget handed to the ε-pruned sweep. Sized so that at
/// [`PRUNED_DP_MAX_SIDE`] with [`PRUNED_DP_EPSILON`] forced budget pruning
/// never fires and ε alone controls the certified width (the forced-prune
/// path yields uselessly wide intervals: the mass the budget evicts is not
/// concentrated in few states). The budget still bounds memory, not
/// correctness: overflow is force-pruned into the interval width rather
/// than aborting (see
/// [`bqs_graph::crossing_dp::mpath_crash_probability_pruned`]).
pub const PRUNED_DP_STATE_BUDGET: usize = 1 << 26;

/// Mass floor for the dispatched ε-pruned sweep. The certified width
/// scales linearly in ε (states dropped per step ≈ states alive × ε), so
/// `1e-16` lands the side-8 widths two to six orders of magnitude under
/// the `1e-9` acceptance gate while keeping a side-7 sweep under 10 s and a
/// side-8 sweep under 2 min on one core (`BENCH_fp.json`: 9.0 s and 109 s,
/// widths `2.0e-13` and `9.1e-12`). The library default
/// ([`bqs_graph::crossing_dp::DEFAULT_PRUNE_EPSILON`] `= 1e-24`) is tighter
/// than needed here and roughly doubles the sweep time.
pub const PRUNED_DP_EPSILON: f64 = 1e-16;

/// Largest path count `k = ⌈√(2b+1)⌉` dispatched to the ε-pruned sweep.
/// Every dispatch measurement above (widths, sweep times) is at `k = 2`.
/// The interface alphabet grows with `k` (matrix entries range over
/// `0..=k`), but so does the share of states decided early: at the dispatch
/// ε and budget a `k = 3` sweep takes 10 s at side 7 and 3 min at side 8 on
/// one core and certifies `2e-13` and `8e-12` at `p = 0.125`. One point is
/// not a `p`-grid, and `k = 4` is unmeasured, so systems with `b ≥ 2`
/// (hence `k ≥ 3`) still decline the pruned entry and fall through to
/// Monte-Carlo with Wilson bounds.
pub const PRUNED_DP_MAX_PATHS: usize = 2;

/// The M-Path(b) quorum system over a triangulated `side × side` grid.
#[derive(Debug, Clone)]
pub struct MPathSystem {
    grid: TriangulatedGrid,
    b: usize,
    /// Paths per direction, `⌈√(2b+1)⌉`.
    paths: usize,
}

impl MPathSystem {
    /// Creates M-Path(b) on a `side × side` triangulated grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] unless `⌈√(2b+1)⌉ ≤ side` and the
    /// resilience `side − ⌈√(2b+1)⌉` is at least `b` (Proposition 7.1's condition
    /// `b ≤ √n − √2·n^{1/4}` up to rounding).
    pub fn new(side: usize, b: usize) -> Result<Self, QuorumError> {
        if side == 0 {
            return Err(QuorumError::InvalidParameters(
                "grid side must be positive".into(),
            ));
        }
        let paths = integer_sqrt_ceil(2 * b + 1);
        if paths > side {
            return Err(QuorumError::InvalidParameters(format!(
                "M-Path(b={b}) needs ceil(sqrt(2b+1)) = {paths} <= side = {side}"
            )));
        }
        if side - paths < b {
            return Err(QuorumError::InvalidParameters(format!(
                "M-Path(b={b}) resilience {} is below b (side={side})",
                side - paths
            )));
        }
        Ok(MPathSystem {
            grid: TriangulatedGrid::new(side),
            b,
            paths,
        })
    }

    /// Creates M-Path(b) for a universe of `n` servers (`n` a perfect square).
    ///
    /// # Errors
    ///
    /// Same as [`MPathSystem::new`] plus the perfect-square requirement.
    pub fn for_universe(n: usize, b: usize) -> Result<Self, QuorumError> {
        let side = (n as f64).sqrt().round() as usize;
        if side * side != n || side == 0 {
            return Err(QuorumError::InvalidParameters(format!(
                "universe size {n} is not a perfect square"
            )));
        }
        MPathSystem::new(side, b)
    }

    /// The largest `b` accepted on a `side × side` grid.
    #[must_use]
    pub fn max_b(side: usize) -> usize {
        (0..=side)
            .rev()
            .find(|&b| MPathSystem::new(side, b).is_ok())
            .unwrap_or(0)
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

    /// Disjoint paths required per direction, `⌈√(2b+1)⌉`.
    #[must_use]
    pub fn paths_per_direction(&self) -> usize {
        self.paths
    }

    /// The underlying triangulated grid.
    #[must_use]
    pub fn grid(&self) -> &TriangulatedGrid {
        &self.grid
    }

    /// Minimal transversal size `MT = √n − √(2b+1) + 1` (Proposition 7.1).
    #[must_use]
    pub fn min_transversal(&self) -> usize {
        self.grid.side() - self.paths + 1
    }

    /// Checks whether `candidate` contains an M-Path quorum: at least
    /// `⌈√(2b+1)⌉` vertex-disjoint LR crossings and as many TB crossings.
    #[must_use]
    pub fn contains_quorum(&self, candidate: &ServerSet) -> bool {
        self.has_disjoint_crossings(|v| candidate.contains(v))
    }

    /// The availability verdict for one configuration: `k = ⌈√(2b+1)⌉`
    /// disjoint alive crossings each way. By the self-matching duality that
    /// is "no top-bottom path with fewer than `k` alive vertices" (left-right
    /// flow) and the same with the axes swapped, so two searches capped at
    /// `k` decide it — on an available configuration each visits only the
    /// vertices within cost `k` of its source side.
    fn has_disjoint_crossings(&self, alive: impl Fn(usize) -> bool) -> bool {
        thread_local! {
            /// `is_available` is the innermost call of every Monte-Carlo
            /// trial and enumeration step and has no scratch parameter.
            static SCRATCH: RefCell<CrossingScratch> = RefCell::default();
        }
        let (side, k) = (self.grid.side(), self.paths);
        SCRATCH.with_borrow_mut(|scratch| {
            min_crossing_cost_capped(side, &alive, Axis::TopBottom, k, scratch) >= k
                && min_crossing_cost_capped(side, &alive, Axis::LeftRight, k, scratch) >= k
        })
    }

    fn to_mask(&self, set: &ServerSet) -> Vec<bool> {
        (0..self.grid.num_vertices())
            .map(|v| set.contains(v))
            .collect()
    }

    /// The straight-line quorum made of the given rows (LR crossings) and
    /// columns (TB crossings) — the quorum shape of Proposition 7.2's
    /// access strategy, shared by the pricing oracle and the warm-start
    /// family.
    fn straight_union(&self, rows: &[usize], cols: &[usize]) -> ServerSet {
        let mut out = ServerSet::new(self.universe_size());
        for &r in rows {
            for v in self.grid.straight_path(Axis::LeftRight, r) {
                out.insert(v);
            }
        }
        for &c in cols {
            for v in self.grid.straight_path(Axis::TopBottom, c) {
                out.insert(v);
            }
        }
        out
    }

    /// Exact crash probability by the boundary-interface transfer-matrix DP of
    /// [`bqs_graph::crossing_dp`]: the probability that the grid does not
    /// simultaneously contain `⌈√(2b+1)⌉` vertex-disjoint alive left-right
    /// crossings and as many top-bottom crossings, computed by a column sweep
    /// over capped shortest-blocking-path matrices (exact to floating-point
    /// rounding; see the module docs for the self-matching duality it rests
    /// on).
    ///
    /// Returns `None` when `side >` [`EXACT_DP_MAX_SIDE`] or the sweep
    /// exceeds its state budget — the DP, like every known exact method for
    /// percolation crossing probabilities, is exponential in `√n`, so large
    /// grids still need Monte-Carlo.
    #[must_use]
    pub fn crash_probability_exact(&self, p: f64) -> Option<f64> {
        if self.grid.side() > EXACT_DP_MAX_SIDE {
            return None;
        }
        mpath_crash_probability_exact(self.grid.side(), self.paths, p, EXACT_DP_STATE_BUDGET)
    }

    /// Certified enclosure of the crash probability by the **ε-pruned**
    /// transfer-matrix sweep, for grids past the exact wall
    /// ([`EXACT_DP_MAX_SIDE`]`< side ≤`[`PRUNED_DP_MAX_SIDE`]): interface
    /// states below the mass floor — or beyond the state budget, lowest
    /// mass first — are dropped and their total mass is banked into the
    /// interval width, so the true `F_p` lies in the returned `[lower,
    /// upper]` by construction. At paper-scale `p` the width is orders of
    /// magnitude below `1e-9` (pinned in tests).
    ///
    /// Returns `None` outside the side range or above
    /// [`PRUNED_DP_MAX_PATHS`] paths per direction — small grids should use
    /// the exact sweep, larger grids and wider path counts Monte-Carlo.
    #[must_use]
    pub fn crash_probability_pruned(&self, p: f64) -> Option<ProbabilityInterval> {
        let side = self.grid.side();
        if !(EXACT_DP_MAX_SIDE + 1..=PRUNED_DP_MAX_SIDE).contains(&side)
            || self.paths > PRUNED_DP_MAX_PATHS
        {
            return None;
        }
        mpath_crash_probability_pruned(
            side,
            self.paths,
            p,
            PRUNED_DP_STATE_BUDGET,
            PRUNED_DP_EPSILON,
        )
    }

    /// The percolation-flavoured crash-probability upper bound used in the worked
    /// example of Section 8: combine the counting bound on the crossing probability
    /// (remark after Theorem B.1, valid for `p' < 1/3`) with the ACCFR interior-event
    /// inequality (Theorem B.3) at an intermediate `p < p' < 1/3`, and take the union
    /// bound over the two directions.
    ///
    /// Returns `None` in exactly two situations:
    ///
    /// 1. **`p ≥ 1/3`** — the counting bound on the crossing probability (the
    ///    remark after Theorem B.1) needs `3p' < 1` at some intermediate
    ///    `p' > p`, so no admissible `p'` exists at all;
    /// 2. **the counting bound is vacuous at every admissible `p'`** — on
    ///    small grids (or `p` close to `1/3`) the estimate
    ///    `1 − √n (3p')^{√n} / (1 − 3p')` can clamp to `0` for the whole
    ///    optimisation grid, e.g. `side = 3` at `p = 0.2`, leaving no finite
    ///    candidate.
    ///
    /// The asymptotic Proposition 7.3 still holds for all `p < 1/2`, but
    /// needs the full Menshikov-type theorem rather than a computable
    /// constant; callers wanting true values where the bound degenerates can
    /// use [`MPathSystem::crash_probability_exact`] on small grids.
    #[must_use]
    pub fn crash_probability_counting_bound(&self, p: f64) -> Option<f64> {
        if p >= 1.0 / 3.0 {
            return None;
        }
        let side = self.grid.side();
        let k_minus_1 = self.paths.saturating_sub(1);
        // Optimise the intermediate probability p' over a grid in (p, 1/3): larger p'
        // weakens the crossing bound but strengthens the ACCFR factor. The paper's
        // worked example uses p' = 1/7 for p = 1/8; the grid search recovers a value
        // at least that good.
        let mut best: Option<f64> = None;
        for step in 1..100 {
            let p_prime = p + (1.0 / 3.0 - p) * (step as f64 / 100.0);
            let crossing_at_p_prime =
                bqs_graph::percolation::crossing_probability_lower_bound(side, p_prime);
            if crossing_at_p_prime <= 0.0 {
                continue;
            }
            let interior = bqs_graph::percolation::interior_event_lower_bound(
                crossing_at_p_prime,
                p,
                p_prime,
                k_minus_1,
            );
            let bound = (2.0 * (1.0 - interior)).min(1.0);
            best = Some(best.map_or(bound, |b: f64| b.min(bound)));
        }
        best
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

impl QuorumSystem for MPathSystem {
    fn universe_size(&self) -> usize {
        self.grid.num_vertices()
    }

    fn name(&self) -> String {
        format!("M-Path(n={}, b={})", self.grid.num_vertices(), self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        // Proposition 7.2's strategy: straight rows and columns chosen uniformly.
        let side = self.grid.side();
        let rows = rand::seq::index::sample(rng, side, self.paths);
        let cols = rand::seq::index::sample(rng, side, self.paths);
        let mut out = ServerSet::new(self.universe_size());
        for r in rows.iter() {
            for v in self.grid.straight_path(Axis::LeftRight, r) {
                out.insert(v);
            }
        }
        for c in cols.iter() {
            for v in self.grid.straight_path(Axis::TopBottom, c) {
                out.insert(v);
            }
        }
        out
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        if !self.is_available(alive) {
            return None;
        }
        let mask = self.to_mask(alive);
        // Fast path: enough fully-alive straight lines.
        let straight_lr =
            find_straight_disjoint_paths(&self.grid, &mask, Axis::LeftRight, self.paths);
        let straight_tb =
            find_straight_disjoint_paths(&self.grid, &mask, Axis::TopBottom, self.paths);
        let lr = if straight_lr.len() == self.paths {
            straight_lr
        } else {
            find_disjoint_paths(&self.grid, &mask, Axis::LeftRight, self.paths)
        };
        if lr.len() < self.paths {
            return None;
        }
        let tb = if straight_tb.len() == self.paths {
            straight_tb
        } else {
            find_disjoint_paths(&self.grid, &mask, Axis::TopBottom, self.paths)
        };
        if tb.len() < self.paths {
            return None;
        }
        let mut out = ServerSet::new(self.universe_size());
        for p in lr.iter().chain(tb.iter()) {
            for &v in p {
                out.insert(v);
            }
        }
        Some(out)
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        self.has_disjoint_crossings(|v| alive.contains(v))
    }

    fn is_available_u64(&self, alive: u64, _scratch: &mut ServerSet) -> bool {
        self.has_disjoint_crossings(|v| alive >> v & 1 == 1)
    }

    fn crash_probability_closed_form(&self, p: f64) -> Option<f64> {
        self.crash_probability_exact(p)
    }

    fn crash_probability_closed_form_batch(&self, ps: &[f64]) -> Option<Vec<f64>> {
        if self.grid.side() > EXACT_DP_MAX_SIDE {
            return None;
        }
        // One transfer-matrix sweep for the whole grid: the interface state
        // space depends only on (side, k), so every point shares the
        // enumeration and pays only its own multiply-adds. Bit-identical to
        // per-point evaluation (pinned in bqs-graph's tests).
        bqs_graph::crossing_dp::mpath_crash_probability_exact_grid(
            self.grid.side(),
            self.paths,
            ps,
            EXACT_DP_STATE_BUDGET,
        )
    }

    fn closed_form_method(&self) -> FpMethod {
        // The "closed form" is the transfer-matrix sweep, not an algebraic
        // expression — tag it so dispatch tables and benchmarks can tell.
        FpMethod::Dp
    }

    fn crash_probability_interval(&self, p: f64) -> Option<(f64, f64)> {
        self.crash_probability_pruned(p)
            .map(|iv| (iv.lower, iv.upper))
    }

    fn crash_probability_interval_batch(&self, ps: &[f64]) -> Option<Vec<(f64, f64)>> {
        let side = self.grid.side();
        if !(EXACT_DP_MAX_SIDE + 1..=PRUNED_DP_MAX_SIDE).contains(&side)
            || self.paths > PRUNED_DP_MAX_PATHS
        {
            return None;
        }
        // One pruned sweep for the whole grid; each lane keeps its own
        // discarded-mass total so every interval is certified for its own p.
        // (A state survives if any lane keeps it, so batch intervals can be
        // *tighter* than per-point ones — never less rigorous.)
        mpath_crash_probability_pruned_grid(
            side,
            self.paths,
            ps,
            PRUNED_DP_STATE_BUDGET,
            PRUNED_DP_EPSILON,
        )
        .map(|ivs| ivs.into_iter().map(|iv| (iv.lower, iv.upper)).collect())
    }

    fn min_quorum_size(&self) -> usize {
        // Straight-line quorums: `paths` rows and `paths` columns overlapping in
        // paths² cells; shortest possible quorums use shortest crossings, which on
        // the triangulated grid are exactly the straight lines.
        2 * self.paths * self.grid.side() - self.paths * self.paths
    }
}

impl MinWeightQuorumOracle for MPathSystem {
    /// Exact pricing over the **straight-line quorum family** of
    /// Proposition 7.2 — the `⌈√(2b+1)⌉` rows × `⌈√(2b+1)⌉` columns unions
    /// that the load-optimal access strategy actually uses — via the same
    /// enumeration as the M-Grid oracle.
    ///
    /// Restricting the family loses nothing for load purposes: Theorem 4.1
    /// lower-bounds the *full* system's load by `c(Q)/n`, the straight-line
    /// family's uniform strategy achieves exactly that, and adding the
    /// (longer) bent-path quorums can only leave the optimum unchanged — so
    /// the certified value over this family **is** `L(M-Path)`. Bent paths
    /// are also individually dominated under any price vector down to the
    /// overlap term: `k ·` [`min_price_crossing`] (Dijkstra over the priced
    /// triangular lattice) lower-bounds any quorum's one-directional path
    /// system, which the tests pin against this oracle's answers.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let side = self.grid.side();
        let (rows, cols, price) = crate::square::min_price_rows_and_columns(
            side,
            prices,
            self.paths,
            self.paths,
            crate::mgrid::ORACLE_SUBSET_BUDGET,
        )?;
        debug_assert!(
            price + 1e-9
                >= self.paths as f64
                    * min_price_crossing(&self.grid, prices, Axis::LeftRight)
                        .max(min_price_crossing(&self.grid, prices, Axis::TopBottom)),
            "straight-line oracle undercut the Dijkstra crossing bound"
        );
        Some((self.straight_union(&rows, &cols), price))
    }

    /// All cyclic row-window × column-window straight-line quorums — the
    /// explicit form of Proposition 7.2's access strategy, balanced so the
    /// uniform mixture achieves `c(Q)/n` exactly.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some(crate::square::balanced_line_strategy(
            self.grid.side(),
            self.paths,
            self.paths,
            |rows, cols| self.straight_union(rows, cols),
        ))
    }
}

impl AnalyzedConstruction for MPathSystem {
    fn masking_b(&self) -> usize {
        self.b
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    fn analytic_load(&self) -> f64 {
        // Proposition 7.2: L <= 2 sqrt(2b+1) / sqrt(n); the straight-line strategy
        // achieves c(Q)/n with c = 2*paths*side - paths^2.
        self.min_quorum_size() as f64 / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        self.crash_probability_counting_bound(p)
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
    fn parameter_validation() {
        assert!(MPathSystem::new(9, 4).is_ok());
        assert!(MPathSystem::new(0, 1).is_err());
        assert!(MPathSystem::new(3, 5).is_err());
        // Resilience constraint: side=4, b=3 -> paths=3, side-paths=1 < 3.
        assert!(MPathSystem::new(4, 3).is_err());
        assert!(MPathSystem::for_universe(81, 4).is_ok());
        assert!(MPathSystem::for_universe(80, 4).is_err());
    }

    #[test]
    fn figure_3_instance() {
        // Figure 3: 9x9 grid, b = 4 -> 3 LR + 3 TB paths.
        let m = MPathSystem::new(9, 4).unwrap();
        assert_eq!(m.paths_per_direction(), 3);
        assert_eq!(m.universe_size(), 81);
        assert_eq!(m.min_quorum_size(), 2 * 3 * 9 - 9);
        assert_eq!(m.min_transversal(), 7);
        assert_eq!(AnalyzedConstruction::resilience(&m), 6);
    }

    #[test]
    fn sampled_quorums_are_quorums_and_intersect_enough() {
        let m = MPathSystem::new(7, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let q1 = m.sample_quorum(&mut rng);
            let q2 = m.sample_quorum(&mut rng);
            assert!(m.contains_quorum(&q1));
            assert!(q1.intersection_size(&q2) > 2 * m.b());
        }
    }

    #[test]
    fn load_is_optimal_up_to_factor_two() {
        for (side, b) in [(7usize, 3usize), (9, 4), (16, 7)] {
            let m = MPathSystem::new(side, b).unwrap();
            let n = m.universe_size();
            let load = m.analytic_load();
            let lower = load_lower_bound_universal(n, b);
            assert!(load >= lower - 1e-9, "side={side} b={b}");
            assert!(
                load <= 2.0 * ((2 * b + 1) as f64 / n as f64).sqrt() + 1e-9,
                "Proposition 7.2 upper bound violated: side={side} b={b} load={load}"
            );
        }
    }

    #[test]
    fn availability_with_scattered_failures() {
        let m = MPathSystem::new(6, 2).unwrap();
        let n = m.universe_size();
        assert!(m.is_available(&ServerSet::full(n)));
        // A few scattered crashes: the grid still percolates.
        let mut alive = ServerSet::full(n);
        alive.remove(7);
        alive.remove(14);
        alive.remove(21);
        let q = m.find_live_quorum(&alive).unwrap();
        assert!(q.is_subset_of(&alive));
        assert!(m.contains_quorum(&q));
        // Killing a full column severs all LR crossings.
        let mut dead = ServerSet::full(n);
        for r in 0..6 {
            dead.remove(r * 6 + 3);
        }
        assert!(!m.is_available(&dead));
    }

    #[test]
    fn live_quorum_uses_non_straight_paths_when_needed() {
        // Kill one cell in every row but keep the grid percolating: straight rows are
        // all broken but max-flow still finds disjoint crossings.
        let m = MPathSystem::new(6, 1).unwrap(); // needs 2 LR + 2 TB paths
        let n = m.universe_size();
        let mut alive = ServerSet::full(n);
        for r in 0..6 {
            alive.remove(r * 6 + (r % 2) * 3); // stagger the failures
        }
        let q = m.find_live_quorum(&alive);
        assert!(q.is_some(), "non-straight disjoint crossings should exist");
        let q = q.unwrap();
        assert!(q.is_subset_of(&alive));
        assert!(m.contains_quorum(&q));
    }

    #[test]
    fn exact_dp_matches_enumeration_on_small_instances() {
        // Bit-level parity of the transfer-matrix sweep against the engine's
        // full 2^n enumeration (which checks availability by max-flow), for
        // every feasible (side <= 4, b) instance.
        let eval = Evaluator::new();
        // Full p-grid on side 3; side 4 costs 2^16 max-flow availability
        // checks per point, so sample the grid more sparsely there.
        let cases: &[(usize, usize, &[f64])] = &[
            (3, 0, &[0.05, 0.125, 0.3, 0.5, 0.85]),
            (3, 1, &[0.05, 0.125, 0.3, 0.5, 0.85]),
            (4, 0, &[0.125, 0.5]),
            (4, 1, &[0.125, 0.5]),
        ];
        for &(side, b, ps) in cases {
            let m = MPathSystem::new(side, b).unwrap();
            for &p in ps {
                let dp = m.crash_probability_exact(p).unwrap();
                let enumerated = eval.exact(&m, p).unwrap();
                assert!(
                    (dp - enumerated).abs() < 1e-12,
                    "side={side} b={b} p={p}: dp {dp} vs enumerated {enumerated}"
                );
            }
        }
    }

    #[test]
    fn batched_dp_sweep_is_bit_identical_to_per_point() {
        // The p-grid sweep shares one interface-state enumeration across the
        // whole grid; every lane must still equal its solo evaluation to the
        // last bit, both directly and through the Evaluator sweep.
        let m = MPathSystem::new(4, 1).unwrap();
        let ps = [0.05, 0.125, 0.3, 0.5];
        let batch = m.crash_probability_closed_form_batch(&ps).unwrap();
        let eval = Evaluator::new();
        let swept = eval.sweep(&m, &ps);
        for ((&p, &b), est) in ps.iter().zip(&batch).zip(&swept) {
            let single = m.crash_probability_exact(p).unwrap();
            assert_eq!(b.to_bits(), single.to_bits(), "p={p}");
            assert_eq!(est.value.to_bits(), single.to_bits(), "p={p}");
            assert_eq!(est.method, FpMethod::Dp);
        }
        // Beyond the DP gate the batch declines as a whole.
        let big = MPathSystem::new(12, 3).unwrap();
        assert!(big.crash_probability_closed_form_batch(&ps).is_none());
    }

    #[test]
    fn engine_dispatches_mpath_to_dp() {
        let m = MPathSystem::new(4, 1).unwrap();
        let fp = Evaluator::new().crash_probability(&m, 0.125);
        assert_eq!(fp.method, FpMethod::Dp);
        assert!(fp.is_exact());
        assert_eq!(fp.method.label(), "dp");
        // Beyond the DP gate the closed form declines and the engine samples.
        let big = MPathSystem::new(12, 3).unwrap();
        assert!(big.crash_probability_exact(0.125).is_none());
        let fp_big = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&big, 0.125);
        assert_eq!(fp_big.method, FpMethod::MonteCarlo);
    }

    #[test]
    fn pruned_dispatch_boundaries_are_sharp() {
        // Below the exact wall the pruned entry declines (the exact sweep is
        // the right tool); above PRUNED_DP_MAX_SIDE it declines instantly so
        // the evaluator can fall through to Monte-Carlo.
        let small = MPathSystem::new(EXACT_DP_MAX_SIDE, 2).unwrap();
        assert!(small.crash_probability_pruned(0.125).is_none());
        let big = MPathSystem::new(PRUNED_DP_MAX_SIDE + 1, 2).unwrap();
        assert!(big.crash_probability_pruned(0.125).is_none());
        assert!(big.crash_probability_interval(0.125).is_none());
        assert!(big.crash_probability_interval_batch(&[0.125]).is_none());
        let fp = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&big, 0.125);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert!(!fp.is_certified());
        // Inside the side range but past the path gate (b = 3 gives k = 3,
        // minutes of sweep at side 8) the entry must decline *instantly* so
        // capped-effort evaluators — like the analysis sweeps — land on
        // Monte-Carlo, not a surprise DP.
        let wide = MPathSystem::new(PRUNED_DP_MAX_SIDE, 3).unwrap();
        assert!(wide.paths_per_direction() > PRUNED_DP_MAX_PATHS);
        assert!(wide.crash_probability_pruned(0.125).is_none());
        assert!(wide.crash_probability_interval(0.125).is_none());
        assert!(wide.crash_probability_interval_batch(&[0.125]).is_none());
        let fp_wide = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&wide, 0.125);
        assert_eq!(fp_wide.method, FpMethod::MonteCarlo);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "side-7 pruned sweeps take ≈7 s each in release and ~20× that without optimizations"
    )]
    fn engine_dispatches_past_exact_wall_to_pruned_dp() {
        // Side 7 (n = 49) is past both the 2^25 enumeration limit and the
        // exact-DP wall: the evaluator must return the certified ε-pruned
        // enclosure, not a Monte-Carlo estimate.
        let m = MPathSystem::new(7, 1).unwrap();
        let fp = Evaluator::new().crash_probability(&m, 0.125);
        assert_eq!(fp.method, FpMethod::DpPruned);
        assert!(fp.is_certified());
        assert!(!fp.is_exact());
        let (lower, upper) = fp.interval.unwrap();
        assert!(upper - lower <= 1e-9, "width {}", upper - lower);
        assert!(lower >= 0.0 && upper <= 1.0 && upper > 0.0);
        assert_eq!(fp.value.to_bits(), (0.5 * (lower + upper)).to_bits());
        // The sweep path shares one state enumeration across the p-grid and
        // must stay certified lane by lane.
        let ps = [0.05, 0.125];
        let swept = Evaluator::new().sweep(&m, &ps);
        for (est, &p) in swept.iter().zip(&ps) {
            assert_eq!(est.method, FpMethod::DpPruned, "p={p}");
            let (lo, up) = est.interval.unwrap();
            assert!(up - lo <= 1e-9, "p={p} width {}", up - lo);
        }
        // Per-point and batch runs agree far inside the certified widths.
        let (blo, bup) = swept[1].interval.unwrap();
        assert!((0.5 * (blo + bup) - fp.value).abs() <= 1e-9);
    }

    #[test]
    fn exact_dp_respects_paper_bounds_across_p_grid() {
        // The exact value must sit inside the paper's analytic envelope:
        // under the counting upper bound where that bound applies, and above
        // the resilience lower bound p^MT everywhere.
        for (side, b) in [(4usize, 1usize), (5, 1), (5, 2)] {
            let m = MPathSystem::new(side, b).unwrap();
            for i in [1usize, 3, 5, 7, 9, 13] {
                let p = i as f64 * 0.05;
                let exact = m.crash_probability_exact(p).unwrap();
                assert!((0.0..=1.0).contains(&exact), "side={side} b={b} p={p}");
                if let Some(upper) = m.crash_probability_counting_bound(p) {
                    assert!(
                        exact <= upper + 1e-12,
                        "side={side} b={b} p={p}: exact {exact} above bound {upper}"
                    );
                }
                let lower = bqs_core::bounds::crash_probability_lower_bound_resilience(
                    p,
                    m.min_transversal(),
                );
                assert!(
                    exact >= lower - 1e-12,
                    "side={side} b={b} p={p}: exact {exact} below lower bound {lower}"
                );
            }
        }
    }

    #[test]
    fn counting_bound_none_edges_are_documented_ones() {
        let m = MPathSystem::new(32, 7).unwrap();
        // Condition 1: p >= 1/3, inclusive at the edge.
        assert!(m.crash_probability_counting_bound(1.0 / 3.0).is_none());
        assert!(m.crash_probability_counting_bound(0.34).is_none());
        // Condition 2a: p < 1/3 but so close that the Theorem B.1 estimate
        // clamps to zero for every admissible intermediate p' — even on the
        // Section 8 grid (at p = 0.3 every p' in (0.3, 1/3) has
        // 32·(3p')³² / (1 − 3p') > 1).
        assert!(m.crash_probability_counting_bound(0.3).is_none());
        assert!(m.crash_probability_counting_bound(0.2).is_some());
        // Condition 2b: grids too small for the estimate at moderate p.
        let tiny = MPathSystem::new(3, 1).unwrap();
        assert!(tiny.crash_probability_counting_bound(0.2).is_none());
        assert!(tiny.crash_probability_counting_bound(0.01).is_some());
    }

    #[test]
    fn counting_bound_behaviour() {
        let m = MPathSystem::new(32, 7).unwrap();
        // Small p: bound should be far below 1 and decreasing in p.
        let b_low = m.crash_probability_counting_bound(0.01).unwrap();
        let b_mid = m.crash_probability_counting_bound(0.1).unwrap();
        assert!(b_low <= b_mid + 1e-12);
        assert!(b_low < 0.05, "b_low={b_low}");
        // Not applicable near or above 1/3.
        assert!(m.crash_probability_counting_bound(0.34).is_none());
    }

    #[test]
    fn section8_mpath_instance() {
        // Section 8: n = 1024, 4 LR + 4 TB paths -> b = 7, f = 29 (MT = 32 - 4 + 1).
        let m = MPathSystem::new(32, 7).unwrap();
        assert_eq!(m.paths_per_direction(), 4);
        assert_eq!(AnalyzedConstruction::resilience(&m), 28);
        // The paper reports Fp <= 0.001 using the estimate after Theorem B.1 with
        // p' = 1/7; the optimised counting bound must do at least as well.
        let fp = m.crash_probability_counting_bound(0.125).unwrap();
        assert!(fp <= 0.001, "fp={fp}");
        let load = m.analytic_load();
        assert!((load - 0.25).abs() < 0.05, "load={load}");
    }

    #[test]
    fn pricing_oracle_matches_straight_family_scan_and_crossing_bound() {
        // Reference: brute-force over all (rows, cols) straight unions.
        let m = MPathSystem::new(5, 2).unwrap(); // paths = ceil(sqrt(5)) = 3
        let k = m.paths_per_direction();
        let n = m.universe_size();
        for seed in 0..4u64 {
            let prices: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 43 + seed * 17 + 9) % 37) as f64 / 37.0)
                .collect();
            let (q, v) = m.min_weight_quorum(&prices).unwrap();
            let recomputed: f64 = q.iter().map(|u| prices[u]).sum();
            assert!((recomputed - v).abs() < 1e-12);
            let mut best = f64::INFINITY;
            for rows in bqs_combinatorics::subsets::KSubsets::new(5, k) {
                for cols in bqs_combinatorics::subsets::KSubsets::new(5, k) {
                    let mut total = 0.0;
                    for r in 0..5 {
                        for c in 0..5 {
                            if rows.contains(&r) || cols.contains(&c) {
                                total += prices[r * 5 + c];
                            }
                        }
                    }
                    best = best.min(total);
                }
            }
            assert!((v - best).abs() < 1e-12, "seed={seed}: {v} vs {best}");
            // The Dijkstra bound over the priced lattice never exceeds the
            // straight-line optimum (bent paths only help the bound).
            let dij = min_price_crossing(m.grid(), &prices, Axis::LeftRight)
                .max(min_price_crossing(m.grid(), &prices, Axis::TopBottom));
            assert!(k as f64 * dij <= v + 1e-9, "seed={seed}");
        }
    }

    #[test]
    fn certified_load_matches_proposition_7_2_at_section8_scale() {
        // n = 1024, b = 7 (Section 8): Theorem 4.1 gives L >= c/n and the
        // straight-line strategy achieves it; the certified LP must land on
        // exactly that value.
        let m = MPathSystem::new(32, 7).unwrap();
        let certified = optimal_load_oracle(&m).unwrap();
        assert!(
            (certified.load - m.analytic_load()).abs() <= 1e-9,
            "certified {} vs analytic {}",
            certified.load,
            m.analytic_load()
        );
        assert!(certified.gap <= 1e-9, "gap={}", certified.gap);
        // Every strategy quorum must be a genuine M-Path quorum.
        for q in &certified.quorums {
            assert!(m.contains_quorum(q));
        }
    }

    #[test]
    fn monte_carlo_crash_probability_small_below_half() {
        let m = MPathSystem::new(8, 2).unwrap();
        let mc = Evaluator::new().with_seed(33);
        let est_low = mc.monte_carlo_with(&m, 0.05, 200);
        let est_high = mc.monte_carlo_with(&m, 0.6, 200);
        assert!(
            est_low.mean < 0.3,
            "Fp at p=0.05 should be small: {}",
            est_low.mean
        );
        assert!(
            est_high.mean > 0.7,
            "Fp at p=0.6 should be near 1: {}",
            est_high.mean
        );
    }

    #[test]
    fn max_b_is_consistent() {
        for side in [4usize, 6, 9, 12] {
            let b = MPathSystem::max_b(side);
            assert!(MPathSystem::new(side, b).is_ok(), "side={side} b={b}");
            assert!(MPathSystem::new(side, b + 1).is_err(), "side={side} b={b}");
        }
    }
}
