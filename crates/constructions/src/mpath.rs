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
//! [`QuorumSystem::find_live_quorum`] — takes fully-alive straight lines when
//! enough survive and otherwise, per axis, the `√(2b+1)` disjoint alive
//! crossings with the fewest servers from `bqs-graph`'s one path kernel
//! ([`min_cost_crossings`], successive shortest paths on the node-split grid),
//! entered only once the decision says a quorum exists. The sampling strategy
//! uses straight rows and columns only, exactly as in the proof of
//! Proposition 7.2.
//!
//! That strategy's load is an **upper bound** on `L(M-Path)`: bent crossings
//! can be shorter than straight lines, and no exact pricing oracle for them
//! exists yet. So the [`MinWeightQuorumOracle`] implementation declines, and
//! the column-generation load engine certifies no M-Path load.
//!
//! Crash-probability evaluation is **exact** up to grid side
//! [`EXACT_DP_MAX_SIDE`] via the transfer-matrix DP of
//! [`bqs_graph::crossing_dp`] (answered by
//! [`QuorumSystem::certified_crash_probabilities`] and tagged
//! [`FpMethod::Dp`]); sides up to `PRUNED_DP_MAX_SIDE` with at most
//! `PRUNED_DP_MAX_PATHS` paths per direction get a **certified enclosure**
//! from the ε-pruned sweep (tagged [`FpMethod::DpPruned`], with the rigorous
//! `[lower, upper]` carried on the estimate); larger grids — or wider path
//! counts, whose interface alphabet explodes — fall back to Monte-Carlo,
//! since exact crossing probabilities are exponential in `√n` for every
//! known method.

use std::cell::RefCell;

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::eval::{FpEstimate, FpMethod};
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::QuorumSystem;
use bqs_graph::crossing_dp::{min_crossing_cost_capped, mpath_crash_probability, CrossingScratch};
use bqs_graph::disjoint_paths::{find_straight_disjoint_paths, min_cost_crossings};
use bqs_graph::grid::{Axis, TriangulatedGrid};

use crate::grid::integer_sqrt_ceil;
use crate::square::SquareGrid;
use crate::AnalyzedConstruction;

/// Largest grid side for which the system answers `F_p` with the exact
/// transfer-matrix sweep of [`bqs_graph::crossing_dp`]. The
/// DP's interface-state count is exponential in the side (like every known
/// exact method for crossing probabilities). Up to side 6 (`n = 36`, already
/// beyond the `2^25` enumeration limit) a sweep point costs milliseconds to
/// about a quarter of a second (one point at `p = 0.125` on a 2-vCPU Xeon
/// virtual machine, side 6: 0.29 s at `k = 2` and 0.24 s at `k = 3` on one
/// core, 0.23 s and 0.16 s on two). An unpruned side-7 sweep at `k = 2`
/// takes 3.8 s on one core (3.1 s on two) and fits the pruned budget, but
/// side 7 is dispatched to the ε-pruned sweep (5.0 s on one core, 3.3 s on
/// two, certified to `2e-13`), so the exact gate stays where its cost is
/// interactive.
pub const EXACT_DP_MAX_SIDE: usize = 6;

/// Interface-state budget handed to the transfer-matrix sweep; at
/// [`EXACT_DP_MAX_SIDE`] the worst case (`k = 4`, `p ≈ 1/2`) stays well
/// within it.
pub const EXACT_DP_STATE_BUDGET: usize = 4_000_000;

/// Largest grid side answered by the **ε-pruned** transfer-matrix sweep
/// (tagged [`FpMethod::DpPruned`]). Past [`EXACT_DP_MAX_SIDE`] the exact state set
/// explodes, but the mass distribution over interface states is so skewed
/// that dropping states below [`PRUNED_DP_EPSILON`] certifies `F_p` to
/// widths orders of magnitude under `1e-9` at paper-scale `p` (measured at
/// the dispatch settings: `2e-13` at side 7 and `9e-12` at side 8 for a
/// single point at `p = 0.125`; grid sweeps certify tighter still — a state
/// survives if *any* lane keeps it). Sides 9–10 remain
/// reachable through [`bqs_graph::crossing_dp`] directly with a
/// caller-chosen ε and budget, but a single sweep there costs minutes and
/// gigabytes (the side-8, `k = 2` point already takes 51 s on one core and
/// peaks at 0.39 GB), so the evaluator hands them to Monte-Carlo with
/// Wilson bounds instead.
pub(crate) const PRUNED_DP_MAX_SIDE: usize = 8;

/// Surviving-state budget handed to the ε-pruned sweep. Sized so that at
/// `PRUNED_DP_MAX_SIDE` with [`PRUNED_DP_EPSILON`] forced budget pruning
/// never fires and ε alone controls the certified width (the forced-prune
/// path yields uselessly wide intervals: the mass the budget evicts is not
/// concentrated in few states). The budget still bounds memory, not
/// correctness: overflow is force-pruned into the interval width rather
/// than aborting (see
/// [`bqs_graph::crossing_dp::mpath_crash_probability`]).
pub const PRUNED_DP_STATE_BUDGET: usize = 1 << 26;

/// Mass floor for the dispatched ε-pruned sweep. The certified width
/// scales linearly in ε (states dropped per step ≈ states alive × ε), so
/// `1e-16` lands the side-8 widths two to six orders of magnitude under
/// the `1e-9` acceptance gate while keeping a side-7 sweep at a few seconds
/// and a side-8 sweep under a minute (one point at `p = 0.125` on a 2-vCPU
/// Xeon virtual machine: 5.0 s and 51 s on one core, 3.3 s and 43 s on two;
/// widths `2.0e-13` and `9.1e-12`). The library default
/// ([`bqs_graph::crossing_dp::DEFAULT_PRUNE_EPSILON`] `= 1e-24`) is tighter
/// than needed here.
pub const PRUNED_DP_EPSILON: f64 = 1e-16;

/// Largest path count `k = ⌈√(2b+1)⌉` dispatched to the ε-pruned sweep.
/// Every dispatch measurement above (widths, sweep times) is at `k = 2`.
/// The interface alphabet grows with `k` (matrix entries range over
/// `0..=k`), but so does the share of states decided early: at the dispatch
/// ε and budget a `k = 3` sweep at `p = 0.125` takes 5.3 s at side 7 and
/// 72 s at side 8 on one core of a 2-vCPU Xeon virtual machine (4.3 s and
/// 77 s on two, with a 0.75 GB peak at side 8) and certifies `2e-13` and
/// `8e-12`. One point is
/// not a `p`-grid, and `k = 4` is unmeasured, so systems with `b ≥ 2`
/// (hence `k ≥ 3`) past the exact wall still decline and fall through to
/// Monte-Carlo with Wilson bounds.
pub(crate) const PRUNED_DP_MAX_PATHS: usize = 2;

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

    /// `⌈√(2b+1)⌉` disjoint alive crossings along `axis`, or fewer if they do
    /// not exist: straight lines (Proposition 7.2's access shape) when enough
    /// are fully alive, else the crossings with the fewest servers.
    fn live_crossings(&self, alive: &[bool], axis: Axis) -> Vec<Vec<usize>> {
        let straight = find_straight_disjoint_paths(&self.grid, alive, axis, self.paths);
        if straight.len() == self.paths {
            return straight;
        }
        let prices: Vec<f64> = alive
            .iter()
            .map(|&a| if a { 1.0 } else { f64::INFINITY })
            .collect();
        min_cost_crossings(&self.grid, &prices, axis, self.paths)
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
    /// ask [`QuorumSystem::certified_crash_probabilities`] (the exact DP) on
    /// small grids.
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

impl QuorumSystem for MPathSystem {
    fn universe_size(&self) -> usize {
        self.grid.num_vertices()
    }

    fn name(&self) -> String {
        format!("M-Path(n={}, b={})", self.grid.num_vertices(), self.b)
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        // Proposition 7.2's strategy: straight rows and columns chosen
        // uniformly. The triangulated grid indexes its vertices row-major, so
        // a straight crossing is a whole row or column of the square of the
        // same side.
        let side = self.grid.side();
        let rows = rand::seq::index::sample(rng, side, self.paths).into_vec();
        let cols = rand::seq::index::sample(rng, side, self.paths).into_vec();
        SquareGrid::new(side)
            .expect("an M-Path grid has a positive side")
            .union_of(&rows, &cols)
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        if !self.is_available(alive) {
            return None;
        }
        let mask = self.to_mask(alive);
        let mut out = ServerSet::new(self.universe_size());
        for axis in [Axis::LeftRight, Axis::TopBottom] {
            let paths = self.live_crossings(&mask, axis);
            debug_assert_eq!(
                paths.len(),
                self.paths,
                "fewer {axis:?} crossings than the capped search promised"
            );
            for v in paths.into_iter().flatten() {
                out.insert(v);
            }
        }
        Some(out)
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        self.has_disjoint_crossings(|v| alive.contains(v))
    }

    /// `F_p` by the boundary-interface transfer-matrix DP of
    /// [`bqs_graph::crossing_dp`]: the probability that the grid does not
    /// simultaneously contain `⌈√(2b+1)⌉` vertex-disjoint alive left-right
    /// crossings and as many top-bottom crossings, computed by one column
    /// sweep over capped shortest-blocking-path matrices for the whole grid
    /// of points (the interface state space depends only on `(side, k)`).
    ///
    /// Up to [`EXACT_DP_MAX_SIDE`] the sweep is exact to floating-point
    /// rounding ([`FpMethod::Dp`]). Past it, up to `PRUNED_DP_MAX_SIDE`
    /// and `PRUNED_DP_MAX_PATHS` paths per direction, the ε-pruned sweep
    /// banks every dropped state's mass into a certified `[lower, upper]`
    /// ([`FpMethod::DpPruned`]); each lane keeps its own discarded mass, and
    /// a state survives if any lane keeps it, so a grid's enclosures can be
    /// *tighter* than single-point ones — never less rigorous. Larger grids,
    /// wider path counts and an exceeded exact budget decline at once: the
    /// DP, like every known exact method for percolation crossing
    /// probabilities, is exponential in `√n`.
    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        let (side, k) = (self.grid.side(), self.paths);
        if side <= EXACT_DP_MAX_SIDE {
            let lanes = mpath_crash_probability(side, k, ps, EXACT_DP_STATE_BUDGET, 0.0)?;
            return Some(
                lanes
                    .iter()
                    .map(|iv| FpEstimate::certain(iv.lower, FpMethod::Dp))
                    .collect(),
            );
        }
        if side > PRUNED_DP_MAX_SIDE || k > PRUNED_DP_MAX_PATHS {
            return None;
        }
        let lanes =
            mpath_crash_probability(side, k, ps, PRUNED_DP_STATE_BUDGET, PRUNED_DP_EPSILON)?;
        Some(
            lanes
                .iter()
                .map(|iv| FpEstimate::enclosure(iv.lower, iv.upper))
                .collect(),
        )
    }

    /// The size of Proposition 7.2's straight-line quorums, `paths` rows and
    /// `paths` columns overlapping in `paths²` cells. This is an **upper
    /// bound** on M-Path's `c(Q)`, not its value: bent crossings can be
    /// shorter, because a diagonal step advances along both axes (see
    /// `ROADMAP.md`, direction 1).
    fn min_quorum_size(&self) -> usize {
        2 * self.paths * self.grid.side() - self.paths * self.paths
    }
}

impl MinWeightQuorumOracle for MPathSystem {
    /// Always declines. The cheapest M-Path quorum is `⌈√(2b+1)⌉` disjoint
    /// crossings each way, bent ones included, and no exact minimiser over
    /// that family is implemented; pricing only the straight-line quorums
    /// would certify an upper bound as `L(M-Path)`.
    fn min_weight_quorum(&self, _prices: &[f64]) -> Option<(ServerSet, f64)> {
        None
    }
}

impl AnalyzedConstruction for MPathSystem {
    fn masking_b(&self) -> usize {
        self.b
    }

    fn resilience(&self) -> usize {
        self.min_transversal() - 1
    }

    /// The load `c/n` that Proposition 7.2's straight-line strategy induces,
    /// with `c` the straight-line quorum size
    /// ([`QuorumSystem::min_quorum_size`]). This is an **upper bound** on
    /// `L(M-Path)`, not its value (Proposition 7.2 states
    /// `L ≤ 2√(2b+1)/√n`): a strategy over shorter bent crossings may load
    /// the busiest server less.
    fn analytic_load(&self) -> f64 {
        self.min_quorum_size() as f64 / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        self.crash_probability_counting_bound(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::own_answer;
    use bqs_core::bounds::load_lower_bound_universal;
    use bqs_core::prelude::*;
    use bqs_graph::disjoint_paths::are_disjoint_crossings;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(MPathSystem::new(9, 4).is_ok());
        assert!(MPathSystem::new(0, 1).is_err());
        assert!(MPathSystem::new(3, 5).is_err());
        // Resilience constraint: side=4, b=3 -> paths=3, side-paths=1 < 3.
        assert!(MPathSystem::new(4, 3).is_err());
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
    fn sampled_quorums_are_unions_of_straight_crossings() {
        let m = MPathSystem::new(7, 3).unwrap();
        let (mut rng, mut twin) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
        for _ in 0..10 {
            let rows = rand::seq::index::sample(&mut twin, 7, 3).into_vec();
            let cols = rand::seq::index::sample(&mut twin, 7, 3).into_vec();
            let mut expected = ServerSet::new(m.universe_size());
            for &r in &rows {
                expected.extend(m.grid.straight_path(Axis::LeftRight, r));
            }
            for &c in &cols {
                expected.extend(m.grid.straight_path(Axis::TopBottom, c));
            }
            assert_eq!(m.sample_quorum(&mut rng), expected);
        }
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
        // all broken but the path kernel still finds disjoint crossings.
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
    fn bent_crossings_hold_a_quorum_of_six_servers() {
        // M-Path(3, 1) needs two crossings each way. The six servers off the
        // main diagonal hold bent LR crossings {3, 1, 2} and {6, 7, 5} and
        // bent TB crossings {1, 3, 6} and {2, 5, 7}, while every straight-line
        // quorum has eight servers (see `ROADMAP.md`, direction 1).
        let m = MPathSystem::new(3, 1).unwrap();
        let alive = ServerSet::from_indices(9, [1, 2, 3, 5, 6, 7]);
        assert!(m.is_available(&alive));
        let q = m.find_live_quorum(&alive).unwrap();
        assert!(q.is_subset_of(&alive));
    }

    #[test]
    fn live_crossings_have_the_fewest_servers_when_no_straight_line_survives() {
        // M-Path(4, 1) with one dead cell in every row and every column: no
        // straight line survives, so each axis's two crossings come from the
        // path kernel, and their total size is the least of any alive subset
        // holding two disjoint crossings that way (brute force over subsets,
        // decided by the capped search). Here that is 10, not 2 · 4: both
        // pairs must bend around the dead cells.
        let m = MPathSystem::new(4, 1).unwrap();
        let dead = [3usize, 5, 10, 12]; // (0,3), (1,1), (2,2), (3,0)
        let alive = ServerSet::from_indices(16, (0..16).filter(|v| !dead.contains(v)));
        let alive_bits: u32 = alive.iter().fold(0, |bits, v| bits | 1 << v);
        let mask = m.to_mask(&alive);
        let k = m.paths_per_direction();
        let mut scratch = CrossingScratch::default();
        let mut union = ServerSet::new(16);
        for axis in [Axis::LeftRight, Axis::TopBottom] {
            assert!(find_straight_disjoint_paths(m.grid(), &mask, axis, 1).is_empty());
            let paths = m.live_crossings(&mask, axis);
            assert!(are_disjoint_crossings(m.grid(), axis, &paths));
            assert!(paths.iter().flatten().all(|&v| mask[v]));
            let fewest = (0..=alive_bits)
                .filter(|&s| {
                    s & !alive_bits == 0
                        && min_crossing_cost_capped(
                            4,
                            |v| s >> v & 1 == 1,
                            axis.perpendicular(),
                            k,
                            &mut scratch,
                        ) >= k
                })
                .map(u32::count_ones)
                .min()
                .unwrap();
            let size: usize = paths.iter().map(Vec::len).sum();
            assert_eq!((size, fewest), (10, 10), "{axis:?}");
            for v in paths.into_iter().flatten() {
                union.insert(v);
            }
        }
        assert_eq!(m.find_live_quorum(&alive), Some(union));
    }

    #[test]
    fn exact_dp_matches_enumeration_on_small_instances() {
        // Bit-level parity of the transfer-matrix sweep against the engine's
        // full 2^n enumeration (which checks availability by the capped
        // search), for every feasible (side <= 4, b) instance.
        let eval = Evaluator::new();
        // Full p-grid on side 3; side 4 costs 2^16 availability checks per
        // point, so sample the grid more sparsely there.
        let cases: &[(usize, usize, &[f64])] = &[
            (3, 0, &[0.05, 0.125, 0.3, 0.5, 0.85]),
            (3, 1, &[0.05, 0.125, 0.3, 0.5, 0.85]),
            (4, 0, &[0.125, 0.5]),
            (4, 1, &[0.125, 0.5]),
        ];
        for &(side, b, ps) in cases {
            let m = MPathSystem::new(side, b).unwrap();
            for &p in ps {
                let dp = own_answer(&m, p).unwrap();
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
        let batch = m.certified_crash_probabilities(&ps).unwrap();
        let eval = Evaluator::new();
        let swept = eval.sweep(&m, &ps);
        for ((&p, b), est) in ps.iter().zip(&batch).zip(&swept) {
            let single = own_answer(&m, p).unwrap();
            assert_eq!(b.value.to_bits(), single.to_bits(), "p={p}");
            assert_eq!(est, b, "p={p}");
            assert_eq!(est.method, FpMethod::Dp);
        }
        // Beyond the DP gates the grid declines as a whole.
        let big = MPathSystem::new(12, 3).unwrap();
        assert!(big.certified_crash_probabilities(&ps).is_none());
    }

    #[test]
    fn engine_dispatches_mpath_to_dp() {
        let m = MPathSystem::new(4, 1).unwrap();
        let fp = Evaluator::new().crash_probability(&m, 0.125);
        assert_eq!(fp.method, FpMethod::Dp);
        assert!(fp.is_exact());
        assert_eq!(fp.method.label(), "dp");
        // Beyond the DP gates the hook declines and the engine samples.
        let big = MPathSystem::new(12, 3).unwrap();
        assert!(own_answer(&big, 0.125).is_none());
        let fp_big = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&big, 0.125);
        assert_eq!(fp_big.method, FpMethod::MonteCarlo);
    }

    #[test]
    fn pruned_dispatch_boundaries_are_sharp() {
        // Above PRUNED_DP_MAX_SIDE the hook declines instantly so the
        // evaluator can fall through to Monte-Carlo.
        let big = MPathSystem::new(PRUNED_DP_MAX_SIDE + 1, 2).unwrap();
        assert!(big.certified_crash_probabilities(&[0.125]).is_none());
        let fp = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&big, 0.125);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert!(!fp.is_certified());
        // Inside the side range but past the path gate (b = 3 gives k = 3,
        // minutes of sweep at side 8) the hook must decline *instantly* so
        // capped-effort evaluators — like the analysis sweeps — land on
        // Monte-Carlo, not a surprise DP.
        let wide = MPathSystem::new(PRUNED_DP_MAX_SIDE, 3).unwrap();
        assert!(wide.paths_per_direction() > PRUNED_DP_MAX_PATHS);
        assert!(wide.certified_crash_probabilities(&[0.125]).is_none());
        let fp_wide = Evaluator::new()
            .with_trials(50)
            .with_exact_limit(0)
            .crash_probability(&wide, 0.125);
        assert_eq!(fp_wide.method, FpMethod::MonteCarlo);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "side-7 pruned sweeps take seconds each in release and minutes without optimizations"
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
                let exact = own_answer(&m, p).unwrap();
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
    fn monte_carlo_crash_probability_small_below_half() {
        let m = MPathSystem::new(8, 2).unwrap();
        let mc = Evaluator::new().with_seed(33).with_trials(200);
        let est_low = mc.monte_carlo(&m, 0.05);
        let est_high = mc.monte_carlo(&m, 0.6);
        assert!(
            est_low.value < 0.3,
            "Fp at p=0.05 should be small: {}",
            est_low.value
        );
        assert!(
            est_high.value > 0.7,
            "Fp at p=0.6 should be near 1: {}",
            est_high.value
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
