//! Regular (benign fault-tolerant) baseline systems.
//!
//! The paper's boosting technique (Section 6) turns *any* regular quorum system into
//! a b-masking one by composing it over a masking threshold. These baselines supply
//! the regular systems used in examples, tests and the boosting ablation:
//!
//! * [`MajoritySystem`] — quorums are all `⌊n/2⌋ + 1`-subsets (\[Tho79\]); maximal
//!   availability, poor load;
//! * [`RegularGridSystem`] — quorums are one full row plus one full column of a
//!   `√n × √n` grid ([Mae85, CAA92]); load `≈ 2/√n`, poor availability;
//! * [`SingletonSystem`] — a single distinguished server; the degenerate extreme.

use rand::RngCore;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::oracle::MinWeightQuorumOracle;
use bqs_core::quorum::{ExplicitQuorumSystem, QuorumSystem};

use crate::square::{min_price_rows_and_columns, SquareGrid};
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

/// The regular (non-masking) grid system: one full row plus one full column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegularGridSystem {
    grid: SquareGrid,
}

impl RegularGridSystem {
    /// Creates the row+column grid system on a `side × side` grid.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if `side == 0`.
    pub fn new(side: usize) -> Result<Self, QuorumError> {
        Ok(RegularGridSystem {
            grid: SquareGrid::new(side)?,
        })
    }

    /// The grid side.
    #[must_use]
    pub fn side(&self) -> usize {
        self.grid.side()
    }

    /// Materialises all `side²` quorums.
    ///
    /// # Errors
    ///
    /// Propagates explicit-system validation errors (none occur for valid grids).
    pub fn to_explicit(&self) -> Result<ExplicitQuorumSystem, QuorumError> {
        let side = self.grid.side();
        let mut quorums = Vec::with_capacity(side * side);
        for r in 0..side {
            for c in 0..side {
                quorums.push(self.grid.union_of(&[r], &[c]));
            }
        }
        Ok(ExplicitQuorumSystem::new(self.grid.universe_size(), quorums)?.with_name(self.name()))
    }
}

impl QuorumSystem for RegularGridSystem {
    fn universe_size(&self) -> usize {
        self.grid.universe_size()
    }

    fn name(&self) -> String {
        format!("RegularGrid(n={})", self.grid.universe_size())
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let side = self.grid.side();
        let r = rand::seq::index::sample(rng, side, 1).index(0);
        let c = rand::seq::index::sample(rng, side, 1).index(0);
        self.grid.union_of(&[r], &[c])
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        let rows = self.grid.fully_alive_rows(alive);
        let cols = self.grid.fully_alive_columns(alive);
        match (rows.first(), cols.first()) {
            (Some(&r), Some(&c)) => Some(self.grid.union_of(&[r], &[c])),
            _ => None,
        }
    }

    fn min_quorum_size(&self) -> usize {
        2 * self.grid.side() - 1
    }
}

impl MinWeightQuorumOracle for RegularGridSystem {
    /// Exact pricing of the cheapest one-row + one-column union.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        let (rows, cols, price) =
            min_price_rows_and_columns(self.grid.side(), prices, 1, 1, u128::MAX)?;
        Some((self.grid.union_of(&rows, &cols), price))
    }

    /// All row × column pairs: the uniform mixture loads every cell at
    /// exactly `(2·side − 1)/side²`.
    fn symmetric_strategy_hint(&self) -> Option<(Vec<ServerSet>, Vec<f64>)> {
        Some(crate::square::balanced_line_strategy(
            self.grid.side(),
            1,
            1,
            |rows, cols| self.grid.union_of(rows, cols),
        ))
    }
}

impl AnalyzedConstruction for RegularGridSystem {
    fn masking_b(&self) -> usize {
        0
    }

    fn resilience(&self) -> usize {
        // One cell per row hits every quorum (each holds a full row), so
        // MT = side and the system survives side - 1 crashes.
        self.grid.side() - 1
    }

    fn analytic_load(&self) -> f64 {
        self.min_quorum_size() as f64 / self.universe_size() as f64
    }

    fn crash_probability_upper_bound(&self, _p: f64) -> Option<f64> {
        None
    }

    fn crash_probability_lower_bound(&self, p: f64) -> Option<f64> {
        // One crash per row kills every quorum.
        let side = self.grid.side() as f64;
        Some((1.0 - (1.0 - p).powf(side)).powf(side))
    }
}

/// The degenerate single-server "system": every quorum is `{0, ..., size-1}`'s first
/// server. Used as an extreme baseline in load/availability comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingletonSystem {
    n: usize,
}

impl SingletonSystem {
    /// Creates the singleton system over `n ≥ 1` servers (server 0 is the quorum).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] when `n == 0`.
    pub fn new(n: usize) -> Result<Self, QuorumError> {
        if n == 0 {
            return Err(QuorumError::InvalidParameters(
                "universe must contain at least one server".into(),
            ));
        }
        Ok(SingletonSystem { n })
    }
}

impl QuorumSystem for SingletonSystem {
    fn universe_size(&self) -> usize {
        self.n
    }

    fn name(&self) -> String {
        format!("Singleton(n={})", self.n)
    }

    fn sample_quorum(&self, _rng: &mut dyn RngCore) -> ServerSet {
        ServerSet::from_indices(self.n, [0])
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        alive
            .contains(0)
            .then(|| ServerSet::from_indices(self.n, [0]))
    }

    fn min_quorum_size(&self) -> usize {
        1
    }
}

impl MinWeightQuorumOracle for SingletonSystem {
    /// The only quorum is `{0}`, whatever the prices.
    fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
        assert_eq!(prices.len(), self.n, "one price per server required");
        Some((ServerSet::from_indices(self.n, [0]), prices[0]))
    }
}

impl AnalyzedConstruction for SingletonSystem {
    fn masking_b(&self) -> usize {
        0
    }

    fn resilience(&self) -> usize {
        0
    }

    fn analytic_load(&self) -> f64 {
        1.0
    }

    fn crash_probability_upper_bound(&self, p: f64) -> Option<f64> {
        Some(p)
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
    fn regular_grid_parameters_and_availability() {
        let g = RegularGridSystem::new(4).unwrap();
        assert_eq!(g.universe_size(), 16);
        assert_eq!(g.min_quorum_size(), 7);
        assert_eq!(g.masking_b(), 0);
        let e = g.to_explicit().unwrap();
        assert_eq!(e.num_quorums(), 16);
        // Two row+column quorums on distinct rows and columns meet in exactly two
        // cells (each one's row crosses the other's column).
        assert_eq!(min_intersection_size(e.quorums()), 2);
        assert_eq!(masking_level(e.quorums(), 16), Some(0));
        // Load: fair system, 7/16.
        let (load, _) = optimal_load(e.quorums(), 16).unwrap();
        assert!((load - 7.0 / 16.0).abs() < 1e-6);
        // Availability needs a full row and a full column.
        let mut alive = ServerSet::full(16);
        alive.remove(0);
        assert!(g.is_available(&alive)); // rows 1..3 and columns 1..3 are intact
        for c in 0..4 {
            alive.remove(c); // kill all of row 0: every column now has a dead cell
        }
        assert!(!g.is_available(&alive));
        let mut diag = ServerSet::full(16);
        for i in 0..4 {
            diag.remove(i * 4 + i);
        }
        assert!(!g.is_available(&diag)); // no full row (or column) remains
    }

    #[test]
    fn regular_grid_resilience_matches_explicit() {
        let g = RegularGridSystem::new(3).unwrap();
        let e = g.to_explicit().unwrap();
        assert_eq!(
            bqs_core::transversal::resilience(e.quorums(), 9),
            AnalyzedConstruction::resilience(&g)
        );
    }

    #[test]
    fn singleton_behaviour() {
        let s = SingletonSystem::new(5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.sample_quorum(&mut rng).to_vec(), vec![0]);
        assert!(s.is_available(&ServerSet::from_indices(5, [0, 3])));
        assert!(!s.is_available(&ServerSet::from_indices(5, [1, 2, 3, 4])));
        assert_eq!(s.analytic_load(), 1.0);
        assert!(SingletonSystem::new(0).is_err());
    }

    #[test]
    fn baseline_oracles_certify_their_fair_loads() {
        let m = MajoritySystem::new(101).unwrap();
        let certified = optimal_load_oracle(&m).unwrap();
        assert!((certified.load - m.analytic_load()).abs() <= 1e-9);
        assert!(certified.gap <= 1e-9);

        let g = RegularGridSystem::new(12).unwrap();
        let certified = optimal_load_oracle(&g).unwrap();
        assert!((certified.load - g.analytic_load()).abs() <= 1e-9);
        assert!(certified.gap <= 1e-9);

        let s = SingletonSystem::new(5).unwrap();
        let certified = optimal_load_oracle(&s).unwrap();
        assert!((certified.load - 1.0).abs() <= 1e-12);
        assert!(certified.lower_bound >= 1.0 - 1e-9);
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
