//! The quorum-system abstraction and explicit quorum systems.
//!
//! A quorum system (Definition 3.1) is a collection of pairwise-intersecting subsets
//! of a universe of servers. Two representations coexist in this library:
//!
//! * [`ExplicitQuorumSystem`] materialises every quorum; all exact measures (load via
//!   LP, minimal transversal, exact crash probability) operate on it.
//! * The [`QuorumSystem`] trait is the *operational* interface — what a replicated
//!   data protocol or an availability simulation needs: sample a quorum under the
//!   system's access strategy, and find a live quorum given the set of responsive
//!   servers. Large structured constructions (M-Path, boostFPP, deep RT) implement it
//!   directly without enumerating their (exponentially many) quorums.

use rand::RngCore;

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::strategy::AccessStrategy;

/// Lane width of the batched availability check
/// ([`QuorumSystem::is_available_u64x4`]): four `u64` masks per call, the
/// `u64x4` shape the autovectorizer lifts onto 256-bit registers.
pub const AVAILABILITY_LANES: usize = 4;

/// Reusable per-lane scratch sets for batched word-level availability: one
/// [`ServerSet`] per lane so the *default* batched implementation (four
/// scalar calls) stays allocation-free, exactly like the scalar hot path.
#[derive(Debug, Clone)]
pub struct LaneScratch {
    lanes: [ServerSet; AVAILABILITY_LANES],
}

impl LaneScratch {
    /// Scratch for a universe of `capacity` servers.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LaneScratch {
            lanes: std::array::from_fn(|_| ServerSet::new(capacity)),
        }
    }

    /// Mutable access to one lane's scratch set.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= AVAILABILITY_LANES`.
    #[must_use]
    pub fn lane_mut(&mut self, lane: usize) -> &mut ServerSet {
        &mut self.lanes[lane]
    }
}

/// Operational interface to a quorum system over the universe `{0, ..., n-1}`.
///
/// Implementations must guarantee the quorum-system property: any two sets that
/// [`QuorumSystem::sample_quorum`] can return, or that
/// [`QuorumSystem::find_live_quorum`] can return, intersect.
///
/// The `Send + Sync` supertraits let the evaluation engine
/// ([`crate::eval::Evaluator`]) fan availability queries out across threads;
/// every implementation in the workspace is a plain data structure, so this
/// costs nothing.
pub trait QuorumSystem: Send + Sync {
    /// The number of servers `n = |U|`.
    fn universe_size(&self) -> usize;

    /// A short human-readable name (e.g. `"M-Grid(n=49, b=3)"`).
    fn name(&self) -> String;

    /// Samples a quorum according to the system's built-in access strategy (the
    /// load-optimal strategy where one is known).
    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet;

    /// Returns a quorum consisting entirely of servers in `alive`, or `None` if every
    /// quorum contains a non-responsive server (the system is unavailable under this
    /// failure configuration).
    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet>;

    /// True if some quorum survives within `alive`.
    ///
    /// Implementations should answer against the *borrowed* `alive` set without
    /// allocating: this is the innermost call of exact `F_p` enumeration and of
    /// every Monte-Carlo trial.
    fn is_available(&self, alive: &ServerSet) -> bool {
        self.find_live_quorum(alive).is_some()
    }

    /// Word-level availability for universes of at most 64 servers: `alive` is
    /// a raw bitmask over the universe. `scratch` is a caller-provided reusable
    /// set with the system's capacity, so the default implementation performs
    /// zero heap allocation per call.
    ///
    /// Structure-aware implementations (explicit mask lists, grids) override
    /// this to skip the `ServerSet` round-trip entirely.
    ///
    /// # Panics
    ///
    /// May panic if `scratch.capacity() != self.universe_size()` or the
    /// universe exceeds 64 servers.
    fn is_available_u64(&self, alive: u64, scratch: &mut ServerSet) -> bool {
        scratch.assign_mask_u64(alive);
        self.is_available(scratch)
    }

    /// Batched word-level availability: answers [`AVAILABILITY_LANES`] masks
    /// per call. This is the innermost call of exact `F_p` enumeration for
    /// systems without a count kernel
    /// ([`QuorumSystem::unavailable_profile_u64_range`]) — the engine walks
    /// the `2^n` configurations four at a time so that mask-list
    /// implementations can evaluate all four lanes inside one pass over their
    /// structure (a shape the autovectorizer lifts to SIMD).
    ///
    /// The default forwards to [`QuorumSystem::is_available_u64`] lane by
    /// lane, so overriding is purely a performance decision; implementations
    /// must return exactly what four scalar calls would.
    ///
    /// # Panics
    ///
    /// May panic under the same conditions as
    /// [`QuorumSystem::is_available_u64`].
    fn is_available_u64x4(
        &self,
        alive: [u64; AVAILABILITY_LANES],
        scratch: &mut LaneScratch,
    ) -> [bool; AVAILABILITY_LANES] {
        let mut out = [false; AVAILABILITY_LANES];
        for (lane, (&mask, slot)) in alive.iter().zip(&mut out).enumerate() {
            *slot = self.is_available_u64(mask, scratch.lane_mut(lane));
        }
        out
    }

    /// Structure-specialised count kernel: adds one to `profile[popcount(m)]`
    /// for every mask `m` in `start..end` for which the system is
    /// *unavailable* and returns `true`, or returns `false` (leaving
    /// `profile` untouched) when the system has no specialised kernel.
    ///
    /// This is the whole inner loop of exact `F_p` enumeration handed to the
    /// construction at once. The per-batch lane API
    /// ([`QuorumSystem::is_available_u64x4`]) cannot amortise anything across
    /// batches — each call re-derives its structure walk — whereas a range
    /// kernel need not visit every mask: when availability factors through
    /// a small summary of each half of a mask (popcount for Threshold, full
    /// rows and the column AND-fold for the grids), an aligned segment of
    /// masks sharing their high half is counted at once from a histogram of
    /// the low half.
    ///
    /// `profile` has `n + 1` counters (see
    /// [`crate::eval::AvailabilityProfile`]). However the kernel counts, the
    /// result must equal the per-mask count — one for every unavailable
    /// mask of the range, at its popcount — for every `start..end`,
    /// including ranges that start or end inside a segment. The counts are
    /// integers, so the kernel is free to visit the range in any order.
    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) -> bool {
        let _ = (start, end, profile);
        false
    }

    /// Exact crash probability in closed form, when the construction's
    /// structure admits one (`None` otherwise). Implementations must agree
    /// with exhaustive enumeration to within floating-point error; the
    /// evaluation engine uses this to skip enumeration entirely.
    fn crash_probability_closed_form(&self, _p: f64) -> Option<f64> {
        None
    }

    /// Batched form of [`QuorumSystem::crash_probability_closed_form`] over
    /// a grid of crash probabilities: `Some` with one value per point iff
    /// every point has a closed-form answer.
    ///
    /// The default evaluates point by point, which is right for algebraic
    /// closed forms (microseconds each). Constructions whose "closed form"
    /// is an expensive structure-aware computation with `p`-independent
    /// scaffolding override this to amortise it — the M-Path transfer-matrix
    /// DP enumerates its interface state space once for the whole grid.
    /// Implementations must return values bit-identical to the per-point
    /// method ([`crate::eval::Evaluator::sweep`] relies on it).
    fn crash_probability_closed_form_batch(&self, ps: &[f64]) -> Option<Vec<f64>> {
        ps.iter()
            .map(|&p| self.crash_probability_closed_form(p.clamp(0.0, 1.0)))
            .collect()
    }

    /// How [`QuorumSystem::crash_probability_closed_form`] answers are
    /// obtained, for the engine's method tagging: an algebraic closed form by
    /// default; constructions whose "closed form" is really a structure-aware
    /// exact dynamic program (M-Path's boundary-interface sweep) override this
    /// to [`crate::eval::FpMethod::Dp`].
    fn closed_form_method(&self) -> crate::eval::FpMethod {
        crate::eval::FpMethod::ClosedForm
    }

    /// A certified `(lower, upper)` enclosure of `F_p(Q)` when the
    /// construction can compute one more cheaply than exactly — e.g. the
    /// ε-pruned M-Path transfer-matrix sweep past its exact side wall. The
    /// engine consults this only after the closed form declines and exact
    /// enumeration is out of reach, tagging answers
    /// [`crate::eval::FpMethod::DpPruned`]. The bound must be *rigorous*
    /// (the true value inside `[lower, upper]`), not statistical.
    fn crash_probability_interval(&self, _p: f64) -> Option<(f64, f64)> {
        None
    }

    /// Batched form of [`QuorumSystem::crash_probability_interval`] over a
    /// grid of crash probabilities, with the same amortisation contract as
    /// [`QuorumSystem::crash_probability_closed_form_batch`]: `Some` iff
    /// every point has an enclosure, each lane bit-identical to its
    /// per-point answer.
    fn crash_probability_interval_batch(&self, ps: &[f64]) -> Option<Vec<(f64, f64)>> {
        ps.iter()
            .map(|&p| self.crash_probability_interval(p.clamp(0.0, 1.0)))
            .collect()
    }

    /// The cardinality `c(Q)` of the smallest quorum.
    fn min_quorum_size(&self) -> usize;
}

/// A quorum system given by an explicit list of quorums.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitQuorumSystem {
    universe_size: usize,
    quorums: Vec<ServerSet>,
    /// Quorums as raw `u64` masks, precompiled when the universe fits in one
    /// word — the fast path of the evaluation engine. Empty for `n > 64`.
    masks64: Vec<u64>,
    strategy: AccessStrategy,
    name: String,
}

impl ExplicitQuorumSystem {
    /// Builds an explicit quorum system over `universe_size` servers, validating the
    /// quorum-system property (non-empty, within the universe, pairwise intersecting).
    /// The access strategy defaults to uniform.
    ///
    /// # Errors
    ///
    /// Returns a [`QuorumError`] describing the first violated property.
    pub fn new(universe_size: usize, quorums: Vec<ServerSet>) -> Result<Self, QuorumError> {
        if quorums.is_empty() {
            return Err(QuorumError::EmptySystem);
        }
        for (i, q) in quorums.iter().enumerate() {
            if q.is_empty() {
                return Err(QuorumError::EmptyQuorum { index: i });
            }
            if q.capacity() != universe_size || q.iter().any(|u| u >= universe_size) {
                return Err(QuorumError::UniverseMismatch {
                    index: i,
                    universe_size,
                });
            }
        }
        for i in 0..quorums.len() {
            for j in (i + 1)..quorums.len() {
                if quorums[i].is_disjoint_from(&quorums[j]) {
                    return Err(QuorumError::NonIntersecting {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        let strategy = AccessStrategy::uniform(quorums.len())?;
        let masks64 = if universe_size <= 64 {
            quorums.iter().map(ServerSet::as_mask_u64).collect()
        } else {
            Vec::new()
        };
        Ok(ExplicitQuorumSystem {
            universe_size,
            quorums,
            masks64,
            strategy,
            name: "explicit".to_string(),
        })
    }

    /// Builds the system from quorums given as index lists (convenience).
    ///
    /// # Errors
    ///
    /// Same as [`ExplicitQuorumSystem::new`]; in particular an out-of-universe
    /// index yields [`QuorumError::UniverseMismatch`] for the offending quorum
    /// rather than a panic.
    pub fn from_indices<I, J>(universe_size: usize, quorums: I) -> Result<Self, QuorumError>
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = usize>,
    {
        let sets: Vec<ServerSet> = quorums
            .into_iter()
            .enumerate()
            .map(|(index, q)| {
                ServerSet::try_from_indices(universe_size, q).map_err(|_| {
                    QuorumError::UniverseMismatch {
                        index,
                        universe_size,
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        ExplicitQuorumSystem::new(universe_size, sets)
    }

    /// Renames the system (used by constructions that lower themselves to explicit
    /// form while keeping a descriptive name).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Installs an access strategy (replacing the default uniform one).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidStrategy`] if the strategy length does not match
    /// the number of quorums.
    pub fn set_strategy(&mut self, strategy: AccessStrategy) -> Result<(), QuorumError> {
        if strategy.len() != self.quorums.len() {
            return Err(QuorumError::InvalidStrategy(format!(
                "strategy covers {} quorums but the system has {}",
                strategy.len(),
                self.quorums.len()
            )));
        }
        self.strategy = strategy;
        Ok(())
    }

    /// The quorums of the system.
    #[must_use]
    pub fn quorums(&self) -> &[ServerSet] {
        &self.quorums
    }

    /// Number of quorums.
    #[must_use]
    pub fn num_quorums(&self) -> usize {
        self.quorums.len()
    }

    /// The currently-installed access strategy.
    #[must_use]
    pub fn strategy(&self) -> &AccessStrategy {
        &self.strategy
    }
}

impl QuorumSystem for ExplicitQuorumSystem {
    fn universe_size(&self) -> usize {
        self.universe_size
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        let idx = self.strategy.sample_index(rng);
        self.quorums[idx].clone()
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        self.quorums.iter().find(|q| q.is_subset_of(alive)).cloned()
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        // Unlike the default (via `find_live_quorum`), never clones the
        // surviving quorum: this runs once per crash configuration in exact
        // enumeration.
        self.quorums.iter().any(|q| q.is_subset_of(alive))
    }

    fn is_available_u64(&self, alive: u64, _scratch: &mut ServerSet) -> bool {
        // Hard assert (not debug): with n > 64 `masks64` is empty and the
        // loop below would silently report every configuration unavailable.
        assert!(
            self.universe_size <= 64,
            "is_available_u64 requires a universe of at most 64 servers (got {})",
            self.universe_size
        );
        self.masks64.iter().any(|&q| q & !alive == 0)
    }

    fn is_available_u64x4(
        &self,
        alive: [u64; AVAILABILITY_LANES],
        _scratch: &mut LaneScratch,
    ) -> [bool; AVAILABILITY_LANES] {
        assert!(
            self.universe_size <= 64,
            "is_available_u64x4 requires a universe of at most 64 servers (got {})",
            self.universe_size
        );
        // One pass over the quorum masks answers all four lanes: the subset
        // tests against the four alive words are independent, so the compiler
        // vectorises the inner block, and a single early exit fires once
        // every lane has found a live quorum.
        let miss: [u64; AVAILABILITY_LANES] = std::array::from_fn(|i| !alive[i]);
        let mut found = [false; AVAILABILITY_LANES];
        for &q in &self.masks64 {
            for (f, &m) in found.iter_mut().zip(&miss) {
                *f |= q & m == 0;
            }
            if found == [true; AVAILABILITY_LANES] {
                break;
            }
        }
        found
    }

    fn min_quorum_size(&self) -> usize {
        self.quorums.iter().map(ServerSet::len).min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn majority(n: usize) -> ExplicitQuorumSystem {
        // All subsets of size floor(n/2)+1.
        let k = n / 2 + 1;
        let quorums = bqs_combinatorics::subsets::KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect();
        ExplicitQuorumSystem::new(n, quorums).unwrap()
    }

    #[test]
    fn valid_system_constructs() {
        let q = majority(5);
        assert_eq!(q.universe_size(), 5);
        assert_eq!(q.num_quorums(), 10); // C(5,3)
        assert_eq!(q.min_quorum_size(), 3);
    }

    #[test]
    fn empty_system_rejected() {
        assert_eq!(
            ExplicitQuorumSystem::new(3, vec![]).unwrap_err(),
            QuorumError::EmptySystem
        );
    }

    #[test]
    fn empty_quorum_rejected() {
        let err = ExplicitQuorumSystem::new(3, vec![ServerSet::new(3)]).unwrap_err();
        assert_eq!(err, QuorumError::EmptyQuorum { index: 0 });
    }

    #[test]
    fn non_intersecting_rejected() {
        let err = ExplicitQuorumSystem::from_indices(4, [vec![0, 1], vec![2, 3]]).unwrap_err();
        assert_eq!(
            err,
            QuorumError::NonIntersecting {
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn universe_mismatch_rejected() {
        let bad = vec![ServerSet::from_indices(5, [0, 4])];
        let err = ExplicitQuorumSystem::new(4, bad).unwrap_err();
        assert!(matches!(err, QuorumError::UniverseMismatch { .. }));
    }

    #[test]
    fn find_live_quorum_respects_failures() {
        let q = majority(5);
        let all = ServerSet::full(5);
        assert!(q.is_available(&all));
        // Two crashes leave a majority of 3 alive.
        let alive = ServerSet::from_indices(5, [0, 2, 4]);
        let live = q.find_live_quorum(&alive).unwrap();
        assert!(live.is_subset_of(&alive));
        // Three crashes kill every majority quorum.
        let alive2 = ServerSet::from_indices(5, [1, 3]);
        assert!(q.find_live_quorum(&alive2).is_none());
        assert!(!q.is_available(&alive2));
    }

    #[test]
    fn sampling_returns_actual_quorums() {
        let q = majority(5);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let s = q.sample_quorum(&mut rng);
            assert!(q.quorums().contains(&s));
        }
    }

    #[test]
    fn strategy_replacement_validated() {
        let mut q = majority(3);
        assert!(q.set_strategy(AccessStrategy::uniform(2).unwrap()).is_err());
        assert!(q.set_strategy(AccessStrategy::uniform(3).unwrap()).is_ok());
        let named = q.clone().with_name("majority-3");
        assert_eq!(named.name(), "majority-3");
    }

    #[test]
    fn from_indices_convenience() {
        let q =
            ExplicitQuorumSystem::from_indices(3, [vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        assert_eq!(q.num_quorums(), 3);
        assert_eq!(q.min_quorum_size(), 2);
    }

    #[test]
    fn from_indices_out_of_universe_is_an_error_not_a_panic() {
        // Server 5 does not exist in a universe of 4: the offending quorum is
        // reported instead of panicking inside ServerSet::insert.
        let err = ExplicitQuorumSystem::from_indices(4, [vec![0, 1], vec![1, 5]]).unwrap_err();
        assert_eq!(
            err,
            QuorumError::UniverseMismatch {
                index: 1,
                universe_size: 4
            }
        );
    }

    #[test]
    fn explicit_word_level_availability_matches_set_availability() {
        let q = majority(6);
        let mut scratch = ServerSet::new(6);
        let mut reference = ServerSet::new(6);
        for mask in 0u64..(1 << 6) {
            reference.assign_mask_u64(mask);
            assert_eq!(
                q.is_available_u64(mask, &mut scratch),
                q.is_available(&reference),
                "mask={mask:#x}"
            );
        }
    }
}
