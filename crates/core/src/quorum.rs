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
//!
//! Beyond that operational core the trait carries the two hooks the evaluation
//! engine ([`crate::eval::Evaluator`]) dispatches on, both with defaults: the
//! construction's own `F_p` answer over a whole `p`-grid
//! ([`QuorumSystem::certified_crash_probabilities`]: a closed form, an exact
//! DP or a certified enclosure; none by default), and the count kernel of
//! exact enumeration ([`QuorumSystem::unavailable_profile_u64_range`]: one
//! [`QuorumSystem::is_available`] call per mask by default), the only
//! word-level availability entry point.

use rand::RngCore;

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::eval::FpEstimate;
use crate::strategy::AccessStrategy;

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

    /// Count kernel for universes of at most 64 servers: adds one to
    /// `profile[popcount(m)]` for every alive-mask `m` in `start..end` for
    /// which the system is *unavailable*.
    ///
    /// This is the whole inner loop of exact `F_p` enumeration handed to the
    /// construction at once. The default asks
    /// [`QuorumSystem::is_available`] mask by mask through one reusable
    /// scratch set. A specialised kernel need not
    /// visit every mask: when availability factors through a small summary
    /// of each half of a mask (popcount for Threshold, full rows and the
    /// column AND-fold for the grids), an aligned segment of masks sharing
    /// their high half is counted at once from a histogram of the low half.
    /// An explicit quorum list answers several masks per pass over its
    /// quorums instead.
    ///
    /// `profile` has `n + 1` counters (see
    /// [`crate::eval::AvailabilityProfile`]). However the kernel counts, the
    /// result must equal the per-mask count — one for every unavailable
    /// mask of the range, at its popcount — for every `start..end`,
    /// including ranges that start or end inside a segment. The counts are
    /// integers, so the kernel is free to visit the range in any order.
    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) {
        let mut scratch = ServerSet::new(self.universe_size());
        for mask in start..end {
            scratch.assign_mask_u64(mask);
            profile[mask.count_ones() as usize] += u64::from(!self.is_available(&scratch));
        }
    }

    /// `F_p(Q)` at every point of `ps` without sampling, when the
    /// construction's structure answers it more cheaply than enumerating
    /// `2^n` crash configurations: one estimate per point, tagged
    /// [`FpMethod::ClosedForm`] (an algebraic closed form),
    /// [`FpMethod::Dp`] (an exact dynamic program) or [`FpMethod::DpPruned`]
    /// (a certified enclosure, [`FpEstimate::enclosure`]). `None` — the
    /// default — declines the whole grid, and the engine falls through to
    /// the availability profile, then Monte-Carlo.
    ///
    /// The engine calls this once per sweep with every point already
    /// clamped to `[0, 1]`, so constructions with `p`-independent
    /// scaffolding (the M-Path transfer-matrix sweep) build it once. An
    /// enclosure must be *rigorous* (the true value inside `[lower, upper]`),
    /// not statistical.
    ///
    /// [`FpMethod::ClosedForm`]: crate::eval::FpMethod::ClosedForm
    /// [`FpMethod::Dp`]: crate::eval::FpMethod::Dp
    /// [`FpMethod::DpPruned`]: crate::eval::FpMethod::DpPruned
    /// [`FpEstimate::enclosure`]: crate::eval::FpEstimate::enclosure
    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        let _ = ps;
        None
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
        // surviving quorum: this runs once per Monte-Carlo trial.
        self.quorums.iter().any(|q| q.is_subset_of(alive))
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) {
        // Hard assert (not debug): with n > 64 `masks64` is empty and the
        // scan below would silently count every configuration unavailable.
        assert!(
            self.universe_size <= 64,
            "unavailable_profile_u64_range requires a universe of at most 64 servers (got {})",
            self.universe_size
        );
        // One pass over the quorum masks answers four alive masks: the subset
        // tests against the four words are independent, so the compiler
        // vectorises the inner block, and a single early exit fires once
        // every lane has found a live quorum.
        let mut mask = start;
        while mask < end {
            let lanes = (end - mask).min(4) as usize;
            let miss: [u64; 4] = std::array::from_fn(|i| !mask.wrapping_add(i as u64));
            let mut found = [false; 4];
            found[lanes..].fill(true);
            for &q in &self.masks64 {
                for (f, &m) in found.iter_mut().zip(&miss) {
                    *f |= q & m == 0;
                }
                if found == [true; 4] {
                    break;
                }
            }
            for (i, &ok) in found[..lanes].iter().enumerate() {
                profile[(mask + i as u64).count_ones() as usize] += u64::from(!ok);
            }
            mask += lanes as u64;
        }
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
    fn with_name_renames_the_system() {
        let q = majority(3);
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
        let mut reference = ServerSet::new(6);
        // The four-mask count kernel equals the per-mask count on every
        // range, including ranges whose ends cut a group of four.
        for (start, end) in [(0, 64), (1, 7), (3, 3), (5, 62), (61, 64)] {
            let mut kernel = vec![0u64; 7];
            q.unavailable_profile_u64_range(start, end, &mut kernel);
            let mut per_mask = vec![0u64; 7];
            for mask in start..end {
                reference.assign_mask_u64(mask);
                per_mask[mask.count_ones() as usize] += u64::from(!q.is_available(&reference));
            }
            assert_eq!(kernel, per_mask, "{start}..{end}");
        }
    }
}
