//! Strategy-driven access to a structured quorum system.
//!
//! The certified load engine ([`crate::load::optimal_load_oracle`]) returns a
//! [`CertifiedLoad`]: an explicit family of quorum columns together with the
//! [`AccessStrategy`] whose induced load *is* the certified `L(Q)`. To observe
//! that load empirically — in the `bqs-service` runtime — clients must sample
//! their access quorums from that strategy rather than from the
//! construction's built-in sampler.
//!
//! [`StrategicQuorumSystem`] is the bridge: it wraps any [`QuorumSystem`] and
//! overrides only quorum *sampling* (O(1) through the strategy's alias table),
//! while delegating availability queries — every `F_p` hook the evaluation
//! engine dispatches on included — and live-quorum fallback to the underlying
//! construction, whose structure-aware search covers the full quorum set
//! rather than just the strategy's columns.

use rand::RngCore;

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::eval::FpEstimate;
use crate::load::CertifiedLoad;
use crate::quorum::QuorumSystem;
use crate::strategy::AccessStrategy;

/// A quorum system whose access quorums are drawn from an explicit strategy
/// over quorum columns (typically the certified-optimal strategy of
/// [`CertifiedLoad`]), with every other query delegated to the wrapped system.
#[derive(Debug, Clone)]
pub struct StrategicQuorumSystem<S> {
    inner: S,
    quorums: Vec<ServerSet>,
    strategy: AccessStrategy,
}

impl<S: QuorumSystem> StrategicQuorumSystem<S> {
    /// Wraps `inner` with an explicit strategy over `quorums`.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidStrategy`] when the strategy length does
    /// not match the column count, or [`QuorumError::UniverseMismatch`] when a
    /// column ranges over a different universe than `inner`.
    pub fn new(
        inner: S,
        quorums: Vec<ServerSet>,
        strategy: AccessStrategy,
    ) -> Result<Self, QuorumError> {
        if strategy.len() != quorums.len() {
            return Err(QuorumError::InvalidStrategy(format!(
                "strategy covers {} quorums but {} columns were given",
                strategy.len(),
                quorums.len()
            )));
        }
        if quorums.is_empty() {
            return Err(QuorumError::EmptySystem);
        }
        let n = inner.universe_size();
        for (index, q) in quorums.iter().enumerate() {
            if q.capacity() != n {
                return Err(QuorumError::UniverseMismatch {
                    index,
                    universe_size: n,
                });
            }
        }
        Ok(StrategicQuorumSystem {
            inner,
            quorums,
            strategy,
        })
    }

    /// Wraps `inner` with the certified-optimal strategy of a
    /// [`CertifiedLoad`] produced for it — clients sampling through the result
    /// realise the certified `L(Q)` as their per-server access frequency.
    ///
    /// # Errors
    ///
    /// Same as [`StrategicQuorumSystem::new`] (a `certified` produced for a
    /// different system fails the universe check).
    pub fn from_certified(inner: S, certified: &CertifiedLoad) -> Result<Self, QuorumError> {
        StrategicQuorumSystem::new(inner, certified.quorums.clone(), certified.strategy.clone())
    }

    /// The wrapped construction.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The strategy's quorum columns.
    #[must_use]
    pub fn quorums(&self) -> &[ServerSet] {
        &self.quorums
    }

    /// The access strategy over [`StrategicQuorumSystem::quorums`].
    #[must_use]
    pub fn strategy(&self) -> &AccessStrategy {
        &self.strategy
    }

    /// The load the strategy induces on the busiest server — the empirical
    /// access frequency clients sampling through this system converge to.
    #[must_use]
    pub fn strategy_load(&self) -> f64 {
        self.strategy
            .induced_system_load(&self.quorums, self.inner.universe_size())
    }
}

impl<S: QuorumSystem> QuorumSystem for StrategicQuorumSystem<S> {
    fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    fn name(&self) -> String {
        format!("{} [strategic]", self.inner.name())
    }

    fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
        self.quorums[self.strategy.sample_index(rng)].clone()
    }

    fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
        // Deterministic fallback, used only after repeated strategy samples
        // hit unresponsive servers: the first live strategy column, then the
        // construction's full search. Note this concentrates fallback traffic
        // on one column's servers — under sustained crashes the empirical
        // load profile is *not* the strategy's (load experiments should keep
        // the responsive set quorum-complete, as the bench harness does).
        self.quorums
            .iter()
            .find(|q| q.is_subset_of(alive))
            .cloned()
            .or_else(|| self.inner.find_live_quorum(alive))
    }

    fn is_available(&self, alive: &ServerSet) -> bool {
        self.inner.is_available(alive)
    }

    fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) {
        self.inner
            .unavailable_profile_u64_range(start, end, profile);
    }

    fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
        self.inner.certified_crash_probabilities(ps)
    }

    fn min_quorum_size(&self) -> usize {
        self.inner.min_quorum_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, FpMethod};
    use crate::quorum::ExplicitQuorumSystem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn majority3() -> ExplicitQuorumSystem {
        ExplicitQuorumSystem::from_indices(3, [vec![0, 1], vec![0, 2], vec![1, 2]]).unwrap()
    }

    #[test]
    fn sampling_follows_the_installed_strategy() {
        let inner = majority3();
        let columns = vec![
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(3, [1, 2]),
        ];
        let strategy = AccessStrategy::new(vec![0.75, 0.25]).unwrap();
        let sys = StrategicQuorumSystem::new(inner, columns.clone(), strategy).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut first = 0usize;
        const N: usize = 8_000;
        for _ in 0..N {
            let q = sys.sample_quorum(&mut rng);
            assert!(columns.contains(&q));
            if q == columns[0] {
                first += 1;
            }
        }
        let frac = first as f64 / N as f64;
        assert!((frac - 0.75).abs() < 0.03, "frac {frac}");
        assert!((sys.strategy_load() - 1.0).abs() < 1e-12); // server 1 in both columns
    }

    #[test]
    fn live_quorum_prefers_columns_then_delegates() {
        let inner = majority3();
        let columns = vec![ServerSet::from_indices(3, [0, 1])];
        let strategy = AccessStrategy::uniform(1).unwrap();
        let sys = StrategicQuorumSystem::new(inner, columns, strategy).unwrap();
        // Column alive: returned directly.
        let alive = ServerSet::from_indices(3, [0, 1]);
        assert_eq!(
            sys.find_live_quorum(&alive).unwrap(),
            ServerSet::from_indices(3, [0, 1])
        );
        // Column dead but the inner system still has a live quorum.
        let alive = ServerSet::from_indices(3, [1, 2]);
        assert_eq!(
            sys.find_live_quorum(&alive).unwrap(),
            ServerSet::from_indices(3, [1, 2])
        );
        // Availability delegates to the full system.
        assert!(sys.is_available(&alive));
        assert!(!sys.is_available(&ServerSet::from_indices(3, [2])));
    }

    #[test]
    fn from_certified_realises_the_certified_load() {
        let inner = majority3();
        let certified = crate::load::optimal_load_oracle(&inner).unwrap();
        let sys = StrategicQuorumSystem::from_certified(inner, &certified).unwrap();
        assert!((sys.strategy_load() - certified.load).abs() < 1e-12);
        assert!((certified.load - 2.0 / 3.0).abs() < 1e-9);
    }

    /// `majority3` with both hooks the engine dispatches on: a count kernel
    /// (as Grid, M-Grid and Threshold have) that records its calls, and a
    /// certified interval (as M-Path has past its exact-DP wall).
    struct Hooked {
        inner: ExplicitQuorumSystem,
        kernel_calls: AtomicUsize,
    }

    impl QuorumSystem for Hooked {
        fn universe_size(&self) -> usize {
            3
        }
        fn name(&self) -> String {
            "hooked".into()
        }
        fn sample_quorum(&self, rng: &mut dyn RngCore) -> ServerSet {
            self.inner.sample_quorum(rng)
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            self.inner.find_live_quorum(alive)
        }
        fn unavailable_profile_u64_range(&self, start: u64, end: u64, profile: &mut [u64]) {
            self.kernel_calls.fetch_add(1, Ordering::Relaxed);
            for mask in start..end {
                profile[mask.count_ones() as usize] += u64::from(mask.count_ones() < 2);
            }
        }
        fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
            Some(
                ps.iter()
                    .map(|&p| FpEstimate::enclosure(p / 4.0, p / 2.0))
                    .collect(),
            )
        }
        fn min_quorum_size(&self) -> usize {
            2
        }
    }

    #[test]
    fn fp_dispatch_hooks_reach_the_wrapped_system() {
        let hooked = || Hooked {
            inner: majority3(),
            kernel_calls: AtomicUsize::new(0),
        };
        let columns = vec![ServerSet::from_indices(3, [0, 1])];
        let strategy = AccessStrategy::uniform(1).unwrap();
        let wrapped =
            StrategicQuorumSystem::new(hooked(), columns.clone(), strategy.clone()).unwrap();
        let bare = hooked();
        let eval = Evaluator::new();
        // Enumerable: the profile is the inner count kernel's, not the
        // default kernel's mask-by-mask walk.
        assert_eq!(
            eval.availability_profile(&wrapped).unwrap(),
            eval.availability_profile(&bare).unwrap()
        );
        assert!(wrapped.inner().kernel_calls.load(Ordering::Relaxed) > 0);
        // The inner enclosure, bit for bit, where an unforwarded hook falls
        // through to the profile.
        let through_wrapper = eval.crash_probability(&wrapped, 0.3);
        assert_eq!(through_wrapper.method, FpMethod::DpPruned);
        assert_eq!(through_wrapper, eval.crash_probability(&bare, 0.3));
        assert_eq!(through_wrapper.interval, Some((0.3 / 4.0, 0.3 / 2.0)));
        // An explicit quorum list's kernel — its four-mask scan — is reached
        // through the wrapper too.
        let explicit = StrategicQuorumSystem::new(majority3(), columns, strategy).unwrap();
        let mut through_kernel = vec![0u64; 4];
        explicit.unavailable_profile_u64_range(0, 8, &mut through_kernel);
        let naive = crate::availability::availability_profile_naive(&majority3()).unwrap();
        assert_eq!(through_kernel, naive.unavailable_by_alive());
        assert_eq!(eval.availability_profile(&explicit).unwrap(), naive);
    }

    #[test]
    fn validation_rejects_mismatches() {
        let strategy = AccessStrategy::uniform(1).unwrap();
        // Wrong universe.
        let err = StrategicQuorumSystem::new(
            majority3(),
            vec![ServerSet::from_indices(4, [0, 1])],
            strategy.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, QuorumError::UniverseMismatch { .. }));
        // Wrong length.
        let err = StrategicQuorumSystem::new(
            majority3(),
            vec![
                ServerSet::from_indices(3, [0, 1]),
                ServerSet::from_indices(3, [1, 2]),
            ],
            strategy,
        )
        .unwrap_err();
        assert!(matches!(err, QuorumError::InvalidStrategy(_)));
    }
}
