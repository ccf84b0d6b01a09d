//! Re-certification: from a survivor mask to a certified epoch configuration.
//!
//! An [`EpochPlanner`] owns the candidate **quorum pools** — explicit quorum
//! lists of the constructions the deployment is willing to serve from (Grid,
//! M-Grid, a threshold system, …), all over one universe. When the suspicion
//! engine shrinks the universe, [`EpochPlanner::recertify`] re-runs the
//! column-generation load oracle over each pool restricted to the survivors
//! ([`optimal_load_oracle_for_survivors`]) and keeps the best certified load
//! — which is how a deployment *switches constructions* mid-life: if every
//! Grid quorum has a dead member but M-Grid quorums survive, the M-Grid pool
//! simply wins (the Grid pool returns [`QuorumError::EmptySystem`] and drops
//! out).
//!
//! When **every** pool is dead the planner falls back to a rotation system
//! built directly on the survivors: with `m` survivors and masking level
//! `b`, each quorum is a cyclic window of `q = ⌈(m + 2b + 1) / 2⌉`
//! survivors, so any two windows intersect in at least `2q − m ≥ 2b + 1`
//! servers — Definition 3.5's masking intersection holds by construction,
//! at load `q / m` (certified through the same oracle). Resilience is
//! traded for liveness; the certificate stays honest about the price.
//!
//! Quorums are always certified **over the original universe**: surviving
//! quorum columns keep full-universe server indices, dead servers simply
//! carry zero load, and the resulting strategy drops into the existing
//! transport and metrics layout with no index translation.

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_core::load::{
    optimal_load_oracle_for_quorums, optimal_load_oracle_for_survivors, CertifiedLoad,
};
use bqs_core::quorum::ExplicitQuorumSystem;
use bqs_core::strategic::StrategicQuorumSystem;

/// Where an epoch's strategy came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategySource {
    /// Re-certified from a registered quorum pool.
    Pool {
        /// Index into the planner's pool list.
        index: usize,
        /// The pool's registered name.
        name: String,
    },
    /// Every pool was dead: the rotation fallback built on the survivors.
    Rotation,
}

impl StrategySource {
    /// Stable machine name for logs and benchmark JSON.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            StrategySource::Pool { name, .. } => name,
            StrategySource::Rotation => "rotation_fallback",
        }
    }
}

/// One epoch's complete serving configuration: the surviving universe, the
/// masking level, and the certified strategy to serve it with.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// The epoch this configuration serves.
    pub epoch: u64,
    /// The surviving universe (a mask over the *original* universe — dead
    /// servers are absent, capacity is unchanged).
    pub universe: ServerSet,
    /// The masking level the strategy guarantees.
    pub b: usize,
    /// The certified strategy: quorum columns, access weights, load, and the
    /// duality-gap certificate.
    pub certified: CertifiedLoad,
    /// Which pool (or fallback) produced it.
    pub source: StrategySource,
}

impl EpochConfig {
    /// The certified system load `L(Q)` of this epoch's strategy.
    #[must_use]
    pub fn load(&self) -> f64 {
        self.certified.load
    }

    /// Size of the original universe (dead servers included).
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe.capacity()
    }

    /// Materialises the configuration as a strategy-driven quorum system the
    /// service clients and the open-loop generator sample from.
    ///
    /// # Errors
    ///
    /// Propagates [`QuorumError`] from system construction — impossible for
    /// a configuration built by a planner (its quorums already validated).
    pub fn strategic_system(
        &self,
    ) -> Result<StrategicQuorumSystem<ExplicitQuorumSystem>, QuorumError> {
        let inner =
            ExplicitQuorumSystem::new(self.universe.capacity(), self.certified.quorums.clone())?;
        StrategicQuorumSystem::from_certified(inner, &self.certified)
    }
}

/// One named candidate pool of quorums.
#[derive(Debug, Clone)]
struct QuorumPool {
    name: String,
    quorums: Vec<ServerSet>,
}

/// The re-certification planner: candidate pools plus the rotation fallback.
#[derive(Debug, Clone)]
pub struct EpochPlanner {
    universe_size: usize,
    b: usize,
    pools: Vec<QuorumPool>,
}

impl EpochPlanner {
    /// A planner over `universe_size` servers at masking level `b`, with no
    /// pools yet (recertification would go straight to the rotation
    /// fallback).
    ///
    /// # Panics
    ///
    /// Panics on an empty universe.
    #[must_use]
    pub fn new(universe_size: usize, b: usize) -> Self {
        assert!(universe_size > 0, "a planner needs a universe");
        EpochPlanner {
            universe_size,
            b,
            pools: Vec::new(),
        }
    }

    /// Registers a named candidate pool. Order is preference order only for
    /// tie-breaking: recertification keeps the pool with the lowest
    /// certified load, first-registered winning exact ties.
    ///
    /// # Panics
    ///
    /// Panics when a quorum's capacity does not match the universe.
    #[must_use]
    pub fn with_pool(mut self, name: impl Into<String>, quorums: Vec<ServerSet>) -> Self {
        assert!(
            quorums.iter().all(|q| q.capacity() == self.universe_size),
            "pool quorums must live in the planner's universe"
        );
        self.pools.push(QuorumPool {
            name: name.into(),
            quorums,
        });
        self
    }

    /// Size of the (original) universe.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// The masking level every certified epoch guarantees.
    #[must_use]
    pub fn masking_b(&self) -> usize {
        self.b
    }

    /// Number of registered pools.
    #[must_use]
    pub fn pools(&self) -> usize {
        self.pools.len()
    }

    /// The epoch-0 configuration: recertification over the full universe.
    ///
    /// # Errors
    ///
    /// As [`EpochPlanner::recertify`].
    pub(crate) fn initial_config(&self) -> Result<EpochConfig, QuorumError> {
        self.recertify(&ServerSet::full(self.universe_size), 0)
    }

    /// Produces the certified configuration for `epoch` over `survivors`:
    /// the best-load surviving pool, or the rotation fallback when no pool
    /// survives.
    ///
    /// # Errors
    ///
    /// * [`QuorumError::InvalidParameters`] when fewer than `2b + 1`
    ///   survivors remain — no quorum system over them can mask `b` faults,
    ///   so there is nothing safe to reconfigure *to*.
    /// * Certification failures from the load oracle.
    ///
    /// # Panics
    ///
    /// Panics when `survivors` lives in a different universe.
    pub fn recertify(&self, survivors: &ServerSet, epoch: u64) -> Result<EpochConfig, QuorumError> {
        assert_eq!(
            survivors.capacity(),
            self.universe_size,
            "survivor mask must cover the planner's universe"
        );
        let mut best: Option<(usize, &str, CertifiedLoad)> = None;
        for (index, pool) in self.pools.iter().enumerate() {
            let certified = match optimal_load_oracle_for_survivors(
                self.universe_size,
                &pool.quorums,
                survivors,
            ) {
                Ok(certified) => certified,
                Err(QuorumError::EmptySystem) => continue, // pool is dead
                Err(err) => return Err(err),
            };
            let better = best
                .as_ref()
                .is_none_or(|(_, _, incumbent)| certified.load < incumbent.load);
            if better {
                best = Some((index, &pool.name, certified));
            }
        }
        if let Some((index, name, certified)) = best {
            return Ok(EpochConfig {
                epoch,
                universe: survivors.clone(),
                b: self.b,
                certified,
                source: StrategySource::Pool {
                    index,
                    name: name.to_owned(),
                },
            });
        }
        let certified = optimal_load_oracle_for_quorums(
            self.universe_size,
            rotation_quorums(survivors, self.b)?,
        )?;
        Ok(EpochConfig {
            epoch,
            universe: survivors.clone(),
            b: self.b,
            certified,
            source: StrategySource::Rotation,
        })
    }
}

/// The rotation fallback: `m` cyclic windows of `q = ⌈(m + 2b + 1) / 2⌉`
/// over the sorted survivors. Any two windows of size `q` over `m` elements
/// intersect in at least `2q − m ≥ 2b + 1` servers, so the system is
/// `b`-masking by construction; its uniform load is `q / m`.
///
/// # Errors
///
/// [`QuorumError::InvalidParameters`] when `q > m` (fewer than `2b + 1`
/// survivors): no masking system over the survivors exists.
fn rotation_quorums(survivors: &ServerSet, b: usize) -> Result<Vec<ServerSet>, QuorumError> {
    let ordered: Vec<usize> = survivors.iter().collect();
    let m = ordered.len();
    let q = (m + 2 * b + 1).div_ceil(2);
    if q > m {
        return Err(QuorumError::InvalidParameters(format!(
            "rotation fallback needs at least 2b + 1 = {} survivors, got {m}",
            2 * b + 1
        )));
    }
    if q == m {
        // Every window is the whole survivor set.
        return Ok(vec![survivors.clone()]);
    }
    Ok((0..m)
        .map(|start| {
            ServerSet::from_indices(
                survivors.capacity(),
                (0..q).map(|offset| ordered[(start + offset) % m]),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::load::CERTIFIED_GAP_TOLERANCE;

    /// All `k`-subsets of `0..n` as quorums (the `k`-of-`n` threshold pool).
    fn k_of_n(n: usize, k: usize) -> Vec<ServerSet> {
        fn rec(n: usize, k: usize, start: usize, acc: &mut Vec<usize>, out: &mut Vec<ServerSet>) {
            if acc.len() == k {
                out.push(ServerSet::from_indices(n, acc.iter().copied()));
                return;
            }
            for i in start..n {
                acc.push(i);
                rec(n, k, i + 1, acc, out);
                acc.pop();
            }
        }
        let mut out = Vec::new();
        rec(n, k, 0, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn initial_config_certifies_the_best_pool_over_the_full_universe() {
        // Pool "wide" (4-of-5, load 4/5) vs pool "tight" (a single quorum of
        // all 5, load 1): the planner must keep the lower load.
        let planner = EpochPlanner::new(5, 1)
            .with_pool("all", vec![ServerSet::full(5)])
            .with_pool("wide", k_of_n(5, 4));
        let config = planner.initial_config().unwrap();
        assert_eq!(config.epoch, 0);
        assert_eq!(config.universe.len(), 5);
        assert!((config.load() - 0.8).abs() < 1e-6, "load {}", config.load());
        assert_eq!(
            config.source,
            StrategySource::Pool {
                index: 1,
                name: "wide".into()
            }
        );
        assert!(config.certified.gap <= CERTIFIED_GAP_TOLERANCE);
        let system = config.strategic_system().unwrap();
        assert!((system.strategy_load() - config.load()).abs() < 1e-9);
    }

    #[test]
    fn recertification_switches_pools_when_the_preferred_one_dies() {
        // Pool 0 contains server 4 in every quorum; pool 1 avoids it.
        let needs_4: Vec<ServerSet> = k_of_n(5, 4).into_iter().filter(|q| q.contains(4)).collect();
        let avoids_4 = vec![ServerSet::from_indices(5, [0, 1, 2, 3])];
        let planner = EpochPlanner::new(5, 1)
            .with_pool("needs-4", needs_4)
            .with_pool("avoids-4", avoids_4);
        let survivors = ServerSet::from_indices(5, [0, 1, 2, 3]);
        let config = planner.recertify(&survivors, 1).unwrap();
        assert_eq!(config.epoch, 1);
        assert_eq!(
            config.source,
            StrategySource::Pool {
                index: 1,
                name: "avoids-4".into()
            }
        );
        // One quorum of 4 over 4 survivors: load 1 on each survivor, zero on
        // the dead server.
        assert!((config.load() - 1.0).abs() < 1e-9);
        assert!(config
            .certified
            .quorums
            .iter()
            .all(|q| q.is_subset_of(&survivors) && q.capacity() == 5));
    }

    #[test]
    fn rotation_fallback_kicks_in_when_every_pool_is_dead_and_is_masking() {
        // The only pool needs server 0; survivors exclude it.
        let planner = EpochPlanner::new(7, 1).with_pool("dead", vec![ServerSet::full(7)]);
        let survivors = ServerSet::from_indices(7, [1, 2, 3, 4, 5, 6]);
        let config = planner.recertify(&survivors, 2).unwrap();
        assert_eq!(config.source, StrategySource::Rotation);
        // m = 6 survivors, q = ceil((6 + 3) / 2) = 5: load 5/6, and any two
        // windows intersect in >= 2q - m = 4 >= 2b + 1 = 3 servers.
        assert!(
            (config.load() - 5.0 / 6.0).abs() < 1e-6,
            "{}",
            config.load()
        );
        let quorums = &config.certified.quorums;
        assert_eq!(quorums.len(), 6);
        for (i, a) in quorums.iter().enumerate() {
            assert_eq!(a.len(), 5);
            assert!(a.is_subset_of(&survivors));
            for b_q in &quorums[i + 1..] {
                assert!(a.intersection_size(b_q) >= 3);
            }
        }
    }

    #[test]
    fn too_few_survivors_is_a_refusal_not_a_panic() {
        let planner = EpochPlanner::new(5, 1).with_pool("all", vec![ServerSet::full(5)]);
        let survivors = ServerSet::from_indices(5, [0, 1]);
        let err = planner.recertify(&survivors, 1).unwrap_err();
        assert!(
            matches!(err, QuorumError::InvalidParameters(_)),
            "got {err:?}"
        );
    }

    #[test]
    fn rotation_with_exactly_2b_plus_1_survivors_is_the_single_full_window() {
        let planner = EpochPlanner::new(6, 1);
        let survivors = ServerSet::from_indices(6, [1, 3, 5]);
        let config = planner.recertify(&survivors, 4).unwrap();
        assert_eq!(config.source, StrategySource::Rotation);
        assert_eq!(config.certified.quorums.len(), 1);
        assert_eq!(config.certified.quorums[0].to_vec(), vec![1, 3, 5]);
        assert!((config.load() - 1.0).abs() < 1e-9);
    }
}
