//! Fault-injection plans.
//!
//! A [`FaultPlan`] assigns a behaviour to every server before a simulation run: which
//! servers are Byzantine (and with what attack strategy), and which have crashed.
//! The hybrid fault model of the paper — up to `b` Byzantine failures *plus* possibly
//! many more crashes — maps directly onto a plan with `byzantine.len() <= b` and an
//! arbitrary crash set.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::server::{Behavior, ByzantineStrategy, Replica};

/// A complete assignment of behaviours to the `n` servers of a simulation.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    n: usize,
    behaviors: Vec<Behavior>,
}

impl FaultPlan {
    /// A plan with no failures.
    #[must_use]
    pub fn none(n: usize) -> Self {
        FaultPlan {
            n,
            behaviors: vec![Behavior::Correct; n],
        }
    }

    /// The number of servers covered by the plan.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.n
    }

    /// Marks a specific server Byzantine with the given strategy.
    ///
    /// # Panics
    ///
    /// Panics if `server >= n`.
    #[must_use]
    pub fn with_byzantine(mut self, server: usize, strategy: ByzantineStrategy) -> Self {
        self.behaviors[server] = Behavior::Byzantine(strategy);
        self
    }

    /// Marks a specific server crashed.
    ///
    /// # Panics
    ///
    /// Panics if `server >= n`.
    #[must_use]
    pub fn with_crashed(mut self, server: usize) -> Self {
        self.behaviors[server] = Behavior::Crashed;
        self
    }

    /// A plan with `byzantine_count` uniformly chosen Byzantine servers (all using
    /// `strategy`) and `crash_count` additional uniformly chosen crashed servers.
    ///
    /// # Panics
    ///
    /// Panics if `byzantine_count + crash_count > n`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(
        n: usize,
        byzantine_count: usize,
        crash_count: usize,
        strategy: ByzantineStrategy,
        rng: &mut R,
    ) -> Self {
        assert!(
            byzantine_count + crash_count <= n,
            "cannot fail more servers than exist"
        );
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(rng);
        let mut plan = FaultPlan::none(n);
        for &s in indices.iter().take(byzantine_count) {
            plan.behaviors[s] = Behavior::Byzantine(strategy);
        }
        for &s in indices.iter().skip(byzantine_count).take(crash_count) {
            plan.behaviors[s] = Behavior::Crashed;
        }
        plan
    }

    /// A strategy-aware *targeted* plan: concentrates `count` Byzantine servers
    /// on the highest-weight servers of a published access strategy (the
    /// per-server access probabilities, e.g. `AccessStrategy::weights()` from
    /// the certified load oracle). The strategy is public information in the
    /// paper's model, so an adversary maximising load skew and read-abort rate
    /// naturally attacks exactly these servers. Ties break towards the lower
    /// server index so the plan is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != n` or `count > n`.
    #[must_use]
    pub fn targeted_by_weight(
        n: usize,
        count: usize,
        strategy: ByzantineStrategy,
        weights: &[f64],
    ) -> Self {
        assert_eq!(weights.len(), n, "one weight per server required");
        assert!(count <= n, "cannot fail more servers than exist");
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            weights[b]
                .partial_cmp(&weights[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut plan = FaultPlan::none(n);
        for &s in order.iter().take(count) {
            plan.behaviors[s] = Behavior::Byzantine(strategy);
        }
        plan
    }

    /// A plan where each server independently crashes with probability `p`
    /// (the failure model of Definition 3.10), with no Byzantine servers.
    #[must_use]
    pub fn independent_crashes<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Self {
        let mut plan = FaultPlan::none(n);
        for b in &mut plan.behaviors {
            if rng.gen::<f64>() < p {
                *b = Behavior::Crashed;
            }
        }
        plan
    }

    /// Number of Byzantine servers in the plan.
    #[must_use]
    pub fn byzantine_count(&self) -> usize {
        self.behaviors
            .iter()
            .filter(|b| matches!(b, Behavior::Byzantine(_)))
            .count()
    }

    /// Number of crashed servers in the plan.
    #[must_use]
    pub fn crash_count(&self) -> usize {
        self.behaviors
            .iter()
            .filter(|b| matches!(b, Behavior::Crashed))
            .count()
    }

    /// Instantiates the replicas described by the plan.
    #[must_use]
    pub fn build_replicas(&self) -> Vec<Replica> {
        self.behaviors.iter().map(|&b| Replica::new(b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_plan() {
        let p = FaultPlan::none(5);
        assert_eq!(p.universe_size(), 5);
        assert_eq!(p.byzantine_count(), 0);
        assert_eq!(p.crash_count(), 0);
        assert!(p.behaviors.iter().all(|&b| b == Behavior::Correct));
        let replicas = p.build_replicas();
        assert_eq!(replicas.len(), 5);
        assert!(replicas.iter().all(Replica::is_responsive));
    }

    #[test]
    fn builder_style_assignment() {
        let p = FaultPlan::none(6)
            .with_byzantine(1, ByzantineStrategy::Equivocate)
            .with_byzantine(3, ByzantineStrategy::StaleReplay)
            .with_crashed(5);
        assert_eq!(p.byzantine_count(), 2);
        assert_eq!(p.crash_count(), 1);
        assert!(matches!(p.behaviors[1], Behavior::Byzantine(_)));
        assert_eq!(p.behaviors[0], Behavior::Correct);
    }

    #[test]
    fn random_plan_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = FaultPlan::random(
            20,
            3,
            5,
            ByzantineStrategy::FabricateHighTimestamp { value: 0 },
            &mut rng,
        );
        assert_eq!(p.byzantine_count(), 3);
        assert_eq!(p.crash_count(), 5);
    }

    #[test]
    fn targeted_plan_attacks_highest_weight_servers() {
        let weights = [0.1, 0.4, 0.2, 0.4, 0.05];
        let p = FaultPlan::targeted_by_weight(
            5,
            2,
            ByzantineStrategy::FabricateHighTimestamp { value: 7 },
            &weights,
        );
        // The two 0.4-weight servers, tie broken towards the lower index.
        assert!(matches!(p.behaviors[1], Behavior::Byzantine(_)));
        assert!(matches!(p.behaviors[3], Behavior::Byzantine(_)));
        assert_eq!(p.byzantine_count(), 2);
        // Three targets: next is the 0.2-weight server.
        let p3 = FaultPlan::targeted_by_weight(5, 3, ByzantineStrategy::StaleReplay, &weights);
        assert!(matches!(p3.behaviors[2], Behavior::Byzantine(_)));
        assert_eq!(p3.behaviors[0], Behavior::Correct);
    }

    #[test]
    #[should_panic(expected = "cannot fail more servers")]
    fn random_plan_rejects_too_many_failures() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = FaultPlan::random(4, 3, 2, ByzantineStrategy::Equivocate, &mut rng);
    }

    #[test]
    fn independent_crashes_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = 0;
        for _ in 0..50 {
            total += FaultPlan::independent_crashes(100, 0.2, &mut rng).crash_count();
        }
        let mean = total as f64 / 50.0;
        assert!((mean - 20.0).abs() < 3.0, "mean crashes = {mean}");
    }
}
