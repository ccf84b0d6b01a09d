//! The epoch manager: suspicion → re-certification → two-phase handoff.
//!
//! [`EpochManager::tick`] is the whole control loop, called from the harness
//! at **operation-stream boundaries** (between open-loop bursts, between a
//! client's operations — never inside a fan-out):
//!
//! 1. With a handoff pending, the tick **finalizes** it: the previous tick
//!    opened the `{e, e + 1}` gate window and published the epoch-`e + 1`
//!    configuration, and since ticks sit at stream boundaries every
//!    epoch-`e` access issued before that has drained by now. The gate
//!    collapses to `[e + 1, e + 1]` and stragglers get fenced in-band.
//! 2. Otherwise the suspicion engine consumes the evidence delta. If the
//!    suspect set is unchanged, the tick is a no-op ([`TickOutcome::Steady`]).
//! 3. On a change, the planner re-certifies over the survivors, the gate
//!    window **opens** to `{e, e + 1}` *before* the new configuration is
//!    returned to anyone, and the handoff is left pending for the next tick
//!    to finalize.
//!
//! Ordering is the safety argument: open-before-publish means no epoch-`e+1`
//! request can reach a gate that would fence it while epoch-`e` requests are
//! still legal; finalize-after-drain means no epoch-`e` request is in flight
//! when `e` stops being served. Each fan-out carries one epoch stamp, each
//! epoch maps to one strategy, so no quorum ever mixes strategies — the
//! `2b + 1` intersection backing every read is always between quorums of a
//! single certified system.

use std::sync::Arc;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;
use bqs_service::metrics::MetricsSnapshot;
use bqs_sim::epoch::EpochGate;
use bqs_sim::server::mix64;

use crate::config::{EpochConfig, EpochPlanner};
use crate::suspicion::{SuspicionConfig, SuspicionEngine};

/// What one manager tick did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// No suspicion change, no pending handoff.
    Steady,
    /// A pending handoff was finalized: the gate now serves only `epoch`.
    Finalized {
        /// The epoch the gate collapsed to.
        epoch: u64,
    },
    /// The suspect set changed: a re-certified configuration was installed
    /// as pending and the gate window opened to `{from, to}`.
    Reconfigured {
        /// The epoch being drained.
        from: u64,
        /// The freshly certified epoch.
        to: u64,
    },
}

/// A record of one reconfiguration, kept for the fingerprint.
#[derive(Debug, Clone)]
pub(crate) struct EpochTransition {
    /// Epoch before the handoff.
    pub from: u64,
    /// Epoch after the handoff.
    pub to: u64,
    /// The suspect set that triggered it.
    pub suspects: ServerSet,
    /// The surviving universe certified for `to`.
    pub survivors: ServerSet,
    /// The new certified load `L(Q)`.
    pub certified_load: f64,
    /// The engine tick count when the transition fired.
    pub tick: u64,
}

/// The reconfiguration control loop for one service instance.
#[derive(Debug)]
pub struct EpochManager {
    planner: EpochPlanner,
    engine: SuspicionEngine,
    gate: Arc<EpochGate>,
    current: EpochConfig,
    pending: Option<EpochConfig>,
    transitions: Vec<EpochTransition>,
}

impl EpochManager {
    /// Builds the manager, certifying the epoch-0 configuration over the
    /// full universe. The gate is the service's (already at epoch 0).
    ///
    /// # Errors
    ///
    /// Certification failures from `EpochPlanner::initial_config`.
    pub fn new(
        planner: EpochPlanner,
        suspicion: SuspicionConfig,
        gate: Arc<EpochGate>,
    ) -> Result<Self, QuorumError> {
        let current = planner.initial_config()?;
        let engine = SuspicionEngine::new(planner.universe_size(), suspicion);
        Ok(EpochManager {
            planner,
            engine,
            gate,
            current,
            pending: None,
            transitions: Vec::new(),
        })
    }

    /// The configuration new accesses should be issued under: the pending
    /// one during a handoff (its epoch is already accepted — the window
    /// opened before it was published), the current one otherwise.
    #[must_use]
    pub fn active(&self) -> &EpochConfig {
        self.pending.as_ref().unwrap_or(&self.current)
    }

    /// The finalized configuration (excludes a pending handoff).
    #[must_use]
    pub fn current(&self) -> &EpochConfig {
        &self.current
    }

    /// The suspicion engine (read-only).
    #[must_use]
    pub fn engine(&self) -> &SuspicionEngine {
        &self.engine
    }

    /// One control-loop step; see the module docs for the phase ordering.
    ///
    /// # Errors
    ///
    /// Re-certification failures ([`EpochPlanner::recertify`]) — e.g. fewer
    /// than `2b + 1` survivors. The manager stays on the current
    /// configuration; serving a depleted universe beats serving nothing.
    pub fn tick(&mut self, evidence: &MetricsSnapshot) -> Result<TickOutcome, QuorumError> {
        if let Some(next) = self.pending.take() {
            // Finalize: ticks sit at operation-stream boundaries, so every
            // access of the draining epoch has completed or been abandoned.
            self.gate.finalize(next.epoch);
            let epoch = next.epoch;
            self.current = next;
            return Ok(TickOutcome::Finalized { epoch });
        }
        if !self.engine.tick(evidence) {
            return Ok(TickOutcome::Steady);
        }
        let survivors = self.engine.survivors();
        if survivors == self.current.universe {
            // The flip flipped back within one tick (possible when several
            // servers change state at once); nothing to re-certify.
            return Ok(TickOutcome::Steady);
        }
        let next = self.planner.recertify(&survivors, self.current.epoch + 1)?;
        // Open the window *before* the configuration escapes this method:
        // the first epoch-`to` fan-out must find every gate already willing.
        self.gate.open_window(next.epoch);
        let outcome = TickOutcome::Reconfigured {
            from: self.current.epoch,
            to: next.epoch,
        };
        self.transitions.push(EpochTransition {
            from: self.current.epoch,
            to: next.epoch,
            suspects: self.engine.suspects(),
            survivors,
            certified_load: next.load(),
            tick: self.engine.ticks(),
        });
        self.pending = Some(next);
        Ok(outcome)
    }

    /// A splitmix64 fold of the transition history — epochs, suspect masks,
    /// survivor masks, certified-load bits. Two runs with identical
    /// reconfiguration behaviour produce identical fingerprints; the replay
    /// gate folds this with the chaos trace fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0x0e9c_0c0d_5eed_u64;
        for t in &self.transitions {
            h = mix64(h ^ t.from);
            h = mix64(h ^ t.to);
            h = mix64(h ^ t.tick);
            for s in t.suspects.iter() {
                h = mix64(h ^ (s as u64 + 1));
            }
            for s in t.survivors.iter() {
                h = mix64(h ^ ((s as u64) << 32));
            }
            h = mix64(h ^ t.certified_load.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_service::metrics::ServiceMetrics;

    /// A 4-of-5 threshold pool (1-masking: any two quorums share 3 servers).
    fn four_of_five() -> Vec<ServerSet> {
        (0..5)
            .map(|out| ServerSet::from_indices(5, (0..5).filter(|&i| i != out)))
            .collect()
    }

    fn manager() -> EpochManager {
        let planner = EpochPlanner::new(5, 1).with_pool("4of5", four_of_five());
        EpochManager::new(
            planner,
            SuspicionConfig::counters_only(),
            Arc::new(EpochGate::new()),
        )
        .unwrap()
    }

    /// Evidence making `dead` look crashed and everyone else healthy.
    fn evidence_round(metrics: &ServiceMetrics, dead: &[usize]) {
        for s in 0..metrics.universe_size() {
            if dead.contains(&s) {
                for _ in 0..16 {
                    metrics.record_server_no_answer(s);
                }
                for _ in 0..4 {
                    metrics.record_server_answer(s, 1_000);
                }
            } else {
                for _ in 0..20 {
                    metrics.record_server_answer(s, 1_000);
                }
                metrics.record_server_no_answer(s);
            }
        }
    }

    #[test]
    fn detect_open_finalize_in_exactly_that_order() {
        let mut m = manager();
        let gate = Arc::clone(&m.gate);
        let metrics = ServiceMetrics::new(5);
        assert_eq!(m.active().epoch, 0);
        assert_eq!(gate.window(), (0, 0));

        // Healthy ticks: steady, gate untouched.
        evidence_round(&metrics, &[]);
        assert_eq!(m.tick(&metrics.snapshot()).unwrap(), TickOutcome::Steady);
        assert_eq!(gate.window(), (0, 0));

        // Three accusing ticks cross the accrual threshold.
        for round in 0..3 {
            evidence_round(&metrics, &[4]);
            let outcome = m.tick(&metrics.snapshot()).unwrap();
            if round < 2 {
                assert_eq!(outcome, TickOutcome::Steady);
            } else {
                assert_eq!(outcome, TickOutcome::Reconfigured { from: 0, to: 1 });
            }
        }
        // The handoff is pending: window open, active config is epoch 1,
        // current still epoch 0.
        assert!(m.pending.is_some());
        assert_eq!(gate.window(), (0, 1));
        assert_eq!(m.active().epoch, 1);
        assert_eq!(m.current().epoch, 0);
        assert_eq!(m.active().universe.to_vec(), vec![0, 1, 2, 3]);
        // 4-of-5 has exactly one quorum avoiding server 4.
        assert!((m.active().load() - 1.0).abs() < 1e-9);

        // Next tick finalizes regardless of evidence.
        assert_eq!(
            m.tick(&metrics.snapshot()).unwrap(),
            TickOutcome::Finalized { epoch: 1 }
        );
        assert_eq!(gate.window(), (1, 1));
        assert_eq!(m.current().epoch, 1);
        assert!(m.pending.is_none());
        assert_eq!(m.transitions.len(), 1);
        assert_eq!(m.transitions[0].suspects.to_vec(), vec![4]);

        // Steady afterwards: the suspect set is stable.
        evidence_round(&metrics, &[4]);
        assert_eq!(m.tick(&metrics.snapshot()).unwrap(), TickOutcome::Steady);
    }

    #[test]
    fn transient_noise_never_moves_the_gate() {
        let mut m = manager();
        let gate = Arc::clone(&m.gate);
        let metrics = ServiceMetrics::new(5);
        // One bad tick, then clean ones: hysteresis absorbs it.
        evidence_round(&metrics, &[2]);
        assert_eq!(m.tick(&metrics.snapshot()).unwrap(), TickOutcome::Steady);
        for _ in 0..4 {
            evidence_round(&metrics, &[]);
            assert_eq!(m.tick(&metrics.snapshot()).unwrap(), TickOutcome::Steady);
        }
        assert_eq!(gate.window(), (0, 0));
        assert!(m.transitions.is_empty());
        assert_eq!(m.active().epoch, 0);
    }

    #[test]
    fn depleted_universe_is_an_error_and_keeps_serving_the_old_epoch() {
        let mut m = manager();
        let metrics = ServiceMetrics::new(5);
        // Kill 3 of 5: 2 survivors < 2b + 1 = 3.
        for _ in 0..3 {
            evidence_round(&metrics, &[0, 1, 2]);
            let last = m.tick(&metrics.snapshot());
            if m.engine().suspects().len() == 3 {
                assert!(last.is_err(), "3 suspects leave too few survivors");
            }
        }
        assert_eq!(m.current().epoch, 0, "no unsafe reconfiguration happened");
        assert_eq!(m.gate.window(), (0, 0));
    }

    #[test]
    fn fingerprint_tracks_the_transition_history() {
        let mut a = manager();
        let b = manager();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let metrics = ServiceMetrics::new(5);
        for _ in 0..3 {
            evidence_round(&metrics, &[4]);
            let _ = a.tick(&metrics.snapshot());
        }
        assert_ne!(
            a.fingerprint(),
            b.fingerprint(),
            "a reconfiguration must change the fold"
        );
    }
}
