//! Named crash-then-reconfigure scenario families.
//!
//! A [`ReconfigScenario`] names the *environment* a reconfiguration drill
//! runs under: which transport perturbation is active while `k` servers are
//! crashed mid-run and the epoch machinery (suspicion engine →
//! re-certification → two-phase client migration, all in `bqs-epoch`) detects
//! and routes around them. The definitions live here — not in `bqs-epoch` —
//! so the chaos crate stays dependency-free of the epoch manager while the
//! manager's end-to-end runner and the `bench_reconfig` harness can share
//! one vocabulary of named, seeded, replayable environments.
//!
//! Each family keeps its perturbation *deterministic in the chaos stream*
//! (drops and delays are keyed by request id, never by wall clock), so a
//! whole reconfiguration run — detection tick count, suspect set, epoch
//! history — replays identically from its `(seed, scenario)` pair.

use std::time::Duration;

use crate::transport::ChaosConfig;

/// The crash-then-reconfigure scenario families: what the network is doing
/// while the epoch machinery detects and survives a `k`-server crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigScenario {
    /// A quiet network: the crash is the only perturbation. The baseline —
    /// detection latency here is the suspicion engine's floor.
    CleanCrash,
    /// Base delay plus jitter on every request while the crash happens:
    /// reordered evidence must not confuse the detector, and the transient
    /// slowness of *healthy* servers must not trigger churn (the hysteresis
    /// half of the accrual detector).
    CrashUnderJitter,
    /// Silent drops alongside the crash: the detector must separate lossy
    /// links (occasional no-answers from everyone) from dead servers
    /// (persistent no-answers from the crashed set).
    CrashWithDrops,
}

impl ReconfigScenario {
    /// Every family, in sweep order.
    pub const ALL: [ReconfigScenario; 3] = [
        ReconfigScenario::CleanCrash,
        ReconfigScenario::CrashUnderJitter,
        ReconfigScenario::CrashWithDrops,
    ];

    /// Stable machine name (used in benchmark JSON and logs).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReconfigScenario::CleanCrash => "clean_crash",
            ReconfigScenario::CrashUnderJitter => "crash_under_jitter",
            ReconfigScenario::CrashWithDrops => "crash_with_drops",
        }
    }

    /// Stable numeric id mixed into the chaos decision stream (disjoint from
    /// the [`crate::ChaosScenario`] id space).
    #[must_use]
    pub fn id(self) -> u64 {
        match self {
            ReconfigScenario::CleanCrash => 9,
            ReconfigScenario::CrashUnderJitter => 10,
            ReconfigScenario::CrashWithDrops => 11,
        }
    }

    /// The transport perturbation active throughout the drill. Delays stay
    /// far under any reasonable operation deadline: chaos must slow evidence
    /// down, not fabricate no-answer evidence against healthy servers.
    #[must_use]
    pub fn chaos_config(self) -> ChaosConfig {
        match self {
            ReconfigScenario::CleanCrash => ChaosConfig::default(),
            ReconfigScenario::CrashUnderJitter => ChaosConfig {
                delay_base: Duration::from_micros(100),
                delay_jitter: Duration::from_micros(400),
                ..ChaosConfig::default()
            },
            ReconfigScenario::CrashWithDrops => ChaosConfig {
                drop_per_mille: 12,
                ..ChaosConfig::default()
            },
        }
    }

    /// The deterministic kill set for a drill crashing `k` of `n` servers:
    /// the first `k` indices. Crashing a fixed prefix keeps the survivor
    /// mask — and therefore the re-certified strategy — a pure function of
    /// `(n, k)`, which the replay-determinism gate relies on.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` (a drill must leave survivors).
    #[must_use]
    pub fn kill_set(self, n: usize, k: usize) -> Vec<usize> {
        assert!(k < n, "a reconfiguration drill must leave survivors");
        (0..k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_distinct_names_and_ids() {
        let mut names: Vec<_> = ReconfigScenario::ALL.iter().map(|s| s.name()).collect();
        let mut ids: Vec<_> = ReconfigScenario::ALL.iter().map(|s| s.id()).collect();
        names.sort_unstable();
        names.dedup();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(names.len(), ReconfigScenario::ALL.len());
        assert_eq!(ids.len(), ReconfigScenario::ALL.len());
        // And the id space stays disjoint from the masking families'.
        for family in crate::ChaosScenario::ALL {
            assert!(!ids.contains(&family.id()));
        }
    }

    #[test]
    fn kill_sets_are_deterministic_prefixes() {
        let kill = ReconfigScenario::CleanCrash.kill_set(25, 3);
        assert_eq!(kill, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "must leave survivors")]
    fn killing_the_whole_universe_is_rejected() {
        let _ = ReconfigScenario::CleanCrash.kill_set(4, 4);
    }
}
