//! Accrual failure suspicion over service evidence.
//!
//! The service layer records two kinds of per-server evidence while load is
//! flowing (`bqs-service`'s `ServiceMetrics`): **answers** (a reply carrying
//! an entry, or a write acknowledgement, with its round-trip latency) and
//! **no-answers** (a read served an in-band `None`, or a quorum member silent
//! past the rendezvous deadline). Each tick reads one [`MetricsSnapshot`] of
//! it, and the engine turns that stream into a *stable* suspect set:
//!
//! * **Ratio evidence** — per tick, the engine looks at the evidence *delta*
//!   since the previous tick's snapshot ([`MetricsSnapshot::since`]); a
//!   server whose no-answer fraction over the delta reaches
//!   `ACCUSE_RATIO` (with at least `MIN_SAMPLES` samples) is accused for
//!   that tick. Crashed replicas acknowledge writes in-band but serve reads
//!   `None`, so under any read-leaning mix their accusal fraction sits near
//!   the read fraction — far above a healthy server's (whose only `None`s
//!   come from still-empty registers early on).
//! * **Latency evidence** — a timeout-inflation adversary answers *every*
//!   request just under the deadline, so the ratio counters never move. Its
//!   cumulative p99 round-trip (read off the tick's whole snapshot, not the
//!   delta) does move: a server whose p99 reaches
//!   [`SuspicionConfig::latency_factor`] times the fleet median p99 is
//!   accused on this channel instead — provided that p99 is at least
//!   `LATENCY_ACCUSAL_FLOOR_NS`: on an in-process transport an honest p99
//!   is under a microsecond, so the ratio alone would accuse a healthy
//!   server of one scheduler preemption. Wall-clock evidence is inherently
//!   non-deterministic, so replay-exact harnesses run with
//!   [`SuspicionConfig::counters_only`], which disables this channel.
//! * **Accrual with hysteresis** — accusals accumulate into a per-server
//!   score (+1 per accusing tick, −`DECAY` per clean tick, floored at
//!   zero). A server becomes suspected only when its score reaches
//!   `SUSPECT_SCORE` and is cleared only when it decays back to
//!   `CLEAR_SCORE` — a one-tick burst of jitter or loss never flips
//!   anybody, and a flapping server cannot make the configuration flap with
//!   it. The detector is deliberately slow to accuse and slower to forgive:
//!   three consecutive accusing ticks to suspect, two clean ticks to clear.

use bqs_core::bitset::ServerSet;
use bqs_service::metrics::{MetricsSnapshot, ServiceMetrics};

/// The latency channel's absolute floor, nanoseconds: a cumulative p99 under
/// it accuses nobody whatever its ratio to the fleet median. 1 ms is below
/// any round trip worth accusing and far under what a timeout-inflation
/// coalition answers in (≥ 18 ms in the chaos scenarios), while one 25–50 µs
/// preemption — 30–60× a loopback fleet's sub-microsecond median — stays
/// well beneath it.
pub(crate) const LATENCY_ACCUSAL_FLOOR_NS: u64 = 1_000_000;

/// Minimum evidence samples (answers + no-answers) in a tick's delta before
/// the ratio channel may accuse: starves rumors of single lost packets.
pub(crate) const MIN_SAMPLES: u64 = 8;

/// No-answer fraction of the tick's delta at which the ratio channel
/// accuses. Sits above the background accusal fraction of a healthy fleet
/// (empty-register reads, occasional drops) and below a dead server's (its
/// read fraction).
pub(crate) const ACCUSE_RATIO: f64 = 0.5;

/// Score at which a server becomes suspected.
pub(crate) const SUSPECT_SCORE: f64 = 3.0;

/// Score at which an already-suspected server is cleared; below
/// [`SUSPECT_SCORE`] — the hysteresis band.
pub(crate) const CLEAR_SCORE: f64 = 1.0;

/// Score subtracted per non-accusing tick (floored at zero).
pub(crate) const DECAY: f64 = 1.0;

/// Minimum cumulative answers from a server before its p99 is trusted as
/// latency evidence.
pub const LATENCY_MIN_SAMPLES: u64 = 32;

/// Whether the detector's latency channel is on, and how sharp it is.
#[derive(Debug, Clone, Copy)]
pub struct SuspicionConfig {
    /// Latency channel: accuse a server whose cumulative p99 round-trip is
    /// at least this factor times the fleet median p99. `f64::INFINITY`
    /// disables the channel (see [`SuspicionConfig::counters_only`]).
    pub latency_factor: f64,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        SuspicionConfig {
            latency_factor: 8.0,
        }
    }
}

impl SuspicionConfig {
    /// The latency channel disabled: every accusal derives from
    /// deterministic counters, so a drill replayed from the same `(seed,
    /// scenario)` pair reproduces the identical suspect set and detection
    /// tick. This is what the reconfiguration runner uses.
    #[must_use]
    pub fn counters_only() -> Self {
        SuspicionConfig {
            latency_factor: f64::INFINITY,
        }
    }
}

/// The accrual detector: feed it [`MetricsSnapshot`]s via
/// [`SuspicionEngine::tick`], read the suspect set.
#[derive(Debug)]
pub struct SuspicionEngine {
    config: SuspicionConfig,
    /// The evidence at the previous tick (all zeros before the first).
    last: MetricsSnapshot,
    scores: Vec<f64>,
    suspected: Vec<bool>,
    ticks: u64,
}

impl SuspicionEngine {
    /// A fresh engine over `n` servers.
    #[must_use]
    pub fn new(n: usize, config: SuspicionConfig) -> Self {
        SuspicionEngine {
            config,
            last: ServiceMetrics::new(n).snapshot(),
            scores: vec![0.0; n],
            suspected: vec![false; n],
            ticks: 0,
        }
    }

    /// Number of servers under observation.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.suspected.len()
    }

    /// Ticks processed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Current per-server accrual scores.
    #[must_use]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// The suspect set as a mask over the universe.
    #[must_use]
    pub fn suspects(&self) -> ServerSet {
        ServerSet::from_indices(
            self.suspected.len(),
            self.suspected
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| s.then_some(i)),
        )
    }

    /// The complement of the suspect set: the universe the planner should
    /// re-certify over.
    #[must_use]
    pub fn survivors(&self) -> ServerSet {
        ServerSet::from_indices(
            self.suspected.len(),
            self.suspected
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| (!s).then_some(i)),
        )
    }

    /// Consumes the evidence `now` holds beyond the previous tick's and
    /// updates scores and suspect states. Returns `true` when the suspect
    /// set changed — the signal the epoch manager re-certifies on.
    ///
    /// # Panics
    ///
    /// Panics when `now` covers a different universe.
    pub fn tick(&mut self, now: &MetricsSnapshot) -> bool {
        assert_eq!(
            now.accesses.len(),
            self.suspected.len(),
            "evidence and engine must cover the same universe"
        );
        self.ticks += 1;
        let delta = now.since(&self.last);
        self.last = now.clone();

        // Latency channel baseline: the fleet median of cumulative p99s.
        // Computed over every server with timed replies — the median is
        // robust to the (minority) coalition it is meant to expose.
        let median_p99 = if self.config.latency_factor.is_finite() {
            let mut p99s: Vec<u64> = now
                .server_latency
                .iter()
                .filter_map(|h| h.quantile(0.99))
                .collect();
            p99s.sort_unstable();
            if p99s.is_empty() {
                None
            } else {
                Some(p99s[p99s.len() / 2])
            }
        } else {
            None
        };

        let mut changed = false;
        for i in 0..self.suspected.len() {
            let d_accusals = delta.server_no_answers[i];
            let samples = delta.server_answers[i] + d_accusals;
            let ratio_accuses =
                samples >= MIN_SAMPLES && d_accusals as f64 >= ACCUSE_RATIO * samples as f64;

            let latency_accuses = match median_p99 {
                Some(median) if median > 0 => {
                    now.server_answers[i] >= LATENCY_MIN_SAMPLES
                        && now.server_latency[i].quantile(0.99).is_some_and(|p99| {
                            p99 >= LATENCY_ACCUSAL_FLOOR_NS
                                && p99 as f64 >= self.config.latency_factor * median as f64
                        })
                }
                _ => false,
            };

            if ratio_accuses || latency_accuses {
                self.scores[i] += 1.0;
            } else {
                self.scores[i] = (self.scores[i] - DECAY).max(0.0);
            }

            if !self.suspected[i] && self.scores[i] >= SUSPECT_SCORE {
                self.suspected[i] = true;
                changed = true;
            } else if self.suspected[i] && self.scores[i] <= CLEAR_SCORE {
                self.suspected[i] = false;
                changed = true;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `accusals` no-answers and `answers` answers to one server.
    fn feed(metrics: &ServiceMetrics, server: usize, answers: u64, accusals: u64) {
        for _ in 0..answers {
            metrics.record_server_answer(server, 1_000);
        }
        for _ in 0..accusals {
            metrics.record_server_no_answer(server);
        }
    }

    fn healthy_tick(metrics: &ServiceMetrics, n: usize, skip: &[usize]) {
        for s in 0..n {
            if !skip.contains(&s) {
                feed(metrics, s, 20, 1);
            }
        }
    }

    #[test]
    fn persistent_non_responder_is_suspected_after_the_accrual_threshold() {
        let n = 5;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::counters_only());
        for round in 1..=3 {
            healthy_tick(&metrics, n, &[2]);
            feed(&metrics, 2, 4, 16); // 80 % no-answers: a dead replica's reads
            let changed = engine.tick(&metrics.snapshot());
            if round < 3 {
                assert!(!changed, "accrual must not fire before the threshold");
                assert!(!engine.suspected[2]);
            } else {
                assert!(changed, "third accusing tick crosses SUSPECT_SCORE = 3");
                assert!(engine.suspected[2]);
            }
        }
        assert_eq!(engine.suspects().to_vec(), vec![2]);
        assert_eq!(engine.survivors().to_vec(), vec![0, 1, 3, 4]);
        // Healthy servers never accrued.
        for s in [0usize, 1, 3, 4] {
            assert!(
                engine.scores()[s] < 1.0,
                "server {s}: {:?}",
                engine.scores()
            );
        }
    }

    #[test]
    fn transient_accusations_decay_without_churn() {
        let n = 4;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::counters_only());
        // Two accusing ticks (a burst of loss), then clean ticks: the score
        // reaches 2 < SUSPECT_SCORE and decays back to zero.
        for _ in 0..2 {
            healthy_tick(&metrics, n, &[1]);
            feed(&metrics, 1, 2, 18);
            assert!(!engine.tick(&metrics.snapshot()));
        }
        assert!(engine.scores()[1] >= 2.0);
        for _ in 0..3 {
            healthy_tick(&metrics, n, &[]);
            assert!(!engine.tick(&metrics.snapshot()));
        }
        assert!(!engine.suspected[1]);
        assert_eq!(engine.scores()[1], 0.0);
    }

    #[test]
    fn hysteresis_holds_a_suspect_through_a_single_clean_tick() {
        let n = 3;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::counters_only());
        for _ in 0..3 {
            healthy_tick(&metrics, n, &[0]);
            feed(&metrics, 0, 0, 12);
            engine.tick(&metrics.snapshot());
        }
        assert!(engine.suspected[0]);
        // One clean tick: score 3 → 2, still above CLEAR_SCORE = 1.
        healthy_tick(&metrics, n, &[]);
        assert!(
            !engine.tick(&metrics.snapshot()),
            "one clean tick must not clear"
        );
        assert!(engine.suspected[0]);
        // A second clean tick decays to 1 = CLEAR_SCORE: cleared.
        healthy_tick(&metrics, n, &[]);
        assert!(engine.tick(&metrics.snapshot()));
        assert!(!engine.suspected[0]);
    }

    #[test]
    fn timeout_inflation_is_flagged_on_the_latency_channel() {
        let n = 6;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::default());
        // Server 5 answers *everything* — the counters are spotless — but
        // every answer takes 18 ms against a 100 µs fleet.
        for _ in 0..3 {
            for s in 0..5 {
                feed(&metrics, s, 40, 0);
            }
            for _ in 0..40 {
                metrics.record_server_answer(5, 18_000_000);
            }
            engine.tick(&metrics.snapshot());
        }
        assert!(engine.suspected[5], "scores: {:?}", engine.scores());
        for s in 0..5 {
            assert!(!engine.suspected[s]);
        }
        // The same evidence under counters-only never accuses: the replay-
        // deterministic profile trades this adversary for exactness.
        let deterministic = {
            let mut e = SuspicionEngine::new(n, SuspicionConfig::counters_only());
            e.tick(&metrics.snapshot());
            e.suspects()
        };
        assert!(deterministic.is_empty());
    }

    #[test]
    fn a_p99_under_the_absolute_floor_accuses_nobody_whatever_the_ratio() {
        let n = 6;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::default());
        // A loopback fleet: everybody answers in under a microsecond, healthy
        // server 4 is preempted for 40 µs once per tick (its p99 over ~40
        // samples is its maximum, 64x the fleet median), server 5 inflates
        // every answer to 18 ms.
        for _ in 0..3 {
            for s in 0..4 {
                feed(&metrics, s, 40, 0);
            }
            feed(&metrics, 4, 39, 0);
            metrics.record_server_answer(4, 40_000);
            for _ in 0..40 {
                metrics.record_server_answer(5, 18_000_000);
            }
            engine.tick(&metrics.snapshot());
            let p99 = |s: usize| metrics.snapshot().server_latency[s].quantile(0.99);
            assert_eq!(p99(0), Some(768));
            assert_eq!(p99(4), Some(49_152));
        }
        assert_eq!(engine.suspects().to_vec(), vec![5]);
        assert_eq!(engine.scores()[4], 0.0, "scores: {:?}", engine.scores());
    }

    #[test]
    fn sparse_evidence_stays_below_the_sample_floor() {
        let n = 2;
        let metrics = ServiceMetrics::new(n);
        let mut engine = SuspicionEngine::new(n, SuspicionConfig::counters_only());
        // 100 % accusing but only 3 samples < MIN_SAMPLES = 8: no accusal.
        for _ in 0..5 {
            feed(&metrics, 1, 0, 3);
            assert!(!engine.tick(&metrics.snapshot()));
        }
        assert_eq!(engine.scores()[1], 0.0);
    }
}
