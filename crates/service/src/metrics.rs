//! Lock-free service metrics.
//!
//! Shard workers and client threads record into plain relaxed atomics — no
//! locks anywhere on the hot path:
//!
//! * per-server access counters (one `AtomicU64` per server), the empirical
//!   side of the load comparison against the certified `L(Q)`;
//! * a fixed-bucket power-of-two latency histogram (64 buckets of
//!   `AtomicU64`), enough to read off tail percentiles without allocating or
//!   coordinating;
//! * degradation counters (timeouts, retries, aborts) and the per-server
//!   failure-detector evidence (answers, no-answers, round-trip latency).
//!
//! [`ServiceMetrics`] only records. Every reader takes one
//! [`ServiceMetrics::snapshot`] — plain data, [`MetricsSnapshot`] — and a
//! reader that wants one run's or one tick's worth of evidence subtracts an
//! earlier snapshot with [`MetricsSnapshot::since`]. Nothing is ever zeroed,
//! so the difference is exact even while other recorders keep running.
//!
//! Relaxed ordering is sufficient throughout: every counter is a monotone
//! tally, and a thread that loads one counter twice never sees it go
//! backwards, so a later snapshot dominates an earlier one field by field.

use std::sync::atomic::{AtomicU64, Ordering};

/// Buckets of a [`LatencyHistogram`]: one per nanosecond bit length.
const BUCKETS: usize = 64;

/// A lock-free power-of-two latency histogram over nanosecond samples.
///
/// Bucket `i` counts samples whose nanosecond value has bit length `i`
/// (i.e. `2^(i-1) <= ns < 2^i`, with bucket 0 for `ns == 0`), so the whole
/// range from 1 ns to ~584 years fits in 64 buckets. Read it through
/// [`LatencyHistogram::snapshot`].
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one latency sample, lock-free.
    pub fn record(&self, nanos: u64) {
        let bucket = (64 - nanos.leading_zeros()) as usize;
        self.buckets[bucket.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// The current bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot(std::array::from_fn(|i| {
            self.buckets[i].load(Ordering::Relaxed)
        }))
    }
}

/// The bucket counts of a [`LatencyHistogram`] at one instant (bucket `i`
/// holds the samples of bit length `i`), and the quantiles read off them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot(pub [u64; BUCKETS]);

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot([0; BUCKETS])
    }
}

impl HistogramSnapshot {
    /// Total samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The bucket holding the `q`-quantile rank (`q` clamped to `[0, 1]`),
    /// or `None` when the histogram is empty.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        self.0.iter().position(|&b| {
            seen += b;
            seen >= rank
        })
    }

    /// An upper bound (bucket ceiling) on the `q`-quantile latency in
    /// nanoseconds, or `None` when the histogram is empty. `q` is clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q)
            .map(|i| if i == 0 { 0 } else { 1u64 << i })
    }

    /// A point estimate of the `q`-quantile latency in nanoseconds, or `None`
    /// when the histogram is empty. `q` is clamped to `[0, 1]`.
    ///
    /// The estimate is the **midpoint** of the bucket holding the quantile
    /// rank: bucket `i` covers `[2^(i-1), 2^i)`, so the estimate for `i >= 2`
    /// is `3 * 2^(i-2)`. With the true quantile `x` somewhere in the bucket,
    /// the bucket-resolution error bound is `estimate / x ∈ (0.75, 1.5]` —
    /// i.e. the reported p50/p99/p999 is within −25 % / +50 % of the exact
    /// sample quantile, a factor bounded by the power-of-two bucket width
    /// (compare [`HistogramSnapshot::quantile_upper_ns`], whose one-sided
    /// ceiling can overshoot by 2×).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q).map(|i| match i {
            0 => 0,
            1 => 1,
            _ => 3u64 << (i - 2),
        })
    }

    /// The samples recorded after `earlier`, bucket by bucket.
    fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot(std::array::from_fn(|i| {
            self.0[i].saturating_sub(earlier.0[i])
        }))
    }
}

/// Everything a [`ServiceMetrics`] had recorded at one instant: plain data,
/// taken by [`ServiceMetrics::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-server delivered-message counts.
    pub accesses: Vec<u64>,
    /// End-to-end latency of every completed operation; its
    /// [`HistogramSnapshot::count`] is the completed-operation count.
    pub latency: HistogramSnapshot,
    /// Reply-deadline expiries observed by clients waiting on a rendezvous.
    pub timeouts: u64,
    /// Operation attempts retried after a refused send or an expired deadline.
    pub retries: u64,
    /// Operations abandoned after exhausting their retry budget (or failing
    /// terminally, e.g. a closed reply path).
    pub aborts: u64,
    /// Per-server protocol answers (a reply carrying an entry, or a write
    /// acknowledgement) — the "this server is alive" half of the
    /// failure-detector evidence.
    pub server_answers: Vec<u64>,
    /// Per-server non-answers: read replies with no entry (crashed or silent
    /// replicas) and quorum members that never replied before the rendezvous
    /// deadline. The accusing half of the evidence; the suspicion engine in
    /// `bqs-epoch` reads the answer/no-answer ratio.
    pub server_no_answers: Vec<u64>,
    /// Per-server round-trip latency of the replies that did arrive. A
    /// timeout-inflation adversary — delaying answers to just under the
    /// deadline so the no-answer counters never move — shows up here as a
    /// per-server p99 far above the fleet's.
    pub server_latency: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// What was recorded after `earlier`: the field-wise difference of every
    /// counter and every histogram bucket. Counters only grow, so for a
    /// snapshot of the same metrics taken earlier the difference is exact;
    /// a field where `earlier` is the larger (it came from other metrics)
    /// saturates at zero.
    ///
    /// # Panics
    ///
    /// Panics when the two snapshots cover different universes.
    #[must_use]
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        assert_eq!(
            self.accesses.len(),
            earlier.accesses.len(),
            "snapshots must cover the same universe"
        );
        let minus = |now: &[u64], then: &[u64]| -> Vec<u64> {
            now.iter()
                .zip(then)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect()
        };
        MetricsSnapshot {
            accesses: minus(&self.accesses, &earlier.accesses),
            latency: self.latency.since(&earlier.latency),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            retries: self.retries.saturating_sub(earlier.retries),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            server_answers: minus(&self.server_answers, &earlier.server_answers),
            server_no_answers: minus(&self.server_no_answers, &earlier.server_no_answers),
            server_latency: self
                .server_latency
                .iter()
                .zip(&earlier.server_latency)
                .map(|(a, b)| a.since(b))
                .collect(),
        }
    }
}

/// Shared lock-free counters for one service instance; the fields of
/// [`MetricsSnapshot`] document what each one counts.
#[derive(Debug)]
pub struct ServiceMetrics {
    accesses: Vec<AtomicU64>,
    latency: LatencyHistogram,
    timeouts: AtomicU64,
    retries: AtomicU64,
    aborts: AtomicU64,
    server_answers: Vec<AtomicU64>,
    server_no_answers: Vec<AtomicU64>,
    server_latency: Vec<LatencyHistogram>,
}

/// Relaxed loads of a counter vector.
fn load_all(counters: &[AtomicU64]) -> Vec<u64> {
    counters.iter().map(|a| a.load(Ordering::Relaxed)).collect()
}

impl ServiceMetrics {
    /// Fresh counters for a universe of `n` servers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ServiceMetrics {
            accesses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            latency: LatencyHistogram::new(),
            timeouts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            server_answers: (0..n).map(|_| AtomicU64::new(0)).collect(),
            server_no_answers: (0..n).map(|_| AtomicU64::new(0)).collect(),
            server_latency: (0..n).map(|_| LatencyHistogram::new()).collect(),
        }
    }

    /// Number of servers the access counters cover.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.accesses.len()
    }

    /// Records one protocol message delivered to `server` (relaxed; called
    /// under the owning shard's lock on every request).
    pub fn record_access(&self, server: usize) {
        self.accesses[server].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed operation and its end-to-end latency.
    pub fn record_operation(&self, latency_nanos: u64) {
        self.latency.record(latency_nanos);
    }

    /// Records one reply-deadline expiry seen by a waiting client.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retried operation attempt.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one abandoned operation.
    pub fn record_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one protocol answer from `server`, with the round-trip
    /// latency observed by the waiting client.
    pub fn record_server_answer(&self, server: usize, latency_nanos: u64) {
        self.server_answers[server].fetch_add(1, Ordering::Relaxed);
        self.server_latency[server].record(latency_nanos);
    }

    /// Records one non-answer from `server`: a read reply with no entry, or
    /// a quorum member that stayed silent past the rendezvous deadline.
    pub fn record_server_no_answer(&self, server: usize) {
        self.server_no_answers[server].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one counted vote of an operation fanned out at `asked` as
    /// failure-detector evidence: an answer with its latency, or a no-answer.
    pub fn record_server_vote(&self, server: usize, answered: bool, asked: std::time::Instant) {
        if answered {
            self.record_server_answer(server, asked.elapsed().as_nanos() as u64);
        } else {
            self.server_no_answers[server].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-server access counts so far — the one counter read outside a
    /// [`ServiceMetrics::snapshot`], for callers that want only the load.
    #[must_use]
    pub fn access_counts(&self) -> Vec<u64> {
        load_all(&self.accesses)
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            accesses: self.access_counts(),
            latency: self.latency.snapshot(),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            server_answers: load_all(&self.server_answers),
            server_no_answers: load_all(&self.server_no_answers),
            server_latency: self
                .server_latency
                .iter()
                .map(LatencyHistogram::snapshot)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile_upper_ns(0.5), None);
        for ns in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        // Median of {1, 2, 3, 1000, 1e6}: the bucket holding 3 (2 <= ns < 4
        // has bit length 2, ceiling 4).
        assert_eq!(s.quantile_upper_ns(0.5), Some(4));
        // Max bucket ceiling covers the 1 ms sample.
        assert!(s.quantile_upper_ns(1.0).unwrap() >= 1_000_000);
        assert_eq!(s.0.iter().sum::<u64>(), 5);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.snapshot().quantile_upper_ns(1.0), Some(0));
        assert_eq!(h.snapshot().quantile(1.0), Some(0));
    }

    #[test]
    fn quantile_midpoints_on_a_known_sample_set() {
        // Samples 1..=1000 ns: exact p50 = 500, p99 = 990, p999 = 1000.
        let h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        let s = h.snapshot();
        // Rank 500 lands in bucket 9 ([256, 512), cumulative 511): midpoint
        // 3 * 2^7 = 384. Rank 990 and rank 1000 land in bucket 10
        // ([512, 1024)): midpoint 3 * 2^8 = 768.
        assert_eq!(s.quantile(0.50), Some(384));
        assert_eq!(s.quantile(0.99), Some(768));
        assert_eq!(s.quantile(0.999), Some(768));
        // The documented bucket-resolution bound: estimate within
        // (0.75, 1.5] of the exact sample quantile.
        for (est, exact) in [(384u64, 500u64), (768, 990), (768, 1000)] {
            let ratio = est as f64 / exact as f64;
            assert!(ratio > 0.75 && ratio <= 1.5, "ratio {ratio}");
        }
        // Empty histogram: no estimate.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
        // Degenerate q values clamp instead of panicking.
        assert_eq!(s.quantile(-1.0), Some(1));
        assert_eq!(s.quantile(2.0), s.quantile(1.0));
    }

    #[test]
    fn degradation_counters_accumulate() {
        let m = ServiceMetrics::new(2);
        m.record_timeout();
        m.record_retry();
        m.record_retry();
        m.record_retry();
        m.record_abort();
        let s = m.snapshot();
        assert_eq!((s.timeouts, s.retries, s.aborts), (1, 3, 1));
    }

    #[test]
    fn server_evidence_counters_accumulate() {
        let m = ServiceMetrics::new(3);
        m.record_server_answer(0, 1_000);
        m.record_server_answer(0, 2_000);
        m.record_server_no_answer(1);
        m.record_server_no_answer(1);
        m.record_server_no_answer(1);
        let s = m.snapshot();
        assert_eq!(s.server_answers, vec![2, 0, 0]);
        assert_eq!(s.server_no_answers, vec![0, 3, 0]);
        assert!(s.server_latency[0].quantile(0.5).unwrap() > 0);
        assert_eq!(s.server_latency[2].quantile(0.5), None);
    }

    #[test]
    fn metrics_accounting() {
        let m = ServiceMetrics::new(3);
        m.record_access(0);
        m.record_access(0);
        m.record_access(2);
        m.record_operation(500);
        m.record_operation(700);
        let s = m.snapshot();
        assert_eq!(s.accesses, vec![2, 0, 1]);
        assert_eq!(m.access_counts(), s.accesses);
        assert_eq!(m.universe_size(), 3);
        assert_eq!(s.latency.count(), 2);
    }

    /// Records one batch of every kind of evidence, scaled by `k`.
    fn record_batch(m: &ServiceMetrics, k: u64) {
        for i in 0..k {
            m.record_access((i % 3) as usize);
            m.record_operation(100 * (i + 1));
            m.record_server_answer(0, 1_000 * (i + 1));
            m.record_server_no_answer(2);
        }
        for _ in 0..k {
            m.record_timeout();
        }
        m.record_retry();
        m.record_abort();
        m.record_server_vote(1, true, std::time::Instant::now());
        m.record_server_vote(1, false, std::time::Instant::now());
    }

    #[test]
    fn since_is_exact_in_every_counter_and_bucket() {
        // One metrics object records a first batch, is snapshotted, and
        // records a second; the difference must equal the second batch as a
        // fresh object records it, field by field, bucket by bucket.
        let m = ServiceMetrics::new(3);
        record_batch(&m, 5);
        let earlier = m.snapshot();
        record_batch(&m, 7);
        let delta = m.snapshot().since(&earlier);

        let fresh = ServiceMetrics::new(3);
        record_batch(&fresh, 7);
        let second = fresh.snapshot();
        // Latency buckets of the two timed votes depend on the clock; the
        // rest is a function of the batch.
        assert_eq!(delta.server_latency[1].count(), 1);
        assert_eq!(second.server_latency[1].count(), 1);
        let untimed = |mut s: MetricsSnapshot| {
            s.server_latency[1] = HistogramSnapshot::default();
            s
        };
        assert_eq!(untimed(delta.clone()), untimed(second));
        assert_eq!(delta.timeouts, 7);
        assert_eq!(delta.latency.count(), 7);
        assert_eq!(delta.accesses, vec![3, 2, 2]);
        assert_eq!(delta.server_answers, vec![7, 1, 0]);
        assert_eq!(delta.server_no_answers, vec![0, 1, 7]);
        // A snapshot minus itself is all zeros, and minus nothing is itself.
        let now = m.snapshot();
        assert_eq!(now.since(&now), ServiceMetrics::new(3).snapshot());
        assert_eq!(now.since(&ServiceMetrics::new(3).snapshot()), now);
    }
}
