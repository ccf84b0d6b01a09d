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
//! * operation counters feeding the throughput report.
//!
//! Relaxed ordering is sufficient throughout: every counter is a monotone
//! tally whose final value is read after the worker and client threads have
//! been joined, and nothing branches on intermediate values.

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free power-of-two latency histogram over nanosecond samples.
///
/// Bucket `i` counts samples whose nanosecond value has bit length `i`
/// (i.e. `2^(i-1) <= ns < 2^i`, with bucket 0 for `ns == 0`), so the whole
/// range from 1 ns to ~584 years fits in 64 buckets.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 64],
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
        self.buckets[bucket.min(63)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// An upper bound (bucket ceiling) on the `q`-quantile latency in
    /// nanoseconds, or `None` when the histogram is empty. `q` is clamped to
    /// `[0, 1]`.
    #[must_use]
    pub fn quantile_upper_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i.min(63) });
            }
        }
        None
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
    /// (compare [`LatencyHistogram::quantile_upper_ns`], whose one-sided
    /// ceiling can overshoot by 2×).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(match i {
                    0 => 0,
                    1 => 1,
                    _ => 3u64 << (i - 2),
                });
            }
        }
        None
    }

    /// A snapshot of the raw bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Shared lock-free counters for one service instance.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// Per-server delivered-message counters.
    accesses: Vec<AtomicU64>,
    /// Completed operations (reads + writes that returned to the client).
    operations: AtomicU64,
    /// End-to-end operation latency.
    latency: LatencyHistogram,
    /// Requests known lost in transit (recorded by fault-injecting transports).
    drops: AtomicU64,
    /// Reply-deadline expiries observed by clients waiting on a rendezvous.
    timeouts: AtomicU64,
    /// Operation attempts retried after a refused send or an expired deadline.
    retries: AtomicU64,
    /// Operations abandoned after exhausting their retry budget (or failing
    /// terminally, e.g. a closed reply path).
    aborts: AtomicU64,
    /// Per-server count of protocol answers (a reply carrying an entry, or a
    /// write acknowledgement) — the "this server is alive" half of the
    /// failure-detector evidence.
    server_answers: Vec<AtomicU64>,
    /// Per-server count of non-answers: read replies with no entry (crashed
    /// or silent replicas) and quorum members that never replied before the
    /// rendezvous deadline. The accusing half of the evidence; the suspicion
    /// engine in `bqs-epoch` reads the answer/no-answer ratio.
    server_no_answers: Vec<AtomicU64>,
    /// Per-server round-trip latency histograms, fed by replies that did
    /// arrive. A timeout-inflation adversary — delaying answers to just
    /// under the deadline so the no-answer counters never move — shows up
    /// here as a per-server p99 far above the fleet's.
    server_latency: Vec<LatencyHistogram>,
}

impl ServiceMetrics {
    /// Fresh counters for a universe of `n` servers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        ServiceMetrics {
            accesses: (0..n).map(|_| AtomicU64::new(0)).collect(),
            operations: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            drops: AtomicU64::new(0),
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
        self.operations.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_nanos);
    }

    /// Records one request dropped in transit (chaos drops, partitions).
    pub fn record_drop(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
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
            self.record_server_no_answer(server);
        }
    }

    /// Snapshot of per-server answer counts.
    #[must_use]
    pub fn server_answer_counts(&self) -> Vec<u64> {
        self.server_answers
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot of per-server non-answer counts.
    #[must_use]
    pub fn server_no_answer_counts(&self) -> Vec<u64> {
        self.server_no_answers
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Point estimate of `server`'s `q`-quantile round-trip latency
    /// (nanoseconds; see [`LatencyHistogram::quantile`] for the bucket
    /// error bound), or `None` when no reply from it was ever timed.
    #[must_use]
    pub fn server_latency_quantile(&self, server: usize, q: f64) -> Option<u64> {
        self.server_latency[server].quantile(q)
    }

    /// Requests known lost in transit so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Reply-deadline expiries so far.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Retried attempts so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Abandoned operations so far.
    #[must_use]
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Snapshot of per-server access counts.
    #[must_use]
    pub fn access_counts(&self) -> Vec<u64> {
        self.accesses
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Completed operations so far.
    #[must_use]
    pub fn operations(&self) -> u64 {
        self.operations.load(Ordering::Relaxed)
    }

    /// The latency histogram.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Zeroes every counter and histogram bucket. Callers must guarantee no
    /// recording thread is active across the call (the loopback's
    /// `reset_plan` does, by taking the service `&mut`); with recorders
    /// running the reset would be merely approximate, never unsound.
    pub fn reset(&self) {
        for a in &self.accesses {
            a.store(0, Ordering::Relaxed);
        }
        self.operations.store(0, Ordering::Relaxed);
        self.drops.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        for b in &self.latency.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for a in &self.server_answers {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.server_no_answers {
            a.store(0, Ordering::Relaxed);
        }
        for h in &self.server_latency {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Per-server empirical load: access count over the given operation
    /// count (callers pass the number of quorum-contacting operations); the
    /// maximum converges to the access strategy's induced system load, the
    /// `L_w(Q)` of Definition 3.8.
    #[must_use]
    pub fn empirical_loads(&self, operations: u64) -> Vec<f64> {
        self.accesses
            .iter()
            .map(|a| a.load(Ordering::Relaxed) as f64 / operations.max(1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_ns(0.5), None);
        for ns in [1u64, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        // Median of {1, 2, 3, 1000, 1e6}: the bucket holding 3 (2 <= ns < 4
        // has bit length 2, ceiling 4).
        assert_eq!(h.quantile_upper_ns(0.5), Some(4));
        // Max bucket ceiling covers the 1 ms sample.
        assert!(h.quantile_upper_ns(1.0).unwrap() >= 1_000_000);
        assert_eq!(h.snapshot().iter().sum::<u64>(), 5);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.quantile_upper_ns(1.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(0));
    }

    #[test]
    fn quantile_midpoints_on_a_known_sample_set() {
        // Samples 1..=1000 ns: exact p50 = 500, p99 = 990, p999 = 1000.
        let h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        // Rank 500 lands in bucket 9 ([256, 512), cumulative 511): midpoint
        // 3 * 2^7 = 384. Rank 990 and rank 1000 land in bucket 10
        // ([512, 1024)): midpoint 3 * 2^8 = 768.
        assert_eq!(h.quantile(0.50), Some(384));
        assert_eq!(h.quantile(0.99), Some(768));
        assert_eq!(h.quantile(0.999), Some(768));
        // The documented bucket-resolution bound: estimate within
        // (0.75, 1.5] of the exact sample quantile.
        for (est, exact) in [(384u64, 500u64), (768, 990), (768, 1000)] {
            let ratio = est as f64 / exact as f64;
            assert!(ratio > 0.75 && ratio <= 1.5, "ratio {ratio}");
        }
        // Empty histogram: no estimate.
        assert_eq!(LatencyHistogram::new().quantile(0.5), None);
        // Degenerate q values clamp instead of panicking.
        assert_eq!(h.quantile(-1.0), Some(1));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn degradation_counters_accumulate_and_reset() {
        let m = ServiceMetrics::new(2);
        m.record_drop();
        m.record_drop();
        m.record_timeout();
        m.record_retry();
        m.record_retry();
        m.record_retry();
        m.record_abort();
        assert_eq!(
            (m.drops(), m.timeouts(), m.retries(), m.aborts()),
            (2, 1, 3, 1)
        );
        m.reset();
        assert_eq!(
            (m.drops(), m.timeouts(), m.retries(), m.aborts()),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = ServiceMetrics::new(2);
        m.record_access(1);
        m.record_operation(123);
        m.reset();
        assert_eq!(m.access_counts(), vec![0, 0]);
        assert_eq!(m.operations(), 0);
        assert_eq!(m.latency().count(), 0);
        // And it keeps recording normally afterwards.
        m.record_access(0);
        assert_eq!(m.access_counts(), vec![1, 0]);
    }

    #[test]
    fn server_evidence_counters_accumulate_and_reset() {
        let m = ServiceMetrics::new(3);
        m.record_server_answer(0, 1_000);
        m.record_server_answer(0, 2_000);
        m.record_server_no_answer(1);
        m.record_server_no_answer(1);
        m.record_server_no_answer(1);
        assert_eq!(m.server_answer_counts(), vec![2, 0, 0]);
        assert_eq!(m.server_no_answer_counts(), vec![0, 3, 0]);
        assert!(m.server_latency_quantile(0, 0.5).unwrap() > 0);
        assert_eq!(m.server_latency_quantile(2, 0.5), None);
        m.reset();
        assert_eq!(m.server_answer_counts(), vec![0, 0, 0]);
        assert_eq!(m.server_no_answer_counts(), vec![0, 0, 0]);
        assert_eq!(m.server_latency_quantile(0, 0.5), None);
    }

    #[test]
    fn metrics_accounting() {
        let m = ServiceMetrics::new(3);
        m.record_access(0);
        m.record_access(0);
        m.record_access(2);
        m.record_operation(500);
        m.record_operation(700);
        assert_eq!(m.access_counts(), vec![2, 0, 1]);
        assert_eq!(m.operations(), 2);
        assert_eq!(m.universe_size(), 3);
        let loads = m.empirical_loads(2);
        assert_eq!(loads, vec![1.0, 0.0, 0.5]);
        assert_eq!(m.latency().count(), 2);
    }
}
