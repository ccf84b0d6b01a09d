//! A fixed-size log-linear latency histogram.
//!
//! Untraced latencies go here instead of into a growing `Vec`, so the
//! benchmark's own memory and CPU do not depend on how many operations
//! completed (`peak_rss_mb` and `cpu_us_per_op` measure the program, not the
//! harness; the only other latency store is one slice's worth of samples,
//! emptied every half second). Each power-of-two octave is split into [`SUB_BUCKETS`] equal
//! buckets, so a bucket is at most 1/128 = 0.78 % wide relative to its lower
//! edge; values below [`SUB_BUCKETS`] ns get one bucket each (exact). The
//! count is exact.

const SUB_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Octaves above the exact range: values up to 2^47 ns (about 39 hours).
const OCTAVES: usize = 40;
const BUCKETS: usize = (OCTAVES + 1) * SUB_BUCKETS as usize;

#[derive(Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        if value < SUB_BUCKETS {
            return value as usize;
        }
        // The leading one sits at bit `msb >= SUB_BITS`; the next SUB_BITS
        // bits pick the sub-bucket inside that octave.
        let msb = 63 - value.leading_zeros();
        let octave = (msb - SUB_BITS + 1) as usize;
        let sub = (value >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
        (octave.min(OCTAVES) * SUB_BUCKETS as usize + sub as usize).min(BUCKETS - 1)
    }

    /// The `[low, high)` value range of a bucket.
    fn bucket_range(index: usize) -> (u64, u64) {
        let octave = index as u64 / SUB_BUCKETS;
        let sub = index as u64 % SUB_BUCKETS;
        if octave == 0 {
            return (sub, sub + 1);
        }
        let shift = octave - 1;
        let low = (SUB_BUCKETS + sub) << shift;
        (low, low + (1 << shift))
    }

    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Nearest-rank quantile: the midpoint of the bucket holding the
    /// `ceil(q * count)`-th smallest value, clamped to the recorded range
    /// (so the extremes are exact). 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, high) = Self::bucket_range(index);
                let mid = low as f64 + (high - low) as f64 / 2.0 - 0.5;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift: deterministic test data without touching the library.
    fn stream(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn buckets_partition_the_value_range() {
        let mut expected_low = 0u64;
        for index in 0..BUCKETS {
            let (low, high) = LogHistogram::bucket_range(index);
            assert_eq!(low, expected_low, "bucket {index} leaves a gap");
            assert_eq!(LogHistogram::bucket_of(low), index);
            assert_eq!(LogHistogram::bucket_of(high - 1), index);
            if low >= SUB_BUCKETS {
                assert!(
                    (high - low) as f64 / low as f64 <= 0.01,
                    "bucket wider than 1 %"
                );
            }
            expected_low = high;
        }
    }

    #[test]
    fn quantiles_match_a_sorted_reference_within_one_percent() {
        let mut next = stream(0x9e37_79b9_7f4a_7c15);
        let mut hist = LogHistogram::new();
        let mut reference = Vec::new();
        for _ in 0..200_000 {
            // Log-uniform over 100 ns .. 100 ms, the range latencies live in.
            let exponent = 100.0 + (next() % 1_000_000) as f64 / 1e6 * 6.0 * 100.0;
            let value = 10f64.powf(exponent / 100.0) as u64;
            hist.record(value);
            reference.push(value);
        }
        reference.sort_unstable();
        assert_eq!(hist.count(), reference.len() as u64);
        for q in [0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
            let exact = reference[rank - 1] as f64;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() <= 0.01 * exact,
                "q={q}: histogram {got} vs sorted {exact}"
            );
        }
        let exact_mean = reference.iter().map(|&v| v as f64).sum::<f64>() / reference.len() as f64;
        assert!((hist.mean() - exact_mean).abs() <= 1e-6 * exact_mean);
    }

    #[test]
    fn small_values_and_extremes_are_exact() {
        let mut hist = LogHistogram::new();
        for v in [3, 3, 7, 90, 1_000_003] {
            hist.record(v);
        }
        assert_eq!(hist.quantile(0.2), 3.0);
        assert_eq!(hist.quantile(0.6), 7.0);
        assert_eq!(hist.quantile(1.0), 1_000_003.0);
        assert_eq!(LogHistogram::new().quantile(0.5), 0.0);
    }
}
