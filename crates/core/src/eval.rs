//! The shared evaluation engine for crash probability `F_p(Q)`.
//!
//! Every figure, table and sweep in the workspace ultimately asks the same
//! question — *how likely is it that no quorum survives?* — and
//! [`Evaluator`] is the one engine that answers it, in one dispatch order:
//!
//! * **The construction's own answer first.** A construction whose
//!   structure answers `F_p` without sampling
//!   ([`QuorumSystem::certified_crash_probabilities`]) skips enumeration
//!   entirely: closed forms (Threshold, Grid, M-Grid, RT, FPP, boostFPP,
//!   compositions) answer in microseconds at any `n`, M-Path runs its exact
//!   transfer-matrix DP or, past the exact wall, its certified ε-pruned
//!   enclosure.
//! * **One integer availability profile.** `F_p(Q) = Σ_j a_j (1−p)^j p^(n−j)`
//!   where `a_j` counts the alive-sets of size `j` that contain no quorum
//!   (Definition 3.10). Exact enumeration accounts for all `2^n` crash
//!   configurations as raw `u64` masks, allocation-free, and tallies them
//!   into the `u64` counters of an [`AvailabilityProfile`] through the
//!   construction's count kernel
//!   ([`QuorumSystem::unavailable_profile_u64_range`]): Threshold, the
//!   line-quorum grids and explicit quorum lists count a range themselves,
//!   everything else is asked `is_available` mask by mask by the default
//!   kernel. Chunk partials add as
//!   integers, so the serial path, any chunking and any thread count produce
//!   the *same* profile, and [`AvailabilityProfile::crash_probability`] is
//!   the single place where counts become a probability.
//! * **Monte-Carlo last.** Trials run on independent per-block RNG streams
//!   (deterministic for a fixed seed, regardless of thread count), and the
//!   answer is an [`FpEstimate`] tagged [`FpMethod::MonteCarlo`] like every
//!   other.
//! * **Batched sweeps.** [`Evaluator::sweep`] / [`Evaluator::sweep_systems`]
//!   evaluate whole `(system, p)` grids on one persistent worker pool: every
//!   exact or certified method answers a system's whole `p`-grid in one job
//!   (one construction call, or one profile and `|ps|` evaluations), and only
//!   Monte-Carlo points are scheduled individually.
//!
//! Universes of at most [`PARALLEL_MASK_THRESHOLD`] masks are enumerated on
//! the calling thread, purely because spawning would cost more than the walk.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::quorum::QuorumSystem;

/// Largest universe size accepted by the exact enumerator (`2^25`
/// configurations by default; raise with [`Evaluator::with_exact_limit`], the
/// hard ceiling being 63 bits of mask space).
pub(crate) const DEFAULT_EXACT_LIMIT: usize = 25;

/// Mask-count threshold up to which exact enumeration stays on the calling
/// thread. Purely a spawn-cost cutoff — `2^17` configurations evaluate in
/// well under a millisecond — with no effect on the result.
pub const PARALLEL_MASK_THRESHOLD: u64 = 1 << 17;

/// The availability profile of a quorum system over `n` servers:
/// `a_j = #{alive-sets of size j that contain no quorum}` for `j = 0..=n`.
///
/// The profile is the `p`-free, integer content of Definition 3.10 —
/// `F_p(Q) = Σ_j a_j (1−p)^j p^(n−j)` — so it is identical on every machine
/// and for every enumeration order, and one profile answers a whole
/// `p`-sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityProfile {
    unavailable_by_alive: Vec<u64>,
}

impl AvailabilityProfile {
    /// Wraps counts obtained without the engine (FPP's line-free counting
    /// DP): `counts[j]` is the number of alive-sets of size `j` that contain
    /// no quorum, for a universe of `counts.len() - 1` servers.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    #[must_use]
    pub fn from_counts(counts: Vec<u64>) -> Self {
        assert!(!counts.is_empty(), "a profile has n + 1 >= 1 entries");
        AvailabilityProfile {
            unavailable_by_alive: counts,
        }
    }

    /// The counters `a_0, ..., a_n`, indexed by the number of alive servers.
    #[must_use]
    pub fn unavailable_by_alive(&self) -> &[u64] {
        &self.unavailable_by_alive
    }

    /// `F_p = Σ_j a_j (1−p)^j p^(n−j)`, summed in ascending `j` with Neumaier
    /// compensation — the workspace's one reduction from per-configuration
    /// mass to a crash probability.
    #[must_use]
    pub fn crash_probability(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let q = 1.0 - p;
        let n = self.unavailable_by_alive.len() as i32 - 1;
        let (mut sum, mut compensation) = (0.0f64, 0.0f64);
        for (j, &count) in self.unavailable_by_alive.iter().enumerate() {
            let term = count as f64 * q.powi(j as i32) * p.powi(n - j as i32);
            let next = sum + term;
            compensation += if sum >= term {
                (sum - next) + term
            } else {
                (term - next) + sum
            };
            sum = next;
        }
        (sum + compensation).clamp(0.0, 1.0)
    }
}

/// How the engine arrived at a crash-probability value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpMethod {
    /// A structure-aware closed form (exact, any `n`).
    ClosedForm,
    /// A structure-aware transfer-matrix dynamic program (exact; feasibility
    /// depends on the instance, e.g. the M-Path boundary-interface sweep).
    Dp,
    /// An ε-pruned transfer-matrix dynamic program: the value is the midpoint
    /// of a **certified** `[lower, upper]` enclosure (carried in
    /// [`FpEstimate::interval`]) whose width accounts for all pruned mass.
    DpPruned,
    /// Exhaustive enumeration of all `2^n` crash configurations (exact).
    Exact,
    /// Monte-Carlo estimation (unbiased, with sampling error).
    MonteCarlo,
}

impl FpMethod {
    /// The snake_case label used in benchmark JSON and dispatch tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FpMethod::ClosedForm => "closed_form",
            FpMethod::Dp => "dp",
            FpMethod::DpPruned => "dp_pruned",
            FpMethod::Exact => "exact",
            FpMethod::MonteCarlo => "monte_carlo",
        }
    }
}

/// A crash-probability answer, tagged with how it was obtained.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpEstimate {
    /// The crash probability `F_p(Q)` (point estimate for Monte-Carlo).
    pub value: f64,
    /// Standard error of the estimate (`None` for exact methods).
    pub std_error: Option<f64>,
    /// Number of Monte-Carlo trials behind the estimate, when applicable.
    pub trials: Option<usize>,
    /// The method that produced the value.
    pub method: FpMethod,
    /// Certified `[lower, upper]` enclosure of the true value, when the
    /// method provides one ([`FpMethod::DpPruned`]); `value` is its midpoint.
    /// Unlike a Monte-Carlo confidence interval this is a *rigorous* bound.
    pub interval: Option<(f64, f64)>,
}

impl FpEstimate {
    /// An answer with no sampling error and no enclosure.
    #[must_use]
    pub fn certain(value: f64, method: FpMethod) -> Self {
        FpEstimate {
            value,
            std_error: None,
            trials: None,
            method,
            interval: None,
        }
    }

    /// A certified enclosure `[lower, upper]` of the true value, tagged
    /// [`FpMethod::DpPruned`], whose point value is the midpoint.
    #[must_use]
    pub fn enclosure(lower: f64, upper: f64) -> Self {
        FpEstimate {
            interval: Some((lower, upper)),
            ..FpEstimate::certain(0.5 * (lower + upper), FpMethod::DpPruned)
        }
    }

    /// Half-width of the 95% confidence interval (zero for exact methods).
    ///
    /// For Monte-Carlo estimates with zero observed failures this degenerates
    /// to zero; [`FpEstimate::ci95_bounds`] stays informative there.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error.unwrap_or(0.0)
    }

    /// The 95% confidence bounds `(lower, upper)` on the crash probability:
    /// the value itself for exact methods, the Wilson score interval for
    /// Monte-Carlo. In particular a sampled estimate that observed **no**
    /// failure in `n` trials reports the rule-of-three-style upper bound
    /// `≈ 3.84/n` instead of a degenerate `0 ± 0`.
    #[must_use]
    pub fn ci95_bounds(&self) -> (f64, f64) {
        match (self.method, self.trials) {
            (FpMethod::MonteCarlo, Some(trials)) => {
                crate::availability::wilson_score_interval(self.value, trials)
            }
            (FpMethod::DpPruned, _) => self.interval.unwrap_or((self.value, self.value)),
            _ => (self.value, self.value),
        }
    }

    /// The 95% upper confidence bound (the value itself for exact methods).
    #[must_use]
    pub fn ci95_upper_bound(&self) -> f64 {
        self.ci95_bounds().1
    }

    /// Whether the estimate is exact (closed form, DP or full enumeration).
    /// Pruned-DP answers are *not* exact — they are certified enclosures; see
    /// [`FpEstimate::is_certified`].
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(
            self.method,
            FpMethod::ClosedForm | FpMethod::Dp | FpMethod::Exact
        )
    }

    /// Whether the true value is covered by a rigorous (non-statistical)
    /// guarantee: exact methods, or a pruned-DP certified enclosure.
    #[must_use]
    pub fn is_certified(&self) -> bool {
        self.is_exact() || (self.method == FpMethod::DpPruned && self.interval.is_some())
    }
}

/// The shared entry point for crash-probability evaluation.
///
/// An `Evaluator` carries the execution policy — worker count, exact-vs-
/// sampling cutoff, Monte-Carlo effort and base seed — so that sweeps and
/// bench binaries describe *what* to measure and the engine decides *how*.
///
/// # Example
///
/// ```
/// use bqs_core::eval::{Evaluator, FpMethod};
/// use bqs_core::prelude::*;
///
/// let system = ExplicitQuorumSystem::from_indices(
///     3,
///     [vec![0, 1], vec![1, 2], vec![0, 2]],
/// )?;
/// let eval = Evaluator::new().with_seed(7);
/// let fp = eval.crash_probability(&system, 0.1);
/// assert_eq!(fp.method, FpMethod::Exact);
/// // Majority-of-3 fails when >= 2 of 3 crash: 3 p^2 (1-p) + p^3.
/// assert!((fp.value - (3.0 * 0.01 * 0.9 + 0.001)).abs() < 1e-12);
/// # Ok::<(), QuorumError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    threads: usize,
    exact_limit: usize,
    mc_trials: usize,
    seed: u64,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator {
            threads: default_threads(),
            exact_limit: DEFAULT_EXACT_LIMIT,
            mc_trials: 10_000,
            seed: 0x004d_5257_3937,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Evaluator {
    /// An evaluator with the default policy: all available cores, the
    /// standard exact limit, 10 000 Monte-Carlo trials, a fixed seed.
    #[must_use]
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Sets the number of worker threads (clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the largest universe evaluated by exact enumeration (clamped to
    /// 63, the mask-width ceiling).
    #[must_use]
    pub fn with_exact_limit(mut self, limit: usize) -> Self {
        self.exact_limit = limit.min(63);
        self
    }

    /// Sets the Monte-Carlo effort used when enumeration is infeasible.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.mc_trials = trials.max(1);
        self
    }

    /// Sets the base seed of the deterministic per-thread RNG streams.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured Monte-Carlo trial count.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.mc_trials
    }

    /// Evaluates `F_p(Q)` by the cheapest method that answers: the
    /// construction's own certified answer when it has one, the availability
    /// profile when `2^n` is tractable, Monte-Carlo estimation otherwise.
    pub fn crash_probability<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> FpEstimate {
        match self.certified(system, &[p]) {
            Some(one) => one[0],
            None => self.monte_carlo(system, p),
        }
    }

    /// The engine's dispatch order, for a single point and a sweep alike:
    /// the construction's hook → availability profile. `None` means only
    /// Monte-Carlo is left ([`Evaluator::monte_carlo`]).
    fn certified<Q: QuorumSystem + ?Sized>(
        &self,
        system: &Q,
        ps: &[f64],
    ) -> Option<Vec<FpEstimate>> {
        let ps: Vec<f64> = ps.iter().map(|&p| p.clamp(0.0, 1.0)).collect();
        if let Some(estimates) = system.certified_crash_probabilities(&ps) {
            return Some(estimates);
        }
        let profile = self.availability_profile(system).ok()?;
        Some(
            ps.iter()
                .map(|&p| FpEstimate::certain(profile.crash_probability(p), FpMethod::Exact))
                .collect(),
        )
    }

    /// The availability profile of `system` by (parallel, allocation-free)
    /// enumeration of every crash configuration. Mask ranges are counted into
    /// per-chunk `u64` partials that add as integers, so the result does not
    /// depend on the chunking or the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] when `n` exceeds the
    /// configured exact limit.
    pub fn availability_profile<Q: QuorumSystem + ?Sized>(
        &self,
        system: &Q,
    ) -> Result<AvailabilityProfile, QuorumError> {
        let n = system.universe_size();
        if n > self.exact_limit {
            return Err(QuorumError::UniverseTooLarge {
                universe_size: n,
                limit: self.exact_limit,
            });
        }
        let total: u64 = 1u64 << n;
        // Oversplit relative to the worker count so that, on the per-mask
        // path, an unlucky chunk (for example one whose masks are mostly
        // available and exit the quorum scan late) cannot straggle the whole
        // evaluation. The chunk length is a power of two, so every chunk edge
        // is also a segment edge of the count kernels and none of their
        // segments is cut.
        let chunks = if self.threads <= 1 || total <= PARALLEL_MASK_THRESHOLD {
            1
        } else {
            (self.threads * 8).min(usize::try_from(total / 1024).unwrap_or(usize::MAX))
        };
        let chunk_len = total.div_ceil(chunks as u64).next_power_of_two();
        let partials = run_pool(self.threads, (total / chunk_len) as usize, |c| {
            let start = c as u64 * chunk_len;
            enumerate_masks(system, start, start + chunk_len)
        });
        let mut unavailable_by_alive = vec![0u64; n + 1];
        for partial in partials {
            for (count, part) in unavailable_by_alive.iter_mut().zip(partial) {
                *count += part;
            }
        }
        Ok(AvailabilityProfile {
            unavailable_by_alive,
        })
    }

    /// Exact `F_p(Q)` from the enumerated availability profile. Never
    /// consults closed forms, which makes it the reference the closed forms
    /// are validated against; bit-identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::UniverseTooLarge`] when `n` exceeds the
    /// configured exact limit.
    pub fn exact<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> Result<f64, QuorumError> {
        Ok(self.availability_profile(system)?.crash_probability(p))
    }

    /// Evaluates `F_p(Q)` at every point of `ps`; the one-system form of
    /// [`Evaluator::sweep_systems`].
    pub fn sweep(&self, system: &dyn QuorumSystem, ps: &[f64]) -> Vec<FpEstimate> {
        self.sweep_systems(&[system], ps).pop().unwrap_or_default()
    }

    /// Evaluates the full `systems × ps` grid on one persistent worker pool
    /// and returns the estimates as `out[system_index][p_index]`, each by the
    /// method `self.crash_probability(system, p)` would use and with the same
    /// bits (a batched `DpPruned` enclosure may be tighter than a per-point
    /// one — never less rigorous).
    ///
    /// Every exact or certified method answers a system's whole `p`-grid in
    /// **one** job: the construction's own answers through one
    /// [`QuorumSystem::certified_crash_probabilities`] call (so the M-Path
    /// transfer-matrix DP builds its `p`-independent scaffolding once per
    /// sweep), enumerable systems through one availability profile evaluated
    /// `|ps|` times. Only Monte-Carlo points become per-`(system, p)` jobs.
    /// With `j` jobs and `t` configured threads each phase runs `min(j, t)`
    /// pool workers with `⌊t / workers⌋` threads inside each job, so a
    /// one-system sweep keeps the full
    /// intra-job parallelism of [`Evaluator::crash_probability`] and a wide
    /// grid runs one job per core; no answer depends on that split.
    pub fn sweep_systems(&self, systems: &[&dyn QuorumSystem], ps: &[f64]) -> Vec<Vec<FpEstimate>> {
        let split = |jobs: usize| {
            let workers = self.threads.min(jobs).max(1);
            (workers, self.clone().with_threads(self.threads / workers))
        };
        let (workers, per_system) = split(systems.len());
        let mut out = run_pool(workers, systems.len(), |i| {
            per_system.certified(systems[i], ps)
        });
        let mc_jobs: Vec<(usize, f64)> = (0..systems.len())
            .filter(|&i| out[i].is_none())
            .flat_map(|i| ps.iter().map(move |&p| (i, p)))
            .collect();
        let (workers, per_point) = split(mc_jobs.len());
        let sampled = run_pool(workers, mc_jobs.len(), |j| {
            let (i, p) = mc_jobs[j];
            per_point.monte_carlo(systems[i], p)
        });
        for (&(i, _), est) in mc_jobs.iter().zip(sampled) {
            out[i].get_or_insert_with(Vec::new).push(est);
        }
        out.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// Monte-Carlo `F_p(Q)` with `self.trials()` trials, tagged
    /// [`FpMethod::MonteCarlo`] with its binomial standard error.
    ///
    /// Trials are partitioned into fixed-size blocks of `MC_BLOCK_TRIALS`,
    /// each with its own RNG stream seeded from the block *index* — never
    /// from the worker count — and the failure counts are summed. The result
    /// is therefore a pure function of `(seed, trials, p, system)`, identical
    /// on a laptop, a CI runner, or any `with_threads` setting.
    pub fn monte_carlo<Q: QuorumSystem + ?Sized>(&self, system: &Q, p: f64) -> FpEstimate {
        let trials = self.mc_trials;
        let p = p.clamp(0.0, 1.0);
        let blocks = trials.div_ceil(MC_BLOCK_TRIALS);
        let block_trials = |b: usize| {
            if b + 1 == blocks {
                trials - b * MC_BLOCK_TRIALS
            } else {
                MC_BLOCK_TRIALS
            }
        };
        // The sum over blocks is independent of which worker ran which block.
        let failures: usize = run_pool(self.threads, blocks, |b| {
            mc_failures(system, p, block_trials(b), stream_seed(self.seed, b as u64))
        })
        .into_iter()
        .sum();
        let mean = failures as f64 / trials as f64;
        FpEstimate {
            std_error: Some((mean * (1.0 - mean) / trials as f64).sqrt()),
            trials: Some(trials),
            ..FpEstimate::certain(mean, FpMethod::MonteCarlo)
        }
    }
}

/// Trials per Monte-Carlo RNG-stream block. The block partition (not the
/// worker partition) defines the random streams, making estimates
/// reproducible across machines with different core counts.
pub(crate) const MC_BLOCK_TRIALS: usize = 1024;

/// Runs `job(0), ..., job(jobs - 1)` on up to `workers` scoped threads that
/// pull indices off a shared counter, and returns the results in index order.
fn run_pool<T: Send + Sync>(
    workers: usize,
    jobs: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if workers.min(jobs) <= 1 {
        return (0..jobs).map(job).collect();
    }
    let slots: Vec<std::sync::OnceLock<T>> =
        (0..jobs).map(|_| std::sync::OnceLock::new()).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let _ = slots[i].set(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("pool completed every job"))
        .collect()
}

/// Counts the *unavailable* alive-masks in `start..end` by popcount through
/// the construction's count kernel
/// ([`QuorumSystem::unavailable_profile_u64_range`]).
fn enumerate_masks<Q: QuorumSystem + ?Sized>(system: &Q, start: u64, end: u64) -> Vec<u64> {
    let mut profile = vec![0u64; system.universe_size() + 1];
    system.unavailable_profile_u64_range(start, end, &mut profile);
    profile
}

/// Runs `trials` independent crash experiments on one RNG stream, reusing a
/// single scratch set, and counts how many left the system unavailable.
fn mc_failures<Q: QuorumSystem + ?Sized>(system: &Q, p: f64, trials: usize, seed: u64) -> usize {
    let n = system.universe_size();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive = ServerSet::new(n);
    let mut failures = 0usize;
    for _ in 0..trials {
        alive.clear();
        for i in 0..n {
            if rng.gen::<f64>() >= p {
                alive.insert(i);
            }
        }
        if !system.is_available(&alive) {
            failures += 1;
        }
    }
    failures
}

/// Derives statistically independent per-worker seeds (SplitMix64 finalizer).
fn stream_seed(base: u64, worker: u64) -> u64 {
    let mut z = base ^ worker.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::threshold_crash_probability;
    use crate::quorum::ExplicitQuorumSystem;
    use bqs_combinatorics::subsets::KSubsets;

    fn k_of_n_system(n: usize, k: usize) -> ExplicitQuorumSystem {
        let quorums: Vec<ServerSet> = KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect();
        ExplicitQuorumSystem::new(n, quorums).unwrap()
    }

    /// A majority-of-n system answering availability by popcount alone, so the
    /// test can afford universes above the parallel threshold (2^17 masks).
    struct CheapMajority {
        n: usize,
    }

    impl QuorumSystem for CheapMajority {
        fn universe_size(&self) -> usize {
            self.n
        }
        fn name(&self) -> String {
            format!("cheap-majority({})", self.n)
        }
        fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
            ServerSet::from_indices(self.n, 0..self.n / 2 + 1)
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            if alive.len() > self.n / 2 {
                Some(ServerSet::from_indices(
                    self.n,
                    alive.iter().take(self.n / 2 + 1),
                ))
            } else {
                None
            }
        }
        fn is_available(&self, alive: &ServerSet) -> bool {
            alive.len() > self.n / 2
        }
        fn min_quorum_size(&self) -> usize {
            self.n / 2 + 1
        }
    }

    #[test]
    fn crash_probability_dispatches_to_exact_and_reports_method() {
        let sys = k_of_n_system(5, 3);
        let fp = Evaluator::new().crash_probability(&sys, 0.25);
        assert_eq!(fp.method, FpMethod::Exact);
        assert!(fp.is_exact());
        assert_eq!(fp.ci95_half_width(), 0.0);
        let closed = threshold_crash_probability(5, 3, 0.25);
        assert!((fp.value - closed).abs() < 1e-12);
    }

    #[test]
    fn crash_probability_falls_back_to_monte_carlo() {
        // 30 servers is beyond the exact limit and the explicit system has no
        // closed form, so the engine must sample.
        let quorums: Vec<ServerSet> = (0..4)
            .map(|i| ServerSet::from_indices(30, (0..16).map(|j| (i + j) % 30)))
            .collect();
        let sys = ExplicitQuorumSystem::new(30, quorums).unwrap();
        let eval = Evaluator::new().with_trials(2000).with_seed(11);
        let fp = eval.crash_probability(&sys, 0.3);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert!(!fp.is_exact());
        assert_eq!(fp.trials, Some(2000));
        assert!(fp.std_error.unwrap() > 0.0);
        assert!((0.0..=1.0).contains(&fp.value));
    }

    #[test]
    fn monte_carlo_is_deterministic_across_thread_counts() {
        let sys = k_of_n_system(9, 6);
        let a = Evaluator::new()
            .with_seed(5)
            .with_threads(1)
            .with_trials(4096)
            .monte_carlo(&sys, 0.2);
        let b = Evaluator::new()
            .with_seed(5)
            .with_threads(4)
            .with_trials(4096)
            .monte_carlo(&sys, 0.2);
        // The RNG streams are defined by the fixed block partition, not the
        // worker partition: the estimate is a pure function of the seed and
        // trial count, identical for every thread count.
        assert_eq!(a, b);
        let c = Evaluator::new()
            .with_seed(5)
            .with_threads(3)
            .with_trials(4096)
            .monte_carlo(&sys, 0.2);
        assert_eq!(a, c);
        // And the deterministic value is statistically consistent with exact.
        let exact = Evaluator::new().exact(&sys, 0.2).unwrap();
        for est in [a, b] {
            assert!(
                (est.value - exact).abs() <= est.ci95_half_width() + 0.03,
                "mc {} vs exact {exact}",
                est.value
            );
        }
    }

    /// A k-of-n system that also offers a certified interval, as an M-Path
    /// instance does past its exact-DP wall.
    struct WithInterval(ExplicitQuorumSystem);

    impl QuorumSystem for WithInterval {
        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }
        fn name(&self) -> String {
            "with-interval".into()
        }
        fn sample_quorum(&self, rng: &mut dyn rand::RngCore) -> ServerSet {
            self.0.sample_quorum(rng)
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            self.0.find_live_quorum(alive)
        }
        fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
            Some(
                ps.iter()
                    .map(|_| FpEstimate::enclosure(0.25, 0.75))
                    .collect(),
            )
        }
        fn min_quorum_size(&self) -> usize {
            self.0.min_quorum_size()
        }
    }

    #[test]
    fn sweep_and_single_point_share_one_dispatch_order() {
        // One system per rung: enumerable and offering an interval (the
        // construction's answer comes first, so the interval must win),
        // enumerable and offering nothing (the profile), and neither (a
        // 30-server explicit system: Monte-Carlo).
        let both = WithInterval(k_of_n_system(9, 6));
        let enumerable = k_of_n_system(9, 6);
        let mc_sys = {
            let quorums: Vec<ServerSet> = (0..4)
                .map(|i| ServerSet::from_indices(30, (0..16).map(|j| (i + j) % 30)))
                .collect();
            ExplicitQuorumSystem::new(30, quorums).unwrap()
        };
        let ps = [0.05, 0.125, 0.25, 0.4];
        let eval = Evaluator::new()
            .with_trials(2000)
            .with_seed(23)
            .with_threads(4);
        let expect = |eval: &Evaluator, sys: &dyn QuorumSystem, method: FpMethod| {
            let serial = eval.clone().with_threads(1);
            let swept = eval.sweep(sys, &ps);
            assert_eq!(swept.len(), ps.len());
            for (est, &p) in swept.iter().zip(&ps) {
                assert_eq!(est.method, method, "{} p={p}", sys.name());
                assert_eq!(*est, serial.crash_probability(sys, p), "p={p}");
            }
        };
        expect(&eval, &both, FpMethod::DpPruned);
        expect(&eval, &enumerable, FpMethod::Exact);
        expect(&eval, &mc_sys, FpMethod::MonteCarlo);
        assert_eq!(
            eval.crash_probability(&both, 0.125).interval,
            Some((0.25, 0.75))
        );
        // The grid form keeps row order and agrees with the one-system form.
        let grid = eval.sweep_systems(&[&mc_sys, &both], &ps);
        assert_eq!(grid[0], eval.sweep(&mc_sys, &ps));
        assert_eq!(grid[1], eval.sweep(&both, &ps));
    }

    #[test]
    fn sweep_batches_closed_forms_and_tags_methods() {
        struct ClosedFormCounting;
        impl QuorumSystem for ClosedFormCounting {
            fn universe_size(&self) -> usize {
                100
            }
            fn name(&self) -> String {
                "closed-form-batch".into()
            }
            fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
                ServerSet::full(100)
            }
            fn find_live_quorum(&self, _alive: &ServerSet) -> Option<ServerSet> {
                unreachable!("the engine must not probe availability")
            }
            fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
                Some(
                    ps.iter()
                        .map(|&p| FpEstimate::certain(p * p, FpMethod::ClosedForm))
                        .collect(),
                )
            }
            fn min_quorum_size(&self) -> usize {
                100
            }
        }
        let ps = [0.1, 0.3, 0.5];
        let eval = Evaluator::new();
        let grid = eval.sweep(&ClosedFormCounting, &ps);
        assert_eq!(grid.len(), 3);
        for (est, &p) in grid.iter().zip(&ps) {
            assert_eq!(est.method, FpMethod::ClosedForm);
            let direct = eval.crash_probability(&ClosedFormCounting, p);
            assert_eq!(est.value.to_bits(), direct.value.to_bits());
        }
        // A mixed grid: closed-form system batches, explicit system falls
        // through to per-point jobs — row order must be preserved.
        let explicit = k_of_n_system(5, 3);
        let rows = eval.sweep_systems(&[&ClosedFormCounting, &explicit], &ps);
        assert_eq!(rows[0][0].method, FpMethod::ClosedForm);
        assert_eq!(rows[1][0].method, FpMethod::Exact);
        for (est, &p) in rows[1].iter().zip(&ps) {
            let direct = eval.clone().with_threads(1).crash_probability(&explicit, p);
            assert_eq!(est.value.to_bits(), direct.value.to_bits());
        }
    }

    #[test]
    fn sweep_handles_empty_and_single_point_inputs() {
        let sys = k_of_n_system(5, 3);
        assert!(Evaluator::new().sweep(&sys, &[]).is_empty());
        let one = Evaluator::new().sweep(&sys, &[0.2]);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_exact());
        let none: Vec<Vec<FpEstimate>> = Evaluator::new().sweep_systems(&[], &[0.1, 0.2]);
        assert!(none.is_empty());
    }

    #[test]
    fn monte_carlo_zero_hits_reports_wilson_upper_bound() {
        // A majority-of-30 system at p = 0.05 essentially never fails in 2000
        // trials (F_p ~ 1e-12): the estimate must still carry a usable upper
        // bound.
        let sys = CheapMajority { n: 30 };
        let fp = Evaluator::new()
            .with_trials(2000)
            .with_seed(3)
            .crash_probability(&sys, 0.05);
        assert_eq!(fp.method, FpMethod::MonteCarlo);
        assert_eq!(fp.value, 0.0);
        let (lower, upper) = fp.ci95_bounds();
        assert_eq!(lower, 0.0);
        assert!(upper > 0.0 && upper < 0.003, "upper={upper}");
        assert_eq!(fp.ci95_upper_bound(), upper);
        // Consistent with tiny positive truths, not with large ones.
        assert!((1e-6..0.05).contains(&upper));
    }

    #[test]
    fn closed_form_short_circuits_enumeration() {
        struct ClosedFormOnly;
        impl QuorumSystem for ClosedFormOnly {
            fn universe_size(&self) -> usize {
                100 // far beyond any exact limit
            }
            fn name(&self) -> String {
                "closed-form-only".into()
            }
            fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
                ServerSet::full(100)
            }
            fn find_live_quorum(&self, _alive: &ServerSet) -> Option<ServerSet> {
                unreachable!("the engine must not probe availability")
            }
            fn certified_crash_probabilities(&self, ps: &[f64]) -> Option<Vec<FpEstimate>> {
                Some(
                    ps.iter()
                        .map(|&p| FpEstimate::certain(p * p, FpMethod::ClosedForm))
                        .collect(),
                )
            }
            fn min_quorum_size(&self) -> usize {
                100
            }
        }
        let fp = Evaluator::new().crash_probability(&ClosedFormOnly, 0.25);
        assert_eq!(fp.method, FpMethod::ClosedForm);
        assert!((fp.value - 0.0625).abs() < 1e-15);
    }

    #[test]
    fn exact_limit_is_enforced_and_configurable() {
        let sys = k_of_n_system(10, 6);
        let strict = Evaluator::new().with_exact_limit(8);
        assert!(matches!(
            strict.exact(&sys, 0.1),
            Err(QuorumError::UniverseTooLarge { limit: 8, .. })
        ));
        assert!(strict.crash_probability(&sys, 0.1).method == FpMethod::MonteCarlo);
        let relaxed = Evaluator::new().with_exact_limit(12);
        assert!(relaxed.exact(&sys, 0.1).is_ok());
    }
}
