//! Availability analysis: the figure-style sweeps behind the paper's `F_p` claims.
//!
//! * [`fp_vs_p`] — crash probability of each construction as the per-server crash
//!   probability `p` varies (exposes the crossovers the paper discusses: the grid
//!   family degrades, the RT/M-Path/boostFPP family stays available for small `p`).
//! * [`fp_vs_n`] — crash probability as the universe grows at fixed `p`, checking
//!   the Condorcet behaviour (`F_p → 0` vs `F_p → 1`).
//! * [`rt_fixed_point_sweep`] — the recurrence of Proposition 5.6, showing the sharp
//!   threshold at `p_c`.
//! * [`exact_vs_monte_carlo`] — the ablation of DESIGN.md: exact enumeration against
//!   the Monte-Carlo estimator on small instances.
//!
//! Each sweep takes its instances from the paper roster
//! ([`PaperConstruction`]) and is one [`Evaluator::sweep_systems`] call over
//! them with the caller's `trials`. Structure-aware constructions report
//! *exact* values — closed forms for Threshold, Grid, M-Grid, RT and boostFPP
//! (survivor-profile composition, plane orders up to 4), the transfer-matrix
//! DP for M-Path up to the side-6 gate — small universes are enumerated in
//! parallel, and only what is left (large M-Path grids, large plane orders)
//! is sampled, with per-block RNG streams.

use bqs_constructions::prelude::*;
use bqs_core::availability::CrashEstimate;
use bqs_core::eval::{Evaluator, FpEstimate};
use bqs_core::quorum::QuorumSystem;

use crate::load_analysis::{CertifiableConstruction, PaperConstruction};

/// A single `(p, F_p)` measurement for one system.
#[derive(Debug, Clone)]
pub struct AvailabilityPoint {
    /// Construction name.
    pub system: String,
    /// Universe size.
    pub n: usize,
    /// Per-server crash probability.
    pub p: f64,
    /// The engine's `F_p` answer (exact where the construction allows it,
    /// Monte-Carlo otherwise — see [`FpEstimate::method`]).
    pub fp: FpEstimate,
    /// Analytic upper bound, when the construction provides one.
    pub fp_upper_bound: Option<f64>,
    /// Analytic lower bound, when the construction provides one.
    pub fp_lower_bound: Option<f64>,
}

/// Sweeps `systems × ps` in one batch and flattens the grid system-major.
fn sweep_points(
    systems: &[Box<dyn CertifiableConstruction>],
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    let evaluator = Evaluator::new().with_trials(trials.max(1)).with_seed(seed);
    let refs: Vec<&dyn QuorumSystem> = systems
        .iter()
        .map(|sys| sys.as_ref() as &dyn QuorumSystem)
        .collect();
    let mut points = Vec::new();
    for (sys, fps) in systems.iter().zip(evaluator.sweep_systems(&refs, ps)) {
        for (fp, &p) in fps.into_iter().zip(ps) {
            points.push(AvailabilityPoint {
                system: sys.name(),
                n: sys.universe_size(),
                p,
                fp,
                fp_upper_bound: sys.crash_probability_upper_bound(p),
                fp_lower_bound: sys.crash_probability_lower_bound(p),
            });
        }
    }
    points
}

/// Sweeps `F_p` over the given `p` values for the standard comparison set of
/// constructions at grid side `side` and masking level `b` (clamped per system).
#[must_use]
pub fn fp_vs_p(
    side: usize,
    b: usize,
    ps: &[f64],
    trials: usize,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    use PaperConstruction::{BoostFpp, MGrid, MPath, Rt, Threshold};
    let systems: Vec<_> = [Threshold, MGrid, Rt, BoostFpp, MPath]
        .iter()
        .filter_map(|kind| kind.instance(side, b))
        .collect();
    sweep_points(&systems, ps, trials, seed)
}

/// Sweeps `F_p` at fixed `p` while the universe grows, for the Condorcet comparison
/// between the M-Grid (`F_p → 1`) and RT / M-Path (`F_p → 0` for `p < p_c` resp.
/// `p < 1/2`).
#[must_use]
pub fn fp_vs_n(
    sides: &[usize],
    b: usize,
    p: f64,
    trials: usize,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    use PaperConstruction::{MGrid, MPath, Rt};
    let systems: Vec<_> = sides
        .iter()
        .flat_map(|&side| [MGrid, Rt, MPath].map(|kind| kind.instance(side, b)))
        .flatten()
        .collect();
    sweep_points(&systems, &[p], trials, seed)
}

/// One step of the RT fixed-point sweep of Proposition 5.6.
#[derive(Debug, Clone, Copy)]
pub struct RtSweepPoint {
    /// Per-server crash probability.
    pub p: f64,
    /// Crash probability of the depth-`h` system.
    pub fp: f64,
    /// Whether `p` is below the critical probability.
    pub below_critical: bool,
}

/// Evaluates the RT(k, ℓ) crash-probability recurrence at depth `depth` across `ps`.
#[must_use]
pub fn rt_fixed_point_sweep(k: usize, l: usize, depth: u32, ps: &[f64]) -> Vec<RtSweepPoint> {
    let rt = RtSystem::new(k, l, depth).expect("valid RT parameters");
    let pc = rt.critical_probability();
    ps.iter()
        .map(|&p| RtSweepPoint {
            p,
            fp: rt.crash_probability(p),
            below_critical: p < pc,
        })
        .collect()
}

/// Result of the exact-versus-Monte-Carlo ablation on one small instance.
#[derive(Debug, Clone)]
pub struct ExactVsMc {
    /// Construction name.
    pub system: String,
    /// Crash probability `p` used.
    pub p: f64,
    /// Exact crash probability by enumeration.
    pub exact: f64,
    /// Monte-Carlo estimate.
    pub estimate: CrashEstimate,
}

/// Compares exact enumeration with the Monte-Carlo estimator on small instances.
/// Both columns come from the same [`Evaluator`]: parallel allocation-free
/// enumeration on one side, parallel per-thread-stream sampling on the other.
#[must_use]
pub fn exact_vs_monte_carlo(trials: usize, seed: u64) -> Vec<ExactVsMc> {
    let evaluator = Evaluator::new().with_trials(trials.max(1)).with_seed(seed);
    let mut out = Vec::new();
    let ps = [0.1, 0.25, 0.4];

    let thresh = ThresholdSystem::minimal_masking(2).expect("valid");
    let rt = RtSystem::new(3, 2, 2).expect("valid");
    let grid = GridSystem::new(4, 1).expect("valid");
    let mgrid = MGridSystem::new(4, 1).expect("valid");
    let mpath = MPathSystem::new(4, 1).expect("valid");

    let systems: Vec<&dyn QuorumSystem> = vec![&thresh, &rt, &grid, &mgrid, &mpath];
    for sys in systems {
        for &p in &ps {
            let exact = evaluator.exact(sys, p).expect("small universe");
            let estimate = evaluator.monte_carlo(sys, p);
            out.push(ExactVsMc {
                system: sys.name(),
                p,
                exact,
                estimate,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_vs_p_shows_the_papers_ordering() {
        // At p = 1/8 on a 16x16 universe the RT and boostFPP systems should be far
        // more available than the M-Grid.
        let points = fp_vs_p(16, 3, &[0.125], 300, 7);
        let get = |prefix: &str| {
            points
                .iter()
                .find(|pt| pt.system.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} missing"))
        };
        assert!(get("RT").fp.value <= get("M-Grid").fp.value + 0.05);
        assert!(get("M-Path").fp.value <= get("M-Grid").fp.value + 0.05);
        // Every Monte-Carlo estimate respects its analytic bounds (within CI).
        for pt in &points {
            if let Some(up) = pt.fp_upper_bound {
                assert!(
                    pt.fp.value <= up + pt.fp.ci95_half_width() + 0.02,
                    "{} p={}",
                    pt.system,
                    pt.p
                );
            }
            if let Some(low) = pt.fp_lower_bound {
                assert!(
                    pt.fp.value + pt.fp.ci95_half_width() + 0.02 >= low,
                    "{} p={}",
                    pt.system,
                    pt.p
                );
            }
        }
    }

    #[test]
    fn fp_vs_n_condorcet_separation() {
        // At p = 0.125, growing the grid makes the M-Grid less available and the RT
        // more available.
        let points = fp_vs_n(&[8, 16], 3, 0.125, 300, 11);
        let series = |prefix: &str| -> Vec<f64> {
            points
                .iter()
                .filter(|pt| pt.system.starts_with(prefix))
                .map(|pt| pt.fp.value)
                .collect()
        };
        let mgrid = series("M-Grid");
        let rt = series("RT");
        assert_eq!(mgrid.len(), 2);
        assert!(
            mgrid[1] >= mgrid[0] - 0.05,
            "M-Grid should degrade: {mgrid:?}"
        );
        assert!(rt[1] <= rt[0] + 0.05, "RT should improve: {rt:?}");
    }

    #[test]
    fn rt_sweep_has_sharp_threshold() {
        let ps: Vec<f64> = (1..=9).map(|i| i as f64 * 0.05).collect();
        let sweep = rt_fixed_point_sweep(4, 3, 6, &ps);
        for pt in &sweep {
            if pt.p <= 0.15 {
                assert!(pt.fp < 0.01, "p={} fp={}", pt.p, pt.fp);
                assert!(pt.below_critical);
            }
            if pt.p >= 0.35 {
                assert!(pt.fp > 0.9, "p={} fp={}", pt.p, pt.fp);
                assert!(!pt.below_critical);
            }
        }
    }

    #[test]
    fn exact_and_monte_carlo_agree() {
        for row in exact_vs_monte_carlo(3000, 13) {
            assert!(
                (row.exact - row.estimate.mean).abs() <= row.estimate.ci95_half_width().max(0.03),
                "{} p={}: exact {} vs MC {}",
                row.system,
                row.p,
                row.exact,
                row.estimate.mean
            );
        }
    }
}
