//! The load `L(Q)` of a quorum system (Definition 3.8, Proposition 3.9).
//!
//! The system load is `min_w max_u l_w(u)`: the best achievable frequency of access
//! of the busiest server over all access strategies. Three solvers coexist:
//!
//! * [`optimal_load`] — the explicit LP: one dense variable per quorum,
//!   solved with the workspace simplex. Exact for any materialised system,
//!   but exponential for the paper's large-`n` constructions.
//! * [`optimal_load_oracle`] — **column generation**: a restricted master
//!   packing LP over a small working set of quorums
//!   ([`bqs_lp::packing::PackingLp`]), grown on demand by a per-construction
//!   pricing oracle ([`crate::oracle::MinWeightQuorumOracle`]). Returns a
//!   [`CertifiedLoad`]: the strategy's exact induced load together with a
//!   rigorous lower bound, with `gap = load − lower_bound` certified by weak
//!   duality (see below). This is how `L(Q)` is verified at `n = 1024`
//!   without enumerating quorums.
//! * [`fair_load`] — Proposition 3.9's closed form `L(Q) = c(Q)/n` for fair
//!   systems, used as a cross-check (and an ablation) against both LPs.
//!
//! # Why the column-generation result is certified
//!
//! Write the load LP as a packing program: `W* = max Σ_Q w_Q` subject to
//! `Σ_{Q ∋ u} w_Q ≤ 1` per server, so `L(Q) = 1/W*`. The restricted master
//! over a working set yields a feasible `w` whose exact induced load (computed
//! directly from the columns, not from solver state) upper-bounds `L(Q)`.
//! Conversely, for *any* prices `y ≥ 0` and any strategy `w'`,
//!
//! ```text
//! max_u l_{w'}(u)  ≥  Σ_u y_u l_{w'}(u) / Σ_u y_u  =  Σ_Q w'_Q y(Q) / Σ_u y_u
//!                  ≥  min_Q y(Q) / Σ_u y_u,
//! ```
//!
//! and the pricing oracle evaluates `min_Q y(Q)` exactly — so every round
//! produces a valid lower bound, robust even to floating-point drift in the
//! master. The engine stops when the two bounds meet.

use bqs_lp::{Constraint, LinearProgram, LpOutcome, PackingLp, Relation};

use crate::bitset::ServerSet;
use crate::error::QuorumError;
use crate::measures;
use crate::oracle::{quorum_price, MinWeightQuorumOracle};
use crate::strategy::AccessStrategy;

/// The exact system load and an optimal access strategy, via linear programming.
///
/// Variables are one weight per quorum plus the bound `z`; constraints say each
/// server's induced load is at most `z` and the weights form a distribution.
/// The server rows are filled in one pass over each quorum's members; a server
/// in no quorum never carries load and gets no row.
///
/// # Errors
///
/// Returns [`QuorumError::EmptySystem`] when no quorums are given,
/// [`QuorumError::EmptyQuorum`] or [`QuorumError::UniverseMismatch`] for the
/// first quorum that is empty or has a member outside `0..universe_size` (as
/// [`crate::quorum::ExplicitQuorumSystem::new`] does), or
/// [`QuorumError::InvalidStrategy`] if the LP solver fails to produce a valid
/// distribution (which indicates a numerical problem and should not happen for
/// well-formed inputs).
pub fn optimal_load(
    quorums: &[ServerSet],
    universe_size: usize,
) -> Result<(f64, AccessStrategy), QuorumError> {
    if quorums.is_empty() {
        return Err(QuorumError::EmptySystem);
    }
    let m = quorums.len();
    // Variables: w_0..w_{m-1}, z  (all >= 0).
    let num_vars = m + 1;
    let mut objective = vec![0.0; num_vars];
    objective[m] = 1.0; // minimize z

    let mut rows: Vec<Option<Vec<f64>>> = vec![None; universe_size];
    for (index, q) in quorums.iter().enumerate() {
        if q.is_empty() {
            return Err(QuorumError::EmptyQuorum { index });
        }
        for u in q.iter() {
            let row = rows.get_mut(u).ok_or(QuorumError::UniverseMismatch {
                index,
                universe_size,
            })?;
            row.get_or_insert_with(|| vec![0.0; num_vars])[index] = 1.0;
        }
    }
    let mut constraints: Vec<Constraint> = rows
        .into_iter()
        .flatten()
        .map(|mut coeffs| {
            coeffs[m] = -1.0;
            Constraint::new(coeffs, Relation::Le, 0.0)
        })
        .collect();
    let mut sum_coeffs = vec![1.0; num_vars];
    sum_coeffs[m] = 0.0;
    constraints.push(Constraint::new(sum_coeffs, Relation::Eq, 1.0));

    let lp = LinearProgram {
        num_vars,
        maximize: false,
        objective,
        constraints,
    };
    match lp.solve() {
        LpOutcome::Optimal(sol) => {
            let load = sol.objective_value;
            let weights: Vec<f64> = sol.values[..m].iter().map(|&w| w.max(0.0)).collect();
            // Renormalise against floating point drift before building the strategy.
            let strategy = AccessStrategy::normalized(weights).map_err(|_| {
                QuorumError::InvalidStrategy("LP produced an all-zero strategy".into())
            })?;
            Ok((load, strategy))
        }
        LpOutcome::Infeasible | LpOutcome::Unbounded => Err(QuorumError::InvalidStrategy(
            "load LP was infeasible or unbounded".into(),
        )),
    }
}

/// Certification tolerance of [`optimal_load_oracle`]: the engine keeps
/// generating columns until `load − lower_bound ≤ 1e-9`.
pub const CERTIFIED_GAP_TOLERANCE: f64 = 1e-9;

/// A certified load computation from the column-generation engine.
#[derive(Debug, Clone)]
pub struct CertifiedLoad {
    /// The exact induced load of [`CertifiedLoad::strategy`] — an upper bound
    /// on `L(Q)` that the strategy achieves, recomputed directly from the
    /// working-set columns (never read back from solver state).
    pub load: f64,
    /// A rigorous lower bound on `L(Q)` from the pricing oracle's last
    /// evaluation (weak duality; see the module docs).
    pub lower_bound: f64,
    /// `load − lower_bound`, at most [`CERTIFIED_GAP_TOLERANCE`] (an instance
    /// that does not get there within the round cap is an error).
    pub gap: f64,
    /// The working-set quorums carrying positive strategy weight.
    pub quorums: Vec<ServerSet>,
    /// The access strategy over [`CertifiedLoad::quorums`] achieving
    /// [`CertifiedLoad::load`].
    pub strategy: AccessStrategy,
    /// Column-generation rounds (master solves) performed.
    pub rounds: usize,
    /// Total columns generated (including zero-weight ones dropped from the
    /// returned strategy).
    pub columns: usize,
}

/// Extra pricing calls per round with coverage-count prices: symmetric
/// systems need a whole orbit of near-identical columns before their duals
/// equalise, and harvesting several per master solve cuts the round count by
/// roughly this factor.
const DIVERSIFY_PER_ROUND: usize = 8;

/// Cap on the count-balanced seeding family (see below) — for thresholds the
/// family cycles after `⌈n/(n−c)⌉` columns, but constructions with richer
/// symmetry groups could otherwise keep producing fresh balanced columns
/// forever.
const SEED_CAP: usize = 256;

/// The certified load of a **hand-built explicit quorum list** — the entry
/// point for custom systems that are not one of the paper's constructions
/// and need not be fair, so neither Proposition 3.9's `c(Q)/n` closed form
/// ([`fair_load`] rejects them) nor a structured pricing oracle applies.
///
/// Wraps the list in an [`crate::quorum::ExplicitQuorumSystem`], whose
/// linear-scan pricing oracle is exact, and runs the same certified
/// column-generation engine as the structured constructions — the result
/// carries the identical `load − lower_bound ≤` [`CERTIFIED_GAP_TOLERANCE`]
/// certificate.
///
/// # Errors
///
/// * [`QuorumError::EmptySystem`] / [`QuorumError::InvalidParameters`] when
///   the list is empty or a quorum does not fit the universe (via
///   [`crate::quorum::ExplicitQuorumSystem::new`]).
/// * As [`optimal_load_oracle`] for certification failures.
pub fn optimal_load_oracle_for_quorums(
    universe_size: usize,
    quorums: Vec<ServerSet>,
) -> Result<CertifiedLoad, QuorumError> {
    let sys = crate::quorum::ExplicitQuorumSystem::new(universe_size, quorums)?;
    optimal_load_oracle(&sys)
}

/// Re-certifies a quorum list against a **survivor mask** — the
/// reconfiguration entry point. Quorums touching any suspected server are
/// discarded; the remainder is certified over the *original* universe, so
/// the returned strategy's quorum columns keep full-universe server indices
/// and drop straight into an existing transport/metrics layout. Dead servers
/// simply carry zero load (they appear in no surviving quorum, which the
/// load LP already handles).
///
/// # Errors
///
/// * [`QuorumError::EmptySystem`] when no quorum survives the mask — the
///   caller must switch constructions (or give up resilience) rather than
///   serve from a system with no live quorum.
/// * As [`optimal_load_oracle_for_quorums`] otherwise.
pub fn optimal_load_oracle_for_survivors(
    universe_size: usize,
    quorums: &[ServerSet],
    survivors: &ServerSet,
) -> Result<CertifiedLoad, QuorumError> {
    let surviving: Vec<ServerSet> = quorums
        .iter()
        .filter(|q| q.is_subset_of(survivors))
        .cloned()
        .collect();
    if surviving.is_empty() {
        return Err(QuorumError::EmptySystem);
    }
    optimal_load_oracle_for_quorums(universe_size, surviving)
}

/// The certified system load by column generation, for constructions with a
/// polynomial pricing oracle — the large-`n` path that replaces materialising
/// exponentially many quorum variables.
///
/// Runs the restricted-master / pricing-oracle loop described in the module
/// docs until the gap is at most [`CERTIFIED_GAP_TOLERANCE`], with a round
/// cap of `64 + 16n`.
///
/// # Errors
///
/// * [`QuorumError::InvalidParameters`] when the oracle declines the instance
///   (e.g. an M-Grid whose per-quorum line count makes exact pricing
///   infeasible) — callers should fall back to [`optimal_load`] on an
///   explicit quorum list, or when the gap cannot be certified within the
///   round cap (a numerical failure that does not occur for the paper's
///   constructions).
/// * [`QuorumError::InvalidStrategy`] if the master produces no usable
///   strategy (cannot happen for well-formed oracles).
pub fn optimal_load_oracle<S: MinWeightQuorumOracle + ?Sized>(
    system: &S,
) -> Result<CertifiedLoad, QuorumError> {
    let n = system.universe_size();
    if n == 0 {
        return Err(QuorumError::EmptySystem);
    }
    let max_rounds = 64 + 16 * n;
    let oracle_unavailable = || {
        QuorumError::InvalidParameters(format!(
            "no pricing oracle answer for {} — fall back to the explicit LP",
            system.name()
        ))
    };

    // The uniform-price bound is loop-invariant (prices never change), so it
    // is evaluated exactly once: `min_Q |Q| / n`, which alone is already
    // tight for every vertex-transitive construction. Every price vector
    // ever evaluated yields a valid lower bound (module docs), so the
    // certificate keeps the best one seen.
    let uniform_prices = vec![1.0; n];
    let (uniform_quorum, uniform_value) = system
        .min_weight_quorum(&uniform_prices)
        .ok_or_else(oracle_unavailable)?;
    let mut lower_best = (uniform_value / n as f64).max(0.0);

    // Fast path: a symmetric strategy hint, certified without the master.
    // The hint's induced load is recomputed exactly from its columns and the
    // pricing oracle's uniform-price bound must meet it — the certificate is
    // as rigorous as the column-generated one, just cheaper to reach. It
    // takes the hint's quorums without copying them, and the master (a dense
    // `n × n` basis) is never built.
    let hint_quorums = match system.symmetric_strategy_hint() {
        Some((quorums, weights)) => {
            if quorums.len() == weights.len() && !quorums.is_empty() {
                if let Ok(strategy) = AccessStrategy::normalized(weights) {
                    let upper = strategy.induced_system_load(&quorums, n);
                    let gap = upper - lower_best;
                    if gap <= CERTIFIED_GAP_TOLERANCE {
                        return Ok(CertifiedLoad {
                            load: upper,
                            lower_bound: upper - gap.max(0.0),
                            gap: gap.max(0.0),
                            columns: quorums.len(),
                            quorums,
                            strategy,
                            rounds: 0,
                        });
                    }
                }
            }
            quorums
        }
        None => Vec::new(),
    };

    // Otherwise the hint columns (if any) and the minimum-cardinality quorum
    // seed the restricted master along with the count-balanced family, and
    // column generation takes over.
    let mut master = PackingLp::new(n);
    let mut columns: Vec<ServerSet> = Vec::new();
    let mut seen: std::collections::HashSet<ServerSet> = std::collections::HashSet::new();
    // Per-server coverage counts over the working set: pricing by these
    // counts asks the oracle for the quorum over the *least-covered* servers,
    // which drives the family towards a balanced (partition-like) structure —
    // exactly the kind of support an equalising optimal strategy needs. On
    // the paper's symmetric constructions this seeds the optimal basis almost
    // immediately, where dual-priced columns alone zigzag for hundreds of
    // rounds through the degenerate packing polytope.
    let mut counts = vec![0u64; n];
    fn add_column(
        master: &mut PackingLp,
        columns: &mut Vec<ServerSet>,
        seen: &mut std::collections::HashSet<ServerSet>,
        counts: &mut [u64],
        q: ServerSet,
    ) -> bool {
        if q.is_empty() || !seen.insert(q.clone()) {
            return false;
        }
        master.add_column(&q.to_vec());
        for u in q.iter() {
            counts[u] += 1;
        }
        columns.push(q);
        true
    }
    fn count_prices(counts: &[u64]) -> Vec<f64> {
        counts.iter().map(|&c| c as f64).collect()
    }

    for q in hint_quorums {
        add_column(&mut master, &mut columns, &mut seen, &mut counts, q);
    }
    add_column(
        &mut master,
        &mut columns,
        &mut seen,
        &mut counts,
        uniform_quorum,
    );

    // Seed: count-balanced columns until the family cycles (or a cap).
    for _ in 0..SEED_CAP {
        let (q, _) = system
            .min_weight_quorum(&count_prices(&counts))
            .ok_or_else(oracle_unavailable)?;
        if !add_column(&mut master, &mut columns, &mut seen, &mut counts, q) {
            break;
        }
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        master.solve();
        // Exact upper bound: the normalised working-set strategy's true
        // induced load, recomputed from the sparse columns.
        let x = master.primal();
        let total_w: f64 = x.iter().sum();
        if total_w <= 0.0 {
            return Err(QuorumError::InvalidStrategy(
                "column-generation master produced an all-zero strategy".into(),
            ));
        }
        let mut loads = vec![0.0; n];
        for (q, &w) in columns.iter().zip(&x) {
            if w > 0.0 {
                for u in q.iter() {
                    loads[u] += w;
                }
            }
        }
        let upper = loads.iter().fold(0.0f64, |a, &l| a.max(l)) / total_w;

        // Rigorous lower bound from the oracle at the master's dual prices
        // (the classic column-generation bound; the loop-invariant
        // uniform-price bound is already folded into `lower_best`). Any
        // evaluated price vector yields a valid bound, so the best one seen
        // so far certifies.
        let y = master.duals();
        let sum_y: f64 = y.iter().sum();
        let (priced, oracle_value) = system
            .min_weight_quorum(&y)
            .ok_or_else(oracle_unavailable)?;
        let v = quorum_price(&priced, &y);
        debug_assert!(
            (v - oracle_value).abs() <= 1e-6 * (1.0 + v.abs()),
            "oracle of {} reported price {oracle_value} but its quorum costs {v}",
            system.name()
        );
        if sum_y > 0.0 {
            lower_best = lower_best.max(v / sum_y);
        }
        let lower = lower_best.min(upper);
        let gap = upper - lower;
        if gap <= CERTIFIED_GAP_TOLERANCE {
            // Keep only the support of the strategy.
            let mut support = Vec::new();
            let mut weights = Vec::new();
            for (q, &w) in columns.iter().zip(&x) {
                if w > 0.0 {
                    support.push(q.clone());
                    weights.push(w);
                }
            }
            let strategy = AccessStrategy::normalized(weights)?;
            let load = strategy.induced_system_load(&support, n);
            return Ok(CertifiedLoad {
                load,
                lower_bound: load - gap,
                gap,
                quorums: support,
                strategy,
                rounds,
                columns: columns.len(),
            });
        }
        if rounds >= max_rounds {
            return Err(QuorumError::InvalidParameters(format!(
                "column generation for {} did not certify within {max_rounds} rounds (gap {gap:e})",
                system.name()
            )));
        }

        // Grow the working set: the dual-priced column (the classic improving
        // column of column generation) and a harvest of count-balanced
        // columns that keep the family equalisable.
        let mut progressed = add_column(&mut master, &mut columns, &mut seen, &mut counts, priced);
        for _ in 0..DIVERSIFY_PER_ROUND {
            let Some((q, _)) = system.min_weight_quorum(&count_prices(&counts)) else {
                break;
            };
            if !add_column(&mut master, &mut columns, &mut seen, &mut counts, q) {
                break;
            }
            progressed = true;
        }
        if !progressed {
            // The oracle's optimum is already in the working set yet the gap
            // has not closed: a numerical stall. Report it rather than loop.
            return Err(QuorumError::InvalidParameters(format!(
                "column generation for {} stalled with gap {gap:e}",
                system.name()
            )));
        }
    }
}

/// The load of a *fair* system by Proposition 3.9: `L(Q) = c(Q) / n`.
///
/// # Errors
///
/// Returns [`QuorumError::InvalidParameters`] if the system is not fair (use
/// [`optimal_load`] instead in that case).
pub fn fair_load(quorums: &[ServerSet], universe_size: usize) -> Result<f64, QuorumError> {
    if measures::fairness(quorums, universe_size).is_none() {
        return Err(QuorumError::InvalidParameters(
            "Proposition 3.9 requires an (s, d)-fair system".into(),
        ));
    }
    Ok(measures::min_quorum_size(quorums) as f64 / universe_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_combinatorics::subsets::KSubsets;

    fn k_of_n(n: usize, k: usize) -> Vec<ServerSet> {
        KSubsets::new(n, k)
            .map(|s| ServerSet::from_indices(n, s))
            .collect()
    }

    #[test]
    fn majority_load_is_majority_fraction() {
        // Majority over n: load = ceil((n+1)/2)/n.
        for n in [3usize, 5, 7] {
            let k = n / 2 + 1;
            let q = k_of_n(n, k);
            let (load, strategy) = optimal_load(&q, n).unwrap();
            let expected = k as f64 / n as f64;
            assert!((load - expected).abs() < 1e-6, "n={n} load={load}");
            // The returned strategy must achieve (close to) the optimal load.
            let achieved = strategy.induced_system_load(&q, n);
            assert!(achieved <= load + 1e-6);
            // And it must agree with the fair-system closed form.
            assert!((fair_load(&q, n).unwrap() - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn singleton_quorum_forces_unit_load() {
        // A system containing a singleton quorum {0} that every other quorum must
        // intersect: the only quorums are supersets of {0}; load is 1 on server 0...
        let q = vec![
            ServerSet::from_indices(3, [0]),
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(3, [0, 2]),
        ];
        let (load, _) = optimal_load(&q, 3).unwrap();
        assert!((load - 1.0).abs() < 1e-6);
    }

    #[test]
    fn star_versus_majority_loads() {
        // The "star" system {{0,1},{0,2},{0,3}} has load 1 (server 0 in every quorum);
        // the 3-majority has load 2/3 — the LP must see the difference.
        let star = vec![
            ServerSet::from_indices(4, [0, 1]),
            ServerSet::from_indices(4, [0, 2]),
            ServerSet::from_indices(4, [0, 3]),
        ];
        let (l_star, _) = optimal_load(&star, 4).unwrap();
        assert!((l_star - 1.0).abs() < 1e-6);
        let (l_maj, _) = optimal_load(&k_of_n(3, 2), 3).unwrap();
        assert!((l_maj - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn grid_like_load() {
        // 2x2 grid, quorums = one row + one column (4 quorums of size 3 over 4
        // elements): fair with s=3, so L = 3/4.
        let q = vec![
            ServerSet::from_indices(4, [0, 1, 2]), // row0 + col0
            ServerSet::from_indices(4, [0, 1, 3]), // row0 + col1
            ServerSet::from_indices(4, [2, 3, 0]), // row1 + col0
            ServerSet::from_indices(4, [2, 3, 1]), // row1 + col1
        ];
        let (load, _) = optimal_load(&q, 4).unwrap();
        assert!((load - 0.75).abs() < 1e-6);
        assert!((fair_load(&q, 4).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn load_lower_bounds_respected() {
        // NW98: L >= max(c/n, 1/c); check on 4-of-7 threshold.
        let q = k_of_n(7, 4);
        let (load, _) = optimal_load(&q, 7).unwrap();
        assert!(load >= 4.0 / 7.0 - 1e-9);
        assert!(load >= 1.0 / 4.0 - 1e-9);
    }

    #[test]
    fn fair_load_rejects_unfair_systems() {
        let q = vec![
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(3, [0, 1, 2]),
        ];
        assert!(fair_load(&q, 3).is_err());
        // The LP still works on unfair systems.
        let (load, _) = optimal_load(&q, 3).unwrap();
        assert!(load > 0.0 && load <= 1.0);
    }

    #[test]
    fn empty_system_is_an_error() {
        assert!(matches!(
            optimal_load(&[], 3),
            Err(QuorumError::EmptySystem)
        ));
    }

    #[test]
    fn member_outside_the_universe_is_an_error() {
        // Server 4 would get no row, so its load would be silently ignored.
        let quorums = vec![
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(5, [1, 4]),
        ];
        let expected = QuorumError::UniverseMismatch {
            index: 1,
            universe_size: 3,
        };
        assert_eq!(optimal_load(&quorums, 3).unwrap_err(), expected);
        assert_eq!(
            crate::quorum::ExplicitQuorumSystem::new(3, quorums).unwrap_err(),
            expected
        );
    }

    #[test]
    fn empty_quorum_is_an_error() {
        // An empty quorum would take all the weight and report load 0.
        let quorums = vec![ServerSet::from_indices(3, [0, 1]), ServerSet::new(3)];
        let expected = QuorumError::EmptyQuorum { index: 1 };
        assert_eq!(optimal_load(&quorums, 3).unwrap_err(), expected);
        assert_eq!(
            crate::quorum::ExplicitQuorumSystem::new(3, quorums).unwrap_err(),
            expected
        );
    }

    #[test]
    fn explicit_list_entry_certifies_a_non_fair_custom_system() {
        // Hand-built non-fair system on 4 servers: an asymmetric star plus
        // the complement quorum. Not fair (mixed quorum sizes, server 0
        // privileged), so c(Q)/n does not apply — the analytic optimum puts
        // weight 2/5 on {1,2,3} and 1/5 on each star, equalising every
        // server's load at 3/5.
        let quorums = vec![
            ServerSet::from_indices(4, [0, 1]),
            ServerSet::from_indices(4, [0, 2]),
            ServerSet::from_indices(4, [0, 3]),
            ServerSet::from_indices(4, [1, 2, 3]),
        ];
        assert!(fair_load(&quorums, 4).is_err());
        let certified = optimal_load_oracle_for_quorums(4, quorums.clone()).unwrap();
        assert!(
            certified.gap <= CERTIFIED_GAP_TOLERANCE,
            "gap={}",
            certified.gap
        );
        assert!(
            (certified.load - 0.6).abs() <= 1e-9,
            "certified {} vs analytic 3/5",
            certified.load
        );
        // The certified answer agrees with the dense explicit LP.
        let (dense, _) = optimal_load(&quorums, 4).unwrap();
        assert!((certified.load - dense).abs() <= 1e-9);
        // Every strategy quorum is one of the hand-built ones.
        for q in &certified.quorums {
            assert!(quorums.contains(q));
        }
        // Invalid lists surface the constructor's errors.
        assert!(optimal_load_oracle_for_quorums(4, vec![]).is_err());
    }

    #[test]
    fn survivor_mask_recertification_drops_dead_quorums_and_their_load() {
        // 3-of-5 majority quorums; then server 4 dies. Only the C(4,3) = 4
        // quorums inside {0..3} survive, and the re-certified load is the
        // 3-of-4 fair load 3/4 — *over the original 5-server universe*, with
        // the dead server carrying zero load.
        let quorums = k_of_n(5, 3);
        let healthy = optimal_load_oracle_for_survivors(5, &quorums, &ServerSet::full(5)).unwrap();
        assert!((healthy.load - 3.0 / 5.0).abs() <= 1e-9, "{}", healthy.load);

        let survivors = ServerSet::from_indices(5, [0, 1, 2, 3]);
        let refit = optimal_load_oracle_for_survivors(5, &quorums, &survivors).unwrap();
        assert!(refit.gap <= CERTIFIED_GAP_TOLERANCE);
        assert!((refit.load - 3.0 / 4.0).abs() <= 1e-9, "{}", refit.load);
        for q in &refit.quorums {
            assert!(
                q.is_subset_of(&survivors),
                "no quorum touches the dead server"
            );
            assert_eq!(q.capacity(), 5, "full-universe indexing is kept");
        }

        // Too many losses: every quorum touches a suspect, and the caller is
        // told to switch constructions instead of being handed a degenerate
        // strategy.
        let lost = ServerSet::from_indices(5, [0, 1]);
        assert!(matches!(
            optimal_load_oracle_for_survivors(5, &quorums, &lost),
            Err(QuorumError::EmptySystem)
        ));
    }

    fn explicit(n: usize, quorums: Vec<ServerSet>) -> crate::quorum::ExplicitQuorumSystem {
        crate::quorum::ExplicitQuorumSystem::new(n, quorums).unwrap()
    }

    #[test]
    fn column_generation_matches_explicit_lp_on_small_systems() {
        // The engine (running against the explicit system's scan oracle) must
        // land on the same optimum as the dense LP, with a certified gap.
        let cases: Vec<(usize, Vec<ServerSet>)> = vec![
            (3, k_of_n(3, 2)),
            (5, k_of_n(5, 3)),
            (7, k_of_n(7, 4)),
            (9, k_of_n(9, 7)),
            (
                4,
                vec![
                    ServerSet::from_indices(4, [0, 1, 2]),
                    ServerSet::from_indices(4, [0, 1, 3]),
                    ServerSet::from_indices(4, [2, 3, 0]),
                    ServerSet::from_indices(4, [2, 3, 1]),
                ],
            ),
        ];
        for (n, quorums) in cases {
            let sys = explicit(n, quorums.clone());
            let (lp_load, _) = optimal_load(&quorums, n).unwrap();
            let certified = optimal_load_oracle(&sys).unwrap();
            assert!(
                (certified.load - lp_load).abs() <= 1e-9,
                "n={n}: certified {} vs explicit {lp_load}",
                certified.load
            );
            assert!(certified.gap <= CERTIFIED_GAP_TOLERANCE, "n={n}");
            assert!(certified.lower_bound <= certified.load + 1e-15);
            // The returned strategy achieves exactly the reported load.
            let achieved = certified
                .strategy
                .induced_system_load(&certified.quorums, n);
            assert_eq!(achieved.to_bits(), certified.load.to_bits(), "n={n}");
        }
    }

    #[test]
    fn column_generation_on_asymmetric_star_system() {
        // Server 0 sits in every quorum: the certified load must be 1 and the
        // lower bound must prove it (no strategy can do better).
        let quorums = vec![
            ServerSet::from_indices(4, [0, 1]),
            ServerSet::from_indices(4, [0, 2]),
            ServerSet::from_indices(4, [0, 3]),
        ];
        let sys = explicit(4, quorums);
        let certified = optimal_load_oracle(&sys).unwrap();
        assert!((certified.load - 1.0).abs() <= 1e-9);
        assert!(certified.lower_bound >= 1.0 - 1e-9);
    }

    #[test]
    fn column_generation_never_enumerates_more_than_needed() {
        // A 6-of-11 threshold has C(11,6) = 462 quorums; the working set the
        // engine touches must stay far below that.
        let quorums = k_of_n(11, 6);
        let sys = explicit(11, quorums.clone());
        let certified = optimal_load_oracle(&sys).unwrap();
        assert!((certified.load - 6.0 / 11.0).abs() <= 1e-9);
        assert!(
            certified.columns < 100,
            "working set blew up: {} columns",
            certified.columns
        );
    }

    /// A pure-oracle threshold stand-in (no quorum list): lets the probe
    /// exercise the engine at sizes where even `KSubsets` is unthinkable.
    struct ThresholdOracle {
        n: usize,
        k: usize,
    }
    impl crate::quorum::QuorumSystem for ThresholdOracle {
        fn universe_size(&self) -> usize {
            self.n
        }
        fn name(&self) -> String {
            format!("{}-of-{}", self.k, self.n)
        }
        fn sample_quorum(&self, _rng: &mut dyn rand::RngCore) -> ServerSet {
            ServerSet::from_indices(self.n, 0..self.k)
        }
        fn find_live_quorum(&self, alive: &ServerSet) -> Option<ServerSet> {
            (alive.len() >= self.k)
                .then(|| ServerSet::from_indices(self.n, alive.iter().take(self.k)))
        }
        fn min_quorum_size(&self) -> usize {
            self.k
        }
    }
    impl MinWeightQuorumOracle for ThresholdOracle {
        fn min_weight_quorum(&self, prices: &[f64]) -> Option<(ServerSet, f64)> {
            let mut idx: Vec<usize> = (0..self.n).collect();
            idx.sort_by(|&a, &b| prices[a].total_cmp(&prices[b]).then(a.cmp(&b)));
            let v = idx[..self.k].iter().map(|&u| prices[u]).sum();
            Some((
                ServerSet::from_indices(self.n, idx[..self.k].iter().copied()),
                v,
            ))
        }
    }

    #[test]
    fn column_generation_scales_to_wide_thresholds() {
        // Modest size in debug builds; the n = 1024 paper scale runs in the
        // release-mode bench (`bench_load`) and the probe below.
        for (n, k) in [(64usize, 48usize), (128, 96)] {
            let sys = ThresholdOracle { n, k };
            let certified = optimal_load_oracle(&sys).unwrap();
            let expected = k as f64 / n as f64;
            assert!(
                (certified.load - expected).abs() <= 1e-9,
                "n={n}: {} vs {expected} (gap {:e}, rounds {})",
                certified.load,
                certified.gap,
                certified.rounds
            );
            assert!(certified.gap <= CERTIFIED_GAP_TOLERANCE);
        }
    }

    #[test]
    #[ignore = "column-generation scaling probe; run with --release --ignored --nocapture"]
    fn probe_column_generation_scaling() {
        for (n, k) in [(256usize, 192usize), (576, 432), (1024, 768), (1024, 1000)] {
            let sys = ThresholdOracle { n, k };
            let start = std::time::Instant::now();
            let c = optimal_load_oracle(&sys).unwrap();
            println!(
                "{}-of-{}: load={:.9} gap={:.2e} rounds={} columns={} in {:.3}s",
                k,
                n,
                c.load,
                c.gap,
                c.rounds,
                c.columns,
                start.elapsed().as_secs_f64()
            );
        }
    }

    #[test]
    fn optimal_strategy_beats_uniform_on_asymmetric_system() {
        // System where uniform is suboptimal: quorums {0,1},{0,2},{1,2},{0,1},
        // duplicated quorum skews uniform; LP should still reach 2/3.
        let q = vec![
            ServerSet::from_indices(3, [0, 1]),
            ServerSet::from_indices(3, [0, 2]),
            ServerSet::from_indices(3, [1, 2]),
            ServerSet::from_indices(3, [0, 1]),
        ];
        let uniform = AccessStrategy::uniform(4).unwrap();
        let uniform_load = uniform.induced_system_load(&q, 3);
        let (opt, _) = optimal_load(&q, 3).unwrap();
        assert!(opt <= uniform_load + 1e-9);
        assert!((opt - 2.0 / 3.0).abs() < 1e-6);
    }
}
