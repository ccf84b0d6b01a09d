//! Incremental packing LP for column generation.
//!
//! The load `L(Q)` of a quorum system is the optimum of a *packing* program:
//! with one variable per quorum,
//!
//! ```text
//! W* = max Σ_Q w_Q   s.t.   Σ_{Q ∋ u} w_Q <= 1 for every server u,  w >= 0,
//! ```
//!
//! and `L(Q) = 1 / W*` (scale the optimal `w` down by its total to get a
//! probability distribution whose busiest server carries load `1/W*`). The
//! dual is a fractional covering program — `min Σ_u y_u` subject to
//! `y(Q) >= 1` for every quorum — whose separation problem is exactly the
//! *pricing oracle* of column generation: find the quorum of minimum total
//! price `y(Q)`.
//!
//! [`PackingLp`] is the restricted master for that scheme. It differs from
//! the general-purpose [`crate::simplex`] solver in three ways that matter
//! for column generation:
//!
//! * **Sparse columns.** A quorum column is described by the indices of the
//!   rows (servers) it touches; the dense tableau representation is built
//!   internally by a `B⁻¹`-transform against the slack block, never by the
//!   caller.
//! * **Incremental growth.** [`PackingLp::add_column`] appends a column to a
//!   *solved* tableau in `O(rows · nnz)` without invalidating the basis.
//! * **Warm restart.** [`PackingLp::solve`] resumes primal simplex from the
//!   current basis, so a column-generation round typically costs a handful
//!   of pivots instead of a from-scratch solve. (All constraints are
//!   `<= 1` with slack variables, so the all-slack basis is feasible and no
//!   phase-1 is ever needed.)
//!
//! The master also exposes the dual prices ([`PackingLp::duals`]) that the
//! pricing oracle consumes; by weak duality *any* non-negative price vector
//! `y` certifies `L(Q) >= min_Q y(Q) / Σ_u y_u`, which is what makes the
//! column-generation result of `bqs_core::load::optimal_load_oracle`
//! certified rather than heuristic.

/// Tolerance for reduced costs and ratio tests.
const EPS: f64 = 1e-9;

/// Minimum magnitude of an acceptable pivot element. Pivoting on a value
/// barely above `EPS` multiplies the tableau by up to `1/EPS` and wrecks
/// feasibility; anything below this threshold is treated as zero in the
/// ratio test.
const PIVOT_TOL: f64 = 1e-7;

/// Worst negative right-hand side tolerated before the tableau is declared
/// corrupted and rebuilt from the original columns.
const FEASIBILITY_TOL: f64 = 1e-7;

/// Per-row right-hand-side perturbation step: the simplex works against
/// `b_i = 1 + (i+1)·PERTURB_STEP` instead of the all-ones vector. The packing
/// polytope of heavily-overlapping 0/1 columns is massively degenerate — with
/// exact ties the ratio test stalls through tens of thousands of
/// zero-progress pivots — and distinct right-hand sides break every tie (the
/// step sits above the `EPS` comparisons). The perturbation never leaks into
/// results: [`PackingLp::primal`] and [`PackingLp::objective`] recompute the
/// basic solution of the *unperturbed* program from the slack block (which is
/// exactly `B⁻¹`), and the duals are independent of `b` altogether.
const PERTURB_STEP: f64 = 1e-8;

/// Number of Dantzig-rule pivots before falling back to Bland's rule
/// (anti-cycling; the packing master is highly degenerate — every right-hand
/// side is 1).
const BLAND_AFTER: usize = 2_000;

/// Outcome of [`PackingLp::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackingOutcome {
    /// The current column set is solved to optimality.
    Optimal,
    /// The iteration cap was reached before optimality (numerical stall);
    /// the tableau is still a valid feasible point, just possibly not the
    /// optimum over the current columns.
    IterationLimit,
}

/// An incrementally grown packing LP `max Σ x  s.t.  A x <= 1, x >= 0` with
/// 0/1 sparse columns, solved by warm-started primal simplex.
#[derive(Debug, Clone)]
pub struct PackingLp {
    rows: usize,
    /// Tableau columns, column-major. Columns `0..rows` are the slacks
    /// (initially the identity, i.e. after pivoting they hold `B⁻¹`);
    /// structural columns follow in insertion order.
    cols: Vec<Vec<f64>>,
    /// Original sparse row-index lists of the structural columns.
    entries: Vec<Vec<usize>>,
    /// Current right-hand side `B⁻¹ b`.
    b: Vec<f64>,
    /// Basic column index per row.
    basis: Vec<usize>,
    /// Whether each column is currently basic.
    in_basis: Vec<bool>,
    /// Reduced costs, one per column (maintained through pivots).
    z: Vec<f64>,
}

impl PackingLp {
    /// An empty master over `rows` packing constraints (`<= 1` each).
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    #[must_use]
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "packing LP needs at least one row");
        let mut cols = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut c = vec![0.0; rows];
            c[i] = 1.0;
            cols.push(c);
        }
        PackingLp {
            rows,
            cols,
            entries: Vec::new(),
            b: (0..rows)
                .map(|i| 1.0 + (i + 1) as f64 * PERTURB_STEP)
                .collect(),
            basis: (0..rows).collect(),
            in_basis: vec![true; rows],
            z: vec![0.0; rows],
        }
    }

    /// The basic solution of the **unperturbed** program (`b = 1`) under the
    /// current basis: `B⁻¹·1` read off the slack block, clamped against
    /// last-ulp noise. Shared by [`PackingLp::primal`] and
    /// [`PackingLp::objective`].
    fn exact_basic_values(&self) -> Vec<f64> {
        let mut b = vec![0.0; self.rows];
        for slack in &self.cols[..self.rows] {
            for (acc, &v) in b.iter_mut().zip(slack) {
                *acc += v;
            }
        }
        b
    }

    /// Number of packing constraints.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends a structural column touching the given rows (objective
    /// coefficient 1), without disturbing the current basis. Returns the
    /// column's structural index.
    ///
    /// # Panics
    ///
    /// Panics if the entry list is empty (the objective would be unbounded)
    /// or any row index is out of range.
    pub fn add_column(&mut self, rows_touched: &[usize]) -> usize {
        assert!(
            !rows_touched.is_empty(),
            "a packing column must touch at least one row"
        );
        // Transformed column B⁻¹ a: the slack block of the tableau *is* B⁻¹,
        // so for a 0/1 column this is a sum of slack columns.
        let mut t = vec![0.0; self.rows];
        let mut zc = 1.0; // reduced cost: 1 - y(a) = 1 + Σ z[slack_i]
        for &i in rows_touched {
            assert!(i < self.rows, "row index {i} out of range");
            for (tr, sr) in t.iter_mut().zip(&self.cols[i]) {
                *tr += sr;
            }
            zc += self.z[i];
        }
        self.cols.push(t);
        self.z.push(zc);
        self.in_basis.push(false);
        self.entries.push(rows_touched.to_vec());
        self.entries.len() - 1
    }

    /// Runs primal simplex from the current basis until optimality over the
    /// current columns (or an iteration cap, to bound numerical stalls).
    pub fn solve(&mut self) -> PackingOutcome {
        let max_iters = 50_000usize;
        let mut rebuilt = false;
        let mut iter = 0usize;
        while iter < max_iters {
            iter += 1;
            let use_bland = iter > BLAND_AFTER;
            let mut entering = None;
            let mut best = EPS;
            for (j, &zj) in self.z.iter().enumerate() {
                if self.in_basis[j] || zj <= EPS {
                    continue;
                }
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if zj > best {
                    best = zj;
                    entering = Some(j);
                }
            }
            let Some(enter) = entering else {
                // Claimed optimality must come with a feasible basis; losses
                // below -FEASIBILITY_TOL mean accumulated pivot error, which a
                // rebuild from the original sparse columns repairs exactly.
                if !rebuilt && self.b.iter().any(|&v| v < -FEASIBILITY_TOL) {
                    self.rebuild();
                    rebuilt = true;
                    continue;
                }
                return PackingOutcome::Optimal;
            };
            // Ratio test. Only coefficients comfortably above PIVOT_TOL are
            // eligible pivots: a pivot barely above machine noise scales the
            // tableau by its reciprocal and destroys feasibility. Among
            // (near-)tied ratios, Dantzig mode prefers the largest pivot
            // element (numerical stability); Bland mode keeps the smallest
            // basic-variable index (anti-cycling).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows {
                let coeff = self.cols[enter][r];
                if coeff > PIVOT_TOL {
                    let ratio = (self.b[r] / coeff).max(0.0);
                    if ratio < best_ratio - EPS {
                        best_ratio = ratio;
                        leave = Some(r);
                    } else if ratio < best_ratio + EPS {
                        let better = leave.is_none_or(|l| {
                            if use_bland {
                                self.basis[r] < self.basis[l]
                            } else {
                                coeff > self.cols[enter][l]
                            }
                        });
                        if better {
                            best_ratio = best_ratio.min(ratio);
                            leave = Some(r);
                        }
                    }
                }
            }
            let Some(leave_row) = leave else {
                // A positive reduced cost with no eligible pivot cannot
                // happen for non-empty 0/1 columns under Ax <= 1 except
                // through numerical corruption: rebuild once and retry.
                if rebuilt {
                    return PackingOutcome::IterationLimit;
                }
                self.rebuild();
                rebuilt = true;
                continue;
            };
            self.pivot(leave_row, enter);
        }
        PackingOutcome::IterationLimit
    }

    /// Rebuilds the tableau from the original sparse columns with a fresh
    /// all-slack basis, discarding accumulated floating-point error (and the
    /// warm start). Called only when a solve detects numerical corruption.
    fn rebuild(&mut self) {
        let entries = std::mem::take(&mut self.entries);
        let mut fresh = PackingLp::new(self.rows);
        for e in &entries {
            fresh.add_column(e);
        }
        *self = fresh;
    }

    fn pivot(&mut self, row: usize, enter: usize) {
        let pv = self.cols[enter][row];
        debug_assert!(pv > EPS, "pivot element too small");
        // Snapshot the entering column before it is transformed.
        let pcv: Vec<f64> = self.cols[enter].clone();
        let inv = 1.0 / pv;
        let zf = self.z[enter];
        for col in &mut self.cols {
            let a = col[row] * inv;
            if a == 0.0 {
                continue;
            }
            col[row] = a;
            for (r, &factor) in pcv.iter().enumerate() {
                if r != row && factor != 0.0 {
                    col[r] -= factor * a;
                    if col[r].abs() < 1e-14 {
                        col[r] = 0.0;
                    }
                }
            }
        }
        let br = self.b[row] * inv;
        self.b[row] = br;
        for (r, &factor) in pcv.iter().enumerate() {
            if r != row && factor != 0.0 {
                self.b[r] -= factor * br;
                if self.b[r].abs() < 1e-12 {
                    self.b[r] = 0.0;
                }
            }
        }
        if zf != 0.0 {
            for (j, zj) in self.z.iter_mut().enumerate() {
                *zj -= zf * self.cols[j][row];
                if zj.abs() < 1e-14 {
                    *zj = 0.0;
                }
            }
        }
        self.in_basis[self.basis[row]] = false;
        self.in_basis[enter] = true;
        self.basis[row] = enter;
        // The entering column's reduced cost is exactly zero by construction.
        self.z[enter] = 0.0;
    }

    /// The current primal values of the structural columns (insertion order),
    /// for the unperturbed (`b = 1`) program.
    #[must_use]
    pub fn primal(&self) -> Vec<f64> {
        let exact = self.exact_basic_values();
        let mut x = vec![0.0; self.entries.len()];
        for (r, &j) in self.basis.iter().enumerate() {
            if j >= self.rows {
                x[j - self.rows] = exact[r].max(0.0);
            }
        }
        x
    }

    /// The current objective value `Σ x` of the unperturbed program.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(self.exact_basic_values())
            .filter(|&(&j, _)| j >= self.rows)
            .map(|(_, v)| v.max(0.0))
            .sum()
    }

    /// The current dual prices `y`, one per row, clamped to be non-negative
    /// (the clamp only absorbs last-ulp simplex noise; any `y >= 0` yields a
    /// valid covering bound, so the certificate downstream stays sound).
    #[must_use]
    pub fn duals(&self) -> Vec<f64> {
        // Reduced cost of slack i is 0 - y_i, so y_i = -z[i].
        self.z[..self.rows].iter().map(|&z| (-z).max(0.0)).collect()
    }

    /// The original sparse entries of structural column `j`.
    #[must_use]
    pub fn column_entries(&self, j: usize) -> &[usize] {
        &self.entries[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_fresh(rows: usize, columns: &[&[usize]]) -> PackingLp {
        let mut lp = PackingLp::new(rows);
        for c in columns {
            lp.add_column(c);
        }
        assert_eq!(lp.solve(), PackingOutcome::Optimal);
        lp
    }

    #[test]
    fn single_column_saturates_its_rows() {
        let lp = solve_fresh(3, &[&[0, 1]]);
        assert!((lp.objective() - 1.0).abs() < 1e-12);
        assert_eq!(lp.primal(), vec![1.0]);
    }

    #[test]
    fn majority_packing_value_is_three_halves() {
        // Majority-of-3 quorums {01, 02, 12}: W* = 3/2 (each w = 1/2), so
        // the load is 1/W* = 2/3.
        let lp = solve_fresh(3, &[&[0, 1], &[0, 2], &[1, 2]]);
        assert!((lp.objective() - 1.5).abs() < 1e-9);
        let x = lp.primal();
        let loads: Vec<f64> = (0..3)
            .map(|u| {
                (0..3)
                    .filter(|&j| lp.column_entries(j).contains(&u))
                    .map(|j| x[j])
                    .sum()
            })
            .collect();
        for l in loads {
            assert!(l <= 1.0 + 1e-9);
        }
        // Duals: y = (1/2, 1/2, 1/2) is the unique covering optimum.
        for y in lp.duals() {
            assert!((y - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn disjoint_columns_pack_independently() {
        let lp = solve_fresh(4, &[&[0, 1], &[2, 3]]);
        assert!((lp.objective() - 2.0).abs() < 1e-12);
        assert_eq!(lp.primal(), vec![1.0, 1.0]);
    }

    #[test]
    fn warm_restart_after_add_column_reaches_new_optimum() {
        // Star system {0,1}, {0,2}: objective 1 (row 0 saturates).
        let mut lp = PackingLp::new(3);
        lp.add_column(&[0, 1]);
        lp.add_column(&[0, 2]);
        assert_eq!(lp.solve(), PackingOutcome::Optimal);
        assert!((lp.objective() - 1.0).abs() < 1e-9);
        // Adding {1,2} turns it into the majority system: W* jumps to 3/2,
        // and the warm-started solve must find it.
        lp.add_column(&[1, 2]);
        assert_eq!(lp.solve(), PackingOutcome::Optimal);
        assert!((lp.objective() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn duals_price_out_all_columns_at_optimality() {
        // At optimality every column must satisfy y(column) >= 1 - eps
        // (non-negative reduced cost is exactly dual feasibility here).
        let columns: &[&[usize]] = &[&[0, 1, 2], &[2, 3], &[0, 3], &[1, 3]];
        let lp = solve_fresh(4, columns);
        let y = lp.duals();
        for c in columns {
            let price: f64 = c.iter().map(|&u| y[u]).sum();
            assert!(price >= 1.0 - 1e-9, "column {c:?} priced at {price}");
        }
        // Strong duality: Σ y == objective.
        let sum_y: f64 = y.iter().sum();
        assert!((sum_y - lp.objective()).abs() < 1e-9);
    }

    #[test]
    fn threshold_cyclic_family_reaches_n_over_k() {
        // 3-of-5 threshold, cyclic shifts: W* = 5/3.
        let cols: Vec<Vec<usize>> = (0..5)
            .map(|s| (0..3).map(|i| (s + i) % 5).collect())
            .collect();
        let mut lp = PackingLp::new(5);
        for c in &cols {
            lp.add_column(c);
        }
        assert_eq!(lp.solve(), PackingOutcome::Optimal);
        assert!((lp.objective() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn untouched_rows_keep_zero_duals() {
        let lp = solve_fresh(5, &[&[0, 1], &[1, 2]]);
        let y = lp.duals();
        assert_eq!(y[3], 0.0);
        assert_eq!(y[4], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_column_rejected() {
        let mut lp = PackingLp::new(2);
        lp.add_column(&[]);
    }

    #[test]
    fn incremental_matches_fresh_solve_on_random_family() {
        // Grow a master one column at a time (solving between additions) and
        // compare the final objective against a fresh solve over the same
        // columns: warm restarts must not change the optimum.
        let columns: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![2, 3, 4],
            vec![0, 4],
            vec![1, 3],
            vec![0, 2, 4],
            vec![1, 2, 3],
        ];
        let mut warm = PackingLp::new(5);
        for c in &columns {
            warm.add_column(c);
            assert_eq!(warm.solve(), PackingOutcome::Optimal);
        }
        let mut fresh = PackingLp::new(5);
        for c in &columns {
            fresh.add_column(c);
        }
        assert_eq!(fresh.solve(), PackingOutcome::Optimal);
        assert!((warm.objective() - fresh.objective()).abs() < 1e-9);
    }
}
