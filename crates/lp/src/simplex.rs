//! Dense two-phase simplex.
//!
//! The implementation is a textbook tableau simplex with Bland's anti-cycling rule:
//! phase 1 drives artificial variables to zero to find a basic feasible solution,
//! phase 2 optimises the user objective. The tableau is dense and row-major, shaped
//! for the load LP of an explicit quorum system: one variable per quorum, one row
//! per server, so few rows and many columns (134 597 variables × 25 rows for the
//! 18-of-24 threshold). Pricing costs `O(cols × cost-bearing rows)`: only rows whose
//! basic variable has a non-zero objective coefficient contribute to a reduced cost
//! (one row in phase 2 of the load LP). A pivot costs `O(rows × cols)`, streamed as
//! one slice update per row.

/// The sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x <= rhs`
    Le,
    /// `coeffs · x >= rhs`
    Ge,
    /// `coeffs · x == rhs`
    Eq,
}

/// A single linear constraint over the decision variables.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Coefficients, one per decision variable (missing trailing entries are zero).
    pub coeffs: Vec<f64>,
    /// Constraint sense.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Convenience constructor.
    #[must_use]
    pub fn new(coeffs: Vec<f64>, relation: Relation, rhs: f64) -> Self {
        Constraint {
            coeffs,
            relation,
            rhs,
        }
    }
}

/// A linear program over non-negative decision variables.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Number of decision variables (all constrained to be `>= 0`).
    pub num_vars: usize,
    /// Objective coefficients, one per decision variable.
    pub objective: Vec<f64>,
    /// `true` to maximize the objective, `false` to minimize it.
    pub maximize: bool,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

/// An optimal solution to a linear program.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The optimal objective value (in the user's sense: maximized or minimized).
    pub objective_value: f64,
    /// Optimal values of the decision variables.
    pub values: Vec<f64>,
}

/// The outcome of solving a linear program.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(Solution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Solves the program with a two-phase simplex method.
    ///
    /// # Panics
    ///
    /// Panics if `objective.len() != num_vars` or any constraint has more
    /// coefficients than `num_vars`.
    #[must_use]
    pub fn solve(&self) -> LpOutcome {
        assert_eq!(
            self.objective.len(),
            self.num_vars,
            "objective length must equal num_vars"
        );
        for c in &self.constraints {
            assert!(
                c.coeffs.len() <= self.num_vars,
                "constraint has more coefficients than variables"
            );
        }
        Tableau::build(self).solve()
    }
}

/// Internal simplex tableau.
struct Tableau {
    /// rows x cols coefficient matrix (constraint rows only).
    a: Vec<Vec<f64>>,
    /// Right-hand sides, one per row.
    b: Vec<f64>,
    /// Index of the basic variable for each row.
    basis: Vec<usize>,
    /// `basic[j]` iff column `j` is in `basis`.
    basic: Vec<bool>,
    /// Total number of columns (structural + slack/surplus + artificial).
    cols: usize,
    /// Number of structural (user) variables.
    n_user: usize,
    /// First artificial column: the artificials are the columns `first_artificial..cols`.
    first_artificial: usize,
    /// User objective (maximization form) padded to `cols`.
    objective: Vec<f64>,
    /// Whether the user asked to maximize.
    user_maximize: bool,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let m = lp.constraints.len();
        let n = lp.num_vars;

        // Count extra columns.
        let mut n_slack = 0usize;
        let mut n_art = 0usize;
        for c in &lp.constraints {
            // Normalise rhs >= 0 first to decide what we need.
            let (rel, rhs) = normalised(c);
            match rel {
                Relation::Le => {
                    n_slack += 1;
                    if rhs < -EPS {
                        unreachable!("normalised rhs is non-negative");
                    }
                }
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => {
                    n_art += 1;
                }
            }
        }
        let cols = n + n_slack + n_art;

        let mut a = Vec::with_capacity(m);
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut basic = vec![false; cols];

        let mut slack_col = n;
        let first_artificial = n + n_slack;
        let mut art_col = first_artificial;

        for (i, c) in lp.constraints.iter().enumerate() {
            let (rel, rhs) = normalised(c);
            let mut row = vec![0.0; cols];
            for (x, &v) in row.iter_mut().zip(&c.coeffs) {
                *x = if c.rhs < 0.0 { -v } else { v };
            }
            b[i] = rhs;
            match rel {
                Relation::Le => {
                    row[slack_col] = 1.0;
                    basis[i] = slack_col;
                    slack_col += 1;
                }
                Relation::Ge => {
                    row[slack_col] = -1.0;
                    slack_col += 1;
                    row[art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
                Relation::Eq => {
                    row[art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
            }
            basic[basis[i]] = true;
            a.push(row);
        }

        // Objective in maximization form, padded.
        let mut objective = vec![0.0; cols];
        for (obj, &coeff) in objective.iter_mut().zip(&lp.objective) {
            *obj = if lp.maximize { coeff } else { -coeff };
        }

        Tableau {
            a,
            b,
            basis,
            basic,
            cols,
            n_user: n,
            first_artificial,
            objective,
            user_maximize: lp.maximize,
        }
    }

    fn solve(mut self) -> LpOutcome {
        // Phase 1: maximize -(sum of artificials).
        if self.first_artificial < self.cols {
            let mut phase1 = vec![0.0; self.cols];
            phase1[self.first_artificial..].fill(-1.0);
            match self.optimize(&phase1) {
                SimplexResult::Unbounded => return LpOutcome::Infeasible,
                SimplexResult::Optimal(value) => {
                    if value < -1e-7 {
                        return LpOutcome::Infeasible;
                    }
                }
            }
            // Pivot remaining artificial variables out of the basis where possible.
            self.evict_artificials();
        }

        // Phase 2 with the user's objective. Artificial columns are forbidden from
        // entering by zeroing their objective coefficients and never selecting them.
        let obj = self.objective.clone();
        match self.optimize(&obj) {
            SimplexResult::Unbounded => LpOutcome::Unbounded,
            SimplexResult::Optimal(value) => {
                let mut values = vec![0.0; self.n_user];
                for (row, &bv) in self.basis.iter().enumerate() {
                    if bv < self.n_user {
                        values[bv] = self.b[row];
                    }
                }
                let objective_value = if self.user_maximize { value } else { -value };
                LpOutcome::Optimal(Solution {
                    objective_value,
                    values,
                })
            }
        }
    }

    /// Runs primal simplex on the current basis, maximizing `obj`. Returns the
    /// optimal value of `obj` or detects unboundedness.
    fn optimize(&mut self, obj: &[f64]) -> SimplexResult {
        // Safety cap on iterations; Bland's rule guarantees termination but the cap
        // protects against numerical stalls.
        let max_iter = 50_000usize;
        // Dantzig pricing (most positive reduced cost) is fast in practice; after a
        // generous number of iterations fall back to Bland's rule, which cannot cycle.
        let bland_after = 2_000usize;
        for iteration in 0..max_iter {
            // Compute reduced costs: c_j - c_B^T B^{-1} A_j. With an explicit
            // tableau (A already transformed), c_B^T A_j uses current rows.
            // Only rows whose basic variable carries cost contribute: every
            // skipped term is exactly ±0.0, so no comparison with EPS changes.
            let cost_rows: Vec<(usize, f64)> = self
                .basis
                .iter()
                .enumerate()
                .filter(|&(_, &bv)| obj[bv] != 0.0)
                .map(|(row, &bv)| (row, obj[bv]))
                .collect();
            let use_bland = iteration >= bland_after;
            let mut entering = None;
            let mut best_reduced = EPS;
            for (j, (&c_j, &basic)) in obj.iter().zip(&self.basic).enumerate() {
                // During phase 2 never bring artificials back in.
                if basic || (self.is_artificial(j) && c_j == 0.0) {
                    continue;
                }
                let reduced = cost_rows
                    .iter()
                    .fold(c_j, |reduced, &(row, cost)| reduced - cost * self.a[row][j]);
                if reduced > EPS {
                    if use_bland {
                        entering = Some(j); // Bland: smallest index with positive reduced cost
                        break;
                    }
                    if reduced > best_reduced {
                        best_reduced = reduced;
                        entering = Some(j);
                    }
                }
            }
            let Some(enter) = entering else {
                // Optimal: compute objective value.
                let mut value = 0.0;
                for (row, &bv) in self.basis.iter().enumerate() {
                    value += obj[bv] * self.b[row];
                }
                return SimplexResult::Optimal(value);
            };

            // Ratio test (Bland: smallest basis index among ties).
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for row in 0..self.a.len() {
                let coeff = self.a[row][enter];
                if coeff > EPS {
                    let ratio = self.b[row] / coeff;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[row] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(row);
                    }
                }
            }
            let Some(leave_row) = leave else {
                return SimplexResult::Unbounded;
            };
            self.pivot(leave_row, enter);
        }
        // Return whatever we have; treat as optimal at the cap (should not happen in
        // practice for the problem sizes in this workspace).
        let mut value = 0.0;
        for (row, &bv) in self.basis.iter().enumerate() {
            value += obj[bv] * self.b[row];
        }
        SimplexResult::Optimal(value)
    }

    fn is_artificial(&self, col: usize) -> bool {
        col >= self.first_artificial
    }

    /// After phase 1, replace basic artificial variables by structural/slack columns
    /// where a nonzero pivot exists; rows where no such pivot exists are redundant
    /// constraints and are left with the (zero-valued) artificial basic variable.
    fn evict_artificials(&mut self) {
        for row in 0..self.a.len() {
            if !self.is_artificial(self.basis[row]) {
                continue;
            }
            let pivot_col = self.a[row][..self.first_artificial]
                .iter()
                .position(|v| v.abs() > 1e-7);
            if let Some(j) = pivot_col {
                self.pivot(row, j);
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        // The pivot row is taken out so every other row updates with one slice zip.
        let mut pivot_row = std::mem::take(&mut self.a[row]);
        let pivot = pivot_row[col];
        debug_assert!(pivot.abs() > 1e-12, "pivot element too small");
        let inv = 1.0 / pivot;
        for x in &mut pivot_row {
            *x *= inv;
        }
        self.b[row] *= inv;
        for (r, other) in self.a.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = other[col];
            if factor.abs() < 1e-14 {
                continue;
            }
            for (x, &p) in other.iter_mut().zip(&pivot_row) {
                *x -= factor * p;
            }
            self.b[r] -= factor * self.b[row];
            if self.b[r].abs() < 1e-12 {
                self.b[r] = 0.0;
            }
        }
        self.a[row] = pivot_row;
        self.basic[self.basis[row]] = false;
        self.basic[col] = true;
        self.basis[row] = col;
    }
}

enum SimplexResult {
    Optimal(f64),
    Unbounded,
}

/// Returns the constraint's relation and rhs after flipping the row so the rhs is
/// non-negative.
fn normalised(c: &Constraint) -> (Relation, f64) {
    if c.rhs < 0.0 {
        let rel = match c.relation {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        };
        (rel, -c.rhs)
    } else {
        (c.relation, c.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimal(lp: &LinearProgram) -> Solution {
        match lp.solve() {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// Pins a solution bit for bit. The pivot path decides every bit, so a
    /// change to pricing or pivoting that alters it fails here even where a
    /// tolerance would pass.
    fn assert_bits(s: &Solution, objective: u64, values: &[u64]) {
        assert_eq!(s.objective_value.to_bits(), objective, "{s:?}");
        let bits: Vec<u64> = s.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, values, "{s:?}");
    }

    #[test]
    fn simple_max_le() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12
        let lp = LinearProgram {
            num_vars: 2,
            maximize: true,
            objective: vec![3.0, 2.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Le, 4.0),
                Constraint::new(vec![1.0, 3.0], Relation::Le, 6.0),
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 12.0).abs() < 1e-8);
        assert!((s.values[0] - 4.0).abs() < 1e-8);
        assert!(s.values[1].abs() < 1e-8);
        assert_bits(&s, 0x4028_0000_0000_0000, &[0x4010_0000_0000_0000, 0]);
    }

    #[test]
    fn classic_two_var() {
        // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=1.5, obj=21
        let lp = LinearProgram {
            num_vars: 2,
            maximize: true,
            objective: vec![5.0, 4.0],
            constraints: vec![
                Constraint::new(vec![6.0, 4.0], Relation::Le, 24.0),
                Constraint::new(vec![1.0, 2.0], Relation::Le, 6.0),
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 21.0).abs() < 1e-8);
        assert!((s.values[0] - 3.0).abs() < 1e-8);
        assert!((s.values[1] - 1.5).abs() < 1e-8);
        assert_bits(
            &s,
            0x4035_0000_0000_0000,
            &[0x4008_0000_0000_0000, 0x3ff7_ffff_ffff_ffff],
        );
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 -> x=4, y=0? check: obj = 8 at (4,0);
        // (1,3) gives 11, so optimum is x=4,y=0 -> 8.
        let lp = LinearProgram {
            num_vars: 2,
            maximize: false,
            objective: vec![2.0, 3.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Ge, 4.0),
                Constraint::new(vec![1.0, 0.0], Relation::Ge, 1.0),
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 8.0).abs() < 1e-8, "{s:?}");
        assert_bits(&s, 0x4020_0000_0000_0000, &[0x4010_0000_0000_0000, 0]);
    }

    #[test]
    fn equality_constraint() {
        // max x + y s.t. x + y = 1, x <= 0.3 -> obj = 1
        let lp = LinearProgram {
            num_vars: 2,
            maximize: true,
            objective: vec![1.0, 1.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Eq, 1.0),
                Constraint::new(vec![1.0, 0.0], Relation::Le, 0.3),
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 1.0).abs() < 1e-8);
        assert!((s.values[0] + s.values[1] - 1.0).abs() < 1e-8);
        assert!(s.values[0] <= 0.3 + 1e-8);
        assert_bits(
            &s,
            0x3ff0_0000_0000_0000,
            &[0x3fd3_3333_3333_3333, 0x3fe6_6666_6666_6666],
        );
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2 cannot both hold.
        let lp = LinearProgram {
            num_vars: 1,
            maximize: true,
            objective: vec![1.0],
            constraints: vec![
                Constraint::new(vec![1.0], Relation::Le, 1.0),
                Constraint::new(vec![1.0], Relation::Ge, 2.0),
            ],
        };
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x >= 1.
        let lp = LinearProgram {
            num_vars: 1,
            maximize: true,
            objective: vec![1.0],
            constraints: vec![Constraint::new(vec![1.0], Relation::Ge, 1.0)],
        };
        assert!(matches!(lp.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_normalisation() {
        // -x <= -2  is  x >= 2; min x -> 2.
        let lp = LinearProgram {
            num_vars: 1,
            maximize: false,
            objective: vec![1.0],
            constraints: vec![Constraint::new(vec![-1.0], Relation::Le, -2.0)],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 2.0).abs() < 1e-8);
        assert_bits(&s, 0x4000_0000_0000_0000, &[0x4000_0000_0000_0000]);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Degenerate vertices (multiple constraints meeting); Bland's rule must not cycle.
        let lp = LinearProgram {
            num_vars: 3,
            maximize: true,
            objective: vec![10.0, -57.0, -9.0],
            constraints: vec![
                Constraint::new(vec![0.5, -5.5, -2.5], Relation::Le, 0.0),
                Constraint::new(vec![0.5, -1.5, -0.5], Relation::Le, 0.0),
                Constraint::new(vec![1.0, 0.0, 0.0], Relation::Le, 1.0),
            ],
        };
        let s = optimal(&lp);
        assert!(s.objective_value >= -1e-9);
        assert!(s.objective_value <= 10.0 + 1e-9);
        assert_bits(
            &s,
            0x3ff0_0000_0000_0000,
            &[0x3ff0_0000_0000_0000, 0, 0x3ff0_0000_0000_0000],
        );
    }

    #[test]
    fn load_style_lp() {
        // The load LP of a 3-server majority quorum system {12, 13, 23}:
        // variables w1,w2,w3 and z; minimize z s.t. for each server the sum of the
        // weights of quorums containing it is <= z, and the weights sum to 1.
        // Symmetry gives w_i = 1/3 and L = 2/3.
        let lp = LinearProgram {
            num_vars: 4, // w1, w2, w3, z
            maximize: false,
            objective: vec![0.0, 0.0, 0.0, 1.0],
            constraints: vec![
                // server 1 is in quorums {1,2} and {1,3} -> w1 + w2 - z <= 0
                Constraint::new(vec![1.0, 1.0, 0.0, -1.0], Relation::Le, 0.0),
                // server 2 in {1,2},{2,3}
                Constraint::new(vec![1.0, 0.0, 1.0, -1.0], Relation::Le, 0.0),
                // server 3 in {1,3},{2,3}
                Constraint::new(vec![0.0, 1.0, 1.0, -1.0], Relation::Le, 0.0),
                Constraint::new(vec![1.0, 1.0, 1.0, 0.0], Relation::Eq, 1.0),
            ],
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 2.0 / 3.0).abs() < 1e-8, "{s:?}");
        assert_bits(
            &s,
            0x3fe5_5555_5555_5555,
            &[
                0x3fd5_5555_5555_5555,
                0x3fd5_5555_5555_5555,
                0x3fd5_5555_5555_5555,
                0x3fe5_5555_5555_5555,
            ],
        );
    }

    #[test]
    fn many_variables_smoke() {
        // max sum x_i s.t. each x_i <= 1 and sum x_i <= 10 with 25 vars -> 10.
        let n = 25;
        let mut constraints: Vec<Constraint> = (0..n)
            .map(|i| {
                let mut c = vec![0.0; n];
                c[i] = 1.0;
                Constraint::new(c, Relation::Le, 1.0)
            })
            .collect();
        constraints.push(Constraint::new(vec![1.0; n], Relation::Le, 10.0));
        let lp = LinearProgram {
            num_vars: n,
            maximize: true,
            objective: vec![1.0; n],
            constraints,
        };
        let s = optimal(&lp);
        assert!((s.objective_value - 10.0).abs() < 1e-7);
        assert_bits(
            &s,
            0x4024_0000_0000_0000,
            &[[0x3ff0_0000_0000_0000; 10].as_slice(), &[0; 15]].concat(),
        );
    }

    #[test]
    fn redundant_equality_keeps_an_artificial_basic_that_never_reenters() {
        // min x s.t. x + y = 1, 2x + 2y = 2 (the same row twice), y <= 0.4
        // -> x = 0.6, y = 0.4. Phase 1 pivots x into the first equality and
        // leaves the second with no structural or slack coefficient, so its
        // artificial stays basic at 0. In phase 2 the other artificial prices
        // positive (the equality's dual is negative): taking it would drive
        // x to 0 and report a wrong optimum.
        let lp = LinearProgram {
            num_vars: 2,
            maximize: false,
            objective: vec![1.0, 0.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Eq, 1.0),
                Constraint::new(vec![2.0, 2.0], Relation::Eq, 2.0),
                Constraint::new(vec![0.0, 1.0], Relation::Le, 0.4),
            ],
        };
        let mut t = Tableau::build(&lp);
        let mut phase1 = vec![0.0; t.cols];
        phase1[t.first_artificial..].fill(-1.0);
        assert!(matches!(t.optimize(&phase1), SimplexResult::Optimal(v) if v == 0.0));
        t.evict_artificials();
        let stuck: Vec<usize> = (0..t.basis.len())
            .filter(|&row| t.is_artificial(t.basis[row]))
            .collect();
        assert_eq!(stuck, [1], "basis {:?}", t.basis);
        assert_eq!(t.b[1], 0.0);
        let objective = t.objective.clone();
        assert!(matches!(t.optimize(&objective), SimplexResult::Optimal(_)));
        assert_eq!(
            (0..t.cols)
                .filter(|&j| t.basic[j] && t.is_artificial(j))
                .collect::<Vec<_>>(),
            [t.basis[1]],
            "phase 2 brought an artificial back: basis {:?}",
            t.basis
        );

        let s = optimal(&lp);
        assert!((s.objective_value - 0.6).abs() < 1e-12, "{s:?}");
        assert!((s.values[1] - 0.4).abs() < 1e-12, "{s:?}");
        assert_bits(
            &s,
            0x3fe3_3333_3333_3333,
            &[0x3fe3_3333_3333_3333, 0x3fd9_9999_9999_999a],
        );
    }

    #[test]
    fn pricing_sums_every_cost_bearing_row() {
        // max 3x + 2y + z s.t. x + y + z <= 4, x <= 1, y <= 2 -> (1, 2, 1), 8.
        // At the optimum x, y and z are all basic, so the final pricing pass
        // subtracts three cost-bearing rows from every reduced cost.
        let lp = LinearProgram {
            num_vars: 3,
            maximize: true,
            objective: vec![3.0, 2.0, 1.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0, 1.0], Relation::Le, 4.0),
                Constraint::new(vec![1.0], Relation::Le, 1.0),
                Constraint::new(vec![0.0, 1.0], Relation::Le, 2.0),
            ],
        };
        let mut t = Tableau::build(&lp);
        let objective = t.objective.clone();
        assert!(matches!(t.optimize(&objective), SimplexResult::Optimal(v) if v == 8.0));
        let cost_rows = t.basis.iter().filter(|&&bv| objective[bv] != 0.0).count();
        assert_eq!(cost_rows, 3, "basis {:?}", t.basis);

        let s = optimal(&lp);
        assert_eq!(s.values, [1.0, 2.0, 1.0]);
        assert_bits(
            &s,
            0x4020_0000_0000_0000,
            &[
                0x3ff0_0000_0000_0000,
                0x4000_0000_0000_0000,
                0x3ff0_0000_0000_0000,
            ],
        );
    }
}
