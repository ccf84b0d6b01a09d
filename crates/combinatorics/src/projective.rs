//! Finite projective planes PG(2, q).
//!
//! A finite projective plane of order `q` has `q² + q + 1` points and the same number
//! of lines; every line contains `q + 1` points, every point lies on `q + 1` lines,
//! and any two distinct lines meet in exactly one point. The lines therefore form a
//! *regular* quorum system with quorums of size `q + 1` and pairwise intersections of
//! size exactly 1 — the FPP component of the boostFPP construction (Section 6 of the
//! paper), whose load `(q+1)/n ≈ 1/√n` is optimal for regular quorum systems \[NW98\].
//!
//! We build the classical construction over GF(q): points are the 1-dimensional
//! subspaces of GF(q)³ and lines the 2-dimensional subspaces, with incidence given by
//! orthogonality of homogeneous coordinates.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use crate::gf::{GfElem, GfField};

/// Largest point count for which
/// [`ProjectivePlane::line_free_profile_enumerated`] runs its one-time `2^n`
/// subset enumeration (`q² + q + 1 ≤ 22` admits `q ∈ {2, 3, 4}`; the next
/// plane order, `q = 5`, already has 31 points). The counting path
/// ([`ProjectivePlane::line_free_profile`]) pushes past this to `q = 5`; its
/// own (measured) wall is [`LINE_FREE_COUNTING_MAX_POINTS`].
pub const LINE_FREE_PROFILE_MAX_POINTS: usize = 22;

/// The counting profile keeps its DP state as one `u64` bitmask over lines, so
/// planes with more than 64 lines (`q ≥ 8`, where `q² + q + 1 = 73`) decline.
pub const LINE_FREE_COUNTING_MAX_LINES: usize = 64;

/// Fast-decline point cap for the counting profile. The boundary interface of
/// PG(2, 7) (57 points) was *measured* to exceed the 2²⁶-state budget — after
/// ~27 minutes of sweep — because a projective plane is a near-expander:
/// mid-sweep, almost every line has both decided and undecided points, so the
/// completable-mask support approaches all `q² + q + 1` lines regardless of
/// the point order. Declining on the point count up front turns that 27-minute
/// failure into an immediate one. `31` admits exactly the planes the budget is
/// known to afford (`q ≤ 5`).
pub const LINE_FREE_COUNTING_MAX_POINTS: usize = 31;

/// Hard cap on live interface states in the counting DP. The boundary
/// interface grows with the plane order (`q = 5` peaks in the tens of
/// thousands; `q = 7` in the tens of millions); past this budget the sweep
/// declines rather than exhausting memory.
pub const LINE_FREE_COUNTING_STATE_BUDGET: usize = 1 << 26;

/// Deterministically seeded hasher for the DP state maps (no per-process
/// `RandomState`, so state counts and timings are reproducible run to run).
type StateHasher = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// A finite projective plane of order `q`, stored as an explicit point/line incidence
/// structure.
#[derive(Debug, Clone)]
pub struct ProjectivePlane {
    q: u64,
    /// Normalised homogeneous coordinates of each point.
    points: Vec<[GfElem; 3]>,
    /// Each line is the sorted list of indices of the points incident to it.
    lines: Vec<Vec<usize>>,
}

/// Errors from projective-plane construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneError {
    /// The order is not a prime power, so the classical construction does not apply.
    InvalidOrder(u64),
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::InvalidOrder(q) => {
                write!(f, "projective plane order {q} is not a prime power")
            }
        }
    }
}

impl std::error::Error for PlaneError {}

impl ProjectivePlane {
    /// Constructs PG(2, q) for a prime power `q ≥ 2`.
    ///
    /// # Errors
    ///
    /// Returns [`PlaneError::InvalidOrder`] when `q` is not a prime power.
    ///
    /// # Examples
    ///
    /// ```
    /// use bqs_combinatorics::projective::ProjectivePlane;
    /// let fano = ProjectivePlane::new(2).unwrap();
    /// assert_eq!(fano.num_points(), 7);
    /// assert_eq!(fano.num_lines(), 7);
    /// ```
    pub fn new(q: u64) -> Result<Self, PlaneError> {
        let field = GfField::new(q).map_err(|_| PlaneError::InvalidOrder(q))?;
        let points = enumerate_projective_points(&field);
        let lines = enumerate_lines(&field, &points);
        Ok(ProjectivePlane { q, points, lines })
    }

    /// The order `q` of the plane.
    #[must_use]
    pub fn order(&self) -> u64 {
        self.q
    }

    /// Number of points, `q² + q + 1`.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of lines, `q² + q + 1`.
    #[must_use]
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// The point indices on line `i` (sorted).
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_lines()`.
    #[must_use]
    pub fn line(&self, i: usize) -> &[usize] {
        &self.lines[i]
    }

    /// Iterates over all lines as slices of point indices.
    pub fn lines(&self) -> impl Iterator<Item = &[usize]> {
        self.lines.iter().map(Vec::as_slice)
    }

    /// Counts, for every subset size `m`, how many `m`-subsets of the points
    /// contain **no complete line** — the *line-free profile* `N_0, ..., N_n`.
    ///
    /// This is the combinatorial heart of the exact FPP crash probability: if
    /// each point survives independently with probability `1 − r`, then
    ///
    /// `F_r(FPP) = Σ_m N_m (1 − r)^m r^{n − m}`
    ///
    /// because the system is unavailable exactly when the surviving point set
    /// contains no line. The profile depends only on the plane, so one
    /// enumeration of the `2^n` point subsets (feasible for
    /// `n = q² + q + 1 ≤` [`LINE_FREE_PROFILE_MAX_POINTS`], i.e. `q ≤ 4`)
    /// yields a closed form evaluable in `O(n)` for every `r` thereafter.
    ///
    /// The profile is computed by [`ProjectivePlane::line_free_profile_counting`],
    /// an interface DP over points that never materialises the `2^n` subsets;
    /// it reaches `q = 5` (31 points) and is pinned bit-for-bit against
    /// [`ProjectivePlane::line_free_profile_enumerated`] on the small planes
    /// where both run. Returns `None` when the counting sweep declines —
    /// more than [`LINE_FREE_COUNTING_MAX_POINTS`] points (the measured
    /// `q = 7` interface wall), more than [`LINE_FREE_COUNTING_MAX_LINES`]
    /// lines, or a boundary interface past
    /// [`LINE_FREE_COUNTING_STATE_BUDGET`] states.
    #[must_use]
    pub fn line_free_profile(&self) -> Option<Vec<u64>> {
        self.line_free_profile_counting()
    }

    /// The historical reference implementation of the line-free profile: a
    /// direct enumeration of all `2^n` point subsets. Exponentially slower
    /// than the counting sweep but independent of it, which makes it the
    /// cross-check oracle on planes small enough to afford it (`q ≤ 4`).
    ///
    /// Returns `None` when the plane has more than
    /// [`LINE_FREE_PROFILE_MAX_POINTS`] points, where the one-time `2^n`
    /// enumeration is no longer worth it.
    #[must_use]
    pub fn line_free_profile_enumerated(&self) -> Option<Vec<u64>> {
        let n = self.num_points();
        if n > LINE_FREE_PROFILE_MAX_POINTS {
            return None;
        }
        let line_masks: Vec<u64> = self
            .lines
            .iter()
            .map(|l| l.iter().fold(0u64, |m, &p| m | (1u64 << p)))
            .collect();
        let min_line = self.q as u32 + 1;
        let mut profile = vec![0u64; n + 1];
        for mask in 0u64..(1u64 << n) {
            // A subset smaller than a line trivially contains none.
            let contains_line =
                mask.count_ones() >= min_line && line_masks.iter().any(|&l| l & !mask == 0);
            if !contains_line {
                profile[mask.count_ones() as usize] += 1;
            }
        }
        Some(profile)
    }

    /// Counts the line-free profile without enumerating subsets: an
    /// inclusion-style interface DP that decides the points one at a time (in
    /// the plane's row-major coordinate order) and keeps, per branch, only the
    /// bitmask of lines that are still *completable* — every decided point on
    /// them chosen. Deciding a point against membership kills all `q + 1`
    /// lines through it; deciding the last point of a still-completable line
    /// in favour would complete that line, so the branch is dropped from the
    /// line-free count. Branches with equal completable-masks are merged by
    /// summing their per-size count vectors, which is what collapses the
    /// `2^n` tree to a boundary interface: every line is dead or decided
    /// shortly after its last row, so the mask only carries the lines
    /// crossing the current row boundary.
    ///
    /// Exact in `u64` (every profile entry is at most `C(n, m) ≤ C(31, 15)
    /// < 2^29` at the largest admitted plane). Returns `None` when the plane
    /// has more than [`LINE_FREE_COUNTING_MAX_POINTS`] points (the measured
    /// `q = 7` wall — see that constant's docs), more than
    /// [`LINE_FREE_COUNTING_MAX_LINES`] lines, or the interface exceeds
    /// [`LINE_FREE_COUNTING_STATE_BUDGET`] states.
    #[must_use]
    pub fn line_free_profile_counting(&self) -> Option<Vec<u64>> {
        let n = self.num_points();
        let num_lines = self.num_lines();
        if n > LINE_FREE_COUNTING_MAX_POINTS || num_lines > LINE_FREE_COUNTING_MAX_LINES {
            return None;
        }
        // Incidence masks over *lines*: through[p] = lines containing point p,
        // closing[p] = lines whose final point (in decision order) is p.
        let mut through = vec![0u64; n];
        let mut closing = vec![0u64; n];
        for (li, line) in self.lines.iter().enumerate() {
            for &p in line {
                through[p] |= 1u64 << li;
            }
            closing[*line.iter().max().expect("lines are nonempty")] |= 1u64 << li;
        }
        let all_lines: u64 = if num_lines == 64 {
            u64::MAX
        } else {
            (1u64 << num_lines) - 1
        };
        let mut states: HashMap<u64, Vec<u64>, StateHasher> = HashMap::default();
        let mut initial = vec![0u64; n + 1];
        initial[0] = 1;
        states.insert(all_lines, initial);
        let mut next: HashMap<u64, Vec<u64>, StateHasher> = HashMap::default();
        for p in 0..n {
            next.reserve(states.len() * 2);
            for (mask, counts) in states.drain() {
                // Exclude point p: every line through it loses a point for good.
                merge_counts(&mut next, mask & !through[p], &counts, 0, n);
                // Include point p: legal only when no still-completable line
                // closes here (that would put a full line inside the subset).
                if mask & closing[p] == 0 {
                    merge_counts(&mut next, mask, &counts, 1, n);
                }
            }
            std::mem::swap(&mut states, &mut next);
            if states.len() > LINE_FREE_COUNTING_STATE_BUDGET {
                return None;
            }
        }
        // Every line is decided, so all surviving branches sit on the empty mask.
        let mut profile = vec![0u64; n + 1];
        for counts in states.values() {
            for (slot, c) in profile.iter_mut().zip(counts) {
                *slot += c;
            }
        }
        Some(profile)
    }

    /// Checks the defining axioms of a projective plane on this incidence structure:
    /// every line has `q+1` points, every point is on `q+1` lines, and any two
    /// distinct lines meet in exactly one point. Used by tests and examples; the
    /// constructor always produces a valid plane.
    #[must_use]
    pub fn verify_axioms(&self) -> bool {
        let q = self.q as usize;
        let expected = q * q + q + 1;
        if self.points.len() != expected || self.lines.len() != expected {
            return false;
        }
        if self.lines.iter().any(|l| l.len() != q + 1) {
            return false;
        }
        let mut degree = vec![0usize; self.points.len()];
        for line in &self.lines {
            for &p in line {
                degree[p] += 1;
            }
        }
        if degree.iter().any(|&d| d != q + 1) {
            return false;
        }
        for i in 0..self.lines.len() {
            for j in (i + 1)..self.lines.len() {
                let inter = intersection_size(&self.lines[i], &self.lines[j]);
                if inter != 1 {
                    return false;
                }
            }
        }
        true
    }
}

/// Folds a branch's per-size counts into the interface map, shifting by
/// `shift` chosen points (0 = point excluded, 1 = point included).
fn merge_counts(
    map: &mut HashMap<u64, Vec<u64>, StateHasher>,
    key: u64,
    counts: &[u64],
    shift: usize,
    n: usize,
) {
    let entry = map.entry(key).or_insert_with(|| vec![0u64; n + 1]);
    for (m, &c) in counts.iter().enumerate().take(n + 1 - shift) {
        if c != 0 {
            entry[m + shift] += c;
        }
    }
}

fn intersection_size(a: &[usize], b: &[usize]) -> usize {
    // Both sorted.
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Enumerates canonical representatives of the projective points of PG(2, q):
/// `(1, y, z)`, `(0, 1, z)`, `(0, 0, 1)`.
fn enumerate_projective_points(field: &GfField) -> Vec<[GfElem; 3]> {
    let mut pts = Vec::new();
    let one = field.one();
    let zero = field.zero();
    for y in field.elements() {
        for z in field.elements() {
            pts.push([one, y, z]);
        }
    }
    for z in field.elements() {
        pts.push([zero, one, z]);
    }
    pts.push([zero, zero, one]);
    pts
}

/// Lines of PG(2, q) are also indexed by projective triples `[a, b, c]`; point
/// `[x, y, z]` is on line `[a, b, c]` iff `ax + by + cz = 0`.
fn enumerate_lines(field: &GfField, points: &[[GfElem; 3]]) -> Vec<Vec<usize>> {
    let line_coords = enumerate_projective_points(field);
    let mut lines = Vec::with_capacity(line_coords.len());
    for lc in &line_coords {
        let mut line = Vec::new();
        for (idx, pt) in points.iter().enumerate() {
            let dot = field.add(
                field.add(field.mul(lc[0], pt[0]), field.mul(lc[1], pt[1])),
                field.mul(lc[2], pt[2]),
            );
            if dot == field.zero() {
                line.push(idx);
            }
        }
        line.sort_unstable();
        lines.push(line);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fano_plane() {
        let plane = ProjectivePlane::new(2).unwrap();
        assert_eq!(plane.num_points(), 7);
        assert_eq!(plane.num_lines(), 7);
        assert!(plane.lines().all(|l| l.len() == 3));
        assert!(plane.verify_axioms());
    }

    #[test]
    fn order_three_plane() {
        let plane = ProjectivePlane::new(3).unwrap();
        assert_eq!(plane.num_points(), 13);
        assert_eq!(plane.num_lines(), 13);
        assert!(plane.verify_axioms());
    }

    #[test]
    fn prime_power_order_plane() {
        // q = 4 = 2^2 exercises the extension-field path.
        let plane = ProjectivePlane::new(4).unwrap();
        assert_eq!(plane.num_points(), 21);
        assert!(plane.verify_axioms());
    }

    #[test]
    fn order_five_plane() {
        let plane = ProjectivePlane::new(5).unwrap();
        assert_eq!(plane.num_points(), 31);
        assert!(plane.verify_axioms());
    }

    #[test]
    fn order_eight_and_nine_planes() {
        for q in [8u64, 9] {
            let plane = ProjectivePlane::new(q).unwrap();
            assert_eq!(plane.num_points() as u64, q * q + q + 1);
            assert!(plane.verify_axioms(), "q={q}");
        }
    }

    #[test]
    fn invalid_orders_rejected() {
        assert!(ProjectivePlane::new(6).is_err());
        assert!(ProjectivePlane::new(10).is_err());
        assert!(ProjectivePlane::new(0).is_err());
        assert!(ProjectivePlane::new(1).is_err());
    }

    #[test]
    fn fano_line_free_profile_matches_hand_count() {
        let plane = ProjectivePlane::new(2).unwrap();
        // m <= 2: every subset is line-free. m = 3: C(7,3) - 7 lines = 28.
        // m = 4: a 4-set contains a line iff it is a line plus one point
        // (7 * 4 = 28 sets, no double counting since two lines span 5 points),
        // leaving 35 - 28 = 7. m >= 5: the 2-point complement never meets all
        // 7 lines (two points cover at most 5), so every 5-set contains a line.
        assert_eq!(
            plane.line_free_profile().unwrap(),
            vec![1, 7, 21, 28, 7, 0, 0, 0]
        );
    }

    #[test]
    fn line_free_profile_counting_matches_enumeration_bit_for_bit() {
        // On every plane small enough for the 2^n oracle, the counting DP must
        // reproduce the enumerated profile entry for entry.
        for q in [2u64, 3, 4] {
            let plane = ProjectivePlane::new(q).unwrap();
            let enumerated = plane.line_free_profile_enumerated().unwrap();
            let counted = plane.line_free_profile_counting().unwrap();
            assert_eq!(enumerated, counted, "q={q}");
        }
    }

    #[test]
    fn line_free_profile_reaches_order_five() {
        // q = 5 (31 points) is past the enumeration wall but within reach of
        // the counting DP.
        let plane = ProjectivePlane::new(5).unwrap();
        assert!(plane.line_free_profile_enumerated().is_none());
        let profile = plane.line_free_profile().unwrap();
        assert_eq!(profile.len(), 32);
        // Subsets smaller than a line (q + 1 = 6 points) are trivially
        // line-free: the low entries are full binomials.
        let mut binom = 1u64;
        for (m, &entry) in profile.iter().enumerate().take(6) {
            assert_eq!(entry, binom, "m={m}");
            binom = binom * (31 - m as u64) / (m as u64 + 1);
        }
        // A subset is line-free iff its complement is a blocking set, and the
        // smallest blocking sets of PG(2, 5) are exactly its 31 lines: the
        // profile vanishes above m = n - (q + 1) = 25, where it counts the
        // line complements themselves.
        assert_eq!(profile[25], 31);
        assert!(profile[26..].iter().all(|&e| e == 0));
    }

    #[test]
    fn line_free_profile_gated_by_line_count() {
        // q = 8 has 73 lines, past the u64 interface mask of the counting DP.
        assert!(ProjectivePlane::new(8)
            .unwrap()
            .line_free_profile()
            .is_none());
    }

    #[test]
    fn line_free_profile_declines_order_seven_immediately() {
        // q = 7 fits the 64-line mask but its interface was measured to blow
        // the 2^26-state budget ~27 minutes into the sweep; the point cap
        // must turn that into an instant decline.
        let plane = ProjectivePlane::new(7).unwrap();
        let t = std::time::Instant::now();
        assert!(plane.line_free_profile().is_none());
        assert!(t.elapsed().as_secs_f64() < 1.0, "decline was not fast");
    }

    #[test]
    fn any_two_points_on_exactly_one_line() {
        // The dual axiom; check it directly for q = 3.
        let plane = ProjectivePlane::new(3).unwrap();
        let n = plane.num_points();
        for a in 0..n {
            for b in (a + 1)..n {
                let count = plane
                    .lines()
                    .filter(|l| l.contains(&a) && l.contains(&b))
                    .count();
                assert_eq!(count, 1, "points {a},{b}");
            }
        }
    }
}
