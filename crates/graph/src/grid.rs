//! The triangulated grid graph underlying the M-Path construction.
//!
//! Vertices are the lattice points `(row, col)` with `0 <= row, col < side`. Edges
//! follow the paper (Section 7): `(i1, j1) ~ (i2, j2)` iff one of
//!
//! 1. `i1 == i2` and `j2 == j1 + 1` (horizontal),
//! 2. `j1 == j2` and `i2 == i1 + 1` (vertical),
//! 3. `i2 == i1 - 1` and `j2 == j1 + 1` (anti-diagonal),
//!
//! which makes the grid a finite patch of the triangular lattice (each interior
//! vertex has six neighbours).

/// Which side-to-side direction a path crosses the grid in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Left-to-right: from column `0` to column `side - 1`.
    LeftRight,
    /// Top-to-bottom: from row `0` to row `side - 1`.
    TopBottom,
}

impl Axis {
    /// The other axis: the direction of the paths that block crossings of
    /// this one.
    #[must_use]
    pub fn perpendicular(self) -> Axis {
        match self {
            Axis::LeftRight => Axis::TopBottom,
            Axis::TopBottom => Axis::LeftRight,
        }
    }
}

/// The neighbours of one vertex, held inline: a lattice vertex has at most
/// six, and [`TriangulatedGrid::neighbors`] sits in the inner loop of every
/// search and network build, where a heap allocation per call would dominate.
/// Dereferences to the slice of neighbours and iterates by value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Neighbors {
    items: [usize; 6],
    len: usize,
}

impl Neighbors {
    fn push(&mut self, v: usize) {
        self.items[self.len] = v;
        self.len += 1;
    }
}

impl std::ops::Deref for Neighbors {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.items[..self.len]
    }
}

impl IntoIterator for Neighbors {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 6>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

/// A `side × side` triangulated grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriangulatedGrid {
    side: usize,
}

impl TriangulatedGrid {
    /// Creates a `side × side` triangulated grid.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    #[must_use]
    pub fn new(side: usize) -> Self {
        assert!(side > 0, "grid side must be positive");
        TriangulatedGrid { side }
    }

    /// The side length `√n`.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Number of vertices `n = side²`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.side * self.side
    }

    /// Maps `(row, col)` to a vertex index.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    #[must_use]
    pub fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.side && col < self.side,
            "coordinates out of range"
        );
        row * self.side + col
    }

    /// Maps a vertex index back to `(row, col)`.
    #[must_use]
    pub(crate) fn coords(&self, v: usize) -> (usize, usize) {
        (v / self.side, v % self.side)
    }

    /// Returns the neighbours of vertex `v` in the triangulated grid, in the
    /// fixed order left, right, up, down, up-right, down-left.
    #[must_use]
    pub(crate) fn neighbors(&self, v: usize) -> Neighbors {
        let (r, c) = self.coords(v);
        let s = self.side;
        let mut out = Neighbors::default();
        // Horizontal: (r, c-1), (r, c+1)
        if c > 0 {
            out.push(self.index(r, c - 1));
        }
        if c + 1 < s {
            out.push(self.index(r, c + 1));
        }
        // Vertical: (r-1, c), (r+1, c)
        if r > 0 {
            out.push(self.index(r - 1, c));
        }
        if r + 1 < s {
            out.push(self.index(r + 1, c));
        }
        // Anti-diagonal: (r-1, c+1) and its inverse (r+1, c-1)
        if r > 0 && c + 1 < s {
            out.push(self.index(r - 1, c + 1));
        }
        if r + 1 < s && c > 0 {
            out.push(self.index(r + 1, c - 1));
        }
        out
    }

    /// The set of source-side vertices for the given axis (left column or top row).
    #[must_use]
    pub fn sources(&self, axis: Axis) -> Vec<usize> {
        match axis {
            Axis::LeftRight => (0..self.side).map(|r| self.index(r, 0)).collect(),
            Axis::TopBottom => (0..self.side).map(|c| self.index(0, c)).collect(),
        }
    }

    /// The set of sink-side vertices for the given axis (right column or bottom row).
    #[must_use]
    pub fn sinks(&self, axis: Axis) -> Vec<usize> {
        match axis {
            Axis::LeftRight => (0..self.side)
                .map(|r| self.index(r, self.side - 1))
                .collect(),
            Axis::TopBottom => (0..self.side)
                .map(|c| self.index(self.side - 1, c))
                .collect(),
        }
    }

    /// The vertices of straight line `i` along the axis: row `i` for [`Axis::LeftRight`],
    /// column `i` for [`Axis::TopBottom`]. These straight lines are the paths used by
    /// the optimal-load access strategy of Proposition 7.2.
    ///
    /// # Panics
    ///
    /// Panics if `i >= side`.
    #[must_use]
    pub fn straight_path(&self, axis: Axis, i: usize) -> Vec<usize> {
        assert!(i < self.side, "line index out of range");
        match axis {
            Axis::LeftRight => (0..self.side).map(|c| self.index(i, c)).collect(),
            Axis::TopBottom => (0..self.side).map(|r| self.index(r, i)).collect(),
        }
    }

    /// Returns true if the vertex sequence `path` is a valid path in the grid
    /// (consecutive vertices adjacent, no repeated vertices) from the source side to
    /// the sink side of `axis`.
    #[must_use]
    pub(crate) fn is_crossing_path(&self, axis: Axis, path: &[usize]) -> bool {
        if path.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.num_vertices()];
        for w in path.windows(2) {
            if !self.neighbors(w[0]).contains(&w[1]) {
                return false;
            }
        }
        for &v in path {
            if v >= self.num_vertices() || seen[v] {
                return false;
            }
            seen[v] = true;
        }
        let first = self.coords(path[0]);
        let last = self.coords(*path.last().unwrap());
        match axis {
            Axis::LeftRight => first.1 == 0 && last.1 == self.side - 1,
            Axis::TopBottom => first.0 == 0 && last.0 == self.side - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_and_interior_degrees() {
        let g = TriangulatedGrid::new(4);
        // Top-left corner (0,0): right, down, down-left(no) -> neighbors (0,1),(1,0) = 2.
        assert_eq!(g.neighbors(g.index(0, 0)).len(), 2);
        // Top-right corner (0,3): left, down, down-left -> 3.
        assert_eq!(g.neighbors(g.index(0, 3)).len(), 3);
        // Bottom-left corner (3,0): right, up, up-right -> 3.
        assert_eq!(g.neighbors(g.index(3, 0)).len(), 3);
        // Bottom-right corner (3,3): left, up -> 2.
        assert_eq!(g.neighbors(g.index(3, 3)).len(), 2);
        // Interior vertex has 6 neighbours in a triangular lattice.
        assert_eq!(g.neighbors(g.index(1, 1)).len(), 6);
        assert_eq!(g.neighbors(g.index(2, 2)).len(), 6);
    }

    #[test]
    fn neighbours_come_in_the_documented_order() {
        // The path kernel scans arcs in this order, so which of several
        // equally cheap crossings it extracts follows it.
        let g = TriangulatedGrid::new(4);
        let at = |r, c| g.index(r, c);
        let interior = g.neighbors(at(1, 2));
        assert_eq!(
            &*interior,
            &[at(1, 1), at(1, 3), at(0, 2), at(2, 2), at(0, 3), at(2, 1)]
        );
        assert_eq!(interior.into_iter().collect::<Vec<_>>(), interior.to_vec());
        assert_eq!(&*g.neighbors(at(0, 0)), &[at(0, 1), at(1, 0)]);
        assert_eq!(&*g.neighbors(at(3, 0)), &[at(3, 1), at(2, 0), at(2, 1)]);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = TriangulatedGrid::new(5);
        for v in 0..g.num_vertices() {
            for u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v), "asymmetric edge {v} {u}");
            }
        }
    }

    #[test]
    fn index_coords_round_trip() {
        let g = TriangulatedGrid::new(7);
        for v in 0..g.num_vertices() {
            let (r, c) = g.coords(v);
            assert_eq!(g.index(r, c), v);
        }
    }

    #[test]
    fn sources_and_sinks() {
        let g = TriangulatedGrid::new(3);
        assert_eq!(g.sources(Axis::LeftRight), vec![0, 3, 6]);
        assert_eq!(g.sinks(Axis::LeftRight), vec![2, 5, 8]);
        assert_eq!(g.sources(Axis::TopBottom), vec![0, 1, 2]);
        assert_eq!(g.sinks(Axis::TopBottom), vec![6, 7, 8]);
    }

    #[test]
    fn straight_paths_are_crossing_paths() {
        let g = TriangulatedGrid::new(6);
        for i in 0..6 {
            let lr = g.straight_path(Axis::LeftRight, i);
            let tb = g.straight_path(Axis::TopBottom, i);
            assert!(g.is_crossing_path(Axis::LeftRight, &lr));
            assert!(g.is_crossing_path(Axis::TopBottom, &tb));
            assert_eq!(lr.len(), 6);
            assert_eq!(tb.len(), 6);
        }
    }

    #[test]
    fn crossing_path_rejects_bad_paths() {
        let g = TriangulatedGrid::new(4);
        // Not reaching the right side.
        assert!(!g.is_crossing_path(Axis::LeftRight, &[0, 1, 2]));
        // Repeated vertex.
        assert!(!g.is_crossing_path(Axis::LeftRight, &[0, 1, 0, 1, 2, 3]));
        // Non-adjacent jump.
        assert!(!g.is_crossing_path(Axis::LeftRight, &[0, 3]));
        // Empty.
        assert!(!g.is_crossing_path(Axis::LeftRight, &[]));
        // A diagonal-using LR path: (1,0) -> (0,1) is an anti-diagonal edge, then walk
        // right along row 0.
        let path = vec![g.index(1, 0), g.index(0, 1), g.index(0, 2), g.index(0, 3)];
        assert!(g.is_crossing_path(Axis::LeftRight, &path));
    }

    #[test]
    #[should_panic(expected = "side must be positive")]
    fn zero_side_rejected() {
        let _ = TriangulatedGrid::new(0);
    }
}
