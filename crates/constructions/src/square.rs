//! The `√n × √n` square and its line helpers: [`SquareGrid`] (row-major
//! indexing, fully alive lines, the count kernel's [`LineCountTables`]), the
//! exact closed form [`rows_and_columns_alive_probability`], and the line
//! pricing oracle [`min_price_rows_and_columns`] with its balanced strategy
//! [`balanced_line_strategy`]. The line-quorum systems of [`crate::grid`]
//! (Grid, M-Grid and the regular grid) use all of them.

use std::sync::OnceLock;

use bqs_core::bitset::ServerSet;
use bqs_core::error::QuorumError;

use crate::segments::unavailable_profile_by_segments;

/// A square arrangement of `side × side` servers, indexed row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquareGrid {
    side: usize,
}

impl SquareGrid {
    /// Creates a `side × side` arrangement.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidParameters`] if `side == 0`.
    pub fn new(side: usize) -> Result<Self, QuorumError> {
        if side == 0 {
            return Err(QuorumError::InvalidParameters(
                "grid side must be positive".into(),
            ));
        }
        Ok(SquareGrid { side })
    }

    /// The side length.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// The universe size `side²`.
    #[must_use]
    pub fn universe_size(&self) -> usize {
        self.side * self.side
    }

    /// Row-major index of `(row, col)`.
    #[must_use]
    pub fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.side && col < self.side);
        row * self.side + col
    }

    /// The indices of rows that are entirely contained in `alive`.
    #[must_use]
    pub fn fully_alive_rows(&self, alive: &ServerSet) -> Vec<usize> {
        (0..self.side)
            .filter(|&r| (0..self.side).all(|c| alive.contains(self.index(r, c))))
            .collect()
    }

    /// The indices of columns that are entirely contained in `alive`.
    #[must_use]
    pub fn fully_alive_columns(&self, alive: &ServerSet) -> Vec<usize> {
        (0..self.side)
            .filter(|&c| (0..self.side).all(|r| alive.contains(self.index(r, c))))
            .collect()
    }

    /// Number of rows entirely contained in `alive`, counted without
    /// allocating (the hot-path sibling of [`SquareGrid::fully_alive_rows`]).
    #[must_use]
    pub fn fully_alive_row_count(&self, alive: &ServerSet) -> usize {
        (0..self.side)
            .filter(|&r| (0..self.side).all(|c| alive.contains(self.index(r, c))))
            .count()
    }

    /// Number of columns entirely contained in `alive`, counted without
    /// allocating.
    #[must_use]
    pub fn fully_alive_column_count(&self, alive: &ServerSet) -> usize {
        (0..self.side)
            .filter(|&c| (0..self.side).all(|r| alive.contains(self.index(r, c))))
            .count()
    }

    /// The packed line tables for this side, which count enumeration sweeps
    /// (see [`LineCountTables`]). They depend on the side alone, so each
    /// side's are built once per process, on first use.
    ///
    /// # Panics
    ///
    /// Panics if `side > 8` (the count kernel only covers universes of at
    /// most 64 servers).
    #[must_use]
    pub fn line_count_tables(&self) -> &'static LineCountTables {
        static TABLES: [OnceLock<LineCountTables>; 8] = [const { OnceLock::new() }; 8];
        TABLES
            .get(self.side - 1)
            .expect("line tables need 1 <= side <= 8")
            .get_or_init(|| LineCountTables::new(self.side))
    }

    /// The union of the given rows and columns as a server set.
    #[must_use]
    pub fn union_of(&self, rows: &[usize], cols: &[usize]) -> ServerSet {
        let mut set = ServerSet::new(self.universe_size());
        for &r in rows {
            set.insert_range(self.index(r, 0)..self.index(r, 0) + self.side);
        }
        for &c in cols {
            for r in 0..self.side {
                set.insert(self.index(r, c));
            }
        }
        set
    }
}

/// Packed lookup tables answering "how many fully-alive rows / which
/// columns survive the AND-fold" for a `side × side` mask, plus the
/// histogram that lets exact enumeration count whole segments of masks.
///
/// The `side²`-bit mask is cut into chunks of whole rows, each at most 15
/// bits wide, and every chunk gets a `2^bits`-entry table whose packed
/// `u16` entry holds the chunk's fully-alive row count (high byte) and its
/// column AND-fold (low byte, valid for `side ≤ 8` — exactly the `n ≤ 64`
/// range of the count kernel). Entries of disjoint chunks join by adding
/// rows and AND-ing folds, so a mask's entry is a handful of probes.
///
/// The low chunk's `2^bits` values are also grouped once, by entry and
/// popcount, into a histogram. That is what
/// [`LineCountTables::unavailable_profile_range`] joins against the high
/// chunks' entry to count a whole segment of `2^bits` masks at once (see
/// `segments.rs`). Nothing here depends on `p`, on the range or on the
/// quorum shape, so [`SquareGrid::line_count_tables`] builds it once per
/// side.
#[derive(Debug, Clone)]
pub struct LineCountTables {
    chunks: Vec<LineChunk>,
    /// The distinct entries of the low chunk's table.
    lo_entries: Vec<u16>,
    /// `lo_hist[i * (lo_bits + 1) + k]`: how many low-chunk values of
    /// popcount `k` have entry `lo_entries[i]`.
    lo_hist: Vec<u64>,
}

#[derive(Debug, Clone)]
struct LineChunk {
    shift: u32,
    index_mask: u64,
    /// `(full_rows << 8) | column_fold` per chunk value.
    table: Vec<u16>,
}

/// The entry of no rows at all: zero full rows, every column still alive.
const EMPTY_ENTRY: u16 = 0x00ff;

/// The entry of two disjoint sets of rows: full rows add, folds AND.
fn join(a: u16, b: u16) -> u16 {
    ((a & 0xff00) + (b & 0xff00)) | (a & b & 0xff)
}

impl LineCountTables {
    /// Builds the tables for a `side × side` grid (`side ≤ 8`).
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or `side > 8` (the count kernel only covers
    /// universes of at most 64 servers).
    #[must_use]
    pub fn new(side: usize) -> Self {
        assert!(side > 0 && side <= 8, "line tables need 1 <= side <= 8");
        let row = (1u16 << side) - 1;
        let rows_per_chunk = (15 / side).clamp(1, side);
        let chunks: Vec<LineChunk> = (0..side)
            .step_by(rows_per_chunk)
            .map(|first_row| {
                let rows = rows_per_chunk.min(side - first_row);
                let bits = rows * side;
                let table = (0..1usize << bits)
                    .map(|v| {
                        let mut full = 0u16;
                        let mut fold = row;
                        for r in 0..rows {
                            let slice = (v >> (r * side)) as u16 & row;
                            full += u16::from(slice == row);
                            fold &= slice;
                        }
                        (full << 8) | fold
                    })
                    .collect();
                LineChunk {
                    shift: (first_row * side) as u32,
                    index_mask: (1u64 << bits) - 1,
                    table,
                }
            })
            .collect();
        let width = chunks[0].index_mask.count_ones() as usize + 1;
        let mut lo_entries: Vec<u16> = Vec::new();
        let mut lo_hist: Vec<u64> = Vec::new();
        // Entries are below `(rows_per_chunk + 1) << 8`: index them directly.
        let mut slot = vec![usize::MAX; (rows_per_chunk + 1) << 8];
        for (v, &entry) in chunks[0].table.iter().enumerate() {
            let i = &mut slot[usize::from(entry)];
            if *i == usize::MAX {
                *i = lo_entries.len();
                lo_entries.push(entry);
                lo_hist.resize(lo_hist.len() + width, 0);
            }
            lo_hist[*i * width + v.count_ones() as usize] += 1;
        }
        LineCountTables {
            chunks,
            lo_entries,
            lo_hist,
        }
    }

    /// The joined entry of `alive`'s slices under `chunks`.
    #[inline]
    fn entry(chunks: &[LineChunk], alive: u64) -> u16 {
        chunks.iter().fold(EMPTY_ENTRY, |acc, chunk| {
            join(
                acc,
                chunk.table[((alive >> chunk.shift) & chunk.index_mask) as usize],
            )
        })
    }

    /// Adds one to `profile[popcount(m)]` for every mask `m` in `start..end`
    /// with fewer than `min_rows` fully-alive rows or fewer than `min_cols`
    /// fully-alive columns — the entire inner loop of exact `F_p`
    /// enumeration for the line-quorum grids, in the shape
    /// [`bqs_core::quorum::QuorumSystem::unavailable_profile_u64_range`]
    /// asks for.
    ///
    /// The range is walked by aligned segments of `2^lo_bits` masks, `lo_bits`
    /// the low chunk's width. A whole segment shares its high chunks' entry
    /// `e`, so it adds `U[e][k]` to `profile[popcount(base) + k]`, where
    /// `U[e]` sums the low histogram's rows whose join with `e` is
    /// unavailable; `U[e]` is computed once per distinct `e` and call. Only
    /// the masks of segments the range cuts are probed one by one.
    pub fn unavailable_profile_range(
        &self,
        min_rows: usize,
        min_cols: usize,
        start: u64,
        end: u64,
        profile: &mut [u64],
    ) {
        let unavailable = |entry: u16| {
            usize::from(entry >> 8) < min_rows || ((entry & 0xff).count_ones() as usize) < min_cols
        };
        let (lo, high_chunks) = self.chunks.split_first().expect("at least one chunk");
        let lo_bits = lo.index_mask.count_ones();
        let mut segment_rows: Vec<(u16, Vec<u64>)> = Vec::new();
        unavailable_profile_by_segments(
            start,
            end,
            lo_bits,
            profile,
            |base, row| {
                let high = Self::entry(high_chunks, base);
                let i = match segment_rows.iter().position(|&(e, _)| e == high) {
                    Some(i) => i,
                    None => {
                        segment_rows.push((high, self.segment_counts(high, unavailable)));
                        segment_rows.len() - 1
                    }
                };
                for (r, c) in row.iter_mut().zip(&segment_rows[i].1) {
                    *r += c;
                }
            },
            |mask| unavailable(Self::entry(&self.chunks, mask)),
        );
    }

    /// `U[high]`: the unavailable masks of a segment whose high chunks'
    /// entry is `high`, by low popcount — the sum of the low histogram's
    /// rows whose join with `high` is unavailable.
    fn segment_counts(&self, high: u16, unavailable: impl Fn(u16) -> bool) -> Vec<u64> {
        let width = self.lo_hist.len() / self.lo_entries.len();
        let mut counts = vec![0u64; width];
        for (&entry, hist) in self.lo_entries.iter().zip(self.lo_hist.chunks(width)) {
            if unavailable(join(high, entry)) {
                for (c, h) in counts.iter_mut().zip(hist) {
                    *c += h;
                }
            }
        }
        counts
    }
}

/// The uniform-weight strategy over the perfectly balanced line family
/// behind the line systems' symmetric strategy hint: every pair of a cyclic
/// `num_rows`-window of rows and a cyclic `num_cols`-window of columns of
/// `grid` (`side²` pairs, row windows outer), each the union of its full
/// lines.
///
/// Each cell `(r, c)` lies in exactly `num_rows` row windows and `num_cols`
/// column windows, so across the full family it is covered exactly
/// `num_rows·side + num_cols·side − num_rows·num_cols` times — the uniform
/// mixture over the family therefore loads every server equally at `c(Q)/n`,
/// which is what lets the load engine certify grid-union systems in a single
/// oracle call.
///
/// # Panics
///
/// Panics unless `1 <= num_rows, num_cols <= side`.
#[must_use]
pub fn balanced_line_strategy(
    grid: &SquareGrid,
    num_rows: usize,
    num_cols: usize,
) -> (Vec<ServerSet>, Vec<f64>) {
    let side = grid.side;
    assert!(
        (1..=side).contains(&num_rows) && (1..=side).contains(&num_cols),
        "window sizes must be in 1..=side"
    );
    let windows = |len: usize| -> Vec<Vec<usize>> {
        (0..side)
            .map(|start| (0..len).map(|o| (start + o) % side).collect())
            .collect()
    };
    let (row_windows, col_windows) = (windows(num_rows), windows(num_cols));
    let quorums: Vec<ServerSet> = row_windows
        .iter()
        .flat_map(|rows| col_windows.iter().map(|cols| grid.union_of(rows, cols)))
        .collect();
    let weights = vec![1.0; quorums.len()];
    (quorums, weights)
}

/// Exact minimum-price selection of `num_rows` full rows and `num_cols` full
/// columns of a `side × side` grid — the pricing oracle of the line systems
/// of [`crate::grid`].
///
/// The price of a union counts each cell once:
///
/// ```text
/// price(R, C) = Σ_{r∈R} rowsum(r) + Σ_{c∈C} colsum(c) − Σ_{r∈R, c∈C} p[r][c],
/// ```
///
/// which couples the two choices through the overlap term. The minimum is
/// found *exactly* by enumerating every size-`num_cols` (or size-`num_rows`,
/// whichever axis has fewer subsets) line set and selecting the best
/// complementary lines greedily — optimal because, with one axis fixed, the
/// other axis' contributions `rowsum(r) − Σ_{c∈C} p[r][c]` are independent
/// across lines.
///
/// The enumeration is a depth-first walk over the subsets in lexicographic
/// order that shares prefixes: depth `d` keeps one overlap row, the
/// previous depth's row plus the cells of the line chosen at `d`, so every
/// overlap is the same left-to-right sum it would be if each subset were
/// summed alone. At each leaf the cheapest `k` complementary lines are kept
/// by insertion into a `k`-slot list under the `(value, index)` order, with
/// no sort and no allocation. Ties break towards smaller indices, both
/// among complementary lines and between subsets (the first subset in
/// lexicographic order wins an equal price), keeping the oracle
/// deterministic.
///
/// Returns `(rows, columns, price)`, or `None` when the line counts do not
/// fit the grid, or — on degenerate parameterisations whose enumerated axis
/// has more than `max_subsets` subsets — when the branch-and-bound fallback
/// (see below) exhausts its node budget without proving optimality (callers
/// fall back to the explicit LP).
///
/// When the subset space exceeds `max_subsets` the oracle no longer gives up
/// immediately: it switches to a best-first branch-and-bound over the
/// enumerated axis, pruning with the lower bound
///
/// ```text
/// bound(S, next) = Σ_{j∈S} enumsum(j) + minsum(next, t) + pick_floor(S) − maxred(next, t)
/// ```
///
/// where `t` lines are still to choose, `minsum` is the sum of the `t`
/// cheapest remaining enumerated lines, `pick_floor(S)` the cheapest
/// `k_pick` picked lines given the overlap already fixed by `S`, and
/// `maxred` caps how much the remaining choices can still reduce the picked
/// lines (each future line `j` by at most its `k_pick` largest cells). Every
/// pruned subtree provably contains no cheaper union, so an answer is exact;
/// the node budget (`max_subsets` nodes) keeps degenerate instances from
/// running away, declining instead.
#[must_use]
pub fn min_price_rows_and_columns(
    side: usize,
    prices: &[f64],
    num_rows: usize,
    num_cols: usize,
    max_subsets: u128,
) -> Option<(Vec<usize>, Vec<usize>, f64)> {
    assert_eq!(prices.len(), side * side, "one price per grid cell");
    if num_rows == 0 || num_cols == 0 || num_rows > side || num_cols > side {
        return None;
    }
    // Enumerate the axis needing fewer subsets. C(side, k) is unimodal in k
    // (not monotonic), so compare the actual subset counts rather than the
    // line counts: for e.g. side = 40, rows = 36, cols = 6 the *row* axis is
    // the cheap one (C(40, 36) = C(40, 4) « C(40, 6)).
    let subsets = |k: usize| bqs_combinatorics::binomial::binomial(side as u64, k as u64);
    let transpose = subsets(num_rows) < subsets(num_cols);
    let (k_enum, k_pick) = if transpose {
        (num_rows, num_cols)
    } else {
        (num_cols, num_rows)
    };
    // `cell(i, j)`: price of the cell on picked-axis line i, enumerated-axis
    // line j (rows are the picked axis unless transposed).
    let cell = |i: usize, j: usize| -> f64 {
        if transpose {
            prices[j * side + i]
        } else {
            prices[i * side + j]
        }
    };
    let pick_sums: Vec<f64> = (0..side)
        .map(|i| (0..side).map(|j| cell(i, j)).sum())
        .collect();
    let enum_sums: Vec<f64> = (0..side)
        .map(|j| (0..side).map(|i| cell(i, j)).sum())
        .collect();

    if subsets(k_enum) > max_subsets {
        // Degenerate parameterisation: too many subsets to enumerate.
        // Branch-and-bound stays exact and only declines when its node
        // budget runs out.
        let node_budget = usize::try_from(max_subsets).unwrap_or(usize::MAX);
        return branch_and_bound_lines(
            side,
            &cell,
            &pick_sums,
            &enum_sums,
            k_enum,
            k_pick,
            node_budget,
        )
        .map(|(enum_set, picked, price)| {
            let (mut rows, mut cols) = if transpose {
                (enum_set, picked)
            } else {
                (picked, enum_set)
            };
            rows.sort_unstable();
            cols.sort_unstable();
            (rows, cols, price)
        });
    }

    let (enum_set, picked, price) =
        enumerate_lines(side, &cell, &pick_sums, &enum_sums, k_enum, k_pick);
    let (mut rows, mut cols) = if transpose {
        (enum_set, picked)
    } else {
        (picked, enum_set)
    };
    rows.sort_unstable();
    cols.sort_unstable();
    Some((rows, cols, price))
}

/// Exact enumeration of every `k_enum`-subset of the enumerated axis, in
/// lexicographic order, each completed by its `k_pick` cheapest picked lines
/// (see [`min_price_rows_and_columns`]). Returns `(enumerated lines, picked
/// lines, price)` in original indices; the picked lines come cheapest first.
fn enumerate_lines(
    side: usize,
    cell: &impl Fn(usize, usize) -> f64,
    pick_sums: &[f64],
    enum_sums: &[f64],
    k_enum: usize,
    k_pick: usize,
) -> (Vec<usize>, Vec<usize>, f64) {
    // Enumerated line `j`'s cells, contiguous: `lines[j * side + i] = cell(i, j)`.
    let lines: Vec<f64> = (0..side)
        .flat_map(|j| (0..side).map(move |i| cell(i, j)))
        .collect();
    let line = |j: usize| &lines[j * side..(j + 1) * side];
    // The DFS path `set[..=d]`, its enumerated-line sums `base[d]`, and one
    // overlap row per depth: `overlap[d * side + i]` sums `cell(i, j)` over
    // `j ∈ set[..=d]`, left to right as an iterator sum would.
    let mut set: Vec<usize> = (0..k_enum).collect();
    let mut base = vec![0.0; k_enum];
    let mut overlap = vec![0.0; k_enum * side];
    // The leaf's `k_pick` cheapest `(order key, value, line)` triples,
    // ascending; the key is the value's `total_cmp` order as an integer.
    let mut cheapest: Vec<(i64, f64, usize)> = Vec::with_capacity(k_pick);
    let mut best_price: Option<f64> = None;
    let mut best_set = set.clone();
    let mut best_picked = vec![0usize; k_pick];
    // The depth whose line changed; every deeper entry is refilled.
    let mut d = 0;
    loop {
        // Descend from depth `d`: each deeper line follows its parent.
        for depth in d..k_enum {
            if depth > d {
                set[depth] = set[depth - 1] + 1;
            }
            let j = set[depth];
            base[depth] = if depth == 0 {
                enum_sums[j]
            } else {
                base[depth - 1] + enum_sums[j]
            };
            let (done, row) = overlap.split_at_mut(depth * side);
            let row = &mut row[..side];
            if depth == 0 {
                row.copy_from_slice(line(j));
            } else {
                let parent = &done[(depth - 1) * side..];
                for ((o, &p), &c) in row.iter_mut().zip(parent).zip(line(j)) {
                    *o = p + c;
                }
            }
        }
        // Leaf: select the cheapest picked lines by insertion under the
        // `(value, index)` order, so ties go to the smaller index.
        let leaf = &overlap[(k_enum - 1) * side..];
        let mut values = pick_sums
            .iter()
            .zip(leaf)
            .map(|(&sum, &lap)| sum - lap)
            .enumerate();
        let insert = |cheapest: &mut Vec<(i64, f64, usize)>, key: i64, v: f64, i: usize| {
            let at = cheapest.partition_point(|&(w, _, _)| w <= key);
            cheapest.insert(at, (key, v, i));
        };
        cheapest.clear();
        for (i, v) in values.by_ref().take(k_pick) {
            insert(&mut cheapest, total_order_key(v), v, i);
        }
        for (i, v) in values {
            let key = total_order_key(v);
            if key < cheapest[k_pick - 1].0 {
                cheapest.pop();
                insert(&mut cheapest, key, v, i);
            }
        }
        // Summed left to right from the first term, as `Iterator::sum` would.
        let picked_sum = cheapest[1..]
            .iter()
            .fold(cheapest[0].1, |acc, &(_, v, _)| acc + v);
        let price = base[k_enum - 1] + picked_sum;
        if best_price.is_none_or(|best| price < best) {
            best_price = Some(price);
            best_set.copy_from_slice(&set);
            for (b, &(_, _, i)) in best_picked.iter_mut().zip(&cheapest) {
                *b = i;
            }
        }
        // Next subset in lexicographic order: bump the deepest line that
        // still leaves room for the lines after it.
        match (0..k_enum)
            .rev()
            .find(|&depth| set[depth] < side - (k_enum - depth))
        {
            Some(depth) => {
                set[depth] += 1;
                d = depth;
            }
            None => {
                return (
                    best_set,
                    best_picked,
                    best_price.expect("one leaf at least"),
                )
            }
        }
    }
}

/// `f64::total_cmp`'s order as an integer: `a.total_cmp(&b)` is
/// `total_order_key(a).cmp(&total_order_key(b))`.
fn total_order_key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Exact branch-and-bound over the enumerated axis for parameterisations
/// whose subset space is too large to enumerate (see
/// [`min_price_rows_and_columns`] for the bound). Returns
/// `(enumerated lines, picked lines, price)` in original indices, or `None`
/// when the node budget runs out before optimality is proved.
fn branch_and_bound_lines(
    side: usize,
    cell: &impl Fn(usize, usize) -> f64,
    pick_sums: &[f64],
    enum_sums: &[f64],
    k_enum: usize,
    k_pick: usize,
    node_budget: usize,
) -> Option<(Vec<usize>, Vec<usize>, f64)> {
    // Candidate enumerated lines, cheapest total first: the leftmost DFS
    // leaf is then the greedy incumbent, and the `minsum` term of the bound
    // is a contiguous prefix of the remaining candidates.
    let mut cands: Vec<usize> = (0..side).collect();
    cands.sort_by(|&a, &b| enum_sums[a].total_cmp(&enum_sums[b]).then(a.cmp(&b)));
    let cand_sum: Vec<f64> = cands.iter().map(|&j| enum_sums[j]).collect();
    let mut presum = vec![0.0; side + 1];
    for (idx, &s) in cand_sum.iter().enumerate() {
        presum[idx + 1] = presum[idx] + s;
    }
    // Per-candidate picked-axis cells, and the most a candidate can ever
    // subtract from the picked axis: its `k_pick` largest cells.
    let cols_by_cand: Vec<Vec<f64>> = cands
        .iter()
        .map(|&j| (0..side).map(|i| cell(i, j)).collect())
        .collect();
    let colmax: Vec<f64> = cols_by_cand
        .iter()
        .map(|col| {
            let mut sorted = col.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            sorted[..k_pick].iter().sum()
        })
        .collect();
    // maxred[next][t]: the sum of the `t` largest `colmax` values among
    // candidates `next..` — how much `t` future choices can still reduce the
    // picked axis, whatever they are.
    let maxred: Vec<Vec<f64>> = (0..=side)
        .map(|next| {
            let mut suffix = colmax[next..].to_vec();
            suffix.sort_by(|a, b| b.total_cmp(a));
            let tmax = k_enum.min(suffix.len());
            let mut row = vec![0.0; tmax + 1];
            for t in 0..tmax {
                row[t + 1] = row[t] + suffix[t];
            }
            row
        })
        .collect();

    struct Bb<'a> {
        side: usize,
        k_enum: usize,
        k_pick: usize,
        cands: &'a [usize],
        cand_sum: &'a [f64],
        presum: &'a [f64],
        cols_by_cand: &'a [Vec<f64>],
        maxred: &'a [Vec<f64>],
        pick_sums: &'a [f64],
        /// Σ cell(i, j) over the chosen enumerated lines, per picked line i.
        overlaps: Vec<f64>,
        /// Chosen candidate *positions*, ascending.
        chosen: Vec<usize>,
        scratch: Vec<(f64, usize)>,
        nodes: usize,
        budget: usize,
        aborted: bool,
        best_price: f64,
        best_enum: Vec<usize>,
        best_pick: Vec<usize>,
    }

    impl Bb<'_> {
        /// Cheapest-possible picked-axis total given the overlap fixed so
        /// far; fills `scratch` sorted so leaves can read the line indices.
        fn pick_floor(&mut self) -> f64 {
            for (i, slot) in self.scratch.iter_mut().enumerate() {
                *slot = (self.pick_sums[i] - self.overlaps[i], i);
            }
            self.scratch
                .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            self.scratch[..self.k_pick].iter().map(|&(v, _)| v).sum()
        }

        fn dfs(&mut self, next: usize, partial: f64) {
            self.nodes += 1;
            if self.nodes > self.budget {
                self.aborted = true;
                return;
            }
            let t = self.k_enum - self.chosen.len();
            let floor = self.pick_floor();
            if t == 0 {
                let price = partial + floor;
                if price < self.best_price {
                    self.best_price = price;
                    self.best_enum = self.chosen.iter().map(|&pos| self.cands[pos]).collect();
                    self.best_pick = self.scratch[..self.k_pick]
                        .iter()
                        .map(|&(_, i)| i)
                        .collect();
                }
                return;
            }
            if next + t > self.side {
                return;
            }
            let bound = partial + (self.presum[next + t] - self.presum[next]) + floor
                - self.maxred[next][t];
            if bound >= self.best_price {
                return;
            }
            for pos in next..=(self.side - t) {
                self.chosen.push(pos);
                for (o, c) in self.overlaps.iter_mut().zip(&self.cols_by_cand[pos]) {
                    *o += c;
                }
                self.dfs(pos + 1, partial + self.cand_sum[pos]);
                for (o, c) in self.overlaps.iter_mut().zip(&self.cols_by_cand[pos]) {
                    *o -= c;
                }
                self.chosen.pop();
                if self.aborted {
                    return;
                }
            }
        }
    }

    let mut bb = Bb {
        side,
        k_enum,
        k_pick,
        cands: &cands,
        cand_sum: &cand_sum,
        presum: &presum,
        cols_by_cand: &cols_by_cand,
        maxred: &maxred,
        pick_sums,
        overlaps: vec![0.0; side],
        chosen: Vec::with_capacity(k_enum),
        scratch: vec![(0.0, 0); side],
        nodes: 0,
        budget: node_budget,
        aborted: false,
        best_price: f64::INFINITY,
        best_enum: Vec::new(),
        best_pick: Vec::new(),
    };
    bb.dfs(0, 0.0);
    if bb.aborted || bb.best_enum.is_empty() {
        return None;
    }
    Some((bb.best_enum, bb.best_pick, bb.best_price))
}

/// Exact probability that, with each server alive independently with
/// probability `1 - p`, a `side × side` grid has at least `min_rows` fully
/// alive rows **and** at least `min_cols` fully alive columns.
///
/// This is the availability event of every line system (Grid needs `2b + 1`
/// rows and one column; M-Grid needs `⌈√(b+1)⌉` of each), so `1 -` this
/// value is their exact `F_p` — no enumeration required.
///
/// Derivation: condition on a set `S` of columns being fully alive. Given
/// `|S| = j`, the rows are independent and each is fully alive with
/// probability `(1-p)^(side-j)` (its cells in `S` are already alive). The
/// generalized inclusion–exclusion identity for "at least `m` of `N`
/// exchangeable events, jointly with any row event" then gives
///
/// ```text
/// P = Σ_{j=m}^{s} (-1)^(j-m) C(j-1, m-1) C(s, j) (1-p)^(js) · P[Bin(s, (1-p)^(s-j)) >= min_rows]
/// ```
///
/// # Panics
///
/// Panics unless `1 <= min_cols <= side` and `min_rows <= side`.
#[must_use]
pub fn rows_and_columns_alive_probability(
    side: usize,
    min_rows: usize,
    min_cols: usize,
    p: f64,
) -> f64 {
    assert!(
        (1..=side).contains(&min_cols) && min_rows <= side,
        "need 1 <= min_cols <= side and min_rows <= side (side={side}, min_rows={min_rows}, min_cols={min_cols})"
    );
    let p = p.clamp(0.0, 1.0);
    let q = 1.0 - p;
    let s = side as u64;
    let mut total = 0.0;
    for j in min_cols..=side {
        let sign = if (j - min_cols).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        let coeff = bqs_combinatorics::binomial::binomial(j as u64 - 1, min_cols as u64 - 1) as f64
            * bqs_combinatorics::binomial::binomial(s, j as u64) as f64;
        let cols_alive = q.powi((j * side) as i32);
        let row_alive = q.powi((side - j) as i32);
        let rows_tail = bqs_combinatorics::binomial::binomial_tail(s, min_rows as u64, row_alive);
        total += sign * coeff * cols_alive * rows_tail;
    }
    total.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(min_rows, min_cols)` pairs Grid and M-Grid use at `side`.
    fn line_quorum_shapes(side: usize) -> Vec<(usize, usize)> {
        let mut shapes: Vec<(usize, usize)> = (0..side)
            .flat_map(|b| {
                let grid = crate::GridSystem::new(side, b).ok().map(|g| g.lines());
                let mgrid = crate::MGridSystem::new(side, b).ok().map(|m| m.lines());
                grid.into_iter().chain(mgrid)
            })
            .collect();
        shapes.sort_unstable();
        shapes.dedup();
        shapes
    }

    #[test]
    fn segment_kernel_matches_per_mask_count() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for side in 1..=8usize {
            let g = SquareGrid::new(side).unwrap();
            let n = side * side;
            let tables = g.line_count_tables();
            let segment = 1u64 << tables.chunks[0].index_mask.count_ones();
            // A range that starts and ends inside a segment and straddles
            // three more.
            let ragged = |base: u64| (base + segment / 3 + 1, base + 3 * segment + segment / 2);
            // The top of the mask space: 2^n, or for side 8, where the last
            // segment ends at 2^64, the largest `end` a range can have.
            let top = if n == 64 { u64::MAX } else { 1u64 << n };
            let windows: Vec<(u64, u64)> = if side <= 4 {
                // (Sides 1-3 are one segment: `ragged` is cut at the top.)
                let (start, end) = ragged(0);
                vec![(0, top), (1, top - 1), (start, end.min(top))]
            } else {
                let bases = (0..3).map(|_| (next() % (top - 4 * segment)) & !(segment - 1));
                bases
                    .map(ragged)
                    .chain([(top - 2 * segment - segment / 4, top)])
                    .collect()
            };
            let shapes = line_quorum_shapes(side);
            let mut alive = ServerSet::new(n);
            for &(start, end) in &windows {
                // The per-mask reference for every shape at once: full rows
                // and columns are counted once per mask.
                let mut direct = vec![vec![0u64; n + 1]; shapes.len()];
                for mask in start..end {
                    alive.assign_mask_u64(mask);
                    let rows = g.fully_alive_row_count(&alive);
                    let cols = g.fully_alive_column_count(&alive);
                    for (profile, &(min_rows, min_cols)) in direct.iter_mut().zip(&shapes) {
                        profile[mask.count_ones() as usize] +=
                            u64::from(rows < min_rows || cols < min_cols);
                    }
                }
                for (&(min_rows, min_cols), direct) in shapes.iter().zip(&direct) {
                    let mut kernel = vec![0u64; n + 1];
                    tables.unavailable_profile_range(min_rows, min_cols, start, end, &mut kernel);
                    assert_eq!(
                        &kernel, direct,
                        "side={side} shape=({min_rows}, {min_cols}) range={start:#x}..{end:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn construction_and_indexing() {
        let g = SquareGrid::new(4).unwrap();
        assert_eq!(g.universe_size(), 16);
        assert_eq!(g.index(2, 3), 11);
        assert!(SquareGrid::new(0).is_err());
    }

    #[test]
    fn alive_rows_and_columns() {
        let g = SquareGrid::new(3).unwrap();
        let mut alive = ServerSet::full(9);
        alive.remove(g.index(1, 1));
        assert_eq!(g.fully_alive_rows(&alive), vec![0, 2]);
        assert_eq!(g.fully_alive_columns(&alive), vec![0, 2]);
    }

    /// Brute-force reference for the line-pricing oracle.
    fn brute_force_min_price(side: usize, prices: &[f64], num_rows: usize, num_cols: usize) -> f64 {
        let mut best = f64::INFINITY;
        for rows in bqs_combinatorics::subsets::KSubsets::new(side, num_rows) {
            for cols in bqs_combinatorics::subsets::KSubsets::new(side, num_cols) {
                let mut price = 0.0;
                for r in 0..side {
                    for c in 0..side {
                        if rows.contains(&r) || cols.contains(&c) {
                            price += prices[r * side + c];
                        }
                    }
                }
                best = best.min(price);
            }
        }
        best
    }

    #[test]
    fn min_price_lines_matches_brute_force() {
        // Deterministic pseudo-random prices over a 5x5 grid, every feasible
        // (num_rows, num_cols) shape.
        let side = 5;
        let prices: Vec<f64> = (0..side * side)
            .map(|i| ((i * 31 + 17) % 53) as f64 / 53.0)
            .collect();
        for num_rows in 1..=3 {
            for num_cols in 1..=3 {
                let (rows, cols, price) =
                    min_price_rows_and_columns(side, &prices, num_rows, num_cols, 1 << 20).unwrap();
                assert_eq!(rows.len(), num_rows);
                assert_eq!(cols.len(), num_cols);
                // The reported price equals the union price of the returned lines.
                let mut direct = 0.0;
                for r in 0..side {
                    for c in 0..side {
                        if rows.contains(&r) || cols.contains(&c) {
                            direct += prices[r * side + c];
                        }
                    }
                }
                assert!((price - direct).abs() < 1e-12);
                let brute = brute_force_min_price(side, &prices, num_rows, num_cols);
                assert!(
                    (price - brute).abs() < 1e-12,
                    "rows={num_rows} cols={num_cols}: {price} vs {brute}"
                );
            }
        }
    }

    #[test]
    fn min_price_lines_edge_cases() {
        let prices = vec![0.5; 9];
        // Whole grid: 3 rows + 3 cols covers everything once.
        let (_, _, price) = min_price_rows_and_columns(3, &prices, 3, 3, 1 << 10).unwrap();
        assert!((price - 4.5).abs() < 1e-12);
        // Infeasible shapes and exhausted budgets decline.
        assert!(min_price_rows_and_columns(3, &prices, 0, 1, 1 << 10).is_none());
        assert!(min_price_rows_and_columns(3, &prices, 4, 1, 1 << 10).is_none());
        assert!(min_price_rows_and_columns(3, &prices, 2, 2, 1).is_none());
    }

    #[test]
    fn union_of_rows_and_columns() {
        let g = SquareGrid::new(3).unwrap();
        let u = g.union_of(&[0], &[1]);
        // Row 0 (3 servers) + column 1 (3 servers) sharing one cell = 5 servers.
        assert_eq!(u.len(), 5);
        assert!(u.contains(g.index(0, 0)));
        assert!(u.contains(g.index(2, 1)));
        assert!(!u.contains(g.index(2, 2)));
    }

    #[test]
    fn branch_and_bound_fallback_matches_enumeration_when_forced() {
        // C(10, 3) = 120 > 100 forces the branch-and-bound path; the full
        // enumeration (generous budget) is the reference. Planted cheap
        // lines plus deterministic noise keep the optimum unique so both
        // paths must return the identical line sets.
        let side = 10;
        for seed in 0..4u64 {
            let prices: Vec<f64> = (0..side * side)
                .map(|i| {
                    let r = i / side;
                    let c = i % side;
                    let noise = ((i as u64 * 131 + seed * 17 + 7) % 23) as f64 / 230.0;
                    if [1usize, 4, 6].contains(&r) || [2usize, 3, 8].contains(&c) {
                        noise
                    } else {
                        5.0 + noise
                    }
                })
                .collect();
            let exhaustive = min_price_rows_and_columns(side, &prices, 3, 3, u128::MAX).unwrap();
            let forced = min_price_rows_and_columns(side, &prices, 3, 3, 100).unwrap();
            assert_eq!(forced.0, exhaustive.0, "seed={seed}");
            assert_eq!(forced.1, exhaustive.1, "seed={seed}");
            assert!((forced.2 - exhaustive.2).abs() < 1e-9, "seed={seed}");
            // A hopeless node budget still declines instead of answering
            // wrong.
            assert!(min_price_rows_and_columns(side, &prices, 3, 3, 1).is_none());
        }
    }
}
