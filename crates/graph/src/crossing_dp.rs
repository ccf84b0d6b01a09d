//! Exact crossing probabilities on the triangulated grid by transfer-matrix DP.
//!
//! The M-Path availability event is *`k` vertex-disjoint alive left-right
//! crossings AND `k` vertex-disjoint alive top-bottom crossings*. Evaluating
//! its probability by enumeration costs `2^n` availability checks; Monte-Carlo
//! gives only sampled estimates (and literal zeros in the low-`p` tail). This
//! module computes the probability **exactly** with a column-sweep dynamic
//! program over boundary-interface states — and decides the event for one
//! configuration with a capped shortest-path search, by the same duality.
//!
//! # The duality that makes a sweep possible
//!
//! The triangular lattice is *self-matching*: a set of vertices blocks every
//! left-right path iff it contains a top-bottom path in the **same**
//! adjacency. Combined with Menger's theorem this turns both flow values into
//! shortest-path quantities over the *same* random configuration:
//!
//! * `maxflow_LR(alive) = min over top-bottom paths π of #alive vertices on π`
//! * `maxflow_TB(alive) = min over left-right paths π of #alive vertices on π`
//!
//! (Weak direction: any TB path meets any LR path in a vertex, so the alive
//! vertices of a TB path form an LR cut; strong direction: a minimum LR vertex
//! cut, together with the dead vertices, contains a TB path because the
//! lattice is self-matching. The test suite pins this identity against the
//! Dinic max-flow in [`crate::maxflow`] configuration by configuration.)
//!
//! For a single configuration this is all the M-Path availability event
//! needs: `k` disjoint crossings exist iff the cheapest blocking path costs at
//! least `k`, and a search that gives up at cost `k`
//! ([`min_crossing_cost_capped`]) answers that without a flow network. Flow is
//! only needed to *extract* the crossings.
//!
//! # The interface state
//!
//! Shortest-path costs through a region interact with the outside *only*
//! through the region's boundary: the matrix of pairwise capped shortest-path
//! costs between boundary nodes is a sufficient statistic, no matter how
//! often an optimal path weaves in and out of the region. The sweep therefore
//! adds one cell at a time (column-major) and maintains, per state,
//!
//! * the capped all-pairs cost matrix over `{T, B, L} ∪ frontier` where `T`,
//!   `B`, `L` are virtual terminals for the top, bottom and left sides and
//!   the frontier holds one cell per row (the staircase between the processed
//!   and unprocessed cells), and
//! * the aliveness of the frontier cells.
//!
//! Costs count **alive interior vertices** (dead vertices are free for a
//! blocking path) and saturate at `k`: the events only ask whether a crossing
//! of cost `< k` exists, so every value `≥ k` is equivalent and the state
//! space collapses accordingly. Two states that agree on the capped matrix
//! and the frontier bits are merged, summing their probabilities.
//!
//! # Absorbing decided states
//!
//! Adding a cell only adds paths, so every matrix entry is non-increasing
//! along the sweep. `d[T][B]` is the cost of a complete top-bottom blocking
//! path through the region processed so far: once it is below `k` it stays
//! below `k`, so the configuration is left-right blocked — and hence crashed —
//! whatever the remaining cells do. A successor with `d[T][B] < k` is therefore
//! not inserted into the next state map; its mass is banked per lane into a
//! compensated `decided` total that is added to both outcomes at the end. A
//! decided state's descendants are all decided, so the saving compounds: at
//! side 6, `k = 3` the map after the last cell holds 36 836 states where the
//! sweep that carried decided states to the end held 294 143, and none of the
//! difference was packed, hashed, stored or expanded.
//!
//! Only `T–B` can be decided mid-sweep. The left-right blocking path runs
//! from `L` to the *right column*, which does not exist until the last column
//! is swept: `d[L][frontier]` falling below `k` says a cheap path reaches the
//! current frontier, not that it reaches the far side. (`T` and `B`, by
//! contrast, touch every column.)
//!
//! In the ε-pruned sweep, absorbed mass counts toward the certified lower
//! bound and can no longer be pruned: it leaves the map before the ε and
//! budget filters run. Enclosures therefore only narrow — with fewer live
//! states, the same budget also evicts less.
//!
//! # Cost
//!
//! The number of reachable states still grows quickly with the side length —
//! the DP is exponential in `√n`, like every known exact method for crossing
//! probabilities — so the entry points take a state budget and return `None`
//! when it is exceeded. Within the budget (sides up to ~7–8 at practical
//! budgets) the result is exact to floating-point rounding, which extends
//! exact M-Path evaluation well past the `2^25` enumeration limit
//! (side 5): a side-7 grid has `2^49` configurations.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use crate::grid::{Axis, TriangulatedGrid};

/// Deterministic hashing for the state maps: with the std `RandomState`,
/// state iteration (and hence the f64 accumulation order) would differ
/// between processes, making DP results reproducible only up to the last
/// ulp. Both key codecs use a fixed, seedless hasher so every run is
/// bit-identical.
///
/// Each state carries one probability mass *per sweep point*: the reachable
/// state space and its transition structure depend only on `(side, k)` —
/// never on `p` — so a whole `p`-grid shares a single enumeration, paying
/// the hashing/packing cost once instead of once per point (the lanes are
/// independent, so each lane's accumulation order, and hence its bits,
/// matches a single-point sweep exactly). The map value is an index into a
/// flat `lanes`-strided mass arena rather than a per-state `Vec<f64>`, so
/// carrying lanes costs no extra heap allocation per state — in particular
/// the single-point path allocates exactly what it did before batching.
type StateMap<K> = HashMap<K, usize, <K as SweepKey>::Build>;

/// Default cap on the number of simultaneous interface states before the DP
/// gives up and returns `None`. 2 million states × ~100-byte keys keeps the
/// worst case in the hundreds of megabytes and well under a second per state
/// generation on commodity hardware.
pub const DEFAULT_DP_STATE_BUDGET: usize = 2_000_000;

/// Default per-state mass threshold for the ε-pruned sweep
/// ([`mpath_crash_probability_pruned`]). A state is discarded only when its
/// mass is below ε in **every** lane, and all discarded mass is carried
/// forward into the interval width, so the choice of ε trades state count
/// against interval width rather than against correctness. `1e-24` is a
/// conservative floor; the state budget (which force-prunes the lowest-mass
/// states when the ε-survivors overflow it, see
/// [`mpath_crash_probability_pruned`]) is the knob that actually bounds
/// memory, and at paper-scale `p` the banked mass stays orders of magnitude
/// below the `1e-9` reporting gate.
pub const DEFAULT_PRUNE_EPSILON: f64 = 1e-24;

/// A rigorous enclosure `[lower, upper]` of a probability computed by the
/// ε-pruned sweep: the lower end is the blocked mass the surviving states
/// account for, the upper end additionally charges **all** discarded mass to
/// the event. The true (unpruned) probability is contained by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityInterval {
    /// Certified lower bound on the probability.
    pub lower: f64,
    /// Certified upper bound on the probability.
    pub upper: f64,
}

impl ProbabilityInterval {
    /// A degenerate (width-zero) interval at `value`.
    #[must_use]
    pub fn exact(value: f64) -> Self {
        ProbabilityInterval {
            lower: value,
            upper: value,
        }
    }

    /// The certified width `upper - lower`.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// The midpoint, the natural point estimate.
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Whether `value` lies inside the enclosure (within `tol` slack).
    #[must_use]
    pub fn contains(&self, value: f64, tol: f64) -> bool {
        value >= self.lower - tol && value <= self.upper + tol
    }
}

/// Reusable working memory of [`min_crossing_cost_capped`]: the distance
/// array and the 0-1 BFS deque. One scratch serves calls of any side and
/// axis; after the first call at a given size nothing is allocated.
#[derive(Debug, Default)]
pub struct CrossingScratch {
    dist: Vec<u32>,
    deque: VecDeque<usize>,
}

/// `min(cap, c)` where `c` is the minimum alive-vertex count over all
/// crossing paths of `axis` on the `side × side` triangulated grid (dead
/// vertices cost nothing; `alive(v)` answers for vertex `v = row·side +
/// col`). By the self-matching duality `c` equals the maximum number of
/// vertex-disjoint alive crossings of the *perpendicular* axis — the
/// identity the tests pin against [`crate::maxflow`] — so "are there `k`
/// disjoint alive crossings" is `min_crossing_cost_capped(.., k, ..) >= k`
/// of the other axis.
///
/// A multi-source 0-1 BFS that stops at the cap: a vertex at cost `≥ cap` is
/// never queued, and the search returns the moment it pops a sink (pops come
/// in non-decreasing cost order, so the first sink popped is a cheapest
/// one). When the answer is `cap` — the common case for an available M-Path
/// configuration — only the band of vertices within cost `cap` of the source
/// side is visited, not the grid.
///
/// # Panics
///
/// Panics if `side == 0`.
pub fn min_crossing_cost_capped(
    side: usize,
    alive: impl Fn(usize) -> bool,
    axis: Axis,
    cap: usize,
    scratch: &mut CrossingScratch,
) -> usize {
    assert!(side > 0, "grid side must be positive");
    // A crossing costs at most `side`, so a cap beyond u32 is no cap.
    let cap32 = u32::try_from(cap).unwrap_or(u32::MAX);
    scratch.dist.clear();
    scratch.dist.resize(side * side, u32::MAX);
    scratch.deque.clear();
    let reach = |scratch: &mut CrossingScratch, u: usize, from: u32| {
        // Costs are non-negative: a vertex already this cheap cannot improve.
        if scratch.dist[u] <= from {
            return;
        }
        let cost = u32::from(alive(u));
        let nd = from + cost;
        if nd < scratch.dist[u] && nd < cap32 {
            scratch.dist[u] = nd;
            if cost == 0 {
                scratch.deque.push_front(u);
            } else {
                scratch.deque.push_back(u);
            }
        }
    };
    for i in 0..side {
        let source = match axis {
            Axis::LeftRight => i * side,
            Axis::TopBottom => i,
        };
        reach(scratch, source, 0);
    }
    loop {
        let Some(v) = scratch.deque.pop_front() else {
            return cap;
        };
        let (r, c) = (v / side, v % side);
        let at_sink = match axis {
            Axis::LeftRight => c + 1 == side,
            Axis::TopBottom => r + 1 == side,
        };
        let dv = scratch.dist[v];
        if at_sink {
            return dv as usize;
        }
        // The six lattice neighbours, as `TriangulatedGrid::neighbors` lists
        // them.
        if c > 0 {
            reach(scratch, v - 1, dv);
        }
        if c + 1 < side {
            reach(scratch, v + 1, dv);
        }
        if r > 0 {
            reach(scratch, v - side, dv);
        }
        if r + 1 < side {
            reach(scratch, v + side, dv);
        }
        if r > 0 && c + 1 < side {
            reach(scratch, v - side + 1, dv);
        }
        if r + 1 < side && c > 0 {
            reach(scratch, v + side - 1, dv);
        }
    }
}

/// [`min_crossing_cost_capped`] with no cap, over an `alive` mask: the
/// minimum alive-vertex count over all crossing paths of `axis`. The grid is
/// connected, so a crossing path (possibly through dead vertices) always
/// exists.
#[must_use]
pub fn min_crossing_cost(grid: &TriangulatedGrid, alive: &[bool], axis: Axis) -> usize {
    assert_eq!(
        alive.len(),
        grid.num_vertices(),
        "alive mask must cover every vertex"
    );
    min_crossing_cost_capped(
        grid.side(),
        |v| alive[v],
        axis,
        usize::MAX,
        &mut CrossingScratch::default(),
    )
}

/// Where one lane's unit of probability mass is after the last cell. Both
/// the joint M-Path crash probability and the single-direction crossing
/// probabilities are sums of these parts, and the parts sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LaneMass {
    /// Absorbed mid-sweep with `d[T][B] < k`: `maxflow_LR < k` for good (see
    /// "Absorbing decided states" in the module docs).
    decided: f64,
    /// Surviving states whose cheapest left-right blocking path costs `< k`:
    /// `maxflow_TB < k` although `maxflow_LR ≥ k`.
    tb_blocked: f64,
    /// Surviving states with `k` disjoint crossings both ways.
    open: f64,
    /// Dropped by ε- or budget-pruning; outcome unknown.
    discarded: f64,
}

impl LaneMass {
    /// All mass in one part: `decided` (every configuration blocked) or
    /// `open` (none blocked) — the analytic `p = 1` and `p = 0` lanes.
    fn all(decided: f64, open: f64) -> Self {
        LaneMass {
            decided,
            tb_blocked: 0.0,
            open,
            discarded: 0.0,
        }
    }

    /// `P[maxflow_LR < k]` (up to the discarded mass).
    fn lr_blocked(&self) -> f64 {
        self.decided.clamp(0.0, 1.0)
    }

    /// `P[maxflow_LR < k or maxflow_TB < k]` — the M-Path crash probability
    /// (up to the discarded mass).
    fn either_blocked(&self) -> f64 {
        (self.decided + self.tb_blocked).clamp(0.0, 1.0)
    }
}

/// Exact M-Path crash probability: the probability that the grid does **not**
/// contain `k` vertex-disjoint alive left-right crossings and `k`
/// vertex-disjoint alive top-bottom crossings simultaneously, when every
/// vertex crashes independently with probability `p`.
///
/// Returns `None` when the interface-state count exceeds `max_states`
/// (the DP is exponential in `side`; see the module docs), when `side == 0`,
/// or when `k` is not in `1..=side` (with `k > side` no configuration has
/// `k` disjoint crossings, so the crash probability is trivially 1 — callers
/// should not need a sweep for that).
#[must_use]
pub fn mpath_crash_probability_exact(
    side: usize,
    k: usize,
    p: f64,
    max_states: usize,
) -> Option<f64> {
    run_sweep_grid(side, k, &[p], max_states, 0.0).map(|o| o[0].either_blocked())
}

/// The ε-pruned variant of [`mpath_crash_probability_exact`]: interface
/// states whose probability mass falls below `epsilon` (in every lane) are
/// dropped from the sweep, and the total dropped mass is carried forward as
/// a rigorous enclosure — the true crash probability is certified to lie in
/// the returned `[lower, upper]` interval. With `epsilon = 0.0` no state is
/// ever dropped and the interval degenerates to the exact value.
///
/// Pruning is what pushes the sweep past the exact side-6 wall: the mass
/// distribution over interface states is extremely skewed, so a small
/// high-mass core carries almost all of the probability. When the
/// ε-survivors still exceed `max_states` the sweep keeps exactly the
/// `max_states` highest-mass states and banks the rest, so the budget bounds
/// *memory* rather than aborting the run — a too-tight budget surfaces as
/// interval width, never as a wrong value.
///
/// With `epsilon > 0` the sweep therefore only returns `None` on invalid
/// parameters (`side == 0` or `k` outside `1..=side`); with `epsilon = 0.0`
/// it returns `None` when the exact state set exceeds `max_states`, exactly
/// like [`mpath_crash_probability_exact`].
#[must_use]
pub fn mpath_crash_probability_pruned(
    side: usize,
    k: usize,
    p: f64,
    max_states: usize,
    epsilon: f64,
) -> Option<ProbabilityInterval> {
    run_sweep_grid_pruned(side, k, &[p], max_states, epsilon).map(|o| o[0])
}

/// [`mpath_crash_probability_pruned`] over a whole `p`-grid in one shared
/// sweep (see [`mpath_crash_probability_exact_grid`]; each lane keeps its own
/// discarded-mass total, so every interval is certified for its own `p`).
#[must_use]
pub fn mpath_crash_probability_pruned_grid(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
    epsilon: f64,
) -> Option<Vec<ProbabilityInterval>> {
    run_sweep_grid_pruned(side, k, ps, max_states, epsilon)
}

/// Shared driver for the pruned entry points: maps each lane's blocked and
/// discarded mass into a certified interval.
fn run_sweep_grid_pruned(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
    epsilon: f64,
) -> Option<Vec<ProbabilityInterval>> {
    let lanes = run_sweep_grid(side, k, ps, max_states, epsilon)?;
    Some(
        lanes
            .into_iter()
            .map(|lane| {
                let lower = lane.either_blocked();
                ProbabilityInterval {
                    lower,
                    upper: if lower.is_nan() {
                        lower
                    } else {
                        (lower + lane.discarded).min(1.0)
                    },
                }
            })
            .collect(),
    )
}

/// [`mpath_crash_probability_exact`] over a whole `p`-grid in **one** sweep:
/// the interface-state enumeration and transition structure depend only on
/// `(side, k)`, so all points share them and each extra point costs a few
/// multiply-adds per transition instead of a full re-enumeration. Results
/// are bit-identical to evaluating each point on its own.
///
/// Returns `None` under the same conditions as the single-point form.
#[must_use]
pub fn mpath_crash_probability_exact_grid(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
) -> Option<Vec<f64>> {
    run_sweep_grid(side, k, ps, max_states, 0.0)
        .map(|lanes| lanes.iter().map(LaneMass::either_blocked).collect())
}

/// Exact probability of an alive crossing along `axis` (`k = 1` flow event)
/// when every vertex crashes independently with probability `p`. By the
/// square grid's transpose symmetry the two axes give the same value; the
/// parameter exists for call-site clarity.
///
/// Returns `None` under the same conditions as
/// [`mpath_crash_probability_exact`].
#[must_use]
pub fn crossing_probability_exact(
    side: usize,
    p: f64,
    _axis: Axis,
    max_states: usize,
) -> Option<f64> {
    run_sweep_grid(side, 1, &[p], max_states, 0.0).map(|o| 1.0 - o[0].lr_blocked())
}

/// [`crossing_probability_exact`] over a whole `p`-grid in one shared sweep
/// (see [`mpath_crash_probability_exact_grid`]).
#[must_use]
pub fn crossing_probability_exact_grid(
    side: usize,
    ps: &[f64],
    _axis: Axis,
    max_states: usize,
) -> Option<Vec<f64>> {
    run_sweep_grid(side, 1, ps, max_states, 0.0)
        .map(|lanes| lanes.iter().map(|o| 1.0 - o.lr_blocked()).collect())
}

/// Node layout of the interface matrix: three virtual terminals, then one
/// frontier slot per row.
const T: usize = 0;
const B: usize = 1;
const L: usize = 2;
const CELLS: usize = 3;

/// The interface matrix plus frontier aliveness, in unpacked working form.
#[derive(Clone)]
struct State {
    /// Full symmetric `n_nodes × n_nodes` capped cost matrix (diagonal 0).
    d: Vec<u8>,
    /// Bit `r` set iff the frontier cell of row `r` is alive.
    alive: u32,
}

/// Key codec for the interface-state maps: how a [`State`] is canonicalised
/// into a hashable map key. Two codecs exist — the bit-packed [`PackedKey`]
/// fast path (no per-key heap allocation, 4-word hashing and equality) that
/// covers every practically reachable parameterisation (`side ≤ 10`,
/// `k ≤ 7`), and the byte-vector fallback for parameters beyond it, kept for
/// API completeness (those sweeps exceed any realistic state budget anyway).
trait SweepKey: Eq + std::hash::Hash + Clone {
    /// Hasher family for maps keyed by this codec (fixed-seed, so state
    /// iteration order — and hence f64 accumulation — is reproducible).
    type Build: std::hash::BuildHasher + Default;
    /// An empty reusable key buffer.
    fn empty() -> Self;
    /// Canonicalises `state` into `self`.
    fn pack(&mut self, state: &State, n_nodes: usize);
    /// Rehydrates the key into a full-matrix `State`.
    fn unpack(&self, n_nodes: usize, out: &mut State);
}

impl SweepKey for Vec<u8> {
    type Build = BuildHasherDefault<std::hash::DefaultHasher>;

    fn empty() -> Self {
        Vec::new()
    }

    fn pack(&mut self, state: &State, n_nodes: usize) {
        pack_into(state, n_nodes, self);
    }

    fn unpack(&self, n_nodes: usize, out: &mut State) {
        unpack_into(self, n_nodes, out);
    }
}

/// 3-bit slots per `u64` word of a [`PackedKey`]: 21 slots use 63 bits, so a
/// slot never straddles a word boundary.
const PACKED_SLOTS_PER_WORD: usize = 21;

/// Total 3-bit slot capacity of a [`PackedKey`].
const PACKED_SLOTS: usize = 4 * PACKED_SLOTS_PER_WORD;

/// The number of 3-bit slots a `(side, k)` sweep needs: one per
/// upper-triangle matrix entry plus ⌈side/3⌉ for the frontier aliveness bits.
fn packed_slots_needed(side: usize) -> usize {
    let n_nodes = CELLS + side;
    n_nodes * (n_nodes - 1) / 2 + side.div_ceil(3)
}

/// The interface state bit-packed into four words: capped cost entries are at
/// most `kcap ≤ 7`, so each fits a 3-bit slot. Compared to the byte-vector
/// codec this removes the per-inserted-state heap allocation and shrinks
/// hashing and equality from a ~60-byte memcmp/SipHash to four words — the
/// dominant non-arithmetic cost of the sweep's hot loop.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PackedKey([u64; 4]);

/// Four `write_u64` rounds. The derived impl hashes the array as a slice — a
/// length prefix plus one `write` of 32 bytes, which [`FxHasher`] would take
/// a byte at a time.
impl std::hash::Hash for PackedKey {
    fn hash<H: std::hash::Hasher>(&self, hasher: &mut H) {
        for &word in &self.0 {
            hasher.write_u64(word);
        }
    }
}

impl SweepKey for PackedKey {
    type Build = BuildHasherDefault<FxHasher>;

    fn empty() -> Self {
        PackedKey([0; 4])
    }

    fn pack(&mut self, state: &State, n_nodes: usize) {
        self.0 = [0; 4];
        let mut slot = 0usize;
        for i in 0..n_nodes {
            for j in (i + 1)..n_nodes {
                let v = u64::from(state.d[i * n_nodes + j]);
                self.0[slot / PACKED_SLOTS_PER_WORD] |= v << (3 * (slot % PACKED_SLOTS_PER_WORD));
                slot += 1;
            }
        }
        for c in 0..(n_nodes - CELLS).div_ceil(3) {
            let v = (u64::from(state.alive) >> (3 * c)) & 7;
            self.0[slot / PACKED_SLOTS_PER_WORD] |= v << (3 * (slot % PACKED_SLOTS_PER_WORD));
            slot += 1;
        }
    }

    fn unpack(&self, n_nodes: usize, out: &mut State) {
        let mut slot = 0usize;
        for i in 0..n_nodes {
            out.d[i * n_nodes + i] = 0;
            for j in (i + 1)..n_nodes {
                let v = ((self.0[slot / PACKED_SLOTS_PER_WORD]
                    >> (3 * (slot % PACKED_SLOTS_PER_WORD)))
                    & 7) as u8;
                out.d[i * n_nodes + j] = v;
                out.d[j * n_nodes + i] = v;
                slot += 1;
            }
        }
        let mut alive = 0u32;
        for c in 0..(n_nodes - CELLS).div_ceil(3) {
            let v =
                (self.0[slot / PACKED_SLOTS_PER_WORD] >> (3 * (slot % PACKED_SLOTS_PER_WORD))) & 7;
            alive |= (v as u32) << (3 * c);
            slot += 1;
        }
        out.alive = alive;
    }
}

/// Seedless multiply-rotate hasher for [`PackedKey`] maps: four
/// rotate-xor-multiply rounds instead of SipHash over a ~60-byte buffer.
/// Deterministic by construction (no per-process seed), which is what keeps
/// sweep results bit-identical run to run; it is never fed attacker-chosen
/// keys, so SipHash's flooding resistance buys nothing here.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(26) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_usize(&mut self, w: usize) {
        self.write_u64(w as u64);
    }
}

/// The common driver behind the exact and pruned entry points: one
/// [`LaneMass`] per requested `p`. With `epsilon = 0.0` no state is ever
/// pruned and every lane's discarded mass is exactly zero.
fn run_sweep_grid(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
    epsilon: f64,
) -> Option<Vec<LaneMass>> {
    if side == 0 || k == 0 || k > side || side > 31 {
        return None;
    }
    // Boundary points are analytic (p = 0: the fully alive grid has `k ≤
    // side` disjoint straight crossings both ways; p = 1: nothing is alive),
    // and excluding them keeps every swept transition's weight non-zero for
    // every lane — so the reachable state set, its iteration order, and
    // hence each lane's bit pattern are identical whether the lane runs
    // alone or in a grid.
    let clamped: Vec<f64> = ps.iter().map(|&p| p.clamp(0.0, 1.0)).collect();
    let interior: Vec<f64> = clamped
        .iter()
        .copied()
        .filter(|&p| p > 0.0 && p < 1.0)
        .collect();
    let swept = if interior.is_empty() {
        Vec::new()
    } else {
        sweep_interior(side, k, &interior, max_states, epsilon)?
    };
    let mut swept_iter = swept.into_iter();
    Some(
        clamped
            .iter()
            .map(|&p| {
                if p.is_nan() {
                    // Garbage in, garbage out — but never a panic (matching
                    // the historical single-point behaviour, where a NaN `p`
                    // produced NaN weights throughout the sweep).
                    LaneMass::all(f64::NAN, f64::NAN)
                } else if p <= 0.0 {
                    LaneMass::all(0.0, 1.0)
                } else if p >= 1.0 {
                    LaneMass::all(1.0, 0.0)
                } else {
                    swept_iter.next().expect("one swept lane per interior p")
                }
            })
            .collect(),
    )
}

/// The shared column sweep over interior points (`0 < p < 1` each): one
/// state enumeration, `ps.len()` probability lanes.
fn sweep_interior(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
    epsilon: f64,
) -> Option<Vec<LaneMass>> {
    if k <= 7 && packed_slots_needed(side) <= PACKED_SLOTS {
        sweep_interior_keyed::<PackedKey>(side, k, ps, max_states, epsilon)
    } else {
        sweep_interior_keyed::<Vec<u8>>(side, k, ps, max_states, epsilon)
    }
}

/// One Neumaier-compensated running sum per lane. The absorbed mass is the
/// sum of millions of terms spanning many orders of magnitude, and it is most
/// of a crash probability's value, so it is summed with an error term rather
/// than as a plain chain.
struct CompensatedLanes {
    sum: Vec<f64>,
    err: Vec<f64>,
}

impl CompensatedLanes {
    fn new(lanes: usize) -> Self {
        CompensatedLanes {
            sum: vec![0.0; lanes],
            err: vec![0.0; lanes],
        }
    }

    fn add(&mut self, terms: &[f64]) {
        for ((sum, err), &x) in self.sum.iter_mut().zip(&mut self.err).zip(terms) {
            let t = *sum + x;
            *err += if sum.abs() >= x.abs() {
                (*sum - t) + x
            } else {
                (x - t) + *sum
            };
            *sum = t;
        }
    }

    fn total(&self, lane: usize) -> f64 {
        self.sum[lane] + self.err[lane]
    }
}

/// The sweep body, generic over the state-key codec (see [`SweepKey`]).
fn sweep_interior_keyed<K: SweepKey>(
    side: usize,
    k: usize,
    ps: &[f64],
    max_states: usize,
    epsilon: f64,
) -> Option<Vec<LaneMass>> {
    let kcap = u8::try_from(k).ok()?;
    let lanes = ps.len();
    let n_nodes = CELLS + side;
    let initial = State {
        // No region yet: every pair is "unreachable", which the cap folds
        // into the same class as "cost >= k".
        d: init_matrix(n_nodes, kcap),
        alive: 0,
    };
    let mut states: StateMap<K> = StateMap::<K>::default();
    let mut masses: Vec<f64> = vec![1.0; lanes];
    let mut initial_key = K::empty();
    initial_key.pack(&initial, n_nodes);
    states.insert(initial_key, 0);
    let mut decided = CompensatedLanes::new(lanes);
    let mut discarded: Vec<f64> = vec![0.0; lanes];

    // Reusable scratch for the unpacked base state, the mutated successor and
    // its packed key: the innermost loop runs (states × cells) times and must
    // not allocate per transition.
    let mut base = State {
        d: vec![0; n_nodes * n_nodes],
        alive: 0,
    };
    let mut scratch = base.clone();
    let mut keybuf = K::empty();
    let mut newrow = vec![0u8; n_nodes];
    let mut massbuf: Vec<f64> = vec![0.0; lanes];
    for col in 0..side {
        for row in 0..side {
            let mut next = StateMap::<K>::with_capacity_and_hasher(
                states.len().saturating_mul(2),
                <_>::default(),
            );
            let mut next_masses: Vec<f64> = Vec::with_capacity(masses.len().saturating_mul(2));
            for (key, &mass_idx) in &states {
                let mass = &masses[mass_idx * lanes..(mass_idx + 1) * lanes];
                key.unpack(n_nodes, &mut base);
                debug_assert!(
                    base.d[T * n_nodes + B] >= kcap,
                    "a decided state was kept in the map"
                );
                for cell_alive in [false, true] {
                    scratch.d.copy_from_slice(&base.d);
                    scratch.alive = base.alive;
                    add_cell(&mut scratch, side, kcap, row, col, cell_alive, &mut newrow);
                    for ((mb, &m), &p) in massbuf.iter_mut().zip(mass).zip(ps) {
                        let weight = if cell_alive { 1.0 - p } else { p };
                        *mb = m * weight;
                    }
                    // `d[T][B]` only falls as cells are added: below `k` the
                    // verdict is final, so the mass is banked, not carried.
                    if scratch.d[T * n_nodes + B] < kcap {
                        decided.add(&massbuf);
                        continue;
                    }
                    keybuf.pack(&scratch, n_nodes);
                    // Only a first-seen successor pays a key allocation; its
                    // masses go into the flat arena.
                    if let Some(&idx) = next.get(&keybuf) {
                        for (a, &mb) in next_masses[idx * lanes..].iter_mut().zip(&massbuf) {
                            *a += mb;
                        }
                    } else {
                        next.insert(keybuf.clone(), next_masses.len() / lanes);
                        next_masses.extend_from_slice(&massbuf);
                    }
                }
            }
            // ε-pruning: a state below threshold in *every* lane is dropped,
            // its mass per lane banked into the enclosure width. (Skipped
            // entirely at ε = 0 so the exact path's state set and iteration
            // order are untouched.)
            if epsilon > 0.0 {
                next.retain(|_, &mut idx| {
                    let mass = &next_masses[idx * lanes..(idx + 1) * lanes];
                    if mass.iter().any(|&m| m >= epsilon) {
                        true
                    } else {
                        for (acc, &m) in discarded.iter_mut().zip(mass) {
                            *acc += m;
                        }
                        false
                    }
                });
            }
            // Forced budget pruning (pruned path only): when the ε-survivors
            // still exceed the budget, keep exactly the `max_states`
            // highest-mass states and bank the rest into the enclosure. The
            // budget thus bounds memory instead of aborting the sweep, and
            // the interval stays certified — a too-tight budget shows up as
            // width, not as `None`. Ranking ties break on the arena index,
            // which the fixed-key hasher makes reproducible, so results stay
            // bit-identical across runs.
            if epsilon > 0.0 && next.len() > max_states {
                let max_lane_mass = |idx: usize| {
                    next_masses[idx * lanes..(idx + 1) * lanes]
                        .iter()
                        .fold(0.0_f64, |a, &m| a.max(m))
                };
                let mut order: Vec<(f64, usize)> = next
                    .values()
                    .map(|&idx| (max_lane_mass(idx), idx))
                    .collect();
                let cut = order.len() - max_states;
                order.select_nth_unstable_by(cut, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let threshold = order[cut];
                next.retain(|_, &mut idx| {
                    if (max_lane_mass(idx), idx) >= threshold {
                        true
                    } else {
                        let mass = &next_masses[idx * lanes..(idx + 1) * lanes];
                        for (acc, &m) in discarded.iter_mut().zip(mass) {
                            *acc += m;
                        }
                        false
                    }
                });
            }
            if next.len() > max_states {
                return None;
            }
            states = next;
            masses = next_masses;
        }
    }

    // Every survivor has `d[T][B] ≥ k`, i.e. `maxflow_LR ≥ k` by the
    // self-matching duality; what is left to read is `maxflow_TB = min
    // LR-path cost`. The final frontier is exactly the right column, where LR
    // blocking paths terminate (paying their own aliveness).
    let mut tb_blocked = vec![0.0; lanes];
    let mut open = vec![0.0; lanes];
    for (key, &mass_idx) in &states {
        let mass = &masses[mass_idx * lanes..(mass_idx + 1) * lanes];
        key.unpack(n_nodes, &mut base);
        let min_lr_cost = (0..side)
            .map(|r| base.d[L * n_nodes + CELLS + r].saturating_add((base.alive >> r & 1) as u8))
            .min()
            .unwrap_or(kcap);
        let part = if min_lr_cost < kcap {
            &mut tb_blocked
        } else {
            &mut open
        };
        for (acc, &m) in part.iter_mut().zip(mass) {
            *acc += m;
        }
    }
    Some(
        (0..lanes)
            .map(|lane| LaneMass {
                decided: decided.total(lane),
                tb_blocked: tb_blocked[lane],
                open: open[lane],
                discarded: discarded[lane],
            })
            .collect(),
    )
}

fn init_matrix(n_nodes: usize, kcap: u8) -> Vec<u8> {
    let mut d = vec![kcap; n_nodes * n_nodes];
    for i in 0..n_nodes {
        d[i * n_nodes + i] = 0;
    }
    d
}

/// Packs the upper triangle of the (symmetric) matrix plus the frontier bits
/// into a canonical byte-vector key (the fallback codec's hot-loop packer;
/// the reused buffer is cleared first).
fn pack_into(state: &State, n_nodes: usize, key: &mut Vec<u8>) {
    key.clear();
    for i in 0..n_nodes {
        for j in (i + 1)..n_nodes {
            key.push(state.d[i * n_nodes + j]);
        }
    }
    key.extend_from_slice(&state.alive.to_le_bytes());
}

/// Rehydrates a packed key into a reused full-matrix `State`.
fn unpack_into(key: &[u8], n_nodes: usize, out: &mut State) {
    let mut pos = 0;
    for i in 0..n_nodes {
        out.d[i * n_nodes + i] = 0;
        for j in (i + 1)..n_nodes {
            out.d[i * n_nodes + j] = key[pos];
            out.d[j * n_nodes + i] = key[pos];
            pos += 1;
        }
    }
    out.alive = u32::from_le_bytes(key[pos..pos + 4].try_into().expect("key length"));
}

/// Extends the region by cell `(row, col)`, replacing the frontier slot of
/// `row` (which held `(row, col - 1)`, about to lose its last unprocessed
/// neighbour) and restoring the capped metric closure.
///
/// Costs are *interior*: an entry excludes both endpoints' aliveness, which
/// lets segments be concatenated by adding the junction vertex's cost once.
/// Terminals are virtual (cost 0, endpoints only): they are never used as
/// intermediates, so a path cannot "teleport" along the top row through `T`.
/// `newrow` is caller-provided scratch of length `n_nodes` (the hot loop must
/// not allocate per transition); its contents on entry are irrelevant.
#[allow(clippy::too_many_arguments)]
fn add_cell(
    state: &mut State,
    side: usize,
    kcap: u8,
    row: usize,
    col: usize,
    cell_alive: bool,
    newrow: &mut [u8],
) {
    let n_nodes = CELLS + side;
    let v = CELLS + row;
    let d = &mut state.d;

    // Region nodes adjacent to the new cell. In column-major insertion order
    // the triangulated grid's neighbours of (row, col) inside the region are
    // (row-1, col) [this column, vertical], (row, col-1) [previous column,
    // horizontal — currently in slot `row`], and (row+1, col-1) [previous
    // column, anti-diagonal].
    let mut adj_cells: [usize; 3] = [usize::MAX; 3];
    let mut n_adj = 0;
    if row > 0 {
        adj_cells[n_adj] = CELLS + row - 1;
        n_adj += 1;
    }
    if col > 0 {
        adj_cells[n_adj] = CELLS + row; // (row, col-1): the slot being replaced
        n_adj += 1;
        if row + 1 < side {
            adj_cells[n_adj] = CELLS + row + 1;
            n_adj += 1;
        }
    }

    // New row of the matrix: shortest interior costs from v to every node,
    // before v replaces the old slot content.
    newrow.fill(kcap);
    newrow[v] = 0;
    for &a in &adj_cells[..n_adj] {
        newrow[a] = 0;
        let ca = (state.alive >> (a - CELLS) & 1) as u8;
        for x in 0..n_nodes {
            let via = ca.saturating_add(d[a * n_nodes + x]).min(kcap);
            if via < newrow[x] {
                newrow[x] = via;
            }
        }
    }
    // Virtual terminals adjacent to v (endpoints only — no composition
    // through them).
    if row == 0 {
        newrow[T] = 0;
    }
    if row == side - 1 {
        newrow[B] = 0;
    }
    if col == 0 {
        newrow[L] = 0;
    }
    newrow[v] = 0;

    for x in 0..n_nodes {
        d[v * n_nodes + x] = newrow[x];
        d[x * n_nodes + v] = newrow[x];
    }
    if cell_alive {
        state.alive |= 1 << row;
    } else {
        state.alive &= !(1 << row);
    }

    // Single-pivot closure update: with non-negative costs a shortest walk
    // uses the one new vertex at most once.
    let cv = u8::from(cell_alive);
    for i in 0..n_nodes {
        if i == v {
            continue;
        }
        let div = d[i * n_nodes + v];
        if div >= kcap {
            continue;
        }
        let through = div.saturating_add(cv);
        for j in 0..n_nodes {
            let cand = through.saturating_add(d[v * n_nodes + j]).min(kcap);
            if cand < d[i * n_nodes + j] {
                d[i * n_nodes + j] = cand;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxflow::max_vertex_disjoint_paths;
    use crate::percolation::PercolationEstimator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The load-bearing identity: on the self-matching triangulated grid the
    /// max number of vertex-disjoint alive crossings equals the min number of
    /// alive vertices on a blocking path of the perpendicular direction.
    /// Exhaustive on side 3 (512 configurations), randomized on sides 5–7.
    #[test]
    fn duality_matches_maxflow_exhaustively_side_3() {
        let g = TriangulatedGrid::new(3);
        for mask in 0u32..(1 << 9) {
            let alive: Vec<bool> = (0..9).map(|i| mask >> i & 1 == 1).collect();
            let flow_lr = max_vertex_disjoint_paths(&g, &alive, Axis::LeftRight);
            let flow_tb = max_vertex_disjoint_paths(&g, &alive, Axis::TopBottom);
            assert_eq!(
                flow_lr,
                min_crossing_cost(&g, &alive, Axis::TopBottom),
                "mask={mask:#b}"
            );
            assert_eq!(
                flow_tb,
                min_crossing_cost(&g, &alive, Axis::LeftRight),
                "mask={mask:#b}"
            );
        }
    }

    #[test]
    fn duality_matches_maxflow_randomized_larger_sides() {
        let mut rng = StdRng::seed_from_u64(41);
        for side in [4usize, 5, 6, 7] {
            let g = TriangulatedGrid::new(side);
            for _ in 0..60 {
                let p: f64 = 0.1 + 0.8 * rng.gen::<f64>();
                let alive: Vec<bool> = (0..g.num_vertices())
                    .map(|_| rng.gen::<f64>() >= p)
                    .collect();
                assert_eq!(
                    max_vertex_disjoint_paths(&g, &alive, Axis::LeftRight),
                    min_crossing_cost(&g, &alive, Axis::TopBottom),
                    "side={side}"
                );
                assert_eq!(
                    max_vertex_disjoint_paths(&g, &alive, Axis::TopBottom),
                    min_crossing_cost(&g, &alive, Axis::LeftRight),
                    "side={side}"
                );
            }
        }
    }

    /// Brute-force reference: joint crash probability by summing over all
    /// `2^n` configurations with max-flow availability checks.
    fn brute_force_crash_probability(side: usize, k: usize, p: f64) -> f64 {
        let g = TriangulatedGrid::new(side);
        let n = g.num_vertices();
        let mut total = 0.0;
        for mask in 0u64..(1 << n) {
            let alive: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            let ok = max_vertex_disjoint_paths(&g, &alive, Axis::LeftRight) >= k
                && max_vertex_disjoint_paths(&g, &alive, Axis::TopBottom) >= k;
            if !ok {
                let a = mask.count_ones() as i32;
                total += (1.0 - p).powi(a) * p.powi(n as i32 - a);
            }
        }
        total
    }

    #[test]
    fn dp_matches_brute_force_on_small_grids() {
        for side in [1usize, 2, 3] {
            for k in 1..=side {
                for &p in &[0.0, 0.1, 0.33, 0.5, 0.77, 1.0] {
                    let dp = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
                    let brute = brute_force_crash_probability(side, k, p);
                    assert!(
                        (dp - brute).abs() < 1e-12,
                        "side={side} k={k} p={p}: dp {dp} vs brute {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_side_4() {
        // 2^16 max-flow evaluations per (k, p) point: keep the grid of points
        // small but cover every k the M-Path construction can ask for.
        for k in [1usize, 2, 3] {
            for &p in &[0.125, 0.4] {
                let dp = mpath_crash_probability_exact(4, k, p, 1 << 22).unwrap();
                let brute = brute_force_crash_probability(4, k, p);
                assert!(
                    (dp - brute).abs() < 1e-12,
                    "k={k} p={p}: dp {dp} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn grid_sweep_is_bit_identical_to_single_points() {
        // The whole point of the shared sweep: each lane's accumulation
        // order matches a solo run, so the results agree to the last bit —
        // including grids that mix interior points with the analytic 0/1
        // endpoints.
        let ps = [0.0, 0.05, 0.125, 0.3, 0.5, 0.77, 1.0];
        for (side, k) in [(3usize, 1usize), (4, 2), (5, 3)] {
            let grid = mpath_crash_probability_exact_grid(side, k, &ps, 1 << 22).unwrap();
            for (&p, &g) in ps.iter().zip(&grid) {
                let single = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
                assert_eq!(
                    g.to_bits(),
                    single.to_bits(),
                    "side={side} k={k} p={p}: grid {g} vs single {single}"
                );
            }
            let crossing_grid =
                crossing_probability_exact_grid(side, &ps, Axis::LeftRight, 1 << 22).unwrap();
            for (&p, &g) in ps.iter().zip(&crossing_grid) {
                let single = crossing_probability_exact(side, p, Axis::LeftRight, 1 << 22).unwrap();
                assert_eq!(g.to_bits(), single.to_bits(), "side={side} p={p}");
            }
        }
    }

    #[test]
    fn grid_sweep_handles_empty_and_boundary_only_grids() {
        assert_eq!(
            mpath_crash_probability_exact_grid(4, 2, &[], 1 << 20).unwrap(),
            Vec::<f64>::new()
        );
        assert_eq!(
            mpath_crash_probability_exact_grid(4, 2, &[0.0, 1.0], 1 << 20).unwrap(),
            vec![0.0, 1.0]
        );
        // A NaN point propagates as NaN (no panic) without disturbing the
        // other lanes.
        let mixed = mpath_crash_probability_exact_grid(4, 2, &[0.25, f64::NAN], 1 << 20).unwrap();
        assert!(mixed[0].is_finite());
        assert!(mixed[1].is_nan());
        assert!(mpath_crash_probability_exact(4, 2, f64::NAN, 1 << 20)
            .unwrap()
            .is_nan());
    }

    #[test]
    fn dp_extremes_and_monotonicity() {
        for side in [3usize, 5] {
            for k in [1usize, 2] {
                assert_eq!(
                    mpath_crash_probability_exact(side, k, 0.0, 1 << 22).unwrap(),
                    0.0
                );
                assert_eq!(
                    mpath_crash_probability_exact(side, k, 1.0, 1 << 22).unwrap(),
                    1.0
                );
                let mut prev = 0.0;
                for i in 0..=10 {
                    let p = f64::from(i) / 10.0;
                    let fp = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
                    assert!(fp >= prev - 1e-12, "side={side} k={k} p={p}");
                    prev = fp;
                }
            }
        }
    }

    #[test]
    fn crossing_probability_matches_monte_carlo() {
        let est = PercolationEstimator::new(6);
        let mut rng = StdRng::seed_from_u64(9);
        for &p in &[0.15, 0.5, 0.8] {
            let exact = crossing_probability_exact(6, p, Axis::LeftRight, 1 << 22).unwrap();
            let mc = est.estimate_crossing_probability(p, Axis::LeftRight, 2000, &mut rng);
            assert!(
                (exact - mc.mean).abs() <= mc.ci95_half_width() + 0.02,
                "p={p}: exact {exact} vs mc {} ± {}",
                mc.mean,
                mc.ci95_half_width()
            );
        }
    }

    #[test]
    fn crossing_probability_is_self_dual_at_one_half() {
        // Site percolation on the triangular lattice is self-dual: an alive
        // LR crossing exists iff no dead TB crossing does, so at p = 1/2 the
        // crossing probability is exactly 1/2 on a square patch.
        for side in [2usize, 4, 6] {
            let c = crossing_probability_exact(side, 0.5, Axis::LeftRight, 1 << 22).unwrap();
            assert!((c - 0.5).abs() < 1e-12, "side={side}: {c}");
        }
    }

    #[test]
    #[ignore = "state-space probe for tuning the dispatch gate; run with --ignored --nocapture"]
    fn probe_state_growth() {
        for side in 5..=10usize {
            for k in [2usize, 3, 4] {
                if k > side {
                    continue;
                }
                let start = std::time::Instant::now();
                let fp = mpath_crash_probability_exact(side, k, 0.125, 8_000_000);
                println!(
                    "side={side} k={k}: fp={fp:?} in {:.3}s",
                    start.elapsed().as_secs_f64()
                );
            }
        }
    }

    #[test]
    #[ignore = "k=1 state-space probe for the crossing-curve gate; run with --ignored --nocapture"]
    fn probe_state_growth_k1() {
        for side in [6usize, 8, 10, 12] {
            let start = std::time::Instant::now();
            let c = crossing_probability_exact(side, 0.125, Axis::LeftRight, 4_000_000);
            println!(
                "side={side}: P(cross)={c:?} in {:.3}s",
                start.elapsed().as_secs_f64()
            );
        }
    }

    fn assert_pruned_tracks_exact(cases: &[(usize, usize)]) {
        for &(side, k) in cases {
            for &p in &[0.05, 0.125, 0.3, 0.5] {
                let exact = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
                let interval =
                    mpath_crash_probability_pruned(side, k, p, 1 << 22, DEFAULT_PRUNE_EPSILON)
                        .unwrap();
                assert!(
                    interval.contains(exact, 0.0),
                    "side={side} k={k} p={p}: exact {exact} outside [{}, {}]",
                    interval.lower,
                    interval.upper
                );
                assert!(
                    (interval.midpoint() - exact).abs() <= 1e-12,
                    "side={side} k={k} p={p}: midpoint {} vs exact {exact}",
                    interval.midpoint()
                );
            }
        }
    }

    #[test]
    fn pruned_interval_contains_exact_value_and_is_tight_on_small_sides() {
        // At sides the unpruned sweep still affords, the pruned enclosure
        // must contain the exact value, and with the default ε its width is
        // negligible — the acceptance bar is agreement within 1e-12.
        assert_pruned_tracks_exact(&[(3, 1), (4, 2), (5, 2)]);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "side-6 sweeps take minutes without optimizations; covered by the release suite"
    )]
    fn pruned_interval_contains_exact_value_at_side_six() {
        assert_pruned_tracks_exact(&[(6, 3)]);
    }

    /// `(side, k, p, budget, ε, width at the parent commit)`: the sweep
    /// before absorption, same arguments. Absorbed mass can no longer be
    /// pruned, so the enclosure may only have narrowed — ε-pruned and
    /// budget-pruned alike.
    type WidthCase = (usize, usize, f64, usize, f64, f64);

    fn assert_pruned_no_wider_than_before_absorption(cases: &[WidthCase]) {
        for &(side, k, p, budget, epsilon, width_before) in cases {
            let exact = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
            let interval = mpath_crash_probability_pruned(side, k, p, budget, epsilon).unwrap();
            assert!(
                interval.contains(exact, 1e-15),
                "side={side} k={k} p={p} budget={budget} ε={epsilon}: exact {exact} outside \
                 [{}, {}]",
                interval.lower,
                interval.upper
            );
            assert!(
                interval.width() <= width_before,
                "side={side} k={k} p={p} budget={budget} ε={epsilon}: width {} > {width_before}",
                interval.width()
            );
        }
    }

    #[test]
    fn pruned_interval_is_no_wider_than_before_absorption_side_5() {
        assert_pruned_no_wider_than_before_absorption(&[
            (5, 2, 0.125, 1 << 22, 1e-12, 1.270_489_269_344_921e-11),
            (5, 3, 0.125, 1 << 22, 1e-10, 1.667_284_160_733_473_2e-8),
            (5, 2, 0.125, 300, 1e-16, 2.030_480_395_461_517e-1),
            (5, 2, 0.3, 300, 1e-16, 8.740_371_415_983_557e-1),
        ]);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "side-6 sweeps take minutes without optimizations; covered by the release suite"
    )]
    fn pruned_interval_is_no_wider_than_before_absorption_side_6() {
        assert_pruned_no_wider_than_before_absorption(&[
            (6, 2, 0.125, 1 << 22, 1e-12, 3.924_975_362_085_137e-9),
            (6, 3, 0.3, 1 << 22, 1e-10, 2.352_291_387_230_920_3e-7),
            (6, 3, 0.125, 5000, 1e-16, 1.383_694_478_831_423_7e-1),
            (6, 2, 0.3, 2000, 1e-16, 8.550_015_332_662_162e-1),
        ]);
    }

    /// After the last cell every lane's unit of mass is absorbed, surviving
    /// (blocked or open) or pruned — nothing is lost and nothing counted
    /// twice, in the exact sweep, under ε-pruning and under a forced budget.
    #[test]
    fn sweep_conserves_mass_per_lane() {
        let ps = [0.05, 0.125, 0.3, 0.5, 0.77];
        let cases: [(usize, usize, usize, f64); 6] = [
            (3, 1, 1 << 22, 0.0),
            (4, 2, 1 << 22, 0.0),
            (5, 3, 1 << 22, 0.0),
            (5, 2, 1 << 22, 1e-4),
            (5, 3, 1 << 22, 1e-3),
            (5, 2, 300, 1e-16),
        ];
        for (side, k, budget, epsilon) in cases {
            let lanes = sweep_interior(side, k, &ps, budget, epsilon).unwrap();
            assert_eq!(lanes.len(), ps.len());
            for (lane, p) in lanes.iter().zip(ps) {
                let total = lane.decided + lane.tb_blocked + lane.open + lane.discarded;
                assert!(
                    (total - 1.0).abs() <= 1e-12,
                    "side={side} k={k} ε={epsilon} budget={budget} p={p}: {lane:?} sums to {total}"
                );
                assert!(lane.decided > 0.0 && lane.open > 0.0, "{lane:?}");
            }
            let pruned_mass: f64 = lanes.iter().map(|lane| lane.discarded).sum();
            assert_eq!(
                pruned_mass > 0.0,
                epsilon > 0.0,
                "side={side} k={k} ε={epsilon} budget={budget}: pruned {pruned_mass}"
            );
        }
    }

    /// `k = 1` is plain site percolation: the swept crossing probability is
    /// the enumerated probability of an open crossing.
    #[test]
    fn k1_sweep_matches_enumerated_open_crossing_probability() {
        for side in [3usize, 4] {
            let est = PercolationEstimator::new(side);
            let n = side * side;
            for p in [0.1_f64, 0.33, 0.5, 0.77] {
                let mut enumerated = 0.0;
                for mask in 0u32..(1 << n) {
                    let alive: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                    if est.has_open_crossing(&alive, Axis::LeftRight) {
                        let a = mask.count_ones() as i32;
                        enumerated += (1.0 - p).powi(a) * p.powi(n as i32 - a);
                    }
                }
                let swept = crossing_probability_exact(side, p, Axis::LeftRight, 1 << 22).unwrap();
                assert!(
                    (swept - enumerated).abs() <= 1e-12,
                    "side={side} p={p}: swept {swept} vs enumerated {enumerated}"
                );
            }
        }
    }

    #[test]
    fn pruned_with_zero_epsilon_is_bit_identical_to_exact() {
        for (side, k, p) in [(4usize, 2usize, 0.125f64), (5, 3, 0.3)] {
            let exact = mpath_crash_probability_exact(side, k, p, 1 << 22).unwrap();
            let interval = mpath_crash_probability_pruned(side, k, p, 1 << 22, 0.0).unwrap();
            assert_eq!(interval.lower.to_bits(), exact.to_bits());
            assert_eq!(interval.upper.to_bits(), exact.to_bits());
            assert_eq!(interval.width(), 0.0);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "≈7 s in release (22 s before absorption) but ~20× that without optimizations; covered by the release suite"
    )]
    fn pruned_reaches_side_7_within_width_gate() {
        // Past the exact side-6 wall with a certified enclosure far tighter
        // than 1e-9 at a paper-scale p, using the dispatch-tuned ε and a
        // state budget large enough that forced pruning never fires.
        let interval = mpath_crash_probability_pruned(7, 2, 0.125, 1 << 26, 1e-16).unwrap();
        assert!(interval.width() <= 1e-9, "width {}", interval.width());
        assert!(interval.lower >= 0.0 && interval.upper <= 1.0);
        assert!(interval.upper > 0.0);
    }

    #[test]
    #[ignore = "side-8 sweep takes minutes even in release; the gate is recorded by bench_fp in BENCH_fp.json"]
    fn pruned_reaches_side_8_within_width_gate() {
        // The tentpole claim: side 8 (n = 64, far past both the 2^25
        // enumeration limit and the exact-DP side-6 wall) with a certified
        // enclosure within the 1e-9 acceptance gate at a paper-scale p.
        let interval = mpath_crash_probability_pruned(8, 2, 0.125, 1 << 26, 1e-16).unwrap();
        assert!(interval.width() <= 1e-9, "width {}", interval.width());
        assert!(interval.lower >= 0.0 && interval.upper <= 1.0);
        assert!(interval.upper > 0.0);
    }

    #[test]
    fn pruned_grid_lanes_match_single_point_runs() {
        let ps = [0.0, 0.1, 0.25, 1.0];
        let grid = mpath_crash_probability_pruned_grid(5, 2, &ps, 1 << 22, 1e-20).unwrap();
        for (&p, iv) in ps.iter().zip(&grid) {
            let single = mpath_crash_probability_pruned(5, 2, p, 1 << 22, 1e-20).unwrap();
            assert_eq!(iv.lower.to_bits(), single.lower.to_bits(), "p={p}");
            assert_eq!(iv.upper.to_bits(), single.upper.to_bits(), "p={p}");
        }
        // Boundary lanes are analytic: exact width-0 intervals.
        assert_eq!(grid[0].lower, 0.0);
        assert_eq!(grid[0].width(), 0.0);
        assert_eq!(grid[3].upper, 1.0);
        assert_eq!(grid[3].width(), 0.0);
    }

    #[test]
    #[ignore = "pruned state-space probe for sides 8-10; run with --ignored --nocapture"]
    fn probe_pruned_state_growth() {
        for side in [8usize, 9, 10] {
            for k in [2usize, 3] {
                let start = std::time::Instant::now();
                let iv = mpath_crash_probability_pruned(
                    side,
                    k,
                    0.125,
                    8_000_000,
                    DEFAULT_PRUNE_EPSILON,
                );
                println!(
                    "side={side} k={k}: {iv:?} in {:.3}s",
                    start.elapsed().as_secs_f64()
                );
            }
        }
    }

    #[test]
    fn invalid_parameters_and_budget_give_none() {
        assert!(mpath_crash_probability_exact(0, 1, 0.1, 1 << 20).is_none());
        assert!(mpath_crash_probability_exact(4, 0, 0.1, 1 << 20).is_none());
        assert!(mpath_crash_probability_exact(4, 5, 0.1, 1 << 20).is_none());
        // A budget of 1 state cannot hold the distribution at p in (0, 1).
        assert!(mpath_crash_probability_exact(5, 2, 0.3, 1).is_none());
    }
}
