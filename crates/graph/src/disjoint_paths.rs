//! Vertex-disjoint crossings of the triangulated grid: the one path kernel.
//!
//! [`min_cost_crossings`] finds `k` vertex-disjoint crossings of least total
//! vertex price by successive shortest paths on the node-split network
//! (Menger: vertex `v` becomes `v_in → v_out` with capacity 1 and its price as
//! cost). It serves every job that needs the paths themselves or their price:
//!
//! * price 1 on the alive vertices and `∞` on the dead extracts the `k`
//!   crossings of an M-Path quorum with the fewest servers;
//! * general non-negative prices give the least price of `k` disjoint
//!   crossings, which lower-bounds the price of any M-Path quorum;
//! * `k = 1` is the cheapest single crossing.
//!
//! Whether `k` disjoint crossings exist at all is decided without a network by
//! the capped blocking-path search
//! [`crate::crossing_dp::min_crossing_cost_capped`]; the tests hold the
//! kernel's path count to that search configuration by configuration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::grid::{Axis, TriangulatedGrid};

/// One arc of the node-split residual network. `cap` is 1 on a network arc
/// and 0 on its reverse; `flow` is antisymmetric between the two.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: usize,
    rev: usize,
    cap: i8,
    flow: i8,
    cost: f64,
}

fn add_arc(net: &mut [Vec<Arc>], from: usize, to: usize, cost: f64) {
    let (rev_from, rev_to) = (net[to].len(), net[from].len());
    net[from].push(Arc {
        to,
        rev: rev_from,
        cap: 1,
        flow: 0,
        cost,
    });
    net[to].push(Arc {
        to: from,
        rev: rev_to,
        cap: 0,
        flow: 0,
        cost: -cost,
    });
}

/// At most `k` vertex-disjoint crossings of `grid` along `axis` whose total
/// vertex price is least among all sets of that many; each path runs from
/// the source side to the sink side and pays every vertex it visits.
/// `f64::INFINITY` marks a vertex no path may use. Fewer than `k` paths come
/// back only when fewer disjoint crossings of usable vertices exist.
///
/// Successive shortest paths: each augmentation is one Dijkstra over reduced
/// costs under Johnson potentials, which keep every residual arc's reduced
/// cost non-negative (a reduced cost that rounds below 0 counts as 0).
///
/// # Panics
///
/// Panics if `prices.len()` differs from the vertex count or a price is
/// negative or NaN.
#[must_use]
pub fn min_cost_crossings(
    grid: &TriangulatedGrid,
    prices: &[f64],
    axis: Axis,
    k: usize,
) -> Vec<Vec<usize>> {
    let n = grid.num_vertices();
    assert_eq!(prices.len(), n, "one price per vertex required");
    assert!(
        prices.iter().all(|&p| p >= 0.0),
        "prices must be non-negative"
    );
    // `v_in = 2v`, `v_out = 2v + 1`, then the super-source and super-sink.
    let (source, sink) = (2 * n, 2 * n + 1);
    let usable = |v: usize| prices[v] < f64::INFINITY;
    let mut net: Vec<Vec<Arc>> = vec![Vec::new(); 2 * n + 2];
    for v in (0..n).filter(|&v| usable(v)) {
        add_arc(&mut net, 2 * v, 2 * v + 1, prices[v]);
        for u in grid.neighbors(v).into_iter().filter(|&u| usable(u)) {
            add_arc(&mut net, 2 * v + 1, 2 * u, 0.0);
        }
    }
    for s in grid.sources(axis).into_iter().filter(|&s| usable(s)) {
        add_arc(&mut net, source, 2 * s, 0.0);
    }
    for t in grid.sinks(axis).into_iter().filter(|&t| usable(t)) {
        add_arc(&mut net, 2 * t + 1, sink, 0.0);
    }

    let mut potential = vec![0.0; net.len()];
    let mut dist = vec![f64::INFINITY; net.len()];
    // The arc each node was last reached by: `(from, index in net[from])`.
    let mut via = vec![(source, 0); net.len()];
    // Non-negative f64s order like their bit patterns.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for _ in 0..k {
        dist.fill(f64::INFINITY);
        dist[source] = 0.0;
        heap.push(Reverse((0.0_f64.to_bits(), source)));
        while let Some(Reverse((bits, v))) = heap.pop() {
            let d = f64::from_bits(bits);
            if d > dist[v] {
                continue;
            }
            for (i, arc) in net[v].iter().enumerate() {
                if arc.flow == arc.cap {
                    continue;
                }
                let reduced = (arc.cost + potential[v] - potential[arc.to]).max(0.0);
                if d + reduced < dist[arc.to] {
                    dist[arc.to] = d + reduced;
                    via[arc.to] = (v, i);
                    heap.push(Reverse(((d + reduced).to_bits(), arc.to)));
                }
            }
        }
        let reach = dist[sink];
        if reach == f64::INFINITY {
            break;
        }
        // Capping at the sink's distance keeps the reduced costs of arcs out
        // of unreached nodes non-negative too.
        for (pi, &d) in potential.iter_mut().zip(&dist) {
            *pi += d.min(reach);
        }
        let mut v = sink;
        while v != source {
            let (u, i) = via[v];
            net[u][i].flow += 1;
            let rev = net[u][i].rev;
            net[v][rev].flow -= 1;
            v = u;
        }
    }

    // Every unit leaving the source reaches the sink along the one flow arc
    // out of each node it enters: a vertex carries at most one unit.
    net[source]
        .iter()
        .filter(|arc| arc.flow == 1)
        .map(|first| {
            let mut path = Vec::new();
            let mut node = first.to;
            while node != sink {
                if node % 2 == 0 {
                    path.push(node / 2);
                }
                node = net[node]
                    .iter()
                    .find(|arc| arc.flow == 1)
                    .expect("flow enters a node it does not leave")
                    .to;
            }
            path
        })
        .collect()
}

/// Greedily selects `want` *straight* disjoint lines (rows for LR, columns for TB)
/// whose vertices are all alive. This is the access pattern of the optimal-load
/// strategy in Proposition 7.2; it is cheaper than [`min_cost_crossings`] but only
/// succeeds when enough fully-alive straight lines exist.
#[must_use]
pub fn find_straight_disjoint_paths(
    grid: &TriangulatedGrid,
    alive: &[bool],
    axis: Axis,
    want: usize,
) -> Vec<Vec<usize>> {
    let mut paths = Vec::new();
    for i in 0..grid.side() {
        if paths.len() == want {
            break;
        }
        let line = grid.straight_path(axis, i);
        if line.iter().all(|&v| alive[v]) {
            paths.push(line);
        }
    }
    paths
}

/// Checks that the given paths are pairwise vertex-disjoint valid crossings of `axis`.
#[must_use]
pub fn are_disjoint_crossings(grid: &TriangulatedGrid, axis: Axis, paths: &[Vec<usize>]) -> bool {
    let mut seen = vec![false; grid.num_vertices()];
    for p in paths {
        if !grid.is_crossing_path(axis, p) {
            return false;
        }
        for &v in p {
            if seen[v] {
                return false;
            }
            seen[v] = true;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Price 0 on `alive`, `∞` elsewhere.
    fn alive_prices(alive: &[bool]) -> Vec<f64> {
        alive
            .iter()
            .map(|&a| if a { 0.0 } else { f64::INFINITY })
            .collect()
    }

    fn total_price(paths: &[Vec<usize>], prices: &[f64]) -> f64 {
        paths.iter().flatten().map(|&v| prices[v]).sum()
    }

    #[test]
    fn one_crossing_on_uniform_prices_costs_a_straight_line() {
        // Every crossing visits at least `side` vertices, and the straight
        // lines achieve exactly that.
        let g = TriangulatedGrid::new(6);
        let prices = vec![0.25; 36];
        for axis in [Axis::LeftRight, Axis::TopBottom] {
            let paths = min_cost_crossings(&g, &prices, axis, 1);
            assert_eq!(paths.len(), 1);
            assert!((total_price(&paths, &prices) - 6.0 * 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn cheapest_crossing_detours_around_expensive_cells() {
        // Row 1 is nearly free except its middle: the cheapest LR crossing
        // weaves through the cheap cells.
        let g = TriangulatedGrid::new(4);
        let mut prices = vec![1.0; 16];
        for c in 0..4 {
            prices[g.index(1, c)] = 0.01;
        }
        prices[g.index(1, 2)] = 5.0;
        let paths = min_cost_crossings(&g, &prices, Axis::LeftRight, 1);
        let v = total_price(&paths, &prices);
        // Cheap cells + one detour vertex beats both the straight cheap row
        // (0.03 + 5) and a fully expensive row (4.0).
        assert!((0.03..4.0).contains(&v), "v={v}");
        assert!(are_disjoint_crossings(&g, Axis::LeftRight, &paths));
    }

    #[test]
    fn full_grid_has_side_many_disjoint_crossings() {
        for side in [1usize, 2, 3, 5, 8] {
            let g = TriangulatedGrid::new(side);
            let prices = vec![1.0; g.num_vertices()];
            for axis in [Axis::LeftRight, Axis::TopBottom] {
                let paths = min_cost_crossings(&g, &prices, axis, side + 1);
                assert_eq!(paths.len(), side);
                assert!(are_disjoint_crossings(&g, axis, &paths));
                // The straight lines are the only way to fit `side` of them.
                assert_eq!(total_price(&paths, &prices), (side * side) as f64);
            }
        }
    }

    #[test]
    fn extracts_requested_number_on_full_grid() {
        let g = TriangulatedGrid::new(6);
        let prices = vec![0.0; g.num_vertices()];
        for want in [0usize, 1, 2, 4, 6] {
            let paths = min_cost_crossings(&g, &prices, Axis::LeftRight, want);
            assert_eq!(paths.len(), want);
            assert!(are_disjoint_crossings(&g, Axis::LeftRight, &paths));
        }
    }

    #[test]
    fn respects_availability_limit() {
        let g = TriangulatedGrid::new(4);
        let mut alive = vec![true; g.num_vertices()];
        // Kill two full rows: at most 2 disjoint LR crossings remain, and
        // no TB crossing.
        for c in 0..4 {
            alive[g.index(1, c)] = false;
            alive[g.index(3, c)] = false;
        }
        let prices = alive_prices(&alive);
        let paths = min_cost_crossings(&g, &prices, Axis::LeftRight, 4);
        assert_eq!(paths.len(), 2);
        assert!(are_disjoint_crossings(&g, Axis::LeftRight, &paths));
        assert!(paths.iter().flatten().all(|&v| alive[v]));
        assert!(min_cost_crossings(&g, &prices, Axis::TopBottom, 1).is_empty());
    }

    #[test]
    fn returns_empty_when_no_crossing_exists() {
        let g = TriangulatedGrid::new(3);
        let mut alive = vec![true; g.num_vertices()];
        for r in 0..3 {
            alive[g.index(r, 1)] = false; // middle column dead severs LR
        }
        let prices = alive_prices(&alive);
        assert!(min_cost_crossings(&g, &prices, Axis::LeftRight, 2).is_empty());
        assert_eq!(min_cost_crossings(&g, &prices, Axis::TopBottom, 3).len(), 2);
    }

    #[test]
    fn anti_diagonal_edges_keep_crossings_past_a_dead_diagonal() {
        // (0,0), (1,1), (2,2) dead on a 3x3 grid: crossings survive through
        // the anti-diagonal edges, but strictly fewer than 3.
        let g = TriangulatedGrid::new(3);
        let mut alive = vec![true; g.num_vertices()];
        for i in 0..3 {
            alive[g.index(i, i)] = false;
        }
        let lr = min_cost_crossings(&g, &alive_prices(&alive), Axis::LeftRight, 3);
        assert!((1..=2).contains(&lr.len()), "{lr:?}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_prices_are_rejected() {
        let g = TriangulatedGrid::new(2);
        let _ = min_cost_crossings(&g, &[0.0, -1.0, 0.0, 0.0], Axis::LeftRight, 1);
    }

    #[test]
    fn straight_paths_selected_when_alive() {
        let g = TriangulatedGrid::new(5);
        let mut alive = vec![true; g.num_vertices()];
        alive[g.index(2, 3)] = false; // row 2 unusable as a straight path
        let paths = find_straight_disjoint_paths(&g, &alive, Axis::LeftRight, 3);
        assert_eq!(paths.len(), 3);
        assert!(are_disjoint_crossings(&g, Axis::LeftRight, &paths));
        assert!(paths.iter().all(|p| !p.contains(&g.index(2, 3))));
    }

    #[test]
    fn straight_paths_fall_short_when_not_enough_lines() {
        let g = TriangulatedGrid::new(3);
        let mut alive = vec![true; g.num_vertices()];
        alive[g.index(0, 0)] = false;
        alive[g.index(1, 1)] = false;
        // Only row 2 remains fully alive.
        let paths = find_straight_disjoint_paths(&g, &alive, Axis::LeftRight, 3);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn disjointness_checker_detects_overlap() {
        let g = TriangulatedGrid::new(3);
        let p0 = g.straight_path(Axis::LeftRight, 0);
        let overlapping = vec![p0.clone(), p0];
        assert!(!are_disjoint_crossings(&g, Axis::LeftRight, &overlapping));
    }
}
