//! Dinic's max-flow and vertex-disjoint path counting.
//!
//! By Menger's theorem, the maximum number of vertex-disjoint paths between two
//! vertex sets equals the max flow of the unit-capacity network obtained by splitting
//! each vertex `v` into `v_in → v_out` with capacity 1. This is how the library
//! *extracts* the paths of an M-Path quorum ([`crate::disjoint_paths`]). Whether a
//! configuration holds `√(2b+1)` disjoint crossings at all — availability, quorum
//! verification, every percolation trial — is decided without a network, by the capped
//! blocking-path search of [`crate::crossing_dp::min_crossing_cost_capped`]; the tests
//! hold that search to the flow values computed here, configuration by configuration.

use crate::grid::{Axis, TriangulatedGrid};

/// A directed edge in the flow network.
#[derive(Debug, Clone)]
struct FlowEdge {
    to: usize,
    cap: i64,
    /// Capacity the edge was created with (0 for residual reverse edges).
    original_cap: i64,
    /// Index of the reverse edge in `graph[to]`.
    rev: usize,
}

/// A unit/integer-capacity flow network solved with Dinic's algorithm.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    graph: Vec<Vec<FlowEdge>>,
}

impl FlowNetwork {
    /// Creates a network with `n` nodes and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            graph: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Returns true if the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Adds a directed edge `from → to` with the given capacity (and a zero-capacity
    /// reverse edge).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64) {
        assert!(from < self.graph.len() && to < self.graph.len());
        let rev_from = self.graph[to].len();
        let rev_to = self.graph[from].len();
        self.graph[from].push(FlowEdge {
            to,
            cap,
            original_cap: cap,
            rev: rev_from,
        });
        self.graph[to].push(FlowEdge {
            to: from,
            cap: 0,
            original_cap: 0,
            rev: rev_to,
        });
    }

    /// Computes the maximum flow from `source` to `sink` (Dinic's algorithm).
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let n = self.graph.len();
        let mut flow = 0i64;
        loop {
            // BFS to build the level graph.
            let mut level = vec![usize::MAX; n];
            level[source] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(source);
            while let Some(v) = queue.pop_front() {
                for e in &self.graph[v] {
                    if e.cap > 0 && level[e.to] == usize::MAX {
                        level[e.to] = level[v] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[sink] == usize::MAX {
                return flow;
            }
            // DFS blocking flow.
            let mut iter = vec![0usize; n];
            loop {
                let f = self.dfs(source, sink, i64::MAX, &level, &mut iter);
                if f == 0 {
                    break;
                }
                flow += f;
            }
        }
    }

    fn dfs(
        &mut self,
        v: usize,
        sink: usize,
        pushed: i64,
        level: &[usize],
        iter: &mut [usize],
    ) -> i64 {
        if v == sink {
            return pushed;
        }
        while iter[v] < self.graph[v].len() {
            let (to, cap, rev) = {
                let e = &self.graph[v][iter[v]];
                (e.to, e.cap, e.rev)
            };
            if cap > 0 && level[v] + 1 == level[to] {
                let d = self.dfs(to, sink, pushed.min(cap), level, iter);
                if d > 0 {
                    self.graph[v][iter[v]].cap -= d;
                    self.graph[to][rev].cap += d;
                    return d;
                }
            }
            iter[v] += 1;
        }
        0
    }

    /// Returns, for each node, the outgoing edges with positive flow (i.e. edges whose
    /// residual reverse capacity is positive). Used by path extraction.
    #[must_use]
    pub fn flow_edges(&self) -> Vec<Vec<(usize, i64)>> {
        let mut out = vec![Vec::new(); self.graph.len()];
        for (v, edges) in self.graph.iter().enumerate() {
            for e in edges {
                // Only original (forward) edges carry flow; the flow they carry is the
                // capacity consumed so far.
                let flow_on_edge = e.original_cap - e.cap;
                if e.original_cap > 0 && flow_on_edge > 0 {
                    out[v].push((e.to, flow_on_edge));
                }
            }
        }
        out
    }
}

/// Builds the node-split flow network for vertex-disjoint crossings of `grid` along
/// `axis`, restricted to the `alive` vertices, and returns `(network, source, sink)`.
///
/// Node `v` becomes `v_in = 2v`, `v_out = 2v + 1` with capacity-1 internal edge; the
/// super-source is `2n` and super-sink `2n + 1`.
#[must_use]
pub fn build_disjoint_path_network(
    grid: &TriangulatedGrid,
    alive: &[bool],
    axis: Axis,
) -> (FlowNetwork, usize, usize) {
    let n = grid.num_vertices();
    assert_eq!(alive.len(), n, "alive mask must cover every vertex");
    let source = 2 * n;
    let sink = 2 * n + 1;
    let mut net = FlowNetwork::new(2 * n + 2);
    for (v, &ok) in alive.iter().enumerate() {
        if ok {
            net.add_edge(2 * v, 2 * v + 1, 1);
        }
    }
    for v in 0..n {
        if !alive[v] {
            continue;
        }
        for u in grid.neighbors(v) {
            if alive[u] {
                // Undirected adjacency: allow flow in both directions between the
                // split nodes.
                net.add_edge(2 * v + 1, 2 * u, 1);
            }
        }
    }
    for s in grid.sources(axis) {
        if alive[s] {
            net.add_edge(source, 2 * s, 1);
        }
    }
    for t in grid.sinks(axis) {
        if alive[t] {
            net.add_edge(2 * t + 1, sink, 1);
        }
    }
    (net, source, sink)
}

/// Maximum number of vertex-disjoint crossings of `grid` along `axis` using only the
/// `alive` vertices.
#[must_use]
pub fn max_vertex_disjoint_paths(grid: &TriangulatedGrid, alive: &[bool], axis: Axis) -> usize {
    let (mut net, source, sink) = build_disjoint_path_network(grid, alive, axis);
    net.max_flow(source, sink) as usize
}

/// Maximum number of vertex-disjoint left-right crossings (convenience wrapper).
#[must_use]
pub fn max_vertex_disjoint_lr_paths(grid: &TriangulatedGrid, alive: &[bool]) -> usize {
    max_vertex_disjoint_paths(grid, alive, Axis::LeftRight)
}

/// Maximum number of vertex-disjoint top-bottom crossings (convenience wrapper).
#[must_use]
pub fn max_vertex_disjoint_tb_paths(grid: &TriangulatedGrid, alive: &[bool]) -> usize {
    max_vertex_disjoint_paths(grid, alive, Axis::TopBottom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_network_max_flow() {
        // s -> a -> t and s -> b -> t, unit capacities: flow 2.
        let mut net = FlowNetwork::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        net.add_edge(s, a, 1);
        net.add_edge(s, b, 1);
        net.add_edge(a, t, 1);
        net.add_edge(b, t, 1);
        assert_eq!(net.max_flow(s, t), 2);
    }

    #[test]
    fn bottleneck_respected() {
        // s -> a (cap 5), a -> t (cap 3): flow 3.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 5);
        net.add_edge(1, 2, 3);
        assert_eq!(net.max_flow(0, 2), 3);
    }

    #[test]
    fn classic_flow_instance() {
        // A standard 6-node instance with known max flow 23.
        let mut net = FlowNetwork::new(6);
        let edges = [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ];
        for (u, v, c) in edges {
            net.add_edge(u, v, c);
        }
        assert_eq!(net.max_flow(0, 5), 23);
    }

    #[test]
    fn full_grid_has_side_many_disjoint_paths() {
        for side in [2usize, 3, 5, 8] {
            let g = TriangulatedGrid::new(side);
            let alive = vec![true; g.num_vertices()];
            assert_eq!(max_vertex_disjoint_lr_paths(&g, &alive), side);
            assert_eq!(max_vertex_disjoint_tb_paths(&g, &alive), side);
        }
    }

    #[test]
    fn dead_row_blocks_tb_paths_only_partially() {
        // Killing one full row severs every TB column... but NOT the LR paths in the
        // other rows. Killing a full row actually blocks all TB crossings.
        let g = TriangulatedGrid::new(4);
        let mut alive = vec![true; g.num_vertices()];
        for c in 0..4 {
            alive[g.index(2, c)] = false;
        }
        assert_eq!(max_vertex_disjoint_tb_paths(&g, &alive), 0);
        // Rows 0, 1, 3 still cross left-right.
        assert_eq!(max_vertex_disjoint_lr_paths(&g, &alive), 3);
    }

    #[test]
    fn dead_column_blocks_lr_paths() {
        let g = TriangulatedGrid::new(4);
        let mut alive = vec![true; g.num_vertices()];
        for r in 0..4 {
            alive[g.index(r, 1)] = false;
        }
        assert_eq!(max_vertex_disjoint_lr_paths(&g, &alive), 0);
        assert_eq!(max_vertex_disjoint_tb_paths(&g, &alive), 3);
    }

    #[test]
    fn single_alive_row_gives_one_lr_path() {
        let g = TriangulatedGrid::new(5);
        let mut alive = vec![false; g.num_vertices()];
        for c in 0..5 {
            alive[g.index(2, c)] = true;
        }
        assert_eq!(max_vertex_disjoint_lr_paths(&g, &alive), 1);
        assert_eq!(max_vertex_disjoint_tb_paths(&g, &alive), 0);
    }

    #[test]
    fn scattered_failures_reduce_crossings() {
        // Diagonal failures on a 3x3 grid: (0,0), (1,1), (2,2) dead. In the
        // triangulated grid, LR crossings survive via the anti-diagonal edges,
        // but strictly fewer than 3 disjoint crossings remain.
        let g = TriangulatedGrid::new(3);
        let mut alive = vec![true; g.num_vertices()];
        alive[g.index(0, 0)] = false;
        alive[g.index(1, 1)] = false;
        alive[g.index(2, 2)] = false;
        let lr = max_vertex_disjoint_lr_paths(&g, &alive);
        assert!(lr >= 1, "anti-diagonal edges keep at least one crossing");
        assert!(lr <= 2);
    }

    #[test]
    fn flow_edges_reports_positive_flow_only() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 2);
        net.add_edge(1, 2, 1);
        let f = net.max_flow(0, 2);
        assert_eq!(f, 1);
        let fe = net.flow_edges();
        assert_eq!(fe[0], vec![(1, 1)]);
        assert_eq!(fe[1], vec![(2, 1)]);
        assert!(fe[2].is_empty());
    }
}
