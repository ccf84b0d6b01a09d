//! The capped blocking-path search against the Dinic max-flow it replaces as
//! the per-configuration decision: same verdict for every configuration,
//! axis and `k`, and a reused scratch never leaks one call into the next.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bqs_graph::maxflow::max_vertex_disjoint_paths;
use bqs_graph::{
    min_crossing_cost, min_crossing_cost_capped, Axis, CrossingScratch, TriangulatedGrid,
};

/// Every configuration of sides 1–4 (2¹⁶ at side 4), both axes, every cap
/// from 0 to one past the side: the capped value is the uncapped one clipped
/// at the cap, and "`≥ k`" is exactly "Dinic finds `k` disjoint crossings
/// of the other axis".
#[test]
fn capped_search_agrees_with_maxflow_on_every_small_configuration() {
    let mut scratch = CrossingScratch::default();
    for side in 1..=4usize {
        let grid = TriangulatedGrid::new(side);
        let n = grid.num_vertices();
        for mask in 0u32..(1 << n) {
            let alive: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
            for axis in [Axis::LeftRight, Axis::TopBottom] {
                let flow = max_vertex_disjoint_paths(&grid, &alive, axis.perpendicular());
                let uncapped = min_crossing_cost(&grid, &alive, axis);
                assert_eq!(uncapped, flow, "side={side} mask={mask:#b} {axis:?}");
                for k in 0..=side + 1 {
                    let capped =
                        min_crossing_cost_capped(side, |v| alive[v], axis, k, &mut scratch);
                    assert_eq!(
                        capped,
                        uncapped.min(k),
                        "side={side} mask={mask:#b} {axis:?} k={k}"
                    );
                    assert_eq!(capped >= k, flow >= k);
                }
            }
        }
    }
}

/// One scratch carried through calls of different sides, axes and caps
/// answers as a fresh scratch does.
#[test]
fn reused_scratch_answers_as_a_fresh_one() {
    let mut rng = StdRng::seed_from_u64(0x5c7a);
    let mut reused = CrossingScratch::default();
    for _ in 0..600 {
        let side = rng.gen_range_u64(1, 21) as usize;
        let p: f64 = rng.gen();
        let alive: Vec<bool> = (0..side * side).map(|_| rng.gen::<f64>() >= p).collect();
        let axis = if rng.gen::<bool>() {
            Axis::LeftRight
        } else {
            Axis::TopBottom
        };
        let cap = rng.gen_range_u64(0, side as u64 + 2) as usize;
        let fresh = min_crossing_cost_capped(
            side,
            |v| alive[v],
            axis,
            cap,
            &mut CrossingScratch::default(),
        );
        let again = min_crossing_cost_capped(side, |v| alive[v], axis, cap, &mut reused);
        assert_eq!(again, fresh, "side={side} {axis:?} cap={cap}");
        let grid = TriangulatedGrid::new(side);
        assert_eq!(fresh, min_crossing_cost(&grid, &alive, axis).min(cap));
    }
}
