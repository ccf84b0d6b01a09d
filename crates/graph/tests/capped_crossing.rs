//! The two path algorithms of `bqs-graph` against each other and against
//! brute force, on every configuration of sides 1–4: the capped
//! blocking-path search that decides availability, and the successive
//! shortest paths kernel that extracts and prices crossings. Flow value
//! against blocking-path cost is the self-matching duality; a reused scratch
//! never leaks one call into the next.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bqs_graph::disjoint_paths::are_disjoint_crossings;
use bqs_graph::{
    min_cost_crossings, min_crossing_cost, min_crossing_cost_capped, Axis, CrossingScratch,
    TriangulatedGrid,
};

const AXES: [Axis; 2] = [Axis::LeftRight, Axis::TopBottom];

/// `price` on the alive vertices and `∞` on the dead ones.
fn alive_prices(alive: &[bool], price: f64) -> Vec<f64> {
    alive
        .iter()
        .map(|&a| if a { price } else { f64::INFINITY })
        .collect()
}

fn mask_bits(mask: usize, n: usize) -> Vec<bool> {
    (0..n).map(|v| mask >> v & 1 == 1).collect()
}

/// The kernel's paths are `want` disjoint crossings of usable vertices;
/// returns their total price.
fn checked_total(
    grid: &TriangulatedGrid,
    prices: &[f64],
    axis: Axis,
    k: usize,
    want: usize,
) -> f64 {
    let paths = min_cost_crossings(grid, prices, axis, k);
    assert_eq!(paths.len(), want, "{axis:?} k={k} prices={prices:?}");
    assert!(are_disjoint_crossings(grid, axis, &paths), "{paths:?}");
    let total: f64 = paths.iter().flatten().map(|&v| prices[v]).sum();
    assert!(total.is_finite(), "{paths:?}");
    total
}

/// Every configuration of sides 1–4 (2¹⁶ at side 4), both axes, every cap
/// from 0 to one past the side: the uncapped blocking cost is the number of
/// disjoint crossings of the other axis the kernel finds at zero prices (the
/// duality), and the capped value is the uncapped one clipped at the cap.
#[test]
fn capped_search_agrees_with_maxflow_on_every_small_configuration() {
    let mut scratch = CrossingScratch::default();
    for side in 1..=4usize {
        let grid = TriangulatedGrid::new(side);
        let n = grid.num_vertices();
        for mask in 0..1usize << n {
            let alive = mask_bits(mask, n);
            let prices = alive_prices(&alive, 0.0);
            for axis in AXES {
                let uncapped = min_crossing_cost(&grid, &alive, axis);
                let flow_price =
                    checked_total(&grid, &prices, axis.perpendicular(), side + 1, uncapped);
                assert_eq!(flow_price, 0.0);
                for k in 0..=side + 1 {
                    let capped =
                        min_crossing_cost_capped(side, |v| alive[v], axis, k, &mut scratch);
                    assert_eq!(
                        capped,
                        uncapped.min(k),
                        "side={side} mask={mask:#b} {axis:?} k={k}"
                    );
                }
            }
        }
    }
}

/// `flows[axis][mask]`: the number of disjoint crossings of `mask` along
/// `axis`, by the capped search on the perpendicular axis (the duality
/// pinned above).
fn flow_table(side: usize) -> [Vec<usize>; 2] {
    let n = side * side;
    let grid = TriangulatedGrid::new(side);
    AXES.map(|axis| {
        (0..1usize << n)
            .map(|mask| min_crossing_cost(&grid, &mask_bits(mask, n), axis.perpendicular()))
            .collect()
    })
}

/// The exhaustive kernel test. For sides 1–4, both axes and every `k` in
/// `0..=side + 1`:
///
/// * every configuration, with price 1 on its alive vertices and `∞` on the
///   dead (zero prices are the test above): the kernel returns
///   `min(k, flow)` disjoint crossings of alive vertices, and when that is
///   `k` their total size is the least size of an alive subset holding `k`
///   disjoint crossings;
/// * seeded random prices, with and without `∞` entries: the total price is
///   the least `price(S)` over all configurations `S` that hold `k` disjoint
///   crossings.
///
/// "Holds `k` disjoint crossings" is decided by the capped search, never by
/// the kernel.
#[test]
fn min_cost_crossings_is_optimal_on_every_small_configuration() {
    let mut rng = StdRng::seed_from_u64(0x55f0);
    for side in 1..=4usize {
        let grid = TriangulatedGrid::new(side);
        let n = grid.num_vertices();
        let flows = flow_table(side);
        for (axis, flow) in AXES.into_iter().zip(&flows) {
            for k in 0..=side + 1 {
                // `least[a]`: the fewest vertices of a subset of `a` that holds
                // `k` crossings (`usize::MAX` if none does), by a subset-min
                // pass over the masks.
                let mut least: Vec<usize> = (0..1usize << n)
                    .map(|s| {
                        if flow[s] >= k {
                            s.count_ones() as usize
                        } else {
                            usize::MAX
                        }
                    })
                    .collect();
                for bit in 0..n {
                    for s in 0..1usize << n {
                        if s >> bit & 1 == 1 {
                            least[s] = least[s].min(least[s ^ 1 << bit]);
                        }
                    }
                }
                for mask in 0..1usize << n {
                    let alive = mask_bits(mask, n);
                    let want = flow[mask].min(k);
                    let size = checked_total(&grid, &alive_prices(&alive, 1.0), axis, k, want);
                    if want == k {
                        assert_eq!(
                            size, least[mask] as f64,
                            "side={side} {axis:?} k={k} {mask:#b}"
                        );
                    } else {
                        assert_eq!(least[mask], usize::MAX);
                    }
                }
                for round in 0..24 {
                    let prices: Vec<f64> = (0..n)
                        .map(|_| {
                            if round % 2 == 1 && rng.gen::<f64>() < 0.25 {
                                f64::INFINITY
                            } else {
                                rng.gen()
                            }
                        })
                        .collect();
                    // `price[s]`, built from `s` without its lowest bit.
                    let mut price = vec![0.0; 1 << n];
                    for s in 1..1usize << n {
                        let low = s.trailing_zeros() as usize;
                        price[s] = price[s & (s - 1)] + prices[low];
                    }
                    let best = (0..1usize << n)
                        .filter(|&s| flow[s] >= k)
                        .map(|s| price[s])
                        .fold(f64::INFINITY, f64::min);
                    let usable = (0..n)
                        .filter(|&v| prices[v].is_finite())
                        .fold(0, |m, v| m | 1 << v);
                    let want = flow[usable].min(k);
                    let total = checked_total(&grid, &prices, axis, k, want);
                    if want == k {
                        assert!(
                            (total - best).abs() <= 1e-9,
                            "side={side} {axis:?} k={k} round={round}: {total} vs {best}"
                        );
                    } else {
                        assert_eq!(best, f64::INFINITY);
                    }
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
