//! Empirical tuning probe for the ε-pruned M-Path sweep in the ε-dominated
//! regime: budget large enough that forced pruning stays quiet, so interval
//! width is governed by the mass floor ε alone. Sizes
//! `PRUNED_DP_STATE_BUDGET` and the side-8 width gate.
//!
//! Run with: cargo run --release -p bqs-graph --example prune_probe

use bqs_graph::crossing_dp::mpath_crash_probability;

fn main() {
    let p = 0.125;
    let budget = 1usize << 26;
    for &(side, k) in &[(8usize, 2usize), (9, 3), (10, 4)] {
        for &eps in &[1e-12f64, 1e-15, 1e-18] {
            let t = std::time::Instant::now();
            let iv = mpath_crash_probability(side, k, &[p], budget, eps);
            let dt = t.elapsed().as_secs_f64();
            match iv.as_deref() {
                Some([iv]) => println!(
                    "side={side} k={k} eps={eps:.0e}: F_p in [{:.6e}, {:.6e}] width={:.3e} in {dt:.2}s",
                    iv.lower,
                    iv.upper,
                    iv.width()
                ),
                _ => println!("side={side} k={k} eps={eps:.0e}: DECLINED in {dt:.2}s"),
            }
        }
    }
}
