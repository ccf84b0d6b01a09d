//! Golden bits of the certified load roster and of the line pricing oracle.
//!
//! `certified_constructions(side, b)` is what `bench_load` and the
//! benchmark's load certification iterate. Every certificate's
//! load, lower bound and gap, its quorums and weights, and its round and
//! column counts are folded into one digest, so a change to a pricing
//! kernel, a hint family or the engine that moves any bit fails here even
//! where a tolerance on the load would pass. The second test pins the
//! answers of `min_price_rows_and_columns` on seeded random prices and on
//! tie-heavy integer prices, where the tie rule decides which lines win.

use byzantine_quorums::analysis::load_analysis::certified_constructions;
use byzantine_quorums::constructions::square::min_price_rows_and_columns;
use byzantine_quorums::core::load::optimal_load_oracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words, the fold `tests/load_lp_golden.rs` uses.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn indices(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x as u64);
        }
    }
}

#[test]
fn roster_certificates_keep_every_bit() {
    let mut digest = Digest::new();
    let mut certified = 0usize;
    for side in [4, 5, 6, 8, 11, 16, 24, 32] {
        for b in [1, 3, 7] {
            for sys in certified_constructions(side, b) {
                match optimal_load_oracle(sys.as_ref()) {
                    Ok(c) => {
                        certified += 1;
                        digest.float(c.load);
                        digest.float(c.lower_bound);
                        digest.float(c.gap);
                        digest.word(c.quorums.len() as u64);
                        for q in &c.quorums {
                            digest.indices(&q.to_vec());
                        }
                        for &w in c.strategy.weights() {
                            digest.float(w);
                        }
                        digest.word(c.rounds as u64);
                        digest.word(c.columns as u64);
                    }
                    // A decline is part of the answer too.
                    Err(_) => digest.word(u64::MAX),
                }
            }
        }
    }
    assert_eq!(certified, 134, "roster size");
    assert_eq!(
        digest.0, 0xc4a6_0e54_b3dc_b1e3,
        "roster digest {:#018x}",
        digest.0
    );
}

#[test]
fn line_oracle_answers_keep_every_bit() {
    let mut digest = Digest::new();
    let mut rng = StdRng::seed_from_u64(31);
    let shapes = [(1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (1, 4), (4, 1)];
    for side in 5..=16 {
        for &(rows, cols) in &shapes {
            if rows > side || cols > side {
                continue;
            }
            // Continuous prices: ties are measure-zero, the overlap sums decide.
            let random: Vec<f64> = (0..side * side).map(|_| rng.gen::<f64>()).collect();
            // Integer prices in {0, 1, 2}: many lines tie, the index rule decides.
            let ties: Vec<f64> = (0..side * side)
                .map(|_| (rng.gen::<f64>() * 3.0).floor())
                .collect();
            for prices in [&random, &ties] {
                match min_price_rows_and_columns(side, prices, rows, cols, 1 << 20) {
                    Some((r, c, price)) => {
                        digest.indices(&r);
                        digest.indices(&c);
                        digest.float(price);
                    }
                    None => digest.word(u64::MAX),
                }
            }
        }
    }
    assert_eq!(
        digest.0, 0xf8d3_7831_e403_7b77,
        "oracle digest {:#018x}",
        digest.0
    );
}
