//! Golden bits of the explicit load LP (`optimal_load`) on the four quorum
//! lists the `exact_load_lp` criterion bench times.
//!
//! The dense simplex's pivot path decides every bit of the load and of the
//! strategy, so pinning them pins the path: a change to pricing, pivoting or
//! how the LP is built that takes a different path fails here, even where a
//! tolerance on the load would pass.

use byzantine_quorums::core::load::optimal_load;
use byzantine_quorums::prelude::*;

/// FNV-1a over the weights' bit patterns, in strategy order.
fn weight_bits_hash(strategy: &AccessStrategy) -> u64 {
    strategy
        .weights()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn explicit_load_lp_returns_the_recorded_bits() {
    // (name, list, load bits, weight-bits hash, quorum count)
    let cases: Vec<(&str, ExplicitQuorumSystem, u64, u64, usize)> = vec![
        (
            "threshold 7-of-9",
            ThresholdSystem::minimal_masking(2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
            0x3fe8_e38e_38e3_8e39,
            0x1a79_09dd_968a_3718,
            36,
        ),
        (
            "M-Grid(5, 2)",
            MGridSystem::new(5, 2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
            0x3fe4_7ae1_47ae_147a,
            0x5b5a_de8c_040d_7b03,
            100,
        ),
        (
            "RT(4, 3) depth 2",
            RtSystem::new(4, 3, 2)
                .unwrap()
                .to_explicit(100_000)
                .unwrap(),
            0x3fe2_0000_0000_0001,
            0xd60c_fd09_dd17_7d88,
            256,
        ),
        (
            "FPP(4)",
            FppSystem::new(4).unwrap().to_explicit().unwrap(),
            0x3fce_79e7_9e79_e7a0,
            0x2042_d251_ddae_7d61,
            21,
        ),
    ];
    for (name, system, load_bits, weights_hash, quorums) in cases {
        let (load, strategy) = optimal_load(system.quorums(), system.universe_size()).unwrap();
        assert_eq!(strategy.len(), quorums, "{name}");
        assert_eq!(load.to_bits(), load_bits, "{name}: load {load}");
        assert_eq!(
            weight_bits_hash(&strategy),
            weights_hash,
            "{name}: weights {:?}",
            strategy.weights()
        );
    }
}
