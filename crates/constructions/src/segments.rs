//! The segment walk under the count kernels of Threshold and the line-quorum
//! grids ([`bqs_core::quorum::QuorumSystem::unavailable_profile_u64_range`]).
//!
//! Both kernels' predicates factor through a small summary of each half of a
//! mask: popcount alone for Threshold; fully-alive rows and the column
//! AND-fold for the grids. The `2^lo_bits` masks of an aligned segment share
//! their high half, so the segment's whole contribution to the profile is
//! one row of counts indexed by the low half's popcount — a join of per-half
//! histograms, not `2^lo_bits` table probes.

/// Adds one to `profile[popcount(m)]` for every unavailable mask `m` in
/// `start..end`, walking the range by aligned segments of `2^lo_bits` masks.
///
/// A segment wholly inside the range is handed to `add_segment(base, row)`,
/// which adds the segment's unavailable counts by low popcount:
/// `row[k]` is `profile[popcount(base) + k]`, for `k` in `0..=lo_bits`. The
/// masks of a segment the range cuts (its unaligned edges) are tested one by
/// one with `unavailable`. Segment ends are computed without overflow, so the
/// last segment of the `u64` space, which ends at `2^64`, is one the range
/// always cuts.
pub(crate) fn unavailable_profile_by_segments(
    start: u64,
    end: u64,
    lo_bits: u32,
    profile: &mut [u64],
    mut add_segment: impl FnMut(u64, &mut [u64]),
    mut unavailable: impl FnMut(u64) -> bool,
) {
    debug_assert!(lo_bits < 64);
    let len = 1u64 << lo_bits;
    let mut m = start;
    while m < end {
        let base = m & !(len - 1);
        let seg_end = base.checked_add(len);
        let stop = seg_end.map_or(end, |e| e.min(end));
        if m == base && seg_end == Some(stop) {
            let high = base.count_ones() as usize;
            add_segment(base, &mut profile[high..=high + lo_bits as usize]);
        } else {
            for mask in m..stop {
                profile[mask.count_ones() as usize] += u64::from(unavailable(mask));
            }
        }
        m = stop;
    }
}
