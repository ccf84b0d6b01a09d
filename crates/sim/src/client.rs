//! The client-side rules of the masking-quorum read/write register (\[MR98a\]).
//!
//! * **Write(v)** — pick a quorum, send `(ts, v)` with a fresh timestamp to every
//!   server in it.
//! * **Read()** — pick a quorum, collect each server's `(ts, v)` reply, keep only the
//!   pairs reported by at least `b + 1` servers (the *safe* set), and return the
//!   value with the highest timestamp among them.
//!
//! Because any read quorum intersects any write quorum in at least `2b + 1` servers
//! (Definition 3.5), at least `b + 1` *correct* servers in the intersection hold the
//! latest completed write, so its pair is always safe; and any pair fabricated by the
//! at most `b` Byzantine servers appears at most `b` times, so it never is. Under
//! failures the client selects its quorum among the servers its failure detector
//! considers responsive, using [`QuorumSystem::find_live_quorum`].
//!
//! This module holds the two decisions every client shell shares — which
//! quorum to address ([`choose_access_quorum`]) and which reply wins
//! ([`resolve_read`]) — and the errors they surface. The clients themselves
//! (message passing, deadlines, retries, timestamps) live in `bqs-service`.

use rand::Rng;

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;

use crate::server::Entry;

/// Errors surfaced by the protocol client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// No quorum consists entirely of responsive servers; the operation cannot make
    /// progress (availability loss, not a safety violation).
    NoLiveQuorum,
    /// Every member voted but the votes establish nothing: a read where fewer than
    /// `b + 1` servers agreed on any pair, or a write some member answered without
    /// echoing the entry (a no-answer), which did not complete. A write completes
    /// only when every member of its quorum stored it, so with a correct quorum
    /// system and at most `b` Byzantine servers a read can end here only before the
    /// first write completes or while writes run concurrently.
    NoSafeValue,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::NoLiveQuorum => write!(f, "no quorum of responsive servers exists"),
            ProtocolError::NoSafeValue => {
                write!(f, "no value was reported by at least b+1 servers")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Chooses an access quorum against a failure detector's `responsive` view: a
/// sampled quorum when every member is responsive (the fast path that realises
/// the access strategy's load profile), retrying the sample a few times under
/// sporadic failures, and falling back to deterministic live-quorum discovery
/// only when sampling repeatedly fails.
///
/// This is the one quorum-selection policy of every protocol shell:
/// `bqs-service`'s closed-loop and open-loop clients.
///
/// # Errors
///
/// Returns [`ProtocolError::NoLiveQuorum`] when no quorum consists entirely of
/// responsive servers.
pub fn choose_access_quorum<Q, R>(
    system: &Q,
    responsive: &ServerSet,
    rng: &mut R,
) -> Result<ServerSet, ProtocolError>
where
    Q: QuorumSystem + ?Sized,
    R: Rng,
{
    const SAMPLE_ATTEMPTS: usize = 8;
    for _ in 0..SAMPLE_ATTEMPTS {
        let sampled = system.sample_quorum(rng);
        if sampled.is_subset_of(responsive) {
            return Ok(sampled);
        }
    }
    system
        .find_live_quorum(responsive)
        .ok_or(ProtocolError::NoLiveQuorum)
}

/// Resolves a read from per-server replies by the masking rule: among the
/// entries reported by at least `b + 1` servers (the *safe* set,
/// [`mask_votes`](bqs_core::masking::mask_votes)) it returns the greatest —
/// the highest timestamp, and within a timestamp the greatest value.
///
/// What a read's [`QuorumOp::outcome`](crate::quorum_op::QuorumOp::outcome)
/// applies to its admitted votes. The safety argument (any pair fabricated by
/// at most `b` Byzantine servers has at most `b` supporters) is `mask_votes`'s.
/// The search keeps the best safe entry so far and counts the support only
/// of a greater one, and only up to `b + 1`, so it allocates nothing and
/// counts few votes.
///
/// # Errors
///
/// Returns [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters.
pub fn resolve_read(replies: &[(usize, Option<Entry>)], b: usize) -> Result<Entry, ProtocolError> {
    // An empty reply (`None`) may gather support too, but it is never a value
    // to return, and `Some(_)` orders above it: `best` starts there.
    let mut best: Option<Entry> = None;
    for (i, &(_, entry)) in replies.iter().enumerate() {
        if entry <= best {
            continue;
        }
        // It is safe once `b` more reports of it follow, so counting stops
        // there. Counting from here on is exact at an entry's first report;
        // at a later one, its first report already counted more and fell
        // short.
        let more = replies[i + 1..]
            .iter()
            .filter(|&&(_, e)| e == entry)
            .take(b)
            .count();
        if more == b {
            best = entry;
        }
    }
    best.ok_or(ProtocolError::NoSafeValue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::masking::mask_votes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The in-place search returns exactly the greatest entry of the
        /// masking rule's safe set, on vote vectors with empty replies,
        /// servers voting more than once, and timestamps shared by several
        /// values.
        #[test]
        fn resolve_read_is_the_greatest_safe_entry(
            b in 0usize..4,
            len in 0usize..16,
            distinct in 1u64..6,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng: StdRng = rand::SeedableRng::seed_from_u64(seed);
            let votes: Vec<(usize, Option<Entry>)> = (0..len)
                .map(|_| {
                    let server = rng.gen_range_u64(0, len as u64) as usize;
                    let k = rng.gen_range_u64(0, distinct + 1);
                    // k == 0 is an empty reply; k = 2, 3 share timestamp 1
                    // and k = 4, 5 timestamp 2, and values fall as
                    // timestamps rise, so only (timestamp, value) order wins.
                    let entry = (k > 0).then(|| Entry { timestamp: k / 2, value: 10 - k });
                    (server, entry)
                })
                .collect();
            let reference = mask_votes(&votes, b).into_iter().flatten().max();
            prop_assert_eq!(resolve_read(&votes, b).ok(), reference, "votes {:?}, b {}", votes, b);
        }
    }
}
