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
use bqs_core::masking::mask_votes;
use bqs_core::quorum::QuorumSystem;

use crate::server::Entry;

/// Errors surfaced by the protocol client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// No quorum consists entirely of responsive servers; the operation cannot make
    /// progress (availability loss, not a safety violation).
    NoLiveQuorum,
    /// A read gathered no safe value: fewer than `b + 1` servers agreed on any pair.
    /// With a correct quorum system and at most `b` Byzantine servers this can only
    /// happen before the first write completes.
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

/// Resolves a read from per-server replies by the masking rule,
/// [`mask_votes`]: keep only the entries reported by at least `b + 1` servers
/// (the *safe* set) and return the one with the highest timestamp, together
/// with the full safe set sorted for diagnostics.
///
/// What a read's [`QuorumOp::outcome`](crate::quorum_op::QuorumOp::outcome)
/// applies to its admitted votes. The safety argument (any pair fabricated by
/// at most `b` Byzantine servers has at most `b` supporters) is `mask_votes`'s.
///
/// # Errors
///
/// Returns [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters.
pub fn resolve_read(
    replies: &[(usize, Option<Entry>)],
    b: usize,
) -> Result<(Entry, Vec<Entry>), ProtocolError> {
    // The one masking rule, over the raw replies: an empty reply (`None`)
    // may gather support too, but it is never a value to return.
    let mut safe_entries: Vec<Entry> = mask_votes(replies, b).into_iter().flatten().collect();
    safe_entries.sort_unstable();
    let best = safe_entries
        .iter()
        .max_by_key(|e| e.timestamp)
        .copied()
        .ok_or(ProtocolError::NoSafeValue)?;
    Ok((best, safe_entries))
}
