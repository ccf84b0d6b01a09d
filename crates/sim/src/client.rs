//! The masking-quorum read/write protocol ([MR98a]).
//!
//! The client implements the replicated read/write register that motivates b-masking
//! quorum systems:
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

use rand::Rng;

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;

use crate::cluster::Cluster;
use crate::quorum_op::{OpKind, QuorumOp};
use crate::server::{Entry, Timestamp, Value};

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

/// The outcome of a successful read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The value returned to the application.
    pub value: Value,
    /// Its timestamp.
    pub timestamp: Timestamp,
    /// The quorum that was contacted.
    pub quorum: ServerSet,
    /// All safe (≥ b+1 supported) entries that were observed, for diagnostics.
    pub safe_entries: Vec<Entry>,
}

/// The outcome of a successful write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The timestamp assigned to the write.
    pub timestamp: Timestamp,
    /// The quorum that was contacted.
    pub quorum: ServerSet,
}

/// Chooses an access quorum against a failure detector's `responsive` view: a
/// sampled quorum when every member is responsive (the fast path that realises
/// the access strategy's load profile), retrying the sample a few times under
/// sporadic failures, and falling back to deterministic live-quorum discovery
/// only when sampling repeatedly fails.
///
/// This is the one quorum-selection policy of every protocol shell: the
/// simulator's clients and the concurrent `bqs-service` clients.
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

/// Resolves a read from per-server replies by the masking rule: keep only the
/// entries reported by at least `b + 1` servers (the *safe* set) and return
/// the one with the highest timestamp, together with the full safe set sorted
/// for diagnostics.
///
/// What [`QuorumOp::resolve`] applies to its admitted votes — the safety
/// argument (any pair fabricated by at most `b` Byzantine servers has at most
/// `b` supporters) lives here once.
///
/// # Errors
///
/// Returns [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters.
pub fn resolve_read(
    replies: &[(usize, Option<Entry>)],
    b: usize,
) -> Result<(Entry, Vec<Entry>), ProtocolError> {
    // Count support per distinct entry.
    let mut support: Vec<(Entry, usize)> = Vec::new();
    for (_, reply) in replies {
        if let Some(entry) = reply {
            match support.iter_mut().find(|(e, _)| e == entry) {
                Some((_, count)) => *count += 1,
                None => support.push((*entry, 1)),
            }
        }
    }
    let mut safe_entries: Vec<Entry> = support
        .into_iter()
        .filter(|&(_, count)| count > b)
        .map(|(e, _)| e)
        .collect();
    safe_entries.sort_unstable();
    let best = safe_entries
        .iter()
        .max_by_key(|e| e.timestamp)
        .copied()
        .ok_or(ProtocolError::NoSafeValue)?;
    Ok((best, safe_entries))
}

/// A protocol client bound to a quorum system and a masking level `b`.
#[derive(Debug, Clone)]
pub struct Client<Q> {
    system: Q,
    b: usize,
    next_timestamp: Timestamp,
}

impl<Q: QuorumSystem> Client<Q> {
    /// Creates a client over the given b-masking quorum system.
    #[must_use]
    pub fn new(system: Q, b: usize) -> Self {
        Client {
            system,
            b,
            next_timestamp: 1,
        }
    }

    /// The quorum system the client uses.
    #[must_use]
    pub fn system(&self) -> &Q {
        &self.system
    }

    /// Writes `value` to the register.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoLiveQuorum`] when no quorum of responsive servers
    /// exists.
    pub fn write<R: Rng>(
        &mut self,
        cluster: &mut Cluster,
        value: Value,
        rng: &mut R,
    ) -> Result<WriteOutcome, ProtocolError> {
        let quorum = choose_access_quorum(&self.system, &cluster.responsive_set(), rng)?;
        let timestamp = self.next_timestamp;
        self.next_timestamp += 1;
        cluster.deliver_write(&quorum, Entry { timestamp, value });
        Ok(WriteOutcome { timestamp, quorum })
    }

    /// Reads the register, masking up to `b` Byzantine replies.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::NoLiveQuorum`] when no quorum of responsive servers
    /// exists, or [`ProtocolError::NoSafeValue`] when no pair had `b + 1` supporters
    /// (only possible before the first write completes).
    pub fn read<R: Rng>(
        &self,
        cluster: &mut Cluster,
        rng: &mut R,
    ) -> Result<ReadOutcome, ProtocolError> {
        let quorum = choose_access_quorum(&self.system, &cluster.responsive_set(), rng)?;
        // The simulated cluster has no epochs: the whole round runs at epoch 0.
        let mut op = QuorumOp::start(quorum, OpKind::Read, 0);
        for (server, entry) in cluster.deliver_read(op.quorum(), rng) {
            op.admit(server, entry, 0, false);
        }
        let (best, safe_entries) = op.resolve(self.b)?;
        Ok(ReadOutcome {
            value: best.value,
            timestamp: best.timestamp,
            quorum: op.take_quorum(),
            safe_entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::server::ByzantineStrategy;
    use bqs_constructions::threshold::ThresholdSystem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(b: usize, plan: FaultPlan) -> (Client<ThresholdSystem>, Cluster, StdRng) {
        let system = ThresholdSystem::minimal_masking(b).unwrap();
        let cluster = Cluster::new(plan);
        (Client::new(system, b), cluster, StdRng::seed_from_u64(42))
    }

    #[test]
    fn read_your_write_without_failures() {
        let (mut client, mut cluster, mut rng) = setup(1, FaultPlan::none(5));
        client.write(&mut cluster, 77, &mut rng).unwrap();
        let read = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(read.value, 77);
        assert_eq!(read.timestamp, 1);
    }

    #[test]
    fn read_before_any_write_has_no_safe_value() {
        let (client, mut cluster, mut rng) = setup(1, FaultPlan::none(5));
        assert_eq!(
            client.read(&mut cluster, &mut rng).unwrap_err(),
            ProtocolError::NoSafeValue
        );
    }

    #[test]
    fn fabricated_high_timestamp_is_masked() {
        // b = 1 over 5 servers; one Byzantine server fabricates value 666 with
        // timestamp MAX. The read must still return the honestly written value.
        let plan = FaultPlan::none(5)
            .with_byzantine(2, ByzantineStrategy::FabricateHighTimestamp { value: 666 });
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 10, &mut rng).unwrap();
        for _ in 0..20 {
            let r = client.read(&mut cluster, &mut rng).unwrap();
            assert_eq!(r.value, 10, "fabricated value leaked through masking");
            assert!(r.safe_entries.iter().all(|e| e.value != 666));
        }
    }

    #[test]
    fn stale_replay_is_outvoted_by_fresh_writes() {
        let plan = FaultPlan::none(5).with_byzantine(0, ByzantineStrategy::StaleReplay);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 1, &mut rng).unwrap();
        client.write(&mut cluster, 2, &mut rng).unwrap();
        client.write(&mut cluster, 3, &mut rng).unwrap();
        let r = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(r.value, 3);
    }

    #[test]
    fn crashes_up_to_resilience_do_not_block_progress() {
        // Thresh(4-of-5) has MT = 2, so it tolerates one crash.
        let plan = FaultPlan::none(5).with_crashed(4);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        client.write(&mut cluster, 5, &mut rng).unwrap();
        let r = client.read(&mut cluster, &mut rng).unwrap();
        assert_eq!(r.value, 5);
    }

    #[test]
    fn too_many_crashes_block_progress_but_not_safety() {
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let (mut client, mut cluster, mut rng) = setup(1, plan);
        assert_eq!(
            client.write(&mut cluster, 5, &mut rng).unwrap_err(),
            ProtocolError::NoLiveQuorum
        );
    }

    #[test]
    fn equivocating_servers_cannot_reach_safety_threshold() {
        let plan = FaultPlan::none(9)
            .with_byzantine(0, ByzantineStrategy::Equivocate)
            .with_byzantine(1, ByzantineStrategy::Equivocate);
        let system = ThresholdSystem::minimal_masking(2).unwrap();
        let mut client = Client::new(system, 2);
        let mut cluster = Cluster::new(plan);
        let mut rng = StdRng::seed_from_u64(9);
        client.write(&mut cluster, 123, &mut rng).unwrap();
        for _ in 0..10 {
            let r = client.read(&mut cluster, &mut rng).unwrap();
            assert_eq!(r.value, 123);
        }
    }
}
