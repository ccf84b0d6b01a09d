//! Multi-writer replicated register over b-masking quorum systems.
//!
//! The single-writer client in [`crate::client`] uses a local write counter; with
//! several writers that is not enough, so this module implements the standard
//! read-modify-write timestamping of the [MR98a]/[MR98b] protocols:
//!
//! * **Write(v)** — first query a quorum for the highest safe timestamp (masking the
//!   `b` possibly-lying servers exactly as a read does), then write `v` with a
//!   timestamp strictly larger than it, tie-broken by the writer's id so that two
//!   writers never produce the same timestamp.
//! * **Read()** — identical to the single-writer read.
//!
//! With sequential (non-overlapping) operations this implements an atomic register:
//! every read returns the value of the most recent completed write, regardless of
//! which writer performed it, despite up to `b` Byzantine servers. The workload
//! runner below drives several writers round-robin and checks exactly that.

use rand::Rng;

use bqs_core::quorum::QuorumSystem;

use crate::client::{choose_access_quorum, Client, ProtocolError};
use crate::cluster::Cluster;
use crate::fault::FaultPlan;
use crate::server::{Entry, Timestamp, Value};

/// A writer/reader participant in the multi-writer protocol: the
/// single-writer [`Client`]'s read round plus writer-owned timestamps.
#[derive(Debug, Clone)]
pub struct MultiWriterClient<Q> {
    client: Client<Q>,
    writer_id: u64,
    writer_count: u64,
}

impl<Q: QuorumSystem> MultiWriterClient<Q> {
    /// Creates a client with the given writer identity (`writer_id < writer_count`).
    ///
    /// # Panics
    ///
    /// Panics if `writer_id >= writer_count` or `writer_count == 0`.
    #[must_use]
    pub fn new(system: Q, b: usize, writer_id: u64, writer_count: u64) -> Self {
        assert!(
            writer_count > 0 && writer_id < writer_count,
            "invalid writer identity"
        );
        MultiWriterClient {
            client: Client::new(system, b),
            writer_id,
            writer_count,
        }
    }

    /// The writer identity used for timestamp tie-breaking.
    #[must_use]
    pub fn writer_id(&self) -> u64 {
        self.writer_id
    }

    /// Reads the register.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoLiveQuorum`] if no responsive quorum exists;
    /// [`ProtocolError::NoSafeValue`] before the first write completes.
    pub fn read<R: Rng>(&self, cluster: &mut Cluster, rng: &mut R) -> Result<Entry, ProtocolError> {
        let read = self.client.read(cluster, rng)?;
        Ok(Entry {
            timestamp: read.timestamp,
            value: read.value,
        })
    }

    /// Writes `value`, choosing a timestamp larger than any safe timestamp observed
    /// in a query round, tie-broken by writer id.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoLiveQuorum`] if no responsive quorum exists for either the
    /// query or the write round.
    pub fn write<R: Rng>(
        &self,
        cluster: &mut Cluster,
        value: Value,
        rng: &mut R,
    ) -> Result<Timestamp, ProtocolError> {
        // Query round: the highest safe timestamp (0 if nothing was ever written).
        let highest = match self.read(cluster, rng) {
            Ok(entry) => entry.timestamp,
            Err(ProtocolError::NoSafeValue) => 0,
            Err(e) => return Err(e),
        };
        // Next timestamp owned by this writer: round numbers are multiples of
        // writer_count plus writer_id, so distinct writers never collide.
        let current_round = highest / self.writer_count;
        let timestamp = (current_round + 1) * self.writer_count + self.writer_id;
        let quorum = choose_access_quorum(self.client.system(), &cluster.responsive_set(), rng)?;
        cluster.deliver_write(&quorum, Entry { timestamp, value });
        Ok(timestamp)
    }
}

/// Result of a multi-writer workload.
#[derive(Debug, Clone)]
pub struct MultiWriterReport {
    /// Writes that completed, per writer.
    pub writes_per_writer: Vec<usize>,
    /// Reads that completed.
    pub reads_completed: usize,
    /// Reads that returned something other than the last completed write.
    pub safety_violations: usize,
    /// Operations that found no live quorum.
    pub unavailable_operations: usize,
}

impl MultiWriterReport {
    /// True when no read ever returned a stale or fabricated value.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.safety_violations == 0
    }
}

/// Runs a sequential multi-writer workload: `writers` clients take turns writing and
/// a reader validates after every operation that the freshest completed write is
/// returned.
pub fn run_multi_writer_workload<Q, R>(
    make_system: impl Fn() -> Q,
    b: usize,
    writers: usize,
    plan: FaultPlan,
    operations: usize,
    rng: &mut R,
) -> MultiWriterReport
where
    Q: QuorumSystem,
    R: Rng,
{
    assert!(writers > 0, "need at least one writer");
    let mut cluster = Cluster::new(plan);
    let clients: Vec<MultiWriterClient<Q>> = (0..writers)
        .map(|w| MultiWriterClient::new(make_system(), b, w as u64, writers as u64))
        .collect();
    let reader = MultiWriterClient::new(make_system(), b, 0, writers as u64);

    let mut report = MultiWriterReport {
        writes_per_writer: vec![0; writers],
        reads_completed: 0,
        safety_violations: 0,
        unavailable_operations: 0,
    };
    let mut last_write: Option<(Timestamp, Value)> = None;
    let mut next_value: Value = 1;

    for op in 0..operations {
        let writer = op % writers;
        if last_write.is_none() || rng.gen::<f64>() < 0.4 {
            match clients[writer].write(&mut cluster, next_value, rng) {
                Ok(ts) => {
                    last_write = Some((ts, next_value));
                    next_value += 1;
                    report.writes_per_writer[writer] += 1;
                }
                Err(ProtocolError::NoLiveQuorum) => report.unavailable_operations += 1,
                Err(ProtocolError::NoSafeValue) => unreachable!("writes tolerate empty registers"),
            }
        } else {
            match reader.read(&mut cluster, rng) {
                Ok(entry) => {
                    report.reads_completed += 1;
                    if let Some((ts, value)) = last_write {
                        if entry.timestamp != ts || entry.value != value {
                            report.safety_violations += 1;
                        }
                    }
                }
                Err(ProtocolError::NoLiveQuorum) => report.unavailable_operations += 1,
                Err(ProtocolError::NoSafeValue) => {
                    if last_write.is_some() {
                        report.safety_violations += 1;
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ByzantineStrategy;
    use bqs_constructions::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn writer_identity_validation() {
        let sys = ThresholdSystem::minimal_masking(1).unwrap();
        let c = MultiWriterClient::new(sys, 1, 2, 3);
        assert_eq!(c.writer_id(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid writer identity")]
    fn writer_id_must_be_in_range() {
        let sys = ThresholdSystem::minimal_masking(1).unwrap();
        let _ = MultiWriterClient::new(sys, 1, 3, 3);
    }

    #[test]
    fn timestamps_from_distinct_writers_never_collide() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut cluster = Cluster::new(FaultPlan::none(5));
        let make = || ThresholdSystem::minimal_masking(1).unwrap();
        let w0 = MultiWriterClient::new(make(), 1, 0, 2);
        let w1 = MultiWriterClient::new(make(), 1, 1, 2);
        let mut seen = Vec::new();
        for i in 0..10u64 {
            let ts = if i % 2 == 0 {
                w0.write(&mut cluster, i, &mut rng).unwrap()
            } else {
                w1.write(&mut cluster, i, &mut rng).unwrap()
            };
            assert!(!seen.contains(&ts), "timestamp {ts} reused");
            // Timestamps are strictly increasing across the sequential history.
            if let Some(&last) = seen.last() {
                assert!(ts > last);
            }
            seen.push(ts);
        }
    }

    #[test]
    fn sequential_multi_writer_history_is_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let report = run_multi_writer_workload(
            || MGridSystem::new(5, 2).unwrap(),
            2,
            3,
            FaultPlan::none(25),
            400,
            &mut rng,
        );
        assert!(report.is_safe(), "{report:?}");
        assert!(report.reads_completed > 0);
        assert!(report.writes_per_writer.iter().all(|&w| w > 0));
        assert_eq!(report.unavailable_operations, 0);
    }

    #[test]
    fn multi_writer_masks_byzantine_servers() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = FaultPlan::none(9)
            .with_byzantine(1, ByzantineStrategy::FabricateHighTimestamp { value: 0xE7 })
            .with_byzantine(6, ByzantineStrategy::Equivocate);
        let report = run_multi_writer_workload(
            || ThresholdSystem::minimal_masking(2).unwrap(),
            2,
            2,
            plan,
            400,
            &mut rng,
        );
        assert!(report.is_safe(), "{report:?}");
    }

    #[test]
    fn multi_writer_with_crashes_degrades_to_unavailability_only() {
        let mut rng = StdRng::seed_from_u64(4);
        let plan = FaultPlan::none(5).with_crashed(0).with_crashed(1);
        let report = run_multi_writer_workload(
            || ThresholdSystem::minimal_masking(1).unwrap(),
            1,
            2,
            plan,
            100,
            &mut rng,
        );
        assert!(report.is_safe());
        assert_eq!(report.reads_completed, 0);
        assert_eq!(report.unavailable_operations, 100);
    }
}
