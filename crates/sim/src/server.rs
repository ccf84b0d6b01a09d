//! Replica servers of the register model.
//!
//! Each server stores the latest timestamped value it has accepted and follows one
//! of three behaviours: correct, crashed (never replies), or Byzantine (replies with
//! adversarially chosen data). The Byzantine strategies implemented here are the
//! standard attacks against replicated read/write registers — fabricating a value
//! with an inflated timestamp, replaying a stale value, and equivocating — exactly
//! the behaviours that the `2b+1` intersection of a b-masking quorum system is
//! designed to mask ([MR98a], Definition 3.5 of the paper).

use rand::Rng;

/// The splitmix64 finaliser: a cheap, high-quality 64-bit mixing function.
///
/// Shared by the deterministic adversaries in this module (per-client
/// equivocation derives its per-origin lie from `mix64(origin ^ salt)`) and by
/// the chaos engine's decision streams — any party that mixes the same inputs
/// reproduces the same outputs, which is what makes adversarial runs
/// replayable from their seeds.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Logical timestamps attached to writes.
pub type Timestamp = u64;

/// The values stored in the replicated register.
pub type Value = u64;

/// A timestamped value as stored and reported by servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Entry {
    /// The write's logical timestamp.
    pub timestamp: Timestamp,
    /// The written value.
    pub value: Value,
}

/// How a Byzantine server misbehaves when read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineStrategy {
    /// Report a fabricated value with a timestamp higher than anything written.
    FabricateHighTimestamp {
        /// The fabricated value to report.
        value: Value,
    },
    /// Report the oldest value it ever saw (stale replay), or nothing if none.
    StaleReplay,
    /// Report a uniformly random value and timestamp on every read (equivocation).
    Equivocate,
    /// Equivocate *per client*: every reader sees the same inflated timestamp
    /// but a value derived deterministically from its identity, so any one
    /// client observes a self-consistent coalition while different clients
    /// observe contradictory ones. The value is `mix64(origin ^ salt)`; servers
    /// sharing a `salt` form a consistent coalition towards each client.
    EquivocatePerClient {
        /// Coalition key mixed with the client identity to derive the lie.
        salt: u64,
    },
    /// Replay the newest value from a *previous epoch* of writes (epochs are
    /// `timestamp / epoch_len`), falling back to the first write ever seen.
    /// Unlike [`ByzantineStrategy::StaleReplay`] the lie tracks the write
    /// history, staying one epoch behind instead of pinned at the beginning.
    StaleEpochReplay {
        /// Number of consecutive timestamps per epoch (must be non-zero).
        epoch_len: u64,
    },
    /// Stay silent (indistinguishable from a crash to the client).
    Silent,
}

/// A server's failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Follows the protocol.
    Correct,
    /// Crashed: never responds.
    Crashed,
    /// Byzantine: responds according to the given strategy.
    Byzantine(ByzantineStrategy),
}

/// One replica: its failure mode and the register state it holds.
#[derive(Debug, Clone)]
pub struct Replica {
    behavior: Behavior,
    /// Latest accepted entry.
    current: Option<Entry>,
    /// First entry ever accepted (used by the stale-replay attack).
    first: Option<Entry>,
    /// Newest entry of the last *completed* epoch (used by `StaleEpochReplay`).
    epoch_stale: Option<Entry>,
}

impl Replica {
    /// Creates a replica with the given behaviour and empty state.
    #[must_use]
    pub fn new(behavior: Behavior) -> Self {
        Replica {
            behavior,
            current: None,
            first: None,
            epoch_stale: None,
        }
    }

    /// The replica's behaviour.
    #[must_use]
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// The replica's current stored entry (what a correct replica would report).
    #[must_use]
    pub fn stored(&self) -> Option<Entry> {
        self.current
    }

    /// Delivers a write message. Correct servers accept the entry if its timestamp is
    /// newer than what they hold; crashed servers ignore it; Byzantine servers accept
    /// it too (they may lie later, but remembering the truth lets `StaleReplay` work).
    pub fn deliver_write(&mut self, entry: Entry) {
        match self.behavior {
            Behavior::Crashed => {}
            Behavior::Correct | Behavior::Byzantine(_) => {
                if self.first.is_none() {
                    self.first = Some(entry);
                }
                if self.current.is_none_or(|c| entry.timestamp > c.timestamp) {
                    if let Behavior::Byzantine(ByzantineStrategy::StaleEpochReplay { epoch_len }) =
                        self.behavior
                    {
                        let epoch_len = epoch_len.max(1);
                        if let Some(current) = self.current {
                            if entry.timestamp / epoch_len > current.timestamp / epoch_len {
                                self.epoch_stale = Some(current);
                            }
                        }
                    }
                    self.current = Some(entry);
                }
            }
        }
    }

    /// Delivers a read message and returns the reply, if any.
    ///
    /// `origin` identifies the requesting client (connection identity on the
    /// socket path, client identity in process); correct replicas ignore it,
    /// but a [`ByzantineStrategy::EquivocatePerClient`] server keys its lie on
    /// it so that different clients receive contradictory — yet individually
    /// self-consistent — replies for the same timestamp.
    pub fn deliver_read<R: Rng + ?Sized>(&mut self, origin: u64, rng: &mut R) -> Option<Entry> {
        match self.behavior {
            Behavior::Correct => self.current,
            Behavior::Crashed => None,
            Behavior::Byzantine(strategy) => match strategy {
                ByzantineStrategy::FabricateHighTimestamp { value } => Some(Entry {
                    timestamp: Timestamp::MAX,
                    value,
                }),
                ByzantineStrategy::StaleReplay => self.first,
                ByzantineStrategy::Equivocate => Some(Entry {
                    timestamp: rng.gen(),
                    value: rng.gen(),
                }),
                ByzantineStrategy::EquivocatePerClient { salt } => Some(Entry {
                    // One timestamp for everyone, one value per client: the
                    // classic equivocation the b+1-support read rule exists to
                    // catch. MAX - 1 keeps it distinct from the fabrication
                    // strategy while still outbidding every honest write.
                    timestamp: Timestamp::MAX - 1,
                    value: mix64(origin ^ salt),
                }),
                ByzantineStrategy::StaleEpochReplay { .. } => self.epoch_stale.or(self.first),
                ByzantineStrategy::Silent => None,
            },
        }
    }

    /// Whether the server responds to messages at all (crashed and silent-Byzantine
    /// servers do not). The client's failure detector uses this to build its view of
    /// the responsive set.
    #[must_use]
    pub fn is_responsive(&self) -> bool {
        !matches!(
            self.behavior,
            Behavior::Crashed | Behavior::Byzantine(ByzantineStrategy::Silent)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_replica_stores_and_reports() {
        let mut r = Replica::new(Behavior::Correct);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(r.deliver_read(0, &mut rng), None);
        r.deliver_write(Entry {
            timestamp: 1,
            value: 10,
        });
        r.deliver_write(Entry {
            timestamp: 3,
            value: 30,
        });
        // An older write must not overwrite a newer one.
        r.deliver_write(Entry {
            timestamp: 2,
            value: 20,
        });
        assert_eq!(
            r.deliver_read(0, &mut rng),
            Some(Entry {
                timestamp: 3,
                value: 30
            })
        );
    }

    #[test]
    fn crashed_replica_never_replies() {
        let mut r = Replica::new(Behavior::Crashed);
        let mut rng = StdRng::seed_from_u64(0);
        r.deliver_write(Entry {
            timestamp: 1,
            value: 10,
        });
        assert_eq!(r.deliver_read(0, &mut rng), None);
        assert!(!r.is_responsive());
        assert_eq!(r.stored(), None);
    }

    #[test]
    fn fabricating_replica_reports_max_timestamp() {
        let mut r = Replica::new(Behavior::Byzantine(
            ByzantineStrategy::FabricateHighTimestamp { value: 666 },
        ));
        let mut rng = StdRng::seed_from_u64(0);
        r.deliver_write(Entry {
            timestamp: 5,
            value: 50,
        });
        let reply = r.deliver_read(0, &mut rng).unwrap();
        assert_eq!(reply.value, 666);
        assert_eq!(reply.timestamp, Timestamp::MAX);
        assert!(r.is_responsive());
    }

    #[test]
    fn stale_replay_reports_first_write() {
        let mut r = Replica::new(Behavior::Byzantine(ByzantineStrategy::StaleReplay));
        let mut rng = StdRng::seed_from_u64(0);
        r.deliver_write(Entry {
            timestamp: 1,
            value: 11,
        });
        r.deliver_write(Entry {
            timestamp: 9,
            value: 99,
        });
        assert_eq!(
            r.deliver_read(0, &mut rng),
            Some(Entry {
                timestamp: 1,
                value: 11
            })
        );
    }

    #[test]
    fn equivocating_replica_changes_answers() {
        let mut r = Replica::new(Behavior::Byzantine(ByzantineStrategy::Equivocate));
        let mut rng = StdRng::seed_from_u64(1);
        let a = r.deliver_read(0, &mut rng);
        let b = r.deliver_read(0, &mut rng);
        assert!(a.is_some() && b.is_some());
        assert_ne!(
            a, b,
            "equivocation should vary (with overwhelming probability)"
        );
    }

    #[test]
    fn per_client_equivocation_is_consistent_per_origin_and_differs_across() {
        let mut a = Replica::new(Behavior::Byzantine(
            ByzantineStrategy::EquivocatePerClient { salt: 7 },
        ));
        let mut b = Replica::new(Behavior::Byzantine(
            ByzantineStrategy::EquivocatePerClient { salt: 7 },
        ));
        let mut rng = StdRng::seed_from_u64(0);
        // The coalition (same salt) answers each client consistently...
        let to_one_a = a.deliver_read(1, &mut rng).unwrap();
        let to_one_b = b.deliver_read(1, &mut rng).unwrap();
        assert_eq!(to_one_a, to_one_b);
        assert_eq!(to_one_a, a.deliver_read(1, &mut rng).unwrap());
        // ...but different clients see different values for the same timestamp.
        let to_two = a.deliver_read(2, &mut rng).unwrap();
        assert_eq!(to_one_a.timestamp, to_two.timestamp);
        assert_ne!(to_one_a.value, to_two.value);
        // A different coalition key yields a different lie for the same client.
        let mut c = Replica::new(Behavior::Byzantine(
            ByzantineStrategy::EquivocatePerClient { salt: 8 },
        ));
        assert_ne!(to_one_a.value, c.deliver_read(1, &mut rng).unwrap().value);
    }

    #[test]
    fn stale_epoch_replay_tracks_the_previous_epoch() {
        let mut r = Replica::new(Behavior::Byzantine(ByzantineStrategy::StaleEpochReplay {
            epoch_len: 4,
        }));
        let mut rng = StdRng::seed_from_u64(0);
        // No completed epoch yet: falls back to the first write.
        r.deliver_write(Entry {
            timestamp: 1,
            value: 11,
        });
        r.deliver_write(Entry {
            timestamp: 3,
            value: 33,
        });
        assert_eq!(
            r.deliver_read(0, &mut rng),
            Some(Entry {
                timestamp: 1,
                value: 11
            })
        );
        // Crossing into epoch 1 (timestamps 4..8) freezes epoch 0's newest.
        r.deliver_write(Entry {
            timestamp: 5,
            value: 55,
        });
        assert_eq!(
            r.deliver_read(0, &mut rng),
            Some(Entry {
                timestamp: 3,
                value: 33
            })
        );
        // Another epoch boundary advances the replayed entry.
        r.deliver_write(Entry {
            timestamp: 9,
            value: 99,
        });
        assert_eq!(
            r.deliver_read(0, &mut rng),
            Some(Entry {
                timestamp: 5,
                value: 55
            })
        );
        // The lie is always strictly older than the truth it withholds.
        assert_eq!(r.stored().unwrap().timestamp, 9);
    }

    #[test]
    fn silent_byzantine_is_unresponsive() {
        let mut r = Replica::new(Behavior::Byzantine(ByzantineStrategy::Silent));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(r.deliver_read(0, &mut rng), None);
        assert!(!r.is_responsive());
    }
}
