//! The sans-I/O core of one masking-register operation.
//!
//! A [`QuorumOp`] is one read or write against one quorum under one epoch.
//! Shells (`bqs-service`'s closed- and open-loop clients) choose the quorum
//! ([`crate::client::choose_access_quorum`]), move messages, keep clocks and
//! metrics, and decide what a fence or a deadline *means*; whether a reply
//! may count, whom a deadline accuses and what a complete operation returns
//! are decided here and nowhere else.
//!
//! `specs/register/pseudo-code.md` at the repository root states the
//! operation's lifecycle as pseudo-code with its named properties: MEMBER,
//! FENCE, EPOCH and ONE-VOTE ([`QuorumOp::admit`]), DEADLINE
//! ([`QuorumOp::unanswered`]), ACK and MASKING ([`QuorumOp::outcome`], the
//! latter through [`resolve_read`]). The tests below cite each by name.

use bqs_core::bitset::ServerSet;

use crate::client::{resolve_read, ProtocolError};
use crate::server::Entry;

/// Which half of the register protocol an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpKind {
    /// Collect entries; a vote without one is not a protocol answer.
    #[default]
    Read,
    /// Collect acknowledgements, each echoing the stored entry; a vote
    /// without one is a no-answer, and the write did not complete.
    Write,
}

/// What [`QuorumOp::admit`] decided about one reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Not a vote: non-member, other epoch, or a server's second reply.
    Ignored,
    /// A member fenced the operation.
    Fenced {
        /// The epoch the fencing server reported as current.
        current: u64,
    },
    /// The reply is the server's vote.
    Counted {
        /// False for a reply without an entry, read or write alike — the
        /// failure detector's "no answer".
        answered: bool,
    },
}

/// One operation's admission state (see the module docs). The default value
/// is an idle operation over the empty quorum.
#[derive(Debug, Clone, Default)]
pub struct QuorumOp {
    quorum: ServerSet,
    kind: OpKind,
    epoch: u64,
    votes: Vec<(usize, Option<Entry>)>,
}

impl QuorumOp {
    /// A fresh operation of `kind` against `quorum`, stamped `epoch`.
    #[must_use]
    pub fn start(quorum: ServerSet, kind: OpKind, epoch: u64) -> Self {
        let mut op = QuorumOp::default();
        op.restart(quorum, kind, epoch);
        op
    }

    /// Re-arms `self` for the next operation, reusing the vote buffer.
    pub fn restart(&mut self, quorum: ServerSet, kind: OpKind, epoch: u64) {
        self.votes.clear();
        self.votes.reserve(quorum.len());
        (self.quorum, self.kind, self.epoch) = (quorum, kind, epoch);
    }

    /// The quorum the operation addresses.
    #[must_use]
    pub fn quorum(&self) -> &ServerSet {
        &self.quorum
    }

    /// Moves the quorum out for the caller's outcome, leaving `self` idle.
    pub fn take_quorum(&mut self) -> ServerSet {
        self.votes.clear();
        std::mem::take(&mut self.quorum)
    }

    /// The epoch the operation is stamped with.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True for a write.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind == OpKind::Write
    }

    /// Decides whether the reply `(entry, epoch, stale)`, attributed by the
    /// shell to `server`, counts — MEMBER, FENCE, EPOCH, ONE-VOTE in order.
    pub fn admit(
        &mut self,
        server: usize,
        entry: Option<Entry>,
        epoch: u64,
        stale: bool,
    ) -> Admission {
        if !self.quorum.contains(server) {
            return Admission::Ignored;
        }
        if stale {
            return Admission::Fenced { current: epoch };
        }
        if epoch != self.epoch || self.votes.iter().any(|&(s, _)| s == server) {
            return Admission::Ignored;
        }
        self.votes.push((server, entry));
        Admission::Counted {
            answered: entry.is_some(),
        }
    }

    /// True once every member's vote is in.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.votes.len() == self.quorum.len()
    }

    /// The members without a vote, in quorum order — whom a deadline accuses
    /// (DEADLINE).
    pub fn unanswered(&self) -> impl Iterator<Item = usize> + '_ {
        let voted = |server| self.votes.iter().any(|&(s, _)| s == server);
        self.quorum.iter().filter(move |&server| !voted(server))
    }

    /// What the operation returns over the votes so far: `None` for a write
    /// every voter acknowledged, and for a read the freshest entry with
    /// `b + 1` votes (MASKING).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoSafeValue`] when a write has a no-answer vote (ACK:
    /// the write did not complete) or no entry of a read has `b + 1` votes.
    pub fn outcome(&self, b: usize) -> Result<Option<Entry>, ProtocolError> {
        if self.is_write() {
            let acknowledged = self.votes.iter().all(|(_, entry)| entry.is_some());
            return if acknowledged {
                Ok(None)
            } else {
                Err(ProtocolError::NoSafeValue)
            };
        }
        resolve_read(&self.votes, b).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqs_core::masking::mask_votes;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const EPOCH: u64 = 7;
    const HONEST: Entry = Entry {
        timestamp: 5,
        value: 50,
    };
    /// Fresher than `HONEST`: it wins the read the moment it has b + 1 votes.
    const LIE: Entry = Entry {
        timestamp: 999,
        value: 666,
    };

    /// One reply of a random stream: `(server, entry, epoch, stale)`.
    type Frame = (usize, Option<Entry>, u64, bool);

    /// A random reply stream for a `3b + 1` quorum of a `4b + 1` universe:
    /// every member answers at the right epoch (`≤ b` of them with `LIE`),
    /// then the adversary pads it with echoes of each member's answer,
    /// other-epoch strays, fences, and non-member frames (in and out of
    /// range) all pushing `LIE` — shuffled into arbitrary order.
    fn random_stream(rng: &mut StdRng) -> (ServerSet, usize, Vec<Frame>) {
        let b = 1 + rng.gen_range_u64(0, 3) as usize;
        let n = 4 * b + 1;
        let mut servers: Vec<usize> = (0..n).collect();
        servers.shuffle(rng);
        let (members, outsiders) = servers.split_at(3 * b + 1);
        let quorum = ServerSet::from_indices(n, members.iter().copied());
        let liars = rng.gen_range_u64(0, b as u64 + 1) as usize;
        let mut frames: Vec<Frame> = Vec::new();
        for (i, &server) in members.iter().enumerate() {
            let said = Some(if i < liars { LIE } else { HONEST });
            for _ in 0..1 + rng.gen_range_u64(0, 3) {
                frames.push((server, said, EPOCH, false));
            }
            if rng.gen_bool(0.3) {
                frames.push((server, Some(LIE), EPOCH + 1, false));
            }
            if rng.gen_bool(0.2) {
                frames.push((server, None, EPOCH + 2, true));
            }
        }
        for &outsider in outsiders.iter().chain([&(n + 40)]) {
            frames.push((outsider, Some(LIE), EPOCH, false));
            frames.push((outsider, None, EPOCH + 2, rng.gen_bool(0.5)));
        }
        frames.shuffle(rng);
        (quorum, b, frames)
    }

    #[test]
    fn admission_invariants_hold_over_random_reply_streams() {
        for seed in 0..500u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (quorum, b, frames) = random_stream(&mut rng);
            let mut op = QuorumOp::start(quorum.clone(), OpKind::Read, EPOCH);
            let mut voted: Vec<usize> = Vec::new();
            for &(server, entry, epoch, stale) in &frames {
                match op.admit(server, entry, epoch, stale) {
                    Admission::Counted { answered } => {
                        assert!(quorum.contains(server), "MEMBER (seed {seed})");
                        assert!(!stale, "FENCE (seed {seed})");
                        assert_eq!(epoch, EPOCH, "EPOCH (seed {seed})");
                        assert!(!voted.contains(&server), "ONE-VOTE (seed {seed})");
                        assert_eq!(answered, entry.is_some());
                        voted.push(server);
                    }
                    Admission::Fenced { current } => {
                        assert!(stale && quorum.contains(server), "FENCE (seed {seed})");
                        assert_eq!(current, epoch, "FENCE reports the server's epoch");
                    }
                    Admission::Ignored => {
                        let strayed = !stale && (epoch != EPOCH || voted.contains(&server));
                        assert!(!quorum.contains(server) || strayed, "seed {seed}");
                    }
                }
                // A deadline here accuses exactly the members without a vote,
                // so a fence or an ignored frame spares no one.
                let unvoted: Vec<usize> = quorum.iter().filter(|s| !voted.contains(s)).collect();
                assert_eq!(
                    op.unanswered().collect::<Vec<_>>(),
                    unvoted,
                    "DEADLINE (seed {seed})"
                );
            }
            // Every member answered somewhere in the stream, so whatever the
            // order the operation completes with exactly one vote each ...
            assert!(op.is_complete(), "seed {seed}");
            voted.sort_unstable();
            assert_eq!(voted, quorum.to_vec(), "seed {seed}");
            // ... and MASKING holds: the ≤ b liars, however often echoed and
            // whoever else repeats their pair, never reach b + 1 votes.
            assert_eq!(op.outcome(b), Ok(Some(HONEST)), "MASKING (seed {seed})");
            assert_eq!(
                mask_votes(&op.votes, b),
                vec![Some(HONEST)],
                "MASKING: the lie is not even safe (seed {seed})"
            );
            // The same stream acknowledges a write — every member echoes an
            // entry — so it completes, and its outcome carries no entry (ACK).
            let mut write = QuorumOp::start(quorum.clone(), OpKind::Write, EPOCH);
            for &(server, entry, epoch, stale) in &frames {
                write.admit(server, entry, epoch, stale);
            }
            assert!(write.is_complete(), "seed {seed}");
            assert_eq!(write.outcome(b), Ok(None), "ACK (seed {seed})");
        }
    }

    #[test]
    fn a_vote_without_an_entry_is_a_no_answer_for_writes_and_reads() {
        let quorum = ServerSet::from_indices(5, [0, 2, 4]);
        let mut write = QuorumOp::start(quorum.clone(), OpKind::Write, 0);
        assert_eq!(
            write.admit(0, Some(HONEST), 0, false),
            Admission::Counted { answered: true }
        );
        assert_eq!(
            write.admit(2, None, 0, false),
            Admission::Counted { answered: false }
        );
        write.admit(4, Some(HONEST), 0, false);
        assert!(write.is_complete());
        assert_eq!(
            write.outcome(1),
            Err(ProtocolError::NoSafeValue),
            "ACK: a write some member did not store did not complete"
        );
        let mut read = QuorumOp::start(quorum, OpKind::Read, 0);
        assert_eq!(
            read.admit(2, None, 0, false),
            Admission::Counted { answered: false }
        );
        assert_eq!(read.unanswered().collect::<Vec<_>>(), vec![0, 4]);
        assert_eq!(read.outcome(1), Err(ProtocolError::NoSafeValue));
    }

    #[test]
    fn restart_forgets_votes_and_take_quorum_leaves_the_op_idle() {
        let second = ServerSet::from_indices(5, [3, 4]);
        let mut op = QuorumOp::start(ServerSet::from_indices(5, [0, 1]), OpKind::Read, 0);
        op.admit(0, Some(HONEST), 0, false);
        op.restart(second.clone(), OpKind::Write, 1);
        assert!(op.is_write() && !op.is_complete());
        assert_eq!(op.admit(0, None, 1, false), Admission::Ignored, "MEMBER");
        assert_eq!(op.admit(3, None, 0, false), Admission::Ignored, "EPOCH");
        op.admit(3, None, 1, false);
        op.admit(4, None, 1, false);
        assert!(op.is_complete());
        assert_eq!(op.take_quorum(), second);
        assert!(op.quorum().is_empty() && op.is_complete());
    }
}
