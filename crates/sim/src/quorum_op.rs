//! The sans-I/O core of one masking-register operation.
//!
//! A [`QuorumOp`] is one attempt at a read or a write against one quorum
//! under one epoch. `bqs-service`'s event loop chooses the
//! quorum ([`crate::client::choose_access_quorum`]), moves messages, keeps
//! clocks, timers and metrics; whether a reply may count, whom a deadline
//! accuses and how an attempt ends are decided here and nowhere else.
//! [`QuorumOp::on_reply`] and [`QuorumOp::on_deadline`] return the
//! [`Action`] the event loop takes: keep waiting, complete with an outcome, retry
//! against another quorum, or stop at a fence.
//!
//! `specs/register/pseudo-code.md` at the repository root states the
//! operation's lifecycle as pseudo-code with its named properties: MEMBER,
//! FENCE, EPOCH and ONE-VOTE ([`QuorumOp::admit`]), DEADLINE
//! ([`QuorumOp::on_deadline`], [`QuorumOp::unanswered`]), FULL and MASKING
//! ([`QuorumOp::on_reply`], the latter through [`resolve_read`]). The tests
//! below cite each by name.

use bqs_core::bitset::ServerSet;

use crate::client::{resolve_read, ProtocolError};
use crate::server::{Entry, Timestamp};

/// Which half of the register protocol an operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpKind {
    /// Collect every member's entry and keep the freshest with `b + 1`
    /// votes.
    #[default]
    Read,
    /// Collect acknowledgements, each echoing the stored entry.
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

/// How an attempt stands after a reply or a deadline — what the event loop does
/// next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Votes are still missing: keep waiting.
    Pending,
    /// Every member answered with an entry (FULL). The outcome is `None` for
    /// a write and, for a read, the freshest entry with `b + 1` votes
    /// (MASKING) — [`ProtocolError::NoSafeValue`] when no entry has them.
    Complete(Result<Option<Entry>, ProtocolError>),
    /// The attempt ended without an outcome: a member voted without an entry
    /// (FULL), or the deadline passed with votes missing (DEADLINE). The
    /// event loop may try another quorum.
    Retry,
    /// A member fenced the operation (FENCE): the epoch it is stamped with
    /// has been retired.
    Fenced {
        /// The epoch the fencing server reported as current.
        current: u64,
    },
}

/// One attempt's admission state (see the module docs). The default value
/// is an idle operation over the empty quorum.
#[derive(Debug, Clone, Default)]
pub struct QuorumOp {
    quorum: ServerSet,
    kind: OpKind,
    epoch: u64,
    votes: Vec<(usize, Option<Entry>)>,
}

impl QuorumOp {
    /// Arms `self` for an attempt of `kind` against `quorum`, stamped
    /// `epoch`, reusing the vote buffer.
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

    /// Decides whether the reply `(entry, epoch, stale)`, attributed by the
    /// event loop to `server`, counts — MEMBER, FENCE, EPOCH, ONE-VOTE in order.
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

    /// Admits one reply and decides how the attempt stands: fenced, still
    /// pending, or — once every member has voted — complete when every vote
    /// carries an entry and to be retried when one does not (FULL). A read
    /// completes with the freshest entry that has `b + 1` votes (MASKING).
    /// The [`Admission`] is returned too, for the event loop's evidence.
    pub fn on_reply(
        &mut self,
        server: usize,
        entry: Option<Entry>,
        epoch: u64,
        stale: bool,
        b: usize,
    ) -> (Admission, Action) {
        let admission = self.admit(server, entry, epoch, stale);
        let action = match admission {
            Admission::Fenced { current } => Action::Fenced { current },
            Admission::Ignored => Action::Pending,
            Admission::Counted { .. } if self.votes.len() < self.quorum.len() => Action::Pending,
            Admission::Counted { .. } if self.votes.iter().any(|(_, e)| e.is_none()) => {
                Action::Retry
            }
            Admission::Counted { .. } if self.kind == OpKind::Write => Action::Complete(Ok(None)),
            Admission::Counted { .. } => Action::Complete(resolve_read(&self.votes, b).map(Some)),
        };
        (admission, action)
    }

    /// The deadline passed with votes missing: the attempt is abandoned and
    /// the event loop may retry it. Silence is evidence against exactly the
    /// members without a vote, [`QuorumOp::unanswered`] (DEADLINE).
    #[must_use]
    pub fn on_deadline(&self) -> Action {
        Action::Retry
    }

    /// The members without a vote, in quorum order — whom a deadline accuses
    /// (DEADLINE).
    pub fn unanswered(&self) -> impl Iterator<Item = usize> + '_ {
        let voted = |server| self.votes.iter().any(|&(s, _)| s == server);
        self.quorum.iter().filter(move |&server| !voted(server))
    }

    /// The members that gave no entry — no vote yet, or a vote without one —
    /// in quorum order: whom a retry steers around.
    pub fn silent(&self) -> impl Iterator<Item = usize> + '_ {
        let answered = |server| {
            self.votes
                .iter()
                .any(|&(s, entry)| s == server && entry.is_some())
        };
        self.quorum.iter().filter(move |&server| !answered(server))
    }

    /// The `(b + 1)`-st highest timestamp among the entries voted so far, or
    /// `None` with fewer than `b + 1` of them — the timestamp a
    /// query-then-write builds on. Over a complete read, at least `b + 1`
    /// correct members of the last completed write's quorum report its
    /// timestamp or a newer one, so the result is not below it; and `b`
    /// liars cannot raise it past every correct member's timestamp.
    #[must_use]
    pub fn query_timestamp(&self, b: usize) -> Option<Timestamp> {
        let mut timestamps: Vec<Timestamp> = self
            .votes
            .iter()
            .filter_map(|(_, e)| e.map(|e| e.timestamp))
            .collect();
        timestamps.sort_unstable_by(|x, y| y.cmp(x));
        timestamps.get(b).copied()
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

    /// A fresh operation of `kind` against `quorum`, stamped `epoch`.
    fn start(quorum: ServerSet, kind: OpKind, epoch: u64) -> QuorumOp {
        let mut op = QuorumOp::default();
        op.restart(quorum, kind, epoch);
        op
    }
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
            let mut op = start(quorum.clone(), OpKind::Read, EPOCH);
            let mut voted: Vec<usize> = Vec::new();
            let mut ended = None;
            for &(server, entry, epoch, stale) in &frames {
                let (admission, action) = op.on_reply(server, entry, epoch, stale, b);
                match admission {
                    Admission::Counted { answered } => {
                        assert!(quorum.contains(server), "MEMBER (seed {seed})");
                        assert!(!stale, "FENCE (seed {seed})");
                        assert_eq!(epoch, EPOCH, "EPOCH (seed {seed})");
                        assert!(!voted.contains(&server), "ONE-VOTE (seed {seed})");
                        assert_eq!(answered, entry.is_some());
                        voted.push(server);
                        // FULL: only the last member's vote ends the attempt.
                        assert_eq!(
                            action == Action::Pending,
                            voted.len() < quorum.len(),
                            "FULL (seed {seed})"
                        );
                        if action != Action::Pending {
                            ended = Some(action);
                        }
                    }
                    Admission::Fenced { current } => {
                        assert!(stale && quorum.contains(server), "FENCE (seed {seed})");
                        assert_eq!(current, epoch, "FENCE reports the server's epoch");
                        assert_eq!(action, Action::Fenced { current });
                    }
                    Admission::Ignored => {
                        let strayed = !stale && (epoch != EPOCH || voted.contains(&server));
                        assert!(!quorum.contains(server) || strayed, "seed {seed}");
                        assert_eq!(action, Action::Pending);
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
            // order the attempt ends with exactly one vote each ...
            voted.sort_unstable();
            assert_eq!(voted, quorum.to_vec(), "seed {seed}");
            // ... and MASKING holds: the ≤ b liars, however often echoed and
            // whoever else repeats their pair, never reach b + 1 votes.
            assert_eq!(
                ended,
                Some(Action::Complete(Ok(Some(HONEST)))),
                "MASKING (seed {seed})"
            );
            assert_eq!(
                mask_votes(&op.votes, b),
                vec![Some(HONEST)],
                "MASKING: the lie is not even safe (seed {seed})"
            );
            // The same stream acknowledges a write — every member echoes an
            // entry — so it completes, and its outcome carries no entry.
            let mut write = start(quorum.clone(), OpKind::Write, EPOCH);
            let ended = frames
                .iter()
                .map(|&(server, entry, epoch, stale)| {
                    write.on_reply(server, entry, epoch, stale, b)
                })
                .find(|(admission, action)| {
                    matches!(admission, Admission::Counted { .. }) && *action != Action::Pending
                });
            assert_eq!(
                ended.map(|(_, action)| action),
                Some(Action::Complete(Ok(None))),
                "FULL (seed {seed})"
            );
        }
    }

    #[test]
    fn a_vote_without_an_entry_ends_the_attempt_for_writes_and_reads() {
        let quorum = ServerSet::from_indices(5, [0, 2, 4]);
        for kind in [OpKind::Write, OpKind::Read] {
            let mut op = start(quorum.clone(), kind, 0);
            assert_eq!(
                op.on_reply(0, Some(HONEST), 0, false, 1),
                (Admission::Counted { answered: true }, Action::Pending)
            );
            assert_eq!(
                op.on_reply(2, None, 0, false, 1),
                (Admission::Counted { answered: false }, Action::Pending),
                "the attempt waits for every member's vote"
            );
            assert_eq!(op.unanswered().collect::<Vec<_>>(), vec![4]);
            assert_eq!(op.silent().collect::<Vec<_>>(), vec![2, 4]);
            assert_eq!(
                op.on_reply(4, Some(HONEST), 0, false, 1).1,
                Action::Retry,
                "FULL: an attempt some member did not answer has no outcome ({kind:?})"
            );
        }
        // A deadline ends an attempt the same way, whatever the votes so far.
        let op = start(quorum, OpKind::Read, 0);
        assert_eq!(op.on_deadline(), Action::Retry);
    }

    #[test]
    fn a_read_without_b_plus_1_votes_for_any_entry_completes_inconclusive() {
        let quorum = ServerSet::from_indices(5, [0, 1, 2]);
        let mut op = start(quorum, OpKind::Read, 0);
        op.on_reply(0, Some(HONEST), 0, false, 1);
        op.on_reply(1, Some(LIE), 0, false, 1);
        assert_eq!(
            op.on_reply(2, Some(Entry::INITIAL), 0, false, 1).1,
            Action::Complete(Err(ProtocolError::NoSafeValue)),
            "MASKING"
        );
    }

    #[test]
    fn the_query_timestamp_is_the_b_plus_1_st_highest() {
        let quorum = ServerSet::from_indices(5, 0..5);
        let mut op = start(quorum, OpKind::Read, 0);
        let reported = [LIE, HONEST, Entry::INITIAL, HONEST, Entry::INITIAL];
        for (server, entry) in reported.into_iter().enumerate() {
            op.on_reply(server, Some(entry), 0, false, 1);
        }
        // One liar cannot lift it: the second highest is HONEST's.
        assert_eq!(op.query_timestamp(1), Some(HONEST.timestamp));
        assert_eq!(op.query_timestamp(2), Some(HONEST.timestamp));
        assert_eq!(op.query_timestamp(3), Some(0));
        assert_eq!(op.query_timestamp(5), None);
    }

    #[test]
    fn restart_forgets_votes_and_take_quorum_leaves_the_op_idle() {
        let second = ServerSet::from_indices(5, [3, 4]);
        let mut op = start(ServerSet::from_indices(5, [0, 1]), OpKind::Read, 0);
        op.admit(0, Some(HONEST), 0, false);
        op.restart(second.clone(), OpKind::Write, 1);
        assert_eq!(op.kind, OpKind::Write);
        assert_eq!(op.unanswered().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(op.admit(0, None, 1, false), Admission::Ignored, "MEMBER");
        assert_eq!(op.admit(3, None, 0, false), Admission::Ignored, "EPOCH");
        op.admit(3, None, 1, false);
        op.admit(4, None, 1, false);
        assert_eq!(op.unanswered().count(), 0);
        assert_eq!(op.take_quorum(), second);
        assert!(op.quorum().is_empty() && op.unanswered().count() == 0);
    }
}
