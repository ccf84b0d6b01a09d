//! The service's one event loop: every register operation runs in it.
//!
//! An [`EventLoop`] moves the operations of one loop ([`Pending`]) through
//! their attempts. It fans each attempt out to its quorum in one
//! [`Transport::send_batch`], waits for the replies on the loop's one reply
//! mailbox ([`EventLoop::poll`] is the only wait in the crate, and it waits
//! through [`Transport::wait_replies`]), hands every
//! reply to the attempt's sans-I/O core ([`QuorumOp::on_reply`]) and does
//! what the returned [`Action`] says — and at a deadline what
//! [`QuorumOp::on_deadline`] says. A failed attempt is retried after a
//! jittered, doubling backoff, which is a timer of the loop, against a quorum
//! that avoids the members it got no entry from; when the budget is spent
//! the operation ends as a failure.
//!
//! Only the arrival source differs between callers. A
//! [`crate::client::ServiceClient`] is a closed loop with one operation in
//! flight: it launches one and polls until it ends. The open loop launches
//! Poisson arrivals and polls between them. Both keep their request ids
//! ([`Ids`]), origins and random streams. `specs/register/pseudo-code.md` at
//! the repository root states the lifecycle.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bqs_core::bitset::ServerSet;
use bqs_core::quorum::QuorumSystem;
use bqs_sim::client::choose_access_quorum;
use bqs_sim::quorum_op::{Action, Admission, QuorumOp};
use bqs_sim::server::{jitter_factor, Entry};
use rand::Rng;

use crate::client::ServiceError;
use crate::mailbox::{DrainStatus, ReplyHandle, ReplyMailbox};
use crate::metrics::ServiceMetrics;
use crate::transport::{Operation, Reply, Request, Transport};

/// What the operations of one loop share — the system and transport, the
/// failure detector's view, evidence metrics, the retry policy — and the
/// rules that move an operation through its attempts.
pub(crate) struct EventLoop<'a, Q: ?Sized, T: ?Sized> {
    pub(crate) system: &'a Q,
    pub(crate) transport: &'a T,
    pub(crate) responsive: &'a ServerSet,
    pub(crate) metrics: Option<&'a ServiceMetrics>,
    pub(crate) b: usize,
    pub(crate) epoch: u64,
    pub(crate) origin: u64,
    /// How long an attempt waits for its last vote.
    pub(crate) deadline: Duration,
    /// Retries after an operation's first attempt.
    pub(crate) retries: u32,
    /// The first retry's backoff, doubled for each further one.
    pub(crate) backoff: Duration,
}

/// How an operation ended.
#[derive(Debug)]
pub(crate) enum End {
    /// An outcome: complete, fenced, or no live quorum for a retry.
    Outcome(Result<Option<Entry>, ServiceError>),
    /// The budget was spent and the last attempt's send was refused.
    Refused,
    /// The budget was spent and the last attempt went unanswered, or the
    /// reply path closed.
    Silent,
}

/// Request ids: an attempt sends member `k` of its quorum under `first + k`,
/// and a reply belongs to the attempt whose range holds its id. Ranges only
/// grow, so a straggler of an ended attempt matches none.
#[derive(Debug)]
pub(crate) struct Ids {
    /// The next attempt's first id.
    pub(crate) next: u64,
    /// The width of every range: the closed loop's ids are consecutive over
    /// the client's life (`None`: as wide as the quorum), the open loop's are
    /// `tag | seq << bits | k` (`1 << bits`).
    pub(crate) stride: Option<u64>,
}

/// One operation in flight.
#[derive(Debug)]
struct Slot<U> {
    op: QuorumOp,
    request: Operation,
    tag: U,
    /// The current attempt's id range, `first..end`; empty while the
    /// operation waits out a backoff.
    first: u64,
    end: u64,
    /// When the attempt was fanned out: stamped at once when the metrics
    /// time evidence from it, else at the first wait.
    started: Option<Instant>,
    retries: u32,
    /// When the backoff ends.
    retry_at: Option<Instant>,
}

/// The operations of one loop, in id order, and those that ended since the
/// caller last settled them. `U` tags an operation for its caller.
#[derive(Debug)]
pub(crate) struct Pending<U> {
    ids: Ids,
    mailbox: Arc<ReplyMailbox>,
    fanout: Vec<Request>,
    drained: Vec<Reply>,
    slots: VecDeque<Slot<U>>,
    ended: Vec<(U, End, QuorumOp)>,
    /// Cores of settled operations, reused so the steady state allocates no
    /// vote buffer.
    spare: Vec<QuorumOp>,
}

impl<U> Pending<U> {
    pub(crate) fn new(ids: Ids) -> Self {
        Pending {
            ids,
            mailbox: Arc::new(ReplyMailbox::new()),
            fanout: Vec::new(),
            drained: Vec::new(),
            slots: VecDeque::new(),
            ended: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Operations in flight, backoffs included.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The mailbox every reply of the loop is delivered to.
    #[cfg(test)]
    pub(crate) fn mailbox(&self) -> &ReplyMailbox {
        &self.mailbox
    }

    /// Hands every operation that ended to `settle`, with its core: the
    /// quorum of its last attempt and that attempt's votes.
    pub(crate) fn settle(&mut self, mut settle: impl FnMut(U, End, &mut QuorumOp)) {
        for (tag, end, mut op) in self.ended.drain(..) {
            settle(tag, end, &mut op);
            self.spare.push(op);
        }
    }

    /// Ends slot `i`.
    fn end(&mut self, i: usize, end: End) {
        let slot = self.slots.remove(i).expect("slot in range");
        self.ended.push((slot.tag, end, slot.op));
    }

    /// Ends every operation in flight as failed: the reply path closed, or —
    /// `accuse` — the caller stopped waiting (the open loop's tail window),
    /// which is a deadline for each.
    pub(crate) fn end_all(&mut self, metrics: Option<&ServiceMetrics>, accuse: bool) {
        while !self.slots.is_empty() {
            if let Some(metrics) = metrics {
                if accuse {
                    deadline_evidence(metrics, &self.slots[0].op);
                }
                metrics.record_abort();
            }
            self.end(0, End::Silent);
        }
    }
}

/// What an attempt that ended without its outcome leaves as evidence: one
/// timeout, and an accusal of every member without a vote (DEADLINE).
fn deadline_evidence(metrics: &ServiceMetrics, op: &QuorumOp) {
    metrics.record_timeout();
    op.unanswered()
        .for_each(|server| metrics.record_server_no_answer(server));
}

impl<Q: QuorumSystem + ?Sized, T: Transport + ?Sized> EventLoop<'_, Q, T> {
    /// Starts `request` against `quorum`, which the caller drew.
    pub(crate) fn launch<U, R: Rng>(
        &self,
        p: &mut Pending<U>,
        quorum: ServerSet,
        request: Operation,
        tag: U,
        rng: &mut R,
    ) {
        let mut op = p.spare.pop().unwrap_or_default();
        op.restart(quorum, request.kind(), self.epoch);
        p.slots.push_back(Slot {
            op,
            request,
            tag,
            first: 0,
            end: 0,
            started: None,
            retries: 0,
            retry_at: None,
        });
        self.attempt(p, p.slots.len() - 1, rng);
    }

    /// Fans slot `i`'s attempt out to every member of its quorum in one
    /// batch, under a fresh id range.
    fn attempt<U, R: Rng>(&self, p: &mut Pending<U>, i: usize, rng: &mut R) {
        let slot = &mut p.slots[i];
        slot.first = p.ids.next;
        slot.end = slot.first + p.ids.stride.unwrap_or(slot.op.quorum().len() as u64);
        p.ids.next = slot.end;
        slot.started = self.metrics.map(|_| Instant::now());
        let members = slot.op.quorum().iter().enumerate();
        p.fanout.extend(members.map(|(k, server)| Request {
            server,
            op: slot.request,
            request_id: slot.first + k as u64,
            origin: self.origin,
            epoch: self.epoch,
            reply: Arc::clone(&p.mailbox) as ReplyHandle,
        }));
        if !self.transport.send_batch(&mut p.fanout) {
            // Partial delivery is possible; replies of the accepted members
            // are stragglers once the range moves on.
            self.fail(p, i, End::Refused, rng);
        }
    }

    /// Slot `i`'s attempt ended without an outcome — refused, or `Silent`:
    /// its deadline passed or a member voted without an entry, which is one
    /// timeout and an accusal of every member without a vote. Retries it
    /// after the backoff, or ends it once the budget is spent.
    fn fail<U, R: Rng>(&self, p: &mut Pending<U>, i: usize, failure: End, rng: &mut R) {
        let slot = &mut p.slots[i];
        if let (End::Silent, Some(metrics)) = (&failure, self.metrics) {
            deadline_evidence(metrics, &slot.op);
        }
        if slot.retries >= self.retries {
            self.metrics.inspect(|metrics| metrics.record_abort());
            return p.end(i, failure);
        }
        slot.retries += 1;
        self.metrics.inspect(|metrics| metrics.record_retry());
        let base = self.backoff.as_nanos() as u64;
        let doubled = base.saturating_mul(1 << (slot.retries - 1).min(16));
        // Keyed so that concurrent clients desync.
        let key = self.origin ^ (slot.end - 1) ^ u64::from(slot.retries);
        let backoff = Duration::from_nanos((doubled as f64 * jitter_factor(key)) as u64);
        slot.end = slot.first;
        if backoff.is_zero() {
            self.retry(p, i, rng);
        } else {
            slot.retry_at = Some(Instant::now() + backoff);
        }
    }

    /// Slot `i`'s backoff is over: sends the retry to a quorum that avoids
    /// the members the failed attempt got no entry from, or to any quorum of
    /// the view when none does.
    fn retry<U, R: Rng>(&self, p: &mut Pending<U>, i: usize, rng: &mut R) {
        let mut view = self.responsive.clone();
        p.slots[i]
            .op
            .silent()
            .for_each(|server| view.remove(server));
        let chosen = choose_access_quorum(self.system, &view, rng)
            .or_else(|_| choose_access_quorum(self.system, self.responsive, rng));
        match chosen {
            Ok(quorum) => {
                let mut slot = p.slots.remove(i).expect("slot in range");
                slot.retry_at = None;
                slot.op.restart(quorum, slot.request.kind(), self.epoch);
                // The fresh id range is the greatest, so the slot goes last.
                p.slots.push_back(slot);
                self.attempt(p, p.slots.len() - 1, rng);
            }
            Err(e) => p.end(i, End::Outcome(Err(e.into()))),
        }
    }

    /// Waits for replies until `until` (forever when `None`), the next
    /// attempt deadline or the next retry timer, whichever comes first; then
    /// applies them, expires deadlines and fires due retries. Returns false
    /// once the reply path has closed: every operation in flight then ended
    /// [`End::Silent`], and nobody was accused.
    pub(crate) fn poll<U, R: Rng>(
        &self,
        p: &mut Pending<U>,
        until: Option<Instant>,
        rng: &mut R,
    ) -> bool {
        // Replies already queued need no clock, and no transport: the
        // loopback completes a fan-out before `send_batch` returns.
        let mut status = p.mailbox.drain_timeout(Duration::ZERO, &mut p.drained);
        if status == DrainStatus::TimedOut {
            let now = Instant::now();
            let mut next = until.unwrap_or(now + Duration::from_secs(3600));
            for slot in &mut p.slots {
                let due = *slot.started.get_or_insert(now) + self.deadline;
                next = next.min(slot.retry_at.unwrap_or(due));
            }
            let wait = next.saturating_duration_since(now);
            status = self
                .transport
                .wait_replies(&p.mailbox, wait, &mut p.drained);
        }
        if status == DrainStatus::Closed {
            p.end_all(self.metrics, false);
            return false;
        }
        let mut drained = std::mem::take(&mut p.drained);
        for reply in drained.drain(..) {
            self.on_reply(p, reply, rng);
        }
        p.drained = drained;
        if !p.slots.is_empty() {
            self.expire(p, Instant::now(), rng);
        }
        true
    }

    /// Applies one reply to the attempt its id belongs to, if any.
    fn on_reply<U, R: Rng>(&self, p: &mut Pending<U>, reply: Reply, rng: &mut R) {
        let id = reply.request_id;
        // The newest attempt is the likeliest owner, and a closed loop's only.
        let i = match p.slots.back() {
            Some(last) if last.first <= id => p.slots.len() - 1,
            _ => match p.slots.partition_point(|s| s.first <= id).checked_sub(1) {
                Some(i) => i,
                None => return,
            },
        };
        let slot = &mut p.slots[i];
        if id >= slot.end {
            return;
        }
        let (server, b) = (reply.server, self.b);
        let (admission, action) =
            slot.op
                .on_reply(server, reply.entry, reply.epoch, reply.stale, b);
        if let (Admission::Counted { answered }, Some(metrics)) = (admission, self.metrics) {
            let asked = slot
                .started
                .expect("stamped while the metrics time evidence");
            metrics.record_server_vote(server, answered, asked);
        }
        match action {
            Action::Pending => {}
            Action::Complete(outcome) => p.end(i, End::Outcome(outcome.map_err(Into::into))),
            // A signal, not a failure: never retried, since under the
            // retired strategy a retry can only be fenced again.
            Action::Fenced { current } => {
                p.end(i, End::Outcome(Err(ServiceError::EpochFenced { current })));
            }
            Action::Retry => self.fail(p, i, End::Silent, rng),
        }
    }

    /// Expires every attempt whose deadline has passed at `now`
    /// ([`QuorumOp::on_deadline`]), and fires the retries that are due.
    fn expire<U, R: Rng>(&self, p: &mut Pending<U>, now: Instant, rng: &mut R) {
        // Each slot is visited once: one that ends or retries leaves `i` to
        // the next (a retry moves to the back, past the slots left).
        let mut i = 0;
        for _ in 0..p.slots.len() {
            let slot = &p.slots[i];
            match slot.retry_at {
                Some(at) if at <= now => self.retry(p, i, rng),
                None if slot.started.is_some_and(|t| now >= t + self.deadline) => {
                    match slot.op.on_deadline() {
                        Action::Retry => self.fail(p, i, End::Silent, rng),
                        _ => i += 1,
                    }
                }
                _ => i += 1,
            }
        }
    }
}
