//! Swap-buffer mailboxes and the reply-completion sink.
//!
//! [`Mailbox`] is the queue a client waits on for its replies, built so that
//! a batch costs one wake, not one per message:
//!
//! * producers lock a plain `Mutex<Vec<T>>`, push, and signal the condvar
//!   **only when the queue was empty and a consumer is parked** — the
//!   consumer counts itself in `parked` under the same lock before it waits,
//!   so a producer that sees zero cannot miss it, and a consumer that drains
//!   a queue it found non-empty costs no wake system call at all;
//! * the consumer swaps the whole queue against its private drain buffer
//!   under one lock acquisition and processes the batch lock-free.
//!
//! A batch of `k` messages therefore costs at most one wake and two lock
//! acquisitions total, instead of `k` of each — and both `Vec`s keep their
//! capacity, so the steady state allocates nothing.
//!
//! [`ReplySink`] is the completion half: a [`crate::transport::Request`]
//! carries an [`ReplyHandle`] (a shared sink), so issuing an operation
//! allocates no channel. [`ReplyMailbox`] is the standard sink — clients
//! drain whole batches of replies per wakeup and match them back by
//! [`crate::transport::Reply::request_id`].
//!
//! Sinks are completed by whichever thread produced the reply, and that can
//! be the *sending* thread: the loopback service applies a request on its
//! caller's thread, and the chaos interposer answers a detected loss on the
//! spot, so a sink may be completed **before** the `send`/`send_batch` call
//! that carried its request returns. Producers hold none of their own locks
//! while they complete a sink, so a sink may re-enter the transport. A
//! producer that has several replies for one sink delivers them through
//! [`ReplySink::complete_batch`] — for a [`ReplyMailbox`] one lock and at
//! most one wake for the whole fan-in ([`complete_runs`] does the grouping).

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::transport::Reply;

/// A multi-producer single-consumer swap-buffer queue (see module docs).
///
/// "Single-consumer" is a usage convention, not a type-level guarantee: any
/// number of threads may call the drain methods, but each drained batch goes
/// to exactly one of them.
#[derive(Debug)]
pub struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct MailboxState<T> {
    queue: Vec<T>,
    closed: bool,
    /// Consumers waiting on the condvar right now.
    parked: usize,
}

impl<T> MailboxState<T> {
    /// Whether a push that found the queue `was_empty` must wake a consumer:
    /// only an empty->non-empty edge with a parked consumer can need one, and
    /// signalling on every push would reintroduce the per-op wake.
    fn needs_wake(&self, was_empty: bool) -> bool {
        was_empty && self.parked > 0
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Mailbox::new()
    }
}

impl<T> Mailbox<T> {
    /// An empty, open mailbox.
    #[must_use]
    pub fn new() -> Self {
        Mailbox {
            state: Mutex::new(MailboxState {
                queue: Vec::new(),
                closed: false,
                parked: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues one item. Returns `false` (dropping the item) when the
    /// mailbox is closed.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.state.lock().expect("mailbox lock");
        if state.closed {
            return false;
        }
        let wake = state.needs_wake(state.queue.is_empty());
        state.queue.push(item);
        drop(state);
        if wake {
            self.available.notify_one();
        }
        true
    }

    /// Enqueues a whole batch under one lock acquisition, draining `items`
    /// (its capacity is kept for reuse). Returns `false` — with `items`
    /// drained and dropped — when the mailbox is closed. All-or-nothing:
    /// a closed mailbox accepts none of the batch.
    pub fn push_batch(&self, items: &mut Vec<T>) -> bool {
        if items.is_empty() {
            return !self.state.lock().expect("mailbox lock").closed;
        }
        let mut state = self.state.lock().expect("mailbox lock");
        if state.closed {
            items.clear();
            return false;
        }
        let was_empty = state.queue.is_empty();
        let wake = state.needs_wake(was_empty);
        if was_empty && state.queue.capacity() < items.capacity() {
            // The producer's buffer is the bigger one: swap instead of copy.
            std::mem::swap(&mut state.queue, items);
        } else {
            state.queue.append(items);
        }
        drop(state);
        if wake {
            self.available.notify_one();
        }
        true
    }

    /// Enqueues a copy of every item of `items` under one lock acquisition.
    /// Returns `false`, enqueuing nothing, when the mailbox is closed.
    fn push_slice(&self, items: &[T]) -> bool
    where
        T: Copy,
    {
        let mut state = self.state.lock().expect("mailbox lock");
        if state.closed {
            return false;
        }
        let wake = state.needs_wake(state.queue.is_empty()) && !items.is_empty();
        state.queue.extend_from_slice(items);
        drop(state);
        if wake {
            self.available.notify_one();
        }
        true
    }

    /// Closes the mailbox: subsequent pushes are refused, and drains return
    /// whatever is still queued before reporting closure.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("mailbox lock");
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Waits up to `timeout` for items, then swaps whatever is queued into
    /// `into` (which must be empty).
    ///
    /// The three-way [`DrainStatus`] distinguishes "empty because quiet" from
    /// "empty because the peer dropped": [`DrainStatus::TimedOut`] means the
    /// producer may still deliver (keep waiting or retry), while
    /// [`DrainStatus::Closed`] means no reply can ever arrive (the producer —
    /// e.g. a connection reader thread — died or shut down), so the caller
    /// should fail over immediately instead of burning its deadline. Backlog
    /// always wins: a closed mailbox with queued items drains them as
    /// [`DrainStatus::Drained`] first and reports closure only once empty.
    pub fn drain_timeout(&self, timeout: Duration, into: &mut Vec<T>) -> DrainStatus {
        debug_assert!(into.is_empty(), "drain buffer must be consumed");
        let mut state = self.state.lock().expect("mailbox lock");
        // Read the clock only on the way to a wait: a drain that finds
        // replies already queued reads none.
        let mut deadline = None;
        while state.queue.is_empty() {
            if state.closed {
                return DrainStatus::Closed;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + timeout);
            if now >= deadline {
                return DrainStatus::TimedOut;
            }
            state.parked += 1;
            let (next, timed_out) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("mailbox lock");
            state = next;
            state.parked -= 1;
            if timed_out.timed_out() && state.queue.is_empty() {
                return if state.closed {
                    DrainStatus::Closed
                } else {
                    DrainStatus::TimedOut
                };
            }
        }
        std::mem::swap(&mut state.queue, into);
        DrainStatus::Drained(into.len())
    }
}

/// Outcome of a [`Mailbox::drain_timeout`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainStatus {
    /// Items were drained into the caller's buffer (count is non-zero).
    Drained(usize),
    /// The deadline passed with nothing queued; the producer is merely quiet
    /// and may still deliver later.
    TimedOut,
    /// The mailbox is closed and empty: the producer is gone and nothing will
    /// ever arrive. Callers should fail fast rather than wait again.
    Closed,
}

impl DrainStatus {
    /// Number of items drained (zero for the empty outcomes).
    #[must_use]
    pub fn count(self) -> usize {
        match self {
            DrainStatus::Drained(n) => n,
            DrainStatus::TimedOut | DrainStatus::Closed => 0,
        }
    }
}

/// A completion sink for [`Reply`]s — what a [`crate::transport::Request`]
/// carries in place of a per-operation channel sender.
///
/// Implementations must be callable from any thread. Delivering to a dead
/// client (a closed mailbox, a torn-down connection) is a silent no-op:
/// exactly the old "reply receiver dropped" semantics.
pub trait ReplySink: Send + Sync + std::fmt::Debug {
    /// Delivers one reply. Must not block beyond a short critical section.
    fn complete(&self, reply: Reply);

    /// Delivers several replies at once, in order. The default is a
    /// [`ReplySink::complete`] loop; sinks that pay a lock or a wake per
    /// delivery override it to pay them once per batch.
    fn complete_batch(&self, replies: &[Reply]) {
        for &reply in replies {
            self.complete(reply);
        }
    }
}

/// A shared, cloneable handle to a reply sink. Cloning is one atomic
/// increment — no channel allocation per operation.
pub type ReplyHandle = Arc<dyn ReplySink>;

/// The standard sink: a swap-buffer mailbox of replies, drained in whole
/// batches by the owning client.
pub type ReplyMailbox = Mailbox<Reply>;

impl ReplySink for ReplyMailbox {
    fn complete(&self, reply: Reply) {
        let _ = self.push(reply);
    }

    fn complete_batch(&self, replies: &[Reply]) {
        let _ = self.push_slice(replies);
    }
}

/// Completes `replies[i]` on `sinks[i]`, with one
/// [`ReplySink::complete_batch`] call per run of consecutive replies that
/// share a sink — a quorum fan-in to one client is one call. Callers hold no
/// lock of their own across this (see the module docs).
///
/// # Panics
///
/// Panics if the two slices differ in length.
pub fn complete_runs(sinks: &[ReplyHandle], replies: &[Reply]) {
    assert_eq!(sinks.len(), replies.len(), "one sink per reply");
    let mut start = 0;
    while start < sinks.len() {
        let sink = &sinks[start];
        let run = sinks[start..]
            .iter()
            .take_while(|other| std::ptr::addr_eq(Arc::as_ptr(sink), Arc::as_ptr(other)))
            .count();
        sink.complete_batch(&replies[start..start + run]);
        start += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Waits for items as a consumer would; false once closed and empty.
    fn drain<T>(mb: &Mailbox<T>, into: &mut Vec<T>) -> bool {
        match mb.drain_timeout(Duration::from_secs(60), into) {
            DrainStatus::Drained(_) => true,
            DrainStatus::Closed => false,
            DrainStatus::TimedOut => panic!("no item arrived"),
        }
    }

    /// Whether nothing is queued, taking nothing that is.
    fn is_empty<T>(mb: &Mailbox<T>) -> bool {
        mb.state.lock().unwrap().queue.is_empty()
    }

    #[test]
    fn push_then_drain_returns_the_whole_batch() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(1));
        assert!(mb.push(2));
        assert!(mb.push(3));
        let mut batch = Vec::new();
        assert!(drain(&mb, &mut batch));
        assert_eq!(batch, vec![1, 2, 3]);
        assert!(is_empty(&mb));
    }

    #[test]
    fn push_batch_moves_everything_and_keeps_the_producer_buffer() {
        let mb: Mailbox<u32> = Mailbox::new();
        let mut producer = vec![7, 8, 9];
        assert!(mb.push_batch(&mut producer));
        assert!(producer.is_empty());
        assert!(producer.capacity() > 0 || mb.state.lock().unwrap().queue.len() == 3);
        let mut batch = Vec::new();
        assert_eq!(
            mb.drain_timeout(Duration::from_millis(10), &mut batch),
            DrainStatus::Drained(3)
        );
        assert_eq!(batch, vec![7, 8, 9]);
    }

    #[test]
    fn close_refuses_pushes_but_drains_the_backlog() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(1));
        mb.close();
        assert!(!mb.push(2));
        let mut stale = vec![3];
        assert!(!mb.push_batch(&mut stale));
        assert!(stale.is_empty(), "a refused batch is dropped, not leaked");
        let mut batch = Vec::new();
        assert!(drain(&mb, &mut batch), "backlog first");
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert!(!drain(&mb, &mut batch), "then closure");
    }

    #[test]
    fn drain_timeout_times_out_empty() {
        let mb: Mailbox<u32> = Mailbox::new();
        let mut batch = Vec::new();
        let started = Instant::now();
        assert_eq!(
            mb.drain_timeout(Duration::from_millis(20), &mut batch),
            DrainStatus::TimedOut
        );
        assert!(started.elapsed() >= Duration::from_millis(15));
        // The timed-out consumer counted itself out: a push finds no one
        // parked and makes no wake, and the next drain still returns it.
        assert_eq!(mb.state.lock().unwrap().parked, 0);
        assert!(!mb.state.lock().unwrap().needs_wake(true));
        assert!(mb.push(4));
        assert_eq!(
            mb.drain_timeout(Duration::from_secs(5), &mut batch),
            DrainStatus::Drained(1)
        );
        assert_eq!(batch, vec![4]);
    }

    #[test]
    fn drain_timeout_distinguishes_closure_from_quiet() {
        // Backlog on a closed mailbox drains first, then closure is reported.
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(5));
        mb.close();
        let mut batch = Vec::new();
        assert_eq!(
            mb.drain_timeout(Duration::from_millis(10), &mut batch),
            DrainStatus::Drained(1)
        );
        assert_eq!(batch, vec![5]);
        batch.clear();
        let status = mb.drain_timeout(Duration::from_secs(5), &mut batch);
        assert_eq!(status, DrainStatus::Closed);
        assert_eq!(status.count(), 0);
    }

    #[test]
    fn reader_thread_death_wakes_a_parked_drainer_with_closed() {
        // Regression for the shutdown-ordering bug: a consumer parked in
        // drain_timeout whose producer (e.g. a connection reader thread) dies
        // mid-wait must learn `Closed` promptly — well before its deadline —
        // instead of timing out ambiguously.
        let mb: Arc<Mailbox<u32>> = Arc::new(Mailbox::new());
        let reader = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                // The reader thread dies: its teardown path closes the mailbox.
                mb.close();
            })
        };
        let mut batch = Vec::new();
        let started = Instant::now();
        let status = mb.drain_timeout(Duration::from_secs(10), &mut batch);
        assert_eq!(status, DrainStatus::Closed);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "closure must preempt the deadline"
        );
        reader.join().unwrap();
    }

    /// Waits (at most 5 s) until a consumer is parked on `mb`.
    fn await_parked<T>(mb: &Mailbox<T>) {
        let started = Instant::now();
        while mb.state.lock().unwrap().parked == 0 {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "the consumer never parked"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_parked_consumer_is_woken_by_every_push() {
        type Push = fn(&ReplyMailbox);
        let pushes: [(&str, Push); 3] = [
            ("push", |mb| assert!(mb.push(reply(1)))),
            ("push_batch", |mb| {
                assert!(mb.push_batch(&mut vec![reply(1)]))
            }),
            ("complete_batch", |mb| mb.complete_batch(&[reply(1)])),
        ];
        for (name, push) in pushes {
            let mb = Arc::new(ReplyMailbox::new());
            let (done, woken) = std::sync::mpsc::channel();
            let consumer = {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    let mut batch = Vec::new();
                    let status = mb.drain_timeout(Duration::from_secs(10), &mut batch);
                    done.send((status == DrainStatus::Drained(1), batch))
                        .unwrap();
                })
            };
            await_parked(&mb);
            push(&mb);
            let (drained, batch) = woken
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{name} left a parked consumer asleep"));
            assert!(drained, "{name}");
            assert_eq!(batch, vec![reply(1)], "{name}");
            consumer.join().unwrap();
            assert_eq!(mb.state.lock().unwrap().parked, 0);
        }
    }

    #[test]
    fn a_ping_pong_through_two_mailboxes_loses_no_wake() {
        const ROUNDS: u64 = 100_000;
        const DEADLINE: Duration = Duration::from_secs(10);
        /// Drains `round`, alone, from `mailbox`. A consumer whose wake is
        /// lost sleeps until its deadline and only then finds the item, so
        /// the drain must also end well before the deadline.
        fn drain_round(mailbox: &Mailbox<u64>, round: u64, batch: &mut Vec<u64>) {
            let started = Instant::now();
            let status = mailbox.drain_timeout(DEADLINE, batch);
            assert_eq!(status, DrainStatus::Drained(1), "round {round}");
            assert!(
                started.elapsed() < DEADLINE / 2,
                "round {round}: the drain waited out its deadline, so its wake was lost"
            );
            assert_eq!(*batch, [round]);
            batch.clear();
        }
        let (ping, pong) = (Arc::new(Mailbox::new()), Arc::new(Mailbox::new()));
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for round in 0..ROUNDS {
                    drain_round(&ping, round, &mut batch);
                    assert!(pong.push(round));
                }
            })
        };
        let mut batch = Vec::new();
        for round in 0..ROUNDS {
            assert!(ping.push(round));
            drain_round(&pong, round, &mut batch);
        }
        echo.join().unwrap();
        assert!(is_empty(&ping) && is_empty(&pong));
    }

    fn reply(request_id: u64) -> Reply {
        Reply {
            server: 0,
            request_id,
            entry: None,
            epoch: 0,
            stale: false,
        }
    }

    #[test]
    fn complete_runs_hands_each_sink_its_consecutive_replies_as_one_batch() {
        /// Records the ids of each delivery it receives.
        #[derive(Debug, Default)]
        struct Recorder(Mutex<Vec<Vec<u64>>>);
        impl ReplySink for Recorder {
            fn complete(&self, reply: Reply) {
                self.0.lock().unwrap().push(vec![reply.request_id]);
            }
            fn complete_batch(&self, replies: &[Reply]) {
                let ids = replies.iter().map(|r| r.request_id).collect();
                self.0.lock().unwrap().push(ids);
            }
        }
        /// Takes the default `complete_batch`.
        #[derive(Debug, Default)]
        struct OneByOne(Mutex<Vec<u64>>);
        impl ReplySink for OneByOne {
            fn complete(&self, reply: Reply) {
                self.0.lock().unwrap().push(reply.request_id);
            }
        }

        let (a, b, c) = (
            Arc::new(Recorder::default()),
            Arc::new(Recorder::default()),
            Arc::new(OneByOne::default()),
        );
        let mailbox = Arc::new(ReplyMailbox::new());
        let sinks: Vec<ReplyHandle> = vec![
            a.clone(),
            a.clone(),
            b.clone(),
            a.clone(),
            c.clone(),
            c.clone(),
            mailbox.clone(),
            mailbox.clone(),
        ];
        let replies: Vec<Reply> = (0..8).map(reply).collect();
        complete_runs(&sinks, &replies);
        assert_eq!(*a.0.lock().unwrap(), vec![vec![0, 1], vec![3]]);
        assert_eq!(*b.0.lock().unwrap(), vec![vec![2]]);
        assert_eq!(*c.0.lock().unwrap(), vec![4, 5], "the default is a loop");
        let mut drained = Vec::new();
        assert_eq!(
            mailbox.drain_timeout(Duration::ZERO, &mut drained),
            DrainStatus::Drained(2)
        );
        assert_eq!(drained, vec![reply(6), reply(7)]);
        complete_runs(&[], &[]);
    }

    #[test]
    fn reply_mailbox_is_a_sink() {
        let mb = Arc::new(ReplyMailbox::new());
        let handle: ReplyHandle = Arc::clone(&mb) as ReplyHandle;
        handle.complete(Reply {
            server: 3,
            request_id: 9,
            entry: None,
            epoch: 0,
            stale: false,
        });
        let mut batch = Vec::new();
        assert!(drain(&mb, &mut batch));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].request_id, 9);
        // Completing into a closed mailbox is a silent no-op.
        mb.close();
        handle.complete(Reply {
            server: 0,
            request_id: 1,
            entry: None,
            epoch: 0,
            stale: false,
        });
        batch.clear();
        assert!(!drain(&mb, &mut batch));
    }
}
