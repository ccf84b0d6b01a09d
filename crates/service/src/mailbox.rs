//! Swap-buffer mailboxes and the reply-completion sink.
//!
//! [`Mailbox`] is the queue a client waits on for its replies, built so that
//! a batch costs one wake, not one per message:
//!
//! * producers lock a plain `Mutex<Vec<T>>`, push, and signal the condvar
//!   **only when the queue was empty** (a consumer might be parked);
//! * the consumer swaps the whole queue against its private drain buffer
//!   under one lock acquisition and processes the batch lock-free.
//!
//! A batch of `k` messages therefore costs one wake and two lock
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
        let was_empty = state.queue.is_empty();
        state.queue.push(item);
        drop(state);
        if was_empty {
            // Only an empty->non-empty transition can have a parked consumer;
            // signalling on every push would reintroduce the per-op wake.
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
        if was_empty && state.queue.capacity() < items.capacity() {
            // The producer's buffer is the bigger one: swap instead of copy.
            std::mem::swap(&mut state.queue, items);
        } else {
            state.queue.append(items);
        }
        drop(state);
        if was_empty {
            self.available.notify_one();
        }
        true
    }

    /// Enqueues a copy of every item of `items` under one lock acquisition.
    /// Returns `false`, enqueuing nothing, when the mailbox is closed.
    pub fn push_slice(&self, items: &[T]) -> bool
    where
        T: Copy,
    {
        let mut state = self.state.lock().expect("mailbox lock");
        if state.closed {
            return false;
        }
        let was_empty = state.queue.is_empty();
        state.queue.extend_from_slice(items);
        drop(state);
        if was_empty && !items.is_empty() {
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

    /// Number of items currently queued (diagnostic).
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("mailbox lock").queue.len()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks until items are available or the mailbox is closed, then swaps
    /// the whole queue into `into` (which must be empty — the caller's drain
    /// buffer). Returns `false` only when the mailbox is closed *and* empty:
    /// the consumer's loop condition.
    pub fn drain_blocking(&self, into: &mut Vec<T>) -> bool {
        debug_assert!(into.is_empty(), "drain buffer must be consumed");
        let mut state = self.state.lock().expect("mailbox lock");
        while state.queue.is_empty() {
            if state.closed {
                return false;
            }
            state = self.available.wait(state).expect("mailbox lock");
        }
        std::mem::swap(&mut state.queue, into);
        true
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
    /// [`DrainStatus::Drained`] first and reports closure only once empty,
    /// mirroring [`Mailbox::drain_blocking`].
    pub fn drain_timeout(&self, timeout: Duration, into: &mut Vec<T>) -> DrainStatus {
        debug_assert!(into.is_empty(), "drain buffer must be consumed");
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("mailbox lock");
        while state.queue.is_empty() {
            if state.closed {
                return DrainStatus::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return DrainStatus::TimedOut;
            }
            let (next, timed_out) = self
                .available
                .wait_timeout(state, deadline - now)
                .expect("mailbox lock");
            state = next;
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

    /// True when the mailbox is known closed (no future delivery possible).
    #[must_use]
    pub fn is_closed(self) -> bool {
        self == DrainStatus::Closed
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

    #[test]
    fn push_then_drain_returns_the_whole_batch() {
        let mb: Mailbox<u32> = Mailbox::new();
        assert!(mb.push(1));
        assert!(mb.push(2));
        assert!(mb.push(3));
        let mut batch = Vec::new();
        assert!(mb.drain_blocking(&mut batch));
        assert_eq!(batch, vec![1, 2, 3]);
        assert!(mb.is_empty());
    }

    #[test]
    fn push_batch_moves_everything_and_keeps_the_producer_buffer() {
        let mb: Mailbox<u32> = Mailbox::new();
        let mut producer = vec![7, 8, 9];
        assert!(mb.push_batch(&mut producer));
        assert!(producer.is_empty());
        assert!(producer.capacity() > 0 || mb.len() == 3);
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
        assert!(mb.drain_blocking(&mut batch), "backlog first");
        assert_eq!(batch, vec![1]);
        batch.clear();
        assert!(!mb.drain_blocking(&mut batch), "then closure");
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
        assert!(status.is_closed());
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

    #[test]
    fn blocked_consumer_is_woken_by_a_producer() {
        let mb: Arc<Mailbox<u32>> = Arc::new(Mailbox::new());
        let producer = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                assert!(mb.push(42));
            })
        };
        let mut batch = Vec::new();
        assert!(mb.drain_blocking(&mut batch));
        assert_eq!(batch, vec![42]);
        producer.join().unwrap();
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
        assert!(mb.drain_blocking(&mut batch));
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
        assert!(!mb.drain_blocking(&mut batch));
    }
}
