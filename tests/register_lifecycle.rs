//! The register operation's lifecycle (`specs/register/pseudo-code.md`),
//! checked end to end through the public API: a `ServiceClient` (the closed
//! loop) and `run_open_loop_session` (the open loop) drive the service's
//! event loop against a scripted transport whose servers each follow one
//! script — correct, crashed, quiet, lying, duplicating, fencing, forging.
//! Every named property (MEMBER, FENCE, EPOCH, ONE-VOTE, FULL, DEADLINE,
//! MASKING, QUERY) and every row of the spec's closed-loop/open-loop table
//! is held to what the client observes: results, the requests on the wire and
//! the failure-detector evidence in `ServiceMetrics`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use byzantine_quorums::prelude::*;

/// What a scripted server does with every request it is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Script {
    /// Keeps the newest entry written to it, acknowledges a write by echoing
    /// it, and reports its entry to reads.
    Correct,
    /// Replies without an entry, as a crashed replica does.
    NoEntry,
    /// Never replies.
    Quiet,
    /// Acknowledges writes without storing them and reports `Entry` to reads.
    Claim(Entry),
    /// As `Claim`, with every reply sent twice.
    ClaimTwice(Entry),
    /// Fences every request, reporting the given epoch as current.
    Fence(u64),
    /// Sends `Entry` stamped with the next epoch, then its correct reply.
    OtherEpochFirst(Entry),
    /// Sends `Entry` in the name of server `usize`, then its correct reply.
    ForgeAs(usize, Entry),
    /// Sends `Entry` under the id its request had `u64` ids earlier, then its
    /// correct reply.
    Straggle(u64, Entry),
    /// Answers its first request correctly after the delay, from another
    /// thread, and every later one at once.
    LateFirst(Duration),
}

/// One request as the transport saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    server: usize,
    request_id: u64,
    origin: u64,
    epoch: u64,
    op: Operation,
    at: Instant,
}

/// A transport whose server `i` follows `scripts[i]`, answering on the
/// sending thread, and which logs every request it accepts.
#[derive(Debug)]
struct Scripted {
    scripts: Vec<Script>,
    stored: Mutex<Vec<Entry>>,
    sent: Mutex<Vec<Sent>>,
    /// Requests still to be answered without an entry, whatever the script.
    no_entry_first: AtomicUsize,
    /// Fan-outs still to be refused.
    refuse_first: AtomicUsize,
    /// The threads delivering late answers.
    late: Mutex<Vec<JoinHandle<()>>>,
}

impl Scripted {
    fn new(scripts: Vec<Script>) -> Self {
        let n = scripts.len();
        Scripted {
            scripts,
            stored: Mutex::new(vec![Entry::INITIAL; n]),
            sent: Mutex::new(Vec::new()),
            no_entry_first: AtomicUsize::new(0),
            refuse_first: AtomicUsize::new(0),
            late: Mutex::new(Vec::new()),
        }
    }

    fn correct(n: usize) -> Self {
        Scripted::new(vec![Script::Correct; n])
    }

    fn with_stored(self, stored: &[Entry]) -> Self {
        self.stored.lock().unwrap().copy_from_slice(stored);
        self
    }

    fn answering_first_without_an_entry(self, requests: usize) -> Self {
        self.no_entry_first.store(requests, Ordering::SeqCst);
        self
    }

    fn refusing_first(self, fan_outs: usize) -> Self {
        self.refuse_first.store(fan_outs, Ordering::SeqCst);
        self
    }

    fn sent(&self) -> Vec<Sent> {
        self.sent.lock().unwrap().clone()
    }

    /// Waits until every late answer has been delivered.
    fn join_late(&self) {
        for thread in self.late.lock().unwrap().drain(..) {
            thread.join().unwrap();
        }
    }

    fn stored(&self) -> Vec<Entry> {
        self.stored.lock().unwrap().clone()
    }

    /// Applies `op` to server `s`'s replica, which keeps the entry with the
    /// greater timestamp: a read reports the stored entry, a write is
    /// acknowledged by echoing it.
    fn serve(&self, s: usize, op: Operation) -> Entry {
        let mut stored = self.stored.lock().unwrap();
        match op {
            Operation::Write(entry) => {
                if entry.timestamp > stored[s].timestamp {
                    stored[s] = entry;
                }
                entry
            }
            Operation::Read => stored[s],
        }
    }
}

/// Takes one unit from `counter` if any is left.
fn take_one(counter: &AtomicUsize) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

impl Transport for Scripted {
    fn universe_size(&self) -> usize {
        self.scripts.len()
    }

    fn send(&self, request: Request) -> bool {
        let s = request.server;
        let mut sent = self.sent.lock().unwrap();
        sent.push(Sent {
            server: s,
            request_id: request.request_id,
            origin: request.origin,
            epoch: request.epoch,
            op: request.op,
            at: Instant::now(),
        });
        let first_to_s = sent.iter().filter(|sent| sent.server == s).count() == 1;
        drop(sent);
        let reply = |server, request_id, entry, epoch, stale| Reply {
            server,
            request_id,
            entry,
            epoch,
            stale,
        };
        let (id, epoch) = (request.request_id, request.epoch);
        let answer = |entry| request.reply.complete(reply(s, id, entry, epoch, false));
        if take_one(&self.no_entry_first) {
            answer(None);
            return true;
        }
        let claimed = |entry| match request.op {
            Operation::Write(written) => written,
            Operation::Read => entry,
        };
        match self.scripts[s] {
            Script::Correct => answer(Some(self.serve(s, request.op))),
            Script::NoEntry => answer(None),
            Script::Quiet => {}
            Script::Claim(entry) => answer(Some(claimed(entry))),
            Script::ClaimTwice(entry) => {
                answer(Some(claimed(entry)));
                answer(Some(claimed(entry)));
            }
            Script::Fence(current) => {
                request.reply.complete(reply(s, id, None, current, true));
            }
            Script::OtherEpochFirst(entry) => {
                request
                    .reply
                    .complete(reply(s, id, Some(entry), epoch + 1, false));
                answer(Some(self.serve(s, request.op)));
            }
            Script::ForgeAs(other, entry) => {
                request
                    .reply
                    .complete(reply(other, id, Some(entry), epoch, false));
                answer(Some(self.serve(s, request.op)));
            }
            Script::Straggle(back, entry) => {
                if let Some(old) = id.checked_sub(back) {
                    request
                        .reply
                        .complete(reply(s, old, Some(entry), epoch, false));
                }
                answer(Some(self.serve(s, request.op)));
            }
            Script::LateFirst(delay) if first_to_s => {
                let late = reply(s, id, Some(self.serve(s, request.op)), epoch, false);
                self.late.lock().unwrap().push(thread::spawn(move || {
                    thread::sleep(delay);
                    request.reply.complete(late);
                }));
            }
            Script::LateFirst(_) => answer(Some(self.serve(s, request.op))),
        }
        true
    }

    fn send_batch(&self, requests: &mut Vec<Request>) -> bool {
        if take_one(&self.refuse_first) {
            requests.clear();
            return false;
        }
        let mut ok = true;
        for request in requests.drain(..) {
            ok &= self.send(request);
        }
        ok
    }
}

/// The entry the writer stores under `timestamp`.
fn written(timestamp: u64) -> Entry {
    Entry {
        timestamp,
        value: authentic_value(timestamp),
    }
}

/// A pair no writer made, fresher than every written one.
const FABRICATED: Entry = Entry {
    timestamp: 1_000,
    value: 0xBAD,
};

/// The `b = 1` masking threshold: quorums are 4 of 5 servers.
fn threshold() -> ThresholdSystem {
    ThresholdSystem::minimal_masking(1).unwrap()
}

fn view(n: usize, servers: &[usize]) -> ServerSet {
    ServerSet::from_indices(n, servers.iter().copied())
}

fn metrics(n: usize) -> Arc<ServiceMetrics> {
    Arc::new(ServiceMetrics::new(n))
}

/// The log split into fan-outs of `q` requests each.
fn fan_outs(sent: &[Sent], q: usize) -> Vec<Vec<Sent>> {
    assert_eq!(sent.len() % q, 0, "whole fan-outs: {sent:?}");
    sent.chunks(q).map(<[Sent]>::to_vec).collect()
}

fn servers(fan_out: &[Sent]) -> Vec<usize> {
    fan_out.iter().map(|s| s.server).collect()
}

// ---------------------------------------------------------------------------
// The closed loop: `ServiceClient`.
// ---------------------------------------------------------------------------

#[test]
fn replies_forged_in_the_name_of_non_members_are_not_votes() {
    // MEMBER: servers 0 and 1 also answer in the name of servers 5 and 6,
    // which the quorum {0..4} does not hold. Counted, the two forged votes
    // would put the fabricated pair at b + 1.
    let system = ThresholdSystem::new(7, 5).unwrap();
    let mut scripts = vec![Script::Correct; 7];
    scripts[0] = Script::ForgeAs(5, FABRICATED);
    scripts[1] = Script::ForgeAs(6, FABRICATED);
    let transport = Scripted::new(scripts);
    let mut client = ServiceClient::new(&system, &transport, view(7, &[0, 1, 2, 3, 4]), 1);
    let mut rng = StdRng::seed_from_u64(1);
    client.write(written(1), &mut rng).unwrap();
    let read = client.read(&mut rng).unwrap();
    assert_eq!(read.entry, written(1));
    assert_eq!(read.quorum, view(7, &[0, 1, 2, 3, 4]));
}

#[test]
fn a_fence_ends_the_operation_with_the_servers_epoch_and_is_never_retried() {
    // FENCE: the first fence ends the operation; no vote is counted for it,
    // nobody is accused and the retry budget is not touched.
    let mut scripts = vec![Script::Correct; 5];
    scripts[2] = Script::Fence(7);
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_retries(5, Duration::ZERO)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(2);
    assert_eq!(
        client.read(&mut rng).unwrap_err(),
        ServiceError::EpochFenced { current: 7 }
    );
    assert_eq!(transport.sent().len(), 4, "one fan-out, no retry");
    let snapshot = m.snapshot();
    assert_eq!((snapshot.retries, snapshot.timeouts), (0, 0));
    assert_eq!(snapshot.server_no_answers, vec![0; 5]);
    assert_eq!(snapshot.server_answers[2], 0, "a fence is not an answer");
}

#[test]
fn replies_stamped_with_another_epoch_are_not_votes() {
    // EPOCH: every server first answers the fabricated pair under the next
    // epoch, then its own entry under the operation's. Counted, the
    // other-epoch replies would decide the read.
    let transport = Scripted::new(vec![Script::OtherEpochFirst(FABRICATED); 5]);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1).with_epoch(3);
    let mut rng = StdRng::seed_from_u64(3);
    let quorum = client.write(written(4), &mut rng).unwrap();
    for server in quorum.iter() {
        assert_eq!(transport.stored()[server], written(4));
    }
    assert_eq!(client.read(&mut rng).unwrap().entry, written(4));
}

#[test]
fn a_duplicated_reply_is_one_vote() {
    // ONE-VOTE: a liar sends the fabricated pair twice; its second copy
    // would give the pair b + 1 = 2 votes.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::ClaimTwice(FABRICATED);
    let transport = Scripted::new(scripts);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(4);
    client.write(written(2), &mut rng).unwrap();
    for _ in 0..5 {
        assert_eq!(client.read(&mut rng).unwrap().entry, written(2));
    }
}

#[test]
fn a_member_without_an_entry_fails_the_attempt_and_the_retry_avoids_it() {
    // FULL: server 4 is crashed but still in the view. An attempt whose
    // quorum holds it ends with one timeout once every member voted, its
    // no-answer is recorded once, and the retry goes to a quorum without it.
    let mut scripts = vec![Script::Correct; 5];
    scripts[4] = Script::NoEntry;
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1)
        .with_retries(3, Duration::ZERO)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(5);
    client.write(written(1), &mut rng).unwrap();
    for _ in 0..30 {
        let read = client.read(&mut rng).unwrap();
        assert_eq!(read.entry, written(1));
        assert!(!read.quorum.contains(4), "resolved over {:?}", read.quorum);
    }
    let holding_4 = fan_outs(&transport.sent(), 4)
        .iter()
        .filter(|f| servers(f).contains(&4))
        .count() as u64;
    assert!(holding_4 > 0, "the sampled quorums never held server 4");
    let snapshot = m.snapshot();
    assert_eq!(snapshot.timeouts, holding_4);
    assert_eq!(snapshot.retries, holding_4);
    assert_eq!(snapshot.aborts, 0);
    assert_eq!(snapshot.server_no_answers, vec![0, 0, 0, 0, holding_4]);
}

#[test]
fn without_a_retry_budget_a_member_without_an_entry_fails_reads_and_writes() {
    // FULL, for reads and writes alike: the one quorum of the view holds a
    // crashed server, so neither operation has an outcome.
    let mut scripts = vec![Script::Correct; 5];
    scripts[3] = Script::NoEntry;
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(6);
    assert_eq!(
        client.write(written(1), &mut rng).unwrap_err(),
        ServiceError::TransportFailure
    );
    assert_eq!(
        client.read(&mut rng).unwrap_err(),
        ServiceError::TransportFailure
    );
    let snapshot = m.snapshot();
    assert_eq!((snapshot.timeouts, snapshot.aborts), (2, 2));
    assert_eq!(snapshot.retries, 0);
    assert_eq!(snapshot.server_no_answers, vec![0, 0, 0, 2, 0]);
}

#[test]
fn a_quiet_member_is_the_only_one_accused_at_the_deadline() {
    // DEADLINE: the attempt ends at its deadline with one timeout, and only
    // the member without a vote is accused.
    let mut scripts = vec![Script::Correct; 5];
    scripts[1] = Script::Quiet;
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let deadline = Duration::from_millis(30);
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_reply_deadline(deadline)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(7);
    let started = Instant::now();
    assert_eq!(
        client.read(&mut rng).unwrap_err(),
        ServiceError::TransportFailure
    );
    assert!(started.elapsed() >= deadline);
    let snapshot = m.snapshot();
    assert_eq!((snapshot.timeouts, snapshot.aborts), (1, 1));
    assert_eq!(snapshot.server_no_answers, vec![0, 1, 0, 0, 0]);
    assert_eq!(snapshot.server_answers, vec![1, 0, 1, 1, 0]);
}

#[test]
fn a_quiet_member_is_routed_around_after_its_deadline() {
    // DEADLINE, then a retry against a quorum avoiding the quiet member.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::Quiet;
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1)
        .with_reply_deadline(Duration::from_millis(20))
        .with_retries(2, Duration::ZERO)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(8);
    for timestamp in 1..=6 {
        let quorum = client.write(written(timestamp), &mut rng).unwrap();
        assert!(!quorum.contains(0));
        assert_eq!(client.read(&mut rng).unwrap().entry, written(timestamp));
    }
    let holding_0 = fan_outs(&transport.sent(), 4)
        .iter()
        .filter(|f| servers(f).contains(&0))
        .count() as u64;
    assert!(holding_0 > 0, "the sampled quorums never held server 0");
    let snapshot = m.snapshot();
    assert_eq!(
        (snapshot.timeouts, snapshot.retries),
        (holding_0, holding_0)
    );
    assert_eq!(snapshot.server_no_answers, vec![holding_0, 0, 0, 0, 0]);
}

#[test]
fn b_colluding_liars_never_decide_a_read() {
    // MASKING: with b = 2, two liars agreeing on a fresher pair give it b
    // votes, one short of deciding the read.
    let system = ThresholdSystem::minimal_masking(2).unwrap();
    let mut scripts = vec![Script::Correct; 9];
    scripts[0] = Script::Claim(FABRICATED);
    scripts[5] = Script::Claim(FABRICATED);
    let transport = Scripted::new(scripts);
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(9), 2);
    let mut rng = StdRng::seed_from_u64(9);
    for timestamp in 1..=10 {
        client.write(written(timestamp), &mut rng).unwrap();
        assert_eq!(client.read(&mut rng).unwrap().entry, written(timestamp));
    }
}

#[test]
fn b_plus_1_colluding_liars_decide_a_read() {
    // The bound is tight: b + 1 liars in the quorum reach the b + 1 votes
    // MASKING asks for, and their fresher pair wins.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::Claim(FABRICATED);
    scripts[1] = Script::Claim(FABRICATED);
    let transport = Scripted::new(scripts);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(10);
    client.write(written(1), &mut rng).unwrap();
    assert_eq!(client.read(&mut rng).unwrap().entry, FABRICATED);
}

#[test]
fn a_read_without_a_b_plus_1_supported_entry_has_no_safe_value() {
    // MASKING: every member reports a different entry.
    let stored = [written(1), written(2), written(3), written(4), written(5)];
    let transport = Scripted::correct(5).with_stored(&stored);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(11);
    assert_eq!(
        client.read(&mut rng).unwrap_err(),
        ServiceError::Protocol(ProtocolError::NoSafeValue)
    );
}

#[test]
fn write_after_query_writes_above_the_b_plus_1_st_highest_timestamp() {
    // QUERY: the liar's timestamp 50 is the highest, so the (b + 1)-st
    // highest, 5, is the query's t; writer 1 of 3 owns 7 as the next
    // timestamp above it, and every member stores the write.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::Claim(written(50));
    let stored = [written(50), written(5), written(5), written(4), written(0)];
    let transport = Scripted::new(scripts).with_stored(&stored);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(12);
    let entry = client.write_after_query(99, 1, 3, &mut rng).unwrap();
    assert_eq!(
        entry,
        Entry {
            timestamp: 7,
            value: 99
        }
    );
    assert_eq!(&transport.stored()[1..4], &[entry; 3]);
    assert_eq!(client.read(&mut rng).unwrap().entry, entry);
}

#[test]
fn write_after_query_proceeds_when_the_query_has_no_safe_value() {
    // QUERY: a query whose entries have no b + 1-supported value still has
    // its t — here 6, the second highest of {50, 6, 5, 4} — and writer 0 of
    // 2 writes above it.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::Claim(written(50));
    let stored = [written(50), written(6), written(5), written(4), written(0)];
    let transport = Scripted::new(scripts).with_stored(&stored);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(13);
    let entry = client.write_after_query(7, 0, 2, &mut rng).unwrap();
    assert_eq!(entry.timestamp, 8);
    assert_eq!(client.read(&mut rng).unwrap().entry, entry);
}

#[test]
fn closed_loop_request_ids_are_consecutive_over_the_clients_life() {
    // Member k of an attempt's quorum is sent `first + k`, and `first` is
    // the previous attempt's end, retries included.
    let transport = Scripted::correct(5).answering_first_without_an_entry(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1)
        .with_retries(2, Duration::ZERO);
    let mut rng = StdRng::seed_from_u64(14);
    client.write(written(1), &mut rng).unwrap();
    client.read(&mut rng).unwrap();
    client.read(&mut rng).unwrap();
    let sent = transport.sent();
    let ids: Vec<u64> = sent.iter().map(|s| s.request_id).collect();
    assert_eq!(ids, (1..=sent.len() as u64).collect::<Vec<_>>());
    let attempts = fan_outs(&sent, 4);
    assert!(attempts.len() > 3, "no retry happened: {attempts:?}");
    for attempt in &attempts {
        let members = servers(attempt);
        assert!(members.windows(2).all(|w| w[0] < w[1]), "{members:?}");
    }
}

#[test]
fn a_straggler_of_an_earlier_attempt_never_votes() {
    // Servers 0 and 1 answer every request a second time under the id they
    // were sent one operation earlier, with a fresher pair. A reply whose id
    // no attempt in flight holds matches nothing, so the two stragglers
    // never reach b + 1 votes.
    let mut scripts = vec![Script::Correct; 5];
    scripts[0] = Script::Straggle(4, FABRICATED);
    scripts[1] = Script::Straggle(4, FABRICATED);
    let transport = Scripted::new(scripts);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1);
    let mut rng = StdRng::seed_from_u64(15);
    for timestamp in 1..=5 {
        client.write(written(timestamp), &mut rng).unwrap();
        assert_eq!(client.read(&mut rng).unwrap().entry, written(timestamp));
    }
}

#[test]
fn retry_backoff_doubles_and_is_waited_out_between_attempts() {
    // The first two attempts get no entry from anyone. The retries wait at
    // least half the base backoff, then at least the base backoff: the
    // jitter factor lies in [0.5, 1.5) and the backoff doubles per retry.
    let transport = Scripted::correct(5).answering_first_without_an_entry(8);
    let m = metrics(5);
    let system = threshold();
    let backoff = Duration::from_millis(20);
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_retries(3, backoff)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(16);
    assert_eq!(client.read(&mut rng).unwrap().entry, Entry::INITIAL);
    let attempts = fan_outs(&transport.sent(), 4);
    assert_eq!(attempts.len(), 3);
    let gap = |i: usize| attempts[i][0].at.duration_since(attempts[i - 1][3].at);
    assert!(gap(1) >= backoff / 2, "first backoff {:?}", gap(1));
    assert!(gap(2) >= backoff, "second backoff {:?}", gap(2));
    let snapshot = m.snapshot();
    assert_eq!((snapshot.retries, snapshot.timeouts), (2, 2));
    assert_eq!(snapshot.aborts, 0);
    assert_eq!(snapshot.server_no_answers, vec![2, 2, 2, 2, 0]);
}

#[test]
fn a_reply_arriving_during_the_backoff_is_not_a_vote() {
    // Server 3 answers the first attempt after its deadline, while the
    // operation waits out its backoff. The attempt has ended, so the late
    // answer must not complete it: the retry is still sent, and completes.
    let mut scripts = vec![Script::Correct; 5];
    scripts[3] = Script::LateFirst(Duration::from_millis(150));
    let transport = Scripted::new(scripts);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_reply_deadline(Duration::from_millis(10))
        .with_retries(1, Duration::from_millis(400))
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(23);
    assert_eq!(client.read(&mut rng).unwrap().entry, Entry::INITIAL);
    transport.join_late();
    assert_eq!(fan_outs(&transport.sent(), 4).len(), 2);
    let snapshot = m.snapshot();
    assert_eq!(
        (snapshot.timeouts, snapshot.retries, snapshot.aborts),
        (1, 1, 0)
    );
    assert_eq!(snapshot.server_no_answers, vec![0, 0, 0, 1, 0]);
}

#[test]
fn every_request_carries_the_clients_origin_and_epoch() {
    let transport = Scripted::correct(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1)
        .with_origin(42)
        .with_epoch(3);
    let mut rng = StdRng::seed_from_u64(17);
    client.write(written(1), &mut rng).unwrap();
    client.read(&mut rng).unwrap();
    client.write_after_query(5, 0, 1, &mut rng).unwrap();
    let sent = transport.sent();
    assert_eq!(sent.len(), 16);
    assert!(
        sent.iter().all(|s| s.origin == 42 && s.epoch == 3),
        "{sent:?}"
    );
}

#[test]
fn a_write_completes_with_every_member_storing_the_entry() {
    // A write acknowledgement echoes the stored entry; the write returns
    // the quorum that acknowledged it, and only its members were sent it.
    let transport = Scripted::correct(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1);
    let mut rng = StdRng::seed_from_u64(18);
    let quorum = client.write(written(3), &mut rng).unwrap();
    assert_eq!(quorum.len(), 4);
    let sent = transport.sent();
    assert_eq!(servers(&sent), quorum.iter().collect::<Vec<_>>());
    assert!(sent.iter().all(|s| s.op == Operation::Write(written(3))));
    for (server, entry) in transport.stored().into_iter().enumerate() {
        let expected = if quorum.contains(server) {
            written(3)
        } else {
            Entry::INITIAL
        };
        assert_eq!(entry, expected, "server {server}");
    }
}

#[test]
fn a_refused_fan_out_is_retried_without_a_timeout() {
    // A refusal is not a quiet deadline: the retry is counted, nobody is
    // accused and no timeout is recorded.
    let transport = Scripted::correct(5).refusing_first(1);
    let m = metrics(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, ServerSet::full(5), 1)
        .with_retries(1, Duration::ZERO)
        .with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(19);
    client.write(written(1), &mut rng).unwrap();
    assert_eq!(
        transport.sent().len(),
        4,
        "the refused fan-out reached no one"
    );
    let snapshot = m.snapshot();
    assert_eq!(
        (snapshot.retries, snapshot.timeouts, snapshot.aborts),
        (1, 0, 0)
    );
    assert_eq!(snapshot.server_no_answers, vec![0; 5]);
}

#[test]
fn a_refused_fan_out_without_a_budget_aborts_the_operation() {
    let transport = Scripted::correct(5).refusing_first(1);
    let m = metrics(5);
    let system = threshold();
    let mut client =
        ServiceClient::new(&system, &transport, ServerSet::full(5), 1).with_metrics(Arc::clone(&m));
    let mut rng = StdRng::seed_from_u64(20);
    assert_eq!(
        client.read(&mut rng).unwrap_err(),
        ServiceError::TransportFailure
    );
    let snapshot = m.snapshot();
    assert_eq!(
        (snapshot.retries, snapshot.timeouts, snapshot.aborts),
        (0, 0, 1)
    );
    // The next operation is unaffected.
    assert_eq!(client.read(&mut rng).unwrap().entry, Entry::INITIAL);
}

#[test]
fn a_view_without_a_quorum_sends_nothing() {
    let transport = Scripted::correct(5);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2]), 1);
    let mut rng = StdRng::seed_from_u64(21);
    assert_eq!(
        client.write(written(1), &mut rng).unwrap_err(),
        ServiceError::Protocol(ProtocolError::NoLiveQuorum)
    );
    assert!(transport.sent().is_empty());
}

#[test]
fn a_retry_falls_back_to_the_whole_view_when_avoiding_the_silent_leaves_no_quorum() {
    // The view holds exactly one quorum. Its first member answers the first
    // attempt without an entry; the view less that member holds no quorum,
    // so the retry goes to the same quorum again, and completes.
    let transport = Scripted::correct(5).answering_first_without_an_entry(1);
    let system = threshold();
    let mut client = ServiceClient::new(&system, &transport, view(5, &[0, 1, 2, 3]), 1)
        .with_retries(1, Duration::ZERO);
    let mut rng = StdRng::seed_from_u64(22);
    assert_eq!(client.read(&mut rng).unwrap().entry, Entry::INITIAL);
    let attempts = fan_outs(&transport.sent(), 4);
    assert_eq!(attempts.len(), 2);
    assert_eq!(servers(&attempts[0]), vec![0, 1, 2, 3]);
    assert_eq!(servers(&attempts[1]), vec![0, 1, 2, 3]);
}

// ---------------------------------------------------------------------------
// The open loop: `run_open_loop_session`.
// ---------------------------------------------------------------------------

/// A short, fast open-loop run of `arrivals` operations on `workers`
/// workers, with the given deadlines.
fn open_loop(arrivals: usize, workers: usize, op: Duration, tail: Duration) -> OpenLoopConfig {
    OpenLoopConfig {
        offered_rate: 50_000.0,
        total_arrivals: arrivals,
        workers,
        virtual_clients: 4,
        write_fraction: 0.5,
        max_in_flight_per_worker: 1_024,
        op_deadline: op,
        tail_deadline: tail,
        seed: 0x5eed,
    }
}

#[test]
fn the_open_loop_never_retries_a_member_without_an_entry() {
    // FULL in the open loop: an operation some member answered without an
    // entry ends as timed out — one timeout, one abort, no retry.
    let transport = Scripted::new(vec![Script::NoEntry; 5]);
    let m = ServiceMetrics::new(5);
    let session = OpenLoopSession {
        metrics: Some(&m),
        ..OpenLoopSession::default()
    };
    let config = open_loop(40, 1, Duration::from_secs(10), Duration::from_secs(10));
    let system = threshold();
    let report = run_open_loop_session(
        &system,
        1,
        &transport,
        &ServerSet::full(5),
        &config,
        &session,
    );
    assert_eq!(report.timed_out, 40);
    assert_eq!(report.completed(), 0);
    assert_eq!(transport.sent().len(), 40 * 4, "one attempt per operation");
    let snapshot = m.snapshot();
    assert_eq!(snapshot.retries, 0);
    assert_eq!((snapshot.timeouts, snapshot.aborts), (40, 40));
    assert_eq!(snapshot.server_no_answers.iter().sum::<u64>(), 40 * 4);
}

#[test]
fn open_loop_request_ids_carry_their_worker_and_stay_unique() {
    // Worker w sends under origin w + 1, and its ids carry w + 1 above bit
    // 48, so two workers' ids never collide.
    let transport = Scripted::correct(5);
    let config = open_loop(200, 2, Duration::from_secs(10), Duration::from_secs(10));
    let system = threshold();
    let report = run_open_loop_session(
        &system,
        1,
        &transport,
        &ServerSet::full(5),
        &config,
        &OpenLoopSession::default(),
    );
    assert_eq!(report.completed(), 200);
    assert!(report.is_safe());
    let sent = transport.sent();
    assert_eq!(sent.len(), 200 * 4);
    let ids: HashSet<u64> = sent.iter().map(|s| s.request_id).collect();
    assert_eq!(ids.len(), sent.len(), "an id was sent twice");
    let origins: HashSet<u64> = sent.iter().map(|s| s.origin).collect();
    assert_eq!(origins, HashSet::from([1, 2]));
    assert!(sent.iter().all(|s| s.request_id >> 48 == s.origin));
}

#[test]
fn open_loop_operations_left_at_the_tail_accuse_their_silent_members() {
    // Nobody answers and the per-operation deadline is far away: the tail
    // window ends every operation, each one timeout, one abort and an
    // accusal of each of its members.
    let transport = Scripted::new(vec![Script::Quiet; 5]);
    let m = ServiceMetrics::new(5);
    let session = OpenLoopSession {
        metrics: Some(&m),
        ..OpenLoopSession::default()
    };
    let config = open_loop(8, 1, Duration::from_secs(60), Duration::from_millis(30));
    let system = threshold();
    let report = run_open_loop_session(
        &system,
        1,
        &transport,
        &ServerSet::full(5),
        &config,
        &session,
    );
    assert_eq!(report.timed_out, 8);
    let snapshot = m.snapshot();
    assert_eq!(
        (snapshot.timeouts, snapshot.aborts, snapshot.retries),
        (8, 8, 0)
    );
    let mut sent_to = vec![0u64; 5];
    for s in transport.sent() {
        sent_to[s.server] += 1;
    }
    assert_eq!(snapshot.server_no_answers, sent_to);
}

#[test]
fn open_loop_operations_expire_at_their_own_deadline() {
    // Nobody answers and the tail window is a minute long: each operation
    // ends at its own deadline, so the run does not wait out the tail.
    let transport = Scripted::new(vec![Script::Quiet; 5]);
    let m = ServiceMetrics::new(5);
    let session = OpenLoopSession {
        metrics: Some(&m),
        ..OpenLoopSession::default()
    };
    let config = open_loop(8, 1, Duration::from_millis(30), Duration::from_secs(60));
    let system = threshold();
    let started = Instant::now();
    let report = run_open_loop_session(
        &system,
        1,
        &transport,
        &ServerSet::full(5),
        &config,
        &session,
    );
    assert!(started.elapsed() < Duration::from_secs(30));
    assert_eq!(report.timed_out, 8);
    let snapshot = m.snapshot();
    assert_eq!((snapshot.timeouts, snapshot.aborts), (8, 8));
    assert_eq!(snapshot.server_no_answers.iter().sum::<u64>(), 8 * 4);
}

#[test]
fn the_open_loop_masks_a_liar_and_judges_every_read_safe() {
    // MASKING in the open loop: a liar claiming a fresher pair in every
    // quorum it joins never decides a read, so no read is a violation.
    let mut scripts = vec![Script::Correct; 5];
    scripts[2] = Script::Claim(FABRICATED);
    let transport = Scripted::new(scripts);
    let config = open_loop(200, 2, Duration::from_secs(10), Duration::from_secs(10));
    let system = threshold();
    let report = run_open_loop_session(
        &system,
        1,
        &transport,
        &ServerSet::full(5),
        &config,
        &OpenLoopSession::default(),
    );
    assert_eq!(report.completed(), 200);
    assert_eq!(report.timed_out, 0);
    assert!(report.completed_reads > 0);
    assert_eq!(report.safety_violations, 0);
}
