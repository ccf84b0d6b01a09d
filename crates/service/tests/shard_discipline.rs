//! The loopback's shard discipline: requests run on their sender's thread
//! under one shard lock, and sinks are completed with no shard lock held.
//! These pin what that has to guarantee under concurrent senders: exactly
//! one reply per accepted request, per-shard order, fencing before the
//! replica.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use bqs_service::prelude::*;
use bqs_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 12;
const SHARDS: usize = 3;

fn request(
    server: usize,
    op: Operation,
    request_id: u64,
    epoch: u64,
    reply: &Arc<ReplyMailbox>,
) -> Request {
    Request {
        server,
        op,
        request_id,
        origin: 0,
        epoch,
        reply: Arc::clone(reply) as ReplyHandle,
    }
}

/// Everything queued on `mailbox` right now (the loopback answers before
/// `send` returns, so nothing is still on its way).
fn drain(mailbox: &ReplyMailbox) -> Vec<Reply> {
    let mut replies = Vec::new();
    mailbox.drain_timeout(Duration::ZERO, &mut replies);
    replies
}

#[test]
fn concurrent_clients_get_exactly_one_reply_each_and_fenced_requests_touch_nothing() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 400;
    let poison = Entry {
        timestamp: u64::MAX,
        value: 0xdead,
    };
    let service = LoopbackService::spawn(&FaultPlan::none(N), SHARDS, 1);
    assert_eq!(service.shards(), SHARDS);
    let start = Barrier::new(CLIENTS);
    let served: u64 = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (service, start) = (&service, &start);
                scope.spawn(move || {
                    let mailbox = Arc::new(ReplyMailbox::new());
                    let mut served = 0u64;
                    start.wait();
                    for round in 0..ROUNDS {
                        // A fan-out over every shard; odd clients stamp a
                        // third of theirs with an epoch the gate refuses, and
                        // those carry a write no read may ever see.
                        let mut fanout: Vec<Request> = (0..N)
                            .map(|server| {
                                let id = (round * N + server) as u64;
                                if client % 2 == 1 && server % 3 == 0 {
                                    request(server, Operation::Write(poison), id, 1, &mailbox)
                                } else {
                                    request(server, Operation::Read, id, 0, &mailbox)
                                }
                            })
                            .collect();
                        // One request of the round goes alone, the rest as a
                        // batch: both entry points race each other.
                        let single = fanout.pop().expect("a non-empty fan-out");
                        assert!(service.send(single));
                        assert!(service.send_batch(&mut fanout));
                        let mut replies = drain(&mailbox);
                        replies.sort_by_key(|reply| reply.request_id);
                        assert_eq!(replies.len(), N, "one reply per accepted request");
                        for (server, reply) in replies.iter().enumerate() {
                            assert_eq!(reply.request_id, (round * N + server) as u64);
                            assert_eq!(reply.server, server);
                            let fenced = client % 2 == 1 && server % 3 == 0;
                            assert_eq!(reply.stale, fenced);
                            // A fence carries no entry; a served read finds
                            // the initial entry, never the poison.
                            let expected = (!fenced).then_some(Entry::INITIAL);
                            assert_eq!(reply.entry, expected);
                            served += u64::from(!fenced);
                        }
                    }
                    served
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread"))
            .sum()
    });
    let counts = service.metrics().access_counts();
    assert_eq!(
        counts.iter().sum::<u64>(),
        served,
        "access counts are the served requests, fenced ones excluded"
    );
    let mailbox = Arc::new(ReplyMailbox::new());
    for server in 0..N {
        assert!(service.send(request(server, Operation::Read, 0, 0, &mailbox)));
    }
    assert!(
        drain(&mailbox)
            .iter()
            .all(|reply| reply.entry == Some(Entry::INITIAL)),
        "a fenced write reached a replica"
    );
}

#[test]
fn an_equivocating_replica_answers_from_its_shards_seeded_stream_in_send_order() {
    // Servers 1 and 3 share shard 1 (and its RNG), server 2 is alone on
    // shard 0: the replies must be what a bare replica draws from each
    // shard's stream when asked in the order the requests were sent.
    const SEED: u64 = 0x5eed;
    let liar = Behavior::Byzantine(ByzantineStrategy::Equivocate);
    let mut plan = FaultPlan::none(5);
    for server in [1, 2, 3] {
        plan = plan.with_byzantine(server, ByzantineStrategy::Equivocate);
    }
    let service = LoopbackService::spawn(&plan, 2, SEED);
    let mailbox = Arc::new(ReplyMailbox::new());
    let mut sent: Vec<usize> = Vec::new();
    let mut replies: Vec<Reply> = Vec::new();
    for round in 0..3 {
        let order: Vec<usize> = if round == 1 {
            vec![4, 3, 2, 1, 0]
        } else {
            (0..5).collect()
        };
        let mut fanout = Vec::new();
        for server in order {
            fanout.push(request(
                server,
                Operation::Read,
                sent.len() as u64,
                0,
                &mailbox,
            ));
            sent.push(server);
        }
        assert!(service.send_batch(&mut fanout));
        replies.append(&mut drain(&mailbox));
    }
    for server in [3, 1, 3, 2] {
        sent.push(server);
        let id = sent.len() as u64 - 1;
        assert!(service.send(request(server, Operation::Read, id, 0, &mailbox)));
        replies.append(&mut drain(&mailbox));
    }
    replies.sort_by_key(|reply| reply.request_id);
    assert_eq!(replies.len(), sent.len());

    let mut streams: Vec<StdRng> = (0..2u64)
        .map(|shard| StdRng::seed_from_u64(SEED ^ 0x5a5a_0001u64.wrapping_mul(shard + 1)))
        .collect();
    let mut bare = Replica::new(liar);
    for (reply, &server) in replies.iter().zip(&sent) {
        assert_eq!(reply.server, server);
        let expected = match server {
            1..=3 => bare.deliver_read(0, &mut streams[server % 2]),
            _ => Some(Entry::INITIAL),
        };
        assert_eq!(reply.entry, expected, "request {}", reply.request_id);
    }
}

/// A sink that answers its first reply by sending a follow-up read to the
/// same server — legal only if the service holds no shard lock while it
/// completes sinks.
#[derive(Debug)]
struct Reentrant {
    service: Arc<LoopbackService>,
    follow_up: Arc<ReplyMailbox>,
    fired: AtomicBool,
}

impl ReplySink for Reentrant {
    fn complete(&self, reply: Reply) {
        if !self.fired.swap(true, Ordering::SeqCst) {
            assert!(self.service.send(request(
                reply.server,
                Operation::Read,
                reply.request_id + 100,
                0,
                &self.follow_up,
            )));
        }
    }
}

#[test]
fn a_sink_may_reenter_the_service_on_the_same_shard() {
    // On its own thread with a bounded wait: a regression is a self-deadlock,
    // which must fail the test rather than hang the suite.
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let service = Arc::new(LoopbackService::spawn(&FaultPlan::none(4), 1, 3));
        let mut follow_ups = Vec::new();
        for batched in [false, true] {
            let follow_up = Arc::new(ReplyMailbox::new());
            let sink: ReplyHandle = Arc::new(Reentrant {
                service: Arc::clone(&service),
                follow_up: Arc::clone(&follow_up),
                fired: AtomicBool::new(false),
            });
            let mut fanout: Vec<Request> = (0..4)
                .map(|server| Request {
                    server,
                    op: Operation::Read,
                    request_id: server as u64,
                    origin: 0,
                    epoch: 0,
                    reply: Arc::clone(&sink),
                })
                .collect();
            if batched {
                assert!(service.send_batch(&mut fanout));
            } else {
                assert!(service.send(fanout.swap_remove(0)));
            }
            follow_ups.push(drain(&follow_up));
        }
        let _ = done.send(follow_ups);
    });
    let follow_ups = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("a sink that re-enters the service deadlocked on its own shard");
    for replies in follow_ups {
        assert_eq!(replies.len(), 1, "the follow-up read was answered");
        assert_eq!(replies[0].request_id, 100);
    }
}

#[test]
fn crashing_servers_under_live_traffic_leaves_no_request_unanswered() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 500;
    let entry = Entry {
        timestamp: 1,
        value: authentic_value(1),
    };
    let service = LoopbackService::spawn(&FaultPlan::none(N), SHARDS, 9);
    let seed = Arc::new(ReplyMailbox::new());
    let mut writes: Vec<Request> = (0..N)
        .map(|server| request(server, Operation::Write(entry), 0, 0, &seed))
        .collect();
    assert!(service.send_batch(&mut writes));

    let start = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let (service, start) = (&service, &start);
            scope.spawn(move || {
                let mailbox = Arc::new(ReplyMailbox::new());
                start.wait();
                for round in 0..ROUNDS {
                    let mut fanout: Vec<Request> = (0..N)
                        .map(|server| {
                            request(
                                server,
                                Operation::Read,
                                (round * N + server) as u64,
                                0,
                                &mailbox,
                            )
                        })
                        .collect();
                    assert!(service.send_batch(&mut fanout));
                    let replies = drain(&mailbox);
                    assert_eq!(replies.len(), N, "round {round}: a request went unanswered");
                    for reply in replies {
                        // Either the replica's state or, once crashed, the
                        // in-band no-answer: nothing in between.
                        assert!(reply.entry.is_none() || reply.entry == Some(entry));
                    }
                }
            });
        }
        start.wait();
        for server in 0..N / 2 {
            service.crash_servers(&[server, N - 1 - server]);
        }
    });
    let mailbox = Arc::new(ReplyMailbox::new());
    let mut reads: Vec<Request> = (0..N)
        .map(|server| request(server, Operation::Read, server as u64, 0, &mailbox))
        .collect();
    assert!(service.send_batch(&mut reads));
    assert!(
        drain(&mailbox).iter().all(|reply| reply.entry.is_none()),
        "every server was crashed by the time the clients finished"
    );
}
