//! The one operation path under every shell.
//!
//! The closed-loop [`crate::client::ServiceClient`], the open-loop worker and
//! its priming write all move messages for the same protocol core,
//! [`QuorumOp`], and all of them do it through [`InFlight`]: one fan-out, one
//! reply rule and one deadline rule, with the metrics the core stays free
//! of. The outcome is the core's own ([`QuorumOp::outcome`]). What stays in a
//! shell is what differs between them: how a reply is matched to its
//! operation, what a fence means, when to drain, and whether to retry.
//! `specs/register/pseudo-code.md` at the repository root states the
//! lifecycle.

use std::sync::Arc;
use std::time::Instant;

use bqs_core::bitset::ServerSet;
use bqs_sim::quorum_op::{Admission, QuorumOp};

use crate::mailbox::{ReplyHandle, ReplyMailbox};
use crate::metrics::ServiceMetrics;
use crate::transport::{Operation, Reply, Request, Transport};

/// One operation in flight: its protocol core and the instant its shell
/// times the operation's per-server latency evidence from.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) op: QuorumOp,
    pub(crate) started: Instant,
}

impl InFlight {
    /// `op` against `quorum`, stamped `epoch`, timed from now.
    pub(crate) fn start(quorum: ServerSet, op: Operation, epoch: u64) -> Self {
        InFlight {
            op: QuorumOp::start(quorum, op.kind(), epoch),
            started: Instant::now(),
        }
    }

    /// Fan-out: sends `op` to every quorum member in one
    /// [`Transport::send_batch`] — member `k` of the quorum, server `s`,
    /// under request id `id(k, s)` — stamped with the operation's epoch and
    /// `origin`, answered to `mailbox`. `batch` is scratch and is left empty.
    /// Returns false when the transport refused any request (delivery may
    /// have been partial).
    pub(crate) fn fan_out<T: Transport + ?Sized>(
        &self,
        transport: &T,
        op: Operation,
        origin: u64,
        id: impl Fn(usize, usize) -> u64,
        mailbox: &Arc<ReplyMailbox>,
        batch: &mut Vec<Request>,
    ) -> bool {
        let epoch = self.op.epoch();
        let requests = self.op.quorum().iter().enumerate();
        batch.extend(requests.map(|(member, server)| Request {
            server,
            op,
            request_id: id(member, server),
            origin,
            epoch,
            reply: Arc::clone(mailbox) as ReplyHandle,
        }));
        let sent = transport.send_batch(batch);
        batch.clear();
        sent
    }

    /// Reply rule: the core decides whether the reply `r` counts, and a
    /// counted vote becomes failure-detector evidence in `metrics` — an
    /// answer timed from [`InFlight::started`], or a no-answer. Returns the
    /// epoch the server reported when `r` fences the operation.
    pub(crate) fn on_reply(&mut self, r: Reply, metrics: Option<&ServiceMetrics>) -> Option<u64> {
        match self.op.admit(r.server, r.entry, r.epoch, r.stale) {
            Admission::Ignored => None,
            Admission::Fenced { current } => Some(current),
            Admission::Counted { answered } => {
                if let Some(metrics) = metrics {
                    metrics.record_server_vote(r.server, answered, self.started);
                }
                None
            }
        }
    }

    /// Deadline rule: the operation is abandoned with votes missing — one
    /// timeout, and silence as evidence against exactly the members that
    /// never voted.
    pub(crate) fn on_deadline(&self, metrics: Option<&ServiceMetrics>) {
        if let Some(metrics) = metrics {
            metrics.record_timeout();
            for server in self.op.unanswered() {
                metrics.record_server_no_answer(server);
            }
        }
    }
}
