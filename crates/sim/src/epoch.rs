//! The server-side epoch gate: wire-level fencing for reconfiguration.
//!
//! Reconfiguration (the `bqs-epoch` crate) moves clients from the access
//! strategy of epoch `e` to a re-certified strategy at epoch `e + 1`. The
//! masking protocol's safety argument requires that no read ever gathers
//! `b + 1` support from replies produced under *two different* strategies —
//! the `2b + 1` intersection of Definition 3.5 is only guaranteed between
//! quorums of the *same* system. The gate enforces that at the replica
//! boundary with a two-epoch acceptance window:
//!
//! * **Steady state** — the window is `[e, e]`: only the current epoch is
//!   served.
//! * **Handoff** — the manager opens the window to `[e, e + 1]` *before*
//!   publishing the new configuration to any client, so both the draining
//!   epoch-`e` accesses and the first epoch-`e + 1` accesses are served.
//!   Each individual access still carries a single epoch stamp for its whole
//!   fan-out, so no single quorum mixes strategies.
//! * **Finalise** — once clients have migrated, the window collapses to
//!   `[e + 1, e + 1]`; a straggling epoch-`e` request is *fenced* — answered
//!   in-band with `stale = true` and the current epoch, never served — which
//!   simultaneously protects the register and tells the lagging client what
//!   epoch to re-synchronise to.
//!
//! The gate is a pair of atomics shared by every replica owner; checks are
//! two relaxed loads on the request hot path.

use std::sync::atomic::{AtomicU64, Ordering};

/// A two-epoch acceptance window shared by every replica owner of one
/// service instance. See the module docs for the protocol role.
#[derive(Debug, Default)]
pub struct EpochGate {
    /// Oldest accepted epoch (the "current" epoch in steady state).
    low: AtomicU64,
    /// Newest accepted epoch; equals `low` outside a handoff window.
    high: AtomicU64,
}

impl EpochGate {
    /// A gate in the initial state: only epoch 0 is accepted.
    #[must_use]
    pub fn new() -> Self {
        EpochGate::default()
    }

    /// True when a request stamped `epoch` must be served rather than fenced.
    #[must_use]
    pub fn accepts(&self, epoch: u64) -> bool {
        self.low.load(Ordering::Relaxed) <= epoch && epoch <= self.high.load(Ordering::Relaxed)
    }

    /// The oldest accepted epoch — what a fenced reply reports as "current".
    #[must_use]
    pub fn current(&self) -> u64 {
        self.low.load(Ordering::Relaxed)
    }

    /// The acceptance window as `(low, high)`, inclusive on both ends.
    #[must_use]
    pub fn window(&self) -> (u64, u64) {
        (
            self.low.load(Ordering::Relaxed),
            self.high.load(Ordering::Relaxed),
        )
    }

    /// Phase one of a handoff: widen the window so `next` is accepted
    /// alongside every already-accepted epoch. Monotone — reopening an
    /// older epoch is a no-op.
    pub fn open_window(&self, next: u64) {
        self.high.fetch_max(next, Ordering::Relaxed);
    }

    /// Phase two of a handoff: collapse the window to `[epoch, epoch]`,
    /// fencing every older generation. Monotone — finalising backwards is a
    /// no-op on `low` (and `high` only ever grows).
    pub fn finalize(&self, epoch: u64) {
        self.high.fetch_max(epoch, Ordering::Relaxed);
        self.low.fetch_max(epoch, Ordering::Relaxed);
    }

    /// Re-arms the gate to the initial epoch-0 state. **Not** part of the
    /// protocol — mid-run the gate only moves forward. This exists for
    /// trial-reuse harnesses that swap out every replica between independent
    /// trials (the loopback's `reset_plan`) and must return the acceptance
    /// window to the fresh-service state along with the replicas.
    pub fn reset(&self) {
        self.low.store(0, Ordering::Relaxed);
        self.high.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_accepts_only_the_current_epoch() {
        let gate = EpochGate::new();
        assert!(gate.accepts(0));
        assert!(!gate.accepts(1));
        assert_eq!(gate.current(), 0);
        assert_eq!(gate.window(), (0, 0));
    }

    #[test]
    fn handoff_window_accepts_both_generations_then_fences_the_old() {
        let gate = EpochGate::new();
        gate.open_window(1);
        assert!(gate.accepts(0), "draining epoch-0 accesses must be served");
        assert!(gate.accepts(1), "first epoch-1 accesses must be served");
        assert!(!gate.accepts(2));
        assert_eq!(gate.window(), (0, 1));

        gate.finalize(1);
        assert!(!gate.accepts(0), "stragglers from epoch 0 must be fenced");
        assert!(gate.accepts(1));
        assert_eq!(gate.current(), 1);
        assert_eq!(gate.window(), (1, 1));
    }

    #[test]
    fn transitions_are_monotone() {
        let gate = EpochGate::new();
        gate.open_window(3);
        gate.finalize(3);
        // Neither reopening nor re-finalising an older epoch moves the gate
        // backwards.
        gate.open_window(1);
        gate.finalize(2);
        assert_eq!(gate.window(), (3, 3));
        assert!(!gate.accepts(2));
    }

    #[test]
    fn finalize_without_open_window_still_advances() {
        // A replica that missed the open-window control message and sees the
        // finalise directly must land in the same state.
        let gate = EpochGate::new();
        gate.finalize(2);
        assert_eq!(gate.window(), (2, 2));
        assert!(gate.accepts(2));
        assert!(!gate.accepts(1));
    }
}
