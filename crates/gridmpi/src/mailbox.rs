//! Where a rank's envelopes wait — the one thing that differs between a
//! rank on its own OS thread ([`crate::Runtime::run`]) and a rank that
//! shares the caller's thread with all the others
//! ([`crate::Runtime::run_cooperative`]).
//!
//! [`Mailbox::take`] is the single suspension point of the whole runtime:
//! the channel variant blocks inside `poll` and is never `Pending`, the
//! queue variant returns `Pending` on an empty mailbox and the matching
//! [`Mailbox::post`] re-queues the receiver. Everything above it — clocks,
//! NIC serialization, tombstones, delivery order, tracing — is the same
//! [`crate::Process`] code on both.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::error::CommError;
use crate::message::Envelope;

/// Runs a rank-program future to completion on a rank's own thread.
///
/// The only thing a `gridmpi` future ever waits for is its mailbox, and a
/// channel mailbox waits *inside* `poll`, so under [`crate::Runtime::run`]
/// one poll always finishes the future. This is what keeps the blocking
/// [`crate::Process::recv`] / [`crate::Process::exchange`] (and the
/// synchronous rank programs of `tsqr-core`) one line over their `async`
/// bodies.
///
/// # Panics
/// Panics when the future is `Pending`: a blocking call was made from a
/// rank program running under [`crate::Runtime::run_cooperative`], where
/// blocking the one shared thread would hang every rank.
pub fn block_on<F: Future>(future: F) -> F::Output {
    match pin!(future).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "a blocking gridmpi call (recv / recv_any / exchange, a synchronous collective or \
             rank program) was made inside Runtime::run_cooperative: `.await` its `_async` form"
        ),
    }
}

/// A rank's connection to every peer's inbox and to its own.
pub(crate) enum Mailbox {
    /// One OS thread per rank: an unbounded channel per inbox; an empty
    /// inbox parks the thread.
    Channel {
        /// A sender into every rank's inbox, indexed by rank.
        senders: Vec<Sender<Envelope>>,
        inbox: Receiver<Envelope>,
        /// Wall-clock deadlock safety net (see
        /// [`crate::process::DEFAULT_RECV_TIMEOUT`]).
        timeout: Duration,
    },
    /// Every rank on the caller's thread: the inboxes are queues in the
    /// run's [`Hub`]; an empty inbox yields to the next ready rank.
    Queue(Rc<RefCell<Hub>>),
}

impl Mailbox {
    /// Drops `env` into `dst`'s inbox. Never blocks. A rank that already
    /// returned keeps no inbox: the message was priced, is delivered
    /// nowhere, and the failure (if it is one) surfaces in *virtual* time
    /// through the tombstone machinery.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        match self {
            Mailbox::Channel { senders, .. } => {
                let _ = senders[dst].send(env);
            }
            Mailbox::Queue(hub) => hub.borrow_mut().post(dst, env),
        }
    }

    /// The next envelope already in `rank`'s inbox, without waiting.
    pub(crate) fn try_take(&self, rank: usize) -> Option<Envelope> {
        match self {
            Mailbox::Channel { inbox, .. } => inbox.try_recv().ok(),
            Mailbox::Queue(hub) => hub.borrow_mut().inboxes[rank].pop_front(),
        }
    }

    /// The next envelope to reach `rank`'s inbox, waiting for one. `from`
    /// is the peer the caller is after (`rank` itself for a wildcard
    /// wait); it names the error when nothing will ever come.
    // archlint: allow(taint) — the `.recv_timeout(` below is the
    // simulator's wall-clock deadlock safety net for threaded runs:
    // virtual time never observes the reading; on expiry the run *fails*
    // with CommError::Timeout instead of hanging CI. Same exception as the
    // commlint `wall-clock` allow entry for this file.
    pub(crate) async fn take(&self, rank: usize, from: usize) -> Result<Envelope, CommError> {
        match self {
            Mailbox::Channel { inbox, timeout, .. } => {
                inbox.recv_timeout(*timeout).map_err(|e| match e {
                    RecvTimeoutError::Timeout => CommError::Timeout { rank, from },
                    // Every peer's thread exited while we were still
                    // blocked — an orphaned wait, the same evidence a
                    // timeout gives (the disconnect raced the timer).
                    RecvTimeoutError::Disconnected => CommError::PeerGone { rank, from },
                })
            }
            Mailbox::Queue(hub) => poll_fn(|_| hub.borrow_mut().poll_take(rank, from)).await,
        }
    }
}

/// The shared state of one cooperative run: every rank's inbox, who is
/// parked on whom, and the order in which ranks get the thread.
pub(crate) struct Hub {
    inboxes: Vec<VecDeque<Envelope>>,
    /// The peer each parked rank is after (itself for a wildcard wait);
    /// `None` while a rank is queued, running or finished.
    awaiting: Vec<Option<usize>>,
    /// Ranks to poll, in order.
    ready: VecDeque<usize>,
    /// Ranks whose program returned.
    finished: Vec<bool>,
    /// Why a parked rank's wait can never end, set by [`Hub::break_stall`]
    /// and handed to the rank when it is next polled.
    verdicts: Vec<Option<CommError>>,
}

impl Hub {
    /// A hub for `n` ranks, all ready, in rank order.
    pub(crate) fn new(n: usize) -> Hub {
        Hub {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            awaiting: vec![None; n],
            ready: (0..n).collect(),
            finished: vec![false; n],
            verdicts: vec![None; n],
        }
    }

    fn post(&mut self, dst: usize, env: Envelope) {
        // A parked receiver gets the thread back to look at its inbox (and
        // parks again if this was not the envelope it is after).
        if self.awaiting[dst].take().is_some() {
            self.ready.push_back(dst);
        }
        self.inboxes[dst].push_back(env);
    }

    fn poll_take(&mut self, rank: usize, from: usize) -> Poll<Result<Envelope, CommError>> {
        // A verdict first: it was reached with the inbox empty, and what has
        // landed there since (the abort tombstone of a fellow deadlocked
        // rank) must not overrule it.
        if let Some(verdict) = self.verdicts[rank].take() {
            return Poll::Ready(Err(verdict));
        }
        if let Some(env) = self.inboxes[rank].pop_front() {
            return Poll::Ready(Ok(env));
        }
        self.awaiting[rank] = Some(from);
        Poll::Pending
    }

    /// The next rank to poll, if any is ready.
    pub(crate) fn next_ready(&mut self) -> Option<usize> {
        self.ready.pop_front()
    }

    /// Marks `rank`'s program as returned.
    pub(crate) fn retire(&mut self, rank: usize) {
        self.finished[rank] = true;
    }

    /// Called with nobody ready and somebody unfinished: every unfinished
    /// rank is parked on a peer that cannot send, so the deadlock is a
    /// fact, not a wall-clock guess. A rank after a peer that already
    /// returned (or after anybody, when nobody is left to send) gets
    /// [`CommError::PeerGone`]; a rank on a wait-for cycle gets
    /// [`CommError::Deadlock`] naming it. A rank merely queued *behind*
    /// one of those stays parked: the abort tombstone of the rank it
    /// awaits, or the next stall, ends its wait.
    ///
    /// # Panics
    /// Panics when no rank can be given a verdict: a rank program is
    /// suspended on something other than its mailbox.
    pub(crate) fn break_stall(&mut self) {
        let verdicts: Vec<(usize, CommError)> = (0..self.inboxes.len())
            .filter_map(|rank| {
                let from = self.awaiting[rank]?;
                if from == rank || self.finished[from] {
                    Some((rank, CommError::PeerGone { rank, from }))
                } else {
                    let cycle = self.cycle_through(rank)?;
                    Some((rank, CommError::Deadlock { rank, from, cycle }))
                }
            })
            .collect();
        assert!(
            !verdicts.is_empty(),
            "a cooperative rank program is suspended on something other than a gridmpi receive"
        );
        for (rank, verdict) in verdicts {
            self.verdicts[rank] = Some(verdict);
            self.awaiting[rank] = None;
            self.ready.push_back(rank);
        }
    }

    /// The wait-for cycle `rank` sits on, smallest rank first (the form
    /// [`crate::hb`] reports), or `None` when following `rank`'s wait
    /// never leads back to it.
    fn cycle_through(&self, rank: usize) -> Option<Vec<usize>> {
        let mut cycle = vec![rank];
        let mut at = self.awaiting[rank]?;
        while at != rank {
            if cycle.len() == self.inboxes.len() {
                return None; // ran into a cycle `rank` only leads to
            }
            cycle.push(at);
            at = self.awaiting[at]?;
        }
        let lead = (0..cycle.len()).min_by_key(|&i| cycle[i]).unwrap_or(0);
        cycle.rotate_left(lead);
        Some(cycle)
    }
}
