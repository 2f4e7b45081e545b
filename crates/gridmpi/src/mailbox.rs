//! Where a rank's envelopes wait, and the one rule that decides a wait can
//! never end, under both drivers.
//!
//! Every run keeps its inboxes in one [`Hub`]: behind a lock, with a
//! condition variable per rank, when each rank has its own OS thread
//! ([`crate::Runtime::run`]); in the [`Cooperative`] state of a run on the
//! caller's thread otherwise ([`crate::Runtime::run_cooperative`]), next to
//! the pool its data-free all-reduces park in ([`crate::fold`]).
//! [`Mailbox::take_async`] is the receive core: an empty inbox parks the
//! rank until a [`Mailbox::post`] wakes it, and a rank that parks or
//! returns with nobody else running ends the stall ([`Hub::break_stall`]).
//! Everything above it — clocks, NIC serialization, tombstones, delivery
//! order, tracing — is the same [`crate::Process`] code on both drivers.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::error::CommError;
use crate::fold::FoldPool;
use crate::message::Envelope;
use crate::process::Process;

/// Runs a rank-program future to completion on a rank's own thread.
///
/// Under [`crate::Runtime::run`] the only thing a `gridmpi` future ever
/// waits for is its mailbox (an all-reduce folds only in a cooperative
/// run), and a locked mailbox waits *inside* `poll`, on the rank's
/// condition variable, so one poll always finishes the future. Every
/// program and collective is one `async` body (`*_async`); this is how a
/// threaded driver runs one, and what keeps the few blocking names left —
/// [`crate::Process::recv`], [`crate::Communicator::allreduce`], for
/// callers that cannot await — one line over their `async` bodies.
///
/// # Panics
/// Panics when the future is `Pending`: a blocking call was made from a
/// rank program running under [`crate::Runtime::run_cooperative`], where
/// blocking the one shared thread would hang every rank.
pub fn block_on<F: Future>(future: F) -> F::Output {
    match pin!(future).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "a blocking gridmpi call (recv / allreduce, or a block_on over a rank program or a \
             receive) was made inside Runtime::run_cooperative: `.await` its `_async` form"
        ),
    }
}

/// A rank's connection to every peer's inbox and to its own.
pub(crate) enum Mailbox {
    /// One OS thread per rank: the run's hub behind one lock; an empty
    /// inbox parks the thread.
    Locked(Arc<LockedHub>),
    /// Every rank on the caller's thread: an empty inbox yields to the next
    /// ready rank.
    Queue(Rc<RefCell<Cooperative>>),
}

impl Mailbox {
    /// Drops `env` into `dst`'s inbox. Never blocks. A rank that already
    /// returned never reads its inbox again: the message was priced, is
    /// delivered nowhere, and the failure (if it is one) surfaces in
    /// *virtual* time through the tombstone machinery.
    pub(crate) fn post(&self, dst: usize, env: Envelope) {
        match self {
            Mailbox::Locked(locked) => {
                let mut hub = locked.lock();
                hub.post(dst, env);
                locked.notify(&mut hub);
            }
            Mailbox::Queue(coop) => coop.borrow_mut().hub.post(dst, env),
        }
    }

    /// The next envelope already in `rank`'s inbox, without waiting.
    pub(crate) fn try_take(&self, rank: usize) -> Option<Envelope> {
        match self {
            Mailbox::Locked(locked) => locked.lock().inboxes[rank].pop_front(),
            Mailbox::Queue(coop) => coop.borrow_mut().hub.inboxes[rank].pop_front(),
        }
    }

    /// The next envelope to reach `rank`'s inbox, waiting for one. `from`
    /// is the peer the caller is after (`rank` itself for a wildcard
    /// wait); it names the error when nothing will ever come.
    pub(crate) async fn take_async(&self, rank: usize, from: usize) -> Result<Envelope, CommError> {
        match self {
            Mailbox::Locked(locked) => locked.take(rank, from),
            Mailbox::Queue(coop) => poll_fn(|_| coop.borrow_mut().hub.poll_take(rank, from)).await,
        }
    }
}

/// Every rank's inbox, and what decides that a wait can never end: who is
/// parked on whom, who returned, and how many ranks still run.
pub(crate) struct Hub {
    inboxes: Vec<VecDeque<Envelope>>,
    /// The peer each rank parked in a receive is after (itself for a
    /// wildcard wait); `None` while a rank runs or is woken, once it
    /// returned, and while it is parked in a fold (a post does not wake it).
    awaiting: Vec<Option<usize>>,
    /// Ranks whose program returned.
    finished: Vec<bool>,
    /// Why a parked rank's wait can never end, set by [`Hub::break_stall`]
    /// and handed to the rank when it next looks.
    verdicts: Vec<Option<CommError>>,
    /// Ranks woken and not yet running again, in wake order: a cooperative
    /// run polls them in this order, a threaded one notifies them at once.
    ready: VecDeque<usize>,
    /// Ranks that have neither parked nor returned, woken ones included.
    running: usize,
}

impl Hub {
    /// A hub for `n` ranks, all running and ready in rank order.
    fn new(n: usize) -> Hub {
        Hub {
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            awaiting: vec![None; n],
            finished: vec![false; n],
            verdicts: vec![None; n],
            ready: (0..n).collect(),
            running: n,
        }
    }

    fn post(&mut self, dst: usize, env: Envelope) {
        // A parked receiver runs again to look at its inbox (and parks again
        // if this was not the envelope it is after).
        if self.awaiting[dst].take().is_some() {
            self.wake(dst);
        }
        self.inboxes[dst].push_back(env);
    }

    fn poll_take(&mut self, rank: usize, from: usize) -> Poll<Result<Envelope, CommError>> {
        // A verdict first: it was reached with the inbox empty, and what has
        // landed there since (the abort tombstone of a fellow deadlocked
        // rank) must not overrule it. (`take_if` writes back only what it
        // takes; nearly every poll finds no verdict.)
        if let Some(verdict) = self.verdicts[rank].take_if(|_| true) {
            return Poll::Ready(Err(verdict));
        }
        if let Some(env) = self.inboxes[rank].pop_front() {
            return Poll::Ready(Ok(env));
        }
        self.park(rank, Some(from));
        Poll::Pending
    }

    /// `rank` stops running until it is woken: parked on `from`, or in a
    /// fold (`None`).
    fn park(&mut self, rank: usize, from: Option<usize>) {
        self.awaiting[rank] = from;
        self.running -= 1;
    }

    fn wake(&mut self, rank: usize) {
        self.ready.push_back(rank);
        self.running += 1;
    }

    /// Marks `rank`'s program as returned.
    pub(crate) fn retire(&mut self, rank: usize) {
        self.finished[rank] = true;
        self.running -= 1;
    }

    /// Called whenever a rank parks or returns; does nothing while a rank
    /// still runs. With no rank left running and somebody not returned,
    /// every unfinished rank is parked on a peer
    /// that cannot send, so the deadlock is a fact, not a guess. A rank
    /// after a peer that already returned (or after anybody, when nobody is
    /// left to send) gets [`CommError::PeerGone`]; a rank on a wait-for
    /// cycle gets [`CommError::Deadlock`] naming it. A rank merely queued
    /// *behind* one of those stays parked: the abort tombstone of the rank
    /// it awaits, or the next stall, ends its wait.
    ///
    /// `folds` are a cooperative run's data-free all-reduces: a rank parked
    /// in one counts as awaiting the lowest-index member that has not
    /// arrived, and leaves it when given a verdict.
    pub(crate) fn break_stall(&mut self, mut folds: Option<&mut FoldPool>) {
        if self.running > 0 || !self.finished.contains(&false) {
            return;
        }
        let folded = folds.as_deref().map_or_else(Vec::new, FoldPool::parked);
        for &(rank, from, ..) in &folded {
            self.awaiting[rank] = Some(from);
        }
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
        for (rank, verdict) in verdicts {
            let fold = folded.iter().find(|f| f.0 == rank);
            if let (Some(folds), Some(&(.., slot, idx))) = (folds.as_deref_mut(), fold) {
                folds.withdraw(slot, idx);
            }
            self.verdicts[rank] = Some(verdict);
            self.awaiting[rank] = None;
            self.wake(rank);
        }
        // Only a verdict or the fold itself wakes a rank parked in a fold.
        for (rank, ..) in folded {
            self.awaiting[rank] = None;
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

/// The hub of a threaded run: one lock, and a condition variable per rank
/// to park on.
pub(crate) struct LockedHub {
    hub: Mutex<Hub>,
    parked: Vec<Condvar>,
}

impl LockedHub {
    /// The hub for `n` rank threads.
    pub(crate) fn new(n: usize) -> LockedHub {
        LockedHub { hub: Mutex::new(Hub::new(n)), parked: (0..n).map(|_| Condvar::new()).collect() }
    }

    fn lock(&self) -> MutexGuard<'_, Hub> {
        self.hub.lock().expect("a rank thread panicked inside the mailbox")
    }

    /// Wakes the threads of the ranks woken since the last call.
    fn notify(&self, hub: &mut Hub) {
        for rank in hub.ready.drain(..) {
            self.parked[rank].notify_one();
        }
    }

    /// [`Hub::poll_take`], parking the thread until `rank` is woken.
    fn take(&self, rank: usize, from: usize) -> Result<Envelope, CommError> {
        let mut hub = self.lock();
        loop {
            if let Poll::Ready(got) = hub.poll_take(rank, from) {
                return got;
            }
            hub.break_stall(None);
            self.notify(&mut hub);
            hub = self.parked[rank]
                .wait_while(hub, |hub| hub.awaiting[rank].is_some())
                .expect("a rank thread panicked inside the mailbox");
        }
    }

    /// Marks `rank`'s program as returned, which may leave nobody running.
    pub(crate) fn retire(&self, rank: usize) {
        let mut hub = self.lock();
        hub.retire(rank);
        hub.break_stall(None);
        self.notify(&mut hub);
    }
}

/// The shared state of a cooperative run: the hub, and the pool its
/// data-free all-reduces fold in.
pub(crate) struct Cooperative {
    pub(crate) hub: Hub,
    pub(crate) folds: FoldPool,
}

impl Cooperative {
    /// The state of a cooperative run of `n` ranks.
    pub(crate) fn new(n: usize) -> Cooperative {
        Cooperative { hub: Hub::new(n), folds: FoldPool::new(n) }
    }

    /// Deposits `p`'s entry state as member `idx` of the all-reduce over
    /// `members` that is waiting for it and returns its slot. The last
    /// member to arrive folds the all-reduce and wakes the others.
    pub(crate) fn arrive(
        &mut self,
        members: &[usize],
        idx: usize,
        p: &Process,
        bytes: u64,
    ) -> usize {
        let (slot, folded) = self.folds.arrive(members, idx, p, bytes);
        if folded {
            for &rank in members.iter().filter(|&&r| r != p.rank) {
                self.hub.wake(rank);
            }
        }
        slot
    }

    /// Whether `rank`'s fold in `slot` is done, or why it never will be;
    /// parks `rank` otherwise.
    pub(crate) fn poll_fold(&mut self, slot: usize, rank: usize) -> Poll<Result<(), CommError>> {
        // As in `Hub::poll_take`: no write when there is no verdict.
        if let Some(verdict) = self.hub.verdicts[rank].take_if(|_| true) {
            return Poll::Ready(Err(verdict));
        }
        if self.folds.is_folded(slot) {
            return Poll::Ready(Ok(()));
        }
        self.hub.park(rank, None);
        Poll::Pending
    }

    /// The next woken rank to poll, once [`Hub::break_stall`] has looked at
    /// what the rank polled last left, if it left nobody running.
    pub(crate) fn next_ready(&mut self) -> Option<usize> {
        if self.hub.running == 0 {
            self.hub.break_stall(Some(&mut self.folds));
        }
        self.hub.ready.pop_front()
    }
}
