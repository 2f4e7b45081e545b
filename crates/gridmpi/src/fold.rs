//! A data-free all-reduce in one step.
//!
//! [`Communicator::allreduce_with_async`] over a payload that carries no
//! data ([`WirePayload::SYMBOLIC`]) moves nothing a member could read, so
//! what its `log₂P` rounds of envelopes compute is only clock algebra. In a
//! run where nothing else can observe them — cooperative, untraced, no
//! failure schedule, [`DeliveryOrder::Arrival`] — each member deposits its
//! clock, its receive-NIC state and its current phase's counters in the
//! run's [`FoldPool`] and parks there; the last to arrive runs
//! [`Rendezvous::butterfly`] over every deposited state: the fold-in, the
//! exchange rounds and the fold-out of the message path, with the same
//! `VirtualTime` arithmetic and the same counter adds in each member's own
//! order. It prices each link class once per fold: with no failure schedule
//! and one `wire_bytes` for every member, a message's time and the receive
//! NIC's wire time depend on the link class alone. Each member then takes
//! back its final clock, NIC and phase counters. No envelope is posted.
//!
//! The clocks are the message path's to the bit because inside the
//! butterfly a member's clock depends only on its own entry state and on
//! the arrival stamps of its partners: an envelope from outside the
//! collective that lands meanwhile is only buffered, and a receive NIC is
//! written only when a message is opened, in program order. The counters
//! are, because a parked member records nothing between its deposit and
//! its leave: the fold's adds start from the same value, in the same order.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;

use tsqr_netsim::{CostModel, GridTopology, LinkClass, VirtualTime};

use crate::comm::{butterfly, Communicator};
use crate::error::CommError;
use crate::mailbox::{Cooperative, Mailbox};
use crate::message::WirePayload;
use crate::metrics::{PhaseCounters, UNPHASED};
use crate::process::{DeliveryOrder, Process};

/// The cooperative run an all-reduce over `M` folds in, or `None` when it
/// runs as messages: the one place that picks the path. It reads the
/// payload type and run-wide facts only, so every member of a communicator
/// agrees.
pub(crate) fn fold_hub<M: WirePayload>(p: &Process) -> Option<Rc<RefCell<Cooperative>>> {
    match &p.mailbox {
        Mailbox::Queue(coop)
            if M::SYMBOLIC
                && p.recorder.is_none()
                && p.schedule.is_empty()
                && p.delivery == DeliveryOrder::Arrival =>
        {
            Some(Rc::clone(coop))
        }
        _ => None,
    }
}

/// The all-reduce of `value` over `comm`, folded in `coop`: every member
/// gets its own `value` back, with the clock, NIC and metrics the message
/// path would have left it.
pub(crate) async fn allreduce_async<M: WirePayload>(
    comm: &Communicator,
    p: &mut Process,
    coop: Rc<RefCell<Cooperative>>,
    value: M,
) -> Result<M, CommError> {
    let idx = comm.my_index(p);
    debug_assert!(p.schedule.is_empty(), "an all-reduce folds only without a failure schedule");
    let slot = coop.borrow_mut().arrive(comm.members(), idx, p, value.wire_bytes());
    poll_fn(|_| coop.borrow_mut().poll_fold(slot, p.rank)).await?;
    coop.borrow_mut().folds.leave(slot, idx, p);
    Ok(value)
}

/// The data-free all-reduces in progress in one cooperative run: a pool of
/// slots, each reused once every member has left it.
pub(crate) struct FoldPool {
    folds: Vec<Rendezvous>,
    /// The slots still waiting for members, by their communicator's first
    /// member.
    waiting: Vec<Vec<usize>>,
    /// The slots free for reuse.
    free: Vec<usize>,
}

impl FoldPool {
    /// An empty pool for `n` ranks.
    pub(crate) fn new(n: usize) -> FoldPool {
        FoldPool { folds: Vec::new(), waiting: vec![Vec::new(); n], free: Vec::new() }
    }

    /// Deposits `p`'s entry state as member `idx` of the all-reduce over
    /// `members` that is waiting for it (opening one if none is). Returns
    /// its slot, and whether it was the last member, which folds it.
    pub(crate) fn arrive(
        &mut self,
        members: &[usize],
        idx: usize,
        p: &Process,
        bytes: u64,
    ) -> (usize, bool) {
        let waiting = &mut self.waiting[members[0]];
        let slot = match waiting.iter().copied().find(|&slot| self.folds[slot].is_over(members)) {
            Some(slot) => slot,
            None => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.folds.push(Rendezvous::default());
                    self.folds.len() - 1
                });
                self.folds[slot].reopen(members);
                waiting.push(slot);
                slot
            }
        };
        let fold = &mut self.folds[slot];
        let last = fold.deposit(idx, p, bytes);
        if last {
            fold.butterfly(&p.topo, &p.model);
            self.stop_waiting(members[0], slot);
        }
        (slot, last)
    }

    /// Takes `slot`, folded or emptied, off the waiting list of `lead`.
    fn stop_waiting(&mut self, lead: usize, slot: usize) {
        self.waiting[lead].retain(|&s| s != slot);
    }

    /// True once the all-reduce in `slot` is folded.
    pub(crate) fn is_folded(&self, slot: usize) -> bool {
        self.folds[slot].is_folded()
    }

    /// Hands member `idx` of the folded all-reduce in `slot` its result.
    pub(crate) fn leave(&mut self, slot: usize, idx: usize, p: &mut Process) {
        if self.folds[slot].leave(idx, p) {
            self.free.push(slot);
        }
    }

    /// The members parked in an all-reduce that has not folded, as
    /// `(rank, awaited, slot, idx)`: each awaits the lowest-index member
    /// that has not arrived.
    pub(crate) fn parked(&self) -> Vec<(usize, usize, usize, usize)> {
        let in_slot = |&slot: &usize| {
            self.folds[slot].parked().map(move |(idx, rank, from)| (rank, from, slot, idx))
        };
        self.waiting.iter().flatten().flat_map(in_slot).collect()
    }

    /// Takes member `idx` out of the all-reduce in `slot`, its wait ended
    /// by an error.
    pub(crate) fn withdraw(&mut self, slot: usize, idx: usize) {
        if self.folds[slot].withdraw(idx) {
            self.stop_waiting(self.folds[slot].members()[0], slot);
            self.free.push(slot);
        }
    }
}

/// A member's state in a rendezvous: deposited on arrival, replaced by the
/// fold.
#[derive(Clone, Copy, Default)]
struct Member {
    /// Deposited and not withdrawn.
    here: bool,
    clock: VirtualTime,
    nic_free: VirtualTime,
    bytes: u64,
    /// The counters of the member's current phase, which the fold adds its
    /// messages to in place.
    counters: PhaseCounters,
}

impl Member {
    /// Sends a `bytes`-sized message at this member's clock
    /// ([`Process::send`]); returns the arrival stamp.
    fn send(&mut self, price: Price, bytes: u64) -> VirtualTime {
        let start = self.clock;
        self.clock += price.send;
        self.counters.add_send(price.bucket, bytes, (self.clock - start).secs());
        self.clock
    }

    /// Opens a message stamped `arrival` (`Process::open`, whose
    /// [`CostModel::receive_done`] this is).
    fn recv(&mut self, price: Price, arrival: VirtualTime) {
        self.nic_free = arrival.max(self.nic_free + price.wire);
        let wait_start = self.clock;
        self.clock = self.clock.max(self.nic_free);
        self.counters.recv_wait_s += (self.clock - wait_start).secs();
    }
}

/// One all-reduce's meeting point, reused by the [`FoldPool`], buffers and
/// all, once every member has left it.
#[derive(Default)]
struct Rendezvous {
    /// The communicator's members: the key a member finds its slot by.
    members: Vec<usize>,
    /// The member list of the member that opened the slot, while it waits
    /// here: a member whose list is that very slice (every rank's world
    /// communicator) is known to belong without comparing the lists.
    opener: Option<*const [usize]>,
    /// The last member arrived and the fold ran.
    folded: bool,
    /// Members here.
    arrived: usize,
    /// Members that took their result back.
    left: usize,
    states: Vec<Member>,
    /// What a message of the fold costs on each link class, priced on
    /// first use: intra-node, intra-cluster, then site pair `(x, y)` at
    /// `2 + x·C + y` for `C` sites.
    prices: Vec<Option<Price>>,
}

/// One message of a fold on one link class: its bucket in the counters,
/// the sender's time and the receive NIC's wire time. A fold is fault-free
/// and its messages all carry the same `wire_bytes`, so all three depend on
/// the link class alone.
#[derive(Clone, Copy)]
struct Price {
    bucket: usize,
    send: VirtualTime,
    wire: VirtualTime,
}

impl Rendezvous {
    /// True when this slot is the all-reduce over `members`.
    fn is_over(&self, members: &[usize]) -> bool {
        self.opener.is_some_and(|o| std::ptr::eq(o, members)) || self.members == members
    }

    /// Readies a free slot for an all-reduce over `members`.
    fn reopen(&mut self, members: &[usize]) {
        self.members.clear();
        self.members.extend_from_slice(members);
        self.opener = Some(members);
        self.states.clear();
        self.states.resize(members.len(), Member::default());
        (self.folded, self.arrived, self.left) = (false, 0, 0);
    }

    /// Deposits member `idx`'s entry state; true when it was the last.
    fn deposit(&mut self, idx: usize, p: &Process, bytes: u64) -> bool {
        debug_assert!(!self.states[idx].here, "rank {} arrived twice", p.rank);
        let (clock, nic_free) = (p.clock, p.nic_free);
        let counters = p.metrics.phase(p.current_phase().unwrap_or(UNPHASED));
        let counters = counters.copied().unwrap_or_default();
        self.states[idx] = Member { here: true, clock, nic_free, bytes, counters };
        self.arrived += 1;
        self.arrived == self.members.len()
    }

    /// Takes member `idx` out again, its wait ended by an error; true when
    /// nobody is left here.
    fn withdraw(&mut self, idx: usize) -> bool {
        self.opener = None;
        self.states[idx].here = false;
        self.arrived -= 1;
        self.arrived == 0
    }

    /// True once the fold ran.
    fn is_folded(&self) -> bool {
        self.folded
    }

    /// The members parked here, before the fold, as `(idx, rank, awaited)`:
    /// each awaits the lowest-index member that has not arrived.
    fn parked(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let awaited = self.states.iter().position(|s| !s.here);
        awaited.into_iter().flat_map(move |a| {
            let here = self.states.iter().enumerate().filter(|(_, s)| s.here);
            here.map(move |(idx, _)| (idx, self.members[idx], self.members[a]))
        })
    }

    /// The members' global ranks, in member order.
    fn members(&self) -> &[usize] {
        &self.members
    }

    /// Hands member `idx` its result — clock, receive NIC and its current
    /// phase's counters with the fold's messages added; true when it was the
    /// last member to leave. A member of a 1-member communicator sent and
    /// received nothing, so its phase is left as it was (not created).
    fn leave(&mut self, idx: usize, p: &mut Process) -> bool {
        let s = &self.states[idx];
        p.clock = s.clock;
        p.nic_free = s.nic_free;
        if self.members.len() > 1 {
            *p.metrics.phase_mut(p.current_phase().unwrap_or(UNPHASED)) = s.counters;
        }
        self.left += 1;
        self.left == self.members.len()
    }

    /// Runs the message path's butterfly over the deposited states, in
    /// place: recursive doubling on the largest power of two `≤ P`, with the
    /// first `2·rem` members folded in pairs before and after it, exactly as
    /// [`Communicator::allreduce_with_async`] sends and receives them.
    fn butterfly(&mut self, topo: &GridTopology, model: &CostModel) {
        let size = self.members.len();
        let (pof2, rem, member) = butterfly(size);
        let bytes = self.states[0].bytes;
        if let Some(other) = self.states.iter().find(|s| s.bytes != bytes) {
            panic!(
                "a data-free all-reduce over {size} members needs equal wire_bytes \
                 on every member, got {bytes} and {}",
                other.bytes
            );
        }
        let sites = topo.num_clusters();
        self.prices.clear();
        self.prices.resize(2 + sites * sites, None);
        let mut net = Net { topo, model, bytes, fold: self };
        // Fold-in: each even member of the first 2·rem hands its value up.
        for even in (0..2 * rem).step_by(2) {
            net.pass(even, even + 1);
        }
        // The exchange rounds, on the members' folded indices.
        let mut mask = 1;
        while mask < pof2 {
            for new in (0..pof2).filter(|new| new & mask == 0) {
                net.exchange(member(new), member(new | mask));
            }
            mask <<= 1;
        }
        // Fold-out: each odd member of the first 2·rem hands the result back.
        for even in (0..2 * rem).step_by(2) {
            net.pass(even + 1, even);
        }
        self.folded = true;
    }
}

/// The pricing a member's `send` and `open` would do, applied to the
/// deposited states of one fold.
struct Net<'a> {
    topo: &'a GridTopology,
    model: &'a CostModel,
    /// Every message's `wire_bytes`.
    bytes: u64,
    fold: &'a mut Rendezvous,
}

impl Net<'_> {
    /// What a message between members `a` and `b` costs:
    /// [`CostModel::message_time`] (the fault-free `message_time_under` of
    /// [`Process::send`]) and [`CostModel::wire_time`] (that of
    /// [`CostModel::receive_done`]), priced on the link class's first use.
    fn price(&mut self, a: usize, b: usize) -> Price {
        let at = |idx: usize| self.topo.location(self.fold.members[idx]);
        let (from, to) = (at(a), at(b));
        let class = LinkClass::between(from, to);
        let slot = match class {
            LinkClass::IntraNode => 0,
            LinkClass::IntraCluster => 1,
            LinkClass::InterCluster(x, y) => 2 + x * self.topo.num_clusters() + y,
        };
        let (model, bytes) = (self.model, self.bytes);
        *self.fold.prices[slot].get_or_insert_with(|| Price {
            bucket: class.bucket(),
            send: model.message_time(from, to, bytes),
            wire: model.wire_time(from, to, bytes),
        })
    }

    /// Member `a` sends to member `b`, which opens the message.
    fn pass(&mut self, a: usize, b: usize) {
        let price = self.price(a, b);
        let arrival = self.fold.states[a].send(price, self.bytes);
        self.fold.states[b].recv(price, arrival);
    }

    /// Members `a` and `b` trade values ([`Process::exchange_async`]): each
    /// receive overlaps its own send, timed from the pre-send clock.
    fn exchange(&mut self, a: usize, b: usize) {
        let price = self.price(a, b);
        let states = &mut self.fold.states;
        let (before_a, before_b) = (states[a].clock, states[b].clock);
        let sent_a = states[a].send(price, self.bytes);
        let sent_b = states[b].send(price, self.bytes);
        for (me, before, sent, arrival) in
            [(a, before_a, sent_a, sent_b), (b, before_b, sent_b, sent_a)]
        {
            let s = &mut states[me];
            s.clock = before;
            s.recv(price, arrival);
            s.clock = s.clock.max(sent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::{two_tier_grid, LinkParams};

    #[test]
    #[should_panic(expected = "over 3 members needs equal wire_bytes on every member, got 16 and 24")]
    fn a_fold_over_unequal_wire_bytes_panics() {
        let link = LinkParams::from_ms_mbps(1.0, 800.0);
        let (topo, model) = two_tier_grid(1, 3, link, link, 1e9);
        let mut fold = Rendezvous::default();
        fold.reopen(&[0, 1, 2]);
        for (idx, bytes) in [16, 16, 24].into_iter().enumerate() {
            fold.states[idx] = Member { here: true, bytes, ..Member::default() };
        }
        fold.butterfly(&topo, &model);
    }
}
