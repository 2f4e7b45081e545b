//! A data-free all-reduce in one step.
//!
//! [`Communicator::allreduce_with_async`] over a payload that carries no
//! data ([`WirePayload::SYMBOLIC`]) moves nothing a member could read, so
//! what its `log₂P` rounds of envelopes compute is only clock algebra. In a
//! run where nothing else can observe them — cooperative, untraced, no
//! failure schedule, [`DeliveryOrder::Arrival`] — each member deposits its
//! clock, its receive-NIC state and its current phase's seconds counters
//! in the run's [`FoldPool`] and parks there; the last to arrive runs
//! [`Rendezvous::butterfly`] over every deposited state: the fold-in, the
//! exchange rounds and the fold-out of the message path, with the same
//! `VirtualTime` arithmetic and the same counter adds in each member's own
//! order. Each member then takes back its final clock, NIC and phase
//! counters. No envelope is posted.
//!
//! The butterfly is its communicator's [`Plan`], built on the
//! communicator's first fold of the run and kept for the rest: every
//! message in the order the message path sends it, with its link class
//! looked up in the topology once per communicator per run. With no
//! failure schedule and one `wire_bytes` for every member, a message's
//! time and the receive NIC's wire time depend on the link class and the
//! wire size alone, so the plan prices each link class once per wire size
//! and keeps the prices for as long as consecutive folds keep the size.
//!
//! The clocks are the message path's to the bit because inside the
//! butterfly a member's clock depends only on its own entry state and on
//! the arrival stamps of its partners: an envelope from outside the
//! collective that lands meanwhile is only buffered, and a receive NIC is
//! written only when a message is opened, in program order. The counters
//! are, because a parked member records nothing between its deposit and
//! its leave: the fold's adds of seconds start from the same value, in the
//! same order, and its message and byte counts are integers.

use std::cell::RefCell;
use std::future::poll_fn;
use std::rc::Rc;

use tsqr_netsim::{CostModel, GridTopology, LinkClass, ProcLocation, VirtualTime};

use crate::comm::{butterfly, Communicator};
use crate::error::CommError;
use crate::mailbox::{Cooperative, Mailbox};
use crate::message::WirePayload;
use crate::metrics::UNPHASED;
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
/// slots, each reused once every member has left it, and the butterfly
/// plan of every communicator that folded in the run.
pub(crate) struct FoldPool {
    folds: Vec<Rendezvous>,
    /// The plans, by their communicator's first member: one per member
    /// list, built on its first fold and kept for the run.
    plans: Vec<Vec<Plan>>,
    /// The slots still waiting for members, by their communicator's first
    /// member.
    waiting: Vec<Vec<usize>>,
    /// The slots free for reuse.
    free: Vec<usize>,
}

impl FoldPool {
    /// An empty pool for `n` ranks.
    pub(crate) fn new(n: usize) -> FoldPool {
        FoldPool {
            folds: Vec::new(),
            plans: (0..n).map(|_| Vec::new()).collect(),
            waiting: vec![Vec::new(); n],
            free: Vec::new(),
        }
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
        let lead = members[0];
        let plans = &self.plans[lead];
        let mut waiting = self.waiting[lead].iter().copied();
        let open = waiting.find(|&slot| self.folds[slot].is_over(members, plans));
        let slot = open.unwrap_or_else(|| self.open(members, &p.topo));
        let fold = &mut self.folds[slot];
        let last = fold.deposit(idx, p, bytes);
        if last {
            fold.butterfly(&mut self.plans[lead][fold.plan], &p.model);
            self.stop_waiting(lead, slot);
        }
        (slot, last)
    }

    /// Opens a slot for the all-reduce over `members` on its communicator's
    /// plan, which the member list finds, or which is built on the
    /// communicator's first fold in the run.
    fn open(&mut self, members: &[usize], topo: &GridTopology) -> usize {
        let plans = &mut self.plans[members[0]];
        let plan = plans.iter().position(|plan| plan.members == members).unwrap_or_else(|| {
            plans.push(Plan::new(members, topo));
            plans.len() - 1
        });
        let slot = self.free.pop().unwrap_or_else(|| {
            self.folds.push(Rendezvous::default());
            self.folds.len() - 1
        });
        self.folds[slot].reopen(plan, members);
        self.waiting[members[0]].push(slot);
        slot
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
        let fold = &mut self.folds[slot];
        if fold.leave(idx, p, &self.plans[fold.lead][fold.plan].sent[idx]) {
            self.free.push(slot);
        }
    }

    /// The members parked in an all-reduce that has not folded, as
    /// `(rank, awaited, slot, idx)`: each awaits the lowest-index member
    /// that has not arrived.
    pub(crate) fn parked(&self) -> Vec<(usize, usize, usize, usize)> {
        let in_slot = |&slot: &usize| {
            let fold = &self.folds[slot];
            let members = &self.plans[fold.lead][fold.plan].members;
            fold.parked().map(move |(idx, from)| (members[idx], members[from], slot, idx))
        };
        self.waiting.iter().flatten().flat_map(in_slot).collect()
    }

    /// Takes member `idx` out of the all-reduce in `slot`, its wait ended
    /// by an error.
    pub(crate) fn withdraw(&mut self, slot: usize, idx: usize) {
        if self.folds[slot].withdraw(idx) {
            self.stop_waiting(self.folds[slot].lead, slot);
            self.free.push(slot);
        }
    }
}

/// A member's state in a rendezvous: deposited on arrival, replaced by the
/// fold.
#[derive(Clone, Copy, Default)]
struct Member {
    /// Deposited, and neither withdrawn nor left.
    here: bool,
    clock: VirtualTime,
    nic_free: VirtualTime,
    bytes: u64,
    /// The seconds counters of the member's current phase, which the fold
    /// adds its messages to in place: a sum of seconds depends on the order
    /// of its adds. The message and byte counts are integers the plan
    /// knows.
    send_s: [f64; LinkClass::N_BUCKETS],
    recv_wait_s: f64,
}

impl Member {
    /// Sends a message at this member's clock ([`Process::send`]); returns
    /// the arrival stamp.
    fn send(&mut self, price: Price) -> VirtualTime {
        let start = self.clock;
        self.clock += price.send;
        self.send_s[price.bucket] += (self.clock - start).secs();
        self.clock
    }

    /// Opens a message stamped `arrival` (`Process::open`, whose
    /// [`CostModel::receive_done`] this is).
    fn recv(&mut self, price: Price, arrival: VirtualTime) {
        self.nic_free = arrival.max(self.nic_free + price.wire);
        let wait_start = self.clock;
        self.clock = self.clock.max(self.nic_free);
        self.recv_wait_s += (self.clock - wait_start).secs();
    }
}

/// One all-reduce's meeting point, reused by the [`FoldPool`], buffers and
/// all, once every member has left it.
#[derive(Default)]
struct Rendezvous {
    /// The communicator's first member, and the index of its plan among
    /// that member's plans: what a member finds its slot by.
    lead: usize,
    plan: usize,
    /// The member list of the member that opened the slot, while it waits
    /// here: a member whose list is that very slice (the world communicator
    /// every rank of a cooperative run shares) is known to belong without
    /// comparing the lists.
    opener: Option<*const [usize]>,
    /// The last member arrived and the fold ran.
    folded: bool,
    /// Members here.
    arrived: usize,
    /// Members that took their result back.
    left: usize,
    states: Vec<Member>,
}

/// One message of a fold on one link class: its bucket in the counters,
/// the sender's time and the receive NIC's wire time. A fold is fault-free
/// and its messages all carry the same `wire_bytes`, so all three depend on
/// the link class and the wire size alone.
#[derive(Clone, Copy)]
struct Price {
    bucket: usize,
    send: VirtualTime,
    wire: VirtualTime,
}

impl Rendezvous {
    /// True when this slot is the all-reduce over `members`, whose first
    /// member's plans are `plans`.
    fn is_over(&self, members: &[usize], plans: &[Plan]) -> bool {
        self.opener.is_some_and(|o| std::ptr::eq(o, members)) || plans[self.plan].members == members
    }

    /// Readies a free slot for an all-reduce over `members`, whose plan is
    /// `plan` among its first member's.
    fn reopen(&mut self, plan: usize, members: &[usize]) {
        (self.lead, self.plan) = (members[0], plan);
        self.opener = Some(members);
        // Every state kept from the slot's last use has left or withdrawn.
        self.states.resize(members.len(), Member::default());
        (self.folded, self.arrived, self.left) = (false, 0, 0);
    }

    /// Deposits member `idx`'s entry state; true when it was the last.
    fn deposit(&mut self, idx: usize, p: &Process, bytes: u64) -> bool {
        debug_assert!(!self.states[idx].here, "rank {} arrived twice", p.rank);
        let (clock, nic_free) = (p.clock, p.nic_free);
        let counters = p.metrics.phase(p.current_phase().unwrap_or(UNPHASED));
        let (send_s, recv_wait_s) =
            counters.map_or_else(Default::default, |c| (c.send_s, c.recv_wait_s));
        self.states[idx] = Member { here: true, clock, nic_free, bytes, send_s, recv_wait_s };
        self.arrived += 1;
        self.arrived == self.states.len()
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

    /// The members parked here, before the fold, as `(idx, awaited)`: each
    /// awaits the lowest-index member that has not arrived.
    fn parked(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let awaited = self.states.iter().position(|s| !s.here);
        awaited.into_iter().flat_map(move |a| {
            let here = self.states.iter().enumerate().filter(|(_, s)| s.here);
            here.map(move |(idx, _)| (idx, a))
        })
    }

    /// Hands member `idx` its result — clock, receive NIC and its current
    /// phase's counters with the fold's messages added; true when it was the
    /// last member to leave. A member of a 1-member communicator sent and
    /// received nothing, so its phase is left as it was (not created).
    fn leave(&mut self, idx: usize, p: &mut Process, sent: &[u64; LinkClass::N_BUCKETS]) -> bool {
        let size = self.states.len();
        let s = &mut self.states[idx];
        s.here = false;
        p.clock = s.clock;
        p.nic_free = s.nic_free;
        if size > 1 {
            let counters = p.metrics.phase_mut(p.current_phase().unwrap_or(UNPHASED));
            for (b, &n) in sent.iter().enumerate() {
                counters.msgs[b] += n;
                counters.bytes[b] += n * s.bytes;
            }
            (counters.send_s, counters.recv_wait_s) = (s.send_s, s.recv_wait_s);
        }
        self.left += 1;
        self.left == size
    }

    /// Walks `plan`, the communicator's butterfly, over the deposited
    /// states in place: every message sent and opened in the order
    /// [`Communicator::allreduce_with_async`] sends and receives them.
    fn butterfly(&mut self, plan: &mut Plan, model: &CostModel) {
        let bytes = self.states[0].bytes;
        if let Some(other) = self.states.iter().find(|s| s.bytes != bytes) {
            panic!(
                "a data-free all-reduce over {} members needs equal wire_bytes \
                 on every member, got {bytes} and {}",
                self.states.len(),
                other.bytes
            );
        }
        plan.price(model, bytes);
        let mut net = Net { states: &mut self.states };
        let (fold_in, rest) = plan.steps.split_at(plan.passes);
        let (rounds, fold_out) = rest.split_at(rest.len() - plan.passes);
        for &(a, b, link) in fold_in {
            net.pass(a, b, plan.prices[link]);
        }
        for &(a, b, link) in rounds {
            net.exchange(a, b, plan.prices[link]);
        }
        for &(a, b, link) in fold_out {
            net.pass(a, b, plan.prices[link]);
        }
        self.folded = true;
    }
}

/// A communicator's folded all-reduce, resolved once per run: every
/// message of the message path's butterfly in the order it is sent, with
/// the link class it crosses looked up in the topology, and what a message
/// costs on each of those classes at the wire size last folded.
struct Plan {
    /// The communicator's members: the key the plan is found by.
    members: Vec<usize>,
    /// How many fold-in passes open `steps`; as many fold-out passes close
    /// it.
    passes: usize,
    /// Every message as `(a, b, link)`: member `a` to member `b` over
    /// `links[link]`. The fold-in passes, the exchange rounds (an exchange
    /// is one step), then the fold-out passes.
    steps: Vec<(usize, usize, usize)>,
    /// Each link class the fold crosses, in first-use order, with the
    /// locations of its first message.
    links: Vec<(LinkClass, ProcLocation, ProcLocation)>,
    /// How many messages each member sends, per counter bucket.
    sent: Vec<[u64; LinkClass::N_BUCKETS]>,
    /// What a message costs on each of `links` at `priced_at` wire bytes.
    prices: Vec<Price>,
    priced_at: Option<u64>,
}

impl Plan {
    /// The butterfly of an all-reduce over `members` placed on `topo`:
    /// recursive doubling on the largest power of two `≤ P`, with the first
    /// `2·rem` members folded in pairs before and after it.
    fn new(members: &[usize], topo: &GridTopology) -> Plan {
        let (pof2, rem, member) = butterfly(members.len());
        // Fold-in: each even member of the first 2·rem hands its value up.
        let fold_in = (0..2 * rem).step_by(2).map(|even| (even, even + 1));
        // The exchange rounds, on the members' folded indices.
        let mut rounds = Vec::new();
        let mut mask = 1;
        while mask < pof2 {
            let pairs = (0..pof2).filter(|new| new & mask == 0);
            rounds.extend(pairs.map(|new| (member(new), member(new | mask))));
            mask <<= 1;
        }
        // Fold-out: each odd member of the first 2·rem hands the result back.
        let fold_out = (0..2 * rem).step_by(2).map(|even| (even + 1, even));
        let mut links: Vec<(LinkClass, _, _)> = Vec::new();
        let mut step = |(a, b): (usize, usize)| {
            let (from, to) = (topo.location(members[a]), topo.location(members[b]));
            let class = LinkClass::between(from, to);
            let link = links.iter().position(|&(c, ..)| c == class).unwrap_or_else(|| {
                links.push((class, from, to));
                links.len() - 1
            });
            (a, b, link)
        };
        let steps: Vec<_> = fold_in.chain(rounds).chain(fold_out).map(&mut step).collect();
        let mut sent = vec![[0; LinkClass::N_BUCKETS]; members.len()];
        for (i, &(a, b, link)) in steps.iter().enumerate() {
            let bucket = links[link].0.bucket();
            sent[a][bucket] += 1;
            // In an exchange both members send.
            if (rem..steps.len() - rem).contains(&i) {
                sent[b][bucket] += 1;
            }
        }
        let (prices, priced_at) = (Vec::new(), None);
        Plan { members: members.to_vec(), passes: rem, steps, links, sent, prices, priced_at }
    }

    /// Prices every link class at `bytes` wire bytes, unless the last fold
    /// did: [`CostModel::message_time`] (the fault-free
    /// `message_time_under` of [`Process::send`]) and
    /// [`CostModel::wire_time`] (that of [`CostModel::receive_done`]).
    fn price(&mut self, model: &CostModel, bytes: u64) {
        if self.priced_at == Some(bytes) {
            return;
        }
        self.prices.clear();
        self.prices.extend(self.links.iter().map(|&(class, from, to)| Price {
            bucket: class.bucket(),
            send: model.message_time(from, to, bytes),
            wire: model.wire_time(from, to, bytes),
        }));
        self.priced_at = Some(bytes);
    }
}

/// The sends and opens of one fold, on the deposited states.
struct Net<'a> {
    states: &'a mut [Member],
}

impl Net<'_> {
    /// Member `a` sends to member `b`, which opens the message.
    fn pass(&mut self, a: usize, b: usize, price: Price) {
        let arrival = self.states[a].send(price);
        self.states[b].recv(price, arrival);
    }

    /// Members `a` and `b` trade values ([`Process::exchange_async`]): each
    /// receive overlaps its own send, timed from the pre-send clock.
    fn exchange(&mut self, a: usize, b: usize, price: Price) {
        let states = &mut *self.states;
        let (before_a, before_b) = (states[a].clock, states[b].clock);
        let sent_a = states[a].send(price);
        let sent_b = states[b].send(price);
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
    #[should_panic(
        expected = "over 3 members needs equal wire_bytes on every member, got 16 and 24"
    )]
    fn a_fold_over_unequal_wire_bytes_panics() {
        let link = LinkParams::from_ms_mbps(1.0, 800.0);
        let (topo, model) = two_tier_grid(1, 3, link, link, 1e9);
        let mut fold = Rendezvous::default();
        fold.reopen(0, &[0, 1, 2]);
        for (idx, bytes) in [16, 16, 24].into_iter().enumerate() {
            fold.states[idx] = Member { here: true, bytes, ..Member::default() };
        }
        fold.butterfly(&mut Plan::new(&[0, 1, 2], &topo), &model);
    }
}
