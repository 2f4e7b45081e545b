//! Admission control and queue disciplines.
//!
//! The queue is **bounded**: an arrival that finds it full is rejected
//! explicitly (the client hears "no", it is never silently dropped —
//! the conservation proptest pins this). Admitted requests wait in a
//! single queue; a *policy* decides which waiting request dispatches
//! next when capacity frees up:
//!
//! * [`Policy::Fifo`] — arrival order, the baseline. Head-of-line
//!   blocking included: nothing overtakes, which is exactly what makes
//!   its dispatch order provable (see the serve proptests).
//! * [`Policy::Sjf`] — shortest job first, using the analytic
//!   `predict_makespan` oracle as the size estimate. The classic mean-
//!   sojourn optimizer; the bench gate asserts it beats FIFO at high
//!   load.
//! * [`Policy::Edf`] — earliest deadline first, minimizing SLO misses
//!   when the system is feasible.
//! * [`Policy::Fair`] — per-tenant fair share: dispatch the request of
//!   the tenant with the least accumulated service (node-seconds), FIFO
//!   within a tenant.
//!
//! All selection tiebreaks fall back to the request id, so every policy
//! is a total deterministic order and a replay with the same seed is
//! byte-identical.
//!
//! No policy backfills: when the selected request cannot get an
//! allocation, dispatch stops until something releases. That costs some
//! utilization (a small job could squeeze past a blocked big one) but
//! keeps every policy's ordering semantics exact; backfilling is listed
//! as a roadmap follow-on.

use std::collections::{BTreeMap, VecDeque};

use tsqr_netsim::VirtualTime;

use crate::recovery::Checkpoint;

/// A queue/dispatch discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// First in, first out (arrival order).
    Fifo,
    /// Shortest (predicted) job first.
    Sjf,
    /// Earliest deadline first.
    Edf,
    /// Per-tenant fair share by accumulated node-seconds.
    Fair,
}

impl Policy {
    /// All policies, in the stable order reports and benches use.
    pub fn all() -> [Policy; 4] {
        [Policy::Fifo, Policy::Sjf, Policy::Edf, Policy::Fair]
    }

    /// Stable lowercase label (`fifo`, `sjf`, `edf`, `fair`).
    pub fn label(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::Sjf => "sjf",
            Policy::Edf => "edf",
            Policy::Fair => "fair",
        }
    }

    /// Parses a label as produced by [`Policy::label`].
    pub fn parse(s: &str) -> Result<Policy, String> {
        match s {
            "fifo" => Ok(Policy::Fifo),
            "sjf" => Ok(Policy::Sjf),
            "edf" => Ok(Policy::Edf),
            "fair" => Ok(Policy::Fair),
            other => Err(format!("unknown policy {other:?} (want fifo|sjf|edf|fair)")),
        }
    }
}

/// A request waiting in the queue, carrying everything a policy ranks by.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedJob {
    /// Request id (index into the workload; the deterministic tiebreak).
    pub id: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Menu shape index.
    pub shape: usize,
    /// Rows of this request.
    pub rows: u64,
    /// Columns (batching key).
    pub cols: usize,
    /// Site affinity (batching key).
    pub sites: usize,
    /// Arrival instant.
    pub arrival: VirtualTime,
    /// SLO deadline (EDF key). A retry keeps the original deadline, so
    /// EDF re-prioritizes re-admitted work without special casing.
    pub deadline: VirtualTime,
    /// Predicted solo service seconds (SJF key). Checkpointed retries
    /// carry their residual drain here, so SJF sees the true remaining
    /// work.
    pub service_s: f64,
    /// Tries consumed *including* the current one (1 = first dispatch).
    pub attempts: usize,
    /// Persisted partial R from a prior faulted try; `Some` means only
    /// the residual WAN drain is owed (see [`crate::recovery`]).
    pub checkpoint: Option<Checkpoint>,
    /// When this entry (re-)entered the queue — queue-wait accounting
    /// runs from here, while sojourns still run from `arrival`.
    pub enqueued: VirtualTime,
}

/// Opaque handle to one waiting job: what [`BoundedQueue::select`] returns
/// and `BoundedQueue::get` / [`BoundedQueue::remove`] accept, good until
/// the next `select` (a stale one panics instead of naming another job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket(u64);

/// Order-preserving integer image of an SJF/EDF key, so the ordered
/// index ranks exactly as `<`/`==` on the floats would.
fn key_bits(x: f64) -> u64 {
    assert!(x.is_finite() && x >= 0.0, "queue keys are finite and non-negative, got {x}");
    (x + 0.0).to_bits() // `+ 0.0` folds -0.0 onto +0.0
}

/// The `(key, id)` a keyed policy orders `job` by.
fn index_key(policy: Policy, job: &QueuedJob) -> (u64, usize) {
    match policy {
        Policy::Sjf => (key_bits(job.service_s), job.id),
        Policy::Edf => (key_bits(job.deadline.secs()), job.id),
        Policy::Fair => (job.tenant as u64, job.id),
        Policy::Fifo => unreachable!("FIFO reads the push order, not an index"),
    }
}

/// A keyed policy's ordered index: `(key, id)` → push sequence.
type Index = BTreeMap<(u64, usize), u64>;

/// Empty slots a `select` tolerates beyond `2 · len` before compacting.
const SLACK: usize = 64;

/// A bounded FIFO-ordered waiting room; policies pick *tickets* out of
/// it. Capacity 0 is legal and rejects everything (a pure admission
/// stress mode).
///
/// Jobs are stored in push order (FIFO's and `drain_matching`'s order) in
/// a slab that a ticket, the push sequence, indexes in O(1); a removal
/// empties its slot, and a `select` compacts past `2 · len + SLACK`
/// slots. The one ordered index the last `select`'s policy reads
/// (`index_key`; none for FIFO) makes every `select` O(log Q) instead of
/// a scan. Request ids are unique among waiting jobs (a request is in
/// exactly one place at a time), which makes each key unique.
#[derive(Debug, Clone)]
pub struct BoundedQueue {
    capacity: usize,
    /// Push sequence of `slots[0]`.
    base: u64,
    /// Jobs in push order, `None` where one has left; the front is a job.
    slots: VecDeque<Option<QueuedJob>>,
    len: usize,
    /// The last `select`'s keyed policy and its index.
    index: Option<(Policy, Index)>,
    /// Waiting jobs with `attempts > 1` (the brownout pressure term).
    retried: usize,
}

impl BoundedQueue {
    /// An empty queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue { capacity, base: 0, slots: VecDeque::new(), len: 0, index: None, retried: 0 }
    }

    /// Waiting requests.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when nothing waits.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when an arrival would be rejected.
    fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Waiting jobs on their second or later try.
    pub(crate) fn retried(&self) -> usize {
        self.retried
    }

    /// Admits `job`, or returns it when the queue is full (the explicit
    /// rejection path — the caller records the outcome).
    pub fn try_push(&mut self, job: QueuedJob) -> Result<(), QueuedJob> {
        if self.is_full() {
            Err(job)
        } else {
            self.push_unbounded(job);
            Ok(())
        }
    }

    /// Re-admits a retried job *past* the capacity bound. A retry was
    /// already admitted once — bouncing it off a full queue would turn a
    /// transient fault into a silent rejection; sustained overload is
    /// handled by brownout shedding instead (see [`crate::recovery`]).
    pub(crate) fn push_unbounded(&mut self, job: QueuedJob) {
        // Refused under every policy, whichever index is held.
        let _ = (key_bits(job.service_s), key_bits(job.deadline.secs()));
        let seq = self.base + self.slots.len() as u64;
        if let Some((policy, index)) = &mut self.index {
            let fresh = index.insert(index_key(*policy, &job), seq).is_none();
            assert!(fresh, "request {} is already waiting", job.id);
        }
        self.retried += usize::from(job.attempts > 1);
        self.len += 1;
        self.slots.push_back(Some(job));
    }

    /// The waiting jobs, in push order (read-only view).
    #[cfg(test)]
    pub(crate) fn items(&self) -> impl Iterator<Item = &QueuedJob> {
        self.slots.iter().flatten()
    }

    /// The job `policy` dispatches next, given each tenant's accumulated
    /// service (`tenant_served`, node-seconds; only Fair reads it).
    /// `None` on an empty queue. A change of keyed policy rebuilds the index.
    pub fn select(&mut self, policy: Policy, tenant_served: &[f64]) -> Option<Ticket> {
        if self.slots.len() > 2 * self.len + SLACK {
            // Renumbered past every ticket handed out, so a stale one names nothing.
            self.base += self.slots.len() as u64;
            self.slots.retain(Option::is_some);
            self.index = None;
        }
        self.index.take_if(|(held, _)| *held != policy);
        if policy == Policy::Fifo {
            debug_assert!(self.slots.front().is_none_or(Option::is_some), "a hole at the front");
            return (self.len > 0).then_some(Ticket(self.base));
        }
        let (_, index) = self.index.get_or_insert_with(|| {
            let slots = (self.base..).zip(&self.slots);
            let jobs = slots.filter_map(|(seq, slot)| Some((seq, slot.as_ref()?)));
            (policy, jobs.map(|(seq, j)| (index_key(policy, j), seq)).collect())
        });
        let seq = match policy {
            // FIFO within a tenant, so only each tenant's lowest id
            // competes: the minimum of `(served, id)` over tenants.
            Policy::Fair => {
                let mut best: Option<(f64, usize, u64)> = None;
                let mut from = 0u64;
                while let Some((&(tenant, id), &seq)) = index.range((from, 0)..).next() {
                    let served = tenant_served[tenant as usize];
                    if best.is_none_or(|(s, i, _)| served < s || (served == s && id < i)) {
                        best = Some((served, id, seq));
                    }
                    from = tenant + 1;
                }
                best.map(|(_, _, seq)| seq)
            }
            _ => index.first_key_value().map(|(_, &seq)| seq),
        };
        seq.map(Ticket)
    }

    /// The waiting job behind `ticket`.
    ///
    /// # Panics
    /// Panics when the job has left or a `select` came after the ticket.
    pub(crate) fn get(&self, ticket: Ticket) -> &QueuedJob {
        self.slots[(ticket.0 - self.base) as usize].as_ref().expect("ticket names a waiting job")
    }

    /// Removes and returns the job behind `ticket` (preserving the push
    /// order of the rest).
    ///
    /// # Panics
    /// Panics when the job has left or a `select` came after the ticket.
    pub fn remove(&mut self, ticket: Ticket) -> QueuedJob {
        let slot = &mut self.slots[(ticket.0 - self.base) as usize];
        let job = slot.take().expect("ticket names a waiting job");
        if let Some((policy, index)) = &mut self.index {
            index.remove(&index_key(*policy, &job));
        }
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        self.len -= 1;
        self.retried -= usize::from(job.attempts > 1);
        job
    }

    /// Removes every waiting job with the given batching key (same
    /// columns, same site affinity — i.e. same placement and tree shape,
    /// only row counts differ), in push order. Used by `--batch` to
    /// coalesce a burst into one stacked TSQR. Checkpointed retries never
    /// join a batch: they owe only a residual drain, which cannot share a
    /// fresh batch's local phase.
    pub(crate) fn drain_matching(&mut self, cols: usize, sites: usize) -> Vec<QueuedJob> {
        let batches = |j: &QueuedJob| j.cols == cols && j.sites == sites && j.checkpoint.is_none();
        let matched: Vec<u64> = (self.base..)
            .zip(&self.slots)
            .filter(|(_, slot)| slot.as_ref().is_some_and(batches))
            .map(|(seq, _)| seq)
            .collect();
        matched.into_iter().map(|seq| self.remove(Ticket(seq))).collect()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use tsqr_netsim::SplitMix64;

    use super::*;

    fn ids(q: &BoundedQueue) -> Vec<usize> {
        q.items().map(|j| j.id).collect()
    }

    fn selected(q: &mut BoundedQueue, policy: Policy, served: &[f64]) -> Option<usize> {
        q.select(policy, served).map(|t| q.get(t).id)
    }

    /// Whether `ticket` still names a job (`get` would panic otherwise).
    fn names_a_job(q: &BoundedQueue, ticket: Ticket) -> bool {
        q.slots.get(ticket.0.wrapping_sub(q.base) as usize).is_some_and(Option::is_some)
    }

    /// The pre-index queue: a `Vec` in push order, `select` a linear scan
    /// and `remove` a `Vec::remove`. Kept only as the reference the
    /// differential test replays against.
    struct LinearQueue {
        capacity: usize,
        items: Vec<QueuedJob>,
    }

    impl LinearQueue {
        fn try_push(&mut self, job: QueuedJob) -> Result<(), QueuedJob> {
            if self.items.len() >= self.capacity {
                Err(job)
            } else {
                self.items.push(job);
                Ok(())
            }
        }

        fn select(&self, policy: Policy, tenant_served: &[f64]) -> Option<usize> {
            if self.items.is_empty() {
                return None;
            }
            let best = |key: &dyn Fn(&QueuedJob) -> (f64, usize)| -> usize {
                let mut best_pos = 0;
                let mut best_key = key(&self.items[0]);
                for (pos, j) in self.items.iter().enumerate().skip(1) {
                    let k = key(j);
                    if k.0 < best_key.0 || (k.0 == best_key.0 && k.1 < best_key.1) {
                        best_key = k;
                        best_pos = pos;
                    }
                }
                best_pos
            };
            Some(match policy {
                Policy::Fifo => 0,
                Policy::Sjf => best(&|j| (j.service_s, j.id)),
                Policy::Edf => best(&|j| (j.deadline.secs(), j.id)),
                Policy::Fair => best(&|j| (tenant_served[j.tenant], j.id)),
            })
        }

        fn drain_matching(&mut self, cols: usize, sites: usize) -> Vec<QueuedJob> {
            let (matched, rest) = std::mem::take(&mut self.items)
                .into_iter()
                .partition(|j| j.cols == cols && j.sites == sites && j.checkpoint.is_none());
            self.items = rest;
            matched
        }
    }

    fn job(id: usize, tenant: usize, service_s: f64, deadline_s: f64) -> QueuedJob {
        QueuedJob {
            id,
            tenant,
            shape: 0,
            rows: 1 << 19,
            cols: 64,
            sites: 1,
            arrival: VirtualTime::from_secs(id as f64),
            deadline: VirtualTime::from_secs(deadline_s),
            service_s,
            attempts: 1,
            checkpoint: None,
            enqueued: VirtualTime::from_secs(id as f64),
        }
    }

    #[test]
    fn policy_labels_round_trip() {
        for p in Policy::all() {
            assert_eq!(Policy::parse(p.label()), Ok(p));
        }
        assert!(Policy::parse("lifo").is_err());
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut q = BoundedQueue::new(2);
        assert!(q.try_push(job(0, 0, 1.0, 10.0)).is_ok());
        assert!(q.try_push(job(1, 0, 1.0, 10.0)).is_ok());
        let bounced = q.try_push(job(2, 0, 1.0, 10.0));
        assert_eq!(bounced.unwrap_err().id, 2);
        assert_eq!(q.len(), 2);
        // Zero capacity rejects everything.
        let mut z = BoundedQueue::new(0);
        assert!(z.try_push(job(0, 0, 1.0, 10.0)).is_err());
    }

    #[test]
    fn selection_keys_per_policy() {
        let mut q = BoundedQueue::new(8);
        q.try_push(job(0, 0, 5.0, 30.0)).unwrap();
        q.try_push(job(1, 1, 1.0, 20.0)).unwrap();
        q.try_push(job(2, 0, 3.0, 10.0)).unwrap();
        let served = vec![100.0, 0.0];
        assert_eq!(selected(&mut q, Policy::Fifo, &served), Some(0));
        assert_eq!(selected(&mut q, Policy::Sjf, &served), Some(1), "shortest service");
        assert_eq!(selected(&mut q, Policy::Edf, &served), Some(2), "earliest deadline");
        assert_eq!(selected(&mut q, Policy::Fair, &served), Some(1), "least-served tenant");
        let t = q.select(Policy::Sjf, &served).unwrap();
        assert_eq!(q.remove(t).id, 1);
        assert_eq!(ids(&q), vec![0, 2], "arrival order preserved after removal");
    }

    #[test]
    fn ties_break_by_request_id() {
        let mut q = BoundedQueue::new(8);
        q.try_push(job(3, 0, 1.0, 10.0)).unwrap();
        q.try_push(job(1, 1, 1.0, 10.0)).unwrap();
        let served = vec![0.0, 0.0];
        // Equal service, equal deadline, equal tenant credit → lowest id.
        assert_eq!(selected(&mut q, Policy::Sjf, &served), Some(1));
        assert_eq!(selected(&mut q, Policy::Edf, &served), Some(1));
        assert_eq!(selected(&mut q, Policy::Fair, &served), Some(1));
    }

    #[test]
    fn retries_bypass_the_bound_and_checkpoints_never_batch() {
        let mut q = BoundedQueue::new(1);
        q.try_push(job(0, 0, 1.0, 10.0)).unwrap();
        assert!(q.is_full());
        let mut retry = job(1, 0, 1.0, 10.0);
        retry.attempts = 2;
        retry.checkpoint = Some(Checkpoint { residual_wan_s: 0.01 });
        q.push_unbounded(retry);
        assert_eq!(q.len(), 2, "re-admission ignores the capacity bound");
        // The checkpointed retry stays out of the batch.
        let batch = q.drain_matching(64, 1);
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0]);
        assert_eq!(ids(&q), vec![1]);
        assert_eq!(q.retried(), 1);
    }

    #[test]
    fn drain_matching_takes_only_the_batch_key() {
        let mut q = BoundedQueue::new(8);
        q.try_push(job(0, 0, 1.0, 10.0)).unwrap();
        let mut other = job(1, 0, 1.0, 10.0);
        other.cols = 32;
        q.try_push(other).unwrap();
        q.try_push(job(2, 1, 1.0, 12.0)).unwrap();
        let batch = q.drain_matching(64, 1);
        assert_eq!(batch.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(ids(&q), vec![1]);
    }

    #[test]
    fn push_order_survives_holes_and_a_compaction() {
        let mut q = BoundedQueue::new(1_000);
        for id in 0..300 {
            let mut j = job(id, 0, 1.0, 10.0);
            j.cols = [64, 32][id % 2];
            q.try_push(j).unwrap();
        }
        // Before any `select` a ticket is the push sequence, here the id.
        for id in (1..250).filter(|id| id % 5 != 0) {
            assert_eq!(q.remove(Ticket(id as u64)).id, id);
        }
        let mut want: Vec<usize> = (0..300).filter(|id| id % 5 == 0 || *id >= 250).collect();
        assert_eq!(ids(&q), want, "items() skips the holes");
        assert_eq!(q.slots.len(), 300, "job 0 keeps every hole behind it");
        // `--batch` coalesces its members in push order through the holes.
        let batch: Vec<usize> = q.drain_matching(32, 1).iter().map(|j| j.id).collect();
        assert_eq!(batch, want.iter().copied().filter(|id| id % 2 == 1).collect::<Vec<_>>());
        want.retain(|id| id % 2 == 0);
        assert_eq!(ids(&q), want);

        // This `select` compacts (300 slots for 50 jobs), and FIFO still
        // takes the oldest job.
        let head = q.select(Policy::Fifo, &[]).unwrap();
        assert_eq!(q.slots.len(), q.len(), "compacted");
        assert_eq!(q.get(head).id, 0);
        assert_eq!(ids(&q), want, "compaction keeps the push order");
        assert!(!names_a_job(&q, Ticket(10)), "a ticket from before it names nothing");
        q.remove(head);
        want.remove(0);
        // New holes after the compaction: the next-oldest job leaves through
        // an EDF select (ties on deadline, so the lowest id), then FIFO takes
        // the one after it, and a batch drains the rest in push order.
        let t = q.select(Policy::Edf, &[]).unwrap();
        assert_eq!(q.remove(t).id, want.remove(0));
        assert_eq!(selected(&mut q, Policy::Fifo, &[]), Some(want[0]));
        let batch: Vec<usize> = q.drain_matching(64, 1).iter().map(|j| j.id).collect();
        assert_eq!(batch, want);
        assert!(q.is_empty() && q.slots.is_empty());
    }

    #[test]
    fn a_key_the_indexes_cannot_order_is_refused() {
        let mut nan_deadline = job(0, 0, 1.0, 1.0);
        nan_deadline.deadline = VirtualTime(f64::NAN);
        let bad = [job(0, 0, f64::NAN, 1.0), nan_deadline, job(0, 0, -1.0, 1.0)];
        // No `select` yet, FIFO's (no index either), and each keyed
        // policy's own: the refusal must not depend on the index held.
        let mut queues: Vec<(String, BoundedQueue)> = [None]
            .into_iter()
            .chain(Policy::all().map(Some))
            .map(|policy| {
                let mut q = BoundedQueue::new(2);
                q.try_push(job(1, 0, 1.0, 1.0)).unwrap();
                if let Some(p) = policy {
                    q.select(p, &[0.0]);
                }
                (format!("{policy:?}"), q)
            })
            .collect();
        // Nor on a `select` having just compacted the slab.
        let mut q = BoundedQueue::new(200);
        let mut front = job(1, 0, 1.0, 1.0);
        front.cols = 32;
        q.try_push(front).unwrap();
        for id in 2..100 {
            q.try_push(job(id, 0, 1.0, 1.0)).unwrap();
        }
        q.drain_matching(64, 1);
        q.select(Policy::Edf, &[0.0]);
        assert_eq!(q.slots.len(), 1, "the select compacted");
        queues.push(("a just-compacted EDF queue".into(), q));
        for (held, q) in &queues {
            for j in &bad {
                let mut q = q.clone();
                let push = std::panic::AssertUnwindSafe(|| q.push_unbounded(j.clone()));
                let refusal = std::panic::catch_unwind(push)
                    .expect_err(&format!("{j:?} admitted under {held}"));
                let message = refusal.downcast::<String>().expect("a formatted panic");
                assert!(message.contains("finite and non-negative"), "{message}");
            }
        }
    }

    /// Pins one job with the loosest `policy` key at the front of the slab
    /// and moves 2 000 others past it, so holes pile up behind the pin and
    /// `select` compacts again and again. After every `select` the slab is
    /// within its bound; after every compacting one, no ticket of a removed
    /// job names a job. A FIFO drain then takes the pin and the rest in
    /// push order. Returns the number of compactions.
    fn replay_past_a_pinned_job(seed: u64, policy: Policy) -> usize {
        let mut rng = SplitMix64::new(seed);
        let mut q = BoundedQueue::new(usize::MAX);
        let mut lin = LinearQueue { capacity: usize::MAX, items: Vec::new() };
        // The latest deadline, the longest service and the most-served tenant.
        let mut served = vec![1e9, 0.0, 0.0, 0.0];
        let pin = job(0, 0, 1e6, 1e6);
        assert_eq!(q.try_push(pin.clone()), lin.try_push(pin));
        let (mut stale, mut compactions) = (Vec::new(), 0);
        for id in 1..=2_000 {
            let tenant = 1 + rng.next_below(3) as usize;
            let j = job(id, tenant, rng.next_below(3) as f64 * 0.5, rng.next_below(5) as f64);
            assert_eq!(q.try_push(j.clone()), lin.try_push(j));
            // Half again as many dispatches as arrivals, so the queue stays
            // shallow while its slab fills with holes.
            for _ in 0..rng.next_below(4) {
                let slots = q.slots.len();
                let t = q.select(policy, &served).expect("the pin waits");
                assert!(q.slots.len() <= 2 * q.len() + SLACK, "{} slots", q.slots.len());
                if q.slots.len() < slots {
                    compactions += 1;
                    assert!(!stale.iter().any(|&s| names_a_job(&q, s)), "a stale ticket");
                }
                if lin.items.len() == 1 {
                    break; // only the pin waits
                }
                let pos = lin.select(policy, &served).expect("same depth");
                let j = q.remove(t);
                assert_eq!(j, lin.items.remove(pos));
                served[j.tenant] += rng.next_below(3) as f64;
                stale.push(t);
            }
            assert!(q.items().eq(&lin.items), "push order diverged");
        }
        while let Some(t) = q.select(Policy::Fifo, &served) {
            assert_eq!(q.remove(t), lin.items.remove(0));
        }
        assert!(lin.items.is_empty());
        compactions
    }

    #[test]
    fn compaction_keeps_tickets_and_push_order_past_a_pinned_job() {
        for policy in [Policy::Sjf, Policy::Edf, Policy::Fair] {
            for seed in 1..=3 {
                let compactions = replay_past_a_pinned_job(seed, policy);
                assert!(compactions >= 5, "{policy:?} seed {seed}: {compactions} compactions");
            }
        }
    }

    /// Replays 400 random pushes, retries, dispatches and batch drains
    /// through the indexed queue and the linear reference, with keys drawn
    /// from a handful of values so ties and duplicates are the common
    /// case. Each dispatch draws its policy from `policies`, and after
    /// every step each of them selects the same job on both queues.
    fn replay_against_the_linear_scan(seed: u64, cap: usize, policies: &[Policy]) {
        let mut rng = SplitMix64::new(seed);
        let mut q = BoundedQueue::new(cap);
        let mut lin = LinearQueue { capacity: cap, items: Vec::new() };
        let mut served = vec![0.0f64; 4];
        let mut next_id = 0usize;
        let mut out: Vec<QueuedJob> = Vec::new(); // removed, eligible to retry
        for _ in 0..400 {
            match rng.next_below(8) {
                0..=2 => {
                    let mut j = job(
                        next_id,
                        rng.next_below(4) as usize,
                        rng.next_below(3) as f64 * 0.5,
                        rng.next_below(5) as f64,
                    );
                    j.cols = [32, 64][rng.next_below(2) as usize];
                    next_id += 1;
                    prop_assert_eq!(q.try_push(j.clone()), lin.try_push(j));
                }
                3 if !out.is_empty() => {
                    let mut j = out.swap_remove(rng.next_below(out.len() as u64) as usize);
                    j.attempts += 1;
                    if rng.next_below(2) == 0 {
                        j.service_s = rng.next_below(3) as f64 * 0.25;
                        j.checkpoint = Some(Checkpoint { residual_wan_s: j.service_s });
                    }
                    q.push_unbounded(j.clone());
                    lin.items.push(j);
                }
                4..=5 => {
                    let policy = policies[rng.next_below(policies.len() as u64) as usize];
                    if let Some(t) = q.select(policy, &served) {
                        let j = q.remove(t);
                        let pos = lin.select(policy, &served).expect("same depth");
                        prop_assert_eq!(&j, &lin.items.remove(pos));
                        served[j.tenant] += rng.next_below(3) as f64;
                        out.push(j);
                    }
                }
                6 => {
                    let cols = [32, 64][rng.next_below(2) as usize];
                    let batch = q.drain_matching(cols, 1);
                    prop_assert_eq!(&batch, &lin.drain_matching(cols, 1));
                    out.extend(batch);
                }
                _ => {}
            }
            for &policy in policies {
                let want = lin.select(policy, &served).map(|pos| lin.items[pos].id);
                prop_assert_eq!(selected(&mut q, policy, &served), want);
            }
            prop_assert!(q.items().eq(&lin.items), "push order diverged");
            prop_assert_eq!(q.len(), lin.items.len());
            prop_assert_eq!(q.retried(), lin.items.iter().filter(|j| j.attempts > 1).count());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every policy after every step: each `select` finds another
        /// policy's index and rebuilds it, so this is the oracle of the
        /// rebuild path.
        #[test]
        fn indexed_queue_matches_the_linear_scan(seed in 0u64..1_000_000, cap in 1usize..40) {
            replay_against_the_linear_scan(seed, cap, &Policy::all());
        }

        /// One policy for the whole case, as the engine runs: the index is
        /// built once and then kept by each push and remove.
        #[test]
        fn one_policy_queue_keeps_its_index_in_step(
            seed in 0u64..1_000_000,
            cap in 1usize..40,
            policy in 0usize..4,
        ) {
            replay_against_the_linear_scan(seed, cap, &[Policy::all()[policy]]);
        }
    }
}
