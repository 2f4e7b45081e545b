//! The per-rank handle: point-to-point messaging, virtual clock, counters.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use tsqr_netsim::{CostModel, FailureSchedule, GridTopology, LinkClass, ProcLocation, VirtualTime};

use crate::error::CommError;
use crate::mailbox::{block_on, Mailbox};
use crate::message::{Death, Envelope, EnvelopeKind, WirePayload};
use crate::metrics::MetricsRegistry;
use crate::trace::{Event, EventKind, FaultKind, Recorder};

/// Failure-detector slack: a silent peer is declared dead this many
/// zero-payload one-way message times (of the link class between the two
/// ranks) after its last sign of life. WAN partners therefore get
/// proportionally more virtual-time grace than intra-node ones, exactly
/// as a latency-scaled MPI heartbeat timeout would.
pub(crate) const DETECTION_LATENCY_FACTOR: f64 = 4.0;

/// Bounded retransmission budget for transient message drops: a send
/// whose transmissions are all lost gives up after this many attempts
/// and surfaces [`CommError::MessageDropped`]. Between attempts the
/// sender backs off `2^(attempt-1)` link latencies.
pub(crate) const MAX_SEND_ATTEMPTS: u32 = 4;

/// The order in which buffered messages from *different* sources queue in
/// a rank's pending buffer. Per-source FIFO is always preserved (it is
/// what makes named receives deterministic); only the interleaving
/// *between* sources changes — which is exactly the freedom a wildcard
/// receive ([`Process::recv_any_async`]) would observe.
///
/// The DPOR-lite explorer ([`mod@crate::explore`]) re-runs a program under
/// several of these orders and asserts bit-identical results: a program
/// whose output changes under a different `DeliveryOrder` is
/// schedule-dependent, and the happens-before analyzer ([`crate::hb`])
/// names the racing receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryOrder {
    /// Inbox arrival order (the default; what a real network does).
    #[default]
    Arrival,
    /// Buffered messages sort by ascending source rank.
    SourceAscending,
    /// Buffered messages sort by descending source rank.
    SourceDescending,
    /// Each buffered message lands at a pseudo-random legal position
    /// derived from the seed, the receiving rank and a per-rank counter
    /// (deterministic for a fixed seed).
    Seeded(u64),
}

/// Per-rank traffic counters, bucketed by [`LinkClass::bucket`]
/// (0 = intra-node, 1 = intra-cluster, 2 = inter-cluster).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Messages sent, per bucket.
    pub msgs: [u64; 3],
    /// Payload bytes sent, per bucket.
    pub bytes: [u64; 3],
    /// Floating-point operations charged via [`Process::compute`].
    pub flops: u64,
}

impl TrafficCounters {
    /// The traffic columns of a metrics registry, summed over its phases:
    /// the registry is the one ledger `send` and `compute` write.
    pub(crate) fn of(metrics: &MetricsRegistry) -> TrafficCounters {
        let total = metrics.total();
        TrafficCounters { msgs: total.msgs, bytes: total.bytes, flops: total.flops }
    }

    /// Total messages across all link classes.
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// Total bytes across all link classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Messages that crossed a wide-area (inter-cluster) link.
    pub fn inter_cluster_msgs(&self) -> u64 {
        self.msgs[2]
    }

    /// Element-wise sum.
    pub(crate) fn merge(&self, other: &TrafficCounters) -> TrafficCounters {
        let mut out = *self;
        for i in 0..3 {
            out.msgs[i] += other.msgs[i];
            out.bytes[i] += other.bytes[i];
        }
        out.flops += other.flops;
        out
    }
}

/// Final per-rank statistics reported by the runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankStats {
    /// The rank's final virtual clock.
    pub clock: VirtualTime,
    /// Its traffic counters.
    pub traffic: TrafficCounters,
}

/// A rank's handle to the simulated machine.
///
/// Created by [`crate::Runtime::run`] or
/// [`crate::Runtime::run_cooperative`] and passed to the rank program; all
/// communication, timing and accounting goes through it.
///
/// `send` never blocks; the three calls that can wait for a peer are
/// `async` bodies (`recv_async`, `recv_any_async`, `exchange_async`), which
/// every rank program awaits under either driver. Their plain names are
/// `block_on` one-liners ([`crate::block_on`]) kept for code that runs on a
/// rank's own thread and cannot await: the schedule explorer's programs
/// and the threaded oracles of the tests. The one other place a rank waits
/// is a data-free all-reduce folded in a cooperative run
/// ([`crate::Communicator::allreduce_with_async`]), where it waits for the
/// last member to arrive. A wait that can never end fails with a typed
/// error under either driver, decided in the run's mailbox hub when no
/// rank is left running — never by a clock.
pub struct Process {
    pub(crate) rank: usize,
    pub(crate) size: usize,
    pub(crate) topo: Arc<GridTopology>,
    pub(crate) model: Arc<CostModel>,
    /// The failure script in force (empty by default).
    pub(crate) schedule: Arc<FailureSchedule>,
    /// This rank's scheduled crash time, if any (cached from `schedule`).
    pub(crate) crash_at: Option<VirtualTime>,
    /// True once this rank broadcast its own death (crash or abort).
    pub(crate) death_announced: bool,
    /// Peers known dead, with how and when (fed by tombstones).
    /// `BTreeMap` so every drain over it is deterministic.
    pub(crate) dead: BTreeMap<usize, Death>,
    /// Per-destination transmission sequence numbers (indexes the
    /// schedule's drop rules).
    pub(crate) sent_seq: Vec<u64>,
    /// Every peer's inbox and this rank's own.
    pub(crate) mailbox: Mailbox,
    /// Messages that arrived while waiting for a different source.
    pub(crate) pending: VecDeque<Envelope>,
    pub(crate) clock: VirtualTime,
    /// Time until which this rank's receive NIC is busy clocking bytes in.
    /// Concurrent senders to the same receiver serialize on it — without
    /// this, a flat reduction tree would absorb P−1 simultaneous messages
    /// for free.
    pub(crate) nic_free: VirtualTime,
    /// Event recorder (present when the runtime enabled tracing).
    pub(crate) recorder: Option<Recorder>,
    /// Open phases, innermost last: `(name, virtual time at begin)`.
    pub(crate) phase_stack: Vec<(&'static str, VirtualTime)>,
    /// Always-on per-phase Eq. (1) counters — the one traffic
    /// ledger ([`Process::counters`] is its projection).
    pub(crate) metrics: MetricsRegistry,
    /// Inter-source ordering discipline for the pending buffer (see
    /// [`DeliveryOrder`]; installed by
    /// [`crate::Runtime::set_delivery_order`]).
    pub(crate) delivery: DeliveryOrder,
    /// Messages buffered so far (feeds the seeded delivery permutation).
    pub(crate) buffered: u64,
}

impl Process {
    /// This rank's global index.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks in the run.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's physical coordinate.
    pub fn location(&self) -> ProcLocation {
        self.topo.location(self.rank)
    }

    /// The cluster (site) this rank lives on.
    pub fn cluster(&self) -> usize {
        self.location().cluster
    }

    /// The shared topology.
    pub fn topology(&self) -> &GridTopology {
        &self.topo
    }

    /// Current virtual time at this rank.
    #[inline]
    pub fn clock(&self) -> VirtualTime {
        self.clock
    }

    /// Traffic counters so far.
    pub fn counters(&self) -> TrafficCounters {
        TrafficCounters::of(&self.metrics)
    }

    /// Advances the clock by an explicit span (e.g. externally-modelled
    /// work). Metered as compute time of the current phase.
    pub fn advance(&mut self, dt: VirtualTime) {
        self.clock += dt;
        self.metrics.record_compute(self.current_phase(), 0, dt.secs());
    }

    /// Opens a named algorithm phase. Phases nest (innermost wins for
    /// event stamping and metrics attribution) and must be closed with
    /// [`Process::phase_end`]; the runtime closes any phase left open
    /// when the rank program returns.
    ///
    /// Labels should be short static identifiers (`"leaf-qr"`,
    /// `"tree-reduce"`, …) — they become metric rows and trace
    /// categories; see `docs/observability.md`.
    pub fn phase_begin(&mut self, name: &'static str) {
        self.phase_stack.push((name, self.clock));
    }

    /// Closes the innermost open phase, recording its span as an
    /// [`EventKind::Phase`] event when tracing is enabled.
    ///
    /// # Panics
    /// Panics when no phase is open (an unbalanced `phase_end` is a
    /// bug in the rank program).
    pub fn phase_end(&mut self) {
        let (name, began) = self.phase_stack.pop().expect("phase_end without phase_begin");
        // Popped first: the marker is stamped with the *enclosing* phase.
        self.record(began, self.clock, EventKind::Phase { name });
    }

    /// Appends one event to the trace, stamped with this rank and its
    /// innermost open phase. No-op unless tracing is enabled.
    fn record(&mut self, start: VirtualTime, end: VirtualTime, kind: EventKind) {
        let phase = self.current_phase();
        if let Some(rec) = &mut self.recorder {
            rec.events.push(Event { rank: self.rank, start, end, phase, kind });
        }
    }

    /// Drops a zero-width annotation marker into the trace at the
    /// current virtual time: an [`EventKind::Phase`] event with
    /// `start == end`, stamped with the innermost open phase. Costs
    /// nothing on the simulated clock and is skipped by the wait-state
    /// and DAG analyses (which ignore phase events), so rank programs
    /// can tag spans with configuration facts — e.g. the reduction-tree
    /// shape chosen by the autotuner — without perturbing any analysis
    /// or baseline *timing*. No-op unless tracing is enabled.
    pub fn annotate(&mut self, name: &'static str) {
        self.record(self.clock, self.clock, EventKind::Phase { name });
    }

    /// Runs `f` inside a phase (begin/end are paired even on early
    /// `?` returns inside `f` — the result is propagated after the
    /// phase closes).
    pub fn with_phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.phase_begin(name);
        let out = f(self);
        self.phase_end();
        out
    }

    /// The innermost open phase, if any.
    pub(crate) fn current_phase(&self) -> Option<&'static str> {
        self.phase_stack.last().map(|(n, _)| *n)
    }

    /// Charges `flops` floating-point operations at `rate` flop/s (the
    /// model's default rate when `None`) and advances the clock.
    pub fn compute(&mut self, flops: u64, rate: Option<f64>) {
        let start = self.clock;
        self.clock += self.model.compute_time(flops, rate);
        self.metrics.record_compute(self.current_phase(), flops, (self.clock - start).secs());
        self.record(start, self.clock, EventKind::Compute { flops });
    }

    /// True unless a failure was injected on the `self → dst` link.
    pub(crate) fn link_ok(&self, dst: usize) -> bool {
        !self.schedule.link_down(self.rank, dst)
    }

    /// The failure schedule in force (empty by default).
    pub fn failure_schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// The virtual-time failure-detection deadline for `peer`: a silent
    /// peer is declared dead [`DETECTION_LATENCY_FACTOR`] zero-payload
    /// one-way message times (Eq. (1), per the link class between the
    /// two ranks) after its crash instant. Derived from the cost model —
    /// **not** a wall-clock guess.
    fn failure_deadline(&self, peer: usize) -> VirtualTime {
        let from = self.topo.location(peer);
        let one_way = self.model.message_time(from, self.location(), 0);
        VirtualTime::from_secs(one_way.secs() * DETECTION_LATENCY_FACTOR)
    }

    /// Fails with [`CommError::RankFailed`] once this rank's own
    /// scheduled crash time has passed, broadcasting its tombstone to
    /// every peer the first time.
    fn check_alive(&mut self) -> Result<(), CommError> {
        let Some(at) = self.crash_at else { return Ok(()) };
        if self.clock < at {
            return Ok(());
        }
        self.announce_death(Death::Crash(at));
        Err(CommError::RankFailed { rank: self.rank, at })
    }

    /// Broadcasts a tombstone to every peer (idempotent).
    fn announce_death(&mut self, death: Death) {
        if self.death_announced {
            return;
        }
        self.death_announced = true;
        for dst in 0..self.size {
            if dst != self.rank {
                self.mailbox.post(dst, Envelope::tombstone(self.rank, death));
            }
        }
    }

    /// Tombstone broadcast for a rank program that returned an error
    /// (called by the runtime so peers fail fast in virtual time instead
    /// of starving).
    pub(crate) fn announce_abort(&mut self) {
        self.announce_death(Death::Abort(self.clock));
    }

    /// Consumes a tombstone while waiting on `peer`: advances the clock
    /// to the virtual-time detection instant, records the
    /// failure-induced wait into metrics (`recv_wait_s`) and the trace
    /// (an [`EventKind::Fault`] span), and returns the typed error.
    fn observe_death(&mut self, peer: usize, death: Death, wait_start: VirtualTime) -> CommError {
        let (fault, err) = match death {
            Death::Crash(at) => (FaultKind::RankFailed, CommError::RankFailed { rank: peer, at }),
            Death::Abort(_) => {
                (FaultKind::PeerAborted, CommError::PeerGone { rank: self.rank, from: peer })
            }
        };
        let from = self.topo.location(peer);
        let class = LinkClass::between(from, self.location());
        self.clock = self.clock.max(death.at() + self.failure_deadline(peer));
        self.metrics.record_recv(self.current_phase(), (self.clock - wait_start).secs());
        self.record(wait_start, self.clock, EventKind::Fault { peer, class, kind: fault });
        // Detecting the death may itself have pushed this rank past its
        // own crash time.
        if let Err(own) = self.check_alive() {
            return own;
        }
        err
    }

    /// Send of `msg` to `dst`. Never waits for the receiver (inboxes are
    /// unbounded), so it is not a suspension point.
    ///
    /// Completes (and advances this rank's clock) at
    /// `clock + β + α·wire_bytes`; the message arrives at the same instant,
    /// which models a rendezvous transfer whose cost lands on the critical
    /// path exactly once — the convention under which the paper counts
    /// `β·#msg + α·vol` (Eq. (1)).
    ///
    /// Under a failure schedule, three extra things can happen:
    /// the sender itself may be crashed ([`CommError::RankFailed`]);
    /// the link parameters may pass through an active degradation
    /// window (priced via
    /// [`tsqr_netsim::CostModel::message_time_under`], marked with a
    /// zero-width [`FaultKind::LinkDegraded`] trace event); and the
    /// transmission may be dropped — dropped attempts are retransmitted
    /// with exponential backoff up to `MAX_SEND_ATTEMPTS`, after which
    /// the receiver is sent a *ghost* (so it learns of the loss at the
    /// deterministic would-be arrival time) and the sender gets
    /// [`CommError::MessageDropped`].
    pub fn send<M: WirePayload>(&mut self, dst: usize, tag: u32, msg: M) -> Result<(), CommError> {
        assert!(dst < self.size, "send to nonexistent rank {dst}");
        assert_ne!(dst, self.rank, "self-sends are a protocol bug");
        self.check_alive()?;
        if !self.link_ok(dst) {
            return Err(CommError::LinkDown { src: self.rank, dst });
        }
        let bytes = msg.wire_bytes();
        let from = self.location();
        let to = self.topo.location(dst);
        let class = LinkClass::between(from, to);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let nth = self.sent_seq[dst];
            self.sent_seq[dst] += 1;
            let send_start = self.clock;
            let degraded = self.schedule.is_degraded(class, send_start);
            self.clock +=
                self.model.message_time_under(from, to, bytes, send_start, &self.schedule);
            let dropped = self.schedule.should_drop(self.rank, dst, nth);
            let arrival = self.clock;
            if dropped && attempts < MAX_SEND_ATTEMPTS {
                // Retransmission backoff: 2^(attempt−1) base link latencies.
                let backoff =
                    self.model.link(from, to).latency_s * f64::from(1u32 << (attempts - 1));
                self.clock += VirtualTime::from_secs(backoff);
            }
            self.metrics.record_send(
                self.current_phase(),
                class,
                bytes,
                (self.clock - send_start).secs(),
            );
            if degraded {
                let kind = FaultKind::LinkDegraded;
                self.record(send_start, send_start, EventKind::Fault { peer: dst, class, kind });
            }
            let kind = if dropped {
                EventKind::Fault { peer: dst, class, kind: FaultKind::DropSent }
            } else {
                EventKind::Send { to: dst, bytes, class, tag }
            };
            self.record(send_start, self.clock, kind);
            if dropped && attempts < MAX_SEND_ATTEMPTS {
                continue;
            }
            let env = Envelope {
                src: self.rank,
                tag,
                arrival,
                bytes,
                kind: EnvelopeKind::Data { dropped },
                payload: Box::new(msg),
            };
            self.mailbox.post(dst, env);
            return if dropped {
                Err(CommError::MessageDropped { src: self.rank, dst, attempts })
            } else {
                Ok(())
            };
        }
    }

    /// Receive of a message from `src` with tag `tag`, waiting for it.
    ///
    /// Advances the clock to the message's arrival time (if later). Messages
    /// from other sources that arrive in the meantime are buffered;
    /// tombstones (peer deaths) are recorded as they are encountered, and
    /// a tombstone from `src` itself ends the wait at the virtual-time
    /// detection deadline with a typed error (see
    /// `Process::failure_deadline`).
    pub async fn recv_async<M: WirePayload>(
        &mut self,
        src: usize,
        tag: u32,
    ) -> Result<M, CommError> {
        assert!(src < self.size, "recv from nonexistent rank {src}");
        self.check_alive()?;
        // Check the pending buffer first (FIFO per source). Inbox order
        // guarantees any data `src` sent before dying was buffered before
        // its tombstone was recorded, so data wins over the death check.
        if let Some(pos) = self.pending.iter().position(|e| e.src == src) {
            let env = self.pending.remove(pos).expect("position just found");
            return self.open::<M>(env, tag, false);
        }
        if let Some(&death) = self.dead.get(&src) {
            let now = self.clock;
            return Err(self.observe_death(src, death, now));
        }
        let wait_start = self.clock;
        loop {
            match self.mailbox.take_async(self.rank, src).await {
                Ok(env) if env.src == src && matches!(env.kind, EnvelopeKind::Data { .. }) => {
                    return self.open::<M>(env, tag, false)
                }
                Ok(env) => {
                    self.intake(env);
                    // `src` was not known dead when the wait began, so it is
                    // in the death map only if that was its tombstone.
                    if let Some(&death) = self.dead.get(&src) {
                        return Err(self.observe_death(src, death, wait_start));
                    }
                }
                Err(starved) => {
                    // Record the suspect edge so the analyzer can still
                    // name the wait-for cycle from the trace.
                    self.record_deadlock_suspect(src, wait_start);
                    return Err(starved);
                }
            }
        }
    }

    /// [`Process::recv_async`] for a rank on its own thread: blocks it
    /// until the message is there.
    pub fn recv<M: WirePayload>(&mut self, src: usize, tag: u32) -> Result<M, CommError> {
        block_on(self.recv_async(src, tag))
    }

    /// **Wildcard** receive: the next data message from *any* source
    /// carrying `tag`, waiting for one. Returns `(source, payload)`.
    ///
    /// This is deliberately a nondeterminism hazard — which sender
    /// matches depends on delivery order — and exists so the
    /// happens-before analyzer and the schedule explorer have a real
    /// race to catch (see `docs/static-analysis.md`). No shipped rank
    /// program uses it; `archlint`'s wildcard-recv rule denies it
    /// outside test code.
    pub async fn recv_any_async<M: WirePayload>(
        &mut self,
        tag: u32,
    ) -> Result<(usize, M), CommError> {
        self.check_alive()?;
        // Drain the inbox first so already-arrived messages compete in
        // the pending buffer under the installed delivery order.
        while let Some(env) = self.mailbox.try_take(self.rank) {
            self.intake(env);
        }
        let wait_start = self.clock;
        loop {
            if let Some(pos) =
                self.pending.iter().position(|e| matches!(e.kind, EnvelopeKind::Data { .. }))
            {
                let env = self.pending.remove(pos).expect("position just found");
                let src = env.src;
                return self.open::<M>(env, tag, true).map(|m| (src, m));
            }
            // A wildcard wait names nobody: the error and the suspect
            // edge point at the waiter itself (self-loops are excluded
            // from deadlock cycles).
            match self.mailbox.take_async(self.rank, self.rank).await {
                Ok(env) => self.intake(env),
                Err(starved) => {
                    self.record_deadlock_suspect(self.rank, wait_start);
                    return Err(starved);
                }
            }
        }
    }

    /// Routes one envelope off the inbox: data is buffered under the
    /// delivery order, tombstones are recorded in the death map.
    fn intake(&mut self, env: Envelope) {
        match env.kind {
            EnvelopeKind::Data { .. } => self.buffer(env),
            EnvelopeKind::Tombstone(death) => {
                self.dead.insert(env.src, death);
            }
        }
    }

    /// Inserts `env` into the pending buffer at a position chosen by the
    /// [`DeliveryOrder`], never before an earlier message from the same
    /// source (per-source FIFO is inviolable — named receives rely on
    /// it).
    fn buffer(&mut self, env: Envelope) {
        let min_pos = self.pending.iter().rposition(|e| e.src == env.src).map_or(0, |p| p + 1);
        let max_pos = self.pending.len();
        let pos = match self.delivery {
            DeliveryOrder::Arrival => max_pos,
            DeliveryOrder::SourceAscending => {
                (min_pos..max_pos).find(|&i| self.pending[i].src > env.src).unwrap_or(max_pos)
            }
            DeliveryOrder::SourceDescending => {
                (min_pos..max_pos).find(|&i| self.pending[i].src < env.src).unwrap_or(max_pos)
            }
            DeliveryOrder::Seeded(seed) => {
                let h = tsqr_netsim::rng::hash64(
                    seed ^ (self.rank as u64).rotate_left(32) ^ self.buffered,
                );
                min_pos + (h as usize) % (max_pos - min_pos + 1)
            }
        };
        self.buffered += 1;
        self.pending.insert(pos, env);
    }

    /// Records a wait that can never end — the stall verdict of either
    /// driver — as a zero-width [`FaultKind::DeadlockSuspect`] marker
    /// (virtual time never advances for it) so the happens-before analyzer
    /// can assemble the wait-for graph.
    fn record_deadlock_suspect(&mut self, peer: usize, wait_start: VirtualTime) {
        let class = LinkClass::between(self.topo.location(peer), self.location());
        let kind = FaultKind::DeadlockSuspect;
        self.record(wait_start, wait_start, EventKind::Fault { peer, class, kind });
    }

    /// Combined exchange with a partner: send ours, receive theirs.
    ///
    /// The two transfers overlap on the wire (full-duplex), so the clock
    /// advance is the max of the send completion and the partner's arrival —
    /// the behaviour of one butterfly round of an all-reduce.
    pub(crate) async fn exchange_async<M: WirePayload>(
        &mut self,
        partner: usize,
        tag: u32,
        msg: M,
    ) -> Result<M, CommError> {
        let before = self.clock;
        self.send(partner, tag, msg)?;
        let after_send = self.clock;
        // The send and the receive overlap: rewind to the pre-send clock for
        // the receive wait, then take the max — also when the receive
        // fails: the send was recorded and charged, and the clock must
        // not end before it.
        self.clock = before;
        let got = self.recv_async::<M>(partner, tag).await;
        self.clock = self.clock.max(after_send);
        got
    }

    fn open<M: WirePayload>(
        &mut self,
        env: Envelope,
        tag: u32,
        wildcard: bool,
    ) -> Result<M, CommError> {
        if env.tag != tag {
            return Err(CommError::TagMismatch { expected: tag, got: env.tag });
        }
        // Receiver-side NIC serialization: the bytes of this message must
        // be clocked in after whatever the NIC was already receiving.
        let from = self.topo.location(env.src);
        let class = LinkClass::between(from, self.location());
        let done =
            self.model.receive_done(from, self.location(), env.bytes, env.arrival, self.nic_free);
        self.nic_free = done;
        let wait_start = self.clock;
        self.clock = self.clock.max(done);
        self.metrics.record_recv(self.current_phase(), (self.clock - wait_start).secs());
        // A *ghost*: the schedule lost this message in transit and the
        // sender's retransmission budget ran out. The receiver still pays
        // the deterministic would-be arrival wait (clock already advanced
        // above) but gets an error instead of the payload.
        let ghost = matches!(env.kind, EnvelopeKind::Data { dropped: true });
        let kind = if ghost {
            EventKind::Fault { peer: env.src, class, kind: FaultKind::DropObserved }
        } else {
            EventKind::Recv { from: env.src, bytes: env.bytes, class, tag, wildcard }
        };
        self.record(wait_start, self.clock, kind);
        // Clocking the message in may have carried this rank past its own
        // scheduled crash time: it dies *now* instead of consuming data.
        self.check_alive()?;
        if ghost {
            return Err(CommError::MessageDropped {
                src: env.src,
                dst: self.rank,
                attempts: MAX_SEND_ATTEMPTS,
            });
        }
        env.payload
            .downcast::<M>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch { expected: std::any::type_name::<M>() })
    }
}
