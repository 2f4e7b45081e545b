//! Launching rank programs and collecting run reports.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crossbeam::channel::unbounded;

use tsqr_netsim::{CostModel, FailureSchedule, GridTopology, VirtualTime};

use crate::comm::Communicator;
use crate::error::CommError;
use crate::hb::HbReport;
use crate::mailbox::{Hub, Mailbox};
use crate::message::Envelope;
use crate::metrics::MetricsRegistry;
use crate::process::{DeliveryOrder, Process, RankStats, TrafficCounters};
use crate::trace::{Event, Recorder, Trace};

/// Outcome of one rank: its program result (or communication error) plus
/// its final statistics.
#[derive(Debug, Clone)]
pub struct RankResult<T> {
    /// What the rank program returned.
    pub result: Result<T, CommError>,
    /// Final clock and traffic counters.
    pub stats: RankStats,
}

/// Aggregated outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankResult<T>>,
    /// The simulated wall-clock time of the whole program — the largest
    /// final virtual clock across ranks. This is the `time` of Eq. (1).
    pub makespan: VirtualTime,
    /// Sum of all per-rank traffic counters.
    pub totals: TrafficCounters,
    /// The merged event trace, when tracing was enabled — the run's only
    /// causal record: the analyzer ([`Trace::hb_analysis`]) derives vector
    /// clocks from the trace's program-order and message edges.
    pub trace: Option<Trace>,
    /// Per-rank phase metrics (always collected), indexed by rank.
    pub metrics: Vec<MetricsRegistry>,
}

/// Structured join of a run: who finished, who failed, and the partial
/// observability data of both (satellite of the fault-injection work —
/// failure is an *outcome*, not a panic; see `docs/fault-injection.md`).
#[derive(Debug, Clone)]
pub struct RunOutcome<T> {
    /// `(rank, value)` for every rank whose program returned `Ok`,
    /// ascending by rank.
    pub survivors: Vec<(usize, T)>,
    /// `(rank, error)` for every rank whose program returned `Err`,
    /// ascending by rank.
    pub failures: Vec<(usize, CommError)>,
    /// The simulated makespan — failed ranks still advanced their clocks
    /// up to the failure instant.
    pub makespan: VirtualTime,
    /// Traffic totals, including the partial work of failed ranks.
    pub totals: TrafficCounters,
    /// Per-rank phase metrics (indexed by rank); failed ranks keep the
    /// metrics they accumulated before dying.
    pub metrics: Vec<MetricsRegistry>,
    /// The merged event trace, when tracing was enabled.
    pub trace: Option<Trace>,
}

impl<T> RunOutcome<T> {
    /// True when every rank program returned `Ok`.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The ranks that failed, ascending.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.failures.iter().map(|&(r, _)| r).collect()
    }

    /// The surviving value of `rank`, if it survived.
    pub fn survivor(&self, rank: usize) -> Option<&T> {
        self.survivors.iter().find(|&&(r, _)| r == rank).map(|(_, v)| v)
    }

    /// One-line human summary (`"64 ok, 1 failed: rank 37 crashed …"`).
    ///
    /// When tracing was enabled and some rank timed out on the
    /// wall-clock safety net, the summary also *names the deadlock
    /// cycle* the happens-before analyzer found (e.g. `deadlock cycle
    /// 0 → 1 → 0`), so the operator sees who was waiting on whom instead
    /// of a bare timeout.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{} ranks ok", self.survivors.len());
        }
        let what: Vec<String> =
            self.failures.iter().map(|(r, e)| format!("rank {r}: {e}")).collect();
        let mut out = format!(
            "{} ok, {} failed — {}",
            self.survivors.len(),
            self.failures.len(),
            what.join("; ")
        );
        let timed_out =
            self.failures.iter().any(|(_, e)| matches!(e, CommError::Timeout { .. }));
        if timed_out {
            if let Some(trace) = &self.trace {
                for cycle in trace.deadlock_cycles() {
                    out.push_str(&format!(
                        "; deadlock cycle {}",
                        HbReport::cycle_string(&cycle)
                    ));
                }
            }
        }
        out
    }
}

impl<T> RunReport<T> {
    /// Converts the report into a structured [`RunOutcome`], partitioning
    /// ranks into survivors and failures while keeping everyone's partial
    /// metrics, counters and trace. This is the non-panicking join —
    /// prefer it over [`RunReport::unwrap_results`] whenever a failure
    /// schedule is in force.
    pub fn outcome(self) -> RunOutcome<T> {
        let mut survivors = Vec::new();
        let mut failures = Vec::new();
        for (rank, rr) in self.ranks.into_iter().enumerate() {
            match rr.result {
                Ok(v) => survivors.push((rank, v)),
                Err(e) => failures.push((rank, e)),
            }
        }
        RunOutcome {
            survivors,
            failures,
            makespan: self.makespan,
            totals: self.totals,
            metrics: self.metrics,
            trace: self.trace,
        }
    }

    /// Unwraps every rank's result.
    ///
    /// # Panics
    /// Panics when any rank failed, listing **all** failed ranks with
    /// their typed errors (not just the first). Code that expects
    /// failures should use [`RunReport::outcome`] instead.
    pub fn unwrap_results(self) -> Vec<T> {
        let failed: Vec<String> = self
            .ranks
            .iter()
            .enumerate()
            .filter_map(|(r, rr)| rr.result.as_ref().err().map(|e| format!("rank {r}: {e}")))
            .collect();
        assert!(
            failed.is_empty(),
            "{} rank(s) failed (use RunReport::outcome() for a structured join):\n  {}",
            failed.len(),
            failed.join("\n  ")
        );
        self.ranks
            .into_iter()
            .map(|rr| rr.result.expect("checked above"))
            .collect()
    }

    /// Critical-path message count: the maximum number of messages sent by
    /// any single rank (a per-rank proxy used by tree-shape tests).
    pub fn max_msgs_per_rank(&self) -> u64 {
        self.ranks.iter().map(|r| r.stats.traffic.total_msgs()).max().unwrap_or(0)
    }

    /// Folds every rank's [`MetricsRegistry`] into one run-wide registry
    /// (phases in the order rank 0 first entered them, then any phases
    /// only other ranks saw).
    pub fn aggregate_metrics(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::default();
        for m in &self.metrics {
            out.merge(m);
        }
        out
    }
}

/// What one rank hands back when its program has returned: its result and
/// statistics, its trace events, its metrics.
type Joined<T> = (RankResult<T>, Vec<Event>, MetricsRegistry);

/// A simulated machine: topology + cost model + optional failure injection.
///
/// Two drivers run a rank program on it, over the same [`Process`] code and
/// with the same report:
///
/// * [`Runtime::run`] launches one OS thread per rank and blocks until all
///   rank programs return — for ranks that do real numerics in parallel,
///   for the schedule explorer, and as the oracle the other driver is
///   tested against. Rank counts used in this workspace (≤ 256) are
///   comfortably within OS thread limits.
/// * [`Runtime::run_cooperative`] runs every rank as a future on the
///   calling thread — for symbolic runs, whose clocks are a pure function
///   of the schedule and which would otherwise pay the kernel a thread
///   wake-up per message.
pub struct Runtime {
    topo: Arc<GridTopology>,
    model: Arc<CostModel>,
    schedule: FailureSchedule,
    recv_timeout: Duration,
    tracing: bool,
    delivery: DeliveryOrder,
}

impl Runtime {
    /// Builds a runtime for the given grid.
    pub fn new(topo: GridTopology, model: CostModel) -> Self {
        let model = model.validated_for(&topo);
        Runtime {
            topo: Arc::new(topo),
            model: Arc::new(model),
            schedule: FailureSchedule::default(),
            recv_timeout: crate::process::DEFAULT_RECV_TIMEOUT,
            tracing: false,
            delivery: DeliveryOrder::default(),
        }
    }

    /// Installs a pending-buffer [`DeliveryOrder`] — the DPOR-lite
    /// explorer's lever. Deterministic programs (no wildcard receives)
    /// produce bit-identical results under every order; the explorer
    /// asserts exactly that.
    pub fn set_delivery_order(&mut self, order: DeliveryOrder) -> &mut Self {
        self.delivery = order;
        self
    }

    /// Records every send/receive/compute with its virtual-time span; the
    /// merged [`Trace`] is returned in the run report.
    pub fn enable_tracing(&mut self) -> &mut Self {
        self.tracing = true;
        self
    }

    /// Overrides the wall-clock deadlock timeout on receives of threaded
    /// runs (useful for failure-injection tests, where some rank is
    /// expected to starve). [`Runtime::run_cooperative`] never waits on
    /// the wall clock and ignores it.
    pub fn set_recv_timeout(&mut self, timeout: Duration) -> &mut Self {
        self.recv_timeout = timeout;
        self
    }

    /// Injects a deterministic failure on the directed link `src → dst`:
    /// subsequent sends return [`CommError::LinkDown`]. (Shorthand for a
    /// one-rule [`FailureSchedule`]; composes with any schedule already
    /// installed.)
    pub fn fail_link(&mut self, src: usize, dst: usize) -> &mut Self {
        self.schedule = std::mem::take(&mut self.schedule).fail_link(src, dst);
        self
    }

    /// Installs a full [`FailureSchedule`] — rank crashes, transient
    /// drops, degradation windows (replacing any schedule previously
    /// installed, including `fail_link` rules).
    pub fn set_failure_schedule(&mut self, schedule: FailureSchedule) -> &mut Self {
        self.schedule = schedule;
        self
    }

    /// The failure schedule currently in force (empty by default).
    pub fn failure_schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// The topology this runtime simulates.
    pub fn topology(&self) -> &GridTopology {
        &self.topo
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Rank `rank`'s handle for one run, at virtual time zero — the one
    /// place a [`Process`] is built, whichever driver runs it.
    fn process(&self, rank: usize, schedule: &Arc<FailureSchedule>, mailbox: Mailbox) -> Process {
        let n = self.topo.num_procs();
        Process {
            rank,
            size: n,
            topo: Arc::clone(&self.topo),
            model: Arc::clone(&self.model),
            schedule: Arc::clone(schedule),
            crash_at: schedule.crash_time(rank),
            death_announced: false,
            dead: BTreeMap::new(),
            sent_seq: vec![0; n],
            mailbox,
            pending: VecDeque::new(),
            clock: VirtualTime::ZERO,
            nic_free: VirtualTime::ZERO,
            recorder: self.tracing.then(Recorder::default),
            phase_stack: Vec::new(),
            metrics: MetricsRegistry::default(),
            delivery: self.delivery,
            buffered: 0,
        }
    }

    /// Runs `program` on every rank, one OS thread each, and gathers the
    /// report.
    ///
    /// The program receives the rank's [`Process`] handle and the *world*
    /// communicator spanning all ranks.
    // archlint: allow(taint) — this is the one sanctioned thread spawn:
    // ranks run as OS threads, but every result is a function of the
    // virtual-time cost model alone. That schedule-independence is
    // *proved*, not assumed: the happens-before gate, the DPOR-lite
    // explorer and the TSan CI job all police this boundary.
    pub fn run<T, F>(&self, program: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Process, &Communicator) -> Result<T, CommError> + Sync,
    {
        let n = self.topo.num_procs();
        assert!(n > 0, "cannot run on an empty topology");
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Envelope>()).unzip();
        let schedule = Arc::new(self.schedule.clone());

        let joined = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, inbox) in inboxes.into_iter().enumerate() {
                let senders = senders.clone();
                let (schedule, program) = (&schedule, &program);
                handles.push(scope.spawn(move || {
                    let mailbox = Mailbox::Channel { senders, inbox, timeout: self.recv_timeout };
                    let mut proc = self.process(rank, schedule, mailbox);
                    let world = Communicator::world(n);
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        program(&mut proc, &world)
                    }));
                    // A program that failed or panicked will never send
                    // again: announce the abort so peers fail fast in
                    // virtual time instead of hitting the wall-clock safety
                    // net. (Crashed ranks already announced inside
                    // check_alive; the broadcast is idempotent.)
                    if !matches!(outcome, Ok(Ok(_))) {
                        proc.announce_abort();
                    }
                    join(proc, outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                }));
            }
            // In rank order.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect::<Vec<_>>()
        });
        self.report(joined)
    }

    /// Runs `program` on every rank **on the calling thread** and gathers
    /// the same report as [`Runtime::run`]: each rank is a future, polled
    /// in rank order at first and from then on in the order messages make
    /// ranks runnable; a rank that awaits a message not yet sent
    /// ([`Process::recv_async`], [`Process::recv_any_async`],
    /// [`Process::exchange_async`] — the only suspension points) yields
    /// the thread, and the matching `send` queues it again.
    ///
    /// Clocks, counters, metrics, traces, delivery order and the failure
    /// schedule are the same [`Process`] code as under `run`, so a
    /// deterministic program reports bit-identical numbers from both. Two
    /// things differ, both for the better: no kernel wake-up per message,
    /// and deadlock is *exact* — when nobody can run and somebody has not
    /// returned, each stuck rank gets [`CommError::Deadlock`] naming its
    /// wait-for cycle (or [`CommError::PeerGone`] when the rank it awaits
    /// already returned) at once, with or without tracing and with no
    /// wall-clock timeout involved.
    ///
    /// The program must wait through `gridmpi` only; a blocking
    /// [`Process::recv`] inside it panics (see [`crate::block_on`]). A
    /// panicking rank unwinds straight out of this call.
    pub fn run_cooperative<T, F>(&self, program: F) -> RunReport<T>
    where
        F: AsyncFn(&mut Process, &Communicator) -> Result<T, CommError>,
    {
        let n = self.topo.num_procs();
        assert!(n > 0, "cannot run on an empty topology");
        let hub = Rc::new(RefCell::new(Hub::new(n)));
        let schedule = Arc::new(self.schedule.clone());
        let world = Communicator::world(n);
        let mut procs: Vec<Process> = (0..n)
            .map(|rank| self.process(rank, &schedule, Mailbox::Queue(Rc::clone(&hub))))
            .collect();

        let mut results: Vec<Option<Result<T, CommError>>> = (0..n).map(|_| None).collect();
        let mut tasks: Vec<_> = procs
            .iter_mut()
            .map(|proc| {
                let (program, world) = (&program, &world);
                Some(Box::pin(async move {
                    let result = program(proc, world).await;
                    // As under `run`: a failed program will never send again.
                    if result.is_err() {
                        proc.announce_abort();
                    }
                    result
                }))
            })
            .collect();
        let mut cx = Context::from_waker(Waker::noop());
        let mut unfinished = n;
        while unfinished > 0 {
            let next = hub.borrow_mut().next_ready();
            let Some(rank) = next else {
                hub.borrow_mut().break_stall();
                continue;
            };
            let task = tasks[rank].as_mut().expect("only unfinished ranks are queued");
            if let Poll::Ready(result) = task.as_mut().poll(&mut cx) {
                results[rank] = Some(result);
                tasks[rank] = None;
                unfinished -= 1;
                hub.borrow_mut().retire(rank);
            }
        }
        drop(tasks);

        let joined = procs
            .into_iter()
            .zip(results)
            .map(|(proc, result)| join(proc, result.expect("every rank returned")))
            .collect();
        self.report(joined)
    }

    /// Assembles the report of a run from what its ranks handed back, in
    /// rank order.
    fn report<T>(&self, joined: Vec<Joined<T>>) -> RunReport<T> {
        let (mut ranks, mut events, mut metrics) =
            (Vec::with_capacity(joined.len()), Vec::new(), Vec::new());
        for (rr, rank_events, rank_metrics) in joined {
            ranks.push(rr);
            events.extend(rank_events);
            metrics.push(rank_metrics);
        }
        let makespan =
            ranks.iter().map(|r| r.stats.clock).max().unwrap_or(VirtualTime::ZERO);
        let totals = ranks
            .iter()
            .fold(TrafficCounters::default(), |acc, r| acc.merge(&r.stats.traffic));
        let trace = self.tracing.then(|| Trace::from_parts(events));
        if let Some(trace) = &trace {
            // With the analyzer's evidence in hand, upgrade bare wall-clock
            // timeouts to *named* deadlocks: a rank whose receive timed out
            // and who sits on a cycle of the trace's wait-for graph was not
            // merely slow — it was deadlocked, and its error should say on
            // whom (see `docs/static-analysis.md`). (A cooperative run
            // names its cycles itself and has nothing to upgrade.)
            let cycles = trace.deadlock_cycles();
            if !cycles.is_empty() {
                for (rank, rr) in ranks.iter_mut().enumerate() {
                    // Both shapes of an orphaned wait: the timer fired, or
                    // the peers' threads exited first (the disconnect
                    // merely raced the timer — see `Mailbox::take`).
                    let (r, from) = match &rr.result {
                        Err(CommError::Timeout { rank: r, from })
                        | Err(CommError::PeerGone { rank: r, from }) => (*r, *from),
                        _ => continue,
                    };
                    if let Some(cycle) =
                        cycles.iter().find(|c| c.contains(&rank)).cloned()
                    {
                        rr.result = Err(CommError::Deadlock { rank: r, from, cycle });
                    }
                }
            }
        }
        RunReport { ranks, makespan, totals, trace, metrics }
    }
}

/// Retires a rank whose program returned `result`.
fn join<T>(mut proc: Process, result: Result<T, CommError>) -> Joined<T> {
    // Close any phases the program left open so phase spans are recorded
    // even on early error returns.
    while proc.current_phase().is_some() {
        proc.phase_end();
    }
    let events = proc.recorder.take().map(|r| r.events).unwrap_or_default();
    let stats = RankStats { clock: proc.clock, traffic: proc.counters() };
    (RankResult { result, stats }, events, proc.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsqr_netsim::{ClusterSpec, LinkParams};

    fn tiny_grid(clusters: usize, nodes: usize, ppn: usize) -> Runtime {
        let specs = (0..clusters)
            .map(|i| ClusterSpec {
                name: format!("c{i}"),
                nodes,
                procs_per_node: ppn,
                peak_gflops_per_proc: 8.0,
            })
            .collect();
        let topo = GridTopology::block_placement(specs, nodes, ppn);
        let mut model =
            CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 800.0), 1e9, clusters);
        // Make the hierarchy visible: cheap intra-node, expensive WAN.
        model.intra_node = LinkParams::from_ms_mbps(0.01, 5000.0);
        for a in 0..clusters {
            for b in 0..clusters {
                if a != b {
                    model.inter_cluster[a][b] = LinkParams::from_ms_mbps(10.0, 80.0);
                }
            }
        }
        Runtime::new(topo, model)
    }

    #[test]
    fn ping_pong_advances_both_clocks() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 7, 42.0f64)?;
                let x: f64 = p.recv(1, 8)?;
                Ok(x)
            } else {
                let x: f64 = p.recv(0, 7)?;
                p.send(0, 8, x * 2.0)?;
                Ok(x)
            }
        });
        let results = report.clone_results();
        assert_eq!(results, vec![84.0, 42.0]);
        // Two 8-byte messages at 1 ms latency each: makespan ≥ 2 ms.
        assert!(report.makespan.secs() >= 2e-3);
        assert_eq!(report.totals.total_msgs(), 2);
        assert_eq!(report.totals.total_bytes(), 16);
    }

    impl<T: Clone> RunReport<T> {
        fn clone_results(&self) -> Vec<T> {
            self.ranks.iter().map(|r| r.result.clone().unwrap()).collect()
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let rt = tiny_grid(2, 2, 2);
        let run = || {
            rt.run(|p, _| {
                // Ring: send to the next rank, receive from the previous.
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000 * (p.rank() as u64 + 1), None);
                p.send(next, 0, p.rank() as f64)?;
                let _x: f64 = p.recv(prev, 0)?;
                Ok(p.clock().secs())
            })
            .clone_results()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual clocks must be schedule-independent");
    }

    #[test]
    fn counters_classify_link_classes() {
        let rt = tiny_grid(2, 2, 2); // ranks 0..4 on cluster 0, 4..8 on cluster 1
        let report = rt.run(|p, _| {
            match p.rank() {
                0 => {
                    p.send(1, 0, ())?; // same node (slots 0,1 of node 0)
                    p.send(2, 0, ())?; // same cluster, different node
                    p.send(4, 0, ())?; // other cluster
                }
                1 => {
                    let _: () = p.recv(0, 0)?;
                }
                2 => {
                    let _: () = p.recv(0, 0)?;
                }
                4 => {
                    let _: () = p.recv(0, 0)?;
                }
                _ => {}
            }
            Ok(())
        });
        let c0 = report.ranks[0].stats.traffic;
        assert_eq!(c0.msgs, [1, 1, 1]);
        assert_eq!(report.totals.inter_cluster_msgs(), 1);
    }

    #[test]
    fn compute_charges_gamma() {
        let rt = tiny_grid(1, 1, 2);
        let report = rt.run(|p, _| {
            p.compute(2_000_000_000, None); // 2 Gflop at 1 Gflop/s
            Ok(())
        });
        assert!((report.makespan.secs() - 2.0).abs() < 1e-9);
        assert_eq!(report.totals.flops, 4_000_000_000);
    }

    #[test]
    fn exchange_overlaps_transfers() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            let partner = 1 - p.rank();
            let got: f64 = p.exchange(partner, 3, p.rank() as f64)?;
            Ok(got)
        });
        assert_eq!(report.clone_results(), vec![1.0, 0.0]);
        // Full duplex: one exchange should cost ~one message time (1 ms),
        // not two.
        assert!(report.makespan.secs() < 1.5e-3, "makespan {}", report.makespan.secs());
    }

    #[test]
    fn failed_link_surfaces_error() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.fail_link(0, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 1.0f64)?;
            } else if p.link_ok(0) {
                // Peer 0 will fail before sending; don't wait for it.
            }
            Ok(())
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::LinkDown { src: 0, dst: 1 })
        );
        assert!(report.ranks[1].result.is_ok());
    }

    #[test]
    fn out_of_order_sources_are_buffered() {
        let rt = tiny_grid(1, 3, 1);
        let report = rt.run(|p, _| match p.rank() {
            0 => {
                // Receive from 2 first even though 1's message may arrive
                // earlier on the real channel.
                let a: f64 = p.recv(2, 0)?;
                let b: f64 = p.recv(1, 0)?;
                Ok(a * 10.0 + b)
            }
            r => {
                p.send(0, 0, r as f64)?;
                Ok(0.0)
            }
        });
        assert_eq!(report.ranks[0].result, Ok(21.0));
    }

    #[test]
    fn tracing_records_every_action_with_spans() {
        use crate::trace::EventKind;
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.compute(1_000_000, None);
                p.send(1, 0, vec![1.0f64; 8])?;
            } else {
                let _: Vec<f64> = p.recv(0, 0)?;
            }
            Ok(())
        });
        let trace = report.trace.expect("tracing enabled");
        let kinds: Vec<_> = trace.events.iter().map(|e| &e.kind).collect();
        assert_eq!(trace.len(), 3, "compute + send + recv");
        assert!(matches!(kinds[0], EventKind::Compute { flops: 1_000_000 }));
        assert!(trace.events.iter().all(|e| e.end >= e.start));
        // The send's span covers latency + 64 bytes of bandwidth.
        let send = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Send { .. }))
            .unwrap();
        assert!((send.end - send.start).secs() >= 1e-3);
        // Disabled by default.
        let rt2 = tiny_grid(1, 2, 1);
        let report2 = rt2.run(|p, _| {
            let _ = p.rank();
            Ok(())
        });
        assert!(report2.trace.is_none());
    }

    #[test]
    fn metrics_are_always_on_and_phase_bucketed() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            p.with_phase("work", |p| {
                p.compute(1_000_000, None);
                if p.rank() == 0 {
                    p.send(1, 0, 1.0f64)?;
                } else {
                    let _: f64 = p.recv(0, 0)?;
                }
                Ok(())
            })?;
            // Unphased tail work.
            p.compute(2_000_000, None);
            Ok(())
        });
        assert_eq!(report.metrics.len(), 2);
        let work = report.metrics[0].phase("work").expect("phase recorded");
        assert_eq!(work.flops, 1_000_000);
        assert_eq!(work.total_msgs(), 1);
        assert!(work.send_s.iter().sum::<f64>() > 0.0);
        let wait = report.metrics[1].phase("work").unwrap().recv_wait_s;
        assert!(wait > 0.0, "rank 1 blocked on the message");
        let agg = report.aggregate_metrics();
        assert_eq!(agg.phase("work").unwrap().flops, 2_000_000);
        assert_eq!(
            agg.phase(crate::metrics::UNPHASED).unwrap().flops,
            4_000_000
        );
        // Ranks 0 and 1 sit on different nodes of one cluster: bucket 1.
        assert_eq!(agg.msg_bytes(1).count(), 1);
    }

    #[test]
    fn phases_are_traced_and_auto_closed() {
        use crate::trace::EventKind;
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            p.phase_begin("outer");
            p.compute(1_000_000, None);
            p.phase_begin("inner");
            p.compute(1_000_000, None);
            // Both phases deliberately left open: the runtime closes them.
            Ok(())
        });
        let trace = report.trace.unwrap();
        let phases: Vec<_> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Phase { name } => Some((e.rank, name, e.phase)),
                _ => None,
            })
            .collect();
        // Each of the two ranks records inner (stamped with outer) + outer.
        assert_eq!(phases.len(), 4);
        assert!(phases.contains(&(0, "inner", Some("outer"))));
        assert!(phases.contains(&(0, "outer", None)));
        // The compute inside "inner" is stamped with the innermost phase.
        let inner_compute = trace
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Compute { .. }) && e.phase == Some("inner"))
            .expect("inner compute stamped");
        assert!(inner_compute.end > inner_compute.start);
    }

    #[test]
    fn critical_path_total_equals_makespan() {
        let mut rt = tiny_grid(2, 2, 2);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            // A little pipeline with cross-cluster traffic: 0 → 4 → 7.
            match p.rank() {
                0 => {
                    p.compute(5_000_000, None);
                    p.send(4, 0, vec![1.0f64; 64])?;
                }
                4 => {
                    let v: Vec<f64> = p.recv(0, 0)?;
                    p.compute(2_000_000, None);
                    p.send(7, 1, v)?;
                }
                7 => {
                    let _: Vec<f64> = p.recv(4, 1)?;
                    p.compute(1_000_000, None);
                }
                _ => p.compute(500_000, None),
            }
            Ok(())
        });
        let trace = report.trace.unwrap();
        let path = trace.critical_path();
        assert!(
            (path.total().secs() - report.makespan.secs()).abs() < 1e-9,
            "critical path {} != makespan {}",
            path.total().secs(),
            report.makespan.secs()
        );
        let su = path.summary();
        assert!(su.messages >= 2, "both pipeline hops sit on the path");
        assert!(su.wan_messages >= 1, "the 0→4 hop crosses clusters");
        assert!(su.compute_s > 0.0);
        // Chrome export of the same trace is well-formed and includes
        // flow arrows for the matched messages.
        let json = trace.chrome_json();
        assert!(json.matches("\"ph\":\"s\"").count() >= 2);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exchange_trace_critical_path_still_tiles_makespan() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            let partner = 1 - p.rank();
            let _: f64 = p.exchange(partner, 3, p.rank() as f64)?;
            p.compute(1_000_000, None);
            Ok(())
        });
        let trace = report.trace.unwrap();
        let path = trace.critical_path();
        assert!((path.total().secs() - report.makespan.secs()).abs() < 1e-9);
    }

    #[test]
    fn scheduled_crash_fails_self_and_is_detected_by_peer() {
        use crate::process::DETECTION_LATENCY_FACTOR;
        use crate::trace::{EventKind, FaultKind};
        let mut rt = tiny_grid(1, 2, 1);
        let crash_at = VirtualTime::from_millis(5.0);
        rt.set_failure_schedule(FailureSchedule::new(0).crash_rank(0, crash_at));
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                // Compute past the crash instant, then try to send.
                p.compute(10_000_000, None); // 10 ms at 1 Gflop/s
                p.send(1, 0, 1.0f64)?;
                Ok(0.0)
            } else {
                let x: f64 = p.recv(0, 0)?;
                Ok(x)
            }
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::RankFailed { rank: 0, at: crash_at })
        );
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::RankFailed { rank: 0, at: crash_at })
        );
        // Virtual-time detection: rank 1's clock = crash + deadline, not
        // a wall-clock guess. Link 0↔1 is intra-cluster: 1 ms latency.
        let deadline = DETECTION_LATENCY_FACTOR * 1e-3;
        let detected = report.ranks[1].stats.clock.secs();
        assert!(
            (detected - (crash_at.secs() + deadline)).abs() < 1e-9,
            "detected at {detected}"
        );
        // The failure wait is traced as a Fault span.
        let trace = report.trace.clone().unwrap();
        assert!(trace.fault_events().iter().any(|e| matches!(
            e.kind,
            EventKind::Fault { peer: 0, kind: FaultKind::RankFailed, .. }
        )));
        // And the structured outcome lists the failed ranks.
        let outcome = report.outcome();
        assert!(!outcome.is_clean());
        assert_eq!(outcome.failed_ranks(), vec![0, 1]);
        assert!(outcome.summary().contains("crashed"));
    }

    #[test]
    fn dropped_message_errors_both_sides_after_retries() {
        use crate::process::MAX_SEND_ATTEMPTS;
        let mut rt = tiny_grid(1, 2, 1);
        // Lose the first four transmissions 0 → 1: all retries exhausted.
        let mut s = FailureSchedule::new(0);
        for n in 0..u64::from(MAX_SEND_ATTEMPTS) {
            s = s.drop_nth_message(0, 1, n);
        }
        rt.set_failure_schedule(s);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 1.0f64)?;
            } else {
                let _: f64 = p.recv(0, 0)?;
            }
            Ok(())
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::MessageDropped { src: 0, dst: 1, attempts: MAX_SEND_ATTEMPTS })
        );
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::MessageDropped { src: 0, dst: 1, attempts: MAX_SEND_ATTEMPTS })
        );
        // Each attempt was priced: 4 messages on the wire.
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 4);
    }

    #[test]
    fn transient_drop_recovers_on_retransmit() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.set_failure_schedule(FailureSchedule::new(0).drop_nth_message(0, 1, 0));
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 0, 7.0f64)?;
                Ok(0.0)
            } else {
                p.recv(0, 0)
            }
        });
        assert!(report.ranks[0].result.is_ok());
        assert_eq!(report.ranks[1].result, Ok(7.0));
        // The retransmission cost real virtual time: ≥ 2 message times
        // plus backoff.
        assert!(report.makespan.secs() > 2e-3);
        assert_eq!(report.ranks[0].stats.traffic.total_msgs(), 2);
    }

    #[test]
    fn abort_tombstone_reaches_waiting_peer() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                // Fail without sending anything.
                Err(CommError::TagMismatch { expected: 1, got: 2 })
            } else {
                let _: f64 = p.recv(0, 0)?;
                Ok(())
            }
        });
        // Rank 1 learns of the abort through the tombstone — PeerGone,
        // not a wall-clock Timeout.
        assert_eq!(
            report.ranks[1].result,
            Err(CommError::PeerGone { rank: 1, from: 0 })
        );
    }

    #[test]
    fn replay_with_same_schedule_is_bit_identical() {
        let run = || {
            let mut rt = tiny_grid(2, 2, 1);
            rt.set_failure_schedule(
                FailureSchedule::new(9)
                    .crash_rank(3, VirtualTime::from_millis(2.0))
                    .drop_nth_message(0, 1, 0)
                    .drop_probability(1, 2, 0.5),
            );
            rt.enable_tracing();
            let report = rt.run(|p, _| {
                let next = (p.rank() + 1) % p.size();
                let prev = (p.rank() + p.size() - 1) % p.size();
                p.compute(1_000_000, None);
                // Ignore drop errors; propagate the rest.
                match p.send(next, 0, p.rank() as f64) {
                    Ok(()) | Err(CommError::MessageDropped { .. }) => {}
                    Err(e) => return Err(e),
                }
                match p.recv::<f64>(prev, 0) {
                    Ok(_) | Err(CommError::MessageDropped { .. }) => {}
                    Err(e) => return Err(e),
                }
                Ok(p.clock().secs())
            });
            let clocks: Vec<u64> =
                report.ranks.iter().map(|r| r.stats.clock.secs().to_bits()).collect();
            let faults: Vec<String> = report
                .trace
                .as_ref()
                .unwrap()
                .fault_events()
                .iter()
                .map(|e| format!("{:?}@{}:{:?}", e.rank, e.start.secs(), e.kind))
                .collect();
            (clocks, faults)
        };
        let (c1, f1) = run();
        let (c2, f2) = run();
        assert_eq!(c1, c2, "virtual clocks must replay bit-identically");
        assert_eq!(f1, f2, "failure events must replay identically");
        assert!(!f1.is_empty(), "the schedule injected observable faults");
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let rt = tiny_grid(1, 2, 1);
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.send(1, 5, ())?;
                Ok(())
            } else {
                let r: Result<(), CommError> = p.recv(0, 6);
                match r {
                    Err(CommError::TagMismatch { expected: 6, got: 5 }) => Ok(()),
                    other => panic!("expected tag mismatch, got {other:?}"),
                }
            }
        });
        assert!(report.ranks.iter().all(|r| r.result.is_ok()));
    }

    #[test]
    fn outcome_splits_the_mixed_case() {
        // Four ranks, three fates: rank 0 and rank 3 succeed, rank 1
        // crashes per the failure schedule, rank 2 deadlocks waiting on a
        // message rank 3 never sends (wall-clock safety net, no tracing —
        // so the error stays a bare Timeout).
        let mut rt = tiny_grid(1, 4, 1);
        rt.set_failure_schedule(
            FailureSchedule::new(0).crash_rank(1, VirtualTime::from_millis(0.0)),
        );
        rt.set_recv_timeout(Duration::from_millis(200));
        let report = rt.run(|p, _| match p.rank() {
            1 => {
                p.compute(1_000_000, None); // trips over its own crash
                p.send(0, 1, 1.0f64)?;
                Ok(1.0)
            }
            2 => {
                let x: f64 = p.recv(3, 9)?; // never sent
                Ok(x)
            }
            _ => Ok(f64::from(u32::try_from(p.rank()).unwrap())),
        });
        let outcome = report.outcome();
        assert!(!outcome.is_clean());
        let survivor_ranks: Vec<usize> =
            outcome.survivors.iter().map(|(r, _)| *r).collect();
        assert_eq!(survivor_ranks, vec![0, 3]);
        assert_eq!(outcome.failed_ranks(), vec![1, 2]);
        assert!(matches!(
            outcome.failures[0],
            (1, CommError::RankFailed { rank: 1, .. })
        ));
        assert!(matches!(
            outcome.failures[1],
            (2, CommError::Timeout { rank: 2, from: 3 })
        ));
        // Everyone's metrics survive the split, survivors and failures alike.
        assert_eq!(outcome.metrics.len(), 4);
    }

    #[test]
    fn a_panicking_rank_does_not_hang_its_peers() {
        // Rank 0 panics while rank 1 is blocked on it. The panic must reach
        // the caller promptly — the abort tombstone releases rank 1 — and
        // not after the 60 s wall-clock net. Run off-thread so a regression
        // fails instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let rt = tiny_grid(1, 2, 1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(|p, _| {
                    if p.rank() == 0 {
                        panic!("rank 0 gives up");
                    }
                    p.recv::<f64>(0, 1)
                })
            }));
            let _ = tx.send(caught.is_err());
        });
        let propagated = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run() must return well before the 60 s receive timeout");
        assert!(propagated, "the rank's panic must propagate out of run()");
    }

    #[test]
    fn deadlock_error_names_the_wait_for_cycle() {
        // The classic two-rank deadlock: each receives before it sends.
        // With tracing on, the wall-clock timeouts are upgraded to
        // `CommError::Deadlock` naming the wait-for cycle the analyzer
        // extracted from the trace.
        let mut rt = tiny_grid(1, 2, 1);
        rt.set_recv_timeout(Duration::from_millis(200));
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            let peer = 1 - p.rank();
            let x: f64 = p.recv(peer, 1)?; // both block here forever
            p.send(peer, 1, x)?;
            Ok(x)
        });
        for rank in 0..2 {
            let err = report.ranks[rank].result.as_ref().unwrap_err();
            match err {
                CommError::Deadlock { rank: r, from, cycle } => {
                    assert_eq!(*r, rank);
                    assert_eq!(*from, 1 - rank);
                    assert_eq!(cycle, &vec![0, 1]);
                }
                other => panic!("rank {rank}: expected Deadlock, got {other:?}"),
            }
            // The rendered message names the cycle explicitly.
            assert!(
                err.to_string().contains("wait-for cycle: 0 -> 1 -> 0"),
                "unexpected message: {err}"
            );
        }
        // The analyzer agrees with the upgraded errors.
        let hb = report.trace.as_ref().unwrap().hb_analysis();
        assert_eq!(hb.deadlock_cycles, vec![vec![0, 1]]);
        assert!(!hb.ok());
    }

    #[test]
    fn exchange_keeps_the_send_on_the_clock_when_the_partner_is_dead() {
        use crate::trace::EventKind;
        // Rank 1 is dead from t = 0 and never replies. Rank 0's exchange has
        // already recorded and charged a 1 MB send (≈ 11 ms at 1 ms +
        // 800 Mb/s) when it learns of the death at t = 4 ms (the detection
        // deadline): its clock must not end before the send it traced.
        let mut rt = tiny_grid(1, 2, 1);
        rt.set_failure_schedule(FailureSchedule::new(0).crash_rank(1, VirtualTime::ZERO));
        rt.enable_tracing();
        let report = rt.run(|p, _| {
            if p.rank() == 0 {
                p.exchange(1, 3, vec![0.0f64; 131_072]).map(|_| ())
            } else {
                p.recv::<Vec<f64>>(0, 3).map(|_| ())
            }
        });
        assert_eq!(
            report.ranks[0].result,
            Err(CommError::RankFailed { rank: 1, at: VirtualTime::ZERO })
        );
        let trace = report.trace.as_ref().unwrap();
        let send = trace
            .events
            .iter()
            .find(|e| e.rank == 0 && matches!(e.kind, EventKind::Send { .. }))
            .expect("rank 0 traced its send");
        assert!(send.end.secs() > 10e-3, "the send outlasts the detection deadline");
        assert!(
            report.ranks[0].stats.clock >= send.end,
            "clock {} ran back behind the traced send's end {}",
            report.ranks[0].stats.clock.secs(),
            send.end.secs()
        );
        let path = trace.critical_path();
        assert!((path.total().secs() - report.makespan.secs()).abs() < 1e-9);
    }

    /// Clocks (bitwise), results, counters, metrics and trace of two runs.
    fn assert_same_run<T: PartialEq + std::fmt::Debug>(a: &RunReport<T>, b: &RunReport<T>) {
        assert_eq!(a.makespan.secs().to_bits(), b.makespan.secs().to_bits());
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(x.result, y.result);
            assert_eq!(x.stats.clock.secs().to_bits(), y.stats.clock.secs().to_bits());
            assert_eq!(x.stats.traffic, y.stats.traffic);
        }
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(
            a.trace.as_ref().map(|t| &t.events),
            b.trace.as_ref().map(|t| &t.events)
        );
    }

    #[test]
    fn cooperative_run_reports_what_the_threaded_run_reports() {
        // A ring with compute skew, an all-reduce and a phase, on eight
        // ranks of two clusters: same program, both drivers, traced.
        let mut rt = tiny_grid(2, 2, 2);
        rt.enable_tracing();
        let threaded = rt.run(|p, world| {
            let (next, prev) = ((p.rank() + 1) % p.size(), (p.rank() + p.size() - 1) % p.size());
            p.compute(1_000_000 * (p.rank() as u64 + 1), None);
            p.phase_begin("ring");
            p.send(next, 0, vec![p.rank() as f64; 3])?;
            let got: Vec<f64> = p.recv(prev, 0)?;
            p.phase_end();
            world.allreduce_with(p, got[0], |_, a, b| a + b)
        });
        let cooperative = rt.run_cooperative(async |p, world| {
            let (next, prev) = ((p.rank() + 1) % p.size(), (p.rank() + p.size() - 1) % p.size());
            p.compute(1_000_000 * (p.rank() as u64 + 1), None);
            p.phase_begin("ring");
            p.send(next, 0, vec![p.rank() as f64; 3])?;
            let got: Vec<f64> = p.recv_async(prev, 0).await?;
            p.phase_end();
            world.allreduce_with_async(p, got[0], |_, a, b| a + b).await
        });
        assert_eq!(cooperative.ranks[0].result, Ok(28.0));
        assert_same_run(&threaded, &cooperative);
    }

    #[test]
    fn cooperative_run_replays_a_failure_schedule_like_the_threaded_run() {
        // The ring of `replay_with_same_schedule_is_bit_identical`: a crash,
        // a transient drop and a probabilistic drop, errors propagated.
        let mut rt = tiny_grid(2, 2, 1);
        rt.set_failure_schedule(
            FailureSchedule::new(9)
                .crash_rank(3, VirtualTime::from_millis(2.0))
                .drop_nth_message(0, 1, 0)
                .drop_probability(1, 2, 0.5),
        );
        rt.enable_tracing();
        let lossy = |r: Result<(), CommError>| match r {
            Ok(()) | Err(CommError::MessageDropped { .. }) => Ok(()),
            Err(e) => Err(e),
        };
        let threaded = rt.run(|p, _| {
            let (next, prev) = ((p.rank() + 1) % p.size(), (p.rank() + p.size() - 1) % p.size());
            p.compute(1_000_000, None);
            lossy(p.send(next, 0, p.rank() as f64))?;
            lossy(p.recv::<f64>(prev, 0).map(|_| ()))?;
            Ok(p.clock().secs())
        });
        let cooperative = rt.run_cooperative(async |p, _| {
            let (next, prev) = ((p.rank() + 1) % p.size(), (p.rank() + p.size() - 1) % p.size());
            p.compute(1_000_000, None);
            lossy(p.send(next, 0, p.rank() as f64))?;
            lossy(p.recv_async::<f64>(prev, 0).await.map(|_| ()))?;
            Ok(p.clock().secs())
        });
        assert!(threaded.ranks.iter().any(|r| r.result.is_err()), "the crash was felt");
        assert_same_run(&threaded, &cooperative);
    }

    /// A program in which every rank receives from `awaited(rank)` before it
    /// sends anything, run cooperatively with tracing off.
    fn stuck(n: usize, awaited: impl Fn(usize) -> Option<usize>) -> RunReport<()> {
        let rt = tiny_grid(1, n, 1);
        let started = std::time::Instant::now();
        let report = rt.run_cooperative(async |p, _| match awaited(p.rank()) {
            Some(peer) => p.recv_async::<f64>(peer, 1).await.map(|_| ()),
            None => Ok(()),
        });
        assert!(report.trace.is_none());
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a cooperative deadlock is found at once, not by a wall-clock timeout"
        );
        report
    }

    #[test]
    fn cooperative_deadlock_is_exact_and_names_the_cycle() {
        // The classic two-rank deadlock: each receives before it sends.
        let report = stuck(2, |rank| Some(1 - rank));
        for rank in 0..2 {
            let err = report.ranks[rank].result.as_ref().unwrap_err();
            assert_eq!(
                *err,
                CommError::Deadlock { rank, from: 1 - rank, cycle: vec![0, 1] }
            );
            assert!(err.to_string().contains("wait-for cycle: 0 -> 1 -> 0"), "{err}");
        }
        // A three-rank ring 0 -> 2 -> 1 -> 0, and a fourth rank that is only
        // queued behind it: the cycle's members are told so; rank 3 then
        // learns of rank 0's abort in virtual time, as under threads.
        let report = stuck(4, |rank| Some([2, 0, 1, 0][rank]));
        for (rank, from) in [(0, 2), (1, 0), (2, 1)] {
            assert_eq!(
                report.ranks[rank].result,
                Err(CommError::Deadlock { rank, from, cycle: vec![0, 2, 1] })
            );
        }
        assert_eq!(report.ranks[3].result, Err(CommError::PeerGone { rank: 3, from: 0 }));
    }

    #[test]
    fn cooperative_wait_on_a_returned_rank_is_peer_gone() {
        // Rank 1 returned `Ok` without sending: no tombstone will ever
        // come, and nobody is left to run.
        let report = stuck(2, |rank| (rank == 0).then_some(1));
        assert_eq!(report.ranks[0].result, Err(CommError::PeerGone { rank: 0, from: 1 }));
        assert_eq!(report.ranks[1].result, Ok(()));
        assert_eq!(report.ranks[0].stats.clock, VirtualTime::ZERO);
    }

    #[test]
    fn cooperative_wildcard_receive_follows_the_ready_order() {
        // Ranks get the thread in rank order, so the senders' messages sit
        // in rank 0's inbox in rank order by the time it is woken; the
        // installed delivery order then decides, as under threads.
        let senders_seen = |order: DeliveryOrder| {
            let mut rt = tiny_grid(1, 4, 1);
            rt.set_delivery_order(order);
            let report = rt.run_cooperative(async |p, _| {
                let mut seen = Vec::new();
                if p.rank() == 0 {
                    for _ in 1..p.size() {
                        seen.push(p.recv_any_async::<f64>(0).await?.0);
                    }
                    // Nobody is left to send: the wildcard wait is orphaned.
                    let orphaned = p.recv_any_async::<f64>(0).await.unwrap_err();
                    assert_eq!(orphaned, CommError::PeerGone { rank: 0, from: 0 });
                } else {
                    p.send(0, 0, p.rank() as f64)?;
                }
                Ok(seen)
            });
            report.ranks.into_iter().next().unwrap().result.unwrap()
        };
        assert_eq!(senders_seen(DeliveryOrder::Arrival), vec![1, 2, 3]);
        assert_eq!(senders_seen(DeliveryOrder::SourceDescending), vec![1, 3, 2]);
    }

    #[test]
    fn traced_cooperative_deadlock_agrees_with_the_analyzer() {
        let mut rt = tiny_grid(1, 2, 1);
        rt.enable_tracing();
        let report = rt.run_cooperative(async |p, _| {
            let peer = 1 - p.rank();
            let x: f64 = p.recv_async(peer, 1).await?;
            p.send(peer, 1, x)?;
            Ok(x)
        });
        assert!(matches!(report.ranks[0].result, Err(CommError::Deadlock { .. })));
        assert_eq!(report.trace.as_ref().unwrap().hb_analysis().deadlock_cycles, vec![vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "inside Runtime::run_cooperative")]
    fn a_blocking_receive_in_a_cooperative_program_panics_instead_of_hanging() {
        let rt = tiny_grid(1, 2, 1);
        rt.run_cooperative(async |p, _| {
            if p.rank() == 0 {
                // Rank 1 has not run yet: blocking here would stop it from
                // ever sending.
                p.recv::<f64>(1, 0)
            } else {
                p.send(0, 0, 1.0f64).map(|()| 1.0)
            }
        });
    }
}
