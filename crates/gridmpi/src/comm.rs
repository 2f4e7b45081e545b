//! Communicators and tree collectives.
//!
//! A [`Communicator`] is an ordered set of global ranks — MPI's process
//! group abstraction. `split_by` builds sub-communicators from a color
//! function of the global rank, which is how the QCG-OMPI group identifiers
//! of §III turn into per-cluster communicators (`MPI_Comm_split`).
//!
//! Collectives use the classical binomial/recursive-doubling algorithms, so
//! their critical-path message counts are the `log₂(P)` terms of the
//! paper's Tables I–II:
//!
//! * `bcast_async`: binomial tree, `log₂(P)` rounds;
//! * `allreduce_with_async`: recursive doubling (butterfly), `log₂(P)`
//!   full-duplex exchange rounds — the operation `PDGEQR2` performs twice
//!   per column — with an operator that can charge its own cost (TSQR as
//!   "a single complex allreduce", §II-C);
//! * `gather_async` / `allgather_async`: binomial gather (+ broadcast).
//!
//! Each is one `async` body, awaited by rank programs under either driver
//! of [`crate::Runtime`]. The one blocking name, [`Communicator::allreduce`],
//! is a `block_on` line over the butterfly for callers that cannot await.
//!
//! An all-reduce over a payload that carries no data
//! ([`WirePayload::SYMBOLIC`]: [`crate::message::Phantom`],
//! `tsqr_core::tile::Dims`) is only clock algebra. Under
//! [`crate::Runtime::run_cooperative`], untraced, with no failure schedule
//! and [`crate::DeliveryOrder::Arrival`], the last member to arrive prices
//! the whole butterfly for everyone in one step, and no envelope is
//! posted: clocks, receive NICs, counters and metrics end as the message
//! path leaves them, to the bit. The contract: the operator is not called,
//! each member gets its own value back, and every member passes a value of
//! the same `wire_bytes`. One difference is deliberate: a point-to-point
//! envelope a member left unreceived does not meet the folded collective
//! (as in MPI, where a collective has its own context), while the message
//! path reports it as a [`CommError::TagMismatch`]. Every other run takes
//! the message path, which is the oracle.

use crate::error::CommError;
use crate::fold;
use crate::mailbox::block_on;
use crate::message::WirePayload;
use crate::process::Process;

/// Reserved tag space for collective operations.
const TAG_BCAST: u32 = 0xFFFF_0001;
const TAG_ALLREDUCE: u32 = 0xFFFF_0003;
const TAG_GATHER: u32 = 0xFFFF_0004;

/// The all-reduce butterfly over `size` members: recursive doubling on the
/// largest power of two `pof2 ≤ size`, with the first `2·rem` members folded
/// in pairs before and after it. Returns `pof2`, `rem` and the member that
/// plays each folded index in the exchange rounds.
pub(crate) fn butterfly(size: usize) -> (usize, usize, impl Fn(usize) -> usize) {
    let pof2 = if size.is_power_of_two() { size } else { size.next_power_of_two() / 2 };
    let rem = size - pof2;
    (pof2, rem, move |new| if new < rem { 2 * new + 1 } else { new + rem })
}

/// An ordered group of global ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Communicator {
    members: Vec<usize>,
}

impl Communicator {
    /// The world communicator over ranks `0..n`.
    pub fn world(n: usize) -> Self {
        Communicator { members: (0..n).collect() }
    }

    /// A communicator over an explicit, ordered member list.
    pub fn from_members(members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "empty communicator");
        Communicator { members }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of member `idx`.
    pub fn member(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// The ordered member list.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Index of a global rank within this communicator, if present.
    pub fn index_of(&self, global_rank: usize) -> Option<usize> {
        // Members are distinct, so a rank found at its own index (every
        // rank of the world communicator) is found.
        if self.members.get(global_rank) == Some(&global_rank) {
            return Some(global_rank);
        }
        self.members.iter().position(|&r| r == global_rank)
    }

    /// True when the global rank belongs to this communicator.
    pub fn contains(&self, global_rank: usize) -> bool {
        self.index_of(global_rank).is_some()
    }

    /// The caller's index within this communicator.
    ///
    /// Panics if the calling process is not a member — calling a collective
    /// on a communicator one does not belong to is a protocol bug.
    pub fn my_index(&self, p: &Process) -> usize {
        self.index_of(p.rank())
            .unwrap_or_else(|| panic!("rank {} is not in this communicator", p.rank()))
    }

    /// Splits into the sub-communicator of members sharing the caller's
    /// color, ordered by `(key, global rank)` — `MPI_Comm_split` with a
    /// *pure* color function.
    ///
    /// Unlike real MPI no message exchange is needed: in the QCG model the
    /// group structure comes from the JobProfile, which every process
    /// already knows (§III), so colors are a function of the global rank.
    pub fn split_by<C, K>(&self, p: &Process, color: C, key: K) -> Communicator
    where
        C: Fn(usize) -> u64,
        K: Fn(usize) -> u64,
    {
        let my_color = color(p.rank());
        let mut members: Vec<usize> =
            self.members.iter().copied().filter(|&r| color(r) == my_color).collect();
        members.sort_by_key(|&r| (key(r), r));
        Communicator::from_members(members)
    }

    /// Broadcast from member `root_idx`: the root passes `Some(value)`,
    /// everyone receives the value.
    pub async fn bcast_async<M>(
        &self,
        p: &mut Process,
        root_idx: usize,
        value: Option<M>,
    ) -> Result<M, CommError>
    where
        M: WirePayload + Clone,
    {
        let size = self.size();
        assert!(root_idx < size, "bcast root out of range");
        let me = self.my_index(p);
        let rel = (me + size - root_idx) % size;
        let mut val: Option<M> = if rel == 0 {
            Some(value.expect("bcast root must supply a value"))
        } else {
            None
        };
        // Receive phase: find the bit where the parent lives.
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let parent_rel = rel - mask;
                let parent = self.members[(parent_rel + root_idx) % size];
                val = Some(p.recv_async::<M>(parent, TAG_BCAST).await?);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below the found bit.
        let mut send_mask = mask >> 1;
        let v = val.expect("bcast value must be set after receive phase");
        while send_mask > 0 {
            let child_rel = rel + send_mask;
            if rel & send_mask == 0 && child_rel < size {
                let child = self.members[(child_rel + root_idx) % size];
                p.send(child, TAG_BCAST, v.clone())?;
            }
            send_mask >>= 1;
        }
        Ok(v)
    }

    /// [`Communicator::allreduce_with_async`] for a caller that cannot
    /// await (a rank on its own thread): an operator that charges nothing.
    pub fn allreduce<M, F>(&self, p: &mut Process, value: M, op: F) -> Result<M, CommError>
    where
        M: WirePayload + Clone,
        F: Fn(M, M) -> M,
    {
        block_on(self.allreduce_with_async(p, value, |_, lo, hi| op(lo, hi)))
    }

    /// Recursive-doubling all-reduce: every member gets the reduction.
    ///
    /// On `P = 2^k` members this is `log₂(P)` full-duplex exchange rounds —
    /// the message count the paper charges per `PDGEQR2` column reduction.
    /// Non-powers-of-two use the standard fold-in/fold-out fixup.
    ///
    /// The operator is also handed the calling [`Process`], so a combine
    /// that costs something (TSQR's stacked-triangles QR) is charged where
    /// it happens: between rounds. `op(p, lo, hi)` always gets the
    /// lower-index member's operand first, on both partners of an
    /// exchange — every member ends up with the same bits even for a
    /// non-commutative operator.
    ///
    /// A data-free payload ([`WirePayload::SYMBOLIC`]) in a cooperative,
    /// untraced run with no failure schedule and arrival-order delivery is
    /// folded in one step instead (see the [module docs](self)): `op` is
    /// not called, each member gets its own `value` back, and every member
    /// must pass the same `wire_bytes`.
    pub async fn allreduce_with_async<M, F>(
        &self,
        p: &mut Process,
        value: M,
        op: F,
    ) -> Result<M, CommError>
    where
        M: WirePayload + Clone,
        F: Fn(&mut Process, M, M) -> M,
    {
        if let Some(hub) = fold::fold_hub::<M>(p) {
            return fold::allreduce_async(self, p, hub, value).await;
        }
        let me = self.my_index(p);
        let (pof2, rem, member) = butterfly(self.size());
        let mut val = value;

        // Fold the first 2·rem members down to rem participants.
        let newidx: Option<usize> = if me < 2 * rem {
            if me.is_multiple_of(2) {
                p.send(self.members[me + 1], TAG_ALLREDUCE, val.clone())?;
                None
            } else {
                let other = p.recv_async::<M>(self.members[me - 1], TAG_ALLREDUCE).await?;
                val = op(p, other, val);
                Some(me / 2)
            }
        } else {
            Some(me - rem)
        };

        if let Some(newidx) = newidx {
            let mut mask = 1usize;
            while mask < pof2 {
                let partner_new = newidx ^ mask;
                let partner = self.members[member(partner_new)];
                let got = p.exchange_async(partner, TAG_ALLREDUCE, val.clone()).await?;
                val = if partner_new < newidx { op(p, got, val) } else { op(p, val, got) };
                mask <<= 1;
            }
        }

        // Unfold: odd members of the folded prefix push the result back.
        if me < 2 * rem {
            if !me.is_multiple_of(2) {
                p.send(self.members[me - 1], TAG_ALLREDUCE, val.clone())?;
            } else {
                val = p.recv_async::<M>(self.members[me + 1], TAG_ALLREDUCE).await?;
            }
        }
        Ok(val)
    }

    /// Binomial-tree gather to member `root_idx`: the root receives every
    /// member's value in member order, others get `None`.
    pub async fn gather_async<M>(
        &self,
        p: &mut Process,
        root_idx: usize,
        value: M,
    ) -> Result<Option<Vec<M>>, CommError>
    where
        M: WirePayload,
    {
        let size = self.size();
        assert!(root_idx < size, "gather root out of range");
        let me = self.my_index(p);
        let rel = (me + size - root_idx) % size;
        let mut collected: Vec<(usize, M)> = vec![(me, value)];
        let mut mask = 1usize;
        while mask < size {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < size {
                    let src = self.members[(src_rel + root_idx) % size];
                    let mut batch = p.recv_async::<Vec<(usize, M)>>(src, TAG_GATHER).await?;
                    collected.append(&mut batch);
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = self.members[(dst_rel + root_idx) % size];
                p.send(dst, TAG_GATHER, collected)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        collected.sort_by_key(|(idx, _)| *idx);
        Ok(Some(collected.into_iter().map(|(_, v)| v).collect()))
    }

    /// Gather to member 0, then broadcast: every member gets all values in
    /// member order.
    pub async fn allgather_async<M>(&self, p: &mut Process, value: M) -> Result<Vec<M>, CommError>
    where
        M: WirePayload + Clone,
    {
        let gathered = self.gather_async(p, 0, value).await?;
        self.bcast_async(p, 0, gathered).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Phantom;
    use crate::metrics::{MetricsRegistry, PhaseCounters, UNPHASED};
    use crate::runtime::{RankResult, RunReport, Runtime};
    use tsqr_netsim::{ClusterSpec, CostModel, GridTopology, LinkParams};

    fn runtime(n: usize) -> Runtime {
        let topo = GridTopology::block_placement(
            vec![ClusterSpec {
                name: "c".into(),
                nodes: n,
                procs_per_node: 1,
                peak_gflops_per_proc: 8.0,
            }],
            n,
            1,
        );
        Runtime::new(topo, CostModel::homogeneous(LinkParams::from_ms_mbps(1.0, 800.0), 1e9, 1))
    }

    #[test]
    fn bcast_delivers_to_all_from_any_root() {
        for n in [1, 2, 3, 5, 8] {
            for root in [0, n - 1, n / 2] {
                let rt = runtime(n);
                let report = rt.run_cooperative(async |p, world| {
                    let v = if world.my_index(p) == root { Some(42.0f64) } else { None };
                    world.bcast_async(p, root, v).await
                });
                for r in &report.ranks {
                    assert_eq!(*r.result.as_ref().unwrap(), 42.0);
                }
            }
        }
    }

    #[test]
    fn allreduce_sum_everywhere() {
        for n in [1, 2, 3, 4, 5, 8, 13, 16] {
            let rt = runtime(n);
            let report = rt.run(|p, world| {
                let me = world.my_index(p) as f64;
                world.allreduce(p, me, |a, b| a + b)
            });
            let want = (n * (n - 1) / 2) as f64;
            for (rank, r) in report.ranks.iter().enumerate() {
                assert_eq!(r.result.clone().unwrap(), want, "rank {rank} of {n}");
            }
        }
    }

    #[test]
    fn allreduce_vector_payload() {
        let rt = runtime(4);
        let report = rt.run(|p, world| {
            let me = world.my_index(p) as f64;
            world.allreduce(p, vec![me, 2.0 * me], |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            })
        });
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), vec![6.0, 12.0]);
        }
    }

    #[test]
    fn allreduce_message_count_is_log2_for_power_of_two() {
        let n = 16;
        let rt = runtime(n);
        let report = rt.run(|p, world| {
            let me = world.my_index(p) as f64;
            world.allreduce(p, me, |a, b| a + b)?;
            Ok(p.counters().total_msgs())
        });
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), 4, "each rank sends log2(16) msgs");
        }
    }

    #[test]
    fn gather_collects_in_member_order() {
        for n in [1, 2, 5, 8] {
            let rt = runtime(n);
            let report = rt.run_cooperative(async |p, world| {
                let me = world.my_index(p) as f64;
                world.gather_async(p, 0, me * 10.0).await
            });
            let want: Vec<f64> = (0..n).map(|i| i as f64 * 10.0).collect();
            assert_eq!(report.ranks[0].result.clone().unwrap(), Some(want));
        }
    }

    #[test]
    fn allgather_everywhere() {
        let rt = runtime(6);
        let report = rt.run_cooperative(async |p, world| {
            let me = world.my_index(p);
            world.allgather_async(p, me as u64).await
        });
        let want: Vec<u64> = (0..6).collect();
        for r in &report.ranks {
            assert_eq!(r.result.clone().unwrap(), want);
        }
    }

    #[test]
    fn split_by_groups_and_collectives_within_groups() {
        // 8 ranks, two colors (even/odd); sum within each group.
        let rt = runtime(8);
        let report = rt.run(|p, world| {
            let group = world.split_by(p, |r| (r % 2) as u64, |r| r as u64);
            assert_eq!(group.size(), 4);
            let me = p.rank() as f64;
            group.allreduce(p, me, |a, b| a + b)
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let want = if rank % 2 == 0 { 0.0 + 2.0 + 4.0 + 6.0 } else { 1.0 + 3.0 + 5.0 + 7.0 };
            assert_eq!(r.result.clone().unwrap(), want);
        }
    }

    #[test]
    fn a_cooperative_untraced_data_free_allreduce_posts_no_envelope() {
        // Envelopes posted and messages counted by each rank, on 13 ranks:
        // folded when untraced, sent when traced, the same ledger either way.
        let run = |traced: bool| {
            let mut rt = runtime(13);
            if traced {
                rt.enable_tracing();
            }
            let ops = std::cell::Cell::new(0);
            let report = rt.run_cooperative(async |p, world| {
                let op = |_: &mut Process, lo, _| {
                    ops.set(ops.get() + 1);
                    lo
                };
                world.allreduce_with_async(p, Phantom { bytes: 16 }, op).await?;
                Ok((p.sent_seq.iter().sum::<u64>(), p.counters().total_msgs()))
            });
            let ranks: Vec<_> = report.ranks.into_iter().map(|r| r.result.unwrap()).collect();
            (ranks, ops.get())
        };
        let ((folded, folded_ops), (sent, sent_ops)) = (run(false), run(true));
        assert!(folded.iter().all(|&(posted, _)| posted == 0), "{folded:?}");
        assert_eq!(folded_ops, 0, "the operator of a data-free payload is not called");
        assert!(sent.iter().all(|&(posted, msgs)| posted == msgs && msgs > 0), "{sent:?}");
        assert!(sent_ops > 0);
        let msgs = |r: &[(u64, u64)]| r.iter().map(|&(_, msgs)| msgs).collect::<Vec<_>>();
        assert_eq!(msgs(&folded), msgs(&sent));
    }

    #[test]
    fn a_fold_that_opens_a_phase_leaves_the_ledger_the_messages_leave() {
        // A folded all-reduce is the first work of a fresh phase, on 5
        // members and on a 1-member communicator: each rank's phases and
        // every counter, to the bit, as the traced run's messages leave them.
        let bits = |c: &PhaseCounters| {
            let ints = c.msgs.iter().chain(&c.bytes).copied().chain([c.flops]);
            let secs = c.send_s.iter().chain([&c.compute_s, &c.recv_wait_s]).map(|s| s.to_bits());
            ints.chain(secs).collect::<Vec<u64>>()
        };
        for solo in [false, true] {
            let run = |traced: bool| {
                let mut rt = runtime(5);
                if traced {
                    rt.enable_tracing();
                }
                let report = rt.run_cooperative(async |p, world| {
                    p.compute(1_000_000 * p.rank() as u64, None);
                    let solo_comm = Communicator::from_members(vec![p.rank()]);
                    let comm = if solo { &solo_comm } else { world };
                    p.phase_begin("fresh");
                    comm.allreduce_with_async(p, Phantom { bytes: 24 }, |_, lo, _| lo).await?;
                    p.phase_end();
                    Ok(p.sent_seq.iter().sum::<u64>())
                });
                let posted: Vec<u64> =
                    report.ranks.iter().map(|r| *r.result.as_ref().unwrap()).collect();
                // Per rank: each phase, in order, with its counters' bits.
                let ledger = |m: &MetricsRegistry| {
                    let phase = |name| (name, bits(m.phase(name).unwrap()));
                    m.phase_names().into_iter().map(phase).collect::<Vec<_>>()
                };
                (posted, report.metrics.iter().map(ledger).collect::<Vec<_>>())
            };
            let ((folded_posts, folded), (sent_posts, sent)) = (run(false), run(true));
            assert!(folded_posts.iter().all(|&n| n == 0), "solo={solo}: {folded_posts:?}");
            assert_eq!(sent_posts.iter().all(|&n| n > 0), !solo, "solo={solo}: {sent_posts:?}");
            let phases = if solo { vec![UNPHASED] } else { vec![UNPHASED, "fresh"] };
            for rank in &sent {
                let names: Vec<&str> = rank.iter().map(|(name, _)| *name).collect();
                assert_eq!(names, phases, "solo={solo}");
            }
            assert_eq!(folded, sent, "solo={solo}");
        }
    }

    #[test]
    fn a_member_that_never_arrives_fails_the_fold_as_it_fails_the_messages() {
        // One member returns before the all-reduce, with an error (its peers
        // get its abort tombstone) or without (nobody ever hears from it).
        // The folded run (cooperative, untraced) must neither panic nor
        // hang, and must fail the same ranks with the same error variants as
        // the message path, run on rank threads.
        let outcome = |report: RunReport<()>| -> Vec<Option<std::mem::Discriminant<CommError>>> {
            let error = |r: &RankResult<()>| r.result.as_ref().err().map(std::mem::discriminant);
            report.ranks.iter().map(error).collect()
        };
        for (n, quitter) in [(3, 0), (3, 1), (3, 2), (13, 0), (13, 6), (13, 12)] {
            for aborts in [true, false] {
                let program = async |p: &mut Process, world: &Communicator| {
                    if p.rank() == quitter {
                        let why = CommError::TagMismatch { expected: 0, got: 1 };
                        return if aborts { Err(why) } else { Ok(()) };
                    }
                    let value = Phantom { bytes: 8 };
                    world.allreduce_with_async(p, value, |_, lo, _| lo).await.map(|_| ())
                };
                let rt = runtime(n);
                let folded = outcome(rt.run_cooperative(program));
                let messages = outcome(rt.run(|p, w| block_on(program(p, w))));
                let case = format!("{n} ranks, rank {quitter} quits, aborts={aborts}");
                assert_eq!(folded, messages, "{case}");
                let failed = folded.iter().filter(|e| e.is_some()).count();
                assert_eq!(failed, n - usize::from(!aborts), "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in this communicator")]
    fn collective_on_foreign_comm_panics() {
        let rt = runtime(2);
        rt.run(|p, _| {
            let other = Communicator::from_members(vec![1 - p.rank()]);
            let _ = other.my_index(p);
            Ok(())
        });
    }
}
