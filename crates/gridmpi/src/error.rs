//! Communication errors.

use std::fmt;

use tsqr_netsim::VirtualTime;

/// Errors surfaced by the message-passing layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The (injected) link between two ranks is down.
    LinkDown {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// A rank crashed per the failure schedule. Surfaced both *by* the
    /// crashed rank (every operation it attempts at or after its crash
    /// time fails with its own rank) and *about* it (a peer's failure
    /// detector declares it dead — see `docs/fault-injection.md`).
    RankFailed {
        /// The rank that crashed.
        rank: usize,
        /// Virtual time of the crash.
        at: VirtualTime,
    },
    /// A message was lost in transit (transient drop from the failure
    /// schedule) and the bounded retransmission budget was exhausted.
    MessageDropped {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
    /// A receive waited past the wall-clock safety timeout — almost always
    /// a deadlocked or crashed peer in a test program.
    Timeout {
        /// The rank that was waiting.
        rank: usize,
        /// The rank it was waiting for.
        from: usize,
    },
    /// A receive on a **wait-for cycle**: a true communication deadlock,
    /// not merely a slow peer. [`crate::Runtime::run_cooperative`] reports
    /// it exactly, the moment no rank can run; [`crate::Runtime::run`]
    /// needs tracing enabled, and upgrades a wall-clock
    /// [`CommError::Timeout`] whenever the timed-out rank sits on a cycle
    /// in the trace's wait-for graph (see `crate::hb` and
    /// `docs/static-analysis.md`).
    Deadlock {
        /// The rank that was waiting.
        rank: usize,
        /// The rank it was waiting for.
        from: usize,
        /// The wait-for cycle: `cycle[0]` waited on `cycle[1]` waited on
        /// … waited on `cycle[0]`.
        cycle: Vec<usize>,
    },
    /// The peer terminated before sending: its program returned an error
    /// (the abort tombstone reached the waiter), or — under
    /// [`crate::Runtime::run_cooperative`] — it returned `Ok` and nobody is
    /// left who could run.
    PeerGone {
        /// The rank that was waiting.
        rank: usize,
        /// The rank whose channel closed.
        from: usize,
    },
    /// A message arrived with an unexpected tag — a protocol bug in the
    /// rank program.
    TagMismatch {
        /// Tag the receiver expected.
        expected: u32,
        /// Tag that actually arrived.
        got: u32,
    },
    /// A message payload had a different type than the receiver requested.
    TypeMismatch {
        /// Static type name the receiver asked for.
        expected: &'static str,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::LinkDown { src, dst } => {
                write!(f, "link {src} -> {dst} is down")
            }
            CommError::RankFailed { rank, at } => {
                write!(f, "rank {rank} crashed at t={:.6}s", at.secs())
            }
            CommError::MessageDropped { src, dst, attempts } => {
                write!(
                    f,
                    "message {src} -> {dst} lost in transit ({attempts} attempts)"
                )
            }
            CommError::Timeout { rank, from } => {
                write!(f, "rank {rank} timed out waiting for a message from {from}")
            }
            CommError::Deadlock { rank, from, cycle } => {
                write!(
                    f,
                    "rank {rank} deadlocked waiting for {from} (wait-for cycle: "
                )?;
                for r in cycle {
                    write!(f, "{r} -> ")?;
                }
                write!(f, "{})", cycle.first().copied().unwrap_or(*rank))
            }
            CommError::PeerGone { rank, from } => {
                write!(f, "rank {rank}: peer {from} terminated before sending")
            }
            CommError::TagMismatch { expected, got } => {
                write!(f, "tag mismatch: expected {expected}, got {got}")
            }
            CommError::TypeMismatch { expected } => {
                write!(f, "payload type mismatch: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CommError {}
