//! The recovery policy layer: what happens *after* a fault.
//!
//! The engine (see [`crate::engine`]) detects faults — a site crash
//! killing a lease, a drained R lost to a transient drop — and hands the
//! affected requests to this layer's types:
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff in
//!   *virtual* seconds. A retried request keeps its original deadline
//!   (EDF re-prioritizes it naturally: the closer the deadline, the
//!   sooner it dispatches again) and re-enters the admission queue when
//!   its backoff expires; re-admission bypasses the queue bound because
//!   the request was already admitted once — overload is handled by
//!   brownout, not by silently bouncing retries.
//! * [`Checkpoint`] — the ROADMAP preemption primitive: the per-cluster
//!   partial R factors at the reduction roots are tiny (`n(n+1)/2`
//!   doubles), so the engine persists them at fault time and a
//!   checkpointed retry pays only the *residual WAN drain* instead of
//!   recomputing the local phase. With
//!   [`RetryPolicy::checkpoint_drain`] off every retry is a full
//!   restart.
//! * `Brownout` — graceful degradation under sustained failure. When
//!   retry pressure (requests waiting out a backoff or re-queued)
//!   crosses `enter_watermark`, admission sheds the loosest-deadline
//!   arrivals ([`crate::engine::Disposition::Shed`], an explicit
//!   client-visible verdict) until pressure falls back to
//!   `exit_watermark` — the hysteresis gap prevents flapping at the
//!   boundary.
//!
//! Every decision is a pure function of virtual time and the seeded
//! [`tsqr_netsim::FailureSchedule`], so faulty runs replay
//! byte-identically — the same discipline as the rest of the workspace.

use tsqr_netsim::VirtualTime;

/// Bounded-retry policy for faulted jobs (virtual-time backoff).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total tries a request may consume (first dispatch included); at
    /// least 1. A fault on the final try is a
    /// [`crate::engine::Disposition::FailedPermanent`].
    pub max_attempts: usize,
    /// Backoff before the first retry, virtual seconds.
    pub backoff_base_s: f64,
    /// Recovery mode: `true` = checkpointed WAN drain (retries of jobs
    /// that finished their local phase pay only the residual drain),
    /// `false` = full restart from the leaf QR.
    pub checkpoint_drain: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_base_s: 0.05, checkpoint_drain: true }
    }
}

impl RetryPolicy {
    /// The multiplier applied per additional failed attempt.
    const BACKOFF_FACTOR: f64 = 2.0;

    /// The backoff after the `attempts`-th failed try (`attempts ≥ 1`):
    /// `base × 2^(attempts − 1)` virtual seconds.
    pub(crate) fn backoff_s(&self, attempts: usize) -> f64 {
        self.backoff_base_s * Self::BACKOFF_FACTOR.powi(attempts.saturating_sub(1) as i32)
    }
}

/// Brownout watermarks for graceful degradation (hysteretic shed mode).
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Retry pressure at or above which admission enters brownout.
    pub enter_watermark: usize,
    /// Pressure at or below which brownout disengages (≤ enter).
    pub exit_watermark: usize,
    /// Slack threshold for shedding: while browning out, an arrival
    /// whose deadline slack is at least `shed_slack ×` its solo service
    /// time is shed. The workload draws slack from `U[2, 6]`, so the
    /// default 4.0 sheds roughly the loosest half — "lowest value"
    /// under a deadline-value model.
    pub shed_slack: f64,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig { enter_watermark: 8, exit_watermark: 2, shed_slack: 4.0 }
    }
}

/// Hysteretic brownout state machine over [`BrownoutConfig`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Brownout {
    cfg: BrownoutConfig,
    active: bool,
}

impl Brownout {
    /// Inactive brownout under `cfg`.
    ///
    /// # Panics
    /// Panics when `exit_watermark > enter_watermark` (the hysteresis
    /// band would be inverted).
    pub(crate) fn new(cfg: BrownoutConfig) -> Self {
        assert!(
            cfg.exit_watermark <= cfg.enter_watermark,
            "brownout exit watermark must not exceed the enter watermark"
        );
        Brownout { cfg, active: false }
    }

    /// Feeds the current retry pressure and returns whether admission is
    /// browning out *after* the update (enter at ≥ enter watermark, exit
    /// at ≤ exit watermark, sticky in between).
    pub(crate) fn on_pressure(&mut self, pressure: usize) -> bool {
        if self.active {
            if pressure <= self.cfg.exit_watermark {
                self.active = false;
            }
        } else if pressure >= self.cfg.enter_watermark {
            self.active = true;
        }
        self.active
    }
}

/// A persisted partial result: the tiny per-cluster R factors at the
/// reduction roots, captured at fault time. A retry carrying one skips
/// the local phase and pays only `residual_wan_s` wire-seconds of drain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// WAN wire-seconds still owed when the fault hit.
    pub residual_wan_s: f64,
}

/// What failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A catalog cluster crashed while hosting (part of) the job.
    SiteCrashed {
        /// Catalog index of the dead cluster.
        site: usize,
    },
    /// The drained R messages were lost in flight on a WAN link.
    DrainDropped {
        /// The canonical site-pair link the drop fired on.
        link: (usize, usize),
    },
}

/// What the recovery layer decided for one faulted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Re-admitted for another try after backoff.
    Retried {
        /// Attempt count *including* the upcoming retry.
        attempts: usize,
        /// Whether the retry carries a [`Checkpoint`] (residual drain
        /// only) or restarts from scratch.
        checkpointed: bool,
    },
    /// Retry budget exhausted; the request fails permanently.
    FailedPermanent {
        /// Attempts consumed.
        attempts: usize,
    },
}

/// One typed fault event, per affected request — the engine's audit
/// trail ([`crate::engine::ServeOutcome::faults`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JobFault {
    /// Virtual instant the fault fired.
    pub at: VirtualTime,
    /// Request id of the affected batch member.
    pub request: usize,
    /// What failed.
    pub kind: FaultKind,
    /// What recovery decided.
    pub action: RecoveryAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_from_the_base() {
        let p = RetryPolicy { backoff_base_s: 0.1, ..Default::default() };
        assert_eq!(p.backoff_s(1), 0.1);
        assert_eq!(p.backoff_s(2), 0.2);
        assert_eq!(p.backoff_s(3), 0.4);
    }

    #[test]
    fn brownout_is_hysteretic() {
        let mut b = Brownout::new(BrownoutConfig {
            enter_watermark: 4,
            exit_watermark: 1,
            shed_slack: 4.0,
        });
        assert!(!b.on_pressure(3), "below enter: stays off");
        assert!(b.on_pressure(4), "at enter: engages");
        assert!(b.on_pressure(2), "between watermarks: sticky on");
        assert!(!b.on_pressure(1), "at exit: disengages");
        assert!(!b.on_pressure(3), "between watermarks: sticky off");
        assert!(!b.active);
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_watermarks_rejected() {
        let _ = Brownout::new(BrownoutConfig {
            enter_watermark: 2,
            exit_watermark: 5,
            shed_slack: 4.0,
        });
    }
}
