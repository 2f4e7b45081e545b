//! Message payloads and wire-size accounting.

use std::any::Any;

use tsqr_linalg::Matrix;
use tsqr_netsim::VirtualTime;

/// Types that can travel between ranks.
///
/// `wire_bytes` is what the cost model charges for the payload — the size
/// the data would occupy on the wire (8 bytes per `f64`, etc.). Payloads
/// move between threads by ownership, so no serialization happens; the
/// byte count exists purely for pricing, mirroring how the paper's model
/// (Eq. (1)) charges `α · volume`.
pub trait WirePayload: Send + 'static {
    /// Number of bytes this value would occupy on the wire.
    fn wire_bytes(&self) -> u64;
}

impl WirePayload for f64 {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl WirePayload for u64 {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl WirePayload for usize {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

impl WirePayload for () {
    fn wire_bytes(&self) -> u64 {
        // A zero-byte message still pays the link latency.
        0
    }
}

impl<T: WirePayload> WirePayload for Vec<T> {
    fn wire_bytes(&self) -> u64 {
        self.iter().map(WirePayload::wire_bytes).sum()
    }
}

impl WirePayload for Matrix {
    fn wire_bytes(&self) -> u64 {
        8 * (self.rows() * self.cols()) as u64
    }
}

impl<A: WirePayload, B: WirePayload> WirePayload for (A, B) {
    fn wire_bytes(&self) -> u64 {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
}

impl<T: WirePayload> WirePayload for Option<T> {
    fn wire_bytes(&self) -> u64 {
        // One flag byte plus the payload when present.
        1 + self.as_ref().map_or(0, WirePayload::wire_bytes)
    }
}

/// A symbolic payload: carries only a logical byte size, no data.
///
/// The symbolic execution engine of `tsqr-core` sends these instead of real
/// matrices, so paper-scale runs are priced identically without allocating
/// 16 GB of numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phantom {
    /// Logical wire size in bytes.
    pub bytes: u64,
}

impl WirePayload for Phantom {
    fn wire_bytes(&self) -> u64 {
        self.bytes
    }
}

/// How a rank stopped and when: what its tombstone says, and what its
/// peers remember of it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Death {
    /// Crashed per the failure schedule at the given virtual time.
    Crash(VirtualTime),
    /// The rank program returned an error at the given virtual time and
    /// will never send again.
    Abort(VirtualTime),
}

impl Death {
    pub(crate) fn at(self) -> VirtualTime {
        match self {
            Death::Crash(t) | Death::Abort(t) => t,
        }
    }
}

/// What an envelope carries: ordinary data or a failure notification.
///
/// Tombstones are *control* envelopes: they are never matched against a
/// `recv`, carry no payload cost, and exist so that a peer's death
/// propagates in **virtual** time (through the channel, FIFO after the
/// dead rank's last real message) instead of being guessed from the wall
/// clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EnvelopeKind {
    /// An ordinary payload-carrying message. `dropped` marks a message
    /// the failure schedule lost in transit: it still travels (so the
    /// receiver learns of the loss at the deterministic would-be arrival
    /// time) but the receiver gets an error instead of the payload.
    Data {
        /// True when the failure schedule dropped this transmission.
        dropped: bool,
    },
    /// The sender stopped.
    Tombstone(Death),
}

/// The envelope a message travels in.
pub(crate) struct Envelope {
    /// Sending rank (global).
    pub src: usize,
    /// Program-level tag for protocol checking.
    pub tag: u32,
    /// Virtual time at which the last byte reaches the receiver (assuming
    /// an idle receive NIC).
    pub arrival: VirtualTime,
    /// Payload size on the wire (for receiver-side NIC serialization).
    pub bytes: u64,
    /// Data or failure notification.
    pub kind: EnvelopeKind,
    /// The boxed payload (downcast on receive).
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// A control envelope announcing the sender's death.
    pub(crate) fn tombstone(src: usize, death: Death) -> Envelope {
        let kind = EnvelopeKind::Tombstone(death);
        Envelope { src, tag: 0, arrival: death.at(), bytes: 0, kind, payload: Box::new(()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(3.5f64.wire_bytes(), 8);
        assert_eq!(().wire_bytes(), 0);
        assert_eq!(vec![1.0f64; 10].wire_bytes(), 80);
        assert_eq!(Matrix::zeros(4, 3).wire_bytes(), 96);
        assert_eq!((1.0f64, vec![0.0f64; 2]).wire_bytes(), 24);
        assert_eq!(vec![(0usize, 1.0f64); 3].wire_bytes(), 48);
        assert_eq!(Some(1.0f64).wire_bytes(), 9);
        assert_eq!(None::<f64>.wire_bytes(), 1);
        assert_eq!(Phantom { bytes: 1234 }.wire_bytes(), 1234);
    }
}
