//! Virtual time for the deterministic grid simulation.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) of simulated time, in seconds.
///
/// Wraps an `f64` with a total order (`total_cmp`) so clocks can be
/// compared and maxed; simulated message-passing programs never read the
/// wall clock, so runs are bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VirtualTime(pub f64);

impl VirtualTime {
    /// Time zero.
    pub const ZERO: VirtualTime = VirtualTime(0.0);

    /// Constructs from seconds.
    pub fn from_secs(s: f64) -> Self {
        debug_assert!(s.is_finite(), "virtual time must be finite");
        VirtualTime(s)
    }

    /// Constructs from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// Constructs from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// The value in seconds.
    #[inline]
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: VirtualTime) -> VirtualTime {
        if self.0.total_cmp(&other.0).is_ge() {
            self
        } else {
            other
        }
    }
}

impl Eq for VirtualTime {}

impl PartialOrd for VirtualTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VirtualTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 + rhs.0)
    }
}

impl AddAssign for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualTime) {
        self.0 += rhs.0;
    }
}

impl Sub for VirtualTime {
    type Output = VirtualTime;
    fn sub(self, rhs: VirtualTime) -> VirtualTime {
        VirtualTime(self.0 - rhs.0)
    }
}

impl Sum for VirtualTime {
    fn sum<I: Iterator<Item = VirtualTime>>(iter: I) -> VirtualTime {
        VirtualTime(iter.map(|t| t.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(VirtualTime::from_millis(1.0).secs(), 1e-3);
        assert_eq!(VirtualTime::from_micros(17.0).secs(), 17e-6);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = VirtualTime::from_secs(1.0);
        let b = VirtualTime::from_secs(2.5);
        assert_eq!((a + b).secs(), 3.5);
        assert_eq!((b - a).secs(), 1.5);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c.secs(), 3.5);
    }

    #[test]
    fn sum_of_spans() {
        let total: VirtualTime =
            [1.0, 2.0, 3.0].iter().map(|&s| VirtualTime::from_secs(s)).sum();
        assert_eq!(total.secs(), 6.0);
    }

    #[test]
    fn max_handles_equal_values() {
        let a = VirtualTime::from_secs(1.0);
        assert_eq!(a.max(a), a);
    }
}
