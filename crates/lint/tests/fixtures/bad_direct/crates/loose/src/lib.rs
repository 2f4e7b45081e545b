//! Seeded direct-rule violations in a crate that is not deterministic,
//! so the taint pass has nothing to report: one wall-clock read, one
//! iteration over a `HashMap` binding, one wildcard receive and one
//! misnamed `async fn` — each rule must fire exactly once. The test
//! module repeats all four, and the rules must not see it.

use std::collections::HashMap;

pub struct Port;

impl Port {
    pub fn recv_any(&mut self, _tag: u32) -> (usize, f64) {
        (0, 0.0)
    }
}

pub fn stamp() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

pub fn total() -> u64 {
    let counts: HashMap<u32, u64> = HashMap::new();
    counts.values().sum()
}

pub fn first(p: &mut Port) -> usize {
    p.recv_any(7).0
}

pub async fn drain() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    fn again(p: &mut super::Port) -> usize {
        let seen: HashMap<u32, u64> = HashMap::new();
        let _ = (std::time::Instant::now(), seen.keys().count());
        p.recv_any(7).0
    }

    async fn drain_again() {}
}
