//! Seeded protocol violations: `TAG_ONE` is sent but never received
//! (protocol-flow), `TAG_OOR` = 500 falls outside every declared tag
//! range (protocol-range), `TAG_DRIFT` = 7 contradicts the table's 6 and
//! `TAG_NEW` is missing from the table (tag-protocol, twice). The
//! committed model golden is stale on purpose (protocol-model).

pub const TAG_ONE: u32 = 5;
pub const TAG_OOR: u32 = 500;
pub const TAG_DRIFT: u32 = 7;
pub const TAG_NEW: u32 = 8;

pub struct Port;

impl Port {
    pub fn send<T>(&mut self, _to: usize, _tag: u32, _v: &T) {}
    pub fn recv<T: Default>(&mut self, _from: usize, _tag: u32) -> T {
        T::default()
    }
}

pub fn one_sided(p: &mut Port) {
    p.send(1, TAG_ONE, &1.0f64);
}

pub fn out_of_range(p: &mut Port) -> f64 {
    p.send(1, TAG_OOR, &1.0f64);
    p.recv(0, TAG_OOR)
}

pub fn drifted_value(p: &mut Port) -> f64 {
    p.send(1, TAG_DRIFT, &1.0f64);
    p.recv(0, TAG_DRIFT)
}

pub fn undeclared(p: &mut Port) -> f64 {
    p.send(1, TAG_NEW, &1.0f64);
    p.recv(0, TAG_NEW)
}
