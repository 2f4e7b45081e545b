//! Seeded owners-table violations: each row of this fixture's
//! `scripts/archlint.owners` must fire exactly once.

pub fn forbidden_helper() {}

pub fn twice_called() -> u32 {
    1
}

pub fn callers() -> u32 {
    let a = twice_called();
    let b = twice_called();
    a + b
}

pub fn one_owner() {}

#[cfg(test)]
mod tests {
    #[test]
    fn the_shipped_view_skips_this_call() {
        super::one_owner();
    }
}
