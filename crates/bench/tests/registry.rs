//! The artifact registry is the contract between the paper's claims, the
//! perf gate and the docs: ids are unique, the gate pins exactly the
//! registry's headline points, the two artifact tables list exactly the
//! registry, and the artifacts cheap enough for Tier-1 run here in full.

use tsqr_bench::{figures, gate_points, GatePoint, Sweep};

fn ids() -> Vec<&'static str> {
    figures().iter().map(|f| f.id).collect()
}

#[test]
fn ids_are_unique() {
    let mut sorted = ids();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), figures().len(), "duplicate id in {:?}", ids());
}

#[test]
fn the_gate_pins_the_registrys_headline_points() {
    let gate = gate_points().into_iter().filter_map(|p| match p {
        GatePoint::Figure(p) => Some(p),
        _ => None,
    });
    let headline = figures().iter().flat_map(|f| f.points).cloned();
    assert_eq!(gate.collect::<Vec<_>>(), headline.collect::<Vec<_>>());
    // A `fig*` record id names the row it is a point of.
    for f in figures() {
        assert!(f.points.iter().all(|p| p.figure == f.id && p.sites >= 1 && p.m > 0 && p.n > 0));
    }
}

#[test]
fn both_artifact_tables_list_exactly_the_registry() {
    // `| `id` | artifact |` rows of the crate docs.
    let lib: Vec<&str> = include_str!("../src/lib.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("//! | `")?.split('`').next())
        .collect();
    assert_eq!(lib, ids(), "crates/bench/src/lib.rs");
    // `grid-tsqr figure --id <id>   # title` lines of "Reproducing the paper".
    let readme: Vec<&str> = include_str!("../../../README.md")
        .lines()
        .filter_map(|l| l.strip_prefix("grid-tsqr figure --id ")?.split_whitespace().next())
        .collect();
    assert_eq!(readme, ids(), "README.md");
}

/// Property 1, the Fig. 1/2 WAN-message counts, Eq. (1) and three
/// ablations cost milliseconds, so Tier-1 itself checks them. They read
/// no sweep point, so an empty sweep serves.
#[test]
fn the_cheap_artifacts_pass_their_shape_checks() {
    for id in ["prop1", "fig12", "eq1", "ablation_balance", "ablation_cholqr", "fault_degradation"]
    {
        let figure = figures().iter().find(|f| f.id == id).expect("registered");
        let artifact = (figure.run)(&Sweep::default());
        assert!(!artifact.tables.is_empty() && !artifact.checks.is_empty(), "{id}: {artifact:?}");
        assert!(artifact.passed(), "{id}: a [FAIL] shape check\n{artifact}");
    }
}
