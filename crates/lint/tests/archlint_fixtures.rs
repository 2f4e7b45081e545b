//! End-to-end fixture tests for `archlint`, run against the
//! mini-workspaces under `tests/fixtures/`. Each seeded violation must fire its rule exactly
//! once on the known-bad fixture and not at all on the known-good one,
//! and `--bless` must regenerate the model golden byte-exactly.
//!
//! The fixture trees live under `tests/`, so the real lints skip them
//! (`is_nonshipped`) and cargo does not treat the nested `Cargo.toml`
//! files as workspace members.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(bin: &str, root: &Path, extra: &[&str]) -> Output {
    Command::new(bin)
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
}

fn archlint(root: &Path, extra: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_archlint"), root, extra)
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn count(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

/// Copies a fixture tree into a scratch dir (for tests that mutate the
/// model golden via `--bless`).
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("mkdir");
    for e in std::fs::read_dir(from).expect("read_dir").flatten() {
        let src = e.path();
        let dst = to.join(e.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            std::fs::copy(&src, &dst).expect("copy");
        }
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archlint-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn good_fixture_is_clean() {
    let a = archlint(&fixture("good"), &[]);
    let out = stdout(&a);
    assert!(a.status.success(), "archlint failed on the good fixture:\n{out}");
    assert!(out.contains("0 finding(s)"), "{out}");
}

#[test]
fn direct_rules_fire_exactly_once_each() {
    let a = archlint(&fixture("bad_direct"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    // The crate is not deterministic, so the taint pass stays silent and
    // every finding is a direct one; the test module is not looked at.
    assert_eq!(count(&out, "[wall-clock]"), 1, "{out}");
    assert_eq!(count(&out, "[hashmap-iter]"), 1, "{out}");
    assert_eq!(count(&out, "[wildcard-recv]"), 1, "{out}");
    assert_eq!(count(&out, "[async-name]"), 1, "{out}");
    assert!(out.contains("crates/loose/src/lib.rs:18: [wall-clock] `Instant::now`"), "{out}");
    assert!(
        out.contains("crates/loose/src/lib.rs:23: [hashmap-iter] iteration over `counts`"),
        "{out}"
    );
    assert!(out.contains("crates/loose/src/lib.rs:27: [wildcard-recv]"), "{out}");
    assert!(out.contains("crates/loose/src/lib.rs:30: [async-name] `async fn drain`"), "{out}");
    assert!(out.contains("4 finding(s)"), "unexpected extra findings:\n{out}");
}

#[test]
fn layering_violations_fire_exactly_once_each() {
    let a = archlint(&fixture("bad_layering"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    assert_eq!(count(&out, "[layering]"), 2, "{out}");
    assert!(out.contains("strictly down"), "upward manifest edge not flagged:\n{out}");
    assert!(out.contains("undeclared inter-crate edge"), "{out}");
    assert!(out.contains("2 finding(s)"), "unexpected extra findings:\n{out}");
}

#[test]
fn indirect_taint_fires_exactly_once_with_chain() {
    let a = archlint(&fixture("bad_taint"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    assert_eq!(count(&out, "[nondet-taint]"), 1, "{out}");
    // The whole point of the pass: the wall-clock read is two calls
    // away from the deterministic crate, and the chain names both ends.
    assert!(out.contains("det::entry -> util::leaf"), "{out}");
    // The same line is also a direct wall-clock finding: two findings on
    // one line, one per question asked of it.
    assert!(
        out.contains("crates/util/src/lib.rs:6: [nondet-taint] [wall-clock] `Instant::now`"),
        "{out}"
    );
    assert!(out.contains("crates/util/src/lib.rs:6: [wall-clock] `Instant::now`"), "{out}");
    assert!(out.contains("2 finding(s)"), "{out}");
}

#[test]
fn protocol_violations_fire_exactly_once_each() {
    let a = archlint(&fixture("bad_protocol"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    assert_eq!(count(&out, "[protocol-flow]"), 1, "{out}");
    assert_eq!(count(&out, "[protocol-range]"), 1, "{out}");
    assert_eq!(count(&out, "[protocol-model]"), 1, "{out}");
    assert_eq!(count(&out, "[tag-protocol]"), 2, "{out}");
    assert!(out.contains("TAG_ONE` is unpaired"), "{out}");
    assert!(out.contains("TAG_OOR` = 500 falls in no declared range"), "{out}");
    assert!(out.contains("drifted"), "{out}");
    assert!(out.contains("TAG_DRIFT` = 7 but the protocol table says 6"), "{out}");
    assert!(out.contains("TAG_NEW` is not in scripts/commlint.protocol"), "{out}");
    assert!(out.contains("5 finding(s)"), "{out}");
}

#[test]
fn bless_clears_model_drift_but_not_real_violations() {
    let dir = scratch("drift");
    copy_tree(&fixture("bad_protocol"), &dir);
    // --bless rewrites the golden from the live extraction; the drift
    // finding disappears, the genuine protocol violations stay.
    let blessed = archlint(&dir, &["--bless"]);
    let out = stdout(&blessed);
    assert!(!blessed.status.success(), "{out}");
    assert_eq!(count(&out, "[protocol-model]"), 0, "{out}");
    assert!(out.contains("4 finding(s)"), "{out}");
    let rerun = archlint(&dir, &[]);
    assert_eq!(count(&stdout(&rerun), "[protocol-model]"), 0, "{}", stdout(&rerun));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn missing_model_is_flagged_and_bless_recreates_it_byte_exactly() {
    let dir = scratch("missing");
    copy_tree(&fixture("good"), &dir);
    let committed =
        std::fs::read_to_string(dir.join("scripts/archlint.model")).expect("committed golden");
    std::fs::remove_file(dir.join("scripts/archlint.model")).expect("rm model");
    let broken = archlint(&dir, &[]);
    let out = stdout(&broken);
    assert!(!broken.status.success(), "{out}");
    assert!(out.contains("model golden is missing"), "{out}");
    let blessed = archlint(&dir, &["--bless"]);
    assert!(blessed.status.success(), "{}", stdout(&blessed));
    let regenerated =
        std::fs::read_to_string(dir.join("scripts/archlint.model")).expect("regenerated golden");
    assert_eq!(regenerated, committed, "bless must reproduce the committed golden byte-exactly");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stale_allow_entries_are_denied() {
    let a = archlint(&fixture("stale_allow"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    assert_eq!(count(&out, "[stale-allow]"), 2, "{out}");
    assert!(
        out.contains("scripts/archlint.allow:3: [stale-allow] allow entry `nondet-taint"),
        "{out}"
    );
    assert!(
        out.contains("scripts/archlint.allow:6: [stale-allow] allow entry `wall-clock"),
        "{out}"
    );
    assert!(out.contains("2 finding(s)"), "{out}");
}

#[test]
fn owners_rows_fire_exactly_once_each() {
    let a = archlint(&fixture("bad_owners"), &[]);
    let out = stdout(&a);
    assert!(!a.status.success(), "{out}");
    let table = "scripts/archlint.owners";
    for want in [
        ":2: [owners] 1 hit(s), bound absent [crates/solo/src/lib.rs:4]: no helper of that name (absent)",
        ":3: [owners] 2 hit(s), bound <=1 [crates/solo/src/lib.rs:11, crates/solo/src/lib.rs:12]: one call site",
        ":4: [owners] 1 hit(s), bound =2 [crates/solo/src/lib.rs:16]: two shipped mentions",
        ":5: [owners] 1 hit(s), bound absent [crates/solo/src/bin/tool.rs]: no executable (path)",
        ":6: [stale-owner] scope entry `crates/gone/src` matches no file",
    ] {
        assert!(out.contains(&format!("{table}{want}")), "missing {want}:\n{out}");
    }
    assert!(out.contains("5 finding(s)"), "unexpected extra findings:\n{out}");
}

/// Every pass on the repository itself: zero findings, so the direct,
/// layering, taint, protocol and owners passes gate `cargo test` too.
#[test]
fn the_repository_is_clean() {
    let a = archlint(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."), &[]);
    let out = stdout(&a);
    assert!(a.status.success(), "archlint failed on the repository:\n{out}");
    assert!(out.contains(" 0 finding(s)"), "{out}");
}
