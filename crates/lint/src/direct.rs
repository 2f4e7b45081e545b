//! The direct pass of `archlint`: four rules that deny a hazard on the
//! line that writes it, in any shipped file of any crate, inside a `fn`
//! or not.
//!
//! * **wall-clock** — `Instant::now`, `SystemTime` and blocking
//!   `.recv_timeout(` calls. Virtual-time paths must never read the wall
//!   clock; a stalled run is decided exactly, in the mailbox hub.
//! * **hashmap-iter** — iteration over bindings typed
//!   `HashMap`/`HashSet`: the order is seeded per process. Use
//!   `BTreeMap`/`BTreeSet` or sort before draining.
//! * **wildcard-recv** — a `recv_any` call outside test code, in any of
//!   the spellings the flow model counts as `Op::RecvAny`, with or
//!   without a `TAG_` argument: a wildcard receive makes the matched
//!   sender delivery-order-dependent.
//! * **async-name** — an `async fn` not named `*_async`: every awaitable
//!   rank body carries the suffix, so no blocking twin hides under its
//!   name (the one rank-program form).
//!
//! The first two report the taint pass's own `wall-clock` and
//! `unordered-iter` source hits ([`crate::taint`]), so a wall-clock read
//! that reaches a deterministic crate is two findings on one line:
//! this one, and the `nondet-taint` finding naming the crate it reaches.

use crate::flow::{Op, CALL_PATTERNS};
use crate::scan::Finding;
use crate::taint::find_sources;
use crate::workspace::{SourceFile, Workspace};

/// Runs the four direct rules over every shipped file of the workspace.
pub fn direct_pass(ws: &Workspace) -> Vec<Finding> {
    ws.crates.iter().flat_map(|c| &c.files).flat_map(direct_findings).collect()
}

/// One file's findings: its wall-clock hits, then its `HashMap`
/// iterations (the order [`find_sources`] yields them in), then its
/// wildcard receives, then its misnamed `async fn`s.
fn direct_findings(file: &SourceFile) -> Vec<Finding> {
    let finding = |rule, line, message| Finding { rule, path: file.rel.clone(), line, message };
    let mut out: Vec<Finding> = find_sources(file)
        .into_iter()
        .filter_map(|(kind, what, line)| match kind {
            "wall-clock" if what == "recv_timeout" => Some(finding(
                "wall-clock",
                line,
                "blocking `.recv_timeout(` — a wall-clock wait; decide a stall in virtual time \
                 instead"
                    .into(),
            )),
            "wall-clock" => Some(finding(
                "wall-clock",
                line,
                format!(
                    "`{what}` in a virtual-time codebase — wall-clock reads break replay \
                     determinism"
                ),
            )),
            "unordered-iter" => Some(finding(
                "hashmap-iter",
                line,
                format!(
                    "iteration over `{what}` (HashMap/HashSet): order is seeded per process — \
                     use BTreeMap/BTreeSet or sort before draining"
                ),
            )),
            _ => None,
        })
        .collect();
    let wildcard =
        |l: &str| CALL_PATTERNS.iter().any(|(pat, op)| *op == Op::RecvAny && l.contains(pat));
    for (ln, _) in file.code.lines().enumerate().filter(|(_, l)| wildcard(l)) {
        out.push(finding(
            "wildcard-recv",
            ln + 1,
            "wildcard receive — the matched sender depends on delivery order; name the source \
             or move this into test code"
                .into(),
        ));
    }
    for (ln, line) in file.code.lines().enumerate() {
        for (at, _) in line.match_indices("async fn ") {
            let name: String =
                line[at + 9..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.ends_with("_async") {
                let message = format!("`async fn {name}` is not named `*_async`");
                out.push(finding("async-name", ln + 1, message));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{strip_noncode, truncate_at_test_module};

    /// The findings of one file whose stripped code is `code`.
    fn lint(code: &str) -> Vec<Finding> {
        direct_findings(&SourceFile { rel: "x.rs".into(), raw: code.into(), code: code.into() })
    }

    #[test]
    fn wall_clock_rule_fires() {
        // Neither line sits inside a `fn`: the rule covers the whole file.
        let f = lint("let t = Instant::now();\nlet y = inbox.recv_timeout(d);\n");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "wall-clock"));
        // A name that merely ends in recv_timeout is not a wall-clock wait.
        assert!(lint("rt.set_recv_timeout(d);\n").is_empty());
    }

    #[test]
    fn hashmap_iter_rule_tracks_bindings() {
        let code = "let mut m: HashMap<u32, u32> = HashMap::new();\n\
                    for k in m.keys() { }\n\
                    let ok: BTreeMap<u32, u32> = BTreeMap::new();\n\
                    for k in ok.keys() { }\n";
        let f = lint(code);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("hashmap-iter", 2));
    }

    #[test]
    fn shipped_code_after_a_test_helper_is_still_linted() {
        let src = "#[cfg(test)]\nfn helper() {}\nfn stamp() { Instant::now(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { Instant::now(); } }\n";
        let f = lint(truncate_at_test_module(&strip_noncode(src)));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("wall-clock", 3));
    }

    #[test]
    fn async_name_rule_fires() {
        let f = lint("pub async fn tsqr_async(p: u8) {}\nasync fn drain(p: u8) {}\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!((f[0].rule, f[0].line), ("async-name", 2));
    }

    #[test]
    fn wildcard_recv_rule_fires() {
        let f = lint(
            "let (s, m) = p.recv_any::<f64>(1)?;\n\
             let (s, m) = p.recv_any_async::<f64>(1).await?;\n\
             let (s, m) = p.recv_any(TAG_W)?;\n\
             let m = p.recv(0, TAG_W)?;\n",
        );
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "wildcard-recv"));
    }
}
