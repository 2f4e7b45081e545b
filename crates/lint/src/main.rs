//! `commlint` — the static half of commcheck (see
//! `docs/static-analysis.md`).
//!
//! A dependency-free source lint that denies the three ways a rank
//! program (or the runtime under it) can silently become
//! schedule-dependent:
//!
//! * **wall-clock** — `Instant::now`, `SystemTime` and blocking
//!   `.recv_timeout(` calls outside the allowlisted wall-clock safety
//!   net. Virtual-time paths must never read the wall clock.
//! * **hashmap-iter** — iteration (`.iter()`, `.keys()`, `.values()`,
//!   `.drain(…)`, `for … in`) over bindings typed `HashMap`/`HashSet`:
//!   the order is seeded per process, so anything derived from it is
//!   nondeterministic. Use `BTreeMap`/`BTreeSet` or sort before
//!   draining.
//! * **wildcard-recv** — `.recv_any(` / `.recv_any_async(` outside test code: a wildcard
//!   receive makes the matched sender delivery-order-dependent.
//!
//! The scanner strips comments and string literals first and truncates
//! each file at its trailing `#[cfg(test)]` module (repo convention), so
//! only shipped code is linted. Findings are suppressed by
//! `scripts/commlint.allow` lines of the form `rule path-substring`; an
//! allow entry that suppresses nothing is itself a finding
//! (**stale-allow**), so dead exceptions cannot rot silently.
//!
//! This is the line-level lint; `archlint` (same crate) runs the
//! workspace-level passes — crate layering, transitive
//! nondeterminism-taint, and the message-flow model that checks the tag
//! table `scripts/commlint.protocol` (values, undeclared and one-sided
//! tags) against extracted call sites. The shared machinery lives in the
//! `tsqr_lint` library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use tsqr_lint::scan::{
    collect_rs, is_nonshipped, load_allowlist, partition_findings, stale_allow_findings,
    strip_noncode, truncate_at_test_module, Finding,
};

const ALLOW_REL: &str = "scripts/commlint.allow";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut verbose = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().expect("--root needs a value")),
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!("usage: commlint [--root DIR] [-v]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("commlint: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let allow = load_allowlist(&root.join(ALLOW_REL));

    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy().replace('\\', "/");
        if is_nonshipped(&rel) {
            continue;
        }
        let Ok(raw) = std::fs::read_to_string(f) else { continue };
        scanned += 1;
        let code = strip_noncode(&raw);
        let code = truncate_at_test_module(&code);
        if verbose {
            eprintln!("commlint: scanning {rel}");
        }
        lint_wall_clock(&rel, code, &mut findings);
        lint_hashmap_iter(&rel, code, &mut findings);
        lint_wildcard_recv(&rel, code, &mut findings);
    }

    let (mut kept, suppressed) = partition_findings(findings, &allow);
    kept.extend(stale_allow_findings(&allow, &suppressed, ALLOW_REL));

    for f in &kept {
        println!("{}", f.render());
    }
    println!(
        "commlint: {} file(s) scanned, {} finding(s), {} suppressed by allowlist",
        scanned,
        kept.len(),
        suppressed.len()
    );
    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------- rules

const ITER_SUFFIXES: [&str; 7] =
    [".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".into_iter()", ".drain("];

fn lint_wall_clock(path: &str, code: &str, out: &mut Vec<Finding>) {
    for (ln, line) in code.lines().enumerate() {
        for pat in ["Instant::now", "SystemTime"] {
            if line.contains(pat) {
                out.push(Finding {
                    rule: "wall-clock",
                    path: path.to_string(),
                    line: ln + 1,
                    message: format!(
                        "`{pat}` in a virtual-time codebase — wall-clock reads break replay \
                         determinism (allowlist only the simulator safety net)"
                    ),
                });
            }
        }
        if line.contains(".recv_timeout(") {
            out.push(Finding {
                rule: "wall-clock",
                path: path.to_string(),
                line: ln + 1,
                message: "blocking `.recv_timeout(` — wall-clock wait outside the allowlisted \
                          deadlock safety net"
                    .into(),
            });
        }
    }
}

fn lint_hashmap_iter(path: &str, code: &str, out: &mut Vec<Finding>) {
    // Pass 1: names bound to HashMap/HashSet in this file.
    let mut names: Vec<String> = Vec::new();
    for line in code.lines() {
        let mut rest = line;
        while let Some(i) = rest.find("let ") {
            let after = &rest[i + 4..];
            let after = after.strip_prefix("mut ").unwrap_or(after);
            let name: String =
                after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if !name.is_empty()
                && (after[name.len()..].contains("HashMap") || after[name.len()..].contains("HashSet"))
            {
                names.push(name);
            }
            rest = &rest[i + 4..];
        }
    }
    names.sort();
    names.dedup();
    // Pass 2: iteration over a tracked name.
    for (ln, line) in code.lines().enumerate() {
        for name in &names {
            for suf in ITER_SUFFIXES {
                let pat = format!("{name}{suf}");
                if occurs_as_ident_use(line, name, &pat) {
                    out.push(Finding {
                        rule: "hashmap-iter",
                        path: path.to_string(),
                        line: ln + 1,
                        message: format!(
                            "iteration over `{name}` (HashMap/HashSet): order is seeded per \
                             process — use BTreeMap/BTreeSet or sort before draining"
                        ),
                    });
                }
            }
            for pat in [format!("in {name} "), format!("in &{name} "), format!("in &mut {name} ")] {
                let probe = format!("{line} ");
                if probe.contains(&pat) && line.contains("for ") {
                    out.push(Finding {
                        rule: "hashmap-iter",
                        path: path.to_string(),
                        line: ln + 1,
                        message: format!("`for … in {name}` iterates a HashMap/HashSet"),
                    });
                }
            }
        }
    }
}

/// True when `pat` occurs in `line` and the character before the match is
/// not part of a longer identifier (so `sends.iter()` doesn't match the
/// tracked name `ends`).
fn occurs_as_ident_use(line: &str, _name: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let before_ok = at == 0 || {
            let c = line[..at].chars().next_back().unwrap();
            !(c.is_alphanumeric() || c == '_' || c == '.')
        };
        if before_ok {
            return true;
        }
        from = at + pat.len();
    }
    false
}

fn lint_wildcard_recv(path: &str, code: &str, out: &mut Vec<Finding>) {
    for (ln, line) in code.lines().enumerate() {
        if [".recv_any(", ".recv_any::<", ".recv_any_async(", ".recv_any_async::<"]
            .iter()
            .any(|pat| line.contains(pat))
        {
            out.push(Finding {
                rule: "wildcard-recv",
                path: path.to_string(),
                line: ln + 1,
                message: "wildcard receive — the matched sender depends on delivery order; \
                          name the source or move this into test code"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_rule_fires() {
        let mut f = Vec::new();
        lint_wall_clock("x.rs", "let t = Instant::now();\nlet y = inbox.recv_timeout(d);\n", &mut f);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == "wall-clock"));
        // set_recv_timeout is a configuration call, not a wall-clock wait.
        let mut g = Vec::new();
        lint_wall_clock("x.rs", "rt.set_recv_timeout(d);\n", &mut g);
        assert!(g.is_empty());
    }

    #[test]
    fn hashmap_iter_rule_tracks_bindings() {
        let code = "let mut m: HashMap<u32, u32> = HashMap::new();\n\
                    for k in m.keys() { }\n\
                    let ok: BTreeMap<u32, u32> = BTreeMap::new();\n\
                    for k in ok.keys() { }\n";
        let mut f = Vec::new();
        lint_hashmap_iter("x.rs", code, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn wildcard_recv_rule_fires() {
        let mut f = Vec::new();
        lint_wildcard_recv("x.rs", "let (s, m) = p.recv_any::<f64>(1)?;\n", &mut f);
        lint_wildcard_recv("x.rs", "let (s, m) = p.recv_any_async::<f64>(1).await?;\n", &mut f);
        assert_eq!(f.len(), 2);
    }
}
