//! `archlint` — the workspace's static analyzer (see
//! `docs/static-analysis.md`).
//!
//! Five passes over one load of the workspace, each rendering findings
//! as `path:line: [rule] message` and filtered through one allowlist
//! (`scripts/archlint.allow`, stale entries denied):
//!
//! 0. **direct** — wall-clock reads, `HashMap` iteration and wildcard
//!    receives, on the line that writes them;
//! 1. **layering** — the inter-crate dependency graph (manifest edges
//!    plus `use` edges) against `scripts/layering.toml`;
//! 2. **nondet-taint** — taint propagation from nondeterminism sources
//!    through the call graph into the deterministic crates;
//! 3. **protocol** — the static message-flow model: send/recv pairing
//!    and tag-range ownership against `scripts/commlint.protocol`,
//!    with the extracted model pinned as `scripts/archlint.model`
//!    (`--bless` regenerates it after an intentional change);
//! 4. **owners** — one owner per decision: each row of
//!    `scripts/archlint.owners` bounds the lines that hold a literal
//!    needle in a scope, and a row whose scope matches no file is stale.
//!
//! Exit code is nonzero on any kept finding, so the tool gates
//! `scripts/verify.sh` and CI at zero findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use tsqr_lint::direct::direct_pass;
use tsqr_lint::flow::{build_flow_table, flow_pass, render_model};
use tsqr_lint::layering::{layering_pass, load_layer_spec};
use tsqr_lint::owners::{load_files, owners_pass, parse_owners, OWNERS_REL};
use tsqr_lint::protocol::load_protocol;
use tsqr_lint::scan::{load_allowlist, partition_findings, stale_allow_findings};
use tsqr_lint::taint::taint_pass;
use tsqr_lint::workspace::load_workspace;

const ALLOW_REL: &str = "scripts/archlint.allow";
const SPEC_REL: &str = "scripts/layering.toml";
const PROTOCOL_REL: &str = "scripts/commlint.protocol";
const MODEL_REL: &str = "scripts/archlint.model";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut verbose = false;
    let mut bless = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().expect("--root needs a value")),
            "--bless" => bless = true,
            "-v" | "--verbose" => verbose = true,
            "--help" | "-h" => {
                println!("usage: archlint [--root DIR] [--bless] [-v]");
                println!("  direct, layering, nondeterminism-taint, protocol and owners passes;");
                println!("  --bless regenerates {MODEL_REL}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("archlint: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let ws = load_workspace(&root);
    if ws.crates.is_empty() {
        eprintln!("archlint: no workspace crates under {} — wrong --root?", root.display());
        return ExitCode::FAILURE;
    }
    if verbose {
        for c in &ws.crates {
            eprintln!(
                "archlint: crate {} ({} files, deps: {})",
                c.short,
                c.files.len(),
                c.deps.iter().map(|(d, _)| d.as_str()).collect::<Vec<_>>().join(", ")
            );
        }
    }

    let (spec, mut findings) = load_layer_spec(&root.join(SPEC_REL), SPEC_REL);
    findings.extend(direct_pass(&ws));
    findings.extend(layering_pass(&ws, &spec));
    findings.extend(taint_pass(&ws, &spec.deterministic));

    let proto = load_protocol(&root.join(PROTOCOL_REL));
    let table = build_flow_table(&ws);
    if bless {
        let rendered = render_model(&table);
        if let Err(e) = fs::write(root.join(MODEL_REL), &rendered) {
            eprintln!("archlint: cannot write {MODEL_REL}: {e}");
            return ExitCode::FAILURE;
        }
        println!("archlint: blessed {MODEL_REL} ({} rows)", table.len());
    }
    let golden = fs::read_to_string(root.join(MODEL_REL)).ok();
    findings.extend(flow_pass(&ws, &proto, &table, golden.as_deref(), MODEL_REL, PROTOCOL_REL));
    let owners = fs::read_to_string(root.join(OWNERS_REL)).unwrap_or_default();
    let (rows, malformed) = parse_owners(&owners, OWNERS_REL);
    findings.extend(malformed);
    findings.extend(owners_pass(&rows, &load_files(&root, &rows), OWNERS_REL));

    let allow = load_allowlist(&root.join(ALLOW_REL));
    let (mut kept, suppressed) = partition_findings(findings, &allow);
    kept.extend(stale_allow_findings(&allow, &suppressed, ALLOW_REL));

    for f in &kept {
        println!("{}", f.render());
    }
    let files: usize = ws.crates.iter().map(|c| c.files.len()).sum();
    println!(
        "archlint: {} crate(s), {} file(s), {} model row(s); {} finding(s), {} suppressed by allowlist",
        ws.crates.len(),
        files,
        table.len(),
        kept.len(),
        suppressed.len()
    );
    if kept.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
