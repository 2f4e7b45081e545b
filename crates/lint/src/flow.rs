//! Pass 3 of `archlint`: the static message-flow model.
//!
//! Communication-optimal TSQR's correctness argument is a *protocol*
//! argument — a fixed tag/pairing discipline per reduction step. The
//! dynamic side (happens-before gate, DPOR-lite explorer) checks the
//! schedules we replay; this pass checks **all code paths**: it
//! extracts every `send`/`recv`/`recv_any`/`exchange` call site (the
//! blocking form or the awaited `*_async` body — one site either way) with
//! its tag constant into a per-file message-flow table, verifies
//! send/recv pairing and tag-range ownership against
//! `scripts/commlint.protocol`, and renders the table as a pinned
//! golden artifact (`scripts/archlint.model`, regenerate with
//! `archlint --bless`) so protocol drift shows up as a diff in review,
//! not a deadlock in replay.

use crate::protocol::{parse_value, Protocol};
use crate::scan::Finding;
use crate::workspace::Workspace;

/// Communication operations the model distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Op {
    /// Point-to-point send (a send-side use).
    Send,
    /// Named-source receive (a recv-side use).
    Recv,
    /// Wildcard receive (a recv-side use; its spellings are also the
    /// direct pass's `wildcard-recv` rule).
    RecvAny,
    /// Paired exchange — counts on both sides.
    Exchange,
}

/// One row of the extracted model: a `(file, tag)` pair with its
/// declared value and static call-site counts.
#[derive(Debug, Clone, Default)]
pub struct FlowRow {
    /// Declared constant value (normalized), if the file declares it.
    pub value: Option<String>,
    /// Call-site counts per op: `[send, recv, recv_any, exchange]`.
    pub counts: [usize; 4],
}

/// The extracted workspace model: `(file, tag) → row`, ordered.
type FlowTable = std::collections::BTreeMap<(String, String), FlowRow>;

/// `const TAG_*` declarations in one stripped file:
/// `(name, normalized value, line)`.
fn extract_tag_decls(code: &str) -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for (ln, line) in code.lines().enumerate() {
        let Some(ci) = line.find("const TAG_") else { continue };
        let decl = &line[ci + 6..];
        let name: String = decl.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        let Some(eq) = decl.find('=') else { continue };
        let value =
            crate::protocol::normalize_value(decl[eq + 1..].trim().trim_end_matches(';').trim());
        out.push((name, value, ln + 1));
    }
    out
}

/// Every spelling of a communication call the model counts: the blocking
/// name, its turbofish, and the awaited `*_async` body with and without
/// one.
pub(crate) const CALL_PATTERNS: [(&str, Op); 13] = [
    (".send(", Op::Send),
    (".recv(", Op::Recv),
    (".recv::<", Op::Recv),
    (".recv_async(", Op::Recv),
    (".recv_async::<", Op::Recv),
    (".recv_any(", Op::RecvAny),
    (".recv_any::<", Op::RecvAny),
    (".recv_any_async(", Op::RecvAny),
    (".recv_any_async::<", Op::RecvAny),
    (".exchange(", Op::Exchange),
    (".exchange::<", Op::Exchange),
    (".exchange_async(", Op::Exchange),
    (".exchange_async::<", Op::Exchange),
];

/// Extracts `(op, tag, line)` call sites from one stripped file. The
/// tag is any `TAG_*` identifier inside the call's balanced argument
/// list (calls passing a computed tag variable carry no row — the
/// declaration check still covers their constants).
fn extract_call_sites(code: &str) -> Vec<(Op, String, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (pat, op) in CALL_PATTERNS {
        let mut from = 0;
        while let Some(i) = code[from..].find(pat) {
            let at = from + i;
            from = at + pat.len();
            // Find the argument list. For plain patterns the `(` is the
            // pattern's last byte; for turbofish forms the balanced
            // `<…>` block (which may itself contain parens, e.g.
            // `recv::<Vec<(usize, M)>>`) must be skipped first.
            let open = if pat.ends_with('(') {
                at + pat.len() - 1
            } else {
                let mut angle = 0i32;
                let mut k = at + pat.len() - 1; // the `<` of `::<`
                loop {
                    match bytes.get(k) {
                        Some(b'<') => angle += 1,
                        Some(b'>') => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        Some(b';') | Some(b'{') | None => break,
                        _ => {}
                    }
                    k += 1;
                }
                if angle != 0 || bytes.get(k + 1) != Some(&b'(') {
                    continue;
                }
                k + 1
            };
            let mut depth = 0i32;
            let mut end = open;
            for (j, b) in bytes[open..].iter().enumerate() {
                match b {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = open + j;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = &code[open..end];
            let line = 1 + code[..at].bytes().filter(|&b| b == b'\n').count();
            // Dynamic-tag sites (no TAG_ literal in the argument list)
            // carry no row; the pairing check only constrains declared
            // tags.
            let mut a = 0;
            while let Some(t) = args[a..].find("TAG_") {
                let ts = a + t;
                let before_ok = ts == 0 || {
                    let c = args.as_bytes()[ts - 1] as char;
                    !(c.is_alphanumeric() || c == '_')
                };
                let name: String =
                    args[ts..].chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                a = ts + name.len().max(4);
                if before_ok && name.len() > 4 {
                    out.push((op, name, line));
                }
            }
        }
    }
    out.sort_by(|a, b| (a.2, a.0, &a.1).cmp(&(b.2, b.0, &b.1)));
    out
}

/// Builds the message-flow table for the whole workspace.
pub fn build_flow_table(ws: &Workspace) -> FlowTable {
    let mut table = FlowTable::new();
    for c in &ws.crates {
        for f in &c.files {
            for (name, value, _) in extract_tag_decls(&f.code) {
                table.entry((f.rel.clone(), name)).or_default().value.get_or_insert(value);
            }
            for (op, tag, _) in extract_call_sites(&f.code) {
                table.entry((f.rel.clone(), tag)).or_default().counts[op as usize] += 1;
            }
        }
    }
    table
}

/// Renders the model artifact — one deterministic line per row.
pub fn render_model(table: &FlowTable) -> String {
    let mut out = String::from(
        "# archlint message-flow model v1 — extracted send/recv/exchange call\n\
         # sites per (file, tag). Pinned golden: regenerate with `archlint\n\
         # --bless` after an intentional protocol change; any other diff is\n\
         # protocol drift. Format:\n\
         #   <file> <tag>=<declared value|?> send=N recv=N recv_any=N exchange=N\n",
    );
    for ((file, tag), row) in table {
        out.push_str(&format!(
            "{file} {tag}={} send={} recv={} recv_any={} exchange={}\n",
            row.value.as_deref().unwrap_or("?"),
            row.counts[0],
            row.counts[1],
            row.counts[2],
            row.counts[3],
        ));
    }
    out
}

/// Runs the protocol checks: declaration agreement, static send/recv
/// pairing, tag-range ownership, and golden-model comparison.
///
/// `golden` is the committed `scripts/archlint.model` contents (`None`
/// when the file is missing); `model_rel` its repo-relative path.
pub fn flow_pass(
    ws: &Workspace,
    proto: &Protocol,
    table: &FlowTable,
    golden: Option<&str>,
    model_rel: &str,
    protocol_rel: &str,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let all_files: Vec<&str> =
        ws.crates.iter().flat_map(|c| c.files.iter().map(|f| f.rel.as_str())).collect();

    // Declaration agreement: the table against the extracted
    // declarations and call sites.
    for pf in &proto.files {
        if !all_files.contains(&pf.path.as_str()) {
            out.push(Finding {
                rule: "tag-protocol",
                path: pf.path.clone(),
                line: 0,
                message: "file listed in the protocol table does not exist".into(),
            });
            continue;
        }
        for (tag, want) in &pf.tags {
            let row = table.get(&(pf.path.clone(), tag.clone()));
            match row.and_then(|r| r.value.as_ref()) {
                None => out.push(Finding {
                    rule: "tag-protocol",
                    path: pf.path.clone(),
                    line: 0,
                    message: format!("tag `{tag}` is in the protocol table but not declared here"),
                }),
                Some(got) if got != want => out.push(Finding {
                    rule: "tag-protocol",
                    path: pf.path.clone(),
                    line: 0,
                    message: format!("tag `{tag}` = {got} but the protocol table says {want}"),
                }),
                Some(_) => {}
            }
            // Static pairing over extracted call sites.
            if let Some(row) = row {
                let sends = row.counts[Op::Send as usize] + row.counts[Op::Exchange as usize];
                let recvs = row.counts[Op::Recv as usize]
                    + row.counts[Op::RecvAny as usize]
                    + row.counts[Op::Exchange as usize];
                if sends == 0 || recvs == 0 {
                    let mut sides = Vec::new();
                    if sends == 0 {
                        sides.push("no send-side call site");
                    }
                    if recvs == 0 {
                        sides.push("no recv-side call site");
                    }
                    out.push(Finding {
                        rule: "protocol-flow",
                        path: pf.path.clone(),
                        line: 0,
                        message: format!(
                            "tag `{tag}` is unpaired in the extracted message flow: {} — \
                             a one-sided tag is a deadlock or dead code",
                            sides.join(", ")
                        ),
                    });
                }
            }
        }
    }

    // Declared TAG_ constants missing from the table.
    for ((file, tag), row) in table {
        if row.value.is_some()
            && !proto
                .files
                .iter()
                .any(|pf| pf.path == *file && pf.tags.iter().any(|(t, _)| t == tag))
        {
            out.push(Finding {
                rule: "tag-protocol",
                path: file.clone(),
                line: 0,
                message: format!(
                    "tag `{tag}` is not in {protocol_rel} — declare it there (and give \
                     its module a range)"
                ),
            });
        }
    }

    // Range ownership.
    for (i, a) in proto.ranges.iter().enumerate() {
        for b in proto.ranges.iter().skip(i + 1) {
            if a.lo <= b.hi && b.lo <= a.hi {
                out.push(Finding {
                    rule: "protocol-range",
                    path: protocol_rel.to_string(),
                    line: b.line,
                    message: format!(
                        "range `{}` [{}, {}] overlaps range `{}` [{}, {}]",
                        b.name, b.lo, b.hi, a.name, a.lo, a.hi
                    ),
                });
            }
        }
    }
    if !proto.ranges.is_empty() {
        for ((file, tag), row) in table {
            let Some(value) = row.value.as_ref().and_then(|v| parse_value(v)) else { continue };
            match proto.ranges.iter().find(|r| r.lo <= value && value <= r.hi) {
                None => out.push(Finding {
                    rule: "protocol-range",
                    path: file.clone(),
                    line: 0,
                    message: format!(
                        "tag `{tag}` = {value} falls in no declared range — add a \
                         `range` line to {protocol_rel}"
                    ),
                }),
                Some(r) if !r.owners.iter().any(|o| o == file) => out.push(Finding {
                    rule: "protocol-range",
                    path: file.clone(),
                    line: 0,
                    message: format!(
                        "tag `{tag}` = {value} lies in range `{}` [{}, {}] owned by {} — \
                         this file is not an owner",
                        r.name,
                        r.lo,
                        r.hi,
                        r.owners.join(", ")
                    ),
                }),
                Some(_) => {}
            }
        }
    }

    // Golden-model comparison (byte-exact).
    let rendered = render_model(table);
    match golden {
        None => out.push(Finding {
            rule: "protocol-model",
            path: model_rel.to_string(),
            line: 0,
            message: "model golden is missing — run `archlint --bless` and commit it".into(),
        }),
        Some(g) if g != rendered => {
            let drift = g
                .lines()
                .zip(rendered.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| format!("first drift at line {}: `{a}` -> `{b}`", i + 1))
                .unwrap_or_else(|| "line count changed".to_string());
            out.push(Finding {
                rule: "protocol-model",
                path: model_rel.to_string(),
                line: 0,
                message: format!(
                    "extracted message-flow model drifted from the committed golden \
                     ({drift}) — review the protocol change, then `archlint --bless`"
                ),
            });
        }
        Some(_) => {}
    }

    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ProtocolFile, TagRange};
    use crate::workspace::{SourceFile, WorkspaceCrate};

    fn ws_one(code: &str) -> Workspace {
        Workspace {
            crates: vec![WorkspaceCrate {
                short: "core".into(),
                package: "tsqr-core".into(),
                lib_ident: "tsqr_core".into(),
                manifest_rel: "crates/core/Cargo.toml".into(),
                deps: vec![],
                files: vec![SourceFile {
                    rel: "crates/core/src/x.rs".into(),
                    raw: code.into(),
                    code: code.into(),
                }],
            }],
        }
    }

    fn proto_one(tags: Vec<(&str, &str)>, ranges: Vec<TagRange>) -> Protocol {
        Protocol {
            files: vec![ProtocolFile {
                path: "crates/core/src/x.rs".into(),
                tags: tags.into_iter().map(|(t, v)| (t.to_string(), v.to_string())).collect(),
            }],
            ranges,
        }
    }

    const PAIRED: &str = "const TAG_A: u32 = 1001;\n\
        fn f(p: &mut P) {\n    p.send(1, TAG_A, &x);\n    let y: f64 = p.recv(0, TAG_A);\n}\n";

    #[test]
    fn call_sites_extract_ops_and_tags() {
        let sites = extract_call_sites(
            "p.send(1, TAG_A, &x);\nlet y = p.recv::<f64>(0, TAG_A);\nlet z = q.exchange(r, TAG_B, &w);\n",
        );
        assert_eq!(sites.len(), 3, "{sites:?}");
        assert_eq!(sites[0], (Op::Send, "TAG_A".into(), 1));
        assert_eq!(sites[1], (Op::Recv, "TAG_A".into(), 2));
        assert_eq!(sites[2], (Op::Exchange, "TAG_B".into(), 3));
    }

    #[test]
    fn awaited_call_sites_are_the_sites_they_are() {
        // A rank program that yields awaits the `*_async` bodies; each is
        // one recv / recv_any / exchange site, as its blocking form is.
        let sites = extract_call_sites(
            "let f = r1.tpqrt(p.recv_async(roots[d], TAG_R).await?);
             let e = p.recv_async::<Vec<(usize, M)>>(parent, TAG_E).await?;
             let (s, m) = p.recv_any_async::<f64>(TAG_W).await?;
             let got = p.exchange_async(partner, TAG_X, val.clone()).await?;
",
        );
        assert_eq!(
            sites,
            vec![
                (Op::Recv, "TAG_R".into(), 1),
                (Op::Recv, "TAG_E".into(), 2),
                (Op::RecvAny, "TAG_W".into(), 3),
                (Op::Exchange, "TAG_X".into(), 4),
            ]
        );
    }

    #[test]
    fn paired_tag_in_range_is_clean() {
        let ws = ws_one(PAIRED);
        let table = build_flow_table(&ws);
        let proto = proto_one(
            vec![("TAG_A", "1001")],
            vec![TagRange {
                name: "alg".into(),
                lo: 1000,
                hi: 1099,
                owners: vec!["crates/core/src/x.rs".into()],
                line: 1,
            }],
        );
        let golden = render_model(&table);
        let f = flow_pass(
            &ws,
            &proto,
            &table,
            Some(&golden),
            "scripts/archlint.model",
            "scripts/commlint.protocol",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unpaired_tag_is_flagged() {
        let code = "const TAG_A: u32 = 1001;\nfn f(p: &mut P) {\n    p.send(1, TAG_A, &x);\n}\n";
        let ws = ws_one(code);
        let table = build_flow_table(&ws);
        let proto = proto_one(vec![("TAG_A", "1001")], vec![]);
        let golden = render_model(&table);
        let f = flow_pass(&ws, &proto, &table, Some(&golden), "m", "p");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "protocol-flow");
        assert!(f[0].message.contains("no recv-side"));
    }

    #[test]
    fn range_ownership_is_enforced() {
        let ws = ws_one(PAIRED);
        let table = build_flow_table(&ws);
        let proto = proto_one(
            vec![("TAG_A", "1001")],
            vec![TagRange {
                name: "other".into(),
                lo: 1000,
                hi: 1099,
                owners: vec!["crates/other/src/y.rs".into()],
                line: 1,
            }],
        );
        let golden = render_model(&table);
        let f = flow_pass(&ws, &proto, &table, Some(&golden), "m", "p");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "protocol-range");
        assert!(f[0].message.contains("not an owner"));
    }

    #[test]
    fn model_drift_is_flagged() {
        let ws = ws_one(PAIRED);
        let table = build_flow_table(&ws);
        let proto = proto_one(vec![("TAG_A", "1001")], vec![]);
        let f = flow_pass(&ws, &proto, &table, Some("stale golden\n"), "m", "p");
        assert!(f.iter().any(|x| x.rule == "protocol-model"), "{f:?}");
        let f2 = flow_pass(&ws, &proto, &table, None, "m", "p");
        assert!(f2.iter().any(|x| x.message.contains("--bless")), "{f2:?}");
    }

    #[test]
    fn overlapping_ranges_are_flagged() {
        let ws = ws_one(PAIRED);
        let table = build_flow_table(&ws);
        let mk = |name: &str, lo, hi, line| TagRange {
            name: name.into(),
            lo,
            hi,
            owners: vec!["crates/core/src/x.rs".into()],
            line,
        };
        let proto = proto_one(
            vec![("TAG_A", "1001")],
            vec![mk("a", 1000, 1099, 1), mk("b", 1050, 1200, 2)],
        );
        let golden = render_model(&table);
        let f = flow_pass(&ws, &proto, &table, Some(&golden), "m", "p");
        assert!(f.iter().any(|x| x.message.contains("overlaps")), "{f:?}");
    }
}
