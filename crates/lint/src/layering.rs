//! Pass 1 of `archlint`: workspace layering.
//!
//! `docs/architecture.md` documents the crate map as "layered strictly
//! bottom-up"; this pass makes that sentence machine-checked. The spec
//! lives in `scripts/layering.toml` (a deliberately tiny TOML subset):
//!
//! ```toml
//! [layers]
//! linalg = 0      # layer 0 is the bottom
//! gridmpi = 1
//! ...
//!
//! [deterministic]
//! crates = ["core", "gridmpi", ...]   # consumed by the taint pass
//! ```
//!
//! A crate may depend only on crates in **strictly lower** layers. Both
//! manifest edges (`[dependencies]`/`[dev-dependencies]`) and source
//! edges (`use tsqr_x…` / `tsqr_x::…` paths) are checked; a source edge
//! with no matching manifest edge is an *undeclared* dependency even
//! when the layering would allow it. Spec entries naming crates that no
//! longer exist — and crates missing from the spec — are findings too,
//! so the spec cannot rot.

use std::path::Path;

use crate::scan::Finding;
use crate::workspace::Workspace;

/// The parsed layering spec.
#[derive(Debug, Clone, Default)]
pub struct LayerSpec {
    /// `(short crate name, layer)` pairs, in file order.
    pub layers: Vec<(String, u32)>,
    /// Short names of the crates the taint pass treats as
    /// deterministic (replay-critical).
    pub deterministic: Vec<String>,
    /// Repo-relative path of the spec file (for findings).
    pub rel: String,
}

impl LayerSpec {
    /// Layer of `short`, if declared.
    fn layer_of(&self, short: &str) -> Option<u32> {
        self.layers.iter().find(|(n, _)| n == short).map(|(_, l)| *l)
    }
}

/// Parses `scripts/layering.toml`. Returns the spec plus any parse
/// findings (unparsable lines are findings, not panics).
pub fn load_layer_spec(path: &Path, rel: &str) -> (LayerSpec, Vec<Finding>) {
    let mut spec = LayerSpec { rel: rel.to_string(), ..Default::default() };
    let mut findings = Vec::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        findings.push(Finding {
            rule: "layering",
            path: rel.to_string(),
            line: 0,
            message: "layering spec is missing — archlint needs scripts/layering.toml".into(),
        });
        return (spec, findings);
    };
    #[derive(PartialEq)]
    enum Sec {
        None,
        Layers,
        Deterministic,
    }
    let mut sec = Sec::None;
    for (i, line) in text.lines().enumerate() {
        let t = match line.find('#') {
            Some(h) => line[..h].trim(),
            None => line.trim(),
        };
        if t.is_empty() {
            continue;
        }
        if t.starts_with('[') {
            sec = match t {
                "[layers]" => Sec::Layers,
                "[deterministic]" => Sec::Deterministic,
                _ => {
                    findings.push(Finding {
                        rule: "layering",
                        path: rel.to_string(),
                        line: i + 1,
                        message: format!("unknown section {t} in layering spec"),
                    });
                    Sec::None
                }
            };
            continue;
        }
        let Some((key, value)) = t.split_once('=') else {
            findings.push(Finding {
                rule: "layering",
                path: rel.to_string(),
                line: i + 1,
                message: format!("unparsable spec line `{t}`"),
            });
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match sec {
            Sec::Layers => match value.parse::<u32>() {
                Ok(layer) => spec.layers.push((key.to_string(), layer)),
                Err(_) => findings.push(Finding {
                    rule: "layering",
                    path: rel.to_string(),
                    line: i + 1,
                    message: format!("layer of `{key}` must be an integer, got `{value}`"),
                }),
            },
            Sec::Deterministic if key == "crates" => {
                for name in value.trim_matches(['[', ']']).split(',') {
                    let name = name.trim().trim_matches('"');
                    if !name.is_empty() {
                        spec.deterministic.push(name.to_string());
                    }
                }
            }
            _ => findings.push(Finding {
                rule: "layering",
                path: rel.to_string(),
                line: i + 1,
                message: format!("unexpected key `{key}` outside a known section"),
            }),
        }
    }
    (spec, findings)
}

/// Runs the layering pass: spec↔workspace agreement, manifest edges,
/// and source (`use`) edges.
pub fn layering_pass(ws: &Workspace, spec: &LayerSpec) -> Vec<Finding> {
    let mut out = Vec::new();

    // Spec entries that no longer correspond to real crates.
    for (name, _) in &spec.layers {
        if ws.get(name).is_none() {
            out.push(Finding {
                rule: "layering",
                path: spec.rel.clone(),
                line: 0,
                message: format!(
                    "spec names crate `{name}` but no workspace crate by that short \
                     name exists — delete the entry or restore the crate"
                ),
            });
        }
    }
    for name in &spec.deterministic {
        if ws.get(name).is_none() {
            out.push(Finding {
                rule: "layering",
                path: spec.rel.clone(),
                line: 0,
                message: format!("deterministic list names unknown crate `{name}`"),
            });
        }
    }
    // Crates the spec forgot.
    for c in &ws.crates {
        if spec.layer_of(&c.short).is_none() {
            out.push(Finding {
                rule: "layering",
                path: c.manifest_rel.clone(),
                line: 0,
                message: format!(
                    "crate `{}` is not in the layering spec ({}) — assign it a layer",
                    c.short, spec.rel
                ),
            });
        }
    }

    // Manifest edges must point strictly down.
    for c in &ws.crates {
        let Some(from) = spec.layer_of(&c.short) else { continue };
        for (dep, line) in &c.deps {
            let Some(to) = spec.layer_of(dep) else { continue };
            if to >= from {
                out.push(Finding {
                    rule: "layering",
                    path: c.manifest_rel.clone(),
                    line: *line,
                    message: format!(
                        "crate `{}` (layer {from}) depends on `{dep}` (layer {to}) — \
                         dependency edges must point strictly down the layering",
                        c.short
                    ),
                });
            }
        }
    }

    // Source edges: every `tsqr_x…` / `grid_tsqr…` path in shipped code
    // must be backed by a manifest edge (and the manifest check above
    // then enforces the direction).
    for c in &ws.crates {
        for other in &ws.crates {
            if other.short == c.short {
                continue;
            }
            if c.deps.iter().any(|(d, _)| *d == other.short) {
                continue;
            }
            for f in &c.files {
                if let Some(line) = first_ident_use(&f.code, &other.lib_ident) {
                    out.push(Finding {
                        rule: "layering",
                        path: f.rel.clone(),
                        line,
                        message: format!(
                            "crate `{}` uses `{}` but `{}` is not declared in {} — \
                             undeclared inter-crate edge",
                            c.short, other.lib_ident, other.package, c.manifest_rel
                        ),
                    });
                    break; // one finding per (crate, dep) pair is enough
                }
            }
        }
    }

    out
}

/// First line (1-based) where `ident` occurs as a standalone identifier
/// in `code`, or `None`.
fn first_ident_use(code: &str, ident: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(i) = code[from..].find(ident) {
        let at = from + i;
        from = at + ident.len();
        let before_ok = at == 0 || {
            let c = bytes[at - 1] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        let after_ok = at + ident.len() >= code.len() || {
            let c = bytes[at + ident.len()] as char;
            !(c.is_alphanumeric() || c == '_')
        };
        if before_ok && after_ok {
            return Some(code[..at].bytes().filter(|&b| b == b'\n').count() + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{SourceFile, WorkspaceCrate};

    fn mini_ws() -> Workspace {
        let mk = |short: &str, deps: Vec<&str>, code: &str| WorkspaceCrate {
            short: short.into(),
            package: format!("tsqr-{short}"),
            lib_ident: format!("tsqr_{short}"),
            manifest_rel: format!("crates/{short}/Cargo.toml"),
            deps: deps.into_iter().map(|d| (d.to_string(), 9)).collect(),
            files: vec![SourceFile {
                rel: format!("crates/{short}/src/lib.rs"),
                raw: code.into(),
                code: code.into(),
            }],
        };
        Workspace {
            crates: vec![
                mk("alpha", vec![], "pub fn a() {}\n"),
                mk("beta", vec!["alpha"], "use tsqr_alpha::a;\npub fn b() { a() }\n"),
            ],
        }
    }

    fn mini_spec() -> LayerSpec {
        LayerSpec {
            layers: vec![("alpha".into(), 0), ("beta".into(), 1)],
            deterministic: vec!["alpha".into()],
            rel: "scripts/layering.toml".into(),
        }
    }

    #[test]
    fn clean_workspace_has_no_findings() {
        assert!(layering_pass(&mini_ws(), &mini_spec()).is_empty());
    }

    #[test]
    fn upward_manifest_edge_is_denied() {
        let mut ws = mini_ws();
        ws.crates[0].deps.push(("beta".into(), 12)); // alpha (0) → beta (1)
        let f = layering_pass(&ws, &mini_spec());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("strictly down"));
        assert_eq!(f[0].line, 12);
    }

    #[test]
    fn undeclared_source_edge_is_denied() {
        let mut ws = mini_ws();
        ws.crates[0].files[0].code = "pub fn a() { tsqr_beta::b() }\n".into();
        let f = layering_pass(&ws, &mini_spec());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("undeclared"));
    }

    #[test]
    fn spec_drift_is_flagged_both_ways() {
        let mut spec = mini_spec();
        spec.layers.push(("ghost".into(), 3));
        let mut ws = mini_ws();
        ws.crates.push(WorkspaceCrate {
            short: "newcomer".into(),
            package: "tsqr-newcomer".into(),
            lib_ident: "tsqr_newcomer".into(),
            manifest_rel: "crates/newcomer/Cargo.toml".into(),
            deps: vec![],
            files: vec![],
        });
        let f = layering_pass(&ws, &spec);
        assert!(f.iter().any(|x| x.message.contains("ghost")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("newcomer")), "{f:?}");
    }

    #[test]
    fn spec_parser_reads_layers_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("archlint-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("layering.toml");
        std::fs::write(
            &p,
            "# comment\n[layers]\nalpha = 0\nbeta = 1 # inline\n\n[deterministic]\ncrates = [\"alpha\", \"beta\"]\n",
        )
        .unwrap();
        let (spec, findings) = load_layer_spec(&p, "scripts/layering.toml");
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(spec.layer_of("beta"), Some(1));
        assert_eq!(spec.deterministic, vec!["alpha", "beta"]);
        let _ = std::fs::remove_dir_all(dir);
    }
}
