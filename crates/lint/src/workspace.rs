//! Workspace discovery for `archlint`: which crates exist, what each
//! one's manifest declares, and every shipped source file — stripped
//! and test-truncated, ready for the passes.
//!
//! Crate naming convention: every workspace member lives in
//! `crates/<short>/` as package `tsqr-<short>` (lib ident
//! `tsqr_<short>`); the root package (`grid-tsqr`, the CLI plus the
//! umbrella lib in `src/`) is the pseudo-crate **`bin`**. The layering
//! spec (`scripts/layering.toml`) speaks in short names.

use std::fs;
use std::path::{Path, PathBuf};

use crate::scan::{collect_files, is_nonshipped, strip_noncode, truncate_at_test_module};

/// One source file of a crate (or, for the owners pass, any repo file).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel: String,
    /// Raw file contents (annotations are read from here — comments
    /// survive).
    pub raw: String,
    /// Stripped (comments/strings blanked) and test-truncated code; empty
    /// unless the file is `SourceFile::shipped`.
    pub code: String,
}

impl SourceFile {
    /// Builds the file `rel` holding `raw`.
    pub(crate) fn new(rel: String, raw: String) -> Self {
        let mut f = SourceFile { rel, raw, code: String::new() };
        if f.shipped() {
            f.code = truncate_at_test_module(&strip_noncode(&f.raw)).to_string();
        }
        f
    }

    /// True for a `.rs` file outside `tests/`, `benches/` and `examples/`.
    pub(crate) fn shipped(&self) -> bool {
        self.rel.ends_with(".rs") && !is_nonshipped(&self.rel)
    }
}

/// One workspace crate: manifest facts plus shipped sources.
#[derive(Debug, Clone)]
pub struct WorkspaceCrate {
    /// Short name (`linalg`, `gridmpi`, …, or `bin` for the root).
    pub short: String,
    /// Package name from `Cargo.toml` (`tsqr-linalg`, `grid-tsqr`).
    pub package: String,
    /// The ident other crates `use` (`tsqr_linalg`, `grid_tsqr`).
    pub lib_ident: String,
    /// Repo-relative path of the manifest.
    pub manifest_rel: String,
    /// Workspace dependencies (short names) from `[dependencies]` and
    /// `[dev-dependencies]`, with the manifest line of each edge.
    pub deps: Vec<(String, usize)>,
    /// Shipped sources (src/ only; tests/benches/examples skipped).
    pub files: Vec<SourceFile>,
}

/// The whole workspace as archlint sees it.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All crates, sorted by short name.
    pub crates: Vec<WorkspaceCrate>,
}

impl Workspace {
    /// Looks a crate up by short name.
    pub(crate) fn get(&self, short: &str) -> Option<&WorkspaceCrate> {
        self.crates.iter().find(|c| c.short == short)
    }

    /// Short names of `short`'s workspace dependencies, transitively.
    pub(crate) fn transitive_deps(&self, short: &str) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        let mut stack = vec![short.to_string()];
        while let Some(cur) = stack.pop() {
            if let Some(c) = self.get(&cur) {
                for (d, _) in &c.deps {
                    if !seen.contains(d) {
                        seen.push(d.clone());
                        stack.push(d.clone());
                    }
                }
            }
        }
        seen.sort();
        seen
    }
}

/// Maps a package name to its short name (`tsqr-linalg` → `linalg`,
/// `grid-tsqr` → `bin`).
fn short_name(package: &str) -> String {
    if package == "grid-tsqr" {
        "bin".to_string()
    } else {
        package.strip_prefix("tsqr-").unwrap_or(package).to_string()
    }
}

/// Discovers every workspace crate under `root`: `crates/*/Cargo.toml`
/// plus the root package. Sources are loaded, stripped and truncated.
pub fn load_workspace(root: &Path) -> Workspace {
    let mut crates = Vec::new();
    let mut manifest_dirs: Vec<(PathBuf, String)> = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let dir = e.path();
            if dir.is_dir() && dir.join("Cargo.toml").is_file() {
                let rel = format!(
                    "crates/{}/Cargo.toml",
                    dir.file_name().unwrap_or_default().to_string_lossy()
                );
                manifest_dirs.push((dir, rel));
            }
        }
    }
    if root.join("Cargo.toml").is_file() && root.join("src").is_dir() {
        manifest_dirs.push((root.to_path_buf(), "Cargo.toml".to_string()));
    }
    let known_packages: Vec<String> = manifest_dirs
        .iter()
        .filter_map(|(dir, _)| parse_package_name(&dir.join("Cargo.toml")))
        .collect();

    for (dir, manifest_rel) in manifest_dirs {
        let manifest = dir.join("Cargo.toml");
        let Some(package) = parse_package_name(&manifest) else { continue };
        let short = short_name(&package);
        let lib_ident = package.replace('-', "_");
        let deps = parse_workspace_deps(&manifest, &known_packages);
        let files = load_sources(root, &dir.join("src"));
        crates.push(WorkspaceCrate { short, package, lib_ident, manifest_rel, deps, files });
    }
    crates.sort_by(|a, b| a.short.cmp(&b.short));
    Workspace { crates }
}

/// Extracts `name = "…"` from the `[package]` section of a manifest.
fn parse_package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_package = t == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = t.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Extracts workspace-member dependency edges (short names) from the
/// `[dependencies]` / `[dev-dependencies]` sections. Only packages in
/// `known_packages` count — external crates are not layering edges.
fn parse_workspace_deps(manifest: &Path, known_packages: &[String]) -> Vec<(String, usize)> {
    let Ok(text) = fs::read_to_string(manifest) else { return Vec::new() };
    let mut deps = Vec::new();
    let mut in_deps = false;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            // `[target.'cfg(…)'.dependencies]` would match too; the
            // workspace doesn't use target-specific deps.
            in_deps = t == "[dependencies]" || t == "[dev-dependencies]";
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        let name: String =
            t.chars().take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_').collect();
        if !name.is_empty() && known_packages.contains(&name) {
            let short = short_name(&name);
            if !deps.iter().any(|(d, _)| *d == short) {
                deps.push((short, i + 1));
            }
        }
    }
    deps
}

/// Loads every shipped `.rs` file under `src_dir`, stripped and
/// test-truncated, with repo-relative paths.
fn load_sources(root: &Path, src_dir: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    collect_files(src_dir, &mut paths);
    paths.sort();
    read_files(root, &paths).into_iter().filter(SourceFile::shipped).collect()
}

/// Reads the files at `paths` under `root`.
pub(crate) fn read_files(root: &Path, paths: &[PathBuf]) -> Vec<SourceFile> {
    let rel = |p: &Path| p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/");
    paths
        .iter()
        .map(|p| SourceFile::new(rel(p), fs::read_to_string(p).unwrap_or_default()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_map_packages() {
        assert_eq!(short_name("tsqr-linalg"), "linalg");
        assert_eq!(short_name("grid-tsqr"), "bin");
    }

    #[test]
    fn real_workspace_loads_all_crates() {
        // The lint crate sits at crates/lint — two levels below the
        // workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ws = load_workspace(&root);
        let shorts: Vec<&str> = ws.crates.iter().map(|c| c.short.as_str()).collect();
        for want in
            ["linalg", "netsim", "gridmpi", "qcg", "core", "serve", "obs", "bench", "lint", "bin"]
        {
            assert!(shorts.contains(&want), "missing {want} in {shorts:?}");
        }
        let core = ws.get("core").unwrap();
        assert!(core.deps.iter().any(|(d, _)| d == "gridmpi"), "{:?}", core.deps);
        assert!(!core.files.is_empty());
        // Transitive closure reaches the bottom layer.
        assert!(ws.transitive_deps("serve").contains(&"linalg".to_string()));
    }
}
