//! Pass 4 of `archlint`: one owner per decision. Each row of
//! `scripts/archlint.owners` bounds the lines that hold one of its literal
//! needles in its scope; a violated row prints its reason, which names the
//! owner. Format and views: `docs/static-analysis.md` §8.

use std::path::Path;

use crate::scan::{collect_files, Finding};
use crate::workspace::{read_files, SourceFile};

/// The owners table, repo-relative.
pub const OWNERS_REL: &str = "scripts/archlint.owners";

/// One row: `<bound> <view> <scope> `needle`... [!`except`]... <reason>`.
#[derive(Debug)]
pub struct Row<'t> {
    line: usize,
    bound: &'t str,
    max: usize,
    exact: bool,
    view: &'t str,
    scope: Vec<&'t str>,
    /// `(is_exception, literal)`: a line counts when it holds a needle and no exception.
    literals: Vec<(bool, &'t str)>,
    reason: &'t str,
}

impl<'t> Row<'t> {
    fn parse(line: usize, text: &'t str) -> Option<Self> {
        let mut f = text.splitn(4, ' ');
        let (bound, view, scope, rest) = (f.next()?, f.next()?, f.next()?, f.next()?);
        let (max, exact) = match (bound, bound.strip_prefix("<=")) {
            ("absent", _) => (0, false),
            (_, Some(n)) => (n.parse().ok()?, false),
            _ => (bound.strip_prefix('=')?.parse().ok()?, true),
        };
        let segs: Vec<&str> = rest.split('`').collect();
        let literals: Vec<_> =
            segs.windows(2).step_by(2).map(|p| (p[0].trim() == "!", p[1])).collect();
        let reason = segs[segs.len() - 1].trim();
        let ok =
            segs.len() % 2 == 1 && !reason.is_empty() && literals.is_empty() == (view == "path");
        let scope = scope.split(',').collect();
        let row = Row { line, bound, max, exact, view, scope, literals, reason };
        (ok && ["raw", "shipped", "path"].contains(&view)).then_some(row)
    }

    fn text<'f>(&self, f: &'f SourceFile) -> Option<&'f str> {
        if self.view != "shipped" {
            Some(&f.raw)
        } else {
            f.shipped().then_some(&f.code)
        }
    }

    fn covers(&self, rel: &str) -> bool {
        let hit =
            |exclude| self.scope.iter().any(|e| e.starts_with('!') == exclude && in_entry(e, rel));
        hit(false) && !hit(true)
    }

    fn holds(&self, line: &str) -> bool {
        let has = |except| self.literals.iter().any(|&(x, lit)| x == except && line.contains(lit));
        has(false) && !has(true)
    }
}

/// True when `rel` is `entry` or lies under it, `*` matching within one
/// path component.
fn in_entry(entry: &str, rel: &str) -> bool {
    fn glob(pat: &str, s: &str) -> bool {
        match pat.split_once('*') {
            None => pat == s,
            Some((head, tail)) => s.strip_prefix(head).is_some_and(|rest| {
                (0..=rest.len()).any(|i| rest.is_char_boundary(i) && glob(tail, &rest[i..]))
            }),
        }
    }
    let mut parts = rel.split('/');
    entry.trim_start_matches('!').split('/').all(|pat| parts.next().is_some_and(|p| glob(pat, p)))
}

/// Parses the table at `table`; a malformed row is a finding.
pub fn parse_owners<'t>(text: &'t str, table: &str) -> (Vec<Row<'t>>, Vec<Finding>) {
    let (mut rows, mut bad) = (Vec::new(), Vec::new());
    for (i, l) in text.lines().enumerate().filter(|(_, l)| !l.is_empty() && !l.starts_with('#')) {
        match Row::parse(i + 1, l) {
            Some(row) => rows.push(row),
            None => bad.push(Finding {
                rule: "owners",
                path: table.to_string(),
                line: i + 1,
                message: "malformed row (format: docs/static-analysis.md §8)".to_string(),
            }),
        }
    }
    (rows, bad)
}

/// Reads every file under the paths the rows' scopes name.
pub fn load_files(root: &Path, rows: &[Row]) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    for entry in rows.iter().flat_map(|r| &r.scope) {
        let base: Vec<&str> =
            entry.trim_start_matches('!').split('/').take_while(|c| !c.contains('*')).collect();
        collect_files(&root.join(base.join("/")), &mut paths);
    }
    paths.sort();
    paths.dedup();
    read_files(root, &paths)
}

/// Checks every row against `files`: a violated row is one `owners` finding
/// at its table line, listing its hits, and a scope entry that matches no
/// file the row reads is a `stale-owner` finding, so a renamed file cannot
/// turn a row into a silent pass.
pub fn owners_pass(rows: &[Row], files: &[SourceFile], table: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for row in rows {
        let read: Vec<(&str, &str)> =
            files.iter().filter_map(|f| Some((f.rel.as_str(), row.text(f)?))).collect();
        let mut finding = |rule, message| {
            out.push(Finding { rule, path: table.to_string(), line: row.line, message })
        };
        for e in row.scope.iter().filter(|e| row.view != "path" || e.starts_with('!')) {
            if !read.iter().any(|(rel, _)| in_entry(e, rel)) {
                finding(
                    "stale-owner",
                    format!("scope entry `{e}` matches no file: the row guards nothing"),
                );
            }
        }
        let hits: Vec<String> = read
            .iter()
            .filter(|(rel, _)| row.covers(rel))
            .flat_map(|&(rel, text)| match text {
                _ if row.view == "path" => vec![rel.to_string()],
                _ if !row.literals.iter().any(|&(x, lit)| !x && text.contains(lit)) => Vec::new(),
                _ => text
                    .lines()
                    .enumerate()
                    .filter(|(_, l)| row.holds(l))
                    .map(|(i, _)| format!("{rel}:{}", i + 1))
                    .collect(),
            })
            .collect();
        if hits.len() > row.max || (row.exact && hits.len() != row.max) {
            let (n, bound, reason) = (hits.len(), row.bound, row.reason);
            finding("owners", format!("{n} hit(s), bound {bound} [{}]: {reason}", hits.join(", ")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `files` with `rel` replaced by (or added as) a file holding `raw`.
    fn with(files: &[SourceFile], rel: &str, raw: String) -> Vec<SourceFile> {
        let mut out: Vec<SourceFile> = files.iter().filter(|f| f.rel != rel).cloned().collect();
        out.push(SourceFile::new(rel.to_string(), raw));
        out
    }

    /// Asserts that `row`, and no other row of `rows`, fires on `files`.
    fn fires_alone(rows: &[Row], row: &Row, files: &[SourceFile], what: &str) {
        let f = owners_pass(rows, files, OWNERS_REL);
        assert_eq!(f.len(), 1, "{what}: {f:?}");
        assert_eq!((f[0].rule, f[0].line), ("owners", row.line), "{what}: {f:?}");
        assert!(f[0].message.ends_with(row.reason), "{what}: {f:?}");
    }

    /// `needle` with its open brackets closed, so a line holding it leaves
    /// the file's top-level items, and so its shipped view, as they were.
    fn closed(needle: &str) -> String {
        let mut closers = Vec::new();
        for c in needle.chars() {
            match c {
                '(' => closers.push(')'),
                '[' => closers.push(']'),
                '{' => closers.push('}'),
                ')' | ']' | '}' => drop(closers.pop()),
                _ => {}
            }
        }
        needle.chars().chain(closers.into_iter().rev()).collect()
    }

    #[test]
    fn every_row_of_the_real_table_fires_on_its_copy() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(OWNERS_REL)).expect("the owners table");
        let (rows, malformed) = parse_owners(&text, OWNERS_REL);
        assert!(malformed.is_empty(), "{malformed:?}");
        assert!(rows.len() >= 49, "{} rows", rows.len());
        let files = load_files(&root, &rows);
        assert!(owners_pass(&rows, &files, OWNERS_REL).is_empty());
        for row in &rows {
            let needles: Vec<&str> = row.literals.iter().filter(|l| !l.0).map(|l| l.1).collect();
            if row.view == "path" {
                // Create each forbidden path.
                for e in row.scope.iter().filter(|e| !e.starts_with('!')) {
                    let rel = e.replace('*', "x");
                    fires_alone(&rows, row, &with(&files, &rel, String::new()), &rel);
                }
                continue;
            }
            // One more line holding each needle, on top of a file the row reads.
            let target = files.iter().find(|f| row.covers(&f.rel) && row.text(f).is_some());
            let target = target.unwrap_or_else(|| panic!("row {} reads no file", row.line));
            for needle in &needles {
                let raw = format!("{}\n{}", closed(needle), target.raw);
                fires_alone(&rows, row, &with(&files, &target.rel, raw), needle);
            }
            if row.exact {
                // One occurrence fewer: blank the needle's letters on the first hit.
                let (f, at) = files
                    .iter()
                    .filter(|f| row.covers(&f.rel))
                    .find_map(|f| Some((f, row.text(f)?.lines().position(|l| row.holds(l))?)))
                    .unwrap_or_else(|| panic!("row {} has no hit", row.line));
                let blank = |l: &str| {
                    needles.iter().fold(l.to_string(), |l, n| {
                        l.replace(n, &n.replace(char::is_alphanumeric, "_"))
                    })
                };
                let lines: Vec<String> = f
                    .raw
                    .lines()
                    .enumerate()
                    .map(|(i, l)| if i == at { blank(l) } else { l.to_string() })
                    .collect();
                let what = format!("{} without one hit", row.line);
                fires_alone(&rows, row, &with(&files, &f.rel, lines.join("\n")), &what);
            }
        }
    }

    #[test]
    fn scope_entries_match_paths_and_globs() {
        assert!(in_entry("crates/core/src", "crates/core/src/tree.rs"));
        assert!(!in_entry("crates/core/src", "crates/core/srcx/tree.rs"));
        assert!(in_entry("crates/*/src", "crates/qcg/src/lib.rs"));
        assert!(in_entry("!scripts/*.allow", "scripts/archlint.allow"));
        assert!(in_entry("scripts/*cargo*", "scripts/cargo"));
        assert!(!in_entry("scripts/*cargo*", "scripts/verify.sh"));
    }

    #[test]
    fn malformed_rows_are_findings() {
        let table = "# comment\n=x raw a `n` r\nabsent raw a `n`\nabsent path a `n` r\nabsent raw a `n` r\n";
        let (rows, bad) = parse_owners(table, "t");
        assert_eq!(rows.len(), 1);
        assert_eq!(bad.iter().map(|f| f.line).collect::<Vec<_>>(), [2, 3, 4]);
    }
}
