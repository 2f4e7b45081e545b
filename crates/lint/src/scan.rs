//! Source-scanning machinery for `archlint`'s passes.
//!
//! Everything here is deliberately dependency-free and line-level: the
//! workspace builds offline, so the passes are token scanners, not
//! `syn`-based parsers. They are conservative where they must guess.
//!
//! The pipeline every pass shares (steps 1–3 run once, when
//! [`crate::workspace::load_workspace`] loads the sources):
//!
//! 1. `collect_files` walks a directory tree (the workspace keeps its
//!    `.rs` files);
//! 2. `strip_noncode` blanks comments, string literals and char
//!    literals (newlines preserved, so line numbers survive);
//! 3. `truncate_at_test_module` cuts the file at its trailing
//!    `#[cfg(test)]` items (repo convention: unit tests live in one
//!    `mod tests` at the bottom), so only shipped code is linted;
//! 4. findings are filtered through an allowlist
//!    ([`load_allowlist`] / [`partition_findings`]), and allow entries
//!    that no longer suppress anything are themselves reported as
//!    stale ([`stale_allow_findings`]).

use std::fs;
use std::path::{Path, PathBuf};

/// One lint hit, rendered as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Short rule name (`wall-clock`, `layering`, `nondet-taint`, …).
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number; 0 when the finding is file- or spec-level.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the shared `path:line: [rule] message`
    /// format used by every pass.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// One allowlist entry: suppresses `rule` findings in paths containing
/// `path_part`.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Rule name the entry suppresses.
    pub rule: String,
    /// Path substring the entry applies to.
    pub path_part: String,
    /// 1-based line in the allow file (for stale-entry reporting).
    pub line: usize,
}

impl Allow {
    /// True when this entry suppresses the finding.
    pub(crate) fn matches(&self, f: &Finding) -> bool {
        f.rule == self.rule && f.path.contains(&self.path_part)
    }
}

/// Loads `rule path-substring` allow entries, skipping blanks and `#`
/// comments. A missing file is an empty allowlist.
pub fn load_allowlist(path: &Path) -> Vec<Allow> {
    let Ok(text) = fs::read_to_string(path) else { return Vec::new() };
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|(line, l)| {
            let mut it = l.split_whitespace();
            Some(Allow { rule: it.next()?.to_string(), path_part: it.next()?.to_string(), line })
        })
        .collect()
}

/// Splits findings into `(kept, suppressed)` under the allowlist.
pub fn partition_findings(findings: Vec<Finding>, allow: &[Allow]) -> (Vec<Finding>, Vec<Finding>) {
    findings.into_iter().partition(|f| !allow.iter().any(|a| a.matches(f)))
}

/// One `stale-allow` finding per allowlist entry that suppressed zero
/// findings. Dead exceptions rot silently otherwise: the hazard they
/// documented is gone (or the path moved), but the hole in the gate
/// stays open. `allow_file` is the repo-relative path reported.
pub fn stale_allow_findings(
    allow: &[Allow],
    suppressed: &[Finding],
    allow_file: &str,
) -> Vec<Finding> {
    allow
        .iter()
        .filter(|a| !suppressed.iter().any(|f| a.matches(f)))
        .map(|a| Finding {
            rule: "stale-allow",
            path: allow_file.to_string(),
            line: a.line,
            message: format!(
                "allow entry `{} {}` suppresses zero findings — the exception is \
                 dead; delete it (or fix the path substring)",
                a.rule, a.path_part
            ),
        })
        .collect()
}

/// Collects `path` if it is a file, else every file under it (skipping
/// any `target` directory). A missing path is silently empty.
pub(crate) fn collect_files(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(path) else {
        if path.is_file() {
            out.push(path.to_path_buf());
        }
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.file_name().is_none_or(|n| n != "target") {
            collect_files(&p, out);
        }
    }
}

/// True for paths the lints skip: integration tests, benches and
/// examples are not shipped runtime code.
pub(crate) fn is_nonshipped(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/benches/") || rel.contains("/examples/")
}

/// Replaces comments, string literals and char literals with spaces
/// (newlines preserved, so line numbers survive).
pub(crate) fn strip_noncode(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Raw string r"…" / r#"…"# / r##"…"## …
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '"' {
                    st = St::Str;
                    out.push(' ');
                    i += 1;
                } else if c == '\'' {
                    // Lifetime or char literal?
                    let is_char = match next {
                        Some('\\') => true,
                        Some(_) => b.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        st = St::Char;
                        out.push(' ');
                        i += 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // An escaped newline (a string continuation) stays a newline.
                    out.push(' ');
                    out.push(if next == Some('\n') { '\n' } else { ' ' });
                    i += 2;
                } else if c == '"' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut n = 0;
                    while n < hashes && b.get(j) == Some(&'#') {
                        n += 1;
                        j += 1;
                    }
                    if n == hashes {
                        st = St::Code;
                        for _ in i..j {
                            out.push(' ');
                        }
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out
}

/// Cuts the file where its trailing run of top-level `#[cfg(test)]` items
/// starts (repo convention: unit tests live at the bottom). A test item
/// that shipped code follows does not cut, so that code is still linted.
pub(crate) fn truncate_at_test_module(code: &str) -> &str {
    let (mut cut, mut test_item, mut depth, mut in_item) = (None, None, 0usize, false);
    for (i, c) in code.char_indices() {
        if depth == 0 && !in_item {
            if code[i..].starts_with("#[cfg(test)]") {
                test_item = test_item.or(Some(i));
            } else if c.is_alphabetic() || c == '_' {
                in_item = true;
                cut = test_item.and(cut.or(test_item));
            }
        }
        match c {
            '{' | '(' | '[' => depth += 1,
            ')' | ']' => depth = depth.saturating_sub(1),
            '}' | ';' => {
                depth = depth.saturating_sub(usize::from(c == '}'));
                if depth == 0 {
                    (in_item, test_item) = (false, None);
                }
            }
            _ => {}
        }
    }
    cut.map_or(code, |i| &code[..i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_preserves_lines_and_drops_strings() {
        let src = "let a = \"Instant::now \\\n now\"; // Instant::now\nlet b = 1;\n";
        let s = strip_noncode(src);
        assert_eq!(s.lines().count(), src.lines().count());
        assert!(!s.contains("Instant::now"));
        assert!(s.contains("let b = 1;"));
    }

    #[test]
    fn stripper_handles_raw_strings_and_chars() {
        let src = "let r = r#\"HashMap \"quoted\" inside\"#; let c = '\\n'; let l: &'static str;";
        let s = strip_noncode(src);
        assert!(!s.contains("HashMap"));
        assert!(s.contains("&'static str"));
    }

    #[test]
    fn truncates_at_test_module() {
        let code = "fn a() {}\n#[cfg(test)]\nmod tests { Instant::now; }\n";
        assert!(!truncate_at_test_module(code).contains("Instant"));
    }

    #[test]
    fn stale_allow_detects_dead_entries() {
        let allow = vec![
            Allow { rule: "wall-clock".into(), path_part: "proc.rs".into(), line: 3 },
            Allow { rule: "wall-clock".into(), path_part: "gone.rs".into(), line: 7 },
        ];
        let suppressed = vec![Finding {
            rule: "wall-clock",
            path: "crates/x/src/proc.rs".into(),
            line: 1,
            message: String::new(),
        }];
        let stale = stale_allow_findings(&allow, &suppressed, "scripts/x.allow");
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].line, 7);
        assert!(stale[0].message.contains("gone.rs"));
    }
}
