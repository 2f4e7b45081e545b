//! Loader for `scripts/commlint.protocol` — the single source of truth
//! for message tags, read by `archlint`'s message-flow pass
//! ([`crate::flow`]).
//!
//! Two line forms (blanks and `#` comments skipped):
//!
//! ```text
//! <file-path> <TAG_NAME> <value>            # one declared tag
//! range <name> <lo> <hi> <owner-file>...    # tag-range ownership
//! ```
//!
//! Values are compared after stripping `_` and lowercasing, so
//! `0xFFFF_0001` matches `0xffff0001`. A `range` line declares that tag
//! values in `[lo, hi]` belong to the named module and may only be
//! declared in the listed owner files; ranges must not overlap.

use std::path::Path;

/// Declared tags of one file.
#[derive(Debug, Clone)]
pub struct ProtocolFile {
    /// Repo-relative file path.
    pub path: String,
    /// `(tag name, normalized value)` pairs.
    pub tags: Vec<(String, String)>,
}

/// One tag-range ownership declaration.
#[derive(Debug, Clone)]
pub struct TagRange {
    /// Module label (documentation only).
    pub name: String,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Files allowed to declare tags in this range.
    pub owners: Vec<String>,
    /// 1-based line in the protocol file.
    pub line: usize,
}

/// The parsed protocol table.
#[derive(Debug, Clone, Default)]
pub struct Protocol {
    /// Per-file declared tags.
    pub files: Vec<ProtocolFile>,
    /// Declared tag ranges (empty on legacy tables).
    pub ranges: Vec<TagRange>,
}

/// Normalizes a tag value for comparison: strip `_`, lowercase.
pub(crate) fn normalize_value(v: &str) -> String {
    v.chars().filter(|c| *c != '_').collect::<String>().to_lowercase()
}

/// Parses a normalized value (`0x…` hex or decimal) to a number.
pub(crate) fn parse_value(v: &str) -> Option<u64> {
    let v = normalize_value(v);
    if let Some(hex) = v.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}

/// Loads the protocol table. A missing file is an empty table.
pub fn load_protocol(path: &Path) -> Protocol {
    let Ok(text) = std::fs::read_to_string(path) else { return Protocol::default() };
    let mut out = Protocol::default();
    for (i, l) in text.lines().enumerate() {
        let l = l.trim();
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let mut it = l.split_whitespace();
        let Some(first) = it.next() else { continue };
        if first == "range" {
            let (Some(name), Some(lo), Some(hi)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            let (Some(lo), Some(hi)) = (parse_value(lo), parse_value(hi)) else { continue };
            out.ranges.push(TagRange {
                name: name.to_string(),
                lo,
                hi,
                owners: it.map(str::to_string).collect(),
                line: i + 1,
            });
            continue;
        }
        let (Some(tag), Some(value)) = (it.next(), it.next()) else { continue };
        let value = normalize_value(value);
        match out.files.iter_mut().find(|p| p.path == first) {
            Some(p) => p.tags.push((tag.to_string(), value)),
            None => out.files.push(ProtocolFile {
                path: first.to_string(),
                tags: vec![(tag.to_string(), value)],
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tags_and_ranges() {
        let dir = std::env::temp_dir().join(format!("archlint-proto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("p.protocol");
        std::fs::write(
            &p,
            "# header\nx.rs TAG_A 0xFFFF_0001\nx.rs TAG_B 7\nrange coll 0xFFFF_0000 0xFFFF_FFFF x.rs\nrange alg 1 99 x.rs y.rs\n",
        )
        .unwrap();
        let proto = load_protocol(&p);
        assert_eq!(proto.files.len(), 1);
        assert_eq!(proto.files[0].tags[0], ("TAG_A".to_string(), "0xffff0001".to_string()));
        assert_eq!(proto.ranges.len(), 2);
        assert_eq!(proto.ranges[0].lo, 0xFFFF_0000);
        assert_eq!(proto.ranges[1].owners, vec!["x.rs", "y.rs"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn value_parsing_handles_hex_and_decimal() {
        assert_eq!(parse_value("0xFFFF_0001"), Some(0xFFFF_0001));
        assert_eq!(parse_value("1001"), Some(1001));
        assert_eq!(parse_value("nope"), None);
    }
}
