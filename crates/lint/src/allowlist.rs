//! The frozen-debt allowlist (`lint-allow.json`).
//!
//! Counting-based: each entry permits up to `count` findings of `kind`
//! in `(file, function)`. Existing debt is frozen; anything beyond the
//! recorded count — a *new* `serde_json` call in a handler, one more raw
//! forward — fails the lint. Entries are keyed by function, not line, so
//! unrelated edits don't invalidate the freeze.
//!
//! The format is JSON, parsed by the tiny reader below so this crate
//! stays dependency-free (the lint is part of the tier-1 gate and must
//! build offline).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::Finding;

/// Allowance key: (file, function, kind).
pub type Key = (String, String, String);

/// Finding counts by allowlist section (a [`crate::Rule::section`]) and
/// key.
pub type Sections = BTreeMap<&'static str, BTreeMap<Key, usize>>;

/// Parsed allowlist.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    /// Permitted finding counts. What a `kind` encodes is the rule's
    /// business (`serde_json`, `iforward_raw`, `load:closed`, …): see
    /// [`Finding::kind`] and the rule's module.
    pub sections: Sections,
    /// One-line justifications for allowlist entries, keyed by section
    /// and entry. Written back verbatim by `--write-allowlist` so
    /// hand-added reasons survive regeneration.
    pub reasons: BTreeMap<(&'static str, Key), String>,
}

impl Allowlist {
    /// Parses the JSON document.
    pub fn from_json(text: &str) -> Result<Allowlist, String> {
        let value = parse_json(text)?;
        let object = value.as_object().ok_or("allowlist root must be an object")?;
        let mut allowlist = Allowlist::default();
        for (name, value) in object {
            match name.as_str() {
                "version" => {}
                other => {
                    let section = crate::sections()
                        .find(|s| *s == other)
                        .ok_or_else(|| format!("unknown allowlist section '{other}'"))?;
                    let items = value.as_array().ok_or("allowance sections must be arrays")?;
                    for item in items {
                        let field = |name: &str| -> Result<String, String> {
                            item.get(name)
                                .and_then(Json::as_str)
                                .map(str::to_string)
                                .ok_or_else(|| format!("allowance entry missing '{name}'"))
                        };
                        let key = (field("file")?, field("function")?, field("kind")?);
                        let count = item
                            .get("count")
                            .and_then(Json::as_usize)
                            .ok_or("allowance entry missing numeric 'count'")?;
                        if let Some(reason) = item.get("reason").and_then(Json::as_str) {
                            allowlist.reasons.insert((section, key.clone()), reason.to_string());
                        }
                        allowlist.sections.entry(section).or_default().insert(key, count);
                    }
                }
            }
        }
        Ok(allowlist)
    }

    /// Serializes back to the canonical JSON layout: every section of the
    /// registry, in registry order, empty or not.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1");
        for section in crate::sections() {
            let entries: Vec<String> = self
                .sections
                .get(section)
                .into_iter()
                .flatten()
                .map(|(key, count)| {
                    let (file, function, kind) = key;
                    let reason = self.reasons.get(&(section, key.clone()));
                    format!(
                        "    {{\"file\": {}, \"function\": {}, \"kind\": {}, \"count\": {count}{}}}",
                        quote(file),
                        quote(function),
                        quote(kind),
                        reason.map_or(String::new(), |r| format!(", \"reason\": {}", quote(r))),
                    )
                })
                .collect();
            let body = if entries.is_empty() {
                String::new()
            } else {
                format!("\n{}\n  ", entries.join(",\n"))
            };
            let _ = write!(out, ",\n  \"{section}\": [{body}]");
        }
        out.push_str("\n}\n");
        out
    }

    /// The frozen count for `key` in `section` (0 when absent).
    pub fn allowance(&self, section: &str, key: &Key) -> usize {
        self.sections.get(section).and_then(|s| s.get(key)).copied().unwrap_or(0)
    }

    /// One MOCHI010 finding per entry whose key matches none of the
    /// `actual` (raw, pre-allowlist) findings: the frozen debt has been
    /// paid down (or the code moved) and the entry should be pruned.
    pub fn stale_entries(&self, actual: &Sections) -> Vec<Finding> {
        let mut stale = Vec::new();
        for (section, entries) in &self.sections {
            for (key, count) in entries {
                if actual.get(section).is_none_or(|live| !live.contains_key(key)) {
                    let (file, function, kind) = key;
                    stale.push(Finding {
                        rule: "MOCHI010",
                        file: "lint-allow.json".to_string(),
                        function: section.to_string(),
                        kind: format!("{file}/{function}/{kind}"),
                        line: 1,
                        column: 1,
                        message: format!(
                            "stale allowlist entry ({file} / {function} / {kind} / count {count}) matches no current finding — prune it"
                        ),
                        path: Vec::new(),
                    });
                }
            }
        }
        stale.sort();
        stale
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ----------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, booleans, null)
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn as_object(&self) -> Option<&Vec<(String, Json)>> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }
    pub(crate) fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
    pub(crate) fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }
    /// Field `name` of an object.
    pub(crate) fn get(&self, name: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at offset {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&bytes[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Number)
                .ok_or_else(|| format!("invalid number at offset {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = Vec::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'n') => out.push(b'\n'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'r') => out.push(b'\r'),
                    Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                    Some(b'u') => {
                        // \uXXXX — the allowlist never needs non-BMP chars.
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        let c = char::from_u32(hex).ok_or("bad \\u codepoint")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: &str, function: &str, kind: &str) -> Key {
        (file.to_string(), function.to_string(), kind.to_string())
    }

    #[test]
    fn round_trip() {
        // One entry in every section of the registry, so a section the
        // writer or the reader forgot cannot round-trip.
        let mut allowlist = Allowlist::default();
        for (i, section) in crate::sections().enumerate() {
            let entry = key("crates/raft/src/node.rs", "start", &format!("kind:{section}"));
            allowlist.sections.entry(section).or_default().insert(entry, i + 1);
        }
        allowlist.reasons.insert(
            ("retry_soundness", key("crates/raft/src/node.rs", "start", "kind:retry_soundness")),
            "replay-guarded by the completed-transfer map".to_string(),
        );
        let json = allowlist.to_json();
        let back = Allowlist::from_json(&json).unwrap();
        assert_eq!(back.sections.len(), crate::sections().count());
        assert_eq!(back.sections, allowlist.sections);
        assert_eq!(back.reasons, allowlist.reasons, "reason strings must round-trip");
        assert_eq!(back.to_json(), json, "stable ordering");
    }

    #[test]
    fn stale_entries_detected_per_section() {
        let live_key = key("a.rs", "f", "forward_raw");
        let mut allowlist = Allowlist::default();
        let frozen = allowlist.sections.entry("raw_forward").or_default();
        frozen.insert(live_key.clone(), 1);
        frozen.insert(key("b.rs", "g", "iforward_raw"), 2);
        let mut actual = Sections::new();
        actual.entry("raw_forward").or_default().insert(live_key.clone(), 1);
        // The same key live in another section does not keep this one alive.
        actual.entry("serde_json").or_default().insert(key("b.rs", "g", "iforward_raw"), 1);
        let stale = allowlist.stale_entries(&actual);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "MOCHI010");
        assert_eq!(stale[0].function, "raw_forward", "the section stands in for the function");
        assert_eq!(stale[0].kind, "b.rs/g/iforward_raw");
        assert!(stale[0].message.contains("count 2"), "{}", stale[0].message);
        assert_eq!(allowlist.allowance("raw_forward", &live_key), 1);
        assert_eq!(allowlist.allowance("serde_json", &live_key), 0);
    }

    #[test]
    fn empty_document_is_valid() {
        let allowlist = Allowlist::from_json("{\"version\": 1}").unwrap();
        assert!(allowlist.sections.is_empty());
    }

    #[test]
    fn malformed_document_reports_error() {
        assert!(Allowlist::from_json("{\"serde_json\": 3}").is_err());
        assert!(Allowlist::from_json("{\"serde_json\": [{\"file\": \"a.rs\"}]}").is_err());
        assert!(Allowlist::from_json("not json").is_err());
    }

    #[test]
    fn the_retired_panic_paths_section_fails_to_load() {
        // Panic paths are clippy's (DESIGN.md §11.1): a debt file that
        // still freezes some is refused, naming the section.
        let error = Allowlist::from_json(
            r#"{"version": 1, "panic_paths": [
                {"file": "crates/raft/src/node.rs", "function": "run_election", "kind": "expect", "count": 1}
            ]}"#,
        )
        .unwrap_err();
        assert!(error.contains("unknown allowlist section 'panic_paths'"), "{error}");
    }
}
