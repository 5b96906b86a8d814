//! Source sanitization: blank out comments, string/char literals, and
//! `#[cfg(test)]` items so that downstream scanners only ever see code
//! that runs in production builds.
//!
//! The sanitized buffer has the same byte length as the input and keeps
//! every newline, so byte offsets and line numbers map 1:1 onto the
//! original file.

/// Replaces comments, string literals, byte strings, raw strings and char
/// literals with spaces (newlines preserved).
pub fn sanitize(source: &str) -> Vec<u8> {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let end = line_end(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let end = block_comment_end(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'"' => {
                let end = string_end(bytes, i + 1);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' | b'b' if is_raw_or_byte_literal_start(bytes, i) => {
                let end = raw_or_byte_literal_end(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime (`'a`): leave as-is, skip the identifier.
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Blanks every `#[cfg(test)]`-guarded item (typically `mod tests { … }`)
/// in an already-sanitized buffer, so test-only code is invisible to the
/// lints. Operates in place.
pub fn blank_test_items(sanitized: &mut [u8]) {
    let needle = b"#[cfg(test)]";
    let mut i = 0usize;
    while i + needle.len() <= sanitized.len() {
        if &sanitized[i..i + needle.len()] == needle {
            let start = i;
            let mut j = i + needle.len();
            // Find the start of the guarded item's body: the next `{` not
            // preceded by an item-terminating `;`.
            let mut body = None;
            while j < sanitized.len() {
                match sanitized[j] {
                    b'{' => {
                        body = Some(j);
                        break;
                    }
                    b';' => break, // e.g. `#[cfg(test)] use …;`
                    _ => j += 1,
                }
            }
            let end = match body {
                Some(open) => matching_brace(sanitized, open),
                None => j + 1,
            };
            let end = end.min(sanitized.len());
            blank(sanitized, start, end);
            i = end;
        } else {
            i += 1;
        }
    }
}

/// Offset just past the `}` matching the `{` at `open`.
pub fn matching_brace(bytes: &[u8], open: usize) -> usize {
    debug_assert_eq!(bytes[open], b'{');
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Offset of the `)` matching the `(` at `open`; `bytes.len()` when the
/// text ends first (callers clamp the text to search a span).
pub fn matching_paren(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Whether the whole word `word` (no identifier byte on either side)
/// starts at offset `i`.
pub fn word_at(bytes: &[u8], i: usize, word: &str) -> bool {
    let w = word.as_bytes();
    i + w.len() <= bytes.len()
        && &bytes[i..i + w.len()] == w
        && (i == 0 || !is_ident_byte(bytes[i - 1]))
        && bytes.get(i + w.len()).is_none_or(|&b| !is_ident_byte(b))
}

/// The next whole-word occurrence of `word` at or after `from`.
pub fn find_word(bytes: &[u8], word: &str, from: usize) -> Option<usize> {
    (from..bytes.len()).find(|&i| word_at(bytes, i, word))
}

/// 1-based line number of a byte offset.
pub fn line_of(bytes: &[u8], offset: usize) -> usize {
    1 + bytes[..offset.min(bytes.len())].iter().filter(|&&b| b == b'\n').count()
}

/// 1-based column number of a byte offset.
pub fn column_of(bytes: &[u8], offset: usize) -> usize {
    let offset = offset.min(bytes.len());
    let line_start =
        bytes[..offset].iter().rposition(|&b| b == b'\n').map(|p| p + 1).unwrap_or(0);
    1 + offset - line_start
}

pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn blank(out: &mut [u8], start: usize, end: usize) {
    let end = end.min(out.len());
    for b in &mut out[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

fn line_end(bytes: &[u8], from: usize) -> usize {
    bytes[from..].iter().position(|&b| b == b'\n').map(|p| from + p).unwrap_or(bytes.len())
}

fn block_comment_end(bytes: &[u8], from: usize) -> usize {
    // Rust block comments nest.
    let mut depth = 0usize;
    let mut i = from;
    while i + 1 < bytes.len() {
        if bytes[i] == b'/' && bytes[i + 1] == b'*' {
            depth += 1;
            i += 2;
        } else if bytes[i] == b'*' && bytes[i + 1] == b'/' {
            depth -= 1;
            i += 2;
            if depth == 0 {
                return i;
            }
        } else {
            i += 1;
        }
    }
    bytes.len()
}

/// End of a normal string literal whose opening quote precedes `from`.
fn string_end(bytes: &[u8], from: usize) -> usize {
    let mut i = from;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    bytes.len()
}

/// True when position `i` begins `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` or
/// `b'…'` — i.e. the `r`/`b` is literal prefix, not part of an identifier.
fn is_raw_or_byte_literal_start(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return false;
    }
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j < bytes.len() && bytes[j] == b'\'' {
            return true;
        }
    }
    if j < bytes.len() && bytes[j] == b'r' {
        j += 1;
    }
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    j > i && j < bytes.len() && bytes[j] == b'"'
}

fn raw_or_byte_literal_end(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j < bytes.len() && bytes[j] == b'\'' {
            return char_literal_end(bytes, j).unwrap_or(j + 1);
        }
    }
    let raw = j < bytes.len() && bytes[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < bytes.len() && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= bytes.len() || bytes[j] != b'"' {
        return i + 1; // not actually a literal; skip one byte
    }
    j += 1; // past the opening quote
    if raw {
        // Raw string: ends at `"` followed by `hashes` hashes, no escapes.
        while j < bytes.len() {
            if bytes[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < bytes.len() && bytes[k] == b'#' && seen < hashes {
                    k += 1;
                    seen += 1;
                }
                if seen == hashes {
                    return k;
                }
            }
            j += 1;
        }
        bytes.len()
    } else {
        string_end(bytes, j)
    }
}

/// If the `'` at `i` starts a char literal, its end offset; `None` for a
/// lifetime.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = *bytes.get(i + 1)?;
    if next == b'\\' {
        // Escaped char: skip the escape, find the closing quote.
        let mut j = i + 3;
        while j < bytes.len() && bytes[j] != b'\'' && j < i + 12 {
            j += 1;
        }
        return Some((j + 1).min(bytes.len()));
    }
    if is_ident_byte(next) {
        // `'a'` is a char literal; `'a` (no closing quote right after the
        // single ident byte) is a lifetime.
        if bytes.get(i + 2) == Some(&b'\'') {
            return Some(i + 3);
        }
        return None;
    }
    // Punctuation or multi-byte char: look for a close quote nearby.
    let mut j = i + 1;
    while j < bytes.len() && j < i + 6 {
        if bytes[j] == b'\'' {
            return Some(j + 1);
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(src: &str) -> String {
        String::from_utf8(sanitize(src)).unwrap()
    }

    #[test]
    fn strips_line_and_block_comments() {
        let s = clean("a // c\nb /* x /* y */ z */ c");
        assert_eq!(s, "a     \nb                   c");
    }

    #[test]
    fn strips_strings_and_keeps_length() {
        let src = r#"let x = "a.lock()"; y"#;
        let s = clean(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("lock"));
        assert!(s.contains("let x ="));
    }

    #[test]
    fn strips_raw_strings() {
        let src = r##"let j = r#"{"name": "p"}"#; k"##;
        let s = clean(src);
        assert!(!s.contains("name"));
        assert!(s.ends_with("; k"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = clean("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
        assert!(!s.contains("'x'"));
    }

    #[test]
    fn blanks_cfg_test_modules() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { x.unwrap(); } }\nfn also_live() {}";
        let mut s = sanitize(src);
        blank_test_items(&mut s);
        let s = String::from_utf8(s).unwrap();
        assert!(s.contains("fn live"));
        assert!(s.contains("fn also_live"));
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("dead"));
    }

    #[test]
    fn line_numbers_survive_sanitization() {
        let src = "a\n\"x\ny\"\nb";
        let s = sanitize(src);
        assert_eq!(line_of(&s, s.len() - 1), 4);
    }

    #[test]
    fn byte_strings_are_blanked() {
        let s = clean(r#"let m = b"magic.lock()"; n"#);
        assert!(!s.contains("magic"));
        assert!(!s.contains("lock"));
        assert!(s.starts_with("let m ="));
        assert!(s.ends_with("; n"));
    }

    #[test]
    fn raw_byte_strings_with_hashes_are_blanked() {
        let src = r###"let m = br##"quote " hash # done"##; n"###;
        let s = clean(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("quote"));
        assert!(s.ends_with("; n"));
    }

    #[test]
    fn raw_string_with_embedded_quote_ends_at_matching_hashes() {
        // The `"#`-lookalike inside must not terminate an `r##"…"##`.
        let src = r###"let j = r##"a "# b"##; k"###;
        let s = clean(src);
        assert!(!s.contains('a'));
        assert!(!s.contains('b'));
        assert!(s.ends_with("; k"));
    }

    #[test]
    fn escaped_quote_and_backslash_char_literals() {
        let s = clean(r"let q = '\''; let b = '\\'; x.lock()");
        assert!(!s.contains('\''), "char literals must be blanked: {s}");
        assert!(s.contains("x.lock()"));
    }

    #[test]
    fn unicode_escape_char_literal() {
        let s = clean(r"let c = '\u{10FFFF}'; y");
        assert!(!s.contains("10FFFF"));
        assert!(s.ends_with("; y"));
    }

    #[test]
    fn quote_char_literal_does_not_open_a_string() {
        // If `'"'` were mislexed, the closing `"` would swallow the rest
        // of the line as a string.
        let s = clean(r#"let c = '"'; x.lock()"#);
        assert!(s.contains("x.lock()"));
    }

    #[test]
    fn loop_labels_are_lifetimes_not_chars() {
        let s = clean("'outer: loop { break 'outer; }");
        assert!(s.contains("'outer: loop"));
        assert!(s.contains("break 'outer;"));
    }

    #[test]
    fn static_lifetime_survives() {
        let s = clean("const N: &'static str = x; fn f(a: &'static [u8]) {}");
        assert!(s.contains("&'static str"));
        assert!(s.contains("&'static [u8]"));
    }

    #[test]
    fn byte_char_literals_are_blanked() {
        let s = clean(r"if b == b'\n' || b == b'x' { y.lock() }");
        assert!(!s.contains("b'"));
        assert!(s.contains("y.lock()"));
    }

    #[test]
    fn raw_identifiers_are_not_string_prefixes() {
        let s = clean("let r#type = r#match.lock();");
        assert!(s.contains("r#type"));
        assert!(s.contains("r#match.lock()"));
    }

    #[test]
    fn unterminated_block_comment_blanks_to_eof() {
        let s = clean("a /* x /* y */ z");
        assert!(s.starts_with("a "));
        assert!(!s.contains('z'));
    }

    #[test]
    fn multibyte_char_literal_is_blanked() {
        let s = clean("let c = '\u{1F980}'; z.lock()");
        assert!(!s.contains('\u{1F980}'));
        assert!(s.contains("z.lock()"));
    }
}
