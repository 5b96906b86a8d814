//! Workspace source model: file discovery, per-file sanitization, and
//! function extraction.

use std::path::{Path, PathBuf};

use crate::lexer;
use crate::Finding;

/// One `.rs` file prepared for analysis.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Crate the file belongs to (directory under `crates/`, or the
    /// package name for the root `src/`).
    pub crate_name: String,
    /// Sanitized bytes: comments/strings blanked, `#[cfg(test)]` items
    /// removed, newlines preserved.
    pub text: Vec<u8>,
    /// The original bytes. Same length as `text`, so an offset into the
    /// sanitized buffer reads the corresponding raw bytes — this is how
    /// the contract checker recovers string-literal values the sanitizer
    /// blanked.
    pub raw: Vec<u8>,
    /// Functions found in the file, in source order.
    pub functions: Vec<Function>,
}

/// A function (or method) body span inside a [`SourceFile`].
pub struct Function {
    pub name: String,
    /// Byte offset of the opening `{` of the body.
    pub body_start: usize,
    /// Byte offset just past the closing `}`.
    pub body_end: usize,
    pub start_line: usize,
}

impl SourceFile {
    /// Builds the analysis view of one file from its raw contents.
    pub fn parse(rel_path: &str, raw: &str) -> SourceFile {
        let mut text = lexer::sanitize(raw);
        lexer::blank_test_items(&mut text);
        let functions = extract_functions(&text);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_of(rel_path),
            text,
            raw: raw.as_bytes().to_vec(),
            functions,
        }
    }

    /// Name of the innermost function containing `offset`, if any.
    pub fn function_at(&self, offset: usize) -> Option<&Function> {
        self.functions
            .iter()
            .filter(|f| f.body_start <= offset && offset < f.body_end)
            .min_by_key(|f| f.body_end - f.body_start)
    }

    /// A finding of `rule` at byte `offset` of this file, attributed to
    /// the function around it.
    pub fn finding(
        &self,
        rule: &'static str,
        offset: usize,
        kind: String,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            file: self.rel_path.clone(),
            function: self
                .function_at(offset)
                .map_or_else(|| "<module>".to_string(), |f| f.name.clone()),
            kind,
            line: lexer::line_of(&self.text, offset),
            column: lexer::column_of(&self.text, offset),
            message,
            path: Vec::new(),
        }
    }
}

fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        _ => "mochi-rs".to_string(),
    }
}

/// Finds every `fn name … { body }` in sanitized text, including methods
/// and nested functions. Bodiless signatures (traits, extern) are skipped.
fn extract_functions(text: &[u8]) -> Vec<Function> {
    let mut functions = Vec::new();
    let mut i = 0usize;
    while i + 2 < text.len() {
        if &text[i..i + 2] == b"fn"
            && (i == 0 || !lexer::is_ident_byte(text[i - 1]))
            && !lexer::is_ident_byte(text[i + 2])
        {
            let mut j = i + 2;
            while j < text.len() && text[j].is_ascii_whitespace() {
                j += 1;
            }
            let name_start = j;
            while j < text.len() && lexer::is_ident_byte(text[j]) {
                j += 1;
            }
            if j == name_start {
                i += 2;
                continue;
            }
            let name = String::from_utf8_lossy(&text[name_start..j]).into_owned();
            // Scan the signature for the body `{`; a `;` first means no body.
            let mut body = None;
            while j < text.len() {
                match text[j] {
                    b'{' => {
                        body = Some(j);
                        break;
                    }
                    b';' => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = body {
                let end = lexer::matching_brace(text, open);
                functions.push(Function {
                    name,
                    body_start: open,
                    body_end: end,
                    start_line: lexer::line_of(text, i),
                });
                // Continue scanning *inside* the body too (nested fns).
                i = open + 1;
            } else {
                i = j + 1;
            }
        } else {
            i += 1;
        }
    }
    functions
}

/// Recursively collects `.rs` files under `root`, skipping build output,
/// VCS metadata, and test/bench/example trees (those may panic freely) —
/// the benchmark harness `crates/perf`, dependency stand-ins included,
/// is of that class.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | ".git" | "tests" | "examples" | "benches" | "fixtures"
                ) || path == root.join("crates/perf")
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, path));
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_methods_and_skips_trait_signatures() {
        let src = "trait T { fn sig(&self); }\nimpl S {\n  fn alpha(&self) { let x = 1; }\n  pub fn beta() -> u8 { 0 }\n}";
        let file = SourceFile::parse("crates/demo/src/lib.rs", src);
        let names: Vec<&str> = file.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert_eq!(file.crate_name, "demo");
    }

    #[test]
    fn function_at_returns_innermost() {
        let src = "fn outer() { fn inner() { let y = 2; } let x = 1; }";
        let file = SourceFile::parse("src/lib.rs", src);
        let inner_pos = src.find("let y").unwrap();
        assert_eq!(file.function_at(inner_pos).unwrap().name, "inner");
        let outer_pos = src.find("let x").unwrap();
        assert_eq!(file.function_at(outer_pos).unwrap().name, "outer");
        assert_eq!(file.crate_name, "mochi-rs");
    }
}
