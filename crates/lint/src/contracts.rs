//! Cross-crate RPC contract checker.
//!
//! Every client `forward("name")` / provider `margo.register("name")`
//! pair is a dynamically-bound contract the Rust type system cannot see
//! across crates: providers are torn down and re-registered at runtime,
//! so a mismatch only surfaces as an RPC-not-found (or a codec error) on
//! a live node. This analysis rebuilds the contract statically:
//!
//! 1. a **constant table** maps every `pub const NAME: &str = "…"` to its
//!    value, so call sites that name RPCs through the per-crate
//!    `rpc_names` modules resolve exactly like string literals;
//! 2. every registration site (`register`, `register_typed`, and the
//!    Bedrock `handler!` wrapper macro) and every call site (the
//!    `forward` family, `notify`, `rpc_id_for_name`, the Bedrock
//!    `ServiceHandle::call` wrapper, and the service-client
//!    `call`/`call_raw`/`post`/`post_raw` chokepoints) is extracted with its argument and
//!    reply types where they are syntactically evident — closure
//!    parameter annotations, turbofish type parameters, `let x: T =`
//!    bindings, inline struct literals, and local `let`/parameter
//!    bindings of forwarded values;
//! 3. the merged workspace table is checked for (a) calls naming an RPC
//!    no provider registers, (b) registered RPCs no client ever calls
//!    (dead surface), and (c) name pairs whose argument or reply type
//!    idents disagree.
//!
//! Types that cannot be determined — raw byte payloads, dynamically
//! computed values — act as wildcards: a mismatch is only reported when
//! *both* sides are known. `serde_json::Value` is also a wildcard (it
//! deserializes from anything the codec accepts).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{column_of, is_ident_byte, line_of, matching_brace, matching_paren, word_at};
use crate::rawforward::FORWARD_FAMILY;
use crate::source::SourceFile;
use crate::Finding;

/// Whether a site registers an RPC or calls one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// A `register`/`register_typed`/`handler!` site.
    Register,
    /// A `forward`-family, `notify`, `rpc_id_for_name`, or `call` site.
    Call,
}

/// One registration or call site in the workspace contract table.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RpcSite {
    pub file: String,
    pub function: String,
    pub crate_name: String,
    pub line: usize,
    pub column: usize,
    pub role: Role,
    /// The method or macro through which the site was found.
    pub via: String,
    /// Resolved RPC name; `None` when the name expression is dynamic
    /// (e.g. a function parameter inside the margo plumbing itself).
    pub name: Option<String>,
    /// The source expression in name position, for the report.
    pub name_expr: String,
    /// Normalized argument type ident, when syntactically evident.
    pub arg_type: Option<String>,
    /// Normalized reply type ident, when syntactically evident.
    pub reply_type: Option<String>,
}

// ----------------------------------------------------------------------
// Constant table
// ----------------------------------------------------------------------

/// Workspace map of `const IDENT: &str = "value"` definitions.
#[derive(Debug, Default)]
pub struct ConstTable {
    /// `(crate, ident) → value`; `None` marks an ident defined twice in
    /// one crate with different values (unresolvable).
    by_crate: BTreeMap<(String, String), Option<String>>,
    /// `ident → all values across the workspace`, for the global-unique
    /// fallback when a cross-crate path re-exports a constant.
    by_ident: BTreeMap<String, BTreeSet<String>>,
}

impl ConstTable {
    /// Scans every file for string-constant definitions.
    pub fn build(files: &[SourceFile]) -> ConstTable {
        let mut table = ConstTable::default();
        for file in files {
            scan_consts(file, &mut table);
        }
        table
    }

    /// Resolves `ident` as seen from `crate_name`: same-crate definition
    /// first, then a workspace-wide unique value.
    pub fn resolve(&self, crate_name: &str, ident: &str) -> Option<&str> {
        if let Some(value) = self.by_crate.get(&(crate_name.to_string(), ident.to_string())) {
            return value.as_deref();
        }
        match self.by_ident.get(ident) {
            Some(values) if values.len() == 1 => values.iter().next().map(|s| s.as_str()),
            _ => None,
        }
    }

}

/// Finds `const IDENT: &str = "…";` (with any `pub` qualifier and an
/// optional `'static` lifetime) and reads the value from the raw bytes —
/// the sanitizer blanks literals but preserves offsets.
fn scan_consts(file: &SourceFile, table: &mut ConstTable) {
    let text = &file.text;
    let mut i = 0usize;
    while i + 5 < text.len() {
        if !word_at(text, i, "const") {
            i += 1;
            continue;
        }
        let mut j = skip_ws(text, i + 5);
        let ident_start = j;
        while j < text.len() && is_ident_byte(text[j]) {
            j += 1;
        }
        if j == ident_start {
            i += 5;
            continue;
        }
        let ident = String::from_utf8_lossy(&text[ident_start..j]).into_owned();
        j = skip_ws(text, j);
        if text.get(j) != Some(&b':') {
            i = j;
            continue;
        }
        // The type must be a `str` reference; scan it up to the `=`.
        let type_start = j + 1;
        let mut eq = type_start;
        while eq < text.len() && text[eq] != b'=' && text[eq] != b';' {
            eq += 1;
        }
        if text.get(eq) != Some(&b'=') {
            i = eq;
            continue;
        }
        let type_text = String::from_utf8_lossy(&text[type_start..eq]);
        if !type_text.contains("str") {
            i = eq;
            continue;
        }
        // Skip whitespace in the RAW buffer: the sanitizer blanked the
        // string literal to spaces, so the sanitized text cannot tell
        // where the value starts.
        let value_start = skip_ws(&file.raw, eq + 1);
        if file.raw.get(value_start) != Some(&b'"') {
            i = eq;
            continue;
        }
        let mut end = value_start + 1;
        while end < file.raw.len() && file.raw[end] != b'"' {
            end += 1;
        }
        let value = String::from_utf8_lossy(&file.raw[value_start + 1..end]).into_owned();
        table
            .by_crate
            .entry((file.crate_name.clone(), ident.clone()))
            .and_modify(|existing| {
                if existing.as_deref() != Some(value.as_str()) {
                    *existing = None;
                }
            })
            .or_insert_with(|| Some(value.clone()));
        table.by_ident.entry(ident).or_default().insert(value);
        i = end + 1;
    }
}

// ----------------------------------------------------------------------
// Site extraction
// ----------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Callee {
    name: &'static str,
    role: Role,
    /// Index of the RPC-name argument.
    name_arg: usize,
    /// Index of the serialized-input argument, when typed.
    input_arg: Option<usize>,
    /// Minimum argument count (filters `fabric.register(addr)`).
    min_args: usize,
    /// `true` for `handler!` (macro invocation, not a method call).
    is_macro: bool,
    /// Wrappers are only recorded when the name resolves.
    requires_resolution: bool,
    /// Also match as a free function (`rpc_id_for_name(…)`), not just as
    /// a method — its own `fn` definition is excluded.
    allow_free: bool,
}

/// Everything but the margo forward family, which [`callees`] adds.
const FIXED_CALLEES: &[Callee] = &[
    Callee { name: "register_typed", role: Role::Register, name_arg: 0, input_arg: None, min_args: 3, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "register", role: Role::Register, name_arg: 0, input_arg: None, min_args: 3, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "handler", role: Role::Register, name_arg: 0, input_arg: Some(1), min_args: 2, is_macro: true, requires_resolution: false, allow_free: false },
    Callee { name: "notify", role: Role::Call, name_arg: 1, input_arg: Some(3), min_args: 4, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "rpc_id_for_name", role: Role::Call, name_arg: 0, input_arg: None, min_args: 1, is_macro: false, requires_resolution: false, allow_free: true },
    Callee { name: "call", role: Role::Call, name_arg: 0, input_arg: Some(1), min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "call_raw", role: Role::Call, name_arg: 0, input_arg: None, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "post", role: Role::Call, name_arg: 0, input_arg: Some(1), min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "post_raw", role: Role::Call, name_arg: 0, input_arg: None, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
];

/// The callee table: [`FIXED_CALLEES`] and one entry per forward-family
/// method — `(dest, name, provider_id, input | payload, …)`, the input
/// typed unless the method is a `*_raw` form.
fn callees() -> impl Iterator<Item = Callee> {
    let forwards = FORWARD_FAMILY.iter().map(|&name| Callee {
        name,
        role: Role::Call,
        name_arg: 1,
        input_arg: (!name.ends_with("_raw")).then_some(3),
        min_args: 4,
        is_macro: false,
        requires_resolution: false,
        allow_free: false,
    });
    FIXED_CALLEES.iter().copied().chain(forwards)
}

/// Extracts every registration and call site from one file.
pub fn sites(file: &SourceFile, consts: &ConstTable) -> Vec<RpcSite> {
    let text = &file.text;
    let mut out = Vec::new();
    for callee in callees() {
        let needle = callee.name.as_bytes();
        let mut i = 1usize;
        while i + needle.len() < text.len() {
            if &text[i..i + needle.len()] != needle
                || is_ident_byte(text[i + needle.len()])
                || is_ident_byte(text[i - 1])
            {
                i += 1;
                continue;
            }
            // Methods need a `.` receiver (so `RemiProvider::register(…)`
            // constructors never match); `handler!` needs its bang.
            let mut j = i + needle.len();
            if callee.is_macro {
                if text.get(j) != Some(&b'!') {
                    i += 1;
                    continue;
                }
                j += 1;
            } else if text[i - 1] != b'.' {
                // Free-function form: allowed only for callees that opt
                // in, and never at the definition site (`fn …(`).
                if !callee.allow_free || preceded_by_fn_keyword(text, i) {
                    i += 1;
                    continue;
                }
            }
            let turbofish = parse_turbofish(text, &mut j);
            j = skip_ws(text, j);
            if text.get(j) != Some(&b'(') {
                i += 1;
                continue;
            }
            let close = matching_paren(text, j);
            let args = split_args(text, j + 1, close);
            if args.len() < callee.min_args {
                i = j + 1;
                continue;
            }
            if let Some(site) = build_site(file, consts, &callee, i, &args, &turbofish, j, close) {
                out.push(site);
            }
            i = j + 1;
        }
    }
    out.sort();
    out
}

#[allow(clippy::too_many_arguments)]
fn build_site(
    file: &SourceFile,
    consts: &ConstTable,
    callee: &Callee,
    word: usize,
    args: &[(usize, usize)],
    turbofish: &[String],
    open: usize,
    close: usize,
) -> Option<RpcSite> {
    let text = &file.text;
    let (name_start, name_end) = args[callee.name_arg];
    let name_expr =
        String::from_utf8_lossy(&text[name_start..name_end]).trim().to_string();
    let name = resolve_name(file, consts, name_start, name_end);
    if callee.requires_resolution && name.is_none() {
        return None;
    }

    let function = file
        .function_at(word)
        .map(|f| f.name.clone())
        .unwrap_or_else(|| "<module>".to_string());

    let mut arg_type = None;
    let mut reply_type = None;
    match callee.role {
        Role::Register => {
            if callee.is_macro {
                // `handler!(NAME, ArgType, |…| …)`: the second macro
                // argument is the decoded argument type.
                if let Some(&(s, e)) = args.get(1) {
                    arg_type = normalize_type(&String::from_utf8_lossy(&text[s..e]));
                }
            } else if callee.name == "register_typed" {
                // `register_typed::<I, O, _>` or the handler closure's
                // first parameter annotation.
                arg_type = turbofish.first().and_then(|t| normalize_type(t));
                reply_type = turbofish.get(1).and_then(|t| normalize_type(t));
                if let Some((params, body)) = closure_in(text, open + 1, close) {
                    if arg_type.is_none() {
                        arg_type = closure_first_param_type(text, params);
                    }
                    if reply_type.is_none() {
                        reply_type = closure_ok_type(text, body);
                    }
                }
            }
        }
        Role::Call => {
            // Reply: explicit turbofish output, else a `let x: T =`
            // statement prefix annotation.
            reply_type = turbofish.get(1).and_then(|t| normalize_type(t));
            if reply_type.is_none() {
                reply_type = let_annotation_type(text, word);
            }
            if let Some(input) = callee.input_arg {
                if let Some(&(s, e)) = args.get(input) {
                    arg_type = type_of_expr(file, s, e);
                }
            }
        }
    }

    Some(RpcSite {
        file: file.rel_path.clone(),
        function,
        crate_name: file.crate_name.clone(),
        line: line_of(text, word),
        column: column_of(text, word),
        role: callee.role,
        via: if callee.is_macro { format!("{}!", callee.name) } else { callee.name.to_string() },
        name,
        name_expr,
        arg_type,
        reply_type,
    })
}

/// Resolves the expression in name position: a string literal (read from
/// the raw bytes) or a constant path.
pub(crate) fn resolve_name(
    file: &SourceFile,
    consts: &ConstTable,
    start: usize,
    end: usize,
) -> Option<String> {
    let text = &file.text;
    // Lead-in (`&`, `*`, whitespace) is identical in raw and sanitized
    // text, but the literal itself only survives in raw — skip on raw.
    let mut s = skip_ws(&file.raw, start);
    while s < end && (file.raw[s] == b'&' || file.raw[s] == b'*') {
        s = skip_ws(&file.raw, s + 1);
    }
    if s >= end {
        return None;
    }
    if file.raw[s] == b'"' {
        let mut e = s + 1;
        while e < end && file.raw[e] != b'"' {
            e += 1;
        }
        return Some(String::from_utf8_lossy(&file.raw[s + 1..e]).into_owned());
    }
    // A path: `rpc::PUT`, `proto::GET_CONFIG`, `crate::provider::rpc::PUT`.
    let path_start = s;
    while s < end && (is_ident_byte(text[s]) || text[s] == b':') {
        s += 1;
    }
    if skip_ws(text, s) != end && s != end {
        return None; // trailing tokens: a method call or other expression
    }
    let path = String::from_utf8_lossy(&text[path_start..s]);
    let ident = path.rsplit("::").next().unwrap_or(&path);
    if ident.is_empty() || !ident.bytes().all(is_ident_byte) {
        return None;
    }
    consts.resolve(&file.crate_name, ident).map(str::to_string)
}

// ----------------------------------------------------------------------
// Type extraction helpers
// ----------------------------------------------------------------------

/// Normalizes a type expression: whitespace stripped, references and
/// path qualifiers dropped (`&proto::QueryArgs` → `QueryArgs`). Returns
/// `None` for underscores and empty input.
pub fn normalize_type(s: &str) -> Option<String> {
    let mut t = s.trim();
    loop {
        if let Some(rest) = t.strip_prefix('&') {
            t = rest.trim_start();
            if let Some(rest) = t.strip_prefix("mut ") {
                t = rest.trim_start();
            }
            if t.starts_with('\'') {
                // Skip a lifetime: `&'static str` → `str`.
                let end = t[1..]
                    .find(|c: char| !c.is_alphanumeric() && c != '_')
                    .map(|p| p + 1)
                    .unwrap_or(t.len());
                t = t[end..].trim_start();
            }
            continue;
        }
        break;
    }
    let compact: String = t.chars().filter(|c| !c.is_whitespace()).collect();
    let t = compact.as_str();
    if t.is_empty() || t == "_" {
        return None;
    }
    // Drop path qualifiers: every `ident::` prefix of a path segment.
    let mut out = String::with_capacity(t.len());
    let mut ident_start = 0usize;
    let bytes = t.as_bytes();
    let mut k = 0usize;
    while k < bytes.len() {
        if k + 1 < bytes.len() && bytes[k] == b':' && bytes[k + 1] == b':' {
            out.truncate(ident_start);
            k += 2;
            ident_start = out.len();
        } else {
            if !is_ident_byte(bytes[k]) {
                out.push(bytes[k] as char);
                ident_start = out.len();
            } else {
                if out.len() == ident_start || is_ident_byte(*out.as_bytes().last().unwrap_or(&b' ')) {
                } else {
                    ident_start = out.len();
                }
                out.push(bytes[k] as char);
            }
            k += 1;
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// Whether a known type ident still cannot support a mismatch verdict:
/// `Value` decodes anything, `Bytes`/`Vec<u8>` are raw payloads.
fn is_wildcard(t: &str) -> bool {
    matches!(t, "Value" | "Bytes")
}

/// The type of an argument expression at a call site, when evident.
fn type_of_expr(file: &SourceFile, start: usize, end: usize) -> Option<String> {
    let text = &file.text;
    let mut s = skip_ws(text, start);
    let mut e = end;
    while e > s && text[e - 1].is_ascii_whitespace() {
        e -= 1;
    }
    while s < e && text[s] == b'&' {
        s = skip_ws(text, s + 1);
        if word_at(text, s, "mut") {
            s = skip_ws(text, s + 3);
        }
    }
    if s >= e {
        return None;
    }
    let expr = String::from_utf8_lossy(&text[s..e]);
    // `()` — the unit argument.
    if expr.trim() == "()" {
        return Some("()".to_string());
    }
    // Inline struct literal: `Type { … }` or `path::Type { … }`.
    if let Some(brace) = expr.find('{') {
        let head = expr[..brace].trim();
        if !head.is_empty() && head.bytes().all(|b| is_ident_byte(b) || b == b':') {
            let ident = head.rsplit("::").next().unwrap_or(head);
            if ident.chars().next().map(char::is_uppercase).unwrap_or(false) {
                return normalize_type(ident);
            }
        }
        return None;
    }
    // A plain local or parameter: look up its binding.
    if expr.bytes().all(is_ident_byte) {
        return binding_type(file, s, &expr);
    }
    None
}

/// Searches the enclosing function (body before `offset`, then the
/// signature) for the type of `var`: `let var: T =`, `let var = Type {`,
/// or a `var: T` parameter.
fn binding_type(file: &SourceFile, offset: usize, var: &str) -> Option<String> {
    let text = &file.text;
    let function = file.function_at(offset)?;
    // `let [mut] var` bindings inside the body, nearest-first.
    let body = &text[function.body_start..offset.min(function.body_end)];
    let needle = var.as_bytes();
    let mut best: Option<usize> = None;
    let mut k = 0usize;
    while k + needle.len() <= body.len() {
        if &body[k..k + needle.len()] == needle
            && (k == 0 || !is_ident_byte(body[k - 1]))
            && !body.get(k + needle.len()).map(|&b| is_ident_byte(b)).unwrap_or(false)
        {
            let before = String::from_utf8_lossy(&body[k.saturating_sub(12)..k]);
            let before = before.trim_end();
            if before.ends_with("let") || before.ends_with("let mut") {
                best = Some(k);
            }
        }
        k += 1;
    }
    if let Some(k) = best {
        let after = function.body_start + k + needle.len();
        let mut j = skip_ws(text, after);
        if text.get(j) == Some(&b':') {
            // `let var: T =` — the annotation up to the `=`.
            let type_start = j + 1;
            let mut depth = 0i32;
            j = type_start;
            while j < function.body_end {
                match text[j] {
                    b'<' => depth += 1,
                    b'>' => depth -= 1,
                    b'=' if depth == 0 => break,
                    b';' => break,
                    _ => {}
                }
                j += 1;
            }
            return annotation_to_type(&String::from_utf8_lossy(&text[type_start..j]));
        }
        if text.get(j) == Some(&b'=') {
            // `let var = Type { …` — an inline struct literal RHS.
            let rhs_start = skip_ws(text, j + 1);
            let mut r = rhs_start;
            while r < function.body_end && (is_ident_byte(text[r]) || text[r] == b':') {
                r += 1;
            }
            let head_end = r;
            r = skip_ws(text, r);
            if text.get(r) == Some(&b'{') && head_end > rhs_start {
                let head = String::from_utf8_lossy(&text[rhs_start..head_end]);
                let ident = head.rsplit("::").next().unwrap_or(&head).to_string();
                if ident.chars().next().map(char::is_uppercase).unwrap_or(false) {
                    return normalize_type(&ident);
                }
            }
            return None;
        }
    }
    // Function parameters: `var: T` between the `fn` signature parens.
    let sig_start = text[..function.body_start]
        .windows(3)
        .rposition(|w| w == b"fn " || w == b"fn\t" || w == b"fn\n")
        .unwrap_or(0);
    let sig = &text[sig_start..function.body_start];
    let mut k = 0usize;
    while k + needle.len() <= sig.len() {
        if &sig[k..k + needle.len()] == needle
            && (k == 0 || !is_ident_byte(sig[k - 1]))
            && sig.get(k + needle.len()).map(|&b| !is_ident_byte(b)).unwrap_or(true)
        {
            let mut j = k + needle.len();
            while j < sig.len() && sig[j].is_ascii_whitespace() {
                j += 1;
            }
            if sig.get(j) == Some(&b':') {
                let type_start = j + 1;
                let mut depth = 0i32;
                let mut t = type_start;
                while t < sig.len() {
                    match sig[t] {
                        b'<' => depth += 1,
                        b'>' if depth > 0 => depth -= 1,
                        b'(' => depth += 1,
                        b')' if depth > 0 => depth -= 1,
                        b')' | b',' if depth == 0 => break,
                        _ => {}
                    }
                    t += 1;
                }
                return normalize_type(&String::from_utf8_lossy(&sig[type_start..t]));
            }
        }
        k += 1;
    }
    None
}

/// Reduces a `let` annotation to the reply type: `Result<T, E>` → `T`,
/// anything else as-is.
pub(crate) fn annotation_to_type(annotation: &str) -> Option<String> {
    let t = annotation.trim();
    let compact: String = t.chars().filter(|c| !c.is_whitespace()).collect();
    if let Some(inner) = compact.strip_prefix("Result<") {
        let mut depth = 0i32;
        for (i, c) in inner.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return normalize_type(&inner[..i]),
                _ => {}
            }
        }
        return None;
    }
    normalize_type(&compact)
}

/// For a call at `word` (the method-name offset), the `let x: T =`
/// annotation of its statement, if the statement has that shape.
fn let_annotation_type(text: &[u8], word: usize) -> Option<String> {
    // Walk back over the receiver chain to the statement start. Commas
    // and parens inside generic arguments (`let r: Result<A, B> = …`)
    // are not statement boundaries, so track angle depth while walking.
    let mut s = word;
    let mut angle = 0i32;
    while s > 0 {
        match text[s - 1] {
            b';' | b'{' | b'}' => break,
            b'>' => {
                angle += 1;
                s -= 1;
            }
            b'<' => {
                angle -= 1;
                s -= 1;
            }
            b'(' | b')' | b',' if angle == 0 => break,
            _ => s -= 1,
        }
    }
    let prefix = String::from_utf8_lossy(&text[s..word]);
    let prefix = prefix.trim();
    let rest = prefix.strip_prefix("let ")?;
    let eq = rest.find('=')?;
    let lhs = &rest[..eq];
    let colon = lhs.find(':')?;
    annotation_to_type(&lhs[colon + 1..])
}

/// Finds the handler closure inside a `register_typed` argument span:
/// returns (params span, body span).
fn closure_in(text: &[u8], start: usize, end: usize) -> Option<((usize, usize), (usize, usize))> {
    let mut depth = 0i32;
    let mut i = start;
    while i < end {
        match text[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'|' if depth == 0 => {
                let params_start = i + 1;
                let mut j = params_start;
                let mut angle = 0i32;
                while j < end {
                    match text[j] {
                        b'<' => angle += 1,
                        b'>' if angle > 0 => angle -= 1,
                        b'|' if angle == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= end {
                    return None;
                }
                let params = (params_start, j);
                let mut b = skip_ws(text, j + 1);
                let body = if text.get(b) == Some(&b'{') {
                    let close = matching_brace(text, b).min(end);
                    (b + 1, close.saturating_sub(1))
                } else {
                    // Expression-bodied closure: to the end of the span.
                    if b > end {
                        b = end;
                    }
                    (b, end)
                };
                return Some((params, body));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Type annotation of the closure's first parameter (`|args: T, ctx|`).
fn closure_first_param_type(text: &[u8], (start, end): (usize, usize)) -> Option<String> {
    let mut i = start;
    // Skip the pattern up to `:`.
    while i < end && text[i] != b':' && text[i] != b',' {
        i += 1;
    }
    if text.get(i) != Some(&b':') {
        return None;
    }
    let type_start = i + 1;
    let mut depth = 0i32;
    let mut j = type_start;
    while j < end {
        match text[j] {
            b'<' | b'(' | b'[' => depth += 1,
            b'>' | b')' | b']' if depth > 0 => depth -= 1,
            b',' if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    normalize_type(&String::from_utf8_lossy(&text[type_start..j]))
}

/// Reply type from the closure body: the unique `Ok(Type { …` (or
/// `Ok(true|false)`) construction, when there is exactly one candidate
/// and no opaque `Ok(expr)` that could be a different type.
fn closure_ok_type(text: &[u8], (start, end): (usize, usize)) -> Option<String> {
    let mut candidates: BTreeSet<String> = BTreeSet::new();
    let mut opaque = false;
    let mut i = start;
    while i + 3 < end {
        if word_at(text, i, "Ok") {
            let mut j = skip_ws(text, i + 2);
            if text.get(j) == Some(&b'(') {
                j = skip_ws(text, j + 1);
                if word_at(text, j, "true") || word_at(text, j, "false") {
                    candidates.insert("bool".to_string());
                } else {
                    let head_start = j;
                    while j < end && (is_ident_byte(text[j]) || text[j] == b':') {
                        j += 1;
                    }
                    let head = String::from_utf8_lossy(&text[head_start..j]);
                    let ident = head.rsplit("::").next().unwrap_or(&head);
                    let next = skip_ws(text, j);
                    if !ident.is_empty()
                        && ident.chars().next().map(char::is_uppercase).unwrap_or(false)
                        && text.get(next) == Some(&b'{')
                    {
                        candidates.insert(ident.to_string());
                    } else {
                        opaque = true;
                    }
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    if opaque || candidates.len() != 1 {
        return None;
    }
    candidates.into_iter().next()
}

// ----------------------------------------------------------------------
// Cross-workspace check
// ----------------------------------------------------------------------

/// Checks the merged contract table for the three mismatch classes:
/// MOCHI006 (kind `unregistered:<rpc>`), MOCHI007 (`dead:<rpc>`) and
/// MOCHI008 (`arg-mismatch:<rpc>` or `reply-mismatch:<rpc>`).
pub fn check(sites: &[RpcSite]) -> Vec<Finding> {
    let issue = |rule, site: &RpcSite, kind: String, message: String| Finding {
        rule,
        file: site.file.clone(),
        function: site.function.clone(),
        kind,
        line: site.line,
        column: site.column,
        message,
        path: Vec::new(),
    };

    let mut registrations: BTreeMap<&str, Vec<&RpcSite>> = BTreeMap::new();
    let mut calls: BTreeMap<&str, Vec<&RpcSite>> = BTreeMap::new();
    for site in sites {
        if let Some(name) = site.name.as_deref() {
            match site.role {
                Role::Register => registrations.entry(name).or_default().push(site),
                Role::Call => calls.entry(name).or_default().push(site),
            }
        }
    }

    let mut issues = Vec::new();

    // (a) Calls naming an RPC no provider registers.
    for (name, call_sites) in &calls {
        if registrations.contains_key(name) {
            continue;
        }
        for call in call_sites {
            issues.push(issue(
                "MOCHI006",
                call,
                format!("unregistered:{name}"),
                format!("`{}` forwards RPC \"{name}\" but no provider registers it", call.via),
            ));
        }
    }

    // (b) Registered RPCs no client ever calls (dead surface).
    for (name, reg_sites) in &registrations {
        if calls.contains_key(name) {
            continue;
        }
        let reg = reg_sites[0];
        issues.push(issue(
            "MOCHI007",
            reg,
            format!("dead:{name}"),
            format!("RPC \"{name}\" is registered but never called from any client"),
        ));
    }

    // (c) Argument / reply type disagreements.
    for (name, call_sites) in &calls {
        let Some(reg_sites) = registrations.get(name) else { continue };
        let reg_args: BTreeSet<&str> = reg_sites
            .iter()
            .filter_map(|r| r.arg_type.as_deref())
            .collect();
        let reg_replies: BTreeSet<&str> = reg_sites
            .iter()
            .filter_map(|r| r.reply_type.as_deref())
            .collect();
        let args_checkable = !reg_args.is_empty() && !reg_args.iter().any(|t| is_wildcard(t));
        let replies_checkable =
            !reg_replies.is_empty() && !reg_replies.iter().any(|t| is_wildcard(t));
        for call in call_sites {
            if args_checkable {
                if let Some(arg) = call.arg_type.as_deref() {
                    if !is_wildcard(arg) && !reg_args.contains(arg) {
                        issues.push(issue(
                            "MOCHI008",
                            call,
                            format!("arg-mismatch:{name}"),
                            format!(
                                "RPC \"{name}\" is called with argument type `{arg}` but registered with `{}`",
                                reg_args.iter().copied().collect::<Vec<_>>().join("` / `")
                            ),
                        ));
                    }
                }
            }
            if replies_checkable {
                if let Some(reply) = call.reply_type.as_deref() {
                    if !is_wildcard(reply) && !reg_replies.contains(reply) {
                        issues.push(issue(
                            "MOCHI008",
                            call,
                            format!("reply-mismatch:{name}"),
                            format!(
                                "RPC \"{name}\" reply is decoded as `{reply}` but the handler replies `{}`",
                                reg_replies.iter().copied().collect::<Vec<_>>().join("` / `")
                            ),
                        ));
                    }
                }
            }
        }
    }

    issues.sort();
    issues
}

// ----------------------------------------------------------------------
// Small shared helpers
// ----------------------------------------------------------------------

pub(crate) fn skip_ws(text: &[u8], mut i: usize) -> usize {
    while i < text.len() && text[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// True when the identifier starting at `i` is a function *definition*
/// (`fn name(` — possibly with whitespace between `fn` and the name).
pub(crate) fn preceded_by_fn_keyword(text: &[u8], i: usize) -> bool {
    let mut p = i;
    while p > 0 && text[p - 1].is_ascii_whitespace() {
        p -= 1;
    }
    p >= 2 && &text[p - 2..p] == b"fn" && (p == 2 || !is_ident_byte(text[p - 3]))
}

/// `::<A, B>` immediately after a method name; advances `j` past it and
/// returns the top-level generic arguments.
pub(crate) fn parse_turbofish(text: &[u8], j: &mut usize) -> Vec<String> {
    let mut k = skip_ws(text, *j);
    if !(text.get(k) == Some(&b':') && text.get(k + 1) == Some(&b':') && text.get(k + 2) == Some(&b'<'))
    {
        return Vec::new();
    }
    k += 3;
    let start = k;
    let mut depth = 1i32;
    let mut parts = Vec::new();
    let mut part_start = start;
    while k < text.len() {
        match text[k] {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    parts.push(String::from_utf8_lossy(&text[part_start..k]).trim().to_string());
                    *j = k + 1;
                    return parts;
                }
            }
            b',' if depth == 1 => {
                parts.push(String::from_utf8_lossy(&text[part_start..k]).trim().to_string());
                part_start = k + 1;
            }
            b'(' | b';' => return Vec::new(), // not a turbofish after all
            _ => {}
        }
        k += 1;
    }
    Vec::new()
}

/// Splits an argument span at depth-0 commas (parens, brackets, braces).
pub(crate) fn split_args(text: &[u8], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut arg_start = start;
    let mut i = start;
    while i < end {
        match text[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                args.push((arg_start, i));
                arg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if arg_start < end || !args.is_empty() {
        args.push((arg_start, end));
    }
    // An empty single span (`()`) is zero arguments.
    if args.len() == 1 {
        let (s, e) = args[0];
        if text[s..e].iter().all(u8::is_ascii_whitespace) {
            return Vec::new();
        }
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn workspace(files: &[(&str, &str)]) -> (Vec<SourceFile>, ConstTable) {
        let parsed: Vec<SourceFile> =
            files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let consts = ConstTable::build(&parsed);
        (parsed, consts)
    }

    fn all_sites(files: &[(&str, &str)]) -> Vec<RpcSite> {
        let (parsed, consts) = workspace(files);
        parsed.iter().flat_map(|f| sites(f, &consts)).collect()
    }

    const PROVIDER: &str = r#"
pub mod rpc { pub const PUT: &str = "demo_put"; pub const GET: &str = "demo_get"; }
fn register(margo: &M) {
    margo.register_typed(rpc::PUT, 1, None, move |args: PutArgs, _| Ok(PutReply { n: 0 }));
    margo.register_typed(rpc::GET, 1, None, move |args: GetArgs, _| Ok(true));
}
"#;

    #[test]
    fn const_table_resolves_same_crate_first() {
        let (_, consts) = workspace(&[
            ("crates/a/src/lib.rs", "pub const X: &str = \"a_x\";"),
            ("crates/b/src/lib.rs", "pub const X: &str = \"b_x\";"),
        ]);
        assert_eq!(consts.resolve("a", "X"), Some("a_x"));
        assert_eq!(consts.resolve("b", "X"), Some("b_x"));
        // Ambiguous from a third crate: two values, no same-crate def.
        assert_eq!(consts.resolve("c", "X"), None);
    }

    #[test]
    fn register_and_forward_sites_extracted_with_types() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn put(&self) { let r: Result<PutReply, E> = self.margo.forward_timeout(&self.addr, rpc::PUT, 1, &PutArgs { n: 1 }, t); }\nfn get(&self) { let _: bool = self.margo.forward(&self.addr, rpc::GET, 1, &GetArgs { n: 1 })?; }",
            ),
        ]);
        let reg_put = found
            .iter()
            .find(|s| s.role == Role::Register && s.name.as_deref() == Some("demo_put"))
            .expect("put registration");
        assert_eq!(reg_put.arg_type.as_deref(), Some("PutArgs"));
        assert_eq!(reg_put.reply_type.as_deref(), Some("PutReply"));
        let call_put = found
            .iter()
            .find(|s| s.role == Role::Call && s.name.as_deref() == Some("demo_put"))
            .expect("put call");
        assert_eq!(call_put.arg_type.as_deref(), Some("PutArgs"));
        assert_eq!(call_put.reply_type.as_deref(), Some("PutReply"));
        let issues = check(&found);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn unregistered_call_detected() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "fn f(&self) { let _: bool = self.margo.forward(&a, \"demo_missing\", 1, &())?; let _: bool = self.margo.forward(&a, \"demo_put\", 1, &())?; let _: bool = self.margo.forward(&a, \"demo_get\", 1, &())?; }",
            ),
        ]);
        let issues = check(&found);
        assert!(
            issues.iter().any(|i| i.kind == "unregistered:demo_missing"),
            "{issues:?}"
        );
    }

    #[test]
    fn dead_surface_detected() {
        let found = all_sites(&[("crates/demo/src/provider.rs", PROVIDER)]);
        let issues = check(&found);
        assert!(issues.iter().any(|i| i.kind == "dead:demo_put"), "{issues:?}");
        assert!(issues.iter().any(|i| i.kind == "dead:demo_get"), "{issues:?}");
    }

    #[test]
    fn arg_type_mismatch_detected() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn f(&self) { let _: PutReply = self.margo.forward(&a, rpc::PUT, 1, &GetArgs { n: 1 })?; let _: bool = self.margo.forward(&a, rpc::GET, 1, &GetArgs { n: 1 })?; }",
            ),
        ]);
        let issues = check(&found);
        assert!(issues.iter().any(|i| i.kind == "arg-mismatch:demo_put"), "{issues:?}");
        assert!(!issues.iter().any(|i| i.kind.starts_with("arg-mismatch:demo_get")));
    }

    #[test]
    fn reply_type_mismatch_detected() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn f(&self) { let _: WrongReply = self.margo.forward(&a, rpc::PUT, 1, &PutArgs { n: 1 })?; }",
            ),
        ]);
        let issues = check(&found);
        assert!(issues.iter().any(|i| i.kind == "reply-mismatch:demo_put"), "{issues:?}");
    }

    #[test]
    fn handler_macro_and_call_wrapper_match() {
        let found = all_sites(&[
            (
                "crates/bed/src/server.rs",
                "pub mod proto { pub const GET: &str = \"bed_get\"; }\nfn register_rpcs(&self) { handler!(proto::GET, proto::GetArgs, |server, a| { Ok(json!(true)) }); }",
            ),
            (
                "crates/bed/src/client.rs",
                "fn get(&self) { self.call::<_, Value>(proto::GET, &proto::GetArgs { n: 1 }).map(|_| ()) }",
            ),
        ]);
        let reg = found.iter().find(|s| s.role == Role::Register).expect("handler! site");
        assert_eq!(reg.name.as_deref(), Some("bed_get"));
        assert_eq!(reg.arg_type.as_deref(), Some("GetArgs"));
        let call = found.iter().find(|s| s.role == Role::Call).expect("call site");
        assert_eq!(call.name.as_deref(), Some("bed_get"));
        assert_eq!(call.arg_type.as_deref(), Some("GetArgs"));
        assert!(check(&found).is_empty());
    }

    #[test]
    fn call_raw_wrapper_counts_as_client_use() {
        // The pre-encoded chokepoint (`call_raw` in the yokan/warabi
        // clients) carries no typed input, but it must still keep the
        // RPC's surface alive and resolve the name through the consts.
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn put(&self) { let frame = self.call_raw(rpc::PUT, payload)?; }\nfn get(&self) { let _: bool = self.call(rpc::GET, &GetArgs { n: 1 })?; }",
            ),
        ]);
        let raw = found
            .iter()
            .find(|s| s.role == Role::Call && s.name.as_deref() == Some("demo_put"))
            .expect("call_raw site");
        assert!(raw.arg_type.is_none());
        let issues = check(&found);
        assert!(!issues.iter().any(|i| i.kind.starts_with("dead:")), "{issues:?}");
    }

    #[test]
    fn fabric_register_and_constructors_do_not_match() {
        let found = all_sites(&[(
            "crates/mercury/src/fabric.rs",
            "fn f(&self) { fabric.register(addr); let p = RemiProvider::register(&margo, 1, &dir, None); }",
        )]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unresolved_plumbing_sites_recorded_without_findings() {
        let found = all_sites(&[(
            "crates/margo/src/runtime.rs",
            "impl R { pub fn forward_timeout<I, O>(&self, dest: &Address, rpc_name: &str, pid: u16, input: &I, t: Duration) -> Result<O, E> { self.forward_full(dest, rpc_name, pid, input, CallContext::TOP_LEVEL, t) } }",
        )]);
        assert_eq!(found.len(), 1);
        assert!(found[0].name.is_none());
        assert_eq!(found[0].name_expr, "rpc_name");
        assert!(check(&found).is_empty());
    }

    #[test]
    fn rpc_id_for_name_counts_as_client_use() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn ids(&self) { let put = self.margo.rpc_id_for_name(rpc::PUT); let get = self.margo.rpc_id_for_name(rpc::GET); }",
            ),
        ]);
        let issues = check(&found);
        assert!(!issues.iter().any(|i| i.kind.starts_with("dead:")), "{issues:?}");
    }

    #[test]
    fn normalizes_types() {
        assert_eq!(normalize_type("&proto::QueryArgs").as_deref(), Some("QueryArgs"));
        assert_eq!(normalize_type("serde_json::Value").as_deref(), Some("Value"));
        assert_eq!(normalize_type("Vec<u8>").as_deref(), Some("Vec<u8>"));
        assert_eq!(normalize_type("Vec<proto::Item>").as_deref(), Some("Vec<Item>"));
        assert_eq!(normalize_type("&'static str").as_deref(), Some("str"));
        assert_eq!(normalize_type("_"), None);
        assert_eq!(normalize_type("()").as_deref(), Some("()"));
    }
}
