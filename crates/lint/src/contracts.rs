//! The workspace RPC table.
//!
//! Every client `forward("name")` / provider `margo.register("name")`
//! pair is a dynamically-bound contract the Rust type system cannot see
//! across crates. This module rebuilds the table of those sites:
//!
//! 1. a **constant table** maps every `pub const NAME: &str = "…"` to its
//!    value, so call sites that name RPCs through the per-crate
//!    `rpc_names` modules resolve exactly like string literals;
//! 2. every registration site (`register`, `register_typed`, and the
//!    Bedrock `handler!` wrapper macro) and every call site (the
//!    `forward` family, `notify`, `rpc_id_for_name`, the Bedrock
//!    `ServiceHandle::call` wrapper, and the service-client
//!    `call`/`call_raw`/`post`/`post_raw` chokepoints) is extracted with
//!    its resolved name.
//!
//! The table itself reports nothing: the registration sites are the
//! entry points of the call-graph walks ([`crate::deadline`],
//! [`crate::retry`]), and `tests/lint_gate.rs` spot-checks the names.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{column_of, is_ident_byte, line_of, matching_paren, word_at};
use crate::rawforward::FORWARD_FAMILY;
use crate::source::SourceFile;

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
    Callee { name: "register_typed", role: Role::Register, name_arg: 0, min_args: 3, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "register", role: Role::Register, name_arg: 0, min_args: 3, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "handler", role: Role::Register, name_arg: 0, min_args: 2, is_macro: true, requires_resolution: false, allow_free: false },
    Callee { name: "notify", role: Role::Call, name_arg: 1, min_args: 4, is_macro: false, requires_resolution: false, allow_free: false },
    Callee { name: "rpc_id_for_name", role: Role::Call, name_arg: 0, min_args: 1, is_macro: false, requires_resolution: false, allow_free: true },
    Callee { name: "call", role: Role::Call, name_arg: 0, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "call_raw", role: Role::Call, name_arg: 0, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "post", role: Role::Call, name_arg: 0, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
    Callee { name: "post_raw", role: Role::Call, name_arg: 0, min_args: 2, is_macro: false, requires_resolution: true, allow_free: false },
];

/// The callee table: [`FIXED_CALLEES`] and one entry per forward-family
/// method — `(dest, name, provider_id, input | payload, …)`.
fn callees() -> impl Iterator<Item = Callee> {
    let forwards = FORWARD_FAMILY.iter().map(|&name| Callee {
        name,
        role: Role::Call,
        name_arg: 1,
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
            skip_turbofish(text, &mut j);
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
            if let Some(site) = build_site(file, consts, &callee, i, &args) {
                out.push(site);
            }
            i = j + 1;
        }
    }
    out.sort();
    out
}

fn build_site(
    file: &SourceFile,
    consts: &ConstTable,
    callee: &Callee,
    word: usize,
    args: &[(usize, usize)],
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
// Small shared helpers
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

/// Advances `j` past a `::<A, B>` immediately after a method name, if
/// one is there.
pub(crate) fn skip_turbofish(text: &[u8], j: &mut usize) {
    let mut k = skip_ws(text, *j);
    if !text[k..].starts_with(b"::<") {
        return;
    }
    k += 3;
    let mut depth = 1i32;
    while k < text.len() {
        match text[k] {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    *j = k + 1;
                    return;
                }
            }
            b'(' | b';' => return, // not a turbofish after all
            _ => {}
        }
        k += 1;
    }
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

    /// The `(role, via)` of every site that resolved to `name`.
    fn sites_named<'a>(found: &'a [RpcSite], name: &str) -> Vec<(Role, &'a str)> {
        found
            .iter()
            .filter(|s| s.name.as_deref() == Some(name))
            .map(|s| (s.role, s.via.as_str()))
            .collect()
    }

    #[test]
    fn register_and_forward_sites_extracted() {
        let found = all_sites(&[
            ("crates/demo/src/provider.rs", PROVIDER),
            (
                "crates/demo/src/client.rs",
                "use crate::provider::rpc;\nfn put(&self) { let r: Result<PutReply, E> = self.margo.forward_timeout(&self.addr, rpc::PUT, 1, &PutArgs { n: 1 }, t); }\nfn get(&self) { let _: bool = self.margo.forward::<_, bool>(&self.addr, \"demo_get\", 1, &GetArgs { n: 1 })?; }",
            ),
        ]);
        assert_eq!(
            sites_named(&found, "demo_put"),
            vec![(Role::Register, "register_typed"), (Role::Call, "forward_timeout")]
        );
        assert_eq!(
            sites_named(&found, "demo_get"),
            vec![(Role::Register, "register_typed"), (Role::Call, "forward")]
        );
        let call = found.iter().find(|s| s.via == "forward_timeout").expect("put call");
        assert_eq!((call.function.as_str(), call.name_expr.as_str()), ("put", "rpc::PUT"));
    }

    #[test]
    fn handler_macro_and_call_wrappers_resolve_through_the_consts() {
        let found = all_sites(&[
            (
                "crates/bed/src/server.rs",
                "pub mod proto { pub const GET: &str = \"bed_get\"; pub const PUT: &str = \"bed_put\"; }\nfn register_rpcs(&self) { handler!(proto::GET, proto::GetArgs, |server, a| { Ok(json!(true)) }); handler!(proto::PUT, proto::PutArgs, |server, a| { Ok(json!(true)) }); }",
            ),
            (
                "crates/bed/src/client.rs",
                "fn get(&self) { self.call::<_, Value>(proto::GET, &proto::GetArgs { n: 1 }).map(|_| ()) }\nfn put(&self) { let frame = self.call_raw(proto::PUT, payload)?; let id = self.margo.rpc_id_for_name(proto::PUT); }\nfn dynamic(&self, name: &str) { self.call_raw(name, payload) }",
            ),
        ]);
        assert_eq!(sites_named(&found, "bed_get"), vec![(Role::Register, "handler!"), (Role::Call, "call")]);
        assert_eq!(
            sites_named(&found, "bed_put"),
            vec![(Role::Register, "handler!"), (Role::Call, "call_raw"), (Role::Call, "rpc_id_for_name")]
        );
        // A wrapper whose name does not resolve is somebody's unrelated
        // `call`: not recorded.
        assert_eq!(found.len(), 5, "{found:?}");
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
    fn unresolved_plumbing_sites_are_recorded_unnamed() {
        let found = all_sites(&[(
            "crates/margo/src/runtime.rs",
            "impl R { pub fn forward_timeout<I, O>(&self, dest: &Address, rpc_name: &str, pid: u16, input: &I, t: Duration) -> Result<O, E> { self.forward_full(dest, rpc_name, pid, input, CallContext::TOP_LEVEL, t) } }",
        )]);
        assert_eq!(found.len(), 1);
        assert!(found[0].name.is_none());
        assert_eq!(found[0].name_expr, "rpc_name");
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
