//! Offline stand-in for `serde_derive`.
//!
//! `#[derive(Serialize, Deserialize)]` for the shapes mochi-rs declares:
//! non-generic structs (named, tuple, newtype, unit) and externally tagged
//! enums (unit, newtype, tuple and struct variants), with the attributes
//! `rename`, `rename_all`, `default`, `default = "path"`,
//! `skip_serializing_if` and the container pair
//! `try_from = ".." / into = ".."`.
//!
//! No `syn`/`quote` (neither is available offline): the input is walked as
//! raw token trees and the impls are generated as source text. Field types
//! are never needed — the generated code lets inference fill them in.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;
use std::iter::Peekable;

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

#[derive(Default, Clone)]
struct Attrs {
    rename: Option<String>,
    rename_all: Option<String>,
    /// `Some(None)` is `default`, `Some(Some(path))` is `default = "path"`.
    default: Option<Option<String>>,
    skip_serializing_if: Option<String>,
    try_from: Option<String>,
    into: Option<String>,
}

struct Field {
    /// Rust identifier (named fields) or tuple index.
    member: String,
    /// Name in the serialized form.
    key: String,
    attrs: Attrs,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(Vec<Field>),
    Unit,
}

struct Variant {
    ident: String,
    key: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

struct Input {
    ident: String,
    attrs: Attrs,
    body: Body,
}

// ------------------------------------------------------------------ parsing

fn unquote(literal: &str) -> String {
    let inner = literal
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or_else(|| panic!("serde attribute value must be a plain string, got {literal}"));
    inner.replace("\\\"", "\"").replace("\\\\", "\\")
}

fn parse_serde_meta(stream: TokenStream, attrs: &mut Attrs) {
    let mut tokens = stream.into_iter().peekable();
    while let Some(token) = tokens.next() {
        let TokenTree::Ident(name) = token else {
            continue;
        };
        let name = name.to_string();
        let mut value = None;
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            tokens.next();
            match tokens.next() {
                Some(TokenTree::Literal(lit)) => value = Some(unquote(&lit.to_string())),
                other => panic!("serde({name} = ..) expects a string literal, got {other:?}"),
            }
        }
        match (name.as_str(), value) {
            ("rename", Some(v)) => attrs.rename = Some(v),
            ("rename_all", Some(v)) => attrs.rename_all = Some(v),
            ("default", v) => attrs.default = Some(v),
            ("skip_serializing_if", Some(v)) => attrs.skip_serializing_if = Some(v),
            ("try_from", Some(v)) => attrs.try_from = Some(v),
            ("into", Some(v)) => attrs.into = Some(v),
            ("deny_unknown_fields", None) => {}
            (other, _) => panic!("serde attribute `{other}` is not supported by the offline shim"),
        }
    }
}

/// Consumes leading `#[...]` attributes, keeping what `#[serde(...)]` says.
fn parse_attrs(tokens: &mut Tokens) -> Attrs {
    let mut attrs = Attrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            panic!("expected [...] after #");
        };
        let mut inner = group.stream().into_iter();
        if let Some(TokenTree::Ident(ident)) = inner.next() {
            if ident.to_string() == "serde" {
                if let Some(TokenTree::Group(meta)) = inner.next() {
                    parse_serde_meta(meta.stream(), &mut attrs);
                }
            }
        }
    }
    attrs
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Skips a type (or discriminant expression) up to and including the comma
/// that ends it. Commas inside `<...>` belong to the type.
fn skip_to_comma(tokens: &mut Tokens) {
    let mut depth = 0usize;
    let mut after_dash = false;
    for token in tokens.by_ref() {
        if let TokenTree::Punct(p) = &token {
            match p.as_char() {
                ',' if depth == 0 => return,
                '<' => depth += 1,
                '>' if !after_dash => depth = depth.saturating_sub(1),
                _ => {}
            }
            after_dash = p.as_char() == '-';
        } else {
            after_dash = false;
        }
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = parse_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            break;
        };
        let member = ident.to_string();
        let key = member.strip_prefix("r#").unwrap_or(&member).to_string();
        skip_to_comma(&mut tokens);
        fields.push(Field { member, key, attrs });
    }
    fields
}

fn parse_tuple_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = parse_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        if tokens.peek().is_none() {
            break;
        }
        skip_to_comma(&mut tokens);
        let index = fields.len().to_string();
        fields.push(Field {
            member: index.clone(),
            key: index,
            attrs,
        });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<(Attrs, String, Shape)> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let attrs = parse_attrs(&mut tokens);
        let Some(TokenTree::Ident(ident)) = tokens.next() else {
            break;
        };
        let shape = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let shape = Shape::Tuple(parse_tuple_fields(g.stream()));
                tokens.next();
                shape
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let shape = Shape::Named(parse_named_fields(g.stream()));
                tokens.next();
                shape
            }
            _ => Shape::Unit,
        };
        skip_to_comma(&mut tokens);
        variants.push((attrs, ident.to_string(), shape));
    }
    variants
}

fn split_words(ident: &str) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for part in ident.split('_').filter(|p| !p.is_empty()) {
        let mut current = String::new();
        for ch in part.chars() {
            if ch.is_uppercase() && !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
            current.extend(ch.to_lowercase());
        }
        if !current.is_empty() {
            words.push(current);
        }
    }
    words
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

fn apply_rename_all(rule: &str, ident: &str) -> String {
    let words = split_words(ident);
    match rule {
        "lowercase" => words.concat(),
        "UPPERCASE" => words.concat().to_uppercase(),
        "snake_case" => words.join("_"),
        "SCREAMING_SNAKE_CASE" => words.join("_").to_uppercase(),
        "kebab-case" => words.join("-"),
        "SCREAMING-KEBAB-CASE" => words.join("-").to_uppercase(),
        "PascalCase" => words.iter().map(|w| capitalize(w)).collect(),
        "camelCase" => words
            .iter()
            .enumerate()
            .map(|(i, w)| if i == 0 { w.clone() } else { capitalize(w) })
            .collect(),
        other => panic!("unknown rename_all rule {other:?}"),
    }
}

fn name_fields(shape: &mut Shape, rename_all: Option<&str>) {
    if let Shape::Named(fields) = shape {
        for field in fields {
            if let Some(rename) = &field.attrs.rename {
                field.key = rename.clone();
            } else if let Some(rule) = rename_all {
                field.key = apply_rename_all(rule, &field.key);
            }
        }
    }
}

fn parse_input(input: TokenStream) -> Input {
    let mut tokens = input.into_iter().peekable();
    let attrs = parse_attrs(&mut tokens);
    skip_visibility(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("expected struct or enum, got {other:?}"),
    };
    let ident = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => panic!("expected a type name, got {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("the offline serde_derive shim does not support generic type `{ident}`");
    }
    let rename_all = attrs.rename_all.as_deref();
    let body = match (keyword.as_str(), tokens.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let mut shape = Shape::Named(parse_named_fields(g.stream()));
            name_fields(&mut shape, rename_all);
            Body::Struct(shape)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(parse_tuple_fields(g.stream())))
        }
        ("struct", _) => Body::Struct(Shape::Unit),
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => Body::Enum(
            parse_variants(g.stream())
                .into_iter()
                .map(|(vattrs, ident, mut shape)| {
                    name_fields(&mut shape, vattrs.rename_all.as_deref());
                    let key = match (&vattrs.rename, rename_all) {
                        (Some(rename), _) => rename.clone(),
                        (None, Some(rule)) => apply_rename_all(rule, &ident),
                        (None, None) => ident.clone(),
                    };
                    Variant { ident, key, shape }
                })
                .collect(),
        ),
        (other, _) => panic!("cannot derive serde traits for `{other} {ident}`"),
    };
    Input { ident, attrs, body }
}

// ---------------------------------------------------------------- Serialize

/// Statements serializing named `fields` through `__state` with the given
/// `SerializeStruct`-like trait; `access` maps a field to an expression of
/// type `&FieldType`.
fn ser_named_fields(
    out: &mut String,
    trait_path: &str,
    fields: &[Field],
    access: impl Fn(&Field) -> String,
) {
    for field in fields {
        let value = access(field);
        let key = &field.key;
        match &field.attrs.skip_serializing_if {
            Some(pred) => {
                let _ = write!(
                    out,
                    "if {pred}({value}) {{ {trait_path}::skip_field(&mut __state, {key:?})?; }} \
                     else {{ {trait_path}::serialize_field(&mut __state, {key:?}, {value})?; }}\n"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{trait_path}::serialize_field(&mut __state, {key:?}, {value})?;"
                );
            }
        }
    }
}

/// Expression counting the fields that will be written.
fn ser_len(fields: &[Field], access: impl Fn(&Field) -> String) -> String {
    let mut expr = String::from("0usize");
    for field in fields {
        match &field.attrs.skip_serializing_if {
            Some(pred) => {
                let _ = write!(expr, " + if {pred}({}) {{ 0 }} else {{ 1 }}", access(field));
            }
            None => expr.push_str(" + 1"),
        }
    }
    expr
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.ident;
    let mut body = String::new();
    if let Some(into) = &input.attrs.into {
        let _ = write!(
            body,
            "let __converted: {into} = ::core::convert::Into::into(::core::clone::Clone::clone(self));\n\
             ::serde::Serialize::serialize(&__converted, __serializer)"
        );
    } else {
        match &input.body {
            Body::Struct(Shape::Unit) => {
                let _ = write!(
                    body,
                    "::serde::Serializer::serialize_unit_struct(__serializer, {name:?})"
                );
            }
            Body::Struct(Shape::Tuple(fields)) if fields.len() == 1 => {
                let _ = write!(
                    body,
                    "::serde::Serializer::serialize_newtype_struct(__serializer, {name:?}, &self.0)"
                );
            }
            Body::Struct(Shape::Tuple(fields)) => {
                let _ = writeln!(
                    body,
                    "let mut __state = ::serde::Serializer::serialize_tuple_struct(__serializer, {name:?}, {})?;",
                    fields.len()
                );
                for field in fields {
                    let _ = writeln!(
                        body,
                        "::serde::ser::SerializeTupleStruct::serialize_field(&mut __state, &self.{})?;",
                        field.member
                    );
                }
                body.push_str("::serde::ser::SerializeTupleStruct::end(__state)");
            }
            Body::Struct(Shape::Named(fields)) => {
                let access = |f: &Field| format!("&self.{}", f.member);
                let _ = writeln!(
                    body,
                    "let mut __state = ::serde::Serializer::serialize_struct(__serializer, {name:?}, {})?;",
                    ser_len(fields, access)
                );
                ser_named_fields(&mut body, "::serde::ser::SerializeStruct", fields, access);
                body.push_str("::serde::ser::SerializeStruct::end(__state)");
            }
            Body::Enum(variants) => {
                body.push_str("match self {\n");
                for (index, variant) in variants.iter().enumerate() {
                    let vident = &variant.ident;
                    let key = &variant.key;
                    match &variant.shape {
                        Shape::Unit => {
                            let _ = writeln!(
                                body,
                                "{name}::{vident} => ::serde::Serializer::serialize_unit_variant(__serializer, {name:?}, {index}u32, {key:?}),"
                            );
                        }
                        Shape::Tuple(fields) if fields.len() == 1 => {
                            let _ = writeln!(
                                body,
                                "{name}::{vident}(__f0) => ::serde::Serializer::serialize_newtype_variant(__serializer, {name:?}, {index}u32, {key:?}, __f0),"
                            );
                        }
                        Shape::Tuple(fields) => {
                            let binds: Vec<String> =
                                (0..fields.len()).map(|i| format!("__f{i}")).collect();
                            let _ = writeln!(
                                body,
                                "{name}::{vident}({}) => {{\nlet mut __state = ::serde::Serializer::serialize_tuple_variant(__serializer, {name:?}, {index}u32, {key:?}, {})?;",
                                binds.join(", "),
                                fields.len()
                            );
                            for bind in &binds {
                                let _ = writeln!(
                                    body,
                                    "::serde::ser::SerializeTupleVariant::serialize_field(&mut __state, {bind})?;"
                                );
                            }
                            body.push_str("::serde::ser::SerializeTupleVariant::end(__state)\n}\n");
                        }
                        Shape::Named(fields) => {
                            let binds: Vec<String> = fields
                                .iter()
                                .enumerate()
                                .map(|(i, f)| format!("{}: __f{i}", f.member))
                                .collect();
                            let access = |f: &Field| {
                                let i = fields
                                    .iter()
                                    .position(|g| g.member == f.member)
                                    .unwrap_or_default();
                                format!("__f{i}")
                            };
                            let _ = writeln!(
                                body,
                                "{name}::{vident} {{ {} }} => {{\nlet mut __state = ::serde::Serializer::serialize_struct_variant(__serializer, {name:?}, {index}u32, {key:?}, {})?;",
                                binds.join(", "),
                                ser_len(fields, access)
                            );
                            ser_named_fields(
                                &mut body,
                                "::serde::ser::SerializeStructVariant",
                                fields,
                                access,
                            );
                            body.push_str(
                                "::serde::ser::SerializeStructVariant::end(__state)\n}\n",
                            );
                        }
                    }
                }
                body.push_str("}");
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, unused_mut, clippy::all)]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}\n"
    )
}

// -------------------------------------------------------------- Deserialize

/// Expression for a field the input did not carry.
fn missing_expr(field: &Field, container_default: bool) -> String {
    match &field.attrs.default {
        Some(Some(path)) => format!("{path}()"),
        Some(None) => "::core::default::Default::default()".to_string(),
        None if container_default => format!("__default.{}", field.member),
        None => format!("::serde::__private::missing_field({:?})?", field.key),
    }
}

/// `struct __Visitor` + `impl Visitor` building `ctor` (a struct name or
/// `Enum::Variant` path) of type `value_ty` from named `fields`.
fn de_named_visitor(
    value_ty: &str,
    ctor: &str,
    expecting: &str,
    fields: &[Field],
    container_default: bool,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "struct __Visitor;\n\
         impl<'de> ::serde::de::Visitor<'de> for __Visitor {{\n\
         type Value = {value_ty};\n\
         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
         ::core::fmt::Formatter::write_str(__f, {expecting:?})\n}}\n"
    );
    let default_stmt = if container_default {
        format!("let __default: {value_ty} = ::core::default::Default::default();\n")
    } else {
        String::new()
    };
    let build: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{}: __f{i}", f.member))
        .collect();
    let build = build.join(", ");

    // Positional form, for formats that write structs as sequences.
    let _ = write!(
        out,
        "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
         -> ::core::result::Result<{value_ty}, __A::Error> {{\n{default_stmt}"
    );
    for (i, field) in fields.iter().enumerate() {
        let _ = writeln!(
            out,
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{\n\
             ::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => {},\n}};",
            missing_expr(field, container_default)
        );
    }
    let _ = write!(
        out,
        "::core::result::Result::Ok({ctor} {{ {build} }})\n}}\n"
    );

    // Keyed form.
    let _ = write!(
        out,
        "fn visit_map<__A: ::serde::de::MapAccess<'de>>(self, mut __map: __A) \
         -> ::core::result::Result<{value_ty}, __A::Error> {{\n{default_stmt}"
    );
    for i in 0..fields.len() {
        let _ = writeln!(out, "let mut __f{i} = ::core::option::Option::None;");
    }
    out.push_str(
        "while let ::core::option::Option::Some(__key) = \
         ::serde::de::MapAccess::next_key::<::serde::__private::Key<'de>>(&mut __map)? {\n\
         match __key.as_str() {\n",
    );
    for (i, field) in fields.iter().enumerate() {
        let key = &field.key;
        let _ = write!(
            out,
            "{key:?} => {{\n\
             if ::core::option::Option::is_some(&__f{i}) {{\n\
             return ::core::result::Result::Err(<__A::Error as ::serde::de::Error>::duplicate_field({key:?}));\n}}\n\
             __f{i} = ::core::option::Option::Some(::serde::de::MapAccess::next_value(&mut __map)?);\n}}\n"
        );
    }
    out.push_str(
        "_ => { ::serde::de::MapAccess::next_value::<::serde::de::IgnoredAny>(&mut __map)?; }\n}\n}\n",
    );
    for (i, field) in fields.iter().enumerate() {
        let _ = writeln!(
            out,
            "let __f{i} = match __f{i} {{\n\
             ::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => {},\n}};",
            missing_expr(field, container_default)
        );
    }
    let _ = write!(
        out,
        "::core::result::Result::Ok({ctor} {{ {build} }})\n}}\n}}\n"
    );
    out
}

/// Visitor building `ctor(..)` from a sequence of `count` elements.
fn de_tuple_visitor(value_ty: &str, ctor: &str, expecting: &str, count: usize) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "struct __Visitor;\n\
         impl<'de> ::serde::de::Visitor<'de> for __Visitor {{\n\
         type Value = {value_ty};\n\
         fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
         ::core::fmt::Formatter::write_str(__f, {expecting:?})\n}}\n"
    );
    if count == 1 {
        let _ = write!(
            out,
            "fn visit_newtype_struct<__D: ::serde::Deserializer<'de>>(self, __d: __D) \
             -> ::core::result::Result<{value_ty}, __D::Error> {{\n\
             ::core::result::Result::map(::serde::Deserialize::deserialize(__d), {ctor})\n}}\n"
        );
    }
    let _ = write!(
        out,
        "fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
         -> ::core::result::Result<{value_ty}, __A::Error> {{\n"
    );
    for i in 0..count {
        let _ = writeln!(
            out,
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{\n\
             ::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => return ::core::result::Result::Err(\
             <__A::Error as ::serde::de::Error>::invalid_length({i}usize, &self)),\n}};"
        );
    }
    let args: Vec<String> = (0..count).map(|i| format!("__f{i}")).collect();
    let _ = write!(
        out,
        "::core::result::Result::Ok({ctor}({}))\n}}\n}}\n",
        args.join(", ")
    );
    out
}

fn str_array(names: impl Iterator<Item = String>) -> String {
    let quoted: Vec<String> = names.map(|n| format!("{n:?}")).collect();
    format!("&[{}]", quoted.join(", "))
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.ident;
    let container_default = input.attrs.default.is_some();
    let mut body = String::new();
    if let Some(try_from) = &input.attrs.try_from {
        let _ = write!(
            body,
            "let __raw = <{try_from} as ::serde::Deserialize>::deserialize(__deserializer)?;\n\
             ::core::result::Result::map_err(\
             <{name} as ::core::convert::TryFrom<{try_from}>>::try_from(__raw), \
             <__D::Error as ::serde::de::Error>::custom)"
        );
    } else {
        match &input.body {
            Body::Struct(Shape::Unit) => {
                let _ = write!(
                    body,
                    "struct __Visitor;\n\
                     impl<'de> ::serde::de::Visitor<'de> for __Visitor {{\n\
                     type Value = {name};\n\
                     fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                     ::core::fmt::Formatter::write_str(__f, \"unit struct {name}\")\n}}\n\
                     fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<{name}, __E> {{\n\
                     ::core::result::Result::Ok({name})\n}}\n}}\n\
                     ::serde::Deserializer::deserialize_unit_struct(__deserializer, {name:?}, __Visitor)"
                );
            }
            Body::Struct(Shape::Tuple(fields)) => {
                let count = fields.len();
                body.push_str(&de_tuple_visitor(
                    name,
                    name,
                    &format!("tuple struct {name}"),
                    count,
                ));
                if count == 1 {
                    let _ = write!(
                        body,
                        "::serde::Deserializer::deserialize_newtype_struct(__deserializer, {name:?}, __Visitor)"
                    );
                } else {
                    let _ = write!(
                        body,
                        "::serde::Deserializer::deserialize_tuple_struct(__deserializer, {name:?}, {count}usize, __Visitor)"
                    );
                }
            }
            Body::Struct(Shape::Named(fields)) => {
                body.push_str(&de_named_visitor(
                    name,
                    name,
                    &format!("struct {name}"),
                    fields,
                    container_default,
                ));
                let _ = write!(
                    body,
                    "const __FIELDS: &[&str] = {};\n\
                     ::serde::Deserializer::deserialize_struct(__deserializer, {name:?}, __FIELDS, __Visitor)",
                    str_array(fields.iter().map(|f| f.key.clone()))
                );
            }
            Body::Enum(variants) => {
                let _ = write!(
                    body,
                    "const __VARIANTS: &[&str] = {};\n\
                     struct __EnumVisitor;\n\
                     impl<'de> ::serde::de::Visitor<'de> for __EnumVisitor {{\n\
                     type Value = {name};\n\
                     fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{\n\
                     ::core::fmt::Formatter::write_str(__f, \"enum {name}\")\n}}\n\
                     fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
                     -> ::core::result::Result<{name}, __A::Error> {{\n\
                     let (__key, __variant) = \
                     ::serde::de::EnumAccess::variant::<::serde::__private::Key<'de>>(__data)?;\n\
                     match __key.as_str() {{\n",
                    str_array(variants.iter().map(|v| v.key.clone()))
                );
                for variant in variants {
                    let vident = &variant.ident;
                    let key = &variant.key;
                    let ctor = format!("{name}::{vident}");
                    match &variant.shape {
                        Shape::Unit => {
                            let _ = writeln!(
                                body,
                                "{key:?} => {{\n::serde::de::VariantAccess::unit_variant(__variant)?;\n\
                                 ::core::result::Result::Ok({ctor})\n}}"
                            );
                        }
                        Shape::Tuple(fields) if fields.len() == 1 => {
                            let _ = writeln!(
                                body,
                                "{key:?} => ::core::result::Result::map(\
                                 ::serde::de::VariantAccess::newtype_variant(__variant), {ctor}),"
                            );
                        }
                        Shape::Tuple(fields) => {
                            let _ = writeln!(
                                body,
                                "{key:?} => {{\n{}\
                                 ::serde::de::VariantAccess::tuple_variant(__variant, {}usize, __Visitor)\n}}",
                                de_tuple_visitor(
                                    name,
                                    &ctor,
                                    &format!("tuple variant {ctor}"),
                                    fields.len()
                                ),
                                fields.len()
                            );
                        }
                        Shape::Named(fields) => {
                            let _ = writeln!(
                                body,
                                "{key:?} => {{\n{}\
                                 const __FIELDS: &[&str] = {};\n\
                                 ::serde::de::VariantAccess::struct_variant(__variant, __FIELDS, __Visitor)\n}}",
                                de_named_visitor(
                                    name,
                                    &ctor,
                                    &format!("struct variant {ctor}"),
                                    fields,
                                    false
                                ),
                                str_array(fields.iter().map(|f| f.key.clone()))
                            );
                        }
                    }
                }
                let _ = write!(
                    body,
                    "__other => ::core::result::Result::Err(\
                     <__A::Error as ::serde::de::Error>::unknown_variant(__other, __VARIANTS)),\n\
                     }}\n}}\n}}\n\
                     ::serde::Deserializer::deserialize_enum(__deserializer, {name:?}, __VARIANTS, __EnumVisitor)"
                );
            }
        }
    }
    format!(
        "#[automatically_derived]\n\
         #[allow(unused_variables, unused_mut, unreachable_code, clippy::all)]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
         -> ::core::result::Result<Self, __D::Error> {{\n{body}\n}}\n}}\n"
    )
}

fn expand(input: TokenStream, generate: fn(&Input) -> String) -> TokenStream {
    let parsed = parse_input(input);
    let source = generate(&parsed);
    source
        .parse()
        .unwrap_or_else(|e| panic!("serde_derive shim generated invalid code ({e}):\n{source}"))
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
