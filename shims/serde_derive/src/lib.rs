//! `#[derive(Serialize, Deserialize)]` for the vendored serde shim.
//!
//! This workspace builds with no registry access, so `syn`/`quote` are not
//! available; the derive input is parsed directly from the compiler's token
//! stream.  The supported shapes are exactly the two every deriving type in
//! the workspace has (`tests/codec_surface.rs` pins the list):
//!
//! * structs with named fields, which serialize as a map keyed by field name;
//! * enums whose variants are all units, which serialize as the variant name
//!   (and deserialize from it, matched by `serde::variant_matches`).
//!
//! Anything else — a generic type, a tuple or unit struct, a variant carrying
//! data — produces a compile error naming this file.
//!
//! Field types never need to be parsed: generated code places every
//! `Deserialize::deserialize` call in a struct-literal field, where the
//! compiler infers the target type.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    Struct { name: String, fields: Vec<String> },
    Enum { name: String, variants: Vec<String> },
}

/// Generate `impl serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item).parse().expect("generated Serialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Generate `impl serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated Deserialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);

    let keyword = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected `struct` or `enum`, found {other:?}"
            ))
        }
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("serde shim derive: expected a type name, found {other:?}")),
    };
    i += 1;
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive: generic type `{name}` is not supported (see shims/serde_derive)"
        ));
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => {
            return Err(format!(
                "serde shim derive: `{name}` must be a struct with named fields or an enum \
                 (see shims/serde_derive)"
            ))
        }
    };

    match keyword.as_str() {
        "struct" => Ok(Item::Struct {
            fields: parse_named_fields(body)?,
            name,
        }),
        "enum" => Ok(Item::Enum {
            variants: parse_unit_variants(&name, body)?,
            name,
        }),
        other => Err(format!("serde shim derive: cannot derive for `{other}` items")),
    }
}

fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // `#`
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket) {
                    *i += 1; // `[...]`
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis) {
                    *i += 1; // `(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

/// Field names of a named-field body: `{ a: T, pub b: U, ... }`.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut names = Vec::new();
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("serde shim derive: expected a field name, found {other:?}")),
        };
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "serde shim derive: expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_type_until_comma(&toks, &mut i);
        names.push(name);
    }
    Ok(names)
}

/// Advance past a type, stopping after the next top-level `,` (angle-bracket
/// depth aware: the comma in `BTreeMap<String, V>` is not a field separator).
fn skip_type_until_comma(toks: &[TokenTree], i: &mut usize) {
    let mut angle_depth = 0usize;
    while let Some(t) = toks.get(*i) {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Variant names of an enum body whose variants all carry no data.
fn parse_unit_variants(enum_name: &str, stream: TokenStream) -> Result<Vec<String>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("serde shim derive: expected a variant name, found {other:?}")),
        };
        i += 1;
        if matches!(toks.get(i), Some(TokenTree::Group(_))) {
            return Err(format!(
                "serde shim derive: variant `{enum_name}::{name}` carries data; only unit variants \
                 are supported (see shims/serde_derive)"
            ));
        }
        // Skip a discriminant (`= expr`) and the separating comma.
        while let Some(t) = toks.get(i) {
            i += 1;
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(name);
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::serialize(&self.{f}))"))
                .collect();
            (name, format!("::serde::Value::Map(vec![{}])", entries.join(", ")))
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants.iter().map(|v| format!("{name}::{v} => {v:?},")).collect();
            (
                name,
                format!(
                    "::serde::Value::Str(match self {{\n            {}\n        }}.to_string())",
                    arms.join("\n            ")
                ),
            )
        }
    };
    format!("impl ::serde::Serialize for {name} {{\n    fn serialize(&self) -> ::serde::Value {{\n        {body}\n    }}\n}}\n")
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let inits: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::deserialize(::serde::field(m, {f:?}))\
                         .map_err(|e| e.in_field({f:?}))?,"
                    )
                })
                .collect();
            (
                name,
                format!(
                    "let m = match v {{\n            ::serde::Value::Map(m) => m,\n            \
                     other => return Err(::serde::DeError::expected(\"a map for struct {name}\", other)),\n        \
                     }};\n        Ok({name} {{\n            {}\n        }})",
                    inits.join("\n            ")
                ),
            )
        }
        Item::Enum { name, variants } => {
            let checks: Vec<String> = variants
                .iter()
                .map(|v| format!("if ::serde::variant_matches(s, {v:?}) {{ return Ok({name}::{v}); }}"))
                .collect();
            (
                name,
                format!(
                    "let s = match v {{\n            ::serde::Value::Str(s) => s,\n            \
                     other => return Err(::serde::DeError::expected(\"a variant name of enum {name}\", other)),\n        \
                     }};\n        {}\n        \
                     Err(::serde::DeError::custom(format!(\"unknown variant `{{s}}` of {name}, expected one of {}\")))",
                    checks.join("\n        "),
                    variants.join("|")
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n    fn deserialize(v: &::serde::Value) -> \
         ::std::result::Result<Self, ::serde::DeError> {{\n        {body}\n    }}\n}}\n"
    )
}
