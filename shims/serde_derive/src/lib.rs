//! `#[derive(Serialize)]` for the offline serde shim.
//!
//! Implemented directly over `proc_macro::TokenStream` (the environment has
//! no `syn`/`quote`). Supports the shapes the workspace uses:
//!
//! * structs with named fields, honouring `#[serde(skip)]` and
//!   `#[serde(serialize_with = "path")]`;
//! * enums with unit, tuple and struct variants (externally tagged, like
//!   upstream serde's default).
//!
//! Generics are unsupported and panic at expansion time — every derived
//! type in the workspace is concrete.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility before the item keyword.
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("derive(Serialize): expected struct/enum, got {t}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        t => panic!("derive(Serialize): expected type name, got {t}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("derive(Serialize) shim: generic types are unsupported ({name})");
    }
    let body = match &tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        t => panic!("derive(Serialize): expected braced body for {name}, got {t:?}"),
    };

    let code = match kind.as_str() {
        "struct" => derive_struct(&name, body),
        "enum" => derive_enum(&name, body),
        k => panic!("derive(Serialize): unsupported item kind `{k}`"),
    };
    code.parse()
        .expect("derive(Serialize): generated code parses")
}

/// Attributes recognised on a field.
#[derive(Default)]
struct FieldAttrs {
    skip: bool,
    serialize_with: Option<String>,
}

/// One parsed named field.
struct Field {
    name: String,
    ty: String,
    attrs: FieldAttrs,
}

/// Advance past `#[...]` attributes (collecting serde ones via `on_attr`)
/// and a `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    collect_attrs(tokens, i);
    skip_vis(tokens, i);
}

fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if matches!(&tokens.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(&tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Parse and consume leading attributes, returning any serde field attrs.
fn collect_attrs(tokens: &[TokenTree], i: &mut usize) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    loop {
        match (&tokens.get(*i), &tokens.get(*i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                parse_serde_attr(g.stream(), &mut attrs);
                *i += 2;
            }
            _ => return attrs,
        }
    }
}

/// If the bracket group is `serde(...)`, record skip / serialize_with.
fn parse_serde_attr(stream: TokenStream, attrs: &mut FieldAttrs) {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    match (&toks.first(), &toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g))) if id.to_string() == "serde" => {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            let mut j = 0;
            while j < inner.len() {
                match &inner[j] {
                    TokenTree::Ident(id) if id.to_string() == "skip" => {
                        attrs.skip = true;
                        j += 1;
                    }
                    TokenTree::Ident(id) if id.to_string() == "serialize_with" => {
                        // serialize_with = "path"
                        let lit = match &inner.get(j + 2) {
                            Some(TokenTree::Literal(l)) => l.to_string(),
                            t => panic!("serde(serialize_with = ...): expected string, got {t:?}"),
                        };
                        attrs.serialize_with = Some(lit.trim_matches('"').to_string());
                        j += 3;
                    }
                    TokenTree::Punct(_) => j += 1,
                    t => panic!("serde attr shim: unsupported serde attribute `{t}`"),
                }
            }
        }
        _ => {}
    }
}

/// Parse `name: Type` fields separated by top-level commas (angle-bracket
/// depth tracked so `Map<K, V>` commas don't split fields).
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = collect_attrs(&tokens, &mut i);
        skip_vis(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("derive(Serialize): expected field name, got {t}"),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            t => panic!("derive(Serialize): expected `:` after {name}, got {t}"),
        }
        let mut ty = String::new();
        let mut depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                _ => {}
            }
            ty.push_str(&tokens[i].to_string());
            ty.push(' ');
            i += 1;
        }
        fields.push(Field { name, ty, attrs });
    }
    fields
}

fn derive_struct(name: &str, body: TokenStream) -> String {
    let fields = parse_named_fields(body);
    let kept: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         use ::serde::ser::SerializeStruct as _;\n\
         let mut __st = ::serde::Serializer::serialize_struct(__s, \"{name}\", {})?;\n",
        kept.len()
    ));
    for f in &kept {
        match &f.attrs.serialize_with {
            None => out.push_str(&format!(
                "__st.serialize_field(\"{0}\", &self.{0})?;\n",
                f.name
            )),
            Some(path) => out.push_str(&format!(
                "{{\n\
                 struct __SerdeWith<'a>(&'a {ty});\n\
                 impl<'a> ::serde::Serialize for __SerdeWith<'a> {{\n\
                 fn serialize<__S2: ::serde::Serializer>(&self, __s2: __S2) \
                 -> ::core::result::Result<__S2::Ok, __S2::Error> {{ {path}(self.0, __s2) }}\n\
                 }}\n\
                 __st.serialize_field(\"{fname}\", &__SerdeWith(&self.{fname}))?;\n\
                 }}\n",
                ty = f.ty,
                fname = f.name,
            )),
        }
    }
    out.push_str("__st.end()\n}\n}\n");
    out
}

/// One parsed enum variant.
enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

fn derive_enum(name: &str, body: TokenStream) -> String {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants: Vec<(String, VariantShape)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let _attrs = collect_attrs(&tokens, &mut i);
        if i >= tokens.len() {
            break;
        }
        let vname = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            t => panic!("derive(Serialize): expected variant name, got {t}"),
        };
        i += 1;
        let shape = match &tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                // Count top-level comma-separated types.
                let mut depth = 0i32;
                let mut n = 1usize;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if inner.is_empty() {
                    n = 0;
                }
                for t in &inner {
                    match t {
                        TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                        TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                        TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => n += 1,
                        _ => {}
                    }
                }
                i += 1;
                VariantShape::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                i += 1;
                VariantShape::Struct(fields)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional discriminant and the separating comma.
        while i < tokens.len() {
            if matches!(&tokens[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push((vname, shape));
    }

    let mut out = String::new();
    out.push_str(&format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n\
         match self {{\n"
    ));
    for (idx, (vname, shape)) in variants.iter().enumerate() {
        match shape {
            VariantShape::Unit => out.push_str(&format!(
                "{name}::{vname} => ::serde::Serializer::serialize_unit_variant(__s, \"{name}\", {idx}u32, \"{vname}\"),\n"
            )),
            VariantShape::Tuple(1) => out.push_str(&format!(
                "{name}::{vname}(__f0) => ::serde::Serializer::serialize_newtype_variant(__s, \"{name}\", {idx}u32, \"{vname}\", __f0),\n"
            )),
            VariantShape::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                out.push_str(&format!(
                    "{name}::{vname}({binds_pat}) => ::serde::Serializer::serialize_newtype_variant(__s, \"{name}\", {idx}u32, \"{vname}\", &({binds_tup},)),\n",
                    binds_pat = binds.join(", "),
                    binds_tup = binds.join(", "),
                ));
            }
            VariantShape::Struct(fields) => {
                let kept: Vec<&Field> = fields.iter().filter(|f| !f.attrs.skip).collect();
                let pat: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                out.push_str(&format!(
                    "{name}::{vname} {{ {pat} }} => {{\n\
                     use ::serde::ser::SerializeStructVariant as _;\n\
                     let mut __sv = ::serde::Serializer::serialize_struct_variant(__s, \"{name}\", {idx}u32, \"{vname}\", {len})?;\n",
                    pat = pat.join(", "),
                    len = kept.len(),
                ));
                for f in &kept {
                    out.push_str(&format!("__sv.serialize_field(\"{0}\", {0})?;\n", f.name));
                }
                out.push_str("__sv.end()\n}\n");
            }
        }
    }
    out.push_str("}\n}\n}\n");
    out
}
