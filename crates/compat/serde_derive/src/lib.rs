//! Derive macros for the offline `serde` subset.
//!
//! Implemented directly on `proc_macro` token trees (no `syn`/`quote`, which
//! are unavailable offline). Supports the shapes this workspace actually
//! derives on: non-generic named-field structs, tuple structs, unit structs,
//! and enums whose variants are unit, tuple or struct-like. Newtype (1-field
//! tuple) structs and variants serialize transparently, matching upstream
//! serde's externally-tagged representation.
//!
//! The generated `Serialize` writes JSON straight into the output `String`,
//! with each `{"field":` prefix baked into a string literal. The generated
//! `Deserialize` walks the object once, matching each key as `&str` into one
//! `Option` slot per field.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives the offline `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives the offline `serde::Deserialize` trait.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .expect("derive macro generated invalid Rust"),
        Err(message) => format!("::std::compile_error!({message:?});")
            .parse()
            .expect("compile_error! is valid Rust"),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes_and_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos)?;
    let name = expect_ident(&tokens, &mut pos)?;
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde derive (offline subset) does not support generic type `{name}`"
        ));
    }

    match keyword.as_str() {
        "struct" => {
            let fields = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unexpected token after `struct {name}`: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("unexpected token after `enum {name}`: {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!(
            "serde derive supports structs and enums, found `{other}`"
        )),
    }
}

fn skip_attributes_and_visibility(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 2; // `#` and the following `[...]` group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                *pos += 1;
                if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *pos += 1; // `pub(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> Result<String, String> {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(i)) => {
            *pos += 1;
            Ok(i.to_string().trim_start_matches("r#").to_string())
        }
        other => Err(format!("expected identifier, found {other:?}")),
    }
}

/// Skips one field type: everything up to (but not including) the next comma
/// that sits outside `<...>` and outside any delimiter group.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(token) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => return,
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos)?;
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        skip_type(&tokens, &mut pos);
        pos += 1; // the separating comma, if any
        fields.push(name);
    }
    Ok(fields)
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        skip_type(&tokens, &mut pos);
        pos += 1; // the separating comma, if any
        count += 1;
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attributes_and_visibility(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos)?;
        let fields = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            _ => Fields::Unit,
        };
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "serde derive (offline subset) does not support discriminants (variant `{name}`)"
                ));
            }
            None => {}
            other => {
                return Err(format!(
                    "unexpected token after variant `{name}`: {other:?}"
                ))
            }
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// A Rust string literal holding `s`.
fn lit(s: &str) -> String {
    format!("{s:?}")
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, serialize_struct_body(fields)),
        Item::Enum { name, variants } => (name, serialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n\
         }}"
    )
}

/// Statements writing the JSON object `{"f":value,...}` for `fields`, where
/// `access(f)` is an expression of type `&FieldType`; `open` and `close` are
/// written before and after it.
fn write_object(
    fields: &[String],
    access: impl Fn(&str) -> String,
    open: &str,
    close: &str,
) -> String {
    if fields.is_empty() {
        return format!("__out.push_str({});", lit(&format!("{open}{{}}{close}")));
    }
    let mut out = String::new();
    for (i, f) in fields.iter().enumerate() {
        let prefix = if i == 0 {
            format!("{open}{{\"{f}\":")
        } else {
            format!(",\"{f}\":")
        };
        out.push_str(&format!(
            "__out.push_str({});\n::serde::Serialize::serialize({}, __out);\n",
            lit(&prefix),
            access(f)
        ));
    }
    out.push_str(&format!("__out.push_str({});", lit(&format!("}}{close}"))));
    out
}

/// Statements writing the JSON array `[a,b,...]` of `items` (expressions of
/// type `&T`), wrapped in `open` and `close`.
fn write_array(items: &[String], open: &str, close: &str) -> String {
    let mut out = format!("__out.push_str({});\n", lit(&format!("{open}[")));
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str("__out.push(',');\n");
        }
        out.push_str(&format!("::serde::Serialize::serialize({item}, __out);\n"));
    }
    out.push_str(&format!("__out.push_str({});", lit(&format!("]{close}"))));
    out
}

fn serialize_struct_body(fields: &Fields) -> String {
    match fields {
        Fields::Unit => "__out.push_str(\"null\");".to_string(),
        Fields::Named(names) => write_object(names, |f| format!("&self.{f}"), "", ""),
        Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0, __out);".to_string(),
        Fields::Tuple(arity) => {
            let items: Vec<String> = (0..*arity).map(|i| format!("&self.{i}")).collect();
            write_array(&items, "", "")
        }
    }
}

fn serialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|v| {
            let tag = &v.name;
            let open = format!("{{\"{tag}\":");
            match &v.fields {
                Fields::Unit => format!(
                    "{name}::{tag} => __out.push_str({}),",
                    lit(&format!("\"{tag}\""))
                ),
                Fields::Tuple(1) => format!(
                    "{name}::{tag}(__f0) => {{\n\
                     __out.push_str({});\n\
                     ::serde::Serialize::serialize(__f0, __out);\n\
                     __out.push('}}');\n}}",
                    lit(&open)
                ),
                Fields::Tuple(arity) => {
                    let binds: Vec<String> = (0..*arity).map(|i| format!("__f{i}")).collect();
                    format!(
                        "{name}::{tag}({}) => {{\n{}\n}}",
                        binds.join(", "),
                        write_array(&binds, &open, "}")
                    )
                }
                Fields::Named(field_names) => format!(
                    "{name}::{tag} {{ {} }} => {{\n{}\n}}",
                    field_names.join(", "),
                    write_object(field_names, str::to_string, &open, "}")
                ),
            }
        })
        .collect();
    format!("match self {{\n{}\n}}", arms.join("\n"))
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, deserialize_struct_body(name, fields)),
        Item::Enum { name, variants } => (name, deserialize_enum_body(name, variants)),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic)]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(__de: &mut ::serde::Deserializer<'_>) \
             -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}

/// A block expression reading a JSON object into `path { fields }`: keys
/// are matched as `&str` into one `Option` slot per field, unknown keys and
/// repeats of a filled key are skipped, and a missing field is an error.
fn read_object(path: &str, fields: &[String], context: &str) -> String {
    let context = lit(context);
    let slots: String = (0..fields.len())
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let arms: String = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{key} if __f{i}.is_none() => __f{i} = \
                 ::std::option::Option::Some(::serde::field(__de, {key}, {context})?),\n",
                key = lit(f)
            )
        })
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            format!(
                "{f}: __f{i}.ok_or_else(|| ::serde::missing_field(__de, {}, {context}))?",
                lit(f)
            )
        })
        .collect();
    format!(
        "{{\n{slots}\
         ::serde::Deserializer::begin_map(__de)?;\n\
         while let ::std::option::Option::Some(__key) = \
         ::serde::Deserializer::next_key(__de)? {{\n\
             match &*__key {{\n{arms}\
                 _ => ::serde::Deserializer::skip_value(__de)?,\n\
             }}\n\
         }}\n\
         {path} {{ {} }}\n}}",
        inits.join(", ")
    )
}

/// A block expression reading a JSON array of `arity` elements into
/// `path(...)`; elements past `arity` are skipped.
fn read_array(path: &str, arity: usize, context: &str) -> String {
    let inits: Vec<String> = (0..arity)
        .map(|i| format!("::serde::element(__de, {i}, {})?", lit(context)))
        .collect();
    format!(
        "{{\n::serde::Deserializer::begin_seq(__de)?;\n\
         let __value = {path}({});\n\
         ::serde::Deserializer::end_seq(__de)?;\n\
         __value\n}}",
        inits.join(", ")
    )
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    let value = match fields {
        Fields::Unit => format!("{{ ::serde::Deserializer::skip_value(__de)?; {name} }}"),
        Fields::Named(names) => read_object(name, names, name),
        Fields::Tuple(1) => format!("{name}(::serde::Deserialize::deserialize(__de)?)"),
        Fields::Tuple(arity) => read_array(name, *arity, name),
    };
    format!("::std::result::Result::Ok({value})")
}

fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let arms: String = variants
        .iter()
        .map(|v| {
            let tag = &v.name;
            let path = format!("{name}::{tag}");
            let (payload, value) = match &v.fields {
                Fields::Unit => (false, path),
                Fields::Tuple(1) => (
                    true,
                    format!("{path}(::serde::Deserialize::deserialize(__de)?)"),
                ),
                Fields::Tuple(arity) => (true, read_array(&path, *arity, &path)),
                Fields::Named(field_names) => (true, read_object(&path, field_names, &path)),
            };
            format!("({}, {payload}) => {value},\n", lit(tag))
        })
        .collect();
    format!(
        "let (__tag, __payload) = ::serde::Deserializer::variant(__de, {context})?;\n\
         let __value = match (&*__tag, __payload) {{\n{arms}\
             (__other, false) => return ::std::result::Result::Err(__de.error(\
             ::std::format!(\"unknown unit variant `{{__other}}` of enum `{name}`\"))),\n\
             (__other, true) => return ::std::result::Result::Err(__de.error(\
             ::std::format!(\"unknown variant `{{__other}}` of enum `{name}`\"))),\n\
         }};\n\
         if __payload {{\n\
             ::serde::Deserializer::end_variant(__de, {context})?;\n\
         }}\n\
         ::std::result::Result::Ok(__value)",
        context = lit(name),
    )
}
