//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! workspace-local `serde` stand-in.
//!
//! The build environment resolves crates through a restricted registry, so the
//! usual `syn`/`quote` stack is unavailable. Instead this crate walks the raw
//! [`proc_macro::TokenStream`] of the derived item directly. The supported
//! grammar is deliberately the subset the workspace actually uses:
//!
//! - non-generic structs: named-field, tuple (newtype included), and unit
//! - non-generic enums with unit, tuple, or struct variants, externally
//!   tagged as upstream serde does by default
//!
//! Generic items and `#[serde(...)]` attributes are rejected with a
//! compile-time panic naming the offending item, so misuse fails loudly at
//! expansion time rather than producing bad impls.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed shape of the fields of a struct or enum variant.
enum Fields {
    Unit,
    /// Tuple fields; the payload is the arity.
    Tuple(usize),
    /// Named fields, in declaration order.
    Named(Vec<String>),
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => serialize_struct(name, fields),
        Item::Enum { name, variants } => serialize_enum(name, variants),
    };
    code.parse()
        .expect("serde_derive: generated Serialize impl failed to parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => deserialize_struct(name, fields),
        Item::Enum { name, variants } => deserialize_enum(name, variants),
    };
    code.parse()
        .expect("serde_derive: generated Deserialize impl failed to parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    skip_attributes_and_vis(&tokens, &mut pos);

    let kind = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected `struct` or `enum`, found {other:?}"),
    };
    pos += 1;

    let name = match tokens.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected item name, found {other:?}"),
    };
    pos += 1;

    if let Some(TokenTree::Punct(p)) = tokens.get(pos) {
        if p.as_char() == '<' {
            panic!("serde_derive: generic type `{name}` is not supported by the workspace serde stand-in");
        }
    }

    match kind.as_str() {
        "struct" => {
            let fields = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream(), &name))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde_derive: unexpected token after `struct {name}`: {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let body = match tokens.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => panic!("serde_derive: expected `{{` after `enum {name}`, found {other:?}"),
            };
            Item::Enum {
                variants: parse_variants(body, &name),
                name,
            }
        }
        other => panic!("serde_derive: `{other}` items cannot derive Serialize/Deserialize"),
    }
    // Trailing tokens (e.g. a `where` clause) cannot occur: generics are
    // rejected above and the workspace derives only plain items.
}

/// Advance `pos` past any leading `#[...]` attributes (including expanded doc
/// comments) and an optional `pub` / `pub(...)` visibility.
fn skip_attributes_and_vis(tokens: &[TokenTree], pos: &mut usize) {
    loop {
        match tokens.get(*pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *pos += 1;
                match tokens.get(*pos) {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => *pos += 1,
                    other => panic!("serde_derive: malformed attribute, found {other:?}"),
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *pos += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(*pos) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *pos += 1; // pub(crate) / pub(super) / ...
                    }
                }
            }
            // A `$vis:vis` from a `macro_rules!` expansion arrives wrapped
            // in an invisible group, empty for inherited visibility.
            Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::None
                    && g.stream().into_iter().next().is_none_or(
                        |t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "pub"),
                    ) =>
            {
                *pos += 1;
            }
            _ => return,
        }
    }
}

/// Split a delimited group's tokens at top-level commas, dropping empty
/// segments (trailing commas). Angle brackets are not token groups, so a
/// `<`/`>` depth counter keeps commas inside generic arguments (e.g.
/// `HashMap<K, V>`) from splitting a field.
fn split_top_level_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut segments = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle_depth += 1;
                current.push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1);
                current.push(tt);
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if !current.is_empty() {
                    segments.push(std::mem::take(&mut current));
                }
            }
            _ => current.push(tt),
        }
    }
    if !current.is_empty() {
        segments.push(current);
    }
    segments
}

/// Parse `{ a: T, pub b: U, ... }` field lists into field names.
fn parse_named_fields(stream: TokenStream, owner: &str) -> Vec<String> {
    split_top_level_commas(stream)
        .into_iter()
        .map(|seg| {
            let mut pos = 0;
            skip_attributes_and_vis(&seg, &mut pos);
            match seg.get(pos) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => panic!("serde_derive: expected field name in `{owner}`, found {other:?}"),
            }
        })
        .collect()
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level_commas(stream).len()
}

/// Parse enum variants: `Name`, `Name(T, ...)`, or `Name = disc`.
fn parse_variants(stream: TokenStream, owner: &str) -> Vec<(String, Fields)> {
    split_top_level_commas(stream)
        .into_iter()
        .map(|seg| {
            let mut pos = 0;
            skip_attributes_and_vis(&seg, &mut pos);
            let vname = match seg.get(pos) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => {
                    panic!("serde_derive: expected variant name in `{owner}`, found {other:?}")
                }
            };
            pos += 1;
            let fields = match seg.get(pos) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream(), owner))
                }
                // `None` or `= discriminant` — either way a unit variant.
                _ => Fields::Unit,
            };
            (vname, fields)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Codegen: Serialize
// ---------------------------------------------------------------------------

fn serialize_struct(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Unit => "::serde::Value::Null".to_string(),
        Fields::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(::std::vec![{}])", items.join(", "))
        }
        Fields::Named(names) => {
            let pairs: Vec<String> = names
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f}))"
                    )
                })
                .collect();
            format!("::serde::Value::Object(::std::vec![{}])", pairs.join(", "))
        }
    };
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\nimpl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

fn serialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let arms: Vec<String> = variants
        .iter()
        .map(|(vname, fields)| match fields {
            Fields::Unit => format!(
                "{name}::{vname} => ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
            ),
            Fields::Tuple(1) => format!(
                "{name}::{vname}(ref __f0) => ::serde::Value::Object(::std::vec![\
                 (::std::string::String::from(\"{vname}\"), ::serde::Serialize::to_value(__f0))]),"
            ),
            Fields::Tuple(n) => {
                let binders: Vec<String> = (0..*n).map(|i| format!("ref __f{i}")).collect();
                let items: Vec<String> =
                    (0..*n).map(|i| format!("::serde::Serialize::to_value(__f{i})")).collect();
                format!(
                    "{name}::{vname}({}) => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{vname}\"), \
                     ::serde::Value::Array(::std::vec![{}]))]),",
                    binders.join(", "),
                    items.join(", ")
                )
            }
            Fields::Named(names) => {
                let binders: Vec<String> = names.iter().map(|f| format!("ref {f}")).collect();
                let pairs: Vec<String> = names
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f}))"
                        )
                    })
                    .collect();
                format!(
                    "{name}::{vname} {{ {} }} => ::serde::Value::Object(::std::vec![\
                     (::std::string::String::from(\"{vname}\"), \
                     ::serde::Value::Object(::std::vec![{}]))]),",
                    binders.join(", "),
                    pairs.join(", ")
                )
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\nimpl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 match *self {{\n{}\n}}\n\
             }}\n\
         }}",
        arms.join("\n")
    )
}

// ---------------------------------------------------------------------------
// Codegen: Deserialize
// ---------------------------------------------------------------------------

fn deserialize_struct(name: &str, fields: &Fields) -> String {
    let body = match fields {
        Fields::Unit => format!(
            "match __v {{\n\
                 ::serde::Value::Null => ::std::result::Result::Ok({name}),\n\
                 _ => ::std::result::Result::Err(::serde::Error(::std::string::String::from(\n\
                     \"expected null for unit struct {name}\"))),\n\
             }}"
        ),
        Fields::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Fields::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                .collect();
            format!(
                "match __v {{\n\
                     ::serde::Value::Array(__items) if __items.len() == {n} =>\n\
                         ::std::result::Result::Ok({name}({})),\n\
                     _ => ::std::result::Result::Err(::serde::Error(::std::string::String::from(\n\
                         \"expected array of length {n} for tuple struct {name}\"))),\n\
                 }}",
                items.join(", ")
            )
        }
        Fields::Named(names) => {
            let inits: Vec<String> = names
                .iter()
                .map(|f| format!("{f}: ::serde::field(__v, \"{f}\")?,"))
                .collect();
            format!(
                "::std::result::Result::Ok({name} {{\n{}\n}})",
                inits.join("\n")
            )
        }
    };
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\nimpl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}

fn deserialize_enum(name: &str, variants: &[(String, Fields)]) -> String {
    let unit_arms: Vec<String> = variants
        .iter()
        .filter(|(_, f)| matches!(f, Fields::Unit))
        .map(|(vname, _)| format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),"))
        .collect();
    let payload_arms: Vec<String> = variants
        .iter()
        .filter_map(|(vname, fields)| match fields {
            Fields::Unit => None,
            Fields::Tuple(1) => Some(format!(
                "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}(\
                 ::serde::Deserialize::from_value(__inner)?)),"
            )),
            Fields::Tuple(n) => {
                let items: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&__items[{i}])?"))
                    .collect();
                Some(format!(
                    "\"{vname}\" => match __inner {{\n\
                         ::serde::Value::Array(__items) if __items.len() == {n} =>\n\
                             ::std::result::Result::Ok({name}::{vname}({})),\n\
                         _ => ::std::result::Result::Err(::serde::Error(::std::string::String::from(\n\
                             \"expected array of length {n} for variant {name}::{vname}\"))),\n\
                     }},",
                    items.join(", ")
                ))
            }
            Fields::Named(names) => {
                let inits: Vec<String> = names
                    .iter()
                    .map(|f| format!("{f}: ::serde::field(__inner, \"{f}\")?,"))
                    .collect();
                Some(format!(
                    "\"{vname}\" => ::std::result::Result::Ok({name}::{vname} {{\n{}\n}}),",
                    inits.join("\n")
                ))
            }
        })
        .collect();
    format!(
        "#[automatically_derived]\n#[allow(unused_variables, clippy::all)]\nimpl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                 match __v {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {unit}\n\
                         __other => ::std::result::Result::Err(::serde::Error(::std::format!(\n\
                             \"unknown unit variant `{{__other}}` for enum {name}\"))),\n\
                     }},\n\
                     ::serde::Value::Object(__fields) if __fields.len() == 1 => {{\n\
                         let (__tag, __inner) = &__fields[0];\n\
                         match __tag.as_str() {{\n\
                             {payload}\n\
                             __other => ::std::result::Result::Err(::serde::Error(::std::format!(\n\
                                 \"unknown variant `{{__other}}` for enum {name}\"))),\n\
                         }}\n\
                     }},\n\
                     _ => ::std::result::Result::Err(::serde::Error(::std::string::String::from(\n\
                         \"expected string or single-key object for enum {name}\"))),\n\
                 }}\n\
             }}\n\
         }}",
        unit = unit_arms.join("\n"),
        payload = payload_arms.join("\n"),
    )
}
