//! Derive macros for the in-repo `serde` stand-in.
//!
//! Hand-written over `proc_macro::TokenStream` (no `syn`/`quote` available
//! offline). Supports the item shapes present in this workspace:
//!
//! * structs with named fields;
//! * tuple structs with a single field (newtype semantics, i.e. the inner
//!   value is serialized directly — `#[serde(transparent)]` is accepted and
//!   means the same thing);
//! * enums with unit variants (serialized as the variant-name string);
//! * enums with struct variants (externally tagged:
//!   `{"Variant": {..fields..}}`).
//!
//! Named fields accept two attributes: `#[serde(default)]` (an absent key
//! takes `Default::default()`) and `#[serde(skip_serializing_if = "path")]`
//! (the key is not written when `path(&field)` is true).
//!
//! Anything else (generics, tuple variants, multi-field tuple structs,
//! other field attributes) produces a compile error naming the unsupported
//! shape.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Field {
    name: String,
    /// `#[serde(default)]`.
    default: bool,
    /// The predicate of `#[serde(skip_serializing_if = "path")]`.
    skip_if: Option<String>,
}

impl Field {
    /// The statement inserting this field, read through the reference
    /// expression `value`, into the map named `map`.
    fn insert(&self, map: &str, value: &str) -> String {
        let insert = format!(
            "{map}.insert({:?}.to_string(), ::serde::Serialize::to_value({value}));\n",
            self.name
        );
        match &self.skip_if {
            Some(path) => format!("if !{path}({value}) {{ {insert} }}\n"),
            None => insert,
        }
    }

    /// The struct-literal initializer reading this field from the map
    /// named `obj`.
    fn init(&self, obj: &str) -> String {
        let name = &self.name;
        let read = format!("::serde::__private::field({obj}, {name:?})?");
        if self.default {
            format!(
                "{name}: if {obj}.contains_key({name:?}) {{ {read} }} \
                 else {{ ::core::default::Default::default() }},\n"
            )
        } else {
            format!("{name}: {read},\n")
        }
    }
}

enum Shape {
    NamedStruct { fields: Vec<Field> },
    Newtype,
    Enum { variants: Vec<Variant> },
}

struct Variant {
    name: String,
    /// `None` for unit variants, `Some(fields)` for struct variants.
    fields: Option<Vec<Field>>,
}

struct Item {
    name: String,
    shape: Shape,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("valid error tokens")
}

/// Consumes leading attributes (`#[...]`) from `tokens[*i..]`.
fn skip_attributes(tokens: &[TokenTree], i: &mut usize) {
    while *i + 1 < tokens.len() {
        match (&tokens[*i], &tokens[*i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                *i += 2;
            }
            _ => break,
        }
    }
}

/// Consumes a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Consumes a field's leading attributes into `field`, reading the
/// options of its `#[serde(...)]` attributes.
fn field_attributes(tokens: &[TokenTree], i: &mut usize, field: &mut Field) -> Result<(), String> {
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*i), tokens.get(*i + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        *i += 2;
        let attr: Vec<TokenTree> = g.stream().into_iter().collect();
        let [TokenTree::Ident(id), TokenTree::Group(args)] = attr.as_slice() else {
            continue; // doc comments and other attributes
        };
        if id.to_string() != "serde" {
            continue;
        }
        let args: Vec<TokenTree> = args.stream().into_iter().collect();
        for option in args.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
            match option {
                [] => {}
                [TokenTree::Ident(k)] if k.to_string() == "default" => field.default = true,
                [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(path)]
                    if k.to_string() == "skip_serializing_if" && eq.as_char() == '=' =>
                {
                    field.skip_if = Some(path.to_string().trim_matches('"').to_string());
                }
                other => {
                    let text: Vec<String> = other.iter().map(ToString::to_string).collect();
                    return Err(format!(
                        "unsupported serde field attribute `{}`",
                        text.join(" ")
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Parses `name: Type, …` named fields from a brace-group body.
fn parse_named_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut field = Field::default();
        field_attributes(&tokens, &mut i, &mut field)?;
        skip_visibility(&tokens, &mut i);
        field.name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("expected field name, found `{other}`")),
            None => break,
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{}`", field.name)),
        }
        // Skip the type: everything until a comma at angle-bracket depth 0.
        let mut depth = 0i32;
        while let Some(tt) = tokens.get(i) {
            if let TokenTree::Punct(p) = tt {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        if let Some(TokenTree::Punct(_)) = tokens.get(i) {
            i += 1; // consume the separating comma
        }
        fields.push(field);
    }
    Ok(fields)
}

/// Counts the fields of a paren-group (tuple struct / tuple variant) body.
fn count_tuple_fields(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut depth = 0i32;
    let mut count = 1;
    for tt in &tokens {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                '<' | '(' => depth += 1,
                '>' | ')' => depth -= 1,
                ',' if depth == 0 => count += 1,
                _ => {}
            }
        }
    }
    count
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attributes(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => return Err(format!("expected variant name, found `{other}`")),
            None => break,
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream())?;
                i += 1;
                Some(f)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!(
                    "tuple variant `{name}` is unsupported by the serde shim"
                ));
            }
            _ => None,
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(other) => return Err(format!("expected `,` after variant, found `{other}`")),
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attributes(&tokens, &mut i);
    skip_visibility(&tokens, &mut i);
    let keyword = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected item name".into()),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic item `{name}` is unsupported by the serde shim"
            ));
        }
    }
    let shape = match keyword.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::NamedStruct {
                fields: parse_named_fields(g.stream())?,
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                match count_tuple_fields(g.stream()) {
                    1 => Shape::Newtype,
                    n => {
                        return Err(format!(
                            "tuple struct `{name}` has {n} fields; the serde shim supports \
                             single-field newtypes only"
                        ))
                    }
                }
            }
            _ => return Err(format!("unsupported struct body for `{name}`")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Shape::Enum {
                variants: parse_variants(g.stream())?,
            },
            _ => return Err(format!("expected enum body for `{name}`")),
        },
        other => return Err(format!("cannot derive for `{other}` items")),
    };
    Ok(Item { name, shape })
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return compile_error(&e),
    };
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct { fields } => {
            let inserts: String = fields
                .iter()
                .map(|f| f.insert("m", &format!("&self.{}", f.name)))
                .collect();
            format!("let mut m = ::serde::Map::new();\n{inserts}::serde::Value::Object(m)")
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Enum { variants } => {
            let mut arms = String::new();
            for v in variants {
                match &v.fields {
                    None => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::String({v:?}.to_string()),\n",
                        v = v.name
                    )),
                    Some(fields) => {
                        let bindings: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let inserts: String =
                            fields.iter().map(|f| f.insert("inner", &f.name)).collect();
                        arms.push_str(&format!(
                            "{name}::{v} {{ {pats} }} => {{\n\
                             let mut inner = ::serde::Map::new();\n{inserts}\
                             let mut outer = ::serde::Map::new();\n\
                             outer.insert({v:?}.to_string(), ::serde::Value::Object(inner));\n\
                             ::serde::Value::Object(outer)\n}}\n",
                            v = v.name,
                            pats = bindings.join(", "),
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(e) => return compile_error(&e),
    };
    let name = &item.name;
    let body = match &item.shape {
        Shape::NamedStruct { fields } => {
            let inits: String = fields.iter().map(|f| f.init("obj")).collect();
            format!(
                "let obj = v.as_object().ok_or_else(|| \
                 ::serde::DeError::expected(\"object ({name})\", v))?;\n\
                 Ok({name} {{\n{inits}}})"
            )
        }
        Shape::Newtype => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Shape::Enum { variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                match &v.fields {
                    None => unit_arms
                        .push_str(&format!("{v:?} => return Ok({name}::{v}),\n", v = v.name)),
                    Some(fields) => {
                        let inits: String = fields.iter().map(|f| f.init("inner")).collect();
                        tagged_arms.push_str(&format!(
                            "{v:?} => {{\n\
                             let inner = tagged.as_object().ok_or_else(|| \
                             ::serde::DeError::expected(\"object variant body\", tagged))?;\n\
                             return Ok({name}::{v} {{\n{inits}}});\n}}\n",
                            v = v.name,
                        ));
                    }
                }
            }
            format!(
                "if let Some(s) = v.as_str() {{\n\
                 match s {{\n{unit_arms}\
                 _ => return Err(::serde::DeError::new(\
                 format!(\"unknown {name} variant `{{s}}`\"))),\n}}\n}}\n\
                 if let Some(obj) = v.as_object() {{\n\
                 if let Some((tag, tagged)) = obj.iter().next() {{\n\
                 match tag.as_str() {{\n{tagged_arms}\
                 _ => return Err(::serde::DeError::new(\
                 format!(\"unknown {name} variant `{{tag}}`\"))),\n}}\n}}\n}}\n\
                 Err(::serde::DeError::expected(\"{name} variant\", v))"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}\n"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
