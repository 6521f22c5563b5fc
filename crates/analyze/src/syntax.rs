//! A brace-tree pass over the token stream: `fn` items with their
//! enclosing `mod` / `impl` / `trait` context, parameter names, and
//! body token ranges.
//!
//! This is deliberately *not* an AST. The interprocedural rules need
//! exactly four structural facts a flat token scan cannot give them:
//! which function a token belongs to, what that function is called
//! (qualified by its impl type so `Server::stop` and `Fleet::stop`
//! stay distinct), which parameter names map to which argument
//! positions, and where the body starts and ends so nested items can
//! be carved out. Everything else — trait resolution, type inference,
//! macro expansion — is out of scope; the call graph built on top is
//! conservative about those (see the README caveats).

use crate::lexer::{LexedFile, Token, TokenKind};

/// One `fn` item found in a file.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's own name.
    pub name: String,
    /// The surrounding `impl TYPE` / `trait NAME` qualifier, when the
    /// fn is a method or default trait method.
    pub qualifier: Option<String>,
    /// Inline `mod` path from the file root down to the item.
    pub module: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Whether the first parameter is (some form of) `self`.
    pub has_self: bool,
    /// Non-`self` parameter names by position. `None` for patterns the
    /// parser does not name (tuples, nested destructuring).
    pub params: Vec<Option<String>>,
    /// Token index range of the body `{ ... }`, inclusive of both
    /// braces. `None` for bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnItem {
    /// `Type::name` when the fn has a qualifier, else the bare name.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Extracts every `fn` item from a lexed file. `mask` marks tokens
/// inside `#[cfg(test)]` regions (see [`crate::rules`]); masked fns are
/// skipped entirely — test helpers are not part of the production call
/// graph.
pub fn parse_fns(lexed: &LexedFile, mask: &[bool]) -> Vec<FnItem> {
    let toks = &lexed.tokens;
    let mut items = Vec::new();

    // Context stacks: (name, brace depth the scope closes below).
    let mut mods: Vec<(String, i32)> = Vec::new();
    let mut quals: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            while mods.last().is_some_and(|(_, d)| depth < *d) {
                mods.pop();
            }
            while quals.last().is_some_and(|(_, d)| depth < *d) {
                quals.pop();
            }
            i += 1;
            continue;
        }
        if mask[i] {
            i += 1;
            continue;
        }
        if t.is_ident("mod")
            && toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct('{'))
        {
            mods.push((toks[i + 1].text.clone(), depth + 1));
            depth += 1;
            i += 3;
            continue;
        }
        if (t.is_ident("impl") || t.is_ident("trait")) && starts_item(toks, i) {
            if let Some((qual, body_open)) = scan_scope_qualifier(toks, i) {
                quals.push((qual, depth + 1));
                depth += 1;
                i = body_open + 1;
                continue;
            }
        }
        // `fn name` — but not the `fn` of a fn-pointer type (`fn(`),
        // and the name must be a real identifier.
        if t.is_ident("fn") {
            if let Some(name_tok) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                if let Some(mut item) = parse_fn_at(toks, i, name_tok) {
                    item.qualifier = quals.last().map(|(q, _)| q.clone());
                    item.module = mods.iter().map(|(m, _)| m.clone()).collect();
                    // Continue scanning *inside* the body so nested fns
                    // (and closures' contents) are still visited; the
                    // brace bookkeeping above keeps the scopes honest.
                    i += 2;
                    items.push(item);
                    continue;
                }
            }
        }
        i += 1;
    }
    items
}

/// Whether the keyword at `at` begins an item: it is the file's first
/// token, or follows the end of an item, statement or attribute, a
/// block's `{`, or a visibility / `unsafe` / `auto` modifier. An
/// `impl Trait` type follows `:`, `(`, `,`, `&`, `mut` or `->` instead;
/// read as an `impl` block, its scan would run on to some later `{` and
/// skip every fn before it.
fn starts_item(toks: &[Token], at: usize) -> bool {
    let Some(prev) = at.checked_sub(1).map(|p| &toks[p]) else {
        return true;
    };
    ['}', ';', '{', ']', ')'].iter().any(|&c| prev.is_punct(c))
        || ["pub", "unsafe", "auto", "default"]
            .iter()
            .any(|&w| prev.is_ident(w))
}

/// At `impl`/`trait` token `at`, finds the implementing type (or trait
/// name) and the index of the body-opening `{`. Returns `None` for
/// forms without a body (e.g. `impl Trait for Type;` never exists, but
/// a parse dead-end must not wedge the scanner).
fn scan_scope_qualifier(toks: &[Token], at: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    let mut last_ident: Option<&str> = None;
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    let mut saw_where = false;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0); // `->` arrives as `-` `>`
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if angle == 0 && paren == 0 {
            if t.is_punct('{') {
                let qual = after_for.or(last_ident)?.to_string();
                return Some((qual, j));
            }
            if t.is_punct(';') {
                return None;
            }
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                // The qualifier is decided; idents in the where clause
                // are bounds, not the implementing type.
                saw_where = true;
            } else if !saw_where
                && t.kind == TokenKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe")
            {
                last_ident = Some(&t.text);
                if saw_for && after_for.is_none() {
                    after_for = Some(&t.text);
                } else if saw_for {
                    // keep the *last* path segment after `for`:
                    // `impl fmt::Display for error::ServerError`.
                    after_for = Some(&t.text);
                }
            }
        }
        j += 1;
    }
    None
}

/// Parses one fn item starting at the `fn` keyword (`toks[at]`), with
/// `name_tok` already identified. Returns `None` when this is not
/// actually an item (e.g. mis-lexed code).
fn parse_fn_at(toks: &[Token], at: usize, name_tok: &Token) -> Option<FnItem> {
    // Skip generics between name and `(`.
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 && t.is_punct('(') {
            break;
        } else if angle == 0 && (t.is_punct('{') || t.is_punct(';')) {
            return None; // no parameter list: not a fn item
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }

    // Parameter list: j is the opening `(`.
    let (has_self, params, close) = parse_params(toks, j)?;

    // Scan past return type / where clause to the body `{` or a `;`.
    let mut k = close + 1;
    let mut angle = 0i32;
    let mut paren = 0i32;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0); // `->` lexes as `-` `>`
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if angle == 0 && paren == 0 {
            if t.is_punct(';') {
                return Some(FnItem {
                    name: name_tok.text.clone(),
                    qualifier: None,
                    module: Vec::new(),
                    line: toks[at].line,
                    col: toks[at].col,
                    has_self,
                    params,
                    body: None,
                });
            }
            if t.is_punct('{') {
                let end = matching_brace(toks, k)?;
                return Some(FnItem {
                    name: name_tok.text.clone(),
                    qualifier: None,
                    module: Vec::new(),
                    line: toks[at].line,
                    col: toks[at].col,
                    has_self,
                    params,
                    body: Some((k, end)),
                });
            }
        }
        k += 1;
    }
    None
}

/// Parses the parameter list opening at `open` (a `(`): returns
/// (has_self, names-by-position, index of the closing `)`).
fn parse_params(toks: &[Token], open: usize) -> Option<(bool, Vec<Option<String>>, usize)> {
    let close = matching_paren(toks, open)?;
    let mut has_self = false;
    let mut params = Vec::new();

    let mut start = open + 1;
    let mut depth = 0i32;
    let mut j = open + 1;
    while j <= close {
        let t = &toks[j];
        let boundary = j == close || (depth == 0 && t.is_punct(','));
        if boundary {
            if start < j {
                match classify_param(&toks[start..j]) {
                    ParamKind::SelfParam => has_self = true,
                    ParamKind::Named(name) => params.push(Some(name)),
                    ParamKind::Unnamed => params.push(None),
                }
            }
            start = j + 1;
        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
            // Clamp at zero: the `>` of a `->` return arrow inside an
            // `impl Fn(..) -> ..` parameter type has no matching `<`.
            depth = (depth - 1).max(0);
        }
        j += 1;
    }
    Some((has_self, params, close))
}

enum ParamKind {
    SelfParam,
    Named(String),
    Unnamed,
}

/// Classifies one parameter's tokens (between commas): `self` forms,
/// a nameable `ident: Type`, or an unnamed pattern.
fn classify_param(toks: &[Token]) -> ParamKind {
    // `self`, `&self`, `&mut self`, `mut self`, `self: Arc<Self>`.
    let mut lead = 0usize;
    while toks
        .get(lead)
        .is_some_and(|t| t.is_punct('&') || t.is_ident("mut") || t.kind == TokenKind::Lifetime)
    {
        lead += 1;
    }
    match toks.get(lead) {
        Some(t) if t.is_ident("self") => ParamKind::SelfParam,
        Some(t) if t.kind == TokenKind::Ident => {
            // Named only when the ident is directly followed by `:`
            // (an `ident: Type` binding, not a tuple/struct pattern).
            if toks.get(lead + 1).is_some_and(|n| n.is_punct(':')) {
                ParamKind::Named(t.text.clone())
            } else {
                ParamKind::Unnamed
            }
        }
        _ => ParamKind::Unnamed,
    }
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
pub fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn fns(src: &str) -> Vec<FnItem> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        parse_fns(&lexed, &mask)
    }

    #[test]
    fn free_fn_with_params_and_body() {
        let items = fns("pub fn handle(req: Request, n: usize) -> Response { body(n) }");
        assert_eq!(items.len(), 1);
        let f = &items[0];
        assert_eq!(f.name, "handle");
        assert_eq!(f.qualifier, None);
        assert!(!f.has_self);
        assert_eq!(
            f.params,
            vec![Some("req".to_string()), Some("n".to_string())]
        );
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_methods_get_the_type_qualifier() {
        let items = fns(
            "impl Server {\n    fn start(&self) {}\n    pub fn stop(&mut self, hard: bool) {}\n}\n\
             impl fmt::Display for ServerError {\n    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}",
        );
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].qualified_name(), "Server::start");
        assert!(items[0].has_self);
        assert_eq!(items[1].qualified_name(), "Server::stop");
        assert_eq!(items[1].params, vec![Some("hard".to_string())]);
        assert_eq!(items[2].qualified_name(), "ServerError::fmt");
    }

    #[test]
    fn generic_impls_and_where_clauses() {
        let items = fns(
            "impl<T: Clone> Cache<T> where T: Send {\n    fn get<Q: Hash>(&self, k: &Q) -> Option<T> { None }\n}",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].qualified_name(), "Cache::get");
        assert_eq!(items[0].params, vec![Some("k".to_string())]);
    }

    #[test]
    fn trait_decls_and_default_methods() {
        let items = fns(
            "trait Handler {\n    fn call(&self, req: u32) -> u32;\n    fn twice(&self, req: u32) -> u32 { self.call(req) * 2 }\n}",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].qualified_name(), "Handler::call");
        assert!(items[0].body.is_none());
        assert!(items[1].body.is_some());
    }

    #[test]
    fn nested_fns_and_modules() {
        let items = fns(
            "mod net {\n    pub fn outer() {\n        fn inner(x: u32) -> u32 { x }\n        inner(1);\n    }\n}",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name, "outer");
        assert_eq!(items[0].module, vec!["net".to_string()]);
        assert_eq!(items[1].name, "inner");
        // inner's body nests inside outer's.
        let (os, oe) = items[0].body.unwrap();
        let (is_, ie) = items[1].body.unwrap();
        assert!(os < is_ && ie < oe);
    }

    #[test]
    fn cfg_test_fns_are_skipped() {
        let items = fns(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "prod");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = fns("fn real(cb: fn(u32) -> u32) -> fn() { cb(1); todo }");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
        assert_eq!(items[0].params, vec![Some("cb".to_string())]);
    }

    #[test]
    fn impl_trait_types_open_no_scope() {
        let items = fns(
            "fn total(xs: impl IntoIterator<Item = u32>) -> u32 { xs.into_iter().sum() }\n\
             fn helper() -> u32 { 7 }\n\
             fn evens(xs: &[u32]) -> impl Iterator<Item = &u32> + '_ { xs.iter().filter(|x| { **x > 1 }) }\n\
             impl Cache {\n    fn get(&self) -> u32 { 0 }\n}",
        );
        let names: Vec<String> = items.iter().map(FnItem::qualified_name).collect();
        assert_eq!(names, ["total", "helper", "evens", "Cache::get"]);
    }

    #[test]
    fn tuple_patterns_are_unnamed_params() {
        let items = fns("fn f((a, b): (u32, u32), mut n: usize) {}");
        assert_eq!(items[0].params, vec![None, Some("n".to_string())]);
    }
}
