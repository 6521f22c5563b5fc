//! Per-function fact extraction: the local half of the interprocedural
//! rules.
//!
//! For every [`FnItem`](crate::syntax::FnItem) this pass records what
//! ORX008–ORX010 need to reason across calls: direct panic sites
//! (`.unwrap()`, `.expect()`, `panic!` and kin), blocking operations (socket I/O, `accept`,
//! `Condvar::wait`, sleeps), lock-guard regions and which calls/blocks
//! happen inside them, call sites with argument-level taint, and
//! request-tainted allocation sinks. Facts are strictly file-local:
//! the whole-workspace joins (reachability, lock-set propagation,
//! parameter-taint fixpoints) happen in [`crate::callgraph`].
//!
//! Inline waivers are resolved *here*, where the lexed comments are
//! still in hand: every recorded site carries the set of rules an
//! attached `// orex::allow(ORXnnn)` suppresses, so the cross-file pass
//! never needs to re-read sources.

use crate::diag::Rule;
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::rules::is_waived;
use crate::syntax::{parse_fns, FnItem};

/// Facts for one source file: everything the interprocedural pass needs.
#[derive(Debug)]
pub struct FileFacts {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// One summary per production `fn` item, in source order.
    pub fns: Vec<FnSummary>,
}

/// The interprocedural summary of one function.
#[derive(Debug)]
pub struct FnSummary {
    /// Bare function name.
    pub name: String,
    /// `impl`/`trait` qualifier when the fn is a method.
    pub qualifier: Option<String>,
    /// Whether the first parameter is `self`.
    pub has_self: bool,
    /// Number of non-`self` parameters.
    pub param_count: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Direct panic sites (`.unwrap()`, `.expect()`, `panic!` and kin)
    /// in this body.
    pub panics: Vec<Site>,
    /// Direct blocking operations in this body.
    pub blocking: Vec<Site>,
    /// Outgoing calls, in source order.
    pub calls: Vec<CallSite>,
    /// Lock-guard regions opened in this body.
    pub locks: Vec<LockRegion>,
    /// Request-tainted allocation sinks fed by a *local* taint source.
    pub tainted_sinks: Vec<TaintSink>,
    /// Allocation sinks fed *directly* by a parameter with no clamp —
    /// the raw material for the cross-call parameter-taint fixpoint.
    pub param_sinks: Vec<ParamSink>,
}

impl FnSummary {
    /// `Type::name` for methods, bare name otherwise.
    pub fn display_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One interesting source position with a description and the inline
/// waivers attached to its line.
#[derive(Debug)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What the site is (`\`.unwrap()\``, `TcpListener::accept`, ...).
    pub what: String,
    /// Rules suppressed by an attached `// orex::allow(...)`.
    pub waived: Vec<Rule>,
}

/// One outgoing call.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub name: String,
    /// `A::name(...)` path qualifier, when present.
    pub qualifier: Option<String>,
    /// True for `.name(...)` method-call syntax.
    pub is_method: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Lock names held (per lock-region tracking) at this call.
    pub held_locks: Vec<String>,
    /// Arguments carrying *locally tainted* values: `(arg index,
    /// taint-source line)`. Indices count call-syntax arguments.
    pub tainted_args: Vec<(usize, u32)>,
    /// Arguments that pass one of the caller's own parameters through
    /// unclamped: `(arg index, caller param index)`.
    pub param_args: Vec<(usize, usize)>,
    /// Rules suppressed by an attached `// orex::allow(...)`.
    pub waived: Vec<Rule>,
}

/// One lock acquisition and the region its guard plausibly covers.
#[derive(Debug)]
pub struct LockRegion {
    /// Lock name (field/variable receiver of `.lock()`/`.read()`/`.write()`).
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Indices into [`FnSummary::blocking`] that fall inside the region.
    pub blocking: Vec<usize>,
    /// Indices into [`FnSummary::calls`] that fall inside the region.
    pub calls: Vec<usize>,
    /// Lock names acquired later inside the region (the intra-fn ORX004
    /// material, re-recorded here so the interprocedural pass sees one
    /// uniform edge source).
    pub later_locks: Vec<String>,
}

/// A `with_capacity`/`reserve`/`vec![_; n]` sink fed by a local taint
/// source without a bounds clamp.
#[derive(Debug)]
pub struct TaintSink {
    /// 1-based line of the sink.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Sink description (`Vec::with_capacity`, `vec![_; n]`, ...).
    pub sink: String,
    /// Line of the `.parse()`/`from_str_radix` source that tainted it.
    pub source_line: u32,
    /// Rules suppressed by an attached `// orex::allow(...)`.
    pub waived: Vec<Rule>,
}

/// An allocation sink fed directly by a caller parameter, unclamped.
#[derive(Debug)]
pub struct ParamSink {
    /// Index into the fn's non-`self` parameters.
    pub param: usize,
    /// 1-based line of the sink.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Sink description.
    pub sink: String,
    /// Rules suppressed by an attached `// orex::allow(...)`.
    pub waived: Vec<Rule>,
}

/// The interprocedural rules every site's waiver set is checked for.
const SITE_RULES: [Rule; 4] = [Rule::Orx004, Rule::Orx008, Rule::Orx009, Rule::Orx010];

fn waivers_at(lexed: &LexedFile, line: u32) -> Vec<Rule> {
    SITE_RULES
        .iter()
        .copied()
        .filter(|r| is_waived(lexed, *r, line))
        .collect()
}

/// Extracts [`FileFacts`] from a lexed file. `mask` is the
/// `#[cfg(test)]` token mask from [`crate::rules::test_mask`].
pub fn extract_facts(path: &str, lexed: &LexedFile, mask: &[bool]) -> FileFacts {
    let items = parse_fns(lexed, mask);
    let mut fns = Vec::with_capacity(items.len());
    for (idx, item) in items.items_with_own_ranges() {
        fns.push(summarize_fn(lexed, mask, &items[idx], &items, item));
    }
    FileFacts {
        path: path.to_string(),
        fns,
    }
}

/// Helper trait so `extract_facts` reads naturally; computes, for each
/// item, the token ranges belonging to it *minus* nested fn bodies.
trait OwnRanges {
    fn items_with_own_ranges(&self) -> Vec<(usize, Vec<(usize, usize)>)>;
}

impl OwnRanges for Vec<FnItem> {
    fn items_with_own_ranges(&self) -> Vec<(usize, Vec<(usize, usize)>)> {
        let mut out = Vec::with_capacity(self.len());
        for (i, item) in self.iter().enumerate() {
            let Some((start, end)) = item.body else {
                out.push((i, Vec::new()));
                continue;
            };
            // Direct nested bodies to exclude (children only; grandchild
            // ranges are inside child ranges already).
            let mut holes: Vec<(usize, usize)> = self
                .iter()
                .enumerate()
                .filter(|(j, other)| {
                    *j != i && other.body.is_some_and(|(s, e)| start < s && e <= end)
                })
                .filter_map(|(_, other)| other.body)
                .collect();
            holes.sort();
            let mut ranges = Vec::new();
            let mut cursor = start;
            for (hs, he) in holes {
                if hs > cursor {
                    ranges.push((cursor, hs.saturating_sub(1)));
                }
                cursor = cursor.max(he + 1);
            }
            if cursor <= end {
                ranges.push((cursor, end));
            }
            out.push((i, ranges));
        }
        out
    }
}

/// Names that look like calls but are control-flow keywords.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "as"
            | "in"
            | "where"
            | "move"
            | "let"
            | "else"
            | "fn"
            | "await"
            | "yield"
            | "box"
    )
}

/// The panic-site matcher: method panics need the `.name(` shape,
/// macro panics the `name!` shape.
fn panic_site(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    if (t.text == "unwrap" || t.text == "expect")
        && toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
    {
        return Some(format!("`.{}()`", t.text));
    }
    if (t.text == "panic"
        || t.text == "unreachable"
        || t.text == "todo"
        || t.text == "unimplemented")
        && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
    {
        return Some(format!("`{}!`", t.text));
    }
    None
}

/// The blocking-operation matcher for ORX009: operations that park the
/// calling thread while any held lock guard stays live.
fn blocking_site(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    if !next_open {
        return None;
    }
    let prev_dot = toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
    let empty_parens = toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
    match t.text.as_str() {
        // `thread::sleep(..)` and `.sleep(..)` alike.
        "sleep" => Some("`sleep`".to_string()),
        // `TcpListener::accept()`.
        "accept" if prev_dot && empty_parens => Some("`accept()`".to_string()),
        // Condvar parking.
        "wait" | "wait_timeout" | "wait_while" | "wait_timeout_while" if prev_dot => {
            Some(format!("`Condvar::{}`", t.text))
        }
        // Channel receives park the thread too.
        "recv" | "recv_timeout" if prev_dot && (empty_parens || t.text == "recv_timeout") => {
            Some(format!("`.{}()`", t.text))
        }
        // Socket/stream I/O. Bare `.read()`/`.write()` with *empty*
        // parens are RwLock acquisitions, not I/O — the arg-taking
        // forms and the named exact/line/all variants are the I/O ones.
        "read" | "write" if prev_dot && !empty_parens => Some(format!("`.{}(..)`", t.text)),
        "read_exact" | "read_to_end" | "read_to_string" | "read_line" | "write_all"
        | "write_fmt" | "flush"
            if prev_dot =>
        {
            Some(format!("`.{}(..)`", t.text))
        }
        // Outbound connections block until the peer answers.
        "connect" | "connect_timeout" => Some(format!("`{}(..)`", t.text)),
        // Joining a thread parks until it exits.
        "join" if prev_dot && empty_parens => Some("`.join()`".to_string()),
        _ => None,
    }
}

/// Allocation-sink matcher for ORX010. Returns `(description, argument
/// token range)` — the argument run whose taint decides the finding.
fn alloc_sink(toks: &[Token], i: usize) -> Option<(String, (usize, usize))> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident {
        return None;
    }
    let arg_range = |open: usize| -> Option<(usize, usize)> {
        let close = matching(toks, open, '(', ')')?;
        (close > open + 1).then_some((open + 1, close - 1))
    };
    match t.text.as_str() {
        "with_capacity" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => {
            // `Vec::with_capacity` lexes as `Vec` `:` `:` `with_capacity`.
            let qual = toks
                .get(i.wrapping_sub(3))
                .filter(|q| {
                    q.kind == TokenKind::Ident
                        && toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
                        && toks.get(i.wrapping_sub(2)).is_some_and(|p| p.is_punct(':'))
                })
                .map(|q| q.text.clone())
                .unwrap_or_else(|| "_".to_string());
            Some((format!("{qual}::with_capacity"), arg_range(i + 1)?))
        }
        "reserve" | "reserve_exact" | "resize"
            if toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
        {
            Some((format!(".{}(..)", t.text), arg_range(i + 1)?))
        }
        "vec"
            if toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct('[')) =>
        {
            // `vec![elem; len]` — the len expression after the `;`.
            let close = matching(toks, i + 2, '[', ']')?;
            let semi = (i + 3..close).find(|&k| toks[k].is_punct(';'))?;
            (close > semi + 1).then_some(("vec![_; n]".to_string(), (semi + 1, close - 1)))
        }
        _ => None,
    }
}

/// Index of the closing delimiter matching the opener at `open`.
fn matching(toks: &[Token], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(o) {
            depth += 1;
        } else if t.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Builds the summary for one fn item. `own` is the token ranges that
/// belong to this fn (body minus nested fn bodies).
fn summarize_fn(
    lexed: &LexedFile,
    mask: &[bool],
    item: &FnItem,
    _all: &[FnItem],
    own: Vec<(usize, usize)>,
) -> FnSummary {
    let toks = &lexed.tokens;
    let mut s = FnSummary {
        name: item.name.clone(),
        qualifier: item.qualifier.clone(),
        has_self: item.has_self,
        param_count: item.params.len(),
        line: item.line,
        col: item.col,
        panics: Vec::new(),
        blocking: Vec::new(),
        calls: Vec::new(),
        locks: Vec::new(),
        tainted_sinks: Vec::new(),
        param_sinks: Vec::new(),
    };
    if own.is_empty() {
        return s;
    }
    let in_own = |k: usize| own.iter().any(|&(a, b)| a <= k && k <= b);

    // Taint state: locally tainted names -> source line; params that are
    // still "unclamped" (cleared by any comparison).
    let mut tainted: Vec<(String, u32)> = Vec::new();
    let mut live_params: Vec<(String, usize)> = item
        .params
        .iter()
        .enumerate()
        .filter_map(|(pi, p)| p.clone().map(|name| (name, pi)))
        .collect();

    // Lock regions currently open:
    // (summary index, region end token, guard variable name).
    let mut open_regions: Vec<(usize, usize, Option<String>)> = Vec::new();

    let (body_start, body_end) = match item.body {
        Some(r) => r,
        None => return s,
    };
    let mut i = body_start;
    while i <= body_end {
        if !in_own(i) || mask.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let t = &toks[i];

        // Close expired lock regions.
        open_regions.retain(|(_, end, _)| i <= *end);

        // Comparison adjacency clears taint: `n > LIMIT`, `LIMIT >= n`.
        if t.is_punct('<') || t.is_punct('>') {
            for adj in [i.wrapping_sub(1), i + 1] {
                if let Some(a) = toks.get(adj).filter(|a| a.kind == TokenKind::Ident) {
                    tainted.retain(|(n, _)| *n != a.text);
                    live_params.retain(|(n, _)| *n != a.text);
                }
            }
            i += 1;
            continue;
        }

        // `drop(name)` ends that guard's regions early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            let dropped = &toks[i + 2].text;
            open_regions.retain(|(_, _, guard)| guard.as_deref() != Some(dropped.as_str()));
            i += 4;
            continue;
        }

        // Panic sites.
        if let Some(what) = panic_site(toks, i) {
            s.panics.push(Site {
                line: t.line,
                col: t.col,
                what,
                waived: waivers_at(lexed, t.line),
            });
            i += 1;
            continue;
        }

        // Lock acquisition?
        if let Some((lock_name, _recv_start)) = lock_acquisition(toks, i) {
            let region_end = region_end_for(toks, i, body_end);
            let guard = guard_name(toks, i);
            for (ri, _, _) in &open_regions {
                let lock = lock_name.clone();
                if s.locks[*ri].lock != lock && !s.locks[*ri].later_locks.contains(&lock) {
                    s.locks[*ri].later_locks.push(lock);
                }
            }
            s.locks.push(LockRegion {
                lock: lock_name,
                line: t.line,
                col: t.col,
                blocking: Vec::new(),
                calls: Vec::new(),
                later_locks: Vec::new(),
            });
            open_regions.push((s.locks.len() - 1, region_end, guard));
            i += 1;
            continue;
        }

        // Blocking operations. Condvar waits *release* the guard they
        // are handed while parked — the region whose guard is passed
        // as an argument is not held across the wait, only others are.
        if let Some(what) = blocking_site(toks, i) {
            let released: Vec<String> = if what.starts_with("`Condvar::") {
                matching(toks, i + 1, '(', ')')
                    .map(|close| {
                        toks[i + 2..close]
                            .iter()
                            .filter(|x| x.kind == TokenKind::Ident)
                            .map(|x| x.text.clone())
                            .collect()
                    })
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            let site_idx = s.blocking.len();
            s.blocking.push(Site {
                line: t.line,
                col: t.col,
                what,
                waived: waivers_at(lexed, t.line),
            });
            for (ri, _, guard) in &open_regions {
                if guard.as_ref().is_some_and(|g| released.contains(g)) {
                    continue;
                }
                s.locks[*ri].blocking.push(site_idx);
            }
            i += 1;
            continue;
        }

        // Allocation sinks.
        if let Some((sink, (a, b))) = alloc_sink(toks, i) {
            let arg = &toks[a..=b];
            let clamped = arg
                .iter()
                .any(|x| x.is_ident("min") || x.is_ident("clamp") || x.is_ident("saturating_sub"));
            if !clamped {
                if let Some((_, src)) = tainted
                    .iter()
                    .find(|(n, _)| arg.iter().any(|x| x.is_ident(n)))
                {
                    s.tainted_sinks.push(TaintSink {
                        line: t.line,
                        col: t.col,
                        sink: sink.clone(),
                        source_line: *src,
                        waived: waivers_at(lexed, t.line),
                    });
                }
                if let Some((_, pi)) = live_params
                    .iter()
                    .find(|(n, _)| arg.iter().any(|x| x.is_ident(n)))
                {
                    s.param_sinks.push(ParamSink {
                        param: *pi,
                        line: t.line,
                        col: t.col,
                        sink,
                        waived: waivers_at(lexed, t.line),
                    });
                }
            }
            i += 1;
            continue;
        }

        // Call sites.
        if let Some(call) = call_site(toks, i, &tainted, &live_params) {
            let idx = s.calls.len();
            for (ri, _, _) in &open_regions {
                if !s.locks[*ri].calls.contains(&idx) {
                    s.locks[*ri].calls.push(idx);
                }
            }
            let mut call = call;
            call.held_locks = open_regions
                .iter()
                .map(|(ri, _, _)| s.locks[*ri].lock.clone())
                .collect();
            call.waived = waivers_at(lexed, t.line);
            s.calls.push(call);
            i += 1;
            continue;
        }

        // `let` bindings: taint propagation.
        if t.is_ident("let") {
            if let Some((name, rhs)) = let_binding(toks, i, body_end) {
                let (rs, re) = rhs;
                let rhs_toks = &toks[rs..=re.min(body_end)];
                let clamp = rhs_toks.iter().any(|x| {
                    x.is_ident("min") || x.is_ident("clamp") || x.is_ident("saturating_sub")
                });
                let parse_at = rhs_toks.iter().find(|x| {
                    (x.is_ident("parse") && rhs_toks.iter().any(|d| d.is_punct('.')))
                        || x.is_ident("from_str_radix")
                });
                // Shadowing: a fresh binding replaces the old taint.
                tainted.retain(|(n, _)| *n != name);
                if !clamp {
                    if let Some(src) = parse_at {
                        tainted.push((name, src.line));
                    } else if let Some((_, src)) = tainted
                        .clone()
                        .iter()
                        .find(|(n, _)| rhs_toks.iter().any(|x| x.is_ident(n)))
                    {
                        tainted.push((name, *src));
                    }
                }
            }
        }

        i += 1;
    }
    s
}

/// Name the guard variable a lock acquisition binds to, if any: walks
/// back to the statement start and matches `let [mut] NAME =`,
/// `let Ok(NAME)` / `let Some(NAME)`, and their `if`/`while let` forms.
fn guard_name(toks: &[Token], acq: usize) -> Option<String> {
    let mut st = acq;
    while st > 0 {
        let p = &toks[st - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        st -= 1;
    }
    let mut j = st;
    if toks
        .get(j)
        .is_some_and(|t| t.is_ident("if") || t.is_ident("while"))
    {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_ident("let")) {
        return None;
    }
    j += 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    match toks.get(j) {
        Some(t) if t.is_ident("Ok") || t.is_ident("Some") => {
            let mut k = j + 2;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            toks.get(k)
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.clone())
        }
        Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => Some(t.text.clone()),
        _ => None,
    }
}

/// Matches a lock acquisition at `i`: `.lock()` / `.read()` /
/// `.write()` with empty parens. Returns the lock's receiver name.
fn lock_acquisition(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let t = &toks[i];
    if !(t.is_ident("lock") || t.is_ident("read") || t.is_ident("write")) {
        return None;
    }
    if !(toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && toks.get(i + 2).is_some_and(|n| n.is_punct(')')))
    {
        return None;
    }
    let j = i.wrapping_sub(2);
    match toks.get(j) {
        Some(tok) if tok.kind == TokenKind::Ident => Some((tok.text.clone(), j)),
        Some(tok) if tok.is_punct(')') => {
            // `table().lock()` — name the fn before the parens.
            let mut k = j;
            let mut par = 0i32;
            loop {
                match toks.get(k) {
                    Some(tk) if tk.is_punct(')') => par += 1,
                    Some(tk) if tk.is_punct('(') => {
                        par -= 1;
                        if par == 0 {
                            break;
                        }
                    }
                    Some(_) => {}
                    None => return None,
                }
                if k == 0 {
                    return None;
                }
                k -= 1;
            }
            let j2 = k.wrapping_sub(1);
            match toks.get(j2) {
                Some(tk) if tk.kind == TokenKind::Ident => Some((tk.text.clone(), j2)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Where the guard born at acquisition token `acq` plausibly dies: the
/// end of the enclosing block for `let`-bound guards, the end of the
/// statement for temporaries. Over-approximates `if let` bindings to
/// the end of the *enclosing* block — the right bias for a deadlock
/// and blocking audit.
fn region_end_for(toks: &[Token], acq: usize, body_end: usize) -> usize {
    // Find the statement start: walk back to the nearest `;`, `{`, `}`.
    let mut st = acq;
    while st > 0 {
        let p = &toks[st - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        st -= 1;
    }
    let is_let = toks.get(st).is_some_and(|t| t.is_ident("let"))
        || (toks
            .get(st)
            .is_some_and(|t| t.is_ident("if") || t.is_ident("while"))
            && toks.get(st + 1).is_some_and(|t| t.is_ident("let")));
    // `let v = x.lock().unwrap().drain(..).collect();` binds the
    // *extracted value*, not the guard: after skipping the
    // poison-recovery adapters, a further `.method(` means the guard
    // is a temporary that dies at the statement's `;`.
    let is_let = is_let && !chain_extracts_value(toks, acq);
    if is_let {
        // To the end of the enclosing block: depth-0 `}` scan.
        let mut depth = 0i32;
        let mut k = acq;
        while k <= body_end {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            k += 1;
        }
        body_end
    } else {
        // Temporary guard: dies at the statement's `;`.
        let mut depth = 0i32;
        let mut k = acq;
        while k <= body_end {
            let t = &toks[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                return k;
            }
            k += 1;
        }
        body_end
    }
}

/// True when the method chain after the `.lock()`/`.read()`/`.write()`
/// at `acq` continues past the poison-recovery adapters into another
/// method call — i.e. the statement extracts a value and the guard is
/// a temporary, not the thing being bound.
fn chain_extracts_value(toks: &[Token], acq: usize) -> bool {
    // `acq` is the lock ident; `acq+1`/`acq+2` are its empty parens.
    let mut j = acq + 3;
    loop {
        // `x.lock()?` — the `?` unwraps the poison Result.
        if toks.get(j).is_some_and(|t| t.is_punct('?')) {
            j += 1;
            continue;
        }
        let adapter = toks.get(j).is_some_and(|t| t.is_punct('.'))
            && toks.get(j + 1).is_some_and(|t| {
                t.is_ident("unwrap")
                    || t.is_ident("expect")
                    || t.is_ident("unwrap_or_else")
                    || t.is_ident("unwrap_or_default")
            })
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('));
        if !adapter {
            break;
        }
        match matching(toks, j + 2, '(', ')') {
            Some(close) => j = close + 1,
            None => return false,
        }
    }
    toks.get(j).is_some_and(|t| t.is_punct('.'))
}

/// Matches a call site at `i` and classifies it. Taint/param flow for
/// each argument is resolved against the caller's current state.
fn call_site(
    toks: &[Token],
    i: usize,
    tainted: &[(String, u32)],
    live_params: &[(String, usize)],
) -> Option<CallSite> {
    let t = &toks[i];
    if t.kind != TokenKind::Ident || is_keyword(&t.text) {
        return None;
    }
    if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    // Definitions are not calls.
    if toks
        .get(i.wrapping_sub(1))
        .is_some_and(|p| p.is_ident("fn"))
    {
        return None;
    }
    // Panic sites and lock acquisitions are handled by their own
    // matchers (they run first); what reaches here is a plain call.
    let prev = toks.get(i.wrapping_sub(1));
    let is_method = prev.is_some_and(|p| p.is_punct('.'));
    let mut qualifier = None;
    if !is_method
        && prev.is_some_and(|p| p.is_punct(':'))
        && toks.get(i.wrapping_sub(2)).is_some_and(|p| p.is_punct(':'))
    {
        if let Some(q) = toks
            .get(i.wrapping_sub(3))
            .filter(|q| q.kind == TokenKind::Ident)
        {
            qualifier = Some(q.text.clone());
        }
    }
    // Struct literals `Name ( .. )`? Tuple-struct construction looks
    // like a call; resolution simply won't find a matching fn.

    // Argument ranges: split at top-level commas.
    let close = matching(toks, i + 1, '(', ')')?;
    let mut tainted_args = Vec::new();
    let mut param_args = Vec::new();
    let mut start = i + 2;
    let mut depth = 0i32;
    let mut arg_idx = 0usize;
    for k in i + 2..=close {
        let tk = &toks[k];
        let boundary = k == close || (depth == 0 && tk.is_punct(','));
        if boundary {
            if start < k {
                let arg = &toks[start..k];
                let clamped = arg.iter().any(|x| {
                    x.is_ident("min") || x.is_ident("clamp") || x.is_ident("saturating_sub")
                });
                if !clamped {
                    if let Some((_, src)) = tainted
                        .iter()
                        .find(|(n, _)| arg.iter().any(|x| x.is_ident(n)))
                    {
                        tainted_args.push((arg_idx, *src));
                    } else if let Some((_, pi)) = live_params
                        .iter()
                        .find(|(n, _)| arg.iter().any(|x| x.is_ident(n)))
                    {
                        param_args.push((arg_idx, *pi));
                    }
                }
            }
            arg_idx += 1;
            start = k + 1;
        } else if tk.is_punct('(') || tk.is_punct('[') || tk.is_punct('{') {
            depth += 1;
        } else if tk.is_punct(')') || tk.is_punct(']') || tk.is_punct('}') {
            depth -= 1;
        }
    }

    Some(CallSite {
        name: t.text.clone(),
        qualifier,
        is_method,
        line: t.line,
        col: t.col,
        held_locks: Vec::new(),
        tainted_args,
        param_args,
        waived: Vec::new(),
    })
}

/// At a `let` token, extracts the bound name and RHS token range for
/// simple forms: `let [mut] NAME = ...;`, `let Ok(NAME) = ...`,
/// `let Some(NAME) = ...` (and their `if let` variants, which arrive
/// here already positioned at `let`).
fn let_binding(toks: &[Token], let_at: usize, body_end: usize) -> Option<(String, (usize, usize))> {
    let mut j = let_at + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = match toks.get(j) {
        Some(t) if t.is_ident("Ok") || t.is_ident("Some") => {
            if !toks.get(j + 1).is_some_and(|n| n.is_punct('(')) {
                return None;
            }
            let mut k = j + 2;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            let inner = toks.get(k).filter(|t| t.kind == TokenKind::Ident)?;
            if !toks.get(k + 1).is_some_and(|n| n.is_punct(')')) {
                return None;
            }
            j = k + 2;
            inner.text.clone()
        }
        Some(t) if t.kind == TokenKind::Ident && !is_keyword(&t.text) => {
            let name = t.text.clone();
            j += 1;
            name
        }
        _ => return None,
    };
    // Skip a `: Type` ascription up to the `=`.
    let mut depth = 0i32;
    while j <= body_end {
        let t = &toks[j];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            depth = (depth - 1).max(0);
        } else if depth == 0 && t.is_punct('=') {
            // Not `==` / `=>`.
            if toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
            {
                return None;
            }
            break;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{')) {
            return None;
        }
        j += 1;
    }
    if j > body_end {
        return None;
    }
    // RHS: from after `=` to the statement `;` (or an opening `{` for
    // `if let` — the condition expression ends there).
    let rs = j + 1;
    let mut k = rs;
    let mut d = 0i32;
    while k <= body_end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') {
            d += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            d -= 1;
        } else if d <= 0 && (t.is_punct(';') || t.is_punct('{')) {
            break;
        }
        k += 1;
    }
    (k > rs).then(|| (name, (rs, k.saturating_sub(1))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn facts(src: &str) -> FileFacts {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        extract_facts("crates/x/src/lib.rs", &lexed, &mask)
    }

    #[test]
    fn panic_and_call_sites_are_recorded() {
        let f = facts(
            "fn handler(q: &str) -> u32 {\n    let v = parse_query(q);\n    score(v).unwrap()\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.panics.len(), 1);
        assert!(s.panics[0].what.contains("unwrap"));
        let names: Vec<&str> = s.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["parse_query", "score"]);
    }

    #[test]
    fn blocking_sites_distinguish_io_from_rwlock() {
        let f = facts(
            "fn pump(&self, s: &mut TcpStream) {\n    let g = self.state.read();\n    s.read_exact(&mut buf);\n    s.write(&buf);\n    self.cv.wait(g);\n}",
        );
        let s = &f.fns[0];
        // read() empty-parens is the lock; read_exact/write(args)/wait block.
        assert_eq!(s.locks.len(), 1);
        assert_eq!(s.locks[0].lock, "state");
        let kinds: Vec<&str> = s.blocking.iter().map(|b| b.what.as_str()).collect();
        assert_eq!(
            kinds,
            ["`.read_exact(..)`", "`.write(..)`", "`Condvar::wait`"]
        );
        // The I/O ops fall inside the guard's region; the Condvar wait
        // releases guard `g` while parked, so it is not "held across".
        assert_eq!(s.locks[0].blocking, vec![0, 1]);
    }

    #[test]
    fn condvar_wait_releases_its_own_guard_but_not_others() {
        let f = facts(
            "fn f(&self) {\n    let extra = self.stats.lock();\n    let g = self.state.lock();\n    self.cv.wait_timeout(g, TIMEOUT);\n}",
        );
        let s = &f.fns[0];
        // `g` is released by the wait; `extra` stays held across it.
        let stats = s.locks.iter().find(|r| r.lock == "stats").unwrap();
        let state = s.locks.iter().find(|r| r.lock == "state").unwrap();
        assert_eq!(stats.blocking.len(), 1);
        assert!(state.blocking.is_empty());
    }

    #[test]
    fn drop_ends_a_lock_region() {
        let f = facts(
            "fn f(&self) {\n    let g = self.state.lock();\n    drop(g);\n    self.sock.write_all(b\"x\");\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.locks.len(), 1);
        assert!(s.locks[0].blocking.is_empty(), "{:?}", s.locks[0]);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let f = facts(
            "fn f(&self) {\n    self.state.lock().clear();\n    self.sock.write_all(b\"x\");\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.locks.len(), 1);
        assert!(s.locks[0].blocking.is_empty());
    }

    #[test]
    fn value_extracting_chain_is_a_temporary_guard() {
        // The guard is consumed by `.drain().collect()` and dies at the
        // `;` — the join below runs with no lock held.
        let f = facts(
            "fn shutdown(&self) {\n    let handles: Vec<_> = self.threads.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();\n    for h in handles {\n        let _ = h.join();\n    }\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.locks.len(), 1);
        assert!(s.locks[0].blocking.is_empty(), "{:?}", s.locks[0]);
    }

    #[test]
    fn calls_inside_regions_record_held_locks() {
        let f =
            facts("fn f(&self) {\n    let g = self.sessions.lock();\n    self.flush_to_disk();\n}");
        let s = &f.fns[0];
        let call = s.calls.iter().find(|c| c.name == "flush_to_disk").unwrap();
        assert_eq!(call.held_locks, vec!["sessions".to_string()]);
    }

    #[test]
    fn later_locks_feed_the_interprocedural_order_graph() {
        let f = facts(
            "fn f(&self) {\n    let a = self.cache.lock();\n    let b = self.sessions.lock();\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.locks[0].later_locks, vec!["sessions".to_string()]);
    }

    #[test]
    fn taint_flows_from_parse_to_sinks_unless_clamped() {
        let f = facts(
            "fn alloc(h: &str) -> Vec<u8> {\n    let n = h.parse::<usize>().unwrap_or(0);\n    Vec::with_capacity(n)\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.tainted_sinks.len(), 1, "{:?}", s.tainted_sinks);
        assert_eq!(s.tainted_sinks[0].sink, "Vec::with_capacity");

        let clamped = facts(
            "fn alloc(h: &str) -> Vec<u8> {\n    let n = h.parse::<usize>().unwrap_or(0);\n    Vec::with_capacity(n.min(4096))\n}",
        );
        assert!(clamped.fns[0].tainted_sinks.is_empty());

        let guarded = facts(
            "fn alloc(h: &str) -> Result<Vec<u8>, E> {\n    let n = h.parse::<usize>().unwrap_or(0);\n    if n > MAX { return Err(E); }\n    Ok(Vec::with_capacity(n))\n}",
        );
        assert!(guarded.fns[0].tainted_sinks.is_empty());
    }

    #[test]
    fn taint_propagates_through_let_chains() {
        let f = facts(
            "fn alloc(h: &str) -> Vec<u8> {\n    let n = h.parse::<usize>().unwrap_or(0);\n    let padded = n + 16;\n    vec![0u8; padded]\n}",
        );
        let s = &f.fns[0];
        assert_eq!(s.tainted_sinks.len(), 1);
        assert_eq!(s.tainted_sinks[0].sink, "vec![_; n]");
    }

    #[test]
    fn param_sinks_and_call_arg_taint() {
        let f = facts(
            "fn build(len: usize) -> Vec<u8> {\n    Vec::with_capacity(len)\n}\n\
             fn outer(h: &str) {\n    let n = h.parse::<usize>().unwrap_or(0);\n    build(n);\n}",
        );
        let build = &f.fns[0];
        assert_eq!(build.param_sinks.len(), 1);
        assert_eq!(build.param_sinks[0].param, 0);
        let outer = &f.fns[1];
        let call = outer.calls.iter().find(|c| c.name == "build").unwrap();
        assert_eq!(call.tainted_args, vec![(0, 5)]);
    }

    #[test]
    fn waivers_are_captured_at_sites() {
        let f = facts(
            "fn f(&self) {\n    // orex::allow(ORX009): metrics snapshot, bounded\n    let g = self.state.lock();\n    self.sock.write_all(b\"x\");\n}",
        );
        // The waiver attaches to the *acquisition* line here, not the
        // blocking line — so the blocking site itself is not waived.
        let s = &f.fns[0];
        assert!(s.blocking[0].waived.is_empty());

        let f2 = facts(
            "fn f(&self, s: &mut TcpStream) {\n    let g = self.state.lock();\n    // orex::allow(ORX009): drained on shutdown only\n    s.write_all(b\"x\");\n}",
        );
        assert_eq!(f2.fns[0].blocking[0].waived, vec![Rule::Orx009]);
    }

    #[test]
    fn method_and_path_calls_classify() {
        let f =
            facts("fn f(s: &Server) {\n    s.handle();\n    Server::restart(s);\n    helper();\n}");
        let c = &f.fns[0].calls;
        assert!(c[0].is_method && c[0].name == "handle");
        assert_eq!(c[1].qualifier.as_deref(), Some("Server"));
        assert!(!c[2].is_method && c[2].qualifier.is_none());
    }
}
