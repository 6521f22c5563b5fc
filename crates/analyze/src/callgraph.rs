//! Whole-workspace call graph and the interprocedural rules.
//!
//! Consumes the per-file [`FileFacts`](crate::summary::FileFacts)
//! produced by [`crate::summary`] and joins them: name-resolved call
//! edges, then three fixpoints (panic reachability, blocking
//! reachability, transitive lock sets, parameter-taint sensitivity)
//! that power ORX008, ORX009 and ORX010 plus the interprocedural
//! extension of ORX004's lock-order graph.
//!
//! ## Resolution, honestly stated
//!
//! This is a name-based resolver, not a type checker:
//!
//! - free calls `f(..)` resolve to a same-file free fn first, else to
//!   every workspace free fn of that name;
//! - path calls `T::f(..)` resolve to fns declared in an `impl T` /
//!   `trait T` block (`Self::f` uses the caller's own qualifier);
//! - method calls `.f(..)` resolve to every workspace method of that
//!   name, **unless** the name collides with the std prelude surface
//!   (a curated denylist) — those are assumed foreign;
//! - calls through trait objects, function pointers and closures are
//!   not resolved; unresolved calls are assumed panic-free and
//!   non-blocking (conservative for noise, optimistic for coverage —
//!   the trade documented in the README).

use crate::diag::{Finding, Rule};
use crate::policy::Policy;
use crate::rules::LockEdge;
use crate::summary::{FileFacts, FnSummary};

/// Result of the interprocedural pass.
#[derive(Debug, Default)]
pub struct InterFindings {
    /// ORX008/ORX009/ORX010 findings (policy-scoped, waivers applied).
    pub findings: Vec<Finding>,
    /// Findings suppressed by inline waivers, for the report counter.
    pub waived: usize,
    /// Lock-order edges discovered *through* calls, to be merged with
    /// the per-file edges before the ORX004 inversion check.
    pub lock_edges: Vec<LockEdge>,
}

/// Method names assumed to belong to std/foreign types: `.get(..)` on
/// something is overwhelmingly a map/slice, not a workspace method.
/// A workspace method sharing one of these names is simply not
/// resolved — a documented coverage gap, never a false edge.
const FOREIGN_METHODS: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ptr",
    "as_ref",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "by_ref",
    "bytes",
    "capacity",
    "chain",
    "chars",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "chunks",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "contains",
    "contains_key",
    "copied",
    "count",
    "dedup",
    "drain",
    "elapsed",
    "end",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect_err",
    "extend",
    "extension",
    "fetch_add",
    "fetch_sub",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "first",
    "flat_map",
    "flatten",
    "fmt",
    "fold",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "id",
    "insert",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lines",
    "load",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "next",
    "nth",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_default",
    "or_else",
    "or_insert",
    "or_insert_with",
    "partial_cmp",
    "partition",
    "peek",
    "peekable",
    "pop",
    "position",
    "pow",
    "product",
    "push",
    "push_str",
    "remove",
    "retain",
    "rev",
    "rposition",
    "saturating_add",
    "saturating_mul",
    "set_len",
    "skip",
    "skip_while",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "splice",
    "split",
    "split_at",
    "split_whitespace",
    "splitn",
    "starts_with",
    "step_by",
    "store",
    "sum",
    "swap",
    "take_while",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "to_owned",
    "to_path_buf",
    "to_str",
    "to_string",
    "to_string_lossy",
    "to_vec",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_into",
    "try_lock",
    "try_recv",
    "unwrap_err",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "unzip",
    "values",
    "values_mut",
    "windows",
    "zip",
];

fn is_foreign_method(name: &str) -> bool {
    FOREIGN_METHODS.binary_search(&name).is_ok()
}

/// How a fn came to be marked by a reachability fixpoint: either a
/// site of its own, or a call into a marked callee. Witnesses form a
/// path to a concrete site for the diagnostic's call chain.
#[derive(Clone, Debug)]
enum Witness {
    /// `(line, what)` — the fn's own offending site.
    Site(u32, String),
    /// `(call line, callee id)` — offense lives down this call.
    Call(u32, usize),
}

/// The assembled graph: flat fn list plus resolved call targets.
pub struct Graph<'a> {
    /// `(file index, fn index)` per global fn id.
    fns: Vec<(usize, usize)>,
    facts: &'a [FileFacts],
    /// Per fn id, per call index: resolved target fn ids.
    targets: Vec<Vec<Vec<usize>>>,
}

impl<'a> Graph<'a> {
    /// Builds the graph: indexes every fn and resolves every call.
    pub fn build(facts: &'a [FileFacts]) -> Graph<'a> {
        let mut fns = Vec::new();
        for (fi, file) in facts.iter().enumerate() {
            for (si, _) in file.fns.iter().enumerate() {
                fns.push((fi, si));
            }
        }
        // name -> candidate fn ids, split by flavor.
        let mut free_by_name: std::collections::HashMap<&str, Vec<usize>> = Default::default();
        let mut methods_by_name: std::collections::HashMap<&str, Vec<usize>> = Default::default();
        let mut by_qual_name: std::collections::HashMap<(&str, &str), Vec<usize>> =
            Default::default();
        for (id, &(fi, si)) in fns.iter().enumerate() {
            let f = &facts[fi].fns[si];
            match &f.qualifier {
                None => free_by_name.entry(f.name.as_str()).or_default().push(id),
                Some(q) => {
                    by_qual_name
                        .entry((q.as_str(), f.name.as_str()))
                        .or_default()
                        .push(id);
                    if f.has_self {
                        methods_by_name.entry(f.name.as_str()).or_default().push(id);
                    }
                }
            }
        }

        let mut targets = Vec::with_capacity(fns.len());
        for &(fi, si) in &fns {
            let caller = &facts[fi].fns[si];
            let mut per_call = Vec::with_capacity(caller.calls.len());
            for c in &caller.calls {
                let mut t: Vec<usize> = Vec::new();
                if c.is_method {
                    if !is_foreign_method(&c.name) {
                        if let Some(ids) = methods_by_name.get(c.name.as_str()) {
                            t.extend(ids.iter().copied());
                        }
                    }
                } else if let Some(q) = &c.qualifier {
                    let qual = if q == "Self" {
                        caller.qualifier.as_deref().unwrap_or("Self")
                    } else {
                        q.as_str()
                    };
                    if let Some(ids) = by_qual_name.get(&(qual, c.name.as_str())) {
                        t.extend(ids.iter().copied());
                    }
                } else {
                    // Free call: same-file first, else any workspace free fn.
                    if let Some(ids) = free_by_name.get(c.name.as_str()) {
                        let local: Vec<usize> =
                            ids.iter().copied().filter(|&id| fns[id].0 == fi).collect();
                        t.extend(if local.is_empty() { ids.clone() } else { local });
                    }
                }
                per_call.push(t);
            }
            targets.push(per_call);
        }
        Graph {
            fns,
            facts,
            targets,
        }
    }

    fn summary(&self, id: usize) -> &FnSummary {
        let (fi, si) = self.fns[id];
        &self.facts[fi].fns[si]
    }

    fn file(&self, id: usize) -> &str {
        &self.facts[self.fns[id].0].path
    }

    /// Generic backward reachability with witness recording. `seed`
    /// yields each fn's own offending site, `skip_call` suppresses
    /// propagation through waived calls.
    fn reach(
        &self,
        seed: impl Fn(usize, &FnSummary) -> Option<(u32, String)>,
        skip_call: Rule,
    ) -> Vec<Option<Witness>> {
        let n = self.fns.len();
        let mut marked: Vec<Option<Witness>> = vec![None; n];
        let mut work: Vec<usize> = Vec::new();
        for (id, slot) in marked.iter_mut().enumerate() {
            if let Some((line, what)) = seed(id, self.summary(id)) {
                *slot = Some(Witness::Site(line, what));
                work.push(id);
            }
        }
        // Reverse edges: callee -> (caller, call line), skipping waived
        // call sites so a waiver at the chain's entry clears upstream.
        let mut rev: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for id in 0..n {
            let s = self.summary(id);
            for (ci, c) in s.calls.iter().enumerate() {
                if c.waived.contains(&skip_call) {
                    continue;
                }
                for &t in &self.targets[id][ci] {
                    rev[t].push((id, c.line));
                }
            }
        }
        while let Some(id) = work.pop() {
            for &(caller, line) in &rev[id] {
                if marked[caller].is_none() {
                    marked[caller] = Some(Witness::Call(line, id));
                    work.push(caller);
                }
            }
        }
        marked
    }

    /// Renders the call chain from `id`'s witness down to the concrete
    /// site: `` `a` → `b` → `c` panics via `.unwrap()` at file:line ``.
    fn chain(&self, start: usize, marked: &[Option<Witness>], verb: &str) -> String {
        let mut out = String::new();
        let mut id = start;
        let mut hops = 0;
        loop {
            out.push_str(&format!("`{}`", self.summary(id).display_name()));
            match &marked[id] {
                Some(Witness::Call(line, callee)) if hops < 12 => {
                    out.push_str(&format!(" ({}:{line}) → ", self.file(id)));
                    id = *callee;
                    hops += 1;
                }
                Some(Witness::Site(line, what)) => {
                    out.push_str(&format!(" {verb} {what} at {}:{line}", self.file(id)));
                    break;
                }
                _ => break,
            }
        }
        out
    }

    /// Transitive lock sets: every lock a fn may acquire, through calls.
    fn transitive_locks(&self) -> Vec<Vec<String>> {
        let n = self.fns.len();
        let mut locks: Vec<Vec<String>> = (0..n)
            .map(|id| {
                let mut v: Vec<String> = self
                    .summary(id)
                    .locks
                    .iter()
                    .map(|r| r.lock.clone())
                    .collect();
                v.sort();
                v.dedup();
                v
            })
            .collect();
        // Fixpoint: propagate callee locks into callers.
        let mut changed = true;
        let mut rounds = 0;
        while changed && rounds < 64 {
            changed = false;
            rounds += 1;
            for id in 0..n {
                let mut add: Vec<String> = Vec::new();
                for tl in self.targets[id].iter().flatten() {
                    for l in &locks[*tl] {
                        if !locks[id].contains(l) && !add.contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    locks[id].extend(add);
                    locks[id].sort();
                    locks[id].dedup();
                    changed = true;
                }
            }
        }
        locks
    }

    /// Parameter-taint fixpoint: which `(fn, param)` pairs reach an
    /// allocation sink unclamped, with a witness for the chain.
    fn sensitive_params(&self) -> std::collections::HashMap<(usize, usize), Witness> {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;
        let mut sens: HashMap<(usize, usize), Witness> = HashMap::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for id in 0..self.fns.len() {
            for ps in &self.summary(id).param_sinks {
                if ps.waived.contains(&Rule::Orx010) {
                    continue;
                }
                if let Entry::Vacant(e) = sens.entry((id, ps.param)) {
                    e.insert(Witness::Site(ps.line, ps.sink.clone()));
                    work.push((id, ps.param));
                }
            }
        }
        // Reverse param edges: callee param -> caller param feeding it.
        let mut rev: HashMap<(usize, usize), Vec<(usize, usize, u32)>> = HashMap::new();
        for id in 0..self.fns.len() {
            let s = self.summary(id);
            for (ci, c) in s.calls.iter().enumerate() {
                if c.waived.contains(&Rule::Orx010) {
                    continue;
                }
                for &(arg, caller_param) in &c.param_args {
                    for &t in &self.targets[id][ci] {
                        if let Some(callee_param) = self.map_arg(t, c.is_method, arg) {
                            rev.entry((t, callee_param)).or_default().push((
                                id,
                                caller_param,
                                c.line,
                            ));
                        }
                    }
                }
            }
        }
        while let Some(key) = work.pop() {
            if let Some(feeders) = rev.get(&key) {
                for &(caller, caller_param, line) in feeders {
                    if let Entry::Vacant(e) = sens.entry((caller, caller_param)) {
                        e.insert(Witness::Call(line, key.0));
                        work.push((caller, caller_param));
                    }
                }
            }
        }
        sens
    }

    /// Maps a call-syntax argument index to the callee's non-self
    /// parameter index. Path calls to methods pass the receiver as
    /// argument 0.
    fn map_arg(&self, callee: usize, is_method_call: bool, arg: usize) -> Option<usize> {
        let callee_s = self.summary(callee);
        let param = if callee_s.has_self && !is_method_call {
            arg.checked_sub(1)?
        } else {
            arg
        };
        (param < callee_s.param_count).then_some(param)
    }

    /// Renders the parameter-taint chain from a sensitive param down to
    /// its sink.
    fn param_chain(
        &self,
        start: (usize, usize),
        sens: &std::collections::HashMap<(usize, usize), Witness>,
    ) -> String {
        let mut out = String::new();
        let mut id = start.0;
        let mut hops = 0;
        let mut key = start;
        loop {
            out.push_str(&format!("`{}`", self.summary(id).display_name()));
            match sens.get(&key) {
                Some(Witness::Call(line, callee)) if hops < 12 => {
                    out.push_str(&format!(" ({}:{line}) → ", self.file(id)));
                    // Find which param of the callee we fed — follow the
                    // sens map by scanning the callee's keys. The callee
                    // has few params; take the first sensitive one its
                    // witness chain continues from.
                    let next = (0..self.summary(*callee).param_count)
                        .find(|p| sens.contains_key(&(*callee, *p)));
                    id = *callee;
                    key = (id, next.unwrap_or(0));
                    hops += 1;
                }
                Some(Witness::Site(line, what)) => {
                    out.push_str(&format!(" sizes {what} at {}:{line}", self.file(id)));
                    break;
                }
                _ => break,
            }
        }
        out
    }
}

/// Runs the interprocedural rules over assembled facts.
pub fn interprocedural_findings(facts: &[FileFacts], policy: &Policy) -> InterFindings {
    let g = Graph::build(facts);
    let mut out = InterFindings::default();

    // ORX008: panic reachability. Roots are unwaived panic sites in
    // files *outside* the ORX008 scope: inside it, clippy's panic lints
    // (denied at those crate roots) already reject the site or carry
    // its `#[expect]` waiver.
    let panic_marked = g.reach(
        |id, s| {
            if policy.rule_applies(Rule::Orx008, g.file(id)) {
                return None;
            }
            s.panics
                .iter()
                .find(|p| !p.waived.contains(&Rule::Orx008))
                .map(|p| (p.line, p.what.clone()))
        },
        Rule::Orx008,
    );
    for id in 0..g.fns.len() {
        let file = g.file(id).to_string();
        if !policy.rule_applies(Rule::Orx008, &file) {
            continue;
        }
        let s = g.summary(id);
        for (ci, c) in s.calls.iter().enumerate() {
            let Some(&t) = g.targets[id][ci]
                .iter()
                .find(|&&t| panic_marked[t].is_some())
            else {
                continue;
            };
            if c.waived.contains(&Rule::Orx008) {
                out.waived += 1;
                continue;
            }
            let chain = g.chain(t, &panic_marked, "panics via");
            out.findings.push(Finding {
                rule: Rule::Orx008,
                file: file.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "hot path `{}` can panic through this call: {chain} — return an error \
                     instead, or waive at the panic site with a justification",
                    s.display_name()
                ),
            });
            break; // One finding per scoped fn keeps the report readable.
        }
    }

    // ORX009: blocking reachability + guard regions.
    let block_marked = g.reach(
        |_, s| {
            s.blocking
                .iter()
                .find(|b| !b.waived.contains(&Rule::Orx009))
                .map(|b| (b.line, b.what.clone()))
        },
        Rule::Orx009,
    );
    for id in 0..g.fns.len() {
        let file = g.file(id).to_string();
        if !policy.rule_applies(Rule::Orx009, &file) {
            continue;
        }
        let s = g.summary(id);
        // Direct: a blocking op inside a guard region of the same fn.
        for r in &s.locks {
            for &bi in &r.blocking {
                let b = &s.blocking[bi];
                if b.waived.contains(&Rule::Orx009) {
                    out.waived += 1;
                    continue;
                }
                out.findings.push(Finding {
                    rule: Rule::Orx009,
                    file: file.clone(),
                    line: b.line,
                    col: b.col,
                    message: format!(
                        "{} blocks while guard of lock `{}` (acquired at line {}) is live in \
                         `{}` — drop the guard first or move the blocking call out",
                        b.what,
                        r.lock,
                        r.line,
                        s.display_name()
                    ),
                });
            }
        }
        // Through calls: callee (transitively) blocks while we hold.
        for (ci, c) in s.calls.iter().enumerate() {
            if c.held_locks.is_empty() {
                continue;
            }
            let Some(&t) = g.targets[id][ci]
                .iter()
                .find(|&&t| block_marked[t].is_some())
            else {
                continue;
            };
            if c.waived.contains(&Rule::Orx009) {
                out.waived += 1;
                continue;
            }
            let chain = g.chain(t, &block_marked, "blocks on");
            out.findings.push(Finding {
                rule: Rule::Orx009,
                file: file.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "lock `{}` held across this call in `{}`, and the callee blocks: {chain} \
                     — drop the guard before the call",
                    c.held_locks.join("`, `"),
                    s.display_name()
                ),
            });
        }
    }

    // Interprocedural ORX004: a call made with lock H held, into a
    // callee that (transitively) acquires L, is an H→L order edge.
    let locks = g.transitive_locks();
    for id in 0..g.fns.len() {
        let s = g.summary(id);
        for (ci, c) in s.calls.iter().enumerate() {
            if c.held_locks.is_empty() {
                continue;
            }
            if c.waived.contains(&Rule::Orx004) {
                continue;
            }
            let mut callee_locks: Vec<&String> = g.targets[id][ci]
                .iter()
                .flat_map(|&t| locks[t].iter())
                .collect();
            callee_locks.sort();
            callee_locks.dedup();
            for held in &c.held_locks {
                for &l in &callee_locks {
                    if held != l {
                        out.lock_edges.push(LockEdge {
                            func: s.display_name(),
                            first: held.clone(),
                            second: l.clone(),
                            file: g.file(id).to_string(),
                            line: c.line,
                            col: c.col,
                            waived: false,
                        });
                    }
                }
            }
        }
    }

    // ORX010: locally tainted sinks, then tainted call arguments into
    // sensitive parameters.
    let sens = g.sensitive_params();
    for id in 0..g.fns.len() {
        let file = g.file(id).to_string();
        if !policy.rule_applies(Rule::Orx010, &file) {
            continue;
        }
        let s = g.summary(id);
        for ts in &s.tainted_sinks {
            if ts.waived.contains(&Rule::Orx010) {
                out.waived += 1;
                continue;
            }
            out.findings.push(Finding {
                rule: Rule::Orx010,
                file: file.clone(),
                line: ts.line,
                col: ts.col,
                message: format!(
                    "length parsed from request bytes (line {}) sizes {} without a bounds \
                     clamp in `{}` — clamp with `.min(LIMIT)` or reject over-limit requests \
                     first",
                    ts.source_line,
                    ts.sink,
                    s.display_name()
                ),
            });
        }
        for (ci, c) in s.calls.iter().enumerate() {
            for &(arg, src_line) in &c.tainted_args {
                let Some(&t) = g.targets[id][ci].iter().find(|&&t| {
                    g.map_arg(t, c.is_method, arg)
                        .is_some_and(|p| sens.contains_key(&(t, p)))
                }) else {
                    continue;
                };
                if c.waived.contains(&Rule::Orx010) {
                    out.waived += 1;
                    continue;
                }
                let p = g.map_arg(t, c.is_method, arg).unwrap_or(0);
                let chain = g.param_chain((t, p), &sens);
                out.findings.push(Finding {
                    rule: Rule::Orx010,
                    file: file.clone(),
                    line: c.line,
                    col: c.col,
                    message: format!(
                        "request-derived length (parsed at line {src_line}) flows into this \
                         call unclamped: {chain} — clamp before passing it down",
                    ),
                });
            }
        }
    }

    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;
    use crate::summary::extract_facts;

    /// Policy scoping ORX008 to `scoped/src/**`.
    fn policy() -> Policy {
        Policy::parse(
            "scope ORX008 crates/scoped/src/**\n\
             scope ORX009 **\n\
             scope ORX010 **\n",
        )
        .unwrap()
    }

    fn facts_of(path: &str, src: &str) -> FileFacts {
        let lexed = lex(src);
        let mask = test_mask(&lexed.tokens);
        extract_facts(path, &lexed, &mask)
    }

    #[test]
    fn orx008_reports_panic_two_calls_away_with_chain() {
        let scoped = facts_of(
            "crates/scoped/src/lib.rs",
            "fn handle(q: &str) -> u32 {\n    score(q)\n}",
        );
        let helper = facts_of(
            "crates/helper/src/lib.rs",
            "fn score(q: &str) -> u32 {\n    weights(q)\n}\n\
             fn weights(q: &str) -> u32 {\n    q.parse().unwrap()\n}",
        );
        let out = interprocedural_findings(&[scoped, helper], &policy());
        let f: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Orx008)
            .collect();
        assert_eq!(f.len(), 1, "{:?}", out.findings);
        assert_eq!(f[0].file, "crates/scoped/src/lib.rs");
        assert_eq!(f[0].line, 2);
        assert!(
            f[0].message
                .contains("`score` (crates/helper/src/lib.rs:2) → `weights`"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("crates/helper/src/lib.rs:5"));
    }

    #[test]
    fn orx008_waiver_at_panic_site_clears_all_callers() {
        let scoped = facts_of(
            "crates/scoped/src/lib.rs",
            "fn handle(q: &str) -> u32 {\n    score(q)\n}",
        );
        let helper = facts_of(
            "crates/helper/src/lib.rs",
            "fn score(q: &str) -> u32 {\n    // orex::allow(ORX008): startup-validated config\n    q.parse().unwrap()\n}",
        );
        let out = interprocedural_findings(&[scoped, helper], &policy());
        assert!(
            out.findings.iter().all(|f| f.rule != Rule::Orx008),
            "{:?}",
            out.findings
        );
    }

    #[test]
    fn orx008_in_scope_panics_are_orx002s_job_not_orx008s() {
        // Panic site inside the ORX008 scope: clippy's panic lints reject
        // it there already; ORX008 must not double-report callers within
        // the scope.
        let scoped = facts_of(
            "crates/scoped/src/lib.rs",
            "fn handle(q: &str) -> u32 {\n    score(q)\n}\n\
             fn score(q: &str) -> u32 {\n    q.parse().unwrap()\n}",
        );
        let out = interprocedural_findings(&[scoped], &policy());
        assert!(out.findings.iter().all(|f| f.rule != Rule::Orx008));
    }

    #[test]
    fn orx009_direct_and_through_calls() {
        let f = facts_of(
            "crates/s/src/lib.rs",
            "impl S {\n\
             fn pump(&self) {\n    let g = self.state.lock();\n    self.sock.write_all(b\"x\");\n}\n\
             fn outer(&self) {\n    let g = self.sessions.lock();\n    self.persist();\n}\n\
             fn persist(&self) {\n    self.sock.write_all(b\"y\");\n}\n\
             }",
        );
        let out = interprocedural_findings(&[f], &policy());
        let nine: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Orx009)
            .collect();
        assert_eq!(nine.len(), 2, "{:#?}", nine);
        assert!(nine.iter().any(|f| f.message.contains("`state`")));
        assert!(nine
            .iter()
            .any(|f| f.message.contains("`sessions`") && f.message.contains("`S::persist`")));
    }

    #[test]
    fn orx004_edges_cross_calls() {
        let f = facts_of(
            "crates/s/src/lib.rs",
            "impl S {\n\
             fn a(&self) {\n    let g = self.cache.lock();\n    self.grab();\n}\n\
             fn grab(&self) {\n    let g = self.sessions.lock();\n}\n\
             fn b(&self) {\n    let g = self.sessions.lock();\n    let h = self.cache.lock();\n}\n\
             }",
        );
        let out = interprocedural_findings(&[f], &policy());
        assert!(out
            .lock_edges
            .iter()
            .any(|e| e.first == "cache" && e.second == "sessions"));
    }

    #[test]
    fn orx010_tainted_arg_reaches_param_sink_across_files() {
        let server = facts_of(
            "crates/s/src/lib.rs",
            "fn read_req(h: &str) {\n    let n = h.parse::<usize>().unwrap_or(0);\n    build_buf(n);\n}",
        );
        let store = facts_of(
            "crates/t/src/lib.rs",
            "fn build_buf(len: usize) -> Vec<u8> {\n    Vec::with_capacity(len)\n}",
        );
        let out = interprocedural_findings(&[server, store], &policy());
        let ten: Vec<_> = out
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Orx010)
            .collect();
        assert_eq!(ten.len(), 1, "{:#?}", out.findings);
        assert_eq!(ten[0].file, "crates/s/src/lib.rs");
        assert!(
            ten[0]
                .message
                .contains("`build_buf` sizes Vec::with_capacity"),
            "{}",
            ten[0].message
        );
    }

    #[test]
    fn orx010_clamped_at_call_site_is_clean() {
        let server = facts_of(
            "crates/s/src/lib.rs",
            "fn read_req(h: &str) {\n    let n = h.parse::<usize>().unwrap_or(0);\n    build_buf(n.min(4096));\n}",
        );
        let store = facts_of(
            "crates/t/src/lib.rs",
            "fn build_buf(len: usize) -> Vec<u8> {\n    Vec::with_capacity(len)\n}",
        );
        let out = interprocedural_findings(&[server, store], &policy());
        assert!(out.findings.iter().all(|f| f.rule != Rule::Orx010));
    }

    #[test]
    fn foreign_method_names_do_not_resolve() {
        // `.push(..)` on a Vec must not resolve to a workspace method
        // named `push`, even if one exists.
        let a = facts_of(
            "crates/scoped/src/lib.rs",
            "fn handle(v: &mut Vec<u32>) {\n    v.push(1);\n}",
        );
        let b = facts_of(
            "crates/x/src/lib.rs",
            "impl Q {\nfn push(&mut self, v: u32) {\n    panic!(\"full\");\n}\n}",
        );
        let out = interprocedural_findings(&[a, b], &policy());
        assert!(out.findings.iter().all(|f| f.rule != Rule::Orx008));
    }
}
