//! The file-local passes, run over a
//! [`LexedFile`](crate::lexer::LexedFile): ORX003's ordering audit,
//! ORX004's lock-pair collector and ORX006's TODO/FIXME census. The
//! lexical rules clippy has (undocumented `unsafe`, hot-path panics,
//! exit/sleep, `#[allow]`) are lint levels in the workspace manifest
//! and at the crate roots, not passes here.
//!
//! Rules are intentionally token-sequence matchers rather than AST
//! passes: the scanner must stay dependency-free and fast enough to run
//! on every CI push, and every rule here is expressible as "this token
//! pattern, unless annotated". The annotation channel is comments —
//! `// ORDERING:` for ORX003, and the universal waiver
//! `// orex::allow(ORXnnn): reason` that downgrades any finding on its
//! attached line.

use crate::diag::{Census, Finding, Rule};
use crate::lexer::{LexedFile, Token, TokenKind};
use crate::policy::Policy;

/// Per-file scan output.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings in this file (waivers already applied).
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by inline waivers.
    pub waived: usize,
    /// This file's debt census contribution.
    pub census: Census,
    /// Lock-acquisition edges observed in this file, as
    /// `(function, first_lock, second_lock, line, col)`.
    pub lock_edges: Vec<LockEdge>,
}

/// One observed "lock A then lock B while A is plausibly held" pair.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Enclosing function name (`?` at module scope).
    pub func: String,
    /// First lock acquired (field/variable name).
    pub first: String,
    /// Second lock acquired.
    pub second: String,
    /// File the edge was seen in.
    pub file: String,
    /// Position of the *second* acquisition.
    pub line: u32,
    /// Column of the second acquisition.
    pub col: u32,
    /// An `orex::allow(ORX004)` waiver is attached to the second
    /// acquisition.
    pub waived: bool,
}

/// Scans one lexed file. `path` is workspace-relative with `/`
/// separators; `policy` scopes and waives rules.
pub fn scan_file(path: &str, lexed: &LexedFile, policy: &Policy) -> FileScan {
    let mut scan = FileScan::default();
    let mask = test_mask(&lexed.tokens);

    census(lexed, &mut scan);
    rule_atomic_ordering(path, lexed, &mask, policy, &mut scan);
    collect_lock_edges(path, lexed, &mask, &mut scan);

    scan
}

/// True when the comments attached to `line` contain
/// `orex::allow(RULE)` for this rule (any surrounding text allowed, so
/// `// orex::allow(ORX003): reason` reads naturally).
pub fn is_waived(lexed: &LexedFile, rule: Rule, line: u32) -> bool {
    let attached = lexed.attached_comments(line);
    let lower = attached.to_ascii_lowercase();
    let needle = format!("orex::allow({})", rule.id().to_ascii_lowercase());
    lower.contains(&needle)
}

/// Marks every token inside a `#[cfg(test)]`-gated item (or a
/// `mod tests` following such an attribute) as test code. Rules skip
/// test code: panics and sleeps in tests are idiomatic, and the
/// policy's job is production paths.
///
/// Detection: at a `#` token beginning `#[cfg(...)]` whose attribute
/// tokens include the ident `test`, find the next `{` at the same
/// nesting level and mask through its matching `}`. This covers
/// `#[cfg(test)] mod tests { ... }` and `#[cfg(any(test, ...))]`.
pub fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            // Scan the attribute body for `cfg` ... `test`.
            let mut j = i + 2;
            let mut depth = 1i32; // we are inside the `[`
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < tokens.len() && depth > 0 {
                let t = &tokens[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.is_ident("cfg") {
                    saw_cfg = true;
                } else if t.is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                // Mask from here to the end of the annotated item: the
                // next `{`..matching `}` block, or through the next `;`
                // (e.g. `#[cfg(test)] use foo;`).
                let mut k = j;
                while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
                    mask[k] = true;
                    k += 1;
                }
                if k < tokens.len() && tokens[k].is_punct('{') {
                    let mut braces = 0i32;
                    while k < tokens.len() {
                        if tokens[k].is_punct('{') {
                            braces += 1;
                        } else if tokens[k].is_punct('}') {
                            braces -= 1;
                        }
                        mask[k] = true;
                        k += 1;
                        if braces == 0 {
                            break;
                        }
                    }
                } else if k < tokens.len() {
                    mask[k] = true; // the `;`
                }
                for slot in mask.iter_mut().take(j).skip(i) {
                    *slot = true;
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    mask
}

/// ORX006 raw material: counts TODO/FIXME in comments. Budget
/// comparison happens at workspace level in [`crate::analyze_workspace`].
fn census(lexed: &LexedFile, scan: &mut FileScan) {
    for c in &lexed.comments {
        // A marker is the word immediately followed by `:` or `(owner)`
        // — prose that merely *mentions* the word is not debt.
        scan.census.todo += marker_count(&c.text, "TODO");
        scan.census.fixme += marker_count(&c.text, "FIXME");
    }
}

/// Counts occurrences of `word` immediately followed by `:` or `(`.
fn marker_count(text: &str, word: &str) -> usize {
    text.match_indices(word)
        .filter(|(i, _)| matches!(text.as_bytes().get(i + word.len()), Some(b':') | Some(b'(')))
        .count()
}

/// ORX003: `Ordering::Relaxed` and `Ordering::SeqCst` both demand an
/// attached `// ORDERING:` justification. Relaxed because it is wrong
/// whenever the atomic publishes data across threads; SeqCst because it
/// usually means "I didn't think about it" and costs a full fence where
/// Acquire/Release would do. Acquire/Release/AcqRel pass silently —
/// they are the deliberate middle ground.
fn rule_atomic_ordering(
    path: &str,
    lexed: &LexedFile,
    mask: &[bool],
    policy: &Policy,
    scan: &mut FileScan,
) {
    if !policy.rule_applies(Rule::Orx003, path) {
        return;
    }
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        let which = if t.is_ident("Relaxed") {
            "Relaxed"
        } else if t.is_ident("SeqCst") {
            "SeqCst"
        } else {
            continue;
        };
        // Require the `Ordering::` (or `atomic::Ordering::`) qualifier
        // so a user type named `Relaxed` doesn't trip the rule.
        let qualified = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Ordering");
        if !qualified {
            continue;
        }
        if lexed.attached_comments(t.line).contains("ORDERING:") {
            continue;
        }
        let message = match which {
            "Relaxed" => "`Ordering::Relaxed` without an `// ORDERING:` justification — \
                          unsound if this atomic publishes data across threads"
                .to_string(),
            _ => "`Ordering::SeqCst` without an `// ORDERING:` justification — \
                  use Acquire/Release unless a total order is really required"
                .to_string(),
        };
        if is_waived(lexed, Rule::Orx003, t.line) {
            scan.waived += 1;
            continue;
        }
        scan.findings.push(Finding {
            rule: Rule::Orx003,
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    }
}

/// ORX004 raw material: records ordered lock-acquisition pairs per
/// function. A "lock acquisition" is `.lock()`, `.read()` or
/// `.write()` with *empty* argument parens — the empty-parens
/// requirement keeps `io::Read::read(buf)` / `Write::write(buf)` from
/// matching. The lock's name is the identifier before the call chain's
/// final `.` (usually the field: `self.sessions.lock()` → `sessions`).
///
/// Within one function, every earlier acquisition is paired with every
/// later one. That over-approximates "held simultaneously" (guards may
/// be dropped), which is the right bias for a deadlock audit: a false
/// pair is a review prompt, a missed pair is a 3 a.m. page.
fn collect_lock_edges(path: &str, lexed: &LexedFile, mask: &[bool], scan: &mut FileScan) {
    let toks = &lexed.tokens;
    let mut func = String::from("?");
    let mut held: Vec<String> = Vec::new();
    let mut fn_depth: Option<i32> = None;
    let mut depth = 0i32;

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if let Some(d) = fn_depth {
                if depth < d {
                    fn_depth = None;
                    func = String::from("?");
                    held.clear();
                }
            }
        }
        if mask[i] {
            continue;
        }
        if t.is_ident("fn") {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                func = name.text.clone();
                held.clear();
                fn_depth = Some(depth + 1);
            }
            continue;
        }
        let is_acq = (t.is_ident("lock") || t.is_ident("read") || t.is_ident("write"))
            && toks.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(')'));
        if !is_acq {
            continue;
        }
        // Walk back through the receiver chain to the last plain ident:
        // `self.inner.sessions.lock()` → `sessions`.
        let mut j = i.wrapping_sub(2); // skip the `.`
        let name = match toks.get(j) {
            Some(tok) if tok.kind == TokenKind::Ident => tok.text.clone(),
            Some(tok) if tok.is_punct(')') => {
                // e.g. `table().lock()` — use the fn name before `(`.
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
                        None => break,
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                j = k.wrapping_sub(1);
                match toks.get(j) {
                    Some(tk) if tk.kind == TokenKind::Ident => tk.text.clone(),
                    _ => continue,
                }
            }
            _ => continue,
        };
        for first in &held {
            if *first != name {
                scan.lock_edges.push(LockEdge {
                    func: func.clone(),
                    first: first.clone(),
                    second: name.clone(),
                    file: path.to_string(),
                    line: t.line,
                    col: t.col,
                    waived: is_waived(lexed, Rule::Orx004, t.line),
                });
            }
        }
        if !held.contains(&name) {
            held.push(name);
        }
    }
}

/// ORX004 workspace pass: flags every pair of locks acquired in both
/// orders anywhere in the scanned tree. Waivers attach at the site of
/// the *second* acquisition of the edge being reported; each finding
/// comes paired with that edge's waiver flag.
pub fn lock_cycle_findings(edges: &[LockEdge]) -> Vec<(Finding, bool)> {
    let mut findings = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        for other in &edges[i + 1..] {
            if e.first == other.second && e.second == other.first {
                let finding = Finding {
                    rule: Rule::Orx004,
                    file: e.file.clone(),
                    line: e.line,
                    col: e.col,
                    message: format!(
                        "lock order inversion: `{}` then `{}` here (fn {}), but `{}` then `{}` \
                         in {}:{} (fn {}) — potential deadlock",
                        e.first,
                        e.second,
                        e.func,
                        other.first,
                        other.second,
                        other.file,
                        other.line,
                        other.func
                    ),
                };
                findings.push((finding, e.waived));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan(src: &str) -> FileScan {
        scan_file("crates/x/src/lib.rs", &lex(src), &Policy::default())
    }

    #[test]
    fn orx003_orderings() {
        let s = scan(
            "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); a.store(1, Ordering::SeqCst); }",
        );
        assert_eq!(s.findings.len(), 2);
        let ok = scan(
            "fn f(a: &AtomicU64) {\n    // ORDERING: counter, no data published\n    a.load(Ordering::Relaxed);\n    a.store(1, Ordering::Release);\n}",
        );
        assert!(ok.findings.is_empty());
        // Unqualified `Relaxed` (pattern match, user enum) is ignored.
        let pat = scan("fn f(m: Mode) { if let Mode::Relaxed = m {} }");
        assert!(pat.findings.is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let s = scan(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}",
        );
        assert!(s.findings.is_empty());
    }

    #[test]
    fn lock_edges_and_cycles() {
        let a = scan("fn f(&self) { let g = self.cache.lock(); let h = self.sessions.lock(); }");
        assert_eq!(a.lock_edges.len(), 1);
        assert_eq!(a.lock_edges[0].first, "cache");
        assert_eq!(a.lock_edges[0].second, "sessions");

        let b = scan("fn g(&self) { let h = self.sessions.lock(); let g = self.cache.lock(); }");
        let mut edges = a.lock_edges.clone();
        edges.extend(b.lock_edges.clone());
        let cycles = lock_cycle_findings(&edges);
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].0.message.contains("lock order inversion"));

        // Same order twice: no cycle.
        let c = lock_cycle_findings(&a.lock_edges);
        assert!(c.is_empty());
    }

    #[test]
    fn lock_collector_ignores_io_read_write() {
        let s = scan("fn f(mut r: TcpStream) { r.read(&mut buf); r.write(&buf); }");
        assert!(s.lock_edges.is_empty());
        let s2 = scan("fn f(l: &RwLock<u32>) { let a = l.read(); drop(a); let b = l.write(); }");
        // Same lock twice → no edge (self-edges are not deadlocks in
        // this model; re-entrancy is a different bug class).
        assert!(s2.lock_edges.is_empty());
    }

    #[test]
    fn census_counts() {
        let s = scan(
            "// TODO: one\n/* FIXME: two */\n// a TODO in prose\nfn g() { let s = \"TODO: in a string\"; }",
        );
        assert_eq!(s.census.todo, 1);
        assert_eq!(s.census.fixme, 1);
    }
}
