//! # orex-analyze — workspace static analysis and correctness gates
//!
//! A dependency-free interprocedural Rust source analyzer enforcing
//! the project's lint rules that clippy cannot express. It powers the
//! `orex analyze` CLI subcommand, which `ci/check.sh` runs blocking.
//!
//! ## Rules
//!
//! | ID     | Check |
//! |--------|-------|
//! | ORX003 | `Ordering::Relaxed`/`SeqCst` need `// ORDERING:` justification |
//! | ORX004 | two-lock acquisition-order inversions (deadlock potential), in-file and across calls |
//! | ORX006 | debt census (`TODO`/`FIXME`) over committed budget |
//! | ORX008 | scoped hot paths must not transitively reach a panic site |
//! | ORX009 | no lock guard held across a blocking call or sleep |
//! | ORX010 | request-derived lengths clamped before sizing an allocation |
//!
//! ORX003, ORX004's in-file pairs and ORX006 are file-local
//! token-stream passes ([`rules`]). The lexical rules clippy already
//! has are lint levels, not passes here, and their IDs are not reused:
//! ORX001 is `undocumented_unsafe_blocks`, ORX002 the panic lints
//! denied at the serving crate roots, ORX005 `exit` and the
//! `thread::sleep` entry of `disallowed_methods` denied at every
//! library crate root, ORX006's old `#[allow]` budget
//! `allow_attributes`, and ORX007 `print_stdout`/`print_stderr`.
//! ORX008–ORX010 run interprocedurally: [`syntax`] parses the token
//! stream into function items, [`summary`] extracts per-function facts
//! (panic sites, blocking calls, lock regions, taint sources/sinks),
//! and [`callgraph`] links them into a whole-workspace call graph with
//! conservative name resolution — calls through trait objects,
//! function pointers, closures and macros are left unresolved and
//! assumed benign, so these rules under-approximate.
//!
//! Scopes and budgets live in `analyze.policy` at the
//! workspace root — the single source of policy. Individual findings
//! are waived inline with `// orex::allow(ORXnnn): reason` attached to
//! the offending line; an ORX008 waiver anywhere on a call chain
//! clears every caller upstream of it. Reports render as text or JSON.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]

pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod summary;
pub mod syntax;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use diag::{Finding, Report, Rule};
use policy::{Policy, PolicyError};

/// Name of the policy file expected at the workspace root.
pub const POLICY_FILE: &str = "analyze.policy";

/// Analysis failure (I/O or policy syntax), distinct from findings.
#[derive(Debug)]
pub enum AnalyzeError {
    /// Reading a file or walking the tree failed.
    Io(PathBuf, std::io::Error),
    /// The policy file is malformed.
    Policy(PolicyError),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Io(p, e) => write!(f, "{}: {}", p.display(), e),
            AnalyzeError::Policy(e) => write!(f, "{e}"),
        }
    }
}

/// Analyzes the workspace rooted at `root` under `policy`.
///
/// Walks every `*.rs` file under `root` whose workspace-relative path
/// contains a `src/` component (production code; `tests/`, `benches/`
/// and `examples/` are exercise code with different rules), minus
/// policy excludes. Hidden directories and `target/` are always
/// skipped. Each file is lexed, scanned by the file-local rules and
/// summarized once; the interprocedural pass then runs over every
/// file's facts.
pub fn analyze_workspace(root: &Path, policy: &Policy) -> Result<Report, AnalyzeError> {
    let mut files = Vec::new();
    walk(root, root, policy, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut edges = Vec::new();
    let mut all_facts = Vec::with_capacity(files.len());
    for rel in &files {
        let full = root.join(rel);
        let source = fs::read_to_string(&full).map_err(|e| AnalyzeError::Io(full.clone(), e))?;
        let lexed = lexer::lex(&source);
        let scan = rules::scan_file(rel, &lexed, policy);
        report.findings.extend(scan.findings);
        report.waived += scan.waived;
        report.census.todo += scan.census.todo;
        report.census.fixme += scan.census.fixme;
        edges.extend(scan.lock_edges);
        let mask = rules::test_mask(&lexed.tokens);
        all_facts.push(summary::extract_facts(rel, &lexed, &mask));
        report.files_scanned += 1;
    }

    // The interprocedural pass: ORX008/ORX009/ORX010 plus lock-order
    // edges discovered through calls.
    let inter = callgraph::interprocedural_findings(&all_facts, policy);
    report.findings.extend(inter.findings);
    report.waived += inter.waived;
    edges.extend(inter.lock_edges);
    edges.sort_by(|a, b| {
        (&a.first, &a.second, &a.file, a.line).cmp(&(&b.first, &b.second, &b.file, b.line))
    });
    edges.dedup_by(|a, b| {
        a.first == b.first && a.second == b.second && a.file == b.file && a.line == b.line
    });

    // ORX004 needs the cross-file edge set.
    for (f, waived) in rules::lock_cycle_findings(&edges) {
        if !policy.rule_applies(Rule::Orx004, &f.file) {
            continue;
        }
        if waived {
            report.waived += 1;
        } else {
            report.findings.push(f);
        }
    }

    // ORX006: compare census against committed budgets.
    let budgets = [
        ("TODO", report.census.todo, policy.budget_todo),
        ("FIXME", report.census.fixme, policy.budget_fixme),
    ];
    for (what, count, budget) in budgets {
        if let Some(max) = budget {
            if count > max {
                report.findings.push(Finding {
                    rule: Rule::Orx006,
                    file: POLICY_FILE.to_string(),
                    line: 0,
                    col: 0,
                    message: format!(
                        "{what} count {count} exceeds committed budget {max} — pay the debt \
                         down or raise the budget in {POLICY_FILE} with a justification"
                    ),
                });
            }
        }
    }

    report.sort();
    Ok(report)
}

fn walk(
    root: &Path,
    dir: &Path,
    policy: &Policy,
    out: &mut Vec<String>,
) -> Result<(), AnalyzeError> {
    let entries = fs::read_dir(dir).map_err(|e| AnalyzeError::Io(dir.to_path_buf(), e))?;
    for entry in entries {
        let entry = entry.map_err(|e| AnalyzeError::Io(dir.to_path_buf(), e))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let rel = rel_path(root, &path);
        if policy.is_excluded(&rel) {
            continue;
        }
        let ftype = entry
            .file_type()
            .map_err(|e| AnalyzeError::Io(path.clone(), e))?;
        if ftype.is_dir() {
            walk(root, &path, policy, out)?;
        } else if name.ends_with(".rs") && rel.split('/').any(|seg| seg == "src") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for comp in rel.components() {
        if !s.is_empty() {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

/// Loads `analyze.policy` from `root`. A missing policy file is an
/// empty policy (scan everything, no budgets) rather than an error, so
/// the tool works on fresh checkouts of other projects.
pub fn load_policy(root: &Path) -> Result<Policy, AnalyzeError> {
    let path = root.join(POLICY_FILE);
    match fs::read_to_string(&path) {
        Ok(text) => Policy::parse(&text).map_err(AnalyzeError::Policy),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Policy::default()),
        Err(e) => Err(AnalyzeError::Io(path, e)),
    }
}

/// Renders `--explain ORXnnn`: the rule's one-liner, rationale,
/// a minimal firing example and the waiver syntax — all drawn from
/// [`diag::Rule`], the same source of truth the README table renders
/// from.
pub fn explain(rule: Rule) -> String {
    format!(
        "{id}: {summary}\n\n{rationale}\n\nexample that fires:\n{example}\n\nwaiver:\n  {waiver}\n",
        id = rule.id(),
        summary = rule.summary(),
        rationale = rule.rationale(),
        example = rule
            .example()
            .lines()
            .map(|l| format!("  {l}"))
            .collect::<Vec<_>>()
            .join("\n"),
        waiver = rule.waiver_help(),
    )
}

/// Outcome of [`run_cli`], for the caller to turn into an exit code.
#[derive(Debug, PartialEq, Eq)]
pub enum CliOutcome {
    /// No findings.
    Clean,
    /// One or more findings (caller should exit non-zero).
    Violations,
    /// Bad invocation or analysis error (message already printed).
    Error,
}

/// Entry point for the `orex analyze` subcommand. Reports and errors go
/// to the caller-supplied `out` / `err` writers: this is library code
/// and owns no terminal (the crate root denies clippy's print lints).
/// Writer failures are swallowed — a broken pipe must not change the
/// outcome.
///
/// Flags: `--root <dir>` (default `.`), `--format text|json`
/// (default text), `--output <file>` (write the report there instead of
/// `out`; text summary still goes to `err` so CI logs stay useful),
/// `--explain ORXnnn` (print a rule's rationale, example and waiver
/// syntax, then exit without scanning).
pub fn run_cli(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> CliOutcome {
    let mut root = PathBuf::from(".");
    let mut format = "text".to_string();
    let mut output: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => {
                    let _ = writeln!(err, "orex analyze: --root needs a value");
                    return CliOutcome::Error;
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some(v @ ("text" | "json")) => format = v.to_string(),
                _ => {
                    let _ = writeln!(err, "orex analyze: --format must be text or json");
                    return CliOutcome::Error;
                }
            },
            "--output" => match it.next() {
                Some(v) => output = Some(PathBuf::from(v)),
                None => {
                    let _ = writeln!(err, "orex analyze: --output needs a value");
                    return CliOutcome::Error;
                }
            },
            "--explain" => match it.next().map(String::as_str).and_then(Rule::parse) {
                Some(rule) => {
                    let _ = write!(out, "{}", explain(rule));
                    return CliOutcome::Clean;
                }
                None => {
                    let [first, .., last] = Rule::all();
                    let _ = writeln!(
                        err,
                        "orex analyze: --explain needs a rule ID ({}..{})",
                        first.id(),
                        last.id()
                    );
                    return CliOutcome::Error;
                }
            },
            other => {
                let _ = writeln!(err, "orex analyze: unknown flag `{other}`");
                return CliOutcome::Error;
            }
        }
    }

    let policy = match load_policy(&root) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(err, "orex analyze: {e}");
            return CliOutcome::Error;
        }
    };
    let report = match analyze_workspace(&root, &policy) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(err, "orex analyze: {e}");
            return CliOutcome::Error;
        }
    };

    let rendered = match format.as_str() {
        "json" => report.render_json(),
        _ => report.render_text(),
    };
    match &output {
        Some(path) => {
            if let Err(e) = fs::write(path, &rendered) {
                let _ = writeln!(err, "orex analyze: {}: {}", path.display(), e);
                return CliOutcome::Error;
            }
            // Keep the human summary visible in CI logs.
            let _ = write!(err, "{}", report.render_text());
        }
        None => {
            let _ = write!(out, "{rendered}");
        }
    }

    if report.findings.is_empty() {
        CliOutcome::Clean
    } else {
        CliOutcome::Violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_path_is_slash_separated() {
        let root = Path::new("/a/b");
        assert_eq!(rel_path(root, Path::new("/a/b/c/d.rs")), "c/d.rs");
    }

    #[test]
    fn missing_policy_is_empty_policy() {
        let p = load_policy(Path::new("/nonexistent-dir-for-orex-test")).unwrap();
        assert!(p.excludes.is_empty());
        assert_eq!(p.budget_todo, None);
    }
}
