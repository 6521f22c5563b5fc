//! Findings and diagnostic rendering.
//!
//! Output mimics rustc's `error[E0308]: ...` / `  --> file:line:col`
//! shape so editors and humans already know how to read it, and a
//! hand-rolled JSON serializer produces the machine-readable report the
//! CI `analyze` job archives. (Hand-rolled because this crate is
//! deliberately dependency-free — it must gate the workspace, so it
//! cannot depend on it.)

use std::fmt::Write as _;

/// The project lint rules. IDs are stable and never reused: ORX001,
/// ORX002, ORX005 and ORX007 are clippy lints now and leave gaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Atomic-ordering audit: unjustified `Relaxed` or `SeqCst`.
    Orx003,
    /// Inconsistent two-lock acquisition order (deadlock potential).
    Orx004,
    /// Debt census over budget (`TODO` / `FIXME`).
    Orx006,
    /// A scoped hot path transitively reaches a panic site (call graph).
    Orx008,
    /// A lock guard is held across a blocking call (interprocedural).
    Orx009,
    /// A request-derived length reaches an allocation without a clamp.
    Orx010,
}

impl Rule {
    /// Stable rule ID, e.g. `ORX003`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Orx003 => "ORX003",
            Rule::Orx004 => "ORX004",
            Rule::Orx006 => "ORX006",
            Rule::Orx008 => "ORX008",
            Rule::Orx009 => "ORX009",
            Rule::Orx010 => "ORX010",
        }
    }

    /// One-line description used in help output and the JSON report.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::Orx003 => "atomic Relaxed/SeqCst orderings need `// ORDERING:` justification",
            Rule::Orx004 => "lock pairs must be acquired in a consistent order",
            Rule::Orx006 => "debt census (TODO/FIXME) exceeds committed budget",
            Rule::Orx008 => {
                "hot-path functions must not transitively reach a panic site (call graph)"
            }
            Rule::Orx009 => "no lock guard may be held across a blocking call or sleep",
            Rule::Orx010 => {
                "request-derived lengths must be bounds-clamped before sizing an allocation"
            }
        }
    }

    /// Parses `ORX003`-style IDs (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.to_ascii_uppercase().as_str() {
            "ORX003" => Some(Rule::Orx003),
            "ORX004" => Some(Rule::Orx004),
            "ORX006" => Some(Rule::Orx006),
            "ORX008" => Some(Rule::Orx008),
            "ORX009" => Some(Rule::Orx009),
            "ORX010" => Some(Rule::Orx010),
            _ => None,
        }
    }

    /// All rules, for report summaries.
    pub fn all() -> [Rule; 6] {
        [
            Rule::Orx003,
            Rule::Orx004,
            Rule::Orx006,
            Rule::Orx008,
            Rule::Orx009,
            Rule::Orx010,
        ]
    }

    /// Why the rule exists — the paragraph `orex analyze --explain`
    /// prints and the README table links to. One source of truth.
    pub fn rationale(self) -> &'static str {
        match self {
            Rule::Orx003 => {
                "Relaxed is correct only under an argued happens-before story and SeqCst is \
                 usually a smell; both need an ORDERING comment explaining the choice."
            }
            Rule::Orx004 => {
                "Two locks taken in opposite orders on two threads deadlock. The analyzer \
                 builds the acquisition-order graph (intra- and inter-procedurally) and flags \
                 any pair observed in both orders."
            }
            Rule::Orx006 => {
                "Debt markers are fine; unbounded debt is not. The census is compared to the \
                 budget committed in analyze.policy so growth is a deliberate, reviewed act."
            }
            Rule::Orx008 => {
                "Clippy's panic lints, denied at the serving crate roots, catch panics \
                 written *in* a hot path; ORX008 walks the workspace call graph and catches \
                 the panic three calls away. A scoped function fails if any workspace \
                 function it transitively reaches contains an unwaived panic site outside \
                 the ORX008 scope; the diagnostic prints the call chain. \
                 Calls through trait objects and function pointers are not resolved \
                 (conservative: unresolved calls are assumed panic-free), and macro bodies \
                 other than the panic family are not expanded."
            }
            Rule::Orx009 => {
                "A thread that parks while holding a Mutex/RwLock guard stalls every other \
                 thread needing that lock — the classic tail-latency cliff. The analyzer \
                 tracks guard regions (let-bound guards to end of block or drop(); \
                 temporaries to end of statement) and flags socket I/O, accept, \
                 Condvar::wait, channel recv, join, and sleeps inside them, including \
                 through calls: a function that blocks taints every caller that holds a \
                 lock across the call."
            }
            Rule::Orx010 => {
                "A length parsed from request bytes that reaches Vec::with_capacity, \
                 reserve, resize, or vec![_; n] un-clamped lets a one-line request allocate \
                 gigabytes. Taint starts at .parse()/from_str_radix bindings, flows through \
                 let chains and call arguments into parameter sinks, and is cleared by a \
                 comparison guard or .min()/.clamp()/saturating_sub."
            }
        }
    }

    /// A minimal example that fires the rule, for `--explain`.
    pub fn example(self) -> &'static str {
        match self {
            Rule::Orx003 => "flag.store(true, Ordering::Relaxed); // no ORDERING comment",
            Rule::Orx004 => "A: a.lock(); b.lock();   B: b.lock(); a.lock();",
            Rule::Orx006 => "// TODO: one marker over the committed budget",
            Rule::Orx008 => {
                "fn handle() { score(); }  fn score() { cfg().unwrap(); }  // handle is scoped"
            }
            Rule::Orx009 => {
                "let g = self.sessions.lock();\nstream.write_all(&frame)?;  // guard live across I/O"
            }
            Rule::Orx010 => {
                "let n: usize = header.parse().unwrap_or(0);\nlet mut buf = Vec::with_capacity(n);"
            }
        }
    }

    /// How to waive one finding of this rule, for `--explain`.
    pub fn waiver_help(self) -> String {
        format!(
            "// orex::allow({}): <reason>   — attached to (or the line above) the \
             flagged line; the reason is mandatory and shows up in review",
            self.id()
        )
    }

    /// Renders the rule table embedded in the README ("Static analysis &
    /// correctness gates"). A unit test asserts the README contains this
    /// rendering verbatim, so docs cannot drift from the code.
    pub fn docs_table() -> String {
        let mut out = String::new();
        out.push_str("| ID | Check |\n|--------|-------|\n");
        for r in Rule::all() {
            let _ = writeln!(out, "| {} | {} |", r.id(), r.summary());
        }
        out
    }
}

/// One violation.
#[derive(Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line (0 for file-level findings such as budget overruns).
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable message.
    pub message: String,
}

/// The full result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, col, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Debt census counts (always reported, even under budget).
    pub census: Census,
    /// Waivers that were honoured, for visibility in the JSON report.
    pub waived: usize,
}

/// Debt census totals across the scanned tree.
#[derive(Debug, Default)]
pub struct Census {
    /// `TODO` markers in comments.
    pub todo: usize,
    /// `FIXME` markers in comments.
    pub fixme: usize,
}

impl Report {
    /// Sorts findings into deterministic display order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
        });
    }

    /// rustc-style human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "error[{}]: {}", f.rule.id(), f.message);
            if f.line > 0 {
                let _ = writeln!(out, "  --> {}:{}:{}", f.file, f.line, f.col);
            } else {
                let _ = writeln!(out, "  --> {}", f.file);
            }
            let _ = writeln!(out, "  = note: {}", f.rule.summary());
        }
        let _ = writeln!(
            out,
            "orex-analyze: {} file(s) scanned, {} finding(s), {} waiver(s) honoured",
            self.files_scanned,
            self.findings.len(),
            self.waived
        );
        let _ = writeln!(
            out,
            "debt census: {} TODO, {} FIXME",
            self.census.todo, self.census.fixme
        );
        out
    }

    /// Machine-readable JSON rendering for the CI artifact.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"waived\": {},", self.waived);
        let _ = writeln!(
            out,
            "  \"census\": {{\"todo\": {}, \"fixme\": {}}},",
            self.census.todo, self.census.fixme
        );
        // Per-rule counts make CI dashboards trivial.
        out.push_str("  \"counts\": {");
        for (i, r) in Rule::all().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let n = self.findings.iter().filter(|f| f.rule == *r).count();
            let _ = write!(out, "\"{}\": {}", r.id(), n);
        }
        out.push_str("},\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
                f.rule.id(),
                json_escape(&f.file),
                f.line,
                f.col,
                json_escape(&f.message)
            );
            out.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"ok\": {}", self.findings.is_empty());
        out.push_str("}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readme_rule_table_matches_docs_table() {
        // The README's ORX rule table is a rendered copy of
        // Rule::docs_table() between HTML marker comments; this test
        // is what the markers promise. Update the README by pasting
        // the generated table when a rule is added or reworded.
        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md"),
        )
        .expect("README.md at the workspace root");
        let begin = readme
            .find("BEGIN ORX RULE TABLE")
            .expect("BEGIN marker present");
        let start = readme[begin..].find("| ID |").expect("table header") + begin;
        let end = readme
            .find("<!-- END ORX RULE TABLE -->")
            .expect("END marker");
        let in_readme = readme[start..end].trim_end();
        assert_eq!(
            in_readme,
            Rule::docs_table().trim_end(),
            "README rule table drifted from Rule::docs_table() — regenerate it"
        );
    }

    fn finding(rule: Rule, file: &str, line: u32) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            col: 5,
            message: "msg".to_string(),
        }
    }

    #[test]
    fn text_rendering_is_rustc_shaped() {
        let mut r = Report {
            findings: vec![finding(Rule::Orx003, "crates/server/src/server.rs", 42)],
            files_scanned: 3,
            ..Report::default()
        };
        r.sort();
        let text = r.render_text();
        assert!(text.contains("error[ORX003]:"));
        assert!(text.contains("--> crates/server/src/server.rs:42:5"));
    }

    #[test]
    fn json_report_counts_and_escapes() {
        let r = Report {
            findings: vec![Finding {
                rule: Rule::Orx003,
                file: "a.rs".to_string(),
                line: 1,
                col: 1,
                message: "needs \"ORDERING\"\ncomment".to_string(),
            }],
            files_scanned: 1,
            ..Report::default()
        };
        let json = r.render_json();
        assert!(json.contains("\"ORX003\": 1"));
        assert!(json.contains("\\\"ORDERING\\\"\\ncomment"));
        assert!(json.contains("\"ok\": false"));
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::all() {
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("ORX999"), None);
    }
}
