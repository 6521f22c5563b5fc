//! The `analyze.policy` file: the single source of scanning policy.
//!
//! Rather than hard-coding scopes in the scanner (which would turn
//! every policy change into a code change), rules are scoped through a
//! committed policy file at the workspace root:
//!
//! ```text
//! # comments and blank lines are ignored
//! exclude vendor/**                 # never scan these paths
//! scope ORX008 crates/server/src/** # rule fires only inside these globs
//! budget todo 0                     # debt census budgets (ORX006)
//! budget fixme 0
//! ```
//!
//! Glob syntax is the minimal `*` (one path segment) / `**` (any number
//! of segments) dialect — hand-rolled because the crate is
//! dependency-free.

use crate::diag::Rule;

/// Parsed policy file.
#[derive(Debug, Default)]
pub struct Policy {
    /// Paths never scanned at all.
    pub excludes: Vec<String>,
    /// Per-rule scope restriction: when present, the rule only fires on
    /// matching paths.
    pub scopes: Vec<(Rule, Vec<String>)>,
    /// Debt budgets; `None` means unbounded (rule ORX006 silent).
    pub budget_todo: Option<usize>,
    /// FIXME budget.
    pub budget_fixme: Option<usize>,
}

/// A policy parse problem with its 1-based line number.
#[derive(Debug, PartialEq, Eq)]
pub struct PolicyError {
    /// 1-based line in the policy file.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analyze.policy:{}: {}", self.line, self.message)
    }
}

impl Policy {
    /// Parses policy text. Unknown directives are errors: a typo that
    /// silently disables a gate is worse than a failed run.
    pub fn parse(text: &str) -> Result<Policy, PolicyError> {
        let mut p = Policy::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().unwrap_or_default();
            let err = |message: String| PolicyError {
                line: lineno,
                message,
            };
            match directive {
                "exclude" => {
                    let glob = parts
                        .next()
                        .ok_or_else(|| err("exclude needs a glob".into()))?;
                    p.excludes.push(glob.to_string());
                }
                "scope" => {
                    let rule = parse_rule(parts.next(), lineno)?;
                    let globs = parts
                        .next()
                        .ok_or_else(|| err("scope needs comma-separated globs".into()))?;
                    let globs: Vec<String> = globs.split(',').map(str::to_string).collect();
                    if globs.iter().any(String::is_empty) {
                        // An empty glob matches nothing; a stray comma
                        // silently narrowing a gate is a typo, not policy.
                        return Err(err("empty glob in scope list".into()));
                    }
                    p.scopes.push((rule, globs));
                }
                "budget" => {
                    let what = parts
                        .next()
                        .ok_or_else(|| err("budget needs a kind".into()))?;
                    let n: usize = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err("budget needs a non-negative count".into()))?;
                    match what {
                        "todo" => p.budget_todo = Some(n),
                        "fixme" => p.budget_fixme = Some(n),
                        other => {
                            return Err(err(format!("unknown budget kind `{other}` (todo|fixme)")))
                        }
                    }
                }
                other => return Err(err(format!("unknown directive `{other}`"))),
            }
            if let Some(extra) = parts.next() {
                return Err(PolicyError {
                    line: lineno,
                    message: format!("unexpected trailing `{extra}`"),
                });
            }
        }
        Ok(p)
    }

    /// True when `path` must not be scanned at all.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.excludes.iter().any(|g| glob_match(g, path))
    }

    /// True when `rule` applies at `path`: the rule has no scope, or
    /// one of its scope globs matches.
    pub fn rule_applies(&self, rule: Rule, path: &str) -> bool {
        match self.scopes.iter().find(|(r, _)| *r == rule) {
            Some((_, globs)) => globs.iter().any(|g| glob_match(g, path)),
            None => true,
        }
    }
}

fn parse_rule(tok: Option<&str>, line: u32) -> Result<Rule, PolicyError> {
    let tok = tok.ok_or(PolicyError {
        line,
        message: "missing rule ID".into(),
    })?;
    Rule::parse(tok).ok_or(PolicyError {
        line,
        message: format!("unknown rule `{tok}`"),
    })
}

/// Matches `path` against `glob`, where `*` spans within one path
/// segment and `**` spans any number of segments. Both use `/`
/// separators.
pub fn glob_match(glob: &str, path: &str) -> bool {
    let gsegs: Vec<&str> = glob.split('/').collect();
    let psegs: Vec<&str> = path.split('/').collect();
    seg_match(&gsegs, &psegs)
}

fn seg_match(glob: &[&str], path: &[&str]) -> bool {
    match glob.split_first() {
        None => path.is_empty(),
        Some((&"**", rest)) => {
            // `**` may swallow zero or more whole segments.
            (0..=path.len()).any(|k| seg_match(rest, &path[k..]))
        }
        Some((g, rest)) => match path.split_first() {
            Some((p, prest)) => one_seg(g, p) && seg_match(rest, prest),
            None => false,
        },
    }
}

/// Matches one glob segment (with `*` wildcards) against one path
/// segment.
fn one_seg(glob: &str, seg: &str) -> bool {
    let g: Vec<char> = glob.chars().collect();
    let s: Vec<char> = seg.chars().collect();
    // Classic iterative wildcard match with backtracking.
    let (mut gi, mut si) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while si < s.len() {
        if gi < g.len() && (g[gi] == s[si]) {
            gi += 1;
            si += 1;
        } else if gi < g.len() && g[gi] == '*' {
            star = gi;
            mark = si;
            gi += 1;
        } else if star != usize::MAX {
            gi = star + 1;
            mark += 1;
            si = mark;
        } else {
            return false;
        }
    }
    while gi < g.len() && g[gi] == '*' {
        gi += 1;
    }
    gi == g.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_star_and_doublestar() {
        assert!(glob_match("vendor/**", "vendor/rand/src/lib.rs"));
        assert!(glob_match("vendor/**", "vendor"));
        assert!(glob_match("crates/*/src/**", "crates/server/src/http.rs"));
        assert!(!glob_match("crates/*/src/**", "crates/server/tests/t.rs"));
        assert!(glob_match("**/*.rs", "a/b/c.rs"));
        assert!(!glob_match("**/*.rs", "a/b/c.txt"));
        assert!(glob_match("crates/cli/**", "crates/cli/src/main.rs"));
    }

    #[test]
    fn parse_full_policy() {
        let p = Policy::parse(
            "# header\n\
             exclude vendor/**\n\
             scope ORX008 crates/server/src/**,crates/telemetry/src/**  # hot paths\n\
             budget todo 3\n",
        )
        .unwrap();
        assert!(p.is_excluded("vendor/rand/src/lib.rs"));
        assert!(!p.is_excluded("crates/server/src/server.rs"));
        assert!(p.rule_applies(Rule::Orx008, "crates/server/src/server.rs"));
        assert!(!p.rule_applies(Rule::Orx008, "crates/cli/src/main.rs"));
        // An unscoped rule applies everywhere.
        assert!(p.rule_applies(Rule::Orx003, "crates/cli/src/main.rs"));
        assert_eq!(p.budget_todo, Some(3));
        assert_eq!(p.budget_fixme, None);
    }

    #[test]
    fn empty_globs_are_rejected_not_silently_dead() {
        // "a/**,,b/**" has an empty middle glob — almost certainly a
        // typo that would narrow the gate without anyone noticing.
        let e = Policy::parse("scope ORX008 a/**,,b/**\n").unwrap_err();
        assert!(e.message.contains("empty glob"), "{}", e.message);
        assert!(Policy::parse("scope ORX008 ,a/**\n").is_err());
        assert!(Policy::parse("scope ORX008 a/**,\n").is_err());
        // And the raw matcher treats "" as matching nothing real.
        assert!(!glob_match("", "crates/server/src/http.rs"));
    }

    #[test]
    fn star_stays_within_a_segment_doublestar_crosses() {
        // `*` must not cross `/`: "src/pre*" matches a file prefix in
        // that directory, never a nested path.
        assert!(glob_match(
            "crates/store/src/precompute*",
            "crates/store/src/precompute.rs"
        ));
        assert!(glob_match(
            "crates/store/src/precompute*",
            "crates/store/src/precompute_batch.rs"
        ));
        assert!(!glob_match(
            "crates/store/src/precompute*",
            "crates/store/src/precompute/mod.rs"
        ));
        assert!(!glob_match("crates/*", "crates/server/src/http.rs"));
        assert!(glob_match("crates/**", "crates/server/src/http.rs"));
        // `**` may also match zero segments.
        assert!(glob_match("crates/**/http.rs", "crates/http.rs"));
        assert!(glob_match("**", "anything/at/all.rs"));
        // A bare `*` is one segment only.
        assert!(glob_match("*", "lib.rs"));
        assert!(!glob_match("*", "src/lib.rs"));
    }

    #[test]
    fn unknown_directive_is_an_error() {
        let e = Policy::parse("exclud vendor/**\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown directive"));
        assert!(Policy::parse("scope ORX999 x/**\n").is_err());
        assert!(Policy::parse("budget nonsense 2\n").is_err());
        // The retired `allow` directive and `#[allow]` budget are errors,
        // not silently dead lines.
        assert!(Policy::parse("allow ORX003 crates/cli/**\n").is_err());
        assert!(Policy::parse("budget allow-attr 0\n").is_err());
        assert!(Policy::parse("exclude a/** trailing\n").is_err());
    }
}
