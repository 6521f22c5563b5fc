//! End-to-end tests of the analyzer as a gate: the real workspace must
//! scan clean, and a fixture with seeded violations must fail.

use std::fs;
use std::path::{Path, PathBuf};

use orex_analyze::diag::Rule;
use orex_analyze::{analyze_workspace, load_policy, run_cli, CliOutcome};

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the root")
        .to_path_buf()
}

/// A scratch directory shaped like a tiny workspace, removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str, source: &str) -> Self {
        Self::with_files(tag, &[("src/lib.rs", source)])
    }

    /// A fixture with arbitrary files (paths relative to the root), so
    /// tests can seed multi-file call graphs and policy files.
    fn with_files(tag: &str, files: &[(&str, &str)]) -> Self {
        let root =
            std::env::temp_dir().join(format!("orex-analyze-gate-{tag}-{}", std::process::id()));
        for (rel, source) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("file has a parent"))
                .expect("create fixture dir");
            fs::write(&path, source).expect("write fixture file");
        }
        Fixture { root }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// Runs the CLI with captured writers, returning the outcome and both
/// streams as strings.
fn run_cli_captured(args: &[String]) -> (CliOutcome, String, String) {
    let mut out = Vec::new();
    let mut err = Vec::new();
    let outcome = run_cli(args, &mut out, &mut err);
    (
        outcome,
        String::from_utf8(out).expect("stdout is UTF-8"),
        String::from_utf8(err).expect("stderr is UTF-8"),
    )
}

#[test]
fn the_workspace_scans_clean() {
    // The same gate CI runs: zero findings on our own source tree. If
    // this fails, either pay the new debt down or waive it inline with
    // a justification — do not loosen the policy.
    let root = workspace_root();
    let policy = load_policy(&root).expect("analyze.policy parses");
    let report = analyze_workspace(&root, &policy).expect("workspace scan succeeds");
    assert!(
        report.findings.is_empty(),
        "workspace must scan clean:\n{}",
        report.render_text()
    );
    assert!(report.files_scanned > 50, "sanity: the walk found the tree");
}

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The print ban is clippy's `print_stdout`/`print_stderr`, and the
/// exit/sleep ban is `clippy::exit` plus the `thread::sleep` entry of
/// `disallowed_methods`, each denied at every library crate root;
/// clippy runs in `ci/check.sh`, not under `cargo test`, so this pins
/// the scope: the root crate and every crate under `crates/` carry both
/// attributes, except the three tools that own their terminal and their
/// process, whose sources must deny neither anywhere.
#[test]
fn library_crate_roots_deny_print_macros() {
    const DENY: &str = "#![deny(clippy::print_stdout, clippy::print_stderr)]";
    const DENY_EXIT: &str =
        "#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]";
    const TOOLS: [&str; 3] = ["bench", "cli", "eval"];
    let root = workspace_root();
    let mut libraries = vec![root.join("src/lib.rs")];
    let mut tools = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let dir = entry.expect("dir entry").path();
        let name = dir.file_name().expect("crate dir name").to_string_lossy();
        if TOOLS.contains(&name.as_ref()) {
            tools.push(name.into_owned());
            let mut files = Vec::new();
            rust_files(&dir.join("src"), &mut files);
            for file in files {
                let source = fs::read_to_string(&file).expect("tool source readable");
                assert!(
                    !source.contains("clippy::print_stdout"),
                    "{} owns its terminal and must not deny prints",
                    file.display()
                );
                assert!(
                    !source.contains("clippy::exit") && !source.contains("disallowed_methods"),
                    "{} owns its process and must not deny exit or sleep",
                    file.display()
                );
            }
        } else {
            libraries.push(dir.join("src/lib.rs"));
        }
    }
    tools.sort();
    assert_eq!(tools, TOOLS, "the tool crates are where the scope says");
    assert_eq!(
        libraries.len(),
        13,
        "the root crate and twelve library crates"
    );
    for lib in libraries {
        let source = fs::read_to_string(&lib).expect("library crate root readable");
        for deny in [DENY, DENY_EXIT] {
            assert!(
                source.lines().any(|l| l.trim() == deny),
                "{} must carry `{deny}`",
                lib.display()
            );
        }
    }
}

/// `source` with all whitespace removed, so a rustfmt reflow of a long
/// attribute still matches its one-line spelling.
fn squeezed(source: &str) -> String {
    source.chars().filter(|c| !c.is_whitespace()).collect()
}

/// The rest of the rules that moved from the analyzer to clippy: the
/// panic lints in the four places ORX002 scoped, the workspace lint
/// levels for undocumented `unsafe` and `#[allow]`, and the sleep entry
/// that `disallowed_methods` reads. Like the print ban, none of this is
/// checked under `cargo test` unless it is pinned here.
#[test]
fn clippy_carries_the_retired_analyzer_rules() {
    const DENY_PANICS: &str = "#![cfg_attr(not(test), deny(clippy::unwrap_used, \
         clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, \
         clippy::unimplemented))]";
    let root = workspace_root();
    for file in [
        "crates/server/src/lib.rs",
        "crates/router/src/lib.rs",
        "crates/telemetry/src/lib.rs",
        "crates/store/src/precompute.rs",
    ] {
        let source = fs::read_to_string(root.join(file)).expect("serving source readable");
        assert!(
            squeezed(&source).contains(&squeezed(DENY_PANICS)),
            "{file} must carry `{DENY_PANICS}`"
        );
    }

    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let lints = &manifest[manifest
        .find("[workspace.lints.clippy]")
        .expect("workspace clippy lint table")..];
    let lints = &lints[..lints[1..].find("\n[").map_or(lints.len(), |i| i + 1)];
    for entry in [
        "undocumented_unsafe_blocks = \"warn\"",
        "allow_attributes = \"warn\"",
        "allow_attributes_without_reason = \"warn\"",
        "disallowed_methods = \"allow\"",
    ] {
        assert!(
            lints.lines().any(|l| l.trim() == entry),
            "[workspace.lints.clippy] must set `{entry}`:\n{lints}"
        );
    }

    let clippy = fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml");
    assert!(
        squeezed(&clippy).contains("disallowed-methods=[{path=\"std::thread::sleep\""),
        "clippy.toml must disallow std::thread::sleep:\n{clippy}"
    );
}

/// A fixture firing every file-local rule and ORX008: an unjustified
/// `Relaxed`, two locks taken in both orders, a TODO over a budget of
/// 0, and a scoped function whose helper in another file unwraps.
/// `annotated` turns each into its clean form: an `// ORDERING:`
/// comment, one lock order, no TODO, and an inline ORX008 waiver.
fn gate_fixture(tag: &str, annotated: bool) -> Fixture {
    let (ordering, second_order, todo, waiver) = if annotated {
        (
            "    // ORDERING: a stop flag; no data is published through it.\n",
            "    let a = cache.lock();\n    let b = sessions.lock();\n",
            "",
            "    // orex::allow(ORX008): fixture demonstrating an inline waiver.\n",
        )
    } else {
        (
            "",
            "    let b = sessions.lock();\n    let a = cache.lock();\n",
            "// TODO: pay this down\n",
            "",
        )
    };
    let hot = format!(
        "use std::sync::atomic::{{AtomicBool, Ordering}};\nuse std::sync::Mutex;\n\n\
         pub fn serve() -> u32 {{\n    helper_value()\n}}\n\n\
         pub fn stop(flag: &AtomicBool) {{\n{ordering}    flag.store(true, Ordering::Relaxed);\n}}\n\n\
         pub fn first(cache: &Mutex<u32>, sessions: &Mutex<u32>) {{\n    \
         let a = cache.lock();\n    let b = sessions.lock();\n    drop((a, b));\n}}\n\n\
         pub fn second(cache: &Mutex<u32>, sessions: &Mutex<u32>) {{\n{second_order}    \
         drop((a, b));\n}}\n"
    );
    let util = format!(
        "{todo}pub fn helper_value() -> u32 {{\n{waiver}    \"7\".parse::<u32>().unwrap()\n}}\n"
    );
    Fixture::with_files(
        tag,
        &[
            ("analyze.policy", "scope ORX008 src/hot*\nbudget todo 0\n"),
            ("src/hot.rs", &hot),
            ("src/util.rs", &util),
        ],
    )
}

#[test]
fn seeded_violations_fail_the_gate() {
    let fixture = gate_fixture("seeded", false);
    let policy = load_policy(&fixture.root).expect("fixture policy parses");
    let report = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    let rules: Vec<Rule> = report.findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&Rule::Orx003),
        "Relaxed without ORDERING: {rules:?}"
    );
    assert!(
        rules.contains(&Rule::Orx004),
        "locks taken in both orders: {rules:?}"
    );
    assert!(
        rules.contains(&Rule::Orx006),
        "TODO over a budget of 0: {rules:?}"
    );
    assert!(
        rules.contains(&Rule::Orx008),
        "scoped fn reaches an unwrap: {rules:?}"
    );

    // And the CLI entry point maps that to a non-zero outcome.
    let args = vec!["--root".to_string(), fixture.root.display().to_string()];
    let (outcome, out, _) = run_cli_captured(&args);
    assert_eq!(outcome, CliOutcome::Violations);
    assert!(out.contains("error[ORX003]"), "{out}");
}

#[test]
fn waived_fixture_passes_the_gate() {
    let fixture = gate_fixture("waived", true);
    let args = vec!["--root".to_string(), fixture.root.display().to_string()];
    let (outcome, out, _) = run_cli_captured(&args);
    assert_eq!(outcome, CliOutcome::Clean, "{out}");
}

#[test]
fn cli_rejects_unknown_flags() {
    let (outcome, _, err) = run_cli_captured(&["--bogus".to_string()]);
    assert_eq!(outcome, CliOutcome::Error);
    assert!(err.contains("unknown flag"), "{err}");

    let (outcome, _, err) = run_cli_captured(&["--cache".to_string(), "analyze.cache".to_string()]);
    assert_eq!(outcome, CliOutcome::Error);
    assert!(err.contains("unknown flag `--cache`"), "{err}");

    let (outcome, _, err) = run_cli_captured(&["--format".to_string(), "sarif".to_string()]);
    assert_eq!(outcome, CliOutcome::Error);
    assert!(err.contains("--format must be text or json"), "{err}");
}

#[test]
fn json_report_round_trips_key_fields() {
    let fixture = Fixture::new(
        "json",
        "pub fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::SeqCst)\n}\n",
    );
    let out = fixture.root.join("report.json");
    let args = vec![
        "--root".to_string(),
        fixture.root.display().to_string(),
        "--format".to_string(),
        "json".to_string(),
        "--output".to_string(),
        out.display().to_string(),
    ];
    assert_eq!(run_cli_captured(&args).0, CliOutcome::Violations);
    let json = fs::read_to_string(&out).expect("report written");
    assert!(json.contains("\"ok\": false"));
    assert!(json.contains("\"rule\": \"ORX003\", \"file\": \"src/lib.rs\", \"line\": 2"));
    assert!(json.contains("\"files_scanned\": 1"));
}

#[test]
fn seeded_panic_reachability_fires_across_files() {
    // A scoped hot-path function calls, across a file boundary, a
    // helper whose panic site sits outside the ORX008 scope: only the
    // interprocedural pass can see it.
    let fixture = Fixture::with_files(
        "orx008",
        &[
            ("analyze.policy", "scope ORX008 src/hot*\n"),
            (
                "src/hot.rs",
                "pub fn serve() -> u32 {\n    helper_value()\n}\n",
            ),
            (
                "src/util.rs",
                "pub fn helper_value() -> u32 {\n    \"7\".parse::<u32>().unwrap()\n}\n",
            ),
        ],
    );
    let policy = load_policy(&fixture.root).expect("fixture policy parses");
    let report = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    let orx008: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Orx008)
        .collect();
    assert_eq!(orx008.len(), 1, "{}", report.render_text());
    let f = &orx008[0];
    assert_eq!(f.file, "src/hot.rs", "finding attaches at the call site");
    assert!(
        f.message.contains("helper_value") && f.message.contains("src/util.rs:2"),
        "diagnostic carries the call chain: {}",
        f.message
    );

    // Waiving at the panic site clears the whole chain.
    let waived = Fixture::with_files(
        "orx008w",
        &[
            (
"analyze.policy", "scope ORX008 src/hot*\n"),
            ("src/hot.rs", "pub fn serve() -> u32 {\n    helper_value()\n}\n"),
            (
                "src/util.rs",
                "pub fn helper_value() -> u32 {\n    // orex::allow(ORX008): fixture waiver.\n    \"7\".parse::<u32>().unwrap()\n}\n",
            ),
        ],
    );
    let policy = load_policy(&waived.root).expect("fixture policy parses");
    let report = analyze_workspace(&waived.root, &policy).expect("fixture scan succeeds");
    assert!(
        report.findings.iter().all(|f| f.rule != Rule::Orx008),
        "{}",
        report.render_text()
    );
}

#[test]
fn a_panic_after_an_impl_trait_parameter_is_still_reached() {
    // `impl Trait` in a parameter type is not an `impl` block: read as
    // one, its scan runs on to the closure's `{` in `pick` and skips
    // `helper_value` whole, panic site and all.
    let fixture = Fixture::with_files(
        "orx008impl",
        &[
            (
"analyze.policy", "scope ORX008 src/hot*\n"),
            ("src/hot.rs", "pub fn serve() -> u32 {\n    helper_value()\n}\n"),
            (
                "src/util.rs",
                "pub fn total(values: impl IntoIterator<Item = u32>) -> u32 {\n    values.into_iter().sum()\n}\n\n\
                 pub fn helper_value() -> u32 {\n    \"7\".parse::<u32>().unwrap()\n}\n\n\
                 pub fn pick(values: &[u32]) -> Option<u32> {\n    values.iter().copied().find(|v| {\n        *v > 1\n    })\n}\n",
            ),
        ],
    );
    let policy = load_policy(&fixture.root).expect("fixture policy parses");
    let report = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    let orx008: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Orx008)
        .collect();
    assert_eq!(orx008.len(), 1, "{}", report.render_text());
    assert!(
        orx008[0].message.contains("helper_value") && orx008[0].message.contains("src/util.rs:6"),
        "diagnostic carries the call chain: {}",
        orx008[0].message
    );
}

#[test]
fn seeded_lock_across_blocking_fires_directly_and_through_calls() {
    let fixture = Fixture::new(
        "orx009",
        r#"
fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn holds_across_sleep(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1));
    drop(g);
}

pub fn holds_across_call(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap();
    nap();
    drop(g);
}
"#,
    );
    let policy = load_policy(&fixture.root).expect("missing policy file is empty policy");
    let report = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    let orx009: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Orx009)
        .collect();
    assert_eq!(
        orx009.len(),
        2,
        "one direct, one through the call graph:\n{}",
        report.render_text()
    );
    assert!(
        orx009.iter().any(|f| f.message.contains("nap")),
        "the interprocedural finding names the blocking callee:\n{}",
        report.render_text()
    );
}

#[test]
fn seeded_tainted_allocation_fires_and_clamping_clears_it() {
    let fixture = Fixture::new(
        "orx010",
        r#"
pub fn alloc_from_request(line: &str) -> Vec<u8> {
    let n: usize = line.parse().unwrap_or(0);
    Vec::with_capacity(n)
}

pub fn alloc_clamped(line: &str) -> Vec<u8> {
    let n: usize = line.parse().unwrap_or(0);
    let n = n.min(4096);
    Vec::with_capacity(n)
}
"#,
    );
    let policy = load_policy(&fixture.root).expect("missing policy file is empty policy");
    let report = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    let orx010: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Orx010)
        .collect();
    assert_eq!(
        orx010.len(),
        1,
        "unclamped length flagged, clamped one clean:\n{}",
        report.render_text()
    );
    assert_eq!(orx010[0].line, 4, "{}", report.render_text());
}

#[test]
fn report_is_a_pure_function_of_the_tree() {
    // The call graph is built over hash maps, and every map in a
    // process draws its own hash keys: two runs over the same tree must
    // still render the same bytes. The fixture fires file-local rules
    // and interprocedural ones across files.
    let fixture = Fixture::with_files(
        "pure",
        &[
            ("analyze.policy", "scope ORX008 src/hot*\n"),
            (
                "src/hot.rs",
                "pub fn serve() -> u32 {\n    helper_value()\n}\n",
            ),
            (
                "src/util.rs",
                "pub fn helper_value() -> u32 {\n    \"7\".parse::<u32>().unwrap()\n}\n",
            ),
            (
                "src/locks.rs",
                r#"
fn nap() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub fn holds_across_call(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap();
    nap();
    drop(g);
}
"#,
            ),
            (
                "src/order.rs",
                r#"
pub fn stop(flag: &std::sync::atomic::AtomicBool) {
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
}

pub fn first(cache: &std::sync::Mutex<u32>, sessions: &std::sync::Mutex<u32>) {
    let a = cache.lock();
    let b = sessions.lock();
    drop((a, b));
}

pub fn second(cache: &std::sync::Mutex<u32>, sessions: &std::sync::Mutex<u32>) {
    let b = sessions.lock();
    let a = cache.lock();
    drop((a, b));
}
"#,
            ),
        ],
    );
    let args = vec![
        "--root".to_string(),
        fixture.root.display().to_string(),
        "--format".to_string(),
        "json".to_string(),
    ];
    let (outcome, first, _) = run_cli_captured(&args);
    assert_eq!(outcome, CliOutcome::Violations);
    for rule in ["ORX003", "ORX004", "ORX008", "ORX009"] {
        assert!(
            first.contains(&format!("\"rule\": \"{rule}\"")),
            "fixture fires {rule}:\n{first}"
        );
    }
    let (outcome, second, _) = run_cli_captured(&args);
    assert_eq!(outcome, CliOutcome::Violations);
    assert_eq!(
        first, second,
        "two runs over one tree must be byte-identical"
    );
}

#[test]
fn explain_flag_prints_rule_card_without_scanning() {
    let (outcome, out, _) = run_cli_captured(&["--explain".to_string(), "ORX008".to_string()]);
    assert_eq!(outcome, CliOutcome::Clean);
    assert!(out.contains("ORX008"), "{out}");
    assert!(
        out.contains("call graph") && out.contains("example that fires:"),
        "rationale and example sections present: {out}"
    );
    assert!(out.contains("orex::allow(ORX008)"), "waiver help: {out}");

    // ORX999 never existed; ORX001, ORX002, ORX005 and ORX007 are
    // retired (each is a clippy lint now).
    for id in ["ORX999", "ORX001", "ORX002", "ORX005", "ORX007"] {
        let (outcome, _, err) = run_cli_captured(&["--explain".to_string(), id.to_string()]);
        assert_eq!(outcome, CliOutcome::Error, "{id}");
        assert!(err.contains("needs a rule ID (ORX003..ORX010)"), "{err}");
    }
}

#[test]
fn property_every_waived_finding_leaves_the_report() {
    // Property-style check of the waiver pipeline: scan a fixture,
    // then mechanically append an inline waiver to every flagged line
    // and rescan. Every finding must disappear, and the waived count
    // must account for each of them — a waiver that is honoured but
    // still reported (or silently dropped) fails this.
    let source = "\
use std::sync::atomic::{AtomicU64, Ordering};

pub fn counters(a: &AtomicU64) -> u64 {
    a.store(1, Ordering::SeqCst);
    a.load(Ordering::Relaxed)
}

pub fn first(cache: &std::sync::Mutex<u32>, sessions: &std::sync::Mutex<u32>) {
    let a = cache.lock();
    let b = sessions.lock();
    drop((a, b));
}

pub fn second(cache: &std::sync::Mutex<u32>, sessions: &std::sync::Mutex<u32>) {
    let b = sessions.lock();
    let a = cache.lock();
    drop((a, b));
}

pub fn holds_across_sleep(m: &std::sync::Mutex<u32>) {
    let g = m.lock().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(1));
    drop(g);
}

pub fn alloc_from_request(line: &str) -> Vec<u8> {
    let n: usize = line.parse().unwrap_or(0);
    Vec::with_capacity(n)
}
";
    let fixture = Fixture::new("property", source);
    let policy = load_policy(&fixture.root).expect("missing policy file is empty policy");
    let before = analyze_workspace(&fixture.root, &policy).expect("fixture scan succeeds");
    assert!(
        before.findings.len() >= 4,
        "fixture seeds several rules:\n{}",
        before.render_text()
    );
    assert!(before.findings.iter().all(|f| f.line > 0));

    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    for f in &before.findings {
        // One finding per line in this fixture, so a trailing comment
        // waives exactly that rule without shifting line numbers.
        lines[f.line as usize - 1]
            .push_str(&format!(" // orex::allow({}): property test", f.rule.id()));
    }
    fs::write(fixture.root.join("src/lib.rs"), lines.join("\n")).expect("rewrite fixture");

    let after = analyze_workspace(&fixture.root, &policy).expect("fixture rescan succeeds");
    assert!(
        after.findings.is_empty(),
        "waived findings must never reach the report:\n{}",
        after.render_text()
    );
    assert_eq!(
        after.waived,
        before.findings.len(),
        "every waiver is accounted for"
    );
}
