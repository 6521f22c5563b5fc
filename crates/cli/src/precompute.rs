//! The `orex precompute` subcommand: build the precomputed rank-vector
//! artifact that `orex serve --precompute` combines at query time.
//!
//! Section 6.2 of the paper answers scalability by precomputing
//! single-keyword ObjectRank2 vectors (following BHP04) and serving
//! multi-keyword queries as linear combinations. This command selects
//! the top-N vocabulary terms by document frequency, runs one power
//! iteration per term (warm-started from global ObjectRank), and
//! persists the result with a manifest —
//! dataset hash, damping, epsilon and term list — that the server
//! validates at load:
//!
//! ```text
//! orex precompute --preset dblp-top --scale 0.05 --top 64 --out ranks.bin
//! orex serve --preset dblp-top --scale 0.05 --precompute ranks.bin
//! ```
//!
//! `--check K` verifies the artifact end-to-end: K multi-keyword queries
//! over stored terms are answered both by combination and by live
//! iteration, and the command reports the worst L1 divergence plus the
//! latency split.

use orex_authority::{object_rank2, RankParams, TransitionMatrix};
use orex_core::{ObjectRankSystem, SystemConfig};
use orex_datagen::Preset;
use orex_ir::QueryVector;
use orex_store::{encode_graph, fnv1a, PrecomputedRanks};
use std::io::Write;
use std::time::Instant;

use crate::argv::{flag, reject_unknown};
use crate::subcommands::SUBCOMMAND_HELP;

/// Every flag `run_precompute` reads; each takes the argument after it.
const VALUE_FLAGS: &[&str] = &[
    "--preset",
    "--scale",
    "--top",
    "--out",
    "--manifest",
    "--check",
    "--stats",
];

/// Vocabulary terms by descending document frequency (ties broken by
/// text for determinism), the precompute selection order.
fn top_terms(system: &ObjectRankSystem, n: usize) -> Vec<String> {
    let index = system.index();
    let mut by_df: Vec<(u32, String)> = (0..index.vocabulary_size() as u32)
        .map(|t| (index.df(t), index.term_text(t).to_string()))
        .collect();
    by_df.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    by_df.into_iter().take(n).map(|(_, t)| t).collect()
}

/// `orex precompute [--preset NAME] [--scale F] [--top N] [--out FILE]
/// [--manifest FILE] [--check K] [--stats FILE]` — build and persist the
/// precomputed rank-vector artifact. Returns the process exit code.
pub fn run_precompute(
    args: &[String],
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let parsed: Result<_, String> = (|| {
        reject_unknown("precompute", args, VALUE_FLAGS, &[])?;
        let preset_name =
            flag::<String>("precompute", args, "--preset")?.unwrap_or_else(|| "dblp-top".into());
        let scale = flag::<f64>("precompute", args, "--scale")?.unwrap_or(0.05);
        let top = flag::<usize>("precompute", args, "--top")?
            .unwrap_or(64)
            .max(1);
        let out_path =
            flag::<String>("precompute", args, "--out")?.unwrap_or_else(|| "precompute.bin".into());
        let manifest_path = flag::<String>("precompute", args, "--manifest")?
            .unwrap_or_else(|| format!("{out_path}.manifest.json"));
        let check = flag::<usize>("precompute", args, "--check")?.unwrap_or(0);
        let stats_path = flag::<String>("precompute", args, "--stats")?;
        Ok((
            preset_name,
            scale,
            top,
            out_path,
            manifest_path,
            check,
            stats_path,
        ))
    })();
    let (preset_name, scale, top, out_path, manifest_path, check, stats_path) = match parsed {
        Ok(v) => v,
        Err(msg) => {
            writeln!(err, "{msg}\n\n{SUBCOMMAND_HELP}")?;
            return Ok(2);
        }
    };
    let Some(preset) = Preset::parse(&preset_name) else {
        writeln!(
            err,
            "precompute: unknown preset '{preset_name}' (dblp-top, dblp-complete, ds7, ds7-cancer)"
        )?;
        return Ok(2);
    };
    if !(scale.is_finite() && scale > 0.0) {
        writeln!(err, "precompute: --scale must be positive")?;
        return Ok(2);
    }

    let dataset = preset.generate(scale);
    let (nodes, edges) = dataset.sizes();
    writeln!(
        err,
        "[precompute] {} at scale {scale}: {nodes} nodes, {edges} edges",
        preset.name()
    )?;
    let system =
        ObjectRankSystem::new(dataset.graph, dataset.ground_truth, SystemConfig::default());
    let params: RankParams = system.config().rank;
    let terms = top_terms(&system, top);
    let dataset_hash = fnv1a(&encode_graph(system.graph()));
    let matrix = TransitionMatrix::new(system.transfer(), system.initial_rates());

    let build_start = Instant::now();
    let store = PrecomputedRanks::build(
        &matrix,
        system.index(),
        &system.config().okapi,
        &terms,
        &params,
        dataset_hash,
    );
    let build_secs = build_start.elapsed().as_secs_f64();
    if store.is_empty() {
        writeln!(
            err,
            "precompute: no requested term has a non-empty base set"
        )?;
        return Ok(1);
    }
    if let Err(e) = store.save(&out_path) {
        writeln!(err, "precompute: writing {out_path}: {e}")?;
        return Ok(1);
    }
    let bytes = std::fs::metadata(&out_path).map(|m| m.len()).unwrap_or(0);
    let terms_per_sec = store.len() as f64 / build_secs.max(1e-9);

    // The manifest doubles as the CI artifact's provenance record.
    let manifest = serde_json::json!({
        "preset": preset.name(),
        "scale": scale,
        "dataset_hash": format!("{dataset_hash:#018x}"),
        "node_count": store.node_count(),
        "damping": store.damping(),
        "epsilon": store.epsilon(),
        "requested_terms": terms.len(),
        "built_terms": store.len(),
        "terms": store.terms(),
        "build_seconds": build_secs,
        "terms_per_second": terms_per_sec,
        "artifact_bytes": bytes,
    });
    if let Err(e) = std::fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).unwrap_or_default(),
    ) {
        writeln!(err, "precompute: writing {manifest_path}: {e}")?;
        return Ok(1);
    }
    writeln!(
        out,
        "built {}/{} term vectors in {:.2}s ({:.1} terms/s)",
        store.len(),
        terms.len(),
        build_secs,
        terms_per_sec
    )?;
    writeln!(out, "artifact: {out_path} ({bytes} bytes)")?;
    writeln!(out, "manifest: {manifest_path}")?;

    // A full telemetry snapshot (counters + histograms from the power
    // iterations), in the JSON layout of the REPL's `stats` command.
    if let Some(path) = stats_path {
        if let Err(e) = std::fs::write(&path, orex_telemetry::global().snapshot().to_json_pretty())
        {
            writeln!(err, "precompute: writing {path}: {e}")?;
            return Ok(1);
        }
        writeln!(out, "stats: {path}")?;
    }

    if check > 0 {
        let code = self_check(&system, &matrix, &store, &params, check, out, err)?;
        if code != 0 {
            return Ok(code);
        }
    }
    Ok(0)
}

/// Answers `check` two-keyword queries over stored terms both ways and
/// compares scores and latency. Exit code 1 when any combination
/// diverges beyond the convergence epsilon (plus f32 rounding).
fn self_check(
    system: &ObjectRankSystem,
    matrix: &TransitionMatrix<'_>,
    store: &PrecomputedRanks,
    params: &RankParams,
    check: usize,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<i32> {
    let stored: Vec<String> = store.terms().iter().map(|t| t.to_string()).collect();
    if stored.len() < 2 {
        writeln!(err, "precompute: --check needs at least two stored terms")?;
        return Ok(1);
    }
    let scorer = &system.config().okapi;
    let mut worst = 0.0f64;
    let mut combine_us = Vec::new();
    let mut live_us = Vec::new();
    let pairs = check.min(stored.len() - 1);
    for i in 0..pairs {
        let qv =
            QueryVector::from_weights([(stored[i].clone(), 1.0), (stored[i + 1].clone(), 1.0)]);
        let t0 = Instant::now();
        let Some(combined) = store.combine(&qv, scorer) else {
            writeln!(err, "precompute: check query {i} failed to combine")?;
            return Ok(1);
        };
        combine_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t1 = Instant::now();
        let live = match object_rank2(matrix, system.index(), &qv, scorer, params, None) {
            Ok(r) => r,
            Err(e) => {
                writeln!(err, "precompute: check query {i} failed live: {e:?}")?;
                return Ok(1);
            }
        };
        live_us.push(t1.elapsed().as_secs_f64() * 1e6);
        let diff: f64 = combined
            .iter()
            .zip(&live.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        worst = worst.max(diff);
    }
    combine_us.sort_by(f64::total_cmp);
    live_us.sort_by(f64::total_cmp);
    let med_combine = combine_us[combine_us.len() / 2];
    let med_live = live_us[live_us.len() / 2];
    writeln!(
        out,
        "check: {pairs} combined queries, worst L1 divergence {worst:.2e} \
         (epsilon {:.1e}); median combine {med_combine:.0}us vs live {med_live:.0}us \
         ({:.1}x)",
        store.epsilon(),
        med_live / med_combine.max(1e-9),
    )?;
    let tolerance = store.epsilon() * 10.0 + 1e-4;
    if worst > tolerance {
        writeln!(
            err,
            "precompute: combination diverges from live iteration ({worst:.3e} > {tolerance:.3e})"
        )?;
        return Ok(1);
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bad_flag_values_exit_2() {
        for bad in [
            vec!["--top", "many"],
            vec!["--scale", "-1"],
            vec!["--preset", "nope"],
            vec!["--check"],
            vec!["--top", "8", "--eager"],
            vec!["ranks.bin"],
        ] {
            let mut out = Vec::new();
            let mut err = Vec::new();
            let code = run_precompute(&argv(&bad), &mut out, &mut err).unwrap();
            assert_eq!(code, 2, "args {bad:?} must be rejected");
            assert!(!err.is_empty());
        }
    }

    #[test]
    fn builds_artifact_manifest_and_passes_self_check() {
        let dir = std::env::temp_dir();
        let artifact = dir.join(format!("orex-cli-precompute-{}.bin", std::process::id()));
        let manifest = dir.join(format!("orex-cli-precompute-{}.json", std::process::id()));
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run_precompute(
            &argv(&[
                "--scale",
                "0.02",
                "--top",
                "8",
                "--out",
                artifact.to_str().unwrap(),
                "--manifest",
                manifest.to_str().unwrap(),
                "--check",
                "3",
            ]),
            &mut out,
            &mut err,
        )
        .unwrap();
        let stdout = String::from_utf8(out).unwrap();
        let stderr = String::from_utf8(err).unwrap();
        assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.contains("terms/s"), "{stdout}");
        assert!(stdout.contains("worst L1 divergence"), "{stdout}");

        // The artifact reloads and matches the manifest.
        let store = PrecomputedRanks::load(&artifact).expect("reload artifact");
        let manifest_json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&manifest).unwrap()).unwrap();
        let field = |k: &str| manifest_json.get(k).cloned().unwrap();
        assert_eq!(field("built_terms").as_u64().unwrap(), store.len() as u64);
        assert_eq!(
            field("node_count").as_u64().unwrap(),
            store.node_count() as u64
        );
        assert_eq!(
            field("dataset_hash").as_str().unwrap(),
            format!("{:#018x}", store.dataset_hash())
        );
        let _ = std::fs::remove_file(&artifact);
        let _ = std::fs::remove_file(&manifest);
    }
}
