//! # orex-bench — benchmark harness reproducing the paper's evaluation
//!
//! One binary per table/figure of Section 6 (run with
//! `cargo run -p orex-bench --release --bin <name> [-- --scale 1.0]`)
//! plus the serving benchmark under `src/bin/perf/`. This library holds
//! the plumbing the figure binaries share: CLI parsing, dataset
//! construction, query selection and result output.

#![warn(missing_docs)]

use orex_core::{ObjectRankSystem, SystemConfig};
use orex_datagen::{Dataset, Preset};
use orex_graph::TransferRates;
use orex_ir::Query;
use std::io::Write as _;

/// Returns the value following `--name` in the process arguments.
pub fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when `--name` appears as a bare flag.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Parses `--scale` (fraction of the Table 1 dataset sizes), with a
/// per-binary default.
pub fn scale_arg(default: f64) -> f64 {
    arg_value("scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Generates a preset and wraps it into a ready system.
///
/// Returns the system, the ground-truth rates, and the suggested keywords.
pub fn build_system(
    preset: Preset,
    scale: f64,
    config: SystemConfig,
) -> (ObjectRankSystem, TransferRates, Vec<String>) {
    let t = std::time::Instant::now();
    let dataset = preset.generate(scale);
    let (nodes, edges) = dataset.sizes();
    eprintln!(
        "[{}] generated at scale {scale}: {nodes} nodes, {edges} edges ({:.1?})",
        preset.name(),
        t.elapsed()
    );
    let gt = dataset.ground_truth.clone();
    let keywords = dataset.suggested_keywords.clone();
    let t = std::time::Instant::now();
    let system = ObjectRankSystem::new(dataset.graph, dataset.ground_truth, config);
    eprintln!(
        "[{}] system built (index + transfer graph + global rank) in {:.1?}",
        preset.name(),
        t.elapsed()
    );
    (system, gt, keywords)
}

/// Picks `n` single-keyword benchmark queries whose document frequency in
/// the system's index falls in a healthy range (enough matches to rank,
/// few enough to be selective).
pub fn pick_queries(system: &ObjectRankSystem, keywords: &[String], n: usize) -> Vec<Query> {
    let mut scored: Vec<(u32, &String)> = keywords
        .iter()
        .filter_map(|kw| {
            let term = system.index().analyzer().analyze_term(kw)?;
            let tid = system.index().term_id(&term)?;
            let df = system.index().df(tid);
            (df >= 3).then_some((df, kw))
        })
        .collect();
    // Mid-df keywords first: sort by |df - median|.
    scored.sort_by_key(|&(df, _)| df);
    let median = scored.get(scored.len() / 2).map_or(0, |&(df, _)| df);
    scored.sort_by_key(|&(df, kw)| (df.abs_diff(median), kw.clone()));
    scored
        .into_iter()
        .take(n)
        .map(|(_, kw)| Query::parse(kw))
        .collect()
}

/// Two-keyword combinations of the picked queries (for the multi-keyword
/// rows of Table 2).
pub fn pick_multi_queries(system: &ObjectRankSystem, keywords: &[String], n: usize) -> Vec<Query> {
    let singles = pick_queries(system, keywords, n * 2);
    singles
        .chunks(2)
        .take(n)
        .filter(|c| c.len() == 2)
        .map(|c| Query::new([c[0].keywords[0].clone(), c[1].keywords[0].clone()]))
        .collect()
}

/// Writes a JSON record under `results/<name>.json` (relative to the
/// working directory), creating the directory as needed. Used so
/// EXPERIMENTS.md numbers are regenerable artifacts, not hand-copies.
///
/// Every record gets a `"telemetry"` key holding the global recorder's
/// snapshot at write time, so the engine-level counters behind each
/// figure (iterations, cache hit rates, per-stage timings) land in the
/// same artifact as the figure's numbers.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut value = value.clone();
    if let Some(map) = value.as_object_mut() {
        map.insert(
            "telemetry".to_string(),
            telemetry_json(&orex_telemetry::global().snapshot()),
        );
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = writeln!(f, "{}", serde_json::to_string_pretty(&value).unwrap());
        eprintln!("wrote {}", path.display());
    }
    write_trace(name);
}

/// When `--trace-out` is present, drains the global tracer and writes the
/// collected spans next to the figure's results JSON: Chrome trace-event
/// JSON at `results/<name>.trace.json` by default, folded stacks at
/// `results/<name>.trace.folded` with `--trace-out folded`. The span ring
/// is bounded (4096 spans), so long benchmark runs keep the most recent
/// spans — enough for one full query's tree, which is what the artifact
/// is for. Called by [`write_json`], so every figure binary accepts the
/// flag.
pub fn write_trace(name: &str) {
    if !arg_flag("trace-out") {
        return;
    }
    let records = orex_telemetry::tracer().drain();
    if records.is_empty() {
        eprintln!("[trace] no spans collected (is OREX_TELEMETRY=0 set?)");
        return;
    }
    let folded = arg_value("trace-out").is_some_and(|v| v == "folded");
    let (ext, rendered) = if folded {
        (
            "trace.folded",
            orex_telemetry::export::to_folded_stacks(&records),
        )
    } else {
        (
            "trace.json",
            orex_telemetry::export::to_chrome_trace(&records),
        )
    };
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.{ext}"));
    if std::fs::write(&path, rendered.as_bytes()).is_ok() {
        eprintln!("wrote {} ({} spans)", path.display(), records.len());
    }
}

/// Converts a telemetry snapshot into a JSON value (the telemetry crate
/// is dependency-free, so the conversion lives on the bench side).
pub fn telemetry_json(snapshot: &orex_telemetry::Snapshot) -> serde_json::Value {
    let mut counters = serde_json::Map::new();
    for (name, &v) in snapshot.counters.iter() {
        counters.insert(name.clone(), serde_json::Value::from(v));
    }
    let mut gauges = serde_json::Map::new();
    for (name, &v) in snapshot.gauges.iter() {
        gauges.insert(name.clone(), serde_json::Value::from(v));
    }
    let mut histograms = serde_json::Map::new();
    for (name, h) in snapshot.histograms.iter() {
        let buckets: Vec<serde_json::Value> = h
            .buckets
            .iter()
            .map(|&b| serde_json::Value::from(b))
            .collect();
        histograms.insert(
            name.clone(),
            serde_json::json!({
                "count": h.count,
                "sum": h.sum,
                "min": h.min,
                "max": h.max,
                "mean": h.mean,
                "p50": h.p50,
                "p95": h.p95,
                "buckets": serde_json::Value::Array(buckets),
            }),
        );
    }
    serde_json::json!({
        "counters": serde_json::Value::Object(counters),
        "gauges": serde_json::Value::Object(gauges),
        "histograms": serde_json::Value::Object(histograms),
    })
}

/// Formats a duration in seconds with 4 significant digits.
pub fn secs(d: std::time::Duration) -> f64 {
    (d.as_secs_f64() * 1e4).round() / 1e4
}

/// A tiny fixed-seed xorshift for query/user shuffling inside binaries
/// (keeps binaries deterministic without threading `rand` everywhere).
#[derive(Clone, Debug)]
pub struct MiniRng(u64);

impl MiniRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// Next pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Convenience sizes accessor for binaries.
pub fn dataset_sizes(d: &Dataset) -> (usize, usize) {
    d.sizes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_picking_filters_by_df() {
        let (system, _, keywords) = build_system(Preset::DblpTop, 0.01, SystemConfig::default());
        let qs = pick_queries(&system, &keywords, 4);
        assert!(!qs.is_empty());
        for q in &qs {
            assert_eq!(q.keywords.len(), 1);
        }
    }

    #[test]
    fn multi_queries_have_two_keywords() {
        let (system, _, keywords) = build_system(Preset::DblpTop, 0.01, SystemConfig::default());
        let qs = pick_multi_queries(&system, &keywords, 2);
        for q in &qs {
            assert_eq!(q.keywords.len(), 2);
        }
    }

    #[test]
    fn mini_rng_deterministic() {
        let mut a = MiniRng::new(7);
        let mut b = MiniRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let idx = a.below(10);
        assert!(idx < 10);
    }
}
