//! The multi-dataset system registry.
//!
//! One server process can serve many datasets: the registry maps a
//! dataset *name* to a generator preset, a scale, and an optional
//! precompute artifact, and builds the corresponding
//! [`ObjectRankSystem`] lazily on first use (or eagerly at startup).
//! Each built dataset is the one owner of its rank vectors: a
//! [`ResultCache`] of initial-query answers and, when an artifact was
//! given, a [`PrecomputeTier`] with its backfill builder. The registry
//! is also the one place their settings live (the cache capacity and
//! each dataset's artifact path). Each loaded dataset accounts its
//! approximate resident memory, surfaced by `GET /datasets` and the
//! status document, so an operator can see what a process holds before
//! pointing more traffic at it.
//!
//! Lookup failures are *typed*: an unknown dataset name is a 404
//! ([`ServerError::NotFound`]), a failed build is a sticky 503 — never
//! a panic or a silent fallback to the wrong dataset.

use crate::cache::ResultCache;
use crate::error::ServerError;
use crate::ranks::PrecomputeTier;
use orex_authority::RankParams;
use orex_core::{ObjectRankSystem, SystemConfig};
use orex_datagen::Preset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What to build for one named dataset.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Registry key; the `dataset` field of `POST /query` bodies.
    pub name: String,
    /// Generator preset (Table 1 of the paper).
    pub preset: Preset,
    /// Generator scale factor.
    pub scale: f64,
    /// Optional precompute artifact (from `orex precompute`), validated
    /// against the generated dataset at build time.
    pub precompute: Option<PathBuf>,
}

impl DatasetSpec {
    /// Parses the CLI spec syntax `name=preset:scale[:precompute-path]`,
    /// e.g. `dblp=dblp-top:0.05` or `bio=ds7-cancer:0.02:ranks.bin`.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let (name, rest) = raw
            .split_once('=')
            .ok_or_else(|| format!("dataset spec {raw:?} must be name=preset:scale[:path]"))?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!(
                "dataset name {name:?} must be nonempty [a-zA-Z0-9_-]"
            ));
        }
        let mut parts = rest.splitn(3, ':');
        let preset_name = parts.next().unwrap_or_default();
        let preset = Preset::parse(preset_name)
            .ok_or_else(|| format!("unknown preset {preset_name:?} in dataset spec {raw:?}"))?;
        let scale = parts
            .next()
            .ok_or_else(|| format!("dataset spec {raw:?} is missing a scale"))?
            .parse::<f64>()
            .map_err(|_| format!("bad scale in dataset spec {raw:?}"))?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(format!("scale must be positive in dataset spec {raw:?}"));
        }
        let precompute = parts.next().map(PathBuf::from);
        Ok(Self {
            name: name.to_string(),
            preset,
            scale,
            precompute,
        })
    }
}

/// One loaded dataset: the shared system, its rank vectors (result
/// cache + optional precompute tier), and bookkeeping for the datasets
/// listing.
pub struct DatasetService {
    name: String,
    preset: Preset,
    scale: f64,
    system: Arc<ObjectRankSystem>,
    results: ResultCache,
    precompute: Option<Arc<PrecomputeTier>>,
    /// Resident bytes that do not change after the build: graph, index
    /// and global scores.
    data_and_index_bytes: u64,
    build_ms: u64,
    queries: AtomicU64,
}

impl std::fmt::Debug for DatasetService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetService")
            .field("name", &self.name)
            .field("preset", &self.preset)
            .field("scale", &self.scale)
            .field("memory_bytes", &self.memory_bytes())
            .finish_non_exhaustive()
    }
}

impl DatasetService {
    /// The registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The served system.
    pub fn system(&self) -> &Arc<ObjectRankSystem> {
        &self.system
    }

    /// The LRU cache of initial-query answers.
    pub fn results(&self) -> &ResultCache {
        &self.results
    }

    /// The precompute tier, present only when the dataset was built
    /// with an artifact.
    pub fn precompute(&self) -> Option<&PrecomputeTier> {
        self.precompute.as_deref()
    }

    /// Precomputed term vectors currently held (0 without an artifact).
    pub fn precompute_terms(&self) -> usize {
        self.precompute().map_or(0, PrecomputeTier::term_count)
    }

    /// Approximate resident bytes of graph + index + transfer graph +
    /// precomputed vectors, counting the edge layouts built and the
    /// vectors backfill has added so far.
    pub fn memory_bytes(&self) -> u64 {
        let nodes = self.system.graph().node_count() as u64;
        // Precomputed vectors are stored as f32.
        let vector_bytes = nodes * std::mem::size_of::<f32>() as u64;
        self.data_and_index_bytes
            + self.system.transfer().heap_bytes() as u64
            + self.precompute_terms() as u64 * vector_bytes
    }

    /// Counts one query against this dataset (feeds `/datasets` and the
    /// per-dataset `server.dataset_queries` metric).
    pub fn count_query(&self) {
        // ORDERING: pure statistics counter, nothing is published under it.
        self.queries.fetch_add(1, Ordering::Relaxed);
        orex_telemetry::global()
            .counter(&format!("server.dataset.{}.queries", self.name))
            .incr();
    }

    /// Wraps an already-built system (the lazy build path and
    /// in-process tests): a result cache of `cache_entries` answers and,
    /// when `precompute` names an artifact, the precompute tier loaded
    /// from it.
    pub fn from_system(
        name: &str,
        preset: Preset,
        scale: f64,
        system: Arc<ObjectRankSystem>,
        cache_entries: usize,
        precompute: Option<&Path>,
    ) -> Result<Arc<Self>, String> {
        Self::assemble(
            name,
            preset,
            scale,
            system,
            cache_entries,
            precompute,
            Instant::now(),
        )
    }

    /// [`DatasetService::from_system`] with `build_ms` timed from
    /// `start`, so a registry build counts its generation too.
    fn assemble(
        name: &str,
        preset: Preset,
        scale: f64,
        system: Arc<ObjectRankSystem>,
        cache_entries: usize,
        precompute: Option<&Path>,
        start: Instant,
    ) -> Result<Arc<Self>, String> {
        let precompute = precompute
            .map(|path| PrecomputeTier::load(name, path, &system))
            .transpose()?;
        Ok(Arc::new(Self {
            name: name.to_string(),
            preset,
            scale,
            data_and_index_bytes: data_and_index_memory(&system),
            system,
            results: ResultCache::new(cache_entries),
            precompute,
            build_ms: start.elapsed().as_millis() as u64,
            queries: AtomicU64::new(0),
        }))
    }

    /// Builds the dataset from its spec: generate, index, wrap, load
    /// precompute. The system is built with [`served_config`].
    fn build(spec: &DatasetSpec, cache_entries: usize) -> Result<Arc<Self>, String> {
        let start = Instant::now();
        // orex::allow(ORX008): preset generation runs once per dataset
        // registration on an operator request, against schemas the
        // datagen crate constructs itself — a panic there is a datagen
        // construction bug caught by its test suite, not a
        // request-path hazard.
        let dataset = spec.preset.generate(spec.scale);
        let generate_ms = start.elapsed().as_millis() as u64;
        let (nodes, edges) = dataset.sizes();
        let system = Arc::new(ObjectRankSystem::new(
            dataset.graph,
            dataset.ground_truth,
            served_config(),
        ));
        let service = Self::assemble(
            &spec.name,
            spec.preset,
            spec.scale,
            system,
            cache_entries,
            spec.precompute.as_deref(),
            start,
        )?;
        orex_telemetry::logger()
            .info("server.registry", "dataset built")
            .field_str("dataset", &spec.name)
            .field_str("preset", spec.preset.name())
            .field_u64("nodes", nodes as u64)
            .field_u64("edges", edges as u64)
            .field_u64("memory_bytes", service.memory_bytes())
            .field_u64("generate_ms", generate_ms)
            .field_u64("build_ms", service.build_ms)
            .emit();
        Ok(service)
    }
}

/// The configuration of every system the registry builds: the defaults,
/// except that a ranking runs on one thread.
///
/// This is the server's thread policy. Its parallelism is the `--threads`
/// route permits, at least the core count wherever orex is served, so a
/// kernel that fanned out to every core from inside a route function
/// would only oversubscribe them. The kernel is bitwise identical
/// at any thread count, so the policy moves no answer. In-process tools
/// (the figure binaries, `orex precompute`, the examples) keep the
/// automatic choice.
fn served_config() -> SystemConfig {
    SystemConfig {
        rank: RankParams {
            threads: 1,
            ..RankParams::default()
        },
        ..SystemConfig::default()
    }
}

/// Rough resident-set estimate of what one loaded dataset holds for
/// life besides its transfer graph: data-graph adjacency + labels, the
/// inverted index at its own `InvertedIndex::heap_bytes`, and the
/// global-scores vector. The point is relative magnitude on `/datasets`,
/// not allocator-exact bytes. The transfer graph is charged at its own
/// `TransferGraph::heap_bytes`: 14 B per transfer edge plus the edge
/// layouts built so far (the live one, 18 B per live edge).
fn data_and_index_memory(system: &ObjectRankSystem) -> u64 {
    let nodes = system.graph().node_count() as u64;
    let edges = system.graph().edge_count() as u64;
    nodes * 64 + edges * 24 + system.index().heap_bytes() as u64 + nodes * 8
}

/// A slot holds the spec plus a once-built service. A failed build is
/// sticky (`Err` stays cached): the dataset was misconfigured at spawn
/// time and retrying per-request would turn one operator mistake into a
/// build storm.
struct Slot {
    spec: DatasetSpec,
    service: OnceLock<Result<Arc<DatasetService>, String>>,
}

/// Name → dataset map for one server process; see the module docs.
pub struct SystemRegistry {
    slots: Vec<Slot>,
    /// Result-cache capacity of every dataset this registry builds.
    cache_entries: usize,
}

impl SystemRegistry {
    /// A registry over `specs` (first entry is the default dataset for
    /// requests that don't name one), each built with a result cache of
    /// `cache_entries` answers. Names must be unique.
    pub fn new(specs: Vec<DatasetSpec>, cache_entries: usize) -> Result<Self, String> {
        if specs.is_empty() {
            return Err("registry needs at least one dataset spec".into());
        }
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(format!("duplicate dataset name {:?}", spec.name));
            }
        }
        Ok(Self {
            slots: specs
                .into_iter()
                .map(|spec| Slot {
                    spec,
                    service: OnceLock::new(),
                })
                .collect(),
            cache_entries,
        })
    }

    /// A single-dataset registry around an already-built service
    /// (in-process tests).
    pub fn single(service: Arc<DatasetService>) -> Self {
        let slot = Slot {
            spec: DatasetSpec {
                name: service.name().to_string(),
                preset: service.preset,
                scale: service.scale,
                precompute: None,
            },
            service: OnceLock::new(),
        };
        let registry = Self {
            slots: vec![slot],
            cache_entries: 0,
        };
        let _ = registry.slots[0].service.set(Ok(service));
        registry
    }

    /// The dataset used when `POST /query` does not name one.
    pub fn default_name(&self) -> &str {
        &self.slots[0].spec.name
    }

    /// All registered dataset names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.spec.name.as_str()).collect()
    }

    /// Resolves `name`, building the dataset on first use. Unknown
    /// names are a typed 404; a failed build answers 503 (sticky).
    pub fn get(&self, name: &str) -> Result<Arc<DatasetService>, ServerError> {
        let Some(slot) = self.slots.iter().find(|s| s.spec.name == name) else {
            return Err(ServerError::NotFound(format!(
                "unknown dataset {name:?} (serving: {})",
                self.names().join(", ")
            )));
        };
        match slot
            .service
            .get_or_init(|| DatasetService::build(&slot.spec, self.cache_entries))
        {
            Ok(service) => Ok(Arc::clone(service)),
            Err(why) => Err(ServerError::Unavailable(format!(
                "dataset {name:?} failed to build: {why}"
            ))),
        }
    }

    /// Builds every registered dataset now; the first failure aborts.
    pub fn build_all(&self) -> Result<(), String> {
        for slot in &self.slots {
            self.get(&slot.spec.name)
                .map_err(|e| format!("{}: {e}", slot.spec.name))?;
        }
        Ok(())
    }

    /// Summed memory estimate across loaded datasets.
    pub fn total_memory_bytes(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.service.get())
            .filter_map(|r| r.as_ref().ok())
            .map(|svc| svc.memory_bytes())
            .sum()
    }

    /// The `GET /datasets` document: one row per registered dataset
    /// with load state and accounting.
    pub fn list_json(&self) -> serde_json::Value {
        let rows: Vec<serde_json::Value> = self
            .slots
            .iter()
            .map(|slot| {
                let mut row = serde_json::json!({
                    "name": slot.spec.name.clone(),
                    "preset": slot.spec.preset.name(),
                    "scale": slot.spec.scale,
                    "default": slot.spec.name == self.default_name(),
                });
                let state = match slot.service.get() {
                    Some(Ok(svc)) => serde_json::json!({
                        "loaded": true,
                        "nodes": svc.system.graph().node_count() as u64,
                        "edges": svc.system.graph().edge_count() as u64,
                        "memory_bytes": svc.memory_bytes(),
                        "build_ms": svc.build_ms,
                        "precompute_terms": svc.precompute_terms() as u64,
                        "cached_results": svc.results.len() as u64,
                        // ORDERING: statistics read, no synchronization role.
                        "queries": svc.queries.load(Ordering::Relaxed),
                    }),
                    Some(Err(why)) => serde_json::json!({"loaded": false, "error": why}),
                    None => serde_json::json!({"loaded": false}),
                };
                if let (Some(row), Some(state)) = (row.as_object_mut(), state.as_object()) {
                    for (key, value) in state.iter() {
                        row.insert(key.clone(), value.clone());
                    }
                }
                row
            })
            .collect();
        serde_json::json!({
            "default": self.default_name(),
            "total_memory_bytes": self.total_memory_bytes(),
            "datasets": rows,
        })
    }

    /// Closes every loaded dataset's precompute tier, joining its
    /// backfill builder. Called once on server drain, after in-flight
    /// requests finished (they may still enqueue).
    pub fn shutdown(&self) {
        for slot in &self.slots {
            if let Some(Ok(svc)) = slot.service.get() {
                if let Some(tier) = svc.precompute() {
                    tier.close();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_core::QuerySession;
    use orex_ir::Query;

    #[test]
    fn spec_parse_roundtrip() {
        let s = DatasetSpec::parse("dblp=dblp-top:0.05").unwrap();
        assert_eq!(s.name, "dblp");
        assert_eq!(s.preset, Preset::DblpTop);
        assert!((s.scale - 0.05).abs() < 1e-12);
        assert!(s.precompute.is_none());

        let s = DatasetSpec::parse("bio=ds7-cancer:0.02:/tmp/ranks.bin").unwrap();
        assert_eq!(s.preset, Preset::Ds7Cancer);
        assert_eq!(s.precompute.as_deref(), Some(Path::new("/tmp/ranks.bin")));
    }

    #[test]
    fn spec_parse_rejects_malformed() {
        for bad in [
            "no-equals",
            "=dblp-top:0.1",
            "x=nope:0.1",
            "x=dblp-top",
            "x=dblp-top:zero",
            "x=dblp-top:-1",
            "bad name=dblp-top:0.1",
        ] {
            assert!(DatasetSpec::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn unknown_dataset_is_typed_not_found() {
        let registry =
            SystemRegistry::new(vec![DatasetSpec::parse("a=dblp-top:0.01").unwrap()], 16).unwrap();
        match registry.get("nope") {
            Err(ServerError::NotFound(msg)) => assert!(msg.contains("nope"), "{msg}"),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn lazy_build_and_listing() {
        let registry = SystemRegistry::new(
            vec![
                DatasetSpec::parse("a=dblp-top:0.01").unwrap(),
                DatasetSpec::parse("b=ds7:0.01").unwrap(),
            ],
            16,
        )
        .unwrap();
        assert_eq!(registry.default_name(), "a");
        let doc = registry.list_json();
        let rows = doc.get("datasets").and_then(|d| d.as_array()).unwrap();
        assert!(rows
            .iter()
            .all(|r| r.get("loaded") == Some(&serde_json::Value::Bool(false))));

        let a = registry.get("a").unwrap();
        assert_eq!(a.name(), "a");
        assert!(a.memory_bytes() > 0);

        a.count_query();
        let doc = registry.list_json();
        let rows = doc.get("datasets").and_then(|d| d.as_array()).unwrap();
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap()
        };
        let row_a = row("a");
        assert_eq!(row_a.get("loaded"), Some(&serde_json::Value::Bool(true)));
        assert_eq!(
            row("b").get("loaded"),
            Some(&serde_json::Value::Bool(false))
        );
        assert_eq!(row_a.get("queries").and_then(|q| q.as_u64()), Some(1));
        assert!(registry.total_memory_bytes() >= a.memory_bytes());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = SystemRegistry::new(
            vec![
                DatasetSpec::parse("a=dblp-top:0.01").unwrap(),
                DatasetSpec::parse("a=ds7:0.01").unwrap(),
            ],
            16,
        );
        assert!(err.is_err());
    }

    fn system() -> Arc<ObjectRankSystem> {
        let d = Preset::DblpTop.generate(0.01);
        Arc::new(ObjectRankSystem::new(
            d.graph,
            d.ground_truth,
            SystemConfig::default(),
        ))
    }

    /// A registry build is timed from before generation, and `/datasets`
    /// reports the same `build_ms` as the `dataset built` log record.
    #[test]
    fn registry_build_ms_counts_generation_and_matches_its_log_record() {
        let registry = SystemRegistry::new(
            vec![DatasetSpec::parse("build_ms_probe=dblp-top:0.05").unwrap()],
            4,
        )
        .unwrap();
        let service = registry.get("build_ms_probe").unwrap();
        let field = |record: &orex_telemetry::LogRecord, key: &str| {
            record
                .fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let record = orex_telemetry::logger()
            .query(None, None, None, None)
            .into_iter()
            .rev()
            .find(|r| {
                r.message == "dataset built"
                    && field(r, "dataset")
                        == Some(orex_telemetry::FieldValue::Str("build_ms_probe".into()))
            })
            .expect("the build logs a dataset built record");
        let as_u64 = |key| match field(&record, key) {
            Some(orex_telemetry::FieldValue::U64(v)) => v,
            other => panic!("{key}: {other:?}"),
        };
        assert_eq!(service.build_ms, as_u64("build_ms"));
        assert!(service.build_ms >= as_u64("generate_ms"));
        let doc = registry.list_json();
        let row = &doc.get("datasets").and_then(|d| d.as_array()).unwrap()[0];
        assert_eq!(
            row.get("build_ms").and_then(|v| v.as_u64()),
            Some(service.build_ms)
        );
    }

    #[test]
    fn service_without_artifact_has_no_precompute_tier() {
        let service =
            DatasetService::from_system("d", Preset::DblpTop, 0.01, system(), 4, None).unwrap();
        assert!(service.precompute().is_none());
        let doc = SystemRegistry::single(service).list_json();
        let row = &doc.get("datasets").and_then(|d| d.as_array()).unwrap()[0];
        assert_eq!(
            row.get("precompute_terms").and_then(|t| t.as_u64()),
            Some(0)
        );
    }

    /// The transfer graph is charged at its heap bytes, its live layout
    /// included (see `TransferGraph::heap_bytes`), not at a per-edge
    /// guess.
    #[test]
    fn memory_charges_the_transfer_graph_at_its_heap_bytes() {
        let system = system();
        let service =
            DatasetService::from_system("d", Preset::DblpTop, 0.01, Arc::clone(&system), 4, None)
                .unwrap();
        assert_eq!(
            service.memory_bytes() - data_and_index_memory(&system),
            system.transfer().heap_bytes() as u64
        );
    }

    /// No matrix is kept: every ranking reads alpha from the transfer
    /// graph's class table and an explanation derives no per-edge array,
    /// and the build's global rank already laid out the live edges every
    /// later ranking and explanation walks, so a query, an explain and a
    /// feedback each add nothing to `/datasets`.
    #[test]
    fn a_query_an_explain_and_a_feedback_each_add_no_bytes() {
        let d = Preset::DblpTop.generate(0.01);
        let system = Arc::new(ObjectRankSystem::new(
            d.graph,
            d.ground_truth,
            SystemConfig::default(),
        ));
        let service =
            DatasetService::from_system("d", Preset::DblpTop, 0.01, Arc::clone(&system), 4, None)
                .unwrap();
        let fixed = data_and_index_memory(&system) + system.transfer().heap_bytes() as u64;
        assert_eq!(service.memory_bytes(), fixed);

        let mut session = d
            .suggested_keywords
            .iter()
            .find_map(|kw| QuerySession::start(&system, &Query::parse(kw)).ok())
            .expect("some keyword ranks");
        assert_eq!(service.memory_bytes(), fixed, "after a query");
        let top = session.top_k(1)[0].node;
        session.explain(top).unwrap();
        assert_eq!(service.memory_bytes(), fixed, "after an explain");
        session.feedback(&[top]).unwrap();
        assert_eq!(service.memory_bytes(), fixed, "after a feedback");
    }

    /// The thread policy: whatever the registry builds ranks on its
    /// handler's thread.
    #[test]
    fn a_registry_built_dataset_ranks_on_one_thread() {
        let registry =
            SystemRegistry::new(vec![DatasetSpec::parse("a=dblp-top:0.01").unwrap()], 4).unwrap();
        let rank = registry.get("a").unwrap().system().config().rank;
        assert_eq!(
            rank,
            RankParams {
                threads: 1,
                ..RankParams::default()
            }
        );
    }

    /// Precomputed vectors are stored as f32: one term costs 4 bytes per
    /// node on `/datasets`.
    #[test]
    fn memory_counts_four_bytes_per_node_per_precomputed_term() {
        let system = system();
        let nodes = system.graph().node_count();
        let rank = system.config().rank;
        let hash = orex_store::fnv1a(&orex_store::encode_graph(system.graph()));
        let mut artifact =
            orex_store::PrecomputedRanks::new(hash, nodes, rank.damping, rank.epsilon);
        artifact.insert("term", 1.0, &vec![0.0; nodes]);
        let path =
            std::env::temp_dir().join(format!("orex-registry-memory-{}.bin", std::process::id()));
        artifact.save(&path).unwrap();
        let with = DatasetService::from_system(
            "d",
            Preset::DblpTop,
            0.01,
            Arc::clone(&system),
            4,
            Some(&path),
        );
        let _ = std::fs::remove_file(&path);
        let with = with.unwrap();
        let without =
            DatasetService::from_system("d", Preset::DblpTop, 0.01, system, 4, None).unwrap();
        let tier = with.precompute().expect("artifact loaded");
        assert_eq!(tier.term_count(), 1);
        assert_eq!(
            with.memory_bytes() - without.memory_bytes(),
            nodes as u64 * 4
        );
        tier.close();
    }
}
