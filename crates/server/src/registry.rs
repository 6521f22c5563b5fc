//! The multi-dataset system registry.
//!
//! One server process can serve many datasets: the registry maps a
//! dataset *name* to a generator preset, a scale, and an optional
//! precompute artifact, and builds the corresponding
//! [`ObjectRankSystem`] plus its per-dataset [`RankStore`] lazily on
//! first use (or eagerly at startup). Each loaded dataset accounts its
//! approximate resident memory, surfaced by `GET /datasets` and the
//! status document, so an operator can see what a process holds before
//! pointing more traffic at it.
//!
//! Lookup failures are *typed*: an unknown dataset name is a 404
//! ([`ServerError::NotFound`]), a failed build is a sticky 503 — never
//! a panic or a silent fallback to the wrong dataset.

use crate::error::ServerError;
use crate::ranks::RankStore;
use orex_core::{ObjectRankSystem, SystemConfig};
use orex_datagen::Preset;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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

/// One loaded dataset: the shared system, its rank store (result cache
/// + precomputed vectors), and bookkeeping for the datasets listing.
pub struct DatasetService {
    name: String,
    preset: Preset,
    scale: f64,
    system: Arc<ObjectRankSystem>,
    ranks: RankStore,
    memory_bytes: u64,
    build_ms: u64,
    queries: AtomicU64,
}

impl std::fmt::Debug for DatasetService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetService")
            .field("name", &self.name)
            .field("preset", &self.preset)
            .field("scale", &self.scale)
            .field("memory_bytes", &self.memory_bytes)
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

    /// The per-dataset result cache + precomputed vector store.
    pub fn ranks(&self) -> &RankStore {
        &self.ranks
    }

    /// Approximate resident bytes of graph + index + precompute.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
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

    /// Wraps an already-built system (the single-dataset `Server::bind`
    /// path and in-process tests). The precompute artifact, when given,
    /// is loaded and validated exactly like the lazy build path.
    pub fn from_system(
        name: &str,
        preset: Preset,
        scale: f64,
        system: Arc<ObjectRankSystem>,
        cache_entries: usize,
        precompute: Option<&Path>,
    ) -> Result<Arc<Self>, String> {
        let start = Instant::now();
        let ranks = RankStore::new(cache_entries, system.initial_rates());
        if let Some(path) = precompute {
            let store = orex_store::PrecomputedRanks::load(path).map_err(|e| e.to_string())?;
            validate_precompute(&store, &system)?;
            orex_telemetry::logger()
                .info("server.precompute", "precomputed ranks loaded")
                .field_str("dataset", name)
                .field_str("path", path.to_string_lossy())
                .field_u64("terms", store.len() as u64)
                .field_u64("dataset_hash", store.dataset_hash())
                .emit();
            ranks.set_precomputed(store);
        }
        let memory_bytes = estimate_memory(&system, ranks.precomputed_terms());
        Ok(Arc::new(Self {
            name: name.to_string(),
            preset,
            scale,
            system,
            ranks,
            memory_bytes,
            build_ms: start.elapsed().as_millis() as u64,
            queries: AtomicU64::new(0),
        }))
    }

    /// Builds the dataset from its spec: generate, index, wrap, load
    /// precompute.
    fn build(spec: &DatasetSpec, cache_entries: usize) -> Result<Arc<Self>, String> {
        let start = Instant::now();
        // orex::allow(ORX008): preset generation runs once per dataset
        // registration on an operator request, against schemas the
        // datagen crate constructs itself — a panic there is a datagen
        // construction bug caught by its test suite, not a
        // request-path hazard.
        let dataset = spec.preset.generate(spec.scale);
        let (nodes, edges) = dataset.sizes();
        let system = Arc::new(ObjectRankSystem::new(
            dataset.graph,
            dataset.ground_truth,
            SystemConfig::default(),
        ));
        let service = Self::from_system(
            &spec.name,
            spec.preset,
            spec.scale,
            system,
            cache_entries,
            spec.precompute.as_deref(),
        )?;
        orex_telemetry::logger()
            .info("server.registry", "dataset built")
            .field_str("dataset", &spec.name)
            .field_str("preset", spec.preset.name())
            .field_u64("nodes", nodes as u64)
            .field_u64("edges", edges as u64)
            .field_u64("memory_bytes", service.memory_bytes)
            .field_u64("build_ms", start.elapsed().as_millis() as u64)
            .emit();
        Ok(service)
    }
}

/// Checks a precompute artifact against the served system: the graph
/// hash, node count, and convergence parameters must match — a
/// mismatched artifact is a build error, not a silent mis-ranking.
pub fn validate_precompute(
    store: &orex_store::PrecomputedRanks,
    system: &ObjectRankSystem,
) -> Result<(), String> {
    let graph_hash = orex_store::fnv1a(&orex_store::encode_graph(system.graph()));
    if store.dataset_hash() != graph_hash {
        return Err(format!(
            "precompute artifact was built for a different dataset \
             (artifact {:#x}, serving {:#x})",
            store.dataset_hash(),
            graph_hash
        ));
    }
    if store.node_count() != system.graph().node_count() {
        return Err(format!(
            "precompute artifact has {} nodes, graph has {}",
            store.node_count(),
            system.graph().node_count()
        ));
    }
    let rank = &system.config().rank;
    if store.damping() != rank.damping || store.epsilon() != rank.epsilon {
        return Err(format!(
            "precompute artifact converged under damping {} / epsilon {}, \
             system runs damping {} / epsilon {}",
            store.damping(),
            store.epsilon(),
            rank.damping,
            rank.epsilon
        ));
    }
    Ok(())
}

/// Rough resident-set estimate for one loaded dataset; the point is
/// relative magnitude on `/datasets`, not allocator-exact bytes.
fn estimate_memory(system: &ObjectRankSystem, precompute_terms: usize) -> u64 {
    let nodes = system.graph().node_count() as u64;
    let edges = system.graph().edge_count() as u64;
    let index = system.index();
    let mut postings = 0u64;
    for t in 0..index.vocabulary_size() {
        postings += u64::from(index.df(t as orex_ir::TermId));
    }
    // Graph adjacency + labels, transfer weights, index postings +
    // vocabulary, precomputed f64 vectors, and the global-scores vector.
    nodes * 64
        + edges * 24
        + postings * 12
        + index.vocabulary_size() as u64 * 48
        + precompute_terms as u64 * nodes * 8
        + nodes * 8
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
    cache_entries: usize,
    /// Spawn a backfill builder for datasets with precompute artifacts.
    backfill: bool,
    backfill_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SystemRegistry {
    /// A registry over `specs` (first entry is the default dataset for
    /// requests that don't name one). Names must be unique.
    pub fn new(
        specs: Vec<DatasetSpec>,
        cache_entries: usize,
        backfill: bool,
    ) -> Result<Self, String> {
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
            backfill,
            backfill_threads: Mutex::new(Vec::new()),
        })
    }

    /// A single-dataset registry around an already-built service (the
    /// `Server::bind` compatibility path).
    pub fn single(service: Arc<DatasetService>, backfill: bool) -> Self {
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
            backfill,
            backfill_threads: Mutex::new(Vec::new()),
        };
        let _ = registry.slots[0].service.set(Ok(Arc::clone(&service)));
        registry.spawn_backfill(&service);
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
        let mut built_now = false;
        let result = slot.service.get_or_init(|| {
            built_now = true;
            DatasetService::build(&slot.spec, self.cache_entries)
        });
        match result {
            Ok(service) => {
                if built_now {
                    self.spawn_backfill(service);
                }
                Ok(Arc::clone(service))
            }
            Err(why) => Err(ServerError::Unavailable(format!(
                "dataset {name:?} failed to build: {why}"
            ))),
        }
    }

    /// The already-built service for `name`, if any; never builds.
    pub fn get_if_loaded(&self, name: &str) -> Option<Arc<DatasetService>> {
        self.slots
            .iter()
            .find(|s| s.spec.name == name)?
            .service
            .get()?
            .as_ref()
            .ok()
            .cloned()
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
            .map(|svc| svc.memory_bytes)
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
                        "memory_bytes": svc.memory_bytes,
                        "build_ms": svc.build_ms,
                        "precompute_terms": svc.ranks.precomputed_terms() as u64,
                        "cached_results": svc.ranks.cached_results() as u64,
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

    /// Spawns the backfill builder for `service` when it holds a
    /// precompute store and backfill is enabled.
    fn spawn_backfill(&self, service: &Arc<DatasetService>) {
        if !self.backfill || service.ranks.precomputed_terms() == 0 {
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel::<crate::ranks::BackfillJob>();
        service.ranks.set_backfill_sender(tx);
        let service = Arc::clone(service);
        let spawned = std::thread::Builder::new()
            .name(format!("orex-backfill-{}", service.name))
            .spawn(move || backfill_loop(&service, rx));
        if let Ok(handle) = spawned {
            self.backfill_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(handle);
        }
    }

    /// Closes every backfill queue and joins the builders. Called once
    /// on server drain, after in-flight requests finished (they may
    /// still enqueue).
    pub fn shutdown(&self) {
        for slot in &self.slots {
            if let Some(Ok(svc)) = slot.service.get() {
                svc.ranks.close_backfill();
            }
        }
        let handles: Vec<_> = self
            .backfill_threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// The backfill builder: drains term batches from the queue, runs them
/// through the batched kernel (global warm start, same parameters as the
/// offline build) and installs the finished vectors. Exits when every
/// sender is dropped (server shutdown).
fn backfill_loop(
    service: &DatasetService,
    rx: std::sync::mpsc::Receiver<crate::ranks::BackfillJob>,
) {
    let system = service.system();
    let scorer = &system.config().okapi;
    let params = system.config().rank;
    while let Ok(job) = rx.recv() {
        let terms = job.terms;
        // The builder's work joins the trace of the request that queued
        // it (a remote-parent root on this thread), so a fleet trace
        // shows the deferred backfill a miss triggered, not just the
        // miss itself.
        let mut tspan = orex_telemetry::tracer().span_with_context("server.backfill", job.context);
        if tspan.is_recording() {
            tspan.attr_str("reason", "precompute_miss");
            tspan.attr_u64("terms", terms.len() as u64);
        }
        let _span = orex_telemetry::global().span("server.backfill_us");
        let matrix =
            orex_authority::TransitionMatrix::new(system.transfer(), system.initial_rates());
        let mut kept: Vec<(String, f64)> = Vec::with_capacity(terms.len());
        let mut bases = Vec::with_capacity(terms.len());
        let mut skipped: Vec<String> = Vec::new();
        for term in terms {
            match orex_store::term_base(system.index(), scorer, &term) {
                Some((mass, base)) => {
                    kept.push((term, mass));
                    bases.push(base);
                }
                None => skipped.push(term),
            }
        }
        // Terms without base sets can never combine; unmark them so a
        // rebuilt index could retry, and skip the kernel entirely.
        service.ranks().clear_in_flight(&skipped);
        if bases.is_empty() {
            continue;
        }
        let results =
            orex_authority::power_iteration_batch(&matrix, &bases, &params, system.global_scores());
        let built: Vec<(String, f64, Vec<f64>)> = kept
            .into_iter()
            .zip(results)
            .map(|((term, mass), result)| (term, mass, result.scores))
            .collect();
        orex_telemetry::logger()
            .info("server.backfill", "backfilled precomputed vectors")
            .field_str("dataset", service.name())
            .field_u64("terms", built.len() as u64)
            .field_bool("backfill", true)
            .emit();
        service.ranks().insert_backfilled(built);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let registry = SystemRegistry::new(
            vec![DatasetSpec::parse("a=dblp-top:0.01").unwrap()],
            16,
            false,
        )
        .unwrap();
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
            false,
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
        assert!(registry.get_if_loaded("a").is_some());
        assert!(registry.get_if_loaded("b").is_none());

        a.count_query();
        let doc = registry.list_json();
        let rows = doc.get("datasets").and_then(|d| d.as_array()).unwrap();
        let row_a = rows
            .iter()
            .find(|r| r.get("name").and_then(|n| n.as_str()) == Some("a"))
            .unwrap();
        assert_eq!(row_a.get("loaded"), Some(&serde_json::Value::Bool(true)));
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
            false,
        );
        assert!(err.is_err());
    }
}
