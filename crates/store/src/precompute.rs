//! Precomputed single-keyword rank vectors with **exact** query-time
//! combination.
//!
//! Section 6.2's scalability answer (following BHP04) is to compute
//! single-keyword ObjectRank2 vectors offline and answer multi-keyword
//! queries by the Linearity property: the fixpoint of Equation 4 is
//! linear in the jump vector `s`, so for a query `Q` whose normalized
//! base set decomposes as `s_Q = Σ_t c_t · s_t` the ranking is exactly
//! `r_Q = Σ_t c_t · r_t` — no iteration at serving time.
//!
//! The store keeps the ingredient the exact combination needs beside
//! each vector: the term's **unit base mass** — the L1 weight of
//! its raw IR base-set scores at query weight 1.0. The live path builds
//! `s_Q` by summing `query_factor(w_t) ·` (raw per-term scores) and
//! normalizing, so the correct coefficients are
//! `c_t = query_factor(w_t)·mass_t / Σ_u query_factor(w_u)·mass_u`
//! (any factor common to all terms cancels in the normalization). The
//! per-term vectors are converged to the same epsilon as a live run, and
//! the coefficients are a convex combination, so the combined vector
//! matches live iteration within that epsilon (plus f32 storage
//! rounding).
//!
//! A manifest travels with the vectors: dataset hash (FNV-1a of the
//! encoded graph snapshot), node count, damping, epsilon and the term
//! list, so a serving process can refuse vectors computed for a
//! different graph or iteration regime.

use crate::codec::{Reader, Writer};
use crate::error::{Result, StoreError};
use bytes::Bytes;
use orex_authority::{
    global_object_rank, power_iteration_batch, BaseSet, RankParams, TransitionMatrix,
};
use orex_ir::{InvertedIndex, QueryVector, Scorer};
use std::collections::HashMap;
use std::path::Path;

const PRECOMPUTE_MAGIC: &[u8; 8] = b"OREXPREC";

const LOG_TARGET: &str = "store.precompute";

/// One precomputed term: its converged rank vector (f32 to halve the
/// footprint) and the unit base mass used by the exact combination.
#[derive(Clone, Debug)]
struct TermVector {
    /// L1 weight of the term's raw base-set scores at query weight 1.0.
    mass: f64,
    scores: Vec<f32>,
}

/// A store of precomputed single-keyword ObjectRank2 vectors plus the
/// manifest needed to combine and validate them.
#[derive(Clone, Debug)]
pub struct PrecomputedRanks {
    /// FNV-1a hash of the encoded graph snapshot the vectors were
    /// computed against.
    dataset_hash: u64,
    node_count: usize,
    damping: f64,
    epsilon: f64,
    entries: HashMap<String, TermVector>,
}

/// The raw base-set scores and unit mass of a single term at query
/// weight 1.0, shared by offline builds and online backfill.
///
/// Returns `None` when the term does not occur in the index (its base
/// set is empty — live ranking would skip it too).
pub fn term_base(index: &InvertedIndex, scorer: &dyn Scorer, term: &str) -> Option<(f64, BaseSet)> {
    let qv = QueryVector::from_weights([(term.to_string(), 1.0)]);
    let pairs = index.base_set_scores(&qv, scorer);
    let mass: f64 = pairs.iter().map(|&(_, s)| s.max(0.0)).sum();
    if mass <= 0.0 {
        return None;
    }
    BaseSet::weighted(pairs).ok().map(|base| (mass, base))
}

impl PrecomputedRanks {
    /// An empty store for a graph with `node_count` nodes.
    pub fn new(dataset_hash: u64, node_count: usize, damping: f64, epsilon: f64) -> Self {
        Self {
            dataset_hash,
            node_count,
            damping,
            epsilon,
            entries: HashMap::new(),
        }
    }

    /// Builds vectors for `terms` through the batched power-iteration
    /// kernel: every term's base-set column advances through one shared
    /// matrix sweep per iteration, warm-started from the global
    /// ObjectRank vector. Terms that never occur in the index are
    /// skipped (they contribute nothing to any live base set either).
    pub fn build(
        matrix: &TransitionMatrix<'_>,
        index: &InvertedIndex,
        scorer: &dyn Scorer,
        terms: &[String],
        params: &RankParams,
        dataset_hash: u64,
    ) -> Self {
        let telemetry = orex_telemetry::global();
        let _span = telemetry.span("store.precompute.build_us");
        let mut store = Self::new(
            dataset_hash,
            matrix.node_count(),
            params.damping,
            params.epsilon,
        );
        let global = global_object_rank(matrix, params);
        let mut kept: Vec<(&String, f64)> = Vec::with_capacity(terms.len());
        let mut bases: Vec<BaseSet> = Vec::with_capacity(terms.len());
        for term in terms {
            if let Some((mass, base)) = term_base(index, scorer, term) {
                kept.push((term, mass));
                bases.push(base);
            }
        }
        let results = power_iteration_batch(matrix, &bases, params, Some(&global.scores));
        let mut unconverged = 0usize;
        for ((term, mass), result) in kept.into_iter().zip(results) {
            if !result.converged {
                unconverged += 1;
            }
            store.insert(term.clone(), mass, &result.scores);
        }
        telemetry
            .counter("store.precompute.terms_built")
            .add(store.len() as u64);
        orex_telemetry::logger()
            .info(LOG_TARGET, "precompute build finished")
            .field_u64("requested", terms.len() as u64)
            .field_u64("built", store.len() as u64)
            .field_u64("unconverged", unconverged as u64)
            .field_u64("dataset_hash", dataset_hash)
            .emit();
        store
    }

    /// Stores one term's vector and unit mass (the online backfill path).
    ///
    /// # Panics
    /// Panics on dimension mismatch or non-positive mass.
    pub fn insert(&mut self, term: impl Into<String>, mass: f64, scores: &[f64]) {
        assert_eq!(scores.len(), self.node_count, "score dimension mismatch");
        assert!(mass > 0.0, "unit base mass must be positive");
        self.entries.insert(
            term.into(),
            TermVector {
                mass,
                scores: scores.iter().map(|&s| s as f32).collect(),
            },
        );
    }

    /// Dataset fingerprint the vectors were computed against.
    pub fn dataset_hash(&self) -> u64 {
        self.dataset_hash
    }

    /// Node dimension of every stored vector.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Damping factor the vectors were converged under.
    pub fn damping(&self) -> f64 {
        self.damping
    }

    /// Convergence epsilon the vectors were converged under.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of stored term vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no vectors are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if a term's vector is stored.
    pub fn contains(&self, term: &str) -> bool {
        self.entries.contains_key(term)
    }

    /// Stored terms, sorted (for deterministic manifests).
    pub fn terms(&self) -> Vec<&str> {
        let mut terms: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        terms.sort_unstable();
        terms
    }

    /// A term's unit base mass, when stored.
    pub fn mass(&self, term: &str) -> Option<f64> {
        self.entries.get(term).map(|e| e.mass)
    }

    /// The query terms the combination would miss: positively-weighted,
    /// present in the index (so they shape the live base set), but not
    /// stored here. An empty return means the query is covered.
    pub fn missing_terms(&self, query: &QueryVector, index: &InvertedIndex) -> Vec<String> {
        query
            .iter()
            .filter(|&(term, weight)| {
                weight > 0.0 && index.term_id(term).is_some() && !self.contains(term)
            })
            .map(|(term, _)| term.to_string())
            .collect()
    }

    /// True when every index-matching query term has a stored vector.
    pub fn covers(&self, query: &QueryVector, index: &InvertedIndex) -> bool {
        self.missing_terms(query, index).is_empty()
    }

    /// Answers a query by the exact linear combination
    /// `r_Q = Σ_t c_t · r_t` with
    /// `c_t = query_factor(w_t)·mass_t / Σ_u query_factor(w_u)·mass_u`.
    ///
    /// Only stored terms participate; callers wanting live-equivalence
    /// must check [`Self::covers`] first. Returns `None` when no stored
    /// term carries positive combined weight (the live path would reject
    /// the query with an empty base set in that case). The scorer must be
    /// the one the index's base sets are scored with — its
    /// `query_factor` shapes the coefficients.
    pub fn combine(&self, query: &QueryVector, scorer: &dyn Scorer) -> Option<Vec<f64>> {
        let telemetry = orex_telemetry::global();
        let mut combined = vec![0.0f64; self.node_count];
        let mut total = 0.0f64;
        for (term, weight) in query.iter() {
            let qf = scorer.query_factor(weight);
            if qf <= 0.0 {
                continue;
            }
            if let Some(entry) = self.entries.get(term) {
                let c = qf * entry.mass;
                for (acc, &s) in combined.iter_mut().zip(&entry.scores) {
                    *acc += c * s as f64;
                }
                total += c;
            }
        }
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        for v in &mut combined {
            *v /= total;
        }
        telemetry.counter("store.precompute.combines").incr();
        Some(combined)
    }

    /// Serializes the store (manifest header, then sorted term entries).
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::with_magic(PRECOMPUTE_MAGIC);
        w.put_u64(self.dataset_hash);
        w.put_f64(self.damping);
        w.put_f64(self.epsilon);
        w.put_u32(self.node_count as u32);
        w.put_u32(self.entries.len() as u32);
        let mut terms: Vec<&String> = self.entries.keys().collect();
        terms.sort_unstable();
        for term in terms {
            let entry = &self.entries[term];
            w.put_str(term);
            w.put_f64(entry.mass);
            for &v in &entry.scores {
                w.put_f32(v);
            }
        }
        w.finish()
    }

    /// Deserializes a store.
    pub fn decode(data: Bytes) -> Result<Self> {
        let mut r = Reader::open(data, PRECOMPUTE_MAGIC)?;
        let dataset_hash = r.get_u64()?;
        let damping = r.get_f64()?;
        let epsilon = r.get_f64()?;
        if !(0.0..1.0).contains(&damping) {
            return Err(StoreError::Corrupt(format!("bad damping {damping}")));
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(StoreError::Corrupt(format!("bad epsilon {epsilon}")));
        }
        let node_count = r.get_u32()? as usize;
        let entry_count = r.get_u32()? as usize;
        let mut entries = HashMap::with_capacity(entry_count);
        for _ in 0..entry_count {
            let term = r.get_str()?;
            let mass = r.get_f64()?;
            if !(mass > 0.0 && mass.is_finite()) {
                return Err(StoreError::Corrupt(format!("bad mass for '{term}'")));
            }
            if node_count.checked_mul(4).is_none_or(|n| n > r.remaining()) {
                return Err(StoreError::Corrupt("vector exceeds data".into()));
            }
            let mut scores = Vec::with_capacity(node_count);
            for _ in 0..node_count {
                scores.push(r.get_f32()?);
            }
            entries.insert(term, TermVector { mass, scores });
        }
        if r.remaining() != 0 {
            return Err(StoreError::Corrupt("trailing bytes after vectors".into()));
        }
        Ok(Self {
            dataset_hash,
            node_count,
            damping,
            epsilon,
            entries,
        })
    }

    /// Writes the store to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let telemetry = orex_telemetry::global();
        let _span = telemetry.span("store.precompute.save_us");
        let data = self.encode();
        let bytes = data.len() as u64;
        std::fs::write(&path, data)?;
        orex_telemetry::logger()
            .info(LOG_TARGET, "precomputed ranks saved")
            .field_str("path", path.as_ref().to_string_lossy())
            .field_u64("bytes", bytes)
            .field_u64("terms", self.entries.len() as u64)
            .emit();
        Ok(())
    }

    /// Loads a store from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let telemetry = orex_telemetry::global();
        let _span = telemetry.span("store.precompute.load_us");
        let data = std::fs::read(&path)?;
        let bytes = data.len() as u64;
        let store = Self::decode(Bytes::from(data))?;
        orex_telemetry::logger()
            .info(LOG_TARGET, "precomputed ranks loaded")
            .field_str("path", path.as_ref().to_string_lossy())
            .field_u64("bytes", bytes)
            .field_u64("terms", store.entries.len() as u64)
            .emit();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orex_authority::object_rank2;
    use orex_core::{ObjectRankSystem, SystemConfig};
    use orex_datagen::{generate_dblp, DblpConfig, TextConfig};
    use orex_ir::Okapi;

    fn system() -> ObjectRankSystem {
        let d = generate_dblp(
            "precompute",
            &DblpConfig {
                papers: 300,
                authors: 120,
                conferences: 4,
                years_per_conference: 4,
                text: TextConfig {
                    vocab_size: 800,
                    topics: 6,
                    ..TextConfig::default()
                },
                ..DblpConfig::default()
            },
        );
        ObjectRankSystem::new(d.graph, d.ground_truth, SystemConfig::default())
    }

    /// Terms sorted by descending document frequency, the precompute
    /// selection order.
    fn top_terms(sys: &ObjectRankSystem, n: usize) -> Vec<String> {
        let index = sys.index();
        let mut by_df: Vec<(u32, String)> = (0..index.vocabulary_size() as u32)
            .map(|t| (index.df(t), index.term_text(t).to_string()))
            .collect();
        by_df.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        by_df.into_iter().take(n).map(|(_, t)| t).collect()
    }

    #[test]
    fn combined_matches_live_iteration_within_epsilon() {
        let sys = system();
        let matrix = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
        let params = RankParams {
            epsilon: 1e-8,
            max_iterations: 1000,
            ..sys.config().rank
        };
        let terms = top_terms(&sys, 32);
        let store =
            PrecomputedRanks::build(&matrix, sys.index(), &Okapi::default(), &terms, &params, 7);
        assert!(store.len() > 8, "expected most top terms to build");
        // A multi-keyword query fully covered by the store, with uneven
        // weights to exercise the query_factor path.
        let mut qv = QueryVector::from_weights([
            (terms[0].clone(), 1.0),
            (terms[3].clone(), 2.5),
            (terms[5].clone(), 0.5),
        ]);
        qv.add_weight(&terms[1], 1.0);
        assert!(store.covers(&qv, sys.index()));
        let combined = store.combine(&qv, &Okapi::default()).unwrap();
        let live =
            object_rank2(&matrix, sys.index(), &qv, &Okapi::default(), &params, None).unwrap();
        let diff: f64 = combined
            .iter()
            .zip(&live.scores)
            .map(|(a, b)| (a - b).abs())
            .sum();
        // Convex combination of vectors each within eps of their fixpoint,
        // plus f32 storage rounding of unit-scale scores.
        assert!(diff < params.epsilon * 10.0 + 1e-4, "L1 diff {diff}");
    }

    #[test]
    fn coverage_distinguishes_unknown_and_uncached_terms() {
        let sys = system();
        let matrix = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
        let terms = top_terms(&sys, 4);
        let store = PrecomputedRanks::build(
            &matrix,
            sys.index(),
            &Okapi::default(),
            &terms,
            &sys.config().rank,
            1,
        );
        // A term absent from the vocabulary contributes nothing to a live
        // base set, so it must not break coverage.
        let qv =
            QueryVector::from_weights([(terms[0].clone(), 1.0), ("zzzzunknown".to_string(), 1.0)]);
        assert!(store.covers(&qv, sys.index()));
        // A real vocabulary term without a stored vector does.
        let uncached = (0..sys.index().vocabulary_size() as u32)
            .map(|t| sys.index().term_text(t).to_string())
            .find(|t| !store.contains(t) && sys.index().term_id(t).is_some())
            .expect("some term is uncached");
        let qv = QueryVector::from_weights([(terms[0].clone(), 1.0), (uncached.clone(), 1.0)]);
        assert!(!store.covers(&qv, sys.index()));
        assert_eq!(store.missing_terms(&qv, sys.index()), vec![uncached]);
    }

    #[test]
    fn combine_returns_none_without_applicable_terms() {
        let store = PrecomputedRanks::new(0, 3, 0.85, 0.002);
        let qv = QueryVector::from_weights([("anything", 1.0)]);
        assert!(store.combine(&qv, &Okapi::default()).is_none());
    }

    #[test]
    fn backfill_insert_matches_offline_build() {
        let sys = system();
        let matrix = TransitionMatrix::new(sys.transfer(), sys.initial_rates());
        let params = sys.config().rank;
        let terms = top_terms(&sys, 6);
        let offline =
            PrecomputedRanks::build(&matrix, sys.index(), &Okapi::default(), &terms, &params, 3);
        // Rebuild one term the way the server backfill does.
        let term = &terms[0];
        let (mass, base) = term_base(sys.index(), &Okapi::default(), term).unwrap();
        let global = global_object_rank(&matrix, &params);
        let results = power_iteration_batch(&matrix, &[base], &params, Some(&global.scores));
        let mut online =
            PrecomputedRanks::new(3, matrix.node_count(), params.damping, params.epsilon);
        online.insert(term.clone(), mass, &results[0].scores);
        assert_eq!(offline.mass(term), online.mass(term));
        let qv = QueryVector::from_weights([(term.clone(), 1.0)]);
        assert_eq!(
            offline.combine(&qv, &Okapi::default()),
            online.combine(&qv, &Okapi::default())
        );
    }

    #[test]
    fn encode_decode_roundtrip_preserves_manifest() {
        let mut store = PrecomputedRanks::new(0xDEADBEEF, 3, 0.8, 0.001);
        store.insert("alpha", 2.5, &[0.1, 0.2, 0.7]);
        store.insert("beta", 0.5, &[0.6, 0.3, 0.1]);
        let decoded = PrecomputedRanks::decode(store.encode()).unwrap();
        assert_eq!(decoded.dataset_hash(), 0xDEADBEEF);
        assert_eq!(decoded.node_count(), 3);
        assert_eq!(decoded.damping(), 0.8);
        assert_eq!(decoded.epsilon(), 0.001);
        assert_eq!(decoded.terms(), vec!["alpha", "beta"]);
        assert_eq!(decoded.mass("alpha"), Some(2.5));
        let qv = QueryVector::from_weights([("alpha", 1.0), ("beta", 1.0)]);
        assert_eq!(
            decoded.combine(&qv, &Okapi::default()),
            store.combine(&qv, &Okapi::default())
        );
    }

    #[test]
    fn decode_rejects_corruption_and_bad_manifest() {
        let mut store = PrecomputedRanks::new(1, 2, 0.85, 0.002);
        store.insert("x", 1.0, &[0.4, 0.6]);
        let mut data = store.encode().to_vec();
        let mid = data.len() - 10;
        data[mid] ^= 0x40;
        assert!(PrecomputedRanks::decode(Bytes::from(data)).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let mut store = PrecomputedRanks::new(9, 2, 0.85, 0.002);
        store.insert("k", 1.5, &[0.3, 0.7]);
        let path = std::env::temp_dir().join("orex-precompute-test.bin");
        store.save(&path).unwrap();
        let loaded = PrecomputedRanks::load(&path).unwrap();
        assert_eq!(loaded.terms(), store.terms());
        assert_eq!(loaded.mass("k"), store.mass("k"));
        let _ = std::fs::remove_file(&path);
    }
}
