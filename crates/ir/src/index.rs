//! Inverted index over data-graph nodes viewed as documents.
//!
//! Each node of the data graph is a document whose text is the
//! concatenation of its attribute values; the index supports the two
//! retrieval primitives the paper needs:
//!
//! - **base-set computation** (Section 3): the set of nodes containing at
//!   least one query term, each scored by `IRScore(v, Q)` (Equation 2 with
//!   the Okapi weights of Equation 3);
//! - **forward lookup** (Section 5.1): the terms of a given node, used to
//!   harvest expansion-term candidates from the explaining subgraph.
//!
//! Document lengths are measured in characters, following the paper's
//! definition of `dl`.
//!
//! # Layout
//!
//! Postings and the forward index are each one flat CSR pair: term `t`'s
//! postings are `postings[posting_offsets[t]..posting_offsets[t + 1]]`
//! and document `d`'s `(term, tf)` pairs are
//! `doc_entries[doc_offsets[d]..doc_offsets[d + 1]]`. The builder appends
//! each document's pairs to the forward arrays as it goes; `build` fills
//! the postings with one counting sort over them (count each term's
//! documents, prefix-sum the counts into offsets, then walk the
//! documents in id order, so every postings list comes out sorted by id).
//!
//! # Word memo
//!
//! The builder analyzes each distinct lowercased word once: a memo maps
//! every word it has seen to its term id, or to "stopword", so a repeated
//! word costs one hash lookup instead of a stopword probe, a stem and an
//! interning. Documents are lowercased into one reused buffer and a
//! document's terms are counted by sorting its term ids, so indexing
//! allocates only for words it has not seen before. The memo hashes with FNV-1a, not std's
//! SipHash: it only ever holds words of the text being indexed, which
//! the deployment supplies, so it needs no defence against keys chosen
//! to collide, and FNV-1a hashes a short word in a fraction of SipHash's
//! time. The query-time dictionary keeps std's hasher, because user
//! keywords reach it.

use crate::analyzer::Analyzer;
use crate::query::QueryVector;
use crate::score::{CollectionStats, Scorer};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::size_of;
use std::ops::Range;

/// Document identifier — by convention the raw `NodeId` of the graph node.
pub type DocId = u32;
/// Interned term identifier.
pub type TermId = u32;

/// One posting: a document and the term's frequency in it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Term frequency.
    pub tf: u32,
}

/// 64-bit FNV-1a, the word memo's hasher (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Lowercased word → its term id, `None` for a stopword.
type WordMemo = HashMap<Box<str>, Option<TermId>, BuildHasherDefault<Fnv1a>>;

/// An offset into one of the flat arrays.
fn offset(len: usize) -> u32 {
    // orex::allow(ORX008): a u32 offset overflows only past four billion
    // postings, far past memory exhaustion for the collections indexed.
    u32::try_from(len).expect("index offset overflow")
}

/// The `i`-th row of a CSR offsets array.
fn row(offsets: &[u32], i: usize) -> Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// Incremental index builder.
#[derive(Debug)]
pub struct IndexBuilder {
    analyzer: Analyzer,
    memo: WordMemo,
    dict: HashMap<String, TermId>,
    terms: Vec<String>,
    /// The lowercase buffer every token is written into.
    word: String,
    /// The current document's term ids, one per indexed token.
    doc_term_ids: Vec<TermId>,
    doc_lens: Vec<u32>,
    /// Always `doc_lens.len() + 1` long.
    doc_offsets: Vec<u32>,
    doc_entries: Vec<(TermId, u32)>,
    total_chars: u64,
    doc_count: u64,
}

impl IndexBuilder {
    /// Starts an empty index with the given analyzer.
    pub fn new(analyzer: Analyzer) -> Self {
        Self {
            analyzer,
            memo: WordMemo::default(),
            dict: HashMap::new(),
            terms: Vec::new(),
            word: String::new(),
            doc_term_ids: Vec::new(),
            doc_lens: Vec::new(),
            doc_offsets: vec![0],
            doc_entries: Vec::new(),
            total_chars: 0,
            doc_count: 0,
        }
    }

    /// Indexes a document. Documents must be added with strictly
    /// increasing ids (gaps allowed; gap documents count as empty).
    ///
    /// # Panics
    /// Panics if `doc` is not greater than every previously added id.
    pub fn add_document(&mut self, doc: DocId, text: &str) {
        assert!(
            self.doc_lens.len() <= doc as usize,
            "documents must be added in increasing id order"
        );
        self.doc_lens.resize(doc as usize + 1, 0);
        let dl = u32::try_from(text.chars().count()).unwrap_or(u32::MAX);
        self.doc_lens[doc as usize] = dl;
        self.total_chars += dl as u64;
        self.doc_count += 1;

        let Self {
            analyzer,
            memo,
            dict,
            terms,
            word,
            doc_term_ids,
            ..
        } = self;
        doc_term_ids.clear();
        analyzer.tokenizer().for_each_token(text, word, |w| {
            let term = match memo.get(w) {
                Some(&term) => term,
                None => {
                    let term = analyzer
                        .analyze_token(w)
                        .map(|term| intern(dict, terms, term));
                    memo.insert(w.into(), term);
                    term
                }
            };
            doc_term_ids.extend(term);
        });
        doc_term_ids.sort_unstable();

        // Gap documents and this one start where the entries end.
        let start = offset(self.doc_entries.len());
        self.doc_offsets.resize(doc as usize + 1, start);
        for run in self.doc_term_ids.chunk_by(|a, b| a == b) {
            let tf = u32::try_from(run.len()).unwrap_or(u32::MAX);
            self.doc_entries.push((run[0], tf));
        }
        self.doc_offsets.push(offset(self.doc_entries.len()));
    }

    /// Finalizes the index.
    pub fn build(mut self) -> InvertedIndex {
        let avg_doc_len = if self.doc_count > 0 {
            self.total_chars as f64 / self.doc_count as f64
        } else {
            0.0
        };
        orex_telemetry::logger()
            .info("ir.index", "inverted index built")
            .field_u64("documents", self.doc_count)
            .field_u64("terms", self.terms.len() as u64)
            .field_f64("avg_doc_len", avg_doc_len)
            .emit();

        // Counting sort of the forward entries by term: each term's
        // document count lands one slot to its right, the prefix sums
        // turn the counts into offsets, and a walk in document order
        // appends each posting at its term's cursor.
        let vocabulary = self.terms.len();
        let mut posting_offsets = vec![0u32; vocabulary + 1];
        for &(term, _) in &self.doc_entries {
            posting_offsets[term as usize + 1] += 1;
        }
        for t in 1..=vocabulary {
            posting_offsets[t] += posting_offsets[t - 1];
        }
        let mut cursor = posting_offsets[..vocabulary].to_vec();
        let mut postings = vec![Posting { doc: 0, tf: 0 }; self.doc_entries.len()];
        for d in 0..self.doc_lens.len() {
            for &(term, tf) in &self.doc_entries[row(&self.doc_offsets, d)] {
                let slot = &mut cursor[term as usize];
                postings[*slot as usize] = Posting {
                    doc: d as DocId,
                    tf,
                };
                *slot += 1;
            }
        }

        self.doc_lens.shrink_to_fit();
        self.doc_offsets.shrink_to_fit();
        self.doc_entries.shrink_to_fit();
        InvertedIndex {
            analyzer: self.analyzer,
            dict: self.dict,
            terms: self.terms,
            posting_offsets,
            postings,
            doc_lens: self.doc_lens,
            doc_offsets: self.doc_offsets,
            doc_entries: self.doc_entries,
            stats: CollectionStats {
                doc_count: self.doc_count,
                avg_doc_len,
            },
        }
    }
}

/// The id of `term`, interned at the end of `terms` if new, so term ids
/// follow first occurrence.
fn intern(dict: &mut HashMap<String, TermId>, terms: &mut Vec<String>, term: String) -> TermId {
    if let Some(&id) = dict.get(&term) {
        return id;
    }
    // orex::allow(ORX008): TermId is u32; overflowing it would need
    // four billion distinct terms, far past memory exhaustion for
    // the dictionaries this index holds.
    let id = TermId::try_from(terms.len()).expect("term id overflow");
    dict.insert(term.clone(), id);
    terms.push(term);
    id
}

/// The frozen inverted index.
#[derive(Debug)]
pub struct InvertedIndex {
    analyzer: Analyzer,
    dict: HashMap<String, TermId>,
    terms: Vec<String>,
    /// `vocabulary_size() + 1` offsets into `postings`.
    posting_offsets: Vec<u32>,
    postings: Vec<Posting>,
    doc_lens: Vec<u32>,
    /// `doc_lens.len() + 1` offsets into `doc_entries`.
    doc_offsets: Vec<u32>,
    doc_entries: Vec<(TermId, u32)>,
    stats: CollectionStats,
}

impl InvertedIndex {
    /// The analyzer documents were indexed with (queries must use it too).
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Collection statistics for the scorers.
    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// Number of distinct terms.
    pub fn vocabulary_size(&self) -> usize {
        self.terms.len()
    }

    /// Looks up an analyzed term.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dict.get(term).copied()
    }

    /// The surface form of an interned term.
    pub fn term_text(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Document frequency of a term.
    pub fn df(&self, id: TermId) -> u32 {
        self.posting_offsets[id as usize + 1] - self.posting_offsets[id as usize]
    }

    /// Postings list of a term, sorted by document id.
    pub fn postings(&self, id: TermId) -> &[Posting] {
        &self.postings[row(&self.posting_offsets, id as usize)]
    }

    /// Length (characters) of a document; 0 for unknown ids.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lens.get(doc as usize).copied().unwrap_or(0)
    }

    /// Forward index: the `(term, tf)` pairs of a document, sorted by
    /// term id. Empty for unknown ids.
    pub fn doc_terms(&self, doc: DocId) -> &[(TermId, u32)] {
        if (doc as usize) < self.doc_lens.len() {
            &self.doc_entries[row(&self.doc_offsets, doc as usize)]
        } else {
            &[]
        }
    }

    /// Term frequency of `term` in `doc`.
    pub fn tf(&self, doc: DocId, term: TermId) -> u32 {
        self.doc_terms(doc)
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| self.doc_terms(doc)[i].1)
            .unwrap_or(0)
    }

    /// Bytes the index holds on the heap, by capacity: its flat postings
    /// and forward arrays, document lengths, term texts and the
    /// query-time dictionary (each slot of its table plus one control
    /// byte, and a copy of every term text as its key).
    pub fn heap_bytes(&self) -> usize {
        let u32s = [&self.posting_offsets, &self.doc_lens, &self.doc_offsets];
        let texts = self.terms.iter().chain(self.dict.keys());
        u32s.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<u32>()
            + self.postings.capacity() * size_of::<Posting>()
            + self.doc_entries.capacity() * size_of::<(TermId, u32)>()
            + self.terms.capacity() * size_of::<String>()
            + self.dict.capacity() * (size_of::<(String, TermId)>() + 1)
            + texts.map(String::capacity).sum::<usize>()
    }

    /// Computes the query base set with IR scores (Sections 3):
    /// all documents containing at least one query term, each scored by
    /// `IRScore(v, Q) = Σ_t query_factor(w_t) · W(v, t)` (Equation 2).
    ///
    /// Returns `(doc, score)` pairs sorted by document id. Scores are raw
    /// (not normalized); the ranking layer normalizes them to probabilities.
    pub fn base_set_scores(&self, query: &QueryVector, scorer: &dyn Scorer) -> Vec<(DocId, f64)> {
        let mut span = orex_telemetry::tracer().span("ir.base_set_scores");
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        let mut postings_scanned = 0u64;
        for (term, weight) in query.iter() {
            let Some(tid) = self.term_id(term) else {
                continue;
            };
            let qf = scorer.query_factor(weight);
            if qf == 0.0 {
                continue;
            }
            let df = self.df(tid);
            let postings = self.postings(tid);
            postings_scanned += postings.len() as u64;
            for p in postings {
                let w = scorer.term_weight(&self.stats, p.tf, df, self.doc_len(p.doc));
                *acc.entry(p.doc).or_insert(0.0) += qf * w;
            }
        }
        let mut out: Vec<(DocId, f64)> = acc.into_iter().collect();
        out.sort_unstable_by_key(|&(d, _)| d);
        if span.is_recording() {
            span.attr_u64("terms", query.len() as u64);
            span.attr_u64("postings_scanned", postings_scanned);
            span.attr_u64("matched_docs", out.len() as u64);
        }
        out
    }

    /// IR score of a single document for a query (Equation 2). Zero when
    /// the document contains none of the query terms.
    pub fn ir_score(&self, doc: DocId, query: &QueryVector, scorer: &dyn Scorer) -> f64 {
        let mut score = 0.0;
        for (term, weight) in query.iter() {
            let Some(tid) = self.term_id(term) else {
                continue;
            };
            let tf = self.tf(doc, tid);
            if tf == 0 {
                continue;
            }
            score += scorer.query_factor(weight)
                * scorer.term_weight(&self.stats, tf, self.df(tid), self.doc_len(doc));
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::score::Okapi;

    fn small_index() -> InvertedIndex {
        let mut b = IndexBuilder::new(Analyzer::new());
        b.add_document(0, "Index Selection for OLAP");
        b.add_document(1, "Data Cube: A Relational Aggregation Operator");
        b.add_document(3, "Range Queries in OLAP Data Cubes");
        b.add_document(5, "Modeling Multidimensional Databases");
        b.build()
    }

    #[test]
    fn vocabulary_and_df() {
        let idx = small_index();
        let olap = idx.term_id("olap").unwrap();
        assert_eq!(idx.df(olap), 2);
        let cube = idx.term_id("cube").unwrap();
        assert_eq!(idx.df(cube), 2); // "Cube" and "Cubes" both stem to cube
        assert!(idx.term_id("nonexistent").is_none());
    }

    #[test]
    fn base_set_contains_exactly_matching_docs() {
        let idx = small_index();
        let q = QueryVector::initial(&Query::parse("OLAP"), idx.analyzer());
        let base = idx.base_set_scores(&q, &Okapi::default());
        let docs: Vec<DocId> = base.iter().map(|&(d, _)| d).collect();
        assert_eq!(docs, vec![0, 3]);
        for &(_, s) in &base {
            assert!(s > 0.0);
        }
    }

    #[test]
    fn multi_keyword_base_set_is_union() {
        let idx = small_index();
        let q = QueryVector::initial(&Query::parse("olap modeling"), idx.analyzer());
        let base = idx.base_set_scores(&q, &Okapi::default());
        let docs: Vec<DocId> = base.iter().map(|&(d, _)| d).collect();
        assert_eq!(docs, vec![0, 3, 5]);
    }

    #[test]
    fn doc_containing_both_terms_scores_higher() {
        let mut b = IndexBuilder::new(Analyzer::new());
        b.add_document(0, "olap olap olap olap");
        b.add_document(1, "olap cube");
        b.add_document(2, "cube");
        b.add_document(3, "unrelated text entirely");
        let idx = b.build();
        let q = QueryVector::initial(&Query::parse("olap cube"), idx.analyzer());
        let base = idx.base_set_scores(&q, &Okapi::default());
        let get = |d: DocId| base.iter().find(|&&(x, _)| x == d).unwrap().1;
        assert!(get(1) > get(0), "two matched terms beat one saturated term");
        assert!(get(1) > get(2));
    }

    #[test]
    fn ir_score_matches_base_set_entry() {
        let idx = small_index();
        let q = QueryVector::initial(&Query::parse("olap data"), idx.analyzer());
        let scorer = Okapi::default();
        let base = idx.base_set_scores(&q, &scorer);
        for &(doc, score) in &base {
            assert!((idx.ir_score(doc, &q, &scorer) - score).abs() < 1e-12);
        }
        // A non-matching doc scores zero.
        assert_eq!(
            idx.ir_score(
                5,
                &QueryVector::initial(&Query::parse("olap"), idx.analyzer()),
                &scorer
            ),
            0.0
        );
    }

    #[test]
    fn forward_index_roundtrip() {
        let idx = small_index();
        let terms = idx.doc_terms(3);
        assert!(!terms.is_empty());
        let surface: Vec<&str> = terms.iter().map(|&(t, _)| idx.term_text(t)).collect();
        assert!(surface.contains(&"rang"));
        assert!(surface.contains(&"olap"));
        // tf lookup agrees.
        for &(t, tf) in terms {
            assert_eq!(idx.tf(3, t), tf);
        }
        assert_eq!(idx.tf(3, 9999).min(1), 0);
    }

    #[test]
    fn gap_documents_are_empty() {
        let idx = small_index();
        assert_eq!(idx.doc_len(2), 0);
        assert!(idx.doc_terms(2).is_empty());
        assert_eq!(idx.doc_len(100), 0);
    }

    #[test]
    fn stats_reflect_added_docs() {
        let idx = small_index();
        assert_eq!(idx.stats().doc_count, 4);
        assert!(idx.stats().avg_doc_len > 0.0);
    }

    #[test]
    #[should_panic(expected = "increasing id order")]
    fn out_of_order_docs_panic() {
        let mut b = IndexBuilder::new(Analyzer::new());
        b.add_document(5, "a");
        b.add_document(3, "b");
    }

    #[test]
    fn empty_query_has_empty_base_set() {
        let idx = small_index();
        let base = idx.base_set_scores(&QueryVector::empty(), &Okapi::default());
        assert!(base.is_empty());
    }

    #[test]
    fn heap_bytes_cover_the_flat_arrays_and_both_copies_of_each_term() {
        let idx = small_index();
        let postings: usize = (0..idx.vocabulary_size() as TermId)
            .map(|t| idx.postings(t).len())
            .sum();
        let text: usize = (0..idx.vocabulary_size() as TermId)
            .map(|t| idx.term_text(t).len())
            .sum();
        // Every posting is also a forward entry; both are 8 bytes.
        assert!(idx.heap_bytes() >= 2 * postings * 8 + 2 * text);
        let empty = IndexBuilder::new(Analyzer::new()).build();
        assert!(empty.heap_bytes() < idx.heap_bytes());
    }

    #[test]
    fn tf_counts_repeated_terms() {
        let mut b = IndexBuilder::new(Analyzer::new());
        b.add_document(0, "cube cube cubes data");
        let idx = b.build();
        let cube = idx.term_id("cube").unwrap();
        assert_eq!(idx.tf(0, cube), 3);
    }
}
