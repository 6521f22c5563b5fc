//! Property-based tests for the IR substrate: index/analyzer consistency
//! and scorer sanity over random documents.

use orex_ir::{
    Analyzer, IndexBuilder, InvertedIndex, Okapi, PivotedNorm, Posting, QueryVector, Scorer,
    Stopwords, TermId, TfIdf, Tokenizer,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: documents over a small closed vocabulary so term overlap is
/// guaranteed.
fn docs_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(0u8..12, 0..30), 1..25)
}

const VOCAB: [&str; 12] = [
    "olap", "cube", "mining", "graph", "stream", "join", "index", "rank", "data", "query", "tree",
    "hash",
];

fn render(doc: &[u8]) -> String {
    doc.iter()
        .map(|&w| VOCAB[w as usize % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    /// df equals the number of documents whose analyzed term set contains
    /// the term; postings are sorted by doc id; tf sums match.
    #[test]
    fn index_statistics_consistent(docs in docs_strategy()) {
        let analyzer = Analyzer::new();
        let mut builder = IndexBuilder::new(analyzer.clone());
        let mut manual_df = std::collections::HashMap::new();
        for (i, doc) in docs.iter().enumerate() {
            let text = render(doc);
            builder.add_document(i as u32, &text);
            let mut seen = std::collections::HashSet::new();
            for term in analyzer.analyze(&text) {
                if seen.insert(term.clone()) {
                    *manual_df.entry(term).or_insert(0u32) += 1;
                }
            }
        }
        let index = builder.build();
        for (term, df) in manual_df {
            let tid = index.term_id(&term).expect("indexed term resolvable");
            prop_assert_eq!(index.df(tid), df);
            let postings = index.postings(tid);
            for w in postings.windows(2) {
                prop_assert!(w[0].doc < w[1].doc, "postings sorted, unique");
            }
            // Forward/inverted agreement.
            for p in postings {
                prop_assert_eq!(index.tf(p.doc, tid), p.tf);
            }
        }
    }

    /// The base set is exactly the union of the query terms' postings,
    /// and scores are positive and finite under all three models.
    #[test]
    fn base_set_is_posting_union(docs in docs_strategy(), q1 in 0u8..12, q2 in 0u8..12) {
        let analyzer = Analyzer::new();
        let mut builder = IndexBuilder::new(analyzer.clone());
        for (i, doc) in docs.iter().enumerate() {
            builder.add_document(i as u32, &render(doc));
        }
        let index = builder.build();
        let t1 = analyzer.analyze_term(VOCAB[q1 as usize]).unwrap();
        let t2 = analyzer.analyze_term(VOCAB[q2 as usize]).unwrap();
        let qv = QueryVector::from_weights([(t1.clone(), 1.0), (t2.clone(), 0.5)]);

        let mut expected: Vec<u32> = Vec::new();
        for t in [&t1, &t2] {
            if let Some(tid) = index.term_id(t) {
                expected.extend(index.postings(tid).iter().map(|p| p.doc));
            }
        }
        expected.sort_unstable();
        expected.dedup();

        for scorer in [&Okapi::default() as &dyn Scorer, &TfIdf, &PivotedNorm::default()] {
            let base = index.base_set_scores(&qv, scorer);
            let docs_found: Vec<u32> = base.iter().map(|&(d, _)| d).collect();
            prop_assert_eq!(&docs_found, &expected);
            for &(_, s) in &base {
                prop_assert!(s.is_finite());
                prop_assert!(s >= 0.0);
            }
        }
    }

    /// Okapi scores never exceed the theoretical (k1+1)*idf*(k3+1) bound
    /// per term and are monotone in query weight.
    #[test]
    fn okapi_query_weight_monotone(docs in docs_strategy(), q in 0u8..12, w in 1u32..50) {
        let analyzer = Analyzer::new();
        let mut builder = IndexBuilder::new(analyzer.clone());
        for (i, doc) in docs.iter().enumerate() {
            builder.add_document(i as u32, &render(doc));
        }
        let index = builder.build();
        let term = analyzer.analyze_term(VOCAB[q as usize]).unwrap();
        let light = QueryVector::from_weights([(term.clone(), 1.0)]);
        let heavy = QueryVector::from_weights([(term.clone(), w as f64)]);
        let s_light = index.base_set_scores(&light, &Okapi::default());
        let s_heavy = index.base_set_scores(&heavy, &Okapi::default());
        for (&(d1, a), &(d2, b)) in s_light.iter().zip(&s_heavy) {
            prop_assert_eq!(d1, d2);
            prop_assert!(b >= a - 1e-12, "weight {w}: {b} < {a}");
        }
    }
}

proptest! {
    /// The Porter stemmer never panics, never returns an empty string for
    /// non-empty input, never grows a word by more than one character
    /// (the only lengthening rules append a single 'e'), and lowercase
    /// ASCII stays lowercase ASCII.
    #[test]
    fn stemmer_total_and_bounded(word in "[a-z]{1,24}") {
        let out = orex_ir::stem(&word);
        prop_assert!(!out.is_empty());
        prop_assert!(out.len() <= word.len() + 1, "{word} -> {out}");
        prop_assert!(out.bytes().all(|b| b.is_ascii_lowercase()));
    }

    /// Arbitrary (possibly non-ASCII) strings never panic the stemmer.
    #[test]
    fn stemmer_handles_arbitrary_strings(word in ".{0,40}") {
        let _ = orex_ir::stem(&word);
    }

    /// Analyzer output terms are always non-empty, lowercase, and free of
    /// stopwords.
    #[test]
    fn analyzer_output_is_clean(text in ".{0,200}") {
        let a = orex_ir::Analyzer::new();
        let stop = orex_ir::Stopwords::standard();
        let _ = &stop;
        for term in a.analyze(&text) {
            prop_assert!(!term.is_empty());
            // Note: stopword filtering happens *before* stemming (the
            // standard pipeline order), so a stem may coincide with a
            // stopword ("ise" -> "is") — that is correct behavior, not
            // asserted against.
            // Lowercasing is idempotent on the output (some exotic
            // codepoints, e.g. mathematical capitals, have no lowercase
            // mapping at all — those pass through unchanged).
            prop_assert_eq!(term.to_lowercase(), term);
        }
    }
}

/// Pieces a reference-test document is glued from, with no separator
/// added between them: words in mixed case, digits, punctuation runs,
/// stopwords, non-ASCII letters (a `Σ` that ends a word lowercases to
/// `ς`; `İ` lowercases to three bytes from two) and tokens longer than
/// the tokenizer's 64-byte `max_len`, ASCII and not.
const PIECES: [&str; 24] = [
    "Data",
    "CUBES",
    "olap",
    "Mining",
    "queries",
    "x86",
    "1997",
    " ",
    ", ",
    "--",
    "!!!",
    "\t",
    "The",
    "and",
    "OF",
    "ΟΔΟΣ",
    "Σ",
    "İstanbul",
    "Gödel",
    "naïve",
    "文字",
    "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopq",
    "ÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜÜ",
    "İİİİİİİİİİİİİİİİİİİİİİİİ",
];

/// Strategy: (analyzer variant, documents as (id gap, pieces)).
fn reference_case() -> impl Strategy<Value = (u8, Vec<(u8, Vec<u8>)>)> {
    let doc = (
        0u8..3,
        proptest::collection::vec(0u8..PIECES.len() as u8, 0..16),
    );
    (0u8..3, proptest::collection::vec(doc, 0..20))
}

/// The analysis pipeline as one iterator chain: split on
/// non-alphanumerics, lowercase each token with `str::to_lowercase`,
/// truncate at a char boundary, drop stopwords, stem.
fn reference_analyze(text: &str, stopwords: &Stopwords, stemming: bool) -> Vec<String> {
    let tokenizer = Tokenizer::default();
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() >= tokenizer.min_len && !t.is_empty())
        .map(|t| {
            let mut s = t.to_lowercase();
            if s.len() > tokenizer.max_len {
                let cut = (0..=tokenizer.max_len)
                    .rev()
                    .find(|&i| s.is_char_boundary(i))
                    .unwrap_or(0);
                s.truncate(cut);
            }
            s
        })
        .filter(|t| !stopwords.contains(t))
        .map(|t| if stemming { orex_ir::stem(&t) } else { t })
        .collect()
}

/// The index as built one document at a time: `Analyzer::analyze` per
/// document, a `HashMap` of term counts, terms interned in first
/// occurrence order and postings appended per term.
#[derive(Default)]
struct ReferenceIndex {
    dict: HashMap<String, TermId>,
    terms: Vec<String>,
    postings: Vec<Vec<Posting>>,
    doc_terms: Vec<Vec<(TermId, u32)>>,
    doc_lens: Vec<u32>,
    total_chars: u64,
    doc_count: u64,
}

impl ReferenceIndex {
    fn add(&mut self, analyzer: &Analyzer, doc: u32, text: &str) {
        self.doc_lens.resize(doc as usize + 1, 0);
        self.doc_terms.resize(doc as usize + 1, Vec::new());
        let dl = text.chars().count() as u32;
        self.doc_lens[doc as usize] = dl;
        self.total_chars += u64::from(dl);
        self.doc_count += 1;
        let mut counts: HashMap<TermId, u32> = HashMap::new();
        for term in analyzer.analyze(text) {
            let next = self.terms.len() as TermId;
            let id = *self.dict.entry(term.clone()).or_insert(next);
            if id == next {
                self.terms.push(term);
                self.postings.push(Vec::new());
            }
            *counts.entry(id).or_insert(0) += 1;
        }
        let mut fwd: Vec<(TermId, u32)> = counts.into_iter().collect();
        fwd.sort_unstable();
        for &(term, tf) in &fwd {
            self.postings[term as usize].push(Posting { doc, tf });
        }
        self.doc_terms[doc as usize] = fwd;
    }

    fn avg_doc_len(&self) -> f64 {
        if self.doc_count > 0 {
            self.total_chars as f64 / self.doc_count as f64
        } else {
            0.0
        }
    }

    fn assert_matches(&self, index: &InvertedIndex) {
        assert_eq!(index.vocabulary_size(), self.terms.len());
        for (id, text) in self.terms.iter().enumerate() {
            let id = id as TermId;
            assert_eq!(index.term_text(id), text);
            assert_eq!(index.term_id(text), Some(id));
            assert_eq!(index.postings(id), self.postings[id as usize].as_slice());
            assert_eq!(index.df(id), self.postings[id as usize].len() as u32);
        }
        // One past the last document reads as unknown on both sides.
        for doc in 0..=self.doc_lens.len() as u32 {
            let fwd = self
                .doc_terms
                .get(doc as usize)
                .map_or(&[][..], Vec::as_slice);
            assert_eq!(index.doc_terms(doc), fwd, "doc {doc}");
            assert_eq!(
                index.doc_len(doc),
                self.doc_lens.get(doc as usize).map_or(0, |&l| l)
            );
            for &(term, tf) in fwd {
                assert_eq!(index.tf(doc, term), tf);
            }
        }
        assert_eq!(index.stats().doc_count, self.doc_count);
        assert_eq!(
            index.stats().avg_doc_len.to_bits(),
            self.avg_doc_len().to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The builder's index equals the reference's field by field, over
    /// documents that exercise case folding, non-ASCII lowercasing,
    /// truncation, stopwords, empty documents and id gaps, under each
    /// analyzer configuration; and `Analyzer::analyze` equals the
    /// pipeline written as one iterator chain.
    #[test]
    fn index_matches_reference_build((variant, docs) in reference_case()) {
        let (analyzer, stopwords, stemming) = match variant {
            0 => (Analyzer::new(), Stopwords::standard(), true),
            1 => (Analyzer::without_stemming(), Stopwords::standard(), false),
            _ => (Analyzer::without_stopwords(), Stopwords::none(), true),
        };
        let mut builder = IndexBuilder::new(analyzer.clone());
        let mut reference = ReferenceIndex::default();
        let mut next = 0u32;
        for (gap, pieces) in &docs {
            let doc = next + u32::from(*gap);
            next = doc + 1;
            let text: String = pieces.iter().map(|&p| PIECES[p as usize]).collect();
            prop_assert_eq!(
                analyzer.analyze(&text),
                reference_analyze(&text, &stopwords, stemming)
            );
            builder.add_document(doc, &text);
            reference.add(&analyzer, doc, &text);
        }
        reference.assert_matches(&builder.build());
    }
}
