//! The analysis pipeline: tokenize -> stopword filter -> stem.
//!
//! Both documents (node attribute text) and query keywords must pass
//! through the *same* pipeline so base-set lookup, IR scoring (Equation 2)
//! and query expansion (Section 5.1) agree on term identity.

use crate::stem::stem;
use crate::stopwords::Stopwords;
use crate::tokenize::Tokenizer;

/// A configured analysis pipeline.
#[derive(Clone, Debug)]
pub struct Analyzer {
    tokenizer: Tokenizer,
    stopwords: Stopwords,
    stemming: bool,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self {
            tokenizer: Tokenizer::default(),
            stopwords: Stopwords::standard(),
            stemming: true,
        }
    }
}

impl Analyzer {
    /// Full pipeline with standard stopwords and Porter stemming.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pipeline without stemming (exact-term matching).
    pub fn without_stemming() -> Self {
        Self {
            stemming: false,
            ..Self::default()
        }
    }

    /// Pipeline without stopword filtering.
    pub fn without_stopwords() -> Self {
        Self {
            stopwords: Stopwords::none(),
            ..Self::default()
        }
    }

    /// Whether stemming is enabled.
    pub fn stems(&self) -> bool {
        self.stemming
    }

    /// The tokenizer, for callers that reuse one lowercase buffer.
    pub(crate) fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// The per-word step of the pipeline: the index term of one token
    /// the tokenizer already lowercased, or `None` for a stopword.
    pub(crate) fn analyze_token(&self, token: &str) -> Option<String> {
        if self.stopwords.contains(token) {
            None
        } else if self.stemming {
            Some(stem(token))
        } else {
            Some(token.to_owned())
        }
    }

    /// Analyzes a full text into index terms (duplicates preserved — the
    /// caller counts term frequencies).
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.tokenizer
            .for_each_token(text, &mut String::new(), |t| {
                terms.extend(self.analyze_token(t));
            });
        terms
    }

    /// Analyzes a single query keyword. Returns `None` when the keyword is
    /// a stopword or tokenizes to nothing; multi-token keywords keep only
    /// the first token (query keywords are single words in the paper).
    pub fn analyze_term(&self, keyword: &str) -> Option<String> {
        self.tokenizer
            .tokenize(keyword)
            .find_map(|t| self.analyze_token(&t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline() {
        let a = Analyzer::new();
        let terms = a.analyze("Range Queries in OLAP Data Cubes.");
        assert_eq!(terms, vec!["rang", "queri", "olap", "data", "cube"]);
    }

    #[test]
    fn stopwords_removed() {
        let a = Analyzer::new();
        let terms = a.analyze("the quick and the dead");
        assert_eq!(terms, vec!["quick", "dead"]);
    }

    #[test]
    fn without_stemming_keeps_surface_forms() {
        let a = Analyzer::without_stemming();
        let terms = a.analyze("Range Queries");
        assert_eq!(terms, vec!["range", "queries"]);
    }

    #[test]
    fn analyze_term_matches_analyze() {
        let a = Analyzer::new();
        // A query keyword must map to the same term a document does.
        assert_eq!(a.analyze_term("Queries").unwrap(), "queri");
        assert_eq!(a.analyze("user queries")[1], "queri");
    }

    #[test]
    fn analyze_term_rejects_stopwords() {
        let a = Analyzer::new();
        assert_eq!(a.analyze_term("the"), None);
        assert_eq!(a.analyze_term("!!!"), None);
    }

    #[test]
    fn duplicates_preserved_for_tf() {
        let a = Analyzer::new();
        let terms = a.analyze("cube cube cubes");
        assert_eq!(terms, vec!["cube", "cube", "cube"]);
    }
}
