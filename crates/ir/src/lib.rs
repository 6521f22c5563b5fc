//! # orex-ir — information-retrieval substrate for ObjectRank2
//!
//! Implements the IR machinery of Section 3 of *"Explaining and
//! Reformulating Authority Flow Queries"*: the analysis pipeline
//! (tokenizer, stopwords, Porter stemmer), an inverted index with a
//! forward index, and the Okapi weighting of Equation 3 used to score the
//! weighted base set of ObjectRank2 (Equation 2).
//!
//! The crate is graph-agnostic: documents are `(DocId, text)` pairs; the
//! facade crate maps graph nodes onto document ids.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod analyzer;
mod index;
mod query;
mod score;
mod stem;
mod stopwords;
mod tokenize;

pub use analyzer::Analyzer;
pub use index::{DocId, IndexBuilder, InvertedIndex, Posting, TermId};
pub use query::{Query, QueryVector};
pub use score::{CollectionStats, Okapi, PivotedNorm, Scorer, TfIdf};
pub use stem::stem;
pub use stopwords::{Stopwords, DEFAULT_STOPWORDS};
pub use tokenize::Tokenizer;
