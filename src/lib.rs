//! # orex — Explaining and Reformulating Authority Flow Queries
//!
//! A Rust implementation of the system described in *"Explaining and
//! Reformulating Authority Flow Queries"* (R. Varadarajan, V. Hristidis,
//! L. Raschid; ICDE 2008): ObjectRank2 keyword search over labeled data
//! graphs with IR-weighted base sets, *explaining subgraphs* that show a
//! user why a result scored high, and relevance-feedback *query
//! reformulation* that expands the query (content) and automatically
//! trains the authority transfer rates (structure).
//!
//! This umbrella crate re-exports the workspace:
//!
//! - [`graph`] — labeled data/schema graphs, authority transfer graphs;
//! - [`ir`] — tokenizer, Porter stemmer, inverted index, Okapi BM25;
//! - [`authority`] — power iteration, ObjectRank/ObjectRank2/PageRank;
//! - [`explain`] — explaining subgraphs (construction + flow adjustment);
//! - [`reformulate`] — content/structure reformulation, multi-feedback;
//! - [`datagen`] — synthetic DBLP and biological dataset generators;
//! - [`eval`] — metrics, residual collection, simulated-user surveys;
//! - [`core`] — the [`core::ObjectRankSystem`] facade and query sessions.
//!
//! Start with [`core::ObjectRankSystem`] and the `examples/` directory.

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]

pub use orex_authority as authority;
pub use orex_core as core;
pub use orex_datagen as datagen;
pub use orex_eval as eval;
pub use orex_explain as explain;
pub use orex_graph as graph;
pub use orex_ir as ir;
pub use orex_reformulate as reformulate;

pub use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
