//! # orex-authority — authority-flow ranking engines
//!
//! The ranking layer of *"Explaining and Reformulating Authority Flow
//! Queries"*: a pull-based, deterministic power-iteration engine over the
//! authority transfer data graph (Equation 4), weighted base sets
//! (ObjectRank2, Section 3), and the baselines the paper compares against
//! (original ObjectRank, the Equation 16 modified ObjectRank, global
//! ObjectRank, and PageRank).

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod base_set;
mod hits;
mod objectrank;
mod power;
mod topk;

pub use base_set::{BaseSet, BaseSetError};
pub use hits::{base_subgraph, hits, HitsParams, HitsResult};
pub use objectrank::{
    global_object_rank, modified_object_rank, object_rank, object_rank2, page_rank, query_base_set,
    RankingError,
};
pub use power::{power_iteration, RankParams, RankResult, TransitionMatrix};
pub use topk::{top_k, Ranked};
