//! # orex-explain — explaining authority flow query results
//!
//! Implements Section 4 of *"Explaining and Reformulating Authority Flow
//! Queries"*: the explaining subgraph `G_v^Q` of a target object — the
//! radius-limited part of the authority transfer data graph through which
//! base-set authority reaches the target — with per-edge authority flows
//! adjusted by the Equation 10 fixpoint so each edge is annotated with the
//! amount of authority that *eventually reaches the target*.
//!
//! The explanation is both a user-facing artifact (rendered by
//! [`to_dot`] / [`to_text`]) and the input structure of query
//! reformulation (Section 5, crate `orex-reformulate`).
//! Its strongest paths ([`top_paths`]) name the edge of every hop, so
//! [`summarize`], [`to_text`] and Equation 13's pruned vote read the same
//! hops.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod delta;
mod paths;
mod render;
mod subgraph;
mod summary;

pub use delta::{delta_to_text, diff, EdgeChange, ExplanationDelta};
pub use paths::{top_paths, FlowPath};
pub use render::{to_dot, to_text};
pub use subgraph::{ExplainEdge, ExplainError, ExplainParams, Explanation};
pub use summary::{summarize, summary_to_text, MetaPath};
