//! # orex-reformulate — relevance-feedback reformulation of authority
//! flow queries
//!
//! Implements Section 5 of *"Explaining and Reformulating Authority Flow
//! Queries"*: given the explaining subgraphs of user-selected feedback
//! objects, the query is reformulated along two axes —
//!
//! - **content** (Section 5.1): query expansion with terms from the
//!   subgraph nodes, weighted by the authority they transfer to the
//!   feedback object and decayed with distance (Equations 11–12);
//! - **structure** (Section 5.2): the authority transfer rates of edge
//!   types that carried flow to the feedback object are boosted
//!   (Equation 13) and renormalized — this is the component that *learns*
//!   the authority transfer rates a domain expert previously had to set
//!   by hand, and the survey's overall winner;
//! - **multi-object feedback** (Section 5.3): raw term weights and
//!   per-type flow sums are aggregated by summation (Equations 14–15)
//!   before normalization.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod content;
mod driver;
mod structure;

pub use content::{apply_expansion, expansion_term_weights, select_and_normalize, ContentParams};
pub use driver::{reformulate, ReformulateParams, Reformulation};
pub use structure::{
    edge_type_flows, edge_type_flows_pruned, structure_reformulate, StructureParams,
};
