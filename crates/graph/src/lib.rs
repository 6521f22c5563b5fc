//! # orex-graph — labeled graph substrate for authority-flow ranking
//!
//! Implements the data model of Section 2 of *"Explaining and Reformulating
//! Authority Flow Queries"* (Varadarajan, Hristidis, Raschid; ICDE 2008):
//!
//! - [`SchemaGraph`]: node types and edge types (Figures 2 and 4);
//! - [`DataGraph`]: labeled data graphs of attributed objects, with
//!   conformance checking and CSR adjacency;
//! - [`TransferRates`]: authority transfer rates of the authority transfer
//!   schema graph (Figure 3) — the vector structure-based reformulation
//!   learns;
//! - [`TransferGraph`]: the authority transfer data graph (Figure 5) with
//!   per-edge weights derived by Equation 1, and the edges a rates vector
//!   leaves live ([`LiveEdges`]): an in-adjacency as four-row [`InSlices`]
//!   for the power sweep and an out-CSR for the explaining-subgraph walks,
//!   laid out once per set of zero-`alpha` classes.
//!
//! The crate is dependency-free; all storage is flat CSR arrays tuned for
//! the power-iteration workloads of the downstream crates.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod csr;
mod data;
mod dot;
mod error;
mod ids;
mod schema;
pub mod slices;
mod transfer;

pub use csr::Csr;
pub use data::{Attribute, DataGraph, DataGraphBuilder, EdgeRecord, NodeRecord};
pub use dot::{data_to_dot, escape_label, schema_to_dot};
pub use error::{GraphError, Result};
pub use ids::{Direction, EdgeId, EdgeTypeId, NodeId, NodeTypeId, TransferTypeId};
pub use schema::{EdgeType, SchemaGraph};
pub use slices::InSlices;
pub use transfer::{class_id, class_table, LiveEdges, TransferGraph, TransferRates, MAX_CLASSES};
