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
//!   per-edge weights derived by Equation 1.
//!
//! The crate is dependency-free; all storage is flat CSR arrays tuned for
//! the power-iteration workloads of the downstream crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod csr;
mod data;
mod dot;
mod error;
mod ids;
mod schema;
mod subgraph;
mod transfer;

pub use csr::Csr;
pub use data::{Attribute, DataGraph, DataGraphBuilder, EdgeRecord, NodeRecord};
pub use dot::{data_to_dot, escape_label, schema_to_dot};
pub use error::{GraphError, Result};
pub use ids::{Direction, EdgeId, EdgeTypeId, NodeId, NodeTypeId, TransferTypeId};
pub use schema::{EdgeType, SchemaGraph};
pub use subgraph::{induced_subgraph, neighborhood, SubgraphResult};
pub use transfer::{TransferGraph, TransferRates};
