//! # orex-datagen — synthetic dataset generators
//!
//! Stand-ins for the paper's four evaluation datasets (Table 1): a
//! DBLP-shaped generator over the Figure 2 schema and a biological
//! generator over the Figure 4 schema, both with Zipfian topic-model text,
//! preferential-attachment link structure and deterministic seeding.
//! See DESIGN.md §2 for why these substitutions preserve the paper's
//! experimental behaviour.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod bio;
mod dblp;
mod presets;
mod text;

pub use bio::{bio_ground_truth, bio_schema, generate_bio, BioConfig, BioEdgeTypes};
pub use dblp::{dblp_ground_truth, dblp_schema, generate_dblp, Dataset, DblpConfig, DblpEdgeTypes};
pub use presets::Preset;
pub use text::{synthetic_word, TextConfig, TextGen, Zipf, DOMAIN_KEYWORDS};
