//! # orex-store — persistence substrate
//!
//! Binary snapshots of data graphs and trained rates vectors, and the
//! precomputed single-keyword rank vectors that Section 6.2 of the paper
//! names as the scalability path for exploratory search over the large
//! datasets ("precompute ObjectRank2 values as in \[BHP04\]"). All formats carry a
//! magic, a version and an FNV-1a checksum; loading re-validates graph
//! conformance and rates validity, so persistence cannot bypass the
//! invariants the in-memory builders enforce.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod codec;
mod error;
mod precompute;
mod snapshot;
mod text_format;

pub use codec::{fnv1a, Reader, Writer, FORMAT_VERSION};
pub use error::{Result, StoreError};
pub use precompute::{term_base, PrecomputedRanks};
pub use snapshot::{
    decode_graph, decode_rates, encode_graph, encode_rates, load_graph, load_rates, save_graph,
    save_rates,
};
pub use text_format::{load_text_graph, parse_text, save_text_graph, to_text};
