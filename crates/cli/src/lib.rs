//! # orex-cli — interactive ObjectRank2 front end
//!
//! A line-oriented interactive shell over the `orex` system: generate or
//! load datasets, run keyword queries, explain any result (Section 4 of
//! the paper), give relevance feedback and watch the reformulated query
//! and trained authority transfer rates evolve (Section 5). The local
//! equivalent of the demo the paper deployed at
//! `http://dbir.cis.fiu.edu/ObjectRankReformulation/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod app;
mod command;
mod logs;
mod precompute;
mod route;
mod serve;
mod subcommands;

pub use app::App;
pub use command::{parse, Command, ParseError, HELP};
pub use logs::run_logs;
pub use precompute::run_precompute;
pub use route::run_route;
pub use serve::run_serve;
pub use subcommands::{load_snapshot, run_stats, run_trace, SUBCOMMAND_HELP};
