//! # orex-core — the ObjectRank2 query & reformulation system
//!
//! The facade crate of the `orex` workspace: [`ObjectRankSystem`] bundles
//! a data graph, its authority transfer topology and a full-text index;
//! [`QuerySession`] runs the interactive loop of the paper — execute an
//! ObjectRank2 query (Section 3), explain any result (Section 4), accept
//! relevance feedback and reformulate (Section 5) — recording the
//! per-stage timings and iteration counts that Section 6's performance
//! experiments report.
//!
//! ```no_run
//! use orex_core::{ObjectRankSystem, QuerySession, SystemConfig};
//! use orex_datagen::Preset;
//! use orex_ir::Query;
//!
//! let dataset = Preset::DblpTop.generate(0.05);
//! let system = ObjectRankSystem::new(dataset.graph, dataset.ground_truth,
//!                                    SystemConfig::default());
//! let mut session = QuerySession::start(&system, &Query::parse("olap")).unwrap();
//! let top = session.top_k(10);
//! let explanation = session.explain(top[0].node).unwrap();
//! println!("{}", orex_explain::to_text(&explanation, system.graph(), 3));
//! session.feedback(&[top[0].node]).unwrap(); // learn from the click
//! ```

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::exit, clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod session;
mod system;

pub use session::{QuerySession, ResultObject, SessionError, SessionSnapshot, StepStats};
pub use system::{ObjectRankSystem, SystemConfig};
