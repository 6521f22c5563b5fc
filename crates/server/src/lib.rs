//! # orex-server — the HTTP query-serving front end
//!
//! The paper frames explanation and reformulation as an *interactive*
//! loop: a user issues an authority-flow query, inspects explaining
//! subgraphs, marks relevant objects, and the system reformulates and
//! re-ranks (Sections 5–6). This crate serves that loop over HTTP/1.1
//! from a shared [`ObjectRankSystem`](orex_core::ObjectRankSystem) —
//! dependency-free, on `std::net`.
//!
//! One process serves *many* datasets through a [`SystemRegistry`]
//! (`POST /query` takes a `dataset` field; sessions remember their
//! owning dataset), the one thing [`Server::bind`] serves. Each dataset
//! owns its rank vectors: a result cache and, when built with an
//! artifact, a [`PrecomputeTier`] that combines covered queries and
//! backfills missing terms. The transport is the [`frontend`] module, the one
//! HTTP front end this server and the `orex-router` proxy both run on:
//! a thread per persistent HTTP/1.1 connection (keep-alive, pipelining)
//! under a connection cap, handlers on [`ServerConfig::threads`]
//! dedicated threads, and one request envelope of trace, metrics and
//! access log. A pooled [`HttpClient`] is shared by the router's proxy
//! hop and the CLI.
//!
//! ## Endpoints
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /query` | `{"query": "...", "dataset": "...", "k": 10}` → top-k + session id |
//! | `GET /datasets` | registered datasets with load state + memory accounting |
//! | `GET /explain/<session>/<node>` | explaining subgraph + meta-path summary |
//! | `POST /feedback/<session>` | `{"objects": [ids]}` → reformulated top-k (warm start) |
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus text exposition of the global recorder |
//! | `GET /trace/<id>` | Chrome trace-event JSON of a retained request trace |
//! | `GET /logs?level=&since=&limit=` | JSON-lines tail of captured log records |
//! | `GET /debug/status` | operator dashboard (HTML, or `?format=json`) with RED rows, occupancy, SLO burn rates |
//!
//! Sessions are stored as [`SessionSnapshot`](orex_core::SessionSnapshot)s
//! in a TTL + LRU table and resumed per request; results of identical
//! normalized initial queries come from an LRU cache that skips the
//! power iteration entirely. A snapshot's score vector and memoised top-k are
//! shared between the cache entry, the session-table entries and the
//! sessions resumed from them, so a cache hit costs O(k) — no |V|-sized
//! copy, no |E|-sized weight derivation, no rescan — and a feedback
//! round installs a fresh vector instead of editing a shared one. Every
//! response leaves in one write on a `TCP_NODELAY` socket. Requests
//! carry read/write timeouts, a body limit, `server.*` telemetry, and a
//! per-request trace; SIGTERM/ctrl-c (or a [`ShutdownHandle`]) drains
//! in-flight requests before exit.
//! Every response — including parse failures and 5xx errors — emits one
//! structured access-log record (`server.access`) stamped with the
//! request's trace id, served back by `GET /logs`. `GET /trace/<id>`
//! and `GET /logs` read the process-wide tracer's and logger's own
//! bounded rings in place; the server keeps no copy of either.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod error;
pub mod frontend;
pub mod http;
pub mod ranks;
pub mod registry;
pub mod server;
pub mod sessions;
pub mod status;

pub use cache::ResultCache;
pub use client::{ClientResponse, HttpClient};
pub use error::ServerError;
pub use frontend::{install_signal_handlers, ShutdownHandle};
pub use http::{Request, Response};
pub use ranks::{CombineOutcome, PrecomputeTier};
pub use registry::{DatasetService, DatasetSpec, SystemRegistry};
pub use server::{Server, ServerConfig};
pub use sessions::SessionTable;
pub use status::{sparkline, Occupancy, StatusBoard};
