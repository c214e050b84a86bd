//! `pq-service` — an embeddable, thread-safe query service over the
//! `pyq` engine stack, plus a line-based TCP front end.
//!
//! The service ties the workspace layers together for concurrent use:
//!
//! * a [`Catalog`] of named databases behind a `RwLock`, handing out
//!   copy-on-write snapshots so long queries never block writers;
//! * a sharded two-level cache — a **plan cache** (canonical query form and
//!   result mode → parsed AST + analysis + [`pq_core::Plan`] or
//!   [`pq_core::CountPlan`]) and a bounded-LRU **result cache** keyed by
//!   `(canonical query form, db name)` whose entries are stamped with the
//!   `(generation, relation epochs)` they answer, so results are
//!   invalidated by construction when data changes and replaced, not
//!   accumulated, as it does (the key carries the full canonical form, not
//!   just a hash of it, so distinct queries can never share an entry); an
//!   entry keeps its encoded response body, so a hit is written as bytes;
//! * one request path: a plain `QUERY` and `QUERY @count` are two modes of
//!   the same staged pipeline (`prepare → bind → lookup → view → run → fill
//!   → finish`, see [`service`]), with one cache-lookup site and one
//!   cache-fill site that `EXPLAIN`, `ANALYZE`, `SUBSCRIBE` and view
//!   maintenance share;
//! * an admission gate in place of a thread pool: a request is evaluated
//!   on the thread that brought it, at most [`ServiceConfig::workers`]
//!   evaluations run at once and at most [`ServiceConfig::queue_depth`]
//!   wait; past that, requests are rejected *before* any work happens with
//!   a structured [`ServiceError::Overloaded`] (admission control, not
//!   unbounded queueing). Every admitted evaluation runs under a
//!   [`pq_engine::ExecutionContext`] deadline/budget derived from
//!   per-request [`RequestLimits`], and is cooperatively cancelled on
//!   shutdown;
//! * [`ServiceMetrics`] — queries served, per-level cache hit/miss,
//!   rejections, resource-exhausted counts, and a latency histogram —
//!   snapshotable as a plain [`MetricsSnapshot`] and dumpable over the
//!   wire;
//! * **incremental views & subscriptions** ([`pq_ivm`]):
//!   [`QueryService::subscribe`] registers a materialized view (CQ or
//!   Datalog program) and streams signed answer deltas; the row-level
//!   mutators [`QueryService::insert_rows`] / [`QueryService::delete_rows`]
//!   maintain every affected view incrementally (counting for nonrecursive
//!   views, `DRed` for recursive ones) under the service's governor limits,
//!   patch the result cache in place, and journal through the WAL;
//! * a tiny [`protocol`] (`LOAD` / `QUERY` / `EXPLAIN` / `ANALYZE` /
//!   `STATS` / `DROP` / `INSERT` / `DELETE` / `SUBSCRIBE` / `PERSIST` /
//!   `SHUTDOWN`, newline-framed, `.`-terminated responses) and a [`server`]
//!   built on `std::net` + `std::thread` only. The wire `LOAD` verb only
//!   works on a server started with [`server::serve_with_data_dir`], and
//!   only for relative paths confined to that directory. Accepted sockets
//!   carry slow-client read/write timeouts ([`server::ServerOptions`]);
//! * an optional **durability layer** ([`wal`] + [`durable`]): set
//!   [`ServiceConfig::durability`] and the catalog survives restarts —
//!   every mutation is appended to a length-prefixed, CRC-checksummed
//!   write-ahead log *under the catalog write lock* (log order = catalog
//!   order), snapshots are written atomically (tmp + rename + dir fsync) on
//!   a configurable cadence / `PERSIST` / graceful drain, and startup
//!   replays snapshot + WAL tail, tolerating a torn final record while
//!   rejecting interior corruption with a typed [`RecoveryError`].
//!
//! # Quick start (embedded)
//!
//! ```
//! use pq_service::{QueryService, RequestLimits};
//!
//! let svc = QueryService::with_defaults();
//! svc.load_str("d", "R(a, b):\n  1, 2\n  2, 3\n").unwrap();
//! let resp = svc
//!     .query("d", "G(x, y) :- R(x, y).", RequestLimits::default())
//!     .unwrap();
//! assert_eq!(resp.rows.len(), 2);
//! svc.shutdown();
//! ```
//!
//! # Quick start (over TCP)
//!
//! See `examples/serve.rs` and `examples/repl.rs`, or the README's
//! service section for the wire grammar.

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(clippy::must_use_candidate, clippy::missing_panics_doc)]

pub mod cache;
pub mod catalog;
pub mod durable;
pub mod error;
mod gate;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod wal;

pub use cache::ShardedCache;
pub use catalog::{Catalog, DbSnapshot};
pub use durable::{
    Durability, DurabilityConfig, DurabilityCounters, RecoveryStats, SnapshotSummary,
};
pub use error::{Result, ServiceError};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServiceMetrics};
pub use protocol::{parse_request, Request, END};
pub use server::{
    read_response, roundtrip, serve, serve_with_data_dir, serve_with_options, ServerHandle,
    ServerOptions,
};
pub use service::{
    AnalysisReport, CacheOutcome, CountMode, Explanation, LoadSummary, MutationSummary,
    ProgramAnalysisReport, QueryResponse, QueryService, RequestLimits, ServiceConfig, Subscription,
    SubscriptionUpdate, MAX_TOTAL_THREADS,
};
pub use wal::{FsyncPolicy, RecoveryError};
