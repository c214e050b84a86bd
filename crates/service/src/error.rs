//! The service's structured error type.

use std::fmt;

use pq_count::CountError;
use pq_data::DataError;
use pq_engine::EngineError;
use pq_query::QueryError;

use crate::wal::RecoveryError;

/// Errors surfaced by [`crate::QueryService`] and the wire protocol.
///
/// `#[non_exhaustive]` for the same reason as the substrate errors:
/// downstream matches must carry a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// Admission control rejected the request: every evaluation slot was
    /// taken and as many requests as may wait for one already did.
    /// Structured, immediate backpressure — the service never queues
    /// unboundedly.
    Overloaded {
        /// The [`crate::ServiceConfig::queue_depth`] that was reached.
        queue_depth: usize,
    },
    /// The named database is not in the catalog.
    UnknownDatabase(String),
    /// The query (or database text) failed to parse or validate.
    Parse(QueryError),
    /// A data-layer failure (bad database text, arity mismatch, …).
    Data(DataError),
    /// Evaluation failed; includes resource exhaustion
    /// ([`EngineError::ResourceExhausted`]) when a per-request limit
    /// tripped.
    Engine(EngineError),
    /// The service is shutting down and no longer admits work.
    ShuttingDown,
    /// A malformed wire-protocol request.
    Protocol(String),
    /// The service configuration is invalid (e.g. `workers` times the
    /// intra-query parallelism degree oversubscribes
    /// [`crate::service::MAX_TOTAL_THREADS`]).
    InvalidConfig(String),
    /// A client stalled past the server's read/write timeout; the
    /// connection is closed after this error is (best-effort) reported, so
    /// a slow or dead peer cannot pin a connection handler forever.
    RequestTimeout,
    /// The durability layer failed *after* the in-memory mutation applied
    /// (WAL append or snapshot I/O): the catalog is updated but the change
    /// may not survive a crash. Carries the rendered cause.
    Durability(String),
    /// Startup recovery found on-disk state that cannot be trusted (see
    /// [`RecoveryError`]); the service refuses to start rather than serve
    /// from a corrupt catalog.
    Recovery(RecoveryError),
    /// A `@count` request's exact count exceeds `u128`. Terminal for the
    /// query (no engine could produce the number), but the service keeps
    /// running — and a wrapped or truncated count is never returned.
    CountOverflow {
        /// The counting engine that detected the overflow.
        engine: &'static str,
    },
}

impl ServiceError {
    /// Short stable machine-readable code, used on the wire (`ERR <code> …`).
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded { .. } => "overloaded",
            ServiceError::UnknownDatabase(_) => "unknown-db",
            ServiceError::Parse(_) => "parse",
            ServiceError::Data(_) => "data",
            ServiceError::Engine(EngineError::ResourceExhausted { .. }) => "resource-exhausted",
            ServiceError::Engine(_) => "engine",
            ServiceError::ShuttingDown => "shutting-down",
            ServiceError::Protocol(_) => "proto",
            ServiceError::InvalidConfig(_) => "invalid-config",
            ServiceError::RequestTimeout => "request-timeout",
            ServiceError::Durability(_) => "durability",
            ServiceError::Recovery(_) => "recovery",
            ServiceError::CountOverflow { .. } => "count-overflow",
        }
    }

    /// Is this the admission-control rejection?
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ServiceError::Overloaded { .. })
    }

    /// Did a per-request resource limit trip during evaluation?
    pub fn is_resource_exhausted(&self) -> bool {
        matches!(
            self,
            ServiceError::Engine(EngineError::ResourceExhausted { .. })
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "overloaded: job queue full ({queue_depth} waiting)")
            }
            ServiceError::UnknownDatabase(n) => write!(f, "unknown database `{n}`"),
            ServiceError::Parse(e) => write!(f, "parse error: {e}"),
            ServiceError::Data(e) => write!(f, "data error: {e}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ServiceError::RequestTimeout => {
                write!(f, "request timed out waiting for client I/O")
            }
            ServiceError::Durability(m) => write!(f, "durability degraded: {m}"),
            ServiceError::Recovery(e) => write!(f, "recovery failed: {e}"),
            ServiceError::CountOverflow { engine } => {
                write!(
                    f,
                    "count overflow in {engine}: the exact count exceeds u128"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Parse(e) => Some(e),
            ServiceError::Data(e) => Some(e),
            ServiceError::Engine(e) => Some(e),
            ServiceError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ServiceError {
    fn from(e: QueryError) -> Self {
        ServiceError::Parse(e)
    }
}

impl From<DataError> for ServiceError {
    fn from(e: DataError) -> Self {
        ServiceError::Data(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

impl From<RecoveryError> for ServiceError {
    fn from(e: RecoveryError) -> Self {
        ServiceError::Recovery(e)
    }
}

impl From<CountError> for ServiceError {
    fn from(e: CountError) -> Self {
        match e {
            CountError::Overflow { engine } => ServiceError::CountOverflow { engine },
            CountError::Engine(e) => ServiceError::Engine(e),
            // `CountError` is non-exhaustive; render anything newer.
            other => ServiceError::Engine(EngineError::Unsupported(other.to_string())),
        }
    }
}

/// Result alias for this crate.
pub type Result<T, E = ServiceError> = std::result::Result<T, E>;
