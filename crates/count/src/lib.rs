//! `pq-count` — exact answer counting and aggregation *without enumeration*.
//!
//! The workspace's other engines decide and enumerate `Q(d)`; the natural
//! analytics workload asks only *how many*. Chen & Mengel (*Counting Answers
//! to Existential Positive Queries*, arXiv 1601.03240) pin down exactly when
//! that question stays polynomial: for acyclic (and, via hypertree
//! decompositions, bounded-width) conjunctive queries with a
//! **quantifier-free head** — every body variable exported — the answer
//! count equals the number of satisfying assignments, and a Yannakakis-style
//! dynamic program computes it in time polynomial in the *input alone*, even
//! when the answer set is exponentially larger. With projection (existential
//! body variables) counting is as hard as `#W[1]` in general; this crate
//! then tracks counts *per head-variable projection*, which costs input +
//! output-projections — still far below materializing the answers.
//!
//! The mechanism is a commutative-semiring sweep: every tuple of a join-tree
//! node (or decomposition bag) carries a `u128` multiplicity, children are
//! marginalized onto their connecting variables (**summing** multiplicities
//! over the variables projected away), and joins **multiply** multiplicities
//! into the parent. All arithmetic is checked: an overflowing count is a
//! typed [`CountError::Overflow`], never a wrapped number.
//!
//! Entry points mirror the engine crate: ungoverned and governed
//! ([`pq_engine::governor::ExecutionContext`]); a governed call fans out on
//! the pool its context carries, with deterministic (item-ordered)
//! reduction, so counts are byte-identical at any thread count. Grouped counts (`COUNT(Q) GROUP BY x̄`) come back as a
//! [`CountedRelation`]; [`QueryCount`] carries both the distinct answer
//! count (`COUNT DISTINCT`, i.e. `|Q(d)|`) and the bag-semantics assignment
//! count.

#![warn(missing_docs)]

pub mod acyclic;
pub mod counted;
pub mod decomposed;

use std::fmt;

use pq_data::DataError;
use pq_engine::EngineError;

pub use acyclic::{
    check_groups, count, count_by, count_by_governed, count_governed, quantifier_free,
};
pub use counted::{count_value, CountedRelation};
pub use decomposed::{count_by_decomposed, count_decomposed};

/// Errors raised by the counting engines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CountError {
    /// A multiplicity product or sum exceeded `u128::MAX`. The true count is
    /// astronomically large; no fallback (enumeration least of all) could
    /// produce it, so this is terminal, and it is **never** reported as a
    /// wrapped count.
    Overflow {
        /// The counting engine that overflowed.
        engine: &'static str,
    },
    /// An underlying engine/data/query error (unsupported query class,
    /// resource exhaustion, arity mismatch, …).
    Engine(EngineError),
}

impl CountError {
    /// Convenience: is this the typed overflow error?
    pub fn is_overflow(&self) -> bool {
        matches!(self, CountError::Overflow { .. })
    }
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::Overflow { engine } => {
                write!(f, "count overflow in engine `{engine}`: exceeds u128")
            }
            CountError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CountError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CountError::Engine(e) => Some(e),
            CountError::Overflow { .. } => None,
        }
    }
}

impl From<EngineError> for CountError {
    fn from(e: EngineError) -> Self {
        CountError::Engine(e)
    }
}

impl From<DataError> for CountError {
    fn from(e: DataError) -> Self {
        CountError::Engine(EngineError::Data(e))
    }
}

/// Result alias for this crate.
pub type Result<T, E = CountError> = std::result::Result<T, E>;

/// The two exact counts of one query evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryCount {
    /// `|Q(d)|` — the number of *distinct* answer tuples (`COUNT DISTINCT`,
    /// and the count set semantics calls *the* count).
    pub distinct: u128,
    /// The number of satisfying assignments of the body variables that
    /// produce an answer (the bag-semantics `COUNT(*)` over the join).
    /// Equals `distinct` exactly when the head is quantifier-free.
    pub assignments: u128,
}
