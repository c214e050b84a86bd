//! `pq-engine` — every evaluation algorithm in Papadimitriou & Yannakakis,
//! *On the Complexity of Database Queries*.
//!
//! | module | paper location | running time |
//! |--------|----------------|--------------|
//! | [`naive`] | the generic `n^q` algorithm Theorems 1/3 say is likely optimal | `O(n^{\|atoms\|})` |
//! | [`bounded_var`] | Theorem 1(1), parameter-`v` upper bound | builds `Q'`, `d'` in poly time |
//! | [`yannakakis`] | the acyclic-CQ algorithm of \[18\] that Theorem 2 extends | poly(input + output) |
//! | [`sweep`] | Section 5's step `P_u := σ_F(P_u ⋈ π_{Z_j} P_j)` as a walk: the one join-tree schedule the engines above and below instantiate | one step per tree edge |
//! | [`colorcoding`] | **Theorem 2**: acyclic CQ + `≠` by color coding | `O(g(v)·q·n·log n)` emptiness |
//! | [`hypertree`] | beyond Fig. 1: cyclic CQs of bounded hypertree width (Gottlob–Leone–Scarcello) | poly(input + output) for fixed width |
//! | [`positive_eval`] | Theorem 1(2): positive queries via union-of-CQs | exp(q)·poly(n) |
//! | [`fo_eval`] | Theorem 1(3) context: FO evaluation over the active domain | `O(q·n^v)` |
//! | [`datalog_eval`] | Section 4: bottom-up Datalog, naive and semi-naive | poly for fixed arity |
//! | [`comparisons`] | Theorem 3 preprocessing: consistency + equality collapse | poly |
//! | [`containment`] | Chandra–Merlin \[5\]: containment, equivalence, minimization | NP-complete (via the naive engine) |

#![warn(missing_docs)]

pub mod algebra_compile;
pub mod binding;
pub mod bounded_var;
pub mod colorcoding;
pub mod comparisons;
pub mod containment;
pub mod datalog_eval;
pub mod delta;
pub mod error;
pub mod fo_eval;
pub mod governor;
pub mod hypertree;
pub mod naive;
pub mod naive_indexed;
pub mod positive_eval;
pub mod sweep;
pub mod yannakakis;

pub use error::{EngineError, Result};
pub use governor::{CancellationToken, ExecutionContext, ResourceKind};
