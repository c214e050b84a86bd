//! `pq-core` — the reproduction of Papadimitriou & Yannakakis, *On the
//! Complexity of Database Queries* (PODS 1997 / JCSS 1999), as a usable
//! library.
//!
//! The paper's two messages become two entry points:
//!
//! * [`analyze::structure_of`] places an extended conjunctive query in the
//!   paper's complexity landscape, and [`lower_bound`] names the W-class
//!   that landscape cell is hard for;
//! * [`evaluate`] / [`is_nonempty`] / [`decide`] run the query with the
//!   engine that cell recommends.
//!
//! | shape | classification | engine |
//! |-------|----------------|--------|
//! | acyclic, no constraints | combined-complexity polynomial \[18\] | Yannakakis |
//! | acyclic + `≠` | **f.p. tractable** (Theorem 2) | color coding |
//! | acyclic + `<`/`≤` | W\[1\]-complete (Theorem 3) | naive (`n^q`) |
//! | cyclic, pure, hypertree width ≤ k | polynomial for fixed k (Gottlob–Leone–Scarcello) | hypertree |
//! | cyclic | W\[1\]-complete already for pure CQs (Theorem 1) | naive (`n^q`) |
//!
//! The decision procedure lives in `pq-analyze` so the static analyzer,
//! the planner and the service agree on one answer: a [`Plan`] holds the
//! analyzer's [`StructureReport`](pq_analyze::StructureReport) itself, and
//! the service's `EXPLAIN`/`ANALYZE` reports hold the same value.
//!
//! The substrate crates are re-exported: [`data`] (relations and algebra),
//! [`hypergraph`] (GYO, join trees), [`query`] (ASTs and parser),
//! [`engine`] (all evaluators), [`analyze`] (the static analyzer the
//! planner consumes), [`wtheory`] (W hierarchy, reductions).
//!
//! ```
//! use pq_core::analyze::{structure_of, FigCell};
//! use pq_core::{evaluate, lower_bound, PlannerOptions};
//! use pq_query::parse_cq;
//! use pq_data::{tuple, Database};
//!
//! let mut db = Database::new();
//! db.add_table("EP", ["e", "p"],
//!     [tuple!["ann", "p1"], tuple!["ann", "p2"], tuple!["bob", "p1"]]).unwrap();
//! // The paper's Section 5 example: employees on more than one project.
//! let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
//! let report = structure_of(&q);
//! assert_eq!(report.cell, FigCell::AcyclicNeq);
//! assert_eq!(report.summary,
//!     "acyclic with ≠: fixed-parameter tractable by color coding (Theorem 2)");
//! assert_eq!(lower_bound(report.cell), None);
//! let answer = evaluate(&q, &db, &PlannerOptions::default()).unwrap();
//! assert_eq!(answer.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod count_planner;
pub mod datalog;
pub mod planner;

pub use count_planner::{
    count_at_least, count_relation, count_with_fallback, plan_count, CountChoice, CountOutcome,
    CountPlan,
};
pub use datalog::{evaluate_datalog, plan_datalog, DatalogPlan};
pub use planner::{
    decide, evaluate, evaluate_with_fallback, is_nonempty, lower_bound, plan, view_scan,
    EngineChoice, FallbackAttempt, FallbackOutcome, Plan, PlannerOptions,
};

pub use pq_analyze as analyze;
pub use pq_data as data;
pub use pq_engine as engine;
pub use pq_hypergraph as hypergraph;
pub use pq_query as query;
pub use pq_wtheory as wtheory;
