//! The few layer timings the spans of a traced stretch cannot give, each
//! measured once, by the workload whose layer it is: `pq-data`'s algebra and
//! loader under `lib-scale`, view maintenance and `persist` under
//! `wire-write`. Also the engines' own entry points, which both traced
//! stretches call.

use std::hint::black_box;
use std::time::Instant;

use pq_data::{Database, Relation};
use pq_engine::colorcoding::{self, ColorCodingOptions, DomainIndex, HashFamily};
use pq_engine::ExecutionContext;
use pq_ivm::{RelationDelta, ViewQuery, ViewRegistry};
use pq_query::{parse_cq, ConjunctiveQuery};
use pq_service::QueryService;

use crate::gen::NEQ_QUERY;
use crate::report::Outcome;
use crate::stats;
use crate::wire::planner_options;
use crate::workloads::{joining_rows, VIEW};

/// Calls per probe; the median is reported.
const CALLS: usize = 15;

fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// An engine's own `evaluate`, unwrapped.
pub type Evaluate = fn(&ConjunctiveQuery, &Database) -> Relation;

/// The entry point of the engine a plan labelled `engine` dispatches to, and
/// the span name for a direct call of it.
pub fn direct_engine(engine: &str) -> Option<(&'static str, Evaluate)> {
    if engine.starts_with("yannakakis") {
        Some(("engine.yannakakis", |q, db| {
            pq_engine::yannakakis::evaluate(q, db).expect("evaluates")
        }))
    } else if engine.starts_with("colorcoding") {
        Some(("engine.colorcoding", |q, db| {
            colorcoding::evaluate(q, db, &ColorCodingOptions::default()).expect("evaluates")
        }))
    } else if engine.starts_with("hypertree") {
        Some(("engine.hypertree", |q, db| {
            pq_engine::hypertree::evaluate(q, db).expect("evaluates")
        }))
    } else {
        None
    }
}

/// Size of the perfect hash family color coding walks for the inequality
/// query on `db`.
pub fn colorcoding_family_size(db: &Database) -> f64 {
    let q = parse_cq(NEQ_QUERY).expect("class query parses");
    let k = pq_core::plan(&q, &planner_options())
        .classification
        .color_parameter
        .unwrap_or(0);
    HashFamily::Perfect.family_size(DomainIndex::from_database(db).len(), k) as f64
}

/// `pq-data` on the first two chain relations of `db`, and the loader on
/// all of it.
pub fn data_layer(db: &Database, out: &mut Outcome) {
    let (r0, r1) = (
        db.relation("R0").expect("chain relation"),
        db.relation("R1").expect("chain relation"),
    );
    let joined = r0.natural_join(r1).expect("joins").len();
    let per_row = |us: f64, rows: usize| us * 1e3 / rows as f64;
    out.set(
        "data.natural_join_ns_per_row",
        per_row(
            median_us(|| r0.natural_join(r1).expect("joins")),
            r0.len() + r1.len() + joined,
        ),
    );
    out.set(
        "data.semijoin_ns_per_row",
        per_row(median_us(|| r0.semijoin(r1)), r0.len() + r1.len()),
    );
    out.set(
        "data.project_ns_per_row",
        per_row(
            median_us(|| r0.project(&["a0"]).expect("projects")),
            r0.len(),
        ),
    );
    let text = pq_data::render_database(db);
    let load_us = median_us(|| pq_data::loader::parse_database(&text).expect("loads"));
    out.set(
        "data.load_mib_per_s",
        text.len() as f64 / (1024.0 * 1024.0) / (load_us / 1e6),
    );
}

/// Under a write: single-row `ViewRegistry::maintain` of the workload's
/// view on a copy of `db`, and `persist` (snapshot and WAL rotation) on the
/// workload's own durable service.
pub fn write_path(db: &Database, svc: &QueryService, out: &mut Outcome) {
    let spare = joining_rows(0, db, 1).pop().expect("one row");
    let unlimited = ExecutionContext::unlimited;
    let mut registry = ViewRegistry::new();
    let view = ViewQuery::Cq(parse_cq(VIEW).expect("view parses"));
    registry
        .register("v", view, db, &unlimited())
        .expect("registers");
    let mut copy = db.clone();
    let mut present = false;
    out.set(
        "ivm.maintain_us",
        median_us(|| {
            let rows = vec![spare.clone()];
            let (added, removed) = if present {
                (Vec::new(), copy.delete_rows("R1", &rows).expect("deletes"))
            } else {
                (copy.insert_rows("R1", rows).expect("inserts"), Vec::new())
            };
            present = !present;
            let delta = RelationDelta {
                relation: "R1".into(),
                added,
                removed,
            };
            registry.maintain(&copy, &[delta], unlimited)
        }),
    );
    out.set(
        "durable.persist_ms",
        median_us(|| svc.persist().expect("persists")) / 1e3,
    );
}
