//! Parallel execution is *deterministic*: every governed engine returns
//! byte-identical output when its context carries a pool of 1, 2, or 8
//! threads — including the planner's dispatch — and when a shared budget is
//! exhausted or the run is cancelled, the error kind matches the serial
//! engine's.
//!
//! Each engine earns determinism differently (morsel order for the naive
//! engines, a level schedule for Yannakakis, fixed trial batches for color
//! coding, snapshot rounds for Datalog); this test pins the promise itself.

use pq_core::{plan, PlannerOptions};
use pq_data::{tuple, Database, Relation};
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::{hypertree, naive, naive_indexed, yannakakis};
use pq_engine::{CancellationToken, EngineError, ExecutionContext, ResourceKind};
use pq_exec::Pool;
use pq_query::{parse_cq, parse_datalog};

/// Thread counts the suite sweeps. A degree-1 pool leaves the context serial
/// (the same path the plain entry points take); 2 and 8 exercise real
/// fan-out (8 > the container's core count, so workers interleave
/// adversarially).
const DEGREES: [usize; 3] = [1, 2, 8];

fn graph_db() -> Database {
    let mut db = Database::new();
    // A directed graph: two cycles joined by a chain, plus a fan — enough
    // structure that triangles, paths, and transitive closure are all
    // non-trivial.
    let mut edges = Vec::new();
    for i in 0..6 {
        edges.push(tuple![format!("a{i}"), format!("a{}", (i + 1) % 6)]);
    }
    for i in 0..5 {
        edges.push(tuple![format!("b{i}"), format!("b{}", (i + 1) % 5)]);
    }
    edges.push(tuple!["a0", "b0"]);
    for i in 0..8 {
        edges.push(tuple!["hub", format!("a{i}")]);
        edges.push(tuple![format!("b{}", i % 5), "hub"]);
    }
    db.add_table("E", ["x", "y"], edges).unwrap();

    let mut ep = Vec::new();
    for e in 0..10 {
        for p in 0..3 {
            ep.push(tuple![format!("e{e}"), format!("p{}", (e + p) % 7)]);
        }
    }
    db.add_table("EP", ["e", "p"], ep).unwrap();

    // A hub with three leaf relations for the star query: skewed keys, and
    // one key missing from each leaf so every semijoin actually filters.
    db.add_table("H", ["c"], (0..9i64).map(|c| tuple![c]))
        .unwrap();
    for (name, attr, skip) in [("P", "x", 8), ("Q", "y", 7), ("W", "z", 6)] {
        let rows = (0..30i64)
            .filter(|i| i % 9 != skip)
            .map(|i| tuple![i % 9, format!("{attr}{i}")]);
        db.add_table(name, ["c", attr], rows).unwrap();
    }
    db
}

/// A denser graph for the deadline cases: the governor consults the wall
/// clock only every `TICKS_PER_CLOCK_CHECK` loop-head polls, so each worker
/// must see enough rows to cross that threshold before finishing.
fn dense_db(n: usize) -> Database {
    let mut db = Database::new();
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push(tuple![format!("v{i}"), format!("v{}", (i + 1) % n)]);
        edges.push(tuple![format!("v{i}"), format!("v{}", (i * 2 + 1) % n)]);
        edges.push(tuple![format!("v{i}"), format!("v{}", (i * 3 + 2) % n)]);
    }
    db.add_table("E", ["x", "y"], edges).unwrap();
    db
}

/// Render a relation as sorted `attr=value` lines — a canonical byte string
/// independent of any incidental in-memory ordering.
fn rendered(r: &Relation) -> String {
    let mut lines: Vec<String> = r.iter().map(|t| format!("{t:?}")).collect();
    lines.sort();
    lines.join("\n")
}

/// An unlimited context at the given degree.
fn at(threads: usize) -> ExecutionContext {
    ExecutionContext::new().with_pool(&Pool::new(threads))
}

fn kind_of(e: &EngineError) -> ResourceKind {
    match e {
        EngineError::ResourceExhausted { kind, .. } => *kind,
        other => panic!("expected resource exhaustion, got: {other}"),
    }
}

#[test]
fn every_engine_is_byte_identical_across_thread_counts() {
    let db = graph_db();
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let path = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    // One hub, three leaves: every level of the join tree below the root has
    // several nodes, so each pass takes its multi-node fan-out branch.
    let star = parse_cq("G(c, x, y) :- H(c), P(c, x), Q(c, y), W(c, z).").unwrap();
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let cc_opts = ColorCodingOptions::default();

    // (name, plain baseline, governed runner on a given context).
    type Runner<'a> = Box<dyn Fn(&ExecutionContext) -> Relation + 'a>;
    let cases: Vec<(&str, Relation, Runner)> = vec![
        (
            "naive/triangle",
            naive::evaluate(&triangle, &db).unwrap(),
            Box::new(|ctx| naive::evaluate_governed(&triangle, &db, ctx).unwrap()),
        ),
        (
            "naive_indexed/triangle",
            naive_indexed::evaluate(&triangle, &db).unwrap(),
            Box::new(|ctx| naive_indexed::evaluate_governed(&triangle, &db, ctx).unwrap()),
        ),
        (
            "yannakakis/path",
            yannakakis::evaluate(&path, &db).unwrap(),
            Box::new(|ctx| yannakakis::evaluate_governed(&path, &db, ctx).unwrap()),
        ),
        (
            "yannakakis/star",
            naive::evaluate(&star, &db).unwrap(),
            Box::new(|ctx| yannakakis::evaluate_governed(&star, &db, ctx).unwrap()),
        ),
        (
            "hypertree/triangle",
            naive::evaluate(&triangle, &db).unwrap(),
            Box::new(|ctx| hypertree::evaluate_governed(&triangle, &db, ctx).unwrap()),
        ),
        (
            "colorcoding/neq",
            colorcoding::evaluate(&neq, &db, &cc_opts).unwrap(),
            Box::new(|ctx| colorcoding::evaluate_governed(&neq, &db, &cc_opts, ctx).unwrap()),
        ),
    ];

    for (name, serial, run) in &cases {
        let baseline = rendered(serial);
        assert!(!serial.is_empty(), "{name}: workload is degenerate");
        for threads in DEGREES {
            let out = run(&at(threads));
            assert_eq!(*serial, out, "{name} differs at {threads} threads");
            assert_eq!(
                baseline,
                rendered(&out),
                "{name} bytes differ at {threads} threads"
            );
        }
    }

    // Emptiness over the same star takes the upward pass alone, at every
    // degree — and says "empty" once a leaf is.
    let mut leafless = db.clone();
    leafless.set_relation("W", Relation::new(["c", "z"]).unwrap());
    for threads in DEGREES {
        assert!(yannakakis::is_nonempty_governed(&star, &db, &at(threads)).unwrap());
        assert!(!yannakakis::is_nonempty_governed(&star, &leafless, &at(threads)).unwrap());
        assert!(
            yannakakis::evaluate_governed(&star, &leafless, &at(threads))
                .unwrap()
                .is_empty(),
            "star over an empty leaf at {threads} threads"
        );
    }
}

#[test]
fn datalog_reaches_the_serial_fixpoint_at_every_degree() {
    let db = graph_db();
    let tc = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). ?- T").unwrap();
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let serial = datalog_eval::evaluate(&tc, &db, strategy).unwrap();
        assert!(!serial.is_empty());
        let baseline = rendered(&serial);
        for threads in DEGREES {
            let out = datalog_eval::evaluate_governed(&tc, &db, strategy, &at(threads)).unwrap();
            assert_eq!(
                baseline,
                rendered(&out),
                "datalog {strategy:?} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn planner_dispatch_is_byte_identical_across_thread_counts() {
    let db = graph_db();
    let queries = [
        "G(x, y, z) :- E(x, y), E(y, z), E(z, x).",
        "G(x, z) :- E(x, y), E(y, z).",
        "G(c, x, y) :- H(c), P(c, x), Q(c, y), W(c, z).",
        "G(e) :- EP(e, p), EP(e, p2), p != p2.",
    ];
    let opts = PlannerOptions {
        max_parallelism: 8,
        ..PlannerOptions::default()
    };
    for src in queries {
        let q = parse_cq(src).unwrap();
        let p = plan(&q, &opts);
        let serial = p.execute(&q, &db).unwrap();
        let baseline = rendered(&serial);
        for threads in DEGREES {
            let out = p.execute_governed(&q, &db, &at(threads)).unwrap();
            assert_eq!(
                baseline,
                rendered(&out),
                "{src} differs at {threads} threads"
            );
            assert_eq!(
                p.is_nonempty_governed(&q, &db, &at(threads)).unwrap(),
                !serial.is_empty(),
                "{src} emptiness differs at {threads} threads"
            );
        }
    }
}

/// Shared-budget exhaustion surfaces the *same error kind* as the serial
/// governor at every thread count — the parallel path must not turn a
/// budget trip into a different failure (or worse, a partial answer).
#[test]
fn budget_exhaustion_matches_serial_error_kind_at_every_degree() {
    let db = graph_db();
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let tc = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). ?- T").unwrap();

    let serial_kind = kind_of(
        &naive::evaluate_governed(
            &triangle,
            &db,
            &ExecutionContext::new().with_tuple_budget(2),
        )
        .unwrap_err(),
    );
    assert_eq!(serial_kind, ResourceKind::TupleBudget);

    for threads in DEGREES {
        let pool = Pool::new(threads);
        let budget = || {
            ExecutionContext::new()
                .with_tuple_budget(2)
                .with_pool(&pool)
        };
        let e = naive::evaluate_governed(&triangle, &db, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "naive at {threads} threads");
        let e = naive_indexed::evaluate_governed(&triangle, &db, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "indexed at {threads} threads");
        let e =
            datalog_eval::evaluate_governed(&tc, &db, Strategy::SemiNaive, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "datalog at {threads} threads");
    }

    // Yannakakis charges per semijoin/join output; its serial trip point is
    // the same kind — on the chain (single-parent levels) and on the star
    // (multi-parent levels) alike.
    let path = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let star = parse_cq("G(c, x, y) :- H(c), P(c, x), Q(c, y), W(c, z).").unwrap();
    for q in [&path, &star] {
        let serial_kind = kind_of(
            &yannakakis::evaluate_governed(q, &db, &ExecutionContext::new().with_tuple_budget(1))
                .unwrap_err(),
        );
        for threads in DEGREES {
            let ctx = ExecutionContext::new()
                .with_tuple_budget(1)
                .with_pool(&Pool::new(threads));
            let e = yannakakis::evaluate_governed(q, &db, &ctx).unwrap_err();
            assert_eq!(kind_of(&e), serial_kind, "yannakakis at {threads} threads");
        }
    }
}

/// Cancellation mid-run (modelled by a token that trips before the first
/// poll — the only schedule that is deterministic at every thread count)
/// and an already-expired deadline both surface the serial error kind.
#[test]
fn cancellation_and_deadline_match_serial_error_kind_at_every_degree() {
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let cc_opts = ColorCodingOptions::default();

    let cancelled = || {
        let token = CancellationToken::new();
        token.cancel();
        ExecutionContext::new().with_cancellation(token)
    };
    let expired = || ExecutionContext::new().with_deadline(std::time::Duration::ZERO);

    // The governor polls cancellation/clock every `TICKS_PER_CLOCK_CHECK`
    // cumulative ticks, so each workload must be big enough that the
    // *serial* engine provably trips — that serial baseline is what the
    // parallel paths are held to.
    let dense = dense_db(120);
    let mut ep_db = Database::new();
    let mut ep = Vec::new();
    for e in 0..80 {
        for p in 0..5 {
            ep.push(tuple![format!("e{e}"), format!("p{}", (e + p) % 11)]);
        }
    }
    ep_db.add_table("EP", ["e", "p"], ep).unwrap();

    let serial_cancel =
        kind_of(&naive::evaluate_governed(&triangle, &dense, &cancelled()).unwrap_err());
    assert_eq!(serial_cancel, ResourceKind::Cancelled);
    assert_eq!(
        kind_of(&naive_indexed::evaluate_governed(&triangle, &dense, &cancelled()).unwrap_err()),
        ResourceKind::Cancelled
    );
    assert_eq!(
        kind_of(&colorcoding::evaluate_governed(&neq, &ep_db, &cc_opts, &cancelled()).unwrap_err()),
        ResourceKind::Cancelled
    );
    let serial_timeout =
        kind_of(&naive::evaluate_governed(&triangle, &dense, &expired()).unwrap_err());
    assert_eq!(serial_timeout, ResourceKind::Timeout);

    for threads in DEGREES {
        let pool = Pool::new(threads);
        let e =
            naive::evaluate_governed(&triangle, &dense, &cancelled().with_pool(&pool)).unwrap_err();
        assert_eq!(kind_of(&e), serial_cancel, "naive cancel at {threads}");
        let e = naive_indexed::evaluate_governed(&triangle, &dense, &cancelled().with_pool(&pool))
            .unwrap_err();
        assert_eq!(kind_of(&e), serial_cancel, "indexed cancel at {threads}");
        let e =
            colorcoding::evaluate_governed(&neq, &ep_db, &cc_opts, &cancelled().with_pool(&pool))
                .unwrap_err();
        assert_eq!(
            kind_of(&e),
            serial_cancel,
            "colorcoding cancel at {threads}"
        );

        let e =
            naive::evaluate_governed(&triangle, &dense, &expired().with_pool(&pool)).unwrap_err();
        assert_eq!(kind_of(&e), serial_timeout, "naive deadline at {threads}");
    }
}
