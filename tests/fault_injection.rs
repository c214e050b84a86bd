//! Fault-injection suite for the execution governor.
//!
//! Every governed engine must unwind cleanly — structured
//! [`EngineError::ResourceExhausted`], no panics, no silently truncated
//! results — under each of the four exhaustion kinds. The deterministic
//! fault points (`FaultSpec`, behind the `fault-injection` feature) drive
//! the full engine × kind matrix without real clocks or threads; the
//! real-mechanism tests then exercise each limit for real where that can be
//! made deterministic (budgets, depth, an already-expired deadline, an
//! already-cancelled token).

use std::time::Duration;

use pq_core::evaluate_with_fallback;
use pq_data::{tuple, Database};
use pq_engine::colorcoding::{self, formula_neq, ColorCodingOptions, HashFamily, NeqFormula};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::governor::{CancellationToken, ExecutionContext, FaultSpec, ResourceKind};
use pq_engine::{algebra_compile, fo_eval, naive, naive_indexed, positive_eval, yannakakis};
use pq_engine::{EngineError, Result};
use pq_query::{parse_cq, parse_datalog, parse_fo, parse_positive, Term};

const KINDS: [ResourceKind; 4] = [
    ResourceKind::Timeout,
    ResourceKind::TupleBudget,
    ResourceKind::DepthLimit,
    ResourceKind::Cancelled,
];

/// A database big enough that every engine runs well past the injected
/// fault tick (and past the 256-tick clock-check interval).
fn big_db() -> Database {
    let mut db = Database::new();
    let n = 400i64;
    db.add_table("E", ["a", "b"], (0..n - 1).map(|i| tuple![i, i + 1]))
        .unwrap();
    db.add_table(
        "EP",
        ["e", "p"],
        (0..n).map(|i| tuple![format!("e{}", i % 40), format!("p{i}")]),
    )
    .unwrap();
    db
}

fn assert_exhausted<T: std::fmt::Debug>(res: Result<T>, want: ResourceKind, what: &str) {
    match res {
        Err(EngineError::ResourceExhausted { kind, engine, .. }) => {
            assert_eq!(
                kind, want,
                "{what}: tripped in `{engine}` with the wrong kind"
            );
        }
        other => panic!("{what}: expected ResourceExhausted({want:?}), got {other:?}"),
    }
}

fn faulted(kind: ResourceKind) -> ExecutionContext {
    ExecutionContext::new().with_fault(FaultSpec {
        after_ticks: 5,
        kind,
    })
}

// ---- injected-fault matrix: engine × kind ----

#[test]
fn naive_unwinds_with_every_injected_kind() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    for kind in KINDS {
        assert_exhausted(
            naive::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "naive",
        );
        assert_exhausted(
            naive::is_nonempty_governed(&q, &db, &faulted(kind)),
            kind,
            "naive emptiness",
        );
    }
}

#[test]
fn naive_indexed_unwinds_with_every_injected_kind() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    for kind in KINDS {
        assert_exhausted(
            naive_indexed::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "naive-indexed",
        );
    }
}

#[test]
fn yannakakis_unwinds_with_every_injected_kind() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    for kind in KINDS {
        assert_exhausted(
            yannakakis::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "yannakakis",
        );
        assert_exhausted(
            yannakakis::is_nonempty_governed(&q, &db, &faulted(kind)),
            kind,
            "yannakakis emptiness",
        );
    }
}

#[test]
fn colorcoding_unwinds_with_every_injected_kind() {
    let db = big_db();
    let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let opts = ColorCodingOptions::default();
    // The same inequality as a formula over the pure body.
    let pure = parse_cq("G(e) :- EP(e, p), EP(e, p2).").unwrap();
    let phi = NeqFormula::neq(Term::var("p"), Term::var("p2"));
    for kind in KINDS {
        assert_exhausted(
            colorcoding::evaluate_governed(&q, &db, &opts, &faulted(kind)),
            kind,
            "color-coding",
        );
        assert_exhausted(
            colorcoding::is_nonempty_governed(&q, &db, &opts, &faulted(kind)),
            kind,
            "color-coding emptiness",
        );
        assert_exhausted(
            formula_neq::evaluate(&pure, &phi, &db, &HashFamily::Perfect, &faulted(kind)),
            kind,
            "color-coding formula-≠",
        );
    }
}

#[test]
fn datalog_unwinds_with_every_injected_kind() {
    let db = big_db();
    let p = parse_datalog(
        "T(x, y) :- E(x, y).\n\
         T(x, z) :- E(x, y), T(y, z).\n\
         ?- T",
    )
    .unwrap();
    for kind in KINDS {
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            assert_exhausted(
                datalog_eval::evaluate_governed(&p, &db, strategy, &faulted(kind)),
                kind,
                "datalog",
            );
        }
    }
}

#[test]
fn fo_and_algebra_unwind_with_every_injected_kind() {
    let db = big_db();
    let q = parse_fo("G(x) := exists y. E(x, y)").unwrap();
    for kind in KINDS {
        assert_exhausted(
            fo_eval::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "fo",
        );
        assert_exhausted(
            algebra_compile::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "algebra",
        );
    }
}

#[test]
fn positive_unwinds_with_every_injected_kind() {
    let db = big_db();
    let q = parse_positive("G(x) := exists y. (E(x, y) | E(y, x))").unwrap();
    for kind in KINDS {
        assert_exhausted(
            positive_eval::evaluate_governed(&q, &db, &faulted(kind)),
            kind,
            "positive",
        );
    }
}

// ---- real mechanisms ----

#[test]
fn real_expired_deadline_trips_each_engine() {
    let db = big_db();
    let ctx = || ExecutionContext::new().with_deadline(Duration::ZERO);
    let cq = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    assert_exhausted(
        naive::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::Timeout,
        "naive deadline",
    );
    assert_exhausted(
        yannakakis::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::Timeout,
        "yannakakis deadline",
    );
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    assert_exhausted(
        colorcoding::evaluate_governed(&neq, &db, &ColorCodingOptions::default(), &ctx()),
        ResourceKind::Timeout,
        "color-coding deadline",
    );
    let p = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). ?- T").unwrap();
    assert_exhausted(
        datalog_eval::evaluate_governed(&p, &db, Strategy::SemiNaive, &ctx()),
        ResourceKind::Timeout,
        "datalog deadline",
    );
}

#[test]
fn real_tuple_budget_trips_each_engine() {
    let db = big_db();
    let ctx = || ExecutionContext::new().with_tuple_budget(3);
    let cq = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    assert_exhausted(
        naive::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::TupleBudget,
        "naive budget",
    );
    assert_exhausted(
        yannakakis::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::TupleBudget,
        "yannakakis budget",
    );
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    assert_exhausted(
        colorcoding::evaluate_governed(&neq, &db, &ColorCodingOptions::default(), &ctx()),
        ResourceKind::TupleBudget,
        "color-coding budget",
    );
    let p = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). ?- T").unwrap();
    assert_exhausted(
        datalog_eval::evaluate_governed(&p, &db, Strategy::Naive, &ctx()),
        ResourceKind::TupleBudget,
        "datalog budget",
    );
}

#[test]
fn real_depth_limit_trips_the_recursive_engines() {
    let db = big_db();
    let ctx = || ExecutionContext::new().with_max_depth(1);
    let cq = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    assert_exhausted(
        naive::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::DepthLimit,
        "naive depth",
    );
    assert_exhausted(
        naive_indexed::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::DepthLimit,
        "naive-indexed depth",
    );
    // The Datalog fixpoint evaluates rule bodies through the (recursive)
    // naive engine, so the depth guard protects it too.
    let p = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). ?- T").unwrap();
    assert_exhausted(
        datalog_eval::evaluate_governed(&p, &db, Strategy::SemiNaive, &ctx()),
        ResourceKind::DepthLimit,
        "datalog depth",
    );
    let fo = parse_fo("G(x) := exists y. E(x, y)").unwrap();
    assert_exhausted(
        fo_eval::evaluate_governed(&fo, &db, &ctx()),
        ResourceKind::DepthLimit,
        "fo depth",
    );
}

#[test]
fn real_cancellation_trips_each_engine() {
    let db = big_db();
    let token = CancellationToken::new();
    token.cancel();
    let ctx = || ExecutionContext::new().with_cancellation(token.clone());
    let cq = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    assert_exhausted(
        naive::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::Cancelled,
        "naive cancel",
    );
    assert_exhausted(
        yannakakis::evaluate_governed(&cq, &db, &ctx()),
        ResourceKind::Cancelled,
        "yannakakis cancel",
    );
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    assert_exhausted(
        colorcoding::evaluate_governed(&neq, &db, &ColorCodingOptions::default(), &ctx()),
        ResourceKind::Cancelled,
        "color-coding cancel",
    );
    let p = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z). ?- T").unwrap();
    assert_exhausted(
        datalog_eval::evaluate_governed(&p, &db, Strategy::SemiNaive, &ctx()),
        ResourceKind::Cancelled,
        "datalog cancel",
    );
}

#[test]
fn cancellation_mid_evaluation_from_another_thread() {
    // A genuinely concurrent cancel: the worker evaluates an adversarial
    // (cyclic, large) query with no other limit; the canceller fires after a
    // short delay. The worker must come back with Cancelled — not hang, not
    // panic.
    let mut db = Database::new();
    let n = 60i64;
    let mut rows = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                rows.push(tuple![a, b]);
            }
        }
    }
    db.add_table("G", ["a", "b"], rows).unwrap();
    let q = parse_cq("P :- G(v, w), G(w, x), G(x, y), G(y, z), G(z, v).").unwrap();

    let token = CancellationToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        })
    };
    let ctx = ExecutionContext::new().with_cancellation(token);
    let res = naive::evaluate_governed(&q, &db, &ctx);
    canceller.join().unwrap();
    assert_exhausted(res, ResourceKind::Cancelled, "mid-evaluation cancel");
}

// ---- counters and error structure ----

#[test]
fn exhaustion_errors_report_progress_counters() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let ctx = ExecutionContext::new().with_tuple_budget(7);
    match naive::evaluate_governed(&q, &db, &ctx) {
        Err(EngineError::ResourceExhausted {
            engine,
            atoms_processed,
            tuples_materialized,
            ..
        }) => {
            assert_eq!(engine, "naive");
            assert!(atoms_processed > 0, "atom counter should have advanced");
            assert!(tuples_materialized >= 7, "charged tuples should be counted");
        }
        other => panic!("expected exhaustion, got {other:?}"),
    }
    assert!(ctx.ticks() > 0);
    assert_eq!(ctx.tuples_remaining(), Some(0));
}

#[test]
fn generous_limits_change_nothing() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let ctx = ExecutionContext::new()
        .with_deadline(Duration::from_secs(3600))
        .with_tuple_budget(10_000_000)
        .with_max_depth(10_000);
    let governed = naive::evaluate_governed(&q, &db, &ctx).unwrap();
    let free = naive::evaluate(&q, &db).unwrap();
    assert_eq!(
        governed, free,
        "limits that do not trip must not alter the answer"
    );
}

// ---- planner graceful degradation ----

#[test]
fn planner_fallback_recovers_from_injected_failure() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    // The preferred engine (color-coding, head of the chain) dies on an
    // injected budget fault; the chain must recover and produce the right
    // answer from a fallback, within the remaining real budget.
    let ctx = ExecutionContext::new()
        .with_tuple_budget(100_000)
        .with_fault(FaultSpec {
            after_ticks: 3,
            kind: ResourceKind::TupleBudget,
        });
    let out = evaluate_with_fallback(&q, &db, &ctx).unwrap();
    assert_eq!(out.result, naive::evaluate(&q, &db).unwrap());
    assert!(
        out.attempts.len() >= 2,
        "expected at least one failed attempt before success"
    );
    assert_eq!(out.attempts[0].engine, "color-coding");
    assert!(out.attempts[0]
        .error
        .as_deref()
        .unwrap()
        .contains("tuple budget"));
    assert!(out.attempts.last().unwrap().error.is_none());
    assert!(
        ctx.tuples_remaining().unwrap() < 100_000,
        "the fallback ran under the same (spent) budget"
    );
}

#[test]
fn planner_fallback_propagates_cancellation_immediately() {
    let db = big_db();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let ctx = ExecutionContext::new().with_fault(FaultSpec {
        after_ticks: 3,
        kind: ResourceKind::Cancelled,
    });
    // Cancellation is global — no retry may swallow it.
    assert_exhausted(
        evaluate_with_fallback(&q, &db, &ctx).map(|o| o.result),
        ResourceKind::Cancelled,
        "fallback cancellation",
    );
}
