//! Property tests for the execution governor's budget semantics.
//!
//! The contract under test: a governed evaluation either returns **exactly**
//! the ungoverned (naive-oracle) answer, or fails with a structured
//! [`EngineError::ResourceExhausted`]. It must never return a silently
//! truncated or otherwise wrong relation — a limit that does not trip is
//! invisible, and a limit that trips is loud.

use proptest::prelude::*;

use pq_core::{evaluate_with_fallback, plan, PlannerOptions};
use pq_data::{tuple, Database, Relation};
use pq_engine::governor::ExecutionContext;
use pq_engine::{naive, yannakakis, EngineError};
use pq_query::parse_cq;

/// A random chain-shaped database: relations R0..R{n-1}, each binary over a
/// small value domain, joined `R0(v0, v1), R1(v1, v2), …`.
#[derive(Debug, Clone)]
struct ChainSpec {
    relations: Vec<Vec<(i64, i64)>>,
    with_neq: bool,
}

fn arb_chain(max_atoms: usize) -> impl Strategy<Value = ChainSpec> {
    (1..=max_atoms)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(prop::collection::vec((0i64..4, 0i64..4), 0..14), n..=n),
                any::<bool>(),
            )
        })
        .prop_map(|(relations, with_neq)| ChainSpec {
            relations,
            with_neq,
        })
}

fn build_chain(spec: &ChainSpec) -> (pq_query::ConjunctiveQuery, Database) {
    let n = spec.relations.len();
    let mut db = Database::new();
    let mut body = Vec::new();
    for (i, rows) in spec.relations.iter().enumerate() {
        let rel = format!("R{i}");
        body.push(format!("{rel}(v{i}, v{})", i + 1));
        db.set_relation(
            &rel,
            Relation::with_tuples(["a", "b"], rows.iter().map(|&(a, b)| tuple![a, b])).unwrap(),
        );
    }
    let mut src = format!("G(v0, v{n}) :- {}", body.join(", "));
    if spec.with_neq && n >= 2 {
        // v0 and v{n} never co-occur in an atom when n ≥ 2 → a genuine I1
        // inequality, exercising the color-coding head of the fallback chain.
        src.push_str(&format!(", v0 != v{n}"));
    }
    src.push('.');
    (parse_cq(&src).unwrap(), db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generous limits are invisible: the fallback pipeline under a roomy
    /// budget returns exactly what the unlimited naive oracle returns.
    #[test]
    fn generous_budget_agrees_with_naive(spec in arb_chain(4)) {
        let (q, db) = build_chain(&spec);
        let ctx = ExecutionContext::new()
            .with_tuple_budget(5_000_000)
            .with_max_depth(10_000);
        let out = evaluate_with_fallback(&q, &db, &ctx).unwrap();
        prop_assert_eq!(out.result, naive::evaluate(&q, &db).unwrap());
    }

    /// Any budget, however tiny, yields either the exact answer or a
    /// structured `ResourceExhausted` — never a wrong (truncated) relation,
    /// and never a wrong emptiness verdict from the planned engine.
    #[test]
    fn any_budget_is_exact_or_exhausted(spec in arb_chain(4), budget in 0u64..40) {
        let (q, db) = build_chain(&spec);
        let oracle = naive::evaluate(&q, &db).unwrap();
        let ctx = ExecutionContext::new().with_tuple_budget(budget);
        match evaluate_with_fallback(&q, &db, &ctx) {
            Ok(out) => {
                prop_assert_eq!(out.result, oracle.clone());
            }
            Err(e) => {
                prop_assert!(
                    e.is_resource_exhausted(),
                    "budgeted run may only fail with ResourceExhausted, got {e:?}"
                );
            }
        }
        let ctx = ExecutionContext::new().with_tuple_budget(budget);
        match plan(&q, &PlannerOptions::default()).is_nonempty_governed(&q, &db, &ctx) {
            Ok(nonempty) => prop_assert_eq!(nonempty, !oracle.is_empty()),
            Err(e) => {
                prop_assert!(
                    e.is_resource_exhausted(),
                    "budgeted emptiness may only fail with ResourceExhausted, got {e:?}"
                );
            }
        }
    }

    /// When the answer is provably larger than the budget, every engine must
    /// report exhaustion rather than hand back a prefix of the answer.
    #[test]
    fn budget_smaller_than_answer_always_trips(spec in arb_chain(3)) {
        let (mut q, db) = build_chain(&spec);
        q.neqs.clear();
        let answer = naive::evaluate(&q, &db).unwrap();
        prop_assume!(answer.len() >= 2);
        let ctx = ExecutionContext::new().with_tuple_budget(answer.len() as u64 - 1);
        let err = evaluate_with_fallback(&q, &db, &ctx).unwrap_err();
        prop_assert!(matches!(err, EngineError::ResourceExhausted { .. }));
    }

    /// The single-engine contract holds too, not just the pipeline's.
    #[test]
    fn single_engines_are_exact_or_exhausted(spec in arb_chain(3), budget in 0u64..25) {
        let (mut q, db) = build_chain(&spec);
        q.neqs.clear();
        let oracle = naive::evaluate(&q, &db).unwrap();
        for run in [
            naive::evaluate_governed(&q, &db, &ExecutionContext::new().with_tuple_budget(budget)),
            yannakakis::evaluate_governed(
                &q,
                &db,
                &ExecutionContext::new().with_tuple_budget(budget),
            ),
        ] {
            match run {
                Ok(r) => prop_assert_eq!(r, oracle.clone()),
                Err(e) => prop_assert!(e.is_resource_exhausted()),
            }
        }
    }
}
