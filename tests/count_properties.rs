//! The counting oracle: on random acyclic (chain) and bounded-hypertree-
//! width (triangle) queries, the counting engines' exact answer counts must
//! equal **enumerate-then-count** — evaluate the query with the naive
//! engine and count the distinct rows — both serially and with intra-query
//! parallelism (1 and 4 exec threads), for total and grouped counts alike.
//! Overflow is the typed [`CountError::Overflow`], never a wrapped count.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pq_core::{plan_count, CountChoice, PlannerOptions};
use pq_count::count_value;
use pq_data::{tuple, Database, Relation, Tuple, Value};
use pq_engine::naive;
use pq_engine::ExecutionContext;
use pq_exec::Pool;
use pq_query::{parse_cq, ConjunctiveQuery};

/// Exec-pool widths the oracle sweeps: a degree-1 pool leaves the context
/// serial, 4 exercises real fan-out.
const DEGREES: [usize; 2] = [1, 4];

/// A random chain-join instance: `L` binary relations `R0 … R{L-1}` joined
/// `Ri(x_i, x_{i+1})`, with the head keeping the first `keep` variables
/// (`keep = L+1` is the quantifier-free case, smaller exercises projected
/// heads and COUNT DISTINCT).
#[derive(Debug, Clone)]
struct Chain {
    tables: Vec<Vec<(i64, i64)>>,
    keep: usize,
}

fn arb_chain() -> impl Strategy<Value = Chain> {
    (2..5usize)
        .prop_flat_map(|len| {
            (
                prop::collection::vec(
                    // A small value domain so joins actually connect and
                    // projections actually collapse rows.
                    prop::collection::vec((0..5i64, 0..5i64), 0..12),
                    len..=len,
                ),
                1..=len + 1,
            )
        })
        .prop_map(|(tables, keep)| Chain { tables, keep })
}

fn chain_instance(c: &Chain) -> (ConjunctiveQuery, Database) {
    let mut db = Database::new();
    let mut body = Vec::new();
    for (i, rows) in c.tables.iter().enumerate() {
        db.add_table(
            format!("R{i}"),
            ["a", "b"],
            rows.iter().map(|&(a, b)| tuple![a, b]),
        )
        .unwrap();
        body.push(format!("R{i}(x{i}, x{})", i + 1));
    }
    let head: Vec<String> = (0..c.keep).map(|i| format!("x{i}")).collect();
    let src = format!("G({}) :- {}.", head.join(", "), body.join(", "));
    (parse_cq(&src).unwrap(), db)
}

/// A random triangle instance — genuinely cyclic, hypertree width 2.
fn triangle_instance(
    r: &[(i64, i64)],
    s: &[(i64, i64)],
    t: &[(i64, i64)],
    keep: usize,
) -> (ConjunctiveQuery, Database) {
    let mut db = Database::new();
    for (name, rows) in [("R", r), ("S", s), ("T", t)] {
        db.add_table(name, ["a", "b"], rows.iter().map(|&(a, b)| tuple![a, b]))
            .unwrap();
    }
    let head = ["x", "y", "z"][..keep].join(", ");
    let src = format!("G({head}) :- R(x, y), S(y, z), T(z, x).");
    (parse_cq(&src).unwrap(), db)
}

/// Enumerate-then-count: the oracle every counting engine must match.
fn enumerated(q: &ConjunctiveQuery, db: &Database) -> Relation {
    naive::evaluate(q, db).unwrap()
}

/// Check the whole counting surface of one instance against the
/// enumeration oracle: total counts (governed and parallel at every
/// degree) and grouped counts over `groups`.
fn check_instance(q: &ConjunctiveQuery, db: &Database, groups: &[String]) {
    let answers = enumerated(q, db);
    let oracle = answers.len() as u128;
    let plan = plan_count(q, &PlannerOptions::default());
    let serial = plan
        .execute_governed(q, db, &ExecutionContext::unlimited())
        .unwrap();
    assert_eq!(
        serial.distinct, oracle,
        "serial count != enumerate-then-count"
    );
    assert!(serial.assignments >= serial.distinct);
    for threads in DEGREES {
        let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
        let par = plan.execute_governed(q, db, &ctx).unwrap();
        assert_eq!(par, serial, "parallel count drifted at {threads} threads");
    }
    if groups.is_empty() {
        return;
    }
    // Grouped oracle: bucket the enumerated answers by the group columns.
    let idx: Vec<usize> = groups
        .iter()
        .map(|g| answers.attrs().iter().position(|a| a == g).unwrap())
        .collect();
    let mut expected: BTreeMap<Tuple, u128> = BTreeMap::new();
    for row in answers.canonical_rows() {
        let key = Tuple::new(idx.iter().map(|&i| row[i].clone()).collect::<Vec<Value>>());
        *expected.entry(key).or_default() += 1;
    }
    let by = plan
        .execute_by_governed(q, db, groups, &ExecutionContext::unlimited())
        .unwrap();
    let expected_rel = Relation::with_tuples(
        groups
            .iter()
            .map(String::as_str)
            .chain(std::iter::once("count"))
            .collect::<Vec<_>>(),
        expected.iter().map(|(k, &c)| {
            let mut vals: Vec<Value> = k.iter().cloned().collect();
            vals.push(count_value(c));
            Tuple::new(vals)
        }),
    )
    .unwrap();
    let rendered = by.to_relation("count").unwrap();
    assert_eq!(
        rendered.canonical_rows(),
        expected_rel.canonical_rows(),
        "grouped counts != enumerate-then-count group-by"
    );
    for threads in DEGREES {
        let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
        let par = plan.execute_by_governed(q, db, groups, &ctx).unwrap();
        assert_eq!(
            par.to_relation("count").unwrap().canonical_rows(),
            rendered.canonical_rows(),
            "parallel grouped counts drifted at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random chain joins (acyclic): the planner must count them *without*
    /// enumerating, and the counts must match the enumeration oracle for
    /// quantifier-free and projected heads, total and grouped by the first
    /// head variable, serial and parallel.
    #[test]
    fn acyclic_counts_match_enumerate_then_count(c in arb_chain()) {
        let (q, db) = chain_instance(&c);
        let plan = plan_count(&q, &PlannerOptions::default());
        prop_assert_eq!(&plan.choice, &CountChoice::Acyclic);
        check_instance(&q, &db, &["x0".to_string()]);
    }

    /// Random triangles (cyclic, hypertree width 2): counting goes through
    /// the width-bounded bag sweep, never a silent enumeration fallback,
    /// and still matches the oracle.
    #[test]
    fn bounded_width_counts_match_enumerate_then_count(
        r in prop::collection::vec((0..5i64, 0..5i64), 0..14),
        s in prop::collection::vec((0..5i64, 0..5i64), 0..14),
        t in prop::collection::vec((0..5i64, 0..5i64), 0..14),
        keep in 1..=3usize,
    ) {
        let (q, db) = triangle_instance(&r, &s, &t, keep);
        let plan = plan_count(&q, &PlannerOptions::default());
        prop_assert!(
            matches!(plan.choice, CountChoice::Hypertree(_)),
            "triangles count via the width-2 decomposition, got {:?}",
            plan.choice
        );
        check_instance(&q, &db, &["x".to_string()]);
    }
}

/// `|Q(d)| = 2^131` on a 130-atom chain of complete binary relations: far
/// beyond `u128`, and far beyond anything enumerable. Every counting entry
/// point must report the typed overflow — never a wrapped or truncated
/// count — and must do so quickly (the sweep touches only 4-row bags).
#[test]
fn overflow_is_a_typed_error_never_a_wrapped_count() {
    let mut db = Database::new();
    let mut body = Vec::new();
    for i in 0..130 {
        db.add_table(
            format!("R{i}"),
            ["a", "b"],
            [tuple![0, 0], tuple![0, 1], tuple![1, 0], tuple![1, 1]],
        )
        .unwrap();
        body.push(format!("R{i}(x{i}, x{})", i + 1));
    }
    let head: Vec<String> = (0..=130).map(|i| format!("x{i}")).collect();
    let src = format!("G({}) :- {}.", head.join(", "), body.join(", "));
    let q = parse_cq(&src).unwrap();

    let err = pq_count::count(&q, &db).unwrap_err();
    assert!(err.is_overflow(), "direct count: {err:?}");

    let plan = plan_count(&q, &PlannerOptions::default());
    let err = plan
        .execute_governed(&q, &db, &ExecutionContext::unlimited())
        .unwrap_err();
    assert!(err.is_overflow(), "governed count: {err:?}");

    for threads in DEGREES {
        let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
        let err = plan.execute_governed(&q, &db, &ctx).unwrap_err();
        assert!(err.is_overflow(), "parallel count at {threads}: {err:?}");
    }
}
