//! Counting over bounded-hypertree-width CQs: run the same semiring sweep
//! over the bag tree of a hypertree decomposition. Each atom is covered by
//! some bag, so an assignment satisfies the query iff its restriction to
//! every bag lands in that bag's materialized relation — the sweep over
//! bags therefore counts full satisfying assignments exactly once, just as
//! the join-tree sweep does for acyclic queries.

use pq_data::Database;
use pq_engine::binding::check_safety;
use pq_engine::governor::ExecutionContext;
use pq_engine::hypertree::materialize_bags_governed;
use pq_hypergraph::HypertreeDecomposition;
use pq_query::ConjunctiveQuery;

use crate::acyclic::{check_groups, finish_count, finish_count_by};
use crate::counted::CountedRelation;
use crate::{QueryCount, Result};

/// Engine name reported in errors and diagnostics.
pub(crate) const ENGINE: &str = "count-hypertree";

/// Exact counts of `Q(d)` over a hypertree decomposition `d`, without
/// enumeration. `d` must cover `q` (use [`pq_engine::hypertree::prepare`]
/// or [`pq_hypergraph::decompose`] to obtain one). Bag materialization and
/// the sweep fan out on the pool `ctx` carries; byte-identical at any thread
/// count.
pub fn count_decomposed(
    q: &ConjunctiveQuery,
    db: &Database,
    d: &HypertreeDecomposition,
    ctx: &ExecutionContext,
) -> Result<QueryCount> {
    check_safety(q, [])?;
    if q.atoms.is_empty() {
        return Ok(QueryCount {
            distinct: 1,
            assignments: 1,
        });
    }
    let (bags, tree, rels) = materialize_bags_governed(q, db, d, ctx)?;
    finish_count(q, &bags, &tree, &rels, ctx, ENGINE)
}

/// Grouped counts over a hypertree decomposition: one row per assignment of
/// the group variables, carrying the number of distinct answer tuples.
pub fn count_by_decomposed(
    q: &ConjunctiveQuery,
    db: &Database,
    d: &HypertreeDecomposition,
    groups: &[String],
    ctx: &ExecutionContext,
) -> Result<CountedRelation> {
    check_safety(q, [])?;
    let groups = check_groups(q, groups)?;
    if q.atoms.is_empty() {
        let mut out = CountedRelation::new(groups.iter().map(String::clone))?;
        if groups.is_empty() {
            out.insert_add(pq_data::Tuple::default(), 1, ENGINE)?;
        }
        return Ok(out);
    }
    let (bags, tree, rels) = materialize_bags_governed(q, db, d, ctx)?;
    finish_count_by(q, &bags, &tree, &rels, &groups, ctx, ENGINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_engine::hypertree;
    use pq_exec::Pool;
    use pq_query::parse_cq;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        let edges = [
            tuple![1, 2],
            tuple![2, 3],
            tuple![3, 1],
            tuple![2, 1],
            tuple![3, 2],
            tuple![1, 3],
            tuple![1, 1],
            tuple![4, 5],
        ];
        db.add_table("E", ["a", "b"], edges.clone()).unwrap();
        db
    }

    #[test]
    fn triangle_count_matches_enumeration() {
        let db = triangle_db();
        let q = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let d = hypertree::prepare(&q).unwrap();
        let ctx = ExecutionContext::unlimited();
        let c = count_decomposed(&q, &db, &d, &ctx).unwrap();
        let oracle = hypertree::evaluate_decomposed(&q, &db, &d, &ExecutionContext::unlimited())
            .unwrap()
            .len() as u128;
        assert_eq!(c.distinct, oracle);
        assert_eq!(c.assignments, c.distinct); // quantifier-free head
        assert!(c.distinct > 0);
    }

    #[test]
    fn projected_triangle_counts_distinct() {
        let db = triangle_db();
        let q = parse_cq("G(x) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let d = hypertree::prepare(&q).unwrap();
        let ctx = ExecutionContext::unlimited();
        let c = count_decomposed(&q, &db, &d, &ctx).unwrap();
        let oracle = hypertree::evaluate_decomposed(&q, &db, &d, &ExecutionContext::unlimited())
            .unwrap()
            .len() as u128;
        assert_eq!(c.distinct, oracle);
        assert!(c.assignments >= c.distinct);
    }

    #[test]
    fn parallel_matches_serial() {
        let db = triangle_db();
        for src in [
            "G(x, y, z) :- E(x, y), E(y, z), E(z, x).",
            "G(x) :- E(x, y), E(y, z), E(z, x).",
        ] {
            let q = parse_cq(src).unwrap();
            let d = hypertree::prepare(&q).unwrap();
            let serial = count_decomposed(&q, &db, &d, &ExecutionContext::unlimited()).unwrap();
            for threads in [1, 3] {
                let ctx = ExecutionContext::unlimited().with_pool(&Pool::new(threads));
                let par = count_decomposed(&q, &db, &d, &ctx).unwrap();
                assert_eq!(par, serial, "{src} at {threads} threads");
            }
        }
    }

    #[test]
    fn grouped_triangle_counts_per_vertex() {
        let db = triangle_db();
        let q = parse_cq("G(x, y) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let d = hypertree::prepare(&q).unwrap();
        let ctx = ExecutionContext::unlimited();
        let by_x = count_by_decomposed(&q, &db, &d, &["x".to_string()], &ctx).unwrap();
        // Oracle: enumerate and group.
        let rows =
            hypertree::evaluate_decomposed(&q, &db, &d, &ExecutionContext::unlimited()).unwrap();
        let pos = rows.attr_pos("x").unwrap();
        let mut expected: std::collections::BTreeMap<pq_data::Tuple, u128> = Default::default();
        for t in rows.iter() {
            *expected.entry(t.project(&[pos])).or_insert(0) += 1;
        }
        assert_eq!(by_x.len(), expected.len());
        for (t, c) in by_x.iter() {
            assert_eq!(expected.get(t).copied(), Some(c), "group {t}");
        }
        // Parallel grouped agrees too.
        let par_ctx = ExecutionContext::unlimited().with_pool(&Pool::new(2));
        let par = count_by_decomposed(&q, &db, &d, &["x".to_string()], &par_ctx).unwrap();
        assert_eq!(par, by_x);
    }
}
