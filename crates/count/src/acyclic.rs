//! Counting over acyclic pure CQs: the counting step of the join-tree sweep
//! ([`pq_engine::sweep`]) and its join-tree instantiation, plus the
//! `COUNT DISTINCT` / `GROUP BY` operators.
//!
//! The sweep annotates every tuple with multiplicity 1, then folds the tree
//! bottom-up: each child is marginalized onto its connecting variables plus
//! any tracked `z` variables below it (**summing** multiplicities over the
//! variables projected away) and **multiplied** into its parent. Because
//! every variable's occurrences form a connected subtree (the join-tree
//! property), each satisfying assignment of *all* variables is counted
//! exactly once, so the root — marginalized onto `z` — holds, per
//! `z`-projection, the exact number of satisfying assignments extending it.
//! With `z = ∅` this is Chen–Mengel counting without enumeration: time
//! polynomial in the input alone. With `z` = the head variables it is
//! per-projection counting: cost bounded by input × distinct projections.
//!
//! Overflow note: all multiplicities are ≥ 1, so any partial sum or
//! partial product is bounded by its final value. Whether a sweep overflows
//! therefore does not depend on the order children are folded in — every
//! degree of parallelism agrees on success, value, *and* failure.

use std::collections::BTreeSet;

use pq_data::{Database, Relation};
use pq_engine::binding::check_safety;
use pq_engine::governor::ExecutionContext;
use pq_engine::sweep::{fold_up, keep_lists};
use pq_engine::yannakakis::atom_relations;
use pq_engine::EngineError;
use pq_hypergraph::{join_tree, Hypergraph, JoinTree};
use pq_query::ConjunctiveQuery;

use crate::counted::CountedRelation;
use crate::{CountError, QueryCount, Result};

/// Engine name reported in errors and diagnostics.
pub(crate) const ENGINE: &str = "count-yannakakis";

/// Is the head quantifier-free — does it export *every* body variable?
/// Chen–Mengel's tractable counting case: no existential variables, so
/// assignments map injectively onto answer tuples and
/// `|Q(d)| = #assignments`, computable without tracking projections at all.
pub fn quantifier_free(q: &ConjunctiveQuery) -> bool {
    let head: BTreeSet<&str> = q.head_variables().into_iter().collect();
    q.atom_variables().into_iter().all(|v| head.contains(v))
}

/// Validate a `GROUP BY` list: distinct head variables only, returned
/// deduplicated with first-occurrence order preserved.
///
/// # Errors
/// [`EngineError::Unsupported`] (wrapped) when a name is not a head variable
/// of `q`.
pub fn check_groups(q: &ConjunctiveQuery, groups: &[String]) -> Result<Vec<String>> {
    let head: BTreeSet<&str> = q.head_variables().into_iter().collect();
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for g in groups {
        if !head.contains(g.as_str()) {
            return Err(CountError::Engine(EngineError::Unsupported(format!(
                "GROUP BY variable `{g}` is not a head variable of {q}"
            ))));
        }
        if seen.insert(g.as_str()) {
            out.push(g.clone());
        }
    }
    Ok(out)
}

fn prepare(q: &ConjunctiveQuery) -> Result<(Hypergraph, JoinTree)> {
    if !q.is_pure() {
        return Err(CountError::Engine(EngineError::Unsupported(
            "counting engines handle pure CQs; ≠ and comparisons fall back to \
             enumerate-then-count"
                .into(),
        )));
    }
    let hg = q.hypergraph();
    let tree = join_tree(&hg).ok_or_else(|| {
        CountError::Engine(EngineError::Unsupported(format!(
            "query is not acyclic, no join tree exists: {q}"
        )))
    })?;
    Ok((hg, tree))
}

/// The counted sweep: the root counted relation over `z` (empty when the
/// query is empty on this database). `hg`'s edges are the nodes of `tree` —
/// atom hypergraph + GYO join tree, or bag hypergraph + decomposition tree —
/// and `node_rels` holds one set-semantics relation per node. The step is
/// `P_u := P_u ⊗ ⊕_{Z_j} P_j` over `(ℕ, +, ×)`.
fn counted_sweep(
    hg: &Hypergraph,
    tree: &JoinTree,
    node_rels: &[Relation],
    z: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<CountedRelation> {
    let keep = keep_lists(hg, tree, z);
    let mut rels: Vec<CountedRelation> = node_rels
        .iter()
        .map(CountedRelation::from_relation)
        .collect();
    let nonempty = fold_up(tree, &mut rels, ctx, engine, |ctx, parent, child, j| {
        let marginal = child.project_sum(&keep[j], ctx, engine)?;
        let joined = parent.join_multiply(&marginal, ctx, engine)?;
        Ok::<_, CountError>((joined, marginal.len()))
    })?;
    if !nonempty {
        return CountedRelation::new(z.iter().map(String::clone));
    }
    let out = rels[tree.root()].project_sum(z, ctx, engine)?;
    ctx.charge_tuples(engine, out.len() as u64)?;
    Ok(out)
}

/// Assemble a [`QueryCount`] from the sweep, choosing the tracked-variable
/// set by head shape: a quantifier-free head marginalizes everything away
/// (`z = ∅`, input-polynomial) and reads both counts off the grand total; a
/// projected head tracks per-head-projection counts (`z` = head variables)
/// and reads `distinct` = number of projections, `assignments` = their sum.
pub(crate) fn finish_count(
    q: &ConjunctiveQuery,
    hg: &Hypergraph,
    tree: &JoinTree,
    rels: &[Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<QueryCount> {
    if quantifier_free(q) {
        let root = counted_sweep(hg, tree, rels, &[], ctx, engine)?;
        let total = root.total(engine)?;
        Ok(QueryCount {
            distinct: total,
            assignments: total,
        })
    } else {
        let z: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
        let per = counted_sweep(hg, tree, rels, &z, ctx, engine)?;
        Ok(QueryCount {
            distinct: per.len() as u128,
            assignments: per.total(engine)?,
        })
    }
}

/// Grouped counts from the sweep: the number of **distinct answer tuples**
/// per assignment of the group variables. Quantifier-free heads track the
/// group variables directly (distinct = assignments per group); projected
/// heads track the full head projection and then count projections per
/// group.
pub(crate) fn finish_count_by(
    q: &ConjunctiveQuery,
    hg: &Hypergraph,
    tree: &JoinTree,
    rels: &[Relation],
    groups: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<CountedRelation> {
    if quantifier_free(q) {
        return counted_sweep(hg, tree, rels, groups, ctx, engine);
    }
    let z: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
    let per = counted_sweep(hg, tree, rels, &z, ctx, engine)?;
    distinct_per_group(&per, groups, ctx, engine)
}

/// Collapse per-head-projection counts to per-group **distinct** counts:
/// every distinct head projection contributes 1 to its group.
fn distinct_per_group(
    per: &CountedRelation,
    groups: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<CountedRelation> {
    let positions: Vec<usize> = groups
        .iter()
        .map(|g| {
            per.attrs()
                .iter()
                .position(|a| a == g)
                .expect("groups are head variables")
        })
        .collect();
    let mut out = CountedRelation::new(groups.iter().map(String::clone))?;
    for (t, _) in per.iter() {
        ctx.tick(engine)?;
        out.insert_add(t.project(&positions), 1, engine)?;
    }
    Ok(out)
}

/// Exact counts of `Q(d)` for an acyclic pure CQ, without enumeration.
///
/// ```
/// use pq_data::{tuple, Database};
/// use pq_query::parse_cq;
///
/// let mut db = Database::new();
/// db.add_table("R", ["a", "b"], [tuple![1, 2], tuple![1, 3]]).unwrap();
/// db.add_table("S", ["b", "c"], [tuple![2, 9], tuple![3, 9]]).unwrap();
/// let q = parse_cq("G(x, y, z) :- R(x, y), S(y, z).").unwrap();
/// let c = pq_count::count(&q, &db).unwrap();
/// assert_eq!(c.distinct, 2);
/// ```
pub fn count(q: &ConjunctiveQuery, db: &Database) -> Result<QueryCount> {
    count_governed(q, db, &ExecutionContext::unlimited())
}

/// [`count`] under the resource limits of `ctx`, at the degree of the pool
/// `ctx` carries: atom scans and the level-scheduled sweep fan out, and the
/// counts are byte-identical at any thread count.
pub fn count_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<QueryCount> {
    check_safety(q, [])?;
    if q.atoms.is_empty() {
        return Ok(QueryCount {
            distinct: 1,
            assignments: 1,
        });
    }
    let (hg, tree) = prepare(q)?;
    let rels = atom_relations(q, db, ctx)?;
    finish_count(q, &hg, &tree, &rels, ctx, ENGINE)
}

/// Grouped counts `COUNT(Q) GROUP BY groups`: one row per assignment of the
/// group variables (which must be head variables), carrying the number of
/// distinct answer tuples in that group.
pub fn count_by(q: &ConjunctiveQuery, db: &Database, groups: &[String]) -> Result<CountedRelation> {
    count_by_governed(q, db, groups, &ExecutionContext::unlimited())
}

/// [`count_by`] under the resource limits of `ctx`.
pub fn count_by_governed(
    q: &ConjunctiveQuery,
    db: &Database,
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
    let (hg, tree) = prepare(q)?;
    let rels = atom_relations(q, db, ctx)?;
    finish_count_by(q, &hg, &tree, &rels, &groups, ctx, ENGINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_engine::yannakakis;
    use pq_exec::Pool;
    use pq_query::parse_cq;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "R",
            ["a", "b"],
            [tuple![1, 2], tuple![1, 3], tuple![2, 3], tuple![4, 5]],
        )
        .unwrap();
        db.add_table("S", ["b", "c"], [tuple![2, 7], tuple![3, 7], tuple![3, 8]])
            .unwrap();
        db.add_table("T", ["c", "d"], [tuple![7, 0], tuple![8, 0], tuple![8, 1]])
            .unwrap();
        db
    }

    fn oracle(q: &ConjunctiveQuery, db: &Database) -> u128 {
        yannakakis::evaluate(q, db).unwrap().len() as u128
    }

    #[test]
    fn quantifier_free_chain_matches_enumeration() {
        let db = chain_db();
        let q = parse_cq("G(x, y, z, w) :- R(x, y), S(y, z), T(z, w).").unwrap();
        assert!(quantifier_free(&q));
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, oracle(&q, &db));
        assert_eq!(c.assignments, c.distinct);
    }

    #[test]
    fn projected_head_counts_distinct_not_assignments() {
        let db = chain_db();
        let q = parse_cq("G(x) :- R(x, y), S(y, z).").unwrap();
        assert!(!quantifier_free(&q));
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, oracle(&q, &db));
        // x=1 reaches (y,z) ∈ {(2,7),(3,7),(3,8)}, x=2 reaches {(3,7),(3,8)}
        assert_eq!(c.assignments, 5);
        assert_eq!(c.distinct, 2);
    }

    #[test]
    fn boolean_query_counts_zero_or_one() {
        let db = chain_db();
        let q = parse_cq("G :- R(x, y), S(y, z).").unwrap();
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, 1);
        assert_eq!(c.assignments, 5);
        let empty = parse_cq("G :- S(x, y), S(y, z).").unwrap();
        let c = count(&empty, &db).unwrap();
        assert_eq!(c.distinct, 0);
        assert_eq!(c.assignments, 0);
    }

    #[test]
    fn head_constants_and_repeats_stay_injective() {
        let db = chain_db();
        // Head exports every body variable (plus a constant and a repeat):
        // still quantifier-free, still |Q(d)| = #assignments.
        let q = parse_cq("G(x, y, x, 9) :- R(x, y).").unwrap();
        assert!(quantifier_free(&q));
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, oracle(&q, &db));
        assert_eq!(c.distinct, 4);
    }

    #[test]
    fn empty_body_is_the_vacuous_single_answer() {
        let db = chain_db();
        let q = ConjunctiveQuery::boolean("G", []);
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, 1);
        assert_eq!(c.assignments, 1);
    }

    #[test]
    fn cyclic_and_impure_queries_are_unsupported() {
        let db = chain_db();
        let cyclic = parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap();
        assert!(matches!(
            count(&cyclic, &db),
            Err(CountError::Engine(EngineError::Unsupported(_)))
        ));
        let impure = parse_cq("G(x) :- R(x, y), x != y.").unwrap();
        assert!(matches!(
            count(&impure, &db),
            Err(CountError::Engine(EngineError::Unsupported(_)))
        ));
    }

    #[test]
    fn grouped_counts_match_enumeration_per_group() {
        let db = chain_db();
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let by_x = count_by(&q, &db, &["x".to_string()]).unwrap();
        // Enumerate and group by hand.
        let rows = yannakakis::evaluate(&q, &db).unwrap();
        let mut expected: std::collections::BTreeMap<pq_data::Tuple, u128> = Default::default();
        let pos = rows.attr_pos("x").unwrap();
        for t in rows.iter() {
            *expected.entry(t.project(&[pos])).or_insert(0) += 1;
        }
        for (t, c) in by_x.iter() {
            assert_eq!(expected.get(t).copied(), Some(c), "group {t}");
        }
        assert_eq!(by_x.len(), expected.len());
    }

    #[test]
    fn grouped_counts_reject_non_head_variables() {
        let db = chain_db();
        let q = parse_cq("G(x) :- R(x, y), S(y, z).").unwrap();
        assert!(count_by(&q, &db, &["y".to_string()]).is_err());
    }

    #[test]
    fn parallel_counts_match_serial_at_any_degree() {
        let db = chain_db();
        // What a run leaves on its context: the same at any degree.
        let counters = |ctx: &ExecutionContext| {
            (
                ctx.ticks(),
                ctx.atoms_processed(),
                ctx.tuples_materialized(),
                ctx.tuples_remaining(),
            )
        };
        let budget = |threads: usize| {
            ExecutionContext::new()
                .with_tuple_budget(100_000)
                .with_pool(&Pool::new(threads))
        };
        for src in [
            "G(x, y, z, w) :- R(x, y), S(y, z), T(z, w).",
            "G(x) :- R(x, y), S(y, z).",
            "G :- R(x, y), S(y, z).",
            // GYO roots this at S with R(x, y) and T(z, w) each carrying a
            // leaf: a level with two parents, which fans out.
            "G(x, w) :- S(y, z), R(x, y), R(x, y2), T(z, w), T(z2, w).",
        ] {
            let q = parse_cq(src).unwrap();
            let serial = count(&q, &db).unwrap();
            let serial_ctx = budget(1);
            count_governed(&q, &db, &serial_ctx).unwrap();
            for threads in [1, 2, 4] {
                let ctx = budget(threads);
                let par = count_governed(&q, &db, &ctx).unwrap();
                assert_eq!(par, serial, "{src} at {threads} threads");
                assert_eq!(counters(&ctx), counters(&serial_ctx), "{src} at {threads}");
            }
        }
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let serial = count_by(&q, &db, &["x".to_string()]).unwrap();
        let serial_ctx = budget(1);
        count_by_governed(&q, &db, &["x".to_string()], &serial_ctx).unwrap();
        for threads in [1, 4] {
            let ctx = budget(threads);
            let par = count_by_governed(&q, &db, &["x".to_string()], &ctx).unwrap();
            assert_eq!(par, serial, "{threads} threads");
            assert_eq!(counters(&ctx), counters(&serial_ctx), "{threads} threads");
        }
    }

    #[test]
    fn exponential_answer_sets_count_without_materializing() {
        // A branching chain: every layer doubles the path count. 60 layers
        // of fan-out 2 gives 2^60 paths from each of the 2 roots — far
        // beyond anything enumerable — counted through u128 in microseconds.
        let mut db = Database::new();
        db.add_table(
            "E",
            ["a", "b"],
            [tuple![0, 0], tuple![0, 1], tuple![1, 0], tuple![1, 1]],
        )
        .unwrap();
        let len = 60;
        let atoms: Vec<String> = (0..len).map(|i| format!("E(x{i}, x{})", i + 1)).collect();
        let head: Vec<String> = (0..=len).map(|i| format!("x{i}")).collect();
        let q = parse_cq(&format!("G({}) :- {}.", head.join(", "), atoms.join(", "))).unwrap();
        let c = count(&q, &db).unwrap();
        assert_eq!(c.distinct, 2u128 << len); // 2 roots × 2^60 extensions
                                              // A tight tuple budget still governs the counting path.
        let ctx = ExecutionContext::new().with_tuple_budget(1);
        assert!(matches!(
            count_governed(&q, &db, &ctx),
            Err(CountError::Engine(EngineError::ResourceExhausted { .. }))
        ));
    }

    #[test]
    fn unsafe_head_is_a_query_error() {
        let db = chain_db();
        let q = parse_cq("G(q) :- R(x, y).").unwrap();
        assert!(matches!(
            count(&q, &db),
            Err(CountError::Engine(EngineError::Query(_)))
        ));
    }
}
