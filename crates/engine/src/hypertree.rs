//! Width-bounded evaluation of *cyclic* pure CQs by hypertree decomposition
//! (Gottlob–Leone–Scarcello, cs/9812022) — the tractability frontier one
//! step beyond the paper's acyclic island.
//!
//! Given a decomposition of width `k` (from [`pq_hypergraph::decompose`]),
//! evaluation is polynomial for fixed `k`:
//!
//! 1. **Materialize each bag**: join the (at most `k`) atom relations of the
//!    node's cover `λ(t)` together with every atom assigned to the node
//!    (most-connected-first, so disconnected covers don't degenerate into
//!    Cartesian products) and project onto the bag `χ(t)`; each original
//!    atom thereby constrains exactly one bag.
//! 2. **Sweep the bag tree**: the bags form an acyclic query (the
//!    connectedness condition makes the decomposition tree a join tree over
//!    them), so the Yannakakis full reducer plus bottom-up output join —
//!    the same passes `crate::yannakakis` runs over atom relations — finish
//!    the job in time polynomial in input + output.
//!
//! A width-1 decomposition makes this engine coincide with Yannakakis; the
//! planner still routes acyclic queries there directly and reserves this
//! engine for the new Fig. 1 cell: cyclic, pure, hypertree width ≤
//! [`DEFAULT_WIDTH_LIMIT`]. The independent bag materializations fan out on
//! the pool the context carries and the sweep is the Yannakakis engine's own
//! level-scheduled one, so output is byte-identical at any thread count.

use std::collections::BTreeSet;

use pq_data::{Database, Relation, Tuple};
use pq_hypergraph::{decompose, Hypergraph, HypertreeDecomposition, JoinTree, DEFAULT_WIDTH_LIMIT};
use pq_query::ConjunctiveQuery;

use crate::binding::{check_safety, vacuous_output};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;
use crate::yannakakis::{atom_relations, reduce_and_join, upward_pass};

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "hypertree";

/// Precondition checks shared by the self-planning entry points: pure query,
/// and a decomposition of width ≤ [`DEFAULT_WIDTH_LIMIT`] exists. The
/// planner calls [`pq_hypergraph::decompose`] itself (via the analyzer) and
/// uses the `*_decomposed` entry points instead.
pub fn prepare(q: &ConjunctiveQuery) -> Result<HypertreeDecomposition> {
    if !q.is_pure() {
        return Err(EngineError::Unsupported(
            "hypertree engine handles pure CQs; use the color-coding engine for ≠".into(),
        ));
    }
    let hg = q.hypergraph();
    let Some(d) = decompose(&hg, DEFAULT_WIDTH_LIMIT) else {
        return Err(EngineError::Unsupported(format!(
            "query has no relational atoms with variables: {q}"
        )));
    };
    if d.width() > DEFAULT_WIDTH_LIMIT {
        return Err(EngineError::Unsupported(format!(
            "hypertree width bound {} exceeds the engine limit {DEFAULT_WIDTH_LIMIT}: {q}",
            d.width()
        )));
    }
    Ok(d)
}

/// The static scaffolding the evaluator hangs relations on: the query
/// hypergraph, the *bag hypergraph* (one edge per decomposition node,
/// holding the bag's variable labels), the bag tree, and the node each atom
/// is semijoined against.
struct BagPlan {
    hg: Hypergraph,
    bags: Hypergraph,
    tree: JoinTree,
    /// `assign[e]` = the first decomposition node whose bag contains atom
    /// `e`'s variables (condition 1 guarantees one exists).
    assign: Vec<usize>,
}

fn plan_bags(q: &ConjunctiveQuery, d: &HypertreeDecomposition) -> Result<BagPlan> {
    let hg = q.hypergraph();
    debug_assert!(d.verify(&hg), "decomposition does not match the query");
    let mut bags = Hypergraph::new();
    for i in 0..d.num_nodes() {
        bags.add_edge(d.node(i).bag.iter().map(|&v| hg.label(v).to_string()));
    }
    let tree = d.to_join_tree();
    let mut assign = Vec::with_capacity(hg.num_edges());
    for e in 0..hg.num_edges() {
        let node = (0..d.num_nodes())
            .find(|&i| hg.edge(e).is_subset(&d.node(i).bag))
            .ok_or_else(|| {
                EngineError::Unsupported(format!(
                    "decomposition covers no bag for atom #{e}; it does not belong to {q}"
                ))
            })?;
        assign.push(node);
    }
    Ok(BagPlan {
        hg,
        bags,
        tree,
        assign,
    })
}

/// Materialize bag `i`: join the cover's atom relations together with every
/// atom assigned here, then project onto the bag. An assigned atom's
/// variables sit inside the bag, so joining it equals the semijoin the
/// decomposition calls for — but folding it *into* the join lets the
/// most-connected-first order below prune the disconnected-cover case (a
/// cycle's bags pair up opposite edges) that a join-then-filter order would
/// blow up into a full Cartesian product. A constant-only atom has an empty
/// edge and a zero-column relation; joining it degenerates to the emptiness
/// filter such an atom means.
fn materialize_bag(
    d: &HypertreeDecomposition,
    plan: &BagPlan,
    atom_rels: &[Relation],
    i: usize,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    let node = d.node(i);
    // Cover members in ascending atom order, then the other assigned atoms.
    let mut todo: Vec<usize> = node.cover.iter().copied().collect();
    for (e, &n) in plan.assign.iter().enumerate() {
        if n == i && !node.cover.contains(&e) {
            todo.push(e);
        }
    }
    let mut acc: Option<Relation> = None;
    while !todo.is_empty() {
        ctx.tick(ENGINE)?;
        // Greedily pick the relation sharing the most attributes with the
        // accumulator; ties and the first pick fall to the lowest position,
        // so the order — and with it the output bytes — is deterministic.
        let pos = match &acc {
            None => 0,
            Some(r) => {
                let attrs: BTreeSet<&str> = r.attrs().iter().map(String::as_str).collect();
                let shared = |e: usize| {
                    atom_rels[e]
                        .attrs()
                        .iter()
                        .filter(|a| attrs.contains(a.as_str()))
                        .count()
                };
                let mut best = 0;
                for (p, &e) in todo.iter().enumerate().skip(1) {
                    if shared(e) > shared(todo[best]) {
                        best = p;
                    }
                }
                best
            }
        };
        let e = todo.remove(pos);
        let next = match acc {
            None => atom_rels[e].clone(),
            Some(r) => r.natural_join(&atom_rels[e])?,
        };
        ctx.charge_tuples(ENGINE, next.len() as u64)?;
        acc = Some(next);
    }
    let joined = acc.expect("decomposition nodes have nonempty covers");
    let keep: Vec<String> = node
        .bag
        .iter()
        .map(|&v| plan.hg.label(v).to_string())
        .collect();
    let bag_rel = joined.project_onto(&keep);
    ctx.charge_tuples(ENGINE, bag_rel.len() as u64)?;
    Ok(bag_rel)
}

/// Materialize the decomposition's bags for `(q, db)`: the *bag hypergraph*
/// (one edge per decomposition node, labelled by the bag's variables), the
/// bag join tree, and the bag relations in node order.
///
/// This is step 1 of the evaluator, exposed so other sweeps — notably the
/// counting engine in `pq-count` — can run over the same bags without
/// re-deriving the decomposition plumbing. The bag tree is a join tree over
/// the bag hypergraph, so any algorithm for acyclic instances applies to the
/// returned triple.
pub fn materialize_bags_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    d: &HypertreeDecomposition,
    ctx: &ExecutionContext,
) -> Result<(Hypergraph, JoinTree, Vec<Relation>)> {
    if !q.is_pure() {
        return Err(EngineError::Unsupported(
            "hypertree engine handles pure CQs; use the color-coding engine for ≠".into(),
        ));
    }
    let plan = plan_bags(q, d)?;
    let atom_rels = atom_relations(q, db, ctx)?;
    let nodes: Vec<usize> = (0..d.num_nodes()).collect();
    let rels = ctx.try_run(&nodes, |ctx, _, &i| {
        materialize_bag(d, &plan, &atom_rels, i, ctx)
    })?;
    Ok((plan.bags, plan.tree, rels))
}

/// Emptiness by one bottom-up semijoin pass over the bag tree; polynomial in
/// the input alone for fixed width.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    if q.atoms.is_empty() {
        return Ok(true); // vacuous body
    }
    let d = prepare(q)?;
    is_nonempty_decomposed(q, db, &d, ctx)
}

/// [`is_nonempty`] with a caller-supplied decomposition (the planner reuses
/// the one the analyzer attached to its report).
pub fn is_nonempty_decomposed(
    q: &ConjunctiveQuery,
    db: &Database,
    d: &HypertreeDecomposition,
    ctx: &ExecutionContext,
) -> Result<bool> {
    if q.atoms.is_empty() {
        return Ok(true);
    }
    let (_bags, tree, mut rels) = materialize_bags_governed(q, db, d, ctx)?;
    upward_pass(&tree, &mut rels, ctx, ENGINE)
}

/// The decision problem: `t ∈ Q(d)`? Binding the head may change the
/// hypergraph (bound variables become constants), so the bound query is
/// re-decomposed from scratch.
pub fn decide(q: &ConjunctiveQuery, db: &Database, t: &Tuple) -> Result<bool> {
    decide_governed(q, db, t, &ExecutionContext::unlimited())
}

/// [`decide`] under the resource limits of `ctx`.
pub fn decide_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    t: &Tuple,
    ctx: &ExecutionContext,
) -> Result<bool> {
    match q.bind_head(t)? {
        None => Ok(false),
        Some(bq) => is_nonempty_governed(&bq, db, ctx),
    }
}

/// Full evaluation, polynomial in input + output for fixed width.
///
/// ```
/// use pq_data::{tuple, Database};
/// use pq_query::parse_cq;
///
/// let mut db = Database::new();
/// db.add_table(
///     "E",
///     ["a", "b"],
///     [tuple![1, 2], tuple![2, 3], tuple![3, 1], tuple![3, 4]],
/// )
/// .unwrap();
/// let q = parse_cq("G(x) :- E(x, y), E(y, z), E(z, x).").unwrap();
/// let out = pq_engine::hypertree::evaluate(&q, &db).unwrap();
/// assert_eq!(out.len(), 3); // the 1-2-3 triangle, from each corner
/// ```
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`: bag materialization
/// ticks per cover join and charges every intermediate relation, so a bag
/// blowing past the budget stops the query instead of exhausting memory.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q, [])?;
    if q.atoms.is_empty() {
        return vacuous_output(q);
    }
    let d = prepare(q)?;
    evaluate_decomposed(q, db, &d, ctx)
}

/// [`evaluate`] with a caller-supplied decomposition.
pub fn evaluate_decomposed(
    q: &ConjunctiveQuery,
    db: &Database,
    d: &HypertreeDecomposition,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q, [])?;
    if q.atoms.is_empty() {
        return vacuous_output(q);
    }
    let (bags, tree, mut rels) = materialize_bags_governed(q, db, d, ctx)?;
    reduce_and_join(q, &bags, &tree, &mut rels, ctx, ENGINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pq_data::tuple;
    use pq_query::parse_cq;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "E",
            ["a", "b"],
            [
                tuple![1, 2],
                tuple![2, 3],
                tuple![3, 1],
                tuple![3, 4],
                tuple![4, 5],
                tuple![5, 3],
                tuple![1, 4],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn triangle_query_agrees_with_naive() {
        let q = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let db = triangle_db();
        let h = evaluate(&q, &db).unwrap();
        let n = naive::evaluate(&q, &db).unwrap();
        assert_eq!(h, n);
        assert!(!h.is_empty());
    }

    #[test]
    fn cycle_of_length_six_agrees_with_naive() {
        let mut db = Database::new();
        let mut rows = Vec::new();
        for i in 0..14i64 {
            rows.push(tuple![i % 5, (i * 3 + 1) % 5]);
        }
        db.add_table("E", ["a", "b"], rows).unwrap();
        let q = parse_cq(
            "G(x0, x3) :- E(x0, x1), E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5), E(x5, x0).",
        )
        .unwrap();
        let h = evaluate(&q, &db).unwrap();
        let n = naive::evaluate(&q, &db).unwrap();
        assert_eq!(h, n);
    }

    #[test]
    fn boolean_triangle_and_emptiness() {
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let db = triangle_db();
        assert!(is_nonempty(&q, &db).unwrap());
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);

        // A triangle-free database: the DAG 1→2→3, 1→3.
        let mut dag = Database::new();
        dag.add_table("E", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![1, 3]])
            .unwrap();
        assert!(!is_nonempty(&q, &dag).unwrap());
        assert!(evaluate(&q, &dag).unwrap().is_empty());
    }

    #[test]
    fn acyclic_queries_are_width_one_and_supported() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3]])
            .unwrap();
        db.add_table("S", ["b", "c"], [tuple![2, 9]]).unwrap();
        let q = parse_cq("G(x, c) :- R(x, y), S(y, c).").unwrap();
        let h = evaluate(&q, &db).unwrap();
        let n = naive::evaluate(&q, &db).unwrap();
        assert_eq!(h, n);
        assert!(h.contains(&tuple![1, 9]));
    }

    #[test]
    fn decision_problem_on_the_triangle() {
        let q = parse_cq("G(x) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let db = triangle_db();
        assert!(decide(&q, &db, &tuple![1]).unwrap());
        assert!(!decide(&q, &db, &tuple![9]).unwrap()); // 9 is not a vertex at all
    }

    #[test]
    fn impure_query_rejected() {
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x), x != y.").unwrap();
        let db = triangle_db();
        assert!(matches!(
            evaluate(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn width_above_the_limit_is_rejected_for_fallback() {
        // K7 as 21 binary atoms: past the exact gate, heuristic width 4 > 3.
        let mut atoms = Vec::new();
        for i in 0..7 {
            for j in (i + 1)..7 {
                atoms.push(format!("E(v{i}, v{j})"));
            }
        }
        let q = parse_cq(&format!("G :- {}.", atoms.join(", "))).unwrap();
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![1, 2]]).unwrap();
        assert!(matches!(
            evaluate(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn constants_and_constant_only_atoms() {
        let mut db = Database::new();
        db.add_table(
            "E",
            ["a", "b"],
            [tuple![1, 2], tuple![2, 3], tuple![3, 1], tuple![2, 1]],
        )
        .unwrap();
        db.add_table("Flag", ["f"], [tuple![1]]).unwrap();
        // Constant in a cyclic atom + a constant-only guard atom.
        let q = parse_cq("G(y, z) :- E(1, y), E(y, z), E(z, 1), Flag(1).").unwrap();
        let h = evaluate(&q, &db).unwrap();
        let n = naive::evaluate(&q, &db).unwrap();
        assert_eq!(h, n);

        // Empty the guard: output must empty too.
        let mut db2 = db.clone();
        db2.set_relation("Flag", Relation::new(["f"]).unwrap());
        assert!(evaluate(&q, &db2).unwrap().is_empty());
        assert_eq!(
            naive::evaluate(&q, &db2).unwrap(),
            evaluate(&q, &db2).unwrap()
        );
    }

    #[test]
    fn parallel_matches_serial_at_one_and_four_threads() {
        let q = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let db = triangle_db();
        let serial = evaluate(&q, &db).unwrap();
        for threads in [1, 4] {
            let ctx = || ExecutionContext::unlimited().with_pool(&pq_exec::Pool::new(threads));
            let par = evaluate_governed(&q, &db, &ctx()).unwrap();
            assert_eq!(serial, par, "threads={threads}");
            assert!(is_nonempty_governed(&q, &db, &ctx()).unwrap());
        }
    }

    #[test]
    fn budget_exhaustion_names_this_engine() {
        let q = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let db = triangle_db();
        let ctx = ExecutionContext::new().with_tuple_budget(2);
        match evaluate_governed(&q, &db, &ctx) {
            Err(EngineError::ResourceExhausted { engine, .. }) => {
                // Atom scans charge under the yannakakis helper; bag joins
                // charge under this engine. Either way the query stops.
                assert!(engine == "hypertree" || engine == "yannakakis");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }
}
