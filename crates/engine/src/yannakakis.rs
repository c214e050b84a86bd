//! The Yannakakis algorithm for *pure* acyclic conjunctive queries \[18\] —
//! the classical tractability result that Theorem 2 generalizes.
//!
//! Evaluation runs in time polynomial in the input database *and the output*
//! (Section 5: "If Q is acyclic, this evaluation can be done in time
//! polynomial in the size of the input database d and the output Q(d)").
//! Emptiness and decision need only the bottom-up semijoin pass and are
//! polynomial in the input alone.

use pq_data::{Database, Relation, Tuple};
use pq_hypergraph::{join_tree, Hypergraph, JoinTree};
use pq_query::{Atom, ConjunctiveQuery, Term};

use crate::binding::{check_safety, head_output, vacuous_output};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;
use crate::sweep::{fold_up, keep_lists, push_down};

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "yannakakis";

/// Per-atom relation `S_j = π_{U_j} σ_{F_j}(R_{i_j})` of Section 5: the
/// instantiations of the atom's variables that map it into the database.
/// The selection enforces (i) the atom's constants and (ii) equalities
/// between positions holding the same variable; the projection keeps one
/// column per variable, named by the variable.
///
/// When the atom's terms are distinct variables, σ is the identity and π a
/// renaming, so `S_j` is `R_{i_j}` under the variables' names: it shares
/// the database's rows ([`Relation::with_attrs`]) instead of copying them.
/// Either way the scan ticks once per source tuple and charges once per
/// tuple kept.
pub fn atom_relation(atom: &Atom, db: &Database) -> Result<Relation> {
    atom_relation_governed(atom, db, &ExecutionContext::unlimited())
}

/// [`atom_relation`] under the resource limits of `ctx`: the scan ticks per
/// source tuple and every kept instantiation is charged against the budget.
pub fn atom_relation_governed(
    atom: &Atom,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    let r = db.relation(&atom.relation)?;
    if r.arity() != atom.arity() {
        return Err(EngineError::Unsupported(format!(
            "atom {atom} has arity {} but relation `{}` has arity {}",
            atom.arity(),
            atom.relation,
            r.arity()
        )));
    }
    let vars = atom.variables();
    ctx.note_atom();
    if vars.len() == atom.arity() {
        // Distinct variables: share `r`'s rows. The scan still ticks and
        // charges per row, as below, so counted work and the points where a
        // budget or an injected fault trips do not depend on the path.
        for _ in r.iter() {
            ctx.tick(ENGINE)?;
            ctx.charge_tuples(ENGINE, 1)?;
        }
        return Ok(r.with_attrs(vars)?);
    }
    let mut out = Relation::new(vars.iter().map(|v| v.to_string()))?;
    'tuples: for t in r.iter() {
        ctx.tick(ENGINE)?;
        let mut vals: Vec<Option<&pq_data::Value>> = vec![None; vars.len()];
        for (pos, term) in atom.terms.iter().enumerate() {
            match term {
                Term::Const(c) => {
                    if c != &t[pos] {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => {
                    let vi = vars.iter().position(|w| w == v).expect("var interned");
                    match vals[vi] {
                        None => vals[vi] = Some(&t[pos]),
                        Some(prev) => {
                            if prev != &t[pos] {
                                continue 'tuples;
                            }
                        }
                    }
                }
            }
        }
        let tup = Tuple::new(
            vals.into_iter()
                .map(|v| v.expect("every var filled").clone()),
        );
        ctx.charge_tuples(ENGINE, 1)?;
        out.insert(tup)?;
    }
    Ok(out)
}

/// Precondition checks shared by the entry points; returns the join tree.
fn prepare(q: &ConjunctiveQuery) -> Result<(Hypergraph, JoinTree)> {
    if !q.is_pure() {
        return Err(EngineError::Unsupported(
            "Yannakakis engine handles pure acyclic CQs; use the color-coding engine for ≠".into(),
        ));
    }
    let hg = q.hypergraph();
    let tree = join_tree(&hg)
        .ok_or_else(|| EngineError::Unsupported(format!("query is not acyclic: {q}")))?;
    Ok((hg, tree))
}

/// The per-atom relations `S_j` of the query, in atom order; one fan-out
/// task per atom.
pub fn atom_relations(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Vec<Relation>> {
    ctx.try_run(&q.atoms, |ctx, _, a| atom_relation_governed(a, db, ctx))
}

/// Emptiness: one bottom-up semijoin pass. `O(n log n)` per join level;
/// polynomial in the input alone.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`, at the degree of the
/// pool `ctx` carries (same answer and same budget charges at any degree).
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    if q.atoms.is_empty() {
        return Ok(true); // vacuous body
    }
    let (_hg, tree) = prepare(q)?;
    let mut rels = atom_relations(q, db, ctx)?;
    upward_pass(&tree, &mut rels, ctx, ENGINE)
}

/// The decision problem: `t ∈ Q(d)`?
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

/// Full evaluation of an acyclic pure CQ, time polynomial in input + output.
///
/// ```
/// use pq_data::{tuple, Database};
/// use pq_query::parse_cq;
///
/// let mut db = Database::new();
/// db.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3]]).unwrap();
/// db.add_table("S", ["b", "c"], [tuple![2, 9]]).unwrap();
/// let q = parse_cq("G(x, c) :- R(x, y), S(y, c).").unwrap();
/// let out = pq_engine::yannakakis::evaluate(&q, &db).unwrap();
/// assert!(out.contains(&tuple![1, 9]));
/// ```
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`: the passes are steps of
/// [`crate::sweep`], which ticks per tree edge and charges every
/// intermediate relation they build, so runaway join phases stop at the
/// budget instead of exhausting memory, and which fans them out on the pool
/// `ctx` carries with the same relations and charges at any degree.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q, [])?;
    if q.atoms.is_empty() {
        return vacuous_output(q);
    }
    let (hg, tree) = prepare(q)?;
    let mut rels = atom_relations(q, db, ctx)?;
    reduce_and_join(q, &hg, &tree, &mut rels, ctx, ENGINE)
}

/// Section 5's algorithm after the per-node relations exist: the upward
/// reducer, then [`join_reduced`], then the head. `hg`'s edges are the nodes
/// of `tree` — the query hypergraph and its join tree here, the bag
/// hypergraph and the decomposition tree in the hypertree engine, which
/// names itself in exhaustion errors via `engine`.
pub(crate) fn reduce_and_join(
    q: &ConjunctiveQuery,
    hg: &Hypergraph,
    tree: &JoinTree,
    rels: &mut [Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<Relation> {
    let z: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
    let star = if upward_pass(tree, rels, ctx, engine)? {
        let keep = keep_lists(hg, tree, &z);
        join_reduced(tree, &keep, rels, ctx, engine)?
    } else {
        Relation::new(z)?
    };
    head_output(q, &star, ctx, engine)
}

/// Upward semijoin pass (full-reducer half 1): `P_u := P_u ⋉ P_j`. `false`
/// when some relation is, or is left, empty — then `Q(d)` is.
pub(crate) fn upward_pass(
    tree: &JoinTree,
    rels: &mut [Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<bool> {
    fold_up(tree, rels, ctx, engine, |ctx, parent, child, _| {
        Ok((parent.par_semijoin(child, ctx.pool()), 0))
    })
}

/// The output-join step `P_u ⋈ π_keep(P_j)` and the size of the projection.
pub(crate) fn join_projected(
    ctx: &ExecutionContext,
    parent: &Relation,
    child: &Relation,
    keep: &[String],
) -> Result<(Relation, usize)> {
    let projected = child.project_onto(keep);
    let joined = parent.par_natural_join(&projected, ctx.pool())?;
    Ok((joined, projected.len()))
}

/// The tail every enumerating sweep shares once no tuple of a parent lacks a
/// partner in a child — after [`upward_pass`], or after Algorithm 1, which
/// joined every child into its parent: the downward semijoin pass
/// `P_j := P_j ⋉ P_u` (full-reducer half 2, removes dangling tuples, so no
/// intermediate exceeds the input + output bound), the bottom-up output
/// join `P_u := P_u ⋈ π_{keep[j]}(P_j)`, and `P* = π_Z(P_root)`, where `keep` is [`keep_lists`] for `Z`. This *is*
/// Algorithm 2 when the nodes are color coding's `P_j`.
///
/// `rels` is borrowed, not consumed: the caller drops the node relations
/// after it has built the answer from `P*`. An answer allocated into the
/// holes they leave stays interleaved with later evaluations' intermediates
/// for as long as a cache keeps it, which cost `wire-write` 9 % of its
/// throughput when this function took them by value.
pub(crate) fn join_reduced(
    tree: &JoinTree,
    keep: &[Vec<String>],
    rels: &mut [Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<Relation> {
    let alive = push_down(tree, rels, ctx, engine, |ctx, node, parent, _| {
        Ok::<_, EngineError>(node.par_semijoin(parent, ctx.pool()))
    })? && fold_up(tree, rels, ctx, engine, |ctx, parent, child, j| {
        join_projected(ctx, parent, child, &keep[j])
    })?;
    let z: Vec<&str> = keep[tree.root()].iter().map(String::as_str).collect();
    let star = if alive {
        rels[tree.root()].project(&z)?
    } else {
        Relation::new(z)?
    };
    ctx.charge_tuples(engine, star.len() as u64)?;
    Ok(star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pq_data::tuple;
    use pq_query::parse_cq;

    fn chain_db() -> Database {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![4, 5]])
            .unwrap();
        db.add_table(
            "S",
            ["b", "c"],
            [tuple![2, 10], tuple![3, 20], tuple![5, 30]],
        )
        .unwrap();
        db.add_table("T", ["c", "d"], [tuple![10, 100], tuple![20, 200]])
            .unwrap();
        db
    }

    #[test]
    fn chain_query_agrees_with_naive() {
        let q = parse_cq("G(x, w) :- R(x, y), S(y, z), T(z, w).").unwrap();
        let db = chain_db();
        let y = evaluate(&q, &db).unwrap();
        let n = naive::evaluate(&q, &db).unwrap();
        assert_eq!(y, n);
        assert_eq!(y.len(), 2); // (1,100), (2,200)
    }

    #[test]
    fn emptiness_detects_dangling_chains() {
        let q = parse_cq("G :- R(x, y), S(y, z), T(z, w).").unwrap();
        let db = chain_db();
        assert!(is_nonempty(&q, &db).unwrap());
        // Remove T tuples: chain cannot complete.
        let mut db2 = db.clone();
        db2.set_relation("T", Relation::new(["c", "d"]).unwrap());
        assert!(!is_nonempty(&q, &db2).unwrap());
    }

    #[test]
    fn star_query() {
        let mut db = Database::new();
        db.add_table("P", ["c", "x"], [tuple![1, 10], tuple![2, 20]])
            .unwrap();
        db.add_table("Q", ["c", "y"], [tuple![1, 11], tuple![1, 12]])
            .unwrap();
        db.add_table("W", ["c", "z"], [tuple![1, 13]]).unwrap();
        let q = parse_cq("G(c) :- P(c, x), Q(c, y), W(c, z).").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn cyclic_query_rejected() {
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![1, 2]]).unwrap();
        assert!(matches!(
            evaluate(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn impure_query_rejected() {
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let mut db = Database::new();
        db.add_table("EP", ["e", "p"], []).unwrap();
        assert!(matches!(
            evaluate(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn constants_and_repeated_vars_in_atoms() {
        let mut db = Database::new();
        db.add_table(
            "R",
            ["a", "b", "c"],
            [tuple![1, 1, 5], tuple![1, 2, 5], tuple![2, 2, 7]],
        )
        .unwrap();
        let q = parse_cq("G(x) :- R(x, x, 5).").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn decision_problem() {
        let q = parse_cq("G(x, w) :- R(x, y), S(y, z), T(z, w).").unwrap();
        let db = chain_db();
        assert!(decide(&q, &db, &tuple![1, 100]).unwrap());
        assert!(!decide(&q, &db, &tuple![4, 100]).unwrap());
    }

    #[test]
    fn boolean_head_constant_output() {
        // Head with constants only.
        let q = parse_cq("G(7) :- R(x, y).").unwrap();
        let db = chain_db();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![7]));
    }

    #[test]
    fn distinct_variable_atom_reads_the_relation_in_place() {
        let mut db = chain_db();
        db.add_table("Q", ["a", "b"], [tuple![1, 1], tuple![1, 2], tuple![3, 3]])
            .unwrap();
        let r = db.relation("Q").unwrap();
        let ctx = ExecutionContext::new();
        let s = atom_relation_governed(&pq_query::atom!("Q"; var "x", var "y"), &db, &ctx).unwrap();
        assert_eq!(s, r.with_attrs(["x", "y"]).unwrap());
        assert!(std::ptr::eq(s.tuples().as_ptr(), r.tuples().as_ptr()));
        assert_eq!((ctx.ticks(), ctx.tuples_materialized()), (3, 3));

        // A repeated variable or a constant still selects, row by row.
        let ctx = ExecutionContext::new();
        let diag =
            atom_relation_governed(&pq_query::atom!("Q"; var "x", var "x"), &db, &ctx).unwrap();
        assert_eq!(diag.attrs(), ["x"]);
        assert_eq!(diag.canonical_rows(), [tuple![1], tuple![3]]);
        assert_eq!((ctx.ticks(), ctx.tuples_materialized()), (3, 2));
        let ctx = ExecutionContext::new();
        let fixed =
            atom_relation_governed(&pq_query::atom!("Q"; val 1, var "y"), &db, &ctx).unwrap();
        assert_eq!(fixed.attrs(), ["y"]);
        assert_eq!(fixed.canonical_rows(), [tuple![1], tuple![2]]);
        assert_eq!((ctx.ticks(), ctx.tuples_materialized()), (3, 2));
    }

    #[test]
    fn atom_relation_arity_mismatch_errors() {
        let db = chain_db();
        let a = pq_query::atom!("R"; var "x");
        assert!(matches!(
            atom_relation(&a, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn random_acyclic_queries_agree_with_naive() {
        // A few handcrafted acyclic shapes over a random-ish database.
        let mut db = Database::new();
        let mut rows_r = Vec::new();
        let mut rows_s = Vec::new();
        let mut rows_t = Vec::new();
        for i in 0..20i64 {
            rows_r.push(tuple![i % 5, (i * 3) % 7]);
            rows_s.push(tuple![(i * 3) % 7, i % 4]);
            rows_t.push(tuple![i % 4, i % 3, (i * 2) % 5]);
        }
        db.add_table("R", ["a", "b"], rows_r).unwrap();
        db.add_table("S", ["b", "c"], rows_s).unwrap();
        db.add_table("T", ["c", "d", "e"], rows_t).unwrap();
        for src in [
            "G(x) :- R(x, y).",
            "G(x, z) :- R(x, y), S(y, z).",
            "G(x, w) :- R(x, y), S(y, z), T(z, w, u).",
            "G :- R(x, y), S(y, z), T(z, w, u), R(x, y2).",
            "G(u) :- T(z, w, u), S(y, z).",
        ] {
            let q = parse_cq(src).unwrap();
            assert!(q.is_acyclic(), "{src}");
            let a = evaluate(&q, &db).unwrap();
            let b = naive::evaluate(&q, &db).unwrap();
            assert_eq!(a, b, "{src}");
        }
    }
}
