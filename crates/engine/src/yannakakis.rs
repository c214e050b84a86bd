//! The Yannakakis algorithm for *pure* acyclic conjunctive queries \[18\] —
//! the classical tractability result that Theorem 2 generalizes.
//!
//! Evaluation runs in time polynomial in the input database *and the output*
//! (Section 5: "If Q is acyclic, this evaluation can be done in time
//! polynomial in the size of the input database d and the output Q(d)").
//! Emptiness and decision need only the bottom-up semijoin pass and are
//! polynomial in the input alone.

use std::collections::BTreeSet;

use pq_data::{Database, Relation, Tuple};
use pq_hypergraph::{join_tree, Hypergraph, JoinTree};
use pq_query::{Atom, ConjunctiveQuery, Term};

use crate::binding::head_attrs;
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "yannakakis";

/// Options for [`evaluate_with_options`]; the default runs the full
/// Yannakakis pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Run the top-down semijoin pass that removes dangling tuples before
    /// the output join phase. Disabling it is still *correct* (the upward
    /// joins re-filter), but intermediate results can exceed the
    /// input+output bound — this is ablation A3 of DESIGN.md.
    pub downward_pass: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            downward_pass: true,
        }
    }
}

/// Per-atom relation `S_j = π_{U_j} σ_{F_j}(R_{i_j})` of Section 5: the
/// instantiations of the atom's variables that map it into the database.
/// The selection enforces (i) the atom's constants and (ii) equalities
/// between positions holding the same variable; the projection keeps one
/// column per variable, named by the variable.
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
    Ok(upward_pass(&tree, &mut rels, ctx, ENGINE)? && !rels[tree.root()].is_empty())
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

/// Full evaluation with default options.
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
    evaluate_with_options(q, db, EvalOptions::default())
}

/// [`evaluate`] under the resource limits of `ctx`.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    evaluate_with_options_governed(q, db, EvalOptions::default(), ctx)
}

/// Full evaluation of an acyclic pure CQ, time polynomial in input + output.
pub fn evaluate_with_options(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: EvalOptions,
) -> Result<Relation> {
    evaluate_with_options_governed(q, db, opts, &ExecutionContext::unlimited())
}

/// [`evaluate_with_options`] under the resource limits of `ctx`: semijoin
/// passes tick per tree node and charge every intermediate relation they
/// rebuild, so runaway join phases stop at the budget instead of exhausting
/// memory. The passes fan out on the pool `ctx` carries and produce the same
/// relation at any degree: the level schedule is a valid bottom-up order,
/// each parent applies its children in child order, and single-parent
/// levels use the deterministic data-parallel kernels.
pub fn evaluate_with_options_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: EvalOptions,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    // Safety: head variables must occur in the body.
    let body_vars: BTreeSet<&str> = q.atom_variables().into_iter().collect();
    for v in q.head_variables() {
        if !body_vars.contains(v) {
            return Err(EngineError::Query(
                pq_query::QueryError::UnsafeHeadVariable(v.to_string()),
            ));
        }
    }
    if q.atoms.is_empty() {
        // Vacuously true Boolean query (head vars would be unsafe above).
        let mut out = Relation::new(head_attrs(&q.head_terms))?;
        out.insert(Tuple::default())?;
        return Ok(out);
    }

    let (hg, tree) = prepare(q)?;
    let mut rels = atom_relations(q, db, ctx)?;
    reduce_and_join(q, &hg, &tree, &mut rels, opts, ctx, ENGINE)
}

/// Section 5's algorithm after the per-node relations exist: upward
/// semijoins, downward semijoins, bottom-up join-and-project, head
/// projection. `hg`'s edges are the nodes of `tree` — the query hypergraph
/// and its join tree here, the bag hypergraph and the decomposition tree in
/// the hypertree engine, which names itself in exhaustion errors via
/// `engine`.
pub(crate) fn reduce_and_join(
    q: &ConjunctiveQuery,
    hg: &Hypergraph,
    tree: &JoinTree,
    rels: &mut [Relation],
    opts: EvalOptions,
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<Relation> {
    let empty = || Ok(Relation::new(head_attrs(&q.head_terms))?);

    // Upward semijoin pass (full-reducer half 1).
    if !upward_pass(tree, rels, ctx, engine)? || rels[tree.root()].is_empty() {
        return empty();
    }
    // Downward semijoin pass (full-reducer half 2) — removes dangling tuples.
    if opts.downward_pass {
        downward_pass(tree, rels, ctx, engine)?;
    }
    // Bottom-up join + project onto the output variables Z.
    let z: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
    if !output_join(hg, tree, rels, &z, ctx, engine)? {
        return empty();
    }

    // Project the root onto Z and materialize the head terms.
    let z_refs: Vec<&str> = z.iter().map(String::as_str).collect();
    let star = rels[tree.root()].project(&z_refs)?;
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    ctx.charge_tuples(engine, star.len() as u64)?;
    for t in star.iter() {
        ctx.tick(engine)?;
        let vals = q.head_terms.iter().map(|term| match term {
            Term::Const(c) => c.clone(),
            Term::Var(v) => {
                let pos = star.attr_pos(v).expect("head var in Z");
                t[pos].clone()
            }
        });
        out.insert(Tuple::new(vals))?;
    }
    Ok(out)
}

/// Variables `Z_j = (U_j ∩ U_u) ∪ (Z ∩ at(T[j]))` kept when the subtree
/// rooted at `j` is joined into its parent `u` (Section 5's output join).
/// Shared with the hypertree engine, which runs the same output join over
/// its bag hypergraph, and with the counting sweep in `pq-count`.
pub fn zj_vars(hg: &Hypergraph, tree: &JoinTree, j: usize, u: usize, z: &[String]) -> Vec<String> {
    let u_j: BTreeSet<&str> = hg.edge(j).iter().map(|&v| hg.label(v)).collect();
    let u_u: BTreeSet<&str> = hg.edge(u).iter().map(|&v| hg.label(v)).collect();
    let subtree: BTreeSet<&str> = tree
        .subtree_vertices(hg, j)
        .iter()
        .map(|&v| hg.label(v))
        .collect();
    let mut zj: Vec<String> = Vec::new();
    for v in u_j.intersection(&u_u) {
        zj.push((*v).to_string());
    }
    for v in z {
        if subtree.contains(v.as_str()) && !zj.contains(v) {
            zj.push(v.clone());
        }
    }
    zj
}

/// Nodes of `tree` grouped by depth: `levels(t)[0]` is the root, deeper
/// levels follow. Processing levels deepest-first is a valid bottom-up
/// schedule (every node's children are reduced one level earlier), and all
/// semijoins *within* one level touch distinct parents, so they can run
/// concurrently; that is the schedule the passes below (and the counting
/// sweep in `pq-count`) use.
pub fn levels(tree: &JoinTree) -> Vec<Vec<usize>> {
    let mut depth = vec![0usize; tree.num_nodes()];
    for j in tree.top_down() {
        if let Some(u) = tree.parent(j) {
            depth[j] = depth[u] + 1;
        }
    }
    let maxd = depth.iter().copied().max().unwrap_or(0);
    let mut lv: Vec<Vec<usize>> = vec![Vec::new(); maxd + 1];
    for (j, &d) in depth.iter().enumerate() {
        lv[d].push(j);
    }
    lv
}

/// The nodes of level `d - 1` that have children (all of which sit on level
/// `d`): the units of work of one bottom-up step.
fn parents_above(tree: &JoinTree, lv: &[Vec<usize>], d: usize) -> Vec<usize> {
    lv[d - 1]
        .iter()
        .copied()
        .filter(|&u| !tree.children(u).is_empty())
        .collect()
}

/// Bottom-up semijoin pass scheduled level-by-level: every parent of a level
/// reduces as one fan-out task, applying its children in child order, so
/// intermediate relations — and hence budget charges — are the same at any
/// degree. Returns `false` as soon as a non-root relation is found empty. A
/// level with a single parent (e.g. every level of a chain query) instead
/// runs the data-parallel semijoin kernel, which is byte-identical to the
/// serial one.
pub(crate) fn upward_pass(
    tree: &JoinTree,
    rels: &mut [Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<bool> {
    let lv = levels(tree);
    for d in (1..lv.len()).rev() {
        let parents = parents_above(tree, &lv, d);
        if let [u] = parents[..] {
            for &j in tree.children(u) {
                ctx.tick(engine)?;
                if rels[j].is_empty() {
                    return Ok(false);
                }
                rels[u] = rels[u].par_semijoin(&rels[j], ctx.pool());
                ctx.charge_tuples(engine, rels[u].len() as u64)?;
            }
        } else {
            let snapshot: &[Relation] = rels;
            let reduced: Vec<(Relation, bool)> = ctx.try_run(&parents, |ctx, _, &u| {
                let mut cur: Option<Relation> = None;
                let mut dead = false;
                for &j in tree.children(u) {
                    ctx.tick(engine)?;
                    dead |= snapshot[j].is_empty();
                    let next = cur.as_ref().unwrap_or(&snapshot[u]).semijoin(&snapshot[j]);
                    ctx.charge_tuples(engine, next.len() as u64)?;
                    cur = Some(next);
                }
                Ok::<_, EngineError>((cur.expect("parents have children"), dead))
            })?;
            let mut any_dead = false;
            for (&u, (cur, dead)) in parents.iter().zip(reduced) {
                any_dead |= dead;
                rels[u] = cur;
            }
            if any_dead {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Top-down semijoin pass, level-by-level: every node of a level reads only
/// its (already-reduced) parent one level up, so a whole level fans out.
fn downward_pass(
    tree: &JoinTree,
    rels: &mut [Relation],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<()> {
    let lv = levels(tree);
    for nodes in lv.iter().skip(1) {
        if let [j] = nodes[..] {
            let u = tree.parent(j).expect("non-root level");
            ctx.tick(engine)?;
            rels[j] = rels[j].par_semijoin(&rels[u], ctx.pool());
            ctx.charge_tuples(engine, rels[j].len() as u64)?;
        } else {
            let snapshot: &[Relation] = rels;
            let reduced: Vec<Relation> = ctx.try_run(nodes, |ctx, _, &j| {
                let u = tree.parent(j).expect("non-root level");
                ctx.tick(engine)?;
                let out = snapshot[j].semijoin(&snapshot[u]);
                ctx.charge_tuples(engine, out.len() as u64)?;
                Ok::<_, EngineError>(out)
            })?;
            for (&j, out) in nodes.iter().zip(reduced) {
                rels[j] = out;
            }
        }
    }
    Ok(())
}

/// Bottom-up join + project phase: `P_u := P_u ⋈ π_{Z_j}(P_j)` with
/// `Z_j` from [`zj_vars`], scheduled level-by-level like [`upward_pass`]
/// (levels join into distinct parents concurrently). Returns `false` as
/// soon as an intermediate relation empties — the caller's output is empty.
fn output_join(
    hg: &Hypergraph,
    tree: &JoinTree,
    rels: &mut [Relation],
    z: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<bool> {
    let lv = levels(tree);
    for d in (1..lv.len()).rev() {
        let parents = parents_above(tree, &lv, d);
        if let [u] = parents[..] {
            for &j in tree.children(u) {
                ctx.tick(engine)?;
                let projected = rels[j].project_onto(&zj_vars(hg, tree, j, u, z));
                rels[u] = rels[u].par_natural_join(&projected, ctx.pool())?;
                ctx.charge_tuples(engine, (projected.len() + rels[u].len()) as u64)?;
            }
        } else {
            let snapshot: &[Relation] = rels;
            let joined: Vec<Relation> = ctx.try_run(&parents, |ctx, _, &u| {
                let mut cur: Option<Relation> = None;
                for &j in tree.children(u) {
                    ctx.tick(engine)?;
                    let projected = snapshot[j].project_onto(&zj_vars(hg, tree, j, u, z));
                    let next = cur
                        .as_ref()
                        .unwrap_or(&snapshot[u])
                        .natural_join(&projected)?;
                    ctx.charge_tuples(engine, (projected.len() + next.len()) as u64)?;
                    cur = Some(next);
                }
                Ok::<_, EngineError>(cur.expect("parents have children"))
            })?;
            for (&u, cur) in parents.iter().zip(joined) {
                rels[u] = cur;
            }
        }
        if parents.iter().any(|&u| rels[u].is_empty()) {
            return Ok(false);
        }
    }
    Ok(true)
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
    fn skipping_downward_pass_is_still_correct() {
        let q = parse_cq("G(x, w) :- R(x, y), S(y, z), T(z, w).").unwrap();
        let db = chain_db();
        let with = evaluate_with_options(
            &q,
            &db,
            EvalOptions {
                downward_pass: true,
            },
        )
        .unwrap();
        let without = evaluate_with_options(
            &q,
            &db,
            EvalOptions {
                downward_pass: false,
            },
        )
        .unwrap();
        assert_eq!(with, without);
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
    fn atom_relation_arity_mismatch_errors() {
        let db = chain_db();
        let a = pq_query::atom!("R"; var "x");
        assert!(matches!(
            atom_relation(&a, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn levels_group_by_depth() {
        // 1 -> 0 <- 2, 3 -> 1  (root 0)
        let t = JoinTree::from_parents(vec![None, Some(0), Some(0), Some(1)]);
        assert_eq!(levels(&t), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn zj_vars_track_connecting_and_z_vars() {
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["y", "z"], vec!["z", "w"]]);
        // path 0 -> 1 -> 2, root 2
        let t = JoinTree::from_parents(vec![Some(1), Some(2), None]);
        // No tracked vars: just the connector.
        assert_eq!(zj_vars(&hg, &t, 0, 1, &[]), vec!["y".to_string()]);
        // Tracking x keeps it through the join even though the parent
        // lacks it.
        assert_eq!(
            zj_vars(&hg, &t, 0, 1, &["x".to_string()]),
            vec!["y".to_string(), "x".to_string()]
        );
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
