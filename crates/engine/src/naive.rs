//! The naive backtracking evaluator — the `n^q` baseline.
//!
//! This is the generic query-evaluation algorithm whose running time has the
//! query size "inherently in the exponent" (the paper's central observation
//! about data complexity: polynomial time in that setting means time `n^q`).
//! It handles the full extended conjunctive-query class — relational atoms,
//! `≠` atoms, and `<`/`≤` comparisons — and doubles as the ground-truth
//! oracle for testing every smarter engine in this workspace.

use std::collections::BTreeSet;

use std::ops::Range;

use pq_data::{Database, Relation, Tuple, Value};
use pq_query::{CmpOp, ConjunctiveQuery, QueryError, Term};

use crate::binding::{apply_term, bindings_to_output, Binding};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "naive";

/// Evaluate `Q(d)` by backtracking search. Time `O(n^{|atoms|})` in the
/// worst case — exactly the exponential dependence on the parameter that
/// Theorems 1 and 3 say is (likely) unavoidable in general.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`.
///
/// The search picks a first atom and scans its tuples in relation order,
/// exploring one subtree per tuple; those subtrees are independent, so when
/// `ctx` carries a pool the scan is split into contiguous chunks, each
/// searched as one fan-out task, and the per-chunk bindings are concatenated
/// in chunk order — reproducing the serial binding order (and therefore
/// **identical output**) at any thread count.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q)?;
    let rels = resolve(q, db)?;
    let Some((first, rows, chunks)) = first_atom_chunks(q, &rels, ctx) else {
        let mut bindings = Vec::new();
        search(q, &rels, ctx, &mut |b| {
            bindings.push(b.clone());
            true // keep searching
        })?;
        return bindings_to_output(q, bindings);
    };
    let parts: Vec<Vec<Binding>> = ctx.try_run(&chunks, |ctx, _, range| {
        let mut local = Vec::new();
        search_chunk(q, &rels, first, &rows[range.clone()], ctx, &mut |b| {
            local.push(b.clone());
            true
        })?;
        Ok::<_, EngineError>(local)
    })?;
    bindings_to_output(q, parts.concat())
}

/// Is `Q(d)` nonempty? Stops at the first satisfying instantiation.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`. With a pool on `ctx`
/// the first-atom chunks race ([`ExecutionContext::find_first`]): the first
/// witness wins and cancels the remaining chunks.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    // Emptiness does not require head safety (the head plays no role).
    let rels = resolve(q, db)?;
    let Some((first, rows, chunks)) = first_atom_chunks(q, &rels, ctx) else {
        let mut found = false;
        search(q, &rels, ctx, &mut |_| {
            found = true;
            false // stop
        })?;
        return Ok(found);
    };
    let hit = ctx.find_first(&chunks, |ctx, _, range| {
        let mut found = false;
        search_chunk(q, &rels, first, &rows[range.clone()], ctx, &mut |_| {
            found = true;
            false
        })?;
        Ok(found.then_some(()))
    })?;
    Ok(hit.is_some())
}

/// The decision problem of Section 3: is `t ∈ Q(d)`? Implemented exactly as
/// the paper prescribes — substitute the constants of `t` into the query and
/// test the resulting Boolean query.
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

/// Head and constraint variables must occur in relational atoms so that all
/// of them get bound by the search.
fn check_safety(q: &ConjunctiveQuery) -> Result<()> {
    let body: BTreeSet<&str> = q.atom_variables().into_iter().collect();
    for v in q.head_variables() {
        if !body.contains(v) {
            return Err(EngineError::Query(QueryError::UnsafeHeadVariable(
                v.to_string(),
            )));
        }
    }
    for v in q
        .neqs
        .iter()
        .flat_map(|n| n.variables())
        .chain(q.comparisons.iter().flat_map(|c| c.variables()))
    {
        if !body.contains(v) {
            return Err(EngineError::Query(QueryError::UnsafeConstraintVariable(
                v.to_string(),
            )));
        }
    }
    Ok(())
}

/// Check every constraint whose variables are all bound; constraints with
/// unbound variables are deferred (they will be re-checked when complete).
/// Constant-constant constraints (which arise from head substitution) are
/// decided immediately.
fn constraints_hold(q: &ConjunctiveQuery, b: &Binding) -> bool {
    for n in &q.neqs {
        if let (Some(l), Some(r)) = (apply_term(&n.left, b), apply_term(&n.right, b)) {
            if l == r {
                return false;
            }
        }
    }
    for c in &q.comparisons {
        if let (Some(l), Some(r)) = (apply_term(&c.left, b), apply_term(&c.right, b)) {
            if !c.op.eval(&l, &r) {
                return false;
            }
        }
    }
    true
}

/// Backtracking search over atom instantiations. `visit` is called on every
/// satisfying binding; returning `false` stops the search.
fn search(
    q: &ConjunctiveQuery,
    rels: &[&Relation],
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<()> {
    let mut binding = Binding::new();
    let mut used = vec![false; q.atoms.len()];
    recurse(q, rels, &mut used, &mut binding, ctx, visit)?;
    Ok(())
}

/// The greedy join-order rule: the unused atom with the most bound terms,
/// ties broken by smaller relation. Factored out so the fan-out
/// ([`first_atom_chunks`]) provably forces the *same* first atom the serial
/// search would pick.
fn pick_next(
    q: &ConjunctiveQuery,
    rels: &[&Relation],
    used: &[bool],
    binding: &Binding,
) -> Option<usize> {
    (0..q.atoms.len()).filter(|&i| !used[i]).max_by_key(|&i| {
        let bound = q.atoms[i]
            .terms
            .iter()
            .filter(|t| match t {
                Term::Var(v) => binding.contains_key(v),
                Term::Const(_) => true,
            })
            .count();
        (bound, usize::MAX - rels[i].len())
    })
}

/// One step of the search: unify atom `i` against tuple `t` under `binding`,
/// and on success (constraints permitting) recurse into the remaining atoms.
/// Returns the visitor's keep-going flag. The binding is restored before
/// returning.
#[allow(clippy::too_many_arguments)]
fn try_tuple(
    q: &ConjunctiveQuery,
    rels: &[&Relation],
    used: &mut [bool],
    binding: &mut Binding,
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
    i: usize,
    t: &Tuple,
) -> Result<bool> {
    let atom = &q.atoms[i];
    let mut newly_bound: Vec<&str> = Vec::new();
    for (pos, term) in atom.terms.iter().enumerate() {
        let val = &t[pos];
        match term {
            Term::Const(c) => {
                if c != val {
                    undo(binding, &newly_bound);
                    return Ok(true);
                }
            }
            Term::Var(v) => {
                if let Some(existing) = binding.get(v.as_str()) {
                    if existing != val {
                        undo(binding, &newly_bound);
                        return Ok(true);
                    }
                } else {
                    binding.insert(v.clone(), val.clone());
                    newly_bound.push(v);
                }
            }
        }
    }
    let keep_going = if constraints_hold(q, binding) {
        recurse(q, rels, used, binding, ctx, visit)?
    } else {
        true
    };
    undo(binding, &newly_bound);
    Ok(keep_going)
}

fn recurse(
    q: &ConjunctiveQuery,
    rels: &[&Relation],
    used: &mut [bool],
    binding: &mut Binding,
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<bool> {
    let _depth = ctx.recurse(ENGINE)?;
    let Some(i) = pick_next(q, rels, used, binding) else {
        // All atoms matched; constraints are fully bound by safety.
        ctx.charge_tuples(ENGINE, 1)?;
        return Ok(visit(binding));
    };

    used[i] = true;
    ctx.note_atom();
    for t in rels[i].iter() {
        ctx.tick(ENGINE)?;
        if !try_tuple(q, rels, used, binding, ctx, visit, i, t)? {
            used[i] = false;
            return Ok(false);
        }
    }
    used[i] = false;
    Ok(true)
}

/// Run the search over one contiguous chunk of the first atom's tuples.
/// Mirrors [`recurse`] with the first atom forced to `i` and its scan
/// restricted to `rows`; bindings are reported to `visit` in scan order.
fn search_chunk(
    q: &ConjunctiveQuery,
    rels: &[&Relation],
    first: usize,
    rows: &[&Tuple],
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<()> {
    let _depth = ctx.recurse(ENGINE)?;
    let mut used = vec![false; q.atoms.len()];
    let mut binding = Binding::new();
    used[first] = true;
    ctx.note_atom();
    for t in rows {
        ctx.tick(ENGINE)?;
        if !try_tuple(q, rels, &mut used, &mut binding, ctx, visit, first, t)? {
            return Ok(());
        }
    }
    Ok(())
}

/// Resolve the body relations up front so missing tables error out
/// deterministically.
fn resolve<'d>(q: &ConjunctiveQuery, db: &'d Database) -> Result<Vec<&'d Relation>> {
    Ok(q.atoms
        .iter()
        .map(|a| db.relation(&a.relation))
        .collect::<pq_data::Result<_>>()?)
}

/// A first atom, its tuples in scan order, and contiguous chunks of them.
type FirstAtomChunks<'d> = (usize, Vec<&'d Tuple>, Vec<Range<usize>>);

/// The fan-out decomposition of the search when `ctx` carries a pool: the
/// atom the serial search would pick first, split into chunks. `None` at
/// degree 1 or with an empty body — the plain serial [`search`] is then the
/// whole computation.
fn first_atom_chunks<'d>(
    q: &ConjunctiveQuery,
    rels: &[&'d Relation],
    ctx: &ExecutionContext,
) -> Option<FirstAtomChunks<'d>> {
    let threads = ctx.pool().threads();
    if threads <= 1 {
        return None;
    }
    let first = pick_next(q, rels, &vec![false; q.atoms.len()], &Binding::new())?;
    let rows: Vec<&Tuple> = rels[first].iter().collect();
    let chunks = pq_exec::morsels(rows.len(), threads * 4);
    Some((first, rows, chunks))
}

fn undo(binding: &mut Binding, vars: &[&str]) {
    for v in vars {
        binding.remove(*v);
    }
}

/// Evaluate a comparison between two constants (helper shared with the
/// comparison-preprocessing module).
pub fn eval_const_cmp(op: CmpOp, l: &Value, r: &Value) -> bool {
    op.eval(l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::{atom, parse_cq, Neq};

    fn edge_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "E",
            ["a", "b"],
            [tuple![1, 2], tuple![2, 3], tuple![3, 1], tuple![1, 3]],
        )
        .unwrap();
        db
    }

    #[test]
    fn path_query_finds_all_two_paths() {
        let q = parse_cq("P(x, z) :- E(x, y), E(y, z).").unwrap();
        let out = evaluate(&q, &edge_db()).unwrap();
        // 1→2→3, 2→3→1, 3→1→2, 3→1→3, 1→3→1
        assert_eq!(out.len(), 5);
        assert!(!out.contains(&tuple![1, 2]));
        assert!(out.contains(&tuple![1, 3]));
        assert!(out.contains(&tuple![3, 3]));
    }

    #[test]
    fn triangle_query_boolean() {
        let q = parse_cq("T :- E(x, y), E(y, z), E(z, x).").unwrap();
        assert!(is_nonempty(&q, &edge_db()).unwrap()); // 1→2→3→1
    }

    #[test]
    fn neq_filters_solutions() {
        // employees on >1 project
        let mut db = Database::new();
        db.add_table(
            "EP",
            ["e", "p"],
            [
                tuple!["ann", "p1"],
                tuple!["ann", "p2"],
                tuple!["bob", "p1"],
            ],
        )
        .unwrap();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["ann"]));
    }

    #[test]
    fn comparisons_filter_solutions() {
        let mut db = Database::new();
        db.add_table(
            "EM",
            ["e", "m"],
            [tuple!["ann", "bob"], tuple!["cid", "bob"]],
        )
        .unwrap();
        db.add_table(
            "ES",
            ["e", "s"],
            [tuple!["ann", 120], tuple!["bob", 100], tuple!["cid", 90]],
        )
        .unwrap();
        let q = parse_cq("G(e) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s.").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["ann"]));
    }

    #[test]
    fn decide_substitutes_head_constants() {
        let q = parse_cq("P(x, z) :- E(x, y), E(y, z).").unwrap();
        let db = edge_db();
        assert!(decide(&q, &db, &tuple![1, 3]).unwrap());
        assert!(!decide(&q, &db, &tuple![2, 2]).unwrap());
    }

    #[test]
    fn repeated_variables_in_atom_enforce_equality() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 1], tuple![1, 2]])
            .unwrap();
        let q = parse_cq("G(x) :- R(x, x).").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn constants_in_atoms_select() {
        let q = parse_cq("G(y) :- E(1, y).").unwrap();
        let out = evaluate(&q, &edge_db()).unwrap();
        assert_eq!(out.len(), 2); // 1→2, 1→3
    }

    #[test]
    fn unknown_relation_errors() {
        let q = parse_cq("G(x) :- Nope(x).").unwrap();
        assert!(matches!(
            evaluate(&q, &edge_db()),
            Err(EngineError::Data(_))
        ));
    }

    #[test]
    fn unsafe_head_errors() {
        let q = parse_cq("G(w) :- E(x, y).").unwrap();
        assert!(matches!(
            evaluate(&q, &edge_db()),
            Err(EngineError::Query(QueryError::UnsafeHeadVariable(_)))
        ));
    }

    #[test]
    fn neq_same_variable_is_unsatisfiable() {
        let q = ConjunctiveQuery::boolean("G", [atom!("E"; var "x", var "y")])
            .with_neqs([Neq::new(Term::var("x"), Term::var("x"))]);
        assert!(!is_nonempty(&q, &edge_db()).unwrap());
    }

    #[test]
    fn clique_query_matches_graph() {
        // k=3 clique query on a graph with exactly one triangle (as directed
        // pairs both ways).
        let mut db = Database::new();
        let mut rows = Vec::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
            rows.push(tuple![a, b]);
            rows.push(tuple![b, a]);
        }
        db.add_table("G", ["a", "b"], rows).unwrap();
        let q = parse_cq("P :- G(x1, x2), G(x1, x3), G(x2, x3).").unwrap();
        assert!(is_nonempty(&q, &db).unwrap());
        let q4 =
            parse_cq("P :- G(x1,x2), G(x1,x3), G(x1,x4), G(x2,x3), G(x2,x4), G(x3,x4).").unwrap();
        assert!(!is_nonempty(&q4, &db).unwrap());
    }

    #[test]
    fn empty_body_is_an_error_for_evaluate() {
        // Head variable can't be bound without atoms.
        let q = ConjunctiveQuery::new("G", [Term::var("x")], []);
        assert!(evaluate(&q, &edge_db()).is_err());
        // A boolean query with an empty body is vacuously true.
        let qb = ConjunctiveQuery::boolean("G", []);
        assert!(is_nonempty(&qb, &edge_db()).unwrap());
    }
}
