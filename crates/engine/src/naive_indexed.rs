//! The naive evaluator with per-column hash indexes.
//!
//! The paper's point is that the `n^q` exponent of generic evaluation is
//! *inherent* — not an artifact of sloppy engineering. This engine makes
//! that claim testable: it is the same backtracking search as
//! [`crate::naive`], but each atom probe goes through a hash index on a
//! bound column instead of a relation scan. It does less work, but the
//! fitted exponent still grows with the query (`tests/paper.rs`,
//! `paper_x7_indexing_keeps_k_in_the_exponent`).

use std::collections::HashMap;

use std::ops::Range;

use pq_data::{Database, Relation, Value};
use pq_query::{ConjunctiveQuery, Term};

use crate::binding::{apply_term, bindings_to_output, check_safety, Binding};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "naive-indexed";

/// A relation wrapped with one hash index per column.
struct Indexed<'a> {
    rel: &'a Relation,
    by_col: Vec<HashMap<&'a Value, Vec<usize>>>,
}

impl<'a> Indexed<'a> {
    fn build(rel: &'a Relation) -> Indexed<'a> {
        let mut by_col: Vec<HashMap<&Value, Vec<usize>>> = vec![HashMap::new(); rel.arity()];
        for (ri, t) in rel.iter().enumerate() {
            for (ci, v) in t.iter().enumerate() {
                by_col[ci].entry(v).or_default().push(ri);
            }
        }
        Indexed { rel, by_col }
    }

    /// Row ids whose column `c` equals `v` (empty slice when absent).
    fn probe(&self, c: usize, v: &Value) -> &[usize] {
        self.by_col[c].get(v).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Evaluate with indexes; result identical to [`crate::naive::evaluate`].
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`; with a pool on `ctx`,
/// the same first-atom chunk fan-out as `naive::evaluate_governed`
/// (identical output at any thread count: chunk outputs concatenate in scan
/// order).
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    let constrained = (q.neqs.iter().flat_map(|n| n.variables()))
        .chain(q.comparisons.iter().flat_map(|c| c.variables()));
    check_safety(q, constrained)?;
    let indexed = build_indexes(q, db)?;
    let Some((first, rows, chunks)) = first_atom_chunks(q, &indexed, ctx) else {
        let mut bindings = Vec::new();
        search(q, &indexed, ctx, &mut |b| {
            bindings.push(b.clone());
            true
        })?;
        return bindings_to_output(q, bindings);
    };
    let parts: Vec<Vec<Binding>> = ctx.try_run(&chunks, |ctx, _, range| {
        let mut local = Vec::new();
        search_chunk(q, &indexed, first, &rows[range.clone()], ctx, &mut |b| {
            local.push(b.clone());
            true
        })?;
        Ok::<_, EngineError>(local)
    })?;
    bindings_to_output(q, parts.concat())
}

/// Emptiness with indexes.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`; with a pool on `ctx`
/// the chunks race and the first witness cancels the rest.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    let indexed = build_indexes(q, db)?;
    let Some((first, rows, chunks)) = first_atom_chunks(q, &indexed, ctx) else {
        let mut found = false;
        search(q, &indexed, ctx, &mut |_| {
            found = true;
            false
        })?;
        return Ok(found);
    };
    let hit = ctx.find_first(&chunks, |ctx, _, range| {
        let mut found = false;
        search_chunk(q, &indexed, first, &rows[range.clone()], ctx, &mut |_| {
            found = true;
            false
        })?;
        Ok(found.then_some(()))
    })?;
    Ok(hit.is_some())
}

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

/// Resolve the body relations and index each one.
fn build_indexes<'d>(q: &ConjunctiveQuery, db: &'d Database) -> Result<Vec<Indexed<'d>>> {
    let rels: Vec<&Relation> = q
        .atoms
        .iter()
        .map(|a| db.relation(&a.relation))
        .collect::<pq_data::Result<_>>()?;
    Ok(rels.into_iter().map(Indexed::build).collect())
}

fn search(
    q: &ConjunctiveQuery,
    indexed: &[Indexed],
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<()> {
    let mut used = vec![false; q.atoms.len()];
    let mut binding = Binding::new();
    recurse(q, indexed, &mut used, &mut binding, ctx, visit)?;
    Ok(())
}

/// A term is "bound" when it is a constant or a bound variable.
fn bound_value<'b>(t: &'b Term, binding: &'b Binding) -> Option<&'b Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding.get(v.as_str()),
    }
}

/// The greedy join-order rule (most bound terms, ties by smaller relation),
/// shared by the recursion and the first-atom fan-out.
fn pick_next(
    q: &ConjunctiveQuery,
    rels: &[Indexed],
    used: &[bool],
    binding: &Binding,
) -> Option<usize> {
    (0..q.atoms.len()).filter(|&i| !used[i]).max_by_key(|&i| {
        let bound = q.atoms[i]
            .terms
            .iter()
            .filter(|t| bound_value(t, binding).is_some())
            .count();
        (bound, usize::MAX - rels[i].rel.len())
    })
}

/// Candidate rows for atom `i` under `binding`: probe the index on the
/// first bound position, falling back to a full scan when nothing is bound.
fn candidate_rows(
    q: &ConjunctiveQuery,
    rels: &[Indexed],
    i: usize,
    binding: &Binding,
) -> Vec<usize> {
    let probe = q.atoms[i]
        .terms
        .iter()
        .enumerate()
        .find_map(|(c, t)| bound_value(t, binding).map(|v| (c, v.clone())));
    match &probe {
        Some((c, v)) => rels[i].probe(*c, v).to_vec(),
        None => (0..rels[i].rel.len()).collect(),
    }
}

/// Unify atom `i` against row `ri` and recurse; see `naive::try_tuple`.
#[allow(clippy::too_many_arguments)]
fn try_row(
    q: &ConjunctiveQuery,
    rels: &[Indexed],
    used: &mut [bool],
    binding: &mut Binding,
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
    i: usize,
    ri: usize,
) -> Result<bool> {
    let atom = &q.atoms[i];
    let t = &rels[i].rel.tuples()[ri];
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
    rels: &[Indexed],
    used: &mut [bool],
    binding: &mut Binding,
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<bool> {
    let _depth = ctx.recurse(ENGINE)?;
    let Some(i) = pick_next(q, rels, used, binding) else {
        ctx.charge_tuples(ENGINE, 1)?;
        return Ok(visit(binding));
    };

    used[i] = true;
    ctx.note_atom();
    for ri in candidate_rows(q, rels, i, binding) {
        ctx.tick(ENGINE)?;
        if !try_row(q, rels, used, binding, ctx, visit, i, ri)? {
            used[i] = false;
            return Ok(false);
        }
    }
    used[i] = false;
    Ok(true)
}

/// Search one contiguous chunk of the first atom's candidate rows (fan-out
/// task body; see `naive::search_chunk`).
fn search_chunk(
    q: &ConjunctiveQuery,
    rels: &[Indexed],
    first: usize,
    rows: &[usize],
    ctx: &ExecutionContext,
    visit: &mut impl FnMut(&Binding) -> bool,
) -> Result<()> {
    let _depth = ctx.recurse(ENGINE)?;
    let mut used = vec![false; q.atoms.len()];
    let mut binding = Binding::new();
    used[first] = true;
    ctx.note_atom();
    for &ri in rows {
        ctx.tick(ENGINE)?;
        if !try_row(q, rels, &mut used, &mut binding, ctx, visit, first, ri)? {
            return Ok(());
        }
    }
    Ok(())
}

/// The fan-out decomposition when `ctx` carries a pool: the first atom the
/// serial search would pick, its candidate rows, and contiguous chunks of
/// them; `None` at degree 1 or with an empty body (see
/// `naive::first_atom_chunks`).
fn first_atom_chunks(
    q: &ConjunctiveQuery,
    indexed: &[Indexed],
    ctx: &ExecutionContext,
) -> Option<(usize, Vec<usize>, Vec<Range<usize>>)> {
    let threads = ctx.pool().threads();
    if threads <= 1 {
        return None;
    }
    let first = pick_next(q, indexed, &vec![false; q.atoms.len()], &Binding::new())?;
    let rows = candidate_rows(q, indexed, first, &Binding::new());
    let chunks = pq_exec::morsels(rows.len(), threads * 4);
    Some((first, rows, chunks))
}

fn undo(binding: &mut Binding, vars: &[&str]) {
    for v in vars {
        binding.remove(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pq_data::tuple;
    use pq_query::parse_cq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for name in ["E", "R"] {
            let rows = (0..rng.gen_range(8..30))
                .map(|_| tuple![rng.gen_range(0..6i64), rng.gen_range(0..6i64)]);
            db.add_table(name, ["a", "b"], rows).unwrap();
        }
        db
    }

    #[test]
    fn agrees_with_naive_on_battery() {
        for seed in 0..6 {
            let db = random_db(seed);
            for src in [
                "G(x, z) :- E(x, y), E(y, z).",
                "G :- E(x, y), E(y, z), E(z, x).",
                "G(x) :- E(x, y), R(y, z), x != z.",
                "G(x) :- E(x, 3).",
                "G(x, y) :- E(x, y), R(x, y), x < y.",
                "G(x) :- E(x, x).",
            ] {
                let q = parse_cq(src).unwrap();
                assert_eq!(
                    evaluate(&q, &db).unwrap(),
                    naive::evaluate(&q, &db).unwrap(),
                    "seed {seed}: {src}"
                );
                assert_eq!(
                    is_nonempty(&q, &db).unwrap(),
                    naive::is_nonempty(&q, &db).unwrap(),
                    "seed {seed}: {src}"
                );
            }
        }
    }

    /// A clique instance without depending on pq-wtheory (dependency
    /// direction: wtheory depends on engine).
    fn clique(n: i64, k: usize, seed: u64) -> (Database, ConjunctiveQuery) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(0.4) {
                    rows.push(tuple![a, b]);
                    rows.push(tuple![b, a]);
                }
            }
        }
        let mut db = Database::new();
        db.add_table("G", ["a", "b"], rows).unwrap();
        let mut atoms = Vec::new();
        for i in 1..=k {
            for j in i + 1..=k {
                atoms.push(format!("G(x{i}, x{j})"));
            }
        }
        let q = parse_cq(&format!("P :- {}.", atoms.join(", "))).unwrap();
        (db, q)
    }

    #[test]
    fn clique_queries_agree_and_probe_indexes() {
        for seed in 0..4 {
            let (db, q) = clique(10, 3, seed);
            assert_eq!(
                is_nonempty(&q, &db).unwrap(),
                naive::is_nonempty(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn errors_match_naive() {
        let db = random_db(1);
        let q = parse_cq("G(w) :- E(x, y).").unwrap();
        assert!(evaluate(&q, &db).is_err());
        let q2 = parse_cq("G(x) :- Nope(x).").unwrap();
        assert!(evaluate(&q2, &db).is_err());
    }
}
