//! Variable bindings (instantiations `τ` in the paper's notation) and the
//! conventions for turning a set of bindings into an output relation.

use std::collections::{BTreeMap, BTreeSet};

use pq_data::{Relation, Tuple, Value};
use pq_query::{ConjunctiveQuery, QueryError, Term};

use crate::error::Result;
use crate::governor::ExecutionContext;

/// An instantiation of query variables by domain constants.
pub type Binding = BTreeMap<String, Value>;

/// Instantiate a term under a binding; `None` if it is an unbound variable.
pub fn apply_term(t: &Term, b: &Binding) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c.clone()),
        Term::Var(v) => b.get(v).cloned(),
    }
}

/// The output header for a query head: variable names when the head terms
/// are distinct variables, positional `$i` names otherwise (repeated
/// variables or constants in the head make names ambiguous).
pub fn head_attrs(head_terms: &[Term]) -> Vec<String> {
    let mut names: Vec<String> = Vec::with_capacity(head_terms.len());
    let mut ok = true;
    for t in head_terms {
        match t.as_var() {
            Some(v) if !names.iter().any(|n| n == v) => names.push(v.to_string()),
            _ => {
                ok = false;
                break;
            }
        }
    }
    if ok {
        names
    } else {
        (0..head_terms.len()).map(|i| format!("${i}")).collect()
    }
}

/// Safety, as every engine but the reference one (`naive`, which keeps its
/// own copy to be tested against) checks it: each head variable, then each
/// variable of `constrained`, must occur in a relational atom. `constrained`
/// is whatever the engine goes on to evaluate constraints over — the `≠` and
/// comparison variables, a formula's variables, or nothing for an engine
/// that rejects impure queries right after.
///
/// # Errors
/// [`QueryError::UnsafeHeadVariable`] or
/// [`QueryError::UnsafeConstraintVariable`] naming the first offender.
pub fn check_safety<'a>(
    q: &ConjunctiveQuery,
    constrained: impl IntoIterator<Item = &'a str>,
) -> Result<()> {
    let body: BTreeSet<&str> = q.atom_variables().into_iter().collect();
    if let Some(v) = q.head_variables().into_iter().find(|v| !body.contains(v)) {
        return Err(QueryError::UnsafeHeadVariable(v.to_string()).into());
    }
    if let Some(v) = constrained.into_iter().find(|v| !body.contains(v)) {
        return Err(QueryError::UnsafeConstraintVariable(v.to_string()).into());
    }
    Ok(())
}

/// The answer of a query with an empty body: the one empty tuple (its head
/// has no variables, or [`check_safety`] would have rejected it).
pub fn vacuous_output(q: &ConjunctiveQuery) -> Result<Relation> {
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    out.insert(Tuple::default())?;
    Ok(out)
}

/// Build the output relation from `P*`: instantiate the head terms over
/// every row of `star`, which has a column for each head variable (in any
/// order, possibly among others). Ticks per row and charges the output to
/// `engine`.
pub fn head_output(
    q: &ConjunctiveQuery,
    star: &Relation,
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<Relation> {
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    ctx.charge_tuples(engine, star.len() as u64)?;
    for t in star.iter() {
        ctx.tick(engine)?;
        let vals = q.head_terms.iter().map(|term| match term {
            Term::Const(c) => c.clone(),
            Term::Var(v) => t[star.attr_pos(v).expect("head var in P*")].clone(),
        });
        out.insert(Tuple::new(vals))?;
    }
    Ok(out)
}

/// Build the output relation `Q(d) = { τ(t0) | τ satisfying }` from a list of
/// satisfying bindings.
///
/// Fails with [`QueryError::UnsafeHeadVariable`] when a binding leaves a head
/// variable unbound — the caller handed us an unsafe query whose body does
/// not cover its head.
pub fn bindings_to_output(
    q: &ConjunctiveQuery,
    bindings: impl IntoIterator<Item = Binding>,
) -> Result<Relation> {
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    for b in bindings {
        let mut vals = Vec::with_capacity(q.head_terms.len());
        for t in &q.head_terms {
            match apply_term(t, &b) {
                Some(v) => vals.push(v),
                None => {
                    let var = t.as_var().unwrap_or("?").to_string();
                    return Err(QueryError::UnsafeHeadVariable(var).into());
                }
            }
        }
        out.insert(Tuple::new(vals))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_query::atom;

    #[test]
    fn head_attr_naming_rules() {
        assert_eq!(
            head_attrs(&[Term::var("x"), Term::var("y")]),
            vec!["x", "y"]
        );
        // repeated variable → positional
        assert_eq!(
            head_attrs(&[Term::var("x"), Term::var("x")]),
            vec!["$0", "$1"]
        );
        // constants → positional
        assert_eq!(head_attrs(&[Term::cons(1)]), vec!["$0"]);
        assert!(head_attrs(&[]).is_empty());
    }

    #[test]
    fn output_materializes_head_terms() {
        let q = ConjunctiveQuery::new("G", [Term::var("x"), Term::cons(9)], [atom!("R"; var "x")]);
        let b: Binding = BTreeMap::from([("x".into(), Value::int(4))]);
        let out = bindings_to_output(&q, [b]).unwrap();
        assert_eq!(out.attrs(), ["$0", "$1"]);
        assert!(out.contains(&pq_data::tuple![4, 9]));
    }

    #[test]
    fn unbound_head_variable_is_an_error_not_a_panic() {
        let q = ConjunctiveQuery::new(
            "G",
            [Term::var("x"), Term::var("missing")],
            [atom!("R"; var "x")],
        );
        let b: Binding = BTreeMap::from([("x".into(), Value::int(4))]);
        let err = bindings_to_output(&q, [b]).unwrap_err();
        assert!(err.to_string().contains("missing"), "got: {err}");
    }

    #[test]
    fn boolean_query_output_is_zero_ary() {
        let q = ConjunctiveQuery::boolean("G", [atom!("R"; var "x")]);
        let out = bindings_to_output(&q, [Binding::new()]).unwrap();
        assert_eq!(out.arity(), 0);
        assert_eq!(out.len(), 1); // the empty tuple: "true"
    }
}
