//! The Section 5 extension: acyclic conjunctive queries whose inequality
//! part is an arbitrary **monotone Boolean combination** of `≠` atoms.
//!
//! "If the parameter is q, the query size, the same theorem holds in the
//! case where, instead of a conjunction of inequalities in the body of the
//! query, we have an arbitrary Boolean formula φ built from inequality
//! atoms using ∨ and ∧. … We use again hash functions h and introduce new
//! attributes for all the variables that appear in φ, which we use to check
//! the condition φ. The size k of the range of h is, in general, taken now
//! to be the sum of the number of variables and the number of constants
//! that appear in the inequalities of φ; clearly k ≤ q. The main difference
//! now is that we may not be able to push the selection on the inequality
//! constraints down in the tree, as we did in the case of a conjunctive φ."
//!
//! Implementation: carry hashed copies of *every* φ-variable all the way to
//! the root (the wide-`W_j` regime), evaluate φ on the hashed values there,
//! and union `Q_h(d)` over the hash family. Consistency of an instantiation
//! `τ` with `h` here means: φ evaluated on colors (with constants colored
//! too) is true — which implies φ on the real values whenever `h` is
//! injective on τ's φ-values and the φ-constants.

use std::collections::BTreeSet;
use std::fmt;

use pq_data::{Database, Relation, Tuple, Value};
use pq_hypergraph::{join_tree, Hypergraph};
use pq_query::{ConjunctiveQuery, Term};

use super::algorithms::{extend_with_hashes, hashed_attr, ENGINE};
use super::hashing::{DomainIndex, HashFamily};
use crate::binding::{check_safety, head_attrs, head_output};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;
use crate::sweep::{fold_up, keep_lists};
use crate::yannakakis::{atom_relations, join_projected};

/// A monotone Boolean combination of inequality atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NeqFormula {
    /// `left ≠ right` where each side is a variable or a constant.
    Atom(Term, Term),
    /// Conjunction.
    And(Vec<NeqFormula>),
    /// Disjunction.
    Or(Vec<NeqFormula>),
}

impl NeqFormula {
    /// An inequality leaf.
    pub fn neq(l: Term, r: Term) -> NeqFormula {
        NeqFormula::Atom(l, r)
    }

    /// The distinct variables of the formula.
    pub fn variables(&self) -> BTreeSet<String> {
        match self {
            NeqFormula::Atom(l, r) => [l, r]
                .into_iter()
                .filter_map(Term::as_var)
                .map(str::to_string)
                .collect(),
            NeqFormula::And(fs) | NeqFormula::Or(fs) => {
                fs.iter().flat_map(NeqFormula::variables).collect()
            }
        }
    }

    /// The distinct constants of the formula.
    pub fn constants(&self) -> BTreeSet<Value> {
        match self {
            NeqFormula::Atom(l, r) => [l, r]
                .into_iter()
                .filter_map(Term::as_const)
                .cloned()
                .collect(),
            NeqFormula::And(fs) | NeqFormula::Or(fs) => {
                fs.iter().flat_map(NeqFormula::constants).collect()
            }
        }
    }

    /// Evaluate given a lookup from terms to (color or value) keys.
    fn eval<K: PartialEq>(&self, key: &impl Fn(&Term) -> K) -> bool {
        match self {
            NeqFormula::Atom(l, r) => key(l) != key(r),
            NeqFormula::And(fs) => fs.iter().all(|f| f.eval(key)),
            NeqFormula::Or(fs) => fs.iter().any(|f| f.eval(key)),
        }
    }

    /// φ with the atoms the active domain already decides replaced by their
    /// truth value (`And([])` is true, `Or([])` false): a constant outside
    /// the domain differs from every value a variable can take, and two
    /// constants compare as values. Hashing cannot decide these — a coloring
    /// gives an absent constant colour 0, so `x ≠ c` would fail for
    /// whichever domain values share that colour, under every function.
    fn decided(&self, dom: &DomainIndex) -> NeqFormula {
        let truth = |holds: bool| match holds {
            true => NeqFormula::And(Vec::new()),
            false => NeqFormula::Or(Vec::new()),
        };
        let absent = |t: &Term| t.as_const().is_some_and(|c| dom.index_of(c).is_none());
        match self {
            NeqFormula::Atom(Term::Const(a), Term::Const(b)) => truth(a != b),
            NeqFormula::Atom(l, r) if absent(l) || absent(r) => truth(true),
            NeqFormula::Atom(..) => self.clone(),
            NeqFormula::And(fs) => NeqFormula::And(fs.iter().map(|f| f.decided(dom)).collect()),
            NeqFormula::Or(fs) => NeqFormula::Or(fs.iter().map(|f| f.decided(dom)).collect()),
        }
    }

    /// Evaluate over concrete values (ground truth; used by the naive
    /// evaluator below).
    pub fn eval_values(&self, lookup: &impl Fn(&str) -> Value) -> bool {
        self.eval(&|t: &Term| match t {
            Term::Var(v) => lookup(v),
            Term::Const(c) => c.clone(),
        })
    }
}

impl fmt::Display for NeqFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeqFormula::Atom(l, r) => write!(f, "{l} != {r}"),
            NeqFormula::And(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            NeqFormula::Or(fs) => {
                write!(f, "(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Evaluate an acyclic conjunctive query (its `atoms` and head; the `neqs`
/// and `comparisons` fields must be empty) extended with a monotone
/// inequality formula `φ`, in f.p. polynomial time with parameter `q`, under
/// the resource limits of `ctx`.
pub fn evaluate(
    q: &ConjunctiveQuery,
    phi: &NeqFormula,
    db: &Database,
    family: &HashFamily,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    if !q.is_pure() {
        return Err(EngineError::Unsupported(
            "pass the inequality structure via φ, not the query's own constraint lists".into(),
        ));
    }
    check_safety(q, phi.variables().iter().map(String::as_str))?;
    let tree = join_tree(&q.hypergraph())
        .ok_or_else(|| EngineError::Unsupported(format!("query is not acyclic: {q}")))?;

    let dom = DomainIndex::from_database(db);
    let phi = phi.decided(&dom);
    let phi_vars: Vec<String> = phi.variables().into_iter().collect();
    // k = #variables + #constants of φ (the paper's choice; k ≤ q).
    let k = phi_vars.len() + phi.constants().len();

    // Per-atom relations (constants/equalities only — φ is checked at the
    // root, per the paper's "may not push down" caveat), and the φ-variables
    // each of them gets a hashed copy of.
    let base = atom_relations(q, db, ctx)?;
    let carried = |rel: &Relation| -> Vec<&String> {
        phi_vars
            .iter()
            .filter(|v| rel.attr_pos(v).is_some())
            .collect()
    };
    let hashed: Vec<Vec<&String>> = base.iter().map(carried).collect();
    // The wide regime as an output join: with `Z = head ∪ {x#h : x ∈ φ}`
    // every hashed attribute rides to the root beside the head variables.
    let y_hg = Hypergraph::from_edges(base.iter().zip(&hashed).map(|(rel, hv)| {
        let own = rel.attrs().iter().cloned();
        own.chain(hv.iter().map(|v| hashed_attr(v)))
            .collect::<Vec<_>>()
    }));
    let mut z: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
    z.extend(phi_vars.iter().map(|v| hashed_attr(v)));
    let keep = keep_lists(&y_hg, &tree, &z);

    let step = |ctx: &ExecutionContext, parent: &Relation, child: &Relation, j: usize| {
        join_projected(ctx, parent, child, &keep[j])
    };

    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    for h in family.colorings(&dom, k) {
        ctx.tick(ENGINE)?;
        let mut p: Vec<Relation> = (base.iter().zip(&hashed))
            .map(|(rel, hv)| extend_with_hashes(rel, hv, &dom, &h, ctx))
            .collect::<Result<_>>()?;
        if !fold_up(&tree, &mut p, ctx, ENGINE, step)? {
            continue;
        }

        // Check φ on the hashed attributes at the root.
        let root = &p[tree.root()];
        let color = |t: &Term, tup: &Tuple| -> Value {
            match t {
                Term::Var(v) => {
                    let pos = root.attr_pos(&hashed_attr(v)).expect("hashed attr at root");
                    tup[pos].clone()
                }
                Term::Const(c) => Value::Int(i64::from(h.color_of(&dom, c))),
            }
        };
        let selected = root.select(|tup| phi.eval(&|t: &Term| color(t, tup)));
        out = out.union(&head_output(q, &selected, ctx, ENGINE)?)?;
    }
    Ok(out)
}

/// Ground-truth evaluation by backtracking (exponential), for testing.
pub fn evaluate_naive(q: &ConjunctiveQuery, phi: &NeqFormula, db: &Database) -> Result<Relation> {
    let all = crate::naive::evaluate(
        &ConjunctiveQuery::new(
            q.head_name.clone(),
            q.atom_variables().iter().map(|v| Term::var(*v)),
            q.atoms.iter().cloned(),
        ),
        db,
    )?;
    // Filter by φ over full variable bindings, then project to the head.
    let selected = all.select(|t| {
        phi.eval_values(&|v: &str| t[all.attr_pos(v).expect("all body vars in header")].clone())
    });
    head_output(q, &selected, &ExecutionContext::unlimited(), ENGINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::parse_cq;

    fn var(v: &str) -> Term {
        Term::var(v)
    }

    fn ctx() -> ExecutionContext {
        ExecutionContext::unlimited()
    }

    fn db() -> Database {
        let mut d = Database::new();
        d.add_table(
            "R",
            ["a", "b"],
            [tuple![1, 2], tuple![2, 2], tuple![2, 3], tuple![3, 1]],
        )
        .unwrap();
        d.add_table("S", ["b", "c"], [tuple![2, 1], tuple![2, 4], tuple![3, 3]])
            .unwrap();
        d
    }

    #[test]
    fn disjunction_of_inequalities() {
        // a ≠ c ∨ a ≠ 1: satisfied unless a = c = 1.
        let q = parse_cq("G(a, c) :- R(a, b), S(b, c).").unwrap();
        let phi = NeqFormula::Or(vec![
            NeqFormula::neq(var("a"), var("c")),
            NeqFormula::neq(var("a"), Term::cons(1)),
        ]);
        let fast = evaluate(&q, &phi, &db(), &HashFamily::Perfect, &ctx()).unwrap();
        let slow = evaluate_naive(&q, &phi, &db()).unwrap();
        assert_eq!(fast, slow);
        assert!(!fast.contains(&tuple![1, 1]));

        // A constant outside the active domain has no colour of its own:
        // x ≠ 99 holds for every x there is.
        let mut one = Database::new();
        one.add_table("R", ["a"], [tuple![1]]).unwrap();
        let q = parse_cq("G(x) :- R(x).").unwrap();
        let phi = NeqFormula::neq(var("x"), Term::cons(99));
        let fast = evaluate(&q, &phi, &one, &HashFamily::Perfect, &ctx());
        assert_eq!(fast.unwrap(), evaluate_naive(&q, &phi, &one).unwrap());
    }

    #[test]
    fn nested_and_or() {
        // (a ≠ c ∧ b ≠ c) ∨ a ≠ 3
        let q = parse_cq("G(a, b, c) :- R(a, b), S(b, c).").unwrap();
        let phi = NeqFormula::Or(vec![
            NeqFormula::And(vec![
                NeqFormula::neq(var("a"), var("c")),
                NeqFormula::neq(var("b"), var("c")),
            ]),
            NeqFormula::neq(var("a"), Term::cons(3)),
        ]);
        let fast = evaluate(&q, &phi, &db(), &HashFamily::Perfect, &ctx()).unwrap();
        let slow = evaluate_naive(&q, &phi, &db()).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn pure_conjunction_agrees_with_main_engine() {
        let q = parse_cq("G(a, c) :- R(a, b), S(b, c).").unwrap();
        let phi = NeqFormula::And(vec![NeqFormula::neq(var("a"), var("c"))]);
        let via_formula = evaluate(&q, &phi, &db(), &HashFamily::Perfect, &ctx()).unwrap();
        let q_neq = parse_cq("G(a, c) :- R(a, b), S(b, c), a != c.").unwrap();
        let via_main = super::super::driver::evaluate(
            &q_neq,
            &db(),
            &super::super::driver::ColorCodingOptions::default(),
        )
        .unwrap();
        assert_eq!(via_formula, via_main);
    }

    #[test]
    fn randomized_family_is_sound() {
        let q = parse_cq("G(a, c) :- R(a, b), S(b, c).").unwrap();
        let phi = NeqFormula::neq(var("a"), var("c"));
        let fam = HashFamily::Random {
            trials: 40,
            seed: 5,
        };
        let subset = evaluate(&q, &phi, &db(), &fam, &ctx()).unwrap();
        let full = evaluate_naive(&q, &phi, &db()).unwrap();
        for t in subset.iter() {
            assert!(full.contains(t), "false positive {t}");
        }
    }

    #[test]
    fn unsafe_phi_variable_rejected() {
        let q = parse_cq("G(a) :- R(a, b).").unwrap();
        let phi = NeqFormula::neq(var("zz"), var("a"));
        assert!(evaluate(&q, &phi, &db(), &HashFamily::Perfect, &ctx()).is_err());
    }

    #[test]
    fn formula_display() {
        let phi = NeqFormula::Or(vec![
            NeqFormula::And(vec![NeqFormula::neq(var("x"), var("y"))]),
            NeqFormula::neq(var("x"), Term::cons(3)),
        ]);
        assert_eq!(phi.to_string(), "((x != y) | x != 3)");
    }
}
