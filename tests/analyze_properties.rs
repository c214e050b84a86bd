//! Property-based soundness checks for the static analyzer (`pq-analyze`):
//!
//! * evaluating the minimized core gives exactly the original answer on
//!   random conjunctive queries and databases (Chandra–Merlin equivalence);
//! * every `provably-empty` verdict is confirmed by naive evaluation
//!   returning zero tuples;
//! * the structure report's acyclicity bit agrees with the GYO join-tree
//!   builder on random hypergraph shapes;
//! * the whole-program analyzer's rewrite (dead-rule pruning + per-rule
//!   core minimization) computes the identical goal relation on random
//!   Datalog programs and databases, under every fixpoint strategy, serial
//!   and parallel at 1 and 4 threads;
//! * the hypertree engine agrees byte-for-byte with naive evaluation on
//!   random pure (often cyclic) queries, serial and at 1/4 exec threads;
//! * hypertree decompositions of random hypergraphs satisfy the
//!   Gottlob–Leone–Scarcello validity conditions (edge coverage, vertex
//!   connectedness, cover ⊇ bag), exact or heuristic;
//! * every `PQA801`/`PQA802` view-match verdict is sound: projecting the
//!   view's answer through the reported columns reproduces direct
//!   evaluation exactly (equivalence ⇒ byte-identical answer sets),
//!   serially and against the parallel hypertree path at 1/4 exec threads.

use proptest::prelude::*;

use pq_analyze::{analyze, analyze_program, structure_of, AnalyzeOptions};
use pq_data::{tuple, Database, Relation, Tuple};
use pq_engine::datalog_eval::{self, Strategy as FixpointStrategy};
use pq_engine::governor::ExecutionContext;
use pq_engine::{hypertree, naive, EngineError};
use pq_exec::Pool;
use pq_hypergraph::{decompose, join_tree, Hypergraph, DEFAULT_WIDTH_LIMIT};
use pq_query::{Atom, ConjunctiveQuery, DatalogProgram, Neq, Rule, Term};

/// A random body atom over a small pool of relations (all binary) and
/// variables, with an occasional constant. Repeating relation names across
/// atoms is what makes redundancy — and hence minimization — likely.
fn arb_atom() -> impl Strategy<Value = Atom> {
    // 12/15 of draws are variables x0..x3, the rest constants 0..2.
    let term = (0usize..15).prop_map(|t| {
        if t < 12 {
            Term::var(format!("x{}", t % 4))
        } else {
            Term::cons((t - 12) as i64)
        }
    });
    (0usize..3, term.clone(), term).prop_map(|(r, t1, t2)| Atom::new(format!("R{r}"), [t1, t2]))
}

/// A random query: 1–5 atoms, 0–2 `≠` constraints drawn from the same
/// variable pool (reflexive pairs allowed on purpose — they must yield a
/// provably-empty verdict, which property 2 checks against the oracle).
/// The head is Boolean so safety holds by construction.
fn arb_query() -> impl Strategy<Value = ConjunctiveQuery> {
    let neq = (0usize..4, 0usize..4)
        .prop_map(|(a, b)| Neq::new(Term::var(format!("x{a}")), Term::var(format!("x{b}"))));
    (
        prop::collection::vec(arb_atom(), 1..5),
        prop::collection::vec(neq, 0..3),
    )
        .prop_map(|(atoms, neqs)| {
            let q = ConjunctiveQuery::new("G", [] as [Term; 0], atoms);
            // Keep only ≠ constraints over variables the body mentions, so
            // the query stays valid (range-restricted).
            let vars = q.variables();
            let neqs: Vec<Neq> = neqs
                .into_iter()
                .filter(|n| {
                    [&n.left, &n.right]
                        .iter()
                        .all(|t| t.as_var().is_none_or(|v| vars.contains(&v)))
                })
                .collect();
            q.with_neqs(neqs)
        })
}

/// A random *pure* query from the same atom pool, with every body variable
/// in the head — so the full answer relation (not just emptiness) is
/// compared between engines. Small variable pools over repeated relations
/// make cyclic shapes (triangles, shared-variable tangles) common.
fn arb_pure_query() -> impl Strategy<Value = ConjunctiveQuery> {
    prop::collection::vec(arb_atom(), 1..6).prop_map(|atoms| {
        let probe = ConjunctiveQuery::new("G", [] as [Term; 0], atoms.clone());
        let vars: Vec<String> = probe.variables().iter().map(|v| v.to_string()).collect();
        ConjunctiveQuery::new("G", vars.iter().map(|v| Term::var(v.as_str())), atoms)
    })
}

/// A random hypergraph: 1–7 edges of 1–3 vertices over a 5-label pool —
/// disconnected pieces, nested edges, and width-past-the-limit tangles all
/// occur.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    prop::collection::vec(prop::collection::btree_set(0usize..5, 1..4), 1..8).prop_map(|edges| {
        let mut hg = Hypergraph::new();
        for e in edges {
            hg.add_edge(e.into_iter().map(|v| format!("x{v}")));
        }
        hg
    })
}

/// A random database giving rows to every relation the pool can name.
fn arb_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(prop::collection::vec((0i64..3, 0i64..3), 0..8), 3).prop_map(|tables| {
        let mut db = Database::new();
        for (i, rows) in tables.into_iter().enumerate() {
            let rel =
                Relation::with_tuples(["a", "b"], rows.into_iter().map(|(a, b)| tuple![a, b]))
                    .unwrap();
            db.set_relation(format!("R{i}"), rel);
        }
        db
    })
}

/// One random Datalog rule as raw draws: a head predicate index, two head
/// variable picks (indices into the body's variable list, so safety holds
/// by construction), and 1–3 binary body atoms over variables `x0..x3`
/// with predicates drawn from `E0, E1, I0, I1, I2`.
type RuleDraw = (usize, usize, usize, Vec<(usize, usize, usize)>);

/// A random valid-by-construction Datalog program: 2–6 rules over binary
/// predicates (no arity clashes possible), heads `I0..I2`, goal = the first
/// rule's head (so the goal is always defined). Body atoms naming an IDB
/// predicate no rule defines are remapped to the EDB predicate `E0`, which
/// keeps every relation resolvable. Repeated predicates inside one body
/// make redundancy (minimization) likely; rules for non-goal heads make
/// dead rules likely; mutual `I`-recursion with no EDB base makes
/// underivable relations — and provably-empty goals — likely.
fn arb_program() -> impl Strategy<Value = DatalogProgram> {
    let rule = (
        0usize..3,
        0usize..4,
        0usize..4,
        prop::collection::vec((0usize..5, 0usize..4, 0usize..4), 1..4),
    );
    prop::collection::vec(rule, 2..7).prop_map(|draws: Vec<RuleDraw>| {
        let defined: Vec<String> = draws.iter().map(|&(h, ..)| format!("I{h}")).collect();
        let rules: Vec<Rule> = draws
            .iter()
            .map(|(h, hv1, hv2, body)| {
                let atoms: Vec<Atom> = body
                    .iter()
                    .map(|&(p, v1, v2)| {
                        let name = if p < 2 {
                            format!("E{p}")
                        } else {
                            format!("I{}", p - 2)
                        };
                        let name = if name.starts_with('I') && !defined.contains(&name) {
                            "E0".to_string()
                        } else {
                            name
                        };
                        Atom::new(
                            name,
                            [Term::var(format!("x{v1}")), Term::var(format!("x{v2}"))],
                        )
                    })
                    .collect();
                let vars: Vec<&str> = {
                    let mut vs: Vec<&str> = Vec::new();
                    for a in &atoms {
                        for t in &a.terms {
                            if let Some(v) = t.as_var() {
                                if !vs.contains(&v) {
                                    vs.push(v);
                                }
                            }
                        }
                    }
                    vs
                };
                let head = Atom::new(
                    format!("I{h}"),
                    [
                        Term::var(vars[hv1 % vars.len()]),
                        Term::var(vars[hv2 % vars.len()]),
                    ],
                );
                Rule::new(head, atoms)
            })
            .collect();
        let goal = rules[0].head.relation.clone();
        DatalogProgram::new(rules, goal)
    })
}

/// A random database for the program pool: rows for `E0` and `E1`.
fn arb_program_db() -> impl Strategy<Value = Database> {
    prop::collection::vec(prop::collection::vec((0i64..4, 0i64..4), 0..10), 2).prop_map(|tables| {
        let mut db = Database::new();
        for (i, rows) in tables.into_iter().enumerate() {
            let rel =
                Relation::with_tuples(["a", "b"], rows.into_iter().map(|(a, b)| tuple![a, b]))
                    .unwrap();
            db.set_relation(format!("E{i}"), rel);
        }
        db
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimized_core_is_equivalent_to_the_original(q in arb_query(), db in arb_db()) {
        let analysis = analyze(&q, &AnalyzeOptions::default());
        let core = analysis.effective(&q);
        prop_assert_eq!(
            naive::evaluate(core, &db).unwrap(),
            naive::evaluate(&q, &db).unwrap()
        );
    }

    #[test]
    fn provably_empty_verdicts_are_sound(q in arb_query(), db in arb_db()) {
        let analysis = analyze(&q, &AnalyzeOptions::default());
        if analysis.provably_empty() {
            prop_assert!(naive::evaluate(&q, &db).unwrap().is_empty());
        }
    }

    #[test]
    fn rewritten_program_computes_the_identical_goal_relation(
        p in arb_program(),
        db in arb_program_db(),
    ) {
        let analysis = analyze_program(&p, &AnalyzeOptions::default());
        prop_assert!(p.validate().is_ok());
        let effective = analysis.effective(&p);
        let baseline = datalog_eval::evaluate(&p, &db, FixpointStrategy::SemiNaive).unwrap();
        // A provably-empty verdict must be confirmed by the oracle.
        if analysis.provably_empty() {
            prop_assert!(baseline.is_empty());
        }
        // Serial, both strategies.
        for strategy in [FixpointStrategy::Naive, FixpointStrategy::SemiNaive] {
            let got = datalog_eval::evaluate(effective, &db, strategy).unwrap();
            prop_assert_eq!(got.canonical_rows(), baseline.canonical_rows());
        }
        // Parallel, both strategies, at 1 and 4 threads.
        for strategy in [FixpointStrategy::Naive, FixpointStrategy::SemiNaive] {
            for threads in [1usize, 4] {
                let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
                let (got, _) =
                    datalog_eval::evaluate_with_stats_governed(effective, &db, strategy, &ctx)
                        .unwrap();
                prop_assert_eq!(got.canonical_rows(), baseline.canonical_rows());
            }
        }
    }

    #[test]
    fn hypertree_engine_agrees_with_naive_serial_and_parallel(
        q in arb_pure_query(),
        db in arb_db(),
    ) {
        match hypertree::evaluate(&q, &db) {
            // Width past the limit (or no variable atoms): out of the
            // engine's contract; the planner would not route here.
            Err(EngineError::Unsupported(_)) => {}
            Err(e) => prop_assert!(false, "hypertree failed: {}", e),
            Ok(serial) => {
                prop_assert_eq!(&serial, &naive::evaluate(&q, &db).unwrap());
                for threads in [1usize, 4] {
                    let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
                    let par = hypertree::evaluate_governed(&q, &db, &ctx).unwrap();
                    prop_assert!(par == serial, "differs at {} threads", threads);
                }
            }
        }
    }

    #[test]
    fn decompositions_satisfy_the_validity_conditions(hg in arb_hypergraph()) {
        if let Some(d) = decompose(&hg, DEFAULT_WIDTH_LIMIT) {
            // Exact or heuristic, the certificate must verify: every edge in
            // some bag, per-vertex connected subtree, bags inside covers.
            prop_assert!(d.verify(&hg), "invalid decomposition {}", d.shape());
            prop_assert!(d.width() >= 1);
            // Width 1 characterizes acyclicity, and GYO acyclicity always
            // yields an exact width-1 decomposition.
            if join_tree(&hg).is_some() {
                prop_assert_eq!(d.width(), 1);
                prop_assert!(d.is_exact());
            } else {
                prop_assert!(d.width() >= 2);
            }
        }
    }

    #[test]
    fn view_match_verdicts_are_sound(
        q in arb_pure_query(),
        v in arb_pure_query(),
        db in arb_db(),
    ) {
        // Register `v` as a view and analyze `q` against it. Whenever the
        // containment pass claims a match, the claim is checked against
        // the ground truth: π_{j̄}(V(d)) must equal Q(d) on the random
        // database — byte-identical, under the query's own head
        // attributes, exactly as the service's view-scan serves it.
        let opts = AnalyzeOptions {
            views: vec![("v".to_string(), v.clone())],
            ..AnalyzeOptions::default()
        };
        let analysis = analyze(&q, &opts);
        prop_assert!(
            analysis.semantic_key.is_some(),
            "PQA803 must produce a semantic key whenever views are registered"
        );
        if let Some(m) = &analysis.view_match {
            let direct = naive::evaluate(&q, &db).unwrap();
            let view_rows = naive::evaluate(&v, &db).unwrap();
            let mut projected =
                Relation::new(pq_engine::binding::head_attrs(&q.head_terms)).unwrap();
            for t in view_rows.iter() {
                projected
                    .insert(Tuple::new(m.projection.iter().map(|&j| t[j].clone())))
                    .unwrap();
            }
            prop_assert!(
                projected == direct,
                "view-scan differs from direct evaluation"
            );
            if m.exact {
                prop_assert_eq!(view_rows.canonical_rows(), direct.canonical_rows());
            }
            // The parallel evaluation path must agree with the view-scan
            // too (1 and 4 exec threads), where the engine supports `q`.
            match hypertree::evaluate(&q, &db) {
                Err(EngineError::Unsupported(_)) => {}
                Err(e) => prop_assert!(false, "hypertree failed: {}", e),
                Ok(_) => {
                    for threads in [1usize, 4] {
                        let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
                        let par = hypertree::evaluate_governed(&q, &db, &ctx).unwrap();
                        prop_assert!(
                            par == projected,
                            "view-scan differs from parallel evaluation at {} threads",
                            threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_renamed_views_are_matched_and_sound(q in arb_query(), db in arb_db()) {
        // An alpha-renamed copy of `q` under another head name is the
        // equivalence the pass must never miss (modulo minimization having
        // replaced an impure query, where the conservative canonical-form
        // comparison is allowed to pass): PQA801, and the view's answer is
        // byte-for-byte the query's.
        let rename = |t: &Term| match t.as_var() {
            Some(name) => Term::var(format!("y{}", &name[1..])),
            None => t.clone(),
        };
        let renamed = ConjunctiveQuery::new(
            "V",
            q.head_terms.iter().map(&rename),
            q.atoms
                .iter()
                .map(|a| Atom::new(a.relation.clone(), a.terms.iter().map(&rename))),
        )
        .with_neqs(
            q.neqs
                .iter()
                .map(|n| Neq::new(rename(&n.left), rename(&n.right))),
        );
        let opts = AnalyzeOptions {
            views: vec![("v".to_string(), renamed.clone())],
            ..AnalyzeOptions::default()
        };
        let analysis = analyze(&q, &opts);
        if !analysis.provably_empty() && (q.is_pure() || analysis.rewritten.is_none()) {
            prop_assert!(
                analysis.view_match.is_some(),
                "alpha-renamed copy not recognized as equivalent"
            );
        }
        if let Some(m) = &analysis.view_match {
            prop_assert!(m.exact, "a renamed copy can only match as equivalent");
            prop_assert_eq!(
                naive::evaluate(&renamed, &db).unwrap().canonical_rows(),
                naive::evaluate(&q, &db).unwrap().canonical_rows()
            );
        }
    }

    #[test]
    fn acyclicity_verdict_agrees_with_the_join_tree_builder(q in arb_query()) {
        let report = structure_of(&q);
        let hg = q.hypergraph();
        prop_assert_eq!(report.acyclic, join_tree(&hg).is_some());
        // A cycle witness is only ever reported for cyclic queries, and
        // names real atom indices.
        if let Some(w) = &report.cycle_witness {
            prop_assert!(!report.acyclic);
            prop_assert!(w.iter().all(|&i| i < q.atoms.len()));
        }
    }
}
