//! Integration tests over the "library user" surface: the text loader, the
//! containment/minimization API, the indexed evaluator, the formula-≠
//! extension, and the algebra compiler — the pieces a downstream adopter
//! would touch first.

use pq_data::{parse_database, render_database, tuple};
use pq_engine::colorcoding::{formula_neq, HashFamily, NeqFormula};
use pq_engine::{algebra_compile, containment, naive, naive_indexed};
use pq_query::{parse_cq, parse_fo, Term};

const COMPANY: &str = r#"
% the running company example
EP(emp, proj):
  ann, db
  ann, web
  bob, db
  cid, web
  cid, ml

EM(emp, mgr):
  ann, bob
  cid, bob

ES(emp, sal):
  ann, 120
  bob, 100
  cid, 90
"#;

#[test]
fn load_query_roundtrip() {
    let db = parse_database(COMPANY).unwrap();
    assert_eq!(db.num_relations(), 3);

    // The Section 5 query straight off the loaded data.
    let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let out = pq_core::evaluate(&q, &db, &pq_core::PlannerOptions::default()).unwrap();
    assert_eq!(out.len(), 2);
    assert!(out.contains(&tuple!["ann"]));
    assert!(out.contains(&tuple!["cid"]));

    // Render → parse is lossless.
    let again = parse_database(&render_database(&db)).unwrap();
    assert_eq!(db, again);
}

#[test]
fn indexed_and_plain_naive_agree_on_loaded_data() {
    let db = parse_database(COMPANY).unwrap();
    for src in [
        "G(e) :- EP(e, p), EP(e, p2), p != p2.",
        "G(e, m) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s.",
        "G(p) :- EP(e, p), EP(e2, p), e != e2.",
    ] {
        let q = parse_cq(src).unwrap();
        assert_eq!(
            naive::evaluate(&q, &db).unwrap(),
            naive_indexed::evaluate(&q, &db).unwrap(),
            "{src}"
        );
    }
}

#[test]
fn containment_api_on_project_queries() {
    // "shares a project with someone" contains "shares a project with two
    // different people".
    let weak = parse_cq("G(e) :- EP(e, p), EP(e2, p).").unwrap();
    let strong = parse_cq("G(e) :- EP(e, p), EP(e2, p), EP(e3, p).").unwrap();
    assert!(containment::contained_in(&strong, &weak).unwrap());
    assert!(
        containment::equivalent(&weak, &strong).unwrap(),
        "both fold to one atom's shape"
    );
    // Minimization collapses the redundancy.
    let m = containment::minimize(&strong).unwrap();
    assert_eq!(m.atoms.len(), 1);
}

#[test]
fn formula_neq_extension_on_loaded_data() {
    let db = parse_database(COMPANY).unwrap();
    // Employees e whose (project, manager) pair satisfies p ≠ "db" ∨ m ≠ "bob".
    let q = parse_cq("G(e) :- EP(e, p), EM(e, m).").unwrap();
    let phi = NeqFormula::Or(vec![
        NeqFormula::neq(Term::var("p"), Term::cons("db")),
        NeqFormula::neq(Term::var("m"), Term::cons("bob")),
    ]);
    let ctx = pq_engine::ExecutionContext::unlimited();
    let fast = formula_neq::evaluate(&q, &phi, &db, &HashFamily::Perfect, &ctx).unwrap();
    let slow = formula_neq::evaluate_naive(&q, &phi, &db).unwrap();
    assert_eq!(fast, slow);
    // ann works on web (≠ db) → qualifies; cid works on web and ml → qualifies.
    assert!(fast.contains(&tuple!["ann"]));
    assert!(fast.contains(&tuple!["cid"]));
}

#[test]
fn algebra_plans_execute_and_explain() {
    let db = parse_database(COMPANY).unwrap();
    // Employees who manage no one (as an FO query with negation).
    let q = parse_fo("G(e) := exists p. EP(e, p) & !exists x. EM(x, e)").unwrap();
    let plan = algebra_compile::compile(&q.formula);
    let text = plan.to_string();
    assert!(text.contains("complement"));
    let out = algebra_compile::evaluate(&q, &db).unwrap();
    let expected = pq_engine::fo_eval::evaluate(&q, &db).unwrap();
    assert_eq!(out.canonical_rows(), expected.canonical_rows());
    // bob manages; ann and cid do not.
    assert!(out.contains(&tuple!["ann"]));
    assert!(out.contains(&tuple!["cid"]));
    assert!(!out.contains(&tuple!["bob"]));
}

#[test]
fn classifier_reports_are_stable_across_surfaces() {
    let db = parse_database(COMPANY).unwrap();
    let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let c = pq_core::classify(&q);
    assert_eq!(c.class, pq_core::CqClass::AcyclicNeq);
    let plan = pq_core::plan(&q, &pq_core::PlannerOptions::default());
    assert!(plan.engine.contains("colorcoding"));
    // And the planner's answer matches the oracle on the loaded data.
    assert_eq!(
        pq_core::evaluate(&q, &db, &pq_core::PlannerOptions::default()).unwrap(),
        naive::evaluate(&q, &db).unwrap()
    );
}
