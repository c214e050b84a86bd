//! Integration tests spanning all crates: parse → analyze → plan →
//! evaluate, with every engine cross-checked against the naive oracle on a
//! shared workload battery.

use pq_core::analyze::{structure_of, FigCell};
use pq_core::{evaluate, is_nonempty, lower_bound, plan, PlannerOptions};
use pq_data::{tuple, Database};
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::{naive, yannakakis};
use pq_query::{parse_cq, QueryMetrics};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn company_db(seed: u64, n_emp: usize) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut ep = Vec::new();
    let mut em = Vec::new();
    let mut es = Vec::new();
    for e in 0..n_emp {
        for _ in 0..rng.gen_range(1..=3) {
            ep.push(tuple![format!("e{e}"), format!("p{}", rng.gen_range(0..8))]);
        }
        em.push(tuple![
            format!("e{e}"),
            format!("e{}", rng.gen_range(0..n_emp))
        ]);
        es.push(tuple![format!("e{e}"), rng.gen_range(50..150i64)]);
    }
    db.add_table("EP", ["e", "p"], ep).unwrap();
    db.add_table("EM", ["e", "m"], em).unwrap();
    db.add_table("ES", ["e", "s"], es).unwrap();
    db
}

/// Every query of the battery, through the planner, must agree with naive.
#[test]
fn planner_agrees_with_oracle_on_battery() {
    let battery = [
        "G(e) :- EP(e, p).",
        "G(e, p) :- EP(e, p), EM(e, m).",
        "G(e) :- EP(e, p), EP(e, p2), p != p2.",
        "G(e) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s.",
        "G(e) :- EM(e, m), EP(e, p), EP(m, p2), p != p2.",
        "G :- EM(x, y), EM(y, z), EM(z, x).",
        "G(e) :- EP(e, p), EP(e, p2), EP(e, p3), p != p2, p != p3, p2 != p3.",
        "G(e, m) :- EM(e, m), e != m.",
        "G(e) :- ES(e, s), 100 <= s.",
    ];
    let opts = PlannerOptions::default();
    for seed in 0..3 {
        let db = company_db(seed, 12);
        for src in battery {
            let q = parse_cq(src).unwrap();
            let fast = evaluate(&q, &db, &opts).unwrap();
            let slow = naive::evaluate(&q, &db).unwrap();
            assert_eq!(fast, slow, "seed {seed}: {src}");
            assert_eq!(
                is_nonempty(&q, &db, &opts).unwrap(),
                !slow.is_empty(),
                "seed {seed}: {src}"
            );
        }
    }
}

/// Theorem 2's engine with the deterministic k-perfect family is *exact* on
/// randomly generated acyclic ≠ queries over star/chain shapes.
#[test]
fn colorcoding_exactness_on_random_star_queries() {
    let mut rng = StdRng::seed_from_u64(1234);
    for trial in 0..10 {
        let n_vals = rng.gen_range(3..7);
        let mut db = Database::new();
        let mut rows = Vec::new();
        for _ in 0..rng.gen_range(5..20) {
            rows.push(tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
        }
        db.add_table("R", ["c", "x"], rows).unwrap();
        // Star: center c with three leaves pairwise ≠ (k = 3).
        let q = parse_cq("G(c) :- R(c, a), R(c, b), R(c, d), a != b, a != d, b != d.").unwrap();
        let exact = colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let oracle = naive::evaluate(&q, &db).unwrap();
        assert_eq!(exact, oracle, "trial {trial}");
    }
}

/// The analyzer's cell and the planner's engine choice are consistent,
/// and the report's parameters match the metrics.
#[test]
fn classification_is_consistent_with_metrics() {
    let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let r = structure_of(&q);
    assert_eq!(r.q, q.size());
    assert_eq!(r.v, q.num_variables());
    assert_eq!(r.cell, FigCell::AcyclicNeq);
    assert_eq!(lower_bound(r.cell), None);
    let p = plan(&q, &PlannerOptions::default());
    assert!(p.engine.contains("colorcoding"));
}

/// Yannakakis and naive agree on pure acyclic queries over randomized data
/// (the [18] baseline the paper builds on).
#[test]
fn yannakakis_oracle_agreement_randomized() {
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..10 {
        let n_vals = rng.gen_range(3..8);
        let mut db = Database::new();
        for name in ["A", "B", "C"] {
            let mut rows = Vec::new();
            for _ in 0..rng.gen_range(5..25) {
                rows.push(tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
            }
            db.add_table(name, ["x", "y"], rows).unwrap();
        }
        for src in [
            "G(a, c) :- A(a, b), B(b, c).",
            "G(a, d) :- A(a, b), B(b, c), C(c, d).",
            "G(b) :- A(a, b), B(b, c), C(b, d).",
            "G :- A(x, y), B(y, z).",
        ] {
            let q = parse_cq(src).unwrap();
            let fast = yannakakis::evaluate(&q, &db).unwrap();
            let slow = naive::evaluate(&q, &db).unwrap();
            assert_eq!(fast, slow, "trial {trial}: {src}");
        }
    }
}

/// Decision problems through all three engines simultaneously.
#[test]
fn decision_problem_cross_engine() {
    let db = company_db(9, 10);
    let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let opts = PlannerOptions::default();
    let all = naive::evaluate(&q, &db).unwrap();
    for e in 0..10 {
        let t = tuple![format!("e{e}")];
        let expected = all.contains(&t);
        assert_eq!(naive::decide(&q, &db, &t).unwrap(), expected);
        assert_eq!(
            colorcoding::decide(&q, &db, &t, &ColorCodingOptions::default()).unwrap(),
            expected
        );
        assert_eq!(pq_core::decide(&q, &db, &t, &opts).unwrap(), expected);
    }
}

/// The umbrella crate re-exports compose.
#[test]
fn umbrella_reexports() {
    let _ = pyq::core::PlannerOptions::default();
    let g = pyq::wtheory::graphs::random_graph(5, 0.5, 1);
    assert_eq!(g.num_vertices(), 5);
}
