//! Property-based tests (proptest) on the core invariants:
//!
//! * relational-algebra laws,
//! * GYO/join-tree invariants,
//! * parser round-trips,
//! * engine agreement (Yannakakis ≡ naive, color-coding ≡ naive) on
//!   generated acyclic queries and databases,
//! * reduction equivalences on generated graphs.

use proptest::prelude::*;

use pq_core::{evaluate as planner_evaluate, PlannerOptions};
use pq_data::{tuple, Database, Relation, Tuple, Value};
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::{naive, yannakakis};
use pq_hypergraph::{join_tree, Hypergraph};
use pq_query::parse_cq;
use pq_wtheory::graphs::Graph;
use pq_wtheory::reductions::{clique_to_cq, cq_to_w2cnf};
use pq_wtheory::weighted_sat::has_weighted_cnf_sat;

/// A relation over two columns with small integer values.
fn arb_relation2(attrs: [&'static str; 2], max_val: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..max_val, 0..max_val), 0..18).prop_map(move |rows| {
        Relation::with_tuples(attrs, rows.into_iter().map(|(a, b)| tuple![a, b])).unwrap()
    })
}

fn arb_graph(n: usize) -> impl Strategy<Value = Graph> {
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .collect();
    prop::collection::vec(any::<bool>(), pairs.len()).prop_map(move |mask| {
        let mut g = Graph::new(n);
        for (on, &(a, b)) in mask.iter().zip(&pairs) {
            if *on {
                g.add_edge(a, b);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- algebra laws ----

    #[test]
    fn join_is_commutative_as_a_set(r in arb_relation2(["a", "b"], 5),
                                    s in arb_relation2(["b", "c"], 5)) {
        let rs = r.natural_join(&s).unwrap();
        let sr = s.natural_join(&r).unwrap();
        // Same tuples up to column order: project both onto a fixed order.
        let rs_p = rs.project(&["a", "b", "c"]).unwrap();
        let sr_p = sr.project(&["a", "b", "c"]).unwrap();
        prop_assert_eq!(rs_p, sr_p);
    }

    #[test]
    fn semijoin_is_join_then_project(r in arb_relation2(["a", "b"], 5),
                                     s in arb_relation2(["b", "c"], 5)) {
        let semi = r.semijoin(&s);
        let via_join = r.natural_join(&s).unwrap().project(&["a", "b"]).unwrap();
        prop_assert_eq!(semi, via_join);
    }

    #[test]
    fn semijoin_antijoin_partition(r in arb_relation2(["a", "b"], 5),
                                   s in arb_relation2(["b", "c"], 5)) {
        let semi = r.semijoin(&s);
        let anti = r.antijoin(&s);
        prop_assert_eq!(semi.len() + anti.len(), r.len());
        prop_assert!(semi.union(&anti).unwrap().set_eq(&r));
    }

    #[test]
    fn union_intersect_difference_laws(r in arb_relation2(["a", "b"], 4),
                                       s in arb_relation2(["a", "b"], 4)) {
        let u = r.union(&s).unwrap();
        let i = r.intersect(&s).unwrap();
        let d_rs = r.difference(&s).unwrap();
        let d_sr = s.difference(&r).unwrap();
        // |R ∪ S| = |R − S| + |S − R| + |R ∩ S|
        prop_assert_eq!(u.len(), d_rs.len() + d_sr.len() + i.len());
        // R ∩ S ⊆ R
        prop_assert!(i.iter().all(|t| r.contains(t)));
    }

    #[test]
    fn projection_is_idempotent(r in arb_relation2(["a", "b"], 5)) {
        let p1 = r.project(&["a"]).unwrap();
        let p2 = p1.project(&["a"]).unwrap();
        prop_assert_eq!(p1, p2);
    }

    // ---- hypergraph invariants ----

    #[test]
    fn gyo_join_trees_always_verify(edges in prop::collection::vec(
        prop::collection::btree_set(0usize..6, 1..4), 1..6)) {
        let hg = Hypergraph::from_edges(
            edges.iter().map(|e| e.iter().map(|v| format!("v{v}")).collect::<Vec<_>>()),
        );
        if let Some(t) = join_tree(&hg) {
            prop_assert!(t.verify(&hg), "GYO produced an invalid join tree");
        }
    }

    #[test]
    fn chains_are_always_acyclic(len in 1usize..8) {
        let hg = Hypergraph::from_edges(
            (0..len).map(|i| vec![format!("x{i}"), format!("x{}", i + 1)]),
        );
        prop_assert!(join_tree(&hg).is_some());
    }

    // ---- parser round-trip ----

    #[test]
    fn cq_display_parse_round_trip(n_atoms in 1usize..4, n_neq in 0usize..3) {
        let vars = ["x", "y", "z", "w"];
        let mut src = String::from("G(x) :- ");
        for i in 0..n_atoms {
            if i > 0 { src.push_str(", "); }
            src.push_str(&format!("R{}({}, {})", i, vars[i % 4], vars[(i + 1) % 4]));
        }
        // always mention x so the head is safe
        src.push_str(", R0(x, y)");
        for i in 0..n_neq {
            src.push_str(&format!(", {} != {}", vars[i % 4], vars[(i + 2) % 4]));
        }
        src.push('.');
        let q = parse_cq(&src).unwrap();
        let q2 = parse_cq(&q.to_string()).unwrap();
        prop_assert_eq!(q, q2);
    }

    // ---- engine agreement ----

    #[test]
    fn yannakakis_equals_naive_on_chains(r in arb_relation2(["a", "b"], 4),
                                         s in arb_relation2(["b", "c"], 4),
                                         t in arb_relation2(["c", "d"], 4)) {
        let mut db = Database::new();
        db.set_relation("R", r);
        db.set_relation("S", s);
        db.set_relation("T", t);
        let q = parse_cq("G(a, d) :- R(a, b), S(b, c), T(c, d).").unwrap();
        prop_assert_eq!(
            yannakakis::evaluate(&q, &db).unwrap(),
            naive::evaluate(&q, &db).unwrap()
        );
    }

    #[test]
    fn colorcoding_equals_naive_on_neq_chains(r in arb_relation2(["a", "b"], 4),
                                              s in arb_relation2(["b", "c"], 4)) {
        let mut db = Database::new();
        db.set_relation("R", r);
        db.set_relation("S", s);
        // a and c never co-occur → a genuine I1 inequality (k = 2).
        let q = parse_cq("G(a, c) :- R(a, b), S(b, c), a != c.").unwrap();
        let cc = colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let oracle = naive::evaluate(&q, &db).unwrap();
        prop_assert_eq!(cc, oracle);
    }

    #[test]
    fn colorcoding_never_reports_false_positives(r in arb_relation2(["a", "b"], 3)) {
        // Randomized mode with few trials: may miss answers, never invents.
        let mut db = Database::new();
        db.set_relation("R", r);
        let q = parse_cq("G :- R(a, b), R(b, c), a != c.").unwrap();
        let opts = ColorCodingOptions::randomized_trials(3, 99);
        if colorcoding::is_nonempty(&q, &db, &opts).unwrap() {
            prop_assert!(naive::is_nonempty(&q, &db).unwrap());
        }
    }

    // ---- reduction equivalences ----

    #[test]
    fn clique_reduction_iff(g in arb_graph(6), k in 2usize..4) {
        let (db, q) = clique_to_cq::reduce(&g, k);
        prop_assert_eq!(g.has_clique(k), naive::is_nonempty(&q, &db).unwrap());
    }

    #[test]
    fn w2cnf_reduction_iff(g in arb_graph(5)) {
        let (db, q) = clique_to_cq::reduce(&g, 3);
        let inst = cq_to_w2cnf::reduce(&q, &db).unwrap();
        prop_assert_eq!(
            naive::is_nonempty(&q, &db).unwrap(),
            has_weighted_cnf_sat(&inst.cnf, inst.k)
        );
    }

    // ---- data-model basics ----

    #[test]
    fn tuple_project_preserves_values(vals in prop::collection::vec(0i64..100, 1..6)) {
        let t = Tuple::new(vals.iter().map(|&v| Value::int(v)));
        let all: Vec<usize> = (0..vals.len()).collect();
        prop_assert_eq!(t.project(&all), t);
    }

    #[test]
    fn relation_dedup(rows in prop::collection::vec((0i64..3, 0i64..3), 0..20)) {
        let r = Relation::with_tuples(["a", "b"],
            rows.iter().map(|&(a, b)| tuple![a, b])).unwrap();
        let distinct: std::collections::BTreeSet<_> = rows.iter().collect();
        prop_assert_eq!(r.len(), distinct.len());
    }
}

// ---- randomly shaped acyclic queries (tree-structured by construction) ----

/// A specification for a random tree-shaped acyclic query: each atom shares
/// exactly one variable with its parent atom and owns one private variable,
/// so the hypergraph has the atom tree as a join tree.
#[derive(Debug, Clone)]
struct TreeQuerySpec {
    /// parent[i] < i for i ≥ 1.
    parents: Vec<usize>,
    /// Inequality pairs as (atom index, atom index): the private variables
    /// of two distinct atoms never co-occur → genuine I1 atoms.
    neq_pairs: Vec<(usize, usize)>,
    rows_per_relation: usize,
    num_values: i64,
    seed: u64,
}

fn arb_tree_query(max_atoms: usize) -> impl Strategy<Value = TreeQuerySpec> {
    (2..=max_atoms)
        .prop_flat_map(|n| {
            let parents = (1..n).map(|i| 0..i).collect::<Vec<_>>();
            (
                parents,
                prop::collection::vec((0..n, 0..n), 0..3),
                4usize..16,
                2i64..6,
                any::<u64>(),
            )
        })
        .prop_map(|(parents, raw_pairs, rows, vals, seed)| TreeQuerySpec {
            neq_pairs: raw_pairs.into_iter().filter(|(a, b)| a != b).collect(),
            parents,
            rows_per_relation: rows,
            num_values: vals,
            seed,
        })
}

fn build_tree_query(spec: &TreeQuerySpec) -> (pq_query::ConjunctiveQuery, Database) {
    use pq_query::{Atom, ConjunctiveQuery, Neq, Term};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let n = spec.parents.len() + 1;
    // Atom i has variables: link(i) shared with parent, priv(i) its own.
    let link = |i: usize| format!("l{i}");
    let private = |i: usize| format!("p{i}");
    let mut atoms = Vec::new();
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    for i in 0..n {
        let vars: Vec<String> = if i == 0 {
            vec![private(0), link(0)]
        } else {
            // shares the parent's private variable, plus its own two.
            vec![private(spec.parents[i - 1]), private(i), link(i)]
        };
        let rel = format!("T{i}");
        atoms.push(Atom::new(&rel, vars.iter().map(Term::var)));
        let arity = vars.len();
        let rows = (0..spec.rows_per_relation)
            .map(|_| Tuple::new((0..arity).map(|_| Value::int(rng.gen_range(0..spec.num_values)))));
        let attrs: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
        db.set_relation(rel, Relation::with_tuples(attrs, rows).unwrap());
    }
    let neqs = spec
        .neq_pairs
        .iter()
        .map(|&(a, b)| Neq::new(Term::var(private(a)), Term::var(private(b))))
        .collect::<Vec<_>>();
    let q = ConjunctiveQuery::new("G", [Term::var(private(0))], atoms).with_neqs(neqs);
    (q, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tree_queries_are_acyclic(spec in arb_tree_query(5)) {
        let (q, _db) = build_tree_query(&spec);
        prop_assert!(q.is_acyclic());
    }

    #[test]
    fn yannakakis_equals_naive_on_tree_queries(spec in arb_tree_query(5)) {
        let (mut q, db) = build_tree_query(&spec);
        q.neqs.clear();
        prop_assert_eq!(
            yannakakis::evaluate(&q, &db).unwrap(),
            naive::evaluate(&q, &db).unwrap()
        );
    }

    #[test]
    fn colorcoding_equals_naive_on_tree_queries(spec in arb_tree_query(4)) {
        let (q, db) = build_tree_query(&spec);
        // Keep k small so the deterministic family stays cheap.
        let hg = q.hypergraph();
        let k = pq_engine::colorcoding::NeqPartition::build(&q, &hg).k();
        prop_assume!(k <= 3);
        let cc = colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let oracle = naive::evaluate(&q, &db).unwrap();
        prop_assert_eq!(cc, oracle);
    }

    #[test]
    fn planner_equals_naive_on_tree_queries(spec in arb_tree_query(4)) {
        let (q, db) = build_tree_query(&spec);
        let opts = PlannerOptions { deterministic_k_limit: 3, ..Default::default() };
        let hg = q.hypergraph();
        let k = pq_engine::colorcoding::NeqPartition::build(&q, &hg).k();
        prop_assume!(k <= 3); // randomized mode may undercount; keep exact
        prop_assert_eq!(
            planner_evaluate(&q, &db, &opts).unwrap(),
            naive::evaluate(&q, &db).unwrap()
        );
    }
}
