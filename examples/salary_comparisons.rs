//! Theorem 3's boundary: acyclic conjunctive queries with `<` comparisons.
//!
//! The paper's example — employees earning more than their manager — plus
//! the consistency/collapse preprocessing (Klug) and a demonstration that
//! the Theorem 3 reduction really encodes clique into a comparison query.
//!
//! Run with: `cargo run --release --example salary_comparisons`

use pq_core::analyze::structure_of;
use pq_core::{evaluate, PlannerOptions};
use pq_data::{tuple, Database};
use pq_engine::comparisons;
use pq_query::parse_cq;
use pq_wtheory::graphs::random_graph;
use pq_wtheory::reductions::clique_to_comparisons;

fn main() {
    // The paper's example: G(e) :- EM(e,m), ES(e,s), ES(m,s'), s' < s.
    let mut db = Database::new();
    db.add_table(
        "EM",
        ["emp", "mgr"],
        [
            tuple!["ann", "bob"],
            tuple!["cid", "bob"],
            tuple!["dee", "ann"],
        ],
    )
    .unwrap();
    db.add_table(
        "ES",
        ["emp", "sal"],
        [
            tuple!["ann", 120],
            tuple!["bob", 100],
            tuple!["cid", 90],
            tuple!["dee", 150],
        ],
    )
    .unwrap();

    let q = parse_cq("G(e) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s.").unwrap();
    let r = structure_of(&q);
    println!("query : {q}");
    println!("class : {:?}", r.cell);
    println!("note  : {}", r.summary);
    let ans = evaluate(&q, &db, &PlannerOptions::default()).unwrap();
    println!(
        "answer: {:?}\n",
        ans.tuples()
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
    );

    // Consistency preprocessing in action: implied equalities collapse.
    let q2 = parse_cq("G(e) :- ES(e, s), ES(e, s2), s <= s2, s2 <= s, 100 <= s.").unwrap();
    let collapsed = comparisons::collapse_query(&q2)
        .unwrap()
        .expect("consistent");
    println!("before collapse: {q2}");
    println!("after  collapse: {collapsed}\n");

    // And an inconsistent system is detected outright.
    let q3 = parse_cq("G :- ES(e, s), s < 100, 200 < s.").unwrap();
    assert!(comparisons::collapse_query(&q3).unwrap().is_none());
    println!("inconsistent system detected: {q3}\n");

    // Theorem 3: clique hides inside acyclic comparison queries.
    println!("== Theorem 3 reduction: clique(G, k) as a comparison path query ==\n");
    for seed in 0..3u64 {
        let g = random_graph(6, 0.5, seed + 3);
        let k = 3;
        let (cdb, cq) = clique_to_comparisons::reduce(&g, k);
        let expected = g.has_clique(k);
        let got = pq_engine::naive::is_nonempty(&cq, &cdb).unwrap();
        assert_eq!(expected, got);
        println!(
            "graph #{seed}: {} vertices, {} edges → query with {} atoms, {} comparisons; \
             clique of {k}: {got}",
            g.num_vertices(),
            g.num_edges(),
            cq.atoms.len(),
            cq.comparisons.len()
        );
    }
    println!("\nThe hypergraph of each reduced query is acyclic and the comparison");
    println!("graph is acyclic — yet evaluation is W[1]-complete: the ≠ result of");
    println!("Theorem 2 cannot be extended to order comparisons.");
}
