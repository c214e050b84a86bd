//! Quickstart: build a database, parse queries in rule notation, let the
//! planner place them in the paper's landscape and pick the right engine.
//!
//! Run with: `cargo run --example quickstart`

use pq_core::{evaluate, plan, PlannerOptions};
use pq_data::{tuple, Database};
use pq_query::parse_cq;

fn main() {
    // A small company database.
    let mut db = Database::new();
    db.add_table(
        "EP", // employee–project
        ["emp", "proj"],
        [
            tuple!["ann", "db"],
            tuple!["ann", "web"],
            tuple!["bob", "db"],
            tuple!["cid", "web"],
            tuple!["cid", "ml"],
            tuple!["dee", "ml"],
        ],
    )
    .unwrap();
    db.add_table(
        "EM", // employee–manager
        ["emp", "mgr"],
        [
            tuple!["ann", "bob"],
            tuple!["cid", "bob"],
            tuple!["dee", "ann"],
        ],
    )
    .unwrap();

    let opts = PlannerOptions::default();

    let queries = [
        // Acyclic, pure: who works with whom on a shared project?
        "Pair(e1, e2) :- EP(e1, p), EP(e2, p).",
        // The paper's Section 5 example: employees on more than one project
        // (acyclic + ≠ — Theorem 2 territory).
        "Busy(e) :- EP(e, p), EP(e, p2), p != p2.",
        // Cyclic: a managerial triangle (W[1]-complete territory).
        "Tri :- EM(x, y), EM(y, z), EM(z, x).",
    ];

    for src in queries {
        let q = parse_cq(src).unwrap();
        let p = plan(&q, &opts);
        // The analyzer's structural report the plan was built from.
        let r = &p.analysis.report;
        println!("query    : {q}");
        println!("class    : {:?}  (q = {}, v = {})", r.cell, r.q, r.v);
        println!("verdict  : {}", r.summary);
        println!("engine   : {}", p.engine);
        let answer = evaluate(&q, &db, &opts).unwrap();
        println!("answer   : {} tuple(s)", answer.len());
        for t in answer.iter().take(5) {
            println!("           {t}");
        }
        println!();
    }
}
