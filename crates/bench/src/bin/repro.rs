//! `repro` — regenerate every table and figure of Papadimitriou &
//! Yannakakis, *On the Complexity of Database Queries* (PODS 1997).
//!
//! ```text
//! repro fig1         Fig. 1: the four parameterizations and Proposition 1
//! repro thm1         Theorem 1: the classification table, each cell verified
//! repro thm2         Theorem 2: f.p. tractability of acyclic CQs with ≠
//! repro thm3         Theorem 3: W[1]-completeness with < comparisons
//! repro yannakakis   The acyclic baseline [18] that Theorem 2 extends
//! repro datalog      Section 4: fixed-arity Datalog / bottom-up evaluation
//! repro extensions   The closing remarks: formula-≠, AW[P], AW[SAT], Datalog/W[1]
//! repro service      pq-service cache levels: cold vs plan-warm vs result-warm
//! repro analyze      pq-analyze: core minimization on redundant-atom workloads
//! repro analyze-datalog  pq-analyze: whole-program rewrite (dead-rule pruning +
//!                    rule minimization) vs evaluating the program as written
//! repro parallel     pq-exec: intra-query parallel speedup at 1/2/4/8 threads
//! repro recovery     pq-service: crash-recovery time vs WAL length and
//!                    snapshot cadence
//! repro ivm          pq-ivm: single-row delta maintenance vs full recompute
//!                    for live transitive-closure and join views
//! repro hypertree    pq-engine::hypertree: bounded-width cyclic CQs vs the
//!                    naive engine
//! repro count        pq-count: exact answer counting without enumeration vs
//!                    enumerate-then-count on chains with exponential answer
//!                    sets
//! repro rewrite      pq-analyze/pq-service: answering queries from
//!                    materialized views (the PQA8xx containment pass) vs
//!                    cold evaluation
//! repro all          Everything above, in order
//! ```
//!
//! Absolute numbers are machine-dependent; the *shapes* (who wins, fitted
//! exponents, where crossovers fall) are the reproduction targets recorded
//! in EXPERIMENTS.md. The last three print ratio tables only; the absolute
//! numbers for the same engines are the `lib-scale` families and the
//! `wire-write` view share of `benchmark/` (see EXPERIMENTS.md E16–E18).

use std::time::Duration;

use pq_bench::measure::{fit_log_log_slope, fmt_duration, time_min, time_once};
use pq_bench::workloads;
use pq_data::Database;
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::{fo_eval, naive, positive_eval, yannakakis};
use pq_query::QueryMetrics;
use pq_wtheory::formula::BoolFormula;
use pq_wtheory::graphs::random_graph;
use pq_wtheory::parametric::{theorem1_table, ParamVariant};
use pq_wtheory::reductions::{
    circuit_to_fo, clique_to_comparisons, clique_to_cq, cq_to_w2cnf, hampath_to_neq,
    wformula_positive,
};
use pq_wtheory::weighted_sat::{has_weighted_cnf_sat, weighted_formula_sat_n};
use pq_wtheory::{Circuit, Gate};

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match cmd.as_str() {
        "fig1" => fig1(),
        "thm1" => thm1(),
        "thm2" => thm2(),
        "thm3" => thm3(),
        "yannakakis" => yannakakis_exp(),
        "datalog" => datalog_exp(),
        "extensions" => extensions(),
        "service" => service_exp(),
        "analyze" => analyze_exp(),
        "analyze-datalog" => analyze_datalog_exp(),
        "parallel" => parallel_exp(),
        "recovery" => recovery_exp(),
        "ivm" => ivm_exp(),
        "hypertree" => hypertree_exp(),
        "count" => count_exp(),
        "rewrite" => rewrite_exp(),
        "all" => {
            fig1();
            thm1();
            thm2();
            thm3();
            yannakakis_exp();
            datalog_exp();
            extensions();
            service_exp();
            analyze_exp();
            analyze_datalog_exp();
            parallel_exp();
            recovery_exp();
            ivm_exp();
            hypertree_exp();
            count_exp();
            rewrite_exp();
        }
        other => {
            eprintln!("unknown experiment `{other}`; see the module docs for the list");
            std::process::exit(2);
        }
    }
}

fn header(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

// ------------------------------------------------------------------ fig1 --

fn fig1() {
    header("Fig. 1 — the four parameterized query-evaluation problems (E1)");
    println!(
        r#"
              (v, variable schema)          <- most general
               /                \
   (q, variable schema)   (v, fixed schema)
               \                /
              (q, fixed schema)             <- hardness proved here suffices
"#
    );
    println!("Proposition 1: the identity map is a parametric reduction along every");
    println!("upward arc (v(Q) <= q(Q); a fixed-schema instance is a variable-schema");
    println!("instance). Checking upward closure of hardness over all 16 ordered");
    println!("pairs with the Theorem 1 hardness predicate (all four variants W[1]-");
    println!("hard for conjunctive queries):");
    let violations = ParamVariant::proposition1_violations(|_| true);
    println!("  violations found: {}  (expected 0)", violations.len());

    // Demonstrate the identity reduction concretely: one hard instance
    // replayed across the variants, parameters reported.
    let g = random_graph(12, 0.4, 1);
    let (db, q) = clique_to_cq::reduce(&g, 3);
    let ans = naive::is_nonempty(&q, &db).unwrap();
    println!("\nSample instance: clique-3 query on G(12, .4); answer {ans}.");
    println!("  as (q, .): parameter q = {}", q.size());
    println!(
        "  as (v, .): parameter v = {}  (v <= q ok)",
        q.num_variables()
    );
    println!("  schema: 1 binary relation — already fixed-schema");
}

// ------------------------------------------------------------------ thm1 --

fn thm1() {
    header("Theorem 1 — the classification table (E2, E3, E4)");
    println!("\nPaper's table:");
    println!(
        "{:>14} | {:^22} | {:^22}",
        "language", "parameter q", "parameter v"
    );
    println!("{:-<14}-+-{:-<22}-+-{:-<22}", "", "", "");
    for row in theorem1_table() {
        println!(
            "{:>14} | {:^22} | {:^22}",
            row.language, row.param_q, row.param_v
        );
    }

    // --- Row 1: conjunctive (E2) -----------------------------------------
    // R1 is cheap to verify at k = 4; the R2 ground truth enumerates
    // C(vars, k) weight-k assignments, so its battery stays at k ≤ 3 on
    // 6-vertex graphs (the exhaustive solver *is* the n^k phenomenon).
    println!("\n[Conjunctive] R1 (clique -> CQ) on G(8, .45), k = 2..4, and");
    println!("R2 (CQ -> weighted 2-CNF) on G(6, .45), k = 2..3:");
    let mut r1_ok = 0;
    let mut r1_total = 0;
    for seed in 0..20u64 {
        let g = random_graph(8, 0.45, seed);
        for k in 2..=4 {
            r1_total += 1;
            let (db, q) = clique_to_cq::reduce(&g, k);
            if naive::is_nonempty(&q, &db).unwrap() == g.has_clique(k) {
                r1_ok += 1;
            }
        }
    }
    let mut r2_ok = 0;
    let mut r2_total = 0;
    for seed in 0..20u64 {
        let g = random_graph(6, 0.45, seed);
        for k in 2..=3 {
            r2_total += 1;
            let (db, q) = clique_to_cq::reduce(&g, k);
            let inst = cq_to_w2cnf::reduce(&q, &db).unwrap();
            if has_weighted_cnf_sat(&inst.cnf, inst.k) == g.has_clique(k) {
                r2_ok += 1;
            }
        }
    }
    println!("  R1 agreement: {r1_ok}/{r1_total}   R2 agreement: {r2_ok}/{r2_total}");

    println!("\n  n^k scaling of the generic evaluator on the clique query");
    println!("  (full enumeration — every satisfying instantiation is found;");
    println!("  fitted log-log slope of time vs n should grow with k):");
    for k in [2usize, 3] {
        let mut pts = Vec::new();
        let sizes: &[usize] = if k == 2 {
            &[24, 48, 96, 192]
        } else {
            &[24, 48, 96]
        };
        for &n in sizes {
            let (db, q) = workloads::clique_instance(n, 0.3, k, 5);
            let d = time_min(2, || naive::evaluate(&q, &db).unwrap().len());
            pts.push((n as f64, d.as_secs_f64()));
        }
        println!(
            "    k = {k}: slope = {:+.2}   ({})",
            fit_log_log_slope(&pts),
            pts.iter()
                .map(|(n, t)| format!("n={n}: {}", fmt_duration(Duration::from_secs_f64(*t))))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- Row 2: positive (E3) --------------------------------------------
    println!("\n[Positive] R5 (weighted formula sat -> positive query) on random");
    println!("NNF formulas, and R6 (prenex positive -> weighted formula sat):");
    let mut r5_ok = 0;
    let mut r6_ok = 0;
    let mut total = 0;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..12 {
        let n = rng.gen_range(2..5usize);
        let phi = random_nnf(n, 2, &mut rng);
        for k in 1..=2.min(n) {
            total += 1;
            let truth = weighted_formula_sat_n(&phi, n, k).is_some();
            let inst = wformula_positive::wformula_to_positive(&phi, n, k).expect("n covers φ");
            let via_query = positive_eval::query_holds(&inst.query, &inst.database).unwrap();
            if via_query == truth {
                r5_ok += 1;
            }
            let back = wformula_positive::prenex_positive_to_wformula(&inst.query, &inst.database)
                .unwrap();
            if weighted_formula_sat_n(&back.formula, back.num_vars, back.k).is_some() == truth {
                r6_ok += 1;
            }
        }
    }
    println!("  R5 agreement: {r5_ok}/{total}   R6 agreement: {r6_ok}/{total}");

    // --- Row 3: first-order (E4) ------------------------------------------
    println!("\n[First-order] R7 (monotone circuit sat -> FO theta-tower query):");
    let mut r7_ok = 0;
    let mut total = 0;
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..8 {
        let n = rng.gen_range(2..4usize);
        let c = random_monotone_circuit(n, &mut rng);
        for k in 1..=n {
            total += 1;
            let inst = circuit_to_fo::reduce(&c, k).expect("monotone");
            let lhs = pq_wtheory::weighted_sat::has_weighted_circuit_sat(&c, k);
            let rhs = fo_eval::query_holds(&inst.query, &inst.database).unwrap();
            if lhs == rhs {
                r7_ok += 1;
            }
        }
    }
    println!("  R7 agreement: {r7_ok}/{total}");
    let c = deep_circuit(6);
    for k in [1usize, 2] {
        let inst = circuit_to_fo::reduce(&c, k).unwrap();
        println!(
            "  depth-{} circuit, k = {k}: query size {} (grows with t), variables {} (= k + 2)",
            c.depth(),
            inst.query.size(),
            inst.query.num_variables()
        );
    }
}

fn random_nnf(n: usize, depth: usize, rng: &mut rand::rngs::StdRng) -> BoolFormula {
    use rand::Rng;
    if depth == 0 || rng.gen_bool(0.3) {
        return BoolFormula::Lit(rng.gen_range(0..n), rng.gen_bool(0.6));
    }
    let kids: Vec<BoolFormula> = (0..rng.gen_range(2..4))
        .map(|_| random_nnf(n, depth - 1, rng))
        .collect();
    if rng.gen_bool(0.5) {
        BoolFormula::And(kids)
    } else {
        BoolFormula::Or(kids)
    }
}

fn random_monotone_circuit(n: usize, rng: &mut rand::rngs::StdRng) -> Circuit {
    use rand::Rng;
    let mut gates: Vec<Gate> = (0..n).map(Gate::Input).collect();
    for _ in 0..rng.gen_range(2..5) {
        let width = rng.gen_range(2..4).min(gates.len());
        let mut ops = Vec::new();
        while ops.len() < width {
            let o = rng.gen_range(0..gates.len());
            if !ops.contains(&o) {
                ops.push(o);
            }
        }
        if rng.gen_bool(0.5) {
            gates.push(Gate::And(ops));
        } else {
            gates.push(Gate::Or(ops));
        }
    }
    let out = gates.len() - 1;
    Circuit::new(n, gates, out)
}

fn deep_circuit(layers: usize) -> Circuit {
    let mut gates: Vec<Gate> = vec![Gate::Input(0), Gate::Input(1)];
    let mut prev = 0;
    for i in 0..layers {
        let next = gates.len();
        if i % 2 == 0 {
            gates.push(Gate::And(vec![prev, 1]));
        } else {
            gates.push(Gate::Or(vec![prev, 1]));
        }
        prev = next;
    }
    let out = gates.len();
    gates.push(Gate::Or(vec![prev]));
    Circuit::new(2, gates, out)
}

// ------------------------------------------------------------------ thm2 --

fn thm2() {
    header("Theorem 2 — acyclic CQs with != are f.p. tractable (E5)");

    // (a) correctness spot check against the oracle.
    let q = workloads::outside_department_query();
    let db = workloads::university_database(300, 40, 2);
    let fast = colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
    let slow = naive::evaluate(&q, &db).unwrap();
    println!("\nSection 5 query: {q}");
    println!(
        "correctness vs naive oracle on 300-student university: {} ({} answers)",
        if fast == slow { "agree" } else { "DISAGREE" },
        fast.len()
    );

    // (b) n-sweep at fixed k = 2: near-linear (slope ~ 1).
    println!("\nn-sweep (k = 2, deterministic log-size 2-perfect family):");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "students", "colorcoding", "naive", "answers"
    );
    let mut pts_cc = Vec::new();
    let mut pts_nv = Vec::new();
    for n in [400usize, 800, 1600, 3200] {
        let db = workloads::university_database(n, 40, 42);
        let (out, d_cc) =
            time_once(|| colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap());
        let d_nv = time_min(1, || naive::evaluate(&q, &db).unwrap());
        pts_cc.push((n as f64, d_cc.as_secs_f64()));
        pts_nv.push((n as f64, d_nv.as_secs_f64()));
        println!(
            "{:>10} {:>12} {:>12} {:>8}",
            n,
            fmt_duration(d_cc),
            fmt_duration(d_nv),
            out.len()
        );
    }
    println!(
        "fitted n-exponent: colorcoding = {:+.2}, naive = {:+.2}",
        fit_log_log_slope(&pts_cc),
        fit_log_log_slope(&pts_nv)
    );

    // (c) k-sweep at fixed n: exponential in k, flat in the n-exponent.
    println!("\nk-sweep (chain of 6 relations, 600 tuples each, randomized ceil(3e^k) trials):");
    println!("{:>4} {:>8} {:>14}", "k", "trials", "emptiness time");
    for span in [1usize, 2, 3, 4] {
        let q = workloads::chain_neq_query(6, span);
        let hg = q.hypergraph();
        let k = pq_engine::colorcoding::NeqPartition::build(&q, &hg).k();
        let trials = pq_engine::colorcoding::HashFamily::suggested_trials(k, 3.0);
        let db = workloads::chain_database(6, 600, 40, 9);
        let opts = ColorCodingOptions::randomized(k, 3.0, 2);
        let d = time_min(2, || colorcoding::is_nonempty(&q, &db, &opts).unwrap());
        println!("{:>4} {:>8} {:>14}", k, trials, fmt_duration(d));
    }

    // (d) the combined-complexity context: Hamiltonian path (R8).
    println!("\nCombined-complexity context (R8): Hamiltonian path as an acyclic !=");
    println!("query — the query grows with the graph, so NP-hardness is expected:");
    let mut agree = 0;
    for seed in 0..6u64 {
        let g = random_graph(6, 0.4, seed + 50);
        let (db, q) = hampath_to_neq::reduce(&g);
        if naive::is_nonempty(&q, &db).unwrap() == g.has_hamiltonian_path() {
            agree += 1;
        }
    }
    println!("  R8 agreement on G(6, .4) battery: {agree}/6");
}

// ------------------------------------------------------------------ thm3 --

fn thm3() {
    header("Theorem 3 — acyclic CQs with < comparisons are W[1]-complete (E7)");
    println!("\nR9 (clique -> acyclic comparison query) verification:");
    let mut agree = 0;
    let mut total = 0;
    for seed in 0..6u64 {
        let g = random_graph(5, 0.4, seed + 7);
        for k in 2..=3 {
            total += 1;
            let (db, q) = clique_to_comparisons::reduce(&g, k);
            debug_assert!(q.is_acyclic());
            if naive::is_nonempty(&q, &db).unwrap() == g.has_clique(k) {
                agree += 1;
            }
        }
    }
    println!("  agreement: {agree}/{total}  (queries acyclic, comparisons strict-only)");

    println!("\nn^k-shaped scaling of the best general algorithm (naive) on R9");
    println!("instances at k = 2:");
    let mut pts = Vec::new();
    for n in [6usize, 9, 12, 18] {
        let (db, q) = workloads::comparison_instance(n, 0.4, 2, 17);
        let d = time_min(2, || naive::is_nonempty(&q, &db).unwrap());
        pts.push((n as f64, d.as_secs_f64()));
        println!("  n = {n:>3}: {}", fmt_duration(d));
    }
    println!(
        "  fitted n-exponent = {:+.2} (super-linear, grows with k)",
        fit_log_log_slope(&pts)
    );
    println!("\nConclusion matches the paper: the != tractability of Theorem 2 does");
    println!("not extend to order comparisons.");
}

// ------------------------------------------------------------ yannakakis --

fn yannakakis_exp() {
    header("Yannakakis baseline [18] — acyclic pure CQs in poly(input+output) (E6)");
    let q = workloads::chain_query(4);
    println!("\nchain query: {q}");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "tuples", "yannakakis", "naive", "answers"
    );
    let mut pts = Vec::new();
    for n in [300usize, 600, 1200, 2400] {
        let db = workloads::chain_database(4, n, (n as i64) / 4, 21);
        let (out, d_y) = time_once(|| yannakakis::evaluate(&q, &db).unwrap());
        let d_n = time_min(1, || naive::evaluate(&q, &db).unwrap());
        pts.push((n as f64, d_y.as_secs_f64()));
        println!(
            "{:>8} {:>12} {:>12} {:>10}",
            n,
            fmt_duration(d_y),
            fmt_duration(d_n),
            out.len()
        );
    }
    println!(
        "fitted n-exponent (yannakakis) = {:+.2}",
        fit_log_log_slope(&pts)
    );
    println!("(output size grows with n here, so the poly(input+output) bound");
    println!(" allows a slope above 1; emptiness alone stays near-linear)");
}

// --------------------------------------------------------------- datalog --

fn datalog_exp() {
    header("Section 4 — Datalog: bottom-up fixpoint, fixed arity => W[1] (E8)");
    let p = workloads::tc_program();
    println!("\nprogram:\n{p}\n");
    println!(
        "{:>6} {:>8} {:>10} {:>11} {:>7} {:>7}",
        "nodes", "edges", "naive", "semi-naive", "rounds", "|T|"
    );
    for n in [50usize, 100, 200] {
        let db: Database = workloads::dag_database(n, 2.5, 11);
        let edges = db.relation("E").unwrap().len();
        let (out_n, d_naive) =
            time_once(|| datalog_eval::evaluate(&p, &db, Strategy::Naive).unwrap());
        let ((out_s, stats), d_semi) =
            time_once(|| datalog_eval::evaluate_with_stats(&p, &db, Strategy::SemiNaive).unwrap());
        assert_eq!(out_n.canonical_rows(), out_s.canonical_rows());
        println!(
            "{:>6} {:>8} {:>10} {:>11} {:>7} {:>7}",
            n,
            edges,
            fmt_duration(d_naive),
            fmt_duration(d_semi),
            stats.rounds,
            out_s.len()
        );
    }
    println!("\nEvery stage evaluates bounded-variable CQs (v = 3 for TC); the");
    println!("fixpoint arrives within n^r rounds — the Section 4 W[1] membership");
    println!("argument, executed literally. Vardi's lower bound says unrestricted");
    println!("arity provably forces the query size into the exponent.");
}

// ------------------------------------------------------------ extensions --

/// The paper's closing remarks (Sections 4–5), reproduced: the formula-of-
/// inequalities extension of Theorem 2, the AW\[P\]/AW\[SAT\] alternating
/// classifications, and fixed-arity Datalog evaluated through W\[1\] oracles.
fn extensions() {
    header("Extensions — the paper's closing remarks (X1–X4 of DESIGN.md)");

    // X1: monotone ∨/∧ formulas of ≠ atoms.
    use pq_engine::colorcoding::{formula_neq, HashFamily, NeqFormula};
    use pq_query::{parse_cq, Term};
    let mut db = Database::new();
    {
        use pq_data::tuple;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let rows1: Vec<_> = (0..60)
            .map(|_| tuple![rng.gen_range(0..10i64), rng.gen_range(0..10i64)])
            .collect();
        let rows2: Vec<_> = (0..60)
            .map(|_| tuple![rng.gen_range(0..10i64), rng.gen_range(0..10i64)])
            .collect();
        db.add_table("R", ["a", "b"], rows1).unwrap();
        db.add_table("S", ["b", "c"], rows2).unwrap();
    }
    let q = parse_cq("G(a, c) :- R(a, b), S(b, c).").unwrap();
    let phi = NeqFormula::Or(vec![
        NeqFormula::And(vec![
            NeqFormula::neq(Term::var("a"), Term::var("c")),
            NeqFormula::neq(Term::var("b"), Term::var("c")),
        ]),
        NeqFormula::neq(Term::var("a"), Term::cons(3)),
    ]);
    let ctx = pq_engine::ExecutionContext::unlimited();
    let fast = formula_neq::evaluate(&q, &phi, &db, &HashFamily::Perfect, &ctx).unwrap();
    let slow = formula_neq::evaluate_naive(&q, &phi, &db).unwrap();
    println!("\n[X1] acyclic CQ + monotone formula of != atoms (param q):");
    println!("  phi = {phi}");
    println!(
        "  color-coding answers = {}, ground truth = {}: {}",
        fast.len(),
        slow.len(),
        if fast == slow { "agree" } else { "DISAGREE" }
    );

    // X2: AW[P] alternating circuits.
    use pq_wtheory::reductions::alternating::{self, Block, Quant};
    use pq_wtheory::{Circuit, Gate};
    let c = Circuit::new(
        4,
        vec![
            Gate::Input(0),
            Gate::Input(1),
            Gate::Input(2),
            Gate::Input(3),
            Gate::And(vec![0, 2]),
            Gate::And(vec![1, 3]),
            Gate::Or(vec![4, 5]),
        ],
        6,
    );
    println!("\n[X2] AW[P]: exists-block {{x0,x1}} / forall-block {{x2,x3}} over (x0&x2)|(x1&x3):");
    let mut ok = 0;
    let mut total = 0;
    for k1 in 1..=2usize {
        for k2 in 1..=2usize {
            total += 1;
            let blocks = vec![
                Block {
                    quant: Quant::Exists,
                    vars: vec![0, 1],
                    k: k1,
                },
                Block {
                    quant: Quant::Forall,
                    vars: vec![2, 3],
                    k: k2,
                },
            ];
            let inst = alternating::reduce(&c, &blocks).unwrap();
            let lhs = alternating::alternating_circuit_sat(&c, &blocks);
            let rhs = fo_eval::query_holds(&inst.query, &inst.database).unwrap();
            if lhs == rhs {
                ok += 1;
            }
        }
    }
    println!("  FO-query reduction vs alternating solver: {ok}/{total} agree");

    // X3: prenex FO <-> AW[SAT].
    use pq_wtheory::reductions::prenex_fo_awsat;
    let mut db2 = Database::new();
    {
        use pq_data::tuple;
        db2.add_table("E", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![3, 1]])
            .unwrap();
        db2.add_table("L", ["a"], [tuple![1], tuple![2]]).unwrap();
    }
    println!("\n[X3] prenex FO (param v) <-> alternating weighted formula sat:");
    let mut ok = 0;
    let specs = [
        "Q := forall x. exists y. E(x, y)",
        "Q := exists x. forall y. E(x, y)",
        "Q := forall x. exists y. (E(x, y) & !L(y) | L(x))",
    ];
    for src in specs {
        let fq = pq_query::parse_fo(src).unwrap();
        let inst = prenex_fo_awsat::reduce(&fq, &db2).unwrap();
        let lhs = fo_eval::query_holds(&fq, &db2).unwrap();
        let rhs = prenex_fo_awsat::alternating_weighted_formula_sat(
            &inst.formula,
            &inst.blocks,
            inst.num_vars,
        );
        if lhs == rhs {
            ok += 1;
        }
    }
    println!(
        "  {ok}/{} prenex specs agree across the reduction",
        specs.len()
    );

    // X4: Datalog through W[1] oracles.
    use pq_wtheory::reductions::datalog_w1;
    let mut db3 = Database::new();
    {
        use pq_data::tuple;
        db3.add_table("E", ["a", "b"], [tuple![0, 1], tuple![1, 2], tuple![2, 3]])
            .unwrap();
    }
    let p = workloads::tc_program();
    let (via_w1, transcript) = datalog_w1::evaluate_via_w1(&p, &db3).unwrap();
    let direct = datalog_eval::evaluate(&p, &db3, Strategy::Naive).unwrap();
    println!("\n[X4] fixed-arity Datalog run entirely through W[1] oracles:");
    println!(
        "  {} weighted-2CNF instances decided over {} rounds (max parameter k = {});",
        transcript.num_instances(),
        transcript.rounds,
        transcript.max_parameter()
    );
    println!(
        "  fixpoint matches direct evaluation: {}",
        via_w1.canonical_rows() == direct.canonical_rows()
    );
}

// --------------------------------------------------------------- service --

/// E10: the service's two cache levels on the Theorem 2 acyclic chain
/// workload, with the ISSUE 2 acceptance check (result-warm ≥ 10× below
/// cold) verified programmatically rather than by eyeballing bench output.
fn service_exp() {
    use pq_service::{CacheOutcome, QueryService, RequestLimits, ServiceConfig};

    header("pq-service — plan/result cache levels on the acyclic chain (E10)");

    let len = 6;
    let db = workloads::chain_database(len, 300, 50, 7);
    let body: Vec<String> = (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", i + 1))
        .collect();
    let src = format!("G(x0, x{len}) :- {}.", body.join(", "));
    let limits = RequestLimits::default();

    let service = |plan: usize, result: usize| {
        QueryService::new(ServiceConfig {
            workers: 2,
            plan_cache_capacity: plan,
            result_cache_capacity: result,
            ..ServiceConfig::default()
        })
    };

    let cold_svc = service(0, 0);
    cold_svc.load_database("d", db.clone()).unwrap();
    let cold = time_min(3, || {
        assert_eq!(
            cold_svc.query("d", &src, limits).unwrap().cache,
            CacheOutcome::Miss
        );
    });
    cold_svc.shutdown();

    let plan_svc = service(256, 0);
    plan_svc.load_database("d", db.clone()).unwrap();
    plan_svc.query("d", &src, limits).unwrap();
    let plan_warm = time_min(3, || {
        assert_eq!(
            plan_svc.query("d", &src, limits).unwrap().cache,
            CacheOutcome::PlanHit
        );
    });
    plan_svc.shutdown();

    let result_svc = service(256, 1024);
    result_svc.load_database("d", db).unwrap();
    result_svc.query("d", &src, limits).unwrap();
    let result_warm = time_min(50, || {
        assert_eq!(
            result_svc.query("d", &src, limits).unwrap().cache,
            CacheOutcome::ResultHit
        );
    });
    result_svc.shutdown();

    println!("\n  chain query, {len} atoms, 300 tuples/relation:");
    println!("  cold        (no caches)      {}", fmt_duration(cold));
    println!("  plan-warm   (plan cache)     {}", fmt_duration(plan_warm));
    println!(
        "  result-warm (both levels)    {}",
        fmt_duration(result_warm)
    );
    let speedup = cold.as_secs_f64() / result_warm.as_secs_f64().max(1e-9);
    println!(
        "  result-warm speedup over cold: {speedup:.0}x  (acceptance bar: >= 10x: {})",
        if speedup >= 10.0 { "PASS" } else { "FAIL" }
    );
}

// --------------------------------------------------------------- analyze --

// -------------------------------------------------------------- parallel --

/// E12: intra-query parallel execution — four workloads at 1/2/4/8 threads,
/// answers checked byte-identical to the serial engines at every degree.
/// Speedup is bounded by physical cores; on a single-core box the target is
/// "no worse than serial", and the determinism checks are the point.
fn parallel_exp() {
    use pq_engine::naive_indexed;
    use pq_engine::ExecutionContext;
    use pq_exec::Pool;

    header("pq-exec — intra-query parallel speedup (E12)");
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\n  physical parallelism available: {cores} core(s)");
    println!("  (speedup at d threads is capped by min(d, cores); answers are");
    println!("   checked identical to the serial engine at every degree)\n");

    let on = |p: &Pool| ExecutionContext::unlimited().with_pool(p);
    let degrees = [1usize, 2, 4, 8];

    // Workload 1: cyclic clique join on the naive indexed engine.
    let (cdb, cq) = workloads::clique_instance(44, 0.5, 3, 7);
    // Workload 2: acyclic chain on Yannakakis.
    let yq = workloads::chain_query(5);
    let ydb = workloads::chain_database(5, 1500, 300, 11);
    // Workload 3: color-coding trials on a chain with ≠.
    let nq =
        pq_query::parse_cq("G(x0, x3) :- R0(x0, x1), R1(x1, x2), R2(x2, x3), x0 != x2.").unwrap();
    let ndb = workloads::chain_database(3, 400, 80, 13);
    let cc = ColorCodingOptions::default();
    // Workload 4: Datalog transitive closure, semi-naive.
    let tp = workloads::tc_program();
    let tdb = workloads::dag_database(160, 3.0, 17);

    type Workload<'a> = (&'a str, Box<dyn Fn(&Pool) -> usize + 'a>);
    let workloads: Vec<Workload> = vec![
        (
            "clique join (naive indexed)",
            Box::new(|p: &Pool| {
                naive_indexed::evaluate_governed(&cq, &cdb, &on(p))
                    .unwrap()
                    .len()
            }),
        ),
        (
            "acyclic chain (yannakakis)",
            Box::new(|p: &Pool| {
                yannakakis::evaluate_governed(&yq, &ydb, &on(p))
                    .unwrap()
                    .len()
            }),
        ),
        (
            "chain with != (color coding)",
            Box::new(|p: &Pool| {
                colorcoding::evaluate_governed(&nq, &ndb, &cc, &on(p))
                    .unwrap()
                    .len()
            }),
        ),
        (
            "transitive closure (datalog)",
            Box::new(|p: &Pool| {
                datalog_eval::evaluate_governed(&tp, &tdb, Strategy::SemiNaive, &on(p))
                    .unwrap()
                    .len()
            }),
        ),
    ];

    println!(
        "  {:<30} {:>9} {:>9} {:>9} {:>9}  speedup@4",
        "workload", "1t", "2t", "4t", "8t"
    );
    for (name, run) in &workloads {
        let baseline_len = run(&Pool::new(1));
        let mut times = Vec::new();
        for d in degrees {
            let pool = Pool::new(d);
            assert_eq!(run(&pool), baseline_len, "{name}: answer differs at {d}t");
            times.push(time_min(3, || run(&pool)));
        }
        let speedup = times[0].as_secs_f64() / times[2].as_secs_f64().max(1e-9);
        println!(
            "  {:<30} {:>9} {:>9} {:>9} {:>9}  {speedup:>7.2}x",
            name,
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            fmt_duration(times[2]),
            fmt_duration(times[3]),
        );
    }
    println!("\n  acceptance bar (>= 2x at 4 threads) requires >= 4 physical cores;");
    println!(
        "  on {cores} core(s) the expected speedup is ~min(4, {cores})x minus merge overhead."
    );
}

fn analyze_exp() {
    use pq_core::analyze::AnalyzeOptions;
    use pq_core::{plan, PlannerOptions};
    use pq_query::parse_cq;

    header("pq-analyze — core minimization on redundant-atom workloads (E11)");

    // A 4-atom chain with one redundant copy of every chain atom: each
    // R_i(x_i, w_i) folds into R_i(x_i, x_{i+1}) (map w_i ↦ x_{i+1}), so
    // the Chandra–Merlin core is exactly the chain.
    let len = 4;
    let db = workloads::chain_database(len, 1200, 50, 11);
    let chain: Vec<String> = (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", i + 1))
        .collect();
    let redundant: Vec<String> = (0..len).map(|i| format!("R{i}(x{i}, w{i})")).collect();
    let src = format!(
        "G(x0, x{len}) :- {}, {}.",
        chain.join(", "),
        redundant.join(", ")
    );
    let q = parse_cq(&src).unwrap();

    let keep = PlannerOptions {
        analysis: AnalyzeOptions {
            minimize: false,
            ..AnalyzeOptions::default()
        },
        ..PlannerOptions::default()
    };
    let as_written = plan(&q, &keep);
    let minimized = plan(&q, &PlannerOptions::default());
    let core_atoms = minimized.analysis.effective(&q).atoms.len();
    println!(
        "\n  query as written: {} atoms; Chandra–Merlin core: {core_atoms} atoms (engine: {})",
        q.atoms.len(),
        minimized.engine
    );

    let ans_full = std::cell::RefCell::new(None);
    let ans_core = std::cell::RefCell::new(None);
    let full = time_min(2, || {
        *ans_full.borrow_mut() = Some(as_written.execute(&q, &db).unwrap());
    });
    let core = time_min(2, || {
        *ans_core.borrow_mut() = Some(minimized.execute(&q, &db).unwrap());
    });
    assert_eq!(
        ans_full.into_inner(),
        ans_core.into_inner(),
        "minimization must not change the answer"
    );
    println!("  evaluate as written      {}", fmt_duration(full));
    println!("  evaluate minimized core  {}", fmt_duration(core));
    let speedup = full.as_secs_f64() / core.as_secs_f64().max(1e-9);
    println!(
        "  core-minimization speedup: {speedup:.2}x  (answers identical: PASS; bar >= 1.2x: {})",
        if speedup >= 1.2 { "PASS" } else { "FAIL" }
    );
}

/// E13: the whole-program analyzer as a fixpoint optimizer. The workload
/// carries two kinds of waste the analyzer removes statically: a redundant
/// body atom in the live base rule (folds by Chandra–Merlin), and a dead
/// nonlinear transitive closure — two rules deriving `U`, which the goal
/// never reads, so the unrewritten fixpoint computes the entire TC *twice*
/// (once linearly for `T`, once by doubling for `U`).
fn analyze_datalog_exp() {
    use pq_core::{plan_datalog, PlannerOptions};
    use pq_query::parse_datalog;

    header("pq-analyze — whole-program rewrite vs the program as written (E13)");

    let p = parse_datalog(
        "T(x, y) :- E(x, y), E(x, w).\n\
         T(x, z) :- E(x, y), T(y, z).\n\
         U(x, y) :- E(x, y).\n\
         U(x, z) :- U(x, y), U(y, z).\n\
         ?- T",
    )
    .unwrap();
    println!("\nprogram as written:\n{p}\n");

    let plan = plan_datalog(&p, &PlannerOptions::default());
    let r = &plan.analysis.report;
    println!(
        "analysis: rules {}/{} live (dead: {:?}), recursion {}, sccs {}",
        r.rules_live,
        r.rules_total,
        r.dead_rules,
        r.recursion.as_str(),
        r.sccs.len()
    );
    for d in &plan.analysis.diagnostics {
        println!("  {d}");
    }

    println!(
        "\n{:>6} {:>8} {:>12} {:>11} {:>9} {:>7}",
        "nodes", "edges", "as written", "rewritten", "speedup", "|T|"
    );
    let mut speedups = Vec::new();
    for n in [50usize, 100, 200] {
        let db: Database = workloads::dag_database(n, 2.5, 11);
        let edges = db.relation("E").unwrap().len();
        let (out_full, d_full) =
            time_once(|| datalog_eval::evaluate(&p, &db, Strategy::SemiNaive).unwrap());
        let (out_rw, d_rw) = time_once(|| plan.execute(&p, &db).unwrap());
        assert_eq!(
            out_full.canonical_rows(),
            out_rw.canonical_rows(),
            "the rewrite must preserve the goal relation"
        );
        let speedup = d_full.as_secs_f64() / d_rw.as_secs_f64().max(1e-9);
        speedups.push(speedup);
        println!(
            "{:>6} {:>8} {:>12} {:>11} {:>8.2}x {:>7}",
            n,
            edges,
            fmt_duration(d_full),
            fmt_duration(d_rw),
            speedup,
            out_rw.len()
        );
    }
    let best = speedups.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\n  dead-rule pruning + rule minimization: answers identical at every\n  \
         size (PASS); best fixpoint speedup {best:.2}x (bar >= 1.5x: {})",
        if best >= 1.5 { "PASS" } else { "FAIL" }
    );
}

// -------------------------------------------------------------- recovery --

/// E14: crash recovery for the durable catalog — replay time as a function
/// of (a) how many WAL records sit past the last snapshot and (b) the
/// snapshot cadence. Each run builds a catalog under `--fsync never`, drops
/// the service *without* draining (simulating a crash: `Drop` takes the
/// abortive shutdown path, so no final snapshot is sealed), then times a
/// cold `QueryService::try_new` over the surviving files. Replay should be
/// linear in the WAL tail, and cadence should bound the tail.
fn recovery_exp() {
    use std::path::Path;

    use pq_service::{DurabilityConfig, FsyncPolicy, QueryService, RecoveryStats, ServiceConfig};

    header("pq-service — crash-recovery time vs WAL length and snapshot cadence (E14)");

    let scratch = std::env::temp_dir().join(format!("pq-repro-recovery-{}", std::process::id()));
    let durable = |dir: &Path, snapshot_every: u64| ServiceConfig {
        workers: 1,
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every,
        }),
        ..ServiceConfig::default()
    };

    // Build a catalog and crash: one install plus `appends` journaled
    // updates of a small two-relation chain database.
    let build = |dir: &Path, snapshot_every: u64, appends: u64| {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch dir");
        let svc = QueryService::try_new(durable(dir, snapshot_every)).unwrap();
        svc.load_database("d", workloads::chain_database(2, 60, 30, 11))
            .unwrap();
        for _ in 0..appends {
            // A no-op mutation still journals the post-state record.
            svc.update_database("d", |_| ()).unwrap();
        }
        // Dropping without drain() is the crash: abortive shutdown, no
        // final snapshot, the WAL tail stays on disk.
        drop(svc);
    };

    // Recovery compacts (fresh snapshot, rotated WAL), so each timed
    // replay needs a freshly built directory; report the best of `reps`.
    let timed_recover = |dir: &Path, snapshot_every: u64, appends: u64| {
        let reps = 3;
        let mut best = Duration::MAX;
        let mut stats: Option<RecoveryStats> = None;
        let mut wal_bytes = 0u64;
        for _ in 0..reps {
            build(dir, snapshot_every, appends);
            wal_bytes = std::fs::metadata(dir.join("catalog.wal")).map_or(0, |m| m.len());
            let (svc, dt) = time_once(|| QueryService::try_new(durable(dir, 0)).unwrap());
            if dt < best {
                best = dt;
                stats = svc.recovery_stats();
            }
            drop(svc);
        }
        (stats.expect("durability was configured"), best, wal_bytes)
    };

    println!("\n  (a) WAL length: no snapshot cadence, every record must replay\n");
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "appends", "replayed", "WAL bytes", "recovery"
    );
    let mut points = Vec::new();
    for appends in [0u64, 64, 256, 1024, 4096] {
        let (stats, dt, wal_bytes) = timed_recover(&scratch, 0, appends);
        println!(
            "{:>10} {:>10} {:>10} {:>12}",
            appends,
            stats.replayed_records,
            wal_bytes,
            fmt_duration(dt)
        );
        if appends >= 64 {
            points.push((appends as f64, dt.as_secs_f64()));
        }
    }
    let slope = fit_log_log_slope(&points);
    println!(
        "\n  fitted log-log slope of recovery time vs WAL records: {slope:.2}  \
         (linear replay target ~1: {})",
        if (0.5..=1.5).contains(&slope) {
            "PASS"
        } else {
            "FAIL"
        }
    );

    println!("\n  (b) snapshot cadence: 2000 appends, cadence bounds the replay tail\n");
    println!(
        "{:>10} {:>10} {:>10} {:>12}",
        "cadence", "replayed", "WAL bytes", "recovery"
    );
    for cadence in [0u64, 1024, 256, 64] {
        let (stats, dt, wal_bytes) = timed_recover(&scratch, cadence, 2000);
        let label = if cadence == 0 {
            "never".to_string()
        } else {
            cadence.to_string()
        };
        println!(
            "{label:>10} {:>10} {:>10} {:>12}",
            stats.replayed_records,
            wal_bytes,
            fmt_duration(dt)
        );
    }
    println!(
        "\n  a tighter cadence trades write-path snapshot work for a shorter\n  \
         replay tail; `--fsync` policy bounds what a crash can lose, the\n  \
         cadence bounds how long recovery takes"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}

// ------------------------------------------------------------------- ivm --

/// E15: incremental view maintenance — a registered transitive-closure view
/// patched by semi-naive delta propagation (recursive plan) vs recomputing
/// the closure from scratch after every single-row mutation. Maintenance
/// work scales with the *change* to the answer, recompute with the answer;
/// the gap widens with instance size. Acceptance bar: >= 10x at the largest
/// size.
fn ivm_exp() {
    use pq_data::tuple;
    use pq_engine::ExecutionContext;
    use pq_ivm::{RelationDelta, ViewQuery, ViewRegistry};

    header("pq-ivm — delta maintenance vs full recompute for live views (E15)");

    let prog = workloads::tc_program();
    println!("\nview: transitive closure over E (recursive plan, semi-naive deltas);");
    println!("mutation: insert one fresh edge, maintain, delete it, maintain.\n");
    println!(
        "{:>6} {:>8} {:>8} {:>12} {:>12} {:>9}",
        "nodes", "edges", "|T|", "maintain", "recompute", "speedup"
    );

    let unlimited = ExecutionContext::unlimited;
    let mut last_speedup = 0.0f64;
    for n in [60usize, 120, 240] {
        let mut db = workloads::dag_database(n, 3.0, 11);
        let edges = db.relation("E").unwrap().len();
        let mut reg = ViewRegistry::new();
        reg.register("t", ViewQuery::Program(prog.clone()), &db, &unlimited())
            .unwrap();
        let tc_len = reg.answer("t").unwrap().len();
        let row = tuple![n as i64, 0];

        // One full insert+delete maintenance round-trip per rep, so every
        // rep starts from the same state; report the best of `reps`.
        let delta = |relation: &str, added: Vec<pq_data::Tuple>, removed: Vec<pq_data::Tuple>| {
            RelationDelta {
                relation: relation.to_string(),
                added,
                removed,
            }
        };
        let mut maintain = Duration::MAX;
        for _ in 0..5 {
            let added = db.insert_rows("E", [row.clone()]).unwrap();
            let (_, d_ins) =
                time_once(|| reg.maintain(&db, &[delta("E", added.clone(), vec![])], unlimited));
            let removed = db.delete_rows("E", std::slice::from_ref(&row)).unwrap();
            let (_, d_del) =
                time_once(|| reg.maintain(&db, &[delta("E", vec![], removed.clone())], unlimited));
            maintain = maintain.min((d_ins + d_del) / 2);
        }
        assert_eq!(
            reg.answer("t").unwrap().len(),
            tc_len,
            "round-trips must restore the view"
        );

        let recompute = time_min(3, || {
            datalog_eval::evaluate(&prog, &db, Strategy::SemiNaive)
                .unwrap()
                .len()
        });
        last_speedup = recompute.as_secs_f64() / maintain.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>8} {:>8} {:>12} {:>12} {:>8.0}x",
            n,
            edges,
            tc_len,
            fmt_duration(maintain),
            fmt_duration(recompute),
            last_speedup
        );
    }
    println!(
        "\n  single-row maintenance speedup at the largest size: {last_speedup:.0}x  \
         (acceptance bar: >= 10x: {})",
        if last_speedup >= 10.0 { "PASS" } else { "FAIL" }
    );
}

// ------------------------------------------------------------- hypertree --

/// E16: bounded hypertree width beyond the paper's Fig. 1 — the width-2
/// cycle family evaluated by bag materialization + Yannakakis over the bag
/// tree, vs the naive `n^q` backtracker.
fn hypertree_exp() {
    use pq_engine::hypertree;
    use pq_hypergraph::decompose;

    header("pq-engine::hypertree — width-2 cyclic CQs vs naive (E16)");

    // One table per family.
    let run_family =
        |name: &str, q: &pq_query::ConjunctiveQuery, instances: &[(usize, Database)]| {
            let d = decompose(&q.hypergraph(), 3).expect("family stays within the width limit");
            println!("\n[{name}] {q}");
            println!(
                "  hypertree width {} ({}), decomposition {}",
                d.width(),
                if d.is_exact() { "exact" } else { "heuristic" },
                d.shape()
            );
            println!(
                "  {:>8} {:>12} {:>12} {:>9} {:>8}",
                "tuples", "hypertree", "naive", "speedup", "answers"
            );
            for (n, db) in instances {
                let (out, d_h) = time_once(|| hypertree::evaluate(q, db).unwrap());
                let d_h = d_h.min(time_min(2, || hypertree::evaluate(q, db).unwrap().len()));
                let (out_naive, d_n) = time_once(|| naive::evaluate(q, db).unwrap());
                assert_eq!(out, out_naive, "engines must agree at n = {n}");
                println!(
                    "  {:>8} {:>12} {:>12} {:>8.1}x {:>8}",
                    n,
                    fmt_duration(d_h),
                    fmt_duration(d_n),
                    d_n.as_secs_f64() / d_h.as_secs_f64().max(1e-9),
                    out.len()
                );
            }
        };

    // Headline: the triangle — single width-2 bag, connected cover, so the
    // bag materializes in O(n²/d) against naive's n-deep backtracking.
    let tq = workloads::triangle_query();
    let t_instances: Vec<(usize, Database)> = [600usize, 1200, 2400]
        .iter()
        .map(|&n| (n, workloads::triangle_database(n, (n as i64) / 4, 29)))
        .collect();
    run_family("triangle", &tq, &t_instances);

    // Secondary: the 6-cycle — three bags, a real tree sweep, and the
    // disconnected-cover worst case (opposite cycle edges) where bag
    // materialization itself is Θ(n²), the GLS bound for width 2.
    let cq = workloads::cycle_query(6);
    let c_instances: Vec<(usize, Database)> = [200usize, 400, 800]
        .iter()
        .map(|&n| (n, workloads::cycle_database(6, n, (n as i64) / 4, 29)))
        .collect();
    run_family("cycle-6", &cq, &c_instances);
}

// ----------------------------------------------------------------- count --

/// E17: exact answer counting without enumeration — the weighted-semiring
/// Yannakakis sweep (`pq-count`) vs enumerate-then-count on the
/// quantifier-free chain family over complete `3x3` relations, whose
/// answer set is exactly `3^(len+1)` while the input grows by 9 tuples per
/// atom. Counts are cross-checked for byte-identical agreement with the
/// enumeration oracle serially and at 2 and 4 exec threads.
fn count_exp() {
    use pq_core::{plan_count, PlannerOptions};
    use pq_engine::ExecutionContext;
    use pq_exec::Pool;

    header("pq-count — counting without enumeration vs enumerate-then-count (E17)");

    let base = 3i64;
    println!("\n[chain] quantifier-free head, complete {base}x{base} relations");
    println!(
        "  {:>5} {:>14} {:>12} {:>12} {:>9}",
        "len", "answers", "count", "enumerate", "speedup"
    );
    for len in [6usize, 8, 10] {
        let q = workloads::chain_full_query(len);
        let db = workloads::complete_chain_database(len, base);
        let plan = plan_count(&q, &PlannerOptions::default());

        let (count, d_c) = time_once(|| {
            plan.execute_governed(&q, &db, &ExecutionContext::unlimited())
                .unwrap()
        });
        let d_c = d_c.min(time_min(3, || {
            plan.execute_governed(&q, &db, &ExecutionContext::unlimited())
                .unwrap()
                .distinct
        }));
        let (enumerated, d_e) = time_once(|| yannakakis::evaluate(&q, &db).unwrap());

        // Byte-identical agreement with the oracle, at every degree: the
        // acceptance bar is exactness first, speed second.
        assert_eq!(count.distinct, enumerated.len() as u128, "len = {len}");
        assert_eq!(count.assignments, count.distinct, "quantifier-free head");
        assert_eq!(count.distinct, (base as u128).pow(len as u32 + 1));
        for threads in [2usize, 4] {
            let ctx = ExecutionContext::unlimited().with_pool(&Pool::new(threads));
            let par = plan.execute_governed(&q, &db, &ctx).unwrap();
            assert_eq!(par, count, "len = {len} at {threads} threads");
        }

        println!(
            "  {:>5} {:>14} {:>12} {:>12} {:>8.1}x",
            len,
            count.distinct,
            fmt_duration(d_c),
            fmt_duration(d_e),
            d_e.as_secs_f64() / d_c.as_secs_f64().max(1e-9)
        );
    }
}

// --------------------------------------------------------------- rewrite --

/// E18: answering queries from views — the `PQA8xx` containment pass lets
/// the service serve an alpha-renamed triangle query straight from a
/// subscribed view's materialization (`view-scan`: containment match +
/// projection copy) instead of re-joining. The triangle is the paper's
/// canonical cyclic shape: cold evaluation pays the width-2 hypertree
/// engine's Θ(n²) bag materialization on every request, the view service
/// copies the (small) answer column. Both services run with the result
/// cache off, so every repeat pays its honest path. Answers are checked
/// byte-identical before and after a mutation batch.
fn rewrite_exp() {
    use pq_data::tuple;
    use pq_service::{QueryService, RequestLimits, ServiceConfig};

    header("pq-analyze/pq-service — answering queries from views (E18)");

    let limits = RequestLimits::default();
    let service = |plan: usize| {
        QueryService::new(ServiceConfig {
            workers: 2,
            plan_cache_capacity: plan,
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        })
    };

    println!("\n[triangle] G(x) :- E(x, y), E(y, z), E(z, x), alpha-renamed view");
    println!(
        "  {:>8} {:>10} {:>12} {:>12} {:>9}",
        "tuples", "answers", "view-scan", "cold", "speedup"
    );

    for n_tuples in [600usize, 1200, 2400] {
        let db = workloads::triangle_database(n_tuples, (n_tuples as i64) / 4, 29);
        let query_src = "G(x) :- E(x, y), E(y, z), E(z, x).";
        // The same shape under fresh variables and another head name: the
        // containment pass must recognize the equivalence (PQA801).
        let view_src = "V(a) :- E(a, b), E(b, c), E(c, a).";

        let cold_svc = service(0);
        cold_svc.load_database("d", db.clone()).unwrap();
        let cold_resp = cold_svc.query("d", query_src, limits).unwrap();
        let cold = time_min(3, || {
            cold_svc.query("d", query_src, limits).unwrap();
        });

        let view_svc = service(256);
        view_svc.load_database("d", db).unwrap();
        let sub = view_svc.subscribe("d", view_src).unwrap();
        let resp = view_svc.query("d", query_src, limits).unwrap();
        assert_eq!(resp.engine, "view-scan", "query not answered from the view");
        assert_eq!(*resp.rows, *cold_resp.rows, "view-scan != cold evaluation");
        let viewed = time_min(10, || {
            assert_eq!(
                view_svc.query("d", query_src, limits).unwrap().engine,
                "view-scan"
            );
        });

        // Currency across mutations: the ack waits for maintenance, so the
        // next view-scan already reflects the batch — and still agrees with
        // cold evaluation byte for byte.
        let batch = vec![tuple![0, 1], tuple![1, 0]];
        view_svc.insert_rows("d", "E", batch.clone()).unwrap();
        cold_svc.insert_rows("d", "E", batch).unwrap();
        let after_view = view_svc.query("d", query_src, limits).unwrap();
        let after_cold = cold_svc.query("d", query_src, limits).unwrap();
        assert_eq!(after_view.engine, "view-scan");
        assert_eq!(*after_view.rows, *after_cold.rows, "stale view answer");

        let stats = view_svc.stats();
        assert!(
            stats.view_answered_queries >= 2,
            "STATS never counted the view path"
        );

        println!(
            "  {:>8} {:>10} {:>12} {:>12} {:>8.1}x",
            n_tuples,
            cold_resp.rows.len(),
            fmt_duration(viewed),
            fmt_duration(cold),
            cold.as_secs_f64() / viewed.as_secs_f64().max(1e-9)
        );

        view_svc.unsubscribe(sub.id);
        view_svc.shutdown();
        cold_svc.shutdown();
    }
}
