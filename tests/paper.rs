//! The paper's shape claims, held as counted work.
//!
//! Theorem 1 puts the parameter in the exponent of generic evaluation,
//! Theorem 2 brings it down to `g(k)·n·log n` for acyclic queries with `≠`,
//! and Theorem 3 shows that `<` takes that back. Each claim is a statement
//! about an exponent, so each `paper_*` test below fits one: it runs an
//! engine under [`ExecutionContext::unlimited`] (no pool, so degree 1 whatever
//! `PQ_EXEC_THREADS` says), takes work = governor ticks + tuples
//! materialized, fits a log-log slope of work against the instance size, and
//! asserts a band around the exponent the source predicts. Governor counts
//! are deterministic per seed, so every band is an exact assertion that
//! reads no clock. The frozen figures in the comments are those counts.
//!
//! ```sh
//! cargo test --release --test paper -- --nocapture   # prints every table row
//! ```
//!
//! Absolute timings live in `benchmark/` (`BENCHMARK.json`), not here.

use pq_data::{tuple, Database};
use pq_engine::colorcoding::{self, ColorCodingOptions, HashFamily, NeqPartition};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::{hypertree, naive, naive_indexed, yannakakis, ExecutionContext};
use pq_query::{parse_cq, parse_datalog, ConjunctiveQuery, DatalogProgram};
use pq_wtheory::graphs::random_graph;
use pq_wtheory::reductions::{clique_to_comparisons, clique_to_cq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------- harness --

/// Run `f` on a fresh unlimited context and return its output with the
/// counted work: ticks plus tuples materialized.
fn counted<T>(f: impl FnOnce(&ExecutionContext) -> T) -> (T, u64) {
    let ctx = ExecutionContext::unlimited();
    let out = f(&ctx);
    (out, ctx.ticks() + ctx.tuples_materialized())
}

/// Least-squares slope of `ln(y)` against `ln(x)`: the fitted polynomial
/// exponent of a scaling series.
fn fit_log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "need at least two points to fit");
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| (x.ln(), y.max(1e-12).ln()))
        .collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The slope of a series of `(size, work)` points.
fn slope(points: &[(usize, u64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(n, w)| (n as f64, w as f64)).collect();
    fit_log_log_slope(&pts)
}

/// One table row: a label, then `n=work` per point, then the fitted slope.
fn row(label: &str, points: &[(usize, u64)]) {
    let cells: Vec<String> = points.iter().map(|(n, w)| format!("n={n}: {w}")).collect();
    println!(
        "{label:<34} slope {:>5.2}   {}",
        slope(points),
        cells.join(", ")
    );
}

// ---------------------------------------------------------- generators --

/// A clique instance `(d, Q_k)` over a `G(n, p)` random graph (R1).
fn clique_instance(n: usize, p: f64, k: usize, seed: u64) -> (Database, ConjunctiveQuery) {
    clique_to_cq::reduce(&random_graph(n, p, seed), k)
}

/// The chain `R0(x0, x1), R1(x1, x2), …`, each body variable named `x<i>`.
fn chain_body(len: usize) -> String {
    (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", i + 1))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A chain database `R0(a0, a1), R1(a1, a2), …` with `n_tuples` random rows
/// per relation over a value domain of size `n_vals`.
fn chain_database(len: usize, n_tuples: usize, n_vals: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for i in 0..len {
        let rows =
            (0..n_tuples).map(|_| tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
        db.add_table(
            format!("R{i}"),
            [format!("a{i}"), format!("a{}", i + 1)],
            rows,
        )
        .unwrap();
    }
    db
}

/// The acyclic chain query of length `len` returning its endpoints.
fn chain_query(len: usize) -> ConjunctiveQuery {
    parse_cq(&format!("G(x0, x{len}) :- {}.", chain_body(len))).unwrap()
}

/// The chain query with a quantifier-free head: every body variable is kept,
/// so the answers are all length-`len` walks.
fn chain_full_query(len: usize) -> ConjunctiveQuery {
    let head: Vec<String> = (0..=len).map(|i| format!("x{i}")).collect();
    parse_cq(&format!("G({}) :- {}.", head.join(", "), chain_body(len))).unwrap()
}

/// A chain database whose every relation is the complete `base × base`
/// table, so [`chain_full_query`] has exactly `base^(len+1)` answers.
fn complete_chain_database(len: usize, base: i64) -> Database {
    let mut db = Database::new();
    for i in 0..len {
        let rows = (0..base).flat_map(|a| (0..base).map(move |b| tuple![a, b]));
        db.add_table(
            format!("R{i}"),
            [format!("a{i}"), format!("a{}", i + 1)],
            rows,
        )
        .unwrap();
    }
    db
}

/// The chain query with `x_i ≠ x_{i+2}` for `i < neq_span`. No pair shares
/// an atom, so every `≠` is in `I1` and `k = |V1|` grows with the span while
/// the hypergraph stays an acyclic chain.
fn chain_neq_query(len: usize, neq_span: usize) -> ConjunctiveQuery {
    assert!(neq_span < len, "span must leave non-co-occurring pairs");
    let neqs: Vec<String> = (0..neq_span)
        .map(|i| format!("x{i} != x{}", i + 2))
        .collect();
    parse_cq(&format!(
        "G(x0, x{len}) :- {}, {}.",
        chain_body(len),
        neqs.join(", ")
    ))
    .unwrap()
}

/// A chain database of bijections over `0..n`, with `R1 = R0⁻¹`: every path
/// has `x2 = x0`, so a chain query with `x0 ≠ x2` has no answer and a
/// color-coding emptiness test runs every trial.
fn bijection_chain_database(len: usize, n: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perms: Vec<Vec<i64>> = (0..len)
        .map(|_| {
            let mut p: Vec<i64> = (0..n).collect();
            for i in (1..p.len()).rev() {
                p.swap(i, rng.gen_range(0..=i));
            }
            p
        })
        .collect();
    let mut inverse = vec![0; n as usize];
    for (a, &b) in perms[0].iter().enumerate() {
        inverse[b as usize] = a as i64;
    }
    perms[1] = inverse;
    let mut db = Database::new();
    for (i, p) in perms.iter().enumerate() {
        let rows = p.iter().enumerate().map(|(a, &b)| tuple![a as i64, b]);
        db.add_table(
            format!("R{i}"),
            [format!("a{i}"), format!("a{}", i + 1)],
            rows,
        )
        .unwrap();
    }
    db
}

/// Section 5's students-outside-department query.
fn outside_department_query() -> ConjunctiveQuery {
    parse_cq("G(s) :- SD(s, d), SC(s, c), CD(c, d2), d != d2.").unwrap()
}

/// The university database of the students-outside-department example,
/// sized by student count.
fn university_database(n_students: usize, n_courses: usize, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let depts = ["cs", "math", "bio", "chem", "phys"];
    let mut db = Database::new();
    db.add_table(
        "CD",
        ["course", "dept"],
        (0..n_courses).map(|c| tuple![format!("c{c}"), depts[rng.gen_range(0..depts.len())]]),
    )
    .unwrap();
    let mut sd = Vec::new();
    let mut sc = Vec::new();
    for s in 0..n_students {
        sd.push(tuple![
            format!("s{s}"),
            depts[rng.gen_range(0..depts.len())]
        ]);
        for _ in 0..rng.gen_range(1..=4) {
            sc.push(tuple![
                format!("s{s}"),
                format!("c{}", rng.gen_range(0..n_courses))
            ]);
        }
    }
    db.add_table("SD", ["student", "dept"], sd).unwrap();
    db.add_table("SC", ["student", "course"], sc).unwrap();
    db
}

/// The canonical width-2 cyclic query: the triangle.
fn triangle_query() -> ConjunctiveQuery {
    parse_cq("G(x) :- E(x, y), E(y, z), E(z, x).").unwrap()
}

/// A random edge relation `E` with `n_tuples` rows over `n_vals` values.
fn triangle_database(n_tuples: usize, n_vals: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.add_table(
        "E",
        ["a", "b"],
        (0..n_tuples).map(|_| tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]),
    )
    .unwrap();
    db
}

/// The cycle `R0(x0, x1), …, R{len-1}(x{len-1}, x0)`: cyclic, but of
/// hypertree width exactly 2.
fn cycle_query(len: usize) -> ConjunctiveQuery {
    assert!(len >= 3, "shorter cycles are not cyclic hypergraphs");
    let body: Vec<String> = (0..len)
        .map(|i| format!("R{i}(x{i}, x{})", (i + 1) % len))
        .collect();
    parse_cq(&format!("G(x0) :- {}.", body.join(", "))).unwrap()
}

/// The matching database: `len` binary relations of `n_tuples` random rows
/// over `n_vals` values, closing the cycle.
fn cycle_database(len: usize, n_tuples: usize, n_vals: i64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for i in 0..len {
        let rows =
            (0..n_tuples).map(|_| tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
        db.add_table(
            format!("R{i}"),
            [format!("a{i}"), format!("a{}", (i + 1) % len)],
            rows,
        )
        .unwrap();
    }
    db
}

/// A random DAG edge relation `E` on `n` nodes, about `avg_out` out-edges
/// per node.
fn dag_database(n: usize, avg_out: f64, seed: u64) -> Database {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if rng.gen_bool((avg_out / n as f64).min(1.0)) {
                rows.push(tuple![a, b]);
            }
        }
    }
    let mut db = Database::new();
    db.add_table("E", ["a", "b"], rows).unwrap();
    db
}

/// The transitive-closure program.
fn tc_program() -> DatalogProgram {
    parse_datalog(
        "T(x, y) :- E(x, y).\n\
         T(x, z) :- E(x, y), T(y, z).\n\
         ?- T",
    )
    .unwrap()
}

/// Vardi's family: `W(x0, …, x{k-1}) :- D(x0), …, D(x{k-1})`. The query is
/// polynomial in `k`, the fixpoint is every `k`-tuple over `D`.
fn vardi_program(k: usize) -> DatalogProgram {
    assert!(k >= 1);
    let vars: Vec<String> = (0..k).map(|i| format!("x{i}")).collect();
    let body: Vec<String> = vars.iter().map(|v| format!("D({v})")).collect();
    parse_datalog(&format!(
        "W({}) :- {}.\n?- W",
        vars.join(", "),
        body.join(", ")
    ))
    .unwrap()
}

/// The unary domain relation `D = {0, …, n-1}` for [`vardi_program`].
fn vardi_database(n: i64) -> Database {
    let mut db = Database::new();
    db.add_table("D", ["v"], (0..n).map(|i| tuple![i])).unwrap();
    db
}

// ------------------------------------------------------ the paper's claims --

/// Theorem 1: for generic evaluation the parameter sits in the exponent.
/// The naive engine on the clique query `Q_k` over `G(n, .3)` does work
/// whose n-slope grows with k: 2.08 at k = 2, 5.01 at k = 3 (the matcher
/// scans the ~n²p-row edge relation per extension, so the slope exceeds k).
#[test]
fn paper_thm1_naive_exponent_grows_with_k() {
    let mut slopes = Vec::new();
    for k in [2usize, 3] {
        let points: Vec<(usize, u64)> = [12usize, 24, 48]
            .into_iter()
            .map(|n| {
                let (db, q) = clique_instance(n, 0.3, k, 5);
                (
                    n,
                    counted(|ctx| naive::evaluate_governed(&q, &db, ctx).unwrap()).1,
                )
            })
            .collect();
        row(&format!("thm1 naive clique k={k}"), &points);
        slopes.push(slope(&points));
    }
    assert!(
        slopes[1] - slopes[0] >= 1.5,
        "the k = 3 slope must exceed the k = 2 slope by >= 1.5: {slopes:?}"
    );
}

/// X7: engineering lowers the constants, not the exponent's dependence on
/// k. Hash-index probes on the same instances return the same answers with
/// no more work at any point, and the slope still grows with k
/// (2.08 → 3.86; indexing does lower the k = 3 slope from naive's 5.01).
#[test]
fn paper_x7_indexing_keeps_k_in_the_exponent() {
    let mut slopes = Vec::new();
    for k in [2usize, 3] {
        let mut points = Vec::new();
        for n in [12usize, 24, 48] {
            let (db, q) = clique_instance(n, 0.3, k, 5);
            let (scanned, naive_work) = counted(|ctx| naive::evaluate_governed(&q, &db, ctx));
            let (probed, indexed_work) =
                counted(|ctx| naive_indexed::evaluate_governed(&q, &db, ctx));
            assert_eq!(scanned.unwrap(), probed.unwrap(), "k = {k}, n = {n}");
            assert!(
                indexed_work <= naive_work,
                "indexed work {indexed_work} > naive work {naive_work} at k = {k}, n = {n}"
            );
            points.push((n, indexed_work));
        }
        row(&format!("x7 indexed clique k={k}"), &points);
        slopes.push(slope(&points));
    }
    assert!(
        slopes[1] > slopes[0],
        "the indexed slope must grow with k: {slopes:?}"
    );
}

/// Theorem 2: an acyclic query with `≠` is evaluated in `g(k)·n·log n`. On
/// the students-outside-department query (k = 2, deterministic 2-perfect
/// family) color coding's work slope is 1.04, the naive engine's 1.89.
#[test]
fn paper_thm2_colorcoding_is_linear_in_n() {
    let q = outside_department_query();
    let mut cc = Vec::new();
    let mut nv = Vec::new();
    for n in [100usize, 200, 400, 800] {
        let db = university_database(n, 40, 42);
        let (fast, cc_work) = counted(|ctx| {
            colorcoding::evaluate_governed(&q, &db, &ColorCodingOptions::default(), ctx).unwrap()
        });
        let (slow, nv_work) = counted(|ctx| naive::evaluate_governed(&q, &db, ctx).unwrap());
        assert_eq!(fast, slow, "n = {n}");
        cc.push((n, cc_work));
        nv.push((n, nv_work));
    }
    row("thm2 color coding (students)", &cc);
    row("thm2 naive (students)", &nv);
    assert!(slope(&cc) <= 1.25, "color coding slope {}", slope(&cc));
    assert!(slope(&nv) >= 1.6, "naive slope {}", slope(&nv));
}

/// Theorem 2's `g(k)`: the randomized driver runs `⌈3e^k⌉` trials (23, 164
/// and 446 at k = 2, 4, 5), each linear in n. On a chain whose answer is
/// empty every trial runs, so work is the trial count times an n-linear
/// trial: the n-slope is 0.98 at every k, and at n = 100 work is 17.5k,
/// 117k and 317k, within 7 % of the trial ratio.
#[test]
fn paper_thm2_trials_grow_with_k_not_the_n_exponent() {
    let mut at_largest = Vec::new();
    for span in 1..=3usize {
        let q = chain_neq_query(6, span);
        // Every `≠` pairs variables that share no atom: all of them are I1.
        let part = NeqPartition::build(&q, &q.hypergraph());
        assert_eq!(part.i1.len(), span);
        assert!(part.i2_var_var.is_empty() && part.i2_var_const.is_empty());
        let k = part.k();
        let trials = HashFamily::suggested_trials(k, 3.0);
        let opts = ColorCodingOptions::randomized(k, 3.0, 2);
        let points: Vec<(usize, u64)> = [25usize, 50, 100]
            .into_iter()
            .map(|n| {
                let db = bijection_chain_database(6, n as i64, 9);
                let (nonempty, w) =
                    counted(|ctx| colorcoding::is_nonempty_governed(&q, &db, &opts, ctx).unwrap());
                assert!(!nonempty, "x2 = x0 on every path");
                (n, w)
            })
            .collect();
        row(&format!("thm2 k={k}, {trials} trials"), &points);
        assert!(
            slope(&points) <= 1.2,
            "n-slope {} at k = {k}",
            slope(&points)
        );
        at_largest.push((trials, points.last().unwrap().1));
    }
    assert_eq!(
        at_largest.iter().map(|p| p.0).collect::<Vec<_>>(),
        [23, 164, 446]
    );
    let (t0, w0) = at_largest[0];
    for &(t, w) in &at_largest[1..] {
        let work_ratio = w as f64 / w0 as f64;
        let trial_ratio = t as f64 / t0 as f64;
        assert!(
            (work_ratio / trial_ratio - 1.0).abs() <= 0.2,
            "work ratio {work_ratio:.2} vs trial ratio {trial_ratio:.2}"
        );
    }
}

/// Theorem 3: with `<` the Theorem 2 escape is gone. Generic emptiness on
/// R9's acyclic comparison queries (k = 2, `G(n, .4)`) has work slope 2.38.
#[test]
fn paper_thm3_r9_is_superlinear() {
    let points: Vec<(usize, u64)> = [6usize, 9, 12, 18]
        .into_iter()
        .map(|n| {
            let (db, q) = clique_to_comparisons::reduce(&random_graph(n, 0.4, 17), 2);
            assert!(q.is_acyclic());
            (
                n,
                counted(|ctx| naive::is_nonempty_governed(&q, &db, ctx).unwrap()).1,
            )
        })
        .collect();
    row("thm3 naive on R9, k=2", &points);
    assert!(slope(&points) > 2.0, "R9 slope {}", slope(&points));
}

/// Yannakakis \[18\]: a pure acyclic query is evaluated in time linear in
/// input plus output. On a 4-chain with n rows per relation the work slope
/// against 4n + |out| is 0.86.
#[test]
fn paper_yannakakis_is_linear_in_input_plus_output() {
    let q = chain_query(4);
    let mut points = Vec::new();
    for n in [150usize, 300, 600, 1200] {
        let db = chain_database(4, n, n as i64 / 4, 21);
        let (out, w) = counted(|ctx| yannakakis::evaluate_governed(&q, &db, ctx).unwrap());
        if n == 150 {
            assert_eq!(out, naive::evaluate(&q, &db).unwrap());
        }
        points.push((4 * n + out.len(), w));
    }
    row("yannakakis vs 4n+|out|", &points);
    let s = slope(&points);
    assert!((s - 1.0).abs() <= 0.2, "slope {s} against input + output");
}

/// Section 4, after Vardi \[16\]: when the IDB arity grows with k the
/// parameter is provably in the exponent. The fixpoint of
/// [`vardi_program`]`(k)` over n = 8 values is exactly n^k tuples, and each
/// was materialized.
#[test]
fn paper_datalog_vardi_materializes_n_to_the_k() {
    let n = 8i64;
    for k in 1..=3usize {
        let p = vardi_program(k);
        assert!(p.validate().is_ok());
        let db = vardi_database(n);
        let (out, _) = counted(|ctx| {
            let w = datalog_eval::evaluate_governed(&p, &db, Strategy::SemiNaive, ctx).unwrap();
            assert!(ctx.tuples_materialized() >= w.len() as u64);
            w
        });
        println!(
            "vardi k={k}: |W| = {} (n^k = {})",
            out.len(),
            n.pow(k as u32)
        );
        assert_eq!(out.len(), 8usize.pow(k as u32));
    }
}

/// Ablation A4: semi-naive evaluation reaches the same fixpoint in the same
/// rounds as naive evaluation with fewer rule firings. Transitive closure
/// on a random DAG: 1 960 vs 4 324 ticks at n = 30, 27 700 vs 80 730 at
/// n = 60.
#[test]
fn paper_datalog_seminaive_does_less_work() {
    let p = tc_program();
    for n in [30usize, 60] {
        let db = dag_database(n, 2.5, 11);
        let run = |strategy| {
            let ctx = ExecutionContext::unlimited();
            let (out, stats) =
                datalog_eval::evaluate_with_stats_governed(&p, &db, strategy, &ctx).unwrap();
            (out, stats.rounds, ctx.ticks())
        };
        let (naive_out, naive_rounds, naive_ticks) = run(Strategy::Naive);
        let (semi_out, semi_rounds, semi_ticks) = run(Strategy::SemiNaive);
        println!(
            "datalog tc n={n}: semi-naive {semi_ticks} ticks vs naive {naive_ticks}, \
             {semi_rounds} rounds, |T| = {}",
            semi_out.len()
        );
        assert_eq!(naive_out.canonical_rows(), semi_out.canonical_rows());
        assert_eq!(naive_rounds, semi_rounds);
        assert!(semi_ticks < naive_ticks, "n = {n}");
    }
}

/// E16, after Gottlob–Leone–Scarcello (cs/9812022): a width-w decomposition
/// bounds every bag by N^w. The triangle (width 2) on n edges over n/4
/// values: the hypertree engine's work slope is 1.00 against the naive
/// backtracker's 2.10, with equal answers.
#[test]
fn paper_hypertree_keeps_cyclic_width_two_polynomial() {
    let q = triangle_query();
    let mut ht = Vec::new();
    let mut nv = Vec::new();
    for n in [100usize, 200, 300, 400] {
        let db = triangle_database(n, n as i64 / 4, 29);
        let (fast, ht_work) = counted(|ctx| hypertree::evaluate_governed(&q, &db, ctx).unwrap());
        let (slow, nv_work) = counted(|ctx| naive::evaluate_governed(&q, &db, ctx).unwrap());
        assert_eq!(fast, slow, "n = {n}");
        ht.push((n, ht_work));
        nv.push((n, nv_work));
    }
    row("hypertree triangle", &ht);
    row("naive triangle", &nv);
    assert!(
        slope(&ht) <= 2.0,
        "hypertree slope {} above N^width",
        slope(&ht)
    );
    assert!(
        slope(&nv) - slope(&ht) >= 0.8,
        "gap {} between naive and hypertree",
        slope(&nv) - slope(&ht)
    );
}

/// E17, after Chen–Mengel: a quantifier-free acyclic query is counted in
/// time linear in the input, without enumeration. On complete 3×3 chains
/// the counting sweep's ticks are 80, 111, 142, 173 at len = 3..6 (+31 per
/// atom), while enumerating charges at least the 3^(len+1) answers.
#[test]
fn paper_count_is_linear_while_answers_are_exponential() {
    let mut count_ticks = Vec::new();
    for len in 3..=6usize {
        let q = chain_full_query(len);
        let db = complete_chain_database(len, 3);
        let ctx = ExecutionContext::unlimited();
        let count = pq_count::count_governed(&q, &db, &ctx).unwrap();
        let (answers, enumerated) =
            counted(|ctx| yannakakis::evaluate_governed(&q, &db, ctx).unwrap());
        let expected = 3u128.pow(len as u32 + 1);
        println!(
            "count len={len}: {} ticks; enumerate {enumerated} work for {expected} answers",
            ctx.ticks()
        );
        assert_eq!(count.distinct, expected);
        assert_eq!(answers.len() as u128, expected);
        assert!(u128::from(enumerated) >= expected);
        count_ticks.push(ctx.ticks());
    }
    let steps: Vec<u64> = count_ticks.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        steps.iter().all(|&s| s == steps[0]),
        "count ticks {count_ticks:?} must grow by the same amount per atom"
    );
}

// ------------------------------------------- the fit and the generators --

#[test]
fn slope_recovers_known_exponents() {
    let quad: Vec<(f64, f64)> = (1..=6)
        .map(|i| (i as f64 * 100.0, (i as f64 * 100.0).powi(2)))
        .collect();
    assert!((fit_log_log_slope(&quad) - 2.0).abs() < 1e-9);
    let lin: Vec<(f64, f64)> = (1..=6)
        .map(|i| (i as f64 * 100.0, 7.0 * i as f64 * 100.0))
        .collect();
    assert!((fit_log_log_slope(&lin) - 1.0).abs() < 1e-9);
}

/// Counted work is exact only because the instances repeat per seed.
#[test]
fn generators_are_deterministic() {
    assert_eq!(chain_database(2, 10, 5, 1), chain_database(2, 10, 5, 1));
    assert_eq!(university_database(10, 8, 2), university_database(10, 8, 2));
    assert_eq!(
        bijection_chain_database(6, 10, 9),
        bijection_chain_database(6, 10, 9)
    );
}

#[test]
fn cycle_family_is_cyclic_but_width_two() {
    let q = cycle_query(6);
    assert!(!q.is_acyclic());
    let d = pq_hypergraph::decompose(&q.hypergraph(), 3).expect("within limit");
    assert_eq!(d.width(), 2);
    let db = cycle_database(6, 20, 8, 3);
    assert_eq!(
        naive::evaluate(&q, &db).unwrap(),
        hypertree::evaluate(&q, &db).unwrap()
    );
}
