//! The Theorem 2 driver: range the per-`h` algorithms over a hash family.
//!
//! * **Emptiness / decision** — randomized: `c·e^k` random functions give
//!   error probability ≤ `e^{-c}` (one-sided: a "nonempty" answer is always
//!   correct). Deterministic: the k-perfect family gives an exact answer.
//! * **Evaluation** — with a k-perfect family, `Q(d) = ⋃_{h∈F} Q_h(d)`
//!   exactly. With random functions the union is a subset of `Q(d)` that is
//!   complete with high probability once every answer tuple has been hit by
//!   a consistent function.
//!
//! Total running time (deterministic emptiness): `O(g(v)·q·n·log n)` per
//! function with `g(v) = 2^{O(v log v)}` — the paper's bound.
//!
//! The trial loop has two private arms, chosen from the degree of the pool
//! the context carries: serially it walks the family lazily and stops at the
//! first witness without ever materializing a coloring it does not run; with
//! a pool it draws fixed 64-trial batches and fans each batch out.

use pq_data::{Database, Relation, Tuple};
use pq_query::ConjunctiveQuery;

use super::algorithms::{algorithm1_governed, algorithm2_governed, Prepared, ENGINE};
use super::hashing::{Coloring, DomainIndex, HashFamily};
use crate::binding::{check_safety, head_attrs, head_output, vacuous_output};
use crate::error::Result;
use crate::governor::ExecutionContext;

/// Trials claimed per scheduling round by the parallel arm. Colorings are
/// drawn lazily from the family iterator in fixed-size batches (the perfect
/// family is exponential in `k`, so materializing it up front is not an
/// option); the batch size is a constant so the batch boundaries — and with
/// them the work decomposition — are identical at any thread count.
const TRIAL_BATCH: usize = 64;

/// Options for the color-coding engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColorCodingOptions {
    /// The hash family to drive the algorithms with.
    pub family: HashFamily,
}

impl Default for ColorCodingOptions {
    /// Deterministic (k-perfect family).
    fn default() -> Self {
        ColorCodingOptions {
            family: HashFamily::Perfect,
        }
    }
}

impl ColorCodingOptions {
    /// Randomized mode with the paper's `⌈c·e^k⌉` trial count.
    pub fn randomized(k: usize, c: f64, seed: u64) -> Self {
        ColorCodingOptions {
            family: HashFamily::Random {
                trials: HashFamily::suggested_trials(k, c),
                seed,
            },
        }
    }

    /// Randomized mode with an explicit trial count.
    pub fn randomized_trials(trials: usize, seed: u64) -> Self {
        ColorCodingOptions {
            family: HashFamily::Random { trials, seed },
        }
    }
}

/// The variables of the `≠` atoms, for [`check_safety`].
fn neq_variables(q: &ConjunctiveQuery) -> impl Iterator<Item = &str> {
    q.neqs.iter().flat_map(|n| n.variables())
}

/// Is `Q(d)` nonempty? Exact with [`HashFamily::Perfect`]; one-sided error
/// (false negatives only, probability ≤ `e^{-c}`) with the randomized family.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database, opts: &ColorCodingOptions) -> Result<bool> {
    is_nonempty_governed(q, db, opts, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`: each trial coloring
/// ticks the clock and the per-node relations are charged to the budget.
///
/// With a pool on `ctx` the trials of a batch race
/// ([`ExecutionContext::find_first`]): the first successful trial wins and
/// cancels the rest of its batch. The answer is identical to the serial arm
/// at any thread count — with the perfect family a witness exists for *some*
/// coloring iff `Q(d)` is nonempty, so which trial finds it first is
/// immaterial; with the random family the same trials are drawn in the same
/// order.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: &ColorCodingOptions,
    ctx: &ExecutionContext,
) -> Result<bool> {
    if q.atoms.is_empty() {
        return Ok(q.neqs.iter().all(|n| match (&n.left, &n.right) {
            (pq_query::Term::Const(a), pq_query::Term::Const(b)) => a != b,
            _ => false,
        }));
    }
    check_safety(q, neq_variables(q))?;
    let prep = Prepared::build_governed(q, db, ctx)?;
    if prep.partition.trivially_false {
        return Ok(false);
    }
    let dom = DomainIndex::from_database(db);
    let k = prep.partition.k();
    let mut colorings = opts.family.colorings(&dom, k);
    if ctx.pool().threads() <= 1 {
        for h in colorings {
            ctx.tick(ENGINE)?;
            if algorithm1_governed(&prep, &dom, &h, ctx)?.is_some() {
                return Ok(true);
            }
        }
        return Ok(false);
    }
    loop {
        let batch: Vec<Coloring> = colorings.by_ref().take(TRIAL_BATCH).collect();
        if batch.is_empty() {
            return Ok(false);
        }
        let hit = ctx.find_first(&batch, |ctx, _, h| {
            ctx.tick(ENGINE)?;
            Ok(algorithm1_governed(&prep, &dom, h, ctx)?.map(|_| ()))
        })?;
        if hit.is_some() {
            return Ok(true);
        }
    }
}

/// The decision problem `t ∈ Q(d)`: substitute and test emptiness.
pub fn decide(
    q: &ConjunctiveQuery,
    db: &Database,
    t: &Tuple,
    opts: &ColorCodingOptions,
) -> Result<bool> {
    decide_governed(q, db, t, opts, &ExecutionContext::unlimited())
}

/// [`decide`] under the resource limits of `ctx`.
pub fn decide_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    t: &Tuple,
    opts: &ColorCodingOptions,
    ctx: &ExecutionContext,
) -> Result<bool> {
    match q.bind_head(t)? {
        None => Ok(false),
        Some(bq) => is_nonempty_governed(&bq, db, opts, ctx),
    }
}

/// Evaluate `Q(d)` as `⋃_h Q_h(d)`. Exact with [`HashFamily::Perfect`]; a
/// high-probability subset with the randomized family.
///
/// ```
/// use pq_data::{tuple, Database};
/// use pq_engine::colorcoding::{self, ColorCodingOptions};
/// use pq_query::parse_cq;
///
/// let mut db = Database::new();
/// db.add_table("EP", ["e", "p"], [
///     tuple!["ann", "p1"], tuple!["ann", "p2"], tuple!["bob", "p1"],
/// ]).unwrap();
/// // Section 5's example: employees on more than one project.
/// let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
/// let out = colorcoding::evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
/// assert_eq!(out.len(), 1);
/// assert!(out.contains(&tuple!["ann"]));
/// ```
pub fn evaluate(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: &ColorCodingOptions,
) -> Result<Relation> {
    evaluate_governed(q, db, opts, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`. With a pool on `ctx` the
/// trials of each batch fan out and the per-trial partial answers are
/// unioned in trial order, so the output relation is identical to the serial
/// arm's at any thread count.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: &ColorCodingOptions,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q, neq_variables(q))?;
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    if q.atoms.is_empty() {
        return if is_nonempty_governed(q, db, opts, ctx)? {
            vacuous_output(q)
        } else {
            Ok(out)
        };
    }
    let prep = Prepared::build_governed(q, db, ctx)?;
    if prep.partition.trivially_false {
        return Ok(out);
    }
    let dom = DomainIndex::from_database(db);
    let k = prep.partition.k();
    let trial = |ctx: &ExecutionContext, h: &Coloring| -> Result<Option<Relation>> {
        ctx.tick(ENGINE)?;
        let Some(p) = algorithm1_governed(&prep, &dom, h, ctx)? else {
            return Ok(None);
        };
        let star = algorithm2_governed(&prep, p, &prep.head_vars, ctx)?;
        Ok(Some(head_output(q, &star, ctx, ENGINE)?))
    };
    let mut colorings = opts.family.colorings(&dom, k);
    if ctx.pool().threads() <= 1 {
        for h in colorings {
            if let Some(part) = trial(ctx, &h)? {
                out = out.union(&part)?;
            }
        }
        return Ok(out);
    }
    loop {
        let batch: Vec<Coloring> = colorings.by_ref().take(TRIAL_BATCH).collect();
        if batch.is_empty() {
            return Ok(out);
        }
        let parts = ctx.try_run(&batch, |ctx, _, h| trial(ctx, h))?;
        for part in parts.into_iter().flatten() {
            out = out.union(&part)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pq_data::tuple;
    use pq_query::parse_cq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ep_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "EP",
            ["e", "p"],
            [
                tuple!["ann", "p1"],
                tuple!["ann", "p2"],
                tuple!["bob", "p1"],
                tuple!["cid", "p3"],
                tuple!["cid", "p1"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn paper_example_deterministic_evaluation() {
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let db = ep_db();
        let out = evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let expected = naive::evaluate(&q, &db).unwrap();
        assert_eq!(out, expected);
        assert!(out.contains(&tuple!["ann"]));
        assert!(out.contains(&tuple!["cid"]));
        assert!(!out.contains(&tuple!["bob"]));
    }

    #[test]
    fn randomized_emptiness_matches_with_enough_trials() {
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let db = ep_db();
        let opts = ColorCodingOptions::randomized(2, 5.0, 7);
        assert!(is_nonempty(&q, &db, &opts).unwrap());
    }

    #[test]
    fn empty_answer_is_detected_exactly() {
        // A single employee on a single project: no one is on >1 project.
        let mut db = Database::new();
        db.add_table("EP", ["e", "p"], [tuple!["ann", "p1"]])
            .unwrap();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        assert!(!is_nonempty(&q, &db, &ColorCodingOptions::default()).unwrap());
        // Randomized mode never reports a false positive.
        let opts = ColorCodingOptions::randomized_trials(50, 3);
        assert!(!is_nonempty(&q, &db, &opts).unwrap());
    }

    #[test]
    fn students_outside_department_example() {
        // Section 5's second example, three relations.
        let mut db = Database::new();
        db.add_table(
            "SD",
            ["s", "d"],
            [tuple!["sam", "cs"], tuple!["lea", "math"]],
        )
        .unwrap();
        db.add_table(
            "SC",
            ["s", "c"],
            [
                tuple!["sam", "algo"],
                tuple!["sam", "topo"],
                tuple!["lea", "topo"],
            ],
        )
        .unwrap();
        db.add_table(
            "CD",
            ["c", "d"],
            [tuple!["algo", "cs"], tuple!["topo", "math"]],
        )
        .unwrap();
        let q = parse_cq("G(s) :- SD(s, d), SC(s, c), CD(c, d2), d != d2.").unwrap();
        let out = evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let expected = naive::evaluate(&q, &db).unwrap();
        assert_eq!(out, expected);
        assert!(out.contains(&tuple!["sam"])); // topo is in math ≠ cs
        assert!(!out.contains(&tuple!["lea"]));
    }

    #[test]
    fn decision_problem_both_ways() {
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let db = ep_db();
        let opts = ColorCodingOptions::default();
        assert!(decide(&q, &db, &tuple!["ann"], &opts).unwrap());
        assert!(!decide(&q, &db, &tuple!["bob"], &opts).unwrap());
    }

    #[test]
    fn i2_only_query_needs_single_function() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 1], tuple![1, 2]])
            .unwrap();
        let q = parse_cq("G(x, y) :- R(x, y), x != y.").unwrap();
        let out = evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1, 2]));
    }

    #[test]
    fn chain_with_endpoint_inequality() {
        // x and z never co-occur: I1. Path of length 2 with distinct endpoints.
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![1, 2], tuple![2, 1], tuple![2, 3]])
            .unwrap();
        let q = parse_cq("G(x, z) :- E(x, y), E(y, z), x != z.").unwrap();
        let out = evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
        let expected = naive::evaluate(&q, &db).unwrap();
        assert_eq!(out, expected);
        assert!(out.contains(&tuple![1, 3]));
        assert!(!out.contains(&tuple![1, 1]));
    }

    #[test]
    fn three_way_i1_inequalities() {
        // Simple 3-path with all endpoints pairwise distinct — k = 3.
        let mut db = Database::new();
        let mut rows = Vec::new();
        for a in 0..4i64 {
            for b in 0..4i64 {
                if a != b {
                    rows.push(tuple![a, b]);
                }
            }
        }
        db.add_table("E", ["a", "b"], rows).unwrap();
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, w), x != z, x != w, y != w.").unwrap();
        let opts = ColorCodingOptions::default();
        assert!(is_nonempty(&q, &db, &opts).unwrap());
        // And the full evaluation agrees with naive on the Boolean level.
        assert_eq!(
            naive::is_nonempty(&q, &db).unwrap(),
            is_nonempty(&q, &db, &opts).unwrap()
        );
    }

    #[test]
    fn random_acyclic_neq_queries_agree_with_naive() {
        // Randomized structural test: chains of length 2–3 with random data
        // and a random endpoint inequality, deterministic family vs naive.
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..15 {
            let n_vals = rng.gen_range(3..8i64);
            let mut db = Database::new();
            let mut rows1 = Vec::new();
            let mut rows2 = Vec::new();
            for _ in 0..rng.gen_range(4..12) {
                rows1.push(tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
                rows2.push(tuple![rng.gen_range(0..n_vals), rng.gen_range(0..n_vals)]);
            }
            db.add_table("R", ["a", "b"], rows1).unwrap();
            db.add_table("S", ["a", "b"], rows2).unwrap();
            let q = parse_cq("G(x, z) :- R(x, y), S(y, z), x != z.").unwrap();
            let fast = evaluate(&q, &db, &ColorCodingOptions::default()).unwrap();
            let slow = naive::evaluate(&q, &db).unwrap();
            assert_eq!(fast, slow, "trial {trial}");
        }
    }

    #[test]
    fn trivially_false_queries_short_circuit() {
        let q = parse_cq("G :- EP(e, p), e != e.").unwrap();
        let db = ep_db();
        assert!(!is_nonempty(&q, &db, &ColorCodingOptions::default()).unwrap());
        assert!(evaluate(&q, &db, &ColorCodingOptions::default())
            .unwrap()
            .is_empty());
    }
}
