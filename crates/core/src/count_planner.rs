//! The count planner: dispatch `COUNT(Q)` to the cheapest exact strategy.
//!
//! Mirrors [`crate::planner`] for the counting problem: the analyzer's
//! `PQA7xx` pass (Chen–Mengel) decides whether the query admits counting
//! *without enumeration* — the semiring sweep over a join tree
//! (`count-yannakakis`) or over hypertree bags (`count-hypertree`) — and
//! otherwise the plan degrades to enumerate-then-count through the regular
//! engine chain. A [`CountPlan`] is reusable across databases, and
//! [`count_with_fallback`] is the governed degradation chain.

use pq_analyze::{analyze, Analysis, AnalyzeOptions, FigCell};
use pq_count::{CountError, CountedRelation, QueryCount};
use pq_data::{Database, Relation, Tuple};
use pq_engine::governor::ExecutionContext;
use pq_engine::EngineError;
use pq_hypergraph::HypertreeDecomposition;
use pq_query::ConjunctiveQuery;

use crate::planner::{self, first_success, retryable, FallbackAttempt, Plan, PlannerOptions, Step};

/// The counting strategy a [`CountPlan`] commits to.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CountChoice {
    /// The semiring sweep over the GYO join tree (acyclic pure queries).
    Acyclic,
    /// The semiring sweep over the bags of this hypertree decomposition
    /// (cyclic pure queries of bounded width).
    Hypertree(HypertreeDecomposition),
    /// The query is provably empty on every database: the count is 0.
    ConstantEmpty,
    /// Counting is as hard as enumeration here (≠/comparison atoms, or no
    /// decomposition within the width limit): evaluate with the regular
    /// planner and count the answer set. On this path only the `distinct`
    /// count is native; `assignments` is reported equal to it, because the
    /// enumerating engines return set-semantics answers.
    EnumerateThenCount,
}

/// The engine label a hypertree count plan advertises.
fn count_hypertree_label(width: usize) -> &'static str {
    match width {
        1 => "count-hypertree (width 1)",
        2 => "count-hypertree (width 2)",
        3 => "count-hypertree (width 3)",
        _ => "count-hypertree",
    }
}

/// The outcome of count planning: which counting strategy will run and why.
/// Like [`crate::Plan`], it captures everything derived from the query
/// alone, so one plan serves many databases.
#[derive(Debug, Clone)]
pub struct CountPlan {
    /// Human-readable engine name.
    pub engine: &'static str,
    /// The committed counting strategy.
    pub choice: CountChoice,
    /// The full static analysis, run with the counting pass on: the
    /// `PQA7xx` diagnostic explaining this plan is in here.
    pub analysis: Analysis,
    /// The intra-query parallelism degree this plan asks for (same
    /// contract as [`crate::Plan::parallelism`]).
    pub parallelism: usize,
    /// The evaluation plan an [`CountChoice::EnumerateThenCount`] plan
    /// counts the answers of — chosen once, at plan time, under the same
    /// [`PlannerOptions`] as the count plan itself. `None` for every other
    /// choice.
    enumeration: Option<Box<Plan>>,
}

/// Choose a counting strategy for the query.
///
/// Runs the static analyzer with the counting-tractability pass enabled
/// (so the plan's diagnostics include the `PQA7xx` classification), then
/// routes: provably empty → constant 0; acyclic pure → the join-tree
/// sweep; bounded-width cyclic pure → the bag sweep; everything else →
/// enumerate-then-count.
pub fn plan_count(q: &ConjunctiveQuery, opts: &PlannerOptions) -> CountPlan {
    let analysis = analyze(
        q,
        &AnalyzeOptions {
            counting: true,
            ..opts.analysis.clone()
        },
    );
    let (engine, choice) = if analysis.provably_empty() {
        ("constant (count 0)", CountChoice::ConstantEmpty)
    } else {
        match analysis.report.cell {
            FigCell::AcyclicPure => ("count-yannakakis", CountChoice::Acyclic),
            FigCell::CyclicBoundedWidth => match analysis.report.decomposition.clone() {
                Some(d) => (count_hypertree_label(d.width()), CountChoice::Hypertree(d)),
                None => ("enumerate-then-count", CountChoice::EnumerateThenCount),
            },
            _ => ("enumerate-then-count", CountChoice::EnumerateThenCount),
        }
    };
    let constant = matches!(choice, CountChoice::ConstantEmpty);
    let parallelism = planner::recommended_parallelism(&analysis, q, constant, opts);
    let enumeration = matches!(choice, CountChoice::EnumerateThenCount)
        .then(|| Box::new(planner::plan(analysis.effective(q), opts)));
    CountPlan {
        engine,
        choice,
        analysis,
        parallelism,
        enumeration,
    }
}

/// Group an enumerated answer set: +1 per distinct answer tuple, keyed by
/// its projection onto `groups`.
fn group_enumerated(
    rows: &Relation,
    groups: &[String],
    engine: &'static str,
) -> pq_count::Result<CountedRelation> {
    let positions: Vec<usize> = groups
        .iter()
        .map(|g| {
            rows.attr_pos(g).ok_or_else(|| {
                CountError::Engine(EngineError::Unsupported(format!(
                    "GROUP BY variable `{g}` is not an answer attribute"
                )))
            })
        })
        .collect::<pq_count::Result<_>>()?;
    let mut out = CountedRelation::new(groups.iter().map(String::clone))?;
    for t in rows.iter() {
        out.insert_add(t.project(&positions), 1, engine)?;
    }
    Ok(out)
}

impl CountPlan {
    /// Enumerate the answers of the (effective) query `q` with the
    /// evaluation plan chosen at plan time.
    fn enumerate(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> pq_count::Result<Relation> {
        let plan = self.enumeration.as_ref().ok_or_else(|| {
            EngineError::Unsupported("this count plan carries no evaluation plan".into())
        })?;
        Ok(plan.execute_governed(q, db, ctx)?)
    }

    /// Count `Q(d)` with the committed strategy under the limits of `ctx`,
    /// fanned out on the pool `ctx` carries; counts are byte-identical at
    /// any pool size.
    pub fn execute_governed(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> pq_count::Result<QueryCount> {
        let q = self.analysis.effective(q);
        match &self.choice {
            CountChoice::Acyclic => pq_count::count_governed(q, db, ctx),
            CountChoice::Hypertree(d) => pq_count::count_decomposed(q, db, d, ctx),
            CountChoice::ConstantEmpty => Ok(QueryCount {
                distinct: 0,
                assignments: 0,
            }),
            CountChoice::EnumerateThenCount => {
                let n = self.enumerate(q, db, ctx)?.len() as u128;
                Ok(QueryCount {
                    distinct: n,
                    assignments: n,
                })
            }
        }
    }

    /// Grouped counts `COUNT(Q) GROUP BY groups` with the committed
    /// strategy under the limits of `ctx`: one row per assignment of the
    /// group variables (which must be head variables), carrying the number
    /// of distinct answer tuples in that group.
    pub fn execute_by_governed(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        groups: &[String],
        ctx: &ExecutionContext,
    ) -> pq_count::Result<CountedRelation> {
        let q = self.analysis.effective(q);
        match &self.choice {
            CountChoice::Acyclic => pq_count::count_by_governed(q, db, groups, ctx),
            CountChoice::Hypertree(d) => pq_count::count_by_decomposed(q, db, d, groups, ctx),
            CountChoice::ConstantEmpty => {
                CountedRelation::new(pq_count::check_groups(q, groups)?.iter().map(String::clone))
            }
            CountChoice::EnumerateThenCount => {
                let groups = pq_count::check_groups(q, groups)?;
                group_enumerated(&self.enumerate(q, db, ctx)?, &groups, self.engine)
            }
        }
    }

    /// The base relations this plan reads (same contract as
    /// [`crate::Plan::mentioned_relations`]).
    pub fn mentioned_relations(&self, q: &ConjunctiveQuery) -> Vec<String> {
        let constant = matches!(self.choice, CountChoice::ConstantEmpty);
        planner::mentioned_relations(&self.analysis, q, constant)
    }
}

/// Count `Q(d)` with the strategy the classification recommends.
pub fn count(
    q: &ConjunctiveQuery,
    db: &Database,
    opts: &PlannerOptions,
) -> pq_count::Result<QueryCount> {
    plan_count(q, opts).execute_governed(q, db, &ExecutionContext::unlimited())
}

/// The outcome of a graceful-degradation count: the counts plus the trail
/// of strategies tried.
#[derive(Debug)]
pub struct CountOutcome {
    /// The exact counts.
    pub count: QueryCount,
    /// Attempts in order; the last entry is the one that succeeded.
    pub attempts: Vec<FallbackAttempt>,
}

/// Count `Q(d)` with graceful degradation under the limits of `ctx`.
///
/// Tries **count-yannakakis → count-hypertree → enumerate-then-count**,
/// advancing past strategies that reject the query or give up on a
/// recoverable limit — every attempt sharing `ctx`, like
/// [`crate::evaluate_with_fallback`], whose chain the final enumeration
/// step reuses wholesale (its inner attempts are appended to the trail).
pub fn count_with_fallback(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> pq_count::Result<CountOutcome> {
    let analysis = analyze(
        q,
        &AnalyzeOptions {
            minimize: false,
            counting: true,
            ..Default::default()
        },
    );
    if analysis.provably_empty() {
        return Ok(CountOutcome {
            count: QueryCount {
                distinct: 0,
                assignments: 0,
            },
            attempts: vec![FallbackAttempt {
                engine: "constant (count 0)",
                error: None,
            }],
        });
    }
    let chain: [Step<'_, QueryCount, CountError>; 2] = [
        (
            "count-yannakakis",
            Box::new(|| pq_count::count_governed(q, db, ctx)),
        ),
        (
            "count-hypertree",
            Box::new(|| match analysis.report.decomposition.as_ref() {
                Some(d) => pq_count::count_decomposed(q, db, d, ctx),
                None => Err(CountError::Engine(EngineError::Unsupported(
                    "no hypertree decomposition within the width limit".into(),
                ))),
            }),
        ),
    ];
    // May the chain move past `e`? Overflow never: the true count exceeds
    // `u128` on *every* strategy (enumeration least of all), so retrying
    // cannot help. Engine errors follow the evaluation chain's rule.
    let advances = |e: &CountError| matches!(e, CountError::Engine(e) if retryable(e));
    let mut attempts = Vec::new();
    let count = match first_success(chain, advances, &mut attempts) {
        Ok(count) => count,
        // Both sweeps gave up recoverably: enumerate-then-count through the
        // evaluation chain, whose own attempts join the trail.
        Err(e) if advances(&e) => {
            let out = planner::evaluate_with_fallback(q, db, ctx).map_err(CountError::Engine)?;
            attempts.extend(out.attempts);
            let n = out.result.len() as u128;
            QueryCount {
                distinct: n,
                assignments: n,
            }
        }
        Err(e) => return Err(e),
    };
    Ok(CountOutcome { count, attempts })
}

/// The counting decision problem `COUNT(Q)(d) ≥ k` without materializing
/// counts beyond `u128`: a convenience over [`count`].
pub fn count_at_least(
    q: &ConjunctiveQuery,
    db: &Database,
    k: u128,
    opts: &PlannerOptions,
) -> pq_count::Result<bool> {
    Ok(count(q, db, opts)?.distinct >= k)
}

/// Render a [`QueryCount`]'s distinct count as a one-row relation with the
/// single attribute `count` — the shape the service caches and ships for
/// `@count`.
pub fn count_relation(c: &QueryCount) -> pq_count::Result<Relation> {
    let mut out = Relation::new(["count"]).map_err(EngineError::Data)?;
    out.insert(Tuple::new(vec![pq_count::count_value(c.distinct)]))
        .map_err(EngineError::Data)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_engine::naive;
    use pq_exec::Pool;
    use pq_query::parse_cq;

    fn db() -> Database {
        let mut d = Database::new();
        d.add_table(
            "EP",
            ["e", "p"],
            [
                tuple!["ann", "p1"],
                tuple!["ann", "p2"],
                tuple!["bob", "p1"],
            ],
        )
        .unwrap();
        d.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![2, 4]])
            .unwrap();
        d.add_table("S", ["b", "c"], [tuple![2, 9], tuple![3, 9], tuple![4, 8]])
            .unwrap();
        d
    }

    #[test]
    fn count_plans_name_their_engines() {
        let opts = PlannerOptions::default();
        let p = plan_count(&parse_cq("G(x, y, z) :- R(x, y), S(y, z).").unwrap(), &opts);
        assert_eq!(p.engine, "count-yannakakis");
        assert_eq!(p.choice, CountChoice::Acyclic);
        let p = plan_count(&parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap(), &opts);
        assert_eq!(p.engine, "count-hypertree (width 2)");
        assert!(matches!(p.choice, CountChoice::Hypertree(_)));
        let p = plan_count(
            &parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap(),
            &opts,
        );
        assert_eq!(p.choice, CountChoice::EnumerateThenCount);
        let p = plan_count(&parse_cq("G(x) :- R(x, y), x != x.").unwrap(), &opts);
        assert_eq!(p.choice, CountChoice::ConstantEmpty);
        assert_eq!(p.engine, "constant (count 0)");
    }

    #[test]
    fn count_plans_carry_the_pqa7_diagnostic() {
        let opts = PlannerOptions::default();
        let p = plan_count(&parse_cq("G(x, y, z) :- R(x, y), S(y, z).").unwrap(), &opts);
        assert!(p
            .analysis
            .diagnostics
            .iter()
            .any(|d| d.code.code() == "PQA701"));
        let p = plan_count(
            &parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap(),
            &opts,
        );
        assert!(p
            .analysis
            .diagnostics
            .iter()
            .any(|d| d.code.code() == "PQA703"));
    }

    #[test]
    fn every_strategy_agrees_with_the_naive_oracle() {
        let opts = PlannerOptions::default();
        let d = db();
        for src in [
            "G(x, y, z) :- R(x, y), S(y, z).", // acyclic, quantifier-free
            "G(x) :- R(x, y), S(y, z).",       // acyclic, projected
            "G(x, y, z) :- R(x, y), R(y, z), R(z, x).", // cyclic bounded width
            "G(e) :- EP(e, p), EP(e, p2), p != p2.", // impure → enumerate
            "G(x) :- R(x, y), x < y.",         // comparisons → enumerate
            "G(x) :- R(x, y), x != x.",        // provably empty
        ] {
            let q = parse_cq(src).unwrap();
            let oracle = naive::evaluate(&q, &d).unwrap().len() as u128;
            let p = plan_count(&q, &opts);
            let ctx = ExecutionContext::unlimited();
            let c = p.execute_governed(&q, &d, &ctx).unwrap();
            assert_eq!(c.distinct, oracle, "{src}");
            for threads in [1, 4] {
                let ctx = ExecutionContext::unlimited().with_pool(&Pool::new(threads));
                let par = p.execute_governed(&q, &d, &ctx).unwrap();
                assert_eq!(par, c, "{src} at {threads} threads");
            }
            // The fallback chain lands on the same number.
            let out = count_with_fallback(&q, &d, &ExecutionContext::unlimited()).unwrap();
            assert_eq!(out.count.distinct, oracle, "{src}");
            assert!(out.attempts.last().unwrap().error.is_none(), "{src}");
        }
    }

    #[test]
    fn grouped_counts_agree_across_strategies() {
        let opts = PlannerOptions::default();
        let d = db();
        for src in [
            "G(x, z) :- R(x, y), S(y, z).",
            "G(e) :- EP(e, p), EP(e, p2), p != p2.",
        ] {
            let q = parse_cq(src).unwrap();
            let group = q.head_variables()[0].to_string();
            let p = plan_count(&q, &opts);
            let ctx = ExecutionContext::unlimited();
            let by = p
                .execute_by_governed(&q, &d, std::slice::from_ref(&group), &ctx)
                .unwrap();
            // Oracle: enumerate naively and group by hand.
            let rows = naive::evaluate(&q, &d).unwrap();
            let pos = rows.attr_pos(&group).unwrap();
            let mut expected: std::collections::BTreeMap<Tuple, u128> = Default::default();
            for t in rows.iter() {
                *expected.entry(t.project(&[pos])).or_insert(0) += 1;
            }
            assert_eq!(by.len(), expected.len(), "{src}");
            for (t, c) in by.iter() {
                assert_eq!(expected.get(t).copied(), Some(c), "{src} group {t}");
            }
            let ctx = ExecutionContext::unlimited().with_pool(&Pool::new(3));
            let par = p.execute_by_governed(&q, &d, &[group], &ctx).unwrap();
            assert_eq!(par, by, "{src}");
        }
    }

    #[test]
    fn fallback_chain_reports_its_trail() {
        let d = db();
        // Cyclic: count-yannakakis rejects, count-hypertree succeeds.
        let q = parse_cq("G(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap();
        let out = count_with_fallback(&q, &d, &ExecutionContext::unlimited()).unwrap();
        let engines: Vec<_> = out.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(engines, vec!["count-yannakakis", "count-hypertree"]);
        // Impure: both sweeps reject, enumeration chain takes over.
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let out = count_with_fallback(&q, &d, &ExecutionContext::unlimited()).unwrap();
        let engines: Vec<_> = out.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(
            engines,
            vec!["count-yannakakis", "count-hypertree", "color-coding"]
        );
    }

    #[test]
    fn count_relation_renders_the_distinct_count() {
        let r = count_relation(&QueryCount {
            distinct: 7,
            assignments: 12,
        })
        .unwrap();
        assert_eq!(r.attrs(), ["count".to_string()]);
        assert!(r.contains(&tuple![7]));
        // Beyond i64: the exact decimal string survives.
        let big = (i64::MAX as u128) + 1;
        let r = count_relation(&QueryCount {
            distinct: big,
            assignments: big,
        })
        .unwrap();
        assert!(r.contains(&Tuple::new(vec![pq_data::Value::str(big.to_string())])));
    }

    #[test]
    fn count_at_least_thresholds() {
        let d = db();
        let opts = PlannerOptions::default();
        let q = parse_cq("G(x, y, z) :- R(x, y), S(y, z).").unwrap();
        assert!(count_at_least(&q, &d, 3, &opts).unwrap());
        assert!(!count_at_least(&q, &d, 4, &opts).unwrap());
    }

    #[test]
    fn enumerate_then_count_runs_the_plan_chosen_under_the_callers_options() {
        // With the width limit at 1 the triangle has no decomposition in
        // budget: the count plan degrades to enumeration, and the evaluation
        // plan it carries must obey the same limit — naive backtracking, not
        // the width-2 hypertree plan default options would pick.
        let mut opts = PlannerOptions::default();
        opts.analysis.width_limit = 1;
        let q = parse_cq("G(x, y, z) :- R(x, y), R(y, z), R(z, x).").unwrap();
        let p = plan_count(&q, &opts);
        assert_eq!(p.choice, CountChoice::EnumerateThenCount);
        let mut d = Database::new();
        d.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![3, 1]])
            .unwrap();
        let tiny = || ExecutionContext::new().with_tuple_budget(0);
        match p.execute_governed(&q, &d, &tiny()) {
            Err(CountError::Engine(EngineError::ResourceExhausted { engine, .. })) => {
                assert_eq!(engine, "naive");
            }
            other => panic!("expected a budget trip in naive, got {other:?}"),
        }
        let by = p.execute_by_governed(&q, &d, &["x".to_string()], &tiny());
        match by {
            Err(CountError::Engine(EngineError::ResourceExhausted { engine, .. })) => {
                assert_eq!(engine, "naive");
            }
            other => panic!("expected a budget trip in naive, got {other:?}"),
        }
        // Unlimited, the carried plan still counts exactly.
        let c = p
            .execute_governed(&q, &d, &ExecutionContext::unlimited())
            .unwrap();
        assert_eq!(c.distinct, 3);
    }
}
