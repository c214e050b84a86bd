//! The planner: dispatch a conjunctive query to the engine the paper's
//! classification recommends.

use std::sync::Arc;

use pq_analyze::{analyze, Analysis, AnalyzeOptions, FigCell, StructureReport};
use pq_data::{Database, Relation, Tuple};
use pq_engine::colorcoding::{ColorCodingOptions, HashFamily};
use pq_engine::governor::{ExecutionContext, ResourceKind};
use pq_engine::{colorcoding, hypertree, naive, naive_indexed, yannakakis, EngineError, Result};
use pq_hypergraph::HypertreeDecomposition;
use pq_query::ConjunctiveQuery;
use pq_wtheory::WClass;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Above this color parameter `k`, the Theorem 2 engine switches from
    /// the deterministic k-perfect family to randomized trials (the
    /// deterministic family has `2^{O(k log k)}` members). Emptiness answers
    /// then acquire the paper's one-sided error `e^{-c}`.
    pub deterministic_k_limit: usize,
    /// The `c` of the randomized driver's `⌈c·e^k⌉` trials.
    pub randomized_confidence: f64,
    /// Seed for randomized trials.
    pub seed: u64,
    /// Static-analysis options: whether (and up to what size) the planner
    /// core-minimizes the query before choosing an engine.
    pub analysis: AnalyzeOptions,
    /// Upper bound on the intra-query parallelism degree a plan may pick
    /// (see [`Plan::parallelism`]). Defaults to [`pq_exec::default_threads`]
    /// — the `PQ_EXEC_THREADS` override or the machine's core count.
    pub max_parallelism: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            deterministic_k_limit: 4,
            randomized_confidence: 5.0,
            seed: 0x9e3779b9,
            analysis: AnalyzeOptions::default(),
            max_parallelism: pq_exec::default_threads(),
        }
    }
}

/// The engine a [`Plan`] commits to, with all query-only preprocessing
/// (classification, color-parameter inspection, hash-family choice) already
/// baked in. Executing a stored plan therefore never reclassifies — the
/// preprocessing/evaluation split a plan cache amortizes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineChoice {
    /// Yannakakis join-tree evaluation (acyclic, no constraints).
    Yannakakis,
    /// Theorem 2 color coding, with the options chosen at plan time.
    ColorCoding(ColorCodingOptions),
    /// The comparison system is inconsistent: the answer is empty for every
    /// database.
    ConstantEmpty,
    /// Hypertree bag evaluation for cyclic pure queries of bounded width;
    /// the decomposition the analyzer found is baked into the plan, so
    /// execution never repeats the width search.
    Hypertree(HypertreeDecomposition),
    /// Naive `n^q` backtracking (wide cyclic queries and comparisons).
    Naive,
    /// Answer from a registered view's maintained relation (`PQA801`/
    /// `PQA802`): project the listed view columns under the query's head
    /// attributes. Degradation chain by construction: when the database
    /// has no relation under the view's name at execution time, the
    /// embedded `fallback` — the choice the planner would have made
    /// without the view — runs instead.
    ViewScan {
        /// Name of the registered view whose relation answers the query.
        view: String,
        /// Column indices into the view relation, in query-head order.
        projection: Vec<usize>,
        /// The normal engine choice, used when the view relation is absent.
        fallback: Box<EngineChoice>,
    },
}

/// The known parametric lower bound for evaluating the queries of a Fig. 1
/// cell: W\[1\] for comparisons (Theorem 3) and for cyclic queries
/// (Theorem 1), `None` where the cell has an f.p.-tractable or polynomial
/// engine (Yannakakis \[18\], Theorem 2, bounded hypertree width) or no
/// work at all (inconsistent comparisons).
pub fn lower_bound(cell: FigCell) -> Option<WClass> {
    match cell {
        FigCell::AcyclicComparisons | FigCell::Cyclic => Some(WClass::W(1)),
        FigCell::AcyclicPure
        | FigCell::AcyclicNeq
        | FigCell::InconsistentComparisons
        | FigCell::CyclicBoundedWidth => None,
    }
}

/// The engine label a hypertree plan advertises; widths within the default
/// limit are spelled out so `EXPLAIN` output names the bound.
fn hypertree_label(width: usize) -> &'static str {
    match width {
        1 => "hypertree (width 1)",
        2 => "hypertree (width 2)",
        3 => "hypertree (width 3)",
        _ => "hypertree",
    }
}

/// The outcome of planning: which engine will run and why.
///
/// A `Plan` is *reusable*: it captures everything derived from the query
/// alone, so the same plan can be executed against many databases (or the
/// same database many times) via [`Plan::execute`] without repeating
/// classification or GYO work. [`evaluate`]/[`is_nonempty`] are thin
/// plan-then-execute wrappers.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The structural report that drove the choice: the same `Arc` as
    /// `analysis.report`, not a copy. It exists because the benchmark's
    /// probes read `plan.classification`; everything else reads
    /// `analysis.report`.
    pub classification: Arc<StructureReport>,
    /// Human-readable engine name.
    pub engine: &'static str,
    /// The committed engine plus its plan-time options.
    pub choice: EngineChoice,
    /// The full static analysis: diagnostics, the minimized core (when one
    /// exists — execution runs it instead of the original), and the
    /// provably-empty verdict that short-circuits to [`EngineChoice::ConstantEmpty`].
    pub analysis: Analysis,
    /// The intra-query parallelism degree this plan asks for: the size of
    /// the [`pq_exec::Pool`] worth attaching to the context handed to
    /// [`Plan::execute_governed`] (`ExecutionContext::with_pool`). Constant
    /// plans (and single-atom queries, which have no fan-out) get `1`;
    /// everything else gets the planner's `max_parallelism`. Executing with
    /// a pool of a different size is still correct — every engine produces
    /// thread-count-independent output — this is only the planner's
    /// recommendation.
    pub parallelism: usize,
}

/// Choose an engine for the query.
///
/// The planner runs the static analyzer first: a provably-empty query
/// (reflexive `≠`, inconsistent comparisons, a `≠` forced equal) compiles
/// to a constant plan that never touches the database, and when core
/// minimization shrinks the query, classification and execution both use
/// the minimized core — `q` and `v` drop before any engine sees them.
pub fn plan(q: &ConjunctiveQuery, opts: &PlannerOptions) -> Plan {
    let analysis = analyze(q, &opts.analysis);
    let report = &analysis.report;
    let (engine, choice) = if analysis.provably_empty() {
        let label = if report.cell == FigCell::InconsistentComparisons {
            "constant (empty answer)"
        } else {
            "constant (provably empty)"
        };
        (label, EngineChoice::ConstantEmpty)
    } else {
        match report.cell {
            FigCell::AcyclicPure => ("yannakakis", EngineChoice::Yannakakis),
            FigCell::AcyclicNeq => {
                let k = report.color_parameter.unwrap_or(0);
                let cc = cc_options(k, opts);
                let name = if k <= opts.deterministic_k_limit {
                    "colorcoding (deterministic k-perfect family)"
                } else {
                    "colorcoding (randomized)"
                };
                (name, EngineChoice::ColorCoding(cc))
            }
            FigCell::InconsistentComparisons => {
                ("constant (empty answer)", EngineChoice::ConstantEmpty)
            }
            FigCell::CyclicBoundedWidth => match report.decomposition.clone() {
                Some(d) => (hypertree_label(d.width()), EngineChoice::Hypertree(d)),
                // The cell implies a decomposition; degrade rather than
                // panic if a future analyzer change breaks that link.
                None => ("naive backtracking", EngineChoice::Naive),
            },
            FigCell::AcyclicComparisons | FigCell::Cyclic => {
                ("naive backtracking", EngineChoice::Naive)
            }
        }
    };
    let constant = matches!(choice, EngineChoice::ConstantEmpty);
    let parallelism = recommended_parallelism(&analysis, q, constant, opts);
    // A view match (PQA801/PQA802) wraps the normal choice: scan the
    // maintained view relation when it is present, degrade to the choice
    // above when it is not. Parallelism keeps the fallback's degree — the
    // scan itself is O(|view|) and needs none.
    let (engine, choice) = match &analysis.view_match {
        Some(m) => (
            "view-scan",
            EngineChoice::ViewScan {
                view: m.view.clone(),
                projection: m.projection.clone(),
                fallback: Box::new(choice),
            },
        ),
        None => (engine, choice),
    };
    Plan {
        classification: Arc::clone(&analysis.report),
        engine,
        choice,
        analysis,
        parallelism,
    }
}

/// The parallelism rule both planners share ([`Plan::parallelism`]):
/// constant plans and single-atom queries have no fan-out and get `1`,
/// everything else the configured `max_parallelism`.
pub(crate) fn recommended_parallelism(
    analysis: &Analysis,
    q: &ConjunctiveQuery,
    constant: bool,
    opts: &PlannerOptions,
) -> usize {
    if constant || analysis.effective(q).atoms.len() <= 1 {
        1
    } else {
        opts.max_parallelism.max(1)
    }
}

/// The base relations a plan over `analysis` reads when executed on `q`:
/// the body atoms of the *effective* (possibly core-minimized) query, sorted
/// and deduplicated; a constant plan reads nothing. The one body behind
/// [`Plan::mentioned_relations`] and [`crate::CountPlan::mentioned_relations`].
pub(crate) fn mentioned_relations(
    analysis: &Analysis,
    q: &ConjunctiveQuery,
    constant: bool,
) -> Vec<String> {
    if constant {
        return Vec::new();
    }
    let mut names: Vec<String> = analysis
        .effective(q)
        .atoms
        .iter()
        .map(|a| a.relation.clone())
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

fn cc_options(k: usize, opts: &PlannerOptions) -> ColorCodingOptions {
    if k <= opts.deterministic_k_limit {
        ColorCodingOptions {
            family: HashFamily::Perfect,
        }
    } else {
        ColorCodingOptions::randomized(k, opts.randomized_confidence, opts.seed)
    }
}

fn empty_head(q: &ConjunctiveQuery) -> Result<Relation> {
    Relation::new(pq_engine::binding::head_attrs(&q.head_terms)).map_err(EngineError::Data)
}

/// Project the maintained view relation onto the query's head attributes —
/// the `O(|view|)` scan that replaces evaluation for `PQA801`/`PQA802`
/// matches. The output relation carries the *query's* head attributes, so
/// it is byte-identical to what direct evaluation would return.
pub fn view_scan(q: &ConjunctiveQuery, view: &Relation, projection: &[usize]) -> Result<Relation> {
    let mut out = empty_head(q)?;
    for t in view.iter() {
        out.insert(Tuple::new(projection.iter().map(|&j| t[j].clone())))?;
    }
    Ok(out)
}

/// Execute one engine choice under the limits of `ctx`, at the degree of
/// the pool it carries; `ViewScan` recurses into its fallback when the view
/// relation is absent from `db`.
fn execute_choice(
    choice: &EngineChoice,
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    match choice {
        EngineChoice::Yannakakis => yannakakis::evaluate_governed(q, db, ctx),
        EngineChoice::ColorCoding(cc) => colorcoding::evaluate_governed(q, db, cc, ctx),
        EngineChoice::ConstantEmpty => empty_head(q),
        EngineChoice::Hypertree(d) => hypertree::evaluate_decomposed(q, db, d, ctx),
        EngineChoice::Naive => naive::evaluate_governed(q, db, ctx),
        EngineChoice::ViewScan {
            view,
            projection,
            fallback,
        } => match db.relation(view) {
            // The scan is linear in the view; no fan-out to parallelize.
            Ok(rel) => view_scan(q, rel, projection),
            Err(_) => execute_choice(fallback, q, db, ctx),
        },
    }
}

/// Emptiness with one engine choice; same contract as [`execute_choice`].
fn is_nonempty_choice(
    choice: &EngineChoice,
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    match choice {
        EngineChoice::Yannakakis => yannakakis::is_nonempty_governed(q, db, ctx),
        EngineChoice::ColorCoding(cc) => colorcoding::is_nonempty_governed(q, db, cc, ctx),
        EngineChoice::ConstantEmpty => Ok(false),
        EngineChoice::Hypertree(d) => hypertree::is_nonempty_decomposed(q, db, d, ctx),
        EngineChoice::Naive => naive::is_nonempty_governed(q, db, ctx),
        EngineChoice::ViewScan { view, fallback, .. } => match db.relation(view) {
            // A projection is nonempty iff its source is.
            Ok(rel) => Ok(!rel.is_empty()),
            Err(_) => is_nonempty_choice(fallback, q, db, ctx),
        },
    }
}

impl Plan {
    /// Execute this plan's committed engine on `(q, db)` without
    /// reclassifying. `q` must be the query the plan was built from (or one
    /// with the same structure — the plan stores no per-query data beyond
    /// the choice, so handing it a structurally different query runs the
    /// wrong engine, not a wrong answer).
    pub fn execute(&self, q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
        self.execute_governed(q, db, &ExecutionContext::unlimited())
    }

    /// The base relations this plan reads when executed on `q`: the body
    /// atoms of the *effective* (possibly core-minimized) query, sorted and
    /// deduplicated. A constant plan reads nothing. Callers keying caches
    /// per relation (the service's result cache, view maintenance) use this
    /// to ignore mutations to relations the plan never touches.
    pub fn mentioned_relations(&self, q: &ConjunctiveQuery) -> Vec<String> {
        let constant = matches!(self.choice, EngineChoice::ConstantEmpty);
        mentioned_relations(&self.analysis, q, constant)
    }

    /// [`Plan::execute`] under the limits of `ctx` (see
    /// [`ExecutionContext`]), with the committed engine's intra-query
    /// fan-out when `ctx` carries a pool. The answer is identical at any
    /// pool size; [`Plan::parallelism`] is the size this plan recommends.
    pub fn execute_governed(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> Result<Relation> {
        execute_choice(&self.choice, self.analysis.effective(q), db, ctx)
    }

    /// Emptiness of `Q(d)` with the committed engine, without reclassifying.
    pub fn is_nonempty(&self, q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
        self.is_nonempty_governed(q, db, &ExecutionContext::unlimited())
    }

    /// [`Plan::is_nonempty`] under the limits of `ctx`; see
    /// [`Plan::execute_governed`].
    pub fn is_nonempty_governed(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> Result<bool> {
        is_nonempty_choice(&self.choice, self.analysis.effective(q), db, ctx)
    }
}

/// Evaluate `Q(d)` with the engine the classification recommends.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database, opts: &PlannerOptions) -> Result<Relation> {
    plan(q, opts).execute(q, db)
}

/// Emptiness with the recommended engine.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database, opts: &PlannerOptions) -> Result<bool> {
    plan(q, opts).is_nonempty(q, db)
}

/// One attempt in the graceful-degradation chain of
/// [`evaluate_with_fallback`].
#[derive(Debug, Clone)]
pub struct FallbackAttempt {
    /// The engine tried.
    pub engine: &'static str,
    /// `None` when the attempt succeeded; otherwise the error text that
    /// moved the chain along.
    pub error: Option<String>,
}

/// The outcome of a graceful-degradation evaluation: the answer plus the
/// trail of engines tried to get it.
#[derive(Debug)]
pub struct FallbackOutcome {
    /// The query answer.
    pub result: Relation,
    /// Attempts in order; the last entry is the one that succeeded.
    pub attempts: Vec<FallbackAttempt>,
}

/// May the chain recover from `e` by trying a different engine?
///
/// `Unsupported` always: the next engine may well handle the query. Budget
/// and depth exhaustion: yes — the tuple budget is shared (a later engine
/// gets whatever is left, which is zero after a genuine exhaustion but
/// intact after an injected fault), and a depth-limited recursive engine can
/// be rescued by an iterative one. Timeouts and cancellation are global
/// conditions — no engine can outrun a passed deadline or a cancelled
/// token — so they propagate immediately.
pub(crate) fn retryable(e: &EngineError) -> bool {
    match e {
        EngineError::Unsupported(_) => true,
        EngineError::ResourceExhausted { kind, .. } => {
            matches!(kind, ResourceKind::TupleBudget | ResourceKind::DepthLimit)
        }
        _ => false,
    }
}

/// One step of a degradation chain: the engine's name and its run.
pub(crate) type Step<'a, T, E> = (
    &'static str,
    Box<dyn Fn() -> std::result::Result<T, E> + 'a>,
);

/// Walk a degradation chain: run the steps in order, recording every
/// attempt in `attempts`, until one succeeds. An error `retryable` rejects
/// ends the walk at once; when every step fails retryably the last error
/// comes back. The one loop behind [`evaluate_with_fallback`] and
/// [`crate::count_with_fallback`].
pub(crate) fn first_success<'a, T, E: std::fmt::Display>(
    chain: impl IntoIterator<Item = Step<'a, T, E>>,
    retryable: impl Fn(&E) -> bool,
    attempts: &mut Vec<FallbackAttempt>,
) -> std::result::Result<T, E> {
    let mut last_err = None;
    for (engine, run) in chain {
        match run() {
            Ok(out) => {
                attempts.push(FallbackAttempt {
                    engine,
                    error: None,
                });
                return Ok(out);
            }
            Err(e) if retryable(&e) => {
                attempts.push(FallbackAttempt {
                    engine,
                    error: Some(e.to_string()),
                });
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err.expect("chain is nonempty"))
}

/// Evaluate `Q(d)` with graceful degradation under the limits of `ctx`.
///
/// Tries the chain **color-coding → Yannakakis → hypertree → indexed-naive →
/// naive**, advancing past engines that reject the query (`Unsupported`) or give up
/// on a recoverable limit (see [`FallbackAttempt`]). Every attempt shares
/// `ctx`, so a fallback engine runs on exactly the budget its predecessors
/// left. The chain never trades correctness for progress: the color-coding
/// step always uses the deterministic k-perfect family, because the
/// randomized family's one-sided error could silently drop answer tuples —
/// the one failure mode this whole layer exists to rule out.
pub fn evaluate_with_fallback(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<FallbackOutcome> {
    // A minimization-free analysis: cheap (no containment checks), and
    // enough to short-circuit every provably-empty query, the
    // inconsistent-comparison cell included.
    let analysis = analyze(
        q,
        &AnalyzeOptions {
            minimize: false,
            ..Default::default()
        },
    );
    if analysis.provably_empty() {
        let result = Relation::new(pq_engine::binding::head_attrs(&q.head_terms))
            .map_err(EngineError::Data)?;
        return Ok(FallbackOutcome {
            result,
            attempts: vec![FallbackAttempt {
                engine: "constant (empty answer)",
                error: None,
            }],
        });
    }
    let cc = ColorCodingOptions {
        family: HashFamily::Perfect,
    };
    let chain: [Step<'_, Relation, EngineError>; 5] = [
        (
            "color-coding",
            Box::new(|| colorcoding::evaluate_governed(q, db, &cc, ctx)),
        ),
        (
            "yannakakis",
            Box::new(|| yannakakis::evaluate_governed(q, db, ctx)),
        ),
        (
            "hypertree",
            Box::new(|| hypertree::evaluate_governed(q, db, ctx)),
        ),
        (
            "naive-indexed",
            Box::new(|| naive_indexed::evaluate_governed(q, db, ctx)),
        ),
        ("naive", Box::new(|| naive::evaluate_governed(q, db, ctx))),
    ];
    let mut attempts = Vec::new();
    let result = first_success(chain, retryable, &mut attempts)?;
    Ok(FallbackOutcome { result, attempts })
}

/// The decision problem `t ∈ Q(d)` with the recommended engine.
pub fn decide(
    q: &ConjunctiveQuery,
    db: &Database,
    t: &Tuple,
    opts: &PlannerOptions,
) -> Result<bool> {
    match q.bind_head(t).map_err(EngineError::Query)? {
        None => Ok(false),
        Some(bq) => is_nonempty(&bq, db, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
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
        d.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3]])
            .unwrap();
        d.add_table("S", ["b", "c"], [tuple![2, 9]]).unwrap();
        d
    }

    #[test]
    fn plans_name_their_engines() {
        let opts = PlannerOptions::default();
        let p = plan(&parse_cq("G(x) :- R(x, y), S(y, z).").unwrap(), &opts);
        assert_eq!(p.engine, "yannakakis");
        let p = plan(
            &parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap(),
            &opts,
        );
        assert!(p.engine.starts_with("colorcoding"));
        // Cyclic but width-2: the hypertree engine, naming its bound.
        let p = plan(&parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap(), &opts);
        assert_eq!(p.engine, "hypertree (width 2)");
        // Cyclic and impure: no bounded-width promotion.
        let p = plan(
            &parse_cq("G :- R(x, y), R(y, z), R(z, x), x != y.").unwrap(),
            &opts,
        );
        assert_eq!(p.engine, "naive backtracking");
        // Cyclic and too wide for the exact gate: heuristic width 4 > 3.
        let p = plan(&parse_cq(&k7_query()).unwrap(), &opts);
        assert_eq!(p.engine, "naive backtracking");
    }

    /// The K7 clique query as 21 binary atoms: past [`pq_hypergraph::EXACT_EDGE_LIMIT`],
    /// the greedy heuristic certifies width 4 — above the engine limit.
    fn k7_query() -> String {
        let mut atoms = Vec::new();
        for i in 0..7 {
            for j in (i + 1)..7 {
                atoms.push(format!("R(v{i}, v{j})"));
            }
        }
        format!("G :- {}.", atoms.join(", "))
    }

    #[test]
    fn classes_cover_the_paper_landscape() {
        use pq_analyze::structure_of;
        let cell_and_bound = |src: &str| {
            let r = structure_of(&parse_cq(src).unwrap());
            (r.cell, lower_bound(r.cell))
        };
        assert_eq!(
            cell_and_bound("G(x, z) :- R(x, y), S(y, z)."),
            (FigCell::AcyclicPure, None)
        );

        let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let r = structure_of(&neq);
        assert_eq!((r.cell, lower_bound(r.cell)), (FigCell::AcyclicNeq, None));
        assert_eq!(r.color_parameter, Some(2));
        assert_eq!(r.v, 3);
        assert!(r.q > 0);

        assert_eq!(
            cell_and_bound("G(e) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s."),
            (FigCell::AcyclicComparisons, Some(WClass::W(1)))
        );
        // A pure triangle is cyclic but width 2: the tractable cell.
        assert_eq!(
            cell_and_bound("G :- E(x, y), E(y, z), E(z, x)."),
            (FigCell::CyclicBoundedWidth, None)
        );
        // Cyclic *and* impure stays in the hard cell.
        assert_eq!(
            cell_and_bound("G :- E(x, y), E(y, z), E(z, x), x != y."),
            (FigCell::Cyclic, Some(WClass::W(1)))
        );
        assert_eq!(
            cell_and_bound("G :- R(x, y), x < y, y < x."),
            (FigCell::InconsistentComparisons, None)
        );
    }

    #[test]
    fn stored_plans_execute_without_reclassifying() {
        let opts = PlannerOptions::default();
        let d = db();
        for src in [
            "G(x, c) :- R(x, y), S(y, c).",
            "G(e) :- EP(e, p), EP(e, p2), p != p2.",
            "G :- R(x, y), R(y, z), R(z, x).",
            "G(x) :- R(x, y), x < y.",
            "G(x) :- R(x, y), x < y, y < x.",
        ] {
            let q = parse_cq(src).unwrap();
            let p = plan(&q, &opts);
            // Repeated executions of the same stored plan agree with the
            // one-shot entry point and with each other.
            let one_shot = evaluate(&q, &d, &opts).unwrap();
            assert_eq!(p.execute(&q, &d).unwrap(), one_shot, "{src}");
            assert_eq!(p.execute(&q, &d).unwrap(), one_shot, "{src}");
            assert_eq!(
                p.is_nonempty(&q, &d).unwrap(),
                is_nonempty(&q, &d, &opts).unwrap(),
                "{src}"
            );
            // Governed execution with no limits matches too.
            let ctx = ExecutionContext::unlimited();
            assert_eq!(p.execute_governed(&q, &d, &ctx).unwrap(), one_shot, "{src}");
            // The plan's report is the analysis's own value, not a copy.
            assert!(Arc::ptr_eq(&p.classification, &p.analysis.report), "{src}");
        }
    }

    #[test]
    fn plan_choice_matches_engine_label() {
        let opts = PlannerOptions::default();
        let p = plan(&parse_cq("G(x) :- R(x, y), S(y, z).").unwrap(), &opts);
        assert_eq!(p.choice, EngineChoice::Yannakakis);
        let p = plan(
            &parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap(),
            &opts,
        );
        assert!(matches!(p.choice, EngineChoice::ColorCoding(_)));
        let p = plan(&parse_cq("G :- R(x, y), x < y, y < x.").unwrap(), &opts);
        assert_eq!(p.choice, EngineChoice::ConstantEmpty);
        let p = plan(&parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap(), &opts);
        match &p.choice {
            EngineChoice::Hypertree(d) => assert_eq!(d.width(), 2),
            other => panic!("triangle should plan hypertree, got {other:?}"),
        }
        let p = plan(&parse_cq(&k7_query()).unwrap(), &opts);
        assert_eq!(p.choice, EngineChoice::Naive);
    }

    #[test]
    fn planner_results_agree_with_naive_oracle() {
        let opts = PlannerOptions::default();
        let d = db();
        for src in [
            "G(x, c) :- R(x, y), S(y, c).",
            "G(e) :- EP(e, p), EP(e, p2), p != p2.",
            "G :- R(x, y), R(y, z), R(z, x).",
            "G(x) :- R(x, y), x < y.",
        ] {
            let q = parse_cq(src).unwrap();
            let fast = evaluate(&q, &d, &opts).unwrap();
            let slow = naive::evaluate(&q, &d).unwrap();
            assert_eq!(fast, slow, "{src}");
            assert_eq!(
                is_nonempty(&q, &d, &opts).unwrap(),
                naive::is_nonempty(&q, &d).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn inconsistent_comparisons_evaluate_empty() {
        let opts = PlannerOptions::default();
        let q = parse_cq("G(x) :- R(x, y), x < y, y < x.").unwrap();
        let out = evaluate(&q, &db(), &opts).unwrap();
        assert!(out.is_empty());
        assert!(!is_nonempty(&q, &db(), &opts).unwrap());
    }

    #[test]
    fn decide_routes_through_planner() {
        let opts = PlannerOptions::default();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        assert!(decide(&q, &db(), &tuple!["ann"], &opts).unwrap());
        assert!(!decide(&q, &db(), &tuple!["bob"], &opts).unwrap());
    }

    #[test]
    fn fallback_chain_reaches_hypertree_for_bounded_width_cycles() {
        let d = db();
        let q = parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap();
        let ctx = ExecutionContext::unlimited();
        let out = evaluate_with_fallback(&q, &d, &ctx).unwrap();
        assert_eq!(out.result, naive::evaluate(&q, &d).unwrap());
        let engines: Vec<_> = out.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(engines, vec!["color-coding", "yannakakis", "hypertree"]);
        assert!(out.attempts[0].error.is_some());
        assert!(out.attempts[1].error.is_some());
        assert!(out.attempts[2].error.is_none());
    }

    #[test]
    fn fallback_chain_reaches_naive_indexed_for_wide_cyclic_queries() {
        let d = db();
        let q = parse_cq(&k7_query()).unwrap();
        let ctx = ExecutionContext::unlimited();
        let out = evaluate_with_fallback(&q, &d, &ctx).unwrap();
        assert_eq!(out.result, naive::evaluate(&q, &d).unwrap());
        let engines: Vec<_> = out.attempts.iter().map(|a| a.engine).collect();
        assert_eq!(
            engines,
            vec!["color-coding", "yannakakis", "hypertree", "naive-indexed"]
        );
        assert!(out.attempts[2].error.is_some());
        assert!(out.attempts[3].error.is_none());
    }

    #[test]
    fn fallback_agrees_with_naive_oracle_when_unlimited() {
        let d = db();
        for src in [
            "G(x, c) :- R(x, y), S(y, c).",
            "G(e) :- EP(e, p), EP(e, p2), p != p2.",
            "G :- R(x, y), R(y, z), R(z, x).",
            "G(x) :- R(x, y), x < y.",
        ] {
            let q = parse_cq(src).unwrap();
            let out = evaluate_with_fallback(&q, &d, &ExecutionContext::unlimited()).unwrap();
            assert_eq!(out.result, naive::evaluate(&q, &d).unwrap(), "{src}");
            assert!(out.attempts.last().unwrap().error.is_none(), "{src}");
        }
    }

    #[test]
    fn fallback_returns_the_last_error_when_every_engine_gives_up() {
        let d = db();
        // The answer is nonempty, so a zero budget cannot be satisfied
        // honestly by any engine in the chain.
        let q = parse_cq("G(x, c) :- R(x, y), S(y, c).").unwrap();
        let ctx = ExecutionContext::new().with_tuple_budget(0);
        let err = evaluate_with_fallback(&q, &d, &ctx).unwrap_err();
        assert!(err.is_resource_exhausted(), "got {err}");
        // Wrong answers are never returned: exhaustion is an error, not an
        // empty relation.
    }

    #[test]
    fn fallback_depth_limit_exhausts_recursive_engines() {
        let d = db();
        // Too wide for the hypertree engine: only the recursive backtrackers
        // apply, and depth 1 is not enough for a 21-atom search.
        let q = parse_cq(&k7_query()).unwrap();
        let ctx = ExecutionContext::new().with_max_depth(1);
        let err = evaluate_with_fallback(&q, &d, &ctx).unwrap_err();
        match err {
            EngineError::ResourceExhausted { kind, .. } => {
                assert_eq!(kind, ResourceKind::DepthLimit);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn fallback_inconsistent_comparisons_short_circuit() {
        let q = parse_cq("G(x) :- R(x, y), x < y, y < x.").unwrap();
        let out = evaluate_with_fallback(&q, &db(), &ExecutionContext::unlimited()).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].engine, "constant (empty answer)");
    }

    #[test]
    fn provably_empty_queries_compile_to_constant_plans() {
        let opts = PlannerOptions::default();
        let d = db();
        // The label names the inconsistent cell; the same contradiction
        // next to a `≠` lands in the mixed cell, where only the analyzer's
        // verdict makes the plan constant.
        for (src, label) in [
            ("G(x) :- R(x, y), x != x.", "constant (provably empty)"),
            ("G(x) :- R(x, y), x < y, y < x.", "constant (empty answer)"),
            (
                "G :- R(x, y), x != y, x < y, y < x.",
                "constant (provably empty)",
            ),
        ] {
            let q = parse_cq(src).unwrap();
            let p = plan(&q, &opts);
            assert_eq!(p.choice, EngineChoice::ConstantEmpty, "{src}");
            assert_eq!(p.engine, label, "{src}");
            let out = p.execute(&q, &d).unwrap();
            assert!(out.is_empty());
            // The verdict is sound: naive evaluation agrees.
            assert_eq!(out, naive::evaluate(&q, &d).unwrap());
            assert!(!p.is_nonempty(&q, &d).unwrap());
        }
    }

    #[test]
    fn plans_execute_the_minimized_core() {
        let opts = PlannerOptions::default();
        let d = db();
        let q = parse_cq("G(x, c) :- R(x, y), S(y, c), R(x, y2).").unwrap();
        let p = plan(&q, &opts);
        let core = p.analysis.rewritten.as_ref().expect("redundant atom drops");
        assert_eq!(core.atoms.len(), 2);
        // The core's execution is indistinguishable from the original's.
        assert_eq!(p.execute(&q, &d).unwrap(), naive::evaluate(&q, &d).unwrap());
    }

    #[test]
    fn fallback_short_circuits_all_provably_empty_queries() {
        let q = parse_cq("G :- R(x, y), x != y, x <= y, y <= x.").unwrap();
        let out = evaluate_with_fallback(&q, &db(), &ExecutionContext::unlimited()).unwrap();
        assert!(out.result.is_empty());
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].engine, "constant (empty answer)");
    }

    #[test]
    fn parallel_execution_matches_serial_at_every_degree() {
        let opts = PlannerOptions::default();
        let d = db();
        for src in [
            "G(x, c) :- R(x, y), S(y, c).",
            "G(e) :- EP(e, p), EP(e, p2), p != p2.",
            "G :- R(x, y), R(y, z), R(z, x).",
            "G(x) :- R(x, y), x < y, y < x.",
        ] {
            let q = parse_cq(src).unwrap();
            let p = plan(&q, &opts);
            let serial = p.execute(&q, &d).unwrap();
            for t in [1, 2, 8] {
                let ctx = || ExecutionContext::unlimited().with_pool(&Pool::new(t));
                assert_eq!(
                    p.execute_governed(&q, &d, &ctx()).unwrap(),
                    serial,
                    "{src} at degree {t}"
                );
                assert_eq!(
                    p.is_nonempty_governed(&q, &d, &ctx()).unwrap(),
                    !serial.is_empty(),
                    "{src} at degree {t}"
                );
            }
        }
    }

    #[test]
    fn plans_pick_a_parallelism_degree() {
        let opts = PlannerOptions {
            max_parallelism: 8,
            ..Default::default()
        };
        // Constant plans have nothing to parallelize.
        let p = plan(&parse_cq("G(x) :- R(x, y), x < y, y < x.").unwrap(), &opts);
        assert_eq!(p.parallelism, 1);
        // Single-atom queries have no fan-out either.
        let p = plan(&parse_cq("G(x) :- R(x, y).").unwrap(), &opts);
        assert_eq!(p.parallelism, 1);
        // Multi-atom plans take the planner's cap.
        let p = plan(&parse_cq("G(x, c) :- R(x, y), S(y, c).").unwrap(), &opts);
        assert_eq!(p.parallelism, 8);
    }

    #[test]
    fn mentioned_relations_follow_the_effective_query() {
        let opts = PlannerOptions::default();
        let q = parse_cq("G(x) :- R(x, y), S(y, z), R(x, w).").unwrap();
        let p = plan(&q, &opts);
        assert_eq!(p.mentioned_relations(&q), vec!["R".to_string(), "S".into()]);
        // A constant plan never touches the database.
        let q2 = parse_cq("G(x) :- R(x, y), x < y, y < x.").unwrap();
        let p2 = plan(&q2, &opts);
        assert!(p2.mentioned_relations(&q2).is_empty());
    }

    fn view_opts(views: Vec<(&str, &str)>) -> PlannerOptions {
        PlannerOptions {
            analysis: AnalyzeOptions {
                views: views
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), parse_cq(v).unwrap()))
                    .collect(),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn view_scan_answers_equivalent_queries_from_the_materialized_relation() {
        let opts = view_opts(vec![("rs", "V(a, c) :- R(a, b), S(b, c).")]);
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let p = plan(&q, &opts);
        assert_eq!(p.engine, "view-scan");
        let EngineChoice::ViewScan { ref fallback, .. } = p.choice else {
            panic!("expected a view-scan choice, got {:?}", p.choice);
        };
        assert_eq!(**fallback, EngineChoice::Yannakakis);

        // Materialize the view into the database under its name: the scan
        // must return exactly what direct evaluation returns — attributes
        // included (the query's head names, not the view's).
        let mut d = db();
        let view_q = parse_cq("V(a, c) :- R(a, b), S(b, c).").unwrap();
        let materialized = naive::evaluate(&view_q, &d).unwrap();
        d.set_relation("rs".to_string(), materialized);
        let direct = naive::evaluate(&q, &d).unwrap();
        assert_eq!(p.execute(&q, &d).unwrap(), direct);
        assert_eq!(p.is_nonempty(&q, &d).unwrap(), !direct.is_empty());
        let ctx = ExecutionContext::unlimited().with_pool(&Pool::new(2));
        assert_eq!(p.execute_governed(&q, &d, &ctx).unwrap(), direct);
        let ctx = ExecutionContext::unlimited();
        assert_eq!(p.execute_governed(&q, &d, &ctx).unwrap(), direct);
    }

    #[test]
    fn view_scan_projects_contained_queries() {
        let opts = view_opts(vec![("rs", "V(a, c) :- R(a, b), S(b, c).")]);
        let q = parse_cq("G(z) :- R(x, y), S(y, z).").unwrap();
        let p = plan(&q, &opts);
        let EngineChoice::ViewScan { ref projection, .. } = p.choice else {
            panic!("expected a view-scan choice, got {:?}", p.choice);
        };
        assert_eq!(projection, &vec![1]);
        let mut d = db();
        let view_q = parse_cq("V(a, c) :- R(a, b), S(b, c).").unwrap();
        let materialized = naive::evaluate(&view_q, &d).unwrap();
        d.set_relation("rs".to_string(), materialized);
        assert_eq!(p.execute(&q, &d).unwrap(), naive::evaluate(&q, &d).unwrap());
    }

    #[test]
    fn view_scan_degrades_to_the_fallback_without_the_relation() {
        let opts = view_opts(vec![("rs", "V(a, c) :- R(a, b), S(b, c).")]);
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let p = plan(&q, &opts);
        assert_eq!(p.engine, "view-scan");
        // No `rs` relation in the database: the fallback engine answers.
        let d = db();
        assert_eq!(p.execute(&q, &d).unwrap(), naive::evaluate(&q, &d).unwrap());
        assert!(p.is_nonempty(&q, &d).unwrap());
    }

    #[test]
    fn unrelated_views_leave_plans_unchanged() {
        let opts = view_opts(vec![("t", "V(a) :- T(a, b).")]);
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let p = plan(&q, &opts);
        assert_eq!(p.engine, "yannakakis");
        assert_eq!(p.choice, EngineChoice::Yannakakis);
    }

    #[test]
    fn large_k_switches_to_randomized() {
        let opts = PlannerOptions {
            deterministic_k_limit: 2,
            ..Default::default()
        };
        // chain with three pairwise-distant inequalities → k = 4 > 2
        let q = parse_cq("G :- R(x, y), S(y, z), x != z.").unwrap();
        let p = plan(&q, &opts);
        assert_eq!(p.analysis.report.color_parameter, Some(2));
        let q2 = parse_cq("G :- R(a, b), R(b, c), R(c, d), a != c, a != d, b != d.").unwrap();
        let p2 = plan(&q2, &opts);
        assert_eq!(p2.analysis.report.color_parameter, Some(4));
        assert_eq!(p2.engine, "colorcoding (randomized)");
    }
}
