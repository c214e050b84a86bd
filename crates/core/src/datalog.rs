//! Planning Datalog programs through the whole-program analyzer.
//!
//! The same preprocessing/evaluation split the CQ planner gives conjunctive
//! queries (see [`crate::planner`]): [`plan_datalog`] runs
//! [`pq_analyze::analyze_program`] once, and the resulting [`DatalogPlan`]
//! can be executed against many databases without re-analyzing. Execution
//! runs the analyzer's rewritten program (dead rules pruned, rule bodies
//! core-minimized — identical goal relation, fewer and smaller per-stage
//! CQs), and a goal the analyzer proved underivable never touches the
//! database at all.

use pq_analyze::{analyze_program, ProgramAnalysis};
use pq_data::{Database, Relation};
use pq_engine::datalog_eval::{self, FixpointStats, Strategy};
use pq_engine::governor::ExecutionContext;
use pq_engine::{EngineError, Result};
use pq_query::DatalogProgram;

use crate::planner::PlannerOptions;

/// The outcome of planning a Datalog program: the full program analysis
/// plus the execution parameters the planner commits to.
#[derive(Debug, Clone)]
pub struct DatalogPlan {
    /// The whole-program analysis: diagnostics, the goal-preserving
    /// rewrite execution uses, and the structural report.
    pub analysis: ProgramAnalysis,
    /// The fixpoint strategy execution uses (semi-naive; the naive
    /// strategy exists for the E8 experiments, not for plans).
    pub strategy: Strategy,
    /// The intra-query parallelism degree this plan recommends: `1` when
    /// at most one rule survives pruning (no fan-out), else the planner's
    /// `max_parallelism`.
    pub parallelism: usize,
}

/// Analyze `p` and commit to execution parameters. The analyzer's
/// `minimize`/`minimize_atom_limit` options come from `opts.analysis`,
/// exactly as for conjunctive queries.
pub fn plan_datalog(p: &DatalogProgram, opts: &PlannerOptions) -> DatalogPlan {
    let analysis = analyze_program(p, &opts.analysis);
    let parallelism = if analysis.provably_empty() || analysis.report.rules_live <= 1 {
        1
    } else {
        opts.max_parallelism.max(1)
    };
    DatalogPlan {
        analysis,
        strategy: Strategy::SemiNaive,
        parallelism,
    }
}

/// An empty relation with the goal's arity, using the engine's positional
/// attribute convention — byte-identical to what a real fixpoint run would
/// return for an empty goal.
fn empty_goal(p: &DatalogProgram) -> Result<Relation> {
    let arity = p
        .rules
        .iter()
        .find(|r| r.head.relation == p.goal)
        .map(|r| r.head.arity())
        .ok_or_else(|| {
            EngineError::Query(pq_query::QueryError::BadProgram(format!(
                "goal `{}` has no defining rule",
                p.goal
            )))
        })?;
    Relation::new((0..arity).map(|i| format!("c{i}"))).map_err(EngineError::Data)
}

impl DatalogPlan {
    /// Execute this plan on `(p, db)` without re-analyzing. `p` must be the
    /// program the plan was built from.
    pub fn execute(&self, p: &DatalogProgram, db: &Database) -> Result<Relation> {
        self.execute_governed(p, db, &ExecutionContext::unlimited())
    }

    /// [`DatalogPlan::execute`] under the limits of `ctx`. When `ctx`
    /// carries a pool the per-round rule evaluations fan out on it
    /// (identical goal relation at any pool size;
    /// [`DatalogPlan::parallelism`] is the size this plan recommends).
    pub fn execute_governed(
        &self,
        p: &DatalogProgram,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> Result<Relation> {
        Ok(self.execute_with_stats_governed(p, db, ctx)?.0)
    }

    /// [`DatalogPlan::execute_governed`] with fixpoint statistics. The
    /// stats describe the *effective* (rewritten) program:
    /// `rule_eval_counts` has one slot per live rule, so a pruned rule is
    /// demonstrably never evaluated. A provably-empty goal short-circuits
    /// to an empty relation with zero evaluations.
    pub fn execute_with_stats_governed(
        &self,
        p: &DatalogProgram,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> Result<(Relation, FixpointStats)> {
        if self.analysis.provably_empty() {
            return Ok((empty_goal(p)?, FixpointStats::default()));
        }
        match &self.analysis.rewritten {
            Some(r) => datalog_eval::evaluate_rewritten_governed(p, r, db, self.strategy, ctx),
            None => datalog_eval::evaluate_with_stats_governed(p, db, self.strategy, ctx),
        }
    }
}

/// Plan and execute in one call: analyze `p`, run the rewrite.
pub fn evaluate_datalog(
    p: &DatalogProgram,
    db: &Database,
    opts: &PlannerOptions,
) -> Result<Relation> {
    plan_datalog(p, opts).execute(p, db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::parse_datalog;

    fn db(n: i64) -> Database {
        let mut d = Database::new();
        d.add_table("E", ["a", "b"], (0..n - 1).map(|i| tuple![i, i + 1]))
            .unwrap();
        d
    }

    fn padded_tc() -> DatalogProgram {
        parse_datalog(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- E(x, y), T(y, z).\n\
             U(x) :- E(x, y).\n\
             G(x, y) :- T(x, y), E(x, w), E(x, w2).\n\
             ?- T",
        )
        .unwrap()
    }

    #[test]
    fn planned_execution_matches_the_unplanned_fixpoint() {
        let p = padded_tc();
        let d = db(6);
        let plan = plan_datalog(&p, &PlannerOptions::default());
        assert_eq!(plan.analysis.report.dead_rules, vec![2, 3]);
        let planned = plan.execute(&p, &d).unwrap();
        let direct = datalog_eval::evaluate(&p, &d, Strategy::SemiNaive).unwrap();
        assert_eq!(planned.canonical_rows(), direct.canonical_rows());
    }

    #[test]
    fn dead_rules_are_never_evaluated() {
        let p = padded_tc();
        let plan = plan_datalog(&p, &PlannerOptions::default());
        let (_, stats) = plan
            .execute_with_stats_governed(&p, &db(6), &ExecutionContext::unlimited())
            .unwrap();
        // Two rules survive; the stats vector has exactly their slots.
        assert_eq!(stats.rule_eval_counts.len(), 2);
        assert!(stats.rule_eval_counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn provably_empty_goals_never_touch_the_database() {
        let p = parse_datalog(
            "G(x, y) :- A(x, y).\n\
             A(x, y) :- G(x, y), E(x, y).\n\
             ?- G",
        )
        .unwrap();
        let plan = plan_datalog(&p, &PlannerOptions::default());
        assert!(plan.analysis.provably_empty());
        assert_eq!(plan.parallelism, 1);
        // Works even against an empty database — evaluation is skipped.
        let (rel, stats) = plan
            .execute_with_stats_governed(&p, &Database::new(), &ExecutionContext::unlimited())
            .unwrap();
        assert!(rel.is_empty());
        assert_eq!(rel.arity(), 2);
        assert_eq!(stats.rule_evaluations, 0);
    }

    #[test]
    fn parallel_execution_is_identical_at_every_degree() {
        let p = padded_tc();
        let d = db(7);
        let plan = plan_datalog(&p, &PlannerOptions::default());
        let serial = plan.execute(&p, &d).unwrap();
        for t in [1, 2, 4] {
            let ctx = ExecutionContext::unlimited().with_pool(&pq_exec::Pool::new(t));
            let par = plan.execute_governed(&p, &d, &ctx).unwrap();
            assert_eq!(par.canonical_rows(), serial.canonical_rows(), "degree {t}");
        }
    }

    #[test]
    fn invalid_programs_surface_typed_errors_through_the_plan() {
        let p = parse_datalog("G(x) :- E(y, y). ?- G").unwrap();
        let plan = plan_datalog(&p, &PlannerOptions::default());
        assert!(plan.analysis.has_errors());
        let err = plan.execute(&p, &db(3)).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Query(pq_query::QueryError::UnsafeRule { .. })
        ));
    }
}
