//! Bottom-up Datalog evaluation: naive and semi-naive.
//!
//! Section 4 of the paper: "use the ordinary bottom-up evaluation algorithm
//! for Datalog that applies repeatedly the rules until a fixpoint is
//! reached. If the maximum arity is r, then every IDB relation has at most
//! n^r tuples and a fixpoint is reached in n^r stages. In each stage we need
//! to compute for each rule a conjunctive query with at most v variables" —
//! which is how fixed-arity Datalog lands in W\[1\]. The per-stage CQs here
//! are evaluated with the naive engine, making that structure literal.
//!
//! The fixpoint has two private arms, chosen from the degree of the pool the
//! context carries: the serial one lets a rule see tuples inserted earlier in
//! the same round (and shares [`delta::propagate`] with `pq-ivm`), the
//! fanned-out one evaluates every job of a round against the round-start
//! snapshot; both reach the same least fixpoint, in different round counts.

use std::collections::BTreeMap;

use pq_data::{Database, Relation, Tuple};
use pq_query::DatalogProgram;

use crate::delta::{self, delta_rule_cq, idb_arities, positional_relation, rule_to_cq};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;
use crate::naive;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "datalog";

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Re-evaluate every rule against the full IDB each round.
    Naive,
    /// Evaluate each rule once per round per IDB body atom, with that atom
    /// restricted to the previous round's delta.
    SemiNaive,
}

/// Statistics from a fixpoint run (exposed for the E8 experiments).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixpointStats {
    /// Number of rounds until fixpoint.
    pub rounds: usize,
    /// Number of rule-body CQ evaluations performed.
    pub rule_evaluations: usize,
    /// Total derived (distinct) IDB tuples.
    pub derived_tuples: usize,
    /// Per-rule CQ evaluation counts, indexed by the rule's position in the
    /// *evaluated* program (sums to `rule_evaluations`). A rule the
    /// analyzer pruned has no slot here at all — the witness that dead
    /// rules are never evaluated.
    pub rule_eval_counts: Vec<usize>,
}

/// Evaluate the program to fixpoint and return the goal relation.
///
/// ```
/// use pq_data::{tuple, Database};
/// use pq_engine::datalog_eval::{evaluate, Strategy};
/// use pq_query::parse_datalog;
///
/// let p = parse_datalog(
///     "T(x, y) :- E(x, y).\n\
///      T(x, z) :- E(x, y), T(y, z).\n\
///      ?- T").unwrap();
/// let mut db = Database::new();
/// db.add_table("E", ["a", "b"], [tuple![0, 1], tuple![1, 2]]).unwrap();
/// let t = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
/// assert!(t.contains(&tuple![0, 2])); // transitive edge
/// ```
pub fn evaluate(p: &DatalogProgram, db: &Database, strategy: Strategy) -> Result<Relation> {
    Ok(evaluate_with_stats(p, db, strategy)?.0)
}

/// [`evaluate`] under the resource limits of `ctx`.
pub fn evaluate_governed(
    p: &DatalogProgram,
    db: &Database,
    strategy: Strategy,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    Ok(evaluate_with_stats_governed(p, db, strategy, ctx)?.0)
}

/// Evaluate and also report fixpoint statistics.
pub fn evaluate_with_stats(
    p: &DatalogProgram,
    db: &Database,
    strategy: Strategy,
) -> Result<(Relation, FixpointStats)> {
    evaluate_with_stats_governed(p, db, strategy, &ExecutionContext::unlimited())
}

/// [`evaluate_with_stats`] under the resource limits of `ctx`.
///
/// The budget is shared with the per-rule conjunctive-query evaluations, so
/// a fixpoint that derives too many tuples — or a single rule body that
/// explodes — both surface as [`EngineError::ResourceExhausted`].
///
/// With a pool on `ctx`, each round evaluates all of its jobs (one per rule,
/// or per (rule, Δ-atom) for semi-naive) against the database *as of the
/// start of the round* and merges the derived tuples in job order, so the
/// result is identical at any thread count. The serial fixpoint instead lets
/// a rule see tuples inserted earlier in the same round, so it can converge
/// in *fewer rounds*; both reach the same least fixpoint (rule application
/// is monotone), and the goal relation is identical.
pub fn evaluate_with_stats_governed(
    p: &DatalogProgram,
    db: &Database,
    strategy: Strategy,
    ctx: &ExecutionContext,
) -> Result<(Relation, FixpointStats)> {
    let (arities, mut work) = setup_work(p, db)?;
    let mut stats = FixpointStats {
        rule_eval_counts: vec![0; p.rules.len()],
        ..FixpointStats::default()
    };
    match (strategy, ctx.pool().threads() > 1) {
        (Strategy::Naive, false) => naive_fixpoint(p, &mut work, &mut stats, ctx)?,
        (Strategy::SemiNaive, false) => seminaive_fixpoint(p, &mut work, &mut stats, ctx)?,
        (Strategy::Naive, true) => snapshot_naive_fixpoint(p, &mut work, &mut stats, ctx)?,
        (Strategy::SemiNaive, true) => {
            snapshot_seminaive_fixpoint(p, &mut work, &arities, &mut stats, ctx)?
        }
    }
    finish(p, &work, &arities, stats)
}

/// Evaluate `rewritten` — a goal-preserving rewrite of `original` from the
/// program analyzer (dead rules pruned, rule bodies core-minimized) — and
/// return its goal relation and stats. The least fixpoint restricted to
/// the goal is identical to `original`'s, but the run touches fewer and
/// smaller rules, and `stats.rule_eval_counts` has one slot per *rewritten*
/// rule: pruned rules are never evaluated, by construction.
///
/// # Errors
/// [`EngineError::Unsupported`] when the two programs disagree on the goal
/// relation (then the rewrite cannot be goal-preserving).
pub fn evaluate_rewritten_governed(
    original: &DatalogProgram,
    rewritten: &DatalogProgram,
    db: &Database,
    strategy: Strategy,
    ctx: &ExecutionContext,
) -> Result<(Relation, FixpointStats)> {
    if original.goal != rewritten.goal {
        return Err(EngineError::Unsupported(format!(
            "rewritten program computes goal `{}`, not `{}`",
            rewritten.goal, original.goal
        )));
    }
    evaluate_with_stats_governed(rewritten, db, strategy, ctx)
}

/// Validate the program and build the working database: EDB relations plus
/// (growing, initially empty) IDB relations.
fn setup_work(p: &DatalogProgram, db: &Database) -> Result<(BTreeMap<String, usize>, Database)> {
    p.validate()?;
    for e in p.edb_relations() {
        if !db.has_relation(e) {
            return Err(EngineError::Data(pq_data::DataError::UnknownRelation(
                e.to_string(),
            )));
        }
        if p.idb_relations().contains(e) {
            unreachable!("edb/idb are disjoint by construction");
        }
    }
    let arities = idb_arities(p);
    let mut work = db.clone();
    for (name, &arity) in &arities {
        if work.has_relation(name) {
            return Err(EngineError::Unsupported(format!(
                "IDB relation `{name}` collides with a database relation"
            )));
        }
        work.set_relation(name.clone(), positional_relation(arity));
    }
    Ok((arities, work))
}

/// Tally the derived-tuple count and extract the goal relation.
fn finish(
    p: &DatalogProgram,
    work: &Database,
    arities: &BTreeMap<String, usize>,
    mut stats: FixpointStats,
) -> Result<(Relation, FixpointStats)> {
    stats.derived_tuples = arities
        .keys()
        .map(|n| work.relation(n).map(Relation::len))
        .sum::<pq_data::Result<usize>>()?;
    Ok((work.relation(&p.goal)?.clone(), stats))
}

fn naive_fixpoint(
    p: &DatalogProgram,
    work: &mut Database,
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<()> {
    loop {
        stats.rounds += 1;
        let mut changed = false;
        for (ri, rule) in p.rules.iter().enumerate() {
            ctx.tick(ENGINE)?;
            stats.rule_evaluations += 1;
            stats.rule_eval_counts[ri] += 1;
            let cq = rule_to_cq(rule);
            let derived = naive::evaluate_governed(&cq, work, ctx)?;
            let target = work.relation_mut(&rule.head.relation)?;
            for t in derived.iter() {
                if target.insert(t.clone())? {
                    ctx.charge_tuples(ENGINE, 1)?;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

fn seminaive_fixpoint(
    p: &DatalogProgram,
    work: &mut Database,
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<()> {
    // Round 0: evaluate every rule once (IDBs are empty, so only EDB-only
    // rules fire); collect the seed delta.
    let mut seed: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    stats.rounds = 1;
    for (ri, rule) in p.rules.iter().enumerate() {
        ctx.tick(ENGINE)?;
        stats.rule_evaluations += 1;
        stats.rule_eval_counts[ri] += 1;
        let derived = naive::evaluate_governed(&rule_to_cq(rule), work, ctx)?;
        let target = work.relation_mut(&rule.head.relation)?;
        for t in derived.iter() {
            if target.insert(t.clone())? {
                ctx.charge_tuples(ENGINE, 1)?;
                seed.entry(rule.head.relation.clone())
                    .or_default()
                    .push(t.clone());
            }
        }
    }

    // Subsequent rounds: the generalized Δ-rule engine (shared with
    // incremental view maintenance in `pq-ivm`).
    delta::propagate(p, work, seed, stats, ctx)?;
    Ok(())
}

fn snapshot_naive_fixpoint(
    p: &DatalogProgram,
    work: &mut Database,
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<()> {
    loop {
        stats.rounds += 1;
        let snapshot: &Database = work;
        let derived: Vec<Relation> = ctx.try_run(&p.rules, |ctx, _, rule| {
            ctx.tick(ENGINE)?;
            naive::evaluate_governed(&rule_to_cq(rule), snapshot, ctx)
        })?;
        stats.rule_evaluations += p.rules.len();
        for c in stats.rule_eval_counts.iter_mut() {
            *c += 1;
        }
        let mut changed = false;
        for (rule, d) in p.rules.iter().zip(derived) {
            let target = work.relation_mut(&rule.head.relation)?;
            for t in d.iter() {
                if target.insert(t.clone())? {
                    ctx.charge_tuples(ENGINE, 1)?;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok(());
        }
    }
}

fn snapshot_seminaive_fixpoint(
    p: &DatalogProgram,
    work: &mut Database,
    arities: &BTreeMap<String, usize>,
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<()> {
    // Round 0: every rule against the initial database (IDBs empty).
    let mut delta: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    stats.rounds = 1;
    {
        let snapshot: &Database = work;
        let derived: Vec<Relation> = ctx.try_run(&p.rules, |ctx, _, rule| {
            ctx.tick(ENGINE)?;
            naive::evaluate_governed(&rule_to_cq(rule), snapshot, ctx)
        })?;
        stats.rule_evaluations += p.rules.len();
        for c in stats.rule_eval_counts.iter_mut() {
            *c += 1;
        }
        for (rule, d) in p.rules.iter().zip(derived) {
            let target = work.relation_mut(&rule.head.relation)?;
            for t in d.iter() {
                if target.insert(t.clone())? {
                    ctx.charge_tuples(ENGINE, 1)?;
                    delta
                        .entry(rule.head.relation.clone())
                        .or_default()
                        .push(t.clone());
                }
            }
        }
    }

    // Subsequent rounds: one job per (rule, IDB body atom with a nonempty
    // delta), all evaluated against the round-start snapshot.
    while delta.values().any(|v| !v.is_empty()) {
        stats.rounds += 1;
        for (name, tuples) in &delta {
            let mut rel = positional_relation(arities[name]);
            for t in tuples {
                rel.insert(t.clone())?;
            }
            work.set_relation(delta::delta_relation_name(name), rel);
        }

        let mut jobs: Vec<(usize, usize)> = Vec::new();
        for (ri, rule) in p.rules.iter().enumerate() {
            for (ai, batom) in rule.body.iter().enumerate() {
                if delta.get(&batom.relation).is_some_and(|t| !t.is_empty()) {
                    jobs.push((ri, ai));
                }
            }
        }

        let snapshot: &Database = work;
        let derived: Vec<Relation> = ctx.try_run(&jobs, |ctx, _, &(ri, ai)| {
            ctx.tick(ENGINE)?;
            naive::evaluate_governed(&delta_rule_cq(&p.rules[ri], ai), snapshot, ctx)
        })?;
        stats.rule_evaluations += jobs.len();
        for &(ri, _) in &jobs {
            stats.rule_eval_counts[ri] += 1;
        }

        let mut next_delta: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
        for (&(ri, _), d) in jobs.iter().zip(derived.iter()) {
            let head = &p.rules[ri].head.relation;
            let target = work.relation_mut(head)?;
            for t in d.iter() {
                if target.insert(t.clone())? {
                    ctx.charge_tuples(ENGINE, 1)?;
                    next_delta.entry(head.clone()).or_default().push(t.clone());
                }
            }
        }
        delta = next_delta;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::{parse_datalog, Rule};

    fn tc_program() -> DatalogProgram {
        parse_datalog(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- E(x, y), T(y, z).\n\
             ?- T",
        )
        .unwrap()
    }

    fn path_db(n: i64) -> Database {
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], (0..n - 1).map(|i| tuple![i, i + 1]))
            .unwrap();
        db
    }

    #[test]
    fn transitive_closure_of_a_path() {
        let p = tc_program();
        let db = path_db(5);
        let t = evaluate(&p, &db, Strategy::Naive).unwrap();
        assert_eq!(t.len(), 4 + 3 + 2 + 1);
        assert!(t.contains(&tuple![0, 4]));
        assert!(!t.contains(&tuple![4, 0]));
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let p = tc_program();
        for n in [2, 5, 9] {
            let db = path_db(n);
            let a = evaluate(&p, &db, Strategy::Naive).unwrap();
            let b = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
            assert_eq!(a.canonical_rows(), b.canonical_rows(), "n={n}");
        }
    }

    #[test]
    fn seminaive_does_less_work_on_long_chains() {
        let p = tc_program();
        let db = path_db(20);
        let (_, s_naive) = evaluate_with_stats(&p, &db, Strategy::Naive).unwrap();
        let (_, s_semi) = evaluate_with_stats(&p, &db, Strategy::SemiNaive).unwrap();
        assert_eq!(s_naive.derived_tuples, s_semi.derived_tuples);
        // The interesting economy is re-derivations, visible in wall time;
        // at the stats level both reach the same fixpoint.
        assert!(s_semi.rounds >= 2);
        assert!(s_naive.rounds >= 2);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let p = tc_program();
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![0, 1], tuple![1, 2], tuple![2, 0]])
            .unwrap();
        let t = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
        assert_eq!(t.len(), 9); // complete relation on 3 nodes
    }

    #[test]
    fn same_generation_program() {
        let p = parse_datalog(
            "SG(x, x) :- N(x).\n\
             SG(x, y) :- P(x, px), P(y, py), SG(px, py).\n\
             ?- SG",
        )
        .unwrap();
        let mut db = Database::new();
        // Binary tree: 1 → {2,3}, 2 → {4,5}
        db.add_table("N", ["n"], (1..=5i64).map(|i| tuple![i]))
            .unwrap();
        db.add_table(
            "P",
            ["c", "p"],
            [tuple![2, 1], tuple![3, 1], tuple![4, 2], tuple![5, 2]],
        )
        .unwrap();
        let sg = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
        assert!(sg.contains(&tuple![2, 3])); // same generation
        assert!(sg.contains(&tuple![4, 5]));
        assert!(!sg.contains(&tuple![1, 2]));
        let sg2 = evaluate(&p, &db, Strategy::Naive).unwrap();
        assert_eq!(sg.canonical_rows(), sg2.canonical_rows());
    }

    #[test]
    fn goal_with_no_derivable_tuples_is_empty() {
        let p = parse_datalog("T(x, y) :- E(x, y), Z(x). ?- T").unwrap();
        let mut db = path_db(3);
        db.add_table("Z", ["a"], []).unwrap();
        let t = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn missing_edb_relation_errors() {
        let p = tc_program();
        let db = Database::new();
        assert!(evaluate(&p, &db, Strategy::Naive).is_err());
    }

    #[test]
    fn idb_colliding_with_database_errors() {
        let p = tc_program();
        let mut db = path_db(3);
        db.add_table("T", ["a", "b"], []).unwrap();
        assert!(matches!(
            evaluate(&p, &db, Strategy::Naive),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn stats_are_populated() {
        let p = tc_program();
        let (_, stats) = evaluate_with_stats(&p, &path_db(6), Strategy::SemiNaive).unwrap();
        assert!(stats.rounds >= 4);
        assert!(stats.rule_evaluations >= stats.rounds);
        assert_eq!(stats.derived_tuples, 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn per_rule_counts_sum_to_the_total() {
        let p = tc_program();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (_, stats) = evaluate_with_stats(&p, &path_db(6), strategy).unwrap();
            assert_eq!(stats.rule_eval_counts.len(), p.rules.len());
            assert_eq!(
                stats.rule_eval_counts.iter().sum::<usize>(),
                stats.rule_evaluations
            );
        }
    }

    #[test]
    fn unsafe_rules_are_rejected_with_a_typed_error() {
        let p = DatalogProgram::new(
            [Rule::new(
                pq_query::atom!("G"; var "x"),
                [pq_query::atom!("E"; var "y", var "y")],
            )],
            "G",
        );
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![0, 0]]).unwrap();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            match evaluate(&p, &db, strategy) {
                Err(EngineError::Query(pq_query::QueryError::UnsafeRule { variable, .. })) => {
                    assert_eq!(variable, "x");
                }
                other => panic!("expected a typed unsafe-rule error, got {other:?}"),
            }
        }
    }

    #[test]
    fn rewritten_programs_reach_the_same_goal_with_fewer_rules() {
        // tc_program plus a dead rule the analyzer would prune.
        let original = parse_datalog(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- E(x, y), T(y, z).\n\
             U(x) :- E(x, y).\n\
             ?- T",
        )
        .unwrap();
        let rewritten = tc_program();
        let db = path_db(6);
        let ctx = ExecutionContext::unlimited();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let (full, _) = evaluate_with_stats(&original, &db, strategy).unwrap();
            let (pruned, stats) =
                evaluate_rewritten_governed(&original, &rewritten, &db, strategy, &ctx).unwrap();
            assert_eq!(full.canonical_rows(), pruned.canonical_rows());
            // The dead rule has no stats slot: it was never evaluated.
            assert_eq!(stats.rule_eval_counts.len(), 2);
        }
    }

    #[test]
    fn rewritten_goal_mismatch_is_rejected() {
        let original = tc_program();
        let other = parse_datalog("U(x, y) :- E(x, y). ?- U").unwrap();
        let err = evaluate_rewritten_governed(
            &original,
            &other,
            &path_db(3),
            Strategy::SemiNaive,
            &ExecutionContext::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }
}
