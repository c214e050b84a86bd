//! The multi-pass analyzer driver.
//!
//! Pass order matters and is part of the contract:
//!
//! 1. **safety/range-restriction** — mirrors
//!    [`ConjunctiveQuery::validate`] as diagnostics (head or constraint
//!    variables not bound by a relational atom, empty body, constant-only
//!    constraints);
//! 2. **contradiction detection** — database-independent emptiness:
//!    reflexive `≠`, an inconsistent comparison system (Klug's strict-cycle
//!    criterion), a `≠` whose sides the comparisons force equal;
//! 3. **core minimization** — the Chandra–Merlin core via
//!    `pq_engine::containment`, dropping redundant atoms so `q` and `v`
//!    shrink before any engine runs;
//! 4. **structural classification** — GYO acyclicity with a concrete cycle
//!    witness plus the Fig. 1 parameter report, computed on the *minimized*
//!    query (the one the planner will execute);
//! 5. **counting tractability** (opt-in via [`AnalyzeOptions::counting`]) —
//!    the Chen–Mengel `PQA7xx` classification of whether `@count` can run
//!    without enumeration;
//! 6. **containment against registered views** (opt-in via
//!    [`AnalyzeOptions::views`]) — the `PQA8xx` pass: Chandra–Merlin
//!    equivalence/containment of the minimized core against every
//!    registered view, yielding a view-scan rewriting and the
//!    equivalence-class semantic cache key.
//!
//! Schema checks ([`schema_diagnostics`]) are separate by design: the
//! query-only analysis is cacheable per query, while schema diagnostics
//! depend on whatever database the query is aimed at right now.

use std::sync::Arc;

use pq_data::Database;
use pq_engine::containment;
use pq_query::ConjunctiveQuery;

use crate::containment::{containment_pass, ViewMatch};
use crate::diagnostics::{Diagnostic, LintCode, Severity, Span};
use crate::report::{structure_with_width_limit, StructureReport};

/// Analyzer configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Attempt Chandra–Merlin core minimization (pure CQs only).
    pub minimize: bool,
    /// Skip minimization above this relational-atom count. Equivalence
    /// checks are CQ evaluations on the canonical database (NP-hard in
    /// general), so the pass is bounded by construction.
    pub minimize_atom_limit: usize,
    /// Largest hypertree width the decomposition search targets (and the
    /// widest decomposition the planner routes to the hypertree engine).
    /// Bounded like `minimize_atom_limit`: deciding width ≤ k is
    /// exponential in k, so the exact search is gated by this knob.
    pub width_limit: usize,
    /// Run the counting-tractability pass (`PQA7xx`, Chen–Mengel):
    /// classify whether `@count` can run without enumeration. Off by
    /// default — the pass only matters when a count was requested.
    pub counting: bool,
    /// Registered views for the containment pass (`PQA8xx`): name and
    /// defining query, in registration order (first match wins). Empty by
    /// default — with no views the pass does not run and the analysis is
    /// unchanged.
    pub views: Vec<(String, ConjunctiveQuery)>,
    /// Skip the containment search when either side of a query/view pair
    /// exceeds this relational-atom count (`PQA804`). Bounded like
    /// `minimize_atom_limit` and for the same reason: containment checks
    /// are CQ evaluations on canonical databases.
    pub containment_atom_limit: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            minimize: true,
            minimize_atom_limit: 8,
            width_limit: pq_hypergraph::DEFAULT_WIDTH_LIMIT,
            counting: false,
            views: Vec::new(),
            containment_atom_limit: 8,
        }
    }
}

/// Why a query is provably empty on **every** database. Reserved for
/// database-independent contradictions: schema problems (unknown relation,
/// arity mismatch) are reported as error diagnostics but do *not* set this
/// verdict, because the engines treat them as evaluation errors, not empty
/// answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmptyReason {
    /// A `≠` atom relates a term to itself.
    ReflexiveNeq,
    /// The comparison system admits no solution (strict cycle).
    InconsistentComparisons,
    /// The comparison system forces the two sides of a `≠` atom equal.
    NeqForcedEqual,
}

impl EmptyReason {
    /// Stable lowercase name for reports and the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            EmptyReason::ReflexiveNeq => "reflexive-neq",
            EmptyReason::InconsistentComparisons => "inconsistent-comparisons",
            EmptyReason::NeqForcedEqual => "neq-forced-equal",
        }
    }
}

impl std::fmt::Display for EmptyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The analyzer's complete output for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The minimized core, present only when it is strictly smaller than
    /// the input (evaluating it is equivalent — Chandra–Merlin).
    pub rewritten: Option<ConjunctiveQuery>,
    /// Set when the answer is empty on every database; evaluation can be
    /// skipped entirely.
    pub empty: Option<EmptyReason>,
    /// Structural report for the query the planner should execute (the
    /// minimized core when one exists, else the input). Shared, not
    /// copied: a plan and the service's `EXPLAIN`/`ANALYZE` reports hold
    /// this same value.
    pub report: Arc<StructureReport>,
    /// The `PQA803` equivalence-class key: the full canonical text of the
    /// minimized core. Present only when the containment pass ran (views
    /// were registered). Equal keys ⇒ alpha-equivalent queries — safe to
    /// share a cache entry, no hash-collision caveat.
    pub semantic_key: Option<String>,
    /// A registered view that answers the query (`PQA801`/`PQA802`), with
    /// the column projection to apply to its maintained relation.
    pub view_match: Option<ViewMatch>,
}

impl Analysis {
    /// Is the query provably empty on every database?
    pub fn provably_empty(&self) -> bool {
        self.empty.is_some()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The query evaluation should run: the minimized core when one
    /// exists, otherwise `original`.
    pub fn effective<'a>(&'a self, original: &'a ConjunctiveQuery) -> &'a ConjunctiveQuery {
        self.rewritten.as_ref().unwrap_or(original)
    }

    /// Deterministic line rendering, shared by `examples/analyze.rs`, the
    /// golden-corpus CI gate, and the wire protocol. Order: diagnostics in
    /// pass order, then the rewritten core (if any), then the verdict.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self.diagnostics.iter().map(|d| d.to_string()).collect();
        if let Some(r) = &self.rewritten {
            out.push(format!("minimized: {r}"));
        }
        match self.empty {
            Some(reason) => out.push(format!("verdict: provably-empty ({reason})")),
            None => out.push("verdict: ok".to_string()),
        }
        out
    }
}

// ------------------------------------------------------------ pass 1 --

fn safety_pass(q: &ConjunctiveQuery, out: &mut Vec<Diagnostic>) {
    if q.atoms.is_empty() {
        out.push(Diagnostic::new(
            LintCode::EmptyBody,
            Span::Query,
            "the body has no relational atoms",
        ));
    }
    let body: std::collections::BTreeSet<&str> = q.atom_variables().into_iter().collect();
    for v in q.head_variables() {
        if !body.contains(v) {
            out.push(Diagnostic::new(
                LintCode::UnsafeHeadVariable,
                Span::Head,
                format!("head variable `{v}` is not bound by any relational atom"),
            ));
        }
    }
    for (i, n) in q.neqs.iter().enumerate() {
        if n.variables().is_empty() {
            out.push(Diagnostic::new(
                LintCode::ConstantConstraint,
                Span::Neq(i),
                format!("`{n}` relates two constants"),
            ));
            continue;
        }
        for v in n.variables() {
            if !body.contains(v) {
                out.push(Diagnostic::new(
                    LintCode::UnsafeConstraintVariable,
                    Span::Neq(i),
                    format!("variable `{v}` of `{n}` is not bound by any relational atom"),
                ));
            }
        }
    }
    for (i, c) in q.comparisons.iter().enumerate() {
        if c.variables().is_empty() {
            out.push(Diagnostic::new(
                LintCode::ConstantConstraint,
                Span::Comparison(i),
                format!("`{c}` relates two constants"),
            ));
            continue;
        }
        for v in c.variables() {
            if !body.contains(v) {
                out.push(Diagnostic::new(
                    LintCode::UnsafeConstraintVariable,
                    Span::Comparison(i),
                    format!("variable `{v}` of `{c}` is not bound by any relational atom"),
                ));
            }
        }
    }
}

// ------------------------------------------------------------ pass 2 --

fn contradiction_pass(q: &ConjunctiveQuery, out: &mut Vec<Diagnostic>) -> Option<EmptyReason> {
    let mut empty: Option<EmptyReason> = None;
    let flag = |e: EmptyReason, empty: &mut Option<EmptyReason>| {
        if empty.is_none() {
            *empty = Some(e);
        }
    };
    for (i, n) in q.neqs.iter().enumerate() {
        if n.is_reflexive() {
            out.push(Diagnostic::new(
                LintCode::ReflexiveNeq,
                Span::Neq(i),
                format!("`{n}` can never hold: the query is empty on every database"),
            ));
            flag(EmptyReason::ReflexiveNeq, &mut empty);
        } else if n.left.as_const().is_some() && n.right.as_const().is_some() {
            out.push(Diagnostic::new(
                LintCode::TrivialNeq,
                Span::Neq(i),
                format!("`{n}` relates distinct constants: always true, dead weight"),
            ));
        }
    }
    if !q.comparisons.is_empty() {
        let ca = pq_engine::comparisons::analyze(&q.comparisons);
        if !ca.consistent {
            out.push(Diagnostic::new(
                LintCode::InconsistentComparisons,
                Span::Query,
                "the comparison system has a strict cycle: the query is empty \
                 on every database (Klug's consistency criterion)",
            ));
            flag(EmptyReason::InconsistentComparisons, &mut empty);
        } else {
            for (a, b) in &ca.equalities {
                out.push(Diagnostic::new(
                    LintCode::ImpliedEquality,
                    Span::Query,
                    format!("the comparison system forces {a} = {b}"),
                ));
            }
            let rep = |t: &pq_query::Term| {
                ca.representative
                    .get(t)
                    .cloned()
                    .unwrap_or_else(|| t.clone())
            };
            for (i, n) in q.neqs.iter().enumerate() {
                if !n.is_reflexive() && rep(&n.left) == rep(&n.right) {
                    out.push(Diagnostic::new(
                        LintCode::NeqForcedEqual,
                        Span::Neq(i),
                        format!(
                            "the comparison system forces {} = {}, contradicting `{n}`: \
                             the query is empty on every database",
                            n.left, n.right
                        ),
                    ));
                    flag(EmptyReason::NeqForcedEqual, &mut empty);
                }
            }
        }
    }
    empty
}

// ------------------------------------------------------------ pass 3 --

fn minimize_pass(
    q: &ConjunctiveQuery,
    opts: &AnalyzeOptions,
    had_errors: bool,
    out: &mut Vec<Diagnostic>,
) -> Option<ConjunctiveQuery> {
    if !opts.minimize || q.atoms.len() < 2 || had_errors {
        return None;
    }
    if !q.is_pure() {
        out.push(Diagnostic::new(
            LintCode::MinimizationSkipped,
            Span::Query,
            "core minimization skipped: the Chandra–Merlin core is defined \
             for pure conjunctive queries (this query has ≠/comparison atoms)",
        ));
        return None;
    }
    if q.atoms.len() > opts.minimize_atom_limit {
        out.push(Diagnostic::new(
            LintCode::MinimizationSkipped,
            Span::Query,
            format!(
                "core minimization skipped: {} atoms exceeds the limit of {} \
                 (equivalence checks are CQ evaluations)",
                q.atoms.len(),
                opts.minimize_atom_limit
            ),
        ));
        return None;
    }
    // Pure + validated, so the trace cannot fail; treat an error as "no
    // rewrite" rather than poisoning the analysis.
    let Ok((core, removed)) = containment::minimize_trace(q) else {
        return None;
    };
    if removed.is_empty() {
        return None;
    }
    for &i in &removed {
        out.push(Diagnostic::new(
            LintCode::RedundantAtom,
            Span::Atom(i),
            format!(
                "`{}` is redundant: the query is equivalent without it \
                 (Chandra–Merlin core)",
                q.atoms[i]
            ),
        ));
    }
    Some(core)
}

// ------------------------------------------------------------ pass 4 --

fn structure_pass(
    report: &StructureReport,
    width_limit: usize,
    minimized: bool,
    out: &mut Vec<Diagnostic>,
) {
    let subject = if minimized {
        "the minimized query"
    } else {
        "the query"
    };
    if let Some(witness) = &report.cycle_witness {
        let list: Vec<String> = witness.iter().map(|i| format!("#{i}")).collect();
        out.push(Diagnostic::new(
            LintCode::CyclicQuery,
            Span::Query,
            format!(
                "{subject} is cyclic: GYO leaves atoms {} irreducible \
                 (no join tree exists; Theorem 1 applies)",
                list.join(", ")
            ),
        ));
        // The width pass (PQA6xx): cyclic is no longer the end of the
        // tractability story — report the hypertree width found by the
        // gated decomposition search.
        match (&report.decomposition, report.hypertree_width) {
            (Some(d), Some(w)) if w <= width_limit => out.push(Diagnostic::new(
                LintCode::HypertreeWidth,
                Span::Query,
                format!(
                    "hypertree width {w} ({}): {} — polynomial by bag \
                     evaluation (Gottlob–Leone–Scarcello)",
                    if report.width_exact {
                        "exact"
                    } else {
                        "heuristic upper bound"
                    },
                    d.shape()
                ),
            )),
            (Some(_), Some(w)) => out.push(Diagnostic::new(
                LintCode::WidthAboveLimit,
                Span::Query,
                format!(
                    "no hypertree decomposition within the width limit {width_limit} \
                     ({} upper bound {w}): naive evaluation applies",
                    if report.width_exact {
                        "exact width is the"
                    } else {
                        "heuristic"
                    },
                ),
            )),
            _ => {}
        }
    }
    let k = match report.color_parameter {
        Some(k) => format!(", k={k}"),
        None => String::new(),
    };
    out.push(Diagnostic::new(
        LintCode::ParameterReport,
        Span::Query,
        format!(
            "q={}, v={}, max arity={}, ≠ atoms={}, comparisons={}{k}; \
             Fig. 1 cell: {} — engine: {}",
            report.q,
            report.v,
            report.max_arity,
            report.neq_count,
            report.cmp_count,
            report.cell,
            report.engine_hint
        ),
    ));
}

// ------------------------------------------------------------ pass 5 --

/// The counting-tractability pass (`PQA7xx`), run on the query the planner
/// will execute. Chen–Mengel: with a quantifier-free head over an acyclic
/// (or bounded-width) body, `|Q(d)|` is the number of satisfying
/// assignments and the semiring sweep counts it in input-polynomial time;
/// with projection the sweep tracks counts per head projection; outside
/// the pure bounded-width fragment counting is as hard as enumeration and
/// `@count` degrades to enumerate-then-count.
fn counting_pass(
    q: &ConjunctiveQuery,
    report: &StructureReport,
    width_limit: usize,
    out: &mut Vec<Diagnostic>,
) {
    if !q.is_pure() {
        out.push(Diagnostic::new(
            LintCode::CountingFallback,
            Span::Query,
            "counting falls back to enumerate-then-count: ≠/comparison atoms \
             take the query outside the semiring counting engines",
        ));
        return;
    }
    let engine = if report.cycle_witness.is_none() {
        Some("count-yannakakis")
    } else {
        match (&report.decomposition, report.hypertree_width) {
            (Some(_), Some(w)) if w <= width_limit => Some("count-hypertree"),
            _ => None,
        }
    };
    let Some(engine) = engine else {
        out.push(Diagnostic::new(
            LintCode::CountingFallback,
            Span::Query,
            format!(
                "counting falls back to enumerate-then-count: no hypertree \
                 decomposition within the width limit {width_limit}, so \
                 counting is as hard as enumeration here"
            ),
        ));
        return;
    };
    if pq_count::quantifier_free(q) {
        out.push(Diagnostic::new(
            LintCode::CountingTractable,
            Span::Query,
            format!(
                "counting-tractable: quantifier-free head, so |Q(d)| = \
                 #assignments and the semiring sweep counts without \
                 enumeration in input-polynomial time (Chen–Mengel) — \
                 engine: {engine}"
            ),
        ));
    } else {
        let head = q.head_variables().len();
        out.push(Diagnostic::new(
            LintCode::CountingPerProjection,
            Span::Query,
            format!(
                "projected head ({head} of {} body variables exported): \
                 counts tracked per head-variable projection (#W[1]-hard in \
                 general; cost input × distinct projections) — engine: \
                 {engine}",
                q.atom_variables().len()
            ),
        ));
    }
}

// ------------------------------------------------------------ driver --

/// Run the full query-only analysis (passes 1–4). Deterministic: same
/// query and options, same output.
pub fn analyze(q: &ConjunctiveQuery, opts: &AnalyzeOptions) -> Analysis {
    let mut diagnostics = Vec::new();
    safety_pass(q, &mut diagnostics);
    let empty = contradiction_pass(q, &mut diagnostics);
    let had_errors = diagnostics.iter().any(|d| d.severity == Severity::Error);
    let rewritten = if empty.is_none() {
        minimize_pass(q, opts, had_errors, &mut diagnostics)
    } else {
        None
    };
    let report = structure_with_width_limit(rewritten.as_ref().unwrap_or(q), opts.width_limit);
    structure_pass(
        &report,
        opts.width_limit,
        rewritten.is_some(),
        &mut diagnostics,
    );
    if opts.counting {
        counting_pass(
            rewritten.as_ref().unwrap_or(q),
            &report,
            opts.width_limit,
            &mut diagnostics,
        );
    }
    // The containment pass (PQA8xx) runs last, on the query the planner
    // will execute, and only when views are registered and the query is
    // evaluable at all (no errors, not provably empty).
    let (semantic_key, view_match) = if !opts.views.is_empty() && !had_errors && empty.is_none() {
        containment_pass(
            rewritten.as_ref().unwrap_or(q),
            &opts.views,
            opts.containment_atom_limit,
            &mut diagnostics,
        )
    } else {
        (None, None)
    };
    Analysis {
        diagnostics,
        rewritten,
        empty,
        report: Arc::new(report),
        semantic_key,
        view_match,
    }
}

/// The schema pass: check `q`'s relational atoms against an actual
/// database. Unknown relations and arity mismatches are **errors** (every
/// engine fails on them) but deliberately do not set the provably-empty
/// verdict — that verdict promises "naive evaluation returns zero tuples",
/// and these queries do not evaluate at all.
pub fn schema_diagnostics(q: &ConjunctiveQuery, db: &Database) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, a) in q.atoms.iter().enumerate() {
        match db.relation(&a.relation) {
            Err(_) => out.push(Diagnostic::new(
                LintCode::UnknownRelation,
                Span::Atom(i),
                format!(
                    "relation `{}` is not in the database (evaluation fails; \
                     under a closed world the answer would be empty)",
                    a.relation
                ),
            )),
            Ok(rel) if rel.arity() != a.arity() => out.push(Diagnostic::new(
                LintCode::ArityMismatch,
                Span::Atom(i),
                format!(
                    "`{}` has arity {} but relation `{}` stores arity {}",
                    a,
                    a.arity(),
                    a.relation,
                    rel.arity()
                ),
            )),
            Ok(_) => {}
        }
    }
    out
}

/// [`analyze`] plus the schema pass against `db`, appended in atom order.
pub fn analyze_with_db(q: &ConjunctiveQuery, db: &Database, opts: &AnalyzeOptions) -> Analysis {
    let mut a = analyze(q, opts);
    a.diagnostics.extend(schema_diagnostics(q, db));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FigCell;
    use pq_data::tuple;
    use pq_query::{parse_cq, QueryMetrics};

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diagnostics.iter().map(|d| d.code.code()).collect()
    }

    #[test]
    fn clean_query_reports_parameters_only() {
        let q = parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert_eq!(codes(&a), vec!["PQA402"]);
        assert!(!a.provably_empty());
        assert!(a.rewritten.is_none());
        assert_eq!(a.report.cell, FigCell::AcyclicPure);
    }

    #[test]
    fn safety_pass_mirrors_validation() {
        let q = parse_cq("G(z) :- R(x, y).").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert!(codes(&a).contains(&"PQA002"));
        assert!(a.has_errors());

        let q = parse_cq("G :- R(x, y), x != w.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert!(codes(&a).contains(&"PQA003"));
    }

    #[test]
    fn reflexive_neq_is_provably_empty() {
        let q = parse_cq("G(x) :- R(x, y), x != x.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert_eq!(a.empty, Some(EmptyReason::ReflexiveNeq));
        assert!(codes(&a).contains(&"PQA101"));
    }

    #[test]
    fn inconsistent_comparisons_are_provably_empty() {
        let q = parse_cq("G(x) :- R(x, y), x < y, y < x.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert_eq!(a.empty, Some(EmptyReason::InconsistentComparisons));
        assert_eq!(a.report.cell, FigCell::InconsistentComparisons);

        // The planners rely on this: the inconsistent cell always comes
        // with the provably-empty verdict, whatever the options, because
        // both read the same comparison analysis and minimization never
        // rewrites a query with comparisons.
        for src in [
            "G :- R(x, y), x < x.",
            "G(x) :- R(x, y), x < y, y < x.",
            "G :- R(x, y), S(y, z), x < y, y < z, z < x.",
            "G :- R(x, y), S(y, z), x <= y, y <= z, z < x.",
            "G :- R(x, y), R(x, w), x <= y, y < x.",
            "G(x) :- R(x, y), R(y, z), x < 3, 5 < x.",
        ] {
            let q = parse_cq(src).unwrap();
            for minimize in [false, true] {
                for counting in [false, true] {
                    let opts = AnalyzeOptions {
                        minimize,
                        counting,
                        ..Default::default()
                    };
                    let a = analyze(&q, &opts);
                    assert_eq!(a.report.cell, FigCell::InconsistentComparisons, "{src}");
                    assert!(a.empty.is_some(), "{src} minimize={minimize}");
                }
            }
        }
    }

    #[test]
    fn comparisons_forcing_a_neq_equal_are_provably_empty() {
        let q = parse_cq("G :- R(x, y), x != y, x <= y, y <= x.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert_eq!(a.empty, Some(EmptyReason::NeqForcedEqual));
        assert!(codes(&a).contains(&"PQA103"));
        assert!(codes(&a).contains(&"PQA105"), "implied equality reported");
    }

    #[test]
    fn minimization_drops_redundant_atoms_and_lowers_q() {
        let q = parse_cq("G(x, y) :- E(x, y), E(x, z), E(x, w).").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        let core = a.rewritten.as_ref().expect("redundant atoms drop");
        assert_eq!(core.atoms.len(), 1);
        assert_eq!(
            codes(&a).iter().filter(|c| **c == "PQA301").count(),
            2,
            "one diagnostic per removed atom"
        );
        assert!(a.report.q < q.size() && a.report.v < q.num_variables());
        assert_eq!(a.effective(&q), core);
    }

    #[test]
    fn minimization_respects_the_atom_limit() {
        let q = parse_cq("G(x) :- E(x, a), E(x, b), E(x, c).").unwrap();
        let opts = AnalyzeOptions {
            minimize_atom_limit: 2,
            ..Default::default()
        };
        let a = analyze(&q, &opts);
        assert!(a.rewritten.is_none());
        assert!(codes(&a).contains(&"PQA302"));
    }

    #[test]
    fn impure_queries_skip_minimization_with_a_note() {
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert!(a.rewritten.is_none());
        assert!(codes(&a).contains(&"PQA302"));
        assert_eq!(a.report.cell, FigCell::AcyclicNeq);
    }

    #[test]
    fn cyclic_queries_name_their_witness() {
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::CyclicQuery)
            .expect("cyclic diagnostic");
        assert!(
            d.message.contains("#0") && d.message.contains("#2"),
            "{}",
            d.message
        );
        assert_eq!(a.report.cycle_witness, Some(vec![0, 1, 2]));
    }

    #[test]
    fn width_pass_reports_tractable_and_over_limit_cyclic_queries() {
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        assert!(codes(&a).contains(&"PQA601"));
        assert_eq!(a.report.cell, FigCell::CyclicBoundedWidth);
        assert_eq!(a.report.hypertree_width, Some(2));
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::HypertreeWidth)
            .expect("width diagnostic");
        assert!(d.message.contains("width 2 (exact)"), "{}", d.message);

        // With the limit below the width, the query stays in the plain
        // cyclic cell and PQA602 explains why.
        let opts = AnalyzeOptions {
            width_limit: 1,
            ..Default::default()
        };
        let a = analyze(&q, &opts);
        assert!(codes(&a).contains(&"PQA602"));
        assert!(!codes(&a).contains(&"PQA601"));
        assert_eq!(a.report.cell, FigCell::Cyclic);
    }

    #[test]
    fn schema_pass_flags_unknown_relations_and_arity() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 2]]).unwrap();
        let q = parse_cq("G(x) :- R(x, y, z), S(x).").unwrap();
        let ds = schema_diagnostics(&q, &db);
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        assert_eq!(
            codes,
            vec![LintCode::ArityMismatch, LintCode::UnknownRelation]
        );
        // Schema problems never claim provable emptiness.
        let a = analyze_with_db(&q, &db, &AnalyzeOptions::default());
        assert!(!a.provably_empty());
        assert!(a.has_errors());
    }

    #[test]
    fn counting_pass_classifies_the_chen_mengel_cases() {
        let opts = AnalyzeOptions {
            counting: true,
            ..Default::default()
        };
        // Quantifier-free acyclic: PQA701 on the counting engine.
        let q = parse_cq("G(x, y, z) :- R(x, y), S(y, z).").unwrap();
        let a = analyze(&q, &opts);
        assert!(codes(&a).contains(&"PQA701"));
        // Projected head: PQA702.
        let q = parse_cq("G(x) :- R(x, y), S(y, z).").unwrap();
        let a = analyze(&q, &opts);
        assert!(codes(&a).contains(&"PQA702"));
        // Bounded-width cyclic quantifier-free: PQA701 via count-hypertree.
        let q = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
        let a = analyze(&q, &opts);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == LintCode::CountingTractable)
            .expect("tractable");
        assert!(d.message.contains("count-hypertree"), "{}", d.message);
        // Impure: PQA703 fallback.
        let q = parse_cq("G(x) :- R(x, y), x != y.").unwrap();
        let a = analyze(&q, &opts);
        assert!(codes(&a).contains(&"PQA703"));
        // Width above limit: PQA703 fallback too.
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let tight = AnalyzeOptions {
            counting: true,
            width_limit: 1,
            ..Default::default()
        };
        let a = analyze(&q, &tight);
        assert!(codes(&a).contains(&"PQA703"));
        // Off by default: no PQA7xx anywhere.
        let a = analyze(&q, &AnalyzeOptions::default());
        assert!(!codes(&a).iter().any(|c| c.starts_with("PQA7")));
    }

    #[test]
    fn counting_pass_runs_on_the_minimized_core() {
        // As written the head misses z; minimized, the core is the single
        // atom E(x, y) and the head is quantifier-free.
        let q = parse_cq("G(x, y) :- E(x, y), E(x, z), E(x, w).").unwrap();
        let opts = AnalyzeOptions {
            counting: true,
            ..Default::default()
        };
        let a = analyze(&q, &opts);
        assert!(a.rewritten.is_some());
        assert!(codes(&a).contains(&"PQA701"), "{:?}", codes(&a));
    }

    #[test]
    fn lines_are_deterministic_and_end_with_the_verdict() {
        let q = parse_cq("G(x) :- R(x, y), x != x.").unwrap();
        let a = analyze(&q, &AnalyzeOptions::default());
        let lines = a.lines();
        assert_eq!(lines, analyze(&q, &AnalyzeOptions::default()).lines());
        assert_eq!(
            lines.last().unwrap(),
            "verdict: provably-empty (reflexive-neq)"
        );
    }
}
