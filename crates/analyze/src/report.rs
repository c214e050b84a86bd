//! The structural report: acyclicity with a concrete witness, the Fig. 1
//! parameters, and which cell of the paper's landscape the query occupies.

use pq_engine::comparisons;
use pq_hypergraph::{cyclic_core, decompose, HypertreeDecomposition, DEFAULT_WIDTH_LIMIT};
use pq_query::{ConjunctiveQuery, QueryMetrics};

/// The cell of the paper's Fig. 1 landscape a conjunctive query falls
/// into. It lives here, below the planner, so the analyzer is the single
/// source of truth for the decision procedure; the planner dispatches on
/// it and `pq_core::lower_bound` maps it to its W-class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigCell {
    /// Acyclic, no `≠`, no comparisons: polynomial combined complexity.
    AcyclicPure,
    /// Acyclic with `≠` atoms only: fixed-parameter tractable (Theorem 2).
    AcyclicNeq,
    /// Acyclic (after comparison collapse) with `<`/`≤`, or `≠`/`<` mixed:
    /// W\[1\]-complete (Theorem 3).
    AcyclicComparisons,
    /// The comparison system is inconsistent: the answer is empty for
    /// every database.
    InconsistentComparisons,
    /// Cyclic relational hypergraph: W\[1\]-complete already without
    /// constraints (Theorem 1).
    Cyclic,
    /// Cyclic but of hypertree width ≤ the configured limit (pure queries
    /// only): polynomial by bag evaluation (Gottlob–Leone–Scarcello) — the
    /// tractable cell *beyond* the paper's acyclic island.
    CyclicBoundedWidth,
}

impl FigCell {
    /// Stable lowercase name used in reports and on the wire.
    pub fn as_str(self) -> &'static str {
        match self {
            FigCell::AcyclicPure => "acyclic-pure",
            FigCell::AcyclicNeq => "acyclic-neq",
            FigCell::AcyclicComparisons => "acyclic-comparisons",
            FigCell::InconsistentComparisons => "inconsistent-comparisons",
            FigCell::Cyclic => "cyclic",
            FigCell::CyclicBoundedWidth => "cyclic-bounded-width",
        }
    }
}

impl std::fmt::Display for FigCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The structural-classification pass's output: everything the paper's
/// decision procedure derives from the query alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructureReport {
    /// Is the *relational* hypergraph α-acyclic (raw GYO verdict, before
    /// any comparison collapse — this is the join-tree builder's notion)?
    pub acyclic: bool,
    /// When cyclic: the GYO-irreducible atom indices — a concrete witness
    /// that no join tree exists.
    pub cycle_witness: Option<Vec<usize>>,
    /// The query-size parameter `q`.
    pub q: usize,
    /// The variable-count parameter `v`.
    pub v: usize,
    /// Largest relational-atom arity (0 for an empty body).
    pub max_arity: usize,
    /// Number of `≠` atoms.
    pub neq_count: usize,
    /// Number of comparison atoms.
    pub cmp_count: usize,
    /// Theorem 2's color parameter `k` when `≠` atoms exist.
    pub color_parameter: Option<usize>,
    /// Hypertree width: 1 for acyclic queries, the decomposition search's
    /// result for cyclic ones (`None` when the body has no relational
    /// structure to decompose).
    pub hypertree_width: Option<usize>,
    /// Is `hypertree_width` exact, or the heuristic's verified upper bound?
    pub width_exact: bool,
    /// The decomposition backing `hypertree_width` for cyclic queries (the
    /// hypertree engine evaluates this directly; `None` for acyclic queries,
    /// whose join tree already serves).
    pub decomposition: Option<HypertreeDecomposition>,
    /// The Fig. 1 cell.
    pub cell: FigCell,
    /// One-line summary quoting the relevant theorem.
    pub summary: &'static str,
    /// The engine the cell recommends (the planner makes the final call).
    pub engine_hint: &'static str,
}

const SUMMARY_PURE: &str =
    "acyclic conjunctive query: polynomial combined complexity (Yannakakis [18])";
const SUMMARY_NEQ: &str = "acyclic with ≠: fixed-parameter tractable by color coding (Theorem 2)";
const SUMMARY_CMP: &str =
    "acyclic with comparisons: W[1]-complete (Theorem 3); expect q in the exponent";
const SUMMARY_MIXED: &str = "≠ and < mixed: at least W[1]-hard (Theorem 3 applies to the < part)";
const SUMMARY_INCONSISTENT: &str = "comparison system inconsistent: Q(d) = ∅ for every d";
const SUMMARY_CYCLIC: &str = "cyclic conjunctive query: W[1]-complete (Theorem 1)";
const SUMMARY_BOUNDED: &str =
    "cyclic of bounded hypertree width: polynomial by bag evaluation (Gottlob–Leone–Scarcello)";

/// Which Fig. 1 cell does `q` occupy? Exactly the paper's decision
/// procedure: comparisons are collapsed first (Theorem 3 defines
/// acyclicity on the collapsed query), `≠`/`<` mixtures are at least as
/// hard as Theorem 3, and otherwise raw hypergraph acyclicity splits
/// Yannakakis \[18\] from Theorems 1 and 2.
fn decide_cell(q: &ConjunctiveQuery) -> (FigCell, &'static str) {
    let has_neq = !q.neqs.is_empty();
    let has_cmp = !q.comparisons.is_empty();
    if has_cmp && !has_neq {
        return match comparisons::collapse_query(q) {
            Ok(None) => (FigCell::InconsistentComparisons, SUMMARY_INCONSISTENT),
            Ok(Some(collapsed)) if collapsed.is_acyclic() => {
                (FigCell::AcyclicComparisons, SUMMARY_CMP)
            }
            _ => (FigCell::Cyclic, SUMMARY_CYCLIC),
        };
    }
    if has_cmp && has_neq {
        return (FigCell::AcyclicComparisons, SUMMARY_MIXED);
    }
    if !q.is_acyclic() {
        return (FigCell::Cyclic, SUMMARY_CYCLIC);
    }
    if has_neq {
        (FigCell::AcyclicNeq, SUMMARY_NEQ)
    } else {
        (FigCell::AcyclicPure, SUMMARY_PURE)
    }
}

fn engine_hint(cell: FigCell) -> &'static str {
    match cell {
        FigCell::AcyclicPure => "yannakakis",
        FigCell::AcyclicNeq => "color coding",
        FigCell::InconsistentComparisons => "constant (empty answer)",
        FigCell::AcyclicComparisons | FigCell::Cyclic => "naive backtracking",
        FigCell::CyclicBoundedWidth => "hypertree",
    }
}

/// Run the structural-classification pass alone (cheap: GYO + parameter
/// counting + comparison-consistency + width-gated decomposition search, no
/// evaluation), with the default [`DEFAULT_WIDTH_LIMIT`]. This is the
/// library's classifier: where a query sits in Fig. 1, and why.
pub fn structure_of(q: &ConjunctiveQuery) -> StructureReport {
    structure_with_width_limit(q, DEFAULT_WIDTH_LIMIT)
}

/// [`structure_of`] with an explicit hypertree-width limit: widths up to
/// `width_limit` are searched exactly (on small hypergraphs) and promote a
/// pure cyclic query into the `cyclic-bounded-width` cell; above the limit
/// only the heuristic's upper-bound certificate is reported.
pub fn structure_with_width_limit(q: &ConjunctiveQuery, width_limit: usize) -> StructureReport {
    let hg = q.hypergraph();
    let cycle_witness = cyclic_core(&hg);
    let color_parameter = if q.neqs.is_empty() {
        None
    } else {
        Some(pq_engine::colorcoding::NeqPartition::build(q, &hg).k())
    };
    let (mut cell, mut summary) = decide_cell(q);

    // The width pass: acyclic = width 1 by definition (GLS); for cyclic
    // hypergraphs run the gated decomposition search. A *pure* cyclic query
    // within the limit moves to the tractable bounded-width cell — with
    // `≠`/comparison atoms the hypertree engine does not apply, but the
    // width is still reported.
    let (hypertree_width, width_exact, decomposition) = if cycle_witness.is_none() {
        (Some(1), true, None)
    } else {
        match decompose(&hg, width_limit) {
            Some(d) => (Some(d.width()), d.is_exact(), Some(d)),
            None => (None, false, None),
        }
    };
    if cell == FigCell::Cyclic && q.is_pure() {
        if let Some(w) = hypertree_width {
            if w <= width_limit {
                cell = FigCell::CyclicBoundedWidth;
                summary = SUMMARY_BOUNDED;
            }
        }
    }

    StructureReport {
        acyclic: cycle_witness.is_none(),
        cycle_witness,
        q: q.size(),
        v: q.num_variables(),
        max_arity: q.max_arity(),
        neq_count: q.neqs.len(),
        cmp_count: q.comparisons.len(),
        color_parameter,
        hypertree_width,
        width_exact,
        decomposition,
        cell,
        summary,
        engine_hint: engine_hint(cell),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_query::parse_cq;

    #[test]
    fn cells_cover_the_landscape() {
        let r = structure_of(&parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap());
        assert_eq!(r.cell, FigCell::AcyclicPure);
        assert!(r.acyclic);
        assert_eq!(r.engine_hint, "yannakakis");
        assert_eq!(r.max_arity, 2);

        let r = structure_of(&parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap());
        assert_eq!(r.cell, FigCell::AcyclicNeq);
        assert_eq!(r.color_parameter, Some(2));
        assert_eq!(r.neq_count, 1);

        let r = structure_of(&parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap());
        assert_eq!(r.cell, FigCell::CyclicBoundedWidth);
        assert_eq!(r.cycle_witness, Some(vec![0, 1, 2]));
        assert_eq!(r.hypertree_width, Some(2));
        assert!(r.width_exact);
        assert!(r.decomposition.is_some());
        assert_eq!(r.engine_hint, "hypertree");

        let r = structure_of(&parse_cq("G :- R(x, y), x < y, y < x.").unwrap());
        assert_eq!(r.cell, FigCell::InconsistentComparisons);
        assert_eq!(r.cmp_count, 2);

        let r = structure_of(&parse_cq("G :- R(x, y), x != y, x < y.").unwrap());
        assert_eq!(r.cell, FigCell::AcyclicComparisons, "mixed constraints");
    }

    #[test]
    fn width_limit_and_purity_gate_the_bounded_cell() {
        // Below the limit the triangle is tractable; with limit 1 the
        // heuristic certificate (width 2) exceeds it and the cell reverts.
        let tri = parse_cq("G :- E(x, y), E(y, z), E(z, x).").unwrap();
        let r = structure_with_width_limit(&tri, 1);
        assert_eq!(r.cell, FigCell::Cyclic);
        assert_eq!(r.hypertree_width, Some(2));
        assert!(!r.width_exact);
        assert_eq!(r.engine_hint, "naive backtracking");

        // A cyclic query with a ≠ atom keeps its width report but stays in
        // the plain cyclic cell: the hypertree engine is pure-only.
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x), x != y.").unwrap();
        let r = structure_of(&q);
        assert_eq!(r.cell, FigCell::Cyclic);
        assert_eq!(r.hypertree_width, Some(2));

        // Acyclic queries are width 1 by definition, no decomposition stored.
        let r = structure_of(&parse_cq("G(x, z) :- R(x, y), S(y, z).").unwrap());
        assert_eq!(r.hypertree_width, Some(1));
        assert!(r.width_exact);
        assert!(r.decomposition.is_none());
    }

    #[test]
    fn collapse_can_restore_the_acyclic_cell_but_not_the_raw_verdict() {
        // The raw hypergraph verdict (what the join-tree builder sees) is
        // independent of comparison collapse.
        let q = parse_cq("G :- R(s, t), S(t, s), s <= t, t <= s.").unwrap();
        let r = structure_of(&q);
        assert_eq!(r.cell, FigCell::AcyclicComparisons);
        assert_eq!(
            r.acyclic,
            pq_hypergraph::join_tree(&q.hypergraph()).is_some()
        );
    }
}
