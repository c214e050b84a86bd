//! Algorithms 1 and 2 of Section 5, for a fixed hash function `h`.
//!
//! Given an acyclic conjunctive query with `≠` atoms, a database, and a
//! coloring `h : D → {1, …, k}`, [`algorithm1`] decides whether some
//! *consistent satisfying instantiation* exists (one that satisfies all
//! relational and inequality atoms and whose `V1`-values get distinct colors
//! pairwise across each `I1` inequality), and [`algorithm2`] computes
//! `Q_h(d) = { τ(t0) | τ ∈ Θ_h }`. The driver in [`super::driver`] then
//! ranges `h` over a random or k-perfect family.

use std::collections::BTreeSet;

use pq_data::{Database, Relation, Value};
use pq_hypergraph::{join_tree, Hypergraph, JoinTree};
use pq_query::ConjunctiveQuery;

use super::hashing::{Coloring, DomainIndex};
use super::partition::NeqPartition;
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;
use crate::sweep::{fold_up, keep_lists};
use crate::yannakakis::{atom_relation_governed, join_projected, join_reduced};

/// Engine name reported in resource-exhaustion errors.
pub(super) const ENGINE: &str = "color-coding";

/// The hashed-attribute name for variable `x` (the paper's `x'`). The `#`
/// cannot appear in parsed variable names, so no collision is possible.
pub fn hashed_attr(x: &str) -> String {
    format!("{x}#h")
}

/// Everything about the query that does not depend on the hash function —
/// computed once, reused for every `h` in the family.
pub struct Prepared {
    /// The query hypergraph (relational atoms only).
    pub hg: Hypergraph,
    /// A join tree for it.
    pub tree: JoinTree,
    /// The `I1`/`I2` partition of the inequalities.
    pub partition: NeqPartition,
    /// `S_j` per atom: constants/equalities of the atom plus all applicable
    /// `I2` inequality selections, projected onto the atom's variables.
    pub s: Vec<Relation>,
    /// `U_j`: the variable set of atom `j`.
    pub u_vars: Vec<BTreeSet<String>>,
    /// `W_j`: the V1-variables from strictly below `j` whose hashed copies
    /// must be carried through node `j` (see Section 5's definition).
    pub w_vars: Vec<BTreeSet<String>>,
    /// `Y_j = U_j ∪ U'_j ∪ W'_j` as attribute names.
    pub y_attrs: Vec<Vec<String>>,
    /// The hypergraph whose edge `j` is `Y_j` — what `tree` is a join tree
    /// of once the hashed copies ride along, as the bag hypergraph is for a
    /// decomposition tree.
    pub y_hg: Hypergraph,
    /// Algorithm 1's keep-lists `Y_j ∩ Y_u`.
    pub keep_up: Vec<Vec<String>>,
    /// The head variables `Z` of the query, and Algorithm 2's keep-lists
    /// `(Y_j ∩ Y_u) ∪ (Z ∩ at(T[j]))` for them.
    pub head_vars: Vec<String>,
    /// See [`Prepared::head_vars`].
    pub keep_out: Vec<Vec<String>>,
}

impl Prepared {
    /// Build the `h`-independent structure. Fails when the query is cyclic,
    /// has comparison atoms, or references unknown relations.
    pub fn build(q: &ConjunctiveQuery, db: &Database) -> Result<Prepared> {
        Prepared::build_governed(q, db, &ExecutionContext::unlimited())
    }

    /// [`Prepared::build`] under the resource limits of `ctx`.
    pub fn build_governed(
        q: &ConjunctiveQuery,
        db: &Database,
        ctx: &ExecutionContext,
    ) -> Result<Prepared> {
        if !q.comparisons.is_empty() {
            return Err(EngineError::Unsupported(
                "color-coding engine handles ≠ only; < comparisons are W[1]-hard (Theorem 3)"
                    .into(),
            ));
        }
        let hg = q.hypergraph();
        let tree = join_tree(&hg)
            .ok_or_else(|| EngineError::Unsupported(format!("query is not acyclic: {q}")))?;
        let partition = NeqPartition::build(q, &hg);

        // S_j: per-atom relations with I2 constraints pushed in.
        let mut s: Vec<Relation> = Vec::with_capacity(q.atoms.len());
        for atom in &q.atoms {
            let mut rel = atom_relation_governed(atom, db, ctx)?;
            for (v, c) in &partition.i2_var_const {
                if rel.attr_pos(v).is_some() {
                    rel = rel.select_ne_const(v, c)?;
                }
            }
            for (a, b) in &partition.i2_var_var {
                if rel.attr_pos(a).is_some() && rel.attr_pos(b).is_some() {
                    rel = rel.select_ne_attrs(a, b)?;
                }
            }
            s.push(rel);
        }

        let u_vars: Vec<BTreeSet<String>> = q
            .atoms
            .iter()
            .map(|a| a.variables().into_iter().map(str::to_string).collect())
            .collect();

        let subtree_vars: Vec<BTreeSet<String>> = (0..q.atoms.len())
            .map(|j| {
                tree.subtree_vertices(&hg, j)
                    .iter()
                    .map(|&v| hg.label(v).to_string())
                    .collect()
            })
            .collect();

        // W_j: V1-variables below j that still have an I1 partner outside
        // their child's subtree (the paper's definition, which keeps the
        // hashed columns carried through j to the ones a later selection
        // needs).
        let mut w_vars: Vec<BTreeSet<String>> = vec![BTreeSet::new(); q.atoms.len()];
        for j in 0..q.atoms.len() {
            for x in &partition.v1 {
                if u_vars[j].contains(x) || !subtree_vars[j].contains(x) {
                    continue;
                }
                // x appears strictly below j, in a unique child subtree.
                let child = tree
                    .children(j)
                    .iter()
                    .copied()
                    .find(|&c| subtree_vars[c].contains(x))
                    .expect("join-tree property: x lives in exactly one child subtree");
                let needed = partition.i1.iter().any(|(a, b)| {
                    (a == x && !subtree_vars[child].contains(b))
                        || (b == x && !subtree_vars[child].contains(a))
                });
                if needed {
                    w_vars[j].insert(x.clone());
                }
            }
        }

        let y_attrs: Vec<Vec<String>> = (0..q.atoms.len())
            .map(|j| {
                let mut attrs: Vec<String> = u_vars[j].iter().cloned().collect();
                for x in &u_vars[j] {
                    if partition.in_v1(x) {
                        attrs.push(hashed_attr(x));
                    }
                }
                for x in &w_vars[j] {
                    attrs.push(hashed_attr(x));
                }
                attrs
            })
            .collect();

        let y_hg = Hypergraph::from_edges(y_attrs.iter().cloned());
        let keep_up = keep_lists(&y_hg, &tree, &[]);
        let head_vars: Vec<String> = q.head_variables().iter().map(|v| v.to_string()).collect();
        let keep_out = keep_lists(&y_hg, &tree, &head_vars);

        Ok(Prepared {
            hg,
            tree,
            partition,
            s,
            u_vars,
            w_vars,
            y_attrs,
            y_hg,
            keep_up,
            head_vars,
            keep_out,
        })
    }
}

/// `S'`: extend `base` with one hashed column `x#h` per variable `x` of
/// `hashed` (each a column of `base`), holding `h(value)` as an integer.
/// Ticks once and charges the extended relation.
pub(super) fn extend_with_hashes(
    base: &Relation,
    hashed: &[&String],
    dom: &DomainIndex,
    h: &Coloring,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    ctx.tick(ENGINE)?;
    ctx.charge_tuples(ENGINE, base.len() as u64)?;
    if hashed.is_empty() {
        return Ok(base.clone());
    }
    let mut attrs: Vec<String> = base.attrs().to_vec();
    attrs.extend(hashed.iter().map(|x| hashed_attr(x)));
    let positions: Vec<usize> = hashed
        .iter()
        .map(|x| {
            base.attr_pos(x)
                .expect("hashed var is a column of its relation")
        })
        .collect();
    let mut out = Relation::new(attrs)?;
    for t in base.iter() {
        let extra = positions
            .iter()
            .map(|&p| Value::Int(i64::from(h.color_of(dom, &t[p]))));
        out.insert(t.extend_with(extra))?;
    }
    Ok(out)
}

/// Apply the `I1` inequality selections that have *become checkable*: both
/// hashed attributes present in `rel`, and not both already present before
/// the last join (those were filtered earlier).
fn filter_new_i1_pairs(
    rel: Relation,
    partition: &NeqPartition,
    before: &BTreeSet<String>,
) -> Relation {
    let mut out = rel;
    for (a, b) in &partition.i1 {
        let (ha, hb) = (hashed_attr(a), hashed_attr(b));
        let both_now = out.attr_pos(&ha).is_some() && out.attr_pos(&hb).is_some();
        let both_before = before.contains(&ha) && before.contains(&hb);
        if both_now && !both_before {
            out = out.select_ne_attrs(&ha, &hb).expect("attrs present");
        }
    }
    out
}

/// **Algorithm 1 (emptiness test).** Returns the final node relations
/// (`P_u` of the paper) when some consistent satisfying instantiation
/// exists, or `None` when `Q_h(d) = ∅`.
pub fn algorithm1(prep: &Prepared, dom: &DomainIndex, h: &Coloring) -> Option<Vec<Relation>> {
    algorithm1_governed(prep, dom, h, &ExecutionContext::unlimited())
        .expect("unlimited governor cannot trip")
}

/// [`algorithm1`] under the resource limits of `ctx`: every hash-extended
/// node relation is charged here, every projection and join result by the
/// sweep. The step is `P_u := σ_{I1}(P_u ⋈ π_{Y_j ∩ Y_u} P_j)`, selecting
/// after each child.
pub fn algorithm1_governed(
    prep: &Prepared,
    dom: &DomainIndex,
    h: &Coloring,
    ctx: &ExecutionContext,
) -> Result<Option<Vec<Relation>>> {
    let mut p: Vec<Relation> = (prep.s.iter().zip(&prep.u_vars))
        .map(|(s_j, u_j)| {
            let hashed: Vec<&String> = u_j.iter().filter(|x| prep.partition.in_v1(x)).collect();
            extend_with_hashes(s_j, &hashed, dom, h, ctx)
        })
        .collect::<Result<_>>()?;
    let nonempty = fold_up(&prep.tree, &mut p, ctx, ENGINE, |ctx, parent, child, j| {
        let before: BTreeSet<String> = parent.attrs().iter().cloned().collect();
        let (joined, projected) = join_projected(ctx, parent, child, &prep.keep_up[j])?;
        let selected = filter_new_i1_pairs(joined, &prep.partition, &before);
        Ok::<_, EngineError>((selected, projected))
    })?;
    Ok(nonempty.then_some(p))
}

/// **Algorithm 2 (evaluation of `Q_h(d)`).** Takes the relations produced by
/// a successful Algorithm 1 run and returns the projection `P* = π_Z(P_1 ⋈ …
/// ⋈ P_s)` over the head variables `Z`, computed without materializing the
/// full join: a top-down dangling-tuple (semijoin) pass, then a bottom-up
/// join+project pass. Algorithm 1 already joined every child into its
/// parent, so no upward reducer of its own is needed and the rest is
/// Yannakakis' tail (`yannakakis::join_reduced`) over the `Y_j` hypergraph.
pub fn algorithm2(prep: &Prepared, p: Vec<Relation>, head_vars: &[String]) -> Result<Relation> {
    algorithm2_governed(prep, p, head_vars, &ExecutionContext::unlimited())
}

/// [`algorithm2`] under the resource limits of `ctx`.
pub fn algorithm2_governed(
    prep: &Prepared,
    mut p: Vec<Relation>,
    head_vars: &[String],
    ctx: &ExecutionContext,
) -> Result<Relation> {
    // The keep-lists for the query's own head are part of `prep`, shared by
    // every trial; any other `Z` pays for its own.
    let other;
    let keep = if head_vars == prep.head_vars {
        &prep.keep_out
    } else {
        other = keep_lists(&prep.y_hg, &prep.tree, head_vars);
        &other
    };
    join_reduced(&prep.tree, keep, &mut p, ctx, ENGINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::parse_cq;

    fn prep_for(src: &str, db: &Database) -> Prepared {
        let q = parse_cq(src).unwrap();
        Prepared::build(&q, db).unwrap()
    }

    fn ep_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "EP",
            ["e", "p"],
            [
                tuple!["ann", "p1"],
                tuple!["ann", "p2"],
                tuple!["bob", "p1"],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn prepared_structure_for_paper_example() {
        let db = ep_db();
        let prep = prep_for("G(e) :- EP(e, p), EP(e, p2), p != p2.", &db);
        assert_eq!(prep.partition.k(), 2);
        assert_eq!(
            prep.u_vars[0],
            BTreeSet::from(["e".to_string(), "p".to_string()])
        );
        // Y of each node includes its own hashed attr.
        assert!(prep.y_attrs[0].contains(&hashed_attr("p")));
        assert!(prep.y_attrs[1].contains(&hashed_attr("p2")));
    }

    #[test]
    fn algorithm1_distinguishes_colorings() {
        let db = ep_db();
        let prep = prep_for("G(e) :- EP(e, p), EP(e, p2), p != p2.", &db);
        let dom = DomainIndex::from_database(&db);
        // Domain (sorted): ann, bob, p1, p2. A coloring separating p1 and p2
        // must find ann; a constant coloring must fail.
        let idx_p1 = dom.index_of(&Value::str("p1")).unwrap();
        let mut colors = vec![0u32; dom.len()];
        colors[idx_p1] = 1;
        let good = Coloring::new(colors);
        assert!(algorithm1(&prep, &dom, &good).is_some());
        let bad = Coloring::new(vec![0; dom.len()]);
        assert!(algorithm1(&prep, &dom, &bad).is_none());
    }

    #[test]
    fn algorithm2_projects_onto_head() {
        let db = ep_db();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let prep = Prepared::build(&q, &db).unwrap();
        let dom = DomainIndex::from_database(&db);
        let idx_p1 = dom.index_of(&Value::str("p1")).unwrap();
        let mut colors = vec![0u32; dom.len()];
        colors[idx_p1] = 1;
        let p = algorithm1(&prep, &dom, &Coloring::new(colors)).expect("nonempty");
        let star = algorithm2(&prep, p, &["e".to_string()]).unwrap();
        assert_eq!(star.len(), 1);
        assert!(star.contains(&tuple!["ann"]));
    }

    #[test]
    fn i2_constraints_are_enforced_in_s() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 1], tuple![1, 2]])
            .unwrap();
        let q = parse_cq("G :- R(x, y), x != y.").unwrap();
        let prep = Prepared::build(&q, &db).unwrap();
        assert_eq!(prep.partition.k(), 0);
        assert_eq!(prep.s[0].len(), 1); // only (1,2) survives
    }

    #[test]
    fn comparisons_are_rejected() {
        let db = ep_db();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p < p2.").unwrap();
        assert!(matches!(
            Prepared::build(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn cyclic_query_rejected() {
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![1, 2]]).unwrap();
        let q = parse_cq("G :- E(x, y), E(y, z), E(z, x), x != z.").unwrap();
        assert!(matches!(
            Prepared::build(&q, &db),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn w_sets_carry_only_unresolved_partners() {
        // The I1 pair x2 ≠ x4 is decided where the chain's C and D atoms
        // meet, so whatever the root, the nodes of A and B carry no hashed
        // copy and at most one node carries one at all. Carrying every
        // subtree V1-variable would put both copies into every ancestor of
        // C and D.
        let mut db = Database::new();
        for r in ["A", "B", "C", "D"] {
            db.add_table(r, ["a", "b"], [tuple![1, 2], tuple![2, 1]])
                .unwrap();
        }
        let prep = prep_for(
            "G(x0) :- A(x0, x1), B(x1, x2), C(x2, x3), D(x3, x4), x2 != x4.",
            &db,
        );
        assert_eq!(prep.partition.k(), 2);
        assert!(prep.w_vars[0].is_empty() && prep.w_vars[1].is_empty());
        let carried: usize = prep.w_vars.iter().map(BTreeSet::len).sum();
        assert!(carried <= 1, "{:?}", prep.w_vars);
    }
}
