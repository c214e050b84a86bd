//! The semiring Yannakakis sweep shared by the acyclic and decomposed
//! counting engines.
//!
//! Input: a hypergraph whose edges are the nodes of a join tree (atom
//! hypergraph + GYO join tree, or bag hypergraph + decomposition tree) and
//! one set-semantics relation per node. The sweep annotates every tuple
//! with multiplicity 1, then walks the tree bottom-up: each child is
//! marginalized onto its connecting variables plus any tracked `z`
//! variables below it ([`zj_vars`], summing multiplicities over the
//! variables projected away) and multiplied into its parent. Because every
//! variable's occurrences form a connected subtree (the join-tree
//! property), each satisfying assignment of *all* variables is counted
//! exactly once, so the root — marginalized onto `z` — holds, per
//! `z`-projection, the exact number of satisfying assignments extending it.
//!
//! With `z = ∅` this is Chen–Mengel counting without enumeration: time
//! polynomial in the input alone, answer sets be damned. With `z` = the
//! head variables it is per-projection counting: cost bounded by input ×
//! distinct projections, the honest price of projection (#W[1]-hardness)
//! without paying full enumeration.
//!
//! Overflow note: all multiplicities are ≥ 1, so any partial sum or
//! partial product is bounded by its final value. Whether a sweep overflows
//! therefore does not depend on the order children are folded in — every
//! degree of parallelism agrees on success, value, *and* failure.

use pq_data::Relation;
use pq_engine::governor::ExecutionContext;
use pq_engine::yannakakis::{levels, zj_vars};
use pq_hypergraph::{Hypergraph, JoinTree};

use crate::counted::CountedRelation;
use crate::{CountError, Result};

/// The counted sweep: returns the root counted relation over `z` (empty when
/// the query is empty on this database).
///
/// Tree levels are processed deepest-first. The child marginals of a level
/// are computed as one fan-out task per node (in node order), then folded
/// into their parents in ascending node order on `ctx` itself. Multiplicity
/// algebra is commutative and all weights are ≥ 1, so the result — and the
/// overflow verdict — is identical at any thread count.
pub(crate) fn counted_sweep(
    hg: &Hypergraph,
    tree: &JoinTree,
    node_rels: &[Relation],
    z: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<CountedRelation> {
    let mut rels: Vec<Option<CountedRelation>> = node_rels
        .iter()
        .map(|r| Some(CountedRelation::from_relation(r)))
        .collect();
    for level in levels(tree).iter().rev() {
        for &j in level {
            ctx.tick(engine)?;
            if rels[j].as_ref().expect("node visited once").is_empty() {
                return CountedRelation::new(z.iter().map(String::clone));
            }
        }
        // Root level: nothing to marginalize into a parent.
        if tree.parent(level[0]).is_none() {
            continue;
        }
        let marginals: Vec<CountedRelation> = ctx.try_run(level, |ctx, _, &j| {
            let u = tree.parent(j).expect("non-root levels have parents");
            let child = rels[j].as_ref().expect("node visited once");
            let m = child.project_sum(&zj_vars(hg, tree, j, u, z), ctx, engine)?;
            ctx.charge_tuples(engine, m.len() as u64)?;
            Ok::<_, CountError>(m)
        })?;
        for (&j, marginal) in level.iter().zip(&marginals) {
            rels[j] = None;
            let u = tree.parent(j).expect("non-root levels have parents");
            let parent = rels[u].take().expect("parent not yet visited");
            let joined = parent.join_multiply(marginal, ctx, engine)?;
            ctx.charge_tuples(engine, joined.len() as u64)?;
            rels[u] = Some(joined);
        }
    }
    let root = rels[tree.root()].take().expect("root remains");
    let out = root.project_sum(z, ctx, engine)?;
    ctx.charge_tuples(engine, out.len() as u64)?;
    Ok(out)
}
