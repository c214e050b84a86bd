//! The join-tree sweep: the only walks over a [`JoinTree`] in the workspace.
//!
//! Section 5 states every tree algorithm of the paper as one step applied
//! along the edges of a join tree, `P_u := σ_F(P_u ⊗ ⊕_{Z_j} P_j)` for a
//! child `j` of `u`: Yannakakis' reducer (`⊗` = `⋉`, nothing projected),
//! his output join (`⋈` with `π_{Z_j}`), Algorithm 1 (the same join followed
//! by the `I1` selection `F`), and — over `(ℕ, +, ×)` instead of the Boolean
//! semiring — Chen–Mengel counting (`join_multiply` with `project_sum`).
//! Gottlob–Leone–Scarcello run the same steps over a bag tree. What the
//! algorithms share is the walk, and it is written here once:
//!
//! * [`fold_up`] applies a step to every (child, parent) edge bottom-up,
//!   [`push_down`] to every (node, parent) edge top-down;
//! * both process the tree one [`levels`] slice at a time: the units of a
//!   level touch distinct relations and read only the level before, so they
//!   fan out on the pool the context carries, while a level with a single
//!   unit (every level of a chain) runs on the caller's context, where the
//!   step's `par_*` kernels find that pool instead;
//! * both tick once per edge, charge every relation a step materializes,
//!   and stop — `Ok(false)` — as soon as a node is empty, because then the
//!   answer is.
//!
//! The carrier stays the caller's: `Relation` with its set kernels for the
//! Boolean engines, `pq-count`'s multiplicity table for counting. A walk
//! needs only [`Rows`] of it. Which unit runs where depends on the tree
//! alone, never on the degree, and a unit applies its steps in child order,
//! so relations, ticks and charges are the same at any thread count.

use std::collections::BTreeSet;

use pq_data::Relation;
use pq_hypergraph::{Hypergraph, JoinTree};

use crate::error::EngineError;
use crate::governor::ExecutionContext;

/// What a walk asks of the relation at a node: its size, to charge it and
/// to spot an empty node.
pub trait Rows {
    /// Number of rows held.
    fn rows(&self) -> usize;
}

impl Rows for Relation {
    fn rows(&self) -> usize {
        self.len()
    }
}

/// Nodes of `tree` grouped by depth: `levels(t)[0]` is the root, deeper
/// levels follow. Processing levels deepest-first is a valid bottom-up
/// schedule (every node's children are folded one level earlier), and the
/// steps *within* one level write distinct nodes, so they can run
/// concurrently.
pub fn levels(tree: &JoinTree) -> Vec<Vec<usize>> {
    let mut depth = vec![0usize; tree.num_nodes()];
    for j in tree.top_down() {
        if let Some(u) = tree.parent(j) {
            depth[j] = depth[u] + 1;
        }
    }
    let maxd = depth.iter().copied().max().unwrap_or(0);
    let mut lv: Vec<Vec<usize>> = vec![Vec::new(); maxd + 1];
    for (j, &d) in depth.iter().enumerate() {
        lv[d].push(j);
    }
    lv
}

/// Variables `Z_j = (U_j ∩ U_u) ∪ (Z ∩ at(T[j]))` kept when the subtree
/// rooted at `j` is folded into its parent `u` (Section 5's output join).
/// `hg`'s edges are the nodes of `tree`: atoms, bags, or color coding's
/// `Y_j` attribute sets.
pub fn zj_vars(hg: &Hypergraph, tree: &JoinTree, j: usize, u: usize, z: &[String]) -> Vec<String> {
    let u_j: BTreeSet<&str> = hg.edge(j).iter().map(|&v| hg.label(v)).collect();
    let u_u: BTreeSet<&str> = hg.edge(u).iter().map(|&v| hg.label(v)).collect();
    let subtree: BTreeSet<&str> = tree
        .subtree_vertices(hg, j)
        .iter()
        .map(|&v| hg.label(v))
        .collect();
    let mut zj: Vec<String> = Vec::new();
    for v in u_j.intersection(&u_u) {
        zj.push((*v).to_string());
    }
    for v in z {
        if subtree.contains(v.as_str()) && !zj.contains(v) {
            zj.push(v.clone());
        }
    }
    zj
}

/// The keep-list of every node, computed once per sweep (or once per
/// prepared query, when many sweeps share it): [`zj_vars`] towards its
/// parent for a non-root node, `z` itself for the root.
pub fn keep_lists(hg: &Hypergraph, tree: &JoinTree, z: &[String]) -> Vec<Vec<String>> {
    (0..tree.num_nodes())
        .map(|j| match tree.parent(j) {
            Some(u) => zj_vars(hg, tree, j, u, z),
            None => z.to_vec(),
        })
        .collect()
}

/// One level of either walk, and the only place the schedule's two arms are
/// written: a single unit runs on `ctx` itself, so a step that calls
/// `par_semijoin`/`par_natural_join` on `ctx.pool()` gets the data-parallel
/// kernel; several units fan out, one task each, on worker contexts (which
/// carry no pool, so the same step runs the serial kernel there). The new
/// relations are installed in unit order; `false` when one of them is empty.
fn run_level<R, E, F>(
    rels: &mut [R],
    units: &[usize],
    ctx: &ExecutionContext,
    unit: F,
) -> Result<bool, E>
where
    R: Rows + Send + Sync,
    E: Send,
    F: Fn(&ExecutionContext, &[R], usize) -> Result<R, E> + Sync,
{
    let snapshot: &[R] = rels;
    let outs = match units[..] {
        [u] => vec![unit(ctx, snapshot, u)?],
        _ => ctx.try_run(units, |ctx, _, &u| unit(ctx, snapshot, u))?,
    };
    let mut alive = true;
    for (&u, out) in units.iter().zip(outs) {
        alive &= out.rows() > 0;
        rels[u] = out;
    }
    Ok(alive)
}

/// Bottom-up walk: for every non-root node `j` with parent `u`, deepest
/// level first, `rels[u] = step(ctx, &rels[u], &rels[j], j)`. A parent is
/// one unit of its level and applies its children in child order.
///
/// `step` returns the new parent and the number of rows of anything else it
/// materialized on the way (a projected child); the walk ticks once per edge
/// and charges both to `engine`. Returns `Ok(false)` — without running any
/// further step — as soon as some node is empty, `Ok(true)` when the root
/// has been folded and every node still has rows.
pub fn fold_up<R, E, F>(
    tree: &JoinTree,
    rels: &mut [R],
    ctx: &ExecutionContext,
    engine: &'static str,
    step: F,
) -> Result<bool, E>
where
    R: Rows + Send + Sync,
    E: From<EngineError> + Send,
    F: Fn(&ExecutionContext, &R, &R, usize) -> Result<(R, usize), E> + Sync,
{
    if rels.iter().any(|r| r.rows() == 0) {
        return Ok(false);
    }
    let lv = levels(tree);
    for d in (1..lv.len()).rev() {
        let parents: Vec<usize> = lv[d - 1]
            .iter()
            .copied()
            .filter(|&u| !tree.children(u).is_empty())
            .collect();
        let alive = run_level::<R, E, _>(rels, &parents, ctx, |ctx, snapshot, u| {
            let mut cur: Option<R> = None;
            for &j in tree.children(u) {
                ctx.tick(engine)?;
                let parent = cur.as_ref().unwrap_or(&snapshot[u]);
                let (next, scratch) = step(ctx, parent, &snapshot[j], j)?;
                ctx.charge_tuples(engine, (scratch + next.rows()) as u64)?;
                cur = Some(next);
            }
            Ok(cur.expect("parents have children"))
        })?;
        if !alive {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Top-down walk: for every non-root node `j` with parent `u`, shallowest
/// level first, `rels[j] = step(ctx, &rels[j], &rels[u], j)`. Every node of
/// a level reads only its (already-visited) parent one level up, so a node
/// is one unit. Ticks once per node and charges the relation `step` returns;
/// `Ok(false)` as soon as one comes back empty.
pub fn push_down<R, E, F>(
    tree: &JoinTree,
    rels: &mut [R],
    ctx: &ExecutionContext,
    engine: &'static str,
    step: F,
) -> Result<bool, E>
where
    R: Rows + Send + Sync,
    E: From<EngineError> + Send,
    F: Fn(&ExecutionContext, &R, &R, usize) -> Result<R, E> + Sync,
{
    for nodes in levels(tree).iter().skip(1) {
        let alive = run_level::<R, E, _>(rels, nodes, ctx, |ctx, snapshot, j| {
            ctx.tick(engine)?;
            let u = tree.parent(j).expect("non-root level");
            let out = step(ctx, &snapshot[j], &snapshot[u], j)?;
            ctx.charge_tuples(engine, out.rows() as u64)?;
            Ok(out)
        })?;
        if !alive {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_exec::Pool;
    use std::sync::Mutex;

    #[test]
    fn levels_group_by_depth() {
        // 1 -> 0 <- 2, 3 -> 1  (root 0)
        let t = JoinTree::from_parents(vec![None, Some(0), Some(0), Some(1)]);
        assert_eq!(levels(&t), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn zj_vars_track_connecting_and_z_vars() {
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["y", "z"], vec!["z", "w"]]);
        // path 0 -> 1 -> 2, root 2
        let t = JoinTree::from_parents(vec![Some(1), Some(2), None]);
        // No tracked vars: just the connector.
        assert_eq!(zj_vars(&hg, &t, 0, 1, &[]), vec!["y".to_string()]);
        // Tracking x keeps it through the join even though the parent
        // lacks it.
        assert_eq!(
            zj_vars(&hg, &t, 0, 1, &["x".to_string()]),
            vec!["y".to_string(), "x".to_string()]
        );
    }

    /// A node "relation" for the schedule tests: the nodes folded into it.
    #[derive(Debug, Clone, PartialEq)]
    struct Bag(Vec<usize>);

    impl Rows for Bag {
        fn rows(&self) -> usize {
            self.0.len()
        }
    }

    /// Three levels, the middle one with two parents: 3, 4 -> 1 and 5 -> 2
    /// fan out; 1, 2 -> 0 is a single-parent level.
    fn tree() -> JoinTree {
        JoinTree::from_parents(vec![None, Some(0), Some(0), Some(1), Some(1), Some(2)])
    }

    fn bags() -> Vec<Bag> {
        (0..6).map(|j| Bag(vec![j])).collect()
    }

    /// The step both walks are tested with: append the other node's content,
    /// and log the node the step ran for.
    fn union<'a>(
        log: &'a Mutex<Vec<usize>>,
    ) -> impl Fn(&ExecutionContext, &Bag, &Bag, usize) -> Result<Bag, EngineError> + Sync + 'a {
        move |_, own, other, j| {
            log.lock().expect("log").push(j);
            Ok(Bag([&own.0[..], &other.0[..]].concat()))
        }
    }

    fn with_scratch<E>(
        step: impl Fn(&ExecutionContext, &Bag, &Bag, usize) -> Result<Bag, E> + Sync,
    ) -> impl Fn(&ExecutionContext, &Bag, &Bag, usize) -> Result<(Bag, usize), E> + Sync {
        move |ctx, parent, child, j| Ok((step(ctx, parent, child, j)?, 0))
    }

    fn position(log: &[usize], j: usize) -> usize {
        let hits: Vec<usize> = (0..log.len()).filter(|&i| log[i] == j).collect();
        assert_eq!(hits.len(), 1, "node {j} visited exactly once in {log:?}");
        hits[0]
    }

    #[test]
    fn fold_up_folds_every_node_once_after_all_of_its_children() {
        let t = tree();
        let mut counters = Vec::new();
        for threads in [1, 4] {
            let ctx = ExecutionContext::new()
                .with_tuple_budget(1_000)
                .with_pool(&Pool::new(threads));
            let log = Mutex::new(Vec::new());
            let mut rels = bags();
            assert!(fold_up(&t, &mut rels, &ctx, "t", with_scratch(union(&log))).unwrap());
            let log = log.into_inner().unwrap();
            assert_eq!(log.len(), 5);
            for j in 1..6 {
                for &c in t.children(j) {
                    assert!(position(&log, c) < position(&log, j), "{c} before {j}");
                }
            }
            // Children in child order, whatever the degree.
            assert_eq!(rels[1], Bag(vec![1, 3, 4]));
            assert_eq!(rels[0], Bag(vec![0, 1, 3, 4, 2, 5]));
            counters.push((ctx.ticks(), ctx.tuples_materialized()));
        }
        assert_eq!(counters[0], (5, 2 + 3 + 2 + 4 + 6));
        assert_eq!(counters[0], counters[1]);
    }

    #[test]
    fn push_down_visits_a_node_after_its_parent() {
        let t = tree();
        for threads in [1, 4] {
            let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
            let log = Mutex::new(Vec::new());
            let mut rels = bags();
            assert!(push_down(&t, &mut rels, &ctx, "t", union(&log)).unwrap());
            let log = log.into_inner().unwrap();
            for j in 3..6 {
                let u = t.parent(j).unwrap();
                assert!(position(&log, u) < position(&log, j), "{u} before {j}");
            }
            // Each node saw its parent as the level above left it.
            assert_eq!(rels[4], Bag(vec![4, 1, 0]));
            assert_eq!(ctx.ticks(), 5);
        }
    }

    #[test]
    fn an_empty_node_stops_the_walk_before_any_shallower_step() {
        let t = tree();
        let ctx = ExecutionContext::new().with_pool(&Pool::new(4));
        // An empty leaf: no step runs at all.
        let log = Mutex::new(Vec::new());
        let mut rels = bags();
        rels[5] = Bag(Vec::new());
        assert!(!fold_up(&t, &mut rels, &ctx, "t", with_scratch(union(&log))).unwrap());
        assert!(log.into_inner().unwrap().is_empty());
        // A node the deepest level empties: that level runs, nothing above.
        let log = Mutex::new(Vec::new());
        let emptying = |ctx: &ExecutionContext, parent: &Bag, child: &Bag, j: usize| {
            let merged = union(&log)(ctx, parent, child, j)?;
            Ok::<_, EngineError>((if j == 5 { Bag(Vec::new()) } else { merged }, 0))
        };
        assert!(!fold_up(&t, &mut bags(), &ctx, "t", emptying).unwrap());
        let mut ran = log.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![3, 4, 5]);
        // Top-down the same: 2 comes back empty, level 2 never starts.
        let log = Mutex::new(Vec::new());
        let emptying = |ctx: &ExecutionContext, node: &Bag, parent: &Bag, j: usize| {
            let merged = union(&log)(ctx, node, parent, j)?;
            Ok::<_, EngineError>(if j == 2 { Bag(Vec::new()) } else { merged })
        };
        assert!(!push_down(&t, &mut bags(), &ctx, "t", emptying).unwrap());
        let mut ran = log.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, vec![1, 2]);
    }

    #[test]
    fn the_smallest_failing_unit_of_a_fanned_out_level_is_the_error_reported() {
        let t = tree();
        for threads in [1, 4] {
            let ctx = ExecutionContext::new().with_pool(&Pool::new(threads));
            // Every step of the two-parent level fails; parent 1 is unit 0
            // and its first child is 3.
            let failing = |_: &ExecutionContext, _: &Bag, _: &Bag, j: usize| {
                Err::<(Bag, usize), _>(EngineError::Unsupported(j.to_string()))
            };
            let err = fold_up(&t, &mut bags(), &ctx, "t", failing).unwrap_err();
            assert_eq!(
                err,
                EngineError::Unsupported("3".into()),
                "{threads} threads"
            );
            // Top-down the two-node level is [1, 2].
            let failing = |_: &ExecutionContext, _: &Bag, _: &Bag, j: usize| {
                Err::<Bag, _>(EngineError::Unsupported(j.to_string()))
            };
            let err = push_down(&t, &mut bags(), &ctx, "t", failing).unwrap_err();
            assert_eq!(
                err,
                EngineError::Unsupported("1".into()),
                "{threads} threads"
            );
        }
    }
}
