//! Databases: named catalogs of relations, plus the active domain.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::{DataError, Result};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;

/// A database instance `d = [D; R1, …, Rm]` (Section 3 of the paper).
///
/// The domain `D` is implicit: we expose the *active domain* (every constant
/// appearing in some relation), which is what all the paper's algorithms
/// range over.
///
/// Every database carries a monotone **mutation epoch**
/// ([`Database::epoch`]): a counter bumped by every mutating method,
/// including [`Database::relation_mut`] (which is *assumed* to mutate —
/// handing out `&mut Relation` makes the change invisible to the catalog).
/// Caches keyed by `(query, database, epoch)` are therefore invalidated by
/// construction when the data changes. The epoch is bookkeeping, not data:
/// it does not participate in equality.
///
/// The epoch is itself the sum of a **per-relation epoch vector**
/// ([`Database::relation_epoch`]): each mutation bumps exactly one
/// relation's counter, so a cache keyed only by the relations a query
/// actually mentions survives writes to unrelated relations. Counters for
/// removed relations are retained as tombstones — the sum (and every
/// per-name counter) stays monotone across remove/re-add cycles.
#[derive(Debug, Clone, Default, Eq)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    epoch: u64,
    rel_epochs: BTreeMap<String, u64>,
}

impl PartialEq for Database {
    /// Semantic equality: same relations, regardless of mutation history.
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The mutation epoch: how many mutating calls this instance has seen.
    ///
    /// Monotone within one instance (clones inherit the current value and
    /// advance independently). Always equal to the sum of the per-relation
    /// epochs, tombstones included.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutation epoch of one relation: how many mutating calls have
    /// targeted `name` (0 when never touched). Survives removal as a
    /// tombstone, so it is monotone even across remove/re-add cycles.
    pub fn relation_epoch(&self, name: &str) -> u64 {
        self.rel_epochs.get(name).copied().unwrap_or(0)
    }

    /// The full per-relation epoch vector (including tombstones for removed
    /// relations), in name order.
    pub fn relation_epochs(&self) -> &BTreeMap<String, u64> {
        &self.rel_epochs
    }

    /// Bump the global epoch and `name`'s per-relation counter in lockstep
    /// (the invariant behind `epoch() == relation_epochs().values().sum()`).
    fn touch(&mut self, name: &str) {
        self.epoch += 1;
        *self.rel_epochs.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Register a relation under `name`.
    ///
    /// # Errors
    /// [`DataError::DuplicateRelation`] when the name is taken.
    pub fn add_relation(&mut self, name: impl Into<String>, rel: Relation) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(DataError::DuplicateRelation(name));
        }
        self.touch(&name);
        self.relations.insert(name, rel);
        Ok(())
    }

    /// Replace (or insert) a relation unconditionally.
    pub fn set_relation(&mut self, name: impl Into<String>, rel: Relation) {
        let name = name.into();
        self.touch(&name);
        self.relations.insert(name, rel);
    }

    /// Remove a relation, returning it if present. The relation's epoch
    /// counter is kept as a tombstone (see [`Database::relation_epoch`]).
    pub fn remove_relation(&mut self, name: &str) -> Option<Relation> {
        let removed = self.relations.remove(name);
        if removed.is_some() {
            self.touch(name);
        }
        removed
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        self.relations
            .get(name)
            .ok_or_else(|| DataError::UnknownRelation(name.to_string()))
    }

    /// Look up a relation mutably. Bumps the epoch (the borrow is assumed to
    /// mutate; a conservative bump only costs a spurious cache miss, while a
    /// missed bump would serve stale answers).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        if !self.relations.contains_key(name) {
            return Err(DataError::UnknownRelation(name.to_string()));
        }
        self.touch(name);
        Ok(self.relations.get_mut(name).expect("checked above"))
    }

    /// Insert rows into relation `name`, returning the rows that were
    /// actually new (duplicates are silently dropped) in input order. Bumps
    /// the relation's epoch only when something changed, so a no-op batch
    /// does not invalidate caches. The returned rows are the exact delta a
    /// maintenance plan needs.
    ///
    /// # Errors
    /// [`DataError::UnknownRelation`] when absent;
    /// [`DataError::ArityMismatch`] when any row has the wrong arity (the
    /// whole batch is rejected — nothing is inserted).
    pub fn insert_rows(
        &mut self,
        name: &str,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<Vec<Tuple>> {
        let arity = self.relation(name)?.arity();
        let rows: Vec<Tuple> = rows.into_iter().collect();
        for t in &rows {
            if t.arity() != arity {
                return Err(DataError::ArityMismatch {
                    expected: arity,
                    found: t.arity(),
                });
            }
        }
        let rel = self.relations.get_mut(name).expect("checked above");
        let mut inserted = Vec::new();
        for t in rows {
            if rel.insert(t.clone())? {
                inserted.push(t);
            }
        }
        if !inserted.is_empty() {
            self.touch(name);
        }
        Ok(inserted)
    }

    /// Delete rows from relation `name`, returning the rows that were
    /// actually present (and are now gone) in input order, deduplicated.
    /// Rows not in the relation — including rows of the wrong arity — are
    /// silently skipped. Bumps the relation's epoch only when something
    /// changed.
    ///
    /// # Errors
    /// [`DataError::UnknownRelation`] when absent.
    pub fn delete_rows(&mut self, name: &str, rows: &[Tuple]) -> Result<Vec<Tuple>> {
        let rel = if self.relations.contains_key(name) {
            self.relations.get_mut(name).expect("checked above")
        } else {
            return Err(DataError::UnknownRelation(name.to_string()));
        };
        let mut removed = Vec::new();
        let mut gone = std::collections::HashSet::new();
        for t in rows {
            if rel.contains(t) && gone.insert(t.clone()) {
                removed.push(t.clone());
            }
        }
        // A batch of absent rows changes nothing, so it must not unshare rows
        // that a snapshot still reads.
        if !removed.is_empty() {
            rel.retain(|t| !gone.contains(t));
            self.touch(name);
        }
        Ok(removed)
    }

    /// True when `name` is registered.
    pub fn has_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate over (name, relation) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter()
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The database *size* `n`: total number of value occurrences across all
    /// relations (the standard-encoding size the paper's `O(n log n)` bounds
    /// refer to, up to constant factors).
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.len() * r.arity()).sum()
    }

    /// Total tuple count across relations.
    pub fn num_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// The active domain: every constant appearing in some tuple.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for r in self.relations.values() {
            for v in r.values() {
                dom.insert(v.clone());
            }
        }
        dom
    }

    /// Convenience: register a fresh relation from raw rows.
    pub fn add_table(
        &mut self,
        name: impl Into<String>,
        attrs: impl IntoIterator<Item = impl Into<String>>,
        rows: impl IntoIterator<Item = Tuple>,
    ) -> Result<()> {
        self.add_relation(name, Relation::with_tuples(attrs, rows)?)
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, rel) in &self.relations {
            write!(f, "{name}{rel}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn db() -> Database {
        let mut d = Database::new();
        d.add_table("E", ["x", "y"], [tuple![1, 2], tuple![2, 3]])
            .unwrap();
        d.add_table("L", ["v"], [tuple!["a"]]).unwrap();
        d
    }

    #[test]
    fn add_and_lookup() {
        let d = db();
        assert!(d.has_relation("E"));
        assert_eq!(d.relation("E").unwrap().len(), 2);
        assert!(matches!(
            d.relation("Z"),
            Err(DataError::UnknownRelation(_))
        ));
    }

    #[test]
    fn no_op_row_batches_keep_rows_shared() {
        let mut d = db();
        let before = d.relation("E").unwrap().clone();
        assert!(d
            .insert_rows("E", [tuple![1, 2], tuple![2, 3]])
            .unwrap()
            .is_empty());
        assert!(d
            .delete_rows("E", &[tuple![9, 9], tuple![1, 9]])
            .unwrap()
            .is_empty());
        assert!(d.relation("E").unwrap().shares_rows_with(&before));
        assert_eq!(d.delete_rows("E", &[tuple![1, 2]]).unwrap().len(), 1);
        assert!(!d.relation("E").unwrap().shares_rows_with(&before));
        assert_eq!(before.len(), 2);
    }

    #[test]
    fn duplicate_names_rejected_but_set_overwrites() {
        let mut d = db();
        assert!(d.add_table("E", ["x"], []).is_err());
        d.set_relation("E", Relation::new(["x"]).unwrap());
        assert_eq!(d.relation("E").unwrap().arity(), 1);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut d = Database::new();
        assert_eq!(d.epoch(), 0);
        d.add_table("E", ["x", "y"], [tuple![1, 2]]).unwrap();
        assert_eq!(d.epoch(), 1);
        // A failed add does not bump.
        assert!(d.add_table("E", ["x"], []).is_err());
        assert_eq!(d.epoch(), 1);
        d.set_relation("F", Relation::new(["v"]).unwrap());
        assert_eq!(d.epoch(), 2);
        d.relation_mut("E").unwrap().insert(tuple![3, 4]).unwrap();
        assert_eq!(d.epoch(), 3);
        assert!(d.relation_mut("missing").is_err());
        assert_eq!(d.epoch(), 3);
        assert!(d.remove_relation("F").is_some());
        assert_eq!(d.epoch(), 4);
        assert!(d.remove_relation("F").is_none());
        assert_eq!(d.epoch(), 4);
        // Read-only accessors never bump.
        let _ = d.relation("E").unwrap();
        let _ = d.size();
        let _ = d.active_domain();
        assert_eq!(d.epoch(), 4);
    }

    #[test]
    fn per_relation_epochs_sum_to_the_global_epoch() {
        let mut d = db();
        assert_eq!(d.relation_epoch("E"), 1);
        assert_eq!(d.relation_epoch("L"), 1);
        assert_eq!(d.relation_epoch("missing"), 0);
        d.relation_mut("E").unwrap().insert(tuple![9, 9]).unwrap();
        assert_eq!(d.relation_epoch("E"), 2);
        assert_eq!(d.relation_epoch("L"), 1, "untouched relation unchanged");
        // Tombstone: removing keeps the counter, re-adding keeps advancing it.
        d.remove_relation("L");
        assert_eq!(d.relation_epoch("L"), 2);
        d.add_table("L", ["v"], []).unwrap();
        assert_eq!(d.relation_epoch("L"), 3);
        assert_eq!(d.epoch(), d.relation_epochs().values().sum::<u64>());
    }

    #[test]
    fn insert_rows_reports_the_exact_delta() {
        let mut d = db();
        let before = d.relation_epoch("E");
        let added = d
            .insert_rows(
                "E",
                [tuple![1, 2], tuple![7, 8], tuple![7, 8], tuple![8, 9]],
            )
            .unwrap();
        assert_eq!(added, vec![tuple![7, 8], tuple![8, 9]]); // dup + existing dropped
        assert_eq!(d.relation_epoch("E"), before + 1);
        // A no-op batch does not bump.
        assert!(d.insert_rows("E", [tuple![1, 2]]).unwrap().is_empty());
        assert_eq!(d.relation_epoch("E"), before + 1);
        // Arity mismatch rejects the whole batch atomically.
        assert!(d.insert_rows("E", [tuple![5, 5], tuple![5]]).is_err());
        assert!(!d.relation("E").unwrap().contains(&tuple![5, 5]));
        assert!(d.insert_rows("missing", [tuple![1]]).is_err());
    }

    #[test]
    fn delete_rows_reports_the_exact_delta() {
        let mut d = db();
        let before = d.relation_epoch("E");
        let removed = d
            .delete_rows("E", &[tuple![1, 2], tuple![1, 2], tuple![9, 9], tuple![7]])
            .unwrap();
        assert_eq!(removed, vec![tuple![1, 2]]); // dup, absent, bad arity skipped
        assert_eq!(d.relation_epoch("E"), before + 1);
        assert_eq!(d.relation("E").unwrap().len(), 1);
        // A no-op batch does not bump.
        assert!(d.delete_rows("E", &[tuple![9, 9]]).unwrap().is_empty());
        assert_eq!(d.relation_epoch("E"), before + 1);
        assert!(d.delete_rows("missing", &[]).is_err());
    }

    #[test]
    fn epoch_is_excluded_from_equality() {
        let a = db();
        let mut b = db();
        // Touch b without changing its contents: epochs diverge.
        b.relation_mut("E").unwrap();
        assert_ne!(a.epoch(), b.epoch());
        assert_eq!(a, b);
    }

    #[test]
    fn size_and_active_domain() {
        let d = db();
        assert_eq!(d.size(), 2 * 2 + 1);
        assert_eq!(d.num_tuples(), 3);
        let dom = d.active_domain();
        assert_eq!(dom.len(), 4); // 1, 2, 3, "a"
        assert!(dom.contains(&Value::int(3)));
        assert!(dom.contains(&Value::str("a")));
    }
}
