//! The catalog: named databases behind a `RwLock`, with snapshot semantics.
//!
//! Databases are stored as `Arc<Database>`. A query takes a **snapshot** —
//! an `Arc` clone plus the identity pair `(generation, epoch)` — and then
//! evaluates entirely outside the catalog lock, so a long-running query
//! never blocks loads or mutations. Mutations go through
//! [`Catalog::update`], which clones-on-write (`Arc::make_mut`) only when a
//! snapshot is still alive.
//!
//! Cache identity is the pair of counters:
//!
//! * the **generation** is catalog-global and monotone, assigned anew on
//!   every load *and* every in-place update — it distinguishes two different
//!   databases loaded under the same name (whose own epochs could
//!   coincide);
//! * the **epoch** is the database's own mutation counter
//!   ([`pq_data::Database::epoch`]) — it distinguishes in-place states.
//!
//! A cached result stamped with the `(generation, epoch)` of the named
//! database it was computed against can therefore never be served for
//! different data.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use pq_data::Database;

use crate::durable::{Durability, SnapshotSummary};
use crate::error::{Result, ServiceError};
use crate::wal::WalOp;

/// An immutable snapshot of one catalog entry (see the module docs).
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The database name the snapshot was taken under.
    pub name: String,
    /// Shared, immutable view of the data.
    pub db: Arc<Database>,
    /// Catalog-global load/update counter at snapshot time.
    pub generation: u64,
    /// The database's own mutation epoch at snapshot time.
    pub epoch: u64,
}

struct Entry {
    db: Arc<Database>,
    generation: u64,
}

/// A thread-safe catalog of named databases (see the module docs).
///
/// When a journal is attached ([`Catalog::attach_journal`]), every mutation
/// appends a WAL record **while still holding the write lock that assigned
/// its generation** — so the log order provably matches the catalog order;
/// there is no window for two mutations to commit one way and log the
/// other. When the journal's snapshot cadence comes due, the snapshot is
/// also taken under that same lock (the catalog is quiescent by
/// construction).
#[derive(Default)]
pub struct Catalog {
    entries: RwLock<BTreeMap<String, Entry>>,
    generations: AtomicU64,
    journal: OnceLock<Arc<Durability>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Attach the durability journal. Call once, *after* recovered
    /// databases have been installed (recovery inserts must not re-log
    /// themselves) and before the catalog serves mutations.
    pub fn attach_journal(&self, journal: Arc<Durability>) {
        self.journal
            .set(journal)
            .expect("journal attached more than once");
    }

    /// Append `op` to the journal (when attached) and snapshot if the
    /// cadence is due. Called with the entries map borrowed — i.e. under
    /// the write lock — which is what pins log order to catalog order.
    fn journal_append(&self, entries: &BTreeMap<String, Entry>, op: &WalOp<'_>) -> Result<()> {
        let Some(journal) = self.journal.get() else {
            return Ok(());
        };
        let due = journal.append(op).map_err(ServiceError::Durability)?;
        if due {
            Self::snapshot_entries(journal, entries)?;
        }
        Ok(())
    }

    fn snapshot_entries(
        journal: &Durability,
        entries: &BTreeMap<String, Entry>,
    ) -> Result<SnapshotSummary> {
        let state: Vec<(&str, &Database)> =
            entries.iter().map(|(n, e)| (n.as_str(), &*e.db)).collect();
        journal.snapshot(&state).map_err(ServiceError::Durability)
    }

    fn next_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Insert or replace the database under `name`. Returns the new
    /// generation.
    ///
    /// # Errors
    /// [`ServiceError::Durability`] when the journal append fails (the
    /// in-memory insert has still happened).
    pub fn insert(&self, name: impl Into<String>, db: Database) -> Result<u64> {
        let name = name.into();
        let mut entries = self.entries.write().expect("catalog poisoned");
        // Allocate the generation under the write lock (as `update` does):
        // racing inserts would otherwise be able to install them out of
        // order, breaking per-name generation monotonicity.
        let generation = self.next_generation();
        let db = Arc::new(db);
        entries.insert(
            name.clone(),
            Entry {
                db: Arc::clone(&db),
                generation,
            },
        );
        self.journal_append(
            &entries,
            &WalOp::Install {
                name: &name,
                db: &db,
            },
        )?;
        Ok(generation)
    }

    /// Remove the database under `name`; true when it existed. Journals a
    /// tombstone so recovery does not resurrect the database.
    ///
    /// # Errors
    /// [`ServiceError::Durability`] when the journal append fails (the
    /// in-memory removal has still happened).
    pub fn remove(&self, name: &str) -> Result<bool> {
        let mut entries = self.entries.write().expect("catalog poisoned");
        let existed = entries.remove(name).is_some();
        if existed {
            self.journal_append(&entries, &WalOp::Remove { name })?;
        }
        Ok(existed)
    }

    /// Snapshot the whole catalog to stable storage now and rotate the WAL
    /// (the wire `PERSIST` verb, also called on graceful drain).
    ///
    /// # Errors
    /// [`ServiceError::Durability`] when no journal is attached or the
    /// snapshot I/O fails.
    pub fn persist(&self) -> Result<SnapshotSummary> {
        let Some(journal) = self.journal.get() else {
            return Err(ServiceError::Durability(
                "no durability layer configured (start the service with a \
                 DurabilityConfig to enable PERSIST)"
                    .into(),
            ));
        };
        // The read lock excludes writers: no record can land between the
        // state capture and the WAL rotation inside `snapshot`.
        let entries = self.entries.read().expect("catalog poisoned");
        Self::snapshot_entries(journal, &entries)
    }

    /// Take a snapshot of `name` for lock-free evaluation.
    ///
    /// # Errors
    /// [`ServiceError::UnknownDatabase`] when absent.
    pub fn snapshot(&self, name: &str) -> Result<DbSnapshot> {
        let entries = self.entries.read().expect("catalog poisoned");
        let entry = entries
            .get(name)
            .ok_or_else(|| ServiceError::UnknownDatabase(name.to_string()))?;
        Ok(DbSnapshot {
            name: name.to_string(),
            db: Arc::clone(&entry.db),
            generation: entry.generation,
            epoch: entry.db.epoch(),
        })
    }

    /// Mutate the database under `name` in place, under the write lock.
    /// Copies-on-write when snapshots are still alive, so readers keep their
    /// consistent view.
    ///
    /// The **generation is kept** when the per-relation epoch vector moved
    /// monotonically — every counter component-wise ≥ its pre-update value
    /// and the global epoch strictly greater. Within one generation the
    /// epoch vector then never repeats (each update strictly grows its sum),
    /// so cache keys that fingerprint the mentioned relations' epochs stay
    /// sound *and* entries for untouched relations stay valid across the
    /// mutation. A closure that did not advance the epochs — a wholesale
    /// `*db = other` replacement (counters reset) or a content no-op — gets
    /// a fresh generation instead, which is always sound and only costs
    /// cache misses.
    ///
    /// # Errors
    /// [`ServiceError::UnknownDatabase`] when absent;
    /// [`ServiceError::Durability`] when the journal append fails (the
    /// in-memory mutation has still happened).
    pub fn update<R>(&self, name: &str, f: impl FnOnce(&mut Database) -> R) -> Result<R> {
        self.apply(name, false, f)
    }

    /// [`Catalog::update`], or with `rows_only` its row-level form, for
    /// closures that only call [`Database::insert_rows`] /
    /// [`Database::delete_rows`]. Those advance the epoch exactly when they
    /// change a row, so an unchanged epoch means the database is
    /// byte-identical (a batch of duplicates or absent rows, or a rejected
    /// one): nothing is journaled and the generation stays, where `update`
    /// has to assume a wholesale replacement.
    pub(crate) fn apply<R>(
        &self,
        name: &str,
        rows_only: bool,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Result<R> {
        let mut entries = self.entries.write().expect("catalog poisoned");
        let (out, db) = {
            let entry = entries
                .get_mut(name)
                .ok_or_else(|| ServiceError::UnknownDatabase(name.to_string()))?;
            let before = entry.db.relation_epochs().clone();
            let before_epoch = entry.db.epoch();
            let out = f(Arc::make_mut(&mut entry.db));
            if rows_only && entry.db.epoch() == before_epoch {
                return Ok(out);
            }
            let monotone = entry.db.epoch() > before_epoch
                && before
                    .iter()
                    .all(|(rel, &e)| entry.db.relation_epoch(rel) >= e);
            if !monotone {
                entry.generation = self.next_generation();
            }
            (out, Arc::clone(&entry.db))
        };
        // The record carries the post-state, not the closure: replay never
        // needs user code, and re-applying a record is idempotent.
        self.journal_append(&entries, &WalOp::Update { name, db: &db })?;
        Ok(out)
    }

    /// Names currently in the catalog, sorted.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.read().expect("catalog poisoned");
        entries.keys().cloned().collect()
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog poisoned").len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;

    fn small_db(n: i64) -> Database {
        let mut db = Database::new();
        db.add_table("R", ["a"], (0..n).map(|i| tuple![i])).unwrap();
        db
    }

    #[test]
    fn snapshots_are_stable_across_updates() {
        let cat = Catalog::new();
        cat.insert("d", small_db(3)).unwrap();
        let before = cat.snapshot("d").unwrap();
        cat.update("d", |db| {
            db.relation_mut("R").unwrap().insert(tuple![99]).unwrap();
        })
        .unwrap();
        let after = cat.snapshot("d").unwrap();
        // The old snapshot still sees the old data (copy-on-write).
        assert_eq!(before.db.relation("R").unwrap().len(), 3);
        assert_eq!(after.db.relation("R").unwrap().len(), 4);
        // An in-place mutation advances the epochs monotonically, so the
        // generation is kept — per-relation epoch fingerprints alone
        // distinguish the states.
        assert_eq!(after.generation, before.generation);
        assert!(after.epoch > before.epoch);
    }

    #[test]
    fn non_monotone_updates_get_a_fresh_generation() {
        let cat = Catalog::new();
        cat.insert("d", small_db(3)).unwrap();
        let before = cat.snapshot("d").unwrap();
        // A wholesale replacement resets the epoch counters: the fresh
        // database's vector coincides with the old one, so only a new
        // generation can keep cache keys from colliding.
        cat.update("d", |db| *db = small_db(1)).unwrap();
        let replaced = cat.snapshot("d").unwrap();
        assert_eq!(replaced.epoch, before.epoch, "vectors coincide");
        assert!(replaced.generation > before.generation);
        // A content no-op (epoch unchanged) also bumps — conservative but
        // sound.
        cat.update("d", |_| ()).unwrap();
        let noop = cat.snapshot("d").unwrap();
        assert!(noop.generation > replaced.generation);
    }

    #[test]
    fn reload_under_the_same_name_changes_the_generation() {
        let cat = Catalog::new();
        cat.insert("d", small_db(3)).unwrap();
        let a = cat.snapshot("d").unwrap();
        // A different database whose own epoch happens to match.
        cat.insert("d", small_db(5)).unwrap();
        let b = cat.snapshot("d").unwrap();
        assert_eq!(a.epoch, b.epoch, "epochs alone cannot distinguish these");
        assert_ne!(a.generation, b.generation, "generations must");
    }

    #[test]
    fn racing_inserts_keep_per_name_generations_monotone() {
        // The installed entry must carry the *latest* generation handed out
        // for its name — i.e. generation order matches installation order.
        let cat = Arc::new(Catalog::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cat = Arc::clone(&cat);
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| cat.insert("d", small_db(1)).unwrap())
                        .max()
                        .unwrap()
                })
            })
            .collect();
        let max_issued = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .max()
            .unwrap();
        assert_eq!(cat.snapshot("d").unwrap().generation, max_issued);
    }

    #[test]
    fn unknown_names_error() {
        let cat = Catalog::new();
        assert!(matches!(
            cat.snapshot("nope"),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            cat.update("nope", |_| ()),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(!cat.remove("nope").unwrap());
    }

    #[test]
    fn names_and_len() {
        let cat = Catalog::new();
        assert!(cat.is_empty());
        cat.insert("b", small_db(1)).unwrap();
        cat.insert("a", small_db(1)).unwrap();
        assert_eq!(cat.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(cat.len(), 2);
        assert!(cat.remove("a").unwrap());
        assert_eq!(cat.len(), 1);
    }
}
