//! Snapshot databases: epoch-stamped, immutable views of a shared,
//! concurrently committed [`Database`].
//!
//! This is the concurrency substrate of the query service. A
//! [`SharedDatabase`] holds the authoritative instance; readers take an
//! O(1) [`DbSnapshot`] (three `Arc` bumps — no tuple data is copied) and
//! keep it for as long as they like, while writers commit [`DeltaBatch`]es
//! through a serialized commit path. The guarantees, pinned by
//! `core/tests/snapshot_isolation.rs` and the concurrency differential
//! suite:
//!
//! * **Snapshot isolation.** A commit builds the next database from the
//!   current one and publishes it atomically. A reader's snapshot therefore
//!   observes either all of a batch or none of it — never a torn batch —
//!   and stays valid, immutable, and queryable forever after.
//! * **Commits cost O(|Δ|·log n), not O(n).** Versions share structure at
//!   three levels: the relation *map* is cloned (one `Arc` bump per
//!   relation), an untouched relation is the same `Arc<KRelation>` in both
//!   versions, and a touched relation shares every B+-tree node its delta
//!   does not reach (see [`crate::relation`]) — the commit copies one
//!   root-to-leaf path of nodes per changed tuple, a few hundred tuples
//!   however large the relation, and dropping a superseded version frees
//!   only that path. The same holds for every maintained view result.
//!   What one commit copied can be counted:
//!   [`KRelation::entries_not_shared_with`].
//! * **Contiguous epochs.** Every commit bumps the **catalog epoch** by
//!   exactly one (registering a standing view bumps it too: the queryable
//!   catalog changed). Epoch `e` names one specific database state, which
//!   makes the epoch the cache key of the server's plan cache.
//! * **Maintained views advance with commits.** A standing view registered
//!   with [`SharedDatabase::register_view`] is materialized once and then
//!   absorbed incrementally ([`Plan::maintain`]) inside every commit,
//!   before the new snapshot is published — so a snapshot's view results
//!   are always exactly `recompute(snapshot)`. Views whose base relations a
//!   batch does not touch are skipped, their published results shared by
//!   `Arc` across epochs.
//! * **A failed commit is invisible.** If applying a batch or maintaining
//!   a view panics (ℕ and ℤ annotations panic on overflow), nothing was
//!   published, the epoch is unchanged, and every standing view is put back
//!   to the published state before the panic continues — later commits
//!   build on exactly what readers see.
//!
//! Writers never block readers (the [`RwLock`] write section swaps one
//! snapshot value); concurrent committers serialize on the writer mutex, so
//! epochs form a single total commit order — the order the differential
//! harness replays serially.

use crate::column::{BatchCache, BatchCacheStats};
use crate::database::Database;
use crate::expr::{EvalError, RaExpr};
use crate::plan::{Catalog, DeltaBatch, ExecContext, MaterializedView, Plan, RelationSource};
use crate::relation::KRelation;
use provsem_semiring::Semiring;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// An immutable, epoch-stamped view of a [`SharedDatabase`]: the database
/// state plus every standing view's result as of one commit. Cloning is
/// O(1) (a few `Arc` bumps); the snapshot stays queryable regardless of how
/// many commits happen after it was taken, and what it keeps alive beyond
/// the current version is only the tree nodes later commits replaced.
///
/// Snapshots also carry their `SharedDatabase`'s [`BatchCache`], which
/// counts the batch executor's scans. The columnar form itself lives on the
/// relation version, so the first execution against any version
/// columnarizes it for every later execution — across sessions, threads,
/// and (via commit patching) epochs.
#[derive(Clone)]
pub struct DbSnapshot<K: Semiring> {
    epoch: u64,
    db: Arc<Database<K>>,
    views: Arc<BTreeMap<String, Arc<KRelation<K>>>>,
    batch_cache: Arc<BatchCache<K>>,
}

impl<K: Semiring> DbSnapshot<K> {
    /// The catalog epoch this snapshot was taken at. Epoch `e` names one
    /// specific database state; two snapshots with equal epochs are
    /// indistinguishable.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The database state at this snapshot's epoch.
    pub fn database(&self) -> &Database<K> {
        &self.db
    }

    /// The result of a standing view, maintained up to exactly this
    /// snapshot's epoch.
    pub fn view(&self, name: &str) -> Option<&KRelation<K>> {
        self.views.get(name).map(Arc::as_ref)
    }

    /// Like [`DbSnapshot::view`] but shares the result's `Arc` — the handle
    /// [`BatchCache::get_or_convert`] takes to read the view's columnar
    /// form.
    pub fn view_shared(&self, name: &str) -> Option<Arc<KRelation<K>>> {
        self.views.get(name).cloned()
    }

    /// The standing views visible in this snapshot, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &String> {
        self.views.keys()
    }

    /// A point-in-time read of the owning [`SharedDatabase`]'s columnar
    /// batch-cache counters (the cache is shared across snapshots, so this
    /// reflects every reader and commit, not just this snapshot).
    pub fn batch_cache_stats(&self) -> BatchCacheStats {
        self.batch_cache.stats()
    }
}

impl<K: Semiring> RelationSource<K> for DbSnapshot<K> {
    fn catalog(&self) -> Catalog {
        self.db.catalog()
    }

    fn relation(&self, name: &str) -> Option<&KRelation<K>> {
        self.db.get(name)
    }

    fn batch_cache(&self) -> Option<(&BatchCache<K>, u64)> {
        Some((self.batch_cache.as_ref(), self.epoch))
    }
}

/// A standing view riding the commit path: the plan that defines it, the
/// incrementally maintained state, and the set of base relations whose
/// deltas can change it.
struct StandingView<K: Semiring> {
    plan: Plan,
    view: MaterializedView<K>,
    base_relations: BTreeSet<String>,
}

/// Commit-side state, serialized behind the writer mutex.
struct WriterState<K: Semiring> {
    views: BTreeMap<String, StandingView<K>>,
}

/// The authoritative, concurrently shared database: readers take immutable
/// [`DbSnapshot`]s, writers commit [`DeltaBatch`]es. See the [module
/// docs](self) for the isolation and epoch guarantees.
pub struct SharedDatabase<K: Semiring> {
    current: RwLock<DbSnapshot<K>>,
    writer: Mutex<WriterState<K>>,
}

fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Semiring> SharedDatabase<K> {
    /// Wraps an initial database state as epoch 0.
    pub fn new(db: Database<K>) -> Self {
        SharedDatabase {
            current: RwLock::new(DbSnapshot {
                epoch: 0,
                db: Arc::new(db),
                views: Arc::new(BTreeMap::new()),
                batch_cache: Arc::new(BatchCache::new()),
            }),
            writer: Mutex::new(WriterState {
                views: BTreeMap::new(),
            }),
        }
    }

    /// The current snapshot — three `Arc` bumps, never blocked by a writer
    /// for longer than it takes to swap the published snapshot value.
    pub fn snapshot(&self) -> DbSnapshot<K> {
        read_lock(&self.current).clone()
    }

    /// The current catalog epoch (the epoch of [`SharedDatabase::snapshot`]).
    pub fn epoch(&self) -> u64 {
        read_lock(&self.current).epoch
    }

    fn writer_lock(&self) -> MutexGuard<'_, WriterState<K>> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `snapshot` as the new current state. Called with the writer
    /// lock held; the write section swaps one snapshot value (and drops the
    /// superseded one's handles).
    fn publish(&self, snapshot: DbSnapshot<K>) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = snapshot;
    }

    /// Commits a batch of base-relation changes under the default
    /// [`ExecContext`], returning the new epoch. See
    /// [`SharedDatabase::commit_with`].
    pub fn commit(&self, batch: &DeltaBatch<K>) -> u64 {
        self.commit_with(batch, &ExecContext::default())
    }

    /// Commits a batch, returning the (contiguous) new epoch. Every step of
    /// a commit runs on the caller's thread, so the context changes
    /// nothing; [`SharedDatabase::commit`] is the same call.
    ///
    /// The commit path: clone the current database's relation map (one
    /// `Arc` bump per relation), apply the batch (`new = old + Δ` per
    /// tuple — a touched relation gets a new `Arc<KRelation>` whose tree
    /// shares every node the delta does not reach with the old version, so
    /// this copies O(|Δ|·log n) tuples), maintain every standing view whose
    /// base relations the batch touches (its published result is shared
    /// with the view's working copy the same way), then publish the new
    /// snapshot atomically. Readers holding older snapshots are unaffected;
    /// a reader taking a snapshot concurrently gets either the old epoch or
    /// the new one, never a mix. Concurrent committers serialize: epochs are
    /// a total order, each exactly one above its predecessor.
    ///
    /// A touched relation (or view result) whose old version holds a
    /// columnar form seeds the new version's form by *patching*
    /// ([`BatchCache::patch`]): the old form plus the delta's own batches,
    /// coalesced, so the next batch-engine scan at the new epoch does not
    /// convert. The old version keeps its form for the snapshots that
    /// still hold it.
    ///
    /// # Panics
    /// Propagates a panic from applying the batch or maintaining a view
    /// (an annotation sum overflowing, a tuple over the wrong schema). The
    /// commit then did not happen: epoch, snapshots and standing views are
    /// as they were, and the next commit is unaffected.
    pub fn commit_with(&self, batch: &DeltaBatch<K>, _ctx: &ExecContext) -> u64 {
        let mut writer = self.writer_lock();
        let previous = self.snapshot();
        let mut db = (*previous.db).clone();
        batch.apply_to(&mut db);
        let db = Arc::new(db);
        let changed: BTreeSet<&String> = batch.iter().map(|(name, _)| name).collect();
        let touched = |standing: &StandingView<K>| {
            standing
                .base_relations
                .iter()
                .any(|base| changed.contains(base))
        };
        let mut views = (*previous.views).clone();
        // Maintenance advances each standing view's state in place, and both
        // it and cache patching sum annotations, which a semiring may refuse
        // (ℕ and ℤ panic on overflow). A panic part-way must not leave the
        // views it had reached ahead of the database they are views of —
        // the poisoned writer lock is recovered, and the next commit would
        // publish them. So the unwind is caught, the touched views are
        // recomputed from the snapshot that is still published, and the
        // panic continues; nothing was published, so the commit is simply
        // absent. The success path pays nothing for this.
        let maintained = catch_unwind(AssertUnwindSafe(|| {
            for (name, standing) in writer.views.iter_mut().filter(|(_, s)| touched(s)) {
                // The maintenance pass reports the view-output delta, so the
                // columnar form of the view's result is patched forward by
                // exactly that delta — the view is never re-converted
                // wholesale on the commit path.
                let output_delta = standing.plan.maintain_returning(&mut standing.view, batch);
                // A root-pointer copy: the published result shares every
                // node with the view's working copy until the next commit
                // path-copies the few it writes to.
                let new_result = Arc::new(standing.view.result().clone());
                if let Some(old_result) = views.get(name) {
                    previous
                        .batch_cache
                        .patch(old_result, &new_result, &output_delta);
                }
                views.insert(name.clone(), new_result);
            }
            // Untouched views keep sharing their previous Arc'd result.
            for (name, delta) in batch.iter() {
                if let (Some(old), Some(new)) = (previous.db.get_shared(name), db.get_shared(name))
                {
                    if !Arc::ptr_eq(&old, &new) {
                        previous.batch_cache.patch(&old, &new, delta);
                    }
                }
            }
        }));
        if let Err(panic) = maintained {
            for standing in writer.views.values_mut().filter(|s| touched(s)) {
                standing.view = standing.plan.materialize(&previous);
            }
            resume_unwind(panic);
        }
        let next = DbSnapshot {
            epoch: previous.epoch + 1,
            db,
            views: Arc::new(views),
            batch_cache: Arc::clone(&previous.batch_cache),
        };
        self.publish(next.clone());
        drop(writer);
        next.epoch
    }

    /// Registers a standing view: plans `expr` against the current catalog,
    /// materializes it, and publishes a new snapshot (epoch bumped — the
    /// queryable catalog changed) in which the view's result is visible.
    /// From then on every commit maintains the view incrementally.
    ///
    /// Replacing an existing view name is allowed and re-materializes it.
    pub fn register_view(&self, name: impl Into<String>, expr: &RaExpr) -> Result<u64, EvalError> {
        let name = name.into();
        let mut writer = self.writer_lock();
        let previous = self.snapshot();
        let plan = Plan::new(expr, &previous.db.catalog())?;
        let view = plan.materialize(&previous);
        let result = Arc::new(view.result().clone());
        // Convert the view's result now, so the first columnar read of the
        // view is already a hit and commits can patch its form forward with
        // the view's own maintenance delta.
        previous
            .batch_cache
            .get_or_convert(previous.epoch + 1, &result);
        let mut views = (*previous.views).clone();
        views.insert(name.clone(), result);
        writer.views.insert(
            name,
            StandingView {
                plan,
                view,
                base_relations: expr.base_relations().into_iter().collect(),
            },
        );
        let next = DbSnapshot {
            epoch: previous.epoch + 1,
            db: Arc::clone(&previous.db),
            views: Arc::new(views),
            batch_cache: Arc::clone(&previous.batch_cache),
        };
        let epoch = next.epoch;
        self.publish(next);
        drop(writer);
        Ok(epoch)
    }

    /// Drops a standing view (a no-op if it does not exist), publishing a
    /// new snapshot without it. Returns the new epoch.
    pub fn drop_view(&self, name: &str) -> u64 {
        let mut writer = self.writer_lock();
        let previous = self.snapshot();
        writer.views.remove(name);
        let mut views = (*previous.views).clone();
        views.remove(name);
        let next = DbSnapshot {
            epoch: previous.epoch + 1,
            db: Arc::clone(&previous.db),
            views: Arc::new(views),
            batch_cache: Arc::clone(&previous.batch_cache),
        };
        let epoch = next.epoch;
        self.publish(next);
        drop(writer);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::paper_example_query;
    use crate::paper;
    use crate::tuple::Tuple;
    use provsem_semiring::ring::Integers;
    use provsem_semiring::Natural;

    fn z_db() -> Database<Integers> {
        let mut db =
            paper::figure3_bag().map_annotations(|n: &Natural| Integers::new(n.value() as i64));
        db.insert_tuple("S", Tuple::new([("x", "1"), ("y", "2")]), Integers::new(2));
        db
    }

    fn insert_batch() -> DeltaBatch<Integers> {
        let mut batch = DeltaBatch::new();
        batch.insert(
            "R",
            Tuple::new([("a", "new"), ("b", "b"), ("c", "new")]),
            Integers::new(3),
        );
        batch
    }

    #[test]
    fn snapshots_are_isolated_from_later_commits() {
        let shared = SharedDatabase::new(z_db());
        let before = shared.snapshot();
        assert_eq!(before.epoch(), 0);
        let epoch = shared.commit(&insert_batch());
        assert_eq!(epoch, 1);
        let after = shared.snapshot();
        // The old snapshot still sees the old state; the new one the new.
        assert_eq!(
            before.database().total_tuples() + 1,
            after.database().total_tuples()
        );
        // Untouched relations share storage across the epochs.
        assert!(Arc::ptr_eq(
            &before.database().get_shared("S").unwrap(),
            &after.database().get_shared("S").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &before.database().get_shared("R").unwrap(),
            &after.database().get_shared("R").unwrap()
        ));
    }

    #[test]
    fn standing_views_advance_with_commits() {
        let shared = SharedDatabase::new(z_db());
        let query = paper_example_query("R");
        shared.register_view("Q", &query).unwrap();
        let plan = Plan::new(&query, &shared.snapshot().catalog()).unwrap();
        // At registration the view equals recompute.
        let snap = shared.snapshot();
        assert_eq!(snap.view("Q").unwrap(), &plan.execute(&snap));
        // After a commit it advances to the new state...
        shared.commit(&insert_batch());
        let snap2 = shared.snapshot();
        assert_eq!(snap2.view("Q").unwrap(), &plan.execute(&snap2));
        assert_ne!(snap2.view("Q").unwrap(), snap.view("Q").unwrap());
        // ...while the old snapshot keeps the old result.
        assert_eq!(snap.view("Q").unwrap(), &plan.execute(&snap));
    }

    #[test]
    fn commits_skip_views_over_untouched_relations() {
        let shared = SharedDatabase::new(z_db());
        shared.register_view("SV", &RaExpr::relation("S")).unwrap();
        let before = shared.snapshot();
        shared.commit(&insert_batch()); // touches only R
        let after = shared.snapshot();
        let b = Arc::clone(before.views.get("SV").unwrap());
        let a = Arc::clone(after.views.get("SV").unwrap());
        assert!(Arc::ptr_eq(&b, &a), "untouched view result is shared");
    }

    #[test]
    fn epochs_are_contiguous_and_catalog_changes_bump_them() {
        let shared = SharedDatabase::new(z_db());
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.commit(&insert_batch()), 1);
        assert_eq!(
            shared.register_view("Q", &RaExpr::relation("R")).unwrap(),
            2
        );
        assert_eq!(shared.commit(&insert_batch()), 3);
        assert_eq!(shared.drop_view("Q"), 4);
        assert_eq!(shared.epoch(), 4);
        assert!(shared.snapshot().view("Q").is_none());
    }

    #[test]
    fn commits_patch_cached_batch_conversions() {
        use crate::column::BatchProvenance;
        let shared = SharedDatabase::new(z_db());
        let before = shared.snapshot();
        let r = before.database().get_shared("R").unwrap();
        // The first scan converts R's version (a miss)...
        before.batch_cache.get_or_convert(before.epoch(), &r);
        assert_eq!(before.batch_cache_stats().misses, 1);
        // ...and a commit seeds the new version's form by appending the
        // delta's batches to it instead of converting.
        shared.commit(&insert_batch());
        let after = shared.snapshot();
        let r2 = after.database().get_shared("R").unwrap();
        let (batches, provenance) = after.batch_cache.peek(&r2).unwrap();
        assert_eq!(provenance, BatchProvenance::Patched(1));
        let rows: usize = batches.iter().map(|b| b.live_rows()).sum();
        assert_eq!(rows, r.len() + 1, "base rows plus the appended delta row");
        // Two live forms: the old version's, which `before` still holds,
        // and the new one's.
        let stats = after.batch_cache_stats();
        assert_eq!((stats.patches, stats.entries), (1, 2));
        let (_, provenance) = before.batch_cache.peek(&r).unwrap();
        assert_eq!(provenance, BatchProvenance::Cached);
        // Once no snapshot holds the old version, its form goes with it.
        drop((before, r));
        assert_eq!(after.batch_cache_stats().entries, 1);
    }

    #[test]
    fn standing_view_results_ride_the_batch_cache() {
        use crate::column::BatchProvenance;
        let shared = SharedDatabase::new(z_db());
        let query = paper_example_query("R");
        shared.register_view("Q", &query).unwrap();
        let snap = shared.snapshot();
        let q = snap.view_shared("Q").unwrap();
        // Registration converted the view's result: the form exists before
        // any read.
        let (_, provenance) = snap.batch_cache.peek(&q).unwrap();
        assert_eq!(provenance, BatchProvenance::Cached);
        // A commit touching R patches the form forward with the view's own
        // maintenance output delta — no re-conversion.
        let patches_before = snap.batch_cache_stats().patches;
        shared.commit(&insert_batch());
        let snap2 = shared.snapshot();
        let q2 = snap2.view_shared("Q").unwrap();
        let (batches, provenance) = snap2.batch_cache.peek(&q2).unwrap();
        assert_eq!(provenance, BatchProvenance::Patched(1));
        assert!(snap2.batch_cache_stats().patches > patches_before);
        // Folding the patched batches reproduces the view result exactly.
        let mut folded = KRelation::empty(q2.schema().clone());
        for batch in batches.iter().cloned() {
            for (row, k) in batch.into_rows() {
                folded.insert(crate::tuple::Tuple::from_schema_row(q2.schema(), row), k);
            }
        }
        assert_eq!(&folded, q2.as_ref());
        // The old version keeps its own form for the snapshot holding it.
        let (_, provenance) = snap.batch_cache.peek(&q).unwrap();
        assert_eq!(provenance, BatchProvenance::Cached);
    }

    #[test]
    fn unknown_view_expressions_are_rejected() {
        let shared = SharedDatabase::new(z_db());
        let err = shared
            .register_view("bad", &RaExpr::relation("NoSuch"))
            .unwrap_err();
        assert!(matches!(err, EvalError::UnknownRelation(_)));
    }
}
