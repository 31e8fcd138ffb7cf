//! Epoch-keyed plan cache.
//!
//! Plans are cached under `(catalog epoch, normalized query text)`. The
//! epoch component is not an optimization knob — it is **semantically
//! required**: the [`provsem_core::Catalog`] carries relation cardinalities
//! that drive join ordering, so a plan built at epoch *e* may be the wrong
//! plan (or reference a since-dropped relation) at epoch *e+1*. Keying by
//! epoch makes every commit an implicit cache invalidation, with no
//! invalidation protocol to get wrong.
//!
//! The normalized-text component (from [`crate::ra_parse::normalize`])
//! makes the cache insensitive to client whitespace and redundant
//! parentheses: syntactically different spellings of the same expression
//! hit the same entry.

use provsem_core::Plan;
use provsem_semiring::fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Hit/miss counters, readable while sessions run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A concurrent plan cache shared by every session of a service.
///
/// Entries from stale epochs are evicted lazily: whenever an insert observes
/// a newer epoch than the cache has seen, all older-epoch entries are
/// dropped (they can never be hit again — sessions always look up at their
/// snapshot's epoch, and snapshots only move forward).
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<Plans>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Plans by epoch, then by normalized text — two levels so a lookup borrows
/// the caller's `&str` instead of building an owned `(epoch, String)` key.
#[derive(Default)]
struct Plans {
    by_epoch: FxHashMap<u64, FxHashMap<String, Arc<Plan>>>,
    /// The newest epoch any insert has seen: what makes "is this insert the
    /// first of a newer epoch?" a comparison instead of a scan of the keys.
    newest: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks up the plan for `normalized` at `epoch`, building and caching
    /// it with `build` on a miss. Returns the plan and whether it was a hit.
    /// `build` runs outside the cache lock; on races the first insert wins.
    pub fn get_or_plan<E>(
        &self,
        epoch: u64,
        normalized: &str,
        build: impl FnOnce() -> Result<Plan, E>,
    ) -> Result<(Arc<Plan>, bool), E> {
        let cached = self
            .lock()
            .by_epoch
            .get(&epoch)
            .and_then(|plans| plans.get(normalized))
            .cloned();
        if let Some(plan) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((plan, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(build()?);
        let mut plans = self.lock();
        if epoch > plans.newest {
            plans.by_epoch.retain(|e, _| *e >= epoch);
            plans.newest = epoch;
        }
        let entry = plans
            .by_epoch
            .entry(epoch)
            .or_default()
            .entry(normalized.to_string())
            .or_insert(plan);
        Ok((Arc::clone(entry), false))
    }

    /// Current counters and residency.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().by_epoch.values().map(FxHashMap::len).sum(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Plans> {
        self.plans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_core::{Catalog, RaExpr};

    fn plan_r(catalog: &Catalog) -> Plan {
        Plan::new(&RaExpr::Relation("R".to_string()), catalog).unwrap()
    }

    fn catalog_r() -> Catalog {
        Catalog::new().with("R", provsem_core::Schema::new(["a", "b"]), 4)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new();
        let catalog = catalog_r();
        let (first, hit) = cache
            .get_or_plan::<()>(0, "R", || Ok(plan_r(&catalog)))
            .unwrap();
        assert!(!hit);
        let (second, hit) = cache
            .get_or_plan::<()>(0, "R", || panic!("must not replan"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
    }

    #[test]
    fn epoch_bump_misses_and_evicts_stale_entries() {
        let cache = PlanCache::new();
        let catalog = catalog_r();
        cache
            .get_or_plan::<()>(0, "R", || Ok(plan_r(&catalog)))
            .unwrap();
        let (_, hit) = cache
            .get_or_plan::<()>(1, "R", || Ok(plan_r(&catalog)))
            .unwrap();
        assert!(!hit, "a commit must invalidate cached plans");
        assert_eq!(cache.stats().entries, 1, "epoch-0 entry evicted");
    }

    #[test]
    fn an_epoch_bump_evicts_every_stale_plan_once() {
        let cache = PlanCache::new();
        let catalog = catalog_r();
        let queries: Vec<String> = (0..128).map(|i| format!("q{i}")).collect();
        for q in &queries {
            cache
                .get_or_plan::<()>(7, q, || Ok(plan_r(&catalog)))
                .unwrap();
        }
        for q in &queries {
            let (_, hit) = cache
                .get_or_plan::<()>(7, q, || panic!("must not replan"))
                .unwrap();
            assert!(hit);
        }
        let warm = CacheStats {
            hits: 128,
            misses: 128,
            entries: 128,
        };
        assert_eq!(cache.stats(), warm);
        // The first miss at epoch 8 drops all 128 epoch-7 plans; the other
        // 127 find nothing left to evict and just insert.
        for (i, q) in queries.iter().enumerate() {
            let (_, hit) = cache
                .get_or_plan::<()>(8, q, || Ok(plan_r(&catalog)))
                .unwrap();
            assert!(!hit, "a commit must invalidate cached plans");
            assert_eq!(
                cache.stats(),
                CacheStats {
                    hits: 128,
                    misses: 128 + i as u64 + 1,
                    entries: i + 1,
                }
            );
        }
        // A reader still pinned at epoch 7 caches beside epoch 8 and does
        // not evict it.
        let (_, hit) = cache
            .get_or_plan::<()>(7, "q0", || Ok(plan_r(&catalog)))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.stats().entries, 129);
        let (_, hit) = cache
            .get_or_plan::<()>(8, "q0", || panic!("must not replan"))
            .unwrap();
        assert!(hit);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PlanCache::new();
        let catalog = catalog_r();
        assert_eq!(
            cache.get_or_plan(0, "R", || Err("nope")).unwrap_err(),
            "nope"
        );
        let (_, hit) = cache
            .get_or_plan::<()>(0, "R", || Ok(plan_r(&catalog)))
            .unwrap();
        assert!(!hit);
    }
}
