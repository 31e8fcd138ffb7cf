//! Differential test: the snapshot-resident batch cache is invisible to
//! results.
//!
//! Random interleavings of commits, executions, and view maintenance run
//! against a [`SharedDatabase`], whose snapshots carry the
//! [`BatchCache`]: the first execution columnarizes each scanned relation
//! version (the form lives on the version), later executions read that
//! form, and commits *patch* it into the next version by appending the
//! delta's batches. The contract, pinned exactly (support *and*
//! annotations) at every step:
//!
//! ```text
//! executor(cached/patched, 1 thread) == executor(cached/patched, 2 and 4 threads)
//!   == executor(fresh conversion)    == interpreter
//! ```
//!
//! Old snapshots are held across commits and re-executed — each relation
//! version keeps its own form, so a patched form must never leak newer data
//! into an older epoch's results. A standing view and a
//! hand-maintained [`MaterializedView`] ride along, checked against
//! recomputation after every commit. Run under `PROVSEM_THREADS=1|4` in CI
//! so the default-context paths cross the cache too.

use proptest::prelude::*;
use provsem_core::plan::{DeltaBatch, ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::ring::Integers;

const CASES: u32 = 40;

const VALUES: [&str; 6] = ["v0", "v1", "v2", "v3", "v4", "v5"];

/// Raw draw for one base fact / delta row over the fixed R/S/T catalog.
type RawFact = (u8, u8, u8, u8, i64);

/// The relation name and tuple a raw fact denotes: `R(a, b, c)`,
/// `S(b, c, d)` or `T(d)`.
fn fact_tuple(rel: u8, x: u8, y: u8, z: u8) -> (&'static str, Tuple) {
    let v = |n: u8| VALUES[n as usize % VALUES.len()];
    match rel % 3 {
        0 => ("R", Tuple::new([("a", v(x)), ("b", v(y)), ("c", v(z))])),
        1 => ("S", Tuple::new([("b", v(x)), ("c", v(y)), ("d", v(z))])),
        _ => ("T", Tuple::new([("d", v(x))])),
    }
}

fn build_db(facts: &[RawFact]) -> Database<Integers> {
    let mut db = Database::new()
        .with("R", KRelation::empty(Schema::new(["a", "b", "c"])))
        .with("S", KRelation::empty(Schema::new(["b", "c", "d"])))
        .with("T", KRelation::empty(Schema::new(["d"])));
    for (rel, x, y, z, w) in facts {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        db.insert_tuple(name, tuple, Integers::new(*w));
    }
    db
}

fn build_batch(deltas: &[RawFact]) -> DeltaBatch<Integers> {
    let mut batch = DeltaBatch::new();
    for (rel, x, y, z, w) in deltas {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        batch.insert(name, tuple, Integers::new(*w));
    }
    batch
}

/// The query pool: scans, pipelined unaries, self-joins (the same relation
/// scanned twice shares one cache entry per execution), and a three-way
/// join — enough operator shapes to route cached batches through every
/// kernel.
fn queries() -> Vec<RaExpr> {
    vec![
        RaExpr::relation("R"),
        RaExpr::relation("R").project(["a", "b"]),
        RaExpr::relation("R")
            .select(Predicate::eq_value("b", "v1"))
            .union(RaExpr::relation("R")),
        RaExpr::relation("R").join(RaExpr::relation("S")),
        RaExpr::relation("R").join(RaExpr::relation("R")),
        RaExpr::relation("R")
            .join(RaExpr::relation("S"))
            .join(RaExpr::relation("T"))
            .project(["a", "d"]),
    ]
}

/// A copy of `db` whose relations hold no columnar form — the snapshot's own
/// relations share theirs (possibly patched) with every reader, so only a
/// rebuilt relation converts afresh.
fn formless<K: Semiring>(db: &Database<K>) -> Database<K> {
    let mut out = Database::new();
    for (name, relation) in db.iter() {
        let pairs = relation.iter().map(|(t, k)| (t.clone(), k.clone()));
        out.insert(
            name.clone(),
            KRelation::from_sorted_support(relation.schema().clone(), pairs),
        );
    }
    out
}

/// Executes `query` against `snapshot` through every thread count and pins
/// each result to the interpreter's. The fresh run goes against a
/// [`formless`] copy of the snapshot's database — every scan converts.
fn check_execution_agreement(query: &RaExpr, snapshot: &DbSnapshot<Integers>) {
    let plan = Plan::new(query, &snapshot.catalog()).expect("pool queries are valid");
    let expected = query
        .eval_interpreted(snapshot.database())
        .expect("pool queries are valid");
    let fresh = plan.execute_with(&formless(snapshot.database()), &ExecContext::serial());
    assert_eq!(
        expected, fresh,
        "interpreter != fresh conversion on {query:?}"
    );
    for threads in [1, 2, 4] {
        let cached = plan.execute_with(snapshot, &ExecContext::with_threads(threads));
        assert_eq!(
            expected, cached,
            "interpreter != cached ({threads} threads) on {query:?}"
        );
    }
}

fn arb_facts() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec((0u8..3, 0u8..6, 0u8..6, 0u8..6, 1i64..4), 0..16)
}

/// Interleaving script: each byte picks an operation, follow-up bytes its
/// operands (relation, values, signed weight — negatives are deletions).
fn arb_script() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 12..72)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn next(&mut self) -> u8 {
        if self.bytes.is_empty() {
            return 0;
        }
        let b = self.bytes[self.pos % self.bytes.len()];
        self.pos += 1;
        b
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

/// One differential case: seed a [`SharedDatabase`], register a standing
/// view, hand-materialize another, then replay a random script of commits
/// (patching cached conversions), executions (current *and* held old
/// snapshots), and maintenance checks.
fn run_script(facts: &[RawFact], script: &[u8]) {
    let pool = queries();
    let shared = SharedDatabase::new(build_db(facts));
    shared
        .register_view("V", &pool[3])
        .expect("join view is valid");
    let snap0 = shared.snapshot();
    let view_plan = Plan::new(&pool[5], &snap0.catalog()).expect("pool queries are valid");
    let mut hand_view = view_plan.materialize(&snap0);
    let mut held: Vec<DbSnapshot<Integers>> = vec![snap0];
    let mut cursor = Cursor::new(script);
    while !cursor.done() {
        match cursor.next() % 4 {
            // Commit a small signed batch: touched relations get their
            // cached conversions patched (or entries dropped) under the
            // writer lock; the standing view advances.
            0 => {
                let rows = 1 + cursor.next() % 4;
                let raw: Vec<RawFact> = (0..rows)
                    .map(|_| {
                        let rel = cursor.next();
                        let (x, y, z) = (cursor.next(), cursor.next(), cursor.next());
                        let w = (cursor.next() as i64 % 7) - 3;
                        (rel, x, y, z, w)
                    })
                    .collect();
                let batch = build_batch(&raw);
                shared.commit(&batch);
                view_plan.maintain(&mut hand_view, &batch);
            }
            // Hold the current snapshot for later re-execution (old cache
            // entries must stay correct across patches of newer versions).
            1 => {
                held.push(shared.snapshot());
                if held.len() > 3 {
                    held.remove(0);
                }
            }
            // Execute a pool query against the live snapshot.
            2 => {
                let query = &pool[cursor.next() as usize % pool.len()];
                check_execution_agreement(query, &shared.snapshot());
            }
            // Re-execute against a held (old) snapshot and audit the
            // maintained views against recomputation.
            _ => {
                let query = &pool[cursor.next() as usize % pool.len()];
                let old = &held[cursor.next() as usize % held.len()];
                check_execution_agreement(query, old);
                let live = shared.snapshot();
                let standing_plan =
                    Plan::new(&pool[3], &live.catalog()).expect("pool queries are valid");
                assert_eq!(
                    live.view("V").expect("view is registered"),
                    &standing_plan.execute(&live),
                    "standing view != recompute"
                );
                let hand_plan =
                    Plan::new(&pool[5], &live.catalog()).expect("pool queries are valid");
                assert_eq!(
                    hand_view.result(),
                    &hand_plan.execute(&live),
                    "maintained view != recompute"
                );
            }
        }
    }
    // Final audit: every held snapshot still answers correctly.
    for snapshot in &held {
        for query in &pool {
            check_execution_agreement(query, snapshot);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn cached_and_patched_batches_agree_with_fresh_and_row(
        facts in arb_facts(),
        script in arb_script(),
    ) {
        run_script(&facts, &script);
    }
}

/// A directed worst case for patching: every commit deletes one previously
/// inserted row down to annotation zero, so patched cache entries carry
/// cancelling pairs that must vanish at the grouping points of every plan
/// shape in the pool.
#[test]
fn delete_to_zero_commits_keep_patched_caches_exact() {
    let facts: Vec<RawFact> = (0..12u8)
        .map(|i| (i % 3, i % 6, (i / 2) % 6, (i / 3) % 6, 2))
        .collect();
    let shared = SharedDatabase::new(build_db(&facts));
    let pool = queries();
    // Warm the cache at epoch 0.
    for query in &pool {
        check_execution_agreement(query, &shared.snapshot());
    }
    for (rel, x, y, z, w) in facts {
        let (name, tuple) = fact_tuple(rel, x, y, z);
        let mut batch = DeltaBatch::new();
        batch.delete(name, tuple, Integers::new(w));
        shared.commit(&batch);
        for query in &pool {
            check_execution_agreement(query, &shared.snapshot());
        }
    }
    let last = shared.snapshot();
    assert!(last.database().get("R").unwrap().is_empty());
    assert!(last.database().get("S").unwrap().is_empty());
    assert!(last.database().get("T").unwrap().is_empty());
}

// --- long commit chains: coalesced patch lists ------------------------------

use provsem_core::kernels::{Batch, BatchCache, BatchProvenance};
use provsem_semiring::ring::DiffPair;
use provsem_semiring::{Bool, Natural, Polynomial, Semiring};
use std::sync::Arc;

/// The cached batches of `relation`, folded back into a relation: the sum
/// of every row of every batch (duplicates re-summed, cancelled pairs gone).
fn folded<K: Semiring>(batches: &[Batch<K>], relation: &KRelation<K>) -> KRelation<K> {
    let mut out = KRelation::empty(relation.schema().clone());
    for batch in batches {
        for (row, k) in batch.clone().into_rows() {
            out.insert(Tuple::from_values(relation.schema(), row.into_vec()), k);
        }
    }
    out
}

/// `⌈log₂ rows⌉ + 1`: the most delta batches the coalescing rule leaves for
/// `rows` live delta rows (each batch at least twice its successor).
fn tail_bound(rows: usize) -> usize {
    match rows {
        0 => 0,
        rows => rows.next_power_of_two().trailing_zeros() as usize + 1,
    }
}

fn scan_agreement<K: Semiring>(snapshot: &DbSnapshot<K>) {
    let f = RaExpr::relation("F");
    let pool = [
        f.clone(),
        f.clone().project(["v"]),
        f.select(Predicate::eq_value("v", "w3")),
    ];
    for query in &pool {
        let plan = Plan::new(query, &snapshot.catalog()).expect("pool queries are valid");
        let batch = ExecContext::with_threads;
        let fresh = plan.execute_with(&formless(snapshot.database()), &batch(1));
        assert!(fresh == plan.execute_with(snapshot, &batch(1)), "{query:?}");
        assert!(fresh == plan.execute_with(snapshot, &batch(4)), "{query:?}");
    }
}

/// 2 000 one-row commits into a cached `F(g, v)`: inserts of fresh rows,
/// repeats of present ones and — where `cancel` gives an additive inverse —
/// deletions of rows inserted earlier. After every commit the patched entry
/// folds to exactly the relation and holds at most base + ⌈log₂ r⌉ + 1
/// batches for its `r` live delta rows; every so often cached, patched
/// scans (1 and 4 threads, live and held snapshots) equal fresh conversion.
fn long_chain<K: Semiring>(weight: impl Fn(u32) -> K, cancel: Option<fn(&K) -> K>) {
    let schema = Schema::new(["g", "v"]);
    let row = |g: u32| {
        let values = [Value::int(i64::from(g)), Value::str(format!("w{}", g % 7))];
        Tuple::from_values(&schema, values)
    };
    let mut base = KRelation::empty(schema.clone());
    for g in 0..300 {
        base.insert(row(g), weight(g));
    }
    let shared = SharedDatabase::new(Database::new().with("F", base));
    let first = shared.snapshot();
    let (cache, epoch) = first.batch_cache().expect("snapshots carry the cache");
    let base_batches = cache
        .get_or_convert(epoch, &first.database().get_shared("F").unwrap())
        .len();
    let mut held = vec![first.clone()];
    let mut inserted: Vec<(u32, K)> = Vec::new();
    let mut state = 0x2545_f491u32;
    for commit in 0..2000u32 {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        let mut batch = DeltaBatch::new();
        match (cancel, state % 3) {
            (Some(cancel), 0) if !inserted.is_empty() => {
                let (g, k) = inserted.swap_remove(state as usize / 3 % inserted.len());
                batch.insert("F", row(g), cancel(&k));
            }
            (_, 1) => batch.insert("F", row(state / 3 % 300), weight(commit)),
            _ => {
                let g = 1000 + commit;
                inserted.push((g, weight(g)));
                batch.insert("F", row(g), weight(g));
            }
        }
        shared.commit(&batch);
        let live = shared.snapshot();
        let f = live.database().get_shared("F").unwrap();
        let (batches, provenance) = cache.peek(&f).expect("a patched entry, never evicted");
        assert_eq!(provenance, BatchProvenance::Patched(u64::from(commit) + 1));
        assert!(
            folded(&batches, &f) == *f,
            "commit {commit}: fold != relation"
        );
        let tail = &batches[base_batches..];
        let tail_rows: usize = tail.iter().map(Batch::live_rows).sum();
        assert!(
            tail.len() <= tail_bound(tail_rows),
            "commit {commit}: {} delta batches for {tail_rows} live rows",
            tail.len()
        );
        if commit % 250 == 0 {
            held.push(live.clone());
            held.iter().for_each(scan_agreement);
        }
    }
    held.iter().for_each(scan_agreement);
    // Nothing re-converted: one miss for the first conversion. The live
    // version's form was patched forward, and every held snapshot's version
    // kept its own.
    assert_eq!(cache.stats().misses, 1);
}

#[test]
fn long_commit_chains_keep_patched_entries_exact_and_short() {
    long_chain(
        |n| Integers::new(1 + i64::from(n % 3)),
        Some(|k: &Integers| Integers::new(-k.value())),
    );
    long_chain(
        |n| DiffPair::from_positive(Natural::from(1 + u64::from(n % 3))),
        Some(|k: &DiffPair<Natural>| DiffPair::new(*k.negative(), *k.positive())),
    );
    long_chain(
        |n| Polynomial::<Integers>::var(format!("x{}", n % 5)),
        Some(|k: &Polynomial<Integers>| k.times(&Polynomial::constant(Integers::new(-1)))),
    );
    long_chain(|n| Natural::from(1 + u64::from(n % 3)), None);
    long_chain(|_| Bool::from(true), None);
}

/// Insert-then-cancel churn appends more delta rows than the eviction rule
/// allows (4 096 for a small base) without ever *holding* more than one:
/// the entry is carried across every commit, never dropped and re-converted.
#[test]
fn cancelled_deltas_do_not_count_towards_eviction() {
    let schema = Schema::new(["g"]);
    let row = |g: i64| Tuple::from_values(&schema, [Value::int(g)]);
    let mut base = KRelation::empty(schema.clone());
    for g in 0..50 {
        base.insert(row(g), Integers::new(1));
    }
    let shared = SharedDatabase::new(Database::new().with("F", base));
    let first = shared.snapshot();
    let (cache, epoch) = first.batch_cache().unwrap();
    cache.get_or_convert(epoch, &first.database().get_shared("F").unwrap());
    for round in 0..2200 {
        for k in [1, -1] {
            let mut batch = DeltaBatch::new();
            batch.insert("F", row(1000 + round % 3), Integers::new(k));
            shared.commit(&batch);
        }
    }
    let last = shared.snapshot();
    let f = last.database().get_shared("F").unwrap();
    let (batches, provenance) = cache.peek(&f).expect("not evicted");
    assert_eq!(provenance, BatchProvenance::Patched(4400));
    assert_eq!(
        batches.len(),
        1,
        "every delta cancelled: only the base is left"
    );
    assert_eq!(cache.stats().misses, 1);
}

/// A panic inside `patch` (here: ℤ overflowing as the coalescing re-sums two
/// deltas of one row) leaves the new version without a form — its first
/// scan converts, and folds exactly — while the old version's form and a
/// bystander's stay as they were, and the cache keeps working from any
/// thread.
#[test]
fn a_panic_inside_patch_leaves_the_cache_usable() {
    let schema = Schema::new(["g"]);
    let row = |g: i64| Tuple::from_values(&schema, [Value::int(g)]);
    let version = |pairs: &[(i64, i64)]| {
        let pairs = pairs.iter().map(|&(g, k)| (row(g), Integers::new(k)));
        Arc::new(KRelation::from_tuples(schema.clone(), pairs))
    };
    let cache: BatchCache<Integers> = BatchCache::new();
    let other = version(&[(7, 7)]);
    cache.get_or_convert(0, &other);
    // v0 —(+MAX at g=1)→ v1 —(+MAX at g=1 again)→ v2: the relation itself
    // never holds the sum (v2 is made up), but the coalescing merge adds the
    // two delta rows.
    let (v0, v1, v2) = (
        version(&[(0, 1)]),
        version(&[(0, 1), (1, i64::MAX)]),
        version(&[(0, 1)]),
    );
    let delta = KRelation::from_tuples(schema.clone(), [(row(1), Integers::new(i64::MAX))]);
    cache.get_or_convert(0, &v0);
    cache.patch(&v0, &v1, &delta);
    let (v1_batches, provenance) = cache.peek(&v1).expect("v1 was seeded");
    assert_eq!(provenance, BatchProvenance::Patched(1));
    let patched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.patch(&v1, &v2, &delta);
    }));
    assert!(patched.is_err(), "the merge overflows i64");
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                // The old version's form is untouched, the new one has none.
                let (batches, provenance) = cache.peek(&v1).expect("v1 keeps its form");
                assert!(Arc::ptr_eq(&batches, &v1_batches));
                assert_eq!(provenance, BatchProvenance::Patched(1));
                assert!(cache.peek(&v2).is_none(), "a half-patched form was seeded");
                v1.check_invariants();
                // The new version's first scan converts, and folds exactly.
                let misses = cache.stats().misses;
                let batches = cache.get_or_convert(2, &v2);
                assert_eq!(cache.stats().misses, misses + 1);
                assert!(folded(&batches, &v2) == *v2);
                v2.check_invariants();
                // The bystander's form still hits.
                let hits = cache.stats().hits;
                cache.get_or_convert(2, &other);
                assert_eq!(cache.stats().hits, hits + 1);
            })
            .join()
            .expect("the cache survives a panicking patch");
    });
}

/// A dropped view's columnar form is freed with the view: once `drop_view`
/// has run and every snapshot that held the view is gone, nothing keeps its
/// batches alive — no cache entry waits for a sweep that read-only traffic
/// would never trigger — and the cache's live-form count falls with it.
#[test]
fn a_dropped_view_frees_its_batches() {
    let shared = SharedDatabase::new(build_db(&[(0, 1, 2, 3, 1), (1, 2, 3, 4, 2)]));
    shared
        .register_view("V", &RaExpr::relation("R").project(["a", "b"]))
        .expect("the view is valid");
    let holding = shared.snapshot();
    let (cache, epoch) = holding.batch_cache().expect("snapshots carry the cache");
    let view = holding.view_shared("V").expect("the view is registered");
    let batches = Arc::downgrade(&cache.get_or_convert(epoch, &view));
    let entries = cache.stats().entries;
    drop(view);
    shared.drop_view("V");
    // Reads keep hitting other relations' forms meanwhile.
    for _ in 0..3 {
        check_execution_agreement(&RaExpr::relation("R"), &shared.snapshot());
    }
    assert!(
        batches.upgrade().is_some(),
        "a held snapshot keeps the view"
    );
    drop(holding);
    assert!(
        batches.upgrade().is_none(),
        "the dropped view's batches live on"
    );
    assert_eq!(shared.snapshot().batch_cache_stats().entries, entries - 1);
}

// --- the patched shape under the code-domain kernels -------------------------

use provsem_core::kernels::Column;

/// Distinct dictionaries among the `v` columns of `F`'s cached batches.
fn dictionaries_of_v(snapshot: &DbSnapshot<Integers>) -> usize {
    let (cache, _) = snapshot.batch_cache().expect("snapshots carry the cache");
    let f = snapshot.database().get_shared("F").unwrap();
    let (batches, _) = cache.peek(&f).expect("F is cached");
    let mut dicts = Vec::new();
    for batch in batches.iter() {
        if let Column::Str { dict, .. } = &batch.columns()[1] {
            if !dicts.iter().any(|d| Arc::ptr_eq(d, dict)) {
                dicts.push(dict.clone());
            }
        }
    }
    dicts.len()
}

/// The two request shapes whose kernels group and probe per dictionary
/// *code* instead of per row — `project[v] F` (group by one string column)
/// and `project[g] select[label = …] (F join rename[t -> v] D)` (a string-
/// keyed probe of a selective build side) — read from commit-patched scans:
/// `F`'s cached batch list holds the conversion's dictionary plus one per
/// delta batch, the shape a one-memo-per-call design sent to the slow path.
/// The commits include a string absent from every cached dictionary and the
/// deletion of a whole group; every result, at 1 and 4 threads, on the live
/// and on held snapshots, equals `eval_interpreted`.
#[test]
fn patched_scans_group_and_probe_by_dictionary_code() {
    let f_schema = Schema::new(["g", "v"]);
    let d_schema = Schema::new(["label", "t"]);
    let tag = |n: i64| Value::str(format!("w{n}"));
    let f_row = |g: i64, v: Value| Tuple::from_values(&f_schema, [Value::int(g), v]);
    let d_row = |label: &str, t: Value| Tuple::from_values(&d_schema, [Value::str(label), t]);
    // Two scan batches of F under one 40-entry dictionary; D also names five
    // tags F does not hold yet.
    let mut f = KRelation::empty(f_schema.clone());
    for g in 0..6000 {
        f.insert(f_row(g, tag(g % 40)), Integers::new(1 + g % 3));
    }
    let mut d = KRelation::empty(d_schema.clone());
    for t in 0..45 {
        d.insert(d_row(&format!("k{}", t % 4), tag(t)), Integers::new(1));
    }
    let shared = SharedDatabase::new(Database::new().with("F", f).with("D", d));
    let tagged =
        RaExpr::relation("F").join(RaExpr::relation("D").rename(Renaming::new([("t", "v")])));
    let pool = [
        RaExpr::relation("F").project(["v"]),
        tagged
            .clone()
            .select(Predicate::eq_value("label", "k1"))
            .project(["g"]),
        tagged.project(["label"]),
    ];
    let check = |snapshot: &DbSnapshot<Integers>| {
        for query in &pool {
            let expected = query
                .eval_interpreted(snapshot.database())
                .expect("pool queries are valid");
            let plan = Plan::new(query, &snapshot.catalog()).expect("pool queries are valid");
            for threads in [1, 4] {
                let ctx = ExecContext::with_threads(threads);
                assert!(
                    plan.execute_with(snapshot, &ctx) == expected,
                    "{query:?} at {threads} threads, epoch {}",
                    snapshot.epoch()
                );
            }
        }
    };
    let mut held = vec![shared.snapshot()];
    check(&held[0]);
    assert_eq!(dictionaries_of_v(&held[0]), 1);

    let commit = |rows: Vec<(&str, Tuple, i64)>| {
        let mut batch = DeltaBatch::new();
        for (relation, tuple, k) in rows {
            batch.insert(relation, tuple, Integers::new(k));
        }
        shared.commit(&batch);
        let live = shared.snapshot();
        check(&live);
        live
    };
    // A tag F's dictionary lacks (D's has it: the join gains rows), and a
    // string neither side has seen.
    held.push(commit(vec![
        ("F", f_row(6000, tag(41)), 2),
        ("F", f_row(6001, Value::str("zz")), 1),
    ]));
    assert!(
        dictionaries_of_v(&held[1]) >= 2,
        "a delta batch interns its own"
    );
    // Group `w7` deleted to zero: 150 cancelling rows in one delta batch.
    let w7: Vec<(&str, Tuple, i64)> = (0..6000)
        .filter(|g| g % 40 == 7)
        .map(|g| ("F", f_row(g, tag(7)), -(1 + g % 3)))
        .collect();
    assert_eq!(w7.len(), 150);
    held.push(commit(w7));
    // The group comes back with one row; the build side changes under the
    // probe's cached dictionaries: `zz` gets a label, `w5` loses its own.
    held.push(commit(vec![
        ("F", f_row(7, tag(7)), 5),
        ("D", d_row("k1", Value::str("zz")), 1),
        ("D", d_row("k1", tag(5)), -1),
    ]));
    for g in 0..40 {
        commit(vec![("F", f_row(7000 + g, tag(g % 3)), 1)]);
    }
    held.push(shared.snapshot());
    held.iter().for_each(check);
}
