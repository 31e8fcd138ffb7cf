//! Snapshot-isolation proptest: no reader ever observes a partial
//! [`DeltaBatch`], and every view observed at epoch `e` equals recomputing
//! its definition from the epoch-`e` snapshot.
//!
//! Each case draws a random sequence of signed delta batches. A writer
//! thread commits them one by one against a [`SharedDatabase`] (with a
//! standing join view registered) while reader threads grab snapshots as
//! fast as they can. Afterwards the same batches are applied serially to a
//! fresh copy, producing the reference state at every epoch; each observed
//! snapshot must equal the reference state of its epoch **exactly** —
//! database and views, support and annotations. A snapshot that showed half
//! a batch, or a view result from a neighboring epoch, cannot pass.
//!
//! Run in CI under `PROVSEM_THREADS=1` and `=4` (commits go through the
//! default [`ExecContext`], so the env budget steers view maintenance).

use proptest::prelude::*;
use provsem_core::plan::{DeltaBatch, ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::ring::Integers;
use provsem_semiring::Semiring;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];

/// Raw draw for one delta row: `(relation, v1, v2, v3, signed weight)`.
type RawDelta = (u8, u8, u8, u8, i64);

fn fact_tuple(rel: u8, x: u8, y: u8, z: u8) -> (&'static str, Tuple) {
    let v = |n: u8| VALUES[n as usize % VALUES.len()];
    if rel.is_multiple_of(2) {
        ("R", Tuple::new([("a", v(x)), ("b", v(y)), ("c", v(z))]))
    } else {
        ("S", Tuple::new([("b", v(x)), ("c", v(y)), ("d", v(z))]))
    }
}

fn seed_db() -> Database<Integers> {
    let mut db = Database::new()
        .with("R", KRelation::empty(Schema::new(["a", "b", "c"])))
        .with("S", KRelation::empty(Schema::new(["b", "c", "d"])));
    for (i, (rel, x, y, z)) in [
        (0u8, 0u8, 1u8, 2u8),
        (0, 1, 2, 3),
        (1, 1, 2, 0),
        (1, 2, 3, 1),
    ]
    .iter()
    .enumerate()
    {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        db.insert_tuple(name, tuple, Integers::new(i as i64 + 1));
    }
    db
}

fn build_batch(rows: &[RawDelta]) -> DeltaBatch<Integers> {
    let mut batch = DeltaBatch::new();
    for (rel, x, y, z, w) in rows {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        batch.insert(name, tuple, Integers::new(*w));
    }
    batch
}

fn view_query() -> RaExpr {
    RaExpr::relation("R")
        .join(RaExpr::relation("S"))
        .project(["a", "d"])
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<RawDelta>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..2, 0u8..4, 0u8..4, 0u8..4, -3i64..4), 1..6),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshots_are_atomic_and_views_match_their_epoch(raw in arb_batches()) {
        let batches: Vec<DeltaBatch<Integers>> = raw.iter().map(|rows| build_batch(rows)).collect();

        // --- Concurrent phase: one writer, two snapshot-grabbing readers. ---
        let shared = SharedDatabase::new(seed_db());
        let base_epoch = shared.register_view("Q", &view_query()).unwrap();
        let done = AtomicBool::new(false);
        let observed: Mutex<Vec<DbSnapshot<Integers>>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            for _ in 0..2 {
                let shared = &shared;
                let done = &done;
                let observed = &observed;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        local.push(shared.snapshot());
                        std::thread::yield_now();
                    }
                    // One last look at the final state.
                    local.push(shared.snapshot());
                    observed.lock().unwrap().extend(local);
                });
            }
            for batch in &batches {
                shared.commit(batch);
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        // --- Reference states: the same batches applied single-file. ---
        let replay = SharedDatabase::new(seed_db());
        prop_assert_eq!(replay.register_view("Q", &view_query()).unwrap(), base_epoch);
        let mut states = vec![replay.snapshot()];
        let serial = ExecContext::serial();
        for batch in &batches {
            replay.commit_with(batch, &serial);
            states.push(replay.snapshot());
        }

        // --- Every observed snapshot is exactly one reference state. ---
        let plan = Plan::new(&view_query(), &states[0].catalog()).unwrap();
        for snapshot in observed.into_inner().unwrap() {
            let index = (snapshot.epoch() - base_epoch) as usize;
            prop_assert!(index < states.len(), "epoch beyond the committed range");
            let reference = &states[index];
            // Atomicity: the database equals the serial state of its epoch —
            // a half-applied batch cannot produce any of these states.
            prop_assert_eq!(snapshot.database(), reference.database(),
                "snapshot at epoch {} is not a serial state", snapshot.epoch());
            // View consistency: the published view equals recomputing its
            // definition from this very snapshot, and the reference's view.
            let view = snapshot.view("Q").unwrap();
            prop_assert_eq!(view, &plan.execute_with(&snapshot, &serial),
                "view at epoch {} != recompute", snapshot.epoch());
            prop_assert_eq!(view, reference.view("Q").unwrap());
        }
    }
}

// --- a failed commit is invisible -------------------------------------------

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Asserts two shared databases are indistinguishable: epoch, every base
/// relation, every standing view — and every view equals recomputing its
/// definition, so a view whose *hidden* maintenance state had run ahead
/// shows up at the latest one commit later.
fn assert_same_state<K: Semiring>(
    got: &SharedDatabase<K>,
    want: &SharedDatabase<K>,
    views: &[(String, RaExpr)],
) {
    let (got, want) = (got.snapshot(), want.snapshot());
    assert_eq!(got.epoch(), want.epoch());
    assert!(got.database() == want.database(), "databases differ");
    assert!(got.view_names().eq(want.view_names()));
    for (name, expr) in views {
        let view = got.view(name).expect("registered");
        assert!(
            view == want.view(name).expect("registered"),
            "{name} differs"
        );
        let plan = Plan::new(expr, &got.catalog()).unwrap();
        assert!(
            view == &plan.execute_with(&got, &ExecContext::serial()),
            "{name} != recompute"
        );
    }
}

/// The scenario any ℤ client can trigger: `A = R` absorbs a delta, then
/// `B = project[b] R` overflows summing it. Before the fix the epoch stayed
/// put but `A`'s maintenance state kept the row, and the next successful
/// commit published an `A` with a tuple `R` never had.
#[test]
fn a_panic_in_view_maintenance_leaves_no_trace() {
    let views = vec![
        ("A".to_string(), RaExpr::relation("R")),
        ("B".to_string(), RaExpr::relation("R").project(["b"])),
    ];
    let row = |a: &str, b: &str, k: i64| {
        let mut batch = DeltaBatch::new();
        batch.insert("R", Tuple::new([("a", a), ("b", b)]), Integers::new(k));
        batch
    };
    let fresh = || {
        let empty = KRelation::empty(Schema::new(["a", "b"]));
        let shared = SharedDatabase::new(Database::new().with("R", empty));
        for (name, expr) in &views {
            shared.register_view(name.clone(), expr).unwrap();
        }
        shared
    };
    let (faulty, reference) = (fresh(), fresh());
    for shared in [&faulty, &reference] {
        shared.commit(&row("1", "x", i64::MAX - 1));
    }
    let held = faulty.snapshot();
    let bad = row("2", "x", 5);
    let outcome = catch_unwind(AssertUnwindSafe(|| faulty.commit(&bad)));
    assert!(outcome.is_err(), "B's sum overflows i64");
    assert_same_state(&faulty, &reference, &views);
    assert_eq!(faulty.snapshot().epoch(), held.epoch());
    // The commit after the failed one is the reference's next commit.
    for shared in [&faulty, &reference] {
        assert_eq!(shared.commit(&row("3", "y", 1)), held.epoch() + 1);
    }
    assert_same_state(&faulty, &reference, &views);
    let now = faulty.snapshot();
    assert_eq!(now.database().get("R").unwrap().len(), 2);
    assert_eq!(now.view("A").unwrap().len(), 2);
}

/// ℤ-like arithmetic with one value no sum may absorb: adding [`MARKED`] to
/// anything but zero panics. Inserting it as a *new* tuple is fine, so a
/// batch can carry it through the base relation and into exactly the view
/// whose result already has the tuple it lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tripwire(i64);

const MARKED: i64 = 1 << 40;

impl Semiring for Tripwire {
    fn zero() -> Self {
        Tripwire(0)
    }
    fn one() -> Self {
        Tripwire(1)
    }
    fn plus(&self, other: &Self) -> Self {
        let tripped = (self.0 == MARKED && other.0 != 0) || (other.0 == MARKED && self.0 != 0);
        assert!(!tripped, "tripwire: a sum met the marked value");
        Tripwire(self.0 + other.0)
    }
    fn times(&self, other: &Self) -> Self {
        Tripwire(self.0 * other.0)
    }
}

/// `n` views `V_i = project[a] select[a = 'k_i'] R`, maintained in name
/// order; every batch adds one fresh `R(k_i, b)` row per view, so every view
/// sums into its single result row on every commit.
fn tripwire_batch(n: usize, b: &str, marked_at: Option<usize>) -> DeltaBatch<Tripwire> {
    let mut batch = DeltaBatch::new();
    for i in 0..n {
        let k = if marked_at == Some(i) { MARKED } else { 1 };
        let tuple = Tuple::new([("a", format!("k{i}")), ("b", b.to_string())]);
        batch.insert("R", tuple, Tripwire(k));
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The panic strikes while maintaining view `k` of `n`: views before it
    /// have already absorbed the batch, views after it have not. Either way
    /// the run must equal one in which the batch was never sent — now, and
    /// after further commits.
    #[test]
    fn a_panic_at_any_view_equals_a_rejected_batch(
        n in 1usize..7,
        k in 0usize..7,
        before in 1usize..4,
        after in 1usize..4,
    ) {
        let k = k % n;
        let views: Vec<(String, RaExpr)> = (0..n)
            .map(|i| {
                let expr = RaExpr::relation("R")
                    .select(Predicate::eq_value("a", format!("k{i}")))
                    .project(["a"]);
                (format!("V{i}"), expr)
            })
            .collect();
        let fresh = || {
            let empty = KRelation::empty(Schema::new(["a", "b"]));
            let shared = SharedDatabase::new(Database::new().with("R", empty));
            for (name, expr) in &views {
                shared.register_view(name.clone(), expr).unwrap();
            }
            shared
        };
        let (faulty, reference) = (fresh(), fresh());
        for round in 0..before {
            let batch = tripwire_batch(n, &format!("before{round}"), None);
            faulty.commit(&batch);
            reference.commit(&batch);
        }
        let bad = tripwire_batch(n, "bad", Some(k));
        let outcome = catch_unwind(AssertUnwindSafe(|| faulty.commit(&bad)));
        prop_assert!(outcome.is_err(), "view {} of {} trips", k, n);
        assert_same_state(&faulty, &reference, &views);
        for round in 0..after {
            let batch = tripwire_batch(n, &format!("after{round}"), None);
            prop_assert_eq!(faulty.commit(&batch), reference.commit(&batch));
            assert_same_state(&faulty, &reference, &views);
        }
    }
}

// --- what a commit copies is counted, not timed -----------------------------

/// `F(g, v)` with `rows` rows over 1 000 tags, the dimension `D(t, label)`
/// and a small `R(a, b)` — the query service benchmark's shape — under
/// three standing views, two over `F` and one that never sees it.
fn star_db(rows: i64) -> (SharedDatabase<Integers>, Schema) {
    let f_schema = Schema::new(["g", "v"]);
    let f = KRelation::from_sorted_support(
        f_schema.clone(),
        (0..rows).map(|g| {
            let row = [Value::int(g), Value::str(format!("w{}", g % 1000))];
            (Tuple::from_values(&f_schema, row), Integers::new(1 + g % 3))
        }),
    );
    let mut d = KRelation::empty(Schema::new(["t", "label"]));
    for t in 0..1000 {
        let row = [("t", format!("w{t}")), ("label", format!("k{}", t % 10))];
        d.insert(Tuple::new(row), Integers::new(1));
    }
    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    for a in 0..30 {
        let row = [("a", format!("a{a}")), ("b", format!("b{}", a % 3))];
        r.insert(Tuple::new(row), Integers::new(1));
    }
    let shared = SharedDatabase::new(Database::new().with("F", f).with("D", d).with("R", r));
    let f = RaExpr::relation("F");
    let d_by_v = RaExpr::relation("D").rename(Renaming::new([("t", "v")]));
    shared
        .register_view("Vtag", &f.clone().project(["v"]))
        .unwrap();
    shared
        .register_view("Vjoin", &f.join(d_by_v).project(["label"]))
        .unwrap();
    shared
        .register_view("Vsmall", &RaExpr::relation("R").project(["a"]))
        .unwrap();
    (shared, f_schema)
}

/// A one-row commit copies one root-to-leaf path of the touched relation
/// and of each touched view result — at most height × capacity tuples,
/// the same few hundred at 10⁴ and at 10⁵ rows — and nothing of what it did
/// not touch. (`entries_not_shared_with` is ROADMAP's
/// `snapshot.rows_copied_per_row_changed`, read from inside.)
#[test]
fn a_one_row_commit_copies_a_path_not_the_relation() {
    use provsem_core::relation::NODE_CAPACITY;
    let mut copied_by_size = Vec::new();
    for rows in [10_000i64, 100_000] {
        let (shared, f_schema) = star_db(rows);
        let before = shared.snapshot();
        let mut batch = DeltaBatch::new();
        // Mid-relation, beside the existing (rows / 2, "w0").
        let new_row = [Value::int(rows / 2), Value::str("w7")];
        batch.insert(
            "F",
            Tuple::from_values(&f_schema, new_row),
            Integers::new(2),
        );
        shared.commit_with(&batch, &ExecContext::serial());
        let after = shared.snapshot();

        let mut copied = Vec::new();
        let f_new = after.database().get("F").unwrap();
        let height = f_new.check_invariants().height;
        assert_eq!(f_new.len() as i64, rows + 1);
        copied.push(f_new.entries_not_shared_with(before.database().get("F").unwrap()));
        assert!(copied[0] >= 1 && copied[0] <= height * NODE_CAPACITY);
        for name in ["Vtag", "Vjoin"] {
            let (new, old) = (after.view(name).unwrap(), before.view(name).unwrap());
            assert!(new != old, "{name} saw the row");
            let height = new.check_invariants().height;
            let n = new.entries_not_shared_with(old);
            assert!(n >= 1 && n <= height * NODE_CAPACITY, "{name} copied {n}");
            copied.push(n);
        }
        // Untouched relations and views are the same allocation.
        for name in ["D", "R"] {
            let (old, new) = (
                before.database().get_shared(name),
                after.database().get_shared(name),
            );
            assert!(
                std::sync::Arc::ptr_eq(&old.unwrap(), &new.unwrap()),
                "{name}"
            );
        }
        let (old, new) = (before.view_shared("Vsmall"), after.view_shared("Vsmall"));
        assert!(std::sync::Arc::ptr_eq(&old.unwrap(), &new.unwrap()));
        // The superseded version is intact and still whole.
        assert_eq!(before.database().get("F").unwrap().len() as i64, rows);
        copied_by_size.push((height, copied));
    }
    // Ten times the rows, the same bound: the trees here have equal height,
    // so the bound is literally the same number.
    let [(small_height, small), (large_height, large)] = copied_by_size.as_slice() else {
        unreachable!("two sizes")
    };
    assert_eq!(small_height, large_height);
    assert!(large.iter().sum::<usize>() <= 3 * large_height * NODE_CAPACITY);
    assert!(small.iter().sum::<usize>() <= 3 * small_height * NODE_CAPACITY);
}
