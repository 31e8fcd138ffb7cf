//! Differential test: incremental view maintenance equals recomputation.
//!
//! Random `RaExpr`s of bounded depth (the same byte-recipe generator as
//! `planner_differential.rs`, covering every operator and ill-typed
//! combinations) are materialized over random small databases and then
//! maintained under random insert/delete batches. The contract, pinned
//! exactly (support *and* annotations):
//!
//! ```text
//! maintain(view, Δ₁); maintain(view, Δ₂); …  ==  execute(base + Δ₁ + Δ₂ + …)
//! ```
//!
//! over every shipped ring type — ℤ (`Integers`), ℤ\[X\] (`ZPolynomial`),
//! and the difference-pair lifting `DiffPair<Natural>` — plus insert-only
//! batches over the plain semiring ℕ (insert-only deltas need no additive
//! inverses). Invalid queries must error identically in the planner and the
//! reference interpreter (there is nothing to maintain, but the *error*
//! agreement is part of the differential contract). Delete-heavy and
//! delete-to-zero batches are drawn deliberately. Maintenance takes no
//! thread budget (it is serial by construction); the large-delta case
//! compares the maintained view with recomputation at 1, 2 and 4 threads.
//!
//! Run under `PROVSEM_THREADS=1` and `=4` in CI, so the default-context
//! paths get both budgets too.

use proptest::prelude::*;
use provsem_core::plan::{DeltaBatch, ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::prelude::*;

const CASES: u32 = 120;

const ATTRS: [&str; 5] = ["a", "b", "c", "d", "z"];
const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

/// Raw draw for one base fact: `(relation, v1, v2, v3, weight)`.
type RawFact = (u8, u8, u8, u8, u64);

/// Raw draw for one delta row: `(relation, v1, v2, v3, signed weight)`.
/// Negative weights are deletions; a weight of zero is dropped.
type RawDelta = (u8, u8, u8, u8, i64);

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
}

fn attr(c: &mut Cursor) -> &'static str {
    ATTRS[c.next() as usize % ATTRS.len()]
}

fn value(c: &mut Cursor) -> &'static str {
    VALUES[c.next() as usize % VALUES.len()]
}

fn subset_schema(c: &mut Cursor) -> Schema {
    let mask = c.next();
    Schema::new(
        ATTRS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| *a),
    )
}

fn predicate(c: &mut Cursor, depth: u8) -> Predicate {
    match c.next() % if depth == 0 { 5 } else { 7 } {
        0 => Predicate::True,
        1 => Predicate::False,
        2 => Predicate::eq_value(attr(c), value(c)),
        3 => Predicate::ne_value(attr(c), value(c)),
        4 => Predicate::eq_attrs(attr(c), attr(c)),
        5 => predicate(c, depth - 1).and(predicate(c, depth - 1)),
        _ => predicate(c, depth - 1).or(predicate(c, depth - 1)),
    }
}

fn renaming(c: &mut Cursor) -> Renaming {
    let n = 1 + (c.next() % 2) as usize;
    Renaming::new((0..n).map(|_| (attr(c), attr(c))))
}

/// Random operator-covering expression; same shape distribution as the
/// planner differential suite (scan/∅/π/σ/ρ/∪/⋈, including ill-typed ones).
fn expr(c: &mut Cursor, depth: u8) -> RaExpr {
    let choice = if depth == 0 {
        c.next() % 2
    } else {
        c.next() % 8
    };
    match choice {
        0 => RaExpr::relation(RELATIONS[c.next() as usize % RELATIONS.len()]),
        1 => RaExpr::Empty(subset_schema(c)),
        2 => RaExpr::Project(subset_schema(c), Box::new(expr(c, depth - 1))),
        3 => expr(c, depth - 1).select(predicate(c, 2)),
        4 => expr(c, depth - 1).rename(renaming(c)),
        5 => {
            let left = expr(c, depth - 1);
            let right = match c.next() % 3 {
                0 => expr(c, depth - 1),
                1 => match left.output_schema(&schemas_only()) {
                    Ok(schema) => RaExpr::Empty(schema),
                    Err(_) => expr(c, depth - 1),
                },
                _ => left.clone(),
            };
            left.union(right)
        }
        _ => expr(c, depth - 1).join(expr(c, depth - 1)),
    }
}

fn schemas_only() -> Database<Bool> {
    build_db(&[], |_, _| Bool::from(true))
}

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

fn build_db<K: Semiring>(facts: &[RawFact], annotate: impl Fn(usize, u64) -> K) -> Database<K> {
    let mut db = Database::new()
        .with("R", KRelation::empty(Schema::new(["a", "b", "c"])))
        .with("S", KRelation::empty(Schema::new(["b", "c", "d"])))
        .with("T", KRelation::empty(Schema::new(["d"])));
    for (i, (rel, x, y, z, w)) in facts.iter().enumerate() {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        db.insert_tuple(name, tuple, annotate(i, *w));
    }
    db
}

/// Builds a delta batch from signed raw rows. `annotate` must be odd in the
/// weight (`annotate(i, -w) = -annotate(i, w)`) so negative draws are
/// genuine deletions in the ring.
fn build_batch<K: Semiring>(
    deltas: &[RawDelta],
    annotate: impl Fn(usize, i64) -> K,
) -> DeltaBatch<K> {
    let mut batch = DeltaBatch::new();
    for (i, (rel, x, y, z, w)) in deltas.iter().enumerate() {
        let (name, tuple) = fact_tuple(*rel, *x, *y, *z);
        batch.insert(name, tuple, annotate(i, *w));
    }
    batch
}

/// The differential contract for one case: materialize, absorb each batch,
/// and compare against from-scratch execution of the updated base after
/// every batch. Invalid queries must error identically in planner and
/// interpreter.
fn check_maintain_agreement<K: Semiring>(
    query: &RaExpr,
    base: &Database<K>,
    batches: &[DeltaBatch<K>],
) {
    let plan = match Plan::new(query, &base.catalog()) {
        Ok(plan) => plan,
        Err(err) => {
            let interpreted = query.eval_interpreted(base);
            assert_eq!(interpreted.unwrap_err(), err, "error mismatch on {query:?}");
            return;
        }
    };
    let serial = ExecContext::serial();
    let mut db = base.clone();
    let mut view = plan.materialize(&db);
    assert_eq!(
        view.result(),
        &plan.execute_with(&db, &serial),
        "materialize != execute on {query:?}"
    );
    for batch in batches {
        plan.maintain(&mut view, batch);
        batch.apply_to(&mut db);
        assert_eq!(
            view.result(),
            &plan.execute_with(&db, &serial),
            "maintain != recompute on {query:?}"
        );
    }
}

/// Splits raw delta rows into two sequential batches, so every case also
/// exercises repeated maintenance of the same view.
fn two_batches<K: Semiring>(
    deltas: &[RawDelta],
    annotate: impl Fn(usize, i64) -> K + Copy,
) -> Vec<DeltaBatch<K>> {
    let mid = deltas.len() / 2;
    vec![
        build_batch(&deltas[..mid], annotate),
        build_batch(&deltas[mid..], annotate),
    ]
}

fn zpoly(i: usize, w: i64) -> ZPolynomial {
    ZPolynomial::from_terms([(
        Monomial::from_powers([(format!("t{i}"), 1)]),
        Integers::new(w),
    )])
}

fn diff_nat(_i: usize, w: i64) -> DiffPair<Natural> {
    if w >= 0 {
        DiffPair::from_positive(Natural::from(w as u64))
    } else {
        DiffPair::from_negative(Natural::from((-w) as u64))
    }
}

fn arb_recipe() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 8..48)
}

fn arb_facts() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec((0u8..3, 0u8..4, 0u8..4, 0u8..4, 1u64..4), 0..12)
}

/// Signed delta rows. The weight range is symmetric and excludes nothing:
/// zero-weight rows exercise the no-op path, negative ones deletions.
fn arb_deltas() -> impl Strategy<Value = Vec<RawDelta>> {
    prop::collection::vec((0u8..3, 0u8..4, 0u8..4, 0u8..4, -3i64..4), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// ℤ-relations: signed multiplicities, the canonical IVM ring.
    #[test]
    fn integers_maintain_agreement(
        recipe in arb_recipe(), facts in arb_facts(), deltas in arb_deltas()
    ) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        let db = build_db(&facts, |_, w| Integers::new(w as i64));
        let batches = two_batches(&deltas, |_, w| Integers::new(w));
        check_maintain_agreement(&query, &db, &batches);
    }

    /// ℤ[X]: provenance polynomials with signed coefficients — deletions
    /// subtract the deleted tuple's monomial.
    #[test]
    fn zpolynomial_maintain_agreement(
        recipe in arb_recipe(), facts in arb_facts(), deltas in arb_deltas()
    ) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        let db = build_db(&facts, |i, w| zpoly(i, w as i64));
        let batches = two_batches(&deltas, zpoly);
        check_maintain_agreement(&query, &db, &batches);
    }

    /// The difference-pair lifting of ℕ: deletions live in the negative
    /// component, equality is the quotient relation.
    #[test]
    fn diffpair_maintain_agreement(
        recipe in arb_recipe(), facts in arb_facts(), deltas in arb_deltas()
    ) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        let db = build_db(&facts, |i, w| diff_nat(i, w as i64));
        let batches = two_batches(&deltas, diff_nat);
        check_maintain_agreement(&query, &db, &batches);
    }

    /// Insert-only batches need no additive inverses: maintenance is exact
    /// over the plain bag semiring ℕ (the delta rules only use linearity).
    #[test]
    fn natural_insert_only_maintain_agreement(
        recipe in arb_recipe(), facts in arb_facts(), deltas in arb_deltas()
    ) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        let db = build_db(&facts, |_, w| Natural::from(w));
        let batches = two_batches(&deltas, |_, w| Natural::from(w.unsigned_abs()));
        check_maintain_agreement(&query, &db, &batches);
    }

    /// Delete-heavy: after deleting *every* base tuple exactly (ℤ deltas
    /// summing each annotation to zero), the maintained view must be empty —
    /// retained join state must not leak deleted rows back.
    #[test]
    fn delete_to_zero_empties_the_view(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        let db = build_db(&facts, |_, w| Integers::new(w as i64));
        let Ok(plan) = Plan::new(&query, &db.catalog()) else { return; };
        let mut batch = DeltaBatch::new();
        for (name, relation) in db.iter() {
            for (tuple, k) in relation.iter() {
                batch.delete(name.clone(), tuple.clone(), *k);
            }
        }
        let mut view = plan.materialize(&db);
        plan.maintain(&mut view, &batch);
        prop_assert!(
            view.result().is_empty(),
            "deleted base left residue: {:?} on {query:?}",
            view.result()
        );
        // And deleting again re-inserts negatives: still equal to recompute.
        let mut db2 = db.clone();
        batch.apply_to(&mut db2);
        batch.apply_to(&mut db2);
        plan.maintain(&mut view, &batch);
        prop_assert_eq!(view.result(), &plan.execute(&db2));
    }
}

/// Large deltas: after each 600-row batch the one maintained view must be
/// byte-identical to recomputation at 1, 2 and 4 threads, whose parallel
/// paths a base of this size actually takes — including the retained
/// state (checked behaviorally: later batches keep agreeing).
#[test]
fn parallel_maintain_is_byte_identical_on_large_deltas() {
    let values: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
    let mut r = KRelation::empty(Schema::new(["a", "b", "c"]));
    for i in 0..3000u64 {
        r.insert(
            Tuple::new([
                ("a", values[(i % 37) as usize].as_str()),
                ("b", values[(i % 7) as usize].as_str()),
                ("c", values[(i % 11) as usize].as_str()),
            ]),
            Integers::new(1 + (i % 3) as i64),
        );
    }
    let mut s = KRelation::empty(Schema::new(["b", "d"]));
    for i in 0..40u64 {
        s.insert(
            Tuple::new([
                ("b", values[(i % 7) as usize].as_str()),
                ("d", values[(i % 5) as usize].as_str()),
            ]),
            Integers::new(1),
        );
    }
    let mut db = Database::new().with("R", r).with("S", s);
    let query = RaExpr::relation("R")
        .select(Predicate::ne_value("c", "v0"))
        .join(RaExpr::relation("S"))
        .project(["a", "d"]);
    let plan = Plan::new(&query, &db.catalog()).unwrap();

    let contexts = [
        ExecContext::serial(),
        ExecContext::with_threads(2),
        ExecContext::with_threads(4),
    ];
    let mut view = plan.materialize(&db);

    for round in 0..2 {
        // A 600-row mixed batch: inserts of fresh rows, deletions of
        // existing ones.
        let mut batch = DeltaBatch::new();
        for i in 0..600u64 {
            let tuple = Tuple::new([
                ("a", values[((i + round * 13) % 37) as usize].as_str()),
                ("b", values[(i % 7) as usize].as_str()),
                ("c", values[((i + 1) % 11) as usize].as_str()),
            ]);
            if i % 3 == 0 {
                batch.delete_one("R", tuple);
            } else {
                batch.insert("R", tuple, Integers::new(2));
            }
        }
        plan.maintain(&mut view, &batch);
        batch.apply_to(&mut db);
        for ctx in &contexts {
            assert_eq!(
                view.result(),
                &plan.execute_with(&db, ctx),
                "round {round}: maintain != recompute at {} threads",
                ctx.threads
            );
        }
    }
}

/// Dictionary overflow in retained join state: a maintained join whose
/// build side accumulates more than `DICT_MAX` (2^16) distinct strings
/// forces the retained key column to degrade from dictionary codes to
/// plain values *mid-maintenance*. The delta rules must stay exact across
/// the representation change — including delete-to-zero batches aimed at
/// the overflowed columnar state afterwards.
#[test]
fn dictionary_overflow_deltas_keep_columnar_join_state_exact() {
    const OVERFLOW: u64 = (1 << 16) + 500;
    let keys = ["p", "q", "r"];
    let uniq: Vec<String> = (0..OVERFLOW).map(|i| format!("x{i:06}")).collect();

    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    for i in 0..8u64 {
        r.insert(
            Tuple::new([
                ("a", uniq[i as usize].as_str()),
                ("b", keys[(i % 3) as usize]),
            ]),
            Integers::new(1),
        );
    }
    let mut s = KRelation::empty(Schema::new(["b", "c"]));
    for (i, key) in keys.iter().enumerate() {
        s.insert(
            Tuple::new([("b", *key), ("c", VALUES[i % VALUES.len()])]),
            Integers::new(1 + i as i64),
        );
    }
    let mut db = Database::new().with("R", r).with("S", s);
    let query = RaExpr::relation("R").join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &db.catalog()).unwrap();
    let mut view = plan.materialize(&db);
    let serial = ExecContext::serial();

    // Batch 1: push every remaining distinct string through ΔR. The join
    // side's `a` column crosses DICT_MAX partway through this batch.
    let mut grow = DeltaBatch::new();
    for i in 8..OVERFLOW {
        grow.insert(
            "R",
            Tuple::new([
                ("a", uniq[i as usize].as_str()),
                ("b", keys[(i % 3) as usize]),
            ]),
            Integers::new(1),
        );
    }
    plan.maintain(&mut view, &grow);
    grow.apply_to(&mut db);
    assert_eq!(
        view.result(),
        &plan.execute_with(&db, &serial),
        "overflowing batch diverged from recompute"
    );

    // Batch 2: delete half of the inserted rows down to annotation zero
    // (against the now-overflowed build side) and insert a few fresh
    // strings through the post-overflow Val representation.
    let mut shrink = DeltaBatch::new();
    for i in 0..OVERFLOW / 2 {
        shrink.delete(
            "R",
            Tuple::new([
                ("a", uniq[i as usize].as_str()),
                ("b", keys[(i % 3) as usize]),
            ]),
            Integers::new(1),
        );
    }
    let fresh: Vec<String> = (0..4).map(|i| format!("y{i}")).collect();
    for (i, a) in fresh.iter().enumerate() {
        shrink.insert(
            "R",
            Tuple::new([("a", a.as_str()), ("b", keys[i % 3])]),
            Integers::new(2),
        );
    }
    plan.maintain(&mut view, &shrink);
    shrink.apply_to(&mut db);
    let recomputed = plan.execute_with(&db, &serial);
    assert_eq!(
        view.result(),
        &recomputed,
        "delete-to-zero against overflowed state diverged from recompute"
    );
    // The deleted strings are gone from the view; the fresh ones joined.
    let gone = Value::from(uniq[0].as_str());
    assert!(view
        .result()
        .iter()
        .all(|(t, _)| t.values().all(|v| *v != gone)));
    let kept = Value::from(fresh[0].as_str());
    assert!(view
        .result()
        .iter()
        .any(|(t, _)| t.values().any(|v| *v == kept)));
}
