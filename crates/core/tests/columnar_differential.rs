//! Differential test: the columnar executor agrees with the tree-walking
//! interpreter.
//!
//! Random `RaExpr`s of bounded depth (the same recipe decoder as
//! `planner_differential.rs`, covering every operator including ill-typed
//! combinations) are planned once and executed at 1, 2 and 4 threads. Every
//! `Result` must equal `RaExpr::eval_interpreted`'s **exactly**: the same
//! `EvalError` on invalid queries and annotation-identical `KRelation`s on
//! valid ones — over 𝔹, ℕ, the tropical semiring, why-provenance and
//! PosBool.
//!
//! The deterministic tests at the bottom pin the columnar edge cases:
//! zero-arity schemas, empty inputs, batches smaller than a morsel,
//! dictionary overflow into plain `Value` columns, and mixed-type columns
//! that defeat typed encodings.

use proptest::prelude::*;
use provsem_core::plan::{ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::{Bool, Natural, PosBool, Semiring, Tropical, WhySet};

const CASES: u32 = 64;

const ATTRS: [&str; 5] = ["a", "b", "c", "d", "z"];
const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

type RawFact = (u8, u8, u8, u8, u64);

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

fn build_db<K: Semiring>(facts: &[RawFact], annotate: impl Fn(usize, u64) -> K) -> Database<K> {
    let mut r = KRelation::empty(Schema::new(["a", "b", "c"]));
    let mut s = KRelation::empty(Schema::new(["b", "c", "d"]));
    let mut t = KRelation::empty(Schema::new(["d"]));
    for (i, (rel, x, y, z, w)) in facts.iter().enumerate() {
        let v = |n: &u8| VALUES[*n as usize % VALUES.len()];
        let k = annotate(i, *w);
        match rel % 3 {
            0 => r.insert(Tuple::new([("a", v(x)), ("b", v(y)), ("c", v(z))]), k),
            1 => s.insert(Tuple::new([("b", v(x)), ("c", v(y)), ("d", v(z))]), k),
            _ => t.insert(Tuple::new([("d", v(x))]), k),
        }
    }
    Database::new().with("R", r).with("S", s).with("T", t)
}

/// Plans and executes the query under an explicit context, mirroring
/// `RaExpr::eval` but with the thread budget pinned.
fn eval_in<K: Semiring>(
    query: &RaExpr,
    db: &Database<K>,
    ctx: &ExecContext,
) -> Result<KRelation<K>, EvalError> {
    Plan::new(query, &db.catalog()).map(|plan| plan.execute_with(db, ctx))
}

/// The differential contract: the executor at every thread budget produces
/// the interpreter's `Result` — same error on invalid queries, same relation
/// (annotations included) on valid ones.
fn assert_interpreter_agreement<K: Semiring>(query: &RaExpr, db: &Database<K>) {
    let baseline = query.eval_interpreted(db);
    for threads in [1usize, 2, 4] {
        let got = eval_in(query, db, &ExecContext::with_threads(threads));
        assert_eq!(
            got, baseline,
            "{threads} threads disagrees with the interpreter on {query:?}"
        );
    }
}

fn arb_recipe() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 8..48)
}

fn arb_facts() -> impl Strategy<Value = Vec<RawFact>> {
    prop::collection::vec((0u8..3, 0u8..4, 0u8..4, 0u8..4, 1u64..4), 0..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn boolean_mode_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_interpreter_agreement(&query, &build_db(&facts, |_, _| Bool::from(true)));
    }

    #[test]
    fn natural_mode_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_interpreter_agreement(&query, &build_db(&facts, |_, w| Natural::from(w)));
    }

    #[test]
    fn tropical_mode_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_interpreter_agreement(&query, &build_db(&facts, |_, w| Tropical::cost(w)));
    }

    #[test]
    fn why_provenance_mode_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_interpreter_agreement(&query, &build_db(&facts, |i, _| WhySet::var(format!("t{i}"))));
    }

    #[test]
    fn posbool_mode_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_interpreter_agreement(&query, &build_db(&facts, |i, _| PosBool::var(format!("t{i}"))));
    }
}

// ---------------------------------------------------------------------------
// Deterministic columnar edge cases.
// ---------------------------------------------------------------------------

/// Projecting away every column yields a zero-arity relation: all surviving
/// rows collapse into the single empty tuple, whose annotation is the sum.
/// Zero key columns means every row hashes to the seed — one group.
#[test]
fn zero_arity_projection_agrees() {
    let db = build_db(
        &[(0, 0, 1, 2, 1), (0, 1, 1, 2, 1), (1, 0, 0, 0, 1)],
        |_, w| Natural::from(w * 3),
    );
    let empty_schema = Schema::new(Vec::<&str>::new());
    let queries = [
        RaExpr::Project(empty_schema.clone(), Box::new(RaExpr::relation("R"))),
        RaExpr::Project(
            empty_schema.clone(),
            Box::new(RaExpr::relation("R").select(Predicate::eq_value("b", "v1"))),
        ),
        // Zero-arity join: both sides collapse first, keys are empty.
        RaExpr::Project(empty_schema.clone(), Box::new(RaExpr::relation("R"))).join(
            RaExpr::Project(empty_schema, Box::new(RaExpr::relation("S"))),
        ),
    ];
    for query in &queries {
        assert_interpreter_agreement(query, &db);
        let out = eval_in(query, &db, &ExecContext::serial()).unwrap();
        assert!(out.iter().all(|(t, _)| t.arity() == 0));
    }
}

/// Operators over empty relations produce empty batch streams everywhere in
/// the pipeline; the boundary conversion must not manufacture rows.
#[test]
fn empty_inputs_agree() {
    let db = build_db(&[], |_, _| Natural::from(1u64));
    let queries = [
        RaExpr::relation("R"),
        RaExpr::relation("R").select(Predicate::eq_value("a", "v0")),
        RaExpr::relation("R").join(RaExpr::relation("S")),
        RaExpr::relation("R").union(RaExpr::relation("R")),
        RaExpr::relation("T").project(Vec::<&str>::new()),
    ];
    for query in &queries {
        assert_interpreter_agreement(query, &db);
        let ctx = ExecContext::with_threads(4);
        assert!(eval_in(query, &db, &ctx).unwrap().is_empty());
    }
}

/// A relation far smaller than both the batch budget (4096) and the morsel
/// fan-out still splits across 4 workers: sub-morsel batches must round-trip
/// through seal/exchange/merge without loss or duplication.
#[test]
fn batches_smaller_than_morsel_size_agree() {
    let db = build_db(
        &[
            (0, 0, 1, 2, 2),
            (0, 3, 1, 0, 1),
            (1, 1, 2, 3, 3),
            (1, 0, 1, 2, 1),
            (2, 2, 0, 0, 2),
        ],
        |i, _| WhySet::var(format!("t{i}")),
    );
    let query = RaExpr::relation("R")
        .join(RaExpr::relation("S"))
        .select(Predicate::ne_value("d", "v0"))
        .project(["a", "d"]);
    assert_interpreter_agreement(&query, &db);
}

/// Integer columns take the typed `i64` path: vectorized predicates and
/// join keys compare machine words, never `Value`s.
#[test]
fn integer_columns_agree() {
    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    let mut s = KRelation::empty(Schema::new(["b", "c"]));
    for i in 0..500i64 {
        r.insert(
            Tuple::new([("a", Value::from(i)), ("b", Value::from(i % 7))]),
            Natural::from(1u64 + i as u64 % 3),
        );
        s.insert(
            Tuple::new([("b", Value::from(i % 11)), ("c", Value::from(i))]),
            Natural::from(1u64),
        );
    }
    let db = Database::new().with("R", r).with("S", s);
    let query = RaExpr::relation("R")
        .select(Predicate::ne_value("a", 13i64))
        .join(RaExpr::relation("S"))
        .project(["a", "c"]);
    assert_interpreter_agreement(&query, &db);
    // The scan really is typed: both columns report the i64 encoding.
    let plan = Plan::new(&RaExpr::relation("R"), &db.catalog()).unwrap();
    let layout = plan.explain_batches(&db);
    assert!(
        layout.contains("a=i64") && layout.contains("b=i64"),
        "got: {layout}"
    );
}

/// More distinct strings than the dictionary admits (`DICT_MAX = 65536`):
/// the column degrades to plain `Value` storage and every kernel falls back
/// to content comparison — results must not change.
#[test]
fn dictionary_overflow_agrees() {
    const N: usize = (1 << 16) + 64;
    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    for i in 0..N {
        r.insert(
            Tuple::new([
                ("a", format!("key{i:06}")),
                ("b", VALUES[i % 4].to_string()),
            ]),
            Natural::from(1u64 + (i % 5) as u64),
        );
    }
    let db = Database::new().with("R", r);
    // The overflowing column is carried through a selection on the small
    // dictionary column and a projection that keeps the plain column.
    let query = RaExpr::relation("R")
        .select(Predicate::eq_value("b", "v2"))
        .project(["a"]);
    assert_interpreter_agreement(&query, &db);
    let plan = Plan::new(&RaExpr::relation("R"), &db.catalog()).unwrap();
    let layout = plan.explain_batches(&db);
    assert!(
        layout.contains("a=val"),
        "overflowed column stays typed: {layout}"
    );
    assert!(layout.contains("b=dict(4)"), "got: {layout}");
}

/// A column mixing integers and strings defeats both typed encodings; the
/// `Value` fallback must agree with the interpreter, including on predicates
/// whose constant matches only one of the types.
#[test]
fn mixed_type_columns_agree() {
    let mut r = KRelation::empty(Schema::new(["a", "b"]));
    for i in 0..40i64 {
        let a = if i % 2 == 0 {
            Value::from(i)
        } else {
            Value::from(format!("s{i}"))
        };
        r.insert(
            Tuple::new([("a", a), ("b", Value::from(i % 3))]),
            Natural::from(1u64),
        );
    }
    let db = Database::new().with("R", r);
    for query in [
        RaExpr::relation("R").select(Predicate::eq_value("a", 6i64)),
        RaExpr::relation("R").select(Predicate::eq_value("a", "s7")),
        RaExpr::relation("R")
            .join(RaExpr::relation("R").rename(Renaming::new([("b", "c")])))
            .project(["a"]),
    ] {
        assert_interpreter_agreement(&query, &db);
    }
    let plan = Plan::new(&RaExpr::relation("R"), &db.catalog()).unwrap();
    let layout = plan.explain_batches(&db);
    assert!(layout.contains("a=val"), "got: {layout}");
}
