//! Differential test: the planned query engine agrees with the
//! tree-walking reference interpreter.
//!
//! Random `RaExpr`s of bounded depth (covering every operator, including
//! deliberately ill-typed combinations) are evaluated over random small
//! databases with both `RaExpr::eval` (logical plan → optimizer → positional
//! physical operators) and `RaExpr::eval_interpreted`. The two `Result`s
//! must agree **exactly**: same error on invalid queries (the planner's
//! validation mirrors the interpreter's bottom-up, left-to-right error
//! order), and annotation-identical `KRelation`s on valid ones — over 𝔹, ℕ,
//! the tropical semiring, why-provenance and PosBool.
//!
//! The optimizer's rewrites are additionally pinned by golden
//! `Plan::explain` snapshots at the bottom of this file.

use proptest::prelude::*;
use provsem_core::kernels::BATCH_ROWS;
use provsem_core::plan::{ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::{Bool, Natural, PosBool, Semiring, Tropical, WhySet};

const CASES: u32 = 120;

/// Attribute pool. `z` never occurs in a base schema, so renames and
/// predicates over it exercise the missing-attribute paths.
const ATTRS: [&str; 5] = ["a", "b", "c", "d", "z"];
const VALUES: [&str; 4] = ["v0", "v1", "v2", "v3"];
const RELATIONS: [&str; 3] = ["R", "S", "T"];

/// Raw draw for one database fact: `(relation, v1, v2, v3, weight)`.
type RawFact = (u8, u8, u8, u8, u64);

/// A deterministic byte cursor: random expressions are decoded from a byte
/// recipe, which is what the proptest strategy draws.
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
        // Wraps around when the recipe is exhausted, keeping decoding total.
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
            // Unions need matching schemas to get past validation, so bias
            // towards well-typed ones while keeping the mismatching cases.
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

/// An annotation-free database carrying just the base schemas, used while
/// *generating* expressions to bias unions towards well-typedness.
fn schemas_only() -> Database<Bool> {
    build_db(&[], |_, _| Bool::from(true))
}

/// Builds the test database: `R(a, b, c)`, `S(b, c, d)`, `T(d)`, populated
/// from the raw facts with annotations minted by `annotate` (which receives
/// the fact index and weight, so provenance semirings can assign one
/// variable per tuple).
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

/// The differential contract: planned and interpreted evaluation agree
/// exactly — same error or same relation, annotations included.
fn assert_agreement<K: Semiring>(query: &RaExpr, db: &Database<K>) {
    let planned = query.eval(db);
    let interpreted = query.eval_interpreted(db);
    assert_eq!(
        planned, interpreted,
        "planned vs interpreted disagree on {query:?}"
    );
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
    fn boolean_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_agreement(&query, &build_db(&facts, |_, _| Bool::from(true)));
    }

    #[test]
    fn natural_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_agreement(&query, &build_db(&facts, |_, w| Natural::from(w)));
    }

    #[test]
    fn tropical_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_agreement(&query, &build_db(&facts, |_, w| Tropical::cost(w)));
    }

    #[test]
    fn why_provenance_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_agreement(&query, &build_db(&facts, |i, _| WhySet::var(format!("t{i}"))));
    }

    #[test]
    fn posbool_agreement(recipe in arb_recipe(), facts in arb_facts()) {
        let query = expr(&mut Cursor::new(&recipe), 4);
        assert_agreement(&query, &build_db(&facts, |i, _| PosBool::var(format!("t{i}"))));
    }
}

/// The Section 2 query, optimized: selections are absent, so the rewrite
/// story is projection pushdown — each join input is narrowed to the
/// columns the output and the join key need.
#[test]
fn explain_golden_paper_query() {
    let db = paper::figure3_bag();
    let plan = Plan::new(&paper::section2_query(), &db.catalog()).unwrap();
    // Note the second branch: `π_ac R ⋈ π_bc R` joins on `c` only, and `b`
    // is never needed above, so its right input narrows to `π_c R` and the
    // join produces `{a, c}` directly — no outer projection required.
    let expected = "\
∪
├─ π {a, c}
│  └─ ⋈ on {b} (build: left)
│     ├─ π {a, b}
│     │  └─ scan R {a, b, c}
│     └─ π {b, c}
│        └─ scan R {a, b, c}
└─ ⋈ on {c} (build: left)
   ├─ π {a, c}
   │  └─ scan R {a, b, c}
   └─ π {c}
      └─ scan R {a, b, c}
";
    assert_eq!(plan.explain(), expected, "got:\n{}", plan.explain());
}

/// Selection pushdown + rename fusion: the filter moves below the fused
/// renaming (rewritten through its inverse) and onto the join input that
/// covers it; untouched columns are pruned at the scans.
#[test]
fn explain_golden_pushdown() {
    let db = paper::figure3_bag();
    let query = RaExpr::relation("R")
        .rename(Renaming::new([("a", "tmp")]))
        .rename(Renaming::new([("tmp", "x")]))
        .join(RaExpr::relation("R").rename(Renaming::new([("a", "y")])))
        .select(Predicate::eq_value("x", "a"))
        .project(["x", "y"]);
    let plan = Plan::new(&query, &db.catalog()).unwrap();
    let expected = "\
π {x, y}
└─ ⋈ on {b, c} (build: left)
   ├─ ρ a→x
   │  └─ σ a=a
   │     └─ scan R {a, b, c}
   └─ ρ a→y
      └─ scan R {a, b, c}
";
    assert_eq!(plan.explain(), expected, "got:\n{}", plan.explain());
}

/// `σ_false` collapses the whole plan to the empty relation, and `∅` is the
/// identity of union.
#[test]
fn explain_golden_empty_propagation() {
    let db = paper::figure3_bag();
    let query = RaExpr::relation("R")
        .select(Predicate::False)
        .union(RaExpr::relation("R"));
    let plan = Plan::new(&query, &db.catalog()).unwrap();
    assert_eq!(plan.explain(), "scan R {a, b, c}\n");
}

/// A projection that drops only a constant-pinned column (the shape column
/// pruning produces around every `σ_{attr=const}`) cannot introduce
/// duplicate rows, so the join input stays pipelined: **no `agg` node**.
/// Before the tightened duplicate analysis this projection forced a
/// pre-join aggregation.
#[test]
fn explain_physical_golden_pinned_projection_stays_pipelined() {
    let db = paper::figure3_bag();
    let catalog = db.catalog().with("S", Schema::new(["b", "d"]), 3);
    let query = RaExpr::relation("R")
        .select(Predicate::eq_value("c", "v0"))
        .project(["a", "b"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let expected = "\
hash-join build=left keys[1]/[0]
├─ π cols[0, 1]
│  └─ σ
│     └─ scan R {a, b, c} [batch=4096]
└─ scan S {b, d} [batch=4096]
";
    assert_eq!(
        plan.explain_physical_with(&ExecContext::serial()),
        expected,
        "got:\n{}",
        plan.explain_physical_with(&ExecContext::serial())
    );
    assert!(!plan
        .explain_physical_with(&ExecContext::serial())
        .contains("agg"));
    // The differential guard: planned equals interpreted on data.
    let mut dbs = db.clone();
    dbs.insert(
        "S",
        KRelation::from_tuples(
            Schema::new(["b", "d"]),
            [
                (Tuple::new([("b", "b"), ("d", "x")]), Natural::from(2u64)),
                (Tuple::new([("b", "g"), ("d", "y")]), Natural::from(3u64)),
                (Tuple::new([("b", "q"), ("d", "z")]), Natural::from(1u64)),
            ],
        ),
    );
    assert_eq!(
        query.eval(&dbs).unwrap(),
        query.eval_interpreted(&dbs).unwrap()
    );
}

/// The contrast case: dropping a column that is *not* determined by the
/// kept ones can merge distinct rows, so the join input is aggregated
/// (`agg` below the join) exactly as before.
#[test]
fn explain_physical_golden_duplicating_projection_is_aggregated() {
    let db = paper::figure3_bag();
    let catalog = db.catalog().with("S", Schema::new(["b", "d"]), 3);
    let query = RaExpr::relation("R")
        .project(["a", "b"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let expected = "\
hash-join build=left keys[1]/[0]
├─ agg
│  └─ π cols[0, 1]
│     └─ scan R {a, b, c} [batch=4096]
└─ scan S {b, d} [batch=4096]
";
    assert_eq!(
        plan.explain_physical_with(&ExecContext::serial()),
        expected,
        "got:\n{}",
        plan.explain_physical_with(&ExecContext::serial())
    );
}

/// Under a multi-threaded [`ExecContext`] the physical rendering shows how
/// execution fans out: scans are split into morsels and hash joins /
/// pre-join aggregations into key partitions, one worker each. The counts
/// are a function of the context alone, so this snapshot is pinned at 4
/// threads regardless of `PROVSEM_THREADS`.
#[test]
fn explain_physical_golden_renders_morsel_and_partition_counts() {
    let db = paper::figure3_bag();
    let catalog = db.catalog().with("S", Schema::new(["b", "d"]), 3);
    let query = RaExpr::relation("R")
        .project(["a", "b"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let expected = "\
hash-join build=left keys[1]/[0] [partitions=4]
├─ agg [partitions=4]
│  └─ π cols[0, 1]
│     └─ scan R {a, b, c} [batch=4096] [morsels=4]
└─ scan S {b, d} [batch=4096] [morsels=4]
";
    let rendered = plan.explain_physical_with(&ExecContext::with_threads(4));
    assert_eq!(rendered, expected, "got:\n{rendered}");
    // The serial rendering stays count-free (and snapshot-compatible).
    assert!(!plan
        .explain_physical_with(&ExecContext::serial())
        .contains("partitions"));
}

/// Each scan shows its batch row budget — the executor's morsel unit,
/// [`BATCH_ROWS`], not a literal of the renderer — ahead of the morsel
/// count, at any thread budget.
#[test]
fn explain_physical_golden_batch_mode_renders_batch_budget() {
    let db = paper::figure3_bag();
    let catalog = db.catalog().with("S", Schema::new(["b", "d"]), 3);
    let query = RaExpr::relation("R")
        .project(["a", "b"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let rendered = plan.explain_physical_with(&ExecContext::with_threads(2));
    let budget = format!(" [batch={BATCH_ROWS}] [morsels=2]\n");
    for scan in ["scan R {a, b, c}", "scan S {b, d}"] {
        assert!(
            rendered.contains(&format!("{scan}{budget}")),
            "got:\n{rendered}"
        );
    }
}

/// `Plan::explain_batches` reports the columnar layout per scan against a
/// concrete source: row and batch counts plus each column's encoding —
/// string columns dictionary-encoded with their distinct-string counts —
/// and where the batches come from: converted while the relation version
/// holds no columnar form, the held form once an execution converted it
/// (a plain `Database` too — the form lives on the relation).
#[test]
fn explain_batches_golden_reports_dictionary_columns() {
    let db = paper::figure3_bag();
    let plan = Plan::new(&RaExpr::relation("R").project(["a", "b"]), &db.catalog()).unwrap();
    let expected =
        "scan R: rows=3 batches=1 cols[a=dict(3), b=dict(2), c=dict(2)] source=converted\n";
    let rendered = plan.explain_batches(&db);
    assert_eq!(rendered, expected, "got:\n{rendered}");
    plan.execute(&db);
    let expected = "scan R: rows=3 batches=1 cols[a=dict(3), b=dict(2), c=dict(2)] source=cached\n";
    let rendered = plan.explain_batches(&db);
    assert_eq!(rendered, expected, "got:\n{rendered}");
}

/// An attribute-equality selection (`a=c`) determines the dropped column
/// through the kept one, so the rename-like projection stays pipelined too.
#[test]
fn explain_physical_equality_determined_projection_stays_pipelined() {
    let db = paper::figure3_bag();
    let catalog = db.catalog().with("S", Schema::new(["b", "d"]), 3);
    let query = RaExpr::relation("R")
        .select(Predicate::eq_attrs("a", "c"))
        .project(["a", "b"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let physical = plan.explain_physical_with(&ExecContext::serial());
    assert!(!physical.contains("agg"), "got:\n{physical}");
    // Dropping the *kept-side* of the pair keeps working symmetrically.
    let query = RaExpr::relation("R")
        .select(Predicate::eq_attrs("a", "c"))
        .project(["b", "c"])
        .join(RaExpr::relation("S"));
    let plan = Plan::new(&query, &catalog).unwrap();
    let physical = plan.explain_physical_with(&ExecContext::serial());
    assert!(!physical.contains("agg"), "got:\n{physical}");
}
