//! Differential test: the morsel-driven parallel executor agrees with the
//! serial path — and both with the tree-walking interpreter — **exactly**:
//! same `KRelation` (support, annotation values, and therefore iteration
//! order), same errors, at `threads ∈ {1, 2, 4}`, across the five
//! differential semirings (𝔹, ℕ, tropical,
//! Why(X), PosBool) and the provenance-circuit route.
//!
//! Two workload families: proptest-random small databases (exercising the
//! inline, below-threshold paths and every operator combination) and a
//! deterministic large database (exceeding the spawn threshold, so real
//! worker threads, exchanges, and — for circuits — batches of node ids
//! re-stamped per worker are on the hot path).

use proptest::prelude::*;
use provsem_core::plan::{ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_core::provenance::{specialize_circuit_with, specialize_with};
use provsem_semiring::{circuit, Bool, Natural, PosBool, Semiring, Tropical, WhySet};

const THREADS: [usize; 2] = [2, 4];

/// Query shapes covering every physical operator: pipelined σ/π/permute,
/// unions (incl. above joins), duplicate-producing projections (pre-join
/// aggregation), self joins, swapped build sides, and key-less joins.
fn query_shapes() -> Vec<RaExpr> {
    let r = || RaExpr::relation("R");
    let s = || RaExpr::relation("S");
    vec![
        // Section-2 style self join through a shared attribute + projection.
        paper_example_query("R"),
        // Pipelined select + permute (rename) over a scan.
        r().select(Predicate::eq_value("a", "v1"))
            .rename(Renaming::new([("a", "x")])),
        // Join with a duplicate-producing projection input (agg inserted).
        r().project(["a", "b"]).join(s()),
        // Union of projections, then join (duplicates from both sides).
        r().project(["b"]).union(s().project(["b"])).join(s()),
        // Join keyed on two attributes, plus a selection above.
        r().join(s().rename(Renaming::new([("d", "c")])))
            .select(Predicate::ne_value("b", "v0")),
        // Self join after disjoint renames: no shared attributes → key-less
        // (cross) join through the exchange's single partition.
        r().project(["a"])
            .rename(Renaming::new([("a", "x")]))
            .join(r().project(["c"]).rename(Renaming::new([("c", "y")]))),
        // Deep union tree (partition-count coalescing).
        r().union(r()).union(r().union(r())).project(["a", "c"]),
        // Selection that empties one join input (∅ propagation at runtime).
        r().select(Predicate::eq_value("a", "no-such-value"))
            .join(s()),
    ]
}

fn schema_r() -> Schema {
    Schema::new(["a", "b", "c"])
}

fn schema_s() -> Schema {
    Schema::new(["b", "d"])
}

/// Deterministic pseudo-random facts (labels index a small shared domain so
/// joins actually match).
fn facts(seed: u64, rows: usize, domain: u64) -> Vec<(String, String, String, u64)> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rows)
        .map(|_| {
            (
                format!("v{}", next() % domain),
                format!("v{}", next() % domain),
                format!("v{}", next() % domain),
                next() % 5 + 1,
            )
        })
        .collect()
}

fn build_db<K: Semiring>(
    rows: &[(String, String, String, u64)],
    annotate: impl Fn(usize, u64) -> K,
) -> Database<K> {
    let mut r = KRelation::empty(schema_r());
    let mut s = KRelation::empty(schema_s());
    for (i, (a, b, c, w)) in rows.iter().enumerate() {
        let k = annotate(i, *w);
        if i % 3 == 0 {
            s.insert(Tuple::new([("b", b.as_str()), ("d", c.as_str())]), k);
        } else {
            r.insert(
                Tuple::new([("a", a.as_str()), ("b", b.as_str()), ("c", c.as_str())]),
                k,
            );
        }
    }
    Database::new().with("R", r).with("S", s)
}

/// Exact agreement with the interpreter, serial and parallel, for one
/// database over one semiring.
fn check_db<K: Semiring>(db: &Database<K>) {
    let catalog = db.catalog();
    for query in query_shapes() {
        let plan = Plan::new(&query, &catalog).expect("shapes are valid over R/S");
        let reference = query
            .eval_interpreted(db)
            .expect("shapes are valid over R/S");
        let serial = plan.execute_with(db, &ExecContext::serial());
        assert_eq!(reference, serial, "serial query={query:?}");
        for threads in THREADS {
            let parallel = plan.execute_with(db, &ExecContext::with_threads(threads));
            assert_eq!(reference, parallel, "threads={threads} query={query:?}");
        }
    }
}

/// All five differential semirings. The set-valued provenance semirings
/// (Why(X), PosBool) get a reduced row budget: their annotations grow with
/// every summed duplicate, which is the point of the differential (exact
/// value agreement) but quadratic on purpose-built large joins.
fn check_seed(seed: u64, rows: usize) {
    let raw = facts(seed, rows, 6 + (rows / 40) as u64);
    check_db(&build_db(&raw, |_, w| Natural::from(w)));
    check_db(&build_db(&raw, |_, _| Bool::from(true)));
    check_db(&build_db(&raw, |_, w| Tropical::cost(w)));
    let raw = facts(seed, rows.min(60), 6);
    check_db(&build_db(&raw, |i, _| WhySet::var(format!("t{i}"))));
    check_db(&build_db(&raw, |i, _| PosBool::var(format!("t{i}"))));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Small random instances: every operator path, inline and spawned.
    #[test]
    fn parallel_equals_serial_on_random_small_instances(seed in 0u64..1_000_000_000, rows in 1usize..40) {
        check_seed(seed, rows);
    }
}

/// Large deterministic instances: big enough that the executor genuinely
/// spawns workers and exchanges partitions at both thread counts (the
/// set-valued semirings run at their reduced budget inside `check_seed`).
#[test]
fn parallel_equals_serial_on_large_instances() {
    for seed in [7, 42, 1234] {
        check_seed(seed, 600);
    }
}

/// Planning errors do not depend on the execution context (they happen
/// before execution), and `eval` — which routes through the env-default
/// context — reports them identically.
#[test]
fn invalid_queries_error_identically() {
    let raw = facts(1, 30, 4);
    let db = build_db(&raw, |_, w| Natural::from(w));
    for query in [
        RaExpr::relation("Missing"),
        RaExpr::relation("R").project(["nope"]),
        RaExpr::relation("R").union(RaExpr::relation("S")),
    ] {
        let planned = Plan::new(&query, &db.catalog()).map(|_| ());
        assert_eq!(planned, query.eval(&db).map(|_| ()), "query={query:?}");
        assert!(planned.is_err());
    }
}

/// The circuit route end to end: tag → parallel query (workers intern into
/// the one process-wide arena) → specialization. Parallel circuit handles
/// may be *different node ids* than serial ones (partial sums are grouped
/// per partition), but they must be semantically equal
/// (`KRelation<Circuit>` equality lowers to ℕ\[X\]) and specialize to
/// identical K-relations.
#[test]
fn circuit_route_parallel_equals_serial_end_to_end() {
    let raw = facts(11, 400, 8);
    let db = build_db(&raw, |_, w| Natural::from(w));
    let catalog = db.catalog();
    for query in query_shapes() {
        circuit::reset();
        let tagged = provsem_core::tag_database_circuit(&db);
        let plan = Plan::new(&query, &catalog).expect("valid");
        let serial_prov = plan.execute_with(&tagged.database, &ExecContext::serial());
        let serial_out = provsem_core::specialize_circuit(&serial_prov, &tagged.valuation);
        for threads in THREADS {
            let ctx = ExecContext::with_threads(threads);
            let parallel_prov = plan.execute_with(&tagged.database, &ctx);
            assert_eq!(
                serial_prov, parallel_prov,
                "threads={threads} query={query:?}"
            );
            let parallel_out = specialize_circuit_with(&parallel_prov, &tagged.valuation, &ctx);
            assert_eq!(
                serial_out, parallel_out,
                "threads={threads} query={query:?}"
            );
        }
    }
}

/// The polynomial specialization fan-out agrees with the serial `Eval_v`.
#[test]
fn parallel_specialization_of_polynomials_matches_serial() {
    let raw = facts(23, 700, 6);
    let db = build_db(&raw, |_, w| Natural::from(w));
    let (prov, valuation) =
        provsem_core::provenance_of_query(&paper_example_query("R"), &db).expect("valid");
    let serial = provsem_core::specialize(&prov, &valuation);
    for threads in THREADS {
        let parallel = specialize_with(&prov, &valuation, &ExecContext::with_threads(threads));
        assert_eq!(serial, parallel, "threads={threads}");
    }
}
