//! IVM — incremental view maintenance against from-scratch re-execution.
//!
//! A 10 000-row ℤ-annotated base joins a small dimension relation through a
//! planned σ/⋈/π query. The `recompute` target re-executes the plan on the
//! full base; the `maintain/N` targets absorb an N-row delta batch into a
//! [`MaterializedView`] and then absorb its exact inverse (so the view is
//! back at the start and every iteration does the same work — each sample
//! therefore prices *two* maintenance calls). The headline number the
//! roadmap tracks: maintaining a 10-row delta must beat re-executing the
//! 10k-row base by ≥5×, which the preamble measures and prints explicitly
//! (committed as `BENCH_ivm.json`).

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provsem_bench::report_rows;
use provsem_core::plan::{DeltaBatch, ExecContext, Plan};
use provsem_core::prelude::*;
use provsem_semiring::{Integers, Ring};
use std::time::Instant;

const BASE_ROWS: u64 = 10_000;

/// The 10k-row base: R(a, b, c) with distinct rows (c is unique), joined to
/// a 100-row S(b, d) through 50 shared b-values.
fn base_db() -> Database<Integers> {
    let mut r = KRelation::empty(Schema::new(["a", "b", "c"]));
    for i in 0..BASE_ROWS {
        r.insert(row_r(i), Integers::new(1 + (i % 3) as i64));
    }
    let mut s = KRelation::empty(Schema::new(["b", "d"]));
    for i in 0..100u64 {
        s.insert(
            Tuple::new([("b", format!("b{}", i % 50)), ("d", format!("d{}", i % 7))]),
            Integers::new(1),
        );
    }
    Database::new().with("R", r).with("S", s)
}

fn row_r(i: u64) -> Tuple {
    Tuple::new([
        ("a", format!("a{}", i % 100)),
        ("b", format!("b{}", i % 50)),
        ("c", format!("c{i}")),
    ])
}

fn query() -> RaExpr {
    RaExpr::relation("R")
        .select(Predicate::ne_value("a", "a0"))
        .join(RaExpr::relation("S"))
        .project(["a", "d"])
}

/// An N-row batch: half deletions of existing base rows (exact additive
/// inverses), half inserts of fresh rows beyond the base id range.
fn delta_batch(n: u64) -> DeltaBatch<Integers> {
    let mut batch = DeltaBatch::new();
    for j in 0..n {
        if j % 2 == 0 {
            let i = (j / 2) * 97 % BASE_ROWS;
            batch.delete("R", row_r(i), Integers::new(1 + (i % 3) as i64));
        } else {
            batch.insert("R", row_r(BASE_ROWS + j), Integers::new(2));
        }
    }
    batch
}

fn inverse(batch: &DeltaBatch<Integers>) -> DeltaBatch<Integers> {
    let mut inv = DeltaBatch::new();
    for (name, relation) in batch.iter() {
        for (tuple, k) in relation.iter() {
            inv.insert(name.clone(), tuple.clone(), k.neg());
        }
    }
    inv
}

/// Measures the headline ratio outside Criterion (one warm pass, then a
/// timed loop) and prints it next to the timings; the numbers land in
/// `BENCH_ivm.json`.
fn report_speedups(db: &Database<Integers>, plan: &Plan) {
    let ctx = ExecContext::serial();
    let time = |f: &mut dyn FnMut()| {
        f(); // warm
        let rounds = 20;
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        start.elapsed().as_secs_f64() / f64::from(rounds)
    };
    let recompute = time(&mut || {
        std::hint::black_box(plan.execute_with(db, &ctx).len());
    });
    let mut rows = vec![(
        "recompute".to_string(),
        format!("{:.3} ms (10k-row base)", recompute * 1e3),
    )];
    for n in [1u64, 10, 100] {
        let mut view = plan.materialize(db);
        let batch = delta_batch(n);
        let undo = inverse(&batch);
        let maintain = time(&mut || {
            plan.maintain(&mut view, &batch);
            plan.maintain(&mut view, &undo);
        }) / 2.0;
        rows.push((
            format!("maintain/{n}"),
            format!(
                "{:.4} ms per batch, {:.0}x faster than recompute",
                maintain * 1e3,
                recompute / maintain
            ),
        ));
    }
    report_rows("IVM: maintain vs recompute (ℤ, serial)", &rows);
}

fn bench(c: &mut Criterion) {
    let db = base_db();
    let plan = Plan::new(&query(), &db.catalog()).expect("valid query");

    // Sanity: a maintained view tracks re-execution on this workload.
    let mut view = plan.materialize(&db);
    let batch = delta_batch(10);
    plan.maintain(&mut view, &batch);
    let mut updated = db.clone();
    batch.apply_to(&mut updated);
    assert_eq!(view.result(), &plan.execute(&updated));

    report_speedups(&db, &plan);

    let mut group = c.benchmark_group("fig_ivm_maintenance");
    group.bench_with_input(BenchmarkId::new("recompute", BASE_ROWS), &db, |b, db| {
        b.iter(|| plan.execute(db).len())
    });
    for n in [1u64, 10, 100] {
        let batch = delta_batch(n);
        let undo = inverse(&batch);
        let mut view = plan.materialize(&db);
        group.bench_with_input(BenchmarkId::new("maintain", n), &n, |b, _| {
            b.iter(|| {
                plan.maintain(&mut view, &batch);
                plan.maintain(&mut view, &undo);
            })
        });
    }
    group.finish();
}

criterion_group! { name = benches; config = common::short(); targets = bench }
criterion_main!(benches);
