//! E12 — Ablation: the *same* RA⁺ / datalog algorithms instantiated at
//! different semirings (the paper's central claim), plus naive vs semi-naive
//! datalog for idempotent semirings.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provsem_bench::{random_graph_store, random_ternary_bag, reannotate, report_rows};
use provsem_core::paper::section2_query;
use provsem_core::provenance::provenance_of_query;
use provsem_core::Database;
use provsem_datalog::{evaluate_fixpoint, seminaive_idempotent, Program};
use provsem_semiring::{Bool, NatInf, PosBool, Semiring, Tropical};

fn bench(c: &mut Criterion) {
    let base = random_ternary_bag(42, 150, 10, 4);
    report_rows(
        "Ablation: one query, many semirings",
        &[(
            "input".into(),
            format!("{} tuples over {{a,b,c}}", base.get("R").unwrap().len()),
        )],
    );

    let mut group = c.benchmark_group("ablation_one_query_many_semirings");
    group.bench_function("N_bag", |b| {
        b.iter(|| section2_query().eval(&base).unwrap().len())
    });
    let bool_db: Database<Bool> = reannotate(&base);
    group.bench_function("B_set", |b| {
        b.iter(|| section2_query().eval(&bool_db).unwrap().len())
    });
    let trop_db: Database<Tropical> = base.map_annotations(|n| Tropical::cost(n.value()));
    group.bench_function("Tropical_cost", |b| {
        b.iter(|| section2_query().eval(&trop_db).unwrap().len())
    });
    let counter = std::cell::Cell::new(0usize);
    let posbool_db: Database<PosBool> = base.map_annotations(|_| {
        counter.set(counter.get() + 1);
        PosBool::var(format!("b{}", counter.get()))
    });
    group.bench_function("PosBool_ctable", |b| {
        b.iter(|| section2_query().eval(&posbool_db).unwrap().len())
    });
    group.bench_function("NX_provenance", |b| {
        b.iter(|| {
            provenance_of_query(&section2_query(), &base)
                .unwrap()
                .0
                .len()
        })
    });
    group.finish();

    // Naive vs semi-naive datalog over idempotent semirings.
    let mut group = c.benchmark_group("ablation_naive_vs_seminaive");
    let program = Program::transitive_closure("R", "Q");
    for (nodes, edges) in [(10usize, 20usize), (20, 40)] {
        let edb =
            random_graph_store(42, nodes, edges).map_annotations(|k| Bool::from(!k.is_zero()));
        group.bench_with_input(BenchmarkId::new("naive", nodes), &edb, |b, edb| {
            b.iter(|| evaluate_fixpoint(&program, edb, 256).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("seminaive", nodes), &edb, |b, edb| {
            b.iter(|| seminaive_idempotent(&program, edb, 256).idb.len())
        });
        let trop = random_graph_store(42, nodes, edges)
            .map_annotations(|k| Tropical::cost(k.finite_value().unwrap_or(1)));
        group.bench_with_input(
            BenchmarkId::new("seminaive_tropical", nodes),
            &trop,
            |b, trop| b.iter(|| seminaive_idempotent(&program, trop, 256).idb.len()),
        );
        let _ = NatInf::Fin(0);
    }
    group.finish();
}

criterion_group! { name = benches; config = common::short(); targets = bench }
criterion_main!(benches);
