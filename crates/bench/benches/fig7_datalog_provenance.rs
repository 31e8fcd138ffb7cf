//! E7 — Figure 7: datalog transitive closure over ℕ∞ and its power-series
//! provenance via the algebraic system.
//!
//! The bench bodies run under the semi-naive machinery: `evaluate_natinf`'s
//! support fixpoint (inside `Grounding::new`) is the compiled delta-driven,
//! index-probed loop over 𝔹, and the `fig7_naive_vs_seminaive` group
//! additionally compares the naive Kleene oracle (`kleene_iterate`) with the
//! semi-naive loop head-to-head on the bounded ℕ∞ iteration.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provsem_bench::{random_dag_store, random_graph_store, report_rows};
use provsem_core::paper::{figure7_bag, figure7_expected};
use provsem_datalog::{
    evaluate_natinf, evaluate_with_bound, kleene_iterate, AlgebraicSystem, EvalStrategy, Fact,
    FactStore, Program,
};
use provsem_semiring::NatInf;

fn figure7_store() -> FactStore<NatInf> {
    let mut store = FactStore::new();
    store.import_relation("R", figure7_bag().get("R").unwrap(), &["src", "dst"]);
    store
}

fn reproduce_figure7() {
    let program = Program::transitive_closure("R", "Q");
    let out = evaluate_natinf(&program, &figure7_store());
    let rows: Vec<(String, String)> = figure7_expected()
        .into_iter()
        .map(|(s, d, expected)| {
            let got = out.annotation(&Fact::new("Q", [s, d]));
            (
                format!("Q({s},{d})"),
                format!("measured {got}, paper {expected}"),
            )
        })
        .collect();
    report_rows("Figure 7(b): transitive closure over ℕ∞", &rows);
    let system = AlgebraicSystem::build_default(&program, &figure7_store());
    report_rows(
        "Figure 7(f): algebraic system",
        &[("equations".into(), system.len().to_string())],
    );
}

fn bench(c: &mut Criterion) {
    reproduce_figure7();
    let program = Program::transitive_closure("R", "Q");
    let mut group = c.benchmark_group("fig7_tc_ninfinity");
    for (nodes, edges) in [(8usize, 12usize), (16, 30), (24, 50)] {
        let edb = random_graph_store(42, nodes, edges);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}n_{edges}e")),
            &edb,
            |b, edb| b.iter(|| evaluate_natinf(&program, edb).len()),
        );
    }
    // Truncated power-series provenance on an acyclic instance.
    let dag = random_dag_store(42, 4, 3);
    group.bench_function("series_solution_dag", |b| {
        let system = AlgebraicSystem::build_default(&program, &dag);
        b.iter(|| system.solve_series(4, 4).len())
    });
    group.finish();

    // Bounded ℕ∞ Kleene iteration (8 rounds — the instances are cyclic, so
    // it does not converge): the oracle's re-multiplication of its scanned
    // instantiation vs the differential evaluator (ℕ∞ saturates instead of
    // overflowing, so the deep-round comparison is exact — results pinned
    // identical by `datalog/tests/columnar_differential.rs`).
    let mut cmp = c.benchmark_group("fig7_naive_vs_seminaive");
    for (nodes, edges) in [(16usize, 30usize), (24, 50)] {
        let edb = random_graph_store(42, nodes, edges);
        let size = format!("{nodes}n_{edges}e");
        cmp.bench_with_input(BenchmarkId::new("naive", &size), &edb, |b, edb| {
            b.iter(|| kleene_iterate(&program, edb, 8).idb.len())
        });
        cmp.bench_with_input(BenchmarkId::new("seminaive", &size), &edb, |b, edb| {
            b.iter(|| {
                evaluate_with_bound(&program, edb, EvalStrategy::SemiNaive, 8)
                    .idb
                    .len()
            })
        });
    }
    cmp.finish();
}

criterion_group! { name = benches; config = common::short(); targets = bench }
criterion_main!(benches);
