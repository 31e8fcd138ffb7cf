//! E6 — Figure 6: conjunctive queries as datalog under bag semantics.
//!
//! The swept bodies run under the **semi-naive** evaluation strategy
//! (`EvalStrategy::SemiNaive`: delta-driven, index-probed joins, no up-front
//! grounding); the `fig6_naive_vs_seminaive` group benchmarks it against the
//! naive Kleene oracle (`kleene_iterate`) on the same workload so the
//! speedup is measured, not assumed.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provsem_bench::{random_dag_store, report_rows};
use provsem_core::paper::figure6_expected;
use provsem_core::plan::ExecContext;
use provsem_datalog::seminaive::seminaive_iterate_with;
use provsem_datalog::{
    edge_facts, evaluate_with_bound, kleene_iterate, EvalStrategy, Fact, Program,
};
use provsem_semiring::Natural;

fn reproduce_figure6() {
    let program = Program::figure6_query();
    let edb = edge_facts(
        "R",
        &[
            ("a", "a", Natural::from(2u64)),
            ("a", "b", Natural::from(3u64)),
            ("b", "b", Natural::from(4u64)),
        ],
    );
    let out = evaluate_with_bound(&program, &edb, EvalStrategy::SemiNaive, 4);
    let rows: Vec<(String, String)> = figure6_expected()
        .into_iter()
        .map(|(x, y, expected)| {
            let got = out.idb.annotation(&Fact::new("Q", [x, y]));
            (
                format!("Q({x},{y})"),
                format!("measured {got}, paper {expected}"),
            )
        })
        .collect();
    report_rows("Figure 6(c): conjunctive query under bag semantics", &rows);
}

fn bench(c: &mut Criterion) {
    reproduce_figure6();
    let program = Program::figure6_query();
    let mut group = c.benchmark_group("fig6_cq_bag_datalog");
    for width in [3usize, 6, 9] {
        let edb = random_dag_store(42, 3, width);
        group.bench_with_input(BenchmarkId::from_parameter(width), &edb, |b, edb| {
            b.iter(|| {
                evaluate_with_bound(&program, edb, EvalStrategy::SemiNaive, 4)
                    .idb
                    .len()
            })
        });
    }
    group.finish();

    // Naive vs semi-naive on the fig6 workload, up to its largest size: the
    // naive body pays the oracle's scanning grounding plus a
    // re-multiplication of every ground rule per round, the semi-naive body
    // joins each derivation once.
    // The `seminaive_par4` body runs the same semi-naive rounds with their
    // delta-rule application fanned out over 4 worker threads
    // (round-for-round identical results on every body, pinned by
    // `datalog/tests/parallel_differential.rs` and
    // `datalog/tests/columnar_differential.rs`).
    let mut cmp = c.benchmark_group("fig6_naive_vs_seminaive");
    for width in [9usize, 12] {
        let edb = random_dag_store(42, 3, width);
        cmp.bench_with_input(BenchmarkId::new("naive", width), &edb, |b, edb| {
            b.iter(|| kleene_iterate(&program, edb, 4).idb.len())
        });
        cmp.bench_with_input(BenchmarkId::new("seminaive", width), &edb, |b, edb| {
            b.iter(|| {
                evaluate_with_bound(&program, edb, EvalStrategy::SemiNaive, 4)
                    .idb
                    .len()
            })
        });
        let par4 = ExecContext::with_threads(4);
        cmp.bench_with_input(BenchmarkId::new("seminaive_par4", width), &edb, |b, edb| {
            b.iter(|| seminaive_iterate_with(&program, edb, 4, &par4).idb.len())
        });
    }
    cmp.finish();

    // Parallel semi-naive transitive closure on a layered DAG big enough
    // that each round's differential joins dominate coordination: the
    // serial body is the `threads = 1` loop, the parallel bodies partition
    // each round's work items across scoped workers. On a multi-core machine the ratio is the datalog engine's
    // scaling; on a single-core runner it measures the (small) coordination
    // overhead.
    let tc = Program::transitive_closure("R", "Q");
    let mut par = c.benchmark_group("fig6_parallel_seminaive_tc");
    let edb = random_dag_store(7, 6, 24);
    for threads in [1usize, 2, 4] {
        let ctx = ExecContext::with_threads(threads);
        par.bench_with_input(
            BenchmarkId::new("tc_layered_6x24", format!("threads{threads}")),
            &edb,
            |b, edb| b.iter(|| seminaive_iterate_with(&tc, edb, 16, &ctx).idb.len()),
        );
    }
    par.finish();
}

criterion_group! { name = benches; config = common::short(); targets = bench }
criterion_main!(benches);
