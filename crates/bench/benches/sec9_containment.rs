//! E11 — Section 9: conjunctive-query containment (Chandra–Merlin /
//! Sagiv–Yannakakis) and the Theorem 9.2 instance checks.
//!
//! Conjunctive queries evaluate on the planned RA engine since the
//! RA-translation refactor; each body is also run on the two pre-planner
//! routes (the datalog fixpoint machinery and the tree-walking RA
//! interpreter) so the speedup is measured on the exact Section 9
//! workloads: the homomorphism (containment) decision procedure, and
//! instance-level `⊑_K` checks on growing edbs.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use provsem_bench::report_rows;
use provsem_containment::{
    check_containment_on_instance, ConjunctiveQuery, UnionOfConjunctiveQueries,
};
use provsem_datalog::edge_facts;
use provsem_semiring::{Natural, PosBool};

/// The k-step path query Q(x0, xk) :- R(x0,x1), …, R(x{k-1},xk).
fn path_query(k: usize) -> ConjunctiveQuery {
    let mut body = Vec::new();
    for i in 0..k {
        body.push(format!("R(x{i}, x{})", i + 1));
    }
    ConjunctiveQuery::parse(&format!("Q(x0, x{k}) :- {}.", body.join(", "))).unwrap()
}

/// `contained_in` by hand, with the disjunct evaluation route pinned.
fn contained_in_via(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    evaluate: impl Fn(
        &ConjunctiveQuery,
        &provsem_datalog::FactStore<provsem_semiring::Bool>,
    ) -> provsem_datalog::FactStore<provsem_semiring::Bool>,
) -> bool {
    let (canonical, frozen_head) = q1.canonical_database::<provsem_semiring::Bool>();
    evaluate(q2, &canonical).contains(&frozen_head)
}

/// A deterministic bag-annotated edge relation: a cycle with chords.
fn chord_graph(nodes: usize) -> Vec<(String, String, Natural)> {
    let mut edges = Vec::new();
    for i in 0..nodes {
        edges.push((
            format!("u{i}"),
            format!("u{}", (i + 1) % nodes),
            Natural::from(1 + (i % 3) as u64),
        ));
        if i % 3 == 0 {
            edges.push((
                format!("u{i}"),
                format!("u{}", (i + 7) % nodes),
                Natural::from(2u64),
            ));
        }
    }
    edges
}

fn bench(c: &mut Criterion) {
    // Reproduce the two headline facts of Section 9.
    let q1 = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y), R(x, z).").unwrap();
    let q2 = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y).").unwrap();
    let lattice_edb = edge_facts(
        "R",
        &[
            ("a", "b", PosBool::var("e1")),
            ("a", "c", PosBool::var("e2")),
        ],
    );
    let bag_edb = edge_facts(
        "R",
        &[
            ("a", "b", Natural::from(1u64)),
            ("a", "c", Natural::from(1u64)),
        ],
    );
    report_rows(
        "Section 9: containment transfer",
        &[
            ("q1 ⊑_B q2".into(), q1.contained_in(&q2).to_string()),
            (
                "q1 ⊑_PosBool q2 (instance)".into(),
                check_containment_on_instance(&q1, &q2, &lattice_edb).to_string(),
            ),
            (
                "q1 ⊑_N q2 (instance)".into(),
                check_containment_on_instance(&q1, &q2, &bag_edb).to_string(),
            ),
        ],
    );

    // The homomorphism decision procedure: evaluate the candidate container
    // over the canonical database of the containee, on all three routes.
    let mut group = c.benchmark_group("sec9_containment");
    for k in [2usize, 4, 6] {
        let long = path_query(k + 1);
        let short = path_query(k);
        group.bench_with_input(BenchmarkId::new("planned", k), &k, |b, _| {
            b.iter(|| (long.contained_in(&short), short.contained_in(&long)))
        });
        group.bench_with_input(BenchmarkId::new("interpreted_ra", k), &k, |b, _| {
            b.iter(|| {
                (
                    contained_in_via(&long, &short, |q, edb| q.evaluate_interpreted(edb)),
                    contained_in_via(&short, &long, |q, edb| q.evaluate_interpreted(edb)),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("datalog", k), &k, |b, _| {
            b.iter(|| {
                (
                    contained_in_via(&long, &short, |q, edb| q.evaluate_datalog(edb)),
                    contained_in_via(&short, &long, |q, edb| q.evaluate_datalog(edb)),
                )
            })
        });
    }
    group.finish();

    // Instance-level ⊑_ℕ checks (the Section 9 bag-semantics
    // counterexample shape) on growing edbs: UCQ evaluation dominates.
    let mut group = c.benchmark_group("sec9_instance_check");
    let q_square = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y), R(x, z).").unwrap();
    let q_edge = UnionOfConjunctiveQueries::parse("Q(x) :- R(x, y).").unwrap();
    for nodes in [20usize, 60, 120] {
        let edges = chord_graph(nodes);
        let refs: Vec<(&str, &str, Natural)> = edges
            .iter()
            .map(|(s, d, k)| (s.as_str(), d.as_str(), *k))
            .collect();
        let edb = edge_facts("R", &refs);
        // The three routes evaluate the identical pair of UCQs.
        group.bench_with_input(BenchmarkId::new("planned", nodes), &edb, |b, edb| {
            b.iter(|| (q_square.evaluate(edb).len(), q_edge.evaluate(edb).len()))
        });
        group.bench_with_input(BenchmarkId::new("interpreted_ra", nodes), &edb, |b, edb| {
            b.iter(|| {
                (
                    q_square.evaluate_interpreted(edb).len(),
                    q_edge.evaluate_interpreted(edb).len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("datalog", nodes), &edb, |b, edb| {
            b.iter(|| {
                (
                    q_square.evaluate_datalog(edb).len(),
                    q_edge.evaluate_datalog(edb).len(),
                )
            })
        });
        // The full Theorem 9.2 instance check (both directions, four UCQ
        // evaluations plus the ≤_K sweep), on the default (planned) route.
        group.bench_with_input(BenchmarkId::new("full_check", nodes), &edb, |b, edb| {
            b.iter(|| {
                (
                    check_containment_on_instance(&q_edge, &q_square, edb),
                    check_containment_on_instance(&q_square, &q_edge, edb),
                )
            })
        });
    }
    group.finish();
}

criterion_group! { name = benches; config = common::short(); targets = bench }
criterion_main!(benches);
