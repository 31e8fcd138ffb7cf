//! Row-vs-compiled datalog engine snapshot: the acceptance harness for the
//! compiled semi-naive fixpoint.
//!
//! Times the Figure 6/7 datalog workloads on both engines — the reference
//! row semi-naive loop ([`ExecMode::Row`]) and the compiled loop over id
//! tables ([`ExecMode::Batch`]) — under serial contexts, checks that the
//! engines produce the exact same `FixpointResult` (idb, round count,
//! convergence flag), and writes the medians to `BENCH_fig6.json` (or the
//! path given as the first argument).
//!
//! Exits non-zero when the compiled engine is not at least 2x faster than
//! the row evaluator on the largest transitive-closure workload
//! (`random_dag_store(7, 6, 24)`, 16 rounds) — the acceptance bar of the
//! columnar datalog change — or when the engines disagree anywhere.
//!
//! [`ExecMode::Auto`] is timed alongside: for datalog it means the compiled
//! loop at every EDB size (the 50-edge cyclic graph included), so it must
//! clear the same 2x bar.

use provsem_bench::{random_dag_store, random_graph_store};
use provsem_core::plan::{ExecContext, ExecMode};
use provsem_datalog::seminaive::seminaive_iterate_with;
use provsem_datalog::Program;
use std::fmt::Write as _;
use std::time::Instant;

/// Medians are stable at modest iteration counts because each body is
/// itself thousands of index probes.
const WARMUP: usize = 3;
const ITERS: usize = 15;

struct Sample {
    median: f64,
    min: f64,
    max: f64,
}

/// Times `body` (seconds per call): warmup, then the median/min/max of
/// `ITERS` calls.
fn time_it(mut body: impl FnMut()) -> Sample {
    for _ in 0..WARMUP {
        body();
    }
    let mut runs: Vec<f64> = (0..ITERS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Sample {
        median: runs[runs.len() / 2],
        min: runs[0],
        max: runs[runs.len() - 1],
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fig6.json".to_string());
    let row = ExecContext::serial().with_mode(ExecMode::Row);
    let batch = ExecContext::serial().with_mode(ExecMode::Batch);
    let auto = ExecContext::serial().with_mode(ExecMode::Auto);

    // The swept workloads: semi-naive transitive closure on layered DAGs
    // (the fig6 parallel-TC instance at two sizes, 16 rounds — converges
    // earlier on the smaller one) and the bounded ℕ∞ iteration on the
    // cyclic fig7 graph (8 rounds, does not converge). Each is identified
    // exactly by its `(seed, parameters)` generator call.
    let tc = Program::transitive_closure("R", "Q");
    let workloads = [
        ("tc_layered_6x12", random_dag_store(7, 6, 12), 16usize),
        ("tc_layered_6x24", random_dag_store(7, 6, 24), 16),
        ("tc_cyclic_24n_50e", random_graph_store(42, 24, 50), 8),
    ];

    let mut results = String::new();
    let mut speedups = String::new();
    let mut tc_large_ratio = 0.0f64;
    let mut tc_large_auto = 0.0f64;

    for (label, edb, rounds) in &workloads {
        let reference = seminaive_iterate_with(&tc, edb, *rounds, &row);
        assert_eq!(
            reference,
            seminaive_iterate_with(&tc, edb, *rounds, &batch),
            "engines disagree on {label}"
        );
        assert_eq!(
            reference,
            seminaive_iterate_with(&tc, edb, *rounds, &auto),
            "auto disagrees on {label}"
        );
        let r = time_it(|| {
            seminaive_iterate_with(&tc, edb, *rounds, &row);
        });
        let b = time_it(|| {
            seminaive_iterate_with(&tc, edb, *rounds, &batch);
        });
        let a = time_it(|| {
            seminaive_iterate_with(&tc, edb, *rounds, &auto);
        });
        let ratio = r.median / b.median;
        let auto_ratio = r.median / a.median;
        if *label == "tc_layered_6x24" {
            tc_large_ratio = ratio;
            tc_large_auto = auto_ratio;
        }
        println!(
            "{label}: row {:.3}ms batch {:.3}ms ({ratio:.2}x) auto {:.3}ms ({auto_ratio:.2}x), \
             {} idb facts in {} rounds",
            r.median * 1e3,
            b.median * 1e3,
            a.median * 1e3,
            reference.idb.len(),
            reference.iterations
        );
        let _ = write!(
            results,
            "    \"{label}_row\": {{ \"median\": {:.3e}, \"min\": {:.3e}, \"max\": {:.3e} }},\n    \"{label}_batch\": {{ \"median\": {:.3e}, \"min\": {:.3e}, \"max\": {:.3e} }},\n    \"{label}_auto\": {{ \"median\": {:.3e}, \"min\": {:.3e}, \"max\": {:.3e} }},\n",
            r.median, r.min, r.max, b.median, b.min, b.max, a.median, a.min, a.max
        );
        let _ = writeln!(
            speedups,
            "    \"{label}\": {ratio:.2},\n    \"{label}_auto\": {auto_ratio:.2},"
        );
    }
    let speedups = speedups.trim_end().trim_end_matches(',');
    let results = results.trim_end().trim_end_matches(',');

    let pass = tc_large_ratio >= 2.0;
    // Auto runs the same compiled loop, so it clears the same bar (two
    // timings of one code path differ by noise only — comparing them to
    // each other would gate on that noise).
    let auto_pass = tc_large_auto >= 2.0;
    let json = format!(
        "{{\n  \"bench\": \"fig6_datalog_columnar_snapshot\",\n  \"description\": \"Reference row semi-naive datalog evaluator vs the compiled evaluator (interned ids, id-column tables, depth-first probes; ExecMode::Batch) on transitive closure: layered DAGs random_dag_store(seed 7, 6 layers, widths 12/24) at 16 rounds and the cyclic ℕ∞ graph random_graph_store(seed 42, 24 nodes, 50 edges) at 8 bounded rounds. Serial ExecContext on both sides so the ratio measures the evaluator, not thread fan-out. Auto mode is timed alongside: for datalog it selects the compiled loop at every EDB size, so it tracks batch on all three workloads. Medians of {ITERS} release-mode runs on the CI container; FixpointResults checked identical across engines before timing.\",\n  \"unit\": \"seconds\",\n  \"results\": {{\n{results}\n  }},\n  \"speedup_batch_over_row\": {{\n{speedups}\n  }},\n  \"acceptance\": \"batch >= 2x faster than row on tc_layered_6x24 (16 rounds): {} ({tc_large_ratio:.2}x); auto clears the same bar: {} ({tc_large_auto:.2}x vs row)\"\n}}\n",
        if pass { "PASS" } else { "FAIL" },
        if auto_pass { "PASS" } else { "FAIL" }
    );
    std::fs::write(&out_path, &json).expect("write benchmark record");
    println!("wrote {out_path}");
    assert!(
        pass,
        "acceptance failed: batch engine only {tc_large_ratio:.2}x faster than row on tc_layered_6x24"
    );
    assert!(
        auto_pass,
        "acceptance failed: auto only {tc_large_auto:.2}x faster than row on tc_layered_6x24"
    );
}
