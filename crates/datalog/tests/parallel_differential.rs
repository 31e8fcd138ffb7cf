//! Differential test: the parallel semi-naive rounds agree with the
//! calling-thread loops **exactly** — same idb annotations, same iteration
//! counts, same convergence flags, round for round — at `threads ∈
//! {1, 2, 4}`, and the loop with the naive Kleene iteration (annotations
//! and `converged`) at every round bound.
//!
//! Random programs/edbs cover `seminaive_iterate_with` (every semiring) and
//! `seminaive_idempotent_with`; a deterministic transitive-closure workload is
//! large enough that the rounds genuinely fan out over worker threads.

mod common;

use common::{arb_edb, arb_program, build_edb, build_program};
use proptest::prelude::*;
use provsem_core::plan::ExecContext;
use provsem_datalog::naive::{instantiate_by_scanning, kleene_iterate_instantiated};
use provsem_datalog::prelude::*;
use provsem_semiring::{Bool, Natural, PlusIdempotent, PosBool, Semiring, Tropical, WhySet};

const THREADS: [usize; 3] = [1, 2, 4];

/// General path: parallel rounds equal the calling-thread rounds, and both
/// equal `Tᵐ(0)`, for every semiring, converged or not (checked at several
/// round bounds).
fn check_general<K: Semiring + Send + Sync>(program: &Program, edb: &FactStore<K>) {
    let rules = instantiate_by_scanning(program, edb);
    for rounds in [1, 2, 3, 8] {
        let serial = seminaive_iterate(program, edb, rounds);
        let naive = kleene_iterate_instantiated(program, &rules, edb, rounds);
        assert_eq!(naive.idb, serial.idb, "kleene rounds={rounds}");
        assert_eq!(naive.converged, serial.converged, "kleene rounds={rounds}");
        for ctx in THREADS.map(ExecContext::with_threads) {
            let parallel = seminaive_iterate_with(program, edb, rounds, &ctx);
            assert_eq!(serial, parallel, "{ctx:?} rounds={rounds}");
        }
    }
}

/// Idempotent fast path: same agreement for `+`-idempotent semirings.
fn check_idempotent<K: Semiring + PlusIdempotent + Send + Sync>(
    program: &Program,
    edb: &FactStore<K>,
) {
    for rounds in [2, 8, 64] {
        let serial = seminaive_idempotent(program, edb, rounds);
        for ctx in THREADS.map(ExecContext::with_threads) {
            let parallel = seminaive_idempotent_with(program, edb, rounds, &ctx);
            assert_eq!(serial, parallel, "{ctx:?} rounds={rounds}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn parallel_rounds_equal_serial_on_random_programs(raw_program in arb_program(), raw_edb in arb_edb()) {
        let program = build_program(&raw_program);
        check_general(&program, &build_edb(&raw_edb, |_, w| Natural::from(w)));
        check_general(&program, &build_edb(&raw_edb, |_, _| Bool::from(true)));
        check_general(&program, &build_edb(&raw_edb, |_, w| Tropical::cost(w)));
        check_general(&program, &build_edb(&raw_edb, |i, _| WhySet::var(format!("t{i}"))));
        check_idempotent(&program, &build_edb(&raw_edb, |_, _| Bool::from(true)));
        check_idempotent(&program, &build_edb(&raw_edb, |_, w| Tropical::cost(w)));
        check_idempotent(&program, &build_edb(&raw_edb, |i, _| PosBool::var(format!("t{i}"))));
    }
}

/// A deterministic layered graph whose transitive closure produces enough
/// delta work per round that the parallel loops actually spawn workers.
fn layered_edges(layers: usize, width: usize) -> Vec<(String, String)> {
    let mut edges = Vec::new();
    for layer in 0..layers {
        for i in 0..width {
            for j in 0..width {
                // Sparse but well-connected: skip ~half the pairs.
                if (i + 2 * j + layer) % 3 != 0 {
                    edges.push((format!("n{layer}_{i}"), format!("n{}_{j}", layer + 1)));
                }
            }
        }
    }
    edges
}

#[test]
fn parallel_transitive_closure_matches_serial_on_a_large_graph() {
    let program = Program::transitive_closure("R", "Q");
    let mut edb: FactStore<Natural> = FactStore::new();
    for (i, (src, dst)) in layered_edges(6, 10).into_iter().enumerate() {
        edb.insert(Fact::new("R", [src, dst]), Natural::from(i as u64 % 3 + 1));
    }
    let serial = seminaive_iterate(&program, &edb, 16);
    assert!(serial.converged, "layered DAG closure converges");
    assert_eq!(kleene_iterate(&program, &edb, 16).idb, serial.idb);
    for ctx in THREADS.map(ExecContext::with_threads) {
        let parallel = seminaive_iterate_with(&program, &edb, 16, &ctx);
        assert_eq!(serial, parallel, "{ctx:?}");
    }
    // The strategy entry point agrees too.
    let via_entry = evaluate_with_context(
        &program,
        &edb,
        EvalStrategy::SemiNaive,
        16,
        &ExecContext::with_threads(4),
    );
    assert_eq!(via_entry.idb, serial.idb);
}
