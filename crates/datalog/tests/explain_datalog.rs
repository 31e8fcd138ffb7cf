//! Golden tests for [`explain_fixpoint`]: the per-rule join orders (full /
//! recompute / Δ forms with their probe masks) and the `predicate/arity`
//! tables with their key indexes are pinned verbatim. These strings are
//! contract: they are rendered from the compiled plans the fixpoint runs,
//! so a change here is a change of join order or of an index kept.

use provsem_core::plan::ExecContext;
use provsem_core::Value;
use provsem_datalog::prelude::*;
use provsem_semiring::Natural;

fn tc_edb() -> FactStore<Natural> {
    edge_facts(
        "R",
        &[
            ("a", "b", Natural::from(2u64)),
            ("b", "c", Natural::from(3u64)),
        ],
    )
}

#[test]
fn transitive_closure_row_mode_golden() {
    let program = Program::transitive_closure("R", "Q");
    let explained = explain_fixpoint(&program, &tc_edb(), &ExecContext::with_threads(1));
    assert_eq!(
        explained,
        "rule 0: Q(x, y) :- R(x, y).\n\
         \x20 full: scan R(x, y)\n\
         \x20 recompute: probe R(x, y)[0,1]\n\
         rule 1: Q(x, y) :- Q(x, z), Q(z, y).\n\
         \x20 full: scan Q(x, z) → probe Q(z, y)[0]\n\
         \x20 recompute: probe Q(x, z)[0] → probe Q(z, y)[0,1]\n\
         \x20 Δ Q(x, z): probe Q(z, y)[0]\n\
         \x20 Δ Q(z, y): probe Q(x, z)[1]\n\
         tables:\n\
         \x20 Q/2: derived, probes [0] [0,1] [1]\n\
         \x20 R/2: 2 rows, probes [0,1]\n"
    );
}

/// The plans are a function of the program alone: the thread budget
/// changes how a round's work is chunked, never a join order or a mask.
#[test]
fn transitive_closure_batch_mode_golden() {
    let program = Program::transitive_closure("R", "Q");
    let serial = explain_fixpoint(&program, &tc_edb(), &ExecContext::with_threads(1));
    for threads in [2, 4] {
        let ctx = ExecContext::with_threads(threads);
        assert_eq!(explain_fixpoint(&program, &tc_edb(), &ctx), serial);
    }
}

#[test]
fn column_encodings_cover_i64_val_and_arena() {
    // Ids erase what the old `columns:` section told apart: integer, mixed
    // and string columns are all `u32` columns, and a predicate used at two
    // arities is two tables (both listed, each with its own rows).
    let program = parse_program("Q(x) :- N(x, y), M(x), M(x, y), V(x, y), W(z).").unwrap();
    let mut edb: FactStore<Natural> = FactStore::new();
    let one = || Natural::from(1u64);
    edb.insert(Fact::new("N", [Value::Int(1), Value::Int(10)]), one());
    edb.insert(Fact::new("N", [Value::Int(2), Value::Int(20)]), one());
    edb.insert(Fact::new("V", [Value::Int(1), Value::from("a")]), one());
    edb.insert(Fact::new("V", [Value::Int(2), Value::Int(2)]), one());
    edb.insert(Fact::new("M", [Value::Int(1)]), one());
    edb.insert(Fact::new("M", [Value::Int(1), Value::Int(2)]), one());
    edb.insert(Fact::new("M", [Value::Int(3), Value::Int(4)]), one());
    // Not read by the program at this arity: no table, no line.
    edb.insert(Fact::new("N", [Value::Int(1)]), one());
    let explained = explain_fixpoint(&program, &edb, &ExecContext::with_threads(1));
    let tables = explained.split("tables:\n").nth(1).unwrap();
    assert_eq!(
        tables,
        "  M/1: 1 rows, probes [0]\n\
         \x20 M/2: 2 rows, probes [0,1]\n\
         \x20 N/2: 2 rows, probes [0]\n\
         \x20 V/2: 2 rows, probes [0,1]\n\
         \x20 W/1: 0 rows, scans only\n"
    );
}
