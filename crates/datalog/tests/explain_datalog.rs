//! Golden tests for [`explain_fixpoint`]: the engine line, the per-rule
//! join orders (full / recompute / Δ forms with their probe masks), and the
//! `predicate/arity` tables with their key indexes are pinned verbatim in
//! row and batch modes. These strings are contract: they are rendered from
//! the compiled plans, which take their join orders and masks from the
//! plans the row loops run, so a change here means the engines diverged.

use provsem_core::plan::{ExecContext, ExecMode};
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
        "engine: batch (auto)\n\
         rule 0: Q(x, y) :- R(x, y).\n\
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

#[test]
fn transitive_closure_batch_mode_golden() {
    let program = Program::transitive_closure("R", "Q");
    let ctx = ExecContext::with_threads(1).with_mode(ExecMode::Batch);
    let explained = explain_fixpoint(&program, &tc_edb(), &ctx);
    // Identical join orders — only the engine decision line changes.
    assert!(explained.starts_with("engine: batch (forced)\n"));
    let row = explain_fixpoint(&program, &tc_edb(), &ExecContext::with_threads(1));
    assert_eq!(
        explained.lines().skip(1).collect::<Vec<_>>(),
        row.lines().skip(1).collect::<Vec<_>>()
    );
    // Forcing row reads back as forced row.
    let forced_row = ExecContext::with_threads(1).with_mode(ExecMode::Row);
    assert!(
        explain_fixpoint(&program, &tc_edb(), &forced_row).starts_with("engine: row (forced)\n")
    );
}

#[test]
fn auto_flips_to_batch_at_the_edb_threshold() {
    let program = Program::linear_transitive_closure("R", "Q");
    let mut edb: FactStore<Natural> = FactStore::new();
    for i in 0..64 {
        edb.insert(
            Fact::new("R", [format!("n{i}"), format!("n{}", i + 1)]),
            Natural::from(1u64),
        );
    }
    // No size threshold: `auto` means the compiled loops here and on the
    // two-edge EDB of the goldens above alike.
    let explained = explain_fixpoint(&program, &edb, &ExecContext::with_threads(1));
    assert!(
        explained.starts_with("engine: batch (auto)\n"),
        "{explained}"
    );
    assert!(
        explained.ends_with("  R/2: 64 rows, probes [0,1] [0]\n"),
        "{explained}"
    );
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
