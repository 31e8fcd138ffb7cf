//! The columnar kernel surface: one public module re-exporting the typed
//! column vectors, batch containers, and join/grouping kernels that the
//! batch executor (`plan::batch`), the columnar IVM state
//! (`plan::maintain`), and the snapshot-resident [`BatchCache`] are built
//! on — so that callers outside the planner (`perfbench`'s kernel
//! microbenchmarks, the kernel model suite) drive the exact kernels instead
//! of re-implementing them. (`provsem_datalog` takes only [`hash_combine`],
//! [`HASH_SEED`] and [`Batch`] from here: its fixpoint runs on interned-id
//! tables of its own.)
//!
//! The split of responsibilities:
//!
//! * [`ColBuilder`] / [`Column`] — per-attribute typed storage, starting
//!   typed (`i64` vectors, dictionary-encoded strings) and degrading to
//!   plain values on type mix or dictionary overflow ([`DICT_MAX`]).
//!   `ColBuilder` is the *retained*, append-only form (IVM join-side
//!   state); `Column` is the frozen form batches carry.
//! * [`Batch`] — columns plus a parallel annotation column: the
//!   K-relation annotation rides as "one more column".
//! * [`hash_combine`] / [`HASH_SEED`] / [`Value::content_hash`] — the
//!   content-based row-hash scheme every kernel and index shares, so a
//!   probe hash built from one representation matches buckets built from
//!   any other.
//! * [`join_batches`] — hash build/probe over whole batch lists (the RA
//!   hash-join kernel); [`group_batches`] — hash grouping with exact
//!   verification and stream-order annotation summing (the duplicate
//!   aggregation kernel). Both map rows to key ids through one flat
//!   open-addressing table, and through a per-dictionary `code → id` memo
//!   in front of it when the key is one dictionary-encoded column (the
//!   module docs of `core::column` describe both).
//!
//! Every kernel verifies hash candidates with exact typed comparisons, so
//! collisions affect performance, never results — the property the
//! differential suites lean on when pinning executor-vs-interpreter
//! equality.
//!
//! ```
//! use provsem_core::kernels::{group_batches, Batch};
//! use provsem_core::value::Value;
//! use provsem_semiring::Natural;
//!
//! // Two contributions to the same row sum at the grouping point.
//! let rows = vec![
//!     (vec![Value::int(1)].into_boxed_slice(), Natural::from(2u64)),
//!     (vec![Value::int(1)].into_boxed_slice(), Natural::from(3u64)),
//! ];
//! let batch = Batch::from_rows(1, rows);
//! let merged = group_batches(vec![batch], &[0]).into_batch(1).into_rows();
//! assert_eq!(merged, vec![(vec![Value::int(1)].into_boxed_slice(), Natural::from(5u64))]);
//! ```

pub use crate::column::{
    column_values_equal, columns_rows_equal, group_batches, hash_combine, relation_to_batches,
    Batch, BatchCache, BatchCacheStats, BatchProvenance, ColBuilder, Column, Grouped, StrDict,
    BATCH_ROWS, DICT_MAX, HASH_SEED,
};
pub use crate::plan::batch::join_batches;
pub use crate::plan::physical::ColSource;
#[doc(no_inline)]
pub use crate::value::Value;
