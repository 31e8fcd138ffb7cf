//! Columnar batches: typed column vectors with dictionary-encoded strings
//! and a parallel annotation column — the system's storage representation.
//!
//! This is the data layer under the batch executor (`plan::batch`), the
//! columnar IVM state (`plan::maintain`), and the columnar form every
//! relation version holds once scanned ([`KRelation::batches`], patched
//! across commits by the [`BatchCache`]). A `Batch` holds one `Column` per
//! output attribute (in the operator's sorted schema order), a parallel
//! column of annotations — the K-relation annotation is "just one more
//! column" riding next to the data, and shared the same way — and an
//! optional *selection vector* of surviving row indices. The domain has no
//! NULLs, so the layout is dense and validity-free.
//!
//! Columns are typed by their content, decided per scan (or per rebuilt
//! batch) at conversion time:
//!
//! * `Column::I64` — every value is an integer; stored as a flat `i64`
//!   vector.
//! * `Column::Str` — every value is a string; stored as `u32` codes into
//!   a per-scan `StrDict`. Equality against a constant becomes a single
//!   dictionary probe plus a code-comparison loop; equality between two
//!   columns of the *same* dictionary is a code loop, and across
//!   dictionaries a code-translation table built once per batch.
//! * `Column::Val` — the fallback for mixed-type columns and for
//!   dictionaries that overflow `DICT_MAX` distinct strings: plain
//!   `Value`s, compared and hashed one row at a time.
//!
//! Column payloads — data and annotations alike — are behind `Arc`, so
//! cloning a batch (every scan clones its relation's batch list, and so
//! does every commit that patches one), the projection/renaming
//! kernels (a permutation of the column *list*) and batch transport between
//! morsel workers never copy data; selections only refine the selection
//! vector. Data is gathered (copied) only at pipeline breakers — hash-join
//! build/probe, pre-join aggregation, exchanges, and the root conversion
//! back to a `KRelation`. A breaker takes the annotation vector back *by move* when
//! its batch is the column's only holder (a batch an operator built), and
//! otherwise (a batch a relation's form still holds) clones just the rows
//! that survived the selection.
//!
//! Hashing is content-based (`Value::content_hash`), not representation-based: an
//! integer hashes the same in an `I64` and a `Val` column, a string the
//! same under any dictionary (dictionaries precompute one hash per code at
//! interning time, so the per-row kernel is a table lookup). Grouping and
//! join matching verify candidates with exact typed comparisons
//! (`columns_rows_equal`), so hash collisions are harmless.
//!
//! # The key table
//!
//! Grouping ([`group_batches`]: pre-join aggregation, the root merge,
//! [`BatchCache::patch`]'s coalescing, IVM's aggregate rule) and the hash
//! join (`plan::batch::join_batches`, both sides) map rows to dense *key
//! ids* through one helper, `KeyIndex`, over one flat table, `KeyTable`:
//!
//! * **Layout.** One `u32` slot array (`id + 1`, `0` = empty, power-of-two
//!   length, linear probing) and, per id, the 64-bit hash it was inserted
//!   under and its first row. Ids are handed out in first-occurrence order
//!   and never move, so `Grouped::reps` and a join's per-key chains
//!   (`KeyChains`: one counting sort into two flat arrays, rows of a key in
//!   build-stream order) come out in stream order by construction. Nothing
//!   is allocated per key.
//! * **Why high bits.** A slot index is the *high* bits of the hash times an
//!   odd constant. [`hash_combine`] ends in a multiplication, so the low bits
//!   of a key hash depend on the low bits of its inputs only — its worst
//!   bits — and the exchange has already spent them (`hash % threads`: inside
//!   a partition every key agrees on them). The high bits of one more
//!   product depend on every bit below them.
//! * **Verification rule.** A slot is first compared on its stored hash;
//!   every hash-equal hit is then verified with `columns_rows_equal` against
//!   the id's first row. The table never decides equality — colliding keys
//!   cost probes, never results (`key_table_tests` injects hashes to pin it).
//! * **Growth.** At load ½ the slot array doubles and the stored hashes are
//!   re-placed; no column is read again. The table starts at 16 slots
//!   whatever the input, so a three-row delta merge pays for three rows.
//!
//! # The code-domain path
//!
//! When every key column is a [`Column::Str`], equal *tuples of codes* under
//! the same dictionaries are equal keys, so the index keeps a dense memo over
//! the grid of code tuples — one `u32` cell per combination, the codes read
//! as one mixed-radix number — and asks the table once per *distinct tuple*:
//! the hash is the `hash_combine` chain over the dictionaries' per-code
//! hashes (what the hash kernel computes per row, so rows that take different
//! paths still meet in the table), no per-row hash vector is built, and every
//! other row costs one array read. A one-column key is the one-dimensional
//! case: its cells are its codes. The memo survives across consecutive
//! batches whose key dictionaries are the same `Arc`s (a scan's batches, and
//! the gathered output of a join over one scan — the Section 2 query's root
//! merge groups 2·10⁵ rows on `(a, c)` through 3 600 cells) and is reset when
//! one changes (a commit-patched scan is the conversion's batches under one
//! dictionary, then delta batches under theirs — each run gets its own memo,
//! and rows of different runs still meet in the table, whose hashes are
//! content-based). **When:** a batch takes this path if every key column is
//! a dictionary column and the run of consecutive batches sharing those
//! dictionaries holds at least as many live rows as the grid has cells
//! (`code_domain_runs`) — a comparison of two sizes of the input, so a memo is
//! never larger than the rows it serves. Everything else — `I64` and `Val`
//! key columns, a sparse grid (few rows under large dictionaries) — hashes
//! per row and goes to the table directly.

use crate::relation::{ColumnarForm, KRelation};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{int_content_hash, str_content_hash, Value, ValueRef};
use provsem_semiring::fxhash::FxHashMap;
use provsem_semiring::Semiring;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Row budget per scan batch: scans larger than this split into multiple
/// batches (sharing their per-scan dictionaries), which is also the unit
/// the morsel executor ships between workers.
pub const BATCH_ROWS: usize = 4096;

/// Distinct-string budget of a [`StrDict`]. A scan column with more
/// distinct strings than this stops paying for dictionary encoding (the
/// code array no longer stays hot and the dictionary itself rivals the
/// data); it degrades to a plain [`Column::Val`].
pub const DICT_MAX: usize = 1 << 16;

/// A string dictionary: distinct strings mapped to dense `u32` codes, with
/// the content hash of every entry precomputed so the hash kernels are a
/// table lookup per row. Built once per scan column (shared by all of the
/// scan's batches), immutable behind an [`Arc`] afterwards.
#[derive(Clone, Debug)]
pub struct StrDict {
    strings: Vec<Arc<str>>,
    hashes: Vec<u64>,
    index: FxHashMap<Arc<str>, u32>,
}

impl StrDict {
    fn new() -> StrDict {
        StrDict {
            strings: Vec::new(),
            hashes: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the dictionary holds no strings yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Interns a string, returning its code — or `None` when the dictionary
    /// is at [`DICT_MAX`] and the string is new (the overflow signal that
    /// degrades the column to plain values).
    fn intern(&mut self, s: &Arc<str>) -> Option<u32> {
        if let Some(&code) = self.index.get(s) {
            return Some(code);
        }
        if self.strings.len() >= DICT_MAX {
            return None;
        }
        let code = self.strings.len() as u32;
        self.strings.push(s.clone());
        self.hashes.push(str_content_hash(s));
        self.index.insert(s.clone(), code);
        Some(code)
    }

    /// The code of a string already in the dictionary — `None` means no row
    /// of any column using this dictionary holds the string, which is what
    /// lets `σ_{col=const}` on a dictionary column short-circuit to
    /// all-false once per batch.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string behind a code.
    pub fn resolve(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }
}

/// A typed column vector. Payloads are `Arc`-shared: cloning a column (the
/// projection/permutation kernels, batch transport) is O(1).
#[derive(Clone, Debug)]
pub enum Column {
    /// All-integer column.
    I64(Arc<Vec<i64>>),
    /// All-string column, dictionary-encoded.
    Str {
        /// The (per-scan or per-rebuild) dictionary.
        dict: Arc<StrDict>,
        /// One code per row.
        codes: Arc<Vec<u32>>,
    },
    /// Mixed-type or dictionary-overflow fallback: plain values.
    Val(Arc<Vec<Value>>),
}

impl Column {
    /// Number of (physical) rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Val(v) => v.len(),
        }
    }

    /// Whether the column holds no physical rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short encoding tag for explain output.
    pub fn encoding(&self) -> String {
        match self {
            Column::I64(_) => "i64".to_string(),
            Column::Str { dict, .. } => format!("dict({})", dict.len()),
            Column::Val(_) => "val".to_string(),
        }
    }

    /// The value at a physical row, cloned out (an `Arc` bump for strings).
    pub fn value_at(&self, row: u32) -> Value {
        match self {
            Column::I64(v) => Value::Int(v[row as usize]),
            Column::Str { dict, codes } => Value::Str(dict.resolve(codes[row as usize]).clone()),
            Column::Val(v) => v[row as usize].clone(),
        }
    }

    /// The value at a physical row, borrowed: integers by value, strings
    /// straight out of the dictionary — no `Arc` bump, no [`Value`].
    pub fn value_ref_at(&self, row: u32) -> ValueRef<'_> {
        match self {
            Column::I64(v) => ValueRef::Int(v[row as usize]),
            Column::Str { dict, codes } => ValueRef::Str(dict.resolve(codes[row as usize])),
            Column::Val(v) => v[row as usize].as_ref(),
        }
    }

    /// Does the value at `row` equal `v`? Typed fast paths: on a
    /// dictionary column the constant is resolved to a code by the caller
    /// (the σ kernel does); this method is the per-row fallback, also used
    /// when a `Val` column meets a typed one in [`column_values_equal`].
    pub fn value_eq_at(&self, row: u32, v: &Value) -> bool {
        match (self, v) {
            (Column::I64(col), Value::Int(x)) => col[row as usize] == *x,
            (Column::I64(_), Value::Str(_)) => false,
            (Column::Str { dict, codes }, Value::Str(s)) => {
                dict.resolve(codes[row as usize]).as_ref() == s.as_ref()
            }
            (Column::Str { .. }, Value::Int(_)) => false,
            (Column::Val(col), v) => col[row as usize] == *v,
        }
    }

    /// Combines this column's per-row content hashes into the running row
    /// hashes — the hash kernel. Content-based and representation-
    /// independent (dictionary columns read the per-code table precomputed
    /// at interning time); the representation is dispatched once per
    /// column, so the row loop is tight.
    fn hash_into(&self, hashes: &mut [u64]) {
        match self {
            Column::I64(v) => {
                for (h, x) in hashes.iter_mut().zip(v.iter()) {
                    *h = hash_combine(*h, int_content_hash(*x));
                }
            }
            Column::Str { dict, codes } => {
                for (h, &c) in hashes.iter_mut().zip(codes.iter()) {
                    *h = hash_combine(*h, dict.hashes[c as usize]);
                }
            }
            Column::Val(v) => {
                for (h, val) in hashes.iter_mut().zip(v.iter()) {
                    *h = hash_combine(*h, val.content_hash());
                }
            }
        }
    }

    /// Gathers the rows at `rows` (physical indices, repetitions allowed)
    /// into a new column of the same type (same dictionary for strings).
    pub fn gather(&self, rows: &[u32]) -> Column {
        match self {
            Column::I64(v) => Column::I64(Arc::new(
                rows.iter().map(|&r| v[r as usize]).collect::<Vec<_>>(),
            )),
            Column::Str { dict, codes } => Column::Str {
                dict: dict.clone(),
                codes: Arc::new(rows.iter().map(|&r| codes[r as usize]).collect::<Vec<_>>()),
            },
            Column::Val(v) => Column::Val(Arc::new(
                rows.iter()
                    .map(|&r| v[r as usize].clone())
                    .collect::<Vec<_>>(),
            )),
        }
    }
}

/// Are the values at `(a, ra)` and `(b, rb)` equal? Typed fast paths:
/// integer columns compare `i64`s, string columns of the *same* dictionary
/// compare codes, different dictionaries compare the resolved strings, and
/// the mixed fallback compares values.
pub fn column_values_equal(a: &Column, ra: u32, b: &Column, rb: u32) -> bool {
    match (a, b) {
        (Column::I64(va), Column::I64(vb)) => va[ra as usize] == vb[rb as usize],
        (
            Column::Str {
                dict: da,
                codes: ca,
            },
            Column::Str {
                dict: db,
                codes: cb,
            },
        ) => {
            if Arc::ptr_eq(da, db) {
                ca[ra as usize] == cb[rb as usize]
            } else {
                da.resolve(ca[ra as usize]) == db.resolve(cb[rb as usize])
            }
        }
        (Column::I64(_), Column::Str { .. }) | (Column::Str { .. }, Column::I64(_)) => false,
        (Column::Val(va), b) => b.value_eq_at(rb, &va[ra as usize]),
        (a, Column::Val(vb)) => a.value_eq_at(ra, &vb[rb as usize]),
    }
}

/// Do two rows agree on their key columns? `akeys`/`bkeys` pair up
/// positionally (the join key columns of the two sides, or the full column
/// lists for whole-row grouping).
pub fn columns_rows_equal(
    acols: &[Column],
    ra: u32,
    akeys: &[usize],
    bcols: &[Column],
    rb: u32,
    bkeys: &[usize],
) -> bool {
    debug_assert_eq!(akeys.len(), bkeys.len());
    akeys
        .iter()
        .zip(bkeys)
        .all(|(&i, &j)| column_values_equal(&acols[i], ra, &bcols[j], rb))
}

// --- content hashing -------------------------------------------------------

/// Combines a per-column value hash into a running row hash (an FxHash-style
/// mix; column order matters: a key is positional).
pub fn hash_combine(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Seed of an empty row hash (zero key columns hash every row equal, which
/// is what makes zero-arity grouping collapse to a single group).
pub const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Content hashes of the key columns of `len` rows, one per row — columns
/// iterate outer, rows inner.
fn key_hashes(columns: &[Column], keys: &[usize], len: usize) -> Vec<u64> {
    let mut hashes = vec![HASH_SEED; len];
    for &key in keys {
        columns[key].hash_into(&mut hashes);
    }
    hashes
}

// --- column building -------------------------------------------------------

/// Builds one column from a stream of values, starting typed and degrading
/// to [`Column::Val`] on the first type mix or dictionary overflow. Also
/// the *retained* columnar representation of IVM join-side state
/// (`plan::maintain`), which keeps appending across delta batches — hence
/// the random-access and hashing accessors below.
#[derive(Clone, Debug)]
pub enum ColBuilder {
    /// No rows yet: the first value decides the type.
    Start,
    /// All integers so far.
    I64(Vec<i64>),
    /// All strings so far, dictionary-encoded.
    Str {
        /// The growing dictionary.
        dict: StrDict,
        /// One code per row.
        codes: Vec<u32>,
    },
    /// Mixed types or overflowed dictionary: plain values.
    Val(Vec<Value>),
}

impl Default for ColBuilder {
    fn default() -> Self {
        ColBuilder::new()
    }
}

impl ColBuilder {
    /// An empty column.
    pub fn new() -> ColBuilder {
        ColBuilder::Start
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        match self {
            ColBuilder::Start => 0,
            ColBuilder::I64(col) => col.len(),
            ColBuilder::Str { codes, .. } => codes.len(),
            ColBuilder::Val(col) => col.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short encoding tag for explain output (see [`Column::encoding`]).
    pub fn encoding(&self) -> String {
        match self {
            ColBuilder::Start => "val".to_string(),
            ColBuilder::I64(_) => "i64".to_string(),
            ColBuilder::Str { dict, .. } => format!("dict({})", dict.len()),
            ColBuilder::Val(_) => "val".to_string(),
        }
    }

    /// The content hash of the value at `row` — the same hash the
    /// `Column` hash kernel computes, so probes built from retained
    /// builder columns agree with batch-side key hashes. Dictionary
    /// columns read the per-code hash table precomputed at interning
    /// time.
    pub fn content_hash_at(&self, row: u32) -> u64 {
        match self {
            ColBuilder::Start => unreachable!("content_hash_at on an empty column"),
            ColBuilder::I64(col) => int_content_hash(col[row as usize]),
            ColBuilder::Str { dict, codes } => dict.hashes[codes[row as usize] as usize],
            ColBuilder::Val(col) => col[row as usize].content_hash(),
        }
    }

    /// Appends a value, degrading the representation if needed.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (ColBuilder::Start, Value::Int(x)) => *self = ColBuilder::I64(vec![x]),
            (ColBuilder::Start, Value::Str(s)) => {
                let mut dict = StrDict::new();
                let code = dict.intern(&s).expect("fresh dictionary has room");
                *self = ColBuilder::Str {
                    dict,
                    codes: vec![code],
                };
            }
            (ColBuilder::I64(col), Value::Int(x)) => col.push(x),
            (ColBuilder::I64(col), v @ Value::Str(_)) => {
                let mut values: Vec<Value> = col.drain(..).map(Value::Int).collect();
                values.push(v);
                *self = ColBuilder::Val(values);
            }
            (ColBuilder::Str { dict, codes }, Value::Str(s)) => match dict.intern(&s) {
                Some(code) => codes.push(code),
                None => {
                    // Dictionary overflow: degrade to plain strings.
                    let mut values: Vec<Value> = codes
                        .drain(..)
                        .map(|c| Value::Str(dict.resolve(c).clone()))
                        .collect();
                    values.push(Value::Str(s));
                    *self = ColBuilder::Val(values);
                }
            },
            (ColBuilder::Str { dict, codes }, v @ Value::Int(_)) => {
                let mut values: Vec<Value> = codes
                    .drain(..)
                    .map(|c| Value::Str(dict.resolve(c).clone()))
                    .collect();
                values.push(v);
                *self = ColBuilder::Val(values);
            }
            (ColBuilder::Val(col), v) => col.push(v),
        }
    }

    /// The value at a row, cloned out (an `Arc` bump for strings).
    pub fn value_at(&self, row: u32) -> Value {
        match self {
            ColBuilder::Start => unreachable!("value_at on an empty column"),
            ColBuilder::I64(col) => Value::Int(col[row as usize]),
            ColBuilder::Str { dict, codes } => {
                Value::Str(dict.resolve(codes[row as usize]).clone())
            }
            ColBuilder::Val(col) => col[row as usize].clone(),
        }
    }

    /// Does the value at `row` equal `v`?
    pub fn value_eq_at(&self, row: u32, v: &Value) -> bool {
        match (self, v) {
            (ColBuilder::Start, _) => false,
            (ColBuilder::I64(col), Value::Int(x)) => col[row as usize] == *x,
            (ColBuilder::I64(_), Value::Str(_)) => false,
            (ColBuilder::Str { dict, codes }, Value::Str(s)) => {
                dict.resolve(codes[row as usize]).as_ref() == s.as_ref()
            }
            (ColBuilder::Str { .. }, Value::Int(_)) => false,
            (ColBuilder::Val(col), v) => col[row as usize] == *v,
        }
    }

    /// Finishes the column. An empty builder yields an empty `Val` column.
    pub fn finish(self) -> Column {
        match self {
            ColBuilder::Start => Column::Val(Arc::new(Vec::new())),
            ColBuilder::I64(col) => Column::I64(Arc::new(col)),
            ColBuilder::Str { dict, codes } => Column::Str {
                dict: Arc::new(dict),
                codes: Arc::new(codes),
            },
            ColBuilder::Val(col) => Column::Val(Arc::new(col)),
        }
    }
}

/// Gathers column `col` of possibly many source batches at `refs`
/// (`(batch, row)` pairs). Stays typed when every source agrees — all
/// integer, or all string under the *same* dictionary — and otherwise
/// rebuilds through a [`ColBuilder`] (minting a fresh per-batch dictionary,
/// which is how unions of differently-dictionaried scans re-normalize).
pub fn gather_multi(sources: &[&[Column]], col: usize, refs: &[(u32, u32)]) -> Column {
    let all_i64 = sources.iter().all(|s| matches!(s[col], Column::I64(_)));
    if all_i64 {
        let out: Vec<i64> = refs
            .iter()
            .map(|&(b, r)| match &sources[b as usize][col] {
                Column::I64(v) => v[r as usize],
                _ => unreachable!(),
            })
            .collect();
        return Column::I64(Arc::new(out));
    }
    if let Some(dict) = shared_dict(sources.iter().copied(), col).cloned() {
        let out: Vec<u32> = refs
            .iter()
            .map(|&(b, r)| match &sources[b as usize][col] {
                Column::Str { codes, .. } => codes[r as usize],
                _ => unreachable!(),
            })
            .collect();
        return Column::Str {
            dict,
            codes: Arc::new(out),
        };
    }
    let mut builder = ColBuilder::new();
    for &(b, r) in refs {
        builder.push(sources[b as usize][col].value_at(r));
    }
    builder.finish()
}

// --- batches ---------------------------------------------------------------

/// A columnar batch: typed columns (one per output attribute, in sorted
/// schema order), a parallel annotation column, and an optional selection
/// vector. `sel` holds the *logical* view: when present, only the listed
/// physical rows (strictly increasing — selections only ever filter in
/// stream order) are alive; columns and annotations are untouched until a
/// pipeline breaker materializes the view.
#[derive(Clone, Debug)]
pub struct Batch<K> {
    len: usize,
    columns: Vec<Column>,
    anns: Arc<Vec<K>>,
    sel: Option<Vec<u32>>,
}

impl<K: Semiring> Batch<K> {
    /// A batch from freshly built full columns (no selection).
    pub fn new(len: usize, columns: Vec<Column>, anns: Vec<K>) -> Batch<K> {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        debug_assert_eq!(anns.len(), len);
        Batch {
            len,
            columns,
            anns: Arc::new(anns),
            sel: None,
        }
    }

    /// Number of live (logical) rows.
    pub fn live_rows(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.len,
        }
    }

    /// Number of physical rows (the length of the column vectors; dead rows
    /// filtered by `sel` included). Predicate masks are indexed by physical
    /// row.
    pub fn phys_rows(&self) -> usize {
        self.len
    }

    /// The columns (physical; apply `sel` for the logical view).
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The annotation column (physical; parallel to the data columns).
    pub fn anns(&self) -> &[K] {
        &self.anns
    }

    /// Applies a predicate mask (indexed by physical row) to the selection
    /// vector — the σ kernel's final step. No column or annotation data
    /// moves.
    pub fn refine(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len);
        self.sel = Some(match self.sel.take() {
            Some(sel) => sel.into_iter().filter(|&r| mask[r as usize]).collect(),
            None => (0..self.len as u32).filter(|&r| mask[r as usize]).collect(),
        });
    }

    /// Installs `sel` — the surviving physical rows, strictly increasing —
    /// as the selection vector of a batch whose every row is alive: σ's
    /// one-pass form, for a comparison that emits rows instead of a mask.
    pub(crate) fn select(&mut self, sel: Vec<u32>) {
        debug_assert_eq!(self.live_rows(), self.len);
        debug_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(!sel.last().is_some_and(|&r| r as usize >= self.len));
        self.sel = Some(sel);
    }

    /// Replaces the column list with a permutation/subset of itself — the
    /// π/ρ kernel. Pure `Arc` moves; no data is copied.
    pub fn permute_columns(&mut self, perm: &[usize]) {
        self.columns = perm.iter().map(|&i| self.columns[i].clone()).collect();
    }

    /// Materializes the logical view: gathers columns and annotations down
    /// to the selected rows and drops the selection vector. Annotations of
    /// surviving rows are *moved* when this batch is their column's only
    /// holder (the selection vector is strictly increasing) and cloned when
    /// the column is shared — the filtered-out rows are never cloned. No-op
    /// when nothing is filtered.
    pub fn materialize(self) -> Batch<K> {
        let Some(sel) = self.sel else { return self };
        let columns = self
            .columns
            .iter()
            .map(|c| c.gather(&sel))
            .collect::<Vec<_>>();
        let anns = match Arc::try_unwrap(self.anns) {
            Ok(owned) => {
                let mut keep = sel.iter().copied().peekable();
                owned
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, k)| keep.next_if_eq(&(i as u32)).map(|_| k))
                    .collect()
            }
            Err(shared) => sel.iter().map(|&r| shared[r as usize].clone()).collect(),
        };
        Batch::new(sel.len(), columns, anns)
    }

    /// Content hashes of the key columns, one per physical row of a
    /// materialized batch — the column-wise join/group hash kernel (columns
    /// iterate outer, rows inner).
    ///
    /// # Panics
    /// Debug-panics on an unmaterialized batch.
    pub fn key_hashes(&self, keys: &[usize]) -> Vec<u64> {
        debug_assert!(
            self.sel.is_none(),
            "hash kernels run on materialized batches"
        );
        key_hashes(&self.columns, keys, self.len)
    }

    /// Splits a materialized batch into `parts` sub-batches by an
    /// assignment vector (`assign[row] < parts`), preserving relative row
    /// order within each part — the exchange kernel. Annotations move (or,
    /// from a shared column, are cloned once each); column data is gathered
    /// once.
    pub fn split_by(self, assign: &[u32], parts: usize) -> Vec<Batch<K>> {
        debug_assert!(self.sel.is_none());
        debug_assert_eq!(assign.len(), self.len);
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); parts];
        for (row, &p) in assign.iter().enumerate() {
            rows[p as usize].push(row as u32);
        }
        let mut anns: Vec<Vec<K>> = rows.iter().map(|r| Vec::with_capacity(r.len())).collect();
        for (k, &p) in unshare(self.anns).into_iter().zip(assign) {
            anns[p as usize].push(k);
        }
        rows.into_iter()
            .zip(anns)
            .map(|(rows, anns)| {
                let columns = self.columns.iter().map(|c| c.gather(&rows)).collect();
                Batch::new(rows.len(), columns, anns)
            })
            .collect()
    }

    /// Decomposes a materialized batch. The annotation vector is handed
    /// over when this batch is its only holder and copied when it is shared
    /// (a relation's held batch nothing filtered).
    pub fn into_parts(self) -> (usize, Vec<Column>, Vec<K>) {
        debug_assert!(self.sel.is_none());
        (self.len, self.columns, unshare(self.anns))
    }

    /// Converts the live rows back to positional rows with owned
    /// annotations — the boundary back into the row world (used by the
    /// batch-mode IVM delta kernels).
    pub fn into_rows(self) -> Vec<(Box<[Value]>, K)> {
        let batch = self.materialize();
        let row_of = |cols: &[Column], r: u32| -> Box<[Value]> {
            cols.iter().map(|c| c.value_at(r)).collect()
        };
        let (len, columns, anns) = batch.into_parts();
        anns.into_iter()
            .enumerate()
            .map(|(r, k)| {
                debug_assert!(r < len);
                (row_of(&columns, r as u32), k)
            })
            .collect()
    }

    /// Builds a batch from positional rows (the IVM delta boundary: delta
    /// chunks enter the columnar kernels through here).
    pub fn from_rows(arity: usize, rows: Vec<(Box<[Value]>, K)>) -> Batch<K> {
        let mut builders: Vec<ColBuilder> = (0..arity).map(|_| ColBuilder::new()).collect();
        let mut anns = Vec::with_capacity(rows.len());
        let mut len = 0usize;
        for (row, k) in rows {
            debug_assert_eq!(row.len(), arity);
            for (builder, v) in builders.iter_mut().zip(row.into_vec()) {
                builder.push(v);
            }
            anns.push(k);
            len += 1;
        }
        Batch::new(
            len,
            builders.into_iter().map(ColBuilder::finish).collect(),
            anns,
        )
    }
}

/// The vector behind a shared annotation column: moved out when `anns` is
/// the only handle, cloned otherwise.
fn unshare<K: Clone>(anns: Arc<Vec<K>>) -> Vec<K> {
    Arc::try_unwrap(anns).unwrap_or_else(|shared| shared.as_ref().clone())
}

/// Converts a [`KRelation`] into batches — the row→column boundary.
/// Columns are typed over the *whole* relation (one dictionary per string
/// column, shared by every batch), then split into batches of at most
/// [`BATCH_ROWS`] rows. Annotations are cloned out of the relation exactly
/// once. The split depends only on the relation — never on the execution
/// context — so the result is shareable across every execution and thread
/// count: it is the columnar form a relation version holds
/// ([`KRelation::batches`]), converted once per version. Calling this
/// directly always converts.
pub fn relation_to_batches<K: Semiring>(relation: &KRelation<K>) -> Vec<Batch<K>> {
    let arity = relation.schema().arity();
    let mut builders: Vec<ColBuilder> = (0..arity).map(|_| ColBuilder::new()).collect();
    let mut anns: Vec<K> = Vec::with_capacity(relation.len());
    for (tuple, k) in relation.iter() {
        for (builder, v) in builders.iter_mut().zip(tuple.values()) {
            builder.push(v.clone());
        }
        anns.push(k.clone());
    }
    let len = anns.len();
    let columns: Vec<Column> = builders.into_iter().map(ColBuilder::finish).collect();
    if len == 0 {
        return Vec::new();
    }
    let parts = len.div_ceil(BATCH_ROWS);
    if parts == 1 {
        return vec![Batch::new(len, columns, anns)];
    }
    // Contiguous near-equal split, mirroring `par::chunked`. Annotations
    // move into their chunk; column data is gathered once per chunk.
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut anns_iter = anns.into_iter();
    let mut lo = 0usize;
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        let hi = lo + take;
        let rows: Vec<u32> = (lo as u32..hi as u32).collect();
        let chunk_cols: Vec<Column> = columns.iter().map(|c| c.gather(&rows)).collect();
        let chunk_anns: Vec<K> = anns_iter.by_ref().take(take).collect();
        out.push(Batch::new(take, chunk_cols, chunk_anns));
        lo = hi;
    }
    out
}

// --- the batch cache: scan counters and commit patching ---------------------

/// Where a scan's batches came from, as reported by
/// [`Plan::explain_batches`](crate::plan::Plan::explain_batches): converted
/// for the explain (the version holds no columnar form yet), the form an
/// earlier scan converted, or a form carried across commits by patching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchProvenance {
    /// The relation version holds no form: a scan converts it.
    Converted,
    /// The form an earlier scan converted (or tagging shared), unpatched.
    Cached,
    /// A form carried across this many commits by delta patching.
    Patched(u64),
}

/// The counters over relation-resident columnar forms that a
/// [`SharedDatabase`](crate::snapshot::SharedDatabase)'s snapshots share,
/// and the commit path's patching of those forms.
///
/// The batches themselves live on the relation versions
/// ([`KRelation::batches`]): a version converts once, on its first scan,
/// and every later scan — across executions, sessions and threads — reads
/// the same form. A scan through the cache ([`BatchCache::get_or_convert`])
/// counts a hit or a miss. On commit, instead of converting the new
/// version, the writer *patches* the old version's form into the new one:
/// the delta's own batches are appended, which is exact for any
/// commutative semiring — duplicate tuples re-sum and delete-to-zero rows
/// cancel at the next grouping point (aggregation or the plan root), the
/// same places the executor already merges duplicates. The appended tail
/// is kept short by coalescing (see [`BatchCache::patch`]), so a scan reads
/// the conversion's batches plus a logarithmic number of delta batches
/// however many commits went by. The old version keeps its own form, so a
/// held snapshot never re-converts; a form is freed with its version.
///
/// Counters (see [`BatchCacheStats`]) are served by the `STATS` verb of the
/// query service.
#[derive(Debug)]
pub struct BatchCache<K> {
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    /// One handle here plus one in every live form this cache made.
    made: Arc<()>,
    annotations: PhantomData<fn() -> K>,
}

impl<K: Semiring> Default for BatchCache<K> {
    fn default() -> Self {
        BatchCache::new()
    }
}

/// A point-in-time read of the [`BatchCache`] counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchCacheStats {
    /// Scans served from a form the relation version already held.
    pub hits: u64,
    /// Scans that had to columnarize their relation.
    pub misses: u64,
    /// Commit deltas absorbed by patching a version's form into the next.
    pub patches: u64,
    /// Forms this cache made — converted by a counted scan or seeded by a
    /// patch — that some relation version still holds. A version held by no
    /// snapshot, view or caller frees its form, so dropped views and
    /// superseded versions leave this count.
    pub entries: usize,
}

impl<K: Semiring> BatchCache<K> {
    /// A cache with zeroed counters.
    pub fn new() -> BatchCache<K> {
        BatchCache {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            made: Arc::new(()),
            annotations: PhantomData,
        }
    }

    /// The batches of `relation` — its columnar form, converted on the
    /// version's first scan — counted as a hit or a miss. `epoch` is not
    /// read: a form belongs to its relation version, whatever the epoch.
    pub fn get_or_convert(&self, _epoch: u64, relation: &Arc<KRelation<K>>) -> Arc<Vec<Batch<K>>> {
        self.scan(relation)
    }

    /// [`BatchCache::get_or_convert`] on a borrowed version.
    pub(crate) fn scan(&self, relation: &KRelation<K>) -> Arc<Vec<Batch<K>>> {
        let (form, converted) = relation.form_or_convert(Some(&self.made));
        let counter = if converted { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&form.batches)
    }

    /// A non-counting, non-converting read for explain output: the form
    /// `relation` holds and how it got it.
    pub fn peek(
        &self,
        relation: &Arc<KRelation<K>>,
    ) -> Option<(Arc<Vec<Batch<K>>>, BatchProvenance)> {
        let form = relation.form()?;
        Some((Arc::clone(&form.batches), form.provenance()))
    }

    /// Seeds `new` = `old` + `delta` with `old`'s form (if it holds one)
    /// plus the delta's own batches — called by the commit path under the
    /// writer lock. `old` keeps its form, so snapshots holding it never
    /// re-convert; if anything below panics (an annotation overflowing as
    /// the coalescing re-sums, say), `new` simply holds no form and its
    /// first scan converts.
    ///
    /// The appended tail is **coalesced like a binary counter**: while the
    /// last delta batch has more than half the rows of the one before it,
    /// the two are merged through the whole-row grouping kernel (duplicate
    /// rows re-summed, rows summing to zero dropped). Every delta batch
    /// therefore has at least twice the rows of its successor, so `r` live
    /// delta rows sit in at most ⌈log₂ r⌉ + 1 batches, and each row is
    /// re-merged O(log r) times over its life. Without it a scan reads one
    /// more batch per commit forever: measured at 10⁵ rows, `select[g = n] F`
    /// cost 385 / 476 / 827 / 2 441 µs after 0 / 256 / 1 024 / 4 096 one-row
    /// commits (25 → 4 121 batches), and 111 / 111 / 112 / 111 µs with the
    /// rule below (26 batches) — CHANGES.md, PR 21. The factor two is what
    /// makes the bound a theorem rather than a tendency: merging only equal
    /// sizes, as a plain counter would, lets cancellations leave a tail of
    /// slowly shrinking batches.
    ///
    /// Once the tail's live rows outgrow the base conversion `new` gets no
    /// form instead (its first scan re-converts, which also folds the
    /// deltas into full batches); rows that cancelled are not live, so
    /// insert-then-delete churn never gets there.
    pub fn patch(&self, old: &KRelation<K>, new: &KRelation<K>, delta: &KRelation<K>) {
        let Some(form) = old.form() else {
            return;
        };
        let tail_rows: usize = form.tail().iter().map(Batch::live_rows).sum();
        if tail_rows + delta.len() > form.base_rows.max(BATCH_ROWS) {
            return;
        }
        let whole_row: Vec<usize> = (0..new.schema().arity()).collect();
        let mut batches = form.batches.as_ref().clone();
        for delta_batch in delta.batches().iter().cloned() {
            batches.push(delta_batch);
            while let [.., before, last] = &batches[form.base_batches..] {
                if before.live_rows() >= 2 * last.live_rows() {
                    break;
                }
                let pair = batches.split_off(batches.len() - 2);
                let merged = group_batches(pair, &whole_row).into_batch(whole_row.len());
                if merged.live_rows() > 0 {
                    batches.push(merged);
                }
            }
        }
        self.patches.fetch_add(1, Ordering::Relaxed);
        new.seed_form(ColumnarForm {
            batches: Arc::new(batches),
            base_batches: form.base_batches,
            base_rows: form.base_rows,
            patched: form.patched + 1,
            _made_by: Some(Arc::clone(&self.made)),
        });
    }

    /// A point-in-time read of the counters.
    pub fn stats(&self) -> BatchCacheStats {
        BatchCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            patches: self.patches.load(Ordering::Relaxed),
            entries: Arc::strong_count(&self.made) - 1,
        }
    }
}

// --- the key table ----------------------------------------------------------

/// The key id of a row whose key is absent, in a lookup that does not insert.
pub(crate) const NO_KEY: u32 = u32::MAX - 1;

/// Memo cell of a code tuple the table has not been asked about yet.
const UNSEEN: u32 = u32::MAX;

/// A flat open-addressing table from 64-bit key hashes to dense ids
/// (`0, 1, 2, …` in insertion order): one `u32` slot array, linear probing,
/// and each entry's full hash kept beside it, so a slot is rejected on its
/// hash before the caller's `eq` touches a column. `eq` is the exact key
/// comparison and runs on every hash-equal hit — the table never decides
/// equality, so collisions cost probes and nothing else.
///
/// A slot index is the **high** bits of one more multiplicative mix of the
/// hash: [`hash_combine`] ends in a multiplication, whose low bits depend on
/// the low bits of its inputs only, and the exchange has already spent them
/// (`hash % parts` — within a partition every key agrees on them).
///
/// Growth doubles the slot array at load ½ and re-places the stored hashes;
/// ids, and with them first-occurrence order, never move. Nothing is
/// allocated per key.
struct KeyTable {
    /// `id + 1`, or `0` for an empty slot. The length is a power of two.
    slots: Vec<u32>,
    /// `64 − log₂(slots.len())`.
    shift: u32,
    /// Per id, the hash it was inserted under.
    hashes: Vec<u64>,
}

impl KeyTable {
    fn new() -> KeyTable {
        KeyTable {
            slots: vec![0; 16],
            shift: 60,
            hashes: Vec::new(),
        }
    }

    fn home(&self, hash: u64) -> usize {
        (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// Walks `hash`'s probe sequence: the id of the first entry with this
    /// hash that `eq` accepts, or the empty slot that ends the walk.
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                occupied => {
                    let id = occupied - 1;
                    if self.hashes[id as usize] == hash && eq(id) {
                        return Ok(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.probe(hash, eq).ok()
    }

    /// The id of the entry `eq` accepts, or of a new entry; and whether it
    /// is new.
    fn find_or_insert(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> (u32, bool) {
        let slot = match self.probe(hash, eq) {
            Ok(id) => return (id, false),
            Err(slot) => slot,
        };
        let id = self.hashes.len() as u32;
        self.hashes.push(hash);
        if self.hashes.len() * 2 > self.slots.len() {
            self.grow();
        } else {
            self.slots[slot] = id + 1;
        }
        (id, true)
    }

    /// Doubles the slot array and re-places every stored hash in id order.
    fn grow(&mut self) {
        self.slots = vec![0; self.slots.len() * 2];
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = self.home(hash);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id as u32 + 1;
        }
    }
}

/// The rows of one materialized batch, as a [`KeyIndex`] sees them.
#[derive(Clone, Copy)]
pub(crate) struct KeyRows<'a> {
    /// The batch's columns.
    pub cols: &'a [Column],
    /// Its key columns.
    pub keys: &'a [usize],
    /// Its row count.
    pub len: usize,
    /// What [`code_domain_runs`] said of this batch.
    pub code_domain: bool,
}

/// The dictionary of column `key`, if it is a dictionary column.
fn dict_of(cols: &[Column], key: usize) -> Option<&Arc<StrDict>> {
    match &cols[key] {
        Column::Str { dict, .. } => Some(dict),
        _ => None,
    }
}

/// The cell count of the code-tuple grid over the key columns' dictionaries
/// — the product of their sizes — or `None` if there is no key column, one
/// is not a dictionary column, or the product does not fit below [`UNSEEN`].
fn grid_cells(cols: &[Column], keys: &[usize]) -> Option<usize> {
    let dicts: Option<Vec<&Arc<StrDict>>> = keys.iter().map(|&key| dict_of(cols, key)).collect();
    grid_size(dicts?)
}

/// The cell count of the grid of code tuples over `dicts` — the product of
/// their sizes — or `None` if there is no dictionary or the product does not
/// fit below [`UNSEEN`]: the size half of the code-domain when-rule, shared
/// by the key memo and a projecting join's summed groups.
pub(crate) fn grid_size<'a>(dicts: impl IntoIterator<Item = &'a Arc<StrDict>>) -> Option<usize> {
    let mut dicts = dicts.into_iter().peekable();
    dicts.peek()?;
    dicts
        .try_fold(1usize, |cells, dict| cells.checked_mul(dict.len()))
        .filter(|&cells| cells < UNSEEN as usize)
}

/// The dictionary column `col` of every one of `batches` is under, if it is
/// one and the same — so that a code names one string across all of them.
pub(crate) fn shared_dict<'a>(
    mut batches: impl Iterator<Item = &'a [Column]>,
    col: usize,
) -> Option<&'a Arc<StrDict>> {
    let first = dict_of(batches.next()?, col)?;
    batches
        .all(|cols| dict_of(cols, col).is_some_and(|dict| Arc::ptr_eq(dict, first)))
        .then_some(first)
}

/// Do the key columns of `a` and `b` hold codes of the same dictionaries?
fn same_key_dicts(a: &[Column], b: &[Column], keys: &[usize]) -> bool {
    keys.iter()
        .all(|&key| match (dict_of(a, key), dict_of(b, key)) {
            (Some(x), Some(y)) => Arc::ptr_eq(x, y),
            _ => false,
        })
}

/// The when-rule of the code-domain path, per batch of one kernel call:
/// every key column is a dictionary column, and the consecutive batches
/// sharing those dictionaries hold at least as many live rows as the memo has
/// cells (the product of the dictionary sizes) — so a memo is never larger
/// than the rows it serves (a 3-row delta batch under a 65 536-entry
/// dictionary goes to the table row by row).
pub(crate) fn code_domain_runs<K: Semiring>(batches: &[Batch<K>], keys: &[usize]) -> Vec<bool> {
    let mut out = vec![false; batches.len()];
    let mut start = 0;
    while start < batches.len() {
        let first = &batches[start].columns;
        let Some(cells) = grid_cells(first, keys) else {
            start += 1;
            continue;
        };
        let run = batches[start..]
            .iter()
            .take_while(|b| same_key_dicts(&b.columns, first, keys))
            .count();
        let rows: usize = batches[start..start + run]
            .iter()
            .map(Batch::live_rows)
            .sum();
        out[start..start + run].fill(rows >= cells);
        start += run;
    }
    out
}

/// Dense ids for the distinct keys of a row stream — the one helper under
/// the grouping kernel and both sides of the hash join: a [`KeyTable`] over
/// content hashes, each id's first row (its *representative*, which every
/// later hit is verified against with [`columns_rows_equal`]), and in front
/// of the table the **code-tuple memo**: when every key column is
/// dictionary-encoded, a dense `code tuple → id` grid over the dictionaries
/// at hand, so the table is asked once per distinct tuple of codes and every
/// other row costs one array read (the hash is then the `hash_combine` chain
/// over the dictionaries' per-code hashes — what the hash kernel computes per
/// row — and no per-row hash vector exists). The memo is kept across
/// consecutive batches whose key dictionaries are the same `Arc`s and reset
/// when one changes; whether a batch uses it at all is
/// [`code_domain_runs`]'s call.
pub(crate) struct KeyIndex {
    table: KeyTable,
    /// Per id, the `(batch, row)` that introduced it.
    reps: Vec<(u32, u32)>,
    /// Per cell of the code-tuple grid, the id of that key, or [`UNSEEN`].
    memo: Vec<u32>,
    /// The key columns' dictionaries the grid is over, in key order.
    memo_dicts: Vec<Arc<StrDict>>,
}

impl KeyIndex {
    pub(crate) fn new() -> KeyIndex {
        KeyIndex {
            table: KeyTable::new(),
            reps: Vec::new(),
            memo: Vec::new(),
            memo_dicts: Vec::new(),
        }
    }

    /// Number of distinct keys inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.reps.len()
    }

    /// One representative `(batch, row)` per id, in first-occurrence order.
    pub(crate) fn into_reps(self) -> Vec<(u32, u32)> {
        self.reps
    }

    /// Appends the key id of every row of `rows` to `out`. Representatives
    /// live in `stored` (batch-indexed column lists) under `stored_keys`,
    /// paired positionally with `rows.keys`. With `insert_as = Some(b)` —
    /// `rows` being batch `b` of `stored` — a key not seen before gets the
    /// next id; with `None` it reads as [`NO_KEY`] and nothing is inserted
    /// (do not insert again afterwards: the memo may hold such answers).
    pub(crate) fn assign<S: AsRef<[Column]>>(
        &mut self,
        rows: KeyRows<'_>,
        stored: &[S],
        stored_keys: &[usize],
        insert_as: Option<u32>,
        out: &mut Vec<u32>,
    ) {
        out.reserve(rows.len);
        if !rows.code_domain {
            for (row, &hash) in key_hashes(rows.cols, rows.keys, rows.len)
                .iter()
                .enumerate()
            {
                out.push(self.resolve(hash, row as u32, rows, stored, stored_keys, insert_as));
            }
            return;
        }
        let keys = rows.keys;
        let column = |key: usize| match &rows.cols[key] {
            Column::Str { dict, codes } => (dict, codes.as_slice()),
            _ => unreachable!("code_domain_runs only flags dictionary keys"),
        };
        let same_dicts = self.memo_dicts.len() == keys.len()
            && keys
                .iter()
                .zip(&self.memo_dicts)
                .all(|(&key, memo_dict)| Arc::ptr_eq(column(key).0, memo_dict));
        if !same_dicts {
            let cells = keys.iter().map(|&key| column(key).0.len()).product();
            self.memo.clear();
            self.memo.resize(cells, UNSEEN);
            self.memo_dicts = keys.iter().map(|&key| column(key).0.clone()).collect();
        }
        // A row's cell is its codes read as one mixed-radix number, built a
        // column at a time; a one-column key's cells are its codes.
        let combined: Vec<u32>;
        let cells: &[u32] = match *keys {
            [only] => column(only).1,
            _ => {
                let mut acc = column(keys[0]).1.to_vec();
                for &key in &keys[1..] {
                    let (dict, codes) = column(key);
                    let radix = dict.len() as u32;
                    for (cell, &code) in acc.iter_mut().zip(codes) {
                        *cell = *cell * radix + code;
                    }
                }
                combined = acc;
                &combined
            }
        };
        for (row, &cell) in cells.iter().enumerate() {
            let mut id = self.memo[cell as usize];
            if id == UNSEEN {
                let hash = keys.iter().fold(HASH_SEED, |hash, &key| {
                    let (dict, codes) = column(key);
                    hash_combine(hash, dict.hashes[codes[row] as usize])
                });
                id = self.resolve(hash, row as u32, rows, stored, stored_keys, insert_as);
                self.memo[cell as usize] = id;
            }
            out.push(id);
        }
    }

    /// One row through the table, verified against representatives.
    #[inline]
    fn resolve<S: AsRef<[Column]>>(
        &mut self,
        hash: u64,
        row: u32,
        rows: KeyRows<'_>,
        stored: &[S],
        stored_keys: &[usize],
        insert_as: Option<u32>,
    ) -> u32 {
        let reps = &self.reps;
        let eq = |id: u32| {
            let (b, r) = reps[id as usize];
            let rep_cols = stored[b as usize].as_ref();
            columns_rows_equal(rows.cols, row, rows.keys, rep_cols, r, stored_keys)
        };
        match insert_as {
            Some(batch) => {
                let (id, new) = self.table.find_or_insert(hash, eq);
                if new {
                    self.reps.push((batch, row));
                }
                id
            }
            None => self.table.find(hash, eq).unwrap_or(NO_KEY),
        }
    }
}

/// Per key id, the rows that carry it, in stream order — a hash join's build
/// side. One counting sort of the ids [`KeyIndex::assign`] produced: two flat
/// arrays, no list per key.
pub(crate) struct KeyChains {
    /// Chain `id` is `rows[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    rows: Vec<(u32, u32)>,
}

impl KeyChains {
    /// `key_of` holds one id `< n_keys` per row, batch after batch;
    /// `batch_lens` the row count of each batch.
    pub(crate) fn new(
        n_keys: usize,
        key_of: &[u32],
        batch_lens: impl Iterator<Item = usize>,
    ) -> KeyChains {
        let mut starts = vec![0u32; n_keys + 1];
        for &id in key_of {
            starts[id as usize + 1] += 1;
        }
        for id in 0..n_keys {
            starts[id + 1] += starts[id];
        }
        let mut next = starts.clone();
        let mut rows = vec![(0, 0); key_of.len()];
        let mut ids = key_of.iter();
        for (batch, len) in batch_lens.enumerate() {
            for (row, &id) in ids.by_ref().take(len).enumerate() {
                rows[next[id as usize] as usize] = (batch as u32, row as u32);
                next[id as usize] += 1;
            }
        }
        KeyChains { starts, rows }
    }

    /// The rows of key `id`, in stream order.
    pub(crate) fn of(&self, id: u32) -> &[(u32, u32)] {
        let id = id as usize;
        &self.rows[self.starts[id] as usize..self.starts[id + 1] as usize]
    }
}

// --- grouping --------------------------------------------------------------

/// A hash-grouping of the live rows of many batches by key columns: groups
/// appear in first-occurrence (stream) order, keyed by content hash with
/// exact verification — the shared kernel under pre-join duplicate
/// aggregation, the root merge, cache-patch coalescing and IVM's aggregate
/// rule.
pub struct Grouped<K> {
    /// Per-batch materialized columns (sources for gathering).
    pub sources: Vec<Vec<Column>>,
    /// One representative `(batch, row)` ref per group, in first-occurrence
    /// order.
    pub reps: Vec<(u32, u32)>,
    /// Summed annotation per group (stream order within each group).
    pub anns: Vec<K>,
}

/// Groups the live rows of `batches` by the given key columns, summing
/// annotations of equal-key rows in stream order. With `keys` spanning the
/// whole row this is the duplicate aggregation of Definition 3.2's `Σ`.
///
/// Two passes: every row is assigned its group's id (through the key table,
/// or per tuple of dictionary codes — see the module docs), then the semiring
/// sums all groups in one call ([`Semiring::sum_groups`]) — which is what lets
/// provenance circuits build one node per group instead of one per row.
pub fn group_batches<K: Semiring>(batches: Vec<Batch<K>>, keys: &[usize]) -> Grouped<K> {
    let code_domain = code_domain_runs(&batches, keys);
    let mut sources: Vec<Vec<Column>> = Vec::with_capacity(batches.len());
    let mut index = KeyIndex::new();
    // Per live row, in stream order: its group and its annotation. Sized
    // once — regrowing row-sized buffers batch by batch costs more than
    // summing them.
    let total_rows: usize = batches.iter().map(Batch::live_rows).sum();
    let mut group_of: Vec<u32> = Vec::with_capacity(total_rows);
    let mut anns: Vec<K> = Vec::new();
    for (bidx, batch) in batches.into_iter().enumerate() {
        let (len, columns, batch_anns) = batch.materialize().into_parts();
        debug_assert_eq!(len, batch_anns.len());
        sources.push(columns);
        let rows = KeyRows {
            cols: &sources[bidx],
            keys,
            len,
            code_domain: code_domain[bidx],
        };
        index.assign(rows, &sources, keys, Some(bidx as u32), &mut group_of);
        if anns.is_empty() {
            // A lone batch gives up its annotation vector: no second copy.
            anns = batch_anns;
            anns.reserve_exact(total_rows - len);
        } else {
            anns.extend(batch_anns);
        }
    }
    let reps = index.into_reps();
    Grouped {
        sources,
        anns: K::sum_groups(reps.len(), &group_of, anns),
        reps,
    }
}

impl<K: Semiring> Grouped<K> {
    /// Emits the groups as one batch (first-occurrence order), dropping
    /// zero-summed groups — the aggregation kernel's output. `arity` is the
    /// column count (needed when there are no source batches).
    pub fn into_batch(self, arity: usize) -> Batch<K> {
        let live: Vec<(u32, u32)> = self
            .reps
            .iter()
            .zip(&self.anns)
            .filter(|(_, k)| !k.is_zero())
            .map(|(&r, _)| r)
            .collect();
        let anns: Vec<K> = self.anns.into_iter().filter(|k| !k.is_zero()).collect();
        let source_refs: Vec<&[Column]> = self.sources.iter().map(Vec::as_slice).collect();
        let columns = (0..arity)
            .map(|c| gather_multi(&source_refs, c, &live))
            .collect();
        Batch::new(anns.len(), columns, anns)
    }

    /// Emits the groups as one batch in **canonical order** — rows ascending
    /// column by column under [`Value`]'s order, which is the [`Tuple`] order
    /// of those rows under any schema — with zero-summed groups dropped.
    /// Meant for whole-row groupings (distinct rows, so the order is total):
    /// the plan root's result, sorted once.
    pub fn into_sorted(self, arity: usize) -> Batch<K> {
        let (len, columns, anns) = self.into_batch(arity).into_parts();
        let order = canonical_order(&columns, len);
        let columns = columns.iter().map(|c| c.gather(&order)).collect();
        let mut anns: Vec<Option<K>> = anns.into_iter().map(Some).collect();
        let anns = order
            .iter()
            .map(|&row| anns[row as usize].take().expect("a permutation"))
            .collect();
        Batch::new(order.len(), columns, anns)
    }

    /// Converts the groups straight into a [`KRelation`] — the column→row
    /// boundary at the API edge. Rows are sorted columnarly first, so each
    /// distinct row builds its [`Tuple`] exactly once and the relation's map
    /// is bulk-built from an ordered stream instead of searched per insert.
    pub fn into_relation(self, schema: &Schema) -> KRelation<K> {
        batch_into_relation(self.into_sorted(schema.arity()), schema)
    }
}

/// Builds the relation of a batch already in canonical order with distinct,
/// non-zero rows (what [`Grouped::into_sorted`] emits).
pub(crate) fn batch_into_relation<K: Semiring>(batch: Batch<K>, schema: &Schema) -> KRelation<K> {
    let (_, columns, anns) = batch.into_parts();
    KRelation::from_sorted_support(
        schema.clone(),
        anns.into_iter().enumerate().map(|(row, k)| {
            let values = columns.iter().map(|c| c.value_at(row as u32)).collect();
            (Tuple::from_schema_row(schema, values), k)
        }),
    )
}

/// One column's contribution to the canonical row order.
enum SortKey<'a> {
    I64(&'a [i64]),
    /// Per row, the rank of its string among the strings the column uses.
    Rank(Vec<u32>),
    Val(&'a [Value]),
}

impl SortKey<'_> {
    fn of(column: &Column) -> SortKey<'_> {
        match column {
            Column::I64(v) => SortKey::I64(v),
            Column::Val(v) => SortKey::Val(v),
            Column::Str { dict, codes } => {
                // Order the codes in use by their strings once; rows then
                // compare as integers.
                const UNUSED: u32 = u32::MAX;
                let mut rank_of = vec![UNUSED; dict.len()];
                for &code in codes.iter() {
                    rank_of[code as usize] = 0;
                }
                let mut used: Vec<u32> = (0..dict.len() as u32)
                    .filter(|&code| rank_of[code as usize] != UNUSED)
                    .collect();
                used.sort_unstable_by(|&a, &b| dict.resolve(a).cmp(dict.resolve(b)));
                for (rank, &code) in used.iter().enumerate() {
                    rank_of[code as usize] = rank as u32;
                }
                SortKey::Rank(codes.iter().map(|&c| rank_of[c as usize]).collect())
            }
        }
    }

    fn cmp(&self, a: u32, b: u32) -> std::cmp::Ordering {
        let (a, b) = (a as usize, b as usize);
        match self {
            SortKey::I64(v) => v[a].cmp(&v[b]),
            SortKey::Rank(v) => v[a].cmp(&v[b]),
            SortKey::Val(v) => v[a].cmp(&v[b]),
        }
    }

    /// An order-preserving `u64` image of the row's key; typed columns only.
    fn prefix(&self, row: usize) -> u64 {
        match self {
            SortKey::I64(v) => v[row] as u64 ^ (1 << 63),
            SortKey::Rank(v) => u64::from(v[row]),
            SortKey::Val(_) => unreachable!("mixed-type columns have no inline key"),
        }
    }
}

/// The permutation that puts `len` rows of `columns` in canonical order.
/// A typed first column's key rides inline with the row id, so the sort
/// touches the columns again only when two rows tie on it.
fn canonical_order(columns: &[Column], len: usize) -> Vec<u32> {
    let keys: Vec<SortKey<'_>> = columns.iter().map(SortKey::of).collect();
    let (inline, rest) = match keys.split_first() {
        Some((first, rest)) if !matches!(first, SortKey::Val(_)) => (Some(first), rest),
        _ => (None, keys.as_slice()),
    };
    let mut rows: Vec<(u64, u32)> = (0..len)
        .map(|row| (inline.map_or(0, |key| key.prefix(row)), row as u32))
        .collect();
    rows.sort_unstable_by(|&(pa, a), &(pb, b)| {
        pa.cmp(&pb).then_with(|| {
            rest.iter()
                .map(|key| key.cmp(a, b))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    });
    rows.into_iter().map(|(_, row)| row).collect()
}

#[cfg(test)]
mod key_table_tests {
    //! Collisions cost time, never results: the table under hashes chosen by
    //! the test. `find_or_insert` takes the hash as an argument, so injecting
    //! one needs no hook — the kernels' hash functions are simply not called.

    use super::{KeyChains, KeyTable};
    use std::collections::BTreeMap;

    /// Runs `keys` through a table under `hash_of`, checking ids (first-
    /// occurrence order), lookups and the per-key chains against a model.
    fn check(keys: &[u64], hash_of: impl Fn(u64) -> u64) -> KeyTable {
        let mut table = KeyTable::new();
        let mut key_of_id: Vec<u64> = Vec::new();
        let mut model: BTreeMap<u64, (u32, Vec<u32>)> = BTreeMap::new();
        let mut ids: Vec<u32> = Vec::new();
        for (row, &key) in keys.iter().enumerate() {
            let (id, new) = table.find_or_insert(hash_of(key), |id| key_of_id[id as usize] == key);
            if new {
                key_of_id.push(key);
            }
            let next = model.len() as u32;
            let entry = model.entry(key).or_insert((next, Vec::new()));
            entry.1.push(row as u32);
            assert_eq!((id, new), (entry.0, entry.1.len() == 1), "row {row}");
            ids.push(id);
        }
        assert_eq!(key_of_id.len(), model.len());
        // Two batches, so chains cross a batch boundary.
        let split = keys.len() / 2;
        let chains = KeyChains::new(model.len(), &ids, [split, keys.len() - split].into_iter());
        for (&key, (id, rows)) in &model {
            let found = table.find(hash_of(key), |id| key_of_id[id as usize] == key);
            assert_eq!(found, Some(*id));
            let expected: Vec<(u32, u32)> = rows
                .iter()
                .map(|&r| match (r as usize).checked_sub(split) {
                    Some(in_second) => (1, in_second as u32),
                    None => (0, r),
                })
                .collect();
            assert_eq!(chains.of(*id), expected.as_slice());
        }
        let absent = u64::MAX - 7;
        assert!(!model.contains_key(&absent));
        assert_eq!(table.find(hash_of(absent), |_| false), None);
        table
    }

    /// Slots walked to find each stored entry: `(mean, max)`.
    fn probe_lengths(table: &KeyTable) -> (f64, usize) {
        let mask = table.slots.len() - 1;
        let lengths: Vec<usize> = table
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(slot, &s)| {
                let home = table.home(table.hashes[s as usize - 1]);
                (slot.wrapping_sub(home) & mask) + 1
            })
            .collect();
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        (mean, lengths.into_iter().max().unwrap_or(0))
    }

    /// A stream with repeats: every key twice, interleaved.
    fn stream(distinct: u64) -> Vec<u64> {
        (0..distinct).chain((0..distinct).rev()).collect()
    }

    /// What the kernels feed the table: `hash_combine` of a seed and a
    /// per-value hash.
    fn kernel_hash(key: u64) -> u64 {
        super::hash_combine(super::HASH_SEED, super::int_content_hash(key as i64))
    }

    #[test]
    fn one_hash_for_every_key_is_one_long_walk_and_the_same_groups() {
        let table = check(&stream(600), |_| 0xdead_beef);
        assert_eq!(probe_lengths(&table).1, 600);
    }

    #[test]
    fn hashes_agreeing_in_their_top_and_low_sixteen_bits_spread() {
        // Only bits 16..48 tell keys apart — what a partition of an exchange
        // (low bits spent) over a clustered value hash (high bits equal)
        // looks like.
        let table = check(&stream(20_000), |key| {
            0xabcd_0000_0000_1234 | (key.wrapping_mul(0x9e37_79b9) & 0xffff_ffff) << 16
        });
        let (mean, max) = probe_lengths(&table);
        assert!(mean < 2.0 && max < 64, "mean {mean}, max {max}");
    }

    #[test]
    fn consecutive_integers_as_hashes_spread() {
        let table = check(&stream(20_000), |key| key);
        let (mean, max) = probe_lengths(&table);
        assert!(mean < 2.0 && max < 64, "mean {mean}, max {max}");
    }

    #[test]
    fn a_hundred_thousand_keys_through_many_growths() {
        let table = check(&stream(100_000), kernel_hash);
        // 16 slots at load ½ → 2¹⁸: fourteen doublings, ids unmoved.
        assert_eq!(table.slots.len(), 1 << 18);
        assert!(table.slots.len() >= 2 * table.hashes.len());
        let (mean, max) = probe_lengths(&table);
        assert!(mean < 2.0 && max < 64, "mean {mean}, max {max}");
    }

    #[test]
    fn equal_hashes_of_unequal_keys_keep_their_own_ids() {
        // Pairs of keys share a hash; `eq` alone separates them.
        let table = check(&stream(5_000), |key| kernel_hash(key / 2));
        assert_eq!(table.hashes.len(), 5_000);
    }
}

#[cfg(test)]
mod code_domain_tests {
    //! When the code-tuple grid is taken, and that taking it changes no id:
    //! `kernel_model` compares whole kernels with a model; these pin the
    //! decision itself and the ids behind it.

    use super::{code_domain_runs, grid_cells, Batch, Column, KeyIndex, KeyRows};
    use crate::value::Value;
    use provsem_semiring::Natural;

    /// `rows` rows of `(s{i % a}, s{i % b}, i % 3)`: two dictionary columns
    /// of `a` and `b` strings and an integer column.
    fn batch(rows: usize, a: usize, b: usize) -> Batch<Natural> {
        Batch::from_rows(
            3,
            (0..rows)
                .map(|i| {
                    let row = [
                        Value::str(format!("s{}", i % a)),
                        Value::str(format!("s{}", i % b)),
                        Value::int((i % 3) as i64),
                    ];
                    (Box::from(row), Natural::from(1u64))
                })
                .collect(),
        )
    }

    /// Rows `lo..hi` of `whole`, under `whole`'s dictionaries.
    fn cut(whole: &Batch<Natural>, lo: u32, hi: u32) -> Batch<Natural> {
        let rows: Vec<u32> = (lo..hi).collect();
        Batch::new(
            rows.len(),
            whole.columns().iter().map(|c| c.gather(&rows)).collect(),
            rows.iter().map(|&r| whole.anns()[r as usize]).collect(),
        )
    }

    #[test]
    fn every_key_column_a_dictionary_and_rows_covering_the_grid() {
        // 4 × 5 = 20 cells.
        let whole = batch(30, 4, 5);
        let parts = vec![cut(&whole, 0, 12), cut(&whole, 12, 30)];
        assert_eq!(code_domain_runs(&parts, &[0, 1]), [true, true]);
        assert_eq!(code_domain_runs(&parts, &[1, 0]), [true, true]);
        // One run of 12 rows, one of 18: a run is what a memo serves.
        let few = vec![cut(&whole, 0, 12)];
        assert_eq!(code_domain_runs(&few, &[0, 1]), [false]);
        assert_eq!(code_domain_runs(&few, &[0]), [true]);
        // An integer key column, or no key column at all: the table.
        assert_eq!(code_domain_runs(&parts, &[0, 2]), [false, false]);
        assert_eq!(code_domain_runs(&parts, &[]), [false, false]);
    }

    #[test]
    fn a_run_ends_where_one_key_dictionary_changes() {
        let first = batch(30, 4, 5);
        // Same first column's strings, but every batch of `batch` mints its
        // own dictionaries: a new run for the pair, whatever column 0 holds.
        let second = batch(10, 4, 5);
        let parts = vec![cut(&first, 0, 15), cut(&first, 15, 30), second];
        assert_eq!(code_domain_runs(&parts, &[0, 1]), [true, true, false]);
    }

    #[test]
    fn a_grid_past_u32_is_never_taken() {
        let wide = batch(2_048, 2_048, 2_047);
        assert_eq!(grid_cells(wide.columns(), &[0, 1, 0]), None);
        assert_eq!(grid_cells(wide.columns(), &[0, 1]), Some(2_048 * 2_047));
        assert_eq!(grid_cells(wide.columns(), &[0, 2]), None);
        assert_eq!(grid_cells(wide.columns(), &[]), None);
        assert!(!code_domain_runs(&[wide], &[0, 1, 0])[0]);
    }

    #[test]
    fn grid_ids_equal_per_row_ids() {
        let whole = batch(600, 7, 11);
        let parts = vec![cut(&whole, 0, 250), cut(&whole, 250, 600)];
        let cols: Vec<&[Column]> = parts.iter().map(Batch::columns).collect();
        let keys = [1, 0];
        let ids_by = |code_domain: bool| {
            let mut index = KeyIndex::new();
            let mut ids = Vec::new();
            for (b, part) in parts.iter().enumerate() {
                let rows = KeyRows {
                    cols: part.columns(),
                    keys: &keys,
                    len: part.phys_rows(),
                    code_domain,
                };
                index.assign(rows, &cols, &keys, Some(b as u32), &mut ids);
            }
            (ids, index.into_reps())
        };
        assert_eq!(code_domain_runs(&parts, &keys), [true, true]);
        let (grid_ids, grid_reps) = ids_by(true);
        assert_eq!(grid_reps.len(), 77, "7 × 11 pairs, all present");
        assert_eq!((grid_ids, grid_reps), ids_by(false));
    }
}
