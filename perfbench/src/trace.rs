//! The traced run's machinery: in-memory spans recorded from the
//! benchmark's own files around calls into each layer's public functions,
//! and the microbenchmarks that time `core::kernels` and the semiring
//! operations directly. Spans inside the program are a later change.

use crate::metrics::Layers;
use crate::util::median;
use provsem_core::kernels::{group_batches, join_batches, relation_to_batches, Batch, ColSource};
use provsem_core::prelude::KRelation;
use provsem_semiring::ring::Integers;
use provsem_semiring::{NatInf, Natural, Semiring};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans of one operation share this.
    pub request: u32,
}

/// Spans stay in memory and are written out, if asked, when the run ends.
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.list.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.list.len() as u32 - 1
    }

    /// Closes a span and returns its duration in microseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let span = &mut self.list[id as usize];
        span.end_ns = self.origin.elapsed().as_nanos() as u64;
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Records a span around `f`; returns its result and microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let out = f();
        (out, self.close(id))
    }

    /// What recording one span costs, in nanoseconds.
    pub fn cost_ns() -> f64 {
        let mut scratch = Spans::new();
        let started = Instant::now();
        for i in 0..100_000 {
            let id = scratch.open("cost", NO_PARENT, i);
            scratch.close(id);
        }
        black_box(&scratch.list);
        started.elapsed().as_nanos() as f64 / 100_000.0
    }

    /// One JSON object per line: name, start, end, parent span, request.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Times `core::kernels` on the workload's own data: row→column conversion
/// of `left`, key hashing and grouping on `group_key`, a hash join of `left`
/// (probe, on `left_key`) with `right` (build, on `right_key`), and the root
/// merge of `left`'s batches back into a relation.
pub fn kernel_rates<K: Semiring>(
    layers: &mut Layers,
    left: &KRelation<K>,
    group_key: usize,
    left_key: usize,
    right: &KRelation<K>,
    right_key: usize,
) {
    const REPEATS: usize = 5;
    let rows = left.len() as f64;
    let convert = median_secs(REPEATS, || {
        black_box(relation_to_batches(black_box(left)));
    });
    layers.set("column.convert_rows_per_s", rows / convert);

    let batches: Vec<Batch<K>> = relation_to_batches(left);
    let hash = median_secs(REPEATS, || {
        for batch in &batches {
            black_box(batch.key_hashes(&[group_key]));
        }
    });
    layers.set("kernels.key_hash_rows_per_s", rows / hash);

    let mut copies: Vec<Vec<Batch<K>>> = (0..REPEATS).map(|_| batches.clone()).collect();
    let group = median_secs(REPEATS, || {
        black_box(
            group_batches(copies.pop().expect("one copy per repeat"), &[group_key])
                .reps
                .len(),
        );
    });
    layers.set("kernels.group_rows_per_s", rows / group);

    let build = relation_to_batches(right);
    let output: Vec<ColSource> = (0..left.schema().arity())
        .map(ColSource::Probe)
        .chain((0..right.schema().arity()).map(ColSource::Build))
        .collect();
    let mut inputs: Vec<_> = (0..REPEATS)
        .map(|_| (build.clone(), batches.clone()))
        .collect();
    let mut pairs = 0usize;
    let join = median_secs(REPEATS, || {
        let (build, probe) = inputs.pop().expect("one input per repeat");
        let joined = join_batches(build, probe, &[right_key], &[left_key], &output, false);
        pairs = joined.iter().map(Batch::live_rows).sum();
    });
    layers.set("kernels.join_pairs_per_s", pairs as f64 / join);

    let all_columns: Vec<usize> = (0..left.schema().arity()).collect();
    let mut copies: Vec<Vec<Batch<K>>> = (0..REPEATS).map(|_| batches.clone()).collect();
    let merge = median_secs(REPEATS, || {
        let grouped = group_batches(copies.pop().expect("one copy per repeat"), &all_columns);
        black_box(grouped.into_relation(left.schema()).len());
    });
    layers.set("kernels.root_merge_rows_per_s", rows / merge);
}

fn mul_add_rate<K: Semiring>(values: &[K]) -> f64 {
    const PAIRS: usize = 1_000_000;
    let started = Instant::now();
    let mut acc = K::zero();
    for i in 0..PAIRS {
        let a = &values[i % values.len()];
        let b = &values[(i * 7 + 1) % values.len()];
        acc.plus_assign(&black_box(a).times(black_box(b)));
    }
    black_box(acc);
    PAIRS as f64 / started.elapsed().as_secs_f64()
}

/// 10⁶-pair loops over the annotation types the workloads use.
pub fn semiring_rates(layers: &mut Layers) {
    let naturals: Vec<Natural> = (1..=64u64).map(Natural::from).collect();
    layers.set("semiring.natural_mul_add_per_s", mul_add_rate(&naturals));
    let natinfs: Vec<NatInf> = (1..=64u64).map(NatInf::Fin).collect();
    layers.set("semiring.natinf_mul_add_per_s", mul_add_rate(&natinfs));
    let integers: Vec<Integers> = (1..=64i64).map(Integers::new).collect();
    const PAIRS: usize = 1_000_000;
    let started = Instant::now();
    let mut acc = Integers::zero();
    for i in 0..PAIRS {
        acc.plus_assign(black_box(&integers[i % integers.len()]));
    }
    black_box(acc);
    layers.set(
        "semiring.integers_add_per_s",
        PAIRS as f64 / started.elapsed().as_secs_f64(),
    );
}
