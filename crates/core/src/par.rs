//! Scoped-thread fan-out helpers shared by the parallel engines.
//!
//! Everything here is deliberately boring: contiguous chunking, one scoped
//! worker per chunk ([`std::thread::scope`] — no runtime, no work stealing),
//! and results concatenated **in chunk order**, so a parallel map is a
//! reordering-free drop-in for its serial loop. The morsel-driven executor
//! ([`crate::plan`]), the parallel specializations of
//! [`crate::provenance`], and the parallel semi-naive rounds of
//! `provsem-datalog` all build on these two functions; the determinism
//! story documented in the README's "Parallel execution" section bottoms
//! out here.

/// Below this many items a parallel map runs inline on the calling thread:
/// spawning workers costs tens of microseconds, which tiny inputs never
/// recoup. Chosen so the unit-test fixtures (a handful of tuples) take the
/// serial path while every benchmark workload parallelizes.
pub const SPAWN_THRESHOLD: usize = 128;

/// The partition a hashed key belongs to under a `parts`-way exchange of
/// the batch executor. Key hashes are content-based, so equal keys land in
/// equal partitions whichever column representation carries them.
pub(crate) fn part_of(hash: u64, parts: usize) -> usize {
    (hash % parts as u64) as usize
}

/// Splits `items` into at most `parts` contiguous chunks of near-equal
/// length, preserving order. Returns fewer chunks when there are fewer
/// items than parts; never returns an empty chunk.
pub fn chunked<T>(items: Vec<T>, parts: usize) -> Vec<Vec<T>> {
    let parts = parts.clamp(1, items.len().max(1));
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut chunks = Vec::with_capacity(parts);
    let mut items = items.into_iter();
    for i in 0..parts {
        let take = base + usize::from(i < extra);
        if take == 0 {
            break;
        }
        chunks.push(items.by_ref().take(take).collect());
    }
    chunks
}

/// Maps `work` over owned chunks — one scoped worker thread per chunk when
/// the input is large enough, inline otherwise — and returns the outputs in
/// chunk order. `work` receives the chunk index and the chunk; with
/// deterministic chunking (contiguous, order-preserving) and in-order
/// collection, the result is identical to the serial
/// `chunks.map(work).collect()` whatever the thread interleaving was.
///
/// Worker panics are re-raised on the calling thread with their original
/// payload.
pub fn par_map_chunks<T, R, F>(chunks: Vec<Vec<T>>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, Vec<T>) -> R + Sync,
{
    let total: usize = chunks.iter().map(Vec::len).sum();
    if chunks.len() <= 1 || total < SPAWN_THRESHOLD {
        return chunks
            .into_iter()
            .enumerate()
            .map(|(i, chunk)| f(i, chunk))
            .collect();
    }
    let indexed: Vec<(usize, Vec<T>)> = chunks.into_iter().enumerate().collect();
    spawn_map(indexed, |(i, chunk)| f(i, chunk))
}

/// Unconditionally spawns one scoped worker per item and collects the
/// results in item order, re-raising worker panics with their original
/// payload. The low-level primitive under [`par_map_chunks`]; callers that
/// pre-package their work (e.g. the batch executor, which seals
/// annotation batches into `Send` tokens before crossing threads) use it
/// directly after making their own inline-vs-spawn decision.
pub fn spawn_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                let f = &f;
                scope.spawn(move || f(item))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(result) => result,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_contiguous_and_balanced() {
        let chunks = chunked((0..10).collect::<Vec<_>>(), 4);
        assert_eq!(
            chunks,
            vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8, 9]]
        );
        assert_eq!(chunked(Vec::<u8>::new(), 4), Vec::<Vec<u8>>::new());
        assert_eq!(chunked(vec![1], 4), vec![vec![1]]);
        // More parts than items: one chunk per item, none empty.
        assert_eq!(chunked(vec![1, 2], 8), vec![vec![1], vec![2]]);
    }

    #[test]
    fn par_map_matches_serial_map_and_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<Vec<u64>> = chunked(items.clone(), 4)
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.into_iter().map(|x| x * 2 + i as u64).collect())
            .collect();
        let parallel = par_map_chunks(chunked(items, 4), |i, c| {
            c.into_iter().map(|x| x * 2 + i as u64).collect::<Vec<_>>()
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_panics_propagate() {
        let chunks = chunked((0..10_000).collect::<Vec<u64>>(), 4);
        let err = std::panic::catch_unwind(|| {
            par_map_chunks(chunks, |i, _| {
                assert!(i != 2, "boom in worker {i}");
                i
            })
        })
        .expect_err("worker panic must surface");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("boom in worker 2"), "{message}");
    }
}
