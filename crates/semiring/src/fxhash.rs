//! A deterministic, non-cryptographic hasher for the engine's hot hash maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed with a
//! per-map random seed: robust against hash-flooding, but measurably slow on
//! the short keys the engines hash millions of times — join keys
//! (`Vec<Value>`), fact vectors, and interned circuit nodes — and
//! non-deterministic in iteration order from run to run. This module is a
//! hand-rolled FxHash-style hasher (the multiply-and-rotate scheme used by
//! rustc's `FxHashMap`): one `rotate ⊕ multiply` step per 8 input bytes, no
//! seed, no allocation, no dependencies.
//!
//! Determinism is load-bearing, not just a nicety: the parallel executor
//! hash-partitions join and aggregation inputs by key
//! ([`fx_hash_one`] modulo the partition count), and the "parallel equals
//! serial, bit for bit" guarantee documented in the README relies on every
//! run assigning rows to the same partitions. All annotated inputs are
//! trusted workload data, so flood resistance buys nothing here.
//!
//! ```
//! use provsem_semiring::fxhash::{fx_hash_one, FxHashMap};
//!
//! let mut index: FxHashMap<&str, u32> = FxHashMap::default();
//! index.insert("p", 2);
//! assert_eq!(index.get("p"), Some(&2));
//! // Same value, same hash — in this process and every other one.
//! assert_eq!(fx_hash_one(&"p"), fx_hash_one(&"p"));
//! ```

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier from Firefox's original Fx hash (a 64-bit constant with
/// good bit dispersion under multiplication).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state: a single `u64` folded with rotate-xor-multiply.
#[derive(Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; the seedless `BuildHasher` behind the map aliases.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic [`FxHasher`]. Iteration order is
/// a function of the insertion sequence alone, so any map filled in a
/// deterministic order iterates deterministically — which the parallel
/// executor's "identical results at every thread count" guarantee builds on.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the deterministic [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// [`FxHasher`] with one more multiplication at `finish`, folded so that
/// every output bit depends on every input bit. `HashMap` picks a bucket by
/// the *low* bits of a hash, and [`FxHasher`] ends in a multiplication, whose
/// low bits depend on the low bits of its last word only — for names sharing
/// a prefix (`R_0, R_1, …`: the words differ in their high bytes) at most 32
/// buckets are ever picked, and a 28 k-entry map degrades to a scan of
/// collision groups. Maps keyed by such names use this hasher; every other
/// map keeps [`FxHasher`], whose values the executor's partitioning reads.
#[derive(Clone, Default)]
pub(crate) struct FxFoldHasher(FxHasher);

impl Hasher for FxFoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    /// A `str`'s terminator: one word, not a one-byte slice.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.0.write_u8(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let product = self.0.hash.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        product ^ (product >> 32)
    }
}

/// A `HashMap` keyed with [`FxFoldHasher`]: deterministic like
/// [`FxHashMap`], and spread over its buckets by every bit of the key.
pub(crate) type FxFoldHashMap<K, V> =
    std::collections::HashMap<K, V, BuildHasherDefault<FxFoldHasher>>;

/// Hashes one materialized value with [`FxHasher`] — the whole-row
/// partitioning function of the parallel executor's exchanges
/// (`fx_hash_one(row) % partitions`; column-subset keys drive an
/// [`FxHasher`] directly to avoid materializing the key).
#[inline]
pub fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_and_spreads() {
        let h1 = fx_hash_one(&("a", 1u64));
        let h2 = fx_hash_one(&("a", 1u64));
        assert_eq!(h1, h2);
        // Different values should (overwhelmingly) hash differently.
        let distinct: std::collections::BTreeSet<u64> =
            (0..1000u64).map(|i| fx_hash_one(&i)).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn map_and_set_work_with_default() {
        let mut map: FxHashMap<Vec<u32>, &str> = FxHashMap::default();
        map.insert(vec![1, 2], "a");
        map.insert(vec![3], "b");
        assert_eq!(map.get([1, 2].as_slice()), Some(&"a"));
        let mut set: FxHashSet<&str> = FxHashSet::default();
        assert!(set.insert("x"));
        assert!(!set.insert("x"));
    }

    #[test]
    fn iteration_order_is_reproducible_for_same_insertions() {
        let build = || {
            let mut map: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..100 {
                map.insert(i * 37, i);
            }
            map.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// The low ten bits — the bucket of a 1 024-bucket map — of the names
    /// `R_0 … R_99999` under each hasher.
    fn buckets_of_names<H: Hasher + Default>() -> usize {
        let low_bits: std::collections::BTreeSet<u64> = (0..100_000)
            .map(|i| {
                let mut hasher = H::default();
                format!("R_{i}").as_str().hash(&mut hasher);
                hasher.finish() & 1023
            })
            .collect();
        low_bits.len()
    }

    #[test]
    fn names_sharing_a_prefix_spread_over_buckets_only_when_folded() {
        assert!(buckets_of_names::<FxHasher>() <= 32);
        assert_eq!(buckets_of_names::<FxFoldHasher>(), 1024);
    }

    #[test]
    fn partial_tail_bytes_are_hashed() {
        // 9 bytes = one full word + one tail byte; the tail must matter.
        assert_ne!(fx_hash_one(b"123456789".as_slice()), {
            fx_hash_one(b"123456780".as_slice())
        });
    }
}
