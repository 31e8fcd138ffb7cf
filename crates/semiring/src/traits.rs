//! Core algebraic traits: semirings, commutative semirings, natural order,
//! ω-continuity, and distributive lattices.
//!
//! The paper ("Provenance Semirings", PODS 2007) identifies **commutative
//! semirings** `(K, +, ·, 0, 1)` as exactly the algebraic structure needed so
//! that the positive relational algebra on annotated relations satisfies the
//! expected identities (Proposition 3.4). Datalog additionally requires
//! **ω-continuous** semirings (Section 5), and the terminating datalog
//! evaluation of Section 8 requires K to be a **finite distributive
//! lattice**.

use std::any::Any;
use std::fmt::Debug;

/// A type-erased, `Send` batch of annotations in transit between threads.
///
/// The parallel engines (the morsel-driven executor of `provsem-core` and
/// the parallel semi-naive rounds of `provsem-datalog`) move batches of
/// annotations across worker-thread boundaries. Most semirings are plain
/// `Send` data and travel as-is; provenance circuits are `!Send` *handles*
/// (their generation stamp belongs to one thread) and travel as node ids
/// into the process-wide arena, re-stamped on the receiving thread.
/// `Portable` erases that difference: [`Semiring::to_portable`] seals a
/// batch on the sending thread, [`Semiring::from_portable`] opens it on the
/// receiving one.
///
/// The token is opaque by design — the only valid consumer is
/// `from_portable` of the *same* semiring type.
pub struct Portable(Box<dyn Any + Send>);

impl Portable {
    /// Wraps a `Send` payload.
    pub fn new<T: Send + 'static>(payload: T) -> Portable {
        Portable(Box::new(payload))
    }

    /// Recovers the payload.
    ///
    /// # Panics
    /// Panics if the token was produced for a different payload type — which
    /// indicates a semiring's `to_portable`/`from_portable` pair disagrees.
    pub fn unwrap<T: 'static>(self) -> T {
        *self
            .0
            .downcast::<T>()
            .expect("Portable token opened as a different type than it was sealed as")
    }
}

impl Debug for Portable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Portable(..)")
    }
}

/// Implements the [`Semiring`] cross-thread transport hooks for a semiring
/// whose values are ordinary `Send + 'static` data: the batch travels as-is.
/// Invoke inside the `impl Semiring for …` block.
macro_rules! portable_by_send {
    () => {
        fn is_portable() -> bool {
            true
        }

        fn to_portable(batch: Vec<Self>) -> $crate::traits::Portable {
            $crate::traits::Portable::new(batch)
        }

        fn from_portable(token: $crate::traits::Portable) -> Vec<Self> {
            token.unwrap::<Vec<Self>>()
        }
    };
}

pub(crate) use portable_by_send;

/// The matches of a projecting join as [`Semiring::sum_products`] reads
/// them: a re-walkable enumeration. Each walk calls `f(group, a, b)` once
/// per match — `a · b` its product, operands in that order, `group` the
/// output tuple it adds to — and every walk yields the same matches in the
/// same order, so a consumer may walk twice (once to size, once to fill)
/// instead of collecting the matches.
pub trait ProductWalk<K> {
    /// Calls `f` once per match, in the enumeration's order.
    fn walk(&self, f: impl FnMut(u32, &K, &K));
}

/// Matches listed one by one, `(group, a, b)` each.
impl<K> ProductWalk<K> for [(u32, K, K)] {
    fn walk(&self, mut f: impl FnMut(u32, &K, &K)) {
        for (group, a, b) in self {
            f(*group, a, b);
        }
    }
}

/// A semiring `(K, +, ·, 0, 1)`.
///
/// Laws (checked for every implementation in this crate by the harness in
/// [`crate::properties`]):
///
/// * `(K, +, 0)` is a commutative monoid,
/// * `(K, ·, 1)` is a monoid,
/// * `·` distributes over `+` on both sides,
/// * `0 · a = a · 0 = 0` (0 is annihilating).
///
/// Elements are passed by reference because several provenance semirings
/// (polynomials, positive boolean expressions, power series) are not `Copy`.
/// The `'static` bound says annotations are self-contained values (they
/// never borrow from the database), which is what lets the parallel engines
/// move batches of them between threads through [`Portable`] tokens.
pub trait Semiring: Clone + PartialEq + Debug + 'static {
    /// The additive identity, used to tag tuples that are *not* in a
    /// K-relation.
    fn zero() -> Self;

    /// The multiplicative identity, used to tag tuples that are *in* the
    /// relation with "neutral" annotation.
    fn one() -> Self;

    /// Addition, combining different derivations of the same tuple
    /// (union, projection).
    fn plus(&self, other: &Self) -> Self;

    /// Multiplication, combining annotations of joint use
    /// (natural join, selection).
    fn times(&self, other: &Self) -> Self;

    /// Returns `true` iff `self` is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Returns `true` iff `self` is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// In-place addition; the default just delegates to [`Semiring::plus`].
    fn plus_assign(&mut self, other: &Self) {
        *self = self.plus(other);
    }

    /// In-place multiplication; the default just delegates to
    /// [`Semiring::times`].
    fn times_assign(&mut self, other: &Self) {
        *self = self.times(other);
    }

    /// Sums a finite iterator of elements (the empty sum is `0`).
    fn sum<'a, I>(iter: I) -> Self
    where
        Self: 'a,
        I: IntoIterator<Item = &'a Self>,
    {
        let mut acc = Self::zero();
        for x in iter {
            acc.plus_assign(x);
        }
        acc
    }

    /// Sums `values` group by group — `group_of[i] < n_groups` names the
    /// group of `values[i]` — and returns one sum per group, `0` for a group
    /// without members. This is the grouping kernels' one call per operator
    /// (duplicate aggregation, the plan root's merge). The default adds each
    /// value to its group's running sum in stream order; a representation
    /// that can build a whole sum at once overrides it
    /// ([`crate::circuit::Circuit`] interns one n-ary node per group).
    fn sum_groups(n_groups: usize, group_of: &[u32], values: Vec<Self>) -> Vec<Self> {
        let mut sums: Vec<Option<Self>> = vec![None; n_groups];
        for (&group, value) in group_of.iter().zip(values) {
            match &mut sums[group as usize] {
                Some(sum) => sum.plus_assign(&value),
                first => *first = Some(value),
            }
        }
        sums.into_iter()
            .map(|sum| sum.unwrap_or_else(Self::zero))
            .collect()
    }

    /// Multiplies each pair — `times_each(pairs)[i]` is `a.times(b)` for the
    /// `i`-th pair `(a, b)`, operands in that order. This is the hash join's
    /// one call per output batch. The default multiplies pair by pair; a
    /// representation that can build a batch at once overrides it
    /// ([`crate::circuit::Circuit`] interns the products under one lock).
    fn times_each<'a, I>(pairs: I) -> Vec<Self>
    where
        Self: 'a,
        I: IntoIterator<Item = (&'a Self, &'a Self)>,
    {
        pairs.into_iter().map(|(a, b)| a.times(b)).collect()
    }

    /// Sums the products of `matches` group by group — group `g`'s result is
    /// `Σ a.times(b)` over the matches `(g, a, b)` the walk yields, `0` for a
    /// group without matches. This is a projecting hash join's one call
    /// (π over ⋈, the output tuple's sum taken inside the join: a
    /// groupjoin). The default walks the matches once, adding each product
    /// to its group's sum in walk order; a representation that can build a
    /// sum of products at once overrides it ([`crate::circuit::Circuit`]
    /// walks twice, to size and to fill, and interns one `Σᵢ aᵢ·bᵢ` node per
    /// group and no product node at all).
    fn sum_products<P: ProductWalk<Self> + ?Sized>(n_groups: usize, matches: &P) -> Vec<Self> {
        let mut sums = vec![Self::zero(); n_groups];
        matches.walk(|group, a, b| sums[group as usize].plus_assign(&a.times(b)));
        sums
    }

    /// Multiplies a finite iterator of elements (the empty product is `1`).
    fn product<'a, I>(iter: I) -> Self
    where
        Self: 'a,
        I: IntoIterator<Item = &'a Self>,
    {
        let mut acc = Self::one();
        for x in iter {
            acc.times_assign(x);
        }
        acc
    }

    /// `n·a`, the sum of `n` copies of `a`. This is the canonical embedding
    /// of ℕ into any semiring used when evaluating provenance polynomials
    /// (Section 4 of the paper: "`na` where `n ∈ ℕ` and `a ∈ K` is the sum in
    /// K of n copies of a").
    fn repeat(&self, n: u64) -> Self {
        // Double-and-add so that evaluating polynomials with large integer
        // coefficients stays logarithmic in the coefficient.
        let mut result = Self::zero();
        let mut base = self.clone();
        let mut k = n;
        while k > 0 {
            if k & 1 == 1 {
                result.plus_assign(&base);
            }
            k >>= 1;
            if k > 0 {
                base = base.plus(&base);
            }
        }
        result
    }

    /// Can batches of this semiring's values cross a thread boundary through
    /// [`Semiring::to_portable`] / [`Semiring::from_portable`]?
    ///
    /// The default is `false`, in which case the parallel engines fall back
    /// to their serial code path for this semiring (they never call the
    /// transport hooks). Every semiring in this crate opts in: plain data
    /// semirings travel as-is, and [`crate::circuit::Circuit`] seals the
    /// node ids of its handles (see the `circuit` module docs).
    fn is_portable() -> bool {
        false
    }

    /// Seals a batch of values into a [`Portable`] token that can be moved
    /// to another thread. Only called when [`Semiring::is_portable`] is
    /// `true`; the pair `to_portable`/`from_portable` must round-trip the
    /// batch exactly (same length, semantically equal values).
    fn to_portable(batch: Vec<Self>) -> Portable {
        let _ = batch;
        unreachable!("to_portable called on a semiring with is_portable() == false")
    }

    /// Opens a [`Portable`] token sealed by [`Semiring::to_portable`] on
    /// another thread, re-materializing the values in the current thread.
    fn from_portable(token: Portable) -> Vec<Self> {
        let _ = token;
        unreachable!("from_portable called on a semiring with is_portable() == false")
    }

    /// `a^n`, the product of `n` copies of `a` (with `a^0 = 1`).
    fn pow(&self, n: u32) -> Self {
        let mut result = Self::one();
        let mut base = self.clone();
        let mut k = n;
        while k > 0 {
            if k & 1 == 1 {
                result.times_assign(&base);
            }
            k >>= 1;
            if k > 0 {
                base = base.times(&base);
            }
        }
        result
    }
}

/// Marker trait for semirings whose multiplication is commutative.
///
/// All the annotation structures used by the paper — 𝔹, ℕ, ℕ∞, PosBool(B),
/// P(Ω), ℕ\[X\], ℕ∞\[\[X\]\], the tropical and fuzzy semirings — are commutative.
pub trait CommutativeSemiring: Semiring {}

/// Semirings in which `+` is idempotent (`a + a = a`).
///
/// Idempotence of `+` is what makes the semi-naive datalog evaluation an
/// *exact* optimization; for non-idempotent semirings such as ℕ or ℕ\[X\] the
/// naive re-derivation count matters and semi-naive evaluation must be
/// treated as an approximation of the derivation-tree semantics.
pub trait PlusIdempotent: Semiring {}

/// A semiring that is *naturally ordered*: the relation
/// `a ≤ b ⇔ ∃x. a + x = b` is a partial order (Section 5 of the paper).
///
/// Implementations must provide a decision procedure for that order.
pub trait NaturallyOrdered: Semiring {
    /// Returns `true` iff `self ≤ other` in the natural order.
    fn natural_leq(&self, other: &Self) -> bool;

    /// Returns `true` iff the two elements are incomparable.
    fn incomparable(&self, other: &Self) -> bool {
        !self.natural_leq(other) && !other.natural_leq(self)
    }
}

/// An ω-continuous commutative semiring (Section 5): naturally ordered,
/// ω-chains have least upper bounds, and `+`/`·` are ω-continuous in each
/// argument. Such semirings admit countable sums and Kleene star, and least
/// fixed points of polynomial systems exist (Definition 5.5).
pub trait OmegaContinuous: CommutativeSemiring + NaturallyOrdered {
    /// Kleene star: `a* = 1 + a + a² + a³ + ⋯` (the least solution of
    /// `x = a·x + 1`). For example, in ℕ∞ `1* = ∞`, while in PosBool(B)
    /// `e* = true` for every `e` (Section 5).
    fn star(&self) -> Self;

    /// An upper bound on the number of fixpoint iterations needed before the
    /// iteration of a polynomial system over this semiring is guaranteed to
    /// have converged, if such a bound exists (e.g. finite lattices). `None`
    /// means no uniform bound (ℕ∞, ℕ∞\[\[X\]\]).
    fn convergence_bound(num_variables: usize) -> Option<usize> {
        let _ = num_variables;
        None
    }
}

/// A bounded distributive lattice viewed as a semiring: `+` = join `∨`,
/// `·` = meet `∧`, `0` = bottom, `1` = top. Both operations are idempotent
/// and absorption holds (`a ∨ (a ∧ b) = a`).
///
/// Distributive lattices are the class for which the paper proves both the
/// terminating datalog evaluation (Section 8) and the containment transfer
/// theorem (Theorem 9.2). Examples: 𝔹, PosBool(B), P(Ω), the fuzzy semiring.
pub trait DistributiveLattice: OmegaContinuous + PlusIdempotent {
    /// Lattice join (identical to [`Semiring::plus`]).
    fn join(&self, other: &Self) -> Self {
        self.plus(other)
    }

    /// Lattice meet (identical to [`Semiring::times`]).
    fn meet(&self, other: &Self) -> Self {
        self.times(other)
    }

    /// The lattice order `a ⊑ b ⇔ a ∨ b = b`; coincides with the natural
    /// order of the semiring.
    fn lattice_leq(&self, other: &Self) -> bool {
        self.plus(other) == *other
    }
}

/// A semiring with only finitely many elements. Finite distributive lattices
/// are the setting of Section 8 (datalog for incomplete and probabilistic
/// databases); finiteness gives the termination argument.
pub trait FiniteSemiring: Semiring {
    /// Enumerates every element of the semiring.
    fn enumerate() -> Vec<Self>;
}

/// A homomorphism of semirings `h : A → B`: `h(0)=0`, `h(1)=1`,
/// `h(a + a') = h(a) + h(a')`, `h(a · a') = h(a) · h(a')`.
///
/// Proposition 3.5: transforming K-relations tuple-wise through `h` commutes
/// with every RA⁺ query **iff** `h` is a semiring homomorphism. The same
/// holds for datalog when `h` is ω-continuous (Proposition 5.7).
pub trait SemiringHomomorphism<A: Semiring, B: Semiring> {
    /// Applies the homomorphism to one annotation.
    fn apply(&self, a: &A) -> B;

    /// Convenience: applies the homomorphism to a slice of annotations.
    fn apply_all(&self, xs: &[A]) -> Vec<B> {
        xs.iter().map(|x| self.apply(x)).collect()
    }
}

/// A homomorphism given by a plain Rust closure. Useful for one-off maps and
/// for testing Proposition 3.5 with both genuine homomorphisms and
/// deliberately broken maps.
pub struct FnHomomorphism<A, B, F>
where
    F: Fn(&A) -> B,
{
    func: F,
    _marker: std::marker::PhantomData<(A, B)>,
}

impl<A, B, F> FnHomomorphism<A, B, F>
where
    F: Fn(&A) -> B,
{
    /// Wraps a closure as a homomorphism object. The caller is responsible
    /// for the closure actually satisfying the homomorphism laws; the
    /// [`crate::properties::check_homomorphism`] harness can verify it on
    /// samples.
    pub fn new(func: F) -> Self {
        FnHomomorphism {
            func,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<A: Semiring, B: Semiring, F> SemiringHomomorphism<A, B> for FnHomomorphism<A, B, F>
where
    F: Fn(&A) -> B,
{
    fn apply(&self, a: &A) -> B {
        (self.func)(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::Bool;
    use crate::natural::Natural;

    #[test]
    fn repeat_is_iterated_addition() {
        let three = Natural::from(3u64);
        assert_eq!(three.repeat(0), Natural::zero());
        assert_eq!(three.repeat(1), three);
        assert_eq!(three.repeat(4), Natural::from(12u64));
        assert_eq!(three.repeat(25), Natural::from(75u64));
    }

    #[test]
    fn pow_is_iterated_multiplication() {
        let two = Natural::from(2u64);
        assert_eq!(two.pow(0), Natural::one());
        assert_eq!(two.pow(1), two);
        assert_eq!(two.pow(10), Natural::from(1024u64));
    }

    #[test]
    fn sum_and_product_over_iterators() {
        let xs = [
            Natural::from(1u64),
            Natural::from(2u64),
            Natural::from(3u64),
        ];
        assert_eq!(Natural::sum(xs.iter()), Natural::from(6u64));
        assert_eq!(Natural::product(xs.iter()), Natural::from(6u64));
        let empty: Vec<Natural> = vec![];
        assert_eq!(Natural::sum(empty.iter()), Natural::zero());
        assert_eq!(Natural::product(empty.iter()), Natural::one());
    }

    #[test]
    fn fn_homomorphism_applies_closure() {
        // Support homomorphism ℕ → 𝔹 sending n to (n ≠ 0).
        let h = FnHomomorphism::new(|n: &Natural| Bool::from(!n.is_zero()));
        assert_eq!(h.apply(&Natural::zero()), Bool::from(false));
        assert_eq!(h.apply(&Natural::from(7u64)), Bool::from(true));
        let all = h.apply_all(&[Natural::zero(), Natural::from(2u64)]);
        assert_eq!(all, vec![Bool::from(false), Bool::from(true)]);
    }

    #[test]
    fn repeat_in_boolean_semiring_saturates() {
        let t = Bool::from(true);
        assert_eq!(t.repeat(0), Bool::zero());
        assert_eq!(t.repeat(1), t);
        assert_eq!(t.repeat(1000), t);
    }
}
