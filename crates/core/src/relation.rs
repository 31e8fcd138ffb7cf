//! K-relations (Definition 3.1 of the paper): functions `R : U-Tup → K` with
//! finite support, where `K` is (at least) a commutative semiring.
//!
//! # Representation
//!
//! The support is stored in a **persistent B+-tree**: `(tuple, annotation)`
//! entries live in leaves, in tuple order; inner nodes hold one separator
//! key per boundary between children. Every node sits behind an [`Arc`],
//! and a write reaches its leaf through [`Arc::make_mut`] — *path copying*:
//! a node referenced by this relation alone is mutated in place, a node
//! also referenced by another relation is copied first, and the copy shares
//! every child it does not descend into. Consequences:
//!
//! * [`KRelation::clone`] copies the root pointer. The two relations share
//!   every node until one of them is written to, and a write then copies
//!   O(log n) nodes — [`NODE_CAPACITY`] tuples each — not the relation. This
//!   is what lets a snapshot commit cost O(|Δ|·log n): the superseded
//!   version keeps the old nodes, the new version the copied path, and
//!   dropping either frees only what the other does not hold.
//! * A relation nobody shares (every library path: operators build their
//!   result and hand it over) never copies; it pays one uncontended
//!   reference-count check per level.
//! * Iteration walks leaves left to right, each a contiguous slice.
//!
//! Invariants (checked by [`KRelation::check_invariants`], which the
//! model-based suite `core/tests/relation_model.rs` calls after every step):
//! keys strictly increase across the whole leaf sequence; every key under
//! child `i` of an inner node is `≥` separator `i − 1` and `<` separator `i`;
//! all leaves are at one depth; no stored annotation is zero; a node holds
//! at most [`NODE_CAPACITY`] entries (children, for an inner node) and,
//! unless it is the root, at least a quarter of that; an inner root has at
//! least two children; the cached length equals the number of entries; a
//! held columnar form folds back to the relation exactly (see
//! [`KRelation::check_invariants`]).
//!
//! Beside the tree a relation *version* holds at most one **columnar form**
//! ([`KRelation::batches`]): the [`Batch`]es the batch executor scans. It is
//! converted ([`relation_to_batches`]) on the first scan, or seeded without
//! converting — by a commit from the previous version's form
//! ([`BatchCache::patch`](crate::column::BatchCache::patch)), by tagging
//! from the source's columns — and then shared by every later scan of the
//! version, every clone of it, and every thread. Every write drops it (all
//! of them go through one private `write`), so a form always describes the
//! version that holds it, and it lives and dies with that version: nothing
//! keyed elsewhere has to be invalidated or swept.
//!
//! Costs, with `n` entries, `B` = [`NODE_CAPACITY`] and `h` ≈ log_B n levels:
//! `annotation`/`contains` O(h·log B) comparisons; `insert`/`set` one
//! descent, O(B) moves in the leaf, plus — only for nodes shared with
//! another relation — O(h·B) tuple clones; `clone` O(1) (the form, if held,
//! is shared); drop O(nodes not shared); `from_sorted_support`/
//! `map_annotations` O(n), built bottom-up with full leaves; `len` O(1);
//! `==` O(1) when the roots are shared, else O(n); `batches` O(n) on a
//! version's first scan, O(1) after.

use crate::column::{relation_to_batches, Batch, BatchProvenance};
use crate::schema::Schema;
use crate::tuple::Tuple;
use provsem_semiring::Semiring;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Most entries a leaf, and most children an inner node, may hold.
///
/// Fixed by measurement (release build, `(g, v)` integer/string pairs over
/// ℤ loaded in key order, least of three runs on this container; CHANGES.md,
/// PR 21, has the table's other columns). What a commit pays — clone, one
/// row inserted, the superseded version dropped — copies one node per
/// level, so it grows with the capacity; what readers and bulk builders pay
/// is pointer chasing, which shrinks with it:
///
/// | capacity | commit at 10⁴ / 10⁵ / 10⁶ rows | iterate 10⁶ | `map_annotations` 10⁶ |
/// |---|---|---|---|
/// | 16 | 2.3 / 3.5 / 6.8 µs | 7.8 ms | 100 ms |
/// | 32 | 3.2 / 4.9 / 8.5 µs | 4.2 ms | 93 ms |
/// | 64 | 4.3 / 6.3 / 11.8 µs | 3.4 ms | 79 ms |
/// | 128 | 8.6 / 9.3 / 17.3 µs | 2.4 ms | 66 ms |
/// | one `BTreeMap` | 768 / 10 966 / 265 776 µs | 17.9 ms | 115 ms |
///
/// 64 is the last doubling that buys readers more than it costs a commit:
/// from there to 128 a commit into a 10⁴-row relation doubles.
pub const NODE_CAPACITY: usize = 64;

/// Fewest entries (children) a non-root node may hold. A quarter rather
/// than the textbook half: a node split in two halves then needs
/// `NODE_CAPACITY / 4` removals before it merges again, so insert-then-
/// cancel churn at a node boundary (what a service's scripted commits do)
/// does not split and merge on every operation.
const NODE_MIN: usize = NODE_CAPACITY / 4;

/// One node of the tree.
#[derive(Clone)]
enum Node<K> {
    /// Entries in strictly increasing tuple order.
    Leaf(Vec<(Tuple, K)>),
    /// `children[i]` holds the keys `k` with `seps[i - 1] <= k < seps[i]`
    /// (unbounded at either end); `seps.len() + 1 == children.len()`.
    Inner {
        seps: Vec<Tuple>,
        children: Vec<Arc<Node<K>>>,
    },
}

/// Checks `tuple` is over `schema` — a pointer comparison for tuples built
/// from the relation's own schema handle, an attribute slice comparison
/// otherwise, never an allocation — and moves it under that handle, so every
/// stored tuple shares one schema.
fn adopt(schema: &Schema, tuple: &mut Tuple) {
    assert!(
        tuple.schema_ref() == schema,
        "tuple schema must match relation schema: {:?} vs {:?}",
        tuple.schema_ref(),
        schema
    );
    tuple.adopt_schema(schema);
}

/// The child of an inner node whose key range contains `tuple`.
fn child_for(seps: &[Tuple], tuple: &Tuple) -> usize {
    seps.partition_point(|sep| sep <= tuple)
}

impl<K> Node<K> {
    /// Entries of a leaf, children of an inner node — what the capacity
    /// bounds count.
    fn fill(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Inner { children, .. } => children.len(),
        }
    }

    fn get(&self, tuple: &Tuple) -> Option<&K> {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let at = entries.binary_search_by(|(t, _)| t.cmp(tuple)).ok()?;
                    return Some(&entries[at].1);
                }
                Node::Inner { seps, children } => {
                    node = &children[child_for(seps, tuple)];
                }
            }
        }
    }
}

impl<K: Semiring> Node<K> {
    /// Moves the upper half of an over-full node out, returning the
    /// separator between the halves and the new right sibling.
    fn split(&mut self) -> (Tuple, Node<K>) {
        match self {
            Node::Leaf(entries) => {
                // Both halves get room for exactly a full leaf: left to
                // `Vec`'s doubling, a leaf that grew to capacity + 1 sits in
                // a buffer for twice that, and so does every leaf after it.
                let mut right = Vec::with_capacity(NODE_CAPACITY + 1);
                right.extend(entries.drain(entries.len() / 2..));
                entries.shrink_to(NODE_CAPACITY + 1);
                (right[0].0.clone(), Node::Leaf(right))
            }
            Node::Inner { seps, children } => {
                let mid = children.len() / 2;
                let right_children = children.split_off(mid);
                let right_seps = seps.split_off(mid);
                let sep = seps.pop().expect("an over-full inner node has mid >= 1");
                let right = Node::Inner {
                    seps: right_seps,
                    children: right_children,
                };
                (sep, right)
            }
        }
    }

    /// Appends the right sibling (`sep` being the separator that stood
    /// between the two in the parent).
    fn absorb(&mut self, sep: Tuple, right: Node<K>) {
        match (self, right) {
            (Node::Leaf(entries), Node::Leaf(more)) => entries.extend(more),
            (
                Node::Inner { seps, children },
                Node::Inner {
                    seps: more_seps,
                    children: more_children,
                },
            ) => {
                seps.push(sep);
                seps.extend(more_seps);
                children.extend(more_children);
            }
            _ => unreachable!("siblings are at one depth"),
        }
    }

    /// Restores the minimum fill of `children[at]` after a removal: joins it
    /// with a neighbour, and splits the pair evenly again if one node cannot
    /// hold both. The neighbour is copied only if another relation shares it.
    fn rebalance(seps: &mut Vec<Tuple>, children: &mut Vec<Arc<Node<K>>>, at: usize) {
        let left = at.saturating_sub(1);
        let right =
            Arc::try_unwrap(children.remove(left + 1)).unwrap_or_else(|shared| (*shared).clone());
        let sep = seps.remove(left);
        let node = Arc::make_mut(&mut children[left]);
        node.absorb(sep, right);
        if node.fill() > NODE_CAPACITY {
            let (sep, right) = node.split();
            seps.insert(left, sep);
            children.insert(left + 1, Arc::new(right));
        }
    }

    /// The one descent every write makes: finds `tuple`'s leaf, copying each
    /// shared node on the way, and either `merge`s `annotation` into the
    /// stored one or inserts the pair; an entry left at zero is removed.
    /// Returns the change in entry count and, if the node overflowed, the
    /// separator and right half for the parent to adopt.
    fn write<F: FnOnce(&mut K, K)>(
        this: &mut Arc<Node<K>>,
        tuple: Tuple,
        annotation: K,
        merge: F,
    ) -> (isize, Option<(Tuple, Node<K>)>) {
        let node = Arc::make_mut(this);
        let delta = match node {
            Node::Leaf(entries) => match entries.binary_search_by(|(t, _)| t.cmp(&tuple)) {
                Ok(at) => {
                    merge(&mut entries[at].1, annotation);
                    if entries[at].1.is_zero() {
                        entries.remove(at);
                        -1
                    } else {
                        0
                    }
                }
                Err(_) if annotation.is_zero() => 0,
                Err(at) => {
                    entries.insert(at, (tuple, annotation));
                    1
                }
            },
            Node::Inner { seps, children } => {
                let at = child_for(seps, &tuple);
                let (delta, split) = Node::write(&mut children[at], tuple, annotation, merge);
                if let Some((sep, right)) = split {
                    seps.insert(at, sep);
                    children.insert(at + 1, Arc::new(right));
                } else if delta < 0 && children[at].fill() < NODE_MIN {
                    Node::rebalance(seps, children, at);
                }
                delta
            }
        };
        let split = (node.fill() > NODE_CAPACITY).then(|| node.split());
        (delta, split)
    }
}

/// A relation version's columnar form: what a scan of it reads.
///
/// Either the version's own conversion (`patched == 0`: exactly
/// [`relation_to_batches`]'s batches, rows in tuple order), or an earlier
/// version's form carried across `patched` commits: that conversion's
/// `base_batches`, then a coalesced tail of delta batches. A patched form
/// folds to the version — duplicate rows re-sum, cancelled pairs vanish at
/// the executor's grouping points — but not row for row.
pub(crate) struct ColumnarForm<K> {
    pub(crate) batches: Arc<Vec<Batch<K>>>,
    /// Batches and rows of the conversion the delta tail is appended to.
    pub(crate) base_batches: usize,
    pub(crate) base_rows: usize,
    /// Commit patches absorbed.
    pub(crate) patched: u64,
    /// A handle on the token of the [`BatchCache`](crate::column::BatchCache)
    /// that made this form, if one did — never read, only counted: the
    /// token's count is the cache's live-form count.
    pub(crate) _made_by: Option<Arc<()>>,
}

impl<K: Semiring> ColumnarForm<K> {
    /// A version's own conversion.
    pub(crate) fn converted(batches: Vec<Batch<K>>, rows: usize, made_by: Option<Arc<()>>) -> Self {
        ColumnarForm {
            base_batches: batches.len(),
            batches: Arc::new(batches),
            base_rows: rows,
            patched: 0,
            _made_by: made_by,
        }
    }

    /// The appended delta batches.
    pub(crate) fn tail(&self) -> &[Batch<K>] {
        &self.batches[self.base_batches..]
    }

    /// How a scan reading this form got it, for explain output.
    pub(crate) fn provenance(&self) -> BatchProvenance {
        match self.patched {
            0 => BatchProvenance::Cached,
            n => BatchProvenance::Patched(n),
        }
    }

    /// The same columns (the same `Arc`s, so the same dictionaries) under
    /// new annotations, one per row in tuple order — `None` for a patched
    /// form, whose rows are not the version's row for row.
    pub(crate) fn with_annotations<P: Semiring>(
        &self,
        annotations: &[P],
    ) -> Option<ColumnarForm<P>> {
        if self.patched != 0 {
            return None;
        }
        let mut rest = annotations;
        let batches = self.batches.iter().map(|batch| {
            let (these, more) = rest.split_at(batch.phys_rows());
            rest = more;
            Batch::new(these.len(), batch.columns().to_vec(), these.to_vec())
        });
        let form = ColumnarForm::converted(batches.collect(), self.base_rows, None);
        debug_assert!(rest.is_empty());
        Some(form)
    }
}

/// A K-relation over a schema `U`.
///
/// Only the *support* — tuples with non-zero annotation — is stored; the
/// invariant `R(t) ≠ 0` for stored tuples is maintained by every mutating
/// operation (tuples whose annotation becomes 0 are removed). All tuples
/// must be over the relation's schema.
///
/// Cloning is O(1) and copy-on-write at node granularity; see the [module
/// docs](self) for the representation and the columnar form.
pub struct KRelation<K> {
    schema: Schema,
    root: Arc<Node<K>>,
    len: usize,
    /// The version's columnar form, once a scan converted it or a commit or
    /// tagging seeded it; emptied by every write.
    form: OnceLock<Arc<ColumnarForm<K>>>,
}

impl<K> Clone for KRelation<K> {
    fn clone(&self) -> Self {
        KRelation {
            schema: self.schema.clone(),
            root: Arc::clone(&self.root),
            len: self.len,
            form: self.form.clone(),
        }
    }
}

/// Equality of K-relations as functions: same schema, same support, same
/// annotations — whatever order the entries were inserted in (the tree's
/// shape is not part of the value).
impl<K: PartialEq> PartialEq for KRelation<K> {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && (Arc::ptr_eq(&self.root, &other.root) || self.iter().eq(other.iter()))
    }
}

impl<K: Eq> Eq for KRelation<K> {}

/// In-order iterator over a relation's `(tuple, annotation)` entries.
pub struct Iter<'a, K> {
    /// The unvisited children of each inner node on the current path.
    path: Vec<std::slice::Iter<'a, Arc<Node<K>>>>,
    leaf: std::slice::Iter<'a, (Tuple, K)>,
    remaining: usize,
}

impl<'a, K> Iter<'a, K> {
    fn new(root: &'a Node<K>, len: usize) -> Self {
        let mut iter = Iter {
            path: Vec::new(),
            leaf: [].iter(),
            remaining: len,
        };
        iter.descend(root);
        iter
    }

    /// Walks to the leftmost leaf under `node`.
    fn descend(&mut self, mut node: &'a Node<K>) {
        loop {
            match node {
                Node::Leaf(entries) => {
                    self.leaf = entries.iter();
                    return;
                }
                Node::Inner { children, .. } => {
                    let mut rest = children.iter();
                    node = rest.next().expect("an inner node has children");
                    self.path.push(rest);
                }
            }
        }
    }
}

impl<'a, K> Iterator for Iter<'a, K> {
    type Item = (&'a Tuple, &'a K);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((tuple, annotation)) = self.leaf.next() {
                self.remaining -= 1;
                return Some((tuple, annotation));
            }
            let next = loop {
                match self.path.last_mut()?.next() {
                    Some(child) => break child,
                    None => self.path.pop(),
                };
            };
            self.descend(next);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K> ExactSizeIterator for Iter<'_, K> {}

impl<K> KRelation<K> {
    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Iterates over `(tuple, annotation)` pairs of the support, in tuple
    /// order.
    pub fn iter(&self) -> Iter<'_, K> {
        Iter::new(&self.root, self.len)
    }

    /// The support `supp(R) = { t | R(t) ≠ 0 }`, iterated in tuple order.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> {
        self.iter().map(|(tuple, _)| tuple)
    }

    /// The size of the support.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the support empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` iff `tuple` is in the support.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.root.get(tuple).is_some()
    }

    /// Drops annotations, returning the support as plain tuples. Together
    /// with [`KRelation::from_support`] this mediates between K-relations and
    /// ordinary (set-semantics) relations.
    pub fn to_set(&self) -> Vec<Tuple> {
        self.support().cloned().collect()
    }

    /// How many tuples of `self` are stored in nodes that `other` does not
    /// share — leaf entries and inner-node separator keys alike, since each
    /// is one tuple a path copy had to clone. A diagnostic for the
    /// copy-on-write storage: for `new` produced from a clone of `old` by
    /// `w` single-tuple writes it is the number of tuples those writes
    /// copied, at most `2 · w · height ·` [`NODE_CAPACITY`] however large
    /// the relation (`w · height · NODE_CAPACITY` when no write removed an
    /// entry), where for two relations built independently it is every
    /// stored tuple. O(nodes of `other` + unshared nodes of `self`); no
    /// tuple is compared.
    pub fn entries_not_shared_with(&self, other: &KRelation<K>) -> usize {
        fn collect<K>(node: &Arc<Node<K>>, seen: &mut HashSet<*const Node<K>>) {
            seen.insert(Arc::as_ptr(node));
            if let Node::Inner { children, .. } = node.as_ref() {
                children.iter().for_each(|child| collect(child, seen));
            }
        }
        fn count<K>(node: &Arc<Node<K>>, theirs: &HashSet<*const Node<K>>) -> usize {
            if theirs.contains(&Arc::as_ptr(node)) {
                return 0;
            }
            match node.as_ref() {
                Node::Leaf(entries) => entries.len(),
                Node::Inner { seps, children } => {
                    seps.len() + children.iter().map(|c| count(c, theirs)).sum::<usize>()
                }
            }
        }
        let mut theirs = HashSet::new();
        collect(&other.root, &mut theirs);
        count(&self.root, &theirs)
    }
}

/// The shape of a relation's tree, as [`KRelation::check_invariants`]
/// found it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeShape {
    /// Levels, leaves included (an empty relation has one empty leaf).
    pub height: usize,
    /// Nodes at every level.
    pub nodes: usize,
}

impl<K: Semiring> KRelation<K> {
    /// The empty K-relation over `schema` (`∅(t) = 0` for every `t`).
    pub fn empty(schema: Schema) -> Self {
        KRelation {
            schema,
            root: Arc::new(Node::Leaf(Vec::new())),
            len: 0,
            form: OnceLock::new(),
        }
    }

    /// Builds a K-relation from `(tuple, annotation)` pairs. Annotations of
    /// duplicate tuples are summed; zero annotations are dropped.
    ///
    /// # Panics
    /// Panics if a tuple's schema differs from `schema`.
    pub fn from_tuples<I>(schema: Schema, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        let mut rel = KRelation::empty(schema);
        rel.extend(pairs);
        rel
    }

    /// Builds a set-like K-relation in which every listed tuple is annotated
    /// with `1`.
    pub fn from_support<I>(schema: Schema, tuples: I) -> Self
    where
        I: IntoIterator<Item = Tuple>,
    {
        KRelation::from_tuples(schema, tuples.into_iter().map(|t| (t, K::one())))
    }

    /// The annotation of a tuple; `K::zero()` for tuples outside the support.
    pub fn annotation(&self, tuple: &Tuple) -> K {
        self.root.get(tuple).cloned().unwrap_or_else(K::zero)
    }

    /// Runs [`Node::write`] from the root and restores the root's own
    /// invariants: an overflowed root gets a new root above it, an inner
    /// root left with one child is replaced by that child.
    /// The version changes, so its columnar form is dropped.
    fn write<F: FnOnce(&mut K, K)>(&mut self, tuple: Tuple, annotation: K, merge: F) {
        self.form.take();
        let (delta, split) = Node::write(&mut self.root, tuple, annotation, merge);
        self.len = self
            .len
            .checked_add_signed(delta)
            .expect("a removal found its entry, so the count was positive");
        if let Some((sep, right)) = split {
            self.root = Arc::new(Node::Inner {
                seps: vec![sep],
                children: vec![Arc::clone(&self.root), Arc::new(right)],
            });
        } else if let Node::Inner { children, .. } = self.root.as_ref() {
            if let [only] = children.as_slice() {
                self.root = Arc::clone(only);
            }
        }
    }

    /// Adds `annotation` to the tuple's current annotation (semiring `+`),
    /// maintaining the support invariant. One descent; nodes shared with
    /// another relation are copied on the way, unshared ones mutated in
    /// place.
    ///
    /// # Panics
    /// Panics if the tuple's schema differs from the relation's schema.
    pub fn insert(&mut self, mut tuple: Tuple, annotation: K) {
        adopt(&self.schema, &mut tuple);
        if annotation.is_zero() {
            return;
        }
        self.write(tuple, annotation, |stored, added| {
            stored.plus_assign(&added)
        });
    }

    /// Builds a relation from `(tuple, annotation)` pairs already in strictly
    /// increasing tuple order and non-zero — the batch engine's sorted root
    /// result, or the image of an existing relation's tuples. The tree is
    /// built bottom-up from full leaves, not inserted into pair by pair.
    /// Order and non-zeroness are debug-asserted.
    ///
    /// # Panics
    /// Panics if a tuple's schema differs from `schema`.
    pub fn from_sorted_support<I>(schema: Schema, pairs: I) -> Self
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        // One level at a time: each node paired with its least key, which
        // becomes the separator to its left in the parent.
        let mut pairs = pairs.into_iter();
        let mut len = 0;
        let mut level: Vec<(Option<Tuple>, Node<K>)> = Vec::new();
        loop {
            let mut entries = Vec::with_capacity(NODE_CAPACITY);
            entries.extend(pairs.by_ref().take(NODE_CAPACITY).map(|(mut t, k)| {
                adopt(&schema, &mut t);
                (t, k)
            }));
            if entries.is_empty() {
                break;
            }
            debug_assert!(entries.iter().all(|(_, k)| !k.is_zero()));
            len += entries.len();
            let least = (!level.is_empty()).then(|| entries[0].0.clone());
            level.push((least, Node::Leaf(entries)));
        }
        if level.is_empty() {
            return KRelation::empty(schema);
        }
        while level.len() > 1 {
            Self::top_up_last(&mut level);
            let mut parents = Vec::with_capacity(level.len().div_ceil(NODE_CAPACITY));
            let mut nodes = level.into_iter();
            while let Some((least, first)) = nodes.next() {
                let mut seps = Vec::with_capacity(NODE_CAPACITY - 1);
                let mut children = Vec::with_capacity(NODE_CAPACITY);
                children.push(Arc::new(first));
                for (sep, child) in nodes.by_ref().take(NODE_CAPACITY - 1) {
                    seps.push(sep.expect("every node but a level's first has a least key"));
                    children.push(Arc::new(child));
                }
                parents.push((least, Node::Inner { seps, children }));
            }
            level = parents;
        }
        let (_, root) = level.pop().expect("one node is left");
        let relation = KRelation {
            schema,
            root: Arc::new(root),
            len,
            form: OnceLock::new(),
        };
        debug_assert!(relation
            .iter()
            .zip(relation.iter().skip(1))
            .all(|(a, b)| a.0 < b.0));
        relation
    }

    /// Bulk loading fills nodes left to right, so only a level's last node
    /// can fall short of the minimum; it shares evenly with its full left
    /// neighbour.
    fn top_up_last(level: &mut Vec<(Option<Tuple>, Node<K>)>) {
        if level.last().is_some_and(|(_, node)| node.fill() < NODE_MIN) {
            let (sep, right) = level.pop().expect("checked non-empty");
            let (_, left) = level.last_mut().expect("a short node is not the only one");
            left.absorb(sep.expect("not the level's first"), right);
            let (sep, right) = left.split();
            level.push((Some(sep), right));
        }
    }

    /// In-place union (semiring `+` per tuple): adds every annotation of
    /// `other` to this relation without cloning it wholesale — the
    /// allocation-free form of [`KRelation::union`].
    ///
    /// # Panics
    /// Panics if the two relations have different schemas.
    pub fn union_into(&mut self, other: &KRelation<K>) {
        assert_eq!(
            self.schema(),
            other.schema(),
            "union requires identical schemas"
        );
        for (t, k) in other.iter() {
            self.insert(t.clone(), k.clone());
        }
    }

    /// Adds a batch of owned `(tuple, annotation)` pairs (semiring `+` per
    /// tuple), maintaining the support invariant.
    ///
    /// # Panics
    /// Panics if a tuple's schema differs from the relation's schema.
    pub fn extend<I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (Tuple, K)>,
    {
        for (t, k) in pairs {
            self.insert(t, k);
        }
    }

    /// Replaces the annotation of a tuple (rather than adding to it).
    /// A zero annotation removes the tuple.
    pub fn set(&mut self, mut tuple: Tuple, annotation: K) {
        adopt(&self.schema, &mut tuple);
        self.write(tuple, annotation, |stored, new| *stored = new);
    }

    /// The relation's columnar form — the batches every scan of this
    /// version reads. The first call converts ([`relation_to_batches`]);
    /// later calls, on this relation or any clone taken since, share the
    /// result. A write drops it. A form seeded by a commit patch is the
    /// previous version's batches plus delta batches: it folds to this
    /// relation (duplicate rows sum, cancelled pairs vanish) but is not
    /// row for row.
    pub fn batches(&self) -> Arc<Vec<Batch<K>>> {
        Arc::clone(&self.form_or_convert(None).0.batches)
    }

    /// The columnar form this version already holds, if any — never
    /// converts.
    pub fn held_batches(&self) -> Option<Arc<Vec<Batch<K>>>> {
        self.form().map(|form| Arc::clone(&form.batches))
    }

    pub(crate) fn form(&self) -> Option<&ColumnarForm<K>> {
        self.form.get().map(Arc::as_ref)
    }

    /// The form, converting it (stamped `made_by`) if the version holds
    /// none; `true` when this call converted. Concurrent first scans
    /// convert once.
    pub(crate) fn form_or_convert(&self, made_by: Option<&Arc<()>>) -> (&ColumnarForm<K>, bool) {
        let mut converted = false;
        let form = self.form.get_or_init(|| {
            converted = true;
            let batches = relation_to_batches(self);
            Arc::new(ColumnarForm::converted(batches, self.len, made_by.cloned()))
        });
        (form, converted)
    }

    /// Gives this version `form` without converting — a commit's patched
    /// batches, a tagged copy's shared columns. A version that already
    /// holds a form keeps it: both describe the same relation.
    pub(crate) fn seed_form(&self, form: ColumnarForm<K>) {
        let _ = self.form.set(Arc::new(form));
    }

    /// Applies a function to every annotation (Proposition 3.5's tuple-wise
    /// transformation `h(R)`); annotations mapped to zero are removed, so the
    /// support may shrink but never grow — exactly as the paper notes.
    ///
    /// The tuples stay in order, so the image is bulk-built.
    pub fn map_annotations<K2: Semiring, F: FnMut(&K) -> K2>(&self, mut f: F) -> KRelation<K2> {
        let image = self.iter().map(|(t, k)| (t.clone(), f(k)));
        KRelation::from_sorted_support(self.schema.clone(), image.filter(|(_, k)| !k.is_zero()))
    }

    /// Checks every invariant of the representation (listed in the [module
    /// docs](self)), panicking with a description of the first one broken,
    /// and reports the tree's shape. A held columnar form must fold back to
    /// the relation exactly: an unpatched one is [`relation_to_batches`]'s
    /// conversion (its split, encodings, rows in tuple order and
    /// annotations), a patched one sums row by row to the relation. For
    /// tests; O(n).
    #[doc(hidden)]
    pub fn check_invariants(&self) -> TreeShape {
        /// Returns (leaf depth, nodes, entries) under `node`, whose keys
        /// must lie in `[lower, upper)`.
        fn check<K: Semiring>(
            node: &Node<K>,
            is_root: bool,
            lower: Option<&Tuple>,
            upper: Option<&Tuple>,
            schema: &Schema,
        ) -> (usize, usize, usize) {
            assert!(node.fill() <= NODE_CAPACITY, "a node is over capacity");
            assert!(is_root || node.fill() >= NODE_MIN, "a node is under-full");
            let in_range = |t: &Tuple| lower.is_none_or(|l| l <= t) && upper.is_none_or(|u| t < u);
            match node {
                Node::Leaf(entries) => {
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "leaf order");
                    for (tuple, annotation) in entries {
                        assert!(in_range(tuple), "an entry is outside its separators");
                        assert!(!annotation.is_zero(), "a zero annotation is stored");
                        assert!(tuple.schema_ref().same_handle(schema), "a foreign handle");
                    }
                    (1, 1, entries.len())
                }
                Node::Inner { seps, children } => {
                    assert_eq!(seps.len() + 1, children.len(), "separator count");
                    assert!(
                        !is_root || children.len() >= 2,
                        "an inner root with one child"
                    );
                    assert!(seps.windows(2).all(|w| w[0] < w[1]), "separator order");
                    assert!(seps.iter().all(in_range), "a separator is out of range");
                    let (mut depth, mut nodes, mut entries) = (None, 1, 0);
                    for (i, child) in children.iter().enumerate() {
                        let lo = if i == 0 { lower } else { Some(&seps[i - 1]) };
                        let hi = seps.get(i).or(upper);
                        let (d, n, e) = check(child, false, lo, hi, schema);
                        assert_eq!(*depth.get_or_insert(d), d, "leaves at different depths");
                        nodes += n;
                        entries += e;
                    }
                    (depth.expect("children") + 1, nodes, entries)
                }
            }
        }
        let (height, nodes, entries) = check(&self.root, true, None, None, &self.schema);
        assert_eq!(entries, self.len, "cached length");
        assert_eq!(self.iter().count(), self.len, "iteration length");
        if let Some(form) = self.form() {
            self.check_form(form);
        }
        TreeShape { height, nodes }
    }

    fn check_form(&self, form: &ColumnarForm<K>) {
        assert!(form.base_batches <= form.batches.len(), "base batch count");
        assert!(
            form.batches.iter().all(|b| b.live_rows() == b.phys_rows()),
            "a held batch is filtered"
        );
        if form.patched == 0 {
            let fresh = relation_to_batches(self);
            assert_eq!(
                form.base_batches,
                form.batches.len(),
                "a tail without a patch"
            );
            assert_eq!(form.base_rows, self.len, "base rows of a conversion");
            assert_eq!(form.batches.len(), fresh.len(), "the conversion's split");
            for (held, fresh) in form.batches.iter().zip(&fresh) {
                assert_eq!(
                    held.phys_rows(),
                    fresh.phys_rows(),
                    "the conversion's split"
                );
                assert_eq!(held.anns(), fresh.anns(), "held annotations");
                for (a, b) in held.columns().iter().zip(fresh.columns()) {
                    assert_eq!(a.encoding(), b.encoding(), "a held column's encoding");
                    assert!(
                        (0..a.len() as u32).all(|r| a.value_at(r) == b.value_at(r)),
                        "held rows differ from the relation's in tuple order"
                    );
                }
            }
        } else {
            let mut folded = KRelation::empty(self.schema.clone());
            for batch in form.batches.iter() {
                for (row, k) in batch.clone().into_rows() {
                    folded.insert(Tuple::from_schema_row(&self.schema, row), k);
                }
            }
            assert!(
                folded == *self,
                "a patched form does not fold to the relation"
            );
        }
    }
}

impl<K: fmt::Debug> fmt::Debug for KRelation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "KRelation{:?} {{", self.schema)?;
        for (t, k) in self.iter() {
            writeln!(f, "  {t:?} ↦ {k:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_semiring::{Bool, Natural};

    fn schema_ab() -> Schema {
        Schema::new(["a", "b"])
    }

    fn t(a: &str, b: &str) -> Tuple {
        Tuple::new([("a", a), ("b", b)])
    }

    #[test]
    fn empty_relation_annotates_everything_zero() {
        let r: KRelation<Natural> = KRelation::empty(schema_ab());
        assert!(r.is_empty());
        assert_eq!(r.annotation(&t("x", "y")), Natural::zero());
        assert_eq!(r.support().count(), 0);
    }

    #[test]
    fn insert_sums_annotations_and_prunes_zero() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.insert(t("x", "y"), Natural::from(2u64));
        r.insert(t("x", "y"), Natural::from(3u64));
        r.insert(t("u", "v"), Natural::zero());
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(5u64));
        assert_eq!(r.len(), 1);
        assert!(!r.contains(&t("u", "v")));
    }

    #[test]
    #[should_panic(expected = "schema")]
    fn insert_rejects_mismatched_schema() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.insert(Tuple::new([("a", "x")]), Natural::one());
    }

    #[test]
    fn set_overwrites_and_removes() {
        let mut r: KRelation<Natural> = KRelation::empty(schema_ab());
        r.set(t("x", "y"), Natural::from(4u64));
        r.set(t("x", "y"), Natural::from(7u64));
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(7u64));
        r.set(t("x", "y"), Natural::zero());
        assert!(r.is_empty());
    }

    #[test]
    fn from_support_gives_unit_annotations() {
        let r: KRelation<Bool> = KRelation::from_support(schema_ab(), [t("x", "y"), t("u", "v")]);
        assert_eq!(r.annotation(&t("x", "y")), Bool::one());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn map_annotations_shrinks_support_on_zero() {
        let r: KRelation<Natural> = KRelation::from_tuples(
            schema_ab(),
            [
                (t("x", "y"), Natural::from(2u64)),
                (t("u", "v"), Natural::from(1u64)),
            ],
        );
        // Map 1 ↦ false, everything else ↦ true.
        let b: KRelation<Bool> = r.map_annotations(|n| Bool::from(n.value() >= 2));
        assert_eq!(b.len(), 1);
        assert!(b.contains(&t("x", "y")));
        assert!(!b.contains(&t("u", "v")));
    }

    #[test]
    fn duplicate_tuples_in_from_tuples_are_summed() {
        let r: KRelation<Natural> = KRelation::from_tuples(
            schema_ab(),
            [
                (t("x", "y"), Natural::from(2u64)),
                (t("x", "y"), Natural::from(5u64)),
            ],
        );
        assert_eq!(r.annotation(&t("x", "y")), Natural::from(7u64));
    }
}
