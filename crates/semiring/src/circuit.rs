//! Hash-consed **provenance circuits**: ℕ\[X\] represented as a shared DAG.
//!
//! The expanded [`Polynomial`] representation of ℕ\[X\] is canonical but loses
//! all sharing: a join output annotation `(x₁+y₁)·(x₂+y₂)·⋯·(xₙ+yₙ)`
//! expands into `2ⁿ` monomials, and specializing every output tuple
//! re-evaluates common subexpressions from scratch. This module keeps the
//! *same* semiring elements in **circuit form**: interned DAG nodes
//! (`0 | 1 | x | a + b | a · b | Σᵢ aᵢ·bᵢ`) in one process-wide arena with
//! structural hash-consing, handled through [`Circuit`] — a `Copy` node id
//! that implements [`Semiring`]/[`CommutativeSemiring`] and therefore drops
//! into every generic K-relation, planned-engine, and datalog entry point
//! unchanged.
//!
//! The theory is exactly that of Section 4 of the paper: ℕ\[X\] is the free
//! commutative semiring on X (Proposition 4.2), so *any* syntax tree over
//! `{0, 1, +, ·} ∪ X` denotes a unique element of ℕ\[X\], and every valuation
//! `v : X → K` extends to a unique homomorphism `Eval_v : ℕ\[X\] → K`. The
//! factorization theorem (Theorem 4.3) — "compute the query once over ℕ\[X\],
//! specialize everywhere" — does not care *how* the ℕ\[X\] element is
//! represented. Circuits make the theorem cheap in practice:
//!
//! * `+`/`·` are O(1) hash-consing lookups instead of monomial-map merges,
//!   a join output batch's products are interned together
//!   ([`Semiring::times_each`]), and a grouping operator's whole sum is
//!   **one** n-ary `Σ` node per group ([`Semiring::sum_groups`]) instead of a
//!   chain of n − 1 binary links. The `Σ` gate sums *products*: its operands
//!   are a multiset of id pairs `(aᵢ, bᵢ)` read as `Σᵢ aᵢ·bᵢ`, a plain member
//!   `x` being the pair `(1, x)`. A projection over a join is summed inside
//!   the join ([`Semiring::sum_products`]), so each output tuple is one `Σ`
//!   over its matched pairs — no `Times` node per match — the sum-of-products
//!   node of factorised representations;
//! * [`CircuitEval`] memoizes `Eval_v` over the shared DAG, so a node reused
//!   by many output tuples is evaluated **once per valuation**, and
//!   [`CircuitEval::eval_all`] evaluates a whole result in one forward sweep
//!   over node ids;
//! * [`Circuit::to_polynomial`] is the memoized lowering back to the
//!   expanded canonical form (used for equality, display, and as the
//!   differential-testing reference).
//!
//! Equality of handles is **semantic** (lowering both sides to the canonical
//! polynomial), so the commutative-semiring laws hold on the nose; the cheap
//! structural checks are reserved for [`Semiring::is_zero`] /
//! [`Semiring::is_one`], which the smart constructors keep exact (`0` and
//! `1` fold away, and ℕ\[X\] has no zero divisors and no non-trivial units).
//!
//! # Arena lifecycle
//!
//! Node storage is **one process-wide arena** behind one mutex: a vector of
//! nodes and a flat open-addressing table over them. A node is interned
//! after its operands, so **node ids are creation order and every child id
//! is smaller than its parent's**: the nodes a set of roots needs are found
//! by one downward sweep from the highest root, and `Eval_v` runs forward in
//! id order. Every thread interns into the same store, so structurally
//! identical subcircuits built by *different* sessions are the same node.
//!
//! The lock is taken once per *batch*, not once per node: a tagged
//! relation's variables ([`Circuit::vars`]), a join output batch's products
//! ([`Semiring::times_each`]), one grouping call's or one projected join's Σ
//! nodes ([`Semiring::sum_groups`], [`Semiring::sum_products`]) and one
//! evaluation's node reads
//! ([`CircuitEval::eval_all`], [`Circuit::to_polynomial`], `Debug`) each take
//! it once; a lone `+`/`·` takes it once. No semiring code runs under the
//! lock — an evaluation copies the nodes it needs out and releases it before
//! computing — so specializing *into* [`Circuit`] itself (renaming
//! variables) is safe. The arena is not sharded: the query server never
//! builds circuits (its sessions run over ℕ and ℤ), so the only concurrent
//! interners are one query's morsel workers, which take the lock once per
//! batch.
//!
//! Handle *validity*, by contrast, stays per-thread: every handle carries
//! the **generation** of the thread that interned it, [`reset`] opens a new
//! generation on the calling thread (O(1), no storage touched — other
//! sessions may be reading those nodes), and using a handle from a dead
//! generation panics with a "stale circuit handle" message instead of
//! silently reading another computation's nodes. Prefer the scoped
//! [`CircuitSession`] guard over calling [`reset`] by hand — it opens a
//! generation on entry and on drop, [`reset`] refuses to run while a session
//! is active on this thread, and any number of threads can each run their
//! own session concurrently.
//!
//! Memory is reclaimed by the explicit, global [`vacuum`]: it truncates the
//! arena back to the constants and advances a process-wide epoch so *all*
//! threads' outstanding handles go stale (checked under the arena lock, so a
//! racing traversal panics loudly rather than reading recycled slots).
//! Vacuum only at quiescent points — between benchmark iterations, or in a
//! serving system's maintenance window.
//!
//! # Crossing threads
//!
//! Handles are deliberately `!Send`: a handle's generation stamp is only
//! meaningful against the generation counter of the thread that created it.
//! What *can* cross threads is a sealed batch. Node storage is process-wide,
//! so a node id means the same node on every thread: [`Semiring::to_portable`]
//! generation-checks each handle and seals the batch's **node ids** together
//! with the vacuum epoch they were read under, and
//! [`Semiring::from_portable`] refuses a token sealed before a [`vacuum`]
//! (its ids no longer exist) and otherwise stamps the same ids with the
//! receiving thread's generation. Both directions are O(batch) — no node is
//! read, walked or re-interned. This is how the morsel-driven parallel
//! executor of `provsem-core` runs `tag_database_circuit → query →
//! specialize_circuit` across worker threads and merges the results back in
//! deterministic partition order.

use crate::fxhash::{fx_hash_one, FxHashMap};
use crate::polynomial::{Polynomial, ProvenancePolynomial};
use crate::posbool::PosBool;
use crate::traits::{CommutativeSemiring, PlusIdempotent, Portable, Semiring};
use crate::variable::{Valuation, Variable};
use std::cell::Cell;
use std::collections::BinaryHeap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

const ZERO: u32 = 0;
const ONE: u32 = 1;

/// The generation stamp of the constant handles `0` and `1`, which survive
/// every reset and are therefore valid in all generations.
const GEN_CONST: u32 = u32::MAX;

/// One interned circuit node. Children are node ids, id-sorted (so commuted
/// operands share one node) and interned before the node itself — so every
/// child id is smaller than its parent's.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Node {
    Zero,
    One,
    Var(Variable),
    Plus([u32; 2]),
    Times([u32; 2]),
    /// `Σᵢ aᵢ·bᵢ` over a sorted **multiset** of id-sorted pairs `[aᵢ, bᵢ]`,
    /// stored flat (`a₀, b₀, a₁, b₁, …`; read with [`pairs`]); a plain member
    /// `x` is the pair `[1, x]`. Repeats stay repeated (`x + x` is `2x` in
    /// ℕ\[X\]). Canonical (see [`sum_node`]): no operand is `0`, and a sum
    /// that one `Times` or one `Plus` node spells is spelled so — so there
    /// are two or more pairs, at least one a product when only two. Cheap to
    /// clone out of the arena.
    Sum(Arc<[u32]>),
}

impl Node {
    fn children(&self) -> &[u32] {
        match self {
            Node::Zero | Node::One | Node::Var(_) => &[],
            Node::Plus(pair) | Node::Times(pair) => pair,
            Node::Sum(flat) => flat,
        }
    }
}

/// The `[aᵢ, bᵢ]` pairs of a `Σ` node's flat operand list.
fn pairs(flat: &[u32]) -> impl Iterator<Item = [u32; 2]> + '_ {
    flat.chunks_exact(2).map(|pair| [pair[0], pair[1]])
}

/// The slot multiplier: the odd 64-bit constant nearest 2⁶⁴/φ.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// A flat open-addressing table from node hashes to node ids: linear
/// probing over `u64` slots, each holding the entry's 32-bit *tag* over
/// `id + 1` (`0` is an empty slot). The caller's `eq` compares nodes and
/// runs on a tag match only — the table never decides equality, so
/// colliding hashes cost probes, never results.
///
/// The tag is the top half of `hash · MIX` and the slot index is the top
/// `log₂(slots)` bits of the same product. `fx_hash_one` ends in a
/// multiplication, whose *low* bits depend only on the low bits of the last
/// word it hashed — for `Plus([a, b])` on the smaller operand `a` alone — so
/// indexing by low bits put every `fᵢ + t` over one `fᵢ` into one probe
/// chain; the high bits of one more multiplication depend on every bit. As
/// the index is the top of the tag, growth (doubling at load ½) re-places
/// the slots from their tags alone, without touching a node.
struct NodeTable {
    /// The length is a power of two.
    slots: Vec<u64>,
    /// `64 − log₂(slots.len())`; at least 32, so the index lies in the tag.
    shift: u32,
    len: usize,
}

impl NodeTable {
    fn new() -> NodeTable {
        NodeTable {
            slots: vec![0; 16],
            shift: 60,
            len: 0,
        }
    }

    fn tag(hash: u64) -> u64 {
        hash.wrapping_mul(MIX) >> 32
    }

    fn home(&self, tag: u64) -> usize {
        ((tag << 32) >> self.shift) as usize
    }

    /// Walks `hash`'s probe sequence: the id of the first entry with its tag
    /// that `eq` accepts, or the empty slot that ends the walk.
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let tag = NodeTable::tag(hash);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                entry if entry >> 32 == tag && eq(entry as u32 - 1) => return Ok(entry as u32 - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records `id` under `hash` in `slot`, the empty slot its probe ended on.
    fn insert(&mut self, slot: usize, hash: u64, id: u32) {
        self.slots[slot] = NodeTable::tag(hash) << 32 | u64::from(id + 1);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
    }

    fn grow(&mut self) {
        assert!(self.shift > 32, "circuit arena exceeded 2³¹ nodes");
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for entry in old.into_iter().filter(|&entry| entry != 0) {
            let mut slot = self.home(entry >> 32);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = entry;
        }
    }

    /// Empties the table, keeping its size for the next computation.
    fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
    }
}

/// The process-wide node store: node `id` is `nodes[id]`, `0` and `1` are
/// the constants, and `table` finds every other node by its structure.
struct Arena {
    nodes: Vec<Node>,
    table: NodeTable,
}

impl Arena {
    fn new() -> Arena {
        Arena {
            nodes: vec![Node::Zero, Node::One],
            table: NodeTable::new(),
        }
    }

    /// The id of `node`, whose `fx_hash_one` is `hash` — appended if new,
    /// after its operands, which are already in the arena. (The table stops
    /// at 2³¹ entries, so ids fit.)
    fn intern(&mut self, node: Node, hash: u64) -> u32 {
        let nodes = &self.nodes;
        match self.table.probe(hash, |id| nodes[id as usize] == node) {
            Ok(id) => id,
            Err(slot) => {
                let id = self.nodes.len() as u32;
                self.nodes.push(node);
                self.table.insert(slot, hash, id);
                id
            }
        }
    }

    /// Visits the nodes reachable from `roots` without passing a `done` id,
    /// **highest id first** — every node before its children — once each;
    /// stops when `visit` returns `false`.
    fn sweep(
        &self,
        roots: &[Circuit],
        pending: &mut impl Pending,
        done: impl Fn(u32) -> bool,
        mut visit: impl FnMut(u32, &Node) -> bool,
    ) {
        for root in roots.iter().filter(|root| !done(root.id)) {
            pending.push(root.id);
        }
        while let Some(id) = pending.pop_max() {
            let node = &self.nodes[id as usize];
            if !visit(id, node) {
                return;
            }
            for &child in node.children().iter().filter(|&&child| !done(child)) {
                pending.push(child);
            }
        }
    }
}

/// The ids a downward [`Arena::sweep`] has still to visit, handed out
/// highest first and each once, however often it was pushed. Children are
/// pushed only while their (higher) parent is visited, so once an id is
/// handed out it is never pushed again.
trait Pending {
    fn push(&mut self, id: u32);
    fn pop_max(&mut self) -> Option<u32>;
}

/// Dense: one bit per id up to the highest root — for a sweep that covers a
/// whole result, whose memo is dense anyway.
struct PendingBits {
    words: Vec<u64>,
    /// Words at or past `top` are all zero.
    top: usize,
}

impl PendingBits {
    fn below(roots: &[Circuit]) -> PendingBits {
        let top = roots.iter().map(|root| root.id as usize / 64 + 1).max();
        PendingBits {
            words: vec![0; top.unwrap_or(0)],
            top: top.unwrap_or(0),
        }
    }
}

impl Pending for PendingBits {
    fn push(&mut self, id: u32) {
        self.words[id as usize / 64] |= 1 << (id % 64);
    }

    fn pop_max(&mut self) -> Option<u32> {
        while self.top > 0 {
            let word = &mut self.words[self.top - 1];
            if *word != 0 {
                let bit = 63 - word.leading_zeros();
                *word &= !(1 << bit);
                return Some((self.top as u32 - 1) * 64 + bit);
            }
            self.top -= 1;
        }
        None
    }
}

/// Sparse: a heap of the pushed ids — for a sweep that must cost what it
/// reaches, not the arena (one handle's lowering, printing, one `eval`).
impl Pending for BinaryHeap<u32> {
    fn push(&mut self, id: u32) {
        BinaryHeap::push(self, id);
    }

    fn pop_max(&mut self) -> Option<u32> {
        let id = self.pop()?;
        while self.peek() == Some(&id) {
            self.pop();
        }
        Some(id)
    }
}

/// The arena, locked. A panic under the lock (a failed generation check,
/// the table refusing to grow past 2³¹ nodes) leaves every node findable at
/// its id, so a poisoned lock still guards a consistent arena.
fn arena() -> MutexGuard<'static, Arena> {
    static ARENA: OnceLock<Mutex<Arena>> = OnceLock::new();
    ARENA
        .get_or_init(|| Mutex::new(Arena::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Bumped by every [`vacuum`]; threads detect the bump on their next arena
/// access and stale their outstanding handles (see [`sync_epoch`]).
static VACUUM_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Number of [`CircuitSession`] guards active across *all* threads; guards
/// [`vacuum`], which must only run at quiescent points.
static ACTIVE_SESSIONS: AtomicU64 = AtomicU64::new(0);

/// Per-thread lifecycle state. Nodes are shared process-wide; *validity* of
/// handles is still scoped per thread: every handle carries the generation
/// of the thread that created it, and [`reset`]/[`CircuitSession`] bump the
/// thread's generation so stale handles panic loudly. (Handles are `!Send`,
/// so a handle is only ever checked against its creating thread's
/// generation.)
#[derive(Clone, Copy)]
struct Local {
    generation: u32,
    in_session: bool,
    /// The [`VACUUM_EPOCH`] this thread last observed; a mismatch means a
    /// vacuum happened since and the thread's handles must go stale.
    synced_epoch: u64,
}

thread_local! {
    static LOCAL: Cell<Local> = const {
        Cell::new(Local {
            generation: 1,
            in_session: false,
            synced_epoch: 0,
        })
    };
}

fn bump_generation(local: &mut Local) {
    local.generation = local
        .generation
        .checked_add(1)
        .expect("circuit arena generation counter overflowed");
}

/// Re-reads the global vacuum epoch; if it advanced since this thread's last
/// arena access, bumps the thread's generation (staling every outstanding
/// handle of this thread) and records the new epoch. Returns `true` iff the
/// epoch advanced. Called under the arena lock by every arena access, which
/// makes vacuuming sound: a node read either happens before the vacuum's
/// truncation (old epoch observed, data intact) or observes the new epoch
/// and refuses.
fn sync_epoch() -> bool {
    let epoch = VACUUM_EPOCH.load(Ordering::SeqCst);
    LOCAL.with(|cell| {
        let mut local = cell.get();
        if local.synced_epoch == epoch {
            return false;
        }
        bump_generation(&mut local);
        local.synced_epoch = epoch;
        cell.set(local);
        true
    })
}

/// This thread's lifecycle state after syncing with the vacuum epoch: its
/// `generation` is what fresh handles are stamped with and stale checks
/// compare against.
fn synced_local() -> Local {
    sync_epoch();
    LOCAL.with(Cell::get)
}

/// Panics unless `handle` is live in generation `current`.
fn assert_live(handle: &Circuit, current: u32) {
    assert!(
        handle.id <= ONE || handle.gen == current,
        "stale circuit handle: the arena was reset (generation {} is gone, current is {}); \
         scope handle lifetimes with CircuitSession",
        handle.gen,
        current
    );
}

/// Generation-checks handles against this thread's current generation,
/// which it returns.
fn check_handles<'a>(handles: impl IntoIterator<Item = &'a Circuit>) -> u32 {
    let current = synced_local().generation;
    for handle in handles {
        assert_live(handle, current);
    }
    current
}

/// A handle to node `id`, stamped with this thread's `generation`.
fn make_handle(id: u32, generation: u32) -> Circuit {
    Circuit {
        id,
        gen: if id <= ONE { GEN_CONST } else { generation },
        _not_send: PhantomData,
    }
}

/// Runs `f` on the locked arena to intern nodes whose operand ids were read
/// from handles that [`check_handles`] found live in `generation` (leaves
/// have no operands and pass `None`). The generation is re-checked *under
/// the lock*, after syncing with the vacuum epoch, so operands staled by a
/// concurrent vacuum are caught before their ids are baked into new nodes.
/// `f` also gets the generation to stamp the new handles with.
fn intern_with<R>(generation: Option<u32>, f: impl FnOnce(&mut Arena, u32) -> R) -> R {
    let mut arena = arena();
    let current = synced_local().generation;
    assert!(
        generation.unwrap_or(current) == current,
        "stale circuit handle: the arena was reset or vacuumed while its operands were in use"
    );
    f(&mut arena, current)
}

/// Interns one node, hashed before the lock is taken.
fn intern(node: Node, generation: Option<u32>) -> Circuit {
    let hash = fx_hash_one(&node);
    intern_with(generation, |arena, current| {
        make_handle(arena.intern(node, hash), current)
    })
}

/// Interns a batch under one lock: each part is a handle already (an
/// identity folded away) or a node over operands live in `generation`
/// (`None` for a batch of leaves). The parts are drawn and the nodes hashed
/// before the lock is taken: a probe loop that only probes keeps several
/// slot misses in flight, and hashing inside it made interning 220 k fresh
/// products 2.5× slower (2-core Xeon).
fn intern_batch(
    parts: impl Iterator<Item = Result<Circuit, Node>>,
    generation: Option<u32>,
) -> Vec<Circuit> {
    let hash = |node: Node| (fx_hash_one(&node), node);
    let hashed: Vec<Result<Circuit, (u64, Node)>> = parts.map(|part| part.map_err(hash)).collect();
    intern_with(generation, |arena, current| {
        let intern = |part: Result<Circuit, (u64, Node)>| {
            part.unwrap_or_else(|(hash, node)| make_handle(arena.intern(node, hash), current))
        };
        hashed.into_iter().map(intern).collect()
    })
}

fn sorted_pair(a: &Circuit, b: &Circuit) -> [u32; 2] {
    [a.id.min(b.id), a.id.max(b.id)]
}

/// `a + b`: a handle if `0` folds away, else the `Plus` node to intern (over
/// id-sorted operands, so `a + b` and `b + a` share one node).
fn plus_node(a: &Circuit, b: &Circuit) -> Result<Circuit, Node> {
    match (a.id, b.id) {
        (ZERO, _) => Ok(*b),
        (_, ZERO) => Ok(*a),
        _ => Err(Node::Plus(sorted_pair(a, b))),
    }
}

/// `a · b`: a handle if `0` or `1` folds away, else the `Times` node to
/// intern.
fn times_node(a: &Circuit, b: &Circuit) -> Result<Circuit, Node> {
    match (a.id, b.id) {
        (ZERO, _) | (_, ZERO) => Ok(Circuit::zero()),
        (ONE, _) => Ok(*b),
        (_, ONE) => Ok(*a),
        _ => Err(Node::Times(sorted_pair(a, b))),
    }
}

/// `Σᵢ aᵢ·bᵢ` over a group's pairs, each id-sorted and free of `0`: `0`, a
/// member itself (one `[1, x]`), or the node to intern — a `Times` (one
/// product), a binary `Plus` (two plain members), or one `Sum` over the
/// sorted multiset — canonical, so equal groups hash-cons to one node
/// whatever order their rows came in.
fn sum_node(pairs: &mut [[u32; 2]], generation: u32) -> Result<Circuit, Node> {
    pairs.sort_unstable();
    match *pairs {
        [] => Ok(Circuit::zero()),
        [[ONE, x]] => Ok(make_handle(x, generation)),
        [product] => Err(Node::Times(product)),
        [[ONE, x], [ONE, y]] => Err(Node::Plus([x, y])),
        _ => Err(Node::Sum(pairs.iter().flatten().copied().collect())),
    }
}

/// Interns one `Σ` per group under one lock: `members()` yields each
/// non-zero pair `(group, [a, b])` (id-sorted), the same sequence every
/// call; the pairs are counting-sorted by group, then each group's are
/// folded by [`sum_node`].
fn intern_sums<I>(n_groups: usize, members: impl Fn() -> I, generation: u32) -> Vec<Circuit>
where
    I: Iterator<Item = (usize, [u32; 2])>,
{
    // `cursor[g]` starts at the offset of group `g`'s first pair and ends,
    // after the scatter, one past its last.
    let mut cursor = vec![0usize; n_groups];
    for (g, _) in members() {
        cursor[g] += 1;
    }
    let mut total = 0;
    for slot in &mut cursor {
        total += std::mem::replace(slot, total);
    }
    let mut pairs = vec![[ZERO; 2]; total];
    for (g, pair) in members() {
        pairs[cursor[g]] = pair;
        cursor[g] += 1;
    }
    let mut start = 0;
    let sums = cursor.into_iter().map(|end| {
        let group = &mut pairs[start..end];
        start = end;
        sum_node(group, generation)
    });
    intern_batch(sums, Some(generation))
}

/// Number of nodes currently interned in the process-wide arena (including
/// the two constants). A direct measure of total provenance size with
/// sharing — shared across every thread and session.
pub fn arena_node_count() -> usize {
    arena().nodes.len()
}

/// Checks the arena's invariants and returns its node count, panicking on
/// the first broken one: ids `0`/`1` are the constants and nothing else is;
/// every child id is smaller than its parent's; operands are id-sorted and
/// never a foldable constant; a `Σ`'s pairs are id-sorted, sorted and free
/// of `0`, and no `Σ` is what one member, one `Times` or one `Plus` spells;
/// and the table finds every node at its own id. For tests; O(nodes).
#[doc(hidden)]
pub fn check_arena_invariants() -> usize {
    let arena = arena();
    let nodes = &arena.nodes;
    assert!(matches!(nodes[..2], [Node::Zero, Node::One]), "constants");
    for (id, node) in nodes.iter().enumerate().skip(2) {
        assert!(
            node.children().iter().all(|&child| (child as usize) < id),
            "node {id} has a child id not below its own"
        );
        match node {
            Node::Zero | Node::One => panic!("node {id} is a second constant"),
            Node::Var(_) => {}
            Node::Plus([a, b]) => assert!(ZERO < *a && a <= b, "node {id}: 0 + a or order"),
            Node::Times([a, b]) => assert!(ONE < *a && a <= b, "node {id}: 0 · a, 1 · a or order"),
            Node::Sum(flat) => {
                let pairs: Vec<[u32; 2]> = pairs(flat).collect();
                assert!(flat.len() % 2 == 0, "node {id}: Σ of an odd operand list");
                assert!(
                    pairs.iter().all(|[a, b]| ZERO < *a && a <= b),
                    "node {id}: a Σ pair with a 0 operand or out of order"
                );
                assert!(
                    pairs.windows(2).all(|w| w[0] <= w[1]),
                    "node {id}: Σ pairs out of order"
                );
                let plain = pairs.iter().filter(|[a, _]| *a == ONE).count();
                assert!(
                    pairs.len() > 2 || (pairs.len() == 2 && plain < 2),
                    "node {id}: a Σ that a member, a Times or a Plus spells"
                );
            }
        }
        let found = arena
            .table
            .probe(fx_hash_one(node), |other| nodes[other as usize] == *node);
        assert_eq!(found, Ok(id as u32), "node {id} is not found at its id");
    }
    assert_eq!(arena.table.len, nodes.len() - 2, "table entries");
    nodes.len()
}

/// Invalidates every outstanding [`Circuit`] handle and [`CircuitEval`] memo
/// of *this thread* by opening a new generation: using a stale handle
/// afterwards **panics** instead of silently aliasing another computation's
/// nodes. Call between independent provenance computations — or, better,
/// scope the computation in a [`CircuitSession`].
///
/// `reset` does not truncate node storage (other sessions may be reading
/// it); nodes are retained for cross-session structural sharing and are
/// reclaimed only by [`vacuum`] at a globally quiescent point.
///
/// # Panics
/// Panics if a [`CircuitSession`] is active on this thread.
pub fn reset() {
    sync_epoch();
    LOCAL.with(|cell| {
        let mut local = cell.get();
        assert!(
            !local.in_session,
            "circuit::reset() called while a CircuitSession is active; drop the session instead"
        );
        bump_generation(&mut local);
        cell.set(local);
    });
}

/// Truncates the process-wide arena back to the constants `0` and `1`,
/// reclaiming every interned node, and advances the global vacuum epoch so
/// that **all** threads' outstanding handles go stale (each thread detects
/// the epoch bump on its next arena access and panics on any pre-vacuum
/// handle instead of aliasing re-populated slots).
///
/// This is the memory-reclamation point the per-thread [`reset`] gives up
/// because the arena is shared: call it only when no session is running
/// and no thread holds live circuits — between benchmark iterations, or in
/// a serving system's maintenance window. A concurrent traversal that races
/// a vacuum panics loudly ("vacuumed while a traversal was in flight"); it
/// never reads aliased nodes.
///
/// # Panics
/// Panics if any [`CircuitSession`] is active on any thread.
pub fn vacuum() {
    assert!(
        ACTIVE_SESSIONS.load(Ordering::SeqCst) == 0,
        "circuit::vacuum() called while a CircuitSession is active; vacuum only at quiescent points"
    );
    {
        let mut arena = arena();
        VACUUM_EPOCH.fetch_add(1, Ordering::SeqCst);
        arena.nodes.truncate(2);
        arena.table.clear();
    }
    // Sync the calling thread immediately: its next use of a pre-vacuum
    // handle reports "stale circuit handle" rather than a torn traversal.
    sync_epoch();
}

/// A scoped guard for the circuit-handle lifecycle: construction opens a
/// fresh generation on this thread (staling whatever handles preceded it),
/// and dropping the guard opens another, staling every handle the session
/// created.
///
/// The guard closes the classic footgun of the bare [`reset`] API — some
/// library code calling `reset()` while the caller still holds handles,
/// which before the generation stamps would *silently* re-read the arena.
/// While a session is active, [`reset`] panics instead of running (and
/// [`vacuum`] refuses process-wide); handles that escape the session panic
/// on first use (their generation is gone). Sessions are per-thread and do
/// not nest — but any number of threads may each run their own session
/// concurrently over the shared arena, which is exactly how the query
/// service scopes per-request provenance work.
///
/// ```
/// use provsem_semiring::circuit::{self, CircuitSession};
/// use provsem_semiring::{Circuit, Semiring};
///
/// let leaked = CircuitSession::run(|| {
///     let p = Circuit::var("p");
///     assert!(!p.is_zero());
///     p.node_id() // plain data may leave the session; handles should not
/// });
/// assert!(leaked >= 2);
/// ```
pub struct CircuitSession {
    /// Sessions guard this thread's generation counter, so the guard itself
    /// must not move to another thread.
    _not_send: PhantomData<*const ()>,
}

impl CircuitSession {
    /// Opens a fresh generation on this thread and a session scoped to the
    /// returned guard.
    ///
    /// # Panics
    /// Panics if a session is already active on this thread.
    pub fn begin() -> CircuitSession {
        sync_epoch();
        LOCAL.with(|cell| {
            let mut local = cell.get();
            assert!(
                !local.in_session,
                "CircuitSession::begin() while another session is active; sessions do not nest"
            );
            bump_generation(&mut local);
            local.in_session = true;
            cell.set(local);
        });
        ACTIVE_SESSIONS.fetch_add(1, Ordering::SeqCst);
        CircuitSession {
            _not_send: PhantomData,
        }
    }

    /// Runs `f` inside a fresh session; the thread's generation advances
    /// before and after. Returning a [`Circuit`] handle (or anything holding
    /// one) from `f` is a bug — the handle's generation dies with the
    /// session, so any later use panics.
    pub fn run<R>(f: impl FnOnce() -> R) -> R {
        let _session = CircuitSession::begin();
        f()
    }
}

impl Drop for CircuitSession {
    fn drop(&mut self) {
        LOCAL.with(|cell| {
            let mut local = cell.get();
            local.in_session = false;
            bump_generation(&mut local);
            cell.set(local);
        });
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A handle to a hash-consed provenance circuit: an element of ℕ\[X\] in
/// shared-DAG form.
///
/// `Circuit` is a `Copy` arena node id, so cloning annotations — which the
/// relational operators do per row — is free, and structurally identical
/// subcircuits are built exactly once. See the [module docs](self) for the
/// arena lifecycle and the equality semantics.
#[derive(Clone, Copy)]
pub struct Circuit {
    id: u32,
    /// The arena generation this handle was interned under; checked against
    /// the arena on every use so a handle that outlives a [`reset`] fails
    /// loudly instead of aliasing a node of the next query. The constants
    /// `0`/`1` carry [`GEN_CONST`] and are valid in every generation.
    gen: u32,
    /// The generation stamp is only meaningful against the creating
    /// thread's generation counter, so the handle opts out of
    /// `Send`/`Sync`. Batches of handles cross threads through
    /// [`Semiring::to_portable`] instead.
    _not_send: PhantomData<*const ()>,
}

impl Circuit {
    /// The circuit consisting of a single variable (a tuple id).
    pub fn var(v: impl Into<Variable>) -> Circuit {
        intern(Node::Var(v.into()), None)
    }

    /// One variable circuit per name, in order — [`Circuit::var`] for each,
    /// interned as one batch: the names are hashed before the arena lock is
    /// taken, and it is taken once. This is how a whole relation is tagged.
    pub fn vars(names: impl IntoIterator<Item = Variable>) -> Vec<Circuit> {
        intern_batch(names.into_iter().map(|v| Err(Node::Var(v))), None)
    }

    /// The constant circuit `n` (the canonical embedding ℕ → ℕ\[X\]), built
    /// with double-and-add so it has O(log n) nodes.
    pub fn constant(n: u64) -> Circuit {
        Circuit::one().repeat(n)
    }

    /// Builds a circuit denoting the given expanded polynomial (sum of
    /// coefficient-weighted monomial products). Inverse of
    /// [`Circuit::to_polynomial`] up to representation.
    pub fn from_polynomial(p: &ProvenancePolynomial) -> Circuit {
        let mut acc = Circuit::zero();
        for (monomial, coeff) in p.terms() {
            let mut term = Circuit::constant(coeff.value());
            for (var, exp) in monomial.powers() {
                term.times_assign(&Circuit::var(var.clone()).pow(exp));
            }
            acc.plus_assign(&term);
        }
        acc
    }

    /// The raw arena node id. Stable for the lifetime of the current arena
    /// generation; structural equality of ids implies semantic equality.
    /// Ids are creation order: an operand's id is below its result's.
    pub fn node_id(&self) -> usize {
        self.id as usize
    }

    /// Are the two handles the *same interned node* (of the same arena
    /// generation)? A cheap, sound (but incomplete) equality: structurally
    /// identical circuits are always the same node, semantically equal ones
    /// need not be.
    pub fn same_node(&self, other: &Circuit) -> bool {
        self.id == other.id && (self.id <= ONE || self.gen == other.gen)
    }

    /// Number of distinct nodes reachable from this handle — the size of the
    /// circuit *with* sharing. Compare with
    /// [`Polynomial::num_terms`] of the lowering to see the blowup avoided.
    pub fn node_count(&self) -> usize {
        shared_node_count([*self])
    }

    /// Lowers the circuit to the expanded canonical [`ProvenancePolynomial`],
    /// memoized over the DAG (each shared node is expanded once). This is
    /// the compatibility bridge to the polynomial API — and inherently pays
    /// the exponential expansion the circuit representation avoids, so use
    /// it for tests and display, not on hot paths.
    pub fn to_polynomial(&self) -> ProvenancePolynomial {
        let below = reachable(&[*self], &mut BinaryHeap::new(), |_| false, usize::MAX);
        lower(self.id, below.expect("no limit"))
    }

    /// One-off memoized evaluation `Eval_v` into any commutative semiring
    /// (Proposition 4.2). To amortize the memo across *many* roots — the
    /// whole point of sharing — use one [`CircuitEval::eval_all`] call.
    pub fn eval<K: CommutativeSemiring>(&self, valuation: &Valuation<K>) -> K {
        CircuitEval::new(valuation).eval(*self)
    }
}

/// Total number of distinct nodes reachable from any of the given roots —
/// the size of a whole provenance-annotated result with sharing.
pub fn shared_node_count(roots: impl IntoIterator<Item = Circuit>) -> usize {
    let roots: Vec<Circuit> = roots.into_iter().collect();
    let below = reachable(
        &roots,
        &mut PendingBits::below(&roots),
        |_| false,
        usize::MAX,
    );
    below.map_or(0, |below| below.steps.len())
}

/// The nodes reachable from `roots` without passing a `done` id, copied out
/// under **one** arena lock, highest id first — or `None` once more than
/// `limit` are found. `pending` decides what the sweep's scratch costs (see
/// [`PendingBits`] and the heap).
fn reachable(
    roots: &[Circuit],
    pending: &mut impl Pending,
    done: impl Fn(u32) -> bool,
    limit: usize,
) -> Option<SubDag> {
    check_handles(roots);
    let mut below = SubDag::default();
    let arena = arena();
    assert!(
        !sync_epoch(),
        "circuit arena vacuumed while a traversal was in flight; \
         vacuum() must only run at quiescent points"
    );
    arena.sweep(roots, pending, done, |id, node| {
        below.push(id, node);
        below.steps.len() <= limit
    });
    drop(arena);
    (below.steps.len() <= limit).then_some(below)
}

/// A node as [`reachable`] copies it out: operands inline, a variable or a
/// Σ's pairs by index into the [`SubDag`]'s side lists — 12 bytes, and no
/// reference count touched for the products and binary sums.
#[derive(Clone, Copy)]
enum Step {
    Zero,
    One,
    Var(u32),
    Plus([u32; 2]),
    Times([u32; 2]),
    Sum(u32),
}

/// The nodes one traversal read: `(id, step)` highest id first, and the
/// variables and Σ pair lists the steps point into.
#[derive(Default)]
struct SubDag {
    steps: Vec<(u32, Step)>,
    vars: Vec<Variable>,
    sums: Vec<Arc<[u32]>>,
}

impl SubDag {
    fn push(&mut self, id: u32, node: &Node) {
        let step = match node {
            Node::Zero => Step::Zero,
            Node::One => Step::One,
            Node::Var(v) => {
                self.vars.push(v.clone());
                Step::Var(self.vars.len() as u32 - 1)
            }
            Node::Plus(pair) => Step::Plus(*pair),
            Node::Times(pair) => Step::Times(*pair),
            Node::Sum(flat) => {
                self.sums.push(Arc::clone(flat));
                Step::Sum(self.sums.len() as u32 - 1)
            }
        };
        self.steps.push((id, step));
    }
}

/// Where a fold keeps the value of each node id it has evaluated: densely
/// (an evaluator reused over a whole result, whose roots cover much of the
/// arena) or sparsely (a one-off lowering of one handle, which must not pay
/// for the arena's size).
trait Memo<T> {
    fn get(&self, id: u32) -> Option<&T>;
    fn set(&mut self, id: u32, value: T);
}

/// The dense memo: a value slot per node id and, beside it, one bit per id
/// saying whether the slot holds a value. The downward sweep asks "evaluated
/// already?" of every child it meets, in no particular order; that reads a
/// bit (the Section 2 query's 2.6·10⁵ nodes are 32 KB of bits), not the slot
/// array (4 MB of `Option<Natural>`, a cache miss a child).
struct DenseMemo<T> {
    values: Vec<T>,
    known: Vec<u64>,
}

impl<T: Semiring> DenseMemo<T> {
    fn new() -> DenseMemo<T> {
        DenseMemo {
            values: Vec::new(),
            known: Vec::new(),
        }
    }

    /// Makes room for every id up to `top` — all a sweep from roots at or
    /// below `top` can reach, children being below their parents.
    fn cover(&mut self, top: u32) {
        let len = top as usize + 1;
        if self.values.len() < len {
            self.values.resize_with(len, T::zero);
            self.known.resize(len.div_ceil(64), 0);
        }
    }

    fn has(&self, id: u32) -> bool {
        let word = self.known.get(id as usize / 64).copied().unwrap_or(0);
        word >> (id % 64) & 1 == 1
    }
}

impl<T: Semiring> Memo<T> for DenseMemo<T> {
    fn get(&self, id: u32) -> Option<&T> {
        self.has(id).then(|| &self.values[id as usize])
    }

    fn set(&mut self, id: u32, value: T) {
        self.values[id as usize] = value;
        self.known[id as usize / 64] |= 1 << (id % 64);
    }
}

impl<T> Memo<T> for FxHashMap<u32, T> {
    fn get(&self, id: u32) -> Option<&T> {
        FxHashMap::get(self, &id)
    }
    fn set(&mut self, id: u32, value: T) {
        self.insert(id, value);
    }
}

/// Evaluates nodes read by [`reachable`] into `memo`, **lowest id first** —
/// so each node's children are ready, on the list or memoized before — as
/// the unique homomorphism into `T` extending `var` (Proposition 4.2). No
/// arena lock is held, so `var` and `T`'s operations may intern circuits.
fn fold<T: Semiring>(below: SubDag, memo: &mut impl Memo<T>, mut var: impl FnMut(&Variable) -> T) {
    for &(id, step) in below.steps.iter().rev() {
        let of = |child: &u32| memo.get(*child).expect("children are evaluated first");
        let value = match step {
            Step::Zero => T::zero(),
            Step::One => T::one(),
            Step::Var(i) => var(&below.vars[i as usize]),
            Step::Plus([a, b]) => of(&a).plus(of(&b)),
            Step::Times([a, b]) => of(&a).times(of(&b)),
            Step::Sum(i) => {
                let mut sum = T::zero();
                for [a, b] in pairs(&below.sums[i as usize]) {
                    match a {
                        // A plain member is added, not multiplied by one.
                        ONE => sum.plus_assign(of(&b)),
                        _ => sum.plus_assign(&of(&a).times(of(&b))),
                    }
                }
                sum
            }
        };
        memo.set(id, value);
    }
}

/// The expanded polynomial of `root`, from the nodes below it.
fn lower(root: u32, below: SubDag) -> ProvenancePolynomial {
    let mut memo = FxHashMap::default();
    fold(below, &mut memo, |v| Polynomial::var(v.clone()));
    memo.remove(&root).expect("the root was lowered")
}

/// The memoized evaluation homomorphism `Eval_v : ℕ\[X\] → K` of Proposition
/// 4.2, over circuits: each arena node reachable from any evaluated root is
/// computed **once** for the lifetime of the evaluator, so specializing a
/// whole K-relation of circuit annotations costs one pass over the shared
/// DAG instead of one expansion per tuple (Theorem 4.3 at circuit speed).
/// A variable costs one lookup in the [`Valuation`]'s hash map.
///
/// The memo is dense — a value slot per node id up to the highest root
/// evaluated, and a bitset of the slots filled — keyed by arena node id, and
/// is invalidated — like every handle — by [`reset`].
pub struct CircuitEval<'v, K> {
    valuation: &'v Valuation<K>,
    memo: DenseMemo<K>,
    /// The arena generation the memo belongs to (set on first eval); an
    /// evaluator reused across a [`reset`] panics instead of serving memo
    /// entries for nodes that no longer exist.
    generation: Option<u32>,
    /// The memo's validity is pinned to *this thread's* generation counter,
    /// which cannot be checked from another thread (every fresh thread
    /// starts at generation 1) — so the evaluator, like the handles it
    /// caches, must not cross threads.
    _not_send: PhantomData<*const ()>,
}

impl<'v, K: CommutativeSemiring> CircuitEval<'v, K> {
    /// Creates the evaluator for one valuation.
    pub fn new(valuation: &'v Valuation<K>) -> Self {
        CircuitEval {
            valuation,
            memo: DenseMemo::new(),
            generation: None,
            _not_send: PhantomData,
        }
    }

    /// Evaluates one root, reusing every previously memoized node. Reads
    /// only the nodes not memoized yet; to evaluate many roots, prefer one
    /// [`CircuitEval::eval_all`] call.
    pub fn eval(&mut self, circuit: Circuit) -> K {
        self.evaluate(&[circuit], &mut BinaryHeap::new()).remove(0)
    }

    /// Evaluates every root, in order, in **one pass**: under one arena
    /// lock, a needed-bitset is swept downward from the highest root and
    /// the nodes not memoized yet are copied out; the lock is released and
    /// they are evaluated forward in id order (children before parents), so
    /// no semiring code runs under the lock — `K` may itself be
    /// [`Circuit`]. Equal to calling [`CircuitEval::eval`] root by root.
    pub fn eval_all(&mut self, circuits: &[Circuit]) -> Vec<K> {
        self.evaluate(circuits, &mut PendingBits::below(circuits))
    }

    fn evaluate(&mut self, roots: &[Circuit], pending: &mut impl Pending) -> Vec<K> {
        let current = synced_local().generation;
        match self.generation {
            None => self.generation = Some(current),
            Some(generation) => assert!(
                generation == current,
                "CircuitEval memo outlived a circuit::reset(); build a fresh evaluator"
            ),
        }
        if let Some(top) = roots.iter().map(|root| root.id).max() {
            self.memo.cover(top);
        }
        let memo = &self.memo;
        let below = reachable(roots, pending, |id| memo.has(id), usize::MAX);
        // Unassigned variables evaluate to 0, matching
        // `Polynomial::evaluate_with`.
        let valuation = self.valuation;
        fold(below.expect("no limit"), &mut self.memo, |v| {
            valuation.get(v).cloned().unwrap_or_else(K::zero)
        });
        let value = |root: &Circuit| {
            self.memo
                .get(root.id)
                .cloned()
                .expect("roots are evaluated")
        };
        roots.iter().map(value).collect()
    }

    /// How many distinct nodes have been evaluated so far — the real work
    /// performed, regardless of how many roots shared them.
    pub fn evaluated_nodes(&self) -> usize {
        self.memo
            .known
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }
}

impl Semiring for Circuit {
    fn zero() -> Self {
        Circuit {
            id: ZERO,
            gen: GEN_CONST,
            _not_send: PhantomData,
        }
    }

    fn one() -> Self {
        Circuit {
            id: ONE,
            gen: GEN_CONST,
            _not_send: PhantomData,
        }
    }

    /// O(1): folds the additive identity and interns a `Plus` node with
    /// id-sorted operands (so `a + b` and `b + a` share one node).
    fn plus(&self, other: &Self) -> Self {
        plus_node(self, other)
            .unwrap_or_else(|node| intern(node, Some(check_handles([self, other]))))
    }

    /// O(1): folds the multiplicative identities/annihilator and interns a
    /// `Times` node with id-sorted operands.
    fn times(&self, other: &Self) -> Self {
        times_node(self, other)
            .unwrap_or_else(|node| intern(node, Some(check_handles([self, other]))))
    }

    /// Exact *and* O(1): the smart constructors fold `0` away, and ℕ\[X\] has
    /// no zero divisors, so only the interned `Zero` node denotes 0.
    fn is_zero(&self) -> bool {
        self.id == ZERO
    }

    /// Exact *and* O(1): `1` folds away, sums of two non-zero ℕ\[X\] elements
    /// exceed 1 coefficient-wise, and 1 is the only unit of ℕ\[X\], so only
    /// the interned `One` node denotes 1.
    fn is_one(&self) -> bool {
        self.id == ONE
    }

    /// One n-ary `Σ` node per group instead of a chain of binary `Plus`
    /// links: the non-zero members `x` become pairs `[1, x]`, are
    /// counting-sorted by group, and every group's sorted multiset is
    /// interned under one arena lock.
    fn sum_groups(n_groups: usize, group_of: &[u32], values: Vec<Self>) -> Vec<Self> {
        let generation = check_handles(&values);
        let members = || {
            group_of
                .iter()
                .zip(&values)
                .filter(|(_, v)| v.id != ZERO)
                .map(|(&g, v)| (g as usize, [ONE, v.id]))
        };
        intern_sums(n_groups, members, generation)
    }

    /// One `Σᵢ aᵢ·bᵢ` node per group, no `Times` node per pair: every handle
    /// is checked (a stale one anywhere panics), pairs with a `0` operand
    /// drop out, the rest are id-sorted inside and counting-sorted by group,
    /// and every group's sorted multiset is interned under one arena lock.
    fn sum_products<'a, I>(n_groups: usize, group_of: &[u32], pairs: I) -> Vec<Self>
    where
        I: IntoIterator<Item = (&'a Self, &'a Self)>,
    {
        let generation = synced_local().generation;
        let members: Vec<(usize, [u32; 2])> = group_of
            .iter()
            .zip(pairs)
            .filter_map(|(&g, (a, b))| {
                assert_live(a, generation);
                assert_live(b, generation);
                (a.id != ZERO && b.id != ZERO).then(|| (g as usize, sorted_pair(a, b)))
            })
            .collect();
        intern_sums(n_groups, || members.iter().copied(), generation)
    }

    /// The products of a batch interned together: every handle is checked
    /// (a stale one anywhere panics), `0`/`1` fold away, and the remaining
    /// `Times` nodes are interned under one arena lock.
    fn times_each<'a, I>(pairs: I) -> Vec<Self>
    where
        I: IntoIterator<Item = (&'a Self, &'a Self)>,
    {
        let generation = synced_local().generation;
        let products = pairs.into_iter().map(|(a, b)| {
            assert_live(a, generation);
            assert_live(b, generation);
            times_node(a, b)
        });
        intern_batch(products, Some(generation))
    }

    /// Node storage is process-wide, so a batch crosses threads as its node
    /// ids (see the module docs, "Crossing threads").
    fn is_portable() -> bool {
        true
    }

    fn to_portable(batch: Vec<Self>) -> Portable {
        check_handles(&batch);
        Portable::new(SealedCircuits {
            epoch: synced_local().synced_epoch,
            ids: batch.iter().map(|c| c.id).collect(),
        })
    }

    fn from_portable(token: Portable) -> Vec<Self> {
        let sealed = token.unwrap::<SealedCircuits>();
        let local = synced_local();
        assert!(
            sealed.epoch == local.synced_epoch,
            "circuit batch sealed before a circuit::vacuum() (epoch {}, now {}): its nodes are \
             gone; vacuum() must only run at quiescent points",
            sealed.epoch,
            local.synced_epoch
        );
        let stamp = |id| make_handle(id, local.generation);
        sealed.ids.into_iter().map(stamp).collect()
    }
}

/// A batch of circuits in transit between threads: ids into the
/// process-wide node store, valid as long as no [`vacuum`] has run since
/// `epoch`.
struct SealedCircuits {
    epoch: u64,
    ids: Vec<u32>,
}

impl CommutativeSemiring for Circuit {}

impl PartialEq for Circuit {
    /// Semantic equality in ℕ\[X\]: identical nodes fast-path to `true`,
    /// otherwise both sides are lowered to the canonical expanded polynomial
    /// (exponential in the worst case — fine for tests and assertions, which
    /// is where circuit equality is used; the engines only call the O(1)
    /// [`Semiring::is_zero`]).
    fn eq(&self, other: &Self) -> bool {
        self.same_node(other) || self.to_polynomial() == other.to_polynomial()
    }
}

impl Eq for Circuit {}

/// `Debug` prints circuits up to this many nodes as their polynomial and
/// stops counting there.
const DEBUG_NODES: usize = 64;

/// The polynomial of a circuit of at most [`DEBUG_NODES`] nodes, read under
/// one lock; `None` for a bigger one, whose expansion could blow up.
fn small_polynomial(circuit: Circuit) -> Option<ProvenancePolynomial> {
    let below = reachable(&[circuit], &mut BinaryHeap::new(), |_| false, DEBUG_NODES)?;
    Some(lower(circuit.id, below))
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match small_polynomial(*self) {
            Some(polynomial) => write!(f, "{polynomial:?}"),
            None => write!(f, "circuit#{}⟨more than {DEBUG_NODES} nodes⟩", self.id),
        }
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The same hash-consed circuit read **modulo absorption**: a handle whose
/// equality is taken in PosBool(X) (coefficients and exponents dropped, the
/// canonical surjection ℕ\[X\] → PosBool(X) of Section 4) instead of ℕ\[X\].
///
/// Because the surjection is a semiring homomorphism, all commutative-
/// semiring laws transfer, and `+` becomes **idempotent**: `a + a` interns a
/// new node but denotes the same PosBool element, so `BoolCircuit` lawfully
/// claims [`PlusIdempotent`]. This is the circuit form of boolean
/// provenance: identical sharing, c-table semantics.
#[derive(Clone, Copy)]
pub struct BoolCircuit(Circuit);

impl BoolCircuit {
    /// The circuit consisting of a single boolean variable.
    pub fn var(v: impl Into<Variable>) -> BoolCircuit {
        BoolCircuit(Circuit::var(v))
    }

    /// The underlying ℕ\[X\]-circuit handle (same arena node).
    pub fn circuit(&self) -> Circuit {
        self.0
    }

    /// Lowers to the canonical [`PosBool`] normal form (exponential in the
    /// worst case, like [`Circuit::to_polynomial`]).
    pub fn to_posbool(&self) -> PosBool {
        self.0.to_polynomial().to_posbool()
    }
}

impl From<Circuit> for BoolCircuit {
    fn from(circuit: Circuit) -> Self {
        BoolCircuit(circuit)
    }
}

impl Semiring for BoolCircuit {
    fn zero() -> Self {
        BoolCircuit(Circuit::zero())
    }
    fn one() -> Self {
        BoolCircuit(Circuit::one())
    }
    fn plus(&self, other: &Self) -> Self {
        BoolCircuit(self.0.plus(&other.0))
    }
    fn times(&self, other: &Self) -> Self {
        BoolCircuit(self.0.times(&other.0))
    }

    /// Exact and O(1): a non-zero ℕ\[X\] element maps to a non-false PosBool
    /// element (the surjection preserves having at least one monomial).
    fn is_zero(&self) -> bool {
        self.0.is_zero()
    }
    // `is_one` keeps the default semantic check: in PosBool, `x + 1 = 1`,
    // so circuits other than the interned `One` node can denote true.

    fn sum_groups(n_groups: usize, group_of: &[u32], values: Vec<Self>) -> Vec<Self> {
        let circuits = values.into_iter().map(|b| b.0).collect();
        Circuit::sum_groups(n_groups, group_of, circuits)
            .into_iter()
            .map(BoolCircuit)
            .collect()
    }

    fn sum_products<'a, I>(n_groups: usize, group_of: &[u32], pairs: I) -> Vec<Self>
    where
        I: IntoIterator<Item = (&'a Self, &'a Self)>,
    {
        let circuits = pairs.into_iter().map(|(a, b)| (&a.0, &b.0));
        Circuit::sum_products(n_groups, group_of, circuits)
            .into_iter()
            .map(BoolCircuit)
            .collect()
    }

    fn times_each<'a, I>(pairs: I) -> Vec<Self>
    where
        I: IntoIterator<Item = (&'a Self, &'a Self)>,
    {
        Circuit::times_each(pairs.into_iter().map(|(a, b)| (&a.0, &b.0)))
            .into_iter()
            .map(BoolCircuit)
            .collect()
    }

    /// Transported exactly like [`Circuit`] (same arena nodes).
    fn is_portable() -> bool {
        true
    }

    fn to_portable(batch: Vec<Self>) -> Portable {
        Circuit::to_portable(batch.into_iter().map(|b| b.0).collect())
    }

    fn from_portable(token: Portable) -> Vec<Self> {
        Circuit::from_portable(token)
            .into_iter()
            .map(BoolCircuit)
            .collect()
    }
}

impl CommutativeSemiring for BoolCircuit {}
impl PlusIdempotent for BoolCircuit {}

impl PartialEq for BoolCircuit {
    fn eq(&self, other: &Self) -> bool {
        self.0.same_node(&other.0) || self.to_posbool() == other.to_posbool()
    }
}

impl Eq for BoolCircuit {}

impl fmt::Debug for BoolCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match small_polynomial(self.0) {
            Some(polynomial) => write!(f, "{:?}", polynomial.to_posbool()),
            None => write!(
                f,
                "bool-circuit#{}⟨more than {DEBUG_NODES} nodes⟩",
                self.0.id
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::Bool;
    use crate::monomial::Monomial;
    use crate::natural::Natural;
    use crate::properties::check_semiring_laws;
    use crate::tropical::Tropical;

    fn x(name: &str) -> Circuit {
        Circuit::var(name)
    }

    fn nat(n: u64) -> Natural {
        Natural::from(n)
    }

    /// `Σ coefficient · variable`.
    fn poly_of(terms: &[(&str, u64)]) -> ProvenancePolynomial {
        Polynomial::from_terms(
            terms
                .iter()
                .map(|(v, c)| (Monomial::from_bag([*v]), nat(*c))),
        )
    }

    #[test]
    fn constants_and_identities_fold_structurally() {
        let a = x("a");
        assert!(Circuit::zero().is_zero());
        assert!(Circuit::one().is_one());
        assert!(a.plus(&Circuit::zero()).same_node(&a));
        assert!(Circuit::zero().plus(&a).same_node(&a));
        assert!(a.times(&Circuit::one()).same_node(&a));
        assert!(a.times(&Circuit::zero()).is_zero());
        assert!(!a.is_zero() && !a.is_one());
    }

    #[test]
    fn hash_consing_shares_structurally_equal_nodes() {
        // (Global node counts are shared with concurrently running tests,
        // so sharing is asserted through handle identity, not counts.)
        let e1 = x("p").times(&x("r")).plus(&x("s"));
        let e2 = x("p").times(&x("r")).plus(&x("s"));
        assert!(e1.same_node(&e2));
        // Commutativity is shared structurally via operand sorting.
        assert!(x("p").plus(&x("r")).same_node(&x("r").plus(&x("p"))));
        assert!(x("p").times(&x("r")).same_node(&x("r").times(&x("p"))));
        // Sharing crosses threads: the arena is process-wide, so a worker
        // building the same subcircuit lands on the same node.
        let here = x("p").times(&x("r")).node_id();
        let there = std::thread::scope(|s| {
            s.spawn(|| x("p").times(&x("r")).node_id())
                .join()
                .expect("worker")
        });
        assert_eq!(here, there);
    }

    #[test]
    fn lowering_matches_polynomial_arithmetic() {
        // Figure 5(c) for (d,e): r·r + r·r + r·s = 2r² + rs.
        let de = x("r")
            .times(&x("r"))
            .plus(&x("r").times(&x("r")))
            .plus(&x("r").times(&x("s")));
        let expected = Polynomial::from_terms([
            (Monomial::from_powers([("r", 2u32)]), nat(2)),
            (Monomial::from_bag(["r", "s"]), nat(1)),
        ]);
        assert_eq!(de.to_polynomial(), expected);
    }

    #[test]
    fn semantic_equality_crosses_association() {
        let l = x("a").plus(&x("b")).plus(&x("c"));
        let r = x("a").plus(&x("b").plus(&x("c")));
        assert!(!l.same_node(&r));
        assert_eq!(l, r);
        assert_ne!(l, x("a").plus(&x("b")));
    }

    #[test]
    fn eval_agrees_with_polynomial_eval() {
        let e = x("p")
            .times(&x("p"))
            .repeat(2)
            .plus(&x("r").times(&x("s")))
            .plus(&Circuit::constant(3));
        let v = Valuation::from_pairs([("p", nat(2)), ("r", nat(5)), ("s", nat(1))]);
        assert_eq!(e.eval(&v), e.to_polynomial().eval(&v));
        let vt = Valuation::from_pairs([
            ("p", Tropical::cost(2)),
            ("r", Tropical::cost(5)),
            ("s", Tropical::cost(1)),
        ]);
        assert_eq!(e.eval(&vt), e.to_polynomial().eval(&vt));
        // Unassigned variables evaluate to zero, like the polynomial path.
        let partial = Valuation::from_pairs([("p", nat(2))]);
        assert_eq!(x("q").eval(&partial), Natural::zero());
    }

    #[test]
    fn iterated_squaring_stays_linear_in_circuit_form() {
        // (a + b)^(2^k) has 2^k + 1 expanded terms but O(k) circuit nodes;
        // memoized evaluation recovers the closed form 2^(2^k) at a = b = 1.
        let mut square = x("a").plus(&x("b"));
        const K: u32 = 5;
        for _ in 0..K {
            square = square.times(&square);
        }
        assert!(square.node_count() <= 4 + K as usize);
        let ones = Valuation::from_pairs([("a", nat(1)), ("b", nat(1))]);
        assert_eq!(square.eval(&ones), nat(2u64.pow(2u32.pow(K))));
    }

    #[test]
    fn product_of_sums_is_exponential_expanded_but_linear_shared() {
        // Π (xᵢ + yᵢ) for 40 factors: 2^40 expanded monomials — far beyond
        // materializing — but ~4 nodes per factor in circuit form.
        let mut product = Circuit::one();
        for i in 0..40 {
            product
                .times_assign(&Circuit::var(format!("x{i}")).plus(&Circuit::var(format!("y{i}"))));
        }
        assert!(product.node_count() <= 1 + 4 * 40);
        let all_ones = Valuation::from_pairs(
            (0..40).flat_map(|i| [(format!("x{i}"), nat(1)), (format!("y{i}"), nat(1))]),
        );
        assert_eq!(product.eval(&all_ones), nat(1u64 << 40));
    }

    #[test]
    fn circuit_eval_memo_is_shared_across_roots() {
        let shared = x("a").plus(&x("b")).times(&x("c"));
        let r1 = shared.times(&x("d"));
        let r2 = shared.times(&x("e"));
        let v = Valuation::from_pairs([
            ("a", nat(1)),
            ("b", nat(2)),
            ("c", nat(3)),
            ("d", nat(4)),
            ("e", nat(5)),
        ]);
        let mut eval = CircuitEval::new(&v);
        assert_eq!(eval.eval(r1), nat(36));
        let after_first = eval.evaluated_nodes();
        assert_eq!(eval.eval(r2), nat(45));
        // The second root only added its two fresh nodes (e, shared·e).
        assert_eq!(eval.evaluated_nodes(), after_first + 2);
    }

    #[test]
    fn from_polynomial_round_trips() {
        let p = Polynomial::from_terms([
            (Monomial::from_powers([("r", 2u32)]), nat(2)),
            (Monomial::from_bag(["r", "s"]), nat(1)),
            (Monomial::unit(), nat(7)),
        ]);
        assert_eq!(Circuit::from_polynomial(&p).to_polynomial(), p);
        assert!(Circuit::from_polynomial(&Polynomial::zero()).is_zero());
        assert!(Circuit::from_polynomial(&Polynomial::one()).is_one());
    }

    #[test]
    fn reference_harness_accepts_circuit_samples() {
        let samples = vec![
            Circuit::zero(),
            Circuit::one(),
            x("p"),
            x("r"),
            x("p").plus(&x("r")),
            x("p").times(&x("r")).plus(&Circuit::constant(2)),
            // An n-ary Σ node with a repeated member: p + p + r + s.
            Circuit::sum_groups(1, &[0; 4], vec![x("p"), x("r"), x("p"), x("s")]).remove(0),
        ];
        check_semiring_laws(&samples).expect("circuit semiring laws");
    }

    #[test]
    fn reset_stales_handles_without_truncating_shared_storage() {
        let kept = x("tmp1").times(&x("tmp2"));
        let grown = arena_node_count();
        reset();
        // Storage is shared with other sessions, so reset reclaims nothing
        // (vacuum() does, at quiescent points — see tests/arena_lifecycle.rs);
        // it only stales this thread's handles.
        assert!(arena_node_count() >= grown);
        assert!(std::panic::catch_unwind(|| kept.node_count()).is_err());
        // The arena is usable again immediately.
        assert_eq!(
            x("tmp1").eval(&Valuation::from_pairs([("tmp1", nat(9))])),
            nat(9)
        );
    }

    #[test]
    fn shared_node_count_over_several_roots() {
        reset();
        let a = x("a");
        let b = x("b");
        let ab = a.times(&b);
        // Roots {ab, a} reach {0?, no — just a, b, ab}: 3 nodes.
        assert_eq!(shared_node_count([ab, a]), 3);
        assert_eq!(shared_node_count([Circuit::zero()]), 1);
        assert_eq!(shared_node_count(Vec::new()), 0);
    }

    #[test]
    fn bool_circuit_is_plus_idempotent_and_absorptive() {
        let p = BoolCircuit::var("p");
        let r = BoolCircuit::var("r");
        assert_eq!(p.plus(&p), p);
        assert_eq!(p.times(&p), p);
        // Absorption: p + p·r = p in PosBool.
        assert_eq!(p.plus(&p.times(&r)), p);
        assert_ne!(p.plus(&r), p);
        // ℕ[X]-equality is finer: the same nodes are *not* equal as Circuit.
        assert_ne!(p.circuit().plus(&p.circuit()), p.circuit());
    }

    #[test]
    fn stale_handles_panic_instead_of_aliasing_the_new_generation() {
        let old = x("victim").times(&x("witness"));
        reset();
        // The new generation keeps interning into the shared store; the old
        // handle still refers to live nodes but its generation is gone.
        let _ = x("other").times(&x("another"));
        let err = std::panic::catch_unwind(|| old.to_polynomial())
            .expect_err("stale handle must not read the reset arena");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("stale circuit handle"), "{message}");
        // Constants survive every reset.
        assert!(Circuit::zero().is_zero());
        assert!(Circuit::one().plus(&Circuit::zero()).is_one());
    }

    #[test]
    fn circuit_eval_refuses_a_memo_across_reset() {
        let v: Valuation<Natural> = Valuation::from_pairs([("a", nat(2))]);
        let mut eval = CircuitEval::new(&v);
        assert_eq!(eval.eval(x("a")), nat(2));
        reset();
        let fresh = x("a");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| eval.eval(fresh)))
            .expect_err("memo must not survive a reset");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("CircuitEval memo outlived"), "{message}");
    }

    #[test]
    fn sessions_scope_handle_lifetimes_and_block_bare_resets() {
        reset();
        let escaped = CircuitSession::run(|| {
            let inside = x("inside").plus(&x("session"));
            // A bare reset under a session is the footgun the guard closes.
            let err = std::panic::catch_unwind(reset).expect_err("reset under session");
            let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(message.contains("CircuitSession is active"), "{message}");
            inside
        });
        // A handle that escapes its session is stale, not silently aliased.
        assert!(std::panic::catch_unwind(|| escaped.node_count()).is_err());
        // Sessions do not nest on one thread...
        CircuitSession::run(|| {
            assert!(std::panic::catch_unwind(CircuitSession::begin).is_err());
        });
        // ...but sequential sessions compose, and resets work again after.
        CircuitSession::run(|| assert!(!x("s1").is_zero()));
        CircuitSession::run(|| assert!(!x("s2").is_zero()));
        reset();
        assert!(!x("after").is_zero());
    }

    #[test]
    fn portable_round_trip_preserves_semantics_and_sharing() {
        let shared = x("a").plus(&x("b"));
        let batch = vec![
            Circuit::zero(),
            Circuit::one(),
            shared.times(&shared),
            shared.times(&x("c")),
            Circuit::constant(3),
        ];
        let expected: Vec<ProvenancePolynomial> =
            batch.iter().map(Circuit::to_polynomial).collect();
        let token = Circuit::to_portable(batch.clone());
        // Same thread: the round trip returns the very same nodes.
        let back = Circuit::from_portable(token);
        for (orig, round) in batch.iter().zip(&back) {
            assert!(orig.same_node(round));
        }
        // Cross thread: node storage is shared, so the handles keep their
        // global ids — but are stamped with the *worker's* generation, so
        // they are usable over there.
        let ids: Vec<usize> = batch.iter().map(Circuit::node_id).collect();
        let token = Circuit::to_portable(batch);
        let (imported_ids, lowered) = std::thread::scope(|s| {
            s.spawn(move || {
                let imported = Circuit::from_portable(token);
                let ids: Vec<usize> = imported.iter().map(Circuit::node_id).collect();
                let lowered: Vec<ProvenancePolynomial> =
                    imported.iter().map(Circuit::to_polynomial).collect();
                (ids, lowered)
            })
            .join()
            .expect("worker")
        });
        assert_eq!(imported_ids, ids);
        assert_eq!(lowered, expected);
    }

    #[test]
    fn sum_groups_interns_one_canonical_node_per_group() {
        let (p, r, s) = (x("p"), x("r"), x("s"));
        // Groups: 0 = {p, r, p, s} (a repeated member), 1 = {} (its only
        // member is a zero), 2 = {r}, 3 = {s, p}, 4 = {r, r, r}.
        let group_of = [0, 3, 0, 1, 2, 0, 4, 3, 4, 0, 4];
        let values = vec![p, s, r, Circuit::zero(), r, p, r, p, r, s, r];
        let sums = Circuit::sum_groups(5, &group_of, values.clone());
        // Same ℕ[X] elements as summing each group's members pairwise.
        for (group, sum) in sums.iter().enumerate() {
            let members = values
                .iter()
                .zip(group_of)
                .filter(|(_, g)| *g as usize == group);
            let pairwise = Circuit::sum(members.map(|(v, _)| v));
            assert_eq!(
                sum.to_polynomial(),
                pairwise.to_polynomial(),
                "group {group}"
            );
        }
        // One node over the whole group, where the chain has a link per
        // member: the Σ, its three distinct members and the `1` each plain
        // member is paired with.
        assert_eq!(sums[0].node_count(), 1 + 3 + 1);
        // Groups of 0, 1 and 2 members fold to 0, the member, a binary Plus.
        assert!(sums[1].is_zero());
        assert!(sums[2].same_node(&r));
        assert!(sums[3].same_node(&s.plus(&p)));
        // Members are a multiset: x + x is 2x in ℕ[X], and x in PosBool(X).
        let twice = Circuit::sum_groups(1, &[0, 0], vec![p, p]).remove(0);
        assert_eq!(twice.to_polynomial(), poly_of(&[("p", 2)]));
        assert_eq!(sums[4].to_polynomial(), poly_of(&[("r", 3)]));
        assert_eq!(BoolCircuit::from(twice).to_posbool(), PosBool::var("p"));
        assert_eq!(BoolCircuit::from(sums[4]).to_posbool(), PosBool::var("r"));
        // Canonical: the same members in another row order are the same node.
        let reordered = Circuit::sum_groups(1, &[0; 4], vec![s, p, p, r]).remove(0);
        assert!(reordered.same_node(&sums[0]));
        // Evaluation reads the node like any other sum.
        let v = Valuation::from_pairs([("p", nat(2)), ("r", nat(5)), ("s", nat(7))]);
        assert_eq!(sums[0].eval(&v), nat(2 + 5 + 2 + 7));
        // The PosBool reading shares the override.
        let bools = BoolCircuit::sum_groups(1, &[0; 3], [p, r, p].map(BoolCircuit::from).to_vec());
        assert_eq!(
            bools[0].to_posbool(),
            PosBool::var("p").plus(&PosBool::var("r"))
        );
    }

    #[test]
    fn sum_products_interns_one_canonical_sum_of_products_per_group() {
        let (p, r, s) = (x("sp_p"), x("sp_r"), x("sp_s"));
        let (zero, one) = (Circuit::zero(), Circuit::one());
        // Group 0: p·r + r·s + 0·s + 1·p + p·1; 1: p·r; 2: 1·p; 3: p·1 + 1·r;
        // 4: s·p + p·s; 5: nothing but zero pairs; 6: no pairs at all.
        let pairs = [
            (0, &p, &r),
            (1, &p, &r),
            (0, &r, &s),
            (4, &s, &p),
            (0, &zero, &s),
            (2, &one, &p),
            (0, &one, &p),
            (3, &p, &one),
            (5, &s, &zero),
            (0, &p, &one),
            (3, &one, &r),
            (4, &p, &s),
        ];
        let group_of: Vec<u32> = pairs.iter().map(|(g, _, _)| *g).collect();
        let refs = || pairs.iter().map(|&(_, a, b)| (a, b));
        let sums = Circuit::sum_products(7, &group_of, refs());
        // The same ℕ[X] elements as the products summed group by group.
        let reference = Circuit::sum_groups(7, &group_of, Circuit::times_each(refs()));
        for (group, (sum, expected)) in sums.iter().zip(&reference).enumerate() {
            assert_eq!(
                sum.to_polynomial(),
                expected.to_polynomial(),
                "group {group}"
            );
        }
        // One Σ node over group 0: no Times node per pair.
        let pr = p.times(&r);
        let nodes = sums[0].node_count();
        assert_eq!(
            nodes,
            1 + 3 + 1,
            "the Σ, p, r, s and the 1 that p pairs with"
        );
        assert!(!sums[0].same_node(&reference[0]));
        // Canonical forms: one product is a Times, one plain member is the
        // member, two plain members are a Plus, zero pairs drop out.
        assert!(sums[1].same_node(&pr));
        assert!(sums[2].same_node(&p));
        assert!(sums[3].same_node(&p.plus(&r)));
        // A repeated product stays repeated: s·p + p·s is one Σ over p and s.
        let twice = Polynomial::from_terms([(Monomial::from_bag(["sp_p", "sp_s"]), nat(2))]);
        assert_eq!(sums[4].to_polynomial(), twice);
        assert_eq!(sums[4].node_count(), 3);
        assert!(sums[5].is_zero() && sums[6].is_zero());
        // Operand order and row order do not matter.
        let swapped: Vec<(&Circuit, &Circuit)> = refs().map(|(a, b)| (b, a)).rev().collect();
        let regrouped: Vec<u32> = group_of.iter().rev().copied().collect();
        let again = Circuit::sum_products(7, &regrouped, swapped);
        for (a, b) in sums.iter().zip(&again) {
            assert!(a.same_node(b));
        }
        // Evaluation reads the pairs as products.
        let v = Valuation::from_pairs([("sp_p", nat(2)), ("sp_r", nat(3)), ("sp_s", nat(5))]);
        assert_eq!(sums[0].eval(&v), nat(2 * 3 + 3 * 5 + 2 + 2));
        assert_eq!(sums[4].eval(&v), nat(2 * 5 * 2));
        // The PosBool reading delegates to the same nodes.
        let bools: Vec<(BoolCircuit, BoolCircuit)> = refs()
            .map(|(a, b)| (BoolCircuit::from(*a), BoolCircuit::from(*b)))
            .collect();
        let bool_sums = BoolCircuit::sum_products(7, &group_of, bools.iter().map(|(a, b)| (a, b)));
        for (b, c) in bool_sums.iter().zip(&sums) {
            assert!(b.circuit().same_node(c));
        }
        assert!(check_arena_invariants() > 5);
    }

    #[test]
    fn small_circuits_print_without_arena_sized_scratch() {
        // Other computations' nodes: a tower of 10⁵ squarings.
        let mut foreign = x("foreign").plus(&x("nodes"));
        for _ in 0..100_000 {
            foreign = foreign.times(&foreign);
        }
        assert!(arena_node_count() >= 100_000);
        let small = x("p").times(&x("r"));
        let mut pending = BinaryHeap::new();
        let seen = reachable(&[small], &mut pending, |_| false, DEBUG_NODES).expect("small");
        assert_eq!(seen.steps.len(), 3);
        let scratch = seen.steps.capacity().max(pending.capacity());
        assert!(scratch < 1_000, "sized by the arena: {scratch}");
        assert_eq!(format!("{small:?}"), format!("{:?}", small.to_polynomial()));
        // A big circuit stops being read just past the printing limit.
        let mut pending = BinaryHeap::new();
        assert!(reachable(&[foreign], &mut pending, |_| false, DEBUG_NODES).is_none());
        assert!(pending.capacity() < 1_000, "{}", pending.capacity());
        assert!(format!("{foreign:?}").contains("more than 64 nodes"));
    }

    #[test]
    fn bool_circuit_portability_matches_circuit() {
        assert!(BoolCircuit::is_portable() && Circuit::is_portable());
        let batch = vec![BoolCircuit::var("p").plus(&BoolCircuit::var("r"))];
        let expected = batch[0].to_posbool();
        let token = BoolCircuit::to_portable(batch);
        let back = BoolCircuit::from_portable(token);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].to_posbool(), expected);
    }

    #[test]
    fn bool_circuit_eval_through_posbool() {
        let e = BoolCircuit::var("p")
            .times(&BoolCircuit::var("r"))
            .plus(&BoolCircuit::var("p"));
        assert_eq!(e.to_posbool(), PosBool::var("p"));
        let v = Valuation::from_pairs([("p", Bool::from(true)), ("r", Bool::from(false))]);
        assert_eq!(e.circuit().eval(&v), Bool::from(true));
    }

    #[test]
    fn ids_are_creation_order() {
        let (a, b) = (x("order_a"), x("order_b"));
        let ab = a.times(&b);
        let sum = Circuit::sum_groups(1, &[0; 3], vec![ab, b, a]).remove(0);
        assert!(a.id < ab.id && b.id < ab.id && ab.id < sum.id);
        // Other tests intern concurrently; the checker reads under the lock.
        assert!(check_arena_invariants() > 4);
    }

    #[test]
    fn times_each_interns_exactly_the_nodes_times_does() {
        let (p, r, s) = (x("p"), x("r"), x("s"));
        let (zero, one, pr) = (Circuit::zero(), Circuit::one(), p.plus(&r));
        let pairs = [
            (&p, &r),
            (&r, &p),
            (&pr, &s),
            (&zero, &s),
            (&s, &one),
            (&one, &pr),
            (&pr, &pr),
        ];
        let batch = Circuit::times_each(pairs);
        assert_eq!(batch.len(), pairs.len());
        for ((a, b), product) in pairs.iter().zip(&batch) {
            assert!(a.times(b).same_node(product));
        }
        assert!(batch[3].is_zero() && batch[4].same_node(&s) && batch[5].same_node(&pr));
        assert!(Circuit::times_each([]).is_empty());
    }

    #[test]
    fn eval_all_is_eval_root_by_root() {
        let shared = x("a").plus(&x("b")).times(&x("c"));
        let roots = [
            shared.times(&x("d")),
            Circuit::zero(),
            shared,
            x("e"),
            Circuit::one(),
            shared.times(&x("d")).plus(&x("e")),
        ];
        let v = Valuation::from_pairs([("a", nat(1)), ("b", nat(2)), ("c", nat(3)), ("d", nat(4))]);
        let mut one_pass = CircuitEval::new(&v);
        let all = one_pass.eval_all(&roots);
        let mut by_root = CircuitEval::new(&v);
        let each: Vec<Natural> = roots.iter().map(|&root| by_root.eval(root)).collect();
        assert_eq!(all, each);
        assert_eq!(all, [nat(36), nat(0), nat(9), nat(0), nat(1), nat(36)]);
        assert_eq!(one_pass.evaluated_nodes(), by_root.evaluated_nodes());
        // A second call reads nothing it has memoized: only the new root.
        assert_eq!(one_pass.eval_all(&roots), all);
        let more = one_pass.eval_all(&[roots[5].times(&x("c"))]);
        assert_eq!(more, [nat(108)]);
        assert_eq!(one_pass.evaluated_nodes(), by_root.evaluated_nodes() + 1);
        assert!(one_pass.eval_all(&[]).is_empty());
    }

    #[test]
    fn the_dense_memo_grows_with_the_highest_root_and_counts_each_node_once() {
        let low = x("memo_a").times(&x("memo_b"));
        let high = low.plus(&x("memo_c"));
        let v = Valuation::from_pairs([("memo_a", nat(2)), ("memo_b", nat(3)), ("memo_c", nat(4))]);
        let mut eval = CircuitEval::new(&v);
        assert_eq!(eval.eval_all(&[low]), [nat(6)]);
        assert_eq!(eval.evaluated_nodes(), 3);
        assert_eq!(eval.eval_all(&[high, low]), [nat(10), nat(6)]);
        assert_eq!(eval.evaluated_nodes(), 5);
        // Below the highest root evaluated so far: all memoized.
        assert_eq!(eval.eval(low), nat(6));
        assert_eq!(eval.evaluated_nodes(), 5);
    }

    #[test]
    fn vars_interns_exactly_the_nodes_var_does() {
        let names: Vec<Variable> = Variable::indexed_each("batch_v", 40)
            .chain([Variable::new("batch_v_3")])
            .collect();
        let batch = Circuit::vars(names.iter().cloned());
        assert_eq!(batch.len(), names.len());
        for (name, leaf) in names.iter().zip(&batch) {
            assert!(Circuit::var(name.clone()).same_node(leaf), "{name}");
        }
        // A repeated name is the same node, as with `var`.
        assert!(batch[3].same_node(&batch[40]));
        assert!(Circuit::vars([]).is_empty());
        // Stamped with the generation they were interned in, like any handle.
        let escaped = CircuitSession::run(|| Circuit::vars([Variable::new("batch_w")]));
        let err = std::panic::catch_unwind(|| escaped[0].to_polynomial())
            .expect_err("a batch's handles die with their session");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("stale circuit handle"), "{message}");
    }
}

#[cfg(test)]
mod node_table_tests {
    //! Collisions cost probes, never results: the node table under hashes
    //! chosen by the test. `probe` and `insert` take the hash as an
    //! argument, so injecting one needs no hook.

    use super::{fx_hash_one, Node, NodeTable, Variable};
    use std::collections::BTreeMap;

    /// Runs `keys` through a table under `hash_of`, checking ids (first-
    /// occurrence order) and lookups against a model.
    fn check(keys: &[u64], hash_of: impl Fn(u64) -> u64) -> NodeTable {
        let mut table = NodeTable::new();
        let mut key_of_id: Vec<u64> = Vec::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for &key in keys {
            let hash = hash_of(key);
            let id = match table.probe(hash, |id| key_of_id[id as usize] == key) {
                Ok(id) => id,
                Err(slot) => {
                    let id = key_of_id.len() as u32;
                    key_of_id.push(key);
                    table.insert(slot, hash, id);
                    id
                }
            };
            let next = model.len() as u32;
            assert_eq!(id, *model.entry(key).or_insert(next), "key {key}");
        }
        assert_eq!(table.len, model.len());
        for (&key, &id) in &model {
            let found = table.probe(hash_of(key), |other| key_of_id[other as usize] == key);
            assert_eq!(found, Ok(id), "key {key}");
        }
        let absent = u64::MAX - 7;
        assert!(!model.contains_key(&absent));
        assert!(table.probe(hash_of(absent), |_| false).is_err());
        table
    }

    /// Slots walked to find each stored entry: `(mean, max)`.
    fn probe_lengths(table: &NodeTable) -> (f64, usize) {
        let mask = table.slots.len() - 1;
        let lengths: Vec<usize> = table
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &entry)| entry != 0)
            .map(|(slot, &entry)| (slot.wrapping_sub(table.home(entry >> 32)) & mask) + 1)
            .collect();
        let mean = lengths.iter().sum::<usize>() as f64 / lengths.len() as f64;
        (mean, lengths.into_iter().max().unwrap_or(0))
    }

    /// A stream with repeats: every key twice, interleaved.
    fn stream(distinct: u64) -> Vec<u64> {
        (0..distinct).chain((0..distinct).rev()).collect()
    }

    fn spread(table: &NodeTable) {
        let (mean, max) = probe_lengths(table);
        assert!(mean < 2.0 && max < 64, "mean {mean}, max {max}");
    }

    #[test]
    fn one_hash_for_every_key_is_one_long_walk_and_the_same_ids() {
        let table = check(&stream(600), |_| 0xdead_beef);
        assert_eq!(probe_lengths(&table).1, 600);
    }

    #[test]
    fn hashes_equal_in_their_high_bits_spread() {
        spread(&check(&stream(20_000), |key| {
            0xabcd_ef01_0000_0000 | (key.wrapping_mul(0x9e37_79b9) & 0xffff_ffff)
        }));
    }

    #[test]
    fn hashes_equal_in_their_low_bits_spread() {
        // What `fx_hash_one` gives `fᵢ + t` over one `fᵢ`: the low half is
        // fixed by the smaller operand.
        spread(&check(&stream(20_000), |key| {
            0x1234_5678 | key.wrapping_mul(0x9e37_79b9) << 32
        }));
    }

    #[test]
    fn tagged_variable_names_spread() {
        // `R_0, R_1, …` differ in their last bytes only.
        spread(&check(&stream(30_000), |key| {
            fx_hash_one(&Node::Var(Variable::indexed("R", key as usize)))
        }));
    }

    #[test]
    fn consecutive_integers_as_hashes_spread() {
        spread(&check(&stream(20_000), |key| key));
    }

    #[test]
    fn equal_hashes_of_unequal_keys_keep_their_own_ids() {
        let table = check(&stream(5_000), |key| fx_hash_one(&(key / 2)));
        assert_eq!(table.len, 5_000);
    }

    #[test]
    fn a_hundred_thousand_sums_over_seven_operands_through_many_growths() {
        // The real node hash of `fᵢ + t`, `i < 7`.
        let table = check(&stream(100_000), |key| {
            fx_hash_one(&Node::Plus([
                key as u32 % 7 + 2,
                (key as u32).wrapping_add(9),
            ]))
        });
        // 16 slots at load ½ → 2¹⁸: fourteen doublings, from the tags alone.
        assert_eq!(table.slots.len(), 1 << 18);
        spread(&table);
    }
}
