//! The compiled semi-naive evaluator: the datalog fixpoint over interned
//! ids. Every semi-naive entry point of [`crate::seminaive`] runs here, and
//! so does every phase of [`crate::maintain`], on the tables the fixpoint
//! built and the view keeps, and so does the instantiation every
//! [`crate::grounding::Grounding`] numbers. The reference the differential
//! suites compare all three against is [`crate::naive::kleene_iterate`],
//! which shares none of this code.
//!
//! A differential round never touches a `Fact`, a `Value` or a `String` per
//! derivation:
//!
//! * every constant of the program, and of the EDB relations the program
//!   reads, is interned once to a dense `u32` (`Interner`);
//! * a relation is one `Table` per `(predicate, arity)`: id columns, one
//!   vector of annotations, an open-addressing row-identity index and one
//!   chained key index per probe mask. A predicate used at two arities is
//!   two tables, and a column holds as many distinct constants as fit in a
//!   `u32`;
//! * each rule compiles to its forms — the left-to-right `full` plan, the
//!   head-seeded `recompute` plan and one `Δ` form per idb body atom (per
//!   body atom, when maintenance asks) — each a list of probe steps, with
//!   the positions bound before a step as its probe mask, that a
//!   depth-first join walks over a small binding array, multiplying
//!   annotations as it descends (seed first, then the steps in body order);
//! * head contributions are summed straight into a per-worker accumulator
//!   keyed by head ids — a hash table without key indexes, or a dense grid
//!   over the head table's id tuples once the last round showed the grid
//!   pays; workers' accumulators are combined in chunk order, and the rows
//!   that changed become the next round's delta.
//!
//! The [`FactStore`] the API returns is built **once**, after the last
//! round, by sorting each table's rows on the rank of their ids and bulk
//! loading the result: between rounds nothing but ids and annotations
//! moves.
//!
//! # One exact differential round
//!
//! Every fixpoint entry point runs the same loop, for every semiring. After
//! round `m` a table holds `Tᵐ(0)`; each row that moved in round `m` also
//! keeps its annotation from before (`old`) and the increment that moved
//! it (`δ`, with `old + δ` its annotation now). A `Δ` form seeded at body
//! position `i` multiplies the seed row's `δ` with the current annotations
//! of the atoms before `i` and the previous ones of the atoms after `i`.
//! Distributivity and commutativity alone give, per derivation,
//!
//! ```text
//! Π(oldⱼ + δⱼ) = Π oldⱼ + Σᵢ (Π_{j<i} newⱼ) · δᵢ · (Π_{j>i} oldⱼ)
//! ```
//!
//! so summing the forms' products per head gives exactly the increment
//! `Tᵐ⁺¹(0) = Tᵐ(0) + Σ increments`: there is nothing to subtract, and no
//! head is recomputed from scratch. A row whose `δ` is zero contributes
//! nothing, so only the rows that moved seed the round. A row joins the
//! next delta iff adding its increment moved its annotation; an absorbed
//! increment (ℕ∞'s `∞ + x = ∞`, an idempotent `a + a = a`) leaves it out,
//! as `δ = 0` also satisfies `old + δ = new`, so the loop stops exactly
//! when `Tᵐ⁺¹(0) = Tᵐ(0)`. A row that was zero (new in round 1, zeroed by
//! maintenance) has its whole total as `δ`. The bookkeeping is O(|Δ|) per
//! round: the moved rows' `old` and `δ`, and a row → delta-position map set
//! and cleared row by row.
//!
//! The head-seeded `recompute` plans serve maintenance only: the first
//! round of its rederivation recomputes the zeroed affected heads. The
//! annotation-blind join serves its affected closure, and grounding: after
//! the fixpoint over 𝔹, every complete binding of a rule's `full` plan is
//! one ground rule.
//!
//! # Which semirings, which threads
//!
//! The round logic needs only `K: Semiring`. Sharing the tables with scoped
//! worker threads is what needs `K: Send + Sync`, so that bound sits on one
//! impl of the private `FanOut` trait (`Workers`) and nowhere else: the
//! context-free entry points (`seminaive_iterate`, `evaluate`,
//! `maintain_fixpoint`, …) run every chunk on the calling thread (`Caller`)
//! and so accept `!Send` annotations such as circuit handles, while the
//! `_with` entry points fan out over the context's thread budget.
//!
//! # Round-for-round identity with the naive iteration
//!
//! The loop computes exactly `Tᵐ(0)` after `m` rounds: the same forms run
//! in the same rounds at every thread count, and a zero-annotation factor
//! prunes a derivation (it contributes zero). Per-head sums may accumulate
//! products in a different order than the naive loop does, which is
//! invisible because semiring `+` and `×` are exactly associative and
//! commutative for every semiring in this workspace (the law suite pins
//! that down). The grid and the hash accumulator hand their rows on in the
//! same (first-touch) order, so the accumulator a round takes changes no
//! result. The differential tests assert idb and `converged` equality
//! against `kleene_iterate` across semirings, round bounds and thread
//! counts, and full [`FixpointResult`] equality between thread counts.

use crate::ast::{Atom, DlVar, Program, Rule, Term};
use crate::fact::{Fact, FactStore};
use crate::grounding::GroundRule;
use crate::naive::FixpointResult;
use provsem_core::par;
use provsem_core::plan::ExecContext;
use provsem_core::Value;
use provsem_semiring::{Bool, Semiring};
use std::collections::BTreeSet;

/// "No entry": an empty hash slot, the end of a chain, an unbound variable.
const NIL: u32 = u32::MAX;

/// Folds the high half of a multiplicative hash into the low half, twice
/// around one more multiply. A hash that ends on a multiply (this one, the
/// workspace's `FxHasher`) leaves the low bits of small or similar keys
/// nearly constant, and every table here indexes its slots by the low bits;
/// one fold alone still let dense ids (`(i, 7)` for `i = 0, 1, 2, …`) clump
/// under linear probing.
fn fold(hash: u64) -> u64 {
    let hash = (hash ^ (hash >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    hash ^ (hash >> 32)
}

/// The (folded) hash of a sequence of ids: a whole row, or its key columns.
fn hash_ids(ids: impl IntoIterator<Item = u32>) -> u64 {
    fold(ids.into_iter().fold(0u64, |h, id| {
        (h.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x517c_c1b7_2722_0a95)
    }))
}

/// Open-addressing hash slots over entry numbers. The caller supplies the
/// hashes and the equality, so one structure serves the interner (entries
/// are value ids) and row identity (entries are row numbers).
#[derive(Default)]
struct Slots {
    slots: Vec<u32>,
    len: usize,
}

impl Slots {
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                NIL => return None,
                entry if is(entry) => return Some(entry),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Adds an entry that [`Slots::find`] did not find. The slots stay at
    /// most half full; when they double, `rehash` gives each old entry's
    /// hash again.
    fn insert(&mut self, hash: u64, entry: u32, rehash: impl Fn(u32) -> u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            let doubled = vec![NIL; (self.slots.len() * 2).max(16)];
            for old in std::mem::replace(&mut self.slots, doubled) {
                if old != NIL {
                    self.place(rehash(old), old);
                }
            }
        }
        self.place(hash, entry);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, entry: u32) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at] != NIL {
            at = (at + 1) & mask;
        }
        self.slots[at] = entry;
    }
}

/// Every constant the evaluation can meet, as a dense `u32`.
#[derive(Default)]
struct Interner {
    values: Vec<Value>,
    slots: Slots,
}

impl Interner {
    fn intern(&mut self, value: &Value) -> u32 {
        let hash = fold(value.content_hash());
        let values = &self.values;
        if let Some(id) = self.slots.find(hash, |id| &values[id as usize] == value) {
            return id;
        }
        let id = u32::try_from(values.len())
            .ok()
            .filter(|&id| id != NIL)
            .expect("fewer than 2³² distinct constants");
        self.values.push(value.clone());
        let values = &self.values;
        self.slots
            .insert(hash, id, |e| fold(values[e as usize].content_hash()));
        id
    }

    /// `rank[id]` is the position of the id's value in `Value` order, so
    /// rows sort like their value vectors by integer comparisons.
    fn ranks(&self) -> Vec<u32> {
        let mut order: Vec<u32> = (0..self.values.len() as u32).collect();
        order.sort_unstable_by_key(|&id| &self.values[id as usize]);
        let mut rank = vec![0; order.len()];
        for (position, id) in order.into_iter().enumerate() {
            rank[id as usize] = position as u32;
        }
        rank
    }
}

/// The rows of one probe mask, chained per hash slot: `first[slot]` is the
/// slot's newest row and `next[row]` the one linked before it. A chain
/// holds every row whose key hashes to the slot, so the join still compares
/// the key columns of each candidate.
struct KeyIndex {
    mask: Vec<usize>,
    first: Vec<u32>,
    next: Vec<u32>,
}

impl KeyIndex {
    fn link(&mut self, row: u32, hash: u64) {
        let slot = hash as usize & (self.first.len() - 1);
        self.next[row as usize] = self.first[slot];
        self.first[slot] = row;
    }

    /// The newest row of the chain a key with this hash is on.
    fn chain(&self, hash: u64) -> u32 {
        match self.first.len() {
            0 => NIL,
            slots => self.first[hash as usize & (slots - 1)],
        }
    }
}

/// One `(predicate, arity)` relation over interned ids, append-only
/// (between [`Table::compact`]s): distinct rows as id columns, found again
/// through `identity`, probed through one [`KeyIndex`] per registered mask.
/// `anns` is parallel to the rows wherever annotations are kept — the
/// relations and a round's accumulators keep them, maintenance's head sets
/// fill them in after recomputing.
pub(crate) struct Table<K> {
    cols: Vec<Vec<u32>>,
    len: usize,
    anns: Vec<K>,
    identity: Slots,
    keys: Vec<KeyIndex>,
    /// The rows left by the last [`Table::compact`] that dropped any.
    compacted: usize,
}

impl<K: Semiring> Table<K> {
    fn new(arity: usize, masks: &[Vec<usize>]) -> Self {
        let mut table = Table {
            cols: vec![Vec::new(); arity],
            len: 0,
            anns: Vec::new(),
            identity: Slots::default(),
            keys: Vec::new(),
            compacted: 0,
        };
        table.index(masks);
        table
    }

    /// Drops the zero rows once the table has doubled since the last time,
    /// so a maintained view's probes do not walk a row for every fact it
    /// ever held (amortized O(1) per appended row). Row numbers change. A
    /// zero row contributes nothing, and one a later delta affects is
    /// appended again by the closure that finds it.
    fn compact(&mut self) {
        if self.len <= 2 * self.compacted.max(16) {
            return;
        }
        let masks: Vec<Vec<usize>> = self.keys.iter().map(|key| key.mask.clone()).collect();
        let mut kept = Table::new(self.cols.len(), &masks);
        let mut ids = Vec::new();
        for row in 0..self.len {
            if !self.anns[row].is_zero() {
                ids.clear();
                ids.extend(self.row(row));
                kept.push(&ids);
                kept.anns
                    .push(std::mem::replace(&mut self.anns[row], K::zero()));
            }
        }
        kept.compacted = kept.len;
        *self = kept;
    }

    /// Orders the key indexes like `masks`, building (and linking the rows
    /// it holds into) each one the table lacks: the masks a compile for
    /// maintenance adds to those of the fixpoint that built the table.
    fn index(&mut self, masks: &[Vec<usize>]) {
        let mut keys = std::mem::take(&mut self.keys);
        for mask in masks {
            if let Some(at) = keys.iter().position(|key| key.mask == *mask) {
                self.keys.push(keys.swap_remove(at));
                continue;
            }
            let slots = match self.len {
                0 => 0,
                len => len.next_power_of_two().max(16),
            };
            let mut key = KeyIndex {
                mask: mask.clone(),
                first: vec![NIL; slots],
                next: vec![NIL; self.len],
            };
            for row in 0..self.len {
                let hash = hash_ids(mask.iter().map(|&c| self.cols[c][row]));
                key.link(row as u32, hash);
            }
            self.keys.push(key);
        }
    }

    fn row(&self, row: usize) -> impl Iterator<Item = u32> + '_ {
        self.cols.iter().map(move |col| col[row])
    }

    fn find(&self, ids: &[u32]) -> Option<u32> {
        self.identity.find(hash_ids(ids.iter().copied()), |row| {
            self.row(row as usize).eq(ids.iter().copied())
        })
    }

    /// Appends a row that [`Table::find`] did not find and links it into
    /// every key index; a key index doubles (and relinks) once it has more
    /// rows than slots. The caller pushes the annotation, if it keeps one.
    fn push(&mut self, ids: &[u32]) -> u32 {
        let row = u32::try_from(self.len)
            .ok()
            .filter(|&row| row != NIL)
            .expect("fewer than 2³² rows per table");
        for (col, &id) in self.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        self.len += 1;
        let cols = &self.cols;
        self.identity
            .insert(hash_ids(ids.iter().copied()), row, |r| {
                hash_ids(cols.iter().map(|col| col[r as usize]))
            });
        for key in &mut self.keys {
            key.next.push(NIL);
            let relink = if self.len > key.first.len() {
                key.first = vec![NIL; (key.first.len() * 2).max(16)];
                0..=row
            } else {
                row..=row
            };
            for r in relink {
                let hash = hash_ids(key.mask.iter().map(|&c| cols[c][r as usize]));
                key.link(r, hash);
            }
        }
        row
    }

    /// The row holding `ids`, appended if new (for tables used as sets).
    fn upsert(&mut self, ids: &[u32]) -> u32 {
        self.find(ids).unwrap_or_else(|| self.push(ids))
    }

    /// Adds `k` to the annotation of the row holding `ids`; returns the row.
    fn add(&mut self, ids: &[u32], k: &K) -> u32 {
        match self.find(ids) {
            Some(row) => {
                self.anns[row as usize].plus_assign(k);
                row
            }
            None => {
                self.anns.push(k.clone());
                self.push(ids)
            }
        }
    }
}

/// The rows of one table whose annotation moved in the last round, each
/// with the annotation it had before (`old`) and the increment that moved
/// it (`inc`: `old + inc` is its annotation now), and `at[row]`, the row's
/// position among them (`NIL`: it did not move). Maintenance's blind
/// closure fills `rows` alone.
pub(crate) struct Delta<K> {
    rows: Vec<u32>,
    old: Vec<K>,
    inc: Vec<K>,
    at: Vec<u32>,
}

impl<K> Default for Delta<K> {
    fn default() -> Self {
        Delta {
            rows: Vec::new(),
            old: Vec::new(),
            inc: Vec::new(),
            at: Vec::new(),
        }
    }
}

impl<K> Delta<K> {
    /// Empties the delta in O(|Δ|).
    fn clear(&mut self) {
        for &row in &self.rows {
            if let Some(at) = self.at.get_mut(row as usize) {
                *at = NIL;
            }
        }
        self.rows.clear();
        self.old.clear();
        self.inc.clear();
    }

    fn push(&mut self, row: u32, old: K, inc: K) {
        let r = row as usize;
        if self.at.len() <= r {
            self.at.resize(r + 1, NIL);
        }
        self.at[r] = self.rows.len() as u32;
        self.rows.push(row);
        self.old.push(old);
        self.inc.push(inc);
    }

    /// The annotation `row` had before the last round: `now`, unless it
    /// moved.
    fn before<'a>(&'a self, row: u32, now: &'a K) -> &'a K {
        match self.at.get(row as usize) {
            Some(&at) if at != NIL => &self.old[at as usize],
            _ => now,
        }
    }
}

/// How one argument position of an atom meets a candidate row.
#[derive(Clone, Copy)]
enum Match {
    /// An interned constant the row must hold here.
    Const(u32),
    /// A variable bound earlier (by the seed, an earlier step, or an
    /// earlier position of this atom): the row must agree with its slot.
    Bound(usize),
    /// A variable's first occurrence: the row binds its slot.
    Bind(usize),
}

impl Match {
    /// The id of a constant or bound position.
    fn id(self, binding: &[u32]) -> u32 {
        match self {
            Match::Const(id) => id,
            Match::Bound(slot) => binding[slot],
            Match::Bind(_) => unreachable!("read before it is bound"),
        }
    }

    /// The id at this position under a complete binding.
    fn ground(self, binding: &[u32]) -> u32 {
        match self {
            Match::Const(id) => id,
            Match::Bound(slot) | Match::Bind(slot) => binding[slot],
        }
    }
}

/// Matches a row against an atom's positions, binding its new variables.
fn matches<K>(terms: &[Match], table: &Table<K>, row: u32, binding: &mut [u32]) -> bool {
    for (col, term) in table.cols.iter().zip(terms) {
        let id = col[row as usize];
        match *term {
            Match::Const(c) if id != c => return false,
            Match::Bound(slot) if id != binding[slot] => return false,
            Match::Bind(slot) => binding[slot] = id,
            _ => {}
        }
    }
    true
}

/// One probe step: the atom to match, the table it reads, and which of
/// the table's key indexes its bound-column mask selects (`None`: nothing
/// is bound, every row is a candidate). `old`: the atom comes after a `Δ`
/// form's seed, so it reads the annotations from before the last round.
struct Step<'p> {
    atom: &'p Atom,
    table: usize,
    key: Option<usize>,
    terms: Vec<Match>,
    old: bool,
}

/// A compiled join: the body atoms (all, or all but a `Δ` form's seed) in
/// body order. `emit` grounds the head from a complete binding (constants
/// and bound slots); it is `None` when some head variable is bound by no
/// atom: such a form never grounds its head.
struct Plan<'p> {
    steps: Vec<Step<'p>>,
    emit: Option<Vec<Match>>,
}

/// One `Δ` form: the body atom the delta rows are matched at, and the plan
/// over the rest of the body.
struct DeltaForm<'p> {
    atom: &'p Atom,
    table: usize,
    seed: Vec<Match>,
    plan: Plan<'p>,
}

/// The compiled forms of one rule; its variables share one slot numbering.
struct Form<'p> {
    rule: &'p Rule,
    nvars: usize,
    head_table: usize,
    /// The head atom as a seed pattern for `recompute`.
    head: Vec<Match>,
    recompute: Plan<'p>,
    full: Plan<'p>,
    /// One per idb body atom (per body atom, compiled for maintenance).
    delta: Vec<DeltaForm<'p>>,
}

/// What the compiler knows of a table before any row is loaded.
struct TableSpec<'p> {
    predicate: &'p str,
    arity: usize,
    idb: bool,
    /// Does some rule body read it?
    read: bool,
    masks: Vec<Vec<usize>>,
    /// The forms whose head lands here, in program order.
    heads: Vec<usize>,
}

/// A program compiled against interned ids: forms, table layout, and the
/// interner that loading the relations keeps extending.
pub(crate) struct Compiled<'p> {
    idb: BTreeSet<String>,
    forms: Vec<Form<'p>>,
    specs: Vec<TableSpec<'p>>,
    interner: Interner,
}

/// Per-rule compilation state: the rule's variables in slot order and
/// which of them the form being compiled has bound so far.
#[derive(Default)]
struct Scope<'p> {
    vars: Vec<&'p DlVar>,
    bound: Vec<usize>,
}

impl<'p> Scope<'p> {
    fn slot(&mut self, var: &'p DlVar) -> usize {
        self.vars.iter().position(|v| *v == var).unwrap_or_else(|| {
            self.vars.push(var);
            self.vars.len() - 1
        })
    }

    fn is_bound(&self, var: &DlVar) -> bool {
        let slot = self.vars.iter().position(|v| *v == var);
        slot.is_some_and(|slot| self.bound.contains(&slot))
    }
}

impl<'p> Compiled<'p> {
    /// The forms every fixpoint entry point runs.
    pub(crate) fn new(program: &'p Program) -> Self {
        Compiled::compile(program, Interner::default(), false)
    }

    /// With `edb_deltas` (maintenance), a `Δ` form for **every** body atom,
    /// edb ones included. Over the interner of tables a fixpoint built,
    /// interning the program's constants again finds their ids, and the
    /// specs come out in the same order.
    fn compile(program: &'p Program, interner: Interner, edb_deltas: bool) -> Self {
        let mut compiled = Compiled {
            idb: program.idb_predicates(),
            forms: Vec::new(),
            specs: Vec::new(),
            interner,
        };
        for (fi, rule) in program.rules.iter().enumerate() {
            let mut scope = Scope::default();
            let head_table = compiled.table(&rule.head);
            compiled.specs[head_table].heads.push(fi);
            let full = compiled.plan(rule, None, &mut scope);
            scope.bound.clear();
            let head = compiled.pattern(&rule.head, &mut scope);
            let recompute = compiled.plan(rule, None, &mut scope);
            let positions: Vec<usize> = (0..rule.body.len())
                .filter(|&pos| edb_deltas || compiled.idb.contains(&rule.body[pos].predicate))
                .collect();
            let delta = positions
                .into_iter()
                .map(|pos| {
                    let atom = &rule.body[pos];
                    scope.bound.clear();
                    DeltaForm {
                        atom,
                        table: compiled.table(atom),
                        seed: compiled.pattern(atom, &mut scope),
                        plan: compiled.plan(rule, Some(pos), &mut scope),
                    }
                })
                .collect();
            compiled.forms.push(Form {
                rule,
                nvars: scope.vars.len(),
                head_table,
                head,
                recompute,
                full,
                delta,
            });
        }
        compiled
    }

    /// The table of an atom's `(predicate, arity)`, created on first use.
    fn table(&mut self, atom: &'p Atom) -> usize {
        let (predicate, arity) = (atom.predicate.as_str(), atom.terms.len());
        let found = self
            .specs
            .iter()
            .position(|s| s.predicate == predicate && s.arity == arity);
        found.unwrap_or_else(|| {
            self.specs.push(TableSpec {
                predicate,
                arity,
                idb: self.idb.contains(predicate),
                read: false,
                masks: Vec::new(),
                heads: Vec::new(),
            });
            self.specs.len() - 1
        })
    }

    /// Compiles an atom's positions against the scope, binding its new
    /// variables.
    fn pattern(&mut self, atom: &'p Atom, scope: &mut Scope<'p>) -> Vec<Match> {
        atom.terms
            .iter()
            .map(|term| match term {
                Term::Const(value) => Match::Const(self.interner.intern(value)),
                Term::Var(x) => {
                    let slot = scope.slot(x);
                    if scope.bound.contains(&slot) {
                        Match::Bound(slot)
                    } else {
                        scope.bound.push(slot);
                        Match::Bind(slot)
                    }
                }
            })
            .collect()
    }

    /// Compiles the body of `rule`, without the atom at `seed` if there is
    /// one, after the variables the scope already binds. An atom's probe
    /// mask is its constant positions and those of variables bound before
    /// it; the mask is registered with the table the atom reads. The atoms
    /// after the seed read the annotations from before the last round.
    fn plan(&mut self, rule: &'p Rule, seed: Option<usize>, scope: &mut Scope<'p>) -> Plan<'p> {
        let mut steps = Vec::with_capacity(rule.body.len());
        for (pos, atom) in rule.body.iter().enumerate() {
            if Some(pos) == seed {
                continue;
            }
            let mask: Vec<usize> = (0..atom.terms.len())
                .filter(|&c| match &atom.terms[c] {
                    Term::Const(_) => true,
                    Term::Var(x) => scope.is_bound(x),
                })
                .collect();
            let table = self.table(atom);
            let spec = &mut self.specs[table];
            spec.read = true;
            let key = (!mask.is_empty()).then(|| {
                spec.masks
                    .iter()
                    .position(|m| *m == mask)
                    .unwrap_or_else(|| {
                        spec.masks.push(mask);
                        spec.masks.len() - 1
                    })
            });
            steps.push(Step {
                atom,
                table,
                key,
                terms: self.pattern(atom, scope),
                old: seed.is_some_and(|seed| pos > seed),
            });
        }
        let emit = rule
            .head
            .terms
            .iter()
            .map(|term| match term {
                Term::Const(value) => Some(Match::Const(self.interner.intern(value))),
                Term::Var(x) => {
                    let slot = scope.slot(x);
                    scope.bound.contains(&slot).then_some(Match::Bound(slot))
                }
            })
            .collect();
        Plan { steps, emit }
    }

    /// Empty accumulators parallel to the tables: rows and annotations, no
    /// key indexes.
    fn accumulators<K: Semiring>(&self) -> Vec<Table<K>> {
        self.specs
            .iter()
            .map(|spec| Table::new(spec.arity, &[]))
            .collect()
    }

    /// [`Compiled::accumulators`] as a round's empty sums.
    fn sums<K: Semiring>(&self) -> Vec<Sums<K>> {
        let heads = self.accumulators().into_iter();
        heads.map(|heads| Sums { heads, added: 0 }).collect()
    }

    /// Loads the edb's rows into the tables of the edb predicates rule
    /// bodies read, interning their constants. Rows of a predicate at an
    /// arity no atom uses can match nothing and are skipped, and so are edb
    /// rows of an idb predicate: idb factors are read from the accumulated
    /// fixpoint only, as in `Tᵐ(0)`.
    fn load<K: Semiring>(&mut self, tables: &mut [Table<K>], edb: &FactStore<K>) {
        let mut ids = Vec::new();
        for (spec, table) in self.specs.iter().zip(tables) {
            if spec.idb || !spec.read {
                continue;
            }
            for (values, k) in edb.rows_of(spec.predicate) {
                if values.len() != spec.arity {
                    continue;
                }
                ids.clear();
                ids.extend(values.iter().map(|v| self.interner.intern(v)));
                table.push(&ids);
                table.anns.push(k.clone());
            }
        }
    }
}

/// The depth-first join: extends `binding` through `steps` and calls
/// `leaf` with every complete binding. With `track`, `product` is the
/// running body product — a zero factor prunes the candidate, and a step
/// after a `Δ` form's seed reads the annotation from before the last round
/// (`deltas`) — otherwise the walk is annotation-blind and hands `product`
/// through untouched.
fn join<K: Semiring>(
    steps: &[Step<'_>],
    tables: &[Table<K>],
    deltas: &[Delta<K>],
    binding: &mut [u32],
    product: &K,
    track: bool,
    leaf: &mut impl FnMut(&[u32], &K),
) {
    let Some((step, rest)) = steps.split_first() else {
        return leaf(binding, product);
    };
    let table = &tables[step.table];
    // The candidates: every row, or the chain of the key's slot.
    let (mut next, end, chain) = match step.key {
        None => (0, table.len as u32, None),
        Some(k) => {
            let key = &table.keys[k];
            let hash = hash_ids(key.mask.iter().map(|&c| step.terms[c].id(binding)));
            (key.chain(hash), NIL, Some(&key.next))
        }
    };
    while next != end {
        let row = next;
        next = chain.map_or(row + 1, |chain| chain[row as usize]);
        if !matches(&step.terms, table, row, binding) {
            continue;
        }
        if track {
            let now = &table.anns[row as usize];
            let factor = if step.old {
                deltas[step.table].before(row, now)
            } else {
                now
            };
            if !factor.is_zero() {
                let product = product.times(factor);
                join(rest, tables, deltas, binding, &product, track, leaf);
            }
        } else {
            join(rest, tables, deltas, binding, product, track, leaf);
        }
    }
}

/// Joins `plan` from the seed already in `binding` and hands `add` every
/// head it grounds, with its product when `track`ing. A plan that cannot
/// ground its head hands on nothing.
fn emit_into<K: Semiring>(
    plan: &Plan<'_>,
    tables: &[Table<K>],
    deltas: &[Delta<K>],
    binding: &mut [u32],
    seed: &K,
    track: bool,
    add: &mut impl FnMut(&[u32], &K),
) {
    let Some(emit) = &plan.emit else {
        return;
    };
    let mut head = Vec::with_capacity(emit.len());
    let steps = &plan.steps;
    join(
        steps,
        tables,
        deltas,
        binding,
        seed,
        track,
        &mut |b, product| {
            head.clear();
            head.extend(emit.iter().map(|term| term.id(b)));
            add(&head, product);
        },
    );
}

/// A fresh binding array for one of `form`'s plans.
fn unbound(binding: &mut Vec<u32>, form: &Form<'_>) {
    binding.clear();
    binding.resize(form.nvars, NIL);
}

/// One unit of per-round delta work: `forms[.0].delta[.1]` seeded with the
/// row at position `.2` of its table's delta.
type DeltaItem = (usize, usize, u32);

/// The round's delta work, form-major.
fn delta_items<K>(forms: &[Form<'_>], deltas: &[Delta<K>]) -> Vec<DeltaItem> {
    let mut items = Vec::new();
    for (fi, form) in forms.iter().enumerate() {
        for (di, d) in form.delta.iter().enumerate() {
            let moved = deltas[d.table].rows.len() as u32;
            items.extend((0..moved).map(|at| (fi, di, at)));
        }
    }
    items
}

/// How a round's join treats annotations.
#[derive(Clone, Copy)]
pub(crate) enum Mode<'a> {
    /// Collect the heads a delta row reaches, whatever the annotations on
    /// the way (maintenance's affected closure).
    Blind,
    /// Sum each head's increments, per table into a grid of the given side
    /// or, for `None`, into a hash accumulator.
    Exact(&'a [Option<usize>]),
}

/// The side of the dense grid a head table's sums take this round: the
/// interner's size, when its `size^arity` cells are no more than the
/// contributions the table received last round (`None` — the hash
/// accumulator — otherwise, or when the cell count overflows).
fn grid_side(side: usize, arity: usize, added: usize) -> Option<usize> {
    let cells = u32::try_from(arity)
        .ok()
        .and_then(|a| side.checked_pow(a))?;
    (cells <= added).then_some(side)
}

/// Where one worker sums a head table's contributions in a round: keyed by
/// head ids in a hash accumulator, or in a dense grid with a cell per id
/// tuple (row-major over ids below `side`) and the touched cells in
/// first-touch order.
enum Acc<K> {
    Hash(Table<K>),
    Grid {
        side: usize,
        cells: Vec<Option<K>>,
        order: Vec<usize>,
    },
}

impl<K: Semiring> Acc<K> {
    fn new(arity: usize, side: Option<usize>) -> Self {
        match side {
            None => Acc::Hash(Table::new(arity, &[])),
            Some(side) => {
                let mut cells = Vec::new();
                cells.resize_with(side.pow(arity as u32), || None);
                let order = Vec::new();
                Acc::Grid { side, cells, order }
            }
        }
    }

    fn add(&mut self, ids: &[u32], k: &K) {
        match self {
            Acc::Hash(table) => {
                table.add(ids, k);
            }
            Acc::Grid { side, cells, order } => {
                let cell = ids.iter().fold(0, |cell, &id| cell * *side + id as usize);
                match &mut cells[cell] {
                    Some(sum) => sum.plus_assign(k),
                    empty => {
                        *empty = Some(k.clone());
                        order.push(cell);
                    }
                }
            }
        }
    }

    /// The sums as a row accumulator, rows in first-touch order — the order
    /// [`Table::add`] creates them in — and a cell whose sum cancelled to
    /// zero still a row.
    fn into_rows(self, arity: usize) -> Table<K> {
        let (side, mut cells, order) = match self {
            Acc::Hash(table) => return table,
            Acc::Grid { side, cells, order } => (side, cells, order),
        };
        let mut rows = Table::new(arity, &[]);
        let mut ids = vec![0; arity];
        for cell in order {
            let mut rest = cell;
            for id in ids.iter_mut().rev() {
                *id = (rest % side) as u32;
                rest /= side;
            }
            rows.push(&ids);
            rows.anns.push(cells[cell].take().expect("a touched cell"));
        }
        rows
    }
}

/// One table's share of a round: the heads the delta reached, with their
/// summed increments (bare, when blind), and how many contributions were
/// summed.
pub(crate) struct Sums<K> {
    heads: Table<K>,
    added: usize,
}

/// Joins a chunk of delta work into fresh accumulators. Exact: each seed
/// row contributes its increment (a zero one nothing) and each head's
/// increments are summed; blind: the heads are only collected.
fn join_chunk<K: Semiring>(
    compiled: &Compiled<'_>,
    tables: &[Table<K>],
    deltas: &[Delta<K>],
    items: &[DeltaItem],
    mode: Mode<'_>,
) -> Vec<Sums<K>> {
    let specs = compiled.specs.iter();
    let mut acc: Vec<Acc<K>> = match mode {
        Mode::Blind => specs.map(|spec| Acc::new(spec.arity, None)).collect(),
        Mode::Exact(grids) => specs
            .zip(grids)
            .map(|(s, &g)| Acc::new(s.arity, g))
            .collect(),
    };
    let mut added = vec![0; acc.len()];
    let mut binding = Vec::new();
    let one = K::one();
    for &(fi, di, at) in items {
        let form = &compiled.forms[fi];
        let d = &form.delta[di];
        let (delta, at) = (&deltas[d.table], at as usize);
        unbound(&mut binding, form);
        if !matches(&d.seed, &tables[d.table], delta.rows[at], &mut binding) {
            continue;
        }
        let (plan, binding, t) = (&d.plan, &mut binding, form.head_table);
        // A blind round collects heads in hash accumulators. Only an exact seed
        // is tested for zero: in Why(X), where `1 = 0 = ∅`, the blind walk's
        // `1` would look like one.
        match (mode, &mut acc[t]) {
            (Mode::Blind, Acc::Hash(heads)) => {
                emit_into(plan, tables, deltas, binding, &one, false, &mut |h, _| {
                    heads.upsert(h);
                });
            }
            (Mode::Exact(_), out) if !delta.inc[at].is_zero() => {
                let (inc, added) = (&delta.inc[at], &mut added[t]);
                emit_into(plan, tables, deltas, binding, inc, true, &mut |h, k| {
                    *added += 1;
                    out.add(h, k);
                });
            }
            _ => {}
        }
    }
    let specs = compiled.specs.iter();
    acc.into_iter()
        .zip(specs.zip(added))
        .map(|(acc, (spec, added))| Sums {
            heads: acc.into_rows(spec.arity),
            added,
        })
        .collect()
}

/// From-scratch totals of the heads `items` names as `(table, row)` of
/// `heads`: per head, the forms of its table in program order, each seeded
/// with the head and joined over the whole body. A form whose body cannot
/// ground its head never fires, as in `Tᵐ(0)`.
fn recompute<K: Semiring>(
    compiled: &Compiled<'_>,
    tables: &[Table<K>],
    heads: &[Table<K>],
    items: &[(usize, u32)],
) -> Vec<K> {
    let mut binding = Vec::new();
    let one = K::one();
    items
        .iter()
        .map(|&(t, row)| {
            let mut total = K::zero();
            for &fi in &compiled.specs[t].heads {
                let form = &compiled.forms[fi];
                unbound(&mut binding, form);
                if form.full.emit.is_none() || !matches(&form.head, &heads[t], row, &mut binding) {
                    continue;
                }
                let steps = &form.recompute.steps;
                join(
                    steps,
                    tables,
                    &[],
                    &mut binding,
                    &one,
                    true,
                    &mut |_, product| total.plus_assign(product),
                );
            }
            total
        })
        .collect()
}

/// Where the chunks of a round's work run. The round logic needs only
/// `K: Semiring`; handing the tables to scoped workers is what needs
/// `Send + Sync`, so that bound lives on the [`Workers`] impl alone.
pub(crate) trait FanOut<K: Semiring> {
    /// [`join_chunk`] over contiguous chunks of `items`: one accumulator
    /// set per chunk, in chunk order.
    fn join(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        deltas: &[Delta<K>],
        items: Vec<DeltaItem>,
        mode: Mode<'_>,
    ) -> Vec<Vec<Sums<K>>>;

    /// [`recompute`] over contiguous chunks of `items`: the totals in item
    /// order.
    fn recompute(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        heads: &[Table<K>],
        items: Vec<(usize, u32)>,
    ) -> Vec<K>;
}

/// Everything on the calling thread: any semiring, `!Send` annotations
/// (circuit handles) included.
pub(crate) struct Caller;

/// Up to this many scoped workers, one per contiguous chunk; a single chunk
/// (which [`par::par_map_chunks`] runs inline) when the work is too small to
/// repay spawning.
pub(crate) struct Workers(pub(crate) usize);

impl Workers {
    fn chunks<T>(&self, items: Vec<T>) -> Vec<Vec<T>> {
        let parts = if items.len() < par::SPAWN_THRESHOLD {
            1
        } else {
            self.0
        };
        par::chunked(items, parts)
    }
}

impl<K: Semiring> FanOut<K> for Caller {
    fn join(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        deltas: &[Delta<K>],
        items: Vec<DeltaItem>,
        mode: Mode<'_>,
    ) -> Vec<Vec<Sums<K>>> {
        vec![join_chunk(compiled, tables, deltas, &items, mode)]
    }

    fn recompute(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        heads: &[Table<K>],
        items: Vec<(usize, u32)>,
    ) -> Vec<K> {
        recompute(compiled, tables, heads, &items)
    }
}

impl<K: Semiring + Send + Sync> FanOut<K> for Workers {
    fn join(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        deltas: &[Delta<K>],
        items: Vec<DeltaItem>,
        mode: Mode<'_>,
    ) -> Vec<Vec<Sums<K>>> {
        par::par_map_chunks(self.chunks(items), |_, chunk| {
            join_chunk(compiled, tables, deltas, &chunk, mode)
        })
    }

    fn recompute(
        &self,
        compiled: &Compiled<'_>,
        tables: &[Table<K>],
        heads: &[Table<K>],
        items: Vec<(usize, u32)>,
    ) -> Vec<K> {
        par::par_map_chunks(self.chunks(items), |_, chunk| {
            recompute(compiled, tables, heads, &chunk)
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Sums the workers' accumulators (or unions their head sets) in chunk
/// order.
fn combine<K: Semiring>(parts: Vec<Vec<Sums<K>>>, track: bool) -> Option<Vec<Sums<K>>> {
    let mut parts = parts.into_iter();
    let mut into = parts.next()?;
    let mut ids = Vec::new();
    for part in parts {
        for (dst, src) in into.iter_mut().zip(part) {
            dst.added += src.added;
            let (dst, src) = (&mut dst.heads, &src.heads);
            for row in 0..src.len {
                ids.clear();
                ids.extend(src.row(row));
                if track {
                    dst.add(&ids, &src.anns[row]);
                } else {
                    dst.upsert(&ids);
                }
            }
        }
    }
    Some(into)
}

/// The loop's round-to-round state: the relations, the rows of each that
/// moved in the last round, and how many contributions each table's
/// accumulator took then.
struct State<'p, K> {
    compiled: Compiled<'p>,
    tables: Vec<Table<K>>,
    deltas: Vec<Delta<K>>,
    added: Vec<usize>,
}

/// What a [`crate::maintain::FixpointView`] keeps of the compiled fixpoint
/// between deltas: the interner and every table, edb and idb, with its key
/// indexes. The forms borrow the program, so each delta compiles them again
/// (O(rules)); the tables are never reloaded.
pub(crate) struct IdTables<K> {
    interner: Interner,
    tables: Vec<Table<K>>,
}

impl<'p, K: Semiring> State<'p, K> {
    fn with(compiled: Compiled<'p>, tables: Vec<Table<K>>) -> Self {
        State {
            deltas: tables.iter().map(|_| Delta::default()).collect(),
            added: vec![0; tables.len()],
            compiled,
            tables,
        }
    }

    /// The edb loaded into fresh tables, and then — unless the round bound
    /// is 0 — round 1: apply `T` once to the empty idb (only rules without
    /// idb body atoms, so without a `Δ` form, can contribute, through their
    /// full plans) and seed the delta with what they produced. For a
    /// syntactically non-recursive program (no rule consumes an idb fact,
    /// so `T` is constant) the delta is cleared at once: round 1 already
    /// reached the fixpoint, the same early exit the naive loop takes,
    /// which keeps `converged` aligned.
    fn initial(program: &'p Program, edb: &FactStore<K>, max_rounds: usize) -> Self {
        let mut compiled = Compiled::new(program);
        let specs = compiled.specs.iter();
        let mut tables: Vec<_> = specs.map(|s| Table::new(s.arity, &s.masks)).collect();
        compiled.load(&mut tables, edb);
        let mut state = State::with(compiled, tables);
        if max_rounds == 0 {
            return state;
        }
        let mut sums = state.compiled.sums();
        let mut binding = Vec::new();
        for form in state.compiled.forms.iter().filter(|f| f.delta.is_empty()) {
            unbound(&mut binding, form);
            let out = &mut sums[form.head_table];
            let (tables, one) = (&state.tables, &K::one());
            emit_into(
                &form.full,
                tables,
                &[],
                &mut binding,
                one,
                true,
                &mut |h, k| {
                    out.added += 1;
                    out.heads.add(h, k);
                },
            );
        }
        state.apply(sums);
        if state.compiled.forms.iter().all(|f| f.delta.is_empty()) {
            state.deltas.iter_mut().for_each(Delta::clear);
        }
        state
    }

    /// A view's tables under the forms maintenance runs.
    fn resume(program: &'p Program, held: &mut IdTables<K>) -> Self {
        let compiled = Compiled::compile(program, std::mem::take(&mut held.interner), true);
        let mut tables = std::mem::take(&mut held.tables);
        for (table, spec) in tables.iter_mut().zip(&compiled.specs) {
            table.index(&spec.masks);
        }
        State::with(compiled, tables)
    }

    /// Hands the interner and the tables back to the view.
    fn suspend(self, held: &mut IdTables<K>) {
        held.interner = self.compiled.interner;
        held.tables = self.tables;
    }

    fn delta_is_empty(&self) -> bool {
        self.deltas.iter().all(|delta| delta.rows.is_empty())
    }

    /// The round's delta forms joined over contiguous chunks of the work
    /// items, one accumulator set per chunk, combined in chunk order.
    fn join_deltas(&self, fan: &impl FanOut<K>, mode: Mode<'_>) -> Vec<Sums<K>> {
        let items = delta_items(&self.compiled.forms, &self.deltas);
        let parts = fan.join(&self.compiled, &self.tables, &self.deltas, items, mode);
        let track = matches!(mode, Mode::Exact(_));
        combine(parts, track).unwrap_or_else(|| self.compiled.sums())
    }

    /// Ends a round: adds each table's summed increments into its rows and
    /// records how many contributions it took. A row whose annotation moves
    /// joins the next delta with its annotation from before and the
    /// increment; a row that was never written counts as zero, so a zero
    /// increment does not create it.
    fn apply(&mut self, sums: Vec<Sums<K>>) {
        let mut ids = Vec::new();
        let tables = self.tables.iter_mut().zip(&mut self.deltas);
        for (((table, delta), sums), added) in tables.zip(sums).zip(&mut self.added) {
            delta.clear();
            *added = sums.added;
            let Table { cols, anns, .. } = sums.heads;
            for (r, inc) in anns.into_iter().enumerate() {
                ids.clear();
                ids.extend(cols.iter().map(|col| col[r]));
                match table.find(&ids) {
                    Some(row) => {
                        let now = &mut table.anns[row as usize];
                        let new = now.plus(&inc);
                        if *now != new {
                            delta.push(row, std::mem::replace(now, new), inc);
                        }
                    }
                    None if !inc.is_zero() => {
                        let row = table.push(&ids);
                        table.anns.push(inc.clone());
                        delta.push(row, K::zero(), inc);
                    }
                    None => {}
                }
            }
        }
    }

    /// Rounds 2, 3, … until the delta is empty or the round bound is
    /// reached; returns the number of rounds, round 1 (which
    /// [`State::initial`] ran unless the bound is 0) included. Each round
    /// sums the increments of the `Δ` forms seeded at the rows that moved,
    /// per head table through its grid when the last round's contributions
    /// cover the grid's cells.
    fn rounds(&mut self, max_rounds: usize, fan: &impl FanOut<K>) -> usize {
        let mut iterations = max_rounds.min(1);
        while iterations < max_rounds && !self.delta_is_empty() {
            iterations += 1;
            let side = self.compiled.interner.values.len();
            let specs = self.compiled.specs.iter();
            let grids: Vec<Option<usize>> = (specs.zip(&self.added))
                .map(|(spec, &added)| grid_side(side, spec.arity, added))
                .collect();
            let sums = self.join_deltas(fan, Mode::Exact(&grids));
            self.apply(sums);
        }
        iterations
    }

    /// The one place values come back: each idb table's non-zero rows,
    /// sorted by the rank of their ids, bulk-loaded into the result store.
    /// `take` hands each annotation over — moved out when the tables are
    /// dropped next, cloned when a view keeps them. A fixpoint was reached
    /// iff the last of the `iterations` rounds (at least one) changed
    /// nothing.
    fn result(
        &mut self,
        iterations: usize,
        mut take: impl FnMut(&mut K) -> K,
    ) -> FixpointResult<K> {
        let values = &self.compiled.interner.values;
        let rank = &self.compiled.interner.ranks();
        let mut idb = FactStore::new();
        for (spec, table) in self.compiled.specs.iter().zip(&mut self.tables) {
            if !spec.idb {
                continue;
            }
            let Table { cols, anns, .. } = table;
            let key = |row: usize| cols.iter().map(move |col| rank[col[row] as usize]);
            let mut rows: Vec<usize> = (0..anns.len()).filter(|&r| !anns[r].is_zero()).collect();
            rows.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            idb.load(
                spec.predicate,
                rows.into_iter().map(|r| {
                    let fact = cols.iter().map(|col| values[col[r] as usize].clone());
                    (fact.collect(), take(&mut anns[r]))
                }),
            );
        }
        FixpointResult {
            idb,
            iterations,
            converged: iterations > 0 && self.delta_is_empty(),
        }
    }

    /// Phase 1 of maintenance: adds the delta into the edb tables and makes
    /// the rows it touched the delta. Rows of a `(predicate, arity)` no body
    /// atom reads can match nothing; only the view's edb store keeps them.
    fn absorb(&mut self, delta: &FactStore<K>) {
        let mut ids = Vec::new();
        for (t, spec) in self.compiled.specs.iter().enumerate() {
            if spec.idb {
                continue;
            }
            for (values, k) in delta.rows_of(spec.predicate) {
                if values.len() == spec.arity {
                    ids.clear();
                    ids.extend(values.iter().map(|v| self.compiled.interner.intern(v)));
                    self.deltas[t].rows.push(self.tables[t].add(&ids, k));
                }
            }
        }
    }

    /// Phase 2: the affected closure — the heads one `Δ` form away from the
    /// delta, then from those, until no new head appears. The walk is
    /// annotation-blind, so zero rows (deleted, cancelled, never derived)
    /// still lead on; a head its table lacks is appended at zero, so later
    /// rounds join through it. Returns the heads per table (each a set, in
    /// discovery order) and, in the same order, their rows.
    fn affected_closure(&mut self, fan: &impl FanOut<K>) -> (Vec<Table<K>>, Vec<(usize, u32)>) {
        let mut heads = self.compiled.accumulators();
        let mut rows = Vec::new();
        let mut ids = Vec::new();
        while !self.delta_is_empty() {
            for (t, found) in self.join_deltas(fan, Mode::Blind).iter().enumerate() {
                let (table, delta, heads) =
                    (&mut self.tables[t], &mut self.deltas[t], &mut heads[t]);
                delta.clear();
                for r in 0..found.heads.len {
                    ids.clear();
                    ids.extend(found.heads.row(r));
                    if heads.find(&ids).is_some() {
                        continue;
                    }
                    heads.push(&ids);
                    let row = table.find(&ids).unwrap_or_else(|| {
                        table.anns.push(K::zero());
                        table.push(&ids)
                    });
                    delta.rows.push(row);
                    rows.push((t, row));
                }
            }
        }
        (heads, rows)
    }

    /// Phase 3: the (zeroed, non-empty) affected `heads` recomputed from
    /// scratch (round 1), then the loop's exact rounds, which add the
    /// increments of the rows that moved — only into affected heads, as the
    /// closure is closed under the `Δ` forms. Every affected row was zero
    /// before round 1, so its total is its increment, and round for round
    /// this is the Kleene iteration of the affected rows. Returns whether a
    /// round within `max_rounds` moved no row.
    fn rederive(
        &mut self,
        mut heads: Vec<Table<K>>,
        max_rounds: usize,
        fan: &impl FanOut<K>,
    ) -> bool {
        if max_rounds == 0 {
            return false;
        }
        let items: Vec<(usize, u32)> = heads
            .iter()
            .enumerate()
            .flat_map(|(t, heads)| (0..heads.len as u32).map(move |row| (t, row)))
            .collect();
        let mut totals = fan
            .recompute(&self.compiled, &self.tables, &heads, items)
            .into_iter();
        for heads in &mut heads {
            heads.anns = totals.by_ref().take(heads.len).collect();
        }
        let sums = heads.into_iter().map(|heads| Sums { heads, added: 0 });
        self.apply(sums.collect());
        self.rounds(max_rounds, fan);
        self.delta_is_empty()
    }
}

/// The semi-naive loop — the body of every entry point of
/// [`crate::seminaive`]: round 1 runs the edb-only rules' full plans, and
/// every later round is one exact differential round (see the module docs).
/// Sound for every semiring, and `FixpointResult`-identical under every
/// [`FanOut`].
pub(crate) fn iterate<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    fan: &impl FanOut<K>,
) -> FixpointResult<K> {
    let mut state = State::initial(program, edb, max_rounds);
    let iterations = state.rounds(max_rounds, fan);
    state.result(iterations, |k| std::mem::replace(k, K::zero()))
}

/// The body of [`crate::maintain::materialize_fixpoint`]: [`iterate`] on the
/// calling thread that keeps the tables it built, with the key indexes
/// maintenance probes already added, instead of moving the annotations out.
pub(crate) fn materialize<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
) -> (FixpointResult<K>, IdTables<K>) {
    let mut state = State::initial(program, edb, max_rounds);
    let iterations = state.rounds(max_rounds, &Caller);
    let result = state.result(iterations, |k| k.clone());
    // The fixpoint's size is what a table must double before it compacts.
    for table in &mut state.tables {
        table.compacted = table.len;
    }
    let mut held = IdTables {
        interner: state.compiled.interner,
        tables: state.tables,
    };
    State::resume(program, &mut held).suspend(&mut held);
    (result, held)
}

/// The ground rules behind [`crate::grounding::Grounding`]: the loop over 𝔹
/// (every edb fact `true`) on the calling thread until its delta is empty —
/// no round bound — and then every complete binding of every rule's `full`
/// plan over the tables it built, walked annotation-blind, as one ground
/// rule each, unsorted. By Proposition 5.4 those tables hold the support of
/// the answer for every semiring, and every derivable idb fact is the head
/// of some ground rule.
pub(crate) fn ground<K: Semiring>(program: &Program, edb: &FactStore<K>) -> Vec<GroundRule> {
    let support = edb.map_annotations(|_| Bool::from(true));
    let mut state = State::initial(program, &support, usize::MAX);
    state.rounds(usize::MAX, &Caller);
    let (compiled, tables) = (&state.compiled, &state.tables);
    let values = &compiled.interner.values;
    let fact = |atom: &Atom, terms: &[Match], binding: &[u32]| Fact {
        predicate: atom.predicate.clone(),
        values: terms
            .iter()
            .map(|term| values[term.ground(binding) as usize].clone())
            .collect(),
    };
    let mut rules = Vec::new();
    let mut binding = Vec::new();
    for (rule_index, form) in compiled.forms.iter().enumerate() {
        let Some(emit) = &form.full.emit else {
            continue;
        };
        unbound(&mut binding, form);
        let (steps, one) = (&form.full.steps, &Bool::one());
        join(steps, tables, &[], &mut binding, one, false, &mut |b, _| {
            rules.push(GroundRule {
                rule_index,
                head: fact(&form.rule.head, emit, b),
                body: steps.iter().map(|s| fact(s.atom, &s.terms, b)).collect(),
            });
        });
    }
    rules
}

/// The body of [`crate::maintain::maintain_fixpoint`] and its `_with` twin,
/// on the tables a view holds: the delta is added into the edb tables, the
/// affected closure is chased from the rows it touched, and the affected
/// idb rows are zeroed and recomputed until none moves. Unaffected rows
/// keep their annotations, which are still right: no derivation of theirs
/// reads a changed row, or the closure would have reached them. Returns the
/// idb facts whose annotation moved, with the new annotation, and whether
/// the recomputation stopped within `max_rounds`.
pub(crate) fn maintain<K: Semiring>(
    program: &Program,
    held: &mut IdTables<K>,
    delta: &FactStore<K>,
    max_rounds: usize,
    fan: &impl FanOut<K>,
) -> (Vec<(Fact, K)>, bool) {
    let mut state = State::resume(program, held);
    state.absorb(delta);
    let (heads, affected) = state.affected_closure(fan);
    let before: Vec<K> = affected
        .iter()
        .map(|&(t, row)| std::mem::replace(&mut state.tables[t].anns[row as usize], K::zero()))
        .collect();
    let converged = affected.is_empty() || state.rederive(heads, max_rounds, fan);
    let values = &state.compiled.interner.values;
    let changed = affected
        .iter()
        .zip(before)
        .filter_map(|(&(t, row), before)| {
            let (table, row) = (&state.tables[t], row as usize);
            (table.anns[row] != before).then(|| {
                let fact = table.row(row).map(|id| values[id as usize].clone());
                let predicate = state.compiled.specs[t].predicate;
                (Fact::new(predicate, fact), table.anns[row].clone())
            })
        })
        .collect();
    state.tables.iter_mut().for_each(Table::compact);
    state.suspend(held);
    (changed, converged)
}

/// Renders a compiled plan's probe order: each atom in join order with the
/// bound-column mask its probe uses (`scan` when nothing is bound).
fn render_plan(steps: &[Step<'_>], specs: &[TableSpec<'_>]) -> String {
    if steps.is_empty() {
        return "∅ (ground body)".to_string();
    }
    steps
        .iter()
        .map(|step| match step.key {
            None => format!("scan {}", step.atom),
            Some(k) => {
                let mask = &specs[step.table].masks[k];
                format!("probe {}{}", step.atom, render_mask(mask))
            }
        })
        .collect::<Vec<_>>()
        .join(" → ")
}

fn render_mask(mask: &[usize]) -> String {
    let cols: Vec<String> = mask.iter().map(usize::to_string).collect();
    format!("[{}]", cols.join(","))
}

/// Describes how the semi-naive fixpoint will evaluate `program` over
/// `edb`, mirroring the RA planner's
/// [`Plan::explain_physical_with`](provsem_core::plan::Plan::explain_physical_with):
///
/// * per rule, the join orders executed: the left-to-right `full` plan
///   (round 1 / edb-only rules), the head-seeded `recompute` plan (the
///   first round of maintenance's rederivation), and one `Δ` form per idb
///   body atom (the differential probe order when the delta sits at that
///   atom, in every later round), each
///   atom annotated with its bound-column probe mask;
/// * per `predicate/arity` table some rule body reads, in name order: the
///   EDB rows it will hold (`derived` for an idb table, filled by the
///   fixpoint) and the probe masks a key index is kept for.
///
/// Purely introspective: nothing is evaluated or indexed, and the rendering
/// is deterministic for a given `(program, edb)`; the thread budget of `ctx`
/// changes how a round's work is chunked, not the plans shown.
pub fn explain_fixpoint<K: Semiring>(
    program: &Program,
    edb: &FactStore<K>,
    _ctx: &ExecContext,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let compiled = Compiled::new(program);
    for (i, form) in compiled.forms.iter().enumerate() {
        writeln!(out, "rule {i}: {}", form.rule).unwrap();
        let render = |plan: &Plan<'_>| render_plan(&plan.steps, &compiled.specs);
        writeln!(out, "  full: {}", render(&form.full)).unwrap();
        writeln!(out, "  recompute: {}", render(&form.recompute)).unwrap();
        for d in &form.delta {
            writeln!(out, "  Δ {}: {}", d.atom, render(&d.plan)).unwrap();
        }
    }
    out.push_str("tables:\n");
    let mut read: Vec<&TableSpec<'_>> = compiled.specs.iter().filter(|s| s.read).collect();
    read.sort_by_key(|s| (s.predicate, s.arity));
    for spec in read {
        let rows = if spec.idb {
            "derived".to_string()
        } else {
            let rows = edb.rows_of(spec.predicate);
            format!(
                "{} rows",
                rows.filter(|(v, _)| v.len() == spec.arity).count()
            )
        };
        let probes = match spec.masks.as_slice() {
            [] => "scans only".to_string(),
            masks => {
                let masks: Vec<String> = masks.iter().map(|m| render_mask(m)).collect();
                format!("probes {}", masks.join(" "))
            }
        };
        writeln!(out, "  {}/{}: {rows}, {probes}", spec.predicate, spec.arity).unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use provsem_semiring::Natural;

    /// The rows chained from `first` on.
    fn chain(key: &KeyIndex, first: u32) -> impl Iterator<Item = u32> + '_ {
        let next = move |&row: &u32| Some(key.next[row as usize]).filter(|&r| r != NIL);
        std::iter::successors(Some(first).filter(|&r| r != NIL), next)
    }

    /// The rows on the chain of `ids`' key under key index `k` that really
    /// hold that key (a chain also carries the slot's other keys).
    fn probe(table: &Table<Natural>, k: usize, ids: &[u32]) -> Vec<u32> {
        let key = &table.keys[k];
        let hash = hash_ids(key.mask.iter().map(|&c| ids[c]));
        chain(key, key.chain(hash))
            .filter(|&row| {
                key.mask
                    .iter()
                    .all(|&c| table.cols[c][row as usize] == ids[c])
            })
            .collect()
    }

    /// How many rows the fullest slot of key index `k` chains.
    fn longest_chain(table: &Table<Natural>, k: usize) -> usize {
        let key = &table.keys[k];
        let rows = key.first.iter().map(|&first| chain(key, first).count());
        rows.max().unwrap_or(0)
    }

    /// How far the worst-placed row sits from the slot its hash names.
    fn longest_displacement(table: &Table<Natural>) -> usize {
        let slots = &table.identity.slots;
        (0..slots.len())
            .filter(|&at| slots[at] != NIL)
            .map(|at| {
                let home = hash_ids(table.row(slots[at] as usize)) as usize & (slots.len() - 1);
                (at + slots.len() - home) & (slots.len() - 1)
            })
            .max()
            .unwrap_or(0)
    }

    /// 10⁵ rows that differ in one column only — in its high bits, where a
    /// multiplicative hash leaves the low bits of the product constant, or
    /// in its low bits. After every doubling: each row is found at its own
    /// number, an absent row is not, the chain of the one shared key returns
    /// every row exactly once, each distinct key returns its one row, and
    /// neither the slots nor the chains of distinct keys have clumped.
    #[test]
    fn indexes_grow_without_losing_duplicating_or_clumping_rows() {
        const ROWS: u32 = 100_000;
        let layouts: [fn(u32) -> [u32; 2]; 3] = [|i| [i << 14, 7], |i| [7, i << 14], |i| [i, 7]];
        for layout in layouts {
            let shared = if layout(1)[0] == layout(2)[0] { 0 } else { 1 };
            let masks = [vec![shared], vec![1 - shared], vec![0, 1]];
            let mut table: Table<Natural> = Table::new(2, &masks);
            for i in 0..ROWS {
                assert_eq!(table.find(&layout(i)), None);
                assert_eq!(table.push(&layout(i)), i);
                let len = i + 1;
                if !len.is_power_of_two() && len != ROWS {
                    continue;
                }
                // Slots and key indexes double at (or just past) powers of
                // two: `len` rows now sit in freshly rebuilt structures.
                for row in 0..len {
                    assert_eq!(table.find(&layout(row)), Some(row), "len={len}");
                    assert_eq!(probe(&table, 1, &layout(row)), [row], "len={len}");
                    assert_eq!(probe(&table, 2, &layout(row)), [row], "len={len}");
                }
                assert_eq!(table.find(&layout(len)), None);
                assert_eq!(probe(&table, 1, &layout(len)), [0u32; 0]);
                let mut all = probe(&table, 0, &layout(0));
                all.sort_unstable();
                assert!(all.into_iter().eq(0..len), "len={len}");
                // A uniform hash chains ≤ 8 rows of distinct keys per slot
                // here and displaces no row by more than 39 slots.
                assert!(longest_chain(&table, 1) <= 12, "len={len}");
                assert!(longest_displacement(&table) <= 64, "len={len}");
            }
            assert_eq!(table.upsert(&layout(5)), 5);
            assert_eq!(table.len, ROWS as usize);
        }
    }

    /// The rows and annotations of a round's accumulator, in row order.
    fn rows_of<K: Semiring>(sums: &Sums<K>) -> Vec<(Vec<u32>, K)> {
        let heads = &sums.heads;
        let row = |r: usize| (heads.row(r).collect(), heads.anns[r].clone());
        (0..heads.len).map(row).collect()
    }

    /// One chunk of delta work summed through the dense grid and through the
    /// hash accumulator gives the same rows in the same order with the same
    /// annotations. Over ℤ, `T(a, d)` is reached through `b` (+1) and `c`
    /// (−1): its sum cancels to zero, and the row still exists on both
    /// paths, as `Table::add` leaves it.
    #[test]
    fn grid_and_hash_accumulators_give_the_same_rows() {
        use provsem_semiring::Integers;
        let program = Program::linear_transitive_closure("E", "T");
        let edges = [("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", -1)];
        let edges: Vec<_> = (edges.iter())
            .map(|&(s, t, w)| (s, t, Integers::new(w)))
            .collect();
        let edb = crate::fact::edge_facts("E", &edges);
        let state = State::initial(&program, &edb, 8);
        let items = delta_items(&state.compiled.forms, &state.deltas);
        let side = state.compiled.interner.values.len();
        let tables = state.compiled.specs.len();
        let mut by_path = [vec![Some(side); tables], vec![None; tables]].map(|grids| {
            let (compiled, deltas) = (&state.compiled, &state.deltas);
            join_chunk(compiled, &state.tables, deltas, &items, Mode::Exact(&grids))
        });
        let [grid, hash] = &mut by_path;
        for (grid, hash) in grid.iter().zip(hash.iter()) {
            assert_eq!(grid.added, hash.added);
            assert_eq!(rows_of(grid), rows_of(hash));
        }
        let t = (state.compiled.specs.iter())
            .position(|spec| spec.predicate == "T")
            .unwrap();
        let interner = &state.compiled.interner;
        let id = |v: &str| interner.values.iter().position(|x| *x == Value::from(v));
        let ad = [id("a").unwrap() as u32, id("d").unwrap() as u32];
        assert_eq!(grid[t].added, 2);
        assert!(rows_of(&grid[t]).contains(&(ad.to_vec(), Integers::new(0))));
    }

    /// The grid is taken when its cells are no more than last round's
    /// contributions, and never when `size^arity` overflows.
    #[test]
    fn the_grid_is_taken_only_when_last_round_covers_its_cells() {
        assert_eq!(grid_side(3, 2, 9), Some(3));
        assert_eq!(grid_side(3, 2, 8), None);
        assert_eq!(grid_side(7, 0, 1), Some(7));
        assert_eq!(grid_side(7, 0, 0), None);
        assert_eq!(grid_side(1 << 20, 4, usize::MAX), None);
        assert_eq!(grid_side(usize::MAX, 2, usize::MAX), None);
    }

    /// Interned ids are dense, stable across the slots' doublings, and rank
    /// like their values (integers before strings, each in its own order).
    #[test]
    fn interner_ids_are_dense_stable_and_rank_like_values() {
        let mut interner = Interner::default();
        let value = |i: u32| match i % 3 {
            0 => Value::Int(i64::from(i) - 500),
            _ => Value::str(format!("R_{i}")),
        };
        for i in 0..5_000 {
            assert_eq!(interner.intern(&value(i)), i);
            assert_eq!(interner.intern(&value(i / 2)), i / 2);
        }
        let rank = interner.ranks();
        let mut by_rank: Vec<u32> = (0..5_000).collect();
        by_rank.sort_unstable_by_key(|&id| rank[id as usize]);
        assert!(by_rank.windows(2).all(|w| value(w[0]) < value(w[1])));
    }
}
