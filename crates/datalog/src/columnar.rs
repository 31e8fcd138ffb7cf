//! The compiled semi-naive evaluator: the datalog fixpoint over interned
//! ids. Every semi-naive entry point of [`crate::seminaive`] runs here, and
//! so does every phase of [`crate::maintain`], on the tables the fixpoint
//! built and the view keeps; the reference the differential suites compare
//! both against is [`crate::naive::kleene_iterate`].
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
//!   keyed by head ids (a table without key indexes); workers' accumulators
//!   are combined in chunk order, and the rows that changed become the next
//!   round's delta as row numbers.
//!
//! The [`FactStore`] the API returns is built **once**, after the last
//! round, by sorting each table's rows on the rank of their ids and bulk
//! loading the result: between rounds nothing but ids and annotations
//! moves.
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
//! The general loop computes exactly `Tᵐ(0)` after `m` rounds: the same
//! forms run in the same rounds at every thread count, a zero-annotation
//! factor prunes a derivation, head discovery is annotation-blind (a row
//! whose ℤ annotation cancelled to zero still leads to its heads), and a
//! head joins the delta exactly when its annotation moved. Per-head sums
//! may accumulate products in a different order than the naive loop does,
//! which is invisible because semiring `+` and `×` are exactly associative
//! and commutative for every semiring in this workspace (the law suite pins
//! that down). The differential tests assert idb and `converged` equality
//! against `kleene_iterate` across semirings, round bounds and thread
//! counts, and full [`FixpointResult`] equality between thread counts.

use crate::ast::{Atom, DlVar, Program, Rule, Term};
use crate::fact::{Fact, FactStore};
use crate::naive::FixpointResult;
use provsem_core::par;
use provsem_core::plan::ExecContext;
use provsem_core::Value;
use provsem_semiring::{PlusIdempotent, Semiring};
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
/// relations and the idempotent loop's accumulators keep them, the general
/// loop's head sets fill them in after recomputing.
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
/// is bound, every row is a candidate).
struct Step<'p> {
    atom: &'p Atom,
    table: usize,
    key: Option<usize>,
    terms: Vec<Match>,
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
    /// An empty body under a head with variables: the rule never fires
    /// (the empty binding cannot ground its head).
    dead: bool,
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
                dead: rule.body.is_empty() && !rule.head.is_ground(),
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
    /// it; the mask is registered with the table the atom reads.
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
/// running body product — a zero factor prunes the candidate — otherwise
/// the walk is annotation-blind and hands `product` through untouched.
fn join<K: Semiring>(
    steps: &[Step<'_>],
    tables: &[Table<K>],
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
            let factor = &table.anns[row as usize];
            if !factor.is_zero() {
                join(rest, tables, binding, &product.times(factor), track, leaf);
            }
        } else {
            join(rest, tables, binding, product, track, leaf);
        }
    }
}

/// Joins `plan` from the seed already in `binding` and adds every head it
/// grounds to `out`: with its product when `track`ing, as a bare row
/// otherwise. A plan that cannot ground its head adds nothing.
fn emit_into<K: Semiring>(
    plan: &Plan<'_>,
    tables: &[Table<K>],
    binding: &mut [u32],
    seed: &K,
    track: bool,
    out: &mut Table<K>,
) {
    let Some(emit) = &plan.emit else {
        return;
    };
    let mut head = Vec::with_capacity(emit.len());
    join(
        &plan.steps,
        tables,
        binding,
        seed,
        track,
        &mut |b, product| {
            head.clear();
            head.extend(emit.iter().map(|term| term.id(b)));
            if track {
                out.add(&head, product);
            } else {
                out.upsert(&head);
            }
        },
    );
}

/// A fresh binding array for one of `form`'s plans.
fn unbound(binding: &mut Vec<u32>, form: &Form<'_>) {
    binding.clear();
    binding.resize(form.nvars, NIL);
}

/// One unit of per-round delta work: `forms[.0].delta[.1]` seeded with row
/// `.2` of its table.
pub(crate) type DeltaItem = (usize, usize, u32);

/// The round's delta work, form-major.
fn delta_items(forms: &[Form<'_>], delta: &[Vec<u32>]) -> Vec<DeltaItem> {
    let mut items = Vec::new();
    for (fi, form) in forms.iter().enumerate() {
        for (di, d) in form.delta.iter().enumerate() {
            items.extend(delta[d.table].iter().map(|&row| (fi, di, row)));
        }
    }
    items
}

/// Joins a chunk of delta work into fresh accumulators. With `track`, each
/// head's increments are summed (the seed's annotation first; a zero seed
/// contributes nothing); without, the heads are only collected.
fn join_chunk<K: Semiring>(
    compiled: &Compiled<'_>,
    tables: &[Table<K>],
    items: &[DeltaItem],
    track: bool,
) -> Vec<Table<K>> {
    let mut acc = compiled.accumulators();
    let mut binding = Vec::new();
    let one = K::one();
    for &(fi, di, row) in items {
        let form = &compiled.forms[fi];
        let d = &form.delta[di];
        let table = &tables[d.table];
        unbound(&mut binding, form);
        if !matches(&d.seed, table, row, &mut binding) {
            continue;
        }
        // Only a tracked seed can be a zero factor (and in Why(X), where
        // `1 = 0 = ∅`, the blind walk's `1` would look like one).
        let seed = if track {
            &table.anns[row as usize]
        } else {
            &one
        };
        if !(track && seed.is_zero()) {
            let out = &mut acc[form.head_table];
            emit_into(&d.plan, tables, &mut binding, seed, track, out);
        }
    }
    acc
}

/// From-scratch totals of the heads `items` names as `(table, row)` of
/// `heads`: per head, the forms of its table in program order, each seeded
/// with the head and joined over the whole body.
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
                if form.dead || !matches(&form.head, &heads[t], row, &mut binding) {
                    continue;
                }
                let steps = &form.recompute.steps;
                join(
                    steps,
                    tables,
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
        items: Vec<DeltaItem>,
        track: bool,
    ) -> Vec<Vec<Table<K>>>;

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
        items: Vec<DeltaItem>,
        track: bool,
    ) -> Vec<Vec<Table<K>>> {
        vec![join_chunk(compiled, tables, &items, track)]
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
        items: Vec<DeltaItem>,
        track: bool,
    ) -> Vec<Vec<Table<K>>> {
        par::par_map_chunks(self.chunks(items), |_, chunk| {
            join_chunk(compiled, tables, &chunk, track)
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
fn combine<K: Semiring>(parts: Vec<Vec<Table<K>>>, track: bool) -> Option<Vec<Table<K>>> {
    let mut parts = parts.into_iter();
    let mut into = parts.next()?;
    let mut ids = Vec::new();
    for part in parts {
        for (dst, src) in into.iter_mut().zip(part) {
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

/// The loops' round-to-round state: the relations, and the rows of each
/// that changed in the last round.
struct State<'p, K> {
    compiled: Compiled<'p>,
    tables: Vec<Table<K>>,
    delta: Vec<Vec<u32>>,
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
        let mut state = State {
            delta: vec![Vec::new(); tables.len()],
            compiled,
            tables,
        };
        if max_rounds == 0 {
            return state;
        }
        let mut acc = state.compiled.accumulators();
        let mut binding = Vec::new();
        for form in state.compiled.forms.iter().filter(|f| f.delta.is_empty()) {
            unbound(&mut binding, form);
            let out = &mut acc[form.head_table];
            emit_into(
                &form.full,
                &state.tables,
                &mut binding,
                &K::one(),
                true,
                out,
            );
        }
        state.apply(acc, false);
        if state.compiled.forms.iter().all(|f| f.delta.is_empty()) {
            state.delta.iter_mut().for_each(Vec::clear);
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
        State {
            delta: vec![Vec::new(); tables.len()],
            compiled,
            tables,
        }
    }

    /// Hands the interner and the tables back to the view.
    fn suspend(self, held: &mut IdTables<K>) {
        held.interner = self.compiled.interner;
        held.tables = self.tables;
    }

    fn delta_is_empty(&self) -> bool {
        self.delta.iter().all(Vec::is_empty)
    }

    /// The round's delta forms joined over contiguous chunks of the work
    /// items, one accumulator set per chunk, combined in chunk order.
    fn join_deltas(&self, fan: &impl FanOut<K>, track: bool) -> Vec<Table<K>> {
        let items = delta_items(&self.compiled.forms, &self.delta);
        let parts = fan.join(&self.compiled, &self.tables, items, track);
        combine(parts, track).unwrap_or_else(|| self.compiled.accumulators())
    }

    /// Ends a round. `heads` holds, per table, candidate rows with their
    /// new totals, or with increments to `merge` into the current
    /// annotation; the rows whose annotation moves are written and become
    /// the next delta. A row that was never written counts as zero.
    fn apply(&mut self, heads: Vec<Table<K>>, merge: bool) {
        let mut ids = Vec::new();
        for ((table, delta), heads) in self.tables.iter_mut().zip(&mut self.delta).zip(heads) {
            delta.clear();
            let Table { cols, anns, .. } = heads;
            for (r, value) in anns.into_iter().enumerate() {
                ids.clear();
                ids.extend(cols.iter().map(|col| col[r]));
                match table.find(&ids) {
                    Some(row) => {
                        let current = &mut table.anns[row as usize];
                        let new = if merge { current.plus(&value) } else { value };
                        if *current != new {
                            *current = new;
                            delta.push(row);
                        }
                    }
                    None if !value.is_zero() => {
                        delta.push(table.push(&ids));
                        table.anns.push(value);
                    }
                    None => {}
                }
            }
        }
    }

    /// Rounds 2, 3, … of the general loop, until the delta is empty or the
    /// round bound is reached; returns the number of rounds, round 1
    /// (which [`State::initial`] ran unless the bound is 0) included.
    fn rounds(&mut self, max_rounds: usize, fan: &impl FanOut<K>) -> usize {
        let mut iterations = max_rounds.min(1);
        while iterations < max_rounds && !self.delta_is_empty() {
            iterations += 1;
            // 1. Affected heads: everything one Δ form away from a delta row,
            //    whatever the annotations on the way.
            let heads = self.join_deltas(fan, false);
            self.recompute_heads(heads, fan);
        }
        iterations
    }

    /// The rest of a general round: 2. the totals of `heads` (rows per
    /// table) from scratch, over contiguous chunks of the heads; 3. the
    /// heads whose total moved are written and become the next delta.
    fn recompute_heads(&mut self, mut heads: Vec<Table<K>>, fan: &impl FanOut<K>) {
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
        self.apply(heads, false);
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
                    self.delta[t].push(self.tables[t].add(&ids, k));
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
            for (t, found) in self.join_deltas(fan, false).iter().enumerate() {
                let (table, delta, heads) =
                    (&mut self.tables[t], &mut self.delta[t], &mut heads[t]);
                delta.clear();
                for r in 0..found.len {
                    ids.clear();
                    ids.extend(found.row(r));
                    if heads.find(&ids).is_some() {
                        continue;
                    }
                    heads.push(&ids);
                    let row = table.find(&ids).unwrap_or_else(|| {
                        table.anns.push(K::zero());
                        table.push(&ids)
                    });
                    delta.push(row);
                    rows.push((t, row));
                }
            }
        }
        (heads, rows)
    }

    /// Phase 3: the (zeroed, non-empty) affected `heads` recomputed from
    /// scratch (round 1), then the general loop's rounds, which recompute
    /// the heads one `Δ` form away from a row that moved — all affected, as
    /// the closure is closed under the `Δ` forms. A head none of whose
    /// factors moved would recompute to its current total, so round for
    /// round this is the Kleene iteration of the affected rows. Returns
    /// whether a round within `max_rounds` moved no row.
    fn rederive(&mut self, heads: Vec<Table<K>>, max_rounds: usize, fan: &impl FanOut<K>) -> bool {
        if max_rounds == 0 {
            return false;
        }
        self.recompute_heads(heads, fan);
        self.rounds(max_rounds, fan);
        self.delta_is_empty()
    }
}

/// The general semi-naive loop — the body of
/// [`crate::seminaive::seminaive_iterate`] and its `_with` twin: deltas (the
/// rows whose annotation changed last round) drive discovery of the
/// *affected heads* through the `Δ` forms, and each affected head is then
/// recomputed from scratch through its head-seeded plans. Sound for every
/// semiring, and `FixpointResult`-identical under every [`FanOut`].
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

/// The classical delta rewrite — the body of
/// [`crate::seminaive::seminaive_idempotent`] and its `_with` twin: each
/// round's increments are summed per head as the joins produce them and
/// merged into the relations with `+`; nothing is recomputed from scratch.
/// Exact only for `+`-idempotent semirings, hence the bound.
pub(crate) fn idempotent<K: Semiring + PlusIdempotent>(
    program: &Program,
    edb: &FactStore<K>,
    max_rounds: usize,
    fan: &impl FanOut<K>,
) -> FixpointResult<K> {
    let mut state = State::initial(program, edb, max_rounds);
    let mut iterations = max_rounds.min(1);
    while iterations < max_rounds && !state.delta_is_empty() {
        iterations += 1;
        let increments = state.join_deltas(fan, true);
        state.apply(increments, true);
    }
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
///   (round 1 / edb-only rules), the head-seeded `recompute` plan
///   (general-semiring rederivation), and one `Δ` form per idb body atom
///   (the differential probe order when the delta sits at that atom), each
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
