//! Grounding / instantiation of datalog programs.
//!
//! The *instantiation* of a datalog query — the algebraic system of
//! Definition 5.5, the ground program of Theorem 6.5 and Section 7's
//! algorithms — is the set of ground rules obtained by considering all
//! satisfying valuations of the rule variables over the derivable facts.
//! [`Grounding::new`] builds it once:
//!
//! 1. the set-semantics (𝔹) evaluation of the program, i.e. `supp(q(R))`
//!    (Proposition 5.4 guarantees this is the right support for any K),
//!    run by the compiled fixpoint of [`crate::columnar`] until nothing new
//!    is derived;
//! 2. every ground rule whose body facts are all derivable: each complete
//!    binding of a rule's compiled left-to-right plan over the tables that
//!    fixpoint built. An edb fact of an idb predicate is never read, as in
//!    `Tᵐ(0)`, so it is neither derivable nor a body fact;
//! 3. one numbering: the derivable facts sorted (a fact's id is its
//!    position), each ground rule's body as fact ids, and the rules listed
//!    by head id;
//! 4. the strongly connected components of the idb dependency graph (an
//!    edge `head → body fact` for every idb body fact of every ground rule)
//!    in dependency order — a ranked list of equation blocks, each of which
//!    reads only itself and earlier blocks ([`Block`]).
//!
//! The Kleene oracle ([`crate::naive::kleene_iterate`]) builds its own
//! instantiation by scanning, so the differential suites compare two joins.

use crate::ast::Program;
use crate::columnar;
use crate::fact::{Fact, FactStore};
use provsem_semiring::Semiring;

/// A ground rule: an instantiation of a program rule where every variable
/// has been substituted by a constant.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct GroundRule {
    /// Index of the originating rule in the program.
    pub rule_index: usize,
    /// The ground head fact.
    pub head: Fact,
    /// The ground body facts, in the rule's body order.
    pub body: Vec<Fact>,
}

impl GroundRule {
    /// Is this an instantiation of a unit rule (single-atom body)?
    pub fn is_unit(&self) -> bool {
        self.body.len() == 1
    }
}

/// One strongly connected component of the idb dependency graph: a block of
/// equations `X = rhs` whose right-hand sides read only facts of this block
/// and of earlier blocks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The ids of the block's idb facts, ascending.
    pub facts: Vec<usize>,
    /// Does the block contain a cycle — more than one fact, or one fact with
    /// an edge to itself?
    pub cyclic: bool,
}

/// The instantiation of a program over an edb, numbered once (steps 1–4 of
/// the module documentation). A derivable idb fact has infinitely many
/// derivation trees iff its block reaches a cyclic block
/// ([`Grounding::blocks_reaching`]).
#[derive(Clone, Debug)]
pub struct Grounding {
    facts: Vec<Fact>,
    idb: Vec<bool>,
    rules: Vec<GroundRule>,
    /// Per rule: its body fact ids.
    body: Vec<Vec<usize>>,
    /// The rules with head `f` are `by_head[head_start[f]..head_start[f + 1]]`,
    /// ascending.
    head_start: Vec<usize>,
    by_head: Vec<usize>,
    blocks: Vec<Block>,
    /// Per fact: the index of its block (`None` for an edb fact).
    block_of: Vec<Option<usize>>,
}

impl Grounding {
    /// Grounds `program` over the facts of `edb` (annotations are ignored:
    /// by Proposition 5.4 the support is the same for every K).
    pub fn new<K: Semiring>(program: &Program, edb: &FactStore<K>) -> Self {
        let mut rules = columnar::ground(program, edb);
        rules.sort_unstable();
        // The edb facts of the edb predicates, and every derivable idb fact:
        // each is the head of some ground rule.
        let idb_predicates = program.idb_predicates();
        let edb_facts = edb.facts().map(|(f, _)| f);
        let mut facts: Vec<Fact> = edb_facts
            .filter(|f| !idb_predicates.contains(&f.predicate))
            .chain(rules.iter().map(|r| r.head.clone()))
            .collect();
        facts.sort_unstable();
        facts.dedup();
        let idb = facts
            .iter()
            .map(|f| idb_predicates.contains(&f.predicate))
            .collect();
        let id = |f: &Fact| {
            facts
                .binary_search(f)
                .expect("ground rules mention only derivable facts")
        };

        let body = rules
            .iter()
            .map(|r| r.body.iter().map(id).collect())
            .collect();
        let heads: Vec<usize> = rules.iter().map(|r| id(&r.head)).collect();
        // A stable sort keeps each head's rules ascending.
        let mut by_head: Vec<usize> = (0..rules.len()).collect();
        by_head.sort_by_key(|&r| heads[r]);
        let head_start = (0..=facts.len())
            .map(|f| by_head.partition_point(|&r| heads[r] < f))
            .collect();

        let mut grounding = Grounding {
            block_of: vec![None; facts.len()],
            facts,
            idb,
            rules,
            body,
            head_start,
            by_head,
            blocks: Vec::new(),
        };
        grounding.blocks = grounding.sccs(|_| true);
        for (b, block) in grounding.blocks.iter().enumerate() {
            for &f in &block.facts {
                grounding.block_of[f] = Some(b);
            }
        }
        grounding
    }

    /// The derivable facts, sorted; a fact's id is its position.
    pub fn facts(&self) -> &[Fact] {
        &self.facts
    }

    /// The id of a fact, `None` if it is not derivable.
    pub fn id(&self, fact: &Fact) -> Option<usize> {
        self.facts.binary_search(fact).ok()
    }

    /// Is fact `id`'s predicate intensional (the head of some rule)?
    pub fn is_idb(&self, id: usize) -> bool {
        self.idb[id]
    }

    /// The ids of the derivable idb facts, ascending.
    pub fn idb_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.facts.len()).filter(|&f| self.idb[f])
    }

    /// The ground rules, sorted; a rule's id is its position.
    pub fn rules(&self) -> &[GroundRule] {
        &self.rules
    }

    /// The ids of the ground rules with head `head`, ascending.
    pub fn rules_of(&self, head: usize) -> &[usize] {
        &self.by_head[self.head_start[head]..self.head_start[head + 1]]
    }

    /// The fact ids of rule `rule`'s body, in body order.
    pub fn body_ids(&self, rule: usize) -> &[usize] {
        &self.body[rule]
    }

    /// The strongly connected components of the idb dependency graph, in
    /// dependency order: every idb body fact of a block's rules lies in that
    /// block or an earlier one.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The index in [`Grounding::blocks`] of fact `id`'s block (`None` for
    /// an edb fact).
    pub fn block_of(&self, id: usize) -> Option<usize> {
        self.block_of[id]
    }

    /// Per block: does it reach, through zero or more idb edges, a block for
    /// which `seed(index, block)` holds? One forward pass over the blocks.
    pub fn blocks_reaching(&self, seed: impl Fn(usize, &Block) -> bool) -> Vec<bool> {
        let mut reaches = vec![false; self.blocks.len()];
        for (b, block) in self.blocks.iter().enumerate() {
            // A body fact of this block reads `false` here; the seed covers it.
            let reached = seed(b, block)
                || block.facts.iter().any(|&f| {
                    self.rules_of(f).iter().any(|&r| {
                        self.body_ids(r)
                            .iter()
                            .any(|&x| self.block_of(x).is_some_and(|xb| reaches[xb]))
                    })
                });
            reaches[b] = reached;
        }
        reaches
    }

    /// The strongly connected components of the idb graph restricted to the
    /// edges of the rules for which `keep(rule id)` holds, in dependency
    /// order. Tarjan's algorithm with an explicit stack, so deep derivation
    /// chains cannot overflow the call stack.
    pub fn sccs(&self, keep: impl Fn(usize) -> bool) -> Vec<Block> {
        let n = self.facts.len();
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_start.push(0);
        for f in 0..n {
            for &r in self.rules_of(f).iter().filter(|&&r| keep(r)) {
                succ.extend(self.body_ids(r).iter().filter(|&&b| self.idb[b]));
            }
            succ_start.push(succ.len());
        }

        const UNSEEN: usize = usize::MAX;
        let mut order = vec![UNSEEN; n];
        let mut low = vec![0; n];
        let mut on_stack = vec![false; n];
        let mut stack = Vec::new();
        // Depth-first frames: (fact, position of its next successor).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut next = 0;
        let mut blocks = Vec::new();
        for root in self.idb_ids() {
            if order[root] != UNSEEN {
                continue;
            }
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    order[v] = next;
                    low[v] = next;
                    next += 1;
                    on_stack[v] = true;
                    stack.push(v);
                    frames.push((v, succ_start[v]));
                }
                let Some(&(v, pos)) = frames.last() else {
                    break;
                };
                if pos < succ_start[v + 1] {
                    frames.last_mut().expect("frame").1 += 1;
                    let w = succ[pos];
                    if order[w] == UNSEEN {
                        enter = Some(w);
                    } else if on_stack[w] {
                        low[v] = low[v].min(order[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == order[v] {
                    let at = stack
                        .iter()
                        .rposition(|&x| x == v)
                        .expect("v is on the stack");
                    let mut facts = stack.split_off(at);
                    for &f in &facts {
                        on_stack[f] = false;
                    }
                    let cyclic =
                        facts.len() > 1 || succ[succ_start[v]..succ_start[v + 1]].contains(&v);
                    facts.sort_unstable();
                    blocks.push(Block { facts, cyclic });
                }
            }
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::edge_facts;
    use provsem_semiring::{NatInf, Natural};

    fn figure7_edb() -> FactStore<NatInf> {
        edge_facts(
            "R",
            &[
                ("a", "b", NatInf::Fin(2)),
                ("a", "c", NatInf::Fin(3)),
                ("c", "b", NatInf::Fin(2)),
                ("b", "d", NatInf::Fin(1)),
                ("d", "d", NatInf::Fin(1)),
            ],
        )
    }

    /// The facts of predicate `pred` in a grounding.
    fn facts_of<'a>(g: &'a Grounding, pred: &'a str) -> impl Iterator<Item = &'a Fact> + 'a {
        g.facts().iter().filter(move |f| f.predicate == pred)
    }

    #[test]
    fn derivable_facts_of_transitive_closure() {
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        let facts = g.facts();
        // Q contains the 6 pairs of Figure 7(b) plus (c,d), which is
        // derivable via c→b→d but omitted from the paper's figure.
        assert_eq!(facts_of(&g, "Q").count(), 7);
        assert!(facts.contains(&Fact::new("Q", ["c", "d"])));
        assert!(facts.contains(&Fact::new("Q", ["a", "d"])));
        assert!(facts.contains(&Fact::new("Q", ["a", "b"])));
        assert!(!facts.contains(&Fact::new("Q", ["d", "a"])));
        // edb facts are retained too, and ids are positions in sorted order.
        assert!(facts.contains(&Fact::new("R", ["a", "b"])));
        assert!(facts.windows(2).all(|w| w[0] < w[1]));
        for (id, fact) in facts.iter().enumerate() {
            assert_eq!(g.id(fact), Some(id));
            assert_eq!(g.is_idb(id), fact.predicate == "Q");
        }
        assert_eq!(g.id(&Fact::new("Q", ["d", "a"])), None);
    }

    #[test]
    fn conjunctive_query_derivations() {
        // Figure 6: Q(a,a), Q(a,b), Q(b,b) are derivable.
        let program = Program::figure6_query();
        let edb = edge_facts(
            "R",
            &[
                ("a", "a", Natural::from(2u64)),
                ("a", "b", Natural::from(3u64)),
                ("b", "b", Natural::from(4u64)),
            ],
        );
        let g = Grounding::new(&program, &edb);
        assert_eq!(facts_of(&g, "Q").count(), 3);
    }

    #[test]
    fn instantiation_produces_ground_rules_with_derivable_bodies() {
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        // Every ground rule's head must be a Q fact and its body facts must
        // be among the derivable facts, numbered by their ids.
        assert!(!g.rules().is_empty());
        assert!(g.rules().windows(2).all(|w| w[0] < w[1]));
        for (r, rule) in g.rules().iter().enumerate() {
            assert_eq!(rule.head.predicate, "Q");
            let ids = g.body_ids(r);
            assert_eq!(ids.len(), rule.body.len());
            for (b, &id) in rule.body.iter().zip(ids) {
                assert_eq!(&g.facts()[id], b, "body fact {b} misnumbered");
            }
            let head = g.id(&rule.head).unwrap();
            assert!(g.rules_of(head).contains(&r));
        }
        // Every rule is listed under exactly one head, ascending.
        let listed: usize = (0..g.facts().len()).map(|f| g.rules_of(f).len()).sum();
        assert_eq!(listed, g.rules().len());
        assert!((0..g.facts().len()).all(|f| g.rules_of(f).windows(2).all(|w| w[0] < w[1])));
        // The base rule instantiates once per edge: 5 unit ground rules over R.
        let base = g.rules().iter().filter(|r| r.rule_index == 0).count();
        assert_eq!(base, 5);
    }

    #[test]
    fn constants_in_rules_restrict_matching() {
        // Only paths ending at 'b' : Qb(x) :- R(x, 'b').
        let program = crate::parser::parse_program("Qb(x) :- R(x, 'b').").unwrap();
        let g = Grounding::new(&program, &figure7_edb());
        assert_eq!(facts_of(&g, "Qb").count(), 2); // from a and from c
    }

    #[test]
    fn dependency_graph_detects_cycles_from_self_loop() {
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        let reaches = g.blocks_reaching(|_, block| block.cyclic);
        let infinite = |a: &str, b: &str| {
            let id = g.id(&Fact::new("Q", [a, b])).unwrap();
            reaches[g.block_of(id).unwrap()]
        };
        // Q(d,d) is on a cycle (Q(d,d) :- Q(d,d),Q(d,d)); Q(b,d) and Q(a,d)
        // reach it. Q(a,b), Q(a,c), Q(c,b) do not.
        assert!(infinite("d", "d"));
        assert!(infinite("b", "d"));
        assert!(infinite("a", "d"));
        assert!(!infinite("a", "b"));
        assert!(!infinite("a", "c"));
        assert!(!infinite("c", "b"));
        // Every Q(x,d) has a self-edge (Q(x,d) :- Q(x,d), Q(d,d)), so each
        // is a cyclic block of its own.
        let cyclic: Vec<&Fact> = g
            .blocks()
            .iter()
            .filter(|b| b.cyclic)
            .flat_map(|b| b.facts.iter().map(|&f| &g.facts()[f]))
            .collect();
        assert_eq!(cyclic.len(), 4);
        assert!(cyclic.iter().all(|f| f.values[1].as_str() == Some("d")));
        // Edb facts belong to no block.
        assert_eq!(g.block_of(g.id(&Fact::new("R", ["a", "b"])).unwrap()), None);
    }

    #[test]
    fn unit_only_graph_has_no_cycles_for_transitive_closure() {
        // The TC program's only unit rule is the base rule Q :- R, whose body
        // is an edb fact, so the unit-rule graph over idb facts has no edges
        // and no cycles — by Theorem 6.5 all provenance series are in ℕ[[X]].
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        let unit_blocks = g.sccs(|r| g.rules()[r].is_unit());
        assert_eq!(unit_blocks.len(), 7);
        assert!(unit_blocks.iter().all(|b| !b.cyclic && b.facts.len() == 1));
    }

    #[test]
    fn topological_order_respects_dependencies() {
        let program = Program::transitive_closure("R", "Q");
        let g = Grounding::new(&program, &figure7_edb());
        let reaches = g.blocks_reaching(|_, block| block.cyclic);
        let block = |a: &str, b: &str| g.block_of(g.id(&Fact::new("Q", [a, b])).unwrap()).unwrap();
        // The acyclic part is {Q(a,b), Q(a,c), Q(c,b)}; Q(a,b) depends on
        // Q(a,c) and Q(c,b) so its block must come after both.
        assert!(block("a", "b") > block("a", "c"));
        assert!(block("a", "b") > block("c", "b"));
        assert_eq!(reaches.iter().filter(|&&r| !r).count(), 3);
        // Every idb fact is in exactly one block.
        let mut members: Vec<usize> = g.blocks().iter().flat_map(|b| b.facts.clone()).collect();
        members.sort_unstable();
        assert_eq!(members, g.idb_ids().collect::<Vec<_>>());
    }

    #[test]
    fn a_long_chain_is_one_block_per_fact() {
        // P(i) :- N(i, i+1), P(i+1): a dependency chain as deep as the edb
        // is long. The explicit-stack Tarjan walks it without recursion.
        const N: usize = 20_000;
        let program =
            crate::parser::parse_program("P(x) :- S(x).\nP(x) :- N(x, y), P(y).").unwrap();
        let mut edb: FactStore<Natural> = FactStore::new();
        for i in 0..N {
            edb.insert(
                Fact::new("N", [format!("n{i}"), format!("n{}", i + 1)]),
                Natural::from(1u64),
            );
        }
        edb.insert(Fact::new("S", [format!("n{N}")]), Natural::from(1u64));
        let g = Grounding::new(&program, &edb);
        assert_eq!(g.blocks().len(), N + 1);
        assert!(g.blocks().iter().all(|b| !b.cyclic));
        // Dependency order: the end of the chain first.
        let first = &g.blocks()[0].facts;
        assert_eq!(g.facts()[first[0]], Fact::new("P", [format!("n{N}")]));
    }

    #[test]
    fn mutual_recursion_is_one_cyclic_block() {
        let program = crate::parser::parse_program(
            "A(x) :- E(x).\nB(x) :- A(x).\nA(x) :- B(x).\nC(x) :- A(x).",
        )
        .unwrap();
        let mut edb: FactStore<Natural> = FactStore::new();
        edb.insert(Fact::new("E", ["c"]), Natural::from(1u64));
        let g = Grounding::new(&program, &edb);
        let id = |p: &str| g.id(&Fact::new(p, ["c"])).unwrap();
        assert_eq!(g.blocks().len(), 2);
        assert_eq!(
            g.blocks()[0],
            Block {
                facts: vec![id("A"), id("B")],
                cyclic: true
            }
        );
        assert_eq!(
            g.blocks()[1],
            Block {
                facts: vec![id("C")],
                cyclic: false
            }
        );
    }

    #[test]
    fn edb_facts_of_an_idb_predicate_are_not_derivable() {
        // T(c, d) is an edb fact of the idb predicate T. Every evaluator
        // reads idb factors from the iteration alone, as in Tᵐ(0), so
        // neither it nor T(c, e), which only it would derive, is derivable.
        let program =
            crate::parser::parse_program("T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), E(y, z).")
                .unwrap();
        let mut edb = edge_facts(
            "E",
            &[("a", "b", NatInf::Fin(1)), ("d", "e", NatInf::Fin(1))],
        );
        edb.insert(Fact::new("T", ["c", "d"]), NatInf::Fin(1));
        let g = Grounding::new(&program, &edb);
        assert!(!g.facts().contains(&Fact::new("T", ["c", "d"])));
        assert!(!g.facts().contains(&Fact::new("T", ["c", "e"])));
        assert!(g.facts().contains(&Fact::new("E", ["d", "e"])));
        let derivable = vec![Fact::new("T", ["a", "b"]), Fact::new("T", ["d", "e"])];
        let series = crate::provenance::classify_series(&program, &edb);
        assert_eq!(series.into_keys().collect::<Vec<_>>(), derivable);
        for idb in [
            crate::naive::kleene_iterate(&program, &edb, 16).idb,
            crate::seminaive::seminaive_iterate(&program, &edb, 16).idb,
            crate::exact::evaluate_natinf(&program, &edb),
        ] {
            assert_eq!(idb.facts().map(|(f, _)| f).collect::<Vec<_>>(), derivable);
        }
    }

    #[test]
    fn program_facts_seed_derivation() {
        let program = crate::parser::parse_program("R('x', 'y').\nQ(a, b) :- R(a, b).").unwrap();
        let empty: FactStore<Natural> = FactStore::new();
        let g = Grounding::new(&program, &empty);
        assert!(g.facts().contains(&Fact::new("Q", ["x", "y"])));
        // The program fact is a ground rule with an empty body.
        let r = g.id(&Fact::new("R", ["x", "y"])).unwrap();
        assert!(g.is_idb(r));
        assert_eq!(g.rules_of(r).len(), 1);
        assert!(g.body_ids(g.rules_of(r)[0]).is_empty());
    }
}
