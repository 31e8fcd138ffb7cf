//! The circuit arena under the Section 2 query: tag a random 2 000-row `R`
//! with circuit variables, run `π_ac(π_ab R ⋈ π_bc R ∪ π_ac R ⋈ π_bc R)` at
//! 1, 2 and 4 threads, and check what the arena holds afterwards.
//!
//! * Every child id is below its parent's (ids are creation order — what
//!   lets `CircuitEval::eval_all` evaluate in one forward sweep), and the
//!   node table finds every node at its own id
//!   (`circuit::check_arena_invariants`).
//! * The arena holds the same number of nodes at every thread budget
//!   (`NODES`): both joins are projected to `(a, c)`, so each is summed
//!   inside the join with one `Σᵢ aᵢ·bᵢ` node per output tuple, over the
//!   matches of every key partition at once — a partition count that
//!   changed which sums exist would change the count.
//! * `eval_all` over the whole result equals one `eval` per root and the
//!   expanded polynomial's evaluation, over ℕ, 𝔹 and Tropical.
//!
//! An integration binary of its own: `circuit::vacuum` resets the
//! process-wide arena before each thread budget, which would stale the
//! handles of unrelated tests running on sibling threads.

use provsem_core::paper::section2_query;
use provsem_core::provenance::tag_database_circuit;
use provsem_core::{Database, ExecContext, KRelation, Plan, RelationSource, Schema, Tuple};
use provsem_semiring::circuit::{self, CircuitSession};
use provsem_semiring::{
    Bool, Circuit, CircuitEval, CommutativeSemiring, Natural, ProvenancePolynomial, Semiring,
    Tropical, Valuation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 2_000;
const DOMAIN: u64 = 48;

/// Nodes in the arena after tagging `R` and running the query. A `Times`
/// node per join match, summed by the root merge, made it 44 165.
const NODES: usize = 8_519;

fn section2_instance() -> Database<Natural> {
    let mut rng = StdRng::seed_from_u64(2_000);
    let schema = Schema::new(["a", "b", "c"]);
    let mut relation = KRelation::empty(schema.clone());
    while relation.len() < ROWS {
        let row = [0; 3].map(|_| format!("v{}", rng.gen_range(0..DOMAIN)));
        let multiplicity = Natural::from(rng.gen_range(1u64..4));
        relation.insert(Tuple::from_values(&schema, row), multiplicity);
    }
    Database::new().with("R", relation)
}

/// `eval_all` over every root equals a fresh evaluator's `eval` root by
/// root and, where given, the lowered polynomials' evaluation; returns it.
fn one_pass<K: CommutativeSemiring>(
    roots: &[Circuit],
    lowered: &[ProvenancePolynomial],
    valuation: &Valuation<K>,
) -> Vec<K> {
    let all = CircuitEval::new(valuation).eval_all(roots);
    let mut by_root = CircuitEval::new(valuation);
    for (root, value) in roots.iter().zip(&all) {
        assert_eq!(*value, by_root.eval(*root));
    }
    for (polynomial, value) in lowered.iter().zip(&all) {
        assert_eq!(*value, polynomial.eval(valuation));
    }
    all
}

#[test]
fn the_section2_query_leaves_a_creation_ordered_arena_of_the_same_size_at_every_budget() {
    let db = section2_instance();
    let plan = Plan::new(&section2_query(), &db.catalog()).expect("the paper's query plans");
    let mut counts = Vec::new();
    let mut serial = None;
    for threads in [1, 2, 4] {
        circuit::vacuum();
        let _session = CircuitSession::begin();
        let tagged = tag_database_circuit(&db);
        let result = plan.execute_with(&tagged.database, &ExecContext::with_threads(threads));
        let nodes = circuit::check_arena_invariants();
        assert_eq!(nodes, circuit::arena_node_count());
        counts.push(nodes);

        let roots: Vec<Circuit> = result.iter().map(|(_, c)| *c).collect();
        assert!(roots.len() > 200, "{} result rows", roots.len());
        // The expansion is the slow part: lower the serial result only, and
        // compare the other budgets' values with its values.
        let lowered: Vec<ProvenancePolynomial> = match serial {
            None => roots.iter().map(Circuit::to_polynomial).collect(),
            Some(_) => Vec::new(),
        };
        let valuation = &tagged.valuation;
        let bools = valuation
            .iter()
            .map(|(v, k)| (v.clone(), Bool::from(!k.is_zero())));
        let costs = valuation
            .iter()
            .map(|(v, k)| (v.clone(), Tropical::cost(k.value())));
        let values = (
            one_pass(&roots, &lowered, valuation),
            one_pass(&roots, &lowered, &Valuation::from_pairs(bools)),
            one_pass(&roots, &lowered, &Valuation::from_pairs(costs)),
        );
        assert_eq!(*serial.get_or_insert_with(|| values.clone()), values);
    }
    assert_eq!(counts, [NODES; 3], "nodes at 1, 2 and 4 threads");
}
