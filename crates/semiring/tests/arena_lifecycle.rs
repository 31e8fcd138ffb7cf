//! Lifecycle regression tests for the process-wide circuit arena (one node
//! vector in creation order behind one lock): stale handles crossing a
//! session/generation boundary must panic (never silently alias another
//! computation's nodes), `CircuitSession` guards must compose across
//! threads, and [`circuit::vacuum`] must reclaim storage globally while
//! refusing to run under any active session.
//!
//! The six transit tests pin the cross-thread transport of [`Circuit`] and
//! [`BoolCircuit`] batches, which moves node ids and relies on the vacuum
//! epoch — not on re-interning — to refuse ids that no longer exist. The
//! last test bounds the node table under operands it hashes worst: sums and
//! products that share their smaller operand.
//!
//! These live in an integration binary (own process) because `vacuum`
//! mutates process-wide state: it would stale handles held by unrelated lib
//! tests running on sibling threads. Within this binary every test holds
//! `ARENA_TEST_LOCK` for the same reason.

use provsem_semiring::circuit::{self, shared_node_count, CircuitSession};
use provsem_semiring::{BoolCircuit, Circuit, Natural, Semiring, Valuation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static ARENA_TEST_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A panicking test (several tests unwind on purpose) poisons the mutex;
    // the lock only serializes, so poisoning carries no meaning here.
    ARENA_TEST_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn stale_handle_crossing_a_session_boundary_panics_not_aliases() {
    let _serial = serial();
    let escaped = CircuitSession::run(|| Circuit::var("esc").times(&Circuit::var("aped")));
    // Rebuilding the same structure lands on the same *global* node (the
    // store is shared across generations)...
    let rebuilt = Circuit::var("esc").times(&Circuit::var("aped"));
    assert_eq!(rebuilt.node_id(), escaped.node_id());
    // ...but the escaped handle's generation died with the session, so any
    // use panics loudly instead of silently reading the live node.
    let err = catch_unwind(|| escaped.to_polynomial()).expect_err("escaped handle must be stale");
    let message = panic_message(err);
    assert!(message.contains("stale circuit handle"), "{message}");
    // The in-generation handle keeps working.
    assert!(!rebuilt.is_zero());
}

#[test]
fn sessions_compose_within_and_across_threads() {
    let _serial = serial();
    // Sequentially on one thread: each session gets a fresh generation.
    let first = CircuitSession::run(|| Circuit::var("seq").node_id());
    let second = CircuitSession::run(|| Circuit::var("seq").node_id());
    assert_eq!(first, second, "hash-consing spans sessions");
    // Concurrently across threads: every worker runs its own session over
    // the shared store, and identical subcircuits are the same global node.
    let ids: Vec<usize> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|w| {
                s.spawn(move || {
                    CircuitSession::run(|| {
                        let e = Circuit::var("shared").plus(&Circuit::var("across"));
                        // The session's handles are fully usable in-thread.
                        let ones = Valuation::from_pairs([
                            ("shared", Natural::from(w + 1u64)),
                            ("across", Natural::from(1u64)),
                        ]);
                        assert_eq!(e.eval(&ones), Natural::from(w + 2));
                        e.node_id()
                    })
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    assert!(ids.windows(2).all(|p| p[0] == p[1]), "{ids:?}");
}

#[test]
fn vacuum_truncates_globally_and_stales_other_threads_handles() {
    let _serial = serial();
    circuit::reset();
    let (to_worker, from_main) = mpsc::channel::<()>();
    let (to_main, from_worker) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let held = Circuit::var("worker").times(&Circuit::var("held"));
            assert_eq!(shared_node_count([held]), 3);
            to_main.send(()).expect("signal built");
            from_main.recv().expect("await vacuum");
            // The worker's next arena access syncs with the vacuum epoch
            // and finds its generation gone.
            let err = catch_unwind(AssertUnwindSafe(|| held.node_count()))
                .expect_err("pre-vacuum handle must be stale");
            let message = panic_message(err);
            assert!(message.contains("stale circuit handle"), "{message}");
        });
        from_worker.recv().expect("await worker build");
        let mine = Circuit::var("main").plus(&Circuit::var("mine"));
        assert!(circuit::arena_node_count() > 2);
        circuit::vacuum();
        assert_eq!(circuit::arena_node_count(), 2, "vacuum truncates the arena");
        // The vacuuming thread's own pre-vacuum handles are stale too...
        assert!(catch_unwind(AssertUnwindSafe(|| mine.node_count())).is_err());
        // ...while the constants survive and the arena restocks on demand.
        assert!(Circuit::zero().is_zero());
        assert!(!Circuit::var("fresh").is_zero());
        to_worker.send(()).expect("release worker");
    });
}

#[test]
fn vacuum_refuses_while_any_session_is_active() {
    let _serial = serial();
    let (to_worker, from_main) = mpsc::channel::<()>();
    let (to_main, from_worker) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let _session = CircuitSession::begin();
            to_main.send(()).expect("signal session open");
            from_main.recv().expect("await main");
        });
        from_worker.recv().expect("await session");
        // The session lives on another thread; vacuum must still refuse.
        let err = catch_unwind(circuit::vacuum).expect_err("vacuum under session");
        let message = panic_message(err);
        assert!(message.contains("CircuitSession is active"), "{message}");
        to_worker.send(()).expect("release worker");
    });
    // Once the session is gone, vacuum succeeds.
    circuit::vacuum();
    assert_eq!(circuit::arena_node_count(), 2);
}

// ---- batches in transit ------------------------------------------------------
//
// Each case runs for `Circuit` and for `BoolCircuit`, whose transport
// delegates to `Circuit`'s: `var` builds a variable, `id` reads a node id.

fn token_sealed_before_a_vacuum_is_refused<K: Semiring>(var: fn(&str) -> K) {
    let _serial = serial();
    let token = K::to_portable(vec![var("sealed").times(&var("early"))]);
    circuit::vacuum();
    // Restock the arena so the sealed ids name live nodes again: only the
    // epoch can tell that they are not the nodes the token was sealed over.
    let _restocked = var("some").times(&var("other")).plus(&var("nodes"));
    let err = catch_unwind(AssertUnwindSafe(|| K::from_portable(token)))
        .expect_err("a pre-vacuum token must not open");
    let message = panic_message(err);
    assert!(message.contains("vacuum"), "{message}");
}

fn token_opens_on_another_thread_as_the_same_nodes<K: Semiring>(
    var: fn(&str) -> K,
    id: fn(&K) -> usize,
) {
    let _serial = serial();
    let shared = var("moved").times(&var("across"));
    let batch = vec![
        K::zero(),
        K::one(),
        shared.clone(),
        shared.plus(&var("threads")),
    ];
    let ids: Vec<usize> = batch.iter().map(id).collect();
    let printed: Vec<String> = batch.iter().map(|k| format!("{k:?}")).collect();
    let token = K::to_portable(batch);
    let before = circuit::arena_node_count();
    let (there_ids, after_open, there_printed, product_is_new) = std::thread::scope(|s| {
        s.spawn(move || {
            let opened = K::from_portable(token);
            let after_open = circuit::arena_node_count();
            // Stamped with this thread's generation: readable and operable.
            let printed: Vec<String> = opened.iter().map(|k| format!("{k:?}")).collect();
            let product = opened[2].times(&opened[3]);
            let ids: Vec<usize> = opened.iter().map(id).collect();
            let product_is_new = !ids.contains(&id(&product));
            (ids, after_open, printed, product_is_new)
        })
        .join()
        .expect("worker")
    });
    assert_eq!(there_ids, ids, "ids are process-wide");
    assert_eq!(after_open, before, "opening a token interns nothing");
    assert_eq!(there_printed, printed);
    assert!(product_is_new);
}

fn stale_handle_is_refused_at_sealing<K: Semiring>(var: fn(&str) -> K) {
    let _serial = serial();
    let stale = var("gone").times(&var("already"));
    circuit::reset();
    let err = catch_unwind(AssertUnwindSafe(|| K::to_portable(vec![K::one(), stale])))
        .expect_err("a stale handle must not be sealed");
    let message = panic_message(err);
    assert!(message.contains("stale circuit handle"), "{message}");
}

fn circuit_var(name: &str) -> Circuit {
    Circuit::var(name)
}

fn bool_var(name: &str) -> BoolCircuit {
    BoolCircuit::var(name)
}

#[test]
fn circuit_token_sealed_before_a_vacuum_is_refused() {
    token_sealed_before_a_vacuum_is_refused(circuit_var);
}

#[test]
fn bool_circuit_token_sealed_before_a_vacuum_is_refused() {
    token_sealed_before_a_vacuum_is_refused(bool_var);
}

#[test]
fn circuit_token_opens_on_another_thread_as_the_same_nodes() {
    token_opens_on_another_thread_as_the_same_nodes(circuit_var, Circuit::node_id);
}

#[test]
fn bool_circuit_token_opens_on_another_thread_as_the_same_nodes() {
    token_opens_on_another_thread_as_the_same_nodes(bool_var, |b| b.circuit().node_id());
}

#[test]
fn circuit_stale_handle_is_refused_at_sealing() {
    stale_handle_is_refused_at_sealing(circuit_var);
}

#[test]
fn bool_circuit_stale_handle_is_refused_at_sealing() {
    stale_handle_is_refused_at_sealing(bool_var);
}

// ---- the node table under its worst operands ---------------------------------

#[test]
fn sums_and_products_sharing_their_smaller_operand_intern_in_linear_time() {
    // `fx_hash_one` of `Plus([a, b])` / `Times([a, b])` ends in a
    // multiplication whose low bits depend on the smaller operand `a` alone:
    // a table indexed by low bits puts each of these streams into a handful
    // of probe chains, and this test took 11 s in a debug build.
    let _serial = serial();
    circuit::vacuum();
    let start = Instant::now();
    let x = Circuit::var("x");
    let f: Vec<Circuit> = (0..7).map(|i| Circuit::var(format!("f{i}"))).collect();
    // 10⁵ products sharing their smaller operand x (the chain
    // tᵢ₊₁ = x · tᵢ) and 10⁵ sums fᵢ + tᵢ₊₁ over seven fᵢ.
    let mut chain = vec![Circuit::var("t")];
    let mut sums = Vec::new();
    for i in 0..100_000 {
        chain.push(x.times(&chain[i]));
        sums.push(f[i % 7].plus(&chain[i + 1]));
    }
    // Interning them again finds every node.
    for (i, sum) in sums.iter().enumerate() {
        assert!(x.times(&chain[i]).same_node(&chain[i + 1]));
        assert!(f[i % 7].plus(&chain[i + 1]).same_node(sum));
    }
    let elapsed = start.elapsed();
    assert_eq!(circuit::check_arena_invariants(), 2 + 9 + 200_000);
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
    let names = ["x", "t", "f0", "f1", "f2", "f3", "f4", "f5", "f6"];
    let ones = Valuation::from_pairs(names.map(|v| (v, Natural::from(1u64))));
    assert_eq!(sums[99_999].eval(&ones), Natural::from(2u64));
}
