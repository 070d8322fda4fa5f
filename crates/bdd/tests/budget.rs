//! The budget abort contract: a budgeted computation unwinds with the typed
//! [`BudgetExceeded`] payload at a safe point, overshoots its node limit by
//! at most the amortized check interval, and leaves the manager
//! allocation-consistent — collectable, re-budgetable and reusable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pv_bdd::{Bdd, BddManager, Budget, BudgetExceeded};

/// Builds an n-bit ripple-carry "greater than" chain — enough ITE traffic
/// to drive the amortized miss-path check — returning the final function.
fn build_chain(m: &mut BddManager, bits: usize) -> Bdd {
    let xs = m.new_vars(bits);
    let ys = m.new_vars(bits);
    let mut acc = Bdd::FALSE;
    for (x, y) in xs.iter().zip(&ys) {
        let (vx, vy) = (m.var(*x), m.var(*y));
        let not_y = m.not(vy);
        let gt = m.and(vx, not_y);
        let eq = m.xnor(vx, vy);
        let keep = m.and(eq, acc);
        acc = m.or(gt, keep);
    }
    acc
}

/// Runs `f`, expecting it to unwind with a `BudgetExceeded` payload;
/// anything else (success or a foreign panic) fails the test.
fn expect_abort<T>(f: impl FnOnce() -> T) -> BudgetExceeded {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(_) => panic!("the computation must abort"),
        Err(err) => *err
            .downcast_ref::<BudgetExceeded>()
            .expect("the panic payload is the typed BudgetExceeded"),
    }
}

#[test]
fn node_budget_aborts_with_bounded_overshoot() {
    let mut m = BddManager::new();
    let limit = 2_000;
    m.set_budget(Budget::unlimited().with_node_limit(limit));

    let exceeded = expect_abort(|| {
        // Unbounded, this would allocate far beyond the limit.
        for _ in 0..64 {
            build_chain(&mut m, 24);
        }
    });
    assert_eq!(exceeded, BudgetExceeded::Nodes);

    // Overshoot past the limit is bounded by the amortized check interval
    // (1024 misses, each allocating at most one node) plus the per-call
    // slack before the first tick.
    let allocated = m.stats().allocated;
    assert!(allocated > limit, "the abort fired past the limit");
    assert!(
        allocated <= limit + 2 * 1024,
        "overshoot {} exceeds a small multiple of the safe-point interval",
        allocated - limit
    );
}

#[test]
fn cancelled_budgets_abort_and_deadline_zero_aborts() {
    let mut m = BddManager::new();
    let budget = Budget::unlimited();
    budget.cancel();
    m.set_budget(budget);
    assert_eq!(
        expect_abort(|| build_chain(&mut m, 24)),
        BudgetExceeded::Cancelled
    );

    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    assert_eq!(
        expect_abort(|| build_chain(&mut m, 24)),
        BudgetExceeded::Deadline
    );
}

#[test]
fn manager_stays_consistent_and_reusable_after_abort() {
    let mut m = BddManager::new();
    m.set_budget(Budget::unlimited().with_node_limit(1_500));
    expect_abort(|| {
        for _ in 0..64 {
            build_chain(&mut m, 24);
        }
    });

    // The aborted computation's handles are dead, but the manager is not:
    // collect everything, lift the budget and verify fresh work is correct.
    let stats = m.gc();
    assert!(stats.collected > 0, "the abort left collectable garbage");
    m.clear_budget();

    let xs = m.new_vars(4);
    let mut conj = Bdd::TRUE;
    for x in &xs {
        let v = m.var(*x);
        conj = m.and(conj, v);
    }
    assert!(m.eval(conj, |_| true));
    assert!(!m.eval(conj, |v| v != xs[0]));

    // Re-budgeting with headroom lets the same manager finish real work.
    m.set_budget(Budget::unlimited().with_node_limit(m.stats().allocated + 100_000));
    build_chain(&mut m, 8);
}

#[test]
fn safe_point_checks_fire_without_ite_traffic() {
    // `maybe_gc` is the per-cycle safe point; it must observe cancellation
    // even when no ITE miss ever ticks the amortized counter.
    let mut m = BddManager::new();
    let budget = Budget::unlimited();
    m.set_budget(budget.child());
    budget.cancel();
    assert_eq!(expect_abort(|| m.maybe_gc(&[])), BudgetExceeded::Cancelled);
}

/// Equality of two `bits`-bit words with every `x` variable ordered before
/// every `y` variable — exponential in `bits` — and the care set `y_last`:
/// constraining the first by the second rebuilds nearly every node.
fn split_equality(m: &mut BddManager, bits: usize) -> (Bdd, Bdd) {
    let xs = m.new_vars(bits);
    let ys = m.new_vars(bits);
    let mut eq = Bdd::TRUE;
    for (x, y) in xs.iter().zip(&ys) {
        let (vx, vy) = (m.var(*x), m.var(*y));
        let bit = m.xnor(vx, vy);
        eq = m.and(eq, bit);
    }
    let care = m.var(ys[bits - 1]);
    (eq, care)
}

#[test]
fn node_budget_trips_inside_one_constrain() {
    // Unbudgeted twin: the single call allocates several check intervals'
    // worth of nodes, so the overshoot bound below means something.
    let mut twin = BddManager::new();
    let (f, care) = split_equality(&mut twin, 14);
    let before = twin.stats().allocated;
    twin.constrain(f, care);
    let cost = twin.stats().allocated - before;
    assert!(cost > 4 * 1024, "the constrain allocates only {cost} nodes");

    let mut m = BddManager::new();
    let (f, care) = split_equality(&mut m, 14);
    let limit = m.stats().allocated + 100;
    m.set_budget(Budget::unlimited().with_node_limit(limit));
    assert_eq!(expect_abort(|| m.constrain(f, care)), BudgetExceeded::Nodes);
    // Each miss allocates at most one node, so the abort fires within one
    // check interval (plus the frames in flight) of the limit.
    let allocated = m.stats().allocated;
    assert!(allocated > limit, "the abort fired past the limit");
    assert!(
        allocated <= limit + 1024 + 64,
        "overshoot {} exceeds the check interval",
        allocated - limit
    );

    // The manager is reusable: unbudgeted, the same call completes and
    // agrees with its operand on the care set.
    m.clear_budget();
    let g = m.constrain(f, care);
    let lhs = m.and(g, care);
    let rhs = m.and(f, care);
    assert_eq!(lhs, rhs);
}
