//! Garbage-collection correctness: rooted functions keep their semantics
//! across collections, unrooted garbage is reclaimed completely, reclaimed
//! slots are reused, and hash-consing stays canonical afterwards.

use proptest::prelude::*;
use pv_bdd::{Bdd, BddManager, Var};

/// A small random Boolean expression over `n` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

fn arb_expr(nvars: usize, depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = (0..nvars).prop_map(Expr::Var);
    leaf.prop_recursive(depth, 64, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
        ]
    })
}

fn build(m: &mut BddManager, vars: &[Var], e: &Expr) -> Bdd {
    match e {
        Expr::Var(i) => m.var(vars[*i]),
        Expr::Not(a) => {
            let x = build(m, vars, a);
            m.not(x)
        }
        Expr::And(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let (x, y) = (build(m, vars, a), build(m, vars, b));
            m.xor(x, y)
        }
    }
}

fn eval_expr(e: &Expr, assignment: u32) -> bool {
    match e {
        Expr::Var(i) => assignment >> i & 1 == 1,
        Expr::Not(a) => !eval_expr(a, assignment),
        Expr::And(a, b) => eval_expr(a, assignment) && eval_expr(b, assignment),
        Expr::Or(a, b) => eval_expr(a, assignment) || eval_expr(b, assignment),
        Expr::Xor(a, b) => eval_expr(a, assignment) ^ eval_expr(b, assignment),
    }
}

const NVARS: usize = 5;

proptest! {
    /// Build two random formulas, root one, collect: the rooted formula's
    /// truth table is unchanged, the dead-node count drops to zero (an
    /// immediate second collection reclaims nothing), and the reclaimed slots
    /// can be reused to rebuild the dropped formula with correct semantics
    /// and restored canonicity.
    #[test]
    fn gc_preserves_rooted_semantics((fe, ge) in (arb_expr(NVARS, 4), arb_expr(NVARS, 4))) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let g = build(&mut m, &vars, &ge);
        let _ = g; // dropped: not rooted, so the collection may reclaim it
        m.add_root(f);
        let reachable_from_f = if f.is_const() { 2 } else { m.node_count(f) };
        let stats = m.gc();
        // Everything not reachable from the root is gone...
        prop_assert_eq!(stats.live, reachable_from_f);
        prop_assert_eq!(m.live_nodes(), reachable_from_f);
        // ...so a second collection finds no dead nodes at all.
        prop_assert_eq!(m.gc().collected, 0);
        // The rooted formula still agrees with its truth table.
        for a in 0u32..1 << NVARS {
            let expected = eval_expr(&fe, a);
            prop_assert_eq!(m.eval(f, |v| a >> v.index() & 1 == 1), expected);
        }
        // Reclaimed slots are reused without corrupting semantics, and
        // hash-consing is canonical across the collection: rebuilding the
        // rooted formula reproduces the *same handle*.
        let g2 = build(&mut m, &vars, &ge);
        for a in 0u32..1 << NVARS {
            let expected = eval_expr(&ge, a);
            prop_assert_eq!(m.eval(g2, |v| a >> v.index() & 1 == 1), expected);
        }
        let f2 = build(&mut m, &vars, &fe);
        prop_assert_eq!(f2, f);
    }

    /// With no roots registered, a collection reclaims every decision node:
    /// only the two terminals stay live, and total allocation is monotone.
    #[test]
    fn unrooted_garbage_is_reclaimed_completely(e in arb_expr(NVARS, 4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        let _ = f;
        let allocated_before = m.total_nodes();
        let live_before = m.live_nodes();
        let stats = m.gc();
        prop_assert_eq!(stats.collected, live_before - 2);
        prop_assert_eq!(stats.live, 2);
        prop_assert_eq!(m.live_nodes(), 2);
        // The total-allocation counter never goes backwards.
        prop_assert_eq!(m.total_nodes(), allocated_before);
        // The manager is still fully usable: rebuild and re-check.
        let f2 = build(&mut m, &vars, &e);
        for a in 0u32..1 << NVARS {
            prop_assert_eq!(m.eval(f2, |v| a >> v.index() & 1 == 1), eval_expr(&e, a));
        }
    }

    /// Quantification, cofactoring and the other derived operations give
    /// identical (canonical) results before and after an interposed
    /// collection — the operation-cache invalidation cannot change results.
    #[test]
    fn operations_agree_across_gc((fe, idx) in (arb_expr(NVARS, 4), 0..NVARS)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let v = vars[idx];
        let before_exists = m.exists(f, &[v]);
        let before_restrict = m.restrict(f, v, true);
        m.add_root(f);
        m.add_root(before_exists);
        m.add_root(before_restrict);
        m.gc();
        let after_exists = m.exists(f, &[v]);
        let after_restrict = m.restrict(f, v, true);
        prop_assert_eq!(before_exists, after_exists);
        prop_assert_eq!(before_restrict, after_restrict);
    }

    /// `support_reaches` answers the same for handles that survive a
    /// `gc_with_roots` — one permanent root, one extra root — as before the
    /// collection, also after unrelated nodes reuse the reclaimed slots.
    #[test]
    fn support_reaches_survives_gc_with_roots(
        (fe, ge, he) in (arb_expr(NVARS, 4), arb_expr(NVARS, 4), arb_expr(NVARS, 4))
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let g = build(&mut m, &vars, &ge);
        let ng = m.not(g);
        let _garbage = build(&mut m, &vars, &he);
        m.add_root(f);
        let reaches = |m: &BddManager| -> Vec<bool> {
            vars.iter().map(|&v| m.support_reaches(&[f, ng], v)).collect()
        };
        let before = reaches(&m);
        m.gc_with_roots(&[ng]);
        prop_assert_eq!(reaches(&m), before.clone());
        let _reused = build(&mut m, &vars, &he);
        prop_assert_eq!(reaches(&m), before);
    }

    /// Constrain results live in the computed table across calls. A
    /// collection that reclaims the slots an entry names must drop it: once
    /// unrelated nodes reuse those slots, constraining the rebuilt operands
    /// again yields the rooted first result, which still agrees with `f` on
    /// the care set.
    #[test]
    fn constrain_entries_do_not_outlive_their_slots(
        (fe, ce, ge) in (arb_expr(NVARS, 4), arb_expr(NVARS, 4), arb_expr(NVARS, 4))
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &fe);
        let c = build(&mut m, &vars, &ce);
        prop_assume!(!c.is_false());
        let first = m.constrain(f, c);
        m.add_root(first);
        // `f` and `c` are unrooted, so their slots are reclaimed, and `g`
        // takes them over before the operands are rebuilt.
        m.gc();
        let _g = build(&mut m, &vars, &ge);
        let f = build(&mut m, &vars, &fe);
        let c = build(&mut m, &vars, &ce);
        let again = m.constrain(f, c);
        prop_assert_eq!(again, first);
        let agree = m.xnor(again, f);
        let covered = m.and(c, agree);
        prop_assert_eq!(covered, c);
    }
}

/// `(f↓c)↓c = f↓c`: constraining a result again by the same care set returns
/// the same handle from a single computed-table hit, allocating nothing and
/// leaving the ITE counters alone.
#[test]
fn constrain_is_idempotent_through_the_computed_table() {
    let mut m = BddManager::new();
    let v = m.new_vars(4);
    let (a, b, c, d) = (m.var(v[0]), m.var(v[1]), m.var(v[2]), m.var(v[3]));
    let ac = m.and(a, c);
    let bd = m.and(b, d);
    let f = m.or(ac, bd);
    let care = m.or(a, b);
    let g = m.constrain(f, care);
    assert!(!g.is_const() && g != f, "the cofactor must be non-trivial");
    let before = m.stats();
    let h = m.constrain(g, care);
    let after = m.stats();
    assert_eq!(h, g);
    assert_eq!(after.allocated, before.allocated);
    assert_eq!(after.constrain_hits, before.constrain_hits + 1);
    assert_eq!(after.constrain_misses, before.constrain_misses);
    assert_eq!(
        (after.ite_hits, after.ite_misses),
        (before.ite_hits, before.ite_misses)
    );
}
