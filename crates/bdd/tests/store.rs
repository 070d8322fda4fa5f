//! Round-trip properties of the persistent BDD store (`pv_bdd::store`):
//! export → import into a **fresh** manager must preserve function semantics
//! exactly, the export text must be a canonical function of the roots, and a
//! reached-state set survives the trip.

use proptest::prelude::*;
use pv_bdd::{store, Bdd, BddManager, TransitionSystem, Var};

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

const NVARS: usize = 6;

/// Truth table of `f` over the first `NVARS` variable indices.
fn truth_table(m: &BddManager, f: Bdd) -> u64 {
    let mut table = 0u64;
    for assignment in 0..1u64 << NVARS {
        if m.eval(f, |v| assignment >> v.index() & 1 == 1) {
            table |= 1 << assignment;
        }
    }
    table
}

proptest! {
    /// Export → import into a fresh manager preserves semantics exactly.
    #[test]
    fn round_trip_is_semantic_identity(exprs in proptest::collection::vec(arb_expr(NVARS, 4), 1..4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let roots: Vec<(String, Bdd)> = exprs
            .iter()
            .enumerate()
            .map(|(i, e)| (format!("f{i}"), build(&mut m, &vars, e)))
            .collect();
        let tables: Vec<u64> = roots.iter().map(|(_, f)| truth_table(&m, *f)).collect();

        let text = store::export(&m, &roots);
        let mut fresh = BddManager::new();
        let rebuilt = store::import(&mut fresh, &text).expect("well-formed store");

        prop_assert_eq!(rebuilt.len(), roots.len());
        prop_assert_eq!(fresh.var_count(), NVARS);
        for (i, ((name, g), (orig_name, _))) in rebuilt.iter().zip(&roots).enumerate() {
            prop_assert_eq!(name, orig_name);
            prop_assert_eq!(
                truth_table(&fresh, *g),
                tables[i],
                "root {} changed semantics across the round trip",
                name
            );
        }
    }

    /// Complement-edge DAGs survive the trip: a root set that forces
    /// complemented edges (every function paired with its negation) is
    /// rebuilt with both its semantics and its complement pairing (by handle
    /// identity, the canonicity guarantee).
    #[test]
    fn complement_dags_round_trip(
        exprs in proptest::collection::vec(arb_expr(NVARS, 4), 1..3),
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let mut roots: Vec<(String, Bdd)> = Vec::new();
        for (i, e) in exprs.iter().enumerate() {
            let f = build(&mut m, &vars, e);
            let nf = m.not(f);
            roots.push((format!("f{i}"), f));
            roots.push((format!("nf{i}"), nf));
        }
        let tables: Vec<u64> = roots.iter().map(|(_, f)| truth_table(&m, *f)).collect();

        let text = store::export(&m, &roots);
        let mut fresh = BddManager::new();
        let rebuilt = store::import(&mut fresh, &text).expect("well-formed store");

        prop_assert_eq!(rebuilt.len(), roots.len());
        for (i, (name, g)) in rebuilt.iter().enumerate() {
            prop_assert_eq!(
                truth_table(&fresh, *g),
                tables[i],
                "root {} changed semantics across the round trip",
                name
            );
        }
        for pair in rebuilt.chunks(2) {
            let (f, nf) = (pair[0].1, pair[1].1);
            prop_assert_eq!(fresh.not(f), nf, "complement pairing must survive");
        }
    }

    /// The export text is canonical: re-exporting the rebuilt functions from
    /// the fresh manager reproduces the original bytes.
    #[test]
    fn export_is_canonical_across_managers(expr in arb_expr(NVARS, 4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &expr);
        let text = store::export(&m, &[("f".to_owned(), f)]);

        let mut fresh = BddManager::new();
        let rebuilt = store::import(&mut fresh, &text).expect("well-formed store");
        let again = store::export(&fresh, &rebuilt);
        prop_assert_eq!(text, again);
    }
}

/// A reached-state set — the expensive artifact the cache persists — survives
/// the round trip: a 2-bit counter with an enable input has all four states
/// reachable, and the rebuilt characteristic function agrees on every state.
#[test]
fn reached_state_set_round_trips() {
    let mut m = BddManager::new();
    let en = m.new_var();
    let ps = m.new_vars(2);
    let ns = m.new_vars(2);
    // next0 = ps0 XOR en; next1 = ps1 XOR (en AND ps0).
    let (env, p0, p1) = (m.var(en), m.var(ps[0]), m.var(ps[1]));
    let n0f = m.xor(p0, env);
    let carry = m.and(env, p0);
    let n1f = m.xor(p1, carry);
    let (n0, n1) = (m.var(ns[0]), m.var(ns[1]));
    let part0 = m.xnor(n0, n0f);
    let part1 = m.xnor(n1, n1f);
    let np0 = m.not(p0);
    let np1 = m.not(p1);
    let init = m.and(np0, np1);
    let ts = TransitionSystem::from_partitions(
        &mut m,
        vec![en],
        ps.clone(),
        ns.clone(),
        vec![part0, part1],
        init,
    );
    let reached = ts.reachable(&mut m);
    assert!(reached.states.is_true() || !reached.states.is_const());

    let text = store::export(&m, &[("reached".to_owned(), reached.states)]);
    let mut fresh = BddManager::new();
    let rebuilt = store::import(&mut fresh, &text).expect("well-formed store");
    assert_eq!(rebuilt.len(), 1);
    let g = rebuilt[0].1;
    for state in 0..4u64 {
        let holds_orig = m.eval(reached.states, |v| {
            ps.iter()
                .position(|&p| p == v)
                .is_some_and(|i| state >> i & 1 == 1)
        });
        let holds_new = fresh.eval(g, |v| {
            ps.iter()
                .position(|&p| p == v)
                .is_some_and(|i| state >> i & 1 == 1)
        });
        assert_eq!(holds_orig, holds_new, "state {state} membership changed");
    }
}
