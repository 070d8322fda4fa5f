//! Property-based tests of the ROBDD manager: Boolean-algebra laws, agreement
//! with truth-table semantics, quantifier laws, variable renaming,
//! bit-vector arithmetic against native `u64` arithmetic, and canonicity
//! under the bounded, lossy computed table and the resizing unique table.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use pv_bdd::{Bdd, BddManager, BddVec, Var};

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

/// A truth table over `n ≥ 6` variables: bit `a % 64` of word `a / 64` is
/// the function's value under the assignment whose bit `i` is variable `i`.
type Table = Vec<u64>;

fn var_table(n: usize, i: usize) -> Table {
    (0..1usize << n)
        .step_by(64)
        .map(|base| (0..64).fold(0, |w, b| w | u64::from((base + b) >> i & 1 == 1) << b))
        .collect()
}

/// The truth table of `f` read off its diagram: at each node, the high
/// child's table where the node's variable is 1 and the low child's where
/// it is 0.
fn diagram_table(m: &BddManager, f: Bdd, vars: &[Table], memo: &mut HashMap<Bdd, Table>) -> Table {
    if f.is_const() {
        return vec![if f.is_true() { !0 } else { 0 }; vars[0].len()];
    }
    if let Some(t) = memo.get(&f) {
        return t.clone();
    }
    let v = &vars[m.top_var(f).expect("non-constant").index()];
    let lo = diagram_table(m, m.low(f), vars, memo);
    let hi = diagram_table(m, m.high(f), vars, memo);
    let t: Table = (0..v.len()).map(|w| hi[w] & v[w] | lo[w] & !v[w]).collect();
    memo.insert(f, t.clone());
    t
}

/// SplitMix64, for drawing random circuits from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// An operand for the next gate: a literal, or one of the functions built
/// so far, possibly negated.
fn operand(
    m: &mut BddManager,
    rng: &mut Rng,
    vars: &[Var],
    tables: &[Table],
    built: &[(Bdd, Table)],
) -> (Bdd, Table) {
    let (f, t) = if built.is_empty() || rng.below(4) == 0 {
        let i = rng.below(vars.len() as u64) as usize;
        (m.var(vars[i]), tables[i].clone())
    } else {
        built[rng.below(built.len() as u64) as usize].clone()
    };
    if rng.below(2) == 0 {
        (m.not(f), t.iter().map(|w| !w).collect())
    } else {
        (f, t)
    }
}

/// The smallest computed table has 2^12 slots.
const MIN_TABLE_SLOTS: usize = 1 << 12;

/// Node-store doublings from its initial two slots to 2^12. The unique
/// table has two buckets per slot above a 2^10-bucket floor, so the store
/// capacities 2^10, 2^11 and 2^12 each resize it.
const STORE_DOUBLINGS: usize = 11;

proptest! {
    /// The BDD of an expression agrees with its truth table on every
    /// assignment, and two syntactically different but equivalent expressions
    /// hash-cons to the same node (canonicity).
    #[test]
    fn bdd_matches_truth_table(e in arb_expr(NVARS, 4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        for assignment in 0u32..1 << NVARS {
            let expected = eval_expr(&e, assignment);
            let got = m.eval(f, |v| assignment >> v.index() & 1 == 1);
            prop_assert_eq!(expected, got);
        }
        // Canonicity: rebuilding the same function yields the same handle.
        let again = build(&mut m, &vars, &e);
        prop_assert_eq!(f, again);
    }

    /// Restriction and the Shannon expansion are consistent, and existential
    /// quantification equals the disjunction of the two cofactors.
    #[test]
    fn quantifier_laws(e in arb_expr(NVARS, 4), idx in 0..NVARS) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        let v = vars[idx];
        let f1 = m.restrict(f, v, true);
        let f0 = m.restrict(f, v, false);
        let lit = m.var(v);
        let shannon = m.ite(lit, f1, f0);
        prop_assert_eq!(shannon, f);
        let ex = m.exists(f, &[v]);
        let or = m.or(f0, f1);
        prop_assert_eq!(ex, or);
        let fa = m.forall(f, &[v]);
        let and = m.and(f0, f1);
        prop_assert_eq!(fa, and);
        // and_exists agrees with and-then-exists against a second formula.
        let g = m.xor(lit, f);
        let direct = m.and_exists(f, g, &[v]);
        let composed = { let t = m.and(f, g); m.exists(t, &[v]) };
        prop_assert_eq!(direct, composed);
    }

    /// Renaming present-state variables to next-state variables in one
    /// `replace` pass equals composing each next-state projection in, one
    /// variable at a time, under both order-preserving layouts a transition
    /// system uses: interleaved (`p0 n0 p1 n1 …`) and blocked (`p0 p1 … n0
    /// n1 …`).
    #[test]
    fn replace_equals_per_variable_compose(e in arb_expr(NVARS, 4), blocked in proptest::bool::ANY) {
        let mut m = BddManager::new();
        let (present, next) = if blocked {
            let present = m.new_vars(NVARS);
            (present, m.new_vars(NVARS))
        } else {
            let mut families = m.new_vars_interleaved(2, NVARS);
            let next = families.pop().expect("two families");
            (families.pop().expect("two families"), next)
        };
        let f = build(&mut m, &present, &e);
        let map: HashMap<Var, Var> = present.iter().copied().zip(next.iter().copied()).collect();
        let renamed = m.replace(f, &map);
        let mut composed = f;
        for (&p, &n) in present.iter().zip(&next) {
            let projection = m.var(n);
            composed = m.compose(composed, p, projection);
        }
        prop_assert_eq!(renamed, composed);
        prop_assert!(m.support(renamed).iter().all(|v| next.contains(v)));
    }

    /// `support_reaches` over several roots agrees with the union of their
    /// supports at every threshold: on random functions, on their negations
    /// (complemented root edges), and on root sets whose members share
    /// subgraphs. It reads the store only, so no counter moves.
    #[test]
    fn support_reaches_agrees_with_support((fe, ge) in (arb_expr(NVARS, 4), arb_expr(NVARS, 4))) {
        let mut m = BddManager::new();
        // The extra variable is a threshold past every support.
        let vars = m.new_vars(NVARS + 1);
        let f = build(&mut m, &vars, &fe);
        let g = build(&mut m, &vars, &ge);
        let nf = m.not(f);
        let both = m.and(f, g);
        let before = m.stats();
        let root_sets: [&[Bdd]; 5] = [&[f], &[nf], &[f, g], &[g, both, nf], &[]];
        for roots in root_sets {
            let support: BTreeSet<Var> = roots.iter().flat_map(|&r| m.support(r)).collect();
            for &first in &vars {
                let expected = support.iter().any(|&v| v >= first);
                prop_assert_eq!(m.support_reaches(roots, first), expected);
            }
        }
        prop_assert_eq!(m.stats(), before);
    }

    /// Model counting matches brute-force enumeration.
    #[test]
    fn sat_count_matches_enumeration(e in arb_expr(NVARS, 4)) {
        let mut m = BddManager::new();
        let vars = m.new_vars(NVARS);
        let f = build(&mut m, &vars, &e);
        let brute = (0u32..1 << NVARS)
            .filter(|&a| m.eval(f, |v| a >> v.index() & 1 == 1))
            .count();
        prop_assert_eq!(m.sat_count(f), brute as f64);
        prop_assert_eq!(m.is_satisfiable(f), brute > 0);
        if let Some(model) = m.sat_one(f) {
            let value = m.eval(f, |v| model.iter().find(|&&(w, _)| w == v).map(|&(_, b)| b).unwrap_or(false));
            prop_assert!(value);
        }
    }

    /// Bit-vector arithmetic agrees with `u64` arithmetic modulo 2^width.
    #[test]
    fn bitvector_arithmetic(a in 0u64..256, b in 0u64..256, width in 1usize..9) {
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut m = BddManager::new();
        let va = BddVec::constant(&m, a, width);
        let vb = BddVec::constant(&m, b, width);
        prop_assert_eq!(va.add(&mut m, &vb).as_const(&m), Some((a + b) & mask));
        prop_assert_eq!(va.sub(&mut m, &vb).as_const(&m), Some(a.wrapping_sub(b) & mask));
        prop_assert_eq!(va.xor(&mut m, &vb).as_const(&m), Some(a ^ b));
        prop_assert_eq!(va.eq(&mut m, &vb).is_true(), a == b);
        prop_assert_eq!(va.ult(&mut m, &vb).is_true(), a < b);
        let signed = |x: u64| if x >> (width - 1) & 1 == 1 { x as i64 - (1 << width) } else { x as i64 };
        prop_assert_eq!(va.slt(&mut m, &vb).is_true(), signed(a) < signed(b));
        prop_assert_eq!(va.sle(&mut m, &vb).is_true(), signed(a) <= signed(b));
        let amt = BddVec::constant(&m, b % width as u64, width);
        let expected_shl = (a << (b % width as u64)) & mask;
        prop_assert_eq!(va.shl(&mut m, &amt).as_const(&m), Some(expected_shl));
    }

    /// The generalized cofactor (constrain) agrees with the original function
    /// on the care set: `constrain(f, c) ∧ c  ==  f ∧ c`, and constraining by
    /// the function itself yields a tautology on the care set.
    #[test]
    fn generalized_cofactor_agrees_on_the_care_set(
        (fe, ce) in (arb_expr(5, 4), arb_expr(5, 4)),
    ) {
        let mut m = BddManager::new();
        let vars = m.new_vars(5);
        let f = build(&mut m, &vars, &fe);
        let c = build(&mut m, &vars, &ce);
        prop_assume!(!c.is_false());
        let g = m.constrain(f, c);
        let left = m.and(g, c);
        let right = m.and(f, c);
        prop_assert_eq!(left, right);
        if !f.is_false() {
            let self_constrained = m.constrain(f, f);
            prop_assert!(self_constrained.is_true());
        }
    }

    /// The computed table is bounded and lossy, and the unique table is
    /// rebuilt at every node-store doubling and every collection. Build
    /// random circuits over 10–12 variables until the engine has allocated
    /// several times the smallest computed table's slot count *and* the
    /// node store has doubled past several unique-table resizes, collecting
    /// over a random subset of the functions built so far after every
    /// batch. Two live handles stay equal exactly when their truth tables
    /// are, and every surviving root still denotes its function.
    #[test]
    fn lossy_computed_table_stays_canonical_across_gc(nvars in 10usize..13, seed in any::<u64>()) {
        let mut m = BddManager::new();
        let vars = m.new_vars(nvars);
        let tables: Vec<Table> = (0..nvars).map(|i| var_table(nvars, i)).collect();
        let mut rng = Rng(seed);
        let mut built: Vec<(Bdd, Table)> = Vec::new();
        let mut rounds = 0;
        while m.total_nodes() < 6 * MIN_TABLE_SLOTS || m.stats().unique_grows < STORE_DOUBLINGS {
            rounds += 1;
            prop_assert!(rounds <= 1000, "the node store stopped growing");
            for _ in 0..16 {
                let (f, tf) = operand(&mut m, &mut rng, &vars, &tables, &built);
                let (g, tg) = operand(&mut m, &mut rng, &vars, &tables, &built);
                let (h, th) = operand(&mut m, &mut rng, &vars, &tables, &built);
                let words = 0..tf.len();
                let gate = match rng.below(4) {
                    0 => (m.and(f, g), words.map(|w| tf[w] & tg[w]).collect()),
                    1 => (m.or(f, g), words.map(|w| tf[w] | tg[w]).collect()),
                    2 => (m.xor(f, g), words.map(|w| tf[w] ^ tg[w]).collect()),
                    _ => (m.ite(f, g, h), words.map(|w| tf[w] & tg[w] | !tf[w] & th[w]).collect()),
                };
                built.push(gate);
            }
            let mut by_table: HashMap<&Table, Bdd> = HashMap::new();
            let mut by_handle: HashMap<Bdd, &Table> = HashMap::new();
            for (f, t) in &built {
                prop_assert_eq!(*by_table.entry(t).or_insert(*f), *f);
                prop_assert_eq!(*by_handle.entry(*f).or_insert(t), t);
            }
            built.retain(|_| rng.below(2) == 0);
            let roots: Vec<Bdd> = built.iter().map(|&(f, _)| f).collect();
            m.gc_with_roots(&roots);
            let mut memo = HashMap::new();
            for (f, t) in &built {
                prop_assert_eq!(&diagram_table(&m, *f, &tables, &mut memo), t);
            }
        }
    }
}
