//! A validity checker for quantifier-free formulas over the logic of equality
//! with uninterpreted functions (EUF).
//!
//! The checker is the decision procedure the Burch–Dill flushing method needs:
//! the correctness condition produced by [`crate::flushing`] is a ground
//! formula whose only interpreted symbols are the Boolean connectives, `=` and
//! `ite` (array reads and writes have already been rewritten away by
//! [`crate::TermManager::select`]). Validity is decided by the classic lazy
//! combination:
//!
//! 1. enumerate assignments to the Boolean *atoms* (equalities and Boolean
//!    variables) by case splitting, simplifying the formula after every
//!    decision, and
//! 2. at every propositionally satisfying leaf, check the conjunction of
//!    decided equality literals for consistency with **congruence closure**
//!    (Nelson–Oppen style union-find with congruence propagation).
//!
//! A satisfying, EUF-consistent assignment of the *negation* of the formula is
//! a counterexample; if none exists the formula is valid.

use std::time::{Duration, Instant};

use crate::term::{mix, Term, TermManager, TermNode};

/// One decided atom in a counterexample.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AtomAssignment {
    /// Rendering of the atom (an equality or a Boolean variable).
    pub atom: String,
    /// The truth value assigned to it.
    pub value: bool,
}

/// A counterexample to validity: an EUF-consistent assignment of the atoms
/// under which the formula evaluates to `false`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct EufCounterexample {
    /// The decided atoms, in decision order.
    pub assignments: Vec<AtomAssignment>,
}

impl std::fmt::Display for EufCounterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.assignments.is_empty() {
            return write!(f, "(unconditionally false)");
        }
        for (i, a) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} := {}", a.atom, a.value)?;
        }
        Ok(())
    }
}

/// Outcome of a validity check, with the statistics the benchmarks report.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EufReport {
    /// `None` if the formula is valid, otherwise a counterexample.
    pub counterexample: Option<EufCounterexample>,
    /// Number of case splits explored.
    pub splits: usize,
    /// Number of congruence-closure consistency checks performed.
    pub closure_checks: usize,
}

impl EufReport {
    /// `true` iff the checked formula is valid.
    pub fn valid(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Decides validity of the Boolean term `formula`.
///
/// # Example
///
/// ```
/// use pv_flush::{check_valid, Sort, TermManager};
///
/// let mut t = TermManager::new();
/// let a = t.var("a", Sort::Data);
/// let b = t.var("b", Sort::Data);
/// let fa = t.app("f", &[a]);
/// let fb = t.app("f", &[b]);
/// let premise = t.eq(a, b);
/// let conclusion = t.eq(fa, fb);
/// let congruence = t.implies(premise, conclusion);
/// assert!(check_valid(&mut t, congruence).valid());
/// let backwards = t.implies(conclusion, premise);
/// assert!(!check_valid(&mut t, backwards).valid());
/// ```
pub fn check_valid(terms: &mut TermManager, formula: Term) -> EufReport {
    let negated = terms.not(formula);
    let mut search = Search::new(terms);
    let counterexample = search.find_model(negated, &mut Vec::new());
    EufReport {
        counterexample,
        splits: search.splits,
        closure_checks: search.closure_checks,
    }
}

/// Decides satisfiability of the Boolean term `formula` (used by tests and by
/// the benchmarks to size the search space). Returns a model if one exists.
pub fn check_sat(terms: &mut TermManager, formula: Term) -> Option<EufCounterexample> {
    Search::new(terms).find_model(formula, &mut Vec::new())
}

// ------------------------------------------------------------------- cubes --
//
// The deterministic case-split decomposition the parallel flushing verifier
// fans out: the first (up to) `max_atoms` *pure* atoms of the formula — atoms
// that contain no other atom as a subterm, so deciding them never pushes an
// equality with an undecided `ite` condition onto the trail — are expanded
// into every truth assignment. Cube 0 assigns them all `true` and the cubes
// are ordered exactly as the sequential depth-first search (true branch
// first) visits those assignments, so "the lowest-indexed failing cube" is a
// deterministic notion independent of worker count.

/// A fixed assignment to the leading pure atoms of a formula: one unit of
/// parallel work.
pub(crate) type Cube = Vec<(Term, bool)>;

/// Splits `formula` into `2^j` cubes over its first `j ≤ max_atoms` pure
/// atoms, in depth-first (true-branch-first) order. With no pure atoms the
/// result is the single empty cube.
pub(crate) fn split_cubes(terms: &TermManager, formula: Term, max_atoms: usize) -> Vec<Cube> {
    let pure = terms.innermost_atoms(formula, max_atoms);
    let j = pure.len();
    (0..1usize << j)
        .map(|c| {
            pure.iter()
                .enumerate()
                // Atom 0 is the outermost decision: the true branch comes
                // first, so it owns the lower half of the cube indices.
                .map(|(i, &a)| (a, c >> (j - 1 - i) & 1 == 0))
                .collect()
        })
        .collect()
}

/// Outcome of searching one cube: the per-cube statistics the flushing
/// verifier merges deterministically in cube order.
#[derive(Clone, Debug)]
pub(crate) struct CubeReport {
    /// Model of `formula ∧ cube` (its trail includes the cube literals), if
    /// any.
    pub counterexample: Option<EufCounterexample>,
    /// Case splits explored (the cube's own literals count as one each).
    pub splits: usize,
    /// Congruence-closure consistency checks performed.
    pub closure_checks: usize,
    /// Wall-clock time of this cube's search (the only nondeterministic
    /// field).
    pub wall: Duration,
}

/// Searches one cube of `formula` for an EUF-consistent model. Pure: clones
/// the term manager, so cube searches run concurrently over a shared
/// `&TermManager`.
///
/// The per-cube clone is what makes the report thread-count-invariant, not
/// just a convenience: term ids depend on interning order, [`TermManager::eq`]
/// orients equalities by id, and the search's atom choice follows the
/// resulting structure — so a manager reused across cubes would make one
/// cube's statistics depend on which cubes (on which worker) ran before it.
/// Starting every cube from the pristine base manager removes that coupling;
/// the clone itself is a fraction of a percent of a cube's search cost.
pub(crate) fn check_cube(base: &TermManager, formula: Term, cube: &[(Term, bool)]) -> CubeReport {
    let started = Instant::now();
    let mut terms = base.clone();
    let mut search = Search::new(&mut terms);
    let mut trail: Vec<(Term, bool)> = Vec::with_capacity(cube.len());
    let mut simplified = formula;
    let mut consistent = true;
    for &(atom, value) in cube {
        search.splits += 1;
        simplified = search.terms.assign(simplified, atom, value);
        trail.push((atom, value));
        if !search.consistent(&trail) {
            // The cube's own literals are contradictory: no model here. The
            // sequential search prunes this branch the same way.
            consistent = false;
            break;
        }
    }
    let counterexample = if consistent {
        search.find_model(simplified, &mut trail)
    } else {
        None
    };
    CubeReport {
        counterexample,
        splits: search.splits,
        closure_checks: search.closure_checks,
        wall: started.elapsed(),
    }
}

struct Search<'a> {
    terms: &'a mut TermManager,
    splits: usize,
    closure_checks: usize,
    closure: Closure,
}

impl<'a> Search<'a> {
    fn new(terms: &'a mut TermManager) -> Self {
        Search {
            terms,
            splits: 0,
            closure_checks: 0,
            closure: Closure::default(),
        }
    }
}

impl Search<'_> {
    /// Depth-first search for an EUF-consistent model of `formula` under the
    /// literals already decided in `trail`.
    fn find_model(
        &mut self,
        formula: Term,
        trail: &mut Vec<(Term, bool)>,
    ) -> Option<EufCounterexample> {
        if self.terms.is_false(formula) {
            return None;
        }
        // Split on an *innermost* atom — one that contains no other atom of the
        // formula as a subterm. Deciding innermost atoms first guarantees that
        // by the time an equality literal is pushed on the trail, every
        // if-then-else inside it has a constant condition and has therefore
        // been simplified away, so the congruence-closure leaf check only ever
        // sees pure EUF literals.
        match self.terms.first_innermost_atom(formula) {
            None => {
                // No atoms left: the formula is a Boolean constant.
                if self.terms.is_true(formula) && self.consistent(trail) {
                    Some(self.counterexample(trail))
                } else {
                    None
                }
            }
            Some(atom) => {
                for value in [true, false] {
                    self.splits += 1;
                    let simplified = self.terms.assign(formula, atom, value);
                    trail.push((atom, value));
                    // Prune decisions that are already EUF-inconsistent; this
                    // keeps the search from exploring both polarities of
                    // equalities that congruence has determined.
                    if self.consistent(trail) {
                        if let Some(cex) = self.find_model(simplified, trail) {
                            trail.pop();
                            return Some(cex);
                        }
                    }
                    trail.pop();
                }
                None
            }
        }
    }

    fn counterexample(&self, trail: &[(Term, bool)]) -> EufCounterexample {
        EufCounterexample {
            assignments: trail
                .iter()
                .map(|&(atom, value)| AtomAssignment {
                    atom: self.terms.to_string(atom),
                    value,
                })
                .collect(),
        }
    }

    /// Congruence-closure consistency of the decided equality literals.
    fn consistent(&mut self, trail: &[(Term, bool)]) -> bool {
        self.closure_checks += 1;
        self.closure.check(self.terms, trail)
    }
}

/// Marks a term the current check has not registered, and an empty
/// signature-table slot.
const NIL: u32 = u32::MAX;

/// Union-find with congruence propagation over the sub-DAG reachable from the
/// asserted literals, in arrays indexed by term id. One closure serves every
/// check of a search: a check registers the terms it touches and resets only
/// those.
#[derive(Default)]
struct Closure {
    /// Union-find parent by term id; `NIL` for an unregistered term.
    parent: Vec<u32>,
    /// The terms the current check registered.
    registered: Vec<Term>,
    /// The registered application-like nodes (uninterpreted applications,
    /// selects, stores, undecided `ite`s and equalities), for congruence
    /// propagation.
    apps: Vec<Term>,
    disequal: Vec<(Term, Term)>,
    /// One propagation pass's open-addressed signature table of `apps`
    /// entries (`NIL` marks an empty slot).
    table: Vec<u32>,
}

impl Closure {
    /// `true` if the equality literals of `trail` are consistent: no
    /// asserted disequality has both sides in one congruence class.
    fn check(&mut self, terms: &TermManager, trail: &[(Term, bool)]) -> bool {
        if self.parent.len() < terms.len() {
            self.parent.resize(terms.len(), NIL);
        }
        for &(atom, value) in trail {
            if let TermNode::Eq(a, b) = *terms.node(atom) {
                self.register(terms, a);
                self.register(terms, b);
                if value {
                    self.union(a, b);
                } else {
                    self.disequal.push((a, b));
                }
            }
            // Boolean variables are free: any polarity is consistent.
        }
        self.propagate(terms);
        let consistent = !(0..self.disequal.len()).any(|i| {
            let (a, b) = self.disequal[i];
            self.find(a) == self.find(b)
        });
        for &t in &self.registered {
            self.parent[t.0 as usize] = NIL;
        }
        self.registered.clear();
        self.apps.clear();
        self.disequal.clear();
        consistent
    }

    fn register(&mut self, terms: &TermManager, t: Term) {
        if self.parent[t.0 as usize] != NIL {
            return;
        }
        self.parent[t.0 as usize] = t.0;
        self.registered.push(t);
        let node = terms.node(t);
        // Data-level ites whose condition was not (or not yet) decided, and
        // equalities inside such conditions, are opaque applications too.
        if let TermNode::App(..)
        | TermNode::Select(..)
        | TermNode::Store(..)
        | TermNode::Ite(..)
        | TermNode::Eq(..) = node
        {
            self.apps.push(t);
            for &c in node.children().iter() {
                self.register(terms, c);
            }
        }
    }

    fn find(&mut self, t: Term) -> u32 {
        let mut root = t.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut x = t.0;
        while x != root {
            let up = self.parent[x as usize];
            self.parent[x as usize] = root;
            x = up;
        }
        root
    }

    /// Merges the classes of `a` and `b`; `true` if they were distinct.
    fn union(&mut self, a: Term, b: Term) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra as usize] = rb;
        ra != rb
    }

    /// Hash of an application's signature under the current partition: its
    /// kind, its symbol if it is an uninterpreted application, and the roots
    /// of its arguments.
    fn signature_hash(&mut self, terms: &TermManager, t: Term) -> u64 {
        let node = terms.node(t);
        let mut h = node.head_hash();
        for &c in node.children().iter() {
            h = mix(h, u64::from(self.find(c)));
        }
        h
    }

    /// `true` if `a` and `b` have the same signature under the current
    /// partition. Signatures are keyed by node kind, so an uninterpreted
    /// function named `select` is never congruent with an array read.
    fn congruent(&mut self, terms: &TermManager, a: Term, b: Term) -> bool {
        let (na, nb) = (terms.node(a), terms.node(b));
        if na.kind() != nb.kind() {
            return false;
        }
        if let (TermNode::App(f, _), TermNode::App(g, _)) = (na, nb) {
            if f != g {
                return false;
            }
        }
        let (ka, kb) = (na.children(), nb.children());
        ka.len() == kb.len()
            && ka
                .iter()
                .zip(kb.iter())
                .all(|(&x, &y)| self.find(x) == self.find(y))
    }

    /// Congruence propagation to a fixed point: applications of the same
    /// symbol to congruent arguments are merged. A pass that merges nothing
    /// saw every signature at its final roots, so the partition is closed.
    fn propagate(&mut self, terms: &TermManager) {
        let size = (2 * self.apps.len()).next_power_of_two().max(16);
        let shift = 64 - size.trailing_zeros();
        loop {
            let mut merged = false;
            self.table.clear();
            self.table.resize(size, NIL);
            for i in 0..self.apps.len() {
                let t = self.apps[i];
                let mut slot = (self.signature_hash(terms, t) >> shift) as usize;
                loop {
                    let other = self.table[slot];
                    if other == NIL {
                        self.table[slot] = t.0;
                        break;
                    }
                    if self.congruent(terms, t, Term(other)) {
                        merged |= self.union(t, Term(other));
                        break;
                    }
                    slot = (slot + 1) & (size - 1);
                }
            }
            if !merged {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    fn manager() -> TermManager {
        TermManager::new()
    }

    #[test]
    fn reflexivity_symmetry_transitivity_are_valid() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let c = t.var("c", Sort::Data);
        let refl = t.eq(a, a);
        assert!(check_valid(&mut t, refl).valid());
        let ab = t.eq(a, b);
        let ba = t.eq(b, a);
        let sym = t.implies(ab, ba);
        assert!(check_valid(&mut t, sym).valid());
        let bc = t.eq(b, c);
        let ac = t.eq(a, c);
        let pre = t.and(ab, bc);
        let trans = t.implies(pre, ac);
        assert!(check_valid(&mut t, trans).valid());
    }

    #[test]
    fn congruence_is_valid_and_its_converse_is_not() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let fa = t.app("f", &[a]);
        let fb = t.app("f", &[b]);
        let ab = t.eq(a, b);
        let fafb = t.eq(fa, fb);
        let cong = t.implies(ab, fafb);
        assert!(check_valid(&mut t, cong).valid());
        let converse = t.implies(fafb, ab);
        let report = check_valid(&mut t, converse);
        assert!(!report.valid());
        let cex = report.counterexample.expect("counterexample");
        assert!(cex.assignments.iter().any(|a| !a.value), "{cex}");
    }

    #[test]
    fn two_step_congruence_chains() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let fa = t.app("f", &[a]);
        let fb = t.app("f", &[b]);
        let ffa = t.app("f", &[fa]);
        let ffb = t.app("f", &[fb]);
        let ab = t.eq(a, b);
        let goal = t.eq(ffa, ffb);
        let vc = t.implies(ab, goal);
        assert!(check_valid(&mut t, vc).valid());
    }

    #[test]
    fn ite_conditions_are_case_split() {
        let mut t = manager();
        let c = t.var("c", Sort::Bool);
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let picked = t.ite(c, a, b);
        let ea = t.eq(picked, a);
        let eb = t.eq(picked, b);
        let either = t.or(ea, eb);
        assert!(check_valid(&mut t, either).valid());
        // But the ite is not always equal to `a`.
        assert!(!check_valid(&mut t, ea).valid());
    }

    #[test]
    fn array_axioms_via_rewriting() {
        let mut t = manager();
        let rf = t.var("rf", Sort::Array);
        let i = t.var("i", Sort::Data);
        let j = t.var("j", Sort::Data);
        let v = t.var("v", Sort::Data);
        let stored = t.store(rf, i, v);
        // select(store(rf,i,v), i) = v is valid.
        let ri = t.select(stored, i);
        let hit = t.eq(ri, v);
        assert!(check_valid(&mut t, hit).valid());
        // i ≠ j ⇒ select(store(rf,i,v), j) = select(rf, j).
        let rj = t.select(stored, j);
        let plain = t.select(rf, j);
        let ij = t.eq(i, j);
        let nij = t.not(ij);
        let same = t.eq(rj, plain);
        let frame = t.implies(nij, same);
        assert!(check_valid(&mut t, frame).valid());
        // Without the disequality premise the frame property is not valid.
        assert!(!check_valid(&mut t, same).valid());
    }

    #[test]
    fn propositional_structure_is_respected() {
        let mut t = manager();
        let p = t.var("p", Sort::Bool);
        let q = t.var("q", Sort::Bool);
        let pq = t.and(p, q);
        let qp = t.and(q, p);
        let commut = t.iff(pq, qp);
        assert!(check_valid(&mut t, commut).valid());
        let bad = t.implies(p, q);
        assert!(!check_valid(&mut t, bad).valid());
        // Statistics are populated.
        let r = check_valid(&mut t, commut);
        assert!(r.splits > 0 && r.closure_checks > 0);
    }

    #[test]
    fn satisfiability_entry_point() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let ab = t.eq(a, b);
        let nab = t.not(ab);
        assert!(check_sat(&mut t, ab).is_some());
        assert!(check_sat(&mut t, nab).is_some());
        let contradiction = t.and(ab, nab);
        assert!(check_sat(&mut t, contradiction).is_none());
    }

    #[test]
    fn cube_decomposition_covers_the_search_space() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let c = t.var("c", Sort::Data);
        let ab = t.eq(a, b);
        let bc = t.eq(b, c);
        let ac = t.eq(a, c);
        // Transitivity is valid: the negation has no model in any cube.
        let pre = t.and(ab, bc);
        let trans = t.implies(pre, ac);
        let neg = t.not(trans);
        let cubes = split_cubes(&t, neg, 2);
        assert_eq!(cubes.len(), 4, "two pure atoms expand to four cubes");
        for cube in &cubes {
            let report = check_cube(&t, neg, cube);
            assert!(report.counterexample.is_none());
            assert!(report.splits >= cube.len());
        }
        // A satisfiable conjunction has a model in its all-true cube 0 (the
        // branch the sequential depth-first search visits first), and the
        // model's trail leads with the cube literals.
        let sat = t.and(ab, bc);
        let cubes = split_cubes(&t, sat, 2);
        let first = check_cube(&t, sat, &cubes[0]);
        let cex = first.counterexample.expect("cube 0 holds the DFS model");
        assert!(cex.assignments.iter().all(|asg| asg.value));
        // Contradictory cube literals are pruned without a search.
        let contradiction = {
            let nab = t.not(ab);
            t.and(ab, nab)
        };
        let cubes = split_cubes(&t, contradiction, 3);
        for cube in &cubes {
            assert!(check_cube(&t, contradiction, cube).counterexample.is_none());
        }
    }

    #[test]
    fn an_uninterpreted_select_is_not_congruent_with_an_array_read() {
        // Signatures are keyed by node kind, not by display name: a user
        // function that happens to be called `select` is just a function.
        let mut t = manager();
        let a = t.var("a", Sort::Array);
        let i = t.var("i", Sort::Data);
        let read = t.select(a, i);
        let lookalike = t.app("select", &[a, i]);
        assert_eq!(t.to_string(read), t.to_string(lookalike));
        let same = t.eq(read, lookalike);
        assert!(!check_valid(&mut t, same).valid());
        // Congruence within each kind still holds.
        let j = t.var("j", Sort::Data);
        let ij = t.eq(i, j);
        let reads = {
            let rj = t.select(a, j);
            t.eq(read, rj)
        };
        let apps = {
            let fj = t.app("select", &[a, j]);
            t.eq(lookalike, fj)
        };
        let both = t.and(reads, apps);
        let congruence = t.implies(ij, both);
        assert!(check_valid(&mut t, congruence).valid());
    }

    #[test]
    fn congruence_covers_every_arity() {
        let mut t = manager();
        let xs: Vec<Term> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|n| t.var(n, Sort::Data))
            .collect();
        let ys: Vec<Term> = ["p", "q", "r", "s", "u"]
            .iter()
            .map(|n| t.var(n, Sort::Data))
            .collect();
        let pairs: Vec<Term> = xs.iter().zip(&ys).map(|(&x, &y)| t.eq(x, y)).collect();
        let premise = t.and_many(&pairs);
        let fx = t.app("f", &xs);
        let fy = t.app("f", &ys);
        let goal = t.eq(fx, fy);
        let vc = t.implies(premise, goal);
        assert!(check_valid(&mut t, vc).valid());
        // Applications of one name at different arities are unrelated.
        let short = t.app("f", &xs[..4]);
        let unrelated = t.eq(fx, short);
        assert!(!check_valid(&mut t, unrelated).valid());
        // Dropping one premise breaks the five-argument congruence.
        let partial = t.and_many(&pairs[..4]);
        let weak = t.implies(partial, goal);
        assert!(!check_valid(&mut t, weak).valid());
    }

    #[test]
    fn congruence_with_disequalities_detects_conflicts() {
        let mut t = manager();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let c = t.var("c", Sort::Data);
        let ab = t.eq(a, b);
        let bc = t.eq(b, c);
        let ac = t.eq(a, c);
        let nac = t.not(ac);
        let both = t.and(ab, bc);
        let conflict = t.and(both, nac);
        assert!(check_sat(&mut t, conflict).is_none());
    }
}
