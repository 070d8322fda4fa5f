//! Hash-consed terms over the logic of equality with uninterpreted functions
//! (EUF), extended with if-then-else and read/write arrays.
//!
//! This is the term language Burch and Dill's flushing method works in: data
//! values are never interpreted, the ALU is an uninterpreted function, the
//! register file is a read/write array, and the only interpreted symbols are
//! Boolean connectives, `=`, `ite`, `select` and `store`. Terms are owned by a
//! [`TermManager`] arena and referenced by small copyable [`Term`] handles, so
//! the deeply recursive structures the method produces never fight the borrow
//! checker and structurally identical subterms are shared.

use std::fmt;
use std::ops::Deref;

/// A handle to a hash-consed term inside a [`TermManager`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Term(pub(crate) u32);

/// Sorts of terms. The checker is untyped at heart; sorts exist to document
/// intent and to catch obvious construction mistakes early.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sort {
    /// Truth values.
    Bool,
    /// Uninterpreted data values (register contents, ALU results, PCs, …).
    Data,
    /// Read/write arrays from data to data (register files, memories).
    Array,
}

/// The shape of one term node.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermNode {
    /// A Boolean constant.
    BoolConst(bool),
    /// A free variable of the given sort.
    Var(String, Sort),
    /// An application of an uninterpreted function to one or more arguments.
    App(String, Vec<Term>),
    /// `if c then t else e` (on data, arrays or Booleans).
    Ite(Term, Term, Term),
    /// Equality between two terms of the same sort.
    Eq(Term, Term),
    /// Boolean negation.
    Not(Term),
    /// Boolean conjunction.
    And(Term, Term),
    /// Boolean disjunction.
    Or(Term, Term),
    /// Array read: `select(array, index)`.
    Select(Term, Term),
    /// Array write: `store(array, index, value)`.
    Store(Term, Term, Term),
}

/// [`TermNode::kind`] of an application.
const APP_KIND: u8 = 2;

impl TermNode {
    /// The node's variant as a small number: two nodes of different kinds
    /// are never congruent, whatever their names.
    pub(crate) fn kind(&self) -> u8 {
        match self {
            TermNode::BoolConst(_) => 0,
            TermNode::Var(..) => 1,
            TermNode::App(..) => APP_KIND,
            TermNode::Ite(..) => 3,
            TermNode::Eq(..) => 4,
            TermNode::Not(_) => 5,
            TermNode::And(..) => 6,
            TermNode::Or(..) => 7,
            TermNode::Select(..) => 8,
            TermNode::Store(..) => 9,
        }
    }

    /// The node's children, in the order every walk visits them.
    pub(crate) fn children(&self) -> Children<'_> {
        match *self {
            TermNode::BoolConst(_) | TermNode::Var(..) => Children::Inline([Term(0); 3], 0),
            TermNode::App(_, ref args) => Children::Args(args),
            TermNode::Not(a) => Children::Inline([a; 3], 1),
            TermNode::Eq(a, b)
            | TermNode::And(a, b)
            | TermNode::Or(a, b)
            | TermNode::Select(a, b) => Children::Inline([a, b, b], 2),
            TermNode::Ite(a, b, c) | TermNode::Store(a, b, c) => Children::Inline([a, b, c], 3),
        }
    }

    /// `true` for the Boolean atoms the EUF search decides: equalities and
    /// Boolean variables.
    pub(crate) fn is_atom(&self) -> bool {
        matches!(self, TermNode::Eq(..) | TermNode::Var(_, Sort::Bool))
    }

    /// Hash of everything in the node's key except its children: its kind,
    /// a constant's value, a variable's sort and a name.
    pub(crate) fn head_hash(&self) -> u64 {
        match self {
            TermNode::BoolConst(v) => hash_head(self.kind(), u64::from(*v), ""),
            TermNode::Var(name, sort) => hash_head(self.kind(), *sort as u64, name),
            TermNode::App(name, _) => hash_head(APP_KIND, 0, name),
            _ => hash_head(self.kind(), 0, ""),
        }
    }
}

/// A node's children: borrowed for an application, copied inline otherwise.
pub(crate) enum Children<'a> {
    Inline([Term; 3], usize),
    Args(&'a [Term]),
}

impl Deref for Children<'_> {
    type Target = [Term];

    fn deref(&self) -> &[Term] {
        match self {
            Children::Inline(kids, len) => &kids[..*len],
            Children::Args(args) => args,
        }
    }
}

/// One step of the multiplicative hash (FxHash's) that keys the unique
/// table and the congruence closure's signatures.
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

fn hash_head(kind: u8, payload: u64, name: &str) -> u64 {
    name.bytes()
        .fold(mix(u64::from(kind), payload), |h, b| mix(h, u64::from(b)))
}

fn hash_children(head: u64, kids: &[Term]) -> u64 {
    kids.iter().fold(head, |h, k| mix(h, u64::from(k.0)))
}

/// The unique-table hash of a node's whole key.
fn hash_node(node: &TermNode) -> u64 {
    hash_children(node.head_hash(), &node.children())
}

/// End of a unique-table chain.
const NIL: u32 = u32::MAX;

/// Smallest unique table: 2^8 buckets.
const MIN_BUCKET_BITS: u32 = 8;

/// Arena owning every term; all construction goes through its methods.
///
/// Each node is stored once. The unique table that hash-conses them is a
/// `Vec` of bucket heads, chained through a per-term `next` id (the design
/// of `pv_bdd`'s unique table), with two buckets per term.
///
/// # Example
///
/// ```
/// use pv_flush::{Sort, TermManager};
///
/// let mut t = TermManager::new();
/// let a = t.var("a", Sort::Data);
/// let b = t.var("b", Sort::Data);
/// let fa = t.app("f", &[a]);
/// let fb = t.app("f", &[b]);
/// let premise = t.eq(a, b);
/// let conclusion = t.eq(fa, fb);
/// let vc = t.implies(premise, conclusion);
/// assert_eq!(t.to_string(vc), "(=> (= a b) (= (f a) (f b)))");
/// ```
#[derive(Clone, Debug)]
pub struct TermManager {
    nodes: Vec<TermNode>,
    /// Per term: the next term on its unique-table chain (`NIL` ends it).
    next: Vec<u32>,
    /// Per term: whether an atom lies strictly inside it. A term's children
    /// are interned before it, so this is set once, at interning.
    atom_inside: Vec<bool>,
    /// Chain heads of the unique table, indexed by the top hash bits.
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`.
    shift: u32,
    /// [`assign`](Self::assign)'s memo by term id: an entry is live while
    /// its stamp equals `memo_stamp`, so a call forgets the last one's
    /// entries without touching them.
    memo: Vec<(u32, Term)>,
    memo_stamp: u32,
    /// Rewritten application arguments: a stack shared by nested `assign`
    /// frames.
    args: Vec<Term>,
}

impl Default for TermManager {
    fn default() -> Self {
        TermManager {
            nodes: Vec::new(),
            next: Vec::new(),
            atom_inside: Vec::new(),
            buckets: vec![NIL; 1 << MIN_BUCKET_BITS],
            shift: 64 - MIN_BUCKET_BITS,
            memo: Vec::new(),
            memo_stamp: 0,
            args: Vec::new(),
        }
    }
}

impl TermManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        TermManager::default()
    }

    /// Number of distinct (hash-consed) terms created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no terms have been created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The term whose key hashes to `hash` and satisfies `is_key`, if any.
    fn find(&self, hash: u64, is_key: impl Fn(&TermNode) -> bool) -> Option<Term> {
        let mut i = self.buckets[(hash >> self.shift) as usize];
        while i != NIL {
            if is_key(&self.nodes[i as usize]) {
                return Some(Term(i));
            }
            i = self.next[i as usize];
        }
        None
    }

    /// The application of `name` to `args` if it exists, with its key hash.
    fn find_app(&self, name: &str, args: &[Term]) -> (u64, Option<Term>) {
        let hash = hash_children(hash_head(APP_KIND, 0, name), args);
        let found = self.find(
            hash,
            |n| matches!(n, TermNode::App(f, a) if f == name && a == args),
        );
        (hash, found)
    }

    /// Appends a node that is not yet in the table.
    fn insert(&mut self, hash: u64, node: TermNode) -> Term {
        let id = self.nodes.len() as u32;
        let inside = node.children().iter().any(|&c| self.has_atom(c));
        self.nodes.push(node);
        self.next.push(NIL);
        self.atom_inside.push(inside);
        if self.nodes.len() * 2 > self.buckets.len() {
            let bits = self.buckets.len().trailing_zeros() + 1;
            self.buckets = vec![NIL; 1 << bits];
            self.shift = 64 - bits;
            for i in 0..self.nodes.len() {
                let hash = hash_node(&self.nodes[i]);
                self.link(hash, i as u32);
            }
        } else {
            self.link(hash, id);
        }
        Term(id)
    }

    fn link(&mut self, hash: u64, id: u32) {
        let bucket = (hash >> self.shift) as usize;
        self.next[id as usize] = self.buckets[bucket];
        self.buckets[bucket] = id;
    }

    fn intern(&mut self, node: TermNode) -> Term {
        let hash = hash_node(&node);
        match self.find(hash, |n| *n == node) {
            Some(t) => t,
            None => self.insert(hash, node),
        }
    }

    /// The node of a term.
    pub fn node(&self, t: Term) -> &TermNode {
        &self.nodes[t.0 as usize]
    }

    // --------------------------------------------------------- constructors --

    /// The Boolean constant `true`.
    pub fn tru(&mut self) -> Term {
        self.intern(TermNode::BoolConst(true))
    }

    /// The Boolean constant `false`.
    pub fn fls(&mut self) -> Term {
        self.intern(TermNode::BoolConst(false))
    }

    /// A Boolean constant.
    pub fn bool_const(&mut self, value: bool) -> Term {
        self.intern(TermNode::BoolConst(value))
    }

    /// A free variable.
    pub fn var(&mut self, name: &str, sort: Sort) -> Term {
        self.intern(TermNode::Var(name.to_owned(), sort))
    }

    /// An application of the uninterpreted function `name`.
    ///
    /// # Panics
    /// Panics if `args` is empty (a 0-ary function is a [`TermManager::var`]).
    pub fn app(&mut self, name: &str, args: &[Term]) -> Term {
        assert!(!args.is_empty(), "0-ary applications should be variables");
        match self.find_app(name, args) {
            (_, Some(t)) => t,
            (hash, None) => self.insert(hash, TermNode::App(name.to_owned(), args.to_vec())),
        }
    }

    /// `if c then t else e`, with constant folding and sharing-friendly
    /// simplifications.
    pub fn ite(&mut self, c: Term, t: Term, e: Term) -> Term {
        match self.node(c) {
            TermNode::BoolConst(true) => return t,
            TermNode::BoolConst(false) => return e,
            _ => {}
        }
        if t == e {
            return t;
        }
        // ite(c, true, false) = c and ite(c, false, true) = ¬c.
        if let (TermNode::BoolConst(tv), TermNode::BoolConst(ev)) = (self.node(t), self.node(e)) {
            return match (tv, ev) {
                (true, false) => c,
                (false, true) => self.not(c),
                _ => unreachable!("t == e handled above"),
            };
        }
        self.intern(TermNode::Ite(c, t, e))
    }

    /// Equality, oriented canonically so `eq(a, b)` and `eq(b, a)` share a
    /// node; `eq(a, a)` folds to `true`. Equality between Boolean terms is
    /// expanded into `(a ∧ b) ∨ (¬a ∧ ¬b)` so the EUF checker never has to
    /// treat a Boolean equivalence as an opaque atom.
    pub fn eq(&mut self, a: Term, b: Term) -> Term {
        if a == b {
            return self.tru();
        }
        if self.is_boolean(a) || self.is_boolean(b) {
            let both = self.and(a, b);
            let na = self.not(a);
            let nb = self.not(b);
            let neither = self.and(na, nb);
            return self.or(both, neither);
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        self.intern(TermNode::Eq(lo, hi))
    }

    /// `true` if the term is Boolean-sorted (by construction).
    pub fn is_boolean(&self, t: Term) -> bool {
        match self.node(t) {
            TermNode::BoolConst(_)
            | TermNode::Eq(..)
            | TermNode::Not(_)
            | TermNode::And(..)
            | TermNode::Or(..) => true,
            TermNode::Var(_, sort) => *sort == Sort::Bool,
            TermNode::Ite(_, a, _) => self.is_boolean(*a),
            TermNode::App(..) | TermNode::Select(..) | TermNode::Store(..) => false,
        }
    }

    /// Boolean negation with involution and constant folding.
    pub fn not(&mut self, a: Term) -> Term {
        match self.node(a) {
            TermNode::BoolConst(v) => {
                let v = !v;
                self.bool_const(v)
            }
            TermNode::Not(inner) => *inner,
            _ => self.intern(TermNode::Not(a)),
        }
    }

    /// Boolean conjunction with unit/zero/idempotence folding.
    pub fn and(&mut self, a: Term, b: Term) -> Term {
        match (self.node(a), self.node(b)) {
            (TermNode::BoolConst(false), _) | (_, TermNode::BoolConst(false)) => self.fls(),
            (TermNode::BoolConst(true), _) => b,
            (_, TermNode::BoolConst(true)) => a,
            _ if a == b => a,
            _ => self.intern(TermNode::And(a, b)),
        }
    }

    /// Boolean disjunction with unit/zero/idempotence folding.
    pub fn or(&mut self, a: Term, b: Term) -> Term {
        match (self.node(a), self.node(b)) {
            (TermNode::BoolConst(true), _) | (_, TermNode::BoolConst(true)) => self.tru(),
            (TermNode::BoolConst(false), _) => b,
            (_, TermNode::BoolConst(false)) => a,
            _ if a == b => a,
            _ => self.intern(TermNode::Or(a, b)),
        }
    }

    /// Conjunction of a slice of terms.
    pub fn and_many(&mut self, terms: &[Term]) -> Term {
        let mut acc = self.tru();
        for &t in terms {
            acc = self.and(acc, t);
        }
        acc
    }

    /// Disjunction of a slice of terms.
    pub fn or_many(&mut self, terms: &[Term]) -> Term {
        let mut acc = self.fls();
        for &t in terms {
            acc = self.or(acc, t);
        }
        acc
    }

    /// Implication `a ⇒ b`.
    pub fn implies(&mut self, a: Term, b: Term) -> Term {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Bi-implication `a ⇔ b`.
    pub fn iff(&mut self, a: Term, b: Term) -> Term {
        self.eq(a, b)
    }

    /// Array read with the read-over-write rewrite applied eagerly:
    /// `select(store(a, i, v), j)` becomes `ite(i = j, v, select(a, j))`.
    pub fn select(&mut self, array: Term, index: Term) -> Term {
        if let TermNode::Store(a, i, v) = self.node(array).clone() {
            let hit = self.eq(i, index);
            let miss = self.select(a, index);
            return self.ite(hit, v, miss);
        }
        if let TermNode::Ite(c, t, e) = self.node(array).clone() {
            // Push reads through array-level if-then-else so stores buried
            // under conditions are still rewritten away.
            let tt = self.select(t, index);
            let ee = self.select(e, index);
            return self.ite(c, tt, ee);
        }
        self.intern(TermNode::Select(array, index))
    }

    /// Array write.
    pub fn store(&mut self, array: Term, index: Term, value: Term) -> Term {
        self.intern(TermNode::Store(array, index, value))
    }

    // ---------------------------------------------------------- inspection --

    /// `true` if the term is the constant `true`.
    pub fn is_true(&self, t: Term) -> bool {
        matches!(self.node(t), TermNode::BoolConst(true))
    }

    /// `true` if the term is the constant `false`.
    pub fn is_false(&self, t: Term) -> bool {
        matches!(self.node(t), TermNode::BoolConst(false))
    }

    /// Rewrites `t`, replacing every occurrence of the Boolean subterm `atom`
    /// by the constant `value` and re-simplifying bottom-up.
    pub fn assign(&mut self, t: Term, atom: Term, value: bool) -> Term {
        self.memo_stamp = self.memo_stamp.wrapping_add(1);
        if self.memo_stamp == 0 {
            // The stamp wrapped: forget every entry once.
            self.memo.fill((0, t));
            self.memo_stamp = 1;
        }
        // Only terms that exist now are ever looked up.
        self.memo.resize(self.nodes.len(), (0, t));
        self.assign_rec(t, atom, value)
    }

    fn assign_rec(&mut self, t: Term, atom: Term, value: bool) -> Term {
        if t == atom {
            return self.bool_const(value);
        }
        // Children are interned before their parents, so a term older than
        // the atom cannot contain it.
        if t < atom {
            return t;
        }
        let (stamp, memo) = self.memo[t.0 as usize];
        if stamp == self.memo_stamp {
            return memo;
        }
        let kids = match self.nodes[t.0 as usize].children() {
            Children::Inline(kids, len) => Some((kids, len)),
            Children::Args(_) => None,
        };
        let result = match kids {
            None => self.assign_app(t, atom, value),
            Some((old, len)) => {
                let mut kids = old;
                for k in &mut kids[..len] {
                    *k = self.assign_rec(*k, atom, value);
                }
                // A node whose children are unchanged is returned as itself:
                // its constructor already simplified it, so rebuilding it
                // would find it.
                if kids == old {
                    t
                } else {
                    self.rebuild(t, kids)
                }
            }
        };
        self.memo[t.0 as usize] = (self.memo_stamp, result);
        result
    }

    /// `t`'s constructor applied to new children `k` (the unused tail of `k`
    /// is ignored).
    fn rebuild(&mut self, t: Term, k: [Term; 3]) -> Term {
        match self.nodes[t.0 as usize] {
            TermNode::Ite(..) => self.ite(k[0], k[1], k[2]),
            TermNode::Eq(..) => self.eq(k[0], k[1]),
            TermNode::Not(_) => self.not(k[0]),
            TermNode::And(..) => self.and(k[0], k[1]),
            TermNode::Or(..) => self.or(k[0], k[1]),
            TermNode::Select(..) => self.select(k[0], k[1]),
            TermNode::Store(..) => self.store(k[0], k[1], k[2]),
            TermNode::BoolConst(_) | TermNode::Var(..) | TermNode::App(..) => {
                unreachable!("leaves have no children; applications rebuild in assign_app")
            }
        }
    }

    /// [`assign_rec`](Self::assign_rec) on an application: the rewritten
    /// arguments go on the shared `args` stack, so only a new application
    /// allocates.
    fn assign_app(&mut self, t: Term, atom: Term, value: bool) -> Term {
        let base = self.args.len();
        let mut changed = false;
        for i in 0.. {
            let Some(&a) = self.nodes[t.0 as usize].children().get(i) else {
                break;
            };
            let a2 = self.assign_rec(a, atom, value);
            changed |= a2 != a;
            self.args.push(a2);
        }
        let result = if changed {
            let TermNode::App(name, _) = &self.nodes[t.0 as usize] else {
                unreachable!("assign_app on a non-application")
            };
            match self.find_app(name, &self.args[base..]) {
                (_, Some(found)) => found,
                (hash, None) => {
                    let node = TermNode::App(name.clone(), self.args[base..].to_vec());
                    self.insert(hash, node)
                }
            }
        } else {
            t
        };
        self.args.truncate(base);
        result
    }

    /// `true` if `t` is an atom or has one inside it.
    fn has_atom(&self, t: Term) -> bool {
        self.atom_inside[t.0 as usize] || self.node(t).is_atom()
    }

    /// The first atom of `t` in the depth-first order of
    /// [`atoms`](Self::atoms) that has no other atom inside it, or `None` if
    /// `t` has no atoms. Equal to `innermost_atoms(t, 1).first()`, found
    /// without a visited set: a term holding an atom holds an innermost one,
    /// so the walk follows one path, each time into the first child that
    /// holds an atom.
    pub(crate) fn first_innermost_atom(&self, mut t: Term) -> Option<Term> {
        while self.atom_inside[t.0 as usize] {
            let kids = self.node(t).children();
            t = *kids
                .iter()
                .find(|&&c| self.has_atom(c))
                .expect("a term with an atom inside has a child holding it");
        }
        self.node(t).is_atom().then_some(t)
    }

    /// The first `limit` atoms of `t` in the depth-first order of
    /// [`atoms`](Self::atoms) that have no other atom inside them.
    pub(crate) fn innermost_atoms(&self, t: Term, limit: usize) -> Vec<Term> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.len()];
        self.innermost_rec(t, limit, &mut out, &mut visited);
        out
    }

    fn innermost_rec(&self, t: Term, limit: usize, out: &mut Vec<Term>, visited: &mut [bool]) {
        if out.len() == limit || !self.has_atom(t) || visited[t.0 as usize] {
            return;
        }
        visited[t.0 as usize] = true;
        if !self.atom_inside[t.0 as usize] {
            out.push(t);
            return;
        }
        for &c in self.node(t).children().iter() {
            self.innermost_rec(c, limit, out, visited);
        }
    }

    /// Collects the Boolean *atoms* of `t`: equality nodes and Boolean
    /// variables, including those buried inside data-level if-then-else
    /// conditions. The returned order is deterministic (first occurrence in a
    /// depth-first walk).
    pub fn atoms(&self, t: Term) -> Vec<Term> {
        let mut out = Vec::new();
        let mut visited = vec![false; self.len()];
        self.atoms_rec(t, &mut out, &mut visited);
        out
    }

    fn atoms_rec(&self, t: Term, out: &mut Vec<Term>, visited: &mut [bool]) {
        if visited[t.0 as usize] {
            return;
        }
        visited[t.0 as usize] = true;
        let node = self.node(t);
        if node.is_atom() {
            out.push(t);
        }
        for &c in node.children().iter() {
            self.atoms_rec(c, out, visited);
        }
    }

    /// Renders a term as an S-expression (for reports and counterexamples).
    pub fn to_string(&self, t: Term) -> String {
        let mut s = String::new();
        self.write(t, &mut s)
            .expect("string formatting never fails");
        s
    }

    fn write(&self, t: Term, out: &mut String) -> fmt::Result {
        use fmt::Write;
        match self.node(t) {
            TermNode::BoolConst(v) => write!(out, "{v}"),
            TermNode::Var(name, _) => write!(out, "{name}"),
            TermNode::App(name, args) => {
                write!(out, "({name}")?;
                for &a in args {
                    write!(out, " ")?;
                    self.write(a, out)?;
                }
                write!(out, ")")
            }
            TermNode::Ite(c, a, b) => {
                write!(out, "(ite ")?;
                self.write(*c, out)?;
                write!(out, " ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*b, out)?;
                write!(out, ")")
            }
            TermNode::Eq(a, b) => {
                write!(out, "(= ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*b, out)?;
                write!(out, ")")
            }
            TermNode::Not(a) => {
                write!(out, "(not ")?;
                self.write(*a, out)?;
                write!(out, ")")
            }
            TermNode::And(a, b) => {
                write!(out, "(and ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*b, out)?;
                write!(out, ")")
            }
            TermNode::Or(a, b) => {
                // Render implications the way they were (usually) built.
                if let TermNode::Not(p) = self.node(*a) {
                    write!(out, "(=> ")?;
                    self.write(*p, out)?;
                    write!(out, " ")?;
                    self.write(*b, out)?;
                    return write!(out, ")");
                }
                write!(out, "(or ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*b, out)?;
                write!(out, ")")
            }
            TermNode::Select(a, i) => {
                write!(out, "(select ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*i, out)?;
                write!(out, ")")
            }
            TermNode::Store(a, i, v) => {
                write!(out, "(store ")?;
                self.write(*a, out)?;
                write!(out, " ")?;
                self.write(*i, out)?;
                write!(out, " ")?;
                self.write(*v, out)?;
                write!(out, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_shares_structurally_equal_terms() {
        let mut t = TermManager::new();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let f1 = t.app("f", &[a, b]);
        let f2 = t.app("f", &[a, b]);
        assert_eq!(f1, f2);
        assert_eq!(t.eq(a, b), t.eq(b, a), "equality is oriented canonically");
        let before = t.len();
        let _ = t.app("f", &[a, b]);
        assert_eq!(t.len(), before);
    }

    #[test]
    fn boolean_constant_folding() {
        let mut t = TermManager::new();
        let p = t.var("p", Sort::Bool);
        let tru = t.tru();
        let fls = t.fls();
        assert_eq!(t.and(p, tru), p);
        assert_eq!(t.and(p, fls), fls);
        assert_eq!(t.or(p, fls), p);
        assert_eq!(t.or(p, tru), tru);
        let np = t.not(p);
        assert_eq!(t.not(np), p);
        assert_eq!(t.eq(p, p), tru);
        assert_eq!(t.implies(fls, p), tru);
    }

    #[test]
    fn ite_simplifications() {
        let mut t = TermManager::new();
        let c = t.var("c", Sort::Bool);
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let tru = t.tru();
        let fls = t.fls();
        assert_eq!(t.ite(tru, a, b), a);
        assert_eq!(t.ite(fls, a, b), b);
        assert_eq!(t.ite(c, a, a), a);
        assert_eq!(t.ite(c, tru, fls), c);
        let nc = t.not(c);
        assert_eq!(t.ite(c, fls, tru), nc);
    }

    #[test]
    fn read_over_write_rewrites() {
        let mut t = TermManager::new();
        let rf = t.var("rf", Sort::Array);
        let i = t.var("i", Sort::Data);
        let j = t.var("j", Sort::Data);
        let v = t.var("v", Sort::Data);
        let stored = t.store(rf, i, v);
        // Reading the written index returns the written value.
        assert_eq!(t.select(stored, i), v);
        // Reading another index produces the guarded expansion.
        let read = t.select(stored, j);
        let s = t.to_string(read);
        assert!(s.contains("ite") && s.contains("select"), "{s}");
    }

    #[test]
    fn assign_substitutes_atoms_and_resimplifies() {
        let mut t = TermManager::new();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let c = t.var("c", Sort::Data);
        let e = t.eq(a, b);
        let picked = t.ite(e, a, c);
        let f = t.eq(picked, c);
        // Setting (= a b) to false collapses the ite to c, so the equality
        // becomes trivially true.
        let f_false = t.assign(f, e, false);
        assert!(t.is_true(f_false));
        // Setting it to true leaves (= a c), which is an undetermined atom.
        let f_true = t.assign(f, e, true);
        assert_eq!(f_true, t.eq(a, c));
    }

    #[test]
    fn atoms_are_collected_from_conditions_and_boolean_structure() {
        let mut t = TermManager::new();
        let p = t.var("p", Sort::Bool);
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let c = t.var("c", Sort::Data);
        let e1 = t.eq(a, b);
        let data = t.ite(e1, a, b);
        let e2 = t.eq(data, c);
        let f = t.and(p, e2);
        let atoms = t.atoms(f);
        assert!(atoms.contains(&p));
        assert!(atoms.contains(&e1));
        assert!(atoms.contains(&e2));
    }

    /// The definition the atom-inside bits shortcut: an atom is innermost
    /// when no other atom of the formula occurs inside it.
    fn innermost_by_definition(t: &TermManager, f: Term) -> Vec<Term> {
        let atoms = t.atoms(f);
        atoms
            .iter()
            .copied()
            .filter(|&a| {
                let inside: Vec<Term> = t
                    .node(a)
                    .children()
                    .iter()
                    .flat_map(|&c| t.atoms(c))
                    .collect();
                inside.iter().all(|&b| b == a)
            })
            .collect()
    }

    #[test]
    fn innermost_atoms_follow_the_depth_first_order() {
        use crate::{FlushVerifier, PipelineDesc};
        for desc in [
            PipelineDesc::three_stage(),
            PipelineDesc::with_depth(4).with_branching(),
            PipelineDesc::with_depth(4).with_annulment(),
        ] {
            let mut t = TermManager::new();
            let vc = FlushVerifier::new(desc).verification_condition(&mut t);
            let f = t.not(vc);
            let expected = innermost_by_definition(&t, f);
            assert!(expected.len() > 1);
            assert_eq!(t.innermost_atoms(f, usize::MAX), expected);
            assert_eq!(t.innermost_atoms(f, 2), expected[..2]);
            assert_eq!(t.first_innermost_atom(f), Some(expected[0]));
            // After a decision the walk still agrees with the definition.
            let g = t.assign(f, expected[0], false);
            let after = innermost_by_definition(&t, g);
            assert_eq!(t.first_innermost_atom(g), after.first().copied());
        }
        let mut t = TermManager::new();
        let a = t.var("a", Sort::Data);
        let tru = t.tru();
        assert_eq!(t.first_innermost_atom(tru), None);
        assert_eq!(t.first_innermost_atom(a), None);
        let p = t.var("p", Sort::Bool);
        assert_eq!(t.first_innermost_atom(p), Some(p));
    }

    #[test]
    fn assign_leaves_terms_without_the_atom_untouched() {
        let mut t = TermManager::new();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let p = t.var("p", Sort::Bool);
        let older = t.eq(a, b);
        let fab = t.app("f", &[a, b]);
        let q = t.var("q", Sort::Bool);
        let picked = t.ite(q, fab, a);
        let f = t.and(older, p);
        let before = t.len();
        // Every subterm of `f` is older than `q`, so nothing is rebuilt.
        assert_eq!(t.assign(f, q, true), f);
        assert_eq!(t.assign(picked, p, false), picked);
        assert_eq!(t.len(), before);
        // Rewriting inside an application rebuilds it through the table.
        let g = t.app("g", &[picked, b]);
        let resolved = t.assign(g, q, true);
        assert_eq!(resolved, t.app("g", &[fab, b]));
    }

    #[test]
    fn the_unique_table_survives_growth_and_collisions() {
        let mut t = TermManager::new();
        let vars: Vec<Term> = (0..40)
            .map(|i| t.var(&format!("v{i}"), Sort::Data))
            .collect();
        let mut apps = Vec::new();
        for &x in &vars {
            for &y in &vars {
                apps.push(t.app("f", &[x, y]));
                apps.push(t.app("g", &[x, y]));
            }
        }
        let total = t.len();
        assert_eq!(total, vars.len() * (1 + 2 * vars.len()));
        // Every term is found as itself, after many table doublings.
        for (i, &x) in vars.iter().enumerate() {
            assert_eq!(t.var(&format!("v{i}"), Sort::Data), x);
            assert_ne!(t.var(&format!("v{i}"), Sort::Bool), x);
        }
        let mut k = 0;
        for &x in &vars {
            for &y in &vars {
                assert_eq!(t.app("f", &[x, y]), apps[k]);
                assert_eq!(t.app("g", &[x, y]), apps[k + 1]);
                k += 2;
            }
        }
        assert_eq!(
            t.len(),
            total + vars.len(),
            "only the Boolean twins are new"
        );
    }

    #[test]
    fn rendering_is_readable() {
        let mut t = TermManager::new();
        let a = t.var("a", Sort::Data);
        let b = t.var("b", Sort::Data);
        let fa = t.app("f", &[a]);
        let e = t.eq(fa, b);
        let n = t.not(e);
        // Equalities are oriented by creation order (`b` precedes `f a`).
        assert_eq!(t.to_string(n), "(not (= b (f a)))");
    }
}
