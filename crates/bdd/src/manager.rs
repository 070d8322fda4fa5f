//! The ROBDD manager: node store, hash-consing and the core operations.

use std::collections::{BTreeSet, HashMap};

use pv_obs::{Counter, Gauge};

use crate::budget::Budget;
use crate::cache::ComputedTable;
use crate::hash::FxMap;
use crate::node::{Bdd, Node, Var, FREE_VAR, TERMINAL_VAR};
use crate::unique::{UniqueTable, NIL};

// Process-global engine metrics (see DESIGN.md § "Observability"). The hot
// counters (computed-table traffic, store growth) are accumulated in plain
// per-manager fields — `ite` runs tens of millions of times per simulation,
// and an atomic op per call would be measurable — and flushed here in
// batches at every garbage collection and on manager drop.
static M_ITE_HIT: Counter = Counter::new("bdd.ite.cache_hit");
static M_ITE_MISS: Counter = Counter::new("bdd.ite.cache_miss");
static M_CONSTRAIN_HIT: Counter = Counter::new("bdd.constrain.cache_hit");
static M_CONSTRAIN_MISS: Counter = Counter::new("bdd.constrain.cache_miss");
static M_UNIQUE_GROW: Counter = Counter::new("bdd.unique.grow");
static M_GC_RUNS: Counter = Counter::new("bdd.gc.runs");
static M_GC_COLLECTED: Counter = Counter::new("bdd.gc.collected");
static M_PEAK_LIVE: Gauge = Gauge::new("bdd.unique.peak_live");

/// The floor of the live-node count above which [`BddManager::maybe_gc`]
/// collects: the trigger starts here and after each collection becomes
/// `max(floor, 2 × live)`.
const DEFAULT_GC_THRESHOLD: usize = 1 << 20;

/// The budget is consulted on the ITE and constrain cache-miss paths only
/// once per this many misses (a power of two; the check is a tick-counter
/// mask shared by both operations). A miss
/// allocates at most one node, so the allocated-node overshoot past a node
/// budget is bounded by this interval plus the handful of nodes the
/// unwinding recursion had in flight — the "small multiple of the
/// safe-point interval" contract gated by the `budget_abort` perf-smoke
/// case.
const BUDGET_CHECK_INTERVAL: u32 = 1 << 10;

/// Condition-slot tag of the [`BddManager::constrain`] entries kept in the
/// ITE computed table. `ite` resolves a constant condition before its lookup
/// and never stores one, so `(CONSTRAIN_TAG, f, care)` keys cannot collide
/// with ITE triples.
const CONSTRAIN_TAG: Bdd = Bdd::TRUE;

/// Summary statistics of a [`BddManager`], useful for reproducing the
/// "limited by the computational power of BDDs" observations of Chapter 6.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Number of live (hash-consed) nodes, including the two terminals.
    pub nodes: usize,
    /// Total nodes ever created, including nodes since reclaimed and
    /// re-created (monotone across garbage collections).
    pub allocated: usize,
    /// Highest live-node count observed so far.
    pub peak_live: usize,
    /// Number of garbage collections performed.
    pub gc_runs: usize,
    /// Nodes reclaimed over all garbage collections (the sum of every
    /// [`GcStats::collected`]).
    pub gc_collected: usize,
    /// Number of allocated variables.
    pub vars: usize,
    /// Number of occupied slots in the computed table, which holds the
    /// if-then-else results and the op-tagged
    /// [`constrain`](BddManager::constrain) results. The table is bounded
    /// and lossy, so this is at most its slot count.
    pub ite_cache_entries: usize,
    /// [`ite`](BddManager::ite) calls answered from the memo table.
    pub ite_hits: usize,
    /// [`ite`](BddManager::ite) calls (top-level or recursive) that had to
    /// compute their result. `ite_hits / (ite_hits + ite_misses)` is the
    /// cache hit-rate the perf-smoke gate records per workload.
    pub ite_misses: usize,
    /// [`constrain`](BddManager::constrain) steps (top-level or recursive)
    /// answered from the computed table; never counted as ITE hits.
    pub constrain_hits: usize,
    /// [`constrain`](BddManager::constrain) steps that had to compute their
    /// result; never counted as ITE misses.
    pub constrain_misses: usize,
    /// Times the node store grew its backing allocation (a doubling of the
    /// `Vec`), the `bdd.unique.grow` metric.
    pub unique_grows: usize,
}

/// Outcome of one mark-and-sweep collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Nodes reclaimed by the sweep.
    pub collected: usize,
    /// Nodes still live afterwards (including the two terminals).
    pub live: usize,
}

/// Owner of all ROBDD nodes.
///
/// All operations that may create nodes take `&mut self`; handles ([`Bdd`])
/// are small copyable indices into the manager.
///
/// # Garbage collection
///
/// Dead nodes can be reclaimed by mark-and-sweep ([`BddManager::gc`],
/// [`BddManager::gc_with_roots`], [`BddManager::maybe_gc`]). Liveness is
/// defined by *roots*: handles registered with [`BddManager::add_root`] plus
/// any extra handles passed to the collecting call. Every other handle is
/// **weak** — after a collection it may refer to a reclaimed (and possibly
/// reused) slot, so callers must either register the handles they hold across
/// a collection or pass them as extra roots. Collections are only initiated
/// by these explicit calls (never from inside an operation), so handles held
/// across individual operations are always safe.
///
/// See the [crate-level documentation](crate) for an example.
///
/// # Variable order
///
/// The ROBDD order is allocation order: a variable's position in the order
/// is its [`Var::index`], fixed for the life of the manager. Callers choose
/// the order by choosing the allocation order (interleaved words, FORCE
/// bit orders); the manager never moves a variable.
///
/// # Threading
///
/// A manager is a plain owned value — the node store, the unique table's
/// buckets, the computed table and the root list are ordinary `Vec`s, with
/// no interior mutability or shared pointers (the crate forbids `unsafe`),
/// so `BddManager` is `Send + Sync` and a manager can be **moved to** (or
/// built on) a worker thread. Handles
/// are only meaningful against the manager that created them, so concurrent
/// use still means one manager per worker (the parallel plan verifier's
/// model); the assertion below makes the `Send + Sync` guarantee a
/// compile-time fact rather than an accident of the field types.
#[derive(Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    /// The unique table: bucket heads of chains threaded through the nodes'
    /// `next` links, linking every live slot by its `(var, lo, hi)` key. Its
    /// bucket count follows the node store's capacity (see
    /// [`UniqueTable::fit`]).
    pub(crate) unique: UniqueTable,
    /// The computed table: a fixed-size, direct-mapped cache of ITE standard
    /// triples and of the `constrain` entries keyed
    /// `(CONSTRAIN_TAG, regular f, care)`. Its slot count is half the node
    /// store's length rounded up to a power of two (see
    /// [`ComputedTable::fit`]). Sharing one table gives
    /// both operations one invalidation path: the collection's pass over it.
    pub(crate) ite_cache: ComputedTable,
    pub(crate) num_vars: u32,
    /// Head of the free list chained through reclaimed slots' `next` links
    /// (`NIL` when empty).
    pub(crate) free_head: u32,
    pub(crate) free_count: usize,
    /// Registered GC roots, kept for the life of the manager.
    roots: Vec<Bdd>,
    /// Current live-node count above which [`maybe_gc`](Self::maybe_gc)
    /// collects; re-derived from the live set after every collection.
    gc_threshold: usize,
    pub(crate) allocated: usize,
    pub(crate) peak_live: usize,
    gc_runs: usize,
    gc_collected: usize,
    /// Computed-table traffic (ITE and constrain) and store growth (see the
    /// module-level metric statics); `flushed_*` are the portions already
    /// pushed to the global registry, so a flush only adds the delta.
    ite_hits: usize,
    ite_misses: usize,
    constrain_hits: usize,
    constrain_misses: usize,
    unique_grows: usize,
    flushed_ite_hits: usize,
    flushed_ite_misses: usize,
    flushed_constrain_hits: usize,
    flushed_constrain_misses: usize,
    flushed_unique_grows: usize,
    /// Optional resource budget (see [`set_budget`](Self::set_budget)):
    /// checked unconditionally at the [`maybe_gc`](Self::maybe_gc) safe
    /// point and — amortized
    /// over [`BUDGET_CHECK_INTERVAL`] misses — on the ITE and constrain
    /// cache-miss paths.
    budget: Option<Budget>,
    /// Cache-miss tick counter driving the amortized budget check.
    budget_tick: u32,
}

// The parallel plan verifier builds one manager per worker thread; keep the
// manager (and the handle/stats types workers pass back) `Send + Sync` by
// construction. If a future change introduces `Rc`, interior mutability or a
// raw pointer, this assertion fails to compile instead of the worker pool.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<BddManager>();
    assert_send_sync::<Bdd>();
    assert_send_sync::<Var>();
    assert_send_sync::<BddStats>();
    assert_send_sync::<GcStats>();
};

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal node (slot 0,
    /// constant true; constant false is its complemented edge) and a
    /// reserved, never-referenced slot keeping the historical "two terminal
    /// slots" accounting — `live_nodes()` of an empty manager is still 2.
    pub fn new() -> Self {
        let terminal = Node {
            var: TERMINAL_VAR,
            lo: Bdd::TRUE,
            hi: Bdd::TRUE,
            next: NIL,
        };
        BddManager {
            nodes: vec![terminal, terminal],
            unique: UniqueTable::new(),
            ite_cache: ComputedTable::new(),
            num_vars: 0,
            free_head: NIL,
            free_count: 0,
            roots: Vec::new(),
            gc_threshold: DEFAULT_GC_THRESHOLD,
            allocated: 2,
            peak_live: 2,
            gc_runs: 0,
            gc_collected: 0,
            ite_hits: 0,
            ite_misses: 0,
            constrain_hits: 0,
            constrain_misses: 0,
            unique_grows: 0,
            flushed_ite_hits: 0,
            flushed_ite_misses: 0,
            flushed_constrain_hits: 0,
            flushed_constrain_misses: 0,
            flushed_unique_grows: 0,
            budget: None,
            budget_tick: 0,
        }
    }

    /// Attaches a resource [`Budget`]: the manager checks it at its safe
    /// points (every [`maybe_gc`](Self::maybe_gc) call, and the ITE and
    /// constrain cache-miss paths once per `BUDGET_CHECK_INTERVAL` (1024)
    /// misses) and aborts an
    /// exceeded computation by unwinding, without running the panic hook,
    /// with a [`crate::BudgetExceeded`] payload.
    ///
    /// Every table mutation between two check points completes atomically,
    /// so a caught abort leaves the manager allocation-consistent: it can be
    /// collected, re-budgeted and reused (callers must treat handles that
    /// were in flight during the abort as invalid, exactly as across a GC).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = Some(budget);
        self.budget_tick = 0;
    }

    /// Detaches the budget; subsequent operations run unbounded.
    pub fn clear_budget(&mut self) {
        self.budget = None;
    }

    /// Checks the attached budget (if any) against the allocated-node
    /// count, flushing the batched metrics and unwinding with the typed
    /// [`crate::BudgetExceeded`] payload when a bound is exceeded. The abort
    /// is control flow, not a crash, so it unwinds with
    /// [`std::panic::resume_unwind`], which skips the panic hook. Called
    /// only at safe points.
    pub(crate) fn check_budget(&mut self) {
        let Some(budget) = &self.budget else { return };
        if let Err(exceeded) = budget.check(self.allocated) {
            // Leave the global metrics registry consistent with the work
            // actually performed before abandoning the computation.
            self.flush_metrics();
            std::panic::resume_unwind(Box::new(exceeded));
        }
    }

    /// The amortized flavour of [`check_budget`](Self::check_budget) for the
    /// ITE and constrain cache-miss paths: a no-op without a budget, and one
    /// tick plus a mask test otherwise.
    #[inline]
    fn check_budget_amortized(&mut self) {
        if self.budget.is_none() {
            return;
        }
        self.budget_tick = self.budget_tick.wrapping_add(1);
        if self.budget_tick & (BUDGET_CHECK_INTERVAL - 1) == 0 {
            self.check_budget();
        }
    }

    /// Allocates a fresh variable at the bottom of the order.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Allocates `families` groups of `width` fresh variables **interleaved**
    /// with each other: bit `i` of every family is allocated before bit `i+1`
    /// of any family, so corresponding bits are adjacent in the variable
    /// order.
    ///
    /// This is the ordering that keeps the BDDs of bitwise-correlated words
    /// small — a ripple-carry adder over two interleaved operands is linear in
    /// the width, whereas allocating one operand's variables wholesale before
    /// the other's is exponential (Bryant 1986). It is the default layout for
    /// operand pairs ([`crate::BddVec::new_interleaved`]) and for the
    /// present/next state families of [`crate::TransitionSystem`].
    pub fn new_vars_interleaved(&mut self, families: usize, width: usize) -> Vec<Vec<Var>> {
        let mut out = vec![Vec::with_capacity(width); families];
        for _ in 0..width {
            for family in out.iter_mut() {
                family.push(self.new_var());
            }
        }
        out
    }

    /// Number of variables allocated so far.
    pub fn var_count(&self) -> usize {
        self.num_vars as usize
    }

    /// Returns the constant function for `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::TRUE
        } else {
            Bdd::FALSE
        }
    }

    /// The projection function of `v` (the BDD that is true iff `v` is true).
    ///
    /// # Panics
    /// Panics if `v` was not allocated by this manager.
    pub fn var(&mut self, v: Var) -> Bdd {
        assert!(
            v.0 < self.num_vars,
            "variable {v} not allocated in this manager"
        );
        self.mk(v.0, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated projection function of `v`.
    pub fn nvar(&mut self, v: Var) -> Bdd {
        assert!(
            v.0 < self.num_vars,
            "variable {v} not allocated in this manager"
        );
        self.mk(v.0, Bdd::TRUE, Bdd::FALSE)
    }

    /// `v` if `value` is true, `¬v` otherwise.
    pub fn literal(&mut self, v: Var, value: bool) -> Bdd {
        if value {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Hash-conses the decision `(var, lo, hi)`, enforcing the canonical
    /// complemented-edge form: the stored *then* edge is always regular. A
    /// complemented `hi` is pushed into both children and the returned handle
    /// is complemented instead, so `f` and `¬f` share one stored subgraph.
    pub(crate) fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        let compl = hi.is_compl();
        let (lo, hi) = if compl {
            (lo.negate(), hi.negate())
        } else {
            (lo, hi)
        };
        let handle = match self.unique.find(&self.nodes, var, lo, hi) {
            Ok(idx) => Bdd(idx << 1),
            Err(bucket) => self.alloc_node(var, lo, hi, bucket),
        };
        if compl {
            handle.negate()
        } else {
            handle
        }
    }

    /// Allocates a table slot for a (not yet hash-consed, canonical-form)
    /// node, reusing the free list, and links it into `bucket`, the one
    /// [`UniqueTable::find`] returned for its key. Returns the regular
    /// handle.
    fn alloc_node(&mut self, var: u32, lo: Bdd, hi: Bdd, bucket: usize) -> Bdd {
        debug_assert!(!hi.is_compl(), "canonical form: then edge regular");
        let node = Node {
            var,
            lo,
            hi,
            next: NIL,
        };
        let mut grows = false;
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.free_count -= 1;
            self.nodes[idx as usize] = node;
            idx
        } else {
            grows = self.nodes.len() == self.nodes.capacity();
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        };
        // Link before any resize: a resize relinks every live slot, this one
        // included, and linking it again afterwards would close a cycle.
        self.unique.insert(&mut self.nodes, bucket, idx);
        if grows {
            self.unique_grows += 1;
            let capacity = self.nodes.capacity();
            self.unique.fit(&mut self.nodes, capacity);
            self.ite_cache.fit(self.nodes.len());
        }
        self.allocated += 1;
        let live = self.nodes.len() - self.free_count;
        if live > self.peak_live {
            self.peak_live = live;
        }
        Bdd(idx << 1)
    }

    /// The stored node of `b`'s slot. The caller is responsible for applying
    /// `b`'s complement attribute to the children (or use
    /// [`cofactors`](Self::cofactors), which does).
    #[inline]
    pub(crate) fn node(&self, b: Bdd) -> Node {
        let n = self.nodes[b.index()];
        debug_assert!(!n.is_free(), "dangling handle {b}: slot was reclaimed");
        n
    }

    /// The decision variable and **attribute-adjusted** children of a
    /// non-constant handle: a complemented edge complements both cofactors.
    #[inline]
    pub(crate) fn cofactors(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.node(f);
        let c = f.0 & 1;
        (n.var, Bdd(n.lo.0 ^ c), Bdd(n.hi.0 ^ c))
    }

    /// Variable decided at the root of `f`, or `None` for a constant.
    pub fn top_var(&self, f: Bdd) -> Option<Var> {
        if f.is_const() {
            None
        } else {
            Some(Var(self.node(f).var))
        }
    }

    /// Low (else) child of a non-constant node, with the handle's complement
    /// attribute applied (a complemented edge complements both cofactors).
    ///
    /// # Panics
    /// Panics if `f` is a constant.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "constants have no children");
        let (_, lo, _) = self.cofactors(f);
        lo
    }

    /// High (then) child of a non-constant node, with the handle's complement
    /// attribute applied.
    ///
    /// # Panics
    /// Panics if `f` is a constant.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "constants have no children");
        let (_, _, hi) = self.cofactors(f);
        hi
    }

    // ----------------------------------------------------------------- ITE --

    /// `true` when `a` precedes `b` in the canonical argument order used to
    /// pick among equivalent ITE triples. Any total order works (the choice
    /// only decides which of two equivalent triples names the cache entry),
    /// so the cheapest one wins: the slot index, a pure register compare
    /// with no node-table loads on the hot path. Both arguments are
    /// non-constant.
    #[inline]
    fn precedes(&self, a: Bdd, b: Bdd) -> bool {
        a.index() < b.index()
    }

    /// If-then-else: `f·g + ¬f·h`, the core memoized operation.
    ///
    /// Arguments are rewritten to the Brace–Rudell–Bryant **standard
    /// triple** before the memo lookup: trivial and complement patterns are
    /// resolved without recursion, commutative forms (`∧`, `∨`, `⊕`, `≡`)
    /// pick one canonical argument order, the first argument is made regular
    /// (`ite(¬f,g,h) = ite(f,h,g)`) and a complemented second argument is
    /// extracted as an output complement (`ite(f,g,h) = ¬ite(f,¬g,¬h)`). All
    /// the equivalent ways of phrasing one Boolean step — `f∧g` vs `¬(¬f∨¬g)`,
    /// `f⊕g` vs `¬(f≡g)` — therefore share a single cache entry and a single
    /// stored subgraph.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        // Arguments equal (or complementary) to the condition collapse.
        let mut g = g;
        let mut h = h;
        if g == f {
            g = Bdd::TRUE;
        } else if g == f.negate() {
            g = Bdd::FALSE;
        }
        if h == f {
            h = Bdd::FALSE;
        } else if h == f.negate() {
            h = Bdd::TRUE;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return f.negate();
        }
        let mut f = f;
        // Canonical argument order for the commutative forms. In each branch
        // the other operands are non-constant (the constant combinations all
        // returned above).
        if g.is_true() {
            // f ∨ h == h ∨ f
            if self.precedes(h, f) {
                std::mem::swap(&mut f, &mut h);
            }
        } else if g.is_false() {
            // ¬f ∧ h == ¬h ∧ f (as ite(¬h, F, ¬f))
            if self.precedes(h, f) {
                let nf = f.negate();
                f = h.negate();
                h = nf;
            }
        } else if h.is_false() {
            // f ∧ g == g ∧ f
            if self.precedes(g, f) {
                std::mem::swap(&mut f, &mut g);
            }
        } else if h.is_true() {
            // f → g == ¬g → ¬f (as ite(¬g, ¬f, T))
            if self.precedes(g, f) {
                let nf = f.negate();
                f = g.negate();
                g = nf;
            }
        } else if g == h.negate() {
            // f ≡ g is symmetric: ite(f, g, ¬g) == ite(g, f, ¬f)
            if self.precedes(g, f) {
                std::mem::swap(&mut f, &mut g);
                h = g.negate();
            }
        }
        // Regularize the condition: ite(¬f, g, h) == ite(f, h, g).
        if f.is_compl() {
            f = f.negate();
            std::mem::swap(&mut g, &mut h);
        }
        // Extract the output complement: ite(f, ¬g', h) == ¬ite(f, g', ¬h),
        // so the stored triple always has a regular second argument.
        let compl = g.is_compl();
        if compl {
            g = g.negate();
            h = h.negate();
        }
        if let Some(r) = self.ite_cache.get(f, g, h) {
            self.ite_hits += 1;
            return if compl { r.negate() } else { r };
        }
        self.ite_misses += 1;
        self.check_budget_amortized();
        let vf = self.node(f).var;
        let vg = if g.is_const() {
            TERMINAL_VAR
        } else {
            self.node(g).var
        };
        let vh = if h.is_const() {
            TERMINAL_VAR
        } else {
            self.node(h).var
        };
        // The top variable is the smallest index; a constant's
        // `TERMINAL_VAR` sorts after every real variable.
        let top = vf.min(vg).min(vh);
        let (f0, f1) = self.split(f, top);
        let (g0, g1) = self.split(g, top);
        let (h0, h1) = self.split(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let result = self.mk(top, lo, hi);
        self.ite_cache.insert(f, g, h, result);
        if compl {
            result.negate()
        } else {
            result
        }
    }

    /// The two cofactors of `f` with respect to `var`: the attribute-adjusted
    /// children when `var` is `f`'s root, `f` itself otherwise.
    #[inline]
    fn split(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        if f.is_const() {
            return (f, f);
        }
        let (v, lo, hi) = self.cofactors(f);
        if v == var {
            (lo, hi)
        } else {
            (f, f)
        }
    }

    // -------------------------------------------------------- connectives --

    /// Logical negation: flips the complement attribute. O(1), allocates no
    /// node and touches no table (see the `negation` tests).
    pub fn not(&mut self, f: Bdd) -> Bdd {
        f.negate()
    }

    /// Logical conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Logical disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g.negate(), g)
    }

    /// Exclusive nor (equivalence); used by the product-machine construction
    /// of Section 3.4. Shares its cache entry (and, complemented, its result
    /// graph) with [`xor`](Self::xor) of the same operands through the
    /// standard-triple normalization.
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, g.negate())
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::TRUE)
    }

    /// Conjunction of a slice of functions (true for the empty slice).
    pub fn and_many(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of a slice of functions (false for the empty slice).
    pub fn or_many(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// The minterm (conjunction of literals) for `assignment`.
    pub fn cube(&mut self, assignment: &[(Var, bool)]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &(v, val) in assignment {
            let lit = self.literal(v, val);
            acc = self.and(acc, lit);
        }
        acc
    }

    // ------------------------------------------------ restriction & quant --

    /// Restriction (cofactor): `f` with `var` fixed to `value`.
    ///
    /// The verifier uses it to find the instruction bits a class forces to a
    /// constant; the Section 5.2 cofactoring of the simulated state by the
    /// class assumption is [`constrain`](Self::constrain).
    pub fn restrict(&mut self, f: Bdd, var: Var, value: bool) -> Bdd {
        let mut memo = FxMap::default();
        self.restrict_rec(f, var.0, value, &mut memo)
    }

    /// Restriction commutes with negation, so the recursion strips the
    /// complement attribute, memoizes on the regular handle only (halving the
    /// memo) and re-applies the attribute to the result.
    fn restrict_rec(&mut self, f: Bdd, var: u32, value: bool, memo: &mut FxMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() {
            return f;
        }
        let compl = f.is_compl();
        let f = f.regular();
        let n = self.node(f);
        if n.var > var {
            return if compl { f.negate() } else { f };
        }
        if let Some(&r) = memo.get(&f) {
            return if compl { r.negate() } else { r };
        }
        let result = if n.var == var {
            if value {
                n.hi
            } else {
                n.lo
            }
        } else {
            let lo = self.restrict_rec(n.lo, var, value, memo);
            let hi = self.restrict_rec(n.hi, var, value, memo);
            self.mk(n.var, lo, hi)
        };
        memo.insert(f, result);
        if compl {
            result.negate()
        } else {
            result
        }
    }

    /// Generalized cofactor (the *constrain* operator of Coudert, Berthet and
    /// Madre): a function that agrees with `f` everywhere `care` is true and
    /// is chosen to have a small BDD elsewhere.
    ///
    /// This is the general form of Section 5.2's "cofactor the transition
    /// relation outputs with respect to the inputs" step: the verifier applies
    /// it with the instruction-class constraint as the care set, which removes
    /// the instruction behaviours outside the class from the simulated state
    /// functions while preserving every value that can still be observed under
    /// the class assumption.
    ///
    /// Results are kept in the computed table across calls, so constraining
    /// many functions by one care set — every register bit, every cycle —
    /// shares the sub-results of their common sub-DAGs.
    ///
    /// # Panics
    /// Panics if `care` is the constant false function (an empty care set has
    /// no generalized cofactor).
    pub fn constrain(&mut self, f: Bdd, care: Bdd) -> Bdd {
        assert!(
            !care.is_false(),
            "generalized cofactor with an empty care set"
        );
        let result = self.constrain_rec(f, care);
        // The generalized cofactor is idempotent, `(f↓c)↓c = f↓c`: recording
        // that lets a later call on the result — a register bit that held its
        // value for a cycle, a sampled output that is a register — hit at once.
        if !care.is_true() && !result.is_const() {
            let r = result.regular();
            self.ite_cache.insert(CONSTRAIN_TAG, r, care, r);
        }
        result
    }

    /// The generalized cofactor commutes with negation of `f` (it rebuilds
    /// `f`'s leaves under `care`'s guidance), so the recursion strips `f`'s
    /// complement attribute and keys its computed-table entry on
    /// `(CONSTRAIN_TAG, regular f, care)`. The care argument does **not**
    /// commute and keeps its attribute in the key; `f == ¬care`
    /// short-circuits to false the way `f == care` does to true.
    fn constrain_rec(&mut self, f: Bdd, care: Bdd) -> Bdd {
        if care.is_true() || f.is_const() {
            return f;
        }
        if f == care {
            return Bdd::TRUE;
        }
        if f == care.negate() {
            return Bdd::FALSE;
        }
        let compl = f.is_compl();
        let f = f.regular();
        if let Some(r) = self.ite_cache.get(CONSTRAIN_TAG, f, care) {
            self.constrain_hits += 1;
            return if compl { r.negate() } else { r };
        }
        self.constrain_misses += 1;
        self.check_budget_amortized();
        let vf = self.node(f).var;
        let vc = self.node(care).var;
        let top = vf.min(vc);
        let (f0, f1) = self.split(f, top);
        let (c0, c1) = self.split(care, top);
        let result = if c0.is_false() {
            self.constrain_rec(f1, c1)
        } else if c1.is_false() {
            self.constrain_rec(f0, c0)
        } else {
            let lo = self.constrain_rec(f0, c0);
            let hi = self.constrain_rec(f1, c1);
            self.mk(top, lo, hi)
        };
        self.ite_cache.insert(CONSTRAIN_TAG, f, care, result);
        if compl {
            result.negate()
        } else {
            result
        }
    }

    /// Existential quantification (the *smoothing* operator `S_x f` of
    /// Definition 3.3.1): `∃ vars . f`.
    pub fn exists(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let sorted = sorted_indices(vars);
        let mut memo = FxMap::default();
        self.exists_rec(f, &sorted, &mut memo)
    }

    /// Existential quantification does **not** commute with negation
    /// (`∃x.¬f ≠ ¬∃x.f`), so the memo is keyed on the full attributed handle
    /// and the recursion descends through attribute-adjusted cofactors.
    fn exists_rec(&mut self, f: Bdd, vars: &[u32], memo: &mut FxMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() || vars.is_empty() {
            return f;
        }
        let (var, f0, f1) = self.cofactors(f);
        // Skip quantified variables that are above the root of f.
        let pos = vars.partition_point(|&v| v < var);
        let vars = &vars[pos..];
        if vars.is_empty() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let result = if var == vars[0] {
            let lo = self.exists_rec(f0, &vars[1..], memo);
            let hi = self.exists_rec(f1, &vars[1..], memo);
            self.or(lo, hi)
        } else {
            let lo = self.exists_rec(f0, vars, memo);
            let hi = self.exists_rec(f1, vars, memo);
            self.mk(var, lo, hi)
        };
        memo.insert(f, result);
        result
    }

    /// Universal quantification: `∀ vars . f`.
    pub fn forall(&mut self, f: Bdd, vars: &[Var]) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Simultaneous conjunction and existential quantification,
    /// `∃ vars . (f ∧ g)`, computed in one recursive pass as described for the
    /// image computation of Section 3.3 (Burch et al. 1990).
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[Var]) -> Bdd {
        let sorted = sorted_indices(vars);
        let mut memo = FxMap::default();
        self.and_exists_rec(f, g, &sorted, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: Bdd,
        g: Bdd,
        vars: &[u32],
        memo: &mut FxMap<(Bdd, Bdd), Bdd>,
    ) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        if f == g.negate() {
            // The conjunction is empty whatever is quantified away.
            return Bdd::FALSE;
        }
        if vars.is_empty() {
            return self.and(f, g);
        }
        // Quantification does not commute with negation, so — unlike
        // restrict/constrain — the key keeps both attributed handles, ordered
        // for the conjunction's symmetry only.
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&key) {
            return r;
        }
        let vf = if f.is_const() {
            TERMINAL_VAR
        } else {
            self.node(f).var
        };
        let vg = if g.is_const() {
            TERMINAL_VAR
        } else {
            self.node(g).var
        };
        let top = vf.min(vg);
        let pos = vars.partition_point(|&v| v < top);
        let vars_below = &vars[pos..];
        let (f0, f1) = self.split(f, top);
        let (g0, g1) = self.split(g, top);
        let result = if !vars_below.is_empty() && vars_below[0] == top {
            let lo = self.and_exists_rec(f0, g0, &vars_below[1..], memo);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, &vars_below[1..], memo);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, vars_below, memo);
            let hi = self.and_exists_rec(f1, g1, vars_below, memo);
            self.mk(top, lo, hi)
        };
        memo.insert(key, result);
        result
    }

    /// Functional composition: `f` with `var` replaced by the function `g`.
    pub fn compose(&mut self, f: Bdd, var: Var, g: Bdd) -> Bdd {
        let f1 = self.restrict(f, var, true);
        let f0 = self.restrict(f, var, false);
        self.ite(g, f1, f0)
    }

    /// Replaces each variable of `f` that appears as a key of `map` with the
    /// corresponding value, in one linear rewriting pass.
    ///
    /// The replacement must be *order-preserving* on `f`'s support: mapped
    /// variables keep their relative order and none crosses an unmapped
    /// support variable. The present→next renaming of
    /// [`crate::TransitionSystem`] satisfies this under both the interleaved
    /// layout and a blocked one (all present variables, then all next).
    /// Debug builds assert it at every rewritten node.
    pub fn replace(&mut self, f: Bdd, map: &HashMap<Var, Var>) -> Bdd {
        let raw: FxMap<u32, u32> = map.iter().map(|(k, v)| (k.0, v.0)).collect();
        let mut memo = FxMap::default();
        self.replace_rec(f, &raw, &mut memo)
    }

    /// Variable renaming commutes with negation, so the recursion strips the
    /// complement attribute and memoizes on the regular handle.
    fn replace_rec(&mut self, f: Bdd, map: &FxMap<u32, u32>, memo: &mut FxMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() {
            return f;
        }
        let compl = f.is_compl();
        let f = f.regular();
        if let Some(&r) = memo.get(&f) {
            return if compl { r.negate() } else { r };
        }
        let n = self.node(f);
        let lo = self.replace_rec(n.lo, map, memo);
        let hi = self.replace_rec(n.hi, map, memo);
        let new_var = *map.get(&n.var).unwrap_or(&n.var);
        debug_assert!(
            self.top_var(lo).is_none_or(|v| v.0 > new_var)
                && self.top_var(hi).is_none_or(|v| v.0 > new_var),
            "non-monotone variable replacement"
        );
        let result = self.mk(new_var, lo, hi);
        memo.insert(f, result);
        if compl {
            result.negate()
        } else {
            result
        }
    }

    // -------------------------------------------------- garbage collection --

    /// Registers `f` as a GC root for the life of the manager: `f` and
    /// everything reachable from it survive every collection. Registering a
    /// handle twice is harmless.
    pub fn add_root(&mut self, f: Bdd) {
        if !f.is_const() {
            self.roots.push(f);
        }
    }

    /// Collects garbage, keeping only nodes reachable from the registered
    /// roots (see [`add_root`](Self::add_root)).
    pub fn gc(&mut self) -> GcStats {
        self.gc_with_roots(&[])
    }

    /// Collects garbage if the live-node count has reached the current
    /// trigger, keeping nodes reachable from the registered roots or from
    /// `extra_roots`. Returns `None` when below the trigger. The trigger
    /// starts at 2^20 live nodes and after every collection becomes
    /// `max(2^20, 2 × live)`, so a mostly-live table does not thrash (the
    /// next collection waits for the table to double) and the trigger falls
    /// back to 2^20 as soon as a collection reclaims the garbage.
    pub fn maybe_gc(&mut self, extra_roots: &[Bdd]) -> Option<GcStats> {
        // The per-cycle safe point doubles as the budget check point: the
        // caller holds no unrooted handles here, so unwinding is clean.
        self.check_budget();
        if self.live_nodes() < self.gc_threshold {
            return None;
        }
        Some(self.gc_with_roots(extra_roots))
    }

    // Exists only so the frozen benchmark harness compiles; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn group_vars(&mut self, _vars: &[Var]) {}

    // Exists only so the frozen benchmark harness compiles; the next benchmark change deletes it.
    #[doc(hidden)]
    pub fn maybe_reorder(&mut self, _extra_roots: &[Bdd]) {}

    /// Mark-and-sweep collection: marks everything reachable from the
    /// registered roots and from `extra_roots`, reclaims every other node
    /// into a free list for reuse, relinks the surviving nodes into the
    /// emptied unique table in one pass over the node store, and drops the
    /// computed-table entries — ITE triples and `constrain` entries alike —
    /// that name reclaimed nodes (entries over surviving nodes stay hot
    /// across the collection). Both tables keep their size, which follows
    /// the node store; the store never shrinks.
    ///
    /// Handles not covered by the roots are invalidated — see the type-level
    /// documentation.
    pub fn gc_with_roots(&mut self, extra_roots: &[Bdd]) -> GcStats {
        let _span = pv_obs::span("gc.pass");
        // Mark. Liveness is a property of slots, not attributes: a handle and
        // its complement mark the same slot, so the traversal works on slot
        // indices (the terminal and the reserved slot are always live).
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<usize> = self
            .roots
            .iter()
            .chain(extra_roots)
            .filter(|b| !b.is_const())
            .map(|b| b.index())
            .collect();
        while let Some(idx) = stack.pop() {
            if marked[idx] {
                continue;
            }
            marked[idx] = true;
            let n = self.nodes[idx];
            debug_assert!(!n.is_free(), "a root points at reclaimed slot {idx}");
            if !n.lo.is_const() {
                stack.push(n.lo.index());
            }
            if !n.hi.is_const() {
                stack.push(n.hi.index());
            }
        }
        // Sweep dead slots into the free list. (Indexed because the loop
        // body rewrites `self.nodes[idx]` while `marked` is read alongside.)
        let mut collected = 0usize;
        #[allow(clippy::needless_range_loop)]
        for idx in 2..self.nodes.len() {
            let n = self.nodes[idx];
            if marked[idx] || n.is_free() {
                continue;
            }
            self.nodes[idx] = Node {
                var: FREE_VAR,
                lo: Bdd::TRUE,
                hi: Bdd::TRUE,
                next: self.free_head,
            };
            self.free_head = idx as u32;
            self.free_count += 1;
            collected += 1;
        }
        // Unlink the dead: rebuilding the chains from the survivors is one
        // linear pass, where removing each dead node by key would walk its
        // chain.
        self.unique.relink(&mut self.nodes);
        // Drop computed-table entries that name reclaimed nodes (a constrain
        // entry's constant tag is never dead, so one test covers both
        // operations); entries whose key and result all survived are still
        // verbatim-valid, and keeping them
        // spares the next cycle from re-expanding (and re-allocating) the
        // shared subproblems it has in common with this one.
        self.ite_cache
            .drop_dead(|b| !b.is_const() && !marked[b.index()]);
        let live = self.live_nodes();
        // Re-derive the auto-collection trigger from the surviving live set:
        // a mostly-live table waits until it doubles (no thrashing), and the
        // trigger decays back to the default once the garbage is gone.
        self.gc_threshold = DEFAULT_GC_THRESHOLD.max(live.saturating_mul(2));
        self.gc_runs += 1;
        self.gc_collected += collected;
        M_GC_RUNS.incr();
        M_GC_COLLECTED.add(collected as u64);
        // A collection is the natural (and rare) safe point to push the
        // batched hot counters out to the global registry.
        self.flush_metrics();
        GcStats { collected, live }
    }

    /// Pushes the per-manager deltas of the batched hot counters (ITE and
    /// constrain cache traffic, store growth, peak live) to the process-global
    /// metrics
    /// registry. Runs after every collection and on drop, so short-lived
    /// per-plan managers still report.
    fn flush_metrics(&mut self) {
        M_ITE_HIT.add((self.ite_hits - self.flushed_ite_hits) as u64);
        M_ITE_MISS.add((self.ite_misses - self.flushed_ite_misses) as u64);
        M_CONSTRAIN_HIT.add((self.constrain_hits - self.flushed_constrain_hits) as u64);
        M_CONSTRAIN_MISS.add((self.constrain_misses - self.flushed_constrain_misses) as u64);
        M_UNIQUE_GROW.add((self.unique_grows - self.flushed_unique_grows) as u64);
        M_PEAK_LIVE.set_max(self.peak_live as u64);
        self.flushed_ite_hits = self.ite_hits;
        self.flushed_ite_misses = self.ite_misses;
        self.flushed_constrain_hits = self.constrain_hits;
        self.flushed_constrain_misses = self.constrain_misses;
        self.flushed_unique_grows = self.unique_grows;
    }

    /// Number of live nodes (allocated minus reclaimed, including terminals).
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free_count
    }

    // ---------------------------------------------------------- analyses --

    /// Evaluates `f` under a total assignment given as a predicate on
    /// variables.
    pub fn eval<A: Fn(Var) -> bool>(&self, f: Bdd, assignment: A) -> bool {
        // Walk the regular graph, accumulating complement-attribute parity
        // along the path; the terminal's truth is the parity.
        let mut parity = f.is_compl();
        let mut cur = f.regular();
        while !cur.is_const() {
            let n = self.node(cur);
            let next = if assignment(Var(n.var)) { n.hi } else { n.lo };
            parity ^= next.is_compl();
            cur = next.regular();
        }
        !parity
    }

    /// `true` iff `f` is satisfiable (constant-time for ROBDDs).
    pub fn is_satisfiable(&self, f: Bdd) -> bool {
        !f.is_false()
    }

    /// One satisfying partial assignment of `f`, or `None` if unsatisfiable.
    /// Variables not mentioned may take either value.
    pub fn sat_one(&self, f: Bdd) -> Option<Vec<(Var, bool)>> {
        if f.is_false() {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            // Attribute-adjusted children: any non-false branch leads to a
            // model (canonicity: every non-false function is satisfiable).
            let (var, lo, hi) = self.cofactors(cur);
            if hi.is_false() {
                path.push((Var(var), false));
                cur = lo;
            } else {
                path.push((Var(var), true));
                cur = hi;
            }
        }
        Some(path)
    }

    /// Number of satisfying assignments of `f` over all allocated variables.
    pub fn sat_count(&self, f: Bdd) -> f64 {
        let nvars = self.num_vars;
        let mut memo: FxMap<Bdd, f64> = FxMap::default();
        let fraction = self.sat_fraction(f, &mut memo);
        fraction * 2f64.powi(nvars as i32)
    }

    /// Fraction of the full assignment space that satisfies `f`. Counting
    /// commutes with negation (`frac(¬f) = 1 − frac(f)`), so the memo is
    /// keyed on regular handles only.
    fn sat_fraction(&self, f: Bdd, memo: &mut FxMap<Bdd, f64>) -> f64 {
        match f {
            Bdd::FALSE => 0.0,
            Bdd::TRUE => 1.0,
            _ => {
                let compl = f.is_compl();
                let f = f.regular();
                let r = if let Some(&r) = memo.get(&f) {
                    r
                } else {
                    let n = self.node(f);
                    let lo = self.sat_fraction(n.lo, memo);
                    let hi = self.sat_fraction(n.hi, memo);
                    let r = 0.5 * lo + 0.5 * hi;
                    memo.insert(f, r);
                    r
                };
                if compl {
                    1.0 - r
                } else {
                    r
                }
            }
        }
    }

    /// The set of variables that `f` actually depends on. Support ignores
    /// complement attributes, so the walk deduplicates on slots.
    pub fn support(&self, f: Bdd) -> BTreeSet<Var> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = BTreeSet::new();
        let mut stack = vec![f];
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b.index()) {
                continue;
            }
            let n = self.node(b);
            vars.insert(Var(n.var));
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars
    }

    /// Whether any of `roots` depends on a variable at or after `first` in
    /// the order: `true` iff the union of their [`support`](Self::support)s
    /// holds a variable whose index is `>= first.index()`. One walk over the
    /// roots with a shared visited set (a bit per store slot), stopping at
    /// the first such node; it reads the node store only, so no table or
    /// counter changes.
    pub fn support_reaches(&self, roots: &[Bdd], first: Var) -> bool {
        let mut seen = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut stack: Vec<Bdd> = roots.to_vec();
        while let Some(b) = stack.pop() {
            let (word, bit) = (b.index() / 64, 1u64 << (b.index() % 64));
            if b.is_const() || seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            let n = self.node(b);
            if n.var >= first.0 {
                return true;
            }
            stack.push(n.lo);
            stack.push(n.hi);
        }
        false
    }

    /// Number of distinct nodes reachable from `f`: 1 for a constant,
    /// otherwise the shared decision slots plus 2 for the terminal slots —
    /// the stored cost of the function, which complement edges make identical
    /// for `f` and `¬f`. (Every non-constant reduced BDD reaches both
    /// constants, so the figure matches the classical two-terminal count.)
    pub fn node_count(&self, f: Bdd) -> usize {
        if f.is_const() {
            return 1;
        }
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.regular()];
        let mut count = 0usize;
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b.index()) {
                continue;
            }
            count += 1;
            let n = self.node(b);
            stack.push(n.lo.regular());
            stack.push(n.hi);
        }
        count + 2
    }

    /// Current statistics of the manager.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.live_nodes(),
            allocated: self.allocated,
            peak_live: self.peak_live,
            gc_runs: self.gc_runs,
            gc_collected: self.gc_collected,
            vars: self.num_vars as usize,
            ite_cache_entries: self.ite_cache.len(),
            ite_hits: self.ite_hits,
            ite_misses: self.ite_misses,
            constrain_hits: self.constrain_hits,
            constrain_misses: self.constrain_misses,
            unique_grows: self.unique_grows,
        }
    }

    /// Total number of nodes ever created, counting reclaimed-and-recreated
    /// nodes again (the total-allocation cost figure reported in the
    /// experiments; monotone across garbage collections).
    pub fn total_nodes(&self) -> usize {
        self.allocated
    }
}

/// The raw indices of `vars`, deduplicated and sorted — the order the
/// top-down quantification recursions consume them in.
fn sorted_indices(vars: &[Var]) -> Vec<u32> {
    let mut sorted: Vec<u32> = vars.iter().map(|v| v.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

impl Drop for BddManager {
    fn drop(&mut self) {
        // Deliver whatever the batched counters accumulated since the last
        // collection; per-plan managers often never collect at all.
        self.flush_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (BddManager, Vec<Var>) {
        let mut m = BddManager::new();
        let vars = m.new_vars(n);
        (m, vars)
    }

    #[test]
    fn constants_and_vars() {
        let (mut m, v) = setup(2);
        assert!(m.constant(true).is_true());
        assert!(m.constant(false).is_false());
        let a = m.var(v[0]);
        let na = m.nvar(v[0]);
        let n2 = m.not(a);
        assert_eq!(na, n2);
        assert_ne!(a, na);
    }

    #[test]
    fn figure3_example_is_reduced() {
        // f = x1·x3 + x1·x2·x3 reduces to x1·x3 (Figure 3 of the thesis shows
        // the reduced, ordered diagram).
        let (mut m, v) = setup(3);
        let (x1, x2, x3) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
        let t1 = m.and(x1, x3);
        let t2 = m.and_many(&[x1, x2, x3]);
        let f = m.or(t1, t2);
        assert_eq!(f, t1);
        assert_eq!(m.node_count(f), 4); // two decision nodes + two terminals
        assert_eq!(m.support(f).len(), 2);
    }

    #[test]
    fn boolean_algebra_laws() {
        let (mut m, v) = setup(3);
        let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
        // distributivity
        let bc = m.or(b, c);
        let left = m.and(a, bc);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let right = m.or(ab, ac);
        assert_eq!(left, right);
        // double negation
        let na = m.not(a);
        let nna = m.not(na);
        assert_eq!(nna, a);
        // xor/xnor complement
        let x = m.xor(a, b);
        let xn = m.xnor(a, b);
        let nx = m.not(x);
        assert_eq!(xn, nx);
        // excluded middle
        let taut = m.or(a, na);
        assert!(taut.is_true());
    }

    #[test]
    fn restrict_and_compose() {
        let (mut m, v) = setup(3);
        let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let f_a1 = m.restrict(f, v[0], true);
        let expected = m.or(b, c);
        assert_eq!(f_a1, expected);
        let f_a0 = m.restrict(f, v[0], false);
        assert_eq!(f_a0, c);
        // compose a := b&c
        let bc = m.and(b, c);
        let composed = m.compose(f, v[0], bc);
        let expect2 = {
            let t = m.and(bc, b);
            m.or(t, c)
        };
        assert_eq!(composed, expect2);
    }

    #[test]
    fn quantification() {
        let (mut m, v) = setup(3);
        let (a, b, c) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        let ex_a = m.exists(f, &[v[0]]);
        let expect = m.or(b, c);
        assert_eq!(ex_a, expect);
        let all_a = m.forall(f, &[v[0]]);
        assert_eq!(all_a, c);
        // exists over everything is satisfiability
        let ex_all = m.exists(f, &v);
        assert!(ex_all.is_true());
        // and_exists equals and-then-exists
        let g = m.xor(a, c);
        let direct = m.and_exists(f, g, &[v[0], v[2]]);
        let anded = m.and(f, g);
        let indirect = m.exists(anded, &[v[0], v[2]]);
        assert_eq!(direct, indirect);
    }

    #[test]
    fn replace_renames_monotonically() {
        let (mut m, v) = setup(4);
        let (a, b) = (m.var(v[0]), m.var(v[1]));
        let f = m.and(a, b);
        let mut map = HashMap::new();
        map.insert(v[0], v[2]);
        map.insert(v[1], v[3]);
        let g = m.replace(f, &map);
        let c = m.var(v[2]);
        let d = m.var(v[3]);
        let expect = m.and(c, d);
        assert_eq!(g, expect);
    }

    #[test]
    fn sat_queries() {
        let (mut m, v) = setup(4);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let f = m.and_many(&lits);
        assert!(m.is_satisfiable(f));
        assert_eq!(m.sat_count(f), 1.0);
        let model = m.sat_one(f).expect("satisfiable");
        assert!(model.iter().all(|&(_, val)| val));
        let nf = m.not(f);
        assert_eq!(m.sat_count(nf), 15.0);
    }

    #[test]
    fn cube_builds_minterm() {
        let (mut m, v) = setup(3);
        let cube = m.cube(&[(v[0], true), (v[1], false), (v[2], true)]);
        assert!(m.eval(cube, |x| x == v[0] || x == v[2]));
        assert!(!m.eval(cube, |x| x == v[0] || x == v[1]));
        assert_eq!(m.sat_count(cube), 1.0);
    }

    #[test]
    fn stats_report_growth() {
        let (mut m, v) = setup(8);
        let before = m.stats().nodes;
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let _ = m.and_many(&lits);
        assert!(m.stats().nodes > before);
        assert_eq!(m.stats().vars, 8);
        assert_eq!(m.stats().allocated, m.total_nodes());
        assert!(m.stats().peak_live >= m.stats().nodes);
    }

    #[test]
    fn interleaved_vars_are_pairwise_adjacent() {
        let mut m = BddManager::new();
        let fams = m.new_vars_interleaved(2, 3);
        assert_eq!(fams.len(), 2);
        for (a, b) in fams[0].iter().zip(&fams[1]) {
            assert_eq!(a.index() + 1, b.index());
        }
    }

    #[test]
    fn gc_reclaims_unrooted_and_keeps_roots() {
        let (mut m, v) = setup(4);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let keep = m.and(lits[0], lits[1]);
        let drop = m.xor(lits[2], lits[3]);
        m.add_root(keep);
        let live_before = m.live_nodes();
        let stats = m.gc();
        assert!(stats.collected > 0, "xor garbage should be reclaimed");
        assert_eq!(stats.live, m.live_nodes());
        assert!(m.live_nodes() < live_before);
        // `keep` still evaluates correctly; a second collection finds nothing.
        assert!(m.eval(keep, |x| x == v[0] || x == v[1]));
        assert_eq!(m.gc().collected, 0);
        // The reclaimed slots are reused and the rebuilt function is
        // hash-consed afresh with the same semantics. The old projection
        // handles are dangling after the collection, so re-derive them.
        let (l2, l3) = (m.var(v[2]), m.var(v[3]));
        let rebuilt = m.xor(l2, l3);
        assert!(m.eval(rebuilt, |x| x == v[2]));
        let _ = drop; // stale handle: intentionally unused after gc
    }

    #[test]
    fn gc_without_roots_keeps_only_terminals() {
        let (mut m, v) = setup(6);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let _ = m.and_many(&lits);
        let stats = m.gc();
        assert_eq!(stats.live, 2);
        assert_eq!(m.live_nodes(), 2);
    }

    #[test]
    fn permanent_duplicate_and_extra_roots() {
        let (mut m, v) = setup(4);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let f = m.and(lits[0], lits[1]);
        let nf = m.not(f);
        // A handle, its complement and a constant: one slot set is rooted,
        // constants are ignored.
        m.add_root(f);
        m.add_root(f);
        m.add_root(nf);
        m.add_root(Bdd::TRUE);
        let g = m.xor(lits[2], lits[3]);
        let stats = m.gc_with_roots(&[g]);
        // `f` and `g` share no slots, so the survivors are exactly both
        // graphs plus the two terminal slots.
        assert_eq!(
            stats.live,
            2 + (m.node_count(f) - 2) + (m.node_count(g) - 2)
        );
        assert!(m.eval(f, |x| x == v[0] || x == v[1]));
        assert!(m.eval(g, |x| x == v[2]));
        // Roots are permanent: later collections keep `f` with no extra
        // roots, while `g`, passed only once, is reclaimed.
        let stats = m.gc();
        assert_eq!(stats.live, 2 + m.node_count(f) - 2);
        assert!(m.eval(nf, |x| x == v[0]));
        assert_eq!(m.gc().collected, 0, "a second collection finds no garbage");
    }

    #[test]
    fn tables_cost_half_a_cache_slot_and_two_buckets_per_store_slot() {
        // x_i ∧ x_{i+20}, or-ed in allocation order, doubles the store with
        // each pair: stop once it has grown past 2^17 nodes.
        let (mut m, v) = setup(40);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let mut f = Bdd::FALSE;
        for i in 0..20 {
            let t = m.and(lits[i], lits[i + 20]);
            f = m.or(f, t);
            if m.nodes.len() > 1 << 17 {
                break;
            }
        }
        assert!(m.nodes.len() > 1 << 17, "store stayed at {}", m.nodes.len());
        assert_eq!(
            m.ite_cache.slot_count(),
            m.nodes.len().next_power_of_two() / 2
        );
        assert_eq!(
            m.unique.bucket_count(),
            2 * m.nodes.capacity().next_power_of_two()
        );
    }

    #[test]
    fn maybe_gc_respects_threshold() {
        let (mut m, v) = setup(8);
        let lits: Vec<Bdd> = v.iter().map(|&x| m.var(x)).collect();
        let _ = m.and_many(&lits);
        m.gc_threshold = usize::MAX;
        assert!(m.maybe_gc(&[]).is_none());
        m.gc_threshold = 2;
        let stats = m.maybe_gc(&[]).expect("above threshold");
        assert_eq!(stats.live, 2);
        assert_eq!(m.gc_threshold, DEFAULT_GC_THRESHOLD, "the trigger resets");
        assert!(m.maybe_gc(&[]).is_none());
    }

    #[test]
    fn operations_stay_canonical_across_gc() {
        let (mut m, v) = setup(3);
        let (a, b) = (m.var(v[0]), m.var(v[1]));
        let f = m.and(a, b);
        m.add_root(f);
        m.gc();
        // The cleared operation cache must not change results: recomputing
        // the same conjunction hash-conses to the same (live) handle.
        let a2 = m.var(v[0]);
        let b2 = m.var(v[1]);
        let f2 = m.and(a2, b2);
        assert_eq!(f, f2);
    }
}
