//! Node-level types for the ROBDD store.

use std::fmt;

/// A Boolean variable managed by a [`crate::BddManager`].
///
/// The index is assigned in allocation order, is stable for the life of the
/// manager, and *is* the variable's position in the ROBDD order: a variable
/// with a smaller index is decided nearer the root.
///
/// ```
/// use pv_bdd::BddManager;
/// let mut m = BddManager::new();
/// let a = m.new_var();
/// let b = m.new_var();
/// assert!(a.index() < b.index());
/// let (va, vb) = (m.var(a), m.var(b));
/// let f = m.and(va, vb);
/// assert_eq!(m.top_var(f), Some(a)); // the earlier variable is on top
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's stable index: its allocation order, which is also its
    /// position in the variable order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A handle to an ROBDD node: a node-table index tagged with a **complement
/// bit** (an *attributed edge*, Brace–Rudell–Bryant 1990).
///
/// The low bit of the word is the complement attribute; the remaining bits
/// are the slot index. A handle with the bit set denotes the *negation* of
/// the function stored at the slot, so negation is a single bit flip that
/// allocates nothing ([`crate::BddManager::not`]), and a function and its
/// complement share one subgraph. There is a single terminal node (slot 0,
/// the constant **true**); constant false is its complemented edge.
///
/// Handles are only meaningful together with the [`crate::BddManager`] that
/// created them. Because the manager hash-conses nodes — and canonical form
/// requires every stored *then* edge to be regular (uncomplemented) — two
/// handles are equal **iff** they denote the same Boolean function:
/// equivalence checking is a word comparison (the canonicity property of
/// Bryant 1986 the thesis relies on in Section 5.4).
///
/// ```
/// use pv_bdd::BddManager;
/// let mut m = BddManager::new();
/// let a = m.new_var();
/// let b = m.new_var();
/// let (va, vb) = (m.var(a), m.var(b));
/// let left = m.and(va, vb);
/// let right = {
///     let na = m.not(va);
///     let nb = m.not(vb);
///     let o = m.or(na, nb);
///     m.not(o)
/// };
/// assert_eq!(left, right); // De Morgan, decided by handle equality
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-true function: the regular edge to the terminal.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant-false function: the complemented edge to the terminal.
    pub const FALSE: Bdd = Bdd(1);

    /// Returns `true` if this handle is the constant-true function.
    pub fn is_true(self) -> bool {
        self == Bdd::TRUE
    }

    /// Returns `true` if this handle is the constant-false function.
    pub fn is_false(self) -> bool {
        self == Bdd::FALSE
    }

    /// Returns `true` if this handle is one of the two constants.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Whether the complement attribute is set: the handle denotes the
    /// negation of the function stored at its slot. Exposed for diagnostics;
    /// all Boolean structure is available through [`crate::BddManager`]
    /// without consulting the bit.
    pub fn is_compl(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented handle: same slot, flipped attribute. `¬f` with zero
    /// allocation (kept crate-private; the public entry point is
    /// [`crate::BddManager::not`]).
    #[inline]
    pub(crate) fn negate(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (uncomplemented) handle for this slot.
    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// Slot index into the manager's node table.
    #[inline]
    pub(crate) fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Raw tagged word — slot index shifted left once, complement attribute
    /// in the low bit — stable for the life of the manager; exposed for
    /// diagnostics and deterministic hashing.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "⊥"),
            Bdd::TRUE => write!(f, "⊤"),
            b if b.is_compl() => write!(f, "!node#{}", b.index()),
            b => write!(f, "node#{}", b.index()),
        }
    }
}

/// Internal node: a decision on `var` with else-child `lo` and then-child
/// `hi`. Canonical form: `hi` is always a **regular** edge — [`Bdd`] handles
/// carry the complement attribute, and `mk` pushes a complemented then-edge
/// down into both children while complementing the returned handle, so each
/// function/negation pair is stored exactly once.
///
/// `next` is the slot index of the following node on the same unique-table
/// chain (`crate::unique`), or of the next free slot on the free list.
/// Either way it is bookkeeping, not part of the node's key, which is why
/// `Node` has no `PartialEq`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    pub(crate) var: u32,
    pub(crate) lo: Bdd,
    pub(crate) hi: Bdd,
    pub(crate) next: u32,
}

/// Variable index used by the terminal pseudo-node (and the reserved slot
/// next to it); orders after every real variable so that terminal tests fall
/// out of the ordering comparisons.
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Variable index marking a reclaimed slot in the node table. Free slots are
/// chained through their `next` link into the manager's free list; they are
/// on no unique-table chain (the collection relinks only the live slots) and
/// are reused by the next `mk`. Orders after every real variable, like
/// [`TERMINAL_VAR`], so a dangling handle fails ordering-based invariants
/// loudly in debug builds rather than silently.
pub(crate) const FREE_VAR: u32 = u32::MAX - 1;

impl Node {
    /// `true` iff this slot has been reclaimed by garbage collection.
    pub(crate) fn is_free(&self) -> bool {
        self.var == FREE_VAR
    }
}
