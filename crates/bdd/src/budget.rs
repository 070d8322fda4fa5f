//! Cooperative resource budgets for long-running BDD computations.
//!
//! A [`Budget`] is a cheap, clonable handle bundling the three ways a caller
//! can bound a symbolic computation:
//!
//! * a **wall-clock deadline** (fixed at construction, so every clone and
//!   child observes the same instant),
//! * a **node budget** — an upper bound on the manager's *allocated* node
//!   count (total nodes ever created, monotone across garbage collections:
//!   the total-work measure, deterministic for a deterministic computation),
//! * a **cooperative cancel flag** behind an atomic, so one worker hitting a
//!   terminal result can stop its in-flight siblings at their next safe
//!   point.
//!
//! The engine consults the budget only at its existing safe points — the
//! per-cycle [`maybe_gc`](crate::BddManager::maybe_gc) call and (amortized)
//! the ITE and constrain cache-miss paths — and aborts by unwinding with a typed
//! [`BudgetExceeded`] panic payload through [`std::panic::resume_unwind`], so
//! no panic hook runs and nothing is printed. Unwinding at a safe point
//! leaves the manager **allocation-consistent**: every table mutation
//! between two safe points completes atomically, so a caught abort leaves a
//! GC-able, reusable manager (see the `budget` tests).
//!
//! [`Budget::child`] derives a per-unit budget sharing the parent's deadline
//! and node limit but owning its cancel flag; cancelling the parent cancels
//! every child, cancelling a child is local. This is the fan-out shape of the
//! parallel plan verifier: one job-level budget, one child per plan.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted computation was aborted. Used as the panic payload of a
/// cooperative abort and downcast back to a typed outcome at the catch site
/// (the worker pool's unit boundary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The manager's allocated-node count passed the node budget.
    Nodes,
    /// The cancel flag was raised (by this handle or an ancestor).
    Cancelled,
}

impl BudgetExceeded {
    /// A stable lowercase name (`deadline` / `nodes` / `cancelled`).
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetExceeded::Deadline => "deadline",
            BudgetExceeded::Nodes => "nodes",
            BudgetExceeded::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "wall-clock deadline exceeded"),
            BudgetExceeded::Nodes => write!(f, "BDD node budget exceeded"),
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[derive(Debug)]
struct BudgetInner {
    deadline: Option<Instant>,
    node_limit: usize,
    cancelled: AtomicBool,
    /// Cancellation propagates down: a child is cancelled when any ancestor
    /// is. The chain is one level deep in practice (job → plan).
    parent: Option<Budget>,
}

/// A clonable handle bounding a computation. See the [module docs](self).
///
/// Cloning shares the same flags (an `Arc` bump); [`child`](Self::child)
/// derives a new handle with its own cancel flag.
#[derive(Clone, Debug)]
pub struct Budget {
    inner: Arc<BudgetInner>,
}

impl Default for Budget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline, no node limit and the cancel flag down —
    /// checking it always succeeds until someone cancels.
    pub fn unlimited() -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: None,
                node_limit: usize::MAX,
                cancelled: AtomicBool::new(false),
                parent: None,
            }),
        }
    }

    /// This budget with a wall-clock deadline `timeout` from now. The
    /// deadline instant is fixed here, so clones and children all expire
    /// together.
    #[must_use]
    pub fn with_deadline(self, timeout: Duration) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: Some(Instant::now() + timeout),
                node_limit: self.inner.node_limit,
                cancelled: AtomicBool::new(self.inner.cancelled.load(Ordering::Relaxed)),
                parent: self.inner.parent.clone(),
            }),
        }
    }

    /// This budget with an allocated-node limit (`usize::MAX` = unlimited).
    #[must_use]
    pub fn with_node_limit(self, nodes: usize) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: self.inner.deadline,
                node_limit: nodes,
                cancelled: AtomicBool::new(self.inner.cancelled.load(Ordering::Relaxed)),
                parent: self.inner.parent.clone(),
            }),
        }
    }

    /// A child budget: same deadline and node limit, its own cancel flag,
    /// and this budget as its parent (so cancelling `self` cancels the child
    /// but not vice versa).
    pub fn child(&self) -> Self {
        Budget {
            inner: Arc::new(BudgetInner {
                deadline: self.inner.deadline,
                node_limit: self.inner.node_limit,
                cancelled: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Raises the cancel flag. Computations checking this budget (or a child
    /// of it) abort with [`BudgetExceeded::Cancelled`] at their next safe
    /// point.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether this handle or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        let mut budget = Some(self);
        while let Some(b) = budget {
            if b.inner.cancelled.load(Ordering::Acquire) {
                return true;
            }
            budget = b.inner.parent.as_ref();
        }
        false
    }

    /// The allocated-node limit (`usize::MAX` when unlimited).
    pub fn node_limit(&self) -> usize {
        self.inner.node_limit
    }

    /// Checks the budget against the caller's current allocated-node count.
    ///
    /// # Errors
    /// The first bound found exceeded, checked in the order cancellation →
    /// nodes → deadline (the deadline check reads the clock, so it comes
    /// last; the node check is pure arithmetic and therefore deterministic
    /// for a deterministic computation).
    pub fn check(&self, allocated_nodes: usize) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        if allocated_nodes > self.inner.node_limit {
            return Err(BudgetExceeded::Nodes);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }
}

// Budgets are shared across the worker pool by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Budget>();
    assert_send_sync::<BudgetExceeded>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budgets_always_pass() {
        let b = Budget::unlimited();
        assert_eq!(b.check(usize::MAX - 1), Ok(()));
    }

    #[test]
    fn node_limits_are_exclusive_upper_bounds() {
        let b = Budget::unlimited().with_node_limit(100);
        assert_eq!(b.check(100), Ok(()), "at the limit is still within budget");
        assert_eq!(b.check(101), Err(BudgetExceeded::Nodes));
    }

    #[test]
    fn deadlines_expire() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(b.check(0), Err(BudgetExceeded::Deadline));
        let far = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(far.check(0), Ok(()));
    }

    #[test]
    fn cancellation_propagates_to_children_not_parents() {
        let parent = Budget::unlimited().with_node_limit(10);
        let child = parent.child();
        assert_eq!(child.node_limit(), 10, "children share the limits");

        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel is local");

        let sibling = parent.child();
        parent.cancel();
        assert!(sibling.is_cancelled(), "parent cancel reaches every child");
        assert_eq!(sibling.check(0), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn cancellation_outranks_other_bounds() {
        let b = Budget::unlimited().with_node_limit(1);
        b.cancel();
        assert_eq!(b.check(1000), Err(BudgetExceeded::Cancelled));
    }
}
