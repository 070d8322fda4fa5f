//! Transition relations, image computation and breadth-first reachability.
//!
//! This module implements the machinery of Section 3.3/3.4 of the thesis: a
//! synchronous machine is represented by its transition relation
//! `A(pi, ps, ns)` over primary-input, present-state and next-state variables;
//! the image of a set of states is computed by simultaneous conjunction and
//! smoothing; and the set of reachable states is the breadth-first fixpoint
//! `C_{i+1} = C_i ∪ f(C_i × I)`.
//!
//! There is one traversal loop, [`TransitionSystem::check_invariant`]: it
//! stops at the first frontier holding a state that violates the property,
//! as the FSM-equivalence check of Section 3.4 does, and plain reachability
//! ([`TransitionSystem::reachable`]) is the check of the property `true`.
//!
//! The relation is held **partitioned** (Burch–Clarke–Long 1991): one
//! conjunct per next-state bit, greedily merged into clusters bounded by a
//! node-count limit, with an *early-quantification* schedule — each
//! input/present variable is smoothed out at the last cluster whose support
//! mentions it, so the intermediate products of the image computation never
//! carry variables they no longer need. The monolithic relation of the
//! original presentation is the special case of a single cluster
//! ([`TransitionSystem::new`]).

use std::collections::{BTreeSet, HashMap};

use crate::{Bdd, BddManager, Var};

/// Default node-count bound on one cluster of the partitioned relation.
/// Conjuncts are merged until their product would exceed this size.
const DEFAULT_CLUSTER_LIMIT: usize = 2_000;

/// One cluster of the partitioned transition relation, with the variables the
/// image computation smooths out right after conjoining it.
#[derive(Clone, Debug)]
struct Cluster {
    rel: Bdd,
    /// Sorted quantifiable (input/present) variables whose last occurrence
    /// across the cluster sequence is this cluster.
    quantify: Vec<Var>,
}

/// A synchronous machine as a transition relation plus an initial-state set.
///
/// The three variable families must be disjoint. For the renaming step of the
/// image computation to stay a linear rewrite, the `present` and `next`
/// variables should be allocated interleaved (each `next[i]` immediately
/// after `present[i]`, as [`crate::BddManager::new_vars_interleaved`]
/// produces and the product-machine baseline allocates them), or blocked (all
/// `present` variables, then all `next`, in matching order); see
/// [`crate::BddManager::replace`].
///
/// Constructing a system registers its relation clusters and initial-state
/// set as garbage-collection roots in the manager, so a traversal
/// ([`check_invariant`](Self::check_invariant)) can collect its per-iteration
/// garbage without invalidating the machine itself.
#[derive(Clone, Debug)]
pub struct TransitionSystem {
    /// Primary-input variables `pi`.
    pub inputs: Vec<Var>,
    /// Present-state variables `ps`.
    pub present: Vec<Var>,
    /// Next-state variables `ns`.
    pub next: Vec<Var>,
    /// Characteristic function of the initial state set, over `present`.
    pub init: Bdd,
    clusters: Vec<Cluster>,
}

/// Result of a breadth-first traversal
/// ([`TransitionSystem::check_invariant`]).
#[derive(Clone, Debug)]
pub struct ReachableSet {
    /// Characteristic function, over the present-state variables, of every
    /// reachable state when the traversal reached its fixpoint, or of the
    /// frontier `C_i` where an invariant check stopped at a violation.
    pub states: Bdd,
    /// Number of image steps taken: to the fixpoint (`C_{n+1} = C_n`), or to
    /// the frontier holding the violation.
    pub iterations: usize,
}

impl TransitionSystem {
    /// Builds a transition system from a **monolithic** relation
    /// `A(pi, ps, ns)` (a single cluster; every input/present variable is
    /// quantified in the one `and_exists` of the image computation).
    ///
    /// # Panics
    /// Panics if `present` and `next` have different lengths.
    pub fn new(
        m: &mut BddManager,
        inputs: Vec<Var>,
        present: Vec<Var>,
        next: Vec<Var>,
        relation: Bdd,
        init: Bdd,
    ) -> Self {
        Self::build(m, inputs, present, next, vec![relation], init, usize::MAX)
    }

    /// Builds a transition system from a **partitioned** relation: `partitions`
    /// are conjuncts (typically `ns_i ↔ f_i(pi, ps)`, one per next-state bit)
    /// whose conjunction is the transition relation. The conjuncts are
    /// clustered by support up to a default node-count limit and an early
    /// quantification schedule is precomputed; the monolithic conjunction is
    /// never built.
    ///
    /// # Panics
    /// Panics if `present` and `next` have different lengths.
    pub fn from_partitions(
        m: &mut BddManager,
        inputs: Vec<Var>,
        present: Vec<Var>,
        next: Vec<Var>,
        partitions: Vec<Bdd>,
        init: Bdd,
    ) -> Self {
        Self::build(
            m,
            inputs,
            present,
            next,
            partitions,
            init,
            DEFAULT_CLUSTER_LIMIT,
        )
    }

    /// Clusters `partitions` under the node-count `cluster_limit`: `0` never
    /// merges (one cluster per conjunct), `usize::MAX` conjoins everything
    /// into a single monolithic cluster.
    fn build(
        m: &mut BddManager,
        inputs: Vec<Var>,
        present: Vec<Var>,
        next: Vec<Var>,
        partitions: Vec<Bdd>,
        init: Bdd,
        cluster_limit: usize,
    ) -> Self {
        assert_eq!(
            present.len(),
            next.len(),
            "present/next variable count mismatch"
        );
        let quantifiable: BTreeSet<Var> = inputs.iter().chain(&present).copied().collect();
        let clusters = Self::cluster(m, partitions, &quantifiable, cluster_limit);
        for c in &clusters {
            m.add_root(c.rel);
        }
        m.add_root(init);
        TransitionSystem {
            inputs,
            present,
            next,
            init,
            clusters,
        }
    }

    /// Orders the conjuncts so that ones over early (topmost) variables come
    /// first, merges neighbours while the product stays below `limit` nodes,
    /// and assigns every quantifiable variable to the **last** cluster whose
    /// support mentions it — the early-quantification schedule.
    fn cluster(
        m: &mut BddManager,
        partitions: Vec<Bdd>,
        quantifiable: &BTreeSet<Var>,
        limit: usize,
    ) -> Vec<Cluster> {
        let mut parts: Vec<(Bdd, BTreeSet<Var>)> = partitions
            .into_iter()
            .filter(|p| !p.is_true())
            .map(|p| {
                let support: BTreeSet<Var> = m
                    .support(p)
                    .into_iter()
                    .filter(|v| quantifiable.contains(v))
                    .collect();
                (p, support)
            })
            .collect();
        // Sort by the bottom-most quantifiable variable in the support: a
        // conjunct whose support ends early lets everything above it be
        // smoothed out early. Ties break on the topmost variable so clusters
        // with similar spans end up adjacent and merge.
        parts.sort_by_key(|(_, s)| {
            (
                s.iter().map(|v| v.index()).max().map_or(0, |l| l + 1),
                s.iter().map(|v| v.index()).min().map_or(0, |l| l + 1),
            )
        });
        let mut rels: Vec<Bdd> = Vec::new();
        let mut current: Option<Bdd> = None;
        for (p, _) in parts {
            current = Some(match current {
                None => p,
                Some(acc) => {
                    let candidate = m.and(acc, p);
                    if m.node_count(candidate) > limit {
                        rels.push(acc);
                        p
                    } else {
                        candidate
                    }
                }
            });
        }
        rels.push(current.unwrap_or(Bdd::TRUE));
        // Last occurrence of each quantifiable variable over the cluster
        // sequence; variables in no support are smoothed at the first cluster
        // (they can only come from the state set being imaged).
        let supports: Vec<BTreeSet<Var>> = rels
            .iter()
            .map(|&r| {
                m.support(r)
                    .into_iter()
                    .filter(|v| quantifiable.contains(v))
                    .collect()
            })
            .collect();
        let mut quantify: Vec<Vec<Var>> = vec![Vec::new(); rels.len()];
        for &v in quantifiable {
            let last = supports.iter().rposition(|s| s.contains(&v)).unwrap_or(0);
            quantify[last].push(v);
        }
        rels.into_iter()
            .zip(quantify)
            .map(|(rel, mut quantify)| {
                quantify.sort_unstable();
                Cluster { rel, quantify }
            })
            .collect()
    }

    /// Computes the image of `states` (a characteristic function over the
    /// present-state variables): the set of states reachable in exactly one
    /// step under *some* input, expressed again over the present-state
    /// variables.
    ///
    /// This is the relational product: conjoin the state set with each
    /// cluster in turn, smoothing out each variable at the last cluster that
    /// mentions it, then rename `ns → ps`.
    pub fn image(&self, m: &mut BddManager, states: Bdd) -> Bdd {
        let mut acc = states;
        for cluster in &self.clusters {
            if acc.is_false() {
                break;
            }
            acc = m.and_exists(acc, cluster.rel, &cluster.quantify);
        }
        let map: HashMap<Var, Var> = self
            .next
            .iter()
            .copied()
            .zip(self.present.iter().copied())
            .collect();
        m.replace(acc, &map)
    }

    /// Breadth-first reachability from the initial states:
    /// `C_0 = init`, `C_{i+1} = C_i ∪ image(C_i)`, until a fixpoint.
    ///
    /// This is [`check_invariant`](Self::check_invariant) with the property
    /// `true`, which no state violates.
    pub fn reachable(&self, m: &mut BddManager) -> ReachableSet {
        self.check_invariant(m, Bdd::TRUE).0
    }

    /// Checks that `property` (over present-state and input variables) holds on
    /// every reachable state under every input: the FSM-equivalence check of
    /// Section 3.4 instantiates `property` with "the product machine outputs 1".
    ///
    /// The traversal is breadth-first from `init` and stops at the first
    /// frontier holding a state that violates `property` under some input.
    /// Returns the frontier it stopped at and whether the property holds:
    /// `(reachable set at the fixpoint, true)` or `(frontier holding the
    /// violation, false)`.
    ///
    /// Between iterations the manager is offered a chance to collect garbage
    /// ([`BddManager::maybe_gc`]); the relation clusters and `init` are
    /// rooted at construction and the frontier and `property` are protected
    /// here. Callers holding further handles across this call must register
    /// them with [`BddManager::add_root`].
    pub fn check_invariant(&self, m: &mut BddManager, property: Bdd) -> (ReachableSet, bool) {
        let not_property = m.not(property);
        let mut current = self.init;
        let mut iterations = 0usize;
        let holds = loop {
            if !m.and(current, not_property).is_false() {
                break false;
            }
            let img = self.image(m, current);
            let next = m.or(current, img);
            iterations += 1;
            if next == current {
                break true;
            }
            current = next;
            // A safe point: nothing unrooted is in flight, so the image
            // garbage can be reclaimed before the next image.
            m.maybe_gc(&[current, not_property]);
        };
        let reach = ReachableSet {
            states: current,
            iterations,
        };
        (reach, holds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-bit counter that increments whenever the single input is high.
    fn counter(m: &mut BddManager) -> TransitionSystem {
        let (relation, parts) = counter_parts(m);
        let (input, p0, n0, p1, n1) = parts;
        let init = m.cube(&[(p0, false), (p1, false)]);
        TransitionSystem::new(m, vec![input], vec![p0, p1], vec![n0, n1], relation, init)
    }

    type CounterVars = (Var, Var, Var, Var, Var);

    fn counter_bit_relations(m: &mut BddManager) -> ((Bdd, Bdd), CounterVars) {
        let input = m.new_var();
        let p0 = m.new_var();
        let n0 = m.new_var();
        let p1 = m.new_var();
        let n1 = m.new_var();
        let (i, vp0, vn0, vp1, vn1) = (m.var(input), m.var(p0), m.var(n0), m.var(p1), m.var(n1));
        // next0 = p0 xor i ; next1 = p1 xor (p0 & i)
        let f0 = m.xor(vp0, i);
        let carry = m.and(vp0, i);
        let f1 = m.xor(vp1, carry);
        let r0 = m.xnor(vn0, f0);
        let r1 = m.xnor(vn1, f1);
        ((r0, r1), (input, p0, n0, p1, n1))
    }

    fn counter_parts(m: &mut BddManager) -> (Bdd, CounterVars) {
        let ((r0, r1), vars) = counter_bit_relations(m);
        (m.and(r0, r1), vars)
    }

    #[test]
    fn image_of_zero_is_zero_or_one() {
        let mut m = BddManager::new();
        let ts = counter(&mut m);
        let img = ts.image(&mut m, ts.init);
        // From state 00 we can reach 00 (input 0) or 01 (input 1).
        let s00 = m.cube(&[(ts.present[0], false), (ts.present[1], false)]);
        let s01 = m.cube(&[(ts.present[0], true), (ts.present[1], false)]);
        let expect = m.or(s00, s01);
        assert_eq!(img, expect);
    }

    #[test]
    fn all_states_reachable() {
        let mut m = BddManager::new();
        let ts = counter(&mut m);
        let reach = ts.reachable(&mut m);
        assert!(reach.states.is_true() || m.sat_count(reach.states) >= 4.0);
        assert!(reach.iterations >= 4);
    }

    #[test]
    fn invariant_check_finds_violation() {
        let mut m = BddManager::new();
        let ts = counter(&mut m);
        // Property "counter never reaches 11" is violated.
        let p0 = m.var(ts.present[0]);
        let p1 = m.var(ts.present[1]);
        let both = m.and(p0, p1);
        let property = m.not(both);
        let (frontier, holds) = ts.check_invariant(&mut m, property);
        assert!(!holds);
        // The check stops at the first frontier reaching 11: three steps from
        // 00, before the fixpoint.
        assert_eq!(frontier.iterations, 3);
        assert!(!m.and(frontier.states, both).is_false());
        // Property "true" trivially holds.
        let (_, holds) = ts.check_invariant(&mut m, Bdd::TRUE);
        assert!(holds);
    }

    #[test]
    fn partitioned_agrees_with_monolithic() {
        // `limit: 0` never merges, `usize::MAX` merges everything back into
        // one cluster; every variant must produce the same (canonical) images
        // and reachable sets as the monolithic system.
        // Building both systems over the same variables in the same manager
        // makes these handle comparisons.
        for limit in [0usize, 1, usize::MAX] {
            let mut m = BddManager::new();
            let ((r0, r1), (input, p0, n0, p1, n1)) = counter_bit_relations(&mut m);
            let init = m.cube(&[(p0, false), (p1, false)]);
            let relation = m.and(r0, r1);
            let mono = TransitionSystem::new(
                &mut m,
                vec![input],
                vec![p0, p1],
                vec![n0, n1],
                relation,
                init,
            );
            let part = TransitionSystem::build(
                &mut m,
                vec![input],
                vec![p0, p1],
                vec![n0, n1],
                vec![r0, r1],
                init,
                limit,
            );
            assert!(limit > 0 || part.clusters.len() == 2);
            assert_eq!(mono.clusters.len(), 1);
            let img_m = mono.image(&mut m, mono.init);
            let img_p = part.image(&mut m, part.init);
            assert_eq!(img_m, img_p);
            let mono_reach = mono.reachable(&mut m);
            let part_reach = part.reachable(&mut m);
            assert_eq!(mono_reach.states, part_reach.states);
            assert_eq!(mono_reach.iterations, part_reach.iterations);
            // The clusters still conjoin to the full relation.
            let rels: Vec<Bdd> = part.clusters.iter().map(|c| c.rel).collect();
            assert_eq!(m.and_many(&rels), relation);
        }
    }
}
