//! The unique table: one chained hash table threaded through the node store
//! (the CUDD design).
//!
//! A bucket holds the slot index of the first node of its chain, and each
//! node's `next` field links to the following one, so the table itself is a
//! flat `Vec<u32>` and a chain costs no memory beyond the nodes it links.
//! The bucket of a node is the top bits of the `FxHasher` hash of
//! `(var, lo, hi)`. A lookup walks the chain and compares each node's full
//! key: two keys in one bucket are told apart, never confused.
//!
//! The bucket count is the next power of two at or above twice the node
//! store's capacity, with a floor of `2^MIN_BITS`, so a chain holds at most
//! half a node on average. It is re-derived whenever the node store grows,
//! and a resize relinks every live slot. A garbage collection also relinks every live
//! slot in one pass instead of removing the dead ones by key; free slots are
//! on no chain.

use std::hash::Hasher;

use crate::hash::FxHasher;
use crate::node::{Bdd, Node};

/// End of a chain (and of the free list, which shares the `next` link).
pub(crate) const NIL: u32 = u32::MAX;

/// Smallest table: 2^10 buckets.
const MIN_BITS: u32 = 10;

/// Buckets per node-store slot, as a power of two. Two buckets per slot
/// halve the nodes an unsuccessful lookup visits; on the condensed-Alpha0
/// sweep one bucket per slot was slower and saved no peak RSS.
const BUCKETS_PER_SLOT_LOG2: u32 = 1;

/// Bucket heads of the chains that link every live node by its key.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    buckets: Vec<u32>,
    /// `64 - log2(buckets.len())`: the hash bits below the index.
    shift: u32,
}

impl UniqueTable {
    /// The smallest table, all chains empty.
    pub(crate) fn new() -> Self {
        Self::with_bits(MIN_BITS)
    }

    fn with_bits(bits: u32) -> Self {
        UniqueTable {
            buckets: vec![NIL; 1 << bits],
            shift: 64 - bits,
        }
    }

    #[inline]
    fn bucket(&self, var: u32, lo: Bdd, hi: Bdd) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u32(var);
        hasher.write_u32(lo.0);
        hasher.write_u32(hi.0);
        (hasher.finish() >> self.shift) as usize
    }

    /// The slot holding the node `(var, lo, hi)`, or, when no node has that
    /// key, the bucket to [`insert`](Self::insert) it into.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], var: u32, lo: Bdd, hi: Bdd) -> Result<u32, usize> {
        let bucket = self.bucket(var, lo, hi);
        let mut i = self.buckets[bucket];
        while i != NIL {
            let n = &nodes[i as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                return Ok(i);
            }
            i = n.next;
        }
        Err(bucket)
    }

    /// Links slot `idx` at the head of `bucket`'s chain. The bucket must be
    /// the one [`find`](Self::find) returned for the slot's key, with no
    /// resize in between.
    #[inline]
    pub(crate) fn insert(&mut self, nodes: &mut [Node], bucket: usize, idx: u32) {
        nodes[idx as usize].next = self.buckets[bucket];
        self.buckets[bucket] = idx;
    }

    /// Re-derives the bucket count from the node store's `capacity` and,
    /// if it changed, relinks every live slot into a table of the new size.
    /// The manager calls it whenever its node store grows.
    pub(crate) fn fit(&mut self, nodes: &mut [Node], capacity: usize) {
        let bits =
            (capacity.next_power_of_two().trailing_zeros() + BUCKETS_PER_SLOT_LOG2).max(MIN_BITS);
        if 64 - bits != self.shift {
            // The relink reads only the nodes: free the old buckets first,
            // so the two arrays never coexist.
            self.buckets = Vec::new();
            *self = Self::with_bits(bits);
            self.relink(nodes);
        }
    }

    /// Empties every chain and links every live slot again, in one pass
    /// over the node store. Slots 0 and 1 (the terminal and the reserved
    /// slot) and free slots are on no chain.
    pub(crate) fn relink(&mut self, nodes: &mut [Node]) {
        self.buckets.fill(NIL);
        for idx in 2..nodes.len() {
            let n = nodes[idx];
            if !n.is_free() {
                let bucket = self.bucket(n.var, n.lo, n.hi);
                self.insert(nodes, bucket, idx as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::BddManager;

    fn node(var: u32, lo: u32, hi: u32) -> Node {
        Node {
            var,
            lo: Bdd(lo),
            hi: Bdd(hi),
            next: NIL,
        }
    }

    /// Every chain of `t`, as the slot indices it visits. Panics on a chain
    /// longer than the node store, which can only be a cycle.
    fn chains(t: &UniqueTable, nodes: &[Node]) -> Vec<Vec<u32>> {
        t.buckets
            .iter()
            .map(|&head| {
                let mut chain = Vec::new();
                let mut i = head;
                while i != NIL {
                    assert!(
                        chain.len() < nodes.len(),
                        "chain cycle at bucket head {head}"
                    );
                    chain.push(i);
                    i = nodes[i as usize].next;
                }
                chain
            })
            .collect()
    }

    /// Every live slot of `m` lies on exactly one chain, the chain lengths
    /// sum to the live decision nodes, and no chain visits a free slot.
    fn assert_chains_cover_the_live_slots(m: &BddManager) {
        let mut seen = HashSet::new();
        for chain in chains(&m.unique, &m.nodes) {
            for idx in chain {
                assert!(
                    !m.nodes[idx as usize].is_free(),
                    "free slot {idx} on a chain"
                );
                assert!(seen.insert(idx), "slot {idx} on two chains");
            }
        }
        assert_eq!(seen.len(), m.live_nodes() - 2);
    }

    #[test]
    fn colliding_keys_are_each_found_as_themselves() {
        // 16 variables over 1,024 child pairs: 16,384 keys in 1,024 buckets,
        // so every chain holds many keys, among them keys that differ only
        // in their variable.
        let mut t = UniqueTable::new();
        assert_eq!(t.buckets.len(), 1 << MIN_BITS);
        let mut nodes = vec![node(u32::MAX, 0, 0), node(u32::MAX, 0, 0)];
        for var in 0..16 {
            for pair in 0..1024 {
                let (lo, hi) = (2 * pair + 1, 2 * pair + 4);
                let bucket = t.find(&nodes, var, Bdd(lo), Bdd(hi)).unwrap_err();
                let idx = nodes.len() as u32;
                nodes.push(node(var, lo, hi));
                t.insert(&mut nodes, bucket, idx);
            }
        }
        let same_children_same_bucket = (0..1024u32).any(|pair| {
            let (lo, hi) = (Bdd(2 * pair + 1), Bdd(2 * pair + 4));
            (1..16).any(|var| t.bucket(var, lo, hi) == t.bucket(0, lo, hi))
        });
        assert!(same_children_same_bucket, "no key pair differs only in var");
        for (idx, n) in nodes.iter().enumerate().skip(2) {
            assert_eq!(t.find(&nodes, n.var, n.lo, n.hi), Ok(idx as u32));
        }
        // A key that was never inserted is absent even from a full chain.
        assert!(t.find(&nodes, 16, Bdd(1), Bdd(4)).is_err());
        assert!(t.find(&nodes, 0, Bdd(4), Bdd(1)).is_err());
        let sizes: Vec<usize> = chains(&t, &nodes).iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 16 * 1024);
    }

    #[test]
    fn store_doublings_relink_every_live_slot_once() {
        let mut m = BddManager::new();
        let vars = m.new_vars(24);
        let mut checked = 0;
        let mut f = Bdd::FALSE;
        for (i, &a) in vars.iter().enumerate() {
            for &b in &vars[i + 1..] {
                let (va, vb) = (m.var(a), m.var(b));
                let t = m.xor(va, vb);
                f = m.or(f, t);
                f = m.xor(f, va);
            }
            if m.unique.buckets.len() > (1 << MIN_BITS) << checked {
                checked = m.unique.buckets.len().trailing_zeros() - MIN_BITS;
                assert_chains_cover_the_live_slots(&m);
            }
        }
        assert!(checked >= 3, "only {checked} bucket resizes");
        assert!(m.unique.buckets.len() >= 2 * m.nodes.capacity());
        assert_chains_cover_the_live_slots(&m);
    }

    #[test]
    fn collection_unlinks_free_slots_and_reuse_relinks_them() {
        let mut m = BddManager::new();
        let vars = m.new_vars(12);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let garbage = |m: &mut BddManager| {
            let mut g = Bdd::FALSE;
            for (i, &a) in lits.iter().enumerate() {
                let t = m.xor(a, lits[(i + 5) % lits.len()]);
                let u = m.and(t, lits[(i + 3) % lits.len()]);
                g = m.xor(g, u);
            }
            g
        };
        let keep = m.and_many(&lits);
        garbage(&mut m);
        let before = m.live_nodes();
        let mut roots = lits.clone();
        roots.push(keep);
        let gc = m.gc_with_roots(&roots);
        assert!(gc.collected > 0);
        assert_eq!(m.live_nodes(), before - gc.collected);
        assert_chains_cover_the_live_slots(&m);
        // Re-making the garbage takes exactly the freed slots and links
        // them; making it once more finds every node.
        let len = m.nodes.len();
        let again = garbage(&mut m);
        assert_eq!(m.nodes.len(), len, "re-made nodes reuse freed slots");
        assert_chains_cover_the_live_slots(&m);
        let live = m.live_nodes();
        assert_eq!(garbage(&mut m), again);
        assert_eq!(m.live_nodes(), live, "nothing allocated the third time");
        for idx in 2..m.nodes.len() as u32 {
            let n = m.nodes[idx as usize];
            if !n.is_free() {
                assert_eq!(m.unique.find(&m.nodes, n.var, n.lo, n.hi), Ok(idx));
            }
        }
    }
}
