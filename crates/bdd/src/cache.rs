//! The computed table: a fixed-size, direct-mapped, overwrite-on-collision
//! cache of operation results (the CUDD/BuDDy design).
//!
//! Each key hashes to exactly one slot; a lookup compares the slot's full
//! key and an insertion overwrites whatever the slot held. Losing an entry
//! only costs a recomputation, so the table never chains, probes or grows
//! past its bound, and a garbage collection invalidates it with one linear
//! pass over a flat array.
//!
//! The slot count follows the node store: the next power of two at or above
//! its length, clamped to `[2^MIN_BITS, 2^MAX_BITS]`. Indices are the top
//! bits of the key's 64-bit multiplicative hash (`FxHasher`), so doubling
//! the table splits every slot in two and re-inserts each entry without a
//! collision.
//!
//! The all-`⊤` key marks an empty slot. It is never a real key: an ITE key's
//! condition is non-constant, and a `constrain` key's second field (the
//! regular operand) is non-constant. So an empty table is all zero bits.

use std::hash::Hasher;

use crate::hash::FxHasher;
use crate::node::Bdd;

/// Smallest table: 2^12 slots (64 KiB).
const MIN_BITS: u32 = 12;
/// Largest table: 2^22 slots (64 MiB).
const MAX_BITS: u32 = 22;

/// One cached result: the key `(f, g, h)` and its result `r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    f: Bdd,
    g: Bdd,
    h: Bdd,
    r: Bdd,
}

const EMPTY: Slot = Slot {
    f: Bdd::TRUE,
    g: Bdd::TRUE,
    h: Bdd::TRUE,
    r: Bdd::TRUE,
};

impl Slot {
    #[inline]
    fn is_empty(&self) -> bool {
        self.f == Bdd::TRUE && self.g == Bdd::TRUE && self.h == Bdd::TRUE
    }
}

/// A lossy map from `(f, g, h)` handle triples to result handles.
#[derive(Debug)]
pub(crate) struct ComputedTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash bits below the index.
    shift: u32,
    /// Number of non-empty slots.
    occupied: usize,
}

impl ComputedTable {
    /// The smallest table, all slots empty.
    pub(crate) fn new() -> Self {
        Self::with_bits(MIN_BITS)
    }

    fn with_bits(bits: u32) -> Self {
        ComputedTable {
            slots: vec![EMPTY; 1 << bits],
            shift: 64 - bits,
            occupied: 0,
        }
    }

    #[inline]
    fn index(&self, f: Bdd, g: Bdd, h: Bdd) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write_u32(f.0);
        hasher.write_u32(g.0);
        hasher.write_u32(h.0);
        (hasher.finish() >> self.shift) as usize
    }

    /// The result cached under `(f, g, h)`, if its slot still holds it.
    #[inline]
    pub(crate) fn get(&self, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        let slot = &self.slots[self.index(f, g, h)];
        (slot.f == f && slot.g == g && slot.h == h).then_some(slot.r)
    }

    /// Caches `r` under `(f, g, h)`, evicting whatever entry held the slot.
    #[inline]
    pub(crate) fn insert(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        debug_assert!(
            (f, g, h) != (Bdd::TRUE, Bdd::TRUE, Bdd::TRUE),
            "the all-⊤ key marks an empty slot"
        );
        let i = self.index(f, g, h);
        let slot = &mut self.slots[i];
        self.occupied += usize::from(slot.is_empty());
        *slot = Slot { f, g, h, r };
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    /// Re-derives the slot count from the node-store length `nodes` and, if
    /// it changed, re-inserts every entry into a table of the new size. The
    /// manager calls it whenever its node store grows.
    pub(crate) fn fit(&mut self, nodes: usize) {
        let bits = nodes
            .next_power_of_two()
            .trailing_zeros()
            .clamp(MIN_BITS, MAX_BITS);
        if 64 - bits == self.shift {
            return;
        }
        let old = std::mem::replace(self, Self::with_bits(bits));
        for slot in old.slots.into_iter().filter(|s| !s.is_empty()) {
            self.insert(slot.f, slot.g, slot.h, slot.r);
        }
    }

    /// Empties every slot whose key or result names a handle for which
    /// `dead` holds, in one pass over the array.
    pub(crate) fn drop_dead(&mut self, dead: impl Fn(Bdd) -> bool) {
        let mut occupied = 0;
        for slot in &mut self.slots {
            if slot.is_empty() {
                continue;
            }
            if dead(slot.f) || dead(slot.g) || dead(slot.h) || dead(slot.r) {
                *slot = EMPTY;
            } else {
                occupied += 1;
            }
        }
        self.occupied = occupied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u32) -> Bdd {
        Bdd(n)
    }

    #[test]
    fn colliding_insert_overwrites_and_evicts() {
        let mut t = ComputedTable::new();
        let (f1, g, h) = (b(2), b(4), b(6));
        let slot = t.index(f1, g, h);
        let f2 = (3..)
            .map(|n| b(2 * n))
            .find(|&f| t.index(f, g, h) == slot)
            .unwrap();
        t.insert(f1, g, h, b(10));
        assert_eq!(t.get(f1, g, h), Some(b(10)));
        t.insert(f2, g, h, b(12));
        assert_eq!(t.get(f2, g, h), Some(b(12)));
        assert_eq!(t.get(f1, g, h), None, "the evicted key must miss");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_slots_never_match_a_real_key() {
        let t = ComputedTable::new();
        // A real key always has a non-constant first or second field.
        for n in 1..5000u32 {
            assert_eq!(t.get(b(2 * n), b(0), b(0)), None);
            assert_eq!(t.get(Bdd::TRUE, b(2 * n), b(1)), None);
            assert_eq!(t.get(Bdd::TRUE, b(2 * n), Bdd::TRUE), None);
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "empty slot")]
    #[cfg(debug_assertions)]
    fn the_empty_key_is_rejected() {
        ComputedTable::new().insert(Bdd::TRUE, Bdd::TRUE, Bdd::TRUE, b(4));
    }

    #[test]
    fn sizing_follows_the_node_store_within_the_clamp() {
        let mut t = ComputedTable::new();
        assert_eq!(t.slots.len(), 1 << MIN_BITS);
        t.fit(100);
        assert_eq!(t.slots.len(), 1 << MIN_BITS);
        t.fit((1 << 13) + 1);
        assert_eq!(t.slots.len(), 1 << 14);
        t.fit(usize::MAX / 4);
        assert_eq!(t.slots.len(), 1 << MAX_BITS);
    }

    #[test]
    fn a_resize_keeps_every_entry() {
        let mut t = ComputedTable::new();
        let keys: Vec<_> = (1..20_000u32)
            .map(|n| (b(2 * n), b(2 * n + 5), b(n % 7)))
            .collect();
        for (i, &(f, g, h)) in keys.iter().enumerate() {
            t.insert(f, g, h, b(i as u32));
        }
        let before: Vec<_> = keys.iter().map(|&(f, g, h)| t.get(f, g, h)).collect();
        let kept = t.len();
        assert!(kept > 0 && kept < keys.len(), "the small table is lossy");
        t.fit(1 << 16);
        assert_eq!(t.slots.len(), 1 << 16);
        assert_eq!(t.len(), kept);
        for (&(f, g, h), was) in keys.iter().zip(before) {
            assert_eq!(t.get(f, g, h), was);
        }
    }

    #[test]
    fn gc_pass_drops_exactly_the_entries_naming_a_dead_handle() {
        // Slot indices 2..=9 are dead; every other slot lives.
        let dead = |x: Bdd| (2..10).contains(&x.index());
        let cases = [
            ((b(20), b(22), b(24)), b(26), true),
            ((b(4), b(22), b(24)), b(26), false),
            ((b(20), b(5), b(24)), b(26), false),
            ((b(20), b(22), b(18)), b(26), false),
            ((b(20), b(22), b(24)), b(9), false),
            // Constrain entries: the constant tag is never dead.
            ((Bdd::TRUE, b(30), b(32)), b(34), true),
            ((Bdd::TRUE, b(30), b(32)), Bdd::FALSE, true),
            ((Bdd::TRUE, b(30), b(6)), b(34), false),
        ];
        for ((f, g, h), r, survives) in cases {
            let mut t = ComputedTable::new();
            t.insert(f, g, h, r);
            t.drop_dead(dead);
            assert_eq!(t.get(f, g, h), survives.then_some(r));
            assert_eq!(t.len(), usize::from(survives));
        }
    }
}
