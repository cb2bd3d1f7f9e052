//! Chunked bitset: basis states and qubit masks at any width.
//!
//! The compiled simulator keys basis states as `u128`, which caps every
//! consumer at 128 qubits ([`crate::compile::MAX_COMPILE_WIDTH`]). The
//! static analyzer has no such excuse — evaluating an X/CX/MCX circuit
//! as a permutation needs only bit-set semantics, so `qmkp-lint`'s
//! symbolic and enumerative passes run on this `Vec<u64>`-backed bitset
//! instead and verify circuits of *any* width (ROADMAP item 5's
//! ">128-qubit imported circuits are verifiable" prerequisite).
//!
//! The representation is canonical — no trailing zero words — so the
//! derived `PartialEq`/`Eq`/`Hash` treat `0b01` the same whether it was
//! built by one `set` or by a `set`/`unset` pair on a high bit. Every
//! mutator restores the invariant before returning.

/// A growable, canonical (no trailing zero words) little-endian bitset.
///
/// Bit `i` lives in word `i / 64` at position `i % 64`. Reads beyond the
/// stored words are `false`; writes grow the vector on demand.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    /// The empty (all-zeros) bitset.
    #[must_use]
    pub fn new() -> Self {
        BitVec { words: Vec::new() }
    }

    /// A bitset with exactly `bit` set.
    #[must_use]
    pub fn singleton(bit: usize) -> Self {
        let mut v = BitVec::new();
        v.set(bit, true);
        v
    }

    /// The low 128 bits of `value` as a bitset.
    #[must_use]
    pub fn from_u128(value: u128) -> Self {
        let mut v = BitVec {
            words: vec![value as u64, (value >> 64) as u64],
        };
        v.trim();
        v
    }

    /// The bitset as a `u128`, when it fits in 128 bits.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self.words.len() {
            0 => Some(0),
            1 => Some(u128::from(self.words[0])),
            2 => Some(u128::from(self.words[0]) | (u128::from(self.words[1]) << 64)),
            _ => None,
        }
    }

    /// Whether bit `bit` is set.
    #[must_use]
    pub fn get(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| (w >> (bit % 64)) & 1 == 1)
    }

    /// Sets bit `bit` to `value`, growing the storage as needed.
    pub fn set(&mut self, bit: usize, value: bool) {
        let word = bit / 64;
        if value {
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            self.words[word] |= 1u64 << (bit % 64);
        } else if word < self.words.len() {
            self.words[word] &= !(1u64 << (bit % 64));
            self.trim();
        }
    }

    /// Flips bit `bit`.
    pub fn toggle(&mut self, bit: usize) {
        let word = bit / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] ^= 1u64 << (bit % 64);
        self.trim();
    }

    /// XORs `other` into `self` (symmetric difference).
    pub fn xor_with(&mut self, other: &BitVec) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w ^= o;
        }
        self.trim();
    }

    /// Whether no bit is set.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of the set bits, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    None
                } else {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// The backing words, canonical (no trailing zeros), little-endian.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl PartialOrd for BitVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitVec {
    /// Numeric order: canonical trimming makes word count the magnitude
    /// class, then words compare most-significant first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words
            .len()
            .cmp(&other.words.len())
            .then_with(|| self.words.iter().rev().cmp(other.words.iter().rev()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &BitVec) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn set_get_toggle_roundtrip() {
        let mut v = BitVec::new();
        assert!(!v.get(200));
        v.set(200, true);
        assert!(v.get(200));
        assert_eq!(v.count_ones(), 1);
        v.toggle(200);
        assert!(v.is_zero());
        assert!(v.words().is_empty(), "trailing zero words must be trimmed");
    }

    #[test]
    fn equality_and_hash_are_canonical() {
        let mut a = BitVec::singleton(3);
        let mut b = BitVec::singleton(3);
        // Push `a` through a high-bit excursion; it must come back equal.
        a.set(500, true);
        a.set(500, false);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        b.xor_with(&BitVec::singleton(700));
        b.xor_with(&BitVec::singleton(700));
        assert_eq!(a, b);
    }

    #[test]
    fn xor_is_symmetric_difference() {
        let mut a = BitVec::from_u128(0b1010);
        a.xor_with(&BitVec::from_u128(0b0110));
        assert_eq!(a, BitVec::from_u128(0b1100));
        a.xor_with(&a.clone());
        assert!(a.is_zero());
    }

    #[test]
    fn u128_conversions() {
        let v = BitVec::from_u128(u128::MAX - 5);
        assert_eq!(v.as_u128(), Some(u128::MAX - 5));
        assert_eq!(BitVec::new().as_u128(), Some(0));
        assert_eq!(BitVec::singleton(129).as_u128(), None);
    }

    #[test]
    fn ones_iterates_ascending_across_words() {
        let mut v = BitVec::new();
        for bit in [0, 63, 64, 130, 300] {
            v.set(bit, true);
        }
        assert_eq!(v.ones().collect::<Vec<_>>(), vec![0, 63, 64, 130, 300]);
    }

    #[test]
    fn ordering_is_numeric() {
        let small = BitVec::from_u128(0b0111);
        let big = BitVec::from_u128(0b1000);
        assert!(small < big);
        assert!(BitVec::singleton(200) > BitVec::from_u128(u128::MAX));
        assert_eq!(BitVec::new().cmp(&BitVec::new()), std::cmp::Ordering::Equal);
    }
}
