//! Compact vertex sets over at most 128 vertices.
//!
//! The quantum algorithms in this workspace represent a candidate subgraph
//! as a basis state of `n` vertex qubits — i.e. an `n`-bit string. The
//! classical side mirrors that encoding: a [`VertexSet`] is a `u128`
//! bitmask where bit `i` set means vertex `i` is in the set. All set
//! algebra used by the solvers (intersection with neighbourhoods, popcount
//! for degrees, subset iteration) compiles down to a handful of word ops.

use std::fmt;
use std::ops::{
    BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not, Sub, SubAssign,
};

/// Maximum number of vertices representable by [`VertexSet`].
pub const MAX_VERTICES: usize = 128;

/// A set of vertices, stored as a 128-bit mask (bit `i` ⇔ vertex `i`).
///
/// The `Ord` implementation orders sets by their mask value, which matches
/// the integer value of the corresponding quantum basis state when vertex 0
/// is the least-significant bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VertexSet(pub u128);

impl VertexSet {
    /// The empty set.
    pub const EMPTY: VertexSet = VertexSet(0);

    /// Creates an empty set.
    #[inline]
    pub const fn new() -> Self {
        VertexSet(0)
    }

    /// Creates a set containing a single vertex.
    #[inline]
    pub const fn singleton(v: usize) -> Self {
        VertexSet(1u128 << v)
    }

    /// Creates the full set `{0, 1, …, n-1}`.
    ///
    /// # Panics
    /// Panics if `n > 128`.
    #[inline]
    pub fn full(n: usize) -> Self {
        assert!(
            n <= MAX_VERTICES,
            "VertexSet supports at most {MAX_VERTICES} vertices"
        );
        if n == MAX_VERTICES {
            VertexSet(u128::MAX)
        } else {
            VertexSet((1u128 << n) - 1)
        }
    }

    /// Creates a set from an iterator of vertex indices.
    #[allow(clippy::should_implement_trait)] // inherent for ergonomics; callers use VertexSet::from_iter directly
    pub fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = VertexSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Interprets the low `n` bits of `bits` as a vertex set
    /// (bit `i` ⇔ vertex `i`), matching the quantum basis-state encoding.
    #[inline]
    pub const fn from_bits(bits: u128) -> Self {
        VertexSet(bits)
    }

    /// The raw bitmask.
    #[inline]
    pub const fn bits(self) -> u128 {
        self.0
    }

    /// Number of vertices in the set.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether vertex `v` is in the set.
    #[inline]
    pub const fn contains(self, v: usize) -> bool {
        (self.0 >> v) & 1 == 1
    }

    /// Inserts vertex `v`.
    #[inline]
    pub fn insert(&mut self, v: usize) {
        debug_assert!(v < MAX_VERTICES);
        self.0 |= 1u128 << v;
    }

    /// Removes vertex `v`.
    #[inline]
    pub fn remove(&mut self, v: usize) {
        self.0 &= !(1u128 << v);
    }

    /// Returns a copy with vertex `v` inserted.
    #[inline]
    pub const fn with(self, v: usize) -> Self {
        VertexSet(self.0 | (1u128 << v))
    }

    /// Returns a copy with vertex `v` removed.
    #[inline]
    pub const fn without(self, v: usize) -> Self {
        VertexSet(self.0 & !(1u128 << v))
    }

    /// Whether `self` is a subset of `other`.
    #[inline]
    pub const fn is_subset_of(self, other: VertexSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: VertexSet) -> VertexSet {
        VertexSet(self.0 & other.0)
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: VertexSet) -> VertexSet {
        VertexSet(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub const fn difference(self, other: VertexSet) -> VertexSet {
        VertexSet(self.0 & !other.0)
    }

    /// The lowest-indexed vertex, if any.
    #[inline]
    pub fn min_vertex(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0.trailing_zeros() as usize)
        }
    }

    /// Iterates over the vertex indices in ascending order.
    #[inline]
    pub fn iter(self) -> VertexIter {
        VertexIter(self.0)
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Iterator over the vertices of a [`VertexSet`], ascending.
#[derive(Clone)]
pub struct VertexIter(u128);

impl Iterator for VertexIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let v = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(v)
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let c = self.0.count_ones() as usize;
        (c, Some(c))
    }
}

impl ExactSizeIterator for VertexIter {}

impl IntoIterator for VertexSet {
    type Item = usize;
    type IntoIter = VertexIter;

    fn into_iter(self) -> VertexIter {
        self.iter()
    }
}

impl FromIterator<usize> for VertexSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        VertexSet::from_iter(iter)
    }
}

impl BitAnd for VertexSet {
    type Output = VertexSet;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl BitOr for VertexSet {
    type Output = VertexSet;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl BitXor for VertexSet {
    type Output = VertexSet;
    fn bitxor(self, rhs: Self) -> Self {
        VertexSet(self.0 ^ rhs.0)
    }
}

impl Sub for VertexSet {
    type Output = VertexSet;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl Not for VertexSet {
    type Output = VertexSet;
    fn not(self) -> Self {
        VertexSet(!self.0)
    }
}

impl BitAndAssign for VertexSet {
    fn bitand_assign(&mut self, rhs: Self) {
        self.0 &= rhs.0;
    }
}

impl BitOrAssign for VertexSet {
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl BitXorAssign for VertexSet {
    fn bitxor_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl SubAssign for VertexSet {
    fn sub_assign(&mut self, rhs: Self) {
        self.0 &= !rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert!(VertexSet::EMPTY.is_empty());
        assert_eq!(VertexSet::EMPTY.len(), 0);
        let s = VertexSet::singleton(5);
        assert_eq!(s.len(), 1);
        assert!(s.contains(5));
        assert!(!s.contains(4));
    }

    #[test]
    fn full_sets() {
        assert_eq!(VertexSet::full(0), VertexSet::EMPTY);
        assert_eq!(VertexSet::full(6).len(), 6);
        assert_eq!(VertexSet::full(128).len(), 128);
        assert!(VertexSet::full(128).contains(127));
    }

    #[test]
    #[should_panic]
    fn full_over_128_panics() {
        let _ = VertexSet::full(129);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = VertexSet::new();
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(127);
        assert_eq!(s.len(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        // Removing a vertex that is not present is a no-op.
        s.remove(63);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn with_without_are_pure() {
        let s = VertexSet::singleton(2);
        let t = s.with(7);
        assert!(!s.contains(7));
        assert!(t.contains(7));
        assert_eq!(t.without(7), s);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_iter([0, 1, 2, 3]);
        let b = VertexSet::from_iter([2, 3, 4, 5]);
        assert_eq!(a & b, VertexSet::from_iter([2, 3]));
        assert_eq!(a | b, VertexSet::from_iter([0, 1, 2, 3, 4, 5]));
        assert_eq!(a - b, VertexSet::from_iter([0, 1]));
        assert_eq!(a ^ b, VertexSet::from_iter([0, 1, 4, 5]));
        assert!(VertexSet::from_iter([2, 3]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
    }

    #[test]
    fn min_vertex_and_iteration_order() {
        let s = VertexSet::from_iter([9, 3, 120, 44]);
        assert_eq!(s.min_vertex(), Some(3));
        let vs: Vec<usize> = s.iter().collect();
        assert_eq!(vs, vec![3, 9, 44, 120]);
        assert_eq!(VertexSet::EMPTY.min_vertex(), None);
    }

    #[test]
    fn iterator_size_hint_is_exact() {
        let s = VertexSet::from_iter([1, 2, 3, 100]);
        let it = s.iter();
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(it.len(), 4);
    }

    #[test]
    fn bits_match_basis_state_encoding() {
        // {v0, v3} ⇔ binary …01001 ⇔ integer 9.
        let s = VertexSet::from_iter([0, 3]);
        assert_eq!(s.bits(), 0b1001);
        assert_eq!(VertexSet::from_bits(0b1001), s);
    }

    #[test]
    fn debug_formatting() {
        let s = VertexSet::from_iter([1, 4]);
        assert_eq!(format!("{s:?}"), "{1, 4}");
        assert_eq!(format!("{s}"), "{1, 4}");
        assert_eq!(format!("{:?}", VertexSet::EMPTY), "{}");
    }

    #[test]
    fn ordering_matches_mask_value() {
        assert!(VertexSet::from_bits(3) < VertexSet::from_bits(4));
    }
}
