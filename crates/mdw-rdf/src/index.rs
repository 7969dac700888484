//! Triple indexes: three covering permutations (SPO, POS, OSP).
//!
//! Every access pattern with a bound prefix maps onto a contiguous range of
//! exactly one permutation:
//!
//! | bound      | permutation | range prefix |
//! |------------|-------------|--------------|
//! | —          | SPO         | full scan    |
//! | S          | SPO         | (s, *, *)    |
//! | S,P        | SPO         | (s, p, *)    |
//! | S,P,O      | SPO         | point lookup |
//! | P          | POS         | (p, *, *)    |
//! | P,O        | POS         | (p, o, *)    |
//! | O          | OSP         | (o, *, *)    |
//! | S,O        | OSP         | (o, s, *)    |
//!
//! This mirrors what Oracle's RDF model tables (and stores like RDF-3X or
//! Hexastore) do with their permuted B-tree indexes; `BTreeSet` gives us the
//! same ordered-range behaviour in memory.

use std::collections::BTreeSet;
use std::ops::Bound;

use crate::triple::{Triple, TriplePattern};

/// A permuted index row. The component order depends on the permutation the
/// row lives in (SPO, POS, or OSP).
pub(crate) type Key = (u64, u64, u64);

/// A triple index maintaining the SPO, POS, and OSP permutations in lockstep.
#[derive(Debug, Default, Clone)]
pub struct TripleIndex {
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

/// Which permutation a pattern was routed to; exposed for planner tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Permutation {
    /// Subject-predicate-object order.
    Spo,
    /// Predicate-object-subject order.
    Pos,
    /// Object-subject-predicate order.
    Osp,
}

impl TripleIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a triple into all three permutations.
    /// Returns `true` if the triple was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        let (s, p, o) = t.as_tuple();
        let fresh = self.spo.insert((s, p, o));
        if fresh {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        fresh
    }

    /// Removes a triple from all three permutations.
    /// Returns `true` if the triple was present.
    pub fn remove(&mut self, t: Triple) -> bool {
        let (s, p, o) = t.as_tuple();
        let present = self.spo.remove(&(s, p, o));
        if present {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        present
    }

    /// Whether the exact triple is present.
    pub fn contains(&self, t: Triple) -> bool {
        self.spo.contains(&t.as_tuple())
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the index holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Which permutation would serve this pattern.
    pub fn route(pattern: &TriplePattern) -> Permutation {
        match (pattern.s, pattern.p, pattern.o) {
            // S-prefix patterns (and full scans) go to SPO.
            (Some(_), _, None) | (None, None, None) | (Some(_), Some(_), Some(_)) => {
                Permutation::Spo
            }
            // P-prefix patterns go to POS.
            (None, Some(_), _) => Permutation::Pos,
            // O-prefix (and S+O) patterns go to OSP.
            (_, None, Some(_)) => Permutation::Osp,
        }
    }

    /// Scans all triples matching a pattern, in the routed permutation's
    /// order. The returned iterator borrows the index.
    pub fn scan(&self, pattern: TriplePattern) -> IndexScan<'_> {
        type Routed<'a> = (&'a BTreeSet<Key>, Key, Key, fn(Key) -> Triple);
        let (set, lo, hi, remap): Routed<'_> =
            match Self::route(&pattern) {
                Permutation::Spo => {
                    let (lo, hi) = prefix_bounds(pattern.s.map(|x| x.0), pattern.p.map(|x| x.0), pattern.o.map(|x| x.0));
                    (&self.spo, lo, hi, |(s, p, o)| Triple::from_tuple((s, p, o)))
                }
                Permutation::Pos => {
                    let (lo, hi) = prefix_bounds(pattern.p.map(|x| x.0), pattern.o.map(|x| x.0), None);
                    (&self.pos, lo, hi, |(p, o, s)| Triple::from_tuple((s, p, o)))
                }
                Permutation::Osp => {
                    let (lo, hi) = prefix_bounds(pattern.o.map(|x| x.0), pattern.s.map(|x| x.0), None);
                    (&self.osp, lo, hi, |(o, s, p)| Triple::from_tuple((s, p, o)))
                }
            };
        IndexScan {
            range: set.range((Bound::Included(lo), Bound::Included(hi))),
            remap,
            pattern,
        }
    }

    /// Counts matches for a pattern, optionally capped (for selectivity
    /// estimation: counting stops at `cap` so estimation stays cheap on
    /// huge ranges).
    pub fn count(&self, pattern: TriplePattern, cap: Option<usize>) -> usize {
        let iter = self.scan(pattern);
        match cap {
            Some(cap) => iter.take(cap).count(),
            None => iter.count(),
        }
    }

    /// Iterates over all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(|&k| Triple::from_tuple(k))
    }

    /// Merges another index into this one; returns how many triples were new.
    pub fn merge(&mut self, other: &TripleIndex) -> usize {
        let mut added = 0;
        for t in other.iter() {
            if self.insert(t) {
                added += 1;
            }
        }
        added
    }

    /// Approximate heap bytes, for the historization statistics.
    /// Each triple is stored in three permutations of 24 bytes each.
    pub fn approx_bytes(&self) -> usize {
        self.spo.len() * 3 * std::mem::size_of::<Key>()
    }

    /// The SPO rows in sorted order (for freezing into columnar form).
    pub(crate) fn spo_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.spo.iter().copied()
    }

    /// The POS rows in sorted order (for freezing into columnar form).
    pub(crate) fn pos_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.pos.iter().copied()
    }

    /// The OSP rows in sorted order (for freezing into columnar form).
    pub(crate) fn osp_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.osp.iter().copied()
    }
}

/// A borrowed range scan over one permutation of a [`TripleIndex`].
///
/// Concrete (nameable) so [`crate::store::Scan`] can carry it without boxing.
#[derive(Debug, Clone)]
pub struct IndexScan<'a> {
    range: std::collections::btree_set::Range<'a, Key>,
    remap: fn(Key) -> Triple,
    pattern: TriplePattern,
}

impl Iterator for IndexScan<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        // The routed range is always a pure prefix of the permutation, so the
        // match check is a safeguard, not a filter doing real work.
        for &k in self.range.by_ref() {
            let t = (self.remap)(k);
            if self.pattern.matches(t) {
                return Some(t);
            }
        }
        None
    }
}

/// Builds inclusive range bounds for a lexicographic prefix of a permuted key.
///
/// Only a *prefix* of bound positions narrows the range; the routing table
/// guarantees every pattern is a pure prefix of its permutation, so the
/// bounds are exact. Shared with the frozen columnar index so both engines
/// agree byte-for-byte on range semantics.
pub(crate) fn prefix_bounds(a: Option<u64>, b: Option<u64>, c: Option<u64>) -> (Key, Key) {
    match (a, b, c) {
        (Some(a), Some(b), Some(c)) => ((a, b, c), (a, b, c)),
        (Some(a), Some(b), None) => ((a, b, u64::MIN), (a, b, u64::MAX)),
        (Some(a), None, _) => ((a, u64::MIN, u64::MIN), (a, u64::MAX, u64::MAX)),
        (None, _, _) => ((u64::MIN, u64::MIN, u64::MIN), (u64::MAX, u64::MAX, u64::MAX)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::TermId;

    fn t(s: u64, p: u64, o: u64) -> Triple {
        Triple::from_tuple((s, p, o))
    }

    fn sample() -> TripleIndex {
        let mut idx = TripleIndex::new();
        for (s, p, o) in [
            (1, 10, 100),
            (1, 10, 101),
            (1, 11, 100),
            (2, 10, 100),
            (2, 11, 102),
            (3, 12, 101),
        ] {
            idx.insert(t(s, p, o));
        }
        idx
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut idx = TripleIndex::new();
        assert!(idx.insert(t(1, 2, 3)));
        assert!(!idx.insert(t(1, 2, 3)));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_cleans_all_permutations() {
        let mut idx = sample();
        assert!(idx.remove(t(1, 10, 100)));
        assert!(!idx.remove(t(1, 10, 100)));
        assert!(!idx.contains(t(1, 10, 100)));
        // No permutation still sees it through any access path.
        assert_eq!(idx.scan(TriplePattern::with_s(TermId(1))).count(), 2);
        assert_eq!(idx.scan(TriplePattern::with_p(TermId(10))).count(), 2);
        assert_eq!(idx.scan(TriplePattern::with_o(TermId(100))).count(), 2);
    }

    #[test]
    fn full_scan_returns_everything() {
        let idx = sample();
        assert_eq!(idx.scan(TriplePattern::any()).count(), 6);
    }

    #[test]
    fn s_prefix_scan() {
        let idx = sample();
        let hits: Vec<_> = idx.scan(TriplePattern::with_s(TermId(1))).collect();
        assert_eq!(hits, vec![t(1, 10, 100), t(1, 10, 101), t(1, 11, 100)]);
    }

    #[test]
    fn sp_prefix_scan() {
        let idx = sample();
        let hits: Vec<_> = idx
            .scan(TriplePattern::with_sp(TermId(1), TermId(10)))
            .collect();
        assert_eq!(hits, vec![t(1, 10, 100), t(1, 10, 101)]);
    }

    #[test]
    fn p_scan_uses_pos() {
        let idx = sample();
        assert_eq!(TripleIndex::route(&TriplePattern::with_p(TermId(10))), Permutation::Pos);
        let hits: Vec<_> = idx.scan(TriplePattern::with_p(TermId(10))).collect();
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|t| t.p == TermId(10)));
    }

    #[test]
    fn po_scan() {
        let idx = sample();
        let hits: Vec<_> = idx
            .scan(TriplePattern::with_po(TermId(10), TermId(100)))
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|t| t.p == TermId(10) && t.o == TermId(100)));
    }

    #[test]
    fn o_scan_uses_osp() {
        let idx = sample();
        assert_eq!(TripleIndex::route(&TriplePattern::with_o(TermId(101))), Permutation::Osp);
        let hits: Vec<_> = idx.scan(TriplePattern::with_o(TermId(101))).collect();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn so_scan_uses_osp_prefix() {
        let idx = sample();
        let pat = TriplePattern {
            s: Some(TermId(1)),
            p: None,
            o: Some(TermId(100)),
        };
        assert_eq!(TripleIndex::route(&pat), Permutation::Osp);
        let hits: Vec<_> = idx.scan(pat).collect();
        assert_eq!(hits, vec![t(1, 10, 100), t(1, 11, 100)]);
    }

    #[test]
    fn exact_scan_is_point_lookup() {
        let idx = sample();
        assert_eq!(idx.scan(TriplePattern::exact(t(2, 11, 102))).count(), 1);
        assert_eq!(idx.scan(TriplePattern::exact(t(2, 11, 999))).count(), 0);
    }

    #[test]
    fn sp_without_second_bound_filters() {
        // s unbound, p bound, o bound uses POS prefix (p, o).
        let idx = sample();
        let hits: Vec<_> = idx
            .scan(TriplePattern::with_po(TermId(11), TermId(102)))
            .collect();
        assert_eq!(hits, vec![t(2, 11, 102)]);
    }

    #[test]
    fn count_with_cap() {
        let idx = sample();
        assert_eq!(idx.count(TriplePattern::any(), Some(4)), 4);
        assert_eq!(idx.count(TriplePattern::any(), None), 6);
    }

    #[test]
    fn merge_counts_new_only() {
        let mut a = sample();
        let mut b = TripleIndex::new();
        b.insert(t(1, 10, 100)); // duplicate
        b.insert(t(9, 9, 9)); // new
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn permutations_agree_on_contents() {
        let idx = sample();
        let via_spo: BTreeSet<_> = idx.scan(TriplePattern::any()).collect();
        let via_pos: BTreeSet<_> = (0u64..20)
            .flat_map(|p| idx.scan(TriplePattern::with_p(TermId(p))).collect::<Vec<_>>())
            .collect();
        let via_osp: BTreeSet<_> = (0u64..200)
            .flat_map(|o| idx.scan(TriplePattern::with_o(TermId(o))).collect::<Vec<_>>())
            .collect();
        assert_eq!(via_spo, via_pos);
        assert_eq!(via_spo, via_osp);
    }
}
