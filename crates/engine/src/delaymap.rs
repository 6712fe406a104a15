//! Per-group delay bookkeeping for subtree roots.

use core::cmp::Ordering;
use core::fmt;

use crate::GroupId;

/// The interval of root-to-sink delays for one group within a subtree.
///
/// A subtree satisfying a group's skew bound has `hi - lo <= bound`; once
/// two sinks share a subtree their delay difference is frozen (any upstream
/// wire delays both equally), which is why bounds are enforced at merge
/// time and never re-checked above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayRange {
    /// Fastest sink of the group in this subtree (seconds from the root).
    pub lo: f64,
    /// Slowest sink of the group in this subtree.
    pub hi: f64,
}

impl DelayRange {
    /// A degenerate range (single delay).
    #[inline]
    pub fn point(t: f64) -> Self {
        Self { lo: t, hi: t }
    }

    /// `hi - lo`: the group's delay spread in this subtree.
    #[inline]
    pub fn spread(&self) -> f64 {
        self.hi - self.lo
    }

    /// Both ends shifted by a common wire delay `d`.
    #[inline]
    pub fn shift(&self, d: f64) -> Self {
        Self {
            lo: self.lo + d,
            hi: self.hi + d,
        }
    }

    /// Smallest range covering both inputs (merging two subtrees' sinks of
    /// the same group).
    #[inline]
    pub fn hull(&self, other: &Self) -> Self {
        Self {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

impl fmt::Display for DelayRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.3e}, {:.3e}]", self.lo, self.hi)
    }
}

/// One `(group, range)` entry of a [`DelayMap`].
type Entry = (GroupId, DelayRange);

/// Inline capacity of a [`DelayMap`]: maps at or below this many groups
/// live entirely on the stack. A subtree's map holds only the groups
/// that reach it, but the paper's tables route 4–10 groups, so on most
/// of their routes the maps near the root spill.
const INLINE_GROUPS: usize = 4;

/// The all-zero range filling unused inline slots.
const ZERO: DelayRange = DelayRange { lo: 0.0, hi: 0.0 };

/// Small-map storage, sorted by group in either form.
///
/// A map of at most [`INLINE_GROUPS`] groups whose ids all fit a byte is
/// stored inline as parallel arrays: one byte per id, so an entry costs
/// 17 B instead of the 24 B a padded `(GroupId, DelayRange)` pair takes,
/// and the whole store is 72 B. Anything else spills to a `Vec` of
/// entries. The form is canonical (inline exactly when the entries fit),
/// and a merge of a spilled map is itself spilled, since it keeps every
/// group of both sides. An inline map costs a candidate no allocation;
/// a spilled one costs one, for its exact-size list.
#[derive(Clone)]
enum Store {
    Inline {
        n: u8,
        ids: [u8; INLINE_GROUPS],
        ranges: [DelayRange; INLINE_GROUPS],
    },
    Heap(Vec<Entry>),
}

impl Store {
    /// Stores sorted, distinct entries in the canonical form.
    fn from_sorted(entries: &[Entry]) -> Self {
        let fits = entries.len() <= INLINE_GROUPS
            && entries.iter().all(|(g, _)| u8::try_from(g.0).is_ok());
        if !fits {
            return Store::Heap(entries.to_vec());
        }
        let (mut ids, mut ranges) = ([0; INLINE_GROUPS], [ZERO; INLINE_GROUPS]);
        for (i, &(g, r)) in entries.iter().enumerate() {
            ids[i] = g.0 as u8;
            ranges[i] = r;
        }
        Store::Inline {
            n: entries.len() as u8,
            ids,
            ranges,
        }
    }
}

/// Sorted map from [`GroupId`] to [`DelayRange`]: for every group with at
/// least one sink in the subtree, the exact interval of root-to-sink
/// delays.
///
/// This is the state that makes associative-skew merging compositional:
/// the four merge cases of the paper's Fig. 6 reduce to which groups two
/// maps share.
///
/// Maps of up to `INLINE_GROUPS` groups with ids below 256 are stored
/// inline in 72 B (no heap allocation); larger maps spill to a `Vec`
/// transparently. Every merge candidate carries a map, built by
/// [`DelayMap::shifted_merge`] in one pass: with at most four groups
/// candidate construction, the engine's innermost loop, allocates
/// nothing, and with more it allocates once per candidate.
///
/// ```
/// use astdme_engine::{DelayMap, DelayRange, GroupId};
///
/// let a = DelayMap::leaf(GroupId(0));
/// let b = DelayMap::leaf(GroupId(1));
/// let m = a.shifted(1e-12).merge(&b.shifted(2e-12));
/// assert_eq!(m, a.shifted_merge(1e-12, &b, 2e-12));
/// assert_eq!(m.groups().count(), 2);
/// assert_eq!(m.range(GroupId(0)).unwrap().lo, 1e-12);
/// assert_eq!(m.range(GroupId(1)).unwrap().hi, 2e-12);
/// ```
#[derive(Clone)]
pub struct DelayMap {
    // Sorted by GroupId; typically 1-4 entries, so a flat store beats any
    // tree or hash map.
    entries: Store,
}

/// A map's size is the layout every merge candidate carries; `Candidate`
/// asserts its own total.
const _: () = assert!(std::mem::size_of::<DelayMap>() <= 72);

impl Default for DelayMap {
    fn default() -> Self {
        Self {
            entries: Store::from_sorted(&[]),
        }
    }
}

impl DelayMap {
    /// The map of a leaf subtree: one group at delay zero.
    pub fn leaf(g: GroupId) -> Self {
        Self {
            entries: Store::from_sorted(&[(g, DelayRange::point(0.0))]),
        }
    }

    /// Builds from entries, sorting by group.
    ///
    /// # Panics
    ///
    /// Panics if a group appears twice.
    pub fn from_entries(mut entries: Vec<Entry>) -> Self {
        entries.sort_by_key(|(g, _)| *g);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate group {} in delay map", w[0].0);
        }
        Self {
            entries: Store::from_sorted(&entries),
        }
    }

    /// The store as slices: the inline ids and ranges, then the spilled
    /// entries. Exactly one side is non-empty (unless the map is), so a
    /// walk over both reads each form's slices directly.
    #[inline]
    fn parts(&self) -> (&[u8], &[DelayRange], &[Entry]) {
        match &self.entries {
            Store::Inline { n, ids, ranges } => {
                let n = *n as usize;
                (&ids[..n], &ranges[..n], &[])
            }
            Store::Heap(v) => (&[], &[], v),
        }
    }

    /// The delay range for group `g`, if present.
    pub fn range(&self, g: GroupId) -> Option<DelayRange> {
        self.iter().find(|&(h, _)| h == g).map(|(_, r)| r)
    }

    /// Iterates `(group, range)` pairs in ascending group order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (GroupId, DelayRange)> + '_ {
        let (ids, ranges, spilled) = self.parts();
        ids.iter()
            .zip(ranges)
            .map(|(&g, &r)| (GroupId(u32::from(g)), r))
            .chain(spilled.iter().copied())
    }

    /// Iterates the groups present.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        self.iter().map(|(g, _)| g)
    }

    /// Number of groups present.
    #[inline]
    pub fn group_count(&self) -> usize {
        let (ids, _, spilled) = self.parts();
        ids.len() + spilled.len()
    }

    /// All ranges shifted by a common wire delay `d` (the effect of the
    /// wire from a new merge point down to this subtree's root).
    pub fn shifted(&self, d: f64) -> Self {
        let mut out = self.clone();
        match &mut out.entries {
            Store::Inline { n, ranges, .. } => {
                for r in &mut ranges[..*n as usize] {
                    *r = r.shift(d);
                }
            }
            Store::Heap(v) => {
                for (_, r) in v {
                    *r = r.shift(d);
                }
            }
        }
        out
    }

    /// Groups present in both maps, ascending — the "shared groups" that
    /// constrain a merge (empty ⇒ the paper's different-groups case).
    pub fn shared_groups(&self, other: &Self) -> Vec<GroupId> {
        self.shared_ranges(other).map(|(g, _, _)| g).collect()
    }

    /// Iterates `(group, range in self, range in other)` over the groups
    /// present in both maps, ascending — the allocation-free form of
    /// [`DelayMap::shared_groups`] the constraint-assembly hot path uses.
    pub fn shared_ranges<'a>(
        &'a self,
        other: &'a Self,
    ) -> impl Iterator<Item = (GroupId, DelayRange, DelayRange)> + 'a {
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        std::iter::from_fn(move || loop {
            let (&(ga, ra), &(gb, rb)) = (a.peek()?, b.peek()?);
            match ga.cmp(&gb) {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    a.next();
                    b.next();
                    return Some((ga, ra, rb));
                }
            };
        })
    }

    /// Merges two maps (ranges hulled for shared groups). Callers are
    /// responsible for shifting each side by its wire delay first, or use
    /// [`DelayMap::shifted_merge`], which does both in one pass.
    pub fn merge(&self, other: &Self) -> Self {
        self.merge_by(other, |r| r, |r| r)
    }

    /// `self.shifted(da).merge(&other.shifted(db))`, bit for bit, in one
    /// pass: the map of a merge candidate whose wires delay this side by
    /// `da` and `other` by `db`. No shifted copy of an input is built, so
    /// a spilled result costs one allocation.
    pub fn shifted_merge(&self, da: f64, other: &Self, db: f64) -> Self {
        self.merge_by(other, |r| r.shift(da), |r| r.shift(db))
    }

    /// The union of both maps with `fa` applied to this side's ranges and
    /// `fb` to `other`'s, hulled where both carry a group.
    ///
    /// Two inline maps merge their sorted id arrays straight into the
    /// result's; a union of more than `INLINE_GROUPS` groups then spills
    /// into one exact-size list. A spilled side (which makes the union
    /// spill too) fills one exact-size list through [`union`]. On inline
    /// maps, every map of a 4-group route, the array loop takes about
    /// half the time of the generic `union` walk.
    #[inline]
    fn merge_by(
        &self,
        other: &Self,
        fa: impl Fn(DelayRange) -> DelayRange,
        fb: impl Fn(DelayRange) -> DelayRange,
    ) -> Self {
        let (
            Store::Inline {
                n: na,
                ids: ia,
                ranges: ra,
            },
            Store::Inline {
                n: nb,
                ids: ib,
                ranges: rb,
            },
        ) = (&self.entries, &other.entries)
        else {
            let len = self.group_count() + other.group_count() - self.shared_ranges(other).count();
            let mut v = Vec::with_capacity(len);
            union(
                self.iter().map(|(g, r)| (g, fa(r))),
                other.iter().map(|(g, r)| (g, fb(r))),
                |e| v.push(e),
            );
            return Self {
                entries: Store::Heap(v),
            };
        };
        let (na, nb) = (usize::from(*na), usize::from(*nb));
        let mut ids = [0; 2 * INLINE_GROUPS];
        let mut ranges = [ZERO; 2 * INLINE_GROUPS];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < na || j < nb {
            let order = match (i < na, j < nb) {
                (true, true) => ia[i].cmp(&ib[j]),
                (true, false) => Ordering::Less,
                _ => Ordering::Greater,
            };
            (ids[n], ranges[n]) = match order {
                Ordering::Less => (ia[i], fa(ra[i])),
                Ordering::Greater => (ib[j], fb(rb[j])),
                Ordering::Equal => (ia[i], fa(ra[i]).hull(&fb(rb[j]))),
            };
            i += usize::from(order.is_le());
            j += usize::from(order.is_ge());
            n += 1;
        }
        let entries = if n <= INLINE_GROUPS {
            let (mut id4, mut r4) = ([0; INLINE_GROUPS], [ZERO; INLINE_GROUPS]);
            id4.copy_from_slice(&ids[..INLINE_GROUPS]);
            r4.copy_from_slice(&ranges[..INLINE_GROUPS]);
            Store::Inline {
                n: n as u8,
                ids: id4,
                ranges: r4,
            }
        } else {
            Store::Heap(
                (0..n)
                    .map(|k| (GroupId(u32::from(ids[k])), ranges[k]))
                    .collect(),
            )
        };
        Self { entries }
    }

    /// The stored ranges in ascending group order, read straight from
    /// either form's slice.
    #[inline]
    pub(crate) fn ranges(&self) -> impl Iterator<Item = &DelayRange> + '_ {
        let (_, ranges, spilled) = self.parts();
        ranges.iter().chain(spilled.iter().map(|(_, r)| r))
    }

    /// The largest spread across all groups (for invariant checks).
    pub fn max_spread(&self) -> f64 {
        self.ranges().map(DelayRange::spread).fold(0.0, f64::max)
    }

    /// Extremes over all groups: `(min lo, max hi)`, or `None` if empty.
    /// One pass over the stored ranges, folded from `(+inf, -inf)`.
    pub fn overall_range(&self) -> Option<DelayRange> {
        let empty = DelayRange {
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        };
        (self.group_count() > 0).then(|| self.ranges().fold(empty, |acc, r| acc.hull(r)))
    }
}

/// Walks two ascending entry sequences in group order, emitting every
/// group of either with its range hulled where both carry it.
#[inline]
fn union(
    a: impl Iterator<Item = Entry>,
    b: impl Iterator<Item = Entry>,
    mut emit: impl FnMut(Entry),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&(ga, ra)), Some(&(gb, rb))) => match ga.cmp(&gb) {
                Ordering::Less => a.next(),
                Ordering::Greater => b.next(),
                Ordering::Equal => {
                    b.next();
                    a.next().map(|_| (ga, ra.hull(&rb)))
                }
            },
            _ => a.next().or_else(|| b.next()),
        };
        match next {
            Some(e) => emit(e),
            None => return,
        }
    }
}

impl PartialEq for DelayMap {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for DelayMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DelayMap")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for DelayMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (g, r)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{g}: {r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests;
