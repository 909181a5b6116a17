//! Leaf-storage abstraction shared by the PMA and the CPMA.
//!
//! The paper derives the CPMA from the PMA by changing exactly one thing:
//! what a leaf stores and how its occupancy is measured ("The main change in
//! the CPMA is the compression of each individual leaf, which does not
//! affect the high-level implicit tree structure", §5). We encode that
//! observation as a trait: [`PmaCore`](crate::core::PmaCore) implements
//! search, point updates, the batch algorithm, range maps, and resizing once
//! against [`LeafStorage`]; [`UncompressedLeaves`](crate::UncompressedLeaves)
//! measures occupancy in **cells** and
//! [`CompressedLeaves`](crate::CompressedLeaves) in **bytes**.
//!
//! # Shared-disjoint mutation
//!
//! The batch-merge and redistribute phases mutate many leaves in parallel.
//! The recursion partitions leaves disjointly (§4), so per-leaf mutation is
//! race-free *by construction*; [`SharedLeaves`] exposes that contract as
//! `unsafe` methods whose safety requirement is exactly "no two concurrent
//! calls may target the same leaf". Implementations use raw pointers derived
//! from `&mut self`, never materializing overlapping `&mut` references.

use crate::core::ForceCodec;
use crate::PmaKey;
use cpma_api::{BatchOp, PersistError};

/// Result of merging into / removing from one leaf.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Elements actually added (insert) or removed (delete); keys already
    /// present (or absent) do not count — set semantics.
    pub delta_count: usize,
    /// Signed change in the leaf's occupied units (cells or bytes).
    pub delta_units: isize,
    /// The leaf now holds more units than its physical capacity and its
    /// contents live in an out-of-place overflow buffer (Figure 4 of the
    /// paper). The counting phase is guaranteed to schedule it for
    /// redistribution because its density exceeds 1.0.
    pub overflowed: bool,
}

/// Result of applying a mixed op run to one leaf: like [`MergeOutcome`]
/// but with the add and remove counts kept apart (a mixed run can do
/// both in the same rewrite).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpsOutcome {
    /// Keys newly inserted into the leaf.
    pub added: usize,
    /// Keys actually removed from the leaf.
    pub removed: usize,
    /// Signed change in the leaf's occupied units (cells or bytes).
    pub delta_units: isize,
    /// The rewritten leaf spilled to an overflow buffer (see
    /// [`MergeOutcome::overflowed`]).
    pub overflowed: bool,
}

/// Storage for the leaves of a PMA. See module docs.
///
/// Units are cells for the uncompressed PMA and bytes for the CPMA; density
/// bounds, the counting phase, and resizing all operate on units.
pub trait LeafStorage<K: PmaKey>: Send + Sync + Sized {
    /// Shared-disjoint accessor handed to parallel phases.
    type Shared<'a>: SharedLeaves<K> + Copy + Send + Sync
    where
        Self: 'a;

    /// Name of the structure this storage yields, as the paper's tables
    /// spell it ("PMA" / "CPMA"); surfaces as `OrderedSet::NAME`.
    const NAME: &'static str;

    /// Smallest permissible leaf capacity in units. For the CPMA this must
    /// be ≥ 256 bytes: redistribution's fit proof needs
    /// `0.1 · capacity ≥ 18` (see `plan_split`).
    const MIN_LEAF_UNITS: usize;
    /// Leaf capacities are rounded up to a multiple of this.
    const LEAF_ALIGN: usize;
    /// Units consumed by a leaf head beyond the element's delta cost
    /// (8 for the CPMA's raw head, 0 for the uncompressed PMA).
    const HEAD_UNITS: usize;
    /// Leaf capacity is `LEAF_SCALE · ⌈log₂ capacity⌉` units (clamped and
    /// aligned), keeping leaves Θ(log N) as the paper requires.
    const LEAF_SCALE: usize;

    /// Stable on-disk identifier of this codec, recorded in snapshot
    /// headers so a `Pma` image is never deserialized as a `Cpma` (or
    /// vice versa). Never reuse or renumber.
    const CODEC_ID: u32;

    /// Allocate `num_leaves` empty leaves of `leaf_units` capacity each.
    fn with_geometry(num_leaves: usize, leaf_units: usize) -> Self;

    /// Exact snapshot-payload size in bytes for this geometry, or `None`
    /// on arithmetic overflow (the geometry then cannot be valid).
    fn payload_len(num_leaves: usize, leaf_units: usize) -> Option<usize>;

    /// Append the raw backing arrays to `out`, little-endian, in the
    /// layout fixed by [`CODEC_ID`](Self::CODEC_ID) — the snapshot
    /// payload. Because the structure is pointer-free this is a plain
    /// byte view of the allocation: no walk, no fixup. Callers must
    /// ensure no leaf is overflowed (always true outside a batch).
    fn write_payload(&self, out: &mut Vec<u8>);

    /// Rebuild storage with the given geometry from a snapshot payload,
    /// validating lengths *before* allocating and every per-leaf
    /// invariant (prefix bounds, ascending order, head consistency)
    /// before the storage is returned. The payload's checksum has
    /// already been verified by the envelope; this guards against
    /// crafted or stale inputs ever panicking later.
    fn read_payload(
        num_leaves: usize,
        leaf_units: usize,
        payload: &[u8],
    ) -> Result<Self, PersistError>;

    /// Number of leaves.
    fn num_leaves(&self) -> usize;
    /// Capacity of each leaf in units.
    fn leaf_units(&self) -> usize;
    /// Occupied units of `leaf` (may exceed capacity while overflowed).
    fn units_used(&self, leaf: usize) -> usize;
    /// Number of elements in `leaf`.
    fn count(&self, leaf: usize) -> usize;
    /// Head value of `leaf`. For empty leaves this is an *inherited* value:
    /// any value keeping the head array non-decreasing (see `core::dest_leaf`).
    fn head(&self, leaf: usize) -> K;
    /// Whether `leaf` currently spills to an overflow buffer.
    fn is_overflowed(&self, leaf: usize) -> bool;
    /// Bytes of backing memory (the paper's `get_size()`).
    fn size_bytes(&self) -> usize;

    /// Hint that `leaf`'s backing bytes are about to be read (batched
    /// lookups prefetch the next probe group's leaf while searching the
    /// current one). Default: no-op.
    fn prefetch_leaf(&self, _leaf: usize) {}

    /// Smallest element ≥ `key` within `leaf`, if any.
    fn leaf_successor(&self, leaf: usize, key: K) -> Option<K>;
    /// Membership test within `leaf`.
    fn leaf_contains(&self, leaf: usize, key: K) -> bool;
    /// Largest element of `leaf`, if non-empty.
    fn leaf_max(&self, leaf: usize) -> Option<K>;
    /// In-order traversal of `leaf`; stop early when `f` returns false.
    /// Returns false iff stopped early.
    fn for_each_in_leaf(&self, leaf: usize, f: &mut dyn FnMut(K) -> bool) -> bool;
    /// In-order traversal of `leaf` restricted to elements ≥ `start`.
    /// Default: filter [`Self::for_each_in_leaf`]; codecs with positional
    /// access (bitmap leaves) override to skip the prefix wholesale
    /// instead of paying one closure call per skipped element.
    fn for_each_in_leaf_from(&self, leaf: usize, start: K, f: &mut dyn FnMut(K) -> bool) -> bool {
        self.for_each_in_leaf(leaf, &mut |e| if e < start { true } else { f(e) })
    }
    /// Append `leaf`'s elements, in order, to `out`.
    fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>);
    /// Sum of `leaf`'s elements (widened to u64, wrapping).
    fn leaf_sum(&self, leaf: usize) -> u64;

    /// Sum of `leaf`'s elements in the half-open key range `[start, end)`
    /// (widened to u64, wrapping). Default: early-exit in-order walk;
    /// hybrid storages override with wordwise popcount kernels on dense
    /// leaves.
    fn leaf_range_sum(&self, leaf: usize, start: K, end: K) -> u64 {
        let mut acc = 0u64;
        self.for_each_in_leaf(leaf, &mut |e| {
            if e >= end {
                return false;
            }
            if e >= start {
                acc = acc.wrapping_add(e.to_u64());
            }
            true
        });
        acc
    }

    /// Units a strictly-increasing run would occupy written as one leaf.
    fn units_for(elems: &[K]) -> usize;

    /// Plan how to spread `elems` across `k` leaves of `leaf_units` capacity:
    /// returns `k + 1` offsets into `elems` (first 0, last `elems.len()`),
    /// such that every slice fits its leaf and occupancies are near-equal.
    ///
    /// Callers guarantee `units_for` of the whole run is at most
    /// `0.9 · k · leaf_units` (the tightest upper density bound), which makes
    /// a fitting plan always exist for `leaf_units ≥ MIN_LEAF_UNITS`.
    fn plan_split(elems: &[K], k: usize, leaf_units: usize) -> Vec<usize>;

    /// Install the per-leaf codec policy (hybrid storages only; the
    /// default ignores it). Called at construction and when loading a
    /// snapshot, before any leaf is written.
    fn set_codec_policy(&mut self, _force: ForceCodec) {}

    /// Policy-aware [`Self::units_for`]: what *this instance's* codec
    /// policy would charge for the run. Capacity planning must use this
    /// so a hybrid storage's cheaper encodings translate into a smaller
    /// footprint. Default: the static cost.
    fn units_for_with(&self, elems: &[K]) -> usize {
        Self::units_for(elems)
    }

    /// Policy-aware [`Self::plan_split`] (same contract). Default: the
    /// static plan.
    fn plan_split_with(&self, elems: &[K], k: usize, leaf_units: usize) -> Vec<usize> {
        Self::plan_split(elems, k, leaf_units)
    }

    /// Obtain the shared-disjoint accessor. Borrows `self` mutably for the
    /// accessor's lifetime, so no safe references can alias the raw access.
    fn shared(&mut self) -> Self::Shared<'_>;
}

/// Shared-disjoint per-leaf mutation (and reads) used by the parallel batch
/// phases.
///
/// # Safety contract (all methods)
///
/// For a given accessor, no two concurrent calls may target the same leaf
/// index, and no concurrent call may target a leaf another thread is reading
/// through the same accessor. Distinct leaves are always safe.
pub trait SharedLeaves<K: PmaKey> {
    /// Merge sorted, deduplicated `add` into `leaf` (set union). Spills to
    /// an overflow buffer when the result exceeds leaf capacity. Updates the
    /// leaf head.
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn merge_into_leaf(&self, leaf: usize, add: &[K], scratch: &mut Vec<K>) -> MergeOutcome;

    /// Remove every element of sorted `rem` present in `leaf` (set
    /// difference). Never overflows. An emptied leaf keeps its old head as
    /// the inherited value (this preserves head-array monotonicity with no
    /// cross-leaf reads — see `core` docs).
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn remove_from_leaf(&self, leaf: usize, rem: &[K], scratch: &mut Vec<K>)
        -> MergeOutcome;

    /// Apply a mixed op run (normal form: ascending, one op per key) to
    /// `leaf` in **one** rewrite — the kernel of the single-pass mixed
    /// batch pipeline. Inserts may spill to an overflow buffer; an
    /// emptied leaf keeps its old head as the inherited value (the same
    /// invariants as the one-sided merges, threaded through one
    /// decode → three-finger merge → encode).
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn merge_ops_into_leaf(
        &self,
        leaf: usize,
        ops: &[BatchOp<K>],
        scratch: &mut Vec<K>,
    ) -> OpsOutcome;

    /// Overwrite `leaf` with `elems` (must fit capacity; caller planned the
    /// split). For an empty `elems`, the head is set to `inherited_head`.
    /// Clears any overflow buffer. Returns the leaf's new unit count.
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn write_leaf(&self, leaf: usize, elems: &[K], inherited_head: K) -> usize;

    /// Append `leaf`'s elements to `out` (reads through the shared view).
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn collect_leaf(&self, leaf: usize, out: &mut Vec<K>);

    /// Occupied units of `leaf` through the shared view.
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn units_used(&self, leaf: usize) -> usize;

    /// Element count of `leaf` through the shared view.
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn count(&self, leaf: usize) -> usize;

    /// Set the head of an (empty) leaf to an inherited value.
    ///
    /// # Safety
    /// See trait-level contract.
    unsafe fn set_inherited_head(&self, leaf: usize, head: K);
}

/// Merge two sorted runs as a set union into `out` (cleared first).
/// Returns the number of elements of `add` that were *not* already present.
pub(crate) fn set_union_into<K: PmaKey>(cur: &[K], add: &[K], out: &mut Vec<K>) -> usize {
    out.clear();
    out.reserve(cur.len() + add.len());
    let mut added = 0;
    let (mut i, mut j) = (0, 0);
    while i < cur.len() && j < add.len() {
        match cur[i].cmp(&add[j]) {
            std::cmp::Ordering::Less => {
                out.push(cur[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(add[j]);
                added += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(cur[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&cur[i..]);
    for &k in &add[j..] {
        out.push(k);
        added += 1;
    }
    added
}

/// Apply a normal-form mixed op run to the sorted run `cur`, writing the
/// result into `out` (cleared first): one three-finger merge that unions
/// inserts and subtracts removes in the same pass. Returns
/// `(added, removed)` with set semantics.
pub(crate) fn apply_ops_into<K: PmaKey>(
    cur: &[K],
    ops: &[BatchOp<K>],
    out: &mut Vec<K>,
) -> (usize, usize) {
    debug_assert!(ops.windows(2).all(|w| w[0].key() < w[1].key()));
    out.clear();
    out.reserve(cur.len() + ops.len());
    let (mut added, mut removed) = (0usize, 0usize);
    let (mut i, mut j) = (0usize, 0usize);
    while i < cur.len() && j < ops.len() {
        match cur[i].cmp(&ops[j].key()) {
            std::cmp::Ordering::Less => {
                out.push(cur[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                if let BatchOp::Insert(k) = ops[j] {
                    out.push(k);
                    added += 1;
                }
                j += 1; // a Remove of an absent key is a no-op
            }
            std::cmp::Ordering::Equal => {
                match ops[j] {
                    BatchOp::Insert(_) => out.push(cur[i]), // already present
                    BatchOp::Remove(_) => removed += 1,     // drop it
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&cur[i..]);
    for op in &ops[j..] {
        if let BatchOp::Insert(k) = *op {
            out.push(k);
            added += 1;
        }
    }
    (added, removed)
}

/// Set difference `cur \ rem` into `out` (cleared first). Returns the number
/// of elements removed.
pub(crate) fn set_difference_into<K: PmaKey>(cur: &[K], rem: &[K], out: &mut Vec<K>) -> usize {
    out.clear();
    out.reserve(cur.len());
    let mut removed = 0;
    let mut j = 0;
    for &c in cur {
        while j < rem.len() && rem[j] < c {
            j += 1;
        }
        if j < rem.len() && rem[j] == c {
            removed += 1;
            j += 1;
        } else {
            out.push(c);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_new_elements_only() {
        let mut out = Vec::new();
        let added = set_union_into(&[1u64, 3, 5], &[2, 3, 6], &mut out);
        assert_eq!(out, vec![1, 2, 3, 5, 6]);
        assert_eq!(added, 2);
    }

    #[test]
    fn union_with_empty_sides() {
        let mut out = Vec::new();
        assert_eq!(set_union_into::<u64>(&[], &[1, 2], &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(set_union_into::<u64>(&[1, 2], &[], &mut out), 0);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(set_union_into::<u64>(&[], &[], &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn difference_counts_removed_only() {
        let mut out = Vec::new();
        let removed = set_difference_into(&[1u64, 2, 3, 5], &[2, 4, 5, 9], &mut out);
        assert_eq!(out, vec![1, 3]);
        assert_eq!(removed, 2);
    }

    #[test]
    fn difference_with_empty_sides() {
        let mut out = Vec::new();
        assert_eq!(set_difference_into::<u64>(&[], &[1], &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(set_difference_into::<u64>(&[7, 8], &[], &mut out), 0);
        assert_eq!(out, vec![7, 8]);
    }

    #[test]
    fn apply_ops_mixes_union_and_difference() {
        use cpma_api::BatchOp::{Insert, Remove};
        let mut out = Vec::new();
        let (added, removed) = apply_ops_into(
            &[1u64, 3, 5, 7],
            &[Insert(0), Remove(3), Insert(5), Insert(6), Remove(9)],
            &mut out,
        );
        assert_eq!(out, vec![0, 1, 5, 6, 7]);
        assert_eq!((added, removed), (2, 1));
        // Pure-insert and pure-remove runs degenerate to union/difference.
        let (added, removed) = apply_ops_into(&[2u64, 4], &[Insert(2), Insert(3)], &mut out);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!((added, removed), (1, 0));
        let (added, removed) = apply_ops_into(&[2u64, 4], &[Remove(2), Remove(4)], &mut out);
        assert!(out.is_empty());
        assert_eq!((added, removed), (0, 2));
        let (added, removed) = apply_ops_into::<u64>(&[], &[Insert(9), Remove(10)], &mut out);
        assert_eq!(out, vec![9]);
        assert_eq!((added, removed), (1, 0));
    }

    #[test]
    fn union_result_is_sorted_unique() {
        let mut out = Vec::new();
        set_union_into(&[10u64, 20, 30], &[5, 10, 15, 20, 25, 35], &mut out);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(out.len(), 7);
    }
}
