//! Slab-allocated doubly-linked list of live segments.
//!
//! Each node mirrors the paper's heap-node structure (§6.2.2): the
//! sequence number `id`, the current (possibly merged) tuple, and `prev`/
//! `next` links in chronological order. Merged nodes return to a free list
//! so the live memory of the streaming algorithms stays `O(c + β)`. The
//! nodes' aggregate values live in one flat buffer, `p` values per slot.

use pta_temporal::{GroupId, TimeInterval};

use crate::merge::merge_values_into;

/// Sentinel link.
pub const NIL: u32 = u32::MAX;

/// One live segment: a run of already-merged ITA tuples. Its values are
/// [`SegmentList::values`] of its slot.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Sequence number of the node's first ITA tuple (1-based arrival
    /// order). `MERGE` keeps the surviving node's id unchanged, matching
    /// the paper's `P.id`.
    pub id: u64,
    /// Aggregation group.
    pub group: GroupId,
    /// Covered interval (contiguous: merges only join meeting intervals).
    pub interval: TimeInterval,
    /// Cached `interval.len()`.
    pub len: u64,
    /// First source-tuple index (0-based) merged into this node.
    pub first_src: usize,
    /// One past the last source-tuple index merged into this node.
    pub end_src: usize,
    /// Chronological predecessor, or [`NIL`].
    pub prev: u32,
    /// Chronological successor, or [`NIL`].
    pub next: u32,
}

/// The linked list with slot reuse.
#[derive(Debug)]
pub struct SegmentList {
    p: usize,
    nodes: Vec<Node>,
    /// Slot `s`'s values are `values[s·p..(s + 1)·p]`.
    values: Vec<f64>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl SegmentList {
    /// Creates an empty list of `p`-dimensional segments.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            nodes: Vec::new(),
            values: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of live segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no segments are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First live segment slot, or [`NIL`].
    pub fn head(&self) -> u32 {
        self.head
    }

    /// Last live segment slot, or [`NIL`].
    pub fn tail(&self) -> u32 {
        self.tail
    }

    /// Borrows the node in `slot`.
    #[inline]
    pub fn node(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }

    /// The current merged aggregate values of the node in `slot`.
    #[inline]
    pub fn values(&self, slot: u32) -> &[f64] {
        let at = slot as usize * self.p;
        &self.values[at..at + self.p]
    }

    /// Appends a fresh segment at the tail, returning its slot.
    pub fn push_back(
        &mut self,
        id: u64,
        group: GroupId,
        interval: TimeInterval,
        values: &[f64],
        src: usize,
    ) -> u32 {
        debug_assert_eq!(values.len(), self.p);
        let node = Node {
            id,
            group,
            interval,
            len: interval.len(),
            first_src: src,
            end_src: src + 1,
            prev: self.tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                let at = slot as usize * self.p;
                self.values[at..at + self.p].copy_from_slice(values);
                slot
            }
            None => {
                self.nodes.push(node);
                self.values.extend_from_slice(values);
                (self.nodes.len() - 1) as u32
            }
        };
        if self.tail != NIL {
            self.nodes[self.tail as usize].next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.len += 1;
        slot
    }

    /// Merges the segment in `slot` into its predecessor (the paper's
    /// `MERGE`): weighted-average values, concatenated interval, preserved
    /// predecessor id. Returns the predecessor's slot. The caller is
    /// responsible for heap bookkeeping.
    ///
    /// Panics if `slot` has no predecessor or is not adjacent to it —
    /// callers only merge nodes with finite keys, which implies both.
    pub fn merge_into_prev(&mut self, slot: u32) -> u32 {
        let s = slot as usize;
        let prev_slot = self.nodes[s].prev;
        assert_ne!(prev_slot, NIL, "cannot merge the first segment");
        let Node { next: next_slot, interval, len, end_src, group, .. } = self.nodes[s];
        let (survivor, merged) = value_pair(&mut self.values, self.p, prev_slot, slot);

        let p = &mut self.nodes[prev_slot as usize];
        debug_assert_eq!(p.group, group);
        // Under GapPolicy::Tolerate the merged interval may bridge a hole;
        // ordering is the only structural requirement here. Covered
        // duration is tracked separately in `len`.
        debug_assert!(p.interval.end() < interval.start(), "segments must be ordered");
        p.len = merge_values_into(p.len, survivor, len, merged);
        p.interval = p.interval.span(&interval);
        p.end_src = end_src;
        p.next = next_slot;
        if next_slot != NIL {
            self.nodes[next_slot as usize].prev = prev_slot;
        } else {
            self.tail = prev_slot;
        }
        self.free.push(slot);
        self.len -= 1;
        prev_slot
    }

    /// Iterates the live segments head → tail.
    pub fn iter(&self) -> SegmentIter<'_> {
        SegmentIter { list: self, slot: self.head }
    }
}

/// The `p` values of slot `dst` (mutable) and of a different slot `src`
/// in a `p`-stride buffer.
fn value_pair(values: &mut [f64], p: usize, dst: u32, src: u32) -> (&mut [f64], &[f64]) {
    let (d, s) = (dst as usize * p, src as usize * p);
    if d < s {
        let (lo, hi) = values.split_at_mut(s);
        (&mut lo[d..d + p], &hi[..p])
    } else {
        let (lo, hi) = values.split_at_mut(d);
        (&mut hi[..p], &lo[s..s + p])
    }
}

/// Iterator over live segments in chronological order.
pub struct SegmentIter<'a> {
    list: &'a SegmentList,
    slot: u32,
}

impl<'a> Iterator for SegmentIter<'a> {
    type Item = (u32, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        if self.slot == NIL {
            return None;
        }
        let slot = self.slot;
        let node = self.list.node(slot);
        self.slot = node.next;
        Some((slot, node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> TimeInterval {
        TimeInterval::new(a, b).unwrap()
    }

    #[test]
    fn push_links_chronologically() {
        let mut l = SegmentList::new(1);
        let a = l.push_back(1, 0, iv(1, 2), &[800.0], 0);
        let b = l.push_back(2, 0, iv(3, 3), &[600.0], 1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.head(), a);
        assert_eq!(l.tail(), b);
        assert_eq!(l.node(a).next, b);
        assert_eq!(l.node(b).prev, a);
        assert_eq!(l.node(a).prev, NIL);
    }

    /// Example 3: merging (800, [1,2]) and (600, [3,3]) gives 733.33 over
    /// [1,3]; the surviving node keeps the predecessor's id.
    #[test]
    fn merge_example_3() {
        let mut l = SegmentList::new(1);
        let a = l.push_back(1, 0, iv(1, 2), &[800.0], 0);
        let b = l.push_back(2, 0, iv(3, 3), &[600.0], 1);
        let survivor = l.merge_into_prev(b);
        assert_eq!(survivor, a);
        assert_eq!(l.len(), 1);
        let n = l.node(a);
        assert_eq!(n.id, 1);
        assert_eq!(n.interval, iv(1, 3));
        assert_eq!(n.len, 3);
        assert!((l.values(a)[0] - 733.333_333).abs() < 1e-4);
        assert_eq!((n.first_src, n.end_src), (0, 2));
        assert_eq!(n.next, NIL);
    }

    #[test]
    fn slots_are_reused() {
        let mut l = SegmentList::new(1);
        let _a = l.push_back(1, 0, iv(1, 1), &[1.0], 0);
        let b = l.push_back(2, 0, iv(2, 2), &[2.0], 1);
        l.merge_into_prev(b);
        let c = l.push_back(3, 0, iv(3, 3), &[3.0], 2);
        assert_eq!(c, b, "freed slot should be reused");
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn merge_in_the_middle_relinks() {
        let mut l = SegmentList::new(1);
        let a = l.push_back(1, 0, iv(1, 1), &[1.0], 0);
        let b = l.push_back(2, 0, iv(2, 2), &[2.0], 1);
        let c = l.push_back(3, 0, iv(3, 3), &[3.0], 2);
        l.merge_into_prev(b);
        assert_eq!(l.node(a).next, c);
        assert_eq!(l.node(c).prev, a);
        let collected: Vec<u32> = l.iter().map(|(s, _)| s).collect();
        assert_eq!(collected, vec![a, c]);
        assert_eq!(l.tail(), c);
    }

    #[test]
    #[should_panic(expected = "cannot merge the first segment")]
    fn merging_head_panics() {
        let mut l = SegmentList::new(1);
        let a = l.push_back(1, 0, iv(1, 1), &[1.0], 0);
        l.merge_into_prev(a);
    }
}
