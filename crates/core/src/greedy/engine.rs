//! Shared machinery of the greedy algorithms: segment list + indexed heap
//! + gap bookkeeping.

use pta_temporal::{
    GroupId, GroupInterner, GroupKey, SequentialBuilder, SequentialRelation, TemporalError,
    TimeInterval,
};

use crate::cancel::CancelToken;
use crate::error::CoreError;
use crate::greedy::heap::IndexedMinHeap;
use crate::greedy::list::{SegmentList, NIL};
use crate::greedy::{Delta, GreedyOutcome, GreedyStats};
use crate::policy::GapPolicy;
use crate::reduction::Reduction;
use crate::sse::dsim;
use crate::weights::Weights;

/// The live state shared by GMS, gPTAc and gPTAε: arriving ITA tuples
/// become list nodes whose heap key is the `dsim` with their predecessor
/// (`∞` for segment heads), and merging the heap top folds a node into its
/// predecessor while re-keying both neighbours.
pub(crate) struct GreedyEngine {
    pub(crate) weights: Weights,
    pub(crate) policy: GapPolicy,
    /// Checked once per streamed row and once per merge in the drain
    /// loops; inert by default, so only armed tokens pay for the checks.
    pub(crate) cancel: CancelToken,
    pub(crate) list: SegmentList,
    pub(crate) heap: IndexedMinHeap,
    /// The key table the output relation takes over: interned from pushed
    /// keys, or the input's table for offline runs.
    groups: GroupInterner,
    next_id: u64,
    next_src: usize,
    /// Id of the last node inserted with an infinite key — the paper's
    /// `LastGapId` (segment heads count: the very first node is one).
    pub(crate) last_gap_id: u64,
    /// Live nodes before / at-or-after the last gap node (`BG` / `AG`).
    pub(crate) bg: usize,
    pub(crate) ag: usize,
    pub(crate) etot: f64,
    pub(crate) merges: u64,
    pub(crate) max_live: usize,
}

impl std::fmt::Debug for GreedyEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyEngine")
            .field("live", &self.live())
            .field("etot", &self.etot)
            .field("merges", &self.merges)
            .finish()
    }
}

impl GreedyEngine {
    pub(crate) fn with_policy(weights: Weights, policy: GapPolicy) -> Self {
        Self {
            list: SegmentList::new(weights.dims()),
            weights,
            policy,
            cancel: CancelToken::default(),
            heap: IndexedMinHeap::new(),
            groups: GroupInterner::new(),
            next_id: 0,
            next_src: 0,
            last_gap_id: 0,
            bg: 0,
            ag: 0,
            etot: 0.0,
            merges: 0,
            max_live: 0,
        }
    }

    /// Number of live segments (the paper's `|H|`).
    pub(crate) fn live(&self) -> usize {
        self.list.len()
    }

    /// Takes over `input`'s key table, so that its rows can be pushed by
    /// group id (offline runs).
    pub(crate) fn use_groups_of(&mut self, input: &SequentialRelation) {
        debug_assert!(self.groups.is_empty() && self.list.is_empty());
        self.groups = GroupInterner::from_keys(input.group_keys().to_vec());
    }

    /// Ingests one streamed ITA tuple of group `key`. The key map is
    /// consulted only when `key` is not the tail node's group.
    pub(crate) fn push_key(
        &mut self,
        key: &GroupKey,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<u32, CoreError> {
        self.check_row(values)?;
        let tail = self.list.tail();
        let group = match (tail != NIL).then(|| self.list.node(tail).group) {
            Some(g) if self.groups.key(g) == Some(key) => g,
            _ => self.groups.intern(key.clone()),
        };
        self.append(group, interval, values)
    }

    /// Ingests tuple `i` of the relation whose key table the engine took
    /// over ([`GreedyEngine::use_groups_of`]).
    pub(crate) fn push_entry(
        &mut self,
        input: &SequentialRelation,
        i: usize,
    ) -> Result<u32, CoreError> {
        let values = input.values(i);
        self.check_row(values)?;
        self.append(input.group(i), input.interval(i), values)
    }

    fn check_row(&self, values: &[f64]) -> Result<(), CoreError> {
        self.cancel.check()?;
        if values.len() != self.weights.dims() {
            return Err(CoreError::Temporal(TemporalError::DimensionMismatch {
                got: values.len(),
                expected: self.weights.dims(),
            }));
        }
        match values.iter().position(|v| !v.is_finite()) {
            Some(d) => Err(CoreError::Temporal(TemporalError::NonFiniteValue {
                context: format!("streamed row {}, dimension {d}", self.next_src),
            })),
            None => Ok(()),
        }
    }

    /// Appends a checked row of group `group` (Fig. 11 lines 5–12),
    /// enforcing stream order. Returns its slot.
    fn append(
        &mut self,
        group: GroupId,
        interval: TimeInterval,
        values: &[f64],
    ) -> Result<u32, CoreError> {
        let src = self.next_src;
        let Some(key) = self.groups.key(group) else {
            return Err(CoreError::Temporal(TemporalError::UnknownGroup(group)));
        };
        let tail = self.list.tail();
        let merge_key = if tail != NIL {
            let t = self.list.node(tail);
            if group < t.group {
                return Err(CoreError::Temporal(TemporalError::NonSequential {
                    index: src,
                    reason: format!("group {key} reappears after another group"),
                }));
            }
            if t.group == group {
                if interval.start() <= t.interval.end() {
                    return Err(CoreError::Temporal(TemporalError::NonSequential {
                        index: src,
                        reason: format!(
                            "interval {} starts before predecessor {} ends",
                            interval, t.interval
                        ),
                    }));
                }
                if self.policy.mergeable_raw(true, t.interval.end(), interval.start()) {
                    dsim(&self.weights, t.len, self.list.values(tail), interval.len(), values)
                } else {
                    f64::INFINITY
                }
            } else {
                f64::INFINITY
            }
        } else {
            f64::INFINITY
        };

        self.next_id += 1;
        self.next_src += 1;
        let id = self.next_id;
        let slot = self.list.push_back(id, group, interval, values, src);
        self.heap.insert(slot, merge_key, id);
        if merge_key.is_infinite() {
            self.last_gap_id = id;
            self.bg += self.ag;
            self.ag = 1;
        } else {
            self.ag += 1;
        }
        self.max_live = self.max_live.max(self.list.len());
        Ok(slot)
    }

    /// Merges the heap-top node into its predecessor, accumulating its key
    /// into the total error and re-keying the neighbours. Returns the
    /// merged-away key. The caller must have checked the key is finite.
    pub(crate) fn merge_top(&mut self) -> f64 {
        // pta-lint: allow(no-panic-in-lib) — documented precondition:
        // every caller peeks the heap before calling merge_top.
        let (slot, key, _) = self.heap.peek().expect("merge_top on empty heap");
        debug_assert!(key.is_finite(), "cannot merge across a gap");
        self.heap.remove(slot);
        let survivor = self.list.merge_into_prev(slot);
        self.etot += key;
        self.merges += 1;

        // Re-key the survivor against its predecessor...
        let s = self.list.node(survivor);
        let new_key = match s.prev {
            NIL => f64::INFINITY,
            p => {
                let pn = self.list.node(p);
                if self.policy.mergeable_raw(
                    pn.group == s.group,
                    pn.interval.end(),
                    s.interval.start(),
                ) {
                    dsim(
                        &self.weights,
                        pn.len,
                        self.list.values(p),
                        s.len,
                        self.list.values(survivor),
                    )
                } else {
                    f64::INFINITY
                }
            }
        };
        self.heap.update(survivor, new_key);
        // ...and the successor against the survivor.
        let next = self.list.node(survivor).next;
        if next != NIL {
            let s = self.list.node(survivor);
            let nx = self.list.node(next);
            let nk = if self.policy.mergeable_raw(
                s.group == nx.group,
                s.interval.end(),
                nx.interval.start(),
            ) {
                dsim(
                    &self.weights,
                    s.len,
                    self.list.values(survivor),
                    nx.len,
                    self.list.values(next),
                )
            } else {
                f64::INFINITY
            };
            self.heap.update(next, nk);
        }
        key
    }

    /// Does `slot` have at least δ adjacent successors (the heuristic of
    /// §6.2.1)? `Unbounded` is never satisfied, which confines merging to
    /// the Prop.-3 criterion and yields GMS-identical output (Thm. 2).
    pub(crate) fn has_delta_successors(&self, slot: u32, delta: Delta) -> bool {
        let d = match delta {
            Delta::Finite(d) => d,
            Delta::Unbounded => return false,
        };
        let mut cur = slot;
        for _ in 0..d {
            let next = self.list.node(cur).next;
            if next == NIL {
                return false;
            }
            let (a, b) = (self.list.node(cur), self.list.node(next));
            if !self.policy.mergeable_raw(a.group == b.group, a.interval.end(), b.interval.start())
            {
                return false;
            }
            cur = next;
        }
        true
    }

    /// Drains the list into a [`GreedyOutcome`]: the output rows name the
    /// nodes' group ids, and the key table moves over as it is.
    // pta-lint: allow(cancel-coverage) — merge work is already done; this
    // only drains the final list (callers poll once per merge before it).
    pub(crate) fn into_outcome(self, clamped_to_cmin: bool) -> Result<GreedyOutcome, CoreError> {
        let stats = GreedyStats {
            max_heap_size: self.max_live,
            merges: self.merges,
            total_error: self.etot,
            tuples_in: self.next_src,
            clamped_to_cmin,
        };
        let n = self.list.len();
        let mut builder = SequentialBuilder::with_groups(self.weights.dims(), n, self.groups);
        let mut source_ranges = Vec::with_capacity(n);
        for (slot, node) in self.list.iter() {
            builder.push_id(node.group, node.interval, self.list.values(slot))?;
            source_ranges.push(node.first_src..node.end_src);
        }
        let reduction = Reduction::new(builder.build(), source_ranges, self.etot);
        Ok(GreedyOutcome { reduction, stats })
    }
}
