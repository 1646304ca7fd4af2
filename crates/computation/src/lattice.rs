//! The lattice of consistent cuts, and generic traversal over it.

use std::collections::VecDeque;

use crate::computation::Computation;
use crate::cut::{Cut, CutPacking};
use crate::cutset::CutSet;
use crate::process::ProcessId;

/// A state space whose states are consistent cuts.
///
/// Both computations and slices expose their sets of consistent cuts through
/// this trait, so the detection algorithms in `slicing-detect` can search
/// either one unchanged — searching the slice instead of the computation is
/// precisely the paper's optimization.
///
/// Implementations must guarantee that the successors of a cut are exactly
/// its *upper covers* in the space: the cuts of the space that strictly
/// contain it with no cut of the space strictly between. A computation's
/// covers add one event; a slice's add one meta-event. Successors then
/// reach every cut of the space from [`bottom`](CutSpace::bottom), and
/// every space is *graded*: each cut has
/// a rank (the length of every successor chain from the bottom to it), and
/// every successor of a rank-`k` cut has rank `k + 1`. The level-order
/// search relies on the grading to deduplicate within one layer.
pub trait CutSpace {
    /// Number of processes spanned by the cuts.
    fn num_processes(&self) -> usize;

    /// The least non-trivial consistent cut, or `None` if the space is
    /// empty (an empty slice has no non-trivial cuts).
    fn bottom(&self) -> Option<Cut>;

    /// Appends every immediate successor of `cut` to `out` (duplicates
    /// allowed; callers dedup).
    fn successors(&self, cut: &Cut, out: &mut Vec<Cut>);

    /// Calls `f` with every immediate successor of `cut`, in the same
    /// order [`successors`](CutSpace::successors) would produce them.
    ///
    /// The hot-loop variant: each successor is lent to the consumer as it
    /// is built, skipping the cut moves (clone, push into the buffer,
    /// drain back out) a `Vec` round-trip costs; the borrow only lives for
    /// the call, so implementors may reuse one scratch cut across
    /// successors. Consumers that keep a successor must clone it.
    /// Implementors should override the default, which materializes
    /// through `successors` and allocates per call.
    fn for_each_successor(&self, cut: &Cut, f: &mut dyn FnMut(&Cut)) {
        let mut succ = Vec::new();
        self.successors(cut, &mut succ);
        for next in &succ {
            f(next);
        }
    }

    /// Packed successor streaming: calls `f` with the packed key of every
    /// immediate successor of the cut whose counts are `counts` and whose
    /// key under `packing` is `key`, in
    /// [`for_each_successor`](CutSpace::for_each_successor) order, then
    /// returns `true`.
    ///
    /// The all-packed hot path of the level-order search: a space that
    /// keeps its transition table in packed form (a slice's J-cuts) emits
    /// successors as whole-key joins without materializing a [`Cut`] per
    /// emission. The default returns `false` without emitting anything —
    /// "no accelerated path here" — and the caller falls back to
    /// [`for_each_successor`](CutSpace::for_each_successor) plus
    /// [`CutPacking::pack`]. Implementors must emit exactly the
    /// successors `for_each_successor` would, in the same order.
    fn for_each_successor_packed(
        &self,
        counts: &[u32],
        key: u64,
        packing: &CutPacking,
        f: &mut dyn FnMut(u64),
    ) -> bool {
        let _ = (counts, key, packing, f);
        false
    }

    /// An estimate of the bytes needed to store one cut, used by the
    /// detection metrics to reproduce the paper's memory measurements.
    fn bytes_per_cut(&self) -> usize {
        // Vec header + one u32 per process.
        std::mem::size_of::<Cut>() + 4 * self.num_processes()
    }
}

impl CutSpace for Computation {
    fn num_processes(&self) -> usize {
        Computation::num_processes(self)
    }

    fn bottom(&self) -> Option<Cut> {
        // Adopt a `Vec` instead of calling `Cut::bottom`: for wide
        // computations the adoption path does not count a heap spill.
        Some(Cut::from(vec![1u32; Computation::num_processes(self)]))
    }

    fn successors(&self, cut: &Cut, out: &mut Vec<Cut>) {
        self.for_each_successor(cut, &mut |next| out.push(next.clone()));
    }

    fn for_each_successor(&self, cut: &Cut, f: &mut dyn FnMut(&Cut)) {
        // One scratch cut for the whole call: each successor differs from
        // `cut` in a single count, so advance it, lend it out, revert.
        let mut next = cut.clone();
        for i in 0..Computation::num_processes(self) {
            let p = ProcessId::new(i);
            if self.can_advance(cut, p) {
                let c = cut.count(p);
                next.set_count(p, c + 1);
                f(&next);
                next.set_count(p, c);
            }
        }
    }

    fn for_each_successor_packed(
        &self,
        counts: &[u32],
        key: u64,
        packing: &CutPacking,
        f: &mut dyn FnMut(u64),
    ) -> bool {
        // One-event advances are single-lane increments on the packed key:
        // successor i is `key + (1 << i·lane_bits)`. The enabledness test
        // is `can_advance` restated over the raw count slice.
        let lane_bits = packing.lane_bits();
        for (i, &c) in counts.iter().enumerate() {
            let p = ProcessId::new(i);
            if c >= self.len(p) {
                continue;
            }
            let need = self.min_cut(self.event_at(p, c)).counts();
            let enabled = need
                .iter()
                .zip(counts)
                .enumerate()
                .all(|(q, (nd, have))| q == i || nd <= have);
            if enabled {
                f(key + (1u64 << (i as u32 * lane_bits)));
            }
        }
        true
    }
}

/// Outcome of a (possibly capped) cut count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutCount {
    /// The space was exhausted; this is the exact number of cuts.
    Exact(u64),
    /// The cap was hit; the space has at least this many cuts.
    AtLeast(u64),
}

impl CutCount {
    /// The counted value, whether exact or a lower bound.
    pub fn value(self) -> u64 {
        match self {
            CutCount::Exact(v) | CutCount::AtLeast(v) => v,
        }
    }

    /// Returns `true` for [`CutCount::Exact`].
    pub fn is_exact(self) -> bool {
        matches!(self, CutCount::Exact(_))
    }
}

/// Visits every consistent cut of `space` breadth-first, starting from the
/// bottom cut, until `visit` returns `false` or the space is exhausted.
/// Successors are upper covers ([`CutSpace`]), so cuts arrive in
/// non-decreasing rank: event count on a computation, meta-event count on
/// a slice.
///
/// Stores the visited set, so memory grows with the space; the
/// level-order engine in `slicing-detect` keeps two layers instead.
///
/// Returns the number of distinct cuts visited.
pub fn for_each_cut<S: CutSpace + ?Sized>(space: &S, mut visit: impl FnMut(&Cut) -> bool) -> u64 {
    let Some(bottom) = space.bottom() else {
        return 0;
    };
    let mut visited = CutSet::new(space.num_processes());
    let mut queue: VecDeque<Cut> = VecDeque::new();
    let mut succ = Vec::new();
    visited.insert(&bottom);
    queue.push_back(bottom);
    let mut count = 0u64;
    while let Some(cut) = queue.pop_front() {
        count += 1;
        if !visit(&cut) {
            return count;
        }
        succ.clear();
        space.successors(&cut, &mut succ);
        for next in succ.drain(..) {
            if visited.insert(&next) {
                queue.push_back(next);
            }
        }
    }
    count
}

/// Counts the consistent cuts of `space`, stopping at `cap` if provided.
pub fn count_cuts<S: CutSpace + ?Sized>(space: &S, cap: Option<u64>) -> CutCount {
    let cap = cap.unwrap_or(u64::MAX);
    let mut n = 0u64;
    let exhausted = {
        let mut done = true;
        for_each_cut(space, |_| {
            n += 1;
            if n >= cap {
                done = false;
                false
            } else {
                true
            }
        });
        done
    };
    if exhausted {
        CutCount::Exact(n)
    } else {
        CutCount::AtLeast(n)
    }
}

/// Collects every consistent cut of `space` into a sorted vector.
///
/// Intended for tests and small examples; the whole point of slicing is
/// that real computations have too many cuts to collect.
pub fn all_cuts<S: CutSpace + ?Sized>(space: &S) -> Vec<Cut> {
    let mut cuts = Vec::new();
    for_each_cut(space, |c| {
        cuts.push(c.clone());
        true
    });
    cuts.sort();
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ComputationBuilder;

    /// Two independent processes with `a` and `b` real events: the lattice
    /// is the full (a+1)×(b+1) grid.
    fn grid(a: u32, b: u32) -> Computation {
        let mut bld = ComputationBuilder::new(2);
        for _ in 0..a {
            bld.append_event(bld.process(0));
        }
        for _ in 0..b {
            bld.append_event(bld.process(1));
        }
        bld.build().unwrap()
    }

    #[test]
    fn independent_processes_form_a_grid() {
        let c = grid(2, 3);
        assert_eq!(count_cuts(&c, None), CutCount::Exact(12));
        let cuts = all_cuts(&c);
        assert_eq!(cuts.len(), 12);
        assert!(cuts.iter().all(|cut| c.is_consistent(cut)));
    }

    #[test]
    fn message_restricts_the_lattice() {
        // p0: s ; p1: r with s -> r. Cuts: (1,1), (2,1), (2,2) only.
        let mut b = ComputationBuilder::new(2);
        let s = b.append_event(b.process(0));
        let r = b.append_event(b.process(1));
        b.message(s, r).unwrap();
        let c = b.build().unwrap();
        assert_eq!(count_cuts(&c, None), CutCount::Exact(3));
    }

    #[test]
    fn figure1_has_28_cuts() {
        // The paper's Figure 1 computation has twenty-eight consistent
        // cuts. Reconstruction: see `figure1` in the slicing-core tests for
        // the full layout; this standalone copy checks the lattice size.
        let c = crate::test_fixtures::figure1();
        assert_eq!(count_cuts(&c, None), CutCount::Exact(28));
    }

    #[test]
    fn cap_stops_early() {
        let c = grid(5, 5);
        assert_eq!(count_cuts(&c, Some(10)), CutCount::AtLeast(10));
        assert!(count_cuts(&c, Some(10_000)).is_exact());
    }

    #[test]
    fn visit_early_exit() {
        let c = grid(3, 3);
        let visited = for_each_cut(&c, |_| false);
        assert_eq!(visited, 1);
    }

    #[test]
    fn for_each_cut_visits_cuts_in_rank_order() {
        // A computation's rank is its event count: sizes never decrease.
        let c = grid(3, 2);
        let mut sizes = Vec::new();
        for_each_cut(&c, |cut| {
            sizes.push(cut.size());
            true
        });
        assert_eq!(sizes.len(), 12);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "{sizes:?}");
    }

    #[test]
    fn advance_enumeration_matches_successor_stream() {
        // A computation's successors are its one-event advances (its upper
        // covers) in ascending process order, unpacked and packed alike.
        let comp = crate::test_fixtures::figure1();
        let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
        let packing = CutPacking::for_maxima(&maxima).unwrap();
        let mut checked = 0;
        for_each_cut(&comp, |cut| {
            let mut via_succ = Vec::new();
            comp.for_each_successor(cut, &mut |next| via_succ.push(next.clone()));
            let via_advance: Vec<Cut> = comp
                .processes()
                .filter(|&p| comp.can_advance(cut, p))
                .map(|p| {
                    let mut next = cut.clone();
                    next.set_count(p, cut.count(p) + 1);
                    next
                })
                .collect();
            assert_eq!(via_succ, via_advance, "at {cut}");
            let key = packing.pack(cut.counts());
            let mut packed = Vec::new();
            assert!(
                comp.for_each_successor_packed(cut.counts(), key, &packing, &mut |k| {
                    packed.push(k)
                })
            );
            let want: Vec<u64> = via_advance
                .iter()
                .map(|c| packing.pack(c.counts()))
                .collect();
            assert_eq!(packed, want, "packed at {cut}");
            checked += 1;
            true
        });
        assert_eq!(checked, 28);
    }

    #[test]
    fn packed_successors_default_to_unsupported() {
        struct Opaque;
        impl CutSpace for Opaque {
            fn num_processes(&self) -> usize {
                1
            }
            fn bottom(&self) -> Option<Cut> {
                Some(Cut::bottom(1))
            }
            fn successors(&self, _: &Cut, _: &mut Vec<Cut>) {}
        }
        let packing = CutPacking::for_maxima(&[1]).unwrap();
        let mut called = false;
        let key = packing.pack(&[1]);
        assert!(!Opaque.for_each_successor_packed(&[1], key, &packing, &mut |_| called = true));
        assert!(!called);
    }

    #[test]
    fn cut_count_accessors() {
        assert_eq!(CutCount::Exact(5).value(), 5);
        assert_eq!(CutCount::AtLeast(7).value(), 7);
        assert!(CutCount::Exact(5).is_exact());
        assert!(!CutCount::AtLeast(7).is_exact());
    }
}
