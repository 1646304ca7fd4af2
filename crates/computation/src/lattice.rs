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
/// Implementations must guarantee that the successor relation generates
/// exactly the non-trivial consistent cuts reachable from
/// [`bottom`](CutSpace::bottom), and that every successor strictly contains
/// its predecessor (so traversals terminate).
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

    /// Number of immediate successors of `cut`, without materializing any
    /// of them.
    ///
    /// The count-only fast path: callers that need just the out-degree
    /// (branching-factor stats, frontier sizing) should use this instead of
    /// [`successors`](CutSpace::successors), which clones every successor
    /// into a `Vec`. The default counts through
    /// [`for_each_successor`](CutSpace::for_each_successor), which is
    /// already clone-free for the kernelized spaces; implementors with a
    /// cheaper census (a slice can count distinct J-targets directly) may
    /// override it.
    fn count_successors(&self, cut: &Cut) -> usize {
        let mut n = 0usize;
        self.for_each_successor(cut, &mut |_| n += 1);
        n
    }

    /// Packed successor streaming: calls `f` with `(packed key, size)`
    /// for every immediate successor of the cut whose counts are `counts`
    /// and whose key under `packing` is `key`, in
    /// [`for_each_successor`](CutSpace::for_each_successor) order, then
    /// returns `true`.
    ///
    /// The all-packed hot path of the banded search: a space that keeps
    /// its transition table in packed form (a slice's J-cuts) emits
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
        f: &mut dyn FnMut(u64, u32),
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

    /// Unit-step successor enumeration: calls `f` with every process whose
    /// single-event advance of `cut` stays in the space, in ascending
    /// process order, and returns `true`.
    ///
    /// A space may support this only when it is *unit-step*: every
    /// successor of every cut adds exactly one event, so the cut lattice is
    /// layered by event count and each layer's successors all land in the
    /// next layer. Spaces whose successors can add several events at once
    /// (a slice advances by meta-events/J-closures) must return `false`
    /// without calling `f` — the default. The level-order search asks this
    /// of the bottom cut to choose its store: a unit-step space lets it
    /// deduplicate within the layer under construction and forget every
    /// older layer.
    ///
    /// Implementations must enumerate in the same process order
    /// [`for_each_successor`](CutSpace::for_each_successor) uses, so that
    /// `advance(cut, p)` over the enumeration reproduces the exact
    /// successor stream.
    fn for_each_advance(&self, _cut: &Cut, _f: &mut dyn FnMut(ProcessId)) -> bool {
        false
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

    fn count_successors(&self, cut: &Cut) -> usize {
        (0..Computation::num_processes(self))
            .filter(|&i| self.can_advance(cut, ProcessId::new(i)))
            .count()
    }

    fn for_each_successor_packed(
        &self,
        counts: &[u32],
        key: u64,
        packing: &CutPacking,
        f: &mut dyn FnMut(u64, u32),
    ) -> bool {
        // Unit-step advances are single-lane increments on the packed key:
        // successor i is `key + (1 << i·lane_bits)`, and every successor
        // has the predecessor's size plus one. The enabledness test is
        // `can_advance` restated over the raw count slice.
        let lane_bits = packing.lane_bits();
        let size = packing.size_of(key) + 1;
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
                f(key + (1u64 << (i as u32 * lane_bits)), size);
            }
        }
        true
    }

    fn for_each_advance(&self, cut: &Cut, f: &mut dyn FnMut(ProcessId)) -> bool {
        // A computation's successors always add exactly one enabled event,
        // so the space is unit-step; same process order as
        // `for_each_successor`, without materializing any cut.
        for i in 0..Computation::num_processes(self) {
            let p = ProcessId::new(i);
            if self.can_advance(cut, p) {
                f(p);
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

/// Breadth-first iterator over the consistent cuts of a [`CutSpace`],
/// created by [`cuts`].
///
/// Yields each cut exactly once, in non-decreasing order of event count
/// (BFS layers). Stores the visited set, so memory grows with the space —
/// use [`for_each_cut`] with early exit, or the reverse-search engines in
/// `slicing-detect`, when that matters.
#[derive(Debug)]
pub struct Cuts<'a, S: ?Sized> {
    space: &'a S,
    visited: CutSet,
    queue: VecDeque<Cut>,
    succ: Vec<Cut>,
}

impl<S: CutSpace + ?Sized> Iterator for Cuts<'_, S> {
    type Item = Cut;

    fn next(&mut self) -> Option<Cut> {
        let cut = self.queue.pop_front()?;
        self.succ.clear();
        self.space.successors(&cut, &mut self.succ);
        for next in self.succ.drain(..) {
            if self.visited.insert(&next) {
                self.queue.push_back(next);
            }
        }
        Some(cut)
    }
}

/// Iterates over every consistent cut of `space` in BFS order.
///
/// # Examples
///
/// ```
/// use slicing_computation::lattice::cuts;
/// use slicing_computation::test_fixtures::grid;
///
/// let comp = grid(1, 1);
/// assert_eq!(cuts(&comp).count(), 4);
/// let sizes: Vec<u64> = cuts(&comp).map(|c| c.size()).collect();
/// assert_eq!(sizes, vec![2, 3, 3, 4]); // layered by event count
/// ```
pub fn cuts<S: CutSpace + ?Sized>(space: &S) -> Cuts<'_, S> {
    let mut visited = CutSet::new(space.num_processes());
    let mut queue = VecDeque::new();
    if let Some(bottom) = space.bottom() {
        visited.insert(&bottom);
        queue.push_back(bottom);
    }
    Cuts {
        space,
        visited,
        queue,
        succ: Vec::new(),
    }
}

/// Visits every consistent cut of `space` breadth-first, starting from the
/// bottom cut, until `visit` returns `false` or the space is exhausted.
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
    fn cuts_iterator_matches_for_each() {
        let c = grid(3, 2);
        let via_iter: Vec<Cut> = cuts(&c).collect();
        let mut via_visit = Vec::new();
        for_each_cut(&c, |cut| {
            via_visit.push(cut.clone());
            true
        });
        assert_eq!(via_iter, via_visit);
        // Layered order: sizes never decrease.
        for w in via_iter.windows(2) {
            assert!(w[0].size() <= w[1].size());
        }
        // Standard iterator adapters work.
        assert_eq!(cuts(&c).filter(|c| c.size() == 4).count(), 3);
    }

    #[test]
    fn cuts_iterator_on_empty_space_is_empty() {
        struct Empty;
        impl CutSpace for Empty {
            fn num_processes(&self) -> usize {
                1
            }
            fn bottom(&self) -> Option<Cut> {
                None
            }
            fn successors(&self, _: &Cut, _: &mut Vec<Cut>) {}
        }
        assert_eq!(cuts(&Empty).count(), 0);
    }

    #[test]
    fn advance_enumeration_matches_successor_stream() {
        // On a computation (unit-step), advancing each enumerated process
        // by one event reproduces `for_each_successor` exactly — same
        // cuts, same order.
        let comp = crate::test_fixtures::figure1();
        let mut checked = 0;
        for_each_cut(&comp, |cut| {
            let mut via_succ = Vec::new();
            comp.for_each_successor(cut, &mut |next| via_succ.push(next.clone()));
            let mut via_advance = Vec::new();
            let supported = comp.for_each_advance(cut, &mut |p| {
                let mut next = cut.clone();
                next.set_count(p, cut.count(p) + 1);
                via_advance.push(next);
            });
            assert!(supported);
            assert_eq!(via_succ, via_advance, "at {cut}");
            checked += 1;
            true
        });
        assert_eq!(checked, 28);
    }

    #[test]
    fn advance_enumeration_defaults_to_unsupported() {
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
        let mut called = false;
        assert!(!Opaque.for_each_advance(&Cut::bottom(1), &mut |_| called = true));
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
