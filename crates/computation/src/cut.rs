//! Consistent cuts represented as per-process prefix vectors.
//!
//! `Cut` is the hottest data structure in the workspace: every visited-set
//! probe, successor expansion, and lattice join manipulates one. To keep
//! those inner loops allocation-free, the per-process counts live inline in
//! the struct for computations of up to [`Cut::INLINE_PROCESSES`] processes
//! and spill to the heap only beyond that. Cloning an inline cut is a plain
//! stack copy; heap spills are counted per thread ([`cut_heap_allocs`]) so
//! tests and benches can assert that hot paths do not allocate.

use std::cell::Cell;
use std::fmt;

use crate::process::ProcessId;

thread_local! {
    /// Heap-allocating cut constructions on this thread; see
    /// [`cut_heap_allocs`].
    static CUT_HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one heap-allocating cut construction.
#[inline]
fn count_heap_alloc() {
    CUT_HEAP_ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Reads the calling thread's count of heap-allocating cut constructions
/// since the thread started.
///
/// Incremented on every spill: constructing, cloning, or combining a cut
/// that spans more than [`Cut::INLINE_PROCESSES`] processes. Converting an
/// existing `Vec<u32>` into a `Cut` reuses the vector's buffer and does
/// not count. Deltas of this counter bound the deep-clone traffic of an
/// algorithm on wide computations; for `<= INLINE_PROCESSES` processes it
/// never moves. The count is per thread, so a test measures exactly its
/// own spills while other tests run on parallel threads (no library code
/// builds cuts on threads of its own).
pub fn cut_heap_allocs() -> u64 {
    CUT_HEAP_ALLOCS.with(Cell::get)
}

/// Storage for the per-process counts: inline up to
/// [`Cut::INLINE_PROCESSES`] entries, heap-spilled beyond. The invariant
/// is strict — `len <= INLINE_PROCESSES` is *always* `Inline` — so
/// equality, ordering, and hashing can compare count slices without
/// normalizing representations.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u32; Cut::INLINE_PROCESSES],
    },
    Spilled(Vec<u32>),
}

/// A (candidate) consistent cut of a computation.
///
/// Every graph this library manipulates — computations and slices alike —
/// contains the process-order edges, so every consistent cut is a union of
/// per-process prefixes. `Cut` stores, for each process, *how many events of
/// that process are included*, counting the fictitious initial event at
/// position 0. Entry values therefore range from `1` (only the initial
/// event) to `len_i` (all events of process `i`); the paper's trivial cuts
/// (the empty set, and the set including the fictitious final events) are
/// never represented.
///
/// `Cut` is a plain vector: whether it is *consistent* is relative to a
/// computation and checked by
/// [`Computation::is_consistent`](crate::Computation::is_consistent).
///
/// The set of consistent cuts forms a distributive lattice under inclusion
/// ([`join`](Cut::join) = set union = componentwise max, [`meet`](Cut::meet)
/// = set intersection = componentwise min), which is the foundation of the
/// slicing theory (Birkhoff's representation theorem).
///
/// # Examples
///
/// ```
/// use slicing_computation::Cut;
///
/// let a = Cut::from(vec![1, 3, 2]);
/// let b = Cut::from(vec![2, 1, 2]);
/// assert_eq!(a.join(&b), Cut::from(vec![2, 3, 2]));
/// assert_eq!(a.meet(&b), Cut::from(vec![1, 1, 2]));
/// assert!(a.meet(&b).leq(&a));
/// ```
pub struct Cut(Repr);

impl Cut {
    /// Widest cut stored without heap allocation. Computations up to this
    /// many processes pay no allocation for cut clones, joins, or meets.
    pub const INLINE_PROCESSES: usize = 16;

    /// Builds a cut with every process at `value`.
    fn filled(num_processes: usize, value: u32) -> Self {
        if num_processes <= Self::INLINE_PROCESSES {
            Cut(Repr::Inline {
                len: num_processes as u8,
                buf: [value; Self::INLINE_PROCESSES],
            })
        } else {
            count_heap_alloc();
            Cut(Repr::Spilled(vec![value; num_processes]))
        }
    }

    /// Builds a cut from a count slice (copies; spills iff too wide).
    pub fn from_counts(counts: &[u32]) -> Self {
        if counts.len() <= Self::INLINE_PROCESSES {
            let mut buf = [0u32; Self::INLINE_PROCESSES];
            buf[..counts.len()].copy_from_slice(counts);
            Cut(Repr::Inline {
                len: counts.len() as u8,
                buf,
            })
        } else {
            count_heap_alloc();
            Cut(Repr::Spilled(counts.to_vec()))
        }
    }

    /// The bottom element of the lattice of non-trivial cuts: each process
    /// has executed only its initial event.
    pub fn bottom(num_processes: usize) -> Self {
        Cut::filled(num_processes, 1)
    }

    /// `true` if the counts live inline (no heap buffer).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Number of processes this cut spans.
    pub fn num_processes(&self) -> usize {
        self.counts().len()
    }

    /// Number of events of process `p` included in the cut (counting the
    /// initial event at position 0).
    pub fn count(&self, p: ProcessId) -> u32 {
        self.counts()[p.as_usize()]
    }

    /// Position (0-based) of the frontier event of process `p`: the last
    /// event of `p` inside the cut.
    pub fn frontier_pos(&self, p: ProcessId) -> u32 {
        debug_assert!(self.count(p) >= 1, "cut excludes an initial event");
        self.count(p) - 1
    }

    /// Sets the number of included events of process `p`.
    pub fn set_count(&mut self, p: ProcessId, count: u32) {
        self.counts_mut()[p.as_usize()] = count;
    }

    /// Overwrites this cut's counts from a slice of the same width.
    ///
    /// The allocation-free way to re-point a scratch cut at new counts in
    /// a hot loop: unlike [`from_counts`](Cut::from_counts) it copies only
    /// `counts.len()` words instead of initializing a whole inline buffer.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn copy_from_counts(&mut self, counts: &[u32]) {
        self.counts_mut().copy_from_slice(counts);
    }

    /// Componentwise maximum: the set union of the two cuts (the lattice
    /// *join*).
    #[must_use]
    pub fn join(&self, other: &Cut) -> Cut {
        let mut out = self.clone();
        out.join_in_place(other);
        out
    }

    /// Componentwise minimum: the set intersection of the two cuts (the
    /// lattice *meet*).
    #[must_use]
    pub fn meet(&self, other: &Cut) -> Cut {
        let mut out = self.clone();
        out.meet_in_place(other);
        out
    }

    /// Overwrites this cut with the componentwise maximum of `base` and
    /// `other` in a single pass — a fused
    /// [`copy_from_counts`](Cut::copy_from_counts) +
    /// [`join_in_place`](Cut::join_in_place) for hot loops that re-point a
    /// scratch cut at a joined value. Allocation-free for every width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn assign_join_counts(&mut self, base: &[u32], other: &[u32]) {
        let out = self.counts_mut();
        assert_eq!(out.len(), base.len());
        assert_eq!(out.len(), other.len());
        for (i, o) in out.iter_mut().enumerate() {
            *o = base[i].max(other[i]);
        }
    }

    /// In-place join: grows `self` to include everything in `other`.
    /// Allocation-free for every width.
    pub fn join_in_place(&mut self, other: &Cut) {
        let b = other.counts();
        let a = self.counts_mut();
        debug_assert_eq!(a.len(), b.len());
        for (a, &b) in a.iter_mut().zip(b) {
            *a = (*a).max(b);
        }
    }

    /// In-place meet: shrinks `self` to its intersection with `other`.
    /// Allocation-free for every width.
    pub fn meet_in_place(&mut self, other: &Cut) {
        let b = other.counts();
        let a = self.counts_mut();
        debug_assert_eq!(a.len(), b.len());
        for (a, &b) in a.iter_mut().zip(b) {
            *a = (*a).min(b);
        }
    }

    /// In-place join (historical name; see [`join_in_place`](Cut::join_in_place)).
    pub fn join_assign(&mut self, other: &Cut) {
        self.join_in_place(other);
    }

    /// In-place meet (historical name; see [`meet_in_place`](Cut::meet_in_place)).
    pub fn meet_assign(&mut self, other: &Cut) {
        self.meet_in_place(other);
    }

    /// Set inclusion: `true` if every event in `self` is also in `other`.
    pub fn leq(&self, other: &Cut) -> bool {
        let (a, b) = (self.counts(), other.counts());
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).all(|(&a, &b)| a <= b)
    }

    /// Strict inclusion.
    pub fn lt(&self, other: &Cut) -> bool {
        self.leq(other) && self.counts() != other.counts()
    }

    /// Total number of events in the cut.
    pub fn size(&self) -> u64 {
        self.counts().iter().map(|&c| u64::from(c)).sum()
    }

    /// Returns the per-process counts as a slice.
    pub fn counts(&self) -> &[u32] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Mutable view of the per-process counts.
    fn counts_mut(&mut self) -> &mut [u32] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Iterates over `(process, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, u32)> + '_ {
        self.counts()
            .iter()
            .enumerate()
            .map(|(i, &c)| (ProcessId::new(i), c))
    }
}

impl Clone for Cut {
    fn clone(&self) -> Self {
        match &self.0 {
            Repr::Inline { len, buf } => Cut(Repr::Inline {
                len: *len,
                buf: *buf,
            }),
            Repr::Spilled(v) => {
                count_heap_alloc();
                Cut(Repr::Spilled(v.clone()))
            }
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuse an existing spilled buffer instead of reallocating; all
        // other combinations fall back to a fresh clone.
        match (&mut self.0, &source.0) {
            (Repr::Spilled(dst), Repr::Spilled(src)) if dst.len() == src.len() => {
                dst.copy_from_slice(src);
            }
            (dst, _) => *dst = source.clone().0,
        }
    }
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
    }
}

impl Eq for Cut {}

impl PartialOrd for Cut {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cut {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.counts().cmp(other.counts())
    }
}

impl std::hash::Hash for Cut {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash as the count slice: identical to the historical
        // `Cut(Vec<u32>)` derive and independent of the storage variant.
        self.counts().hash(state);
    }
}

/// A bit-packing plan mapping a cut's per-process counts into one `u64`
/// key: uniform-width bit lanes, one per process.
///
/// The lane width comes from the per-process event counts of the
/// computation being searched: counts on process `p` range over
/// `0..=maxima[p]`. When the lanes fit in 63 bits the packing is a
/// bijection between bounded cuts and keys — packed-key equality *is* cut
/// equality — and the clear top bit keeps `u64::MAX` free as a table
/// sentinel. [`for_maxima`](CutPacking::for_maxima) returns `None` for
/// computations too wide or too long to pack; callers fall back to
/// unpacked cut storage.
///
/// When the bit budget allows, the plan reserves one spare top bit per
/// lane and enough lane headroom to hold the total event count; lattice
/// joins ([`join`](CutPacking::join)) and cut sizes
/// ([`size_of`](CutPacking::size_of)) then run as branch-free SWAR
/// arithmetic on whole keys — no per-lane loops, no unpacking — which is
/// what makes packed lattice sweeps cheap.
///
/// # Examples
///
/// ```
/// use slicing_computation::{Cut, CutPacking};
///
/// let packing = CutPacking::for_maxima(&[12, 3, 200]).unwrap();
/// let cut = Cut::from(vec![7, 2, 143]);
/// let key = packing.pack(cut.counts());
/// let mut out = Cut::bottom(3);
/// packing.unpack_into(key, &mut out);
/// assert_eq!(out, cut);
/// assert_eq!(packing.size_of(key), 7 + 2 + 143);
/// let other = packing.pack(&[9, 1, 150]);
/// let join = packing.join(key, other);
/// assert_eq!(join, packing.pack(&[9, 2, 150]));
/// ```
#[derive(Debug, Clone)]
pub struct CutPacking {
    /// Bits per lane (uniform across processes).
    lane_bits: u32,
    /// Number of lanes.
    n: usize,
    /// `(1 << lane_bits) - 1`: one lane's value mask.
    lane_mask: u64,
    /// `Σᵢ 1 << (i·lane_bits)`: the all-lanes-one constant (SWAR sums).
    ones: u64,
    /// `Σᵢ 1 << (i·lane_bits + lane_bits - 1)`: every lane's spare top
    /// bit; meaningful only when `swar`.
    high: u64,
    /// `true` when lanes have a spare top bit and sum headroom, enabling
    /// branch-free [`join`](Self::join) and [`size_of`](Self::size_of).
    swar: bool,
}

impl CutPacking {
    /// Builds the packing for counts bounded by `maxima` (inclusive), or
    /// `None` when uniform lanes wide enough need more than 63 bits.
    pub fn for_maxima(maxima: &[u32]) -> Option<CutPacking> {
        let n = maxima.len();
        if n == 0 {
            return None;
        }
        let need = maxima
            .iter()
            .map(|&m| 32 - m.leading_zeros())
            .max()
            .unwrap();
        let sum: u64 = maxima.iter().map(|&m| u64::from(m)).sum();
        let sum_bits = 64 - sum.leading_zeros();
        // Prefer SWAR lanes: a spare top bit (values stay below
        // 2^(w-1)) and room for the total event count in one lane.
        let swar_bits = (need + 1).max(sum_bits);
        let (lane_bits, swar) = if (n as u32) * swar_bits <= 63 {
            (swar_bits, true)
        } else if (n as u32) * need <= 63 && need > 0 {
            (need, false)
        } else {
            return None;
        };
        let mut ones = 0u64;
        for i in 0..n {
            ones |= 1u64 << (i as u32 * lane_bits);
        }
        Some(CutPacking {
            lane_bits,
            n,
            lane_mask: (1u64 << lane_bits) - 1,
            ones,
            high: ones << (lane_bits - 1),
            swar,
        })
    }

    /// Number of processes (lanes) in the plan.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Bits per lane. Together with the lane count this fingerprints the
    /// plan: caches of packed values verify it before trusting their
    /// contents against a caller's plan.
    pub fn lane_bits(&self) -> u32 {
        self.lane_bits
    }

    /// Packs a count slice into its key. Counts must be within the
    /// construction-time maxima (debug-asserted) — injectivity depends on
    /// every count fitting its lane.
    #[inline]
    pub fn pack(&self, counts: &[u32]) -> u64 {
        debug_assert_eq!(counts.len(), self.n);
        let mut key = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            debug_assert!(u64::from(c) <= self.lane_mask, "count {c} exceeds lane {i}");
            key |= u64::from(c) << (i as u32 * self.lane_bits);
        }
        key
    }

    /// Writes the counts behind `key` into `cut`, which must span the
    /// plan's process count.
    #[inline]
    pub fn unpack_into(&self, key: u64, cut: &mut Cut) {
        let counts = cut.counts_mut();
        assert_eq!(counts.len(), self.n);
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ((key >> (i as u32 * self.lane_bits)) & self.lane_mask) as u32;
        }
    }

    /// The lattice join (per-lane maximum) of two packed cuts.
    ///
    /// On a SWAR plan this is ten branch-free word ops for all lanes at
    /// once: the spare top bit absorbs each lane's borrow, so one
    /// subtraction compares every pair of lanes in parallel.
    #[inline]
    pub fn join(&self, a: u64, b: u64) -> u64 {
        if self.swar {
            let h = self.high;
            // Lane top bit of t set iff aᵢ ≥ bᵢ (the spare bit prevents
            // inter-lane borrows).
            let t = ((a | h) - b) & h;
            // Expand each set top bit to a full-lane mask.
            let m = t | (t - (t >> (self.lane_bits - 1)));
            (a & m) | (b & !m)
        } else {
            let mut out = 0u64;
            for i in 0..self.n {
                let s = i as u32 * self.lane_bits;
                out |= ((a >> s) & self.lane_mask).max((b >> s) & self.lane_mask) << s;
            }
            out
        }
    }

    /// The size (total event count) of a packed cut.
    ///
    /// On a SWAR plan this is one multiplication: `key · ones` accumulates
    /// every lane's prefix sum, and the top lane holds the total (lane
    /// headroom for the full event count guarantees no carries).
    #[inline]
    pub fn size_of(&self, key: u64) -> u32 {
        if self.swar {
            let top = (self.n as u32 - 1) * self.lane_bits;
            ((key.wrapping_mul(self.ones) >> top) & self.lane_mask) as u32
        } else {
            let mut sum = 0u64;
            for i in 0..self.n {
                sum += (key >> (i as u32 * self.lane_bits)) & self.lane_mask;
            }
            sum as u32
        }
    }
}

impl From<Vec<u32>> for Cut {
    fn from(counts: Vec<u32>) -> Self {
        if counts.len() <= Cut::INLINE_PROCESSES {
            Cut::from_counts(&counts)
        } else {
            // Take over the existing buffer: no new allocation.
            Cut(Repr::Spilled(counts))
        }
    }
}

impl From<Cut> for Vec<u32> {
    fn from(cut: Cut) -> Vec<u32> {
        match cut.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Spilled(v) => v,
        }
    }
}

impl AsRef<[u32]> for Cut {
    fn as_ref(&self) -> &[u32] {
        self.counts()
    }
}

impl fmt::Debug for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cut{:?}", self.counts())
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottom_includes_only_initial_events() {
        let c = Cut::bottom(4);
        assert_eq!(c.counts(), &[1, 1, 1, 1]);
        assert_eq!(c.size(), 4);
        for i in 0..4 {
            assert_eq!(c.frontier_pos(ProcessId::new(i)), 0);
        }
    }

    #[test]
    fn join_meet_are_componentwise() {
        let a = Cut::from(vec![1, 4, 2]);
        let b = Cut::from(vec![3, 1, 2]);
        assert_eq!(a.join(&b).counts(), &[3, 4, 2]);
        assert_eq!(a.meet(&b).counts(), &[1, 1, 2]);
    }

    #[test]
    fn join_meet_assign_match_pure_versions() {
        let a = Cut::from(vec![1, 4, 2]);
        let b = Cut::from(vec![3, 1, 2]);
        let mut j = a.clone();
        j.join_assign(&b);
        assert_eq!(j, a.join(&b));
        let mut m = a.clone();
        m.meet_assign(&b);
        assert_eq!(m, a.meet(&b));
    }

    #[test]
    fn inclusion_is_a_partial_order() {
        let a = Cut::from(vec![1, 2]);
        let b = Cut::from(vec![2, 2]);
        let c = Cut::from(vec![3, 1]);
        assert!(a.leq(&b));
        assert!(a.lt(&b));
        assert!(!b.leq(&a));
        // b and c are incomparable.
        assert!(!b.leq(&c) && !c.leq(&b));
        // Reflexivity.
        assert!(a.leq(&a) && !a.lt(&a));
    }

    #[test]
    fn lattice_absorption_laws() {
        let a = Cut::from(vec![1, 3, 2]);
        let b = Cut::from(vec![2, 1, 4]);
        assert_eq!(a.join(&a.meet(&b)), a);
        assert_eq!(a.meet(&a.join(&b)), a);
    }

    #[test]
    fn set_count_and_accessors() {
        let mut c = Cut::bottom(3);
        c.set_count(ProcessId::new(1), 5);
        assert_eq!(c.count(ProcessId::new(1)), 5);
        assert_eq!(c.frontier_pos(ProcessId::new(1)), 4);
        let pairs: Vec<(usize, u32)> = c.iter().map(|(p, n)| (p.as_usize(), n)).collect();
        assert_eq!(pairs, vec![(0, 1), (1, 5), (2, 1)]);
    }

    #[test]
    fn display_and_debug() {
        let c = Cut::from(vec![1, 2]);
        assert_eq!(c.to_string(), "⟨1, 2⟩");
        assert_eq!(format!("{c:?}"), "Cut[1, 2]");
    }

    #[test]
    fn storage_spills_exactly_beyond_inline_width() {
        assert!(Cut::bottom(Cut::INLINE_PROCESSES).is_inline());
        assert!(!Cut::bottom(Cut::INLINE_PROCESSES + 1).is_inline());
        // Round trip both representations.
        for n in [1, 15, 16, 17, 40] {
            let counts: Vec<u32> = (1..=n as u32).collect();
            let c = Cut::from(counts.clone());
            assert_eq!(c.counts(), &counts[..], "width {n}");
            assert_eq!(Vec::<u32>::from(c.clone()), counts, "width {n}");
            assert_eq!(c.is_inline(), n <= Cut::INLINE_PROCESSES);
        }
    }

    #[test]
    fn lattice_ops_agree_across_the_spill_boundary() {
        for n in [15usize, 16, 17, 19] {
            let a: Vec<u32> = (0..n).map(|i| 1 + (i as u32 * 7) % 5).collect();
            let b: Vec<u32> = (0..n).map(|i| 1 + (i as u32 * 3) % 5).collect();
            let (ca, cb) = (Cut::from(a.clone()), Cut::from(b.clone()));
            let join: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.max(y)).collect();
            let meet: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
            assert_eq!(ca.join(&cb).counts(), &join[..], "width {n}");
            assert_eq!(ca.meet(&cb).counts(), &meet[..], "width {n}");
            let mut j = ca.clone();
            j.join_in_place(&cb);
            assert_eq!(j.counts(), &join[..], "width {n}");
            let mut m = ca.clone();
            m.meet_in_place(&cb);
            assert_eq!(m.counts(), &meet[..], "width {n}");
        }
    }

    #[test]
    fn hash_and_ord_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |c: &Cut| {
            let mut s = DefaultHasher::new();
            c.hash(&mut s);
            s.finish()
        };
        // Equality and hashing depend only on the counts; the old
        // Vec-backed Cut hashed as a slice, matched here byte for byte.
        let v: Vec<u32> = (1..=16).collect();
        let inline = Cut::from_counts(&v);
        assert!(inline.is_inline());
        assert_eq!(h(&inline), {
            let mut s = DefaultHasher::new();
            v[..].hash(&mut s);
            s.finish()
        });
        // Ord is lexicographic like Vec<u32>.
        let a = Cut::from(vec![1, 2, 9]);
        let b = Cut::from(vec![1, 3, 0]);
        assert!(a < b);
    }

    #[test]
    fn inline_cuts_never_touch_the_heap() {
        let before = cut_heap_allocs();
        let a = Cut::bottom(Cut::INLINE_PROCESSES);
        let b = a.clone();
        let j = a.join(&b);
        let m = a.meet(&j);
        let mut s = m.clone();
        s.join_in_place(&a);
        assert_eq!(cut_heap_allocs(), before, "inline ops allocated");
    }

    #[test]
    fn spilled_ops_count_heap_allocations() {
        let n = Cut::INLINE_PROCESSES + 4;
        let before = cut_heap_allocs();
        let a = Cut::bottom(n); // +1
        let b = a.clone(); // +1
        let _j = a.join(&b); // +1 (clone inside join)
        assert_eq!(cut_heap_allocs() - before, 3);
        // From<Vec> adopts the buffer: no new allocation.
        let before = cut_heap_allocs();
        let big = Cut::from(vec![1u32; n]);
        assert!(!big.is_inline());
        assert_eq!(cut_heap_allocs(), before);
    }

    #[test]
    fn clone_from_reuses_spilled_buffers() {
        let n = Cut::INLINE_PROCESSES + 2;
        let src = Cut::from(vec![3u32; n]);
        let mut dst = Cut::from(vec![1u32; n]);
        let before = cut_heap_allocs();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(cut_heap_allocs(), before, "clone_from reallocated");
    }

    #[test]
    fn packing_for_maxima_edge_cases() {
        assert!(CutPacking::for_maxima(&[]).is_none(), "no lanes");
        // 64 one-bit lanes need 64 bits even without SWAR headroom.
        assert!(CutPacking::for_maxima(&[1; 64]).is_none(), "too wide");
        // 15 lanes of 4-bit counts fit raw (60 bits) but not with SWAR
        // headroom (sum 210 needs 8-bit lanes → 120 bits).
        let tight = CutPacking::for_maxima(&[14; 15]).unwrap();
        assert!(!tight.swar, "tight plan must fall back to per-lane loops");
        assert_eq!(tight.lane_bits(), 4);
        // A narrow plan gets the spare bit and sum headroom.
        let roomy = CutPacking::for_maxima(&[12, 3, 200]).unwrap();
        assert!(roomy.swar);
        assert_eq!(roomy.num_processes(), 3);
    }

    /// Exercises pack/unpack/join/size_of on both plan flavors against the
    /// unpacked `Cut` operations, over a deterministic pseudo-random walk
    /// of in-range cuts.
    #[test]
    fn packing_ops_match_cut_ops_on_both_plans() {
        let plans = [
            (
                vec![12u32, 3, 200, 9],
                CutPacking::for_maxima(&[12, 3, 200, 9]).unwrap(),
            ),
            (vec![14u32; 15], CutPacking::for_maxima(&[14; 15]).unwrap()),
        ];
        assert!(plans[0].1.swar && !plans[1].1.swar, "one plan per flavor");
        for (maxima, packing) in &plans {
            let n = maxima.len();
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut draw = |m: u32| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((rng >> 33) % u64::from(m + 1)) as u32
            };
            for _ in 0..200 {
                let a = Cut::from(maxima.iter().map(|&m| draw(m)).collect::<Vec<_>>());
                let b = Cut::from(maxima.iter().map(|&m| draw(m)).collect::<Vec<_>>());
                let (ka, kb) = (packing.pack(a.counts()), packing.pack(b.counts()));
                let mut out = Cut::bottom(n);
                packing.unpack_into(ka, &mut out);
                assert_eq!(out, a, "pack/unpack must round-trip");
                assert_eq!(packing.size_of(ka), a.size() as u32);
                let mut join = Cut::bottom(n);
                packing.unpack_into(packing.join(ka, kb), &mut join);
                assert_eq!(join, a.join(&b), "packed join vs componentwise max");
            }
        }
    }

    #[test]
    fn packing_keys_order_by_equality_not_accident() {
        // Injectivity on bounded counts: distinct cuts → distinct keys.
        let packing = CutPacking::for_maxima(&[3, 3, 3]).unwrap();
        let mut seen = std::collections::HashSet::new();
        for a in 0..=3u32 {
            for b in 0..=3 {
                for c in 0..=3 {
                    assert!(seen.insert(packing.pack(&[a, b, c])));
                }
            }
        }
        assert_eq!(seen.len(), 64);
    }
}
