//! The cut kernel's visited-set machinery: a fast FxHash-style hasher for
//! cuts and pooled hash containers that store cut payloads in one bump
//! arena.
//!
//! `std::collections::HashSet<Cut>` pays three costs per probe that none of
//! the search loops need: SipHash (DoS resistance is irrelevant for
//! in-process search state), a heap-allocated `Cut` per entry, and pointer
//! chasing across scattered allocations. [`CutSet`] and [`CutMap64`]
//! replace it with open addressing over a contiguous `Vec<u32>` arena —
//! one multiply-xor hash over the count words, no per-entry allocation,
//! and cache-friendly linear probing. Both containers keep deterministic
//! [probe/hit statistics](CutSetStats) so benchmarks can gate on search
//! effort instead of wall-clock noise.

use std::hash::{BuildHasher, Hasher};

use crate::cut::Cut;

/// Multiplier from the Firefox/rustc `FxHash` function: a single odd
/// constant with good avalanche behaviour under `(rotl ^ word) * K`.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn fx_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Folds the high bits into the low bits after the last multiply.
///
/// `fx_mix` ends on a multiplication, which only carries entropy *upward*:
/// the low bits of the state depend on nothing above them in the last
/// word mixed. Open addressing indexes with `hash & mask`, so without this
/// finalizer all cuts agreeing on their first count land in one probe
/// cluster.
#[inline]
fn fx_fold(state: u64) -> u64 {
    let mut h = state ^ (state >> 32);
    h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
    h ^ (h >> 32)
}

/// Hashes a cut's count slice with the FxHash word mix: the hash every
/// pooled container indexes its slot table with.
#[inline]
pub fn hash_counts(counts: &[u32]) -> u64 {
    let mut state = fx_mix(0, counts.len() as u64);
    // Two counts per 64-bit mix: cuts are word pairs most of the time.
    let mut chunks = counts.chunks_exact(2);
    for pair in &mut chunks {
        state = fx_mix(state, u64::from(pair[0]) | (u64::from(pair[1]) << 32));
    }
    if let [last] = chunks.remainder() {
        state = fx_mix(state, u64::from(*last));
    }
    fx_fold(state)
}

/// Hashes a packed cut key ([`CutPacking`](crate::CutPacking)) with the
/// same FxHash mix family (and carry-down finalizer) as [`hash_counts`];
/// the packed tables index their slots with the low bits.
#[inline]
fn hash_packed(key: u64) -> u64 {
    fx_fold(fx_mix(0, key))
}

/// An [`FxHash`-style](https://github.com/rust-lang/rustc-hash) streaming
/// hasher: one rotate-xor-multiply per written word, no finalization.
///
/// Std-only stand-in for the `fxhash`/`rustc-hash` crates (the workspace
/// vendors no external dependencies). Use through [`CutBuildHasher`] with
/// `HashMap`/`HashSet` when a map keyed by cuts needs values the pooled
/// containers do not support.
#[derive(Debug, Default, Clone)]
pub struct CutHasher {
    state: u64,
}

impl Hasher for CutHasher {
    #[inline]
    fn finish(&self) -> u64 {
        fx_fold(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.state = fx_mix(self.state, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.state = fx_mix(self.state, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.state = fx_mix(self.state, u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.state = fx_mix(self.state, u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = fx_mix(self.state, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.state = fx_mix(self.state, v as u64);
    }
}

/// [`BuildHasher`] producing [`CutHasher`]s, for `HashMap`/`HashSet` keyed
/// by cuts (or other small integer keys).
#[derive(Debug, Default, Clone)]
pub struct CutBuildHasher;

impl BuildHasher for CutBuildHasher {
    type Hasher = CutHasher;

    #[inline]
    fn build_hasher(&self) -> CutHasher {
        CutHasher::default()
    }
}

/// Deterministic effort counters of a pooled container.
///
/// All three counters are exact functions of the insertion sequence (no
/// timing or addresses involved), so they are stable across runs and
/// machines — the regression gate in `table_speedup` compares them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CutSetStats {
    /// Table slots inspected across all operations (≥ one per lookup).
    pub probes: u64,
    /// Lookups that found the cut already present.
    pub hits: u64,
    /// Cuts stored (distinct keys).
    pub inserts: u64,
}

/// Empty-slot marker in the open-addressing table.
const EMPTY: u32 = u32::MAX;

/// Hard entry ceiling: arena indices are `u32` and [`EMPTY`] is reserved,
/// so a pool may never hand out index `u32::MAX - 1 + 1`. Inserting past
/// this used to wrap the index space and silently collide with the
/// sentinel; pools now refuse the insert and latch
/// [`saturated`](CutSet::saturated) instead.
const MAX_ENTRIES: u32 = EMPTY - 1;

/// Open-addressing core shared by [`CutSet`] and [`CutMap64`]: a power-of-
/// two slot table indexing into a bump arena of fixed-width cut payloads.
#[derive(Debug, Clone)]
struct Pool {
    /// Counts per cut; every arena entry has exactly this many words.
    width: usize,
    /// Concatenated payloads: entry `i` is `arena[i*width .. (i+1)*width]`.
    arena: Vec<u32>,
    /// Slot → entry index, or [`EMPTY`].
    table: Vec<u32>,
    mask: usize,
    stats: CutSetStats,
    /// `stats.inserts` at the last [`reset`](Pool::reset); width-0 pools
    /// (whose arena cannot measure occupancy) compare against this.
    inserts_at_reset: u64,
    /// Entry ceiling (≤ [`MAX_ENTRIES`]); inserts at the ceiling are
    /// refused and latch `saturated`.
    max_entries: u32,
    /// `true` once an insert was refused because the pool was full.
    saturated: bool,
}

impl Pool {
    fn new(width: usize) -> Self {
        Pool::with_max_entries(width, MAX_ENTRIES)
    }

    fn with_max_entries(width: usize, max_entries: u32) -> Self {
        const INITIAL_SLOTS: usize = 64;
        Pool {
            width,
            arena: Vec::new(),
            table: vec![EMPTY; INITIAL_SLOTS],
            mask: INITIAL_SLOTS - 1,
            stats: CutSetStats::default(),
            inserts_at_reset: 0,
            max_entries: max_entries.min(MAX_ENTRIES),
            saturated: false,
        }
    }

    fn len(&self) -> usize {
        match self.arena.len().checked_div(self.width) {
            Some(n) => n,
            // Width-0 cuts are all equal; the arena cannot measure them.
            None => usize::from(self.stats.inserts > self.inserts_at_reset),
        }
    }

    /// Empties the pool while keeping every allocation: the arena's and
    /// slot table's capacities survive, so refilling to the previous
    /// occupancy touches the allocator zero times. Cumulative stats are
    /// preserved (they count effort since construction).
    fn reset(&mut self) {
        self.arena.clear();
        self.table.fill(EMPTY);
        self.inserts_at_reset = self.stats.inserts;
        self.saturated = false;
    }

    #[inline]
    fn entry(&self, idx: u32) -> &[u32] {
        let base = idx as usize * self.width;
        &self.arena[base..base + self.width]
    }

    /// Finds `counts`: `Ok(entry index)` if present, `Err(slot)` at the
    /// first empty slot otherwise. Counts probes.
    #[inline]
    fn find(&mut self, counts: &[u32]) -> Result<u32, usize> {
        debug_assert_eq!(counts.len(), self.width);
        let mut slot = hash_counts(counts) as usize & self.mask;
        loop {
            self.stats.probes += 1;
            let idx = self.table[slot];
            if idx == EMPTY {
                return Err(slot);
            }
            if self.entry(idx) == counts {
                return Ok(idx);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Appends a payload (the caller has already verified absence at
    /// `slot`) and grows the table past 1/2 load. Returns [`EMPTY`] —
    /// storing nothing and latching `saturated` — once the pool holds
    /// `max_entries` cuts, so index arithmetic can never wrap into the
    /// sentinel.
    fn push(&mut self, counts: &[u32], slot: usize) -> u32 {
        if self.len() as u64 >= u64::from(self.max_entries) {
            self.saturated = true;
            return EMPTY;
        }
        let idx = self.len() as u32;
        self.arena.extend_from_slice(counts);
        self.table[slot] = idx;
        self.stats.inserts += 1;
        // Cap load at 1/2: without SIMD group probing, linear probing
        // degrades sharply past that, and slots cost only 4 bytes each.
        if (self.len() + 1) * 2 > self.table.len() {
            self.grow();
        }
        idx
    }

    /// Doubles the slot table, rehashing from the (untouched) arena.
    fn grow(&mut self) {
        let new_slots = self.table.len() * 2;
        self.mask = new_slots - 1;
        self.table.clear();
        self.table.resize(new_slots, EMPTY);
        for idx in 0..self.len() as u32 {
            let mut slot = hash_counts(self.entry(idx)) as usize & self.mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & self.mask;
            }
            self.table[slot] = idx;
        }
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + 4 * (self.arena.capacity() + self.table.capacity())
    }
}

/// A pooled visited set of cuts: the drop-in replacement for
/// `HashSet<Cut>` in the search engines.
///
/// All cuts must span the same number of processes (fixed at
/// construction). Payloads live in one contiguous arena, so inserting a
/// cut copies its counts and allocates only when the arena doubles —
/// never per entry.
///
/// # Examples
///
/// ```
/// use slicing_computation::{Cut, CutSet};
///
/// let mut seen = CutSet::new(3);
/// assert!(seen.insert(&Cut::bottom(3)));
/// assert!(!seen.insert(&Cut::bottom(3))); // already present
/// assert!(seen.contains(&Cut::bottom(3)));
/// assert_eq!(seen.len(), 1);
/// assert_eq!(seen.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CutSet {
    pool: Pool,
}

impl CutSet {
    /// An empty set for cuts spanning `num_processes` processes.
    pub fn new(num_processes: usize) -> Self {
        CutSet {
            pool: Pool::new(num_processes),
        }
    }

    /// An empty set that refuses inserts past `max_entries` cuts.
    ///
    /// Inserts at the ceiling are dropped (they return `false`/`None` as
    /// if nothing happened) and latch [`saturated`](CutSet::saturated);
    /// the search engines translate that flag into a budget-exhausted
    /// abort rather than ever producing a wrong answer. The default
    /// ceiling is `u32::MAX - 1`, the last arena index distinguishable
    /// from the empty-slot sentinel; tests mock a tiny ceiling to
    /// exercise the guard.
    pub fn with_max_entries(num_processes: usize, max_entries: u32) -> Self {
        CutSet {
            pool: Pool::with_max_entries(num_processes, max_entries),
        }
    }

    /// `true` once an insert was refused because the set reached its
    /// entry ceiling. Latched until [`reset`](CutSet::reset).
    pub fn saturated(&self) -> bool {
        self.pool.saturated
    }

    /// Inserts the cut; `true` if it was not yet present.
    #[inline]
    pub fn insert(&mut self, cut: &Cut) -> bool {
        self.insert_counts(cut.counts())
    }

    /// Inserts a cut given as its raw count slice.
    #[inline]
    pub fn insert_counts(&mut self, counts: &[u32]) -> bool {
        match self.pool.find(counts) {
            Ok(_) => {
                self.pool.stats.hits += 1;
                false
            }
            Err(slot) => self.pool.push(counts, slot) != EMPTY,
        }
    }

    /// Inserts the cut, returning its arena index if it was newly added.
    ///
    /// Arena indices are dense (0, 1, 2, … in insertion order) and stable:
    /// growth rebuilds only the slot table, never moves payloads. Search
    /// frontiers queue these 4-byte indices instead of whole cuts and
    /// reread the counts through [`counts_at`](CutSet::counts_at).
    #[inline]
    pub fn insert_indexed(&mut self, cut: &Cut) -> Option<u32> {
        let counts = cut.counts();
        match self.pool.find(counts) {
            Ok(_) => {
                self.pool.stats.hits += 1;
                None
            }
            Err(slot) => match self.pool.push(counts, slot) {
                EMPTY => None,
                idx => Some(idx),
            },
        }
    }

    /// The count slice of the entry at `idx` (an index returned by
    /// [`insert_indexed`](CutSet::insert_indexed)).
    #[inline]
    pub fn counts_at(&self, idx: u32) -> &[u32] {
        self.pool.entry(idx)
    }

    /// `true` if the cut is present.
    pub fn contains(&self, cut: &Cut) -> bool {
        self.get_index(cut.counts()).is_some()
    }

    /// Looks up a cut by its raw count slice, returning its arena index if
    /// present — the index [`insert_indexed`](CutSet::insert_indexed)
    /// returned when the cut was stored, i.e. its insertion rank.
    ///
    /// Read-only (no `&mut`, no stats): a lookup outside an insert (the
    /// recovery line finds the duplicate an insert refused) leaves the
    /// probe counters meaning "insertion effort".
    #[inline]
    pub fn get_index(&self, counts: &[u32]) -> Option<u32> {
        debug_assert_eq!(counts.len(), self.pool.width);
        let mut slot = hash_counts(counts) as usize & self.pool.mask;
        loop {
            let idx = self.pool.table[slot];
            if idx == EMPTY {
                return None;
            }
            if self.pool.entry(idx) == counts {
                return Some(idx);
            }
            slot = (slot + 1) & self.pool.mask;
        }
    }

    /// Empties the set while keeping its allocations, so the next fill of
    /// similar size performs no heap traffic. Stats stay cumulative.
    /// The level-order search resets the arena of each finished layer and
    /// refills it with the layer after next.
    pub fn reset(&mut self) {
        self.pool.reset();
    }

    /// Number of distinct cuts stored.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// `true` if no cut was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic probe/hit/insert counters since construction.
    pub fn stats(&self) -> CutSetStats {
        self.pool.stats
    }

    /// Actual heap footprint (arena + slot table), for memory accounting.
    pub fn approx_bytes(&self) -> usize {
        self.pool.approx_bytes()
    }
}

/// A pooled map from cuts to one `u64` of per-state search metadata (the
/// partial-order engine's sleep masks): the drop-in replacement for
/// `HashMap<Cut, u64>`.
#[derive(Debug, Clone)]
pub struct CutMap64 {
    pool: Pool,
    values: Vec<u64>,
    /// Scratch value handed out when an insert is refused at the entry
    /// ceiling, so `insert_or_get` keeps its signature on the guard path.
    overflow: u64,
}

impl CutMap64 {
    /// An empty map for cuts spanning `num_processes` processes.
    pub fn new(num_processes: usize) -> Self {
        CutMap64::with_max_entries(num_processes, MAX_ENTRIES)
    }

    /// An empty map that refuses inserts past `max_entries` cuts; see
    /// [`CutSet::with_max_entries`].
    pub fn with_max_entries(num_processes: usize, max_entries: u32) -> Self {
        CutMap64 {
            pool: Pool::with_max_entries(num_processes, max_entries),
            values: Vec::new(),
            overflow: 0,
        }
    }

    /// `true` once an insert was refused because the map reached its
    /// entry ceiling.
    pub fn saturated(&self) -> bool {
        self.pool.saturated
    }

    /// Looks up the cut, inserting `default` if absent. Returns whether
    /// the cut was newly inserted, and the (mutable) stored value.
    ///
    /// At the entry ceiling the cut is *not* stored: the call returns
    /// `(false, scratch)` where the scratch value reads as `default`, and
    /// [`saturated`](CutMap64::saturated) latches so the caller can abort
    /// with a budget verdict instead of computing on a lie.
    #[inline]
    pub fn insert_or_get(&mut self, cut: &Cut, default: u64) -> (bool, &mut u64) {
        match self.pool.find(cut.counts()) {
            Ok(idx) => {
                self.pool.stats.hits += 1;
                (false, &mut self.values[idx as usize])
            }
            Err(slot) => match self.pool.push(cut.counts(), slot) {
                EMPTY => {
                    self.overflow = default;
                    (false, &mut self.overflow)
                }
                idx => {
                    debug_assert_eq!(idx as usize, self.values.len());
                    self.values.push(default);
                    (true, &mut self.values[idx as usize])
                }
            },
        }
    }

    /// Number of distinct cuts stored.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// `true` if no cut was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic probe/hit/insert counters since construction.
    pub fn stats(&self) -> CutSetStats {
        self.pool.stats
    }

    /// Actual heap footprint (arena + slot table + values).
    pub fn approx_bytes(&self) -> usize {
        self.pool.approx_bytes() + 8 * self.values.capacity()
    }
}

/// Empty-slot marker in the packed tables: unreachable as a key because
/// [`CutPacking`](crate::CutPacking) leaves the top bit clear.
const EMPTY_PACKED: u64 = u64::MAX;

/// Open-addressing core shared by [`PackedCutSet`] and [`PackedCutMap64`]:
/// packed cut keys ([`CutPacking`](crate::CutPacking)) stored in the
/// slots themselves, each beside one `V`, linearly probed at a load of at
/// most 1/2. A membership check touches one table and no arena.
#[derive(Debug, Clone)]
struct PackedTable<V> {
    slots: Vec<(u64, V)>,
    mask: usize,
    len: u32,
    stats: CutSetStats,
}

impl<V: Copy + Default> PackedTable<V> {
    fn new() -> Self {
        const INITIAL_SLOTS: usize = 64;
        PackedTable {
            slots: vec![(EMPTY_PACKED, V::default()); INITIAL_SLOTS],
            mask: INITIAL_SLOTS - 1,
            len: 0,
            stats: CutSetStats::default(),
        }
    }

    /// Finds `key`: `Ok(slot)` if present (a hit), `Err(slot)` at the
    /// first empty slot otherwise. Counts one probe per slot inspected.
    #[inline]
    fn find(&mut self, key: u64) -> Result<usize, usize> {
        debug_assert_ne!(key, EMPTY_PACKED);
        let mut slot = hash_packed(key) as usize & self.mask;
        loop {
            self.stats.probes += 1;
            let k = self.slots[slot].0;
            if k == EMPTY_PACKED {
                return Err(slot);
            }
            if k == key {
                self.stats.hits += 1;
                return Ok(slot);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Fills the empty `slot` found for `key`, grows the table if that
    /// took it past 1/2 load (the same cap as `Pool`: linear probing
    /// degrades past it), and returns the slot the entry then holds.
    #[inline]
    fn fill(&mut self, slot: usize, key: u64, value: V) -> usize {
        self.slots[slot] = (key, value);
        self.len += 1;
        self.stats.inserts += 1;
        if (self.len as usize + 1) * 2 > self.slots.len() {
            return self.grow_holding(key);
        }
        slot
    }

    /// [`grow`](Self::grow), then the slot `key` (present) moved to.
    #[cold]
    #[inline(never)]
    fn grow_holding(&mut self, key: u64) -> usize {
        self.grow();
        let mut slot = hash_packed(key) as usize & self.mask;
        while self.slots[slot].0 != key {
            slot = (slot + 1) & self.mask;
        }
        slot
    }

    fn clear(&mut self) {
        self.slots.fill((EMPTY_PACKED, V::default()));
        self.len = 0;
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of::<(u64, V)>() * self.slots.capacity()
    }

    /// Doubles the table in place. Every key lands where a rebuild would
    /// put it — the old slots' keys, in slot order, each inserted into an
    /// empty table of twice the size — so the probe counters do not
    /// depend on how the table grew. The slot vector is reallocated, not
    /// copied into a second one, so the allocator may extend or remap it
    /// instead of holding both tables at once.
    fn grow(&mut self) {
        let old = self.slots.len();
        self.slots.resize(2 * old, (EMPTY_PACKED, V::default()));
        self.mask = 2 * old - 1;
        // Slots holding a key already re-placed.
        let mut placed = vec![0u64; 2 * old / 64];
        let is_placed = |placed: &[u64], s: usize| placed[s / 64] >> (s % 64) & 1 == 1;
        // Keys a re-placed key pushed out before their turn, as (old slot,
        // slot they wait in). Only a cluster that wrapped past the end of
        // the old table produces any.
        let mut waiting: Vec<(usize, usize)> = Vec::new();
        for j in 0..old {
            let at = match waiting.iter().position(|&(from, _)| from == j) {
                Some(w) => waiting.swap_remove(w).1,
                None if self.slots[j].0 == EMPTY_PACKED || is_placed(&placed, j) => continue,
                None => j,
            };
            let entry = self.slots[at];
            let mut slot = hash_packed(entry.0) as usize & self.mask;
            while is_placed(&placed, slot) {
                slot = (slot + 1) & self.mask;
            }
            placed[slot / 64] |= 1 << (slot % 64);
            if slot == at {
                continue;
            }
            let evicted = std::mem::replace(&mut self.slots[slot], entry);
            self.slots[at] = evicted;
            if evicted.0 != EMPTY_PACKED {
                match waiting.iter_mut().find(|w| w.1 == slot) {
                    Some(w) => w.1 = at,
                    None => waiting.push((slot, at)),
                }
            }
        }
    }
}

/// A flat open-addressed set of packed cut keys
/// ([`CutPacking`](crate::CutPacking)), the layer-local store of the
/// level-order search: with the cut packed into the slot itself, a
/// membership check touches one table and no arena.
///
/// There is no entry budget: the caller owns the lifecycle.
/// [`clear`](PackedCutSet::clear) empties the table while keeping its
/// capacity, so a layer-synchronous search
/// reuses one warm allocation across every layer. The probe/hit/insert
/// counters accumulate across clears — they describe the whole run, not
/// one layer — and are exact functions of the insert sequence, like every
/// pooled container here.
///
/// # Examples
///
/// ```
/// use slicing_computation::PackedCutSet;
///
/// let mut layer = PackedCutSet::new();
/// assert!(layer.insert(0b10_01)); // packed cut ⟨1, 2⟩
/// assert!(!layer.insert(0b10_01));
/// layer.clear(); // next layer: capacity kept, keys gone
/// assert!(layer.insert(0b10_01));
/// assert_eq!(layer.stats().inserts, 2);
/// ```
#[derive(Debug, Clone)]
pub struct PackedCutSet {
    table: PackedTable<()>,
}

impl PackedCutSet {
    /// An empty set.
    pub fn new() -> Self {
        PackedCutSet {
            table: PackedTable::new(),
        }
    }

    /// Inserts the key; `true` if it was newly added. Counts one probe
    /// per slot inspected, like [`CutSet`].
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        match self.table.find(key) {
            Ok(_) => false,
            Err(slot) => {
                self.table.fill(slot, key, ());
                true
            }
        }
    }

    /// Empties the set, keeping the table allocation (and the cumulative
    /// counters).
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> u32 {
        self.table.len
    }

    /// `true` if no key is stored.
    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// Deterministic probe/hit/insert counters, cumulative across
    /// [`clear`](PackedCutSet::clear)s.
    pub fn stats(&self) -> CutSetStats {
        self.table.stats
    }

    /// Actual heap footprint of the table.
    pub fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

impl Default for PackedCutSet {
    fn default() -> Self {
        Self::new()
    }
}

/// A flat open-addressed map from packed cut keys
/// ([`CutPacking`](crate::CutPacking)) to one `u64` each: the
/// partial-order engine's visited states and their sleep masks, with the
/// same entry ceiling, scratch-on-refusal contract and counters as
/// [`CutMap64`], keyed by one word instead of a count slice.
///
/// # Examples
///
/// ```
/// use slicing_computation::PackedCutMap64;
///
/// let mut visited = PackedCutMap64::new();
/// let (new, sleep) = visited.insert_or_get(0b10_01, 0b10);
/// assert!(new);
/// *sleep &= 0b00;
/// let (new, sleep) = visited.insert_or_get(0b10_01, 0b11);
/// assert!(!new);
/// assert_eq!(*sleep, 0);
/// assert_eq!((visited.len(), visited.stats().hits), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct PackedCutMap64 {
    table: PackedTable<u64>,
    /// Entry ceiling (≤ `u32::MAX - 1`); inserts at the ceiling are
    /// refused and latch `saturated`.
    max_entries: u32,
    saturated: bool,
    /// Scratch value handed out when an insert is refused at the entry
    /// ceiling, as in [`CutMap64`].
    overflow: u64,
}

impl PackedCutMap64 {
    /// An empty map.
    pub fn new() -> Self {
        PackedCutMap64::with_max_entries(MAX_ENTRIES)
    }

    /// An empty map that refuses inserts past `max_entries` keys; see
    /// [`CutSet::with_max_entries`].
    pub fn with_max_entries(max_entries: u32) -> Self {
        PackedCutMap64 {
            table: PackedTable::new(),
            max_entries: max_entries.min(MAX_ENTRIES),
            saturated: false,
            overflow: 0,
        }
    }

    /// `true` once an insert was refused because the map reached its
    /// entry ceiling.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Looks up the key, inserting `default` if absent. Returns whether
    /// the key was newly inserted, and the (mutable) stored value.
    ///
    /// At the entry ceiling the key is *not* stored: the call returns
    /// `(false, scratch)` where the scratch value reads as `default`, and
    /// [`saturated`](PackedCutMap64::saturated) latches.
    #[inline]
    pub fn insert_or_get(&mut self, key: u64, default: u64) -> (bool, &mut u64) {
        match self.table.find(key) {
            Ok(slot) => (false, &mut self.table.slots[slot].1),
            Err(_) if self.table.len >= self.max_entries => {
                self.saturated = true;
                self.overflow = default;
                (false, &mut self.overflow)
            }
            Err(slot) => {
                let slot = self.table.fill(slot, key, default);
                (true, &mut self.table.slots[slot].1)
            }
        }
    }

    /// Number of distinct keys stored.
    pub fn len(&self) -> usize {
        self.table.len as usize
    }

    /// `true` if no key was inserted yet.
    pub fn is_empty(&self) -> bool {
        self.table.len == 0
    }

    /// Deterministic probe/hit/insert counters since construction.
    pub fn stats(&self) -> CutSetStats {
        self.table.stats
    }
}

impl Default for PackedCutMap64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn key(seed: u64, width: usize, i: u64) -> Cut {
        // Deterministic pseudo-random count vectors with many collisions.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        let counts: Vec<u32> = (0..width)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + (x % 4) as u32
            })
            .collect();
        Cut::from(counts)
    }

    #[test]
    fn matches_std_hashset_across_widths() {
        for width in [1usize, 2, 5, 15, 16, 17, 24] {
            let mut pooled = CutSet::new(width);
            let mut std_set: HashSet<Cut> = HashSet::new();
            for i in 0..500 {
                let c = key(width as u64, width, i % 170);
                assert_eq!(
                    pooled.insert(&c),
                    std_set.insert(c.clone()),
                    "width {width} i {i}"
                );
                assert!(pooled.contains(&c));
            }
            assert_eq!(pooled.len(), std_set.len(), "width {width}");
            assert!(!pooled.contains(&Cut::from(vec![99; width])));
        }
    }

    #[test]
    fn growth_preserves_membership() {
        let mut set = CutSet::new(2);
        let mut inserted = Vec::new();
        for a in 1..60u32 {
            for b in 1..60u32 {
                let c = Cut::from(vec![a, b]);
                assert!(set.insert(&c));
                inserted.push(c);
            }
        }
        assert_eq!(set.len(), 59 * 59);
        for c in &inserted {
            assert!(set.contains(c));
            assert!(!set.insert(c));
        }
    }

    #[test]
    fn stats_are_deterministic_and_meaningful() {
        let run = || {
            let mut set = CutSet::new(3);
            for i in 0..100 {
                set.insert(&key(7, 3, i % 40));
            }
            set.stats()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.inserts, a.inserts.min(40));
        assert_eq!(a.hits, 100 - a.inserts);
        assert!(a.probes >= 100);
    }

    #[test]
    fn map_stores_and_updates_values() {
        let mut map = CutMap64::new(2);
        let c = Cut::from(vec![1, 2]);
        let (new, v) = map.insert_or_get(&c, 0b1010);
        assert!(new);
        assert_eq!(*v, 0b1010);
        *v = 0b0010;
        let (new, v) = map.insert_or_get(&c, 0b1111);
        assert!(!new);
        assert_eq!(*v, 0b0010);
        assert_eq!(map.len(), 1);
        assert!(!map.is_empty());
        assert_eq!(map.stats().hits, 1);
        // Survives growth.
        for i in 0..500u32 {
            map.insert_or_get(&Cut::from(vec![10 + i, 1]), u64::from(i));
        }
        for i in 0..500u32 {
            let (new, v) = map.insert_or_get(&Cut::from(vec![10 + i, 1]), 0);
            assert!(!new);
            assert_eq!(*v, u64::from(i), "value survived growth");
        }
        assert_eq!(*map.insert_or_get(&c, 9).1, 0b0010);
    }

    #[test]
    fn hasher_streams_like_slice_hash() {
        use std::hash::{BuildHasher, Hasher};
        // CutBuildHasher is usable as a HashMap hasher and discriminates.
        let h = |counts: &[u32]| CutBuildHasher.hash_one(counts);
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 4]));
        assert_ne!(h(&[1, 2]), h(&[1, 2, 0]));
        assert_eq!(h(&[5, 6, 7]), h(&[5, 6, 7]));
        // Byte-stream writes cover the generic write() path.
        let mut a = CutHasher::default();
        a.write(b"0123456789abcdef");
        let mut b = CutHasher::default();
        b.write(b"0123456789abcdeX");
        assert_ne!(a.finish(), b.finish());
        let mut c = CutHasher::default();
        c.write_u8(1);
        c.write_u64(2);
        assert_ne!(c.finish(), 0);
    }

    #[test]
    fn hash_counts_covers_odd_and_even_widths() {
        assert_ne!(hash_counts(&[1, 2, 3]), hash_counts(&[1, 2]));
        assert_ne!(hash_counts(&[1, 2, 3]), hash_counts(&[3, 2, 1]));
        assert_eq!(hash_counts(&[4, 4, 4, 4]), hash_counts(&[4, 4, 4, 4]));
        // Length is mixed in: a zero tail is not the same key.
        assert_ne!(hash_counts(&[]), hash_counts(&[0]));
    }

    #[test]
    fn get_index_reports_insertion_rank() {
        let mut set = CutSet::new(3);
        let cuts: Vec<Cut> = (0..40).map(|i| key(11, 3, i)).collect();
        let mut expect = Vec::new();
        for c in &cuts {
            if let Some(idx) = set.insert_indexed(c) {
                expect.push((c.clone(), idx));
            }
        }
        let probes_before = set.stats().probes;
        for (c, idx) in &expect {
            assert_eq!(set.get_index(c.counts()), Some(*idx));
            assert_eq!(set.counts_at(*idx), c.counts());
        }
        assert_eq!(set.get_index(Cut::from(vec![77, 77, 77]).counts()), None);
        // Read-only probes leave the effort counters untouched.
        assert_eq!(set.stats().probes, probes_before);
    }

    #[test]
    fn reset_keeps_capacity_and_clears_membership() {
        let mut set = CutSet::new(2);
        for a in 1..40u32 {
            for b in 1..40u32 {
                set.insert(&Cut::from(vec![a, b]));
            }
        }
        let filled_bytes = set.approx_bytes();
        let inserts_before = set.stats().inserts;
        set.reset();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&Cut::from(vec![1, 1])));
        // Capacity survives: the emptied set still owns its buffers, and
        // refilling to the same occupancy neither grows nor shrinks them.
        assert_eq!(set.approx_bytes(), filled_bytes);
        for a in 1..40u32 {
            for b in 1..40u32 {
                assert!(set.insert(&Cut::from(vec![a, b])), "fresh after reset");
            }
        }
        assert_eq!(set.approx_bytes(), filled_bytes);
        assert_eq!(set.len(), 39 * 39);
        // Stats are cumulative across resets.
        assert!(set.stats().inserts >= inserts_before * 2);
        // Indices restart from zero after a reset.
        set.reset();
        assert_eq!(set.insert_indexed(&Cut::from(vec![9, 9])), Some(0));
    }

    #[test]
    fn reset_handles_width_zero() {
        let mut set = CutSet::new(0);
        assert!(set.insert(&Cut::from(Vec::new())));
        assert_eq!(set.len(), 1);
        set.reset();
        assert_eq!(set.len(), 0);
        assert!(set.insert(&Cut::from(Vec::new())));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn saturation_refuses_inserts_instead_of_wrapping() {
        // A mocked 3-entry ceiling stands in for the real u32::MAX - 1
        // one: the 4th distinct cut must be refused, never aliased onto
        // the EMPTY sentinel.
        let mut set = CutSet::with_max_entries(2, 3);
        for a in 1..=3u32 {
            assert!(set.insert(&Cut::from(vec![a, 1])));
            assert!(!set.saturated());
        }
        assert!(!set.insert(&Cut::from(vec![4, 1])), "insert at cap");
        assert!(set.saturated());
        assert_eq!(set.insert_indexed(&Cut::from(vec![5, 1])), None);
        assert_eq!(set.len(), 3);
        // The refused cuts were dropped, not stored under a bogus index.
        assert!(!set.contains(&Cut::from(vec![4, 1])));
        assert!(!set.contains(&Cut::from(vec![5, 1])));
        // Existing entries stay intact and re-findable.
        for a in 1..=3u32 {
            assert!(set.contains(&Cut::from(vec![a, 1])));
            assert!(!set.insert(&Cut::from(vec![a, 1])));
        }
        // Reset clears the latch along with membership.
        set.reset();
        assert!(!set.saturated());
        assert!(set.insert(&Cut::from(vec![4, 1])));
    }

    #[test]
    fn saturated_map_hands_out_scratch_values() {
        let mut map = CutMap64::with_max_entries(2, 2);
        *map.insert_or_get(&Cut::from(vec![1, 1]), 10).1 = 11;
        *map.insert_or_get(&Cut::from(vec![2, 1]), 20).1 = 21;
        assert!(!map.saturated());
        // Third distinct cut: refused, scratch reads as the default.
        let (new, v) = map.insert_or_get(&Cut::from(vec![3, 1]), 30);
        assert!(!new);
        assert_eq!(*v, 30);
        assert!(map.saturated());
        assert_eq!(map.len(), 2);
        // Stored values are untouched by the overflow traffic.
        assert_eq!(*map.insert_or_get(&Cut::from(vec![1, 1]), 0).1, 11);
        assert_eq!(*map.insert_or_get(&Cut::from(vec![2, 1]), 0).1, 21);
    }

    #[test]
    fn empty_set_and_bytes() {
        let set = CutSet::new(4);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(&Cut::bottom(4)));
        assert!(set.approx_bytes() > 0);
        let map = CutMap64::new(4);
        assert!(map.is_empty());
        assert!(map.approx_bytes() > 0);
    }

    /// A deterministic pseudo-random key stream with duplicates.
    fn key_stream(len: u64) -> impl Iterator<Item = u64> {
        (0..len).map(|i| {
            let x = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 24) % 500 // collide often enough to exercise hits
        })
    }

    #[test]
    fn packed_set_matches_std_hashset_through_growth() {
        let mut packed = PackedCutSet::new();
        let mut reference = std::collections::HashSet::new();
        for key in key_stream(2000) {
            assert_eq!(packed.insert(key), reference.insert(key), "key {key}");
        }
        assert_eq!(u64::from(packed.len()), reference.len() as u64);
        let stats = packed.stats();
        assert_eq!(stats.inserts, reference.len() as u64);
        assert_eq!(stats.hits, 2000 - reference.len() as u64);
        assert!(stats.probes >= 2000, "every insert probes at least once");
        assert!(packed.approx_bytes() >= reference.len() * 8);
    }

    #[test]
    fn packed_set_clear_keeps_capacity_and_accumulates_stats() {
        let mut packed = PackedCutSet::new();
        for key in 0..300u64 {
            assert!(packed.insert(key * 3));
        }
        let bytes_before = packed.approx_bytes();
        let inserts_before = packed.stats().inserts;
        packed.clear();
        assert!(packed.is_empty());
        assert_eq!(packed.approx_bytes(), bytes_before, "clear must keep slots");
        // Re-inserting the same keys counts as fresh inserts: membership
        // is per-generation, statistics are per-lifetime.
        for key in 0..300u64 {
            assert!(packed.insert(key * 3), "cleared key readmitted");
        }
        assert_eq!(packed.stats().inserts, inserts_before * 2);
        assert_eq!(PackedCutSet::default().len(), 0);
    }

    /// The packed table as it grew before growth moved in place: insert,
    /// then rebuild into a fresh table of twice the size past 1/2 load.
    struct RebuiltTable {
        slots: Vec<u64>,
        probes: u64,
    }

    impl RebuiltTable {
        fn insert(&mut self, key: u64) {
            let mask = self.slots.len() - 1;
            let mut slot = hash_packed(key) as usize & mask;
            loop {
                self.probes += 1;
                match self.slots[slot] {
                    k if k == key => return,
                    EMPTY_PACKED => break,
                    _ => slot = (slot + 1) & mask,
                }
            }
            self.slots[slot] = key;
            let len = self.slots.iter().filter(|&&k| k != EMPTY_PACKED).count();
            if (len + 1) * 2 > self.slots.len() {
                let old = std::mem::replace(&mut self.slots, vec![EMPTY_PACKED; 2 * (mask + 1)]);
                for k in old.into_iter().filter(|&k| k != EMPTY_PACKED) {
                    let mut slot = hash_packed(k) as usize & (2 * mask + 1);
                    while self.slots[slot] != EMPTY_PACKED {
                        slot = (slot + 1) & (2 * mask + 1);
                    }
                    self.slots[slot] = k;
                }
            }
        }
    }

    #[test]
    fn growth_in_place_lays_keys_out_as_a_rebuild() {
        // The level-order search's gated probe counts depend on the slot
        // layout, so doubling in place must reproduce the rebuild's layout
        // exactly, wrapped clusters included.
        for seed in 0..20u64 {
            let mut packed = PackedCutSet::new();
            let mut rebuilt = RebuiltTable {
                slots: vec![EMPTY_PACKED; 64],
                probes: 0,
            };
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..3000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = (x >> 1) % 5000;
                packed.insert(key);
                rebuilt.insert(key);
                let keys: Vec<u64> = packed.table.slots.iter().map(|s| s.0).collect();
                if keys.len() == rebuilt.slots.len() {
                    assert_eq!(keys, rebuilt.slots, "seed {seed}");
                }
                assert_eq!(packed.stats().probes, rebuilt.probes, "seed {seed}");
            }
        }
    }

    #[test]
    fn packed_map_keeps_values_through_growth_and_refuses_at_the_ceiling() {
        let mut map = PackedCutMap64::new();
        for key in 0..2000u64 {
            let (new, v) = map.insert_or_get(key * 7, key);
            assert!(new);
            assert_eq!(*v, key);
        }
        for key in 0..2000u64 {
            let (new, v) = map.insert_or_get(key * 7, 0);
            assert!(!new);
            assert_eq!(*v, key, "value survived growth");
            *v = key + 1;
        }
        assert_eq!(*map.insert_or_get(14, 0).1, 3);
        let stats = map.stats();
        assert_eq!((stats.inserts, stats.hits), (2000, 2001));
        assert_eq!(map.len(), 2000);

        let mut capped = PackedCutMap64::with_max_entries(2);
        *capped.insert_or_get(1, 10).1 = 11;
        *capped.insert_or_get(2, 20).1 = 21;
        assert!(!capped.saturated());
        // Third distinct key: refused, scratch reads as the default.
        let (new, v) = capped.insert_or_get(3, 30);
        assert!(!new);
        assert_eq!(*v, 30);
        assert!(capped.saturated());
        assert_eq!(capped.len(), 2);
        assert_eq!(*capped.insert_or_get(1, 0).1, 11);
        assert_eq!(*capped.insert_or_get(2, 0).1, 21);
        assert!(PackedCutMap64::default().is_empty());
    }

    #[test]
    fn hash_packed_spreads_keys_over_the_low_slot_bits() {
        // PackedCutSet indexes its slots with the low hash bits, so keys
        // that differ only in one lane — the first (low key bits) or a
        // high one — must spread over the 64 slots of a fresh table
        // rather than cluster.
        for shift in [0u32, 40] {
            let slots: std::collections::HashSet<u64> = (0..256u64)
                .map(|lane| hash_packed(lane << shift) & 63)
                .collect();
            assert!(
                slots.len() >= 56,
                "shift {shift}: only {} slots",
                slots.len()
            );
        }
        // And the hash is a pure function of the key.
        assert_eq!(hash_packed(77), hash_packed(77));
        assert_ne!(hash_packed(77), hash_packed(78));
    }
}
