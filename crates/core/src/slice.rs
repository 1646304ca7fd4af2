//! The slice data structure: a constraint graph over a computation's events
//! whose consistent cuts form a sublattice of the computation's cut lattice.

use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use slicing_computation::graph::{Digraph, SccScratch};
use slicing_computation::{Computation, Cut, CutPacking, CutSpace, EventId, ProcessId};

/// A node of the slice constraint graph: an event, or the virtual top ⊤.
///
/// The paper's model adds fictitious final events ⊤ᵢ so that "no consistent
/// cut of the slice contains event `e`" is expressible as the edge ⊤ → e.
/// We keep a single virtual ⊤ node instead of materializing per-process
/// final events; the semantics are identical because all final events
/// belong to one strongly connected component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// A real event.
    Event(EventId),
    /// The virtual final meta-event ⊤ (never inside a non-trivial cut).
    Top,
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Event(e) => write!(f, "{e}"),
            Node::Top => f.write_str("⊤"),
        }
    }
}

/// A constraint edge `(u, v)`: any consistent cut containing `v` must also
/// contain `u`.
pub type Edge = (Node, Node);

/// Sentinel index: the event is in no non-trivial slice cut.
const NO_CUT: u32 = u32::MAX;

/// Within-cut successor dedup width: frontier processes whose next events
/// share a J index produce *identical* successors, so the first
/// `DEDUP_WIDTH` distinct indices of a call are tracked on the stack and
/// repeats skipped before any join or hash work happens. Calls that see
/// more distinct indices emit the (harmless, caller-deduped) extras.
const DEDUP_WIDTH: usize = 32;

/// The J tables behind a slice: one cut payload per live strongly connected
/// component, plus the per-event index into that pool.
///
/// This is the kernelized layout that replaced one `Option<Arc<Cut>>` per
/// event: events of an SCC share a dense `u32` index instead of an `Arc`,
/// the payloads live contiguously (inline in the `Cut` for ≤16 processes —
/// no heap indirection at all on the hot path), and cloning a slice bumps
/// one reference count on the whole table.
struct JTables {
    /// Distinct least-cut payloads, one per SCC that appears in some
    /// non-trivial slice cut.
    cuts: Vec<Cut>,
    /// Per event: index into `cuts`, or [`NO_CUT`].
    ix: Vec<u32>,
    /// Per J index: the number of events in its meta-event. `C ∨ J(e)` is
    /// an upper cover of `C` exactly when it grows `C` by this many events.
    meta_len: Vec<u32>,
    /// Successor lookup table, flattened per process: entry
    /// `next_j[proc_off[p] + (count - 1)]` is the J index of the next
    /// event of process `p` at cut count `count` (the event at position
    /// `count`), or [`NO_CUT`] when the process is exhausted or the event
    /// forbidden. One load replaces the `event_at` → `ix` chain in the
    /// successor hot loop.
    next_j: Vec<u32>,
    /// Per-process offsets into `next_j` (`n + 1` entries).
    proc_off: Vec<u32>,
    /// Index of the least non-trivial slice cut, or [`NO_CUT`] if the
    /// slice is empty.
    bottom_ix: u32,
}

/// A slice of a computation: the computation's events plus *constraint
/// edges*, whose consistent cuts are exactly the non-trivial consistent
/// cuts of the computation that respect every edge.
///
/// For a predicate `b`, the slicing algorithms construct edges such that
/// the resulting cut set is the **smallest sublattice** of the cut lattice
/// containing every cut satisfying `b` (Definition 1 of the paper). For
/// regular predicates the slice is *lean*: it contains exactly the
/// satisfying cuts.
///
/// Internally a slice precomputes, for every event `e`, the least slice cut
/// `J(e)` containing `e` (or `None` if no slice cut contains `e`), by
/// condensing the constraint graph (base happened-before edges + constraint
/// edges + the initial-event cycle) and propagating join-irreducible
/// contributions in topological order. Searching the slice then joins a
/// cut with `J(e)` for the next event `e` of each process and keeps the
/// joins that add exactly `e`'s meta-event — the upper covers, so the
/// slice lattice is graded by meta-event count. Each successor step is
/// `O(n)`.
///
/// Construction runs on a warm per-thread workspace (flat edge list, CSR
/// Tarjan via [`SccScratch`], one `u32` row per SCC): repeated slicing —
/// grafting, `detect_resilient`, the monitor — reuses every buffer and
/// performs no cut heap allocation for inline-width computations.
///
/// # Examples
///
/// ```
/// use slicing_computation::test_fixtures::figure1;
/// use slicing_computation::lattice::count_cuts;
/// use slicing_predicates::{Conjunctive, LocalPredicate};
/// use slicing_core::slice_conjunctive;
///
/// let comp = figure1();
/// let x1 = comp.var(comp.process(0), "x1").unwrap();
/// let x3 = comp.var(comp.process(2), "x3").unwrap();
/// let pred = Conjunctive::new(vec![
///     LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
///     LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
/// ]);
/// let slice = slice_conjunctive(&comp, &pred);
/// // 28 cuts in the computation, 6 in the slice (Figure 1).
/// assert_eq!(count_cuts(&comp, None).value(), 28);
/// assert_eq!(count_cuts(&slice, None).value(), 6);
/// ```
#[derive(Clone)]
pub struct Slice<'a> {
    comp: &'a Computation,
    edges: Vec<Edge>,
    /// Shared J tables: cloning a slice is one reference-count bump, never
    /// a cut copy.
    tables: Arc<JTables>,
    /// Lazily packed J-cut keys for the all-packed successor stream
    /// ([`CutSpace::for_each_successor_packed`]), built on first use.
    packed_j: std::sync::OnceLock<PackedJ>,
}

/// The packed twin of [`JTables::cuts`]: each J cut as a `u64` key under
/// the searcher's [`CutPacking`], plus the plan's lane geometry so a
/// mismatched plan is detected and refused.
#[derive(Debug, Clone)]
struct PackedJ {
    lane_bits: u32,
    rows: Vec<u64>,
}

impl<'a> Slice<'a> {
    /// Builds a slice from constraint edges.
    ///
    /// The base happened-before edges of the computation are always
    /// implied and need not be listed.
    pub fn new(comp: &'a Computation, edges: Vec<Edge>) -> Self {
        let tables = Arc::new(compute_j_table(comp, &edges));
        Slice {
            comp,
            edges,
            tables,
            packed_j: std::sync::OnceLock::new(),
        }
    }

    /// The slice with no extra constraints: its cuts are exactly the
    /// computation's non-trivial consistent cuts.
    pub fn full(comp: &'a Computation) -> Self {
        Slice::new(comp, Vec::new())
    }

    /// The empty slice: no non-trivial consistent cuts at all (the slice of
    /// an unsatisfiable predicate).
    pub fn empty(comp: &'a Computation) -> Self {
        Slice::new(comp, vec![empty_slice_edge(comp)])
    }

    /// The underlying computation.
    pub fn computation(&self) -> &'a Computation {
        self.comp
    }

    /// The constraint edges (excluding the implied base edges).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// `true` if the slice has no non-trivial consistent cuts.
    pub fn is_empty_slice(&self) -> bool {
        self.tables.bottom_ix == NO_CUT
    }

    /// The least non-trivial consistent cut of the slice, if any.
    pub fn bottom_cut(&self) -> Option<&Cut> {
        self.cut_at(self.tables.bottom_ix)
    }

    /// The least slice cut containing event `e`, or `None` if no
    /// non-trivial slice cut contains `e` (the paper's `J_b(e) = E` case).
    pub fn least_cut(&self, e: EventId) -> Option<&Cut> {
        self.cut_at(self.tables.ix[e.as_usize()])
    }

    #[inline]
    fn cut_at(&self, ix: u32) -> Option<&Cut> {
        if ix == NO_CUT {
            None
        } else {
            Some(&self.tables.cuts[ix as usize])
        }
    }

    /// Number of distinct least-cut payloads (one per SCC that appears in
    /// some slice cut) — events of a meta-event share one payload.
    pub fn distinct_j_cuts(&self) -> usize {
        self.tables.cuts.len()
    }

    /// Checks whether `cut` is a consistent cut of the slice.
    pub fn contains_cut(&self, cut: &Cut) -> bool {
        if !self.comp.is_consistent(cut) {
            return false;
        }
        // Frontier events suffice: J is monotone along process order.
        self.comp.processes().all(|p| {
            let frontier = self.comp.frontier(cut, p);
            match self.least_cut(frontier) {
                Some(j) => j.leq(cut),
                None => false,
            }
        })
    }

    /// The meta-events of the slice: maximal sets of events that appear in
    /// slice cuts only together (strongly connected components of the
    /// constraint graph), restricted to events that appear in some slice
    /// cut. Returned in topological order of the condensation.
    pub fn meta_events(&self) -> Vec<Vec<EventId>> {
        let (graph, num_events) = build_graph(self.comp, &self.edges);
        let scc = graph.tarjan_scc();
        let mut metas = Vec::new();
        for cid in scc.topo_order() {
            let mut members: Vec<EventId> = scc
                .members(cid)
                .iter()
                .filter(|&&v| (v as usize) < num_events)
                .map(|&v| EventId::new(v as usize))
                .filter(|&e| self.tables.ix[e.as_usize()] != NO_CUT)
                .collect();
            if members.is_empty() {
                continue;
            }
            members.sort_unstable();
            metas.push(members);
        }
        metas
    }

    /// Count of non-trivial consistent cuts, stopping at `cap` (see
    /// [`count_cuts`](slicing_computation::lattice::count_cuts)).
    pub fn count_cuts(&self, cap: Option<u64>) -> slicing_computation::lattice::CutCount {
        slicing_computation::lattice::count_cuts(self, cap)
    }

    /// Estimated heap footprint of the slice's tables in bytes, used by the
    /// detection metrics (the paper reports memory for "computing and
    /// storing the slice").
    pub fn approx_bytes(&self) -> usize {
        let n = self.comp.num_processes();
        let cut_bytes = std::mem::size_of::<Cut>() + 4 * n;
        // Cut payloads are stored once per SCC; the per-event table holds
        // only 4-byte indices.
        self.edges.len() * std::mem::size_of::<Edge>()
            + (self.tables.ix.len()
                + self.tables.meta_len.len()
                + self.tables.next_j.len()
                + self.tables.proc_off.len())
                * std::mem::size_of::<u32>()
            + self.tables.cuts.len() * cut_bytes
    }

    /// Calls `f` with the J index of each enabled next event of `cut`, in
    /// ascending process order, skipping (up to [`DEDUP_WIDTH`] distinct
    /// indices) repeats that would produce an identical successor.
    #[inline]
    fn for_each_enabled_j(&self, counts: &[u32], mut f: impl FnMut(u32)) {
        let next_j = &self.tables.next_j;
        let proc_off = &self.tables.proc_off;
        let mut seen = [NO_CUT; DEDUP_WIDTH];
        let mut seen_len = 0usize;
        for (p, &c) in counts.iter().enumerate() {
            // One load covers "process exhausted", "event forbidden", and
            // the J lookup: the table stores NO_CUT at the last count.
            let jx = next_j[(proc_off[p] + c - 1) as usize];
            if jx == NO_CUT {
                continue;
            }
            if seen_len < DEDUP_WIDTH {
                if seen[..seen_len].contains(&jx) {
                    // Same J index ⇒ byte-identical successor: the first
                    // occurrence already represented it.
                    continue;
                }
                seen[seen_len] = jx;
                seen_len += 1;
            }
            f(jx);
        }
    }
}

impl fmt::Debug for Slice<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slice")
            .field("num_events", &self.comp.num_events())
            .field("num_constraint_edges", &self.edges.len())
            .field("is_empty", &self.is_empty_slice())
            .finish()
    }
}

impl CutSpace for Slice<'_> {
    fn num_processes(&self) -> usize {
        self.comp.num_processes()
    }

    fn bottom(&self) -> Option<Cut> {
        self.bottom_cut().cloned()
    }

    fn successors(&self, cut: &Cut, out: &mut Vec<Cut>) {
        self.for_each_successor(cut, &mut |next| out.push(next.clone()));
    }

    fn for_each_successor(&self, cut: &Cut, f: &mut dyn FnMut(&Cut)) {
        let JTables { cuts, meta_len, .. } = &*self.tables;
        let counts = cut.counts();
        let mut succ = cut.clone();
        self.for_each_enabled_j(counts, |jx| {
            let j = cuts[jx as usize].counts();
            // Admit the join only if it adds nothing but e's meta-event: a
            // larger join skips a rank, and is reached through its covers.
            let added: u32 = counts
                .iter()
                .zip(j)
                .map(|(&c, &j)| j.saturating_sub(c))
                .sum();
            if added == meta_len[jx as usize] {
                // One fused pass writes max(cut, J) into the scratch (stack
                // copies for inline-width cuts) and lends it out — no
                // allocation, no per-successor clone.
                succ.assign_join_counts(counts, j);
                f(&succ);
            }
        });
    }

    fn for_each_successor_packed(
        &self,
        counts: &[u32],
        key: u64,
        packing: &CutPacking,
        f: &mut dyn FnMut(u64),
    ) -> bool {
        let pj = self.packed_j.get_or_init(|| PackedJ {
            lane_bits: packing.lane_bits(),
            rows: self
                .tables
                .cuts
                .iter()
                .map(|c| packing.pack(c.counts()))
                .collect(),
        });
        if pj.lane_bits != packing.lane_bits() {
            // A different plan than the one the cache was built for —
            // refuse the fast path rather than emit garbage keys.
            return false;
        }
        let rows = &pj.rows;
        let meta_len = &self.tables.meta_len;
        let size = packing.size_of(key);
        self.for_each_enabled_j(counts, |jx| {
            // The whole successor step stays in packed space: a SWAR join
            // of the parent key with the packed J row, and a one-multiply
            // size for the cover test. No per-lane loop, no Cut.
            let succ = packing.join(key, rows[jx as usize]);
            if packing.size_of(succ) == size + meta_len[jx as usize] {
                f(succ);
            }
        });
        true
    }
}

/// The one constraint edge of [`Slice::empty`]: ⊤ → ⊥₀ forbids the initial
/// meta-event, so no non-trivial cut survives.
pub(crate) fn empty_slice_edge(comp: &Computation) -> Edge {
    (Node::Top, Node::Event(comp.event_at(ProcessId::new(0), 0)))
}

/// Builds the full constraint digraph: nodes are events plus ⊤ (index
/// `num_events`); edges point along the "required-by" direction (`u → v`
/// means `v ∈ C ⇒ u ∈ C`, i.e. happened-before order for base edges).
///
/// Cold-path variant kept for [`Slice::meta_events`]; the J-table builder
/// flattens the same edges into the warm workspace instead.
fn build_graph(comp: &Computation, edges: &[Edge]) -> (Digraph, usize) {
    let num_events = comp.num_events();
    let mut g = Digraph::new(num_events + 1);
    push_graph_edges(comp, edges, &mut |u, v| g.add_edge(u, v));
    // Predicate slicers routinely emit constraint edges that duplicate the
    // base happened-before edges (or each other); collapse them so the SCC
    // and condensation passes scale with distinct edges only.
    g.dedup_edges();
    (g, num_events)
}

/// Emits every edge of the constraint digraph (base process order,
/// messages, the initial-event cycle, then the constraint edges) through
/// `emit`, without building any graph structure.
fn push_graph_edges(comp: &Computation, edges: &[Edge], emit: &mut impl FnMut(u32, u32)) {
    let num_events = comp.num_events();
    let node_index = |n: Node| -> u32 {
        match n {
            Node::Event(e) => e.as_u32(),
            Node::Top => num_events as u32,
        }
    };

    // Process-order edges.
    for p in comp.processes() {
        for pos in 1..comp.len(p) {
            emit(
                comp.event_at(p, pos - 1).as_u32(),
                comp.event_at(p, pos).as_u32(),
            );
        }
    }
    // Message edges.
    for m in comp.messages() {
        emit(m.send.as_u32(), m.recv.as_u32());
    }
    // The initial-event cycle: all ⊥ᵢ form one meta-event.
    let n = comp.num_processes();
    if n > 1 {
        for i in 0..n {
            let a = comp.event_at(ProcessId::new(i), 0).as_u32();
            let b = comp.event_at(ProcessId::new((i + 1) % n), 0).as_u32();
            emit(a, b);
        }
    }
    // Constraint edges.
    for &(u, v) in edges {
        emit(node_index(u), node_index(v));
    }
}

/// Warm per-thread workspace for J-table construction: the flat edge list,
/// the CSR Tarjan scratch, and one `u32` count row per SCC. Every buffer
/// survives across builds, so repeated slicing is allocation-free once the
/// high-water marks are reached.
#[derive(Default)]
struct JWorkspace {
    graph_edges: Vec<(u32, u32)>,
    scc: SccScratch,
    /// `num_sccs × n` count rows: row `cid` is the running join of the
    /// component's own frontier contribution and everything pushed in from
    /// predecessors.
    rows: Vec<u32>,
    /// Component reaches ⊤ (its events are in no slice cut).
    poisoned: Vec<bool>,
    /// Per-target last-source stamp, deduplicating parallel condensation
    /// edges during propagation without building a condensation graph.
    stamp: Vec<u32>,
    /// SCC id → dense index into the live-cut pool.
    dense: Vec<u32>,
}

thread_local! {
    static J_WORKSPACE: RefCell<JWorkspace> = RefCell::new(JWorkspace::default());
}

/// Computes the `J` tables: for every event, the least slice cut containing
/// it ([`NO_CUT`] if unreachable without ⊤), storing one cut per live SCC.
/// Runs in `O(n·(|E| + |edges|))` on the warm workspace.
fn compute_j_table(comp: &Computation, edges: &[Edge]) -> JTables {
    let _span = slicing_observe::span("slice.j_table");
    let num_events = comp.num_events();
    let n = comp.num_processes();
    slicing_observe::counter("slice.j_table.builds", 1);

    J_WORKSPACE.with(|ws| {
        let ws = &mut *ws.borrow_mut();
        let JWorkspace {
            graph_edges,
            scc,
            rows,
            poisoned,
            stamp,
            dense,
        } = ws;

        graph_edges.clear();
        push_graph_edges(comp, edges, &mut |u, v| graph_edges.push((u, v)));
        {
            let _span = slicing_observe::span("slice.scc");
            scc.decompose(num_events + 1, graph_edges);
        }
        let nc = scc.num_components();
        slicing_observe::gauge("slice.constraint_edges", edges.len() as u64);
        slicing_observe::gauge("slice.scc_components", nc as u64);

        // Seed every row with the bottom cut joined with the component's
        // own contribution: the frontier positions of its member events.
        rows.clear();
        rows.resize(nc * n, 1);
        poisoned.clear();
        poisoned.resize(nc, false);
        let top_comp = scc.comp_of(num_events as u32);
        poisoned[top_comp as usize] = true;
        for e in 0..num_events {
            let ev = EventId::new(e);
            let cid = scc.comp_of(e as u32) as usize;
            let p = comp.process_of(ev).as_usize();
            let pos = comp.position_of(ev);
            let slot = &mut rows[cid * n + p];
            *slot = (*slot).max(pos + 1);
        }

        // Single push-forward pass in topological order: components are
        // numbered in reverse topological order, so every condensation
        // edge goes from a higher id to a lower one — iterating ids
        // downwards means a component's row is final when visited, and its
        // value (or poison) is pushed into each distinct successor once.
        stamp.clear();
        stamp.resize(nc, u32::MAX);
        let mut row_joins = 0u64;
        for cid in (0..nc as u32).rev() {
            let src_poisoned = poisoned[cid as usize];
            let (targets, src) = rows.split_at_mut(cid as usize * n);
            let src = &src[..n];
            for &v in scc.members(cid) {
                for &w in scc.neighbors(v) {
                    let cw = scc.comp_of(w);
                    if cw == cid || stamp[cw as usize] == cid {
                        continue;
                    }
                    stamp[cw as usize] = cid;
                    if src_poisoned {
                        poisoned[cw as usize] = true;
                    } else if !poisoned[cw as usize] {
                        let dst = &mut targets[cw as usize * n..cw as usize * n + n];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d = (*d).max(s);
                        }
                        row_joins += 1;
                    }
                }
            }
        }
        slicing_observe::counter("slice.j_table.row_joins", row_joins);

        // Materialize one cut per live component; events index into the
        // dense pool (inline payloads for ≤16 processes — building the
        // table costs zero cut heap allocations).
        dense.clear();
        dense.resize(nc, NO_CUT);
        let mut cuts = Vec::new();
        for cid in 0..nc {
            if poisoned[cid] {
                continue;
            }
            dense[cid] = cuts.len() as u32;
            cuts.push(Cut::from_counts(&rows[cid * n..cid * n + n]));
        }
        slicing_observe::counter("slice.j_table.live_sccs", cuts.len() as u64);
        let ix: Vec<u32> = (0..num_events)
            .map(|e| dense[scc.comp_of(e as u32) as usize])
            .collect();
        let mut meta_len = vec![0u32; cuts.len()];
        for &jx in ix.iter().filter(|&&jx| jx != NO_CUT) {
            meta_len[jx as usize] += 1;
        }
        // The least slice cut is J(⊥₀) — all initial events share its SCC.
        let init = comp.event_at(ProcessId::new(0), 0);
        let bottom_ix = ix[init.as_usize()];
        // Flatten the per-(process, count) successor lookup: counts run
        // 1..=len(p); the entry at count c is the J index of the event at
        // position c, with NO_CUT at c == len(p) (process exhausted).
        let mut proc_off = Vec::with_capacity(n + 1);
        let mut next_j = Vec::with_capacity(num_events + n);
        proc_off.push(0u32);
        for p in comp.processes() {
            let len = comp.len(p);
            for c in 1..len {
                next_j.push(ix[comp.event_at(p, c).as_usize()]);
            }
            next_j.push(NO_CUT);
            proc_off.push(next_j.len() as u32);
        }
        JTables {
            cuts,
            ix,
            meta_len,
            next_j,
            proc_off,
            bottom_ix,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::test_fixtures::{figure1, grid};

    #[test]
    fn full_slice_matches_computation_lattice() {
        let comp = figure1();
        let slice = Slice::full(&comp);
        assert!(!slice.is_empty_slice());
        let a = all_cuts(&comp);
        let b = all_cuts(&slice);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_slice_has_no_cuts() {
        let comp = grid(2, 2);
        let slice = Slice::empty(&comp);
        assert!(slice.is_empty_slice());
        assert_eq!(slice.bottom_cut(), None);
        assert_eq!(all_cuts(&slice).len(), 0);
        assert!(!slice.contains_cut(&Cut::bottom(2)));
    }

    #[test]
    fn least_cut_of_unconstrained_event_is_its_min_cut() {
        let comp = figure1();
        let slice = Slice::full(&comp);
        for e in comp.events() {
            let j = slice.least_cut(e).expect("full slice never forbids");
            assert_eq!(j, comp.min_cut(e), "event {}", comp.describe_event(e));
        }
    }

    #[test]
    fn constraint_edge_restricts_cuts() {
        // grid(1,1): cuts are (1,1),(2,1),(1,2),(2,2). Force: p1's event
        // requires p0's event.
        let comp = grid(1, 1);
        let e0 = comp.event_at(comp.process(0), 1);
        let e1 = comp.event_at(comp.process(1), 1);
        let slice = Slice::new(&comp, vec![(Node::Event(e0), Node::Event(e1))]);
        let cuts = all_cuts(&slice);
        assert_eq!(cuts.len(), 3);
        assert!(!cuts.contains(&Cut::from(vec![1, 2])));
        assert!(slice.contains_cut(&Cut::from(vec![2, 2])));
        assert!(!slice.contains_cut(&Cut::from(vec![1, 2])));
    }

    #[test]
    fn top_edge_forbids_event_and_successors() {
        let comp = grid(2, 1);
        let e01 = comp.event_at(comp.process(0), 1);
        let slice = Slice::new(&comp, vec![(Node::Top, Node::Event(e01))]);
        // p0 can never advance: cuts are (1,1) and (1,2).
        let cuts = all_cuts(&slice);
        assert_eq!(cuts.len(), 2);
        assert_eq!(slice.least_cut(e01), None);
        let e02 = comp.event_at(comp.process(0), 2);
        assert_eq!(slice.least_cut(e02), None, "successor of forbidden event");
    }

    #[test]
    fn required_event_via_initial_edge() {
        // Forcing e (p0 pos 1) into every cut: edge (e → ⊥₀).
        let comp = grid(1, 1);
        let e = comp.event_at(comp.process(0), 1);
        let init = comp.event_at(comp.process(0), 0);
        let slice = Slice::new(&comp, vec![(Node::Event(e), Node::Event(init))]);
        let cuts = all_cuts(&slice);
        assert_eq!(cuts.len(), 2); // (2,1) and (2,2)
        assert!(cuts.iter().all(|c| c.count(comp.process(0)) == 2));
        assert_eq!(slice.bottom_cut().unwrap(), &Cut::from(vec![2, 1]));
    }

    #[test]
    fn contradictory_constraints_empty_the_slice() {
        // Require e and forbid e simultaneously.
        let comp = grid(1, 1);
        let e = comp.event_at(comp.process(0), 1);
        let init = comp.event_at(comp.process(0), 0);
        let slice = Slice::new(
            &comp,
            vec![
                (Node::Event(e), Node::Event(init)),
                (Node::Top, Node::Event(e)),
            ],
        );
        assert!(slice.is_empty_slice());
    }

    #[test]
    fn meta_events_group_scc_members() {
        // Cycle e0 ↔ e1 via a constraint back-edge.
        let comp = grid(1, 1);
        let e0 = comp.event_at(comp.process(0), 1);
        let e1 = comp.event_at(comp.process(1), 1);
        let slice = Slice::new(
            &comp,
            vec![
                (Node::Event(e0), Node::Event(e1)),
                (Node::Event(e1), Node::Event(e0)),
            ],
        );
        let metas = slice.meta_events();
        // Initial meta-event {⊥0, ⊥1} first, then {e0, e1}.
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].len(), 2);
        assert_eq!(metas[1], vec![e0, e1]);
        // Cuts: bottom and bottom+{e0,e1}.
        assert_eq!(all_cuts(&slice).len(), 2);
    }

    #[test]
    fn slice_cuts_are_a_sublattice() {
        let comp = figure1();
        let e0 = comp.event_by_label("b").unwrap();
        let e1 = comp.event_by_label("g").unwrap();
        let slice = Slice::new(&comp, vec![(Node::Event(e0), Node::Event(e1))]);
        let cuts: std::collections::BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        assert!(slicing_computation::oracle::is_sublattice(&cuts));
        for c in &cuts {
            assert!(slice.contains_cut(c));
        }
    }

    #[test]
    fn j_table_shares_cuts_per_scc_without_deep_clones() {
        use slicing_computation::{cut_heap_allocs, ComputationBuilder};

        // 20 processes — past the inline width, so any cut copy would have
        // to touch the heap — with 3 real events each and no messages.
        let mut b = ComputationBuilder::new(20);
        for i in 0..20 {
            for _ in 0..3 {
                b.append_event(b.process(i));
            }
        }
        let comp = b.build().unwrap();
        let slice = Slice::full(&comp);

        // All initial events form one SCC and share one dense index; the
        // bottom cut is the same table entry, not a copy.
        let init0 = comp.event_at(ProcessId::new(0), 0);
        let init7 = comp.event_at(ProcessId::new(7), 0);
        let j0 = slice.tables.ix[init0.as_usize()];
        let j7 = slice.tables.ix[init7.as_usize()];
        assert_ne!(j0, NO_CUT);
        assert_eq!(j0, j7);
        assert_eq!(slice.tables.bottom_ix, j0);
        assert!(std::ptr::eq(
            slice.least_cut(init0).unwrap(),
            slice.bottom_cut().unwrap()
        ));
        // One payload per SCC with slice cuts: the initial meta-event plus
        // 20 × 3 singleton components (⊤'s component stores none).
        assert_eq!(slice.distinct_j_cuts(), 61);

        // Queries and whole-slice clones only bump the table's reference
        // count: zero cut heap allocations even though every payload is
        // spilled.
        let before = cut_heap_allocs();
        let dup = slice.clone();
        assert!(dup.bottom_cut().is_some());
        for e in comp.events() {
            let _ = slice.least_cut(e);
        }
        assert_eq!(cut_heap_allocs() - before, 0);
    }

    #[test]
    fn warm_rebuilds_do_not_allocate_cut_heap() {
        use slicing_computation::cut_heap_allocs;

        // Inline width (≤16 processes): after one warming build, repeated
        // slicing reuses the thread-local workspace and the inline cut
        // payloads — zero cut heap allocations.
        let comp = figure1();
        let e0 = comp.event_by_label("b").unwrap();
        let e1 = comp.event_by_label("g").unwrap();
        let edges = vec![(Node::Event(e0), Node::Event(e1))];
        let warm = Slice::new(&comp, edges.clone());
        let before = cut_heap_allocs();
        for _ in 0..10 {
            let s = Slice::new(&comp, edges.clone());
            assert_eq!(s.distinct_j_cuts(), warm.distinct_j_cuts());
        }
        assert_eq!(cut_heap_allocs() - before, 0);
    }

    #[test]
    fn successors_skip_joins_that_add_two_meta_events() {
        // grid(1,1) with b requiring a: from the bottom, J(b) = ⟨2, 2⟩
        // adds both a and b, so only the cover ⟨2, 1⟩ is a successor, in
        // the unpacked and the packed stream alike.
        let comp = grid(1, 1);
        let a = comp.event_at(comp.process(0), 1);
        let b = comp.event_at(comp.process(1), 1);
        let slice = Slice::new(&comp, vec![(Node::Event(a), Node::Event(b))]);
        let bottom = CutSpace::bottom(&slice).unwrap();
        let mut succ = Vec::new();
        slice.successors(&bottom, &mut succ);
        assert_eq!(succ, vec![Cut::from(vec![2, 1])]);
        let packing = CutPacking::for_maxima(&[2, 2]).unwrap();
        let mut packed = Vec::new();
        let key = packing.pack(bottom.counts());
        assert!(
            slice.for_each_successor_packed(bottom.counts(), key, &packing, &mut |k| {
                packed.push(k)
            })
        );
        assert_eq!(packed, vec![packing.pack(&[2, 1])]);
    }

    #[test]
    fn successor_stream_has_no_same_index_duplicates() {
        // A meta-event spanning both processes is enabled from the bottom
        // cut on two frontier processes; the deduped stream emits the
        // successor once.
        let comp = grid(1, 1);
        let e0 = comp.event_at(comp.process(0), 1);
        let e1 = comp.event_at(comp.process(1), 1);
        let slice = Slice::new(
            &comp,
            vec![
                (Node::Event(e0), Node::Event(e1)),
                (Node::Event(e1), Node::Event(e0)),
            ],
        );
        let bottom = CutSpace::bottom(&slice).unwrap();
        let mut succ = Vec::new();
        slice.successors(&bottom, &mut succ);
        assert_eq!(succ, vec![Cut::from(vec![2, 2])]);
    }

    #[test]
    fn debug_and_bytes() {
        let comp = grid(1, 1);
        let slice = Slice::full(&comp);
        assert!(format!("{slice:?}").contains("Slice"));
        assert!(slice.approx_bytes() > 0);
        assert_eq!(slice.count_cuts(None).value(), 4);
        assert_eq!(slice.computation().num_events(), comp.num_events());
        assert!(slice.edges().is_empty());
    }
}
