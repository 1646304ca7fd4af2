//! Grafting: composing slices with respect to conjunction and disjunction
//! (Section 3.4).
//!
//! Each graft reads one thing of its inputs. Conjunction reads their
//! constraint edges and concatenates them; disjunction reads their
//! least-cut rows `J(e)`, meets them event by event, and encodes the meet
//! as edges. Neither needs an input's J table beyond that, so
//! [`PredicateSpec::slice`](crate::PredicateSpec::slice) hands children's
//! edges and rows straight to these folds and builds one J table, at the
//! root.

use slicing_computation::{Computation, EventId, ProcessId};

use crate::slice::{empty_slice_edge, Edge, Node, Slice};

fn assert_same_computation(a: &Slice<'_>, b: &Slice<'_>) {
    assert!(
        std::ptr::eq(a.computation(), b.computation()),
        "grafted slices must derive from the same computation"
    );
}

/// A least-cut table: for every event `e`, the counts of `J(e)`, the least
/// slice cut containing `e`, or none when no slice cut contains `e`.
///
/// Rows are flat, `n` counts per event in event order. A real cut counts
/// at least the initial event of every process, so a row whose first
/// count is 0 stands for none. A fresh table is all none, the identity of
/// [`meet_row`](LeastCuts::meet_row): meeting one slice's rows into it
/// copies them, and meeting several folds their disjunction.
pub(crate) struct LeastCuts {
    n: usize,
    counts: Vec<u32>,
    /// Rows met so far: [`push_disjunction_edges`] emits it as
    /// `slice.graft.row_meets`.
    meets: u64,
}

impl LeastCuts {
    /// The table of the empty slice: every row none.
    pub(crate) fn none(comp: &Computation) -> Self {
        let n = comp.num_processes();
        LeastCuts {
            n,
            counts: vec![0; comp.num_events() * n],
            meets: 0,
        }
    }

    /// `J(e)` as counts, or `None` when no slice cut contains `e`.
    pub(crate) fn row(&self, e: EventId) -> Option<&[u32]> {
        let row = &self.counts[e.as_usize() * self.n..][..self.n];
        (row[0] != 0).then_some(row)
    }

    /// Meets one more disjunct's `J(e)` into the table.
    pub(crate) fn meet_row(&mut self, e: EventId, row: &[u32]) {
        self.meets += 1;
        let acc = &mut self.counts[e.as_usize() * self.n..][..self.n];
        if acc[0] == 0 {
            acc.copy_from_slice(row);
        } else {
            for (a, &r) in acc.iter_mut().zip(row) {
                *a = (*a).min(r);
            }
        }
    }

    /// Meets every row of a materialized slice into the table.
    pub(crate) fn meet_slice(&mut self, slice: &Slice<'_>) {
        for e in slice.computation().events() {
            if let Some(j) = slice.least_cut(e) {
                self.meet_row(e, j.counts());
            }
        }
    }

    /// Appends the edges encoding the table, event by event in event
    /// order (see [`push_row_edges`]).
    pub(crate) fn push_edges(&self, comp: &Computation, out: &mut Vec<Edge>) {
        for e in comp.events() {
            push_row_edges(comp, e, self.row(e), comp.processes(), out);
        }
    }
}

/// Appends the edges encoding `e ∈ C ⇒ J(e) ⊆ C`: one edge from the
/// frontier event of each of `procs` in `J(e)` (skipping initial events,
/// which every cut holds, and `e` itself), or ⊤ → e when `J(e)` is none.
pub(crate) fn push_row_edges(
    comp: &Computation,
    e: EventId,
    row: Option<&[u32]>,
    procs: impl IntoIterator<Item = ProcessId>,
    out: &mut Vec<Edge>,
) {
    let Some(row) = row else {
        out.push((Node::Top, Node::Event(e)));
        return;
    };
    for q in procs {
        let cnt = row[q.as_usize()];
        if cnt <= 1 {
            continue;
        }
        let f = comp.event_at(q, cnt - 1);
        if f != e {
            out.push((Node::Event(f), Node::Event(e)));
        }
    }
}

/// Appends the edges of a disjunction graft to `out`: `fold` meets every
/// disjunct's rows into a fresh table and returns how many it met. The
/// meet is encoded edge by edge in event order; the disjunction of zero
/// slices is the empty slice.
pub(crate) fn push_disjunction_edges(
    comp: &Computation,
    out: &mut Vec<Edge>,
    fold: impl FnOnce(&mut LeastCuts) -> usize,
) {
    let mut rows = LeastCuts::none(comp);
    let disjuncts = fold(&mut rows);
    slicing_observe::counter("slice.graft.row_meets", rows.meets);
    if disjuncts == 0 {
        out.push(empty_slice_edge(comp));
    } else {
        rows.push_edges(comp, out);
    }
}

/// Appends the edges of a conjunction graft to `out`: `push_parts` appends
/// every conjunct's constraint edges, and the concatenation is the graft.
pub(crate) fn push_conjunction_edges(out: &mut Vec<Edge>, push_parts: impl FnOnce(&mut Vec<Edge>)) {
    let _span = slicing_observe::span("slice.graft_and");
    let start = out.len();
    push_parts(out);
    slicing_observe::counter("slice.graft.edges_merged", (out.len() - start) as u64);
}

/// Grafts two slices with respect to **conjunction**: the smallest slice
/// whose cuts are exactly the cuts common to both inputs.
///
/// A cut respects both slices' constraints iff it respects their union, so
/// this is a constraint-edge union — `O(n|E|)` for slices produced by the
/// slicers in this crate.
///
/// # Panics
///
/// Panics if the slices derive from different computations.
pub fn graft_and<'a>(a: &Slice<'a>, b: &Slice<'a>) -> Slice<'a> {
    assert_same_computation(a, b);
    let mut edges = Vec::with_capacity(a.edges().len() + b.edges().len());
    push_conjunction_edges(&mut edges, |out| {
        out.extend_from_slice(a.edges());
        out.extend_from_slice(b.edges());
    });
    Slice::new(a.computation(), edges)
}

/// Grafts any number of slices with respect to conjunction. Only the
/// inputs' constraint edges are read; the one J table built is the
/// result's.
///
/// # Panics
///
/// Panics if `slices` is empty or the slices derive from different
/// computations.
pub fn graft_and_all<'a>(slices: &[Slice<'a>]) -> Slice<'a> {
    assert!(!slices.is_empty(), "graft_and_all needs at least one slice");
    let mut edges = Vec::new();
    push_conjunction_edges(&mut edges, |out| {
        for s in slices {
            assert_same_computation(&slices[0], s);
            out.extend_from_slice(s.edges());
        }
    });
    Slice::new(slices[0].computation(), edges)
}

/// Grafts two slices with respect to **disjunction**: the smallest slice
/// containing every cut that belongs to at least one input.
///
/// For each event `e`, the least cut containing `e` in the generated
/// sublattice is the *meet* of the inputs' least cuts `J₁(e) ∧ J₂(e)`
/// (whichever exist); re-encoding those meets as frontier edges yields the
/// grafted slice in `O(n|E|)`.
///
/// # Panics
///
/// Panics if the slices derive from different computations.
pub fn graft_or<'a>(a: &Slice<'a>, b: &Slice<'a>) -> Slice<'a> {
    assert_same_computation(a, b);
    graft_or_fold(a.computation(), [a, b])
}

/// Grafts any number of slices with respect to disjunction, folding their
/// least-cut rows into one table (memory `O(n|E|)` however many slices
/// are grafted). Only the inputs' rows `J(e)` are read; the meet is
/// encoded as edges and the one J table built is the result's. The
/// disjunction of zero slices is the empty slice.
///
/// # Panics
///
/// Panics if a slice derives from another computation than `comp`.
pub fn graft_or_all<'a>(comp: &'a Computation, slices: &[Slice<'a>]) -> Slice<'a> {
    graft_or_fold(comp, slices)
}

fn graft_or_fold<'a, 'b>(
    comp: &'a Computation,
    slices: impl IntoIterator<Item = &'b Slice<'a>>,
) -> Slice<'a>
where
    'a: 'b,
{
    let _span = slicing_observe::span("slice.graft_or");
    let mut edges = Vec::new();
    push_disjunction_edges(comp, &mut edges, |rows| {
        let mut disjuncts = 0;
        for s in slices {
            assert!(
                std::ptr::eq(s.computation(), comp),
                "grafted slices must derive from the given computation"
            );
            rows.meet_slice(s);
            disjuncts += 1;
        }
        slicing_observe::counter("slice.graft.disjuncts", disjuncts as u64);
        disjuncts
    });
    Slice::new(comp, edges)
}

/// A canonical cache key for grafted sub-slices: the set of (process,
/// clause-label) pairs whose conjunction the slice encodes, sorted and
/// deduplicated so structurally equal predicates key identically however
/// their clauses were listed.
///
/// The grafting algebra makes this a *cache* key and not just an identity:
/// `graft_and(slice(K₁), slice(K₂))` has exactly the cuts of
/// `slice(K₁ ∪ K₂)`, so a store keyed by `GraftKey` can assemble the slice
/// for any conjunction from the slices of its sub-keys without recomputing
/// them — the sharing the multi-tenant monitor exploits when thousands of
/// predicates overlap.
///
/// # Examples
///
/// ```
/// use slicing_core::GraftKey;
///
/// let a = GraftKey::new(0, ["x > 1"]);
/// let b = GraftKey::new(2, ["y <= 3"]);
/// let ab = a.union(&b);
/// assert_eq!(ab, GraftKey::new(2, ["y <= 3"]).union(&a));
/// assert_eq!(ab.parts().len(), 2);
/// // Idempotent: re-adding a clause changes nothing.
/// assert_eq!(ab.union(&a), ab);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraftKey {
    parts: Vec<(u32, String)>,
}

impl GraftKey {
    /// A key for clauses that all live on one process.
    pub fn new<I, S>(process: u32, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::from_parts(labels.into_iter().map(|l| (process, l.into())))
    }

    /// A key from explicit (process, label) pairs; sorted and deduplicated.
    pub fn from_parts<I>(parts: I) -> Self
    where
        I: IntoIterator<Item = (u32, String)>,
    {
        let mut parts: Vec<(u32, String)> = parts.into_iter().collect();
        parts.sort();
        parts.dedup();
        GraftKey { parts }
    }

    /// The key of the conjunction: set union of the two clause sets.
    pub fn union(&self, other: &GraftKey) -> GraftKey {
        Self::from_parts(self.parts.iter().chain(other.parts.iter()).cloned())
    }

    /// The canonical (process, label) pairs, sorted.
    pub fn parts(&self) -> &[(u32, String)] {
        &self.parts
    }

    /// True when the key names no clauses (the conjunction of nothing).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slicing_computation::lattice::all_cuts;
    use slicing_computation::oracle::sublattice_closure;
    use slicing_computation::test_fixtures::{figure1, random_computation, RandomConfig};
    use slicing_computation::Cut;
    use slicing_predicates::{Conjunctive, LocalPredicate};
    use std::collections::BTreeSet;

    use crate::conjunctive::slice_conjunctive;

    fn pred_gt(comp: &Computation, proc_idx: usize, t: i64) -> Conjunctive {
        let p = comp.process(proc_idx);
        let x = comp.var(p, "x").unwrap();
        Conjunctive::new(vec![LocalPredicate::int(x, format!("x > {t}"), move |v| {
            v > t
        })])
    }

    #[test]
    fn and_graft_intersects_cut_sets() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let s1 = slice_conjunctive(
            &comp,
            &Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 1", |x| x > 1)]),
        );
        let s2 = slice_conjunctive(
            &comp,
            &Conjunctive::new(vec![LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3)]),
        );
        let grafted = graft_and(&s1, &s2);
        let want: BTreeSet<Cut> = {
            let a: BTreeSet<Cut> = all_cuts(&s1).into_iter().collect();
            let b: BTreeSet<Cut> = all_cuts(&s2).into_iter().collect();
            a.intersection(&b).cloned().collect()
        };
        let got: BTreeSet<Cut> = all_cuts(&grafted).into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 6); // Figure 1 again, via grafting
    }

    #[test]
    fn or_graft_is_smallest_sublattice_of_union() {
        let cfg = RandomConfig {
            processes: 3,
            events_per_process: 3,
            value_range: 3,
            ..RandomConfig::default()
        };
        for seed in 0..25 {
            let comp = random_computation(seed, &cfg);
            let s1 = slice_conjunctive(&comp, &pred_gt(&comp, 0, 0));
            let s2 = slice_conjunctive(&comp, &pred_gt(&comp, 1, 1));
            let grafted = graft_or(&s1, &s2);
            let union: Vec<Cut> = {
                let mut v: BTreeSet<Cut> = all_cuts(&s1).into_iter().collect();
                v.extend(all_cuts(&s2));
                v.into_iter().collect()
            };
            let want = sublattice_closure(&union);
            let got: BTreeSet<Cut> = all_cuts(&grafted).into_iter().collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn or_graft_with_empty_slice_is_identity() {
        let comp = figure1();
        let s = slice_conjunctive(&comp, &pred_gt_x1(&comp));
        let e = Slice::empty(&comp);
        let got: BTreeSet<Cut> = all_cuts(&graft_or(&s, &e)).into_iter().collect();
        let want: BTreeSet<Cut> = all_cuts(&s).into_iter().collect();
        assert_eq!(got, want);
        // Symmetric.
        let got: BTreeSet<Cut> = all_cuts(&graft_or(&e, &s)).into_iter().collect();
        assert_eq!(got, want);
    }

    fn pred_gt_x1(comp: &Computation) -> Conjunctive {
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 1", |x| x > 1)])
    }

    #[test]
    fn and_graft_with_empty_slice_is_empty() {
        let comp = figure1();
        let s = slice_conjunctive(&comp, &pred_gt_x1(&comp));
        let e = Slice::empty(&comp);
        assert!(graft_and(&s, &e).is_empty_slice());
    }

    #[test]
    fn nary_grafts_match_folds() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x2 = comp.var(comp.process(1), "x2").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let slices = vec![
            slice_conjunctive(
                &comp,
                &Conjunctive::new(vec![LocalPredicate::int(x1, "x1 > 1", |x| x > 1)]),
            ),
            slice_conjunctive(
                &comp,
                &Conjunctive::new(vec![LocalPredicate::int(x2, "x2 < 4", |x| x < 4)]),
            ),
            slice_conjunctive(
                &comp,
                &Conjunctive::new(vec![LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3)]),
            ),
        ];
        let all_and: BTreeSet<Cut> = all_cuts(&graft_and_all(&slices)).into_iter().collect();
        let fold_and: BTreeSet<Cut> =
            all_cuts(&graft_and(&graft_and(&slices[0], &slices[1]), &slices[2]))
                .into_iter()
                .collect();
        assert_eq!(all_and, fold_and);

        let all_or: BTreeSet<Cut> = all_cuts(&graft_or_all(&comp, &slices))
            .into_iter()
            .collect();
        let fold_or: BTreeSet<Cut> =
            all_cuts(&graft_or(&graft_or(&slices[0], &slices[1]), &slices[2]))
                .into_iter()
                .collect();
        assert_eq!(all_or, fold_or);
    }

    #[test]
    fn or_graft_of_nothing_is_empty() {
        let comp = figure1();
        assert!(graft_or_all(&comp, &[]).is_empty_slice());
    }

    #[test]
    fn graft_key_canonicalizes() {
        let a = GraftKey::new(1, ["b", "a", "b"]);
        assert_eq!(
            a.parts(),
            &[(1u32, "a".to_string()), (1, "b".to_string())] as &[_]
        );
        let b = GraftKey::from_parts([(0, "c".into()), (1, "a".into())]);
        let u = a.union(&b);
        assert_eq!(u, b.union(&a));
        assert_eq!(u.parts().len(), 3);
        assert_eq!(u.union(&a), u);
        assert!(GraftKey::default().is_empty());
    }

    /// The cache-key contract: the slice for a union key equals the
    /// conjunction graft of the sub-keys' slices, cut for cut.
    #[test]
    fn graft_key_union_matches_and_graft() {
        let comp = figure1();
        let x1 = comp.var(comp.process(0), "x1").unwrap();
        let x3 = comp.var(comp.process(2), "x3").unwrap();
        let c1 = LocalPredicate::int(x1, "x1 > 1", |x| x > 1);
        let c3 = LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3);
        let k1 = GraftKey::new(0, [c1.label()]);
        let k3 = GraftKey::new(2, [c3.label()]);
        let s1 = slice_conjunctive(&comp, &Conjunctive::new(vec![c1.clone()]));
        let s3 = slice_conjunctive(&comp, &Conjunctive::new(vec![c3.clone()]));
        let union_slice = slice_conjunctive(&comp, &Conjunctive::new(vec![c1, c3]));
        let grafted = graft_and(&s1, &s3);
        let want: BTreeSet<Cut> = all_cuts(&union_slice).into_iter().collect();
        let got: BTreeSet<Cut> = all_cuts(&grafted).into_iter().collect();
        assert_eq!(got, want);
        // And the keys agree on identity: same union whichever way assembled.
        assert_eq!(k1.union(&k3), k3.union(&k1));
    }

    #[test]
    #[should_panic(expected = "same computation")]
    fn cross_computation_graft_rejected() {
        let c1 = figure1();
        let c2 = figure1();
        let s1 = Slice::full(&c1);
        let s2 = Slice::full(&c2);
        let _ = graft_and(&s1, &s2);
    }
}
