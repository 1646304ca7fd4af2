//! Property tests pinning the `Slice` data structure's semantics against
//! an independent brute-force definition: the cuts of a slice built from
//! arbitrary constraint edges are exactly the consistent cuts that respect
//! every edge, the least-cut table matches the set-theoretic minimum, and
//! the successors of a cut are exactly its upper covers.

use std::collections::BTreeSet;

use proptest::prelude::*;

use slicing_computation::lattice::all_cuts;
use slicing_computation::oracle::is_sublattice;
use slicing_computation::test_fixtures::{random_computation, RandomConfig};
use slicing_computation::{Computation, Cut, CutPacking, CutSpace, EventId};
use slicing_core::{Node, Slice};

/// A computation plus random constraint edges (event→event, plus the
/// occasional ⊤→event exclusion).
fn instances() -> impl Strategy<Value = (Computation, Vec<(Node, Node)>)> {
    (any::<u64>(), 2usize..=4, 2u32..=4, 0u64..=60)
        .prop_flat_map(|(seed, n, m, msg)| {
            let cfg = RandomConfig {
                processes: n,
                events_per_process: m,
                send_percent: msg,
                recv_percent: msg,
                value_range: 3,
            };
            let comp = random_computation(seed, &cfg);
            let num_events = comp.num_events();
            let edges = prop::collection::vec((0..num_events, 0..num_events, 0u8..10), 0..6);
            (Just(comp), edges)
        })
        .prop_map(|(comp, raw)| {
            let edges = raw
                .into_iter()
                .map(|(u, v, kind)| {
                    let target = Node::Event(EventId::new(v));
                    if kind == 0 {
                        (Node::Top, target)
                    } else {
                        (Node::Event(EventId::new(u)), target)
                    }
                })
                .collect();
            (comp, edges)
        })
}

/// Brute-force definition: does `cut` respect every constraint edge?
fn respects(comp: &Computation, edges: &[(Node, Node)], cut: &Cut) -> bool {
    let contains = |e: EventId| cut.count(comp.process_of(e)) > comp.position_of(e);
    edges.iter().all(|&(u, v)| {
        let Node::Event(v) = v else { return true };
        if !contains(v) {
            return true;
        }
        match u {
            Node::Top => false,
            Node::Event(u) => contains(u),
        }
    })
}

/// The upper covers of `c` among `cuts`: the cuts strictly above it with
/// no cut of `cuts` strictly between. Scanning the cuts above `c` by size,
/// a cut is a cover iff no cover found so far lies below it.
fn upper_covers(cuts: &[Cut], c: &Cut) -> BTreeSet<Cut> {
    let mut above: Vec<&Cut> = cuts.iter().filter(|d| c.lt(d)).collect();
    above.sort_by_key(|d| d.size());
    let mut covers: Vec<&Cut> = Vec::new();
    for d in above {
        if !covers.iter().any(|m| Cut::lt(m, d)) {
            covers.push(d);
        }
    }
    covers.into_iter().cloned().collect()
}

/// The events of `cut`.
fn events_in(comp: &Computation, cut: &Cut) -> BTreeSet<EventId> {
    comp.events()
        .filter(|&e| cut.count(comp.process_of(e)) > comp.position_of(e))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// cuts(Slice::new(comp, edges)) == { consistent cuts respecting edges }.
    #[test]
    fn slice_cuts_match_the_brute_force_definition((comp, edges) in instances()) {
        let slice = Slice::new(&comp, edges.clone());
        let got = all_cuts(&slice);
        let want: Vec<Cut> = all_cuts(&comp)
            .into_iter()
            .filter(|c| respects(&comp, &edges, c))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Any constraint-edge cut set is a sublattice (closure holds for
    /// arbitrary edges, not just slicer-produced ones).
    #[test]
    fn constraint_cut_sets_are_sublattices((comp, edges) in instances()) {
        let slice = Slice::new(&comp, edges);
        let cuts: std::collections::BTreeSet<Cut> = all_cuts(&slice).into_iter().collect();
        prop_assert!(is_sublattice(&cuts));
    }

    /// The least-cut table is the set-theoretic minimum, and the bottom
    /// cut is the global minimum.
    #[test]
    fn least_cut_table_matches_minimum((comp, edges) in instances()) {
        let slice = Slice::new(&comp, edges);
        let cuts = all_cuts(&slice);
        prop_assert_eq!(slice.bottom_cut(), cuts.first());
        for e in comp.events() {
            let containing: Vec<&Cut> = cuts
                .iter()
                .filter(|c| c.count(comp.process_of(e)) > comp.position_of(e))
                .collect();
            match slice.least_cut(e) {
                None => prop_assert!(containing.is_empty(), "{e} claimed impossible"),
                Some(j) => {
                    prop_assert!(!containing.is_empty(), "{e} claimed possible");
                    // j is itself a containing cut and below all others.
                    prop_assert!(containing.contains(&j));
                    prop_assert!(containing.iter().all(|c| j.leq(c)));
                }
            }
        }
    }

    /// `contains_cut` agrees with membership in the enumerated cut set.
    #[test]
    fn contains_cut_is_consistent_with_enumeration((comp, edges) in instances()) {
        let slice = Slice::new(&comp, edges);
        let members: std::collections::BTreeSet<Cut> =
            all_cuts(&slice).into_iter().collect();
        for cut in all_cuts(&comp) {
            prop_assert_eq!(slice.contains_cut(&cut), members.contains(&cut), "{}", cut);
        }
    }

    /// The unpacked and the packed successor streams yield exactly the
    /// upper covers of every slice cut, and each cover adds one
    /// meta-event: the slice lattice is graded by meta-event count.
    #[test]
    fn successors_are_exactly_the_upper_covers((comp, edges) in instances()) {
        let slice = Slice::new(&comp, edges);
        let cuts = all_cuts(&slice);
        let metas: Vec<BTreeSet<EventId>> = slice
            .meta_events()
            .into_iter()
            .map(|m| m.into_iter().collect())
            .collect();
        let maxima: Vec<u32> = comp.processes().map(|p| comp.len(p)).collect();
        let packing = CutPacking::for_maxima(&maxima).expect("small computations pack");
        for c in &cuts {
            let mut succ = Vec::new();
            slice.successors(c, &mut succ);
            let got: BTreeSet<Cut> = succ.iter().cloned().collect();
            prop_assert_eq!(got, upper_covers(&cuts, c), "successors of {}", c);
            let mut packed = Vec::new();
            let key = packing.pack(c.counts());
            prop_assert!(slice.for_each_successor_packed(c.counts(), key, &packing, &mut |k| {
                packed.push(k)
            }));
            let want: Vec<u64> = succ.iter().map(|d| packing.pack(d.counts())).collect();
            prop_assert_eq!(packed, want, "packed successors of {}", c);
            let below = events_in(&comp, c);
            for d in &succ {
                let added: BTreeSet<EventId> =
                    events_in(&comp, d).difference(&below).copied().collect();
                prop_assert!(metas.contains(&added), "{} -> {} adds {:?}", c, d, added);
            }
        }
    }
}
