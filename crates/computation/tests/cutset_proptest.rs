//! Property tests for the open-addressed [`CutSet`] kernel: against a
//! `HashSet<Vec<u32>>` oracle it must agree on membership, insertion
//! verdicts, and size for every width — in particular across the
//! inline→spilled representation boundary at [`Cut::INLINE_PROCESSES`].

use std::collections::HashSet;

use proptest::prelude::*;

use slicing_computation::{hash_counts, Cut, CutSet};

/// Count vectors drawn from a deliberately small value range so random
/// sequences contain plenty of duplicates (the hit path) as well as fresh
/// cuts (the probe/insert path).
fn count_sequences() -> impl Strategy<Value = (usize, Vec<Vec<u32>>)> {
    // Widths 1..=24 straddle the 16-process inline buffer: widths 17+
    // exercise the heap-spilled `Cut` representation end to end.
    (1usize..=24).prop_flat_map(|width| {
        let counts = proptest::collection::vec(1u32..=3, width..width + 1);
        let seq = proptest::collection::vec(counts, 1..120);
        (Just(width), seq)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cutset_matches_hashset_oracle((width, seq) in count_sequences()) {
        let mut set = CutSet::new(width);
        let mut oracle: HashSet<Vec<u32>> = HashSet::new();
        for counts in &seq {
            let cut = Cut::from_counts(counts);
            let fresh = oracle.insert(counts.clone());
            prop_assert_eq!(set.insert(&cut), fresh, "width {} counts {:?}", width, counts);
            prop_assert!(set.contains(&cut));
            prop_assert_eq!(set.len(), oracle.len());
        }
        // Membership agrees on absent cuts too: perturb each inserted
        // vector one count past the generator's range.
        for counts in &seq {
            let mut absent = counts.clone();
            absent[0] += 10;
            prop_assert!(!set.contains(&Cut::from_counts(&absent)));
        }
        // The instrumentation invariants CI gates on: every distinct cut
        // is one insert, every duplicate one hit, and a probe sequence
        // precedes each operation.
        let stats = set.stats();
        prop_assert_eq!(stats.inserts as usize, oracle.len());
        prop_assert_eq!(stats.hits as usize, seq.len() - oracle.len());
        prop_assert!(stats.probes >= stats.inserts + stats.hits);
    }

    #[test]
    fn indexed_inserts_round_trip((width, seq) in count_sequences()) {
        let mut set = CutSet::new(width);
        let mut arena: Vec<Vec<u32>> = Vec::new();
        for counts in &seq {
            let cut = Cut::from_counts(counts);
            match set.insert_indexed(&cut) {
                Some(idx) => {
                    // Fresh cuts get dense, stable arena indices…
                    prop_assert_eq!(idx as usize, arena.len());
                    arena.push(counts.clone());
                }
                None => prop_assert!(arena.contains(counts)),
            }
        }
        // …that survive table growth: every index still reads back the
        // exact counts it was assigned for.
        for (idx, counts) in arena.iter().enumerate() {
            prop_assert_eq!(set.counts_at(idx as u32), counts.as_slice());
        }
    }

    #[test]
    fn hash_is_representation_independent(counts in proptest::collection::vec(0u32..=200, 1..24)) {
        // The pooled containers hash a cut's borrowed count slice, inline
        // or spilled; the hash must not depend on the representation, or
        // one set would file the same cut under two slots.
        let cut = Cut::from_counts(&counts);
        prop_assert_eq!(hash_counts(cut.as_ref()), hash_counts(&counts));
    }
}
