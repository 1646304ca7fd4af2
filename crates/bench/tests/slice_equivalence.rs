//! The scenario zoo's fault specs slice as their children grafted.
//!
//! `PredicateSpec::slice` hands each `And` its children's constraint edges
//! and each `Or` their least-cut rows, and builds one J table, at the root.
//! Every zoo spec is an `And` or `Or` tree, so each one here checks that
//! routing against the reference that slices every node with its public
//! slicer and grafts the slices: the same edges in the same order, the
//! same `J(e)` for every event, and the same bottom.

use slicing_bench::Workload;
use slicing_computation::Computation;
use slicing_core::{
    graft_and_all, graft_or_all, slice_co_regular, slice_conjunctive, slice_klocal, slice_linear,
    slice_postlinear, slice_regular, PredicateSpec, Slice,
};

const WORKLOADS: [Workload; 5] = [
    Workload::PrimarySecondary,
    Workload::DatabasePartitioning,
    Workload::LeaderElection,
    Workload::CrdtReplication,
    Workload::WorkQueue,
];

/// Slices every node with its public slicer and grafts the children.
fn composed<'a>(comp: &'a Computation, spec: &PredicateSpec) -> Slice<'a> {
    let parts = |children: &[PredicateSpec]| {
        children
            .iter()
            .map(|c| composed(comp, c))
            .collect::<Vec<_>>()
    };
    match spec {
        PredicateSpec::Conjunctive(p) => slice_conjunctive(comp, p),
        PredicateSpec::Regular(p) => slice_regular(comp, p.as_ref()),
        PredicateSpec::CoRegular(p) => slice_co_regular(comp, p.as_ref()),
        PredicateSpec::Linear(p) => slice_linear(comp, p.as_ref()),
        PredicateSpec::PostLinear(p) => slice_postlinear(comp, p.as_ref()),
        PredicateSpec::KLocal(p) => slice_klocal(comp, p),
        PredicateSpec::And(children) => graft_and_all(&parts(children)),
        PredicateSpec::Or(children) => graft_or_all(comp, &parts(children)),
    }
}

fn assert_same_slice(tag: &str, comp: &Computation, got: &Slice<'_>, want: &Slice<'_>) {
    assert_eq!(got.edges(), want.edges(), "{tag}: edges");
    for e in comp.events() {
        assert_eq!(got.least_cut(e), want.least_cut(e), "{tag}: J({e})");
    }
    assert_eq!(got.bottom_cut(), want.bottom_cut(), "{tag}: bottom");
}

#[test]
fn zoo_specs_slice_as_their_children_grafted() {
    let mut nonempty = 0;
    for w in WORKLOADS {
        for procs in [3usize, 4, 5] {
            for seed in 0..40u64 {
                let clean = w.simulate(procs, 10, seed);
                let injected = w.inject_fault(&clean, seed);
                for (run, comp) in [("clean", &clean), ("injected", &injected)] {
                    let tag = format!("{} {procs} procs seed {seed} {run}", w.name());
                    let spec = w.violation_spec(comp);
                    let got = spec.slice(comp);
                    assert_same_slice(&tag, comp, &got, &composed(comp, &spec));
                    nonempty += usize::from(!got.is_empty_slice());
                }
            }
        }
    }
    // Most injected runs leave a fault cut, so the slices compared are
    // not all the empty slice.
    assert!(nonempty >= 300, "only {nonempty} non-empty slices");
}
