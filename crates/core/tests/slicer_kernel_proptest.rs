//! Property tests pinning the kernelized slicer stack — flat J-tables,
//! packed J-row streaming, warm-arena `Slice::new` — to the brute-force
//! reference semantics the pre-kernel (HashMap + per-edge clone)
//! implementation computed, specifically across the 16-process
//! inline→spill boundary where `Cut` storage, hashing, and the J-table
//! all take the heap path. The kernel is an optimization: identical
//! slice cuts, identical least-cut (J) tables, identical graft algebra.

use proptest::prelude::*;

use slicing_computation::lattice::all_cuts;
use slicing_computation::oracle::{expected_slice_cuts, sublattice_closure};
use slicing_computation::test_fixtures::{random_computation, RandomConfig, XorShift64};
use slicing_computation::{
    Computation, ComputationBuilder, Cut, EventId, GlobalState, ProcSet, ProcessId, Value, VarRef,
};
use slicing_core::{
    graft_and, graft_and_all, graft_or, graft_or_all, slice_co_regular, slice_conjunctive,
    slice_klocal, slice_linear, slice_postlinear, slice_regular, Node, PredicateSpec, Slice,
};
use slicing_predicates::{
    AtLeastInTransit, AtMostInTransit, BoundedDifference, Conjunctive, KLocalPredicate,
    LinearPredicate, LocalPredicate, MonotoneDominates, PostLinearPredicate, Predicate,
    RegularPredicate,
};

/// Computations spanning the spill boundary: one event per process and a
/// high message rate keep the lattice small enough for the exhaustive
/// reference while the width forces spilled cuts.
fn wide() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 15usize..=17).prop_map(|(seed, n)| {
        let cfg = RandomConfig {
            processes: n,
            events_per_process: 1,
            send_percent: 70,
            recv_percent: 70,
            value_range: 2,
        };
        random_computation(seed, &cfg)
    })
}

/// A wide computation plus random constraint edges, as the slicers emit
/// them (event→event advancing constraints, ⊤→event exclusions).
fn wide_with_edges() -> impl Strategy<Value = (Computation, Vec<(Node, Node)>)> {
    wide()
        .prop_flat_map(|comp| {
            let num_events = comp.num_events();
            let edges = prop::collection::vec((0..num_events, 0..num_events, 0u8..10), 0..8);
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

/// The reference definition the pre-kernel slicer implemented: a cut is
/// in the slice iff it is consistent and respects every edge.
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

/// A per-process conjunctive predicate `x@p != t` over every process.
fn conjunctive_pred(comp: &Computation, t: i64) -> Conjunctive {
    let clauses: Vec<LocalPredicate> = comp
        .processes()
        .map(|p| {
            let x = comp.var(p, "x").unwrap();
            LocalPredicate::int(x, format!("x != {t}"), move |v| v != t)
        })
        .collect();
    Conjunctive::new(clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spilled-width `Slice::new`: the enumerated cuts and the flat
    /// J-table both match the set-theoretic reference.
    #[test]
    fn wide_j_tables_match_the_set_theoretic_minimum(
        (comp, edges) in wide_with_edges(),
    ) {
        let slice = Slice::new(&comp, edges.clone());
        let got = all_cuts(&slice);
        let want: Vec<Cut> = all_cuts(&comp)
            .into_iter()
            .filter(|c| respects(&comp, &edges, c))
            .collect();
        prop_assert_eq!(&got, &want, "slice cuts at spill width");
        // J(e) is the least slice cut containing e — the table the kernel
        // now stores as flat arena rows instead of HashMap entries.
        for e in comp.events() {
            let containing: Vec<&Cut> = got
                .iter()
                .filter(|c| c.count(comp.process_of(e)) > comp.position_of(e))
                .collect();
            match slice.least_cut(e) {
                None => prop_assert!(containing.is_empty(), "{} claimed impossible", e),
                Some(j) => {
                    prop_assert!(containing.contains(&j), "J({}) not in slice", e);
                    prop_assert!(containing.iter().all(|c| j.leq(c)), "J({}) not least", e);
                }
            }
        }
    }

    /// The `O(|E|)` conjunctive slicer, the `O(n²|E|)` linear slicer, and
    /// the lattice oracle agree past the spill boundary, and every slice
    /// cut genuinely satisfies the (regular) predicate.
    #[test]
    fn wide_conjunctive_slicer_matches_linear_and_oracle(
        comp in wide(),
        t in 0i64..2,
    ) {
        let pred = conjunctive_pred(&comp, t);
        let fast: Vec<Cut> = all_cuts(&slice_conjunctive(&comp, &pred));
        let general: Vec<Cut> = all_cuts(&slice_linear(&comp, &pred));
        prop_assert_eq!(&fast, &general, "fast vs general slicer");
        let (closure, sat) = expected_slice_cuts(&comp, |st| pred.eval(st));
        let got: std::collections::BTreeSet<Cut> = fast.into_iter().collect();
        prop_assert_eq!(&got, &closure, "slice vs oracle closure");
        // Conjunctions of locals are regular: the closure adds nothing.
        prop_assert_eq!(got.len(), sat.len(), "regular predicate must be exact");
    }

    /// Grafting at spill width is the slice-set algebra: `graft_and` is
    /// intersection, `graft_or` is the sublattice closure of the union.
    #[test]
    fn wide_grafting_matches_set_algebra(
        comp in wide(),
    ) {
        let a = slice_conjunctive(&comp, &conjunctive_pred(&comp, 0));
        let b = slice_conjunctive(&comp, &conjunctive_pred(&comp, 1));
        let (cuts_a, cuts_b) = (all_cuts(&a), all_cuts(&b));

        let and_cuts: Vec<Cut> = all_cuts(&graft_and(&a, &b));
        let want_and: Vec<Cut> = cuts_a
            .iter()
            .filter(|c| cuts_b.contains(c))
            .cloned()
            .collect();
        prop_assert_eq!(and_cuts, want_and, "graft_and vs intersection");

        let or_cuts: std::collections::BTreeSet<Cut> =
            all_cuts(&graft_or(&a, &b)).into_iter().collect();
        let union: Vec<Cut> = cuts_a.iter().chain(&cuts_b).cloned().collect();
        prop_assert_eq!(or_cuts, sublattice_closure(&union), "graft_or vs closure");
    }
}

/// A random spec tree: leaves name a kind, two processes and a threshold;
/// `Or` may be empty, `And` never is (the empty `And` has no slice).
#[derive(Debug, Clone)]
enum Shape {
    Leaf(u8, usize, usize, i64),
    And(Vec<Shape>),
    Or(Vec<Shape>),
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = (0u8..6, 0usize..17, 0usize..17, 0i64..3)
        .prop_map(|(kind, a, b, t)| Shape::Leaf(kind, a, b, t));
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(Shape::And),
            prop::collection::vec(inner, 0..4).prop_map(Shape::Or),
        ]
    })
}

/// Builds the spec a [`Shape`] describes over `comp`: conjunctive,
/// regular (a conjunction or a channel bound), co-regular, k-local and
/// linear leaves on the named processes.
fn build(comp: &Computation, shape: &Shape) -> PredicateSpec {
    match shape {
        Shape::And(children) => {
            PredicateSpec::and(children.iter().map(|c| build(comp, c)).collect())
        }
        Shape::Or(children) => PredicateSpec::or(children.iter().map(|c| build(comp, c)).collect()),
        &Shape::Leaf(kind, a, b, t) => {
            let n = comp.num_processes();
            // Two distinct processes (every computation here has two).
            let b = if a % n == b % n { a + 1 } else { b };
            let (pa, pb) = (comp.process(a % n), comp.process(b % n));
            let (xa, xb) = (comp.var(pa, "x").unwrap(), comp.var(pb, "x").unwrap());
            let conj = Conjunctive::new(vec![
                LocalPredicate::int(xa, format!("x != {t}"), move |v| v != t),
                LocalPredicate::int(xb, format!("x >= {t}"), move |v| v >= t),
            ]);
            match kind {
                0 => PredicateSpec::conjunctive(conj),
                1 => PredicateSpec::regular(conj),
                2 => PredicateSpec::not_regular(conj),
                3 => PredicateSpec::not_regular(MonotoneDominates::new(xa, xb)),
                4 => PredicateSpec::klocal(KLocalPredicate::new(vec![xa, xb], "xa != xb", |v| {
                    v[0] != v[1]
                })),
                _ => PredicateSpec::linear(AtMostInTransit::new(pa, pb, t as u32)),
            }
        }
    }
}

/// The reference: slice every node with its public slicer and graft the
/// children's slices.
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

/// Same edges in the same order, the same `J(e)` for every event, and the
/// same bottom.
fn assert_same_slice(tag: &str, comp: &Computation, got: &Slice<'_>, want: &Slice<'_>) {
    assert_eq!(got.edges(), want.edges(), "{tag}: edges");
    for e in comp.events() {
        assert_eq!(got.least_cut(e), want.least_cut(e), "{tag}: J({e})");
    }
    assert_eq!(got.bottom_cut(), want.bottom_cut(), "{tag}: bottom");
}

/// Computations of a few processes with several events each, where
/// grafted slices have room to differ from one another.
fn narrow() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 2usize..=5, 2u32..=5).prop_map(|(seed, n, events)| {
        let cfg = RandomConfig {
            processes: n,
            events_per_process: events,
            send_percent: 40,
            recv_percent: 40,
            value_range: 3,
        };
        random_computation(seed, &cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `PredicateSpec::slice` hands each graft only its children's edges
    /// or rows and builds one J table; the slice must be the one grafting
    /// the children's own slices gives.
    #[test]
    fn spec_trees_slice_as_grafted_children(comp in narrow(), shape in shape()) {
        let spec = build(&comp, &shape);
        assert_same_slice(&format!("{shape:?}"), &comp, &spec.slice(&comp), &composed(&comp, &spec));
    }

    /// The same at the 16-process spill width.
    #[test]
    fn wide_spec_trees_slice_as_grafted_children(comp in wide(), shape in shape()) {
        let spec = build(&comp, &shape);
        assert_same_slice(&format!("{shape:?}"), &comp, &spec.slice(&comp), &composed(&comp, &spec));
    }
}

/// The shapes whose routing differs most from plain grafting — `Or` under
/// `Or`, `And` under `Or`, the empty `Or` in both positions, and every
/// leaf kind under an `Or` — on fixed seeds, so they run whatever the
/// random trees draw.
#[test]
fn nested_disjunctions_slice_as_grafted_children() {
    use Shape::{And, Leaf, Or};
    let leaves = |a: usize| {
        (0u8..6)
            .map(move |k| Leaf(k, a, a + 1, 1))
            .collect::<Vec<_>>()
    };
    let shapes = [
        Or(vec![Or(leaves(0)), Leaf(0, 1, 2, 1)]),
        Or(vec![
            And(vec![Leaf(0, 0, 1, 1), Leaf(2, 1, 2, 0)]),
            Leaf(4, 2, 0, 1),
        ]),
        Or(vec![Or(vec![]), Leaf(1, 0, 2, 1)]),
        And(vec![Or(vec![]), Leaf(0, 0, 1, 1)]),
        And(vec![Or(leaves(1)), Or(vec![And(leaves(2)), Or(leaves(0))])]),
        Or(vec![]),
    ];
    for n in [3usize, 4, 16] {
        for seed in 0..12u64 {
            let cfg = RandomConfig {
                processes: n,
                events_per_process: if n > 8 { 1 } else { 4 },
                send_percent: 50,
                recv_percent: 50,
                value_range: 3,
            };
            let comp = random_computation(seed, &cfg);
            for shape in &shapes {
                let spec = build(&comp, shape);
                let tag = format!("n {n} seed {seed} {shape:?}");
                assert_same_slice(&tag, &comp, &spec.slice(&comp), &composed(&comp, &spec));
            }
        }
    }
}

/// Computations of 3–6 processes whose counter `c` only grows, so that
/// `MonotoneDominates` and `BoundedDifference` are regular on them, with
/// random messages between the processes.
fn counters() -> impl Strategy<Value = Computation> {
    (any::<u64>(), 3usize..=6, 2u32..=5).prop_map(|(seed, n, events)| {
        let mut rng = XorShift64::new(seed);
        let mut b = ComputationBuilder::new(n);
        let vars: Vec<VarRef> = (0..n)
            .map(|i| b.declare_var(b.process(i), "c", Value::Int(0)))
            .collect();
        let mut values = vec![0i64; n];
        let mut sends: Vec<(EventId, usize)> = Vec::new();
        for _ in 0..n as u32 * events {
            let i = rng.index(n);
            values[i] += rng.below(3) as i64;
            let e = b.step(b.process(i), &[(vars[i], Value::Int(values[i]))]);
            match sends.iter().position(|&(_, from)| from != i) {
                // A message into the newest event closes no cycle.
                Some(k) if rng.chance(1, 2) => {
                    b.message(sends.remove(k).0, e).unwrap();
                }
                _ if rng.chance(2, 5) => sends.push((e, i)),
                _ => {}
            }
        }
        b.build().unwrap()
    })
}

/// A regular predicate on the processes `a` and `b` of `comp` (taken
/// modulo its width, and made distinct): a conjunction of local clauses,
/// `MonotoneDominates`, `BoundedDifference`, or a channel bound.
fn regular(comp: &Computation, kind: u8, a: usize, b: usize, t: i64) -> Box<dyn RegularPredicate> {
    let n = comp.num_processes();
    let (a, b) = (a % n, if a % n == b % n { (a + 1) % n } else { b % n });
    let (pa, pb) = (comp.process(a), comp.process(b));
    let (ca, cb) = (comp.var(pa, "c").unwrap(), comp.var(pb, "c").unwrap());
    match kind {
        0 => Box::new(Conjunctive::new(vec![
            LocalPredicate::int(ca, format!("c >= {t}"), move |v| v >= t),
            LocalPredicate::int(cb, format!("c <= {}", t + 2), move |v| v <= t + 2),
        ])),
        1 => Box::new(MonotoneDominates::new(ca, cb)),
        2 => Box::new(BoundedDifference::new(ca, cb, t)),
        3 => Box::new(AtMostInTransit::new(pa, pb, t as u32)),
        _ => Box::new(AtLeastInTransit::new(pa, pb, t as u32)),
    }
}

/// A predicate that claims to read every process, so every §4.3 walk
/// over it covers all of them: the reference for the support-scoped walks.
#[derive(Debug)]
struct Unscoped<'p>(&'p dyn RegularPredicate, usize);

impl Predicate for Unscoped<'_> {
    fn support(&self) -> ProcSet {
        ProcSet::all(self.1)
    }

    fn eval(&self, st: &GlobalState<'_>) -> bool {
        self.0.eval(st)
    }
}

impl LinearPredicate for Unscoped<'_> {
    fn forbidden_process(&self, st: &GlobalState<'_>) -> ProcessId {
        self.0.forbidden_process(st)
    }
}

impl PostLinearPredicate for Unscoped<'_> {
    fn retreat_process(&self, st: &GlobalState<'_>) -> ProcessId {
        self.0.retreat_process(st)
    }
}

impl RegularPredicate for Unscoped<'_> {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The regular and linear walks on a predicate's support, and the
    /// co-regular slice built on the supported base, give every event the
    /// `J(e)` and the slice the bottom that the walks over every process
    /// give. The regular walk installs edges between the support's events
    /// only.
    #[test]
    fn support_scoped_walks_match_the_all_process_walks(
        comp in counters(),
        kind in 0u8..5,
        a in 0usize..6,
        b in 0usize..6,
        t in 0i64..3,
    ) {
        let pred = regular(&comp, kind, a, b, t);
        let all = Unscoped(pred.as_ref(), comp.num_processes());
        let scoped = slice_regular(&comp, pred.as_ref());
        let support = pred.support();
        let on_support = |n: Node| match n {
            Node::Event(e) => support.contains(comp.process_of(e)),
            _ => true,
        };
        prop_assert!(
            scoped.edges().iter().all(|&(u, v)| on_support(u) && on_support(v)),
            "{:?}: edge off the support", pred
        );
        for (walk, got, want) in [
            ("regular", scoped, slice_regular(&comp, &all)),
            ("linear", slice_linear(&comp, pred.as_ref()), slice_linear(&comp, &all)),
            ("co-regular", slice_co_regular(&comp, pred.as_ref()), slice_co_regular(&comp, &all)),
        ] {
            for e in comp.events() {
                prop_assert_eq!(got.least_cut(e), want.least_cut(e), "{:?} {}: J({})", pred, walk, e);
            }
            prop_assert_eq!(got.bottom_cut(), want.bottom_cut(), "{:?} {}: bottom", pred, walk);
        }
    }
}
