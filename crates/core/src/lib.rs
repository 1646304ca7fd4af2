//! Computation slicing: concise representations of the consistent cuts
//! satisfying a predicate (Mittal & Garg, ICDCS 2003).
//!
//! The *slice* of a computation with respect to a predicate `b` is the
//! directed graph with the fewest consistent cuts that still contains every
//! consistent cut satisfying `b` — equivalently, by Birkhoff's theorem, the
//! smallest sublattice of the cut lattice containing the satisfying cuts.
//! Detecting a fault then means searching the slice's few cuts instead of
//! the computation's exponentially many.
//!
//! # Slicing algorithms
//!
//! | Predicate class | Function | Cost | Result |
//! |---|---|---|---|
//! | conjunctive | [`slice_conjunctive`] | `O(|E|)` | exact (lean) |
//! | regular | [`slice_regular`] | `O(k²|E|)` | exact (lean) |
//! | linear | [`slice_linear`] | `O(nk|E|)` | smallest sublattice |
//! | post-linear | [`slice_postlinear`] | `O(n²|E|)` | smallest sublattice |
//! | decomposable regular | [`slice_decomposable`] | `O((n + k²s)|E|)` | exact (lean) |
//! | k-local, constant k | [`slice_klocal`] | `O(n·m^(k-1)·|E|)` | smallest sublattice |
//! | co-regular (`¬b`, `b` regular) | [`slice_co_regular`] | `O(nk|E|²)` | exact |
//! | `∧`/`∨` combinations | [`PredicateSpec::slice`] | polynomial | approximate (sound) |
//!
//! `k` is the number of processes the predicate reads: the §4.3 walks
//! that yield constraint edges work on those alone (Section 4.1).
//!
//! Slices compose with *grafting*: [`graft_and`] intersects two slices'
//! cut sets, [`graft_or`] produces the smallest slice containing their
//! union (Section 3.4).
//!
//! [`OnlineSlicer`] stores a computation as its events arrive — the
//! substrate of online detection, the paper's future-work direction. Each
//! observation updates a least-cut clock in O(n); messages (including
//! late, out-of-order ones) re-time only the affected part of history,
//! and cyclic ones are rejected in O(1) with a typed error. The slice of
//! the prefix is the offline slicers' on
//! [`snapshot_computation`](OnlineSlicer::snapshot_computation).
//!
//! # Example: Figure 1
//!
//! ```
//! use slicing_computation::test_fixtures::figure1;
//! use slicing_computation::lattice::count_cuts;
//! use slicing_predicates::{Conjunctive, LocalPredicate};
//! use slicing_core::slice_conjunctive;
//!
//! let comp = figure1();
//! let x1 = comp.var(comp.process(0), "x1").unwrap();
//! let x3 = comp.var(comp.process(2), "x3").unwrap();
//! let pred = Conjunctive::new(vec![
//!     LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
//!     LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
//! ]);
//! let slice = slice_conjunctive(&comp, &pred);
//! assert_eq!(count_cuts(&comp, None).value(), 28);
//! assert_eq!(slice.count_cuts(None).value(), 6);
//! ```

#![warn(missing_docs)]

mod approx;
mod compile;
mod conjunctive;
mod coregular;
mod decomposable;
pub mod dot;
mod graft;
mod incremental;
mod klocal;
mod linear;
mod postlinear;
mod projection;
mod slice;
mod stats;

pub use approx::PredicateSpec;
pub use compile::{compile_expr, compile_predicate};
pub use conjunctive::slice_conjunctive;
pub use coregular::{slice_co_regular, slice_complement_of};
pub use decomposable::slice_decomposable;
pub use graft::{graft_and, graft_and_all, graft_or, graft_or_all, GraftKey};
pub use incremental::{CompactionStats, OnlineSlicer, SlicerState};
pub use klocal::slice_klocal;
pub use linear::{slice_linear, slice_regular};
pub use postlinear::slice_postlinear;
pub use projection::Projection;
pub use slice::{Edge, Node, Slice};
pub use stats::SliceStats;
