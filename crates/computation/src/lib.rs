//! Model substrate for computation slicing: distributed computations,
//! consistent cuts, and the lattice they form.
//!
//! A *distributed computation* is a finite set of events, partitioned among
//! processes and partially ordered by Lamport's happened-before relation
//! (process order plus point-to-point messages). A *consistent cut* is a
//! subset of events closed under that order — a global state the execution
//! could have passed through. The set of consistent cuts forms a
//! distributive lattice, whose size is `O(kⁿ)` for `n` processes with `k`
//! events each; *computation slicing* (the `slicing-core` crate) prunes it.
//!
//! This crate provides:
//!
//! - [`ComputationBuilder`] / [`Computation`]: construction and queries
//!   (vector clocks, consistency checks, channel states, variable values);
//! - [`Cut`] and [`GlobalState`]: cuts as per-process prefix vectors and
//!   the variable/channel view at a cut;
//! - [`CutSpace`] with [`lattice`] traversals: a trait that lets detection
//!   algorithms search computations and slices interchangeably;
//! - [`graph`]: the directed-graph toolkit (Tarjan SCC, condensation) the
//!   slicing algorithms build on;
//! - [`oracle`]: brute-force ground truth (satisfying cuts, sublattice
//!   closures) used to validate the polynomial algorithms;
//! - [`trace`]: a plain-text serialization format for computations;
//! - [`test_fixtures`]: shared fixtures, including a reconstruction of the
//!   paper's Figure 1.
//!
//! # Example
//!
//! ```
//! use slicing_computation::{ComputationBuilder, Cut, GlobalState, Value};
//!
//! // p0 sets x := 1 and sends a message that p1 receives.
//! let mut b = ComputationBuilder::new(2);
//! let x = b.declare_var(b.process(0), "x", Value::Int(0));
//! let send = b.step(b.process(0), &[(x, Value::Int(1))]);
//! let recv = b.append_event(b.process(1));
//! b.message(send, recv)?;
//! let comp = b.build()?;
//!
//! // The cut containing the receive but not the send is inconsistent.
//! assert!(!comp.is_consistent(&Cut::from(vec![1, 2])));
//!
//! // Enumerate the lattice (3 cuts here).
//! let cuts = slicing_computation::lattice::all_cuts(&comp);
//! assert_eq!(cuts.len(), 3);
//! assert_eq!(GlobalState::new(&comp, &cuts[2]).get(x), Value::Int(1));
//! # Ok::<(), slicing_computation::BuildError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod computation;
mod cut;
mod cutset;
mod event;
mod process;
mod state;
mod value;

pub mod graph;
pub mod lattice;
pub mod oracle;
pub mod render;
pub mod test_fixtures;
pub mod trace;

pub use builder::{BuildError, ComputationBuilder};
pub use computation::{Computation, VarRef};
pub use cut::{cut_heap_allocs, Cut, CutPacking};
pub use cutset::{
    hash_counts, CutBuildHasher, CutHasher, CutMap64, CutSet, CutSetStats, PackedCutMap64,
    PackedCutSet,
};
pub use event::{EventId, Message};
pub use lattice::CutSpace;
pub use process::{ProcSet, ProcSetIter, ProcessId};
pub use state::GlobalState;
pub use value::Value;
