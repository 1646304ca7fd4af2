//! **computation-slicing** — software fault tolerance of distributed
//! programs using computation slicing.
//!
//! A Rust implementation of the system described in Mittal & Garg,
//! *"Software Fault Tolerance of Distributed Programs Using Computation
//! Slicing"* (ICDCS 2003): record a distributed execution as a
//! [`Computation`], describe a global fault as a predicate over process
//! variables and channels, compute the **slice** — the smallest
//! sub-state-space guaranteed to contain every consistent cut satisfying
//! the predicate — and search the slice instead of the exponentially
//! larger cut lattice.
//!
//! # Crates
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`computation`] | `slicing-computation` | events, vector clocks, cuts, the cut lattice, oracles, traces |
//! | [`predicates`] | `slicing-predicates` | predicate classes (local, conjunctive, regular, linear, k-local, …) and the expression language |
//! | [`slicer`] | `slicing-core` | the slicing algorithms and grafting |
//! | [`detect`] | `slicing-detect` | detection engines: enumeration, partial-order methods, reverse search, slice-then-search, graceful degradation |
//! | [`sim`] | `slicing-sim` | protocol simulators (primary–secondary, database partitioning, token ring) and fault injection |
//! | [`recovery`] | `slicing-recover` | recovery lines, rollback and controlled replay — the paper's fault-tolerance loop |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Quickstart
//!
//! Detect the paper's introduction predicate
//! `(x1·x2 + x3 < 5) ∧ (x1 > 1) ∧ (x3 ≤ 3)` on the Figure 1 computation by
//! slicing with respect to its regular conjuncts and evaluating the full
//! predicate on the six remaining cuts (instead of all twenty-eight):
//!
//! ```
//! use computation_slicing::computation::test_fixtures::figure1;
//! use computation_slicing::predicates::expr::parse_predicate;
//! use computation_slicing::{detect_bfs, slice_conjunctive, Limits};
//!
//! let comp = figure1();
//! let weak = parse_predicate(&comp, "x1@0 > 1 && x3@2 <= 3")?;
//! let full = parse_predicate(&comp, "x1@0 * x2@1 + x3@2 < 5 && x1@0 > 1 && x3@2 <= 3")?;
//!
//! let slice = slice_conjunctive(&comp, &weak.to_conjunctive().unwrap());
//! let outcome = detect_bfs(&slice, &comp, &full, &Limits::none());
//! assert!(outcome.detected());
//! assert!(outcome.cuts_explored <= 6);
//! # Ok::<(), computation_slicing::predicates::expr::ParseError>(())
//! ```

#![warn(missing_docs)]

pub use slicing_computation as computation;
pub use slicing_core as slicer;
pub use slicing_detect as detect;
pub use slicing_predicates as predicates;
pub use slicing_recover as recovery;
pub use slicing_sim as sim;

pub use slicing_computation::{
    BuildError, Computation, ComputationBuilder, Cut, CutSpace, EventId, GlobalState, ProcSet,
    ProcessId, Value, VarRef,
};
pub use slicing_core::{
    graft_and, graft_or, slice_conjunctive, slice_decomposable, slice_klocal, slice_linear,
    slice_postlinear, slice_regular, OnlineSlicer, PredicateSpec, Slice, SliceStats,
};
pub use slicing_detect::{
    definitely, detect_bfs, detect_chain, detect_pom, detect_resilient, detect_reverse_search,
    detect_with_slicing, hybrid_chain, AlarmReport, Detection, HubAlarm, HubStats, Limits,
    MonitorHub, OnlineMonitor, ResilientConfig, ResilientDetection, SliceDetection,
};
pub use slicing_predicates::{
    AtLeastInTransit, AtMostInTransit, BoundedDifference, Conjunctive, FnPredicate,
    KLocalPredicate, LinearPredicate, LocalPredicate, PendingAtMost, PostLinearPredicate,
    Predicate, RegularPredicate, SentPendingAtMost,
};
pub use slicing_recover::{
    recover, recovery_line, RecoverConfig, RecoveryLine, RecoveryOutcome, RecoveryVerdict,
    RetryPolicy,
};
