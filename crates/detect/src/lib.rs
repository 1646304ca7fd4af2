//! Predicate detection engines for distributed computations.
//!
//! Detecting `possibly: b` — does some consistent cut of the computation
//! satisfy `b`? — is NP-complete in general because the cut lattice has
//! `O(kⁿ)` elements. This crate implements the approaches the paper
//! compares, all instrumented with deterministic time/space metrics:
//!
//! - [`detect_bfs`]: explicit lattice enumeration (Cooper–Marzullo
//!   style) over any [`CutSpace`] — a computation **or a slice**, which is
//!   how slicing plugs in. It is level-order: it keeps only two lattice
//!   layers of cuts alive (peak memory O(widest layer), not O(lattice))
//!   with the verdict, witness and explored count of a global-visited-set
//!   BFS;
//! - [`detect_pom`]: selective search with persistent sets and sleep sets
//!   — the partial-order-methods baseline (Stoller–Unnikrishnan–Liu) the
//!   paper evaluates against;
//! - [`detect_reverse_search`]: polynomial-space enumeration (no visited
//!   set), in the spirit of Alagar–Venkatesan's space-efficient traversal;
//! - [`detect_with_slicing`]: the paper's pipeline — compute the slice for
//!   a [`PredicateSpec`](slicing_core::PredicateSpec), then search its few
//!   cuts evaluating the exact predicate;
//! - [`detect_controllable`], [`definitely`] and [`invariant`]: the other
//!   modalities, as extensions; the two path searches (`definitely: b` is
//!   `¬controllable: ¬b`) run on the level-order engine;
//! - [`detect_chain`]: graceful degradation — an ordered list of the
//!   above engines under per-engine budgets, falling through on
//!   exhaustion. [`detect_resilient`] runs the default chain (slicing,
//!   POM, BFS); [`hybrid_chain`] is the paper's Section 5.1 hybrid (POM
//!   under a small memory budget, then slicing).
//!
//! [`Engine`] is the one registry of engine names (`slicing`, `hybrid`,
//! `pom`, `bfs`, `reverse`): the CLI, the chains and the test kit all
//! parse and dispatch through it.
//!
//! The [`testkit`] module (and the [`engine_matrix!`](engine_matrix)
//! macro) run any of these engines against the brute-force lattice oracle
//! on a shared corpus — the differential harness the engines are locked
//! down by.
//!
//! # Example
//!
//! ```
//! use slicing_computation::test_fixtures::figure1;
//! use slicing_predicates::{Conjunctive, LocalPredicate};
//! use slicing_core::PredicateSpec;
//! use slicing_detect::{detect_with_slicing, Limits};
//!
//! let comp = figure1();
//! let x1 = comp.var(comp.process(0), "x1").unwrap();
//! let x3 = comp.var(comp.process(2), "x3").unwrap();
//! let spec = PredicateSpec::conjunctive(Conjunctive::new(vec![
//!     LocalPredicate::int(x1, "x1 > 1", |x| x > 1),
//!     LocalPredicate::int(x3, "x3 <= 3", |x| x <= 3),
//! ]));
//! let outcome = detect_with_slicing(&comp, &spec, &Limits::none());
//! assert!(outcome.detected());
//! assert!(outcome.search.cuts_explored <= 6); // slice, not computation
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod enumerate;
mod metrics;
mod modalities;
mod monitor;
mod multiplex;
mod pom;
mod resilient;
mod reverse_search;
pub mod serve_checkpoint;
mod slicing;
pub mod testkit;

pub use enumerate::{detect_bfs, detect_lean};
pub use metrics::{AbortReason, Detection, Limits};
pub use modalities::{
    controllable, definitely, detect_controllable, invariant, invariant_via_slicing,
};
pub use monitor::OnlineMonitor;
pub use multiplex::{
    AlarmReport, GcConfig, GroupState, HubAlarm, HubState, HubStats, MonitorHub, SlotState,
    TenantState,
};
pub use pom::detect_pom;
pub use resilient::{
    detect_chain, detect_resilient, hybrid_chain, suggested_pom_budget, Attempt, Engine,
    ParseEngineError, ResilientConfig, ResilientDetection, SpecPredicate,
};
pub use reverse_search::detect_reverse_search;
pub use slicing::{detect_on_slice, detect_with_slicing, SliceDetection};

pub use slicing_computation::CutSpace;
