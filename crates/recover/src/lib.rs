//! Software fault tolerance on top of computation slicing: the paper's
//! motivating application, closed into a full loop.
//!
//! The paper (Section 1) frames slicing as the engine of a
//! detect-and-recover scheme for distributed programs: monitor a run for a
//! global fault (a consistent cut violating the invariant), and when one
//! appears, restore the system to a consistent global state whose causal
//! past is fault-free, then resume. This crate implements that loop over
//! the repository's simulator and detection engines:
//!
//! - [`recovery_line`]: the maximal consistent cut with no fault at or
//!   below it, computed from the fault specification's slice (with an
//!   exhaustive fallback and an explicit [`RecoveryLine::Unrecoverable`]
//!   degenerate case);
//! - [`recover`]: the driver — resilient detection, line computation,
//!   rollback via [`slicing_sim::resume`], controlled replay under a
//!   [`RetryPolicy`] with exponential scheduler backoff, and re-verification;
//! - [`RecoveryOutcome`]: a structured, JSON-serializable
//!   (`slicing.recovery-report/v1`) record of what happened.
//!
//! # Example
//!
//! ```
//! use slicing_recover::{recover, RecoverConfig};
//! use slicing_sim::primary_secondary::{self, PrimarySecondary};
//! use slicing_sim::{run, SimConfig};
//!
//! let sim = SimConfig { seed: 3, max_events_per_process: 8, ..SimConfig::default() };
//! let comp = run(&mut PrimarySecondary::new(3), &sim)?;
//! let cfg = RecoverConfig { sim, ..RecoverConfig::default() };
//! let outcome = recover(
//!     || PrimarySecondary::new(3),
//!     primary_secondary::violation_spec,
//!     &comp,
//!     &cfg,
//! );
//! // A fault-free run needs no recovery.
//! assert_eq!(outcome.verdict, slicing_recover::RecoveryVerdict::CleanAlready);
//! # Ok::<(), slicing_computation::BuildError>(())
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod line;
mod replay;

pub use checkpoint::{
    load_hub_checkpoint, load_hub_checkpoint as load_checkpoint, resume_monitor, rotate_and_write,
    write_hub_checkpoint,
};
pub use line::{
    max_consistent_cut_below, recovery_line, recovery_line_exhaustive, LineMethod, RecoveryLine,
};
pub use replay::{
    recover, AttemptReport, RecoverConfig, RecoveryOutcome, RecoveryVerdict, RetryPolicy,
};
