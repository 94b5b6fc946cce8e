//! Utility substrate for the `sge` workspace.
//!
//! This crate bundles the small, dependency-free building blocks shared by the
//! graph substrate, the sequential RI/RI-DS matchers, the work-stealing runtime
//! and the experiment harness:
//!
//! * [`Bitset`] — a fixed-capacity bitset used for RI-DS domains (the paper
//!   stores domains as bitmasks so that forward checking can clear singleton
//!   values from every other domain with word-wide operations),
//! * [`stats`] — running mean / standard deviation / standard error and the
//!   geometric mean used throughout the paper's tables,
//! * [`timing`] — phase timers separating preprocessing from matching time,
//! * [`budget`] — the run contract every scheduler shares: the exact match
//!   budget, the cancellation token and the [`RunControl`] that polls them
//!   together with the deadline,
//! * [`rng`] — a tiny deterministic SplitMix64/xorshift generator for places
//!   where reproducibility matters more than statistical quality (e.g. victim
//!   selection in the work-stealing scheduler),
//! * [`clock`] — the injectable time source: [`SystemClock`] (real time, the
//!   default everywhere) and [`VirtualClock`] (simulated time for the
//!   deterministic serving-layer simulator),
//! * [`poll`] (unix only) — a raw `poll(2)` readiness primitive backing the
//!   event-driven server; the single place in the workspace where FFI is
//!   permitted.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod budget;
pub mod clock;
#[cfg(unix)]
pub mod poll;
pub mod rng;
pub mod stats;
pub mod timing;

pub use bitset::Bitset;
pub use budget::{CancelToken, MatchBudget, RunControl, POLL_INTERVAL};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use rng::SplitMix64;
pub use stats::{geometric_mean, LatencyHistogram, RunningStats, SpeedupSummary};
pub use timing::PhaseTimer;
