//! Parallel subgraph enumeration: parallel RI and parallel RI-DS-SI-FC.
//!
//! This crate is the paper's headline system.  It plugs the sequential
//! search machinery of `sge-ri` (candidate generation, consistency checks,
//! domains, orderings) into the private-deque work-stealing engine of
//! `sge-stealing`:
//!
//! * a *task* is a `(position, candidate target node)` pair — the partial
//!   mapping is **not** stored in tasks; it travels only when a task group is
//!   stolen,
//! * the children of the state-space root (`µ1 ↦ v_t` for every candidate
//!   `v_t`) are distributed round-robin over the workers' private deques,
//! * task groups of a configurable size (default 4) are the unit of stealing,
//! * Dijkstra-ring termination detection ends the search.
//!
//! Two ablation schedulers are also provided:
//!
//! * `EngineConfig { steal_enabled: false, .. }` — the same initial
//!   distribution with stealing disabled (the "no work stealing" baseline of
//!   Fig. 3; `Scheduler::WorkStealing { stealing: false, .. }` in
//!   `sge-engine`),
//! * [`rayon_pool`] — first-level dynamic parallelism over the root
//!   candidates, each expanded with the sequential driver (what you get "for
//!   free" from a library scheduler such as rayon; useful to quantify what
//!   the paper's bespoke scheme adds).
//!
//! Every scheduler takes a prepared [`sge_ri::SearchContext`] through its
//! `*_prepared` entry point, so preprocessing is paid once per instance no
//! matter how many runs are executed, and the same run contract as the
//! sequential driver: a [`sge_util::RunControl`] (match budget, deadline,
//! cancellation) and a [`sge_ri::MatchSink`] (visitor and collector).  This
//! is what the unified `sge::Engine` builds on.
//!
//! # Example
//!
//! ```
//! use sge_graph::generators;
//! use sge_parallel::enumerate_prepared;
//! use sge_ri::{Algorithm, CandidateMode, MatchSink, Planner, SearchContext};
//! use sge_stealing::EngineConfig;
//! use sge_util::RunControl;
//!
//! let pattern = generators::directed_cycle(3, 0);
//! let target = generators::clique(5, 0);
//! let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDsSiFc);
//! let ctx = SearchContext::new(&pattern, &target, &plan, CandidateMode::default(), None, None);
//! let control = RunControl::new(None, None, None);
//! let sink = MatchSink::new(None, 0);
//! let result = enumerate_prepared(&ctx, &EngineConfig::with_workers(4), &control, &sink);
//! assert_eq!(result.solutions, 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod problem;
pub mod rayon_pool;
pub mod runner;

pub use problem::SubgraphProblem;
pub use rayon_pool::enumerate_rayon_prepared;
pub use runner::{enumerate_prepared, worker_stats};
