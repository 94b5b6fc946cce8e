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
//! * [`ParallelConfig::with_stealing`]`(false)` — the same initial
//!   distribution with stealing disabled (the "no work stealing" baseline of
//!   Fig. 3),
//! * [`rayon_pool`] — first-level dynamic parallelism over the root
//!   candidates, each expanded with the sequential matcher (what you get "for
//!   free" from a library scheduler such as rayon; useful to quantify what
//!   the paper's bespoke scheme adds).
//!
//! Every scheduler takes a prepared [`sge_ri::SearchContext`] through its
//! `*_prepared` entry point, so preprocessing is paid once per instance no
//! matter how many runs are executed — this is what the unified `sge::Engine`
//! builds on.
//!
//! # Example
//!
//! ```
//! use sge_graph::generators;
//! use sge_parallel::{enumerate_prepared, ParallelConfig};
//! use sge_ri::{Algorithm, CandidateMode, Planner, SearchContext};
//!
//! let pattern = generators::directed_cycle(3, 0);
//! let target = generators::clique(5, 0);
//! let plan = Planner::default().plan(&pattern, &target, Algorithm::RiDsSiFc);
//! let ctx = SearchContext::new(&pattern, &target, &plan, CandidateMode::default(), None, None);
//! let config = ParallelConfig::default().with_workers(4);
//! let result = enumerate_prepared(&ctx, &config, None);
//! assert_eq!(result.matches, 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod problem;
pub mod rayon_pool;
pub mod runner;

pub use problem::SubgraphProblem;
pub use rayon_pool::enumerate_rayon_prepared;
pub use runner::{enumerate_prepared, ParallelConfig, ParallelResult};
