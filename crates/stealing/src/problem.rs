//! The abstraction the engine parallelizes.

/// A depth-first backtracking problem with a fixed number of levels.
///
/// The engine explores the state-space tree whose nodes at depth `d` are the
/// consistent choices for level `d` given the choices made at levels
/// `0..d`.  A *solution* is a consistent assignment of all
/// [`BacktrackProblem::depth`] levels.
///
/// Implementations must be cheap to share between threads (`Sync`); all
/// per-worker mutable data lives in [`BacktrackProblem::State`], of which the
/// engine creates one instance per worker.  Because the engine transfers only
/// *prefixes of choices* between workers (never whole states), `apply`/`undo`
/// must be able to reconstruct any state from a sequence of choices.
pub trait BacktrackProblem: Sync {
    /// Per-worker mutable search state (partial assignment plus whatever
    /// auxiliary structures make `is_consistent` fast).
    type State: Send;

    /// A choice at one level, e.g. a candidate target node.  Must be small and
    /// `Copy`: tasks and stolen prefixes are built from these.
    type Choice: Copy + Send + Sync;

    /// Number of levels; a complete assignment has exactly this many choices.
    fn depth(&self) -> usize;

    /// A fresh state with no choices applied.
    fn new_state(&self) -> Self::State;

    /// Writes the raw (unchecked) candidate choices for `level` into `out`,
    /// given that levels `0..level` are applied in `state`.  `out` is cleared
    /// by the callee.
    fn candidates(&self, level: usize, state: &Self::State, out: &mut Vec<Self::Choice>);

    /// Is `choice` consistent at `level`, given the applied prefix `0..level`?
    fn is_consistent(&self, level: usize, choice: Self::Choice, state: &Self::State) -> bool;

    /// Applies `choice` at `level` (levels `0..level` are already applied).
    fn apply(&self, level: usize, choice: Self::Choice, state: &mut Self::State);

    /// Undoes the choice previously applied at `level` (deeper levels are
    /// already undone).
    fn undo(&self, level: usize, state: &mut Self::State);

    /// Called once per *counted* solution — a complete consistent
    /// assignment whose claim the run's `RunControl` granted — on the worker
    /// that found it, with all levels applied.  Implementations that need to
    /// collect solutions can use interior mutability (e.g. a mutex-protected
    /// vector); the engine itself only counts.
    fn on_solution(&self, _worker_id: usize, _state: &Self::State) {}
}
