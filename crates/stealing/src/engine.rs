//! The work-stealing engine: shared arrays, the worker loop and the driver.
//!
//! The worker main loop is a direct transcription of Fig. 2 of the paper:
//!
//! ```text
//! while not terminated:
//!     if q.is_empty():
//!         acquire_task(worker)
//!     task = q.pop()
//!     work_available[worker] = not q.is_empty()
//!     process_task_requests(worker)
//!     execute(task)
//! ```
//!
//! Three shared arrays coordinate the workers (Section 3.2):
//!
//! * `work_available` — one boolean per worker: does it currently have
//!   stealable tasks?
//! * `requests` — one slot per worker; thieves CAS their own id into a
//!   victim's slot (only one request per victim at a time, as in the paper's
//!   use of `std::atomic_compare_exchange_weak`),
//! * `transfers` — one cell per *thief*, through which the victim hands over a
//!   stolen task group together with the prefix of choices it needs.
//!
//! The run's match budget, deadline and cancellation live in the caller's
//! [`RunControl`]; whenever it reports the run stopped, the worker that
//! noticed forces termination.

use crate::problem::BacktrackProblem;
use crate::stats::{RunResult, WorkerStats};
use crate::task::{PrivateDeque, TaskGroup, Transfer};
use crate::termination::Termination;
use sge_util::{RunControl, SplitMix64, POLL_INTERVAL};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sentinel meaning "no pending steal request".
const NO_REQUEST: usize = usize::MAX;

/// Configuration of one parallel run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of worker threads.
    pub num_workers: usize,
    /// Task-group (coalescing) size; the paper settles on 4.
    pub task_group_size: usize,
    /// When `false`, workers only process their initial share (the "no work
    /// stealing" baseline of Fig. 3).
    pub steal_enabled: bool,
    /// Seed for the (deterministic per worker) victim-selection RNG.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            num_workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            task_group_size: 4,
            steal_enabled: true,
            seed: 0x5EED_1234_ABCD,
        }
    }
}

impl EngineConfig {
    /// Convenience constructor with `workers` threads and the paper's default
    /// task-group size of 4.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            num_workers: workers,
            ..EngineConfig::default()
        }
    }

    /// Sets the task-group size.
    pub fn task_group_size(mut self, size: usize) -> Self {
        self.task_group_size = size.max(1);
        self
    }

    /// Enables or disables stealing.
    pub fn steal(mut self, enabled: bool) -> Self {
        self.steal_enabled = enabled;
        self
    }
}

/// One thief's transfer mailbox.
enum TransferCell<C> {
    /// No answer yet.
    Empty,
    /// The victim had nothing to give (or is shutting down).
    Reject,
    /// A stolen task group plus the prefix needed to run it.
    Task(Transfer<C>),
}

/// State shared by all workers of one run.
struct Shared<C> {
    work_available: Vec<AtomicBool>,
    requests: Vec<AtomicUsize>,
    transfers: Vec<Mutex<TransferCell<C>>>,
    termination: Termination,
}

impl<C> Shared<C> {
    fn new(workers: usize) -> Self {
        Shared {
            work_available: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            requests: (0..workers).map(|_| AtomicUsize::new(NO_REQUEST)).collect(),
            transfers: (0..workers)
                .map(|_| Mutex::new(TransferCell::Empty))
                .collect(),
            termination: Termination::new(workers),
        }
    }
}

struct Worker<'a, P: BacktrackProblem> {
    id: usize,
    problem: &'a P,
    shared: &'a Shared<P::Choice>,
    config: &'a EngineConfig,
    control: &'a RunControl,
    deque: PrivateDeque<P::Choice>,
    state: P::State,
    /// Choices applied so far, by level; `path.len()` is the applied depth.
    path: Vec<P::Choice>,
    total_depth: usize,
    stats: WorkerStats,
    rng: SplitMix64,
    cand_buf: Vec<P::Choice>,
    ticks: u64,
}

impl<'a, P: BacktrackProblem> Worker<'a, P> {
    fn new(
        id: usize,
        problem: &'a P,
        shared: &'a Shared<P::Choice>,
        config: &'a EngineConfig,
        control: &'a RunControl,
    ) -> Self {
        Worker {
            id,
            problem,
            shared,
            config,
            control,
            deque: PrivateDeque::new(),
            state: problem.new_state(),
            path: Vec::new(),
            total_depth: problem.depth(),
            stats: WorkerStats {
                worker_id: id,
                ..WorkerStats::default()
            },
            rng: SplitMix64::new(config.seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            cand_buf: Vec::new(),
            ticks: 0,
        }
    }

    /// Undoes applied levels until only `depth` of them remain.
    fn rewind_to(&mut self, depth: usize) {
        while self.path.len() > depth {
            let level = self.path.len() - 1;
            self.problem.undo(level, &mut self.state);
            self.path.pop();
        }
    }

    /// Executes one task: apply the choice and either record a solution or
    /// spawn the (pre-checked) children as new task groups at the front of the
    /// private deque.
    fn execute(&mut self, depth: usize, choice: P::Choice, checked: bool) {
        self.rewind_to(depth);
        self.stats.tasks_executed += 1;
        if !checked {
            // Root-distribution tasks are enqueued unchecked (Section 3.3);
            // their consistency check happens here and counts as a state.
            self.stats.states += 1;
            if !self.problem.is_consistent(depth, choice, &self.state) {
                return;
            }
        }
        self.problem.apply(depth, choice, &mut self.state);
        self.path.push(choice);

        if depth + 1 == self.total_depth {
            self.record_solution();
            return;
        }

        let mut cands = std::mem::take(&mut self.cand_buf);
        self.problem.candidates(depth + 1, &self.state, &mut cands);
        let mut consistent: Vec<P::Choice> = Vec::with_capacity(cands.len());
        for &c in cands.iter() {
            // Consistency is verified *before* spawning (Section 3.1), so
            // thieves do not steal dead ends; each check is a visited state.
            self.stats.states += 1;
            if self.problem.is_consistent(depth + 1, c, &self.state) {
                consistent.push(c);
            }
        }
        self.cand_buf = cands;

        if consistent.is_empty() {
            return;
        }
        let group_size = self.config.task_group_size.max(1);
        // Push chunks in reverse so the first chunk ends up at the very front
        // and the sequential (depth-first) exploration order is preserved.
        let mut chunks: Vec<TaskGroup<P::Choice>> = consistent
            .chunks(group_size)
            .map(|chunk| TaskGroup::new(depth + 1, chunk.to_vec(), true))
            .collect();
        while let Some(group) = chunks.pop() {
            self.deque.push_front(group);
        }
    }

    /// Counts and reports the complete assignment in `self.state` if the
    /// run's budget still has room; a claim that stops the run forces
    /// termination so all workers stop promptly.
    fn record_solution(&mut self) {
        if self.control.claim() {
            self.stats.solutions += 1;
            self.problem.on_solution(self.id, &self.state);
        }
        if self.control.is_stopped() {
            self.shared.termination.force();
        }
    }

    /// Answers at most one pending steal request: hand over the back group (and
    /// the prefix of choices it needs) if we have one to spare, reject
    /// otherwise.
    fn process_requests(&mut self) {
        let thief = self.shared.requests[self.id].load(Ordering::SeqCst);
        if thief == NO_REQUEST || thief == self.id {
            return;
        }
        let answer = if self.shared.termination.is_terminated() {
            TransferCell::Reject
        } else {
            match self.deque.steal_back() {
                Some(group) => {
                    let prefix = self.path[..group.depth].to_vec();
                    self.stats.tasks_sent += 1;
                    // Sending work may re-activate an idle worker: mark this
                    // worker black for the termination ring.
                    self.shared.termination.mark_black(self.id);
                    TransferCell::Task(Transfer { prefix, group })
                }
                None => TransferCell::Reject,
            }
        };
        *self.shared.transfers[thief].lock().expect("mutex poisoned") = answer;
        // Accept new requests only after the answer is visible to the thief.
        self.shared.requests[self.id].store(NO_REQUEST, Ordering::SeqCst);
        self.shared.work_available[self.id].store(!self.deque.is_empty(), Ordering::SeqCst);
    }

    /// Installs a stolen transfer: replay the prefix, then adopt the group.
    fn install(&mut self, transfer: Transfer<P::Choice>) {
        self.rewind_to(0);
        for (level, &choice) in transfer.prefix.iter().enumerate() {
            self.problem.apply(level, choice, &mut self.state);
            self.path.push(choice);
        }
        self.deque.push_front(transfer.group);
        self.shared.work_available[self.id].store(true, Ordering::SeqCst);
    }

    /// Polls the run control on the first tick and every
    /// [`POLL_INTERVAL`] after, forcing termination once it stops.
    fn tick(&mut self) {
        if self.ticks.is_multiple_of(POLL_INTERVAL) && self.control.poll() {
            self.shared.termination.force();
        }
        self.ticks += 1;
    }

    /// Receiver-initiated steal loop: repeatedly request work from a random
    /// victim until a task group arrives or termination is detected.  Returns
    /// `true` when work was obtained.
    fn acquire(&mut self) -> bool {
        self.shared.work_available[self.id].store(false, Ordering::SeqCst);
        let workers = self.shared.work_available.len();
        let mut spins: u64 = 0;
        loop {
            if self.shared.termination.is_terminated() {
                return false;
            }
            self.tick();
            // While idle we still answer requests (with a rejection) and keep
            // the termination token moving.
            self.process_requests();
            if self.shared.termination.poll_idle(self.id) {
                return false;
            }

            // Pick a random victim that advertises work.
            let victim = self.rng.next_below(workers);
            if victim != self.id && self.shared.work_available[victim].load(Ordering::SeqCst) {
                self.stats.steal_requests += 1;
                if self.shared.requests[victim]
                    .compare_exchange(NO_REQUEST, self.id, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Wait for the victim's answer.  The token is NOT
                    // forwarded while the request is pending: a transfer the
                    // victim already committed to may still be sitting unread
                    // in our mailbox, and the ring would otherwise be able to
                    // complete a white round around us and declare
                    // termination with that stolen task group in flight
                    // (dropping its whole subtree).  Holding the token here
                    // makes delivery look instantaneous to the Dijkstra ring;
                    // every victim answers every request (even while idle or
                    // winding down), so the wait always ends.
                    let mut waits: u64 = 0;
                    loop {
                        if self.shared.termination.is_terminated() {
                            return false;
                        }
                        self.tick();
                        self.process_requests();
                        let mut cell = self.shared.transfers[self.id]
                            .lock()
                            .expect("mutex poisoned");
                        match std::mem::replace(&mut *cell, TransferCell::Empty) {
                            TransferCell::Empty => {
                                drop(cell);
                                waits += 1;
                                if waits.is_multiple_of(8) {
                                    // Oversubscribed hosts (fewer cores than
                                    // workers) need the victim to get CPU time
                                    // to answer; yield rather than burn quanta.
                                    std::thread::yield_now();
                                } else {
                                    std::hint::spin_loop();
                                }
                            }
                            TransferCell::Reject => break,
                            TransferCell::Task(transfer) => {
                                drop(cell);
                                self.stats.steals += 1;
                                self.install(transfer);
                                return true;
                            }
                        }
                    }
                }
            }

            spins += 1;
            if spins.is_multiple_of(8) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// The worker main loop (paper Fig. 2).
    fn run(&mut self) {
        let start = Instant::now();
        loop {
            self.tick();
            if self.shared.termination.is_terminated() {
                break;
            }
            if self.deque.is_empty() {
                if !self.config.steal_enabled {
                    // Static initial partition only (Fig. 3 baseline).
                    break;
                }
                if !self.acquire() {
                    break;
                }
                continue;
            }
            let (depth, choice, checked) = self.deque.pop_task().expect("deque reported non-empty");
            self.shared.work_available[self.id].store(!self.deque.is_empty(), Ordering::SeqCst);
            self.process_requests();
            self.execute(depth, choice, checked);
        }
        // Final courtesy: make sure no thief is left waiting on us.
        self.process_requests();
        self.stats.busy_seconds = start.elapsed().as_secs_f64();
    }
}

/// Runs the parallel backtracking search over `problem` under `control`,
/// which bounds the solutions counted (exactly `min(max_matches, total)`
/// reach [`BacktrackProblem::on_solution`]), the wall-clock time and
/// cancellation, and afterwards tells which of them stopped the run.
///
/// The children of the state-space root are distributed round-robin over the
/// workers' private deques (Section 3.3); from then on the receiver-initiated
/// work-stealing protocol balances the load.
///
/// A problem with `depth() == 0` has exactly one solution: the root.
pub fn run<P: BacktrackProblem>(
    problem: &P,
    config: &EngineConfig,
    control: &RunControl,
) -> RunResult {
    let start = Instant::now();
    let workers = config.num_workers.max(1);
    let total_depth = problem.depth();
    let shared: Shared<P::Choice> = Shared::new(workers);

    if total_depth == 0 {
        let mut root = Worker::new(0, problem, &shared, config, control);
        root.record_solution();
        return RunResult::from_workers(vec![root.stats], start.elapsed().as_secs_f64());
    }

    // Initial work distribution: one task per child of the root, dealt
    // round-robin, enqueued unchecked.
    let init_state = problem.new_state();
    let mut roots: Vec<P::Choice> = Vec::new();
    problem.candidates(0, &init_state, &mut roots);
    let mut per_worker: Vec<Vec<P::Choice>> = vec![Vec::new(); workers];
    for (i, choice) in roots.into_iter().enumerate() {
        per_worker[i % workers].push(choice);
    }
    let group_size = config.task_group_size.max(1);

    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = per_worker
            .into_iter()
            .enumerate()
            .map(|(id, share)| {
                scope.spawn(move || {
                    let mut worker = Worker::new(id, problem, shared, config, control);
                    for chunk in share.chunks(group_size) {
                        worker
                            .deque
                            .push_back(TaskGroup::new(0, chunk.to_vec(), false));
                    }
                    shared.work_available[id].store(!worker.deque.is_empty(), Ordering::SeqCst);
                    worker.run();
                    worker.stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    });

    RunResult::from_workers(worker_stats, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sge_util::CancelToken;
    use std::sync::Arc;
    use std::time::Duration;

    fn unlimited() -> RunControl {
        RunControl::new(None, None, None)
    }

    /// N-Queens as a [`BacktrackProblem`]: level = row, choice = column.
    struct NQueens {
        n: usize,
    }

    struct QueensState {
        columns: Vec<u32>,
    }

    impl BacktrackProblem for NQueens {
        type State = QueensState;
        type Choice = u32;

        fn depth(&self) -> usize {
            self.n
        }

        fn new_state(&self) -> QueensState {
            QueensState {
                columns: Vec::new(),
            }
        }

        fn candidates(&self, _level: usize, _state: &QueensState, out: &mut Vec<u32>) {
            out.clear();
            out.extend(0..self.n as u32);
        }

        fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
            state
                .columns
                .iter()
                .enumerate()
                .take(level)
                .all(|(row, &col)| {
                    col != choice && (level - row) as i64 != (choice as i64 - col as i64).abs()
                })
        }

        fn apply(&self, _level: usize, choice: u32, state: &mut QueensState) {
            state.columns.push(choice);
        }

        fn undo(&self, _level: usize, state: &mut QueensState) {
            state.columns.pop();
        }
    }

    fn queens_solutions(n: usize) -> u64 {
        // Known values of the N-Queens sequence (OEIS A000170).
        [1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724][n]
    }

    #[test]
    fn single_worker_matches_known_counts() {
        for n in [4usize, 5, 6, 7, 8] {
            let problem = NQueens { n };
            let control = unlimited();
            let result = run(&problem, &EngineConfig::with_workers(1), &control);
            assert_eq!(result.solutions, queens_solutions(n), "n={n}");
            assert!(!control.timed_out());
        }
    }

    #[test]
    fn multiple_workers_match_known_counts() {
        for workers in [2usize, 3, 4, 8] {
            let problem = NQueens { n: 8 };
            let result = run(&problem, &EngineConfig::with_workers(workers), &unlimited());
            assert_eq!(result.solutions, 92, "workers={workers}");
            assert_eq!(result.workers.len(), workers);
        }
    }

    #[test]
    fn states_are_independent_of_worker_count() {
        let problem = NQueens { n: 7 };
        let sequential = run(&problem, &EngineConfig::with_workers(1), &unlimited());
        for workers in [2usize, 4, 6] {
            let parallel = run(&problem, &EngineConfig::with_workers(workers), &unlimited());
            assert_eq!(parallel.states, sequential.states, "workers={workers}");
            assert_eq!(parallel.solutions, sequential.solutions);
        }
    }

    #[test]
    fn task_group_size_does_not_change_results() {
        let problem = NQueens { n: 7 };
        let reference = run(&problem, &EngineConfig::with_workers(3), &unlimited()).solutions;
        for group_size in [1usize, 2, 4, 8, 16] {
            let result = run(
                &problem,
                &EngineConfig::with_workers(3).task_group_size(group_size),
                &unlimited(),
            );
            assert_eq!(result.solutions, reference, "group_size={group_size}");
        }
    }

    #[test]
    fn no_steal_mode_still_finds_all_solutions() {
        let problem = NQueens { n: 8 };
        let result = run(
            &problem,
            &EngineConfig::with_workers(4).steal(false),
            &unlimited(),
        );
        assert_eq!(result.solutions, 92);
        assert_eq!(result.steals, 0);
    }

    #[test]
    fn stealing_happens_with_imbalanced_initial_work() {
        // With 8 workers on an 9-queens instance there are only 9 root tasks
        // with very different subtree sizes — stealing should occur.  Whether
        // it *does* depends on the OS schedule: on a single-core host a
        // worker often drains its whole subtree before a would-be thief ever
        // runs, so the steal assertion holds over a bounded retry loop while
        // the solution count must be exact on every run.
        let problem = NQueens { n: 9 };
        let mut steals = 0;
        for _ in 0..20 {
            let result = run(&problem, &EngineConfig::with_workers(8), &unlimited());
            assert_eq!(result.solutions, 352);
            steals += result.steals;
            if steals > 0 {
                break;
            }
        }
        assert!(
            steals > 0,
            "expected at least one steal with imbalanced roots across 20 schedules"
        );
    }

    #[test]
    fn more_workers_than_root_tasks() {
        let problem = NQueens { n: 5 };
        let result = run(&problem, &EngineConfig::with_workers(12), &unlimited());
        assert_eq!(result.solutions, 10);
    }

    #[test]
    fn unsolvable_instance_terminates_with_zero_solutions() {
        let problem = NQueens { n: 3 };
        for workers in [1usize, 2, 4] {
            let result = run(&problem, &EngineConfig::with_workers(workers), &unlimited());
            assert_eq!(result.solutions, 0, "workers={workers}");
        }
    }

    #[test]
    fn zero_depth_problem_has_one_solution() {
        let problem = NQueens { n: 0 };
        let result = run(&problem, &EngineConfig::with_workers(4), &unlimited());
        assert_eq!(result.solutions, 1);
    }

    #[test]
    fn solution_budget_stops_early_and_is_exact() {
        let problem = NQueens { n: 8 };
        for workers in [1usize, 3, 6] {
            let control = RunControl::new(Some(10), None, None);
            let result = run(&problem, &EngineConfig::with_workers(workers), &control);
            assert_eq!(result.solutions, 10, "workers={workers}");
            assert!(control.limit_hit());
            let counted: u64 = result.workers.iter().map(|w| w.solutions).sum();
            assert_eq!(counted, 10);
        }
        // A budget larger than the solution count changes nothing.
        let control = RunControl::new(Some(1000), None, None);
        let result = run(&problem, &EngineConfig::with_workers(2), &control);
        assert_eq!(result.solutions, 92);
        assert!(!control.limit_hit());
        // A zero budget yields zero solutions, even for zero-depth problems.
        let zero = || RunControl::new(Some(0), None, None);
        let result = run(&problem, &EngineConfig::with_workers(2), &zero());
        assert_eq!(result.solutions, 0);
        let result = run(&NQueens { n: 0 }, &EngineConfig::with_workers(2), &zero());
        assert_eq!(result.solutions, 0);
    }

    #[test]
    fn slow_solution_observers_lose_no_solutions() {
        // A blocking on_solution (the streaming bridge blocks on a bounded
        // channel) drastically changes steal timing; counts must not change.
        struct SlowQueens {
            inner: NQueens,
        }
        impl BacktrackProblem for SlowQueens {
            type State = QueensState;
            type Choice = u32;
            fn depth(&self) -> usize {
                self.inner.depth()
            }
            fn new_state(&self) -> QueensState {
                self.inner.new_state()
            }
            fn candidates(&self, level: usize, state: &QueensState, out: &mut Vec<u32>) {
                self.inner.candidates(level, state, out);
            }
            fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
                self.inner.is_consistent(level, choice, state)
            }
            fn apply(&self, level: usize, choice: u32, state: &mut QueensState) {
                self.inner.apply(level, choice, state);
            }
            fn undo(&self, level: usize, state: &mut QueensState) {
                self.inner.undo(level, state);
            }
            fn on_solution(&self, _worker_id: usize, _state: &QueensState) {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        for trial in 0..20 {
            let problem = SlowQueens {
                inner: NQueens { n: 7 },
            };
            let result = run(&problem, &EngineConfig::with_workers(2), &unlimited());
            assert_eq!(result.solutions, 40, "trial {trial}");
        }
    }

    #[test]
    fn pre_cancelled_token_stops_the_run_with_zero_work() {
        let problem = NQueens { n: 9 };
        let token = Arc::new(CancelToken::new());
        token.cancel();
        for workers in [1usize, 4] {
            let control = RunControl::new(None, None, Some(Arc::clone(&token)));
            let result = run(&problem, &EngineConfig::with_workers(workers), &control);
            assert!(control.cancelled(), "workers={workers}");
            assert_eq!(result.solutions, 0, "workers={workers}");
            assert_eq!(result.states, 0, "workers={workers}");
            assert!(!control.limit_hit());
            assert!(!control.timed_out());
        }
    }

    #[test]
    fn cancellation_mid_run_discards_later_solutions() {
        /// Cancels its own run after observing `after` solutions.
        struct SelfCancelling {
            inner: NQueens,
            token: Arc<CancelToken>,
            seen: std::sync::atomic::AtomicU64,
            after: u64,
        }
        impl BacktrackProblem for SelfCancelling {
            type State = QueensState;
            type Choice = u32;
            fn depth(&self) -> usize {
                self.inner.depth()
            }
            fn new_state(&self) -> QueensState {
                self.inner.new_state()
            }
            fn candidates(&self, level: usize, state: &QueensState, out: &mut Vec<u32>) {
                self.inner.candidates(level, state, out);
            }
            fn is_consistent(&self, level: usize, choice: u32, state: &QueensState) -> bool {
                self.inner.is_consistent(level, choice, state)
            }
            fn apply(&self, level: usize, choice: u32, state: &mut QueensState) {
                self.inner.apply(level, choice, state);
            }
            fn undo(&self, level: usize, state: &mut QueensState) {
                self.inner.undo(level, state);
            }
            fn on_solution(&self, _worker_id: usize, _state: &QueensState) {
                if self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.after {
                    self.token.cancel();
                }
            }
        }
        let token = Arc::new(CancelToken::new());
        let problem = SelfCancelling {
            inner: NQueens { n: 8 },
            token: Arc::clone(&token),
            seen: std::sync::atomic::AtomicU64::new(0),
            after: 5,
        };
        let control = RunControl::new(None, None, Some(token));
        let result = run(&problem, &EngineConfig::with_workers(3), &control);
        assert!(control.cancelled());
        assert!(result.solutions < 92, "cancellation cut the run short");
        assert!(result.solutions >= 5, "counted solutions before the cancel");
    }

    #[test]
    fn time_limit_forces_termination() {
        let problem = NQueens { n: 10 };
        let control = RunControl::new(None, Some(Duration::from_millis(1)), None);
        let result = run(&problem, &EngineConfig::with_workers(2), &control);
        // Either it finished incredibly fast or it was cut off; both are fine,
        // but the run must return promptly and report consistently.
        if control.timed_out() {
            assert!(result.solutions <= 724);
        } else {
            assert_eq!(result.solutions, 724);
        }
    }

    #[test]
    fn worker_stats_are_populated() {
        let problem = NQueens { n: 7 };
        let result = run(&problem, &EngineConfig::with_workers(3), &unlimited());
        assert_eq!(result.workers.len(), 3);
        let total: u64 = result.workers.iter().map(|w| w.states).sum();
        assert_eq!(total, result.states);
        assert!(result.workers.iter().all(|w| w.busy_seconds >= 0.0));
        assert!(result.elapsed_seconds > 0.0);
    }
}
