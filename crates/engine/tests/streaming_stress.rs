//! Stress regression for streaming enumeration under the work-stealing
//! scheduler.
//!
//! A streaming consumer makes the match visitor *block* (bounded-channel
//! backpressure), which radically changes steal timing.  This exposed a
//! termination-detection hole where the Dijkstra ring could complete a white
//! round while a stolen task group was still in flight in a thief's mailbox,
//! silently dropping its subtree — runs reported fewer matches than exist.
//! The engine now holds the ring token while a steal request is pending;
//! this test hammers that window.

use sge_engine::{Engine, RunConfig, Scheduler};
use sge_ri::Algorithm;
use std::sync::Arc;

#[test]
fn streaming_never_drops_matches_under_work_stealing() {
    let pattern = Arc::new(sge_graph::generators::directed_cycle(3, 0));
    let target = Arc::new(sge_graph::generators::clique(5, 0)); // 60 embeddings
    let engine = Engine::prepare(pattern, target, Algorithm::RiDsSiFc);
    let reference = engine.run(&RunConfig::new(Scheduler::work_stealing(2)));
    assert_eq!(reference.matches, 60);
    for trial in 0..300 {
        let mut rows = 0u64;
        // Capacity 2 keeps workers blocked in `send` most of the time.
        let outcome = engine.run_streaming(
            &RunConfig::new(Scheduler::work_stealing(2)),
            2,
            |_mapping| {
                rows += 1;
                true
            },
        );
        assert_eq!(outcome.matches, 60, "trial {trial}: dropped matches");
        assert_eq!(rows, 60, "trial {trial}: dropped rows");
        assert_eq!(outcome.states, reference.states, "trial {trial}");
        assert!(!outcome.cancelled, "trial {trial}");
    }
}
