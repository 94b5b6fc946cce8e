//! Streaming match observation shared by every scheduler.
//!
//! The unified `sge::Engine` supports streaming matches out of a run instead
//! of (or in addition to) collecting them.  Sequential search calls the
//! visitor from the single search thread; the parallel schedulers call it
//! concurrently from worker threads, so implementations must be [`Sync`] and
//! do their own interior-mutable aggregation (an atomic counter, a mutexed
//! vec, a channel, …).
//!
//! [`ChannelVisitor`] is the bounded-channel bridge behind
//! `Engine::run_streaming`: matches flow through a `std::sync::mpsc`
//! sync-channel to a consumer on another thread, so enumeration and
//! consumption (e.g. socket writes) overlap with memory bounded by the
//! channel capacity, and a vanished consumer cooperatively cancels the run.
//!
//! [`MatchSink`] is what every scheduler hands its matches to: the run's
//! optional visitor plus its mapping collector.

use crate::search::{SearchContext, WorkerState};
use sge_graph::NodeId;
use sge_util::CancelToken;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

/// Observer invoked once per discovered embedding, from whichever worker
/// thread found it.
///
/// `mapping[p]` is the target node the pattern node `p` is mapped to (indexed
/// by *pattern node id*, not by search position — the order every scheduler
/// agrees on).  The slice is only valid for the duration of the call; copy it
/// if it must outlive the callback.
pub trait MatchVisitor: Sync {
    /// Called for every match.  `worker_id` identifies the finding worker
    /// (always 0 under the sequential scheduler).
    fn on_match(&self, worker_id: usize, mapping: &[NodeId]);
}

/// A visitor that does nothing; useful as a default.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopVisitor;

impl MatchVisitor for NoopVisitor {
    fn on_match(&self, _worker_id: usize, _mapping: &[NodeId]) {}
}

/// Collects mappings under a mutex, up to a limit — the collector half of
/// [`MatchSink`], behind `collect_mappings` under every scheduler.
///
/// Once full, further matches are ignored without taking the lock, so the
/// collector stays off the hot path after the limit is reached; callers can
/// also consult [`CollectingVisitor::is_full`] to skip building the mapping
/// at all.
#[derive(Debug, Default)]
pub struct CollectingVisitor {
    limit: usize,
    collected: std::sync::Mutex<Vec<Vec<NodeId>>>,
    full: std::sync::atomic::AtomicBool,
}

impl CollectingVisitor {
    /// Collects at most `limit` mappings (0 = collect nothing).
    pub fn new(limit: usize) -> Self {
        CollectingVisitor {
            limit,
            collected: std::sync::Mutex::new(Vec::new()),
            full: std::sync::atomic::AtomicBool::new(limit == 0),
        }
    }

    /// `true` once the limit is reached: further `on_match` calls are no-ops,
    /// so callers need not materialize mappings for this collector anymore.
    pub fn is_full(&self) -> bool {
        self.full.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Takes the collected mappings out of the visitor.
    pub fn take(&self) -> Vec<Vec<NodeId>> {
        std::mem::take(&mut *self.collected.lock().expect("collector mutex poisoned"))
    }
}

impl MatchVisitor for CollectingVisitor {
    fn on_match(&self, _worker_id: usize, mapping: &[NodeId]) {
        if self.is_full() {
            return;
        }
        let mut guard = self.collected.lock().expect("collector mutex poisoned");
        if guard.len() < self.limit {
            guard.push(mapping.to_vec());
        }
        if guard.len() >= self.limit {
            self.full.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Where one run's matches go: an optional streaming visitor and a
/// collector of up to `collect_limit` mappings.  Every scheduler records
/// its matches here, from whichever worker found them.
pub struct MatchSink<'v> {
    visitor: Option<&'v dyn MatchVisitor>,
    collector: CollectingVisitor,
}

impl<'v> MatchSink<'v> {
    /// Streams matches to `visitor` (if any) and collects up to
    /// `collect_limit` mappings (0 = none).
    pub fn new(visitor: Option<&'v dyn MatchVisitor>, collect_limit: usize) -> Self {
        MatchSink {
            visitor,
            collector: CollectingVisitor::new(collect_limit),
        }
    }

    /// `true` when nothing observes individual matches, so a scheduler may
    /// count them without materializing any mapping.
    pub fn is_count_only(&self) -> bool {
        self.visitor.is_none() && self.collector.limit == 0
    }

    /// Hands one complete match, found by worker `worker_id`, to the
    /// observers.
    pub fn record(&self, worker_id: usize, ctx: &SearchContext<'_>, state: &WorkerState) {
        // Build the mapping only for observers that still want it: once the
        // collector is full, a visitor-less run stops allocating per match.
        let collecting = !self.collector.is_full();
        if self.visitor.is_none() && !collecting {
            return;
        }
        let mapping = ctx.mapping_by_pattern_node(state);
        if let Some(visitor) = self.visitor {
            visitor.on_match(worker_id, &mapping);
        }
        if collecting {
            self.collector.on_match(worker_id, &mapping);
        }
    }

    /// The collected mappings, sorted lexicographically: workers race for
    /// the collector, so sorting is what makes a complete collection
    /// identical under every scheduler.
    pub fn take_sorted(&self) -> Vec<Vec<NodeId>> {
        let mut mappings = self.collector.take();
        mappings.sort_unstable();
        mappings
    }
}

/// Bridges matches into a **bounded** channel consumed by another thread.
///
/// `on_match` blocks when the channel is full (backpressure: enumeration
/// never runs further ahead of the consumer than the channel capacity), and
/// when the receiving end has been dropped — the consumer is gone, e.g. a
/// streaming client disconnected — it fires the shared [`CancelToken`] so
/// the schedulers stop the search instead of enumerating into the void.
/// After the token has fired, `on_match` returns immediately without
/// touching the channel.
#[derive(Debug)]
pub struct ChannelVisitor {
    sender: SyncSender<Vec<NodeId>>,
    cancel: Arc<CancelToken>,
}

impl ChannelVisitor {
    /// Wraps the sending half of a `std::sync::mpsc::sync_channel` together
    /// with the cancellation token the run was started with.
    pub fn new(sender: SyncSender<Vec<NodeId>>, cancel: Arc<CancelToken>) -> Self {
        ChannelVisitor { sender, cancel }
    }

    /// `true` once the consumer vanished (or anyone else cancelled the run).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

impl MatchVisitor for ChannelVisitor {
    fn on_match(&self, _worker_id: usize, mapping: &[NodeId]) {
        if self.cancel.is_cancelled() {
            return;
        }
        if self.sender.send(mapping.to_vec()).is_err() {
            // Receiver dropped: the consumer will never read another row.
            self.cancel.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_visitor_respects_limit() {
        let visitor = CollectingVisitor::new(2);
        assert!(!visitor.is_full());
        for i in 0..5u32 {
            visitor.on_match(0, &[i, i + 1]);
        }
        assert!(visitor.is_full());
        let collected = visitor.take();
        assert_eq!(collected, vec![vec![0, 1], vec![1, 2]]);
        assert!(visitor.take().is_empty(), "take drains the collector");
    }

    #[test]
    fn zero_limit_collects_nothing() {
        let visitor = CollectingVisitor::new(0);
        visitor.on_match(1, &[4, 5, 6]);
        assert!(visitor.take().is_empty());
        NoopVisitor.on_match(0, &[1]);
    }

    #[test]
    fn channel_visitor_streams_and_cancels_on_dropped_receiver() {
        let (sender, receiver) = std::sync::mpsc::sync_channel(2);
        let visitor = ChannelVisitor::new(sender, Arc::new(CancelToken::new()));
        visitor.on_match(0, &[1, 2]);
        visitor.on_match(1, &[3, 4]);
        assert_eq!(receiver.recv().unwrap(), vec![1, 2]);
        assert_eq!(receiver.recv().unwrap(), vec![3, 4]);
        assert!(!visitor.is_cancelled());
        drop(receiver);
        visitor.on_match(0, &[5, 6]);
        assert!(visitor.is_cancelled(), "dropped receiver fires the token");
        // Further matches are dropped without touching the channel.
        visitor.on_match(0, &[7, 8]);
        assert!(visitor.is_cancelled());
    }
}
