//! Tracing from outside the program: wall-clock spans around calls into
//! each layer's public functions, and wrappers around the public traits
//! the pipeline calls back into ([`StrategySpec`]/[`Partitioner`] and
//! [`ExecutionEngine`]).
//!
//! Nothing here changes what the program computes. The wrappers forward
//! every trait method to the wrapped object unchanged (including
//! `speculation_window`/`speculate`, which decide whether the runtime
//! speculates) and only add timing around the call. The parity test in
//! `tests/parity.rs` holds them to that.
//!
//! Spans are kept in memory and summarized when the run ends. A span's
//! self time is its duration minus the part of it that its child spans
//! cover ([`self_ns`]). Execution-engine calls are too fine-grained to
//! record one span each (one per transaction), so [`TimedEngine`] sums
//! their count and busy time in atomic counters instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blockpart_core::StrategySpec;
use blockpart_ethereum::exec::{BlockOutcome, ExecRequest, ExecutionEngine, Speculation};
use blockpart_ethereum::{ExecHandle, Receipt, World};
use blockpart_obs::Trace;
use blockpart_partition::{Partition, PartitionRequest, Partitioner};
use blockpart_runtime::RuntimeConfig;
use blockpart_shard::SimulatorConfig;
use blockpart_types::ShardCount;

/// One finished wall-clock span: a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within its [`Recorder`].
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The layer boundary crossed (`partition`, `core.pair`, …).
    pub layer: &'static str,
    /// What was called (a strategy name, a pass label, …).
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Work done inside the span (vertices partitioned, for example).
    pub work: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    layer: &'static str,
    name: String,
    start_ns: u64,
}

impl OpenSpan {
    /// The id the span will carry once closed (usable as a parent).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self, layer: &'static str, name: &str, parent: Option<u64>) -> OpenSpan {
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            layer,
            name: name.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span, recording `work` units done inside it.
    pub fn close(&self, open: OpenSpan, work: u64) {
        let end_ns = self.now_ns();
        // every update is one whole push, so a buffer poisoned by a
        // panicking thread is still valid (and `Drop` must not panic)
        self.spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Span {
                id: open.id,
                parent: open.parent,
                layer: open.layer,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                work,
            });
    }

    /// Runs `f` inside a span. `f` receives the span's id so nested
    /// calls can name it as their parent.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.open(layer, name, parent);
        let out = f(open.id);
        self.close(open, 0);
        out
    }

    /// Every closed span, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of `span`: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping children count once.
pub fn self_ns(spans: &[Span], span: &Span) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in children {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// A [`StrategySpec`] that forwards to `inner` and wraps every
/// partitioner it builds in a [`TimedPartitioner`]. Each partitioner
/// carries a `core.pair` span from `build_partitioner` to its drop.
pub struct TimedStrategy {
    inner: Arc<dyn StrategySpec>,
    rec: Arc<Recorder>,
}

impl TimedStrategy {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Arc<dyn StrategySpec>, rec: Arc<Recorder>) -> Self {
        TimedStrategy { inner, rec }
    }
}

impl StrategySpec for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build_partitioner(&self, seed: u64) -> Box<dyn Partitioner> {
        let pair = self.rec.open("core.pair", self.inner.name(), None);
        let inner = self.inner.build_partitioner(seed);
        Box::new(TimedPartitioner {
            inner,
            rec: Arc::clone(&self.rec),
            parent: Some(pair.id()),
            pair: Some(pair),
        })
    }

    fn simulator_config(&self, k: ShardCount) -> SimulatorConfig {
        self.inner.simulator_config(k)
    }

    fn runtime_config(&self, k: ShardCount) -> RuntimeConfig {
        self.inner.runtime_config(k)
    }
}

/// A [`Partitioner`] that records a `partition` span per call, with the
/// graph's vertex count as its work.
pub struct TimedPartitioner {
    inner: Box<dyn Partitioner>,
    rec: Arc<Recorder>,
    parent: Option<u64>,
    pair: Option<OpenSpan>,
}

impl TimedPartitioner {
    /// Wraps `inner`; its calls become children of `parent`.
    pub fn new(inner: Box<dyn Partitioner>, rec: Arc<Recorder>, parent: Option<u64>) -> Self {
        TimedPartitioner {
            inner,
            rec,
            parent,
            pair: None,
        }
    }
}

impl Partitioner for TimedPartitioner {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let open = self.rec.open("partition", self.inner.name(), self.parent);
        let out = self.inner.partition(req);
        self.rec.close(open, req.csr.node_count() as u64);
        out
    }
}

impl Drop for TimedPartitioner {
    fn drop(&mut self) {
        if let Some(pair) = self.pair.take() {
            self.rec.close(pair, 0);
        }
    }
}

/// Call counts and busy time of one [`TimedEngine`].
#[derive(Debug, Default)]
pub struct EngineCounters {
    exec_calls: AtomicU64,
    exec_ns: AtomicU64,
    speculate_calls: AtomicU64,
    speculate_ns: AtomicU64,
    speculated: AtomicU64,
}

/// A snapshot of [`EngineCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineTotals {
    /// Transactions executed at their commit point (direct or in a
    /// block), including 2PC scratch executions and retries.
    pub exec_calls: u64,
    /// Seconds spent in those executions.
    pub exec_s: f64,
    /// `speculate` calls.
    pub speculate_calls: u64,
    /// Seconds spent speculating.
    pub speculate_s: f64,
    /// Transactions speculated.
    pub speculated: u64,
}

impl EngineCounters {
    /// The counters' current values.
    pub fn totals(&self) -> EngineTotals {
        EngineTotals {
            exec_calls: self.exec_calls.load(Ordering::Relaxed),
            exec_s: self.exec_ns.load(Ordering::Relaxed) as f64 / 1e9,
            speculate_calls: self.speculate_calls.load(Ordering::Relaxed),
            speculate_s: self.speculate_ns.load(Ordering::Relaxed) as f64 / 1e9,
            speculated: self.speculated.load(Ordering::Relaxed),
        }
    }
}

/// An [`ExecutionEngine`] that forwards to `inner` and counts its calls.
/// The counters are statistics that publish no other data, so they use
/// relaxed atomics; the runtime may call the engine from several shard
/// worker threads at once.
pub struct TimedEngine {
    inner: ExecHandle,
    counters: Arc<EngineCounters>,
}

impl TimedEngine {
    /// Wraps `inner` and returns the handle to give the runtime plus the
    /// counters to read afterwards.
    pub fn wrap(inner: ExecHandle) -> (ExecHandle, Arc<EngineCounters>) {
        let counters = Arc::new(EngineCounters::default());
        let engine = TimedEngine {
            inner,
            counters: Arc::clone(&counters),
        };
        (ExecHandle::new(engine), counters)
    }

    fn exec<T>(&self, txs: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.exec_calls.fetch_add(txs as u64, Ordering::Relaxed);
        c.exec_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl ExecutionEngine for TimedEngine {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute_block(&self, world: &mut World, block: &[ExecRequest]) -> BlockOutcome {
        self.exec(block.len(), || self.inner.execute_block(world, block))
    }

    fn execute_one(&self, world: &mut World, req: &ExecRequest) -> Receipt {
        self.exec(1, || self.inner.execute_one(world, req))
    }

    fn speculation_window(&self) -> usize {
        self.inner.speculation_window()
    }

    fn speculate(&self, world: &World, reqs: &[ExecRequest]) -> Vec<Speculation> {
        let start = Instant::now();
        let out = self.inner.speculate(world, reqs);
        let ns = start.elapsed().as_nanos() as u64;
        let c = &self.counters;
        c.speculate_calls.fetch_add(1, Ordering::Relaxed);
        c.speculate_ns.fetch_add(ns, Ordering::Relaxed);
        c.speculated.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn execute_block_traced(
        &self,
        world: &mut World,
        block: &[ExecRequest],
        trace: &mut Trace,
    ) -> BlockOutcome {
        self.exec(block.len(), || {
            self.inner.execute_block_traced(world, block, trace)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: "t",
            name: String::new(),
            start_ns,
            end_ns,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),  // overlaps child 1
            span(3, Some(0), 90, 120), // runs past the parent's end
            span(4, Some(1), 10, 30),  // grandchild: not subtracted twice
        ];
        assert_eq!(self_ns(&spans, &spans[0]), 100 - 30 - 10);
        assert_eq!(self_ns(&spans, &spans[1]), 0);
    }

    #[test]
    fn closed_spans_keep_their_parent() {
        let rec = Recorder::new();
        rec.time("outer", "a", None, |outer| {
            rec.time("inner", "b", Some(outer), |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].dur_ns() >= spans[1].dur_ns());
    }
}
