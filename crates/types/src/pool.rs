//! The persistent worker pool both sharded detectors (telescope and
//! honeypot fleet) run on:
//!
//! * **long-lived workers** — [`ShardPool::new`] spawns the worker
//!   threads once; each worker *owns* a slice of the per-shard states for
//!   its whole life (shard `k` lives on worker `k % workers`), so state
//!   never migrates and never needs locking;
//! * **bounded channels** — each worker has its own
//!   [`std::sync::mpsc::sync_channel`]; a slow worker back-pressures the
//!   dispatcher instead of letting queues grow without bound;
//! * **zero-copy batch routing** — a chunk is shared as one
//!   [`Routed`] view (`Arc`'d item vector + per-shard index lists built
//!   by the stage's `shard_of_source` key); dispatch hands every worker
//!   the same two pointers instead of cloning batches into per-shard
//!   vectors;
//! * **one barrier** — [`ShardPool::shutdown`] drains every queue, joins
//!   every worker and returns every shard's finished output, so
//!   per-shard results merge exactly once per run;
//! * **one worker runs inline** — a pool with a single worker (`threads
//!   = 1`, or one shard) spawns no thread and has no channel: the caller
//!   thread runs the same owned-shards `process`/`finish` loop inside
//!   [`ShardPool::dispatch`] and [`ShardPool::shutdown`].
//!
//! A panicking shard must fail the run, not hang it: every send failure
//! is treated as a dead worker, the pool tears all channels down,
//! joins every thread and re-raises the original panic payload on the
//! caller thread ([`std::panic::resume_unwind`]); an inline shard's panic
//! re-raises straight from the `dispatch` that hit it. Operations on a
//! pool that was already shut down return [`PoolError::ShutDown`] instead.
//!
//! ## Profiling
//!
//! Every pool carries a name and a [`PoolMetrics`] block: per-worker
//! busy/idle wall time, processed job counts and channel queue-depth
//! high-water marks. Queue and job counts are always-on relaxed atomics
//! (a handful per *batch*, never per item); the wall-clock measurements
//! additionally require `dosscope_obs::enabled()` so the disabled
//! pipeline never reads the clock. An inline worker's queue depth is 1
//! while it processes and its idle time is zero: it never waits on a
//! channel. On shutdown — including the panic-propagation path, so a
//! failed run still leaves a coherent partial snapshot — the metrics
//! are published to the global `obs` registry as `pool.<name>.*`
//! gauges ([`PoolMetricsSnapshot::gauges`] lists them);
//! [`ShardPool::metrics`] exposes the same numbers directly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Error for operations on a pool whose workers are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// [`ShardPool::shutdown`] already ran: the states were consumed and
    /// there is nothing left to dispatch to or snapshot.
    ShutDown,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::ShutDown => write!(f, "shard pool is already shut down"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A chunk of items routed to shards without copying the items: the chunk
/// itself is shared (`Arc`) and each shard owns a list of indexes into it.
///
/// Building a `Routed` is the only per-item routing work the pipeline
/// does — one key evaluation and one `u32` push per item. Workers then
/// walk their own index list and read the items in place through the
/// shared vector; nothing is cloned or re-partitioned. A single shard
/// owns the whole chunk, so it gets no index list and walks the chunk
/// itself.
#[derive(Debug, Clone)]
pub struct Routed<T> {
    items: Arc<Vec<T>>,
    /// One index list per shard; empty when a single shard owns all.
    owners: Vec<Vec<u32>>,
}

impl<T> Routed<T> {
    /// Route a shared chunk across `shards` shards with the stage's key
    /// function (`shards = 0` is treated as 1; one shard owns every item
    /// without evaluating the key). Relative order within a shard is the
    /// chunk order, which is what per-victim state needs.
    pub fn build(items: Arc<Vec<T>>, shards: usize, key: impl Fn(&T) -> usize) -> Routed<T> {
        let shards = shards.max(1);
        debug_assert!(items.len() <= u32::MAX as usize, "chunk too large to index");
        if shards == 1 {
            return Routed {
                items,
                owners: Vec::new(),
            };
        }
        let mut owners: Vec<Vec<u32>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, item) in items.iter().enumerate() {
            let s = key(item);
            debug_assert!(s < shards, "shard key out of range");
            owners[s.min(shards - 1)].push(i as u32);
        }
        Routed { items, owners }
    }

    /// Number of shards this chunk was routed across.
    pub fn shards(&self) -> usize {
        self.owners.len().max(1)
    }

    /// All items of the chunk, in chunk order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The items one shard owns, in chunk order.
    pub fn owned(&self, shard: usize) -> impl Iterator<Item = &T> {
        let (all, picks): (&[T], &[u32]) = match self.owners.get(shard) {
            Some(picks) => (&[], picks),
            None => {
                debug_assert!(self.owners.is_empty() && shard == 0, "no shard {shard}");
                (&self.items, &[])
            }
        };
        all.iter()
            .chain(picks.iter().map(|&i| &self.items[i as usize]))
    }

    /// How many items one shard owns.
    pub fn owned_len(&self, shard: usize) -> usize {
        match self.owners.get(shard) {
            Some(picks) => picks.len(),
            None => self.items.len(),
        }
    }
}

/// Per-worker instrumentation: all fields are relaxed atomics updated
/// by exactly one worker (busy/idle/jobs) or the dispatcher (queue).
#[derive(Default)]
struct WorkerMetrics {
    /// Wall time spent processing jobs (only while telemetry enabled).
    busy_ns: AtomicU64,
    /// Wall time spent blocked in `recv` (only while telemetry enabled).
    idle_ns: AtomicU64,
    /// Batches processed (always on).
    batches: AtomicU64,
    /// Jobs currently queued or in flight on this worker's channel.
    queue_len: AtomicU64,
    /// High-water mark of `queue_len` (always on).
    queue_hwm: AtomicU64,
}

/// Instrumentation block shared by a pool, its workers and (via
/// [`ShardPool::metrics`]) the caller. Lives in an `Arc`, so snapshots
/// remain readable after shutdown — including after a worker panic.
pub struct PoolMetrics {
    name: &'static str,
    shards: usize,
    workers: Vec<WorkerMetrics>,
    /// Dispatch calls routed into the pool (always on).
    dispatches: AtomicU64,
}

/// Plain-data snapshot of one worker's [`PoolMetrics`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerMetricsSnapshot {
    /// Wall nanoseconds processing jobs (0 unless telemetry was on).
    pub busy_ns: u64,
    /// Wall nanoseconds blocked waiting for work (0 unless telemetry
    /// was on).
    pub idle_ns: u64,
    /// Batches this worker processed.
    pub batches: u64,
    /// Highest number of jobs simultaneously queued or in flight.
    pub queue_hwm: u64,
}

/// Plain-data snapshot of a pool's [`PoolMetrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMetricsSnapshot {
    /// The pool's registry name (`pool.<name>.*`).
    pub name: &'static str,
    /// Number of shards the pool was built with.
    pub shards: usize,
    /// One entry per worker thread.
    pub workers: Vec<WorkerMetricsSnapshot>,
    /// Dispatch calls routed into the pool.
    pub dispatches: u64,
}

impl PoolMetricsSnapshot {
    /// The `pool.<name>.*` gauges shutdown publishes, as `(name, value)`
    /// pairs: pool-wide fields first, then each worker's in worker order.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let base = format!("pool.{}", self.name);
        let mut out = vec![
            (format!("{base}.workers"), self.workers.len() as u64),
            (format!("{base}.shards"), self.shards as u64),
            (format!("{base}.dispatches"), self.dispatches),
        ];
        for (k, w) in self.workers.iter().enumerate() {
            out.push((format!("{base}.w{k}.busy_us"), w.busy_ns / 1_000));
            out.push((format!("{base}.w{k}.idle_us"), w.idle_ns / 1_000));
            out.push((format!("{base}.w{k}.batches"), w.batches));
            out.push((format!("{base}.w{k}.queue_hwm"), w.queue_hwm));
        }
        out
    }
}

impl WorkerMetrics {
    /// Run one batch through `work`: count it, and time it while
    /// telemetry is enabled.
    fn run(&self, work: impl FnOnce()) {
        let start = dosscope_obs::enabled().then(Instant::now);
        work();
        self.batches.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = start {
            self.busy_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

impl PoolMetrics {
    fn new(name: &'static str, shards: usize, workers: usize) -> PoolMetrics {
        PoolMetrics {
            name,
            shards,
            workers: (0..workers).map(|_| WorkerMetrics::default()).collect(),
            dispatches: AtomicU64::new(0),
        }
    }

    /// Record a job entering worker `w`'s queue (dispatcher side).
    fn enqueue(&self, w: usize) {
        let m = &self.workers[w];
        let depth = m.queue_len.fetch_add(1, Ordering::Relaxed) + 1;
        m.queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Copy the current values into a plain snapshot.
    pub fn snapshot(&self) -> PoolMetricsSnapshot {
        PoolMetricsSnapshot {
            name: self.name,
            shards: self.shards,
            workers: self
                .workers
                .iter()
                .map(|w| WorkerMetricsSnapshot {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    batches: w.batches.load(Ordering::Relaxed),
                    queue_hwm: w.queue_hwm.load(Ordering::Relaxed),
                })
                .collect(),
            dispatches: self.dispatches.load(Ordering::Relaxed),
        }
    }

    /// Publish [`PoolMetricsSnapshot::gauges`] into the global telemetry
    /// registry (no-op while telemetry is disabled).
    fn publish(&self) {
        if !dosscope_obs::enabled() {
            return;
        }
        for (name, value) in self.snapshot().gauges() {
            dosscope_obs::gauge(&name).set(value);
        }
    }
}

/// The per-shard states one worker owns, with the stage's `process` and
/// `finish` functions.
struct OwnedShards<S, P, F> {
    shards: usize,
    owned: Vec<(usize, S)>,
    process: P,
    finish: F,
}

/// One worker's [`OwnedShards`], with the state and function types
/// erased. A worker thread runs `process` once per received batch and
/// `finish` when its channel closes; an inline pool runs the same two
/// calls on the caller thread.
trait ShardSet<B, O>: Send {
    /// Process one batch against every owned shard, in shard order.
    fn process(&mut self, batch: &B);
    /// Finish every owned shard: `(shard, output)` pairs.
    fn finish(self: Box<Self>) -> Vec<(usize, O)>;
}

impl<B, O, S, P, F> ShardSet<B, O> for OwnedShards<S, P, F>
where
    S: Send,
    P: Fn(&mut S, usize, usize, &B) + Send,
    F: Fn(S) -> O + Send,
{
    fn process(&mut self, batch: &B) {
        for (shard, state) in self.owned.iter_mut() {
            (self.process)(state, *shard, self.shards, batch);
        }
    }

    fn finish(self: Box<Self>) -> Vec<(usize, O)> {
        let finish = self.finish;
        self.owned
            .into_iter()
            .map(|(shard, state)| (shard, finish(state)))
            .collect()
    }
}

/// One worker's channel (a shared batch per message) and thread.
struct Lane<B, O> {
    tx: Option<SyncSender<Arc<B>>>,
    handle: Option<JoinHandle<Vec<(usize, O)>>>,
}

impl<B: Send + Sync + 'static, O: Send + 'static> Lane<B, O> {
    /// Spawn worker `w` over its owned shards, behind a channel of
    /// `depth` batches.
    fn spawn(
        w: usize,
        mut owned: Box<dyn ShardSet<B, O>>,
        depth: usize,
        metrics: Arc<PoolMetrics>,
    ) -> Lane<B, O> {
        let (tx, rx) = sync_channel::<Arc<B>>(depth);
        let handle = std::thread::Builder::new()
            .name(format!("shard-worker-{w}"))
            .spawn(move || {
                let wm = &metrics.workers[w];
                loop {
                    // Clock reads only happen while telemetry is enabled;
                    // the counters are always on.
                    let wait = dosscope_obs::enabled().then(Instant::now);
                    let Ok(batch) = rx.recv() else { break };
                    wm.queue_len.fetch_sub(1, Ordering::Relaxed);
                    if let Some(t) = wait {
                        wm.idle_ns
                            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                    wm.run(|| owned.process(&batch));
                }
                owned.finish()
            })
            .expect("spawn shard worker");
        Lane {
            tx: Some(tx),
            handle: Some(handle),
        }
    }
}

/// Where a pool's shards run.
enum Engine<B, O> {
    /// Two or more worker threads, each behind its own channel.
    Threads(Vec<Lane<B, O>>),
    /// One worker: the caller thread itself runs every shard inside
    /// [`ShardPool::dispatch`]. `None` once the shards were finished or
    /// dropped.
    Inline(Option<Box<dyn ShardSet<B, O>>>),
}

/// The first panic payload a pool caught from a shard.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// A persistent pool of workers, each owning a fixed slice of per-shard
/// states.
///
/// Type parameters: `B` is the dispatched batch type (shared read-only
/// across workers), `O` the per-shard output [`ShardPool::shutdown`]
/// returns. The per-shard state a worker owns and mutates never leaves
/// its worker, so it is a parameter of [`ShardPool::new`] only.
pub struct ShardPool<B, O> {
    shards: usize,
    engine: Engine<B, O>,
    metrics: Arc<PoolMetrics>,
    down: bool,
}

impl<B, O> ShardPool<B, O>
where
    B: Send + Sync + 'static,
    O: Send + 'static,
{
    /// Build the pool: `shards` states (built by `init`, in shard order,
    /// on the calling thread) distributed over `min(threads, shards)`
    /// long-lived workers (`threads > shards` simply caps at one worker
    /// per shard; 0 of either is treated as 1). `name` identifies the
    /// pool in telemetry (`pool.<name>.*`). With one worker no thread is
    /// spawned: the caller thread runs every shard inside
    /// [`ShardPool::dispatch`] and [`ShardPool::shutdown`].
    ///
    /// For every dispatched batch a worker calls
    /// `process(state, shard, shards, &batch)` once per shard it owns, in
    /// shard order. At shutdown it calls `finish(state)` per shard and
    /// returns the outputs.
    pub fn new<S, I, P, F>(
        name: &'static str,
        shards: usize,
        threads: usize,
        queue_depth: usize,
        mut init: I,
        process: P,
        finish: F,
    ) -> ShardPool<B, O>
    where
        S: Send + 'static,
        I: FnMut(usize) -> S,
        P: Fn(&mut S, usize, usize, &B) + Send + Clone + 'static,
        F: Fn(S) -> O + Send + Clone + 'static,
    {
        let shards = shards.max(1);
        let workers = threads.max(1).min(shards);
        let depth = queue_depth.max(1);
        let metrics = Arc::new(PoolMetrics::new(name, shards, workers));
        let mut states: Vec<Option<(usize, S)>> =
            (0..shards).map(|s| Some((s, init(s)))).collect();
        let mut owned_by = |w: usize| -> Box<dyn ShardSet<B, O>> {
            Box::new(OwnedShards {
                shards,
                owned: states
                    .iter_mut()
                    .skip(w)
                    .step_by(workers)
                    .map(|slot| slot.take().expect("each shard is owned exactly once"))
                    .collect(),
                process: process.clone(),
                finish: finish.clone(),
            })
        };
        let engine = if workers == 1 {
            Engine::Inline(Some(owned_by(0)))
        } else {
            Engine::Threads(
                (0..workers)
                    .map(|w| Lane::spawn(w, owned_by(w), depth, metrics.clone()))
                    .collect(),
            )
        };
        ShardPool {
            shards,
            engine,
            metrics,
            down: false,
        }
    }

    /// Number of shards (== per-shard states).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of workers: spawned threads, or 1 for a pool that runs on
    /// the caller thread.
    pub fn workers(&self) -> usize {
        self.metrics.workers.len()
    }

    /// True once [`ShardPool::shutdown`] has consumed the states.
    pub fn is_shut_down(&self) -> bool {
        self.down
    }

    /// Snapshot of the pool's instrumentation counters. Readable at any
    /// point in the pool's life, including after [`ShardPool::shutdown`]
    /// (where data-path calls return [`PoolError::ShutDown`]) and after
    /// a worker panic was propagated.
    pub fn metrics(&self) -> PoolMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Dispatch one batch to every worker (each processes it against all
    /// of its shards). Returns [`PoolError::ShutDown`] after `shutdown`;
    /// re-raises a shard's panic, on an inline pool straight from this
    /// call and on a threaded pool once a send finds the worker dead.
    pub fn dispatch(&mut self, batch: B) -> Result<(), PoolError> {
        if self.down {
            return Err(PoolError::ShutDown);
        }
        self.metrics.dispatches.fetch_add(1, Ordering::Relaxed);
        match &mut self.engine {
            Engine::Inline(slot) => {
                let set = slot.as_mut().expect("live inline pool has its shards");
                let wm = &self.metrics.workers[0];
                self.metrics.enqueue(0);
                let ran = catch_unwind(AssertUnwindSafe(|| wm.run(|| set.process(&batch))));
                wm.queue_len.fetch_sub(1, Ordering::Relaxed);
                if let Err(payload) = ran {
                    // The shards are half-updated: drop them unfinished,
                    // as a dead worker thread does.
                    *slot = None;
                    self.close();
                    std::panic::resume_unwind(payload);
                }
            }
            Engine::Threads(lanes) => {
                let batch = Arc::new(batch);
                let mut dead = false;
                for (w, lane) in lanes.iter().enumerate() {
                    let tx = lane.tx.as_ref().expect("live pool lane has a sender");
                    self.metrics.enqueue(w);
                    if tx.send(batch.clone()).is_err() {
                        dead = true;
                    }
                }
                if dead {
                    // A send failed, so a worker is gone — and workers
                    // only leave by panicking.
                    let (_, payload) = self.close();
                    std::panic::resume_unwind(
                        payload.expect("worker disconnected without panicking"),
                    );
                }
            }
        }
        Ok(())
    }

    /// Drain every queue, finish every shard and return the per-shard
    /// outputs in shard order. The pool is unusable afterwards (further
    /// calls return [`PoolError::ShutDown`]); a shard that panicked
    /// re-raises here.
    pub fn shutdown(&mut self) -> Result<Vec<O>, PoolError> {
        if self.down {
            return Err(PoolError::ShutDown);
        }
        match self.close() {
            (outputs, None) => Ok(outputs),
            (_, Some(payload)) => std::panic::resume_unwind(payload),
        }
    }
}

impl<B, O> ShardPool<B, O> {
    /// Tear the pool down: close every channel and join every worker, or
    /// finish the inline shards, then publish the metrics — also on a
    /// failed run, so it still leaves a coherent (partial) telemetry
    /// snapshot. Returns the outputs in shard order and the first panic
    /// payload, if a shard panicked.
    fn close(&mut self) -> (Vec<O>, Option<PanicPayload>) {
        self.down = true;
        let mut outputs: Vec<(usize, O)> = Vec::with_capacity(self.shards);
        let mut panic_payload = None;
        match &mut self.engine {
            Engine::Inline(set) => {
                if let Some(set) = set.take() {
                    match catch_unwind(AssertUnwindSafe(|| set.finish())) {
                        Ok(part) => outputs.extend(part),
                        Err(payload) => panic_payload = Some(payload),
                    }
                }
            }
            Engine::Threads(lanes) => {
                for lane in lanes.iter_mut() {
                    lane.tx = None;
                }
                for lane in lanes.iter_mut() {
                    if let Some(handle) = lane.handle.take() {
                        match handle.join() {
                            Ok(part) => outputs.extend(part),
                            Err(payload) => {
                                panic_payload.get_or_insert(payload);
                            }
                        }
                    }
                }
            }
        }
        self.metrics.publish();
        outputs.sort_by_key(|(shard, _)| *shard);
        (outputs.into_iter().map(|(_, o)| o).collect(), panic_payload)
    }
}

/// Dropping a live pool finishes its shards (so no thread outlives the
/// stage that owns it) and re-raises a shard panic unless the thread is
/// already unwinding.
impl<B, O> Drop for ShardPool<B, O> {
    fn drop(&mut self) {
        if self.down {
            return;
        }
        if let (_, Some(payload)) = self.close() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::thread::ThreadId;

    /// A state that records everything its shard saw plus the thread that
    /// processed it, to pin worker reuse and ownership.
    #[derive(Default)]
    struct Probe {
        seen: Vec<u32>,
        batches: usize,
        thread: Option<ThreadId>,
    }

    /// What [`probe_pool`]'s finish returns per shard: seen values, batch
    /// count, processing thread.
    type ProbeOutput = (Vec<u32>, usize, Option<ThreadId>);

    fn probe_pool(shards: usize, threads: usize) -> ShardPool<Routed<u32>, ProbeOutput> {
        ShardPool::new(
            "probe",
            shards,
            threads,
            4,
            |_| Probe::default(),
            |state: &mut Probe, shard, _shards, routed: &Routed<u32>| {
                state.seen.extend(routed.owned(shard).copied());
                state.batches += 1;
                let here = std::thread::current().id();
                match state.thread {
                    None => state.thread = Some(here),
                    Some(prev) => assert_eq!(prev, here, "shard state migrated threads"),
                }
            },
            |s: Probe| (s.seen, s.batches, s.thread),
        )
    }

    fn route(items: Vec<u32>, shards: usize) -> Routed<u32> {
        Routed::build(Arc::new(items), shards, |v| *v as usize % shards.max(1))
    }

    #[test]
    fn workers_persist_across_consecutive_batches() {
        let mut pool = probe_pool(4, 4);
        for chunk in [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10, 11]] {
            pool.dispatch(route(chunk, 4)).unwrap();
        }
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs.len(), 4);
        for (shard, (seen, batches, thread)) in outs.iter().enumerate() {
            // Same long-lived state saw all three chunks, on one thread.
            assert_eq!(*batches, 3, "shard {shard} reused across batches");
            assert!(thread.is_some());
            assert_eq!(
                seen,
                &(0..12u32).filter(|v| *v as usize % 4 == shard).collect::<Vec<_>>(),
                "shard {shard} owns exactly its keyed items, in order"
            );
        }
    }

    #[test]
    fn more_threads_than_shards_caps_at_one_worker_per_shard() {
        let mut pool = probe_pool(2, 8);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.shards(), 2);
        pool.dispatch(route((0..10).collect(), 2)).unwrap();
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs[0].0, vec![0, 2, 4, 6, 8]);
        assert_eq!(outs[1].0, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn more_shards_than_threads_strides_ownership() {
        let mut pool = probe_pool(5, 2);
        assert_eq!(pool.workers(), 2);
        pool.dispatch(route((0..25).collect(), 5)).unwrap();
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs.len(), 5, "outputs in shard order despite striding");
        for (shard, (seen, _, _)) in outs.iter().enumerate() {
            assert!(seen.iter().all(|v| *v as usize % 5 == shard));
            assert_eq!(seen.len(), 5);
        }
        // Shards 0,2,4 share worker 0 and 1,3 share worker 1.
        assert_eq!(outs[0].2, outs[2].2);
        assert_eq!(outs[0].2, outs[4].2);
        assert_eq!(outs[1].2, outs[3].2);
        assert_ne!(outs[0].2, outs[1].2);
    }

    #[test]
    fn one_thread_pool_runs_on_the_caller_thread() {
        let _t = dosscope_obs::testing::scoped_enable();
        let chunks = [vec![0, 1, 2, 3, 4], vec![5, 6, 7], vec![8, 9, 10, 11]];
        let run = |threads: usize| {
            let mut pool = probe_pool(3, threads);
            for chunk in &chunks {
                pool.dispatch(route(chunk.clone(), 3)).unwrap();
            }
            let outs = pool.shutdown().unwrap();
            (outs, pool.workers())
        };
        let (inline, workers) = run(1);
        assert_eq!(workers, 1);
        let here = std::thread::current().id();
        assert!(inline.iter().all(|(_, _, thread)| *thread == Some(here)));
        let (threaded, workers) = run(2);
        assert_eq!(workers, 2);
        assert!(threaded.iter().all(|(_, _, thread)| *thread != Some(here)));
        let strip = |outs: Vec<ProbeOutput>| -> Vec<(Vec<u32>, usize)> {
            outs.into_iter().map(|(seen, batches, _)| (seen, batches)).collect()
        };
        assert_eq!(strip(inline), strip(threaded), "same outputs as a 2-thread pool");

        // The inline worker is profiled like a thread: busy time while
        // it processes, and a queue depth of one per batch.
        let mut pool = slow_pool(2, 1, 2);
        for _ in 0..2 {
            pool.dispatch(route(vec![0, 1], 2)).unwrap();
        }
        assert_eq!(pool.shutdown().unwrap(), vec![2, 2]);
        let gauges = pool.metrics().gauges();
        let get = |name: &str| gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("pool.slow.workers"), Some(1));
        assert_eq!(get("pool.slow.w0.batches"), Some(2));
        assert_eq!(get("pool.slow.w0.queue_hwm"), Some(1));
        assert!(get("pool.slow.w0.busy_us").unwrap() >= 4_000);
    }

    #[test]
    fn inline_panic_reaches_the_caller_directly() {
        let mut pool: ShardPool<Routed<u32>, u32> = ShardPool::new(
            "inline-poison",
            2,
            1,
            2,
            |_| 0,
            |state, shard, _shards, routed: &Routed<u32>| {
                for v in routed.owned(shard) {
                    assert!(*v != 13, "poison item reached shard {shard}");
                    *state += v;
                }
            },
            |s| s,
        );
        pool.dispatch(route(vec![1, 2], 2)).unwrap();
        // The very dispatch carrying the poison raises the panic.
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.dispatch(route(vec![13], 2));
        }))
        .expect_err("inline panic must reach the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("poison item"), "original payload kept: {msg}");
        assert!(pool.is_shut_down());
        assert_eq!(pool.dispatch(route(vec![3], 2)).unwrap_err(), PoolError::ShutDown);
        assert_eq!(pool.metrics().dispatches, 2);
    }

    #[test]
    fn snapshot_after_shutdown_is_an_error() {
        let mut pool = probe_pool(2, 2);
        pool.dispatch(route(vec![1, 2], 2)).unwrap();
        pool.shutdown().unwrap();
        assert!(pool.is_shut_down());
        assert_eq!(pool.dispatch(route(vec![3], 2)).unwrap_err(), PoolError::ShutDown);
        assert_eq!(pool.shutdown().unwrap_err(), PoolError::ShutDown);
        assert_eq!(PoolError::ShutDown.to_string(), "shard pool is already shut down");
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let mut pool: ShardPool<Routed<u32>, u32> = ShardPool::new(
            "poison",
            4,
            4,
            2,
            |_| 0,
            |state, shard, _shards, routed: &Routed<u32>| {
                for v in routed.owned(shard) {
                    assert!(*v != 13, "poison item reached shard {shard}");
                    *state += v;
                }
            },
            |s| s,
        );
        pool.dispatch(route(vec![1, 2, 3], 4)).unwrap();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // The poisoned chunk kills one worker; either this dispatch
            // round or the shutdown must surface the panic — never hang.
            pool.dispatch(route(vec![13], 4)).unwrap();
            for i in 0..64 {
                pool.dispatch(route(vec![i], 4)).unwrap();
            }
            pool.shutdown().unwrap();
        }))
        .expect_err("worker panic must propagate to the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("poison item"), "original payload kept: {msg}");
        // The pool is down but safely reusable as a value (errors, no UB).
        assert!(pool.is_shut_down());
    }

    #[test]
    fn routed_views_share_the_chunk() {
        let items = Arc::new(vec![10u32, 21, 32, 43]);
        let routed = Routed::build(items.clone(), 2, |v| (*v % 2) as usize);
        assert_eq!(routed.shards(), 2);
        assert_eq!(routed.items().as_ptr(), items.as_ptr(), "no item copies");
        assert_eq!(routed.owned(0).copied().collect::<Vec<_>>(), vec![10, 32]);
        assert_eq!(routed.owned(1).copied().collect::<Vec<_>>(), vec![21, 43]);
        assert_eq!(routed.owned_len(0), 2);
        // Degenerate shard count routes everything to one shard.
        let one = Routed::build(items, 0, |_| 0);
        assert_eq!(one.shards(), 1);
        assert_eq!(one.owned_len(0), 4);
    }

    /// A pool whose workers sleep per batch, so queueing and busy time
    /// are observable in the instrumentation.
    fn slow_pool(
        shards: usize,
        threads: usize,
        delay_ms: u64,
    ) -> ShardPool<Routed<u32>, u64> {
        ShardPool::new(
            "slow",
            shards,
            threads,
            4,
            |_| 0u64,
            move |state, shard, _shards, routed: &Routed<u32>| {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                *state += routed.owned_len(shard) as u64;
            },
            |s| s,
        )
    }

    #[test]
    fn metrics_track_queue_depth_and_busy_time_with_more_threads_than_shards() {
        let _t = dosscope_obs::testing::scoped_enable();
        // threads > shards caps at one worker per shard; instrumentation
        // must still attribute per worker, not per requested thread.
        let mut pool = slow_pool(2, 8, 3);
        assert_eq!(pool.workers(), 2);
        for _ in 0..3 {
            pool.dispatch(route(vec![0, 1], 2)).unwrap();
        }
        let outs = pool.shutdown().unwrap();
        assert_eq!(outs, vec![3, 3]);
        let m = pool.metrics();
        assert_eq!(m.name, "slow");
        assert_eq!(m.shards, 2);
        assert_eq!(m.workers.len(), 2);
        assert_eq!(m.dispatches, 3);
        // Three quick dispatches against 3ms batches: at least two jobs
        // were simultaneously queued on each worker at some point, and
        // each worker spent the ~9ms of sleeps busy.
        for (k, w) in m.workers.iter().enumerate() {
            assert!(w.queue_hwm >= 2, "worker {k} queue hwm {}", w.queue_hwm);
            assert_eq!(w.batches, 3);
            assert!(w.busy_ns >= 6_000_000, "worker {k} busy {}ns", w.busy_ns);
        }
    }

    #[test]
    fn metrics_survive_shutdown_and_publish_to_registry() {
        let mut pool = probe_pool(2, 2);
        pool.dispatch(route(vec![0, 1, 2, 3], 2)).unwrap();
        pool.shutdown().unwrap();
        // The data path is closed, but the snapshot is still coherent.
        assert!(pool.is_shut_down());
        let m = pool.metrics();
        assert_eq!(m.dispatches, 1);
        assert_eq!(m.workers.iter().map(|w| w.batches).sum::<u64>(), 2);
        // The gauges shutdown publishes carry the same numbers. They are
        // checked on the pure list, not read back from the process-global
        // registry, which other tests' pools write concurrently.
        let gauges = m.gauges();
        let get = |name: &str| gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("pool.probe.workers"), Some(2));
        assert_eq!(get("pool.probe.shards"), Some(2));
        assert_eq!(get("pool.probe.dispatches"), Some(1));
        assert_eq!(get("pool.probe.w1.batches"), Some(1));
        assert_eq!(get("pool.probe.w1.queue_hwm"), Some(m.workers[1].queue_hwm));
        assert_eq!(gauges.len(), 3 + 4 * 2, "three pool-wide gauges, four per worker");
    }

    #[test]
    fn disabled_telemetry_records_no_wall_time() {
        // Telemetry is off, so the pool must never read the clock — but
        // the always-on counters still work.
        let _t = dosscope_obs::testing::scoped_disable();
        let mut pool = probe_pool(2, 2);
        pool.dispatch(route(vec![0, 1], 2)).unwrap();
        pool.shutdown().unwrap();
        let m = pool.metrics();
        assert_eq!(m.dispatches, 1);
        assert!(m.workers.iter().all(|w| w.batches == 1));
        assert!(m.workers.iter().all(|w| w.busy_ns == 0 && w.idle_ns == 0));
    }

    #[test]
    fn worker_panic_leaves_a_coherent_partial_metrics_snapshot() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool: ShardPool<Routed<u32>, u32> = ShardPool::new(
            "crashy",
            2,
            2,
            4,
            |_| 0,
            |state, shard, _shards, routed: &Routed<u32>| {
                for v in routed.owned(shard) {
                    assert!(*v != 13, "poison item reached shard {shard}");
                    *state += v;
                }
            },
            |s| s,
        );
        pool.dispatch(route(vec![1, 2], 2)).unwrap();
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.dispatch(route(vec![13], 2)).unwrap();
            for i in 0..64 {
                pool.dispatch(route(vec![i], 2)).unwrap();
            }
            pool.shutdown().unwrap();
        }))
        .expect_err("worker panic must propagate");
        drop(err);
        // The panic path still published a partial snapshot: the clean
        // dispatches before the poison batch are accounted for.
        let m = pool.metrics();
        assert!(m.dispatches >= 2, "pre-crash dispatches recorded");
        let gauges = dosscope_obs::registry::gauges_snapshot();
        assert!(
            gauges.iter().any(|(k, v)| k == "pool.crashy.dispatches" && *v >= 2),
            "partial snapshot published on the panic path"
        );
    }
}
