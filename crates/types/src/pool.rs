//! The persistent worker pool both sharded detectors (telescope and
//! honeypot fleet) run on:
//!
//! * **one long-lived worker per shard** — [`ShardPool::new`] builds the
//!   shard states and spawns one worker thread per shard, a one-shard
//!   pool included; each worker *owns* its shard for its whole life, so
//!   state never migrates and never needs locking;
//! * **bounded channels** — each worker has its own
//!   [`std::sync::mpsc::sync_channel`] of `QUEUE_DEPTH` chunks; a slow
//!   worker back-pressures the dispatcher instead of letting queues grow
//!   without bound;
//! * **zero-copy batch routing** — a chunk is shared as one
//!   [`Routed`] view (`Arc`'d item vector + per-shard index lists built
//!   by the stage's `shard_of_source` key); dispatch hands every worker
//!   the same two pointers instead of cloning batches into per-shard
//!   vectors;
//! * **one barrier** — [`ShardPool::shutdown`] drains every queue, joins
//!   every worker and returns every shard's finished output, so
//!   per-shard results merge exactly once per run.
//!
//! A panicking shard must fail the run, not hang it: every send failure
//! is treated as a dead worker, the pool tears all channels down,
//! joins every thread and re-raises the original panic payload on the
//! caller thread ([`std::panic::resume_unwind`]). Dispatching to or
//! shutting down a pool that was already shut down is a bug and panics.
//!
//! ## Profiling
//!
//! Every pool carries a name and a [`PoolMetrics`] block: per-worker
//! busy/idle wall time, processed job counts and channel queue-depth
//! high-water marks. Queue and job counts are always-on relaxed atomics
//! (a handful per *batch*, never per item); the wall-clock measurements
//! additionally require `dosscope_obs::enabled()` so the disabled
//! pipeline never reads the clock. On shutdown — including the
//! panic-propagation path, so a failed run still leaves a coherent
//! partial snapshot — the metrics are published to the global `obs`
//! registry as `pool.<name>.*` gauges ([`PoolMetricsSnapshot::gauges`]
//! lists them); [`ShardPool::metrics`] exposes the same numbers directly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Bounded per-worker queue depth: one chunk in flight, a few queued —
/// enough for the pipeline thread to render ahead of detection without
/// unbounded growth.
const QUEUE_DEPTH: usize = 8;

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
    /// One entry per worker, i.e. per shard.
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
    /// One entry per worker (= per shard), in shard order.
    pub workers: Vec<WorkerMetricsSnapshot>,
    /// Dispatch calls routed into the pool.
    pub dispatches: u64,
}

impl PoolMetricsSnapshot {
    /// The `pool.<name>.*` gauges shutdown publishes, as `(name, value)`
    /// pairs: pool-wide fields first, then each worker's in worker order.
    /// `workers` and `shards` are the same number: one worker per shard.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let base = format!("pool.{}", self.name);
        let mut out = vec![
            (format!("{base}.workers"), self.workers.len() as u64),
            (format!("{base}.shards"), self.workers.len() as u64),
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

impl PoolMetrics {
    fn new(name: &'static str, workers: usize) -> PoolMetrics {
        PoolMetrics {
            name,
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

/// One shard's state: it sees the items it owns of every routed chunk,
/// in chunk order, and turns into its output at shutdown.
pub trait Shard<T>: Send + 'static {
    /// What [`ShardPool::shutdown`] returns for this shard.
    type Output: Send + 'static;
    /// Process the items this shard owns in one routed chunk.
    fn process<'a>(&mut self, items: impl Iterator<Item = &'a T>)
    where
        T: 'a;
    /// End of stream: the shard's result.
    fn finish(self) -> Self::Output;
}

/// One worker's channel (a shared chunk per message) and thread.
struct Lane<T, S: Shard<T>> {
    tx: Option<SyncSender<Arc<Routed<T>>>>,
    handle: Option<JoinHandle<S::Output>>,
}

impl<T: Send + Sync + 'static, S: Shard<T>> Lane<T, S> {
    /// Spawn the worker of shard `w`, behind a channel of `QUEUE_DEPTH`
    /// chunks.
    fn spawn(w: usize, mut shard: S, metrics: Arc<PoolMetrics>) -> Self {
        let (tx, rx) = sync_channel::<Arc<Routed<T>>>(QUEUE_DEPTH);
        let handle = std::thread::Builder::new()
            .name(format!("shard-worker-{w}"))
            .spawn(move || {
                let wm = &metrics.workers[w];
                loop {
                    // Clock reads only happen while telemetry is enabled;
                    // the counters are always on.
                    let wait = dosscope_obs::enabled().then(Instant::now);
                    let Ok(routed) = rx.recv() else { break };
                    wm.queue_len.fetch_sub(1, Ordering::Relaxed);
                    let start = wait.map(|t| {
                        wm.idle_ns
                            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        Instant::now()
                    });
                    shard.process(routed.owned(w));
                    wm.batches.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = start {
                        wm.busy_ns
                            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    }
                }
                shard.finish()
            })
            .expect("spawn shard worker");
        Lane {
            tx: Some(tx),
            handle: Some(handle),
        }
    }
}

/// The first panic payload a pool caught from a shard.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// A persistent pool of workers, one per shard state `S`, fed routed
/// chunks of `T`.
pub struct ShardPool<T, S: Shard<T>> {
    lanes: Vec<Lane<T, S>>,
    metrics: Arc<PoolMetrics>,
    down: bool,
}

impl<T: Send + Sync + 'static, S: Shard<T>> ShardPool<T, S> {
    /// Build the pool: `shards` states (each built by `init` on the
    /// calling thread; 0 is treated as 1), each on its own long-lived
    /// worker. `name` identifies the pool in telemetry
    /// (`pool.<name>.*`).
    pub fn new(name: &'static str, shards: usize, init: impl FnMut() -> S) -> Self {
        let shards = shards.max(1);
        let metrics = Arc::new(PoolMetrics::new(name, shards));
        let lanes = std::iter::repeat_with(init)
            .take(shards)
            .enumerate()
            .map(|(w, shard)| Lane::spawn(w, shard, metrics.clone()))
            .collect();
        ShardPool {
            lanes,
            metrics,
            down: false,
        }
    }

    /// Number of shards, each with its own worker.
    pub fn shards(&self) -> usize {
        self.metrics.workers.len()
    }

    /// Snapshot of the pool's instrumentation counters. Readable at any
    /// point in the pool's life, including after [`ShardPool::shutdown`]
    /// and after a worker panic was propagated.
    pub fn metrics(&self) -> PoolMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Dispatch one chunk, routed for this pool's shard count, to every
    /// shard. Blocks while a worker's queue is full; re-raises a shard's
    /// panic once a send finds its worker dead.
    pub fn dispatch(&mut self, routed: Routed<T>) {
        assert!(!self.down, "dispatch on a shard pool that was shut down");
        assert_eq!(
            routed.shards(),
            self.shards(),
            "chunk routed for a different shard count"
        );
        self.metrics.dispatches.fetch_add(1, Ordering::Relaxed);
        let routed = Arc::new(routed);
        let mut dead = false;
        for (w, lane) in self.lanes.iter().enumerate() {
            let tx = lane.tx.as_ref().expect("live pool lane has a sender");
            self.metrics.enqueue(w);
            if tx.send(routed.clone()).is_err() {
                dead = true;
            }
        }
        if dead {
            // A send failed, so a worker is gone — and workers only leave
            // by panicking.
            let (_, payload) = self.close();
            std::panic::resume_unwind(payload.expect("worker disconnected without panicking"));
        }
    }

    /// Drain every queue, finish every shard and return the per-shard
    /// outputs in shard order. The pool is unusable afterwards; a shard
    /// that panicked re-raises here.
    pub fn shutdown(&mut self) -> Vec<S::Output> {
        assert!(!self.down, "shard pool is already shut down");
        match self.close() {
            (outputs, None) => outputs,
            (_, Some(payload)) => std::panic::resume_unwind(payload),
        }
    }
}

impl<T, S: Shard<T>> ShardPool<T, S> {
    /// Tear the pool down: close every channel and join every worker,
    /// then publish the metrics — also on a failed run, so it still
    /// leaves a coherent (partial) telemetry snapshot. Returns the
    /// outputs in shard order and the first panic payload, if a shard
    /// panicked.
    fn close(&mut self) -> (Vec<S::Output>, Option<PanicPayload>) {
        self.down = true;
        for lane in self.lanes.iter_mut() {
            lane.tx = None;
        }
        let mut outputs = Vec::with_capacity(self.lanes.len());
        let mut panic_payload = None;
        for lane in self.lanes.iter_mut() {
            if let Some(handle) = lane.handle.take() {
                match handle.join() {
                    Ok(out) => outputs.push(out),
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
        }
        self.metrics.publish();
        (outputs, panic_payload)
    }
}

/// Dropping a live pool finishes its shards (so no thread outlives the
/// stage that owns it) and re-raises a shard panic unless the thread is
/// already unwinding.
impl<T, S: Shard<T>> Drop for ShardPool<T, S> {
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
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread::ThreadId;

    /// A shard that records everything it saw plus the thread that
    /// processed it, to pin worker reuse and ownership.
    #[derive(Default)]
    struct Probe {
        seen: Vec<u32>,
        batches: usize,
        thread: Option<ThreadId>,
    }

    /// What a [`Probe`] finishes into: seen values, batch count,
    /// processing thread.
    type ProbeOutput = (Vec<u32>, usize, Option<ThreadId>);

    impl Shard<u32> for Probe {
        type Output = ProbeOutput;
        fn process<'a>(&mut self, items: impl Iterator<Item = &'a u32>) {
            self.seen.extend(items.copied());
            self.batches += 1;
            let here = std::thread::current().id();
            match self.thread {
                None => self.thread = Some(here),
                Some(prev) => assert_eq!(prev, here, "shard state migrated threads"),
            }
        }
        fn finish(self) -> ProbeOutput {
            (self.seen, self.batches, self.thread)
        }
    }

    /// A shard that sums its items and panics on the poison value 13.
    struct Poison(u32);

    impl Shard<u32> for Poison {
        type Output = u32;
        fn process<'a>(&mut self, items: impl Iterator<Item = &'a u32>) {
            for v in items {
                assert!(*v != 13, "poison item reached a shard");
                self.0 += v;
            }
        }
        fn finish(self) -> u32 {
            self.0
        }
    }

    /// A shard that sleeps per batch, so queueing and busy time are
    /// observable in the instrumentation; it counts its items.
    struct Slow {
        delay_ms: u64,
        items: u64,
    }

    impl Shard<u32> for Slow {
        type Output = u64;
        fn process<'a>(&mut self, items: impl Iterator<Item = &'a u32>) {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            self.items += items.count() as u64;
        }
        fn finish(self) -> u64 {
            self.items
        }
    }

    fn probe_pool(shards: usize) -> ShardPool<u32, Probe> {
        ShardPool::new("probe", shards, Probe::default)
    }

    fn poison_pool(name: &'static str, shards: usize) -> ShardPool<u32, Poison> {
        ShardPool::new(name, shards, || Poison(0))
    }

    fn slow_pool(shards: usize, delay_ms: u64) -> ShardPool<u32, Slow> {
        ShardPool::new("slow", shards, || Slow { delay_ms, items: 0 })
    }

    fn route(items: Vec<u32>, shards: usize) -> Routed<u32> {
        Routed::build(Arc::new(items), shards, |v| *v as usize % shards.max(1))
    }

    /// Run `f`, which must panic, and return the panic message.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        match err.downcast::<String>() {
            Ok(msg) => *msg,
            Err(err) => err
                .downcast_ref::<&str>()
                .map_or("non-string panic".into(), |s| s.to_string()),
        }
    }

    #[test]
    fn workers_persist_across_consecutive_batches() {
        let mut pool = probe_pool(4);
        for chunk in [vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9, 10, 11]] {
            pool.dispatch(route(chunk, 4));
        }
        let outs = pool.shutdown();
        assert_eq!(outs.len(), 4);
        for (shard, (seen, batches, _)) in outs.iter().enumerate() {
            // Same long-lived state saw all three chunks, on one thread.
            assert_eq!(*batches, 3, "shard {shard} reused across batches");
            assert_eq!(
                seen,
                &(0..12u32).filter(|v| *v as usize % 4 == shard).collect::<Vec<_>>(),
                "shard {shard} owns exactly its keyed items, in order"
            );
        }
        // One distinct worker thread per shard, none of them the caller.
        let threads: HashSet<ThreadId> = outs.iter().map(|(_, _, t)| t.expect("ran")).collect();
        assert_eq!(threads.len(), 4, "one thread per shard");
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    #[should_panic(expected = "chunk routed for a different shard count")]
    fn chunks_must_be_routed_for_the_pool() {
        let mut pool = probe_pool(2);
        pool.dispatch(route(vec![1, 2, 3], 3));
    }

    #[test]
    fn one_shard_pool_runs_on_a_worker_thread() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = probe_pool(1);
        for chunk in [vec![0, 1, 2, 3, 4], vec![5, 6, 7], vec![8, 9, 10, 11]] {
            pool.dispatch(route(chunk, 1));
        }
        assert_eq!(pool.shards(), 1);
        let outs = pool.shutdown();
        let [(seen, batches, thread)] = &outs[..] else {
            panic!("one output per shard: {outs:?}")
        };
        assert_eq!((seen, *batches), (&(0..12).collect::<Vec<_>>(), 3));
        // One worker, which is not the caller.
        assert_ne!(thread.expect("ran"), std::thread::current().id());

        // The lone worker is profiled like any other.
        let mut pool = slow_pool(1, 2);
        for _ in 0..2 {
            pool.dispatch(route(vec![0, 1], 1));
        }
        assert_eq!(pool.shutdown(), vec![4]);
        let gauges = pool.metrics().gauges();
        let get = |name: &str| gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
        assert_eq!(get("pool.slow.workers"), Some(1));
        assert_eq!(get("pool.slow.w0.batches"), Some(2));
        assert!(get("pool.slow.w0.queue_hwm") >= Some(1));
        assert!(get("pool.slow.w0.busy_us").unwrap() >= 4_000);
    }

    #[test]
    fn snapshot_after_shutdown_is_an_error() {
        let mut pool = probe_pool(2);
        pool.dispatch(route(vec![1, 2], 2));
        pool.shutdown();
        let msg = panic_message(|| pool.dispatch(route(vec![3], 2)));
        assert!(msg.contains("shut down"), "{msg}");
        let msg = panic_message(|| {
            pool.shutdown();
        });
        assert!(msg.contains("shut down"), "{msg}");
        assert_eq!(pool.metrics().dispatches, 1, "the snapshot stays readable");
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        for shards in [1, 4] {
            let mut pool = poison_pool("poison", shards);
            pool.dispatch(route(vec![1, 2, 3], shards));
            let msg = panic_message(|| {
                // The poisoned chunk kills one worker; either this dispatch
                // round or the shutdown must surface the panic — never hang.
                pool.dispatch(route(vec![13], shards));
                for i in 0..64 {
                    pool.dispatch(route(vec![i], shards));
                }
                pool.shutdown();
            });
            assert!(
                msg.contains("poison item"),
                "{shards} shards: original payload kept: {msg}"
            );
            // The pool is down but safely reusable as a value: it panics,
            // no UB.
            let msg = panic_message(|| pool.dispatch(route(vec![1], shards)));
            assert!(msg.contains("shut down"), "{shards} shards: {msg}");
        }
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

    #[test]
    fn metrics_track_queue_depth_and_busy_time() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = slow_pool(2, 3);
        for _ in 0..3 {
            pool.dispatch(route(vec![0, 1], 2));
        }
        assert_eq!(pool.shutdown(), vec![3, 3]);
        let m = pool.metrics();
        assert_eq!(m.name, "slow");
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
        let mut pool = probe_pool(2);
        pool.dispatch(route(vec![0, 1, 2, 3], 2));
        pool.shutdown();
        // The data path is closed, but the snapshot is still coherent.
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
        let mut pool = probe_pool(2);
        pool.dispatch(route(vec![0, 1], 2));
        pool.shutdown();
        let m = pool.metrics();
        assert_eq!(m.dispatches, 1);
        assert!(m.workers.iter().all(|w| w.batches == 1));
        assert!(m.workers.iter().all(|w| w.busy_ns == 0 && w.idle_ns == 0));
    }

    #[test]
    fn worker_panic_leaves_a_coherent_partial_metrics_snapshot() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = poison_pool("crashy", 2);
        pool.dispatch(route(vec![1, 2], 2));
        panic_message(|| {
            pool.dispatch(route(vec![13], 2));
            for i in 0..64 {
                pool.dispatch(route(vec![i], 2));
            }
            pool.shutdown();
        });
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
