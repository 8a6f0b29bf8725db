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
//! Every pool writes its profile straight into the `dosscope-obs`
//! registry, under gauges registered once at [`ShardPool::new`]:
//!
//! * `pool.<name>.workers` — worker (= shard) count;
//! * `pool.<name>.dispatches` — chunks dispatched;
//! * `pool.<name>.w<k>.busy_us` / `.idle_us` — worker `k`'s wall time
//!   processing chunks / blocked waiting for one;
//! * `pool.<name>.w<k>.batches` — chunks worker `k` processed;
//! * `pool.<name>.w<k>.queue_hwm` — most chunks ever waiting on worker
//!   `k`'s channel, read after each send returns: at most `QUEUE_DEPTH`,
//!   plus one the worker has just received and not yet counted off. A
//!   chunk the dispatcher is still blocked on never counts.
//!
//! Each worker keeps its own times and chunk count and sets its gauges
//! after every chunk, so a run that fails on a shard panic still leaves
//! a coherent partial profile. Gauges ignore writes while telemetry is
//! off, and the clock is read only while `dosscope_obs::enabled()`: the
//! disabled pipeline pays a few relaxed loads per *chunk*, never per
//! item, and no clock read.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dosscope_obs::Gauge;

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

/// One worker's channel (a shared chunk per message) and thread, plus
/// the dispatcher's side of its profile.
struct Lane<T, S: Shard<T>> {
    tx: Option<SyncSender<Arc<Routed<T>>>>,
    handle: Option<JoinHandle<S::Output>>,
    /// Chunks sent and not yet received: the dispatcher adds one before
    /// each send (so the worker's decrement never comes first), the worker
    /// takes one per receive.
    in_flight: Arc<AtomicU64>,
    queue_hwm: Gauge,
}

impl<T: Send + Sync + 'static, S: Shard<T>> Lane<T, S> {
    /// Spawn the worker of shard `w` of pool `pool`, behind a channel of
    /// `QUEUE_DEPTH` chunks.
    fn spawn(pool: &str, w: usize, mut shard: S) -> Self {
        let gauge = |field: &str| dosscope_obs::gauge(&format!("pool.{pool}.w{w}.{field}"));
        let (busy_us, idle_us, batches) = (gauge("busy_us"), gauge("idle_us"), gauge("batches"));
        let in_flight = Arc::new(AtomicU64::new(0));
        let queued = in_flight.clone();
        let (tx, rx) = sync_channel::<Arc<Routed<T>>>(QUEUE_DEPTH);
        let handle = std::thread::Builder::new()
            .name(format!("shard-worker-{w}"))
            .spawn(move || {
                let (mut busy, mut idle, mut chunks) = (Duration::ZERO, Duration::ZERO, 0);
                loop {
                    let wait = dosscope_obs::enabled().then(Instant::now);
                    let Ok(routed) = rx.recv() else { break };
                    queued.fetch_sub(1, Ordering::Relaxed);
                    let start = wait.map(|t| {
                        idle += t.elapsed();
                        Instant::now()
                    });
                    shard.process(routed.owned(w));
                    chunks += 1;
                    if let Some(t) = start {
                        busy += t.elapsed();
                    }
                    busy_us.set(busy.as_micros() as u64);
                    idle_us.set(idle.as_micros() as u64);
                    batches.set(chunks);
                }
                shard.finish()
            })
            .expect("spawn shard worker");
        Lane {
            tx: Some(tx),
            handle: Some(handle),
            in_flight,
            queue_hwm: gauge("queue_hwm"),
        }
    }
}

/// The first panic payload a pool caught from a shard.
type PanicPayload = Box<dyn std::any::Any + Send>;

/// A persistent pool of workers, one per shard state `S`, fed routed
/// chunks of `T`.
pub struct ShardPool<T, S: Shard<T>> {
    lanes: Vec<Lane<T, S>>,
    dispatches: u64,
    dispatches_gauge: Gauge,
    down: bool,
}

impl<T: Send + Sync + 'static, S: Shard<T>> ShardPool<T, S> {
    /// Build the pool: `shards` states (each built by `init` on the
    /// calling thread; 0 is treated as 1), each on its own long-lived
    /// worker. `name` identifies the pool in telemetry
    /// (`pool.<name>.*`).
    pub fn new(name: &'static str, shards: usize, init: impl FnMut() -> S) -> Self {
        let shards = shards.max(1);
        dosscope_obs::gauge(&format!("pool.{name}.workers")).set(shards as u64);
        let lanes = std::iter::repeat_with(init)
            .take(shards)
            .enumerate()
            .map(|(w, shard)| Lane::spawn(name, w, shard))
            .collect();
        ShardPool {
            lanes,
            dispatches: 0,
            dispatches_gauge: dosscope_obs::gauge(&format!("pool.{name}.dispatches")),
            down: false,
        }
    }

    /// Number of shards, each with its own worker.
    pub fn shards(&self) -> usize {
        self.lanes.len()
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
        self.dispatches += 1;
        self.dispatches_gauge.set(self.dispatches);
        let routed = Arc::new(routed);
        let mut dead = false;
        for lane in &self.lanes {
            let tx = lane.tx.as_ref().expect("live pool lane has a sender");
            lane.in_flight.fetch_add(1, Ordering::Relaxed);
            if tx.send(routed.clone()).is_err() {
                dead = true;
            }
            // Read once the send returns: a send blocked on a full queue
            // is not a queued chunk, but the one just sent was, if only
            // until the worker took it.
            lane.queue_hwm.raise(lane.in_flight.load(Ordering::Relaxed).max(1));
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
    /// Tear the pool down: close every channel and join every worker.
    /// Returns the outputs in shard order and the first panic payload, if
    /// a shard panicked.
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
    use std::collections::{HashMap, HashSet};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc::{channel, Receiver, Sender};
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

    /// A shard that, on its first chunk, says it has entered and then
    /// blocks until its gate opens (a message or a hang-up); it counts
    /// its items.
    struct Gated {
        gate: Option<(Sender<()>, Receiver<()>)>,
        items: u64,
    }

    impl Shard<u32> for Gated {
        type Output = u64;
        fn process<'a>(&mut self, items: impl Iterator<Item = &'a u32>) {
            if let Some((entered, gate)) = self.gate.take() {
                let _ = entered.send(());
                let _ = gate.recv();
            }
            self.items += items.count() as u64;
        }
        fn finish(self) -> u64 {
            self.items
        }
    }

    fn probe_pool(name: &'static str, shards: usize) -> ShardPool<u32, Probe> {
        ShardPool::new(name, shards, Probe::default)
    }

    fn poison_pool(name: &'static str, shards: usize) -> ShardPool<u32, Poison> {
        ShardPool::new(name, shards, || Poison(0))
    }

    fn slow_pool(name: &'static str, shards: usize, delay_ms: u64) -> ShardPool<u32, Slow> {
        ShardPool::new(name, shards, || Slow { delay_ms, items: 0 })
    }

    /// The registry's `pool.<name>.*` gauges, keyed by the part after the
    /// pool name (`workers`, `w0.batches`, ...). The registry is
    /// process-global, so a test that reads it holds
    /// `dosscope_obs::testing::scoped_enable`/`scoped_disable` and names
    /// its pool uniquely.
    fn pool_gauges(name: &str) -> HashMap<String, u64> {
        let prefix = format!("pool.{name}.");
        dosscope_obs::registry::gauges_snapshot()
            .into_iter()
            .filter_map(|(k, v)| Some((k.strip_prefix(&prefix)?.to_string(), v)))
            .collect()
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
        let mut pool = probe_pool("probe", 4);
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
        let mut pool = probe_pool("misrouted", 2);
        pool.dispatch(route(vec![1, 2, 3], 3));
    }

    #[test]
    fn one_shard_pool_runs_on_a_worker_thread() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = probe_pool("single", 1);
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
        let mut pool = slow_pool("lone", 1, 2);
        for _ in 0..2 {
            pool.dispatch(route(vec![0, 1], 1));
        }
        assert_eq!(pool.shutdown(), vec![4]);
        let g = pool_gauges("lone");
        assert_eq!(g["workers"], 1);
        assert_eq!(g["w0.batches"], 2);
        assert!(g["w0.queue_hwm"] >= 1);
        assert!(g["w0.busy_us"] >= 4_000, "{g:?}");
    }

    #[test]
    fn snapshot_after_shutdown_is_an_error() {
        let mut pool = probe_pool("closed", 2);
        pool.dispatch(route(vec![1, 2], 2));
        pool.shutdown();
        let msg = panic_message(|| pool.dispatch(route(vec![3], 2)));
        assert!(msg.contains("shut down"), "{msg}");
        let msg = panic_message(|| {
            pool.shutdown();
        });
        assert!(msg.contains("shut down"), "{msg}");
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
    fn profile_tracks_queue_depth_and_busy_time() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = slow_pool("slow", 2, 3);
        for _ in 0..3 {
            pool.dispatch(route(vec![0, 1], 2));
        }
        assert_eq!(pool.shutdown(), vec![3, 3]);
        let g = pool_gauges("slow");
        assert_eq!((g["workers"], g["dispatches"]), (2, 3));
        // Three quick dispatches against 3ms batches: at least two jobs
        // were simultaneously queued on each worker at some point, and
        // each worker spent the ~9ms of sleeps busy.
        for k in 0..2 {
            let field = |f: &str| g[&format!("w{k}.{f}")];
            assert!(field("queue_hwm") >= 2, "worker {k}: {g:?}");
            assert_eq!(field("batches"), 3);
            assert!(field("busy_us") >= 6_000, "worker {k}: {g:?}");
        }
    }

    #[test]
    fn queue_hwm_never_counts_a_blocked_send() {
        let _t = dosscope_obs::testing::scoped_enable();
        let (entered_tx, entered) = channel();
        let (open, gate) = channel();
        let mut gate = Some((entered_tx, gate));
        let mut pool = ShardPool::new("gated", 1, || Gated {
            gate: gate.take(),
            items: 0,
        });
        let chunks = QUEUE_DEPTH as u64 + 2;
        let hwm = || pool_gauges("gated").get("w0.queue_hwm").copied().unwrap_or(0);
        // The worker takes chunk 1, counts it off and blocks.
        pool.dispatch(route(vec![0], 1));
        entered.recv().expect("worker entered its first chunk");
        std::thread::scope(|scope| {
            let dispatcher = scope.spawn(|| {
                // The channel fills with the next `QUEUE_DEPTH` chunks, and
                // the last send blocks.
                for _ in 1..chunks {
                    pool.dispatch(route(vec![0], 1));
                }
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while hwm() < QUEUE_DEPTH as u64 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(20));
            let blocked = hwm();
            // Open the gate before asserting, so a failure cannot leave
            // the dispatcher blocked forever.
            open.send(()).expect("worker holds the gate");
            dispatcher.join().expect("dispatcher");
            assert_eq!(blocked, QUEUE_DEPTH as u64, "a full queue, the blocked send not counted");
        });
        assert_eq!(pool.shutdown(), vec![chunks]);
        assert!(hwm() <= QUEUE_DEPTH as u64 + 1, "hwm {}", hwm());
    }

    #[test]
    fn profile_stays_in_the_registry_after_shutdown() {
        let _t = dosscope_obs::testing::scoped_enable();
        let mut pool = probe_pool("kept", 2);
        pool.dispatch(route(vec![0, 1, 2, 3], 2));
        pool.shutdown();
        // The data path is closed, but the profile stays in the registry:
        // two pool-wide gauges and four per worker, nothing else.
        let g = pool_gauges("kept");
        assert_eq!((g["workers"], g["dispatches"]), (2, 1));
        for k in 0..2 {
            assert_eq!(g[&format!("w{k}.batches")], 1);
            assert_eq!(g[&format!("w{k}.queue_hwm")], 1);
        }
        let mut fields: Vec<&str> = g.keys().map(String::as_str).collect();
        fields.sort_unstable();
        assert_eq!(
            fields,
            [
                "dispatches",
                "w0.batches",
                "w0.busy_us",
                "w0.idle_us",
                "w0.queue_hwm",
                "w1.batches",
                "w1.busy_us",
                "w1.idle_us",
                "w1.queue_hwm",
                "workers",
            ]
        );
    }

    #[test]
    fn disabled_telemetry_records_no_wall_time() {
        // Telemetry is off: the pool still works, and its registered
        // gauges take no write.
        let _t = dosscope_obs::testing::scoped_disable();
        let mut pool = probe_pool("quiet", 2);
        pool.dispatch(route(vec![0, 1], 2));
        let outs = pool.shutdown();
        assert!(outs.iter().all(|(_, batches, _)| *batches == 1));
        let g = pool_gauges("quiet");
        assert_eq!(g.len(), 2 + 4 * 2, "registered: {g:?}");
        assert!(g.values().all(|v| *v == 0), "{g:?}");
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
        // The registry keeps what happened before the crash: both
        // dispatches up to the poison chunk, and the clean chunk on
        // both workers.
        let g = pool_gauges("crashy");
        assert!(g["dispatches"] >= 2, "{g:?}");
        assert!(g["w0.batches"] >= 1 && g["w1.batches"] >= 1, "{g:?}");
    }
}
