//! The persistent worker pool both sharded detectors (telescope and
//! honeypot fleet) run on:
//!
//! * **one long-lived worker per shard** — [`ShardPool::new`] builds the
//!   shard states and spawns one worker thread per shard, a one-shard
//!   pool included; each worker *owns* its shard for its whole life, so
//!   state never migrates and never needs locking;
//! * **bounded channels** — each worker has its own
//!   [`std::sync::mpsc::sync_channel`] of `QUEUE_DEPTH` days; a slow
//!   worker back-pressures the dispatcher instead of letting queues grow
//!   without bound;
//! * **zero-copy day routing** — a rendered [`CaptureDay`] is moved into
//!   one [`Routed`] value (the day plus, when there is more than one
//!   shard, per-shard row index lists built by [`shard_of_source`]), and
//!   dispatch hands every worker the same `Arc` of it: one reference
//!   count per day and pool, never one per row;
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
//! * `pool.<name>.dispatches` — days dispatched;
//! * `pool.<name>.w<k>.busy_us` / `.idle_us` — worker `k`'s wall time
//!   processing days / blocked waiting for one;
//! * `pool.<name>.w<k>.batches` — days worker `k` processed;
//! * `pool.<name>.w<k>.queue_hwm` — most days ever waiting on worker
//!   `k`'s channel, read after each send returns: at most `QUEUE_DEPTH`,
//!   plus one the worker has just received and not yet counted off. A
//!   day the dispatcher is still blocked on never counts.
//!
//! Each worker keeps its own times and day count and sets its gauges
//! after every day, so a run that fails on a shard panic still leaves
//! a coherent partial profile. Gauges ignore writes while telemetry is
//! off, and the clock is read only while `dosscope_obs::enabled()`: the
//! disabled pipeline pays a few relaxed loads per *day*, never per
//! item, and no clock read.

use std::ops::AddAssign;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::bytes::{CaptureDay, CaptureRow};
use crate::event::AttackEvent;
use crate::shard::shard_of_source;
use dosscope_obs::Gauge;

/// Bounded per-worker queue depth: one day in flight, a few queued —
/// enough for the pipeline thread to render ahead of detection without
/// unbounded growth. With rendering cheaper than detection, deeper
/// queues only hold more rendered days: 8 and 3 ran equally fast in
/// alternating dosbench runs on all four workloads, and 3 read about
/// 0.5 MiB less peak RSS on `dense-s600-d120` (CHANGES.md).
const QUEUE_DEPTH: usize = 3;

/// One capture day routed to shards without copying it: the day is
/// moved in whole, and each shard owns a list of row indexes into it.
///
/// Building a `Routed` is the only per-row routing work the pipeline
/// does — one key evaluation and one `u32` push per row. Workers then
/// walk their own index list and read the rows in place; nothing is
/// cloned or re-partitioned. A single shard owns the whole day, so it
/// gets no index list and walks the rows itself.
#[derive(Debug, Clone)]
pub struct Routed<Tag> {
    day: CaptureDay<Tag>,
    /// One index list per shard; empty when a single shard owns all.
    owners: Vec<Vec<u32>>,
}

impl<Tag: Copy> Routed<Tag> {
    /// Route a day across `shards` shards with the stage's key function
    /// (`shards = 0` is treated as 1; one shard owns every row without
    /// evaluating the key). Relative order within a shard is the row
    /// order, which is what per-victim state needs.
    fn build(
        day: CaptureDay<Tag>,
        shards: usize,
        mut key: impl FnMut(&CaptureDay<Tag>, &CaptureRow<Tag>) -> usize,
    ) -> Routed<Tag> {
        let shards = shards.max(1);
        debug_assert!(day.len() <= u32::MAX as usize, "day too large to index");
        if shards == 1 {
            return Routed {
                day,
                owners: Vec::new(),
            };
        }
        let mut owners: Vec<Vec<u32>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, row) in day.rows().iter().enumerate() {
            let s = key(&day, row);
            debug_assert!(s < shards, "shard key out of range");
            owners[s.min(shards - 1)].push(i as u32);
        }
        Routed { day, owners }
    }

    /// Route a day by the victim both vantage points key their state by:
    /// the source address of each row's packet ([`shard_of_source`]),
    /// evaluated once per packet, so rows sharing a representative cost
    /// one lookup each.
    pub fn by_source(day: CaptureDay<Tag>, shards: usize) -> Routed<Tag> {
        let packet_shard: Vec<u32> = if shards > 1 {
            (0..day.packets() as u32)
                .map(|p| shard_of_source(day.packet(p), shards) as u32)
                .collect()
        } else {
            Vec::new()
        };
        Routed::build(day, shards, |_, row| packet_shard[row.packet as usize] as usize)
    }

    /// Number of shards this day was routed across.
    pub fn shards(&self) -> usize {
        self.owners.len().max(1)
    }

    /// The whole day.
    pub fn day(&self) -> &CaptureDay<Tag> {
        &self.day
    }

    /// The rows one shard owns, in row order.
    pub fn owned(&self, shard: usize) -> impl Iterator<Item = &CaptureRow<Tag>> {
        let rows = self.day.rows();
        let (all, picks): (&[CaptureRow<Tag>], &[u32]) = match self.owners.get(shard) {
            Some(picks) => (&[], picks),
            None => {
                debug_assert!(self.owners.is_empty() && shard == 0, "no shard {shard}");
                (rows, &[])
            }
        };
        all.iter().chain(picks.iter().map(|&i| &rows[i as usize]))
    }

    /// How many rows one shard owns.
    pub fn owned_len(&self, shard: usize) -> usize {
        match self.owners.get(shard) {
            Some(picks) => picks.len(),
            None => self.day.len(),
        }
    }
}

/// One shard's state: it sees the rows it owns of every routed day, in
/// row order, and turns into its output at shutdown.
pub trait Shard<Tag>: Send + 'static {
    /// What [`ShardPool::shutdown`] returns for this shard.
    type Output: Send + 'static;
    /// Process the rows this shard owns of one routed day; each row's
    /// packet is in `day`.
    fn process<'a>(&mut self, day: &'a CaptureDay<Tag>, rows: impl Iterator<Item = &'a CaptureRow<Tag>>)
    where
        Tag: 'a;
    /// End of stream: the shard's result.
    fn finish(self) -> Self::Output;
}

/// One worker's channel (a shared day per message) and thread, plus
/// the dispatcher's side of its profile.
struct Lane<Tag, S: Shard<Tag>> {
    tx: Option<SyncSender<Arc<Routed<Tag>>>>,
    handle: Option<JoinHandle<S::Output>>,
    /// Chunks sent and not yet received: the dispatcher adds one before
    /// each send (so the worker's decrement never comes first), the worker
    /// takes one per receive.
    in_flight: Arc<AtomicU64>,
    queue_hwm: Gauge,
}

impl<Tag: Copy + Send + Sync + 'static, S: Shard<Tag>> Lane<Tag, S> {
    /// Spawn the worker of shard `w` of pool `pool`, behind a channel of
    /// `QUEUE_DEPTH` days.
    fn spawn(pool: &str, w: usize, mut shard: S) -> Self {
        let gauge = |field: &str| dosscope_obs::gauge(&format!("pool.{pool}.w{w}.{field}"));
        let (busy_us, idle_us, batches) = (gauge("busy_us"), gauge("idle_us"), gauge("batches"));
        let in_flight = Arc::new(AtomicU64::new(0));
        let queued = in_flight.clone();
        let (tx, rx) = sync_channel::<Arc<Routed<Tag>>>(QUEUE_DEPTH);
        let handle = std::thread::Builder::new()
            .name(format!("shard-worker-{w}"))
            .spawn(move || {
                let (mut busy, mut idle, mut days) = (Duration::ZERO, Duration::ZERO, 0);
                loop {
                    let wait = dosscope_obs::enabled().then(Instant::now);
                    let Ok(routed) = rx.recv() else { break };
                    queued.fetch_sub(1, Ordering::Relaxed);
                    let start = wait.map(|t| {
                        idle += t.elapsed();
                        Instant::now()
                    });
                    shard.process(routed.day(), routed.owned(w));
                    days += 1;
                    if let Some(t) = start {
                        busy += t.elapsed();
                    }
                    busy_us.set(busy.as_micros() as u64);
                    idle_us.set(idle.as_micros() as u64);
                    batches.set(days);
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
/// days of capture rows tagged `Tag`.
pub struct ShardPool<Tag, S: Shard<Tag>> {
    lanes: Vec<Lane<Tag, S>>,
    dispatches: u64,
    dispatches_gauge: Gauge,
    down: bool,
}

impl<Tag: Copy + Send + Sync + 'static, S: Shard<Tag>> ShardPool<Tag, S> {
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

    /// Dispatch one day, routed for this pool's shard count, to every
    /// shard. Blocks while a worker's queue is full; re-raises a shard's
    /// panic once a send finds its worker dead.
    pub fn dispatch(&mut self, routed: Routed<Tag>) {
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
            // is not a queued day, but the one just sent was, if only
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

impl<Tag, S: Shard<Tag>> ShardPool<Tag, S> {
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
impl<Tag, S: Shard<Tag>> Drop for ShardPool<Tag, S> {
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

/// The one merge of a sharded detector's per-shard outputs (events,
/// statistics, peak working set), as [`ShardPool::shutdown`] returns them
/// in shard order: events concatenated and stably sorted by `(start,
/// target, reflection protocol)`, statistics summed, and peaks summed (the
/// shards run concurrently, so the sum bounds the process-wide peak).
/// One target never spans shards, so the result equals a serial run's.
pub fn merge_shards<Stats: Default + AddAssign>(
    outputs: Vec<(Vec<AttackEvent>, Stats, u64)>,
) -> (Vec<AttackEvent>, Stats, u64) {
    let (mut events, mut total, mut peaks) = (Vec::new(), Stats::default(), 0);
    for (shard_events, stats, peak) in outputs {
        events.extend(shard_events);
        total += stats;
        peaks += peak;
    }
    events.sort_by_key(|e| (e.when.start, e.target, e.reflection_protocol()));
    (events, total, peaks)
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
        fn process<'a>(&mut self, _: &CaptureDay<u32>, rows: impl Iterator<Item = &'a Row>) {
            self.seen.extend(rows.map(|r| r.tag));
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
        fn process<'a>(&mut self, _: &CaptureDay<u32>, rows: impl Iterator<Item = &'a Row>) {
            for r in rows {
                assert!(r.tag != 13, "poison item reached a shard");
                self.0 += r.tag;
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
        fn process<'a>(&mut self, _: &CaptureDay<u32>, rows: impl Iterator<Item = &'a Row>) {
            std::thread::sleep(std::time::Duration::from_millis(self.delay_ms));
            self.items += rows.count() as u64;
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
        fn process<'a>(&mut self, _: &CaptureDay<u32>, rows: impl Iterator<Item = &'a Row>) {
            if let Some((entered, gate)) = self.gate.take() {
                let _ = entered.send(());
                let _ = gate.recv();
            }
            self.items += rows.count() as u64;
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

    /// A test row: the value under test rides in the tag.
    type Row = CaptureRow<u32>;

    /// A day of packet-less rows tagged with `items`.
    fn day_of(items: &[u32]) -> CaptureDay<u32> {
        let mut day = CaptureDay::default();
        for &v in items {
            day.push(crate::SimTime(0), 1, v, 0);
        }
        day
    }

    fn route(items: Vec<u32>, shards: usize) -> Routed<u32> {
        Routed::build(day_of(&items), shards, |_, r| r.tag as usize % shards.max(1))
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
        let day = day_of(&[10, 21, 32, 43]);
        let rows = day.rows().as_ptr();
        let routed = Routed::build(day, 2, |_, r| (r.tag % 2) as usize);
        assert_eq!(routed.shards(), 2);
        assert_eq!(routed.day().rows().as_ptr(), rows, "the day is moved, not copied");
        let owned = |s| routed.owned(s).map(|r| r.tag).collect::<Vec<_>>();
        assert_eq!(owned(0), vec![10, 32]);
        assert_eq!(owned(1), vec![21, 43]);
        assert_eq!(routed.owned_len(0), 2);
        // Degenerate shard count routes everything to one shard.
        let one = Routed::build(day_of(&[10, 21, 32, 43]), 0, |_, _| 0);
        assert_eq!(one.shards(), 1);
        assert_eq!(one.owned_len(0), 4);
    }

    /// Routing by source reads each packet's IPv4 source once: rows that
    /// share a packet go to one shard, and unparsable bytes to shard 0.
    #[test]
    fn by_source_routes_rows_with_their_packet() {
        let mut day = CaptureDay::default();
        let mut ids = Vec::new();
        for host in 0..16u8 {
            ids.push(day.append(|buf| {
                let mut header = [0u8; 20];
                header[0] = 0x45;
                header[12..16].copy_from_slice(&[10, 1, host, 7]);
                buf.extend_from_slice(&header);
            }));
        }
        let junk = day.append(|buf| buf.extend_from_slice(&[0xAB; 3]));
        for (i, &id) in ids.iter().chain(&ids).chain([&junk]).enumerate() {
            day.push(crate::SimTime(i as u64), 1, i as u32, id);
        }
        let shards = 4;
        let want: Vec<usize> =
            day.rows().iter().map(|r| shard_of_source(day.packet(r.packet), shards)).collect();
        let routed = Routed::by_source(day, shards);
        for s in 0..shards {
            for r in routed.owned(s) {
                assert_eq!(want[r.tag as usize], s, "row {} on shard {s}", r.tag);
            }
        }
        assert_eq!(want[32], 0, "junk routes to shard 0");
        assert_eq!((0..shards).map(|s| routed.owned_len(s)).sum::<usize>(), 33);
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
