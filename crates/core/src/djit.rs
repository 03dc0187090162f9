use freshtrack_clock::{
    wire::{self, WireReader},
    ThreadId, VectorClock,
};
use freshtrack_sampling::Sampler;

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::composed::{Composed, EngineName};
use crate::plane::{BorrowedView, ClockView, HistoryAccessEngine, SyncCtx, SyncEngine};

/// The sync-plane half shared by the engines whose synchronization
/// handlers are the classical Djit+ ones: every thread clock and lock
/// clock held once, acquire = `O(T)` join, release = `O(T)` copy plus a
/// local increment. Both [`DjitDetector`] and
/// [`FastTrackDetector`](crate::FastTrackDetector) are [`Composed`] over
/// this type (FastTrack's epoch optimization only changes *access*
/// handling). A [`ShardedOnlineDetector`](crate::ShardedOnlineDetector)
/// keeps the same per-thread and per-lock clocks in per-object slots.
#[derive(Clone, Debug, Default)]
pub struct VectorSyncEngine {
    threads: Vec<VectorClock>,
    locks: Vec<VectorClock>,
}

impl CheckpointState for VectorSyncEngine {
    fn export_state(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.threads.len() as u64);
        for thread in &self.threads {
            wire::put_clock(out, thread);
        }
        wire::put_varint(out, self.locks.len() as u64);
        for lock in &self.locks {
            wire::put_clock(out, lock);
        }
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        let n = checkpoint::get_count(&mut r)?;
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            threads.push(r.get_clock()?);
        }
        let n = checkpoint::get_count(&mut r)?;
        let mut locks = Vec::with_capacity(n);
        for _ in 0..n {
            locks.push(r.get_clock()?);
        }
        r.finish()?;
        self.threads = threads;
        self.locks = locks;
        Ok(())
    }
}

impl SyncEngine for VectorSyncEngine {
    type Thread = VectorClock;
    type Lock = VectorClock;
    type Options = ();

    const READS_REL_AFTER_S: bool = false;

    fn from_options(_: ()) -> Self {
        VectorSyncEngine::default()
    }

    fn options(&self) {}

    fn tables(&mut self) -> (&mut Vec<VectorClock>, &mut Vec<VectorClock>) {
        (&mut self.threads, &mut self.locks)
    }

    fn new_thread(tid: ThreadId) -> VectorClock {
        // C_t ← ⊥[t ↦ 1]
        VectorClock::bottom_with(tid, 1)
    }

    #[inline]
    fn acquire_at(
        _tid: ThreadId,
        thread: &mut VectorClock,
        lock: &mut VectorClock,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.acquires += 1;
        counters.acquires_processed += 1;
        // Bottom fast path: a never-released lock carries ⊥ and cannot
        // teach the thread anything.
        if !lock.is_empty() {
            thread.join(lock);
        }
        counters.vc_ops += 1;
        counters.entries_traversed += ctx.threads as u64;
    }

    #[inline]
    fn release_at(
        tid: ThreadId,
        thread: &mut VectorClock,
        lock: &mut VectorClock,
        _sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        counters.releases_processed += 1;
        // Cℓ ← C_t (straight memcpy; the change count is not needed),
        // then bump the local component.
        lock.assign_from(thread);
        thread.increment(tid);
        counters.vc_ops += 1;
        counters.entries_traversed += ctx.threads as u64;
        counters.local_increments += 1;
    }

    fn release_join_at(
        tid: ThreadId,
        thread: &mut VectorClock,
        lock: &mut VectorClock,
        _sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        counters.releases_processed += 1;
        lock.join(thread);
        thread.increment(tid);
        counters.local_increments += 1;
        counters.vc_ops += 1;
        counters.entries_traversed += ctx.threads as u64;
    }

    fn thread_view(_tid: ThreadId, thread: &VectorClock) -> impl ClockView + '_ {
        // `C_t[t] = e_t` already holds in a raw vector clock.
        BorrowedView {
            lookup: move |u| thread.get(u),
            width: thread.len(),
        }
    }

    fn reserve_at(thread: &mut VectorClock, n: usize) {
        let last = ThreadId::new(n as u32 - 1);
        let pad = thread.get(last);
        thread.set(last, pad);
    }
}

/// Algorithm 1 of the paper: the classical Djit+ vector-clock race
/// detector, extended with access-level sampling.
///
/// With [`AlwaysSampler`](freshtrack_sampling::AlwaysSampler) this is
/// exactly Djit+ (every access analyzed). With a real sampler it becomes
/// the paper's **ST** configuration — "the naive sampling algorithm
/// without optimizations on synchronization handlers": non-sampled
/// accesses are skipped entirely, but every acquire still performs an
/// `O(T)` join and every release an `O(T)` copy plus a local increment.
///
/// The detector is the [`Composed`] of a [`VectorSyncEngine`] for
/// acquire/release and a [`HistoryAccessEngine`] for read/write — the
/// same halves a [`ShardedOnlineDetector`](crate::ShardedOnlineDetector)
/// distributes across its per-object sync slots and access shards (see
/// [`SplitDetector`](crate::SplitDetector)), so the sharded and
/// monolithic semantics cannot drift apart.
///
/// # Example
///
/// ```
/// use freshtrack_core::{Detector, DjitDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use freshtrack_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// b.write(0, x);
/// b.write(1, x);
/// let races = DjitDetector::new(AlwaysSampler::new()).run(&b.build());
/// assert_eq!(races.len(), 1);
/// ```
pub type DjitDetector<S> = Composed<VectorSyncEngine, HistoryAccessEngine<S>>;

impl<S: Sampler> DjitDetector<S> {
    /// Creates a detector using `sampler` to pick the sample set.
    pub fn new(sampler: S) -> Self {
        Composed::from_halves(
            VectorSyncEngine::default(),
            HistoryAccessEngine::new(sampler),
        )
    }
}

impl<S> EngineName for DjitDetector<S> {
    const NAME: &'static str = "Djit+";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Detector;
    use freshtrack_sampling::AlwaysSampler;
    use freshtrack_trace::TraceBuilder;

    fn full() -> DjitDetector<AlwaysSampler> {
        DjitDetector::new(AlwaysSampler::new())
    }

    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(1, l).write(1, x).release(1, l);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn unsynchronized_writes_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x);
        b.write(1, x);
        let races = full().run(&b.build());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].event.index(), 1);
        assert!(races[0].with_write);
    }

    #[test]
    fn read_read_is_not_a_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.read(0, x);
        b.read(1, x);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn write_after_unordered_read_races() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.read(0, x);
        b.write(1, x);
        let races = full().run(&b.build());
        assert_eq!(races.len(), 1);
        assert!(races[0].with_read);
        assert!(!races[0].with_write);
    }

    #[test]
    fn fork_edge_orders_accesses() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x);
        b.fork(0, 1);
        b.write(1, x);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn join_edge_orders_accesses() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.fork(0, 1);
        b.write(1, x);
        b.join(0, 1);
        b.write(0, x);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn same_thread_accesses_never_race() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x).read(0, x).write(0, x);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn lock_chain_provides_transitive_order() {
        // T0 writes under l; T1 relays via l→m; T2 reads under m.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        let m = b.lock("m");
        b.acquire(0, l).write(0, x).release(0, l);
        b.acquire(1, l).acquire(1, m).release(1, m).release(1, l);
        b.acquire(2, m).read(2, x).release(2, m);
        assert!(full().run(&b.build()).is_empty());
    }

    #[test]
    fn counters_track_sync_work() {
        let mut b = TraceBuilder::new();
        let l = b.lock("l");
        b.acquire(0, l).release(0, l);
        b.acquire(1, l).release(1, l);
        let mut d = full();
        d.run(&b.build());
        let c = d.counters();
        assert_eq!(c.acquires, 2);
        assert_eq!(c.releases, 2);
        assert_eq!(c.acquires_processed, 2);
        assert_eq!(c.releases_processed, 2);
        assert_eq!(c.local_increments, 2);
        assert_eq!(c.acquires_skipped, 0);
    }

    #[test]
    fn monolithic_clocks_never_deep_copy() {
        // A monolithic detector never publishes views, so its shared
        // thread clocks stay exclusively owned throughout.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        for t in 0..3 {
            b.acquire(t, l).write(t, x).release(t, l);
        }
        let mut d = full();
        d.run(&b.build());
        assert_eq!(d.counters().deep_copies, 0);
    }
}
