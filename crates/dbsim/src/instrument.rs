use std::fmt;
use std::sync::Arc;

use freshtrack_core::{
    Counters, Detector, OnlineDetector, RaceReport, ShardedOnlineDetector, SplitDetector, SyncMode,
    ThreadHandle,
};

/// The callback surface of an instrumented binary.
///
/// Semantically these are ThreadSanitizer's `__tsan_read`/`__tsan_write`
/// and mutex hooks. The database calls them inline from its worker
/// threads; implementations must therefore be cheap to share
/// (`Send + Sync`).
///
/// A worker thread does not call these directly: it asks once for its
/// own [`Worker`] ([`worker`](Instrument::worker)) and sends every
/// callback through that.
pub trait Instrument: Send + Sync {
    /// A read of shared location `var` by worker `tid`.
    fn read(&self, tid: u32, var: u32);
    /// A write of shared location `var` by worker `tid`.
    fn write(&self, tid: u32, var: u32);
    /// Lock `lock` acquired by worker `tid` (called while actually held).
    fn acquire(&self, tid: u32, lock: u32);
    /// Lock `lock` about to be released by worker `tid` (called while
    /// still held).
    fn release(&self, tid: u32, lock: u32);

    /// The callbacks of worker `tid`, for that worker's thread to call
    /// for as long as it runs.
    ///
    /// The default forwards each callback to the methods above with
    /// `tid` filled in. It is generic over the implementing type, so a
    /// worker's callback costs one dynamic call, as calling through
    /// `&dyn Instrument` does. An instrument with per-thread state
    /// overrides this to hand the worker that state
    /// ([`ShardedInstrument`] returns its detector's
    /// [`ThreadHandle`](freshtrack_core::ThreadHandle)).
    fn worker(&self, tid: u32) -> Box<dyn Worker + '_> {
        Box::new(Forward { inst: self, tid })
    }
}

/// One worker thread's callbacks: [`Instrument`]'s, with the thread id
/// bound and exclusive (`&mut`) access, so an implementation may keep
/// the thread's state by value. The database calls them in the
/// worker's program order.
pub trait Worker {
    /// A read of shared location `var`.
    fn read(&mut self, var: u32);
    /// A write of shared location `var`.
    fn write(&mut self, var: u32);
    /// Lock `lock` acquired (called while actually held).
    fn acquire(&mut self, lock: u32);
    /// Lock `lock` about to be released (called while still held).
    fn release(&mut self, lock: u32);
}

/// [`Instrument::worker`]'s default: forwards to the instrument.
struct Forward<'a, I: ?Sized> {
    inst: &'a I,
    tid: u32,
}

impl<I: Instrument + ?Sized> Worker for Forward<'_, I> {
    #[inline]
    fn read(&mut self, var: u32) {
        self.inst.read(self.tid, var);
    }
    #[inline]
    fn write(&mut self, var: u32) {
        self.inst.write(self.tid, var);
    }
    #[inline]
    fn acquire(&mut self, lock: u32) {
        self.inst.acquire(self.tid, lock);
    }
    #[inline]
    fn release(&mut self, lock: u32) {
        self.inst.release(self.tid, lock);
    }
}

impl<D: SplitDetector> Worker for ThreadHandle<'_, D> {
    fn read(&mut self, var: u32) {
        ThreadHandle::read(self, var);
    }
    fn write(&mut self, var: u32) {
        ThreadHandle::write(self, var);
    }
    fn acquire(&mut self, lock: u32) {
        ThreadHandle::acquire(self, lock);
    }
    fn release(&mut self, lock: u32) {
        ThreadHandle::release(self, lock);
    }
}

/// The uninstrumented baseline (the paper's **NT**): every callback is a
/// no-op the optimizer removes.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoInstrument;

impl Instrument for NoInstrument {
    #[inline]
    fn read(&self, _tid: u32, _var: u32) {}
    #[inline]
    fn write(&self, _tid: u32, _var: u32) {}
    #[inline]
    fn acquire(&self, _tid: u32, _lock: u32) {}
    #[inline]
    fn release(&self, _tid: u32, _lock: u32) {}
}

/// Error returned by the fallible shutdown paths
/// ([`DetectorInstrument::try_finish`] /
/// [`ShardedInstrument::try_finish`]) when worker threads still hold
/// handles to the detector: finishing now could lose events those
/// workers are still emitting, so the caller must join the workers
/// first and retry with the returned instrument.
pub struct StillShared<T> {
    /// The instrument, handed back so the caller can retry.
    pub instrument: T,
    /// Number of other live handles observed at the failed attempt.
    pub handles: usize,
}

impl<T> fmt::Debug for StillShared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StillShared")
            .field("handles", &self.handles)
            .finish_non_exhaustive()
    }
}

impl<T> fmt::Display for StillShared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot finish instrumentation: {} worker handle(s) still live; join the workers first",
            self.handles
        )
    }
}

impl<T> std::error::Error for StillShared<T> {}

/// Routes instrumentation callbacks into a streaming detector behind
/// [`OnlineDetector`]'s serialization mutex.
///
/// The serialization is part of what the paper measures: the more work a
/// detector performs per event, the longer application threads queue
/// here, amplifying the application's own contention. For the
/// throughput-oriented alternative, see [`ShardedInstrument`].
pub struct DetectorInstrument<D> {
    online: Arc<OnlineDetector<D>>,
}

impl<D: Detector + Send> DetectorInstrument<D> {
    /// Wraps a detector.
    pub fn new(detector: D) -> Self {
        DetectorInstrument {
            online: Arc::new(OnlineDetector::new(detector)),
        }
    }

    /// Races found so far.
    pub fn race_count(&self) -> usize {
        self.online.race_count()
    }

    /// Consumes the instrument, returning the detector and reports, or
    /// an error (carrying the instrument back) if worker threads still
    /// hold handles — the safe shutdown path.
    pub fn try_finish(self) -> Result<(D, Vec<RaceReport>), StillShared<Self>> {
        match Arc::try_unwrap(self.online) {
            Ok(online) => Ok(online.finish()),
            Err(online) => {
                let handles = Arc::strong_count(&online) - 1;
                Err(StillShared {
                    instrument: DetectorInstrument { online },
                    handles,
                })
            }
        }
    }

    /// Consumes the instrument, returning the detector and reports.
    ///
    /// # Panics
    ///
    /// Panics if worker threads still hold references; use
    /// [`try_finish`](DetectorInstrument::try_finish) to get an error
    /// instead.
    pub fn finish(self) -> (D, Vec<RaceReport>) {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }

    /// A shareable handle for worker threads.
    pub fn handle(&self) -> Arc<OnlineDetector<D>> {
        Arc::clone(&self.online)
    }
}

impl<D: Detector + Send> Instrument for DetectorInstrument<D> {
    fn read(&self, tid: u32, var: u32) {
        self.online.read(tid, var);
    }

    fn write(&self, tid: u32, var: u32) {
        self.online.write(tid, var);
    }

    fn acquire(&self, tid: u32, lock: u32) {
        self.online.acquire(tid, lock);
    }

    fn release(&self, tid: u32, lock: u32) {
        self.online.release(tid, lock);
    }
}

/// Routes instrumentation callbacks into a
/// [`ShardedOnlineDetector`]: per-variable access shards plus
/// per-thread and per-lock sync state, instead of one global analysis
/// mutex. Every sampled access is analyzed inside its own callback.
///
/// Each worker ([`worker`](Instrument::worker)) gets its thread's
/// [`ThreadHandle`], so its callbacks take no thread mutex; the
/// `&self` callbacks (`read`, …) feed the detector by
/// [`on_event`](ShardedOnlineDetector::on_event). While worker `tid`
/// lives, a second worker for `tid` panics, and so does a `&self`
/// callback for `tid` that reaches the thread's state (any but a
/// sampled-out access).
///
/// This is the scale-oriented ingestion path. It deliberately does
/// *not* reproduce the paper's single-lock contention model —
/// [`DetectorInstrument`] remains the paper-faithful baseline — but it
/// reports the same races for the same event stream (the
/// verdict-preservation invariant; see [`ShardedOnlineDetector`]).
pub struct ShardedInstrument<D: SplitDetector> {
    online: Arc<ShardedOnlineDetector<D>>,
}

impl<D: SplitDetector + 'static> ShardedInstrument<D> {
    /// Builds an instrument with `shards` access shards; `detector`
    /// (which must be in its initial state) seeds the engine
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(detector: D, shards: usize) -> Self {
        Self::with_options(detector, shards, SyncMode::Seqlock, 1)
    }

    /// [`new`](ShardedInstrument::new) under the signature of older
    /// callers. [`SyncMode`] has a single variant, and `batch` is the
    /// legacy per-shard access-batch capacity: batched ingestion was
    /// removed, so the only accepted value is `1`. Both parameters
    /// remain so that callers which name them keep compiling.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if `batch` is not `1` — a caller
    /// still asking for batching fails loudly instead of silently
    /// running unbatched.
    pub fn with_options(detector: D, shards: usize, _mode: SyncMode, batch: usize) -> Self {
        assert!(
            batch == 1,
            "batched ingestion was removed: batch must be 1, got {batch}"
        );
        ShardedInstrument {
            online: Arc::new(ShardedOnlineDetector::new(detector, shards)),
        }
    }

    /// Number of detector shards.
    pub fn shard_count(&self) -> usize {
        self.online.shard_count()
    }

    /// Pre-sizes every shard's clock state for `n` worker threads.
    pub fn reserve_threads(&self, n: usize) {
        self.online.reserve_threads(n);
    }

    /// Races found so far, across all shards.
    pub fn race_count(&self) -> usize {
        self.online.race_count()
    }

    /// Consumes the instrument, returning the merged (EventId-sorted)
    /// reports and the aggregated [`Counters`], or an error (carrying
    /// the instrument back) if worker threads still hold handles — the
    /// safe shutdown path.
    pub fn try_finish(self) -> Result<(Vec<RaceReport>, Counters), StillShared<Self>> {
        match Arc::try_unwrap(self.online) {
            Ok(online) => Ok(online.finish_merged()),
            Err(online) => {
                let handles = Arc::strong_count(&online) - 1;
                Err(StillShared {
                    instrument: ShardedInstrument { online },
                    handles,
                })
            }
        }
    }

    /// Consumes the instrument, returning merged reports and
    /// aggregated counters.
    ///
    /// # Panics
    ///
    /// Panics if worker threads still hold references; use
    /// [`try_finish`](ShardedInstrument::try_finish) to get an error
    /// instead.
    pub fn finish(self) -> (Vec<RaceReport>, Counters) {
        self.try_finish().unwrap_or_else(|e| panic!("{e}"))
    }

    /// A shareable handle for worker threads.
    pub fn handle(&self) -> Arc<ShardedOnlineDetector<D>> {
        Arc::clone(&self.online)
    }
}

impl<D: SplitDetector + 'static> Instrument for ShardedInstrument<D> {
    fn read(&self, tid: u32, var: u32) {
        self.online.read(tid, var);
    }

    fn write(&self, tid: u32, var: u32) {
        self.online.write(tid, var);
    }

    fn acquire(&self, tid: u32, lock: u32) {
        self.online.acquire(tid, lock);
    }

    fn release(&self, tid: u32, lock: u32) {
        self.online.release(tid, lock);
    }

    /// The worker's [`ThreadHandle`]: its events take no thread mutex.
    fn worker(&self, tid: u32) -> Box<dyn Worker + '_> {
        Box::new(self.online.thread(tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_core::{DjitDetector, EmptyDetector};
    use freshtrack_sampling::AlwaysSampler;

    #[test]
    fn no_instrument_is_a_no_op() {
        let n = NoInstrument;
        n.read(0, 0);
        n.write(0, 0);
        n.acquire(0, 0);
        n.release(0, 0);
    }

    #[test]
    fn detector_instrument_finds_races() {
        let inst = DetectorInstrument::new(DjitDetector::new(AlwaysSampler::new()));
        inst.write(0, 7);
        inst.write(1, 7);
        assert_eq!(inst.race_count(), 1);
        let (_, reports) = inst.finish();
        assert_eq!(reports.len(), 1);
    }

    #[test]
    fn empty_detector_counts_events() {
        let inst = DetectorInstrument::new(EmptyDetector::new());
        inst.acquire(0, 1);
        inst.read(0, 2);
        inst.release(0, 1);
        let (d, reports) = inst.finish();
        assert!(reports.is_empty());
        assert_eq!(d.counters().events, 3);
    }

    #[test]
    fn try_finish_fails_while_handles_are_live_then_succeeds() {
        let inst = DetectorInstrument::new(DjitDetector::new(AlwaysSampler::new()));
        let handle = inst.handle();
        handle.write(0, 1);
        let err = inst.try_finish().expect_err("handle is still live");
        assert_eq!(err.handles, 1);
        assert!(err.to_string().contains("join the workers"));
        drop(handle);
        let (_, reports) = err.instrument.try_finish().expect("handle dropped");
        assert!(reports.is_empty());
    }

    #[test]
    fn sharded_instrument_finds_races_and_merges_counters() {
        fn feed(inst: &impl Instrument) {
            inst.acquire(0, 0);
            inst.write(0, 3);
            inst.release(0, 0);
            inst.write(1, 3); // races with t0's write (no common lock held)
            inst.write(1, 9);
        }
        let reference = DetectorInstrument::new(DjitDetector::new(AlwaysSampler::new()));
        feed(&reference);
        let (detector, want_reports) = reference.finish();
        for shards in [1usize, 2, 4, 7] {
            let inst = ShardedInstrument::with_options(
                DjitDetector::new(AlwaysSampler::new()),
                shards,
                SyncMode::Seqlock,
                1,
            );
            assert_eq!(inst.shard_count(), shards);
            feed(&inst);
            let (reports, counters) = inst.finish();
            assert_eq!(reports, want_reports, "shards={shards}");
            assert_eq!(counters, *detector.counters(), "shards={shards}");
            assert_eq!(counters.events, 5);
            assert_eq!(counters.races, 1);
        }
    }

    #[test]
    fn workers_feed_like_direct_callbacks() {
        // The stream of the test above, fed per worker: through the
        // default forwarding worker of the single mutex, and through
        // the sharded instrument's thread handles.
        fn feed(inst: &dyn Instrument) {
            let mut t0 = inst.worker(0);
            t0.acquire(0);
            t0.write(3);
            t0.release(0);
            drop(t0);
            let mut t1 = inst.worker(1);
            t1.write(3);
            t1.write(9);
        }
        let reference = DetectorInstrument::new(DjitDetector::new(AlwaysSampler::new()));
        feed(&reference);
        let (detector, want_reports) = reference.finish();
        assert_eq!(want_reports.len(), 1);
        for shards in [1usize, 4] {
            let inst = ShardedInstrument::new(DjitDetector::new(AlwaysSampler::new()), shards);
            feed(&inst);
            let (reports, counters) = inst.finish();
            assert_eq!(reports, want_reports, "shards={shards}");
            assert_eq!(counters, *detector.counters(), "shards={shards}");
        }
    }

    #[test]
    #[should_panic(expected = "thread() for thread 0 while its ThreadHandle is live")]
    fn a_second_sharded_worker_for_a_thread_is_rejected() {
        let inst = ShardedInstrument::new(EmptyDetector::new(), 2);
        let _first = inst.worker(0);
        let _second = inst.worker(0);
    }

    #[test]
    #[should_panic(expected = "batched ingestion was removed")]
    fn batch_above_one_is_rejected() {
        let _ = ShardedInstrument::with_options(
            DjitDetector::new(AlwaysSampler::new()),
            2,
            SyncMode::Seqlock,
            2,
        );
    }

    #[test]
    fn sharded_try_finish_roundtrips_through_live_handles() {
        let inst = ShardedInstrument::new(EmptyDetector::new(), 2);
        let handle = inst.handle();
        let err = inst.try_finish().expect_err("handle is still live");
        assert_eq!(err.handles, 1);
        drop(handle);
        let (reports, counters) = err.instrument.try_finish().expect("handle dropped");
        assert!(reports.is_empty());
        assert_eq!(counters.events, 0);
    }
}
