use freshtrack_clock::{
    wire::{self, WireReader},
    FreshnessClock, SharedVectorClock, ThreadId, Time, VectorClock, VectorClockSnapshot,
};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId};

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::plane::{
    BorrowedView, ClockView, EpochView, HistoryAccessEngine, SplitDetector, SyncCtx, SyncEngine,
};
use crate::{Counters, Detector, RaceReport};

/// Algorithm 3 of the paper (**SU**): sampling timestamps plus
/// *freshness timestamps*.
///
/// Every thread and lock additionally carries a [`FreshnessClock`] `U`
/// counting how many entries of each thread's sampling clock have
/// changed. Because a scalar comparison of `U` entries can prove that a
/// synchronization message is redundant (Proposition 5), the handlers
/// can *skip* acquires whose lock clock carries nothing new, and skip
/// the lock-clock copy at releases when the thread has learned nothing
/// since the lock last saw it.
///
/// Like the other sampling engines the detector is a composition of its
/// two planes — a [`FreshnessSyncEngine`] and a [`HistoryAccessEngine`]
/// over the epoch-spliced view (see [`SplitDetector`]).
///
/// Race reports are identical to [`NaiveSamplingDetector`]'s for the same
/// sample set (Lemma 7); only the amount of clock work differs, visible
/// in [`Counters::acquires_skipped`] and
/// [`Counters::releases_processed`].
///
/// [`NaiveSamplingDetector`]: crate::NaiveSamplingDetector
///
/// # Example
///
/// ```
/// use freshtrack_core::{Detector, FreshnessDetector};
/// use freshtrack_sampling::NeverSampler;
/// use freshtrack_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let l = b.lock("l");
/// for _ in 0..100 {
///     b.acquire(0, l).release(0, l);
///     b.acquire(1, l).release(1, l);
/// }
/// let mut su = FreshnessDetector::new(NeverSampler::new());
/// su.run(&b.build());
/// // With nothing sampled, every acquire after warm-up is redundant.
/// assert!(su.counters().acquire_skip_ratio() > 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct FreshnessDetector<S> {
    sync: FreshnessSyncEngine,
    access: HistoryAccessEngine<S>,
    /// `RelAfter_S` bits, as in
    /// [`OrderedListDetector`](crate::OrderedListDetector).
    sampled: Vec<bool>,
    counters: Counters,
}

/// One thread's SU state: its sampling clock `C_t`, freshness clock
/// `U_t` and local epoch `e_t`.
#[derive(Clone, Debug)]
pub struct ThreadState {
    clock: SharedVectorClock,
    fresh: FreshnessClock,
    epoch: Time,
}

impl ThreadState {
    /// Flushes the local epoch if this release is in `RelAfter_S`.
    fn flush_local_epoch(&mut self, tid: ThreadId, sampled: bool, counters: &mut Counters) {
        if sampled {
            let (clock, deep) = self.clock.make_mut();
            if deep {
                counters.deep_copies += 1;
            }
            clock.set(tid, self.epoch);
            self.fresh.bump(tid);
            self.epoch += 1;
            counters.local_increments += 1;
        }
    }
}

impl Default for ThreadState {
    fn default() -> Self {
        ThreadState {
            clock: SharedVectorClock::new(),
            fresh: FreshnessClock::new(),
            epoch: 1,
        }
    }
}

/// One lock's SU state: its sampling clock `Cℓ`, freshness clock `Uℓ`
/// and last releaser.
#[derive(Clone, Debug, Default)]
pub struct LockState {
    clock: VectorClock,
    fresh: FreshnessClock,
    /// `LRℓ`: the last thread to release this lock.
    last_releaser: Option<ThreadId>,
    /// Entered by a `Release`-join (Appendix A.2): the clock carries
    /// information from multiple threads, so the freshness fast path is
    /// disabled until the next store overwrites it.
    mixed: bool,
}

/// The sync-plane half of the SU engine: Algorithm 3's thread/lock
/// sampling clocks *and* freshness clocks, held exactly once.
#[derive(Clone, Debug, Default)]
pub struct FreshnessSyncEngine {
    threads: Vec<ThreadState>,
    locks: Vec<LockState>,
}

impl FreshnessSyncEngine {
    /// Creates an empty sync engine.
    pub fn new() -> Self {
        FreshnessSyncEngine::default()
    }

    fn ensure_lock(&mut self, lock: LockId) {
        if self.locks.len() <= lock.index() {
            self.locks.resize_with(lock.index() + 1, LockState::default);
        }
    }

    /// Number of threads observed so far.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    fn thread_view(&self, tid: ThreadId) -> (&SharedVectorClock, Time) {
        let state = &self.threads[tid.index()];
        (&state.clock, state.epoch)
    }

    /// `ReleaseStore` semantics for non-mutex sync objects: always copy
    /// (the store need not follow an acquire by the same thread, so the
    /// release skip of Algorithm 3 would be unsound — Appendix A.2).
    pub(crate) fn release_store(
        &mut self,
        tid: ThreadId,
        sync: LockId,
        sampled: bool,
        counters: &mut Counters,
    ) {
        self.ensure_lock(sync);
        counters.releases += 1;
        self.threads[tid.index()].flush_local_epoch(tid, sampled, counters);
        let thread = &self.threads[tid.index()];
        let lock_state = &mut self.locks[sync.index()];
        lock_state.clock.assign_from(thread.clock.clock());
        lock_state.fresh.assign_from(&thread.fresh);
        lock_state.last_releaser = Some(tid);
        lock_state.mixed = false;
        counters.releases_processed += 1;
        counters.vc_ops += 2;
        counters.entries_traversed += self.threads.len() as u64;
    }

    /// `Release` (join) semantics for non-mutex sync objects
    /// (Appendix A.2): the object accumulates multiple threads' clocks.
    pub(crate) fn release_join(
        &mut self,
        tid: ThreadId,
        sync: LockId,
        sampled: bool,
        counters: &mut Counters,
    ) {
        self.ensure_lock(sync);
        counters.releases += 1;
        self.threads[tid.index()].flush_local_epoch(tid, sampled, counters);
        let thread = &self.threads[tid.index()];
        let lock_state = &mut self.locks[sync.index()];
        lock_state.clock.join(thread.clock.clock());
        lock_state.fresh.join(&thread.fresh);
        lock_state.last_releaser = None;
        lock_state.mixed = true;
        counters.releases_processed += 1;
        counters.vc_ops += 2;
        counters.entries_traversed += self.threads.len() as u64;
    }
}

impl CheckpointState for FreshnessSyncEngine {
    fn export_state(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.threads.len() as u64);
        for thread in &self.threads {
            wire::put_clock(out, thread.clock.clock());
            wire::put_fresh(out, &thread.fresh);
            wire::put_varint(out, thread.epoch);
        }
        wire::put_varint(out, self.locks.len() as u64);
        for lock in &self.locks {
            wire::put_clock(out, &lock.clock);
            wire::put_fresh(out, &lock.fresh);
            wire::put_bool(out, lock.last_releaser.is_some());
            if let Some(lr) = lock.last_releaser {
                wire::put_varint(out, u64::from(lr.as_u32()));
            }
            wire::put_bool(out, lock.mixed);
        }
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        let n = checkpoint::get_count(&mut r)?;
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            threads.push(ThreadState {
                clock: SharedVectorClock::from_clock(r.get_clock()?),
                fresh: r.get_fresh()?,
                epoch: r.get_varint()?,
            });
        }
        let n = checkpoint::get_count(&mut r)?;
        let mut locks = Vec::with_capacity(n);
        for _ in 0..n {
            locks.push(LockState {
                clock: r.get_clock()?,
                fresh: r.get_fresh()?,
                last_releaser: if r.get_bool()? {
                    Some(ThreadId::new(r.get_u32()?))
                } else {
                    None
                },
                mixed: r.get_bool()?,
            });
        }
        r.finish()?;
        self.threads = threads;
        self.locks = locks;
        Ok(())
    }
}

impl SyncEngine for FreshnessSyncEngine {
    type View = EpochView<VectorClockSnapshot>;
    type Thread = ThreadState;
    type Lock = LockState;
    type Options = ();

    fn options(&self) {}

    fn tables(&mut self) -> (&mut Vec<ThreadState>, &mut Vec<LockState>) {
        (&mut self.threads, &mut self.locks)
    }

    fn new_thread(_tid: ThreadId) -> ThreadState {
        ThreadState::default()
    }

    #[inline]
    fn acquire_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.acquires += 1;
        if !lock.mixed {
            let Some(lr) = lock.last_releaser else {
                // Never released: the lock clock is ⊥, nothing to learn.
                counters.acquires_skipped += 1;
                return;
            };
            if lock.fresh.get(lr) <= thread.fresh.get(lr) {
                // Proposition 5: Cℓ ⊑ C_t — the join would be a no-op.
                counters.acquires_skipped += 1;
                return;
            }
        }
        // A join-mode object (Appendix A.2) has no freshness fast path;
        // a store-mode one reaches here only with something new.
        counters.acquires_processed += 1;
        thread.fresh.join(&lock.fresh);
        // Entry-wise join of the C clock, counting changed entries so the
        // own freshness component stays an exact change count (VT).
        let (clock, deep) = thread.clock.make_mut();
        if deep {
            counters.deep_copies += 1;
        }
        let changed = clock.join(&lock.clock);
        if changed > 0 {
            thread.fresh.bump_by(tid, changed as Time);
        }
        counters.vc_ops += 2;
        counters.entries_traversed += ctx.threads as u64;
    }

    #[inline]
    fn release_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        thread.flush_local_epoch(tid, sampled_since_release, counters);
        lock.last_releaser = Some(tid);
        lock.mixed = false;
        if thread.fresh.get(tid) != lock.fresh.get(tid) {
            // The release copy never needs the change count: memcpy.
            lock.clock.assign_from(thread.clock.clock());
            lock.fresh.assign_from(&thread.fresh);
            counters.releases_processed += 1;
            counters.vc_ops += 2;
            counters.entries_traversed += ctx.threads as u64;
        } else {
            // The lock already carries this thread's current timestamp.
            counters.releases_skipped += 1;
        }
    }

    fn thread_view(tid: ThreadId, thread: &ThreadState) -> impl ClockView + '_ {
        let (clock, epoch) = (thread.clock.clock(), thread.epoch);
        BorrowedView {
            lookup: move |u| if u == tid { epoch } else { clock.get(u) },
            width: clock.len(),
        }
    }

    fn publish_at(tid: ThreadId, thread: &mut ThreadState) -> EpochView<VectorClockSnapshot> {
        EpochView {
            snap: thread.clock.snapshot(),
            epoch: thread.epoch,
            tid,
        }
    }

    fn reserve_at(thread: &mut ThreadState, n: usize) {
        let last = ThreadId::new(n as u32 - 1);
        let (clock, _) = thread.clock.make_mut();
        let pad = clock.get(last);
        clock.set(last, pad);
    }
}

impl<S: Sampler> FreshnessDetector<S> {
    /// Creates a detector using `sampler` to pick the sample set.
    pub fn new(sampler: S) -> Self {
        FreshnessDetector {
            sync: FreshnessSyncEngine::new(),
            access: HistoryAccessEngine::new(sampler),
            sampled: Vec::new(),
            counters: Counters::new(),
        }
    }

    fn ensure_thread(&mut self, tid: ThreadId) {
        self.sync.ensure_thread(tid);
        if self.sampled.len() <= tid.index() {
            self.sampled.resize(tid.index() + 1, false);
        }
    }

    fn take_sampled(&mut self, tid: ThreadId) -> bool {
        std::mem::take(&mut self.sampled[tid.index()])
    }
}

impl<S: Sampler> Detector for FreshnessDetector<S> {
    fn process(&mut self, id: EventId, event: Event) -> Option<RaceReport> {
        // Hoisted-first: a skipped access is a tally and nothing else
        // (invariant 10).
        if let EventKind::Read(_) | EventKind::Write(_) = event.kind {
            if !crate::plane::AccessEngine::decide(&self.access, id, event) {
                self.counters.events += 1;
                crate::plane::tally_access(&event, &mut self.counters);
                return None;
            }
        }
        self.process_admitted(id, event)
    }

    fn process_admitted(&mut self, id: EventId, event: Event) -> Option<RaceReport> {
        self.counters.events += 1;
        let tid = event.tid;
        match event.kind {
            EventKind::Read(_) | EventKind::Write(_) => {
                self.ensure_thread(tid);
                let Self {
                    sync,
                    access,
                    sampled,
                    counters,
                } = self;
                let (clock, epoch) = sync.thread_view(tid);
                let view = BorrowedView {
                    lookup: |u| if u == tid { epoch } else { clock.get(u) },
                    width: sync.thread_count(),
                };
                let outcome = access.access_sampled_with(id, event, &view, counters);
                if outcome.sampled {
                    sampled[tid.index()] = true;
                }
                outcome.report
            }
            EventKind::Acquire(lock) => {
                self.ensure_thread(tid);
                self.sync.acquire(tid, lock, &mut self.counters);
                None
            }
            EventKind::Release(lock) => {
                self.ensure_thread(tid);
                let sampled = self.take_sampled(tid);
                self.sync.release(tid, lock, sampled, &mut self.counters);
                None
            }
        }
    }

    fn counters(&self) -> &Counters {
        &self.counters
    }

    fn reserve_threads(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.ensure_thread(ThreadId::new(n as u32 - 1));
        self.sync.reserve_threads(n);
    }

    fn name(&self) -> &'static str {
        "SU"
    }

    fn hoisted_decider(&self) -> crate::HoistedDecider {
        let sampler = self.access.sampler().clone();
        Box::new(move |id, event| sampler.decide(id, event))
    }

    fn record_skipped_accesses(&mut self, reads: u64, writes: u64) {
        self.counters.fold_skipped_accesses(reads, writes);
    }
}

impl<S> CheckpointState for FreshnessDetector<S> {
    fn export_state(&self, out: &mut Vec<u8>) {
        checkpoint::put_detector(out, &self.sync, &self.access, &self.sampled, &self.counters);
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let (sampled, counters) =
            checkpoint::get_detector(bytes, &mut self.sync, &mut self.access)?;
        self.sampled = sampled;
        self.counters = counters;
        Ok(())
    }
}

impl<S: Sampler + Clone + Send> SplitDetector for FreshnessDetector<S> {
    type Sync = FreshnessSyncEngine;
    type Access = HistoryAccessEngine<S>;
    type View = EpochView<VectorClockSnapshot>;

    fn split_sync(&self) -> FreshnessSyncEngine {
        FreshnessSyncEngine::new()
    }

    fn split_access(&self) -> Self::Access {
        self.access.clone()
    }
}

impl<S: Sampler> crate::SyncOps for FreshnessDetector<S> {
    fn release_store(&mut self, tid: u32, sync: LockId) {
        let tid = ThreadId::new(tid);
        self.ensure_thread(tid);
        let sampled = self.take_sampled(tid);
        self.sync
            .release_store(tid, sync, sampled, &mut self.counters);
    }

    fn release_join(&mut self, tid: u32, sync: LockId) {
        let tid = ThreadId::new(tid);
        self.ensure_thread(tid);
        let sampled = self.take_sampled(tid);
        self.sync
            .release_join(tid, sync, sampled, &mut self.counters);
    }

    fn acquire_sync(&mut self, tid: u32, sync: LockId) {
        let tid = ThreadId::new(tid);
        self.ensure_thread(tid);
        // `acquire` already falls back to a full join for mixed objects
        // and uses the freshness skip after stores.
        self.sync.acquire(tid, sync, &mut self.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveSamplingDetector;
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler};
    use freshtrack_trace::TraceBuilder;

    #[test]
    fn matches_algorithm2_reports_on_contended_trace() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.write(1, y);
        b.acquire(1, l).write(1, x).release(1, l);
        b.write(0, y); // races with T1's write to y
        let trace = b.build();
        let reference = NaiveSamplingDetector::new(AlwaysSampler::new()).run(&trace);
        let su = FreshnessDetector::new(AlwaysSampler::new()).run(&trace);
        assert_eq!(reference, su);
        assert_eq!(su.len(), 1);
    }

    #[test]
    fn matches_algorithm2_under_partial_sampling() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        for round in 0..50u32 {
            let t = round % 3;
            b.acquire(t, l).write(t, x).release(t, l);
            b.write(t, x);
        }
        b.write(3, x);
        let trace = b.build();
        for seed in 0..5 {
            let sampler = BernoulliSampler::new(0.3, seed);
            let reference = NaiveSamplingDetector::new(sampler).run(&trace);
            let su = FreshnessDetector::new(sampler).run(&trace);
            assert_eq!(reference, su, "seed {seed}");
        }
    }

    #[test]
    fn fig2_skips_redundant_acquires() {
        // The Fig. 1 execution again; Fig. 2 shows e12 and e14 (the
        // acquires of ℓ2 and ℓ3 by t2) being skipped, while e8 and e18
        // perform joins.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l1 = b.lock("l1");
        let l2 = b.lock("l2");
        let l3 = b.lock("l3");
        let l4 = b.lock("l4");
        b.acquire(0, l4)
            .acquire(0, l3)
            .acquire(0, l2)
            .acquire(0, l1);
        b.write(0, x); // e5, sampled
        b.release(0, l1);
        b.write(0, x); // e7, not sampled
        b.acquire(1, l1); // e8: join
        b.write(1, x); // e9, not sampled
        b.release(0, l2);
        b.write(0, x); // e11, not sampled
        b.acquire(1, l2); // e12: skipped
        b.release(0, l3);
        b.acquire(1, l3); // e14: skipped
        b.write(0, x); // e15, sampled
        b.write(0, x); // e16, sampled
        b.release(0, l4);
        b.acquire(1, l4); // e18: join
        let trace = b.build();

        #[derive(Clone)]
        struct MarkSampler;
        impl Sampler for MarkSampler {
            fn decide(&self, id: EventId, _event: Event) -> bool {
                matches!(id.index(), 4 | 14 | 15)
            }
            fn nominal_rate(&self) -> f64 {
                f64::NAN
            }
        }

        let mut su = FreshnessDetector::new(MarkSampler);
        su.run(&trace);
        let c = su.counters();
        // t1's four initial acquires of never-released locks are skipped
        // trivially; of t2's four acquires, e12 and e14 are skipped.
        assert_eq!(c.acquires, 8);
        assert_eq!(c.acquires_skipped, 6);
        assert_eq!(c.acquires_processed, 2);
    }

    #[test]
    fn releases_with_no_news_are_skipped() {
        let mut b = TraceBuilder::new();
        let l = b.lock("l");
        // The same thread re-releasing without learning anything new
        // must not copy again.
        b.acquire(0, l).release(0, l);
        b.acquire(0, l).release(0, l);
        b.acquire(0, l).release(0, l);
        let mut su = FreshnessDetector::new(NeverSampler::new());
        su.run(&b.build());
        let c = su.counters();
        assert_eq!(c.releases, 3);
        // With S = ∅, U_t(t) = Uℓ(t) = 0 throughout: every copy skipped.
        assert_eq!(c.releases_processed, 0);
        assert_eq!(c.releases_skipped, 3);
    }

    #[test]
    fn empty_sample_set_skips_everything_after_warmup() {
        let mut b = TraceBuilder::new();
        let l = b.lock("l");
        let m = b.lock("m");
        for _ in 0..10 {
            b.acquire(0, l).acquire(0, m).release(0, m).release(0, l);
            b.acquire(1, l).acquire(1, m).release(1, m).release(1, l);
        }
        let mut su = FreshnessDetector::new(NeverSampler::new());
        su.run(&b.build());
        let c = su.counters();
        assert_eq!(c.acquires_processed, 0);
        assert_eq!(c.releases_processed, 0);
    }
}
