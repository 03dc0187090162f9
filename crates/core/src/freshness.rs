use freshtrack_clock::{
    wire::{self, WireReader},
    FreshnessClock, ThreadId, Time, VectorClock,
};
use freshtrack_sampling::Sampler;

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::composed::{Composed, EngineName};
use crate::plane::{BorrowedView, ClockView, HistoryAccessEngine, SyncCtx, SyncEngine};
use crate::Counters;

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
/// The detector is the [`Composed`] of a [`FreshnessSyncEngine`] and a
/// [`HistoryAccessEngine`] over the epoch-spliced view (see
/// [`SplitDetector`](crate::SplitDetector)).
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
pub type FreshnessDetector<S> = Composed<FreshnessSyncEngine, HistoryAccessEngine<S>>;

impl<S: Sampler> FreshnessDetector<S> {
    /// Creates a detector using `sampler` to pick the sample set.
    pub fn new(sampler: S) -> Self {
        Composed::from_halves(
            FreshnessSyncEngine::default(),
            HistoryAccessEngine::new(sampler),
        )
    }
}

impl<S> EngineName for FreshnessDetector<S> {
    const NAME: &'static str = "SU";
}

/// One thread's SU state: its sampling clock `C_t`, freshness clock
/// `U_t` and local epoch `e_t`.
#[derive(Clone, Debug)]
pub struct ThreadState {
    clock: VectorClock,
    fresh: FreshnessClock,
    epoch: Time,
}

impl ThreadState {
    /// Flushes the local epoch if this release is in `RelAfter_S`.
    fn flush_local_epoch(&mut self, tid: ThreadId, sampled: bool, counters: &mut Counters) {
        if sampled {
            self.clock.set(tid, self.epoch);
            self.fresh.bump(tid);
            self.epoch += 1;
            counters.local_increments += 1;
        }
    }
}

impl Default for ThreadState {
    fn default() -> Self {
        ThreadState {
            clock: VectorClock::new(),
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

impl CheckpointState for FreshnessSyncEngine {
    fn export_state(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.threads.len() as u64);
        for thread in &self.threads {
            wire::put_clock(out, &thread.clock);
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
                clock: r.get_clock()?,
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
    type Thread = ThreadState;
    type Lock = LockState;
    type Options = ();

    const READS_REL_AFTER_S: bool = true;

    fn from_options(_: ()) -> Self {
        FreshnessSyncEngine::default()
    }

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
        let changed = thread.clock.join(&lock.clock);
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
            lock.clock.assign_from(&thread.clock);
            lock.fresh.assign_from(&thread.fresh);
            counters.releases_processed += 1;
            counters.vc_ops += 2;
            counters.entries_traversed += ctx.threads as u64;
        } else {
            // The lock already carries this thread's current timestamp.
            counters.releases_skipped += 1;
        }
    }

    /// Always copies: the store need not follow an acquire by the same
    /// thread, so the release skip of Algorithm 3 would be unsound
    /// (Appendix A.2).
    fn release_store_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        thread.flush_local_epoch(tid, sampled_since_release, counters);
        lock.clock.assign_from(&thread.clock);
        lock.fresh.assign_from(&thread.fresh);
        lock.last_releaser = Some(tid);
        lock.mixed = false;
        counters.releases_processed += 1;
        counters.vc_ops += 2;
        counters.entries_traversed += ctx.threads as u64;
    }

    fn release_join_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        thread.flush_local_epoch(tid, sampled_since_release, counters);
        lock.clock.join(&thread.clock);
        lock.fresh.join(&thread.fresh);
        lock.last_releaser = None;
        lock.mixed = true;
        counters.releases_processed += 1;
        counters.vc_ops += 2;
        counters.entries_traversed += ctx.threads as u64;
    }

    fn thread_view(tid: ThreadId, thread: &ThreadState) -> impl ClockView + '_ {
        let (clock, epoch) = (&thread.clock, thread.epoch);
        BorrowedView {
            lookup: move |u| if u == tid { epoch } else { clock.get(u) },
            width: clock.len(),
        }
    }

    fn reserve_at(thread: &mut ThreadState, n: usize) {
        let last = ThreadId::new(n as u32 - 1);
        let pad = thread.clock.get(last);
        thread.clock.set(last, pad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, NaiveSamplingDetector};
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler};
    use freshtrack_trace::{Event, EventId, LockId, TraceBuilder};

    #[test]
    fn publish_splices_the_local_epoch_into_the_clock() {
        let (t0, t1) = (ThreadId::new(0), ThreadId::new(1));
        let (l, m) = (LockId::new(0), LockId::new(1));
        let mut sync = FreshnessSyncEngine::default();
        let mut counters = Counters::default();
        sync.ensure_thread(t1);
        // t1 samples, releases l (flushing e_t1 = 1); t0 learns it
        // through l, then samples and releases m itself.
        sync.acquire(t1, l, &mut counters);
        sync.release(t1, l, true, &mut counters);
        sync.acquire(t0, l, &mut counters);
        sync.acquire(t0, m, &mut counters);
        sync.release(t0, m, true, &mut counters);
        let thread = sync.threads[0].clone();
        let view = sync.publish(t0);
        assert_eq!(view.time_of(t0), thread.epoch);
        assert_eq!((thread.epoch, thread.clock.get(t0)), (2, 1));
        assert_eq!(view.time_of(t1), 1);
        let others = (0..=thread.clock.len() as u32).map(ThreadId::new);
        for u in others.filter(|&u| u != t0) {
            assert_eq!(view.time_of(u), thread.clock.get(u), "{u:?}");
        }
        assert_eq!(view.width(), thread.clock.len());
    }

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
