use freshtrack_clock::{
    wire::{self, WireError, WireReader},
    ClockSnapshot, FreshnessClock, SharedClock, ThreadId, Time,
};
use freshtrack_sampling::Sampler;

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::composed::{Composed, EngineName};
use crate::plane::{BorrowedView, ClockView, EpochView, HistoryAccessEngine, SyncCtx, SyncEngine};
use crate::Counters;

/// Algorithm 4 of the paper (**SO**): ordered lists plus lazy copies.
///
/// This is the paper's near-optimal engine. Three ideas compose:
///
/// 1. **Ordered lists** ([`freshtrack_clock::OrderedList`]) keep each
///    thread's sampling clock in most-recently-updated-first order, so an
///    acquire that is `d = Uℓ − U_t(LRℓ)` updates behind only traverses
///    the first `d` entries (Proposition 6).
/// 2. **Lazy copies** ([`freshtrack_clock::SharedClock`]): a release
///    hands the lock an `O(1)` shallow reference; the `O(T)` deep copy
///    happens only when a thread mutates a still-shared list, which
///    sampling bounds by `O(|S|)`.
/// 3. **Scalar lock freshness**: locks store only the last releaser's own
///    freshness component `Uℓ = U_t(t)`, eliminating the per-lock `O(T)`
///    freshness clocks of Algorithm 3 — and with them the dependence of
///    the running time on the number of locks.
///
/// The *local-epoch* optimization from the paper's implementation
/// (Section 6.1, "disentangle the local time epoch from the vector clock
/// when communicating over HB edges") is on by default: the thread's own
/// flushed time travels as a scalar next to the lock's list reference, so
/// a `RelAfter_S` release does not force a deep copy. Construct with
/// [`with_options`](OrderedListDetector::with_options) to ablate it.
///
/// The detector is the [`Composed`] of an [`OrderedSyncEngine`] (every
/// thread/lock list, held once) and a [`HistoryAccessEngine`] over the
/// epoch-spliced view `C_t[t ↦ e_t]` — the same halves a
/// [`ShardedOnlineDetector`](crate::ShardedOnlineDetector) distributes;
/// the `RelAfter_S` bit is the only state crossing the seam (see
/// [`SplitDetector`](crate::SplitDetector)).
///
/// Race reports are identical to the other sampling engines for the same
/// sample set (Lemma 8).
///
/// # Example
///
/// ```
/// use freshtrack_core::{Detector, OrderedListDetector};
/// use freshtrack_sampling::BernoulliSampler;
/// use freshtrack_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// b.write(0, x);
/// b.write(1, x);
/// let mut so = OrderedListDetector::new(BernoulliSampler::new(1.0, 1));
/// assert_eq!(so.run(&b.build()).len(), 1);
/// ```
pub type OrderedListDetector<S> = Composed<OrderedSyncEngine, HistoryAccessEngine<S>>;

impl<S: Sampler> OrderedListDetector<S> {
    /// Creates a detector with the local-epoch optimization enabled.
    pub fn new(sampler: S) -> Self {
        OrderedListDetector::with_options(sampler, true)
    }

    /// Creates a detector, choosing whether the local-epoch optimization
    /// is applied (`false` reproduces Algorithm 4 verbatim; useful for
    /// ablation).
    pub fn with_options(sampler: S, local_epoch_opt: bool) -> Self {
        Composed::from_halves(
            OrderedSyncEngine::new(local_epoch_opt),
            HistoryAccessEngine::new(sampler),
        )
    }

    /// Whether the local-epoch optimization is enabled.
    pub fn local_epoch_opt(&self) -> bool {
        self.sync.local_epoch_opt
    }
}

impl<S> EngineName for OrderedListDetector<S> {
    const NAME: &'static str = "SO";
}

/// One thread's SO state: its ordered-list clock, freshness clock and
/// local epoch.
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// The ordered-list clock `O_t` (lazily shared with locks).
    list: SharedClock,
    /// The freshness clock `U_t`.
    fresh: FreshnessClock,
    /// The local epoch `e_t`.
    epoch: Time,
    /// The flushed own time `C_t(t)`; authoritative when the local-epoch
    /// optimization keeps it out of the list.
    flushed: Time,
}

impl Default for ThreadState {
    fn default() -> Self {
        ThreadState {
            list: SharedClock::new(),
            fresh: FreshnessClock::new(),
            epoch: 1,
            flushed: 0,
        }
    }
}

impl ThreadState {
    /// Flushes the local epoch if this release is in `RelAfter_S`
    /// (shared by the mutex and Appendix A.2 release handlers).
    /// `local_epoch_opt` keeps the flushed time out of the list.
    fn flush_local_epoch(
        &mut self,
        tid: ThreadId,
        sampled: bool,
        local_epoch_opt: bool,
        counters: &mut Counters,
    ) {
        if sampled {
            self.flushed = self.epoch;
            if !local_epoch_opt {
                let (list, deep) = self.list.make_mut();
                if deep {
                    counters.deep_copies += 1;
                }
                list.set(tid, self.epoch);
            }
            self.fresh.bump(tid);
            self.epoch += 1;
            counters.local_increments += 1;
            counters.releases_processed += 1;
        } else {
            counters.releases_skipped += 1;
        }
    }
}

/// One lock's SO state: a shallow reference to its last releaser's
/// list plus that releaser's scalar freshness and flushed time.
#[derive(Clone, Debug, Default)]
pub struct LockState {
    /// Read-only shallow reference to the releasing thread's list
    /// (`Oℓ`). The snapshot type has no mutators, so lock state can
    /// never trigger a deep copy.
    list: Option<ClockSnapshot>,
    /// `LRℓ`: the last thread to release this lock.
    last_releaser: Option<ThreadId>,
    /// The scalar freshness `Uℓ = U_t(t)` of the last releaser.
    fresh: Time,
    /// The releaser's flushed own time, carried separately under the
    /// local-epoch optimization.
    releaser_flushed: Time,
    /// Accumulated clock while in `Release`-join mode (Appendix A.2);
    /// `Some` disables the freshness fast path until the next store.
    joined: Option<freshtrack_clock::OrderedList>,
}

/// The sync-plane half of the SO engine: every thread's ordered-list
/// clock, freshness clock and local epoch, plus every lock's snapshot
/// slot — Algorithm 4's synchronization handlers.
///
/// Publication ([`SyncEngine::publish`]) reuses the engine's own `O(1)`
/// [`SharedClock::snapshot`] machinery: one pointer-sized hand-off. With
/// the take-before-mutate discipline a published view never adds deep
/// copies beyond the ones lock aliases already cause.
#[derive(Clone, Debug)]
pub struct OrderedSyncEngine {
    threads: Vec<ThreadState>,
    locks: Vec<LockState>,
    local_epoch_opt: bool,
}

impl OrderedSyncEngine {
    /// Creates an empty sync engine; `local_epoch_opt` as in
    /// [`OrderedListDetector::with_options`].
    pub fn new(local_epoch_opt: bool) -> Self {
        OrderedSyncEngine {
            threads: Vec::new(),
            locks: Vec::new(),
            local_epoch_opt,
        }
    }
}

impl CheckpointState for OrderedSyncEngine {
    // `local_epoch_opt` is configuration, not state: import targets an
    // engine already constructed with the exporter's option (the
    // `split_sync` contract), so it is deliberately not serialized.
    //
    // A lock slot whose snapshot still aliases its releaser's clock is
    // written as an *alias mark* (one bool plus the releaser id already
    // present), not by value: import rebuilds the snapshot from the
    // imported thread's clock, so the thread↔lock sharing topology —
    // and with it every future `deep_copies` increment — survives the
    // round trip exactly. Only detached snapshots (the thread has
    // mutated since the release) are written by value; they can never
    // trigger a deep copy again, so orphan `Arc`s on import are
    // behavior-identical. This is what makes a resumed run
    // counter-identical to an uninterrupted one (invariant 11), and it
    // shrinks checkpoints: an aliased lock costs two bytes instead of a
    // full list image.
    fn export_state(&self, out: &mut Vec<u8>) {
        wire::put_varint(out, self.threads.len() as u64);
        for thread in &self.threads {
            wire::put_list(out, thread.list.list());
            wire::put_fresh(out, &thread.fresh);
            wire::put_varint(out, thread.epoch);
            wire::put_varint(out, thread.flushed);
        }
        wire::put_varint(out, self.locks.len() as u64);
        for lock in &self.locks {
            wire::put_bool(out, lock.list.is_some());
            if let Some(snapshot) = &lock.list {
                let aliased = lock
                    .last_releaser
                    .map(|lr| self.threads[lr.index()].list.aliases(snapshot))
                    .unwrap_or(false);
                wire::put_bool(out, aliased);
                if !aliased {
                    wire::put_list(out, snapshot.list());
                }
            }
            wire::put_bool(out, lock.last_releaser.is_some());
            if let Some(lr) = lock.last_releaser {
                wire::put_varint(out, u64::from(lr.as_u32()));
            }
            wire::put_varint(out, lock.fresh);
            wire::put_varint(out, lock.releaser_flushed);
            wire::put_bool(out, lock.joined.is_some());
            if let Some(joined) = &lock.joined {
                wire::put_list(out, joined);
            }
        }
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        let n = checkpoint::get_count(&mut r)?;
        let mut threads = Vec::with_capacity(n);
        for _ in 0..n {
            threads.push(ThreadState {
                list: SharedClock::from_list(r.get_list()?),
                fresh: r.get_fresh()?,
                epoch: r.get_varint()?,
                flushed: r.get_varint()?,
            });
        }
        let n = checkpoint::get_count(&mut r)?;
        let mut locks = Vec::with_capacity(n);
        for _ in 0..n {
            enum Slot {
                None,
                Aliased,
                Owned(freshtrack_clock::OrderedList),
            }
            let slot = if r.get_bool()? {
                if r.get_bool()? {
                    Slot::Aliased
                } else {
                    Slot::Owned(r.get_list()?)
                }
            } else {
                Slot::None
            };
            let last_releaser = if r.get_bool()? {
                let lr = ThreadId::new(r.get_u32()?);
                if lr.index() >= threads.len() {
                    return Err(WireError::Invalid("lock releaser names an unknown thread").into());
                }
                Some(lr)
            } else {
                None
            };
            let list = match slot {
                Slot::None => None,
                Slot::Owned(list) => Some(SharedClock::from_list(list).snapshot()),
                Slot::Aliased => {
                    let lr = last_releaser.ok_or_else(|| {
                        CheckpointError::from(WireError::Invalid(
                            "aliased lock snapshot without a releaser",
                        ))
                    })?;
                    let thread = threads.get_mut(lr.index()).ok_or_else(|| {
                        CheckpointError::from(WireError::Invalid(
                            "aliased lock snapshot names an unknown thread",
                        ))
                    })?;
                    Some(thread.list.snapshot())
                }
            };
            locks.push(LockState {
                list,
                last_releaser,
                fresh: r.get_varint()?,
                releaser_flushed: r.get_varint()?,
                joined: if r.get_bool()? {
                    Some(r.get_list()?)
                } else {
                    None
                },
            });
        }
        r.finish()?;
        self.threads = threads;
        self.locks = locks;
        Ok(())
    }
}

impl SyncEngine for OrderedSyncEngine {
    type View = EpochView<ClockSnapshot>;
    type Thread = ThreadState;
    type Lock = LockState;
    /// The local-epoch optimization switch.
    type Options = bool;

    const READS_REL_AFTER_S: bool = true;

    fn from_options(local_epoch_opt: bool) -> Self {
        OrderedSyncEngine::new(local_epoch_opt)
    }

    fn options(&self) -> bool {
        self.local_epoch_opt
    }

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
        ctx: &mut SyncCtx<'_, bool>,
    ) {
        let counters = &mut *ctx.counters;
        counters.acquires += 1;
        if let Some(joined) = &lock.joined {
            // Join-mode object (Appendix A.2): no freshness fast path —
            // perform a full join. The sharing state is resolved once
            // for the whole batch by `SharedClock::join`.
            counters.acquires_processed += 1;
            let res = thread.list.join(joined);
            if res.deep_copy {
                counters.deep_copies += 1;
            }
            thread.fresh.bump_by(tid, res.changed as u64);
            counters.entries_traversed += res.traversed as u64;
            counters.vc_ops += 1;
            return;
        }
        let Some(lr) = lock.last_releaser else {
            counters.acquires_skipped += 1;
            return;
        };
        if lock.fresh <= thread.fresh.get(lr) {
            // Proposition 5: nothing new behind this lock.
            counters.acquires_skipped += 1;
            return;
        }
        counters.acquires_processed += 1;
        let d = lock.fresh - thread.fresh.get(lr);
        // The lock's list never aliases the thread's here (an alias
        // would imply lr == tid, which the freshness check already
        // filtered out — and the prefix join's pointer check would make
        // it a no-op anyway).
        let lock_list = lock
            .list
            .as_ref()
            .expect("released lock must carry a clock")
            .list();
        thread.fresh.set(lr, lock.fresh);
        let res = thread.list.join_prefix(lock_list, d as usize);
        if res.deep_copy {
            counters.deep_copies += 1;
        }
        thread.fresh.bump_by(tid, res.changed as u64);
        if ctx.options && lock.releaser_flushed > thread.list.get(lr) {
            // The releaser's own flushed time travels as a scalar.
            let (list, deep) = thread.list.make_mut();
            if deep {
                counters.deep_copies += 1;
            }
            list.set(lr, lock.releaser_flushed);
            thread.fresh.bump(tid);
        }
        let traversed = res.traversed as u64;
        counters.entries_traversed += traversed;
        counters.entries_saved += (ctx.threads as u64).saturating_sub(traversed);
        counters.vc_ops += 1;
    }

    #[inline]
    fn release_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, bool>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        thread.flush_local_epoch(tid, sampled_since_release, ctx.options, counters);
        // `snapshot` moves the thread's clock to the Shared state (the
        // paper's `shared_t := true`), hence the `&mut`.
        lock.list = Some(thread.list.snapshot());
        lock.last_releaser = Some(tid);
        lock.fresh = thread.fresh.get(tid);
        lock.releaser_flushed = thread.flushed;
        lock.joined = None;
        counters.shallow_copies += 1;
    }

    fn release_join_at(
        tid: ThreadId,
        thread: &mut ThreadState,
        lock: &mut LockState,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, bool>,
    ) {
        let counters = &mut *ctx.counters;
        counters.releases += 1;
        thread.flush_local_epoch(tid, sampled_since_release, ctx.options, counters);

        // Materialize the thread's communicated clock (own entry is the
        // flushed time, possibly kept out of the list by the epoch opt).
        let mut view = thread.list.list().clone();
        if thread.flushed > view.get(tid) {
            view.set(tid, thread.flushed);
        }

        let mut acc = match lock.joined.take() {
            Some(acc) => acc,
            None => match (&lock.list, lock.last_releaser) {
                (Some(shared), lr) => {
                    // Convert the store snapshot into an owned list,
                    // folding in the releaser's scalar flushed time.
                    let mut l = shared.list().clone();
                    if let Some(lr) = lr {
                        if lock.releaser_flushed > l.get(lr) {
                            l.set(lr, lock.releaser_flushed);
                        }
                    }
                    l
                }
                (None, _) => freshtrack_clock::OrderedList::new(),
            },
        };
        let traversed = view.len() as u64;
        acc.join(&view);
        lock.joined = Some(acc);
        lock.list = None;
        lock.last_releaser = None;
        lock.fresh = 0;
        counters.vc_ops += 1;
        counters.entries_traversed += traversed;
    }

    fn thread_view(tid: ThreadId, thread: &ThreadState) -> impl ClockView + '_ {
        let (list, epoch) = (thread.list.list(), thread.epoch);
        BorrowedView {
            lookup: move |u| if u == tid { epoch } else { list.get(u) },
            width: list.len(),
        }
    }

    fn publish_at(tid: ThreadId, thread: &mut ThreadState) -> EpochView<ClockSnapshot> {
        EpochView {
            snap: thread.list.snapshot(),
            epoch: thread.epoch,
            tid,
        }
    }

    fn reserve_at(thread: &mut ThreadState, n: usize) {
        let (list, _) = thread.list.make_mut();
        list.ensure_thread_count(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, NaiveSamplingDetector};
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler};
    use freshtrack_trace::{Trace, TraceBuilder};

    fn ladder_trace(rounds: u32, threads: u32) -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        let m = b.lock("m");
        for round in 0..rounds {
            let t = round % threads;
            b.acquire(t, l).write(t, x).release(t, l);
            b.acquire(t, m).read(t, x).release(t, m);
            b.write(t, x);
        }
        b.write(threads, x);
        b.build()
    }

    #[test]
    fn matches_algorithm2_at_full_sampling() {
        let trace = ladder_trace(40, 4);
        let reference = NaiveSamplingDetector::new(AlwaysSampler::new()).run(&trace);
        let so = OrderedListDetector::new(AlwaysSampler::new()).run(&trace);
        assert_eq!(reference, so);
        assert!(!so.is_empty());
    }

    #[test]
    fn matches_algorithm2_under_partial_sampling() {
        let trace = ladder_trace(60, 3);
        for seed in 0..8 {
            let sampler = BernoulliSampler::new(0.25, seed);
            let reference = NaiveSamplingDetector::new(sampler).run(&trace);
            let so = OrderedListDetector::new(sampler).run(&trace);
            assert_eq!(reference, so, "seed {seed}");
        }
    }

    #[test]
    fn epoch_opt_is_report_invariant() {
        let trace = ladder_trace(60, 4);
        for seed in 0..8 {
            let sampler = BernoulliSampler::new(0.3, seed);
            let with_opt = OrderedListDetector::with_options(sampler, true).run(&trace);
            let without = OrderedListDetector::with_options(sampler, false).run(&trace);
            assert_eq!(with_opt, without, "seed {seed}");
        }
    }

    #[test]
    fn epoch_opt_reduces_deep_copies() {
        let trace = ladder_trace(200, 2);
        let sampler = BernoulliSampler::new(1.0, 3);
        let mut with_opt = OrderedListDetector::with_options(sampler, true);
        with_opt.run(&trace);
        let mut without = OrderedListDetector::with_options(sampler, false);
        without.run(&trace);
        assert!(
            with_opt.counters().deep_copies < without.counters().deep_copies,
            "opt {} vs plain {}",
            with_opt.counters().deep_copies,
            without.counters().deep_copies
        );
    }

    #[test]
    fn empty_sample_set_does_no_clock_work() {
        let trace = ladder_trace(50, 4);
        let mut so = OrderedListDetector::new(NeverSampler::new());
        so.run(&trace);
        let c = so.counters();
        assert_eq!(c.deep_copies, 0);
        assert_eq!(c.entries_traversed, 0);
        assert_eq!(c.acquires_processed, 0);
        // Releases still pay their O(1) shallow copy.
        assert_eq!(c.shallow_copies, c.releases);
    }

    #[test]
    fn deep_copies_are_bounded_by_sample_set() {
        // Lemma 8: deep copies are O(|S| · T) — in practice far fewer.
        let trace = ladder_trace(300, 4);
        let sampler = BernoulliSampler::new(0.1, 9);
        let mut so = OrderedListDetector::new(sampler);
        so.run(&trace);
        let c = so.counters();
        let bound =
            c.sampled_accesses * (trace.thread_count() as u64) + trace.thread_count() as u64;
        assert!(c.deep_copies <= bound);
    }

    #[test]
    fn partial_traversal_touches_few_entries() {
        // Two chatty threads, tiny sample set: most acquires skip, and
        // the ones that don't traverse only the changed prefix.
        let trace = ladder_trace(500, 8);
        let sampler = BernoulliSampler::new(0.02, 5);
        let mut so = OrderedListDetector::new(sampler);
        so.run(&trace);
        let c = so.counters();
        assert!(
            c.acquire_skip_ratio() > 0.5,
            "skip {}",
            c.acquire_skip_ratio()
        );
        assert!(
            c.traversals_per_acquire() < 2.0,
            "traversals {}",
            c.traversals_per_acquire()
        );
    }
}
