//! The sync/access seam: traits that split a streaming detector into a
//! **sync plane** (one state per thread and one per lock) and an
//! **access plane** (per-variable access histories, shardable).
//!
//! The monolithic [`Detector`](crate::Detector) event loop interleaves
//! two kinds of work with very different sharing requirements:
//!
//! * **Synchronization handling** (acquire/release) reads and writes
//!   *thread and lock clocks*. An acquire or release of lock `ℓ` by
//!   thread `t` touches only `t`'s state and `ℓ`'s state.
//! * **Access handling** (read/write) reads the accessing thread's
//!   clock and reads/writes the *per-variable access history* — state
//!   that partitions perfectly by variable.
//!
//! The traits here encode the seam (the TSan architecture: a clock per
//! thread and per sync object, per-location shadow state):
//!
//! * [`SyncEngine`] — per-thread and per-lock states plus the
//!   acquire/release handlers over one of each, and a per-thread
//!   [`ClockView`] for race checks, read in place.
//! * [`AccessEngine`] — owns only access histories (and the sampler),
//!   and analyzes access events against a view of the accessing
//!   thread's clock.
//! * [`SplitDetector`] — implemented by engines that can be split into
//!   the two halves. Every engine's monolithic `Detector` is the one
//!   generic [`Composed`](crate::Composed) of the same halves, so the
//!   split cannot drift from the reference semantics.
//!
//! # Why verdicts are preserved
//!
//! The race verdict of an access by thread `t` depends only on (a) `t`'s
//! clock — which changes *only at `t`'s own sync events*, because joins
//! happen at acquires and increments at releases — and (b) the access
//! history of the variable. A view of `t`'s state taken between two of
//! `t`'s sync events is therefore exactly the clock a monolithic
//! detector would consult, and the history lives wholly inside one
//! access shard. The sampling decision depends only on `(seed,
//! EventId)` offline and on `(seed, t, k)` online, `k` being the
//! access's ordinal within its thread (invariant 4 in
//! `ARCHITECTURE.md`); neither depends on the shard, so the sample set
//! is unchanged too.
//!
//! The only information that flows *back* across the seam is the
//! `RelAfter_S` bit of Algorithms 2–4 — "has this thread sampled an
//! access since its last release?" — reported by
//! [`AccessOutcome::sampled`] and consumed by
//! [`SyncEngine::release`] when [`SyncEngine::READS_REL_AFTER_S`] says
//! the engine reads it. The sharded façade keeps it in the thread's
//! slot; [`Composed`](crate::Composed) keeps it as a plain per-thread
//! bool.

use freshtrack_clock::{ThreadId, Time, VectorClock};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId};

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::{AccessKind, Counters, Detector, RaceReport};

/// A read-only view of the accessing thread's clock, as consulted by
/// race checks — `C_t` with the authoritative own-component spliced in
/// (`C_t[t ↦ e_t]` for the epoch-keeping engines).
pub trait ClockView {
    /// The clock entry for thread `u`, including the own-thread splice.
    fn time_of(&self, u: ThreadId) -> Time;

    /// An upper bound on the clock's allocated width, used to size
    /// access-history materialization. Entries at or beyond this index
    /// read as `0` (other than the own-thread splice, which callers
    /// cover separately via the accessor's id).
    fn width(&self) -> usize;
}

/// The outcome of analyzing one access event on the access plane.
#[derive(Debug, Default)]
pub struct AccessOutcome {
    /// Whether the sampler admitted the access into `S` — the
    /// `RelAfter_S` feedback bit the sync plane consumes at the
    /// thread's next release.
    pub sampled: bool,
    /// The race report, if the access races.
    pub report: Option<RaceReport>,
}

impl AccessOutcome {
    /// A sampled access with an optional race report.
    pub fn sampled(report: Option<RaceReport>) -> Self {
        AccessOutcome {
            sampled: true,
            report,
        }
    }
}

/// What a per-object sync handler may read besides the one thread and
/// the one lock it was handed: the engine's options, the number of
/// registered threads (the `T` of `entries_traversed` and
/// `entries_saved`) and the issuing thread's [`Counters`].
#[derive(Debug)]
pub struct SyncCtx<'a, O> {
    /// The engine's configuration ([`SyncEngine::options`]).
    pub options: O,
    /// One past the highest registered thread id.
    pub threads: usize,
    /// Where the handler accounts its work.
    pub counters: &'a mut Counters,
}

/// The sync-plane half of a split engine: one state per thread and one
/// per lock.
///
/// The handlers ([`acquire_at`](SyncEngine::acquire_at),
/// [`release_at`](SyncEngine::release_at)) read and write exactly one
/// thread's state and one lock's state — the ThreadSanitizer
/// construction, where a thread's clock lives with the thread and a
/// sync object's clock with the object. Their only global input is
/// [`SyncCtx::threads`]. An engine keeps the states in two `Vec`s
/// ([`tables`](SyncEngine::tables)) and the table-level methods
/// ([`acquire`](SyncEngine::acquire), [`release`](SyncEngine::release),
/// …) call the handlers on split borrows of them. The
/// [`ShardedOnlineDetector`](crate::ShardedOnlineDetector) keeps the
/// same states in per-thread and per-lock slots instead, so the offline
/// loop, the monolithic [`Composed`](crate::Composed) detector and the
/// sharded façade run one code path.
///
/// Handlers account the work in the caller-supplied [`Counters`] (the
/// same fields the monolithic engine would touch, so merged counters
/// stay comparable).
pub trait SyncEngine: Send {
    /// One thread's state: touched only by that thread's own events.
    type Thread: Send;
    /// One lock's state: touched only by acquires and releases of it.
    type Lock: Default + Send;
    /// Engine configuration the handlers read.
    type Options: Copy + Send + Sync + 'static;

    /// Whether [`release_at`](SyncEngine::release_at) reads its
    /// `RelAfter_S` argument. Only the epoch-keeping engines (SU, SO)
    /// do; for the others a composed detector keeps no bits, stores
    /// none per access and rejects a checkpoint that carries some.
    const READS_REL_AFTER_S: bool;

    /// A fresh engine (no threads, no locks) with configuration
    /// `options`.
    fn from_options(options: Self::Options) -> Self;

    /// This engine's configuration.
    fn options(&self) -> Self::Options;

    /// Every thread's state (index = thread id) and every lock's state
    /// (index = lock id).
    fn tables(&mut self) -> (&mut Vec<Self::Thread>, &mut Vec<Self::Lock>);

    /// The initial state of thread `tid`.
    fn new_thread(tid: ThreadId) -> Self::Thread;

    /// Handles an acquire of `lock` by `tid` (`C_t ← C_t ⊔ Cℓ`).
    fn acquire_at(
        tid: ThreadId,
        thread: &mut Self::Thread,
        lock: &mut Self::Lock,
        ctx: &mut SyncCtx<'_, Self::Options>,
    );

    /// Handles a release of `lock` by `tid`. `sampled_since_release` is
    /// the `RelAfter_S` bit: whether `tid` sampled an access since its
    /// previous release (epoch-keeping engines flush and advance the
    /// local epoch only then).
    fn release_at(
        tid: ThreadId,
        thread: &mut Self::Thread,
        lock: &mut Self::Lock,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, Self::Options>,
    );

    /// `ReleaseStore` on a non-mutex sync object (Appendix A.2): the
    /// object's clock becomes a copy of `tid`'s. A mutex release is one
    /// already, unless the engine's release may skip the copy.
    #[inline]
    fn release_store_at(
        tid: ThreadId,
        thread: &mut Self::Thread,
        lock: &mut Self::Lock,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, Self::Options>,
    ) {
        Self::release_at(tid, thread, lock, sampled_since_release, ctx);
    }

    /// `Release` (join) on a non-mutex sync object (Appendix A.2): the
    /// object's clock accumulates `tid`'s, so it is no one thread's
    /// snapshot and acquires of it take no freshness skip until the
    /// next `ReleaseStore`.
    fn release_join_at(
        tid: ThreadId,
        thread: &mut Self::Thread,
        lock: &mut Self::Lock,
        sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, Self::Options>,
    );

    /// The race-check view of `tid`'s clock (`C_t[t ↦ e_t]`), read in
    /// place: no snapshot, no reference-count traffic. Its width is the
    /// clock's length.
    fn thread_view(tid: ThreadId, thread: &Self::Thread) -> impl ClockView + '_;

    /// Pre-sizes one thread's clock for `n` threads.
    fn reserve_at(thread: &mut Self::Thread, n: usize);

    /// Makes thread `tid` (and every lower id) exist with its initial
    /// clock state.
    fn ensure_thread(&mut self, tid: ThreadId) {
        let (threads, _) = self.tables();
        while threads.len() <= tid.index() {
            threads.push(Self::new_thread(ThreadId::new(threads.len() as u32)));
        }
    }

    /// Handles an acquire of `lock` by `tid` (which must exist):
    /// [`acquire_at`](SyncEngine::acquire_at) on the table entries.
    fn acquire(&mut self, tid: ThreadId, lock: LockId, counters: &mut Counters) {
        let options = self.options();
        let (threads, locks) = self.tables();
        let mut ctx = SyncCtx {
            options,
            threads: threads.len(),
            counters,
        };
        Self::acquire_at(
            tid,
            &mut threads[tid.index()],
            lock_entry(locks, lock),
            &mut ctx,
        );
    }

    /// Handles a release of `lock` by `tid` (which must exist):
    /// [`release_at`](SyncEngine::release_at) on the table entries.
    fn release(
        &mut self,
        tid: ThreadId,
        lock: LockId,
        sampled_since_release: bool,
        counters: &mut Counters,
    ) {
        self.release_by(Self::release_at, tid, lock, sampled_since_release, counters);
    }

    /// Runs the release-side `handler` ([`release_at`](SyncEngine::release_at),
    /// [`release_store_at`](SyncEngine::release_store_at) or
    /// [`release_join_at`](SyncEngine::release_join_at)) of `tid` (which
    /// must exist) on the table entries.
    #[inline]
    fn release_by(
        &mut self,
        handler: impl FnOnce(
            ThreadId,
            &mut Self::Thread,
            &mut Self::Lock,
            bool,
            &mut SyncCtx<'_, Self::Options>,
        ),
        tid: ThreadId,
        lock: LockId,
        sampled_since_release: bool,
        counters: &mut Counters,
    ) {
        let options = self.options();
        let (threads, locks) = self.tables();
        let mut ctx = SyncCtx {
            options,
            threads: threads.len(),
            counters,
        };
        handler(
            tid,
            &mut threads[tid.index()],
            lock_entry(locks, lock),
            sampled_since_release,
            &mut ctx,
        );
    }

    /// The race-check view of `tid`'s clock (which must exist):
    /// [`thread_view`](SyncEngine::thread_view) on its table entry. The
    /// view borrows the engine, so it cannot outlive `tid`'s next sync
    /// event. No analysis path calls it: the composed detector and the
    /// sharded façade read [`thread_view`](SyncEngine::thread_view)
    /// directly. It stays for the repository benchmark's split replay
    /// loop (`perfbench/src/replay.rs`) and for tests.
    fn publish(&mut self, tid: ThreadId) -> impl ClockView + '_ {
        let threads: &Vec<Self::Thread> = self.tables().0;
        Self::thread_view(tid, &threads[tid.index()])
    }

    /// Pre-sizes per-thread clock state for `n` threads.
    fn reserve_threads(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.ensure_thread(ThreadId::new(n as u32 - 1));
        for thread in self.tables().0.iter_mut() {
            Self::reserve_at(thread, n);
        }
    }
}

/// Lock `lock`'s table entry, growing the table on first sight.
#[inline]
fn lock_entry<L: Default>(locks: &mut Vec<L>, lock: LockId) -> &mut L {
    if locks.len() <= lock.index() {
        locks.resize_with(lock.index() + 1, L::default);
    }
    &mut locks[lock.index()]
}

/// The access-plane half of a split engine: the sampler plus access
/// histories for the shard's slice of the variable space.
///
/// `access_sampled` is generic over the [`ClockView`] it consults — the race
/// check only ever *reads* the view through `time_of`/`width`, so one
/// access engine serves every sync engine's view of the thread's state
/// (the raw clock, or the clock with the local epoch spliced in).
pub trait AccessEngine: Send {
    /// The sampler that picks the sample set `S`.
    type Sampler: Sampler;

    /// The configured sampler (cloned out for the online façades'
    /// hoisted deciders, which apply its per-thread rule).
    fn sampler(&self) -> &Self::Sampler;

    /// The offline sampling decision: whether the access `event` at
    /// trace position `id` belongs to the sample set. Pure in
    /// `(id, event)` and callable without any lock — the segment
    /// decoders filter with it before the replay loop sees an event.
    fn decide(&self, id: EventId, event: Event) -> bool {
        self.sampler().decide(id, event)
    }

    /// Analyzes one access event (`event.kind` is `Read` or `Write`)
    /// **already admitted into the sample set** by
    /// [`decide`](AccessEngine::decide), against this shard's
    /// histories, using a view of the accessing thread's clock.
    /// Counts reads/writes/samples/races into `counters`.
    fn access_sampled<W: ClockView>(
        &mut self,
        id: EventId,
        event: Event,
        view: &W,
        counters: &mut Counters,
    ) -> AccessOutcome;
}

/// Tallies one access event's read/write counter — the only counter
/// work a sampled-out access performs.
#[inline]
pub(crate) fn tally_access(event: &Event, counters: &mut Counters) {
    match event.kind {
        EventKind::Read(_) => counters.reads += 1,
        EventKind::Write(_) => counters.writes += 1,
        EventKind::Acquire(_) | EventKind::Release(_) => {
            unreachable!("sync events belong to the sync plane")
        }
    }
}

/// An engine that can be split along the sync/access seam into one
/// [`SyncEngine`] plus any number of [`AccessEngine`] shards.
///
/// `split_sync` / `split_access` derive *fresh* halves from this
/// detector's configuration (engine options, sampler seed); the
/// detector itself must be in its initial state, or the halves would
/// disagree about the happens-before skeleton. All access shards
/// of one run must come from the same detector so their samplers agree.
pub trait SplitDetector: Detector + Clone + Send {
    /// The sync-plane half.
    type Sync: SyncEngine;
    /// The access-plane half (view-agnostic; see [`AccessEngine`]).
    type Access: AccessEngine;

    /// Builds the sync engine (fresh state, this detector's config).
    fn split_sync(&self) -> Self::Sync;

    /// Builds one access shard (fresh state, this detector's config).
    fn split_access(&self) -> Self::Access;
}

// ---------------------------------------------------------------------
// View implementations shared by the engines.
// ---------------------------------------------------------------------

/// A borrowed view over a raw clock lookup closure — what the
/// engines' [`SyncEngine::thread_view`] returns: read in place.
pub(crate) struct BorrowedView<F> {
    pub(crate) lookup: F,
    pub(crate) width: usize,
}

impl<F: Fn(ThreadId) -> Time> ClockView for BorrowedView<F> {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        (self.lookup)(u)
    }

    #[inline]
    fn width(&self) -> usize {
        self.width
    }
}

/// The trivial view of state-free engines
/// ([`EmptyDetector`](crate::EmptyDetector)).
impl ClockView for () {
    #[inline]
    fn time_of(&self, _u: ThreadId) -> Time {
        0
    }

    #[inline]
    fn width(&self) -> usize {
        0
    }
}

/// `history ⊑ view`, entry-wise — the shared comparison access engines
/// use against their recorded histories.
#[inline]
pub(crate) fn history_leq_view<V: ClockView>(history: &VectorClock, view: &V) -> bool {
    history.iter().all(|(u, time)| time <= view.time_of(u))
}

// ---------------------------------------------------------------------
// The shared access engine of the vector-clock-history engines.
// ---------------------------------------------------------------------

/// The access-plane half shared by every engine whose per-variable
/// histories are full clocks ([`AccessHistories`](crate::AccessHistories)):
/// Djit+ (ST), SU and SO. The engines differ only in their *sync*
/// handlers and in the view they hand over (raw clock vs epoch-spliced),
/// which is exactly the seam this type sits on: it is generic over the
/// view and knows nothing about synchronization.
///
/// `WIDTH` bookkeeping: history materialization
/// ([`AccessHistories::record_write`](crate::AccessHistories::record_write))
/// must overwrite every entry a previous record could have set. A
/// monolithic detector passes its global thread count; a shard cannot
/// see that, so it tracks the running maximum of every accessor id and
/// view width it has observed — an upper bound on every non-zero entry
/// its own histories can contain, which is all that overwriting needs
/// (larger widths only write more zeros, and a missing entry reads as
/// zero).
pub struct HistoryAccessEngine<S> {
    sampler: S,
    history: crate::AccessHistories,
    width: usize,
}

impl<S: Sampler> HistoryAccessEngine<S> {
    /// Creates an empty access engine around `sampler`.
    pub fn new(sampler: S) -> Self {
        HistoryAccessEngine {
            sampler,
            history: crate::AccessHistories::new(),
            width: 0,
        }
    }
}

impl<S: Sampler> AccessEngine for HistoryAccessEngine<S> {
    type Sampler = S;

    fn sampler(&self) -> &S {
        &self.sampler
    }

    /// The width bookkeeping lives here — on the sampled path only — so
    /// a skipped access mutates nothing at all: non-zero history
    /// entries are only ever recorded by sampled accesses, whose ids
    /// and views this running maximum does observe.
    fn access_sampled<W: ClockView>(
        &mut self,
        id: EventId,
        event: Event,
        view: &W,
        counters: &mut Counters,
    ) -> AccessOutcome {
        let tid = event.tid;
        self.width = self.width.max(tid.index() + 1).max(view.width());
        counters.sampled_accesses += 1;
        counters.race_checks += 1;
        match event.kind {
            EventKind::Read(var) => {
                counters.reads += 1;
                let races = self.history.read_races(var, |u| view.time_of(u));
                self.history.record_read(var, tid, view.time_of(tid));
                AccessOutcome::sampled(races.then(|| {
                    counters.races += 1;
                    RaceReport::new(id, tid, var, AccessKind::Read, true, false)
                }))
            }
            EventKind::Write(var) => {
                counters.writes += 1;
                let (with_write, with_read) = self.history.write_races(var, |u| view.time_of(u));
                self.history
                    .record_write(var, self.width, |u| view.time_of(u));
                AccessOutcome::sampled((with_write || with_read).then(|| {
                    counters.races += 1;
                    RaceReport::new(id, tid, var, AccessKind::Write, with_write, with_read)
                }))
            }
            EventKind::Acquire(_) | EventKind::Release(_) => {
                unreachable!("sync events belong to the sync plane")
            }
        }
    }
}

// The checkpoint is the header `width`, then the variable table: one
// record (write clock, read clock) per variable.
impl<S> CheckpointState for HistoryAccessEngine<S> {
    fn export_state(&self, out: &mut Vec<u8>) {
        freshtrack_clock::wire::put_varint(out, self.width as u64);
        checkpoint::put_records(out, self.history.var_count(), |out, id| {
            self.history.put_record(out, id);
        });
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = freshtrack_clock::wire::WireReader::new(bytes);
        let width = r.get_usize()?;
        let mut history = crate::AccessHistories::new();
        checkpoint::get_records(&mut r, |r| history.push_record(r))?;
        r.finish()?;
        self.width = width;
        self.history = history;
        Ok(())
    }
}

impl<S: Clone> Clone for HistoryAccessEngine<S> {
    fn clone(&self) -> Self {
        HistoryAccessEngine {
            sampler: self.sampler.clone(),
            history: self.history.clone(),
            width: self.width,
        }
    }
}

impl<S: std::fmt::Debug> std::fmt::Debug for HistoryAccessEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistoryAccessEngine")
            .field("sampler", &self.sampler)
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn borrowed_view_delegates_to_lookup() {
        let view = BorrowedView {
            lookup: |u: ThreadId| u.index() as Time * 10,
            width: 3,
        };
        assert_eq!(view.time_of(ThreadId::new(2)), 20);
        assert_eq!(view.width(), 3);
    }

    #[test]
    fn history_leq_matches_pointwise_comparison() {
        let history = VectorClock::from_iter([(ThreadId::new(0), 2), (ThreadId::new(1), 5)]);
        let le = BorrowedView {
            lookup: |_| 5,
            width: 2,
        };
        let lt = BorrowedView {
            lookup: |_| 4,
            width: 2,
        };
        assert!(history_leq_view(&history, &le));
        assert!(!history_leq_view(&history, &lt));
    }
}
