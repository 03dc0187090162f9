//! The sync/access seam: traits that split a streaming detector into a
//! **sync plane** (thread/lock clock state, held exactly once) and an
//! **access plane** (per-variable access histories, shardable).
//!
//! The monolithic [`Detector`](crate::Detector) event loop interleaves
//! two kinds of work with very different sharing requirements:
//!
//! * **Synchronization handling** (acquire/release) reads and writes
//!   *thread and lock clocks* — state that is global by nature: every
//!   thread's clock can be affected by every lock.
//! * **Access handling** (read/write) reads the accessing thread's
//!   clock and reads/writes the *per-variable access history* — state
//!   that partitions perfectly by variable.
//!
//! Cloning the sync state into every access shard would make each sync
//! event pay `N×` clock work plus `N` lock acquisitions. The traits
//! here encode the seam instead (the TSan architecture: one timestamp
//! authority, per-location shadow state):
//!
//! * [`SyncEngine`] — owns every thread/lock clock once, processes
//!   acquire/release events, and *publishes* a cheap per-thread
//!   [`ClockView`] after each one.
//! * [`AccessEngine`] — owns only access histories (and the sampler),
//!   and analyzes access events against a published view of the
//!   accessing thread's clock.
//! * [`SplitDetector`] — implemented by engines that can be split into
//!   the two halves; the monolithic `Detector` impl of each engine is
//!   itself a composition of the same halves, so the split cannot drift
//!   from the reference semantics.
//!
//! # Why verdicts are preserved
//!
//! The race verdict of an access by thread `t` depends only on (a) `t`'s
//! clock — which changes *only at `t`'s own sync events*, because joins
//! happen at acquires and increments at releases — and (b) the access
//! history of the variable. A view published at `t`'s latest sync event
//! is therefore exactly the clock a monolithic detector would consult,
//! and the history lives wholly inside one access shard. The sampling
//! decision depends only on `(seed, EventId)` (invariant 4 in
//! `ARCHITECTURE.md`), so the sample set is unchanged too.
//!
//! The only information that flows *back* across the seam is the
//! `RelAfter_S` bit of Algorithms 2–4 — "has this thread sampled an
//! access since its last release?" — reported by
//! [`AccessOutcome::sampled`] and consumed by
//! [`SyncEngine::release`]. The two-plane façade carries it as one
//! atomic flag per thread; monolithic detectors carry it as a plain
//! per-thread bool.

use freshtrack_clock::{ClockSnapshot, ThreadId, Time, VectorClock, VectorClockSnapshot};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId};

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

/// The sync-plane half of a split engine: every thread and lock clock,
/// held exactly once.
///
/// Implementations mutate clock state at acquire/release events and
/// account the work in the caller-supplied [`Counters`] (the same
/// fields the monolithic engine would touch, so merged counters stay
/// comparable).
pub trait SyncEngine: Send {
    /// The per-thread clock view published to the access plane. Must be
    /// `O(1)` to produce and pointer-sized to clone — see
    /// [`publish`](SyncEngine::publish).
    type View: ClockView + Clone + Send + 'static;

    /// Makes thread `tid` (and every lower id) exist with its initial
    /// clock state.
    fn ensure_thread(&mut self, tid: ThreadId);

    /// Handles an acquire of `lock` by `tid` (`C_t ← C_t ⊔ Cℓ`).
    fn acquire(&mut self, tid: ThreadId, lock: LockId, counters: &mut Counters);

    /// Handles a release of `lock` by `tid`. `sampled_since_release` is
    /// the `RelAfter_S` bit: whether `tid` sampled an access since its
    /// previous release (epoch-keeping engines flush and advance the
    /// local epoch only then).
    fn release(
        &mut self,
        tid: ThreadId,
        lock: LockId,
        sampled_since_release: bool,
        counters: &mut Counters,
    );

    /// Publishes the current view of `tid`'s clock.
    ///
    /// `O(1)`: the clock moves behind a shared reference
    /// ([`SharedClock::snapshot`](freshtrack_clock::SharedClock::snapshot)
    /// /
    /// [`SharedVectorClock::snapshot`](freshtrack_clock::SharedVectorClock::snapshot)),
    /// not copied. Callers that later mutate `tid`'s state should drop
    /// the previously published view *first* (take-before-mutate), so
    /// the publication never forces a lazy deep copy beyond the ones
    /// the engine's own lock aliases would cause.
    fn publish(&mut self, tid: ThreadId) -> Self::View;

    /// Writes thread `tid`'s spliced race-check clock (`C_t[t ↦ e_t]`)
    /// densely into `out` (cleared first), entry `u` at index `u`, at
    /// least `tid.index() + 1` entries wide.
    ///
    /// `width_cap` is a caller-supplied promise that every entry of the
    /// spliced clock at index `>= width_cap` is zero (pass `usize::MAX`
    /// when no such promise can be made), so the engine may stop
    /// linearizing there instead of walking a wide reservation's idle
    /// tail. The sharded detector derives the cap from the highest
    /// thread id that has had a sync event: epochs only circulate
    /// through releases, which are themselves sync events serialized by
    /// the same lock, so no entry above that id can be non-zero.
    ///
    /// This is the seqlock publication fast path: the engines override
    /// it with a straight memcpy from their contiguous clock storage,
    /// which beats linearizing [`publish`](SyncEngine::publish)'s view
    /// through a per-entry `time_of` walk by an order of magnitude at
    /// realistic clock widths. The default does exactly that walk, so
    /// the two paths are interchangeable (pinned by a differential test
    /// in `sharding.rs`).
    fn publish_dense(&mut self, tid: ThreadId, width_cap: usize, out: &mut Vec<Time>) {
        let view = self.publish(tid);
        let width = view.width().min(width_cap).max(tid.index() + 1);
        out.clear();
        out.extend((0..width).map(|u| view.time_of(ThreadId::new(u as u32))));
    }

    /// Borrows thread `tid`'s dense spliced clock directly from engine
    /// storage, when the engine can expose it without materializing
    /// anything — i.e. when `C_t[t] = e_t` already holds in memory, as
    /// it does in a raw vector clock. Must equal what
    /// [`publish_dense`](SyncEngine::publish_dense) would write for the
    /// same `(tid, width_cap)` (same cap contract); engines whose
    /// published view splices a lazily-kept epoch return `None` (the
    /// default) and the caller falls back to the materializing path.
    fn publish_dense_ref(&self, _tid: ThreadId, _width_cap: usize) -> Option<&[Time]> {
        None
    }

    /// Pre-sizes per-thread clock state for `n` threads.
    fn reserve_threads(&mut self, n: usize);
}

/// Source of per-thread clock views consumed during a batched flush:
/// `view(tid)` yields the accessing thread's *current* published view.
///
/// The lifetime-carrying associated type lets a source hand out views
/// borrowed from its own scratch buffer (the seqlock path decodes each
/// snapshot into one reusable `Vec<Time>`), while sources that publish
/// owned pointer-sized snapshots return them by value.
pub trait ViewSource {
    /// The view produced for one event (may borrow from `self`).
    type View<'a>: ClockView
    where
        Self: 'a;

    /// The current published view of thread `tid`'s clock.
    fn view(&mut self, tid: ThreadId) -> Self::View<'_>;
}

/// The access-plane half of a split engine: the sampler plus access
/// histories for the shard's slice of the variable space.
///
/// `access_sampled` is generic over the [`ClockView`] it consults — the race
/// check only ever *reads* the view through `time_of`/`width`, so one
/// access engine serves every sync engine's published representation
/// (owned snapshot, epoch-spliced snapshot, or a borrowed slice decoded
/// from a seqlock publication).
pub trait AccessEngine: Send {
    /// The hoisted sampling decision: whether the access `event` at
    /// position `id` belongs to the sample set. Pure in `(id, event)`
    /// and callable without any lock — this is the method the lock-free
    /// skip path consults before touching any shared state (invariant
    /// 10 in `ARCHITECTURE.md`). Must agree with the decision the
    /// monolithic [`Detector::process`](crate::Detector::process) makes
    /// for the same inputs.
    fn decide(&self, id: EventId, event: Event) -> bool;

    /// Analyzes one access event (`event.kind` is `Read` or `Write`)
    /// **already admitted into the sample set** by
    /// [`decide`](AccessEngine::decide), against this shard's
    /// histories, using the accessing thread's published clock view.
    /// Counts reads/writes/samples/races into `counters`.
    fn access_sampled<W: ClockView>(
        &mut self,
        id: EventId,
        event: Event,
        view: &W,
        counters: &mut Counters,
    ) -> AccessOutcome;

    /// Analyzes a batch of buffered access events in order under a
    /// single shard-lock acquisition, resolving each event's view
    /// through `views` at flush time and reporting each outcome through
    /// `sink`. Batches contain only **sampled** events: the hoisted
    /// decision rejects skipped accesses before they are ever buffered.
    ///
    /// Resolving views at flush time is correct because a thread's view
    /// changes only at its own sync events, and the sharded façade
    /// flushes every batch *before* processing any sync event — so the
    /// view observed here equals the view at ticket-draw time.
    fn feed_batch<V: ViewSource>(
        &mut self,
        events: &[(EventId, Event)],
        views: &mut V,
        counters: &mut Counters,
        mut sink: impl FnMut(Event, AccessOutcome),
    ) {
        for &(id, event) in events {
            let view = views.view(event.tid);
            let outcome = self.access_sampled(id, event, &view, counters);
            sink(event, outcome);
        }
    }
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
    type Sync: SyncEngine<View = Self::View>;
    /// The access-plane half (view-agnostic; see [`AccessEngine`]).
    type Access: AccessEngine;
    /// The published per-thread clock view.
    type View: ClockView + Clone + Send + 'static;

    /// Builds the sync engine (fresh state, this detector's config).
    fn split_sync(&self) -> Self::Sync;

    /// Builds one access shard (fresh state, this detector's config).
    fn split_access(&self) -> Self::Access;
}

// ---------------------------------------------------------------------
// View implementations shared by the engines.
// ---------------------------------------------------------------------

/// Published view for engines whose race checks read the raw thread
/// clock (Djit+, FastTrack): a pointer-sized vector-clock snapshot.
impl ClockView for VectorClockSnapshot {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        self.get(u)
    }

    #[inline]
    fn width(&self) -> usize {
        self.len()
    }
}

/// Published view for the epoch-keeping engines (SU, SO): the snapshot
/// of the communicated clock plus the local epoch spliced in at the
/// owner's own entry (`C_t[t ↦ e_t]`, the race-check view of
/// Algorithms 2–4).
#[derive(Clone, Debug)]
pub struct EpochView<Snap> {
    /// Snapshot of the communicated clock `C_t` / `O_t`.
    pub snap: Snap,
    /// The local epoch `e_t`.
    pub epoch: Time,
    /// The owning thread.
    pub tid: ThreadId,
}

impl ClockView for EpochView<ClockSnapshot> {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        if u == self.tid {
            self.epoch
        } else {
            self.snap.get(u)
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.snap.list().len()
    }
}

impl ClockView for EpochView<VectorClockSnapshot> {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        if u == self.tid {
            self.epoch
        } else {
            self.snap.get(u)
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.snap.len()
    }
}

/// Monolith-side borrowed view over a raw clock lookup closure: the
/// composed detectors consult their own sync half directly, without the
/// `O(1)` publication machinery (no other plane exists in-process).
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

/// A clock view decoded from a seqlock publication
/// ([`PublishedClock`](freshtrack_clock::PublishedClock)): a borrowed
/// slice of times, entry `u` at index `u`, missing entries `0`.
///
/// The writer publishes the already-spliced race-check view
/// (`C_t[t ↦ e_t]`), so one flat representation serves every engine;
/// readers decode a snapshot into a reusable scratch buffer and wrap it
/// in this type for the duration of one race check. Trailing zero
/// entries are harmless: `0 ⊑` anything, so verdicts and counters are
/// unaffected by the width a publication happened to have.
#[derive(Clone, Copy, Debug)]
pub struct PublishedView<'a> {
    entries: &'a [Time],
}

impl<'a> PublishedView<'a> {
    /// Wraps a decoded snapshot slice.
    pub fn new(entries: &'a [Time]) -> Self {
        PublishedView { entries }
    }
}

impl ClockView for PublishedView<'_> {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        self.entries.get(u.index()).copied().unwrap_or(0)
    }

    #[inline]
    fn width(&self) -> usize {
        self.entries.len()
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
/// handlers and in the view they publish (raw clock vs epoch-spliced),
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

    /// The configured sampler (cloned out for hoisted deciders).
    pub(crate) fn sampler(&self) -> &S {
        &self.sampler
    }

    /// Analyzes one access event **already admitted into `S`** against
    /// any clock view (the monolithic detectors call this with a
    /// borrowed view of their own sync half after their own hoisted
    /// decision; the trait impl routes the published view type through
    /// it).
    ///
    /// The width bookkeeping lives here — on the sampled path only — so
    /// a skipped access mutates nothing at all: non-zero history
    /// entries are only ever recorded by sampled accesses, whose ids
    /// and views this running maximum does observe.
    pub(crate) fn access_sampled_with<W: ClockView>(
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

impl<S: Sampler + Send> AccessEngine for HistoryAccessEngine<S> {
    fn decide(&self, id: EventId, event: Event) -> bool {
        self.sampler.decide(id, event)
    }

    fn access_sampled<W: ClockView>(
        &mut self,
        id: EventId,
        event: Event,
        view: &W,
        counters: &mut Counters,
    ) -> AccessOutcome {
        self.access_sampled_with(id, event, view, counters)
    }
}

impl<S> crate::checkpoint::CheckpointState for HistoryAccessEngine<S> {
    fn export_state(&self, out: &mut Vec<u8>) {
        freshtrack_clock::wire::put_varint(out, self.width as u64);
        self.history.export_wire(out);
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), crate::checkpoint::CheckpointError> {
        let mut r = freshtrack_clock::wire::WireReader::new(bytes);
        let width = r.get_usize()?;
        let history = crate::AccessHistories::import_wire(&mut r)?;
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
    fn epoch_view_splices_own_entry() {
        let mut clock = freshtrack_clock::SharedVectorClock::new();
        clock.make_mut().0.set(ThreadId::new(1), 7);
        let view = EpochView {
            snap: clock.snapshot(),
            epoch: 42,
            tid: ThreadId::new(0),
        };
        assert_eq!(view.time_of(ThreadId::new(0)), 42);
        assert_eq!(view.time_of(ThreadId::new(1)), 7);
        assert_eq!(view.width(), 2);
    }

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
