use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use freshtrack_clock::ThreadId;
use freshtrack_trace::{Event, EventId, EventKind, LockId, VarId};

use crate::counters::SkipCells;
use crate::plane::{AccessEngine, SplitDetector, SyncCtx, SyncEngine};
use crate::{Counters, HoistedDecider, RaceReport};

/// The sync construction of a [`ShardedOnlineDetector`].
///
/// There is one: per-thread and per-lock sync state (see the
/// detector's docs). `Seqlock` is the legacy name of that sole
/// construction, from when the façade republished each thread's clock
/// through a seqlock; nothing dispatches on it. The type remains so
/// that callers which name the construction explicitly
/// (`freshtrack_dbsim::run_sharded`, `ShardedInstrument::with_options`)
/// keep a stable signature.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Per-thread and per-lock sync state (the legacy name of the sole
    /// construction).
    Seqlock,
}

/// A sharded ingestion façade: per-variable access analysis across `N`
/// independently-locked shards, with the happens-before skeleton kept
/// in one slot per thread and one slot per lock.
///
/// The single-mutex [`OnlineDetector`](crate::OnlineDetector)
/// reproduces the paper's Fig. 5 contention model faithfully — every
/// event serializes through one analysis lock — but that same lock
/// bounds throughput once per-event clock work is cheap. This type is
/// the ThreadSanitizer construction: shadow state per location (the
/// access shards), a clock per thread kept with the thread, and a clock
/// per sync object kept with the object. No lock is global.
///
/// # Routing rule
///
/// * **Access events** (`Read`/`Write` of variable `v`) draw their
///   ticket and their sampling verdict *before any lock* (see the skip
///   path below). A sampled-out access returns immediately; a sampled
///   access takes its own thread's slot (which nobody else contends
///   for), raises the thread's `RelAfter_S` bit, and is analyzed in
///   exactly one shard, `hash(v) mod N`, against a view borrowed from
///   the thread's state. The verdict is returned from that same call.
/// * **Sync events** (`Acquire`/`Release` of lock `ℓ` by thread `t`)
///   take `ℓ`'s slot, draw their ticket inside it, take `t`'s slot and
///   run the engine's handler
///   ([`SyncEngine::acquire_at`] / [`SyncEngine::release_at`]) on the
///   two states. The application already holds `ℓ` when it reports the
///   event, so `ℓ`'s slot is uncontended in a lock-disciplined program.
///
/// Lock order: lock slot → thread slot for sync events, thread slot →
/// shard for accesses. Nothing holding a shard takes a slot, so the
/// order is acyclic.
///
/// # The lock-free skip path
///
/// Every detector exposes a
/// [`hoisted_decider`](crate::Detector::hoisted_decider) — a pure
/// function of `(EventId, Event)` (invariant 4 in `ARCHITECTURE.md`) —
/// so an access event touches **no lock at all** until it is known to
/// be sampled:
///
/// 1. draw a ticket from the atomic event counter (`fetch_add`),
/// 2. evaluate the decider on `(ticket, event)`,
/// 3. if sampled out: bump a cache-line-striped thread-local skip cell
///    and return — no slot, no shard lock, no view.
///
/// At a sampling rate `r` the expected locked work per access is
/// `O(r)`; the skip path itself is two relaxed atomic RMWs. The skipped
/// tallies are folded into the merged [`Counters`] bit-exactly at
/// [`finish_merged`](ShardedOnlineDetector::finish_merged).
///
/// # Why verdicts are preserved (invariant 10)
///
/// Event ids come from one atomic ticket. Accesses draw it at the top
/// of [`on_event`](ShardedOnlineDetector::on_event), sync events inside
/// their lock's slot.
///
/// * **Sampled-out accesses mutate nothing.** They commute with every
///   other event; only their ticket (which feeds the pure sampler)
///   matters, and that is fixed at draw time.
/// * **Sync events on disjoint pairs commute.** `acquire(t,ℓ)` and
///   `release(t,ℓ)` read and write only `t`'s and `ℓ`'s states. Two sync
///   events of one thread run in program order, which is their ticket
///   order. Two sync events of one lock run in the order of `ℓ`'s slot
///   mutex, and they drew their tickets inside it — and inside the
///   application's own lock — so that order is their ticket order too.
///   Any execution therefore ends in the state the sequential replay in
///   ticket order reaches.
/// * **Causally ordered events keep ticket order.** An instrumentation
///   call returns before the same thread issues its next event, and
///   cross-thread ordering is only established through the
///   application's own synchronization, which likewise orders the
///   calls in real time. A thread's accesses therefore draw tickets
///   after its past sync events and before its future ones.
/// * **Concurrent analyzed accesses may invert ticket order** inside a
///   shard. Such events are unordered by happens-before, so either
///   analysis order is a valid linearization. Per-shard report lists
///   are consequently not ticket-sorted; the merge sorts once at
///   [`finish`](ShardedOnlineDetector::finish).
///
/// An access's verdict depends only on (a) the issuing thread's clock,
/// which changes only at that thread's own sync events, and (b) its
/// variable's history inside one shard. Samplers are deterministic in
/// `(seed, EventId)` (invariant 4), so the sample set is identical too.
/// The one access→sync feedback, the `RelAfter_S` bit, lives in the
/// thread's slot: raised by the thread's sampled accesses, consumed by
/// its next release.
///
/// Callers must issue each thread id's events from one thread at a time
/// (which every real instrumentation source does — a thread's events
/// *are* its program order).
///
/// # Counters
///
/// For a sequential feed the merged [`Counters`] equal the single
/// mutex's and [`Detector::run`](crate::Detector::run)'s, every field.
/// Concurrent runs keep that for every field but two, which read state
/// beyond `t` and `ℓ`:
///
/// * `entries_traversed` and `entries_saved` add the registered thread
///   count, which a concurrent first event of a new thread may raise
///   between two events' ticket draws and their handlers.
/// * `deep_copies` of the SO engine. Lock `ℓ`'s snapshot aliases the
///   list of its last releaser `u`. A release of `ℓ` by another thread
///   drops that alias, while `u` may be mutating its list at its own
///   event on a different lock. Whether `u` pays the deep copy depends
///   on which of the two reaches the `Arc` reference count first in
///   real time, not on their tickets. The other engines' lock states
///   hold copies, never aliases.
///
/// # Cost model
///
/// A sampled-out access pays two relaxed atomic RMWs and nothing else
/// (measured in `BENCH_access_cost.json`). A sampled access pays its
/// own, uncontended thread slot plus one `1/N`-contended shard lock. A
/// sync event pays two uncontended mutexes (its lock's slot and its
/// thread's slot) plus the engine's handler; handlers for different
/// threads and locks run in parallel.
/// Thread slots are cache-line aligned, so a thread's state stays on
/// its own core.
///
/// # Example
///
/// ```
/// use freshtrack_core::{DjitDetector, ShardedOnlineDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use std::sync::Arc;
///
/// let sharded = Arc::new(ShardedOnlineDetector::new(
///     DjitDetector::new(AlwaysSampler::new()),
///     4,
/// ));
/// let handles: Vec<_> = (0..2)
///     .map(|t| {
///         let sharded = Arc::clone(&sharded);
///         std::thread::spawn(move || sharded.write(t, 0))
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// let races = Arc::try_unwrap(sharded).ok().unwrap().finish();
/// assert_eq!(races.len(), 1); // the two writes race
/// ```
pub struct ShardedOnlineDetector<D: SplitDetector> {
    /// One slot per thread id, taken by that thread's own events.
    threads: Slots<Padded<Mutex<ThreadData<D::Sync>>>>,
    /// One slot per lock id, taken by acquires and releases of it.
    locks: Slots<Padded<Mutex<<D::Sync as SyncEngine>::Lock>>>,
    /// One past the highest thread id admitted so far (by a sync event,
    /// a sampled access or a reservation): the `threads` of
    /// [`SyncCtx`].
    registered: AtomicUsize,
    options: <D::Sync as SyncEngine>::Options,
    /// The access plane: per-variable histories, sharded.
    shards: Vec<Padded<Mutex<AccessShard<D::Access>>>>,
    /// The ticket counter, on a line of its own: every event writes it,
    /// and the fields read on every event must not share its line.
    next_id: Padded<AtomicU64>,
    /// The hoisted sampling decision (see the skip-path docs).
    decider: HoistedDecider,
    /// Striped skip tallies for the lock-free path, folded into the
    /// merged counters at `finish_merged`.
    skip: SkipCells,
    /// Access-plane shard-lock acquisitions, for regression tests that
    /// pin the skip path lock-free (debug builds only).
    #[cfg(debug_assertions)]
    shard_locks: AtomicU64,
}

/// Aligns a slot to its own cache lines (128 bytes covers adjacent-line
/// prefetch), so two threads' slots — or two locks', or two shards' —
/// never share one.
#[repr(align(128))]
struct Padded<T>(T);

/// One thread's slot: its engine state, its `RelAfter_S` bit and the
/// counters of its sync events.
struct ThreadData<E: SyncEngine> {
    state: E::Thread,
    /// Set by the thread's sampled accesses, consumed (and reset) by
    /// its next release.
    sampled: bool,
    counters: Counters,
}

struct AccessShard<A> {
    engine: A,
    counters: Counters,
    reports: Vec<RaceReport>,
}

/// Slots in chunk 0; chunk `c` holds `SLOT_CHUNK0 << c` slots.
const SLOT_CHUNK0: usize = 8;
/// Chunk count; capacity `SLOT_CHUNK0 * (2^SLOT_CHUNKS - 1)` ids.
const SLOT_CHUNKS: usize = 24;

/// A grow-only slot table indexed by a dense id: doubling chunks
/// behind `OnceLock`, so slots never move and a lookup is one atomic
/// load plus a chunk index. A chunk's slots are all built when its
/// first id is looked up.
struct Slots<T> {
    chunks: [OnceLock<Box<[T]>>; SLOT_CHUNKS],
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Slot `index`, building its chunk with `init(id)` on first use.
    #[inline]
    fn get(&self, index: usize, init: impl Fn(usize) -> T) -> &T {
        let c = (index / SLOT_CHUNK0 + 1).ilog2() as usize;
        let base = SLOT_CHUNK0 * ((1usize << c) - 1);
        let chunk =
            self.chunks[c].get_or_init(|| (base..base + (SLOT_CHUNK0 << c)).map(init).collect());
        &chunk[index - base]
    }

    /// Every slot built so far.
    fn into_built(self) -> impl Iterator<Item = T> {
        self.chunks
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .flat_map(|chunk| chunk.into_vec())
    }
}

impl<D: SplitDetector> std::fmt::Debug for ShardedOnlineDetector<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOnlineDetector")
            .field("shards", &self.shard_count())
            .field("events", &self.events_processed())
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().expect("detector mutex poisoned")
}

impl<D: SplitDetector> ShardedOnlineDetector<D> {
    /// Builds a sharded detector with `shards` access shards.
    ///
    /// `detector` must be in its initial state: it seeds the engine
    /// configuration of both planes; a detector that has already
    /// processed events would give the planes inconsistent views of the
    /// happens-before skeleton.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(detector: D, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        ShardedOnlineDetector {
            threads: Slots::new(),
            locks: Slots::new(),
            registered: AtomicUsize::new(0),
            options: detector.split_sync().options(),
            shards: (0..shards)
                .map(|_| {
                    Padded(Mutex::new(AccessShard {
                        engine: detector.split_access(),
                        counters: Counters::new(),
                        reports: Vec::new(),
                    }))
                })
                .collect(),
            next_id: Padded(AtomicU64::new(0)),
            decider: detector.hoisted_decider(),
            skip: SkipCells::new(),
            #[cfg(debug_assertions)]
            shard_locks: AtomicU64::new(0),
        }
    }

    /// Number of access shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pre-sizes per-thread clock state for `n` application threads
    /// (see [`Detector::reserve_threads`](crate::Detector::reserve_threads)).
    /// Call once before the workers start so the event hot path never
    /// grows a clock.
    pub fn reserve_threads(&self, n: usize) {
        if n == 0 {
            return;
        }
        let registered = self.registered.fetch_max(n, Ordering::Relaxed).max(n);
        for idx in 0..registered {
            let mut thread = lock(self.thread_slot(ThreadId::new(idx as u32)));
            <D::Sync as SyncEngine>::reserve_at(&mut thread.state, n);
        }
    }

    /// The shard that owns variable `var`.
    ///
    /// Fibonacci multiplicative hashing spreads the dense, often
    /// sequential variable-id space evenly across shards.
    #[inline]
    pub fn shard_of(&self, var: VarId) -> usize {
        let h = (var.index() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((h >> 32) as usize) % self.shard_count()
    }

    /// Draws the event's globally unique, totally ordered ticket id
    /// (invariant 10 in `ARCHITECTURE.md`; see the type-level docs for
    /// where each event kind draws it and why no global lock is
    /// needed).
    #[inline]
    fn take_ticket(&self) -> EventId {
        EventId::new(self.next_id.0.fetch_add(1, Ordering::Relaxed))
    }

    /// Counts one access-plane shard-lock acquisition (debug builds
    /// only; see
    /// [`debug_shard_lock_acquisitions`](ShardedOnlineDetector::debug_shard_lock_acquisitions)).
    #[inline]
    fn note_shard_lock(&self) {
        #[cfg(debug_assertions)]
        self.shard_locks.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of shard-lock acquisitions performed so far (one per
    /// analyzed access).
    ///
    /// Exists so regression tests can pin the skip path lock-free — a
    /// fully sampled-out stream must never take a shard lock. Debug
    /// builds only.
    #[cfg(debug_assertions)]
    pub fn debug_shard_lock_acquisitions(&self) -> u64 {
        self.shard_locks.load(Ordering::Relaxed)
    }

    /// Registers thread `tid` and returns the registered thread count.
    /// The common case is one load of a rarely written word.
    #[inline]
    fn admit(&self, tid: ThreadId) -> usize {
        let n = self.registered.load(Ordering::Relaxed);
        if n > tid.index() {
            return n;
        }
        self.registered
            .fetch_max(tid.index() + 1, Ordering::Relaxed)
            .max(tid.index() + 1)
    }

    /// Thread `tid`'s slot, built in its initial state on first use.
    #[inline]
    fn thread_slot(&self, tid: ThreadId) -> &Mutex<ThreadData<D::Sync>> {
        let slot = self.threads.get(tid.index(), |id| {
            Padded(Mutex::new(ThreadData {
                state: <D::Sync as SyncEngine>::new_thread(ThreadId::new(id as u32)),
                sampled: false,
                counters: Counters::new(),
            }))
        });
        &slot.0
    }

    /// Lock `lock_id`'s slot, built in its initial state on first use.
    #[inline]
    fn lock_slot(&self, lock_id: LockId) -> &Mutex<<D::Sync as SyncEngine>::Lock> {
        &self
            .locks
            .get(lock_id.index(), |_| Padded(Mutex::new(Default::default())))
            .0
    }

    /// Feeds one event; returns `true` if it was reported as racing.
    ///
    /// Every access first draws its ticket from the atomic counter, with
    /// no lock held, and is decided by the hoisted sampler: sampled-out
    /// accesses return after a striped counter bump (the lock-free skip
    /// path); sampled ones take their thread's slot and one shard, and
    /// return their verdict. Sync events take their lock's slot and
    /// their thread's slot; a sync event never races, so it returns
    /// `false`.
    pub fn on_event(&self, tid: u32, kind: EventKind) -> bool {
        let event = Event::new(ThreadId::new(tid), kind);
        match event.kind {
            EventKind::Read(var) | EventKind::Write(var) => {
                // Hoisted ticket + decision: no lock held (invariant 10).
                let id = self.take_ticket();
                if !(self.decider)(id, event) {
                    match event.kind {
                        EventKind::Read(_) => self.skip.bump_read(tid),
                        _ => self.skip.bump_write(tid),
                    }
                    return false;
                }
                self.access(id, event, var)
            }
            EventKind::Acquire(lock_id) | EventKind::Release(lock_id) => {
                self.sync_event(event, lock_id);
                false
            }
        }
    }

    /// Analyzes one already sampled access against its thread's clock,
    /// raising the thread's `RelAfter_S` bit.
    fn access(&self, id: EventId, event: Event, var: VarId) -> bool {
        let tid = event.tid;
        self.admit(tid);
        let mut thread = lock(self.thread_slot(tid));
        thread.sampled = true;
        let view = <D::Sync as SyncEngine>::thread_view(tid, &thread.state);
        let mut shard = lock(&self.shards[self.shard_of(var)].0);
        self.note_shard_lock();
        let AccessShard {
            engine,
            counters,
            reports,
        } = &mut *shard;
        counters.events += 1;
        let outcome = engine.access_sampled(id, event, &view, counters);
        if let Some(report) = outcome.report {
            reports.push(report);
            true
        } else {
            false
        }
    }

    /// Runs one sync event's handler on its thread's and lock's states.
    fn sync_event(&self, event: Event, lock_id: LockId) {
        let tid = event.tid;
        let threads = self.admit(tid);
        let mut lock_state = lock(self.lock_slot(lock_id));
        // Inside the lock's slot: same-lock events draw their tickets in
        // the order their handlers run.
        self.take_ticket();
        let mut thread = lock(self.thread_slot(tid));
        let ThreadData {
            state,
            sampled,
            counters,
        } = &mut *thread;
        counters.events += 1;
        let mut ctx = SyncCtx {
            options: self.options,
            threads,
            counters,
        };
        match event.kind {
            EventKind::Acquire(_) => {
                <D::Sync as SyncEngine>::acquire_at(tid, state, &mut lock_state, &mut ctx);
            }
            EventKind::Release(_) => {
                let sampled = std::mem::take(sampled);
                <D::Sync as SyncEngine>::release_at(tid, state, &mut lock_state, sampled, &mut ctx);
            }
            _ => unreachable!("on_event routes only sync events here"),
        }
    }

    /// Records a read of variable `var` by thread `tid`.
    pub fn read(&self, tid: u32, var: u32) -> bool {
        self.on_event(tid, EventKind::Read(VarId::new(var)))
    }

    /// Records a write of variable `var` by thread `tid`.
    pub fn write(&self, tid: u32, var: u32) -> bool {
        self.on_event(tid, EventKind::Write(VarId::new(var)))
    }

    /// Records an acquire of lock `lock` by thread `tid`.
    pub fn acquire(&self, tid: u32, lock: u32) {
        self.on_event(tid, EventKind::Acquire(LockId::new(lock)));
    }

    /// Records a release of lock `lock` by thread `tid`.
    pub fn release(&self, tid: u32, lock: u32) {
        self.on_event(tid, EventKind::Release(LockId::new(lock)));
    }

    /// Number of event tickets drawn so far. Every event — including a
    /// sampled-out access, whose processing is just its skip tally —
    /// draws exactly one ticket, so after all workers quiesce this
    /// equals events observed.
    pub fn events_processed(&self) -> u64 {
        self.next_id.0.load(Ordering::Relaxed)
    }

    /// Races reported so far, across all shards.
    pub fn race_count(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.0).reports.len()).sum()
    }

    /// Consumes the façade, returning the merged race reports.
    ///
    /// Reports are **strictly sorted by racing [`EventId`]** — the same
    /// deterministic global order
    /// [`OnlineDetector::finish`](crate::OnlineDetector::finish)
    /// guarantees, so sharded and unsharded runs over the same event
    /// stream are directly comparable (`crates/core/tests/sharding.rs`
    /// pins this for `N > 1`).
    pub fn finish(self) -> Vec<RaceReport> {
        self.finish_merged().0
    }

    /// [`finish`](ShardedOnlineDetector::finish) plus the aggregated
    /// [`Counters`].
    ///
    /// Thread slots count sync events, shards count sampled accesses
    /// and the skip cells count the rest: they partition the event
    /// space, so counters sum directly.
    pub fn finish_merged(self) -> (Vec<RaceReport>, Counters) {
        let (skipped_reads, skipped_writes) = self.skip.totals();
        let mut counters = Counters::new();
        for slot in self.threads.into_built() {
            counters += slot.0.into_inner().expect("thread slot poisoned").counters;
        }
        // Per-shard report lists are *not* ticket-sorted in general —
        // concurrent analyzed events may invert ticket order under the
        // hoisted draw (invariant 10) — so ordering is established only
        // by the merged sort below.
        let mut reports = Vec::new();
        for shard in self.shards {
            let shard = shard.0.into_inner().expect("detector shard mutex poisoned");
            counters += shard.counters;
            reports.extend(shard.reports);
        }
        // Skip-path tallies never entered a shard's counters: fold them
        // in once, bit-exactly, after the plane merge.
        counters.fold_skipped_accesses(skipped_reads, skipped_writes);
        reports.sort_unstable_by_key(|r| r.event);
        debug_assert!(
            reports.windows(2).all(|w| w[0].event < w[1].event),
            "merged reports must be strictly sorted by EventId"
        );
        (reports, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DjitDetector, OnlineDetector, OrderedListDetector};
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler};
    use std::sync::Arc;

    #[test]
    fn sync_cost_is_counted_once() {
        // One acquire/release pair and 32 writes partitioned over four
        // shards. In Djit+ every sync event performs exactly one
        // vector-clock op, so the merged `vc_ops` pins that each sync
        // observation is counted once, not once per shard.
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 4);
        sharded.acquire(0, 0);
        for v in 0..32 {
            sharded.write(0, v);
        }
        sharded.release(0, 0);
        let (reports, merged) = sharded.finish_merged();
        assert!(reports.is_empty());
        assert_eq!(merged.acquires, 1);
        assert_eq!(merged.releases, 1);
        assert_eq!(merged.writes, 32);
        assert_eq!(merged.events, 34);
        assert_eq!(merged.vc_ops, 2);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 7);
        for v in 0..1000 {
            let s = sharded.shard_of(VarId::new(v));
            assert!(s < 7);
            assert_eq!(s, sharded.shard_of(VarId::new(v)));
        }
    }

    #[test]
    fn sequential_feed_matches_unsharded_in_all_modes() {
        // A small lock-ladder-ish stream with genuine races.
        let script: Vec<(u32, EventKind)> = (0..200u32)
            .map(|i| {
                let t = i % 3;
                match i % 5 {
                    0 => (t, EventKind::Acquire(LockId::new((i / 5) % 2))),
                    1 => (t, EventKind::Write(VarId::new(i % 7))),
                    2 => (t, EventKind::Read(VarId::new(i % 7))),
                    3 => (t, EventKind::Release(LockId::new((i / 5) % 2))),
                    _ => (t, EventKind::Write(VarId::new(3))),
                }
            })
            .collect();
        // The script must obey the locking discipline to be a valid
        // event stream; rebuild it with a holder map.
        let mut held = [None::<u32>; 2];
        let valid: Vec<(u32, EventKind)> = script
            .into_iter()
            .map(|(t, kind)| match kind {
                EventKind::Acquire(l) if held[l.index()].is_none() => {
                    held[l.index()] = Some(t);
                    (t, kind)
                }
                EventKind::Release(l) if held[l.index()] == Some(t) => {
                    held[l.index()] = None;
                    (t, kind)
                }
                EventKind::Acquire(_) | EventKind::Release(_) => {
                    (t, EventKind::Read(VarId::new(t)))
                }
                access => (t, access),
            })
            .collect();

        let sampler = BernoulliSampler::new(0.6, 9);
        let unsharded = OnlineDetector::new(OrderedListDetector::new(sampler));
        for &(t, kind) in &valid {
            unsharded.on_event(t, kind);
        }
        let (baseline, baseline_reports) = unsharded.finish();

        for shards in [1usize, 2, 3, 5] {
            let sharded = ShardedOnlineDetector::new(OrderedListDetector::new(sampler), shards);
            for &(t, kind) in &valid {
                sharded.on_event(t, kind);
            }
            assert_eq!(sharded.shard_count(), shards);
            let (reports, merged) = sharded.finish_merged();
            assert_eq!(reports, baseline_reports, "{shards} shards");
            assert_eq!(merged, *baseline.counters(), "{shards} shards");
        }
    }

    #[test]
    fn concurrent_ingestion_obeys_locking_discipline() {
        let sharded = Arc::new(ShardedOnlineDetector::new(
            OrderedListDetector::new(AlwaysSampler::new()),
            4,
        ));
        sharded.reserve_threads(4);
        let app_lock = Arc::new(std::sync::Mutex::new(()));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let sharded = Arc::clone(&sharded);
                let app_lock = Arc::clone(&app_lock);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let guard = app_lock.lock().unwrap();
                        sharded.acquire(t, 0);
                        sharded.write(t, i % 13);
                        sharded.release(t, 0);
                        drop(guard);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sharded.events_processed(), 4 * 100 * 3);
        let (reports, merged) = Arc::try_unwrap(sharded).ok().unwrap().finish_merged();
        // All accesses are lock-protected: no races, on any shard.
        assert!(reports.is_empty(), "{reports:?}");
        assert_eq!(merged.events, 1200);
        assert_eq!(merged.acquires, 400);
        assert_eq!(merged.releases, 400);
    }

    #[test]
    fn concurrent_races_are_found_and_sorted() {
        let sharded = Arc::new(ShardedOnlineDetector::new(
            DjitDetector::new(AlwaysSampler::new()),
            3,
        ));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let sharded = Arc::clone(&sharded);
                std::thread::spawn(move || {
                    for v in 0..8u32 {
                        sharded.write(t, v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(sharded.race_count() > 0);
        let reports = Arc::try_unwrap(sharded).ok().unwrap().finish();
        assert!(reports.windows(2).all(|w| w[0].event < w[1].event));
    }

    #[test]
    fn late_thread_admission_publishes_a_fresh_view() {
        // Thread 5 appears mid-run with no prior sync events: its first
        // access must see its initial clock, not garbage, and still
        // race against the earlier unsynchronized write.
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        sharded.write(0, 9);
        assert!(sharded.write(5, 9), "unsynchronized write must race");
        let (reports, merged) = sharded.finish_merged();
        assert_eq!(reports.len(), 1);
        assert_eq!(merged.writes, 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 0);
    }
}
