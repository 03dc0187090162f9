use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use freshtrack_clock::ThreadId;
use freshtrack_trace::{Event, EventId, EventKind, LockId, VarId};

use crate::plane::{AccessEngine, SplitDetector, SyncCtx, SyncEngine};
use crate::slots::{AccessCell, Padded, Slots};
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
/// # Two ways in
///
/// * **[`on_event`](ShardedOnlineDetector::on_event)** (and
///   `read`/`write`/`acquire`/`release`) takes a thread id with every
///   event. The thread's state stays in its slot: its sync state behind
///   a mutex that only that thread's own events take, and its access
///   cell (access ordinal and skip tallies), which only they write.
/// * **[`thread`](ShardedOnlineDetector::thread)** returns a
///   [`ThreadHandle`] that takes the thread's sync state and access
///   count out of its slot and holds them by value until it drops. Its
///   events touch no thread mutex. Both paths run the same handler
///   bodies and may be mixed across threads (not for one thread while
///   its handle is live).
///
/// # Routing rule
///
/// * **Access events** (`Read`/`Write` of variable `v`) are decided
///   *before any lock* on their thread's access ordinal (see the skip
///   path below). A sampled-out access returns after a tally; a sampled
///   access draws its id (its rank among the sampled accesses) from the
///   one atomic ticket, raises its thread's `RelAfter_S` bit and is
///   analyzed in exactly one shard, `hash(v) mod N`, against a view
///   borrowed from the thread's state. Through `on_event` it first
///   takes its own thread's slot (which nobody else contends for);
///   through a handle the state is already at hand. The verdict is
///   returned from that same call.
/// * **Sync events** (`Acquire`/`Release` of lock `ℓ` by thread `t`)
///   take `ℓ`'s slot and run the engine's handler
///   ([`SyncEngine::acquire_at`] / [`SyncEngine::release_at`]) on `t`'s
///   and `ℓ`'s states. They draw no id. Through `on_event`, `t`'s slot
///   is taken first. The application already holds `ℓ` when it reports
///   the event, so `ℓ`'s slot is uncontended in a lock-disciplined
///   program.
///
/// Lock order: thread slot → lock slot for sync events, thread slot →
/// shard for accesses. A thread slot is only ever taken first, and
/// nothing holding a lock slot or a shard takes another lock, so the
/// order is acyclic.
///
/// # The sample set and the skip path
///
/// Every detector exposes a
/// [`hoisted_decider`](crate::Detector::hoisted_decider): the sampler's
/// per-thread rule ([`Sampler::decide_in_thread`]), a pure function of
/// `(seed, t, k, event)` where `k` is the access's ordinal among thread
/// `t`'s accesses (invariant 4 in `ARCHITECTURE.md`). An access event
/// therefore takes **no lock and writes no line another thread writes**
/// until it is known to be sampled:
///
/// 1. take the thread's next ordinal `k` — a relaxed load and store of
///    its access cell, or a plain field of its handle;
/// 2. evaluate the decider on `(k, event)`;
/// 3. if sampled out: tally the skip in the same place and return — no
///    id, no thread mutex, no shard lock, no view.
///
/// At a sampling rate `r` the expected locked work per access is
/// `O(r)`, and so is the traffic on the ticket line. The sample set
/// depends only on each thread's program, so it is the same whatever
/// the interleaving, the shard count or the path. The skipped tallies
/// are folded into the merged [`Counters`] bit-exactly at
/// [`finish_merged`](ShardedOnlineDetector::finish_merged).
///
/// [`Sampler::decide_in_thread`]: freshtrack_sampling::Sampler::decide_in_thread
///
/// # Why verdicts are preserved (invariant 10)
///
/// Report ids come from one atomic ticket that only sampled accesses
/// draw, at the top of their call: an id is the access's rank among
/// the sampled accesses in ticket order.
///
/// * **Sampled-out accesses mutate nothing** but their own thread's
///   cell. They commute with every other event; the decision depends on
///   the thread's ordinal, which is fixed by its program order.
/// * **Sync events on disjoint pairs commute.** `acquire(t,ℓ)` and
///   `release(t,ℓ)` read and write only `t`'s and `ℓ`'s states. Two sync
///   events of one thread run in program order. Two sync events of one
///   lock run in the order of `ℓ`'s slot mutex, which is the order the
///   application's own lock admits them. Any execution therefore ends
///   in the state of a sequential replay of one interleaving of the
///   threads' programs: the one real time produced.
/// * **Causally ordered sampled accesses keep ticket order.** An
///   instrumentation call returns before the same thread issues its
///   next event, and cross-thread ordering is only established through
///   the application's own synchronization, which likewise orders the
///   calls in real time. So if `a` happens before `b`, `a` drew its
///   ticket first.
/// * **Concurrent analyzed accesses may invert ticket order** inside a
///   shard. Such events are unordered by happens-before, so either
///   analysis order is a valid linearization. Per-shard report lists
///   are consequently not ticket-sorted; the merge sorts once at
///   [`finish`](ShardedOnlineDetector::finish).
///
/// An access's verdict depends only on (a) the issuing thread's clock,
/// which changes only at that thread's own sync events, and (b) its
/// variable's history inside one shard. The one access→sync feedback,
/// the `RelAfter_S` bit, lives with the thread's state: raised by the
/// thread's sampled accesses, consumed by its next release.
///
/// Per-thread program order is what the argument needs from callers.
/// Through a handle the type system enforces it: there is one handle
/// per thread id, and every event takes it by `&mut`. Through
/// `on_event` it is the caller's obligation to issue each thread id's
/// events from one thread at a time (which every real instrumentation
/// source does — a thread's events *are* its program order).
///
/// # Misuse
///
/// These panic with a message naming the thread id: a second
/// [`thread`](ShardedOnlineDetector::thread) for a thread whose handle
/// is live, any `on_event` for such a thread (its access count and its
/// state are in the handle), and
/// [`reserve_threads`](ShardedOnlineDetector::reserve_threads) while any
/// handle is live.
///
/// # Counters
///
/// For a sequential feed the merged [`Counters`] equal the single
/// mutex's, every field, through either path, and equal
/// [`Detector::run`](crate::Detector::run)'s over the same events with
/// a sampler that picks the same accesses by position. Concurrent runs
/// keep that for every field but two, which read state beyond `t` and
/// `ℓ`:
///
/// * `entries_traversed` and `entries_saved` add the registered thread
///   count, which a concurrent first event of a new thread may raise
///   while another thread's event is between its call and its handler.
/// * `deep_copies` of the SO engine. Lock `ℓ`'s snapshot aliases the
///   list of its last releaser `u`. A release of `ℓ` by another thread
///   drops that alias, while `u` may be mutating its list at its own
///   event on a different lock. Whether `u` pays the deep copy depends
///   on which of the two reaches the `Arc` reference count first in
///   real time, not on any program order. The other engines' lock states
///   hold copies, never aliases.
///
/// # Cost model
///
/// | Event | Through `on_event` | Through a [`ThreadHandle`] |
/// |---|---|---|
/// | sampled-out access | two load/store pairs on its own cell | plain fields |
/// | sampled access | cell + ticket RMW + thread slot + shard lock | ticket RMW + shard lock |
/// | sync event | thread slot + lock slot + handler | lock slot + handler |
///
/// Every mutex but the shard lock is uncontended by construction; a
/// shard lock is `1/N`-contended. The ticket is the one line every
/// thread writes, and only sampled accesses write it. Handlers for
/// different threads and locks run in parallel. Measured in
/// `BENCH_access_cost.json` and `BENCH_sync_cost.json`. Thread slots
/// are cache-line aligned, so a thread's state and access cell stay on
/// its own core.
///
/// # Example
///
/// ```
/// use freshtrack_core::{DjitDetector, ShardedOnlineDetector};
/// use freshtrack_sampling::AlwaysSampler;
///
/// let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 4);
/// std::thread::scope(|s| {
///     // Thread 0 feeds through its handle, thread 1 through `on_event`.
///     s.spawn(|| sharded.thread(0).write(0));
///     s.spawn(|| sharded.write(1, 0));
/// });
/// let races = sharded.finish();
/// assert_eq!(races.len(), 1); // the two writes race
/// ```
pub struct ShardedOnlineDetector<D: SplitDetector> {
    /// One slot per thread id, used by that thread's own events.
    threads: Slots<Padded<ThreadSlot<D::Sync>>>,
    /// One slot per lock id, taken by acquires and releases of it.
    locks: Slots<Padded<Mutex<<D::Sync as SyncEngine>::Lock>>>,
    /// One past the highest thread id admitted so far (by a sync event,
    /// a sampled access or a reservation): the `threads` of
    /// [`SyncCtx`].
    registered: AtomicUsize,
    options: <D::Sync as SyncEngine>::Options,
    /// The access plane: per-variable histories, sharded.
    shards: Vec<Padded<Mutex<AccessShard<D::Access>>>>,
    /// The ticket counter, on a line of its own: every sampled access
    /// writes it, and the fields read on every event must not share its
    /// line.
    next_id: Padded<AtomicU64>,
    /// The hoisted sampling decision (see the skip-path docs).
    decider: HoistedDecider,
    /// Access-plane shard-lock acquisitions, for regression tests that
    /// pin the skip path lock-free (debug builds only).
    #[cfg(debug_assertions)]
    shard_locks: AtomicU64,
}

/// One thread's state: its engine state, its `RelAfter_S` bit and the
/// counters of its sync events.
struct ThreadData<E: SyncEngine> {
    state: E::Thread,
    /// Set by the thread's sampled accesses, consumed (and reset) by
    /// its next release.
    sampled: bool,
    counters: Counters,
}

/// A thread's slot.
struct ThreadSlot<E: SyncEngine> {
    /// The thread's sync state, or `None` while its [`ThreadHandle`]
    /// holds it.
    data: Mutex<Option<ThreadData<E>>>,
    /// The thread's access ordinal and skip tallies, lent to its
    /// [`ThreadHandle`] while one is live.
    accesses: AccessCell,
}

struct AccessShard<A> {
    engine: A,
    counters: Counters,
    reports: Vec<RaceReport>,
}

impl<D: SplitDetector> std::fmt::Debug for ShardedOnlineDetector<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOnlineDetector")
            .field("shards", &self.shard_count())
            .field("tickets", &self.tickets_drawn())
            .finish_non_exhaustive()
    }
}

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().expect("detector mutex poisoned")
}

/// The panic of an event, reservation or second handle for a thread
/// whose [`ThreadHandle`] is live.
fn handle_is_live(what: &str, tid: impl std::fmt::Display) -> ! {
    panic!("{what} for thread {tid} while its ThreadHandle is live")
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
    ///
    /// # Panics
    ///
    /// Panics, naming the thread, if any [`ThreadHandle`] is live: its
    /// state is out of reach and would miss the reservation.
    pub fn reserve_threads(&self, n: usize) {
        if n == 0 {
            return;
        }
        let registered = self.registered.fetch_max(n, Ordering::Relaxed).max(n);
        for idx in 0..registered {
            self.thread_slot(ThreadId::new(idx as u32));
        }
        for (idx, slot) in self.threads.built() {
            let mut slot = lock(&slot.0.data);
            match slot.as_mut() {
                Some(thread) if idx < registered => {
                    <D::Sync as SyncEngine>::reserve_at(&mut thread.state, n);
                }
                Some(_) => {}
                None => {
                    drop(slot);
                    handle_is_live("reserve_threads", idx);
                }
            }
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

    /// Draws a sampled access's id, its rank among the sampled
    /// accesses in ticket order (invariant 10 in `ARCHITECTURE.md`).
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
    fn thread_slot(&self, tid: ThreadId) -> &ThreadSlot<D::Sync> {
        let slot = self.threads.get(tid.index(), |id| {
            Padded(ThreadSlot {
                data: Mutex::new(Some(ThreadData {
                    state: <D::Sync as SyncEngine>::new_thread(ThreadId::new(id as u32)),
                    sampled: false,
                    counters: Counters::new(),
                })),
                accesses: AccessCell::default(),
            })
        });
        &slot.0
    }

    /// Runs `f` on thread `tid`'s state inside its slot.
    #[inline]
    fn with_thread<R>(&self, tid: ThreadId, f: impl FnOnce(&mut ThreadData<D::Sync>) -> R) -> R {
        let mut slot = lock(&self.thread_slot(tid).data);
        match slot.as_mut() {
            Some(thread) => f(thread),
            None => {
                drop(slot);
                handle_is_live("on_event", tid.as_u32())
            }
        }
    }

    /// Lock `lock_id`'s slot, built in its initial state on first use.
    #[inline]
    fn lock_slot(&self, lock_id: LockId) -> &Mutex<<D::Sync as SyncEngine>::Lock> {
        &self
            .locks
            .get(lock_id.index(), |_| Padded(Mutex::new(Default::default())))
            .0
    }

    /// Takes thread `tid`'s state and access count out of its slot:
    /// until the returned handle drops, that thread's events go through
    /// it and take no thread mutex (see the type-level cost model).
    /// Dropping the handle, also while unwinding, puts both back and
    /// folds its skip tallies into the thread's cell.
    ///
    /// # Panics
    ///
    /// Panics, naming the thread, if a handle for `tid` is already live.
    pub fn thread(&self, tid: u32) -> ThreadHandle<'_, D> {
        let tid = ThreadId::new(tid);
        let slot = self.thread_slot(tid);
        let Some(data) = lock(&slot.data).take() else {
            handle_is_live("thread()", tid.as_u32())
        };
        ThreadHandle {
            detector: self,
            tid,
            data: Some(data),
            ordinal: slot.accesses.lend(),
            skipped_reads: 0,
            skipped_writes: 0,
        }
    }

    /// Feeds one event; returns `true` if it was reported as racing.
    ///
    /// Every access is first decided by the hoisted sampler on its
    /// thread's next ordinal, with no lock held: sampled-out accesses
    /// return after a tally in the thread's own cell (the skip path);
    /// sampled ones draw their id, take their thread's slot and one
    /// shard, and return their verdict. Sync events take their thread's
    /// slot and their lock's slot; a sync event never races, so it
    /// returns `false`.
    ///
    /// # Panics
    ///
    /// Panics, naming the thread, if any event arrives for a thread
    /// whose [`ThreadHandle`] is live.
    pub fn on_event(&self, tid: u32, kind: EventKind) -> bool {
        let event = Event::new(ThreadId::new(tid), kind);
        match kind {
            EventKind::Read(var) | EventKind::Write(var) => {
                let cell = &self.thread_slot(event.tid).accesses;
                let Some(ordinal) = cell.next_ordinal() else {
                    handle_is_live("on_event", tid)
                };
                if !(self.decider)(ordinal, event) {
                    cell.skip(kind);
                    return false;
                }
                let id = self.take_ticket();
                self.with_thread(event.tid, |thread| self.access_with(thread, id, event, var))
            }
            EventKind::Acquire(lock_id) | EventKind::Release(lock_id) => {
                self.with_thread(event.tid, |thread| self.sync_with(thread, event, lock_id));
                false
            }
        }
    }

    /// Analyzes one already sampled access against its thread's clock,
    /// raising the thread's `RelAfter_S` bit. Both paths' access
    /// handler.
    fn access_with(
        &self,
        thread: &mut ThreadData<D::Sync>,
        id: EventId,
        event: Event,
        var: VarId,
    ) -> bool {
        let tid = event.tid;
        self.admit(tid);
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

    /// Runs one sync event's handler on its thread's state and its
    /// lock's slot. Both paths' sync handler.
    fn sync_with(&self, thread: &mut ThreadData<D::Sync>, event: Event, lock_id: LockId) {
        let tid = event.tid;
        let threads = self.admit(tid);
        let mut lock_state = lock(self.lock_slot(lock_id));
        let ThreadData {
            state,
            sampled,
            counters,
        } = thread;
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
            _ => unreachable!("only sync events reach the sync handler"),
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

    /// Ids drawn so far: one per sampled access, none for a sampled-out
    /// access or a sync event. After all workers quiesce this equals the
    /// merged `sampled_accesses`.
    pub fn tickets_drawn(&self) -> u64 {
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
    /// and the threads' access cells count the rest: they partition the
    /// event space, so counters sum directly.
    ///
    /// # Panics
    ///
    /// Panics if a [`ThreadHandle`] was leaked (`std::mem::forget`)
    /// instead of dropped: its thread's counts are lost.
    pub fn finish_merged(self) -> (Vec<RaceReport>, Counters) {
        let mut counters = Counters::new();
        let (mut skipped_reads, mut skipped_writes) = (0, 0);
        for slot in self.threads.into_built() {
            let (reads, writes) = slot.0.accesses.skipped();
            skipped_reads += reads;
            skipped_writes += writes;
            let thread = slot.0.data.into_inner().expect("thread slot poisoned");
            counters += thread
                .expect("a ThreadHandle was leaked: its thread's counts are lost")
                .counters;
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

/// One thread's way into a [`ShardedOnlineDetector`], from
/// [`ShardedOnlineDetector::thread`]: it holds the thread's sync state
/// and access ordinal by value, so the thread's events take no thread
/// mutex.
///
/// A sync event takes only its lock's slot, a sampled access draws its
/// id and takes only its shard, and a sampled-out access bumps plain
/// fields in the handle and writes nothing shared. Events take the
/// handle by `&mut`, and there is one handle per thread id, so the
/// thread's program order is the handle's call order. Dropping the
/// handle (also while unwinding) puts the state and the ordinal back
/// and folds the skip tallies into the thread's cell.
pub struct ThreadHandle<'a, D: SplitDetector> {
    detector: &'a ShardedOnlineDetector<D>,
    tid: ThreadId,
    /// The thread's state, taken out of its slot; `None` only inside
    /// `drop`.
    data: Option<ThreadData<D::Sync>>,
    /// The thread's next access ordinal, lent by its slot's cell.
    ordinal: u64,
    skipped_reads: u64,
    skipped_writes: u64,
}

impl<D: SplitDetector> ThreadHandle<'_, D> {
    /// Feeds one event of this handle's thread; returns `true` if it
    /// was reported as racing. Same sample set, verdicts and counters
    /// as [`ShardedOnlineDetector::on_event`].
    pub fn on_event(&mut self, kind: EventKind) -> bool {
        let detector = self.detector;
        let event = Event::new(self.tid, kind);
        let thread = self
            .data
            .as_mut()
            .expect("a live handle holds its thread's state");
        match kind {
            EventKind::Read(var) | EventKind::Write(var) => {
                let ordinal = self.ordinal;
                self.ordinal += 1;
                if !(detector.decider)(ordinal, event) {
                    match kind {
                        EventKind::Read(_) => self.skipped_reads += 1,
                        _ => self.skipped_writes += 1,
                    }
                    return false;
                }
                detector.access_with(thread, detector.take_ticket(), event, var)
            }
            EventKind::Acquire(lock_id) | EventKind::Release(lock_id) => {
                detector.sync_with(thread, event, lock_id);
                false
            }
        }
    }

    /// Records a read of variable `var`.
    pub fn read(&mut self, var: u32) -> bool {
        self.on_event(EventKind::Read(VarId::new(var)))
    }

    /// Records a write of variable `var`.
    pub fn write(&mut self, var: u32) -> bool {
        self.on_event(EventKind::Write(VarId::new(var)))
    }

    /// Records an acquire of lock `lock`.
    pub fn acquire(&mut self, lock: u32) {
        self.on_event(EventKind::Acquire(LockId::new(lock)));
    }

    /// Records a release of lock `lock`.
    pub fn release(&mut self, lock: u32) {
        self.on_event(EventKind::Release(LockId::new(lock)));
    }
}

impl<D: SplitDetector> Drop for ThreadHandle<'_, D> {
    fn drop(&mut self) {
        let slot = self.detector.thread_slot(self.tid);
        slot.accesses
            .give_back(self.ordinal, self.skipped_reads, self.skipped_writes);
        // Never panic here: this also runs while unwinding.
        *slot.data.lock().unwrap_or_else(PoisonError::into_inner) = self.data.take();
    }
}

impl<D: SplitDetector> std::fmt::Debug for ThreadHandle<'_, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadHandle")
            .field("tid", &self.tid)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DjitDetector, OnlineDetector, OrderedListDetector};
    use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler};
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
        // One id per sampled access; sync events draw none.
        assert_eq!(sharded.tickets_drawn(), 4 * 100);
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
    fn handle_feed_matches_on_event_feed() {
        // Sync events, sampled and sampled-out accesses of two threads,
        // one fed through a handle: same reports and counters as the
        // same stream through `on_event` alone.
        let feed = |handle_for: Option<u32>| {
            let sharded =
                ShardedOnlineDetector::new(DjitDetector::new(BernoulliSampler::new(0.5, 3)), 2);
            let mut handle = handle_for.map(|t| (t, sharded.thread(t)));
            let mut event = |t: u32, kind: EventKind| match handle.as_mut() {
                Some((h, handle)) if *h == t => handle.on_event(kind),
                _ => sharded.on_event(t, kind),
            };
            for i in 0..60u32 {
                let t = i % 2;
                event(t, EventKind::Acquire(LockId::new(i % 3)));
                event(t, EventKind::Write(VarId::new(i % 5)));
                event(t, EventKind::Release(LockId::new(i % 3)));
                event(t, EventKind::Read(VarId::new(i % 7)));
            }
            drop(handle);
            sharded.finish_merged()
        };
        let (want_reports, want) = feed(None);
        assert!(want.skipped_accesses() > 0 && want.sampled_accesses > 0);
        assert!(!want_reports.is_empty());
        for t in [0, 1] {
            let (reports, counters) = feed(Some(t));
            assert_eq!(reports, want_reports, "handle for thread {t}");
            assert_eq!(counters, want, "handle for thread {t}");
        }
    }

    #[test]
    #[should_panic(expected = "thread() for thread 3 while its ThreadHandle is live")]
    fn second_handle_for_a_thread_is_rejected() {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        let _first = sharded.thread(3);
        let _second = sharded.thread(3);
    }

    #[test]
    #[should_panic(expected = "on_event for thread 2 while its ThreadHandle is live")]
    fn on_event_for_a_handled_thread_is_rejected() {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        let mut handle = sharded.thread(2);
        handle.acquire(0);
        sharded.release(2, 0);
    }

    #[test]
    #[should_panic(expected = "on_event for thread 2 while its ThreadHandle is live")]
    fn a_sampled_out_access_for_a_handled_thread_is_rejected() {
        // The access count is in the handle, so even an access the
        // sampler rejects cannot be decided without it.
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(NeverSampler::new()), 2);
        let _handle = sharded.thread(2);
        sharded.write(2, 0);
    }

    #[test]
    #[should_panic(expected = "reserve_threads for thread 9 while its ThreadHandle is live")]
    fn reserve_threads_with_a_live_handle_is_rejected() {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        // Thread 9 has issued nothing yet: beyond the reservation, but
        // its handle must still be found.
        let _handle = sharded.thread(9);
        sharded.reserve_threads(4);
    }

    #[test]
    fn a_handle_dropped_by_a_panic_keeps_its_counts() {
        // Rate 0.5: the handle holds skip tallies, sync counters and
        // sampled accesses when the panic unwinds through it.
        let sharded =
            ShardedOnlineDetector::new(DjitDetector::new(BernoulliSampler::new(0.5, 11)), 2);
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut handle = sharded.thread(1);
            for v in 0..40 {
                handle.acquire(0);
                handle.write(v);
                handle.release(0);
                handle.read(v);
            }
            panic!("worker fails mid-run");
        }));
        assert!(fed.is_err());
        // The state is back: the thread feeds on through `on_event`.
        sharded.write(1, 99);
        let (_, merged) = sharded.finish_merged();
        assert_eq!(merged.events, 161);
        assert_eq!(merged.acquires, 40);
        assert_eq!(merged.releases, 40);
        assert_eq!(merged.writes, 41);
        assert_eq!(merged.reads, 40);
        assert!(merged.skipped_accesses() > 0, "{merged:?}");
        assert_eq!(merged.sampled_accesses + merged.skipped_accesses(), 81);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 0);
    }
}
