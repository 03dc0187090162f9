//! The one monolithic detector: a [`SyncEngine`] and an [`AccessEngine`]
//! composed along the sync/access seam.
//!
//! Djit+ (ST), FastTrack, SU, SO and the ET baseline differ only in
//! their two halves — the paper's Algorithms 1, 3 and 4 share the
//! access handler and differ in their synchronization handlers, which
//! is what Lemmas 4, 7 and 8 rest on. [`Composed`] writes the event
//! loop, the checkpoint and the split once; the public engine names are
//! type aliases of it ([`DjitDetector`](crate::DjitDetector),
//! [`FastTrackDetector`](crate::FastTrackDetector),
//! [`FreshnessDetector`](crate::FreshnessDetector),
//! [`OrderedListDetector`](crate::OrderedListDetector),
//! [`EmptyDetector`](crate::EmptyDetector)), each with its constructor.

use freshtrack_clock::wire::{WireError, WireReader};
use freshtrack_clock::{ThreadId, Time};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId};

use crate::checkpoint::{self, CheckpointError, CheckpointState};
use crate::plane::{self, AccessEngine, ClockView, SplitDetector, SyncCtx, SyncEngine};
use crate::{Counters, Detector, HoistedDecider, RaceReport, SyncOps};

/// A streaming detector built from one sync engine and one access
/// engine: accesses are decided first and analyzed against a borrowed
/// view of the thread's state, sync events run the sync engine's
/// handlers, and the `RelAfter_S` bit crosses back at release when the
/// sync engine reads it ([`SyncEngine::READS_REL_AFTER_S`]).
///
/// The offline segment pipeline
/// ([`analyze_segments`](crate::analyze_segments)) feeds this detector
/// itself, and the same halves serve the
/// [`ShardedOnlineDetector`](crate::ShardedOnlineDetector)
/// ([`SplitDetector`]), so the ingestion paths cannot drift apart.
#[derive(Clone, Debug, Default)]
pub struct Composed<Sy, Ac> {
    pub(crate) sync: Sy,
    access: Ac,
    /// `RelAfter_S` bits: has thread `t` sampled an access since its
    /// last release? Empty unless the sync engine reads them.
    sampled: Vec<bool>,
    counters: Counters,
}

/// The display name of a composition (`"Djit+"`, `"SO"`, …) — what
/// [`Detector::name`] returns.
pub trait EngineName {
    /// The name.
    const NAME: &'static str;
}

/// The access engine's view of thread `t`: the sync engine's borrowed
/// view with the thread-table length as its width. The access-checkpoint
/// header records the width, so it must not depend on a clock's length.
struct TableView<V> {
    view: V,
    width: usize,
}

impl<V: ClockView> ClockView for TableView<V> {
    #[inline]
    fn time_of(&self, u: ThreadId) -> Time {
        self.view.time_of(u)
    }

    #[inline]
    fn width(&self) -> usize {
        self.width
    }
}

impl<Sy: SyncEngine, Ac> Composed<Sy, Ac> {
    /// A detector in its initial state over fresh halves.
    pub(crate) fn from_halves(sync: Sy, access: Ac) -> Self {
        Composed {
            sync,
            access,
            sampled: Vec::new(),
            counters: Counters::new(),
        }
    }

    fn ensure_thread(&mut self, tid: ThreadId) {
        self.sync.ensure_thread(tid);
        if Sy::READS_REL_AFTER_S && self.sampled.len() <= tid.index() {
            self.sampled.resize(tid.index() + 1, false);
        }
    }

    /// Handles an acquire of `lock` by `tid`.
    fn acquire(&mut self, tid: ThreadId, lock: LockId) {
        self.ensure_thread(tid);
        self.sync.acquire(tid, lock, &mut self.counters);
    }

    /// Runs the release-side `handler` of `tid` on `lock` with `tid`'s
    /// `RelAfter_S` bit, which is taken (reset).
    #[inline]
    fn release_by(
        &mut self,
        handler: impl FnOnce(
            ThreadId,
            &mut Sy::Thread,
            &mut Sy::Lock,
            bool,
            &mut SyncCtx<'_, Sy::Options>,
        ),
        tid: ThreadId,
        lock: LockId,
    ) {
        self.ensure_thread(tid);
        let sampled = Sy::READS_REL_AFTER_S && std::mem::take(&mut self.sampled[tid.index()]);
        self.sync
            .release_by(handler, tid, lock, sampled, &mut self.counters);
    }
}

/// The Appendix A.2 handlers, written once over the sync engine's
/// per-object ones.
impl<Sy: SyncEngine, Ac> SyncOps for Composed<Sy, Ac> {
    fn release_store(&mut self, tid: u32, sync: LockId) {
        self.release_by(Sy::release_store_at, ThreadId::new(tid), sync);
    }

    fn release_join(&mut self, tid: u32, sync: LockId) {
        self.release_by(Sy::release_join_at, ThreadId::new(tid), sync);
    }

    fn acquire_sync(&mut self, tid: u32, sync: LockId) {
        self.acquire(ThreadId::new(tid), sync);
    }
}

impl<Sy: SyncEngine, Ac: AccessEngine> Detector for Composed<Sy, Ac>
where
    Self: EngineName,
{
    fn process(&mut self, id: EventId, event: Event) -> Option<RaceReport> {
        // Decide first: the sampling decision is pure in `(id, event)`,
        // so a skipped access is a tally and nothing else — no thread
        // admission, no clock reads (invariant 10).
        if let EventKind::Read(_) | EventKind::Write(_) = event.kind {
            if !self.access.decide(id, event) {
                self.counters.events += 1;
                plane::tally_access(&event, &mut self.counters);
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
                let (threads, _) = self.sync.tables();
                let view = TableView {
                    view: Sy::thread_view(tid, &threads[tid.index()]),
                    width: threads.len(),
                };
                let outcome = self
                    .access
                    .access_sampled(id, event, &view, &mut self.counters);
                if Sy::READS_REL_AFTER_S && outcome.sampled {
                    self.sampled[tid.index()] = true;
                }
                outcome.report
            }
            EventKind::Acquire(lock) => {
                self.acquire(tid, lock);
                None
            }
            EventKind::Release(lock) => {
                self.release_by(Sy::release_at, tid, lock);
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
        Self::NAME
    }

    fn hoisted_decider(&self) -> HoistedDecider {
        let sampler = self.access.sampler().clone();
        Box::new(move |ordinal, event| sampler.decide_in_thread(ordinal, event))
    }

    fn record_skipped_accesses(&mut self, reads: u64, writes: u64) {
        self.counters.fold_skipped_accesses(reads, writes);
    }
}

impl<Sy, Ac> SplitDetector for Composed<Sy, Ac>
where
    Sy: SyncEngine + Clone,
    Ac: AccessEngine + Clone,
    Self: EngineName,
{
    type Sync = Sy;
    type Access = Ac;

    fn split_sync(&self) -> Sy {
        Sy::from_options(self.sync.options())
    }

    fn split_access(&self) -> Ac {
        self.access.clone()
    }
}

// The checkpoint is the sync section, the access section (each
// length-prefixed), the `RelAfter_S` bits and the counters.
impl<Sy, Ac> CheckpointState for Composed<Sy, Ac>
where
    Sy: SyncEngine + CheckpointState,
    Ac: CheckpointState,
{
    fn export_state(&self, out: &mut Vec<u8>) {
        let mut section = Vec::new();
        self.sync.export_state(&mut section);
        checkpoint::put_section(out, &section);
        section.clear();
        self.access.export_state(&mut section);
        checkpoint::put_section(out, &section);
        checkpoint::put_bools(out, &self.sampled);
        checkpoint::put_counters(out, &self.counters);
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = WireReader::new(bytes);
        let sync_bytes = checkpoint::get_section(&mut r)?;
        let access_bytes = checkpoint::get_section(&mut r)?;
        let sampled = checkpoint::get_bools(&mut r)?;
        let counters = checkpoint::get_counters(&mut r)?;
        r.finish()?;
        self.sync.import_state(sync_bytes)?;
        self.access.import_state(access_bytes)?;
        if !Sy::READS_REL_AFTER_S && !sampled.is_empty() {
            return Err(WireError::Invalid("RelAfter_S bits on a non-epoch engine").into());
        }
        self.sampled = sampled;
        self.counters = counters;
        Ok(())
    }
}
