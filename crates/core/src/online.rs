use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use freshtrack_clock::ThreadId;
use freshtrack_sampling::NeverSampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId, VarId};

use crate::composed::{Composed, EngineName};
use crate::counters::SkipCells;
use crate::plane::{AccessEngine, AccessOutcome, ClockView, SyncCtx, SyncEngine};
use crate::{Counters, Detector, HoistedDecider, RaceReport};

/// A thread-safe façade that lets concurrently running application
/// threads feed events to a streaming [`Detector`] — the role
/// ThreadSanitizer's runtime plays for an instrumented process.
///
/// Events are globally ordered by their arrival at the internal mutex;
/// that order *is* the analyzed trace order, exactly as TSan's shadow
/// memory serializes the analysis of racing accesses. The mutex also
/// models the analysis serialization cost that the paper's Fig. 5
/// measures: the longer an engine's handlers run, the more the
/// application's own lock contention is amplified.
///
/// Callers use the operation shorthands ([`read`](OnlineDetector::read),
/// [`acquire`](OnlineDetector::acquire), …) from any thread, then call
/// [`finish`](OnlineDetector::finish) to retrieve the detector and
/// reports.
///
/// # The lock-free skip path
///
/// Every detector exposes a
/// [`hoisted_decider`](Detector::hoisted_decider), so access events draw
/// their ticket from a plain atomic `fetch_add` *outside* the mutex,
/// the (pure) sampling decision is computed immediately, and
/// sampled-out accesses return after a striped atomic counter bump —
/// they never contend on the analysis mutex at all. This is sound
/// because a skipped access mutates no detector state: processing it in
/// any order relative to other events yields the same verdicts and, via
/// [`Detector::record_skipped_accesses`] at
/// [`finish`](OnlineDetector::finish), the same [`Counters`]. Events
/// that *are* analyzed still serialize through the mutex; causally
/// ordered events keep both ticket order and processing order, since a
/// later instrumentation call draws its ticket after the earlier call
/// returned (ARCHITECTURE.md invariant 10).
///
/// # Example
///
/// ```
/// use freshtrack_core::{DjitDetector, OnlineDetector};
/// use freshtrack_sampling::AlwaysSampler;
/// use std::sync::Arc;
///
/// let online = Arc::new(OnlineDetector::new(DjitDetector::new(AlwaysSampler::new())));
/// let handles: Vec<_> = (0..2)
///     .map(|t| {
///         let online = Arc::clone(&online);
///         std::thread::spawn(move || online.write(t, 0))
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// let (_, races) = Arc::try_unwrap(online).ok().unwrap().finish();
/// assert_eq!(races.len(), 1); // the two writes race
/// ```
pub struct OnlineDetector<D> {
    inner: Mutex<Inner<D>>,
    /// Ticket counter, drawn outside any lock (invariant 10).
    next_id: AtomicU64,
    /// The hoisted sampling decision, extracted once at construction.
    decider: HoistedDecider,
    /// Tallies for accesses the skip path rejected without locking.
    skip: SkipCells,
}

impl<D: std::fmt::Debug> std::fmt::Debug for OnlineDetector<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineDetector")
            .field("inner", &self.inner)
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct Inner<D> {
    detector: D,
    reports: Vec<RaceReport>,
}

impl<D: Detector> OnlineDetector<D> {
    /// Wraps a streaming detector for concurrent use.
    pub fn new(detector: D) -> Self {
        let decider = detector.hoisted_decider();
        OnlineDetector {
            inner: Mutex::new(Inner {
                detector,
                reports: Vec::new(),
            }),
            next_id: AtomicU64::new(0),
            decider,
            skip: SkipCells::new(),
        }
    }

    /// Pre-sizes the wrapped detector's per-thread state for `n`
    /// application threads, so the event hot path never pays a clock
    /// grow (and its reallocation) while the serialization mutex is
    /// held. Call once before the workers start.
    pub fn reserve_threads(&self, n: usize) {
        self.inner
            .lock()
            .expect("detector mutex poisoned")
            .detector
            .reserve_threads(n);
    }

    /// Feeds one event; returns `true` if it was reported as racing.
    ///
    /// Sampled-out accesses take the lock-free skip path: ticket,
    /// decision, one striped counter bump — no mutex.
    pub fn on_event(&self, tid: u32, kind: EventKind) -> bool {
        let id = EventId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let event = Event::new(ThreadId::new(tid), kind);
        // Accesses are decided here — once, outside the lock — and
        // admitted ones go through `process_admitted` so the detector
        // never re-derives the verdict under the mutex.
        let admitted = match kind {
            EventKind::Read(_) => {
                if !(self.decider)(id, event) {
                    self.skip.bump_read(tid);
                    return false;
                }
                true
            }
            EventKind::Write(_) => {
                if !(self.decider)(id, event) {
                    self.skip.bump_write(tid);
                    return false;
                }
                true
            }
            EventKind::Acquire(_) | EventKind::Release(_) => false,
        };
        let mut inner = self.inner.lock().expect("detector mutex poisoned");
        let report = if admitted {
            inner.detector.process_admitted(id, event)
        } else {
            inner.detector.process(id, event)
        };
        if let Some(report) = report {
            inner.reports.push(report);
            true
        } else {
            false
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

    /// Drains a streaming [`EventSource`](freshtrack_trace::EventSource)
    /// through the façade, one event per mutex acquisition, returning
    /// the number of events fed — the façade twin of
    /// [`Detector::run_source`], for replaying a recorded trace into a
    /// *live* online detector (e.g. warming one up with a corpus
    /// prefix before application threads attach) without
    /// materializing it.
    ///
    /// Ticket order equals stream order when a single feeder drains
    /// the source, so the reports accumulated by
    /// [`finish`](OnlineDetector::finish) match what
    /// [`Detector::run_source`] would produce over the same stream
    /// (`feed_source_matches_run_source` pins this). Offline
    /// consumers that own their detector — the CLI `analyze` path,
    /// `rapid::run_engine_source` — use `run_source` directly.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports; events fed before
    /// the error remain processed.
    pub fn feed_source(
        &self,
        source: &mut dyn freshtrack_trace::EventSource,
    ) -> Result<u64, freshtrack_trace::SourceError> {
        let mut fed = 0;
        while let Some(event) = source.next_event()? {
            self.on_event(event.tid.as_u32(), event.kind);
            fed += 1;
        }
        Ok(fed)
    }

    /// Number of events ticketed so far (skip-path accesses included).
    pub fn events_processed(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Races reported so far.
    pub fn race_count(&self) -> usize {
        self.inner
            .lock()
            .expect("detector mutex poisoned")
            .reports
            .len()
    }

    /// Consumes the façade, returning the detector and all reports.
    ///
    /// Reports are **strictly sorted by racing [`EventId`]**. Tickets
    /// are drawn outside the mutex, so two *concurrent* analyzed events
    /// can reach the mutex out of ticket order (causally ordered ones
    /// cannot — see invariant 10); the final sort restores the
    /// deterministic order
    /// [`ShardedOnlineDetector::finish`](crate::ShardedOnlineDetector::finish)
    /// produces by merging, which keeps the two ingestion paths
    /// directly comparable. Accesses the skip path rejected are folded
    /// into the detector's [`Counters`] here, bit-exactly with inline
    /// processing.
    pub fn finish(self) -> (D, Vec<RaceReport>) {
        let mut inner = self.inner.into_inner().expect("detector mutex poisoned");
        let (reads, writes) = self.skip.totals();
        inner.detector.record_skipped_accesses(reads, writes);
        inner.reports.sort_unstable_by_key(|r| r.event);
        debug_assert!(
            inner.reports.windows(2).all(|w| w[0].event < w[1].event),
            "reports must stay strictly sorted by EventId"
        );
        (inner.detector, inner.reports)
    }
}

/// The "Empty-TSan" baseline: a detector that observes events (paying
/// the instrumentation/serialization cost) but performs no analysis.
///
/// Used to separate instrumentation overhead from *algorithmic* overhead
/// — the paper's `AO(S) = latency(S) − latency(ET)`. It is the
/// [`Composed`] of two stateless halves: ET analyzes nothing, so every
/// access is sampled-out and the instrumentation-only baseline rides the
/// same lock-free skip path real samplers do.
pub type EmptyDetector = Composed<EmptySyncEngine, EmptyAccessEngine>;

impl EmptyDetector {
    /// Creates the no-op detector.
    pub fn new() -> Self {
        EmptyDetector::default()
    }
}

impl EngineName for EmptyDetector {
    const NAME: &'static str = "ET";
}

/// The (stateless) sync-plane half of [`EmptyDetector`]: counts
/// acquire/release observations, touches no clocks. Its tables hold
/// zero-sized states and never allocate.
#[derive(Clone, Debug, Default)]
pub struct EmptySyncEngine {
    threads: Vec<()>,
    locks: Vec<()>,
}

impl SyncEngine for EmptySyncEngine {
    type View = ();
    type Thread = ();
    type Lock = ();
    type Options = ();

    const READS_REL_AFTER_S: bool = false;

    fn from_options(_: ()) -> Self {
        EmptySyncEngine::default()
    }

    fn options(&self) {}

    fn tables(&mut self) -> (&mut Vec<()>, &mut Vec<()>) {
        (&mut self.threads, &mut self.locks)
    }

    fn new_thread(_tid: ThreadId) {}

    fn acquire_at(_tid: ThreadId, _: &mut (), _: &mut (), ctx: &mut SyncCtx<'_, ()>) {
        ctx.counters.acquires += 1;
    }

    fn release_at(
        _tid: ThreadId,
        _: &mut (),
        _: &mut (),
        _sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        ctx.counters.releases += 1;
    }

    fn release_join_at(
        _tid: ThreadId,
        _: &mut (),
        _: &mut (),
        _sampled_since_release: bool,
        ctx: &mut SyncCtx<'_, ()>,
    ) {
        ctx.counters.releases += 1;
    }

    fn thread_view(_tid: ThreadId, _: &()) -> impl ClockView {}

    fn publish_at(_tid: ThreadId, _: &mut ()) {}

    fn reserve_at(_: &mut (), _n: usize) {}
}

/// The (stateless) access-plane half of [`EmptyDetector`]: counts
/// read/write observations, analyzes nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmptyAccessEngine;

impl AccessEngine for EmptyAccessEngine {
    type Sampler = NeverSampler;

    fn sampler(&self) -> &NeverSampler {
        &NeverSampler
    }

    fn access_sampled<W: ClockView>(
        &mut self,
        _id: EventId,
        _event: Event,
        _view: &W,
        _counters: &mut Counters,
    ) -> AccessOutcome {
        unreachable!("EmptyAccessEngine never admits an access")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderedListDetector;
    use freshtrack_sampling::AlwaysSampler;
    use std::sync::Arc;

    #[test]
    fn serializes_concurrent_events() {
        let online = Arc::new(OnlineDetector::new(OrderedListDetector::new(
            AlwaysSampler::new(),
        )));
        // Real instrumentation reports acquire/release while actually
        // holding the application lock; model that with a real mutex so
        // the emitted event stream obeys the locking discipline.
        let app_lock = Arc::new(Mutex::new(()));
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let online = Arc::clone(&online);
                let app_lock = Arc::clone(&app_lock);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let guard = app_lock.lock().unwrap();
                        online.acquire(t, 0);
                        online.write(t, i % 3);
                        online.release(t, 0);
                        drop(guard);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(online.events_processed(), 4 * 100 * 3);
        let (detector, races) = Arc::try_unwrap(online).ok().unwrap().finish();
        // All accesses are lock-protected: no races.
        assert!(races.is_empty());
        assert_eq!(detector.counters().events, 1200);
    }

    #[test]
    fn feed_source_matches_run_source() {
        use crate::{Detector, DjitDetector};
        use freshtrack_trace::EventReader;
        let text = "T0|acq(l)\nT0|w(x)\nT0|rel(l)\nT1|w(x)\nT0|w(x)\nbogus\n";
        let good = &text[..text.len() - "bogus\n".len()];

        let online = OnlineDetector::new(DjitDetector::new(AlwaysSampler::new()));
        let fed = online
            .feed_source(&mut EventReader::new(good.as_bytes()))
            .unwrap();
        assert_eq!(fed, 5);
        let (detector, online_reports) = online.finish();
        assert_eq!(detector.counters().events, 5);

        let batch_reports = DjitDetector::new(AlwaysSampler::new())
            .run_source(&mut EventReader::new(good.as_bytes()))
            .unwrap();
        assert_eq!(online_reports, batch_reports);
        assert!(!online_reports.is_empty());

        // Errors propagate; events before the error stay processed.
        let online = OnlineDetector::new(DjitDetector::new(AlwaysSampler::new()));
        let err = online
            .feed_source(&mut EventReader::new(text.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("line 6"), "{err}");
        assert_eq!(online.events_processed(), 5);
    }

    #[test]
    fn empty_detector_only_counts() {
        let online = OnlineDetector::new(EmptyDetector::new());
        online.write(0, 0);
        online.write(1, 0);
        assert_eq!(online.race_count(), 0);
        let (d, races) = online.finish();
        assert!(races.is_empty());
        assert_eq!(d.counters().writes, 2);
    }
}
