use std::sync::Mutex;

use freshtrack_clock::ThreadId;
use freshtrack_sampling::NeverSampler;
use freshtrack_trace::{Event, EventId, EventKind, LockId, VarId};

use crate::composed::{Composed, EngineName};
use crate::plane::{AccessEngine, AccessOutcome, ClockView, SyncCtx, SyncEngine};
use crate::slots::{AccessCell, Padded, Slots};
use crate::{Counters, Detector, HoistedDecider, RaceReport};

/// A thread-safe façade that lets concurrently running application
/// threads feed events to a streaming [`Detector`] — the role
/// ThreadSanitizer's runtime plays for an instrumented process.
///
/// Analyzed events are globally ordered by their arrival at the
/// internal mutex; that order *is* the analyzed trace order, exactly as
/// TSan's shadow memory serializes the analysis of racing accesses. The
/// mutex also models the analysis serialization cost that the paper's
/// Fig. 5 measures: the longer an engine's handlers run, the more the
/// application's own lock contention is amplified.
///
/// Callers use the operation shorthands ([`read`](OnlineDetector::read),
/// [`acquire`](OnlineDetector::acquire), …) from any thread, then call
/// [`finish`](OnlineDetector::finish) to retrieve the detector and
/// reports.
///
/// # The sample set and the skip path
///
/// An access is decided by the detector's
/// [`hoisted_decider`](Detector::hoisted_decider) — the sampler's
/// per-thread rule ([`Sampler::decide_in_thread`]) on the access's
/// *ordinal*, the number of accesses its thread issued before it — so
/// the sample set depends on each thread's program, not on how the
/// threads interleave. The ordinal lives in the thread's own access
/// cell, which only that thread's events write (a relaxed load and
/// store). A sampled-out access tallies itself in the same cell and
/// returns: it takes no mutex and writes no line another thread writes.
/// Its tallies are folded into the detector's [`Counters`] at
/// [`finish`](OnlineDetector::finish)
/// ([`Detector::record_skipped_accesses`]), bit-exactly with inline
/// processing.
///
/// A sampled access takes the mutex and is numbered there: its
/// [`EventId`] is its rank among the sampled accesses, in mutex order,
/// and is the id its report carries. Sync events take the mutex and
/// draw no number. Causally ordered sampled accesses keep their order,
/// since a later instrumentation call starts after the earlier call
/// returned (ARCHITECTURE.md invariant 10).
///
/// Each thread id's events must come from one thread at a time, as
/// every real instrumentation source issues them: a thread's events
/// *are* its program order, and the ordinal counts it.
///
/// [`Sampler::decide_in_thread`]: freshtrack_sampling::Sampler::decide_in_thread
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
    /// The hoisted sampling decision, extracted once at construction.
    decider: HoistedDecider,
    /// One access cell per thread id (see the skip-path docs).
    cells: Slots<Padded<AccessCell>>,
}

impl<D: std::fmt::Debug> std::fmt::Debug for OnlineDetector<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineDetector")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct Inner<D> {
    detector: D,
    reports: Vec<RaceReport>,
    /// Ids drawn so far: one per sampled access.
    tickets: u64,
}

impl<D: Detector> OnlineDetector<D> {
    /// Wraps a streaming detector for concurrent use.
    pub fn new(detector: D) -> Self {
        let decider = detector.hoisted_decider();
        OnlineDetector {
            inner: Mutex::new(Inner {
                detector,
                reports: Vec::new(),
                tickets: 0,
            }),
            decider,
            cells: Slots::new(),
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
    /// Sampled-out accesses take the skip path: ordinal, decision, one
    /// tally in the thread's own cell — no mutex.
    pub fn on_event(&self, tid: u32, kind: EventKind) -> bool {
        let event = Event::new(ThreadId::new(tid), kind);
        // Accesses are decided here — once, outside the lock — and
        // admitted ones go through `process_admitted` so the detector
        // never re-derives the verdict under the mutex.
        let admitted = match kind {
            EventKind::Read(_) | EventKind::Write(_) => {
                let cell = &self
                    .cells
                    .get(tid as usize, |_| Padded(AccessCell::default()))
                    .0;
                let ordinal = cell
                    .next_ordinal()
                    .expect("OnlineDetector never lends a cell");
                if !(self.decider)(ordinal, event) {
                    cell.skip(kind);
                    return false;
                }
                true
            }
            EventKind::Acquire(_) | EventKind::Release(_) => false,
        };
        let mut inner = self.inner.lock().expect("detector mutex poisoned");
        // A sync event is numbered like the next sampled access but
        // consumes no number: the engines never read a sync event's id.
        let id = EventId::new(inner.tickets);
        let report = if admitted {
            inner.tickets += 1;
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
    /// through the façade, one event per call, returning the number of
    /// events fed — the façade twin of [`Detector::run_source`], for
    /// replaying a recorded trace into a *live* online detector (e.g.
    /// warming one up with a corpus prefix before application threads
    /// attach) without materializing it.
    ///
    /// The façade samples by the per-thread rule, so the reports
    /// accumulated by [`finish`](OnlineDetector::finish) match what
    /// [`Detector::run_source`] produces over the same stream when its
    /// sampler picks the same accesses, with each report's id mapped
    /// from its trace position to its rank among the sampled accesses
    /// (`feed_source_matches_run_source` pins this). Offline consumers
    /// that own their detector — the CLI `analyze` path,
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

    /// Ids drawn so far: one per sampled access, none for a sampled-out
    /// access or a sync event.
    pub fn tickets_drawn(&self) -> u64 {
        self.inner.lock().expect("detector mutex poisoned").tickets
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
    /// Reports are **strictly sorted by racing [`EventId`]**: ids are
    /// drawn under the mutex in the order accesses are analyzed, the
    /// deterministic order
    /// [`ShardedOnlineDetector::finish`](crate::ShardedOnlineDetector::finish)
    /// produces by merging, which keeps the two ingestion paths
    /// directly comparable. Accesses the skip path rejected are folded
    /// into the detector's [`Counters`] here, bit-exactly with inline
    /// processing.
    pub fn finish(self) -> (D, Vec<RaceReport>) {
        let mut inner = self.inner.into_inner().expect("detector mutex poisoned");
        let (reads, writes) = self
            .cells
            .into_built()
            .map(|cell| cell.0.skipped())
            .fold((0, 0), |(r, w), (cr, cw)| (r + cr, w + cw));
        inner.detector.record_skipped_accesses(reads, writes);
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
        // One id per sampled access; sync events draw none.
        assert_eq!(online.tickets_drawn(), 4 * 100);
        let (detector, races) = Arc::try_unwrap(online).ok().unwrap().finish();
        // All accesses are lock-protected: no races.
        assert!(races.is_empty());
        assert_eq!(detector.counters().events, 1200);
        assert_eq!(detector.counters().sampled_accesses, 400);
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

        // The reference: the same engine over the same stream with the
        // same sample set (every access, under either rule), each
        // report's trace position mapped to its rank among the sampled
        // accesses — the number the façade gives it.
        let mut reference = DjitDetector::new(AlwaysSampler::new());
        let batch_reports = reference
            .run_source(&mut EventReader::new(good.as_bytes()))
            .unwrap();
        let events: Vec<_> = EventReader::new(good.as_bytes())
            .map(|e| e.unwrap())
            .collect();
        let rank = |position: EventId| {
            let earlier = &events[..position.index()];
            EventId::new(earlier.iter().filter(|e| e.kind.var().is_some()).count() as u64)
        };
        let batch_reports: Vec<_> = batch_reports
            .into_iter()
            .map(|r| RaceReport {
                event: rank(r.event),
                ..r
            })
            .collect();
        assert_eq!(online_reports, batch_reports);
        assert_eq!(detector.counters(), reference.counters());
        assert!(!online_reports.is_empty());

        // Errors propagate; events before the error stay processed.
        let online = OnlineDetector::new(DjitDetector::new(AlwaysSampler::new()));
        let err = online
            .feed_source(&mut EventReader::new(text.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("line 6"), "{err}");
        assert_eq!(online.tickets_drawn(), 3);
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
