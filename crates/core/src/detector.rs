use freshtrack_trace::{Event, EventId, EventSource, SourceError, Trace};

use crate::{Counters, RaceReport};

/// A sampling decision extracted from a detector, callable from any
/// thread without holding the detector's lock — see
/// [`Detector::hoisted_decider`]. Its arguments are the access's
/// ordinal among its thread's accesses and the access.
pub type HoistedDecider = Box<dyn Fn(u64, Event) -> bool + Send + Sync>;

/// A streaming happens-before race detector.
///
/// Detectors consume one event at a time in trace order, mirroring the
/// callback structure of online tools like ThreadSanitizer. [`run`]
/// drives a whole [`Trace`] through the detector and collects the
/// reports.
///
/// The event loop has a natural seam between synchronization handling
/// (thread/lock clocks — global state) and access handling
/// (per-variable histories — partitionable state). Djit+, FastTrack,
/// SU, SO and ET are each the one generic
/// [`Composed`](crate::Composed) detector over their two halves, which
/// implements this trait once and also
/// [`SplitDetector`](crate::SplitDetector) — how
/// [`ShardedOnlineDetector`](crate::ShardedOnlineDetector) distributes
/// the same halves across per-object sync slots and many access
/// shards. The Algorithm 2 reference the differential suites pin
/// against, [`NaiveSamplingDetector`](crate::NaiveSamplingDetector), is
/// the one detector written by hand.
///
/// [`run`]: Detector::run
pub trait Detector {
    /// Processes one event; returns a report if the event races with the
    /// recorded access history.
    fn process(&mut self, id: EventId, event: Event) -> Option<RaceReport>;

    /// Like [`process`](Detector::process), but for an **access event
    /// the caller has already admitted** into the sample set — the
    /// online façades admit by this detector's
    /// [`hoisted_decider`](Detector::hoisted_decider), outside their
    /// locks, and number each admitted access by its rank among the
    /// sampled ones. The engine analyzes the access without deciding
    /// again and uses `id` only as its report's id.
    ///
    /// Every detector implements it with the post-decision body of
    /// [`process`](Detector::process). Sync events must go through
    /// [`process`](Detector::process).
    fn process_admitted(&mut self, id: EventId, event: Event) -> Option<RaceReport>;

    /// The work counters accumulated so far.
    fn counters(&self) -> &Counters;

    /// A short engine name (`"Djit+"`, `"SU"`, `"SO"`, …) for reports.
    fn name(&self) -> &'static str;

    /// Pre-sizes clock state for `n` threads, like ThreadSanitizer's
    /// fixed-width (256-entry) vector clocks.
    ///
    /// Without reservation, clocks grow lazily with the highest thread
    /// id observed, which under-states the `O(T)` cost real sanitizers
    /// pay per synchronization event. Online experiments call this with
    /// the sanitizer's configured width; it never changes verdicts.
    fn reserve_threads(&mut self, _n: usize) {}

    /// Extracts this detector's *online* sampling decision: its
    /// sampler's per-thread rule
    /// ([`Sampler::decide_in_thread`](freshtrack_sampling::Sampler::decide_in_thread)),
    /// a pure function of the access's ordinal within its thread and
    /// the access.
    ///
    /// The online façades use it to reject sampled-out accesses
    /// *before* taking any lock — the skip path (ARCHITECTURE.md
    /// invariant 10) — and analyze the admitted ones through
    /// [`process_admitted`](Detector::process_admitted). A skipped
    /// access mutates no clock or history, so the façade's run equals
    /// [`run`](Detector::run) over the same events with a sampler that
    /// picks the same accesses by position (the differential suites'
    /// reference). [`process`](Detector::process) itself decides by
    /// trace position, the offline rule.
    fn hoisted_decider(&self) -> HoistedDecider;

    /// Folds accesses that a façade skipped without calling
    /// [`process`](Detector::process) back into this detector's
    /// [`counters`](Detector::counters): `reads`/`writes` sampled-out
    /// accesses must bump the read/write/event tallies exactly as the
    /// inline skip path would have.
    fn record_skipped_accesses(&mut self, reads: u64, writes: u64);

    /// Runs the detector over a streaming [`EventSource`], returning all
    /// reports — the primary analysis loop; detectors never require a
    /// materialized trace.
    ///
    /// Events are numbered by stream position ([`EventId`] = position),
    /// so analyzing a trace file streamed from disk and analyzing the
    /// same trace materialized produce identical reports. Reports are
    /// **strictly sorted by racing [`EventId`]**: events are processed
    /// in stream order, a report's `event` field is the event being
    /// processed, and each event yields at most one report. The sharded
    /// ingestion merge
    /// ([`ShardedOnlineDetector::finish`](crate::ShardedOnlineDetector::finish))
    /// and the differential suites both rely on this order being
    /// deterministic; `crates/core/tests/sharding.rs` has the
    /// regression test.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports (reports gathered
    /// up to that point are dropped with it — a partial analysis of a
    /// malformed input is not a verdict).
    fn run_source(&mut self, source: &mut dyn EventSource) -> Result<Vec<RaceReport>, SourceError> {
        self.run_source_from(source, 0)
    }

    /// Like [`run_source`](Detector::run_source), but numbers the
    /// source's first event `first_id` instead of `0` — the resume entry
    /// point for checkpointed analysis: restore detector state with
    /// [`CheckpointState::import_state`](crate::CheckpointState::import_state),
    /// then continue from a segment's event range as if the stream had
    /// never been interrupted.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports, exactly as
    /// [`run_source`](Detector::run_source) does.
    fn run_source_from(
        &mut self,
        source: &mut dyn EventSource,
        first_id: u64,
    ) -> Result<Vec<RaceReport>, SourceError> {
        let mut reports: Vec<RaceReport> = Vec::new();
        let mut next_id: u64 = first_id;
        while let Some(event) = source.next_event()? {
            let id = EventId::new(next_id);
            next_id += 1;
            if let Some(report) = self.process(id, event) {
                debug_assert!(
                    reports
                        .last()
                        .map_or(true, |prev| prev.event < report.event),
                    "reports must stay sorted by EventId"
                );
                reports.push(report);
            }
        }
        Ok(reports)
    }

    /// Runs the detector over a complete trace, returning all reports.
    ///
    /// A thin wrapper over [`run_source`](Detector::run_source) driving
    /// the trace's [`EventSource`] view; the two paths are the same loop
    /// by construction.
    fn run(&mut self, trace: &Trace) -> Vec<RaceReport> {
        self.run_source(&mut trace.source())
            .expect("materialized traces never fail to stream")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DjitDetector;
    use freshtrack_sampling::AlwaysSampler;
    use freshtrack_trace::TraceBuilder;

    #[test]
    fn run_source_matches_run_over_a_streamed_text_trace() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.write(1, x);
        b.write(0, x);
        let trace = b.build();
        let text = freshtrack_trace::write_trace(&trace);

        let materialized = DjitDetector::new(AlwaysSampler::new()).run(&trace);
        let mut reader = freshtrack_trace::EventReader::new(text.as_bytes());
        let streamed = DjitDetector::new(AlwaysSampler::new())
            .run_source(&mut reader)
            .unwrap();
        assert_eq!(materialized, streamed);
        assert!(!streamed.is_empty());
    }

    #[test]
    fn run_source_propagates_parse_errors() {
        let mut reader = freshtrack_trace::EventReader::new(&b"T0|w(x)\nbogus\n"[..]);
        let err = DjitDetector::new(AlwaysSampler::new())
            .run_source(&mut reader)
            .unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn run_collects_reports_in_order() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        b.write(0, x).write(0, y);
        b.write(1, x).write(1, y);
        let trace = b.build();
        let mut d = DjitDetector::new(AlwaysSampler::new());
        let reports = d.run(&trace);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].event < reports[1].event);
    }
}
