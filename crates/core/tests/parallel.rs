//! Differential suite for the checkpointed parallel analyzer.
//!
//! `analyze_segments` must be **byte-identical** to a sequential
//! `Detector::run` over the same trace — reports *and* every `Counters`
//! field — for every engine, sampler, segment size, and job count (the
//! number of decoder threads), and must fail with the sequential error
//! when the file or the trace is bad. This is the tentpole invariant of
//! the segmented `.ftb` v2 store: the parallel path is an optimization,
//! never a different analysis.

use std::io::Cursor;

use freshtrack_core::{
    analyze_segments, AccessCheckpoint, CheckpointState, Detector, DjitDetector, FastTrackDetector,
    FreshnessDetector, OrderedListDetector, SplitDetector,
};
use freshtrack_sampling::{
    AlwaysSampler, BernoulliSampler, NeverSampler, PeriodicSampler, Sampler, TargetedSampler,
};
use freshtrack_testutil::{trace_from_fuel, wide_workload, workload_matrix};
use freshtrack_trace::{
    write_source_binary_v2, write_trace_binary_v2, EventSource, SegmentOptions, SegmentedTraceFile,
    SourceError, Trace, TraceBuilder, Validated, VarId,
};

fn v2_bytes(trace: &Trace, events_per_segment: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace_binary_v2(trace, &mut bytes, &SegmentOptions { events_per_segment })
        .expect("in-memory v2 encode cannot fail");
    bytes
}

/// Job counts every differential check runs at; 8 exceeds the segment
/// count of the coarse layouts below (the pipeline then clamps it).
const JOBS: [usize; 4] = [1, 2, 3, 8];

/// Asserts the full equivalence contract for one (trace, engine,
/// sampler) cell across segment sizes and job counts.
fn assert_parallel_matches_sequential<D, S>(label: &str, trace: &Trace, detector: &D, sampler: &S)
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
{
    let sizes = [1, 7, 64, trace.len().max(1)];
    assert_parallel_matches_sequential_at(label, trace, detector, sampler, &sizes);
}

/// [`assert_parallel_matches_sequential`] at the given segment sizes.
fn assert_parallel_matches_sequential_at<D, S>(
    label: &str,
    trace: &Trace,
    detector: &D,
    sampler: &S,
    segment_sizes: &[usize],
) where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
{
    let mut seq = detector.clone();
    let expected_reports = seq.run(trace);
    let expected_counters = *seq.counters();

    for &events_per_segment in segment_sizes {
        let bytes = v2_bytes(trace, events_per_segment);
        for jobs in JOBS {
            let mut file = SegmentedTraceFile::open(Cursor::new(bytes.as_slice()))
                .expect("freshly written v2 file must open");
            let analysis = analyze_segments(&mut file, detector, sampler, jobs)
                .expect("well-formed traces must analyze");
            assert_eq!(
                analysis.reports, expected_reports,
                "[{label}] seg={events_per_segment} jobs={jobs}: reports diverged"
            );
            assert_eq!(
                analysis.counters, expected_counters,
                "[{label}] seg={events_per_segment} jobs={jobs}: counters diverged"
            );
            assert_eq!(
                analysis.threads as usize,
                trace.thread_count(),
                "[{label}] seg={events_per_segment} jobs={jobs}: thread count diverged"
            );
            assert_eq!(analysis.lock_names.len(), trace.lock_count());
            assert_eq!(analysis.var_names.len(), trace.var_count());
        }
    }
}

#[test]
fn parallel_matches_sequential_across_engines_and_samplers() {
    for (name, trace) in workload_matrix(300, &[1]) {
        let rate = BernoulliSampler::new(0.3, 11);
        assert_parallel_matches_sequential(
            &format!("{name}/djit/always"),
            &trace,
            &DjitDetector::new(AlwaysSampler::new()),
            &AlwaysSampler::new(),
        );
        assert_parallel_matches_sequential(
            &format!("{name}/ft/bernoulli1.0"),
            &trace,
            &FastTrackDetector::new(BernoulliSampler::new(1.0, 42)),
            &BernoulliSampler::new(1.0, 42),
        );
        assert_parallel_matches_sequential(
            &format!("{name}/su/bernoulli0.3"),
            &trace,
            &FreshnessDetector::new(rate),
            &rate,
        );
        assert_parallel_matches_sequential(
            &format!("{name}/so/bernoulli0.3"),
            &trace,
            &OrderedListDetector::new(rate),
            &rate,
        );
        assert_parallel_matches_sequential(
            &format!("{name}/so-noopt/bernoulli0.3"),
            &trace,
            &OrderedListDetector::with_options(rate, false),
            &rate,
        );
        // The decoder threads make the sampling decisions, so every
        // sampler shape must reach the coordinator unchanged: the
        // paper's 3% rate, whole sampled periods, and per-variable
        // targets.
        let paper_rate = BernoulliSampler::new(0.03, 11);
        assert_parallel_matches_sequential(
            &format!("{name}/so/bernoulli0.03"),
            &trace,
            &OrderedListDetector::new(paper_rate),
            &paper_rate,
        );
        let periodic = PeriodicSampler::new(0.3, 16, 5);
        assert_parallel_matches_sequential(
            &format!("{name}/su/periodic"),
            &trace,
            &FreshnessDetector::new(periodic),
            &periodic,
        );
        assert_parallel_matches_sequential(
            &format!("{name}/so/periodic"),
            &trace,
            &OrderedListDetector::new(periodic),
            &periodic,
        );
        let targeted = TargetedSampler::new([VarId::new(0), VarId::new(2)]);
        assert_parallel_matches_sequential(
            &format!("{name}/djit/targeted"),
            &trace,
            &DjitDetector::new(targeted.clone()),
            &targeted,
        );
        assert_parallel_matches_sequential(
            &format!("{name}/so/targeted"),
            &trace,
            &OrderedListDetector::new(targeted.clone()),
            &targeted,
        );
    }
}

#[test]
fn never_sampler_still_matches_exactly() {
    for (name, trace) in workload_matrix(200, &[3]) {
        assert_parallel_matches_sequential(
            &format!("{name}/su/never"),
            &trace,
            &FreshnessDetector::new(NeverSampler::new()),
            &NeverSampler::new(),
        );
        assert_parallel_matches_sequential(
            &format!("{name}/so/never"),
            &trace,
            &OrderedListDetector::new(NeverSampler::new()),
            &NeverSampler::new(),
        );
    }
}

#[test]
fn wide_traces_match_where_the_fast_path_hands_records_to_the_grammar() {
    // Thread ids >= 128 and operands >= 16,384 are not ordinary event
    // records, so every segment mixes the decoder's fast path with the
    // record grammar.
    let trace = wide_workload(12_000, 5);
    assert!(trace.thread_count() > 128 && trace.var_count() > 16_384);
    let rate = BernoulliSampler::new(0.03, 11);
    let full = BernoulliSampler::new(1.0, 11);
    let sizes = [512, 4096];
    assert_parallel_matches_sequential_at(
        "wide/so",
        &trace,
        &OrderedListDetector::new(rate),
        &rate,
        &sizes,
    );
    assert_parallel_matches_sequential_at(
        "wide/su",
        &trace,
        &FreshnessDetector::new(rate),
        &rate,
        &sizes,
    );
    assert_parallel_matches_sequential_at(
        "wide/st",
        &trace,
        &DjitDetector::new(rate),
        &rate,
        &sizes,
    );
    assert_parallel_matches_sequential_at(
        "wide/ft",
        &trace,
        &FastTrackDetector::new(full),
        &full,
        &sizes,
    );
}

#[test]
fn edge_shapes_match_empty_single_event_and_fewer_vars_than_jobs() {
    // Empty trace: no segments beyond the mandatory first, no reports.
    let empty = TraceBuilder::new().build();
    assert_parallel_matches_sequential(
        "empty/djit",
        &empty,
        &DjitDetector::new(AlwaysSampler::new()),
        &AlwaysSampler::new(),
    );

    // Single event; single var — one segment whatever the job count.
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    b.write(0, x);
    let single = b.build();
    assert_parallel_matches_sequential(
        "single/so",
        &single,
        &OrderedListDetector::new(AlwaysSampler::new()),
        &AlwaysSampler::new(),
    );

    // One shared var, racing writes.
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let l = b.lock("l");
    b.acquire(0, l).write(0, x).release(0, l);
    b.write(1, x);
    b.write(2, x);
    let racy = b.build();
    assert_parallel_matches_sequential(
        "one-var-racy/su",
        &racy,
        &FreshnessDetector::new(AlwaysSampler::new()),
        &AlwaysSampler::new(),
    );
}

#[test]
fn fuel_traces_match_including_forks_and_joins() {
    let fuels: [&[(u8, u8, u8)]; 3] = [
        &[(0, 0, 0), (1, 0, 1), (2, 1, 0), (0, 1, 1), (3, 0, 2)],
        &[
            (1, 1, 1),
            (1, 1, 1),
            (0, 0, 0),
            (2, 0, 3),
            (4, 2, 1),
            (0, 3, 0),
        ],
        &[
            (5, 0, 0),
            (0, 1, 4),
            (3, 2, 2),
            (1, 0, 5),
            (2, 1, 3),
            (4, 3, 1),
            (0, 2, 0),
        ],
    ];
    for (i, fuel) in fuels.iter().enumerate() {
        let trace = trace_from_fuel(fuel, 6, 4, 6);
        assert_parallel_matches_sequential(
            &format!("fuel{i}/djit"),
            &trace,
            &DjitDetector::new(BernoulliSampler::new(0.5, 9)),
            &BernoulliSampler::new(0.5, 9),
        );
        assert_parallel_matches_sequential(
            &format!("fuel{i}/so"),
            &trace,
            &OrderedListDetector::new(BernoulliSampler::new(0.5, 9)),
            &BernoulliSampler::new(0.5, 9),
        );
    }
}

#[test]
fn discipline_violations_error_identically_to_the_sequential_path() {
    // A release without a matching acquire: the sequential path rejects
    // it through `Validated`; the parallel coordinator must produce the
    // same error even though the events live in different segments.
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let l = b.lock("l");
    b.acquire(0, l).write(0, x).release(0, l);
    b.release(1, l);
    b.write(1, x);
    let trace = b.build();

    let sequential_err = DjitDetector::new(AlwaysSampler::new())
        .run_source(&mut Validated::new(trace.source()))
        .expect_err("double release must be rejected");

    for events_per_segment in [1, 2, 16] {
        let bytes = v2_bytes(&trace, events_per_segment);
        for jobs in JOBS {
            let mut file = SegmentedTraceFile::open(Cursor::new(bytes.as_slice())).unwrap();
            let err = analyze_segments(
                &mut file,
                &DjitDetector::new(AlwaysSampler::new()),
                &AlwaysSampler::new(),
                jobs,
            )
            .expect_err("parallel path must reject the same trace");
            assert!(matches!(err, SourceError::Discipline(_)), "{err}");
            assert_eq!(
                err.to_string(),
                sequential_err.to_string(),
                "seg={events_per_segment} jobs={jobs}"
            );
        }
    }
}

/// Flips one byte in the middle of each listed segment's records; the
/// footer is untouched, so the file still opens and only the segment
/// checksums catch it.
fn corrupt_segments(bytes: &[u8], segments: &[usize]) -> Vec<u8> {
    let file = SegmentedTraceFile::open(Cursor::new(bytes)).unwrap();
    let mut corrupt = bytes.to_vec();
    for &k in segments {
        let meta = file.meta(k);
        corrupt[meta.offset as usize + meta.byte_len as usize / 2] ^= 0x41;
    }
    corrupt
}

fn analyze_err(bytes: &[u8], jobs: usize) -> SourceError {
    let mut file = SegmentedTraceFile::open(Cursor::new(bytes))
        .expect("the footer is intact, so the file still opens");
    analyze_segments(
        &mut file,
        &DjitDetector::new(AlwaysSampler::new()),
        &AlwaysSampler::new(),
        jobs,
    )
    .expect_err("the parallel path must reject the file")
}

#[test]
fn corrupt_segment_bytes_are_a_clean_error() {
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    for t in 0..3 {
        b.write(t, x);
    }
    let trace = b.build();
    let corrupt = corrupt_segments(&v2_bytes(&trace, 1), &[1]);
    for jobs in JOBS {
        let err = analyze_err(&corrupt, jobs);
        assert!(matches!(err, SourceError::Binary(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }
}

#[test]
fn the_first_corrupt_segment_in_stream_order_wins_at_every_job_count() {
    // Segments 2 and 3 land on different decoders at every job count
    // above 1, so the later one may fail first; the reported error must
    // still be segment 2's, exactly as a sequential walk of the file
    // reports it (index, start offset and reason).
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let l = b.lock("l");
    for t in 0..4 {
        b.acquire(t, l).write(t, x).release(t, l);
    }
    let corrupt = corrupt_segments(&v2_bytes(&b.build(), 2), &[2, 3]);
    let sequential = SegmentedTraceFile::open(Cursor::new(corrupt.as_slice()))
        .unwrap()
        .verify()
        .expect_err("a sequential walk must hit segment 2");
    let expected = SourceError::Binary(sequential).to_string();
    assert!(expected.contains("segment 2 (starts at byte"), "{expected}");
    for jobs in JOBS {
        assert_eq!(
            analyze_err(&corrupt, jobs).to_string(),
            expected,
            "jobs={jobs}"
        );
    }
}

#[test]
fn a_discipline_violation_before_a_corrupt_segment_wins() {
    // Segment 1 (events 2..4) releases a lock its thread does not
    // hold; segment 2 is corrupt and may be decoded first. The
    // sequential path reports the violation, so every job count must.
    let mut b = TraceBuilder::new();
    let x = b.var("x");
    let l = b.lock("l");
    b.acquire(0, l).write(0, x);
    b.write(1, x).release(1, l);
    for t in 0..4 {
        b.write(t, x);
    }
    let trace = b.build();
    let sequential_err = DjitDetector::new(AlwaysSampler::new())
        .run_source(&mut Validated::new(trace.source()))
        .expect_err("a release by a non-holder must be rejected");
    let corrupt = corrupt_segments(&v2_bytes(&trace, 2), &[2]);
    for jobs in JOBS {
        let err = analyze_err(&corrupt, jobs);
        assert!(matches!(err, SourceError::Discipline(_)), "{err}");
        assert_eq!(err.to_string(), sequential_err.to_string(), "jobs={jobs}");
    }
}

/// A pathological source whose name table aliases every variable to the
/// same display name — each new variable re-defines `"x"`, so the
/// second segment's delta collides with the first's.
struct AliasedVarNames {
    events: Vec<freshtrack_trace::Event>,
    pos: usize,
    vars: usize,
}

impl EventSource for AliasedVarNames {
    fn next_event(&mut self) -> Result<Option<freshtrack_trace::Event>, SourceError> {
        let event = self.events.get(self.pos).copied();
        if let Some(event) = event {
            self.pos += 1;
            if let freshtrack_trace::EventKind::Read(v) | freshtrack_trace::EventKind::Write(v) =
                event.kind
            {
                self.vars = self.vars.max(v.index() + 1);
            }
        }
        Ok(event)
    }

    fn declared_threads(&self) -> u32 {
        0
    }

    fn observed_threads(&self) -> u32 {
        self.events
            .iter()
            .take(self.pos)
            .map(|e| e.tid.index() as u32 + 1)
            .max()
            .unwrap_or(0)
    }

    fn lock_count(&self) -> usize {
        0
    }

    fn var_count(&self) -> usize {
        self.vars
    }

    fn lock_name(&self, _index: usize) -> &str {
        unreachable!("the aliased source defines no locks")
    }

    fn var_name(&self, _index: usize) -> &str {
        "x"
    }
}

#[test]
fn duplicate_names_across_segments_are_rejected() {
    use freshtrack_trace::{Event, EventKind, ThreadId, VarId};
    let mut source = AliasedVarNames {
        events: vec![
            Event {
                tid: ThreadId::new(0),
                kind: EventKind::Write(VarId::new(0)),
            },
            Event {
                tid: ThreadId::new(0),
                kind: EventKind::Write(VarId::new(1)),
            },
        ],
        pos: 0,
        vars: 0,
    };
    let mut bytes = Vec::new();
    write_source_binary_v2(
        &mut source,
        &mut bytes,
        &SegmentOptions {
            events_per_segment: 1,
        },
    )
    .expect("the writer serializes whatever names the source reports");

    for jobs in JOBS {
        let err = analyze_err(&bytes, jobs);
        assert!(
            err.to_string()
                .contains("duplicate definition of var \"x\""),
            "jobs={jobs}: {err}"
        );
    }
}
