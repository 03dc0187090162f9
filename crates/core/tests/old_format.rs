//! Compatibility pin for `.ftb` v2 files whose writer stored a
//! per-segment sync-plane checkpoint (a `0xF4` block before every
//! segment but the first) and pointed each footer entry at it.
//!
//! The fixture under `crates/trace/tests/fixtures/` is such a file
//! (404 events in 5 segments of 100), next to the text trace it was
//! converted from. Whatever the current writer emits, a file of that
//! shape must keep opening, verifying, streaming, converting and
//! analyzing exactly like its text twin.

use std::io::Cursor;

use freshtrack_core::{
    analyze_segments, AccessCheckpoint, CheckpointState, FastTrackDetector, OrderedListDetector,
    SplitDetector,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::{
    read_trace, read_trace_binary, write_source_binary, BinaryEventReader, EventReader,
    SegmentedTraceFile, Trace,
};

const OLD_V2: &[u8] = include_bytes!("../../trace/tests/fixtures/checkpointed_v2.ftb");
const TEXT: &str = include_str!("../../trace/tests/fixtures/checkpointed_v2.trace");

fn text_trace() -> Trace {
    read_trace(TEXT).expect("fixture text parses")
}

#[test]
fn the_fixture_opens_verifies_and_carries_checkpoint_blocks() {
    let mut file = SegmentedTraceFile::open(Cursor::new(OLD_V2)).expect("old v2 file opens");
    assert!(file.segment_count() >= 3);
    assert_eq!(file.event_count(), text_trace().len() as u64);
    file.verify().expect("old v2 file verifies");
    // Each later segment's `0xF3 <index>` marker does not follow the
    // previous record range directly: a checkpoint block sits between.
    for k in 1..file.segment_count() {
        let (prev, meta) = (file.meta(k - 1), file.meta(k));
        assert!(
            meta.offset > prev.offset + prev.byte_len + 2,
            "segment {k} has no block before it"
        );
    }
}

#[test]
fn the_fixture_streams_the_text_twin() {
    let expected = text_trace();
    let back = read_trace_binary(OLD_V2).expect("old v2 file streams");
    assert_eq!(back.events(), expected.events());
    assert_eq!(back.thread_count(), expected.thread_count());
    let names = |t: &Trace| {
        let locks: Vec<String> = (0..t.lock_count()).map(|i| t.lock_name(i).into()).collect();
        let vars: Vec<String> = (0..t.var_count()).map(|i| t.var_name(i).into()).collect();
        (locks, vars)
    };
    assert_eq!(names(&back), names(&expected));
}

#[test]
fn the_fixture_converts_to_the_text_twins_v1_bytes() {
    let mut from_v2 = Vec::new();
    write_source_binary(
        &mut BinaryEventReader::new(OLD_V2).expect("old v2 magic"),
        &mut from_v2,
    )
    .expect("old v2 file converts");
    let mut from_text = Vec::new();
    write_source_binary(&mut EventReader::new(TEXT.as_bytes()), &mut from_text)
        .expect("text twin converts");
    assert_eq!(from_v2, from_text);
}

/// `analyze_segments` over the fixture at jobs 1 and 2 returns the
/// reports and counters of `Detector::run` over the text twin.
fn assert_analyzes_like_text<D>(engine: &str, detector: &D, sampler: &BernoulliSampler)
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
{
    let mut sequential = detector.clone();
    let reports = sequential.run(&text_trace());
    for jobs in [1, 2] {
        let mut file = SegmentedTraceFile::open(Cursor::new(OLD_V2)).expect("old v2 file opens");
        let analysis = analyze_segments(&mut file, detector, sampler, jobs).expect("analyzes");
        assert_eq!(analysis.reports, reports, "{engine} jobs {jobs}");
        assert_eq!(
            &analysis.counters,
            sequential.counters(),
            "{engine} jobs {jobs}"
        );
    }
}

#[test]
fn the_fixture_analyzes_like_the_text_twin() {
    for rate in [0.03, 1.0] {
        let sampler = BernoulliSampler::new(rate, 5);
        assert_analyzes_like_text(
            &format!("so@{rate}"),
            &OrderedListDetector::new(sampler),
            &sampler,
        );
        assert_analyzes_like_text(
            &format!("ft@{rate}"),
            &FastTrackDetector::new(sampler),
            &sampler,
        );
    }
}
