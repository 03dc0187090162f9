//! Golden pins for the monolithic detectors: for Djit+, FastTrack, SU
//! and SO (with and without the local-epoch optimization) at rates 0.03
//! and 1.0 over two fixed generated traces, the exact `export_state`
//! bytes (mid-stream and at the end, as one digest), every `Counters`
//! field and the reports; plus `EmptyDetector`'s counters.
//!
//! The other suites compare engines with each other or with a resumed
//! copy of themselves, so a change that moves every engine the same way
//! — a different view width recorded in the access-checkpoint header,
//! `RelAfter_S` bits written into a Djit+/FT checkpoint, a counter
//! accounted twice — passes them. These constants do not move unless a
//! checkpoint byte, a counter or a report does.

use freshtrack_core::{
    CheckpointState, Counters, Detector, DjitDetector, EmptyDetector, FastTrackDetector,
    FreshnessDetector, OrderedListDetector,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_testutil::{conformance_workload, wide_workload};
use freshtrack_trace::Trace;
use freshtrack_workloads::Pattern;

/// 64-bit FNV-1a: a stable digest with no dependency.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fields(c: &Counters) -> [u64; 18] {
    [
        c.events,
        c.reads,
        c.writes,
        c.sampled_accesses,
        c.acquires,
        c.releases,
        c.acquires_skipped,
        c.acquires_processed,
        c.releases_skipped,
        c.releases_processed,
        c.shallow_copies,
        c.deep_copies,
        c.local_increments,
        c.entries_traversed,
        c.entries_saved,
        c.vc_ops,
        c.race_checks,
        c.races,
    ]
}

fn traces() -> [(&'static str, Trace); 2] {
    [
        ("mixed", conformance_workload(Pattern::Mixed, 7, 3_000)),
        ("wide", wide_workload(4_000, 11)),
    ]
}

/// One golden line: engine, rate, trace, state digest, report count
/// and digest, counters.
fn pin<D: Detector + CheckpointState>(mut d: D, rate: f64, label: &str, trace: &Trace) -> String {
    let mut state = Vec::new();
    let mut reports = Vec::new();
    for (id, event) in trace.iter() {
        reports.extend(d.process(id, event));
        if id.index() == trace.len() / 2 {
            d.export_state(&mut state);
        }
    }
    d.export_state(&mut state);
    format!(
        "{} {rate} {label} state={:016x} reports={}/{:016x} counters={:?}",
        d.name(),
        fnv(&state),
        reports.len(),
        fnv(format!("{reports:?}").as_bytes()),
        fields(d.counters()),
    )
}

fn actual() -> Vec<String> {
    let mut lines = Vec::new();
    for (label, trace) in &traces() {
        for rate in [0.03, 1.0] {
            let s = BernoulliSampler::new(rate, 5);
            lines.push(pin(DjitDetector::new(s), rate, label, trace));
            lines.push(pin(FastTrackDetector::new(s), rate, label, trace));
            lines.push(pin(FreshnessDetector::new(s), rate, label, trace));
            lines.push(pin(OrderedListDetector::new(s), rate, label, trace));
            lines.push(pin(
                OrderedListDetector::with_options(s, false),
                rate,
                label,
                trace,
            ));
        }
        let mut et = EmptyDetector::new();
        et.run(trace);
        lines.push(format!(
            "{} {label} counters={:?}",
            et.name(),
            fields(et.counters())
        ));
    }
    lines
}

const GOLDEN: &[&str] = &[
    "Djit+ 0.03 mixed state=675c7e1c6802e6b7 reports=7/86f819f6a53ec765 counters=[3003, 1645, 748, 59, 305, 305, 0, 305, 0, 305, 0, 0, 305, 3050, 0, 610, 59, 7]",
    "FastTrack 0.03 mixed state=2816a1846f47a51c reports=7/86f819f6a53ec765 counters=[3003, 1645, 748, 59, 305, 305, 0, 305, 0, 305, 0, 0, 305, 3050, 0, 610, 59, 7]",
    "SU 0.03 mixed state=b4a0cb00948f056d reports=7/86f819f6a53ec765 counters=[3003, 1645, 748, 59, 305, 305, 198, 107, 172, 133, 0, 0, 56, 1200, 0, 480, 59, 7]",
    "SO 0.03 mixed state=de235de1f78f4944 reports=7/86f819f6a53ec765 counters=[3003, 1645, 748, 59, 305, 305, 195, 110, 249, 56, 305, 42, 56, 407, 143, 110, 59, 7]",
    "SO 0.03 mixed state=c9bbb1e0a1f41026 reports=7/86f819f6a53ec765 counters=[3003, 1645, 748, 59, 305, 305, 197, 108, 249, 56, 305, 65, 56, 383, 157, 108, 59, 7]",
    "Djit+ 1 mixed state=060e8bf00313bedd reports=1672/a278e9cadf4b1566 counters=[3003, 1645, 748, 2393, 305, 305, 0, 305, 0, 305, 0, 0, 305, 3050, 0, 610, 2393, 1672]",
    "FastTrack 1 mixed state=f2a3ab09f2e02f8e reports=1509/2cef56ead4863ace counters=[3003, 1645, 748, 2393, 305, 305, 0, 305, 0, 305, 0, 0, 305, 3050, 0, 610, 2234, 1509]",
    "SU 1 mixed state=b5d5cd09e016bfdc reports=1672/a278e9cadf4b1566 counters=[3003, 1645, 748, 2393, 305, 305, 189, 116, 1, 304, 0, 0, 304, 2100, 0, 840, 2393, 1672]",
    "SO 1 mixed state=bb1be41b17c795a8 reports=1672/a278e9cadf4b1566 counters=[3003, 1645, 748, 2393, 305, 305, 189, 116, 1, 304, 305, 62, 304, 524, 56, 116, 2393, 1672]",
    "SO 1 mixed state=db22919b83587fb9 reports=1672/a278e9cadf4b1566 counters=[3003, 1645, 748, 2393, 305, 305, 189, 116, 1, 304, 305, 244, 304, 519, 61, 116, 2393, 1672]",
    "ET mixed counters=[3003, 1645, 748, 0, 305, 305, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
    "Djit+ 0.03 wide state=f9a2b6cd2d7a7f8c reports=0/09612b07b5ecb5a5 counters=[4040, 3340, 358, 99, 171, 171, 0, 171, 0, 171, 0, 0, 171, 68030, 0, 342, 99, 0]",
    "FastTrack 0.03 wide state=ba3692bd9eb1cbc7 reports=0/09612b07b5ecb5a5 counters=[4040, 3340, 358, 99, 171, 171, 0, 171, 0, 171, 0, 0, 171, 68030, 0, 342, 95, 0]",
    "SU 0.03 wide state=d95d1abcb703c02d reports=0/09612b07b5ecb5a5 counters=[4040, 3340, 358, 99, 171, 171, 136, 35, 104, 67, 0, 0, 42, 20398, 0, 204, 99, 0]",
    "SO 0.03 wide state=3e82482f6e7eef6e reports=0/09612b07b5ecb5a5 counters=[4040, 3340, 358, 99, 171, 171, 136, 35, 129, 42, 171, 2, 42, 28, 6971, 35, 99, 0]",
    "SO 0.03 wide state=32c0182ad61efef5 reports=0/09612b07b5ecb5a5 counters=[4040, 3340, 358, 99, 171, 171, 136, 35, 129, 42, 171, 4, 42, 44, 6955, 35, 99, 0]",
    "Djit+ 1 wide state=b9062e655ca90c27 reports=45/6d310ab7dec3f924 counters=[4040, 3340, 358, 3698, 171, 171, 0, 171, 0, 171, 0, 0, 171, 68106, 0, 342, 3698, 45]",
    "FastTrack 1 wide state=8ed08e5f598fe18a reports=43/f6263884b10f3195 counters=[4040, 3340, 358, 3698, 171, 171, 0, 171, 0, 171, 0, 0, 171, 68106, 0, 342, 2428, 43]",
    "SU 1 wide state=c6ed786109dd75de reports=45/6d310ab7dec3f924 counters=[4040, 3340, 358, 3698, 171, 171, 55, 116, 2, 169, 0, 0, 169, 57000, 0, 570, 3698, 45]",
    "SO 1 wide state=1ae6e4b30890ce99 reports=45/6d310ab7dec3f924 counters=[4040, 3340, 358, 3698, 171, 171, 55, 116, 2, 169, 171, 9, 169, 265, 22935, 116, 3698, 45]",
    "SO 1 wide state=97f2903929480b7a reports=45/6d310ab7dec3f924 counters=[4040, 3340, 358, 3698, 171, 171, 55, 116, 2, 169, 171, 22, 169, 295, 22905, 116, 3698, 45]",
    "ET wide counters=[4040, 3340, 358, 0, 171, 171, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]",
];

#[test]
fn monolithic_detectors_match_their_golden_pins() {
    let actual = actual();
    for (i, line) in actual.iter().enumerate() {
        assert_eq!(
            Some(&line.as_str()),
            GOLDEN.get(i),
            "golden line {i} moved; the whole table is now:\n{}",
            actual.join("\n")
        );
    }
    assert_eq!(actual.len(), GOLDEN.len());
}
