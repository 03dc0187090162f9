//! Checkpoint-resume suite: export a detector mid-stream, import into a
//! fresh instance of the same configuration, continue — the combined
//! report stream must be identical to an uninterrupted run, for every
//! engine × sampler family and every cut point.
//!
//! Counters continue exactly too, `deep_copies` included: the SO sync
//! engine records live thread↔lock aliases as checkpoint marks and
//! rebuilds them on import (see the module docs of
//! `freshtrack_core::CheckpointState`), so even the sharing-dependent
//! counter picks up exactly where the exporter left off — invariant 11
//! in `ARCHITECTURE.md`. Every field is pinned.

use freshtrack_clock::wire;
use freshtrack_core::{
    CheckpointState, Counters, Detector, DjitDetector, FastTrackDetector, FreshnessDetector,
    OrderedListDetector, OrderedSyncEngine, SplitDetector,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler};
use freshtrack_testutil::{trace_from_fuel, workload_matrix};
use freshtrack_trace::Trace;
use proptest::prelude::*;

/// Every `Counters` field, the sharing-dependent `deep_copies`
/// included — alias marks in the SO checkpoint make resume exact.
fn stable_fields(c: &Counters) -> [u64; 18] {
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

fn assert_resume_matches<D>(label: &str, trace: &Trace, make: &dyn Fn() -> D)
where
    D: Detector + CheckpointState,
{
    let mut full = make();
    let expected = full.run(trace);
    let expected_counters = *full.counters();

    let n = trace.len();
    for cut in [0, n / 3, n / 2, 2 * n / 3, n] {
        let mut first = make();
        let mut reports = Vec::new();
        for (id, event) in trace.iter().take(cut) {
            reports.extend(first.process(id, event));
        }
        let mut blob = Vec::new();
        first.export_state(&mut blob);

        let mut resumed = make();
        resumed
            .import_state(&blob)
            .expect("a just-exported checkpoint must import");

        // Export is deterministic: export → import → export is
        // byte-idempotent.
        let mut blob2 = Vec::new();
        resumed.export_state(&mut blob2);
        assert_eq!(blob, blob2, "[{label}] cut={cut}: re-export drifted");

        for (id, event) in trace.iter().skip(cut) {
            reports.extend(resumed.process(id, event));
        }
        assert_eq!(
            reports, expected,
            "[{label}] cut={cut}: resumed reports diverged"
        );
        assert_eq!(
            stable_fields(resumed.counters()),
            stable_fields(&expected_counters),
            "[{label}] cut={cut}: resumed counters diverged"
        );
    }
}

fn assert_all_engines_resume(label: &str, trace: &Trace) {
    let rate = BernoulliSampler::new(0.3, 17);
    assert_resume_matches(&format!("{label}/djit"), trace, &|| {
        DjitDetector::new(AlwaysSampler::new())
    });
    assert_resume_matches(&format!("{label}/ft"), trace, &|| {
        FastTrackDetector::new(BernoulliSampler::new(1.0, 42))
    });
    assert_resume_matches(&format!("{label}/su"), trace, &|| {
        FreshnessDetector::new(rate)
    });
    assert_resume_matches(&format!("{label}/so"), trace, &|| {
        OrderedListDetector::new(rate)
    });
    assert_resume_matches(&format!("{label}/so-noopt"), trace, &|| {
        OrderedListDetector::with_options(rate, false)
    });
}

#[test]
fn every_engine_resumes_identically_across_workloads() {
    for (name, trace) in workload_matrix(240, &[5]) {
        assert_all_engines_resume(&name, &trace);
    }
}

#[test]
fn every_engine_resumes_identically_on_fuel_traces() {
    let fuel: &[(u8, u8, u8)] = &[
        (0, 0, 0),
        (1, 0, 1),
        (2, 1, 0),
        (0, 1, 1),
        (3, 0, 2),
        (1, 2, 3),
        (4, 1, 2),
        (0, 0, 4),
    ];
    let trace = trace_from_fuel(fuel, 5, 3, 5);
    assert_all_engines_resume("fuel", &trace);
}

#[test]
fn truncated_checkpoints_import_as_clean_errors() {
    // A mid-run SO checkpoint exercises every wire shape: ordered
    // lists, freshness clocks, optional lock snapshots, RelAfter_S
    // bits, counters.
    let (_, trace) = workload_matrix(120, &[9]).remove(0);
    let mut det = OrderedListDetector::new(BernoulliSampler::new(0.5, 3));
    det.run(&trace);
    let mut blob = Vec::new();
    det.export_state(&mut blob);

    for cut in 0..blob.len() {
        let mut fresh = OrderedListDetector::new(BernoulliSampler::new(0.5, 3));
        assert!(
            fresh.import_state(&blob[..cut]).is_err(),
            "strict prefix of len {cut} (of {}) must not import",
            blob.len()
        );
    }

    // Trailing garbage is rejected too, before any state is replaced.
    let mut padded = blob.clone();
    padded.push(0);
    let mut fresh = OrderedListDetector::new(BernoulliSampler::new(0.5, 3));
    let err = fresh.import_state(&padded).unwrap_err();
    assert!(err.to_string().contains("malformed checkpoint"), "{err}");
}

#[test]
fn non_epoch_engines_reject_relafter_bits() {
    // Hand-assemble checkpoints whose RelAfter_S section claims one
    // pending bit — only SU/SO carry those bits, so the vector-clock
    // detectors must refuse rather than silently drop sampling state.
    fn blob_with_one_bit<D: CheckpointState>(det: &D) -> Vec<u8> {
        // A fresh detector's checkpoint ends with an empty bit vector
        // (one 0 byte) and 18 zero counters; swap in one set bit.
        let mut blob = Vec::new();
        det.export_state(&mut blob);
        assert!(blob.ends_with(&[0; 19]));
        blob.truncate(blob.len() - 19);
        wire::put_varint(&mut blob, 1);
        wire::put_bool(&mut blob, true);
        for _ in 0..18 {
            wire::put_varint(&mut blob, 0);
        }
        blob
    }

    let mut djit = DjitDetector::new(AlwaysSampler::new());
    let blob = blob_with_one_bit(&djit);
    let err = djit.import_state(&blob).unwrap_err();
    assert!(err.to_string().contains("RelAfter_S"), "{err}");

    let mut ft = FastTrackDetector::new(AlwaysSampler::new());
    let blob = blob_with_one_bit(&ft);
    let err = ft.import_state(&blob).unwrap_err();
    assert!(err.to_string().contains("RelAfter_S"), "{err}");
}

/// Feeds `bytes` (a possibly-corrupted checkpoint) into a fresh
/// detector and asserts the clean-failure contract: either import
/// rejects with an error, or — when the corruption happens to decode as
/// a valid state — the accepted state is *canonical* (its re-export is
/// byte-idempotent through another import) and the detector keeps
/// processing a real trace without panicking. What is ruled out is the
/// middle ground: an `Ok` import holding state that later misbehaves.
fn assert_import_fails_cleanly<D>(label: &str, make: &dyn Fn() -> D, trace: &Trace, bytes: &[u8])
where
    D: Detector + CheckpointState,
{
    let mut det = make();
    if det.import_state(bytes).is_err() {
        return; // clean rejection — no state was replaced
    }
    let mut re = Vec::new();
    det.export_state(&mut re);
    let mut second = make();
    second
        .import_state(&re)
        .unwrap_or_else(|e| panic!("[{label}] re-export of an accepted import failed: {e}"));
    let mut re2 = Vec::new();
    second.export_state(&mut re2);
    assert_eq!(
        re, re2,
        "[{label}] accepted import produced a non-canonical state"
    );
    det.run(trace); // an accepted state must keep working (no panic)
}

/// Corrupts `blob` per `flips` (position, xor-mask pairs; masks are
/// forced nonzero so every flip changes its byte) and checks the
/// clean-failure contract; then checks every strict prefix in the same
/// way via `trunc`.
fn assert_corruption_handled<D>(
    label: &str,
    make: &dyn Fn() -> D,
    trace: &Trace,
    flips: &[(u16, u8)],
    trunc: u16,
) where
    D: Detector + CheckpointState,
{
    let mut det = make();
    det.run(trace);
    let mut blob = Vec::new();
    det.export_state(&mut blob);
    assert!(!blob.is_empty(), "[{label}] export produced no bytes");

    let mut corrupted = blob.clone();
    for &(pos, mask) in flips {
        let i = pos as usize % corrupted.len();
        corrupted[i] ^= mask | 1;
    }
    assert_import_fails_cleanly(label, make, trace, &corrupted);

    // Truncation can never be valid: every section is length-prefixed,
    // so a strict prefix must be rejected outright.
    let cut = trunc as usize % blob.len();
    let mut fresh = make();
    assert!(
        fresh.import_state(&blob[..cut]).is_err(),
        "[{label}] strict prefix of len {cut} (of {}) imported",
        blob.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzzed corruption: flip and truncate arbitrary bytes of exported
    /// checkpoint blobs for every engine — import fails cleanly (no
    /// panic, no silent wrong state) in every case.
    #[test]
    fn corrupted_checkpoints_fail_cleanly_for_every_engine(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 20..80),
        flips in prop::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        trunc in any::<u16>(),
    ) {
        let trace = trace_from_fuel(&fuel, 4, 3, 3);
        assert_corruption_handled(
            "djit", &|| DjitDetector::new(AlwaysSampler::new()), &trace, &flips, trunc);
        assert_corruption_handled(
            "ft", &|| FastTrackDetector::new(BernoulliSampler::new(1.0, 42)),
            &trace, &flips, trunc);
        assert_corruption_handled(
            "su", &|| FreshnessDetector::new(BernoulliSampler::new(0.5, 17)),
            &trace, &flips, trunc);
        assert_corruption_handled(
            "so", &|| OrderedListDetector::new(BernoulliSampler::new(0.5, 17)),
            &trace, &flips, trunc);
        assert_corruption_handled(
            "so-noopt",
            &|| OrderedListDetector::with_options(BernoulliSampler::new(0.5, 17), false),
            &trace, &flips, trunc);
    }
}

#[test]
fn sync_plane_exports_reimport_at_every_boundary() {
    // A sync-plane export taken at any segment boundary must import
    // into a fresh engine, and that engine must re-export the same
    // bytes (idempotence at every boundary, not only the first).
    let (_, trace) = workload_matrix(240, &[5]).remove(0);
    let mut det = OrderedListDetector::new(BernoulliSampler::new(0.5, 17));
    let mut boundaries = 0usize;
    for (i, (id, event)) in trace.iter().enumerate() {
        det.process(id, event);
        if (i + 1) % 24 != 0 {
            continue;
        }
        boundaries += 1;
        let mut direct = Vec::new();
        det.split_sync().export_state(&mut direct);

        let mut seeded = OrderedSyncEngine::new(true);
        seeded
            .import_state(&direct)
            .expect("a sync export must import");
        let mut re = Vec::new();
        seeded.export_state(&mut re);
        assert_eq!(
            re, direct,
            "boundary after event {i}: seeded re-export drifted"
        );
    }
    assert!(
        boundaries >= 5,
        "workload too short to reach five boundaries"
    );
}

#[test]
fn exporting_a_fresh_detector_equals_the_empty_state() {
    // Importing a fresh export into a used detector resets it.
    let mut fresh_blob = Vec::new();
    FreshnessDetector::new(AlwaysSampler::new()).export_state(&mut fresh_blob);

    let (_, trace) = workload_matrix(100, &[2]).remove(0);
    let mut used = FreshnessDetector::new(AlwaysSampler::new());
    let expected = used.run(&trace);
    used.import_state(&fresh_blob).unwrap();
    assert_eq!(used.counters().events, 0);
    assert_eq!(used.run(&trace), expected, "reset detector must re-derive");
}
