//! Differential suite for the incremental analyzer (invariant 11).
//!
//! `analyze_segments_cached` must be **byte-identical** — reports and
//! every `Counters` field — to a cold `analyze_segments` run over the
//! same file, for every engine, sampler, job count, and append point,
//! and the sidecar it rewrites after a warm run must equal the one a
//! cold run writes. A cache is *never* silently reused across a
//! fingerprint change or any corruption of the sidecar or the trace
//! file: corruption demotes to a cold run (or surfaces the exact error
//! the cold run reports).

use std::io::Cursor;

use freshtrack_clock::wire;
use freshtrack_core::{
    analyze_segments, analyze_segments_cached, encode_delta, AccessCheckpoint, AccessEngine,
    CachedAnalysis, CheckpointState, Counters, DjitDetector, FastTrackDetector, FreshnessDetector,
    OrderedListDetector, SplitDetector, SyncEngine, CACHE_STATE_VERSION,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler, Sampler};
use freshtrack_testutil::workload_matrix;
use freshtrack_trace::{
    write_trace_binary_v2, AnalysisCache, CacheConfig, EventKind, SegmentOptions,
    SegmentedTraceFile, Trace, TraceBuilder,
};

const EVENTS_PER_SEGMENT: usize = 8;

fn v2_bytes(trace: &Trace, events_per_segment: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_trace_binary_v2(trace, &mut bytes, &SegmentOptions { events_per_segment })
        .expect("in-memory v2 encode cannot fail");
    bytes
}

fn open(bytes: &[u8]) -> SegmentedTraceFile<Cursor<&[u8]>> {
    SegmentedTraceFile::open(Cursor::new(bytes)).expect("freshly written v2 file must open")
}

fn config(engine: &str, sampler: &str, jobs: usize) -> CacheConfig {
    CacheConfig {
        engine: engine.to_string(),
        sampler: sampler.to_string(),
        options: format!("events_per_segment={EVENTS_PER_SEGMENT}"),
        state_version: CACHE_STATE_VERSION,
        jobs: jobs as u32,
    }
}

/// Asserts the full incremental contract for one (trace, engine,
/// sampler) cell: cold cached run ≡ plain run, sidecar round-trips
/// through bytes, and resuming from a prefix of the sidecar at *every*
/// segment boundary reproduces the cold analysis and the cold sidecar.
fn assert_incremental_matches_cold<D, S>(
    label: &str,
    trace: &Trace,
    detector: &D,
    sampler: &S,
    engine: &str,
    sampler_name: &str,
) where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
{
    let bytes = v2_bytes(trace, EVENTS_PER_SEGMENT);
    for jobs in [1, 2] {
        let cfg = config(engine, sampler_name, jobs);
        let plain = analyze_segments(&mut open(&bytes), detector, sampler, jobs)
            .expect("well-formed traces must analyze");
        let cold = analyze_segments_cached(&mut open(&bytes), detector, sampler, jobs, &cfg, None)
            .expect("well-formed traces must analyze");
        assert_eq!(cold.reused_segments, 0, "[{label}] jobs={jobs}");
        assert_eq!(
            cold.analysis.reports, plain.reports,
            "[{label}] jobs={jobs}"
        );
        assert_eq!(
            cold.analysis.counters, plain.counters,
            "[{label}] jobs={jobs}"
        );

        // The sidecar survives its own wire format.
        let decoded = AnalysisCache::decode(&cold.cache.encode())
            .expect("freshly encoded sidecar must decode");
        assert_eq!(
            decoded, cold.cache,
            "[{label}] jobs={jobs}: sidecar round trip"
        );

        // Resume from every append point. A sidecar truncated to `k`
        // entries is exactly what the run over the first `k` segments
        // wrote: analysis state at a boundary depends only on the
        // events before it.
        for k in 0..=cold.total_segments {
            let mut prior = cold.cache.clone();
            prior.entries.truncate(k);
            let warm = analyze_segments_cached(
                &mut open(&bytes),
                detector,
                sampler,
                jobs,
                &cfg,
                Some(&prior),
            )
            .expect("well-formed traces must analyze");
            assert_eq!(
                warm.reused_segments, k,
                "[{label}] jobs={jobs} k={k}: prefix not fully reused"
            );
            assert_eq!(
                warm.analysis.reports, plain.reports,
                "[{label}] jobs={jobs} k={k}: reports diverged"
            );
            assert_eq!(
                warm.analysis.counters, plain.counters,
                "[{label}] jobs={jobs} k={k}: counters diverged"
            );
            assert_eq!(
                warm.analysis.threads, cold.analysis.threads,
                "[{label}] jobs={jobs} k={k}"
            );
            assert_eq!(
                warm.cache, cold.cache,
                "[{label}] jobs={jobs} k={k}: rewritten sidecar diverged"
            );
        }
    }
}

#[test]
fn incremental_matches_cold_across_engines_and_samplers() {
    let rate = BernoulliSampler::new(0.3, 11);
    for (name, trace) in workload_matrix(240, &[1]) {
        assert_incremental_matches_cold(
            &format!("{name}/djit/always"),
            &trace,
            &DjitDetector::new(AlwaysSampler::new()),
            &AlwaysSampler::new(),
            "djit",
            "always",
        );
        assert_incremental_matches_cold(
            &format!("{name}/ft/bernoulli0.3"),
            &trace,
            &FastTrackDetector::new(rate),
            &rate,
            "ft",
            "bernoulli:0.3:11",
        );
        assert_incremental_matches_cold(
            &format!("{name}/su/bernoulli0.3"),
            &trace,
            &FreshnessDetector::new(rate),
            &rate,
            "su",
            "bernoulli:0.3:11",
        );
        assert_incremental_matches_cold(
            &format!("{name}/so/bernoulli0.3"),
            &trace,
            &OrderedListDetector::new(rate),
            &rate,
            "so",
            "bernoulli:0.3:11",
        );
    }
}

#[test]
fn never_sampler_incremental_matches_exactly() {
    for (name, trace) in workload_matrix(160, &[3]) {
        assert_incremental_matches_cold(
            &format!("{name}/so/never"),
            &trace,
            &OrderedListDetector::new(NeverSampler::new()),
            &NeverSampler::new(),
            "so",
            "never",
        );
    }
}

/// A deterministic racy workload emitted incrementally through one
/// builder, so a prefix build and a full build share id assignment —
/// and therefore, after v2 encoding, share segment bytes.
fn emitted(events: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let vars: Vec<_> = (0..5).map(|v| b.var(&format!("x{v}"))).collect();
    let locks: Vec<_> = (0..3).map(|l| b.lock(&format!("l{l}"))).collect();
    let mut emitted = 0usize;
    let mut step = 0usize;
    while emitted < events {
        let t = (step % 4) as u32;
        match step % 7 {
            0 => {
                b.acquire(t, locks[step % 3]).release(t, locks[step % 3]);
                emitted += 2;
            }
            1 | 4 => {
                b.write(t, vars[step % 5]);
                emitted += 1;
            }
            _ => {
                b.read(t, vars[(step * 3) % 5]);
                emitted += 1;
            }
        }
        step += 1;
    }
    b.build()
}

/// The real append workflow, across two distinct files: analyze a
/// short trace, keep its sidecar, then analyze a longer trace whose
/// encoding shares the short one's full segments byte-for-byte. Every
/// full segment of the short file must be reused.
#[test]
fn sidecar_survives_a_real_file_append() {
    let short = emitted(100);
    let long = emitted(180);
    let short_bytes = v2_bytes(&short, EVENTS_PER_SEGMENT);
    let long_bytes = v2_bytes(&long, EVENTS_PER_SEGMENT);

    let detector = OrderedListDetector::new(BernoulliSampler::new(0.5, 7));
    let sampler = BernoulliSampler::new(0.5, 7);
    for jobs in [1, 2] {
        let cfg = config("so", "bernoulli:0.5:7", jobs);
        let first = analyze_segments_cached(
            &mut open(&short_bytes),
            &detector,
            &sampler,
            jobs,
            &cfg,
            None,
        )
        .unwrap();

        // Count how many of the short file's segments survive in the
        // long file byte-identically (the tail segment is partial and
        // gets rewritten by the append).
        let long_file = open(&long_bytes);
        let shared = open(&short_bytes)
            .metas()
            .iter()
            .zip(long_file.metas())
            .take_while(|(a, b)| a == b)
            .count();
        assert!(shared > 0, "append must leave a shared segment prefix");

        let second = analyze_segments_cached(
            &mut open(&long_bytes),
            &detector,
            &sampler,
            jobs,
            &cfg,
            Some(&first.cache),
        )
        .unwrap();
        assert_eq!(second.reused_segments, shared, "jobs={jobs}");

        let cold = analyze_segments(&mut open(&long_bytes), &detector, &sampler, jobs).unwrap();
        assert_eq!(second.analysis.reports, cold.reports, "jobs={jobs}");
        assert_eq!(second.analysis.counters, cold.counters, "jobs={jobs}");
    }
}

/// Any difference in the configuration fingerprint — engine, sampler
/// identity, segment options, payload version, or its `jobs` field —
/// must reject the cache outright, never partially reuse it; the job
/// count a run uses is not part of it.
#[test]
fn changed_fingerprint_rejects_the_whole_cache() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = FreshnessDetector::new(BernoulliSampler::new(0.4, 9));
    let sampler = BernoulliSampler::new(0.4, 9);
    let jobs = 2;
    let cfg = config("su", "bernoulli:0.4:9", jobs);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, jobs, &cfg, None).unwrap();
    assert!(cold.total_segments > 1);

    let mutations: Vec<(&str, CacheConfig)> = vec![
        (
            "engine",
            CacheConfig {
                engine: "ft".into(),
                ..cfg.clone()
            },
        ),
        (
            "sampler",
            CacheConfig {
                sampler: "bernoulli:0.4:10".into(),
                ..cfg.clone()
            },
        ),
        (
            "options",
            CacheConfig {
                options: "events_per_segment=9".into(),
                ..cfg.clone()
            },
        ),
        (
            "state_version",
            CacheConfig {
                state_version: CACHE_STATE_VERSION + 1,
                ..cfg.clone()
            },
        ),
        (
            "jobs",
            CacheConfig {
                jobs: 1,
                ..cfg.clone()
            },
        ),
    ];
    for (what, wrong) in mutations {
        let run = analyze_segments_cached(
            &mut open(&bytes),
            &detector,
            &sampler,
            jobs,
            &wrong,
            Some(&cold.cache),
        )
        .unwrap();
        assert_eq!(
            run.reused_segments, 0,
            "{what} change must reject the cache"
        );
        assert_eq!(run.analysis.reports, cold.analysis.reports, "{what}");
        assert_eq!(run.analysis.counters, cold.analysis.counters, "{what}");
    }

    // The `jobs` argument is not part of the fingerprint: analysis state
    // is the same at every job count, so a sidecar written by a jobs-1
    // run seeds a jobs-2 run in full, and the rewritten sidecar is the
    // same bytes.
    let cfg1 = CacheConfig {
        jobs: 1,
        ..cfg.clone()
    };
    let cold1 =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 1, &cfg1, None).unwrap();
    let run = analyze_segments_cached(
        &mut open(&bytes),
        &detector,
        &sampler,
        2,
        &cfg1,
        Some(&cold1.cache),
    )
    .unwrap();
    assert_eq!(
        run.reused_segments, run.total_segments,
        "a jobs-1 sidecar must seed a jobs-2 run in full"
    );
    assert_eq!(run.analysis.reports, cold1.analysis.reports);
    assert_eq!(run.analysis.counters, cold1.analysis.counters);
    assert_eq!(run.analysis.reports, cold.analysis.reports);
    assert_eq!(run.analysis.counters, cold.analysis.counters);
    assert_eq!(run.cache.encode(), cold1.cache.encode());
}

/// A sidecar whose entries carry one access checkpoint per worker (the
/// layout of builds that partitioned variables across workers) cannot
/// seed the single access engine: even under an equal fingerprint it is
/// rebuilt cold, and the rewrite is the cold sidecar.
#[test]
fn per_worker_access_checkpoints_fall_back_to_a_cold_run() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = OrderedListDetector::new(BernoulliSampler::new(0.4, 9));
    let sampler = BernoulliSampler::new(0.4, 9);
    let cfg = config("so", "bernoulli:0.4:9", 2);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 2, &cfg, None).unwrap();
    let mut per_worker = cold.cache.clone();
    for entry in &mut per_worker.entries {
        entry.access_deltas.push(Vec::new());
    }
    for jobs in [1, 2] {
        let run = analyze_segments_cached(
            &mut open(&bytes),
            &detector,
            &sampler,
            jobs,
            &cfg,
            Some(&per_worker),
        )
        .unwrap();
        assert_eq!(run.reused_segments, 0, "jobs={jobs}");
        assert_eq!(run.analysis.reports, cold.analysis.reports, "jobs={jobs}");
        assert_eq!(run.analysis.counters, cold.analysis.counters, "jobs={jobs}");
        assert_eq!(run.cache, cold.cache, "jobs={jobs}");
    }
}

/// Flip every bit... is overkill at this layer (the trace crate pins
/// byte-level rejection); here every *byte* of the encoded sidecar is
/// flipped, and each mutant either fails to decode or — if it decodes —
/// analyzes to the exact cold output, proving a corrupt sidecar can
/// demote but never distort.
#[test]
fn corrupt_sidecar_never_distorts_the_analysis() {
    let trace = emitted(96);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = FastTrackDetector::new(BernoulliSampler::new(0.6, 5));
    let sampler = BernoulliSampler::new(0.6, 5);
    let jobs = 1;
    let cfg = config("ft", "bernoulli:0.6:5", jobs);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, jobs, &cfg, None).unwrap();
    let encoded = cold.cache.encode();

    let mut decoded_ok = 0usize;
    for pos in 0..encoded.len() {
        let mut mutant = encoded.clone();
        mutant[pos] ^= 0x01;
        let Ok(prior) = AnalysisCache::decode(&mutant) else {
            continue;
        };
        decoded_ok += 1;
        let run = analyze_segments_cached(
            &mut open(&bytes),
            &detector,
            &sampler,
            jobs,
            &cfg,
            Some(&prior),
        )
        .unwrap();
        assert_eq!(run.analysis.reports, cold.analysis.reports, "flip at {pos}");
        assert_eq!(
            run.analysis.counters, cold.analysis.counters,
            "flip at {pos}"
        );
    }
    // CRC framing makes surviving decodes rare; the loop above is the
    // contract either way.
    assert!(decoded_ok <= encoded.len() / 8, "CRC framing looks broken");

    for cut in 0..encoded.len() {
        assert!(
            AnalysisCache::decode(&encoded[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
}

/// Corrupting the *trace file* behind a sidecar: the CRC re-hash ends
/// the reusable prefix before the damaged segment, and the replay then
/// reports exactly the error a cold run reports — the cache never
/// masks corruption.
#[test]
fn corrupt_segment_is_never_reused() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = DjitDetector::new(AlwaysSampler::new());
    let sampler = AlwaysSampler::new();
    let jobs = 2;
    let cfg = config("djit", "always", jobs);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, jobs, &cfg, None).unwrap();

    let metas: Vec<_> = open(&bytes).metas().to_vec();
    for (k, meta) in metas.iter().enumerate() {
        let mut corrupt = bytes.clone();
        let target = meta.offset as usize + meta.byte_len as usize / 2;
        corrupt[target] ^= 0xFF;

        let cold_err = match analyze_segments(&mut open(&corrupt), &detector, &sampler, jobs) {
            Err(e) => e.to_string(),
            // The flip can cancel out in a CRC-colliding way only if it
            // decodes identically, which a 1-byte xor cannot; but the
            // footer CRC may catch it at open() — skip those.
            Ok(_) => panic!("segment {k}: corruption went unnoticed by the cold run"),
        };
        assert!(cold_err.contains("checksum"), "segment {k}: {cold_err}");

        let warm_err = analyze_segments_cached(
            &mut open(&corrupt),
            &detector,
            &sampler,
            jobs,
            &cfg,
            Some(&cold.cache),
        )
        .expect_err("corrupt segment must fail the warm run too");
        assert_eq!(
            warm_err.to_string(),
            cold_err,
            "segment {k}: warm run must surface the cold run's error"
        );
    }
}

/// The live access engine's `export_state` at every segment boundary of
/// `trace`: the split halves of `detector`, driven the way the pipeline
/// drives them.
fn live_access_exports<D>(trace: &Trace, detector: &D) -> Vec<Vec<u8>>
where
    D: SplitDetector,
    D::Access: AccessCheckpoint,
{
    let mut sync = detector.split_sync();
    let mut access = detector.split_access();
    let mut pending: Vec<bool> = Vec::new();
    let mut counters = Counters::new();
    let mut exports = Vec::new();
    for (i, (id, event)) in trace.iter().enumerate() {
        let tid = event.tid;
        if pending.len() <= tid.index() {
            pending.resize(tid.index() + 1, false);
        }
        match event.kind {
            EventKind::Acquire(lock) => {
                sync.ensure_thread(tid);
                sync.acquire(tid, lock, &mut counters);
            }
            EventKind::Release(lock) => {
                sync.ensure_thread(tid);
                let sampled = std::mem::take(&mut pending[tid.index()]);
                sync.release(tid, lock, sampled, &mut counters);
            }
            EventKind::Read(_) | EventKind::Write(_) => {
                if access.decide(id, event) {
                    sync.ensure_thread(tid);
                    pending[tid.index()] = true;
                    let view = sync.publish(tid);
                    access.access_sampled(id, event, &view, &mut counters);
                }
            }
        }
        if (i + 1) % EVENTS_PER_SEGMENT == 0 || i + 1 == trace.len() {
            let mut bytes = Vec::new();
            access.export_state(&mut bytes);
            exports.push(bytes);
        }
    }
    exports
}

/// Folds a cold sidecar's access records entry by entry into a fresh
/// engine and asserts that, after every entry, the folded engine exports
/// exactly the live engine's bytes at that boundary.
fn assert_records_fold_to_live_exports<D>(label: &str, trace: &Trace, detector: &D, rate: f64)
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
{
    let bytes = v2_bytes(trace, EVENTS_PER_SEGMENT);
    let sampler = BernoulliSampler::new(rate, 23);
    let cfg = config(label, &format!("bernoulli:{rate}:23"), 1);
    let cold = analyze_segments_cached(&mut open(&bytes), detector, &sampler, 1, &cfg, None)
        .expect("well-formed traces must analyze");
    let live = live_access_exports(trace, detector);
    assert_eq!(live.len(), cold.cache.entries.len(), "[{label}]");
    let mut folded = detector.split_access();
    for (k, (entry, expected)) in cold.cache.entries.iter().zip(&live).enumerate() {
        let [records] = entry.access_deltas.as_slice() else {
            panic!("[{label}] entry {k} must hold one access checkpoint");
        };
        folded
            .import_records(records, usize::MAX)
            .unwrap_or_else(|e| panic!("[{label}] entry {k}: {e}"));
        let mut got = Vec::new();
        folded.export_state(&mut got);
        assert_eq!(&got, expected, "[{label}] boundary {k}: folded records");
    }
}

#[test]
fn folded_access_records_equal_the_live_export_at_every_boundary() {
    for (name, trace) in workload_matrix(240, &[2]) {
        for rate in [0.03, 0.3, 1.0] {
            let sampler = BernoulliSampler::new(rate, 23);
            assert_records_fold_to_live_exports(
                &format!("{name}/so/{rate}"),
                &trace,
                &OrderedListDetector::new(sampler),
                rate,
            );
            assert_records_fold_to_live_exports(
                &format!("{name}/su/{rate}"),
                &trace,
                &FreshnessDetector::new(sampler),
                rate,
            );
            assert_records_fold_to_live_exports(
                &format!("{name}/st/{rate}"),
                &trace,
                &DjitDetector::new(sampler),
                rate,
            );
            assert_records_fold_to_live_exports(
                &format!("{name}/ft/{rate}"),
                &trace,
                &FastTrackDetector::new(sampler),
                rate,
            );
        }
    }
}

/// A sidecar written under the previous payload version (whole-plane
/// access deltas) fails the fingerprint and is rebuilt cold: the output
/// and the rewritten sidecar equal a cold run's.
#[test]
fn version_one_sidecar_rebuilds_cold() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = OrderedListDetector::new(BernoulliSampler::new(0.4, 9));
    let sampler = BernoulliSampler::new(0.4, 9);
    let cfg = config("so", "bernoulli:0.4:9", 1);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 1, &cfg, None).unwrap();
    let mut v1 = cold.cache.clone();
    v1.config.state_version = 1;
    for entry in &mut v1.entries {
        entry.access_deltas = vec![encode_delta(&[], &entry.access_deltas[0])];
    }
    let v1 = AnalysisCache::decode(&v1.encode()).expect("a v1 sidecar still decodes");
    let run = analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 1, &cfg, Some(&v1))
        .unwrap();
    assert_eq!(run.reused_segments, 0);
    assert_eq!(run.analysis.reports, cold.analysis.reports);
    assert_eq!(run.analysis.counters, cold.analysis.counters);
    assert_eq!(run.cache.encode(), cold.cache.encode());
}

/// Runs a warm analysis whose entry `k` carries `records` as its access
/// checkpoint and asserts it fell back to the cold run, without a panic.
fn assert_records_fall_back<D>(
    label: &str,
    bytes: &[u8],
    detector: &D,
    cfg: &CacheConfig,
    cold: &CachedAnalysis,
    k: usize,
    records: Vec<u8>,
) where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
{
    let mut prior = cold.cache.clone();
    prior.entries[k].access_deltas = vec![records];
    let sampler = BernoulliSampler::new(0.6, 5);
    let run = analyze_segments_cached(&mut open(bytes), detector, &sampler, 1, cfg, Some(&prior))
        .unwrap();
    assert_eq!(run.reused_segments, 0, "[{label}] entry {k}");
    assert_eq!(run.analysis.reports, cold.analysis.reports, "[{label}]");
    assert_eq!(run.analysis.counters, cold.analysis.counters, "[{label}]");
    assert_eq!(run.cache, cold.cache, "[{label}] entry {k}");
}

/// Malformed access records — a variable id at or past the header's
/// variable count, a variable count past the name table, a record count
/// larger than the bytes left, and every truncation of every real
/// record — demote a warm run to a cold one. `header` is the engine's
/// header before the variable count (`width` for the clock-history
/// engines, nothing for FastTrack's).
fn assert_malformed_records_fall_back<D>(label: &str, detector: &D, engine: &str, header: &[u8])
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
{
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let sampler = BernoulliSampler::new(0.6, 5);
    let cfg = config(engine, "bernoulli:0.6:5", 1);
    let cold =
        analyze_segments_cached(&mut open(&bytes), detector, &sampler, 1, &cfg, None).unwrap();
    let last = cold.cache.entries.len() - 1;
    let crafted = |fields: &[u64]| {
        let mut out = header.to_vec();
        for &field in fields {
            wire::put_varint(&mut out, field);
        }
        out
    };
    // [var count, record count, first gap]: the record names var 5 of 5.
    let beyond_count = crafted(&[5, 1, 5]);
    // Five names exist by the last entry (see `emitted`), so a sixth
    // variable cannot.
    let beyond_names = crafted(&[6, 0]);
    let count_past_bytes = crafted(&[5, 1000]);
    let mut engine = detector.split_access();
    for (what, records) in [
        ("id beyond count", &beyond_count),
        ("count beyond names", &beyond_names),
        ("records past the end", &count_past_bytes),
    ] {
        assert!(
            engine.import_records(records, 5).is_err(),
            "[{label}] {what} imported"
        );
        assert_records_fall_back(
            &format!("{label}: {what}"),
            &bytes,
            detector,
            &cfg,
            &cold,
            last,
            records.clone(),
        );
    }
    for (k, entry) in cold.cache.entries.iter().enumerate() {
        let records = &entry.access_deltas[0];
        for cut in 0..records.len() {
            assert_records_fall_back(
                &format!("{label}: cut {cut}"),
                &bytes,
                detector,
                &cfg,
                &cold,
                k,
                records[..cut].to_vec(),
            );
        }
    }
}

#[test]
fn malformed_access_records_fall_back_to_a_cold_run() {
    let sampler = BernoulliSampler::new(0.6, 5);
    let mut width = Vec::new();
    wire::put_varint(&mut width, 4);
    assert_malformed_records_fall_back("so", &OrderedListDetector::new(sampler), "so", &width);
    assert_malformed_records_fall_back("st", &DjitDetector::new(sampler), "st", &width);
    assert_malformed_records_fall_back("ft", &FastTrackDetector::new(sampler), "ft", &[]);
}
