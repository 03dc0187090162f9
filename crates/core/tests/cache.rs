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

use freshtrack_core::{
    analyze_segments, analyze_segments_cached, CheckpointState, DjitDetector, FastTrackDetector,
    FreshnessDetector, OrderedListDetector, SplitDetector, CACHE_STATE_VERSION,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler, Sampler};
use freshtrack_testutil::workload_matrix;
use freshtrack_trace::{
    write_trace_binary_v2, AnalysisCache, CacheConfig, SegmentOptions, SegmentedTraceFile, Trace,
    TraceBuilder,
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
    D::Access: CheckpointState,
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
