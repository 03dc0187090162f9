//! Differential suite for the incremental analyzer (invariant 11).
//!
//! `analyze_segments_cached` must be **byte-identical** — reports and
//! every `Counters` field — to a cold `analyze_segments` run over the
//! same file, for every engine, sampler, job count, and append point,
//! and the sidecar it rewrites after a warm run must equal the one a
//! cold run writes. Every prior here is a sidecar a cached run really
//! wrote for a shorter file: the sidecar keeps the analysis state at its
//! last two boundaries only, so a prior that ends on a segment boundary
//! resumes at its last one, and a prior whose last segment was partial
//! resumes one boundary earlier. A cache is *never* silently reused
//! across a fingerprint change or any corruption of the sidecar or the
//! trace file: corruption demotes to a cold run (or surfaces the exact
//! error the cold run reports).

use std::io::Cursor;

use freshtrack_clock::wire;
use freshtrack_core::{
    analyze_segments, analyze_segments_cached, AccessEngine, CachedAnalysis, CheckpointState,
    Counters, DjitDetector, FastTrackDetector, FreshnessDetector, OrderedListDetector,
    SplitDetector, SyncEngine, CACHE_STATE_VERSION,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler, Sampler};
use freshtrack_testutil::{wide_workload, workload_matrix};
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

/// The trace's first `events` events under the trace's own name tables
/// and thread count: the file an append grew from. Its full segments
/// are byte-identical to the whole trace's.
fn prefix_of(trace: &Trace, events: usize) -> Trace {
    let mut b = TraceBuilder::new();
    for v in 0..trace.var_count() {
        b.var(trace.var_name(v));
    }
    for l in 0..trace.lock_count() {
        b.lock(trace.lock_name(l));
    }
    b.declare_threads(trace.thread_count() as u32);
    for event in &trace.events()[..events.min(trace.len())] {
        b.push(event.tid.as_u32(), event.kind);
    }
    b.build()
}

/// The sidecar a cold cached run writes for the first `events` events of
/// `trace`.
fn prior_for<D, S>(
    trace: &Trace,
    events: usize,
    events_per_segment: usize,
    detector: &D,
    sampler: &S,
    cfg: &CacheConfig,
) -> AnalysisCache
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
{
    let bytes = v2_bytes(&prefix_of(trace, events), events_per_segment);
    analyze_segments_cached(&mut open(&bytes), detector, sampler, 1, cfg, None)
        .expect("well-formed traces must analyze")
        .cache
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
/// through bytes, and resuming from a real prior at *every* append point
/// reproduces the cold analysis and the cold sidecar. For every `k` the
/// priors are the sidecars of cached runs over the first `k` segments
/// (resumed after segment `k`, its last boundary) and over `k` segments
/// plus half of the next (resumed after segment `k`, the boundary before
/// its partial last one).
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

        for k in 0..=cold.total_segments {
            let whole = k * EVENTS_PER_SEGMENT;
            let partial = whole + EVENTS_PER_SEGMENT / 2;
            let mut priors = vec![("boundary", whole.min(trace.len()))];
            if partial < trace.len() {
                priors.push(("partial tail", partial));
            }
            for (cut, events) in priors {
                let prior = prior_for(trace, events, EVENTS_PER_SEGMENT, detector, sampler, &cfg);
                let warm = analyze_segments_cached(
                    &mut open(&bytes),
                    detector,
                    sampler,
                    jobs,
                    &cfg,
                    Some(&prior),
                )
                .expect("well-formed traces must analyze");
                let at = format!("[{label}] jobs={jobs} k={k} {cut}");
                // An empty prefix file still holds one (empty) segment,
                // which the trace's first segment does not match.
                let expected = if events == 0 { 0 } else { k };
                assert_eq!(
                    warm.reused_segments, expected,
                    "{at}: prefix not fully reused"
                );
                assert_eq!(
                    warm.analysis.reports, plain.reports,
                    "{at}: reports diverged"
                );
                assert_eq!(
                    warm.analysis.counters, plain.counters,
                    "{at}: counters diverged"
                );
                assert_eq!(warm.analysis.threads, cold.analysis.threads, "{at}");
                assert_eq!(warm.cache, cold.cache, "{at}: rewritten sidecar diverged");
            }
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
        let paper_rate = BernoulliSampler::new(0.03, 11);
        assert_incremental_matches_cold(
            &format!("{name}/so/bernoulli0.03"),
            &trace,
            &OrderedListDetector::new(paper_rate),
            &paper_rate,
            "so",
            "bernoulli:0.03:11",
        );
    }
}

/// At the paper's 3% rate almost every access is sampled out in the
/// decoder threads, so the coordinator walks few accesses per segment.
/// Asserts that cold and warm (resumed from the sidecar of the first
/// half of the segments) cached runs at every job count write the same
/// sidecar bytes as a `--jobs 1` cold run and print the plain run's
/// reports and counters.
fn assert_sidecar_bytes_match_at_every_job_count<D, S>(
    label: &str,
    trace: &Trace,
    events_per_segment: usize,
    detector: &D,
    sampler: &S,
    cfg: &CacheConfig,
) where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
    S: Sampler + Clone + Send,
{
    let bytes = v2_bytes(trace, events_per_segment);
    let plain = analyze_segments(&mut open(&bytes), detector, sampler, 1)
        .expect("well-formed traces must analyze");
    let reference = analyze_segments_cached(&mut open(&bytes), detector, sampler, 1, cfg, None)
        .expect("well-formed traces must analyze")
        .cache;
    let reference_bytes = reference.encode();
    let half = reference.entries.len() / 2;
    let prior = prior_for(
        trace,
        half * events_per_segment,
        events_per_segment,
        detector,
        sampler,
        cfg,
    );
    for jobs in [1, 2, 3, 8] {
        let cold = analyze_segments_cached(&mut open(&bytes), detector, sampler, jobs, cfg, None)
            .expect("well-formed traces must analyze");
        let warm = analyze_segments_cached(
            &mut open(&bytes),
            detector,
            sampler,
            jobs,
            cfg,
            Some(&prior),
        )
        .expect("well-formed traces must analyze");
        assert_eq!(cold.reused_segments, 0, "[{label}] jobs={jobs}");
        assert_eq!(warm.reused_segments, half, "[{label}] jobs={jobs}");
        for (run, kind) in [(&cold, "cold"), (&warm, "warm")] {
            assert_eq!(
                run.cache.encode(),
                reference_bytes,
                "[{label}] {kind} jobs={jobs}: sidecar bytes diverged"
            );
            assert_eq!(
                run.analysis.reports, plain.reports,
                "[{label}] {kind} jobs={jobs}"
            );
            assert_eq!(
                run.analysis.counters, plain.counters,
                "[{label}] {kind} jobs={jobs}"
            );
        }
    }
}

#[test]
fn paper_rate_sidecar_bytes_are_the_same_at_every_job_count() {
    let rate = BernoulliSampler::new(0.03, 11);
    for (name, trace) in workload_matrix(240, &[1]) {
        // The fingerprint does not depend on the job count (the CLI
        // writes `jobs: 1` at every `--jobs`).
        assert_sidecar_bytes_match_at_every_job_count(
            &name,
            &trace,
            EVENTS_PER_SEGMENT,
            &OrderedListDetector::new(rate),
            &rate,
            &config("so", "bernoulli:0.03:11", 1),
        );
    }
}

#[test]
fn wide_trace_sidecars_match_where_the_fast_path_hands_records_to_the_grammar() {
    // Thread ids >= 128 and operands >= 16,384 leave the segment
    // decoder's fast path for the record grammar mid-segment.
    let trace = wide_workload(12_000, 5);
    let rate = BernoulliSampler::new(0.03, 11);
    let full = BernoulliSampler::new(1.0, 11);
    let cfg = |engine: &str, sampler: &str| CacheConfig {
        options: "events_per_segment=1024".to_owned(),
        ..config(engine, sampler, 1)
    };
    assert_sidecar_bytes_match_at_every_job_count(
        "wide/so",
        &trace,
        1024,
        &OrderedListDetector::new(rate),
        &rate,
        &cfg("so", "bernoulli:0.03:11"),
    );
    assert_sidecar_bytes_match_at_every_job_count(
        "wide/su",
        &trace,
        1024,
        &FreshnessDetector::new(rate),
        &rate,
        &cfg("su", "bernoulli:0.03:11"),
    );
    assert_sidecar_bytes_match_at_every_job_count(
        "wide/st",
        &trace,
        1024,
        &DjitDetector::new(rate),
        &rate,
        &cfg("st", "bernoulli:0.03:11"),
    );
    assert_sidecar_bytes_match_at_every_job_count(
        "wide/ft",
        &trace,
        1024,
        &FastTrackDetector::new(full),
        &full,
        &cfg("ft", "bernoulli:1:11"),
    );
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

        let cold = analyze_segments_cached(
            &mut open(&long_bytes),
            &detector,
            &sampler,
            jobs,
            &cfg,
            None,
        )
        .unwrap();
        assert_eq!(
            second.analysis.reports, cold.analysis.reports,
            "jobs={jobs}"
        );
        assert_eq!(
            second.analysis.counters, cold.analysis.counters,
            "jobs={jobs}"
        );
        assert_eq!(second.cache, cold.cache, "jobs={jobs}");
    }
}

/// A prior that diverges from the file before its last two boundaries
/// has no state the file can resume from: the run is cold, and its
/// output and rewritten sidecar are the cold run's.
#[test]
fn a_prior_diverging_before_its_last_two_boundaries_runs_cold() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let detector = OrderedListDetector::new(BernoulliSampler::new(0.4, 9));
    let sampler = BernoulliSampler::new(0.4, 9);
    let cfg = config("so", "bernoulli:0.4:9", 1);
    let cold =
        analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 1, &cfg, None).unwrap();
    let total = cold.total_segments;
    assert!(total >= 6);

    // A different first segment: the prior's file had a read where this
    // one has a write.
    let at = trace
        .events()
        .iter()
        .position(|e| matches!(e.kind, EventKind::Write(_)))
        .expect("the workload writes");
    assert!(at < EVENTS_PER_SEGMENT);
    let mut b = TraceBuilder::new();
    for v in 0..trace.var_count() {
        b.var(trace.var_name(v));
    }
    for l in 0..trace.lock_count() {
        b.lock(trace.lock_name(l));
    }
    for (i, event) in trace.events().iter().enumerate() {
        let kind = match event.kind {
            EventKind::Write(var) if i == at => EventKind::Read(var),
            kind => kind,
        };
        b.push(event.tid.as_u32(), kind);
    }
    let other = v2_bytes(&b.build(), EVENTS_PER_SEGMENT);
    let diverged =
        analyze_segments_cached(&mut open(&other), &detector, &sampler, 1, &cfg, None).unwrap();

    // The same file's sidecar with an entry three from the end that no
    // longer matches its segment's identity.
    let mut stale = cold.cache.clone();
    stale.entries[total - 3].crc32 ^= 1;

    for (what, prior) in [("diverged file", &diverged.cache), ("stale entry", &stale)] {
        for jobs in [1, 2] {
            let run = analyze_segments_cached(
                &mut open(&bytes),
                &detector,
                &sampler,
                jobs,
                &cfg,
                Some(prior),
            )
            .unwrap();
            assert_eq!(run.reused_segments, 0, "{what} jobs={jobs}");
            assert_eq!(run.analysis.reports, cold.analysis.reports, "{what}");
            assert_eq!(run.analysis.counters, cold.analysis.counters, "{what}");
            assert_eq!(run.cache, cold.cache, "{what} jobs={jobs}");
        }
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

/// A file that lost its last segment matches its sidecar up to the
/// sidecar's second-to-last boundary, but a run resumed there could not
/// rebuild the state before its own last segment: it runs cold, and its
/// output and sidecar are the shorter file's cold ones.
#[test]
fn a_file_shorter_than_its_sidecar_runs_cold() {
    let trace = emitted(120);
    let detector = OrderedListDetector::new(BernoulliSampler::new(0.4, 9));
    let sampler = BernoulliSampler::new(0.4, 9);
    let cfg = config("so", "bernoulli:0.4:9", 1);
    let segments = 15;
    let full = v2_bytes(
        &prefix_of(&trace, segments * EVENTS_PER_SEGMENT),
        EVENTS_PER_SEGMENT,
    );
    let prior = analyze_segments_cached(&mut open(&full), &detector, &sampler, 1, &cfg, None)
        .unwrap()
        .cache;
    let shorter = v2_bytes(
        &prefix_of(&trace, (segments - 1) * EVENTS_PER_SEGMENT),
        EVENTS_PER_SEGMENT,
    );
    let cold =
        analyze_segments_cached(&mut open(&shorter), &detector, &sampler, 1, &cfg, None).unwrap();
    assert_eq!(
        (prior.entries.len(), cold.total_segments),
        (segments, segments - 1)
    );
    let run = analyze_segments_cached(
        &mut open(&shorter),
        &detector,
        &sampler,
        1,
        &cfg,
        Some(&prior),
    )
    .unwrap();
    assert_eq!(run.reused_segments, 0);
    assert_eq!(run.analysis.reports, cold.analysis.reports);
    assert_eq!(run.analysis.counters, cold.analysis.counters);
    assert_eq!(run.cache, cold.cache);
}

/// Runs a warm analysis from `prior` and asserts it fell back to the
/// cold run, without a panic.
fn assert_falls_back<D>(
    label: &str,
    bytes: &[u8],
    detector: &D,
    sampler: &BernoulliSampler,
    cold: &CachedAnalysis,
    prior: &AnalysisCache,
) where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
{
    // The payloads are opaque to the container: the prior still decodes.
    let prior = AnalysisCache::decode(&prior.encode()).expect("CRC-valid sidecars decode");
    let run = analyze_segments_cached(
        &mut open(bytes),
        detector,
        sampler,
        1,
        &cold.cache.config,
        Some(&prior),
    )
    .unwrap();
    assert_eq!(run.reused_segments, 0, "[{label}]");
    assert_eq!(run.analysis.reports, cold.analysis.reports, "[{label}]");
    assert_eq!(run.analysis.counters, cold.analysis.counters, "[{label}]");
    assert_eq!(run.cache, cold.cache, "[{label}]");
}

/// Every truncation of each opaque payload of the resume point a warm
/// run would import — sync checkpoint, discipline table, counters — and
/// a trailing byte after it, under valid CRCs, demote the run to a cold
/// one. (The access checkpoint has its own test below.)
#[test]
fn malformed_resume_payloads_fall_back_to_a_cold_run() {
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let sampler = BernoulliSampler::new(0.6, 5);
    let so = OrderedListDetector::new(sampler);
    let cold = analyze_segments_cached(
        &mut open(&bytes),
        &so,
        &sampler,
        1,
        &config("so", "bernoulli:0.6:5", 1),
        None,
    )
    .unwrap();
    let last = cold.cache.resume.len() - 1;
    type Field = fn(&mut freshtrack_trace::ResumePoint) -> &mut Vec<u8>;
    let fields: [(&str, Field); 3] = [
        ("sync", |p| &mut p.sync),
        ("discipline", |p| &mut p.discipline),
        ("counters", |p| &mut p.counters),
    ];
    for (name, field) in fields {
        let payload = field(&mut cold.cache.resume[last].clone()).clone();
        assert!(!payload.is_empty(), "{name}");
        let mut mutants: Vec<Vec<u8>> = (0..payload.len()).map(|n| payload[..n].to_vec()).collect();
        mutants.push([&payload[..], &[0]].concat());
        for (i, mutant) in mutants.into_iter().enumerate() {
            let mut prior = cold.cache.clone();
            *field(&mut prior.resume[last]) = mutant;
            assert_falls_back(
                &format!("{name} mutant {i}"),
                &bytes,
                &so,
                &sampler,
                &cold,
                &prior,
            );
        }
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
    D::Access: CheckpointState,
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

/// Asserts that a cold sidecar's resume points hold exactly the live
/// access engine's export after the trace's last two segments.
fn assert_resume_points_hold_live_exports<D>(label: &str, trace: &Trace, detector: &D, rate: f64)
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
{
    let bytes = v2_bytes(trace, EVENTS_PER_SEGMENT);
    let sampler = BernoulliSampler::new(rate, 23);
    let cfg = config(label, &format!("bernoulli:{rate}:23"), 1);
    let cold = analyze_segments_cached(&mut open(&bytes), detector, &sampler, 1, &cfg, None)
        .expect("well-formed traces must analyze");
    let live = live_access_exports(trace, detector);
    assert_eq!(live.len(), cold.cache.entries.len(), "[{label}]");
    assert_eq!(cold.cache.resume.len(), live.len().min(2), "[{label}]");
    let stored: Vec<&Vec<u8>> = cold.cache.resume.iter().map(|p| &p.access).collect();
    let expected: Vec<&Vec<u8>> = live[live.len() - stored.len()..].iter().collect();
    assert_eq!(stored, expected, "[{label}]");
}

#[test]
fn resume_points_hold_the_live_access_export_at_the_last_two_boundaries() {
    for (name, trace) in workload_matrix(240, &[2]) {
        for rate in [0.03, 0.3, 1.0] {
            let sampler = BernoulliSampler::new(rate, 23);
            assert_resume_points_hold_live_exports(
                &format!("{name}/so/{rate}"),
                &trace,
                &OrderedListDetector::new(sampler),
                rate,
            );
            assert_resume_points_hold_live_exports(
                &format!("{name}/su/{rate}"),
                &trace,
                &FreshnessDetector::new(sampler),
                rate,
            );
            assert_resume_points_hold_live_exports(
                &format!("{name}/st/{rate}"),
                &trace,
                &DjitDetector::new(sampler),
                rate,
            );
            assert_resume_points_hold_live_exports(
                &format!("{name}/ft/{rate}"),
                &trace,
                &FastTrackDetector::new(sampler),
                rate,
            );
        }
    }
}

/// A sidecar written under the previous payload version fails the
/// fingerprint and is rebuilt cold: the output and the rewritten sidecar
/// equal a cold run's.
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
    let run = analyze_segments_cached(&mut open(&bytes), &detector, &sampler, 1, &cfg, Some(&v1))
        .unwrap();
    assert_eq!(run.reused_segments, 0);
    assert_eq!(run.analysis.reports, cold.analysis.reports);
    assert_eq!(run.analysis.counters, cold.analysis.counters);
    assert_eq!(run.cache.encode(), cold.cache.encode());
}

/// Malformed access checkpoints in the resume point a warm run imports
/// — a record count that is not the variable count, a nonzero gap
/// before a record, a variable count past the bytes left, and every
/// truncation of the real checkpoint, plus a trailing byte — demote the
/// run to a cold one. `header` is the engine's header before the
/// variable table (`width` for the clock-history engines, nothing for
/// FastTrack's).
fn assert_malformed_records_fall_back<D>(label: &str, detector: &D, engine: &str, header: &[u8])
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: CheckpointState,
{
    let trace = emitted(120);
    let bytes = v2_bytes(&trace, EVENTS_PER_SEGMENT);
    let sampler = BernoulliSampler::new(0.6, 5);
    let cfg = config(engine, "bernoulli:0.6:5", 1);
    let cold =
        analyze_segments_cached(&mut open(&bytes), detector, &sampler, 1, &cfg, None).unwrap();
    let crafted = |fields: &[u64]| {
        let mut out = header.to_vec();
        for &field in fields {
            wire::put_varint(&mut out, field);
        }
        out
    };
    let real = cold.cache.resume.last().unwrap().access.clone();
    let mut mutants = vec![
        // [var count, record count, gap]: fewer records than variables.
        ("record count", crafted(&[1, 0])),
        ("nonzero gap", crafted(&[1, 1, 1])),
        ("count past the bytes", crafted(&[1000, 1000])),
        ("trailing byte", [&real[..], &[0]].concat()),
    ];
    for cut in 0..real.len() {
        mutants.push(("truncation", real[..cut].to_vec()));
    }
    // The prior covers the whole file, so the run would import its
    // last resume point.
    let last = cold.cache.resume.len() - 1;
    for (what, access) in &mutants {
        let mut engine = detector.split_access();
        assert!(
            engine.import_state(access).is_err(),
            "[{label}] {what} imported"
        );
        let mut prior = cold.cache.clone();
        prior.resume[last].access = access.clone();
        assert_falls_back(
            &format!("{label}: {what}"),
            &bytes,
            detector,
            &sampler,
            &cold,
            &prior,
        );
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
