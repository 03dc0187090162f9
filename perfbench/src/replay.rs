//! `replay-archive`: an analyst replaying a recorded trace.
//!
//! A cassandra-shaped corpus trace (16 threads, 24 locks, 512 vars,
//! sync ratio 0.45) is written once as a segmented `.ftb` v2 file at the
//! default segment size, plus a prefix cut at a segment boundary near
//! 95% whose `.ftc` sidecar is written during set-up. Each closed-loop
//! iteration then runs, through the `freshtrack` command entry point:
//! `analyze`, `analyze --jobs 2`, `analyze --cache` with no sidecar,
//! and `analyze --cache` against the prefix's sidecar (the re-analysis
//! after an append).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use freshtrack_core::{
    analyze_segments, analyze_segments_cached, AccessEngine, CheckpointState, Counters, Detector,
    OrderedListDetector, RaceReport, SegmentedAnalysis, SplitDetector, SyncEngine,
    CACHE_STATE_VERSION,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::{
    write_source_binary_v2, write_trace_binary_v2, AnalysisCache, BinaryEventReader, CacheConfig,
    Event, EventKind, EventSource, SegmentOptions, SegmentedTraceFile, SourceError, Trace,
    Validated,
};

use crate::spans::Tracer;
use crate::{
    closed_loop, freshtrack, median, repeated_setup, set_core_counts, Options, Outcome, Run, Tally,
};

const WORKLOAD: &str = "replay-archive";
/// The corpus benchmark the archive is shaped after.
const CORPUS_BENCH: &str = "cassandra";
/// Corpus scale: 5 × 200k = 1M events.
const SCALE: f64 = 5.0;
/// Share of the events in the "before append" prefix.
const PREFIX_SHARE: f64 = 0.95;
/// `analyze`'s default engine, rate and sampler seed.
const ENGINE: &str = "so";
const RATE: f64 = 0.03;
const SAMPLER_SEED: u64 = 0;

/// The detector `analyze` builds by default.
fn detector() -> OrderedListDetector<BernoulliSampler> {
    OrderedListDetector::new(sampler())
}

fn sampler() -> BernoulliSampler {
    BernoulliSampler::new(RATE, SAMPLER_SEED)
}

/// The sidecar fingerprint `analyze --cache` writes for the defaults.
fn cache_config() -> CacheConfig {
    CacheConfig {
        engine: ENGINE.to_owned(),
        sampler: format!("bernoulli:{RATE}:{SAMPLER_SEED}"),
        options: String::new(),
        state_version: CACHE_STATE_VERSION,
        jobs: 1,
    }
}

/// A scratch directory under `.perfbench/`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(seed: u64) -> Result<WorkDir, String> {
        let path = PathBuf::from(".perfbench")
            .join(format!("{WORKLOAD}-seed{seed}-{}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only when no span log or other run's files remain.
        let _ = fs::remove_dir(".perfbench");
    }
}

/// The set-up products the measured loop needs.
struct Archive {
    /// The full trace file.
    full: String,
    /// The prefix's sidecar, copied over before each re-analysis.
    prefix_cache: String,
    events: u64,
    /// `analyze`'s expected stdout, from `Detector::run` over the
    /// in-memory trace.
    reference: Vec<u8>,
}

/// Streams the first `left` events of a source.
struct Prefix<S> {
    inner: S,
    left: u64,
}

impl<S: EventSource> EventSource for Prefix<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        self.inner.next_event()
    }
    fn declared_threads(&self) -> u32 {
        self.inner.declared_threads()
    }
    fn observed_threads(&self) -> u32 {
        self.inner.observed_threads()
    }
    fn lock_count(&self) -> usize {
        self.inner.lock_count()
    }
    fn var_count(&self) -> usize {
        self.inner.var_count()
    }
    fn lock_name(&self, index: usize) -> &str {
        self.inner.lock_name(index)
    }
    fn var_name(&self, index: usize) -> &str {
        self.inner.var_name(index)
    }
}

/// `analyze`'s stdout for a finished analysis (the CLI's format).
fn render<'a>(
    name: &str,
    counters: &Counters,
    reports: &[RaceReport],
    var_name: impl Fn(usize) -> &'a str,
) -> Vec<u8> {
    use std::io::Write;
    let mut out = Vec::new();
    let _ = writeln!(
        out,
        "{name} over {} events ({} sampled, {} skipped, skip {:.1}%): {} race report(s)",
        counters.events,
        counters.sampled_accesses,
        counters.skipped_accesses(),
        100.0 * counters.skip_ratio(),
        reports.len()
    );
    for r in reports {
        let _ = writeln!(
            out,
            "  {} at event {}: {} of `{}` unordered with earlier {}",
            r.tid,
            r.event,
            r.access,
            var_name(r.var.index()),
            match (r.with_write, r.with_read) {
                (true, true) => "write and read",
                (true, false) => "write",
                _ => "read",
            }
        );
    }
    out
}

fn render_analysis(analysis: &SegmentedAnalysis) -> Vec<u8> {
    render(
        detector().name(),
        &analysis.counters,
        &analysis.reports,
        |v| analysis.var_names[v].as_str(),
    )
}

/// Builds the archive from the seed: generate, encode the full file
/// and the prefix, write the prefix's sidecar (the one `analyze
/// --cache` writes), and compute the reference output.
fn set_up(
    seed: u64,
    scale: f64,
    dir: &WorkDir,
    tracer: &Tracer,
) -> Result<(Archive, Trace), String> {
    let bench = freshtrack_workloads::corpus::by_name(CORPUS_BENCH)
        .ok_or("the corpus lacks the cassandra benchmark")?;
    let trace = tracer.span("workloads.generate", || bench.trace(scale, seed));
    let events = trace.len() as u64;
    let options = SegmentOptions::default();

    let full = dir.file("full.ftb");
    let bytes = tracer.span("trace.encode_v2", || {
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &options).map(|()| bytes)
    });
    let bytes = bytes.map_err(|e| format!("encode: {e}"))?;
    fs::write(&full, bytes).map_err(|e| format!("cannot write {full}: {e}"))?;

    let per_segment = options.events_per_segment as u64;
    let cut = (events as f64 * PREFIX_SHARE) as u64 / per_segment * per_segment;
    let prefix = dir.file("prefix.ftb");
    let mut bytes = Vec::new();
    write_source_binary_v2(
        &mut Prefix {
            inner: trace.source(),
            left: cut,
        },
        &mut bytes,
        &options,
    )
    .map_err(|e| format!("encode prefix: {e}"))?;
    fs::write(&prefix, bytes).map_err(|e| format!("cannot write {prefix}: {e}"))?;
    let prefix_cache = dir.file("prefix.ftc");
    let cached = open_segmented(&prefix).and_then(|mut seg| {
        analyze_segments_cached(&mut seg, &detector(), &sampler(), 1, &cache_config(), None)
            .map_err(|e| format!("prefix sidecar: {e}"))
    })?;
    fs::write(&prefix_cache, cached.cache.encode())
        .map_err(|e| format!("cannot write {prefix_cache}: {e}"))?;
    flush(&[&full, &prefix, &prefix_cache]);

    let reference = tracer.span("core.reference", || {
        let mut d = detector();
        let reports = d.run(&trace);
        render(d.name(), d.counters(), &reports, |v| trace.var_name(v))
    });
    Ok((
        Archive {
            full,
            prefix_cache,
            events,
            reference,
        },
        trace,
    ))
}

/// The full-scale set-up, then one warm-up `analyze`.
fn warm_set_up(seed: u64, dir: &WorkDir, tracer: &Tracer) -> Result<(Archive, Trace), String> {
    let (archive, trace) = set_up(seed, SCALE, dir, tracer)?;
    freshtrack(&["analyze", &archive.full]);
    Ok((archive, trace))
}

/// Writes the files' dirty pages back, so their writeback does not
/// overlap the next timed run.
fn flush(paths: &[&str]) {
    for path in paths {
        if let Ok(file) = fs::File::open(path) {
            let _ = file.sync_all();
        }
    }
}

/// Whether a `freshtrack` run exited 0 with the reference output.
fn matches(run: &Run, reference: &[u8]) -> bool {
    run.code == 0 && run.stdout == reference
}

/// Counts one iteration's four `analyze` runs (plain, `--jobs 2`,
/// cold cache, cache after the append) into `tally`. Every output must
/// equal the reference, and the sidecar rewritten after the append
/// must equal the cold run's (invariant 11).
fn check_iteration(tally: &mut Tally, runs: [&Run; 4], same_sidecar: bool, reference: &[u8]) {
    let [a, b, c, d] = runs;
    tally.check(matches(a, reference), "analyze output");
    tally.check(matches(b, reference), "analyze --jobs 2 output");
    tally.check(matches(c, reference), "analyze --cache (cold) output");
    tally.check(
        same_sidecar && matches(d, reference),
        "analyze --cache (after append) output and sidecar",
    );
}

/// The end-to-end run (`--trace 0`).
pub fn measure(options: &Options) -> Result<Outcome, String> {
    let dir = WorkDir::create(options.seed)?;
    let setup_spans = Tracer::new();
    let ((archive, trace), setup_s) =
        repeated_setup(|| warm_set_up(options.seed, &dir, &setup_spans))?;
    drop(trace);
    let cold_cache = dir.file("cold.ftc");
    let warm_cache = dir.file("warm.ftc");
    let full = archive.full.as_str();
    let reference = archive.reference.as_slice();

    let mut tally = Tally::default();
    let (mut plain, mut jobs2, mut cold_ratio, mut reanalyze, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    closed_loop(options.seconds, |i| {
        let a = freshtrack(&["analyze", full]);
        let b = freshtrack(&["analyze", full, "--jobs", "2"]);
        let _ = fs::remove_file(&cold_cache);
        let c = freshtrack(&["analyze", full, &format!("--cache={cold_cache}")]);
        let copied = fs::copy(&archive.prefix_cache, &warm_cache).is_ok();
        flush(&[&cold_cache, &warm_cache]);
        let d = freshtrack(&["analyze", full, &format!("--cache={warm_cache}")]);
        flush(&[&warm_cache]);
        rss.push([&a, &b, &c, &d].iter().map(|r| r.peak_rss_mib).sum::<f64>() / 4.0);
        let same_sidecar = copied && fs::read(&cold_cache).ok() == fs::read(&warm_cache).ok();
        check_iteration(&mut tally, [&a, &b, &c, &d], same_sidecar, reference);
        eprintln!(
            "perfbench: iteration {i}: analyze {:.3}s, --jobs 2 {:.3}s, cold cache {:.3}s, \
             after append {:.3}s; peak RSS {:.1}/{:.1}/{:.1}/{:.1} MiB",
            a.seconds,
            b.seconds,
            c.seconds,
            d.seconds,
            a.peak_rss_mib,
            b.peak_rss_mib,
            c.peak_rss_mib,
            d.peak_rss_mib
        );
        plain.push(a.seconds);
        jobs2.push(b.seconds);
        cold_ratio.push(c.seconds / a.seconds);
        reanalyze.push(d.seconds);
    });
    eprintln!(
        "perfbench: {WORKLOAD}: {} events, {} iterations",
        archive.events,
        plain.len()
    );

    let mev = archive.events as f64 / 1e6;
    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    out.set("mevps", mev / median(&plain));
    out.set("parallel_mevps", mev / median(&jobs2));
    out.set("overhead_x", median(&cold_ratio));
    out.set("latency_p50_ms", median(&reanalyze) * 1e3);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mib", median(&rss));
    Ok(out)
}

/// Per-call time spent in the split engines during one replay.
#[derive(Default)]
struct CallTimes {
    acquire_ns: u64,
    release_ns: u64,
    access_ns: u64,
    accesses: u64,
}

type Det = OrderedListDetector<BernoulliSampler>;

/// One sequential pass of the trace through the split sync and access
/// engines, exactly as the segmented replay drives them; with `TIMED`,
/// each call is timed.
fn split_replay<const TIMED: bool>(
    trace: &Trace,
    det: &Det,
) -> (
    Counters,
    CallTimes,
    <Det as SplitDetector>::Sync,
    <Det as SplitDetector>::Access,
) {
    let mut sync = det.split_sync();
    let mut access = det.split_access();
    let mut pending: Vec<bool> = Vec::new();
    let mut counters = Counters::new();
    let mut times = CallTimes::default();
    let clock = || TIMED.then(Instant::now);
    let since = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
    for (id, event) in trace.iter() {
        counters.events += 1;
        let tid = event.tid;
        if pending.len() <= tid.index() {
            pending.resize(tid.index() + 1, false);
        }
        match event.kind {
            EventKind::Acquire(lock) => {
                let t = clock();
                sync.ensure_thread(tid);
                sync.acquire(tid, lock, &mut counters);
                times.acquire_ns += since(t);
            }
            EventKind::Release(lock) => {
                let sampled = std::mem::take(&mut pending[tid.index()]);
                let t = clock();
                sync.ensure_thread(tid);
                sync.release(tid, lock, sampled, &mut counters);
                times.release_ns += since(t);
            }
            EventKind::Read(_) | EventKind::Write(_) => {
                let t = clock();
                if access.decide(id, event) {
                    sync.ensure_thread(tid);
                    pending[tid.index()] = true;
                    let view = sync.publish(tid);
                    access.access_sampled(id, event, &view, &mut counters);
                } else if matches!(event.kind, EventKind::Read(_)) {
                    counters.reads += 1;
                } else {
                    counters.writes += 1;
                }
                times.access_ns += since(t);
                times.accesses += 1;
            }
        }
    }
    (counters, times, sync, access)
}

/// Drains a source, returning how many events it yielded.
fn drain(source: &mut dyn EventSource) -> Result<u64, SourceError> {
    let mut n = 0;
    while source.next_event()?.is_some() {
        n += 1;
    }
    Ok(n)
}

fn open_segmented(path: &str) -> Result<SegmentedTraceFile<fs::File>, String> {
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    SegmentedTraceFile::open(file).map_err(|e| format!("{path}: {e}"))
}

fn open_reader(path: &str) -> Result<BinaryEventReader<fs::File>, String> {
    let file = fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    BinaryEventReader::new(file).map_err(|e| format!("{path}: {e}"))
}

/// Per-iteration values of the traced run that are not plain span
/// medians.
#[derive(Default)]
struct Traced {
    acquire_ns: Vec<f64>,
    release_ns: Vec<f64>,
    access_ns: Vec<f64>,
    cli_overhead_s: Vec<f64>,
    overhead_pct: Vec<f64>,
    unexplained_pct: Vec<f64>,
    counters: Counters,
    encoded_bytes: usize,
    checkpoint_bytes: (usize, usize),
    sidecar_bytes: usize,
    reused: (usize, usize),
    output_bytes: usize,
}

/// The traced run (`--trace 1`): spans around the calls into each
/// layer, medians over iterations.
pub fn trace(options: &Options) -> Result<Outcome, String> {
    let dir = WorkDir::create(options.seed)?;
    let tracer = Tracer::new();
    let ((archive, trace), _) = repeated_setup(|| warm_set_up(options.seed, &dir, &tracer))?;
    let full = archive.full.as_str();
    let reference = archive.reference.as_slice();
    let prior = fs::read(&archive.prefix_cache)
        .map_err(|e| format!("{}: {e}", archive.prefix_cache))
        .and_then(|b| AnalysisCache::decode(&b).map_err(|e| format!("prefix sidecar: {e}")))?;
    let det = detector();
    let config = cache_config();

    let mut tally = Tally::default();
    let mut t = Traced::default();
    closed_loop(options.seconds, |i| {
        tracer.set_iteration(i);
        let encoded = tracer.span("trace.encode_v2", || {
            let mut bytes = Vec::new();
            write_trace_binary_v2(&trace, &mut bytes, &SegmentOptions::default()).map(|()| bytes)
        });
        t.encoded_bytes = encoded.map_or(0, |b| b.len());
        for _ in 0..5 {
            let opened = tracer.span("trace.open", || open_segmented(full));
            tally.check(opened.is_ok(), "SegmentedTraceFile::open");
        }
        let decoded = tracer.span("trace.decode", || {
            open_reader(full).and_then(|mut r| drain(&mut r).map_err(|e| e.to_string()))
        });
        tally.check(decoded == Ok(archive.events), "decode-only pass");
        let validated = tracer.span("trace.validate", || {
            open_reader(full).and_then(|r| drain(&mut Validated::new(r)).map_err(|e| e.to_string()))
        });
        tally.check(validated == Ok(archive.events), "validated pass");

        let (detected, counters) = tracer.span("core.detect", || {
            let mut d = detector();
            let reports = d.run(&trace);
            (
                render(d.name(), d.counters(), &reports, |v| trace.var_name(v)),
                *d.counters(),
            )
        });
        tally.check(detected == reference, "Detector::run output");
        t.counters = counters;

        let (plain_counters, ..) =
            tracer.span("core.split_replay", || split_replay::<false>(&trace, &det));
        let (timed_counters, times, sync, access) = tracer.span("core.split_replay_timed", || {
            split_replay::<true>(&trace, &det)
        });
        tally.check(
            plain_counters == counters && timed_counters == counters,
            "split replay counters",
        );
        let per_call = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
        t.acquire_ns
            .push(per_call(times.acquire_ns, counters.acquires));
        t.release_ns
            .push(per_call(times.release_ns, counters.releases));
        t.access_ns.push(per_call(times.access_ns, times.accesses));
        let untimed = *tracer.seconds("core.split_replay").last().unwrap_or(&0.0);
        let timed = *tracer
            .seconds("core.split_replay_timed")
            .last()
            .unwrap_or(&0.0);
        t.overhead_pct.push(100.0 * (timed - untimed) / untimed);

        let (sync_state, access_state) = tracer.span("checkpoint.export", || {
            let (mut s, mut a) = (Vec::new(), Vec::new());
            sync.export_state(&mut s);
            access.export_state(&mut a);
            (s, a)
        });
        t.checkpoint_bytes = (sync_state.len(), access_state.len());
        let imported = tracer.span("checkpoint.import", || {
            let mut s = det.split_sync();
            let mut a = det.split_access();
            s.import_state(&sync_state)
                .and_then(|()| a.import_state(&access_state))
        });
        tally.check(imported.is_ok(), "checkpoint import");

        for (jobs, name) in [(1, "parallel.jobs1"), (2, "parallel.jobs2")] {
            let analysis = open_segmented(full).and_then(|mut seg| {
                tracer.span(name, || {
                    analyze_segments(&mut seg, &det, &sampler(), jobs).map_err(|e| e.to_string())
                })
            });
            tally.check(
                analysis.map(|a| render_analysis(&a)).as_deref() == Ok(reference),
                name,
            );
        }

        let cold = open_segmented(full).and_then(|mut seg| {
            tracer.span("cache.cold", || {
                analyze_segments_cached(&mut seg, &det, &sampler(), 1, &config, None)
                    .map_err(|e| e.to_string())
            })
        });
        let warm = open_segmented(full).and_then(|mut seg| {
            tracer.span("cache.warm", || {
                analyze_segments_cached(&mut seg, &det, &sampler(), 1, &config, Some(&prior))
                    .map_err(|e| e.to_string())
            })
        });
        match (cold, warm) {
            (Ok(cold), Ok(warm)) => {
                let bytes = tracer.span("cache.encode", || cold.cache.encode());
                let decoded = tracer.span("cache.decode", || AnalysisCache::decode(&bytes));
                t.sidecar_bytes = bytes.len();
                t.reused = (warm.reused_segments, warm.total_segments);
                tally.check(
                    render_analysis(&cold.analysis) == reference
                        && decoded.as_ref().ok() == Some(&cold.cache),
                    "cached analysis (cold) and sidecar round trip",
                );
                tally.check(
                    render_analysis(&warm.analysis) == reference
                        && warm.cache.encode() == bytes
                        && warm.reused_segments > 0,
                    "cached analysis (after append) reuses the prefix",
                );
            }
            (cold, warm) => {
                tally.check(cold.is_ok(), "cached analysis (cold)");
                tally.check(warm.is_ok(), "cached analysis (after append)");
            }
        }

        let cli = tracer.span("cli.analyze", || freshtrack(&["analyze", full]));
        tally.check(matches(&cli, reference), "freshtrack analyze output");
        t.output_bytes = cli.stdout.len();
        let library = tracer.span("cli.library_analyze", || {
            open_reader(full).and_then(|r| {
                let mut source = Validated::new(r);
                let mut d = detector();
                let reports = d.run_source(&mut source).map_err(|e| e.to_string())?;
                Ok(render(d.name(), d.counters(), &reports, |v| {
                    source.var_name(v)
                }))
            })
        });
        tally.check(
            library.as_deref() == Ok(reference),
            "library analyze output",
        );
        let last = |name: &str| *tracer.seconds(name).last().unwrap_or(&0.0);
        let (cli_s, library_s) = (last("cli.analyze"), last("cli.library_analyze"));
        t.cli_overhead_s.push(cli_s - library_s);
        // What decode + validation, detection and the CLI leave
        // unexplained of the end-to-end `analyze`.
        let explained = last("trace.validate") + last("core.detect") + (cli_s - library_s);
        t.unexplained_pct.push(100.0 * (cli_s - explained) / cli_s);
    });
    tracer.save(WORKLOAD, options.seed);

    let mev = archive.events as f64 / 1e6;
    let c = &t.counters;
    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    let rate = |name: &str| mev / tracer.median_s(name);
    out.set(
        "workloads.generate_s",
        tracer.median_s("workloads.generate"),
    );
    out.set("trace.encode_v2_mevps", rate("trace.encode_v2"));
    out.set("trace.decode_mevps", rate("trace.decode"));
    out.set("trace.validate_mevps", rate("trace.validate"));
    out.set(
        "trace.bytes_per_event",
        t.encoded_bytes as f64 / archive.events as f64,
    );
    out.set("trace.open_us", tracer.median_s("trace.open") * 1e6);
    out.set(
        "sampling.sampled_frac",
        c.sampled_accesses as f64 / c.accesses().max(1) as f64,
    );
    out.set("core.acquire_ns", median(&t.acquire_ns));
    out.set("core.release_ns", median(&t.release_ns));
    out.set("core.access_ns", median(&t.access_ns));
    set_core_counts(&mut out, c);
    out.set("core.detect_mevps", rate("core.detect"));
    out.set("parallel.jobs1_mevps", rate("parallel.jobs1"));
    out.set("parallel.jobs2_mevps", rate("parallel.jobs2"));
    out.set(
        "parallel.jobs2_speedup",
        tracer.median_s("parallel.jobs1") / tracer.median_s("parallel.jobs2"),
    );
    out.set("checkpoint.sync_bytes", t.checkpoint_bytes.0 as f64);
    out.set("checkpoint.access_bytes", t.checkpoint_bytes.1 as f64);
    out.set(
        "checkpoint.export_us",
        tracer.median_s("checkpoint.export") * 1e6,
    );
    out.set(
        "checkpoint.import_us",
        tracer.median_s("checkpoint.import") * 1e6,
    );
    out.set("cache.cold_mevps", rate("cache.cold"));
    out.set("cache.warm_ms", tracer.median_s("cache.warm") * 1e3);
    out.set("cache.encode_ms", tracer.median_s("cache.encode") * 1e3);
    out.set("cache.decode_ms", tracer.median_s("cache.decode") * 1e3);
    out.set("cache.sidecar_bytes", t.sidecar_bytes as f64);
    out.set("cache.reused_segments", t.reused.0 as f64);
    out.set("cache.total_segments", t.reused.1 as f64);
    out.set("cli.analyze_mevps", rate("cli.analyze"));
    out.set("cli.overhead_ms", median(&t.cli_overhead_s) * 1e3);
    out.set("cli.output_bytes", t.output_bytes as f64);
    out.set("tracing.overhead_pct", median(&t.overhead_pct));
    out.set("tracing.unexplained_pct", median(&t.unexplained_pct));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `freshtrack analyze` in this process: the test binary cannot
    /// stand in for the `freshtrack` child.
    fn analyze(path: &str) -> Run {
        let mut stdout = Vec::new();
        let code = freshtrack_cli::run(&["analyze".to_owned(), path.to_owned()], &mut stdout);
        Run {
            code,
            stdout,
            seconds: 0.0,
            peak_rss_mib: 0.0,
        }
    }

    #[test]
    fn a_corrupted_analyze_output_counts_as_failed() {
        let dir = WorkDir::create(u64::MAX).unwrap();
        let (archive, _) = set_up(3, 0.5, &dir, &Tracer::new()).unwrap();
        let run = analyze(&archive.full);
        let mut tally = Tally::default();
        check_iteration(
            &mut tally,
            [&run, &run, &run, &run],
            true,
            &archive.reference,
        );
        assert_eq!((tally.attempted, tally.failed), (4, 0));

        let mut corrupted = run.clone();
        let last = corrupted.stdout.len() - 2;
        corrupted.stdout[last] ^= 1;
        check_iteration(
            &mut tally,
            [&run, &corrupted, &run, &run],
            true,
            &archive.reference,
        );
        assert_eq!((tally.attempted, tally.failed), (8, 1));
        check_iteration(
            &mut tally,
            [&run, &run, &run, &run],
            false,
            &archive.reference,
        );
        assert_eq!((tally.attempted, tally.failed), (12, 2));
    }
}
