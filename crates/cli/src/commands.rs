use std::io::{Read, Write};

use freshtrack_core::{
    analyze_segments, analyze_segments_cached, CheckpointState, Counters, HbOracle,
    NaiveSamplingDetector, OracleConfig, RaceReport, SplitDetector, StreamingOracle, SyncMode,
    CACHE_STATE_VERSION,
};
use freshtrack_dbsim::{run_detector, run_sharded, RunOptions};
use freshtrack_rapid::report::{pct, Table};
use freshtrack_rapid::{run_engine_source, EngineConfig, EngineKind, EngineVisitor};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_trace::{
    is_binary_trace, write_source, write_source_binary, write_source_binary_v2, write_trace,
    AnalysisCache, BinaryEventReader, CacheConfig, EventReader, EventSource, SegmentOptions,
    SegmentedTraceFile, Trace, TraceStats, Validated,
};
use freshtrack_workloads::{benchbase, corpus, generate, Pattern, WorkloadConfig, MAX_SYNC_RATIO};

use crate::{ArgError, Args, USAGE};

/// Runs the CLI with the given arguments (excluding the program name),
/// writing to `out`. Returns the process exit code.
///
/// Everything a command prints goes through one buffer, flushed before
/// returning on every path: stdout is line-buffered even to a pipe, so
/// unbuffered report lines would cost one `write` call each.
pub fn run<W: std::io::Write>(raw: &[String], out: &mut W) -> i32 {
    let mut out = std::io::BufWriter::new(out);
    let code = match dispatch(raw, &mut out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            let _ = writeln!(out, "run `freshtrack help` for usage");
            1
        }
    };
    let _ = out.flush();
    code
}

/// The flags and value options one command reads. Parsing rejects
/// every other `--name`, so a misspelt or retired option fails loudly
/// instead of being silently ignored.
struct Vocabulary {
    flags: &'static [&'static str],
    options: &'static [&'static str],
}

impl Vocabulary {
    fn parse(&self, rest: &[String]) -> Result<Args, ArgError> {
        Args::parse(rest.iter().cloned(), self.flags, self.options)
    }
}

const ANALYZE: Vocabulary = Vocabulary {
    flags: &["counters", "cache", "no-cache"],
    options: &["engine", "rate", "seed", "jobs", "cache"],
};
const ORACLE: Vocabulary = Vocabulary {
    flags: &["stream", "stats"],
    options: &["rate", "seed", "window", "reservoir"],
};
const STATS: Vocabulary = Vocabulary {
    flags: &[],
    options: &[],
};
const CONVERT: Vocabulary = Vocabulary {
    flags: &[],
    options: &["to", "segment-events"],
};
const SEGMENTS: Vocabulary = Vocabulary {
    flags: &["cache"],
    options: &["cache"],
};
const GENERATE: Vocabulary = Vocabulary {
    flags: &[],
    options: &[
        "pattern",
        "events",
        "threads",
        "locks",
        "vars",
        "sync-ratio",
        "unprotected",
        "seed",
    ],
};
const CORPUS: Vocabulary = Vocabulary {
    flags: &["list"],
    options: &["bench", "scale", "seed"],
};
const DBSIM: Vocabulary = Vocabulary {
    flags: &[],
    options: &["mix", "engine", "rate", "workers", "txns", "seed", "shards"],
};

fn dispatch<W: std::io::Write>(raw: &[String], out: &mut W) -> Result<(), ArgError> {
    let Some((command, rest)) = raw.split_first() else {
        let _ = write!(out, "{USAGE}");
        return Ok(());
    };
    match command.as_str() {
        "analyze" => analyze(rest, out),
        "oracle" => oracle(rest, out),
        "stats" => stats(rest, out),
        "convert" => convert(rest, out),
        "segments" => segments_cmd(rest, out),
        "generate" => generate_cmd(rest, out),
        "corpus" => corpus_cmd(rest, out),
        "dbsim" => dbsim_cmd(rest, out),
        "help" | "--help" | "-h" => {
            let _ = write!(out, "{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command `{other}`"))),
    }
}

/// Opens `path` (or stdin for `-`) as an [`EventSource`], sniffing the
/// text vs binary format from the first bytes
/// ([`BINARY_MAGIC`](freshtrack_trace::BINARY_MAGIC)).
fn open_input(path: &str) -> Result<Box<dyn EventSource>, ArgError> {
    let mut reader: Box<dyn Read> = if path == "-" {
        Box::new(std::io::stdin())
    } else {
        Box::new(
            std::fs::File::open(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?,
        )
    };
    // Sniff up to 8 bytes, then stitch them back in front: stdin
    // cannot be reopened, so detection must not consume the stream.
    let mut head = [0u8; 8];
    let mut sniffed = 0;
    while sniffed < head.len() {
        match reader.read(&mut head[sniffed..]) {
            Ok(0) => break,
            Ok(n) => sniffed += n,
            Err(e) => return Err(ArgError(format!("cannot read {path}: {e}"))),
        }
    }
    let binary = is_binary_trace(&head[..sniffed]);
    let stitched = std::io::Cursor::new(head[..sniffed].to_vec()).chain(reader);
    Ok(if binary {
        Box::new(BinaryEventReader::new(stitched).map_err(|e| ArgError(format!("{path}: {e}")))?)
    } else {
        Box::new(EventReader::new(stitched))
    })
}

fn input_path(args: &Args) -> Result<&str, ArgError> {
    args.positional()
        .first()
        .map(String::as_str)
        .ok_or_else(|| ArgError("expected a trace file argument (or `-` for stdin)".into()))
}

/// A boxed input stream with the streaming lock-discipline check.
type ValidatedInput = Validated<Box<dyn EventSource>>;

/// Opens the positional trace argument as a discipline-checked stream.
fn open_validated(args: &Args) -> Result<(ValidatedInput, &str), ArgError> {
    let path = input_path(args)?;
    Ok((Validated::new(open_input(path)?), path))
}

/// The probability option `--name` (`default` when absent), checked to
/// lie in `[0, 1]` — NaN and out-of-range values are errors, not a
/// sampler panic or a silent clamp.
fn fraction(args: &Args, name: &str, default: f64) -> Result<f64, ArgError> {
    let value: f64 = args.get_or(name, default)?;
    if !(0.0..=1.0).contains(&value) {
        return Err(ArgError(format!("--{name} must be in [0,1], got {value}")));
    }
    Ok(value)
}

/// The `--engine` option (`default` when absent), parsed by the engine
/// table before any input is opened.
fn engine_kind(args: &Args, default: EngineKind) -> Result<EngineKind, ArgError> {
    args.get("engine")
        .map_or(Ok(default), EngineKind::from_cli_name)
        .map_err(ArgError)
}

fn analyze<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = ANALYZE.parse(rest)?;
    let engine = engine_kind(&args, EngineKind::So)?;
    let rate = fraction(&args, "rate", 0.03)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err(ArgError("--jobs must be at least 1".into()));
    }
    let cached = (args.flag("cache") || args.get("cache").is_some()) && !args.flag("no-cache");
    let path = input_path(&args)?;
    let segmented = if cached || jobs >= 2 {
        if path == "-" {
            let option = if cached { "--cache" } else { "--jobs" };
            return Err(ArgError(format!(
                "{option} needs a seekable segmented file, not stdin (pipe through \
                 `convert --to binary-v2` first)"
            )));
        }
        Some(open_segmented(path)?)
    } else if path != "-" && engine.has_split() {
        // A segmented file decodes ahead on the pipeline, which also
        // checks every segment's CRC; anything else (stdin, text, v1, a
        // file whose footer does not open, `sam`) streams below.
        open_segmented(path).ok()
    } else {
        None
    };
    if let Some(mut seg) = segmented {
        let sidecar = cached.then(|| {
            let path = cache_path_for(&args, path);
            let prior = std::fs::read(&path)
                .ok()
                .and_then(|bytes| AnalysisCache::decode(&bytes).ok());
            Sidecar { path, prior }
        });
        let run = Segmented {
            seg: &mut seg,
            out,
            path,
            engine,
            jobs,
            counters: args.flag("counters"),
            sidecar,
        };
        return engine.visit(rate, seed, run);
    }

    // The trace streams through the engine in constant memory; event
    // ids are stream positions, so text, binary, and stdin inputs all
    // produce byte-identical reports.
    let (mut source, path) = open_validated(&args)?;
    let run = run_engine_source(&mut source, &EngineConfig::new(engine, rate, seed))
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    print_analysis(
        run.name,
        &run.counters,
        &run.reports,
        |v| source.var_name(v),
        args.flag("counters"),
        out,
    );
    Ok(())
}

/// Prints an `analyze` result: the summary line, one line per report
/// and, with `--counters`, the counters. The streaming, parallel and
/// cached routes all print through here, so for the same analysis they
/// print the same bytes (the parallel and cached modes are
/// optimizations, never different results).
fn print_analysis<'a, W: std::io::Write>(
    name: &str,
    counters: &Counters,
    reports: &[RaceReport],
    var_name: impl Fn(usize) -> &'a str,
    counters_flag: bool,
    out: &mut W,
) {
    let _ = writeln!(
        out,
        "{name} over {} events ({} sampled, {} skipped, skip {:.1}%): {} race report(s)",
        counters.events,
        counters.sampled_accesses,
        counters.skipped_accesses(),
        100.0 * counters.skip_ratio(),
        reports.len()
    );
    for report in reports {
        let _ = writeln!(
            out,
            "  {} at event {}: {} of `{}` unordered with earlier {}",
            report.tid,
            report.event,
            report.access,
            var_name(report.var.index()),
            match (report.with_write, report.with_read) {
                (true, true) => "write and read",
                (true, false) => "write",
                _ => "read",
            }
        );
    }
    if counters_flag {
        let _ = writeln!(out, "{counters}");
    }
}

/// The sidecar path for a trace: an explicit `--cache=PATH`, else the
/// trace path with `.ftb` swapped for `.ftc` (or `.ftc` appended).
fn cache_path_for(args: &Args, trace_path: &str) -> String {
    match args.get("cache") {
        Some(explicit) => explicit.to_owned(),
        None => match trace_path.strip_suffix(".ftb") {
            Some(stem) => format!("{stem}.ftc"),
            None => format!("{trace_path}.ftc"),
        },
    }
}

/// The sampler identity string for the cache fingerprint. Samplers are
/// pure in (seed, event id), so rate + seed pin every decision.
fn sampler_identity(sampler: &BernoulliSampler) -> String {
    format!("bernoulli:{}:{}", sampler.rate(), sampler.seed())
}

/// Opens `path` as a segmented `.ftb` v2 file via its footer index.
fn open_segmented(path: &str) -> Result<SegmentedTraceFile<std::fs::File>, ArgError> {
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    SegmentedTraceFile::open(file).map_err(|e| ArgError(format!("{path}: {e}")))
}

/// The sidecar a cached run reads and rewrites.
struct Sidecar {
    path: String,
    /// The advisory prior sidecar: unreadable or malformed means a cold
    /// run.
    prior: Option<AnalysisCache>,
}

/// `analyze` over a segmented `.ftb` v2 file with `jobs` decoder
/// threads, and with a sidecar, incremental re-analysis against it (the
/// rewritten sidecar covering the whole file is saved back). Stdout is
/// byte-identical to the streaming path at every job count, cached or
/// not (cache status goes to stderr).
struct Segmented<'a, W> {
    seg: &'a mut SegmentedTraceFile<std::fs::File>,
    out: &'a mut W,
    path: &'a str,
    engine: EngineKind,
    jobs: usize,
    counters: bool,
    sidecar: Option<Sidecar>,
}

impl<W: std::io::Write> EngineVisitor for Segmented<'_, W> {
    type Output = Result<(), ArgError>;

    fn split<D>(self, detector: D, sampler: BernoulliSampler) -> Self::Output
    where
        D: SplitDetector + 'static,
        D::Sync: CheckpointState,
        D::Access: CheckpointState,
    {
        let failed = |e| ArgError(format!("{}: {e}", self.path));
        let analysis = match &self.sidecar {
            None => analyze_segments(self.seg, &detector, &sampler, self.jobs).map_err(failed)?,
            Some(sidecar) => {
                // The analysis state is the same at every job count,
                // so the fingerprint pins `jobs` to 1 and any
                // `--jobs` reuses it.
                let config = CacheConfig {
                    engine: self
                        .engine
                        .cli_name()
                        .expect("parsed from its CLI name")
                        .into(),
                    sampler: sampler_identity(&sampler),
                    options: String::new(),
                    state_version: CACHE_STATE_VERSION,
                    jobs: 1,
                };
                let run = analyze_segments_cached(
                    self.seg,
                    &detector,
                    &sampler,
                    self.jobs,
                    &config,
                    sidecar.prior.as_ref(),
                )
                .map_err(failed)?;
                // Status on stderr so stdout stays byte-identical to
                // the uncached path (the CI smoke step diffs the two).
                eprintln!(
                    "cache: reused {}/{} segment(s) via {}",
                    run.reused_segments, run.total_segments, sidecar.path
                );
                if let Err(e) = write_atomically(&sidecar.path, &run.cache.encode()) {
                    eprintln!("warning: cannot write analysis cache {}: {e}", sidecar.path);
                }
                run.analysis
            }
        };
        print_analysis(
            detector.name(),
            &analysis.counters,
            &analysis.reports,
            |v| analysis.var_names[v].as_str(),
            self.counters,
            self.out,
        );
        Ok(())
    }

    fn sam(self, _: NaiveSamplingDetector<BernoulliSampler>) -> Self::Output {
        Err(ArgError(
            if self.sidecar.is_some() {
                "engine `sam` has no sync/access split and cannot use the segmented \
                 analysis cache"
            } else {
                "engine `sam` has no sync/access split and cannot run with --jobs >= 2"
            }
            .into(),
        ))
    }
}

/// Replaces the file at `path` with `bytes` atomically: the bytes go to
/// a temporary file in the same directory, named after this process,
/// which is then renamed over `path`. A crashed or concurrent run
/// therefore never leaves a torn file behind — readers see the old
/// bytes or the new ones. On failure the temporary file is removed and
/// `path` is left as it was.
///
/// There is deliberately no `fsync`: the sidecar is advisory, so a
/// file lost to power failure costs one cold run, never a wrong answer.
fn write_atomically(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let name = target
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "not a file path"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = target.with_file_name(tmp_name);
    let result = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, target));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn convert<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = CONVERT.parse(rest)?;
    let path = input_path(&args)?;
    let to: String = args.require("to")?;
    // Conversion is a pure re-encoding pipe: the input streams straight
    // into the opposite writer, declarations and all, in constant
    // memory — no Trace is ever materialized. The writers issue many
    // small writes (per record, per varint byte); `run` hands us a
    // buffered sink, so they never reach stdout one by one.
    let mut source = open_input(path)?;
    let result = match to.as_str() {
        "binary" => write_source_binary(&mut source, out),
        "binary-v2" => {
            let events_per_segment: usize = args.get_or("segment-events", 4096)?;
            if events_per_segment == 0 {
                return Err(ArgError("--segment-events must be at least 1".into()));
            }
            write_source_binary_v2(&mut source, out, &SegmentOptions { events_per_segment })
        }
        "text" => write_source(&mut source, out),
        other => {
            return Err(ArgError(format!(
                "--to must be `text` or `binary` or `binary-v2`, got `{other}`"
            )))
        }
    };
    result.map_err(|e| ArgError(format!("{path}: {e}")))?;
    out.flush()
        .map_err(|e| ArgError(format!("{path}: write failed: {e}")))
}

/// `segments <file>`: the v2 footer index as a table, after a full
/// checksum-and-decode verification pass. With `--cache[=PATH]` an
/// extra column shows, per segment, whether `analyze --cache` would
/// reuse it (`hit`, by [`AnalysisCache::reusable_prefix`]), its `.ftc`
/// sidecar entry cannot be reused (`stale`), or it has none (`-`).
fn segments_cmd<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = SEGMENTS.parse(rest)?;
    let path = input_path(&args)?;
    if path == "-" {
        return Err(ArgError("segments needs a seekable file, not stdin".into()));
    }
    let file =
        std::fs::File::open(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let mut seg = SegmentedTraceFile::open(file).map_err(|e| ArgError(format!("{path}: {e}")))?;
    seg.verify().map_err(|e| ArgError(format!("{path}: {e}")))?;

    let want_cache = args.flag("cache") || args.get("cache").is_some();
    let cache = if want_cache {
        let cache_path = cache_path_for(&args, path);
        let decoded = std::fs::read(&cache_path)
            .ok()
            .and_then(|bytes| AnalysisCache::decode(&bytes).ok());
        Some((cache_path, decoded))
    } else {
        None
    };
    // The reusable prefix by the analyzer's own rule (the config
    // fingerprint is the analyzer's to check — it depends on
    // engine/sampler arguments `segments` does not take).
    let prefix = match &cache {
        Some((_, Some(sidecar))) => sidecar
            .reusable_prefix(&mut seg)
            .map_err(|e| ArgError(format!("{path}: {e}")))?,
        _ => 0,
    };

    let mut headers = vec![
        "segment", "offset", "bytes", "events", "first id", "locks", "vars",
    ];
    if cache.is_some() {
        headers.push("cache");
    }
    let mut table = Table::new(&headers);
    for (k, meta) in seg.metas().iter().enumerate() {
        let mut row = vec![
            k.to_string(),
            meta.offset.to_string(),
            meta.byte_len.to_string(),
            meta.event_count.to_string(),
            meta.first_event_id.to_string(),
            meta.locks_before.to_string(),
            meta.vars_before.to_string(),
        ];
        if let Some((_, sidecar)) = &cache {
            let entries = sidecar.as_ref().map_or(0, |c| c.entries.len());
            row.push(
                if k < prefix {
                    "hit"
                } else if k < entries {
                    "stale"
                } else {
                    "-"
                }
                .to_string(),
            );
        }
        table.row_owned(row);
    }
    let _ = writeln!(
        out,
        "{}: {} segment(s), {} events, footer at byte {}; all checksums verified",
        path,
        seg.segment_count(),
        seg.event_count(),
        seg.footer_offset()
    );
    match &cache {
        Some((cache_path, Some(sidecar))) => {
            let c = &sidecar.config;
            let _ = writeln!(
                out,
                "cache {cache_path}: {} entr{} for engine={} sampler={} jobs={} \
                 (state v{}); {prefix} reusable",
                sidecar.entries.len(),
                if sidecar.entries.len() == 1 {
                    "y"
                } else {
                    "ies"
                },
                c.engine,
                c.sampler,
                c.jobs,
                c.state_version,
            );
        }
        Some((cache_path, None)) => {
            let _ = writeln!(out, "cache {cache_path}: none (a cached run will write it)");
        }
        None => {}
    }
    let _ = write!(out, "{}", table.render());
    Ok(())
}

/// The oracle's event cap: `HbOracle` is `O(N²)` memory, so the guard
/// must trip while *streaming* — materializing an oversized trace just
/// to count it would buffer the very input the cap exists to reject.
const ORACLE_EVENT_CAP: usize = 200_000;

fn oracle<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = ORACLE.parse(rest)?;
    let rate = fraction(&args, "rate", 1.0)?;
    let seed: u64 = args.get_or("seed", 0)?;
    // `--window`/`--reservoir`/`--stream` select the bounded-memory
    // streaming oracle; otherwise the exact materializing oracle runs
    // under its event cap. Both paths share `open_validated`, so text,
    // binary v1/v2 and stdin inputs behave identically (as `analyze`).
    let streaming =
        args.flag("stream") || args.get("window").is_some() || args.get("reservoir").is_some();
    let (mut input, path) = open_validated(&args)?;
    let sampler = BernoulliSampler::new(rate, seed);
    if streaming {
        let config = OracleConfig {
            window: args.get_or("window", usize::MAX)?,
            reservoir: args.get_or("reservoir", 0usize)?,
            seed,
        };
        let outcome = StreamingOracle::new(sampler, config)
            .run_source(&mut input)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        // Same body as the materializing path (racy events are exact at
        // every window size), so cross-mode output is byte-identical.
        let _ = writeln!(
            out,
            "{} racy event(s) among the sampled set:",
            outcome.racy_events.len()
        );
        for &(id, event) in &outcome.racy_events {
            let _ = writeln!(out, "  {id} {event}");
        }
        if args.flag("stats") {
            let s = outcome.stats;
            let _ = writeln!(
                out,
                "racy pairs: {} windowed, {} via reservoir ({} distinct)",
                outcome.window_pairs.len(),
                outcome.reservoir_pairs.len(),
                outcome.pairs().len()
            );
            let _ = writeln!(
                out,
                "events: {} ({} sampled, {} sync); window: {} evicted, \
                 peak {}; checks: {} windowed, {} reservoir; \
                 checkpoint-only races: {}; state: {} bytes",
                s.events,
                s.sampled_accesses,
                s.sync_events,
                s.evictions,
                s.peak_window_len,
                s.window_checks,
                s.reservoir_checks,
                s.summarized_races,
                s.state_bytes
            );
        }
        return Ok(());
    }
    let trace = Trace::from_source_limited(&mut input, ORACLE_EVENT_CAP)
        .map_err(|e| ArgError(format!("{path}: {e}")))?
        .ok_or_else(|| {
            ArgError(format!(
                "trace exceeds {ORACLE_EVENT_CAP} events; the exact oracle is O(N²) \
                 memory — pass --window/--reservoir to stream in bounded memory"
            ))
        })?;
    let oracle = HbOracle::new(&trace);
    let mask = HbOracle::sample_mask(&trace, sampler);
    let racy = oracle.racy_events(&mask);
    let _ = writeln!(out, "{} racy event(s) among the sampled set:", racy.len());
    for e in racy {
        let _ = writeln!(out, "  {} {}", e, trace.event(e));
    }
    Ok(())
}

fn stats<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = STATS.parse(rest)?;
    // Counts accumulate per event and entity counts come from the
    // source metadata: constant memory regardless of trace size.
    let (mut source, path) = open_validated(&args)?;
    let s = TraceStats::from_source(&mut source).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let _ = writeln!(out, "{s}");
    let _ = writeln!(out, "sync ratio: {}", pct(s.sync_ratio()));
    Ok(())
}

fn parse_pattern(name: &str) -> Result<Pattern, ArgError> {
    Ok(match name {
        "mixed" => Pattern::Mixed,
        "pc" | "producerconsumer" => Pattern::ProducerConsumer,
        "pipeline" => Pattern::Pipeline,
        "forkjoin" => Pattern::ForkJoin,
        "barrier" => Pattern::BarrierPhases,
        "ladder" => Pattern::LockLadder,
        other => return Err(ArgError(format!("unknown pattern `{other}`"))),
    })
}

/// The count option `--name` (`default` when absent), checked to be at
/// least 1: the generator cannot honour 0.
fn at_least_one(args: &Args, name: &str, default: u32) -> Result<u32, ArgError> {
    let value: u32 = args.get_or(name, default)?;
    if value == 0 {
        return Err(ArgError(format!("--{name} must be at least 1, got 0")));
    }
    Ok(value)
}

fn generate_cmd<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = GENERATE.parse(rest)?;
    let pattern = parse_pattern(&args.get_or("pattern", "mixed".to_owned())?)?;
    let sync_ratio = fraction(&args, "sync-ratio", 0.3)?;
    if sync_ratio > MAX_SYNC_RATIO {
        return Err(ArgError(format!(
            "--sync-ratio must be at most {MAX_SYNC_RATIO}, got {sync_ratio}"
        )));
    }
    let config = WorkloadConfig::named("cli")
        .pattern(pattern)
        .events(args.get_or("events", 10_000usize)?)
        .threads(at_least_one(&args, "threads", 4)?)
        .locks(at_least_one(&args, "locks", 8)?)
        .vars(at_least_one(&args, "vars", 64)?)
        .sync_ratio(sync_ratio)
        .unprotected(fraction(&args, "unprotected", 0.02)?)
        .seed(args.get_or("seed", 0u64)?);
    let trace = generate(&config);
    let _ = write!(out, "{}", write_trace(&trace));
    Ok(())
}

fn corpus_cmd<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = CORPUS.parse(rest)?;
    if args.flag("list") || args.get("bench").is_none() {
        let mut table = Table::new(&["benchmark", "threads", "locks", "events"]);
        for b in corpus::corpus() {
            let c = b.config();
            table.row_owned(vec![
                b.name.to_string(),
                format!("{}", c.n_threads),
                format!("{}", c.n_locks),
                format!("{}", c.n_events),
            ]);
        }
        let _ = write!(out, "{}", table.render());
        return Ok(());
    }
    let name: String = args.require("bench")?;
    let bench = corpus::by_name(&name)
        .ok_or_else(|| ArgError(format!("unknown corpus benchmark `{name}`")))?;
    let scale: f64 = args.get_or("scale", 1.0)?;
    if !(scale.is_finite() && scale > 0.0) {
        return Err(ArgError(format!(
            "--scale must be finite and > 0, got {scale}"
        )));
    }
    let seed: u64 = args.get_or("seed", 0)?;
    let trace = bench.trace(scale, seed);
    let _ = write!(out, "{}", write_trace(&trace));
    Ok(())
}

fn dbsim_cmd<W: std::io::Write>(rest: &[String], out: &mut W) -> Result<(), ArgError> {
    let args = DBSIM.parse(rest)?;
    let mix: String = args.get_or("mix", "ycsb".to_owned())?;
    let workload = benchbase::by_name(&mix)
        .ok_or_else(|| ArgError(format!("unknown workload mix `{mix}`")))?;
    let options = RunOptions {
        workers: args.get_or("workers", 8u32)?,
        txns_per_worker: args.get_or("txns", 300u32)?,
        seed: args.get_or("seed", 0u64)?,
    };
    let engine = engine_kind(&args, EngineKind::So)?;
    let rate = fraction(&args, "rate", 0.03)?;
    let shards: usize = args.get_or("shards", 1usize)?;
    if shards == 0 {
        return Err(ArgError("--shards must be at least 1".into()));
    }

    /// Runs the workload under the engine's detector; the run/report
    /// plumbing is shared. `--shards 1` (the default) is the
    /// paper-faithful single analysis mutex; `--shards N` routes
    /// ingestion through N access shards with per-thread and per-lock
    /// sync state.
    struct Dbsim<'a, W> {
        workload: &'a freshtrack_workloads::DbWorkload,
        options: &'a RunOptions,
        shards: usize,
        out: &'a mut W,
    }

    impl<W: std::io::Write> EngineVisitor for Dbsim<'_, W> {
        type Output = Result<(), ArgError>;

        fn split<D>(self, detector: D, _: BernoulliSampler) -> Self::Output
        where
            D: SplitDetector + 'static,
            D::Sync: CheckpointState,
            D::Access: CheckpointState,
        {
            let Dbsim {
                workload,
                options,
                shards,
                out,
            } = self;
            let name = detector.name();
            let (stats, reports, counters) = if shards >= 2 {
                run_sharded(workload, options, detector, shards, SyncMode::Seqlock, 1)
            } else {
                let (stats, detector, reports) = run_detector(workload, options, detector);
                let counters = *detector.counters();
                (stats, reports, counters)
            };
            let suffix = if shards >= 2 {
                format!(" (shards={shards})")
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{name}{suffix}: {} txns, mean latency {:.1} µs, p95 {} µs",
                stats.transactions,
                stats.mean_us(),
                stats.percentile_us(95.0)
            );
            // The skip-path hit rate is the headline number for the
            // hoisted fast path (invariant 10).
            let _ = writeln!(
                out,
                "events={} sampled={} skipped={} (skip {:.1}%) races={} acquires skipped={}",
                counters.events,
                counters.sampled_accesses,
                counters.skipped_accesses(),
                100.0 * counters.skip_ratio(),
                reports.len(),
                pct(counters.acquire_skip_ratio())
            );
            Ok(())
        }

        fn sam(self, _: NaiveSamplingDetector<BernoulliSampler>) -> Self::Output {
            Err(ArgError(
                "engine `sam` has no sync/access split and cannot run in dbsim".into(),
            ))
        }
    }

    engine.visit(
        rate,
        options.seed,
        Dbsim {
            workload: &workload,
            options: &options,
            shards,
            out,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_trace::read_trace;

    fn run_cli(args: &[&str]) -> (i32, String) {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&raw, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_cli(&[]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_cli(&["frobnicate"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn generate_then_analyze_round_trip() {
        let dir = std::env::temp_dir().join("freshtrack-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");

        let (code, out) = run_cli(&[
            "generate",
            "--events",
            "2000",
            "--unprotected",
            "0.1",
            "--seed",
            "1",
        ]);
        assert_eq!(code, 0);
        std::fs::write(&path, &out).unwrap();

        let path_s = path.to_str().unwrap();
        let (code, out) = run_cli(&[
            "analyze",
            path_s,
            "--engine",
            "so",
            "--rate",
            "1.0",
            "--counters",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("race report"), "{out}");
        assert!(out.contains("events="), "{out}");

        let (code, out) = run_cli(&["stats", path_s]);
        assert_eq!(code, 0);
        assert!(out.contains("sync ratio"), "{out}");

        let (code, out) = run_cli(&["oracle", path_s, "--rate", "1.0"]);
        assert_eq!(code, 0);
        assert!(out.contains("racy event"), "{out}");
    }

    fn run_cli_bytes(args: &[&str]) -> (i32, Vec<u8>) {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = run(&raw, &mut out);
        (code, out)
    }

    #[test]
    fn convert_round_trips_text_and_binary() {
        let dir = std::env::temp_dir().join("freshtrack-cli-convert");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let bin_path = dir.join("t.ftb");

        let (code, text) = run_cli(&["generate", "--events", "1500", "--seed", "3"]);
        assert_eq!(code, 0);
        std::fs::write(&text_path, &text).unwrap();

        let (code, bin) =
            run_cli_bytes(&["convert", text_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        assert!(freshtrack_trace::is_binary_trace(&bin));
        assert!(bin.len() < text.len(), "binary should be denser");
        std::fs::write(&bin_path, &bin).unwrap();

        // binary → text reproduces the original normal form exactly.
        let (code, back) = run_cli(&["convert", bin_path.to_str().unwrap(), "--to", "text"]);
        assert_eq!(code, 0);
        assert_eq!(back, text);

        // Converting binary → binary is the identity too.
        let (code, bin2) =
            run_cli_bytes(&["convert", bin_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        assert_eq!(bin2, bin);
    }

    #[test]
    fn analyze_and_stats_agree_across_formats() {
        let dir = std::env::temp_dir().join("freshtrack-cli-formats");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let bin_path = dir.join("t.ftb");

        let (code, text) = run_cli(&[
            "generate",
            "--events",
            "2000",
            "--unprotected",
            "0.1",
            "--seed",
            "5",
        ]);
        assert_eq!(code, 0);
        std::fs::write(&text_path, &text).unwrap();
        let (code, bin) =
            run_cli_bytes(&["convert", text_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        std::fs::write(&bin_path, &bin).unwrap();

        let analyze_args = ["--engine", "su", "--rate", "1.0", "--counters"];
        let (code, from_text) =
            run_cli(&[&["analyze", text_path.to_str().unwrap()], &analyze_args[..]].concat());
        assert_eq!(code, 0, "{from_text}");
        assert!(from_text.contains("race report"), "{from_text}");
        let (code, from_bin) =
            run_cli(&[&["analyze", bin_path.to_str().unwrap()], &analyze_args[..]].concat());
        assert_eq!(code, 0, "{from_bin}");
        // Byte-identical reports whether the input was text or binary.
        assert_eq!(from_text, from_bin);

        let (code, stats_text) = run_cli(&["stats", text_path.to_str().unwrap()]);
        assert_eq!(code, 0);
        let (code, stats_bin) = run_cli(&["stats", bin_path.to_str().unwrap()]);
        assert_eq!(code, 0);
        assert_eq!(stats_text, stats_bin);
        assert!(stats_text.contains("sync ratio"), "{stats_text}");
    }

    #[test]
    fn oracle_agrees_across_formats_and_modes() {
        let dir = std::env::temp_dir().join("freshtrack-cli-oracle-formats");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let v1_path = dir.join("t.ftb");
        let v2_path = dir.join("t.v2.ftb");

        let (code, text) = run_cli(&[
            "generate",
            "--events",
            "2000",
            "--unprotected",
            "0.1",
            "--seed",
            "5",
        ]);
        assert_eq!(code, 0);
        std::fs::write(&text_path, &text).unwrap();
        let (code, v1) = run_cli_bytes(&["convert", text_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        std::fs::write(&v1_path, &v1).unwrap();
        let (code, v2) =
            run_cli_bytes(&["convert", text_path.to_str().unwrap(), "--to", "binary-v2"]);
        assert_eq!(code, 0);
        std::fs::write(&v2_path, &v2).unwrap();

        // Every input format × oracle mode prints byte-identical racy
        // events: the exact materializing oracle, the unbounded stream,
        // and a windowed stream (racy events are exact at any window).
        let common = ["--rate", "0.8", "--seed", "9"];
        let mut outputs = Vec::new();
        for path in [&text_path, &v1_path, &v2_path] {
            for mode in [&[][..], &["--stream"][..], &["--window", "64"][..]] {
                let args = [&["oracle", path.to_str().unwrap()], &common[..], mode].concat();
                let (code, out) = run_cli(&args);
                assert_eq!(code, 0, "{args:?}: {out}");
                assert!(out.contains("racy event(s)"), "{args:?}: {out}");
                outputs.push((format!("{args:?}"), out));
            }
        }
        let (ref_label, reference) = &outputs[0];
        for (label, out) in &outputs[1..] {
            assert_eq!(out, reference, "{label} diverged from {ref_label}");
        }
    }

    #[test]
    fn convert_validates_its_arguments() {
        let (code, out) = run_cli(&["convert", "/nonexistent", "--to", "binary"]);
        assert_eq!(code, 1);
        assert!(out.contains("cannot read"), "{out}");
        let (code, out) = run_cli(&["convert", "/nonexistent"]);
        assert_eq!(code, 1);
        assert!(out.contains("--to"), "{out}");
        let dir = std::env::temp_dir().join("freshtrack-cli-convert-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        std::fs::write(&path, "T0|w(x)\n").unwrap();
        let (code, out) = run_cli(&["convert", path.to_str().unwrap(), "--to", "xml"]);
        assert_eq!(code, 1);
        assert!(out.contains("`text` or `binary`"), "{out}");
    }

    #[test]
    fn analyze_streams_invalid_traces_to_an_error() {
        let dir = std::env::temp_dir().join("freshtrack-cli-invalid");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.trace");
        std::fs::write(&path, "T0|acq(l)\nT1|rel(l)\n").unwrap();
        let (code, out) = run_cli(&["analyze", path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("invalid trace"), "{out}");
        let (code, out) = run_cli(&["stats", path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("invalid trace"), "{out}");
    }

    #[test]
    fn corpus_list_shows_26() {
        let (code, out) = run_cli(&["corpus", "--list"]);
        assert_eq!(code, 0);
        assert_eq!(out.lines().count(), 28); // header + rule + 26 rows
        assert!(out.contains("cassandra"));
    }

    #[test]
    fn corpus_emits_trace() {
        let (code, out) = run_cli(&["corpus", "--bench", "wronglock", "--scale", "0.1"]);
        assert_eq!(code, 0);
        assert!(read_trace(&out).is_ok());
    }

    #[test]
    fn analyze_rejects_bad_engine_and_rate() {
        let (code, out) = run_cli(&["analyze", "/nonexistent", "--engine", "xx"]);
        assert_eq!(code, 1);
        assert!(out.contains("error"));
        let (code, _) = run_cli(&["analyze", "/nonexistent", "--rate", "7"]);
        assert_eq!(code, 1);
        for rate in ["2", "-0.1", "nan"] {
            for command in [
                &["analyze", "/nonexistent"][..],
                &["oracle", "/nonexistent"],
                &["dbsim", "--txns", "1"],
            ] {
                let (code, out) = run_cli(&[command, &["--rate", rate]].concat());
                assert_eq!(code, 1, "{command:?} --rate {rate}: {out}");
                assert!(out.contains("--rate must be in [0,1]"), "{out}");
            }
        }
    }

    #[test]
    fn oracle_cap_trips_while_streaming() {
        let dir = std::env::temp_dir().join("freshtrack-cli-oracle-cap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.trace");
        // One event over the cap. The old guard materialized the whole
        // trace before counting; the streaming guard gives up on the
        // 200_001st event without buffering past the limit.
        let mut text = String::with_capacity((ORACLE_EVENT_CAP + 1) * 8);
        for _ in 0..=ORACLE_EVENT_CAP {
            text.push_str("T0|w(x)\n");
        }
        std::fs::write(&path, &text).unwrap();
        let (code, out) = run_cli(&["oracle", path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("exceeds 200000 events"), "{out}");
        // The refusal names the streaming escape hatch, which handles
        // the same over-cap input in bounded memory.
        assert!(out.contains("--window"), "{out}");
        let (code, out) = run_cli(&["oracle", path.to_str().unwrap(), "--window", "16"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 racy event(s)"), "{out}");

        // At the cap the oracle still runs (single-thread: no races).
        let at_cap = &text[..text.len() - "T0|w(x)\n".len()];
        std::fs::write(&path, at_cap).unwrap();
        let (code, out) = run_cli(&["oracle", path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 racy event(s)"), "{out}");
    }

    /// Writes a racy generated workload as text, v1 binary, and v2
    /// segmented files; returns their paths.
    fn trace_fixture(dir_name: &str, events: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let v2_path = dir.join("t.ftb2");
        let (code, text) = run_cli(&[
            "generate",
            "--events",
            events,
            "--unprotected",
            "0.1",
            "--seed",
            "7",
        ]);
        assert_eq!(code, 0);
        std::fs::write(&text_path, &text).unwrap();
        let (code, v2) = run_cli_bytes(&[
            "convert",
            text_path.to_str().unwrap(),
            "--to",
            "binary-v2",
            "--segment-events",
            "256",
        ]);
        assert_eq!(code, 0);
        std::fs::write(&v2_path, &v2).unwrap();
        (text_path, v2_path)
    }

    #[test]
    fn analyze_jobs_output_is_byte_identical_to_sequential() {
        let (text_path, v2_path) = trace_fixture("freshtrack-cli-jobs", "3000");
        for engine in ["st", "ft", "su", "so"] {
            let tail = ["--engine", engine, "--rate", "1.0", "--counters"];
            let (code, sequential) =
                run_cli(&[&["analyze", text_path.to_str().unwrap()], &tail[..]].concat());
            assert_eq!(code, 0, "{sequential}");
            for jobs in ["1", "2", "3"] {
                let (code, parallel) = run_cli(
                    &[
                        &["analyze", v2_path.to_str().unwrap()],
                        &tail[..],
                        &["--jobs", jobs][..],
                    ]
                    .concat(),
                );
                assert_eq!(code, 0, "{parallel}");
                assert_eq!(
                    parallel, sequential,
                    "engine {engine} jobs {jobs} must match the sequential output"
                );
            }
        }
    }

    #[test]
    fn analyze_jobs_rejects_stdin_sam_and_unsegmented_input() {
        let (text_path, v2_path) = trace_fixture("freshtrack-cli-jobs-err", "500");

        let (code, out) = run_cli(&["analyze", "-", "--jobs", "2"]);
        assert_eq!(code, 1);
        assert!(out.contains("stdin"), "{out}");

        let (code, out) = run_cli(&[
            "analyze",
            v2_path.to_str().unwrap(),
            "--jobs",
            "2",
            "--engine",
            "sam",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("sam"), "{out}");

        // Text (and v1) inputs are turned away with conversion
        // guidance rather than decoded as garbage.
        let (code, out) = run_cli(&["analyze", text_path.to_str().unwrap(), "--jobs", "2"]);
        assert_eq!(code, 1);
        assert!(out.contains("magic"), "{out}");

        let (code, out) = run_cli(&["analyze", v2_path.to_str().unwrap(), "--jobs", "0"]);
        assert_eq!(code, 1);
        assert!(out.contains("--jobs"), "{out}");
    }

    #[test]
    fn convert_v1_to_v2_to_v1_is_byte_identical() {
        let dir = std::env::temp_dir().join("freshtrack-cli-v2-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("t.trace");
        let v1_path = dir.join("t.ftb");
        let v2_path = dir.join("t.ftb2");

        let (code, text) = run_cli(&["generate", "--events", "2000", "--seed", "11"]);
        assert_eq!(code, 0);
        std::fs::write(&text_path, &text).unwrap();
        let (code, v1) = run_cli_bytes(&["convert", text_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        std::fs::write(&v1_path, &v1).unwrap();

        let (code, v2) = run_cli_bytes(&[
            "convert",
            v1_path.to_str().unwrap(),
            "--to",
            "binary-v2",
            "--segment-events",
            "128",
        ]);
        assert_eq!(code, 0);
        assert!(freshtrack_trace::is_binary_trace(&v2));
        std::fs::write(&v2_path, &v2).unwrap();

        let (code, v1_again) =
            run_cli_bytes(&["convert", v2_path.to_str().unwrap(), "--to", "binary"]);
        assert_eq!(code, 0);
        assert_eq!(v1_again, v1, "v1 -> v2 -> v1 must reproduce every byte");

        let (code, out) = run_cli(&["convert", v2_path.to_str().unwrap(), "--to", "xml"]);
        assert_eq!(code, 1);
        assert!(out.contains("`text` or `binary`"), "{out}");
        let (code, out) = run_cli(&[
            "convert",
            v1_path.to_str().unwrap(),
            "--to",
            "binary-v2",
            "--segment-events",
            "0",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("--segment-events"), "{out}");
    }

    #[test]
    fn segments_verifies_and_prints_the_footer_index() {
        let (text_path, v2_path) = trace_fixture("freshtrack-cli-segments", "1000");

        let (code, out) = run_cli(&["segments", v2_path.to_str().unwrap()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("all checksums verified"), "{out}");
        // The generator may pad past the requested 1000 events with
        // fork/join bookkeeping; parse the count rather than pin it.
        let summary = out.lines().next().unwrap();
        let events: usize = summary
            .split(" events")
            .next()
            .and_then(|s| s.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no event count in {summary:?}"));
        assert!((1000..1256).contains(&events), "{summary}");
        // Up to ~1255 events at 256 per segment = 4 segments.
        assert!(out.contains("4 segment(s)"), "{out}");
        assert!(out.contains("first id"), "{out}");

        // Corruption is reported, not tabulated.
        let mut bytes = std::fs::read(&v2_path).unwrap();
        bytes[40] ^= 0x5a;
        let bad = v2_path.with_extension("bad");
        std::fs::write(&bad, &bytes).unwrap();
        let (code, _) = run_cli(&["segments", bad.to_str().unwrap()]);
        assert_eq!(code, 1);

        let (code, _) = run_cli(&["segments", "-"]);
        assert_eq!(code, 1);
        let (code, out) = run_cli(&["segments", text_path.to_str().unwrap()]);
        assert_eq!(code, 1);
        assert!(out.contains("magic"), "{out}");
    }

    #[test]
    fn dbsim_smoke() {
        let (code, out) = run_cli(&[
            "dbsim",
            "--mix",
            "sibench",
            "--workers",
            "2",
            "--txns",
            "20",
            "--engine",
            "so",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("mean latency"), "{out}");
    }

    #[test]
    fn dbsim_sharded_smoke() {
        let (code, out) = run_cli(&[
            "dbsim",
            "--mix",
            "sibench",
            "--workers",
            "2",
            "--txns",
            "20",
            "--engine",
            "ft",
            "--shards",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("(shards=4)"), "{out}");
        assert!(out.contains("mean latency"), "{out}");

        let (code, out) = run_cli(&["dbsim", "--shards", "0"]);
        assert_eq!(code, 1);
        assert!(out.contains("--shards"), "{out}");
    }

    #[test]
    fn dbsim_sync_mode_flag() {
        // There is one sync construction; the retired `--sync` option
        // is rejected rather than silently ignored.
        for value in ["seqlock", "shared", "replicated"] {
            let (code, out) = run_cli(&["dbsim", "--shards", "2", "--sync", value]);
            assert_eq!(code, 1, "{out}");
            assert!(out.contains("unknown option --sync"), "{out}");
        }
    }

    #[test]
    fn unknown_options_are_rejected_by_every_command() {
        let (code, out) = run_cli(&["dbsim", "--workers", "2", "--txns", "5", "--shard", "4"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unknown option --shard"), "{out}");
        let (code, out) = run_cli(&["dbsim", "--workers", "2", "--txns", "5", "--bogus", "1"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unknown option --bogus"), "{out}");
        for command in [
            "analyze", "oracle", "stats", "convert", "segments", "generate", "corpus", "dbsim",
        ] {
            let (code, out) = run_cli(&[command, "--bogus", "1"]);
            assert_eq!(code, 1, "{command}: {out}");
            assert!(out.contains("unknown option --bogus"), "{command}: {out}");
        }
        let (code, out) = run_cli(&["analyze", "-", "--counters=yes"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--counters takes no value"), "{out}");
    }

    /// Every option `USAGE` documents parses for the command it is
    /// documented under, and every option a command reads is
    /// documented there.
    #[test]
    fn every_usage_option_parses_for_its_command() {
        let table: [(&str, &Vocabulary); 8] = [
            ("analyze", &ANALYZE),
            ("oracle", &ORACLE),
            ("stats", &STATS),
            ("convert", &CONVERT),
            ("segments", &SEGMENTS),
            ("generate", &GENERATE),
            ("corpus", &CORPUS),
            ("dbsim", &DBSIM),
        ];
        // Command headers sit at a four-space indent; continuation
        // lines are indented further.
        let mut documented: Vec<(&str, String)> = Vec::new();
        let mut command = None;
        let section = USAGE
            .split("COMMANDS:")
            .nth(1)
            .expect("USAGE lists commands");
        for line in section.lines() {
            if let Some(header) = line.strip_prefix("    ") {
                if !header.starts_with(' ') {
                    command = header.split_whitespace().next();
                }
            }
            let Some(command) = command else { continue };
            for (at, _) in line.match_indices("--") {
                let name: String = line[at + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                documented.push((command, name));
            }
        }
        for (command, name) in &documented {
            let (_, vocabulary) = table
                .iter()
                .find(|(c, _)| c == command)
                .unwrap_or_else(|| panic!("USAGE documents --{name} for `{command}`"));
            let flag = format!("--{name}");
            let raw = if vocabulary.flags.contains(&name.as_str()) {
                vec![flag]
            } else {
                vec![flag, "1".to_owned()]
            };
            let parsed = vocabulary.parse(&raw);
            assert!(parsed.is_ok(), "{command} --{name}: {parsed:?}");
        }
        for (command, vocabulary) in table {
            for name in vocabulary.flags.iter().chain(vocabulary.options) {
                assert!(
                    documented.iter().any(|(c, n)| *c == command && n == name),
                    "`{command}` reads --{name}, which USAGE does not document"
                );
            }
        }
    }

    #[test]
    fn dbsim_batch_flag() {
        // Batched shard ingestion was removed; the retired `--batch`
        // option is rejected rather than silently ignored.
        let (code, out) = run_cli(&["dbsim", "--batch", "16"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error: unknown option --batch"), "{out}");
    }

    #[test]
    fn analyze_cache_is_byte_identical_and_persists_a_sidecar() {
        let (_text_path, v2_path) = trace_fixture("freshtrack-cli-cache", "3000");
        let v2 = v2_path.to_str().unwrap();
        let tail = [
            "--engine",
            "so",
            "--rate",
            "0.5",
            "--seed",
            "3",
            "--counters",
        ];
        let (code, cold) = run_cli(&[&["analyze", v2], &tail[..]].concat());
        assert_eq!(code, 0, "{cold}");

        // Default sidecar path: the trace path plus `.ftc`.
        let sidecar = std::path::PathBuf::from(format!("{v2}.ftc"));
        let _ = std::fs::remove_file(&sidecar);
        let (code, first_run) = run_cli(&[&["analyze", v2, "--cache"], &tail[..]].concat());
        assert_eq!(code, 0, "{first_run}");
        assert_eq!(
            first_run, cold,
            "a cold cached run must print the uncached output"
        );
        let written = std::fs::read(&sidecar).expect("the cached run writes a sidecar");
        assert!(!written.is_empty());

        // A fully-warm rerun: same stdout, and the rewritten sidecar is
        // byte-identical (invariant 11 observed end to end).
        let (code, warm) = run_cli(&[&["analyze", v2, "--cache"], &tail[..]].concat());
        assert_eq!(code, 0, "{warm}");
        assert_eq!(warm, cold);
        assert_eq!(std::fs::read(&sidecar).unwrap(), written);

        // --no-cache wins over --cache and leaves the sidecar alone.
        std::fs::write(&sidecar, b"junk").unwrap();
        let (code, plain) =
            run_cli(&[&["analyze", v2, "--cache", "--no-cache"], &tail[..]].concat());
        assert_eq!(code, 0, "{plain}");
        assert_eq!(plain, cold);
        assert_eq!(std::fs::read(&sidecar).unwrap(), b"junk");

        // A corrupt sidecar is advisory: ignored, then rewritten.
        let (code, recovered) = run_cli(&[&["analyze", v2, "--cache"], &tail[..]].concat());
        assert_eq!(code, 0, "{recovered}");
        assert_eq!(recovered, cold);
        assert_eq!(std::fs::read(&sidecar).unwrap(), written);

        // A different engine must not reuse the sidecar (fingerprint
        // mismatch) yet still matches its own cold output.
        let ft_tail = ["--engine", "ft", "--counters"];
        let (code, ft_cold) = run_cli(&[&["analyze", v2], &ft_tail[..]].concat());
        assert_eq!(code, 0, "{ft_cold}");
        let (code, ft_cached) = run_cli(&[&["analyze", v2, "--cache"], &ft_tail[..]].concat());
        assert_eq!(code, 0, "{ft_cached}");
        assert_eq!(ft_cached, ft_cold);
    }

    #[test]
    fn analyze_cache_writes_the_sidecar_atomically() {
        let (text_path, v2_path) = trace_fixture("freshtrack-cli-cache-atomic", "2000");
        let dir = v2_path.parent().unwrap().to_owned();
        let v2 = v2_path.to_str().unwrap();
        let sidecar = std::path::PathBuf::from(format!("{v2}.ftc"));
        let listing = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let expected = {
            let mut names = vec![
                text_path
                    .file_name()
                    .unwrap()
                    .to_string_lossy()
                    .into_owned(),
                v2_path.file_name().unwrap().to_string_lossy().into_owned(),
                sidecar.file_name().unwrap().to_string_lossy().into_owned(),
            ];
            names.sort();
            names
        };

        // Cold, then warm: the sidecar is replaced in place, no
        // temporary file survives, and the bytes equal the cold run's.
        let _ = std::fs::remove_file(&sidecar);
        let (code, out) = run_cli(&["analyze", v2, "--cache"]);
        assert_eq!(code, 0, "{out}");
        let cold = std::fs::read(&sidecar).expect("the cached run writes a sidecar");
        let (code, out) = run_cli(&["analyze", v2, "--cache"]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(std::fs::read(&sidecar).unwrap(), cold);
        assert_eq!(listing(), expected);

        // A rename that cannot succeed (the target is a directory):
        // the run still succeeds, and the temporary file is cleaned up.
        std::fs::remove_file(&sidecar).unwrap();
        std::fs::create_dir(&sidecar).unwrap();
        let (code, out) = run_cli(&["analyze", v2, "--cache"]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(listing(), expected);
        std::fs::remove_dir(&sidecar).unwrap();
    }

    #[test]
    fn analyze_cache_append_reuses_the_prefix() {
        let dir = std::env::temp_dir().join("freshtrack-cli-cache-append");
        std::fs::create_dir_all(&dir).unwrap();
        let (code, text) = run_cli(&[
            "generate",
            "--events",
            "3000",
            "--unprotected",
            "0.1",
            "--seed",
            "7",
        ]);
        assert_eq!(code, 0);
        // Non-directive text lines map 1:1 to events, so a line prefix
        // cut after the 2048th event is exactly the trace as it stood
        // before its tail was appended — and 2048 is a multiple of the
        // segment size, which keeps the shared segments byte-equal.
        let lines: Vec<&str> = text.lines().collect();
        let mut events_seen = 0usize;
        let mut cut = 0usize;
        for (i, line) in lines.iter().enumerate() {
            if !line.starts_with('#') && !line.trim().is_empty() {
                events_seen += 1;
                if events_seen == 2048 {
                    cut = i + 1;
                    break;
                }
            }
        }
        assert_eq!(events_seen, 2048, "generated trace too short");
        let short_text: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
        let short_path = dir.join("short.trace");
        let full_path = dir.join("full.trace");
        std::fs::write(&short_path, &short_text).unwrap();
        std::fs::write(&full_path, &text).unwrap();
        let to_v2 = |name: &str, text_path: &std::path::Path| {
            let (code, bytes) = run_cli_bytes(&[
                "convert",
                text_path.to_str().unwrap(),
                "--to",
                "binary-v2",
                "--segment-events",
                "256",
            ]);
            assert_eq!(code, 0);
            let p = dir.join(name);
            std::fs::write(&p, &bytes).unwrap();
            p
        };
        let short_v2 = to_v2("short.ftb2", &short_path);
        let full_v2 = to_v2("full.ftb2", &full_path);
        let cache = dir.join("trace.ftc");
        let _ = std::fs::remove_file(&cache);
        let cache_arg = format!("--cache={}", cache.to_str().unwrap());

        let tail = [
            "--engine",
            "su",
            "--rate",
            "0.4",
            "--seed",
            "13",
            "--counters",
        ];
        let (code, cold_full) =
            run_cli(&[&["analyze", full_v2.to_str().unwrap()], &tail[..]].concat());
        assert_eq!(code, 0, "{cold_full}");

        // Analyze the pre-append trace, seeding the sidecar.
        let (code, short_out) = run_cli(
            &[
                &["analyze", short_v2.to_str().unwrap(), &cache_arg],
                &tail[..],
            ]
            .concat(),
        );
        assert_eq!(code, 0, "{short_out}");
        assert!(cache.exists());

        // The appended file shares its first 8 segments (2048 events at
        // 256 per segment) with the short one; `segments --cache` sees
        // them as hits and the appended tail as uncached.
        let (code, seg_out) = run_cli(&["segments", full_v2.to_str().unwrap(), &cache_arg]);
        assert_eq!(code, 0, "{seg_out}");
        assert_eq!(seg_out.matches(" hit").count(), 8, "{seg_out}");
        assert!(!seg_out.contains("stale"), "{seg_out}");
        assert!(seg_out.contains("8 reusable"), "{seg_out}");

        // Incremental re-analysis after the append: byte-identical
        // stdout, and the rewritten sidecar equals a cold cached run's.
        let (code, warm_full) = run_cli(
            &[
                &["analyze", full_v2.to_str().unwrap(), &cache_arg],
                &tail[..],
            ]
            .concat(),
        );
        assert_eq!(code, 0, "{warm_full}");
        assert_eq!(warm_full, cold_full);
        let incremental_sidecar = std::fs::read(&cache).unwrap();

        std::fs::remove_file(&cache).unwrap();
        let (code, cold_cached) = run_cli(
            &[
                &["analyze", full_v2.to_str().unwrap(), &cache_arg],
                &tail[..],
            ]
            .concat(),
        );
        assert_eq!(code, 0, "{cold_cached}");
        assert_eq!(cold_cached, cold_full);
        assert_eq!(std::fs::read(&cache).unwrap(), incremental_sidecar);
    }

    #[test]
    fn analyze_cache_rejects_stdin_and_sam() {
        let (code, out) = run_cli(&["analyze", "-", "--cache"]);
        assert_eq!(code, 1);
        assert!(out.contains("stdin"), "{out}");

        let (_text_path, v2_path) = trace_fixture("freshtrack-cli-cache-err", "500");
        let (code, out) = run_cli(&[
            "analyze",
            v2_path.to_str().unwrap(),
            "--cache",
            "--engine",
            "sam",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("sam"), "{out}");
    }

    #[test]
    fn segments_cache_column_reports_hit_stale_and_missing() {
        let (_text_path, v2_a) = trace_fixture("freshtrack-cli-segcache", "1000");
        let a = v2_a.to_str().unwrap();
        let sidecar = format!("{a}.ftc");
        let _ = std::fs::remove_file(&sidecar);

        // Before any cached run: the column renders, every cell `-`.
        let (code, out) = run_cli(&["segments", a, "--cache"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("none (a cached run will write it)"), "{out}");
        assert!(out.contains("cache"), "{out}");
        assert!(!out.contains("hit"), "{out}");

        let (code, out) = run_cli(&["analyze", a, "--cache", "--engine", "so", "--rate", "1.0"]);
        assert_eq!(code, 0, "{out}");

        // After: every segment is a hit against its own sidecar.
        let (code, out) = run_cli(&["segments", a, "--cache"]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.matches(" hit").count(), 4, "{out}");
        assert!(out.contains("4 reusable"), "{out}");
        assert!(out.contains("engine=so"), "{out}");

        // Same sidecar against a different trace: stale from segment 0.
        let dir = std::env::temp_dir().join("freshtrack-cli-segcache-b");
        std::fs::create_dir_all(&dir).unwrap();
        let (code, text) = run_cli(&[
            "generate",
            "--events",
            "1000",
            "--unprotected",
            "0.1",
            "--seed",
            "8",
        ]);
        assert_eq!(code, 0);
        let text_b = dir.join("b.trace");
        std::fs::write(&text_b, &text).unwrap();
        let (code, v2) = run_cli_bytes(&[
            "convert",
            text_b.to_str().unwrap(),
            "--to",
            "binary-v2",
            "--segment-events",
            "256",
        ]);
        assert_eq!(code, 0);
        let v2_b = dir.join("b.ftb2");
        std::fs::write(&v2_b, &v2).unwrap();

        let cache_arg = format!("--cache={sidecar}");
        let (code, out) = run_cli(&["segments", v2_b.to_str().unwrap(), &cache_arg]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("stale"), "{out}");
        assert!(out.contains("0 reusable"), "{out}");
        assert!(!out.contains(" hit"), "{out}");
    }
}
