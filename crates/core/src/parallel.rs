//! Pipelined, checkpointed, and incremental analysis of segmented
//! `.ftb` v2 trace files.
//!
//! [`analyze_segments`] replays a [`SegmentedTraceFile`] through one
//! detector — the monolith itself, fed event by event — with segment
//! *decoding and sampling* fanned out to `jobs` threads, producing
//! reports and counters **byte-identical** to a sequential
//! [`Detector::run_source`] pass over the same stream (the differential
//! suite in `tests/parallel.rs` pins this). Decoding (checksum, varint
//! records, name deltas) is a pure function of one segment's bytes
//! ([`decode_segment_indexed`]), and so is the sampling decision
//! ([`Sampler::decide`] is pure in the event's stream position), so
//! both run ahead of the analysis:
//!
//! * A **reader** thread reads segment bytes off the file in order —
//!   cheap, sequential I/O — and hands segment `k` to decoder
//!   `k % jobs` over a bounded channel.
//! * Each **decoder** thread decodes its segments, asking the sampler
//!   about every access inside the decode loop, and sends back only
//!   what the analysis needs: the sync events and the sampled accesses
//!   (with their event ids), and the counts of sampled-out reads and
//!   writes.
//! * The **coordinator** (the calling thread) receives segment `k` from
//!   decoder `k % jobs`, so segments arrive in stream order and the
//!   first error in stream order wins, with no reorder buffer. Per
//!   segment it runs the cross-segment watermark and duplicate-name
//!   checks, then feeds the walked events to the detector it was given:
//!   each sync event passes the locking-discipline check the sequential
//!   path gets from [`Validated`](freshtrack_trace::Validated) and goes
//!   to [`Detector::process`], each sampled access to
//!   [`Detector::process_admitted`] (the decoder already admitted it, as
//!   an online façade does), and the segment's sampled-out reads and
//!   writes to [`Detector::record_skipped_accesses`]. A sampled-out
//!   access changes nothing but its counter, so the walk's cost follows
//!   the sync events and the sample `S`, not the trace length, and the
//!   handlers that run are the monolith's own, so every counter is too.
//!
//! `jobs` is the number of decoder threads and nothing else: the
//! analysis state, the output and the sidecar bytes are the same at
//! every job count. The CLI runs every `analyze` of a seekable v2 file
//! here, `--jobs 1` included, so decoding overlaps the analysis and
//! every segment's CRC is checked; only stdin, text, v1 and the
//! unsplittable `sam` engine take the streaming path.
//!
//! # Incremental analysis
//!
//! [`analyze_segments_cached`] makes re-analysis of a growing trace
//! replay only the appended segments: alongside the analysis it fills an
//! [`AnalysisCache`] sidecar (the `.ftc` format of `freshtrack-trace`)
//! with, per segment, the segment's byte identity, the names it defines
//! and its reports, and — at the file's last two segment boundaries
//! only — a [`ResumePoint`]: the thread count, the discipline table and
//! the detector's one checkpoint ([`CheckpointState::export_state`]).
//! The v2 writer cuts segments by event count, so an append changes at
//! most the file's last, partial segment, and the next run finds its
//! state at one of those two boundaries. On that run the sidecar is
//! validated against the file by
//! [`AnalysisCache::reusable_prefix`] after an exact fingerprint
//! comparison: footer identity, then a CRC-32 re-hash of every reused
//! segment's bytes (corruption demotes the cache, it is never silently
//! trusted), then "resume only at the last two boundaries". The
//! detector is rebuilt by importing the one resume point, the prefix's
//! names and reports are concatenated from its entries, and only the
//! segments past the prefix are replayed. Because the imported state is
//! checkpoint-exact — including the sharing-topology alias marks of
//! [`OrderedSyncEngine`](crate::OrderedSyncEngine) — the resumed run's
//! reports *and counters* are byte-identical to a cold run over the
//! full file, and so is the sidecar it rewrites (invariant 11;
//! `tests/cache.rs` pins it across engines × samplers × append points).
//! What a warm run still does in proportion to the prefix is the CRC
//! re-hash of the reused segments plus reading, decoding and rewriting
//! their small entries; the state it imports and exports is one
//! checkpoint, whatever the prefix length (ARCHITECTURE.md § Incremental
//! analysis has the numbers).

use std::collections::HashMap;
use std::io::{Read, Seek};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use freshtrack_clock::wire::{self, WireError, WireReader};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{
    decode_segment_indexed, AnalysisCache, BinaryTraceError, CacheConfig, CacheEntry,
    DisciplineChecker, EventId, EventKind, ResumePoint, SegmentData, SegmentMeta,
    SegmentedTraceFile, SourceError, ThreadId, VarId,
};

use crate::checkpoint::{CheckpointError, CheckpointState};
use crate::{AccessKind, Counters, Detector, RaceReport};

/// Version of the opaque checkpoint/counter/report payloads this crate
/// writes into `.ftc` sidecars ([`CacheConfig::state_version`]). Bump
/// whenever any [`CheckpointState`] wire format, the counter field list,
/// or the report encoding changes shape — older sidecars then fail the
/// fingerprint check and are rebuilt instead of misdecoded. Version 2
/// encodes an access checkpoint as a table of per-variable records,
/// where version 1 stored a byte delta of the whole access plane.
pub const CACHE_STATE_VERSION: u32 = 2;

/// Segments each pipeline queue (reader to decoder, decoder to
/// coordinator) holds ahead of its consumer.
const READ_AHEAD: usize = 4;

/// The merged result of a parallel segmented analysis.
#[derive(Clone, Debug)]
pub struct SegmentedAnalysis {
    /// All race reports, strictly sorted by racing
    /// [`EventId`](freshtrack_trace::EventId) — the same order the
    /// sequential pass produces.
    pub reports: Vec<RaceReport>,
    /// Work counters, field-identical to a sequential run's.
    pub counters: Counters,
    /// Threads in the trace (declared or observed, whichever is
    /// larger).
    pub threads: u32,
    /// The merged lock name table.
    pub lock_names: Vec<String>,
    /// The merged variable name table.
    pub var_names: Vec<String>,
}

/// The result of an incremental ([`analyze_segments_cached`]) run: the
/// analysis, the rewritten sidecar, and how much of the previous
/// sidecar was reusable.
#[derive(Clone, Debug)]
pub struct CachedAnalysis {
    /// The analysis — byte-identical to what a cold
    /// [`analyze_segments`] run over the full file produces.
    pub analysis: SegmentedAnalysis,
    /// The rewritten sidecar covering every segment of the file;
    /// persist it next to the trace for the next run.
    pub cache: AnalysisCache,
    /// Segments whose cached state was reused (the validated prefix).
    pub reused_segments: usize,
    /// Segments in the file.
    pub total_segments: usize,
}

/// Everything a run starts from; [`Resume::cold`] is the empty initial
/// state a full replay uses.
struct Resume<D> {
    /// First segment to replay.
    start: usize,
    names: Names,
    threads: u32,
    checker: DisciplineChecker,
    /// The detector at the boundary, counters included.
    detector: D,
    /// Reports for segments `0..start`.
    reports: Vec<RaceReport>,
}

/// The merged lock and variable name tables.
#[derive(Default)]
struct Names {
    locks: Vec<String>,
    vars: Vec<String>,
}

impl<D: Detector + CheckpointState + Clone> Resume<D> {
    fn cold(detector: &D) -> Self {
        Resume {
            start: 0,
            names: Names::default(),
            threads: 0,
            checker: DisciplineChecker::new(),
            detector: detector.clone(),
            reports: Vec::new(),
        }
    }

    /// Rebuilds the boundary state after `start` validated sidecar
    /// entries: names and reports by concatenating the entries', the
    /// rest by importing the sidecar's resume point at that boundary.
    ///
    /// Any failure means the sidecar lies about its own contents
    /// (possible only across a format drift the fingerprint missed) —
    /// the caller falls back to a cold run.
    fn from_cache(
        detector: &D,
        prior: &AnalysisCache,
        start: usize,
    ) -> Result<Self, CheckpointError> {
        let point = prior
            .resume_point(start)
            .ok_or(WireError::Invalid("no resume point at the reusable prefix"))?;
        let mut names = Names::default();
        let mut reports = Vec::new();
        for entry in &prior.entries[..start] {
            names.locks.extend(entry.new_locks.iter().cloned());
            names.vars.extend(entry.new_vars.iter().cloned());
            reports.extend(decode_reports(&entry.reports)?);
        }
        let checker = DisciplineChecker::import_wire(&point.discipline)?;
        let mut detector = detector.clone();
        detector.import_state(&point.state)?;
        Ok(Resume {
            start,
            names,
            threads: point.threads,
            checker,
            detector,
            reports,
        })
    }
}

struct PipelineOutput {
    analysis: SegmentedAnalysis,
    /// Sidecar entries for the replayed segments (empty unless
    /// recording).
    entries: Vec<CacheEntry>,
    /// The state at the replayed boundaries among the file's last two
    /// (empty unless recording).
    resume: Vec<ResumePoint>,
}

/// Replays a segmented trace file on the decode-ahead pipeline; see the
/// module docs for the architecture and the equivalence argument.
///
/// `detector` must be in its initial state: the run feeds a clone of
/// it. `sampler` must make the same decisions as the detector's own
/// sampler (same seed); the CLI constructs both from one `--seed`.
/// `jobs` is the number of decoder threads, clamped to at least 1 and
/// at most the number of segments; the output is the same at every
/// value.
///
/// # Errors
///
/// Any [`SourceError`] a sequential pass over the same file would hit:
/// corrupt segment bytes or checksums ([`SourceError::Binary`], naming
/// the failing segment's index and start offset), cross-segment
/// duplicate name definitions (`Binary`, anchored at the offending
/// segment's offset), or locking-discipline violations
/// ([`SourceError::Discipline`]). The first error in stream order wins.
/// Reports gathered before the error are dropped with it, exactly like
/// [`Detector::run_source`].
///
/// # Panics
///
/// Only on a bug in an engine or in segment decoding, never on an input
/// property (a panic on a pipeline thread is re-raised by
/// [`std::thread::scope`]), or if the OS cannot spawn a pipeline
/// thread.
pub fn analyze_segments<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
) -> Result<SegmentedAnalysis, SourceError>
where
    D: Detector + CheckpointState + Clone,
    S: Sampler,
    R: Read + Seek + Send,
{
    let out = run_pipeline(file, sampler, jobs, Resume::cold(detector), false)?;
    Ok(out.analysis)
}

/// Incremental [`analyze_segments`]: validates `prior` (a decoded
/// `.ftc` sidecar) against the file and `config`, replays only the
/// segments past the longest valid prefix, and returns the analysis
/// together with a rewritten sidecar covering the whole file.
///
/// The prefix-validation rule: the cache is reusable only under an
/// *exactly equal* [`CacheConfig`] (engine, sampler identity and seed,
/// segment options, payload format version and its `jobs` field; build
/// it with `state_version:` [`CACHE_STATE_VERSION`]). The `jobs`
/// argument is not compared: the state is the same at every job count,
/// so a sidecar seeds a run at any `jobs`. The prefix is then
/// [`AnalysisCache::reusable_prefix`]: entries that match the footer's
/// identity for their segment *and* whose segment bytes still hash to
/// the recorded CRC-32, ending at one of the sidecar's last two
/// boundaries, where it keeps the analysis state; a prefix ending
/// anywhere else runs cold. Everything after the prefix is replayed and
/// rewritten. A cache is advisory — malformed resume payloads demote to
/// a cold run, never to an error — and the analysis output is
/// byte-identical to a cold [`analyze_segments`] run either way
/// (invariant 11).
///
/// # Errors
///
/// Exactly the [`SourceError`]s [`analyze_segments`] can return; cache
/// problems are handled by falling back, not reported.
pub fn analyze_segments_cached<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    detector: &D,
    sampler: &S,
    jobs: usize,
    config: &CacheConfig,
    prior: Option<&AnalysisCache>,
) -> Result<CachedAnalysis, SourceError>
where
    D: Detector + CheckpointState + Clone,
    S: Sampler,
    R: Read + Seek + Send,
{
    let total = file.segment_count();
    let prefix = match prior {
        Some(prior) if prior.config == *config => prior.reusable_prefix(file)?,
        _ => 0,
    };
    let warm = match prior {
        Some(prior) if prefix > 0 => Resume::from_cache(detector, prior, prefix)
            .ok()
            .map(|resume| (prior, resume)),
        _ => None,
    };
    let (resume, mut entries, mut resume_points) = match warm {
        // The reused boundaries among the file's last two keep their
        // stored state; the reusable-prefix rule guarantees it is there.
        Some((prior, resume)) => (
            resume,
            prior.entries[..prefix].to_vec(),
            (total.saturating_sub(1).max(1)..=prefix)
                .filter_map(|b| prior.resume_point(b).cloned())
                .collect(),
        ),
        None => (Resume::cold(detector), Vec::new(), Vec::new()),
    };
    let reused_segments = resume.start;
    let out = run_pipeline(file, sampler, jobs, resume, true)?;
    entries.extend(out.entries);
    resume_points.extend(out.resume);
    Ok(CachedAnalysis {
        analysis: out.analysis,
        cache: AnalysisCache {
            config: config.clone(),
            entries,
            resume: resume_points,
        },
        reused_segments,
        total_segments: total,
    })
}

/// A segment's index, footer entry and record bytes, as read.
type ReadItem = Result<(usize, SegmentMeta, Vec<u8>), BinaryTraceError>;

/// A decoded segment reduced to what the analysis loop walks, or the
/// error that ends the stream there.
type DecodedItem = Result<SampledSegment, BinaryTraceError>;

/// One decoded segment with the sampling decisions already made: the
/// sync events and the sampled accesses in stream order, each with its
/// event id (its stream position), plus how many reads and writes were
/// sampled out. The analysis loop walks only these events, so its cost
/// follows the sync events and the sample, not the trace length.
struct SampledSegment {
    meta: SegmentMeta,
    /// The decoded segment; `data.events` holds only the walked events.
    data: SegmentData,
    /// `ids[i]` is the id of `data.events[i]`.
    ids: Vec<EventId>,
    skipped_reads: u64,
    skipped_writes: u64,
}

impl SampledSegment {
    /// Decodes segment `k`, keeping the sync events and the accesses
    /// `sampler` samples. The decision is [`Sampler::decide`], pure in
    /// the event's stream position, so it is the one the sequential
    /// pass makes.
    ///
    /// The filter takes no branch on the event: `decide` is pure, so it
    /// runs for sync events too and its answer is dropped there; the
    /// skip counts add flags, and every id is pushed and then cut back
    /// unless kept. Whether an event is kept follows the trace's random
    /// mix of sync events and accesses, which a branch would mispredict.
    fn decode<S: Sampler>(
        k: usize,
        meta: SegmentMeta,
        bytes: &[u8],
        sampler: &S,
    ) -> Result<Self, BinaryTraceError> {
        let mut ids = Vec::new();
        // Skipped reads and writes, indexed by "is a write".
        let mut skipped = [0u64; 2];
        let data = decode_segment_indexed(k, bytes, &meta, |id, event| {
            let keep = !event.kind.is_access() | sampler.decide(id, event);
            skipped[usize::from(matches!(event.kind, EventKind::Write(_)))] += u64::from(!keep);
            ids.push(id);
            ids.truncate(ids.len() - usize::from(!keep));
            keep
        })?;
        let [skipped_reads, skipped_writes] = skipped;
        Ok(SampledSegment {
            meta,
            data,
            ids,
            skipped_reads,
            skipped_writes,
        })
    }
}

/// The reader stage: sequential byte reads, segment `k` to decoder
/// `k % decoders.len()`. Stops at the first read failure (the
/// coordinator surfaces it in stream order) or when a decoder hangs up.
fn read_segments<R: Read + Seek>(
    file: &mut SegmentedTraceFile<R>,
    start: usize,
    decoders: Vec<SyncSender<ReadItem>>,
) {
    for k in start..file.segment_count() {
        let meta = file.meta(k).clone();
        let item = file.read_segment_bytes(k).map(|bytes| (k, meta, bytes));
        let stop = item.is_err();
        if decoders[k % decoders.len()].send(item).is_err() || stop {
            return;
        }
    }
}

/// One decoder stage: decodes each segment and makes its sampling
/// decisions. Stops after forwarding the first failure, or when the
/// coordinator hangs up.
fn decode_segments<S: Sampler>(rx: Receiver<ReadItem>, tx: SyncSender<DecodedItem>, sampler: &S) {
    for item in rx {
        let decoded =
            item.and_then(|(k, meta, bytes)| SampledSegment::decode(k, meta, &bytes, sampler));
        let stop = decoded.is_err();
        if tx.send(decoded).is_err() || stop {
            return;
        }
    }
}

/// Replays the segments from `resume.start` on: reader and decoders
/// ahead, the one analysis loop on the calling thread.
fn run_pipeline<D, S, R>(
    file: &mut SegmentedTraceFile<R>,
    sampler: &S,
    jobs: usize,
    resume: Resume<D>,
    record: bool,
) -> Result<PipelineOutput, SourceError>
where
    D: Detector + CheckpointState + Clone,
    S: Sampler,
    R: Read + Seek + Send,
{
    let Resume {
        start,
        mut names,
        mut threads,
        mut checker,
        mut detector,
        mut reports,
    } = resume;
    let mut entries: Vec<CacheEntry> = Vec::new();
    let mut resume_points: Vec<ResumePoint> = Vec::new();
    let segment_count = file.segment_count();
    let jobs = jobs.clamp(1, segment_count.saturating_sub(start).max(1));

    std::thread::scope(|scope| -> Result<(), SourceError> {
        let mut to_decoders = Vec::with_capacity(jobs);
        let mut decoded = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let (tx, rx) = sync_channel::<ReadItem>(READ_AHEAD);
            let (dtx, drx) = sync_channel::<DecodedItem>(READ_AHEAD);
            scope.spawn(move || decode_segments(rx, dtx, sampler));
            to_decoders.push(tx);
            decoded.push(drx);
        }
        scope.spawn(move || read_segments(file, start, to_decoders));

        for k in start..segment_count {
            // A closed channel means the decoder panicked; the scope
            // re-raises that panic once this closure returns.
            let Ok(item) = decoded[k % jobs].recv() else {
                break;
            };
            let SampledSegment {
                meta,
                data,
                ids,
                skipped_reads,
                skipped_writes,
            } = item?;
            check_watermarks(&names, &meta)?;
            merge_names(&mut names.locks, &data.new_locks, "lock", meta.offset)?;
            merge_names(&mut names.vars, &data.new_vars, "var", meta.offset)?;
            threads = threads
                .max(data.declared_threads)
                .max(data.observed_threads);

            let seg_report_start = reports.len();
            for (&id, &event) in ids.iter().zip(&data.events) {
                let report = if event.kind.is_access() {
                    // The decoder sampled this access.
                    detector.process_admitted(id, event)
                } else {
                    checker.check(id, event)?;
                    detector.process(id, event)
                };
                reports.extend(report);
            }
            detector.record_skipped_accesses(skipped_reads, skipped_writes);

            if record {
                let mut report_bytes = Vec::new();
                encode_reports(&mut report_bytes, &reports[seg_report_start..]);
                entries.push(CacheEntry {
                    crc32: meta.crc32,
                    offset: meta.offset,
                    byte_len: meta.byte_len,
                    event_count: meta.event_count,
                    first_event_id: meta.first_event_id,
                    locks_before: meta.locks_before,
                    vars_before: meta.vars_before,
                    new_locks: data.new_locks,
                    new_vars: data.new_vars,
                    reports: report_bytes,
                });
                // The sidecar keeps the state after the file's last two
                // segments only: after `k + 1` segments, for the last
                // two `k`.
                if k + 2 >= segment_count {
                    let mut point = ResumePoint {
                        threads,
                        ..ResumePoint::default()
                    };
                    checker.export_wire(&mut point.discipline);
                    detector.export_state(&mut point.state);
                    resume_points.push(point);
                }
            }
        }
        Ok(())
    })?;

    Ok(PipelineOutput {
        analysis: SegmentedAnalysis {
            reports,
            counters: *detector.counters(),
            threads,
            lock_names: names.locks,
            var_names: names.vars,
        },
        entries,
        resume: resume_points,
    })
}

/// Rejects a segment whose name-table watermarks disagree with the
/// segments already walked.
fn check_watermarks(names: &Names, meta: &SegmentMeta) -> Result<(), SourceError> {
    if names.locks.len() != meta.locks_before || names.vars.len() != meta.vars_before {
        return Err(BinaryTraceError::new(
            meta.offset,
            "segment name-table watermark disagrees with the preceding segments",
        )
        .into());
    }
    Ok(())
}

/// Appends a segment's name delta, rejecting names already defined by
/// an earlier segment — the cross-segment half of the v1 reader's
/// duplicate check (the in-segment half lives in
/// [`decode_segment`](freshtrack_trace::decode_segment)).
fn merge_names(
    table: &mut Vec<String>,
    fresh: &[String],
    what: &str,
    offset: u64,
) -> Result<(), SourceError> {
    if fresh.is_empty() {
        return Ok(());
    }
    // One pass over the table, not one per fresh name: a segment may
    // define tens of thousands. The error names the first duplicate in
    // the segment's own order.
    let position: HashMap<&str, usize> = fresh.iter().map(String::as_str).zip(0..).collect();
    if let Some(first) = table
        .iter()
        .filter_map(|existing| position.get(existing.as_str()).copied())
        .min()
    {
        return Err(BinaryTraceError::new(
            offset,
            format!("duplicate definition of {what} {:?}", fresh[first]),
        )
        .into());
    }
    table.extend_from_slice(fresh);
    Ok(())
}

// ---------------------------------------------------------------------
// Report wire codec (sidecar payloads).
// ---------------------------------------------------------------------

/// Serializes a segment's report slice for a sidecar entry.
fn encode_reports(out: &mut Vec<u8>, reports: &[RaceReport]) {
    wire::put_varint(out, reports.len() as u64);
    for report in reports {
        wire::put_varint(out, report.event.as_u64());
        wire::put_varint(out, u64::from(report.tid.as_u32()));
        wire::put_varint(out, report.var.index() as u64);
        wire::put_bool(out, matches!(report.access, AccessKind::Write));
        wire::put_bool(out, report.with_write);
        wire::put_bool(out, report.with_read);
    }
}

/// Decodes a sidecar entry's report slice.
fn decode_reports(bytes: &[u8]) -> Result<Vec<RaceReport>, WireError> {
    let mut r = WireReader::new(bytes);
    let n = {
        let n = r.get_usize()?;
        if n > r.remaining() {
            return Err(WireError::Truncated);
        }
        n
    };
    let mut reports = Vec::with_capacity(n);
    for _ in 0..n {
        let event = EventId::new(r.get_varint()?);
        let tid = ThreadId::new(r.get_u32()?);
        let var = VarId::new(r.get_u32()?);
        let access = if r.get_bool()? {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let with_write = r.get_bool()?;
        let with_read = r.get_bool()?;
        if !with_write && !with_read {
            return Err(WireError::Invalid("race report with no conflict"));
        }
        reports.push(RaceReport::new(
            event, tid, var, access, with_write, with_read,
        ));
    }
    r.finish()?;
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_codec_round_trips() {
        let reports = vec![
            RaceReport::new(
                EventId::new(7),
                ThreadId::new(2),
                VarId::new(5),
                AccessKind::Write,
                true,
                true,
            ),
            RaceReport::new(
                EventId::new(1_000_000),
                ThreadId::new(0),
                VarId::new(0),
                AccessKind::Read,
                true,
                false,
            ),
        ];
        let mut bytes = Vec::new();
        encode_reports(&mut bytes, &reports);
        assert_eq!(decode_reports(&bytes).unwrap(), reports);
        assert_eq!(
            decode_reports(&{
                let mut b = Vec::new();
                encode_reports(&mut b, &[]);
                b
            })
            .unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn report_codec_rejects_truncation_and_trailing_bytes() {
        let reports = vec![RaceReport::new(
            EventId::new(3),
            ThreadId::new(1),
            VarId::new(4),
            AccessKind::Read,
            false,
            true,
        )];
        let mut bytes = Vec::new();
        encode_reports(&mut bytes, &reports);
        for cut in 0..bytes.len() {
            assert!(decode_reports(&bytes[..cut]).is_err(), "cut={cut}");
        }
        bytes.push(0);
        assert!(decode_reports(&bytes).is_err());
    }
}
