//! Pipelined, checkpointed, and incremental analysis of segmented
//! `.ftb` v2 trace files.
//!
//! [`analyze_segments`] replays a [`SegmentedTraceFile`] through one
//! sync engine and one access engine — the monolith's event loop — with
//! segment *decoding* fanned out to `jobs` threads, producing reports
//! and counters **byte-identical** to a sequential
//! [`Detector::run_source`](crate::Detector::run_source) pass over the
//! same stream (the differential suite in `tests/parallel.rs` pins
//! this). Decoding (checksum, varint records, name deltas) is most of a
//! replay's cost and a pure function of one segment's bytes
//! ([`decode_segment_indexed`]), so it is the part that parallelizes:
//!
//! * A **reader** thread reads segment bytes off the file in order —
//!   cheap, sequential I/O — and hands segment `k` to decoder
//!   `k % jobs` over a bounded channel.
//! * Each **decoder** thread decodes its segments and sends them back on
//!   its own bounded channel.
//! * The **coordinator** (the calling thread) receives segment `k` from
//!   decoder `k % jobs`, so segments arrive in stream order and the
//!   first error in stream order wins, with no reorder buffer. Per
//!   segment it runs the cross-segment watermark and duplicate-name
//!   checks, then walks the events through the locking-discipline check
//!   the sequential path gets from
//!   [`Validated`](freshtrack_trace::Validated) and through the sync and
//!   access halves of one engine pair ([`SplitDetector`]). Published
//!   views are taken per sampled access and dropped before the owner's
//!   next sync mutation, so lazy-copy counters stay identical to the
//!   monolith's (take-before-mutate, see [`SyncEngine::publish`]).
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
//! *O(appended)*: alongside the analysis it fills an
//! [`AnalysisCache`] sidecar (the `.ftc` format of
//! `freshtrack-trace`) recording, per segment, the segment's byte
//! identity and the complete analysis state at its end boundary — the
//! sync checkpoint (delta-encoded along the segment chain), the access
//! engine's header plus the records of just the variables the segment's
//! sampled accesses touched ([`AccessCheckpoint`]; the coordinator
//! collects their ids as it replays, so the cost follows the sample,
//! not the variable count), name/thread/pending/discipline tables,
//! cumulative counters, and the segment's reports. On the next run the
//! sidecar's entry prefix is validated against the file (fingerprint
//! equality, footer identity, and a CRC-32 re-hash of every reused
//! segment's bytes — corruption demotes the cache, it is never silently
//! trusted); the sync engine is rebuilt from the folded delta chain,
//! the access engine by folding every reused entry's records in order
//! (exact, because between boundaries only sampled accesses mutate the
//! access engine, and only at their own variable and the header), and
//! only the segments past the prefix are replayed. Because the seeded
//! state is checkpoint-exact — including the sharing-topology alias
//! marks of
//! [`OrderedSyncEngine`](crate::OrderedSyncEngine) — the resumed run's
//! reports *and counters* are byte-identical to a cold run over the
//! full file (invariant 11; `tests/cache.rs` pins it across engines ×
//! samplers × append points).

use std::io::{Read, Seek};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

use freshtrack_clock::wire::{self, WireError, WireReader};
use freshtrack_sampling::Sampler;
use freshtrack_trace::{
    decode_segment_indexed, AnalysisCache, BinaryTraceError, CacheConfig, CacheEntry,
    DisciplineChecker, EventId, EventKind, SegmentData, SegmentMeta, SegmentedTraceFile,
    SourceError, ThreadId, VarId,
};

use crate::checkpoint::{
    self, apply_delta, encode_delta, AccessCheckpoint, CheckpointError, CheckpointState,
};
use crate::plane::{AccessEngine, SplitDetector, SyncEngine};
use crate::{AccessKind, Counters, RaceReport};

/// Version of the opaque checkpoint/counter/report payloads this crate
/// writes into `.ftc` sidecar entries
/// ([`CacheConfig::state_version`]). Bump whenever any
/// [`CheckpointState`] wire format, the counter field list, or the
/// report encoding changes shape — older sidecars then fail the
/// fingerprint check and are rebuilt instead of misdecoded. Version 2
/// stores per-variable access records where version 1 stored a byte
/// delta of the whole access plane.
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
struct Resume<D: SplitDetector> {
    /// First segment to replay.
    start: usize,
    lock_names: Vec<String>,
    var_names: Vec<String>,
    threads: u32,
    pending: Vec<bool>,
    checker: DisciplineChecker,
    /// Cumulative counters at the boundary.
    counters: Counters,
    sync: D::Sync,
    access: D::Access,
    /// The sync engine's export at the boundary: the base the next
    /// sidecar delta is encoded against (empty for a cold run).
    sync_state: Vec<u8>,
    /// Reports for segments `0..start`.
    reports: Vec<RaceReport>,
}

impl<D> Resume<D>
where
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
{
    fn cold(detector: &D) -> Self {
        Resume {
            start: 0,
            lock_names: Vec::new(),
            var_names: Vec::new(),
            threads: 0,
            pending: Vec::new(),
            checker: DisciplineChecker::new(),
            counters: Counters::new(),
            sync: detector.split_sync(),
            access: detector.split_access(),
            sync_state: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Rebuilds the boundary state after `prefix` validated sidecar
    /// entries: names and reports by concatenation, the sync engine by
    /// folding the delta chain and importing the result, the access
    /// engine by folding every entry's access records into a fresh
    /// engine in order, the rest from the last entry.
    ///
    /// Any failure means the sidecar lies about its own contents
    /// (possible only across a format drift the fingerprint missed), or
    /// was written by a build that kept one access checkpoint per
    /// worker — the caller falls back to a cold run.
    fn from_cache(
        detector: &D,
        prior: &AnalysisCache,
        prefix: usize,
    ) -> Result<Self, CheckpointError> {
        let mut sync_state: Vec<u8> = Vec::new();
        let mut access = detector.split_access();
        let mut lock_names = Vec::new();
        let mut var_names = Vec::new();
        let mut reports = Vec::new();
        for entry in &prior.entries[..prefix] {
            let [access_records] = entry.access_deltas.as_slice() else {
                return Err(
                    WireError::Invalid("cache entry must hold one access checkpoint").into(),
                );
            };
            sync_state = apply_delta(&sync_state, &entry.sync_delta)?;
            lock_names.extend(entry.new_locks.iter().cloned());
            var_names.extend(entry.new_vars.iter().cloned());
            // Every variable a segment's events name is in the name
            // table by its end, which bounds the access tables.
            access.import_records(access_records, var_names.len())?;
            reports.extend(decode_reports(&entry.reports)?);
        }
        let last = &prior.entries[prefix - 1];
        let checker = DisciplineChecker::import_wire(&last.discipline)?;
        let mut r = WireReader::new(&last.counters);
        let counters = checkpoint::get_counters(&mut r)?;
        r.finish()?;
        let mut sync = detector.split_sync();
        if !sync_state.is_empty() {
            sync.import_state(&sync_state)?;
        }
        Ok(Resume {
            start: prefix,
            lock_names,
            var_names,
            threads: last.threads,
            pending: last.pending.clone(),
            checker,
            counters,
            sync,
            access,
            sync_state,
            reports,
        })
    }
}

struct PipelineOutput {
    analysis: SegmentedAnalysis,
    /// Sidecar entries for the replayed segments (empty unless
    /// recording).
    entries: Vec<CacheEntry>,
}

/// Replays a segmented trace file on the decode-ahead pipeline; see the
/// module docs for the architecture and the equivalence argument.
///
/// `detector` must be in its initial state (it supplies configuration —
/// engine options and sampler seed — via [`SplitDetector`], never
/// accumulated state), and `sampler` must make the same decisions as
/// the detector's own sampler (same seed); the CLI constructs both from
/// one `--seed`. `jobs` is the number of decoder threads, clamped to at
/// least 1 and at most the number of segments; the output is the same
/// at every value.
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
/// [`Detector::run_source`](crate::Detector::run_source).
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
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
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
/// so a sidecar seeds a run at any `jobs`. An entry extends the prefix
/// only if it matches the footer's identity for its segment *and* the
/// segment's bytes still hash to the recorded CRC-32. The first
/// mismatch ends the prefix; everything after it is replayed and
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
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let total = file.segment_count();
    let prefix = validated_prefix(file, config, prior)?;
    let (resume, mut entries) = match prior {
        Some(prior) if prefix > 0 => match Resume::from_cache(detector, prior, prefix) {
            Ok(resume) => (resume, prior.entries[..prefix].to_vec()),
            Err(_) => (Resume::cold(detector), Vec::new()),
        },
        _ => (Resume::cold(detector), Vec::new()),
    };
    let reused_segments = resume.start;
    let out = run_pipeline(file, sampler, jobs, resume, true)?;
    entries.extend(out.entries);
    Ok(CachedAnalysis {
        analysis: out.analysis,
        cache: AnalysisCache {
            config: config.clone(),
            entries,
        },
        reused_segments,
        total_segments: total,
    })
}

/// The longest sidecar prefix that is safe to reuse: fingerprint
/// equality, then per segment the footer identity *and* a CRC re-hash
/// of the segment's actual bytes.
fn validated_prefix<R: Read + Seek>(
    file: &mut SegmentedTraceFile<R>,
    config: &CacheConfig,
    prior: Option<&AnalysisCache>,
) -> Result<usize, SourceError> {
    let Some(prior) = prior else { return Ok(0) };
    if prior.config != *config {
        return Ok(0);
    }
    let n = prior.entries.len().min(file.segment_count());
    let mut prefix = 0;
    while prefix < n {
        let meta = file.meta(prefix).clone();
        if !prior.entries[prefix].matches(&meta) || file.segment_crc32(prefix)? != meta.crc32 {
            break;
        }
        prefix += 1;
    }
    Ok(prefix)
}

/// A segment's index, footer entry and record bytes, as read.
type ReadItem = Result<(usize, SegmentMeta, Vec<u8>), BinaryTraceError>;

/// A decoded segment, or the error that ends the stream there.
type DecodedItem = Result<(SegmentMeta, SegmentData), BinaryTraceError>;

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

/// One decoder stage. Stops after forwarding the first failure, or when
/// the coordinator hangs up.
fn decode_segments(rx: Receiver<ReadItem>, tx: SyncSender<DecodedItem>) {
    for item in rx {
        let decoded = item.and_then(|(k, meta, bytes)| {
            let data = decode_segment_indexed(k, &bytes, &meta)?;
            Ok((meta, data))
        });
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
    D: SplitDetector,
    D::Sync: CheckpointState,
    D::Access: AccessCheckpoint,
    S: Sampler + Clone + Send,
    R: Read + Seek + Send,
{
    let Resume {
        start,
        mut lock_names,
        mut var_names,
        mut threads,
        mut pending,
        mut checker,
        mut counters,
        mut sync,
        mut access,
        mut sync_state,
        mut reports,
    } = resume;
    let mut sampler = sampler.clone();
    let mut entries: Vec<CacheEntry> = Vec::new();
    let mut dirty = DirtyVars::default();
    let segment_count = file.segment_count();
    let jobs = jobs.clamp(1, segment_count.saturating_sub(start).max(1));

    std::thread::scope(|scope| -> Result<(), SourceError> {
        let mut to_decoders = Vec::with_capacity(jobs);
        let mut decoded = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let (tx, rx) = sync_channel::<ReadItem>(READ_AHEAD);
            let (dtx, drx) = sync_channel::<DecodedItem>(READ_AHEAD);
            scope.spawn(move || decode_segments(rx, dtx));
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
            let (meta, data) = item?;
            check_watermarks(&lock_names, &var_names, &meta)?;
            merge_names(&mut lock_names, &data.new_locks, "lock", meta.offset)?;
            merge_names(&mut var_names, &data.new_vars, "var", meta.offset)?;
            threads = threads
                .max(data.declared_threads)
                .max(data.observed_threads);

            let seg_report_start = reports.len();
            for (i, &event) in data.events.iter().enumerate() {
                let id = EventId::new(meta.first_event_id + i as u64);
                checker.check(id, event)?;
                counters.events += 1;
                let tid = event.tid;
                // Deferred admission, mirroring the monolithic engines:
                // only sync events and *sampled* accesses widen the
                // sync plane (invariant 10).
                match event.kind {
                    EventKind::Acquire(lock) => {
                        sync.ensure_thread(tid);
                        sync.acquire(tid, lock, &mut counters);
                    }
                    EventKind::Release(lock) => {
                        sync.ensure_thread(tid);
                        if pending.len() <= tid.index() {
                            pending.resize(tid.index() + 1, false);
                        }
                        let sampled = std::mem::take(&mut pending[tid.index()]);
                        sync.release(tid, lock, sampled, &mut counters);
                    }
                    EventKind::Read(var) | EventKind::Write(var) => {
                        if sampler.sample(id, event) {
                            if record {
                                dirty.mark(var);
                            }
                            sync.ensure_thread(tid);
                            if pending.len() <= tid.index() {
                                pending.resize(tid.index() + 1, false);
                            }
                            pending[tid.index()] = true;
                            // Take-before-mutate: the view dies inside
                            // this arm, before `tid`'s next sync
                            // mutation, so it never forces a deep copy
                            // the monolith would not pay.
                            let view = sync.publish(tid);
                            let outcome = access.access_sampled(id, event, &view, &mut counters);
                            debug_assert!(outcome.sampled, "hoisted decision admitted this");
                            if let Some(report) = outcome.report {
                                reports.push(report);
                            }
                        } else {
                            crate::plane::tally_access(&event, &mut counters);
                        }
                    }
                }
            }

            if record {
                let mut sync_export = Vec::new();
                sync.export_state(&mut sync_export);
                let mut access_records = Vec::new();
                dirty.export(&access, &mut access_records);
                let mut discipline = Vec::new();
                checker.export_wire(&mut discipline);
                let mut counter_bytes = Vec::new();
                checkpoint::put_counters(&mut counter_bytes, &counters);
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
                    threads,
                    pending: pending.clone(),
                    discipline,
                    counters: counter_bytes,
                    sync_delta: encode_delta(&sync_state, &sync_export),
                    access_deltas: vec![access_records],
                    reports: report_bytes,
                });
                sync_state = sync_export;
            }
        }
        Ok(())
    })?;

    Ok(PipelineOutput {
        analysis: SegmentedAnalysis {
            reports,
            counters,
            threads,
            lock_names,
            var_names,
        },
        entries,
    })
}

/// The variables sampled accesses touched since the last segment
/// boundary: a bitset for the membership test plus the list of ids, both
/// cleared at each export.
#[derive(Default)]
struct DirtyVars {
    seen: Vec<u64>,
    list: Vec<VarId>,
}

impl DirtyVars {
    fn mark(&mut self, var: VarId) {
        let (word, bit) = (var.index() / 64, 1u64 << (var.index() % 64));
        if word >= self.seen.len() {
            self.seen.resize(word + 1, 0);
        }
        if self.seen[word] & bit == 0 {
            self.seen[word] |= bit;
            self.list.push(var);
        }
    }

    /// Exports `access`'s header and the marked variables' records onto
    /// `out`, then clears the set.
    fn export<A: AccessCheckpoint>(&mut self, access: &A, out: &mut Vec<u8>) {
        self.list.sort_unstable();
        access.export_records(&self.list, out);
        for var in self.list.drain(..) {
            self.seen[var.index() / 64] = 0;
        }
    }
}

/// Rejects a segment whose name-table watermarks disagree with the
/// segments already walked.
fn check_watermarks(
    lock_names: &[String],
    var_names: &[String],
    meta: &SegmentMeta,
) -> Result<(), SourceError> {
    if lock_names.len() != meta.locks_before || var_names.len() != meta.vars_before {
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
    for name in fresh {
        if table.iter().any(|existing| existing == name) {
            return Err(BinaryTraceError::new(
                offset,
                format!("duplicate definition of {what} {name:?}"),
            )
            .into());
        }
        table.push(name.clone());
    }
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
