//! The `.ftc` analysis-cache sidecar format.
//!
//! A sidecar lets re-analysis of a growing `.ftb` v2 trace replay only
//! the appended segments. It records, per segment, enough to prove the
//! segment is byte-identical to what a previous run analyzed and to
//! re-emit that run's results for it: the segment's footer identity
//! (CRC-32, offset, length, event range, name-table watermarks), the
//! names it defines, and its race reports. The analysis state itself is
//! kept only at the last two segment boundaries, after segments
//! `len − 1` and `len` ([`ResumePoint`]): the thread count, the
//! discipline table and the detector's checkpoint. An append can change only
//! the file's last, partial segment, so a warm run resumes from one of
//! those two; a prefix that ends anywhere earlier runs cold
//! ([`AnalysisCache::reusable_prefix`]).
//!
//! The checkpoint and report payloads are **opaque bytes**
//! here — `freshtrack-core` owns those encodings; this module owns only
//! the container, exactly like
//! [`SegmentedTraceFile`] owns segment blocks without knowing what an
//! engine does with them.
//!
//! Layout (all integers are the varints of
//! [`freshtrack_clock::wire`]):
//!
//! ```text
//! [magic "FTC1\r\n\x1a\n"]
//! [header body: format version, config strings, state version,
//!  jobs, entry count][u32 LE CRC-32 of the header body]
//! entry × count: [identity, new names, reports][u32 LE CRC-32]
//! resume point × min(count, 2), oldest first:
//!     [threads, discipline, detector checkpoint][u32 LE CRC-32]
//! ```
//!
//! Every block is CRC-framed with the same slice-by-8 CRC-32 the v2
//! trace format uses, so a flipped bit anywhere in the sidecar is a
//! clean [`CacheError`] — the analyzer then falls back to a cold run
//! and rewrites the file. A cache is *advisory*: decoding failure is
//! never an analysis failure. Format 1 stored the whole analysis state
//! at every boundary (a sync-plane delta and the changed access
//! records per entry); format 2 split a resume point into pending bits,
//! counters and separate sync and access checkpoints, and sized the
//! access checkpoint by the accessing thread's clock rather than the
//! thread table. Format 3 stores the detector's own checkpoint. Older
//! formats fail the version check and are rebuilt cold.

use freshtrack_clock::wire::{self, WireError, WireReader};

use std::io::{Read, Seek};

use crate::segmented::crc32;
use crate::{BinaryTraceError, SegmentMeta, SegmentedTraceFile};

/// The 8-byte magic opening a `.ftc` sidecar (same shape as the v2
/// trace magic: CRLF/CtrlZ/LF guards against text-mode mangling).
pub const CACHE_MAGIC: [u8; 8] = *b"FTC1\r\n\x1a\n";

/// Container format version; bump on any layout change.
const CACHE_FORMAT_VERSION: u64 = 3;

/// A malformed, truncated, or corrupted sidecar.
///
/// Deliberately *not* convertible into an analysis error: callers
/// treat any `CacheError` as "no usable cache" and run cold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheError(String);

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid analysis cache: {}", self.0)
    }
}

impl std::error::Error for CacheError {}

impl From<WireError> for CacheError {
    fn from(e: WireError) -> Self {
        CacheError(e.to_string())
    }
}

/// The configuration fingerprint a sidecar was produced under.
///
/// A cached prefix is only reusable when every field matches the
/// current run exactly — a different engine, sampler, seed, segment
/// geometry, or payload encoding must reject the cache rather than
/// silently reuse state computed under other rules.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Engine identifier (e.g. `"so"`).
    pub engine: String,
    /// Sampler identity including rate bits and seed.
    pub sampler: String,
    /// Segmentation and other run options, as a canonical string.
    pub options: String,
    /// Version of the opaque checkpoint/counter/report payload
    /// encodings (owned by `freshtrack-core`); a format change there
    /// invalidates every older sidecar.
    pub state_version: u32,
    /// Kept for format compatibility, and compared like every other
    /// field. Analysis state no longer depends on the job count (one
    /// access checkpoint at every `--jobs`), so writers record 1 — the
    /// CLI always does, and its sidecar then seeds a run at any job
    /// count. A sidecar from a build that kept one access checkpoint per
    /// worker (`jobs` ≥ 2) is rebuilt cold.
    pub jobs: u32,
}

/// One segment's cache entry: its identity, the names it defines, and
/// its reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheEntry {
    /// CRC-32 of the segment's record bytes (must equal the footer's).
    pub crc32: u32,
    /// Segment start offset in the trace file.
    pub offset: u64,
    /// Segment length in bytes.
    pub byte_len: u64,
    /// Events in the segment.
    pub event_count: u64,
    /// Event id of the segment's first event.
    pub first_event_id: u64,
    /// Lock-name watermark before the segment.
    pub locks_before: usize,
    /// Var-name watermark before the segment.
    pub vars_before: usize,
    /// Lock names the segment defines.
    pub new_locks: Vec<String>,
    /// Variable names the segment defines.
    pub new_vars: Vec<String>,
    /// The segment's race reports (opaque; core's report encoding).
    pub reports: Vec<u8>,
}

/// The complete analysis state at one segment boundary: what a warm run
/// imports to resume there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResumePoint {
    /// Thread count (declared or observed) at the boundary.
    pub threads: u32,
    /// Lock-discipline holder table at the boundary
    /// ([`DisciplineChecker::export_wire`](crate::DisciplineChecker::export_wire)).
    pub discipline: Vec<u8>,
    /// The detector's checkpoint, counters included (opaque; core's
    /// `CheckpointState`).
    pub state: Vec<u8>,
}

impl CacheEntry {
    /// Does this entry describe exactly the segment `meta` indexes?
    /// True only when the byte identity (CRC + extent) *and* the
    /// stream position (event range, name watermarks) agree — the
    /// prefix-validation rule of the incremental analyzer.
    pub fn matches(&self, meta: &SegmentMeta) -> bool {
        self.crc32 == meta.crc32
            && self.offset == meta.offset
            && self.byte_len == meta.byte_len
            && self.event_count == meta.event_count
            && self.first_event_id == meta.first_event_id
            && self.locks_before == meta.locks_before
            && self.vars_before == meta.vars_before
    }
}

/// A decoded `.ftc` sidecar: the fingerprint, one entry per analyzed
/// segment in file order, and the state at the last two boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCache {
    /// The fingerprint the entries were computed under.
    pub config: CacheConfig,
    /// Per-segment entries, index-aligned with the trace's segments.
    pub entries: Vec<CacheEntry>,
    /// The state after the last `resume.len()` segments, oldest first:
    /// after segments `entries.len() − 1` and `entries.len()`. There
    /// are `min(entries.len(), 2)` of them; the boundary before the
    /// first segment is the empty state and is not stored.
    pub resume: Vec<ResumePoint>,
}

impl AnalysisCache {
    /// An empty cache for `config`.
    pub fn new(config: CacheConfig) -> Self {
        AnalysisCache {
            config,
            entries: Vec::new(),
            resume: Vec::new(),
        }
    }

    /// The stored state after the first `boundary` segments, if that
    /// boundary is one of the last two this sidecar keeps.
    pub fn resume_point(&self, boundary: usize) -> Option<&ResumePoint> {
        let first = self.entries.len() + 1 - self.resume.len().min(self.entries.len());
        self.resume.get(boundary.checked_sub(first)?)
    }

    /// The number of segments of `file` a warm run can take from this
    /// sidecar: the **one reusable-prefix rule** the analyzer applies
    /// and `segments --cache` displays.
    ///
    /// Entries must match the footer's identity for their segment
    /// ([`CacheEntry::matches`]), and then every segment taken must
    /// re-hash to its recorded CRC-32. The run resumes only at a
    /// boundary with a [`ResumePoint`] — after entry `len − 1` or
    /// `len` — and only where it can rebuild both resume points the
    /// rewritten sidecar needs (a file one segment shorter than the
    /// sidecar cannot give back the point before its own last segment).
    /// Any other prefix is worth nothing and returns 0: a cold run.
    /// The configuration fingerprint is the caller's to compare.
    ///
    /// # Errors
    ///
    /// A [`BinaryTraceError`] if a segment's bytes cannot be read.
    pub fn reusable_prefix<R: Read + Seek>(
        &self,
        file: &mut SegmentedTraceFile<R>,
    ) -> Result<usize, BinaryTraceError> {
        let segments = file.segment_count();
        let usable = |b: usize| {
            self.resume_point(b).is_some()
                && (b < segments || segments == 1 || self.resume_point(segments - 1).is_some())
        };
        let matched = self
            .entries
            .iter()
            .zip(file.metas())
            .take_while(|(entry, meta)| entry.matches(meta))
            .count();
        // Skip the re-hash when no boundary it could confirm is usable.
        let Some(target) = [matched, matched.saturating_sub(1)]
            .into_iter()
            .find(|&b| usable(b))
        else {
            return Ok(0);
        };
        for k in 0..target {
            if file.segment_crc32(k)? != file.meta(k).crc32 {
                return Ok(if usable(k) { k } else { 0 });
            }
        }
        Ok(target)
    }

    /// Serializes the sidecar (magic, CRC-framed header, CRC-framed
    /// entries and resume points).
    ///
    /// # Panics
    ///
    /// If `resume` does not hold `min(entries.len(), 2)` points.
    pub fn encode(&self) -> Vec<u8> {
        assert_eq!(
            self.resume.len(),
            self.entries.len().min(2),
            "a sidecar keeps the state at its last two boundaries"
        );
        let mut out = Vec::new();
        out.extend_from_slice(&CACHE_MAGIC);

        let mut body = Vec::new();
        wire::put_varint(&mut body, CACHE_FORMAT_VERSION);
        put_string(&mut body, &self.config.engine);
        put_string(&mut body, &self.config.sampler);
        put_string(&mut body, &self.config.options);
        wire::put_varint(&mut body, u64::from(self.config.state_version));
        wire::put_varint(&mut body, u64::from(self.config.jobs));
        wire::put_varint(&mut body, self.entries.len() as u64);
        put_block(&mut out, &body);

        for entry in &self.entries {
            body.clear();
            wire::put_varint(&mut body, u64::from(entry.crc32));
            wire::put_varint(&mut body, entry.offset);
            wire::put_varint(&mut body, entry.byte_len);
            wire::put_varint(&mut body, entry.event_count);
            wire::put_varint(&mut body, entry.first_event_id);
            wire::put_varint(&mut body, entry.locks_before as u64);
            wire::put_varint(&mut body, entry.vars_before as u64);
            put_strings(&mut body, &entry.new_locks);
            put_strings(&mut body, &entry.new_vars);
            put_payload(&mut body, &entry.reports);
            put_block(&mut out, &body);
        }
        for point in &self.resume {
            body.clear();
            wire::put_varint(&mut body, u64::from(point.threads));
            put_payload(&mut body, &point.discipline);
            put_payload(&mut body, &point.state);
            put_block(&mut out, &body);
        }
        out
    }

    /// Decodes a sidecar, verifying every CRC frame.
    ///
    /// # Errors
    ///
    /// Any structural problem — bad magic, truncation, a checksum
    /// mismatch, malformed varints, trailing bytes — is a
    /// [`CacheError`]; the caller should discard the cache and run
    /// cold.
    pub fn decode(bytes: &[u8]) -> Result<Self, CacheError> {
        let fail = |what: &str| CacheError(what.to_owned());
        let rest = bytes
            .strip_prefix(&CACHE_MAGIC[..])
            .ok_or_else(|| fail("bad magic"))?;

        let (header, mut rest) = take_block(rest, "header")?;
        let mut r = WireReader::new(header);
        let version = r.get_varint()?;
        if version != CACHE_FORMAT_VERSION {
            return Err(CacheError(format!(
                "unsupported cache format version {version}"
            )));
        }
        let config = CacheConfig {
            engine: get_string(&mut r)?,
            sampler: get_string(&mut r)?,
            options: get_string(&mut r)?,
            state_version: r.get_u32()?,
            jobs: r.get_u32()?,
        };
        let entry_count = r.get_usize()?;
        r.finish().map_err(|_| fail("trailing header bytes"))?;
        if entry_count > bytes.len() {
            // Each entry costs at least a CRC frame; a corrupt count
            // must not size an allocation.
            return Err(fail("entry count exceeds sidecar size"));
        }

        let mut entries = Vec::with_capacity(entry_count);
        for k in 0..entry_count {
            let (body, after) = take_block(rest, "entry")?;
            rest = after;
            entries.push(
                decode_body(body, decode_entry)
                    .map_err(|e| CacheError(format!("entry {k}: {e}")))?,
            );
        }
        let mut resume = Vec::with_capacity(entry_count.min(2));
        for k in 0..entry_count.min(2) {
            let (body, after) = take_block(rest, "resume point")?;
            rest = after;
            resume.push(
                decode_body(body, decode_resume_point)
                    .map_err(|e| CacheError(format!("resume point {k}: {e}")))?,
            );
        }
        if !rest.is_empty() {
            return Err(fail("trailing bytes after the last resume point"));
        }
        Ok(AnalysisCache {
            config,
            entries,
            resume,
        })
    }
}

/// Decodes one block body with `get`, rejecting trailing bytes.
fn decode_body<T>(
    body: &[u8],
    get: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = WireReader::new(body);
    let value = get(&mut r)?;
    r.finish()
        .map_err(|_| WireError::Invalid("trailing bytes"))?;
    Ok(value)
}

fn decode_entry(r: &mut WireReader<'_>) -> Result<CacheEntry, WireError> {
    Ok(CacheEntry {
        crc32: r.get_u32()?,
        offset: r.get_varint()?,
        byte_len: r.get_varint()?,
        event_count: r.get_varint()?,
        first_event_id: r.get_varint()?,
        locks_before: r.get_usize()?,
        vars_before: r.get_usize()?,
        new_locks: get_strings(r)?,
        new_vars: get_strings(r)?,
        reports: get_payload(r)?,
    })
}

fn decode_resume_point(r: &mut WireReader<'_>) -> Result<ResumePoint, WireError> {
    Ok(ResumePoint {
        threads: r.get_u32()?,
        discipline: get_payload(r)?,
        state: get_payload(r)?,
    })
}

/// Appends `[varint len][body][u32 LE CRC-32(body)]`.
fn put_block(out: &mut Vec<u8>, body: &[u8]) {
    wire::put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Splits one CRC-framed block off `bytes`, verifying its checksum.
fn take_block<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a [u8], &'a [u8]), CacheError> {
    let mut r = WireReader::new(bytes);
    let len = r.get_usize()?;
    let consumed = bytes.len() - r.remaining();
    let rest = &bytes[consumed..];
    if rest.len() < len + 4 {
        return Err(CacheError(format!("truncated {what} block")));
    }
    let (body, rest) = rest.split_at(len);
    let (crc_bytes, rest) = rest.split_at(4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at(4)"));
    if crc32(body) != stored {
        return Err(CacheError(format!("{what} checksum mismatch")));
    }
    Ok((body, rest))
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    wire::put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let len = r.get_usize()?;
    let bytes = r.get_bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string"))
}

fn put_strings(out: &mut Vec<u8>, strings: &[String]) {
    wire::put_varint(out, strings.len() as u64);
    for s in strings {
        put_string(out, s);
    }
}

fn get_strings(r: &mut WireReader<'_>) -> Result<Vec<String>, WireError> {
    let n = guarded_count(r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_string(r)?);
    }
    Ok(out)
}

fn put_payload(out: &mut Vec<u8>, payload: &[u8]) {
    wire::put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

fn get_payload(r: &mut WireReader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.get_usize()?;
    Ok(r.get_bytes(len)?.to_vec())
}

/// Reads an element count, rejecting counts larger than the remaining
/// input (every element costs at least one byte) so corrupt counts
/// cannot size allocations.
fn guarded_count(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let n = r.get_usize()?;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisCache {
        AnalysisCache {
            config: CacheConfig {
                engine: "so".to_owned(),
                sampler: "bernoulli/rate=3fa47ae147ae147b/seed=7".to_owned(),
                options: "events_per_segment=4096".to_owned(),
                state_version: 1,
                jobs: 2,
            },
            entries: vec![
                CacheEntry {
                    crc32: 0xDEAD_BEEF,
                    offset: 24,
                    byte_len: 100,
                    event_count: 7,
                    first_event_id: 0,
                    new_locks: vec!["l".to_owned()],
                    new_vars: vec!["x".to_owned(), "y".to_owned()],
                    reports: vec![5, 6],
                    ..CacheEntry::default()
                },
                CacheEntry {
                    crc32: 1,
                    offset: 124,
                    byte_len: 60,
                    event_count: 5,
                    first_event_id: 7,
                    locks_before: 1,
                    vars_before: 2,
                    ..CacheEntry::default()
                },
            ],
            resume: vec![
                ResumePoint {
                    threads: 3,
                    discipline: vec![1, 2, 3],
                    state: vec![0xAA; 40],
                },
                ResumePoint::default(),
            ],
        }
    }

    #[test]
    fn resume_points_sit_at_the_last_two_boundaries() {
        let cache = sample();
        assert_eq!(cache.resume_point(0), None);
        assert_eq!(cache.resume_point(1), Some(&cache.resume[0]));
        assert_eq!(cache.resume_point(2), Some(&cache.resume[1]));
        assert_eq!(cache.resume_point(3), None);
        let mut one = sample();
        one.entries.truncate(1);
        one.resume.truncate(1);
        assert_eq!(one.resume_point(0), None);
        assert_eq!(one.resume_point(1), Some(&one.resume[0]));
        assert_eq!(AnalysisCache::decode(&one.encode()).unwrap(), one);
        assert_eq!(AnalysisCache::default().resume_point(0), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let cache = sample();
        let bytes = cache.encode();
        assert_eq!(AnalysisCache::decode(&bytes).unwrap(), cache);
    }

    #[test]
    fn empty_cache_round_trips() {
        let cache = AnalysisCache::new(CacheConfig::default());
        assert_eq!(AnalysisCache::decode(&cache.encode()).unwrap(), cache);
    }

    #[test]
    fn any_single_bit_flip_is_rejected_or_differs() {
        // CRC framing: flipping any bit either fails decoding or (for
        // bits inside length varints that happen to re-frame
        // consistently) must never produce the original value.
        let cache = sample();
        let bytes = cache.encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            match AnalysisCache::decode(&corrupt) {
                Err(_) => {}
                Ok(decoded) => assert_ne!(
                    decoded, cache,
                    "flip at byte {i} decoded back to the original"
                ),
            }
        }
    }

    #[test]
    fn truncation_at_any_point_is_rejected() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                AnalysisCache::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes decoded"
            );
        }
    }
}
