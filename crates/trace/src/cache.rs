//! The `.ftc` analysis-cache sidecar format.
//!
//! A sidecar lets re-analysis of a growing `.ftb` v2 trace replay only
//! the appended segments: it records, per segment, enough to (a) prove the
//! segment is byte-identical to what a previous run analyzed and (b)
//! resume the analysis right after it. Concretely each entry carries
//! the segment's footer identity (CRC-32, offset, length, event range,
//! name-table watermarks), the name/thread/pending/discipline deltas
//! the coordinator accumulated through it, the segment's race reports
//! and cumulative counters, and the engine checkpoint at the
//! segment's end boundary (a delta-encoded sync plane plus the access
//! records the segment changed). The checkpoint, counter and report
//! payloads are **opaque bytes** here — `freshtrack-core` owns those
//! encodings (its checkpoint wire formats plus the byte-level delta
//! codec); this module owns only the container, exactly like
//! [`SegmentedTraceFile`](crate::SegmentedTraceFile) owns segment
//! blocks without knowing what an engine does with them.
//!
//! Layout (all integers are the varints of
//! [`freshtrack_clock::wire`]):
//!
//! ```text
//! [magic "FTC1\r\n\x1a\n"]
//! [header body: format version, config strings, state version,
//!  jobs, entry count][u32 LE CRC-32 of the header body]
//! entry × count: [entry body][u32 LE CRC-32 of the entry body]
//! ```
//!
//! Every block is CRC-framed with the same slice-by-8 CRC-32 the v2
//! trace format uses, so a flipped bit anywhere in the sidecar is a
//! clean [`CacheError`] — the analyzer then falls back to a cold run
//! and rewrites the file. A cache is *advisory*: decoding failure is
//! never an analysis failure.

use freshtrack_clock::wire::{self, WireError, WireReader};

use crate::segmented::crc32;
use crate::SegmentMeta;

/// The 8-byte magic opening a `.ftc` sidecar (same shape as the v2
/// trace magic: CRLF/CtrlZ/LF guards against text-mode mangling).
pub const CACHE_MAGIC: [u8; 8] = *b"FTC1\r\n\x1a\n";

/// Container format version; bump on any layout change.
const CACHE_FORMAT_VERSION: u64 = 1;

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

/// One segment's cache entry: identity, name and state deltas, and the
/// end-of-segment checkpoint payloads.
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
    /// Thread count (declared or observed) after the segment.
    pub threads: u32,
    /// Pending `RelAfter_S` bits after the segment.
    pub pending: Vec<bool>,
    /// Lock-discipline holder table after the segment
    /// ([`DisciplineChecker::export_wire`](crate::DisciplineChecker::export_wire)).
    pub discipline: Vec<u8>,
    /// Cumulative merged counters after the segment (opaque; core's
    /// counter encoding).
    pub counters: Vec<u8>,
    /// Sync-plane checkpoint after the segment, delta-encoded against
    /// the previous entry's (opaque; chain base is the empty byte
    /// string).
    pub sync_delta: Vec<u8>,
    /// Access-plane checkpoint of the segment (opaque): the access
    /// engine's header plus the records of only the variables the
    /// segment's sampled accesses touched, applied on top of the
    /// previous entries' in order (core's `AccessCheckpoint`; payload
    /// version 2). The analyzer writes and reads exactly one; the list
    /// shape is the container's, kept from builds that wrote one per
    /// worker.
    pub access_deltas: Vec<Vec<u8>>,
    /// The segment's race reports (opaque; core's report encoding).
    pub reports: Vec<u8>,
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

/// A decoded `.ftc` sidecar: the fingerprint plus one entry per
/// analyzed segment, in file order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCache {
    /// The fingerprint the entries were computed under.
    pub config: CacheConfig,
    /// Per-segment entries, index-aligned with the trace's segments.
    pub entries: Vec<CacheEntry>,
}

impl AnalysisCache {
    /// An empty cache for `config`.
    pub fn new(config: CacheConfig) -> Self {
        AnalysisCache {
            config,
            entries: Vec::new(),
        }
    }

    /// Serializes the sidecar (magic, CRC-framed header, CRC-framed
    /// entries).
    pub fn encode(&self) -> Vec<u8> {
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
            wire::put_varint(&mut body, u64::from(entry.threads));
            wire::put_varint(&mut body, entry.pending.len() as u64);
            for &bit in &entry.pending {
                wire::put_bool(&mut body, bit);
            }
            put_payload(&mut body, &entry.discipline);
            put_payload(&mut body, &entry.counters);
            put_payload(&mut body, &entry.sync_delta);
            wire::put_varint(&mut body, entry.access_deltas.len() as u64);
            for delta in &entry.access_deltas {
                put_payload(&mut body, delta);
            }
            put_payload(&mut body, &entry.reports);
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
        let mut r = WireReader::new(&header);
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
            let mut r = WireReader::new(&body);
            let entry = decode_entry(&mut r).map_err(|e| CacheError(format!("entry {k}: {e}")))?;
            r.finish()
                .map_err(|_| CacheError(format!("entry {k}: trailing bytes")))?;
            entries.push(entry);
        }
        if !rest.is_empty() {
            return Err(fail("trailing bytes after the last entry"));
        }
        Ok(AnalysisCache { config, entries })
    }
}

fn decode_entry(r: &mut WireReader<'_>) -> Result<CacheEntry, WireError> {
    let crc32 = r.get_u32()?;
    let offset = r.get_varint()?;
    let byte_len = r.get_varint()?;
    let event_count = r.get_varint()?;
    let first_event_id = r.get_varint()?;
    let locks_before = r.get_usize()?;
    let vars_before = r.get_usize()?;
    let new_locks = get_strings(r)?;
    let new_vars = get_strings(r)?;
    let threads = r.get_u32()?;
    let n = guarded_count(r)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push(r.get_bool()?);
    }
    let discipline = get_payload(r)?;
    let counters = get_payload(r)?;
    let sync_delta = get_payload(r)?;
    let n = guarded_count(r)?;
    let mut access_deltas = Vec::with_capacity(n);
    for _ in 0..n {
        access_deltas.push(get_payload(r)?);
    }
    let reports = get_payload(r)?;
    Ok(CacheEntry {
        crc32,
        offset,
        byte_len,
        event_count,
        first_event_id,
        locks_before,
        vars_before,
        new_locks,
        new_vars,
        threads,
        pending,
        discipline,
        counters,
        sync_delta,
        access_deltas,
        reports,
    })
}

/// Appends `[varint len][body][u32 LE CRC-32(body)]`.
fn put_block(out: &mut Vec<u8>, body: &[u8]) {
    wire::put_varint(out, body.len() as u64);
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
}

/// Splits one CRC-framed block off `bytes`, verifying its checksum.
fn take_block<'a>(bytes: &'a [u8], what: &str) -> Result<(Vec<u8>, &'a [u8]), CacheError> {
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
    Ok((body.to_vec(), rest))
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
                    threads: 3,
                    pending: vec![true, false, true],
                    discipline: vec![1, 2, 3],
                    counters: vec![9; 18],
                    sync_delta: vec![0xAA; 40],
                    access_deltas: vec![vec![1; 10], vec![2; 12]],
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
                    access_deltas: vec![Vec::new(), Vec::new()],
                    ..CacheEntry::default()
                },
            ],
        }
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
