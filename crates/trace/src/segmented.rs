//! The segmented `.ftb` **v2** store: the v1 record grammar partitioned
//! into independently decodable segments, closed by a footer index that
//! makes a flat file randomly addressable.
//!
//! # Layout
//!
//! ```text
//! magic      8 bytes        "FTB2\r\n\x1a\n"
//! segment 0  0xF3 <varint 0> <records…>
//! segment 1  0xF3 <varint 1> <records…>
//! …
//! footer     0xF5 <varint len> <footer body>
//! end        0xF7
//! trailer    8-byte LE offset of the 0xF5 byte, then "FTBi"
//! ```
//!
//! `<records…>` is exactly the v1 grammar (declarations interleaved with
//! event records), with one added rule: the same-thread delta resets at
//! each segment start, so a segment decodes without its predecessors'
//! bytes. Converting v1→v2→v1 is therefore byte-identical — the record
//! sequence is unchanged; only the markers come and go.
//!
//! The **footer body** is, per segment: record-range offset and byte
//! length, event count, first [`EventId`](crate::EventId), name-table
//! and thread watermarks at segment start, a reserved `(offset, len)`
//! pair, and a CRC-32 of the record range — then a CRC-32 of the footer
//! body itself. The 12-byte trailer lets a reader find the footer by
//! seeking to the end, CAR-index style.
//!
//! Files from earlier writers also carry a `0xF4 <varint len> <bytes>`
//! block before every segment but the first (a Djit+ sync-plane
//! checkpoint no reader uses), and point segment `k`'s reserved pair at
//! it. Readers skip such blocks: [`SegmentedTraceFile::open`] checks
//! that the pair lies inside the file and drops it, and the streaming
//! reader steps over the block. This writer emits none and writes
//! `(0, 0)`, so `convert --to binary-v2` upgrades an old file.
//!
//! Sequential consumers never come here:
//! [`BinaryEventReader`](crate::BinaryEventReader) streams v2 files by
//! skipping the markers. This module adds the random-access path
//! ([`SegmentedTraceFile`], [`decode_segment`]) and the segmented
//! writer ([`write_source_binary_v2`]).

use std::io::{Read, Seek, SeekFrom, Write};

use freshtrack_clock::wire::{self, WireError, WireReader};
use freshtrack_clock::ThreadId;

use crate::binary::{
    flush_binary_meta, magic_version, write_event_record, write_varint, RecordDecoder, RecordInput,
    SliceInput, BINARY_MAGIC_V2, OPERAND_ESCAPE, TAG_DEF_LOCK, TAG_END, TAG_FOOTER, TAG_SEGMENT,
    TAG_THREADS,
};
use crate::io::{EmittedMeta, WriteSourceError};
use crate::source::{EventSource, Interner};
use crate::{BinaryTraceError, Event, EventId, EventKind, LockId, Trace, VarId};

/// The 4-byte magic closing a v2 file, preceded by the 8-byte LE footer
/// offset — the seek target for [`SegmentedTraceFile::open`].
pub(crate) const TRAILER_MAGIC: [u8; 4] = *b"FTBi";

/// Trailer size: 8-byte LE footer offset + 4-byte magic.
const TRAILER_LEN: u64 = 12;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the polynomial zlib/PNG use), slice-by-8 and
// dependency-free: eight lookup tables fold 8 input bytes per step, so
// the checksum keeps up with the varint encoder instead of gating it.
// ---------------------------------------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // tables[t][b] = CRC of byte `b` followed by `t` zero bytes, so one
    // step can fold 8 bytes with 8 independent lookups.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Folds `bytes` into a running CRC-32 state (start at `!0`, finish
/// with `^ !0`).
pub(crate) fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xff) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of `bytes` (IEEE, init `!0`, final xor `!0`).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Footer metadata.
// ---------------------------------------------------------------------

/// One segment's footer entry: where its records live and what they
/// contain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// File offset of the first record byte (just past the `0xF3
    /// <varint index>` marker).
    pub offset: u64,
    /// Byte length of the record range.
    pub byte_len: u64,
    /// Number of event records in the segment (declaration records are
    /// not counted).
    pub event_count: u64,
    /// Stream position of the segment's first event — its
    /// [`EventId`](crate::EventId) under the sequential numbering.
    pub first_event_id: u64,
    /// Lock names defined before this segment (operand ids below this
    /// resolve to earlier segments' definitions).
    pub locks_before: usize,
    /// Variable names defined before this segment.
    pub vars_before: usize,
    /// Effective thread count (declared or observed, whichever is
    /// larger) before this segment.
    pub threads_before: u32,
    /// CRC-32 of the record range.
    pub crc32: u32,
}

fn encode_footer(metas: &[SegmentMeta]) -> Vec<u8> {
    let mut body = Vec::new();
    wire::put_varint(&mut body, metas.len() as u64);
    for meta in metas {
        wire::put_varint(&mut body, meta.offset);
        wire::put_varint(&mut body, meta.byte_len);
        wire::put_varint(&mut body, meta.event_count);
        wire::put_varint(&mut body, meta.first_event_id);
        wire::put_varint(&mut body, meta.locks_before as u64);
        wire::put_varint(&mut body, meta.vars_before as u64);
        wire::put_varint(&mut body, u64::from(meta.threads_before));
        // The reserved pair (see the module docs).
        wire::put_varint(&mut body, 0);
        wire::put_varint(&mut body, 0);
        wire::put_varint(&mut body, u64::from(meta.crc32));
    }
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// True when `[offset, offset + len)` ends at or before `limit`; an
/// `offset + len` past `u64::MAX` is out of bounds, not wrapped.
fn within(offset: u64, len: u64, limit: u64) -> bool {
    offset.checked_add(len).is_some_and(|end| end <= limit)
}

/// Decodes the footer body of the footer record at `at`. Each entry's
/// reserved pair is checked and dropped: `(0, 0)`, or for a segment
/// after the first a range before the footer (where earlier writers
/// put that segment's checkpoint block).
fn decode_footer(body: &[u8], at: u64) -> Result<Vec<SegmentMeta>, BinaryTraceError> {
    let fail = |what: String| BinaryTraceError::new(at, what);
    if body.len() < 4 {
        return Err(fail("footer too short for its checksum".to_owned()));
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split at len - 4"));
    if crc32(payload) != stored {
        return Err(fail("footer checksum mismatch".to_owned()));
    }
    let mut r = WireReader::new(payload);
    let wire_fail = |e: WireError| BinaryTraceError::new(at, format!("malformed footer: {e}"));
    let count = r.get_varint().map_err(wire_fail)?;
    if count == 0 {
        return Err(fail("footer lists no segments".to_owned()));
    }
    if count > payload.len() as u64 {
        // Each entry costs several bytes; a corrupt count must not
        // size an allocation.
        return Err(fail("footer segment count exceeds footer size".to_owned()));
    }
    let mut metas = Vec::with_capacity(count as usize);
    for k in 0..count {
        let meta = SegmentMeta {
            offset: r.get_varint().map_err(wire_fail)?,
            byte_len: r.get_varint().map_err(wire_fail)?,
            event_count: r.get_varint().map_err(wire_fail)?,
            first_event_id: r.get_varint().map_err(wire_fail)?,
            locks_before: r.get_usize().map_err(wire_fail)?,
            vars_before: r.get_usize().map_err(wire_fail)?,
            threads_before: r.get_u32().map_err(wire_fail)?,
            crc32: 0,
        };
        let reserved = (
            r.get_varint().map_err(wire_fail)?,
            r.get_varint().map_err(wire_fail)?,
        );
        if reserved != (0, 0) && (k == 0 || !within(reserved.0, reserved.1, at)) {
            return Err(BinaryTraceError::new(
                meta.offset,
                format!("segment {k} checkpoint out of bounds"),
            ));
        }
        metas.push(SegmentMeta {
            crc32: r.get_u32().map_err(wire_fail)?,
            ..meta
        });
    }
    r.finish().map_err(wire_fail)?;
    Ok(metas)
}

/// Checks the record ranges a v2 stream read (offset, byte length,
/// CRC-32 each) against its footer body, whose `0xF5` tag sits at `at`.
pub(crate) fn check_streamed_footer(
    body: &[u8],
    at: u64,
    ranges: &[(u64, u64, u32)],
) -> Result<(), BinaryTraceError> {
    let metas = decode_footer(body, at)?;
    if metas.len() != ranges.len() {
        let what = format!(
            "footer lists {} segment(s), the stream has {}",
            metas.len(),
            ranges.len()
        );
        return Err(BinaryTraceError::new(at, what));
    }
    for (k, (meta, &(offset, byte_len, crc))) in metas.iter().zip(ranges).enumerate() {
        let what = if (meta.offset, meta.byte_len) != (offset, byte_len) {
            "record range differs from the footer's"
        } else if meta.crc32 != crc {
            "segment checksum mismatch (corrupt or truncated file)"
        } else {
            continue;
        };
        let what = format!("segment {k} (starts at byte {offset}): {what}");
        return Err(BinaryTraceError::new(offset, what));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Options for the segmented writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentOptions {
    /// Events per segment (the last segment may be shorter; 0 is
    /// treated as 1). Default: 4096.
    pub events_per_segment: usize,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            events_per_segment: 4096,
        }
    }
}

/// A `Write` adapter tracking the absolute offset — how the writer
/// records segment ranges in one pass over a non-seekable sink.
///
/// Segment checksums are deliberately *not* computed here: record
/// emission writes 1–6-byte chunks (tag bytes, varints), and a CRC fed
/// per chunk never reaches the slice-by-8 main loop — it runs the
/// bytewise tail every call, which measurably dominated v2 encode.
/// Instead the writer buffers each segment body and CRCs it in one
/// [`crc32`] pass at flush time (see [`flush_segment`]).
struct CountingWriter<'a, W> {
    inner: &'a mut W,
    offset: u64,
}

impl<'a, W: Write> CountingWriter<'a, W> {
    fn new(inner: &'a mut W) -> Self {
        CountingWriter { inner, offset: 0 }
    }

    fn offset(&self) -> u64 {
        self.offset
    }
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.offset += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A segment being written: everything [`SegmentMeta`] needs that is
/// only known once the segment closes stays implicit in the writer.
struct OpenSegment {
    start: u64,
    first_event_id: u64,
    events: u64,
    locks_before: usize,
    vars_before: usize,
    threads_before: u32,
}

/// Writes segment `index`'s marker; `seen_threads` is one past the
/// highest thread id of the events before it.
fn begin_segment<W: Write>(
    out: &mut CountingWriter<'_, W>,
    emitted: &EmittedMeta,
    seen_threads: u32,
    index: usize,
    first_event_id: u64,
) -> std::io::Result<OpenSegment> {
    out.write_all(&[TAG_SEGMENT])?;
    write_varint(out, index as u64)?;
    let start = out.offset();
    Ok(OpenSegment {
        start,
        first_event_id,
        events: 0,
        locks_before: emitted.locks,
        vars_before: emitted.vars,
        threads_before: emitted.threads.max(seen_threads),
    })
}

/// Closes a segment: checksums the buffered body in one slice-by-8
/// pass, writes it to the sink in one call, and returns its metadata.
///
/// Between [`begin_segment`] and this call nothing else may touch the
/// sink — the body must land exactly at `seg.start` for the recorded
/// range to be right (debug-asserted below).
fn flush_segment<W: Write>(
    out: &mut CountingWriter<'_, W>,
    seg: OpenSegment,
    body: &[u8],
) -> std::io::Result<SegmentMeta> {
    debug_assert_eq!(seg.start, out.offset(), "segment body misplaced");
    out.write_all(body)?;
    Ok(SegmentMeta {
        offset: seg.start,
        byte_len: body.len() as u64,
        event_count: seg.events,
        first_event_id: seg.first_event_id,
        locks_before: seg.locks_before,
        vars_before: seg.vars_before,
        threads_before: seg.threads_before,
        crc32: crc32(body),
    })
}

/// Streams any [`EventSource`] to the segmented v2 format, in memory
/// bounded by the segment size (one segment body, buffered so its CRC
/// runs as a single slice-by-8 pass instead of per record) — the sink
/// need not be seekable; offsets are tracked, not sought.
///
/// Record order is identical to the v1 output of
/// [`write_source_binary`](crate::write_source_binary) — segment and
/// footer records are interposed, never reordered — so converting
/// v1→v2→v1 reproduces the original file byte for byte.
///
/// # Errors
///
/// Propagates the first source error or I/O failure.
pub fn write_source_binary_v2<S, W>(
    source: &mut S,
    out: &mut W,
    options: &SegmentOptions,
) -> Result<(), WriteSourceError>
where
    S: EventSource + ?Sized,
    W: Write,
{
    let per_segment = options.events_per_segment.max(1) as u64;
    let mut out = CountingWriter::new(out);
    out.write_all(&BINARY_MAGIC_V2)?;
    let mut emitted = EmittedMeta::default();
    let mut metas: Vec<SegmentMeta> = Vec::new();
    let mut prev_tid: Option<ThreadId> = None;
    // Records accumulate here per segment; the buffer is written (and
    // checksummed) in one shot when the segment closes, then reused.
    let mut body: Vec<u8> = Vec::new();
    let mut seen_threads = 0u32;
    let mut seg = begin_segment(&mut out, &emitted, seen_threads, 0, 0)?;
    flush_binary_meta(&mut emitted, source, &mut body)?;
    while let Some(event) = source.next_event()? {
        if seg.events == per_segment {
            let next_first = seg.first_event_id + seg.events;
            metas.push(flush_segment(&mut out, seg, &body)?);
            body.clear();
            seg = begin_segment(&mut out, &emitted, seen_threads, metas.len(), next_first)?;
            prev_tid = None;
        }
        seen_threads = seen_threads.max(event.tid.as_u32() + 1);
        flush_binary_meta(&mut emitted, source, &mut body)?;
        write_event_record(&mut body, event, &mut prev_tid)?;
        seg.events += 1;
    }
    // Trailing declarations and the final effective thread count land
    // in the last segment, exactly where the v1 writer puts them.
    flush_binary_meta(&mut emitted, source, &mut body)?;
    let threads = source.threads();
    if threads > emitted.threads {
        body.push(TAG_THREADS);
        write_varint(&mut body, u64::from(threads))?;
    }
    metas.push(flush_segment(&mut out, seg, &body)?);
    let footer_offset = out.offset();
    let body = encode_footer(&metas);
    out.write_all(&[TAG_FOOTER])?;
    write_varint(&mut out, body.len() as u64)?;
    out.write_all(&body)?;
    out.write_all(&[TAG_END])?;
    out.write_all(&footer_offset.to_le_bytes())?;
    out.write_all(&TRAILER_MAGIC)?;
    Ok(())
}

/// Serializes a materialized trace to the segmented v2 format — the v2
/// twin of [`write_trace_binary`](crate::write_trace_binary).
///
/// # Errors
///
/// Propagates I/O failures from `out`.
pub fn write_trace_binary_v2<W: Write>(
    trace: &Trace,
    out: &mut W,
    options: &SegmentOptions,
) -> std::io::Result<()> {
    write_source_binary_v2(&mut trace.source(), out, options).map_err(|e| match e {
        WriteSourceError::Io(e) => e,
        WriteSourceError::Source(e) => {
            unreachable!("materialized traces never fail to stream: {e}")
        }
    })
}

// ---------------------------------------------------------------------
// Seeking reader.
// ---------------------------------------------------------------------

/// A randomly addressable view of a v2 file: the footer index, plus
/// seek-and-read access to each segment's record bytes.
///
/// I/O is deliberately split from decoding:
/// [`read_segment_bytes`](Self::read_segment_bytes) does the
/// (sequential) seek+read, and the
/// free function [`decode_segment`] is a pure function of those bytes —
/// so a parallel analyzer reads segments on one thread and decodes them
/// on many.
#[derive(Debug)]
pub struct SegmentedTraceFile<R> {
    input: R,
    metas: Vec<SegmentMeta>,
    footer_offset: u64,
}

impl<R: Read + Seek> SegmentedTraceFile<R> {
    /// Opens a v2 file: checks the magic, seeks the trailer, reads and
    /// validates the footer index.
    ///
    /// # Errors
    ///
    /// Fails on v1 files (with a pointer to `convert --to binary-v2`),
    /// non-binary input, a missing or corrupt trailer/footer, and any
    /// footer entry whose ranges fall outside the file or whose event
    /// numbering is not cumulative.
    pub fn open(mut input: R) -> Result<Self, BinaryTraceError> {
        let io_fail =
            |at: u64, e: std::io::Error| BinaryTraceError::new(at, format!("cannot read: {e}"));
        let len = input.seek(SeekFrom::End(0)).map_err(|e| io_fail(0, e))?;
        if len < 8 + 1 + TRAILER_LEN {
            return Err(BinaryTraceError::new(
                len,
                "too short to be a segmented binary trace",
            ));
        }
        input.seek(SeekFrom::Start(0)).map_err(|e| io_fail(0, e))?;
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic).map_err(|e| io_fail(0, e))?;
        match magic_version(&magic) {
            Some(2) => {}
            Some(v) => {
                return Err(BinaryTraceError::new(
                    0,
                    format!(
                        "segmented access needs a version-2 binary trace, found version {v} \
                         (`convert --to binary-v2` upgrades it)"
                    ),
                ))
            }
            None => return Err(BinaryTraceError::new(0, "not a binary trace (bad magic)")),
        }
        let trailer_at = len - TRAILER_LEN;
        input
            .seek(SeekFrom::Start(trailer_at))
            .map_err(|e| io_fail(trailer_at, e))?;
        let mut trailer = [0u8; TRAILER_LEN as usize];
        input
            .read_exact(&mut trailer)
            .map_err(|e| io_fail(trailer_at, e))?;
        if trailer[8..] != TRAILER_MAGIC {
            return Err(BinaryTraceError::new(
                trailer_at,
                "missing segment-index trailer (truncated file?)",
            ));
        }
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().expect("8 bytes"));
        // The footer record needs at least tag + 1-byte length + body
        // before the end marker and trailer.
        if footer_offset < 8 || !within(footer_offset, 2, trailer_at) {
            return Err(BinaryTraceError::new(
                trailer_at,
                format!("footer offset {footer_offset} out of bounds"),
            ));
        }
        input
            .seek(SeekFrom::Start(footer_offset))
            .map_err(|e| io_fail(footer_offset, e))?;
        let mut at = footer_offset;
        let tag = read_byte_at(&mut input, &mut at)?;
        if tag != TAG_FOOTER {
            return Err(BinaryTraceError::new(
                footer_offset,
                format!("trailer points at tag {tag:#04x}, not a footer record"),
            ));
        }
        let body_len = read_varint_at(&mut input, &mut at)?;
        if at.checked_add(body_len).and_then(|end| end.checked_add(1)) != Some(trailer_at) {
            return Err(BinaryTraceError::new(
                at,
                format!("footer body length {body_len} does not reach the end marker"),
            ));
        }
        let mut body = vec![0u8; body_len as usize];
        input.read_exact(&mut body).map_err(|e| io_fail(at, e))?;
        let metas = decode_footer(&body, footer_offset)?;
        let mut expected_first = 0u64;
        let mut prev_end = 8u64;
        for (k, meta) in metas.iter().enumerate() {
            let bad = |what: String| BinaryTraceError::new(meta.offset, what);
            if meta.offset < prev_end || !within(meta.offset, meta.byte_len, footer_offset) {
                return Err(bad(format!("segment {k} range out of bounds")));
            }
            // Each name costs bytes before the footer, so no watermark
            // can exceed its offset (and none can overflow a name id).
            if meta.locks_before as u64 > footer_offset || meta.vars_before as u64 > footer_offset {
                return Err(bad(format!("segment {k} name watermarks out of bounds")));
            }
            if meta.first_event_id != expected_first {
                return Err(bad(format!(
                    "segment {k} starts at event {} but {expected_first} events precede it",
                    meta.first_event_id
                )));
            }
            expected_first = expected_first
                .checked_add(meta.event_count)
                .ok_or_else(|| bad(format!("segment {k} event count overflows u64")))?;
            prev_end = meta.offset + meta.byte_len;
        }
        Ok(SegmentedTraceFile {
            input,
            metas,
            footer_offset,
        })
    }

    /// Number of segments in the file (always at least 1).
    pub fn segment_count(&self) -> usize {
        self.metas.len()
    }

    /// The footer entry for segment `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.segment_count()`.
    pub fn meta(&self, k: usize) -> &SegmentMeta {
        &self.metas[k]
    }

    /// All footer entries, in segment order.
    pub fn metas(&self) -> &[SegmentMeta] {
        &self.metas
    }

    /// File offset of the footer record.
    pub fn footer_offset(&self) -> u64 {
        self.footer_offset
    }

    /// Total number of events across all segments.
    pub fn event_count(&self) -> u64 {
        self.metas.iter().map(|m| m.event_count).sum()
    }

    /// Reads segment `k`'s raw record bytes (sequential I/O; decoding
    /// is [`decode_segment`], callable elsewhere and in parallel).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.segment_count()`.
    pub fn read_segment_bytes(&mut self, k: usize) -> Result<Vec<u8>, BinaryTraceError> {
        let meta = &self.metas[k];
        // `open` validated the range against the file size, so the
        // allocation is bounded by real bytes.
        let mut bytes = vec![0u8; meta.byte_len as usize];
        self.input
            .seek(SeekFrom::Start(meta.offset))
            .and_then(|_| self.input.read_exact(&mut bytes))
            .map_err(|e| {
                BinaryTraceError::new(meta.offset, format!("cannot read segment {k}: {e}"))
            })?;
        Ok(bytes)
    }

    /// Reads segment `k`'s bytes and recomputes their CRC-32 — the
    /// cheap integrity probe incremental analysis runs over a cached
    /// prefix: a reused segment is never decoded or replayed, but its
    /// bytes must still hash to the footer's checksum, so a bit flip
    /// anywhere in the prefix demotes the cache instead of being
    /// silently trusted.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.segment_count()`.
    pub fn segment_crc32(&mut self, k: usize) -> Result<u32, BinaryTraceError> {
        Ok(crc32(&self.read_segment_bytes(k)?))
    }

    /// Fully verifies the file: every segment's checksum, record
    /// decoding and event count.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch found, naming the failing segment's
    /// index and start offset (corruption errors from the inner decoder
    /// keep their precise byte position too).
    pub fn verify(&mut self) -> Result<(), BinaryTraceError> {
        for k in 0..self.segment_count() {
            let bytes = self.read_segment_bytes(k)?;
            let meta = self.metas[k].clone();
            decode_segment_indexed(k, &bytes, &meta, |_, _| false)?;
        }
        Ok(())
    }
}

/// [`decode_segment`] with position context and an event filter: only
/// the events `keep` accepts — it sees each event with its
/// [`EventId`] — land in [`SegmentData::events`], and any failure is
/// annotated with the segment's index and start offset, so corruption
/// reports from `verify`, `segments`, and the parallel analyzer name
/// the segment instead of only a raw byte position.
///
/// The filter runs inside the decode loop, so a caller that needs only
/// some events (the parallel analyzer keeps the sync events and the
/// sampled accesses; `verify` keeps none) never stores the rest.
///
/// # Errors
///
/// As [`decode_segment`], with the annotated reason.
pub fn decode_segment_indexed(
    k: usize,
    bytes: &[u8],
    meta: &SegmentMeta,
    keep: impl FnMut(EventId, Event) -> bool,
) -> Result<SegmentData, BinaryTraceError> {
    decode_records(bytes, meta, keep).map_err(|e| {
        BinaryTraceError::new(
            e.offset,
            format!("segment {k} (starts at byte {}): {}", meta.offset, e.reason),
        )
    })
}

/// One decoded segment: its events and the metadata *delta* it
/// contributes beyond what earlier segments defined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentData {
    /// The segment's events, in stream order; from [`decode_segment`]
    /// event `i` has [`EventId`] `meta.first_event_id + i`. From
    /// [`decode_segment_indexed`], only the events its filter kept.
    pub events: Vec<Event>,
    /// Lock names this segment defines (ids `meta.locks_before..`).
    pub new_locks: Vec<String>,
    /// Variable names this segment defines (ids `meta.vars_before..`).
    pub new_vars: Vec<String>,
    /// The largest thread count declared *within* this segment (0 when
    /// it declares none).
    pub declared_threads: u32,
    /// One past the highest thread id observed within this segment.
    pub observed_threads: u32,
}

/// Decodes one segment's record bytes against its footer entry —
/// checksum first, then the v1 record grammar with name tables based at
/// the segment's watermarks, so the cost is O(the segment's bytes) no
/// matter how many names earlier segments defined. A pure function of
/// its inputs, safe to fan out across threads.
///
/// # Errors
///
/// Fails on a checksum mismatch, any malformed record (errors carry
/// absolute file offsets), or an event count disagreeing with the
/// footer.
pub fn decode_segment(bytes: &[u8], meta: &SegmentMeta) -> Result<SegmentData, BinaryTraceError> {
    decode_records(bytes, meta, |_, _| true)
}

/// Checks a segment's bytes against its footer entry: the length, then
/// the CRC-32.
fn check_segment_bytes(bytes: &[u8], meta: &SegmentMeta) -> Result<(), BinaryTraceError> {
    if bytes.len() as u64 != meta.byte_len {
        return Err(BinaryTraceError::new(
            meta.offset,
            format!(
                "segment is {} bytes, footer claims {}",
                bytes.len(),
                meta.byte_len
            ),
        ));
    }
    if crc32(bytes) != meta.crc32 {
        return Err(BinaryTraceError::new(
            meta.offset,
            "segment checksum mismatch (corrupt or truncated file)",
        ));
    }
    Ok(())
}

/// One record as [`window_record`] decodes it; `len` and `event` are
/// meaningful only when `ordinary` holds.
struct WindowRecord {
    ordinary: bool,
    len: usize,
    event: Event,
}

/// Decodes the record that starts at the low byte of `window` (the
/// little-endian 8 bytes from its tag on) for the fast path of
/// [`decode_records`], with data-dependent selects instead of branches.
/// `ordinary` says whether the fast path may take the record: an event
/// tag, a one-byte tid or a same-thread bit after an event, an inline
/// operand or an escaped one of at most 2 varint bytes, and an operand
/// below its kind's entry of `limits` ([`RecordDecoder::operand_limits`]).
#[inline(always)]
fn window_record(window: u64, prev_tid: u32, has_prev: bool, limits: [usize; 2]) -> WindowRecord {
    let tag = window as u8;
    let same = (tag >> 2) & 1;
    let tid_byte = (window >> 8) as u8;
    let tid = if same == 1 {
        prev_tid
    } else {
        u32::from(tid_byte)
    };
    // The operand's varint starts right after the tag and the tid byte,
    // or right after the tag when the thread repeats.
    let operand_bytes = (window >> (16 - 8 * u32::from(same))) as u16;
    let (lo, hi) = (operand_bytes as u8, (operand_bytes >> 8) as u8);
    let inline = tag >> 3;
    let escaped = inline == OPERAND_ESCAPE;
    let two_bytes = lo >> 7;
    let varint = u32::from(lo & 0x7f) | ((u32::from(hi) << 7) * u32::from(two_bytes));
    let operand = if escaped { varint } else { u32::from(inline) };
    let kind_bits = tag & 0b11;
    let ordinary = (tag < TAG_DEF_LOCK)
        & (if same == 1 { has_prev } else { tid_byte < 0x80 })
        & (!escaped | (two_bytes == 0) | (hi < 0x80))
        & ((operand as usize) < limits[usize::from(kind_bits >> 1)]);
    let kind = match kind_bits {
        0 => EventKind::Read(VarId::new(operand)),
        1 => EventKind::Write(VarId::new(operand)),
        2 => EventKind::Acquire(LockId::new(operand)),
        _ => EventKind::Release(LockId::new(operand)),
    };
    WindowRecord {
        ordinary,
        len: 2 - usize::from(same) + usize::from(escaped) * (1 + usize::from(two_bytes)),
        event: Event::new(ThreadId::new(tid), kind),
    }
}

/// The one segment decoder behind [`decode_segment`] and
/// [`decode_segment_indexed`], keeping the events `keep` accepts.
///
/// A fast path decodes each *ordinary* event record (see
/// [`window_record`]) from one 8-byte window — read from the slice
/// while 8 bytes remain, from a zero-padded copy of the tail after
/// that — as long as the footer's event count is not yet reached. Every
/// other record, and so every name, declaration and error, goes to
/// [`RecordDecoder::next_event`] over a [`SliceInput`] at that record;
/// the fast path resumes after the event the grammar returns. The two
/// hand over the grammar's event state (`prev_tid`,
/// `observed_threads`, the defined-id counts) at each switch, so the
/// result is the grammar's, record for record.
///
/// Every event is stored unconditionally into a small chunk whose
/// write index advances by `keep`'s answer, so the ~1/3 of events a
/// sampled analysis keeps cost no unpredictable branch; the chunk
/// flushes into `events` when full.
fn decode_records(
    bytes: &[u8],
    meta: &SegmentMeta,
    mut keep: impl FnMut(EventId, Event) -> bool,
) -> Result<SegmentData, BinaryTraceError> {
    check_segment_bytes(bytes, meta)?;
    let mut records = RecordDecoder::for_segment(
        Interner::with_base(meta.locks_before),
        Interner::with_base(meta.vars_before),
    );
    // Each event record costs at least one byte, so this cannot
    // over-allocate even if the (checksummed) footer were corrupt.
    let mut events = Vec::with_capacity((meta.event_count as usize).min(bytes.len()));
    const CHUNK: usize = 256;
    let mut chunk = [Event::new(ThreadId::new(0), EventKind::Read(VarId::new(0))); CHUNK];
    let mut held = 0usize;
    let tail_start = bytes.len().saturating_sub(8);
    let mut tail = [0u8; 16];
    tail[..bytes.len() - tail_start].copy_from_slice(&bytes[tail_start..]);
    let (mut prev_tid, mut has_prev, mut observed) = (0u32, false, 0u32);
    let mut limits = records.operand_limits();
    let mut decoded = 0u64;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let window = match bytes.get(pos..pos + 8) {
            Some(w) => u64::from_le_bytes(w.try_into().expect("8 bytes")),
            None => u64::from_le_bytes(tail[pos - tail_start..][..8].try_into().expect("8 bytes")),
        };
        let record = window_record(window, prev_tid, has_prev, limits);
        let event =
            if record.ordinary & (record.len <= bytes.len() - pos) & (decoded < meta.event_count) {
                pos += record.len;
                record.event
            } else {
                records.prev_tid = has_prev.then(|| ThreadId::new(prev_tid));
                records.observed_threads = observed;
                let mut cursor = SliceInput::new(&bytes[pos..], meta.offset + pos as u64);
                let next = records.next_event(&mut cursor)?;
                pos = (cursor.offset() - meta.offset) as usize;
                limits = records.operand_limits();
                match next {
                    Some(event) => event,
                    None => break,
                }
            };
        prev_tid = event.tid.as_u32();
        has_prev = true;
        observed = observed.max(prev_tid + 1);
        let kept = keep(EventId::new(meta.first_event_id + decoded), event);
        chunk[held % CHUNK] = event;
        held += usize::from(kept);
        if held == CHUNK {
            events.extend_from_slice(&chunk);
            held = 0;
        }
        decoded += 1;
    }
    events.extend_from_slice(&chunk[..held]);
    if decoded != meta.event_count {
        return Err(BinaryTraceError::new(
            meta.offset,
            format!(
                "segment decodes {decoded} events, footer claims {}",
                meta.event_count
            ),
        ));
    }
    let declared_threads = records.declared_threads();
    let (new_locks, new_vars) = records.into_names();
    Ok(SegmentData {
        events,
        new_locks,
        new_vars,
        declared_threads,
        observed_threads: observed,
    })
}

fn read_byte_at<R: Read>(input: &mut R, at: &mut u64) -> Result<u8, BinaryTraceError> {
    let mut byte = [0u8];
    input
        .read_exact(&mut byte)
        .map_err(|e| BinaryTraceError::new(*at, format!("truncated input: {e}")))?;
    *at += 1;
    Ok(byte[0])
}

fn read_varint_at<R: Read>(input: &mut R, at: &mut u64) -> Result<u64, BinaryTraceError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = read_byte_at(input, at)?;
        if shift == 63 && byte > 1 {
            return Err(BinaryTraceError::new(*at, "varint overflows u64"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(BinaryTraceError::new(*at, "varint overflows u64"))
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;
    use crate::binary::TAG_CHECKPOINT;
    use crate::{
        read_trace_binary, write_source_binary, write_trace_binary, BinaryEventReader, SourceError,
        TraceBuilder,
    };

    fn opts(n: usize) -> SegmentOptions {
        SegmentOptions {
            events_per_segment: n,
        }
    }

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("late-y");
        let l = b.lock("l");
        let m = b.lock("m");
        for t in 0..3 {
            b.acquire(t, l).write(t, x).release(t, l);
        }
        b.read(1, x);
        b.fork(1, 3);
        b.acquire(3, m).write(3, y).release(3, m);
        b.join(1, 3);
        b.declare_threads(6);
        b.build()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_at_every_length_and_phase() {
        // Reference: the classic one-byte-at-a-time loop over table 0.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(0x9d)) as u8).collect();
        // Every prefix length exercises all chunk remainders 0..=7; the
        // offset start exercises an unaligned phase through the
        // incremental-update path.
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "len {len}");
        }
        let split = crc32_update(crc32_update(0xFFFF_FFFF, &data[..13]), &data[13..]) ^ 0xFFFF_FFFF;
        assert_eq!(split, bytewise(&data));
    }

    #[test]
    fn v2_streams_back_to_the_identical_trace() {
        let trace = sample();
        for per_segment in [1, 2, 3, 100] {
            let mut bytes = Vec::new();
            write_trace_binary_v2(&trace, &mut bytes, &opts(per_segment)).unwrap();
            let back = read_trace_binary(&bytes).unwrap();
            assert_eq!(trace.events(), back.events());
            assert_eq!(trace.thread_count(), back.thread_count());
            assert_eq!(trace.lock_names, back.lock_names);
            assert_eq!(trace.var_names, back.var_names);
        }
    }

    #[test]
    fn v1_to_v2_to_v1_is_byte_identical() {
        let trace = sample();
        let mut v1 = Vec::new();
        write_trace_binary(&trace, &mut v1).unwrap();
        for per_segment in [1, 4, 1000] {
            let mut v2 = Vec::new();
            let mut reader = BinaryEventReader::new(&v1[..]).unwrap();
            write_source_binary_v2(&mut reader, &mut v2, &opts(per_segment)).unwrap();
            let mut v1_again = Vec::new();
            let mut reader = BinaryEventReader::new(&v2[..]).unwrap();
            write_source_binary(&mut reader, &mut v1_again).unwrap();
            assert_eq!(v1, v1_again, "per_segment={per_segment}");
        }
    }

    #[test]
    fn footer_index_is_cumulative_and_decodes_every_segment() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(4)).unwrap();
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(
            file.segment_count(),
            trace.len().div_ceil(4),
            "count for {} events",
            trace.len()
        );
        assert_eq!(file.event_count(), trace.len() as u64);
        file.verify().unwrap();

        let mut all_events = Vec::new();
        let mut locks = Vec::new();
        let mut vars = Vec::new();
        for k in 0..file.segment_count() {
            let meta = file.meta(k).clone();
            assert_eq!(meta.first_event_id, all_events.len() as u64);
            assert_eq!(meta.locks_before, locks.len());
            assert_eq!(meta.vars_before, vars.len());
            let bytes = file.read_segment_bytes(k).unwrap();
            let data = decode_segment(&bytes, &meta).unwrap();
            // The indexed form shows its filter every event with its id
            // and keeps exactly the accepted ones.
            let mut seen = Vec::new();
            let odd = decode_segment_indexed(k, &bytes, &meta, |id, event| {
                seen.push((id.as_u64(), event));
                id.as_u64() % 2 == 1
            })
            .unwrap();
            let expected: Vec<(u64, Event)> = (meta.first_event_id..)
                .zip(data.events.iter().copied())
                .collect();
            assert_eq!(seen, expected);
            let kept: Vec<Event> = expected
                .iter()
                .filter(|(id, _)| id % 2 == 1)
                .map(|&(_, event)| event)
                .collect();
            assert_eq!(odd.events, kept);
            all_events.extend(data.events);
            locks.extend(data.new_locks);
            vars.extend(data.new_vars);
        }
        assert_eq!(all_events, trace.events());
        assert_eq!(locks, trace.lock_names);
        assert_eq!(vars, trace.var_names);
    }

    #[test]
    fn corrupt_segment_bytes_fail_the_checksum() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(4)).unwrap();
        let meta = SegmentedTraceFile::open(Cursor::new(&bytes))
            .unwrap()
            .meta(1)
            .clone();
        // Flip a bit inside segment 1's record range.
        bytes[meta.offset as usize] ^= 0x40;
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        let err = file.verify().unwrap_err();
        let at = meta.offset;
        assert_eq!(
            err.to_string(),
            format!(
                "byte {at}: segment 1 (starts at byte {at}): segment checksum mismatch \
                 (corrupt or truncated file)"
            )
        );
    }

    /// The footer fields of `metas` in wire order: the segment count,
    /// then ten fields per segment, the reserved pair as `(0, 0)`.
    fn footer_fields(metas: &[SegmentMeta]) -> Vec<u64> {
        let mut fields = vec![metas.len() as u64];
        for m in metas {
            fields.extend([
                m.offset,
                m.byte_len,
                m.event_count,
                m.first_event_id,
                m.locks_before as u64,
                m.vars_before as u64,
                u64::from(m.threads_before),
                0,
                0,
                u64::from(m.crc32),
            ]);
        }
        fields
    }

    /// Index of segment `k`'s field `i` in [`footer_fields`].
    fn field(k: usize, i: usize) -> usize {
        1 + 10 * k + i
    }

    /// The v2 file `bytes` with its footer body re-encoded from `fields`
    /// and the footer checksum recomputed, so the field checks behind
    /// the checksum are reached.
    fn with_footer(bytes: &[u8], fields: &[u64]) -> Vec<u8> {
        let trailer = &bytes[bytes.len() - TRAILER_LEN as usize..];
        let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
        let mut body = Vec::new();
        for &value in fields {
            wire::put_varint(&mut body, value);
        }
        body.extend_from_slice(&crc32(&body).to_le_bytes());
        let mut out = bytes[..footer_offset as usize].to_vec();
        out.push(TAG_FOOTER);
        out.extend(varint(body.len() as u64));
        out.extend(body);
        out.push(TAG_END);
        out.extend_from_slice(trailer);
        out
    }

    /// A 6-segment file of [`sample`] and its footer entries.
    fn sample_file() -> (Vec<u8>, Vec<SegmentMeta>) {
        let mut bytes = Vec::new();
        write_trace_binary_v2(&sample(), &mut bytes, &opts(4)).unwrap();
        let metas = SegmentedTraceFile::open(Cursor::new(&bytes))
            .unwrap()
            .metas()
            .to_vec();
        assert_eq!(metas.len(), 6);
        (bytes, metas)
    }

    #[test]
    fn the_writer_stores_no_checkpoints_and_a_zero_reserved_pair() {
        let (bytes, metas) = sample_file();
        // Re-encoding the footer with every reserved pair `(0, 0)`
        // reproduces the file.
        assert_eq!(with_footer(&bytes, &footer_fields(&metas)), bytes);
        // Each segment's marker directly follows the previous records.
        for pair in metas.windows(2) {
            let end = (pair[0].offset + pair[0].byte_len) as usize;
            assert_eq!(bytes[end], TAG_SEGMENT);
            assert_eq!(pair[1].offset as usize, end + 2);
        }
    }

    #[test]
    fn footer_ranges_that_wrap_or_overrun_are_out_of_bounds() {
        let (bytes, metas) = sample_file();
        let last = metas.len() - 1;
        let footer_offset = SegmentedTraceFile::open(Cursor::new(&bytes))
            .unwrap()
            .footer_offset();
        let wraps_to_4 = 0u64.wrapping_sub(metas[last].offset) + 4;
        let cases: Vec<(Vec<(usize, u64)>, String)> = vec![
            (
                vec![(field(last, 1), wraps_to_4)],
                format!("segment {last} range out of bounds"),
            ),
            (
                vec![(field(last, 0), u64::MAX)],
                format!("segment {last} range out of bounds"),
            ),
            (
                vec![(field(1, 0), u64::MAX)],
                "segment 1 range out of bounds".to_owned(),
            ),
            (
                vec![(field(1, 7), u64::MAX), (field(1, 8), 2)],
                "segment 1 checkpoint out of bounds".to_owned(),
            ),
            (
                vec![(field(2, 7), footer_offset), (field(2, 8), u64::MAX)],
                "segment 2 checkpoint out of bounds".to_owned(),
            ),
            (
                vec![(field(1, 7), u64::MAX)],
                "segment 1 checkpoint out of bounds".to_owned(),
            ),
            (
                vec![(field(0, 7), 8), (field(0, 8), 1)],
                "segment 0 checkpoint out of bounds".to_owned(),
            ),
        ];
        for (edits, expected) in cases {
            let mut fields = footer_fields(&metas);
            for &(at, value) in &edits {
                fields[at] = value;
            }
            let damaged = with_footer(&bytes, &fields);
            let err = SegmentedTraceFile::open(Cursor::new(&damaged)).unwrap_err();
            assert!(err.to_string().contains(&expected), "{edits:?}: {err}");
            assert!(read_trace_binary(&damaged).is_err(), "{edits:?} streams");
        }
        // An earlier writer's pair, pointing before the footer, is
        // checked and dropped.
        let mut fields = footer_fields(&metas);
        fields[field(1, 7)] = 10;
        fields[field(1, 8)] = 5;
        let old_style = with_footer(&bytes, &fields);
        let mut file = SegmentedTraceFile::open(Cursor::new(&old_style)).unwrap();
        assert_eq!(file.metas(), metas);
        file.verify().unwrap();
        assert_eq!(
            read_trace_binary(&old_style).unwrap().events(),
            sample().events()
        );
    }

    /// Collects every event of `bytes` through the seeking reader (open,
    /// `verify`, then each segment) and through the streaming reader;
    /// each must fail or yield exactly `events`.
    fn assert_damage_is_caught(bytes: &[u8], events: &[Event], label: &str) {
        let seeking = SegmentedTraceFile::open(Cursor::new(bytes)).and_then(|mut file| {
            file.verify()?;
            let mut all = Vec::new();
            for k in 0..file.segment_count() {
                let meta = file.meta(k).clone();
                all.extend(decode_segment(&file.read_segment_bytes(k)?, &meta)?.events);
            }
            Ok(all)
        });
        if let Ok(got) = seeking {
            assert_eq!(got, events, "seeking reader, {label}");
        }
        let streamed = BinaryEventReader::new(bytes)
            .map_err(SourceError::from)
            .and_then(|mut reader| {
                let mut all = Vec::new();
                while let Some(event) = reader.next_event()? {
                    all.push(event);
                }
                Ok(all)
            });
        if let Ok(got) = streamed {
            assert_eq!(got, events, "streaming reader, {label}");
        }
    }

    #[test]
    fn damaged_files_fail_or_read_back_the_undamaged_events() {
        let (bytes, metas) = sample_file();
        let events = sample().events().to_vec();
        assert_damage_is_caught(&bytes, &events, "intact");
        for cut in 0..bytes.len() {
            assert_damage_is_caught(&bytes[..cut], &events, &format!("cut at {cut}"));
        }
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            damaged[at] ^= 0xFF;
            assert_damage_is_caught(&damaged, &events, &format!("byte {at} flipped"));
            damaged[at] = bytes[at];
        }
        let fields = footer_fields(&metas);
        for at in 0..fields.len() {
            for value in [0, 1, u64::MAX] {
                let mut edited = fields.clone();
                edited[at] = value;
                let damaged = with_footer(&bytes, &edited);
                assert_damage_is_caught(&damaged, &events, &format!("field {at} set to {value}"));
            }
        }
        let trailer_at = bytes.len() - TRAILER_LEN as usize;
        for value in [0, 1, u64::MAX] {
            let mut damaged = bytes.clone();
            damaged[trailer_at..trailer_at + 8].copy_from_slice(&u64::to_le_bytes(value));
            assert_damage_is_caught(&damaged, &events, &format!("footer offset {value}"));
        }
    }

    #[test]
    fn open_rejects_other_formats_with_version_guidance() {
        let trace = sample();
        let mut v1 = Vec::new();
        write_trace_binary(&trace, &mut v1).unwrap();
        let err = SegmentedTraceFile::open(Cursor::new(&v1)).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
        assert!(err.to_string().contains("binary-v2"), "{err}");
        let err =
            SegmentedTraceFile::open(Cursor::new(b"#! threads 2\nT0|w(x)\n".to_vec())).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        let err = SegmentedTraceFile::open(Cursor::new(b"FT".to_vec())).unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
    }

    #[test]
    fn truncated_files_are_rejected_at_open() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(4)).unwrap();
        // Any truncation destroys the trailer (it no longer sits at the
        // end), except cuts inside the trailer itself, which destroy
        // the magic.
        for cut in [bytes.len() - 1, bytes.len() - TRAILER_LEN as usize, 40] {
            let err = SegmentedTraceFile::open(Cursor::new(&bytes[..cut])).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains("trailer") || msg.contains("too short"),
                "cut={cut}: {msg}"
            );
        }
    }

    #[test]
    fn empty_trace_still_carries_one_segment() {
        let trace = TraceBuilder::new().build();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &SegmentOptions::default()).unwrap();
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(file.segment_count(), 1);
        assert_eq!(file.event_count(), 0);
        file.verify().unwrap();
        let back = read_trace_binary(&bytes).unwrap();
        assert_eq!(back.len(), 0);
    }

    #[test]
    fn segment_errors_carry_absolute_offsets() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(4)).unwrap();
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        let meta = file.meta(1).clone();
        let seg = file.read_segment_bytes(1).unwrap();
        let at = meta.offset;
        // Truncate the segment's bytes: the length check catches it
        // before any decoding happens.
        let err = decode_segment(&seg[..seg.len() - 1], &meta).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "byte {at}: segment is {} bytes, footer claims {}",
                seg.len() - 1,
                seg.len()
            )
        );
        // A same-length corruption is caught by the checksum.
        let mut corrupt = seg.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let err = decode_segment(&corrupt, &meta).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("byte {at}: segment checksum mismatch (corrupt or truncated file)")
        );
    }

    #[test]
    fn decoded_segments_resolve_cross_segment_operands() {
        // Segment boundaries fall so that segment 1+ reference names
        // defined in segment 0: the based name tables must make the ids
        // resolve and the real names must come only from the owning
        // segment.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        for t in 0..6 {
            b.write(t, x);
        }
        let trace = b.build();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(2)).unwrap();
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(file.segment_count(), 3);
        let meta = file.meta(1).clone();
        assert_eq!(meta.vars_before, 1);
        let data = decode_segment(&file.read_segment_bytes(1).unwrap(), &meta).unwrap();
        assert!(data.new_vars.is_empty());
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.events[0], trace.events()[2]);
    }

    /// Raw record bytes for one segment, decoded in isolation against a
    /// footer entry that claims `locks_before`/`vars_before` names from
    /// earlier segments (whose bytes the decoder never sees).
    fn decode_isolated(
        records: &[u8],
        events: u64,
        locks_before: usize,
        vars_before: usize,
    ) -> Result<SegmentData, BinaryTraceError> {
        let meta = SegmentMeta {
            offset: 1000,
            byte_len: records.len() as u64,
            event_count: events,
            first_event_id: 50,
            locks_before,
            vars_before,
            threads_before: 2,
            crc32: crc32(records),
        };
        decode_segment(records, &meta)
    }

    fn def(tag: u8, name: &str) -> Vec<u8> {
        let mut bytes = vec![tag, name.len() as u8];
        bytes.extend_from_slice(name.as_bytes());
        bytes
    }

    /// An event record with an explicit thread id 0 and an inline
    /// operand (`kind`: 0 read, 1 write, 2 acquire, 3 release).
    fn event(kind: u8, operand: u8) -> Vec<u8> {
        vec![kind | (operand << 3), 0]
    }

    #[test]
    fn isolated_segments_resolve_ids_below_the_watermark_plus_new_names() {
        use crate::binary::{TAG_DEF_LOCK, TAG_DEF_VAR};
        // Watermarks 1 lock / 2 vars; the segment defines lock `m`
        // (id 1) and var `z` (id 2), then touches every defined id.
        let valid = [
            def(TAG_DEF_LOCK, "m"),
            def(TAG_DEF_VAR, "z"),
            event(2, 1),
            event(1, 2),
            event(0, 1),
            event(3, 1),
            event(0, 0),
        ]
        .concat();
        let data = decode_isolated(&valid, 5, 1, 2).unwrap();
        assert_eq!(data.new_locks, ["m"]);
        assert_eq!(data.new_vars, ["z"]);
        assert_eq!(data.events.len(), 5);
        assert_eq!(data.events[1].kind, EventKind::Write(crate::VarId::new(2)));
    }

    #[test]
    fn isolated_segments_reject_in_segment_duplicate_names() {
        use crate::binary::{TAG_DEF_LOCK, TAG_DEF_VAR};
        // In-segment duplicates fail (see the error table below), but a
        // name equal across kinds is no duplicate, and names defined
        // before the watermark are unknown here: the cross-segment
        // check belongs to whoever merges the name tables.
        let data = decode_isolated(
            &[def(TAG_DEF_LOCK, "m"), def(TAG_DEF_VAR, "m")].concat(),
            0,
            3,
            7,
        )
        .unwrap();
        assert_eq!(data.new_locks, ["m"]);
        assert_eq!(data.new_vars, ["m"]);
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_varint(&mut bytes, v).unwrap();
        bytes
    }

    /// One row per rule of the segment grammar: the body, the events its
    /// footer entry claims, and the exact error — absolute offset and
    /// full `Display` text. Every body starts at byte 1000 with
    /// watermarks of 1 lock and 2 vars.
    #[test]
    fn every_segment_decoder_error_is_pinned_exactly() {
        use crate::binary::{OPERAND_ESCAPE, TAG_DEF_LOCK, TAG_DEF_VAR};
        const EOF: &str = "failed to fill whole buffer";
        let rows: Vec<(&str, Vec<u8>, u64, u64, String)> = vec![
            (
                "truncated varint",
                vec![0x00, 0x80],
                1,
                1002,
                format!("truncated input: {EOF}"),
            ),
            (
                "truncated operand",
                vec![OPERAND_ESCAPE << 3, 0x00],
                1,
                1002,
                format!("truncated input: {EOF}"),
            ),
            (
                "varint overflow at the tenth byte",
                [vec![0x00], vec![0x80; 9], vec![0x02]].concat(),
                1,
                1011,
                "varint overflows u64".into(),
            ),
            (
                "varint continuing past the tenth byte",
                [vec![TAG_THREADS], vec![0xff; 9], vec![0x81]].concat(),
                0,
                1011,
                "varint overflows u64".into(),
            ),
            (
                "unknown tag",
                vec![0xF6],
                0,
                1001,
                "unknown record tag 0xf6".into(),
            ),
            (
                "same-thread bit with no previous event",
                vec![0b100],
                1,
                1001,
                "same-thread bit with no previous event".into(),
            ),
            (
                "same-thread delta resets at a segment marker",
                [event(0, 0), vec![TAG_SEGMENT, 0], vec![0b100]].concat(),
                2,
                1005,
                "same-thread bit with no previous event".into(),
            ),
            (
                "thread-id overflow",
                [vec![0x00], varint(u64::from(u32::MAX))].concat(),
                1,
                1006,
                "thread id 4294967295 overflows u32".into(),
            ),
            (
                "operand overflow",
                [vec![OPERAND_ESCAPE << 3, 0x00], varint(1 << 32)].concat(),
                1,
                1007,
                "operand id 4294967296 overflows u32".into(),
            ),
            (
                "var operand not yet defined",
                event(1, 2),
                1,
                1002,
                "var id 2 not yet defined (have 2)".into(),
            ),
            (
                "lock operand not yet defined",
                event(2, 1),
                1,
                1002,
                "lock id 1 not yet defined (have 1)".into(),
            ),
            (
                "var operand past the segment's own names",
                [def(TAG_DEF_VAR, "z"), event(0, 3)].concat(),
                1,
                1005,
                "var id 3 not yet defined (have 3)".into(),
            ),
            (
                "lock operand past the watermark after a var definition",
                [def(TAG_DEF_VAR, "z"), event(2, 1)].concat(),
                1,
                1005,
                "lock id 1 not yet defined (have 1)".into(),
            ),
            (
                "thread-count overflow",
                [vec![TAG_THREADS], varint(1 << 32)].concat(),
                0,
                1006,
                "thread count 4294967296 overflows u32".into(),
            ),
            (
                "over-long name",
                [vec![TAG_DEF_VAR], varint((1 << 20) + 1)].concat(),
                0,
                1004,
                "unreasonable name length 1048577".into(),
            ),
            (
                "truncated name",
                vec![TAG_DEF_VAR, 3, b'a'],
                0,
                1002,
                format!("truncated name: {EOF}"),
            ),
            (
                "non-UTF-8 name",
                vec![TAG_DEF_LOCK, 2, b'a', 0xff],
                0,
                1004,
                "name is not UTF-8: invalid utf-8 sequence of 1 bytes from index 1".into(),
            ),
            (
                "empty name",
                vec![TAG_DEF_VAR, 0],
                0,
                1002,
                "name \"\" is empty or has surrounding whitespace".into(),
            ),
            (
                "whitespace around a name",
                def(TAG_DEF_VAR, " z"),
                0,
                1004,
                "name \" z\" is empty or has surrounding whitespace".into(),
            ),
            (
                "metacharacter in a name",
                def(TAG_DEF_LOCK, "a("),
                0,
                1004,
                "name \"a(\" contains characters the text format cannot carry".into(),
            ),
            (
                "control character in a name",
                def(TAG_DEF_VAR, "a\nb"),
                0,
                1005,
                "name \"a\\nb\" contains characters the text format cannot carry".into(),
            ),
            (
                "in-segment duplicate var",
                [def(TAG_DEF_VAR, "z"), def(TAG_DEF_VAR, "z")].concat(),
                0,
                1006,
                "duplicate definition of var \"z\"".into(),
            ),
            (
                "in-segment duplicate lock",
                [def(TAG_DEF_LOCK, "m"), def(TAG_DEF_LOCK, "m")].concat(),
                0,
                1006,
                "duplicate definition of lock \"m\"".into(),
            ),
            (
                "truncated checkpoint payload",
                vec![TAG_CHECKPOINT, 5, 1, 2],
                0,
                1002,
                format!("truncated input: {EOF}"),
            ),
            (
                "footer claims more events",
                event(0, 0),
                2,
                1000,
                "segment decodes 1 events, footer claims 2".into(),
            ),
            (
                "footer claims fewer events",
                [event(0, 0), event(0, 1)].concat(),
                1,
                1000,
                "segment decodes 2 events, footer claims 1".into(),
            ),
            (
                "an end marker ends the segment early",
                [event(0, 0), vec![TAG_END], event(0, 1)].concat(),
                2,
                1000,
                "segment decodes 1 events, footer claims 2".into(),
            ),
        ];
        for (rule, records, events, offset, reason) in rows {
            let err = decode_isolated(&records, events, 1, 2)
                .expect_err(rule)
                .to_string();
            assert_eq!(err, format!("byte {offset}: {reason}"), "{rule}");
        }
    }

    /// A trace that reaches every record shape: names, thread
    /// declarations, explicit and same-thread ids, multi-byte thread
    /// ids, and escaped (varint) operands.
    fn grammar_sample() -> Trace {
        let mut b = TraceBuilder::new();
        let vars: Vec<_> = (0..32).map(|v| b.var(&format!("v{v}"))).collect();
        let l = b.lock("l");
        b.acquire(0, l)
            .write(0, vars[0])
            .write(0, vars[31])
            .release(0, l);
        b.read(200, vars[30]).write(200, vars[1]);
        b.fork(1, 2);
        b.acquire(2, l).read(2, vars[29]).release(2, l);
        b.join(1, 2);
        b.declare_threads(300);
        b.build()
    }

    /// Decodes `stream` (a v2 magic, then records) with the record
    /// grammar in the streaming reader's mode, without the v2 structure
    /// checks the streaming reader adds on top (the whole-file damage
    /// sweep covers those): what it yielded and defined, in the shape of
    /// a decoded segment, and how it ended.
    fn stream_decode(stream: &[u8]) -> (SegmentData, Result<(), BinaryTraceError>) {
        let mut records = RecordDecoder::new(2, false, Interner::default(), Interner::default());
        let mut input = SliceInput::new(&stream[8..], 8);
        let mut events = Vec::new();
        let end = loop {
            match records.next_event(&mut input) {
                Ok(Some(event)) => events.push(event),
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        let (declared_threads, observed_threads) =
            (records.declared_threads(), records.observed_threads);
        let (new_locks, new_vars) = records.into_names();
        let data = SegmentData {
            events,
            new_locks,
            new_vars,
            declared_threads,
            observed_threads,
        };
        (data, end)
    }

    /// Asserts that the segment decoder and the streaming reader agree
    /// on one (possibly damaged) segment body. The stream is the body
    /// as segment 0 of a v2 file with no end marker after it, so both
    /// decoders see the body at the same offsets; the footer entry
    /// claims as many events as the stream yields and carries the
    /// body's true checksum, so only the grammar can object.
    fn assert_decoders_agree(body: &[u8], label: &str) {
        let stream = [&BINARY_MAGIC_V2[..], &[TAG_SEGMENT, 0], body].concat();
        let (streamed, end) = stream_decode(&stream);
        let meta = SegmentMeta {
            offset: 10,
            byte_len: body.len() as u64,
            event_count: streamed.events.len() as u64,
            first_event_id: 0,
            locks_before: 0,
            vars_before: 0,
            threads_before: 0,
            crc32: crc32(body),
        };
        // The stream's own end: the body's last byte with no end marker.
        let eof_at_end = BinaryTraceError::new(
            stream.len() as u64,
            "truncated input: failed to fill whole buffer",
        );
        match decode_segment(body, &meta) {
            Ok(data) => {
                assert_eq!(data, streamed, "{label}");
                // A clean segment end is the stream's missing end
                // marker, unless an end marker inside the body ended both.
                assert!(end.is_ok() || end == Err(eof_at_end), "{label}: {end:?}");
            }
            Err(e) => assert_eq!(Err(e), end, "{label}"),
        }
    }

    #[test]
    fn damaged_segment_bodies_decode_like_the_stream() {
        let trace = grammar_sample();
        let mut bytes = Vec::new();
        write_trace_binary_v2(&trace, &mut bytes, &opts(1 << 20)).unwrap();
        let mut file = SegmentedTraceFile::open(Cursor::new(&bytes)).unwrap();
        assert_eq!(file.segment_count(), 1);
        let body = file.read_segment_bytes(0).unwrap();
        assert_decoders_agree(&body, "intact");
        for cut in 0..body.len() {
            assert_decoders_agree(&body[..cut], &format!("cut at {cut}"));
        }
        let mut damaged = body.clone();
        for at in 0..body.len() {
            for value in 0..=u8::MAX {
                if value != body[at] {
                    damaged[at] = value;
                    assert_decoders_agree(&damaged, &format!("byte {at} set to {value:#04x}"));
                }
            }
            damaged[at] = body[at];
        }
    }

    /// The segment decoder without its fast path: the record grammar,
    /// one [`RecordDecoder::next_event`] per event over the whole body.
    /// The kernel differential below pins [`decode_records`] to it.
    fn grammar_decode(
        bytes: &[u8],
        meta: &SegmentMeta,
        mut keep: impl FnMut(EventId, Event) -> bool,
    ) -> Result<SegmentData, BinaryTraceError> {
        check_segment_bytes(bytes, meta)?;
        let mut records = RecordDecoder::for_segment(
            Interner::with_base(meta.locks_before),
            Interner::with_base(meta.vars_before),
        );
        let mut events = Vec::new();
        let mut decoded = 0u64;
        let mut cursor = SliceInput::new(bytes, meta.offset);
        while let Some(event) = records.next_event(&mut cursor)? {
            if keep(EventId::new(meta.first_event_id + decoded), event) {
                events.push(event);
            }
            decoded += 1;
        }
        if decoded != meta.event_count {
            return Err(BinaryTraceError::new(
                meta.offset,
                format!(
                    "segment decodes {decoded} events, footer claims {}",
                    meta.event_count
                ),
            ));
        }
        let declared_threads = records.declared_threads();
        let observed_threads = records.observed_threads;
        let (new_locks, new_vars) = records.into_names();
        Ok(SegmentData {
            events,
            new_locks,
            new_vars,
            declared_threads,
            observed_threads,
        })
    }

    /// Interprets fuel as a valid segment body: name definitions and
    /// thread declarations anywhere, segment markers and checkpoint
    /// records now and then, and event records with one-byte,
    /// multi-byte (≥ 128) and same-thread tids and inline, escaped
    /// (also non-canonically), and ≥ 16,384 operands. Returns the body
    /// and its event count.
    fn fuel_body(
        fuel: &[(u8, u16, u32)],
        locks_before: usize,
        vars_before: usize,
    ) -> (Vec<u8>, u64) {
        use crate::binary::{TAG_DEF_LOCK, TAG_DEF_VAR};
        let mut body = Vec::new();
        let mut defined = [vars_before, locks_before];
        let mut prev: Option<u32> = None;
        let mut events = 0u64;
        for (n, &(action, tid_fuel, operand_fuel)) in fuel.iter().enumerate() {
            match action % 24 {
                0 | 1 => {
                    body.extend(def(TAG_DEF_VAR, &format!("v{n}")));
                    defined[0] += 1;
                }
                2 => {
                    body.extend(def(TAG_DEF_LOCK, &format!("l{n}")));
                    defined[1] += 1;
                }
                3 => body.extend([vec![TAG_THREADS], varint(u64::from(operand_fuel))].concat()),
                4 => {
                    body.extend([vec![TAG_SEGMENT], varint(u64::from(tid_fuel))].concat());
                    prev = None;
                }
                5 => body.extend([TAG_CHECKPOINT, 2, tid_fuel as u8, action]),
                _ => {
                    let kind = (action >> 3) & 0b11;
                    let limit = defined[usize::from(kind >> 1)];
                    if limit == 0 {
                        continue;
                    }
                    let tid = match tid_fuel % 8 {
                        0..=3 => prev.unwrap_or(0),
                        4 | 5 => u32::from(tid_fuel >> 3) % 128,
                        6 => 128 + u32::from(tid_fuel >> 3) % 200,
                        _ => u32::from(tid_fuel) << 12,
                    };
                    let operand = match operand_fuel % 5 {
                        0 | 1 => operand_fuel >> 3,
                        2 => 29 + (operand_fuel >> 3) % 200,
                        3 => 16_384 + (operand_fuel >> 3) % 4_000,
                        _ => (operand_fuel >> 3) % 29,
                    } as usize
                        % limit;
                    // Sometimes spell a repeated thread out, or escape
                    // an operand that would fit inline.
                    let same = prev == Some(tid) && tid_fuel & 0x100 == 0;
                    let escaped =
                        operand >= usize::from(OPERAND_ESCAPE) || operand_fuel & 0x8000 != 0;
                    let inline = if escaped {
                        OPERAND_ESCAPE
                    } else {
                        operand as u8
                    };
                    body.push(kind | u8::from(same) << 2 | inline << 3);
                    if !same {
                        body.extend(varint(u64::from(tid)));
                    }
                    if escaped {
                        body.extend(varint(operand as u64));
                    }
                    prev = Some(tid);
                    events += 1;
                }
            }
        }
        (body, events)
    }

    /// Decodes `body` against `meta` with the fast path and with the
    /// grammar alone; both must return the same data or the same error
    /// (text and offset) and call `keep` with the same events.
    fn assert_kernel_matches_grammar(body: &[u8], meta: &SegmentMeta, label: &str) {
        let keep = |calls: &mut Vec<(u64, Event)>, id: EventId, event: Event| {
            calls.push((id.as_u64(), event));
            (id.as_u64() ^ u64::from(event.tid.as_u32())) % 3 != 1
        };
        let (mut fast_calls, mut grammar_calls) = (Vec::new(), Vec::new());
        let fast = decode_segment_indexed(7, body, meta, |id, e| keep(&mut fast_calls, id, e));
        let grammar =
            grammar_decode(body, meta, |id, e| keep(&mut grammar_calls, id, e)).map_err(|e| {
                BinaryTraceError::new(
                    e.offset,
                    format!("segment 7 (starts at byte {}): {}", meta.offset, e.reason),
                )
            });
        assert_eq!(fast, grammar, "{label}");
        assert_eq!(fast_calls, grammar_calls, "{label}");
    }

    mod kernel {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The segment decoder's fast path against the record
            /// grammar, on valid bodies and on truncated and
            /// byte-flipped ones (checksum recomputed, so the grammar
            /// is what objects).
            #[test]
            fn kernel_matches_the_record_grammar(
                fuel in prop::collection::vec((any::<u8>(), any::<u16>(), any::<u32>()), 0..160),
                bases in (0usize..4, 0usize..4),
                count_skew in 0u8..6,
                cut in any::<u32>(),
                flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..4),
            ) {
                const BASES: [usize; 4] = [0, 3, 40, 20_000];
                let (locks_before, vars_before) = (BASES[bases.0], BASES[bases.1]);
                let (body, events) = fuel_body(&fuel, locks_before, vars_before);
                // Mostly the true count; sometimes one off either way,
                // so the fast path also meets the footer's limit.
                let event_count = match count_skew {
                    0 => events + 1,
                    1 => events.saturating_sub(1),
                    _ => events,
                };
                let meta_for = |bytes: &[u8]| SegmentMeta {
                    offset: 1000,
                    byte_len: bytes.len() as u64,
                    event_count,
                    first_event_id: 50,
                    locks_before,
                    vars_before,
                    threads_before: 2,
                    crc32: crc32(bytes),
                };
                assert_kernel_matches_grammar(&body, &meta_for(&body), "valid");
                let cut = cut as usize % (body.len() + 1);
                assert_kernel_matches_grammar(&body[..cut], &meta_for(&body[..cut]), &format!("cut at {cut}"));
                if !body.is_empty() {
                    let mut damaged = body.clone();
                    for &(at, value) in &flips {
                        damaged[at as usize % body.len()] = value;
                    }
                    assert_kernel_matches_grammar(&damaged, &meta_for(&damaged), &format!("flips {flips:?}"));
                }
            }
        }
    }
}
