//! The binary trace format (`.ftb`): magic + declaration records +
//! varint/delta-encoded event records.
//!
//! The format is the byte-oriented twin of the text format and inherits
//! its identity guarantee: `read ∘ write` is the *identity* on traces —
//! entity tables, id assignment, silent threads and silent entities all
//! survive (`crates/trace/tests/io_roundtrip.rs` enforces it across
//! formats). It is also fully streamable in both directions: the writer
//! emits declaration records as names are interned (so a lazy
//! [`EventSource`] serializes in constant memory), and
//! [`BinaryEventReader`] decodes record by record without buffering.
//!
//! # Layout
//!
//! ```text
//! magic    8 bytes  "FTB1\r\n\x1a\n"  (version byte is the '1')
//! records  *        declaration and event records, in stream order
//! end      1 byte   0xF7
//! ```
//!
//! Declaration records mirror the text format's `#!` header lines:
//!
//! ```text
//! 0xF0 <varint len> <utf8 bytes>   define next lock name   (#! lock)
//! 0xF1 <varint len> <utf8 bytes>   define next var name    (#! var)
//! 0xF2 <varint n>                  declare thread count    (#! threads)
//! ```
//!
//! Names are defined in dense id order — a definition record always
//! names id `lock_count()`/`var_count()` — and always precede the first
//! event that references the id.
//!
//! Every other tag byte below `0xF0` is an **event record**:
//!
//! ```text
//! bits 0-1   kind: 0 read, 1 write, 2 acquire, 3 release
//! bit  2     same thread as the previous event (no tid field follows)
//! bits 3-7   operand id 0..=28 inline; 29 = varint operand follows
//! ```
//!
//! followed by `<varint tid>` when bit 2 is clear, then
//! `<varint operand>` when the inline field is the escape value 29.
//! Small operand ids and runs of same-thread events — both the common
//! case in real traces — therefore cost a single byte per event.
//! Varints are LEB128, low 7 bits first.
//!
//! # Version 2 (segmented)
//!
//! A `.ftb` **v2** file (magic `FTB2…`) carries the same record grammar
//! partitioned into segments and closed by a footer index that makes
//! the file randomly addressable — see the
//! [`segmented`](crate::segmented) module for the layout, writer and
//! seeking reader. [`BinaryEventReader`] streams both versions: in a v2
//! stream it steps over the segment markers (resetting the same-thread
//! delta at each, which is what makes segments independently
//! decodable) and over the `0xF4` checkpoint blocks of files from
//! earlier writers, so every sequential consumer reads v1 and v2 alike.
//! It also checksums each segment's records as they pass and checks
//! them against the footer before the stream ends, so a damaged v2
//! stream fails instead of yielding other events.

use std::io::{Read, Write};

use freshtrack_clock::ThreadId;

use crate::io::{EmittedMeta, WriteSourceError};
use crate::segmented::{check_streamed_footer, crc32_update};
use crate::source::{EventSource, Interner, SourceError};
use crate::{Event, EventKind, LockId, Trace, VarId};

/// The 8-byte magic prefix of a version-1 binary trace (version byte is
/// the `1`).
///
/// The `\r\n\x1a\n` tail guards against line-ending translation, PNG
/// style: a binary trace mangled by text-mode transfer no longer
/// matches the magic and is rejected up front.
pub const BINARY_MAGIC: [u8; 8] = *b"FTB1\r\n\x1a\n";

/// The 8-byte magic prefix of a version-2 (segmented) binary trace.
pub const BINARY_MAGIC_V2: [u8; 8] = *b"FTB2\r\n\x1a\n";

/// Decodes the version digit of a binary-trace magic: `FTB<digit>` plus
/// the translation-guard tail. `None` means "not a binary trace at all",
/// which callers must keep distinct from "a binary trace of a version
/// this build cannot read".
pub(crate) fn magic_version(magic: &[u8; 8]) -> Option<u32> {
    if &magic[..3] == b"FTB" && magic[3].is_ascii_digit() && &magic[4..] == b"\r\n\x1a\n" {
        Some((magic[3] - b'0') as u32)
    } else {
        None
    }
}

/// Returns `true` if `prefix` starts with a binary-trace magic (any
/// `FTB<digit>` version, readable or not — version negotiation is the
/// reader's job, and routing an unsupported version to the reader is
/// what produces the "unsupported version" error instead of a text
/// parser's garbage diagnostics).
///
/// Callers sniffing a file should pass its first 8 bytes; shorter
/// prefixes (tiny text traces) are never binary.
pub fn is_binary_trace(prefix: &[u8]) -> bool {
    prefix
        .get(..BINARY_MAGIC.len())
        .and_then(|head| magic_version(head.try_into().expect("sliced to 8 bytes")))
        .is_some()
}

pub(crate) const TAG_DEF_LOCK: u8 = 0xF0;
pub(crate) const TAG_DEF_VAR: u8 = 0xF1;
pub(crate) const TAG_THREADS: u8 = 0xF2;
/// v2 only: `0xF3 <varint index>` opens a segment (and resets the
/// same-thread delta, so segments decode independently).
pub(crate) const TAG_SEGMENT: u8 = 0xF3;
/// v2 only: `0xF4 <varint len> <bytes>` is a block earlier writers put
/// before every segment but the first (a sync-plane checkpoint);
/// readers skip it.
pub(crate) const TAG_CHECKPOINT: u8 = 0xF4;
/// v2 only: `0xF5 <varint len> <bytes>` carries the footer index.
pub(crate) const TAG_FOOTER: u8 = 0xF5;
pub(crate) const TAG_END: u8 = 0xF7;
/// Operand ids `0..=28` ride inline in the tag; 29 escapes to a varint.
pub(crate) const OPERAND_ESCAPE: u8 = 29;

/// Serializes a materialized trace to the binary format: full
/// declaration header (threads, locks, vars — the normal form), then
/// the event records.
///
/// # Errors
///
/// Propagates I/O failures from `out`.
pub fn write_trace_binary<W: Write>(trace: &Trace, out: &mut W) -> std::io::Result<()> {
    write_source_binary(&mut trace.source(), out).map_err(|e| match e {
        WriteSourceError::Io(e) => e,
        WriteSourceError::Source(e) => {
            unreachable!("materialized traces never fail to stream: {e}")
        }
    })
}

/// Streams any [`EventSource`] to the binary format, in constant
/// memory.
///
/// Declaration records are emitted as soon as the source interns the
/// corresponding entity, always before the first event that references
/// it — the binary twin of [`crate::write_source`]'s interleaved `#!`
/// lines. Reading the output back yields an identical trace.
///
/// # Errors
///
/// Propagates the first source error or I/O failure.
pub fn write_source_binary<S, W>(source: &mut S, out: &mut W) -> Result<(), WriteSourceError>
where
    S: EventSource + ?Sized,
    W: Write,
{
    out.write_all(&BINARY_MAGIC)?;
    let mut emitted = EmittedMeta::default();
    flush_binary_meta(&mut emitted, source, out)?;
    let mut prev_tid: Option<ThreadId> = None;
    while let Some(event) = source.next_event()? {
        flush_binary_meta(&mut emitted, source, out)?;
        write_event_record(out, event, &mut prev_tid)?;
    }
    // Trailing declarations (silent entities, late thread counts), then
    // the final effective thread count: fork/join desugaring erases the
    // records that named a silent child, so a lazy source's observed
    // threads must be declared explicitly to survive the round trip.
    flush_binary_meta(&mut emitted, source, out)?;
    let threads = source.threads();
    if threads > emitted.threads {
        out.write_all(&[TAG_THREADS])?;
        write_varint(out, threads as u64)?;
    }
    out.write_all(&[TAG_END])?;
    Ok(())
}

/// Encodes one event record (tag byte, optional tid varint, optional
/// operand varint), threading the same-thread delta through `prev_tid`.
/// Shared verbatim by the v1 and v2 writers, which is what makes a
/// v1→v2→v1 conversion byte-identical.
///
/// `inline(always)`: both encode loops are sensitive to inlining
/// heuristics — letting this spill to a call measured as a discrete
/// several-ns-per-event cliff in v2 encode when the surrounding loop
/// grew by a few instructions.
#[inline(always)]
pub(crate) fn write_event_record<W: Write>(
    out: &mut W,
    event: Event,
    prev_tid: &mut Option<ThreadId>,
) -> std::io::Result<()> {
    let (kind_bits, operand) = match event.kind {
        EventKind::Read(v) => (0u8, v.index() as u64),
        EventKind::Write(v) => (1, v.index() as u64),
        EventKind::Acquire(l) => (2, l.index() as u64),
        EventKind::Release(l) => (3, l.index() as u64),
    };
    let same_tid = *prev_tid == Some(event.tid);
    let inline = if operand < OPERAND_ESCAPE as u64 {
        operand as u8
    } else {
        OPERAND_ESCAPE
    };
    // Assemble the whole record (tag + at most two 10-byte varints) on
    // the stack and hand the sink one contiguous write: three separate
    // `write_all` calls cost a capacity check each on a `Vec` sink,
    // and event records are the hot path of both encoders.
    let mut buf = [0u8; 21];
    buf[0] = kind_bits | (u8::from(same_tid) << 2) | (inline << 3);
    let mut len = 1;
    if !same_tid {
        len += put_varint(&mut buf[len..], event.tid.as_u32() as u64);
    }
    if inline == OPERAND_ESCAPE {
        len += put_varint(&mut buf[len..], operand);
    }
    out.write_all(&buf[..len])?;
    *prev_tid = Some(event.tid);
    Ok(())
}

/// Encodes `v` as a LEB128 varint into `buf` (identical byte output to
/// [`write_varint`]) and returns the encoded length. `buf` must have
/// room for 10 bytes.
#[inline]
fn put_varint(buf: &mut [u8], mut v: u64) -> usize {
    let mut len = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[len] = byte;
            return len + 1;
        }
        buf[len] = byte | 0x80;
        len += 1;
    }
}

/// Emits declaration records for everything the source has interned
/// beyond what was already written.
///
/// `inline(always)` for the same reason as [`write_event_record`]: the
/// per-event call is three monomorphized count compares on the fast
/// path and must stay fused into the encode loops.
#[inline(always)]
pub(crate) fn flush_binary_meta<S, W>(
    emitted: &mut EmittedMeta,
    source: &S,
    out: &mut W,
) -> std::io::Result<()>
where
    S: EventSource + ?Sized,
    W: Write,
{
    let declared = source.declared_threads();
    if declared > emitted.threads {
        emitted.threads = declared;
        out.write_all(&[TAG_THREADS])?;
        write_varint(out, declared as u64)?;
    }
    for l in emitted.locks..source.lock_count() {
        write_name(out, TAG_DEF_LOCK, source.lock_name(l))?;
    }
    emitted.locks = source.lock_count();
    for v in emitted.vars..source.var_count() {
        write_name(out, TAG_DEF_VAR, source.var_name(v))?;
    }
    emitted.vars = source.var_count();
    Ok(())
}

/// The name constraints both codec directions enforce (writer with
/// `InvalidData`, reader with [`BinaryTraceError`]): a name must
/// re-parse as the same single operand when carried as `#! lock <name>`
/// / `op(<name>)` text, or conversion between the formats would
/// silently change the trace. [`TraceBuilder`](crate::TraceBuilder)
/// itself accepts arbitrary strings, so the check lives at the
/// serialization boundary.
fn validate_name(name: &str) -> Result<(), String> {
    if name.len() > 1 << 20 {
        return Err(format!("unreasonable name length {}", name.len()));
    }
    if name.is_empty() || name.trim() != name {
        return Err(format!(
            "name {name:?} is empty or has surrounding whitespace"
        ));
    }
    if name.chars().any(|c| c.is_control() || c == '(' || c == ')') {
        return Err(format!(
            "name {name:?} contains characters the text format cannot carry"
        ));
    }
    Ok(())
}

fn write_name<W: Write>(out: &mut W, tag: u8, name: &str) -> std::io::Result<()> {
    validate_name(name)
        .map_err(|reason| std::io::Error::new(std::io::ErrorKind::InvalidData, reason))?;
    out.write_all(&[tag])?;
    write_varint(out, name.len() as u64)?;
    out.write_all(name.as_bytes())
}

pub(crate) fn write_varint<W: Write>(out: &mut W, mut v: u64) -> std::io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// An error from the binary decoder, pointing at the offending byte
/// offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinaryTraceError {
    /// Byte offset (from the start of the input) of the record that
    /// failed to decode.
    pub offset: u64,
    pub(crate) reason: String,
}

impl BinaryTraceError {
    /// Builds an error at `offset`. Public so the seeking/parallel
    /// layers above the streaming decoder (footer validation, parallel
    /// merge of per-segment name deltas) can report malformed input
    /// with the same shape the decoder uses.
    pub fn new(offset: u64, reason: impl Into<String>) -> Self {
        BinaryTraceError {
            offset,
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for BinaryTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for BinaryTraceError {}

/// A streaming decoder for the binary trace format, mirroring
/// [`EventReader`](crate::EventReader) for the text format.
///
/// Implements [`EventSource`]; metadata (name tables, thread counts)
/// grows as declaration records are consumed and is complete by the end
/// of the stream. Decoding stops at the first malformed record; a
/// missing end marker (truncated input) is an error, so silent prefix
/// loss cannot masquerade as success.
#[derive(Debug)]
pub struct BinaryEventReader<R> {
    input: StreamInput<R>,
    records: RecordDecoder,
}

impl<R: Read> BinaryEventReader<R> {
    /// Creates a decoder, consuming and negotiating the magic prefix.
    ///
    /// # Errors
    ///
    /// Fails with "not a binary trace" if the input does not carry an
    /// `FTB` magic at all, and with "unsupported binary trace version
    /// `N`" if it carries a version this build cannot read — the two
    /// must stay distinct so a newer file is diagnosed as such instead
    /// of as garbage.
    pub fn new(input: R) -> Result<Self, BinaryTraceError> {
        let mut input = StreamInput {
            reader: std::io::BufReader::new(input),
            offset: 0,
            crc: None,
        };
        let mut magic = [0u8; 8];
        input
            .read_exact(&mut magic)
            .map_err(|e| malformed(0, format_args!("cannot read magic: {e}")))?;
        let version = match magic_version(&magic) {
            Some(v @ (1 | 2)) => v,
            Some(v) => {
                return Err(malformed(
                    8,
                    format_args!("unsupported binary trace version {v} (this build reads 1 and 2)"),
                ))
            }
            None => return Err(malformed(8, format_args!("not a binary trace (bad magic)"))),
        };
        let mut records =
            RecordDecoder::new(version, false, Interner::default(), Interner::default());
        if version == 2 {
            input.crc = Some((!0, !0));
            records.segments = Some(Box::default());
        }
        Ok(BinaryEventReader { input, records })
    }

    /// The negotiated format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.records.version
    }
}

impl<R: Read> EventSource for BinaryEventReader<R> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        Ok(self.records.next_event(&mut self.input)?)
    }

    fn declared_threads(&self) -> u32 {
        self.records.declared_threads
    }

    fn observed_threads(&self) -> u32 {
        self.records.observed_threads
    }

    fn lock_count(&self) -> usize {
        self.records.locks.len()
    }

    fn var_count(&self) -> usize {
        self.records.vars.len()
    }

    fn lock_name(&self, index: usize) -> &str {
        self.records.locks.name(index)
    }

    fn var_name(&self, index: usize) -> &str {
        self.records.vars.name(index)
    }
}

/// Where the record grammar reads its bytes: a buffered stream
/// ([`BinaryEventReader`]) or a cursor over one segment's bytes
/// ([`SliceInput`]).
pub(crate) trait RecordInput {
    /// Absolute offset of the next unread byte, for error reports.
    fn offset(&self) -> u64;

    /// Fills `buf` from the input, advancing the offset; a short input
    /// fails with `UnexpectedEof` and leaves the offset unchanged.
    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()>;

    /// The CRC-32 of the bytes read since the previous call, without
    /// the last read, restarting the checksum after that read. Only a
    /// v2 stream checksums; other inputs return 0.
    fn take_crc(&mut self) -> u32 {
        0
    }
}

/// A buffered stream that counts the bytes it hands out, and in a v2
/// stream checksums them.
#[derive(Debug)]
struct StreamInput<R> {
    reader: std::io::BufReader<R>,
    offset: u64,
    /// v2 only: the CRC state before and after the last read.
    crc: Option<(u32, u32)>,
}

impl<R: Read> RecordInput for StreamInput<R> {
    fn offset(&self) -> u64 {
        self.offset
    }

    #[inline(always)]
    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        self.reader.read_exact(buf)?;
        self.offset += buf.len() as u64;
        if let Some((before, after)) = &mut self.crc {
            *before = *after;
            *after = crc32_update(*after, buf);
        }
        Ok(())
    }

    fn take_crc(&mut self) -> u32 {
        let (before, _) = self.crc.replace((!0, !0)).unwrap_or_default();
        !before
    }
}

/// A v2 stream's record ranges (offset, byte length, CRC-32), checked
/// against its footer before the stream may end, so a damaged stream
/// fails like the file does instead of yielding other events.
#[derive(Debug, Default)]
struct StreamSegments {
    ranges: Vec<(u64, u64, u32)>,
    /// Where the open range starts.
    open: Option<u64>,
}

impl StreamSegments {
    /// Reads the rest of the v2 marker or end marker whose `tag` was
    /// just read; true when the footer closed the stream.
    #[cold]
    fn marker<I: RecordInput>(&mut self, tag: u8, input: &mut I) -> Result<bool, BinaryTraceError> {
        let at = input.offset() - 1;
        let crc = input.take_crc();
        if let Some(start) = self.open.take() {
            self.ranges.push((start, at - start, crc));
        }
        if tag == TAG_END {
            return Err(malformed(at, format_args!("end marker before the footer")));
        }
        // The segment index, or the checkpoint's or footer's length.
        let len = read_varint(input)?;
        if tag == TAG_SEGMENT {
            input.take_crc();
            self.open = Some(input.offset());
            return Ok(false);
        }
        if tag == TAG_CHECKPOINT {
            skip_bytes(input, len)?;
            return Ok(false);
        }
        // A footer entry is at most ten 10-byte varints: the clamp keeps
        // a corrupt `len` from sizing the allocation.
        let mut body = vec![0u8; len.min(14 + 100 * self.ranges.len() as u64) as usize];
        if let Err(e) = input.read_exact(&mut body) {
            return Err(truncated(input, e));
        }
        check_streamed_footer(&body, at, &self.ranges)?;
        if read_byte(input)? != TAG_END {
            return Err(malformed(
                input.offset() - 1,
                format_args!("no end marker after the footer"),
            ));
        }
        Ok(true)
    }
}

/// A cursor over one segment's record bytes: the unread rest of the
/// slice, advanced in place. The offset is derived from the rest's
/// length, so the per-byte path only moves the slice.
pub(crate) struct SliceInput<'a> {
    rest: &'a [u8],
    /// Absolute offset one past the slice's last byte.
    end: u64,
}

impl<'a> SliceInput<'a> {
    /// A cursor over `bytes`, whose first byte sits at absolute offset
    /// `base`.
    pub(crate) fn new(bytes: &'a [u8], base: u64) -> Self {
        SliceInput {
            rest: bytes,
            end: base + bytes.len() as u64,
        }
    }
}

impl RecordInput for SliceInput<'_> {
    fn offset(&self) -> u64 {
        self.end - self.rest.len() as u64
    }

    #[inline(always)]
    fn read_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
        // `&[u8]`'s own `read_exact` gives the same short-input error as
        // the buffered stream's. It runs on a copy because it empties
        // the slice on a short read, and the offset must stay put.
        let mut rest = self.rest;
        rest.read_exact(buf)?;
        self.rest = rest;
        Ok(())
    }
}

/// A decoding error at `offset`. Cold and outlined, with the message
/// formatted here, so the per-byte paths carry no formatting code.
#[cold]
#[inline(never)]
fn malformed(offset: u64, reason: std::fmt::Arguments<'_>) -> BinaryTraceError {
    BinaryTraceError {
        offset,
        reason: reason.to_string(),
    }
}

/// The record grammar, written once: tag dispatch, varints, names and
/// event records, over any [`RecordInput`]. The streaming reader feeds
/// it a buffered stream; the segment decoder
/// ([`decode_segment`](crate::decode_segment)) feeds it a
/// [`SliceInput`]. Both therefore accept the same records and report
/// the same errors at the same absolute offsets.
///
/// The per-byte paths are `inline(always)` and every error message is
/// formatted in the outlined [`malformed`], so a decode loop inlines
/// whole and carries no formatting code: left to the inliner, the
/// varint reader stayed a call and `decode_segment` paid ~10 ns more
/// per event.
#[derive(Debug)]
pub(crate) struct RecordDecoder {
    /// Format version (1 or 2) negotiated from the magic.
    version: u32,
    /// Segment-body mode: the input is the record body of one segment,
    /// so a clean EOF at a record boundary ends the stream (there is no
    /// end marker inside a segment).
    eof_ends_stream: bool,
    locks: Interner,
    vars: Interner,
    declared_threads: u32,
    /// One past the highest thread id of an event decoded so far. The
    /// segment decoder's fast path reads and writes it directly, so that
    /// it and this grammar hand one state back and forth.
    pub(crate) observed_threads: u32,
    /// The thread of the previous event, which the same-thread bit
    /// repeats; shared with the fast path like `observed_threads`.
    pub(crate) prev_tid: Option<ThreadId>,
    /// A v2 stream's structure check (`None` in a segment body).
    segments: Option<Box<StreamSegments>>,
    done: bool,
}

impl RecordDecoder {
    pub(crate) fn new(
        version: u32,
        eof_ends_stream: bool,
        locks: Interner,
        vars: Interner,
    ) -> Self {
        RecordDecoder {
            version,
            eof_ends_stream,
            locks,
            vars,
            declared_threads: 0,
            observed_threads: 0,
            prev_tid: None,
            segments: None,
            done: false,
        }
    }

    /// A decoder for the record body of one v2 segment (no magic, no
    /// end marker): the name tables start at the segment's watermarks
    /// so operand ids resolve, and a clean EOF at a record boundary
    /// ends the stream.
    pub(crate) fn for_segment(locks: Interner, vars: Interner) -> Self {
        RecordDecoder::new(2, true, locks, vars)
    }

    pub(crate) fn declared_threads(&self) -> u32 {
        self.declared_threads
    }

    /// How many ids are defined so far, base included, indexed by an
    /// event record's `kind_bits >> 1`: vars bound the operands of reads
    /// and writes, locks those of acquires and releases.
    pub(crate) fn operand_limits(&self) -> [usize; 2] {
        [self.vars.len(), self.locks.len()]
    }

    /// The names this decoder defined itself (ids from the base up).
    pub(crate) fn into_names(self) -> (Vec<String>, Vec<String>) {
        (self.locks.into_names(), self.vars.into_names())
    }

    /// Decodes records up to the next event; `Ok(None)` at the end of
    /// the stream (or of the segment body). After an error, every
    /// later call returns `Ok(None)`.
    #[inline(always)]
    pub(crate) fn next_event<I: RecordInput>(
        &mut self,
        input: &mut I,
    ) -> Result<Option<Event>, BinaryTraceError> {
        if self.done {
            return Ok(None);
        }
        let next = self.next_record(input);
        if !matches!(next, Ok(Some(_))) {
            self.done = true;
        }
        next
    }

    #[inline(always)]
    fn next_record<I: RecordInput>(
        &mut self,
        input: &mut I,
    ) -> Result<Option<Event>, BinaryTraceError> {
        loop {
            let Some(tag) = self.read_tag(input)? else {
                return Ok(None);
            };
            if tag < TAG_DEF_LOCK {
                return self.decode_event(input, tag).map(Some);
            }
            match tag {
                TAG_SEGMENT | TAG_CHECKPOINT | TAG_FOOTER | TAG_END if self.segments.is_some() => {
                    let segments = self.segments.as_mut().expect("checked by the guard");
                    if segments.marker(tag, input)? {
                        return Ok(None);
                    }
                    if tag == TAG_SEGMENT {
                        self.prev_tid = None;
                    }
                }
                TAG_END => return Ok(None),
                TAG_DEF_LOCK => {
                    let name = read_name(input)?;
                    if self.locks.contains(&name) {
                        return Err(malformed(
                            input.offset(),
                            format_args!("duplicate definition of lock {name:?}"),
                        ));
                    }
                    self.locks.push(name);
                }
                TAG_DEF_VAR => {
                    let name = read_name(input)?;
                    if self.vars.contains(&name) {
                        return Err(malformed(
                            input.offset(),
                            format_args!("duplicate definition of var {name:?}"),
                        ));
                    }
                    self.vars.push(name);
                }
                TAG_THREADS => {
                    let n = read_varint(input)?;
                    if n > u32::MAX as u64 {
                        return Err(malformed(
                            input.offset(),
                            format_args!("thread count {n} overflows u32"),
                        ));
                    }
                    self.declared_threads = self.declared_threads.max(n as u32);
                }
                TAG_SEGMENT if self.version >= 2 => {
                    // Sequential readers only need the boundary's one
                    // semantic effect: the same-thread delta resets, so
                    // each segment decodes without its predecessors.
                    let _index = read_varint(input)?;
                    self.prev_tid = None;
                }
                TAG_CHECKPOINT | TAG_FOOTER if self.version >= 2 => {
                    let len = read_varint(input)?;
                    skip_bytes(input, len)?;
                }
                tag => {
                    return Err(malformed(
                        input.offset(),
                        format_args!("unknown record tag {tag:#04x}"),
                    ))
                }
            }
        }
    }

    /// Reads the next record's tag byte; `Ok(None)` at a clean EOF in
    /// segment-body mode, where the body's end plays the role of the
    /// end marker.
    #[inline(always)]
    fn read_tag<I: RecordInput>(&self, input: &mut I) -> Result<Option<u8>, BinaryTraceError> {
        let mut byte = [0u8];
        match input.read_exact(&mut byte) {
            Ok(()) => Ok(Some(byte[0])),
            Err(e) if self.eof_ends_stream && e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Ok(None)
            }
            Err(e) => Err(truncated(input, e)),
        }
    }

    #[inline(always)]
    fn decode_event<I: RecordInput>(
        &mut self,
        input: &mut I,
        tag: u8,
    ) -> Result<Event, BinaryTraceError> {
        let kind_bits = tag & 0b11;
        let same_tid = tag & 0b100 != 0;
        let inline = tag >> 3;
        let tid = if same_tid {
            match self.prev_tid {
                Some(tid) => tid,
                None => {
                    return Err(malformed(
                        input.offset(),
                        format_args!("same-thread bit with no previous event"),
                    ))
                }
            }
        } else {
            let raw = read_varint(input)?;
            // `>=` because thread *counts* (`tid + 1`) must fit a u32
            // too; u32::MAX itself would overflow observed_threads.
            if raw >= u32::MAX as u64 {
                return Err(malformed(
                    input.offset(),
                    format_args!("thread id {raw} overflows u32"),
                ));
            }
            ThreadId::new(raw as u32)
        };
        let operand = if inline == OPERAND_ESCAPE {
            read_varint(input)?
        } else {
            inline as u64
        };
        if operand > u32::MAX as u64 {
            return Err(malformed(
                input.offset(),
                format_args!("operand id {operand} overflows u32"),
            ));
        }
        let operand = operand as u32;
        let (defined, what) = if kind_bits < 2 {
            (self.vars.len(), "var")
        } else {
            (self.locks.len(), "lock")
        };
        if operand as usize >= defined {
            return Err(malformed(
                input.offset(),
                format_args!("{what} id {operand} not yet defined (have {defined})"),
            ));
        }
        let kind = match kind_bits {
            0 => EventKind::Read(VarId::new(operand)),
            1 => EventKind::Write(VarId::new(operand)),
            2 => EventKind::Acquire(LockId::new(operand)),
            _ => EventKind::Release(LockId::new(operand)),
        };
        self.prev_tid = Some(tid);
        self.observed_threads = self.observed_threads.max(tid.as_u32() + 1);
        Ok(Event::new(tid, kind))
    }
}

/// A short read inside a record.
#[cold]
#[inline(never)]
fn truncated<I: RecordInput>(input: &I, e: std::io::Error) -> BinaryTraceError {
    malformed(input.offset(), format_args!("truncated input: {e}"))
}

#[inline(always)]
fn read_byte<I: RecordInput>(input: &mut I) -> Result<u8, BinaryTraceError> {
    let mut byte = [0u8];
    match input.read_exact(&mut byte) {
        Ok(()) => Ok(byte[0]),
        Err(e) => Err(truncated(input, e)),
    }
}

#[inline(always)]
fn read_varint<I: RecordInput>(input: &mut I) -> Result<u64, BinaryTraceError> {
    let mut value = 0u64;
    let mut shift = 0;
    loop {
        let byte = read_byte(input)?;
        // The 10th byte may only carry the top bit of a u64; a larger
        // payload (or a continuation) would be silently truncated by the
        // shift, so reject it as malformed.
        if shift == 63 && byte > 1 {
            return Err(malformed(
                input.offset(),
                format_args!("varint overflows u64"),
            ));
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Skips `len` payload bytes (checkpoint blocks, and footer records
/// inside a segment body). Bounded buffer: `len` comes from untrusted
/// input and must not size an allocation.
#[inline(always)]
fn skip_bytes<I: RecordInput>(input: &mut I, len: u64) -> Result<(), BinaryTraceError> {
    let mut buf = [0u8; 512];
    let mut remaining = len;
    while remaining > 0 {
        let n = remaining.min(buf.len() as u64) as usize;
        if let Err(e) = input.read_exact(&mut buf[..n]) {
            return Err(truncated(input, e));
        }
        remaining -= n as u64;
    }
    Ok(())
}

/// Reads a definition record's name, enforcing [`validate_name`]'s
/// constraints (duplicates are rejected at the call site): a foreign
/// `.ftb` with a metacharacter-laden name is rejected here rather than
/// silently turning into a *different* trace after a text round trip.
/// The writer enforces the same rules, so the codec's own output always
/// decodes.
#[inline(always)]
fn read_name<I: RecordInput>(input: &mut I) -> Result<String, BinaryTraceError> {
    let len = read_varint(input)?;
    if len > 1 << 20 {
        return Err(malformed(
            input.offset(),
            format_args!("unreasonable name length {len}"),
        ));
    }
    let mut bytes = vec![0u8; len as usize];
    if let Err(e) = input.read_exact(&mut bytes) {
        return Err(malformed(
            input.offset(),
            format_args!("truncated name: {e}"),
        ));
    }
    let name = String::from_utf8(bytes)
        .map_err(|e| malformed(input.offset(), format_args!("name is not UTF-8: {e}")))?;
    validate_name(&name).map_err(|reason| malformed(input.offset(), format_args!("{reason}")))?;
    Ok(name)
}

/// Parses a complete binary trace from a byte slice — the batch
/// convenience over [`BinaryEventReader`], mirroring
/// [`read_trace`](crate::read_trace).
///
/// # Errors
///
/// Returns the first malformed record (as a [`SourceError::Binary`]).
pub fn read_trace_binary(bytes: &[u8]) -> Result<Trace, SourceError> {
    let mut reader = BinaryEventReader::new(bytes)?;
    Trace::from_source(&mut reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_trace, write_trace, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("silent-var");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.read(1, x);
        b.fork(1, 2);
        b.write(2, x);
        b.join(1, 2);
        b.declare_threads(7);
        let _ = y;
        b.build()
    }

    fn assert_traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.events(), b.events());
        assert_eq!(a.thread_count(), b.thread_count());
        assert_eq!(a.lock_count(), b.lock_count());
        assert_eq!(a.var_count(), b.var_count());
        for l in 0..a.lock_count() {
            assert_eq!(a.lock_name(l), b.lock_name(l));
        }
        for v in 0..a.var_count() {
            assert_eq!(a.var_name(v), b.var_name(v));
        }
    }

    #[test]
    fn read_write_is_the_identity() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        let back = read_trace_binary(&bytes).unwrap();
        assert_traces_equal(&trace, &back);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = TraceBuilder::new().build();
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        assert_eq!(bytes.len(), 9); // magic + end marker
        let back = read_trace_binary(&bytes).unwrap();
        assert_traces_equal(&trace, &back);
    }

    #[test]
    fn magic_is_detected_and_enforced() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        assert!(is_binary_trace(&bytes));
        assert!(!is_binary_trace(b"#! threads 2\n"));
        assert!(!is_binary_trace(&bytes[..4]));
        let err = BinaryEventReader::new(&b"not a binary trace"[..]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_input_is_an_error_not_a_short_trace() {
        let trace = sample();
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        // Drop the end marker and the last event.
        bytes.truncate(bytes.len() - 3);
        let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
        let err = Trace::from_source(&mut reader).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn overlong_varints_are_rejected_not_truncated() {
        // 9 continuation bytes then 0x02: at shift 63 only bit 0 fits,
        // so this encoding would silently decode to 0 if accepted.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.push(TAG_DEF_VAR);
        bytes.push(1);
        bytes.push(b'x');
        bytes.push(0b0000_0000); // read of var 0, explicit tid follows
        bytes.extend_from_slice(&[0x80; 9]);
        bytes.push(0x02);
        bytes.push(TAG_END);
        let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
        // An 11-byte varint (continuation past the 10th byte) is also
        // malformed, not an infinite accumulation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        bytes.push(TAG_THREADS);
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        bytes.push(TAG_END);
        let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    #[test]
    fn metacharacter_and_duplicate_names_are_rejected() {
        // Names the text format cannot carry back would turn a binary
        // trace into a *different* trace after `convert --to text`.
        for bad in ["a)", "a(b", "a\nT9|w(b", " padded ", ""] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&BINARY_MAGIC);
            bytes.push(TAG_DEF_VAR);
            bytes.push(bad.len() as u8);
            bytes.extend_from_slice(bad.as_bytes());
            bytes.push(TAG_END);
            let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
            let err = reader.next_event().unwrap_err();
            assert!(
                err.to_string().contains("name"),
                "{bad:?} should be rejected, got {err}"
            );
        }
        // A duplicate definition would be merged by the text reader's
        // interner on re-parse, silently fusing two distinct variables.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        for _ in 0..2 {
            bytes.push(TAG_DEF_LOCK);
            bytes.push(1);
            bytes.push(b'l');
        }
        bytes.push(TAG_END);
        let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn undefined_operand_ids_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BINARY_MAGIC);
        // A read of var 0 with no definition record.
        bytes.push(0b0000_0000);
        bytes.push(0); // tid varint
        bytes.push(TAG_END);
        let mut reader = BinaryEventReader::new(&bytes[..]).unwrap();
        let err = reader.next_event().unwrap_err();
        assert!(err.to_string().contains("not yet defined"), "{err}");
    }

    #[test]
    fn lazy_writer_defines_names_before_first_use() {
        // Stream a headerless text trace straight into the binary
        // writer: definitions are interleaved, and decoding yields the
        // same trace as batch text parsing.
        let text = "T0|w(x)\nT0|acq(l)\nT0|rel(l)\nT1|r(y)\nT1|fork(3)\n";
        let mut reader = crate::EventReader::new(text.as_bytes());
        let mut bytes = Vec::new();
        write_source_binary(&mut reader, &mut bytes).unwrap();
        let back = read_trace_binary(&bytes).unwrap();
        let batch = read_trace(text).unwrap();
        assert_traces_equal(&batch, &back);
    }

    #[test]
    fn binary_is_denser_than_text() {
        let trace = sample();
        let text = write_trace(&trace);
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        assert!(
            bytes.len() < text.len(),
            "binary {} >= text {}",
            bytes.len(),
            text.len()
        );
    }

    #[test]
    fn varints_round_trip_large_ids() {
        let mut b = TraceBuilder::new();
        // Force operand ids past the inline window and a large tid.
        let vars: Vec<_> = (0..40).map(|v| b.var(&format!("v{v}"))).collect();
        b.write(300, vars[35]);
        b.read(300, vars[39]);
        b.write(2, vars[0]);
        let trace = b.build();
        let mut bytes = Vec::new();
        write_trace_binary(&trace, &mut bytes).unwrap();
        let back = read_trace_binary(&bytes).unwrap();
        assert_traces_equal(&trace, &back);
    }
}
