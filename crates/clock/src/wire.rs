//! Compact binary codecs for the clock types — the wire substrate of
//! the segmented `.ftb` v2 checkpoints.
//!
//! Every encoder appends to a caller-supplied `Vec<u8>` and every
//! decoder reads from a [`WireReader`] over a byte slice, so the same
//! helpers serve both the trace-file checkpoint records (written by
//! `freshtrack-trace`) and the in-memory engine checkpoints exported on
//! the sync/access plane seam (`freshtrack-core`).
//!
//! Two properties matter for checkpoint determinism (see
//! `ARCHITECTURE.md` § Segmented store & checkpoints):
//!
//! * **Value-faithfulness including widths.** A [`VectorClock`] encodes
//!   all allocated entries, zeros included, so the decoded clock has the
//!   same `len()` — views derived from restored state are zero-extended
//!   identically to the original.
//! * **Recency-order preservation.** An [`OrderedList`] is encoded in
//!   most-recent-first chain order and rebuilt by `set`ting the pairs in
//!   reverse, so the decoded list has the *same* recency chain — the
//!   `O(d)` partial traversals of Algorithm 4 see identical prefixes
//!   after a restore.
//!
//! Integers use LEB128 varints (the same encoding as the `.ftb` event
//! stream). Decoders never panic on malformed input: every failure is a
//! clean [`WireError`].
//!
//! # Example
//!
//! ```
//! use freshtrack_clock::wire::{self, WireReader};
//! use freshtrack_clock::{OrderedList, ThreadId};
//!
//! let mut list = OrderedList::new();
//! list.set(ThreadId::new(1), 7);
//! list.set(ThreadId::new(0), 3); // thread 0 is now most recent
//!
//! let mut buf = Vec::new();
//! wire::put_list(&mut buf, &list);
//! let mut reader = WireReader::new(&buf);
//! let back = reader.get_list().unwrap();
//! assert_eq!(back, list);
//! let recent: Vec<_> = back.iter_recent().collect();
//! assert_eq!(recent[0], (ThreadId::new(0), 3));
//! ```

use std::fmt;

use crate::{Epoch, FreshnessClock, OrderedList, ThreadId, Time, VectorClock};

/// A malformed or truncated wire encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// The input continued past the encoded value.
    TrailingBytes,
    /// A structurally invalid encoding (the message says what).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated encoding"),
            WireError::TrailingBytes => write!(f, "trailing bytes after encoding"),
            WireError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends `value` as an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a boolean as a single `0`/`1` byte.
pub fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(value as u8);
}

/// Appends a [`VectorClock`]: entry count, then every allocated entry in
/// index order (zeros included, so the decoded clock keeps its `len()`).
pub fn put_clock(out: &mut Vec<u8>, clock: &VectorClock) {
    put_varint(out, clock.len() as u64);
    for (_, time) in clock.iter() {
        put_varint(out, time);
    }
}

/// Appends a [`FreshnessClock`] (same layout as its underlying vector).
pub fn put_fresh(out: &mut Vec<u8>, fresh: &FreshnessClock) {
    put_clock(out, fresh.as_vector());
}

/// Appends an [`Epoch`] as its `(thread, time)` pair.
pub fn put_epoch(out: &mut Vec<u8>, epoch: Epoch) {
    put_varint(out, epoch.tid().as_u32() as u64);
    put_varint(out, epoch.time());
}

/// Appends an [`OrderedList`]: arena length, then every `(thread, time)`
/// node in most-recent-first chain order.
pub fn put_list(out: &mut Vec<u8>, list: &OrderedList) {
    put_varint(out, list.len() as u64);
    for (tid, time) in list.iter_recent() {
        put_varint(out, tid.as_u32() as u64);
        put_varint(out, time);
    }
}

/// A cursor over a wire-encoded byte slice; all decoders live here.
#[derive(Clone, Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Asserts that the whole input was consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::TrailingBytes`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn get_byte(&mut self) -> Result<u8, WireError> {
        let byte = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(byte)
    }

    /// Decodes one LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input;
    /// [`WireError::Invalid`] for an encoding that overflows `u64`.
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_byte()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Invalid("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Invalid("varint longer than 10 bytes"));
            }
        }
    }

    /// Decodes a varint that must fit the platform `usize`.
    ///
    /// # Errors
    ///
    /// Propagates [`get_varint`](Self::get_varint) failures, plus
    /// [`WireError::Invalid`] if the value does not fit.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_varint()?)
            .map_err(|_| WireError::Invalid("length overflows usize"))
    }

    /// Decodes a varint that must fit `u32` (thread/lock indices).
    ///
    /// # Errors
    ///
    /// Propagates [`get_varint`](Self::get_varint) failures, plus
    /// [`WireError::Invalid`] if the value does not fit.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.get_varint()?).map_err(|_| WireError::Invalid("index overflows u32"))
    }

    /// Consumes and returns the next `len` raw bytes (used for
    /// length-prefixed nested sections in composite checkpoints).
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `len` bytes remain.
    pub fn get_bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    /// Decodes a boolean byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] at end of input;
    /// [`WireError::Invalid`] for any byte other than `0`/`1`.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("boolean byte is not 0 or 1")),
        }
    }

    /// Guards a decoded element count against the bytes actually
    /// available (each element costs at least one byte), so a corrupt
    /// length cannot provoke a huge allocation.
    fn get_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(len)
    }

    /// Decodes a [`VectorClock`] written by [`put_clock`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for truncated or malformed input.
    pub fn get_clock(&mut self) -> Result<VectorClock, WireError> {
        let len = self.get_len()?;
        let mut clock = VectorClock::new();
        let entries = clock.entries_mut();
        entries.reserve(len);
        for _ in 0..len {
            entries.push(self.get_varint()?);
        }
        Ok(clock)
    }

    /// Decodes a [`FreshnessClock`] written by [`put_fresh`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for truncated or malformed input.
    pub fn get_fresh(&mut self) -> Result<FreshnessClock, WireError> {
        Ok(FreshnessClock::from(self.get_clock()?))
    }

    /// Decodes an [`Epoch`] written by [`put_epoch`].
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for truncated or malformed input.
    pub fn get_epoch(&mut self) -> Result<Epoch, WireError> {
        let tid = ThreadId::new(self.get_u32()?);
        let time = self.get_varint()?;
        Ok(Epoch::new(tid, time))
    }

    /// Decodes an [`OrderedList`] written by [`put_list`], restoring the
    /// exact recency order.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] for truncated or malformed input, including a
    /// node sequence that is not a permutation of the arena.
    pub fn get_list(&mut self) -> Result<OrderedList, WireError> {
        let len = self.get_len()?;
        let mut pairs: Vec<(ThreadId, Time)> = Vec::with_capacity(len);
        let mut seen = vec![false; len];
        for _ in 0..len {
            let raw = self.get_u32()? as usize;
            if raw >= len {
                return Err(WireError::Invalid("ordered-list node beyond arena"));
            }
            if std::mem::replace(&mut seen[raw], true) {
                return Err(WireError::Invalid("duplicate ordered-list node"));
            }
            let time = self.get_varint()?;
            pairs.push((ThreadId::new(raw as u32), time));
        }
        // `set` relinks each touched node to the chain head, so setting
        // the pairs least-recent-first reproduces the encoded order.
        let mut list = OrderedList::with_threads(len);
        for &(tid, time) in pairs.iter().rev() {
            list.set(tid, time);
        }
        Ok(list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }

    fn roundtrip_varint(value: u64) {
        let mut buf = Vec::new();
        put_varint(&mut buf, value);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_varint().unwrap(), value);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for value in [0, 1, 127, 128, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            roundtrip_varint(value);
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes.
        let long = vec![0x80u8; 11];
        assert!(matches!(
            WireReader::new(&long).get_varint(),
            Err(WireError::Invalid(_))
        ));
        // u64::MAX + 1 flavour: 10th byte with value 2.
        let mut over = vec![0xffu8; 9];
        over.push(0x02);
        assert!(matches!(
            WireReader::new(&over).get_varint(),
            Err(WireError::Invalid(_))
        ));
        assert_eq!(
            WireReader::new(&[0x80]).get_varint(),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn clock_round_trip_preserves_len_and_zeros() {
        let mut clock = VectorClock::new();
        clock.set(t(0), 5);
        clock.set(t(3), 0); // extends len to 4 with trailing zero
        let mut buf = Vec::new();
        put_clock(&mut buf, &clock);
        let back = WireReader::new(&buf).get_clock().unwrap();
        assert_eq!(back, clock);
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn list_round_trip_preserves_recency_order() {
        let mut list = OrderedList::new();
        for (tid, time) in [(t(3), 0), (t(2), 8), (t(4), 1), (t(1), 20), (t(0), 6)] {
            list.set(tid, time);
        }
        list.set(t(2), 9); // shuffle the chain
        let mut buf = Vec::new();
        put_list(&mut buf, &list);
        let back = WireReader::new(&buf).get_list().unwrap();
        assert_eq!(back, list);
        let original: Vec<_> = list.iter_recent().collect();
        let decoded: Vec<_> = back.iter_recent().collect();
        assert_eq!(original, decoded);
        back.assert_invariants();
    }

    #[test]
    fn list_decoder_rejects_non_permutations() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        for _ in 0..2 {
            put_varint(&mut buf, 0); // duplicate node id
            put_varint(&mut buf, 1);
        }
        assert!(matches!(
            WireReader::new(&buf).get_list(),
            Err(WireError::Invalid(_))
        ));
        let mut buf = Vec::new();
        put_varint(&mut buf, 1);
        put_varint(&mut buf, 7); // node beyond arena
        put_varint(&mut buf, 1);
        assert!(matches!(
            WireReader::new(&buf).get_list(),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn epoch_and_fresh_round_trip() {
        let mut buf = Vec::new();
        put_epoch(&mut buf, Epoch::new(t(3), 17));
        let mut fresh = FreshnessClock::new();
        fresh.bump_by(t(1), 4);
        put_fresh(&mut buf, &fresh);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_epoch().unwrap(), Epoch::new(t(3), 17));
        assert_eq!(r.get_fresh().unwrap(), fresh);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn bool_rejects_other_bytes() {
        let mut r = WireReader::new(&[2]);
        assert!(matches!(r.get_bool(), Err(WireError::Invalid(_))));
        let mut r = WireReader::new(&[1, 0]);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
    }

    #[test]
    fn huge_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX));
        assert_eq!(WireReader::new(&buf).get_clock(), Err(WireError::Truncated));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.push(0);
        let mut r = WireReader::new(&buf);
        r.get_varint().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes));
    }
}
