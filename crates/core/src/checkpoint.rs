//! Engine-state checkpointing on the sync/access plane seam.
//!
//! A checkpoint is a *serialized* copy of an engine's state —
//! deliberately never a `Clone`. The lazy-copy clock types
//! ([`SharedClock`](freshtrack_clock::SharedClock),
//! [`SharedVectorClock`](freshtrack_clock::SharedVectorClock)) share
//! their backing storage on clone, so a cloned engine would see
//! spurious deep-copy events the moment either copy mutates — breaking
//! the work-counter parity the differential suites pin. Round-tripping
//! through bytes gives the imported engine exclusive ownership of its
//! storage while carrying identical clock *values* (widths and
//! ordered-list recency chains included, see
//! [`freshtrack_clock::wire`]), so it reproduces the original's race
//! verdicts exactly. Sharing topology survives too: the one engine with
//! cross-object aliasing
//! ([`OrderedSyncEngine`](crate::OrderedSyncEngine)) records each live
//! thread↔lock alias as a mark and rebuilds the alias on import, so
//! even `deep_copies` — the only counter that depends on sharing —
//! continues exactly after a resume. The checkpoint suite pins full
//! counter equality (invariant 11 in `ARCHITECTURE.md`).
//!
//! Two layers implement the trait:
//!
//! * **Sync engines** ([`VectorSyncEngine`](crate::VectorSyncEngine),
//!   [`FreshnessSyncEngine`](crate::FreshnessSyncEngine),
//!   [`OrderedSyncEngine`](crate::OrderedSyncEngine)) and the access
//!   engines — what the incremental analyzer
//!   ([`crate::analyze_segments_cached`]) exports at the last two
//!   segment boundaries into the `.ftc` sidecar and imports to resume.
//! * **Whole detectors** (Djit+/FT/SU/SO, one impl on
//!   [`Composed`](crate::Composed)) — sync plane + access plane +
//!   `RelAfter_S` bits + counters, so an interrupted sequential
//!   analysis can resume at a segment boundary and continue
//!   byte-identically.
//!
//! Configuration (sampler seed, SO's local-epoch option) is *not* part
//! of a checkpoint: import targets a fresh engine built from the same
//! configuration (e.g. via
//! [`SplitDetector::split_sync`](crate::SplitDetector::split_sync)),
//! mirroring how the trace-file checkpoints of `.ftb` v2 carry only
//! sampler-independent canonical state.

use std::fmt;

use freshtrack_clock::wire::{self, WireError, WireReader};

use crate::Counters;

/// A checkpoint that failed to import (truncated or malformed bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointError(WireError);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        CheckpointError(e)
    }
}

/// State that can be exported to bytes and imported into a fresh
/// instance of the same configuration.
///
/// The contract: for any reachable state `s`,
/// `fresh.import_state(&export(s))` yields an engine that is
/// *verdict-equivalent* to `s` — every subsequent event sequence
/// produces the same race reports (and, for sync engines, publishes
/// value-identical clock views). Export is deterministic, so
/// export → import → export is byte-idempotent; the checkpoint suite
/// pins both properties.
pub trait CheckpointState {
    /// Serializes the current state onto `out`.
    fn export_state(&self, out: &mut Vec<u8>);

    /// Replaces this instance's state with the decoded checkpoint.
    /// `self` should be freshly constructed with the same configuration
    /// the exporter had; configuration itself is not transferred.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncated or malformed bytes; `self` may
    /// be partially overwritten and should be discarded on error.
    fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError>;
}

/// The bound an access engine's checkpoint once needed on top of
/// [`CheckpointState`], when a checkpoint could carry only the variables
/// that changed. Resume state is now always a whole export, so this is
/// the same trait under its former name.
pub use self::CheckpointState as AccessCheckpoint;

/// Encodes `curr` as a delta against `prev`:
/// `[common-prefix len][common-suffix len][middle len][middle bytes]`,
/// all varints. Two checkpoints of one engine taken close together
/// share most of their bytes, which the prefix and suffix swallow.
///
/// The inverse is [`apply_delta`]; `apply_delta(prev, &encode_delta(prev,
/// curr)) == curr` for all byte strings (the checkpoint suite pins
/// this, including the degenerate empty/identical cases).
pub fn encode_delta(prev: &[u8], curr: &[u8]) -> Vec<u8> {
    let prefix = prev.iter().zip(curr).take_while(|(a, b)| a == b).count();
    let suffix = prev[prefix..]
        .iter()
        .rev()
        .zip(curr[prefix..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let middle = &curr[prefix..curr.len() - suffix];
    let mut out = Vec::with_capacity(middle.len() + 15);
    wire::put_varint(&mut out, prefix as u64);
    wire::put_varint(&mut out, suffix as u64);
    wire::put_varint(&mut out, middle.len() as u64);
    out.extend_from_slice(middle);
    out
}

/// Reconstructs the checkpoint [`encode_delta`] compressed:
/// `prev[..prefix] ++ middle ++ prev[len-suffix..]`.
///
/// # Errors
///
/// [`CheckpointError`] if the delta is truncated, carries trailing
/// bytes, or names a prefix/suffix longer than `prev` — a delta is only
/// meaningful against the exact bytes it was encoded from.
pub fn apply_delta(prev: &[u8], delta: &[u8]) -> Result<Vec<u8>, CheckpointError> {
    let mut r = WireReader::new(delta);
    let prefix = r.get_usize()?;
    let suffix = r.get_usize()?;
    let middle_len = r.get_usize()?;
    let middle = r.get_bytes(middle_len)?;
    r.finish()?;
    if prefix.checked_add(suffix).map_or(true, |n| n > prev.len()) {
        return Err(CheckpointError(WireError::Invalid(
            "delta prefix+suffix exceed the base checkpoint",
        )));
    }
    let mut out = Vec::with_capacity(prefix + middle.len() + suffix);
    out.extend_from_slice(&prev[..prefix]);
    out.extend_from_slice(middle);
    out.extend_from_slice(&prev[prev.len() - suffix..]);
    Ok(out)
}

// ---------------------------------------------------------------------
// Shared wire helpers for the impls in the engine modules.
// ---------------------------------------------------------------------

/// Decodes an element count, guarded against the bytes actually
/// available (each element costs at least one byte) so corrupt input
/// cannot size a huge allocation.
pub(crate) fn get_count(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let n = r.get_usize()?;
    if n > r.remaining() {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

/// Appends the variable table of an access checkpoint: the variable
/// count, then one record per variable, which `put` writes. The table
/// keeps the shape of a sparse record list — a record count, equal to
/// the variable count, and a gap of 0 before each record — so an
/// engine's export stays the bytes the golden suite pins.
pub(crate) fn put_records(
    out: &mut Vec<u8>,
    vars: usize,
    mut put: impl FnMut(&mut Vec<u8>, usize),
) {
    wire::put_varint(out, vars as u64);
    wire::put_varint(out, vars as u64);
    for id in 0..vars {
        wire::put_varint(out, 0);
        put(out, id);
    }
}

/// Reads a variable table written by [`put_records`], handing the
/// records to `get` in variable order.
pub(crate) fn get_records<'a>(
    r: &mut WireReader<'a>,
    mut get: impl FnMut(&mut WireReader<'a>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let not_whole = WireError::Invalid("access checkpoint must hold one record per variable");
    let vars = get_count(r)?;
    if r.get_usize()? != vars {
        return Err(not_whole);
    }
    for _ in 0..vars {
        if r.get_varint()? != 0 {
            return Err(not_whole);
        }
        get(r)?;
    }
    Ok(())
}

/// Appends a length-prefixed nested section (an inner checkpoint).
pub(crate) fn put_section(out: &mut Vec<u8>, bytes: &[u8]) {
    wire::put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-prefixed nested section written by [`put_section`].
pub(crate) fn get_section<'a>(r: &mut WireReader<'a>) -> Result<&'a [u8], WireError> {
    let len = r.get_usize()?;
    r.get_bytes(len)
}

/// Appends a `RelAfter_S` bit vector.
pub(crate) fn put_bools(out: &mut Vec<u8>, bits: &[bool]) {
    wire::put_varint(out, bits.len() as u64);
    for &bit in bits {
        wire::put_bool(out, bit);
    }
}

/// Reads a bit vector written by [`put_bools`].
pub(crate) fn get_bools(r: &mut WireReader<'_>) -> Result<Vec<bool>, WireError> {
    let n = get_count(r)?;
    (0..n).map(|_| r.get_bool()).collect()
}

/// Appends every [`Counters`] field, in declaration order.
pub(crate) fn put_counters(out: &mut Vec<u8>, c: &Counters) {
    for value in counters_fields(c) {
        wire::put_varint(out, value);
    }
}

/// Reads counters written by [`put_counters`].
pub(crate) fn get_counters(r: &mut WireReader<'_>) -> Result<Counters, WireError> {
    let mut c = Counters::new();
    for slot in counters_fields_mut(&mut c) {
        *slot = r.get_varint()?;
    }
    Ok(c)
}

fn counters_fields(c: &Counters) -> [u64; 18] {
    [
        c.events,
        c.reads,
        c.writes,
        c.sampled_accesses,
        c.acquires,
        c.releases,
        c.acquires_skipped,
        c.acquires_processed,
        c.releases_skipped,
        c.releases_processed,
        c.shallow_copies,
        c.deep_copies,
        c.local_increments,
        c.entries_traversed,
        c.entries_saved,
        c.vc_ops,
        c.race_checks,
        c.races,
    ]
}

fn counters_fields_mut(c: &mut Counters) -> [&mut u64; 18] {
    [
        &mut c.events,
        &mut c.reads,
        &mut c.writes,
        &mut c.sampled_accesses,
        &mut c.acquires,
        &mut c.releases,
        &mut c.acquires_skipped,
        &mut c.acquires_processed,
        &mut c.releases_skipped,
        &mut c.releases_processed,
        &mut c.shallow_copies,
        &mut c.deep_copies,
        &mut c.local_increments,
        &mut c.entries_traversed,
        &mut c.entries_saved,
        &mut c.vc_ops,
        &mut c.race_checks,
        &mut c.races,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_every_field() {
        let mut c = Counters::new();
        for (i, slot) in counters_fields_mut(&mut c).into_iter().enumerate() {
            *slot = (i as u64 + 1) * 1000 + i as u64;
        }
        let mut buf = Vec::new();
        put_counters(&mut buf, &c);
        let mut r = WireReader::new(&buf);
        assert_eq!(get_counters(&mut r).unwrap(), c);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn bools_and_sections_round_trip() {
        let mut buf = Vec::new();
        put_bools(&mut buf, &[true, false, true]);
        put_section(&mut buf, b"inner");
        let mut r = WireReader::new(&buf);
        assert_eq!(get_bools(&mut r).unwrap(), vec![true, false, true]);
        assert_eq!(get_section(&mut r).unwrap(), b"inner");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncated_input_is_a_clean_error() {
        let mut buf = Vec::new();
        put_bools(&mut buf, &[true; 8]);
        for cut in 0..buf.len() {
            assert!(get_bools(&mut WireReader::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn delta_round_trips_every_shape() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"", b"abc"),
            (b"abc", b""),
            (b"abcdef", b"abcdef"),
            (b"abcdef", b"abcXdef"), // insertion
            (b"abcXdef", b"abcdef"), // deletion
            (b"abcdef", b"abcYef"),  // substitution
            (b"aa", b"a"),           // overlap-prone shrink
            (b"a", b"aa"),           // overlap-prone grow
            (b"xyz", b"pqr"),        // nothing shared
            (b"prefix-mid-suffix", b"prefix-OTHER-suffix"),
        ];
        for (prev, curr) in cases {
            let delta = encode_delta(prev, curr);
            assert_eq!(
                apply_delta(prev, &delta).unwrap(),
                *curr,
                "prev={prev:?} curr={curr:?}"
            );
        }
    }

    #[test]
    fn identical_checkpoints_make_tiny_deltas() {
        let bytes = vec![7u8; 10_000];
        let delta = encode_delta(&bytes, &bytes);
        assert!(delta.len() <= 5, "{} bytes", delta.len());
        assert_eq!(apply_delta(&bytes, &delta).unwrap(), bytes);
    }

    #[test]
    fn malformed_deltas_are_clean_errors() {
        let prev = b"abcdef";
        let good = encode_delta(prev, b"abcXdef");
        for cut in 0..good.len() {
            assert!(apply_delta(prev, &good[..cut]).is_err(), "cut={cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(apply_delta(prev, &trailing).is_err());
        // A delta claiming more shared bytes than the base holds.
        let mut oversized = Vec::new();
        wire::put_varint(&mut oversized, 5);
        wire::put_varint(&mut oversized, 5);
        wire::put_varint(&mut oversized, 0);
        assert!(apply_delta(prev, &oversized).is_err());
    }
}
