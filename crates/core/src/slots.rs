//! Per-thread state of the online façades: a grow-only slot table and
//! the access cell each thread's sampled-out accesses write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use freshtrack_trace::EventKind;

/// Aligns a slot to its own cache lines (128 bytes covers adjacent-line
/// prefetch), so two threads' slots — or two locks', or two shards' —
/// never share one.
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// Slots in chunk 0; chunk `c` holds `SLOT_CHUNK0 << c` slots.
const SLOT_CHUNK0: usize = 8;
/// Chunk count; capacity `SLOT_CHUNK0 * (2^SLOT_CHUNKS - 1)` ids.
const SLOT_CHUNKS: usize = 24;

/// A grow-only slot table indexed by a dense id: doubling chunks
/// behind `OnceLock`, so slots never move and a lookup is one atomic
/// load plus a chunk index. A chunk's slots are all built when its
/// first id is looked up.
pub(crate) struct Slots<T> {
    chunks: [OnceLock<Box<[T]>>; SLOT_CHUNKS],
}

impl<T> Slots<T> {
    pub(crate) fn new() -> Self {
        Slots {
            chunks: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Slot `index`, building its chunk with `init(id)` on first use.
    #[inline]
    pub(crate) fn get(&self, index: usize, init: impl Fn(usize) -> T) -> &T {
        let c = (index / SLOT_CHUNK0 + 1).ilog2() as usize;
        let base = SLOT_CHUNK0 * ((1usize << c) - 1);
        let chunk =
            self.chunks[c].get_or_init(|| (base..base + (SLOT_CHUNK0 << c)).map(init).collect());
        &chunk[index - base]
    }

    /// Every slot built so far, with its id.
    pub(crate) fn built(&self) -> impl Iterator<Item = (usize, &T)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((SLOT_CHUNK0 * ((1usize << c) - 1), chunk.get()?)))
            .flat_map(|(base, chunk)| chunk.iter().enumerate().map(move |(i, t)| (base + i, t)))
    }

    /// Every slot built so far.
    pub(crate) fn into_built(self) -> impl Iterator<Item = T> {
        self.chunks
            .into_iter()
            .filter_map(OnceLock::into_inner)
            .flat_map(|chunk| chunk.into_vec())
    }
}

/// The ordinal a lent cell holds: its thread's count is in a
/// `ThreadHandle` until the handle gives it back.
const LENT: u64 = u64::MAX;

/// One thread's access count (its next access ordinal) and the tallies
/// of its sampled-out accesses.
///
/// Only the thread's own events write it, one at a time (per-thread
/// program order), so every update is a relaxed load and a relaxed
/// store on the thread's own line — no read-modify-write and no line
/// shared with another thread. The façade reads the tallies only after
/// every feeder has quiesced.
#[derive(Debug, Default)]
pub(crate) struct AccessCell {
    ordinal: AtomicU64,
    skipped_reads: AtomicU64,
    skipped_writes: AtomicU64,
}

/// `counter += by` for a counter only one thread writes.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

impl AccessCell {
    /// The ordinal of the thread's next access, counted; `None` while
    /// a handle holds the count ([`lend`](AccessCell::lend)).
    #[inline]
    pub(crate) fn next_ordinal(&self) -> Option<u64> {
        let k = self.ordinal.load(Ordering::Relaxed);
        if k == LENT {
            return None;
        }
        self.ordinal.store(k + 1, Ordering::Relaxed);
        Some(k)
    }

    /// Tallies one sampled-out access of kind `kind`.
    #[inline]
    pub(crate) fn skip(&self, kind: EventKind) {
        match kind {
            EventKind::Read(_) => bump(&self.skipped_reads, 1),
            _ => bump(&self.skipped_writes, 1),
        }
    }

    /// Hands the thread's ordinal to its new handle, marking the cell
    /// lent until [`give_back`](AccessCell::give_back).
    pub(crate) fn lend(&self) -> u64 {
        self.ordinal.swap(LENT, Ordering::Relaxed)
    }

    /// Takes back a handle's ordinal and folds in its skip tallies.
    pub(crate) fn give_back(&self, ordinal: u64, skipped_reads: u64, skipped_writes: u64) {
        bump(&self.skipped_reads, skipped_reads);
        bump(&self.skipped_writes, skipped_writes);
        self.ordinal.store(ordinal, Ordering::Relaxed);
    }

    /// The `(reads, writes)` sampled-out tallies.
    pub(crate) fn skipped(&self) -> (u64, u64) {
        (
            self.skipped_reads.load(Ordering::Relaxed),
            self.skipped_writes.load(Ordering::Relaxed),
        )
    }
}
