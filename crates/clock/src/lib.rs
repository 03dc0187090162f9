//! Timestamp substrates for sampling-based happens-before race detection.
//!
//! This crate implements the clock machinery from *"Efficient Timestamping
//! for Sampling-Based Race Detection"* (PLDI 2025):
//!
//! * [`VectorClock`] — the classical Djit+/FastTrack vector timestamp
//!   (Section 2.1 of the paper).
//! * [`Epoch`] — a `(thread, time)` scalar pair, FastTrack's compressed
//!   single-writer timestamp.
//! * [`FreshnessClock`] — the paper's `U` timestamp (Section 4.2), which
//!   counts *how many entries of a thread's C-clock have changed* and lets
//!   a detector prove that a synchronization message is redundant.
//! * [`OrderedList`] — the paper's Section 5 data structure: a vector
//!   timestamp stored as a doubly-linked move-to-front list so that the
//!   most recently updated entries can be traversed first.
//! * [`SharedClock`] — lazy ("shallow") copying of ordered lists between
//!   threads and locks, with deep-copy-on-write (Section 5, "A holistic
//!   solution — lazy copy"). A two-state `Owned`/`Shared` design makes
//!   exclusive mutation free of reference-count traffic; locks hold the
//!   pointer-sized read-only [`ClockSnapshot`], and batch joins
//!   ([`SharedClock::join_prefix`]) resolve the sharing state once per
//!   synchronization, not per entry. Only SO (Algorithm 4) shares
//!   clocks between threads and locks; the Djit+, FastTrack and SU
//!   engines hold plain [`VectorClock`]s.
//!
//! All clocks treat missing entries as `0` (the `⊥` timestamp), matching
//! the paper's convention `max ∅ = 0`, so they can grow lazily as threads
//! appear.
//!
//! The cost model these types implement — which operations are `O(1)`,
//! which are `O(d)`, and where the lazy deep copies land — is documented
//! in `ARCHITECTURE.md` § Performance model at the repository root,
//! together with the recorded before/after medians in
//! `BENCH_clock_ops.json`.
//!
//! # Example
//!
//! ```
//! use freshtrack_clock::{OrderedList, ThreadId, VectorClock};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//!
//! let mut vc = VectorClock::new();
//! vc.set(t0, 3);
//! vc.set(t1, 1);
//!
//! let mut ol = OrderedList::new();
//! ol.set(t1, 1);
//! ol.set(t0, 3); // t0 is now the most recently updated entry
//!
//! assert!(ol.leq_vector(&vc));
//! assert_eq!(ol.iter_recent().next(), Some((t0, 3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod freshness;
mod ordered_list;
mod shared;
mod thread_id;
mod tree_clock;
mod vector_clock;
pub mod wire;

pub use epoch::Epoch;
pub use freshness::FreshnessClock;
pub use ordered_list::{OrderedList, RecentEntries};
pub use shared::{ClockSnapshot, PrefixJoin, SharedClock};
pub use thread_id::ThreadId;
pub use tree_clock::TreeClock;
pub use vector_clock::VectorClock;

/// The scalar component type of every clock in this crate.
///
/// The paper's timestamps count release events (bounded by the trace
/// length), so 32 bits would usually suffice; we use 64 bits to make
/// overflow a non-concern even for very long executions.
pub type Time = u64;
