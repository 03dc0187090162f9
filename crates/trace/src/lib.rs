//! Event and execution-trace substrate for sampling-based race detection.
//!
//! This crate provides the program-execution model of Section 2 of
//! *"Efficient Timestamping for Sampling-Based Race Detection"*: an
//! execution is a sequence of [`Event`]s, each a read/write of a memory
//! location or an acquire/release of a lock, performed by some thread.
//!
//! Thread fork/join is desugared by [`TraceBuilder`] into acquire/release
//! pairs on dedicated single-use *token locks*, which is how offline
//! analysis frameworks such as RAPID encode them; the detectors in
//! `freshtrack-core` therefore only ever see the four core operations.
//!
//! Trace I/O is built around the streaming [`EventSource`] seam: the
//! text format ([`EventReader`], [`read_trace`]/[`write_trace`]) and
//! the binary `.ftb` format ([`BinaryEventReader`],
//! [`read_trace_binary`]/[`write_trace_binary`]) both stream in
//! constant memory and both satisfy `read ∘ write = identity` —
//! entity tables, id assignment and silent threads survive the round
//! trip. [`Validated`] adds an `O(L)` on-the-fly locking-discipline
//! check to any source, and [`Trace::from_source`] materializes one.
//!
//! # Example
//!
//! ```
//! use freshtrack_trace::{EventKind, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let l = b.lock("l");
//! b.acquire(0, l).write(0, x).release(0, l);
//! b.acquire(1, l).read(1, x).release(1, l);
//! let trace = b.build();
//!
//! assert_eq!(trace.len(), 6);
//! assert_eq!(trace.thread_count(), 2);
//! assert!(matches!(trace[1].kind, EventKind::Write(v) if v == x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod builder;
mod cache;
mod event;
mod io;
mod segmented;
mod source;
mod stats;
mod stream;
mod trace;

pub use binary::{
    is_binary_trace, read_trace_binary, write_source_binary, write_trace_binary, BinaryEventReader,
    BinaryTraceError, BINARY_MAGIC, BINARY_MAGIC_V2,
};
pub use builder::TraceBuilder;
pub use cache::{AnalysisCache, CacheConfig, CacheEntry, CacheError, ResumePoint, CACHE_MAGIC};
pub use event::{Event, EventId, EventKind, LockId, VarId};
pub use io::{read_trace, write_source, write_trace, ParseTraceError, WriteSourceError};
pub use segmented::{
    decode_segment, decode_segment_indexed, write_source_binary_v2, write_trace_binary_v2,
    SegmentData, SegmentMeta, SegmentOptions, SegmentedTraceFile,
};
pub use source::{EventSource, SourceError, TraceSource, Validated};
pub use stats::TraceStats;
pub use stream::EventReader;
pub use trace::{DisciplineChecker, Trace, ValidateTraceError};

pub use freshtrack_clock::ThreadId;
