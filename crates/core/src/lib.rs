//! Sampling-aware happens-before race detectors.
//!
//! This crate implements the algorithms of *"Efficient Timestamping for
//! Sampling-Based Race Detection"* (PLDI 2025), plus the two classical
//! baselines they are measured against:
//!
//! | Engine | Paper | Type |
//! |---|---|---|
//! | [`DjitDetector`] | Algorithm 1 (Djit+) | baseline; with a sampler = the naive **ST** configuration |
//! | [`FastTrackDetector`] | FastTrack | epoch-optimized baseline (**FT**) |
//! | [`NaiveSamplingDetector`] | Algorithm 2 | sampling timestamps `C_sam` |
//! | [`FreshnessDetector`] | Algorithm 3 (**SU**) | + freshness timestamps `U` |
//! | [`OrderedListDetector`] | Algorithm 4 (**SO**) | + ordered lists & lazy copies |
//!
//! All engines implement [`Detector`] and are generic over a
//! [`Sampler`](freshtrack_sampling::Sampler) that decides the sample set
//! `S` online. Given the same sample set, the four sampling engines
//! produce **identical** race reports (Lemmas 4, 7 and 8 of the paper) —
//! a property the test suite checks exhaustively; they differ only in how
//! much timestamping work they perform, which is recorded in
//! [`Counters`].
//!
//! Every engine but the Algorithm 2 reference is the one generic
//! [`Composed`] detector over its two planes — a [`SyncEngine`] owning
//! the thread/lock clocks and an [`AccessEngine`] owning per-variable
//! histories (the [`SplitDetector`] seam) — so the same halves serve
//! the monolithic detectors and sharded ingestion without semantic
//! drift.
//!
//! For concurrent ingestion two thread-safe façades wrap a detector:
//! [`OnlineDetector`] (one serialization mutex — the paper-faithful
//! contention model of Fig. 5) and [`ShardedOnlineDetector`]
//! (per-variable access shards plus per-thread and per-lock sync
//! state, with no global lock — same verdicts, parallel analysis).
//!
//! # Example
//!
//! ```
//! use freshtrack_core::{Detector, FreshnessDetector, OrderedListDetector};
//! use freshtrack_sampling::BernoulliSampler;
//! use freshtrack_trace::TraceBuilder;
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! b.write(0, x);
//! b.write(1, x); // unsynchronized conflicting write
//! let trace = b.build();
//!
//! let sampler = BernoulliSampler::new(1.0, 42);
//! let mut su = FreshnessDetector::new(sampler);
//! let mut so = OrderedListDetector::new(sampler);
//! assert_eq!(su.run(&trace), so.run(&trace));
//! assert_eq!(su.counters().races, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access_history;
mod checkpoint;
mod composed;
mod counters;
mod detector;
mod djit;
mod fasttrack;
mod freshness;
mod hb_oracle;
mod naive_sampling;
mod online;
mod ordered;
mod parallel;
mod plane;
mod report;
mod shard;
mod slots;
mod stream_oracle;
mod sync_ops;

pub use access_history::AccessHistories;
pub use checkpoint::{CheckpointError, CheckpointState};
pub use composed::{Composed, EngineName};
pub use counters::Counters;
pub use detector::{Detector, HoistedDecider};
pub use djit::{DjitDetector, VectorSyncEngine};
pub use fasttrack::{EpochAccessEngine, FastTrackDetector};
pub use freshness::{FreshnessDetector, FreshnessSyncEngine};
pub use hb_oracle::HbOracle;
pub use naive_sampling::NaiveSamplingDetector;
pub use online::{EmptyAccessEngine, EmptyDetector, EmptySyncEngine, OnlineDetector};
pub use ordered::{OrderedListDetector, OrderedSyncEngine};
pub use parallel::{
    analyze_segments, analyze_segments_cached, CachedAnalysis, SegmentedAnalysis,
    CACHE_STATE_VERSION,
};
pub use plane::{
    AccessEngine, AccessOutcome, ClockView, HistoryAccessEngine, SplitDetector, SyncCtx, SyncEngine,
};
pub use report::{AccessKind, RaceReport};
pub use shard::{ShardedOnlineDetector, SyncMode, ThreadHandle};
pub use stream_oracle::{OracleConfig, OracleOutcome, OracleStats, StreamingOracle};
pub use sync_ops::{SyncClock, SyncOps};
