//! Seeded synthetic workloads for race-detection experiments.
//!
//! The paper evaluates on two substrates neither of which is available to
//! a pure-Rust reproduction: MySQL driven by BenchBase (online), and the
//! RAPID corpus of Java execution traces (offline). This crate provides
//! their stand-ins:
//!
//! * [`WorkloadConfig`] + [`generate`] — a parametric, seeded trace
//!   generator covering the axes that drive the paper's results: thread
//!   count, lock count and reuse, sync/access ratio, write fraction, hot
//!   locations, and the fraction of unprotected (race-prone) accesses.
//!   [`stream`] exposes the same events as a lazy
//!   [`EventSource`](freshtrack_trace::EventSource), so corpus-scale
//!   traces can be generated, analyzed and serialized without ever
//!   materializing the event vector.
//! * [`patterns`] — structured generators (producer/consumer, pipeline,
//!   barrier phases, fork/join, and the paper's Fig. 1 lock ladder).
//! * [`corpus`] — 26 named configurations shaped after the RAPID
//!   benchmark corpus used in the paper's appendix (Figs. 7–9).
//! * [`benchbase`] — 12 named database workload mixes shaped after the
//!   BenchBase suite used in the paper's online evaluation (Figs. 5–6),
//!   consumed by `freshtrack-dbsim`.
//!
//! All generators are deterministic functions of their seed.
//!
//! # Example
//!
//! ```
//! use freshtrack_workloads::{generate, WorkloadConfig};
//!
//! let trace = generate(&WorkloadConfig::named("demo").events(5_000).threads(4).seed(7));
//! assert!(trace.validate().is_ok());
//! let again = generate(&WorkloadConfig::named("demo").events(5_000).threads(4).seed(7));
//! assert_eq!(trace.len(), again.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchbase;
pub mod corpus;
mod gen;
pub mod patterns;
mod stream;

pub use benchbase::DbWorkload;
pub use corpus::CorpusBenchmark;
pub use gen::{generate, Pattern, WorkloadConfig, MAX_SYNC_RATIO};
pub use stream::{stream, MixedSource, WorkloadSource};
