//! Offline analysis runner — the RAPID stand-in.
//!
//! The paper's appendix runs four engines (SU/SO at 3% and 100%) over a
//! corpus of execution traces, thirty times each with fixed seed
//! sequences, and reports fine-grained operation counts. This crate
//! provides that harness:
//!
//! * [`EngineKind`] — the one engine table: each engine's CLI name, its
//!   sampler (FT samples everything) and, through
//!   [`EngineKind::visit`], its detector.
//! * [`EngineConfig`] — a detector engine × sampling-rate configuration
//!   with the paper's naming (`SU-(3%)`, `SO-(100%)`, …).
//! * [`run_engine`] — run one engine over one trace, returning reports,
//!   counters and wall time.
//! * [`run_offline`] — the full cross-product experiment: benchmarks ×
//!   engines × repetitions, with *identical seed sequences across
//!   engines* so every engine analyzes the same traces with the same
//!   sample sets.
//! * [`report`] — fixed-width tables and ASCII bars for harness output.
//!
//! # Example
//!
//! ```
//! use freshtrack_rapid::{run_engine, EngineConfig, EngineKind};
//! use freshtrack_workloads::{generate, WorkloadConfig};
//!
//! let trace = generate(&WorkloadConfig::named("demo").events(2_000));
//! let run = run_engine(&trace, &EngineConfig::new(EngineKind::So, 0.03, 7));
//! assert_eq!(run.label, "SO-(3%)");
//! assert!(run.counters.events as usize == trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod report;
mod runner;

pub use engine::{
    run_engine, run_engine_source, EngineConfig, EngineKind, EngineRun, EngineVisitor,
};
pub use runner::{run_offline, BenchmarkSummary};
