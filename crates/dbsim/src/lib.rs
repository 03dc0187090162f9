//! A multi-threaded in-memory database: the online evaluation substrate.
//!
//! The paper evaluates its detectors inside ThreadSanitizer running under
//! MySQL driven by BenchBase — many threads, frequent locking, and
//! analysis callbacks inline with application execution. This crate
//! reproduces that *shape* in pure Rust:
//!
//! * [`Database`] — tables of rows, each row guarded by a real mutex;
//!   per-table latches; two-phase-locking transactions with canonical
//!   lock ordering (no deadlocks).
//! * [`Instrument`] — the callback surface an instrumented binary would
//!   have: one call per row access and per lock operation, invoked
//!   *while the application actually holds the corresponding lock*, so
//!   the emitted event stream always satisfies the locking discipline.
//!   Each worker thread calls it through its own [`Worker`]
//!   ([`Instrument::worker`]), which may hold the thread's analysis
//!   state by value. Two detector-backed implementations exist:
//!   [`DetectorInstrument`] (the paper-faithful single analysis mutex)
//!   and [`ShardedInstrument`] (per-variable access shards plus
//!   per-thread and per-lock sync state, no global lock; each worker
//!   gets its thread's handle — same verdicts, higher throughput).
//! * [`run_benchmark`] — a worker pool executing a
//!   [`DbWorkload`](freshtrack_workloads::DbWorkload) mix, measuring
//!   per-transaction latency, exactly the metric of the paper's Fig. 5;
//!   [`run_detector`] / [`run_sharded`] bundle the run with a safe
//!   ([`try_finish`](DetectorInstrument::try_finish)-based) shutdown.
//!
//! The database seeds the same kind of race the evaluation finds in real
//! servers: a small fraction of accesses bypass row locking (an
//! "unprotected statistics counter"), implemented with relaxed atomics so
//! the *Rust* program stays well-defined while the *event stream* exhibits
//! real data races for the detectors to find.
//!
//! # Example
//!
//! ```
//! use freshtrack_dbsim::{run_benchmark, NoInstrument, RunOptions};
//! use freshtrack_workloads::benchbase;
//! use std::sync::Arc;
//!
//! let workload = benchbase::by_name("ycsb").unwrap();
//! let opts = RunOptions { workers: 2, txns_per_worker: 50, seed: 1 };
//! let stats = run_benchmark(&workload, &opts, Arc::new(NoInstrument));
//! assert_eq!(stats.transactions, 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod instrument;
mod server;

pub use db::Database;
pub use instrument::{
    DetectorInstrument, Instrument, NoInstrument, ShardedInstrument, StillShared, Worker,
};
pub use server::{run_benchmark, run_detector, run_sharded, LatencyStats, RunOptions};
