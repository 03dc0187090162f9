//! Shared plumbing for the figure-harness binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper
//! (`fig5a_latency` … `fig9_saving_ratio`). They share environment
//! knobs so a quick smoke run and a full reproduction use the same code:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `FT_WORKERS` | dbsim worker threads (paper: 12) | 8 |
//! | `FT_TXNS` | transactions per worker | 300 |
//! | `FT_REPS` | offline repetitions (paper: 30) | 3 |
//! | `FT_SCALE` | offline trace scale (1.0 = corpus default) | 0.2 |
//! | `FT_SEED` | base seed | 42 |
//! | `FT_SHARDS` | ingestion shards (≤1 = paper-faithful single mutex) | 1 |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use freshtrack_core::SyncMode;
use freshtrack_core::{
    Counters, DjitDetector, EmptyDetector, FreshnessDetector, OrderedListDetector, RaceReport,
};
use freshtrack_dbsim::{run_benchmark, run_detector, run_sharded, NoInstrument, RunOptions};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler};
use freshtrack_workloads::DbWorkload;

/// Reads an environment knob, falling back to a default.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The dbsim run options from the environment.
pub fn run_options() -> RunOptions {
    RunOptions {
        workers: env_or("FT_WORKERS", 8),
        txns_per_worker: env_or("FT_TXNS", 300),
        seed: env_or("FT_SEED", 42),
    }
}

/// Offline repetitions from the environment.
pub fn offline_reps() -> u32 {
    env_or("FT_REPS", 3)
}

/// Offline trace scale from the environment.
pub fn offline_scale() -> f64 {
    env_or("FT_SCALE", 0.2)
}

/// The online detector configurations of Figs. 5–6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OnlineConfig {
    /// Uninstrumented.
    Nt,
    /// Instrumented, no analysis.
    Et,
    /// FastTrack, full detection.
    Ft,
    /// Naive sampling at the given rate.
    St(f64),
    /// Algorithm 3 at the given rate.
    Su(f64),
    /// Algorithm 4 at the given rate.
    So(f64),
}

impl OnlineConfig {
    /// Display label (`ST-0.3%` style).
    pub fn label(&self) -> String {
        fn pct(r: f64) -> String {
            let p = r * 100.0;
            if p >= 1.0 {
                format!("{}%", p.round() as u64)
            } else {
                format!("{p}%")
            }
        }
        match self {
            OnlineConfig::Nt => "NT".into(),
            OnlineConfig::Et => "ET".into(),
            OnlineConfig::Ft => "FT".into(),
            OnlineConfig::St(r) => format!("ST-{}", pct(*r)),
            OnlineConfig::Su(r) => format!("SU-{}", pct(*r)),
            OnlineConfig::So(r) => format!("SO-{}", pct(*r)),
        }
    }
}

/// Which ingestion path routes dbsim events into the detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestMode {
    /// The paper-faithful single analysis mutex
    /// ([`freshtrack_dbsim::DetectorInstrument`]) — every event
    /// serializes through one lock, reproducing the contention model of
    /// the paper's Fig. 5.
    SingleMutex,
    /// Sharded ingestion ([`freshtrack_dbsim::ShardedInstrument`]):
    /// accesses route to `hash(var) % N` shards and check against their
    /// own thread's clock; sync events update one per-thread and one
    /// per-lock state — per-sync cost flat in `N`. Same verdicts, no
    /// global lock.
    Sharded(usize),
}

impl IngestMode {
    /// The mode selected by `FT_SHARDS`: `0`/`1` (the default) is the
    /// single-mutex baseline; `N ≥ 2` enables sharding. Use
    /// [`IngestMode::Sharded`]`(1)` directly to measure the
    /// sharded skeleton's overhead at one shard.
    pub fn from_env() -> IngestMode {
        match env_or("FT_SHARDS", 1usize) {
            0 | 1 => IngestMode::SingleMutex,
            n => IngestMode::Sharded(n),
        }
    }

    /// A short suffix for labels: empty for the baseline, `"+shards=N"`
    /// for sharded runs.
    pub fn label_suffix(&self) -> String {
        match self {
            IngestMode::SingleMutex => String::new(),
            IngestMode::Sharded(n) => format!("+shards={n}"),
        }
    }
}

/// The outcome of one online run.
#[derive(Clone, Debug)]
pub struct OnlineRun {
    /// Configuration label.
    pub label: String,
    /// Mean transaction latency (raw — includes preemption stalls).
    pub mean_latency: Duration,
    /// Mean latency in microseconds with the slowest 1% of transactions
    /// excluded — the statistic configurations are compared by. On a
    /// time-shared host the raw mean is dominated by workers descheduled
    /// mid-critical-section (millisecond stalls against a microsecond
    /// metric), which made shard sweeps non-monotonic while p50/p95
    /// stayed flat; see `LatencyStats::trimmed_mean_us`.
    pub trimmed_mean_us: f64,
    /// Median (p50) transaction latency, microseconds.
    pub p50_us: u64,
    /// Tail (p95) transaction latency, microseconds.
    pub p95_us: u64,
    /// Deep-tail (p99) transaction latency, microseconds — where the
    /// preemption stalls the trimmed mean excludes become visible.
    pub p99_us: u64,
    /// Race reports (empty for NT/ET).
    pub reports: Vec<RaceReport>,
    /// Detector counters (zeroed for NT; merged across the planes for
    /// sharded runs).
    pub counters: Counters,
}

/// Runs one online configuration over a workload mix, on the ingestion
/// path selected by `FT_SHARDS` (see [`IngestMode::from_env`]).
///
/// To tame scheduler noise the measurement repeats `FT_RUNS` times
/// (default 2) and keeps the run with the lowest 1%-trimmed mean
/// latency, as latency benchmarks conventionally do.
pub fn run_online(workload: &DbWorkload, config: OnlineConfig, options: &RunOptions) -> OnlineRun {
    run_online_with(
        workload,
        config,
        options,
        IngestMode::from_env(),
        env_or("FT_RUNS", 2u32),
    )
}

/// [`run_online`] with an explicit ingestion mode and repeat count —
/// the single parameterized entry point every harness shares.
///
/// Repeats the measurement `runs` times (clamped to at least one),
/// bumping the seed each round, and keeps the run with the lowest
/// 1%-trimmed mean latency. Pass `runs = 1` for one un-repeated run — the building
/// block for harnesses that do their own interleaved repetition, like
/// `record_baseline --dbsim` (on a time-shared host, back-to-back
/// blocks per configuration confound the comparison with machine
/// drift; interleaving rounds and taking per-point minima does not).
pub fn run_online_with(
    workload: &DbWorkload,
    config: OnlineConfig,
    options: &RunOptions,
    mode: IngestMode,
    runs: u32,
) -> OnlineRun {
    let mut best: Option<OnlineRun> = None;
    for i in 0..runs.max(1) {
        let mut opts = *options;
        opts.seed = options.seed.wrapping_add(i as u64);
        let run = run_online_once(workload, config, &opts, mode);
        if best
            .as_ref()
            .map_or(true, |b| run.trimmed_mean_us < b.trimmed_mean_us)
        {
            best = Some(run);
        }
    }
    best.expect("at least one run")
}

fn run_online_once(
    workload: &DbWorkload,
    config: OnlineConfig,
    options: &RunOptions,
    mode: IngestMode,
) -> OnlineRun {
    let label = config.label();
    let seed = options.seed;
    match config {
        OnlineConfig::Nt => {
            let stats = run_benchmark(workload, options, std::sync::Arc::new(NoInstrument));
            OnlineRun {
                label,
                mean_latency: Duration::from_nanos((stats.mean_us() * 1_000.0) as u64),
                trimmed_mean_us: stats.trimmed_mean_us(0.01),
                p50_us: stats.percentile_us(50.0),
                p95_us: stats.percentile_us(95.0),
                p99_us: stats.percentile_us(99.0),
                reports: Vec::new(),
                counters: Counters::new(),
            }
        }
        OnlineConfig::Et => finish(label, workload, options, EmptyDetector::new(), mode),
        // The full-detection baseline uses the same vector-clock access
        // histories as the sampling engines (Djit+), mirroring the
        // weight of TSan's shadow-memory access analysis; FastTrack's
        // epoch fast paths would make full access analysis unrealistically
        // cheap relative to this substrate's sampling engines.
        OnlineConfig::Ft => finish(
            label,
            workload,
            options,
            DjitDetector::new(AlwaysSampler::new()),
            mode,
        ),
        // ST uses Djit+ access histories like SU/SO, so the three
        // sampling configurations differ *only* in their synchronization
        // handlers — the paper's "more accurate baseline" setup
        // (Section 6.2.2).
        OnlineConfig::St(r) => finish(
            label,
            workload,
            options,
            DjitDetector::new(BernoulliSampler::new(r, seed)),
            mode,
        ),
        OnlineConfig::Su(r) => finish(
            label,
            workload,
            options,
            FreshnessDetector::new(BernoulliSampler::new(r, seed)),
            mode,
        ),
        OnlineConfig::So(r) => finish(
            label,
            workload,
            options,
            OrderedListDetector::new(BernoulliSampler::new(r, seed)),
            mode,
        ),
    }
}

/// Fixed clock width, like TSan v3's 256-entry vector clocks (the paper
/// disables slot preemption, so the width is constant). Default 64 — the
/// paper's machine had 64 concurrently runnable threads.
pub fn clock_width() -> usize {
    env_or("FT_CLOCK_WIDTH", 64)
}

fn finish<D: freshtrack_core::SplitDetector + 'static>(
    label: String,
    workload: &DbWorkload,
    options: &RunOptions,
    mut detector: D,
    mode: IngestMode,
) -> OnlineRun {
    detector.reserve_threads(clock_width());
    let (stats, reports, counters) = match mode {
        IngestMode::SingleMutex => {
            let (stats, detector, reports) = run_detector(workload, options, detector);
            (stats, reports, *detector.counters())
        }
        IngestMode::Sharded(shards) => {
            run_sharded(workload, options, detector, shards, SyncMode::Seqlock, 1)
        }
    };
    OnlineRun {
        label,
        mean_latency: Duration::from_nanos((stats.mean_us() * 1_000.0) as u64),
        trimmed_mean_us: stats.trimmed_mean_us(0.01),
        p50_us: stats.percentile_us(50.0),
        p95_us: stats.percentile_us(95.0),
        p99_us: stats.percentile_us(99.0),
        reports,
        counters,
    }
}

/// Distinct racy locations in a report list (Fig. 6(a)'s metric).
pub fn racy_locations(reports: &[RaceReport]) -> usize {
    let mut vars: Vec<_> = reports.iter().map(|r| r.var).collect();
    vars.sort_unstable();
    vars.dedup();
    vars.len()
}

/// The shared sync-cost isolation driver: one single-threaded,
/// sync-heavy event mix used by **both** the `sync_cost` criterion
/// bench and `record_baseline --sync-cost`, so the interactive numbers
/// and the recorded `BENCH_sync_cost.json` always measure the same
/// workload.
pub mod sync_stream {
    use freshtrack_core::{Detector, OnlineDetector, ShardedOnlineDetector, SplitDetector};

    /// Virtual application threads issuing the stream.
    pub const THREADS: u32 = 8;
    /// Locks; fewer than threads so hand-off crosses threads and
    /// acquires do real join work.
    pub const LOCKS: u32 = 4;

    /// The ingestion surface both façades share.
    pub trait Ingest {
        /// Feeds a read of `var` by `tid`.
        fn read(&self, tid: u32, var: u32);
        /// Feeds a write of `var` by `tid`.
        fn write(&self, tid: u32, var: u32);
        /// Feeds an acquire of `lock` by `tid`.
        fn acquire(&self, tid: u32, lock: u32);
        /// Feeds a release of `lock` by `tid`.
        fn release(&self, tid: u32, lock: u32);
    }

    impl<D: Detector + Send> Ingest for OnlineDetector<D> {
        fn read(&self, tid: u32, var: u32) {
            OnlineDetector::read(self, tid, var);
        }
        fn write(&self, tid: u32, var: u32) {
            OnlineDetector::write(self, tid, var);
        }
        fn acquire(&self, tid: u32, lock: u32) {
            OnlineDetector::acquire(self, tid, lock);
        }
        fn release(&self, tid: u32, lock: u32) {
            OnlineDetector::release(self, tid, lock);
        }
    }

    impl<D: SplitDetector + 'static> Ingest for ShardedOnlineDetector<D> {
        fn read(&self, tid: u32, var: u32) {
            ShardedOnlineDetector::read(self, tid, var);
        }
        fn write(&self, tid: u32, var: u32) {
            ShardedOnlineDetector::write(self, tid, var);
        }
        fn acquire(&self, tid: u32, lock: u32) {
            ShardedOnlineDetector::acquire(self, tid, lock);
        }
        fn release(&self, tid: u32, lock: u32) {
            ShardedOnlineDetector::release(self, tid, lock);
        }
    }

    /// Either ingestion façade behind one constructor — the shape the
    /// measurement harnesses sweep over.
    // One façade per sweep point, alive for the whole point; the size
    // spread vs the mutex baseline wastes nothing worth boxing for.
    #[allow(clippy::large_enum_variant)]
    pub enum Facade<D: SplitDetector + 'static> {
        /// The single-mutex [`OnlineDetector`] baseline.
        Mutex(OnlineDetector<D>),
        /// A [`ShardedOnlineDetector`].
        Sharded(ShardedOnlineDetector<D>),
    }

    impl<D: SplitDetector + 'static> Facade<D> {
        /// Builds the façade for one sweep point: `None` is the
        /// single-mutex baseline, `Some(n)` a detector with `n` shards.
        pub fn new(detector: D, shards: Option<usize>) -> Self {
            match shards {
                None => Facade::Mutex(OnlineDetector::new(detector)),
                Some(n) => Facade::Sharded(ShardedOnlineDetector::new(detector, n)),
            }
        }
    }

    impl<D: SplitDetector + 'static> Ingest for Facade<D> {
        fn read(&self, tid: u32, var: u32) {
            match self {
                Facade::Mutex(f) => Ingest::read(f, tid, var),
                Facade::Sharded(f) => Ingest::read(f, tid, var),
            }
        }
        fn write(&self, tid: u32, var: u32) {
            match self {
                Facade::Mutex(f) => Ingest::write(f, tid, var),
                Facade::Sharded(f) => Ingest::write(f, tid, var),
            }
        }
        fn acquire(&self, tid: u32, lock: u32) {
            match self {
                Facade::Mutex(f) => Ingest::acquire(f, tid, lock),
                Facade::Sharded(f) => Ingest::acquire(f, tid, lock),
            }
        }
        fn release(&self, tid: u32, lock: u32) {
            match self {
                Facade::Mutex(f) => Ingest::release(f, tid, lock),
                Facade::Sharded(f) => Ingest::release(f, tid, lock),
            }
        }
    }

    /// Warm-up: one lock-protected write per thread, so `RelAfter_S`
    /// releases exist and clocks are non-trivial before measurement.
    pub fn warm_up<I: Ingest>(online: &I) {
        for t in 0..THREADS {
            online.acquire(t, t % LOCKS);
            online.write(t, t);
            online.release(t, t % LOCKS);
        }
    }

    /// The measured stream: `pairs` acquire/release pairs with
    /// cross-thread lock hand-off (thread `i % THREADS` takes lock
    /// `i % LOCKS`, so consecutive holders of a lock differ and
    /// acquires do real join work).
    pub fn drive_pairs<I: Ingest>(online: &I, pairs: u32) {
        for i in 0..pairs {
            online.acquire(i % THREADS, i % LOCKS);
            online.release(i % THREADS, i % LOCKS);
        }
    }
}

/// The shared access-cost isolation driver: one single-threaded,
/// access-heavy event mix used by `record_baseline --access-cost`.
pub mod access_stream {
    use super::sync_stream::Ingest;

    /// Virtual application threads issuing the stream.
    pub const THREADS: u32 = 4;
    /// Variables touched round-robin; enough to spread across shards.
    pub const VARS: u32 = 64;
    /// An acquire/release pair is interleaved every this many accesses,
    /// so `RelAfter_S` maintenance stays on the measured path. Small
    /// enough to matter, large enough (2/512 ≈ 0.4% of events) not to
    /// dominate the per-access quotient.
    pub const SYNC_EVERY: u32 = 512;

    /// Warm-up: one lock-protected read/write pair per thread, so
    /// clocks are non-trivial, shard state is allocated, and the branch
    /// predictor settles before measurement.
    pub fn warm_up<I: Ingest>(online: &I) {
        for t in 0..THREADS {
            online.acquire(t, 0);
            online.write(t, t % VARS);
            online.read(t, (t + 1) % VARS);
            online.release(t, 0);
        }
    }

    /// The measured stream: `accesses` read/write events (alternating,
    /// threads and variables round-robin) with an acquire/release pair
    /// every [`SYNC_EVERY`] accesses. Returns the number of sync events
    /// issued, so callers can separate the access quotient's
    /// denominator from the event total.
    pub fn drive_accesses<I: Ingest>(online: &I, accesses: u32) -> u32 {
        let mut syncs = 0;
        for i in 0..accesses {
            let t = i % THREADS;
            if i % 2 == 0 {
                online.write(t, i % VARS);
            } else {
                online.read(t, i % VARS);
            }
            if i % SYNC_EVERY == SYNC_EVERY - 1 {
                online.acquire(t, 0);
                online.release(t, 0);
                syncs += 2;
            }
        }
        syncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freshtrack_workloads::benchbase;

    #[test]
    fn env_or_parses_and_defaults() {
        assert_eq!(env_or("FT_NO_SUCH_VAR", 7u32), 7);
    }

    #[test]
    fn labels() {
        assert_eq!(OnlineConfig::St(0.003).label(), "ST-0.3%");
        assert_eq!(OnlineConfig::So(0.1).label(), "SO-10%");
        assert_eq!(OnlineConfig::Nt.label(), "NT");
        assert_eq!(IngestMode::SingleMutex.label_suffix(), "");
        assert_eq!(IngestMode::Sharded(4).label_suffix(), "+shards=4");
    }

    #[test]
    fn online_run_smoke() {
        let w = benchbase::by_name("sibench").unwrap();
        let opts = RunOptions {
            workers: 2,
            txns_per_worker: 30,
            seed: 1,
        };
        for cfg in [
            OnlineConfig::Nt,
            OnlineConfig::Et,
            OnlineConfig::Ft,
            OnlineConfig::So(0.03),
        ] {
            let run = run_online(&w, cfg, &opts);
            assert_eq!(run.label, cfg.label());
            assert!(run.p95_us >= run.p50_us);
        }
    }

    #[test]
    fn online_run_sharded_smoke() {
        let w = benchbase::by_name("sibench").unwrap();
        let opts = RunOptions {
            workers: 2,
            txns_per_worker: 30,
            seed: 1,
        };
        for mode in [IngestMode::Sharded(1), IngestMode::Sharded(4)] {
            let run = run_online_with(&w, OnlineConfig::Ft, &opts, mode, 1);
            assert_eq!(run.label, "FT");
            assert_eq!(run.counters.races as usize, run.reports.len());
            assert_eq!(
                run.counters.events,
                run.counters.reads
                    + run.counters.writes
                    + run.counters.acquires
                    + run.counters.releases
            );
        }
    }
}
