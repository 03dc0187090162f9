//! `online-sampled` and `online-full`: the dbsim `tpcc` mix with two
//! workers running transactions back to back, under the detector
//! `freshtrack dbsim` builds for `--engine so --rate 0.03` or
//! `--engine ft`. Each closed-loop iteration runs, with the same seed,
//! an uninstrumented run, a run on the default single-mutex ingestion
//! path, and a run with `--shards 2` (seqlock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use freshtrack_core::{
    Counters, FastTrackDetector, OrderedListDetector, RaceReport, SplitDetector, SyncMode,
};
use freshtrack_dbsim::{
    run_benchmark, run_detector, run_sharded, Database, DetectorInstrument, Instrument,
    LatencyStats, NoInstrument, RunOptions, ShardedInstrument,
};
use freshtrack_sampling::BernoulliSampler;
use freshtrack_workloads::{benchbase, DbWorkload};

use crate::spans::Tracer;
use crate::{
    closed_loop, median, quantile, repeated_setup, set_core_counts, Options, Outcome, Tally,
};

const MIX: &str = "tpcc";
/// Load threads: one dbsim worker per core of a 2-core host.
const WORKERS: u32 = 2;
const TXNS_PER_WORKER: u32 = 5_000;
/// Access shards of the sharded ingestion path.
const SHARDS: usize = 2;

/// Which detector the workload runs.
#[derive(Clone, Copy)]
pub enum Engine {
    /// `--engine so --rate 0.03`: the paper's deployment setting.
    Sampled,
    /// `--engine ft`: FastTrack at rate 1.0.
    Full,
}

impl Engine {
    fn named(name: &str) -> Option<Engine> {
        match name {
            "online-sampled" => Some(Engine::Sampled),
            "online-full" => Some(Engine::Full),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Engine::Sampled => "online-sampled",
            Engine::Full => "online-full",
        }
    }
}

/// Event counts of one run, by kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EventCounts {
    reads: u64,
    writes: u64,
    acquires: u64,
    releases: u64,
}

impl EventCounts {
    fn total(&self) -> u64 {
        self.reads + self.writes + self.acquires + self.releases
    }

    fn of(c: &Counters) -> EventCounts {
        EventCounts {
            reads: c.reads,
            writes: c.writes,
            acquires: c.acquires,
            releases: c.releases,
        }
    }
}

/// Counts the callbacks of a run: the seed's deterministic event count.
#[derive(Default)]
struct Counting {
    reads: AtomicU64,
    writes: AtomicU64,
    acquires: AtomicU64,
    releases: AtomicU64,
}

impl Instrument for Counting {
    fn read(&self, _tid: u32, _var: u32) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }
    fn write(&self, _tid: u32, _var: u32) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }
    fn acquire(&self, _tid: u32, _lock: u32) {
        self.acquires.fetch_add(1, Ordering::Relaxed);
    }
    fn release(&self, _tid: u32, _lock: u32) {
        self.releases.fetch_add(1, Ordering::Relaxed);
    }
}

/// The inputs every iteration replays: the mix, the run options and
/// what a correct run must produce.
struct Setup {
    workload: DbWorkload,
    options: RunOptions,
    expected: EventCounts,
}

impl Setup {
    fn transactions(&self) -> u64 {
        u64::from(self.options.workers) * u64::from(self.options.txns_per_worker)
    }
}

/// What the checks and the metrics need from one dbsim run.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RunSummary {
    /// Wall time of the run.
    seconds: f64,
    /// Summed transaction latencies.
    busy_s: f64,
    transactions: u64,
    p50_us: u64,
    p99_us: u64,
    /// `Counters.events` (0 for the uninstrumented run).
    events: u64,
    counts: EventCounts,
    /// Whether a race on the statistics counter was reported.
    stats_race: bool,
}

impl RunSummary {
    fn of(
        seconds: f64,
        stats: &LatencyStats,
        counters: &Counters,
        reports: &[RaceReport],
        stats_var: u32,
    ) -> RunSummary {
        RunSummary {
            seconds,
            busy_s: stats.total.as_secs_f64(),
            transactions: stats.transactions,
            p50_us: stats.percentile_us(50.0),
            p99_us: stats.percentile_us(99.0),
            events: counters.events,
            counts: EventCounts::of(counters),
            stats_race: reports.iter().any(|r| r.var.index() == stats_var as usize),
        }
    }

    const FIELDS: usize = 11;

    fn to_fields(self) -> [f64; RunSummary::FIELDS] {
        let c = &self.counts;
        [
            self.seconds,
            self.busy_s,
            self.transactions as f64,
            self.p50_us as f64,
            self.p99_us as f64,
            self.events as f64,
            c.reads as f64,
            c.writes as f64,
            c.acquires as f64,
            c.releases as f64,
            f64::from(u8::from(self.stats_race)),
        ]
    }

    fn from_fields(f: &[f64]) -> RunSummary {
        RunSummary {
            seconds: f[0],
            busy_s: f[1],
            transactions: f[2] as u64,
            p50_us: f[3] as u64,
            p99_us: f[4] as u64,
            events: f[5] as u64,
            counts: EventCounts {
                reads: f[6] as u64,
                writes: f[7] as u64,
                acquires: f[8] as u64,
                releases: f[9] as u64,
            },
            stats_race: f[10] != 0.0,
        }
    }
}

/// What one instrumented run must satisfy: every transaction
/// completes, the counters add up to exactly the seed's events, and
/// FastTrack reports the seeded statistics-counter race.
fn run_is_correct(setup: &Setup, engine: Engine, run: &RunSummary) -> bool {
    let races_ok = match engine {
        Engine::Sampled => true,
        Engine::Full => run.stats_race,
    };
    run.transactions == setup.transactions()
        && run.events == run.counts.total()
        && run.counts == setup.expected
        && races_ok
}

/// The mix and run options of a seed.
fn inputs(seed: u64, txns_per_worker: u32) -> Result<(DbWorkload, RunOptions), String> {
    let workload = benchbase::by_name(MIX).ok_or("no tpcc mix")?;
    let options = RunOptions {
        workers: WORKERS,
        txns_per_worker,
        seed,
    };
    Ok((workload, options))
}

/// The unprotected statistics counter's variable id.
fn stats_var(workload: &DbWorkload) -> u32 {
    Database::new(
        workload.tables,
        workload.rows_per_table,
        workload.lock_stripes,
    )
    .stats_id()
}

fn set_up(seed: u64, txns_per_worker: u32, tracer: &Tracer) -> Result<Setup, String> {
    let (workload, options) = inputs(seed, txns_per_worker)?;
    let counting = Arc::new(Counting::default());
    tracer.span("workloads.generate", || {
        run_benchmark(&workload, &options, counting.clone())
    });
    let expected = EventCounts {
        reads: counting.reads.load(Ordering::Relaxed),
        writes: counting.writes.load(Ordering::Relaxed),
        acquires: counting.acquires.load(Ordering::Relaxed),
        releases: counting.releases.load(Ordering::Relaxed),
    };
    Ok(Setup {
        workload,
        options,
        expected,
    })
}

/// `freshtrack dbsim --engine so --rate 0.03`'s detector.
fn sampled_detector(seed: u64) -> OrderedListDetector<BernoulliSampler> {
    OrderedListDetector::new(BernoulliSampler::new(0.03, seed))
}

/// `freshtrack dbsim --engine ft`'s detector.
fn full_detector(seed: u64) -> FastTrackDetector<BernoulliSampler> {
    FastTrackDetector::new(BernoulliSampler::new(1.0, seed))
}

pub fn run(options: &Options, engine: Engine, traced: bool) -> Result<Outcome, String> {
    match (engine, traced) {
        (_, false) => measure(options, engine),
        (Engine::Sampled, true) => trace(options, engine, sampled_detector),
        (Engine::Full, true) => trace(options, engine, full_detector),
    }
}

/// Wall time in seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One iteration's three runs: uninstrumented, single mutex, sharded.
fn iteration_runs<D, F>(workload: &DbWorkload, o: &RunOptions, make: F) -> [RunSummary; 3]
where
    D: SplitDetector + Send + 'static,
    F: Fn(u64) -> D,
{
    let var = stats_var(workload);
    let (nt, nt_s) = timed(|| run_benchmark(workload, o, Arc::new(NoInstrument)));
    let ((stats, det, reports), mutex_s) = timed(|| run_detector(workload, o, make(o.seed)));
    let mutex = RunSummary::of(mutex_s, &stats, det.counters(), &reports, var);
    let ((stats, reports, counters), sharded_s) =
        timed(|| run_sharded(workload, o, make(o.seed), SHARDS, SyncMode::Seqlock, 1));
    let sharded = RunSummary::of(sharded_s, &stats, &counters, &reports, var);
    let nt = RunSummary::of(nt_s, &nt, &Counters::new(), &[], var);
    [nt, mutex, sharded]
}

/// The first argument that makes this binary run one iteration.
pub const ITERATION_MODE: &str = "dbsim-iteration";

/// [`ITERATION_MODE`]: runs one iteration of `<workload> <seed>` in
/// this fresh process and prints its three run summaries and the
/// process's peak resident set size (KiB) as one line of numbers.
pub fn iteration_main(args: &[String]) -> ! {
    let parsed = match args {
        [workload, seed] => Engine::named(workload).zip(seed.parse::<u64>().ok()),
        _ => None,
    };
    let Some((engine, seed)) = parsed else {
        eprintln!("usage: perfbench {ITERATION_MODE} <online-sampled|online-full> <seed>");
        std::process::exit(2);
    };
    let (workload, options) = match inputs(seed, TXNS_PER_WORKER) {
        Ok(inputs) => inputs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let runs = match engine {
        Engine::Sampled => iteration_runs(&workload, &options, sampled_detector),
        Engine::Full => iteration_runs(&workload, &options, full_detector),
    };
    let mut fields: Vec<String> = runs
        .iter()
        .flat_map(|r| r.to_fields())
        .map(|v| v.to_string())
        .collect();
    fields.push((crate::peak_rss_mib() * 1024.0).to_string());
    println!("{}", fields.join(" "));
    std::process::exit(0)
}

/// One iteration as measured in a child process.
struct ChildIteration {
    nt: RunSummary,
    mutex: RunSummary,
    sharded: RunSummary,
    peak_rss_mib: f64,
}

/// Runs one iteration in a fresh child process, so each iteration's
/// peak memory is its own and no heap state carries over.
fn iterate(setup: &Setup, engine: Engine, tally: &mut Tally) -> Option<ChildIteration> {
    let output = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args([ITERATION_MODE, engine.name()])
            .arg(setup.options.seed.to_string())
            .stdin(std::process::Stdio::null())
            .output()
    });
    let fields: Vec<f64> = match &output {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout)
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect(),
        _ => Vec::new(),
    };
    if fields.len() != 3 * RunSummary::FIELDS + 1 {
        eprintln!("perfbench: dbsim iteration failed: {output:?}");
        for what in ["uninstrumented run", "single-mutex run", "sharded run"] {
            tally.check(false, what);
        }
        return None;
    }
    let run = |k: usize| RunSummary::from_fields(&fields[k * RunSummary::FIELDS..]);
    let runs = [run(0), run(1), run(2)];
    check_iteration(setup, engine, &runs, tally);
    let [nt, mutex, sharded] = runs;
    Some(ChildIteration {
        nt,
        mutex,
        sharded,
        peak_rss_mib: fields[3 * RunSummary::FIELDS] / 1024.0,
    })
}

/// Counts an iteration's three runs into `tally`.
fn check_iteration(setup: &Setup, engine: Engine, runs: &[RunSummary; 3], tally: &mut Tally) {
    let [nt, mutex, sharded] = runs;
    tally.check(
        nt.transactions == setup.transactions(),
        "uninstrumented run completes",
    );
    tally.check(run_is_correct(setup, engine, mutex), "single-mutex run");
    tally.check(run_is_correct(setup, engine, sharded), "sharded run");
}

/// Set-up: the counting run that fixes the expected events, then one
/// warm-up iteration.
fn warm_setup(seed: u64, engine: Engine, tracer: &Tracer) -> Result<Setup, String> {
    let setup = set_up(seed, TXNS_PER_WORKER, tracer)?;
    iterate(&setup, engine, &mut Tally::default());
    Ok(setup)
}

/// The end-to-end run (`--trace 0`).
fn measure(options: &Options, engine: Engine) -> Result<Outcome, String> {
    let spans = Tracer::new();
    let (setup, setup_s) = repeated_setup(|| warm_setup(options.seed, engine, &spans))?;
    let mut tally = Tally::default();
    let (mut mutex, mut sharded, mut overhead, mut p50, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    closed_loop(options.seconds, |i| {
        let Some(it) = iterate(&setup, engine, &mut tally) else {
            return;
        };
        eprintln!(
            "perfbench: iteration {i}: uninstrumented {:.3}s, single mutex {:.3}s, \
             {SHARDS} shards {:.3}s; p50 {} us; peak RSS {:.1} MiB",
            it.nt.seconds, it.mutex.seconds, it.sharded.seconds, it.mutex.p50_us, it.peak_rss_mib
        );
        mutex.push(it.mutex.seconds);
        sharded.push(it.sharded.seconds);
        overhead.push(it.mutex.seconds / it.nt.seconds);
        p50.push(it.mutex.p50_us as f64);
        rss.push(it.peak_rss_mib);
    });
    eprintln!(
        "perfbench: {}: {} events x {} iterations of {} transactions",
        engine.name(),
        setup.expected.total(),
        mutex.len(),
        setup.transactions()
    );
    let mev = setup.expected.total() as f64 / 1e6;
    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    out.set("mevps", mev / median(&mutex));
    out.set("parallel_mevps", mev / median(&sharded));
    out.set("overhead_x", median(&overhead));
    // Each iteration's median is a whole number of microseconds; their
    // mean keeps the resolution the single iterations lack.
    out.set(
        "latency_p50_ms",
        p50.iter().sum::<f64>() / p50.len().max(1) as f64 / 1e3,
    );
    out.set("setup_s", setup_s);
    out.set("peak_rss_mib", median(&rss));
    Ok(out)
}

/// Per-callback durations (ns) recorded by one worker.
#[derive(Default)]
struct Samples {
    access: Vec<u32>,
    acquire: Vec<u32>,
    release: Vec<u32>,
}

/// One worker's samples on a cache line of its own, so the two
/// workers never contend on the bookkeeping.
#[repr(align(128))]
#[derive(Default)]
struct Slot(Mutex<Samples>);

/// Wraps an instrument, timing every callback with one `Instant` pair.
struct Timed<I> {
    inner: I,
    slots: Vec<Slot>,
}

impl<I> Timed<I> {
    fn new(inner: I, workers: u32) -> Timed<I> {
        Timed {
            inner,
            slots: (0..workers).map(|_| Slot::default()).collect(),
        }
    }

    fn record(&self, tid: u32, start: Instant, pick: fn(&mut Samples) -> &mut Vec<u32>) {
        let ns = u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX);
        let mut samples = self.slots[tid as usize]
            .0
            .lock()
            .expect("a worker panicked while recording");
        pick(&mut samples).push(ns);
    }

    /// Every worker's samples, merged by callback kind.
    fn merged(&self) -> Samples {
        let mut all = Samples::default();
        for slot in &self.slots {
            let s = slot.0.lock().expect("a worker panicked while recording");
            all.access.extend_from_slice(&s.access);
            all.acquire.extend_from_slice(&s.acquire);
            all.release.extend_from_slice(&s.release);
        }
        all
    }
}

impl<I: Instrument> Instrument for Timed<I> {
    fn read(&self, tid: u32, var: u32) {
        let start = Instant::now();
        self.inner.read(tid, var);
        self.record(tid, start, |s| &mut s.access);
    }
    fn write(&self, tid: u32, var: u32) {
        let start = Instant::now();
        self.inner.write(tid, var);
        self.record(tid, start, |s| &mut s.access);
    }
    fn acquire(&self, tid: u32, lock: u32) {
        let start = Instant::now();
        self.inner.acquire(tid, lock);
        self.record(tid, start, |s| &mut s.acquire);
    }
    fn release(&self, tid: u32, lock: u32) {
        let start = Instant::now();
        self.inner.release(tid, lock);
        self.record(tid, start, |s| &mut s.release);
    }
}

/// The per-layer metrics a traced ingestion path reports, in the order
/// [`callback_metrics`] returns their values.
const MUTEX_METRICS: [&str; 7] = [
    "online.access_ns_p50",
    "online.access_ns_p99",
    "online.acquire_ns_p50",
    "online.acquire_ns_p99",
    "online.release_ns_p50",
    "online.release_ns_p99",
    "online.callback_share",
];
const SHARD_METRICS: [&str; 7] = [
    "shard.access_ns_p50",
    "shard.access_ns_p99",
    "shard.acquire_ns_p50",
    "shard.acquire_ns_p99",
    "shard.release_ns_p50",
    "shard.release_ns_p99",
    "shard.callback_share",
];

/// p50 and p99 (ns) of the access, acquire and release callbacks, then
/// callback time ÷ transaction time; plus the callback time in seconds.
fn callback_metrics(samples: &Samples, stats: &LatencyStats) -> ([f64; 7], f64) {
    let q = |v: &[u32]| {
        let v: Vec<f64> = v.iter().map(|&x| f64::from(x)).collect();
        [quantile(&v, 0.5), quantile(&v, 0.99)]
    };
    let [access, acquire, release] = [&samples.access, &samples.acquire, &samples.release];
    let total_ns: u64 = [access, acquire, release]
        .iter()
        .flat_map(|v| v.iter())
        .map(|&x| u64::from(x))
        .sum();
    let total_s = total_ns as f64 * 1e-9;
    let [a50, a99] = q(access);
    let [q50, q99] = q(acquire);
    let [r50, r99] = q(release);
    let share = total_s / stats.total.as_secs_f64();
    ([a50, a99, q50, q99, r50, r99, share], total_s)
}

/// Per-iteration values of the traced run.
#[derive(Default)]
struct TracedRuns {
    mutex: Vec<[f64; 7]>,
    sharded: Vec<[f64; 7]>,
    nt_txn_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    overhead_pct: Vec<f64>,
    unexplained_pct: Vec<f64>,
    counters: Counters,
}

/// The traced run (`--trace 1`): the untraced runs of an iteration,
/// then the single-mutex and sharded runs again with every callback
/// timed, shut down through `try_finish`.
fn trace<D, F>(options: &Options, engine: Engine, make: F) -> Result<Outcome, String>
where
    D: SplitDetector + Send + 'static,
    F: Fn(u64) -> D,
{
    let tracer = Tracer::new();
    let (setup, _) = repeated_setup(|| warm_setup(options.seed, engine, &tracer))?;
    let (w, o) = (&setup.workload, &setup.options);
    let txns = setup.transactions() as f64;
    let var = stats_var(w);
    let mut tally = Tally::default();
    let mut t = TracedRuns::default();
    closed_loop(options.seconds, |i| {
        tracer.set_iteration(i);
        let runs = tracer.span("dbsim.iteration", || iteration_runs(w, o, &make));
        check_iteration(&setup, engine, &runs, &mut tally);
        let [nt, mutex, _] = runs;
        t.nt_txn_per_s.push(txns / nt.seconds);
        t.p50_us.push(mutex.p50_us as f64);
        t.p99_us.push(mutex.p99_us as f64);

        let timed_mutex = Arc::new(Timed::new(DetectorInstrument::new(make(o.seed)), WORKERS));
        let (stats, traced_s) = timed(|| {
            tracer.span("online.run_traced", || {
                run_benchmark(w, o, timed_mutex.clone())
            })
        });
        let samples = timed_mutex.merged();
        match Arc::try_unwrap(timed_mutex).map(|timed| timed.inner.try_finish()) {
            Ok(Ok((det, reports))) => {
                let run = RunSummary::of(traced_s, &stats, det.counters(), &reports, var);
                tally.check(
                    run_is_correct(&setup, engine, &run),
                    "traced single-mutex run",
                );
                t.counters = *det.counters();
            }
            _ => tally.check(false, "traced single-mutex run shuts down"),
        }
        let (callbacks, callback_s) = callback_metrics(&samples, &stats);
        t.overhead_pct
            .push(100.0 * (traced_s - mutex.seconds) / mutex.seconds);
        // Transaction time that neither the uninstrumented transaction
        // nor the detector callbacks account for: waiting induced by
        // the analysis lock and the timers themselves.
        let busy = stats.total.as_secs_f64();
        t.unexplained_pct
            .push(100.0 * (busy - nt.busy_s - callback_s) / busy);
        t.mutex.push(callbacks);

        let sharded = ShardedInstrument::with_options(make(o.seed), SHARDS, SyncMode::Seqlock, 1);
        sharded.reserve_threads(WORKERS as usize);
        let timed_sharded = Arc::new(Timed::new(sharded, WORKERS));
        let stats = tracer.span("shard.run_traced", || {
            run_benchmark(w, o, timed_sharded.clone())
        });
        let samples = timed_sharded.merged();
        match Arc::try_unwrap(timed_sharded).map(|timed| timed.inner.try_finish()) {
            Ok(Ok((reports, counters))) => {
                let run = RunSummary::of(0.0, &stats, &counters, &reports, var);
                tally.check(run_is_correct(&setup, engine, &run), "traced sharded run");
            }
            _ => tally.check(false, "traced sharded run shuts down"),
        }
        t.sharded.push(callback_metrics(&samples, &stats).0);
    });
    tracer.save(engine.name(), options.seed);

    let mut out = Outcome {
        tally,
        ..Outcome::default()
    };
    let c = &t.counters;
    out.set(
        "workloads.generate_s",
        tracer.median_s("workloads.generate"),
    );
    out.set(
        "sampling.sampled_frac",
        c.sampled_accesses as f64 / c.accesses().max(1) as f64,
    );
    set_core_counts(&mut out, c);
    for (names, runs) in [(MUTEX_METRICS, &t.mutex), (SHARD_METRICS, &t.sharded)] {
        for (k, name) in names.into_iter().enumerate() {
            out.set(name, median(&runs.iter().map(|v| v[k]).collect::<Vec<_>>()));
        }
    }
    out.set("online.skip_ratio", c.skip_ratio());
    out.set("online.acquire_skip_ratio", c.acquire_skip_ratio());
    out.set("dbsim.nt_txn_per_s", median(&t.nt_txn_per_s));
    out.set("dbsim.events_per_txn", setup.expected.total() as f64 / txns);
    out.set("dbsim.txn_p50_us", median(&t.p50_us));
    out.set("dbsim.txn_p99_us", median(&t.p99_us));
    out.set("tracing.overhead_pct", median(&t.overhead_pct));
    out.set("tracing.unexplained_pct", median(&t.unexplained_pct));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_event_counts_and_missing_races_count_as_failed() {
        let setup = set_up(5, 200, &Tracer::new()).unwrap();
        let (w, o) = (&setup.workload, &setup.options);
        let runs = iteration_runs(w, o, full_detector);
        let mut tally = Tally::default();
        check_iteration(&setup, Engine::Full, &runs, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 0));

        let good = runs[1];
        let round_trip = RunSummary::from_fields(&good.to_fields());
        assert_eq!(round_trip, good);
        let mut lost = good;
        lost.counts.reads -= 1;
        lost.events -= 1;
        let mut miscounted = good;
        miscounted.events += 1;
        let no_race = RunSummary {
            stats_race: false,
            ..good
        };
        let short = RunSummary {
            transactions: good.transactions - 1,
            ..good
        };
        for bad in [lost, miscounted, no_race, short] {
            check_iteration(&setup, Engine::Full, &[runs[0], bad, good], &mut tally);
        }
        assert_eq!((tally.attempted, tally.failed), (15, 4));
        assert!(run_is_correct(&setup, Engine::Sampled, &no_race));
    }
}
