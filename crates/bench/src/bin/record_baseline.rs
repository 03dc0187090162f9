//! Records clock-operation baselines as machine-readable JSON.
//!
//! This is the measurement half of the repo's measure→optimize→document
//! loop (see `ARCHITECTURE.md` § Performance model): it times the clock
//! operations that dominate per-synchronization cost in the detectors —
//! the Djit+/FastTrack release copy, the SO release/acquire cycle over
//! [`SharedClock`], and ordered-list joins — and emits their medians as
//! JSON so successive PRs can record before/after trajectories.
//!
//! Usage:
//!
//! ```text
//! record_baseline --label before --out BENCH_before.json
//! # ...optimize...
//! record_baseline --label after --baseline BENCH_before.json \
//!     --out BENCH_clock_ops.json
//! ```
//!
//! With `--baseline`, the previous run is embedded under `runs.<label>`
//! and per-op `improvement_pct` (positive = faster) is computed from the
//! two medians. The ops mirror `crates/bench/benches/clock_ops.rs`; this
//! binary exists because the vendored criterion shim only prints text,
//! while the trajectory file must be diffable and machine-readable.
//!
//! A second mode, `--dbsim`, measures **end-to-end dbsim ingestion**
//! instead of clock ops: the single-mutex `OnlineDetector` baseline
//! against `ShardedOnlineDetector` at 2 shards, for a heavy-analysis
//! config (FT) and a sampling config (SO-3%). Both sides run in the
//! same invocation — the same-sitting pair the trajectory files
//! require. The recorded file uses perfbench's online shape (tpcc, one
//! worker per core of a 2-core host):
//!
//! ```text
//! FT_WORKERS=2 FT_TXNS=5000 FT_ROUNDS=15 \
//!     record_baseline --dbsim --mix tpcc --out BENCH_dbsim_latency.json
//! ```
//!
//! A third mode, `--sync-cost`, isolates **per-sync-event ingestion
//! cost** (single-threaded feed, no contention) for the single-mutex
//! baseline, sharded ingestion by `on_event` at `N ∈ {1, 2, 4, 8}` and
//! sharded ingestion through thread handles at `N ∈ {1, 4}`
//! (`sharded_handle_nN`), interleaved in one invocation so all points
//! come from one sitting:
//!
//! ```text
//! record_baseline --sync-cost --out BENCH_sync_cost.json
//! ```
//!
//! A fourth mode, `--trace-io`, measures **trace codec throughput**:
//! text vs binary (`.ftb`) parse/decode/write rates (events/s) and
//! file sizes over a corpus trace, both formats in one invocation
//! (interleaved best-of-rounds — one sitting by construction):
//!
//! ```text
//! record_baseline --trace-io --out BENCH_trace_io.json
//! ```
//!
//! A fifth mode, `--segments`, measures the **segmented `.ftb` v2
//! store**: v2 vs v1 encode throughput and size overhead, the
//! footer-seek open latency, pipelined replay with parallel segment
//! decoding (`analyze_segments`, jobs ∈ {1, 2}) against the sequential
//! pass over the same bytes, and the
//! `.ftc` incremental pair — a cold cached run vs a re-analysis that
//! resumes a sidecar left by a ~95% prefix of the same corpus (the
//! append case the cache exists for) — with report parity asserted
//! every round:
//!
//! ```text
//! record_baseline --segments --out BENCH_segments.json
//! ```
//!
//! A sixth mode, `--oracle`, measures the **streaming ground-truth
//! oracle** ([`freshtrack_core::StreamingOracle`]): events/s and
//! end-of-stream state footprint across window sizes (plus a reservoir
//! point), each point replaying identical `.ftb` v2 bytes and asserted
//! every round to reproduce the dense [`freshtrack_core::HbOracle`]'s
//! racy-event set verbatim — the O(N²)-bit oracle is also timed once
//! as the reference point the windowed checker exists to displace:
//!
//! ```text
//! record_baseline --oracle --out BENCH_oracle.json
//! ```
//!
//! A seventh mode, `--access-cost`, measures **per-access ingestion
//! cost** across sampling rates — the trajectory of the lock-free skip
//! path (ARCHITECTURE.md invariant 10): `hoisted_ns`, where the pure
//! `(seed, EventId)` decision runs before any lock and a sampled-out
//! access returns after two relaxed atomic bumps. Points:
//! rates {0, 0.003, 0.03, 1} × {single_mutex, sharded N ∈ {1, 4} by
//! `on_event`, sharded N ∈ {1, 4} through thread handles}, each with
//! its fastest (`hoisted_ns`) and median (`median_ns`) round:
//!
//! ```text
//! record_baseline --access-cost --out BENCH_access_cost.json
//! FT_ROUNDS=1 record_baseline --access-cost    # CI smoke
//! ```
//!
//! Every mode reads its round count from `FT_ROUNDS`. The modes that
//! keep the best of several rounds (`--dbsim`, `--segments` and the
//! rest) interleave their points inside one process, so a best-of-rounds
//! result is evidence only within one sitting: it does not survive host
//! load, and it does not compare two builds. A comparison across builds
//! alternates `FT_ROUNDS=1` processes of both builds, as the committed
//! cost files do:
//!
//! ```text
//! for i in $(seq 21); do
//!   FT_ROUNDS=1 ./parent/record_baseline --sync-cost --out parent.$i.json
//!   FT_ROUNDS=1 ./change/record_baseline --sync-cost --out change.$i.json
//! done
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use freshtrack_bench::{
    access_stream, env_or, run_online_with, run_options, sync_stream, IngestMode, OnlineConfig,
    OnlineRun,
};
use freshtrack_clock::{
    ClockSnapshot, FreshnessClock, OrderedList, SharedClock, ThreadId, VectorClock,
};
use freshtrack_core::{
    Detector, DjitDetector, OrderedListDetector, ShardedOnlineDetector, SplitDetector,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler};
use freshtrack_trace::{
    read_trace, read_trace_binary, write_trace, write_trace_binary, BinaryEventReader, EventReader,
    EventSource,
};
use freshtrack_workloads::{benchbase, corpus};

/// Thread count for the dense-clock ops (matches the criterion benches).
const THREADS: usize = 64;
/// Fresh-entry depth for the SO acquire partial traversal.
const D: usize = 16;

fn t(i: usize) -> ThreadId {
    ThreadId::new(i as u32)
}

fn dense_clock(offset: u64) -> VectorClock {
    (0..THREADS)
        .map(|i| (t(i), (i as u64 * 7 + offset) % 100 + 1))
        .collect()
}

fn dense_list(offset: u64) -> OrderedList {
    (0..THREADS)
        .map(|i| (t(i), (i as u64 * 7 + offset) % 100 + 1))
        .collect()
}

/// One measured sample: a timed batch of `iters` identical operations.
struct Sample {
    elapsed: Duration,
    iters: u64,
}

struct OpStats {
    name: &'static str,
    median_ns: f64,
    min_ns: f64,
    mean_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

/// Times `batch` (which runs a prepared batch and reports its size),
/// returning per-iteration statistics over `samples` batches.
fn measure(name: &'static str, samples: usize, mut batch: impl FnMut() -> Sample) -> OpStats {
    // Warm-up: fill caches, trigger lazy allocation, settle the branch
    // predictor on the op's steady state.
    for _ in 0..3 {
        batch();
    }
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let s = batch();
            s.elapsed.as_nanos() as f64 / s.iters.max(1) as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
    let median_ns = per_iter[per_iter.len() / 2];
    let min_ns = per_iter[0];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let iters = batch().iters;
    eprintln!("{name:<32} median {median_ns:>9.1} ns/op  (min {min_ns:>9.1}, mean {mean_ns:>9.1})");
    OpStats {
        name,
        median_ns,
        min_ns,
        mean_ns,
        samples,
        iters_per_sample: iters,
    }
}

/// The Djit+/FastTrack release hot path: overwrite the lock clock with
/// the releasing thread's clock (`Cℓ ← C_t`). Alternates two sources so
/// every copy actually changes entries, like real releases do.
fn vc_release_copy(samples: usize) -> OpStats {
    let a = dense_clock(0);
    let b = dense_clock(3);
    let mut lock = VectorClock::new();
    measure("vc_release_copy_64", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for i in 0..K {
            if i & 1 == 0 {
                lock.assign_from(&a);
            } else {
                lock.assign_from(&b);
            }
            black_box(&lock);
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

/// Redundant-acquire join: the lock clock is already contained in the
/// thread clock, so the join scans but changes nothing — the common case
/// the freshness fast path exists to avoid entirely.
fn vc_join_redundant(samples: usize) -> OpStats {
    let lock = dense_clock(0);
    let mut thread = dense_clock(0);
    thread.join(&dense_clock(3));
    measure("vc_join_redundant_64", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for _ in 0..K {
            black_box(thread.join(&lock));
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

/// Dense ordered-list join: every entry of `other` improves `self`.
/// Inputs are re-cloned per batch (untimed) because a join saturates.
fn ordered_join_dense(samples: usize) -> OpStats {
    let base = dense_list(0);
    let mut fresh = dense_list(0);
    for i in 0..THREADS {
        fresh.set(t(i), 1_000 + i as u64);
    }
    measure("ordered_join_dense_64", samples, move || {
        const K: usize = 512;
        let mut targets: Vec<OrderedList> = (0..K).map(|_| base.clone()).collect();
        let start = Instant::now();
        for target in &mut targets {
            black_box(target.join(&fresh));
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K as u64,
        }
    })
}

/// Sparse ordered-list join: only 4 of 64 entries improve, but the donor
/// list must still be traversed in full.
fn ordered_join_sparse(samples: usize) -> OpStats {
    let base = dense_list(0);
    let mut fresh = base.clone();
    for i in 0..4 {
        fresh.set(t(i * 16), 2_000 + i as u64);
    }
    measure("ordered_join_sparse_64", samples, move || {
        const K: usize = 512;
        let mut targets: Vec<OrderedList> = (0..K).map(|_| base.clone()).collect();
        let start = Instant::now();
        for target in &mut targets {
            black_box(target.join(&fresh));
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K as u64,
        }
    })
}

/// The SO acquire partial join in isolation: the lock carries `D` fresh
/// entries at the head of its ordered list; the acquiring thread joins
/// exactly that prefix into its own (exclusively owned) clock and bumps
/// its freshness counter per learned entry — the inner loop of
/// `OrderedListDetector::handle_acquire`.
fn so_acquire_prefix(samples: usize) -> OpStats {
    let tid = t(0);
    let mut lock_template = dense_list(0);
    for i in 0..D {
        lock_template.set(t(THREADS - 1 - i), 5_000 + i as u64);
    }
    let mut lock = SharedClock::from_list(lock_template);
    let base = dense_list(0);
    let mut fresh_base = FreshnessClock::new();
    fresh_base.set(t(THREADS - 1), 1);
    measure("so_acquire_prefix_64_d16", samples, move || {
        const K: usize = 512;
        let mut threads: Vec<(SharedClock, FreshnessClock)> = (0..K)
            .map(|_| (SharedClock::from_list(base.clone()), fresh_base.clone()))
            .collect();
        let lock_list = lock.snapshot();
        let start = Instant::now();
        for (list, fresh) in &mut threads {
            // Mirrors OrderedListDetector::handle_acquire's prefix join.
            let res = list.join_prefix(lock_list.list(), D);
            fresh.bump_by(tid, res.changed as u64);
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K as u64,
        }
    })
}

/// A full SO release/acquire cycle between two threads and two locks,
/// exercising every lazy-copy state: the releaser mutates its still-
/// shared clock (one deep copy), hands the lock an `O(1)` shallow
/// reference, and the acquirer — whose own clock is still aliased by the
/// *other* lock — partially joins the fresh prefix (second deep copy).
fn so_release_acquire(samples: usize) -> OpStats {
    struct Sim {
        tid: ThreadId,
        list: SharedClock,
        fresh: FreshnessClock,
    }
    let mk = |i: usize| Sim {
        tid: t(i),
        list: SharedClock::from_list(dense_list(i as u64)),
        fresh: FreshnessClock::new(),
    };
    let mut sims = [mk(0), mk(1)];
    let mut locks: [Option<ClockSnapshot>; 2] = [None, None];
    // Pre-share: each thread's clock starts aliased by "its" lock.
    locks[0] = Some(sims[0].list.snapshot());
    locks[1] = Some(sims[1].list.snapshot());
    let mut tick: u64 = 10_000;
    measure("so_release_acquire_64_d16", samples, move || {
        const K: usize = 512;
        let start = Instant::now();
        for round in 0..K {
            let (rel, acq) = (round & 1, (round & 1) ^ 1);
            // The releaser learned D fresh entries since its last
            // release (its clock is still aliased by lockₓ, so the
            // first write pays the lazy deep copy).
            for i in 0..D {
                tick += 1;
                sims[rel].list.set(t(8 + i), tick);
            }
            sims[rel].fresh.bump_by(sims[rel].tid, D as u64);
            // Release: O(1) shallow hand-off to the releaser's lock.
            locks[rel] = Some(sims[rel].list.snapshot());
            // Acquire: the other thread joins the fresh prefix; its own
            // clock is aliased by its lock, so the (single) batch
            // copy-on-write resolution deep-copies.
            let acq_tid = sims[acq].tid;
            let donor = locks[rel].as_ref().expect("released").list();
            let res = sims[acq].list.join_prefix(donor, D);
            sims[acq].fresh.bump_by(acq_tid, res.changed as u64);
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K as u64,
        }
    })
}

/// Context: single hot `set` (arena write + move-to-front relink).
fn ordered_set_hot(samples: usize) -> OpStats {
    let mut list = dense_list(0);
    let mut v = 1_000u64;
    measure("ordered_set_hot_64", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for i in 0..K {
            v += 1;
            list.set(t((i % 61) as usize), v);
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

/// Context: the `O(1)` release-side shallow copy (the pointer-sized
/// lock-facing snapshot detectors actually store).
fn shared_shallow_copy(samples: usize) -> OpStats {
    let mut base = SharedClock::from_list(dense_list(0));
    measure("shared_shallow_copy_64", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for _ in 0..K {
            black_box(base.snapshot());
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

/// Context: deep clone of a short (8-thread) list — the case inline
/// small-vec storage exists for.
fn ordered_clone_small(samples: usize) -> OpStats {
    let list: OrderedList = (0..8).map(|i| (t(i), i as u64 + 1)).collect();
    measure("ordered_clone_8", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for _ in 0..K {
            black_box(list.clone());
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

/// Context: building a short list from scratch (allocation pressure of
/// fresh per-thread/per-lock clocks).
fn ordered_build_small(samples: usize) -> OpStats {
    measure("ordered_build_8", samples, move || {
        const K: u64 = 4096;
        let start = Instant::now();
        for _ in 0..K {
            let mut l = OrderedList::new();
            for i in 0..8 {
                l.set(t(i), i as u64 + 1);
            }
            black_box(&l);
        }
        Sample {
            elapsed: start.elapsed(),
            iters: K,
        }
    })
}

fn run_all(samples: usize) -> Vec<OpStats> {
    vec![
        vc_release_copy(samples),
        vc_join_redundant(samples),
        ordered_join_dense(samples),
        ordered_join_sparse(samples),
        so_acquire_prefix(samples),
        so_release_acquire(samples),
        ordered_set_hot(samples),
        shared_shallow_copy(samples),
        ordered_clone_small(samples),
        ordered_build_small(samples),
    ]
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run_json(label: &str, ops: &[OpStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"freshtrack/clock-ops-run/v1\",\n");
    out.push_str(&format!("  \"label\": \"{}\",\n", json_escape(label)));
    out.push_str(&format!("  \"threads\": {THREADS},\n"));
    out.push_str(&format!("  \"acquire_depth\": {D},\n"));
    out.push_str("  \"ops\": {\n");
    for (i, op) in ops.iter().enumerate() {
        let comma = if i + 1 == ops.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {:.2}, \"min_ns\": {:.2}, \"mean_ns\": {:.2}, \"samples\": {}, \"iters_per_sample\": {}}}{}\n",
            op.name, op.median_ns, op.min_ns, op.mean_ns, op.samples, op.iters_per_sample, comma
        ));
    }
    out.push_str("  }\n}");
    out
}

/// Extracts `(op, median_ns)` pairs from a previous run's JSON. Only
/// this binary's own output shape is supported — enough to compute
/// improvements without a JSON parser dependency.
fn parse_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim();
        let Some((name_part, rest)) = line.split_once("\": {\"median_ns\": ") else {
            continue;
        };
        let name = name_part.trim_start_matches('"');
        let median: f64 = rest
            .split(',')
            .next()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(f64::NAN);
        if median.is_finite() {
            out.push((name.to_string(), median));
        }
    }
    out
}

/// Extracts the `"label"` of a previous run's JSON (defaults to
/// `"before"`).
fn parse_label(json: &str) -> String {
    json.lines()
        .find_map(|l| {
            l.trim()
                .strip_prefix("\"label\": \"")
                .and_then(|rest| rest.split('"').next())
        })
        .unwrap_or("before")
        .to_string()
}

fn indent(block: &str, pad: &str) -> String {
    block
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Shard counts for the `--sync-cost` sweep.
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Shard count of the `--dbsim` comparison: one shard per core of a
/// 2-core host, as perfbench's `parallel_mevps` runs it.
const DBSIM_SHARDS: usize = 2;

fn dbsim_point_json(run: &OnlineRun) -> String {
    format!(
        "{{\"mean_us\": {:.2}, \"trimmed_mean_us\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"races\": {}}}",
        run.mean_latency.as_nanos() as f64 / 1_000.0,
        run.trimmed_mean_us,
        run.p50_us,
        run.p95_us,
        run.p99_us,
        run.reports.len()
    )
}

/// The `--dbsim` mode: single-mutex vs sharded (`DBSIM_SHARDS`) dbsim
/// latency, under FT and SO-3%.
///
/// All points (both configs, the single-mutex baseline and the sharded
/// run) are measured in **interleaved rounds** —
/// round-robin over the whole point set, `FT_ROUNDS` times — and each
/// point keeps its best round by 1%-trimmed mean (the raw mean is
/// hostage to lock-holder preemption on a time-shared host — see
/// `LatencyStats::trimmed_mean_us`). Sequential per-configuration blocks
/// would confound the comparison with machine drift on a time-shared
/// host; an interleaved minimum is the drift-robust estimator of each
/// point's unperturbed latency, and all points still come from one
/// sitting.
fn run_dbsim_scaling(mix: &str, out_path: Option<String>) {
    let workload =
        benchbase::by_name(mix).unwrap_or_else(|| panic!("unknown workload mix `{mix}`"));
    let options = run_options();
    let rounds = env_or("FT_ROUNDS", 6u32).max(1);
    let configs = [OnlineConfig::Ft, OnlineConfig::So(0.03)];
    let modes = [IngestMode::SingleMutex, IngestMode::Sharded(DBSIM_SHARDS)];

    // best[c][m] = fastest run so far for configs[c] under modes[m].
    let mut best: Vec<Vec<Option<OnlineRun>>> = vec![vec![None; modes.len()]; configs.len()];
    for round in 0..rounds {
        eprintln!("round {}/{rounds}…", round + 1);
        for (c, &config) in configs.iter().enumerate() {
            for (m, &mode) in modes.iter().enumerate() {
                let mut opts = options;
                opts.seed = options.seed.wrapping_add(round as u64);
                let run = run_online_with(&workload, config, &opts, mode, 1);
                let slot = &mut best[c][m];
                if slot
                    .as_ref()
                    .map_or(true, |b| run.trimmed_mean_us < b.trimmed_mean_us)
                {
                    *slot = Some(run);
                }
            }
        }
    }

    let mut sections = Vec::new();
    for (c, &config) in configs.iter().enumerate() {
        let label = config.label();
        let base = best[c][0].as_ref().expect("at least one round");
        let base_us = base.trimmed_mean_us;
        eprintln!("[{label}] single_mutex  trimmed mean {base_us:>9.1} us");
        let run = best[c][1].as_ref().expect("at least one round");
        let us = run.trimmed_mean_us;
        let speedup = base_us / us.max(0.001);
        eprintln!(
            "[{label}] sharded n={DBSIM_SHARDS}  trimmed mean {us:>9.1} us  ({speedup:.2}x vs mutex)"
        );
        sections.push(format!(
            "    \"{}\": {{\n      \"single_mutex\": {},\n      \"sharded\": {{\"{DBSIM_SHARDS}\": {}}}\n    }}",
            json_escape(&label),
            dbsim_point_json(base),
            dbsim_point_json(run)
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/dbsim-latency/v6\",\n  \
         \"benchmark\": \"dbsim_shard_scaling\",\n  \
         \"workload\": \"{}\",\n  \"workers\": {},\n  \"txns_per_worker\": {},\n  \
         \"seed\": {},\n  \"rounds\": {},\n  \
         \"note\": \"per-transaction latency in us; single_mutex is the paper-faithful OnlineDetector path, sharded.N the ShardedOnlineDetector with N access shards and per-thread and per-lock sync state (no global lock); every point is the best of FT_ROUNDS interleaved rounds by trimmed_mean_us (mean over the fastest 99% of transactions) — the comparison statistic, because on a time-shared host the raw mean is dominated by workers descheduled mid-critical-section; p99_us shows where that tail begins\",\n  \
         \"configs\": {{\n{}\n  }}\n}}\n",
        json_escape(mix),
        options.workers,
        options.txns_per_worker,
        options.seed,
        rounds,
        sections.join(",\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Acquire/release pairs per `--sync-cost` measurement round.
const SYNC_COST_PAIRS: u32 = 20_000;

/// Where a cost point feeds its stream.
#[derive(Clone, Copy)]
enum Path {
    /// A façade by `on_event`: `None` is the single mutex, `Some(n)` the
    /// sharded detector with `n` shards.
    OnEvent(Option<usize>),
    /// The sharded detector with `n` shards, each virtual thread through
    /// its own `ThreadHandle`.
    Handle(usize),
}

/// The handle points of `--sync-cost` and `--access-cost`.
const HANDLE_SWEEP: [(&str, usize); 2] = [("sharded_handle_n1", 1), ("sharded_handle_n4", 4)];

/// One sync-cost sweep point: builds the façade (or the handles),
/// warms up, and times the sync-heavy stream
/// ([`freshtrack_bench::sync_stream`]). Returns ns per sync event.
fn sync_cost_point<D: SplitDetector + 'static>(detector: D, path: Path) -> f64 {
    let width = freshtrack_bench::clock_width();
    let elapsed = match path {
        Path::OnEvent(shards) => {
            let facade = sync_stream::Facade::new(detector, shards);
            if let sync_stream::Facade::Sharded(f) = &facade {
                f.reserve_threads(width);
            }
            sync_stream::warm_up(&facade);
            let start = Instant::now();
            sync_stream::drive_pairs(&facade, SYNC_COST_PAIRS);
            start.elapsed()
        }
        Path::Handle(shards) => {
            let sharded = ShardedOnlineDetector::new(detector, shards);
            sharded.reserve_threads(width);
            let mut handles = sync_stream::Handles::new(&sharded, sync_stream::THREADS);
            sync_stream::warm_up(&mut handles);
            let start = Instant::now();
            sync_stream::drive_pairs(&mut handles, SYNC_COST_PAIRS);
            start.elapsed()
        }
    };
    elapsed.as_nanos() as f64 / (2 * SYNC_COST_PAIRS) as f64
}

/// The `--sync-cost` mode: isolated per-sync-event ingestion cost of
/// the single-mutex baseline vs sharded ingestion at `N ∈ {1, 2, 4, 8}`
/// by `on_event` and at `N ∈ {1, 4}` through thread handles, measured
/// in interleaved rounds in one invocation — one sitting by
/// construction. The claims this records: the sharded sync cost is
/// flat in `N`, and a handle's sync event, which takes no thread
/// mutex, is cheaper than an `on_event` one.
fn run_sync_cost(out_path: Option<String>) {
    let rounds = env_or("FT_ROUNDS", 7u32).max(1);
    let width = freshtrack_bench::clock_width();

    let points: Vec<Path> = std::iter::once(Path::OnEvent(None))
        .chain(SHARD_SWEEP.iter().map(|&n| Path::OnEvent(Some(n))))
        .chain(HANDLE_SWEEP.iter().map(|&(_, n)| Path::Handle(n)))
        .collect();

    let configs: [&str; 2] = ["FT", "SO-3%"];
    // best[config][point] = fastest ns/sync-event over the rounds.
    let mut best = vec![vec![f64::INFINITY; points.len()]; configs.len()];
    for round in 0..rounds {
        eprintln!("sync-cost round {}/{rounds}…", round + 1);
        for (c, _name) in configs.iter().enumerate() {
            for (p, &point) in points.iter().enumerate() {
                let ns = if c == 0 {
                    let mut d = DjitDetector::new(AlwaysSampler::new());
                    d.reserve_threads(width);
                    sync_cost_point(d, point)
                } else {
                    let mut d = OrderedListDetector::new(BernoulliSampler::new(0.03, 7));
                    d.reserve_threads(width);
                    sync_cost_point(d, point)
                };
                if ns < best[c][p] {
                    best[c][p] = ns;
                }
            }
        }
    }

    let mut sections = Vec::new();
    for (c, name) in configs.iter().enumerate() {
        eprintln!("[{name}] single_mutex  {:>8.1} ns/sync-event", best[c][0]);
        let sharded = SHARD_SWEEP
            .iter()
            .zip(&best[c][1..])
            .map(|(n, ns)| {
                eprintln!("[{name}] sharded n={n:<2} {ns:>8.1} ns/sync-event");
                format!("        \"{n}\": {ns:.1}")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let handles = HANDLE_SWEEP
            .iter()
            .zip(&best[c][1 + SHARD_SWEEP.len()..])
            .map(|((key, _), ns)| {
                eprintln!("[{name}] {key} {ns:>8.1} ns/sync-event");
                format!(",\n      \"{key}\": {ns:.1}")
            })
            .collect::<String>();
        sections.push(format!(
            "    \"{}\": {{\n      \"single_mutex\": {:.1},\n      \"sharded\": {{\n{}\n      }}{}\n    }}",
            json_escape(name),
            best[c][0],
            sharded,
            handles
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/sync-cost/v5\",\n  \"benchmark\": \"sync_cost\",\n  \
         \"threads\": {},\n  \"locks\": {},\n  \"clock_width\": {width},\n  \
         \"sync_events_per_round\": {},\n  \"rounds\": {rounds},\n  \
         \"note\": \"ns per sync event, single-threaded feed (isolation, no contention); a sync event draws no id ticket on any path; sharded.N is the ShardedOnlineDetector with N access shards fed by on_event, whose sync event runs the engine handler on one per-thread and one per-lock slot (flat in N); sharded_handle_nN is the same detector fed through one ThreadHandle per thread, whose sync event takes only the lock slot; every point is the fastest of FT_ROUNDS interleaved rounds, all in one sitting\",\n  \
         \"configs\": {{\n{}\n  }}\n}}\n",
        sync_stream::THREADS,
        sync_stream::LOCKS,
        2 * SYNC_COST_PAIRS,
        sections.join(",\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// The `--trace-io` mode: text vs binary codec throughput (events/s)
/// and file size over a corpus trace. Both formats are measured in
/// interleaved rounds (each point keeps its fastest round) in one
/// invocation, so the comparison comes from one sitting by
/// construction. `FT_TRACE_BENCH`/`FT_TRACE_SCALE` pick the corpus
/// trace; `FT_ROUNDS` the round count.
fn run_trace_io(out_path: Option<String>) {
    let bench_name = std::env::var("FT_TRACE_BENCH").unwrap_or_else(|_| "derby".to_owned());
    let scale = std::env::var("FT_TRACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0f64);
    let rounds = env_or("FT_ROUNDS", 7u32).max(1);
    let bench = corpus::by_name(&bench_name)
        .unwrap_or_else(|| panic!("unknown corpus benchmark `{bench_name}`"));
    let trace = bench.trace(scale, 0);
    let events = trace.len() as f64;
    let text = write_trace(&trace);
    let mut binary = Vec::new();
    write_trace_binary(&trace, &mut binary).expect("in-memory write");

    // (name, op) pairs; each op runs one full pass and returns the
    // event count it touched (drives the events/s denominator and
    // defeats dead-code elimination).
    type Op<'a> = (&'static str, Box<dyn FnMut() -> usize + 'a>);
    let mut ops: Vec<Op> = vec![
        (
            "text_parse",
            Box::new(|| read_trace(&text).expect("well-formed").len()),
        ),
        (
            "binary_decode",
            Box::new(|| read_trace_binary(&binary).expect("well-formed").len()),
        ),
        (
            "text_stream",
            Box::new(|| {
                let mut reader = EventReader::new(text.as_bytes());
                let mut n = 0usize;
                while let Some(e) = reader.next_event().expect("well-formed") {
                    black_box(e);
                    n += 1;
                }
                n
            }),
        ),
        (
            "binary_stream",
            Box::new(|| {
                let mut reader = BinaryEventReader::new(&binary[..]).expect("magic");
                let mut n = 0usize;
                while let Some(e) = reader.next_event().expect("well-formed") {
                    black_box(e);
                    n += 1;
                }
                n
            }),
        ),
        (
            "text_write",
            Box::new(|| black_box(write_trace(&trace)).len() / 12),
        ),
        (
            "binary_write",
            Box::new(|| {
                let mut out = Vec::with_capacity(binary.len());
                write_trace_binary(&trace, &mut out).expect("in-memory write");
                black_box(out).len()
            }),
        ),
    ];

    // best[i] = fastest wall time for ops[i] across interleaved rounds.
    let mut best = vec![Duration::MAX; ops.len()];
    for round in 0..rounds {
        eprintln!("trace-io round {}/{rounds}…", round + 1);
        for (i, (_, op)) in ops.iter_mut().enumerate() {
            let start = Instant::now();
            black_box(op());
            let elapsed = start.elapsed();
            if elapsed < best[i] {
                best[i] = elapsed;
            }
        }
    }

    let mut lines = Vec::new();
    for (i, (name, _)) in ops.iter().enumerate() {
        let ev_per_s = events / best[i].as_secs_f64();
        eprintln!("{name:<16} {:>8.2} Mev/s", ev_per_s / 1e6);
        let comma = if i + 1 == ops.len() { "" } else { "," };
        lines.push(format!("    \"{name}\": {:.0}{comma}", ev_per_s));
    }

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/trace-io/v1\",\n  \"benchmark\": \"trace_io\",\n  \
         \"trace\": {{\"corpus\": \"{}\", \"scale\": {scale}, \"seed\": 0, \"events\": {}, \
         \"threads\": {}, \"locks\": {}, \"vars\": {}}},\n  \
         \"sizes\": {{\"text_bytes\": {}, \"binary_bytes\": {}, \
         \"text_bytes_per_event\": {:.2}, \"binary_bytes_per_event\": {:.2}, \
         \"text_over_binary\": {:.2}}},\n  \"rounds\": {rounds},\n  \
         \"note\": \"events/s, fastest of FT_ROUNDS interleaved rounds in one sitting; \
         *_parse/_decode materialize a Trace, *_stream drain the EventSource without \
         materializing (the streaming analyze path), *_write serialize a materialized trace\",\n  \
         \"events_per_s\": {{\n{}\n  }}\n}}\n",
        json_escape(&bench_name),
        trace.len(),
        trace.thread_count(),
        trace.lock_count(),
        trace.var_count(),
        text.len(),
        binary.len(),
        text.len() as f64 / events,
        binary.len() as f64 / events,
        text.len() as f64 / binary.len() as f64,
        lines.join("\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// The `--segments` mode: cost and payoff of the segmented `.ftb` v2
/// store against flat v1 — encode throughput and size overhead, the
/// footer-seek open latency, pipelined replay with parallel segment
/// decoding ([`freshtrack_core::analyze_segments`]) at jobs ∈ {1, 2} against
/// the sequential streaming pass over the *same* v2 bytes, and the `.ftc` incremental pair: a cold
/// cached run vs a warm re-analysis resuming the sidecar a ~95%
/// prefix of the corpus left behind (the append case
/// [`freshtrack_core::analyze_segments_cached`] exists for). All
/// points interleave rounds (fastest kept) in one invocation, and the
/// replay points cross-check report parity every round — a benchmark
/// that would happily time a wrong answer is worthless.
/// `FT_TRACE_BENCH`/`FT_TRACE_SCALE`/`FT_ROUNDS` as in `--trace-io`.
fn run_segments(out_path: Option<String>) {
    use freshtrack_core::{analyze_segments, analyze_segments_cached, CACHE_STATE_VERSION};
    use freshtrack_trace::{
        write_trace_binary_v2, AnalysisCache, CacheConfig, SegmentOptions, SegmentedTraceFile,
        Validated,
    };

    let bench_name = std::env::var("FT_TRACE_BENCH").unwrap_or_else(|_| "derby".to_owned());
    let scale = std::env::var("FT_TRACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0f64);
    let rounds = env_or("FT_ROUNDS", 5u32).max(1);
    let bench = corpus::by_name(&bench_name)
        .unwrap_or_else(|| panic!("unknown corpus benchmark `{bench_name}`"));
    let trace = bench.trace(scale, 0);
    let events = trace.len() as f64;
    let sampler = BernoulliSampler::new(0.03, 7);

    let mut v1 = Vec::new();
    write_trace_binary(&trace, &mut v1).expect("in-memory write");
    let options = SegmentOptions::default();
    let mut v2 = Vec::new();
    write_trace_binary_v2(&trace, &mut v2, &options).expect("in-memory write");
    let segment_count = SegmentedTraceFile::open(std::io::Cursor::new(&v2[..]))
        .expect("fresh v2 bytes")
        .segment_count();

    let expected = OrderedListDetector::new(sampler)
        .run_source(&mut Validated::new(
            BinaryEventReader::new(&v2[..]).expect("magic"),
        ))
        .expect("well-formed trace");

    // The incremental pair's "before" file: the same corpus cut at the
    // segment boundary nearest 95% of its events, so the warm run
    // replays only a ~5% appended tail. The pair uses finer segments
    // than the corpus default — the append case the cache exists for
    // is a long-lived growing trace, where checkpoint granularity,
    // not per-segment overhead, sets the replay floor. The cut goes
    // through the text normal form — non-directive lines map 1:1 to
    // events, so a line prefix is exactly the trace as it stood before
    // the append, and re-encoding it segments the shared prefix
    // byte-identically.
    let incr_options = SegmentOptions {
        events_per_segment: 1024,
    };
    let eps = incr_options.events_per_segment;
    let keep = ((trace.len() * 95 / 100 + eps / 2) / eps * eps).min((trace.len() - 1) / eps * eps);
    assert!(keep > 0, "corpus too small for an incremental pair");
    let mut v2_incr = Vec::new();
    write_trace_binary_v2(&trace, &mut v2_incr, &incr_options).expect("in-memory write");
    let text = write_trace(&trace);
    let mut events_seen = 0usize;
    let mut cut = 0usize;
    let mut offset = 0usize;
    for line in text.split_inclusive('\n') {
        offset += line.len();
        if !line.starts_with('#') && !line.trim().is_empty() {
            events_seen += 1;
            if events_seen == keep {
                cut = offset;
                break;
            }
        }
    }
    assert_eq!(events_seen, keep, "text normal form shorter than the trace");
    let short_trace = read_trace(&text[..cut]).expect("a prefix of a valid trace is valid");
    let mut v2_short = Vec::new();
    write_trace_binary_v2(&short_trace, &mut v2_short, &incr_options).expect("in-memory write");
    let cache_config = CacheConfig {
        engine: "so".to_owned(),
        sampler: "bernoulli:0.03:7".to_owned(),
        options: format!("events_per_segment={eps}"),
        state_version: CACHE_STATE_VERSION,
        jobs: 1,
    };
    let mut short_file =
        SegmentedTraceFile::open(std::io::Cursor::new(&v2_short[..])).expect("fresh v2 bytes");
    let short_segments = short_file.segment_count();
    let incr_segments = SegmentedTraceFile::open(std::io::Cursor::new(&v2_incr[..]))
        .expect("fresh v2 bytes")
        .segment_count();
    let prior_bytes = analyze_segments_cached(
        &mut short_file,
        &OrderedListDetector::new(sampler),
        &sampler,
        1,
        &cache_config,
        None,
    )
    .expect("well-formed trace")
    .cache
    .encode();
    let appended_events = trace.len() - keep;

    type Op<'a> = (&'static str, Box<dyn FnMut() -> usize + 'a>);
    let mut ops: Vec<Op> = vec![
        (
            "v1_encode",
            Box::new(|| {
                let mut out = Vec::with_capacity(v1.len());
                write_trace_binary(&trace, &mut out).expect("in-memory write");
                black_box(out).len()
            }),
        ),
        (
            "v2_encode",
            Box::new(|| {
                let mut out = Vec::with_capacity(v2.len());
                write_trace_binary_v2(&trace, &mut out, &options).expect("in-memory write");
                black_box(out).len()
            }),
        ),
        (
            "sequential_replay",
            Box::new(|| {
                let mut d = OrderedListDetector::new(sampler);
                let reports = d
                    .run_source(&mut Validated::new(
                        BinaryEventReader::new(&v2[..]).expect("magic"),
                    ))
                    .expect("well-formed trace");
                assert_eq!(reports, expected, "sequential replay must agree");
                reports.len()
            }),
        ),
        (
            "parallel_replay_jobs1",
            Box::new(|| {
                let mut file =
                    SegmentedTraceFile::open(std::io::Cursor::new(&v2[..])).expect("fresh bytes");
                let analysis =
                    analyze_segments(&mut file, &OrderedListDetector::new(sampler), &sampler, 1)
                        .expect("well-formed trace");
                assert_eq!(analysis.reports, expected, "jobs=1 replay must agree");
                analysis.reports.len()
            }),
        ),
        (
            "parallel_replay_jobs2",
            Box::new(|| {
                let mut file =
                    SegmentedTraceFile::open(std::io::Cursor::new(&v2[..])).expect("fresh bytes");
                let analysis =
                    analyze_segments(&mut file, &OrderedListDetector::new(sampler), &sampler, 2)
                        .expect("well-formed trace");
                assert_eq!(analysis.reports, expected, "jobs=2 replay must agree");
                analysis.reports.len()
            }),
        ),
        (
            "cached_cold_jobs1",
            Box::new(|| {
                let mut file = SegmentedTraceFile::open(std::io::Cursor::new(&v2_incr[..]))
                    .expect("fresh bytes");
                let cached = analyze_segments_cached(
                    &mut file,
                    &OrderedListDetector::new(sampler),
                    &sampler,
                    1,
                    &cache_config,
                    None,
                )
                .expect("well-formed trace");
                assert_eq!(cached.analysis.reports, expected, "cached cold must agree");
                assert_eq!(cached.reused_segments, 0, "a cold run reuses nothing");
                black_box(cached.cache.encode()).len()
            }),
        ),
        (
            "cached_incremental_jobs1",
            Box::new(|| {
                // Includes what a real warm run pays: sidecar decode,
                // prefix CRC validation, tail replay, sidecar encode.
                let prior = AnalysisCache::decode(&prior_bytes).expect("own encoding");
                let mut file = SegmentedTraceFile::open(std::io::Cursor::new(&v2_incr[..]))
                    .expect("fresh bytes");
                let cached = analyze_segments_cached(
                    &mut file,
                    &OrderedListDetector::new(sampler),
                    &sampler,
                    1,
                    &cache_config,
                    Some(&prior),
                )
                .expect("well-formed trace");
                assert_eq!(cached.analysis.reports, expected, "incremental must agree");
                assert_eq!(
                    cached.reused_segments, short_segments,
                    "the append must reuse every shared segment"
                );
                black_box(cached.cache.encode()).len()
            }),
        ),
    ];

    let mut best = vec![Duration::MAX; ops.len()];
    // Footer-seek open latency, measured separately (ns per open, many
    // opens per round — an open touches only the trailer + footer).
    let mut open_ns = f64::INFINITY;
    for round in 0..rounds {
        eprintln!("segments round {}/{rounds}…", round + 1);
        for (i, (_, op)) in ops.iter_mut().enumerate() {
            let start = Instant::now();
            black_box(op());
            let elapsed = start.elapsed();
            if elapsed < best[i] {
                best[i] = elapsed;
            }
        }
        const OPENS: u32 = 2_000;
        let start = Instant::now();
        for _ in 0..OPENS {
            black_box(
                SegmentedTraceFile::open(std::io::Cursor::new(&v2[..])).expect("fresh bytes"),
            );
        }
        let ns = start.elapsed().as_nanos() as f64 / OPENS as f64;
        if ns < open_ns {
            open_ns = ns;
        }
    }

    let mut lines = Vec::new();
    for (i, (name, _)) in ops.iter().enumerate() {
        let ev_per_s = events / best[i].as_secs_f64();
        eprintln!("{name:<24} {:>8.2} Mev/s", ev_per_s / 1e6);
        let comma = if i + 1 == ops.len() { "" } else { "," };
        lines.push(format!("    \"{name}\": {ev_per_s:.0}{comma}"));
    }
    eprintln!("footer_open             {open_ns:>8.1} ns/open");

    let secs = |name: &str| {
        let i = ops.iter().position(|(n, _)| *n == name).expect("known op");
        best[i].as_secs_f64()
    };
    let incremental_vs_cold = secs("cached_cold_jobs1") / secs("cached_incremental_jobs1");
    eprintln!(
        "incremental re-analysis ({appended_events} appended events, \
         {short_segments}/{incr_segments} segments reused) is {incremental_vs_cold:.2}x cold"
    );

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/segments/v3\",\n  \"benchmark\": \"segments\",\n  \
         \"trace\": {{\"corpus\": \"{}\", \"scale\": {scale}, \"seed\": 0, \"events\": {}}},\n  \
         \"segment\": {{\"events_per_segment\": {}, \"segments\": {segment_count}}},\n  \
         \"sizes\": {{\"v1_bytes\": {}, \"v2_bytes\": {}, \"v2_overhead_pct\": {:.2}}},\n  \
         \"footer_open_ns\": {open_ns:.1},\n  \"rounds\": {rounds},\n  \
         \"incremental\": {{\"events_per_segment\": {eps}, \
         \"appended_events\": {appended_events}, \
         \"appended_pct\": {:.2}, \"reused_segments\": {short_segments}, \
         \"total_segments\": {incr_segments}, \
         \"speedup_vs_cold\": {incremental_vs_cold:.2}}},\n  \
         \"note\": \"events/s, fastest of FT_ROUNDS interleaved rounds in one sitting; \
         replay points are the SO-3% engine over identical v2 bytes and assert \
         report parity with the sequential pass every round; footer_open_ns is the \
         cost of reading the trailer + footer index without touching segment data. \
         parallel_replay_jobsN is the bounded-channel pipeline: a reader thread \
         reads segment bytes, N decoder threads decode them and make the \
         sampling decisions, and the calling thread runs the one replay loop \
         over each segment's sync events and sampled accesses in stream order, \
         so N counts decoder threads only (recorded on a 2-core host); \
         each decoder decodes ordinary event records from one 8-byte window \
         with selects instead of branches and passes every other record to \
         the record grammar, and its sampling filter takes no branch on the \
         event; \
         sequential_replay is the streaming path analyze keeps for stdin, \
         text and v1 input, while analyze of a v2 file runs \
         parallel_replay_jobsN; here it decodes an in-memory buffer through a \
         concrete reader, where the CLI streams a file through a boxed source, \
         so the end-to-end CLI comparison is perfbench's replay-archive. \
         cached_cold_jobs1 runs the same pipeline while \
         recording a .ftc sidecar (per segment its identity, names and reports, \
         plus the full engine state after the last two segments); \
         cached_incremental_jobs1 resumes the sidecar \
         a ~95% prefix of the corpus left behind and replays only the appended \
         tail (sidecar decode, prefix CRC validation, and sidecar re-encode all \
         inside the timed region), asserting full reuse and report parity every \
         round; the cached pair segments at incremental.events_per_segment -- \
         a growing trace checkpoints at finer granularity than an archival \
         corpus file, since checkpoint spacing bounds the replay tail. v2_encode is v1's record \
         encoding plus the segment markers, the footer, and one slice-by-8 CRC \
         pass over each buffered segment body; the writer stores no per-segment \
         sync checkpoint -- and v1 itself swings 51-77 Mev/s with host load, so \
         compare within one sitting, not absolute Mev/s across files\",\n  \
         \"events_per_s\": {{\n{}\n  }}\n}}\n",
        json_escape(&bench_name),
        trace.len(),
        options.events_per_segment,
        v1.len(),
        v2.len(),
        (v2.len() as f64 / v1.len() as f64 - 1.0) * 100.0,
        appended_events as f64 / events * 100.0,
        lines.join("\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Accesses driven per `--access-cost` measurement round.
const ACCESS_COST_ACCESSES: u32 = 200_000;

/// One access-cost point: builds the façade (or the handles), warms
/// up, and times the shared access-heavy stream ([`freshtrack_bench::access_stream`]).
/// Returns ns per access event — the quotient's denominator excludes
/// the interleaved sync events (0.4% of the stream), whose cost is
/// treated as part of feeding a realistic mix rather than subtracted
/// out.
fn access_cost_point<D: SplitDetector + 'static>(detector: D, path: Path) -> f64 {
    let elapsed = match path {
        Path::OnEvent(shards) => {
            let facade = sync_stream::Facade::new(detector, shards);
            if let sync_stream::Facade::Sharded(f) = &facade {
                f.reserve_threads(access_stream::THREADS as usize);
            }
            access_stream::warm_up(&facade);
            let start = Instant::now();
            access_stream::drive_accesses(&facade, ACCESS_COST_ACCESSES);
            start.elapsed()
        }
        Path::Handle(shards) => {
            let sharded = ShardedOnlineDetector::new(detector, shards);
            sharded.reserve_threads(access_stream::THREADS as usize);
            let mut handles = sync_stream::Handles::new(&sharded, access_stream::THREADS);
            access_stream::warm_up(&mut handles);
            let start = Instant::now();
            access_stream::drive_accesses(&mut handles, ACCESS_COST_ACCESSES);
            start.elapsed()
        }
    };
    elapsed.as_nanos() as f64 / f64::from(ACCESS_COST_ACCESSES)
}

/// OS threads of the `--access-cost` cross-core point.
const CROSS_CORE_THREADS: u32 = 2;
/// The cross-core point's key, and the rates it is measured at.
const CROSS_CORE_POINT: &str = "cross_core_handle_n4";
const CROSS_CORE_RATES: [&str; 2] = ["0.03", "1"];

/// The cross-core point of `--access-cost`: [`CROSS_CORE_THREADS`] OS
/// threads, each feeding its own `ThreadHandle` of one 4-shard detector
/// over variables no other thread touches, with an acquire/release pair
/// of its own lock every [`access_stream::SYNC_EVERY`] accesses (the
/// single-threaded stream's cadence). Each thread issues
/// `ACCESS_COST_ACCESSES / CROSS_CORE_THREADS` accesses after a common
/// start; returns the slower thread's ns per access, which equals the
/// single-threaded handle cost when nothing the threads share slows
/// them down.
fn cross_core_point<D: SplitDetector + 'static>(detector: D) -> f64 {
    let per_thread = ACCESS_COST_ACCESSES / CROSS_CORE_THREADS;
    let sharded = ShardedOnlineDetector::new(detector, 4);
    sharded.reserve_threads(CROSS_CORE_THREADS as usize);
    let start = std::sync::Barrier::new(CROSS_CORE_THREADS as usize);
    let slowest = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CROSS_CORE_THREADS)
            .map(|t| {
                let (sharded, start) = (&sharded, &start);
                s.spawn(move || {
                    let mut handle = sharded.thread(t);
                    let first_var = t * access_stream::VARS;
                    handle.acquire(t);
                    handle.write(first_var);
                    handle.read(first_var + 1);
                    handle.release(t);
                    start.wait();
                    let began = Instant::now();
                    for i in 0..per_thread {
                        let var = first_var + i % access_stream::VARS;
                        if i % 2 == 0 {
                            handle.write(var);
                        } else {
                            handle.read(var);
                        }
                        if i % access_stream::SYNC_EVERY == access_stream::SYNC_EVERY - 1 {
                            handle.acquire(t);
                            handle.release(t);
                        }
                    }
                    began.elapsed()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("cross-core worker panicked"))
            .max()
            .expect("at least one worker")
    });
    slowest.as_nanos() as f64 / f64::from(per_thread)
}

/// The `--access-cost` mode: per-access ingestion cost across sampling
/// rates on the lock-free skip path, every point measured in
/// interleaved rounds — one sitting by construction — and recorded as
/// its fastest and its median round. At rates 0.03 and 1 it adds the
/// cross-core point ([`cross_core_point`]).
fn run_access_cost(out_path: Option<String>) {
    let rounds = env_or("FT_ROUNDS", 5u32).max(1);

    const RATES: [(&str, f64); 4] = [("0", 0.0), ("0.003", 0.003), ("0.03", 0.03), ("1", 1.0)];
    const POINTS: [(&str, Path); 5] = [
        ("single_mutex", Path::OnEvent(None)),
        ("sharded_n1", Path::OnEvent(Some(1))),
        ("sharded_n4", Path::OnEvent(Some(4))),
        (HANDLE_SWEEP[0].0, Path::Handle(HANDLE_SWEEP[0].1)),
        (HANDLE_SWEEP[1].0, Path::Handle(HANDLE_SWEEP[1].1)),
    ];

    // samples[rate][point] = ns per access, one entry per round; the
    // last column is the cross-core point, empty at rates without it.
    let mut samples = vec![vec![Vec::new(); POINTS.len() + 1]; RATES.len()];
    for round in 0..rounds {
        eprintln!("access-cost round {}/{rounds}…", round + 1);
        for (r, &(rate_key, rate)) in RATES.iter().enumerate() {
            for (p, &(_, path)) in POINTS.iter().enumerate() {
                let sampler = BernoulliSampler::new(rate, 7);
                samples[r][p].push(access_cost_point(DjitDetector::new(sampler), path));
            }
            if CROSS_CORE_RATES.contains(&rate_key) {
                let sampler = BernoulliSampler::new(rate, 7);
                samples[r][POINTS.len()].push(cross_core_point(DjitDetector::new(sampler)));
            }
        }
    }

    let mut sections = Vec::new();
    for (r, &(rate_key, rate)) in RATES.iter().enumerate() {
        let names = POINTS.iter().map(|&(name, _)| name);
        let measured: Vec<_> = names
            .chain([CROSS_CORE_POINT])
            .zip(&mut samples[r])
            .filter(|(_, ns)| !ns.is_empty())
            .collect();
        let mut lines = Vec::new();
        let last = measured.len() - 1;
        for (p, (name, ns)) in measured.into_iter().enumerate() {
            ns.sort_by(f64::total_cmp);
            let hoisted_ns = ns[0];
            let median_ns = ns[ns.len() / 2];
            eprintln!(
                "rate {rate:<6} {name:<20} hoisted {hoisted_ns:>7.1} ns  median {median_ns:>7.1} ns"
            );
            let comma = if p == last { "" } else { "," };
            lines.push(format!(
                "      \"{name}\": {{\"hoisted_ns\": {hoisted_ns:.1}, \"median_ns\": {median_ns:.1}}}{comma}"
            ));
        }
        let comma = if r + 1 == RATES.len() { "" } else { "," };
        sections.push(format!(
            "    \"{rate_key}\": {{\n{}\n    }}{comma}",
            lines.join("\n")
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/access-cost/v5\",\n  \"benchmark\": \"access_cost\",\n  \
         \"engine\": \"Djit+(bernoulli)\",\n  \"threads\": {},\n  \"vars\": {},\n  \
         \"accesses_per_round\": {ACCESS_COST_ACCESSES},\n  \"sync_every\": {},\n  \"rounds\": {rounds},\n  \
         \"note\": \"ns per access event, single-threaded feed, on the lock-free skip path \
         (pure per-thread decision before any lock; a sampled-out access writes only its own \
         thread's access cell, a relaxed load and store per count, or plain fields of its \
         ThreadHandle, and draws no id; only a sampled access does an atomic read-modify-write, \
         the id ticket — ARCHITECTURE.md invariant 10); sharded_nN feeds \
         the ShardedOnlineDetector by on_event, sharded_handle_nN through one ThreadHandle per \
         thread; cross_core_handle_n4 (rates 0.03 and 1 only) runs two OS threads at once, \
         each feeding its own ThreadHandle of one 4-shard detector over disjoint variables and \
         its own lock, and reports the slower thread's ns per access; rates are Bernoulli \
         sampling probabilities, so \
         rate 0 is the pure skip path and rate 1 the pure analysis path; hoisted_ns is each \
         point's fastest round and median_ns its median round, all rounds interleaved in one \
         sitting\",\n  \
         \"rates\": {{\n{}\n  }}\n}}\n",
        access_stream::THREADS,
        access_stream::VARS,
        access_stream::SYNC_EVERY,
        sections.join("\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// The `--oracle` mode: streaming ground-truth verification cost. One
/// dense [`HbOracle`](freshtrack_core::HbOracle) pass over the corpus
/// trace pins the expected racy-event set (and times the O(N²)-bit
/// reference); then every
/// [`StreamingOracle`](freshtrack_core::StreamingOracle) point —
/// window sizes 16/256/4096, unbounded,
/// and a tiny-window + reservoir combination — replays identical
/// `.ftb` v2 bytes in interleaved rounds (fastest kept, one sitting by
/// construction) and must reproduce that set verbatim every round: the
/// windowed racy-event exactness guarantee, measured rather than
/// assumed. `FT_TRACE_BENCH`/`FT_TRACE_SCALE`/`FT_ROUNDS` as in
/// `--trace-io`.
fn run_oracle(out_path: Option<String>) {
    use freshtrack_core::{HbOracle, OracleConfig, OracleStats, StreamingOracle};
    use freshtrack_trace::{write_trace_binary_v2, SegmentOptions};

    let bench_name = std::env::var("FT_TRACE_BENCH").unwrap_or_else(|_| "derby".to_owned());
    let scale = std::env::var("FT_TRACE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0f64);
    let rounds = env_or("FT_ROUNDS", 5u32).max(1);
    let bench = corpus::by_name(&bench_name)
        .unwrap_or_else(|| panic!("unknown corpus benchmark `{bench_name}`"));
    let trace = bench.trace(scale, 0);
    let events = trace.len() as f64;

    let mut v2 = Vec::new();
    write_trace_binary_v2(&trace, &mut v2, &SegmentOptions::default()).expect("in-memory write");

    // Ground truth, once: the racy-event set every streaming point must
    // reproduce, and the O(N²) reference cost. Dropped immediately —
    // its ancestor bitsets are the memory wall this mode quantifies.
    let hb_start = Instant::now();
    let hb = HbOracle::new(&trace);
    let mask = HbOracle::sample_mask(&trace, AlwaysSampler::new());
    let expected = hb.racy_events(&mask);
    let hb_elapsed = hb_start.elapsed();
    drop(hb);
    let hb_ev_per_s = events / hb_elapsed.as_secs_f64();
    // Dense ancestor sets: one N-bit set per event.
    let hb_anc_bytes = (trace.len() as u64 * trace.len() as u64) / 8;
    eprintln!(
        "hb_exact                 {:>8.2} Mev/s  (anc ~{} MiB, {} racy events)",
        hb_ev_per_s / 1e6,
        hb_anc_bytes >> 20,
        expected.len()
    );

    type Point = (&'static str, usize, usize);
    let points: [Point; 5] = [
        ("window_16", 16, 0),
        ("window_256", 256, 0),
        ("window_4096", 4096, 0),
        ("unbounded", usize::MAX, 0),
        ("window_64_reservoir_256", 64, 256),
    ];

    let mut best = vec![Duration::MAX; points.len()];
    let mut stats: Vec<Option<OracleStats>> = vec![None; points.len()];
    for round in 0..rounds {
        eprintln!("oracle round {}/{rounds}…", round + 1);
        for (i, &(name, window, reservoir)) in points.iter().enumerate() {
            let config = OracleConfig {
                window,
                reservoir,
                seed: 7,
            };
            let oracle = StreamingOracle::new(AlwaysSampler::new(), config);
            let mut reader = BinaryEventReader::new(&v2[..]).expect("magic");
            let start = Instant::now();
            let outcome = oracle
                .run_source(&mut reader)
                .expect("well-formed v2 stream");
            let elapsed = start.elapsed();
            assert_eq!(
                outcome.racy_ids(),
                expected,
                "{name}: streamed racy events must match the exact oracle"
            );
            if elapsed < best[i] {
                best[i] = elapsed;
            }
            stats[i] = Some(outcome.stats);
        }
    }

    let mut lines = Vec::new();
    for (i, &(name, _, _)) in points.iter().enumerate() {
        let s = stats[i].as_ref().expect("at least one round");
        let ev_per_s = events / best[i].as_secs_f64();
        eprintln!(
            "{name:<24} {:>8.2} Mev/s  (state {} KiB, peak window {})",
            ev_per_s / 1e6,
            s.state_bytes >> 10,
            s.peak_window_len
        );
        let comma = if i + 1 == points.len() { "" } else { "," };
        lines.push(format!(
            "    \"{name}\": {{\"events_per_s\": {ev_per_s:.0}, \"state_bytes\": {}, \
             \"peak_window_len\": {}, \"evictions\": {}, \"window_checks\": {}, \
             \"summarized_races\": {}, \"reservoir_checks\": {}}}{comma}",
            s.state_bytes,
            s.peak_window_len,
            s.evictions,
            s.window_checks,
            s.summarized_races,
            s.reservoir_checks
        ));
    }

    let json = format!(
        "{{\n  \"schema\": \"freshtrack/oracle/v1\",\n  \"benchmark\": \"stream_oracle\",\n  \
         \"trace\": {{\"corpus\": \"{}\", \"scale\": {scale}, \"seed\": 0, \"events\": {}, \
         \"threads\": {}, \"locks\": {}, \"vars\": {}}},\n  \
         \"sampler\": \"always\",\n  \"racy_events\": {},\n  \"rounds\": {rounds},\n  \
         \"hb_reference\": {{\"events_per_s\": {hb_ev_per_s:.0}, \"anc_bytes\": {hb_anc_bytes}}},\n  \
         \"note\": \"events/s, fastest of FT_ROUNDS interleaved rounds in one sitting; every \
         point streams identical .ftb v2 bytes through StreamingOracle and must reproduce the \
         dense HbOracle's racy-event set verbatim (asserted every round); state_bytes is the \
         end-of-stream retained footprint, hb_reference the single-pass O(N^2)-bit oracle \
         this mode exists to displace\",\n  \
         \"points\": {{\n{}\n  }}\n}}\n",
        json_escape(&bench_name),
        trace.len(),
        trace.thread_count(),
        trace.lock_count(),
        trace.var_count(),
        expected.len(),
        lines.join("\n")
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

fn main() {
    let mut label = String::from("run");
    let mut out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut samples = 40usize;
    let mut dbsim = false;
    let mut sync_cost = false;
    let mut trace_io = false;
    let mut segments = false;
    let mut oracle = false;
    let mut access_cost = false;
    let mut mix = String::from("ycsb");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out_path = Some(args.next().expect("--out needs a value")),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a value")),
            "--dbsim" => dbsim = true,
            "--sync-cost" => sync_cost = true,
            "--trace-io" => trace_io = true,
            "--segments" => segments = true,
            "--oracle" => oracle = true,
            "--access-cost" => access_cost = true,
            "--mix" => mix = args.next().expect("--mix needs a value"),
            "--samples" => {
                samples = args
                    .next()
                    .expect("--samples needs a value")
                    .parse()
                    .expect("--samples must be an integer")
            }
            "--help" | "-h" => {
                eprintln!(
                    "record_baseline [--label NAME] [--out FILE] [--baseline FILE] [--samples N]\n\
                     record_baseline --dbsim [--mix NAME] [--out FILE]   (env: FT_WORKERS/FT_TXNS/FT_ROUNDS/FT_SEED)\n\
                     record_baseline --sync-cost [--out FILE]            (env: FT_ROUNDS/FT_CLOCK_WIDTH)\n\
                     record_baseline --trace-io [--out FILE]             (env: FT_ROUNDS/FT_TRACE_BENCH/FT_TRACE_SCALE)\n\
                     record_baseline --segments [--out FILE]             (env: FT_ROUNDS/FT_TRACE_BENCH/FT_TRACE_SCALE)\n\
                     record_baseline --oracle [--out FILE]               (env: FT_ROUNDS/FT_TRACE_BENCH/FT_TRACE_SCALE)\n\
                     record_baseline --access-cost [--out FILE]          (env: FT_ROUNDS)\n\
                     \n\
                     A best-of-FT_ROUNDS result is evidence only within one sitting; to\n\
                     compare two builds, alternate FT_ROUNDS=1 processes of both."
                );
                return;
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    if access_cost {
        run_access_cost(out_path);
        return;
    }
    if oracle {
        run_oracle(out_path);
        return;
    }
    if segments {
        run_segments(out_path);
        return;
    }
    if trace_io {
        run_trace_io(out_path);
        return;
    }
    if sync_cost {
        run_sync_cost(out_path);
        return;
    }
    if dbsim {
        run_dbsim_scaling(&mix, out_path);
        return;
    }

    let ops = run_all(samples);
    let this_run = run_json(&label, &ops);

    let json = match &baseline_path {
        None => format!("{this_run}\n"),
        Some(path) => {
            let baseline = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
            let base_label = parse_label(&baseline);
            let base_medians = parse_medians(&baseline);
            let mut improvements = Vec::new();
            for op in &ops {
                if let Some((_, before)) = base_medians.iter().find(|(n, _)| n == op.name) {
                    let pct = (before - op.median_ns) / before * 100.0;
                    improvements.push((op.name, pct));
                    eprintln!(
                        "{:<32} {:>9.1} → {:>9.1} ns/op  ({:+.1}%)",
                        op.name, before, op.median_ns, -pct
                    );
                }
            }
            let mut out = String::new();
            out.push_str("{\n");
            out.push_str("  \"schema\": \"freshtrack/clock-ops-trajectory/v1\",\n");
            out.push_str("  \"benchmark\": \"clock_ops\",\n");
            out.push_str(&format!(
                "  \"note\": \"medians in ns/op; improvement_pct is ({}−{})/{} — positive means faster. Record both labels in one sitting: a cross-sitting pair previously showed phantom regressions (vc_join_redundant_64 −9.3%, shared_shallow_copy_64 −4.2%); a same-sitting re-record with the identical binary on both sides puts vc_join_redundant at +1.8% and shared_shallow_copy at −6.5%, i.e. inside this host's same-code noise floor (~±6%). Both ops are at their scalar floor — a predicted-not-taken scan and two uncontended Arc RMWs; a branchless join variant measured ~2x slower (see VectorClock::join).\",\n",
                json_escape(&base_label), json_escape(&label), json_escape(&base_label)
            ));
            out.push_str("  \"improvement_pct\": {\n");
            for (i, (name, pct)) in improvements.iter().enumerate() {
                let comma = if i + 1 == improvements.len() { "" } else { "," };
                out.push_str(&format!("    \"{name}\": {pct:.1}{comma}\n"));
            }
            out.push_str("  },\n");
            out.push_str("  \"runs\": {\n");
            out.push_str(&format!(
                "    \"{}\": {},\n",
                json_escape(&base_label),
                indent(baseline.trim(), "    ")
            ));
            out.push_str(&format!(
                "    \"{}\": {}\n",
                json_escape(&label),
                indent(&this_run, "    ")
            ));
            out.push_str("  }\n}\n");
            out
        }
    };

    match out_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}
