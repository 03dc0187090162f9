//! Multi-threaded ingestion throughput: the single-mutex
//! [`OnlineDetector`] against [`ShardedOnlineDetector`] at shard counts
//! {1, 2, 4, 8}. The per-sync-event cost in isolation is the
//! `sync_cost` bench's job; this one measures the whole contended
//! pipeline.
//!
//! Four producer threads hammer the façade with a dbsim-shaped event
//! mix (accesses dominating, one short critical section every 8
//! events, each thread using a private lock so the emitted stream
//! trivially obeys the locking discipline). The measured quantity is wall-clock per
//! round of `4 × EVENTS` events — ingestion throughput under real
//! contention, the thing the analysis-mutex split exists to improve.
//! `record_baseline --dbsim` measures the same effect end to end
//! through dbsim transactions.
//!
//! [`OnlineDetector`]: freshtrack_core::OnlineDetector
//! [`ShardedOnlineDetector`]: freshtrack_core::ShardedOnlineDetector

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use freshtrack_bench::sync_stream::Ingest;
use freshtrack_core::{Detector, DjitDetector, OnlineDetector, ShardedOnlineDetector};
use freshtrack_sampling::AlwaysSampler;

/// Producer threads.
const THREADS: u32 = 4;
/// Events per producer per round.
const EVENTS: u32 = 2_000;
/// Shared-variable space (hot: dense ids, like dbsim row ids).
const VARS: u32 = 512;

/// One producer's event script: mostly accesses, with a private-lock
/// critical section every 8 events (≈ dbsim's access:sync ratio).
/// The façade surface is the shared [`Ingest`] trait
/// (`freshtrack_bench::sync_stream`), so the producer script cannot
/// diverge between the baseline and sharded arms of the comparison.
fn produce<I: Ingest>(online: &I, t: u32) {
    for i in 0..EVENTS {
        match i % 8 {
            0 => online.acquire(t, t),
            7 => online.release(t, t),
            _ => {
                let var = (i.wrapping_mul(7).wrapping_add(t * 131)) % VARS;
                online.write(t, var);
            }
        }
    }
}

/// Runs the full multi-threaded round against either façade.
fn drive<I: Ingest + Sync>(online: &I) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || produce(online, t));
        }
    });
}

fn detector() -> DjitDetector<AlwaysSampler> {
    let mut d = DjitDetector::new(AlwaysSampler::new());
    d.reserve_threads(THREADS as usize);
    d
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("shard_ingest");
    g.throughput(Throughput::Elements((THREADS * EVENTS) as u64));
    g.bench_function("single_mutex", |b| {
        b.iter(|| {
            let online = OnlineDetector::new(detector());
            drive(&online);
            std::hint::black_box(online.finish());
        })
    });
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, &n| {
            b.iter(|| {
                let online = ShardedOnlineDetector::new(detector(), n);
                drive(&online);
                std::hint::black_box(online.finish());
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_shard_scaling
}
criterion_main!(benches);
