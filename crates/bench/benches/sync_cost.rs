//! Per-sync-event ingestion cost vs shard count.
//!
//! Drives the shared single-threaded sync-heavy stream
//! ([`freshtrack_bench::sync_stream`] — the same mix
//! `record_baseline --sync-cost` records as `BENCH_sync_cost.json`)
//! through each ingestion façade, so the number reflects the *analysis
//! work one sync event triggers* — no contention, no scheduler noise.
//! The sharded façade does that work once, on one per-thread and one
//! per-lock state, so it is flat in the shard count.
//! `shard_scaling` measures the complementary quantity: whole-pipeline
//! throughput under real contention.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use freshtrack_bench::sync_stream::{self, Facade};
use freshtrack_core::{Detector, DjitDetector};
use freshtrack_sampling::AlwaysSampler;

/// Acquire/release pairs per measured round.
const PAIRS: u32 = 4_000;

fn detector() -> DjitDetector<AlwaysSampler> {
    // Djit+ sync handlers are the heavy O(T)-per-event case (FT shares
    // them).
    let mut d = DjitDetector::new(AlwaysSampler::new());
    d.reserve_threads(64);
    d
}

fn run_point(shards: Option<usize>) {
    let facade = Facade::new(detector(), shards);
    if let Facade::Sharded(f) = &facade {
        f.reserve_threads(64);
    }
    sync_stream::warm_up(&facade);
    sync_stream::drive_pairs(&facade, PAIRS);
    std::hint::black_box(&facade);
}

fn bench_sync_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync_cost");
    g.throughput(Throughput::Elements(2 * PAIRS as u64));
    g.bench_function("single_mutex", |b| b.iter(|| run_point(None)));
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("sharded", shards), &shards, |b, &n| {
            b.iter(|| run_point(Some(n)))
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
    targets = bench_sync_cost
}
criterion_main!(benches);
