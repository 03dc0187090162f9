//! Hoisted-vs-inline differential suite for the lock-free skip path
//! (invariant 10 in `ARCHITECTURE.md`).
//!
//! The online façades evaluate the sampler *before* any lock — via
//! [`Detector::hoisted_decider`] — and sampled-out accesses never
//! reach an engine; a sequential [`Detector::run`] decides inline, in
//! the middle of `process`. Both must be indistinguishable: identical
//! (EventId-sorted) race reports and **full** [`Counters`] equality —
//! every field, including the work counters — because the hoisted
//! decision changes *where* the pure `(seed, EventId)` verdict is
//! computed, never *what* the detector does with it.
//!
//! Coverage: all five engines × sampler families {always, never,
//! Bernoulli, periodic, targeted} × shard counts {1, 2, 4, 7}, over
//! fuzzed (proptest) and structured traces.
//!
//! Two regressions ride along:
//! * a fully sampled-out stream must acquire **zero** shard locks
//!   (pinned through the debug-only acquisition counter), and
//! * concurrent lock-free ticket draws must neither lose nor duplicate
//!   events (the multi-threaded stress below; `contention.rs` adds
//!   application locks and checks verdicts).

use std::sync::Arc;

use freshtrack_core::{
    Detector, DjitDetector, FastTrackDetector, FreshnessDetector, NaiveSamplingDetector,
    OrderedListDetector, ShardedOnlineDetector,
};
use freshtrack_sampling::{
    AlwaysSampler, BernoulliSampler, NeverSampler, PeriodicSampler, Sampler, TargetedSampler,
};
use freshtrack_testutil::{
    assert_shard_equivalence, run_online_trace, trace_from_fuel, workload_matrix,
};
use freshtrack_trace::{Trace, VarId};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Online-only variant for engines that are not [`SplitDetector`]s
/// (the naive baseline cannot shard, but its hoisted skip path must
/// still match its inline one exactly).
fn assert_online_matches_inline<D: Detector + Clone>(label: &str, trace: &Trace, detector: D) {
    let mut inline = detector.clone();
    let expected_reports = inline.run(trace);
    let expected = *inline.counters();
    let (reports, counters) = run_online_trace(trace, detector);
    assert_eq!(reports, expected_reports, "[{label}] online reports");
    assert_eq!(counters, expected, "[{label}] online counters");
}

/// One `(trace, sampler)` cell across all five engines.
fn check_all_engines<S: Sampler + Clone + Send>(label: &str, trace: &Trace, s: S) {
    assert_shard_equivalence(
        &format!("{label}/djit"),
        trace,
        DjitDetector::new(s.clone()),
        &SHARD_COUNTS,
    );
    assert_shard_equivalence(
        &format!("{label}/fasttrack"),
        trace,
        FastTrackDetector::new(s.clone()),
        &SHARD_COUNTS,
    );
    assert_online_matches_inline(
        &format!("{label}/naive"),
        trace,
        NaiveSamplingDetector::new(s.clone()),
    );
    assert_shard_equivalence(
        &format!("{label}/su"),
        trace,
        FreshnessDetector::new(s.clone()),
        &SHARD_COUNTS,
    );
    assert_shard_equivalence(
        &format!("{label}/so"),
        trace,
        OrderedListDetector::new(s),
        &SHARD_COUNTS,
    );
}

#[test]
fn structured_patterns_across_sampler_families() {
    for (label, trace) in workload_matrix(400, &[7]) {
        check_all_engines(&format!("{label}/always"), &trace, AlwaysSampler::new());
        check_all_engines(&format!("{label}/never"), &trace, NeverSampler::new());
        check_all_engines(
            &format!("{label}/bernoulli"),
            &trace,
            BernoulliSampler::new(0.3, 11),
        );
        check_all_engines(
            &format!("{label}/periodic"),
            &trace,
            PeriodicSampler::new(0.5, 16, 23),
        );
        check_all_engines(
            &format!("{label}/targeted"),
            &trace,
            TargetedSampler::new([VarId::new(0), VarId::new(3)]),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fuzzed_traces_hoisted_equivalence(
        fuel in proptest::collection::vec((0u8..8, 0u8..4, 0u8..6), 1..200),
        rate_millis in 0u32..=1000,
        seed in 0u64..1000,
    ) {
        let trace = trace_from_fuel(&fuel, 4, 3, 5);
        let rate = f64::from(rate_millis) / 1000.0;
        check_all_engines("fuzz", &trace, BernoulliSampler::new(rate, seed));
    }
}

/// A fully sampled-out stream must never touch a shard lock: the skip
/// path is two relaxed RMWs, full stop. Debug builds only — the
/// acquisition counter does not exist in release.
#[cfg(debug_assertions)]
#[test]
fn never_sampler_takes_zero_shard_locks() {
    let sharded = ShardedOnlineDetector::new(DjitDetector::new(NeverSampler::new()), 4);
    for i in 0..200u32 {
        let t = i % 3;
        sharded.acquire(t, 0);
        sharded.write(t, i % 17);
        sharded.read(t, (i + 1) % 17);
        sharded.release(t, 0);
    }
    assert_eq!(
        sharded.debug_shard_lock_acquisitions(),
        0,
        "sampled-out accesses must stay lock-free"
    );
    let (reports, merged) = sharded.finish_merged();
    assert!(reports.is_empty());
    assert_eq!(merged.events, 800);
    assert_eq!(merged.skipped_accesses(), 400);
    assert_eq!(merged.sampled_accesses, 0);
}

/// With an always-true decider every access takes its shard lock — the
/// counter counts, it does not just stay zero.
#[cfg(debug_assertions)]
#[test]
fn always_sampler_accounts_for_its_shard_locks() {
    let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
    for v in 0..10 {
        sharded.write(0, v);
    }
    assert_eq!(sharded.debug_shard_lock_acquisitions(), 10);
}

/// Multi-threaded stress for the hoisted ticket draw: many threads
/// hammer accesses with no application lock, so tickets are drawn
/// concurrently and shard processing can invert ticket order. Nothing
/// may be lost or duplicated: every ticket is drawn exactly once
/// (`events_processed`), every access is tallied exactly once
/// (sampled + skipped = issued), and the merged report list is
/// strictly sorted.
#[test]
fn concurrent_ticket_draws_lose_nothing() {
    const THREADS: u32 = 4;
    const OPS: u32 = 2000;
    let sharded = Arc::new(ShardedOnlineDetector::new(
        DjitDetector::new(BernoulliSampler::new(0.05, 42)),
        4,
    ));
    sharded.reserve_threads(THREADS as usize);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let sharded = Arc::clone(&sharded);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    if i % 64 == 63 {
                        sharded.acquire(t, t);
                        sharded.release(t, t);
                    } else if i % 2 == 0 {
                        sharded.write(t, i % 31);
                    } else {
                        sharded.read(t, i % 31);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Each sync iteration issues two events (acquire+release),
    // each access iteration one.
    let sync_events = u64::from(THREADS) * 2 * u64::from(OPS / 64);
    let accesses = u64::from(THREADS) * u64::from(OPS - OPS / 64);
    let total = accesses + sync_events;
    assert_eq!(sharded.events_processed(), total);
    let (reports, merged) = Arc::try_unwrap(sharded).ok().unwrap().finish_merged();
    assert_eq!(merged.events, total);
    assert_eq!(
        merged.sampled_accesses + merged.skipped_accesses(),
        accesses,
        "every access is either analyzed or tallied"
    );
    assert_eq!(merged.reads + merged.writes, accesses);
    assert!(
        reports.windows(2).all(|w| w[0].event < w[1].event),
        "merged reports must be strictly sorted"
    );
}
