//! Hoisted-vs-inline differential suite for the lock-free skip path
//! (invariant 10 in `ARCHITECTURE.md`).
//!
//! The online façades evaluate the sampler's per-thread rule *before*
//! any lock — via [`Detector::hoisted_decider`], on each access's
//! ordinal within its thread — and sampled-out accesses never reach an
//! engine; a sequential [`Detector::run`] decides inline, in the middle
//! of `process`. Given the same sample set (the online reference,
//! [`online_reference`](freshtrack_testutil::online_reference)), both
//! must be indistinguishable: identical (EventId-sorted) race reports
//! and **full** [`Counters`] equality — every field, including the work
//! counters — because the hoisted decision changes *where* the verdict
//! is computed, never *what* the detector does with it.
//!
//! Coverage: all five engines × sampler families {always, never,
//! Bernoulli, periodic, targeted} × shard counts {1, 2, 4, 7}, over
//! fuzzed (proptest) and structured traces. Every sharded cell is fed
//! through `on_event`, through thread handles and through both mixed
//! ([`Feed`]).
//!
//! Two regressions ride along:
//! * a fully sampled-out stream must acquire **zero** shard locks
//!   (pinned through the debug-only acquisition counter), and
//! * concurrent lock-free id draws must neither lose nor duplicate
//!   one, and the sample set must not depend on the interleaving (the
//!   multi-threaded stress below; `contention.rs` adds application
//!   locks and checks verdicts).

use freshtrack_core::{DjitDetector, ShardedOnlineDetector};
use freshtrack_sampling::{
    AlwaysSampler, BernoulliSampler, NeverSampler, PeriodicSampler, Sampler, TargetedSampler,
};
use freshtrack_testutil::{
    assert_online_matches_reference, assert_shard_equivalence, feed_sharded, online_sample_count,
    trace_from_fuel, workload_matrix, Djit, FastTrack, Feed, Naive, So, Su, ThreadFeed,
};
use freshtrack_trace::{Event, EventKind, LockId, ThreadId, Trace, VarId};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// One `(trace, sampler)` cell across all five engines. The naive
/// baseline cannot shard, but its single-mutex run must still match
/// the reference exactly.
fn check_all_engines<S: Sampler>(label: &str, trace: &Trace, s: S) {
    assert_shard_equivalence(
        &format!("{label}/djit"),
        trace,
        Djit,
        s.clone(),
        &SHARD_COUNTS,
    );
    assert_shard_equivalence(
        &format!("{label}/fasttrack"),
        trace,
        FastTrack,
        s.clone(),
        &SHARD_COUNTS,
    );
    assert_online_matches_reference(&format!("{label}/naive"), trace, Naive, &s);
    assert_shard_equivalence(&format!("{label}/su"), trace, Su, s.clone(), &SHARD_COUNTS);
    assert_shard_equivalence(&format!("{label}/so"), trace, So, s, &SHARD_COUNTS);
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
/// path writes only the thread's own cell (or its handle), full stop.
/// Debug builds only — the acquisition counter does not exist in
/// release.
#[cfg(debug_assertions)]
#[test]
fn never_sampler_takes_zero_shard_locks() {
    for feed in Feed::ALL {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(NeverSampler::new()), 4);
        feed_sharded(
            &sharded,
            feed,
            (0..200u32).flat_map(|i| {
                let t = i % 3;
                [
                    (t, EventKind::Acquire(LockId::new(0))),
                    (t, EventKind::Write(VarId::new(i % 17))),
                    (t, EventKind::Read(VarId::new((i + 1) % 17))),
                    (t, EventKind::Release(LockId::new(0))),
                ]
            }),
        );
        assert_eq!(
            sharded.debug_shard_lock_acquisitions(),
            0,
            "[{feed:?}] sampled-out accesses must stay lock-free"
        );
        let (reports, merged) = sharded.finish_merged();
        assert!(reports.is_empty());
        assert_eq!(merged.events, 800, "{feed:?}");
        assert_eq!(merged.skipped_accesses(), 400, "{feed:?}");
        assert_eq!(merged.sampled_accesses, 0, "{feed:?}");
    }
}

/// With an always-true decider every access takes its shard lock — the
/// counter counts, it does not just stay zero.
#[cfg(debug_assertions)]
#[test]
fn always_sampler_accounts_for_its_shard_locks() {
    for feed in Feed::ALL {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 2);
        feed_sharded(
            &sharded,
            feed,
            (0..10).map(|v| (0, EventKind::Write(VarId::new(v)))),
        );
        assert_eq!(sharded.debug_shard_lock_acquisitions(), 10, "{feed:?}");
    }
}

/// Multi-threaded stress for the hoisted id draw: many threads hammer
/// accesses with no application lock, so ids are drawn concurrently and
/// shard processing can invert ticket order. Nothing may be lost or
/// duplicated: exactly one id is drawn per sampled access
/// (`tickets_drawn`), every access is tallied exactly once (sampled +
/// skipped = issued), the sampled count is the one the per-thread rule
/// gives for the threads' programs whatever the interleaving, and the
/// merged report list is strictly sorted.
#[test]
fn concurrent_ticket_draws_lose_nothing() {
    const THREADS: u32 = 4;
    const OPS: u32 = 2000;
    /// Thread `t`'s `i`-th operation: `None` is an acquire/release pair.
    fn op(t: u32, i: u32) -> Option<Event> {
        let kind = if i % 64 == 63 {
            return None;
        } else if i % 2 == 0 {
            EventKind::Write(VarId::new(i % 31))
        } else {
            EventKind::Read(VarId::new(i % 31))
        };
        Some(Event::new(ThreadId::new(t), kind))
    }
    let sampler = BernoulliSampler::new(0.05, 42);
    let programs: Vec<Vec<Event>> = (0..THREADS)
        .map(|t| (0..OPS).filter_map(|i| op(t, i)).collect())
        .collect();
    let want_sampled = online_sample_count(&sampler, &programs);
    for feed in Feed::ALL {
        let sharded = ShardedOnlineDetector::new(DjitDetector::new(sampler), 4);
        sharded.reserve_threads(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let sharded = &sharded;
                s.spawn(move || {
                    let mut me = ThreadFeed::new(sharded, t, feed);
                    for i in 0..OPS {
                        match op(t, i) {
                            None => {
                                me.acquire(t);
                                me.release(t);
                            }
                            Some(event) => {
                                me.on_event(event.kind);
                            }
                        }
                    }
                });
            }
        });
        // Each sync iteration issues two events (acquire+release),
        // each access iteration one.
        let sync_events = u64::from(THREADS) * 2 * u64::from(OPS / 64);
        let accesses = u64::from(THREADS) * u64::from(OPS - OPS / 64);
        let total = accesses + sync_events;
        let tickets = sharded.tickets_drawn();
        let (reports, merged) = sharded.finish_merged();
        assert_eq!(merged.events, total, "{feed:?}");
        assert_eq!(
            tickets, merged.sampled_accesses,
            "[{feed:?}] one id per sampled access"
        );
        assert_eq!(
            merged.sampled_accesses, want_sampled,
            "[{feed:?}] the per-thread rule's sample set"
        );
        assert_eq!(
            merged.sampled_accesses + merged.skipped_accesses(),
            accesses,
            "[{feed:?}] every access is either analyzed or tallied"
        );
        assert_eq!(merged.reads + merged.writes, accesses, "{feed:?}");
        assert!(
            reports.windows(2).all(|w| w[0].event < w[1].event),
            "[{feed:?}] merged reports must be strictly sorted"
        );
    }
}
