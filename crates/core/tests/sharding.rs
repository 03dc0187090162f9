//! Sharded-ingestion differential suite: the executable form of the
//! verdict-preservation invariant, for every shard count and batch
//! capacity.
//!
//! [`ShardedOnlineDetector`] routes access events to `hash(var) % N`
//! shards; the happens-before skeleton is held once by a sync engine
//! behind a sync-only lock, publishing views through lock-free seqlock
//! slots. It claims the merged result is indistinguishable from the
//! single-mutex [`OnlineDetector`] and a sequential [`Detector::run`]:
//! identical (EventId-sorted) race reports and identical [`Counters`].
//! This suite checks that claim for
//!
//! * **shard counts** `N ∈ {1, 2, 4, 7}` (including a prime, so routing
//!   has no accidental alignment with the variable-id space),
//! * **batch capacities** — `B ∈ {1, 8}` in every equivalence check,
//!   and `B ∈ {1, 7, 64}` in the batched-vs-unbatched differential,
//! * **engines** Djit+ (ST), FastTrack, and the ordered-list engine
//!   (SO) — per-variable vector-clock, lossy-epoch, and lazy-copy
//!   histories respectively,
//! * **sampler families** — always, Bernoulli, periodic, never,
//!
//! over fuzzed traces (proptest; scale with `PROPTEST_CASES` — CI runs
//! a hardened pass) and the 6 structured workload patterns × 3 seeds.
//!
//! It also pins the **report-order invariant** the shard merge depends
//! on — [`Detector::run`], [`OnlineDetector::finish`] *and*
//! [`ShardedOnlineDetector::finish_merged`] at `N > 1` yield reports
//! strictly sorted by racing [`EventId`].
//!
//! [`EventId`]: freshtrack_trace::EventId
//! [`OnlineDetector`]: freshtrack_core::OnlineDetector
//! [`OnlineDetector::finish`]: freshtrack_core::OnlineDetector::finish
//! [`ShardedOnlineDetector`]: freshtrack_core::ShardedOnlineDetector
//! [`ShardedOnlineDetector::finish_merged`]: freshtrack_core::ShardedOnlineDetector::finish_merged

use freshtrack_core::{
    Counters, Detector, DjitDetector, FastTrackDetector, OnlineDetector, OrderedListDetector,
    RaceReport, ShardedOnlineDetector,
};
use freshtrack_sampling::{AlwaysSampler, BernoulliSampler, NeverSampler, PeriodicSampler};
use freshtrack_testutil::{
    assert_shard_equivalence, run_sharded_trace, run_sharded_trace_batched, trace_from_fuel,
    workload_matrix,
};
use freshtrack_trace::Trace;
use proptest::prelude::*;

/// Shard counts under test: identity, powers of two, and a prime.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Batch capacities for the batched-vs-unbatched differential: the
/// unbatched reference, a capacity that forces mid-stream flushes, and
/// one that usually defers everything to the next sync event / finish.
const BATCH_SIZES: [usize; 3] = [1, 7, 64];

/// Seeds for the structured workload matrix.
const SEEDS: [u64; 3] = [11, 4242, 987_654_321];

/// Structured-cell trace size. No quadratic oracle runs here, so cells
/// can be bigger than the conformance suite's.
const EVENTS: usize = 600;

/// Runs the shard-equivalence contract (sharded and single-mutex
/// ingestion vs `Detector::run`) for all three engines over one
/// `(trace, sampler)` cell.
fn check_all_engines<S: freshtrack_sampling::Sampler + Copy + Send>(
    label: &str,
    trace: &Trace,
    s: S,
) {
    assert_shard_equivalence(
        &format!("{label}/djit"),
        trace,
        DjitDetector::new(s),
        &SHARD_COUNTS,
    );
    assert_shard_equivalence(
        &format!("{label}/fasttrack"),
        trace,
        FastTrackDetector::new(s),
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
fn structured_patterns_at_full_sampling() {
    let mut racy_cells = 0usize;
    for (label, trace) in workload_matrix(EVENTS, &SEEDS) {
        let reports = assert_shard_equivalence(
            &format!("{label}/djit"),
            &trace,
            DjitDetector::new(AlwaysSampler::new()),
            &SHARD_COUNTS,
        );
        racy_cells += usize::from(!reports.is_empty());
        assert_shard_equivalence(
            &format!("{label}/fasttrack"),
            &trace,
            FastTrackDetector::new(AlwaysSampler::new()),
            &SHARD_COUNTS,
        );
        assert_shard_equivalence(
            &format!("{label}/so"),
            &trace,
            OrderedListDetector::new(AlwaysSampler::new()),
            &SHARD_COUNTS,
        );
    }
    // Equivalence on raceless cells is a weak check; the generator
    // seeds unprotected accesses, so most cells must be racy.
    assert!(
        racy_cells >= 6,
        "only {racy_cells} racy cells in the shard-equivalence matrix"
    );
}

#[test]
fn structured_patterns_under_bernoulli_sampling() {
    for &rate in &[0.03f64, 0.3] {
        for (label, trace) in workload_matrix(EVENTS, &SEEDS) {
            let seed = label.bytes().fold(0x5ead_beefu64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            }) ^ rate.to_bits();
            check_all_engines(
                &format!("{label}@bernoulli-{rate}"),
                &trace,
                BernoulliSampler::new(rate, seed),
            );
        }
    }
}

#[test]
fn structured_patterns_under_periodic_and_never_sampling() {
    for (label, trace) in workload_matrix(EVENTS, &SEEDS) {
        check_all_engines(
            &format!("{label}@periodic-16"),
            &trace,
            PeriodicSampler::new(0.3, 16, 5),
        );
        let reports = assert_shard_equivalence(
            &format!("{label}@never/djit"),
            &trace,
            DjitDetector::new(NeverSampler::new()),
            &SHARD_COUNTS,
        );
        assert!(
            reports.is_empty(),
            "[{label}] empty sample set must stay silent"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fuzzed traces: every engine, every shard count, Bernoulli
    /// sampling with arbitrary seed and rate.
    #[test]
    fn fuzzed_traces_shard_equivalence(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
        seed in any::<u64>(),
        rate in 0.05f64..1.0,
    ) {
        let trace = trace_from_fuel(&fuel, 5, 3, 4);
        prop_assume!(trace.validate().is_ok());
        check_all_engines("fuzz", &trace, BernoulliSampler::new(rate, seed));
    }

    /// Fuzzed traces at full sampling with more threads than shards in
    /// some configurations (8 threads vs N ∈ {1,2,4,7}).
    #[test]
    fn fuzzed_wide_traces_shard_equivalence(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..200),
    ) {
        let trace = trace_from_fuel(&fuel, 8, 4, 6);
        prop_assume!(trace.validate().is_ok());
        check_all_engines("fuzz-wide", &trace, AlwaysSampler::new());
    }

    /// Batched vs unbatched ingestion over fuzzed traces: for every
    /// engine and B ∈ {1, 7, 64}, buffering access
    /// events in per-shard batches changes neither the merged report
    /// list nor any `Counters` field — the flush-before-any-sync rule
    /// makes draw-time and flush-time views coincide, and ticket order
    /// restricted to a shard is preserved through the FIFO.
    #[test]
    fn fuzzed_traces_batched_matches_unbatched(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
        seed in any::<u64>(),
        rate in 0.05f64..1.0,
        shards_idx in 0usize..SHARD_COUNTS.len(),
    ) {
        let shards = SHARD_COUNTS[shards_idx];
        let trace = trace_from_fuel(&fuel, 5, 3, 4);
        prop_assume!(trace.validate().is_ok());
        let samplers = (BernoulliSampler::new(rate, seed), AlwaysSampler::new());
        macro_rules! check_batched {
            ($label:expr, $mk:expr) => {{
                let (base_reports, base_counters) =
                    run_sharded_trace_batched(&trace, $mk, shards, 1);
                for batch in &BATCH_SIZES[1..] {
                    let (reports, counters) =
                        run_sharded_trace_batched(&trace, $mk, shards, *batch);
                    prop_assert_eq!(
                        &reports, &base_reports,
                        "[{}] N={} B={}", $label, shards, batch
                    );
                    prop_assert_eq!(
                        counters, base_counters,
                        "[{}] N={} B={}", $label, shards, batch
                    );
                }
            }};
        }
        check_batched!("djit/bernoulli", DjitDetector::new(samplers.0));
        check_batched!("fasttrack/bernoulli", FastTrackDetector::new(samplers.0));
        check_batched!("so/bernoulli", OrderedListDetector::new(samplers.0));
        check_batched!("djit/always", DjitDetector::new(samplers.1));
        check_batched!("fasttrack/always", FastTrackDetector::new(samplers.1));
        check_batched!("so/always", OrderedListDetector::new(samplers.1));
    }

    /// Report-order regression (the invariant the shard merge builds
    /// on): every engine's `run` yields reports strictly sorted by
    /// racing EventId, the single-mutex online façade preserves that
    /// through `finish`, and — the multi-shard cases —
    /// `ShardedOnlineDetector::finish_merged` preserves it at `N > 1`.
    #[test]
    fn reports_are_sorted_by_event_id(
        fuel in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..150),
    ) {
        fn assert_sorted(label: &str, reports: &[RaceReport]) {
            assert!(
                reports.windows(2).all(|w| w[0].event < w[1].event),
                "[{label}] reports out of EventId order: {reports:?}"
            );
        }
        let trace = trace_from_fuel(&fuel, 4, 3, 3);
        prop_assume!(trace.validate().is_ok());

        assert_sorted("djit", &DjitDetector::new(AlwaysSampler::new()).run(&trace));
        assert_sorted(
            "fasttrack",
            &FastTrackDetector::new(AlwaysSampler::new()).run(&trace),
        );
        assert_sorted("so", &OrderedListDetector::new(AlwaysSampler::new()).run(&trace));

        let baseline = DjitDetector::new(AlwaysSampler::new()).run(&trace);

        let online = OnlineDetector::new(DjitDetector::new(AlwaysSampler::new()));
        for (_, event) in trace.iter() {
            online.on_event(event.tid.as_u32(), event.kind);
        }
        let (_, reports) = online.finish();
        assert_sorted("online", &reports);
        assert_eq!(
            reports, baseline,
            "online façade must replay the trace verbatim"
        );

        // finish_merged at N > 1: the merge itself must restore strict
        // EventId order from the per-shard partitions.
        for shards in [2usize, 4, 7] {
            let (reports, merged) = run_sharded_trace(
                &trace,
                DjitDetector::new(AlwaysSampler::new()),
                shards,
            );
            assert_sorted(&format!("finish_merged/{shards}"), &reports);
            assert_eq!(
                reports, baseline,
                "finish_merged({shards}) must reproduce the baseline"
            );
            assert_eq!(reports.len() as u64, merged.races);
        }
    }
}

/// A deterministic non-proptest regression: the racy mixed pattern has
/// multiple reports, and the sharded merge keeps them sorted and equal
/// to the baseline for every shard count — including through
/// `finish_merged` at `N > 1`.
#[test]
fn regression_sorted_merge_on_racy_cell() {
    let (label, trace) = workload_matrix(EVENTS, &[11])
        .into_iter()
        .next()
        .expect("matrix is non-empty");
    let reports = assert_shard_equivalence(
        &label,
        &trace,
        DjitDetector::new(AlwaysSampler::new()),
        &SHARD_COUNTS,
    );
    assert!(reports.len() >= 2, "[{label}] want a multi-report cell");
    assert!(reports.windows(2).all(|w| w[0].event < w[1].event));

    let sharded = ShardedOnlineDetector::new(DjitDetector::new(AlwaysSampler::new()), 4);
    for (_, event) in trace.iter() {
        sharded.on_event(event.tid.as_u32(), event.kind);
    }
    let (merged_reports, counters) = sharded.finish_merged();
    assert_eq!(merged_reports, reports);
    assert_eq!(counters.races as usize, reports.len());
}

// ---------------------------------------------------------------------
// Dense publication differential: engine overrides vs the trait default.
// ---------------------------------------------------------------------

/// Delegating wrapper that inherits the *default*
/// [`SyncEngine::publish_dense`] / `publish_dense_ref` (the per-entry
/// `time_of` linearization) while forwarding everything else, so the
/// memcpy overrides can be pinned against the reference semantics.
struct DefaultDense<E>(E);

use freshtrack_clock::ThreadId;
use freshtrack_core::{FreshnessSyncEngine, OrderedSyncEngine, SyncEngine, VectorSyncEngine};
use freshtrack_trace::LockId;

impl<E: SyncEngine> SyncEngine for DefaultDense<E> {
    type View = E::View;

    fn ensure_thread(&mut self, tid: ThreadId) {
        self.0.ensure_thread(tid);
    }

    fn acquire(&mut self, tid: ThreadId, lock: LockId, counters: &mut Counters) {
        self.0.acquire(tid, lock, counters);
    }

    fn release(
        &mut self,
        tid: ThreadId,
        lock: LockId,
        sampled_since_release: bool,
        counters: &mut Counters,
    ) {
        self.0.release(tid, lock, sampled_since_release, counters);
    }

    fn publish(&mut self, tid: ThreadId) -> Self::View {
        self.0.publish(tid)
    }

    fn reserve_threads(&mut self, n: usize) {
        self.0.reserve_threads(n);
    }
}

/// Drives the same sync-event stream through an engine and its
/// default-dense twin and asserts the dense publications agree at every
/// step, for several width caps — including `usize::MAX` (no promise)
/// and the tight active-width cap the sharded detector uses.
fn assert_dense_matches_default<E: SyncEngine>(
    label: &str,
    mut engine: E,
    mut twin: DefaultDense<E>,
) {
    const THREADS: u32 = 6;
    const LOCKS: u32 = 3;
    let mut counters_a = Counters::new();
    let mut counters_b = Counters::new();
    engine.reserve_threads(32); // wide reservation: idle tail present
    twin.reserve_threads(32);

    let mut active = 0usize;
    let step =
        |engine: &mut E, twin: &mut DefaultDense<E>, active: usize, label: &str, round: u32| {
            let mut a = Vec::new();
            let mut b = Vec::new();
            for t in 0..THREADS {
                let tid = ThreadId::new(t);
                for cap in [usize::MAX, active.max(1), tid.index() + 1] {
                    engine.publish_dense(tid, cap, &mut a);
                    twin.publish_dense(tid, cap, &mut b);
                    assert_eq!(
                        a, b,
                        "[{label}] round {round} tid {t} cap {cap}: override vs default"
                    );
                    if let Some(img) = engine.publish_dense_ref(tid, cap) {
                        assert_eq!(
                            img,
                            &a[..],
                            "[{label}] round {round} tid {t} cap {cap}: ref vs materialized"
                        );
                    }
                }
            }
        };

    for round in 0..40u32 {
        let tid = ThreadId::new(round % THREADS);
        let lock = LockId::new(round % LOCKS);
        active = active.max(tid.index() + 1);
        if round % 2 == 0 {
            engine.acquire(tid, lock, &mut counters_a);
            twin.acquire(tid, lock, &mut counters_b);
        } else {
            let sampled = round % 3 == 0;
            engine.release(tid, lock, sampled, &mut counters_a);
            twin.release(tid, lock, sampled, &mut counters_b);
        }
        step(&mut engine, &mut twin, active, label, round);
    }
}

/// The doc contract on [`SyncEngine::publish_dense`]: the engines'
/// memcpy overrides (and the zero-copy `publish_dense_ref` borrow) are
/// interchangeable with the default per-entry linearization of
/// `publish`'s view, for every engine and width cap.
#[test]
fn dense_publication_matches_default_linearization() {
    assert_dense_matches_default(
        "vector",
        VectorSyncEngine::new(),
        DefaultDense(VectorSyncEngine::new()),
    );
    assert_dense_matches_default(
        "freshness",
        FreshnessSyncEngine::new(),
        DefaultDense(FreshnessSyncEngine::new()),
    );
    for opt in [false, true] {
        assert_dense_matches_default(
            &format!("ordered(local_epoch_opt={opt})"),
            OrderedSyncEngine::new(opt),
            DefaultDense(OrderedSyncEngine::new(opt)),
        );
    }
}
